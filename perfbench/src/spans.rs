//! Benchmark-owned span recorder for the traced replay.
//!
//! Every call the replay makes into a layer of the program is wrapped in
//! a span named `<layer>.<call>`; spans nest through an explicit stack,
//! so each span knows its parent. Spans stay in memory and are written
//! out once, as Chrome trace-event JSON (Perfetto and chrome://tracing
//! open it), when the run ends. Roots (`request`, `sweep`) and the
//! `point` grouping spans belong to the benchmark, not to a layer: their
//! self time is the part of a request no layer call covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or open) span.
pub struct Span {
    pub name: &'static str,
    /// The request (or sweep) this span belongs to: one trace track each.
    pub track: usize,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Span names whose self time is benchmark glue rather than a layer.
const ROOTS: [&str; 3] = ["request", "sweep", "point"];

pub struct Spans {
    /// Whether spans are recorded at all; off, every call is a no-op.
    pub on: bool,
    origin: Instant,
    pub list: Vec<Span>,
    stack: Vec<usize>,
    track: usize,
    track_names: BTreeMap<usize, String>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            list: Vec::new(),
            stack: Vec::new(),
            track: 0,
            track_names: BTreeMap::new(),
        }
    }

    /// Starts a new track (one per replayed request or sweep).
    pub fn track(&mut self, track: usize, name: String) {
        self.track = track;
        if self.on {
            self.track_names.insert(track, name);
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.list.len();
        self.list.push(Span {
            name,
            track: self.track,
            parent: self.stack.last().copied(),
            start_us: self.now_us(),
            dur_us: 0.0,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now_us();
        let span = &mut self.list[id];
        span.dur_us = end - span.start_us;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a finished child span of `parent` whose timing was reported
    /// after the fact (the planner hook's sub-stages).
    pub fn push_child(&mut self, parent: usize, name: &'static str, start_us: f64, dur_us: f64) {
        let track = self.list[parent].track;
        self.list.push(Span {
            name,
            track,
            parent: Some(parent),
            start_us,
            dur_us,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self.list.iter().map(|s| s.dur_us).collect();
        for span in &self.list {
            if let Some(parent) = span.parent {
                times[parent] -= span.dur_us;
            }
        }
        times
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// Total duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time summed per layer, in ms, plus the total time of the
    /// root spans. A span's layer is its name up to the first `.`;
    /// benchmark-owned spans report under `unattributed`.
    pub fn layer_self_ms(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let self_us = self.self_times();
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut root_total = 0.0;
        for (span, self_us) in self.list.iter().zip(self_us) {
            if span.parent.is_none() {
                root_total += span.dur_us / 1e3;
            }
            let layer = if ROOTS.contains(&span.name) {
                "unattributed"
            } else {
                span.name.split('.').next().unwrap_or(span.name)
            };
            *layers.entry(layer).or_default() += self_us / 1e3;
        }
        (layers, root_total)
    }

    /// Every span as Chrome trace-event JSON: complete (`"X"`) events on
    /// one thread track per request, with span and parent ids in `args`,
    /// plus a thread-name metadata event per track.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |event: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&event);
        };
        for (track, name) in &self.track_names {
            push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"name\":{}}}}}",
                serde_json::to_string(name).expect("strings serialize")
            ));
        }
        for (id, span) in self.list.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let layer = span.name.split('.').next().unwrap_or(span.name);
            push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                span.name, span.track, span.start_us, span.dur_us
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        spans.track(0, "r0".into());
        let root = spans.open("request");
        let plan = spans.open("core.plan");
        spans.close(plan);
        spans.close(root);
        let p = plan.unwrap();
        spans.push_child(
            p,
            "core.plan.tdm_grouping",
            spans.list[p].start_us,
            spans.list[p].dur_us / 2.0,
        );
        let times = spans.self_times();
        assert!((times[0] - (spans.list[0].dur_us - spans.list[1].dur_us)).abs() < 1e-9);
        assert!((times[1] - spans.list[1].dur_us / 2.0).abs() < 1e-9);
        let (layers, root_total) = spans.layer_self_ms();
        let sum: f64 = layers.values().sum();
        assert!((sum - root_total).abs() < 1e-9);
        assert!(spans.chrome_trace().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::new(false);
        let out = spans.time("noise.fit", || 3);
        assert_eq!(out, 3);
        assert!(spans.list.is_empty());
    }
}
