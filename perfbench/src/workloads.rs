//! The three workloads: seeded request generators, the timed closed
//! loops that drive the program through its serving entry points, the
//! output checks, and the metrics each run reports.
//!
//! * `cold-design` — one client, one request in flight, a stream of
//!   default design requests that never repeats a (chip, seed).
//! * `daemon-warm` — two frames in flight against a daemon whose base
//!   chips were designed during set-up: cache repeats, drift and
//!   dead-coupler deltas, θ/FDM-capacity variants.
//! * `sweep-plan` — back-to-back `run_sweep` calls over large fabrics,
//!   with no model fit, one sweep at a time.
//!
//! Requests come in fixed-composition rounds (the seed picks order,
//! shapes' orientation, characterization seeds and knob values), and a
//! run is a fixed number of rounds sized to `--seconds` on the reference
//! machine, so every run measures the same request mix and amount of
//! work whatever its seed.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use serde::Value;
use youtiao::chip::spec::ChipSpec;
use youtiao::serve::{ChipRequest, DaemonOptions, DeltaSpec, DesignRequest, DriftEntry};
use youtiao::xplore::{run_sweep, SweepOptions, SweepRecord, SweepSpec};

use crate::daemon::{closed_loop, Client, Sample};
use crate::replay::Replayer;
use crate::stats::{fnv1a, geomean, median, peak_rss_mb, percentile, ratio, Rng, FNV_START};

/// The seed the output digests are pinned for.
pub const DEFAULT_SEED: u64 = 1;

/// Canonical-stream digests of each workload's first round (first sweep
/// for `sweep-plan`, its records minus timings) at [`DEFAULT_SEED`].
/// A change that alters any plan, cost figure or error answer for these
/// inputs changes the digest and fails the run.
const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("cold-design", 0xa3c6_ce0f_3398_df8d),
    ("daemon-warm", 0x2e32_8ea6_4963_0f26),
    ("sweep-plan", 0x42a8_f100_3172_196e),
];

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The budget the timed rounds are sized to. A traced run also
    /// replays every timed request, about as long again, so it times
    /// half as many rounds.
    fn timed_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Class {
    /// Set-up traffic: warm-up requests and `daemon-warm` base designs.
    Setup,
    Plain,
    Chiplet,
    /// A routed square chip of 10×10 or more, which today exhausts the
    /// perimeter interface pads on every attempt.
    RoutedLarge,
    Repeat,
    /// The first delta on a base: the repair store does not hold it yet,
    /// so the base is designed again inline.
    FirstDelta,
    ResidentDrift,
    Structural,
    Variant,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Setup => "setup",
            Class::Plain => "plain",
            Class::Chiplet => "chiplet",
            Class::RoutedLarge => "routed-large",
            Class::Repeat => "repeat",
            Class::FirstDelta => "first-delta",
            Class::ResidentDrift => "resident-drift",
            Class::Structural => "structural",
            Class::Variant => "variant",
        }
    }
}

pub struct Job {
    pub class: Class,
    pub request: DesignRequest,
}

fn job(class: Class, request: DesignRequest) -> Job {
    Job { class, request }
}

fn design(chip: ChipRequest, seed: u64) -> DesignRequest {
    let mut request = DesignRequest::new(chip);
    request.seed = Some(seed);
    request
}

/// A named chip shape: `(topology, a, b)` is rows × cols, or the code
/// distance `a` for `surface`.
fn chip(topology: &str, a: usize, b: usize) -> ChipRequest {
    if topology == "surface" {
        ChipRequest {
            distance: Some(a),
            ..ChipRequest::named("surface")
        }
    } else {
        ChipRequest::grid(topology, a, b)
    }
}

fn frame(index: usize, job: &Job) -> String {
    format!(
        "{{\"op\":\"design\",\"rid\":\"{index}\",\"request\":{}}}",
        serde_json::to_string(&job.request).expect("requests serialize")
    )
}

/// Sizes a run: a fixed number of rounds, `--seconds` divided by the
/// workload's round time on the reference machine (2 cores), so every
/// run of a workload does the same work whatever the machine's speed
/// that moment. A run that takes more than twice its budget starts no
/// further round.
struct Rounds {
    len: usize,
    planned: usize,
    limit_s: f64,
    start: Instant,
}

impl Rounds {
    fn new(len: usize, nominal_round_s: f64, seconds: f64) -> Self {
        Rounds {
            len,
            planned: ((seconds / nominal_round_s).round() as usize).max(1),
            limit_s: 2.0 * seconds,
            start: Instant::now(),
        }
    }

    /// Called before request `index` is generated.
    fn stop_before(&self, index: usize) -> bool {
        index.is_multiple_of(self.len)
            && (index / self.len >= self.planned
                || self.start.elapsed().as_secs_f64() >= self.limit_s)
    }
}

/// `cold-design`: per round of 25, 22 plain chips of 16–56 qubits over
/// the five topologies, two 2×2 chiplet arrays and one routed 10×10
/// square. The plain shapes form an even ladder of request times, and 25
/// is odd with 0.9 × 25 half-way between ranks: over whole rounds the
/// p50 and p90 fall inside one shape's samples, not on a gap between two.
struct ColdGen {
    rng: Rng,
    seen: HashSet<u64>,
}

const COLD_PLAIN: [(&str, usize, usize); 22] = [
    ("square", 4, 4),
    ("hexagon", 2, 2),
    ("surface", 3, 0),
    ("square", 4, 5),
    ("heavy-square", 3, 3),
    ("square", 5, 5),
    ("square", 5, 6),
    ("square", 5, 7),
    ("square", 6, 6),
    ("hexagon", 3, 3),
    ("square", 6, 7),
    ("hexagon", 3, 4),
    ("heavy-hexagon", 2, 2),
    ("square", 7, 7),
    ("square", 6, 8),
    ("hexagon", 3, 5),
    ("heavy-square", 4, 4),
    ("hexagon", 4, 4),
    ("heavy-square", 4, 5),
    ("surface", 5, 0),
    ("heavy-hexagon", 2, 3),
    ("square", 7, 8),
];
const COLD_CHIPLET_DIES: [(&str, usize, usize); 2] = [("square", 4, 4), ("hexagon", 2, 2)];
const COLD_ROUND: usize = COLD_PLAIN.len() + COLD_CHIPLET_DIES.len() + 1;
/// Seconds per `cold-design` round on the reference machine.
const COLD_ROUND_S: f64 = 7.5;

impl ColdGen {
    fn new(seed: u64) -> Self {
        ColdGen {
            rng: Rng::new(seed ^ 0xC01D_DE51_6E00_0000),
            seen: HashSet::new(),
        }
    }

    /// A characterization seed no earlier request of the run used.
    fn fresh_seed(&mut self) -> u64 {
        loop {
            let seed = self.rng.next_u64();
            if self.seen.insert(seed) {
                return seed;
            }
        }
    }

    fn setup(&mut self) -> Vec<Job> {
        let mut chiplets = chip("square", 3, 3);
        chiplets.chiplets = Some(4);
        [chip("square", 5, 5), chip("hexagon", 3, 3), chiplets]
            .into_iter()
            .map(|c| job(Class::Setup, design(c, self.fresh_seed())))
            .collect()
    }

    fn round(&mut self) -> Vec<Job> {
        let mut round = Vec::with_capacity(COLD_ROUND);
        for (topology, a, b) in COLD_PLAIN {
            let (a, b) = if self.rng.below(2) == 1 && topology != "surface" {
                (b, a)
            } else {
                (a, b)
            };
            round.push(job(
                Class::Plain,
                design(chip(topology, a, b), self.fresh_seed()),
            ));
        }
        for (topology, a, b) in COLD_CHIPLET_DIES {
            let mut array = chip(topology, a, b);
            array.chiplets = Some(4);
            round.push(job(Class::Chiplet, design(array, self.fresh_seed())));
        }
        round.push(job(
            Class::RoutedLarge,
            design(chip("square", 10, 10), self.fresh_seed()),
        ));
        self.rng.shuffle(&mut round);
        round
    }
}

/// `daemon-warm`: four resident bases; per round of 20, six exact
/// repeats, nine drift deltas, two dead-coupler deltas and three θ/FDM
/// variants.
struct WarmGen {
    rng: Rng,
    bases: Vec<DesignRequest>,
    couplers: Vec<Vec<(u32, u32)>>,
    qubits: Vec<u32>,
    had_delta: Vec<bool>,
    seen: HashSet<String>,
    rounds: usize,
}

const WARM_BASES: [(&str, usize, usize); 4] = [
    ("square", 6, 6),
    ("heavy-square", 4, 4),
    ("hexagon", 4, 4),
    ("surface", 5, 0),
];
// Per round: the slow classes (variants, and the fast request each one
// holds up behind it in the in-order stream) stay near 30%, so the p90
// falls inside them and the p50 inside the resident drift deltas.
const WARM_REPEATS: usize = 6;
const WARM_DRIFTS: usize = 9;
const WARM_DEAD: usize = 2;
const WARM_VARIANTS: usize = 3;
const WARM_ROUND: usize = WARM_REPEATS + WARM_DRIFTS + WARM_DEAD + WARM_VARIANTS;
/// Seconds per `daemon-warm` round on the reference machine.
const WARM_ROUND_S: f64 = 0.65;

impl WarmGen {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x0057_A53D_AE30_0000);
        let bases: Vec<DesignRequest> = WARM_BASES
            .iter()
            .map(|&(topology, a, b)| design(chip(topology, a, b), rng.next_u64()))
            .collect();
        let built: Vec<_> = bases
            .iter()
            .map(|b| b.chip.build().expect("base chips resolve"))
            .collect();
        WarmGen {
            rng,
            couplers: built
                .iter()
                .map(|c| ChipSpec::from_chip(c).couplers)
                .collect(),
            qubits: built.iter().map(|c| c.num_qubits() as u32).collect(),
            had_delta: vec![false; bases.len()],
            bases,
            seen: HashSet::new(),
            rounds: 0,
        }
    }

    /// Warm-ups (distinct chips and seeds from every timed request),
    /// then the base designs the timed traffic refers to.
    fn setup(&mut self) -> Vec<Job> {
        let mut jobs: Vec<Job> = [chip("square", 4, 4), chip("hexagon", 3, 3)]
            .into_iter()
            .map(|c| job(Class::Setup, design(c, self.rng.next_u64())))
            .collect();
        jobs.extend(self.bases.iter().map(|b| job(Class::Setup, b.clone())));
        jobs
    }

    fn delta_class(&mut self, base: usize, resident: Class) -> Class {
        if std::mem::replace(&mut self.had_delta[base], true) {
            resident
        } else {
            Class::FirstDelta
        }
    }

    /// A request over `base` that no earlier request of the run made.
    fn unique(&mut self, mut make: impl FnMut(&mut Rng) -> DesignRequest) -> DesignRequest {
        loop {
            let request = make(&mut self.rng);
            let key = serde_json::to_string(&request).expect("requests serialize");
            if self.seen.insert(key) {
                return request;
            }
        }
    }

    fn drift(&mut self, base: usize) -> Job {
        let n = self.qubits[base];
        let template = self.bases[base].clone();
        let request = self.unique(|rng| {
            let a = rng.below(n as usize) as u32;
            let b = (a + 1 + rng.below(n as usize - 1) as u32) % n;
            let mut request = template.clone();
            request.delta = Some(DeltaSpec {
                drift: Some(vec![DriftEntry {
                    a: a.min(b),
                    b: a.max(b),
                    xtalk: 1e-3 + rng.below(9_000) as f64 * 1e-6,
                }]),
                ..DeltaSpec::default()
            });
            request
        });
        let class = self.delta_class(base, Class::ResidentDrift);
        job(class, request)
    }

    fn dead(&mut self, base: usize) -> Job {
        let couplers = self.couplers[base].clone();
        let template = self.bases[base].clone();
        let mut tries = 0usize;
        let request = self.unique(|rng| {
            // Single dead couplers first; pairs once singles run out.
            tries += 1;
            let mut dead = vec![couplers[rng.below(couplers.len())]];
            if tries > 4 * couplers.len() {
                let other = couplers[rng.below(couplers.len())];
                if other != dead[0] {
                    dead.push(other);
                    dead.sort_unstable();
                }
            }
            let mut request = template.clone();
            request.delta = Some(DeltaSpec {
                dead_couplers: Some(dead),
                ..DeltaSpec::default()
            });
            request
        });
        let class = self.delta_class(base, Class::Structural);
        job(class, request)
    }

    fn variant(&mut self, base: usize) -> Job {
        let template = self.bases[base].clone();
        let request = self.unique(|rng| {
            let mut request = template.clone();
            request.theta = Some(2.0 + rng.below(6_001) as f64 * 1e-3);
            request.fdm_capacity = Some(4 + rng.below(3));
            request
        });
        job(Class::Variant, request)
    }

    fn round(&mut self) -> Vec<Job> {
        enum Slot {
            Repeat(usize),
            Drift(usize),
            Dead(usize),
            Variant(usize),
        }
        // Bases rotate through every class, so each run covers them
        // evenly whatever its length.
        let b = self.bases.len();
        let mut next_base = {
            let mut k = self.rounds * WARM_ROUND;
            move || {
                k += 1;
                k % b
            }
        };
        let mut slots: Vec<Slot> = Vec::with_capacity(WARM_ROUND);
        slots.extend((0..WARM_REPEATS).map(|_| Slot::Repeat(next_base())));
        slots.extend((0..WARM_DRIFTS).map(|_| Slot::Drift(next_base())));
        slots.extend((0..WARM_DEAD).map(|_| Slot::Dead(next_base())));
        slots.extend((0..WARM_VARIANTS).map(|_| Slot::Variant(next_base())));
        self.rounds += 1;
        self.rng.shuffle(&mut slots);
        // Materialized in send order, so "first delta on a base" is
        // decided in the order the daemon sees the requests.
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Repeat(base) => job(Class::Repeat, self.bases[base].clone()),
                Slot::Drift(base) => self.drift(base),
                Slot::Dead(base) => self.dead(base),
                Slot::Variant(base) => self.variant(base),
            })
            .collect()
    }
}

/// Response fields that vary run to run; dropping them gives the
/// daemon's canonical response line.
const RUN_DEPENDENT: [&str; 5] = ["attempts", "latency_ms", "cache_hit", "shard", "trace"];

/// One parsed response.
struct Response {
    canonical: String,
    ok: bool,
    result: Option<String>,
    error: Option<(String, String)>,
    cache_hit: Option<bool>,
    attempts: Option<u64>,
    cost_reduction: Option<f64>,
    coax_reduction: Option<f64>,
}

fn parse_response(rid: usize, line: &str) -> Result<Response, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("bad response {line}: {e}"))?;
    let Value::Object(mut map) = value else {
        return Err(format!("response is not an object: {line}"));
    };
    if map.get("rid").and_then(Value::as_str) != Some(rid.to_string().as_str()) {
        return Err(format!(
            "response out of order: expected rid {rid}, got {line}"
        ));
    }
    let cache_hit = map.get("cache_hit").and_then(Value::as_bool);
    let attempts = map.get("attempts").and_then(Value::as_u64);
    for key in RUN_DEPENDENT {
        map.remove(key);
    }
    let ok = map.get("status").and_then(Value::as_str) == Some("Ok");
    let result = map.get("result").filter(|v| !v.is_null());
    let field = |name: &str| result.and_then(|r| r.get(name)).and_then(Value::as_f64);
    let error = map.get("error").filter(|v| !v.is_null()).map(|e| {
        let text = |k: &str| {
            e.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        (text("kind"), text("message"))
    });
    Ok(Response {
        cost_reduction: field("cost_reduction"),
        coax_reduction: field("coax_reduction"),
        result: result.map(|r| serde_json::to_string(r).expect("values serialize")),
        canonical: serde_json::to_string(&Value::Object(map)).expect("values serialize"),
        ok,
        error,
        cache_hit,
        attempts,
    })
}

/// Whether a response is an acceptable answer for its class. Routed
/// chips of 10×10 and up may answer with a plan or with a structured
/// routing/planning error (today: `Route` after every retry); every
/// other class must answer with a plan.
fn acceptable(class: Class, response: &Response) -> bool {
    match class {
        Class::RoutedLarge => {
            response.ok
                || response.error.as_ref().is_some_and(|(kind, _)| {
                    matches!(kind.as_str(), "Route" | "Plan" | "Validation")
                })
        }
        _ => response.ok,
    }
}

fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    lines.into_iter().fold(FNV_START, |hash, line| {
        fnv1a(fnv1a(hash, line.as_bytes()), b"\n")
    })
}

/// Checks the first-round digest against the pin, for the default seed.
fn digest_matches(args: &Args, value: u64, notes: &mut Vec<String>) -> bool {
    let pinned = PINNED_DIGESTS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, d)| d);
    notes.push(format!("first-round digest {value:016x}"));
    if args.seed != DEFAULT_SEED {
        return true;
    }
    let ok = pinned == Some(value);
    if !ok {
        notes.push(format!(
            "DIGEST MISMATCH: pinned {:016x}, got {value:016x}",
            pinned.unwrap_or(0)
        ));
    }
    ok
}

/// A daemon session driven through set-up and one timed closed loop.
struct DaemonRun {
    setup_s: Vec<f64>,
    setup: Vec<Job>,
    setup_responses: Vec<Response>,
    jobs: Vec<Job>,
    samples: Vec<Sample>,
    responses: Vec<Response>,
    wall_s: f64,
    report: youtiao::serve::DaemonReport,
}

/// Runs [`SETUP_REPEATS`] full set-ups (daemon start plus `setup`
/// jobs, one at a time), keeps the last daemon, then drives the run's
/// rounds from `round` with `window` frames in flight.
fn drive_daemon(
    args: &Args,
    window: usize,
    round_len: usize,
    nominal_round_s: f64,
    setup: Vec<Job>,
    mut round: impl FnMut() -> Vec<Job>,
) -> Result<DaemonRun, String> {
    // The daemon at its defaults — one worker per core, canonical
    // responses, empty cache — except that the traced run asks for the
    // run-dependent fields (`attempts`, `cache_hit`) its counters use.
    let options = DaemonOptions {
        canonical: !args.trace,
        ..DaemonOptions::default()
    };
    let mut setup_s = Vec::new();
    let mut client = None;
    let mut setup_responses = Vec::new();
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = client.take() {
            Client::finish(previous)?;
        }
        let started = Instant::now();
        let fresh = Client::start(options.clone());
        let samples = closed_loop(&fresh, 1, |i| setup.get(i).map(|j| frame(i, j)))?;
        setup_s.push(started.elapsed().as_secs_f64());
        setup_responses = samples
            .iter()
            .enumerate()
            .map(|(i, s)| parse_response(i, &s.line))
            .collect::<Result<_, _>>()?;
        if let Some(bad) = setup_responses.iter().find(|r| !r.ok) {
            return Err(format!("set-up request failed: {}", bad.canonical));
        }
        client = Some(fresh);
    }
    let client = client.expect("at least one set-up");

    let mut jobs: Vec<Job> = Vec::new();
    let mut pending: Vec<Job> = Vec::new();
    let offset = setup.len();
    let rounds = Rounds::new(round_len, nominal_round_s, args.timed_seconds());
    let started = Instant::now();
    let samples = closed_loop(&client, window, |i| {
        if rounds.stop_before(i) {
            return None;
        }
        if pending.is_empty() {
            pending = round();
            pending.reverse();
        }
        let job = pending.pop().expect("rounds are non-empty");
        let line = frame(offset + i, &job);
        jobs.push(job);
        Some(line)
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    let report = client.finish()?;
    let responses = samples
        .iter()
        .enumerate()
        .map(|(i, s)| parse_response(offset + i, &s.line))
        .collect::<Result<_, _>>()?;
    Ok(DaemonRun {
        setup_s,
        setup,
        setup_responses,
        jobs,
        samples,
        responses,
        wall_s,
        report,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics every workload reports.
fn end_to_end(
    latencies: &[f64],
    completed: usize,
    ok: usize,
    wall_s: f64,
    setup_s: &[f64],
    costs: &[f64],
    coax: &[f64],
) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("latency_p50_ms", median(latencies), "ms"),
        metric("latency_p90_ms", percentile(latencies, 90.0), "ms"),
        metric("throughput_rps", ratio(completed as f64, wall_s), "1/s"),
        metric("ok_frac", ratio(ok as f64, completed as f64), "ratio"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
        metric("cost_reduction_geomean", geomean(costs), "x"),
        metric("coax_reduction_geomean", geomean(coax), "x"),
    ])
}

fn setup_note(setup_s: &[f64]) -> String {
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    format!("set-ups (s): {}", each.join(", "))
}

/// Shares of each class among the timed requests.
fn class_shares(jobs: &[Job]) -> String {
    let mut counts: BTreeMap<Class, usize> = BTreeMap::new();
    for job in jobs {
        *counts.entry(job.class).or_default() += 1;
    }
    counts
        .iter()
        .map(|(class, n)| format!("{} {:.3}", class.name(), *n as f64 / jobs.len() as f64))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Median latency of each class among the timed requests.
fn class_latencies(jobs: &[Job], latencies: &[f64]) -> String {
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (job, &latency) in jobs.iter().zip(latencies) {
        by_class.entry(job.class).or_default().push(latency);
    }
    by_class
        .iter()
        .map(|(class, l)| format!("{} {:.2} ms", class.name(), median(l)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Replays the set-up requests untraced, rebuilding the daemon's cache
/// state; returns the indices whose answer differs from the daemon's.
fn replay_setup(replayer: &mut Replayer, run: &DaemonRun) -> Vec<usize> {
    let traced = std::mem::replace(&mut replayer.spans.on, false);
    let mismatches = (0..run.setup.len())
        .filter(|&i| !same_answer(replayer, i, &run.setup[i], &run.setup_responses[i]))
        .collect();
    replayer.spans.on = traced;
    mismatches
}

/// Tracing overhead: the first round replayed by a traced and an
/// untraced replayer in lockstep, alternating which goes first, as the
/// median over requests of traced / untraced time, minus one.
fn tracing_overhead(run: &DaemonRun, round_len: usize) -> f64 {
    let mut traced = Replayer::new(true);
    let mut plain = Replayer::new(false);
    replay_setup(&mut traced, run);
    replay_setup(&mut plain, run);
    let offset = run.setup.len();
    let mut ratios = Vec::new();
    for (i, job) in run.jobs.iter().take(round_len).enumerate() {
        let time = |replayer: &mut Replayer| {
            let started = Instant::now();
            let _ = replayer.request(offset + i, String::new(), &job.request);
            started.elapsed().as_secs_f64()
        };
        let (traced_s, plain_s) = if i % 2 == 0 {
            let plain_s = time(&mut plain);
            (time(&mut traced), plain_s)
        } else {
            let traced_s = time(&mut traced);
            (traced_s, time(&mut plain))
        };
        ratios.push(ratio(traced_s, plain_s));
    }
    median(&ratios) - 1.0
}

/// Replays one request and compares it with the daemon's response:
/// byte-identical `ReportSummary` for plans, same kind and message for
/// errors.
fn same_answer(replayer: &mut Replayer, track: usize, job: &Job, response: &Response) -> bool {
    let label = format!("req {track} ({})", job.class.name());
    match (replayer.request(track, label, &job.request), response) {
        (
            Ok(summary),
            Response {
                result: Some(result),
                ok: true,
                ..
            },
        ) => serde_json::to_string(&summary).expect("summaries serialize") == *result,
        (
            Err(failure),
            Response {
                error: Some(error),
                ok: false,
                ..
            },
        ) => failure == *error,
        _ => false,
    }
}

/// Runs a daemon workload: `cold-design` (window 1) or `daemon-warm`
/// (window 2).
fn daemon_workload(
    args: &Args,
    window: usize,
    round_len: usize,
    nominal_round_s: f64,
    setup: Vec<Job>,
    round: impl FnMut() -> Vec<Job>,
) -> Result<Outcome, String> {
    let run = drive_daemon(args, window, round_len, nominal_round_s, setup, round)?;
    let mut notes = vec![
        format!("timed requests: {}", run.jobs.len()),
        setup_note(&run.setup_s),
    ];
    notes.push(format!("class shares: {}", class_shares(&run.jobs)));

    let mut failed = 0u64;
    let (mut ok, mut costs, mut coax) = (0usize, Vec::new(), Vec::new());
    for (job, response) in run.jobs.iter().zip(&run.responses) {
        if !acceptable(job.class, response) {
            failed += 1;
            notes.push(format!(
                "unexpected answer for a {} request: {}",
                job.class.name(),
                response.canonical
            ));
        }
        // A repeat must answer with exactly its base's result.
        if job.class == Class::Repeat {
            let base = run.setup.iter().position(|s| s.request == job.request);
            let expected = base.and_then(|b| run.setup_responses[b].result.as_ref());
            if expected != response.result.as_ref() {
                failed += 1;
                notes.push("a repeat answered differently from its base".into());
            }
        }
        if response.ok {
            ok += 1;
            costs.extend(response.cost_reduction);
            coax.extend(response.coax_reduction);
        }
    }
    let first_round = run
        .responses
        .iter()
        .take(round_len)
        .map(|r| r.canonical.as_str());
    let mut correct = digest_matches(args, digest(first_round), &mut notes);

    let latencies: Vec<f64> = run.samples.iter().map(|s| s.latency_ms).collect();
    notes.push(format!(
        "latency p50 by class: {}",
        class_latencies(&run.jobs, &latencies)
    ));
    let metrics = if args.trace {
        let (metrics, mismatches) =
            traced_daemon_metrics(args, &run, round_len, &latencies, &mut notes)?;
        failed += mismatches;
        metrics
    } else {
        // Spot-check the first request of each computing class of the
        // first round against a direct replay.
        let mut replayer = Replayer::new(false);
        let mut checked: HashSet<Class> = HashSet::new();
        for (i, (job, response)) in run
            .jobs
            .iter()
            .zip(&run.responses)
            .take(round_len)
            .enumerate()
        {
            if matches!(job.class, Class::Repeat | Class::RoutedLarge) || !checked.insert(job.class)
            {
                continue;
            }
            if !same_answer(&mut replayer, i, job, response) {
                failed += 1;
                notes.push(format!("replay mismatch on a {} request", job.class.name()));
            }
        }
        if replayer.counters.violations > 0 {
            failed += 1;
            notes.push(format!(
                "{} invariant violations",
                replayer.counters.violations
            ));
        }
        end_to_end(
            &latencies,
            run.responses.len(),
            ok,
            run.wall_s,
            &run.setup_s,
            &costs,
            &coax,
        )?
    };
    correct &= failed == 0;
    Ok(Outcome {
        correct,
        attempted: run.jobs.len() as u64,
        failed,
        metrics,
        notes,
    })
}

/// The traced run's per-layer metrics for a daemon workload, and the
/// number of failed checks: requests whose replay disagreed with the
/// daemon, plus one if any replayed plan broke an invariant.
fn traced_daemon_metrics(
    args: &Args,
    run: &DaemonRun,
    round_len: usize,
    latencies: &[f64],
    notes: &mut Vec<String>,
) -> Result<(Vec<Metric>, u64), String> {
    let mut replayer = Replayer::new(true);
    let mut mismatches = replay_setup(&mut replayer, run);
    let offset = run.setup.len();
    for (i, (job, response)) in run.jobs.iter().zip(&run.responses).enumerate() {
        if !same_answer(&mut replayer, offset + i, job, response) {
            mismatches.push(offset + i);
        }
    }
    let overhead = tracing_overhead(run, round_len);

    let executed: Vec<&Response> = run
        .responses
        .iter()
        .filter(|r| r.cache_hit == Some(false))
        .collect();
    let hit_latencies: Vec<f64> = run
        .responses
        .iter()
        .zip(latencies)
        .filter(|(r, _)| r.cache_hit == Some(true))
        .map(|(_, &l)| l)
        .collect();
    let shed = run
        .responses
        .iter()
        .filter(|r| r.error.as_ref().is_some_and(|(kind, _)| kind == "Shed"))
        .count();
    let repair = run.report.metrics.repair;
    let serve = ServeCounters {
        cache_hit_ratio: ratio(hit_latencies.len() as f64, run.responses.len() as f64),
        hit_latency_ms_p50: median(&hit_latencies),
        attempts_per_request: ratio(
            executed.iter().filter_map(|r| r.attempts).sum::<u64>() as f64,
            executed.len() as f64,
        ),
        shed_frac: ratio(shed as f64, run.responses.len() as f64),
        repair_hit_ratio: ratio(repair.hits as f64, repair.total() as f64),
        repair_fallback_frac: ratio(repair.fallbacks as f64, repair.total() as f64),
        repair_base_recompute_frac: ratio(repair.misses as f64, repair.total() as f64),
    };
    let metrics = layer_metrics(
        args,
        &replayer,
        &serve,
        0.0,
        overhead,
        mismatches.len(),
        notes,
    )?;
    if !mismatches.is_empty() {
        notes.push(format!("REPLAY MISMATCH at requests {mismatches:?}"));
    }
    let failed = mismatches.len() as u64 + u64::from(replayer.counters.violations > 0);
    Ok((metrics, failed))
}

/// Counters read from the responses and the session report.
#[derive(Default)]
struct ServeCounters {
    cache_hit_ratio: f64,
    hit_latency_ms_p50: f64,
    attempts_per_request: f64,
    shed_frac: f64,
    repair_hit_ratio: f64,
    repair_fallback_frac: f64,
    repair_base_recompute_frac: f64,
}

/// Every per-layer metric, from the traced replay's spans and counters.
/// Layers a workload does not reach read 0. Also writes the Chrome
/// trace and adds the layer share table to `notes`.
fn layer_metrics(
    args: &Args,
    replayer: &Replayer,
    serve: &ServeCounters,
    contexts_per_sweep: f64,
    overhead: f64,
    mismatches: usize,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let spans = &replayer.spans;
    let c = &replayer.counters;
    let p50 = |name: &str| median(&spans.durations_ms(name));
    let (layers, root_total) = spans.layer_self_ms();
    let share = |layer: &str| ratio(layers.get(layer).copied().unwrap_or(0.0), root_total);
    // Sweeps are requests of many points; per-request counts use points.
    let requests = if c.sweeps > 0 {
        c.sweep_points
    } else {
        c.requests
    } as f64;

    notes.push(format!(
        "layer self-time shares ({} traced ms):",
        root_total.round()
    ));
    for (layer, ms) in &layers {
        notes.push(format!(
            "  {layer:<13} {:>7.3}  {ms:>10.1} ms",
            ratio(*ms, root_total)
        ));
    }
    let path = trace_path(args);
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    std::fs::write(&path, spans.chrome_trace()).map_err(|e| format!("cannot write {path}: {e}"))?;
    notes.push(format!("chrome trace: {path}"));

    Ok(vec![
        metric("noise.synthesize.ms_p50", p50("noise.synthesize"), "ms"),
        metric("noise.fit.ms_p50", p50("noise.fit"), "ms"),
        metric(
            "noise.fit.us_per_sample",
            ratio(spans.total_ms("noise.fit") * 1e3, c.fit_samples as f64),
            "us",
        ),
        metric(
            "noise.fit.calls_per_request",
            ratio(c.fit_calls as f64, requests),
            "count",
        ),
        metric("noise.share", share("noise"), "ratio"),
        metric("core.context.ms_p50", p50("core.context"), "ms"),
        metric(
            "core.context.calls_per_request",
            ratio(c.context_builds as f64, requests),
            "count",
        ),
        metric("core.plan.ms_p50", p50("core.plan"), "ms"),
        metric(
            "core.plan.fdm_grouping.ms_p50",
            p50("core.plan.fdm_grouping"),
            "ms",
        ),
        metric(
            "core.plan.tdm_grouping.ms_p50",
            p50("core.plan.tdm_grouping"),
            "ms",
        ),
        metric("core.plan.refine.ms_p50", p50("core.plan.refine"), "ms"),
        metric(
            "core.plan.freq_alloc.ms_p50",
            p50("core.plan.freq_alloc"),
            "ms",
        ),
        metric("core.plan.readout.ms_p50", p50("core.plan.readout"), "ms"),
        metric("core.share", share("core"), "ratio"),
        metric("multi.design.ms_p50", p50("multi.design"), "ms"),
        metric("multi.share", share("multi"), "ratio"),
        metric("route.channel.ms_p50", p50("route.channel"), "ms"),
        metric(
            "route.fail_frac",
            ratio(c.route_failures as f64, c.route_calls as f64),
            "ratio",
        ),
        metric("route.share", share("route"), "ratio"),
        metric("cost.tally.ms_p50", p50("cost.tally"), "ms"),
        metric("cost.share", share("cost"), "ratio"),
        metric("obs.validate.ms_p50", p50("obs.validate"), "ms"),
        metric("obs.violations", c.violations as f64, "count"),
        metric("obs.share", share("obs"), "ratio"),
        metric("repair.diff.ms_p50", p50("repair.diff"), "ms"),
        metric("repair.plan.ms_p50", p50("repair.plan"), "ms"),
        metric("repair.hit_ratio", serve.repair_hit_ratio, "ratio"),
        metric("repair.fallback_frac", serve.repair_fallback_frac, "ratio"),
        metric(
            "repair.base_recompute_frac",
            serve.repair_base_recompute_frac,
            "ratio",
        ),
        metric("repair.share", share("repair"), "ratio"),
        metric("serve.cache_hit_ratio", serve.cache_hit_ratio, "ratio"),
        metric("serve.hit_latency_ms_p50", serve.hit_latency_ms_p50, "ms"),
        metric(
            "serve.attempts_per_request",
            serve.attempts_per_request,
            "count",
        ),
        metric("serve.shed_frac", serve.shed_frac, "ratio"),
        metric("serve.share", share("serve"), "ratio"),
        metric("xplore.point.ms_p50", p50("point"), "ms"),
        metric("xplore.contexts_built", contexts_per_sweep, "count"),
        metric(
            "xplore.context_share",
            ratio(spans.total_ms("core.context"), spans.total_ms("sweep")),
            "ratio",
        ),
        metric("trace.overhead_frac", overhead, "ratio"),
        metric(
            "trace.attributed_frac",
            1.0 - share("unattributed"),
            "ratio",
        ),
        metric("trace.replay_mismatches", mismatches as f64, "count"),
    ])
}

/// Where traced runs write their Chrome trace, inside the checkout.
const TRACE_DIR: &str = ".bench_out";

fn trace_path(args: &Args) -> String {
    format!("{TRACE_DIR}/{}-seed{}.trace.json", args.workload, args.seed)
}

pub fn cold_design(args: &Args) -> Result<Outcome, String> {
    let mut gen = ColdGen::new(args.seed);
    let setup = gen.setup();
    daemon_workload(args, 1, COLD_ROUND, COLD_ROUND_S, setup, || gen.round())
}

pub fn daemon_warm(args: &Args) -> Result<Outcome, String> {
    let mut gen = WarmGen::new(args.seed);
    let setup = gen.setup();
    daemon_workload(args, 2, WARM_ROUND, WARM_ROUND_S, setup, || gen.round())
}

/// `sweep-plan`: four large fabrics × three θ × two FDM capacities ×
/// 1:8 DEMUX on/off × two `max_shared_slots` — 96 points per sweep.
/// Seconds per `sweep-plan` sweep on the reference machine.
const SWEEP_S: f64 = 1.2;

struct SweepGen {
    rng: Rng,
    sweeps: usize,
}

fn sweep_chips() -> Vec<ChipRequest> {
    vec![
        chip("square", 16, 16),
        chip("square", 24, 24),
        ChipRequest {
            size: Some(433),
            ..ChipRequest::named("ibm-heavy-hex")
        },
        chip("surface", 9, 0),
    ]
}

impl SweepGen {
    fn new(seed: u64) -> Self {
        SweepGen {
            rng: Rng::new(seed ^ 0x5EE9_0000_0000_0000),
            sweeps: 0,
        }
    }

    /// The set-up sweep: every chip once at knob values no timed sweep
    /// uses (θ = 3.33).
    fn setup(&self) -> SweepSpec {
        let mut spec = SweepSpec::new(sweep_chips());
        spec.name = Some("warm-up".into());
        spec.thetas = Some(vec![3.33]);
        spec.use_model = Some(false);
        spec
    }

    /// The next timed sweep. Capacities, slot budgets and DEMUX options
    /// are fixed; the seed draws one θ from each of three bands, so every
    /// sweep spans low, middle and high thresholds.
    fn next(&mut self) -> SweepSpec {
        let thetas: Vec<f64> = [1.5, 3.75, 6.0]
            .iter()
            .map(|low| low + self.rng.below(9) as f64 * 0.25)
            .collect();
        let mut spec = SweepSpec::new(sweep_chips());
        spec.name = Some(format!("perf-{}", self.sweeps));
        spec.thetas = Some(thetas);
        spec.fdm_capacities = Some(vec![4, 6]);
        spec.one_to_eight = Some(vec![false, true]);
        spec.max_shared_slots = Some(vec![0, 2]);
        spec.use_model = Some(false);
        self.sweeps += 1;
        spec
    }
}

pub fn sweep_plan(args: &Args) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let options = SweepOptions {
        threads,
        timings: true,
        ..SweepOptions::default()
    };
    let sweep = |spec: &SweepSpec| {
        run_sweep(spec, &options, &mut std::io::sink()).map_err(|e| format!("sweep failed: {e}"))
    };
    let mut gen = SweepGen::new(args.seed);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let outcome = sweep(&gen.setup())?;
        setup_s.push(started.elapsed().as_secs_f64());
        if outcome.summary.errors > 0 {
            return Err("set-up sweep had errors".into());
        }
    }

    let mut runs: Vec<(SweepSpec, Vec<SweepRecord>, usize)> = Vec::new();
    let mut wall_s = 0.0;
    let rounds = Rounds::new(1, SWEEP_S, args.timed_seconds());
    while !rounds.stop_before(runs.len()) {
        let spec = gen.next();
        let started = Instant::now();
        let outcome = sweep(&spec)?;
        wall_s += started.elapsed().as_secs_f64();
        runs.push((spec, outcome.records, outcome.summary.contexts_built));
    }

    let records: Vec<&SweepRecord> = runs.iter().flat_map(|(_, r, _)| r).collect();
    let mut notes = vec![
        format!("timed sweeps: {}, points: {}", runs.len(), records.len()),
        setup_note(&setup_s),
    ];
    let mut failed = 0u64;
    for (spec, recs, contexts) in &runs {
        let points = spec.chips.len() * 3 * 2 * 2 * 2;
        if recs.len() != points || *contexts != spec.chips.len() {
            failed += 1;
            notes.push(format!(
                "sweep {:?}: {} records, {contexts} contexts",
                spec.name,
                recs.len()
            ));
        }
    }
    let ok: Vec<&&SweepRecord> = records.iter().filter(|r| r.is_ok()).collect();
    failed += (records.len() - ok.len()) as u64;

    let first: Vec<String> = runs[0]
        .1
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.latency_ms = None;
            r.stages = None;
            serde_json::to_string(&r).expect("records serialize")
        })
        .collect();
    let mut correct = digest_matches(args, digest(first.iter().map(String::as_str)), &mut notes);

    let metrics = if args.trace {
        let mut replayer = Replayer::new(true);
        let mut mismatches = 0;
        for (i, (spec, recs, _)) in runs.iter().enumerate() {
            mismatches += replayer.sweep(i, spec, recs);
        }
        // Tracing overhead: the first sweep replayed untraced, traced,
        // traced, untraced, so neither side always runs warmer.
        let (spec, recs, _) = &runs[0];
        let time = |traced: bool| {
            let started = Instant::now();
            Replayer::new(traced).sweep(0, spec, recs);
            started.elapsed().as_secs_f64()
        };
        let mut untraced_s = time(false);
        let mut traced_s = time(true);
        traced_s += time(true);
        untraced_s += time(false);
        failed += mismatches as u64 + u64::from(replayer.counters.violations > 0);
        if mismatches > 0 {
            notes.push(format!("REPLAY MISMATCH on {mismatches} points"));
        }
        let contexts_per_sweep = ratio(
            runs.iter().map(|(_, _, c)| *c as f64).sum(),
            runs.len() as f64,
        );
        layer_metrics(
            args,
            &replayer,
            &ServeCounters::default(),
            contexts_per_sweep,
            ratio(traced_s, untraced_s) - 1.0,
            mismatches,
            &mut notes,
        )?
    } else {
        // Spot-check one point per chip of the first sweep.
        let (spec, recs, _) = &runs[0];
        let mut sample: Vec<SweepRecord> = Vec::new();
        for rec in recs {
            if !sample.iter().any(|s| s.chip == rec.chip) {
                sample.push(rec.clone());
            }
        }
        let mut replayer = Replayer::new(false);
        let mismatches = replayer.sweep(0, spec, &sample);
        if mismatches > 0 || replayer.counters.violations > 0 {
            failed += 1;
            notes.push(format!(
                "replay spot-check: {mismatches} mismatches, {} violations",
                replayer.counters.violations
            ));
        }
        let latencies: Vec<f64> = records.iter().filter_map(|r| r.latency_ms).collect();
        let costs: Vec<f64> = ok.iter().filter_map(|r| r.cost_reduction).collect();
        let coax: Vec<f64> = ok
            .iter()
            .filter_map(|r| Some(r.dedicated_coax? as f64 / r.coax_lines? as f64))
            .collect();
        end_to_end(
            &latencies,
            records.len(),
            ok.len(),
            wall_s,
            &setup_s,
            &costs,
            &coax,
        )?
    };
    correct &= failed == 0;
    Ok(Outcome {
        correct,
        attempted: records.len() as u64,
        failed,
        metrics,
        notes,
    })
}
