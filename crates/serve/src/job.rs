//! Job results and error classification.
//!
//! Executors return [`ExecError`]s whose [`ErrorKind`] and transience
//! flag drive the pool's retry policy; every finished job — success,
//! failure, timeout or cancellation — becomes a [`JobRecord`], the one
//! JSONL line a batch session emits per job. A job can only ever
//! *complete with an error record*; nothing in the serving layer aborts
//! the process.

use serde::{Map, Serialize, Value};

/// Where a job failure came from. Structured (not string-matched) so
/// callers and dashboards can aggregate failures by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ErrorKind {
    /// The request itself was malformed (unknown topology, bad spec).
    InvalidRequest,
    /// The YOUTIAO planner failed (frequency crowding, bad config).
    Plan,
    /// Chip-level routing failed (channel overflow, no pads).
    Route,
    /// The job's deadline expired before the pipeline finished.
    Timeout,
    /// The job was cancelled (pool abort / shutdown).
    Cancelled,
    /// The finished plan violated a wiring invariant (`--validate`).
    Validation,
    /// Admission control rejected the job before it ran: its deadline
    /// was infeasible at the current queue depth.
    Shed,
    /// Anything else the executor raised.
    Internal,
}

impl ErrorKind {
    /// Wire name of the variant, matching the serialized form.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::InvalidRequest => "InvalidRequest",
            ErrorKind::Plan => "Plan",
            ErrorKind::Route => "Route",
            ErrorKind::Timeout => "Timeout",
            ErrorKind::Cancelled => "Cancelled",
            ErrorKind::Validation => "Validation",
            ErrorKind::Shed => "Shed",
            ErrorKind::Internal => "Internal",
        }
    }
}

/// An executor failure: classification plus whether a retry (with a
/// perturbed seed) may plausibly succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Retrying with a perturbed seed may succeed.
    pub transient: bool,
    /// Human-readable detail (the source error's `Display`).
    pub message: String,
}

impl ExecError {
    /// A failure worth retrying.
    pub fn transient(kind: ErrorKind, message: impl Into<String>) -> Self {
        ExecError {
            kind,
            transient: true,
            message: message.into(),
        }
    }

    /// A failure that will recur on every retry.
    pub fn permanent(kind: ErrorKind, message: impl Into<String>) -> Self {
        ExecError {
            kind,
            transient: false,
            message: message.into(),
        }
    }

    /// The executor observed its cancel token and stopped.
    pub fn cancelled() -> Self {
        ExecError::permanent(ErrorKind::Cancelled, "job cancelled between stages")
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ExecError {}

/// The structured error half of a failed [`JobRecord`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ErrorRecord {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobStatus {
    /// The pipeline produced a result.
    Ok,
    /// The job failed permanently, timed out, or was cancelled.
    Error,
}

/// One finished job: the JSONL output line of `youtiao batch`.
///
/// Generic over the executor's result type `R`, so `Serialize` is
/// implemented by hand (the vendored derive covers non-generic shapes
/// only).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord<R> {
    /// Position of the job in the submitted batch (input order).
    pub index: usize,
    /// Caller-supplied id, or `job-<index>`.
    pub id: String,
    /// Terminal state.
    pub status: JobStatus,
    /// The result, when `status` is [`JobStatus::Ok`].
    pub result: Option<R>,
    /// The failure, when `status` is [`JobStatus::Error`].
    pub error: Option<ErrorRecord>,
    /// Executor attempts consumed (0 for a pure cache hit).
    pub attempts: u32,
    /// Wall-clock latency from dequeue to completion, milliseconds.
    pub latency_ms: f64,
    /// Whether the result came from the plan cache.
    pub cache_hit: bool,
    /// Cache shard the job's key maps to, when served over a sharded
    /// cache. Shard membership depends on the shard count, so
    /// [`JobRecord::canonical`] strips it.
    pub shard: Option<usize>,
    /// The job's span trace, when the pool ran with tracing enabled.
    pub trace: Option<youtiao_obs::Trace>,
}

impl<R> JobRecord<R> {
    /// A successful record.
    pub fn ok(index: usize, id: String, result: R, attempts: u32, latency_ms: f64) -> Self {
        JobRecord {
            index,
            id,
            status: JobStatus::Ok,
            result: Some(result),
            error: None,
            attempts,
            latency_ms,
            cache_hit: false,
            shard: None,
            trace: None,
        }
    }

    /// A failed record.
    pub fn error(
        index: usize,
        id: String,
        error: ErrorRecord,
        attempts: u32,
        latency_ms: f64,
    ) -> Self {
        JobRecord {
            index,
            id,
            status: JobStatus::Error,
            result: None,
            error: Some(error),
            attempts,
            latency_ms,
            cache_hit: false,
            shard: None,
            trace: None,
        }
    }

    /// Marks the record as served from cache.
    pub fn from_cache(mut self) -> Self {
        self.cache_hit = true;
        self
    }

    /// Tags the record with the cache shard its key maps to.
    pub fn with_shard(mut self, shard: Option<usize>) -> Self {
        self.shard = shard;
        self
    }

    /// Attaches the job's finished span trace (`None` leaves the record
    /// unchanged, so disabled tracing costs nothing on the wire).
    pub fn with_trace(mut self, trace: Option<youtiao_obs::Trace>) -> Self {
        self.trace = trace;
        self
    }

    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }

    /// The record with run-dependent noise removed: latency zeroed,
    /// the trace dropped, and the shard tag dropped (it varies with
    /// the shard count). Chaos runs and daemon sessions emit canonical
    /// records so two equal-seed runs compare byte-identical.
    pub fn canonical(mut self) -> Self {
        self.latency_ms = 0.0;
        self.trace = None;
        self.shard = None;
        self
    }
}

impl<R: Serialize> Serialize for JobRecord<R> {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("index".into(), self.index.to_value());
        map.insert("id".into(), self.id.to_value());
        map.insert("status".into(), self.status.to_value());
        map.insert("result".into(), self.result.to_value());
        map.insert("error".into(), self.error.to_value());
        map.insert("attempts".into(), self.attempts.to_value());
        map.insert("latency_ms".into(), self.latency_ms.to_value());
        map.insert("cache_hit".into(), self.cache_hit.to_value());
        // Emitted only when present: single-shard runs keep compact lines.
        if let Some(shard) = self.shard {
            map.insert("shard".into(), shard.to_value());
        }
        // Emitted only when present: untraced runs keep compact lines.
        if let Some(trace) = &self.trace {
            map.insert("trace".into(), trace.to_value());
        }
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_both_arms() {
        let ok = JobRecord::ok(3, "a".into(), 42u32, 1, 1.5);
        let v = ok.to_value();
        assert_eq!(v["status"], "Ok");
        assert_eq!(v["result"], 42);
        assert!(v["error"].is_null());

        let err = JobRecord::<u32>::error(
            4,
            "b".into(),
            ErrorRecord {
                kind: ErrorKind::Timeout,
                message: "deadline".into(),
            },
            2,
            9.0,
        )
        .from_cache();
        let v = err.to_value();
        assert_eq!(v["status"], "Error");
        assert_eq!(v["error"]["kind"], "Timeout");
        assert_eq!(v["cache_hit"], true);
        assert_eq!(err.retries(), 1);
    }

    #[test]
    fn trace_is_emitted_only_when_attached() {
        let bare = JobRecord::ok(0, "a".into(), 1u32, 1, 1.0);
        assert!(bare.to_value().get("trace").is_none());

        let tracer = youtiao_obs::Tracer::new("a");
        drop(tracer.span("plan"));
        let traced = JobRecord::ok(0, "a".into(), 1u32, 1, 1.0).with_trace(tracer.try_finish());
        let v = traced.to_value();
        assert_eq!(v["trace"]["spans"][0]["name"], "plan");

        assert_eq!(ErrorKind::Validation.as_str(), "Validation");
    }

    #[test]
    fn canonical_strips_latency_trace_and_shard() {
        let tracer = youtiao_obs::Tracer::new("c");
        drop(tracer.span("plan"));
        let record = JobRecord::ok(0, "c".into(), 5u32, 2, 17.3)
            .with_trace(tracer.try_finish())
            .with_shard(Some(3));
        assert_eq!(record.to_value()["shard"], 3);
        let canonical = record.canonical();
        assert_eq!(canonical.latency_ms, 0.0);
        assert!(canonical.trace.is_none());
        assert!(canonical.shard.is_none(), "shard varies with shard count");
        assert!(canonical.to_value().get("shard").is_none());
        assert_eq!(canonical.result, Some(5));
        assert_eq!(canonical.attempts, 2, "outcome fields survive");
    }

    #[test]
    fn exec_error_constructors_classify() {
        assert!(ExecError::transient(ErrorKind::Plan, "crowded").transient);
        assert!(!ExecError::permanent(ErrorKind::InvalidRequest, "bad").transient);
        let c = ExecError::cancelled();
        assert_eq!(c.kind, ErrorKind::Cancelled);
        assert!(c.to_string().contains("Cancelled"));
    }
}
