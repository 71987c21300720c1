//! The serving session behind `youtiao serve`, `batch` and `chaos`.
//!
//! [`run_daemon`] reads newline-framed JSONL ([`proto`](crate::proto))
//! from any [`BufRead`] — stdin, a jobs file or an accepted unix-socket
//! connection — dispatches design requests through the worker pool
//! behind a [`ShardedCache`], applies [`AdmissionController`] policy
//! (bounded queue, per-client caps, deadline-aware shedding), and
//! writes one JSON line per frame. The entry point picks the
//! [`Protocol`], which fixes only the line formats:
//!
//! * [`Protocol::Daemon`] (`youtiao serve`): op frames in,
//!   [`design_response`](crate::proto::design_response) lines out, plus
//!   an in-band control plane (`ping`, `stats`, `shutdown`). A
//!   malformed frame is answered with an error response.
//! * [`Protocol::Batch`] (`youtiao batch`, `youtiao chaos`): bare
//!   [`DesignRequest`] lines in, [`JobRecord`] lines out. A malformed
//!   line aborts the session with [`BatchError::Parse`].
//!
//! # Determinism contract
//!
//! Responses are emitted in **request order** (a `BTreeMap` keyed by
//! arrival sequence buffers completions until their turn), and
//! duplicate in-flight content keys are **coalesced** — a design
//! request whose key is already being computed waits for that job and
//! is served from the cache, instead of racing it on another worker.
//! Together with canonical responses (run-dependent fields stripped,
//! see [`proto::design_response`](crate::proto::design_response) and
//! [`JobRecord::canonical`]) this makes an equal-seed session's output
//! a pure function of its input: byte-identical across worker counts
//! and shard counts. Admission *backpressure* only stalls intake, never
//! alters bytes; *shedding* is deterministic whenever the decision
//! margin is pinned — an [`OverloadBurst`](crate::fault::OverloadBurst)'s
//! phantom depth dwarfs real queue depth, or `est_ms` is 0 (shedding
//! off).
//!
//! A [`FaultPlan`] applies the same way whatever the protocol: the
//! per-attempt schedule, the `abort_after` pool abort, `overload_burst`
//! and `slow_client_*` in the session, and the `cache_fault` and
//! `shard_loss` file faults in [`run_daemon`]'s cache loader.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::cache::CacheStats;
use crate::fault::{apply_cache_fault, FaultInjector, FaultKind, FaultPlan};
use crate::job::{ErrorKind, ErrorRecord, ExecError, JobRecord, JobStatus};
use crate::metrics::ServeMetrics;
use crate::pool::{Executor, PoolOptions, WorkerPool};
use crate::proto::{
    design_response, error_response, ping_response, shutdown_response, stats_response,
    DaemonRequest, Frame, FramedReader, OpKind, ANON_CLIENT,
};
use crate::request::{synthetic_drift, DesignRequest};
use crate::shard::{shard_file, ShardedCache};

/// The line formats of a session, chosen by its entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Op frames in, `design_response` lines out, with the in-band
    /// control plane (`youtiao serve`).
    Daemon,
    /// Bare [`DesignRequest`] lines in, [`JobRecord`] lines out; a
    /// malformed line aborts the session (`youtiao batch`/`chaos`).
    Batch,
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Intra-plan worker threads per job; 0 (the default) applies the
    /// oversubscription policy of
    /// [`effective_plan_threads`](crate::pool::effective_plan_threads):
    /// serial plans when the pool has more than one worker, one thread
    /// per core when it has exactly one. Explicit values override the
    /// policy. Plans — and therefore canonical transcripts — are
    /// byte-identical across all values.
    pub plan_threads: usize,
    /// Retries after the first attempt of transiently failing jobs.
    pub max_retries: u32,
    /// Default per-job deadline in milliseconds (`deadline_ms` on a
    /// request overrides it).
    pub deadline_ms: Option<u64>,
    /// Total plan-cache entry budget, split across shards.
    pub cache_capacity: usize,
    /// Cache shard count (min 1; one shard persists as a single file).
    pub shards: usize,
    /// Cache persistence root: shard `i` lives at
    /// [`shard_file`]`(path, i, shards)`; loaded before the session,
    /// saved after it.
    pub cache_path: Option<PathBuf>,
    /// Restart torn shards cold instead of failing the session.
    pub cache_salvage: bool,
    /// Emit canonical lines (run-dependent fields stripped), the
    /// byte-comparable mode. Default on. Metrics still aggregate the
    /// real latencies.
    pub canonical: bool,
    /// Trace every pooled job and write the traces as `{"jobs":[...]}`
    /// to this file after the session (the traces also feed per-stage
    /// latency percentiles in the session metrics).
    pub trace_json: Option<PathBuf>,
    /// Ask the executor to check plan invariants (honored by executors
    /// that consult it, like the facade's design executor).
    pub validate: bool,
    /// Seeded fault schedule (chaos sessions).
    pub faults: Option<FaultPlan>,
    /// Admission-control policy.
    pub admission: AdmissionConfig,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            workers: 0,
            plan_threads: 0,
            max_retries: 2,
            deadline_ms: None,
            cache_capacity: 1024,
            shards: 1,
            cache_path: None,
            cache_salvage: false,
            canonical: true,
            trace_json: None,
            validate: false,
            faults: None,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Session failures. Per-job failures are *records*, not errors — only
/// input/output problems end a session early.
#[derive(Debug)]
#[non_exhaustive]
pub enum BatchError {
    /// Reading input or writing output failed.
    Io(std::io::Error),
    /// A [`Protocol::Batch`] input line did not parse as a
    /// [`DesignRequest`].
    Parse {
        /// 1-based input line number.
        line: usize,
        /// Parser detail.
        message: String,
    },
    /// The cache file exists but could not be loaded.
    Cache(String),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Io(e) => write!(f, "batch i/o failed: {e}"),
            BatchError::Parse { line, message } => {
                write!(f, "jobs file line {line}: {message}")
            }
            BatchError::Cache(message) => write!(f, "cache file: {message}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BatchError {
    fn from(e: std::io::Error) -> Self {
        BatchError::Io(e)
    }
}

/// What one session did.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Aggregates over the session's design jobs, including per-shard
    /// and admission counters. Cache counters are deltas over the
    /// session, so a caller-owned cache reports only this session.
    pub metrics: ServeMetrics,
    /// Frames accepted (all ops, including malformed frames answered
    /// with an error response).
    pub requests: u64,
    /// Response lines written.
    pub responses: u64,
    /// Whether the session ended on an in-band `shutdown` (vs. EOF).
    pub shutdown: bool,
    /// Cache shards restarted cold by salvage at session start.
    pub salvaged_shards: usize,
}

/// A design job in flight: where its response goes once it completes.
struct PendingJob {
    seq: u64,
    rid: Option<String>,
    client: String,
    key: u64,
}

/// One running session: the pool, the reorder buffer, the coalescing
/// set and the records kept for metrics.
struct Session<'a, R> {
    protocol: Protocol,
    options: &'a DaemonOptions,
    plan: FaultPlan,
    cache: &'a ShardedCache<R>,
    /// Cache counters at session start; stats and metrics report deltas.
    cache_before: CacheStats,
    pool: WorkerPool<DesignRequest, R>,
    admission: AdmissionController,
    /// In-flight design jobs by pool index.
    meta: HashMap<usize, PendingJob>,
    /// Content keys currently being computed, for coalescing.
    in_flight_keys: HashMap<u64, usize>,
    /// Ready responses awaiting their turn, by arrival sequence.
    ready: BTreeMap<u64, String>,
    next_seq: u64,
    next_emit: u64,
    written: u64,
    design_index: usize,
    requests: u64,
    /// Pool completions absorbed so far (the `abort_after` count).
    received: usize,
    records: Vec<JobRecord<R>>,
    shutdown: bool,
}

impl<R: Clone + Send + Serialize + 'static> Session<'_, R> {
    fn shard_tag(&self, key: u64) -> Option<usize> {
        (self.cache.shard_count() > 1).then(|| self.cache.shard_of(key))
    }

    /// Takes a completed pool record: fires the `abort_after` fault,
    /// releases admission, memoizes the result (unless a drift fault
    /// answered different inputs), and queues the response at the
    /// job's arrival sequence.
    fn absorb(&mut self, record: JobRecord<R>) {
        self.received += 1;
        if self.plan.abort_after == Some(self.received) {
            // Kill the pool mid-session; every remaining job still
            // answers, as a `Cancelled` record.
            self.pool.abort();
        }
        let Some(job) = self.meta.remove(&record.index) else {
            return;
        };
        self.admission.finish(&job.client);
        if self.in_flight_keys.get(&job.key) == Some(&record.index) {
            self.in_flight_keys.remove(&job.key);
        }
        if record.status == JobStatus::Ok {
            let drifted = (0..record.attempts)
                .any(|a| self.plan.fault_at(record.index, a) == Some(FaultKind::Drift));
            if !drifted {
                if let Some(result) = &record.result {
                    self.cache.insert(job.key, result.clone());
                }
            }
        }
        let record = record.with_shard(self.shard_tag(job.key));
        self.finish_design(record, job.seq, job.rid.as_ref());
    }

    /// Queues a design record's line and keeps the full record for
    /// metrics.
    fn finish_design(&mut self, record: JobRecord<R>, seq: u64, rid: Option<&String>) {
        let canonical = self.options.canonical;
        let line = match self.protocol {
            Protocol::Daemon => design_response(&record, rid, canonical),
            Protocol::Batch if canonical => serde_json::to_string(&record.clone().canonical())
                .expect("records always serialize"),
            Protocol::Batch => serde_json::to_string(&record).expect("records always serialize"),
        };
        self.records.push(record);
        self.ready.insert(seq, line);
    }

    /// Writes every response whose turn has come, applying the
    /// slow-client stall fault to the write side only.
    fn emit<W: Write>(&mut self, out: &mut W) -> std::io::Result<()> {
        let mut wrote = false;
        while let Some(line) = self.ready.remove(&self.next_emit) {
            if let Some(stall) = self.plan.slow_client_stall(self.written as usize) {
                std::thread::sleep(stall);
            }
            writeln!(out, "{line}")?;
            self.next_emit += 1;
            self.written += 1;
            wrote = true;
        }
        if wrote {
            out.flush()?;
        }
        Ok(())
    }

    /// Waits up to 50 ms for one completion, then writes whatever is
    /// due — the body of every intake stall.
    fn pump<W: Write>(&mut self, out: &mut W) -> Result<(), BatchError> {
        if let Ok(record) = self.pool.results().recv_timeout(Duration::from_millis(50)) {
            self.absorb(record);
        }
        self.emit(out).map_err(BatchError::Io)
    }

    /// Dispatches one accepted frame.
    fn handle_frame<W: Write>(
        &mut self,
        seq: u64,
        frame: &Frame,
        out: &mut W,
    ) -> Result<(), BatchError> {
        if self.protocol == Protocol::Batch {
            let design = serde_json::from_str(&frame.text).map_err(|e| BatchError::Parse {
                line: frame.line,
                message: e.to_string(),
            })?;
            return self.handle_design(seq, design, None, ANON_CLIENT.to_string(), out);
        }
        let request: DaemonRequest = match serde_json::from_str(&frame.text) {
            Ok(request) => request,
            Err(e) => {
                self.ready.insert(
                    seq,
                    error_response(None, frame.line, &format!("bad frame: {e}")),
                );
                return Ok(());
            }
        };
        let rid = request.rid.clone();
        match request.op_kind() {
            Err(message) => {
                self.ready
                    .insert(seq, error_response(rid.as_ref(), frame.line, &message));
            }
            Ok(OpKind::Ping) => {
                self.ready.insert(seq, ping_response(rid.as_ref()));
            }
            Ok(OpKind::Stats) => {
                let response = stats_response(
                    rid.as_ref(),
                    self.requests,
                    &self.admission.stats(),
                    &self.cache.stats().since(&self.cache_before),
                    self.admission.in_flight(),
                    self.options.canonical,
                );
                self.ready.insert(seq, response);
            }
            Ok(OpKind::Shutdown) => {
                // The ack sits at the highest sequence so far; in-order
                // emission makes it the session's last line after every
                // in-flight design drains.
                self.shutdown = true;
                self.ready.insert(seq, shutdown_response(rid.as_ref()));
            }
            Ok(OpKind::Design) => {
                let Some(payload) = &request.request else {
                    self.ready.insert(
                        seq,
                        error_response(rid.as_ref(), frame.line, "design frame missing `request`"),
                    );
                    return Ok(());
                };
                match serde_json::from_value(payload) {
                    Ok(design) => {
                        let client = request.client_name().to_string();
                        self.handle_design(seq, design, rid, client, out)?;
                    }
                    Err(e) => {
                        self.ready.insert(
                            seq,
                            error_response(rid.as_ref(), frame.line, &format!("bad request: {e}")),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Coalesces, answers from cache, sheds, or admits one design
    /// request.
    fn handle_design<W: Write>(
        &mut self,
        seq: u64,
        design: DesignRequest,
        rid: Option<String>,
        client: String,
        out: &mut W,
    ) -> Result<(), BatchError> {
        let index = self.design_index;
        self.design_index += 1;
        let id = design.display_id(index);
        let key = match design.cache_key() {
            Ok(key) => key,
            Err(e) => {
                // The chip half does not resolve: the executor would
                // fail identically, so answer without occupying a worker.
                let record = JobRecord::error(
                    index,
                    id,
                    ErrorRecord {
                        kind: ErrorKind::InvalidRequest,
                        message: e.to_string(),
                    },
                    0,
                    0.0,
                );
                self.finish_design(record, seq, rid.as_ref());
                return Ok(());
            }
        };

        // Coalesce: while this key is being computed, wait for that job
        // instead of racing a duplicate on another worker. This is what
        // keeps cache behaviour — and therefore canonical output —
        // independent of the worker count. The wait watches the
        // in-flight set, not the cache, so every request counts exactly
        // one cache lookup.
        while self.in_flight_keys.contains_key(&key) && !self.meta.is_empty() {
            self.pump(out)?;
        }
        if let Some(result) = self.cache.get(key) {
            let record = JobRecord::ok(index, id, result, 0, 0.0)
                .from_cache()
                .with_shard(self.shard_tag(key));
            self.finish_design(record, seq, rid.as_ref());
            return Ok(());
        }

        // Deadline-aware shedding: refuse work whose deadline cannot be
        // met at the current (real + phantom) queue depth. The message
        // carries no depth estimate — that would leak real timing into
        // canonical output.
        let deadline_ms = design.deadline_ms.or(self.options.deadline_ms);
        let phantom = self.plan.overload_phantom(index);
        if self.admission.should_shed(deadline_ms, phantom).is_some() {
            self.admission.note_shed();
            let record = JobRecord::error(
                index,
                id,
                ErrorRecord {
                    kind: ErrorKind::Shed,
                    message: format!(
                        "deadline of {} ms infeasible at current queue depth",
                        deadline_ms.unwrap_or(0)
                    ),
                },
                0,
                0.0,
            );
            self.finish_design(record, seq, rid.as_ref());
            return Ok(());
        }

        // Backpressure: a full queue or a client over its in-flight cap
        // stalls intake until completions free a slot. Never changes
        // what the request computes — only when.
        while self.admission.would_block(&client) && !self.meta.is_empty() {
            self.admission.note_backpressure();
            self.pump(out)?;
        }

        let deadline = design.deadline_ms.map(Duration::from_millis);
        if !self.pool.submit(index, id.clone(), design, deadline) {
            // The abort fault already fired: the rest of the session
            // answers as cancelled records.
            let cancelled = ExecError::cancelled();
            let error = ErrorRecord {
                kind: cancelled.kind,
                message: cancelled.message,
            };
            self.finish_design(
                JobRecord::error(index, id, error, 0, 0.0),
                seq,
                rid.as_ref(),
            );
            return Ok(());
        }
        self.admission.begin(&client);
        self.in_flight_keys.insert(key, index);
        self.meta.insert(
            index,
            PendingJob {
                seq,
                rid,
                client,
                key,
            },
        );
        Ok(())
    }
}

/// Runs one session over a caller-owned sharded cache: frames in, lines
/// out, until an in-band `shutdown` or input EOF. All in-flight work is
/// drained and answered before the function returns; a `shutdown`
/// acknowledgement is always the session's last line.
pub fn run_daemon_session<R, In, Out>(
    protocol: Protocol,
    executor: Executor<DesignRequest, R>,
    options: &DaemonOptions,
    cache: &ShardedCache<R>,
    input: In,
    output: &mut Out,
) -> Result<DaemonReport, BatchError>
where
    R: Clone + Send + Serialize + 'static,
    In: BufRead + Send + 'static,
    Out: Write,
{
    let started = Instant::now();
    let plan = options.faults.clone().unwrap_or_default();
    let injector = FaultInjector::new(plan.clone());
    // Drift faults mutate the request with a schedule-derived synthetic
    // crosstalk shift, turning the attempt into a warm repair job.
    let chaos = injector.wrap_with(
        executor,
        Arc::new(|request: &DesignRequest, seed: u64| synthetic_drift(request, seed)),
    );
    let pool_options = PoolOptions {
        workers: options.workers,
        max_retries: options.max_retries,
        deadline: options.deadline_ms.map(Duration::from_millis),
        trace: options.trace_json.is_some(),
    };
    let workers = pool_options.effective_workers();

    // A reader thread turns the (possibly blocking) input into a
    // channel, so the session loop can interleave frame intake with
    // result draining — required for in-order emission to half-duplex
    // clients that write their whole session before reading.
    let (frame_tx, frame_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for frame in FramedReader::new(input) {
            let stop = frame.is_err();
            if frame_tx.send(frame).is_err() || stop {
                break;
            }
        }
    });

    let shards_before = cache.shard_stats();
    let mut session = Session {
        protocol,
        options,
        plan,
        cache,
        cache_before: cache.stats(),
        pool: WorkerPool::new(chaos, pool_options),
        admission: AdmissionController::new(options.admission, workers),
        meta: HashMap::new(),
        in_flight_keys: HashMap::new(),
        ready: BTreeMap::new(),
        next_seq: 0,
        next_emit: 0,
        written: 0,
        design_index: 0,
        requests: 0,
        received: 0,
        records: Vec::new(),
        shutdown: false,
    };
    let mut input_done = false;

    let outcome: Result<(), BatchError> = loop {
        while let Ok(record) = session.pool.results().try_recv() {
            session.absorb(record);
        }
        if let Err(e) = session.emit(output) {
            break Err(BatchError::Io(e));
        }
        if session.shutdown || input_done {
            if session.meta.is_empty() {
                break Ok(());
            }
            match session
                .pool
                .results()
                .recv_timeout(Duration::from_millis(50))
            {
                Ok(record) => session.absorb(record),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break Ok(()),
            }
            continue;
        }
        match frame_rx.recv_timeout(Duration::from_millis(1)) {
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => input_done = true,
            Ok(Err(e)) => break Err(BatchError::Io(e)),
            Ok(Ok(frame)) => {
                session.requests += 1;
                let seq = session.next_seq;
                session.next_seq += 1;
                if let Err(e) = session.handle_frame(seq, &frame, output) {
                    break Err(e);
                }
            }
        }
    };

    if outcome.is_err() {
        session.pool.abort();
    }
    session.pool.join();
    outcome?;

    if let Some(path) = &options.trace_json {
        std::fs::write(path, render_trace_file(&session.records))?;
    }
    let mut metrics = ServeMetrics::from_records(
        &session.records,
        started.elapsed(),
        Some(cache.stats().since(&session.cache_before)),
    )
    .with_admission(session.admission.stats())
    .with_faults(injector.counters());
    if cache.shard_count() > 1 {
        let deltas: Vec<CacheStats> = cache
            .shard_stats()
            .iter()
            .zip(&shards_before)
            .map(|(after, before)| after.since(before))
            .collect();
        metrics = metrics.with_shards(&session.records, &deltas);
    }
    Ok(DaemonReport {
        metrics,
        requests: session.requests,
        responses: session.written,
        shutdown: session.shutdown,
        salvaged_shards: 0,
    })
}

/// The `trace_json` file body: `{"jobs":[<trace>...]}`, in completion
/// order. Cache hits and pre-dispatch answers carry no trace and are
/// omitted.
fn render_trace_file<R>(records: &[JobRecord<R>]) -> String {
    use serde::{Map, Value};
    let jobs = Value::Array(
        records
            .iter()
            .filter_map(|r| r.trace.as_ref())
            .map(Serialize::to_value)
            .collect(),
    );
    let mut map = Map::new();
    map.insert("jobs".into(), jobs);
    serde_json::to_string(&Value::Object(map)).expect("traces always serialize")
}

/// [`run_daemon_session`] plus cache lifecycle: applies the plan's file
/// faults (`cache_fault` mangles shard 0's file, `shard_loss` deletes
/// the named shard's file), loads the sharded cache from
/// `options.cache_path` (salvaging torn shards when opted in), runs the
/// session, and persists every shard back.
pub fn run_daemon<R, In, Out>(
    protocol: Protocol,
    executor: Executor<DesignRequest, R>,
    options: &DaemonOptions,
    input: In,
    output: &mut Out,
) -> Result<DaemonReport, BatchError>
where
    R: Clone + Send + Serialize + Deserialize + 'static,
    In: BufRead + Send + 'static,
    Out: Write,
{
    let shards = options.shards.max(1);
    let (cache, salvaged) = match &options.cache_path {
        Some(path) => {
            if let Some(plan) = &options.faults {
                let first = shard_file(path, 0, shards);
                if let Some(fault) = plan.cache_fault.filter(|_| first.exists()) {
                    apply_cache_fault(&first, fault)?;
                }
                if let Some(lost) = plan.shard_loss {
                    let _ = std::fs::remove_file(shard_file(path, lost, shards));
                }
            }
            ShardedCache::load(path, shards, options.cache_capacity, options.cache_salvage)
                .map_err(|e| BatchError::Cache(e.to_string()))?
        }
        None => (ShardedCache::new(shards, options.cache_capacity), 0),
    };
    let mut report = run_daemon_session(protocol, executor, options, &cache, input, output)?;
    report.salvaged_shards = salvaged;
    if let Some(path) = &options.cache_path {
        cache.save_atomic(path)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ChipRequest;
    use serde::Value;
    use std::io::Cursor;

    /// A cheap stand-in executor: "result" is the qubit count.
    fn counting_executor() -> Executor<DesignRequest, u64> {
        Arc::new(|request: &DesignRequest, ctx| {
            ctx.cancel
                .checkpoint()
                .map_err(|_| ExecError::cancelled())?;
            let chip = request
                .chip
                .build()
                .map_err(|e| ExecError::permanent(ErrorKind::InvalidRequest, e.to_string()))?;
            Ok(chip.num_qubits() as u64)
        })
    }

    /// [`counting_executor`] after holding each job for `hold`, with
    /// cancel checkpoints, so later frames arrive while it runs.
    fn holding_executor(hold: Duration) -> Executor<DesignRequest, u64> {
        let count = counting_executor();
        Arc::new(move |request: &DesignRequest, ctx| {
            let start = Instant::now();
            while start.elapsed() < hold {
                ctx.cancel
                    .checkpoint()
                    .map_err(|_| ExecError::cancelled())?;
                std::thread::sleep(Duration::from_millis(2));
            }
            count(request, ctx)
        })
    }

    fn design_line(rows: usize, rid: &str) -> String {
        format!(
            r#"{{"op":"design","rid":"{rid}","request":{{"chip":{{"topology":"square","rows":{rows},"cols":3}}}}}}"#
        )
    }

    /// `n` bare batch lines over 3 distinct chips: job `i` is a
    /// `(2 + i % 3)`×3 square grid with id `sq{i}`.
    fn batch_lines(n: usize) -> String {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"id\":\"sq{i}\",\"chip\":{{\"topology\":\"square\",\"rows\":{},\"cols\":3}}}}\n",
                    2 + i % 3
                )
            })
            .collect()
    }

    fn run_on(
        protocol: Protocol,
        executor: Executor<DesignRequest, u64>,
        cache: &ShardedCache<u64>,
        input: &str,
        options: &DaemonOptions,
    ) -> Result<(Vec<String>, DaemonReport), BatchError> {
        let mut out = Vec::new();
        let report = run_daemon_session(
            protocol,
            executor,
            options,
            cache,
            Cursor::new(input.to_string()),
            &mut out,
        )?;
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        Ok((lines, report))
    }

    fn run_with(
        protocol: Protocol,
        executor: Executor<DesignRequest, u64>,
        input: &str,
        options: &DaemonOptions,
    ) -> (Vec<String>, DaemonReport) {
        let cache = ShardedCache::new(options.shards, options.cache_capacity);
        run_on(protocol, executor, &cache, input, options).unwrap()
    }

    fn run_session(input: &str, options: &DaemonOptions) -> (Vec<String>, DaemonReport) {
        run_with(Protocol::Daemon, counting_executor(), input, options)
    }

    fn run_batch(input: &str, options: &DaemonOptions) -> (Vec<String>, DaemonReport) {
        run_with(Protocol::Batch, counting_executor(), input, options)
    }

    fn parse(line: &str) -> Value {
        serde_json::from_str(line).unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "youtiao-serve-test-{}.{tag}.json",
            std::process::id()
        ))
    }

    fn remove_shards(path: &std::path::Path, shards: usize) {
        for index in 0..shards {
            let _ = std::fs::remove_file(shard_file(path, index, shards));
        }
    }

    #[test]
    fn session_answers_in_request_order_and_acks_shutdown_last() {
        let input = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            r#"{"op":"ping","rid":"p1"}"#,
            design_line(2, "d1"),
            design_line(3, "d2"),
            r#"{"op":"stats","rid":"s1"}"#,
            r#"{"op":"shutdown","rid":"bye"}"#,
        );
        let (lines, report) = run_session(&input, &DaemonOptions::default());
        assert_eq!(lines.len(), 5);
        let ops: Vec<String> = lines
            .iter()
            .map(|l| parse(l)["op"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(ops, ["ping", "design", "design", "stats", "shutdown"]);
        let d1 = parse(&lines[1]);
        assert_eq!(d1["rid"], "d1");
        assert_eq!(d1["result"], 6);
        let stats = parse(&lines[3]);
        assert_eq!(stats["requests"], 4, "stats counts frames seen so far");
        assert!(report.shutdown);
        assert_eq!(report.requests, 5);
        assert_eq!(report.responses, 5);
        assert_eq!(report.metrics.jobs, 2);
        assert_eq!(report.metrics.admission.admitted, 2);
    }

    #[test]
    fn eof_ends_the_session_after_draining() {
        let input = format!("{}\n{}\n", design_line(2, "a"), design_line(2, "b"));
        let (lines, report) = run_session(&input, &DaemonOptions::default());
        assert_eq!(lines.len(), 2);
        assert!(!report.shutdown, "EOF is not an in-band shutdown");
        // The duplicate was coalesced or served from cache; either way
        // both carry the same result.
        for line in &lines {
            assert_eq!(parse(line)["result"], 6);
        }
        assert_eq!(report.metrics.ok, 2);
    }

    #[test]
    fn coalesced_duplicates_count_one_cache_lookup_each() {
        // The second frame waits on the first job for ~150 ms; the wait
        // must not count a cache miss per poll.
        let input = format!("{}\n{}\n", design_line(2, "a"), design_line(2, "b"));
        let options = DaemonOptions {
            workers: 2,
            ..DaemonOptions::default()
        };
        let (lines, report) = run_with(
            Protocol::Daemon,
            holding_executor(Duration::from_millis(150)),
            &input,
            &options,
        );
        assert_eq!(lines.len(), 2);
        assert_eq!(report.metrics.jobs, 2);
        assert_eq!(report.metrics.cache_hits, 1);
        assert_eq!(report.metrics.cache_misses, 1);
    }

    #[test]
    fn bad_frames_and_bad_requests_get_error_responses_in_order() {
        let input = format!(
            "not json\n{}\n{}\n{}\n",
            r#"{"op":"reboot","rid":"r"}"#,
            r#"{"op":"design","rid":"x"}"#,
            r#"{"op":"design","rid":"k","request":{"chip":{"topology":"klein-bottle"}}}"#,
        );
        let (lines, report) = run_session(&input, &DaemonOptions::default());
        assert_eq!(lines.len(), 4);
        let v = parse(&lines[0]);
        assert_eq!(v["op"], "error");
        assert_eq!(v["line"], 1);
        let v = parse(&lines[1]);
        assert!(v["error"].as_str().unwrap().contains("reboot"));
        assert_eq!(v["rid"], "r");
        let v = parse(&lines[2]);
        assert!(v["error"].as_str().unwrap().contains("missing `request`"));
        // An unresolvable chip is a design *record*, not a protocol error.
        let v = parse(&lines[3]);
        assert_eq!(v["op"], "design");
        assert_eq!(v["status"], "Error");
        assert_eq!(v["error"]["kind"], "InvalidRequest");
        assert_eq!(report.metrics.jobs, 1);
        assert_eq!(report.metrics.errors, 1);
    }

    #[test]
    fn equal_seed_sessions_are_byte_identical_across_workers_and_shards() {
        // 12 designs over 3 distinct chips (duplicates exercise the
        // coalescing path) plus interleaved control frames.
        let mut input = String::new();
        for i in 0..12 {
            input.push_str(&design_line(2 + i % 3, &format!("d{i}")));
            input.push('\n');
            if i == 5 {
                input.push_str("{\"op\":\"stats\",\"rid\":\"mid\"}\n");
            }
        }
        input.push_str("{\"op\":\"shutdown\"}\n");

        let mut outputs = Vec::new();
        for (workers, shards) in [(1usize, 1usize), (4, 1), (1, 8), (4, 8), (2, 3)] {
            let options = DaemonOptions {
                workers,
                shards,
                faults: Some(FaultPlan::smoke(2)),
                ..DaemonOptions::default()
            };
            let (lines, _) = run_session(&input, &options);
            outputs.push((workers, shards, lines.join("\n")));
        }
        let (_, _, reference) = &outputs[0];
        for (workers, shards, output) in &outputs[1..] {
            assert_eq!(
                output, reference,
                "canonical session diverged at workers={workers} shards={shards}"
            );
        }
    }

    #[test]
    fn non_canonical_responses_carry_run_fields_and_shard_tags() {
        let input = format!("{}\n{}\n", design_line(2, "a"), design_line(2, "b"));
        let options = DaemonOptions {
            canonical: false,
            shards: 4,
            workers: 1,
            ..DaemonOptions::default()
        };
        let (lines, report) = run_session(&input, &options);
        let first = parse(&lines[0]);
        assert_eq!(first["cache_hit"], false);
        assert_eq!(first["attempts"], 1);
        assert!(first.get("shard").is_some(), "sharded runs tag the shard");
        let second = parse(&lines[1]);
        assert_eq!(second["cache_hit"], true, "duplicate served from cache");
        assert_eq!(second["attempts"], 0);
        assert_eq!(second["shard"], first["shard"]);
        assert_eq!(report.metrics.shards.len(), 4);
        let jobs: usize = report.metrics.shards.iter().map(|s| s.jobs).sum();
        assert_eq!(jobs, 2);
    }

    #[test]
    fn overload_burst_sheds_deterministically() {
        // est 10ms over 2 workers with 60s deadlines: nothing sheds on
        // real depth, but the burst's million phantom jobs shed indices
        // 3..7 regardless of scheduling. Chips are all distinct — a
        // duplicate is served from cache before the shed check, which
        // is always deadline-feasible.
        let mut input = String::new();
        for i in 0..12 {
            input.push_str(&format!(
                r#"{{"op":"design","rid":"d{i}","request":{{"chip":{{"topology":"square","rows":{},"cols":3}},"deadline_ms":60000}}}}"#,
                2 + i
            ));
            input.push('\n');
        }
        let options = DaemonOptions {
            workers: 2,
            admission: AdmissionConfig {
                max_queue: 64,
                client_inflight: 0,
                est_ms: 10.0,
            },
            faults: Some(FaultPlan {
                overload_burst: Some(crate::fault::OverloadBurst {
                    start: Some(3),
                    count: Some(4),
                    extra: Some(1_000_000),
                }),
                ..FaultPlan::default()
            }),
            ..DaemonOptions::default()
        };
        let (lines, report) = run_session(&input, &options);
        let (lines_again, _) = run_session(&input, &options);
        assert_eq!(lines, lines_again, "pinned overload is reproducible");
        assert_eq!(report.metrics.admission.shed, 4);
        for (i, line) in lines.iter().enumerate() {
            let v = parse(line);
            if (3..7).contains(&i) {
                assert_eq!(v["error"]["kind"], "Shed", "index {i}");
                assert!(v["error"]["message"]
                    .as_str()
                    .unwrap()
                    .contains("infeasible"));
            } else {
                assert_eq!(v["status"], "Ok", "index {i}: {v}");
            }
        }
    }

    #[test]
    fn client_inflight_cap_backpressures_without_changing_output() {
        let mut input = String::new();
        for i in 0..8 {
            input.push_str(&design_line(2 + i % 3, &format!("d{i}")));
            input.push('\n');
        }
        let capped = DaemonOptions {
            workers: 4,
            admission: AdmissionConfig {
                max_queue: 64,
                client_inflight: 1,
                est_ms: 0.0,
            },
            ..DaemonOptions::default()
        };
        // Each job holds its worker for ~20 ms, so the next frame always
        // arrives while the client's one allowed job is still running.
        let hold = || holding_executor(Duration::from_millis(20));
        let (capped_lines, capped_report) = run_with(Protocol::Daemon, hold(), &input, &capped);
        let (free_lines, free_report) =
            run_with(Protocol::Daemon, hold(), &input, &DaemonOptions::default());
        assert_eq!(capped_lines, free_lines, "backpressure never alters bytes");
        assert!(
            capped_report.metrics.admission.backpressure_waits > 0,
            "the cap actually stalled intake"
        );
        assert_eq!(free_report.metrics.admission.backpressure_waits, 0);
        assert!(capped_report.metrics.admission.max_in_flight <= 1);
    }

    #[test]
    fn daemon_cache_persists_and_survives_single_shard_loss() {
        let path = temp_path("daemon-cache");
        let shards = 4usize;
        remove_shards(&path, shards);
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&design_line(2 + i, &format!("d{i}")));
            input.push('\n');
        }
        let options = DaemonOptions {
            shards,
            cache_path: Some(path.clone()),
            canonical: false,
            ..DaemonOptions::default()
        };
        let run = |options: &DaemonOptions| {
            let mut out = Vec::new();
            let report = run_daemon(
                Protocol::Daemon,
                counting_executor(),
                options,
                Cursor::new(input.clone()),
                &mut out,
            )
            .unwrap();
            (String::from_utf8(out).unwrap(), report)
        };

        let (_, cold) = run(&options);
        assert_eq!(cold.metrics.cache_hits, 0);
        let (_, warm) = run(&options);
        assert_eq!(warm.metrics.cache_hits, 6, "all six keys persisted");

        // Lose one shard via the fault plan: only its keys recompute.
        let keys: Vec<u64> = (0..6)
            .map(|i| {
                let mut r = DesignRequest::new(ChipRequest::grid("square", 2 + i, 3));
                r.id = Some(format!("d{i}"));
                r.cache_key().unwrap()
            })
            .collect();
        let lost_shard = crate::shard::shard_of_key(keys[0], shards);
        let lost = keys
            .iter()
            .filter(|k| crate::shard::shard_of_key(**k, shards) == lost_shard)
            .count() as u64;
        assert!(lost > 0, "the lost shard holds at least the first key");
        let lossy = DaemonOptions {
            faults: Some(FaultPlan {
                shard_loss: Some(lost_shard),
                ..FaultPlan::default()
            }),
            ..options.clone()
        };
        let (_, after_loss) = run(&lossy);
        assert_eq!(after_loss.metrics.cache_hits, 6 - lost);
        assert_eq!(after_loss.metrics.cache_misses, lost);

        remove_shards(&path, shards);
    }

    #[test]
    fn plan_cache_fault_tears_shard_zero_in_the_loader() {
        let path = temp_path("cache-fault");
        remove_shards(&path, 1);
        let options = DaemonOptions {
            cache_path: Some(path.clone()),
            ..DaemonOptions::default()
        };
        let input = batch_lines(3);
        let run = |options: &DaemonOptions| {
            run_daemon(
                Protocol::Batch,
                counting_executor(),
                options,
                Cursor::new(input.clone()),
                &mut Vec::new(),
            )
        };
        run(&options).unwrap();
        let torn = DaemonOptions {
            faults: Some(FaultPlan {
                cache_fault: Some(crate::fault::CacheFault::Truncate),
                ..FaultPlan::default()
            }),
            ..options.clone()
        };
        // The fault tears the persisted file before the load: strict
        // sessions fail loudly, salvaging ones restart the shard cold.
        let err = run(&torn).unwrap_err();
        assert!(matches!(err, BatchError::Cache(_)), "{err}");
        let salvage = DaemonOptions {
            cache_salvage: true,
            ..torn
        };
        let report = run(&salvage).unwrap();
        assert_eq!(report.salvaged_shards, 1);
        assert_eq!(report.metrics.cache_hits, 0);
        remove_shards(&path, 1);
    }

    #[test]
    fn batch_session_coalesces_repeats_and_warms_a_shared_cache() {
        let input = batch_lines(6); // 3 distinct chips, each twice
        let cache = ShardedCache::new(1, 64);
        let options = DaemonOptions::default();
        let (lines, report) = run_on(
            Protocol::Batch,
            counting_executor(),
            &cache,
            &input,
            &options,
        )
        .unwrap();
        assert_eq!(lines.len(), 6);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(parse(line)["index"], i, "records arrive in request order");
        }
        let metrics = report.metrics;
        assert_eq!(metrics.jobs, 6);
        assert_eq!(metrics.ok, 6);
        assert_eq!(metrics.cache_misses, 3, "each distinct key missed once");
        assert_eq!(metrics.cache_hits, 3, "each repeat was coalesced");

        // Second session over the same cache: all hits, and the metrics
        // count only this session's lookups.
        let (lines, report) = run_on(
            Protocol::Batch,
            counting_executor(),
            &cache,
            &input,
            &options,
        )
        .unwrap();
        assert_eq!(report.metrics.cache_hits, 6);
        assert_eq!(report.metrics.cache_misses, 0);
        assert_eq!(report.metrics.retries, 0);
        for line in &lines {
            let v = parse(line);
            assert_eq!(v["cache_hit"], true);
            assert_eq!(v["attempts"], 0);
        }
    }

    #[test]
    fn invalid_requests_become_records_not_errors() {
        let mut input = batch_lines(2);
        input.push_str("{\"chip\":{\"topology\":\"klein-bottle\"}}\n");
        let (lines, report) = run_batch(&input, &DaemonOptions::default());
        assert_eq!(report.metrics.jobs, 3);
        assert_eq!(report.metrics.ok, 2);
        assert_eq!(report.metrics.errors, 1);
        let bad = parse(&lines[2]);
        assert_eq!(bad["status"], "Error");
        assert_eq!(bad["error"]["kind"], "InvalidRequest");
        assert!(bad["error"]["message"]
            .as_str()
            .unwrap()
            .contains("klein-bottle"));
    }

    #[test]
    fn trace_json_holds_one_trace_per_executed_job() {
        let path = temp_path("trace");
        let _ = std::fs::remove_file(&path);
        let traced_executor: Executor<DesignRequest, u64> = Arc::new(|request, ctx| {
            let span = ctx.tracer.span("build");
            let chip = request
                .chip
                .build()
                .map_err(|e| ExecError::permanent(ErrorKind::InvalidRequest, e.to_string()))?;
            span.annotate("qubits", chip.num_qubits() as u64);
            Ok(chip.num_qubits() as u64)
        });
        let options = DaemonOptions {
            trace_json: Some(path.clone()),
            canonical: false,
            ..Default::default()
        };
        let (lines, report) = run_with(Protocol::Batch, traced_executor, &batch_lines(3), &options);

        // Records carry the traces inline too.
        for line in &lines {
            let v = parse(line);
            assert_eq!(v["trace"]["job"], v["id"]);
        }
        // The trace file is {"jobs":[...]} with one entry per executed job.
        let v = parse(&std::fs::read_to_string(&path).unwrap());
        let jobs = v["jobs"].as_array().unwrap();
        assert_eq!(jobs.len(), 3);
        for job in jobs {
            assert_eq!(job["spans"][0]["name"], "attempt");
            assert_eq!(job["spans"][0]["spans"][0]["name"], "build");
        }
        // And the metrics aggregate the spans per stage.
        assert!(report.metrics.stages.iter().any(|s| s.name == "build"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chaos_faults_are_injected_and_records_canonicalized() {
        let options = DaemonOptions {
            faults: Some(FaultPlan {
                transient_rate: Some(1.0),
                ..Default::default()
            }),
            canonical: true,
            max_retries: 2,
            ..Default::default()
        };
        let (lines, report) = run_batch(&batch_lines(6), &options);
        let metrics = report.metrics;
        // Every attempt of every job faulted transiently: all jobs
        // exhaust their retries and fail as injected Internal errors
        // (failed results are never cached, so repeats run too).
        assert_eq!(metrics.errors, 6);
        assert_eq!(metrics.retries, 12);
        assert_eq!(metrics.faults.transient, 18, "3 attempts x 6 jobs");
        for line in &lines {
            let v = parse(line);
            assert_eq!(v["latency_ms"], 0.0, "canonical records zero latency");
            assert_eq!(v["error"]["kind"], "Internal");
            assert!(v["error"]["message"]
                .as_str()
                .unwrap()
                .contains("injected transient fault"));
        }
    }

    #[test]
    fn abort_after_fault_cancels_the_tail_in_every_protocol() {
        let options = DaemonOptions {
            workers: 1,
            faults: Some(FaultPlan {
                abort_after: Some(1),
                ..Default::default()
            }),
            ..Default::default()
        };
        let daemon_input: String = (0..4)
            .map(|i| design_line(2 + i % 3, &format!("d{i}")) + "\n")
            .collect();
        for (protocol, input) in [
            (Protocol::Batch, batch_lines(4)),
            (Protocol::Daemon, daemon_input),
        ] {
            let slow = holding_executor(Duration::from_millis(30));
            let (lines, report) = run_with(protocol, slow, &input, &options);
            assert_eq!(lines.len(), 4, "{protocol:?}: aborted jobs still answer");
            assert_eq!(report.metrics.jobs, 4);
            // Job 3 repeats job 0's chip: it waits for job 0, whose
            // completion fires the abort, and is served from the cache.
            // Jobs 1 and 2 are cancelled.
            assert_eq!(report.metrics.ok, 2, "{protocol:?}");
            assert_eq!(report.metrics.cancelled, 2, "{protocol:?}");
            assert_eq!(parse(&lines[3])["status"], "Ok");
        }
    }

    #[test]
    fn torn_cache_file_fails_loudly_or_salvages_when_opted_in() {
        let path = temp_path("torn-cache");
        let _ = std::fs::remove_file(&path);
        let options = DaemonOptions {
            cache_path: Some(path.clone()),
            ..Default::default()
        };
        let input = batch_lines(3);
        let run = |options: &DaemonOptions| {
            run_daemon(
                Protocol::Batch,
                counting_executor(),
                options,
                Cursor::new(input.clone()),
                &mut Vec::new(),
            )
        };
        run(&options).unwrap();
        crate::fault::apply_cache_fault(&path, crate::fault::CacheFault::Truncate).unwrap();

        // Default: the torn file aborts the session with a cache error.
        let err = run(&options).unwrap_err();
        assert!(matches!(err, BatchError::Cache(_)), "{err}");

        // Salvage: cold start, run fine, and rewrite a valid snapshot.
        let salvage = DaemonOptions {
            cache_salvage: true,
            ..options.clone()
        };
        let cold = run(&salvage).unwrap();
        assert_eq!(cold.metrics.cache_hits, 0);
        let warm = run(&options).unwrap();
        assert_eq!(
            warm.metrics.cache_hits, 3,
            "salvage run re-persisted a valid file"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_persists_across_batch_runs() {
        let path = temp_path("cache");
        let _ = std::fs::remove_file(&path);
        let options = DaemonOptions {
            cache_path: Some(path.clone()),
            ..Default::default()
        };
        let input = batch_lines(4); // job 3 repeats job 0's chip
        let run = || {
            run_daemon(
                Protocol::Batch,
                counting_executor(),
                &options,
                Cursor::new(input.clone()),
                &mut Vec::new(),
            )
            .unwrap()
            .metrics
        };
        let cold = run();
        assert_eq!(cold.cache_hits, 1, "only the coalesced repeat hits");
        let warm = run();
        assert_eq!(warm.cache_hits, 4, "all jobs answered from the cache file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_input_skips_comments_and_aborts_on_a_bad_line() {
        let text = "\n# a sweep\n{\"chip\":{\"topology\":\"square\",\"rows\":2,\"cols\":3},\"id\":\"a\"}\n{\"chip\":{\"topology\":\"square\",\"rows\":3,\"cols\":3},\"id\":\"b\"}\n{\"chip\":{\"topology\":\"klein-bottle\"},\"id\":\"c\"}\n";
        let (lines, report) = run_batch(text, &DaemonOptions::default());
        assert_eq!(report.metrics.jobs, 3);
        assert_eq!(report.metrics.ok, 2);
        assert_eq!(report.metrics.errors, 1);
        let lines: Vec<Value> = lines.iter().map(|l| parse(l)).collect();
        assert_eq!(lines[0]["id"], "a");
        assert_eq!(lines[0]["result"], 6);
        assert_eq!(lines[1]["result"], 9);
        assert_eq!(lines[2]["error"]["kind"], "InvalidRequest");

        // A mid-stream parse error aborts loudly with its line number.
        let bad = "{\"chip\":{\"topology\":\"square\"}}\n{\"chip\":}\n";
        let cache = ShardedCache::new(1, 64);
        let err = run_on(
            Protocol::Batch,
            counting_executor(),
            &cache,
            bad,
            &DaemonOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BatchError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn sharded_batch_tags_records_and_persists_per_shard() {
        let path = temp_path("sharded-cache");
        let shards = 4usize;
        remove_shards(&path, shards);
        let options = DaemonOptions {
            cache_path: Some(path.clone()),
            shards,
            canonical: false,
            ..Default::default()
        };
        let input = batch_lines(6); // 3 distinct chips, each twice
        let run = |options: &DaemonOptions| {
            let mut out = Vec::new();
            let report = run_daemon(
                Protocol::Batch,
                counting_executor(),
                options,
                Cursor::new(input.clone()),
                &mut out,
            )
            .unwrap();
            (String::from_utf8(out).unwrap(), report.metrics)
        };
        let (out, cold) = run(&options);
        assert_eq!(cold.cache_misses, 3, "each distinct key missed once");
        assert_eq!(cold.cache_hits, 3, "each repeat was coalesced");
        assert!(!cold.shards.is_empty(), "sharded metrics attach");
        let jobs: usize = cold.shards.iter().map(|s| s.jobs).sum();
        assert_eq!(jobs, 6, "every keyed record lands in a shard bucket");
        for line in out.lines() {
            let shard = parse(line)["shard"]
                .as_u64()
                .expect("sharded records are tagged");
            assert!((shard as usize) < shards);
        }

        // Warm pass reads the per-shard files back.
        let (_, warm) = run(&options);
        assert_eq!(warm.cache_hits, 6);

        // Single-shard runs keep their compact untagged lines.
        let flat = DaemonOptions {
            canonical: false,
            ..Default::default()
        };
        let (lines, _) = run_batch(&input, &flat);
        for line in &lines {
            assert!(parse(line).get("shard").is_none());
        }
        remove_shards(&path, shards);
    }
}
