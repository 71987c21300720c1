//! End-to-end benchmark of the YOUTIAO design service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-design|sweep-plan|daemon-warm \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced
//! runs (`--trace 1`) replay the same requests through each layer's
//! public functions and report per-layer metrics. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod daemon;
mod replay;
mod spans;
mod stats;
mod workloads;

use workloads::{Args, Outcome, DEFAULT_SEED};

const USAGE: &str = "usage: youtiao-perfbench --workload cold-design|sweep-plan|daemon-warm \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cold-design" => workloads::cold_design(&args),
        "daemon-warm" => workloads::daemon_warm(&args),
        "sweep-plan" => workloads::sweep_plan(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted {}, failed {}, correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!("{}", result_line(&outcome));
}
