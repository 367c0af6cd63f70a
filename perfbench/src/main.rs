//! The repository's benchmark: three closed-loop workloads over the composed
//! pipeline, each checked against in-run oracles.
//!
//! ```text
//! perfbench --workload <feed-flow|feed-patterns|queries> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it records spans around every library call and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
//! `failed` count library calls and the calls that returned an error (or no
//! answer). An oracle mismatch or a failed set-up exits with code 1. See
//! `README.md` next to this package for every metric's definition.

mod alloc;
mod feed;
mod log;
mod queries;
mod trace;

use std::fmt::Display;
use std::path::PathBuf;
use trace::Metrics;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
    /// Oracle mismatches; any makes the run fail.
    pub mismatches: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Library calls attempted and failed. A failed call is counted, reported,
/// and not retried.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Ops {
    /// Counts one call that cannot fail.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one fallible call, keeping the first error's text.
    pub fn check<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one call whose `None` is a failure.
    pub fn answer<T>(&mut self, what: &str, answer: Option<T>) -> Option<T> {
        self.check(what, answer.ok_or("no answer"))
    }
}

/// Equal up to the solvers' floating-point tolerance.
pub fn close_enough(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Where a run keeps its journal directories and trace file, relative to
/// the directory the benchmark runs in.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <feed-flow|feed-patterns|queries> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("error: cannot create {}: {e}", work_dir().display());
        std::process::exit(1);
    }
    let run = match args.workload.as_str() {
        "feed-flow" => feed::run(&feed::FEED_FLOW, args.seed, args.seconds, args.trace),
        "feed-patterns" => feed::run(&feed::FEED_PATTERNS, args.seed, args.seconds, args.trace),
        "queries" => queries::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other} (feed-flow | feed-patterns | queries)");
            std::process::exit(2);
        }
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in &outcome.metrics.items {
        println!("{name:<40} {value:>14.4} {unit}");
    }
    let failed_frac = outcome.ops.failed as f64 / outcome.ops.attempted.max(1) as f64;
    println!("{:<40} {failed_frac:>14.4} ratio", "ops_failed_frac");
    if let Some(e) = &outcome.ops.first_error {
        println!("first failed call: {e}");
    }
    for m in &outcome.mismatches {
        eprintln!("oracle mismatch: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    println!("{}", result_json(correct, &outcome));
    if !correct {
        std::process::exit(1);
    }
}

fn result_json(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .items
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.attempted.max(1),
        outcome.ops.failed,
        metrics.join(", ")
    )
}
