//! The vC²M benchmark: four workloads that between them exercise every
//! layer of the workspace, end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-paper|admit-churn|fleet-saturated|sim-regulated> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run checks conformance before it times anything, prints a
//! readable report, and ends with one JSON line: `correct`,
//! `attempted`, `failed` and the metrics. See `README.md`.

mod admit;
mod fleet;
mod hist;
mod report;
mod sim;
mod spans;
mod sweep;

use report::{peak_rss_mb, Report, SELF_TIME_LAYERS};
use spans::SpanLog;
use std::process::ExitCode;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 42;
/// A seed never used while the benchmark or a change was tuned: a
/// claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 20_190_602;

const WORKLOADS: [(&str, &str); 4] = [
    ("sweep-paper", "2 (run_sweep_parallel)"),
    ("admit-churn", "1 (closed loop, one client)"),
    ("fleet-saturated", "2 (replay_parallel)"),
    (
        "sim-regulated",
        "1 (serial run; run_sharded(2) in the traced run)",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got {value:?}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("--seconds must be in (0, 120], got {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            WORKLOADS.map(|(name, _)| name),
            args.workload
        ));
    }
    Ok(args)
}

/// Sets `self_s.<layer>` from the spans, per pass.
fn set_self_times(report: &mut Report, logs: &[SpanLog], passes: f64) {
    let self_ns = spans::self_time_by_layer(logs);
    for layer in SELF_TIME_LAYERS {
        let seconds = self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9;
        let name = report::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("self_s.") == Some(layer))
            .expect("every self-time layer has a metric");
        report.set(name, seconds / passes.max(1.0));
    }
}

/// Sets `trace.overhead_pct`: the median traced pass against the median
/// untraced pass of the same work.
fn set_overhead(report: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (report::median(untraced), report::median(traced));
    let overhead = 100.0 * report::ratio(t - u, u);
    report.set("trace.overhead_pct", overhead);
    report.note(format!(
        "trace.overhead_pct = {overhead:.2} % (traced {t:.4} s vs untraced {u:.4} s per pass)"
    ));
}

fn write_spans(workload: &str, seed: u64, logs: &[SpanLog]) -> Result<String, std::io::Error> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.tsv"));
    std::fs::write(&path, spans::render(logs))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let threads = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map_or("?", |(_, threads)| threads);
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) seconds={} trace={} host_cpus={host_cpus} threads={threads} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
    );

    let mut report = Report::new(args.trace);
    match args.workload.as_str() {
        "sweep-paper" => sweep::run(args.seed, args.seconds, &mut report),
        "admit-churn" => admit::run(args.seed, args.seconds, &mut report),
        "fleet-saturated" => fleet::run(args.seed, args.seconds, &mut report),
        "sim-regulated" => sim::run(args.seed, args.seconds, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    if !args.trace {
        let rss = peak_rss_mb();
        report.set("peak_rss_mb", rss);
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "error_rate = {} ({} failed of {} attempted operations)",
        report::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    for &(name, unit) in report.names() {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}");
    }
    if args.trace {
        match write_spans(&args.workload, args.seed, &report.spans) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::report::{END_TO_END, PER_LAYER};

    /// The metric tables and `BENCHMARK.json` name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<(String, String)> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let name = chunk.split('"').next()?;
                let unit = chunk.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }
}
