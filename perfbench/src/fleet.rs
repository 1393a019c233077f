//! `fleet-saturated`: the rejection-heavy trace through a four-host
//! `AdmissionFleet`, replayed in parallel at two threads. This is the
//! read-heavy use of the admission layer: almost every request is a
//! rejection, most are retries, and the rejection memo answers many of
//! them. It is the only workload that uses the fleet router and the
//! parallel replay.
//!
//! A pass replays [`TRACES`] traces of [`REQUESTS`] requests, each from
//! its own seed derived from the run's seed, each through a fresh fleet.

use crate::admit::{self, ByClass, Class};
use crate::hist::Histogram;
use crate::report::{
    guarded, median, mismatched_lines, ratio, reset_peak_rss, sub_seeds, Phase, Report,
    RequestTimes,
};
use crate::spans::SpanLog;
use std::time::{Duration, Instant};
use vc2m::admission::{fleet_items, generate, TraceSpec};
use vc2m::prelude::*;

pub const REQUESTS: usize = 1500;
pub const HOSTS: usize = 4;
pub const THREADS: usize = 2;
/// Traces per pass.
pub const TRACES: usize = 16;

/// One trace of a pass: its seed and its materialized work items.
struct Trace {
    seed: u64,
    items: Vec<FleetWorkItem>,
}

/// Generates and materializes the trace of `seed`: the set-up work of
/// one trace.
fn setup(seed: u64) -> Trace {
    let space = Platform::platform_a().resources();
    Trace {
        seed,
        items: fleet_items(
            &generate(&TraceSpec::rejection_heavy(REQUESTS, seed, HOSTS)),
            space,
        ),
    }
}

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig::new(HOSTS, seed)
}

fn replay_parallel(trace: &Trace) -> AdmissionFleet {
    AdmissionFleet::replay_parallel(
        Platform::platform_a(),
        fleet_config(trace.seed),
        &trace.items,
        THREADS,
    )
}

fn replay_serial(trace: &Trace) -> AdmissionFleet {
    let mut fleet = AdmissionFleet::new(Platform::platform_a(), fleet_config(trace.seed));
    fleet.replay(&trace.items);
    fleet
}

/// The reference decision log of each trace, from the serial replay.
struct Expected {
    logs: Vec<String>,
    decisions: Vec<u64>,
}

impl Expected {
    fn ops(&self) -> u64 {
        self.decisions.iter().sum()
    }

    /// Decisions of `fleet` (replaying trace `k`) that differ from the
    /// reference; all of them if the replay panicked.
    fn failed(&self, k: usize, fleet: Option<&AdmissionFleet>) -> u64 {
        fleet.map_or(self.decisions[k], |f| {
            mismatched_lines(&self.logs[k], &f.log_text())
        })
    }
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let seeds = sub_seeds(seed, TRACES);

    // Conformance, untimed: each trace's parallel replay log equals its
    // serial replay log.
    let mut expected = Expected {
        logs: Vec::new(),
        decisions: Vec::new(),
    };
    let mut stats = AdmissionStats::default();
    let mut conformant = true;
    for &s in &seeds {
        let trace = setup(s);
        let serial = replay_serial(&trace);
        expected.logs.push(serial.log_text());
        expected.decisions.push(serial.decisions().len() as u64);
        stats = stats.merged(&serial.aggregate_stats());
        let parallel = guarded(|| replay_parallel(&trace));
        conformant &= expected.failed(expected.logs.len() - 1, parallel.as_ref()) == 0;
    }
    report.check(
        "replay_parallel(2) decision log equals serial replay on every trace",
        conformant,
    );
    let ops = expected.ops();

    if report.traced {
        traced(&seeds, seconds, &expected, report);
        admit::report_engine_counters(&stats, report);
        return;
    }

    reset_peak_rss(report);
    let mut phase = Phase::new(seconds, 3);
    let (mut setup_s, mut times) = (Vec::new(), RequestTimes::default());
    while phase.next() {
        let mut set_up = Duration::ZERO;
        for (k, &s) in seeds.iter().enumerate() {
            let t = Instant::now();
            let trace = std::hint::black_box(setup(s));
            set_up += t.elapsed();
            let t = Instant::now();
            let fleet = guarded(|| replay_parallel(&trace));
            times.record(k, t.elapsed());
            report.ops(expected.decisions[k], expected.failed(k, fleet.as_ref()));
        }
        setup_s.push(set_up.as_secs_f64());
    }
    let (throughput, latency) = (times.throughput(ops), times.latencies());
    let accept = admit::accept_ratio(&stats);
    report.set("setup_s", median(&setup_s));
    report.set("throughput_per_s", throughput);
    report.set("accept_ratio", accept);
    report.set("latency_p99_us", latency.quantile_us(0.99));
    report.note(format!(
        "fleet.decisions_per_s = {throughput:.1} 1/s ({ops} decisions per pass of {TRACES} traces x {REQUESTS} requests, {HOSTS} hosts, {THREADS} threads)"
    ));
    report.note(format!("fleet.accept_ratio = {accept:.6} ratio (exact)"));
    report.note(format!(
        "fleet latency per parallel replay of one trace: {}",
        latency.describe()
    ));
}

fn traced(seeds: &[u64], seconds: f64, expected: &Expected, report: &mut Report) {
    let platform = Platform::platform_a();
    let traces: Vec<Trace> = seeds.iter().map(|&s| setup(s)).collect();
    let quarter = seconds / 4.0;

    // The parallel replay against the serial one.
    let (mut parallel_s, mut serial_s) = (Vec::new(), Vec::new());
    let mut phase = Phase::new(quarter, 1);
    let mut passes = 0;
    while phase.next() {
        passes += 1;
        for (k, trace) in traces.iter().enumerate() {
            let t = Instant::now();
            let fleet = guarded(|| replay_parallel(trace));
            parallel_s.push(t.elapsed().as_secs_f64());
            report.ops(expected.decisions[k], expected.failed(k, fleet.as_ref()));
            let t = Instant::now();
            let fleet = guarded(|| replay_serial(trace));
            serial_s.push(t.elapsed().as_secs_f64());
            report.ops(expected.decisions[k], expected.failed(k, fleet.as_ref()));
        }
    }
    report.set(
        "fleet.replay_parallel.busy_s",
        parallel_s.iter().sum::<f64>() / f64::from(passes),
    );
    report.set(
        "fleet.parallel_speedup",
        ratio(median(&serial_s), median(&parallel_s)),
    );

    // The router on its own: it does not depend on outcomes, so a
    // standalone router over the same stream makes the same choices.
    let (mut route_ns, mut routes) = (0u64, 0u64);
    let (mut retry_routes, mut saturated_routes) = (0u64, 0u64);
    for trace in &traces {
        let mut router = FleetRouter::new(HOSTS, &platform);
        for item in &trace.items {
            let requests = match item {
                FleetWorkItem::Single(r) => std::slice::from_ref(r),
                FleetWorkItem::Batch(rs) => rs.as_slice(),
            };
            for request in requests {
                let t = Instant::now();
                std::hint::black_box(router.route(request));
                route_ns += t.elapsed().as_nanos() as u64;
                routes += 1;
            }
        }
        retry_routes += router.stats().retry_routes;
        saturated_routes += router.stats().saturated_routes;
    }
    report.set("fleet.route.busy_s", route_ns as f64 / 1e9);
    report.set("fleet.route.calls", routes as f64);
    report.set("fleet.retry_routes", retry_routes as f64);
    report.set("fleet.saturated_routes", saturated_routes as f64);

    // Serial submits, untraced and traced, for latency per request.
    // Each pass's time covers the replays only, not the checks.
    let mut untraced = Vec::new();
    let mut phase = Phase::new(quarter, 1);
    while phase.next() {
        let mut wall = Duration::ZERO;
        for (k, trace) in traces.iter().enumerate() {
            let t = Instant::now();
            let fleet = guarded(|| {
                let mut fleet = AdmissionFleet::new(platform, fleet_config(trace.seed));
                for item in &trace.items {
                    let item = item.clone();
                    let t = Instant::now();
                    submit(&mut fleet, item);
                    std::hint::black_box(t.elapsed());
                }
                fleet
            });
            wall += t.elapsed();
            report.ops(expected.decisions[k], expected.failed(k, fleet.as_ref()));
        }
        untraced.push(wall.as_secs_f64());
    }

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0);
    let (mut latency, mut by_class) = (Histogram::default(), ByClass::default());
    let mut host_ns = [0u64; HOSTS];
    let mut traced = Vec::new();
    let mut phase = Phase::new(quarter, 1);
    while phase.next() {
        let mut wall = Duration::ZERO;
        let mut unit = 0u64;
        for (k, trace) in traces.iter().enumerate() {
            let t = Instant::now();
            let fleet = guarded(|| {
                let mut fleet = AdmissionFleet::new(platform, fleet_config(trace.seed));
                for item in &trace.items {
                    let item = item.clone();
                    let before = fleet.decisions().len();
                    let span = log.enter("fleet.submit", None, unit);
                    unit += 1;
                    submit(&mut fleet, item);
                    let ns = log.exit(span);
                    let decisions = &fleet.decisions()[before..];
                    latency.record(ns);
                    by_class.record(
                        Class::of(decisions.iter().map(|d| &d.decision.verdict)),
                        Duration::from_nanos(ns),
                    );
                    if let Some(first) = decisions.first() {
                        host_ns[first.host] += ns;
                    }
                }
                fleet
            });
            wall += t.elapsed();
            report.ops(expected.decisions[k], expected.failed(k, fleet.as_ref()));
        }
        traced.push(wall.as_secs_f64());
    }
    let passes = traced.len() as f64;
    let logs = vec![log];
    let submit_ns: u64 = host_ns.iter().sum();
    report.set("fleet.submit.busy_s", submit_ns as f64 / 1e9 / passes);
    report.set("fleet.submit.p50_us", latency.quantile_us(0.5));
    report.set("fleet.submit.p99_us", latency.quantile_us(0.99));
    let max = host_ns.iter().copied().max().unwrap_or(0) as f64;
    report.set(
        "fleet.host_imbalance",
        ratio(max, submit_ns as f64 / HOSTS as f64),
    );
    by_class.report(passes, report);
    crate::set_self_times(report, &logs, passes);
    crate::set_overhead(report, &untraced, &traced);
    report.note(format!(
        "fleet.submit (serial, per request): {}",
        latency.describe()
    ));
    report.note(format!(
        "fleet: replay of one trace: parallel median {:.4} s vs serial {:.4} s at {THREADS} threads; per-host submit seconds per pass {:?}",
        median(&parallel_s),
        median(&serial_s),
        host_ns.map(|ns| ns as f64 / 1e9 / passes)
    ));
    report.spans = logs;
}

/// Submits one item; the caller copies it before timing, so the copy
/// is not part of the measured call.
fn submit(fleet: &mut AdmissionFleet, item: FleetWorkItem) {
    match item {
        FleetWorkItem::Single(request) => {
            fleet.submit(request);
        }
        FleetWorkItem::Batch(requests) => {
            fleet.submit_batch(requests);
        }
    }
}
