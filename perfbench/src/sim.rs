//! `sim-regulated`: Table 2's 96-VCPU scheduler-stress system on
//! platform A, with memory traffic at 1.5x every core's bandwidth
//! budget so every core throttles once per regulation period. The
//! seeds set the task release offsets. It runs on the serial
//! `HypervisorSim::run`, as `vc2m simulate` does by default, and is the
//! only workload that uses the `simcore` event queue, the `hypervisor`
//! EDF/budget engine and the `membw` regulator.
//!
//! A pass simulates [`RUNS`] systems, each with release offsets from
//! its own seed derived from the run's seed: the offsets move the
//! deadline-met ratio by about ten points from one seed to the next.
//!
//! Simulated time: the horizon and every event, throttle, period and
//! job count. Host time: every `_s`, `_us`, `_ns` and per-second figure.

use crate::report::{
    guarded, median, ratio, reset_peak_rss, sub_seeds, Phase, Report, RequestTimes,
};
use crate::spans::SpanLog;
use std::time::{Duration, Instant};
use vc2m::hypervisor::TraceEvent;
use vc2m::model::SimDuration;
use vc2m::prelude::*;
use vc2m::rng::{DetRng, Rng};
use vc2m_bench::scheduler_stress_system;

pub const VCPUS: usize = 96;
/// Simulated horizon of one run, in milliseconds.
pub const HORIZON_MS: f64 = 5_000.0;
pub const TRAFFIC_FRACTION: f64 = 1.5;
pub const SHARDED_THREADS: usize = 2;
/// Simulations per pass.
pub const RUNS: usize = 32;

/// Builds the system and the simulator for `seed`.
fn build(seed: u64, trace_capacity: usize) -> Result<HypervisorSim, String> {
    let platform = Platform::platform_a();
    let (allocation, tasks) = scheduler_stress_system(&platform, VCPUS);
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(HORIZON_MS))
        .with_traffic_fraction(TRAFFIC_FRACTION)
        .with_trace_capacity(trace_capacity);
    let mut sim =
        HypervisorSim::new(&platform, &allocation, &tasks, config).map_err(|e| e.to_string())?;
    let mut rng = DetRng::seed_from_u64(seed);
    for task in tasks.iter() {
        let offset = rng.gen_f64() * task.period();
        sim = sim
            .with_task_offset(task.id(), offset)
            .map_err(|e| e.to_string())?;
    }
    Ok(sim)
}

/// Runs one simulation; `None` if building or running failed or
/// panicked.
fn simulate(sim: Result<HypervisorSim, String>) -> Option<SimReport> {
    guarded(|| sim.ok()?.run().ok()).flatten()
}

/// The reference report and event count of each seed.
struct Expected {
    reports: Vec<SimReport>,
    events: Vec<u64>,
}

impl Expected {
    /// Events of run `k` counted as failed: all of them unless the
    /// report equals the reference.
    fn failed(&self, k: usize, run: Option<&SimReport>) -> u64 {
        if run.is_some_and(|r| r.structural_eq(&self.reports[k])) {
            0
        } else {
            self.events[k]
        }
    }
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let seeds = sub_seeds(seed, RUNS);

    // Conformance, untimed: for every seed an observed run, a plain run
    // and a sharded run agree structurally. The observed run also
    // counts the events, a constant of the seed.
    let mut expected = Expected {
        reports: Vec::new(),
        events: Vec::new(),
    };
    let (mut repeat_ok, mut sharded_ok) = (true, true);
    for &s in &seeds {
        let observed = guarded(|| build(s, 0).ok()?.run_observed().ok()).flatten();
        let Some((reference, observation)) = observed else {
            report.check("run_observed succeeds", false);
            report.ops(1, 1);
            return;
        };
        let counter = |name| observation.metrics.counter(name).unwrap_or(0);
        expected
            .events
            .push(counter("sim.trace.recorded") + counter("sim.trace.dropped"));
        repeat_ok &= simulate(build(s, 0)).is_some_and(|r| r.structural_eq(&reference));
        let sharded = guarded(|| build(s, 0).ok()?.run_sharded(SHARDED_THREADS).ok()).flatten();
        sharded_ok &= sharded.is_some_and(|r| r.structural_eq(&reference));
        expected.reports.push(reference);
    }
    report.check("SimReport structural_eq across runs", repeat_ok);
    report.check("SimReport structural_eq to run_sharded(2)", sharded_ok);
    let events: u64 = expected.events.iter().sum();

    if report.traced {
        traced(&seeds, seconds, &expected, report);
        return;
    }

    reset_peak_rss(report);
    let mut phase = Phase::new(seconds, 3);
    let (mut setup_s, mut times) = (Vec::new(), RequestTimes::default());
    while phase.next() {
        let mut set_up = Duration::ZERO;
        for (k, &s) in seeds.iter().enumerate() {
            let t = Instant::now();
            let sim = std::hint::black_box(build(s, 0));
            set_up += t.elapsed();
            let t = Instant::now();
            let run = simulate(sim);
            times.record(k, t.elapsed());
            report.ops(expected.events[k], expected.failed(k, run.as_ref()));
        }
        setup_s.push(set_up.as_secs_f64());
    }
    let (throughput, latency) = (times.throughput(events), times.latencies());
    let released: u64 = expected.reports.iter().map(|r| r.jobs_released).sum();
    let missed: u64 = expected
        .reports
        .iter()
        .map(|r| r.deadline_misses.len() as u64)
        .sum();
    let met = ratio((released - missed) as f64, released as f64);
    report.set("setup_s", median(&setup_s));
    report.set("throughput_per_s", throughput);
    report.set("accept_ratio", met);
    report.set("latency_p99_us", latency.quantile_us(0.99));
    report.note(format!(
        "sim.events_per_s = {throughput:.1} 1/s ({events} simulated events per pass of {RUNS} runs x {HORIZON_MS} simulated ms, serial)"
    ));
    report.note(format!(
        "sim deadline-met ratio = {met:.6} ({released} jobs released, {missed} missed; simulated)"
    ));
    report.note(format!(
        "sim latency per simulation run (host time): {}",
        latency.describe()
    ));
}

fn traced(seeds: &[u64], seconds: f64, expected: &Expected, report: &mut Report) {
    // Simulated event counts by kind, from the typed trace.
    let mut by_kind = [0u64; 6];
    let (mut throttles, mut periods) = (0u64, 0u64);
    for (k, &s) in seeds.iter().enumerate() {
        let capacity = usize::try_from(expected.events[k]).unwrap_or(usize::MAX);
        let full = guarded(|| build(s, capacity).ok()?.run_observed().ok()).flatten();
        report.ops(
            expected.events[k],
            expected.failed(k, full.as_ref().map(|(r, _)| r)),
        );
        let Some((_, observation)) = full else {
            continue;
        };
        for (_, event) in &observation.trace {
            let kind = match event {
                TraceEvent::Replenish { .. } => 0,
                TraceEvent::RunSegment { .. } => 1,
                TraceEvent::Throttle { .. } => 2,
                TraceEvent::Unthrottle { .. } => 3,
                TraceEvent::Refill { .. } => 4,
                TraceEvent::Miss { .. } => 5,
                _ => continue,
            };
            by_kind[kind] += 1;
        }
        throttles += observation.metrics.counter("membw.throttles").unwrap_or(0);
        periods += observation
            .metrics
            .counter("membw.periods_elapsed")
            .unwrap_or(0);
    }
    for (name, count) in [
        "hypervisor.events.replenish",
        "hypervisor.events.run_segment",
        "hypervisor.events.throttle",
        "hypervisor.events.unthrottle",
        "hypervisor.events.refill",
        "hypervisor.events.miss",
    ]
    .into_iter()
    .zip(by_kind)
    {
        report.set(name, count as f64);
    }
    report.set("membw.throttles", throttles as f64);
    report.set("membw.periods_elapsed", periods as f64);

    // Serial runs untraced, sharded runs, then traced serial runs.
    let third = seconds / 3.0;
    let (mut untraced, mut serial_run, mut sharded) = (Vec::new(), Vec::new(), Vec::new());
    let mut phase = Phase::new(third, 1);
    while phase.next() {
        let t = Instant::now();
        for (k, &s) in seeds.iter().enumerate() {
            let sim = build(s, 0);
            let t_run = Instant::now();
            let run = simulate(sim);
            serial_run.push(t_run.elapsed().as_secs_f64());
            report.ops(expected.events[k], expected.failed(k, run.as_ref()));
        }
        untraced.push(t.elapsed().as_secs_f64());
    }
    let mut phase = Phase::new(third, 1);
    while phase.next() {
        for (k, &s) in seeds.iter().enumerate() {
            let sim = build(s, 0);
            let t = Instant::now();
            let run = guarded(|| sim.ok()?.run_sharded(SHARDED_THREADS).ok()).flatten();
            sharded.push(t.elapsed().as_secs_f64());
            report.ops(expected.events[k], expected.failed(k, run.as_ref()));
        }
    }

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0);
    let (mut traced, mut new_ns, mut run_ns) = (Vec::new(), 0u64, 0u64);
    let mut phase = Phase::new(third, 1);
    while phase.next() {
        let t = Instant::now();
        for (k, &s) in seeds.iter().enumerate() {
            let span = log.enter("hypervisor.new", None, k as u64);
            let sim = build(s, 0);
            new_ns += log.exit(span);
            let span = log.enter("hypervisor.run", None, k as u64);
            let run = simulate(sim);
            run_ns += log.exit(span);
            report.ops(expected.events[k], expected.failed(k, run.as_ref()));
        }
        traced.push(t.elapsed().as_secs_f64());
    }
    let passes = traced.len() as f64;
    let events: u64 = expected.events.iter().sum();
    report.set("hypervisor.new.busy_s", new_ns as f64 / 1e9 / passes);
    report.set("hypervisor.run.busy_s", run_ns as f64 / 1e9 / passes);
    report.set(
        "hypervisor.ns_per_event",
        ratio(run_ns as f64 / passes, events as f64),
    );
    report.set(
        "hypervisor.sharded.speedup",
        ratio(median(&serial_run), median(&sharded)),
    );
    let logs = vec![log];
    crate::set_self_times(report, &logs, passes);
    crate::set_overhead(report, &untraced, &traced);
    report.note(format!(
        "sim: {events} events per pass of {RUNS} runs; one run: serial median {:.4} s vs run_sharded({SHARDED_THREADS}) {:.4} s",
        median(&serial_run),
        median(&sharded)
    ));
    report.spans = logs;
}
