//! Metric names, the result of one benchmark run, and the helpers the
//! workloads share for timing and checking.

use crate::hist::Histogram;
use crate::spans::SpanLog;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every untraced run. Each workload
/// measures every one of them; `README.md` says what an operation and
/// a request are on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("accept_ratio", "ratio"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics, reported by every traced run. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sweep-paper: the analysis stack.
    ("workload.generate.busy_s", "s"),
    ("workload.generate.calls", "count"),
    ("analysis.vm_level.flattening.busy_s", "s"),
    ("analysis.vm_level.flattening.calls", "count"),
    ("analysis.vm_level.overhead_free.busy_s", "s"),
    ("analysis.vm_level.overhead_free.calls", "count"),
    ("analysis.vm_level.existing.busy_s", "s"),
    ("analysis.vm_level.existing.calls", "count"),
    ("analysis.vm_level.evenly.busy_s", "s"),
    ("analysis.vm_level.evenly.calls", "count"),
    ("analysis.vm_level.baseline.busy_s", "s"),
    ("analysis.vm_level.baseline.calls", "count"),
    ("alloc.heuristic.busy_s", "s"),
    ("alloc.heuristic.calls", "count"),
    ("alloc.evenly.busy_s", "s"),
    ("sched.min_budget_calls", "count"),
    ("sched.can_schedule_calls", "count"),
    ("sched.solver_calls", "count"),
    ("sched.checkpoint_merges", "count"),
    ("sched.checkpoints_emitted", "count"),
    ("analysis.cache.lookups", "count"),
    ("analysis.cache.hit_ratio", "ratio"),
    // admit-churn and fleet-saturated: the admission engine.
    ("admission.submit.incremental.calls", "count"),
    ("admission.submit.incremental.busy_s", "s"),
    ("admission.submit.incremental.p50_us", "us"),
    ("admission.submit.incremental.p99_us", "us"),
    ("admission.submit.repack.calls", "count"),
    ("admission.submit.repack.busy_s", "s"),
    ("admission.submit.repack.p50_us", "us"),
    ("admission.submit.repack.p99_us", "us"),
    ("admission.submit.rejected.calls", "count"),
    ("admission.submit.rejected.busy_s", "s"),
    ("admission.submit.rejected.p50_us", "us"),
    ("admission.submit.rejected.p99_us", "us"),
    ("admission.submit.departed.calls", "count"),
    ("admission.submit.departed.busy_s", "s"),
    ("admission.submit.departed.p50_us", "us"),
    ("admission.submit.departed.p99_us", "us"),
    ("admission.dirty_cores_verified", "cores/decision"),
    ("admission.repack.success_ratio", "ratio"),
    ("admission.screen.hit_ratio", "ratio"),
    ("admission.memo.hits", "count"),
    ("admission.memo.inserts", "count"),
    ("admission.memo.invalidations", "count"),
    ("admission.memo.hit_ratio", "ratio"),
    // fleet-saturated: router and parallel replay.
    ("fleet.submit.busy_s", "s"),
    ("fleet.submit.p50_us", "us"),
    ("fleet.submit.p99_us", "us"),
    ("fleet.route.busy_s", "s"),
    ("fleet.route.calls", "count"),
    ("fleet.retry_routes", "count"),
    ("fleet.saturated_routes", "count"),
    ("fleet.replay_parallel.busy_s", "s"),
    ("fleet.parallel_speedup", "ratio"),
    ("fleet.host_imbalance", "ratio"),
    // sim-regulated: simulator, EDF/budget engine, regulator.
    ("hypervisor.new.busy_s", "s"),
    ("hypervisor.run.busy_s", "s"),
    ("hypervisor.ns_per_event", "ns"),
    ("hypervisor.events.replenish", "count"),
    ("hypervisor.events.run_segment", "count"),
    ("hypervisor.events.throttle", "count"),
    ("hypervisor.events.unthrottle", "count"),
    ("hypervisor.events.refill", "count"),
    ("hypervisor.events.miss", "count"),
    ("membw.throttles", "count"),
    ("membw.periods_elapsed", "count"),
    ("hypervisor.sharded.speedup", "ratio"),
    // Every workload.
    ("trace.overhead_pct", "%"),
    ("self_s.sweep", "s"),
    ("self_s.workload", "s"),
    ("self_s.analysis", "s"),
    ("self_s.alloc", "s"),
    ("self_s.admission", "s"),
    ("self_s.fleet", "s"),
    ("self_s.hypervisor", "s"),
];

/// Layers whose self time every traced run reports.
pub const SELF_TIME_LAYERS: &[&str] = &[
    "sweep",
    "workload",
    "analysis",
    "alloc",
    "admission",
    "fleet",
    "hypervisor",
];

/// Everything one run produces.
#[derive(Debug)]
pub struct Report {
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
    pub spans: Vec<SpanLog>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            metrics: BTreeMap::new(),
            lines: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The names this run must report, with their units.
    pub fn names(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Counts `ops` operations attempted, `failed` of which returned an
    /// error, panicked, or disagreed with the reference.
    pub fn ops(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed.min(ops);
    }

    /// Records an untimed conformance check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.lines.push(format!(
            "conformance: {what}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.failed_checks.push(what.to_string());
        }
    }

    /// Sets a metric of this run's kind (end-to-end or per-layer).
    /// Setting a metric of the other kind is ignored, so a workload can
    /// compute a value once for both.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = |list: &[(&str, &str)]| list.iter().any(|(n, _)| *n == name);
        assert!(
            known(END_TO_END) || known(PER_LAYER),
            "metric {name} is not declared"
        );
        if known(self.names()) {
            self.metrics.insert(name, value);
        }
    }

    /// Adds a human-readable line to the printed report.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty()
    }

    /// The one-line JSON result: every metric of this run's kind, in
    /// declaration order, unset per-layer metrics as 0.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .names()
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Decides how many passes a timed phase runs: at least `min` passes,
/// and more until `budget` has elapsed since the phase began.
#[derive(Debug)]
pub struct Phase {
    start: Instant,
    budget: Duration,
    min: usize,
    passes: usize,
}

impl Phase {
    pub fn new(seconds: f64, min: usize) -> Self {
        Phase {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            min,
            passes: 0,
        }
    }

    /// Whether to run another pass.
    pub fn next(&mut self) -> bool {
        let go = self.passes < self.min || self.start.elapsed() < self.budget;
        if go {
            self.passes += 1;
        }
        go
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How long each request of a pass took, over the run's passes. Every
/// pass replays the same requests, so the median of one request's times
/// is its latency with passing disturbances of the host filtered out.
#[derive(Debug, Default)]
pub struct RequestTimes {
    times: Vec<Vec<f64>>,
}

impl RequestTimes {
    /// Records one time of request `request` (its index within a pass).
    pub fn record(&mut self, request: usize, elapsed: Duration) {
        if self.times.len() <= request {
            self.times.resize_with(request + 1, Vec::new);
        }
        self.times[request].push(elapsed.as_nanos() as f64);
    }

    /// Each request's median time, in nanoseconds.
    fn medians(&self) -> impl Iterator<Item = f64> + '_ {
        self.times.iter().map(|t| median(t))
    }

    /// The requests' latencies (their median times) as a histogram.
    pub fn latencies(&self) -> Histogram {
        let mut hist = Histogram::default();
        for ns in self.medians() {
            hist.record(ns.round() as u64);
        }
        hist
    }

    /// Operations per second: `ops_per_pass` over the sum of the
    /// requests' median times.
    pub fn throughput(&self, ops_per_pass: u64) -> f64 {
        ratio(ops_per_pass as f64, self.medians().sum::<f64>() / 1e9)
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Lines of `actual` that differ from `expected`, counting missing and
/// extra lines.
pub fn mismatched_lines(expected: &str, actual: &str) -> u64 {
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let differing = e.iter().zip(&a).filter(|(x, y)| x != y).count();
    (differing + e.len().abs_diff(a.len())) as u64
}

/// Runs one pass, turning a panic into `None` so it counts as failed
/// operations instead of ending the run.
pub fn guarded<T>(pass: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(pass)).ok()
}

/// Restarts the process's peak-RSS count, so that `peak_rss_mb` covers
/// the timed phase and not the conformance checks before it. Writing
/// `5` to `/proc/self/clear_refs` resets `VmHWM` to the current RSS;
/// where that is refused the peak covers the whole process, and the
/// report says so.
pub fn reset_peak_rss(report: &mut Report) {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        report
            .note("peak_rss_mb covers the whole process: the peak could not be reset".to_string());
    }
}

/// `count` seeds derived from `seed`: the independent inputs one pass
/// covers, so that a run measures many inputs and its figures depend
/// little on which seed it was given.
pub fn sub_seeds(seed: u64, count: usize) -> Vec<u64> {
    use vc2m::rng::Rng;
    let mut mix = vc2m::rng::SplitMix64::new(seed);
    (0..count).map(|_| mix.next_u64()).collect()
}

/// The process's peak resident set size in MiB, from `VmHWM` in
/// `/proc/self/status` (0 where that is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
