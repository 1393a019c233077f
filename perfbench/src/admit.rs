//! `admit-churn`: one `AdmissionEngine` replays the default churn trace
//! (arrivals, departures, 10 % mode changes, 8 % batches) in a closed
//! loop with one client: each trace item is submitted only after the
//! previous call returned, because each decision changes the state the
//! next one is judged against.
//!
//! A pass replays [`TRACES`] traces of [`REQUESTS`] requests, each from
//! its own seed derived from the run's seed, each through a fresh
//! engine seeded like its trace.
//!
//! Also holds what `fleet-saturated` shares with it: classifying a
//! submit by its verdict and reporting the engine counters.

use crate::hist::Histogram;
use crate::report::{
    guarded, median, mismatched_lines, ratio, reset_peak_rss, sub_seeds, Phase, Report,
    RequestTimes,
};
use crate::spans::SpanLog;
use std::time::{Duration, Instant};
use vc2m::admission::{generate, materialize, TraceItem, TraceSpec};
use vc2m::prelude::*;

pub const REQUESTS: usize = 1000;
/// Traces per pass.
pub const TRACES: usize = 24;

/// One pre-materialized trace item.
#[derive(Clone)]
pub struct Item {
    batch: bool,
    requests: Vec<AdmissionRequest>,
}

/// Generates and materializes the churn trace of `seed`: the set-up
/// work of one trace.
fn setup(seed: u64) -> Vec<Item> {
    let space = Platform::platform_a().resources();
    generate(&TraceSpec::new(REQUESTS, seed))
        .items()
        .iter()
        .map(|item| match item {
            TraceItem::Single(r) => Item {
                batch: false,
                requests: vec![materialize(r, space)],
            },
            TraceItem::Batch(rs) => Item {
                batch: true,
                requests: rs.iter().map(|r| materialize(r, space)).collect(),
            },
        })
        .collect()
}

/// Submits one item, consuming it.
fn submit(engine: &mut AdmissionEngine, item: Item) {
    if item.batch {
        engine.submit_batch(item.requests);
    } else if let Some(request) = item.requests.into_iter().next() {
        engine.submit(request);
    }
}

/// The verdict classes a submit is reported under.
pub const CLASSES: [Class; 4] = [
    Class::Incremental,
    Class::Repack,
    Class::Rejected,
    Class::Departed,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Incremental,
    Repack,
    Rejected,
    Departed,
}

impl Class {
    /// Classifies one submit by the most expensive verdict it returned:
    /// any repack admission, else any rejection or refused mode change,
    /// else any incremental admission, else departures only.
    pub fn of<'a>(verdicts: impl Iterator<Item = &'a AdmissionVerdict> + Clone) -> Class {
        let any = |f: fn(&AdmissionVerdict) -> bool| verdicts.clone().any(f);
        if any(|v| {
            matches!(
                v,
                AdmissionVerdict::Admitted {
                    path: AdmissionPath::Repack
                }
            )
        }) {
            Class::Repack
        } else if any(|v| {
            matches!(
                v,
                AdmissionVerdict::Rejected { .. } | AdmissionVerdict::Degraded { .. }
            )
        }) {
            Class::Rejected
        } else if any(|v| matches!(v, AdmissionVerdict::Admitted { .. })) {
            Class::Incremental
        } else {
            Class::Departed
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Span name and the per-layer metric names of this class.
    fn names(self) -> (&'static str, [&'static str; 4]) {
        match self {
            Class::Incremental => (
                "admission.submit.incremental",
                [
                    "admission.submit.incremental.calls",
                    "admission.submit.incremental.busy_s",
                    "admission.submit.incremental.p50_us",
                    "admission.submit.incremental.p99_us",
                ],
            ),
            Class::Repack => (
                "admission.submit.repack",
                [
                    "admission.submit.repack.calls",
                    "admission.submit.repack.busy_s",
                    "admission.submit.repack.p50_us",
                    "admission.submit.repack.p99_us",
                ],
            ),
            Class::Rejected => (
                "admission.submit.rejected",
                [
                    "admission.submit.rejected.calls",
                    "admission.submit.rejected.busy_s",
                    "admission.submit.rejected.p50_us",
                    "admission.submit.rejected.p99_us",
                ],
            ),
            Class::Departed => (
                "admission.submit.departed",
                [
                    "admission.submit.departed.calls",
                    "admission.submit.departed.busy_s",
                    "admission.submit.departed.p50_us",
                    "admission.submit.departed.p99_us",
                ],
            ),
        }
    }

    pub fn span_name(self) -> &'static str {
        self.names().0
    }
}

/// Submit latencies per verdict class.
#[derive(Default)]
pub struct ByClass {
    hist: [Histogram; 4],
    busy: [Duration; 4],
}

impl ByClass {
    pub fn record(&mut self, class: Class, elapsed: Duration) {
        self.hist[class.index()].record_duration(elapsed);
        self.busy[class.index()] += elapsed;
    }

    /// Sets the `admission.submit.*` metrics, busy time per pass.
    pub fn report(&self, passes: f64, report: &mut Report) {
        for class in CLASSES {
            let (span, [calls, busy, p50, p99]) = class.names();
            let hist = &self.hist[class.index()];
            report.set(calls, hist.count() as f64 / passes);
            report.set(busy, self.busy[class.index()].as_secs_f64() / passes);
            report.set(p50, hist.quantile_us(0.5));
            report.set(p99, hist.quantile_us(0.99));
            report.note(format!("{span}: {}", hist.describe()));
        }
    }
}

/// Admitted share of all admit/reject/degrade verdicts.
pub fn accept_ratio(stats: &AdmissionStats) -> f64 {
    let admitted = (stats.admitted_incremental + stats.admitted_repack) as f64;
    ratio(
        admitted,
        admitted + (stats.rejected + stats.degraded) as f64,
    )
}

/// Sets the engine-counter metrics: dirty cores per incremental
/// decision, the repack and screen useful-to-attempted ratios, and the
/// rejection memo.
pub fn report_engine_counters(stats: &AdmissionStats, report: &mut Report) {
    report.set(
        "admission.dirty_cores_verified",
        ratio(
            stats.dirty_cores_verified as f64,
            stats.admitted_incremental as f64,
        ),
    );
    report.set(
        "admission.repack.success_ratio",
        ratio(stats.admitted_repack as f64, stats.repack_attempts as f64),
    );
    report.set(
        "admission.screen.hit_ratio",
        ratio(stats.capacity_rejects as f64, stats.rejected as f64),
    );
    report.set("admission.memo.hits", stats.memo_hits as f64);
    report.set("admission.memo.inserts", stats.memo_inserts as f64);
    report.set(
        "admission.memo.invalidations",
        stats.memo_invalidations as f64,
    );
    report.set(
        "admission.memo.hit_ratio",
        ratio(stats.memo_hits as f64, stats.rejected as f64),
    );
    report.note(format!(
        "admission counters: repack {}/{} admitted, screen {}/{} rejections, memo {} hits / {} inserts / {} invalidations",
        stats.admitted_repack,
        stats.repack_attempts,
        stats.capacity_rejects,
        stats.rejected,
        stats.memo_hits,
        stats.memo_inserts,
        stats.memo_invalidations
    ));
}

/// The reference decision log of each trace, from a reference-mode
/// engine.
struct Expected {
    logs: Vec<String>,
    decisions: Vec<u64>,
}

impl Expected {
    /// Decisions of `engine` (replaying trace `k`) that differ from the
    /// reference; all of them if it panicked or its final allocation
    /// fails `verify()`.
    fn failed(&self, k: usize, engine: Option<&AdmissionEngine>) -> u64 {
        let platform = Platform::platform_a();
        match engine {
            Some(e) if e.working_set().is_empty() || e.allocation().verify(&platform).is_ok() => {
                mismatched_lines(&self.logs[k], &e.log_text())
            }
            _ => self.decisions[k],
        }
    }
}

/// Replays one trace through a fresh engine in a closed loop, handing
/// each call's time to `each`. Each item is copied just before its call
/// and outside the timed region, so the engine receives a request that
/// is hot in cache, as a live controller would.
fn replay(
    config: AdmissionConfig,
    items: &[Item],
    mut each: impl FnMut(Duration),
) -> AdmissionEngine {
    let mut engine = AdmissionEngine::new(Platform::platform_a(), config);
    for item in items {
        let item = item.clone();
        let t = Instant::now();
        submit(&mut engine, item);
        each(t.elapsed());
    }
    engine
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let seeds = sub_seeds(seed, TRACES);

    // Conformance, untimed: each fast engine's log matches the
    // reference-mode engine's, and its final allocation verifies.
    let mut expected = Expected {
        logs: Vec::new(),
        decisions: Vec::new(),
    };
    let mut stats = AdmissionStats::default();
    let mut conformant = true;
    for &s in &seeds {
        let items = setup(s);
        let reference = replay(AdmissionConfig::new(s).reference_mode(), &items, |_| {});
        expected.logs.push(reference.log_text());
        expected.decisions.push(reference.decisions().len() as u64);
        let fast = guarded(|| replay(AdmissionConfig::new(s), &items, |_| {}));
        conformant &= expected.failed(expected.logs.len() - 1, fast.as_ref()) == 0;
        // The counters of the engine as configured, not of the oracle,
        // which verifies in full and keeps no memo.
        stats = stats.merged(fast.as_ref().map_or(reference.stats(), |e| e.stats()));
    }
    report.check(
        "decision log equals the reference_mode() engine's and the final allocation verifies, on every trace",
        conformant,
    );
    let ops: u64 = expected.decisions.iter().sum();

    if report.traced {
        traced(&seeds, seconds, &expected, report);
        report_engine_counters(&stats, report);
        return;
    }

    reset_peak_rss(report);
    let mut phase = Phase::new(seconds, 3);
    let (mut setup_s, mut times) = (Vec::new(), RequestTimes::default());
    while phase.next() {
        let mut set_up = Duration::ZERO;
        let mut item = 0;
        for (k, &s) in seeds.iter().enumerate() {
            let t = Instant::now();
            let items = std::hint::black_box(setup(s));
            set_up += t.elapsed();
            let engine = guarded(|| {
                replay(AdmissionConfig::new(s), &items, |elapsed| {
                    times.record(item, elapsed);
                    item += 1;
                })
            });
            report.ops(expected.decisions[k], expected.failed(k, engine.as_ref()));
        }
        setup_s.push(set_up.as_secs_f64());
    }
    let (throughput, latency) = (times.throughput(ops), times.latencies());
    let accept = accept_ratio(&stats);
    report.set("setup_s", median(&setup_s));
    report.set("throughput_per_s", throughput);
    report.set("accept_ratio", accept);
    report.set("latency_p99_us", latency.quantile_us(0.99));
    report.note(format!(
        "admit.decisions_per_s = {throughput:.1} 1/s ({ops} decisions per pass of {TRACES} traces x {REQUESTS} requests, closed loop, 1 client)"
    ));
    report.note(format!(
        "admit.latency_p50_us = {:.3} us, admit.latency_p99_us = {:.3} us, per trace item: {}",
        latency.quantile_us(0.5),
        latency.quantile_us(0.99),
        latency.describe()
    ));
    report.note(format!("admit.accept_ratio = {accept:.6} ratio (exact)"));
}

fn traced(seeds: &[u64], seconds: f64, expected: &Expected, report: &mut Report) {
    let traces: Vec<Vec<Item>> = seeds.iter().map(|&s| setup(s)).collect();

    // Each pass's time covers the replays only, not the checks.
    let mut untraced = Vec::new();
    let mut phase = Phase::new(seconds / 2.0, 1);
    while phase.next() {
        let mut wall = Duration::ZERO;
        for (k, (&s, items)) in seeds.iter().zip(&traces).enumerate() {
            let t = Instant::now();
            let engine = guarded(|| replay(AdmissionConfig::new(s), items, |_| {}));
            wall += t.elapsed();
            report.ops(expected.decisions[k], expected.failed(k, engine.as_ref()));
        }
        untraced.push(wall.as_secs_f64());
    }

    // The traced pass wraps each submit in a span named by its verdict
    // class.
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0);
    let mut by_class = ByClass::default();
    let mut traced = Vec::new();
    let mut phase = Phase::new(seconds / 2.0, 1);
    while phase.next() {
        let mut wall = Duration::ZERO;
        let mut unit = 0u64;
        for (k, (&s, items)) in seeds.iter().zip(&traces).enumerate() {
            let t = Instant::now();
            let engine = guarded(|| {
                let mut engine =
                    AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(s));
                for item in items {
                    let item = item.clone();
                    let before = engine.decisions().len();
                    let span = log.enter("admission.submit", None, unit);
                    unit += 1;
                    submit(&mut engine, item);
                    let elapsed = Duration::from_nanos(log.exit(span));
                    let class = Class::of(engine.decisions()[before..].iter().map(|d| &d.verdict));
                    log.rename(span, class.span_name());
                    by_class.record(class, elapsed);
                }
                engine
            });
            wall += t.elapsed();
            report.ops(expected.decisions[k], expected.failed(k, engine.as_ref()));
        }
        traced.push(wall.as_secs_f64());
    }
    by_class.report(traced.len() as f64, report);
    let logs = vec![log];
    crate::set_self_times(report, &logs, traced.len() as f64);
    crate::set_overhead(report, &untraced, &traced);
    report.spans = logs;
}
