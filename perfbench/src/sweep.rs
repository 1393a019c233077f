//! `sweep-paper`: Fig. 2(a) at paper scale on platform A.
//!
//! The analysis stack (taskset generation, `sched` kernels, `analysis`
//! VCPU interfaces, `alloc` heuristic) does all the work; admission,
//! fleet and simulator do none. The untraced run drives
//! `run_sweep_parallel` at two threads. The traced run re-enacts the
//! same sweep from outside, one span per layer call, and is checked
//! against the serial sweep like every timed pass.

use crate::report::{guarded, median, ratio, reset_peak_rss, Phase, Report, RequestTimes};
use crate::spans::{self, SpanLog};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use vc2m::alloc::hypervisor_level::{evenly_partitioned, heuristic, HeuristicConfig};
use vc2m::alloc::AllocError;
use vc2m::analysis::KernelCounters;
use vc2m::prelude::*;
use vc2m::rng::DetRng;
use vc2m::sweep::{run_sweep, run_sweep_parallel};

pub const THREADS: usize = 2;
/// Rounds of configuration builds timed for `setup_s`, and builds per
/// round.
const SETUP_ROUNDS: usize = 51;
const SETUP_BUILDS: usize = 200;

fn config(seed: u64) -> SweepConfig {
    SweepConfig::paper(Platform::platform_a(), UtilizationDist::Uniform).with_seed(seed)
}

/// (taskset, solution) analyses in one sweep.
fn analyses(config: &SweepConfig) -> u64 {
    (config.total_units() * config.solutions.len()) as u64
}

/// Schedulable tasksets per (point, solution), the sweep's exact output.
type Counts = Vec<Vec<usize>>;

fn counts(results: &SweepResults) -> Counts {
    (0..results.rows().len())
        .map(|row| {
            results
                .solutions()
                .iter()
                .map(|&s| results.cell(row, s).schedulable)
                .collect()
        })
        .collect()
}

/// Analyses whose cell disagrees with the reference: every analysis of
/// a (point, solution) cell whose schedulable count differs.
fn failed_analyses(config: &SweepConfig, expected: &Counts, actual: &Counts) -> u64 {
    let per_cell = config.tasksets_per_point as u64;
    let cells = expected.iter().flatten().count() as u64;
    let differing = expected
        .iter()
        .flatten()
        .zip(actual.iter().flatten())
        .filter(|(e, a)| e != a)
        .count() as u64;
    (differing + cells.abs_diff(actual.iter().flatten().count() as u64)) * per_cell
}

/// Mean schedulable fraction of Heuristic (flattening) over all points.
fn flattening_fraction(config: &SweepConfig, counts: &Counts) -> f64 {
    let column = config
        .solutions
        .iter()
        .position(|&s| s == Solution::HeuristicFlattening)
        .expect("the paper preset includes flattening");
    let per_point = config.tasksets_per_point as f64;
    ratio(
        counts
            .iter()
            .map(|row| row[column] as f64 / per_point)
            .sum(),
        counts.len() as f64,
    )
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    // Building the configuration is the whole set-up, tens of
    // nanoseconds, finer than the clock resolves. Each round times a
    // batch of builds kept until the round ends, so they land at many
    // addresses and no single address layout decides the figure. The
    // batch stays below the size at which the allocator returns freed
    // memory to the system, and an untimed first round maps that
    // memory, so no round pays page faults. All rounds run first,
    // before any other work shapes the heap.
    let build_round = || {
        let mut built = Vec::with_capacity(SETUP_BUILDS);
        let t = Instant::now();
        for _ in 0..SETUP_BUILDS {
            built.push(config(seed));
        }
        let per_build = t.elapsed().as_secs_f64() / SETUP_BUILDS as f64;
        std::hint::black_box(built);
        per_build
    };
    build_round();
    let setup: Vec<f64> = (0..SETUP_ROUNDS).map(|_| build_round()).collect();

    // Conformance, untimed: the parallel sweep reproduces the serial one.
    let reference = config(seed);
    let ops = analyses(&reference);
    let serial = run_sweep(&reference);
    let expected = counts(&serial);
    let parallel = guarded(|| run_sweep_parallel(&reference, THREADS, |_, _| {}));
    let parallel_ok = parallel
        .as_ref()
        .is_some_and(|r| r.fractions_csv() == serial.fractions_csv());
    report.check(
        "run_sweep_parallel(2) fractions CSV equals serial run_sweep",
        parallel_ok,
    );
    let fraction = flattening_fraction(&reference, &expected);

    if report.traced {
        traced(seed, seconds, &serial, report);
    } else {
        reset_peak_rss(report);
        let mut phase = Phase::new(seconds, 3);
        let mut times = RequestTimes::default();
        while phase.next() {
            let t = Instant::now();
            let results = guarded(|| run_sweep_parallel(&reference, THREADS, |_, _| {}));
            let elapsed = t.elapsed();
            let failed = results
                .as_ref()
                .map_or(ops, |r| failed_analyses(&reference, &expected, &counts(r)));
            report.ops(ops, failed);
            times.record(0, elapsed);
        }
        let (throughput, latency) = (times.throughput(ops), times.latencies());
        report.set("setup_s", median(&setup));
        report.set("throughput_per_s", throughput);
        report.set("accept_ratio", fraction);
        report.set("latency_p99_us", latency.quantile_us(0.99));
        report.note(format!(
            "sweep.analyses_per_s = {throughput:.1} 1/s ({ops} analyses per sweep, {THREADS} threads)"
        ));
        report.note(format!(
            "sweep.sched_fraction = {fraction:.6} ratio (exact)"
        ));
        report.note(format!(
            "sweep latency per whole sweep: {}",
            latency.describe()
        ));
    }
}

/// One traced re-enactment of the sweep.
struct TracedPass {
    counts: Counts,
    logs: Vec<SpanLog>,
    cache: CacheStats,
    kernel: KernelCounters,
    /// Analyses that failed structurally (the sweep itself panics).
    structural_failures: u64,
}

fn traced(seed: u64, seconds: f64, serial: &SweepResults, report: &mut Report) {
    let config = config(seed);
    let ops = analyses(&config);
    let expected = &counts(serial);

    let mut untraced = Vec::new();
    let mut phase = Phase::new(seconds / 2.0, 2);
    while phase.next() {
        let t = Instant::now();
        let results = guarded(|| run_sweep_parallel(&config, THREADS, |_, _| {}));
        untraced.push(t.elapsed().as_secs_f64());
        let failed = results
            .as_ref()
            .map_or(ops, |r| failed_analyses(&config, expected, &counts(r)));
        report.ops(ops, failed);
    }

    let epoch = Instant::now();
    let mut traced = Vec::new();
    let mut passes: Vec<TracedPass> = Vec::new();
    let mut phase = Phase::new(seconds / 2.0, 2);
    while phase.next() {
        let t = Instant::now();
        let pass = guarded(|| traced_pass(&config, epoch));
        traced.push(t.elapsed().as_secs_f64());
        match pass {
            Some(pass) => {
                let failed =
                    failed_analyses(&config, expected, &pass.counts) + pass.structural_failures;
                report.ops(ops, failed);
                passes.push(pass);
            }
            None => report.ops(ops, ops),
        }
    }

    let n = passes.len().max(1) as f64;
    let logs: Vec<SpanLog> = passes.iter().flat_map(|p| p.logs.iter().cloned()).collect();
    let totals = spans::totals_by_name(&logs);
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.busy_ns as f64 / 1e9) / n;
    let calls = |name: &str| totals.get(name).map_or(0.0, |t| t.calls as f64) / n;
    for (span, busy_metric, calls_metric) in LAYER_CALLS {
        report.set(busy_metric, busy(span));
        report.set(calls_metric, calls(span));
    }
    report.set("alloc.evenly.busy_s", busy("alloc.evenly"));

    // The re-enactment must do the sweep's work exactly: same kernel
    // calls, same cache lookups.
    report.check(
        "traced re-enactment has the serial sweep's kernel and cache counters",
        passes
            .iter()
            .all(|p| p.kernel == serial.kernel_stats() && p.cache == serial.cache_stats()),
    );
    let mut cache = CacheStats::default();
    let mut kernel = KernelCounters::new();
    for pass in &passes {
        cache.merge(pass.cache);
        kernel.merge(&pass.kernel);
    }
    report.set("sched.min_budget_calls", kernel.min_budget_calls as f64 / n);
    report.set(
        "sched.can_schedule_calls",
        kernel.can_schedule_calls as f64 / n,
    );
    report.set("sched.solver_calls", kernel.solver_calls as f64 / n);
    report.set(
        "sched.checkpoint_merges",
        kernel.checkpoint_merges as f64 / n,
    );
    report.set(
        "sched.checkpoints_emitted",
        kernel.checkpoints_emitted as f64 / n,
    );
    report.set("analysis.cache.lookups", cache.lookups() as f64 / n);
    report.set("analysis.cache.hit_ratio", cache.hit_rate());
    crate::set_self_times(report, &logs, n);
    crate::set_overhead(report, &untraced, &traced);
    report.note(format!(
        "traced sweep: {} untraced run_sweep_parallel passes (median {:.3} s), {} traced passes (median {:.3} s), {THREADS} threads",
        untraced.len(),
        median(&untraced),
        traced.len(),
        median(&traced)
    ));
    report.spans = logs;
}

/// Span name, busy-time metric and call-count metric of each layer call
/// the traced sweep times.
const LAYER_CALLS: [(&str, &str, &str); 7] = [
    (
        "workload.generate",
        "workload.generate.busy_s",
        "workload.generate.calls",
    ),
    (
        "analysis.vm_level.flattening",
        "analysis.vm_level.flattening.busy_s",
        "analysis.vm_level.flattening.calls",
    ),
    (
        "analysis.vm_level.overhead_free",
        "analysis.vm_level.overhead_free.busy_s",
        "analysis.vm_level.overhead_free.calls",
    ),
    (
        "analysis.vm_level.existing",
        "analysis.vm_level.existing.busy_s",
        "analysis.vm_level.existing.calls",
    ),
    (
        "analysis.vm_level.evenly",
        "analysis.vm_level.evenly.busy_s",
        "analysis.vm_level.evenly.calls",
    ),
    (
        "analysis.vm_level.baseline",
        "analysis.vm_level.baseline.busy_s",
        "analysis.vm_level.baseline.calls",
    ),
    (
        "alloc.heuristic",
        "alloc.heuristic.busy_s",
        "alloc.heuristic.calls",
    ),
];

fn vm_level_span(solution: Solution) -> &'static str {
    match solution {
        Solution::HeuristicFlattening => "analysis.vm_level.flattening",
        Solution::HeuristicOverheadFree => "analysis.vm_level.overhead_free",
        Solution::HeuristicExisting => "analysis.vm_level.existing",
        Solution::EvenlyPartition => "analysis.vm_level.evenly",
        Solution::Baseline => "analysis.vm_level.baseline",
        Solution::Auto => "analysis.vm_level.auto",
    }
}

/// The per-taskset seed `run_sweep` derives for `(point, repetition)`.
fn unit_seed(base_seed: u64, point: usize, rep: usize) -> u64 {
    base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((point as u64) << 32)
        .wrapping_add(rep as u64)
}

/// Re-enacts `run_sweep_parallel`: points are claimed from one atomic
/// counter by [`THREADS`] workers, each with its own analysis cache
/// reset per point, and every layer call runs inside a span.
fn traced_pass(config: &SweepConfig, epoch: Instant) -> TracedPass {
    let next = AtomicUsize::new(0);
    let workers: Vec<TracedPass> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let next = &next;
                scope.spawn(move || traced_worker(config, next, epoch, thread))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced sweep worker panicked"))
            .collect()
    });
    let mut merged = TracedPass {
        counts: vec![Vec::new(); config.utilizations.len()],
        logs: Vec::new(),
        cache: CacheStats::default(),
        kernel: KernelCounters::new(),
        structural_failures: 0,
    };
    for worker in workers {
        for (point, row) in worker.counts.into_iter().enumerate() {
            if !row.is_empty() {
                merged.counts[point] = row;
            }
        }
        merged.logs.extend(worker.logs);
        merged.cache.merge(worker.cache);
        merged.kernel.merge(&worker.kernel);
        merged.structural_failures += worker.structural_failures;
    }
    merged
}

fn traced_worker(
    config: &SweepConfig,
    next: &AtomicUsize,
    epoch: Instant,
    thread: usize,
) -> TracedPass {
    let points = config.utilizations.len();
    let mut out = TracedPass {
        counts: vec![Vec::new(); points],
        logs: Vec::new(),
        cache: CacheStats::default(),
        kernel: KernelCounters::new(),
        structural_failures: 0,
    };
    let mut log = SpanLog::new(epoch, thread);
    let mut cache = AnalysisCache::enabled();
    loop {
        let point = next.fetch_add(1, Ordering::Relaxed);
        if point >= points {
            break;
        }
        cache.reset();
        let kernel_before = vc2m::sched::kernel::counters();
        let mut row = vec![0usize; config.solutions.len()];
        let utilization = config.utilizations[point];
        for rep in 0..config.tasksets_per_point {
            let seed = unit_seed(config.base_seed, point, rep);
            let unit = (point * config.tasksets_per_point + rep) as u64;
            let root = log.enter("sweep.taskset", None, unit);
            let tasks = log.scoped("workload.generate", Some(root), unit, || {
                TasksetGenerator::new(
                    config.platform.resources(),
                    TasksetConfig::new(utilization, config.distribution),
                    seed,
                )
                .generate()
            });
            let vms = vec![VmSpec::new(VmId(0), tasks).expect("generated taskset is non-empty")];
            for (cell, &solution) in row.iter_mut().zip(&config.solutions) {
                let solve = log.enter("alloc.solution", Some(root), unit);
                let mut rng = DetRng::seed_from_u64(seed);
                let vcpus = log.scoped(vm_level_span(solution), Some(solve), unit, || {
                    solution.vm_level_with_cache(&vms, &config.platform, &cache, &mut rng)
                });
                let schedulable = match vcpus {
                    Ok(vcpus) if solution.uses_heuristic_allocation() => log
                        .scoped("alloc.heuristic", Some(solve), unit, || {
                            heuristic(
                                vcpus,
                                &config.platform,
                                HeuristicConfig::default(),
                                &mut rng,
                            )
                        })
                        .is_schedulable(),
                    Ok(vcpus) => log
                        .scoped("alloc.evenly", Some(solve), unit, || {
                            evenly_partitioned(vcpus, &config.platform)
                        })
                        .is_schedulable(),
                    Err(AllocError::Analysis(_)) => false,
                    Err(_) => {
                        out.structural_failures += 1;
                        false
                    }
                };
                log.exit(solve);
                *cell += usize::from(schedulable);
            }
            log.exit(root);
        }
        out.cache.merge(cache.stats());
        out.kernel
            .merge(&vc2m::sched::kernel::counters().since(&kernel_before));
        out.counts[point] = row;
    }
    out.logs.push(log);
    out
}
