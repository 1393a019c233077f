//! Schedulability-kernel microbenchmarks: the naive allocating kernels
//! (fresh checkpoint/demand vectors per call) against the incremental
//! ones (SoA merge sweep + reusable [`AnalysisWorkspace`], the
//! [`MinBudgetSolver`] floor table), the batched whole-checkpoint
//! dbf pass against its scalar per-point loop, plus the
//! end-to-end serial uncached sweep those kernels drive.
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin kernel_bench            # quick preset
//! cargo run --release -p vc2m-bench --bin kernel_bench -- --full  # more iterations
//! ```
//!
//! Every naive/incremental pair is checked **bit-for-bit equal** before
//! timing — the run aborts on any divergence, so the speedups compare
//! provably identical computations. Results land in
//! `results/BENCH_kernels.json`: per-kernel min/avg/max timings, the
//! per-pair speedups with their geometric mean as the headline, the
//! end-to-end sweep wall time, and the kernel telemetry counters
//! accumulated over the whole run.

use vc2m::analysis::existing::{existing_vcpu, existing_vcpu_reference};
use vc2m::model::{Task, TaskId, TaskSet, VcpuId, VcpuSpec, VmId, WcetSurface};
use vc2m::prelude::*;
use vc2m::sched::dbf::Demand;
use vc2m::sched::kernel::{self, AnalysisWorkspace};
use vc2m::sched::sbf::{min_budget, PeriodicResource};
use vc2m::sweep::run_sweep;
use vc2m_bench::timing::{self, json_array, metrics_json, JsonBuilder, Measurement};
use vc2m_bench::{full_scale_requested, write_results};

/// One demand workload the kernel pairs are exercised on.
struct Workload {
    name: &'static str,
    /// `(period, wcet)` pairs, in milliseconds.
    tasks: &'static [(f64, f64)],
    /// The candidate resource period Π for the budget search.
    period: f64,
}

const WORKLOADS: &[Workload] = &[
    // Harmonic periods: small hyperperiod, few checkpoints — the
    // regime Theorem 2 targets and the sweep generator produces.
    Workload {
        name: "harmonic-8",
        tasks: &[
            (5.0, 0.5),
            (10.0, 1.0),
            (10.0, 0.8),
            (20.0, 2.0),
            (20.0, 1.5),
            (40.0, 3.0),
            (40.0, 2.5),
            (80.0, 4.0),
        ],
        period: 5.0,
    },
    Workload {
        name: "harmonic-16",
        tasks: &[
            (5.0, 0.2),
            (5.0, 0.25),
            (10.0, 0.4),
            (10.0, 0.5),
            (20.0, 0.8),
            (20.0, 1.0),
            (40.0, 1.6),
            (40.0, 2.0),
            (80.0, 3.2),
            (80.0, 4.0),
            (160.0, 6.4),
            (160.0, 8.0),
            (320.0, 12.8),
            (320.0, 16.0),
            (640.0, 25.6),
            (640.0, 32.0),
        ],
        period: 5.0,
    },
    // Near-incommensurate periods at the nanosecond grid: the pairwise
    // LCM overflows the 1e12 ns bound, so no hyperperiod exists and
    // the analysis walks the bounded fallback horizon (~2 400 merged
    // checkpoints) — the worst case for the collect-sort path.
    Workload {
        name: "incommensurate-3",
        tasks: &[(9.999991, 1.0), (10.000019, 1.5), (7.000003, 0.7)],
        period: 10.0,
    },
];

/// Asserts two optional budgets are the same f64 bit pattern.
fn assert_bits(kernel: &str, workload: &str, fast: Option<f64>, reference: Option<f64>) {
    assert_eq!(
        fast.map(f64::to_bits),
        reference.map(f64::to_bits),
        "{kernel} diverged from the reference on {workload}: {fast:?} vs {reference:?}"
    );
}

/// Asserts two VCPU interfaces agree bit-for-bit: period and every
/// budget-surface cell.
fn assert_vcpus_identical(fast: &VcpuSpec, reference: &VcpuSpec) {
    assert_eq!(fast.period().to_bits(), reference.period().to_bits());
    for alloc in fast.budget_surface().space().iter() {
        assert_eq!(
            fast.budget(alloc).to_bits(),
            reference.budget(alloc).to_bits(),
            "budget surfaces diverged at {alloc:?}"
        );
    }
}

/// A timed naive/incremental pair and its speedup on the fastest
/// iteration — the deterministic kernels make min the noise-robust
/// estimator (scheduler jitter only ever inflates a sample), matching
/// the best-of-N convention of `sweep_scaling`.
struct Pair {
    naive: Measurement,
    incremental: Measurement,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.naive.min_us() / self.incremental.min_us()
    }

    fn json(&self) -> String {
        JsonBuilder::new()
            .raw("naive", self.naive.json())
            .raw("incremental", self.incremental.json())
            .num("speedup", self.speedup())
            .build()
    }
}

fn main() {
    let iters: u64 = if full_scale_requested() { 20_000 } else { 4_000 };
    let surface_iters = iters / 100;
    let sweep_iters = if full_scale_requested() { 5 } else { 3 };
    let kernel_before = kernel::counters();
    let mut workspace = AnalysisWorkspace::new();
    let mut pairs: Vec<(String, Pair)> = Vec::new();

    println!("kernel microbench ({} iters per kernel)\n", iters);
    for w in WORKLOADS {
        let demand = Demand::new(w.tasks.to_vec()).expect("workload parameters are valid");
        // Conformance first: the incremental kernels must reproduce
        // the reference bit patterns before their timings mean
        // anything.
        let reference_budget = min_budget(&demand, w.period);
        assert_bits(
            "workspace min_budget",
            w.name,
            workspace.min_budget(&demand, w.period),
            reference_budget,
        );
        let budget = reference_budget.expect("workloads are feasible");
        // A resource that can schedule the demand with ~5% headroom
        // and one that cannot: both branches of the early-abort sweep.
        let fits = PeriodicResource::new(w.period, (budget * 1.05).min(w.period));
        let starves = PeriodicResource::new(w.period, budget * 0.5);
        for resource in [&fits, &starves] {
            assert_eq!(
                workspace.can_schedule(resource, &demand),
                resource.can_schedule(&demand),
                "workspace can_schedule diverged on {} (budget {})",
                w.name,
                resource.budget(),
            );
        }

        let naive = timing::run(&format!("min_budget naive [{}]", w.name), iters, || {
            min_budget(&demand, w.period)
        });
        let incremental = timing::run(&format!("min_budget workspace [{}]", w.name), iters, || {
            workspace.min_budget(&demand, w.period)
        });
        pairs.push((format!("min_budget/{}", w.name), Pair { naive, incremental }));

        let naive = timing::run(&format!("can_schedule naive [{}]", w.name), iters, || {
            fits.can_schedule(&demand)
        });
        let incremental = timing::run(
            &format!("can_schedule workspace [{}]", w.name),
            iters,
            || workspace.can_schedule(&fits, &demand),
        );
        pairs.push((format!("can_schedule/{}", w.name), Pair { naive, incremental }));

        // Batched checkpoint pass: the whole checkpoint vector in one
        // task-major dbf sweep, against the historical
        // one-scalar-call-per-point loop. The checkpoint stream is
        // precomputed outside the timed region — both arms pay only
        // for demand evaluation.
        let horizon = kernel::analysis_horizon(&demand, w.period);
        let points = demand.checkpoints(horizon, kernel::MAX_CHECKPOINTS);
        let mut batched = Vec::new();
        demand.dbf_many(&points, &mut batched);
        for (&t, &b) in points.iter().zip(batched.iter()) {
            assert_eq!(
                b.to_bits(),
                demand.dbf(t).to_bits(),
                "dbf_many diverged from dbf at t={t} on {}",
                w.name,
            );
        }
        let mut scratch = Vec::with_capacity(points.len());
        let naive = timing::run(&format!("dbf per-point [{}]", w.name), iters, || {
            scratch.clear();
            scratch.extend(points.iter().map(|&t| demand.dbf(t)));
            std::hint::black_box(scratch.last().copied())
        });
        let mut scratch = Vec::with_capacity(points.len());
        let incremental = timing::run(&format!("dbf_many batched [{}]", w.name), iters, || {
            demand.dbf_many(&points, &mut scratch);
            std::hint::black_box(scratch.last().copied())
        });
        pairs.push((format!("dbf_many/{}", w.name), Pair { naive, incremental }));
    }

    // The repeated-probe call site the solver's floor table serves:
    // one whole VCPU budget surface (one min-budget search per cell)
    // under the existing CSA, naive fresh-`Demand`-per-cell vs the
    // shared-checkpoint solver.
    let platform = Platform::platform_a();
    let space = platform.resources();
    let taskset: TaskSet = WORKLOADS[0]
        .tasks
        .iter()
        .enumerate()
        .map(|(i, &(period, wcet))| {
            // Allocation-dependent WCETs so every surface cell runs a
            // distinct budget search (flat surfaces would be atypically
            // kind to the naive arm's branch predictor).
            let surface = WcetSurface::from_fn(&space, |a| {
                wcet * (1.0 + 1.0 / f64::from(a.cache + a.bandwidth))
            })
            .expect("wcets fit their periods");
            Task::new(TaskId(i), period, surface).expect("workload parameters are valid")
        })
        .collect();
    let fast = existing_vcpu(VcpuId(0), VmId(0), &taskset).expect("taskset is analyzable");
    let reference =
        existing_vcpu_reference(VcpuId(0), VmId(0), &taskset).expect("taskset is analyzable");
    assert_vcpus_identical(&fast, &reference);
    let naive = timing::run("vcpu surface naive per-cell", surface_iters.max(1), || {
        existing_vcpu_reference(VcpuId(0), VmId(0), &taskset)
    });
    let incremental = timing::run("vcpu surface solver", surface_iters.max(1), || {
        existing_vcpu(VcpuId(0), VmId(0), &taskset)
    });
    pairs.push(("vcpu_surface/harmonic-8".into(), Pair { naive, incremental }));

    // End-to-end: the serial, cache-disabled quick sweep — every
    // budget search hits the kernels directly, so this wall time is
    // the macro view of the same optimization (BENCH_sweep.json tracks
    // it across the cache/parallel variants).
    let config = SweepConfig::quick(platform, UtilizationDist::Uniform).with_cache(false);
    let sweep = timing::run("sweep serial uncached (quick)", sweep_iters, || {
        run_sweep(&config)
    });

    let headline =
        (pairs.iter().map(|(_, p)| p.speedup().ln()).sum::<f64>() / pairs.len() as f64).exp();
    println!("\nheadline: geomean incremental speedup {headline:.2}x over naive kernels");

    let kernel_delta = kernel::counters().since(&kernel_before);
    let mut metrics = vc2m::simcore::MetricsRegistry::new();
    vc2m::analysis::export_kernel_metrics(&kernel_delta, &mut metrics);

    let json = JsonBuilder::new()
        .str("bench", "kernel_bench")
        .str("scale", if full_scale_requested() { "full" } else { "quick" })
        .int("iters", pairs[0].1.naive.iters())
        .int(
            "host_cpus",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .bool("conformant", true)
        .num("speedup_geomean", headline)
        .raw(
            "kernels",
            json_array(pairs.iter().map(|(name, pair)| {
                JsonBuilder::new()
                    .str("name", name)
                    .raw("pair", pair.json())
                    .build()
            })),
        )
        .raw("sweep_end_to_end", sweep.json())
        .raw("kernel_counters", metrics_json(&metrics))
        .build();
    let path = write_results("BENCH_kernels.json", &json);
    println!("wrote {}", path.display());
}
