//! Seeded conformance properties for the incremental schedulability
//! kernels: the k-way checkpoint merge, the reusable
//! [`AnalysisWorkspace`], and the [`MinBudgetSolver`] floor table must
//! reproduce the naive reference implementations **bit for bit** on
//! random tasksets — harmonic, non-harmonic, zero-WCET, and
//! near-incommensurate (no-hyperperiod) alike. Cases come from the
//! in-tree seeded harness (`vc2m_rng::cases`).

use vc2m_rng::{cases::check, DetRng, Rng};
use vc2m_sched::dbf::Demand;
use vc2m_sched::kernel::{analysis_horizon, AnalysisWorkspace, MAX_CHECKPOINTS};
use vc2m_sched::sbf::{min_budget, MinBudgetSolver, PeriodicResource};

/// A harmonic taskset (periods base·2^k), the regime the sweep
/// generator produces. Bases are quantized to whole nanoseconds so the
/// hyperperiod is exact.
fn arb_harmonic_demand(rng: &mut DetRng) -> Demand {
    let base = (rng.gen_range(1.0f64..50.0) * 1e6).round() / 1e6;
    let n = rng.gen_range(1usize..6);
    let tasks: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let period = base * f64::from(1u32 << rng.gen_range(0u32..4));
            (period, rng.gen_range(0.01f64..0.24) * period)
        })
        .collect();
    Demand::new(tasks).expect("valid demand")
}

/// An unconstrained taskset: independent ns-quantized periods, and
/// roughly one task in five carries a zero WCET (contributing no
/// checkpoints — the kernels must skip it exactly like the reference).
fn arb_general_demand(rng: &mut DetRng) -> Demand {
    let n = rng.gen_range(1usize..7);
    let tasks: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let period = (rng.gen_range(0.5f64..80.0) * 1e6).round() / 1e6;
            let wcet = if rng.gen_range(0u32..5) == 0 {
                0.0
            } else {
                rng.gen_range(0.01f64..0.2) * period
            };
            (period, wcet)
        })
        .collect();
    Demand::new(tasks).expect("valid demand")
}

/// Near-incommensurate periods: a handful of milliseconds apart on the
/// nanosecond grid, so pairwise LCMs usually overflow the 1e12 ns
/// hyperperiod bound and the analysis walks the bounded fallback
/// horizon — the densest checkpoint regime.
fn arb_incommensurate_demand(rng: &mut DetRng) -> Demand {
    let n = rng.gen_range(2usize..5);
    let tasks: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let period = 7.0 + f64::from(rng.gen_range(0u32..4_000_000)) * 1e-6;
            (period, rng.gen_range(0.05f64..0.2) * period)
        })
        .collect();
    Demand::new(tasks).expect("valid demand")
}

/// Draws from all three regimes.
fn arb_any_demand(rng: &mut DetRng) -> Demand {
    match rng.gen_range(0u32..3) {
        0 => arb_harmonic_demand(rng),
        1 => arb_general_demand(rng),
        _ => arb_incommensurate_demand(rng),
    }
}

/// The historical checkpoint enumeration, written out naively:
/// per-task deadline multiples by running addition (the same float
/// progression the merge cursors follow), capped at `max_points`
/// multiples per task, then collect–sort–dedup–truncate. This is the
/// specification `Demand::checkpoints` documents — earliest points
/// survive both caps.
fn reference_checkpoints(demand: &Demand, horizon: f64, max_points: usize) -> Vec<f64> {
    let mut all = Vec::new();
    for (period, wcet) in demand.pairs() {
        if wcet == 0.0 {
            continue;
        }
        let mut t = period;
        let mut multiples = 0usize;
        while t <= horizon + 1e-9 && multiples < max_points {
            all.push(t);
            multiples += 1;
            t += period;
        }
    }
    all.sort_by(|a, b| a.partial_cmp(b).expect("checkpoints are finite"));
    all.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    all.truncate(max_points);
    all
}

fn bits(points: &[f64]) -> Vec<u64> {
    points.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn merged_checkpoint_stream_matches_sorted_dedup_reference() {
    check(192, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let horizon = analysis_horizon(&demand, period);
        // Mostly the production cap; sometimes a tiny one, so the
        // truncation path (keep the earliest points) is pinned too.
        let max_points = if rng.gen_range(0u32..4) == 0 {
            rng.gen_range(1usize..40)
        } else {
            MAX_CHECKPOINTS
        };
        let merged = demand.checkpoints(horizon, max_points);
        let reference = reference_checkpoints(&demand, horizon, max_points);
        assert_eq!(
            bits(&merged),
            bits(&reference),
            "merge diverged for tasks {:?} (horizon {horizon}, cap {max_points})",
            demand.pairs().collect::<Vec<_>>(),
        );
    });
}

#[test]
fn workspace_can_schedule_matches_reference_verdict() {
    // One workspace across all cases: reuse (stale buffers from the
    // previous case) is exactly what must not leak into verdicts.
    let workspace = std::cell::RefCell::new(AnalysisWorkspace::new());
    check(192, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let resource = PeriodicResource::new(period, rng.gen_range(0.0f64..=1.0) * period);
        // The workspace streams demand values point by point; the
        // reference materializes the checkpoint vector. Same booleans,
        // for every demand regime and both verdicts.
        assert_eq!(
            workspace.borrow_mut().can_schedule(&resource, &demand),
            resource.can_schedule(&demand),
            "verdict diverged for tasks {:?} against {resource:?}",
            demand.pairs().collect::<Vec<_>>(),
        );
    });
}

#[test]
fn workspace_min_budget_matches_fresh_demand_bitwise() {
    let workspace = std::cell::RefCell::new(AnalysisWorkspace::new());
    check(192, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let reference = min_budget(&demand, period);
        let incremental = workspace.borrow_mut().min_budget(&demand, period);
        assert_eq!(
            incremental.map(f64::to_bits),
            reference.map(f64::to_bits),
            "budget diverged for tasks {:?} at period {period}: {incremental:?} vs {reference:?}",
            demand.pairs().collect::<Vec<_>>(),
        );
    });
}

#[test]
fn solver_floor_table_matches_fresh_demand_bitwise() {
    check(128, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let solver = MinBudgetSolver::new(demand.periods(), period);
        // Zero-WCET draws exercise the solver's fallback route; all-
        // positive draws its floor-table fast path. Both must land on
        // the reference bit pattern.
        assert_eq!(
            solver.min_budget(demand.wcets()).map(f64::to_bits),
            min_budget(&demand, period).map(f64::to_bits),
            "solver diverged for tasks {:?} at period {period}",
            demand.pairs().collect::<Vec<_>>(),
        );
    });
}

#[test]
fn batched_dbf_matches_per_point_reference_bitwise() {
    // The batched task-major pass must reproduce the per-point `dbf`
    // fold bit for bit on every demand regime — harmonic,
    // incommensurate, and draws containing zero-WCET tasks.
    let out = std::cell::RefCell::new(Vec::new());
    check(192, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let horizon = analysis_horizon(&demand, period);
        let points = demand.checkpoints(horizon, 512);
        let mut out = out.borrow_mut();
        demand.dbf_many(&points, &mut out);
        assert_eq!(out.len(), points.len());
        for (&t, &batched) in points.iter().zip(out.iter()) {
            assert_eq!(
                batched.to_bits(),
                demand.dbf(t).to_bits(),
                "dbf_many diverged at t={t} for tasks {:?}",
                demand.pairs().collect::<Vec<_>>(),
            );
        }
    });
}

#[test]
fn streaming_demand_equals_naive_dbf_at_every_checkpoint() {
    check(128, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let horizon = analysis_horizon(&demand, period);
        // The kernels evaluate per-point demand through the same
        // task-order expression as `dbf`; job-counter shortcuts would
        // drift. Pin dbf's own identity on the merged stream: each
        // point's demand equals the naive per-task floor sum.
        for t in demand.checkpoints(horizon, 512) {
            let naive: f64 = demand
                .pairs()
                .map(|(p, e)| ((t / p) + 1e-9).floor() * e)
                .sum();
            assert_eq!(demand.dbf(t).to_bits(), naive.to_bits());
        }
    });
}
