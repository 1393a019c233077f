//! Periodic resource model: supply bound function and minimal budgets.
//!
//! This module implements the "existing compositional scheduling
//! analysis" the paper uses as its baseline (reference \[13\]: Shin &
//! Lee, *Periodic Resource Model for Compositional Real-Time
//! Guarantees*, RTSS 2003).
//!
//! A periodic resource Γ = (Π, Θ) supplies Θ units of execution every
//! period Π, in the worst case as late as possible. Its supply bound
//! function — the minimum supply in any window of length `t` — is
//!
//! ```text
//! sbf(t) = 0                                        if t ≤ Π − Θ
//!        = k·Θ + max(0, t' − k·Π − (Π − Θ))         otherwise,
//!   where t' = t − (Π − Θ), k = ⌊t' / Π⌋
//! ```
//!
//! A taskset with demand `dbf` is EDF-schedulable on Γ iff
//! `dbf(t) ≤ sbf(t)` at every checkpoint `t`. [`min_budget`] inverts
//! this: the smallest Θ making a given demand schedulable on a
//! period-Π resource — the quantity whose inflation over the taskset
//! utilization is the *abstraction overhead* vC²M eliminates.

use crate::dbf::Demand;
use crate::kernel::analysis_horizon;

/// A periodic resource Γ = (Π, Θ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicResource {
    period: f64,
    budget: f64,
}

impl PeriodicResource {
    /// Creates a periodic resource with the given period and budget
    /// (milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive and finite, or the budget
    /// is negative, non-finite, or exceeds the period.
    pub fn new(period: f64, budget: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "resource period must be positive and finite, got {period}"
        );
        assert!(
            budget.is_finite() && (0.0..=period).contains(&budget),
            "resource budget must lie in [0, period], got {budget} (period {period})"
        );
        PeriodicResource { period, budget }
    }

    /// The resource period Π.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The resource budget Θ.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The resource bandwidth Θ/Π.
    pub fn bandwidth(&self) -> f64 {
        self.budget / self.period
    }

    /// Evaluates the supply bound function at `t`.
    pub fn sbf(&self, t: f64) -> f64 {
        let blackout = self.period - self.budget;
        if t <= blackout || self.budget == 0.0 {
            return 0.0;
        }
        let t_eff = t - blackout;
        let k = (t_eff / self.period + 1e-12).floor();
        let supplied = k * self.budget;
        let partial = (t_eff - k * self.period - blackout).max(0.0);
        supplied + partial.min(self.budget)
    }

    /// The linear lower bound on the supply:
    /// `lsbf(t) = (Θ/Π)·(t − 2(Π − Θ))`, clamped at zero. Useful for
    /// quick infeasibility screening.
    pub fn lsbf(&self, t: f64) -> f64 {
        (self.bandwidth() * (t - 2.0 * (self.period - self.budget))).max(0.0)
    }

    /// Whether `demand` is EDF-schedulable on this resource.
    ///
    /// Checks `dbf(t) ≤ sbf(t)` at every deadline checkpoint up to the
    /// demand's hyperperiod (or a capped horizon if the hyperperiod is
    /// unavailable), plus the long-run bandwidth condition
    /// `U ≤ Θ/Π`, which extends the checkpoint argument beyond the
    /// horizon when the resource period divides the hyperperiod (true
    /// for the harmonic workloads of the paper, where Π is chosen as
    /// the minimum task period).
    pub fn can_schedule(&self, demand: &Demand) -> bool {
        if demand.utilization() > self.bandwidth() + 1e-12 {
            return false;
        }
        let horizon = analysis_horizon(demand, self.period);
        for t in demand.checkpoints(horizon, crate::kernel::MAX_CHECKPOINTS) {
            if demand.dbf(t) > self.sbf(t) + 1e-9 {
                return false;
            }
        }
        true
    }
}

/// Computes the minimal budget Θ such that `demand` is
/// EDF-schedulable on a periodic resource with period `period`.
///
/// Returns `None` if even Θ = Π (a dedicated processor) cannot
/// schedule the demand.
///
/// The feasible set of budgets is upward-closed (more supply never
/// hurts), so a binary search on the schedulability predicate is exact
/// up to the `1e-7` ms tolerance used here.
///
/// # Panics
///
/// Panics if `period` is not positive and finite.
pub fn min_budget(demand: &Demand, period: f64) -> Option<f64> {
    assert!(
        period.is_finite() && period > 0.0,
        "resource period must be positive and finite, got {period}"
    );
    if demand.wcets().iter().all(|&e| e == 0.0) {
        return Some(0.0);
    }
    // Precompute the checkpoints and the demand at each one — they do
    // not depend on the candidate budget, and the binary search below
    // evaluates the predicate dozens of times.
    let horizon = analysis_horizon(demand, period);
    let points = demand.checkpoints(horizon, crate::kernel::MAX_CHECKPOINTS);
    let demands: Vec<f64> = points.iter().map(|&t| demand.dbf(t)).collect();
    let feasible = |theta: f64| {
        if demand.utilization() > theta / period + 1e-12 {
            return false;
        }
        let resource = PeriodicResource::new(period, theta);
        points
            .iter()
            .zip(&demands)
            .all(|(&t, &d)| d <= resource.sbf(t) + 1e-9)
    };
    if !feasible(period) {
        return None;
    }
    // Lower bound: bandwidth at least the utilization.
    let mut lo = (demand.utilization() * period).min(period);
    if feasible(lo) {
        return Some(lo);
    }
    let mut hi = period;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-9 {
            break;
        }
    }
    Some(hi)
}

/// Repeated minimal-budget solver for demands sharing one period
/// vector.
///
/// The existing-CSA analysis ([`min_budget`] behind
/// `vc2m_analysis::existing`) evaluates the minimal budget once per
/// allocation cell of a budget surface — hundreds of calls whose
/// demands share *periods* and differ only in their WCETs. The horizon,
/// the checkpoints and the per-checkpoint job counts ⌊t/pᵢ⌋ depend only
/// on the periods, so this solver computes them once and repeats only
/// the WCET-dependent part per cell.
///
/// Results are **bit-identical** to `min_budget(&Demand::new(periods ⨯
/// wcets), period)`: every floating-point operation of the search is
/// performed in the same order on the same values (`solver_matches_
/// min_budget_bitwise` below, and the sweep conformance suite, pin
/// this).
#[derive(Debug, Clone)]
pub struct MinBudgetSolver {
    periods: Vec<f64>,
    period: f64,
    points: Vec<f64>,
    /// `floors[i · points.len() + j] = ⌊points[j] / periods[i] + 1e-9⌋`
    /// — the job count of task `i` at checkpoint `j`, stored flat and
    /// **task-major** so the per-cell demand fill streams one task's
    /// contiguous row across all checkpoints at a time (the batched
    /// layout of [`Demand::dbf_many`], vectorizable and allocated as a
    /// single block instead of one `Vec` per checkpoint).
    floors: Vec<f64>,
    /// Reusable per-call buffer for the checkpoint demands (the solver
    /// is called once per surface cell; the allocation is not).
    demands: std::cell::RefCell<Vec<f64>>,
    /// Reusable `(active, retained)` index buffers for the active-set
    /// bisection (see [`MinBudgetSolver::min_budget`]).
    active: std::cell::RefCell<(Vec<u32>, Vec<u32>)>,
}

impl MinBudgetSolver {
    /// Precomputes the checkpoint structure for demands over
    /// `task_periods` analyzed against a resource of period `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` or any task period is not positive and
    /// finite.
    pub fn new(task_periods: &[f64], period: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "resource period must be positive and finite, got {period}"
        );
        // A unit-WCET proxy demand: checkpoints and hyperperiod depend
        // only on the periods, except that zero-WCET tasks are skipped
        // — the all-positive fast path of `min_budget` below relies on
        // this, and mixed-zero WCET vectors fall back to the reference
        // implementation.
        let proxy = Demand::new(task_periods.iter().map(|&p| (p, 1.0)).collect())
            .expect("task periods must be positive and finite");
        let horizon = analysis_horizon(&proxy, period);
        let points = proxy.checkpoints(horizon, crate::kernel::MAX_CHECKPOINTS);
        let mut floors = vec![0.0; task_periods.len() * points.len()];
        for (row, &p) in floors.chunks_exact_mut(points.len().max(1)).zip(task_periods) {
            for (slot, &t) in row.iter_mut().zip(&points) {
                *slot = ((t / p) + 1e-9).floor();
            }
        }
        MinBudgetSolver {
            periods: task_periods.to_vec(),
            period,
            points,
            floors,
            demands: std::cell::RefCell::new(Vec::new()),
            active: std::cell::RefCell::new((Vec::new(), Vec::new())),
        }
    }

    /// The resource period Π this solver was built for.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Computes the minimal budget for the demand pairing this solver's
    /// periods with `wcets`, bit-identical to [`min_budget`] on the
    /// corresponding [`Demand`].
    ///
    /// # Panics
    ///
    /// Panics if `wcets` has the wrong length or contains a negative or
    /// non-finite WCET.
    // The negated comparisons are load-bearing: `!(e > 0.0)` routes
    // NaN WCETs to the fallback (where `Demand::new` rejects them),
    // and the feasibility guards must evaluate the reference's exact
    // boolean expressions, negation included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn min_budget(&self, wcets: &[f64]) -> Option<f64> {
        assert_eq!(
            wcets.len(),
            self.periods.len(),
            "WCET vector length must match the solver's period vector"
        );
        if wcets.iter().all(|&e| e == 0.0) {
            return Some(0.0);
        }
        if wcets.iter().any(|&e| !(e > 0.0)) {
            // A mix of zero and positive WCETs changes the checkpoint
            // set (zero-WCET tasks contribute no deadlines); defer to
            // the reference implementation rather than replicate that
            // rarely-exercised branch. Negative or non-finite WCETs
            // also land here, where `Demand::new` rejects them.
            let demand =
                Demand::new(self.periods.iter().copied().zip(wcets.iter().copied()).collect())
                    .expect("solver WCETs must be finite and non-negative");
            return min_budget(&demand, self.period);
        }
        // From here on the arithmetic mirrors `min_budget` operation
        // for operation: same folds, same order, same tolerances. The
        // *set of points checked* per probe shrinks (see
        // [`probe_active`]), but every per-point comparison that is
        // performed uses the exact float expressions of
        // [`PeriodicResource::sbf`], and skipped comparisons are
        // provably `true` — so every probe's boolean, hence the
        // bisection trajectory, hence the returned bits, are identical
        // to the reference.
        crate::kernel::tick(|c| c.solver_calls += 1);
        let utilization: f64 = self.periods.iter().zip(wcets).map(|(p, e)| e / p).sum();
        let mut demands = self.demands.borrow_mut();
        demands.clear();
        demands.resize(self.points.len(), 0.0);
        // Batched demand fill over the task-major floor table: each
        // task's row adds `kᵢⱼ · eᵢ` into every checkpoint's
        // accumulator. Per checkpoint the additions happen in
        // ascending task order from 0.0 — the exact fold the
        // historical per-checkpoint dot product (and the reference
        // `dbf`) performs, so the sums are bit-identical; only the
        // loop order changed, putting the contiguous, vectorizable
        // sweep innermost.
        for (row, &e) in self.floors.chunks_exact(self.points.len().max(1)).zip(wcets) {
            for (acc, &k) in demands.iter_mut().zip(row) {
                *acc += k * e;
            }
        }
        let demands = &*demands;
        let mut guard = self.active.borrow_mut();
        let (active, retained) = &mut *guard;
        bisect_active(self.period, utilization, &self.points, demands, active, retained)
    }
}

/// Margin for retiring a checkpoint from the active set: a point
/// satisfied by more than this at an infeasible probe θ is satisfied
/// at every larger θ and is never checked again.
///
/// Soundness: the mathematical sbf is non-decreasing in Θ for fixed
/// (t, Π), and the float evaluation in [`PeriodicResource::sbf`]
/// (< 10 operations on values bounded by the `1e6` ms horizon cap)
/// deviates from it by at most a few ulps of the horizon,
/// ≈ `1e-9`. A retired point has `d ≤ sbf(θ) − 1e-6`, so at any
/// θ' ≥ θ the *computed* supply is within `2·1e-9` of a value at
/// least `sbf(θ)`, leaving `d ≤ sbf(θ') + 1e-9` true by a margin
/// of ~`1e-6` — the skipped comparison is provably `true`.
const DROP_MARGIN: f64 = 1e-6;

/// One feasibility probe at budget `theta` over the active checkpoint
/// subset of `points`/`demands`. When the probe is infeasible (θ
/// becomes the new bisection `lo`, so all later probes are larger),
/// comfortably satisfied points are retired from `active`.
///
/// Shared by [`MinBudgetSolver::min_budget`] and
/// [`AnalysisWorkspace::min_budget`](crate::kernel::AnalysisWorkspace::min_budget)
/// — both thread caller-owned `active`/`retained` buffers through it,
/// so the probe itself never allocates.
// Negated comparisons mirror the reference's booleans exactly; see
// `MinBudgetSolver::min_budget`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
pub(crate) fn probe_active(
    period: f64,
    theta: f64,
    points: &[f64],
    demands: &[f64],
    active: &mut Vec<u32>,
    retained: &mut Vec<u32>,
) -> bool {
    // `PeriodicResource::sbf` with `blackout` hoisted out of the
    // point loop — same expressions, same rounding, per point.
    let blackout = period - theta;
    retained.clear();
    let mut feasible = true;
    for &j in active.iter() {
        let t = points[j as usize];
        let d = demands[j as usize];
        let supply = if t <= blackout || theta == 0.0 {
            0.0
        } else {
            let t_eff = t - blackout;
            let k = (t_eff / period + 1e-12).floor();
            let supplied = k * theta;
            let partial = (t_eff - k * period - blackout).max(0.0);
            supplied + partial.min(theta)
        };
        if !(d <= supply + 1e-9) {
            feasible = false;
            retained.push(j);
        } else if !(d + DROP_MARGIN <= supply) {
            retained.push(j);
        }
    }
    if !feasible {
        std::mem::swap(active, retained);
    }
    feasible
}

/// The active-set bisection shared by [`MinBudgetSolver::min_budget`]
/// and
/// [`AnalysisWorkspace::min_budget`](crate::kernel::AnalysisWorkspace::min_budget):
/// given the precomputed checkpoints and per-checkpoint demands of a
/// (non-trivial) demand with the given `utilization`, returns the
/// minimal budget on a period-`period` resource — bit-identical to the
/// reference [`min_budget`] search (see the conformance notes on
/// [`MinBudgetSolver::min_budget`]).
///
/// `active`/`retained` are caller-owned scratch; their previous
/// contents are discarded.
// Negated comparisons mirror the reference's booleans exactly; see
// `MinBudgetSolver::min_budget`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn bisect_active(
    period: f64,
    utilization: f64,
    points: &[f64],
    demands: &[f64],
    active: &mut Vec<u32>,
    retained: &mut Vec<u32>,
) -> Option<f64> {
    active.clear();
    active.extend(0..points.len() as u32);
    // The reference's feasible(Π) utilization guard compares against
    // Π/Π + 1e-12; x/x is exactly 1.0 for any finite positive x, so
    // the constant is bit-identical.
    if utilization > 1.0 + 1e-12 || !probe_active(period, period, points, demands, active, retained) {
        return None;
    }
    let mut lo = (utilization * period).min(period);
    if !(utilization > lo / period + 1e-12) && probe_active(period, lo, points, demands, active, retained)
    {
        return Some(lo);
    }
    // In the bisection the utilization guard of the reference's
    // `feasible` can never fire: reaching here means U ≤ 1 + 1e-12,
    // and if U > 1 then lo = Π and feasible(Π) above already
    // returned. So U ≤ 1, lo = U·Π (one rounding), and every probe
    // θ = ½(lo + hi) ≥ lo, giving U − θ/Π ≤ a few ulps of U —
    // orders below the guard's 1e-12 slack. The guard is therefore
    // omitted from the loop; its boolean is identically `false`.
    let mut hi = period;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if probe_active(period, mid, points, demands, active, retained) {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-9 {
            break;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must lie in [0, period]")]
    fn budget_above_period_rejected() {
        let _ = PeriodicResource::new(10.0, 11.0);
    }

    #[test]
    fn sbf_shape() {
        let r = PeriodicResource::new(10.0, 4.0);
        // Blackout of 2(Π−Θ) = 12 at worst, first supply after Π−Θ = 6...
        assert_eq!(r.sbf(0.0), 0.0);
        assert_eq!(r.sbf(6.0), 0.0);
        // After the blackout, supply ramps at slope 1 for Θ time units
        // starting at 2(Π−Θ) = 12.
        assert_eq!(r.sbf(12.0), 0.0);
        assert_eq!(r.sbf(13.0), 1.0);
        assert_eq!(r.sbf(16.0), 4.0);
        // Then flat until the next period's supply.
        assert_eq!(r.sbf(22.0), 4.0);
        assert_eq!(r.sbf(23.0), 5.0);
    }

    #[test]
    fn sbf_full_budget_is_identity_minus_nothing() {
        // Θ = Π: a dedicated processor; sbf(t) = t.
        let r = PeriodicResource::new(5.0, 5.0);
        for t in [0.0, 1.0, 2.5, 7.0, 100.0] {
            assert!((r.sbf(t) - t).abs() < 1e-9, "sbf({t}) = {}", r.sbf(t));
        }
    }

    #[test]
    fn sbf_zero_budget_is_zero() {
        let r = PeriodicResource::new(5.0, 0.0);
        assert_eq!(r.sbf(100.0), 0.0);
    }

    #[test]
    fn sbf_monotone_and_bounded_by_t() {
        let r = PeriodicResource::new(7.0, 3.0);
        let mut prev = 0.0;
        for i in 0..1000 {
            let t = i as f64 * 0.1;
            let v = r.sbf(t);
            assert!(v >= prev - 1e-12, "sbf must be non-decreasing");
            assert!(v <= t + 1e-9, "sbf(t) must not exceed t");
            prev = v;
        }
    }

    #[test]
    fn lsbf_lower_bounds_sbf() {
        let r = PeriodicResource::new(9.0, 4.0);
        for i in 0..500 {
            let t = i as f64 * 0.2;
            assert!(
                r.lsbf(t) <= r.sbf(t) + 1e-9,
                "lsbf({t}) = {} > sbf({t}) = {}",
                r.lsbf(t),
                r.sbf(t)
            );
        }
    }

    #[test]
    fn paper_example_budget_is_5_5() {
        // Introduction: task (period 10, WCET 1) needs budget 5.5 on a
        // period-10 periodic resource — 5.5× its utilization of 0.1.
        let demand = Demand::new(vec![(10.0, 1.0)]).unwrap();
        let theta = min_budget(&demand, 10.0).expect("feasible");
        assert!((theta - 5.5).abs() < 1e-6, "got {theta}");
    }

    #[test]
    fn min_budget_monotone_in_demand() {
        let light = Demand::new(vec![(10.0, 1.0)]).unwrap();
        let heavy = Demand::new(vec![(10.0, 2.0)]).unwrap();
        let tl = min_budget(&light, 5.0).unwrap();
        let th = min_budget(&heavy, 5.0).unwrap();
        assert!(th > tl);
    }

    #[test]
    fn min_budget_smaller_period_less_overhead() {
        // A finer-grained server tracks the task more closely, so the
        // required *bandwidth* shrinks as the resource period shrinks.
        let demand = Demand::new(vec![(10.0, 1.0)]).unwrap();
        let bw_coarse = min_budget(&demand, 10.0).unwrap() / 10.0;
        let bw_fine = min_budget(&demand, 2.0).unwrap() / 2.0;
        assert!(bw_fine < bw_coarse);
    }

    #[test]
    fn min_budget_infeasible() {
        // Utilization 1.2 cannot fit on any single resource.
        let demand = Demand::new(vec![(10.0, 12.0)]).unwrap();
        assert_eq!(min_budget(&demand, 10.0), None);
    }

    #[test]
    fn min_budget_zero_demand() {
        let demand = Demand::new(vec![(10.0, 0.0)]).unwrap();
        assert_eq!(min_budget(&demand, 5.0), Some(0.0));
    }

    #[test]
    fn min_budget_result_schedules_and_is_tight() {
        let demand = Demand::new(vec![(10.0, 1.0), (20.0, 3.0), (40.0, 4.0)]).unwrap();
        let period = 10.0;
        let theta = min_budget(&demand, period).expect("feasible");
        assert!(PeriodicResource::new(period, theta).can_schedule(&demand));
        let slightly_less = (theta - 1e-3).max(0.0);
        assert!(
            !PeriodicResource::new(period, slightly_less).can_schedule(&demand),
            "budget {theta} is not tight"
        );
        // And the abstraction overhead is real: budget bandwidth
        // strictly exceeds taskset utilization.
        assert!(theta / period > demand.utilization());
    }

    #[test]
    fn dedicated_resource_schedules_up_to_full_utilization() {
        let demand = Demand::new(vec![(10.0, 5.0), (20.0, 10.0)]).unwrap(); // U = 1.0
        assert!(PeriodicResource::new(10.0, 10.0).can_schedule(&demand));
    }

    fn assert_solver_matches(periods: &[f64], period: f64, wcet_vectors: &[Vec<f64>]) {
        let solver = MinBudgetSolver::new(periods, period);
        for wcets in wcet_vectors {
            let demand =
                Demand::new(periods.iter().copied().zip(wcets.iter().copied()).collect()).unwrap();
            let reference = min_budget(&demand, period);
            let fast = solver.min_budget(wcets);
            assert_eq!(
                fast.map(f64::to_bits),
                reference.map(f64::to_bits),
                "solver diverged for periods {periods:?}, wcets {wcets:?}, period {period}: \
                 {fast:?} vs {reference:?}"
            );
        }
    }

    #[test]
    fn solver_matches_min_budget_bitwise() {
        // Harmonic periods (the paper's workloads) at several resource
        // periods, spanning feasible, tight and infeasible WCETs.
        assert_solver_matches(
            &[100.0, 200.0, 400.0],
            100.0,
            &[
                vec![1.0, 2.0, 4.0],
                vec![30.0, 40.0, 80.0],
                vec![90.0, 100.0, 200.0], // infeasible: U > 1
                vec![0.017, 123.4, 5.0],
            ],
        );
        assert_solver_matches(
            &[100.0, 200.0, 400.0],
            100.0 / 16.0,
            &[vec![1.0, 2.0, 4.0], vec![0.5, 0.25, 0.125]],
        );
        // Non-harmonic periods exercise the LCM hyperperiod path.
        assert_solver_matches(
            &[4.0, 6.0, 10.0],
            2.0,
            &[vec![0.5, 1.0, 2.0], vec![1.9, 2.9, 4.9]],
        );
        // A period that defeats the ns-scaled LCM falls back to the
        // capped horizon.
        assert_solver_matches(&[3.0000001, 7.0], 3.0, &[vec![0.2, 0.4]]);
    }

    #[test]
    fn solver_zero_and_mixed_wcets_match() {
        let periods = [10.0, 20.0];
        let solver = MinBudgetSolver::new(&periods, 5.0);
        assert_eq!(solver.min_budget(&[0.0, 0.0]), Some(0.0));
        // Mixed zero WCETs change the checkpoint set; the solver must
        // still agree with the reference implementation.
        let demand = Demand::new(vec![(10.0, 0.0), (20.0, 4.0)]).unwrap();
        assert_eq!(
            solver.min_budget(&[0.0, 4.0]).map(f64::to_bits),
            min_budget(&demand, 5.0).map(f64::to_bits)
        );
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn solver_rejects_wrong_arity() {
        let _ = MinBudgetSolver::new(&[10.0, 20.0], 5.0).min_budget(&[1.0]);
    }
}
