//! Hypervisor-level resource allocation: VCPUs → cores, and cache/BW
//! partitions → cores (Section 4.3).
//!
//! The vC²M heuristic ([`heuristic`]) tries increasing core counts
//! `m = 1..M`. For each `m` it clusters VCPUs by slowdown vector and
//! repeats three phases until the system is schedulable or an
//! iteration cap is hit:
//!
//! * **Phase 1 (packing)** — a random permutation of the clusters is
//!   packed, cluster by cluster, worst-fit in decreasing reference
//!   utilization, keeping core loads balanced;
//! * **Phase 2 (resource allocation)** — every core starts at
//!   `(Cmin, Bmin)`; while some core fails the schedulability test,
//!   the spare partition (cache or bandwidth) giving the largest
//!   utilization reduction on an unschedulable core is assigned; the
//!   phase fails when no partition helps ("no impact on utilization")
//!   or the pools run dry;
//! * **Phase 3 (load balancing)** — VCPUs migrate from unschedulable
//!   cores to the schedulable core that will have the smallest
//!   utilization after the migration; then Phase 2 re-runs.
//!
//! Within one `m`, the rest of a permutation's trajectory (Phase 2 on
//! its assignment, Phase 3, the next rounds) depends only on the
//! assignment it has reached, keyed by the member order on every core,
//! and draws no randomness. A success returns at once, so an assignment
//! Phase 2 already evaluated in this `m` at a round no later than the
//! current one heads a trajectory that has run and failed: the search
//! moves to the next permutation instead of repeating it. A visit only
//! at a later round proves nothing, since that trajectory hit the round
//! cap sooner. Every k-means call and every shuffle is still drawn, so
//! the RNG stream and every outcome are those of the unpruned search.
//!
//! The baseline discipline ([`evenly_partitioned`]) splits cache and
//! bandwidth evenly over all cores and packs VCPUs best-fit decreasing.

use std::collections::HashMap;

use crate::kmeans::kmeans;
use crate::packing::{best_fit_open, sort_decreasing, Item};
use crate::result::{AllocationOutcome, CoreAssignment, SystemAllocation};
use vc2m_analysis::core_check::{core_schedulable, core_utilization, UTILIZATION_EPS};
use vc2m_model::{Alloc, Platform, ResourceSpace, VcpuSpec};
use vc2m_rng::Rng;

/// Tuning knobs of the three-phase heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// Phase-1 restarts per core count (random cluster permutations).
    pub max_permutations: usize,
    /// Phase-3 ↔ Phase-2 rounds per packing.
    pub max_balance_rounds: usize,
}

impl Default for HeuristicConfig {
    /// 10 permutations × 4 balance rounds, a good cost/quality
    /// trade-off in our experiments.
    fn default() -> Self {
        HeuristicConfig {
            max_permutations: 10,
            max_balance_rounds: 4,
        }
    }
}

/// The vC²M hypervisor-level heuristic.
///
/// Returns a schedulable [`SystemAllocation`] (using the fewest cores
/// the heuristic could make work) or an unschedulable outcome.
pub fn heuristic<R: Rng>(
    vcpus: Vec<VcpuSpec>,
    platform: &Platform,
    config: HeuristicConfig,
    rng: &mut R,
) -> AllocationOutcome {
    search(vcpus, platform, config, rng).0
}

/// The search behind [`heuristic`]; also returns how many Phase-2
/// evaluations it ran.
fn search<R: Rng>(
    vcpus: Vec<VcpuSpec>,
    platform: &Platform,
    config: HeuristicConfig,
    rng: &mut R,
) -> (AllocationOutcome, usize) {
    if vcpus.is_empty() {
        return (
            AllocationOutcome::schedulable(SystemAllocation::new(vcpus, Vec::new())),
            0,
        );
    }
    let space = platform.resources();
    let reference_total: f64 = vcpus.iter().map(|v| v.utilization(space.reference())).sum();

    // Cluster VCPUs once; cluster geometry does not depend on m.
    let features: Vec<Vec<f64>> =
        vc2m_model::Surface::batch_slowdown_rows(vcpus.iter().map(|v| v.budget_surface()));
    let feature_refs: Vec<&[f64]> = features.iter().map(|f| f.as_slice()).collect();

    let mut evaluations = 0;
    for m in 1..=platform.max_usable_cores() {
        // Necessary condition: even with all resources, total
        // utilization cannot exceed m.
        if reference_total > m as f64 + UTILIZATION_EPS {
            continue;
        }
        let mut evaluated = Evaluated::default();
        let k = m.min(vcpus.len());
        let clusters = kmeans(&feature_refs, k, rng).members();

        for _ in 0..config.max_permutations {
            let mut order: Vec<usize> = (0..clusters.len()).collect();
            rng.shuffle(&mut order);
            let mut assignment = pack_by_clusters(&vcpus, &clusters, &order, m);

            for round in 0..config.max_balance_rounds {
                if !evaluated.first_at(&assignment, round) {
                    break; // this trajectory has already failed
                }
                evaluations += 1;
                let (allocs, schedulable) = allocate_resources(&vcpus, &assignment, platform, m);
                if schedulable {
                    let allocation = build(&vcpus, assignment, allocs);
                    debug_assert!(allocation.verify(platform).is_ok());
                    return (AllocationOutcome::schedulable(allocation), evaluations);
                }
                if !balance_load(&vcpus, &mut assignment, &allocs) {
                    break; // no benefit in balancing: new permutation
                }
            }
        }
    }
    (AllocationOutcome::unschedulable(), evaluations)
}

/// The assignments Phase 2 has evaluated at one core count, keyed by
/// the exact member order on every core (Phase 2's sums follow it), each
/// with the earliest balance round it was evaluated at.
#[derive(Default)]
struct Evaluated(HashMap<Vec<Vec<usize>>, usize>);

impl Evaluated {
    /// Records an evaluation of `assignment` at balance round `round`,
    /// or returns false if it was evaluated at a round no later. The
    /// rest of a trajectory depends only on its assignment, and it runs
    /// until the round cap: the earlier trajectory has evaluated every
    /// state this one would reach, and all of them failed. A visit only
    /// at a later round stopped sooner, so it proves nothing.
    fn first_at(&mut self, assignment: &[Vec<usize>], round: usize) -> bool {
        match self.0.get_mut(assignment) {
            Some(first) if *first <= round => false,
            Some(first) => {
                *first = round;
                true
            }
            None => {
                self.0.insert(assignment.to_vec(), round);
                true
            }
        }
    }
}

/// Phase 1: packs clusters (in `order`) onto `m` cores, worst-fit in
/// decreasing reference utilization, with core loads carried across
/// clusters.
fn pack_by_clusters(
    vcpus: &[VcpuSpec],
    clusters: &[Vec<usize>],
    order: &[usize],
    m: usize,
) -> Vec<Vec<usize>> {
    let mut cores: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut loads = vec![0.0f64; m];
    for &cluster in order {
        let mut items: Vec<Item> = clusters[cluster]
            .iter()
            .map(|&i| Item::new(i, vcpus[i].reference_utilization()))
            .collect();
        sort_decreasing(&mut items);
        for item in items {
            let (best, _) = loads
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| a.partial_cmp(b).expect("loads are finite").then(i.cmp(j)))
                .expect("m >= 1");
            cores[best].push(item.id);
            loads[best] += item.size;
        }
    }
    cores
}

/// Phase 2: greedy marginal-utility resource allocation. Every core
/// starts at `(Cmin, Bmin)`; spare partitions go one at a time to the
/// unschedulable core with the highest utilization reduction.
///
/// A core's verdict and utilizations depend only on its members and
/// its allocation, and a grant changes one core, so each step
/// re-evaluates only the core it upgraded ([`CoreRecord`]); the scan
/// over the records (ascending core, cache before bandwidth, strict
/// `>`) breaks ties exactly like a full re-evaluation would.
///
/// Returns the per-core allocations and whether every core ended up
/// schedulable.
fn allocate_resources(
    vcpus: &[VcpuSpec],
    assignment: &[Vec<usize>],
    platform: &Platform,
    m: usize,
) -> (Vec<Alloc>, bool) {
    let space = platform.resources();
    let mut allocs = vec![space.minimum(); m];
    let mut cache_left = space.cache_max() - space.cache_min() * m as u32;
    let mut bw_left = space.bw_max() - space.bw_min() * m as u32;
    let record = |k: usize, a: Alloc| CoreRecord::new(vcpus, &assignment[k], a, space);
    let mut records: Vec<CoreRecord> = (0..m).map(|k| record(k, allocs[k])).collect();

    loop {
        if records.iter().all(|r| r.schedulable) {
            return (allocs, true);
        }
        // Best single-partition upgrade across unschedulable cores.
        let mut best: Option<(usize, bool, f64)> = None; // (core, is_cache, gain)
        for (k, r) in records.iter().enumerate().filter(|(_, r)| !r.schedulable) {
            if cache_left > 0 && allocs[k].cache < space.cache_max() {
                let gain = r.utilization - r.cache_up;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((k, true, gain));
                }
            }
            if bw_left > 0 && allocs[k].bandwidth < space.bw_max() {
                let gain = r.utilization - r.bw_up;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((k, false, gain));
                }
            }
        }
        match best {
            Some((k, true, gain)) if gain > UTILIZATION_EPS => {
                allocs[k] = Alloc::new(allocs[k].cache + 1, allocs[k].bandwidth);
                cache_left -= 1;
                records[k] = record(k, allocs[k]);
            }
            Some((k, false, gain)) if gain > UTILIZATION_EPS => {
                allocs[k] = Alloc::new(allocs[k].cache, allocs[k].bandwidth + 1);
                bw_left -= 1;
                records[k] = record(k, allocs[k]);
            }
            // No spare partition has any impact on utilization.
            _ => return (allocs, false),
        }
    }
}

/// What Phase 2 needs to know about one core at its allocation `a`:
/// its verdict, and its utilization at `a`, at one more cache
/// partition and at one more bandwidth partition.
///
/// Every sum is accumulated in member order from -0.0, the identity
/// `Iterator::sum` starts from, so `schedulable` and `utilization`
/// equal [`core_schedulable`] and [`core_utilization`] bit for bit,
/// and each upgrade utilization equals `core_utilization` at the
/// upgraded allocation.
struct CoreRecord {
    schedulable: bool,
    utilization: f64,
    /// Utilization at `(c + 1, b)`; NaN, and never read, at `c = C`.
    cache_up: f64,
    /// Utilization at `(c, b + 1)`; NaN, and never read, at `b = B`.
    bw_up: f64,
}

impl CoreRecord {
    fn new(vcpus: &[VcpuSpec], members: &[usize], a: Alloc, space: ResourceSpace) -> Self {
        let cache = (a.cache < space.cache_max()).then(|| Alloc::new(a.cache + 1, a.bandwidth));
        let bw = (a.bandwidth < space.bw_max()).then(|| Alloc::new(a.cache, a.bandwidth + 1));
        let (mut feasible, mut utilization) = (true, -0.0);
        let (mut cache_up, mut bw_up) = (-0.0, -0.0);
        for v in members.iter().map(|&i| &vcpus[i]) {
            feasible &= v.is_feasible_at(a);
            utilization += v.utilization(a);
            cache_up += cache.map_or(f64::NAN, |up| v.utilization(up));
            bw_up += bw.map_or(f64::NAN, |up| v.utilization(up));
        }
        CoreRecord {
            schedulable: feasible && utilization <= 1.0 + UTILIZATION_EPS,
            utilization,
            cache_up,
            bw_up,
        }
    }
}

/// Phase 3: migrates VCPUs off unschedulable cores. For each
/// unschedulable core (largest-utilization VCPU first), the VCPU moves
/// to the schedulable core that will have the smallest utilization
/// after the migration. Returns whether anything moved.
fn balance_load(vcpus: &[VcpuSpec], assignment: &mut [Vec<usize>], allocs: &[Alloc]) -> bool {
    let m = assignment.len();
    let mut moved_any = false;
    let mut moves_left = vcpus.len(); // global guard against cycles

    for k in 0..m {
        loop {
            if moves_left == 0
                || core_schedulable(assignment[k].iter().map(|&i| &vcpus[i]), allocs[k])
                || assignment[k].is_empty()
            {
                break;
            }
            // Largest-utilization VCPU on the source core.
            let (pos, &vcpu_idx) = assignment[k]
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| {
                    vcpus[a]
                        .utilization(allocs[k])
                        .partial_cmp(&vcpus[b].utilization(allocs[k]))
                        .expect("utilizations are finite")
                })
                .expect("core is non-empty");
            // Destination: schedulable core with smallest post-move
            // utilization.
            let dest = (0..m)
                .filter(|&j| j != k)
                .filter(|&j| core_schedulable(assignment[j].iter().map(|&i| &vcpus[i]), allocs[j]))
                .map(|j| {
                    let after =
                        core_utilization(assignment[j].iter().map(|&i| &vcpus[i]), allocs[j])
                            + vcpus[vcpu_idx].utilization(allocs[j]);
                    (j, after)
                })
                .min_by(|(i, a), (j, b)| {
                    a.partial_cmp(b)
                        .expect("utilizations are finite")
                        .then(i.cmp(j))
                });
            match dest {
                Some((j, after)) if after <= 1.0 + UTILIZATION_EPS => {
                    assignment[k].remove(pos);
                    assignment[j].push(vcpu_idx);
                    moved_any = true;
                    moves_left -= 1;
                }
                _ => break, // no destination can absorb anything useful
            }
        }
    }
    moved_any
}

fn build(vcpus: &[VcpuSpec], assignment: Vec<Vec<usize>>, allocs: Vec<Alloc>) -> SystemAllocation {
    let cores = assignment
        .into_iter()
        .zip(allocs)
        .map(|(vcpu_indices, alloc)| CoreAssignment {
            vcpus: vcpu_indices,
            alloc,
        })
        .collect();
    SystemAllocation::new(vcpus.to_vec(), cores)
}

/// The baseline hypervisor-level discipline: cache and bandwidth are
/// split evenly over all (usable) cores, and VCPUs are packed best-fit
/// in decreasing utilization at the even allocation.
pub fn evenly_partitioned(vcpus: Vec<VcpuSpec>, platform: &Platform) -> AllocationOutcome {
    if vcpus.is_empty() {
        return AllocationOutcome::schedulable(SystemAllocation::new(vcpus, Vec::new()));
    }
    let space = platform.resources();
    let m = platform.max_usable_cores();
    if m == 0 {
        return AllocationOutcome::unschedulable();
    }
    let even = Alloc::new(
        (space.cache_max() / m as u32).max(space.cache_min()),
        (space.bw_max() / m as u32).max(space.bw_min()),
    );
    // The max() above can only fire when the floor is below the
    // minimum, which max_usable_cores() excludes; assert the invariant.
    debug_assert!(space.contains(even));
    debug_assert!(even.cache * m as u32 <= space.cache_max());
    debug_assert!(even.bandwidth * m as u32 <= space.bw_max());

    let mut items: Vec<Item> = vcpus
        .iter()
        .enumerate()
        .map(|(i, v)| Item::new(i, v.utilization(even)))
        .collect();
    sort_decreasing(&mut items);
    let bins = best_fit_open(&items);
    if bins.len() > m {
        return AllocationOutcome::unschedulable();
    }
    let assignment: Vec<Vec<usize>> = bins;
    let allocs = vec![even; assignment.len()];
    let allocation = build(&vcpus, assignment, allocs);
    if allocation.is_schedulable() && allocation.verify(platform).is_ok() {
        AllocationOutcome::schedulable(allocation)
    } else {
        AllocationOutcome::unschedulable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::{BudgetSurface, ResourceSpace, TaskId, VcpuId, VmId};
    use vc2m_rng::{cases::check, DetRng};

    fn space() -> ResourceSpace {
        Platform::platform_a().resources()
    }

    fn flat_vcpu(id: usize, period: f64, budget: f64) -> VcpuSpec {
        VcpuSpec::new(
            VcpuId(id),
            VmId(0),
            period,
            BudgetSurface::flat(&space(), budget).unwrap(),
            vec![TaskId(id)],
        )
        .unwrap()
    }

    /// A VCPU whose budget shrinks as its core gets more cache.
    fn cache_hungry_vcpu(id: usize, period: f64, base: f64, gain: f64) -> VcpuSpec {
        let surface = BudgetSurface::from_fn(&space(), |a| {
            base * (1.0 + gain * (20.0 - f64::from(a.cache)) / 18.0)
        })
        .unwrap();
        VcpuSpec::new(VcpuId(id), VmId(0), period, surface, vec![TaskId(id)]).unwrap()
    }

    fn rng() -> DetRng {
        DetRng::seed_from_u64(2024)
    }

    /// The search as it was before pruning: every permutation runs
    /// every balance round. Returns the outcome and its Phase-2
    /// evaluations.
    fn unpruned_search(
        vcpus: Vec<VcpuSpec>,
        platform: &Platform,
        config: HeuristicConfig,
        rng: &mut DetRng,
    ) -> (AllocationOutcome, usize) {
        if vcpus.is_empty() {
            return (
                AllocationOutcome::schedulable(SystemAllocation::new(vcpus, Vec::new())),
                0,
            );
        }
        let space = platform.resources();
        let reference_total: f64 = vcpus.iter().map(|v| v.utilization(space.reference())).sum();
        let features: Vec<Vec<f64>> =
            vc2m_model::Surface::batch_slowdown_rows(vcpus.iter().map(|v| v.budget_surface()));
        let feature_refs: Vec<&[f64]> = features.iter().map(|f| f.as_slice()).collect();
        let mut evaluations = 0;
        for m in 1..=platform.max_usable_cores() {
            if reference_total > m as f64 + UTILIZATION_EPS {
                continue;
            }
            let k = m.min(vcpus.len());
            let clusters = kmeans(&feature_refs, k, rng).members();
            for _ in 0..config.max_permutations {
                let mut order: Vec<usize> = (0..clusters.len()).collect();
                rng.shuffle(&mut order);
                let mut assignment = pack_by_clusters(&vcpus, &clusters, &order, m);
                for _ in 0..config.max_balance_rounds {
                    evaluations += 1;
                    let (allocs, schedulable) =
                        allocate_resources(&vcpus, &assignment, platform, m);
                    if schedulable {
                        let allocation = build(&vcpus, assignment, allocs);
                        return (AllocationOutcome::schedulable(allocation), evaluations);
                    }
                    if !balance_load(&vcpus, &mut assignment, &allocs) {
                        break;
                    }
                }
            }
        }
        (AllocationOutcome::unschedulable(), evaluations)
    }

    /// A random VCPU whose budget falls as its core gets more cache and
    /// more bandwidth, at reference utilization `u`.
    fn random_vcpu(id: usize, u: f64, rng: &mut DetRng) -> VcpuSpec {
        let period = 5.0 + 15.0 * rng.gen_f64();
        let (cache_gain, bw_gain) = (0.8 * rng.gen_f64(), 0.8 * rng.gen_f64());
        let surface = BudgetSurface::from_fn(&space(), |a| {
            period
                * u
                * (1.0
                    + cache_gain * (20.0 - f64::from(a.cache)) / 18.0
                    + bw_gain * (20.0 - f64::from(a.bandwidth)) / 19.0)
        })
        .unwrap();
        VcpuSpec::new(VcpuId(id), VmId(0), period, surface, vec![TaskId(id)]).unwrap()
    }

    #[test]
    fn pruning_search_equals_the_unpruned_oracle() {
        let platform = Platform::platform_a();
        let reference = platform.resources().reference();
        check(64, |rng| {
            // 1–9 VCPUs, some of them copies (identical features), with a
            // total reference utilization of 0.3–4.2: the first core
            // count tried ranges over 1–4, and k! < 10 at k ≤ 3.
            let n = rng.gen_range(1..10usize);
            let total = 0.3 + 3.9 * rng.gen_f64();
            let mut vcpus: Vec<VcpuSpec> = Vec::with_capacity(n);
            for i in 0..n {
                let u = total / n as f64 * (0.5 + rng.gen_f64());
                let vcpu = if i > 0 && rng.gen_range(0..4usize) == 0 {
                    let last = &vcpus[i - 1];
                    let surface = last.budget_surface().clone();
                    VcpuSpec::new(VcpuId(i), VmId(0), last.period(), surface, vec![TaskId(i)])
                        .unwrap()
                } else {
                    random_vcpu(i, u, rng)
                };
                vcpus.push(vcpu);
            }
            let config = HeuristicConfig {
                max_permutations: rng.gen_range(1..13usize),
                max_balance_rounds: rng.gen_range(1..7usize),
            };
            let seed = rng.next_u64();
            let (mut fast, mut oracle) = (DetRng::seed_from_u64(seed), DetRng::seed_from_u64(seed));
            let (outcome, evaluations) = search(vcpus.clone(), &platform, config, &mut fast);
            let (expected, oracle_evaluations) =
                unpruned_search(vcpus.clone(), &platform, config, &mut oracle);
            assert_eq!(outcome, expected, "{config:?}");
            assert_eq!(
                fast.next_u64(),
                oracle.next_u64(),
                "RNG draws differ, {config:?}"
            );
            assert!(evaluations <= oracle_evaluations);
            // A failed search whose first core count has fewer cluster
            // orders than permutations must repeat an order, and the
            // repeat is pruned.
            let reference_total: f64 = vcpus.iter().map(|v| v.utilization(reference)).sum();
            let first_m = (1..=platform.max_usable_cores())
                .find(|&m| reference_total <= m as f64 + UTILIZATION_EPS);
            if let (false, Some(m)) = (expected.is_schedulable(), first_m) {
                let orders: usize = (1..=m.min(n)).product();
                if orders < config.max_permutations {
                    assert!(
                        evaluations < oracle_evaluations,
                        "{evaluations} of {oracle_evaluations} evaluations, {config:?}"
                    );
                }
            }
        });
    }

    /// The random suite above never meets an assignment first at a later
    /// round and then at an earlier one (nor do the churn traces), so
    /// this pins that case of the rule directly.
    #[test]
    fn pruning_needs_an_evaluation_at_a_round_no_later() {
        let mut evaluated = Evaluated::default();
        let a = vec![vec![0, 1], vec![2]];
        assert!(evaluated.first_at(&a, 3));
        assert!(!evaluated.first_at(&a, 3));
        // Seen only at a later round: that trajectory stopped sooner.
        assert!(evaluated.first_at(&a, 1));
        assert!(!evaluated.first_at(&a, 2));
        assert!(!evaluated.first_at(&a, 1));
        assert!(evaluated.first_at(&a, 0));
        // Member order is part of the key.
        assert!(evaluated.first_at(&[vec![1, 0], vec![2]], 3));
        assert!(evaluated.first_at(&[vec![0, 1, 2], vec![]], 3));
    }

    #[test]
    fn core_record_equals_core_check_bit_for_bit() {
        let platform = Platform::platform_a();
        let space = platform.resources();
        let vcpus: Vec<VcpuSpec> = (0..7)
            .map(|i| cache_hungry_vcpu(i, 7.0 + i as f64, 0.9 + 0.37 * i as f64, 0.3 * i as f64))
            .collect();
        let util = |members: &[usize], a: Alloc| {
            core_utilization(members.iter().map(|&i| &vcpus[i]), a).to_bits()
        };
        for n in 0..=vcpus.len() {
            let members: Vec<usize> = (0..n).rev().collect();
            for a in space.iter() {
                let r = CoreRecord::new(&vcpus, &members, a, space);
                assert_eq!(
                    r.schedulable,
                    core_schedulable(members.iter().map(|&i| &vcpus[i]), a),
                    "n={n} {a}"
                );
                assert_eq!(r.utilization.to_bits(), util(&members, a), "n={n} {a}");
                if a.cache < space.cache_max() {
                    let up = Alloc::new(a.cache + 1, a.bandwidth);
                    assert_eq!(r.cache_up.to_bits(), util(&members, up), "n={n} {a}");
                }
                if a.bandwidth < space.bw_max() {
                    let up = Alloc::new(a.cache, a.bandwidth + 1);
                    assert_eq!(r.bw_up.to_bits(), util(&members, up), "n={n} {a}");
                }
            }
        }
    }

    #[test]
    fn empty_vcpu_set_is_trivially_schedulable() {
        let outcome = heuristic(
            Vec::new(),
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert!(outcome.is_schedulable());
        assert_eq!(outcome.allocation().unwrap().cores_used(), 0);
    }

    #[test]
    fn single_light_vcpu_fits_one_core() {
        let outcome = heuristic(
            vec![flat_vcpu(0, 10.0, 3.0)],
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        let a = outcome.allocation().expect("schedulable");
        assert_eq!(a.cores_used(), 1);
        a.verify(&Platform::platform_a()).unwrap();
    }

    #[test]
    fn load_spreads_over_cores() {
        // Four VCPUs of utilization 0.8 need all four cores.
        let vcpus: Vec<VcpuSpec> = (0..4).map(|i| flat_vcpu(i, 10.0, 8.0)).collect();
        let outcome = heuristic(
            vcpus,
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        let a = outcome.allocation().expect("schedulable");
        assert_eq!(a.cores_used(), 4);
        for k in 0..4 {
            assert!((a.core_utilization(k) - 0.8).abs() < 1e-9);
        }
        a.verify(&Platform::platform_a()).unwrap();
    }

    #[test]
    fn overload_is_unschedulable() {
        // Total utilization 4.5 on a 4-core platform.
        let vcpus: Vec<VcpuSpec> = (0..5).map(|i| flat_vcpu(i, 10.0, 9.0)).collect();
        let outcome = heuristic(
            vcpus,
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert!(!outcome.is_schedulable());
    }

    #[test]
    fn resources_rescue_cache_hungry_vcpus() {
        // Utilization 1.25 per core at (Cmin, Bmin), 0.625 at full cache:
        // schedulable only if Phase 2 grants cache partitions.
        let vcpus: Vec<VcpuSpec> = (0..2)
            .map(|i| cache_hungry_vcpu(i, 10.0, 6.25, 1.0))
            .collect();
        let platform = Platform::platform_a();
        let outcome = heuristic(vcpus, &platform, HeuristicConfig::default(), &mut rng());
        let a = outcome.allocation().expect("schedulable with enough cache");
        a.verify(&platform).unwrap();
        // The cores that got VCPUs must hold more than the minimum cache.
        let total_cache: u32 = a.cores().iter().map(|c| c.alloc.cache).sum();
        assert!(total_cache > 2 * 2, "phase 2 never granted cache");
    }

    #[test]
    fn heuristic_uses_fewest_possible_cores() {
        // Two 0.4 VCPUs fit one core; m-loop must stop at 1.
        let vcpus: Vec<VcpuSpec> = (0..2).map(|i| flat_vcpu(i, 10.0, 4.0)).collect();
        let outcome = heuristic(
            vcpus,
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert_eq!(outcome.allocation().unwrap().cores_used(), 1);
    }

    #[test]
    fn evenly_partitioned_balanced_load() {
        let vcpus: Vec<VcpuSpec> = (0..4).map(|i| flat_vcpu(i, 10.0, 5.0)).collect();
        let platform = Platform::platform_a();
        let outcome = evenly_partitioned(vcpus, &platform);
        let a = outcome.allocation().expect("schedulable");
        a.verify(&platform).unwrap();
        // Even allocation: every used core has C/M = 5 cache partitions.
        for core in a.cores() {
            assert_eq!(core.alloc, Alloc::new(5, 5));
        }
    }

    #[test]
    fn evenly_partitioned_fails_when_bins_exceed_cores() {
        let vcpus: Vec<VcpuSpec> = (0..5).map(|i| flat_vcpu(i, 10.0, 9.0)).collect();
        assert!(!evenly_partitioned(vcpus, &Platform::platform_a()).is_schedulable());
    }

    #[test]
    fn evenly_partitioned_wastes_resources_heuristic_recovers() {
        // A smoothly cache-hungry VCPU that fits only with a *skewed*
        // cache split (it needs ≥ 17 partitions; the modest peer needs
        // 2). The even split (5 each on platform A) is not enough for
        // the hungry one; the heuristic's marginal-utility phase walks
        // up the smooth slope and finds the skew.
        let hungry = {
            let surface = BudgetSurface::from_fn(&space(), |a| {
                9.0 + 6.0 * (20.0 - f64::from(a.cache)) / 18.0
            })
            .unwrap();
            VcpuSpec::new(VcpuId(0), VmId(0), 10.0, surface, vec![TaskId(0)]).unwrap()
        };
        let modest = flat_vcpu(1, 10.0, 5.0);
        let platform = Platform::platform_a();
        let even = evenly_partitioned(vec![hungry.clone(), modest.clone()], &platform);
        assert!(!even.is_schedulable(), "even split should fail");
        let heur = heuristic(
            vec![hungry, modest],
            &platform,
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert!(
            heur.is_schedulable(),
            "heuristic should find the skewed split"
        );
    }

    #[test]
    fn determinism_for_seed() {
        let vcpus: Vec<VcpuSpec> = (0..6)
            .map(|i| cache_hungry_vcpu(i, 10.0, 2.0, 0.8))
            .collect();
        let platform = Platform::platform_a();
        let a = heuristic(
            vcpus.clone(),
            &platform,
            HeuristicConfig::default(),
            &mut DetRng::seed_from_u64(7),
        );
        let b = heuristic(
            vcpus,
            &platform,
            HeuristicConfig::default(),
            &mut DetRng::seed_from_u64(7),
        );
        assert_eq!(a, b);
    }
}
