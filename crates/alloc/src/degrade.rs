//! Graceful degradation: bounded re-allocation with VM shedding.
//!
//! When a workload fails admission, a robust system does not simply
//! refuse service — it degrades *predictably*: shed the least
//! important work, retry, and report exactly what was sacrificed.
//! [`allocate_with_degradation`] wraps a [`Solution`] in that loop:
//!
//! 1. attempt a full allocation of the working set;
//! 2. on failure (an [`AllocError`] or an unschedulable verdict), shed
//!    the VM with the **highest** reference utilization within the
//!    lowest [`Criticality`] class present — so LO VMs go before any
//!    HI VM, and the lowest-utilization VMs of a class are shed
//!    *last* — and retry;
//! 3. stop after [`DegradationPolicy::max_attempts`] attempts or when
//!    the working set is empty.
//!
//! Every accepted allocation is re-checked with
//! [`SystemAllocation::verify`] before being returned: the controller
//! **never** returns an allocation it cannot prove schedulable. The
//! whole loop is deterministic — shedding breaks utilization ties by
//! first position, and the allocator itself is seeded.
//!
//! This is the one entry point: a caller without mixed criticality
//! passes an empty criticality slice, which makes every VM LO.

use crate::error::AllocError;
use crate::result::SystemAllocation;
use crate::solution::Solution;
use std::fmt;
use vc2m_analysis::DirtyCores;
use vc2m_model::{Platform, VmId, VmSpec};

/// Criticality level of a VM (H-MBR-style mixed criticality).
///
/// HI VMs keep their guarantees while LO VMs degrade first: both the
/// degradation controller's shed order
/// ([`allocate_with_degradation`]) and the fleet's
/// evacuation order are *criticality-major* — every LO VM is
/// sacrificed before the first HI VM is touched, with ties broken by
/// the historical utilization-desc/id-asc rule. The default is LO, so
/// workloads that never mention criticality behave exactly as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Criticality {
    /// Low criticality: shed and evacuated first.
    #[default]
    Lo,
    /// High criticality: protected — shed only when no LO VM remains.
    Hi,
}

impl Criticality {
    /// Stable upper-case name used in logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Criticality::Lo => "LO",
            Criticality::Hi => "HI",
        }
    }
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Bounds on the degradation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Maximum number of allocation attempts (including the first).
    /// Each failed attempt sheds one VM, so at most
    /// `max_attempts - 1` VMs are shed.
    pub max_attempts: usize,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy { max_attempts: 8 }
    }
}

impl DegradationPolicy {
    /// A policy with the given attempt bound (at least 1).
    pub fn with_max_attempts(max_attempts: usize) -> Self {
        DegradationPolicy {
            max_attempts: max_attempts.max(1),
        }
    }
}

/// One VM shed by the degradation controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedVm {
    /// The shed VM.
    pub vm: VmId,
    /// Its reference utilization (the shed ordering key within a
    /// criticality class).
    pub utilization: f64,
    /// The shed VM's criticality (the major ordering key: LO sheds
    /// first, HI only when no LO remains).
    pub criticality: Criticality,
    /// The 1-based attempt whose failure caused the shed.
    pub attempt: usize,
    /// Why the attempt failed (allocator error or unschedulable
    /// verdict), for the operator's log.
    pub reason: String,
}

/// What the degradation controller did, structured for reporting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationReport {
    /// Number of allocation attempts made.
    pub attempts: usize,
    /// VMs shed, in shed order (non-increasing utilization).
    pub shed: Vec<ShedVm>,
    /// VMs admitted by the final accepted allocation (empty if none
    /// was accepted).
    pub admitted: Vec<VmId>,
}

impl DegradationReport {
    /// Whether any VM was shed.
    pub fn is_degraded(&self) -> bool {
        !self.shed.is_empty()
    }
}

/// The outcome of [`allocate_with_degradation`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationOutcome {
    /// The accepted (verified schedulable) allocation, if any attempt
    /// succeeded within the policy's bounds.
    pub allocation: Option<SystemAllocation>,
    /// What happened along the way.
    pub report: DegradationReport,
}

impl DegradationOutcome {
    /// Whether an allocation was accepted but some VMs were shed.
    pub fn is_degraded(&self) -> bool {
        self.allocation.is_some() && self.report.is_degraded()
    }
}

/// Allocates `vms` with `solution`, shedding VMs on failure until an
/// allocation is accepted or the policy's attempt bound is hit (see
/// the [module docs](self)).
///
/// `criticalities` is parallel to `vms`; missing entries default to
/// [`Criticality::Lo`], so an empty slice means every VM is LO.
/// Shedding is *criticality-major*: the highest-utilization **LO** VM
/// is shed first (ties by first position), and a HI VM is only ever
/// shed once no LO VM remains in the working set — so HI guarantees
/// survive as long as there is any LO work left to sacrifice.
///
/// The returned allocation, when present, has passed
/// [`SystemAllocation::verify`] against `platform` — including the
/// schedulability of every core — so an accepted solution is never
/// unschedulable.
pub fn allocate_with_degradation(
    solution: Solution,
    vms: &[VmSpec],
    criticalities: &[Criticality],
    platform: &Platform,
    seed: u64,
    policy: &DegradationPolicy,
) -> DegradationOutcome {
    let mut working: Vec<VmSpec> = vms.to_vec();
    let mut crits: Vec<Criticality> = (0..vms.len())
        .map(|i| criticalities.get(i).copied().unwrap_or_default())
        .collect();
    let mut report = DegradationReport::default();
    let mut proven = ProvenCores::default();

    while !working.is_empty() && report.attempts < policy.max_attempts {
        report.attempts += 1;
        let failure = match solution.try_allocate(&working, platform, seed) {
            Ok(outcome) => match outcome.into_allocation() {
                Some(allocation) => {
                    // Re-verify before accepting: the controller's
                    // contract is that an accepted allocation is
                    // provably schedulable, so a verdict the verifier
                    // cannot reproduce is treated as a failed attempt.
                    // Retries skip the schedulability re-check for
                    // cores whose exact content was already proven by
                    // an earlier attempt's verification (shedding
                    // typically perturbs only part of the packing);
                    // structural invariants are always checked in
                    // full, and the verdict is pinned bit-identical
                    // to a full verify by the regression suite.
                    match proven.verify(&allocation, platform) {
                        Ok(()) => {
                            report.admitted = working.iter().map(|vm| vm.id()).collect();
                            return DegradationOutcome {
                                allocation: Some(allocation),
                                report,
                            };
                        }
                        Err(e) => format!("verification failed: {e}"),
                    }
                }
                None => "workload not schedulable".to_string(),
            },
            Err(e) => e.to_string(),
        };
        shed_heaviest(&mut working, &mut crits, report.attempts, failure, &mut report.shed);
    }

    DegradationOutcome {
        allocation: None,
        report,
    }
}

/// Schedulability proofs carried across degradation retries: for every
/// allocation an earlier attempt verified, which of its cores passed
/// the per-core EDF test.
///
/// A retry candidate's core is *clean* when it is content-identical
/// ([`SystemAllocation::core_content_eq`]) to a proven core — the core
/// test is a pure function of the core's own VCPU parameters and
/// `Alloc`, so the earlier verdict transfers exactly; everything else
/// is dirty and re-checked. Because clean cores cannot fail, the first
/// failing core (and thus the error text and the shed trace) is
/// bit-identical to what a full verify would produce.
#[derive(Debug, Default)]
struct ProvenCores {
    attempts: Vec<(SystemAllocation, Vec<bool>)>,
}

impl ProvenCores {
    /// Whether `allocation`'s core `k` matches a core already proven
    /// schedulable by an earlier attempt.
    fn is_proven(&self, allocation: &SystemAllocation, k: usize) -> bool {
        self.attempts.iter().any(|(prev, schedulable)| {
            (0..prev.cores_used()).any(|j| schedulable[j] && allocation.core_content_eq(k, prev, j))
        })
    }

    /// Verifies `allocation` — structure in full, schedulability only
    /// for unproven cores — and records the proofs this verification
    /// establishes for later retries.
    fn verify(&mut self, allocation: &SystemAllocation, platform: &Platform) -> Result<(), AllocError> {
        let cores = allocation.cores_used();
        let mut inherited = vec![false; cores];
        let mut dirty = DirtyCores::new();
        for (k, proven) in inherited.iter_mut().enumerate() {
            if self.is_proven(allocation, k) {
                *proven = true;
            } else {
                dirty.mark(k);
            }
        }
        match allocation.verify_cores_detailed(platform, &dirty) {
            Ok(()) => Ok(()),
            Err((failed, e)) => {
                if let Some(f) = failed {
                    // Dirty cores are marked in ascending order, so
                    // every dirty core below the failing index passed
                    // its check — keep those proofs for the retries.
                    let mut schedulable = inherited;
                    for k in dirty.iter().take_while(|&k| k < f) {
                        schedulable[k] = true;
                    }
                    self.attempts.push((allocation.clone(), schedulable));
                }
                Err(e)
            }
        }
    }
}

/// Removes the criticality-major heaviest VM from `working`: the
/// highest-utilization **LO** VM (first position wins ties —
/// deterministic), falling back to the HI VMs only when no LO VM
/// remains. Records the victim in `shed`.
fn shed_heaviest(
    working: &mut Vec<VmSpec>,
    crits: &mut Vec<Criticality>,
    attempt: usize,
    reason: String,
    shed: &mut Vec<ShedVm>,
) {
    let class = if crits.contains(&Criticality::Lo) {
        Criticality::Lo
    } else {
        Criticality::Hi
    };
    let mut heaviest: Option<(usize, f64)> = None;
    for (i, vm) in working.iter().enumerate() {
        if crits[i] != class {
            continue;
        }
        let u = vm.reference_utilization();
        if heaviest.is_none_or(|(_, best)| u > best) {
            heaviest = Some((i, u));
        }
    }
    if let Some((index, utilization)) = heaviest {
        let vm = working.remove(index);
        crits.remove(index);
        shed.push(ShedVm {
            vm: vm.id(),
            utilization,
            criticality: class,
            attempt,
            reason,
        });
    }
}

/// Convenience: the error a caller can surface when degradation ran
/// out of attempts (keeps call sites from inventing ad-hoc strings).
pub fn exhausted_error(report: &DegradationReport) -> AllocError {
    AllocError::InvalidAllocation {
        detail: format!(
            "degradation exhausted after {} attempts ({} VMs shed)",
            report.attempts,
            report.shed.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::{Platform, Task, TaskId, TaskSet, VmId, VmSpec, WcetSurface};

    fn vm(id: usize, task_base: usize, wcet_ms: f64, n: usize) -> VmSpec {
        let platform = Platform::platform_a();
        let space = platform.resources();
        let tasks: TaskSet = (0..n)
            .map(|i| {
                Task::new(
                    TaskId(task_base + i),
                    10.0,
                    WcetSurface::flat(&space, wcet_ms).unwrap(),
                )
                .unwrap()
            })
            .collect();
        VmSpec::new(VmId(id), tasks).unwrap()
    }

    #[test]
    fn light_workload_admits_everything() {
        let platform = Platform::platform_a();
        let vms = vec![vm(0, 0, 1.0, 2), vm(1, 100, 1.0, 2)];
        let outcome = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &[],
            &platform,
            7,
            &DegradationPolicy::default(),
        );
        let allocation = outcome.allocation.clone().expect("light workload admits");
        assert!(allocation.verify(&platform).is_ok());
        assert!(!outcome.is_degraded());
        assert_eq!(outcome.report.attempts, 1);
        assert_eq!(outcome.report.admitted, vec![VmId(0), VmId(1)]);
        assert!(outcome.report.shed.is_empty());
    }

    #[test]
    fn overload_sheds_heaviest_first_and_lightest_last() {
        let platform = Platform::platform_a();
        // Far more demand than 4 cores can serve: per-VM utilizations
        // 8.0, 4.0, 0.4 — the 0.4 VM must survive.
        let vms = vec![vm(0, 0, 8.0, 10), vm(1, 100, 8.0, 5), vm(2, 200, 2.0, 2)];
        let outcome = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &[],
            &platform,
            7,
            &DegradationPolicy::default(),
        );
        let allocation = outcome.allocation.clone().expect("light VM is admittable alone");
        assert!(allocation.verify(&platform).is_ok());
        assert!(outcome.is_degraded());
        // Shed order is non-increasing utilization; the lightest VM is
        // shed last (here: not at all).
        let shed_ids: Vec<VmId> = outcome.report.shed.iter().map(|s| s.vm).collect();
        assert_eq!(shed_ids, vec![VmId(0), VmId(1)]);
        for pair in outcome.report.shed.windows(2) {
            assert!(pair[0].utilization >= pair[1].utilization);
        }
        assert_eq!(outcome.report.admitted, vec![VmId(2)]);
    }

    #[test]
    fn attempt_bound_is_respected() {
        let platform = Platform::platform_a();
        let vms = vec![vm(0, 0, 9.0, 10), vm(1, 100, 9.0, 10), vm(2, 200, 9.0, 10)];
        let policy = DegradationPolicy::with_max_attempts(2);
        let outcome = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &[],
            &platform,
            7,
            &policy,
        );
        assert!(outcome.allocation.is_none());
        assert_eq!(outcome.report.attempts, 2);
        assert_eq!(outcome.report.shed.len(), 2);
        assert!(outcome.report.admitted.is_empty());
        let err = exhausted_error(&outcome.report);
        assert!(err.to_string().contains("2 attempts"));
    }

    #[test]
    fn shedding_everything_reports_no_allocation() {
        let platform = Platform::platform_a();
        // A single VM whose demand (utilization 9.0) exceeds the
        // 4-core platform at any allocation.
        let vms = vec![vm(0, 0, 9.0, 10)];
        let outcome = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &[],
            &platform,
            7,
            &DegradationPolicy::default(),
        );
        assert!(outcome.allocation.is_none());
        assert!(outcome.report.is_degraded());
        assert!(!outcome.is_degraded()); // nothing accepted
        assert_eq!(outcome.report.shed.len(), 1);
        assert_eq!(outcome.report.shed[0].attempt, 1);
    }

    #[test]
    fn proven_cores_skip_is_pinned_to_full_verify() {
        use crate::result::CoreAssignment;
        use vc2m_model::{Alloc, BudgetSurface, VcpuId};

        let platform = Platform::platform_a();
        let space = platform.resources();
        let vcpu = |id: usize, budget: f64| {
            vc2m_model::VcpuSpec::new(
                VcpuId(id),
                VmId(0),
                10.0,
                BudgetSurface::flat(&space, budget).unwrap(),
                vec![TaskId(id)],
            )
            .unwrap()
        };
        let core = |vcpus: Vec<usize>| CoreAssignment {
            vcpus,
            alloc: Alloc::new(10, 10),
        };

        // Attempt 1: core 0 schedulable (u=0.4), core 1 not (u=1.2).
        let a = SystemAllocation::new(
            vec![vcpu(0, 4.0), vcpu(1, 6.0), vcpu(2, 6.0)],
            vec![core(vec![0]), core(vec![1, 2])],
        );
        let mut proven = ProvenCores::default();
        let partial = proven.verify(&a, &platform);
        assert_eq!(partial, a.verify(&platform), "verdicts must match bit-for-bit");
        assert!(partial.unwrap_err().to_string().contains("core 1"));
        // The failure proved core 0; a retry reusing its exact content
        // marks only the changed core dirty.
        assert!(proven.is_proven(&a, 0));
        assert!(!proven.is_proven(&a, 1));

        // Attempt 2: same core-0 content (even under different vcpu
        // numbering), the bad core replaced by a schedulable one.
        let b = SystemAllocation::new(
            vec![vcpu(1, 6.0), vcpu(0, 4.0)],
            vec![core(vec![1]), core(vec![0])],
        );
        assert!(proven.is_proven(&b, 0), "renumbered content still matches");
        assert_eq!(proven.verify(&b, &platform), b.verify(&platform));
        assert!(proven.verify(&b, &platform).is_ok());

        // A retry that reintroduces the unproven core content is still
        // rejected — nothing ever proved it.
        let c = SystemAllocation::new(
            vec![vcpu(0, 4.0), vcpu(1, 6.0), vcpu(2, 6.0)],
            vec![core(vec![0]), core(vec![1, 2])],
        );
        assert_eq!(proven.verify(&c, &platform), c.verify(&platform));
        assert!(proven.verify(&c, &platform).is_err());
    }

    #[test]
    fn criticality_major_shed_protects_hi_until_lo_is_gone() {
        let platform = Platform::platform_a();
        // The HI VM is light (u=0.4) but the LO VMs are the heavies
        // (u=8.0, u=4.0): utilization-only shedding would never touch
        // the HI VM here, so also check the ordering *within* LO.
        let vms = vec![vm(0, 0, 2.0, 2), vm(1, 100, 8.0, 10), vm(2, 200, 8.0, 5)];
        let crits = [Criticality::Hi, Criticality::Lo, Criticality::Lo];
        let outcome = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &crits,
            &platform,
            7,
            &DegradationPolicy::default(),
        );
        let allocation = outcome.allocation.clone().expect("HI VM is admittable alone");
        assert!(allocation.verify(&platform).is_ok());
        let shed_ids: Vec<VmId> = outcome.report.shed.iter().map(|s| s.vm).collect();
        assert_eq!(shed_ids, vec![VmId(1), VmId(2)]);
        assert!(outcome.report.shed.iter().all(|s| s.criticality == Criticality::Lo));
        for pair in outcome.report.shed.windows(2) {
            assert!(pair[0].utilization >= pair[1].utilization);
        }
        assert_eq!(outcome.report.admitted, vec![VmId(0)]);
    }

    #[test]
    fn hi_is_shed_only_after_every_lo_is_gone() {
        let platform = Platform::platform_a();
        // The HI VM alone exceeds the platform, so even the protected
        // class is eventually shed — but only after every LO VM.
        let vms = vec![vm(0, 0, 9.0, 10), vm(1, 100, 2.0, 2)];
        let crits = [Criticality::Hi, Criticality::Lo];
        let outcome = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &crits,
            &platform,
            7,
            &DegradationPolicy::default(),
        );
        assert!(outcome.allocation.is_none());
        let order: Vec<Criticality> = outcome.report.shed.iter().map(|s| s.criticality).collect();
        assert_eq!(order, vec![Criticality::Lo, Criticality::Hi]);
        // The invariant proper: once a HI VM has been shed, no LO shed
        // may follow (every LO was already gone).
        let first_hi = order.iter().position(|c| *c == Criticality::Hi);
        if let Some(i) = first_hi {
            assert!(order[i..].iter().all(|c| *c == Criticality::Hi));
        }
    }

    #[test]
    fn plain_entry_point_is_the_all_lo_special_case() {
        let platform = Platform::platform_a();
        let vms = vec![vm(0, 0, 8.0, 10), vm(1, 100, 8.0, 5), vm(2, 200, 2.0, 2)];
        let policy = DegradationPolicy::default();
        let run = |criticalities: &[Criticality]| {
            allocate_with_degradation(
                Solution::HeuristicFlattening,
                &vms,
                criticalities,
                &platform,
                7,
                &policy,
            )
        };
        let unlabelled = run(&[]);
        assert_eq!(unlabelled, run(&[Criticality::Lo; 3]));
        assert!(unlabelled.report.shed.iter().all(|s| s.criticality == Criticality::Lo));
    }

    #[test]
    fn deterministic_across_runs() {
        let platform = Platform::platform_a();
        let vms = vec![vm(0, 0, 8.0, 10), vm(1, 100, 8.0, 5), vm(2, 200, 2.0, 2)];
        let a = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &[],
            &platform,
            7,
            &DegradationPolicy::default(),
        );
        let b = allocate_with_degradation(
            Solution::HeuristicFlattening,
            &vms,
            &[],
            &platform,
            7,
            &DegradationPolicy::default(),
        );
        assert_eq!(a, b);
    }
}
