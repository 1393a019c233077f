//! Multi-resource allocation algorithms for vC²M (Section 4 of the
//! paper).
//!
//! Given a set of VMs with real-time tasks on a multicore platform,
//! compute:
//!
//! 1. a set of VCPUs for each VM and an assignment of tasks to VCPUs
//!    (the **VM level**, [`vm_level`]);
//! 2. an assignment of VCPUs to cores and the number of cache and
//!    memory-bandwidth partitions for each core (the **hypervisor
//!    level**, [`hypervisor_level`]);
//!
//! such that every task meets its deadline.
//!
//! The crate implements all five solutions compared in the paper's
//! evaluation (Section 5) behind the [`Solution`] enum:
//!
//! | Solution | VM level | VCPU sizing | Hypervisor level |
//! |----------|----------|-------------|------------------|
//! | `HeuristicFlattening` | one VCPU per task | Theorem 1 | 3-phase heuristic |
//! | `HeuristicOverheadFree` | k-means clustering | Theorem 2 | 3-phase heuristic |
//! | `HeuristicExisting` | k-means clustering | periodic resource model | 3-phase heuristic |
//! | `EvenlyPartition` | best-fit bin packing | Theorem 2 | best-fit, even cache/BW |
//! | `Baseline` | best-fit bin packing | periodic resource model, worst-case WCETs | best-fit, resources ignored |
//!
//! # Example
//!
//! ```
//! use vc2m_alloc::{Solution, SystemAllocation};
//! use vc2m_model::{Platform, TaskSet, Task, TaskId, VmId, VmSpec, WcetSurface};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::platform_a();
//! let space = platform.resources();
//! let tasks: TaskSet = (0..4)
//!     .map(|i| Task::new(TaskId(i), 100.0, WcetSurface::flat(&space, 10.0).unwrap()))
//!     .collect::<Result<_, _>>()?;
//! let vms = vec![VmSpec::new(VmId(0), tasks)?];
//!
//! let outcome = Solution::HeuristicFlattening.allocate(&vms, &platform, 42);
//! let allocation: &SystemAllocation = outcome.allocation().expect("schedulable");
//! assert!(allocation.verify(&platform).is_ok());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod result;

pub mod admission;
pub mod degrade;
pub mod fleet;
pub mod hypervisor_level;
pub mod kmeans;
pub mod packing;
pub mod recovery;
pub mod solution;
pub mod vm_level;

pub use admission::{
    AdmissionConfig, AdmissionDecision, AdmissionEngine, AdmissionPath, AdmissionRequest,
    AdmissionStats, AdmissionVerdict, RequestKind,
};
pub use degrade::{
    allocate_with_degradation, Criticality, DegradationOutcome, DegradationPolicy,
    DegradationReport, ShedVm,
};
pub use error::AllocError;
pub use fleet::{
    AdmissionFleet, EvacuationExhausted, EvacuationPolicy, FleetConfig, FleetDecision, FleetFault,
    FleetFaultPlan, FleetFaultSpec, FleetRouter, FleetScenario, FleetStats, FleetWorkItem,
    ScheduledFleetFault,
};
pub use recovery::{DecisionJournal, JournalRecord, RecoveryError};
pub use result::{AllocationOutcome, CoreAssignment, SystemAllocation};
pub use solution::Solution;
