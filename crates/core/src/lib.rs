//! # vC²M — holistic multi-resource allocation for multicore real-time
//! virtualization
//!
//! A from-scratch Rust reproduction of the DAC 2019 paper by Xu,
//! Gifford and Phan. vC²M jointly allocates **CPU time, shared cache
//! partitions and memory bandwidth** to the virtual CPUs of real-time
//! virtual machines, removing the *abstraction overhead* of classical
//! compositional analysis and isolating concurrent tasks from each
//! other's cache and memory-bus interference.
//!
//! This crate is the facade over the workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`model`] | tasks, VCPUs, VMs, platforms, WCET surfaces |
//! | [`analysis`] | flattening (Thm 1), overhead-free CSA (Thm 2), periodic resource model |
//! | [`alloc`] | k-means, VM-level and hypervisor-level allocation, the five evaluated solutions |
//! | [`workload`] | PARSEC-style benchmark profiles and random taskset generation |
//! | [`hypervisor`] | the discrete-event hypervisor simulator (RTDS-style scheduling, vCAT, BW regulation) |
//! | [`cat`], [`membw`], [`sched`], [`simcore`] | the underlying substrates |
//! | [`rng`] | the in-tree deterministic RNG and seeded case harness |
//! | [`sweep`] | the schedulability-experiment engine behind Figures 2–4 |
//!
//! # Quickstart
//!
//! ```
//! use vc2m::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 4-core platform with 20 cache and 20 bandwidth partitions.
//! let platform = Platform::platform_a();
//!
//! // A random workload at reference utilization 1.0.
//! let config = TasksetConfig::new(1.0, UtilizationDist::Uniform);
//! let mut generator = TasksetGenerator::new(platform.resources(), config, 42);
//! let tasks = generator.generate();
//! let vms = vec![VmSpec::new(VmId(0), tasks.clone())?];
//!
//! // Allocate with vC²M (flattening) and validate by simulation.
//! if let Some(allocation) = Solution::HeuristicFlattening
//!     .allocate(&vms, &platform, 42)
//!     .into_allocation()
//! {
//!     let report = HypervisorSim::new(&platform, &allocation, &tasks, SimConfig::default())?
//!         .run()?;
//!     assert!(report.all_deadlines_met());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod sweep;

pub use vc2m_alloc as alloc;
pub use vc2m_analysis as analysis;
pub use vc2m_cat as cat;
pub use vc2m_hypervisor as hypervisor;
pub use vc2m_membw as membw;
pub use vc2m_model as model;
pub use vc2m_rng as rng;
pub use vc2m_sched as sched;
pub use vc2m_simcore as simcore;
pub use vc2m_workload as workload;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::admission::{AdmissionTrace, TraceItem, TraceRequest, TraceSpec};
    pub use crate::sweep::{utilization_steps, SweepConfig, SweepResults};
    pub use vc2m_alloc::{
        allocate_with_degradation, AdmissionConfig,
        AdmissionDecision, AdmissionEngine, AdmissionFleet, AdmissionPath, AdmissionRequest,
        AdmissionStats, AdmissionVerdict, AllocationOutcome, Criticality, DecisionJournal,
        DegradationOutcome, DegradationPolicy, DegradationReport, EvacuationExhausted,
        EvacuationPolicy, FleetConfig, FleetDecision, FleetFault, FleetFaultPlan, FleetFaultSpec,
        FleetRouter, FleetScenario, FleetStats, FleetWorkItem, JournalRecord, RecoveryError,
        RequestKind, ScheduledFleetFault, Solution, SystemAllocation,
    };
    pub use vc2m_analysis::{AnalysisCache, CacheStats};
    pub use vc2m_hypervisor::{
        Fault, FaultKind, FaultPlan, FaultPlanSpec, FaultTargets, HypervisorSim, IsolationMode,
        SimConfig, SimError, SimReport,
    };
    pub use vc2m_model::{
        Alloc, Platform, ResourceSpace, Task, TaskId, TaskSet, VcpuId, VcpuSpec, VmId, VmSpec,
        WcetSurface,
    };
    pub use vc2m_workload::{ParsecBenchmark, TasksetConfig, TasksetGenerator, UtilizationDist};
}
