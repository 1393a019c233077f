//! The discrete-event hypervisor simulation.
//!
//! Realizes a [`SystemAllocation`] as a running two-level system:
//!
//! * each physical core runs the VCPUs assigned to it under
//!   partitioned EDF with the paper's deterministic tie-break
//!   (deadline, then period, then VCPU index);
//! * each VCPU is a **periodic server** — its budget replenishes every
//!   period, drains while it runs (even when its tasks are idle, which
//!   is what makes the supply pattern *well-regulated*), and is lost at
//!   the period boundary;
//! * tasks inside a VCPU run under EDF (for implicit deadlines this is
//!   FIFO per task with earliest-deadline-first across tasks);
//! * the CAT partition plan and the bandwidth regulator are programmed
//!   from the allocation; task memory traffic (when enabled) drains
//!   per-core request budgets, and overflow throttles the core — the
//!   core idles until the refiller's next period.
//!
//! Execution requirements are the allocation-dependent WCETs
//! `eᵢ(c, b)` of each task's core — exactly the quantities the
//! analyses reason about — so a run is a direct check of the analyses'
//! verdicts: an allocation declared schedulable must produce zero
//! deadline misses.

mod shard;

pub use shard::CorePartition;

use crate::config::{IsolationMode, SimConfig};
use crate::error::{SimConfigError, SimError};
use crate::fault::{Fault, FaultKind, FaultPlan, FaultStats};
use crate::probes::Probes;
use crate::report::{DeadlineMiss, HandlerKind, SimReport};
use crate::trace::{SimObservation, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use vc2m_alloc::SystemAllocation;
use vc2m_cat::{CatController, PartitionPlan};
use vc2m_membw::{budget_requests_per_period, BwRegulator, RegulatorConfig, ThrottleAction};
use vc2m_model::{
    Alloc, BudgetSurface, Platform, SimDuration, SimTime, Task, TaskId, TaskSet, VmId, WcetSurface,
};
use vc2m_sched::server::{PeriodicServer, ServerState};
use vc2m_simcore::{EventQueue, MetricsRegistry, MinAvgMax, TraceBuffer};

/// Error building a simulation from an allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimBuildError {
    /// A task referenced by the allocation was missing from the task
    /// table.
    UnknownTask {
        /// The missing task id.
        task: TaskId,
    },
    /// A VCPU's budget exceeds its period at its core's allocation —
    /// the allocation is infeasible and cannot be realized as a
    /// periodic server.
    InfeasibleBudget {
        /// Index of the offending VCPU in the allocation.
        vcpu: usize,
    },
    /// A task's WCET at its core's allocation rounds to zero
    /// nanoseconds. Its jobs would run zero-length segments that end
    /// at the instant they start, whose trace records a sharded run
    /// cannot place in the serial order, so such tasks are rejected.
    ZeroWcet {
        /// The task whose WCET rounds to zero.
        task: TaskId,
        /// The core it is assigned to.
        core: usize,
    },
    /// The allocation failed CAT programming (overcommitted
    /// partitions).
    Cat(vc2m_cat::CatError),
    /// The simulation configuration is malformed (see
    /// [`SimConfig::validate`]).
    Config(SimConfigError),
}

impl fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimBuildError::UnknownTask { task } => {
                write!(f, "allocation references unknown task {task}")
            }
            SimBuildError::InfeasibleBudget { vcpu } => {
                write!(
                    f,
                    "vcpu #{vcpu} has budget exceeding its period at its core's allocation"
                )
            }
            SimBuildError::ZeroWcet { task, core } => {
                write!(f, "{task} has a WCET that rounds to 0 ns on core {core}")
            }
            SimBuildError::Cat(e) => write!(f, "cache programming failed: {e}"),
            SimBuildError::Config(e) => write!(f, "invalid simulation config: {e}"),
        }
    }
}

impl Error for SimBuildError {}

impl From<vc2m_cat::CatError> for SimBuildError {
    fn from(e: vc2m_cat::CatError) -> Self {
        SimBuildError::Cat(e)
    }
}

impl From<SimConfigError> for SimBuildError {
    fn from(e: SimConfigError) -> Self {
        SimBuildError::Config(e)
    }
}

/// A pending job of a task.
#[derive(Debug, Clone, Copy)]
struct Job {
    index: u64,
    release: SimTime,
    deadline: SimTime,
    remaining: SimDuration,
}

#[derive(Debug, Clone)]
struct SimTask {
    id: TaskId,
    period: SimDuration,
    exec: SimDuration,
    /// The full WCET surface, for dynamic reallocations.
    wcet_surface: WcetSurface,
    /// First-release offset (the delay L between task initialization
    /// and first release of Section 3.2).
    offset: SimDuration,
    vcpu: usize,
    /// Memory requests per millisecond of execution.
    request_rate: f64,
    /// Pending jobs, oldest first (FIFO = EDF for implicit deadlines).
    pending: Vec<Job>,
    next_index: u64,
    response: MinAvgMax,
    /// Active WCET-overrun fault: jobs released before `overrun_until`
    /// carry `overrun_factor ×` their declared demand.
    overrun_factor: f64,
    overrun_until: SimTime,
}

impl SimTask {
    /// The execution demand of a job released at `now`, including any
    /// active overrun fault. Returns the demand and whether the
    /// overrun applied.
    fn release_demand(&self, now: SimTime) -> (SimDuration, bool) {
        if now < self.overrun_until && self.overrun_factor > 1.0 {
            let inflated = (self.exec.as_ns() as f64 * self.overrun_factor).round() as u64;
            (SimDuration(inflated), true)
        } else {
            (self.exec, false)
        }
    }
}

#[derive(Debug, Clone)]
struct SimVcpu {
    server: PeriodicServer,
    tasks: Vec<usize>,
    core: usize,
    /// The VM this VCPU belongs to (fault targeting).
    vm: VmId,
    /// The full budget surface, for dynamic reallocations.
    budget_surface: BudgetSurface,
    /// A pending replenishment-delay fault: the next replenishment is
    /// postponed by this much.
    pending_replenish_delay: Option<SimDuration>,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    vcpu: usize,
    task: Option<usize>,
    start: SimTime,
}

#[derive(Debug, Clone)]
struct SimCore {
    vcpus: Vec<usize>,
    running: Option<Running>,
    generation: u64,
    throttled: bool,
    /// When the current throttle/stall began (for time accounting).
    throttled_since: Option<SimTime>,
    /// An injected throttle fault or core stall holds the core idle
    /// until this instant (cleared by its `FaultClear` event).
    fault_until: Option<SimTime>,
    last_vcpu: Option<usize>,
    /// Nanoseconds spent executing tasks.
    busy_ns: u64,
    /// Nanoseconds spent bandwidth-throttled or fault-stalled.
    throttled_ns: u64,
}

impl SimCore {
    /// Whether the core may not execute anything right now.
    fn is_held(&self) -> bool {
        self.throttled || self.fault_until.is_some()
    }
}

/// A fault with its targets resolved to internal indices (validated by
/// [`HypervisorSim::with_fault_plan`]).
#[derive(Debug, Clone)]
enum ResolvedFault {
    WcetOverrun {
        task: usize,
        factor: f64,
        window: SimDuration,
    },
    ReplenishDelay {
        vcpu: usize,
        delay: SimDuration,
    },
    ThrottleFault {
        core: usize,
    },
    CoreStall {
        core: usize,
        duration: SimDuration,
    },
    LoadSpike {
        tasks: Vec<usize>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A planned run segment on a core ended (completion, budget
    /// exhaustion, server deadline, or traffic overflow).
    SegmentEnd { core: usize, generation: u64 },
    /// A VCPU's period boundary: replenish its budget.
    ServerReplenish { vcpu: usize },
    /// The bandwidth refiller's period boundary.
    Refill,
    /// A scheduled dynamic reallocation (vCAT-style mode change).
    Reallocate { index: usize },
    /// A scheduled fault is injected (index into the resolved plan).
    FaultInject { index: usize },
    /// An injected throttle fault or core stall expires.
    FaultClear { core: usize },
    /// A task releases its next job.
    JobRelease { task: usize },
    /// A job's deadline passes: check for a miss.
    DeadlineCheck { task: usize, job: u64 },
}

// Same-instant ordering: account run segments first, then replenish
// CPU budgets, then refill bandwidth (fault expiries behave like
// refill wakes), then inject faults, then release jobs (so an overrun
// window opening at t already covers releases at t), then check
// deadlines. The relative order of the pre-fault event kinds is
// unchanged from before fault injection existed, which keeps every
// fault-free schedule — and the golden traces pinned over them —
// bit-identical.
const PRIO_SEGMENT_END: u64 = 0;
const PRIO_REPLENISH: u64 = 1;
const PRIO_REFILL: u64 = 2;
const PRIO_REALLOC: u64 = 2;
const PRIO_FAULT: u64 = 3;
const PRIO_RELEASE: u64 = 4;
const PRIO_DEADLINE: u64 = 5;

// Canonical keys order simultaneous equal-priority events by content,
// so the serial delivery order is reconstructible from independently
// advancing shards (see [`shard`]). Within the shared priority class 2
// the order is: reallocations (key = index), then the bandwidth refill
// (`REFILL_KEY`), then fault-stall expiries (`FAULT_CLEAR_BASE +
// core`) — matching the historical insertion order, where the refill
// chain and reallocations are seeded up front while `FaultClear` is
// pushed mid-run.
const REFILL_KEY: u64 = 1 << 60;
const FAULT_CLEAR_BASE: u64 = REFILL_KEY + 1;

// Trace-tag subkey lanes for records emitted *within* one event's
// handling (see `TaggedRing`): the refill phases stamp
// `phase * TAG_SPAN + core`, a load spike stamps `1 + task` per
// released job. Core/task indices stay far below `TAG_SPAN`.
const TAG_SPAN: u64 = 1 << 32;

// Horizon-flush trace records sort after every real event priority.
const PRIO_FLUSH: u64 = PRIO_DEADLINE + 1;

/// Numeric-residue tolerance at a deadline: real-valued budgets meet
/// integer-nanosecond time, so up to ~a microsecond of a job can
/// remain at its deadline purely from rounding. See the
/// `DeadlineCheck` handler.
const MISS_TOLERANCE: SimDuration = SimDuration(1_000);

/// Restricts a simulation clone to one core group of a sharded run:
/// the shard advances only events whose target lives on an owned core
/// and runs to the horizon independently of its peers.
#[derive(Debug, Clone)]
struct ShardScope {
    /// Owned core indices, ascending.
    cores: Vec<usize>,
    /// `local[k]` for every core of the full system.
    local: Vec<bool>,
}

/// One record of a shard's trace ring, tagged with its canonical
/// position in the serial emission order: the `(time, priority, key)`
/// ordering prefix of the event being handled when it was emitted, a
/// `subkey` separating emission lanes within one handler (refill
/// phases, load-spike job releases), and the shard-local emission
/// counter `order`. Sorting the union of shard rings by
/// `(time, priority, key, subkey, order)` reproduces the serial ring.
#[derive(Debug, Clone, Copy)]
struct ShardTraceRecord {
    time: SimTime,
    priority: u64,
    key: u64,
    subkey: u64,
    order: u64,
    event: TraceEvent,
}

impl ShardTraceRecord {
    fn sort_key(&self) -> (SimTime, u64, u64, u64, u64) {
        (self.time, self.priority, self.key, self.subkey, self.order)
    }
}

/// A shard's bounded trace ring. Mirrors `TraceBuffer` eviction (keep
/// the newest `capacity` records, count the rest as dropped) but tags
/// each record for the cross-shard merge. A shard's records are
/// emitted in ascending tag order, so a record evicted *locally* can
/// never belong to the newest `capacity` records *globally* — which is
/// what makes merging the per-shard rings exact.
///
/// A shard emits no `Refill` record: it logs its wake count per
/// regulation period instead, and the merge synthesizes each record
/// from the counts summed over all shards.
#[derive(Debug, Clone)]
struct TaggedRing {
    ring: VecDeque<ShardTraceRecord>,
    capacity: usize,
    emitted: u64,
    refill_woken: Vec<usize>,
    priority: u64,
    key: u64,
    subkey: u64,
}

impl TaggedRing {
    fn new(capacity: usize) -> Self {
        TaggedRing {
            ring: VecDeque::new(),
            capacity,
            emitted: 0,
            refill_woken: Vec::new(),
            priority: 0,
            key: 0,
            subkey: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: TraceEvent) {
        let order = self.emitted;
        self.emitted += 1;
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(ShardTraceRecord {
            time,
            priority: self.priority,
            key: self.key,
            subkey: self.subkey,
            order,
            event,
        });
    }
}

/// The simulated hypervisor (see the [crate docs](crate) for the
/// model).
#[derive(Debug, Clone)]
pub struct HypervisorSim {
    config: SimConfig,
    tasks: Vec<SimTask>,
    vcpus: Vec<SimVcpu>,
    cores: Vec<SimCore>,
    queue: EventQueue<Event>,
    regulator: BwRegulator,
    /// Fractional memory-request carry per core (exact long-run
    /// traffic accounting).
    traffic_carry: Vec<f64>,
    /// Current per-core allocations (change under dynamic
    /// reallocation).
    core_allocs: Vec<Alloc>,
    /// Scheduled dynamic reallocations: (time, core, new allocation).
    reallocations: Vec<(SimTime, usize, Alloc)>,
    /// Platform geometry, needed to validate reallocations.
    platform: Platform,
    #[allow(dead_code)] // programmed for fidelity; queried by tests
    cat: CatController,
    probes: Probes,
    trace: TraceBuffer<TraceEvent>,
    /// Per-VCPU execution logs (only when config.record_supply).
    supply_logs: Vec<Option<crate::regulation::SupplyLog>>,
    /// The attached fault plan, if any (kept for replay/reporting; the
    /// `faults.*` metrics are exported exactly when this is set).
    fault_plan: Option<FaultPlan>,
    /// The plan with targets resolved to internal indices.
    resolved_faults: Vec<(SimTime, ResolvedFault)>,
    fault_stats: FaultStats,
    misses: Vec<DeadlineMiss>,
    jobs_completed: u64,
    jobs_released: u64,
    throttle_events: u64,
    context_switches: u64,
    /// Set on shard clones of a sharded run; `None` on the serial path.
    scope: Option<ShardScope>,
    /// Tag-merging trace ring of a shard clone; `None` on the serial
    /// path (which records into `trace` directly).
    tagged: Option<TaggedRing>,
}

impl HypervisorSim {
    /// Builds a simulation of `allocation` running `tasks` on
    /// `platform`.
    ///
    /// # Errors
    ///
    /// * [`SimBuildError::UnknownTask`] if the allocation references a
    ///   task not present in `tasks`.
    /// * [`SimBuildError::InfeasibleBudget`] if some VCPU's budget
    ///   exceeds its period at its core's allocation.
    /// * [`SimBuildError::ZeroWcet`] if some task's WCET at its core's
    ///   allocation rounds to 0 ns.
    /// * [`SimBuildError::Cat`] if the cache plan cannot be programmed.
    /// * [`SimBuildError::Config`] if the configuration fails
    ///   [`SimConfig::validate`].
    pub fn new(
        platform: &Platform,
        allocation: &SystemAllocation,
        tasks: &TaskSet,
        config: SimConfig,
    ) -> Result<Self, SimBuildError> {
        config.validate()?;
        let by_id: HashMap<TaskId, &Task> = tasks.iter().map(|t| (t.id(), t)).collect();
        let core_count = allocation.cores_used().max(1);

        // Cache plan: disjoint contiguous masks per core (isolated
        // mode) or the full cache for everyone (shared mode).
        let mut cat = CatController::new(
            core_count,
            core_count.max(1) as u32,
            platform.cache_partitions(),
        )?;
        if config.isolation == IsolationMode::Isolated && allocation.cores_used() > 0 {
            let counts: Vec<u32> = allocation.cores().iter().map(|c| c.alloc.cache).collect();
            PartitionPlan::contiguous(platform.cache_partitions(), &counts)?.program(&mut cat)?;
        }

        // Bandwidth regulator: per-core request budgets from the
        // allocation (isolated mode only).
        let regulation_ms = config.regulation_period.as_ms();
        // Audited expect: `config.validate()` above established a
        // positive regulation period and `core_count` is >= 1, the
        // only `RegulatorConfig::new` failure modes.
        #[allow(clippy::expect_used)]
        let mut regulator = BwRegulator::new(
            RegulatorConfig::new(core_count, regulation_ms).expect("validated config"),
        );
        if config.isolation == IsolationMode::Isolated {
            for (k, core) in allocation.cores().iter().enumerate() {
                let budget = budget_requests_per_period(
                    core.alloc.bandwidth,
                    platform.bw_partition_mbps(),
                    regulation_ms,
                );
                // Audited expect: `k` enumerates `allocation.cores()`
                // and the regulator was sized from the same count.
                #[allow(clippy::expect_used)]
                regulator
                    .set_budget(k, budget)
                    .expect("core index is in range");
            }
        }

        // Task and VCPU tables.
        let mut sim_tasks: Vec<SimTask> = Vec::new();
        let mut sim_vcpus: Vec<SimVcpu> = Vec::new();
        let mut cores: Vec<SimCore> = Vec::new();
        for (k, core) in allocation.cores().iter().enumerate() {
            let mut core_vcpus = Vec::new();
            // Traffic rates are defined relative to the *enforced*
            // budget; in shared mode there is no regulation and no
            // request accounting.
            let budget_rate = if config.isolation == IsolationMode::Isolated {
                regulator.budget(k).unwrap_or(u64::MAX) as f64 / regulation_ms
            } else {
                0.0
            };
            for &vi in &core.vcpus {
                let spec = &allocation.vcpus()[vi];
                let period = SimDuration::from_ms(spec.period());
                let budget_ms = spec.budget(core.alloc);
                if budget_ms > spec.period() + 1e-9 {
                    return Err(SimBuildError::InfeasibleBudget { vcpu: vi });
                }
                let budget = SimDuration::from_ms(budget_ms.min(spec.period()));
                let mut task_indices = Vec::new();
                for &tid in spec.tasks() {
                    let task = by_id
                        .get(&tid)
                        .ok_or(SimBuildError::UnknownTask { task: tid })?;
                    let exec = SimDuration::from_ms(task.wcet(core.alloc));
                    if exec == SimDuration::ZERO {
                        return Err(SimBuildError::ZeroWcet { task: tid, core: k });
                    }
                    task_indices.push(sim_tasks.len());
                    sim_tasks.push(SimTask {
                        id: tid,
                        period: SimDuration::from_ms(task.period()),
                        exec,
                        wcet_surface: task.wcet_surface().clone(),
                        offset: SimDuration::ZERO,
                        vcpu: sim_vcpus.len(),
                        request_rate: config.traffic_fraction * budget_rate,
                        pending: Vec::new(),
                        next_index: 0,
                        response: MinAvgMax::new(),
                        overrun_factor: 1.0,
                        overrun_until: SimTime::ZERO,
                    });
                }
                core_vcpus.push(sim_vcpus.len());
                sim_vcpus.push(SimVcpu {
                    server: PeriodicServer::new(spec.id(), period, budget, SimTime::ZERO),
                    tasks: task_indices,
                    core: k,
                    vm: spec.vm(),
                    budget_surface: spec.budget_surface().clone(),
                    pending_replenish_delay: None,
                });
            }
            cores.push(SimCore {
                vcpus: core_vcpus,
                running: None,
                generation: 0,
                throttled: false,
                throttled_since: None,
                fault_until: None,
                last_vcpu: None,
                busy_ns: 0,
                throttled_ns: 0,
            });
        }

        let trace = TraceBuffer::with_capacity(config.trace_capacity);
        let supply_logs = vec![None; sim_vcpus.len()];
        let core_count = cores.len();
        Ok(HypervisorSim {
            config,
            tasks: sim_tasks,
            vcpus: sim_vcpus,
            cores,
            queue: EventQueue::new(),
            regulator,
            traffic_carry: vec![0.0; core_count],
            core_allocs: allocation.cores().iter().map(|c| c.alloc).collect(),
            reallocations: Vec::new(),
            platform: *platform,
            cat,
            probes: Probes::new(),
            trace,
            supply_logs,
            fault_plan: None,
            resolved_faults: Vec::new(),
            fault_stats: FaultStats::default(),
            misses: Vec::new(),
            jobs_completed: 0,
            jobs_released: 0,
            throttle_events: 0,
            context_switches: 0,
            scope: None,
            tagged: None,
        })
    }

    /// Runs the simulation and returns the report together with the
    /// full [`SimObservation`] — the retained trace and a
    /// [`MetricsRegistry`] of the run's deterministic counters,
    /// gauges and histograms (simulator event counts, per-core time
    /// accounting, per-task response summaries, trace ring statistics,
    /// and the bandwidth regulator's counters). Enable tracing via
    /// [`SimConfig::with_trace_capacity`].
    ///
    /// Observation is passive: the report is bit-identical to what
    /// [`HypervisorSim::run`] produces for the same configuration.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run`].
    pub fn run_observed(mut self) -> Result<(SimReport, SimObservation), SimError> {
        let report = self.run_inner()?;
        let metrics = self.collect_metrics(&report);
        let observation = SimObservation {
            trace: self.trace.iter().map(|r| (r.time, r.payload)).collect(),
            trace_dropped: self.trace.dropped(),
            metrics,
        };
        Ok((report, observation))
    }

    /// Builds the metrics registry from the finished run. Strictly a
    /// read-out of already-accumulated state — nothing here may touch
    /// simulation behavior.
    fn collect_metrics(&self, report: &SimReport) -> MetricsRegistry {
        Self::render_metrics(
            &self.config,
            report,
            self.trace.len() as u64,
            self.trace.dropped(),
            &self.regulator,
            self.fault_plan.is_some().then_some(self.fault_stats),
        )
    }

    /// Renders the deterministic run counters into a registry — the
    /// single formatting point shared by the serial read-out and the
    /// sharded merge, so both produce byte-identical exports from equal
    /// inputs. Wall-clock handler overheads are left out deliberately:
    /// the registry holds only deterministic values, so its JSON
    /// rendering can be golden-pinned.
    fn render_metrics(
        config: &SimConfig,
        report: &SimReport,
        trace_recorded: u64,
        trace_dropped: u64,
        regulator: &BwRegulator,
        fault_stats: Option<FaultStats>,
    ) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("sim.jobs.released", report.jobs_released);
        m.counter_add("sim.jobs.completed", report.jobs_completed);
        m.counter_add("sim.deadline.misses", report.deadline_misses.len() as u64);
        m.counter_add("sim.throttle.events", report.throttle_events);
        m.counter_add("sim.context.switches", report.context_switches);
        m.counter_add("sim.trace.recorded", trace_recorded);
        m.counter_add("sim.trace.dropped", trace_dropped);
        m.gauge_set("sim.horizon_ms", report.horizon_ms);
        for (k, ct) in report.core_times.iter().enumerate() {
            m.gauge_set(&format!("sim.core{k}.busy_ms"), ct.busy_ms);
            m.gauge_set(&format!("sim.core{k}.throttled_ms"), ct.throttled_ms);
        }
        for (task, response) in &report.response_times {
            m.observe_summary(&format!("sim.response_ms.{task}"), response);
        }
        if config.isolation == IsolationMode::Isolated {
            regulator.export_metrics("membw.", &mut m);
        }
        // Fault counters appear exactly when a plan was attached, so
        // fault-free runs keep their metrics renderings byte-identical
        // to before fault injection existed (golden-pinned).
        if let Some(s) = fault_stats {
            m.counter_add("faults.injected", s.injected);
            m.counter_add("faults.overruns", s.overruns);
            m.counter_add("faults.overrun_jobs", s.overrun_jobs);
            m.counter_add("faults.replenish_delays", s.replenish_delays);
            m.counter_add("faults.throttle_faults", s.throttle_faults);
            m.counter_add("faults.core_stalls", s.core_stalls);
            m.counter_add("faults.load_spikes", s.load_spikes);
            m.counter_add("faults.load_spike_jobs", s.load_spike_jobs);
        }
        m
    }

    /// Runs the simulation to the configured horizon and produces the
    /// report.
    ///
    /// # Errors
    ///
    /// * [`SimError::OvercommittedReallocation`] if a scheduled
    ///   dynamic reallocation, applied at its switch instant against
    ///   the allocations current at that moment, would overcommit the
    ///   platform's partition budgets. This is the only failure mode
    ///   detectable strictly at event-fire time; everything else is
    ///   rejected by the `with_*` builders.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        self.run_inner()
    }

    /// Sets a task's first-release offset: the task is initialized at
    /// time zero but releases its first job `offset_ms` later (the
    /// delay `L` of Section 3.2's release-synchronization hypercall).
    ///
    /// When [`SimConfig::synchronize_releases`] is on (the default),
    /// each VCPU's first release is aligned with the earliest offset
    /// among its tasks — the hypercall's effect. When off, VCPUs are
    /// released at time zero regardless, exposing the abstraction
    /// overhead the paper eliminates.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidOffset`] if the offset is negative or
    ///   non-finite.
    /// * [`SimError::UnknownTask`] if the task is not part of the
    ///   simulated system.
    pub fn with_task_offset(mut self, task: TaskId, offset_ms: f64) -> Result<Self, SimError> {
        if !offset_ms.is_finite() || offset_ms < 0.0 {
            return Err(SimError::InvalidOffset { task, offset_ms });
        }
        let index = self
            .tasks
            .iter()
            .position(|t| t.id == task)
            .ok_or(SimError::UnknownTask { task })?;
        self.tasks[index].offset = SimDuration::from_ms(offset_ms);
        Ok(self)
    }

    /// Schedules a dynamic reallocation: at `at_ms`, core `core`
    /// switches to `alloc` (a vCAT-style mode change). VCPU budgets
    /// and task WCETs follow their surfaces at the new allocation;
    /// budgets exceeding the VCPU period are clamped to it (the core
    /// is then overloaded and will miss deadlines — visible in the
    /// report). In-flight jobs keep their remaining work; new releases
    /// use the new WCET.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidReallocation`] if the switch time is
    ///   negative/non-finite or the allocation lies outside the
    ///   platform's resource space.
    /// * [`SimError::UnknownCore`] if `core` is out of range.
    /// * [`SimError::ZeroWcet`] if the WCET of a task on `core` rounds
    ///   to 0 ns at `alloc` (see [`SimBuildError::ZeroWcet`]).
    ///
    /// An *overcommitment* of the total partition budgets is only
    /// detectable when the event fires (against the allocations
    /// current at that moment) and surfaces from `run*` as
    /// [`SimError::OvercommittedReallocation`].
    pub fn with_reallocation(
        mut self,
        at_ms: f64,
        core: usize,
        alloc: Alloc,
    ) -> Result<Self, SimError> {
        if !at_ms.is_finite() || at_ms < 0.0 {
            return Err(SimError::InvalidReallocation {
                core,
                detail: format!("switch time must be finite and >= 0, got {at_ms}"),
            });
        }
        if core >= self.cores.len() {
            return Err(SimError::UnknownCore {
                core,
                cores: self.cores.len(),
            });
        }
        self.platform
            .resources()
            .check(alloc)
            .map_err(|e| SimError::InvalidReallocation {
                core,
                detail: e.to_string(),
            })?;
        for &v in &self.cores[core].vcpus {
            for &t in &self.vcpus[v].tasks {
                let task = &self.tasks[t];
                if SimDuration::from_ms(task.wcet_surface.at(alloc)) == SimDuration::ZERO {
                    return Err(SimError::ZeroWcet {
                        task: task.id,
                        core,
                    });
                }
            }
        }
        self.reallocations
            .push((SimTime::from_ms(at_ms), core, alloc));
        Ok(self)
    }

    /// Attaches a [`FaultPlan`]: each scheduled fault is injected at
    /// its instant during the run. Targets are resolved and parameters
    /// validated here, up front — a malformed plan never starts
    /// running. Attaching a plan (even an empty one) switches on the
    /// `faults.*` metrics in [`HypervisorSim::run_observed`].
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownTask`] / [`SimError::UnknownVcpu`] /
    ///   [`SimError::UnknownVm`] / [`SimError::UnknownCore`] if a
    ///   fault targets an entity not part of the simulated system.
    /// * [`SimError::InvalidFault`] if a parameter is out of range
    ///   (non-finite or sub-unity overrun factor; zero window, delay,
    ///   or stall duration).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, SimError> {
        let mut resolved = Vec::with_capacity(plan.len());
        for scheduled in plan.faults() {
            let fault = match scheduled.fault {
                Fault::WcetOverrun {
                    task,
                    factor,
                    window,
                } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(SimError::InvalidFault {
                            detail: format!(
                                "overrun factor for {task} must be finite and >= 1, got {factor}"
                            ),
                        });
                    }
                    if window <= SimDuration::ZERO {
                        return Err(SimError::InvalidFault {
                            detail: format!("overrun window for {task} must be positive"),
                        });
                    }
                    let index = self
                        .tasks
                        .iter()
                        .position(|t| t.id == task)
                        .ok_or(SimError::UnknownTask { task })?;
                    ResolvedFault::WcetOverrun {
                        task: index,
                        factor,
                        window,
                    }
                }
                Fault::ReplenishDelay { vcpu, delay } => {
                    if delay <= SimDuration::ZERO {
                        return Err(SimError::InvalidFault {
                            detail: format!("replenish delay for {vcpu} must be positive"),
                        });
                    }
                    let index = self
                        .vcpus
                        .iter()
                        .position(|v| v.server.id() == vcpu)
                        .ok_or(SimError::UnknownVcpu { vcpu })?;
                    ResolvedFault::ReplenishDelay {
                        vcpu: index,
                        delay,
                    }
                }
                Fault::ThrottleFault { core } => {
                    if core >= self.cores.len() {
                        return Err(SimError::UnknownCore {
                            core,
                            cores: self.cores.len(),
                        });
                    }
                    ResolvedFault::ThrottleFault { core }
                }
                Fault::CoreStall { core, duration } => {
                    if core >= self.cores.len() {
                        return Err(SimError::UnknownCore {
                            core,
                            cores: self.cores.len(),
                        });
                    }
                    if duration <= SimDuration::ZERO {
                        return Err(SimError::InvalidFault {
                            detail: format!("stall duration for core {core} must be positive"),
                        });
                    }
                    ResolvedFault::CoreStall { core, duration }
                }
                Fault::LoadSpike { vm } => {
                    let tasks: Vec<usize> = self
                        .tasks
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| self.vcpus[t.vcpu].vm == vm)
                        .map(|(i, _)| i)
                        .collect();
                    if tasks.is_empty() {
                        return Err(SimError::UnknownVm { vm });
                    }
                    ResolvedFault::LoadSpike { tasks }
                }
            };
            resolved.push((scheduled.at, fault));
        }
        self.resolved_faults = resolved;
        self.fault_plan = Some(plan);
        Ok(self)
    }

    fn run_inner(&mut self) -> Result<SimReport, SimError> {
        self.seed_events();
        let horizon = SimTime::ZERO + self.config.horizon;
        self.advance(horizon)?;
        self.finish(horizon);
        Ok(self.build_report())
    }

    // ---- Scope helpers -------------------------------------------------
    //
    // A serial run has no scope: every core, VCPU and task is local. A
    // shard clone owns a core subset; a VCPU or task is local exactly
    // when its core is, so any core partition cleanly partitions the
    // whole entity graph.

    fn core_is_local(&self, core: usize) -> bool {
        self.scope.as_ref().is_none_or(|s| s.local[core])
    }

    fn vcpu_is_local(&self, vcpu: usize) -> bool {
        self.core_is_local(self.vcpus[vcpu].core)
    }

    fn task_is_local(&self, task: usize) -> bool {
        self.vcpu_is_local(self.tasks[task].vcpu)
    }

    /// The cores this simulation advances, ascending.
    fn own_cores(&self) -> Vec<usize> {
        match &self.scope {
            Some(s) => s.cores.clone(),
            None => (0..self.cores.len()).collect(),
        }
    }

    /// Whether this shard handles `fault` at all (owns any target).
    fn fault_is_relevant(&self, fault: &ResolvedFault) -> bool {
        match fault {
            ResolvedFault::WcetOverrun { task, .. } => self.task_is_local(*task),
            ResolvedFault::ReplenishDelay { vcpu, .. } => self.vcpu_is_local(*vcpu),
            ResolvedFault::ThrottleFault { core } | ResolvedFault::CoreStall { core, .. } => {
                self.core_is_local(*core)
            }
            ResolvedFault::LoadSpike { tasks } => tasks.iter().any(|&t| self.task_is_local(t)),
        }
    }

    // ---- Event keying --------------------------------------------------

    /// The canonical key of `event`: derived from content, never from
    /// insertion history, so simultaneous equal-priority events order
    /// identically whether they live in one queue or are split across
    /// shard queues.
    fn event_key(&self, event: &Event) -> u64 {
        match *event {
            Event::SegmentEnd { core, .. } => core as u64,
            Event::ServerReplenish { vcpu } => vcpu as u64,
            Event::Refill => REFILL_KEY,
            Event::Reallocate { index } => index as u64,
            Event::FaultInject { index } => index as u64,
            Event::FaultClear { core } => FAULT_CLEAR_BASE + core as u64,
            Event::JobRelease { task } => task as u64,
            Event::DeadlineCheck { task, .. } => task as u64,
        }
    }

    fn push_event(&mut self, time: SimTime, priority: u64, event: Event) {
        let key = self.event_key(&event);
        self.queue.push_keyed(time, priority, key, event);
    }

    /// Points the tagged trace ring (if any) at a new canonical
    /// position. No-op on the serial path.
    fn set_tag(&mut self, priority: u64, key: u64, subkey: u64) {
        if let Some(tag) = &mut self.tagged {
            tag.priority = priority;
            tag.key = key;
            tag.subkey = subkey;
        }
    }

    /// Advances only the emission lane within the current event's tag.
    fn set_subkey(&mut self, subkey: u64) {
        if let Some(tag) = &mut self.tagged {
            tag.subkey = subkey;
        }
    }

    // ---- Run phases ----------------------------------------------------

    /// Seeds the initial event population. Scope-aware: a shard seeds
    /// only releases/replenishments of its own tasks and VCPUs and the
    /// faults it owns a target of — but its own `Refill` chain (which
    /// replenishes only its own cores) and *every* reallocation,
    /// because reallocation validity depends on the global allocation
    /// table and each shard must track it identically (see
    /// [`Self::apply_reallocation`]).
    fn seed_events(&mut self) {
        // Release synchronization (Section 3.2): align each VCPU's
        // first release with its earliest task release.
        if self.config.synchronize_releases {
            for v in 0..self.vcpus.len() {
                let earliest = self.vcpus[v]
                    .tasks
                    .iter()
                    .map(|&t| self.tasks[t].offset)
                    .min()
                    .unwrap_or(SimDuration::ZERO);
                if earliest > SimDuration::ZERO {
                    self.vcpus[v]
                        .server
                        .synchronize_release(SimTime::ZERO + earliest);
                }
            }
        }
        if self.config.record_supply {
            for v in 0..self.vcpus.len() {
                if !self.vcpu_is_local(v) {
                    continue;
                }
                let server = &self.vcpus[v].server;
                self.supply_logs[v] = Some(crate::regulation::SupplyLog::new(
                    server.period(),
                    server.release(),
                ));
            }
        }
        // Initial events: task releases at their offsets, server
        // replenishments at the first period boundaries, the refiller.
        for t in 0..self.tasks.len() {
            if !self.task_is_local(t) {
                continue;
            }
            let offset = self.tasks[t].offset;
            self.push_event(
                SimTime::ZERO + offset,
                PRIO_RELEASE,
                Event::JobRelease { task: t },
            );
        }
        for v in 0..self.vcpus.len() {
            if !self.vcpu_is_local(v) {
                continue;
            }
            let deadline = self.vcpus[v].server.deadline();
            self.push_event(deadline, PRIO_REPLENISH, Event::ServerReplenish { vcpu: v });
        }
        if self.config.isolation == IsolationMode::Isolated && !self.cores.is_empty() {
            self.push_event(
                SimTime::ZERO + self.config.regulation_period,
                PRIO_REFILL,
                Event::Refill,
            );
        }
        for index in 0..self.reallocations.len() {
            let (at, _, _) = self.reallocations[index];
            self.push_event(at, PRIO_REALLOC, Event::Reallocate { index });
        }
        for index in 0..self.resolved_faults.len() {
            let (at, fault) = &self.resolved_faults[index];
            if !self.fault_is_relevant(fault) {
                continue;
            }
            let at = *at;
            self.push_event(at, PRIO_FAULT, Event::FaultInject { index });
        }
    }

    /// Drains every event at or before `horizon`.
    fn advance(&mut self, horizon: SimTime) -> Result<(), SimError> {
        while let Some(time) = self.queue.peek_time() {
            if time > horizon {
                break;
            }
            let Some((now, priority, key, event)) = self.queue.pop_keyed() else {
                break;
            };
            self.set_tag(priority, key, 0);
            self.handle(now, event)?;
        }
        Ok(())
    }

    /// Horizon flush: close in-flight run segments and open
    /// throttle intervals, or busy/throttled time (and supply logs,
    /// and the energy model on top of them) undercount the final
    /// partial period. The flush cannot complete a job: every event
    /// at or before the horizon has been drained, so an in-flight
    /// segment's planned end lies strictly beyond it, and the
    /// elapsed slice is strictly shorter than the job's remaining
    /// work. A flush-induced throttle opens its interval *at* the
    /// horizon and closes immediately — zero length, as it must be.
    fn finish(&mut self, horizon: SimTime) {
        for core in self.own_cores() {
            self.set_tag(PRIO_FLUSH, core as u64, 0);
            self.suspend(core, horizon);
            if let Some(since) = self.cores[core].throttled_since.take() {
                self.cores[core].throttled_ns += horizon.since(since).as_ns();
            }
        }
    }

    /// Reads the finished run out into a report. Scope-aware: a shard
    /// reports only its own tasks' response times and supply logs
    /// (foreign `core_times` entries are zero and are replaced by the
    /// owning shard's at merge).
    fn build_report(&mut self) -> SimReport {
        let local: Vec<bool> = (0..self.tasks.len()).map(|t| self.task_is_local(t)).collect();
        SimReport {
            deadline_misses: std::mem::take(&mut self.misses),
            jobs_completed: self.jobs_completed,
            jobs_released: self.jobs_released,
            throttle_events: self.throttle_events,
            context_switches: self.context_switches,
            handler_overheads: std::mem::take(&mut self.probes).into_map(),
            response_times: self
                .tasks
                .iter()
                .zip(&local)
                .filter(|(_, &l)| l)
                .map(|(t, _)| (t.id, t.response.clone()))
                .collect(),
            supply_logs: self
                .vcpus
                .iter()
                .zip(std::mem::take(&mut self.supply_logs))
                .filter_map(|(v, log)| log.map(|l| (v.server.id(), l)))
                .collect(),
            core_times: self
                .cores
                .iter()
                .map(|c| crate::energy::CoreTime {
                    busy_ms: c.busy_ns as f64 / 1e6,
                    throttled_ms: c.throttled_ns as f64 / 1e6,
                })
                .collect(),
            horizon_ms: self.config.horizon.as_ms(),
        }
    }

    fn handle(&mut self, now: SimTime, event: Event) -> Result<(), SimError> {
        match event {
            Event::SegmentEnd { core, generation } => {
                if self.cores[core].generation != generation {
                    return Ok(()); // stale: the segment was already preempted
                }
                self.suspend(core, now);
                self.schedule(core, now);
            }
            Event::ServerReplenish { vcpu } => {
                let core = self.vcpus[vcpu].core;
                // If this server is mid-segment, close the segment
                // first (its unused budget is lost at the boundary).
                if self.cores[core].running.is_some_and(|r| r.vcpu == vcpu) {
                    self.suspend(core, now);
                }
                // An injected replenishment-delay fault postpones this
                // replenishment: the server keeps its expired window
                // (deadline <= now, so the scheduler skips it — no
                // supply) until the delayed event fires. The server's
                // replenishment then advances its window by whole
                // periods, so later replenishments return to the
                // period grid.
                if let Some(delay) = self.vcpus[vcpu].pending_replenish_delay.take() {
                    self.push_event(now + delay, PRIO_REPLENISH, Event::ServerReplenish { vcpu });
                    self.schedule(core, now);
                    return Ok(());
                }
                self.probes.time(HandlerKind::CpuBudgetReplenish, || {
                    self.vcpus[vcpu].server.replenish(now);
                });
                let next = self.vcpus[vcpu].server.deadline();
                self.push_event(next, PRIO_REPLENISH, Event::ServerReplenish { vcpu });
                let id = self.vcpus[vcpu].server.id();
                self.trace(now, TraceEvent::Replenish { vcpu: id });
                self.schedule(core, now);
            }
            Event::Refill => {
                self.refill_phases(now);
                self.push_event(
                    now + self.config.regulation_period,
                    PRIO_REFILL,
                    Event::Refill,
                );
            }
            Event::Reallocate { index } => {
                let (_, core, alloc) = self.reallocations[index];
                self.apply_reallocation(core, alloc, now)?;
            }
            Event::FaultInject { index } => {
                self.inject_fault(index, now);
            }
            Event::FaultClear { core } => {
                let Some(until) = self.cores[core].fault_until else {
                    return Ok(());
                };
                if now < until {
                    return Ok(()); // superseded by a longer stall
                }
                self.cores[core].fault_until = None;
                if !self.cores[core].throttled {
                    if let Some(since) = self.cores[core].throttled_since.take() {
                        self.cores[core].throttled_ns += now.since(since).as_ns();
                    }
                    self.trace(now, TraceEvent::Unthrottle { core });
                    self.schedule(core, now);
                }
            }
            Event::JobRelease { task } => {
                let (deadline, index, overran) = {
                    let t = &mut self.tasks[task];
                    let index = t.next_index;
                    t.next_index += 1;
                    let deadline = now + t.period;
                    let (remaining, overran) = t.release_demand(now);
                    t.pending.push(Job {
                        index,
                        release: now,
                        deadline,
                        remaining,
                    });
                    (deadline, index, overran)
                };
                if overran {
                    self.fault_stats.overrun_jobs += 1;
                }
                self.jobs_released += 1;
                let period = self.tasks[task].period;
                self.push_event(now + period, PRIO_RELEASE, Event::JobRelease { task });
                self.push_event(
                    deadline,
                    PRIO_DEADLINE,
                    Event::DeadlineCheck { task, job: index },
                );
                let core = self.vcpus[self.tasks[task].vcpu].core;
                // A new job may preempt the current guest-level choice.
                self.schedule(core, now);
            }
            Event::DeadlineCheck { task, job } => {
                // Account the in-flight segment (only if it is this very
                // job) so completions that land exactly on the deadline
                // are not scored as misses.
                let core = self.vcpus[self.tasks[task].vcpu].core;
                let running_this_job = self.cores[core]
                    .running
                    .is_some_and(|r| r.task == Some(task));
                if running_this_job {
                    self.suspend(core, now);
                }
                // Budgets are real-valued (Θ = Π·ΣU) while simulated
                // time is integer nanoseconds, so a job can be left
                // with a few nanoseconds of numeric residue at its
                // deadline. Anything below the tolerance (1 µs, i.e.
                // 10⁻⁵ of the shortest paper-scale period) counts as
                // completed on time and is retired here.
                let position = self.tasks[task].pending.iter().position(|j| j.index == job);
                if let Some(pos) = position {
                    if self.tasks[task].pending[pos].remaining <= MISS_TOLERANCE {
                        let done = self.tasks[task].pending.remove(pos);
                        let response = now.since(done.release).as_ms();
                        self.tasks[task].response.record(response);
                        self.jobs_completed += 1;
                    } else {
                        self.misses.push(DeadlineMiss {
                            task: self.tasks[task].id,
                            job,
                            deadline: now,
                        });
                        let id = self.tasks[task].id;
                        self.trace(now, TraceEvent::Miss { task: id, job });
                    }
                }
                if running_this_job {
                    self.schedule(core, now);
                }
            }
        }
        Ok(())
    }

    /// The bandwidth refiller's period boundary, in its fixed phase
    /// order over the cores this simulation owns (all of them on the
    /// serial path): (0) close in-flight segments of traffic-generating
    /// tasks so their requests are charged to the period that just
    /// ended, not lumped into a later one; (1) replenish budgets and
    /// emit the `Refill` trace record; (2) wake throttled cores;
    /// (3) re-run the scheduler on every unheld core, ascending.
    ///
    /// A shard logs its wake count instead of emitting the record; the
    /// merge synthesizes one record per period from the summed counts,
    /// slotted between the phase-0 and phase-2 lanes by its tag subkey.
    fn refill_phases(&mut self, now: SimTime) {
        let own = self.own_cores();
        let mut suspended = Vec::new();
        for &core in &own {
            self.set_subkey(core as u64);
            let generates_traffic = self.cores[core]
                .running
                .and_then(|r| r.task)
                .is_some_and(|t| self.tasks[t].request_rate > 0.0);
            if generates_traffic {
                self.suspend(core, now);
                suspended.push(core);
            }
        }
        let woken = self
            .probes
            .time(HandlerKind::BwReplenish, || self.regulator.replenish_cores(&own));
        let count = woken.len();
        match &mut self.tagged {
            Some(tag) => tag.refill_woken.push(count),
            None => self.trace.push(now, TraceEvent::Refill { woken: count }),
        }
        for core in woken {
            self.set_subkey(2 * TAG_SPAN + core as u64);
            self.cores[core].throttled = false;
            // A concurrent fault stall keeps the core held (and
            // its idle interval open); its FaultClear closes
            // both.
            if self.cores[core].fault_until.is_none() {
                if let Some(since) = self.cores[core].throttled_since.take() {
                    self.cores[core].throttled_ns += now.since(since).as_ns();
                }
                self.trace(now, TraceEvent::Unthrottle { core });
            }
        }
        suspended.extend(own.iter().copied().filter(|&c| !self.cores[c].is_held()));
        suspended.sort_unstable();
        suspended.dedup();
        for core in suspended {
            self.set_subkey(3 * TAG_SPAN + core as u64);
            self.schedule(core, now);
        }
    }

    /// Injects the `index`-th resolved fault at `now` (see
    /// [`fault`](crate::fault) for the taxonomy and containment
    /// semantics). Scope-aware: single-target faults are only ever
    /// seeded in the shard owning the target; a load spike spanning
    /// shards is seeded in each, with the shard owning the
    /// lowest-indexed target acting as *owner* — it alone counts the
    /// plan-level stats and emits the `FaultInjected` record, while
    /// every shard releases the spike jobs of its own tasks.
    fn inject_fault(&mut self, index: usize, now: SimTime) {
        let fault = self.resolved_faults[index].1.clone();
        let owner = match &fault {
            ResolvedFault::WcetOverrun { task, .. } => self.task_is_local(*task),
            ResolvedFault::ReplenishDelay { vcpu, .. } => self.vcpu_is_local(*vcpu),
            ResolvedFault::ThrottleFault { core } | ResolvedFault::CoreStall { core, .. } => {
                self.core_is_local(*core)
            }
            ResolvedFault::LoadSpike { tasks } => {
                tasks.first().is_some_and(|&t| self.task_is_local(t))
            }
        };
        if owner {
            self.fault_stats.injected += 1;
            let kind = match &fault {
                ResolvedFault::WcetOverrun { .. } => FaultKind::WcetOverrun,
                ResolvedFault::ReplenishDelay { .. } => FaultKind::ReplenishDelay,
                ResolvedFault::ThrottleFault { .. } => FaultKind::ThrottleFault,
                ResolvedFault::CoreStall { .. } => FaultKind::CoreStall,
                ResolvedFault::LoadSpike { .. } => FaultKind::LoadSpike,
            };
            self.trace(now, TraceEvent::FaultInjected { kind });
        }
        match fault {
            ResolvedFault::WcetOverrun {
                task,
                factor,
                window,
            } => {
                self.fault_stats.overruns += 1;
                let t = &mut self.tasks[task];
                t.overrun_factor = factor;
                t.overrun_until = now + window;
            }
            ResolvedFault::ReplenishDelay { vcpu, delay } => {
                self.fault_stats.replenish_delays += 1;
                self.vcpus[vcpu].pending_replenish_delay = Some(delay);
            }
            ResolvedFault::ThrottleFault { core } => {
                self.fault_stats.throttle_faults += 1;
                // Held until the next regulation-period boundary — the
                // same wake instant a genuine budget overflow would
                // observe (a refill exactly at `now` has already fired:
                // PRIO_REFILL < PRIO_FAULT).
                let period = self.config.regulation_period.as_ns();
                let into_period = now.as_ns() % period;
                let until = SimTime(now.as_ns() + (period - into_period));
                self.stall_core(core, until, now);
            }
            ResolvedFault::CoreStall { core, duration } => {
                self.fault_stats.core_stalls += 1;
                self.stall_core(core, now + duration, now);
            }
            ResolvedFault::LoadSpike { tasks } => {
                if owner {
                    self.fault_stats.load_spikes += 1;
                }
                for task in tasks {
                    if !self.task_is_local(task) {
                        continue;
                    }
                    self.set_subkey(1 + task as u64);
                    let (deadline, job_index, overran) = {
                        let t = &mut self.tasks[task];
                        let job_index = t.next_index;
                        t.next_index += 1;
                        let deadline = now + t.period;
                        let (remaining, overran) = t.release_demand(now);
                        // Spike jobs join the back of the FIFO: same
                        // period, so their deadline is no earlier than
                        // any backlogged job's.
                        t.pending.push(Job {
                            index: job_index,
                            release: now,
                            deadline,
                            remaining,
                        });
                        (deadline, job_index, overran)
                    };
                    if overran {
                        self.fault_stats.overrun_jobs += 1;
                    }
                    self.jobs_released += 1;
                    self.fault_stats.load_spike_jobs += 1;
                    self.push_event(
                        deadline,
                        PRIO_DEADLINE,
                        Event::DeadlineCheck {
                            task,
                            job: job_index,
                        },
                    );
                    let core = self.vcpus[self.tasks[task].vcpu].core;
                    self.schedule(core, now);
                }
            }
        }
    }

    /// Holds `core` idle until `until` (throttle fault / core stall).
    /// Overlapping stalls extend to the furthest expiry; the stale
    /// `FaultClear` events of shorter stalls are ignored when they
    /// fire.
    fn stall_core(&mut self, core: usize, until: SimTime, now: SimTime) {
        self.suspend(core, now);
        if self.cores[core].fault_until.is_none_or(|u| until > u) {
            self.cores[core].fault_until = Some(until);
            self.push_event(until, PRIO_REFILL, Event::FaultClear { core });
        }
        if !self.cores[core].throttled && self.cores[core].throttled_since.is_none() {
            self.cores[core].throttled_since = Some(now);
            self.throttle_events += 1;
            self.trace(now, TraceEvent::Throttle { core });
        }
    }

    /// Closes the current run segment on `core`: consumes server
    /// budget, advances the running job, accounts memory traffic, and
    /// (on overflow) throttles the core.
    fn suspend(&mut self, core: usize, now: SimTime) {
        let Some(run) = self.cores[core].running.take() else {
            return;
        };
        self.cores[core].generation += 1;
        let elapsed = now.since(run.start);
        self.vcpus[run.vcpu].server.stop_running(elapsed);
        if elapsed > SimDuration::ZERO {
            if let Some(log) = &mut self.supply_logs[run.vcpu] {
                log.record(run.start, now);
            }
            if run.task.is_some() {
                self.cores[core].busy_ns += elapsed.as_ns();
            }
        }
        if let Some(task) = run.task {
            let completed = {
                let t = &mut self.tasks[task];
                // Audited expect: a segment only starts for a task with
                // a pending head job, and the job can only be retired
                // by this very accounting.
                #[allow(clippy::expect_used)]
                let job = t.pending.first_mut().expect("running task has a job");
                job.remaining = job.remaining.saturating_sub(elapsed);
                if job.remaining == SimDuration::ZERO {
                    let job = t.pending.remove(0);
                    let response = now.since(job.release).as_ms();
                    t.response.record(response);
                    true
                } else {
                    false
                }
            };
            if completed {
                self.jobs_completed += 1;
            }
            // Memory traffic of this segment, with a fractional carry
            // per core so long-run request counts are exact.
            let rate = self.tasks[task].request_rate;
            if rate > 0.0 && elapsed > SimDuration::ZERO {
                let total = rate * elapsed.as_ms() + self.traffic_carry[core];
                let requests = total.floor();
                self.traffic_carry[core] = total - requests;
                // Audited expect: `core` indexes `self.cores`, and the
                // regulator was sized from the same count.
                #[allow(clippy::expect_used)]
                let action = self
                    .regulator
                    .record_requests(core, requests as u64)
                    .expect("core index is in range");
                if action == ThrottleAction::Throttle {
                    self.probes.time(HandlerKind::Throttle, || {
                        self.cores[core].throttled = true;
                    });
                    // A concurrent fault stall already opened the idle
                    // interval; keep its start.
                    if self.cores[core].throttled_since.is_none() {
                        self.cores[core].throttled_since = Some(now);
                    }
                    self.throttle_events += 1;
                    self.trace(now, TraceEvent::Throttle { core });
                }
            }
        }
    }

    /// The scheduler: picks the highest-priority ready server on
    /// `core` (deadline, period, index), and within it the
    /// earliest-deadline pending job, preempting as needed.
    fn schedule(&mut self, core: usize, now: SimTime) {
        if self.cores[core].is_held() {
            // Throttled or fault-stalled cores idle until the refiller
            // (or the fault expiry) wakes them.
            if self.cores[core].running.is_some() {
                self.suspend(core, now);
            }
            return;
        }
        let current = self.cores[core].running;
        let choice = self.probes.time(HandlerKind::Scheduling, || {
            let mut best: Option<(u64, u64, usize)> = None; // (deadline, period, vcpu)
            for &v in &self.cores[core].vcpus {
                let server = &self.vcpus[v].server;
                let ready = match server.state() {
                    ServerState::Ready => true,
                    ServerState::Running => current.is_some_and(|r| r.vcpu == v),
                    ServerState::Depleted => false,
                };
                // A server exactly at its period boundary waits for its
                // replenishment event (same instant, later priority);
                // a server whose (synchronized) first release lies in
                // the future is not active yet.
                if !ready || server.deadline() <= now || server.release() > now {
                    continue;
                }
                let key = (server.deadline().as_ns(), server.period().as_ns(), v);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            best.map(|(_, _, v)| v)
        });
        let Some(next_vcpu) = choice else {
            // Nothing runnable: idle the core.
            if current.is_some() {
                self.suspend(core, now);
            }
            return;
        };
        let next_task = self.pick_job(next_vcpu);
        if let Some(run) = current {
            if run.vcpu == next_vcpu && run.task == next_task {
                return; // no change
            }
            self.suspend(core, now);
        }
        self.start(core, next_vcpu, next_task, now);
    }

    /// The earliest-deadline pending job among a VCPU's tasks.
    fn pick_job(&self, vcpu: usize) -> Option<usize> {
        self.vcpus[vcpu]
            .tasks
            .iter()
            .filter_map(|&t| self.tasks[t].pending.first().map(|j| (j.deadline, t)))
            .min()
            .map(|(_, t)| t)
    }

    /// Starts a run segment for `vcpu` (running `task`'s head job, or
    /// idling its budget away) and plans the segment's end.
    fn start(&mut self, core: usize, vcpu: usize, task: Option<usize>, now: SimTime) {
        let is_switch = self.cores[core].last_vcpu != Some(vcpu);
        self.probes.time(HandlerKind::ContextSwitch, || {
            self.cores[core].last_vcpu = Some(vcpu);
        });
        if is_switch {
            self.context_switches += 1;
        }

        let server = &mut self.vcpus[vcpu].server;
        server.start_running();
        let mut limit = server.remaining_budget();
        // Budget not used by the period boundary is lost.
        limit = limit.min(server.deadline().saturating_since(now));
        if let Some(t) = task {
            // Audited expect: `pick_job` only returns tasks with a
            // pending head job, and nothing ran in between.
            #[allow(clippy::expect_used)]
            let job = self.tasks[t].pending.first().expect("picked job exists");
            limit = limit.min(job.remaining);
            // Traffic overflow caps the segment just past the throttle
            // point (one extra request and one extra nanosecond, so the
            // overflow is guaranteed to fire rather than land short of
            // the boundary by rounding).
            let rate = self.tasks[t].request_rate;
            if rate > 0.0 {
                // Audited expect: `core` indexes `self.cores`, and the
                // regulator was sized from the same count.
                #[allow(clippy::expect_used)]
                let remaining = self
                    .regulator
                    .remaining(core)
                    .expect("core index is in range");
                let to_overflow_ms =
                    (remaining as f64 + 1.0 - self.traffic_carry[core]).max(0.0) / rate;
                let cap = SimDuration(vc2m_model::ms_to_ns(to_overflow_ms) + 1);
                limit = limit.min(cap);
            }
        }
        let generation = self.cores[core].generation;
        self.cores[core].running = Some(Running {
            vcpu,
            task,
            start: now,
        });
        self.push_event(
            now + limit,
            PRIO_SEGMENT_END,
            Event::SegmentEnd { core, generation },
        );
        self.trace(
            now,
            TraceEvent::RunSegment {
                vcpu: self.vcpus[vcpu].server.id(),
                task: task.map(|t| self.tasks[t].id),
                limit,
            },
        );
    }

    /// Applies a dynamic reallocation to `core` (see
    /// [`HypervisorSim::with_reallocation`]).
    fn apply_reallocation(&mut self, core: usize, alloc: Alloc, now: SimTime) -> Result<(), SimError> {
        // Validate the global partition budgets with the new value in
        // place.
        let space = self.platform.resources();
        let mut cache_total = 0u32;
        let mut bw_total = 0u32;
        for (k, a) in self.core_allocs.iter().enumerate() {
            let effective = if k == core { alloc } else { *a };
            cache_total += effective.cache;
            bw_total += effective.bandwidth;
        }
        if cache_total > space.cache_max() || bw_total > space.bw_max() {
            return Err(SimError::OvercommittedReallocation {
                core,
                cache_total,
                cache_max: space.cache_max(),
                bw_total,
                bw_max: space.bw_max(),
            });
        }

        // Every shard of a sharded run processes every reallocation so
        // the global-budget validation above runs against the same
        // allocation table everywhere (reallocations are totally
        // ordered by their canonical keys, and `core_allocs` is mutated
        // by nothing else — so a failing reallocation fails in every
        // shard, identically, and nothing past it is processed). For a
        // foreign core only the bookkeeping applies.
        if !self.core_is_local(core) {
            self.core_allocs[core] = alloc;
            return Ok(());
        }

        // Close the in-flight segment so consumption is accounted at
        // the old parameters.
        self.suspend(core, now);
        self.core_allocs[core] = alloc;

        // Reprogram the bandwidth regulator.
        if self.config.isolation == IsolationMode::Isolated {
            let budget = budget_requests_per_period(
                alloc.bandwidth,
                self.platform.bw_partition_mbps(),
                self.config.regulation_period.as_ms(),
            );
            // Audited expect: `core` was range-checked by
            // `with_reallocation`.
            #[allow(clippy::expect_used)]
            self.regulator
                .set_budget(core, budget)
                .expect("core index is in range");
        }

        // New VCPU budgets and task WCETs from the surfaces. Task
        // request rates are left unchanged: a task's memory demand is a
        // property of the task, so tightening the budget makes the old
        // traffic rate throttle-prone — exactly the regulator's job.
        for vi in self.cores[core].vcpus.clone() {
            let period = self.vcpus[vi].server.period();
            let budget_ms = self.vcpus[vi].budget_surface.at(alloc);
            let budget = SimDuration::from_ms(budget_ms).min(period);
            self.vcpus[vi].server.set_full_budget(budget);
            for ti in self.vcpus[vi].tasks.clone() {
                let wcet = self.tasks[ti].wcet_surface.at(alloc);
                self.tasks[ti].exec = SimDuration::from_ms(wcet);
            }
        }
        self.trace(now, TraceEvent::Reallocate { core, alloc });
        self.schedule(core, now);
        Ok(())
    }

    /// Records a trace event. `TraceEvent` is `Copy`, so the event is
    /// built on the caller's stack and pushing is allocation-free
    /// whether or not the buffer is enabled — the disabled-path
    /// guarantee the `trace_alloc` test pins. A disabled buffer counts
    /// the push as dropped, so `recorded + dropped` is always the total
    /// number of events the run emitted. Shard clones record into
    /// their tagged ring instead, carrying the canonical position for
    /// the cross-shard merge.
    fn trace(&mut self, now: SimTime, event: TraceEvent) {
        if let Some(tag) = &mut self.tagged {
            tag.push(now, event);
        } else {
            self.trace.push(now, event);
        }
    }
}
