//! Sharded multi-hypervisor admission: N independent per-host
//! [`AdmissionEngine`]s behind a deterministic cross-shard placement
//! policy, with replayable host-failure injection and
//! criticality-aware evacuation.
//!
//! # Model
//!
//! An [`AdmissionFleet`] owns `hosts` engines, each managing its own
//! platform instance with its own CAT/membw state, analysis cache, and
//! rejection memo. Requests are routed to exactly one host by the
//! [`FleetRouter`], then served by that host's engine exactly as the
//! single-host engine would serve them — a one-host fleet is
//! byte-for-byte the plain engine (same decision log bytes, same
//! allocation, same counters; pinned by the conformance suite).
//!
//! # Placement policy (the determinism argument)
//!
//! Routing is a pure function of the *bookkept* per-host requested
//! load, never of solver outcomes:
//!
//! * **Arrival** — a VM the router already owns (a retry of a
//!   still-live arrival) routes back to its owning host with no second
//!   charge, so the owning engine's duplicate-id check or rejection
//!   memo answers it. For a fresh VM, candidate hosts are ordered
//!   canonically: ascending
//!   bookkept headroom (best fit first), host index on ties. The
//!   request *falls through* that order past every host whose bookkept
//!   headroom cannot take the VM's reference utilization, and lands on
//!   the first that can; when no host can, it lands on the
//!   maximum-headroom host (whose engine then runs the authoritative
//!   capacity/solver checks and rejects — the saturated regime the
//!   per-engine rejection memo exists for). The router then charges
//!   the VM's utilization to the chosen host *whether or not the
//!   engine admits it* — requested-load bookkeeping. That is what
//!   makes the decision loop trivially parallel across shards: the
//!   whole routing plan is computable without a single solver call, so
//!   each host's request subsequence is fixed up front and replays
//!   independently ([`AdmissionFleet::replay_parallel`]). Bookkeeping
//!   noise (a rejected VM stays charged until its departure) only
//!   shifts future placements between hosts; the engines stay the
//!   ground truth for every admit/reject.
//! * **Departure / mode change** — routed to the owning host (the one
//!   the arrival was routed to, admitted or not); the router releases
//!   or adjusts the bookkept charge. Requests for VMs the router never
//!   saw go canonically to the first alive host (host 0 in a healthy
//!   fleet), whose engine produces the same deterministic rejection
//!   the single engine would.
//! * **Batch** — members are put in the engine's canonical order
//!   (decreasing utilization, id on ties) and routed in that order;
//!   members landing on the same host form one per-host sub-batch so
//!   each engine keeps its batch-boundary verification semantics.
//!
//! # Fault tolerance
//!
//! A seeded, replayable [`FleetFaultPlan`] schedules three fault kinds
//! between replayed work items — **host crash** (the host's engine is
//! lost and rebuilt empty), **host drain** (the host is retired
//! gracefully: its VMs depart its engine, then it leaves the fleet),
//! and **transient verify failure** (the host's next state
//! verification fails once, exercising the engine's repack fallback).
//! Plans are validated when armed ([`AdmissionFleet::arm`]), mirroring
//! the hypervisor fault plan's validated-at-attach rule: out-of-range
//! hosts, faults targeting already-dead hosts, and plans that would
//! leave no survivor are typed [`AllocError::FaultPlan`] errors, never
//! mid-replay panics.
//!
//! Crashing or draining a host **evacuates** it: the router drops the
//! host from placement, zeroes its bookkept load, and re-admits the
//! VMs it owned across the survivors as ordinary canonicalized
//! arrivals (marked `evac` in the merged log). Evacuation order is
//! **criticality-major**: HI-criticality VMs (named by
//! [`FleetScenario::hi_vms`]) get first claim on survivor headroom,
//! then utilization descending, id ascending — the canonical shed
//! order inverted into a protection order. A VM that no survivor can
//! take is retried with linearly growing backoff
//! ([`EvacuationPolicy`]) and, after the attempt budget, reported as a
//! typed [`EvacuationExhausted`] record — never a panic. A departure
//! for an evacuated VM uncharges its *current* owner (the survivor it
//! was re-placed on), not its original route.
//!
//! Every fault and evacuation decision is conditioned only on router
//! bookkeeping among alive hosts — never on engine verdicts — so the
//! serial routing pass reproduces the entire fault/evacuation schedule
//! without running a single engine, and fault-armed parallel replay
//! ([`AdmissionFleet::replay_parallel_armed`]) stays byte-identical to
//! serial at every thread count.
//!
//! # One execution path
//!
//! A single driver routes work items, fires due faults and pumps the
//! evacuation queue, and hands each host its work as a `HostWork`
//! value (a request with its global ticket, a sub-batch, an engine
//! reset, or an injected verify fault). Applying a `HostWork` to an
//! engine is one function, shared by every caller:
//!
//! * [`AdmissionFleet::replay`] applies each unit the moment the
//!   driver sends it;
//! * [`AdmissionFleet::submit`] and [`AdmissionFleet::submit_batch`]
//!   run the same driver for one request or batch, with the fault
//!   clock held still (they fire no faults and pump no evacuees);
//! * [`AdmissionFleet::replay_parallel`] records the units into
//!   per-host plans during a serial routing pass, then worker threads
//!   claim whole hosts from a shared queue and apply each host's plan
//!   to a private engine (the coarse-unit executor pattern of the
//!   sweep).
//!
//! Every path then puts the merged decisions in ticket order. The
//! `#NNNNN`-indexed decision log is therefore byte-identical at every
//! thread count and between direct submits and replay, because every
//! engine sees the identical request subsequence either way.

use crate::admission::{
    canonical_vm_order, AdmissionConfig, AdmissionDecision, AdmissionEngine, AdmissionRequest,
    AdmissionStats,
};
use crate::degrade::Criticality;
use crate::error::AllocError;
use vc2m_analysis::core_check::UTILIZATION_EPS;
use vc2m_model::{Platform, VmId, VmSpec};
use vc2m_rng::{DetRng, Rng};
use vc2m_simcore::MetricsRegistry;

/// Fleet configuration: how many hosts, the per-host engine
/// configuration (every host gets the same one — engines derive their
/// per-VM streams from request content, not host identity), and the
/// evacuation retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of simulated hosts (shards). Must be at least 1.
    pub hosts: usize,
    /// The configuration each per-host engine runs with.
    pub engine: AdmissionConfig,
    /// Retry/backoff policy for evacuated VMs no survivor can take
    /// immediately.
    pub evacuation: EvacuationPolicy,
}

impl FleetConfig {
    /// A fleet of `hosts` hosts with the default engine configuration
    /// for `seed` and the default evacuation policy.
    pub fn new(hosts: usize, seed: u64) -> Self {
        FleetConfig {
            hosts,
            engine: AdmissionConfig::new(seed),
            evacuation: EvacuationPolicy::default(),
        }
    }

    /// Replaces the per-host engine configuration.
    pub fn with_engine(mut self, engine: AdmissionConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the evacuation retry policy.
    pub fn with_evacuation(mut self, evacuation: EvacuationPolicy) -> Self {
        self.evacuation = evacuation;
        self
    }
}

/// Bounded retry/backoff for evacuated VMs that no survivor can take
/// at evacuation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvacuationPolicy {
    /// Placement attempts per evacuee before it is reported as
    /// [`EvacuationExhausted`] (clamped to at least 1).
    pub max_attempts: usize,
    /// Ticket delay between attempts, growing linearly: attempt `k`
    /// waits `backoff * k` tickets.
    pub backoff: u64,
}

impl Default for EvacuationPolicy {
    fn default() -> Self {
        EvacuationPolicy {
            max_attempts: 3,
            backoff: 4,
        }
    }
}

/// One injectable fleet fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFault {
    /// The host fails abruptly: its engine state is lost (rebuilt
    /// empty) and its VMs are evacuated to the survivors.
    HostCrash {
        /// The failing host.
        host: usize,
    },
    /// The host is retired gracefully: its VMs depart its engine
    /// (logged as `evac` departures), then it leaves the fleet and its
    /// VMs are re-admitted across the survivors.
    HostDrain {
        /// The retiring host.
        host: usize,
    },
    /// The host's next state verification fails once, exercising the
    /// engine's snapshot-restore + repack fallback.
    VerifyFault {
        /// The host whose next verification fails.
        host: usize,
    },
}

impl FleetFault {
    /// The targeted host.
    pub fn host(self) -> usize {
        match self {
            FleetFault::HostCrash { host }
            | FleetFault::HostDrain { host }
            | FleetFault::VerifyFault { host } => host,
        }
    }

    /// Stable kind name (`host-crash`, `host-drain`, `verify-fault`).
    pub fn name(self) -> &'static str {
        match self {
            FleetFault::HostCrash { .. } => "host-crash",
            FleetFault::HostDrain { .. } => "host-drain",
            FleetFault::VerifyFault { .. } => "verify-fault",
        }
    }
}

/// A fault scheduled at a replay ticket: it fires immediately before
/// the work item with index `at`; tickets at or past the end of the
/// replayed items fire in the end-of-replay flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFleetFault {
    /// The work-item index the fault fires before.
    pub at: u64,
    /// What happens.
    pub fault: FleetFault,
}

/// Shape of a generated fault plan: how many faults over how many
/// work-item tickets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetFaultSpec {
    /// Number of faults to draw.
    pub count: usize,
    /// Tickets are drawn uniformly from `0..horizon` (clamped to at
    /// least 1).
    pub horizon: u64,
}

impl FleetFaultSpec {
    /// A spec of `count` faults over `horizon` tickets.
    pub fn new(count: usize, horizon: u64) -> Self {
        FleetFaultSpec { count, horizon }
    }
}

/// A replayable schedule of fleet faults, kept sorted by ticket.
///
/// Build one explicitly with [`FleetFaultPlan::inject`] or draw one
/// from a seed with [`FleetFaultPlan::generate`]; either way the same
/// inputs produce the same plan, so a fault campaign is reproducible
/// from `(trace, seed)` alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetFaultPlan {
    faults: Vec<ScheduledFleetFault>,
}

impl FleetFaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FleetFaultPlan::default()
    }

    /// Adds a fault firing before work item `at`, keeping the plan
    /// sorted by ticket (stable, so equal-ticket faults keep insertion
    /// order).
    pub fn inject(mut self, at: u64, fault: FleetFault) -> Self {
        self.faults.push(ScheduledFleetFault { at, fault });
        self.faults.sort_by_key(|f| f.at);
        self
    }

    /// The scheduled faults, in firing order.
    pub fn faults(&self) -> &[ScheduledFleetFault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Draws a plan of `spec.count` faults for a `hosts`-host fleet
    /// from `seed`. Kinds and targets are resolved in ticket order
    /// against a live-host set, so generated plans are valid by
    /// construction: crashes and drains never target a dead host and
    /// always leave a survivor (when only one host remains alive, the
    /// draw degrades to a transient verify fault on it).
    pub fn generate(seed: u64, hosts: usize, spec: &FleetFaultSpec) -> Self {
        assert!(hosts >= 1, "a fleet needs at least one host");
        let mut rng = DetRng::seed_from_u64(seed);
        let mut draws: Vec<(u64, u32, u64)> = (0..spec.count)
            .map(|_| {
                let at = rng.gen_range(0u64..spec.horizon.max(1));
                let kind = rng.gen_range(0u32..3);
                let roll = rng.gen_range(0u64..1 << 48);
                (at, kind, roll)
            })
            .collect();
        draws.sort_by_key(|&(at, _, _)| at);
        let mut alive: Vec<usize> = (0..hosts).collect();
        let mut faults = Vec::with_capacity(draws.len());
        for (at, kind, roll) in draws {
            let fault = match kind {
                0 | 1 if alive.len() > 1 => {
                    let victim = alive.remove((roll % alive.len() as u64) as usize);
                    if kind == 0 {
                        FleetFault::HostCrash { host: victim }
                    } else {
                        FleetFault::HostDrain { host: victim }
                    }
                }
                _ => FleetFault::VerifyFault {
                    host: alive[(roll % alive.len() as u64) as usize],
                },
            };
            faults.push(ScheduledFleetFault { at, fault });
        }
        FleetFaultPlan { faults }
    }

    /// Validates the plan against a `hosts`-host fleet: every target
    /// must be in range and alive when its fault fires, and no crash
    /// or drain may remove the last alive host.
    pub fn validate(&self, hosts: usize) -> Result<(), AllocError> {
        let mut alive = vec![true; hosts];
        let mut alive_count = hosts;
        for (index, scheduled) in self.faults.iter().enumerate() {
            let host = scheduled.fault.host();
            if host >= hosts {
                return Err(AllocError::FaultPlan {
                    detail: format!(
                        "fault {index} targets host {host}, but the fleet has {hosts} hosts"
                    ),
                });
            }
            if !alive[host] {
                return Err(AllocError::FaultPlan {
                    detail: format!(
                        "fault {index} ({}) targets host {host}, which an earlier fault already \
                         removed",
                        scheduled.fault.name()
                    ),
                });
            }
            if matches!(
                scheduled.fault,
                FleetFault::HostCrash { .. } | FleetFault::HostDrain { .. }
            ) {
                if alive_count == 1 {
                    return Err(AllocError::FaultPlan {
                        detail: format!(
                            "fault {index} ({}) would leave the fleet with no alive host",
                            scheduled.fault.name()
                        ),
                    });
                }
                alive[host] = false;
                alive_count -= 1;
            }
        }
        Ok(())
    }
}

/// Everything a chaos replay is conditioned on beyond the trace: the
/// fault schedule and which VMs are HI-criticality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetScenario {
    /// The fault schedule (empty ⇒ fault-free, byte-identical to the
    /// unarmed fleet).
    pub faults: FleetFaultPlan,
    /// HI-criticality VM ids, strictly increasing; every other VM is
    /// LO. HI VMs get first claim on survivor headroom during
    /// evacuation.
    pub hi_vms: Vec<usize>,
}

impl FleetScenario {
    /// A scenario from a fault plan and a HI-VM set.
    pub fn new(faults: FleetFaultPlan, hi_vms: Vec<usize>) -> Self {
        FleetScenario { faults, hi_vms }
    }

    /// Validates the fault plan against the fleet size and the HI-VM
    /// set's strictly-increasing invariant.
    pub fn validate(&self, hosts: usize) -> Result<(), AllocError> {
        self.faults.validate(hosts)?;
        if !self.hi_vms.windows(2).all(|w| w[0] < w[1]) {
            return Err(AllocError::FaultPlan {
                detail: "hi vm ids must be strictly increasing".to_string(),
            });
        }
        Ok(())
    }
}

/// An evacuated VM that exhausted its placement attempts: no survivor
/// had bookkept headroom for it within the retry budget. Reported,
/// never panicked.
#[derive(Debug, Clone, PartialEq)]
pub struct EvacuationExhausted {
    /// The VM that could not be re-placed.
    pub vm: usize,
    /// Its criticality (a HI record here means the fleet genuinely ran
    /// out of protected headroom — LO VMs never displace HI ones).
    pub criticality: Criticality,
    /// Its bookkept utilization.
    pub utilization: f64,
    /// Placement attempts made.
    pub attempts: usize,
    /// The work-item ticket at which the budget ran out.
    pub at: u64,
}

/// Fleet-level routing counters (engine counters aggregate separately
/// via [`AdmissionFleet::aggregate_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests routed (batch members count individually).
    pub routed: u64,
    /// Arrivals routed to a bookkeeping-feasible host (best fit or a
    /// fall-through).
    pub best_fit_routes: u64,
    /// Arrivals of VMs the router already owns (retries), routed to
    /// the owning host without a second charge.
    pub retry_routes: u64,
    /// Arrivals for which no host was bookkeeping-feasible (sent to
    /// the maximum-headroom host for the authoritative rejection).
    pub saturated_routes: u64,
    /// Departures/mode changes for VMs the router never saw (sent to
    /// the first alive host for the deterministic unknown-VM
    /// rejection).
    pub unowned_routes: u64,
    /// Faults fired from the armed plan (all kinds).
    pub faults_injected: u64,
    /// Host crashes fired.
    pub host_crashes: u64,
    /// Host drains fired.
    pub host_drains: u64,
    /// Transient verify failures fired.
    pub verify_faults: u64,
    /// VMs evacuated off crashed/drained hosts.
    pub evacuated_vms: u64,
    /// Evacuated VMs that were HI-criticality.
    pub evac_hi: u64,
    /// Evacuated VMs that were LO-criticality.
    pub evac_lo: u64,
    /// Evacuees re-placed on a survivor (re-admission submitted).
    pub evac_placed: u64,
    /// Placement attempts deferred for lack of survivor headroom.
    pub evac_deferred: u64,
    /// Evacuees that exhausted their attempt budget.
    pub evac_exhausted: u64,
    /// Pending evacuations cancelled because the VM departed or
    /// re-arrived on its own.
    pub evac_cancelled: u64,
}

impl FleetStats {
    /// Exports the counters under the `fleet.` prefix.
    pub fn export_metrics(&self, out: &mut MetricsRegistry) {
        out.counter_add("fleet.routed", self.routed);
        out.counter_add("fleet.best_fit_routes", self.best_fit_routes);
        out.counter_add("fleet.retry_routes", self.retry_routes);
        out.counter_add("fleet.saturated_routes", self.saturated_routes);
        out.counter_add("fleet.unowned_routes", self.unowned_routes);
        out.counter_add("fleet.faults.injected", self.faults_injected);
        out.counter_add("fleet.faults.crashes", self.host_crashes);
        out.counter_add("fleet.faults.drains", self.host_drains);
        out.counter_add("fleet.faults.verify", self.verify_faults);
        out.counter_add("fleet.evacuations.vms", self.evacuated_vms);
        out.counter_add("fleet.evacuations.hi", self.evac_hi);
        out.counter_add("fleet.evacuations.lo", self.evac_lo);
        out.counter_add("fleet.evacuations.placed", self.evac_placed);
        out.counter_add("fleet.evacuations.deferred", self.evac_deferred);
        out.counter_add("fleet.evacuations.exhausted", self.evac_exhausted);
        out.counter_add("fleet.evacuations.cancelled", self.evac_cancelled);
    }
}

/// A routed arrival not yet departed: the router's bookkeeping record
/// for one VM.
#[derive(Debug, Clone)]
struct OwnedVm {
    vm: usize,
    host: usize,
    utilization: f64,
    criticality: Criticality,
    /// The VM's most recently requested spec, retained only when a
    /// fault plan is armed (evacuation re-admits from it).
    spec: Option<VmSpec>,
}

/// An evacuee awaiting re-placement on a survivor.
#[derive(Debug, Clone)]
struct PendingEvacuation {
    vm: usize,
    utilization: f64,
    criticality: Criticality,
    spec: VmSpec,
    attempts: usize,
    ready_at: u64,
}

/// The deterministic cross-shard router: bookkept requested load per
/// host plus the VM → owning-host map, the alive-host set, and the
/// evacuation queue. See the [module docs](self) for the policy and
/// why it is outcome-independent.
#[derive(Debug, Clone)]
pub struct FleetRouter {
    capacity: f64,
    loads: Vec<f64>,
    alive: Vec<bool>,
    owners: Vec<OwnedVm>,
    pending: Vec<PendingEvacuation>,
    hi_vms: Vec<usize>,
    retain_specs: bool,
    stats: FleetStats,
}

impl FleetRouter {
    /// A router over `hosts` empty hosts of the given platform.
    pub fn new(hosts: usize, platform: &Platform) -> Self {
        assert!(hosts >= 1, "a fleet needs at least one host");
        FleetRouter {
            capacity: platform.max_usable_cores() as f64 * (1.0 + UTILIZATION_EPS),
            loads: vec![0.0; hosts],
            alive: vec![true; hosts],
            owners: Vec::new(),
            pending: Vec::new(),
            hi_vms: Vec::new(),
            retain_specs: false,
            stats: FleetStats::default(),
        }
    }

    /// Bookkept load per host (zero for dead hosts).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Which hosts are still alive (all, until a crash or drain
    /// fires).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Routing counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The criticality of a VM under the armed scenario (LO unless
    /// named in the HI set).
    pub fn criticality_of(&self, vm: usize) -> Criticality {
        if self.hi_vms.binary_search(&vm).is_ok() {
            Criticality::Hi
        } else {
            Criticality::Lo
        }
    }

    fn arm(&mut self, scenario: &FleetScenario) {
        self.hi_vms = scenario.hi_vms.clone();
        // Spec retention costs a clone per arrival; only pay it when a
        // fault could actually evacuate someone.
        self.retain_specs = !scenario.faults.is_empty();
    }

    fn owner_position(&self, vm: usize) -> Option<usize> {
        self.owners.iter().position(|o| o.vm == vm)
    }

    fn first_alive(&self) -> usize {
        self.alive
            .iter()
            .position(|&a| a)
            .expect("a fleet always keeps at least one alive host")
    }

    /// Routes an arrival. A VM the router already owns (a *retry* of
    /// a still-live arrival) goes back to its owning host without a
    /// second charge — retry affinity is what lets the owning engine's
    /// rejection memo (or duplicate-id check) answer it. A fresh VM
    /// goes to the first bookkeeping-feasible alive host in canonical
    /// candidate order (ascending headroom, index on ties), else the
    /// maximum-headroom alive host, and is charged to it either way.
    pub fn route_arrival(&mut self, vm: usize, utilization: f64) -> usize {
        self.stats.routed += 1;
        if let Some(position) = self.owner_position(vm) {
            self.stats.retry_routes += 1;
            return self.owners[position].host;
        }
        // A fresh arrival of a VM awaiting evacuation re-placement
        // supersedes the pending entry (one charge, one owner).
        if let Some(position) = self.pending.iter().position(|p| p.vm == vm) {
            self.pending.remove(position);
            self.stats.evac_cancelled += 1;
        }
        let mut best_fit: Option<usize> = None;
        let mut fallback: Option<usize> = None;
        for (h, &load) in self.loads.iter().enumerate() {
            if !self.alive[h] {
                continue;
            }
            if load + utilization <= self.capacity && best_fit.is_none_or(|b| load > self.loads[b])
            {
                best_fit = Some(h);
            }
            if fallback.is_none_or(|f| load < self.loads[f]) {
                fallback = Some(h);
            }
        }
        let host = match best_fit {
            Some(h) => {
                self.stats.best_fit_routes += 1;
                h
            }
            None => {
                self.stats.saturated_routes += 1;
                fallback.expect("a fleet always keeps at least one alive host")
            }
        };
        self.loads[host] += utilization;
        let criticality = self.criticality_of(vm);
        self.owners.push(OwnedVm {
            vm,
            host,
            utilization,
            criticality,
            spec: None,
        });
        host
    }

    /// Routes a departure to the owning host and releases the charge
    /// — the *current* owner, so a VM re-placed by evacuation
    /// uncharges the survivor it lives on, not its original route.
    /// A departure for a VM still awaiting re-placement cancels the
    /// pending evacuation. Unknown VMs go to the first alive host (for
    /// the deterministic rejection).
    pub fn route_departure(&mut self, vm: usize) -> usize {
        self.stats.routed += 1;
        if let Some(position) = self.owner_position(vm) {
            let owner = self.owners.remove(position);
            self.loads[owner.host] -= owner.utilization;
            return owner.host;
        }
        if let Some(position) = self.pending.iter().position(|p| p.vm == vm) {
            // The VM departed while awaiting re-placement: nothing is
            // charged for it anywhere, so just drop the entry.
            self.pending.remove(position);
            self.stats.evac_cancelled += 1;
            return self.first_alive();
        }
        self.stats.unowned_routes += 1;
        self.first_alive()
    }

    /// Routes a mode change to the owning host and re-charges it with
    /// the new mode's utilization; unknown VMs go to the first alive
    /// host.
    pub fn route_mode(&mut self, vm: usize, utilization: f64) -> usize {
        self.stats.routed += 1;
        match self.owner_position(vm) {
            Some(position) => {
                let host = self.owners[position].host;
                self.loads[host] += utilization - self.owners[position].utilization;
                self.owners[position].utilization = utilization;
                host
            }
            None => {
                self.stats.unowned_routes += 1;
                self.first_alive()
            }
        }
    }

    /// Routes one request (the shared dispatch used by the serial
    /// fleet and the parallel routing pass). When a fault plan is
    /// armed this also retains the VM's most recently requested spec,
    /// which is what an evacuation re-admits.
    pub fn route(&mut self, request: &AdmissionRequest) -> usize {
        match request {
            AdmissionRequest::Arrival(vm) => {
                let host = self.route_arrival(vm.id().0, vm.reference_utilization());
                if self.retain_specs {
                    if let Some(owner) = self.owners.iter_mut().find(|o| o.vm == vm.id().0) {
                        if owner.spec.is_none() {
                            owner.spec = Some(vm.clone());
                        }
                    }
                }
                host
            }
            AdmissionRequest::Departure(id) => self.route_departure(id.0),
            AdmissionRequest::ModeChange(vm) => {
                let host = self.route_mode(vm.id().0, vm.reference_utilization());
                if self.retain_specs {
                    if let Some(owner) = self.owners.iter_mut().find(|o| o.vm == vm.id().0) {
                        owner.spec = Some(vm.clone());
                    }
                }
                host
            }
        }
    }

    /// Removes `host` from the fleet and queues its VMs for
    /// re-placement, criticality-major (HI first, then utilization
    /// descending, id ascending). Returns the evacuees' ids in that
    /// order (a drain departs them from the dying engine in it).
    fn evacuate(&mut self, host: usize, now: u64) -> Vec<usize> {
        self.alive[host] = false;
        self.loads[host] = 0.0;
        let mut evacuees: Vec<OwnedVm> = Vec::new();
        let mut kept: Vec<OwnedVm> = Vec::new();
        for owner in self.owners.drain(..) {
            if owner.host == host {
                evacuees.push(owner);
            } else {
                kept.push(owner);
            }
        }
        self.owners = kept;
        evacuees.sort_by(|a, b| {
            b.criticality
                .cmp(&a.criticality)
                .then_with(|| {
                    b.utilization
                        .partial_cmp(&a.utilization)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.vm.cmp(&b.vm))
        });
        self.stats.evacuated_vms += evacuees.len() as u64;
        let order: Vec<usize> = evacuees.iter().map(|o| o.vm).collect();
        for owner in evacuees {
            match owner.criticality {
                Criticality::Hi => self.stats.evac_hi += 1,
                Criticality::Lo => self.stats.evac_lo += 1,
            }
            self.pending.push(PendingEvacuation {
                vm: owner.vm,
                utilization: owner.utilization,
                criticality: owner.criticality,
                spec: owner
                    .spec
                    .expect("specs are retained whenever a fault plan is armed"),
                attempts: 0,
                ready_at: now,
            });
        }
        // Keep the queue criticality-major across evacuation events
        // too (stable sort preserves within-class order).
        self.pending
            .sort_by_key(|p| std::cmp::Reverse(p.criticality));
        order
    }

    /// The earliest ticket at which a pending evacuee is ready for
    /// another placement attempt.
    fn earliest_pending(&self) -> Option<u64> {
        self.pending.iter().map(|p| p.ready_at).min()
    }

    /// Attempts to place every ready evacuee on a best-fit survivor
    /// with bookkept headroom. Returns `(host, spec)` placements (the
    /// caller submits the re-admissions); deferrals back off linearly
    /// and exhaust into `exhausted` after the attempt budget.
    fn pump_evacuations(
        &mut self,
        now: u64,
        policy: EvacuationPolicy,
        exhausted: &mut Vec<EvacuationExhausted>,
    ) -> Vec<(usize, VmSpec)> {
        let mut placements = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].ready_at > now {
                i += 1;
                continue;
            }
            let utilization = self.pending[i].utilization;
            let mut best: Option<usize> = None;
            for (h, &load) in self.loads.iter().enumerate() {
                if self.alive[h]
                    && load + utilization <= self.capacity
                    && best.is_none_or(|b| load > self.loads[b])
                {
                    best = Some(h);
                }
            }
            match best {
                Some(host) => {
                    let entry = self.pending.remove(i);
                    self.stats.evac_placed += 1;
                    self.loads[host] += utilization;
                    self.owners.push(OwnedVm {
                        vm: entry.vm,
                        host,
                        utilization,
                        criticality: entry.criticality,
                        spec: Some(entry.spec.clone()),
                    });
                    placements.push((host, entry.spec));
                }
                None => {
                    self.stats.evac_deferred += 1;
                    self.pending[i].attempts += 1;
                    if self.pending[i].attempts >= policy.max_attempts.max(1) {
                        let entry = self.pending.remove(i);
                        self.stats.evac_exhausted += 1;
                        exhausted.push(EvacuationExhausted {
                            vm: entry.vm,
                            criticality: entry.criticality,
                            utilization: entry.utilization,
                            attempts: entry.attempts,
                            at: now,
                        });
                    } else {
                        self.pending[i].ready_at =
                            now + policy.backoff * self.pending[i].attempts as u64;
                        i += 1;
                    }
                }
            }
        }
        placements
    }
}

/// One merged-log entry: the owning host plus the engine's decision
/// with its index rewritten to the fleet-global ticket.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDecision {
    /// The host whose engine served the request.
    pub host: usize,
    /// The engine decision, re-indexed into the merged fleet log.
    pub decision: AdmissionDecision,
    /// True for decisions synthesized by an evacuation (a drain's
    /// departures off the dying host and re-admission arrivals on
    /// survivors).
    pub evac: bool,
}

impl FleetDecision {
    /// The merged-log line: the engine's byte-stable line, with the
    /// owning host appended when the fleet has more than one (so a
    /// one-host fleet log is byte-identical to the engine log), and
    /// ` evac` appended only on evacuation-synthesized decisions (so
    /// fault-free logs are byte-identical to the unarmed fleet's).
    pub fn log_line(&self, hosts: usize) -> String {
        let mut line = if hosts > 1 {
            format!("{} host={}", self.decision.log_line(), self.host)
        } else {
            self.decision.log_line()
        };
        if self.evac {
            line.push_str(" evac");
        }
        line
    }
}

/// One unit of replayable fleet work: a single request or a batch of
/// concurrent arrivals (mirroring the trace model, without depending
/// on it).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetWorkItem {
    /// One request on its own.
    Single(AdmissionRequest),
    /// Concurrent arrivals admitted as one order-independent batch.
    Batch(Vec<AdmissionRequest>),
}

/// One unit of per-host work, as the replay driver sends it to an
/// executor.
enum HostWork {
    Single(u64, bool, AdmissionRequest),
    Batch(Vec<u64>, Vec<AdmissionRequest>),
    /// The host crashed: rebuild its engine empty.
    Reset,
    /// The host's next state verification fails once.
    InjectVerifyFault,
}

impl HostWork {
    /// Runs this work on `host`'s engine, appending its decisions
    /// (re-indexed to their global tickets) to `decisions`. This is the
    /// only code that executes fleet work on an engine: the serial
    /// fleet, direct submits and the parallel workers all come here.
    fn apply(
        self,
        host: usize,
        engine: &mut AdmissionEngine,
        engine_config: AdmissionConfig,
        decisions: &mut Vec<FleetDecision>,
    ) {
        match self {
            HostWork::Single(ticket, evac, request) => {
                let mut decision = engine.submit(request).clone();
                decision.index = ticket;
                decisions.push(FleetDecision {
                    host,
                    decision,
                    evac,
                });
            }
            HostWork::Batch(tickets, members) => {
                let batch = engine.submit_batch(members);
                debug_assert_eq!(batch.len(), tickets.len());
                for (ticket, decision) in tickets.into_iter().zip(batch) {
                    let mut decision = decision.clone();
                    decision.index = ticket;
                    decisions.push(FleetDecision {
                        host,
                        decision,
                        evac: false,
                    });
                }
            }
            HostWork::Reset => *engine = AdmissionEngine::new(*engine.platform(), engine_config),
            HostWork::InjectVerifyFault => engine.inject_verify_failure(),
        }
    }
}

/// Where the shared replay driver sends per-host work: the serial
/// fleet applies it immediately, the parallel routing pass records it
/// into per-host plans.
trait HostExecutor {
    fn send(&mut self, host: usize, work: HostWork);
}

struct SerialHostExec<'a> {
    engine_config: AdmissionConfig,
    engines: &'a mut Vec<AdmissionEngine>,
    decisions: &'a mut Vec<FleetDecision>,
}

impl HostExecutor for SerialHostExec<'_> {
    fn send(&mut self, host: usize, work: HostWork) {
        work.apply(
            host,
            &mut self.engines[host],
            self.engine_config,
            self.decisions,
        );
    }
}

struct PlanHostExec {
    plan: Vec<Vec<HostWork>>,
}

impl HostExecutor for PlanHostExec {
    fn send(&mut self, host: usize, work: HostWork) {
        self.plan[host].push(work);
    }
}

/// The shared replay driver: routes work items, fires due faults at
/// item boundaries, and pumps the evacuation queue — identically for
/// the serial fleet and the parallel routing pass, because every
/// decision here reads only router bookkeeping (see the [module
/// docs](self)).
struct Drive<'a, E: HostExecutor> {
    router: &'a mut FleetRouter,
    plan: &'a FleetFaultPlan,
    policy: EvacuationPolicy,
    hosts: usize,
    item_cursor: &'a mut u64,
    fault_cursor: &'a mut usize,
    ticket: u64,
    exhausted: &'a mut Vec<EvacuationExhausted>,
    exec: &'a mut E,
}

impl<E: HostExecutor> Drive<'_, E> {
    fn run(&mut self, items: &[FleetWorkItem]) {
        for item in items {
            self.barrier(*self.item_cursor);
            match item {
                FleetWorkItem::Single(request) => self.route_single(request.clone()),
                FleetWorkItem::Batch(requests) => self.batch(requests.clone()),
            }
            *self.item_cursor += 1;
        }
        self.flush();
    }

    fn route_single(&mut self, request: AdmissionRequest) {
        let host = self.router.route(&request);
        self.single(host, request, false);
    }

    fn single(&mut self, host: usize, request: AdmissionRequest, evac: bool) {
        self.exec
            .send(host, HostWork::Single(self.ticket, evac, request));
        self.ticket += 1;
    }

    fn batch(&mut self, requests: Vec<AdmissionRequest>) {
        if self.hosts == 1 {
            // Hand the batch verbatim to the engine's own batch path so
            // even the per-engine counters match the plain engine; the
            // router only books its members.
            for request in &requests {
                self.router.route(request);
            }
            let tickets: Vec<u64> = (self.ticket..self.ticket + requests.len() as u64).collect();
            self.ticket += requests.len() as u64;
            self.exec.send(0, HostWork::Batch(tickets, requests));
            return;
        }
        let mut arrivals: Vec<AdmissionRequest> = Vec::new();
        for request in requests {
            match request {
                AdmissionRequest::Arrival(_) => arrivals.push(request),
                // Mirror the engine: anything else in a batch is
                // processed in place, before the arrivals.
                other => self.route_single(other),
            }
        }
        arrivals.sort_by(|a, b| match (a, b) {
            (AdmissionRequest::Arrival(x), AdmissionRequest::Arrival(y)) => {
                canonical_vm_order(x, y)
            }
            _ => unreachable!("only arrivals are collected"),
        });
        // Route in canonical order, bucketing per host while keeping
        // each member's global ticket.
        let mut buckets: Vec<(usize, Vec<u64>, Vec<AdmissionRequest>)> = Vec::new();
        for request in arrivals {
            let host = self.router.route(&request);
            match buckets.iter_mut().find(|(h, _, _)| *h == host) {
                Some((_, tickets, members)) => {
                    tickets.push(self.ticket);
                    members.push(request);
                }
                None => buckets.push((host, vec![self.ticket], vec![request])),
            }
            self.ticket += 1;
        }
        for (host, tickets, members) in buckets {
            self.exec.send(host, HostWork::Batch(tickets, members));
        }
    }

    /// Fires every fault due at `now`, then gives ready evacuees a
    /// placement attempt. A no-op when no plan is armed.
    fn barrier(&mut self, now: u64) {
        while *self.fault_cursor < self.plan.len()
            && self.plan.faults()[*self.fault_cursor].at <= now
        {
            let scheduled = self.plan.faults()[*self.fault_cursor];
            *self.fault_cursor += 1;
            self.fire(scheduled.fault, now);
        }
        self.pump(now);
    }

    fn fire(&mut self, fault: FleetFault, now: u64) {
        self.router.stats.faults_injected += 1;
        match fault {
            FleetFault::HostCrash { host } => {
                self.router.stats.host_crashes += 1;
                // Abrupt loss: the engine state is gone before anyone
                // can depart gracefully.
                self.exec.send(host, HostWork::Reset);
                self.router.evacuate(host, now);
            }
            FleetFault::HostDrain { host } => {
                self.router.stats.host_drains += 1;
                // Graceful retirement: the dying engine sees each VM
                // depart (logged as evac departures), then the host
                // takes no further work.
                let departing = self.router.evacuate(host, now);
                for vm in departing {
                    self.single(host, AdmissionRequest::Departure(VmId(vm)), true);
                }
            }
            FleetFault::VerifyFault { host } => {
                self.router.stats.verify_faults += 1;
                self.exec.send(host, HostWork::InjectVerifyFault);
            }
        }
    }

    fn pump(&mut self, now: u64) {
        for (host, spec) in self
            .router
            .pump_evacuations(now, self.policy, self.exhausted)
        {
            self.single(host, AdmissionRequest::Arrival(spec), true);
        }
    }

    /// After the last item: fires any faults scheduled past the end,
    /// then drains the evacuation queue to completion (placed or
    /// exhausted — bounded by the attempt budget, so this terminates).
    fn flush(&mut self) {
        let mut now = *self.item_cursor;
        while *self.fault_cursor < self.plan.len() {
            let scheduled = self.plan.faults()[*self.fault_cursor];
            *self.fault_cursor += 1;
            now = now.max(scheduled.at);
            self.fire(scheduled.fault, now);
            self.pump(now);
        }
        while let Some(ready) = self.router.earliest_pending() {
            now = now.max(ready);
            self.pump(now);
        }
    }
}

/// The sharded admission controller. See the [module docs](self).
#[derive(Debug)]
pub struct AdmissionFleet {
    platform: Platform,
    config: FleetConfig,
    engines: Vec<AdmissionEngine>,
    router: FleetRouter,
    decisions: Vec<FleetDecision>,
    next_index: u64,
    scenario: FleetScenario,
    exhausted: Vec<EvacuationExhausted>,
    item_cursor: u64,
    fault_cursor: usize,
}

impl AdmissionFleet {
    /// Creates a fleet of empty hosts.
    pub fn new(platform: Platform, config: FleetConfig) -> Self {
        assert!(config.hosts >= 1, "a fleet needs at least one host");
        AdmissionFleet {
            platform,
            config,
            engines: (0..config.hosts)
                .map(|_| AdmissionEngine::new(platform, config.engine))
                .collect(),
            router: FleetRouter::new(config.hosts, &platform),
            decisions: Vec::new(),
            next_index: 0,
            scenario: FleetScenario::default(),
            exhausted: Vec::new(),
            item_cursor: 0,
            fault_cursor: 0,
        }
    }

    /// The platform every host runs.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The per-host engines, indexed by host.
    pub fn engines(&self) -> &[AdmissionEngine] {
        &self.engines
    }

    /// The router (bookkept loads, alive set, and routing counters).
    pub fn router(&self) -> &FleetRouter {
        &self.router
    }

    /// The merged decision log so far, in ticket order.
    pub fn decisions(&self) -> &[FleetDecision] {
        &self.decisions
    }

    /// The armed scenario (default: fault-free, no HI VMs).
    pub fn scenario(&self) -> &FleetScenario {
        &self.scenario
    }

    /// Evacuated VMs that exhausted their placement attempts, in the
    /// order they ran out.
    pub fn evacuation_failures(&self) -> &[EvacuationExhausted] {
        &self.exhausted
    }

    /// Arms a fault scenario. Must be called before the first request;
    /// the scenario is validated here (the validated-at-attach rule),
    /// so replay never encounters an invalid fault. Faults fire at
    /// [`Self::replay`] item boundaries (direct [`Self::submit`] calls
    /// do not advance the fault clock).
    pub fn arm(&mut self, scenario: FleetScenario) -> Result<(), AllocError> {
        if self.next_index != 0 || !self.decisions.is_empty() {
            return Err(AllocError::FaultPlan {
                detail: "a scenario must be armed before the first request".to_string(),
            });
        }
        scenario.validate(self.config.hosts)?;
        self.router.arm(&scenario);
        self.scenario = scenario;
        Ok(())
    }

    /// Renders the merged decision log, one byte-stable line per
    /// decision, newline-terminated. With one host this is exactly the
    /// engine's `log_text()`.
    pub fn log_text(&self) -> String {
        let mut text = String::new();
        for d in &self.decisions {
            text.push_str(&d.log_line(self.config.hosts));
            text.push('\n');
        }
        text
    }

    /// Engine counters summed across hosts.
    pub fn aggregate_stats(&self) -> AdmissionStats {
        self.engines
            .iter()
            .fold(AdmissionStats::default(), |sum, e| sum.merged(e.stats()))
    }

    /// Total admitted reference utilization across hosts (ground
    /// truth, not the router's bookkeeping). The `+ 0.0` normalizes
    /// the empty sum, which is `-0.0`.
    pub fn admitted_load(&self) -> f64 {
        self.engines
            .iter()
            .flat_map(|e| e.working_set())
            .map(|vm| vm.reference_utilization())
            .sum::<f64>()
            + 0.0
    }

    /// Exports fleet routing/fault counters, aggregated `admission.*`
    /// engine counters, and fleet-level gauges.
    pub fn export_metrics(&self, out: &mut MetricsRegistry) {
        self.router.stats.export_metrics(out);
        self.aggregate_stats().export_metrics(out);
        out.gauge_set("fleet.hosts", self.config.hosts as f64);
        out.gauge_set("fleet.load", self.admitted_load());
        out.gauge_set(
            "fleet.vms",
            self.engines
                .iter()
                .map(|e| e.working_set().len())
                .sum::<usize>() as f64,
        );
    }

    /// Runs `f` on the serial driver over this fleet's own engines,
    /// then restores ticket order over the decisions it appended
    /// (batch buckets execute host by host). Returns where the
    /// appended range starts.
    fn drive(&mut self, f: impl FnOnce(&mut Drive<'_, SerialHostExec<'_>>)) -> usize {
        let first = self.decisions.len();
        let AdmissionFleet {
            config,
            engines,
            router,
            decisions,
            next_index,
            scenario,
            exhausted,
            item_cursor,
            fault_cursor,
            ..
        } = self;
        let mut exec = SerialHostExec {
            engine_config: config.engine,
            engines,
            decisions,
        };
        let mut drive = Drive {
            router,
            plan: &scenario.faults,
            policy: config.evacuation,
            hosts: config.hosts,
            item_cursor,
            fault_cursor,
            ticket: *next_index,
            exhausted,
            exec: &mut exec,
        };
        f(&mut drive);
        *next_index = drive.ticket;
        self.decisions[first..].sort_by_key(|d| d.decision.index);
        first
    }

    /// Routes and serves one request. Direct submits hold the fault
    /// clock still: no armed fault fires and no evacuee is pumped.
    pub fn submit(&mut self, request: AdmissionRequest) -> &FleetDecision {
        self.drive(|drive| drive.route_single(request));
        self.decisions
            .last()
            .expect("a request yields one decision")
    }

    /// Routes and serves a batch of concurrent arrivals: members are
    /// put in canonical order, routed in that order, and each host's
    /// members are admitted as one engine sub-batch. Returns the
    /// batch's merged decisions in ticket order (non-arrivals first,
    /// then arrivals in canonical order). Like [`Self::submit`], fires
    /// no faults.
    pub fn submit_batch(&mut self, requests: Vec<AdmissionRequest>) -> &[FleetDecision] {
        let first = self.drive(|drive| drive.batch(requests));
        &self.decisions[first..]
    }

    /// Serially replays pre-materialized work items (the canonical
    /// fleet semantics the parallel replay is pinned against), firing
    /// any armed faults at item boundaries and resolving every
    /// evacuation (placed or exhausted) before returning.
    pub fn replay(&mut self, items: &[FleetWorkItem]) {
        self.drive(|drive| drive.run(items));
    }

    /// Replays `items` over a fresh fleet in parallel: a serial
    /// routing pass fixes every decision's host and global ticket,
    /// worker threads claim whole hosts from a shared queue and apply
    /// each host's plan to a private engine, and the decision vectors
    /// merge once after the join in ticket order.
    ///
    /// The result is bit-identical to `new` + [`Self::replay`] at
    /// every `threads` value (pinned by the fleet conformance suite).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker thread panics.
    pub fn replay_parallel(
        platform: Platform,
        config: FleetConfig,
        items: &[FleetWorkItem],
        threads: usize,
    ) -> AdmissionFleet {
        Self::replay_parallel_armed(platform, config, FleetScenario::default(), items, threads)
            .expect("the empty scenario is always valid")
    }

    /// [`Self::replay_parallel`] with a fault scenario armed: the
    /// routing pass additionally fires the fault plan and schedules
    /// every evacuation — all from router bookkeeping, so the per-host
    /// plans (including engine resets, injected verify faults, and
    /// evac re-admissions) are fixed before any engine runs, and the
    /// result stays bit-identical to the armed serial fleet at every
    /// thread count.
    pub fn replay_parallel_armed(
        platform: Platform,
        config: FleetConfig,
        scenario: FleetScenario,
        items: &[FleetWorkItem],
        threads: usize,
    ) -> Result<AdmissionFleet, AllocError> {
        assert!(threads > 0, "need at least one thread");
        let hosts = config.hosts;
        scenario.validate(hosts)?;
        // Routing pass: identical calls, in identical order, to what
        // the serial fleet makes — so bookkept loads, owners, fault
        // firings, and chosen hosts agree by construction.
        let mut router = FleetRouter::new(hosts, &platform);
        router.arm(&scenario);
        let mut exec = PlanHostExec {
            plan: (0..hosts).map(|_| Vec::new()).collect(),
        };
        let mut item_cursor = 0u64;
        let mut fault_cursor = 0usize;
        let mut exhausted = Vec::new();
        let mut drive = Drive {
            router: &mut router,
            plan: &scenario.faults,
            policy: config.evacuation,
            hosts,
            item_cursor: &mut item_cursor,
            fault_cursor: &mut fault_cursor,
            ticket: 0,
            exhausted: &mut exhausted,
            exec: &mut exec,
        };
        drive.run(items);
        let ticket = drive.ticket;
        // Parallel pass: whole hosts are the work units, claimed in
        // host order from a shared queue; everything mutable is
        // per-thread and merges once after the join (the sweep
        // executor pattern).
        let queue = std::sync::Mutex::new(exec.plan.into_iter().enumerate());
        let mut host_results: Vec<(usize, AdmissionEngine, Vec<FleetDecision>)> =
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads.min(hosts))
                    .map(|_| {
                        scope.spawn(|| {
                            let mut mine = Vec::new();
                            loop {
                                let claimed = queue.lock().expect("fleet queue poisoned").next();
                                let Some((host, plan)) = claimed else {
                                    break;
                                };
                                let mut engine = AdmissionEngine::new(platform, config.engine);
                                let mut decisions = Vec::new();
                                for work in plan {
                                    work.apply(host, &mut engine, config.engine, &mut decisions);
                                }
                                mine.push((host, engine, decisions));
                            }
                            mine
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("fleet worker panicked"))
                    .collect()
            });
        host_results.sort_by_key(|&(host, _, _)| host);
        let mut engines: Vec<AdmissionEngine> = Vec::with_capacity(hosts);
        let mut decisions: Vec<FleetDecision> = Vec::new();
        for (_, engine, host_decisions) in host_results {
            engines.push(engine);
            decisions.extend(host_decisions);
        }
        decisions.sort_by_key(|d| d.decision.index);
        Ok(AdmissionFleet {
            platform,
            config,
            engines,
            router,
            decisions,
            next_index: ticket,
            scenario,
            exhausted,
            item_cursor,
            fault_cursor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionVerdict;
    use vc2m_model::{Task, TaskId, TaskSet, VmId, VmSpec, WcetSurface};

    fn vm(id: usize, wcet_ms: f64, n: usize) -> VmSpec {
        let space = Platform::platform_a().resources();
        let tasks: TaskSet = (0..n)
            .map(|i| {
                Task::new(
                    TaskId(id * 1000 + i),
                    10.0,
                    WcetSurface::flat(&space, wcet_ms).unwrap(),
                )
                .unwrap()
            })
            .collect();
        VmSpec::new(VmId(id), tasks).unwrap()
    }

    fn fleet(hosts: usize) -> AdmissionFleet {
        AdmissionFleet::new(Platform::platform_a(), FleetConfig::new(hosts, 42))
    }

    #[test]
    fn one_host_fleet_matches_plain_engine() {
        let mut f = fleet(1);
        let mut e = AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        for request in [
            AdmissionRequest::Arrival(vm(1, 2.0, 2)),
            AdmissionRequest::Arrival(vm(2, 3.0, 3)),
            AdmissionRequest::Departure(VmId(1)),
            AdmissionRequest::ModeChange(vm(2, 1.0, 1)),
            AdmissionRequest::Departure(VmId(9)),
        ] {
            f.submit(request.clone());
            e.submit(request);
        }
        f.submit_batch(vec![
            AdmissionRequest::Arrival(vm(5, 2.0, 1)),
            AdmissionRequest::Arrival(vm(6, 1.0, 2)),
        ]);
        e.submit_batch(vec![
            AdmissionRequest::Arrival(vm(5, 2.0, 1)),
            AdmissionRequest::Arrival(vm(6, 1.0, 2)),
        ]);
        assert_eq!(f.log_text(), e.log_text());
        assert_eq!(f.engines()[0].allocation(), e.allocation());
        assert_eq!(&f.aggregate_stats(), e.stats());
    }

    #[test]
    fn arrivals_spread_over_hosts_and_departures_route_home() {
        let mut f = fleet(2);
        // Each VM loads 1.5 cores of a 4-core host; bookkeeping packs
        // two onto host 0 (3.0 <= 4) and spills the third (4.5 > 4).
        let d1 = f.submit(AdmissionRequest::Arrival(vm(1, 5.0, 3))).clone();
        let d2 = f.submit(AdmissionRequest::Arrival(vm(2, 5.0, 3))).clone();
        let d3 = f.submit(AdmissionRequest::Arrival(vm(3, 5.0, 3))).clone();
        assert!(matches!(
            d1.decision.verdict,
            AdmissionVerdict::Admitted { .. }
        ));
        assert!(matches!(
            d2.decision.verdict,
            AdmissionVerdict::Admitted { .. }
        ));
        assert_eq!(d1.host, 0);
        assert_eq!(d2.host, 0, "best fit packs the tighter host first");
        assert_eq!(d3.host, 1, "bookkept capacity falls through to host 1");
        let d = f.submit(AdmissionRequest::Departure(VmId(2))).clone();
        assert_eq!(d.host, 0, "departure routes to the owning host");
        assert_eq!(d.decision.verdict, AdmissionVerdict::Departed);
        for engine in f.engines() {
            if !engine.working_set().is_empty() {
                engine.allocation().verify(f.platform()).unwrap();
            }
        }
    }

    #[test]
    fn merged_log_indices_are_global_and_lines_carry_hosts() {
        let mut f = fleet(2);
        f.submit(AdmissionRequest::Arrival(vm(1, 6.0, 3)));
        f.submit(AdmissionRequest::Arrival(vm(2, 6.0, 3)));
        f.submit(AdmissionRequest::Arrival(vm(3, 6.0, 3)));
        let text = f.log_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("#00000 "), "{}", lines[0]);
        assert!(lines[2].starts_with("#00002 "), "{}", lines[2]);
        assert!(lines[0].ends_with("host=0"), "{}", lines[0]);
        assert!(lines[2].ends_with("host=1"), "{}", lines[2]);
    }

    #[test]
    fn parallel_replay_matches_serial_at_every_thread_count() {
        let items: Vec<FleetWorkItem> = vec![
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(1, 4.0, 3))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(2, 4.0, 3))),
            FleetWorkItem::Batch(vec![
                AdmissionRequest::Arrival(vm(3, 2.0, 2)),
                AdmissionRequest::Arrival(vm(4, 5.0, 2)),
            ]),
            FleetWorkItem::Single(AdmissionRequest::Departure(VmId(2))),
            FleetWorkItem::Single(AdmissionRequest::ModeChange(vm(1, 2.0, 2))),
        ];
        let platform = Platform::platform_a();
        let config = FleetConfig::new(3, 42);
        let mut serial = AdmissionFleet::new(platform, config);
        serial.replay(&items);
        for threads in [1, 2, 8] {
            let parallel = AdmissionFleet::replay_parallel(platform, config, &items, threads);
            assert_eq!(parallel.log_text(), serial.log_text(), "threads={threads}");
            assert_eq!(parallel.aggregate_stats(), serial.aggregate_stats());
            assert_eq!(parallel.router().loads(), serial.router().loads());
            for (a, b) in parallel.engines().iter().zip(serial.engines()) {
                assert_eq!(a.allocation(), b.allocation());
            }
        }
    }

    #[test]
    fn fleet_metrics_families_export() {
        let mut f = fleet(2);
        f.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        let mut registry = MetricsRegistry::new();
        f.export_metrics(&mut registry);
        assert_eq!(registry.gauge("fleet.hosts"), Some(2.0));
        assert_eq!(registry.counter("fleet.routed"), Some(1));
        assert_eq!(registry.counter("admission.requests"), Some(1));
        assert_eq!(registry.counter("fleet.faults.injected"), Some(0));
        assert_eq!(registry.counter("fleet.evacuations.vms"), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_rejected() {
        fleet(0);
    }

    #[test]
    fn generated_fault_plans_are_deterministic_and_valid() {
        let spec = FleetFaultSpec::new(5, 100);
        for seed in 0..24 {
            let a = FleetFaultPlan::generate(seed, 4, &spec);
            let b = FleetFaultPlan::generate(seed, 4, &spec);
            assert_eq!(a, b, "seed {seed} must regenerate the same plan");
            assert_eq!(a.len(), 5);
            a.validate(4)
                .unwrap_or_else(|e| panic!("seed {seed} generated an invalid plan: {e}"));
            let sorted = a.faults().windows(2).all(|w| w[0].at <= w[1].at);
            assert!(sorted, "plans are sorted by ticket");
        }
        assert_ne!(
            FleetFaultPlan::generate(1, 4, &spec),
            FleetFaultPlan::generate(2, 4, &spec),
        );
        // A one-host fleet can only ever draw verify faults.
        let solo = FleetFaultPlan::generate(7, 1, &FleetFaultSpec::new(6, 10));
        assert!(solo
            .faults()
            .iter()
            .all(|f| matches!(f.fault, FleetFault::VerifyFault { host: 0 })));
        solo.validate(1).unwrap();
    }

    #[test]
    fn scenario_validation_rejects_bad_plans() {
        let out_of_range = FleetFaultPlan::new().inject(0, FleetFault::HostCrash { host: 5 });
        assert!(matches!(
            out_of_range.validate(2),
            Err(AllocError::FaultPlan { .. })
        ));
        let dead_target = FleetFaultPlan::new()
            .inject(0, FleetFault::HostCrash { host: 0 })
            .inject(1, FleetFault::VerifyFault { host: 0 });
        assert!(dead_target.validate(3).is_err());
        let no_survivor = FleetFaultPlan::new()
            .inject(0, FleetFault::HostCrash { host: 0 })
            .inject(1, FleetFault::HostDrain { host: 1 });
        assert!(no_survivor.validate(2).is_err());
        let unsorted_hi = FleetScenario::new(FleetFaultPlan::new(), vec![3, 1]);
        assert!(unsorted_hi.validate(2).is_err());
        FleetScenario::default().validate(1).unwrap();
    }

    #[test]
    fn arming_after_the_first_decision_is_rejected() {
        let mut f = fleet(2);
        f.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        let err = f.arm(FleetScenario::default()).unwrap_err();
        assert!(matches!(err, AllocError::FaultPlan { .. }));
    }

    #[test]
    fn crash_evacuation_recharges_the_survivor_and_departure_uncharges_it() {
        let mut f = fleet(2);
        f.arm(FleetScenario::new(
            FleetFaultPlan::new().inject(2, FleetFault::HostCrash { host: 0 }),
            Vec::new(),
        ))
        .unwrap();
        // Both VMs (u=1.2 each) best-fit onto host 0; the crash before
        // item 2 evacuates them to host 1; the departures then must
        // uncharge host 1 — the *current* owner — not host 0.
        let items = vec![
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(1, 4.0, 3))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(2, 4.0, 3))),
            FleetWorkItem::Single(AdmissionRequest::Departure(VmId(1))),
            FleetWorkItem::Single(AdmissionRequest::Departure(VmId(2))),
        ];
        f.replay(&items);
        let stats = f.router().stats();
        assert_eq!(stats.host_crashes, 1);
        assert_eq!(stats.evacuated_vms, 2);
        assert_eq!(stats.evac_placed, 2);
        assert_eq!(stats.evac_exhausted, 0);
        assert_eq!(f.router().alive(), &[false, true]);
        assert_eq!(
            f.router().loads()[0],
            0.0,
            "a dead host's bookkept load stays zero"
        );
        assert!(
            f.router().loads()[1].abs() < 1e-9,
            "survivor load must return to its pre-evacuation value, got {}",
            f.router().loads()[1]
        );
        assert!(f.engines()[0].working_set().is_empty(), "crash lost host 0");
        assert!(f.engines()[1].working_set().is_empty(), "both VMs departed");
        // The re-admissions are marked in the log; the departures they
        // enable route to the survivor.
        let text = f.log_text();
        assert!(text.contains(" evac"), "{text}");
        for d in f.decisions().iter().filter(|d| {
            matches!(d.decision.verdict, AdmissionVerdict::Departed)
        }) {
            assert_eq!(d.host, 1, "departures route to the current owner");
        }
    }

    #[test]
    fn drain_departs_evacuees_from_the_dying_host_then_replaces_them() {
        let mut f = fleet(2);
        f.arm(FleetScenario::new(
            FleetFaultPlan::new().inject(1, FleetFault::HostDrain { host: 0 }),
            Vec::new(),
        ))
        .unwrap();
        let items = vec![
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(1, 4.0, 3))),
            FleetWorkItem::Single(AdmissionRequest::Departure(VmId(1))),
        ];
        f.replay(&items);
        let stats = f.router().stats();
        assert_eq!(stats.host_drains, 1);
        assert_eq!(stats.evacuated_vms, 1);
        assert_eq!(stats.evac_placed, 1);
        // Ticket order: arrival on host 0, evac departure off host 0,
        // evac re-admission on host 1, then the trace departure.
        let evac_lines: Vec<&FleetDecision> =
            f.decisions().iter().filter(|d| d.evac).collect();
        assert_eq!(evac_lines.len(), 2);
        assert_eq!(evac_lines[0].host, 0, "drain departs on the dying host");
        assert_eq!(evac_lines[0].decision.verdict, AdmissionVerdict::Departed);
        assert_eq!(evac_lines[1].host, 1, "re-admission lands on the survivor");
        assert!(
            f.engines()[0].working_set().is_empty(),
            "the drained engine saw every VM depart"
        );
        let last = f.decisions().last().unwrap();
        assert_eq!(last.host, 1, "the trace departure routes to the survivor");
        assert!(!last.evac);
    }

    #[test]
    fn verify_fault_downgrades_the_next_admission_to_a_repack() {
        let mut f = fleet(2);
        f.arm(FleetScenario::new(
            FleetFaultPlan::new().inject(1, FleetFault::VerifyFault { host: 0 }),
            Vec::new(),
        ))
        .unwrap();
        let items = vec![
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(1, 4.0, 3))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(2, 4.0, 3))),
        ];
        f.replay(&items);
        assert_eq!(f.router().stats().verify_faults, 1);
        assert_eq!(f.router().stats().faults_injected, 1);
        let lines: Vec<String> = f
            .decisions()
            .iter()
            .map(|d| d.log_line(2))
            .collect();
        assert!(lines[0].contains("admitted"), "{}", lines[0]);
        assert!(
            lines[1].contains("repack"),
            "the faulted verification must fall back to a repack: {}",
            lines[1]
        );
    }

    #[test]
    fn evacuation_gives_hi_vms_first_claim_on_survivor_headroom() {
        let mut f = fleet(2);
        f.arm(FleetScenario::new(
            FleetFaultPlan::new().inject(3, FleetFault::HostCrash { host: 0 }),
            vec![3],
        ))
        .unwrap();
        // Host 0 holds LO vm 1 (u=1.05) and HI vm 3 (u=1.0); host 1
        // holds u=2.9, leaving headroom for exactly one evacuee. A
        // utilization-major order would try (and place) the heavier LO
        // VM first; criticality-major places the HI VM and lets the LO
        // VM exhaust.
        let items = vec![
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(1, 2.625, 4))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(3, 2.5, 4))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(4, 7.25, 4))),
        ];
        f.replay(&items);
        let stats = f.router().stats();
        assert_eq!(stats.evacuated_vms, 2);
        assert_eq!(stats.evac_hi, 1);
        assert_eq!(stats.evac_lo, 1);
        assert_eq!(stats.evac_placed, 1, "only the HI VM fits the survivor");
        assert_eq!(stats.evac_exhausted, 1);
        let failures = f.evacuation_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].vm, 1, "the LO VM is the one left behind");
        assert_eq!(failures[0].criticality, Criticality::Lo);
        assert_eq!(failures[0].attempts, 3);
        // The one evac re-admission is the HI VM, on the survivor.
        let placed: Vec<&FleetDecision> = f
            .decisions()
            .iter()
            .filter(|d| d.evac)
            .collect();
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].host, 1);
        assert!(
            placed[0].decision.log_line().contains("vm=3"),
            "{}",
            placed[0].decision.log_line()
        );
    }

    #[test]
    fn evacuation_exhaustion_is_reported_not_panicked() {
        let mut f = fleet(2);
        f.arm(FleetScenario::new(
            FleetFaultPlan::new().inject(2, FleetFault::HostCrash { host: 1 }),
            Vec::new(),
        ))
        .unwrap();
        // Two u=3.6 VMs: one per host. The crash strands the second
        // with no survivor headroom; it must exhaust as a typed
        // record, never a panic.
        let items = vec![
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(1, 9.0, 4))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(2, 9.0, 4))),
        ];
        f.replay(&items);
        let stats = f.router().stats();
        assert_eq!(stats.evacuated_vms, 1);
        assert_eq!(stats.evac_placed, 0);
        assert_eq!(stats.evac_deferred, 3);
        assert_eq!(stats.evac_exhausted, 1);
        let failures = f.evacuation_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].vm, 2);
        assert_eq!(failures[0].attempts, 3);
    }

    #[test]
    fn armed_parallel_replay_matches_serial_at_every_thread_count() {
        let items: Vec<FleetWorkItem> = vec![
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(1, 4.0, 3))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(2, 4.0, 3))),
            FleetWorkItem::Batch(vec![
                AdmissionRequest::Arrival(vm(3, 2.0, 2)),
                AdmissionRequest::Arrival(vm(4, 5.0, 2)),
            ]),
            FleetWorkItem::Single(AdmissionRequest::Departure(VmId(2))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(5, 3.0, 2))),
            FleetWorkItem::Single(AdmissionRequest::ModeChange(vm(1, 2.0, 2))),
            FleetWorkItem::Single(AdmissionRequest::Arrival(vm(6, 2.0, 2))),
        ];
        let scenario = FleetScenario::new(
            FleetFaultPlan::new()
                .inject(2, FleetFault::VerifyFault { host: 0 })
                .inject(4, FleetFault::HostCrash { host: 1 })
                .inject(6, FleetFault::HostDrain { host: 2 }),
            vec![2, 5],
        );
        let platform = Platform::platform_a();
        let config = FleetConfig::new(3, 42);
        let mut serial = AdmissionFleet::new(platform, config);
        serial.arm(scenario.clone()).unwrap();
        serial.replay(&items);
        assert!(
            serial.router().stats().faults_injected == 3,
            "all three faults fire"
        );
        for threads in [1, 2, 8] {
            let parallel = AdmissionFleet::replay_parallel_armed(
                platform,
                config,
                scenario.clone(),
                &items,
                threads,
            )
            .unwrap();
            assert_eq!(parallel.log_text(), serial.log_text(), "threads={threads}");
            assert_eq!(parallel.aggregate_stats(), serial.aggregate_stats());
            assert_eq!(parallel.router().stats(), serial.router().stats());
            assert_eq!(parallel.router().loads(), serial.router().loads());
            assert_eq!(parallel.router().alive(), serial.router().alive());
            assert_eq!(parallel.evacuation_failures(), serial.evacuation_failures());
            for (a, b) in parallel.engines().iter().zip(serial.engines()) {
                assert_eq!(a.allocation(), b.allocation());
            }
        }
    }
}
