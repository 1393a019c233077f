//! Streaming VM admission with warm-started re-allocation.
//!
//! The static entry points ([`Solution::allocate`],
//! [`allocate_with_degradation`]) solve one system from scratch. A live
//! hypervisor instead sees a *stream* of requests — VMs arrive, depart,
//! and change modes — and must answer admit/reject/degrade against its
//! current state. [`AdmissionEngine`] is that long-running controller.
//!
//! # Semantics (the canonical, replayable definition)
//!
//! The engine's state after each request is defined by the following
//! deterministic process; the differential conformance suite replays
//! exactly this definition with a full verifier and no caches and pins
//! the optimised engine against it bit-for-bit.
//!
//! * **Arrival** — reject a duplicate [`VmId`]; reject immediately when
//!   total reference utilization would exceed platform capacity (a
//!   necessary condition for any allocation). Otherwise *warm-start*:
//!   run the VM level for just the new VM (seeded per VM, see below),
//!   then place its VCPUs — heaviest first — by first fit over the
//!   current cores, upgrading a core's partitions from the spare pool
//!   (greedy, largest marginal utilization reduction, cache on ties)
//!   or opening a new core when needed. Only the *perturbed* cores are
//!   then re-verified ([`SystemAllocation::verify_cores`]); untouched
//!   cores keep their standing proof. If incremental placement fails,
//!   fall back to a full repack: the configured [`Solution`] re-solves
//!   the whole working set plus the newcomer from scratch, and the
//!   result must pass a full [`SystemAllocation::verify`]. Nothing is
//!   ever shed, so an arrival can never evict an admitted VM. If the
//!   repack fails, the arrival is rejected and the state is
//!   untouched.
//! * **Departure** — remove the VM's VCPUs in place, compact indices,
//!   and drop emptied cores (their partitions return to the spare
//!   pool). Removal only ever shrinks per-core demand, so no
//!   re-verification is needed on the fast path; the reference mode
//!   re-proves it after every departure.
//! * **Mode change** — atomically replace the VM's taskset: remove the
//!   old mode, then admit the new one under the same id (with a fresh
//!   per-VM parameter stream). On failure the engine rolls back to the
//!   snapshot and reports [`AdmissionVerdict::Degraded`] — the VM keeps
//!   running in its previous mode.
//! * **Batch** — concurrent arrivals are first put in a canonical
//!   order (decreasing utilization, [`VmId`] on ties), which makes the
//!   batch outcome independent of submission order, then admitted in
//!   one pass sharing a merged dirty set that is verified once at the
//!   batch boundary.
//!
//! # Determinism
//!
//! Same trace + same seed ⇒ byte-identical decision log. Every random
//! choice is derived from the engine seed: the VM level for an
//! arriving VM uses a stream that is a pure function of
//! `(engine seed, VmId, mode revision)`, and the repack path passes
//! the engine seed to the solver, so a repack result is a pure
//! function of the working set. No wall clock, no global state.
//!
//! # Safety guarantee
//!
//! An admitted system is never unschedulable: every admitting path
//! ends in a verifier pass — dirty-set on the fast path, full inside
//! the repack — and rejected requests leave the state untouched. The
//! seeded property suite asserts `verify()` after every request.
//!
//! [`allocate_with_degradation`]: crate::allocate_with_degradation

use crate::error::AllocError;
use crate::result::{CoreAssignment, SystemAllocation};
use crate::solution::Solution;
use std::cmp::Ordering;
use std::collections::HashMap;
use vc2m_analysis::core_check::{self, UTILIZATION_EPS};
use vc2m_analysis::{AnalysisCache, DirtyCores};
use vc2m_model::{Alloc, Platform, VcpuId, VcpuSpec, VmId, VmSpec};
use vc2m_rng::{DetRng, Rng, SplitMix64};
use vc2m_simcore::MetricsRegistry;

/// Engine configuration: which solution solves, and the seed every
/// random choice derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// The allocation strategy for both warm-start VM-level runs and
    /// repacks (default: [`Solution::Auto`]).
    pub solution: Solution,
    /// Seed for all randomized choices (see the module docs).
    pub seed: u64,
    /// Reference mode: disable the analysis cache and replace every
    /// dirty-set verification with a full [`SystemAllocation::verify`]
    /// (departures included). Semantically identical to the fast mode
    /// — the conformance suite pins that — but with no warm-start
    /// verification shortcuts, so it serves as the slow differential
    /// oracle. Reference mode also disables the rejection memo.
    pub reference: bool,
    /// Saturated-regime rejection memo: remember solver rejections
    /// keyed by `(state signature, newcomer signature)` so a repeat of
    /// a just-failed arrival skips the failing solver search. The memo
    /// never changes a decision — memo-on and memo-off decision logs
    /// are bit-identical (pinned by the conformance suite) — only the
    /// cost of reaching it.
    pub memo: bool,
}

impl AdmissionConfig {
    /// The default configuration for `seed`: [`Solution::Auto`], fast
    /// mode, rejection memo enabled.
    pub fn new(seed: u64) -> Self {
        AdmissionConfig {
            solution: Solution::Auto,
            seed,
            reference: false,
            memo: true,
        }
    }

    /// Replaces the solution.
    pub fn with_solution(mut self, solution: Solution) -> Self {
        self.solution = solution;
        self
    }

    /// Switches to reference (slow differential oracle) mode. The
    /// oracle stays maximally naive: the rejection memo is disabled
    /// along with the analysis cache.
    pub fn reference_mode(mut self) -> Self {
        self.reference = true;
        self.memo = false;
        self
    }

    /// Disables the rejection memo (every rejection re-runs the full
    /// failing search). Used by the conformance suite and the
    /// memo-off benchmark arm.
    pub fn without_memo(mut self) -> Self {
        self.memo = false;
        self
    }
}

/// One request against the live hypervisor state.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionRequest {
    /// A new VM asks to be admitted.
    Arrival(VmSpec),
    /// An admitted VM leaves, freeing its resources.
    Departure(VmId),
    /// An admitted VM asks to switch to a new taskset (same id).
    ModeChange(VmSpec),
}

/// Which path admitted a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPath {
    /// Warm-start placement into the current allocation; only the
    /// perturbed cores were re-verified.
    Incremental,
    /// Full re-allocation of the working set by the configured
    /// solution, proven by a full verify (nothing is shed).
    Repack,
}

impl AdmissionPath {
    /// Stable lower-case name, used in the decision log.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPath::Incremental => "incremental",
            AdmissionPath::Repack => "repack",
        }
    }
}

/// The engine's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionVerdict {
    /// The VM (or its new mode) was admitted.
    Admitted {
        /// Which path admitted it.
        path: AdmissionPath,
    },
    /// The request was refused; the state is untouched.
    Rejected {
        /// Why, for the operator's log.
        reason: String,
    },
    /// A mode change was refused; the VM keeps running in its
    /// previous (degraded) mode.
    Degraded {
        /// Why the new mode was not admittable.
        reason: String,
    },
    /// A departure completed.
    Departed,
}

/// The kind of a request, for the decision log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// An [`AdmissionRequest::Arrival`].
    Arrival,
    /// An [`AdmissionRequest::Departure`].
    Departure,
    /// An [`AdmissionRequest::ModeChange`].
    ModeChange,
}

impl RequestKind {
    /// Stable lower-case name, used in the decision log.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Arrival => "arrive",
            RequestKind::Departure => "depart",
            RequestKind::ModeChange => "mode",
        }
    }
}

/// One entry of the decision log: the request, the verdict, and the
/// post-request system state.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionDecision {
    /// Zero-based position in the decision log.
    pub index: u64,
    /// The request kind.
    pub kind: RequestKind,
    /// The VM the request concerned.
    pub vm: VmId,
    /// The VM's reference utilization (the departing spec's for
    /// departures; `0` when the VM was unknown).
    pub utilization: f64,
    /// The verdict.
    pub verdict: AdmissionVerdict,
    /// Admitted VMs after the request.
    pub vms: usize,
    /// Live VCPUs after the request.
    pub vcpus: usize,
    /// Cores in use after the request.
    pub cores: usize,
    /// Total admitted reference utilization after the request.
    pub load: f64,
}

impl AdmissionDecision {
    /// Renders the byte-stable log line this decision contributes to
    /// the decision log (fixed-width index, fixed six-digit floats).
    pub fn log_line(&self) -> String {
        let verdict = match &self.verdict {
            AdmissionVerdict::Admitted { path } => format!("admitted/{}", path.name()),
            AdmissionVerdict::Rejected { reason } => format!("rejected ({reason})"),
            AdmissionVerdict::Degraded { reason } => format!("degraded ({reason})"),
            AdmissionVerdict::Departed => "departed".to_string(),
        };
        format!(
            "#{:05} {} vm={} u={:.6} -> {} | vms={} vcpus={} cores={} load={:.6}",
            self.index,
            self.kind.name(),
            self.vm.0,
            self.utilization,
            verdict,
            self.vms,
            self.vcpus,
            self.cores,
            self.load,
        )
    }
}

/// Engine counters, exported as the `admission.*` metrics family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests processed (batch items count individually).
    pub requests: u64,
    /// Batches processed.
    pub batches: u64,
    /// Arrivals/mode changes admitted by warm-start placement.
    pub admitted_incremental: u64,
    /// Arrivals/mode changes admitted by a full repack.
    pub admitted_repack: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Mode changes refused (VM kept its previous mode).
    pub degraded: u64,
    /// Departures completed.
    pub departed: u64,
    /// Arrivals rejected by the utilization capacity pre-filter
    /// (no solver work spent).
    pub capacity_rejects: u64,
    /// Full repacks attempted (admitted or not).
    pub repack_attempts: u64,
    /// Cores opened by incremental placement.
    pub cores_opened: u64,
    /// Partition upgrades granted from the spare pool.
    pub core_upgrades: u64,
    /// Cores re-verified via the dirty-set path.
    pub dirty_cores_verified: u64,
    /// Full verifications run (reference mode and batch boundaries).
    pub full_verifies: u64,
    /// Arrivals rejected straight from the rejection memo (no solver
    /// search run).
    pub memo_hits: u64,
    /// Solver rejections recorded into the memo.
    pub memo_inserts: u64,
    /// Memo invalidations (any state mutation clears it).
    pub memo_invalidations: u64,
}

impl AdmissionStats {
    /// Exports the counters under the `admission.` prefix.
    pub fn export_metrics(&self, out: &mut MetricsRegistry) {
        out.counter_add("admission.requests", self.requests);
        out.counter_add("admission.batches", self.batches);
        out.counter_add("admission.admitted_incremental", self.admitted_incremental);
        out.counter_add("admission.admitted_repack", self.admitted_repack);
        out.counter_add("admission.rejected", self.rejected);
        out.counter_add("admission.degraded", self.degraded);
        out.counter_add("admission.departed", self.departed);
        out.counter_add("admission.capacity_rejects", self.capacity_rejects);
        out.counter_add("admission.repack_attempts", self.repack_attempts);
        out.counter_add("admission.cores_opened", self.cores_opened);
        out.counter_add("admission.core_upgrades", self.core_upgrades);
        out.counter_add("admission.dirty_cores_verified", self.dirty_cores_verified);
        out.counter_add("admission.full_verifies", self.full_verifies);
        out.counter_add("admission.memo_hits", self.memo_hits);
        out.counter_add("admission.memo_inserts", self.memo_inserts);
        out.counter_add("admission.memo_invalidations", self.memo_invalidations);
    }

    /// Field-wise sum, for fleet-level aggregation across host
    /// engines.
    pub fn merged(mut self, other: &AdmissionStats) -> AdmissionStats {
        self.requests += other.requests;
        self.batches += other.batches;
        self.admitted_incremental += other.admitted_incremental;
        self.admitted_repack += other.admitted_repack;
        self.rejected += other.rejected;
        self.degraded += other.degraded;
        self.departed += other.departed;
        self.capacity_rejects += other.capacity_rejects;
        self.repack_attempts += other.repack_attempts;
        self.cores_opened += other.cores_opened;
        self.core_upgrades += other.core_upgrades;
        self.dirty_cores_verified += other.dirty_cores_verified;
        self.full_verifies += other.full_verifies;
        self.memo_hits += other.memo_hits;
        self.memo_inserts += other.memo_inserts;
        self.memo_invalidations += other.memo_invalidations;
        self
    }
}

/// Canonical concurrent-arrival order (decreasing utilization, then
/// [`VmId`] ascending): the total order both the engine's batch
/// admission and the fleet's cross-shard batch routing sort by, so a
/// batch's outcome never depends on its submission permutation.
pub(crate) fn canonical_vm_order(a: &VmSpec, b: &VmSpec) -> Ordering {
    b.reference_utilization()
        .partial_cmp(&a.reference_utilization())
        .unwrap_or(Ordering::Equal)
        .then(a.id().0.cmp(&b.id().0))
}

/// FNV-1a 64-bit step, the stable in-tree hash behind the memo
/// signatures (no `RandomState`, so signatures are identical across
/// runs and platforms).
fn fnv_mix(hash: &mut u64, word: u64) {
    *hash ^= word;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
}

/// Content signature of a VM spec: id plus every task's id, period
/// bits, and full WCET surface bits. Two VMs with equal signatures are
/// interchangeable inputs to the solver.
fn vm_signature(vm: &VmSpec) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    fnv_mix(&mut hash, vm.id().0 as u64);
    for task in vm.tasks().iter() {
        fnv_mix(&mut hash, task.id().0 as u64);
        fnv_mix(&mut hash, task.period().to_bits());
        for (_, wcet) in task.wcet_surface().iter() {
            fnv_mix(&mut hash, wcet.to_bits());
        }
    }
    hash
}

/// The saturated-regime rejection memo: solver rejections keyed by
/// `(engine-state signature, newcomer signature)`.
///
/// Soundness: the engine is deterministic, so an arrival's verdict is
/// a pure function of the engine state (working set, VCPUs, core
/// layout) and the newcomer spec. The state signature hashes all of
/// that content, and the memo is *additionally* cleared on every state
/// mutation (admission, departure, committed mode change), so a hit
/// can only occur when the exact failing computation would be re-run —
/// the memo replays its recorded verdict instead. Decision logs with
/// the memo on and off are therefore bit-identical (pinned by the
/// conformance suite); only `memo_*` counters differ.
#[derive(Debug, Default)]
struct RejectionMemo {
    entries: HashMap<(u64, u64), String>,
}

impl RejectionMemo {
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn get(&self, key: (u64, u64)) -> Option<&String> {
        self.entries.get(&key)
    }

    fn insert(&mut self, key: (u64, u64), reason: String) {
        self.entries.insert(key, reason);
    }

    fn clear(&mut self) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        self.entries.clear();
        true
    }
}

/// Snapshot of the mutable engine state, for mode-change rollback and
/// the batch safety net.
#[derive(Debug, Clone)]
struct StateSnapshot {
    vms: Vec<VmSpec>,
    revisions: Vec<u64>,
    vcpus: Vec<VcpuSpec>,
    cores: Vec<CoreAssignment>,
    next_vcpu_id: usize,
}

/// The long-running admission controller. See the [module docs](self).
#[derive(Debug)]
pub struct AdmissionEngine {
    platform: Platform,
    config: AdmissionConfig,
    cache: AnalysisCache,
    /// Admitted VMs in admission order (the repack working set order).
    vms: Vec<VmSpec>,
    /// Mode revision per admitted VM (parallel to `vms`).
    revisions: Vec<u64>,
    /// Live VCPUs; `cores` hold indices into this list.
    vcpus: Vec<VcpuSpec>,
    cores: Vec<CoreAssignment>,
    /// Monotone VCPU id counter (never reused across arrivals, reset
    /// only by a repack, which renumbers everything).
    next_vcpu_id: usize,
    next_index: u64,
    decisions: Vec<AdmissionDecision>,
    stats: AdmissionStats,
    memo: RejectionMemo,
    /// Armed transient verification faults (fleet fault injection):
    /// each pending fault makes one `verify_state` call fail with a
    /// typed injected error before running the verifier.
    injected_verify_faults: u64,
}

impl AdmissionEngine {
    /// Creates an engine with an empty working set.
    pub fn new(platform: Platform, config: AdmissionConfig) -> Self {
        let cache = if config.reference {
            AnalysisCache::disabled()
        } else {
            AnalysisCache::enabled()
        };
        AdmissionEngine {
            platform,
            config,
            cache,
            vms: Vec::new(),
            revisions: Vec::new(),
            vcpus: Vec::new(),
            cores: Vec::new(),
            next_vcpu_id: 0,
            next_index: 0,
            decisions: Vec::new(),
            stats: AdmissionStats::default(),
            memo: RejectionMemo::default(),
            injected_verify_faults: 0,
        }
    }

    /// Arms one transient verification failure: the next state
    /// verification this engine attempts fails with a typed injected
    /// error *instead of* running the verifier, which forces the
    /// caller's normal failure fallback (an incremental arrival falls
    /// back to the full repack, a batch falls back to per-item
    /// re-admission). The fault is consumed exactly once, is fully
    /// deterministic, and leaves no trace beyond the changed admission
    /// path — used by the fleet's `verify-fault` injection.
    pub fn inject_verify_failure(&mut self) {
        self.injected_verify_faults += 1;
    }

    /// The platform this engine manages.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The admitted VMs, in admission order.
    pub fn working_set(&self) -> &[VmSpec] {
        &self.vms
    }

    /// The current allocation (empty when nothing is admitted).
    pub fn allocation(&self) -> SystemAllocation {
        SystemAllocation::new(self.vcpus.clone(), self.cores.clone())
    }

    /// The decision log so far.
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Renders the full decision log, one byte-stable line per
    /// decision, newline-terminated.
    pub fn log_text(&self) -> String {
        let mut text = String::new();
        for d in &self.decisions {
            text.push_str(&d.log_line());
            text.push('\n');
        }
        text
    }

    /// Engine counters.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// Exports `admission.*` counters, post-state gauges, and the
    /// warm-start analysis-cache statistics.
    pub fn export_metrics(&self, out: &mut MetricsRegistry) {
        self.stats.export_metrics(out);
        out.gauge_set("admission.vms", self.vms.len() as f64);
        out.gauge_set("admission.vcpus", self.vcpus.len() as f64);
        out.gauge_set("admission.cores", self.cores.len() as f64);
        out.gauge_set("admission.load", self.total_load());
        self.cache.stats().export_metrics("admission.cache.", out);
    }

    /// Processes one request and returns its decision (also appended
    /// to the log).
    pub fn submit(&mut self, request: AdmissionRequest) -> &AdmissionDecision {
        self.stats.requests += 1;
        match request {
            AdmissionRequest::Arrival(vm) => {
                let utilization = vm.reference_utilization();
                let id = vm.id();
                let verdict = self.admit_vm(vm, 0, None);
                self.push_decision(RequestKind::Arrival, id, utilization, verdict)
            }
            AdmissionRequest::Departure(id) => {
                let utilization = self
                    .position(id)
                    .map(|p| self.vms[p].reference_utilization())
                    .unwrap_or(0.0);
                let verdict = self.process_departure(id);
                self.push_decision(RequestKind::Departure, id, utilization, verdict)
            }
            AdmissionRequest::ModeChange(vm) => {
                let utilization = vm.reference_utilization();
                let id = vm.id();
                let verdict = self.process_mode_change(vm);
                self.push_decision(RequestKind::ModeChange, id, utilization, verdict)
            }
        }
    }

    /// Admits a batch of concurrent arrivals in one pass.
    ///
    /// A non-arrival in the batch (departure, mode change) is not a
    /// concurrent-admission candidate: it goes through
    /// [`AdmissionEngine::submit`] while the batch is scanned, so all
    /// non-arrivals are decided first, in submission order. The
    /// arrivals are then put in canonical order (decreasing
    /// utilization, [`VmId`] on ties), so the outcome — decisions and
    /// final state — does not depend on their submission order within
    /// the batch. Incremental placements share one merged dirty set,
    /// verified once at the batch boundary (per-core schedulability is
    /// still established during each placement). Returns the batch's
    /// decisions: the non-arrivals' in submission order, then the
    /// arrivals' in canonical order.
    pub fn submit_batch(&mut self, arrivals: Vec<AdmissionRequest>) -> &[AdmissionDecision] {
        self.stats.batches += 1;
        let mut vms: Vec<VmSpec> = Vec::new();
        let first = self.decisions.len();
        for request in arrivals {
            match request {
                AdmissionRequest::Arrival(vm) => vms.push(vm),
                // Only arrivals are concurrent-admission candidates;
                // anything else is submitted right away, before every
                // arrival of the batch. (Traces only put arrivals in
                // batches.)
                other => {
                    let _ = self.submit(other);
                }
            }
        }
        vms.sort_by(Self::canonical_order);
        let snapshot = self.snapshot();
        let saved = (self.stats, self.next_index, self.decisions.len());
        let mut merged = DirtyCores::new();
        for vm in &vms {
            self.stats.requests += 1;
            let utilization = vm.reference_utilization();
            let verdict = self.admit_vm(vm.clone(), 0, Some(&mut merged));
            self.push_decision(RequestKind::Arrival, vm.id(), utilization, verdict);
        }
        // The batch boundary safety net: one verification over the
        // merged dirty set (full in reference mode).
        if self.verify_state(&merged).is_err() {
            // Should be unreachable — placement proves each touched
            // core — but if the net ever catches something, fall back
            // to strictly per-item admission, which verifies each
            // step, rather than publish an unproven state.
            self.restore(snapshot);
            self.stats = saved.0;
            self.next_index = saved.1;
            self.decisions.truncate(saved.2);
            for vm in &vms {
                self.stats.requests += 1;
                let utilization = vm.reference_utilization();
                let verdict = self.admit_vm(vm.clone(), 0, None);
                self.push_decision(RequestKind::Arrival, vm.id(), utilization, verdict);
            }
        }
        &self.decisions[first..]
    }

    /// Total admitted reference utilization (working-set order sum —
    /// deterministic).
    fn total_load(&self) -> f64 {
        self.vms.iter().map(|v| v.reference_utilization()).sum()
    }

    /// Canonical within-batch order: decreasing utilization, then
    /// [`VmId`] ascending — a total order over distinct VMs, so any
    /// permutation of a batch sorts identically. (Shared with the
    /// fleet's cross-shard batch routing via [`canonical_vm_order`].)
    fn canonical_order(a: &VmSpec, b: &VmSpec) -> Ordering {
        canonical_vm_order(a, b)
    }

    fn position(&self, id: VmId) -> Option<usize> {
        self.vms.iter().position(|v| v.id() == id)
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            vms: self.vms.clone(),
            revisions: self.revisions.clone(),
            vcpus: self.vcpus.clone(),
            cores: self.cores.clone(),
            next_vcpu_id: self.next_vcpu_id,
        }
    }

    fn restore(&mut self, snapshot: StateSnapshot) {
        self.vms = snapshot.vms;
        self.revisions = snapshot.revisions;
        self.vcpus = snapshot.vcpus;
        self.cores = snapshot.cores;
        self.next_vcpu_id = snapshot.next_vcpu_id;
    }

    fn push_decision(
        &mut self,
        kind: RequestKind,
        vm: VmId,
        utilization: f64,
        verdict: AdmissionVerdict,
    ) -> &AdmissionDecision {
        let decision = AdmissionDecision {
            index: self.next_index,
            kind,
            vm,
            utilization,
            verdict,
            vms: self.vms.len(),
            vcpus: self.vcpus.len(),
            cores: self.cores.len(),
            load: self.total_load(),
        };
        self.next_index += 1;
        self.decisions.push(decision);
        self.decisions.last().expect("just pushed")
    }

    /// The shared admit path for arrivals and (internally) the arrival
    /// half of a mode change. `revision` selects the VM's parameter
    /// stream; `batch_dirty` collects perturbed cores instead of
    /// verifying per item.
    fn admit_vm(
        &mut self,
        vm: VmSpec,
        revision: u64,
        mut batch_dirty: Option<&mut DirtyCores>,
    ) -> AdmissionVerdict {
        if self.position(vm.id()).is_some() {
            self.stats.rejected += 1;
            return AdmissionVerdict::Rejected {
                reason: format!("vm {} already admitted", vm.id().0),
            };
        }
        // Necessary-condition pre-filter: any allocation implies
        // Σ utilization ≤ m(1+ε) at *reference* resources or better,
        // so demand beyond that is rejected without solver work.
        let capacity = self.platform.max_usable_cores() as f64 * (1.0 + UTILIZATION_EPS);
        let demand = self.total_load() + vm.reference_utilization();
        if demand > capacity {
            self.stats.rejected += 1;
            self.stats.capacity_rejects += 1;
            return AdmissionVerdict::Rejected {
                reason: format!("demand {demand:.6} exceeds capacity {capacity:.6}"),
            };
        }

        // Saturated-regime memo: a repeat of a just-failed arrival
        // against the unchanged state replays its recorded rejection
        // instead of re-running the failing search. Signatures are
        // computed lazily — the memo is empty outside the saturated
        // regime (every state mutation clears it), so the churn-regime
        // fast path never hashes anything.
        let memo_key = if self.config.memo && !self.memo.is_empty() {
            let key = (self.state_signature(), vm_signature(&vm));
            if let Some(reason) = self.memo.get(key) {
                self.stats.memo_hits += 1;
                self.stats.rejected += 1;
                return AdmissionVerdict::Rejected {
                    reason: reason.clone(),
                };
            }
            Some(key)
        } else {
            None
        };

        // Warm start: place only the newcomer; untouched cores keep
        // their standing schedulability proof.
        let saved_cores = self.cores.clone();
        let saved_vcpus_len = self.vcpus.len();
        let saved_next = self.next_vcpu_id;
        if let Some(dirty) = self.place_incremental(&vm, revision) {
            let verified = match batch_dirty.as_deref_mut() {
                Some(merged) => {
                    // Batch mode: defer the net to the batch boundary;
                    // placement already proved each touched core.
                    merged.merge(&dirty);
                    Ok(())
                }
                None => self.verify_state(&dirty),
            };
            match verified {
                Ok(()) => {
                    self.vms.push(vm);
                    self.revisions.push(revision);
                    self.stats.admitted_incremental += 1;
                    self.invalidate_memo();
                    return AdmissionVerdict::Admitted {
                        path: AdmissionPath::Incremental,
                    };
                }
                Err(_) => {
                    // Unreachable in practice (placement proves every
                    // dirty core); fall back to the repack, which
                    // fully re-verifies.
                    self.cores = saved_cores;
                    self.vcpus.truncate(saved_vcpus_len);
                    self.next_vcpu_id = saved_next;
                }
            }
        } else {
            self.cores = saved_cores;
            self.vcpus.truncate(saved_vcpus_len);
            self.next_vcpu_id = saved_next;
        }
        let newcomer_sig = if self.config.memo {
            memo_key.map(|(_, sig)| sig).or_else(|| Some(vm_signature(&vm)))
        } else {
            None
        };
        let verdict = self.repack(vm, revision);
        match &verdict {
            AdmissionVerdict::Admitted { .. } => {
                self.invalidate_memo();
                // A repack renumbered every core; dirty indices
                // collected so far in this batch are stale, and the
                // repack itself verified the whole allocation, so the
                // merged set resets.
                if let Some(merged) = batch_dirty {
                    merged.clear();
                }
            }
            AdmissionVerdict::Rejected { reason } => {
                // The expensive failing search just ran; the state is
                // untouched, so its signature still describes the
                // state the verdict was computed against.
                if let Some(sig) = newcomer_sig {
                    let state = memo_key
                        .map(|(state, _)| state)
                        .unwrap_or_else(|| self.state_signature());
                    self.memo.insert((state, sig), reason.clone());
                    self.stats.memo_inserts += 1;
                }
            }
            _ => {}
        }
        verdict
    }

    /// Clears the rejection memo after a state mutation (admission or
    /// departure): recorded rejections were computed against capacity
    /// that no longer exists in that shape.
    fn invalidate_memo(&mut self) {
        if self.memo.clear() {
            self.stats.memo_invalidations += 1;
        }
    }

    /// Content signature of the whole mutable engine state: the
    /// working set (specs and revisions, in sequence) plus the live
    /// VCPUs and core layout. Equal signatures mean the next arrival
    /// decision is computed from identical inputs.
    fn state_signature(&self) -> u64 {
        let mut hash = 0x84_22_23_25_CB_F2_9C_E4u64;
        for (vm, revision) in self.vms.iter().zip(&self.revisions) {
            fnv_mix(&mut hash, vm_signature(vm));
            fnv_mix(&mut hash, *revision);
        }
        for vcpu in &self.vcpus {
            fnv_mix(&mut hash, vcpu.id().0 as u64);
            fnv_mix(&mut hash, vcpu.vm().0 as u64);
            fnv_mix(&mut hash, vcpu.period().to_bits());
            for (_, budget) in vcpu.budget_surface().iter() {
                fnv_mix(&mut hash, budget.to_bits());
            }
        }
        for core in &self.cores {
            fnv_mix(&mut hash, u64::from(core.alloc.cache));
            fnv_mix(&mut hash, u64::from(core.alloc.bandwidth));
            for &index in &core.vcpus {
                fnv_mix(&mut hash, index as u64);
            }
            fnv_mix(&mut hash, u64::MAX); // core boundary
        }
        hash
    }

    /// Full repack fallback: re-solve the whole working set plus the
    /// newcomer from scratch with the configured solution, then prove
    /// the result with a full verify. Failure rejects the newcomer,
    /// never an incumbent.
    fn repack(&mut self, vm: VmSpec, revision: u64) -> AdmissionVerdict {
        self.stats.repack_attempts += 1;
        let mut candidate: Vec<VmSpec> = self.vms.clone();
        candidate.push(vm);
        let solved = match self
            .config
            .solution
            .try_allocate(&candidate, &self.platform, self.config.seed)
        {
            Ok(outcome) => match outcome.into_allocation() {
                Some(allocation) => match allocation.verify(&self.platform) {
                    Ok(()) => Ok(allocation),
                    Err(e) => Err(format!("verification failed: {e}")),
                },
                None => Err("workload not schedulable".to_string()),
            },
            Err(e) => Err(e.to_string()),
        };
        match solved {
            Ok(allocation) => {
                self.vms = candidate;
                self.revisions.push(revision);
                self.vcpus = allocation.vcpus().to_vec();
                self.cores = allocation.cores().to_vec();
                self.next_vcpu_id = self.vcpus.len();
                self.stats.admitted_repack += 1;
                AdmissionVerdict::Admitted {
                    path: AdmissionPath::Repack,
                }
            }
            Err(reason) => {
                self.stats.rejected += 1;
                AdmissionVerdict::Rejected { reason }
            }
        }
    }

    fn process_departure(&mut self, id: VmId) -> AdmissionVerdict {
        let Some(position) = self.position(id) else {
            self.stats.rejected += 1;
            return AdmissionVerdict::Rejected {
                reason: format!("vm {} not admitted", id.0),
            };
        };
        self.vms.remove(position);
        self.revisions.remove(position);
        self.remove_vcpus_of(id);
        self.stats.departed += 1;
        self.invalidate_memo();
        if self.config.reference {
            // The slow oracle re-proves what the fast path relies on:
            // removal only shrinks per-core demand.
            self.stats.full_verifies += 1;
            let state = SystemAllocation::new(self.vcpus.clone(), self.cores.clone());
            if let Err(e) = state.verify(&self.platform) {
                panic!("reference engine: departure of vm {} broke the state: {e}", id.0);
            }
        }
        AdmissionVerdict::Departed
    }

    fn process_mode_change(&mut self, vm: VmSpec) -> AdmissionVerdict {
        let Some(position) = self.position(vm.id()) else {
            self.stats.rejected += 1;
            return AdmissionVerdict::Rejected {
                reason: format!("vm {} not admitted", vm.id().0),
            };
        };
        let snapshot = self.snapshot();
        let revision = self.revisions[position] + 1;
        let id = vm.id();
        self.vms.remove(position);
        self.revisions.remove(position);
        self.remove_vcpus_of(id);
        match self.admit_vm(vm, revision, None) {
            AdmissionVerdict::Admitted { path } => AdmissionVerdict::Admitted { path },
            AdmissionVerdict::Rejected { reason } => {
                // The new mode does not fit: roll back — the VM keeps
                // running its previous mode, degraded.
                self.restore(snapshot);
                // admit_vm already counted a rejection; reclassify.
                self.stats.rejected -= 1;
                self.stats.degraded += 1;
                AdmissionVerdict::Degraded { reason }
            }
            other => other,
        }
    }

    /// Removes every VCPU of `id` in place: compact the VCPU list,
    /// remap core index lists, drop emptied cores.
    fn remove_vcpus_of(&mut self, id: VmId) {
        let mut remap = vec![usize::MAX; self.vcpus.len()];
        let mut kept: Vec<VcpuSpec> = Vec::with_capacity(self.vcpus.len());
        for (i, vcpu) in self.vcpus.drain(..).enumerate() {
            if vcpu.vm() == id {
                continue;
            }
            remap[i] = kept.len();
            kept.push(vcpu);
        }
        self.vcpus = kept;
        for core in &mut self.cores {
            core.vcpus.retain(|&i| remap[i] != usize::MAX);
            for index in &mut core.vcpus {
                *index = remap[*index];
            }
        }
        self.cores.retain(|core| !core.vcpus.is_empty());
    }

    /// Verifies the current state: structure in full plus the `dirty`
    /// cores' schedulability (everything, in reference mode).
    fn verify_state(&mut self, dirty: &DirtyCores) -> Result<(), AllocError> {
        if self.injected_verify_faults > 0 {
            self.injected_verify_faults -= 1;
            return Err(AllocError::InvalidAllocation {
                detail: "injected verify fault".to_string(),
            });
        }
        let state = SystemAllocation::new(
            std::mem::take(&mut self.vcpus),
            std::mem::take(&mut self.cores),
        );
        let result = if self.config.reference {
            self.stats.full_verifies += 1;
            state.verify(&self.platform)
        } else {
            self.stats.dirty_cores_verified += dirty.len() as u64;
            state.verify_cores(&self.platform, dirty)
        };
        self.vcpus = state.vcpus;
        self.cores = state.cores;
        result
    }

    /// The per-VM parameter stream seed: a pure function of the engine
    /// seed, the [`VmId`], and the VM's mode revision — so an arrival's
    /// VCPU parameters do not depend on what else is in the system,
    /// and the reference replay derives the identical stream.
    fn vm_stream_seed(&self, id: VmId, revision: u64) -> u64 {
        let mut expander =
            SplitMix64::new(self.config.seed ^ (id.0 as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut seed = expander.next_u64();
        for _ in 0..revision {
            seed = expander.next_u64();
        }
        seed
    }

    /// Warm-start placement of one VM into the current allocation.
    /// Returns the dirty set on success; on failure the caller
    /// restores the saved state.
    fn place_incremental(&mut self, vm: &VmSpec, revision: u64) -> Option<DirtyCores> {
        let mut rng = DetRng::seed_from_u64(self.vm_stream_seed(vm.id(), revision));
        let produced = self
            .config
            .solution
            .vm_level_with_cache(std::slice::from_ref(vm), &self.platform, &self.cache, &mut rng)
            .ok()?;
        // Renumber onto the engine's monotone VCPU id counter so ids
        // stay unique across the whole stream.
        let base = self.vcpus.len();
        let count = produced.len();
        for (j, spec) in produced.into_iter().enumerate() {
            let renumbered = VcpuSpec::new(
                VcpuId(self.next_vcpu_id + j),
                spec.vm(),
                spec.period(),
                spec.budget_surface().clone(),
                spec.tasks().to_vec(),
            )
            .expect("renumbering preserves validity");
            self.vcpus.push(renumbered);
        }
        // Place heaviest first (stable on ties) — the classic
        // decreasing-first-fit discipline.
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_by(|&a, &b| {
            self.vcpus[base + b]
                .reference_utilization()
                .partial_cmp(&self.vcpus[base + a].reference_utilization())
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut dirty = DirtyCores::new();
        for &j in &order {
            let index = base + j;
            if !self.place_one(index, &mut dirty) {
                return None;
            }
        }
        self.next_vcpu_id += count;
        Some(dirty)
    }

    /// Places one VCPU: first fit as-is, then first fit with spare-pool
    /// partition upgrades, then a newly opened core.
    fn place_one(&mut self, index: usize, dirty: &mut DirtyCores) -> bool {
        // Pass 1: the VCPU fits some core under its current partitions.
        for k in 0..self.cores.len() {
            if self.core_accepts(k, index, self.cores[k].alloc) {
                self.cores[k].vcpus.push(index);
                dirty.mark(k);
                return true;
            }
        }
        // Pass 2: grant spare partitions to a core until it fits.
        for k in 0..self.cores.len() {
            if let Some(upgraded) = self.upgraded_alloc_for(k, index) {
                self.stats.core_upgrades +=
                    u64::from(upgraded.cache - self.cores[k].alloc.cache)
                        + u64::from(upgraded.bandwidth - self.cores[k].alloc.bandwidth);
                self.cores[k].alloc = upgraded;
                self.cores[k].vcpus.push(index);
                dirty.mark(k);
                return true;
            }
        }
        // Pass 3: open a new core funded from the spare pool.
        let space = self.platform.resources();
        let Ok((spare_cache, spare_bw)) = self.spare_pool() else {
            return false;
        };
        if self.cores.len() < self.platform.max_usable_cores()
            && spare_cache >= space.cache_min()
            && spare_bw >= space.bw_min()
        {
            self.cores.push(CoreAssignment {
                vcpus: Vec::new(),
                alloc: space.minimum(),
            });
            let k = self.cores.len() - 1;
            if let Some(alloc) = self.upgraded_alloc_for_or_current(k, index) {
                self.stats.core_upgrades += u64::from(alloc.cache - space.minimum().cache)
                    + u64::from(alloc.bandwidth - space.minimum().bandwidth);
                self.cores[k].alloc = alloc;
                self.cores[k].vcpus.push(index);
                self.stats.cores_opened += 1;
                dirty.mark(k);
                return true;
            }
            self.cores.pop();
        }
        false
    }

    /// Unallocated partitions: the platform totals minus what the
    /// current cores hold.
    ///
    /// The sums exceeding the platform totals would mean the engine
    /// published an over-subscribed core allocation — an invariant
    /// breach, not a full pool. A `saturating_sub` here would silently
    /// mask that as "zero spare"; instead the invariant is asserted
    /// (debug) and surfaced as a typed error (release), which the
    /// placement paths treat as "cannot place" so the repack rebuilds
    /// a verified state from scratch.
    fn spare_pool(&self) -> Result<(u32, u32), AllocError> {
        let space = self.platform.resources();
        let cache: u32 = self.cores.iter().map(|c| c.alloc.cache).sum();
        let bw: u32 = self.cores.iter().map(|c| c.alloc.bandwidth).sum();
        match (
            space.cache_max().checked_sub(cache),
            space.bw_max().checked_sub(bw),
        ) {
            (Some(spare_cache), Some(spare_bw)) => Ok((spare_cache, spare_bw)),
            _ => {
                debug_assert!(
                    false,
                    "core allocation oversubscribed: cache {cache}/{}, bandwidth {bw}/{}",
                    space.cache_max(),
                    space.bw_max(),
                );
                Err(AllocError::CoreOversubscription {
                    cache_allocated: cache,
                    cache_total: space.cache_max(),
                    bw_allocated: bw,
                    bw_total: space.bw_max(),
                })
            }
        }
    }

    /// Whether core `k` stays schedulable with `extra` added under
    /// `alloc`.
    fn core_accepts(&self, k: usize, extra: usize, alloc: Alloc) -> bool {
        let members = self.cores[k]
            .vcpus
            .iter()
            .map(|&i| &self.vcpus[i])
            .chain(std::iter::once(&self.vcpus[extra]));
        core_check::core_schedulable(members, alloc)
    }

    /// Core `k`'s utilization with `extra` added under `alloc`.
    fn core_load(&self, k: usize, extra: usize, alloc: Alloc) -> f64 {
        let members = self.cores[k]
            .vcpus
            .iter()
            .map(|&i| &self.vcpus[i])
            .chain(std::iter::once(&self.vcpus[extra]));
        core_check::core_utilization(members, alloc)
    }

    /// Searches a strictly-upgraded allocation for core `k` that
    /// accepts `extra`, granting one spare partition at a time in the
    /// direction of the larger utilization reduction (cache on ties,
    /// phase-2 style). `None` when the core cannot accept it.
    fn upgraded_alloc_for(&self, k: usize, extra: usize) -> Option<Alloc> {
        let alloc = self.grow_until_accepted(k, extra)?;
        if alloc == self.cores[k].alloc {
            // Pass 1 already rejected the current allocation; "found
            // it without growing" cannot happen, but be explicit.
            return None;
        }
        Some(alloc)
    }

    /// Like [`Self::upgraded_alloc_for`], but also accepts the current
    /// allocation (used for a just-opened core at the space minimum).
    fn upgraded_alloc_for_or_current(&self, k: usize, extra: usize) -> Option<Alloc> {
        self.grow_until_accepted(k, extra)
    }

    /// Grows core `k`'s allocation one spare partition at a time until
    /// it accepts `extra` (or the spare pool is exhausted).
    ///
    /// The step direction is the larger single-step utilization
    /// reduction (cache on ties, phase-2 style). WCET surfaces are
    /// step functions, so they have interior *plateaus*: regions where
    /// one more partition changes nothing but two or three more cross
    /// a cliff. On a plateau (no single step has positive gain) the
    /// historical code gave up and fell through to the ~5.6×-cost full
    /// repack even though spare remained. Instead, a jump-to-max probe
    /// first decides whether any grant within the remaining spare can
    /// accept at all — WCETs are monotone non-increasing in both
    /// resources, so if the maximal grant fails, every grant fails —
    /// and only then does the walk take bounded zero-gain steps across
    /// the plateau, steering by the axis whose full remaining headroom
    /// reduces utilization more (cache on ties).
    fn grow_until_accepted(&self, k: usize, extra: usize) -> Option<Alloc> {
        let space = self.platform.resources();
        let (base_cache, base_bw) = self.spare_pool().ok()?;
        let committed = self.cores[k].alloc;
        let mut alloc = committed;
        loop {
            if self.core_accepts(k, extra, alloc) {
                return Some(alloc);
            }
            let spare_cache = base_cache.saturating_sub(alloc.cache - committed.cache);
            let spare_bw = base_bw.saturating_sub(alloc.bandwidth - committed.bandwidth);
            let can_cache = spare_cache > 0 && alloc.cache < space.cache_max();
            let can_bw = spare_bw > 0 && alloc.bandwidth < space.bw_max();
            if !can_cache && !can_bw {
                return None;
            }
            let current = self.core_load(k, extra, alloc);
            let cache_step = Alloc::new(alloc.cache + 1, alloc.bandwidth);
            let bw_step = Alloc::new(alloc.cache, alloc.bandwidth + 1);
            let cache_gain = if can_cache {
                current - self.core_load(k, extra, cache_step)
            } else {
                f64::NEG_INFINITY
            };
            let bw_gain = if can_bw {
                current - self.core_load(k, extra, bw_step)
            } else {
                f64::NEG_INFINITY
            };
            if cache_gain > 0.0 || bw_gain > 0.0 {
                // Strict > keeps the cache-first tie-break.
                alloc = if bw_gain > cache_gain { bw_step } else { cache_step };
                continue;
            }
            // Zero-gain plateau. Probe the maximal grant: if even all
            // the remaining spare cannot make the core accept, no
            // smaller grant can (monotonicity) — stop here instead of
            // wasting steps.
            let max_alloc = Alloc::new(
                (alloc.cache + spare_cache).min(space.cache_max()),
                (alloc.bandwidth + spare_bw).min(space.bw_max()),
            );
            if !self.core_accepts(k, extra, max_alloc) {
                return None;
            }
            // Some grant within reach accepts: cross the plateau with
            // bounded zero-gain steps, steering toward the axis whose
            // full remaining headroom reduces utilization more.
            let cache_axis_gain = if can_cache {
                current
                    - self.core_load(
                        k,
                        extra,
                        Alloc::new(max_alloc.cache, alloc.bandwidth),
                    )
            } else {
                f64::NEG_INFINITY
            };
            let bw_axis_gain = if can_bw {
                current
                    - self.core_load(
                        k,
                        extra,
                        Alloc::new(alloc.cache, max_alloc.bandwidth),
                    )
            } else {
                f64::NEG_INFINITY
            };
            alloc = if bw_axis_gain > cache_axis_gain || !can_cache {
                bw_step
            } else {
                cache_step
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::{Task, TaskId, TaskSet, WcetSurface};

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

    fn engine() -> AdmissionEngine {
        AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42))
    }

    #[test]
    fn arrival_departure_roundtrip() {
        let mut e = engine();
        let d = e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2))).clone();
        assert!(matches!(d.verdict, AdmissionVerdict::Admitted { .. }));
        assert_eq!(d.vms, 1);
        e.allocation().verify(e.platform()).unwrap();
        let d = e.submit(AdmissionRequest::Departure(VmId(1))).clone();
        assert_eq!(d.verdict, AdmissionVerdict::Departed);
        assert_eq!(d.vms, 0);
        assert_eq!(d.cores, 0);
        assert_eq!(e.allocation().cores_used(), 0);
    }

    #[test]
    fn duplicate_and_unknown_are_rejected_without_state_change() {
        let mut e = engine();
        e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        let before = e.allocation();
        let d = e.submit(AdmissionRequest::Arrival(vm(1, 1.0, 1))).clone();
        assert!(matches!(d.verdict, AdmissionVerdict::Rejected { .. }));
        let d = e.submit(AdmissionRequest::Departure(VmId(9))).clone();
        assert!(matches!(d.verdict, AdmissionVerdict::Rejected { .. }));
        assert_eq!(e.allocation(), before);
    }

    #[test]
    fn overload_is_rejected_and_incumbents_survive() {
        let mut e = engine();
        e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        // Demand far beyond 4 cores.
        let d = e.submit(AdmissionRequest::Arrival(vm(2, 9.0, 10))).clone();
        assert!(matches!(d.verdict, AdmissionVerdict::Rejected { .. }));
        assert_eq!(e.working_set().len(), 1);
        assert_eq!(e.working_set()[0].id(), VmId(1));
        e.allocation().verify(e.platform()).unwrap();
    }

    #[test]
    fn mode_change_failure_keeps_previous_mode() {
        let mut e = engine();
        e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        let before = e.allocation();
        let d = e.submit(AdmissionRequest::ModeChange(vm(1, 9.0, 10))).clone();
        assert!(matches!(d.verdict, AdmissionVerdict::Degraded { .. }));
        assert_eq!(e.allocation(), before);
        // A feasible mode change applies.
        let d = e.submit(AdmissionRequest::ModeChange(vm(1, 1.0, 3))).clone();
        assert!(matches!(d.verdict, AdmissionVerdict::Admitted { .. }));
        assert_eq!(e.working_set().len(), 1);
        assert_eq!(e.working_set()[0].tasks().len(), 3);
        e.allocation().verify(e.platform()).unwrap();
    }

    #[test]
    fn decision_log_is_replay_deterministic() {
        let run = || {
            let mut e = engine();
            e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
            e.submit(AdmissionRequest::Arrival(vm(2, 3.0, 3)));
            e.submit(AdmissionRequest::Departure(VmId(1)));
            e.submit(AdmissionRequest::ModeChange(vm(2, 1.0, 1)));
            e.log_text()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.lines().count(), 4);
        assert!(a.starts_with("#00000 arrive vm=1"));
    }

    #[test]
    fn batch_outcome_is_order_independent() {
        let vms = [vm(1, 2.0, 2), vm(2, 3.0, 2), vm(3, 1.0, 1)];
        let mut forward = engine();
        forward.submit_batch(vms.iter().cloned().map(AdmissionRequest::Arrival).collect());
        let mut backward = engine();
        backward.submit_batch(
            vms.iter().rev().cloned().map(AdmissionRequest::Arrival).collect(),
        );
        assert_eq!(forward.decisions(), backward.decisions());
        assert_eq!(forward.allocation(), backward.allocation());
        forward.allocation().verify(forward.platform()).unwrap();
    }

    #[test]
    fn batch_non_arrivals_are_decided_before_its_arrivals() {
        let mut e = engine();
        e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        let decisions = e
            .submit_batch(vec![
                AdmissionRequest::Arrival(vm(2, 3.0, 2)),
                AdmissionRequest::Departure(VmId(1)),
                AdmissionRequest::Arrival(vm(3, 1.0, 1)),
            ])
            .to_vec();
        let kinds: Vec<RequestKind> = decisions.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            [RequestKind::Departure, RequestKind::Arrival, RequestKind::Arrival]
        );
        assert_eq!(decisions[0].vm, VmId(1));
        assert!(matches!(decisions[0].verdict, AdmissionVerdict::Departed));
        assert_eq!(&e.decisions()[1..], &decisions[..]);
    }

    #[test]
    fn reference_mode_matches_fast_mode() {
        let requests = vec![
            AdmissionRequest::Arrival(vm(1, 2.0, 2)),
            AdmissionRequest::Arrival(vm(2, 3.0, 3)),
            AdmissionRequest::ModeChange(vm(1, 4.0, 2)),
            AdmissionRequest::Departure(VmId(2)),
            AdmissionRequest::Arrival(vm(3, 2.0, 4)),
        ];
        let mut fast = engine();
        let mut slow = AdmissionEngine::new(
            Platform::platform_a(),
            AdmissionConfig::new(42).reference_mode(),
        );
        for request in &requests {
            fast.submit(request.clone());
            slow.submit(request.clone());
        }
        assert_eq!(fast.log_text(), slow.log_text());
        assert_eq!(fast.allocation(), slow.allocation());
    }

    #[test]
    fn metrics_families_are_exported() {
        let mut e = engine();
        e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        let mut registry = MetricsRegistry::new();
        e.export_metrics(&mut registry);
        assert_eq!(registry.counter("admission.requests"), Some(1));
        assert_eq!(registry.counter("admission.admitted_incremental"), Some(1));
        assert_eq!(registry.gauge("admission.vms"), Some(1.0));
        assert!(registry.counter("admission.cache.lookups").is_some());
    }

    /// A VM whose single task sits on a WCET *plateau*: unschedulable
    /// (utilization 1.1) until the core holds at least `cliff` cache
    /// partitions, then comfortable (0.5). Single-partition steps gain
    /// exactly zero until the cliff.
    fn cliff_vm(id: usize, cliff: u32) -> VmSpec {
        let space = Platform::platform_a().resources();
        let surface = WcetSurface::from_fn(&space, |a| {
            if a.cache >= cliff {
                5.0
            } else {
                11.0
            }
        })
        .unwrap();
        let tasks: TaskSet = std::iter::once(Task::new(TaskId(id * 1000), 10.0, surface).unwrap())
            .collect();
        VmSpec::new(VmId(id), tasks).unwrap()
    }

    /// Regression for the warm-start zero-gain dead-end: the historical
    /// `grow_until_accepted` returned `None` on the first zero-gain
    /// step, so a plateau VM fell through to the full repack even
    /// though growing the core further would accept it. The rewritten
    /// walk probes the maximal grant and crosses the plateau, so this
    /// admission must take the incremental path — with the
    /// accepted/rejected log identical to the reference oracle's.
    #[test]
    fn plateau_vm_places_incrementally_instead_of_repacking() {
        let run = |config: AdmissionConfig| {
            let mut e = AdmissionEngine::new(Platform::platform_a(), config);
            e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 1)));
            e.submit(AdmissionRequest::Arrival(cliff_vm(2, 10)));
            e
        };
        let e = run(AdmissionConfig::new(42));
        assert!(matches!(
            e.decisions()[1].verdict,
            AdmissionVerdict::Admitted { .. }
        ));
        assert_eq!(
            e.stats().admitted_incremental,
            2,
            "plateau VM must place incrementally, not via repack:\n{}",
            e.log_text()
        );
        assert_eq!(e.stats().admitted_repack, 0);
        e.allocation().verify(e.platform()).unwrap();
        // The decision log (verdicts included) matches the oracle.
        let reference = run(AdmissionConfig::new(42).reference_mode());
        assert_eq!(e.log_text(), reference.log_text());
    }

    fn oversubscribe(e: &mut AdmissionEngine) {
        let space = e.platform.resources();
        e.cores.push(CoreAssignment {
            vcpus: Vec::new(),
            alloc: Alloc::new(space.cache_max(), space.bw_max()),
        });
        e.cores.push(CoreAssignment {
            vcpus: Vec::new(),
            alloc: Alloc::new(1, 1),
        });
    }

    /// `spare_pool` used to `saturating_sub` the granted partitions
    /// from the platform totals, silently reporting an oversubscribed
    /// state as "zero spare". It is an invariant breach and must be
    /// loud: a debug assertion in debug builds…
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn spare_pool_panics_on_oversubscription_in_debug() {
        let mut e = engine();
        oversubscribe(&mut e);
        let _ = e.spare_pool();
    }

    /// …and a typed error in release builds.
    #[cfg(not(debug_assertions))]
    #[test]
    fn spare_pool_errors_on_oversubscription_in_release() {
        let mut e = engine();
        oversubscribe(&mut e);
        let space = e.platform.resources();
        match e.spare_pool() {
            Err(AllocError::CoreOversubscription {
                cache_allocated,
                cache_total,
                bw_allocated,
                bw_total,
            }) => {
                assert_eq!(cache_allocated, space.cache_max() + 1);
                assert_eq!(cache_total, space.cache_max());
                assert_eq!(bw_allocated, space.bw_max() + 1);
                assert_eq!(bw_total, space.bw_max());
            }
            other => panic!("expected CoreOversubscription, got {other:?}"),
        }
    }

    /// A VM that passes the capacity pre-filter but cannot be packed
    /// next to `vm(1, 2.0, 2)`: four 0.9-utilization tasks need four
    /// dedicated cores, leaving nowhere for the incumbent's load.
    fn unpackable_vm(id: usize) -> VmSpec {
        vm(id, 9.0, 4)
    }

    #[test]
    fn memo_skips_repeated_rejection_and_invalidates_on_departure() {
        let mut e = engine();
        e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
        let first = e
            .submit(AdmissionRequest::Arrival(unpackable_vm(2)))
            .clone();
        let AdmissionVerdict::Rejected { reason } = &first.verdict else {
            panic!("expected a solver rejection, got {:?}", first.verdict);
        };
        assert!(reason.contains("not schedulable"), "{reason}");
        assert_eq!(e.stats().memo_inserts, 1);
        assert_eq!(e.stats().memo_hits, 0);
        // Identical retry against identical state: served from the
        // memo, byte-identical verdict.
        let retry = e
            .submit(AdmissionRequest::Arrival(unpackable_vm(2)))
            .clone();
        assert_eq!(retry.verdict, first.verdict);
        assert_eq!(e.stats().memo_hits, 1);
        // Any capacity change invalidates: after the departure the
        // retry must consult the solver again (and now succeeds).
        e.submit(AdmissionRequest::Departure(VmId(1)));
        assert!(e.stats().memo_invalidations >= 1);
        let after = e
            .submit(AdmissionRequest::Arrival(unpackable_vm(2)))
            .clone();
        assert_eq!(e.stats().memo_hits, 1, "stale memo entry must not hit");
        assert!(matches!(after.verdict, AdmissionVerdict::Admitted { .. }));
        e.allocation().verify(e.platform()).unwrap();
    }

    #[test]
    fn memo_on_and_memo_off_logs_are_identical() {
        let run = |config: AdmissionConfig| {
            let mut e = AdmissionEngine::new(Platform::platform_a(), config);
            e.submit(AdmissionRequest::Arrival(vm(1, 2.0, 2)));
            for _ in 0..3 {
                e.submit(AdmissionRequest::Arrival(unpackable_vm(2)));
            }
            e.submit(AdmissionRequest::Departure(VmId(1)));
            e.submit(AdmissionRequest::Arrival(unpackable_vm(2)));
            e
        };
        let on = run(AdmissionConfig::new(42));
        let off = run(AdmissionConfig::new(42).without_memo());
        assert!(on.stats().memo_hits >= 2, "memo was never exercised");
        assert_eq!(off.stats().memo_hits, 0);
        assert_eq!(on.log_text(), off.log_text());
        assert_eq!(on.allocation(), off.allocation());
    }
}
