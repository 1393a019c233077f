//! Replayable admission-request traces and the streaming driver.
//!
//! The admission engine ([`vc2m_alloc::admission`]) consumes a stream
//! of arrival/departure/mode-change requests. This module defines the
//! *trace*: a seeded, fully replayable representation of such a stream
//! with a stable text format (`vc2m-admission-trace-v1`), a generator
//! producing fleet-style churn (bounded live-set size, small VMs,
//! occasional mode changes and concurrent-arrival batches), and the
//! driver that replays a trace into an engine.
//!
//! # Text format
//!
//! One request per line; `#` starts a comment. Utilizations are stored
//! in milli-units and rendered with three decimals, so parse → render
//! round-trips byte-for-byte:
//!
//! ```text
//! # vc2m-admission-trace-v1
//! hosts 4
//! arrive 1 0.180 9054
//! mode 1 0.240 117
//! depart 1
//! batch 2
//! arrive 2 0.120 53
//! arrive 3 0.305 99
//! ```
//!
//! A `batch n` header groups the next `n` arrivals into one concurrent
//! batch (admitted order-independently by the engine). An optional
//! `hosts n` directive (before any request) sizes the fleet the trace
//! targets; it is omitted from the rendering when `n == 1`, so
//! single-host traces keep their historical byte form. An optional
//! `crit <vm> <vm> ...` directive (at most one, before any request,
//! ids strictly increasing) marks those VMs HI-criticality — every VM
//! it does not name is LO, and the directive is omitted from the
//! rendering when no VM is HI, so historical trace bytes are
//! unchanged. Directives are strict: a duplicate `hosts`/`crit` line,
//! an out-of-order directive, or an unknown keyword is rejected with
//! the offending line number rather than silently tolerated.
//!
//! # Determinism
//!
//! A request's VM is materialized from `(vm id, utilization, taskset
//! seed)` alone — independent of the rest of the trace — so replaying
//! any trace against [`AdmissionEngine`]s with equal configuration
//! yields byte-identical decision logs, and a trace file pins its
//! whole workload.

use vc2m_alloc::recovery::{recover_engine, DecisionJournal, RecoveryError};
use vc2m_alloc::{AdmissionConfig, AdmissionEngine, AdmissionRequest, Criticality, FleetWorkItem};
use vc2m_model::Platform;
use vc2m_model::{ResourceSpace, Task, TaskId, TaskSet, VmId, VmSpec};
use vc2m_rng::{DetRng, Rng};
use vc2m_workload::{TasksetConfig, TasksetGenerator, UtilizationDist};

/// The first line every rendered trace carries.
pub const TRACE_HEADER: &str = "# vc2m-admission-trace-v1";

/// One request of a trace, in its replayable (pre-materialized) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRequest {
    /// A VM arrives: `arrive <vm> <utilization> <seed>`.
    Arrive {
        /// The VM id.
        vm: usize,
        /// Target reference utilization in milli-units (`180` ⇒ `0.180`).
        utilization_milli: u32,
        /// Seed for the VM's taskset.
        seed: u64,
    },
    /// A VM departs: `depart <vm>`.
    Depart {
        /// The VM id.
        vm: usize,
    },
    /// A VM changes mode (replaces its taskset):
    /// `mode <vm> <utilization> <seed>`.
    Mode {
        /// The VM id.
        vm: usize,
        /// The new mode's utilization in milli-units.
        utilization_milli: u32,
        /// Seed for the new mode's taskset.
        seed: u64,
    },
}

impl TraceRequest {
    /// Renders the request's stable one-line text form (also the
    /// request half of a journal record — see [`replay_journaled`]).
    pub fn render(&self) -> String {
        match *self {
            TraceRequest::Arrive {
                vm,
                utilization_milli,
                seed,
            } => format!("arrive {vm} {:.3} {seed}", utilization_milli as f64 / 1000.0),
            TraceRequest::Depart { vm } => format!("depart {vm}"),
            TraceRequest::Mode {
                vm,
                utilization_milli,
                seed,
            } => format!("mode {vm} {:.3} {seed}", utilization_milli as f64 / 1000.0),
        }
    }

    /// Parses a single request line — the inverse of [`render`], for
    /// callers (like journal recovery) that hold one request line
    /// outside a full trace. The error carries no line number.
    ///
    /// [`render`]: TraceRequest::render
    pub fn parse_line(line: &str) -> Result<TraceRequest, String> {
        parse_request_bare(line.trim())
    }
}

/// One scheduling unit of a trace: a single request, or a batch of
/// concurrent arrivals admitted in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceItem {
    /// One request processed on its own.
    Single(TraceRequest),
    /// Concurrent arrivals admitted as one order-independent batch.
    Batch(Vec<TraceRequest>),
}

/// A replayable admission-request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionTrace {
    items: Vec<TraceItem>,
    hosts: usize,
    /// HI-criticality VM ids, strictly increasing (the `crit`
    /// directive); every other VM is LO.
    hi_vms: Vec<usize>,
}

impl Default for AdmissionTrace {
    fn default() -> Self {
        AdmissionTrace {
            items: Vec::new(),
            hosts: 1,
            hi_vms: Vec::new(),
        }
    }
}

impl AdmissionTrace {
    /// Builds a single-host, all-LO trace from items.
    pub fn from_items(items: Vec<TraceItem>) -> Self {
        AdmissionTrace {
            items,
            hosts: 1,
            hi_vms: Vec::new(),
        }
    }

    /// Marks the given VM ids HI-criticality (the `crit` directive).
    ///
    /// # Panics
    ///
    /// Panics if the ids are not strictly increasing — the same
    /// canonical form the parser enforces, so render → parse stays an
    /// exact round trip.
    pub fn with_hi_vms(mut self, hi_vms: Vec<usize>) -> Self {
        assert!(
            hi_vms.windows(2).all(|w| w[0] < w[1]),
            "crit vm ids must be strictly increasing"
        );
        self.hi_vms = hi_vms;
        self
    }

    /// The HI-criticality VM ids, strictly increasing (empty when the
    /// trace carries no `crit` directive).
    pub fn hi_vms(&self) -> &[usize] {
        &self.hi_vms
    }

    /// The criticality of `vm` under this trace's `crit` directive
    /// (LO when unnamed).
    pub fn criticality_of(&self, vm: usize) -> Criticality {
        if self.hi_vms.binary_search(&vm).is_ok() {
            Criticality::Hi
        } else {
            Criticality::Lo
        }
    }

    /// Sets the fleet size the trace targets (the `hosts` directive).
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        assert!(hosts >= 1, "a trace targets at least one host");
        self.hosts = hosts;
        self
    }

    /// The fleet size the trace targets (1 when no directive was set).
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The trace's items in replay order.
    pub fn items(&self) -> &[TraceItem] {
        &self.items
    }

    /// Total number of requests (batch members count individually).
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                TraceItem::Single(_) => 1,
                TraceItem::Batch(requests) => requests.len(),
            })
            .sum()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders the stable text form (header + one line per request,
    /// newline-terminated). `parse` of the result reproduces `self`.
    pub fn render(&self) -> String {
        let mut text = String::from(TRACE_HEADER);
        text.push('\n');
        if self.hosts > 1 {
            text.push_str(&format!("hosts {}\n", self.hosts));
        }
        if !self.hi_vms.is_empty() {
            text.push_str("crit");
            for vm in &self.hi_vms {
                text.push_str(&format!(" {vm}"));
            }
            text.push('\n');
        }
        for item in &self.items {
            match item {
                TraceItem::Single(request) => {
                    text.push_str(&request.render());
                    text.push('\n');
                }
                TraceItem::Batch(requests) => {
                    text.push_str(&format!("batch {}\n", requests.len()));
                    for request in requests {
                        text.push_str(&request.render());
                        text.push('\n');
                    }
                }
            }
        }
        text
    }

    /// Parses the text form. Comment (`#`) and blank lines are
    /// ignored; `batch n` consumes the next `n` arrival lines; a
    /// `hosts n` directive (at most one, before any request) sets the
    /// fleet size; a `crit <vm> ...` directive (at most one, before
    /// any request, strictly increasing ids) marks the HI VMs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input
    /// — including duplicate or misplaced directives and unknown
    /// keywords, which are never silently tolerated.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut items = Vec::new();
        let mut hosts: Option<usize> = None;
        let mut hi_vms: Option<Vec<usize>> = None;
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        while let Some((number, line)) = lines.next() {
            let mut fields = line.split_whitespace();
            let keyword = fields.next().expect("non-empty line has a field");
            if keyword == "hosts" {
                if !items.is_empty() {
                    return Err(format!(
                        "line {number}: hosts directive must precede all requests"
                    ));
                }
                if hosts.is_some() {
                    return Err(format!("line {number}: duplicate hosts directive"));
                }
                let n: usize = parse_field(fields.next(), "host count")
                    .map_err(|e| format!("line {number}: {e}"))?;
                if n == 0 {
                    return Err(format!("line {number}: host count must be at least 1"));
                }
                if fields.next().is_some() {
                    return Err(format!("line {number}: trailing fields"));
                }
                hosts = Some(n);
            } else if keyword == "crit" {
                if !items.is_empty() {
                    return Err(format!(
                        "line {number}: crit directive must precede all requests"
                    ));
                }
                if hi_vms.is_some() {
                    return Err(format!("line {number}: duplicate crit directive"));
                }
                let mut ids = Vec::new();
                for field in fields {
                    let vm: usize = field
                        .parse()
                        .map_err(|_| format!("line {number}: malformed vm id '{field}'"))?;
                    if ids.last().is_some_and(|&last| last >= vm) {
                        return Err(format!(
                            "line {number}: crit vm ids must be strictly increasing"
                        ));
                    }
                    ids.push(vm);
                }
                if ids.is_empty() {
                    return Err(format!("line {number}: crit directive names no vm"));
                }
                hi_vms = Some(ids);
            } else if keyword == "batch" {
                let arity: usize = parse_field(fields.next(), "batch arity")
                    .map_err(|e| format!("line {number}: {e}"))?;
                let mut batch = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let (member_number, member_line) = lines
                        .next()
                        .ok_or_else(|| format!("line {number}: batch truncated"))?;
                    let request = parse_request(member_line, member_number)?;
                    if !matches!(request, TraceRequest::Arrive { .. }) {
                        return Err(format!(
                            "line {member_number}: only arrivals may appear in a batch"
                        ));
                    }
                    batch.push(request);
                }
                items.push(TraceItem::Batch(batch));
            } else {
                items.push(TraceItem::Single(parse_request(line, number)?));
            }
        }
        Ok(AdmissionTrace {
            items,
            hosts: hosts.unwrap_or(1),
            hi_vms: hi_vms.unwrap_or_default(),
        })
    }
}

fn parse_request(line: &str, number: usize) -> Result<TraceRequest, String> {
    parse_request_bare(line).map_err(|e| format!("line {number}: {e}"))
}

fn parse_request_bare(line: &str) -> Result<TraceRequest, String> {
    let mut fields = line.split_whitespace();
    let keyword = fields.next().ok_or_else(|| "empty request".to_string())?;
    let request = match keyword {
        "arrive" | "mode" => {
            let vm = parse_field(fields.next(), "vm id")?;
            let utilization: f64 = parse_field(fields.next(), "utilization")?;
            // Rust's f64 parser accepts "NaN"/"inf"; reject them by
            // name instead of relying on range-comparison fall-through
            // (NaN fails any comparison, but the resulting "out of
            // range" message would misname the defect).
            if !utilization.is_finite() {
                return Err(format!("non-finite utilization '{utilization}'"));
            }
            if !(0.0..=1000.0).contains(&utilization) {
                return Err(format!("utilization {utilization} out of range"));
            }
            let utilization_milli = (utilization * 1000.0).round() as u32;
            let seed = parse_field(fields.next(), "seed")?;
            if keyword == "arrive" {
                TraceRequest::Arrive {
                    vm,
                    utilization_milli,
                    seed,
                }
            } else {
                TraceRequest::Mode {
                    vm,
                    utilization_milli,
                    seed,
                }
            }
        }
        "depart" => TraceRequest::Depart {
            vm: parse_field(fields.next(), "vm id")?,
        },
        other => return Err(format!("unknown request '{other}'")),
    };
    if fields.next().is_some() {
        return Err("trailing fields".to_string());
    }
    Ok(request)
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, String> {
    field
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("malformed {what}"))
}

/// Parameters of the fleet-churn trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Total requests to emit (batch members count individually).
    pub requests: usize,
    /// Generator seed (also seeds nothing else — per-VM taskset seeds
    /// are drawn from this stream and stored in the trace).
    pub seed: u64,
    /// Per-VM target utilization range, milli-units, inclusive.
    pub utilization_milli: (u32, u32),
    /// Live-set bounds: below `lo` only arrivals are emitted, at or
    /// above `hi` only departures — the churn regime in between.
    pub live_range: (usize, usize),
    /// Fraction of in-regime requests that are mode changes.
    pub mode_fraction: f64,
    /// Fraction of in-regime requests that open a concurrent batch.
    pub batch_fraction: f64,
    /// Maximum batch arity.
    pub max_batch: usize,
    /// Fraction of in-regime requests that *retry* a live VM's
    /// original arrival line verbatim (same id, utilization, and
    /// taskset seed). Retries of admitted VMs hit the cheap
    /// duplicate-id rejection; retries of rejected VMs against an
    /// unchanged state are exactly what the engine's rejection memo
    /// short-circuits.
    pub retry_fraction: f64,
    /// The fleet size stamped into the generated trace.
    pub hosts: usize,
    /// Fraction of fresh arrivals marked HI-criticality (the `crit`
    /// directive). Zero draws nothing from the generator stream, so
    /// all-LO traces keep their historical bytes.
    pub hi_fraction: f64,
}

impl TraceSpec {
    /// The default fleet-churn shape for `requests` requests: small
    /// VMs (0.060–0.280), live set bounded to 6..14, 10% mode
    /// changes, 8% batches of up to 3, no retries, one host.
    pub fn new(requests: usize, seed: u64) -> Self {
        TraceSpec {
            requests,
            seed,
            utilization_milli: (60, 280),
            live_range: (6, 14),
            mode_fraction: 0.10,
            batch_fraction: 0.08,
            max_batch: 3,
            retry_fraction: 0.0,
            hosts: 1,
            hi_fraction: 0.0,
        }
    }

    /// The rejection-heavy preset: mid-size VMs (0.300–0.500) arriving
    /// far past fleet capacity with essentially no departures
    /// (live set bounded to 50..400), no mode changes or batches, and
    /// 90% retries. Once the fleet saturates, every fresh arrival runs
    /// the expensive failing search and every retry repeats it — the
    /// regime the rejection memo is built for.
    pub fn rejection_heavy(requests: usize, seed: u64, hosts: usize) -> Self {
        TraceSpec {
            requests,
            seed,
            utilization_milli: (300, 500),
            live_range: (50, 400),
            mode_fraction: 0.0,
            batch_fraction: 0.0,
            max_batch: 2,
            retry_fraction: 0.90,
            hosts,
            hi_fraction: 0.0,
        }
    }

    /// Replaces the fleet size stamped into the generated trace.
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Replaces the HI-criticality arrival fraction.
    pub fn with_hi_fraction(mut self, hi_fraction: f64) -> Self {
        self.hi_fraction = hi_fraction;
        self
    }
}

/// Generates a seeded fleet-churn trace: VM ids are never reused,
/// departures, mode changes, and retries target VMs the generator has
/// arrived and not yet departed (whether or not the engine admitted
/// them — departures of rejected VMs exercise the unknown-VM path,
/// retries of rejected VMs exercise the rejection memo).
pub fn generate(spec: &TraceSpec) -> AdmissionTrace {
    let mut rng = DetRng::seed_from_u64(spec.seed);
    let (lo, hi) = spec.utilization_milli;
    let (live_lo, live_hi) = spec.live_range;
    let mut items = Vec::new();
    // Live VMs with their original arrival lines (re-emitted verbatim
    // by retries).
    let mut live: Vec<(usize, TraceRequest)> = Vec::new();
    let mut next_vm = 1usize;
    let mut emitted = 0usize;
    let mut hi_vms: Vec<usize> = Vec::new();
    let hi_fraction = spec.hi_fraction;
    let arrival = |rng: &mut DetRng,
                   live: &mut Vec<(usize, TraceRequest)>,
                   next_vm: &mut usize,
                   hi_vms: &mut Vec<usize>| {
        let vm = *next_vm;
        *next_vm += 1;
        let request = TraceRequest::Arrive {
            vm,
            utilization_milli: rng.gen_range(lo as usize..hi as usize + 1) as u32,
            seed: rng.gen_range(0u64..1 << 48),
        };
        // Guarded so an all-LO spec draws nothing here — the generator
        // stream (and thus every historical trace byte) is unchanged.
        if hi_fraction > 0.0 && rng.gen_f64() < hi_fraction {
            hi_vms.push(vm);
        }
        live.push((vm, request));
        request
    };
    while emitted < spec.requests {
        let must_arrive = live.len() < live_lo;
        let must_depart = live.len() >= live_hi;
        let roll = rng.gen_f64();
        if !must_arrive && !must_depart && roll < spec.mode_fraction {
            let vm = live[rng.gen_range(0usize..live.len())].0;
            items.push(TraceItem::Single(TraceRequest::Mode {
                vm,
                utilization_milli: rng.gen_range(lo as usize..hi as usize + 1) as u32,
                seed: rng.gen_range(0u64..1 << 48),
            }));
            emitted += 1;
        } else if !must_depart && roll < spec.mode_fraction + spec.batch_fraction {
            let arity = rng
                .gen_range(2usize..spec.max_batch.max(2) + 1)
                .min(spec.requests - emitted);
            if arity < 2 {
                items.push(TraceItem::Single(arrival(&mut rng, &mut live, &mut next_vm, &mut hi_vms)));
                emitted += 1;
            } else {
                let batch: Vec<TraceRequest> = (0..arity)
                    .map(|_| arrival(&mut rng, &mut live, &mut next_vm, &mut hi_vms))
                    .collect();
                emitted += batch.len();
                items.push(TraceItem::Batch(batch));
            }
        } else if !must_arrive
            && !must_depart
            && spec.retry_fraction > 0.0
            && roll < spec.mode_fraction + spec.batch_fraction + spec.retry_fraction
        {
            // Verbatim re-submission of a live VM's arrival line.
            let request = live[rng.gen_range(0usize..live.len())].1;
            items.push(TraceItem::Single(request));
            emitted += 1;
        } else if must_depart || (!must_arrive && rng.gen_f64() < 0.5) {
            let position = rng.gen_range(0usize..live.len());
            let (vm, _) = live.swap_remove(position);
            items.push(TraceItem::Single(TraceRequest::Depart { vm }));
            emitted += 1;
        } else {
            items.push(TraceItem::Single(arrival(&mut rng, &mut live, &mut next_vm, &mut hi_vms)));
            emitted += 1;
        }
    }
    // Fresh arrivals are drawn with monotonically increasing VM ids,
    // so the HI set is already in the parser's canonical strictly
    // increasing order.
    AdmissionTrace {
        items,
        hosts: spec.hosts.max(1),
        hi_vms,
    }
}

/// Materializes a trace request into an engine request: the VM's
/// taskset is generated from `(utilization, seed)` alone, with task
/// ids offset into a per-VM range so ids stay globally unique across
/// the whole stream.
pub fn materialize(request: &TraceRequest, space: ResourceSpace) -> AdmissionRequest {
    match *request {
        TraceRequest::Arrive {
            vm,
            utilization_milli,
            seed,
        } => AdmissionRequest::Arrival(trace_vm(vm, utilization_milli, seed, space)),
        TraceRequest::Depart { vm } => AdmissionRequest::Departure(VmId(vm)),
        TraceRequest::Mode {
            vm,
            utilization_milli,
            seed,
        } => AdmissionRequest::ModeChange(trace_vm(vm, utilization_milli, seed, space)),
    }
}

/// Task-id range reserved per VM (ids are `vm * TASK_ID_STRIDE + i`).
const TASK_ID_STRIDE: usize = 100_000;

fn trace_vm(vm: usize, utilization_milli: u32, seed: u64, space: ResourceSpace) -> VmSpec {
    let config = TasksetConfig::new(utilization_milli as f64 / 1000.0, UtilizationDist::Uniform);
    let mut generator = TasksetGenerator::new(space, config, seed);
    let tasks: TaskSet = generator
        .generate()
        .iter()
        .enumerate()
        .map(|(i, task)| {
            Task::new(
                TaskId(vm * TASK_ID_STRIDE + i),
                task.period(),
                task.wcet_surface().clone(),
            )
            .expect("re-identified task keeps its validity")
        })
        .collect();
    VmSpec::new(VmId(vm), tasks).expect("generated taskset is non-empty")
}

/// Replays `trace` into `engine` (appending to its decision log):
/// singles via [`AdmissionEngine::submit`], batches via
/// [`AdmissionEngine::submit_batch`].
pub fn replay(engine: &mut AdmissionEngine, trace: &AdmissionTrace) {
    let space = engine.platform().resources();
    for item in trace.items() {
        match item {
            TraceItem::Single(request) => {
                engine.submit(materialize(request, space));
            }
            TraceItem::Batch(requests) => {
                engine.submit_batch(requests.iter().map(|r| materialize(r, space)).collect());
            }
        }
    }
}

/// Materializes a whole trace into fleet work items (the
/// pre-materialized form [`AdmissionFleet::replay`] and
/// [`AdmissionFleet::replay_parallel`] consume).
///
/// [`AdmissionFleet::replay`]: vc2m_alloc::AdmissionFleet::replay
/// [`AdmissionFleet::replay_parallel`]: vc2m_alloc::AdmissionFleet::replay_parallel
pub fn fleet_items(trace: &AdmissionTrace, space: ResourceSpace) -> Vec<FleetWorkItem> {
    trace
        .items()
        .iter()
        .map(|item| match item {
            TraceItem::Single(request) => FleetWorkItem::Single(materialize(request, space)),
            TraceItem::Batch(requests) => {
                FleetWorkItem::Batch(requests.iter().map(|r| materialize(r, space)).collect())
            }
        })
        .collect()
}

/// Replays `trace` into `engine` exactly like [`replay`], additionally
/// returning one write-ahead [`DecisionJournal`] record per trace
/// item: the request's canonical trace line paired with the engine's
/// byte-stable decision line (batch records keep requests in
/// submission order and decisions in the engine's canonical order).
/// Persisting the rendered journal lets [`recover`] reconstruct a
/// bit-identical replacement engine after a crash.
pub fn replay_journaled(engine: &mut AdmissionEngine, trace: &AdmissionTrace) -> DecisionJournal {
    let first = engine.decisions().len();
    replay(engine, trace);
    // Every request yields exactly one decision, so the appended log
    // splits item by item: one line per single, n per n-member batch.
    let mut lines = engine.decisions()[first..].iter().map(|d| d.log_line());
    let mut journal = DecisionJournal::new();
    for item in trace.items() {
        match item {
            TraceItem::Single(request) => {
                let decision = lines.next().expect("a single yields one decision");
                journal.append_single(request.render(), decision);
            }
            TraceItem::Batch(requests) => journal.append_batch(
                requests.iter().map(|r| r.render()).collect(),
                lines.by_ref().take(requests.len()).collect(),
            ),
        }
    }
    journal
}

/// Reconstructs a replacement [`AdmissionEngine`] from a journal
/// written by [`replay_journaled`] (or any journal whose request lines
/// are canonical trace request lines): every journaled request is
/// re-parsed, re-materialized, and replayed into a fresh engine with
/// `config`, and each regenerated decision line is byte-compared
/// against the journaled one — corruption or configuration drift that
/// perturbs any decision byte surfaces as a typed
/// [`RecoveryError::Divergence`] instead of silently diverging state.
pub fn recover(
    platform: Platform,
    config: AdmissionConfig,
    journal: &DecisionJournal,
) -> Result<AdmissionEngine, RecoveryError> {
    let space = platform.resources();
    recover_engine(platform, config, journal, |line| {
        TraceRequest::parse_line(line).map(|request| materialize(&request, space))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_alloc::{AdmissionConfig, AdmissionFleet, FleetConfig};
    use vc2m_model::Platform;

    #[test]
    fn generate_is_deterministic_and_sized() {
        let spec = TraceSpec::new(120, 9);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
    }

    #[test]
    fn generated_trace_exercises_every_request_kind() {
        let trace = generate(&TraceSpec::new(300, 4));
        let mut arrivals = 0;
        let mut departures = 0;
        let mut modes = 0;
        let mut batches = 0;
        for item in trace.items() {
            match item {
                TraceItem::Batch(b) => {
                    batches += 1;
                    arrivals += b.len();
                }
                TraceItem::Single(TraceRequest::Arrive { .. }) => arrivals += 1,
                TraceItem::Single(TraceRequest::Depart { .. }) => departures += 1,
                TraceItem::Single(TraceRequest::Mode { .. }) => modes += 1,
            }
        }
        assert!(arrivals > 0 && departures > 0 && modes > 0 && batches > 0);
    }

    #[test]
    fn render_parse_round_trips() {
        let trace = generate(&TraceSpec::new(150, 33));
        let text = trace.render();
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
        assert!(text.starts_with(TRACE_HEADER));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(AdmissionTrace::parse("arrive").unwrap_err().contains("missing"));
        assert!(AdmissionTrace::parse("arrive x 0.1 3")
            .unwrap_err()
            .contains("malformed"));
        assert!(AdmissionTrace::parse("frob 1").unwrap_err().contains("unknown"));
        assert!(AdmissionTrace::parse("batch 2\narrive 1 0.1 3")
            .unwrap_err()
            .contains("truncated"));
        assert!(AdmissionTrace::parse("batch 1\ndepart 1")
            .unwrap_err()
            .contains("only arrivals"));
        assert!(AdmissionTrace::parse("arrive 1 0.1 3 9")
            .unwrap_err()
            .contains("trailing"));
        // Non-finite utilizations are rejected by name, with the line
        // number, for both arrivals and mode changes.
        let err = AdmissionTrace::parse("arrive 1 NaN 3").unwrap_err();
        assert!(err.contains("line 1") && err.contains("non-finite"), "{err}");
        let err = AdmissionTrace::parse("depart 2\nmode 1 inf 3").unwrap_err();
        assert!(err.contains("line 2") && err.contains("non-finite"), "{err}");
        let err = AdmissionTrace::parse("arrive 1 -inf 3").unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        // Host-dimension directive errors carry line numbers too.
        let err = AdmissionTrace::parse("hosts 0").unwrap_err();
        assert!(err.contains("line 1") && err.contains("at least 1"), "{err}");
        assert!(AdmissionTrace::parse("hosts x")
            .unwrap_err()
            .contains("malformed host count"));
        assert!(AdmissionTrace::parse("hosts")
            .unwrap_err()
            .contains("missing host count"));
        assert!(AdmissionTrace::parse("hosts 2 3")
            .unwrap_err()
            .contains("trailing"));
        assert!(AdmissionTrace::parse("hosts 2\nhosts 3")
            .unwrap_err()
            .contains("duplicate"));
        let err = AdmissionTrace::parse("depart 1\nhosts 2").unwrap_err();
        assert!(err.contains("line 2") && err.contains("precede"), "{err}");
    }

    #[test]
    fn hosts_directive_round_trips_and_defaults_to_one() {
        let plain = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
        assert_eq!(plain.hosts(), 1);
        assert!(!plain.render().contains("hosts"));
        let fleet = generate(&TraceSpec::rejection_heavy(40, 7, 4));
        assert_eq!(fleet.hosts(), 4);
        let text = fleet.render();
        assert!(text.contains("\nhosts 4\n"), "{}", &text[..80]);
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, fleet);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn retries_re_emit_live_arrival_lines_verbatim() {
        let trace = generate(&TraceSpec::rejection_heavy(200, 11, 2));
        assert_eq!(trace.len(), 200);
        let mut first_arrival: std::collections::HashMap<usize, TraceRequest> =
            std::collections::HashMap::new();
        let mut retries = 0usize;
        for item in trace.items() {
            if let TraceItem::Single(request @ TraceRequest::Arrive { vm, .. }) = item {
                match first_arrival.get(vm) {
                    Some(original) => {
                        assert_eq!(request, original, "retry must be verbatim");
                        retries += 1;
                    }
                    None => {
                        first_arrival.insert(*vm, *request);
                    }
                }
            }
        }
        assert!(retries > 50, "only {retries} retries in 200 requests");
        // Determinism: same spec, same bytes.
        assert_eq!(
            generate(&TraceSpec::rejection_heavy(200, 11, 2)).render(),
            trace.render()
        );
    }

    #[test]
    fn fleet_replay_matches_engine_on_one_host() {
        let trace = generate(&TraceSpec::new(60, 17));
        let platform = Platform::platform_a();
        let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(42));
        replay(&mut engine, &trace);
        let mut fleet = AdmissionFleet::new(platform, FleetConfig::new(1, 42));
        fleet.replay(&fleet_items(&trace, platform.resources()));
        assert_eq!(fleet.log_text(), engine.log_text());
        assert_eq!(&fleet.aggregate_stats(), engine.stats());
    }

    #[test]
    fn materialized_vms_have_disjoint_task_ids() {
        let space = Platform::platform_a().resources();
        let a = trace_vm(1, 200, 7, space);
        let b = trace_vm(2, 200, 7, space);
        let ids_a: Vec<usize> = a.tasks().iter().map(|t| t.id().0).collect();
        let ids_b: Vec<usize> = b.tasks().iter().map(|t| t.id().0).collect();
        assert!(ids_a.iter().all(|i| !ids_b.contains(i)));
    }

    #[test]
    fn replay_produces_one_decision_per_request() {
        let trace = generate(&TraceSpec::new(80, 21));
        let mut engine =
            AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        replay(&mut engine, &trace);
        assert_eq!(engine.decisions().len(), trace.len());
        engine.allocation().verify(engine.platform()).unwrap();
    }

    #[test]
    fn crit_directive_round_trips_and_marks_hi_vms() {
        let trace = AdmissionTrace::parse(
            "hosts 2\ncrit 1 4\narrive 1 0.100 3\narrive 2 0.100 4\narrive 4 0.100 5\n",
        )
        .unwrap();
        assert_eq!(trace.hi_vms(), &[1, 4]);
        assert_eq!(trace.criticality_of(1), Criticality::Hi);
        assert_eq!(trace.criticality_of(2), Criticality::Lo);
        assert_eq!(trace.criticality_of(4), Criticality::Hi);
        assert_eq!(trace.criticality_of(99), Criticality::Lo);
        let text = trace.render();
        assert!(text.contains("\ncrit 1 4\n"), "{text}");
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
        // No crit directive ⇒ everyone LO, and none rendered — the
        // historical trace format is unchanged.
        let plain = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
        assert!(plain.hi_vms().is_empty());
        assert!(!plain.render().contains("crit"));
    }

    #[test]
    fn crit_directive_rejections_carry_line_numbers() {
        let err = AdmissionTrace::parse("crit 1\ncrit 2").unwrap_err();
        assert!(err.contains("line 2") && err.contains("duplicate"), "{err}");
        let err = AdmissionTrace::parse("arrive 1 0.100 3\ncrit 1").unwrap_err();
        assert!(err.contains("line 2") && err.contains("precede"), "{err}");
        let err = AdmissionTrace::parse("crit 1 x").unwrap_err();
        assert!(err.contains("line 1") && err.contains("malformed vm id"), "{err}");
        let err = AdmissionTrace::parse("crit 3 2").unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = AdmissionTrace::parse("crit 2 2").unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = AdmissionTrace::parse("crit").unwrap_err();
        assert!(err.contains("names no vm"), "{err}");
    }

    #[test]
    fn hi_fraction_marks_vms_deterministically() {
        let spec = TraceSpec::new(120, 9).with_hi_fraction(0.4);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert!(!a.hi_vms().is_empty(), "0.4 of 120 requests draws some HI");
        assert!(
            a.hi_vms().windows(2).all(|w| w[0] < w[1]),
            "hi set is strictly increasing"
        );
        assert!(a.render().contains("\ncrit "), "{}", &a.render()[..120]);
        // The hi draw is gated on the fraction, so a zero-fraction
        // spec consumes no extra randomness: byte-identical to the
        // plain spec (this is what keeps committed traces stable).
        assert_eq!(
            generate(&TraceSpec::new(120, 9).with_hi_fraction(0.0)).render(),
            generate(&TraceSpec::new(120, 9)).render(),
        );
    }

    #[test]
    fn journal_round_trips_and_recovers_the_exact_engine() {
        let trace = generate(&TraceSpec::new(60, 13));
        let platform = Platform::platform_a();
        let config = AdmissionConfig::new(42);
        let mut engine = AdmissionEngine::new(platform, config);
        let journal = replay_journaled(&mut engine, &trace);
        assert_eq!(journal.decisions(), trace.len());
        // The persisted text form round-trips.
        let text = journal.render();
        let parsed = DecisionJournal::parse(&text).unwrap();
        assert_eq!(parsed, journal);
        // A replacement engine recovered from the journal is in the
        // exact state of the one that wrote it.
        let recovered = recover(platform, config, &parsed).unwrap();
        assert_eq!(recovered.log_text(), engine.log_text());
        assert_eq!(recovered.stats(), engine.stats());
        assert_eq!(recovered.allocation(), engine.allocation());
    }
}
