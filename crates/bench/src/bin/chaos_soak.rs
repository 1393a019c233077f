//! Chaos soak: seeded fault-injection campaigns across the whole
//! alloc → sim stack.
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin chaos_soak           # 96 scenarios
//! VC2M_CHAOS_SCENARIOS=200 cargo run --release -p vc2m-bench --bin chaos_soak
//! VC2M_CHAOS_THREADS=1 ...                                     # serial replay
//! ```
//!
//! Each scenario seed drives the full pipeline: generate a multi-VM
//! workload, admit it through the degradation controller, simulate a
//! fault-free baseline, then re-run under two fault campaigns —
//!
//! 1. a **containment** campaign injecting VM-scoped faults (WCET
//!    overruns, load spikes) into exactly one VM, asserting every
//!    *other* VM's miss sequence and response statistics are
//!    bit-identical to the baseline;
//! 2. a **full chaos** campaign drawing all five fault kinds against
//!    every target, asserting the run completes (no panic, sane
//!    accounting), replays deterministically, and injects exactly the
//!    planned number of faults.
//!
//! Scenarios are independent by construction (everything is derived
//! from the seed), so they run on a worker pool: workers pull seeds
//! from an atomic ticket counter and the per-seed outcomes are merged
//! in seed order afterwards, making the results table and the JSON
//! byte-identical to a serial (`VC2M_CHAOS_THREADS=1`) soak.
//!
//! The degradation controller's contract is asserted on every
//! scenario: an accepted allocation must re-verify schedulable, and
//! shed order must be non-increasing utilization (lightest VMs shed
//! last). Any violation aborts the soak with the failing seed — the
//! seed *is* the reproduction recipe. Aggregate `faults.*` counters
//! land in `results/BENCH_chaos.json` for CI to grep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vc2m::admission::{fleet_items, generate as generate_trace, TraceSpec};
use vc2m::model::{SimDuration, VmSpec};
use vc2m::prelude::*;
use vc2m_bench::timing::JsonBuilder;
use vc2m_bench::write_results;

/// Default number of scenario seeds (the acceptance floor is 20; CI
/// runs the default).
const DEFAULT_SCENARIOS: u64 = 96;

/// Default number of fleet chaos scenario seeds.
const DEFAULT_FLEET_SCENARIOS: u64 = 24;

fn scenario_count() -> u64 {
    std::env::var("VC2M_CHAOS_SCENARIOS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(DEFAULT_SCENARIOS)
}

fn fleet_scenario_count() -> u64 {
    std::env::var("VC2M_FLEET_CHAOS_SCENARIOS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(DEFAULT_FLEET_SCENARIOS)
}

fn thread_count() -> usize {
    std::env::var("VC2M_CHAOS_THREADS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn misses_of(report: &SimReport, task: TaskId) -> Vec<(u64, u64)> {
    report
        .deadline_misses
        .iter()
        .filter(|m| m.task == task)
        .map(|m| (m.job, m.deadline.as_ns()))
        .collect()
}

#[derive(Default)]
struct Totals {
    injected: u64,
    overruns: u64,
    overrun_jobs: u64,
    replenish_delays: u64,
    throttle_faults: u64,
    core_stalls: u64,
    load_spikes: u64,
    load_spike_jobs: u64,
}

impl Totals {
    fn absorb(&mut self, metrics: &vc2m::simcore::MetricsRegistry) {
        let get = |name: &str| metrics.counter(name).unwrap_or(0);
        self.injected += get("faults.injected");
        self.overruns += get("faults.overruns");
        self.overrun_jobs += get("faults.overrun_jobs");
        self.replenish_delays += get("faults.replenish_delays");
        self.throttle_faults += get("faults.throttle_faults");
        self.core_stalls += get("faults.core_stalls");
        self.load_spikes += get("faults.load_spikes");
        self.load_spike_jobs += get("faults.load_spike_jobs");
    }

    fn fold(&mut self, other: &Totals) {
        self.injected += other.injected;
        self.overruns += other.overruns;
        self.overrun_jobs += other.overrun_jobs;
        self.replenish_delays += other.replenish_delays;
        self.throttle_faults += other.throttle_faults;
        self.core_stalls += other.core_stalls;
        self.load_spikes += other.load_spikes;
        self.load_spike_jobs += other.load_spike_jobs;
    }
}

/// Everything a scenario contributes to the soak's aggregates.
#[derive(Default)]
struct SeedOutcome {
    totals: Totals,
    containment_run: bool,
    containment_tasks_checked: u64,
    degraded: bool,
    rejected: bool,
    chaos_misses: u64,
}

/// One full scenario: generate → admit → baseline → containment
/// campaign → chaos campaign. Panics (with the seed) on any contract
/// violation; the seed is the reproduction recipe.
fn run_scenario(
    seed: u64,
    platform: &Platform,
    policy: &DegradationPolicy,
    horizon: SimDuration,
) -> SeedOutcome {
    let mut outcome_acc = SeedOutcome::default();
    // Spread target utilization across feasible-to-tight: some
    // scenarios admit everything, some force shedding.
    let target_u = 1.0 + 0.5 * (seed % 5) as f64;
    let config = TasksetConfig::new(target_u, UtilizationDist::Uniform).with_vm_count(3);
    let mut generator = TasksetGenerator::new(platform.resources(), config, seed);
    let vms = generator.generate_vms();

    let outcome = allocate_with_degradation(
        Solution::HeuristicFlattening,
        &vms,
        &[],
        platform,
        seed,
        policy,
    );
    // Shed order contract: non-increasing utilization, so the
    // lightest VMs are shed last.
    for pair in outcome.report.shed.windows(2) {
        assert!(
            pair[0].utilization >= pair[1].utilization,
            "seed {seed}: shed order violates non-increasing utilization"
        );
    }
    let Some(allocation) = outcome.allocation else {
        outcome_acc.rejected = true;
        return outcome_acc;
    };
    // Degradation contract: an accepted allocation re-verifies.
    allocation
        .verify(platform)
        .unwrap_or_else(|e| panic!("seed {seed}: accepted allocation fails verify: {e}"));
    outcome_acc.degraded = outcome.report.is_degraded();

    let admitted: Vec<VmSpec> = vms
        .iter()
        .filter(|vm| outcome.report.admitted.contains(&vm.id()))
        .cloned()
        .collect();
    let tasks: TaskSet = admitted
        .iter()
        .flat_map(|vm| vm.tasks().iter().cloned())
        .collect();
    let build = || {
        HypervisorSim::new(
            platform,
            &allocation,
            &tasks,
            SimConfig::default().with_horizon(horizon),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: accepted allocation must simulate: {e}"))
    };
    let baseline = build().run().expect("fault-free baseline");

    // Campaign 1: containment. VM-scoped faults into one VM;
    // every other VM must be bit-identical to the baseline.
    if admitted.len() >= 2 {
        let faulty = &admitted[seed as usize % admitted.len()];
        let targets = FaultTargets {
            tasks: faulty.tasks().iter().map(Task::id).collect(),
            vcpus: vec![],
            vms: vec![faulty.id()],
            cores: 0,
        };
        let plan = FaultPlan::generate(
            seed ^ 0x9e37_79b9_7f4a_7c15,
            &targets,
            &FaultPlanSpec::vm_targeted(6, horizon),
        );
        let faulted = build()
            .with_fault_plan(plan)
            .expect("containment plan is valid")
            .run()
            .expect("vm-scoped faults are contained, not fatal");
        for vm in &admitted {
            if vm.id() == faulty.id() {
                continue;
            }
            for task in vm.tasks() {
                let t = task.id();
                assert_eq!(
                    misses_of(&baseline, t),
                    misses_of(&faulted, t),
                    "seed {seed}: isolation violated — {t} in {} perturbed by faults in {}",
                    vm.id(),
                    faulty.id()
                );
                assert_eq!(
                    baseline.response_times.get(&t),
                    faulted.response_times.get(&t),
                    "seed {seed}: response times of {t} perturbed across VMs",
                );
                outcome_acc.containment_tasks_checked += 1;
            }
        }
        outcome_acc.containment_run = true;
    }

    // Campaign 2: full chaos — all kinds, all targets.
    let targets = FaultTargets {
        tasks: tasks.iter().map(Task::id).collect(),
        vcpus: allocation.vcpus().iter().map(|v| v.id()).collect(),
        vms: admitted.iter().map(VmSpec::id).collect(),
        cores: allocation.cores_used(),
    };
    let plan = FaultPlan::generate(
        seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1),
        &targets,
        &FaultPlanSpec::new(8, horizon),
    );
    let planned = plan.len() as u64;
    let (report, observation) = build()
        .with_fault_plan(plan.clone())
        .expect("chaos plan is valid")
        .run_observed()
        .expect("chaos runs are contained, not fatal");
    assert_eq!(
        observation.metrics.counter("faults.injected"),
        Some(planned),
        "seed {seed}: every planned fault lies within the horizon and must inject"
    );
    assert!(
        report.jobs_completed <= report.jobs_released,
        "seed {seed}: accounting"
    );
    // Replay determinism: the same plan over the same system is
    // bit-identical.
    let replay = build()
        .with_fault_plan(plan)
        .expect("chaos plan is valid")
        .run()
        .expect("replay");
    assert_eq!(report.deadline_misses, replay.deadline_misses, "seed {seed}");
    assert_eq!(report.jobs_released, replay.jobs_released, "seed {seed}");
    assert_eq!(report.context_switches, replay.context_switches, "seed {seed}");
    outcome_acc.chaos_misses = report.deadline_misses.len() as u64;
    outcome_acc.totals.absorb(&observation.metrics);
    outcome_acc
}

/// Aggregates of the fleet chaos campaign.
#[derive(Default)]
struct FleetTotals {
    faults_injected: u64,
    host_crashes: u64,
    host_drains: u64,
    verify_faults: u64,
    evacuated_vms: u64,
    evac_hi: u64,
    evac_lo: u64,
    evac_placed: u64,
    evac_exhausted: u64,
    evac_cancelled: u64,
    sheds: u64,
    hi_sheds: u64,
    hi_shed_violations: u64,
}

/// One fleet chaos scenario: a 4-host trace with HI/LO criticalities
/// and a generated fault plan, replayed serially and at 2 and 8
/// threads. Panics on any thread-count divergence — the log, the fleet
/// counters, and the exhaustion records are all pinned to the serial
/// run. A paired degradation run asserts the criticality contract: no
/// HI VM is ever shed while a LO VM remains.
fn run_fleet_scenario(seed: u64, platform: &Platform, policy: &DegradationPolicy) -> FleetTotals {
    let mut totals = FleetTotals::default();
    let hosts = 4;
    let spec = if seed.is_multiple_of(2) {
        TraceSpec::new(90, seed).with_hosts(hosts)
    } else {
        TraceSpec::rejection_heavy(90, seed, hosts)
    }
    .with_hi_fraction(0.3);
    let trace = generate_trace(&spec);
    let items = fleet_items(&trace, platform.resources());
    let plan = FleetFaultPlan::generate(
        seed ^ 0xf1ee7,
        hosts,
        &FleetFaultSpec::new(4, items.len() as u64),
    );
    let scenario = FleetScenario::new(plan, trace.hi_vms().to_vec());
    let config = FleetConfig::new(hosts, seed);
    let mut serial = AdmissionFleet::new(*platform, config);
    serial
        .arm(scenario.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: scenario rejected: {e}"));
    serial.replay(&items);
    for threads in [2, 8] {
        let parallel = AdmissionFleet::replay_parallel_armed(
            *platform,
            config,
            scenario.clone(),
            &items,
            threads,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: scenario rejected: {e}"));
        assert_eq!(
            parallel.log_text(),
            serial.log_text(),
            "seed {seed}: armed fleet log diverged at {threads} threads"
        );
        assert_eq!(
            parallel.router().stats(),
            serial.router().stats(),
            "seed {seed}: fleet counters diverged at {threads} threads"
        );
        assert_eq!(
            parallel.evacuation_failures(),
            serial.evacuation_failures(),
            "seed {seed}: exhaustion records diverged at {threads} threads"
        );
    }
    let stats = serial.router().stats();
    // The end-of-replay flush drains the evacuation queue, so every
    // evacuated VM was placed, exhausted or cancelled.
    assert_eq!(
        stats.evacuated_vms,
        stats.evac_placed + stats.evac_exhausted + stats.evac_cancelled,
        "seed {seed}: evacuation books do not balance"
    );
    totals.faults_injected += stats.faults_injected;
    totals.host_crashes += stats.host_crashes;
    totals.host_drains += stats.host_drains;
    totals.verify_faults += stats.verify_faults;
    totals.evacuated_vms += stats.evacuated_vms;
    totals.evac_hi += stats.evac_hi;
    totals.evac_lo += stats.evac_lo;
    totals.evac_placed += stats.evac_placed;
    totals.evac_exhausted += stats.evac_exhausted;
    totals.evac_cancelled += stats.evac_cancelled;

    // Criticality contract under overload: shed order is
    // criticality-major, so HI work survives while any LO remains.
    let target_u = 2.0 + (seed % 4) as f64;
    let config = TasksetConfig::new(target_u, UtilizationDist::Uniform).with_vm_count(4);
    let mut generator = TasksetGenerator::new(platform.resources(), config, seed);
    let vms = generator.generate_vms();
    let crits: Vec<Criticality> = (0..vms.len())
        .map(|i| {
            if (seed + i as u64).is_multiple_of(2) {
                Criticality::Hi
            } else {
                Criticality::Lo
            }
        })
        .collect();
    let outcome = allocate_with_degradation(
        Solution::HeuristicFlattening,
        &vms,
        &crits,
        platform,
        seed,
        policy,
    );
    let mut lo_remaining = crits.iter().filter(|&&c| c == Criticality::Lo).count();
    for shed in &outcome.report.shed {
        totals.sheds += 1;
        match shed.criticality {
            Criticality::Hi => {
                totals.hi_sheds += 1;
                if lo_remaining > 0 {
                    totals.hi_shed_violations += 1;
                }
            }
            Criticality::Lo => lo_remaining -= 1,
        }
    }
    assert_eq!(
        totals.hi_shed_violations, 0,
        "seed {seed}: a HI VM was shed while LO work remained"
    );
    totals
}

fn main() {
    let scenarios = scenario_count();
    let threads = thread_count().min(scenarios.max(1) as usize);
    let platform = Platform::platform_a();
    let policy = DegradationPolicy::default();
    let horizon = SimDuration::from_ms(3000.0);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    println!(
        "chaos soak: {scenarios} scenarios on {platform}, horizon 3000 ms, {threads} threads"
    );

    // Workers pull seeds from a ticket counter; outcomes are keyed by
    // seed and folded in seed order below, so the aggregates (and thus
    // the printed table and the JSON) are byte-identical to a serial
    // soak no matter how the seeds were interleaved.
    let ticket = AtomicU64::new(0);
    let collected: Mutex<Vec<(u64, SeedOutcome)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let seed = ticket.fetch_add(1, Ordering::Relaxed);
                if seed >= scenarios {
                    return;
                }
                let outcome = run_scenario(seed, &platform, &policy, horizon);
                collected
                    .lock()
                    .expect("a panicking scenario aborts the soak")
                    .push((seed, outcome));
            });
        }
    });
    let mut outcomes = collected.into_inner().expect("workers finished");
    outcomes.sort_by_key(|(seed, _)| *seed);

    let mut totals = Totals::default();
    let mut containment_runs = 0u64;
    let mut containment_tasks_checked = 0u64;
    let mut degraded_scenarios = 0u64;
    let mut rejected_scenarios = 0u64;
    let mut chaos_misses = 0u64;
    for (_, outcome) in &outcomes {
        totals.fold(&outcome.totals);
        containment_runs += u64::from(outcome.containment_run);
        containment_tasks_checked += outcome.containment_tasks_checked;
        degraded_scenarios += u64::from(outcome.degraded);
        rejected_scenarios += u64::from(outcome.rejected);
        chaos_misses += outcome.chaos_misses;
    }

    // Dedicated overload scenario: demand far beyond the platform so
    // the controller must shed, and must shed heaviest-first.
    let config = TasksetConfig::new(6.0, UtilizationDist::BimodalHeavy).with_vm_count(4);
    let mut generator = TasksetGenerator::new(platform.resources(), config, 0xc4a05);
    let vms = generator.generate_vms();
    let outcome = allocate_with_degradation(
        Solution::HeuristicFlattening,
        &vms,
        &[],
        &platform,
        0xc4a05,
        &policy,
    );
    assert!(
        outcome.report.is_degraded(),
        "a 6.0-utilization workload cannot be fully admitted"
    );
    if let Some(allocation) = &outcome.allocation {
        allocation
            .verify(&platform)
            .expect("overload: accepted allocation fails verify");
    }

    println!(
        "  {scenarios} scenarios | {containment_runs} containment runs \
         ({containment_tasks_checked} victim tasks, 0 violations) | \
         {degraded_scenarios} degraded, {rejected_scenarios} rejected | \
         {} faults injected, {} chaos-run misses",
        totals.injected, chaos_misses
    );

    let json = JsonBuilder::new()
        .str("bench", "chaos_soak")
        .int("scenarios", scenarios)
        .int("host_cpus", host_cpus)
        .int("containment_runs", containment_runs)
        .int("containment_tasks_checked", containment_tasks_checked)
        .int("containment_violations", 0)
        .int("degraded_scenarios", degraded_scenarios)
        .int("rejected_scenarios", rejected_scenarios)
        .int("chaos_run_misses", chaos_misses)
        .int("faults.injected", totals.injected)
        .int("faults.overruns", totals.overruns)
        .int("faults.overrun_jobs", totals.overrun_jobs)
        .int("faults.replenish_delays", totals.replenish_delays)
        .int("faults.throttle_faults", totals.throttle_faults)
        .int("faults.core_stalls", totals.core_stalls)
        .int("faults.load_spikes", totals.load_spikes)
        .int("faults.load_spike_jobs", totals.load_spike_jobs)
        .build();
    let path = write_results("BENCH_chaos.json", &json);
    println!("  wrote {}", path.display());

    // Fleet chaos campaign: host crashes, drains and verify faults
    // over sharded admission fleets, with the parallel replay pinned
    // byte-for-byte to the serial one on every seed.
    let fleet_scenarios = fleet_scenario_count();
    println!(
        "fleet chaos: {fleet_scenarios} scenarios, 4 hosts, faults armed, \
         threads 1/2/8 conformance"
    );
    let mut fleet_totals = FleetTotals::default();
    for seed in 0..fleet_scenarios {
        let t = run_fleet_scenario(seed, &platform, &policy);
        fleet_totals.faults_injected += t.faults_injected;
        fleet_totals.host_crashes += t.host_crashes;
        fleet_totals.host_drains += t.host_drains;
        fleet_totals.verify_faults += t.verify_faults;
        fleet_totals.evacuated_vms += t.evacuated_vms;
        fleet_totals.evac_hi += t.evac_hi;
        fleet_totals.evac_lo += t.evac_lo;
        fleet_totals.evac_placed += t.evac_placed;
        fleet_totals.evac_exhausted += t.evac_exhausted;
        fleet_totals.evac_cancelled += t.evac_cancelled;
        fleet_totals.sheds += t.sheds;
        fleet_totals.hi_sheds += t.hi_sheds;
        fleet_totals.hi_shed_violations += t.hi_shed_violations;
    }
    println!(
        "  {fleet_scenarios} scenarios | {} faults ({} crashes, {} drains, {} verify) | \
         {} evacuated ({} hi, {} lo): {} placed, {} exhausted, {} cancelled | \
         {} sheds ({} hi, {} violations)",
        fleet_totals.faults_injected,
        fleet_totals.host_crashes,
        fleet_totals.host_drains,
        fleet_totals.verify_faults,
        fleet_totals.evacuated_vms,
        fleet_totals.evac_hi,
        fleet_totals.evac_lo,
        fleet_totals.evac_placed,
        fleet_totals.evac_exhausted,
        fleet_totals.evac_cancelled,
        fleet_totals.sheds,
        fleet_totals.hi_sheds,
        fleet_totals.hi_shed_violations,
    );
    let fleet_json = JsonBuilder::new()
        .str("bench", "fleet_chaos")
        .int("scenarios", fleet_scenarios)
        .int("host_cpus", host_cpus)
        .bool("conformant", true)
        .int("fleet.faults.injected", fleet_totals.faults_injected)
        .int("fleet.faults.crashes", fleet_totals.host_crashes)
        .int("fleet.faults.drains", fleet_totals.host_drains)
        .int("fleet.faults.verify", fleet_totals.verify_faults)
        .int("fleet.evacuations.vms", fleet_totals.evacuated_vms)
        .int("fleet.evacuations.hi", fleet_totals.evac_hi)
        .int("fleet.evacuations.lo", fleet_totals.evac_lo)
        .int("fleet.evacuations.placed", fleet_totals.evac_placed)
        .int("fleet.evacuations.exhausted", fleet_totals.evac_exhausted)
        .int("fleet.evacuations.cancelled", fleet_totals.evac_cancelled)
        .int("degradation.sheds", fleet_totals.sheds)
        .int("degradation.hi_sheds", fleet_totals.hi_sheds)
        .int("hi_shed_violations", fleet_totals.hi_shed_violations)
        .build();
    let fleet_path = write_results("BENCH_fleet_chaos.json", &fleet_json);
    println!("  wrote {}", fleet_path.display());
}
