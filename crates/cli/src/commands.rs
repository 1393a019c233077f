//! The CLI subcommands.

use crate::args::Options;
use crate::{io_error, CliError};
use std::io::Write;
use vc2m::model::{Alloc, Platform, SimDuration, TaskSet, VmSpec};
use vc2m::prelude::*;
use vc2m::sweep::{run_sweep_parallel, SweepConfig};
use vc2m_bench::timing::{json_array, metrics_json, JsonBuilder};

/// `vc2m platforms`: lists the built-in evaluation platforms.
pub fn platforms(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "{:<4} {:<44} modeled on", "name", "geometry").map_err(io_error)?;
    for (name, platform, cpu) in [
        ("a", Platform::platform_a(), "Intel Xeon E5-2618L v3"),
        ("b", Platform::platform_b(), "Intel Xeon D-1528"),
        ("c", Platform::platform_c(), "Intel Xeon D-1518"),
    ] {
        writeln!(out, "{:<4} {:<44} {cpu}", name, platform.to_string()).map_err(io_error)?;
    }
    Ok(())
}

/// `vc2m benchmarks`: lists the benchmark profiles and their slowdown
/// landmarks on the selected platform.
pub fn benchmarks(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = Options::parse(argv)?;
    let platform = options.platform()?;
    let space = platform.resources();
    let even = Alloc::new(
        (space.cache_max() / platform.cores() as u32).max(space.cache_min()),
        (space.bw_max() / platform.cores() as u32).max(space.bw_min()),
    );
    writeln!(
        out,
        "{:<14} {:>8} {:>10} {:>8}",
        "benchmark", "s(max)", "s(even)", "mem%"
    )
    .map_err(io_error)?;
    for benchmark in ParsecBenchmark::ALL {
        let profile = benchmark.profile();
        let surface = profile.slowdown_surface(&space);
        writeln!(
            out,
            "{:<14} {:>8.2} {:>10.2} {:>7.0}%",
            benchmark.name(),
            surface.max_slowdown(),
            surface.at(even),
            profile.memory_intensity() * 100.0
        )
        .map_err(io_error)?;
    }
    writeln!(
        out,
        "\ns(max): slowdown at ({}, {}); s(even): at the even split {even}",
        space.cache_min(),
        space.bw_min()
    )
    .map_err(io_error)?;
    Ok(())
}

/// Workload parameters shared by `analyze` and `simulate`.
struct Workload {
    platform: Platform,
    tasks: TaskSet,
    vms: Vec<VmSpec>,
    seed: u64,
}

fn build_workload(options: &Options) -> Result<Workload, CliError> {
    let platform = options.platform()?;
    let utilization: f64 = options.parse_or("utilization", 1.0)?;
    if !utilization.is_finite() || utilization <= 0.0 {
        return Err(CliError::new("utilization must be positive"));
    }
    let seed: u64 = options.parse_or("seed", 42)?;
    let vm_count: usize = options.parse_or("vms", 1)?;
    if vm_count == 0 {
        return Err(CliError::new("--vms must be at least 1"));
    }
    let distribution = options.distribution()?;
    let mut generator = TasksetGenerator::new(
        platform.resources(),
        TasksetConfig::new(utilization, distribution).with_vm_count(vm_count),
        seed,
    );
    let vms = generator.generate_vms();
    let tasks: TaskSet = vms
        .iter()
        .flat_map(|vm| vm.tasks().iter().cloned())
        .collect();
    Ok(Workload {
        platform,
        tasks,
        vms,
        seed,
    })
}

/// `vc2m analyze`: generates a workload and allocates it with the
/// selected solutions.
pub fn analyze(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = Options::parse(argv)?;
    let workload = build_workload(&options)?;
    let solutions = options.solutions()?;
    writeln!(
        out,
        "workload: {} tasks in {} VMs, u* = {:.3} on {}",
        workload.tasks.len(),
        workload.vms.len(),
        workload.tasks.reference_utilization(),
        workload.platform
    )
    .map_err(io_error)?;
    for solution in solutions {
        let outcome = solution.allocate(&workload.vms, &workload.platform, workload.seed);
        match outcome.allocation() {
            Some(allocation) => {
                writeln!(out, "\n{}: schedulable", solution.name()).map_err(io_error)?;
                write!(out, "{allocation}").map_err(io_error)?;
            }
            None => {
                writeln!(out, "\n{}: NOT schedulable", solution.name()).map_err(io_error)?;
            }
        }
    }
    Ok(())
}

/// `vc2m simulate`: allocates, then validates the allocation on the
/// simulated hypervisor.
///
/// With `--trace-out <path>` the retained event trace (most recent
/// 4096 records per solution) is written as text; with
/// `--metrics-out <path>` the per-solution metrics registries are
/// written as one schema-stable JSON document (see DESIGN.md). Both
/// captures are passive: the printed report is identical with or
/// without them.
///
/// With `--fault-seed <seed>` a deterministic fault plan of
/// `--fault-count` faults (default 8) is generated over the workload
/// and injected during the run; the `faults.*` counters then appear in
/// the metrics output.
pub fn simulate(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = Options::parse(argv)?;
    let workload = build_workload(&options)?;
    let horizon_ms: f64 = options.parse_or("horizon-ms", 2500.0)?;
    if !horizon_ms.is_finite() || horizon_ms <= 0.0 {
        return Err(CliError::new("--horizon-ms must be positive"));
    }
    let fault_seed: Option<u64> = match options.value("fault-seed") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError::new(format!("--fault-seed must be a u64, got {raw}")))?,
        ),
        None => None,
    };
    let fault_count: usize = options.parse_or("fault-count", 8)?;
    let threads: usize = options.parse_or("threads", 1)?;
    if threads == 0 {
        return Err(CliError::new("--threads must be at least 1"));
    }
    let solutions = options.solutions()?;
    let trace_out = options.value("trace-out").map(str::to_string);
    let metrics_out = options.value("metrics-out").map(str::to_string);
    let observe = trace_out.is_some() || metrics_out.is_some();
    let mut trace_text = String::new();
    let mut metric_runs: Vec<String> = Vec::new();
    for solution in solutions {
        let outcome = solution.allocate(&workload.vms, &workload.platform, workload.seed);
        let Some(allocation) = outcome.allocation() else {
            writeln!(
                out,
                "{}: NOT schedulable (skipping simulation)",
                solution.name()
            )
            .map_err(io_error)?;
            continue;
        };
        let gantt = options.switch("gantt");
        let config = SimConfig::default()
            .with_horizon(SimDuration::from_ms(horizon_ms))
            .with_supply_recording(gantt)
            .with_trace_capacity(if trace_out.is_some() { 4096 } else { 0 });
        let mut sim = HypervisorSim::new(&workload.platform, allocation, &workload.tasks, config)
            .map_err(|e| CliError::new(format!("simulation build failed: {e}")))?;
        if let Some(seed) = fault_seed {
            let targets = FaultTargets {
                tasks: workload.tasks.iter().map(|t| t.id()).collect(),
                vcpus: allocation.vcpus().iter().map(|v| v.id()).collect(),
                vms: workload.vms.iter().map(|vm| vm.id()).collect(),
                cores: allocation.cores_used(),
            };
            let spec = FaultPlanSpec::new(fault_count, SimDuration::from_ms(horizon_ms));
            let plan = FaultPlan::generate(seed, &targets, &spec);
            writeln!(
                out,
                "{}: injecting {} faults (seed {seed})",
                solution.name(),
                plan.len()
            )
            .map_err(io_error)?;
            sim = sim
                .with_fault_plan(plan)
                .map_err(|e| CliError::new(format!("fault plan rejected: {e}")))?;
        }
        // The sharded engine is conformant (bit-identical reports,
        // traces and metrics — pinned by the hypervisor crate's
        // differential suite), so `--threads` is purely a wall-clock
        // choice.
        let (report, observation) = if observe {
            let (report, observation) = if threads > 1 {
                sim.run_observed_sharded(threads)
            } else {
                sim.run_observed()
            }
            .map_err(|e| CliError::new(format!("simulation failed: {e}")))?;
            (report, Some(observation))
        } else {
            let report = if threads > 1 {
                sim.run_sharded(threads)
            } else {
                sim.run()
            }
            .map_err(|e| CliError::new(format!("simulation failed: {e}")))?;
            (report, None)
        };
        if let Some(observation) = observation {
            if trace_out.is_some() {
                trace_text.push_str(&format!(
                    "# {} ({} recorded, {} dropped)\n",
                    solution.name(),
                    observation.trace.len(),
                    observation.trace_dropped
                ));
                for (time, event) in &observation.trace {
                    trace_text.push_str(&format!("[{time}] {event}\n"));
                }
            }
            if metrics_out.is_some() {
                metric_runs.push(
                    JsonBuilder::new()
                        .str("solution", solution.name())
                        .raw("metrics", metrics_json(&observation.metrics))
                        .build(),
                );
            }
        }
        writeln!(
            out,
            "{}: {} cores, {}",
            solution.name(),
            allocation.cores_used(),
            if report.all_deadlines_met() {
                format!("all deadlines met over {} jobs", report.jobs_completed)
            } else {
                format!("{} DEADLINE MISSES", report.deadline_misses.len())
            }
        )
        .map_err(io_error)?;
        if gantt {
            use vc2m::model::SimTime;
            let window_end = SimTime::from_ms(horizon_ms.min(200.0));
            write!(
                out,
                "{}",
                vc2m::hypervisor::gantt::render(
                    &report.supply_logs,
                    SimTime::ZERO,
                    window_end,
                    100
                )
            )
            .map_err(io_error)?;
        }
    }
    if let Some(path) = trace_out {
        std::fs::write(&path, trace_text)
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    if let Some(path) = metrics_out {
        let document = JsonBuilder::new()
            .str("schema", "vc2m-metrics-v1")
            .str("command", "simulate")
            .raw("runs", json_array(metric_runs))
            .build();
        std::fs::write(&path, document + "\n")
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    Ok(())
}

/// `vc2m isolation`: the Section 3.3 WCET-impact study.
pub fn isolation(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use vc2m::hypervisor::interference::{measure, InterferenceConfig};
    let options = Options::parse(argv)?;
    let platform = options.platform()?;
    let space = platform.resources();
    let co_runners: usize = options.parse_or("co-runners", 3)?;
    let runs: usize = options.parse_or("runs", 25)?;
    if runs == 0 {
        return Err(CliError::new("--runs must be at least 1"));
    }
    let seed: u64 = options.parse_or("seed", 42)?;
    let cache = (space.cache_max() * 3 / 5).max(space.cache_min());
    let bw = (space.bw_max() * 3 / 5).max(space.bw_min());
    let alloc = Alloc::new(cache, bw);
    let config = InterferenceConfig {
        co_runners,
        runs,
        ..InterferenceConfig::default()
    };
    writeln!(
        out,
        "isolation study on {platform}: vC2M allocation {alloc}, {co_runners} co-runners, {runs} runs\n"
    )
    .map_err(io_error)?;
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>10}",
        "benchmark", "isolated", "shared", "reduction"
    )
    .map_err(io_error)?;
    for benchmark in ParsecBenchmark::ALL {
        let mut rng = vc2m_rng::DetRng::seed_from_u64(seed);
        let m = measure(&benchmark.profile(), &space, alloc, &config, &mut rng);
        writeln!(
            out,
            "{:<14} {:>12.3} {:>12.3} {:>9.2}x",
            benchmark.name(),
            m.isolated.max().unwrap_or(f64::NAN),
            m.shared.max().unwrap_or(f64::NAN),
            m.wcet_reduction().unwrap_or(f64::NAN)
        )
        .map_err(io_error)?;
    }
    Ok(())
}

/// `vc2m sweep`: a Figure 2/3-style schedulability sweep.
pub fn sweep(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = Options::parse(argv)?;
    let platform = options.platform()?;
    let distribution = options.distribution()?;
    let mut config = if options.switch("fleet") {
        SweepConfig::fleet(platform, distribution)
    } else if options.switch("full") {
        SweepConfig::paper(platform, distribution)
    } else {
        SweepConfig::quick(platform, distribution)
    };
    config.solutions = options.solutions()?;
    config.base_seed = options.parse_or("seed", config.base_seed)?;
    config.use_cache = !options.switch("no-cache");
    let default_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = options.parse_or("threads", default_threads)?;
    if threads == 0 {
        return Err(CliError::new("--threads must be at least 1"));
    }

    let results = run_sweep_parallel(&config, threads, |_, _| {});
    write!(out, "{results}").map_err(io_error)?;
    for solution in results.solutions().to_vec() {
        if let Some(u) = results.breakdown_utilization(solution) {
            writeln!(out, "breakdown {:<40} {u:.2}", solution.name()).map_err(io_error)?;
        }
    }
    if let Some(path) = options.value("out") {
        std::fs::write(path, results.fractions_csv())
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    if let Some(path) = options.value("metrics-out") {
        let document = JsonBuilder::new()
            .str("schema", "vc2m-metrics-v1")
            .str("command", "sweep")
            .raw("metrics", metrics_json(&sweep_metrics(&results)))
            .build();
        std::fs::write(path, document + "\n")
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    Ok(())
}

/// `vc2m admit`: replay an admission-request trace through the
/// streaming [`AdmissionEngine`] (or, with `--hosts N`, the sharded
/// [`vc2m::alloc::AdmissionFleet`]).
///
/// The trace comes from `--trace-in` (the `vc2m-admission-trace-v1`
/// text format) or is generated deterministically from `--requests`
/// and `--seed`. The full decision log goes to `--report-out`, the
/// `admission.*` counters to `--metrics-out`. The host count defaults
/// to the trace's `hosts` directive (1 when absent); with one host the
/// engine path runs and the output is byte-identical to what it always
/// was. `--threads` replays an N-host fleet in parallel (the merged
/// log is thread-count invariant); `--no-memo` disables the
/// saturated-regime rejection memo.
///
/// Fault tolerance: `--hi-fraction F` marks a deterministic fraction
/// of generated VMs criticality-HI; `--fleet-fault-seed S` (with
/// `--fleet-fault-count N`, default 4) arms a generated, replayable
/// fleet fault plan — host crashes, drains and verify faults — on the
/// fleet path; `--journal PATH` writes the engine path's write-ahead
/// decision journal; `--recover PATH` reconstructs an engine from a
/// journal instead of replaying a trace, failing loudly on any
/// divergence from the journaled decisions.
pub fn admit(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use vc2m::admission::{generate, replay, replay_journaled, AdmissionTrace, TraceSpec};
    let options = Options::parse(argv)?;
    let platform = options.platform()?;
    let seed: u64 = options.parse_or("seed", 42)?;
    let solution = match options.value("solution") {
        None => Solution::Auto,
        Some(_) => {
            let picked = options.solutions()?;
            match picked.as_slice() {
                [one] => *one,
                _ => {
                    return Err(CliError::new(
                        "admit needs exactly one --solution (not 'all')",
                    ))
                }
            }
        }
    };
    let explicit_hosts: Option<usize> = match options.value("hosts") {
        Some(_) => {
            let hosts = options.parse_or("hosts", 1usize)?;
            if hosts == 0 {
                return Err(CliError::new("--hosts must be at least 1"));
            }
            Some(hosts)
        }
        None => None,
    };
    if let Some(path) = options.value("recover") {
        let mut config = AdmissionConfig::new(seed).with_solution(solution);
        if options.switch("reference") {
            config = config.reference_mode();
        }
        if options.switch("no-memo") {
            config = config.without_memo();
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
        let journal = DecisionJournal::parse(&text)
            .map_err(|e| CliError::new(format!("bad journal {path}: {e}")))?;
        let engine = vc2m::admission::recover(platform, config, &journal)
            .map_err(|e| CliError::new(format!("recovery failed: {e}")))?;
        writeln!(
            out,
            "recovery: {} decisions reconstructed from {} records, conformant",
            journal.decisions(),
            journal.len(),
        )
        .map_err(io_error)?;
        writeln!(
            out,
            "final state: {} VMs on {} cores",
            engine.working_set().len(),
            engine.allocation().cores_used(),
        )
        .map_err(io_error)?;
        if let Some(path) = options.value("report-out") {
            std::fs::write(path, engine.log_text())
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
            writeln!(out, "wrote {path}").map_err(io_error)?;
        }
        return Ok(());
    }
    let hi_fraction: Option<f64> = match options.value("hi-fraction") {
        Some(raw) => {
            let f: f64 = raw.parse().map_err(|_| {
                CliError::new(format!("--hi-fraction must be a number, got {raw}"))
            })?;
            if !(0.0..=1.0).contains(&f) {
                return Err(CliError::new("--hi-fraction must be in 0.0..=1.0"));
            }
            if options.value("trace-in").is_some() {
                return Err(CliError::new(
                    "--hi-fraction applies to generated traces; use a `crit` \
                     directive in the trace file instead",
                ));
            }
            Some(f)
        }
        None => None,
    };
    let trace = match options.value("trace-in") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
            AdmissionTrace::parse(&text)
                .map_err(|e| CliError::new(format!("bad trace {path}: {e}")))?
        }
        None => {
            let requests: usize = options.parse_or("requests", 100)?;
            if requests == 0 {
                return Err(CliError::new("--requests must be at least 1"));
            }
            let mut spec = if options.switch("rejection-heavy") {
                TraceSpec::rejection_heavy(requests, seed, explicit_hosts.unwrap_or(1))
            } else {
                TraceSpec::new(requests, seed).with_hosts(explicit_hosts.unwrap_or(1))
            };
            if let Some(f) = hi_fraction {
                spec = spec.with_hi_fraction(f);
            }
            generate(&spec)
        }
    };
    let hosts = explicit_hosts.unwrap_or_else(|| trace.hosts());
    if let Some(path) = options.value("trace-out") {
        std::fs::write(path, trace.render())
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    let mut config = AdmissionConfig::new(seed).with_solution(solution);
    if options.switch("reference") {
        config = config.reference_mode();
    }
    if options.switch("no-memo") {
        config = config.without_memo();
    }
    if hosts > 1 {
        if options.value("journal").is_some() {
            return Err(CliError::new(
                "--journal records the single-host engine path; use --hosts 1",
            ));
        }
        return admit_fleet(&options, platform, config, &trace, hosts, seed, solution, out);
    }
    if options.value("fleet-fault-seed").is_some() || options.value("fleet-fault-count").is_some() {
        return Err(CliError::new(
            "fleet faults need a fleet: pass --hosts N with N > 1",
        ));
    }
    let mut engine = AdmissionEngine::new(platform, config);
    let journal = match options.value("journal") {
        Some(path) => {
            let journal = replay_journaled(&mut engine, &trace);
            std::fs::write(path, journal.render())
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
            Some((path.to_string(), journal.len()))
        }
        None => {
            replay(&mut engine, &trace);
            None
        }
    };

    let stats = *engine.stats();
    let allocation = engine.allocation();
    writeln!(
        out,
        "admission on {platform}: {} requests, seed {seed}, solution {}{}",
        trace.len(),
        solution.name(),
        if engine.config().reference {
            " (reference mode)"
        } else {
            ""
        }
    )
    .map_err(io_error)?;
    writeln!(
        out,
        "admitted {} ({} incremental, {} repack), rejected {} ({} at capacity), \
         degraded {}, departed {}",
        stats.admitted_incremental + stats.admitted_repack,
        stats.admitted_incremental,
        stats.admitted_repack,
        stats.rejected,
        stats.capacity_rejects,
        stats.degraded,
        stats.departed,
    )
    .map_err(io_error)?;
    writeln!(
        out,
        "final state: {} VMs on {} cores, {} dirty cores verified, {} full verifies",
        engine.working_set().len(),
        allocation.cores_used(),
        stats.dirty_cores_verified,
        stats.full_verifies,
    )
    .map_err(io_error)?;
    if let Some((path, records)) = journal {
        writeln!(out, "wrote {path} ({records} journal records)").map_err(io_error)?;
    }
    if let Some(path) = options.value("report-out") {
        std::fs::write(path, engine.log_text())
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    if let Some(path) = options.value("metrics-out") {
        let mut metrics = vc2m::simcore::MetricsRegistry::new();
        engine.export_metrics(&mut metrics);
        let document = JsonBuilder::new()
            .str("schema", "vc2m-metrics-v1")
            .str("command", "admit")
            .raw("metrics", metrics_json(&metrics))
            .build();
        std::fs::write(path, document + "\n")
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    Ok(())
}

/// The `--hosts N` (N > 1) arm of [`admit`]: route the trace across a
/// sharded fleet, serially or in parallel, and summarize per host.
#[allow(clippy::too_many_arguments)]
fn admit_fleet(
    options: &Options,
    platform: vc2m::model::Platform,
    config: AdmissionConfig,
    trace: &vc2m::admission::AdmissionTrace,
    hosts: usize,
    seed: u64,
    solution: Solution,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use vc2m::admission::fleet_items;
    use vc2m::alloc::{AdmissionFleet, FleetConfig};
    let threads: usize = options.parse_or("threads", 1)?;
    if threads == 0 {
        return Err(CliError::new("--threads must be at least 1"));
    }
    let fault_seed: Option<u64> = match options.value("fleet-fault-seed") {
        Some(raw) => Some(raw.parse().map_err(|_| {
            CliError::new(format!("--fleet-fault-seed must be a u64, got {raw}"))
        })?),
        None => None,
    };
    let fault_count: usize = options.parse_or("fleet-fault-count", 4)?;
    if fault_seed.is_none() && options.value("fleet-fault-count").is_some() {
        return Err(CliError::new(
            "--fleet-fault-count needs --fleet-fault-seed to arm a plan",
        ));
    }
    let fleet_config = FleetConfig::new(hosts, seed).with_engine(config);
    let items = fleet_items(trace, platform.resources());
    // Arming the default (fault-free, all-LO) scenario on a fresh
    // fleet changes nothing, so one path serves both cases.
    let scenario = fault_seed
        .map(|fs| {
            let spec = FleetFaultSpec::new(fault_count, items.len() as u64);
            FleetScenario::new(
                FleetFaultPlan::generate(fs, hosts, &spec),
                trace.hi_vms().to_vec(),
            )
        })
        .unwrap_or_default();
    let rejected = |e| CliError::new(format!("fault scenario rejected: {e}"));
    let fleet = if threads > 1 {
        AdmissionFleet::replay_parallel_armed(platform, fleet_config, scenario, &items, threads)
            .map_err(rejected)?
    } else {
        let mut fleet = AdmissionFleet::new(platform, fleet_config);
        fleet.arm(scenario).map_err(rejected)?;
        fleet.replay(&items);
        fleet
    };
    let stats = fleet.aggregate_stats();
    let routing = *fleet.router().stats();
    writeln!(
        out,
        "fleet admission on {hosts}x {platform}: {} requests, seed {seed}, solution {}{}{}",
        trace.len(),
        solution.name(),
        if config.reference { " (reference mode)" } else { "" },
        if config.memo { "" } else { " (memo off)" },
    )
    .map_err(io_error)?;
    writeln!(
        out,
        "admitted {} ({} incremental, {} repack), rejected {} ({} at capacity), \
         degraded {}, departed {}",
        stats.admitted_incremental + stats.admitted_repack,
        stats.admitted_incremental,
        stats.admitted_repack,
        stats.rejected,
        stats.capacity_rejects,
        stats.degraded,
        stats.departed,
    )
    .map_err(io_error)?;
    writeln!(
        out,
        "routing: {} best-fit, {} retry, {} saturated, {} unowned; memo: {} hits, {} inserts",
        routing.best_fit_routes,
        routing.retry_routes,
        routing.saturated_routes,
        routing.unowned_routes,
        stats.memo_hits,
        stats.memo_inserts,
    )
    .map_err(io_error)?;
    if fault_seed.is_some() {
        writeln!(
            out,
            "faults: {} injected ({} crashes, {} drains, {} verify)",
            routing.faults_injected, routing.host_crashes, routing.host_drains,
            routing.verify_faults,
        )
        .map_err(io_error)?;
        writeln!(
            out,
            "evacuations: {} VMs ({} hi, {} lo): {} placed, {} deferred, {} exhausted, \
             {} cancelled",
            routing.evacuated_vms,
            routing.evac_hi,
            routing.evac_lo,
            routing.evac_placed,
            routing.evac_deferred,
            routing.evac_exhausted,
            routing.evac_cancelled,
        )
        .map_err(io_error)?;
        for failure in fleet.evacuation_failures() {
            writeln!(
                out,
                "  evacuation exhausted: vm={} crit={:?} u={:.3} after {} attempts",
                failure.vm, failure.criticality, failure.utilization, failure.attempts,
            )
            .map_err(io_error)?;
        }
    }
    for (host, engine) in fleet.engines().iter().enumerate() {
        writeln!(
            out,
            "host {host}: {} VMs on {} cores, load {:.3}{}",
            engine.working_set().len(),
            engine.allocation().cores_used(),
            engine
                .working_set()
                .iter()
                .map(|vm| vm.reference_utilization())
                .sum::<f64>()
                + 0.0, // the empty sum is -0.0
            if fleet.router().alive()[host] {
                ""
            } else {
                " (down)"
            },
        )
        .map_err(io_error)?;
    }
    if let Some(path) = options.value("report-out") {
        std::fs::write(path, fleet.log_text())
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    if let Some(path) = options.value("metrics-out") {
        let mut metrics = vc2m::simcore::MetricsRegistry::new();
        fleet.export_metrics(&mut metrics);
        let document = JsonBuilder::new()
            .str("schema", "vc2m-metrics-v1")
            .str("command", "admit")
            .raw("metrics", metrics_json(&metrics))
            .build();
        std::fs::write(path, document + "\n")
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").map_err(io_error)?;
    }
    Ok(())
}

/// Aggregates a sweep into one deterministic metrics registry: taskset
/// counts, per-solution breakdown utilizations, the analysis-cache
/// counters, and the schedulability-kernel telemetry (checkpoint
/// merges, truncations, fallback horizons, kernel call counts).
/// Wall-clock analysis runtimes are deliberately excluded so the
/// rendered JSON is reproducible run to run.
fn sweep_metrics(results: &vc2m::sweep::SweepResults) -> vc2m::simcore::MetricsRegistry {
    let mut metrics = vc2m::simcore::MetricsRegistry::new();
    metrics.counter_add("sweep.points", results.rows().len() as u64);
    metrics.counter_add("sweep.solutions", results.solutions().len() as u64);
    let mut analyzed = 0u64;
    let mut schedulable = 0u64;
    for row in results.rows() {
        for cell in &row.cells {
            analyzed += cell.total as u64;
            schedulable += cell.schedulable as u64;
        }
    }
    metrics.counter_add("sweep.tasksets.analyzed", analyzed);
    metrics.counter_add("sweep.tasksets.schedulable", schedulable);
    for &solution in results.solutions() {
        if let Some(u) = results.breakdown_utilization(solution) {
            metrics.gauge_set(&format!("sweep.breakdown.{}", solution.name()), u);
        }
    }
    results
        .cache_stats()
        .export_metrics("analysis.cache.", &mut metrics);
    vc2m::analysis::export_kernel_metrics(&results.kernel_stats(), &mut metrics);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: impl FnOnce(&mut dyn Write) -> Result<(), CliError>) -> String {
        let mut buf = Vec::new();
        f(&mut buf).expect("command succeeds");
        String::from_utf8(buf).expect("utf8")
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn platforms_lists_three() {
        let out = run(platforms);
        assert!(out.contains("Xeon E5-2618L"));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn benchmarks_lists_thirteen() {
        let out = run(|w| benchmarks(&argv(&[]), w));
        assert!(out.contains("canneal"));
        assert!(out.contains("swaptions"));
        // Header + 13 benchmarks + blank + footnote.
        assert!(out.lines().count() >= 15);
    }

    #[test]
    fn analyze_light_workload_schedulable_everywhere() {
        let out = run(|w| analyze(&argv(&["--utilization", "0.3", "--seed", "1"]), w));
        assert!(out.contains("workload:"));
        assert_eq!(out.matches("schedulable").count(), 5, "{out}");
        assert!(!out.contains("NOT schedulable"), "{out}");
    }

    #[test]
    fn analyze_single_solution() {
        let out = run(|w| {
            analyze(
                &argv(&["--utilization", "0.3", "--solution", "baseline"]),
                w,
            )
        });
        assert!(out.contains("Baseline (existing CSA)"));
        assert!(!out.contains("flattening"));
    }

    #[test]
    fn simulate_reports_deadlines() {
        let out = run(|w| {
            simulate(
                &argv(&[
                    "--utilization",
                    "0.4",
                    "--solution",
                    "flattening",
                    "--horizon-ms",
                    "1200",
                ]),
                w,
            )
        });
        assert!(out.contains("all deadlines met"), "{out}");
    }

    #[test]
    fn sweep_quick_single_solution() {
        let out = run(|w| sweep(&argv(&["--solution", "flattening", "--threads", "2"]), w));
        assert!(out.contains("flatten"));
        assert!(out.contains("breakdown"));
    }

    #[test]
    fn isolation_lists_reductions() {
        let out = run(|w| isolation(&argv(&["--runs", "5"]), w));
        assert!(out.contains("canneal"));
        assert!(out.contains("reduction"));
        assert!(out.matches('x').count() >= 13);
    }

    #[test]
    fn admit_generated_trace_summarizes() {
        let out = run(|w| admit(&argv(&["--requests", "40", "--seed", "7"]), w));
        assert!(out.contains("admission on"), "{out}");
        assert!(out.contains("40 requests"), "{out}");
        assert!(out.contains("admitted"), "{out}");
        assert!(out.contains("final state:"), "{out}");
    }

    #[test]
    fn admit_reference_mode_matches_fast_summary() {
        let fast = run(|w| admit(&argv(&["--requests", "30", "--seed", "11"]), w));
        let slow = run(|w| {
            admit(
                &argv(&["--requests", "30", "--seed", "11", "--reference"]),
                w,
            )
        });
        // Same decisions, so the admitted/rejected/departed line agrees.
        let pick = |s: &str| s.lines().nth(1).unwrap().to_string();
        assert_eq!(pick(&fast), pick(&slow));
        assert!(slow.contains("(reference mode)"));
    }

    #[test]
    fn bad_options_are_reported() {
        let mut buf = Vec::new();
        assert!(analyze(&argv(&["--utilization", "-1"]), &mut buf).is_err());
        assert!(analyze(&argv(&["--vms", "0"]), &mut buf).is_err());
        assert!(simulate(&argv(&["--horizon-ms", "0"]), &mut buf).is_err());
        assert!(sweep(&argv(&["--threads", "0"]), &mut buf).is_err());
        assert!(isolation(&argv(&["--runs", "0"]), &mut buf).is_err());
        assert!(admit(&argv(&["--requests", "0"]), &mut buf).is_err());
        assert!(admit(&argv(&["--solution", "all"]), &mut buf).is_err());
        assert!(admit(&argv(&["--trace-in", "/nonexistent.trace"]), &mut buf).is_err());
        // Fault-tolerance flag misuse fails loudly instead of being
        // silently ignored.
        assert!(admit(&argv(&["--fleet-fault-seed", "1"]), &mut buf).is_err());
        assert!(admit(&argv(&["--hosts", "2", "--fleet-fault-count", "3"]), &mut buf).is_err());
        assert!(admit(&argv(&["--hosts", "2", "--journal", "/tmp/j"]), &mut buf).is_err());
        assert!(admit(&argv(&["--hi-fraction", "1.5"]), &mut buf).is_err());
        assert!(admit(&argv(&["--hi-fraction", "0.5", "--trace-in", "x.trace"]), &mut buf).is_err());
        assert!(admit(&argv(&["--recover", "/nonexistent.journal"]), &mut buf).is_err());
    }

    #[test]
    fn admit_journal_round_trips_through_recover() {
        let path = std::env::temp_dir().join(format!("vc2m-cli-{}.journal", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let journaled = run(|w| {
            admit(
                &argv(&["--requests", "40", "--seed", "11", "--journal", &path_s]),
                w,
            )
        });
        let recovered = run(|w| admit(&argv(&["--recover", &path_s, "--seed", "11"]), w));
        let _ = std::fs::remove_file(&path);
        assert!(journaled.contains("journal records"), "{journaled}");
        assert!(
            recovered.contains("40 decisions reconstructed"),
            "{recovered}"
        );
        assert!(recovered.contains("conformant"), "{recovered}");
        // The recovered engine landed in the journaling engine's final
        // state (its summary line is a prefix of the richer one).
        let state = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("final state:"))
                .unwrap()
                .to_string()
        };
        assert!(state(&journaled).starts_with(&state(&recovered)));
    }

    #[test]
    fn admit_fleet_faults_summarize_and_are_thread_invariant() {
        let base = [
            "--hosts",
            "4",
            "--requests",
            "60",
            "--seed",
            "5",
            "--hi-fraction",
            "0.3",
            "--fleet-fault-seed",
            "9",
            "--fleet-fault-count",
            "3",
        ];
        let serial = run(|w| admit(&argv(&base), w));
        assert!(serial.contains("faults: 3 injected"), "{serial}");
        assert!(serial.contains("evacuations:"), "{serial}");
        let mut threaded = base.to_vec();
        threaded.extend(["--threads", "4"]);
        let parallel = run(|w| admit(&argv(&threaded), w));
        assert_eq!(serial, parallel, "armed fleet summary depends on threads");
    }
}
