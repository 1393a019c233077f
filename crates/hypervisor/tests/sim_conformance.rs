//! Differential conformance suite for the sharded simulation engine:
//! `run_sharded` / `run_observed_sharded` / `run_observed_sharded_with` must
//! produce **bit-identical** reports, trace streams (records, order,
//! and ring-eviction drop counts) and metrics exports to the serial
//! engine — at every thread count, under every core partition, with
//! and without fault injection.

use vc2m_alloc::{CoreAssignment, SystemAllocation};
use vc2m_hypervisor::{
    CorePartition, FaultPlan, FaultPlanSpec, FaultTargets, HypervisorSim, SimConfig, SimReport,
};
use vc2m_model::{
    Alloc, BudgetSurface, Platform, SimDuration, Task, TaskId, TaskSet, VcpuId, VcpuSpec, VmId,
    WcetSurface,
};
use vc2m_rng::{cases::check, DetRng, Rng};

fn space() -> vc2m_model::ResourceSpace {
    Platform::platform_a().resources()
}

fn flat_task(id: usize, period: f64, wcet: f64) -> Task {
    Task::new(
        TaskId(id),
        period,
        WcetSurface::flat(&space(), wcet).unwrap(),
    )
    .unwrap()
}

fn vcpu(id: usize, vm: usize, period: f64, budget: f64, tasks: Vec<TaskId>) -> VcpuSpec {
    VcpuSpec::new(
        VcpuId(id),
        VmId(vm),
        period,
        BudgetSurface::flat(&space(), budget).unwrap(),
        tasks,
    )
    .unwrap()
}

/// A four-core system exercising every accounting path at once:
/// multi-task servers, an undersized (missing) server, heavy traffic
/// (throttling) on two cores with different bandwidth grants, and a
/// clean lightly-loaded core.
fn four_core_system() -> (SystemAllocation, TaskSet) {
    let tasks: TaskSet = vec![
        // Core 0: two servers sharing the core.
        flat_task(0, 10.0, 4.0),
        flat_task(1, 20.0, 8.0),
        // Core 1: a server that misses (WCET > budget).
        flat_task(2, 10.0, 5.0),
        // Core 2: traffic-heavy, tight bandwidth — throttles.
        flat_task(3, 10.0, 5.0),
        // Core 3: light and clean.
        flat_task(4, 40.0, 6.0),
        flat_task(5, 20.0, 3.0),
    ]
    .into_iter()
    .collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 0, 10.0, 4.0, vec![TaskId(0)]),
            vcpu(1, 0, 20.0, 9.0, vec![TaskId(1)]),
            vcpu(2, 1, 10.0, 4.0, vec![TaskId(2)]),
            vcpu(3, 2, 10.0, 5.0, vec![TaskId(3)]),
            vcpu(4, 3, 20.0, 5.0, vec![TaskId(4), TaskId(5)]),
        ],
        vec![
            CoreAssignment {
                vcpus: vec![0, 1],
                alloc: Alloc::new(5, 5),
            },
            CoreAssignment {
                vcpus: vec![2],
                alloc: Alloc::new(5, 5),
            },
            CoreAssignment {
                vcpus: vec![3],
                alloc: Alloc::new(5, 2),
            },
            CoreAssignment {
                vcpus: vec![4],
                alloc: Alloc::new(5, 5),
            },
        ],
    );
    (allocation, tasks)
}

fn config(trace_capacity: usize) -> SimConfig {
    SimConfig::default()
        .with_horizon(SimDuration::from_ms(300.5))
        .with_traffic_fraction(1.5)
        .with_supply_recording(true)
        .with_trace_capacity(trace_capacity)
}

/// A fresh simulation of the four-core system, with two mid-run
/// reallocations (one tightening bandwidth on the traffic-heavy core,
/// one relaxing it) and optionally a generated fault plan.
fn build(trace_capacity: usize, fault_seed: Option<u64>) -> HypervisorSim {
    let (allocation, tasks) = four_core_system();
    let mut sim = HypervisorSim::new(
        &Platform::platform_a(),
        &allocation,
        &tasks,
        config(trace_capacity),
    )
    .unwrap()
    .with_reallocation(60.0, 2, Alloc::new(5, 4))
    .unwrap()
    .with_reallocation(150.0, 0, Alloc::new(5, 3))
    .unwrap();
    if let Some(seed) = fault_seed {
        let targets = FaultTargets {
            tasks: (0..6).map(TaskId).collect(),
            vcpus: (0..5).map(VcpuId).collect(),
            vms: (0..4).map(VmId).collect(),
            cores: 4,
        };
        let spec = FaultPlanSpec::new(10, SimDuration::from_ms(300.5));
        let plan = FaultPlan::generate(seed, &targets, &spec);
        sim = sim.with_fault_plan(plan).unwrap();
    }
    sim
}

fn assert_structural_eq(serial: &SimReport, sharded: &SimReport, what: &str) {
    assert!(
        serial.structural_eq(sharded),
        "{what}: sharded report differs from serial\n\
         serial: misses={} released={} completed={} throttles={} switches={}\n\
         sharded: misses={} released={} completed={} throttles={} switches={}",
        serial.deadline_misses.len(),
        serial.jobs_released,
        serial.jobs_completed,
        serial.throttle_events,
        serial.context_switches,
        sharded.deadline_misses.len(),
        sharded.jobs_released,
        sharded.jobs_completed,
        sharded.throttle_events,
        sharded.context_switches,
    );
}

#[test]
fn sharded_run_is_bit_identical_at_every_thread_count() {
    for fault_seed in [None, Some(0xC0FFEE)] {
        let serial = build(0, fault_seed).run().unwrap();
        assert!(serial.jobs_released > 0);
        for threads in [1, 2, 8] {
            let sharded = build(0, fault_seed).run_sharded(threads).unwrap();
            assert_structural_eq(
                &serial,
                &sharded,
                &format!("run (threads={threads}, faults={})", fault_seed.is_some()),
            );
        }
    }
}

#[test]
fn sharded_trace_matches_serial_records_order_and_eviction() {
    // A deliberately small ring: most records are evicted, so this
    // pins the merge's eviction semantics, not just record equality.
    // A large ring pins the complete emission stream.
    for capacity in [256, 1 << 16] {
        for fault_seed in [None, Some(0xC0FFEE)] {
            let (serial_report, serial_trace) = build(capacity, fault_seed)
                .run_observed()
                .map(|(report, obs)| (report, obs.trace))
                .unwrap();
            for threads in [1, 2, 8] {
                let (report, trace) = build(capacity, fault_seed)
                    .run_observed_sharded(threads)
                    .map(|(report, obs)| (report, obs.trace))
                    .unwrap();
                assert_structural_eq(&serial_report, &report, "run_traced");
                assert_eq!(
                    trace.len(),
                    serial_trace.len(),
                    "recorded counts differ (capacity={capacity}, threads={threads})"
                );
                for (i, (s, p)) in serial_trace.iter().zip(&trace).enumerate() {
                    assert_eq!(
                        s, p,
                        "trace record {i} differs (capacity={capacity}, \
                         threads={threads}, faults={})",
                        fault_seed.is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_observation_matches_serial_drops_and_metrics() {
    for fault_seed in [None, Some(0xC0FFEE)] {
        let (serial_report, serial_obs) = build(512, fault_seed).run_observed().unwrap();
        assert!(serial_obs.trace_dropped > 0, "ring must overflow");
        for threads in [1, 2, 8] {
            let (report, obs) = build(512, fault_seed).run_observed_sharded(threads).unwrap();
            assert_structural_eq(&serial_report, &report, "run_observed");
            assert_eq!(obs.trace, serial_obs.trace, "trace streams differ");
            assert_eq!(
                obs.trace_dropped, serial_obs.trace_dropped,
                "drop counts differ"
            );
            assert_eq!(
                obs.metrics, serial_obs.metrics,
                "metrics exports differ (threads={threads})"
            );
        }
    }
}

#[test]
fn zero_capacity_ring_still_counts_drops_identically() {
    let (_, serial_obs) = build(0, None).run_observed().unwrap();
    assert!(serial_obs.trace.is_empty());
    let (_, obs) = build(0, None).run_observed_sharded(4).unwrap();
    assert!(obs.trace.is_empty());
    assert_eq!(obs.trace_dropped, serial_obs.trace_dropped);
    assert_eq!(obs.metrics, serial_obs.metrics);
}

/// Draws a uniformly random partition of `cores` into non-empty
/// groups (random group count, random assignment, repaired so no
/// group is empty).
fn arb_partition(rng: &mut DetRng, cores: usize) -> CorePartition {
    let group_count = rng.gen_range(1usize..=cores);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); group_count];
    for core in 0..cores {
        let g = rng.gen_range(0usize..group_count);
        groups[g].push(core);
    }
    groups.retain(|g| !g.is_empty());
    CorePartition::from_groups(groups)
}

#[test]
fn any_core_partition_yields_the_serial_result() {
    let serial = build(0, Some(0xFEED)).run().unwrap();
    let (_, serial_obs) = build(512, Some(0xFEED)).run_observed().unwrap();
    check(12, |rng| {
        let partition = arb_partition(rng, 4);
        let threads = rng.gen_range(1usize..=8);
        let sharded = build(0, Some(0xFEED))
            .run_observed_sharded_with(&partition, threads)
            .unwrap()
            .0;
        assert_structural_eq(
            &serial,
            &sharded,
            &format!("partition {:?} threads {threads}", partition.groups()),
        );
        let (_, obs) = build(512, Some(0xFEED))
            .run_observed_sharded_with(&partition, threads)
            .unwrap();
        assert_eq!(obs.trace, serial_obs.trace);
        assert_eq!(obs.trace_dropped, serial_obs.trace_dropped);
        assert_eq!(obs.metrics, serial_obs.metrics);
    });
}

#[test]
fn invalid_partitions_are_rejected() {
    use vc2m_hypervisor::SimError;
    let cases = [
        CorePartition::from_groups(vec![vec![0, 1], vec![1, 2], vec![3]]),
        CorePartition::from_groups(vec![vec![0], vec![1], vec![2]]),
        CorePartition::from_groups(vec![vec![0, 1, 2, 3, 4]]),
        CorePartition::from_groups(vec![vec![0, 1, 2, 3], vec![]]),
    ];
    for partition in cases {
        let err = build(0, None)
            .run_observed_sharded_with(&partition, 2)
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidPartition { .. }),
            "expected InvalidPartition, got {err}"
        );
    }
}

#[test]
fn sharded_run_reports_the_serial_error() {
    // An overcommitted reallocation is only detectable at fire time;
    // every shard validates every reallocation, so the sharded run
    // must surface exactly the serial error.
    let (allocation, tasks) = four_core_system();
    let build_bad = || {
        HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config(0))
            .unwrap()
            .with_reallocation(50.0, 1, Alloc::new(20, 20))
            .unwrap()
    };
    let serial_err = build_bad().run().unwrap_err();
    for threads in [1, 2, 8] {
        let sharded_err = build_bad().run_sharded(threads).unwrap_err();
        assert_eq!(sharded_err, serial_err, "threads={threads}");
    }
}
