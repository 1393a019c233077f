//! Differential conformance suite for the streaming admission engine.
//!
//! The engine's contract is that its incremental fast path (warm-start
//! placement + dirty-set verification) is *observationally identical*
//! to the slow reference oracle (`AdmissionConfig::reference_mode`),
//! which disables the analysis cache and re-verifies the full system
//! after every request. Two families of tests prove it:
//!
//! - **Prefix replay**: drive the fast engine one request at a time
//!   and, at every trace position, replay the whole prefix into a
//!   fresh reference engine. Decision logs must be bit-identical and
//!   the resulting allocations equal. This is the O(n²) differential
//!   check, so the deterministic stream is kept modest.
//! - **Seeded properties** (via `vc2m_rng::cases::check`): the
//!   allocation verifies after every request, departures never reject
//!   admitted VMs, replay is byte-deterministic, and batch admission
//!   is order-independent under permutation.
//!
//! The request streams are built in-test (this crate cannot see the
//! trace model in `vc2m`), mirroring the core trace materializer:
//! per-VM seeded tasksets with globally unique task ids.

use vc2m_alloc::{
    allocate_with_degradation, AdmissionConfig, AdmissionEngine, AdmissionPath, AdmissionRequest,
    AdmissionVerdict, DegradationPolicy, Solution,
};
use vc2m_model::{Platform, Task, TaskId, TaskSet, VmId, VmSpec};
use vc2m_rng::{cases::check, DetRng, Rng};
use vc2m_workload::{TasksetConfig, TasksetGenerator, UtilizationDist};

/// Task-id range reserved per VM, mirroring the core trace
/// materializer so ids stay globally unique across mode changes.
const TASK_ID_STRIDE: usize = 100_000;

/// Build one VM with a seeded taskset at (approximately) the given
/// utilization, with task ids disjoint from every other VM's.
fn make_vm(platform: &Platform, id: usize, utilization: f64, seed: u64) -> VmSpec {
    let config = TasksetConfig::new(utilization, UtilizationDist::Uniform);
    let mut generator = TasksetGenerator::new(platform.resources(), config, seed);
    let tasks: TaskSet = generator
        .generate()
        .iter()
        .enumerate()
        .map(|(i, task)| {
            Task::new(
                TaskId(id * TASK_ID_STRIDE + i),
                task.period(),
                task.wcet_surface().clone(),
            )
            .expect("re-identified task keeps its validity")
        })
        .collect();
    VmSpec::new(VmId(id), tasks).expect("generated taskset is non-empty")
}

/// One engine-visible step: a single request or an atomic batch.
enum Step {
    One(AdmissionRequest),
    Batch(Vec<AdmissionRequest>),
}

fn apply(engine: &mut AdmissionEngine, step: &Step) {
    match step {
        Step::One(request) => {
            engine.submit(request.clone());
        }
        Step::Batch(requests) => {
            engine.submit_batch(requests.clone());
        }
    }
}

fn fresh_arrival(
    platform: &Platform,
    rng: &mut DetRng,
    next_vm: &mut usize,
) -> (usize, AdmissionRequest) {
    let id = *next_vm;
    *next_vm += 1;
    let utilization = rng.gen_range(0.06f64..0.28);
    let seed = rng.gen_range(0u64..1_000_000);
    (id, AdmissionRequest::Arrival(make_vm(platform, id, utilization, seed)))
}

/// Generate a mixed request stream: arrivals (single and batched),
/// departures, and mode changes over the locally tracked live set.
/// Departures may target VMs the engine rejected — those produce
/// deterministic "not admitted" rejections, which is part of the
/// surface under test.
fn random_steps(platform: &Platform, rng: &mut DetRng, n: usize) -> Vec<Step> {
    let mut steps = Vec::with_capacity(n);
    let mut live: Vec<usize> = Vec::new();
    let mut next_vm = 1usize;
    for _ in 0..n {
        let roll = rng.gen_range(0.0f64..1.0);
        if !live.is_empty() && roll < 0.25 {
            let index = rng.gen_range(0usize..live.len());
            let id = live.remove(index);
            steps.push(Step::One(AdmissionRequest::Departure(VmId(id))));
        } else if !live.is_empty() && roll < 0.40 {
            let index = rng.gen_range(0usize..live.len());
            let id = live[index];
            let utilization = rng.gen_range(0.06f64..0.28);
            let seed = rng.gen_range(0u64..1_000_000);
            steps.push(Step::One(AdmissionRequest::ModeChange(make_vm(
                platform,
                id,
                utilization,
                seed,
            ))));
        } else if roll < 0.52 {
            let size = rng.gen_range(2usize..4);
            let batch = (0..size)
                .map(|_| {
                    let (id, request) = fresh_arrival(platform, rng, &mut next_vm);
                    live.push(id);
                    request
                })
                .collect();
            steps.push(Step::Batch(batch));
        } else {
            let (id, request) = fresh_arrival(platform, rng, &mut next_vm);
            live.push(id);
            steps.push(Step::One(request));
        }
    }
    steps
}

/// The O(n²) differential check: at every position of a deterministic
/// mixed stream, a from-scratch reference-mode replay of the prefix
/// must produce a bit-identical decision log and an equal allocation.
#[test]
fn fast_engine_matches_reference_replay_at_every_prefix() {
    let platform = Platform::platform_a();
    let mut rng = DetRng::seed_from_u64(7);
    let steps = random_steps(&platform, &mut rng, 28);
    let mut fast = AdmissionEngine::new(platform, AdmissionConfig::new(42));
    for position in 0..steps.len() {
        apply(&mut fast, &steps[position]);
        let mut reference = AdmissionEngine::new(
            platform,
            AdmissionConfig::new(42).reference_mode(),
        );
        for step in &steps[..=position] {
            apply(&mut reference, step);
        }
        assert_eq!(
            fast.log_text(),
            reference.log_text(),
            "decision logs diverged at trace position {position}"
        );
        assert_eq!(
            fast.allocation(),
            reference.allocation(),
            "allocations diverged at trace position {position}"
        );
        if !fast.working_set().is_empty() {
            fast.allocation().verify(fast.platform()).unwrap();
        }
    }
    // The stream must actually exercise the interesting paths, or the
    // differential check proves less than it claims.
    let log = fast.log_text();
    assert!(log.contains("mode vm="), "stream never exercised a mode change");
    assert!(log.contains("-> departed"), "stream never exercised a departure");
    assert!(
        log.contains("admitted/incremental"),
        "stream never exercised the incremental path"
    );
    assert!(
        log.contains("admitted/repack") || log.contains("rejected (workload"),
        "stream never pressured the solver fallback"
    );
}

/// When the engine falls back to a repack, the state it installs must
/// be exactly what a direct `allocate_with_degradation` call over the
/// prior working set plus the newcomer produces (no-shed policy).
#[test]
fn repack_admission_equals_direct_degradation_solve() {
    let platform = Platform::platform_a();
    let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(42));
    let mut saw_repack = false;
    for id in 1..=12usize {
        let vm = make_vm(&platform, id, 0.23, 1000 + id as u64);
        let before: Vec<VmSpec> = engine.working_set().to_vec();
        let decision = engine.submit(AdmissionRequest::Arrival(vm.clone())).clone();
        if decision.verdict
            == (AdmissionVerdict::Admitted {
                path: AdmissionPath::Repack,
            })
        {
            saw_repack = true;
            let mut candidate = before;
            candidate.push(vm);
            let outcome = allocate_with_degradation(
                Solution::Auto,
                &candidate,
                &[],
                &platform,
                42,
                &DegradationPolicy { max_attempts: 1 },
            );
            let direct = outcome
                .allocation
                .expect("engine admitted via repack, so the direct solve must succeed");
            assert_eq!(
                engine.allocation(),
                direct,
                "repack-installed state differs from the direct degradation solve"
            );
        }
    }
    assert!(saw_repack, "the arrival sequence never forced a repack");
    engine.allocation().verify(engine.platform()).unwrap();
}

/// Safety invariant: after every request the admitted system is
/// schedulable — `verify()` never fails on a non-empty allocation.
#[test]
fn allocation_verifies_after_every_request() {
    check(16, |rng| {
        let platform = Platform::platform_a();
        let steps = random_steps(&platform, rng, 18);
        let seed = rng.gen_range(0u64..10_000);
        let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(seed));
        for step in &steps {
            apply(&mut engine, step);
            if !engine.working_set().is_empty() {
                engine.allocation().verify(engine.platform()).unwrap();
            }
        }
    });
}

/// A departure can only shrink per-core demand, so it must always
/// succeed and must never disturb the remaining admitted VMs.
#[test]
fn departures_never_reject_admitted_vms() {
    check(16, |rng| {
        let platform = Platform::platform_a();
        let steps = random_steps(&platform, rng, 12);
        let seed = rng.gen_range(0u64..10_000);
        let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(seed));
        for step in &steps {
            apply(&mut engine, step);
        }
        // Drain the admitted set in random order; every departure must
        // land and leave the survivors untouched and schedulable.
        while !engine.working_set().is_empty() {
            let ids: Vec<VmId> = engine.working_set().iter().map(|vm| vm.id()).collect();
            let victim = ids[rng.gen_range(0usize..ids.len())];
            let decision = engine.submit(AdmissionRequest::Departure(victim)).clone();
            assert_eq!(decision.verdict, AdmissionVerdict::Departed);
            let survivors: Vec<VmId> = engine.working_set().iter().map(|vm| vm.id()).collect();
            let expected: Vec<VmId> = ids.into_iter().filter(|&id| id != victim).collect();
            assert_eq!(survivors, expected, "departure disturbed the admitted set");
            if !engine.working_set().is_empty() {
                engine.allocation().verify(engine.platform()).unwrap();
            }
        }
    });
}

/// Replaying the same stream against the same seed must reproduce the
/// decision log byte-for-byte and the final allocation exactly.
#[test]
fn replay_is_byte_deterministic() {
    check(8, |rng| {
        let platform = Platform::platform_a();
        let steps = random_steps(&platform, rng, 14);
        let seed = rng.gen_range(0u64..10_000);
        let run = || {
            let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(seed));
            for step in &steps {
                apply(&mut engine, step);
            }
            (engine.log_text(), engine.allocation())
        };
        let (first_log, first_allocation) = run();
        let (second_log, second_allocation) = run();
        assert_eq!(first_log, second_log);
        assert_eq!(first_allocation, second_allocation);
    });
}

/// Batch admission canonicalizes its arrivals, so any permutation of
/// the same batch must yield identical decisions and end state.
#[test]
fn batch_admission_is_order_independent() {
    check(16, |rng| {
        let platform = Platform::platform_a();
        let seed = rng.gen_range(0u64..10_000);
        let size = rng.gen_range(2usize..6);
        let mut next_vm = 1usize;
        let arrivals: Vec<AdmissionRequest> = (0..size)
            .map(|_| fresh_arrival(&platform, rng, &mut next_vm).1)
            .collect();
        let mut shuffled = arrivals.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0usize..i + 1);
            shuffled.swap(i, j);
        }
        let mut forward = AdmissionEngine::new(platform, AdmissionConfig::new(seed));
        forward.submit_batch(arrivals);
        let mut permuted = AdmissionEngine::new(platform, AdmissionConfig::new(seed));
        permuted.submit_batch(shuffled);
        assert_eq!(forward.decisions(), permuted.decisions());
        assert_eq!(forward.allocation(), permuted.allocation());
        if !forward.working_set().is_empty() {
            forward.allocation().verify(forward.platform()).unwrap();
        }
    });
}

/// Step-locked differential property: the fast and reference engines
/// agree on every random stream, not just the pinned one.
#[test]
fn fast_and_reference_agree_on_random_streams() {
    check(8, |rng| {
        let platform = Platform::platform_a();
        let steps = random_steps(&platform, rng, 10);
        let seed = rng.gen_range(0u64..10_000);
        let mut fast = AdmissionEngine::new(platform, AdmissionConfig::new(seed));
        let mut reference = AdmissionEngine::new(
            platform,
            AdmissionConfig::new(seed).reference_mode(),
        );
        for (position, step) in steps.iter().enumerate() {
            apply(&mut fast, step);
            apply(&mut reference, step);
            assert_eq!(
                fast.log_text(),
                reference.log_text(),
                "fast and reference logs diverged at position {position}"
            );
        }
        assert_eq!(fast.allocation(), reference.allocation());
    });
}
