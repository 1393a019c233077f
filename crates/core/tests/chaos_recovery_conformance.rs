//! Chaos and recovery conformance: fault-armed fleets and journaled
//! engines against their ground truths.
//!
//! 1. Fault-armed parallel replay IS fault-armed serial replay at
//!    every thread count — faults, evacuations, and retries are all
//!    decided from router bookkeeping during the routing pass, so the
//!    merged log (including `evac` lines), the counters, the alive
//!    set, and the exhaustion records cannot depend on scheduling.
//! 2. A fault plan is a pure function of `(seed, hosts, spec)` — the
//!    same inputs replay the same chaos, byte for byte.
//! 3. Survivors are isolated: until the first fault fires, an armed
//!    replay is byte-identical to the fault-free one, and a crashed
//!    host serves nothing afterwards.
//! 4. The evacuation books balance: the end-of-replay flush drains the
//!    queue, so every evacuated VM was placed, exhausted or cancelled.
//! 5. A journaled engine recovers bit-identically at EVERY journal
//!    prefix: recover the prefix, re-drive the tail, and the decision
//!    log, allocation, and counters equal the never-crashed engine's.

use vc2m::admission::{
    fleet_items, generate, materialize, recover, replay_journaled, TraceRequest, TraceSpec,
};
use vc2m::prelude::*;

const SEED: u64 = 42;

fn chaos_scenario(trace_seed: u64) -> (Vec<FleetWorkItem>, FleetScenario, Platform, FleetConfig) {
    let platform = Platform::platform_a();
    let trace = generate(
        &TraceSpec::rejection_heavy(120, trace_seed, 4)
            .with_hi_fraction(0.3),
    );
    let items = fleet_items(&trace, platform.resources());
    let plan = FleetFaultPlan::generate(
        trace_seed ^ 0x5eed,
        4,
        &FleetFaultSpec::new(4, items.len() as u64 + 8),
    );
    let scenario = FleetScenario::new(plan, trace.hi_vms().to_vec());
    (items, scenario, platform, FleetConfig::new(4, SEED))
}

/// Every evacuated VM ends placed, exhausted or cancelled — none is
/// left pending after a replay.
fn assert_evacuations_balance(fleet: &AdmissionFleet) {
    let stats = fleet.router().stats();
    assert_eq!(
        stats.evacuated_vms,
        stats.evac_placed + stats.evac_exhausted + stats.evac_cancelled,
        "evacuation books do not balance: {stats:?}"
    );
}

/// Fault-armed parallel == fault-armed serial at 1, 2, and 8 threads,
/// across three generated chaos scenarios: merged log bytes (with
/// `evac` markers), per-host allocations, aggregate and fleet
/// counters, router loads, the alive set, and exhaustion records.
#[test]
fn fault_armed_parallel_replay_is_thread_count_invariant() {
    let mut total_faults = 0;
    let mut total_evacuated = 0;
    for trace_seed in [3, 9, 17] {
        let (items, scenario, platform, config) = chaos_scenario(trace_seed);
        let mut serial = AdmissionFleet::new(platform, config);
        serial.arm(scenario.clone()).unwrap();
        serial.replay(&items);
        assert_evacuations_balance(&serial);
        total_faults += serial.router().stats().faults_injected;
        total_evacuated += serial.router().stats().evacuated_vms;
        for threads in [1, 2, 8] {
            let parallel = AdmissionFleet::replay_parallel_armed(
                platform,
                config,
                scenario.clone(),
                &items,
                threads,
            )
            .unwrap();
            assert_evacuations_balance(&parallel);
            assert_eq!(
                parallel.log_text(),
                serial.log_text(),
                "merged chaos log diverged at {threads} threads (trace seed {trace_seed})"
            );
            assert_eq!(parallel.aggregate_stats(), serial.aggregate_stats());
            assert_eq!(parallel.router().stats(), serial.router().stats());
            assert_eq!(parallel.router().loads(), serial.router().loads());
            assert_eq!(parallel.router().alive(), serial.router().alive());
            assert_eq!(parallel.evacuation_failures(), serial.evacuation_failures());
            for (host, (p, s)) in parallel.engines().iter().zip(serial.engines()).enumerate() {
                assert_eq!(p.allocation(), s.allocation(), "host {host} diverged");
            }
        }
    }
    assert!(total_faults > 0, "the chaos scenarios never injected a fault");
    assert!(
        total_evacuated > 0,
        "the chaos scenarios never evacuated a VM — the suite proves nothing"
    );
}

/// Same `(trace, fault seed)` ⇒ same chaos, byte for byte: the whole
/// faulted replay — log, counters, exhaustions — regenerates exactly.
#[test]
fn chaos_replay_is_reproducible_from_its_seeds() {
    let run = || {
        let (items, scenario, platform, config) = chaos_scenario(9);
        let mut f = AdmissionFleet::new(platform, config);
        f.arm(scenario).unwrap();
        f.replay(&items);
        assert_evacuations_balance(&f);
        f
    };
    let a = run();
    let b = run();
    assert_eq!(a.log_text(), b.log_text());
    assert_eq!(a.router().stats(), b.router().stats());
    assert_eq!(a.evacuation_failures(), b.evacuation_failures());
}

/// Survivor isolation: an armed replay is byte-identical to the
/// fault-free replay up to the first fault's ticket, and a crashed
/// host serves no decision after its crash.
#[test]
fn survivors_are_isolated_from_a_crash() {
    let platform = Platform::platform_a();
    let config = FleetConfig::new(3, SEED);
    let trace = generate(&TraceSpec::new(80, 7).with_hosts(3));
    let items = fleet_items(&trace, platform.resources());
    let crash_item = 30u64;
    let crash_host = 1usize;
    let scenario = FleetScenario::new(
        FleetFaultPlan::new().inject(crash_item, FleetFault::HostCrash { host: crash_host }),
        Vec::new(),
    );
    let mut faultless = AdmissionFleet::new(platform, config);
    faultless.replay(&items);
    let mut armed = AdmissionFleet::new(platform, config);
    armed.arm(scenario).unwrap();
    armed.replay(&items);
    assert_evacuations_balance(&armed);
    // Tickets consumed by the first `crash_item` work items in the
    // fault-free run — the prefix both replays must share byte for
    // byte, because no fault has fired yet.
    let mut prefix = AdmissionFleet::new(platform, config);
    prefix.replay(&items[..crash_item as usize]);
    let shared = prefix.decisions().len();
    let faultless_text = faultless.log_text();
    let faultless_lines: Vec<&str> = faultless_text.lines().take(shared).collect();
    let armed_text = armed.log_text();
    let armed_lines: Vec<&str> = armed_text.lines().collect();
    assert_eq!(&armed_lines[..shared], &faultless_lines[..]);
    // After the crash, the dead host serves nothing: every decision
    // past the shared prefix belongs to a survivor.
    for d in &armed.decisions()[shared..] {
        assert_ne!(d.host, crash_host, "dead host served ticket {}", d.decision.index);
    }
    assert!(
        armed.engines()[crash_host].working_set().is_empty(),
        "the crashed engine was rebuilt empty and never refilled"
    );
    assert_eq!(armed.router().loads()[crash_host], 0.0);
    assert!(!armed.router().alive()[crash_host]);
}

/// The write-ahead journal pin: for EVERY prefix length (every
/// possible crash point), recovering the prefix and re-driving the
/// tail lands in the exact state of the engine that never crashed —
/// decision log bytes, allocation, and counters.
#[test]
fn recovery_continues_byte_identically_at_every_journal_prefix() {
    let platform = Platform::platform_a();
    let config = AdmissionConfig::new(SEED);
    let space = platform.resources();
    let trace = generate(&TraceSpec::new(60, 29));
    let mut reference = AdmissionEngine::new(platform, config);
    let journal = replay_journaled(&mut reference, &trace);
    assert_eq!(journal.decisions(), trace.len());
    let parse = |line: &str| {
        materialize(
            &TraceRequest::parse_line(line).expect("journaled request line parses"),
            space,
        )
    };
    for crash_point in 0..=journal.len() {
        let mut engine = recover(platform, config, &journal.prefix(crash_point))
            .unwrap_or_else(|e| panic!("recovery failed at prefix {crash_point}: {e}"));
        // Re-drive the tail from the journal's own request lines.
        for record in &journal.records()[crash_point..] {
            match record {
                JournalRecord::Single { request, .. } => {
                    engine.submit(parse(request));
                }
                JournalRecord::Batch { requests, .. } => {
                    engine.submit_batch(requests.iter().map(|r| parse(r)).collect());
                }
            }
        }
        assert_eq!(
            engine.log_text(),
            reference.log_text(),
            "decision log diverged after recovery at prefix {crash_point}"
        );
        assert_eq!(engine.stats(), reference.stats());
        assert_eq!(engine.allocation(), reference.allocation());
    }
}
