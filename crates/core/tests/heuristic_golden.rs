//! Goldens for the exact output of the §4.3 hypervisor-level heuristic.
//!
//! The conformance suites compare two runs of the same heuristic, so
//! they cannot see a change to the heuristic itself. These pins can:
//!
//! * the FNV-1a hash of the decision log of the default 1 000-request
//!   churn trace (seed 42), whose thousands of failing repacks run the
//!   heuristic through every core count, permutation and balance round;
//! * the FNV-1a hash of the allocations the heuristic solutions return
//!   over a grid of seeded workloads: every core's VCPUs and its cache
//!   and bandwidth partitions.
//!
//! Any change to the clustering, the packing, the resource-allocation
//! greedy walk, the load balancing or their RNG draws shows up here.

use vc2m::admission::{generate, replay, TraceSpec};
use vc2m::prelude::*;

/// FNV-1a 64-bit over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

const CHURN_LOG_HASH: u64 = 8991506059252402636;
const ALLOCATIONS_HASH: u64 = 9704477241773725107;

fn churn_engine() -> AdmissionEngine {
    let mut engine = AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
    replay(&mut engine, &generate(&TraceSpec::new(1000, 42)));
    engine
}

#[test]
fn churn_trace_decision_log_matches_golden() {
    let engine = churn_engine();
    let mut hash = Fnv::new();
    hash.bytes(engine.log_text().as_bytes());
    let stats = engine.stats();
    assert_eq!(
        (stats.requests, stats.admitted_repack, stats.repack_attempts, stats.rejected),
        (1000, 20, 221, 437),
        "churn trace counters"
    );
    assert_eq!(hash.0, CHURN_LOG_HASH, "churn trace decision log");
}

#[test]
fn churn_trace_counters_balance() {
    let engine = churn_engine();
    let s = engine.stats();
    assert_eq!(
        s.requests,
        s.admitted_incremental + s.admitted_repack + s.rejected + s.degraded + s.departed,
        "{s:?}"
    );
    assert_eq!(s.requests as usize, engine.decisions().len());
}

#[test]
fn heuristic_allocations_match_golden() {
    let platform = Platform::platform_a();
    let mut hash = Fnv::new();
    for solution in [Solution::HeuristicFlattening, Solution::HeuristicOverheadFree] {
        for utilization in [0.6, 1.0, 1.4, 1.8] {
            for seed in 0..4u64 {
                let mut generator = TasksetGenerator::new(
                    platform.resources(),
                    TasksetConfig::new(utilization, UtilizationDist::Uniform),
                    seed,
                );
                let vms = vec![VmSpec::new(VmId(0), generator.generate()).expect("non-empty")];
                match solution.allocate(&vms, &platform, seed).allocation() {
                    None => hash.word(u64::MAX),
                    Some(a) => {
                        hash.word(a.cores().len() as u64);
                        for core in a.cores() {
                            hash.word(u64::from(core.alloc.cache));
                            hash.word(u64::from(core.alloc.bandwidth));
                            hash.word(core.vcpus.len() as u64);
                            for &i in &core.vcpus {
                                hash.word(i as u64);
                                hash.word(a.vcpus()[i].id().0 as u64);
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(hash.0, ALLOCATIONS_HASH, "heuristic allocations");
}
