//! Sharded-fleet admission benchmark: the [`AdmissionFleet`] across
//! host counts, plus the saturated-regime rejection memo on the
//! rejection-heavy trace preset the memo exists for.
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin fleet_admission_bench           # quick
//! cargo run --release -p vc2m-bench --bin fleet_admission_bench -- --full # full scale
//! VC2M_FLEET_REQUESTS=120 ... fleet_admission_bench                       # CI smoke
//! ```
//!
//! Conformance comes first and gates the timings:
//!
//! 1. a one-host fleet must be byte-identical to the plain engine
//!    (merged log and final allocation);
//! 2. parallel replay must match serial replay at 1, 2, and 8 threads
//!    on the multi-host churn trace;
//! 3. memo-on and memo-off must produce bit-identical decision logs on
//!    the rejection-heavy preset, and the memo must actually fire.
//!
//! Then two timed sections, both over pre-materialized work items
//! (trace decoding and taskset generation are the workload author's
//! cost, identical for any controller, so they stay outside the timed
//! regions):
//!
//! * per-host-count throughput — serial fleet replay of the same churn
//!   workload at 1, 2, and 4 hosts, reported as decisions/s;
//! * memo speedup — the rejection-heavy preset replayed memo-on vs
//!   memo-off. The preset's retries are routed back to the owning
//!   host, so a repeat rejection is a hash probe under the memo and a
//!   full solver pass without it; `memo_speedup` is the per-decision
//!   time ratio (same decision count both arms).
//!
//! Results land in `results/BENCH_fleet.json`.
//! `VC2M_FLEET_FLOOR=<f64>` turns `memo_speedup` into a hard gate
//! (checked after the artifact is written, so a failing run still
//! leaves its numbers behind).

use std::time::Instant;
use vc2m::admission::{fleet_items, generate, replay, AdmissionTrace, TraceSpec};
use vc2m::prelude::*;
use vc2m_bench::timing::{json_array, metrics_json, JsonBuilder};
use vc2m_bench::{full_scale_requested, write_results};

/// Engine/trace seed, matching `admission_bench` and the CLI default.
const SEED: u64 = 42;

/// Host counts for the throughput section; the largest doubles as the
/// parallel-conformance fleet size.
const HOST_COUNTS: [usize; 3] = [1, 2, 4];

/// Fleet size for the memo section (matches the conformance suite's
/// rejection-heavy scenario).
const MEMO_HOSTS: usize = 2;

fn requested_trace_size() -> usize {
    // No `.max(1)`: an explicit `VC2M_FLEET_REQUESTS=0` is a valid
    // degenerate run (rate fields become `null`), not an error.
    match std::env::var("VC2M_FLEET_REQUESTS") {
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("VC2M_FLEET_REQUESTS must be a usize, got {raw:?}")),
        Err(_) => {
            if full_scale_requested() {
                3000
            } else {
                1000
            }
        }
    }
}

/// `numerator / denominator`, or `None` when the denominator is not a
/// positive finite quantity — a zero-request run makes elapsed time
/// and decision counts zero, and `0/0` must surface as `null` in the
/// JSON, not as NaN/inf.
fn guarded_rate(numerator: f64, denominator: f64) -> Option<f64> {
    (denominator.is_finite() && denominator > 0.0).then(|| numerator / denominator)
}

/// Renders a guarded rate for the console (`n/a` instead of NaN).
fn show(rate: Option<f64>, precision: usize) -> String {
    match rate {
        Some(value) => format!("{value:.precision$}"),
        None => "n/a".to_string(),
    }
}

/// Best-of-`iters` wall time, in microseconds, of a fresh fleet
/// replaying `items` under `config`.
fn timed_replay(
    platform: Platform,
    config: FleetConfig,
    items: &[FleetWorkItem],
    iters: usize,
) -> (f64, AdmissionFleet) {
    let mut best: Option<(f64, AdmissionFleet)> = None;
    for _ in 0..iters.max(1) {
        let mut fleet = AdmissionFleet::new(platform, config);
        let t = Instant::now();
        fleet.replay(items);
        let total = t.elapsed().as_secs_f64() * 1e6;
        if best.as_ref().is_none_or(|(b, _)| total < *b) {
            best = Some((total, fleet));
        }
    }
    best.expect("at least one iteration")
}

/// Conformance gates: 1-host == engine, parallel == serial, memo-on ==
/// memo-off. Panics on any divergence.
fn conformance(platform: Platform, churn: &AdmissionTrace, heavy: &AdmissionTrace) {
    // 1-host fleet IS the plain engine, byte for byte.
    let one_host = churn.clone().with_hosts(1);
    let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(SEED));
    replay(&mut engine, &one_host);
    let mut one = AdmissionFleet::new(platform, FleetConfig::new(1, SEED));
    one.replay(&fleet_items(&one_host, platform.resources()));
    assert_eq!(
        one.log_text(),
        engine.log_text(),
        "one-host fleet diverged from the plain engine"
    );
    assert_eq!(one.engines()[0].allocation(), engine.allocation());

    // Parallel replay is thread-count invariant on the multi-host trace.
    let hosts = *HOST_COUNTS.last().expect("non-empty host counts");
    let config = FleetConfig::new(hosts, SEED);
    let items = fleet_items(&churn.clone().with_hosts(hosts), platform.resources());
    let mut serial = AdmissionFleet::new(platform, config);
    serial.replay(&items);
    for threads in [1, 2, 8] {
        let parallel = AdmissionFleet::replay_parallel(platform, config, &items, threads);
        assert_eq!(
            parallel.log_text(),
            serial.log_text(),
            "parallel replay diverged at {threads} threads"
        );
        assert_eq!(parallel.aggregate_stats(), serial.aggregate_stats());
    }

    // The memo is an invisible cache on the trace it exists for.
    let heavy_items = fleet_items(heavy, platform.resources());
    let run = |engine_config: AdmissionConfig| {
        let mut fleet = AdmissionFleet::new(
            platform,
            FleetConfig::new(MEMO_HOSTS, SEED).with_engine(engine_config),
        );
        fleet.replay(&heavy_items);
        fleet
    };
    let on = run(AdmissionConfig::new(SEED));
    let off = run(AdmissionConfig::new(SEED).without_memo());
    assert_eq!(
        on.log_text(),
        off.log_text(),
        "memo changed the decision log"
    );
    assert_eq!(off.aggregate_stats().memo_hits, 0);
    if !heavy.is_empty() {
        assert!(
            on.aggregate_stats().memo_hits > 0,
            "rejection-heavy preset never hit the memo"
        );
    }
}

/// Everything but env/CLI plumbing and the floor gate: conformance,
/// the timed sections, the printed summary, and the JSON document.
/// Returns the document and the memo speedup (`None` on a degenerate
/// trace).
fn run(requests: usize, iters: usize) -> (String, Option<f64>) {
    let platform = Platform::platform_a();
    let space = platform.resources();
    let churn = generate(&TraceSpec::new(requests, SEED));
    let heavy = generate(&TraceSpec::rejection_heavy(requests, SEED, MEMO_HOSTS));
    println!(
        "fleet admission bench on {platform}: {} churn + {} rejection-heavy requests (seed {SEED})\n",
        churn.len(),
        heavy.len()
    );

    conformance(platform, &churn, &heavy);
    println!(
        "conformant: one-host == engine, parallel == serial (1/2/8 threads), memo-on == memo-off"
    );

    // Per-host-count throughput over the identical churn workload.
    let mut throughput_rows = Vec::new();
    let mut last_fleet = None;
    println!("\n  hosts   total us   decisions/s");
    for hosts in HOST_COUNTS {
        let trace = churn.clone().with_hosts(hosts);
        let items = fleet_items(&trace, space);
        let (total_us, fleet) =
            timed_replay(platform, FleetConfig::new(hosts, SEED), &items, iters);
        // A decision-free replay still burns a few microseconds of
        // wall time; its rate is degenerate (`null`), not `0/s`.
        let rate = guarded_rate(fleet.decisions().len() as f64, total_us / 1e6)
            .filter(|_| !fleet.decisions().is_empty());
        println!(
            "  {hosts:>5}  {total_us:>9.0}   {}",
            show(rate, 0)
        );
        throughput_rows.push(
            JsonBuilder::new()
                .int("hosts", hosts as u64)
                .int("decisions", fleet.decisions().len() as u64)
                .num("total_us", total_us)
                .num("decisions_per_sec", rate.unwrap_or(f64::NAN))
                .build(),
        );
        last_fleet = Some(fleet);
    }

    // Memo-on vs memo-off on the rejection-heavy preset.
    let heavy_items = fleet_items(&heavy, space);
    let memo_config = FleetConfig::new(MEMO_HOSTS, SEED);
    let (on_us, on_fleet) = timed_replay(platform, memo_config, &heavy_items, iters);
    let (off_us, _) = timed_replay(
        platform,
        memo_config.with_engine(AdmissionConfig::new(SEED).without_memo()),
        &heavy_items,
        iters,
    );
    let decisions = on_fleet.decisions().len();
    let on_per_decision = guarded_rate(on_us, decisions as f64);
    let off_per_decision = guarded_rate(off_us, decisions as f64);
    // Same guard: with no decisions, both arms time pure replay
    // overhead and their ratio is noise, not a speedup.
    let memo_speedup = guarded_rate(off_us, on_us).filter(|_| decisions > 0);
    let memo_stats = on_fleet.aggregate_stats();
    println!(
        "\nrejection-heavy preset ({MEMO_HOSTS} hosts, {decisions} decisions): \
         {} us/decision memo-on vs {} us/decision memo-off",
        show(on_per_decision, 1),
        show(off_per_decision, 1)
    );
    println!(
        "memo: {} hits, {} inserts, {} invalidations -> {}x per-decision speedup",
        memo_stats.memo_hits,
        memo_stats.memo_inserts,
        memo_stats.memo_invalidations,
        show(memo_speedup, 2)
    );

    let mut metrics = vc2m::simcore::MetricsRegistry::new();
    if let Some(fleet) = &last_fleet {
        fleet.export_metrics(&mut metrics);
    }
    // `JsonBuilder::num` renders non-finite values as `null`, so the
    // guarded `None`s are passed through as NaN deliberately.
    let json = JsonBuilder::new()
        .str("bench", "fleet_admission_bench")
        .str("scale", if full_scale_requested() { "full" } else { "quick" })
        .int("requests", requests as u64)
        .int("seed", SEED)
        .int(
            "host_cpus",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .bool("conformant", true)
        .raw("throughput", json_array(throughput_rows))
        .int("memo_hosts", MEMO_HOSTS as u64)
        .int("memo_decisions", decisions as u64)
        .num("memo_on_total_us", on_us)
        .num("memo_off_total_us", off_us)
        .num(
            "memo_on_us_per_decision",
            on_per_decision.unwrap_or(f64::NAN),
        )
        .num(
            "memo_off_us_per_decision",
            off_per_decision.unwrap_or(f64::NAN),
        )
        .num("memo_speedup", memo_speedup.unwrap_or(f64::NAN))
        .int("memo_hits", memo_stats.memo_hits)
        .int("memo_inserts", memo_stats.memo_inserts)
        .int("memo_invalidations", memo_stats.memo_invalidations)
        .raw("fleet_metrics", metrics_json(&metrics))
        .build();
    (json, memo_speedup)
}

fn main() {
    let requests = requested_trace_size();
    let iters = if full_scale_requested() { 5 } else { 3 };
    let (json, memo_speedup) = run(requests, iters);
    let path = write_results("BENCH_fleet.json", &json);
    println!("wrote {}", path.display());

    // Optional hard gate, after the artifact is written so a failing
    // run still leaves its numbers behind. A degenerate run has no
    // speedup to gate on.
    if let Ok(floor) = std::env::var("VC2M_FLEET_FLOOR") {
        let floor: f64 = floor
            .parse()
            .unwrap_or_else(|_| panic!("VC2M_FLEET_FLOOR must be a float, got '{floor}'"));
        match memo_speedup {
            Some(speedup) => assert!(
                speedup >= floor,
                "memo_speedup {speedup:.2} fell below the required floor {floor:.2}"
            ),
            None => println!("degenerate trace: no memo_speedup to gate on"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_rate_handles_degenerate_denominators() {
        assert_eq!(guarded_rate(10.0, 2.0), Some(5.0));
        assert_eq!(guarded_rate(10.0, 0.0), None);
        assert_eq!(guarded_rate(0.0, 0.0), None);
        assert_eq!(guarded_rate(10.0, f64::NAN), None);
        assert_eq!(show(None, 2), "n/a");
    }

    /// `VC2M_FLEET_REQUESTS=0` end-to-end: the empty traces run clean
    /// through conformance and both timed sections, and every rate
    /// field is `null` (never NaN/inf text).
    #[test]
    fn zero_request_run_emits_null_rates() {
        let (json, speedup) = run(0, 1);
        assert_eq!(speedup, None);
        assert!(json.contains("\"memo_speedup\": null"), "{json}");
        assert!(json.contains("\"decisions_per_sec\": null"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    /// The quick preset satisfies the acceptance criterion: the memo
    /// is exercised and its per-decision speedup clears 3x on the
    /// rejection-heavy preset. Release-only: debug timings are noise.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing-sensitive, release only")]
    fn memo_speedup_clears_three_x_in_release() {
        let (_, speedup) = run(1000, 2);
        assert!(
            speedup.expect("non-degenerate run") >= 3.0,
            "memo speedup {speedup:?} below 3x"
        );
    }
}
