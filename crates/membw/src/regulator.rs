//! The per-core bandwidth regulator (BW enforcer + BW refiller).

use crate::{MembwError, PerfCounter, CACHE_LINE_BYTES};
use std::fmt;
use vc2m_simcore::MetricsRegistry;

/// Configuration of the bandwidth regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegulatorConfig {
    cores: usize,
    period_ms: f64,
}

impl RegulatorConfig {
    /// Creates a configuration for `cores` cores with the given
    /// regulation period in milliseconds (the paper uses a small
    /// configurable interval, e.g. 1 ms).
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::InvalidConfig`] if `cores` is zero or the
    /// period is not positive and finite.
    pub fn new(cores: usize, period_ms: f64) -> Result<Self, MembwError> {
        if cores == 0 {
            return Err(MembwError::InvalidConfig {
                detail: "regulator needs at least one core".into(),
            });
        }
        if !period_ms.is_finite() || period_ms <= 0.0 {
            return Err(MembwError::InvalidConfig {
                detail: format!("regulation period must be positive, got {period_ms}"),
            });
        }
        Ok(RegulatorConfig { cores, period_ms })
    }

    /// Number of cores regulated.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Regulation period in milliseconds.
    pub fn period_ms(&self) -> f64 {
        self.period_ms
    }
}

/// What the enforcer decided after new memory requests were counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleAction {
    /// The core is still within budget; nothing to do.
    None,
    /// The counter just overflowed: the hypervisor must de-schedule the
    /// core's VCPU and leave the core idle for the rest of the period.
    Throttle,
    /// The core was already throttled (requests raced in before the
    /// de-schedule took effect); no new interrupt fires.
    AlreadyThrottled,
}

/// Per-core regulator state.
#[derive(Debug, Clone, PartialEq)]
struct CoreRegulator {
    budget: u64,
    counter: PerfCounter,
    throttled: bool,
    /// Requests observed in the current period (for statistics).
    used_this_period: u64,
}

/// The simulated bandwidth regulator: one preset performance counter
/// per core, the throttled-core bitmask, and the enforcer/refiller
/// logic of Figure 1.
///
/// The regulator is deliberately scheduler-agnostic: it reports
/// [`ThrottleAction`]s and un-throttle lists, and the hypervisor
/// simulator (which owns the scheduler) acts on them — mirroring the
/// real design, where the interrupt handlers *invoke* the RTDS
/// scheduler rather than schedule themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct BwRegulator {
    config: RegulatorConfig,
    cores: Vec<CoreRegulator>,
    /// Bitmask of throttled cores (the shared state of Fig. 1, which
    /// the prototype protects with a lock; the simulation is
    /// single-threaded so the bitmask alone suffices).
    throttled_mask: u64,
    periods_elapsed: u64,
    total_throttles: u64,
}

impl BwRegulator {
    /// Creates a regulator in the setup state: every core's budget is
    /// unlimited (`u64::MAX` requests) until [`BwRegulator::set_budget`]
    /// is called, so an unconfigured regulator never throttles.
    pub fn new(config: RegulatorConfig) -> Self {
        let cores = (0..config.cores())
            .map(|_| CoreRegulator {
                budget: u64::MAX >> 16,
                counter: PerfCounter::preset(u64::MAX >> 16),
                throttled: false,
                used_this_period: 0,
            })
            .collect();
        BwRegulator {
            config,
            cores,
            throttled_mask: 0,
            periods_elapsed: 0,
            total_throttles: 0,
        }
    }

    /// The regulator's configuration.
    pub fn config(&self) -> &RegulatorConfig {
        &self.config
    }

    /// Sets a core's per-period request budget and presets its counter
    /// (the setup component's per-core work).
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn set_budget(&mut self, core: usize, requests_per_period: u64) -> Result<(), MembwError> {
        let cores = self.cores.len();
        let state = self
            .cores
            .get_mut(core)
            .ok_or(MembwError::UnknownCore { core, cores })?;
        state.budget = requests_per_period;
        state.counter.reset(requests_per_period);
        state.throttled = requests_per_period == 0;
        if state.throttled {
            self.throttled_mask |= 1 << core;
        } else {
            self.throttled_mask &= !(1 << core);
        }
        Ok(())
    }

    /// A core's configured budget in requests per period.
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn budget(&self, core: usize) -> Result<u64, MembwError> {
        let cores = self.cores.len();
        self.cores
            .get(core)
            .map(|c| c.budget)
            .ok_or(MembwError::UnknownCore { core, cores })
    }

    /// Requests a core may still issue in the current period.
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn remaining(&self, core: usize) -> Result<u64, MembwError> {
        let cores = self.cores.len();
        self.cores
            .get(core)
            .map(|c| c.counter.remaining())
            .ok_or(MembwError::UnknownCore { core, cores })
    }

    /// Whether a core is currently throttled.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (queries on unknown cores are a
    /// caller bug, unlike configuration calls which may be driven by
    /// external input).
    pub fn is_throttled(&self, core: usize) -> bool {
        self.cores[core].throttled
    }

    /// The bitmask of throttled cores.
    pub fn throttled_mask(&self) -> u64 {
        self.throttled_mask
    }

    /// The enforcer path: counts `requests` memory requests from
    /// `core`, and reports whether the overflow interrupt fires.
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn record_requests(
        &mut self,
        core: usize,
        requests: u64,
    ) -> Result<ThrottleAction, MembwError> {
        let cores = self.cores.len();
        let state = self
            .cores
            .get_mut(core)
            .ok_or(MembwError::UnknownCore { core, cores })?;
        state.used_this_period += requests;
        if state.throttled {
            state.counter.add(requests);
            return Ok(ThrottleAction::AlreadyThrottled);
        }
        if state.counter.add(requests) {
            state.throttled = true;
            self.throttled_mask |= 1 << core;
            self.total_throttles += 1;
            Ok(ThrottleAction::Throttle)
        } else {
            Ok(ThrottleAction::None)
        }
    }

    /// The refiller path: at a regulation-period boundary, replenishes
    /// every core's budget, clears overflow status, and returns the
    /// list of cores that were throttled (the hypervisor must invoke
    /// its scheduler on each to resume a VCPU).
    pub fn replenish_all(&mut self) -> Vec<usize> {
        let cores: Vec<usize> = (0..self.cores.len()).collect();
        self.replenish_cores(&cores)
    }

    /// The refiller path restricted to a core subset: replenishes only
    /// the listed cores, leaving every other core's budget, counter and
    /// throttle status untouched. One call counts as one elapsed
    /// period, so a sharded simulation — where each shard replenishes
    /// exactly its own cores every period — keeps per-shard
    /// `periods_elapsed` equal to the serial run's.
    ///
    /// Returns the listed cores that were throttled, in the order
    /// given (callers pass ascending core indices for deterministic
    /// wake order).
    ///
    /// # Panics
    ///
    /// Panics if a listed core is out of range (the list is
    /// caller-constructed, never external input).
    pub fn replenish_cores(&mut self, cores: &[usize]) -> Vec<usize> {
        self.periods_elapsed += 1;
        let mut woken = Vec::new();
        for &core in cores {
            let state = &mut self.cores[core];
            if state.throttled {
                woken.push(core);
            }
            state.throttled = state.budget == 0;
            state.counter.reset(state.budget);
            state.used_this_period = 0;
            if state.throttled {
                self.throttled_mask |= 1 << core;
            } else {
                self.throttled_mask &= !(1 << core);
            }
        }
        woken
    }

    /// Number of regulation periods elapsed (refiller invocations).
    pub fn periods_elapsed(&self) -> u64 {
        self.periods_elapsed
    }

    /// Folds another regulator's cumulative *statistics* into this one
    /// (sharded-simulation merge): throttle totals add, since each
    /// shard throttles a disjoint core subset. `periods_elapsed` is
    /// left alone — every shard replenishes every period, so the
    /// per-shard clocks already agree with the serial run's.
    ///
    /// Per-core budget/counter state is *not* merged; the receiver is
    /// only meaningful as a statistics source afterwards.
    pub fn merge_stats(&mut self, other: &BwRegulator) {
        debug_assert_eq!(
            self.periods_elapsed, other.periods_elapsed,
            "shards must have clocked the same number of periods"
        );
        self.total_throttles += other.total_throttles;
    }

    /// Total throttle events since setup.
    pub fn total_throttles(&self) -> u64 {
        self.total_throttles
    }

    /// Exports the regulator's cumulative statistics into `out` under
    /// `prefix` (e.g. `"membw."`): counters `{prefix}periods_elapsed`,
    /// `{prefix}throttles` and `{prefix}cores`, plus the gauge
    /// `{prefix}period_ms`.
    ///
    /// Pull-only — reads accumulated state, never mutates the
    /// regulator, so exporting cannot perturb a simulation.
    pub fn export_metrics(&self, prefix: &str, out: &mut MetricsRegistry) {
        out.counter_add(&format!("{prefix}periods_elapsed"), self.periods_elapsed);
        out.counter_add(&format!("{prefix}throttles"), self.total_throttles);
        out.counter_add(&format!("{prefix}cores"), self.cores.len() as u64);
        out.gauge_set(&format!("{prefix}period_ms"), self.config.period_ms());
    }
}

impl fmt::Display for BwRegulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BwRegulator({} cores, period {}ms, throttled mask {:#b})",
            self.config.cores(),
            self.config.period_ms(),
            self.throttled_mask
        )
    }
}

/// Converts a bandwidth allocation of `partitions` partitions of
/// `partition_mbps` MB/s each into a per-regulation-period
/// memory-request budget (one request = one 64-byte line fill).
///
/// # Panics
///
/// Panics if `period_ms` is not positive and finite.
pub fn budget_requests_per_period(partitions: u32, partition_mbps: u32, period_ms: f64) -> u64 {
    assert!(
        period_ms.is_finite() && period_ms > 0.0,
        "regulation period must be positive, got {period_ms}"
    );
    let bytes_per_second = u64::from(partitions) * u64::from(partition_mbps) * 1_000_000;
    let bytes_per_period = bytes_per_second as f64 * (period_ms / 1e3);
    (bytes_per_period / CACHE_LINE_BYTES as f64).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regulator() -> BwRegulator {
        let mut r = BwRegulator::new(RegulatorConfig::new(4, 1.0).unwrap());
        for core in 0..4 {
            r.set_budget(core, 100).unwrap();
        }
        r
    }

    #[test]
    fn config_validates() {
        assert!(RegulatorConfig::new(0, 1.0).is_err());
        assert!(RegulatorConfig::new(4, 0.0).is_err());
        assert!(RegulatorConfig::new(4, f64::NAN).is_err());
    }

    #[test]
    fn unconfigured_core_never_throttles() {
        let mut r = BwRegulator::new(RegulatorConfig::new(1, 1.0).unwrap());
        assert_eq!(
            r.record_requests(0, 1_000_000_000).unwrap(),
            ThrottleAction::None
        );
    }

    #[test]
    fn throttles_exactly_at_budget() {
        let mut r = regulator();
        assert_eq!(r.record_requests(0, 99).unwrap(), ThrottleAction::None);
        assert_eq!(r.record_requests(0, 1).unwrap(), ThrottleAction::Throttle);
        assert!(r.is_throttled(0));
        assert_eq!(r.throttled_mask(), 0b0001);
        assert_eq!(
            r.record_requests(0, 1).unwrap(),
            ThrottleAction::AlreadyThrottled
        );
        assert_eq!(r.total_throttles(), 1);
    }

    #[test]
    fn cores_are_independent() {
        let mut r = regulator();
        r.record_requests(2, 150).unwrap();
        assert!(r.is_throttled(2));
        assert!(!r.is_throttled(0));
        assert_eq!(r.throttled_mask(), 0b0100);
    }

    #[test]
    fn replenish_unthrottles_and_reports() {
        let mut r = regulator();
        r.record_requests(1, 200).unwrap();
        r.record_requests(3, 200).unwrap();
        let woken = r.replenish_all();
        assert_eq!(woken, vec![1, 3]);
        assert_eq!(r.throttled_mask(), 0);
        assert!(!r.is_throttled(1));
        assert_eq!(r.remaining(1).unwrap(), 100);
        assert_eq!(r.periods_elapsed(), 1);
        // Guarantee survives: the core may again use its full budget.
        assert_eq!(r.record_requests(1, 99).unwrap(), ThrottleAction::None);
    }

    #[test]
    fn zero_budget_core_is_permanently_throttled() {
        let mut r = regulator();
        r.set_budget(0, 0).unwrap();
        assert!(r.is_throttled(0));
        let woken = r.replenish_all();
        assert_eq!(woken, vec![0], "refiller still reports it");
        assert!(r.is_throttled(0), "but it stays throttled");
    }

    #[test]
    fn replenish_cores_touches_only_the_subset() {
        let mut r = regulator();
        r.record_requests(0, 200).unwrap();
        r.record_requests(2, 200).unwrap();
        let woken = r.replenish_cores(&[0, 1]);
        assert_eq!(woken, vec![0], "only listed throttled cores wake");
        assert!(!r.is_throttled(0));
        assert!(r.is_throttled(2), "unlisted core keeps its throttle");
        assert_eq!(r.throttled_mask(), 0b0100);
        assert_eq!(r.remaining(0).unwrap(), 100, "listed core refilled");
        assert_eq!(r.remaining(2).unwrap(), 0, "unlisted core not refilled");
        assert_eq!(r.periods_elapsed(), 1, "one call = one period");
    }

    #[test]
    fn sharded_replenish_matches_replenish_all() {
        // Two regulators driven identically; one replenishes all cores
        // at once, the other replenishes the same boundary as two
        // disjoint core-subset calls. End state must be identical
        // (periods_elapsed differs by design: per-shard clocks each
        // count every boundary).
        let mut serial = regulator();
        let mut sharded = regulator();
        for r in [&mut serial, &mut sharded] {
            r.record_requests(1, 250).unwrap();
            r.record_requests(3, 250).unwrap();
        }
        let woken_serial = serial.replenish_all();
        let mut woken_sharded = sharded.replenish_cores(&[0, 1]);
        woken_sharded.extend(sharded.replenish_cores(&[2, 3]));
        assert_eq!(woken_serial, woken_sharded);
        assert_eq!(serial.throttled_mask(), sharded.throttled_mask());
        for core in 0..4 {
            assert_eq!(
                serial.remaining(core).unwrap(),
                sharded.remaining(core).unwrap()
            );
        }
    }

    #[test]
    fn merge_stats_adds_disjoint_throttle_totals() {
        // Serial regulator vs two shard clones covering disjoint core
        // subsets: after identical traffic and one boundary each, the
        // merged statistics equal the serial ones.
        let mut serial = regulator();
        let mut shard_a = regulator();
        let mut shard_b = regulator();
        serial.record_requests(1, 250).unwrap();
        serial.record_requests(3, 250).unwrap();
        shard_a.record_requests(1, 250).unwrap();
        shard_b.record_requests(3, 250).unwrap();
        serial.replenish_all();
        shard_a.replenish_cores(&[0, 1]);
        shard_b.replenish_cores(&[2, 3]);
        let mut merged = shard_a.clone();
        merged.merge_stats(&shard_b);
        assert_eq!(merged.total_throttles(), serial.total_throttles());
        assert_eq!(merged.periods_elapsed(), serial.periods_elapsed());
    }

    #[test]
    fn unknown_core_errors() {
        let mut r = regulator();
        assert!(matches!(
            r.record_requests(9, 1),
            Err(MembwError::UnknownCore { core: 9, cores: 4 })
        ));
        assert!(r.set_budget(9, 1).is_err());
        assert!(r.budget(9).is_err());
        assert!(r.remaining(9).is_err());
    }

    #[test]
    fn budget_conversion() {
        // 1 partition × 60 MB/s × 1 ms = 60 KB = 937.5 cache lines.
        assert_eq!(budget_requests_per_period(1, 60, 1.0), 937);
        // 20 partitions: 20×.
        assert_eq!(budget_requests_per_period(20, 60, 1.0), 18_750);
        // Longer period scales linearly.
        assert_eq!(budget_requests_per_period(1, 60, 2.0), 1_875);
        assert_eq!(budget_requests_per_period(0, 60, 1.0), 0);
    }

    #[test]
    fn guaranteed_budget_each_period() {
        // The core receives its configured budget in *every* period:
        // run three periods at exactly the budget, never throttled
        // early, always throttled at the boundary request.
        let mut r = regulator();
        for _ in 0..3 {
            assert_eq!(r.record_requests(0, 100).unwrap(), ThrottleAction::Throttle);
            r.replenish_all();
        }
        assert_eq!(r.total_throttles(), 3);
    }

    #[test]
    fn display() {
        let r = regulator();
        assert!(r.to_string().contains("4 cores"));
    }

    #[test]
    fn metrics_export_reflects_counters() {
        let mut r = regulator();
        r.record_requests(0, 200).unwrap();
        r.replenish_all();
        let mut m = MetricsRegistry::new();
        r.export_metrics("membw.", &mut m);
        assert_eq!(m.counter("membw.periods_elapsed"), Some(1));
        assert_eq!(m.counter("membw.throttles"), Some(1));
        assert_eq!(m.counter("membw.cores"), Some(4));
        assert_eq!(m.gauge("membw.period_ms"), Some(1.0));
    }
}
