//! Sharded parallel execution of the hypervisor simulation.
//!
//! Under partitioned EDF the simulated cores do not couple: server
//! scheduling, job release/completion, traffic accounting and fault
//! effects are core-local, and the bandwidth regulator's budgets are
//! per core (the per-period refill, [`BwRegulator::replenish_cores`],
//! touches only the cores it is given). So *any* partition of the
//! cores into groups yields independent sub-simulations: each shard
//! runs its own event heap — including its own `Refill` chain, which
//! replenishes only its own cores — to the horizon, with no
//! rendezvous, and the results merge after the join.
//!
//! # Why the merge is deterministic and exact
//!
//! The event queue orders simultaneous events by
//! `(time, priority, key, seq)` where `key` is derived from event
//! *content* (target core/task/VCPU index — see `event_key`), never
//! from insertion history. Two events that land in different shards
//! therefore have the same relative order as in the serial queue, and
//! events that could tie completely (same time, priority and key)
//! always target the same entity, hence the same shard, where local
//! insertion order applies exactly as serially. The scheduler itself
//! is content-deterministic (deadline, period, index tie-breaks), so
//! equal event order means equal state trajectories per core.
//!
//! Merging after the run is then pure bookkeeping, in fixed core- or
//! key-order, independent of thread count and completion order:
//!
//! * **counters** (`jobs_*`, `throttle_events`, `context_switches`)
//!   add — each increment happens in exactly one shard;
//! * **deadline misses** sort by `(deadline, task index)` — the serial
//!   pop order of `DeadlineCheck` events — with a stable sort, and
//!   exact ties never span shards;
//! * **response times / supply logs** are unions over disjoint task
//!   and VCPU sets, so each per-task `MinAvgMax` is accumulated by a
//!   single shard in serial sample order — bit-identical floats, not
//!   merely equivalent ones;
//! * **core times** come from each core's owning shard;
//! * **trace records** carry a canonical tag (the ordering prefix of
//!   the event being handled plus an intra-handler lane, see
//!   `TaggedRing`); sorting the union of the per-shard rings and the
//!   coordinator's synthesized `Refill` records by tag reproduces the
//!   serial emission order, and keeping the newest `capacity` of them
//!   reproduces the serial ring's eviction: a shard ring evicts
//!   oldest-first in tag order, so a locally evicted record can never
//!   be among the globally newest `capacity`;
//! * **metrics** render through the same formatting path as the serial
//!   read-out (`render_metrics`) from the merged inputs.
//!
//! The tags are exact because every run segment ends strictly after
//! the event that planned it: a task whose WCET rounds to 0 ns would
//! break this, and is rejected up front ([`SimBuildError::ZeroWcet`]).
//!
//! Errors (an overcommitted dynamic reallocation) are replicated:
//! every shard validates every reallocation against the same
//! deterministically-ordered allocation table, so a failing
//! reallocation fails identically in all shards, and the run reports
//! the first shard's error — the serial error.

use super::*;

/// A partition of the simulated cores into independently-advancing
/// groups for [`HypervisorSim::run_observed_sharded_with`]. Any
/// partition is valid (cores do not couple); the choice affects load
/// balance, not results — pinned by the conformance suite's
/// random-partition property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePartition {
    groups: Vec<Vec<usize>>,
}

impl CorePartition {
    /// One group per core — the maximally parallel partition, and the
    /// default of [`HypervisorSim::run_sharded`].
    pub fn singletons(cores: usize) -> Self {
        CorePartition {
            groups: (0..cores).map(|c| vec![c]).collect(),
        }
    }

    /// An explicit grouping. Group members are normalized to ascending
    /// order (the refill phases iterate a shard's cores ascending, as
    /// the serial refiller does); validity against a concrete
    /// simulation — every core exactly once, no empty group — is
    /// checked when a run starts.
    pub fn from_groups(groups: Vec<Vec<usize>>) -> Self {
        let mut groups = groups;
        for group in &mut groups {
            group.sort_unstable();
        }
        CorePartition { groups }
    }

    /// The core groups, each ascending.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Checks that the groups are a partition of `0..cores`.
    fn validate(&self, cores: usize) -> Result<(), SimError> {
        let mut seen = vec![false; cores];
        for group in &self.groups {
            if group.is_empty() {
                return Err(SimError::InvalidPartition {
                    detail: "partition contains an empty group".into(),
                });
            }
            for &core in group {
                if core >= cores {
                    return Err(SimError::InvalidPartition {
                        detail: format!("core {core} is out of range (simulation has {cores})"),
                    });
                }
                if seen[core] {
                    return Err(SimError::InvalidPartition {
                        detail: format!("core {core} appears twice"),
                    });
                }
                seen[core] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(SimError::InvalidPartition {
                detail: format!("core {missing} is missing from the partition"),
            });
        }
        Ok(())
    }
}

impl HypervisorSim {
    /// Runs the simulation sharded one-group-per-core over `threads`
    /// OS threads and returns a report **bit-identical** to
    /// [`HypervisorSim::run`] — same misses, same counters, same
    /// float-for-float response times (only the wall-clock
    /// `handler_overheads` differ, as they do between any two runs).
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run`].
    pub fn run_sharded(self, threads: usize) -> Result<SimReport, SimError> {
        Ok(self.run_observed_sharded(threads)?.0)
    }

    /// Sharded [`HypervisorSim::run_observed`]: trace, drop count and
    /// metrics registry are all bit-identical to the serial ones —
    /// same records, same order, same ring eviction.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run`].
    pub fn run_observed_sharded(
        self,
        threads: usize,
    ) -> Result<(SimReport, SimObservation), SimError> {
        let partition = CorePartition::singletons(self.cores.len());
        self.run_observed_sharded_with(&partition, threads)
    }

    /// [`HypervisorSim::run_observed_sharded`] with an explicit core
    /// partition: clone-and-restrict, run in parallel, merge.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run`]; additionally
    /// [`SimError::InvalidPartition`] if `partition` is not a
    /// partition of this simulation's cores.
    pub fn run_observed_sharded_with(
        self,
        partition: &CorePartition,
        threads: usize,
    ) -> Result<(SimReport, SimObservation), SimError> {
        partition.validate(self.cores.len())?;
        if self.cores.is_empty() {
            // Degenerate: nothing to shard; the serial path is exact.
            return self.run_observed();
        }

        let horizon = SimTime::ZERO + self.config.horizon;
        let mut shards: Vec<HypervisorSim> = partition
            .groups()
            .iter()
            .map(|g| self.shard_clone(g))
            .collect();
        let chunk = shards.len().div_ceil(threads.clamp(1, shards.len()));
        std::thread::scope(|s| {
            let workers: Vec<_> = shards
                .chunks_mut(chunk)
                .map(|group| {
                    s.spawn(move || {
                        group.iter_mut().try_for_each(|shard| {
                            shard.advance(horizon)?;
                            shard.finish(horizon);
                            Ok(())
                        })
                    })
                })
                .collect();
            // The first error in shard order (all shards fail alike).
            workers.into_iter().try_for_each(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
        })?;

        let reports: Vec<SimReport> = shards.iter_mut().map(HypervisorSim::build_report).collect();
        let report = self.merged_report(&shards, reports);
        let rings: Vec<TaggedRing> = shards.iter_mut().filter_map(|s| s.tagged.take()).collect();
        let capacity = self.config.trace_capacity;
        let (trace, trace_recorded, trace_dropped) =
            merged_trace(rings, self.config.regulation_period, capacity);

        let mut regulator = shards[0].regulator.clone();
        for shard in &shards[1..] {
            regulator.merge_stats(&shard.regulator);
        }
        let mut fault_stats = FaultStats::default();
        for shard in &shards {
            fault_stats.absorb(&shard.fault_stats);
        }
        let metrics = Self::render_metrics(
            &self.config,
            &report,
            trace_recorded,
            trace_dropped,
            &regulator,
            self.fault_plan.is_some().then_some(fault_stats),
        );
        let observation = SimObservation {
            trace,
            trace_dropped,
            metrics,
        };
        Ok((report, observation))
    }

    /// A clone of this (not-yet-started) simulation restricted to one
    /// core group: scope set, tagged trace ring armed, and the event
    /// population seeded under that scope.
    fn shard_clone(&self, group: &[usize]) -> HypervisorSim {
        let mut shard = self.clone();
        let mut local = vec![false; self.cores.len()];
        for &core in group {
            local[core] = true;
        }
        shard.scope = Some(ShardScope {
            cores: group.to_vec(),
            local,
        });
        shard.tagged = Some(TaggedRing::new(self.config.trace_capacity));
        shard.seed_events();
        shard
    }

    /// Merges per-shard reports in fixed core-/key-order (see the
    /// module docs for why each field merge is exact).
    fn merged_report(&self, shards: &[HypervisorSim], reports: Vec<SimReport>) -> SimReport {
        let task_order: HashMap<TaskId, usize> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, i))
            .collect();
        let mut merged = SimReport {
            core_times: vec![crate::energy::CoreTime::default(); self.cores.len()],
            horizon_ms: self.config.horizon.as_ms(),
            ..SimReport::default()
        };
        for (shard, mut rep) in shards.iter().zip(reports) {
            merged.deadline_misses.append(&mut rep.deadline_misses);
            merged.jobs_completed += rep.jobs_completed;
            merged.jobs_released += rep.jobs_released;
            merged.throttle_events += rep.throttle_events;
            merged.context_switches += rep.context_switches;
            for (kind, stats) in &rep.handler_overheads {
                merged
                    .handler_overheads
                    .entry(*kind)
                    .or_default()
                    .merge(stats);
            }
            merged.response_times.extend(rep.response_times);
            merged.supply_logs.extend(rep.supply_logs);
            if let Some(scope) = &shard.scope {
                for &core in &scope.cores {
                    merged.core_times[core] = rep.core_times[core];
                }
            }
        }
        // Serial miss order is the pop order of `DeadlineCheck` events:
        // `(deadline, task key)`, with exact ties (same task, same
        // deadline) in shard-local — i.e. serial — order, preserved
        // here because the sort is stable and such ties never span
        // shards.
        merged
            .deadline_misses
            .sort_by_key(|m| (m.deadline, task_order.get(&m.task).copied().unwrap_or(usize::MAX)));
        merged
    }
}

/// Merges the per-shard tagged rings into the exact serial trace:
/// synthesize the `Refill` records, sort by canonical tag, keep the
/// newest `capacity`. Returns `(trace, recorded, dropped)`.
fn merged_trace(
    rings: Vec<TaggedRing>,
    period: SimDuration,
    capacity: usize,
) -> (Vec<(SimTime, TraceEvent)>, u64, u64) {
    // One `Refill` record per regulation period, from the wake counts
    // summed over the shards (every shard logs every period). Its tag
    // subkey slots it between the period's phase-0 (suspend) and
    // phase-2 (unthrottle) record lanes — where the serial refill
    // handler emits it. Records older than the newest `capacity` could
    // never survive the cut below, so they are not built.
    let refills = rings.first().map_or(0, |r| r.refill_woken.len());
    let mut emitted = refills as u64;
    let mut all: Vec<ShardTraceRecord> = (refills.saturating_sub(capacity)..refills)
        .map(|w| ShardTraceRecord {
            time: SimTime(period.as_ns() * (w as u64 + 1)),
            priority: PRIO_REFILL,
            key: REFILL_KEY,
            subkey: TAG_SPAN,
            order: w as u64,
            event: TraceEvent::Refill {
                woken: rings.iter().map(|r| r.refill_woken[w]).sum(),
            },
        })
        .collect();
    for ring in rings {
        emitted += ring.emitted;
        all.extend(ring.ring);
    }
    all.sort_by_key(ShardTraceRecord::sort_key);
    let kept = (capacity as u64).min(emitted) as usize;
    let tail = all.split_off(all.len().saturating_sub(kept));
    let dropped = emitted - tail.len() as u64;
    let trace = tail.into_iter().map(|r| (r.time, r.event)).collect();
    (trace, kept as u64, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_partition_covers_every_core() {
        let p = CorePartition::singletons(4);
        assert_eq!(p.groups().len(), 4);
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn from_groups_normalizes_and_validates() {
        let p = CorePartition::from_groups(vec![vec![2, 0], vec![1]]);
        assert_eq!(p.groups()[0], vec![0, 2]);
        assert!(p.validate(3).is_ok());

        let dup = CorePartition::from_groups(vec![vec![0, 1], vec![1]]);
        assert!(matches!(
            dup.validate(2),
            Err(SimError::InvalidPartition { .. })
        ));
        let missing = CorePartition::from_groups(vec![vec![0]]);
        assert!(matches!(
            missing.validate(2),
            Err(SimError::InvalidPartition { .. })
        ));
        let out_of_range = CorePartition::from_groups(vec![vec![0, 5]]);
        assert!(matches!(
            out_of_range.validate(2),
            Err(SimError::InvalidPartition { .. })
        ));
        let empty_group = CorePartition::from_groups(vec![vec![0], vec![]]);
        assert!(matches!(
            empty_group.validate(1),
            Err(SimError::InvalidPartition { .. })
        ));
    }
}
