//! Execution statistics shared by the runtimes and the simulator.
//!
//! The evaluation chapter reports several derived quantities — number of
//! tasks, epochs and checking requests (Table 5.3), scheduler/worker ratio
//! (Table 5.2), barrier overhead percentage (Fig. 4.3). [`RegionStats`] is
//! the common container those experiments read out of any executor.
//!
//! # Ordering contract
//!
//! Increments use `Ordering::Relaxed`: each counter is independent and the
//! hot path must not pay for inter-counter ordering. That makes mid-run
//! reads ([the per-counter getters](RegionStats::tasks) and
//! [`RegionStats::summary`]) *approximate* — they may observe one counter
//! ahead of a causally-earlier one (e.g. a task counted whose epoch is not
//! yet). They are fine for progress displays and watchdogs, which is all
//! the engines use them for mid-run.
//!
//! Final reporting must instead call [`RegionStats::snapshot`] **after
//! joining every thread that writes the counters**. Thread join establishes
//! a happens-before edge covering all of the joined thread's writes, so the
//! snapshot is exact and mutually consistent; `snapshot()` additionally
//! loads with `Ordering::Acquire` so the contract holds for writers
//! quiesced by any other synchronizing release operation (a channel
//! handoff, an `Arc` drop) rather than a join.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters describing one parallel region's execution.
#[derive(Debug, Default)]
pub struct RegionStats {
    tasks: AtomicU64,
    epochs: AtomicU64,
    check_requests: AtomicU64,
    sync_conditions: AtomicU64,
    misspeculations: AtomicU64,
    checkpoints: AtomicU64,
    stalls: AtomicU64,
    checker_epoch_skips: AtomicU64,
    elided_signatures: AtomicU64,
    elided_admits: AtomicU64,
    proven_accesses: AtomicU64,
}

macro_rules! counter {
    ($(#[$doc:meta])* $inc:ident, $get:ident, $field:ident) => {
        $(#[$doc])*
        pub fn $inc(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }

        /// Current value of the corresponding counter.
        pub fn $get(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        }
    };
}

impl RegionStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    counter!(
        /// Records completion of one task (inner-loop iteration).
        add_task, tasks, tasks
    );
    counter!(
        /// Records entry into one epoch (loop invocation).
        add_epoch, epochs, epochs
    );
    counter!(
        /// Records one signature-checking request sent to the checker.
        add_check_request, check_requests, check_requests
    );
    counter!(
        /// Records one synchronization condition produced by the scheduler.
        add_sync_condition, sync_conditions, sync_conditions
    );
    counter!(
        /// Records one detected misspeculation (rollback).
        add_misspeculation, misspeculations, misspeculations
    );
    counter!(
        /// Records one checkpoint taken.
        add_checkpoint, checkpoints, checkpoints
    );
    counter!(
        /// Records one worker stall on a synchronization condition or gate.
        add_stall, stalls, stalls
    );
    counter!(
        /// Records one task whose signature generation was skipped because
        /// static analysis proved its footprint conflict-free (SPECCROSS
        /// elision).
        add_elided_signature, elided_signatures, elided_signatures
    );
    counter!(
        /// Records one checker admission skipped for a statically-proven
        /// task (SPECCROSS elision).
        add_elided_admit, elided_admits, elided_admits
    );

    /// Records `n` speculative accesses executed under a static
    /// conflict-freedom proof (SPECCROSS elision). Bulk because workers
    /// count per task and fold in once.
    pub fn add_proven_accesses(&self, n: u64) {
        self.proven_accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of the proven-access counter.
    pub fn proven_accesses(&self) -> u64 {
        self.proven_accesses.load(Ordering::Relaxed)
    }

    /// Records `n` whole-epoch log skips taken by the checker's
    /// aggregate-signature fast path (SPECCROSS). Bulk because the checker
    /// accumulates skips locally and folds them in at drain points.
    pub fn add_checker_epoch_skips(&self, n: u64) {
        self.checker_epoch_skips.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of the checker epoch-skip counter.
    pub fn checker_epoch_skips(&self) -> u64 {
        self.checker_epoch_skips.load(Ordering::Relaxed)
    }

    /// Approximate mid-run view of all counters (Relaxed loads).
    ///
    /// Counters may be mutually inconsistent while writer threads are still
    /// running; see the [module docs](self) for the ordering contract. For
    /// final reporting, use [`RegionStats::snapshot`] after join.
    pub fn summary(&self) -> StatsSummary {
        StatsSummary {
            tasks: self.tasks(),
            epochs: self.epochs(),
            check_requests: self.check_requests(),
            sync_conditions: self.sync_conditions(),
            misspeculations: self.misspeculations(),
            checkpoints: self.checkpoints(),
            stalls: self.stalls(),
            checker_epoch_skips: self.checker_epoch_skips(),
            schedule_cache_hits: 0,
            elided_signatures: self.elided_signatures(),
            elided_admits: self.elided_admits(),
            proven_accesses: self.proven_accesses(),
        }
    }

    /// Exact end-of-run snapshot.
    ///
    /// **Contract:** call only after every thread that increments these
    /// counters has been joined (or otherwise quiesced through a
    /// release-synchronizing operation). Under that contract the returned
    /// values are exact and mutually consistent; the loads use
    /// `Ordering::Acquire` to pair with non-join release edges. See the
    /// [module docs](self).
    pub fn snapshot(&self) -> StatsSummary {
        StatsSummary {
            tasks: self.tasks.load(Ordering::Acquire),
            epochs: self.epochs.load(Ordering::Acquire),
            check_requests: self.check_requests.load(Ordering::Acquire),
            sync_conditions: self.sync_conditions.load(Ordering::Acquire),
            misspeculations: self.misspeculations.load(Ordering::Acquire),
            checkpoints: self.checkpoints.load(Ordering::Acquire),
            stalls: self.stalls.load(Ordering::Acquire),
            checker_epoch_skips: self.checker_epoch_skips.load(Ordering::Acquire),
            schedule_cache_hits: 0,
            elided_signatures: self.elided_signatures.load(Ordering::Acquire),
            elided_admits: self.elided_admits.load(Ordering::Acquire),
            proven_accesses: self.proven_accesses.load(Ordering::Acquire),
        }
    }
}

/// Plain-value snapshot of [`RegionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSummary {
    /// Tasks (inner-loop iterations) executed.
    pub tasks: u64,
    /// Epochs (loop invocations) entered.
    pub epochs: u64,
    /// Checking requests sent to the checker thread.
    pub check_requests: u64,
    /// Synchronization conditions produced by the DOMORE scheduler.
    pub sync_conditions: u64,
    /// Misspeculations detected.
    pub misspeculations: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Worker stalls.
    pub stalls: u64,
    /// Whole-epoch checker log skips taken by the aggregate-signature fast
    /// path (SPECCROSS).
    pub checker_epoch_skips: u64,
    /// Always 0. The DOMORE schedule memo that counted replayed
    /// invocations here was removed; the field stays only because the
    /// wall-clock benchmark (`perfbench`) still reads it.
    pub schedule_cache_hits: u64,
    /// Tasks whose signature generation was skipped under a static
    /// conflict-freedom proof (SPECCROSS elision).
    pub elided_signatures: u64,
    /// Checker admissions skipped for statically-proven tasks (SPECCROSS
    /// elision).
    pub elided_admits: u64,
    /// Speculative accesses executed under a static conflict-freedom proof
    /// (SPECCROSS elision).
    pub proven_accesses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment_independently() {
        let s = RegionStats::new();
        s.add_task();
        s.add_task();
        s.add_epoch();
        s.add_check_request();
        s.add_sync_condition();
        s.add_misspeculation();
        s.add_checkpoint();
        s.add_stall();
        s.add_checker_epoch_skips(3);
        s.add_elided_signature();
        s.add_elided_admit();
        s.add_proven_accesses(5);
        let sum = s.summary();
        assert_eq!(sum.tasks, 2);
        assert_eq!(sum.epochs, 1);
        assert_eq!(sum.check_requests, 1);
        assert_eq!(sum.sync_conditions, 1);
        assert_eq!(sum.misspeculations, 1);
        assert_eq!(sum.checkpoints, 1);
        assert_eq!(sum.stalls, 1);
        assert_eq!(sum.checker_epoch_skips, 3);
        assert_eq!(sum.elided_signatures, 1);
        assert_eq!(sum.elided_admits, 1);
        assert_eq!(sum.proven_accesses, 5);
    }

    #[test]
    fn summary_of_fresh_stats_is_zero() {
        assert_eq!(RegionStats::new().summary(), StatsSummary::default());
    }

    #[test]
    fn counters_are_thread_safe() {
        use std::sync::Arc;
        let s = Arc::new(RegionStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add_task();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All writers joined: snapshot() is exact per the ordering contract.
        assert_eq!(s.snapshot().tasks, 4000);
        assert_eq!(s.tasks(), 4000);
    }

    #[test]
    fn snapshot_matches_summary_when_quiescent() {
        let s = RegionStats::new();
        s.add_task();
        s.add_epoch();
        s.add_stall();
        assert_eq!(s.snapshot(), s.summary());
    }
}
