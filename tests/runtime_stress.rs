//! Concurrency stress tests for the runtime substrate: queue transfer
//! under contention and varying capacities, barrier phase integrity over
//! many generations, progress-board monotonicity, and checker admission
//! order independence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_runtime::spsc::Queue;
use crossinvoc_runtime::SpinBarrier;
use crossinvoc_speccross::{CheckRequest, CheckerState, Position};

#[test]
fn spsc_transfer_is_lossless_across_capacities() {
    for capacity in [1usize, 2, 7, 64, 1024] {
        let (tx, rx) = Queue::with_capacity(capacity);
        const N: u64 = 20_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.produce(i * i);
            }
        });
        let mut sum = 0u64;
        for _ in 0..N {
            sum = sum.wrapping_add(rx.consume());
        }
        producer.join().unwrap();
        let expected = (0..N).map(|i| i * i).fold(0u64, u64::wrapping_add);
        assert_eq!(sum, expected, "capacity {capacity}");
    }
}

#[test]
fn barrier_keeps_phases_aligned_for_thousands_of_generations() {
    const THREADS: usize = 3;
    const GENERATIONS: u64 = 5_000;
    let barrier = Arc::new(SpinBarrier::new(THREADS));
    let phase = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for tid in 0..THREADS {
        let barrier = Arc::clone(&barrier);
        let phase = Arc::clone(&phase);
        handles.push(thread::spawn(move || {
            for g in 0..GENERATIONS {
                if barrier.wait(tid) {
                    // Exactly one serial thread per generation advances.
                    phase.store(g + 1, Ordering::SeqCst);
                }
                barrier.wait(tid);
                assert_eq!(phase.load(Ordering::SeqCst), g + 1, "thread {tid}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(barrier.generations(), GENERATIONS * 2);
}

fn req(
    tid: usize,
    epoch: u32,
    task: u32,
    snapshot: &[(u32, u32)],
    addr: usize,
) -> CheckRequest<RangeSignature> {
    let mut sig = RangeSignature::empty();
    sig.record(addr, AccessKind::Write);
    CheckRequest {
        tid,
        pos: Position { epoch, task },
        snapshot: snapshot
            .iter()
            .map(|&(e, t)| Position { epoch: e, task: t })
            .collect(),
        sig,
    }
}

/// The symmetric admit rule: a racing cross-epoch pair is caught no matter
/// which side's request reaches the checker first.
#[test]
fn checker_catches_conflicts_in_either_admission_order() {
    // Worker 0 runs <1,0>, worker 1 runs <2,0> concurrently; both write
    // address 9; each observed the other in flight.
    let early = req(0, 1, 0, &[(1, 0), (2, 0)], 9);
    let late = req(1, 2, 0, &[(1, 0), (2, 0)], 9);

    let mut forward = CheckerState::new(2);
    assert!(forward.admit(early.clone()).is_none());
    let c1 = forward.admit(late.clone()).expect("forward order");

    let mut backward = CheckerState::new(2);
    assert!(backward.admit(late).is_none());
    let c2 = backward.admit(early).expect("backward order");

    assert_eq!(c1, c2, "the detected pair is order-independent");
}

/// Pruning at a checkpoint epoch never removes entries that could still
/// race with requests from at or after that epoch.
#[test]
fn checker_pruning_is_safe_at_checkpoint_boundaries() {
    let mut state = CheckerState::new(2);
    for epoch in 0..10u32 {
        let tid = (epoch % 2) as usize;
        let mut snapshot = [(0u32, 0u32); 2];
        // Barrier-equivalent history: the other worker is observed past
        // its epoch-(epoch-1) work.
        snapshot[1 - tid] = (epoch, u32::MAX);
        snapshot[tid] = (epoch, 0);
        assert!(state.admit(req(tid, epoch, 0, &snapshot, 5)).is_none());
    }
    state.retire_before(8);
    // A new request racing with the epoch-8 leftover (worker 0's, observed
    // still in flight) must still be caught after pruning.
    let conflict = state.admit(req(1, 9, 1, &[(8, 0), (9, 1)], 5));
    assert!(conflict.is_some(), "post-prune race still detected");
}

/// Monotone combined-iteration numbering survives interleaved scheduling
/// from the pure logic under concurrent-looking streams.
#[test]
fn scheduler_numbers_are_strictly_monotone() {
    use crossinvoc_domore::logic::SchedulerLogic;
    let mut logic = SchedulerLogic::with_sparse_shadow();
    let mut conds = Vec::new();
    let mut last = None;
    for i in 0..1000usize {
        conds.clear();
        let n = logic.schedule_rw(i % 5, &[i % 13], &[(i * 7) % 13], &mut conds);
        if let Some(prev) = last {
            assert_eq!(n, prev + 1);
        }
        last = Some(n);
    }
}

/// The fault matrix: every injectable fault kind, driven through both
/// engines, must terminate within the watchdog deadline with either the
/// sequential result or a typed error — never an abort or a hang.
mod fault_matrix {
    use std::time::Duration;

    use crossinvoc_domore::prelude::*;
    use crossinvoc_domore::runtime::DomoreError;
    use crossinvoc_domore::DuplicatedScheduler;
    use crossinvoc_runtime::fault::FaultPlan;
    use crossinvoc_runtime::{RangeSignature, SharedSlice, ThreadId};
    use crossinvoc_speccross::prelude::*;

    const WATCHDOG: Duration = Duration::from_secs(30);

    /// Task `t` of every epoch increments cell `t` (and records the write).
    /// The same cell is always touched by the same worker, so a clean run
    /// never conflicts — every misspeculation below is injected.
    struct IncGrid {
        data: SharedSlice<u64>,
        epochs: usize,
    }

    impl IncGrid {
        fn new(n: usize, epochs: usize) -> Self {
            Self {
                data: SharedSlice::from_vec(vec![0; n]),
                epochs,
            }
        }

        fn expected(&self) -> Vec<u64> {
            vec![self.epochs as u64; self.data.len()]
        }

        fn cells(&self) -> Vec<u64> {
            (0..self.data.len())
                .map(|i| unsafe { self.data.read(i) })
                .collect()
        }
    }

    impl SpecWorkload for IncGrid {
        type State = Vec<u64>;

        fn num_epochs(&self) -> usize {
            self.epochs
        }
        fn num_tasks(&self, _epoch: usize) -> usize {
            self.data.len()
        }
        fn execute_task(
            &self,
            _epoch: usize,
            task: usize,
            _tid: ThreadId,
            rec: &mut dyn AccessRecorder,
        ) {
            rec.write(task);
            // SAFETY: same-epoch tasks write disjoint cells; the same cell
            // is revisited only across epochs, which the engine orders.
            unsafe { self.data.update(task, |v| *v += 1) };
        }
        fn snapshot(&self) -> Self::State {
            self.cells()
        }
        fn restore(&self, state: &Self::State) {
            for (i, v) in state.iter().enumerate() {
                unsafe { self.data.write(i, *v) };
            }
        }
    }

    fn engine(plan: FaultPlan) -> SpecCrossEngine {
        SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(plan)
                .watchdog(WATCHDOG),
        )
    }

    #[test]
    fn worker_panic_is_contained_and_rolled_back() {
        let w = IncGrid::new(8, 6);
        let report = engine(FaultPlan::default().worker_panic_at(2, 3))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert!(
            report
                .contained_faults
                .iter()
                .any(|f| matches!(f, ContainedFault::WorkerPanic { epoch: 2, task: 3 })),
            "the contained panic must be reported: {:?}",
            report.contained_faults
        );
        assert!(!report.degraded);
    }

    #[test]
    fn checker_stall_only_slows_the_run() {
        let w = IncGrid::new(8, 6);
        let report = engine(FaultPlan::default().checker_stall_at(1, 30))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert_eq!(report.stats.misspeculations, 0);
    }

    #[test]
    fn checker_death_without_policy_is_a_typed_error() {
        let w = IncGrid::new(8, 6);
        let err = engine(FaultPlan::default().checker_death_at(1))
            .execute(&w)
            .unwrap_err();
        assert!(
            matches!(err, SpecError::CheckerFailed { .. }),
            "expected CheckerFailed, got {err:?}"
        );
    }

    #[test]
    fn checker_death_with_policy_degrades_to_barriers() {
        let w = IncGrid::new(8, 6);
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(FaultPlan::default().checker_death_at(1))
                .degrade(DegradePolicy::default())
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert!(report.degraded, "losing the checker must degrade");
        assert_eq!(w.cells(), w.expected());
    }

    #[test]
    fn forced_false_positive_recovers_like_a_real_conflict() {
        let w = IncGrid::new(8, 6);
        let report = engine(FaultPlan::default().false_positive_at(3))
            .execute(&w)
            .unwrap();
        assert!(report.stats.misspeculations >= 1);
        assert!(!report.degraded);
        assert_eq!(w.cells(), w.expected());
    }

    #[test]
    fn false_positive_storm_trips_the_degrade_policy() {
        let w = IncGrid::new(8, 12);
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .fault_plan(FaultPlan::default().false_positive_storm(32))
                .degrade(DegradePolicy {
                    window: 4,
                    max_misspeculations: 2,
                    max_consecutive_failures: 2,
                })
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert!(report.degraded, "a storm of false positives must degrade");
        assert_eq!(w.cells(), w.expected());
    }

    #[test]
    fn snapshot_failure_keeps_the_previous_checkpoint() {
        let w = IncGrid::new(8, 6);
        let report = engine(FaultPlan::default().snapshot_failure_at(2))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert!(
            report
                .contained_faults
                .iter()
                .any(|f| matches!(f, ContainedFault::SnapshotSkipped { epoch: 2 })),
            "the skipped snapshot must be reported: {:?}",
            report.contained_faults
        );
    }

    #[test]
    fn restore_failure_retries_once_then_succeeds() {
        let w = IncGrid::new(8, 6);
        let report = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .inject_conflict_at_epoch(Some(3))
                .fault_plan(FaultPlan::default().restore_failure())
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert!(
            report
                .contained_faults
                .iter()
                .any(|f| matches!(f, ContainedFault::RestoreRetried { .. })),
            "the retried restore must be reported: {:?}",
            report.contained_faults
        );
    }

    #[test]
    fn restore_failing_twice_is_a_typed_error() {
        let w = IncGrid::new(8, 6);
        let err = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(2)
                .checkpoint_every(2)
                .inject_conflict_at_epoch(Some(3))
                .fault_plan(FaultPlan::default().restore_failure().restore_failure())
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap_err();
        assert!(
            matches!(err, SpecError::RestoreFailed { .. }),
            "expected RestoreFailed, got {err:?}"
        );
    }

    #[test]
    fn task_delay_changes_timing_not_results() {
        let w = IncGrid::new(8, 6);
        let report = engine(FaultPlan::default().delay_at(1, 2, 200))
            .execute(&w)
            .unwrap();
        assert_eq!(w.cells(), w.expected());
        assert_eq!(report.stats.misspeculations, 0);
    }

    /// Iteration `i` of every invocation increments cell `i` through the
    /// DOMORE shadow-memory scheduler.
    struct DomoreGrid {
        data: SharedSlice<u64>,
        invocations: usize,
    }

    impl DomoreWorkload for DomoreGrid {
        fn num_invocations(&self) -> usize {
            self.invocations
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.data.len()
        }
        fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
            out.push(iter);
        }
        fn execute_iteration(&self, _inv: usize, iter: usize, _tid: ThreadId) {
            // SAFETY: conflicting iterations are ordered by the runtime.
            unsafe { self.data.update(iter, |v| *v += 1) };
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.data.len())
        }
    }

    #[test]
    fn domore_iteration_panic_is_a_typed_error_not_a_hang() {
        let w = DomoreGrid {
            data: SharedSlice::from_vec(vec![0; 8]),
            invocations: 5,
        };
        let err = DomoreRuntime::new(
            DomoreConfig::with_workers(3)
                .fault_plan(FaultPlan::default().worker_panic_at(1, 3))
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap_err();
        assert_eq!(err, DomoreError::IterationPanicked { inv: 1, iter: 3 });
    }

    /// Regression: a worker panic used to condemn the whole region
    /// immediately — every queued iteration everywhere was skipped. The
    /// scheduler now routes around the dead worker, so only the panicked
    /// iteration plus the (bounded) work already in flight to the corpse
    /// is lost; the live workers finish the region.
    #[test]
    fn domore_routes_around_a_dead_worker() {
        use std::sync::atomic::AtomicU64;

        struct Counting {
            inner: DomoreGrid,
            executed: AtomicU64,
        }
        impl DomoreWorkload for Counting {
            fn num_invocations(&self) -> usize {
                self.inner.num_invocations()
            }
            fn num_iterations(&self, inv: usize) -> usize {
                self.inner.num_iterations(inv)
            }
            fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
                self.inner.touched_addrs(inv, iter, out);
            }
            fn execute_iteration(&self, inv: usize, iter: usize, tid: ThreadId) {
                self.executed
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.inner.execute_iteration(inv, iter, tid);
            }
            fn address_space(&self) -> Option<usize> {
                self.inner.address_space()
            }
        }

        const CELLS: usize = 8;
        const INVOCATIONS: usize = 50;
        const QUEUE: usize = 4;
        let w = Counting {
            inner: DomoreGrid {
                data: SharedSlice::from_vec(vec![0; CELLS]),
                invocations: INVOCATIONS,
            },
            executed: AtomicU64::new(0),
        };
        let err = DomoreRuntime::new(
            DomoreConfig::with_workers(3)
                .queue_capacity(QUEUE)
                .fault_plan(FaultPlan::default().worker_panic_at(0, 3))
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap_err();
        // The first (and only) panic is the surfaced error.
        assert_eq!(err, DomoreError::IterationPanicked { inv: 0, iter: 3 });
        // At most the panicked iteration plus work already queued or
        // batched toward the dead worker can be lost (the scheduler batch
        // is 32 messages; leave slack for one extra in-flight batch).
        let total = (CELLS * INVOCATIONS) as u64;
        let lost_bound = 1 + (QUEUE + 2 * 32) as u64;
        let executed = w.executed.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            executed >= total - lost_bound,
            "live workers should finish the region: executed {executed} of {total} \
             (allowed loss {lost_bound})"
        );
        assert!(executed < total, "the panicked iteration itself never ran");
    }

    /// When every worker is dead the scheduler must cut the region short
    /// (abort) instead of spinning looking for a live thread.
    #[test]
    fn domore_all_workers_dead_terminates_with_the_panic_error() {
        let w = DomoreGrid {
            data: SharedSlice::from_vec(vec![0; 8]),
            invocations: 50,
        };
        let err = DomoreRuntime::new(
            DomoreConfig::with_workers(1)
                .fault_plan(FaultPlan::default().worker_panic_at(0, 2))
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap_err();
        assert_eq!(err, DomoreError::IterationPanicked { inv: 0, iter: 2 });
    }

    #[test]
    fn domore_delay_changes_timing_not_results() {
        let mut w = DomoreGrid {
            data: SharedSlice::from_vec(vec![0; 8]),
            invocations: 5,
        };
        DomoreRuntime::new(
            DomoreConfig::with_workers(3)
                .fault_plan(FaultPlan::default().delay_at(2, 4, 200))
                .watchdog(WATCHDOG),
        )
        .execute(&w)
        .unwrap();
        assert_eq!(w.data.snapshot(), vec![5; 8]);
    }

    /// Region isolation: a faulting region served by a [`RegionServer`]
    /// must leave a concurrently running clean neighbour *byte-identical*
    /// to a solo run — same misspeculation count, same conflict list, same
    /// degradation flag, same contained-fault ledger, same final memory.
    /// One matrix case per fault class the server must firewall: a worker
    /// panic, a checker death that degrades the region, and a forced
    /// misspeculation; plus a DOMORE neighbour case (the other runtime
    /// drawing from the same pool while SPECCROSS region A recovers).
    mod region_isolation {
        use std::sync::Arc;

        use super::*;
        use crossinvoc::server::{RegionReport, RegionServer};

        fn spec_config() -> SpecConfig {
            SpecConfig::with_workers(2)
                .checker_shards(1)
                .checkpoint_every(2)
                .watchdog(WATCHDOG)
        }

        /// The order-insensitive observable outcome of a SPECCROSS region.
        fn digest(w: &IncGrid, report: &crossinvoc_speccross::engine::SpecReport) -> String {
            format!(
                "misspec={} conflicts={:?} degraded={} contained={:?} cells={:?}",
                report.stats.misspeculations,
                report.conflicts,
                report.degraded,
                report.contained_faults,
                w.cells()
            )
        }

        /// Solo baseline: the clean grid through the classic scoped entry
        /// point, no pool, no neighbours.
        fn solo_digest() -> String {
            let w = IncGrid::new(8, 6);
            let report = SpecCrossEngine::<RangeSignature>::new(spec_config())
                .execute(&w)
                .unwrap();
            digest(&w, &report)
        }

        /// Runs clean region B concurrently with region A under `fault`,
        /// checks A's outcome with `check_a`, and returns B's digest.
        fn neighbour_digest(
            fault: FaultPlan,
            a_config: SpecConfig,
            check_a: impl FnOnce(&IncGrid, &RegionReport),
        ) -> String {
            // 3 slots per spec region (2 workers + 1 checker shard).
            let server = RegionServer::new(6);
            let a = Arc::new(IncGrid::new(8, 6));
            let b = Arc::new(IncGrid::new(8, 6));
            let ha = server.submit_spec::<RangeSignature, _>(
                1,
                a_config.fault_plan(fault),
                Arc::clone(&a),
            );
            let hb = server.submit_spec::<RangeSignature, _>(2, spec_config(), Arc::clone(&b));
            let ra = ha.join().expect("the faulting region must be contained");
            let rb = hb.join().expect("the clean region");
            check_a(&a, &ra);
            digest(&b, rb.spec().unwrap())
        }

        #[test]
        fn neighbour_unaffected_by_worker_panic_next_door() {
            let baseline = solo_digest();
            let b = neighbour_digest(
                FaultPlan::default().worker_panic_at(2, 3),
                spec_config(),
                |a, ra| {
                    let report = ra.spec().unwrap();
                    assert!(
                        report.contained_faults.iter().any(|f| matches!(
                            f,
                            ContainedFault::WorkerPanic { epoch: 2, task: 3 }
                        )),
                        "region A must contain its panic: {:?}",
                        report.contained_faults
                    );
                    assert_eq!(a.cells(), a.expected(), "region A still converges");
                },
            );
            assert_eq!(b, baseline, "worker panic in A must not leak into B");
        }

        #[test]
        fn neighbour_unaffected_by_checker_death_and_degrade_next_door() {
            let baseline = solo_digest();
            let b = neighbour_digest(
                FaultPlan::default().checker_death_at(1),
                spec_config().degrade(DegradePolicy::default()),
                |a, ra| {
                    let report = ra.spec().unwrap();
                    assert!(report.degraded, "region A must degrade to barriers");
                    assert_eq!(a.cells(), a.expected(), "region A still converges");
                },
            );
            assert_eq!(b, baseline, "A's degradation must not leak into B");
        }

        #[test]
        fn neighbour_unaffected_by_forced_misspeculation_next_door() {
            let baseline = solo_digest();
            let b = neighbour_digest(
                FaultPlan::default().false_positive_at(3),
                spec_config(),
                |a, ra| {
                    let report = ra.spec().unwrap();
                    assert!(report.stats.misspeculations >= 1, "A must roll back");
                    assert_eq!(a.cells(), a.expected(), "region A still converges");
                },
            );
            assert_eq!(b, baseline, "A's rollback must not leak into B");
        }

        fn dom_cells(g: &DomoreGrid) -> Vec<u64> {
            (0..g.data.len())
                .map(|i| unsafe { g.data.read(i) })
                .collect()
        }

        /// Cross-runtime case: a clean DOMORE region keeps its solo result
        /// while a SPECCROSS neighbour on the same pool panics and recovers.
        #[test]
        fn domore_neighbour_unaffected_by_speccross_panic() {
            // Solo DOMORE baseline.
            let solo = DomoreGrid {
                data: SharedSlice::from_vec(vec![0; 8]),
                invocations: 6,
            };
            let solo_report = DomoreRuntime::new(DomoreConfig::with_workers(2).watchdog(WATCHDOG))
                .execute(&solo)
                .unwrap();
            let baseline = format!(
                "tasks={} sync={} cells={:?}",
                solo_report.stats.tasks,
                solo_report.stats.sync_conditions,
                dom_cells(&solo)
            );

            // 3 slots for the spec region + 2 for the DOMORE workers.
            let server = RegionServer::new(5);
            let a = Arc::new(IncGrid::new(8, 6));
            let b = Arc::new(DomoreGrid {
                data: SharedSlice::from_vec(vec![0; 8]),
                invocations: 6,
            });
            let ha = server.submit_spec::<RangeSignature, _>(
                1,
                spec_config().fault_plan(FaultPlan::default().worker_panic_at(2, 3)),
                Arc::clone(&a),
            );
            let hb = server.submit_domore(
                2,
                DomoreConfig::with_workers(2).watchdog(WATCHDOG),
                Arc::clone(&b),
            );
            ha.join().expect("the panicking spec region is contained");
            let rb = hb.join().expect("the clean domore region");
            let report = rb.domore().unwrap();
            let got = format!(
                "tasks={} sync={} cells={:?}",
                report.stats.tasks,
                report.stats.sync_conditions,
                dom_cells(&b)
            );
            assert_eq!(got, baseline, "A's panic must not leak into DOMORE B");
        }
    }

    /// The duplicated-scheduler variant has no fault hooks, so drive it with
    /// an organically panicking workload: containment must hold there too.
    #[test]
    fn duplicated_scheduler_contains_organic_panics() {
        struct Poisoned {
            inner: DomoreGrid,
        }
        impl DomoreWorkload for Poisoned {
            fn num_invocations(&self) -> usize {
                self.inner.num_invocations()
            }
            fn num_iterations(&self, inv: usize) -> usize {
                self.inner.num_iterations(inv)
            }
            fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
                self.inner.touched_addrs(inv, iter, out);
            }
            fn execute_iteration(&self, inv: usize, iter: usize, tid: ThreadId) {
                assert!(!(inv == 2 && iter == 5), "organic failure");
                self.inner.execute_iteration(inv, iter, tid);
            }
            fn address_space(&self) -> Option<usize> {
                self.inner.address_space()
            }
        }
        let w = Poisoned {
            inner: DomoreGrid {
                data: SharedSlice::from_vec(vec![0; 8]),
                invocations: 5,
            },
        };
        let err = DuplicatedScheduler::new(3).execute(&w).unwrap_err();
        assert_eq!(err, DomoreError::IterationPanicked { inv: 2, iter: 5 });
    }
}
