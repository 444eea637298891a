//! The pure DOMORE scheduler algorithm (Alg. 1 of the thesis).
//!
//! Given the accesses of the next iteration and the worker it was assigned
//! to, [`SchedulerLogic`] consults shadow memory and emits the
//! [`SyncCondition`]s the assigned worker must wait on before running the
//! iteration. The logic is deliberately free of threads and clocks: the real
//! runtime drives it from the scheduler thread, the duplicated-scheduler
//! variant replicates it on every worker, and the discrete-event simulator
//! replays it to compute idealized timelines — all three therefore make
//! *identical* synchronization decisions.
//!
//! Shadow entries distinguish the last *writer* from the *readers since
//! that write*: a new write must wait for the previous writer and all of
//! its readers; a new read waits only for the writer. Iterations that
//! merely share read data (the gather patterns of stencils and SPH
//! neighbourhoods) are therefore never serialized. The thesis' shadow
//! (§3.2.1) records a single last-accessor tuple — equivalent to treating
//! every access as a write — which [`SchedulerLogic::schedule`] preserves
//! for callers without read/write information.

use std::collections::HashMap;

use crossinvoc_runtime::{IterNum, ThreadId};

/// "Wait until worker `dep_tid` has finished combined iteration `dep_iter`."
///
/// This is the `(depId, depIterNum)` tuple of §3.2.2, forwarded from the
/// scheduler to a worker ahead of a conflicting iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncCondition {
    /// Worker that must make progress first.
    pub dep_tid: ThreadId,
    /// Combined iteration number that must have retired.
    pub dep_iter: IterNum,
}

/// Last accessor coordinates of one owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owner {
    tid: ThreadId,
    iter: IterNum,
}

/// Per-address dependence state: the last writer plus every reader since.
#[derive(Debug, Clone, Default)]
struct RwEntry {
    writer: Option<Owner>,
    /// Latest read per worker since the last write (small: bounded by the
    /// worker count).
    readers: Vec<Owner>,
}

impl RwEntry {
    fn record_reader(&mut self, tid: ThreadId, iter: IterNum) {
        match self.readers.iter_mut().find(|r| r.tid == tid) {
            Some(r) => r.iter = r.iter.max(iter),
            None => self.readers.push(Owner { tid, iter }),
        }
    }
}

/// Address-indexed dependence state.
#[derive(Debug)]
enum RwShadow {
    Dense(Vec<RwEntry>),
    Sparse(HashMap<usize, RwEntry>),
}

impl RwShadow {
    fn entry(&mut self, addr: usize) -> &mut RwEntry {
        match self {
            RwShadow::Dense(v) => &mut v[addr],
            RwShadow::Sparse(m) => m.entry(addr).or_default(),
        }
    }

    fn clear(&mut self) {
        match self {
            RwShadow::Dense(v) => v.iter_mut().for_each(|e| *e = RwEntry::default()),
            RwShadow::Sparse(m) => m.clear(),
        }
    }
}

/// Shadow-memory-driven synchronization-condition generator.
///
/// One instance is owned by whichever agent plays the scheduler role. The
/// combined iteration counter (Fig. 3.5's global numbering) lives here so
/// callers cannot desynchronize it from the shadow state.
#[derive(Debug)]
pub struct SchedulerLogic {
    shadow: RwShadow,
    next_iter: IterNum,
}

impl SchedulerLogic {
    /// Creates logic with dense shadow memory covering `0..address_space`.
    pub fn with_dense_shadow(address_space: usize) -> Self {
        Self {
            shadow: RwShadow::Dense(vec![RwEntry::default(); address_space]),
            next_iter: 0,
        }
    }

    /// Creates logic with sparse shadow memory.
    pub fn with_sparse_shadow() -> Self {
        Self {
            shadow: RwShadow::Sparse(HashMap::new()),
            next_iter: 0,
        }
    }

    /// The combined iteration number the next call to
    /// [`schedule`](Self::schedule) will assign.
    pub fn next_iter_num(&self) -> IterNum {
        self.next_iter
    }

    /// Runs Alg. 1 for one iteration without read/write information: every
    /// address is treated as written (the thesis' single-tuple shadow).
    ///
    /// Returns the combined iteration number assigned to this iteration.
    pub fn schedule(
        &mut self,
        tid: ThreadId,
        addrs: &[usize],
        conditions: &mut Vec<SyncCondition>,
    ) -> IterNum {
        self.schedule_rw(tid, addrs, &[], conditions)
    }

    /// Runs Alg. 1 for one iteration with its write and read address sets.
    ///
    /// Appends to `conditions` one [`SyncCondition`] per dynamic dependence
    /// on a *different* worker — writes wait for the previous writer and
    /// every reader since; reads wait for the previous writer only.
    /// Dependences on the same worker need no condition (program order on
    /// that worker already serializes them, the `depTid != tid` test of
    /// Alg. 1), and duplicate conditions on one predecessor coalesce to the
    /// strongest. Returns the combined iteration number assigned.
    pub fn schedule_rw(
        &mut self,
        tid: ThreadId,
        writes: &[usize],
        reads: &[usize],
        conditions: &mut Vec<SyncCondition>,
    ) -> IterNum {
        let iter = self.next_iter;
        self.next_iter += 1;
        fn add(conditions: &mut Vec<SyncCondition>, tid: ThreadId, dep: Owner) {
            if dep.tid == tid {
                return;
            }
            match conditions.iter_mut().find(|c| c.dep_tid == dep.tid) {
                Some(c) => c.dep_iter = c.dep_iter.max(dep.iter),
                None => conditions.push(SyncCondition {
                    dep_tid: dep.tid,
                    dep_iter: dep.iter,
                }),
            }
        }
        for &addr in writes {
            let entry = self.shadow.entry(addr);
            if let Some(w) = entry.writer {
                add(conditions, tid, w);
            }
            for &r in entry.readers.iter() {
                add(conditions, tid, r);
            }
            entry.writer = Some(Owner { tid, iter });
            entry.readers.clear();
        }
        for &addr in reads {
            let entry = self.shadow.entry(addr);
            match entry.writer {
                // Reading our own write from this very iteration needs no
                // bookkeeping beyond the writer entry.
                Some(w) if w.tid == tid && w.iter == iter => {}
                Some(w) => {
                    add(conditions, tid, w);
                    entry.record_reader(tid, iter);
                }
                None => entry.record_reader(tid, iter),
            }
        }
        iter
    }

    /// Clears all dependence history (used between independent regions).
    pub fn reset(&mut self) {
        self.shadow.clear();
        self.next_iter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(
        logic: &mut SchedulerLogic,
        tid: ThreadId,
        addrs: &[usize],
    ) -> (IterNum, Vec<SyncCondition>) {
        let mut conds = Vec::new();
        let iter = logic.schedule(tid, addrs, &mut conds);
        (iter, conds)
    }

    fn schedule_rw(
        logic: &mut SchedulerLogic,
        tid: ThreadId,
        writes: &[usize],
        reads: &[usize],
    ) -> (IterNum, Vec<SyncCondition>) {
        let mut conds = Vec::new();
        let iter = logic.schedule_rw(tid, writes, reads, &mut conds);
        (iter, conds)
    }

    #[test]
    fn independent_iterations_need_no_synchronization() {
        let mut logic = SchedulerLogic::with_dense_shadow(16);
        let (i0, c0) = schedule(&mut logic, 0, &[1]);
        let (i1, c1) = schedule(&mut logic, 1, &[2]);
        assert_eq!((i0, i1), (0, 1));
        assert!(c0.is_empty() && c1.is_empty());
    }

    #[test]
    fn cross_worker_conflict_yields_condition() {
        let mut logic = SchedulerLogic::with_dense_shadow(16);
        let _ = schedule(&mut logic, 0, &[5]);
        let (_, c) = schedule(&mut logic, 1, &[5]);
        assert_eq!(
            c,
            vec![SyncCondition {
                dep_tid: 0,
                dep_iter: 0
            }]
        );
    }

    #[test]
    fn same_worker_conflict_needs_no_condition() {
        let mut logic = SchedulerLogic::with_dense_shadow(16);
        let _ = schedule(&mut logic, 0, &[5]);
        let (_, c) = schedule(&mut logic, 0, &[5]);
        assert!(c.is_empty(), "program order already serializes");
    }

    #[test]
    fn conditions_coalesce_to_strongest_per_worker() {
        let mut logic = SchedulerLogic::with_dense_shadow(16);
        schedule(&mut logic, 0, &[1]); // iter 0 on worker 0
        schedule(&mut logic, 0, &[2]); // iter 1 on worker 0
                                       // Worker 1 touches both: must wait for worker 0's iter 1 only.
        let (_, c) = schedule(&mut logic, 1, &[1, 2]);
        assert_eq!(
            c,
            vec![SyncCondition {
                dep_tid: 0,
                dep_iter: 1
            }]
        );
    }

    #[test]
    fn condition_names_most_recent_writer_only() {
        let mut logic = SchedulerLogic::with_dense_shadow(16);
        schedule(&mut logic, 0, &[3]); // iter 0
        schedule(&mut logic, 1, &[3]); // iter 1 waits on worker 0
        let (_, c) = schedule(&mut logic, 2, &[3]); // iter 2
                                                    // Transitivity: waiting on worker 1/iter 1 implies worker 0/iter 0
                                                    // already retired (worker 1 waited for it).
        assert_eq!(
            c,
            vec![SyncCondition {
                dep_tid: 1,
                dep_iter: 1
            }]
        );
    }

    /// The walkthrough of Fig. 3.5 / §3.2.4: accesses A1, A3, A3, A2
    /// round-robin on two workers. The third iteration (worker 0, second
    /// invocation) must wait for worker 1's iteration 1; everything else is
    /// free.
    #[test]
    fn cg_walkthrough_matches_figure_3_5() {
        let mut logic = SchedulerLogic::with_dense_shadow(4);
        // Original invocation 1, iterations accessing A1 then A3.
        let (i, c) = schedule(&mut logic, 0, &[1]);
        assert_eq!((i, c.len()), (0, 0));
        let (i, c) = schedule(&mut logic, 1, &[3]);
        assert_eq!((i, c.len()), (1, 0));
        // Invocation 2, iteration accessing A3 again → depends on (T2, I2)
        // which in our zero-based numbering is (tid 1, iter 1).
        let (i, c) = schedule(&mut logic, 0, &[3]);
        assert_eq!(i, 2);
        assert_eq!(
            c,
            vec![SyncCondition {
                dep_tid: 1,
                dep_iter: 1
            }]
        );
        // Invocation 2, iteration accessing A2: independent.
        let (i, c) = schedule(&mut logic, 1, &[2]);
        assert_eq!((i, c.len()), (3, 0));
    }

    #[test]
    fn reset_clears_history_and_numbering() {
        let mut logic = SchedulerLogic::with_sparse_shadow();
        schedule(&mut logic, 0, &[7]);
        logic.reset();
        assert_eq!(logic.next_iter_num(), 0);
        let (_, c) = schedule(&mut logic, 1, &[7]);
        assert!(c.is_empty(), "history cleared");
    }

    #[test]
    fn empty_address_set_is_always_independent() {
        let mut logic = SchedulerLogic::with_dense_shadow(4);
        let (_, c) = schedule(&mut logic, 0, &[]);
        assert!(c.is_empty());
    }

    // ---- read/write-aware behaviour ----

    #[test]
    fn shared_reads_never_synchronize() {
        // The gather pattern: many workers read one cell; no conditions.
        let mut logic = SchedulerLogic::with_dense_shadow(8);
        for tid in 0..4 {
            let (_, c) = schedule_rw(&mut logic, tid, &[], &[3]);
            assert!(c.is_empty(), "read-read must not serialize");
        }
    }

    #[test]
    fn read_waits_for_previous_writer() {
        let mut logic = SchedulerLogic::with_dense_shadow(8);
        schedule_rw(&mut logic, 0, &[3], &[]);
        let (_, c) = schedule_rw(&mut logic, 1, &[], &[3]);
        assert_eq!(
            c,
            vec![SyncCondition {
                dep_tid: 0,
                dep_iter: 0
            }]
        );
    }

    #[test]
    fn write_waits_for_every_reader_since_the_last_write() {
        let mut logic = SchedulerLogic::with_dense_shadow(8);
        schedule_rw(&mut logic, 0, &[3], &[]); // iter 0 writes
        schedule_rw(&mut logic, 1, &[], &[3]); // iter 1 reads
        schedule_rw(&mut logic, 2, &[], &[3]); // iter 2 reads
        let (_, mut c) = schedule_rw(&mut logic, 3, &[3], &[]); // iter 3 writes
        c.sort_by_key(|x| x.dep_tid);
        // Must wait for both readers (plus, conservatively, the writer they
        // are already ordered behind).
        assert_eq!(
            c,
            vec![
                SyncCondition {
                    dep_tid: 0,
                    dep_iter: 0
                },
                SyncCondition {
                    dep_tid: 1,
                    dep_iter: 1
                },
                SyncCondition {
                    dep_tid: 2,
                    dep_iter: 2
                },
            ]
        );
    }

    #[test]
    fn second_reader_still_waits_for_the_writer() {
        // W(t0) → R1(t1) → R2(t2): R2 must order against W even though R1
        // slid into the entry meanwhile.
        let mut logic = SchedulerLogic::with_dense_shadow(8);
        schedule_rw(&mut logic, 0, &[3], &[]);
        schedule_rw(&mut logic, 1, &[], &[3]);
        let (_, c) = schedule_rw(&mut logic, 2, &[], &[3]);
        assert_eq!(
            c,
            vec![SyncCondition {
                dep_tid: 0,
                dep_iter: 0
            }]
        );
    }

    #[test]
    fn own_write_then_read_needs_nothing() {
        let mut logic = SchedulerLogic::with_dense_shadow(8);
        let (_, c) = schedule_rw(&mut logic, 0, &[3], &[3]);
        assert!(c.is_empty());
        // A later writer on another worker waits only for the writer entry.
        let (_, c) = schedule_rw(&mut logic, 1, &[3], &[]);
        assert_eq!(
            c,
            vec![SyncCondition {
                dep_tid: 0,
                dep_iter: 0
            }]
        );
    }

    #[test]
    fn schedule_treats_everything_as_writes() {
        // Back-compat: the kind-less entry point reproduces the thesis'
        // conservative single-tuple shadow.
        let mut a = SchedulerLogic::with_dense_shadow(8);
        let mut b = SchedulerLogic::with_dense_shadow(8);
        let stream: &[(usize, &[usize])] = &[(0, &[1, 2]), (1, &[2]), (2, &[1])];
        for &(tid, addrs) in stream {
            let (_, ca) = schedule(&mut a, tid, addrs);
            let (_, cb) = schedule_rw(&mut b, tid, addrs, &[]);
            assert_eq!(ca, cb);
        }
    }
}
