//! Dependence-distance profiling (§4.4, Table 5.3).
//!
//! Before speculating, SPECCROSS profiles the program on a training input:
//! every task's signature is compared against tasks of earlier epochs, and
//! the *dependence distance* of each task's nearest conflicting
//! predecessor — the number of tasks separating them in the sequential
//! (epoch-major) order — is recorded. The minimum observed distance
//! parameterizes the speculative-range gate at run time: the leading thread
//! is never allowed to run more than that many tasks ahead of the trailing
//! thread, so profiled dependences cannot manifest as misspeculation. If no
//! conflict is ever observed the distance is unbounded (the `*` entries of
//! Table 5.3).

use std::collections::VecDeque;

use crossinvoc_runtime::signature::AccessSignature;

use crate::summary::SummaryTree;

/// Outcome of a profiling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileReport {
    /// Minimum tasks between two cross-epoch conflicting tasks, or `None`
    /// if no conflict manifested (Table 5.3 prints `*`).
    pub min_distance: Option<u64>,
    /// Tasks whose nearest conflicting earlier-epoch task (within the
    /// window) lay no farther than the minimum distance at the time the
    /// task was recorded. Each task adds at most 1, however many
    /// predecessors it conflicts with; this is not a count of pairs.
    pub conflicts: u64,
    /// Tasks profiled.
    pub tasks: u64,
    /// Epochs profiled.
    pub epochs: u64,
}

impl ProfileReport {
    /// Whether speculation is recommended: either no conflict manifested or
    /// the closest one is farther than `threshold` tasks apart (the thesis
    /// defaults the threshold to the worker count, §4.4).
    pub fn recommends_speculation(&self, threshold: u64) -> bool {
        match self.min_distance {
            None => true,
            Some(d) => d >= threshold,
        }
    }
}

/// One finished epoch still inside the window.
#[derive(Debug)]
struct Bucket<S> {
    epoch: u32,
    /// Global index of the epoch's first task.
    first_index: u64,
    tree: SummaryTree<S>,
}

/// Streaming minimum-dependence-distance profiler.
///
/// Feed tasks in sequential order with [`DistanceProfiler::epoch_boundary`]
/// between epochs; read the result with [`DistanceProfiler::report`].
///
/// Signatures are retained for a sliding window of epochs
/// (`window_epochs`). Conflicts farther apart than the window are ignored,
/// which only ever *under*-reports safety margins (the gate becomes more
/// conservative, never less sound).
///
/// Each retained epoch is summarized by a union tree, so a task costs
/// O(`window_epochs` × log tasks-per-epoch) signature tests instead of one
/// per retained task.
#[derive(Debug)]
pub struct DistanceProfiler<S> {
    window_epochs: u32,
    /// Finished epochs of the window, oldest first.
    finished: VecDeque<Bucket<S>>,
    /// The current epoch's tasks. Never queried: a same-epoch pair cannot
    /// violate a barrier.
    current: SummaryTree<S>,
    /// Trees of retired epochs, reused so that steady-state profiling
    /// allocates nothing per epoch.
    spare: Vec<SummaryTree<S>>,
    current_epoch: u32,
    next_task: u64,
    min_distance: Option<u64>,
    conflicts: u64,
    comparisons: u64,
}

impl<S: AccessSignature> DistanceProfiler<S> {
    /// Creates a profiler comparing each task against the previous
    /// `window_epochs` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `window_epochs` is zero.
    pub fn new(window_epochs: u32) -> Self {
        assert!(window_epochs > 0, "window must cover at least one epoch");
        Self {
            window_epochs,
            finished: VecDeque::new(),
            current: SummaryTree::default(),
            spare: Vec::new(),
            current_epoch: 0,
            next_task: 0,
            min_distance: None,
            conflicts: 0,
            comparisons: 0,
        }
    }

    /// Records the end of the current epoch.
    pub fn epoch_boundary(&mut self) {
        self.current_epoch += 1;
        let keep_from = self.current_epoch.saturating_sub(self.window_epochs);
        while self.finished.front().is_some_and(|b| b.epoch < keep_from) {
            let mut retired = self.finished.pop_front().expect("checked non-empty");
            retired.tree.clear();
            self.spare.push(retired.tree);
        }
        if self.current.len() > 0 {
            let next = self.spare.pop().unwrap_or_default();
            let tree = std::mem::replace(&mut self.current, next);
            self.finished.push_back(Bucket {
                epoch: self.current_epoch - 1,
                first_index: self.next_task - tree.len() as u64,
                tree,
            });
        }
    }

    /// Records the next task in sequential order.
    ///
    /// Earlier epochs are searched newest first for the task's nearest
    /// conflicting predecessor, no farther than the current minimum. The
    /// search stops at the first one found, so the reported minimum is
    /// exact and each task adds at most one to `conflicts`.
    pub fn record_task(&mut self, sig: S) {
        let index = self.next_task;
        self.next_task += 1;
        if !sig.is_empty() {
            // Oldest task index still within the running minimum.
            let lo = self.min_distance.map_or(0, |d| index.saturating_sub(d));
            for bucket in self.finished.iter_mut().rev() {
                let end = bucket.first_index + bucket.tree.len() as u64;
                if end <= lo {
                    break; // older epochs are farther still
                }
                let lo_member = lo.saturating_sub(bucket.first_index) as usize;
                if let Some(i) = bucket
                    .tree
                    .newest_conflict(&sig, lo_member, &mut self.comparisons)
                {
                    self.conflicts += 1;
                    self.min_distance = Some(index - (bucket.first_index + i as u64));
                    break;
                }
            }
        }
        self.current.push(sig);
    }

    /// Signature tests made so far: every member and union comparison of
    /// [`DistanceProfiler::record_task`]. Deterministic for a given task
    /// stream, so it pins the search's cost.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Finalizes the profile.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            min_distance: self.min_distance,
            conflicts: self.conflicts,
            tasks: self.next_task,
            epochs: self.current_epoch as u64 + u64::from(self.current.len() > 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::{AccessKind, RangeSignature};

    fn sig(addr: usize) -> RangeSignature {
        let mut s = RangeSignature::empty();
        s.record(addr, AccessKind::Write);
        s
    }

    #[test]
    fn no_conflicts_reports_unbounded_distance() {
        let mut p = DistanceProfiler::new(4);
        for epoch in 0..3 {
            for task in 0..5 {
                p.record_task(sig(epoch * 5 + task));
            }
            p.epoch_boundary();
        }
        let r = p.report();
        assert_eq!(r.min_distance, None);
        assert_eq!(r.conflicts, 0);
        assert_eq!(r.tasks, 15);
        assert!(r.recommends_speculation(24));
    }

    #[test]
    fn adjacent_epoch_conflict_distance() {
        let mut p = DistanceProfiler::new(4);
        // Epoch 0: tasks 0..4 write cells 0..4.
        for task in 0..4 {
            p.record_task(sig(task));
        }
        p.epoch_boundary();
        // Epoch 1: task 4 (global) writes cell 1 → conflicts with global
        // task 1 at distance 3.
        p.record_task(sig(1));
        let r = p.report();
        assert_eq!(r.min_distance, Some(3));
        assert_eq!(r.conflicts, 1);
        assert!(!r.recommends_speculation(8));
        assert!(r.recommends_speculation(3));
    }

    #[test]
    fn same_epoch_conflicts_are_ignored() {
        let mut p = DistanceProfiler::new(4);
        p.record_task(sig(7));
        p.record_task(sig(7)); // same epoch: never a barrier violation
        assert_eq!(p.report().conflicts, 0);
    }

    #[test]
    fn minimum_is_kept_over_many_conflicts() {
        let mut p = DistanceProfiler::new(8);
        for task in 0..10 {
            p.record_task(sig(task));
        }
        p.epoch_boundary();
        p.record_task(sig(0)); // distance 10
        p.record_task(sig(9)); // distance 2
        let r = p.report();
        assert_eq!(r.min_distance, Some(2));
        assert_eq!(r.conflicts, 2);
    }

    #[test]
    fn window_limits_comparisons() {
        let mut p = DistanceProfiler::new(1);
        p.record_task(sig(5));
        p.epoch_boundary();
        p.record_task(sig(42));
        p.epoch_boundary();
        // Epoch 2 conflicts only with epoch 0, which fell out of the window.
        p.record_task(sig(5));
        assert_eq!(p.report().conflicts, 0);
    }

    #[test]
    fn empty_signatures_are_cheap() {
        let mut p: DistanceProfiler<RangeSignature> = DistanceProfiler::new(2);
        p.record_task(RangeSignature::empty());
        p.epoch_boundary();
        p.record_task(RangeSignature::empty());
        assert_eq!(p.report().conflicts, 0);
        assert_eq!(p.report().tasks, 2);
    }

    #[test]
    fn a_task_conflicting_with_several_predecessors_counts_once() {
        let mut read7 = RangeSignature::empty();
        read7.record(7, AccessKind::Read);
        let mut p = DistanceProfiler::new(4);
        // Tasks 0..6 of three epochs all read cell 7: reads never conflict.
        for _ in 0..3 {
            p.record_task(read7.clone());
            p.record_task(read7.clone());
            p.epoch_boundary();
        }
        assert_eq!(p.report().conflicts, 0);
        // Task 6 writes cell 7: a dependence on all six readers.
        p.record_task(sig(7));
        let r = p.report();
        assert_eq!(r.min_distance, Some(1), "nearest reader is task 5");
        assert_eq!(r.conflicts, 1, "one task, one count");
    }

    #[test]
    fn retired_epochs_are_recycled() {
        let mut p = DistanceProfiler::new(3);
        for epoch in 0..50 {
            for task in 0..(epoch % 7 + 1) {
                p.record_task(sig(epoch * 8 + task));
            }
            p.epoch_boundary();
        }
        assert_eq!(p.finished.len(), 3);
        assert!(
            p.finished.len() + p.spare.len() <= 4,
            "a new tree is allocated only while the window fills"
        );
        assert_eq!(p.report().conflicts, 0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = DistanceProfiler::<RangeSignature>::new(0);
    }
}
