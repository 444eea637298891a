//! The summary-tree distance profiler reports exactly what a linear
//! newest-first scan of the window reports, and does far less work.
//!
//! `LinearProfiler` below is the plain scan the tree search replaced, kept
//! here as the reference: every task is compared with every retained task
//! of earlier epochs, newest first, until a conflict or the running minimum
//! ends the scan.

use crossinvoc_runtime::signature::{AccessKind, AccessSignature, RangeSignature};
use crossinvoc_runtime::BloomSignature;
use crossinvoc_sim::SimWorkload;
use crossinvoc_speccross::{DistanceProfiler, ProfileReport};
use crossinvoc_workloads::kernel::profile_distance;
use crossinvoc_workloads::{registry, Scale};
use proptest::prelude::*;

/// The linear-scan reference profiler.
struct LinearProfiler<S> {
    window_epochs: u32,
    /// `(epoch, global_task_index, signature)` for retained tasks.
    history: Vec<(u32, u64, S)>,
    current_epoch: u32,
    next_task: u64,
    tasks_in_current_epoch: u64,
    min_distance: Option<u64>,
    conflicts: u64,
}

impl<S: AccessSignature> LinearProfiler<S> {
    fn new(window_epochs: u32) -> Self {
        Self {
            window_epochs,
            history: Vec::new(),
            current_epoch: 0,
            next_task: 0,
            tasks_in_current_epoch: 0,
            min_distance: None,
            conflicts: 0,
        }
    }

    fn epoch_boundary(&mut self) {
        self.current_epoch += 1;
        self.tasks_in_current_epoch = 0;
        let keep_from = self.current_epoch.saturating_sub(self.window_epochs);
        self.history.retain(|&(e, _, _)| e >= keep_from);
    }

    fn record_task(&mut self, sig: S) {
        let index = self.next_task;
        self.next_task += 1;
        self.tasks_in_current_epoch += 1;
        if !sig.is_empty() {
            for (epoch, past_index, past_sig) in self.history.iter().rev() {
                let distance = index - past_index;
                if let Some(d) = self.min_distance {
                    if distance > d {
                        break; // older entries are farther still
                    }
                }
                if *epoch != self.current_epoch && sig.conflicts_with(past_sig) {
                    self.conflicts += 1;
                    self.min_distance = Some(match self.min_distance {
                        Some(d) => d.min(distance),
                        None => distance,
                    });
                }
            }
        }
        self.history.push((self.current_epoch, index, sig));
    }

    fn report(&self) -> ProfileReport {
        ProfileReport {
            min_distance: self.min_distance,
            conflicts: self.conflicts,
            tasks: self.next_task,
            epochs: self.current_epoch as u64 + u64::from(self.tasks_in_current_epoch > 0),
        }
    }
}

/// A model's task signatures, one vector per epoch: whole epochs while
/// they hold at most `max_tasks` tasks, and at least [`MIN_EPOCHS`] (or
/// all the model has).
fn signatures(model: &dyn SimWorkload, max_tasks: usize) -> Vec<Vec<RangeSignature>> {
    let mut pairs = Vec::new();
    let mut tasks = 0;
    let mut epochs = Vec::new();
    for inv in 0..model.num_invocations() {
        tasks += model.num_iterations(inv);
        if tasks > max_tasks && epochs.len() >= MIN_EPOCHS {
            break;
        }
        let epoch = (0..model.num_iterations(inv))
            .map(|iter| {
                pairs.clear();
                model.accesses(inv, iter, &mut pairs);
                let mut sig = RangeSignature::empty();
                for &(addr, kind) in &pairs {
                    sig.record(addr, kind);
                }
                sig
            })
            .collect();
        epochs.push(epoch);
    }
    epochs
}

/// Feeds `epochs` to the tree profiler.
fn tree_profile<S: AccessSignature>(epochs: &[Vec<S>], window: u32) -> DistanceProfiler<S> {
    let mut p = DistanceProfiler::new(window);
    for epoch in epochs {
        for sig in epoch {
            p.record_task(sig.clone());
        }
        p.epoch_boundary();
    }
    p
}

/// Feeds `epochs` to the reference.
fn linear_profile<S: AccessSignature>(epochs: &[Vec<S>], window: u32) -> ProfileReport {
    let mut p = LinearProfiler::new(window);
    for epoch in epochs {
        for sig in epoch {
            p.record_task(sig.clone());
        }
        p.epoch_boundary();
    }
    p.report()
}

/// Tasks of a Figure-scale model compared against the reference. The
/// reference pays O(window × tasks per epoch) tests per task, which whole
/// Figure-scale models (a million SYMM tasks) cannot afford in a debug
/// test build. The prefix still spans 140 SYMM epochs, and the
/// [`MIN_EPOCHS`] floor gives FLUIDANIMATE's 900-task epochs five-level
/// trees.
const FIGURE_PREFIX_TASKS: usize = 10_000;

/// Epochs every compared prefix holds, more than the largest window.
const MIN_EPOCHS: usize = 10;

/// Every Table 5.1 model, at both scales and windows 1..=8, profiles to
/// the reference's report (Figure scale on a prefix, see above).
#[test]
fn registry_profiles_match_the_linear_scan() {
    let compare = |scale: Scale, max_tasks: usize| {
        std::thread::scope(|s| {
            for info in registry() {
                s.spawn(move || {
                    let epochs = signatures(&*info.model(scale), max_tasks);
                    for window in 1..=8 {
                        assert_eq!(
                            tree_profile(&epochs, window).report(),
                            linear_profile(&epochs, window),
                            "{} at {scale:?}, window {window}",
                            info.name
                        );
                    }
                });
            }
        });
    };
    compare(Scale::Test, usize::MAX);
    compare(Scale::Figure, FIGURE_PREFIX_TASKS);
}

/// The shared entry point feeds the profiler the same stream.
#[test]
fn profile_distance_matches_the_stream() {
    for info in registry() {
        let model = info.model(Scale::Test);
        let epochs = signatures(&*model, usize::MAX);
        assert_eq!(
            profile_distance(&*model, 6),
            tree_profile(&epochs, 6).report(),
            "{}",
            info.name
        );
    }
}

/// The search does a bounded number of signature tests per task on a
/// kernel with no profiled conflict, where the reference pays for every
/// retained task. Figure-scale LLUBENCH at window 6 has 110,000 tasks in
/// 2,000 epochs; the reference makes 329 tests per task, the tree one root
/// test per retained epoch (6). The count is deterministic, so a return to
/// a linear scan fails here.
#[test]
fn conflict_free_kernel_costs_few_tests_per_task() {
    const MAX_TESTS_PER_TASK: u64 = 6;
    let model = crossinvoc_workloads::registry::by_name("LLUBENCH").model(Scale::Figure);
    let epochs = signatures(&*model, usize::MAX);
    let profiler = tree_profile(&epochs, 6);
    let report = profiler.report();
    assert_eq!(report.min_distance, None, "LLUBENCH profiles conflict-free");
    assert!(
        profiler.comparisons() <= MAX_TESTS_PER_TASK * report.tasks,
        "{} tests for {} tasks",
        profiler.comparisons(),
        report.tasks
    );
}

/// One step of a random stream: a roll that decides whether the step is an
/// epoch boundary, and the accesses of the task it records otherwise
/// (possibly none, giving an empty signature).
type Step = (u32, Vec<(usize, bool)>);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            any::<u32>(),
            prop::collection::vec((0usize..48, any::<bool>()), 0..4),
        ),
        0..300,
    )
}

/// Feeds `steps` to both profilers, a boundary wherever the roll is a
/// multiple of `period`, and compares their reports after every step.
fn assert_same_after_every_step<S: AccessSignature>(steps: &[Step], period: u32, window: u32) {
    let mut tree = DistanceProfiler::<S>::new(window);
    let mut linear = LinearProfiler::<S>::new(window);
    for (roll, accesses) in steps {
        if roll % period == 0 {
            tree.epoch_boundary();
            linear.epoch_boundary();
        } else {
            let mut sig = S::empty();
            for &(addr, write) in accesses {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                sig.record(addr, kind);
            }
            tree.record_task(sig.clone());
            linear.record_task(sig);
        }
        assert_eq!(tree.report(), linear.report());
    }
}

proptest! {
    /// Random streams, with empty signatures and epochs, epochs of up to
    /// about 60 tasks and windows from 1, give the reference's report after
    /// every step, under both signature schemes.
    #[test]
    fn random_streams_match_the_linear_scan(
        steps in steps(),
        period in 1u32..60,
        window in 1u32..5,
    ) {
        assert_same_after_every_step::<RangeSignature>(&steps, period, window);
        assert_same_after_every_step::<BloomSignature>(&steps, period, window);
    }
}
