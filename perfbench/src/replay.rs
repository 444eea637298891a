//! Deterministic replay of a kernel's signature stream through the
//! SPECCROSS checker.
//!
//! The live checker's comparison count depends on how far it lags the
//! workers, so it does not repeat from run to run. The replay fixes the
//! interleaving instead: `workers` workers take tasks round-robin (worker
//! `w` runs tasks `w, w+W, …` of each epoch, as the engine does) and advance
//! in lockstep, one task each per step. Within a step each worker in id
//! order publishes its start position and snapshots the board; then every
//! worker retires its task, and the requests are admitted in worker order
//! through [`CheckerState::admit`]. At every `checkpoint_every`-th epoch the
//! workers meet and the log is cut with [`CheckerState::retire_before`],
//! as the engine's checkpoint does. No speculative-range gate is applied.
//! The admit count and comparison count therefore repeat exactly for a
//! given stream; only the admission time is measured.

use std::time::Instant;

use crossinvoc_runtime::signature::{AccessSignature, RangeSignature};
use crossinvoc_speccross::{CheckRequest, CheckerState, Position};

/// One checker operation of the fixed schedule.
#[derive(Debug)]
pub enum Step {
    Admit(CheckRequest<RangeSignature>),
    RetireBefore(u32),
}

/// Builds the lockstep schedule for `stream[epoch][task]`.
pub fn schedule(
    stream: &[Vec<RangeSignature>],
    workers: usize,
    checkpoint_every: usize,
) -> Vec<Step> {
    assert!(
        workers > 0 && checkpoint_every > 0,
        "validated by the caller"
    );
    // Per worker: (epoch, task index within the epoch, local task number).
    let mut cursor: Vec<(usize, usize, u32)> = (0..workers).map(|w| (0, w, 0)).collect();
    let mut board = vec![Position::ZERO; workers];
    let mut next_checkpoint = checkpoint_every;
    let mut steps = Vec::new();
    loop {
        let mut started = Vec::with_capacity(workers);
        for (w, cur) in cursor.iter_mut().enumerate() {
            // Skip epochs in which this worker has no task left.
            while cur.0 < stream.len() && cur.1 >= stream[cur.0].len() {
                *cur = (cur.0 + 1, w, 0);
            }
            if cur.0 >= stream.len() || cur.0 >= next_checkpoint {
                continue; // finished, or waiting at the checkpoint
            }
            let pos = Position {
                epoch: cur.0 as u32,
                task: cur.2,
            };
            board[w] = pos;
            let snapshot: Box<[Position]> = board.clone().into_boxed_slice();
            started.push((w, pos, cur.1, snapshot));
            cur.1 += workers;
            cur.2 += 1;
        }
        if started.is_empty() {
            if cursor.iter().all(|c| c.0 >= stream.len()) {
                return steps;
            }
            steps.push(Step::RetireBefore(next_checkpoint as u32));
            next_checkpoint += checkpoint_every;
            continue;
        }
        for (w, pos, task, snapshot) in started {
            board[w] = Position {
                epoch: pos.epoch,
                task: pos.task + 1,
            };
            let sig = &stream[pos.epoch as usize][task];
            if !sig.is_empty() {
                steps.push(Step::Admit(CheckRequest {
                    tid: w,
                    pos,
                    snapshot,
                    sig: sig.clone(),
                }));
            }
        }
    }
}

/// Counts and time of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    pub admits: u64,
    pub comparisons: u64,
    pub admit_ns: u64,
}

/// Runs `steps` through a fresh checker with epoch summaries on (the
/// engine default).
pub fn replay(steps: Vec<Step>, workers: usize) -> Replay {
    let mut checker = CheckerState::<RangeSignature>::new(workers);
    let mut admits = 0;
    let start = Instant::now();
    for step in steps {
        match step {
            Step::Admit(req) => {
                admits += 1;
                // A replay has no rollback: a conflict verdict is counted
                // as comparisons like any other admission.
                checker.admit(req);
            }
            Step::RetireBefore(epoch) => checker.retire_before(epoch),
        }
    }
    let admit_ns = start.elapsed().as_nanos() as u64;
    Replay {
        admits,
        comparisons: checker.comparisons(),
        admit_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::AccessKind;

    fn sig(addr: usize) -> RangeSignature {
        let mut s = RangeSignature::empty();
        s.record(addr, AccessKind::Write);
        s
    }

    #[test]
    fn counts_repeat_exactly() {
        // 4 epochs of 3 tasks; task t writes cell t (chains stay apart).
        let stream: Vec<Vec<RangeSignature>> = (0..4).map(|_| (0..3).map(sig).collect()).collect();
        let a = replay(schedule(&stream, 2, 1000), 2);
        let b = replay(schedule(&stream, 2, 1000), 2);
        assert_eq!(a.admits, 12);
        assert_eq!(a.comparisons, b.comparisons);
        assert!(a.comparisons > 0, "overlapping epochs are compared");
    }

    #[test]
    fn checkpoints_cut_the_log() {
        let stream: Vec<Vec<RangeSignature>> = (0..6).map(|_| (0..2).map(sig).collect()).collect();
        let steps = schedule(&stream, 2, 2);
        let retires: Vec<u32> = steps
            .iter()
            .filter_map(|s| match s {
                Step::RetireBefore(e) => Some(*e),
                Step::Admit(_) => None,
            })
            .collect();
        assert_eq!(retires, vec![2, 4]);
    }
}
