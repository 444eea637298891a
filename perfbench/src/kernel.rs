//! The benchmark-side kernel wrapper and model helpers.
//!
//! [`BenchKernel`] wraps the repository's `AccessKernel`, which performs
//! each task's declared memory accesses but no compute, and adds the
//! model's `iteration_cost` as [`burn`] work after the accesses. Memory
//! effects, and therefore the oracle checksum, are exactly
//! `AccessKernel`'s. In traced rounds the wrapper also times task bodies,
//! recorder calls, `touched`/`touched_addrs` and checkpoint
//! snapshots/restores, and can capture the signature stream.
//!
//! # Spec-DOALL kernels
//!
//! `AccessKernel`'s `SpecWorkload::execute_task` performs its writes
//! through a `SharedSlice` under a SAFETY argument that same-invocation
//! tasks write disjoint cells. That holds for DOALL and LOCALWRITE inner
//! loops, whose iterations are independent by construction, and it is the
//! contract SPECCROSS and the barrier engine rely on: neither orders two
//! tasks of one epoch. It does not hold for the Spec-DOALL programs
//! (BLACKSCHOLES, ECLAT), whose inner loops carry rare intra-invocation
//! dependences. Run under barriers or SPECCROSS, such a pair races and the
//! final checksum can differ from the oracle. The benchmark therefore runs
//! Spec-DOALL kernels only sequentially and under DOMORE, whose scheduler
//! orders every conflicting pair, same-invocation pairs included.

use std::time::Instant;

use crossinvoc_domore::DomoreWorkload;
use crossinvoc_runtime::signature::{AccessKind, RangeSignature};
use crossinvoc_runtime::ThreadId;
use crossinvoc_sim::SimWorkload;
use crossinvoc_speccross::workload::{AccessRecorder, NullRecorder, SigRecorder, SpecWorkload};
use crossinvoc_workloads::{
    blackscholes, cg, eclat, fdtd, jacobi, llubench, symm, AccessKernel, Scale,
};

use crate::burn::burn;
use crate::probe;

/// A boxed workload model, as the registry hands them out.
pub type Model = Box<dyn SimWorkload + Send + Sync>;

/// Builds registry kernel `name` at `scale` from the benchmark's seed.
///
/// The registry's own `BenchmarkInfo::model` fixes its seed; the benchmark
/// passes `--seed` straight into each constructor instead, so every seed
/// gives other inputs of the same shape.
pub fn model(name: &str, scale: Scale, seed: u64) -> Model {
    match name {
        "SYMM" => Box::new(symm::Symm::new(scale, seed)),
        "LLUBENCH" => Box::new(llubench::Llubench::new(scale, seed)),
        "JACOBI" => Box::new(jacobi::Jacobi::new(scale, seed)),
        "CG" => Box::new(cg::Cg::new(scale, seed)),
        "ECLAT" => Box::new(eclat::Eclat::new(scale, seed)),
        "FDTD" => Box::new(fdtd::Fdtd::new(scale, seed)),
        "BLACKSCHOLES" => Box::new(blackscholes::Blackscholes::new(scale, seed)),
        other => panic!("kernel {other} is not used by any benchmark workload"),
    }
}

/// The first `invocations` invocations of a model.
#[derive(Debug)]
pub struct Prefix<W> {
    inner: W,
    invocations: usize,
}

impl<W: SimWorkload> Prefix<W> {
    pub fn new(inner: W, invocations: usize) -> Self {
        let invocations = invocations.min(inner.num_invocations());
        Self { inner, invocations }
    }
}

impl<W: SimWorkload> SimWorkload for Prefix<W> {
    fn num_invocations(&self) -> usize {
        self.invocations
    }
    fn num_iterations(&self, inv: usize) -> usize {
        self.inner.num_iterations(inv)
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        self.inner.iteration_cost(inv, iter)
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        self.inner.accesses(inv, iter, out)
    }
    fn prologue_cost(&self, inv: usize) -> u64 {
        self.inner.prologue_cost(inv)
    }
    fn sched_cost(&self, inv: usize, iter: usize) -> u64 {
        self.inner.sched_cost(inv, iter)
    }
    fn invocation_is_proven(&self, inv: usize) -> bool {
        self.inner.invocation_is_proven(inv)
    }
    fn address_space(&self) -> Option<usize> {
        self.inner.address_space()
    }
}

/// An `AccessKernel` whose tasks also burn their modelled cost.
pub struct BenchKernel {
    inner: AccessKernel<Model>,
}

impl std::fmt::Debug for BenchKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchKernel").finish_non_exhaustive()
    }
}

impl BenchKernel {
    /// Allocates the kernel's memory for `model`.
    pub fn new(model: Model) -> Self {
        Self {
            inner: AccessKernel::from_model(model),
        }
    }

    pub fn model(&self) -> &Model {
        self.inner.model()
    }

    /// The sequential oracle's checksum (leaves memory zeroed).
    pub fn oracle(&self) -> u64 {
        self.inner.sequential_checksum()
    }

    /// Checksum of the current memory image; no task may be running.
    pub fn checksum(&self) -> u64 {
        self.inner.checksum()
    }

    /// Zeroes memory; no task may be running.
    pub fn reset(&self) {
        self.inner.reset()
    }

    /// Tasks in the whole model.
    pub fn total_tasks(&self) -> u64 {
        self.model().total_iterations()
    }

    /// Runs every task in invocation order on the calling thread.
    pub fn run_sequential(&self) {
        for epoch in 0..self.num_epochs() {
            for task in 0..self.num_tasks(epoch) {
                self.execute_task(epoch, task, 0, &mut NullRecorder);
            }
        }
    }

    /// Runs every task in invocation order and returns each task's
    /// signature, recorded through the same wrapped recorder the engine
    /// sees (memory is left dirty; reset before the next run).
    pub fn signature_stream(&self) -> Vec<Vec<RangeSignature>> {
        let mut rec = SigRecorder::<RangeSignature>::new();
        (0..self.num_epochs())
            .map(|epoch| {
                (0..self.num_tasks(epoch))
                    .map(|task| {
                        self.execute_task(epoch, task, 0, &mut rec);
                        rec.take()
                    })
                    .collect()
            })
            .collect()
    }

    fn burn_task(&self, inv: usize, iter: usize) {
        burn(self.model().iteration_cost(inv, iter));
    }
}

/// Times every call it forwards (traced rounds only).
struct TimedRecorder<'a> {
    inner: &'a mut dyn AccessRecorder,
}

impl AccessRecorder for TimedRecorder<'_> {
    fn record(&mut self, addr: usize, kind: AccessKind) {
        let start = Instant::now();
        self.inner.record(addr, kind);
        probe::record_done(start.elapsed().as_nanos() as u64);
    }
}

impl SpecWorkload for BenchKernel {
    type State = Vec<i64>;

    fn num_epochs(&self) -> usize {
        self.inner.num_epochs()
    }

    fn num_tasks(&self, epoch: usize) -> usize {
        self.inner.num_tasks(epoch)
    }

    fn epoch_is_proven(&self, epoch: usize) -> bool {
        self.inner.epoch_is_proven(epoch)
    }

    fn execute_task(
        &self,
        epoch: usize,
        task: usize,
        tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    ) {
        if probe::on() {
            let start = Instant::now();
            self.inner
                .execute_task(epoch, task, tid, &mut TimedRecorder { inner: recorder });
            self.burn_task(epoch, task);
            probe::task_done(start.elapsed().as_nanos() as u64);
        } else {
            self.inner.execute_task(epoch, task, tid, recorder);
            self.burn_task(epoch, task);
        }
    }

    fn snapshot(&self) -> Vec<i64> {
        if !probe::on() {
            return self.inner.snapshot();
        }
        let span = probe::open("snapshot", "");
        let state = self.inner.snapshot();
        probe::checkpoint_done(false, span.close().as_nanos() as u64);
        state
    }

    fn restore(&self, state: &Vec<i64>) {
        if !probe::on() {
            return self.inner.restore(state);
        }
        let span = probe::open("restore", "");
        self.inner.restore(state);
        probe::checkpoint_done(true, span.close().as_nanos() as u64);
    }
}

impl DomoreWorkload for BenchKernel {
    fn num_invocations(&self) -> usize {
        DomoreWorkload::num_invocations(&self.inner)
    }

    fn num_iterations(&self, inv: usize) -> usize {
        DomoreWorkload::num_iterations(&self.inner, inv)
    }

    fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
        if probe::on() {
            let start = Instant::now();
            self.inner.touched_addrs(inv, iter, out);
            probe::touched_done(start.elapsed().as_nanos() as u64);
        } else {
            self.inner.touched_addrs(inv, iter, out);
        }
    }

    fn touched(&self, inv: usize, iter: usize, writes: &mut Vec<usize>, reads: &mut Vec<usize>) {
        if probe::on() {
            let start = Instant::now();
            self.inner.touched(inv, iter, writes, reads);
            probe::touched_done(start.elapsed().as_nanos() as u64);
        } else {
            self.inner.touched(inv, iter, writes, reads);
        }
    }

    fn execute_iteration(&self, inv: usize, iter: usize, tid: ThreadId) {
        if probe::on() {
            let start = Instant::now();
            self.inner.execute_iteration(inv, iter, tid);
            self.burn_task(inv, iter);
            probe::task_done(start.elapsed().as_nanos() as u64);
        } else {
            self.inner.execute_iteration(inv, iter, tid);
            self.burn_task(inv, iter);
        }
    }

    fn address_space(&self) -> Option<usize> {
        DomoreWorkload::address_space(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_runtime::signature::AccessSignature;
    use crossinvoc_speccross::engine::{SpecConfig, SpecCrossEngine};

    #[test]
    fn wrapper_keeps_the_oracle_and_engine_results() {
        let k = BenchKernel::new(model("SYMM", Scale::Test, 7));
        let oracle = k.oracle();
        k.run_sequential();
        assert_eq!(k.checksum(), oracle, "the burn never touches memory");
        k.reset();
        SpecCrossEngine::<RangeSignature>::new(SpecConfig::with_workers(2))
            .execute_with_barriers(&k)
            .expect("barrier run");
        assert_eq!(k.checksum(), oracle);
    }

    #[test]
    fn prefix_keeps_the_first_invocations() {
        let full = model("SYMM", Scale::Test, 7);
        let n = full.num_invocations();
        let p = Prefix::new(model("SYMM", Scale::Test, 7), 5);
        assert_eq!(p.num_invocations(), 5.min(n));
        assert_eq!(p.num_iterations(3), full.num_iterations(3));
    }

    #[test]
    fn signature_stream_has_one_entry_per_task() {
        let k = BenchKernel::new(model("LLUBENCH", Scale::Test, 3));
        let stream = k.signature_stream();
        assert_eq!(stream.len(), k.num_epochs());
        assert_eq!(
            stream.iter().map(Vec::len).sum::<usize>() as u64,
            k.total_tasks()
        );
        assert!(stream.iter().flatten().any(|s| !s.is_empty()));
    }
}
