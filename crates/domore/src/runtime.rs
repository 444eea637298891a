//! The threaded DOMORE runtime (§3.2, Fig. 3.4).
//!
//! One scheduler (the calling thread) plus `num_workers` worker threads.
//! The scheduler executes the sequential prologue of each invocation, runs
//! the `computeAddr` oracle and the pure scheduling logic for every inner
//! iteration, and forwards messages over per-worker SPSC queues:
//! synchronization conditions first, then the iteration itself. Workers obey
//! Alg. 2: stall on each condition until the named predecessor retires (as
//! observed through the `latestFinished` status array), run the iteration,
//! and publish their own progress.
//!
//! # Failure model
//!
//! An iteration that panics (organically or via an injected
//! [`FaultPlan`]) is caught at the `execute_iteration` call site; the worker
//! records [`DomoreError::IterationPanicked`], marks itself *dead* and —
//! crucially — still publishes the iteration number, so workers blocked on
//! a synchronization condition naming it are released. From then on the
//! dead worker *drains*: it keeps consuming messages (publishing, never
//! executing) until its `END_TOKEN`, so the scheduler's queues never jam.
//! The scheduler routes every subsequent assignment around dead workers
//! (next live worker in thread-id order), so the surviving workers finish
//! the region instead of stalling behind a corpse; the recorded error is
//! surfaced exactly once, after the region joins. Only when *every* worker
//! has died does the scheduler raise the shared abort flag and cut the
//! region short. A panicking scheduler body is likewise contained
//! ([`DomoreError::SchedulerPanicked`]) and the end tokens are always sent.
//! A watchdog deadline ([`DomoreConfig::watchdog`]) bounds every
//! condition-wait so a lost predecessor becomes
//! [`DomoreError::WatchdogTimeout`] instead of an unbounded spin.
//!
//! # Waiting discipline
//!
//! Condition waits (the progress board's bounded await) and full
//! queues use the shared spin-then-park policy
//! ([`crossinvoc_runtime::wait`]): a bounded adaptive spin for the common
//! short wait, then timed parks of [`PARK_SLICE`] so abort flags and
//! watchdog deadlines are still observed promptly while a long wait burns
//! no CPU. Publishers skip the wake entirely while no worker is parked, so
//! the hot retire path stays a store plus one relaxed-ish load.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;
use crossinvoc_runtime::fault::{FaultKind, FaultPlan, TaskFault};
use crossinvoc_runtime::metrics::{Metrics, MetricsSummary};
use crossinvoc_runtime::pool::{RegionExecutor, Role, ScopedExecutor};
use crossinvoc_runtime::spsc::{Producer, Queue};
use crossinvoc_runtime::stats::StatsSummary;
use crossinvoc_runtime::telemetry::RegionTelemetry;
use crossinvoc_runtime::trace::{Event, Trace, TraceCollector, WakeEdge, MANAGER_TID};
use crossinvoc_runtime::wait::{AdaptiveSpin, Parker, PARK_SLICE};
use crossinvoc_runtime::{IterNum, ThreadId};
use parking_lot::Mutex;

use crate::logic::{SchedulerLogic, SyncCondition};
use crate::policy::{Dispatch, Policy, RoundRobin};
use crate::workload::DomoreWorkload;

/// Messages the scheduler buffers per worker before flushing them to the
/// SPSC queue in one batched enqueue (single tail publication). See the
/// flush-before-`Sync` invariant in [`DomoreRuntime::execute`].
const SCHED_BATCH: usize = 32;

/// Message from the scheduler to a worker.
#[derive(Debug)]
enum Msg {
    /// Wait for a predecessor iteration before proceeding. `inv` is the
    /// invocation the condition guards (trace/metrics attribution only).
    Sync { cond: SyncCondition, inv: u32 },
    /// Execute iteration `iter` of invocation `inv` (combined number
    /// `iter_num`). This doubles as the paper's `(NO_SYNC, iterNum)` token.
    Run {
        inv: usize,
        iter: usize,
        iter_num: IterNum,
    },
    /// No more work (the paper's `END_TOKEN`).
    End,
}

/// The `latestFinished` array of Alg. 2.
///
/// Each slot stores *one past* the last combined iteration number the worker
/// has retired (so the zero initial value means "nothing finished", avoiding
/// a sentinel).
#[derive(Debug)]
pub(crate) struct ProgressBoard {
    finished: Box<[CachePadded<AtomicU64>]>,
    /// One parker per worker; a waiter parks on *its own* slot and every
    /// publisher wakes all registered parkers. Parks are timed
    /// ([`PARK_SLICE`]) so a lost wake costs at most one slice of latency,
    /// never liveness.
    parkers: Box<[Parker]>,
    /// Workers currently inside a park window. Publishers skip the wake
    /// entirely while this is zero — the common case on the retire path.
    waiters: CachePadded<AtomicUsize>,
}

impl ProgressBoard {
    pub(crate) fn new(num_workers: usize) -> Self {
        Self {
            finished: (0..num_workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            parkers: (0..num_workers).map(|_| Parker::new()).collect(),
            waiters: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Marks `iter_num` retired by `tid` and wakes any parked waiters.
    pub(crate) fn publish(&self, tid: ThreadId, iter_num: IterNum) {
        self.finished[tid].store(iter_num + 1, Ordering::Release);
        if self.waiters.load(Ordering::SeqCst) != 0 {
            for parker in self.parkers.iter() {
                parker.unpark();
            }
        }
    }

    /// Whether `cond` is already satisfied.
    pub(crate) fn satisfied(&self, cond: SyncCondition) -> bool {
        self.finished[cond.dep_tid].load(Ordering::Acquire) > cond.dep_iter
    }

    /// Waits (spin, then timed park on `tid`'s slot) until `cond` is
    /// satisfied, the abort flag rises, or `deadline` passes.
    pub(crate) fn await_condition_bounded(
        &self,
        tid: ThreadId,
        cond: SyncCondition,
        abort: &AtomicBool,
        deadline: Option<Instant>,
    ) -> AwaitOutcome {
        let mut spin = AdaptiveSpin::new();
        loop {
            if self.satisfied(cond) {
                return AwaitOutcome::Satisfied;
            }
            if abort.load(Ordering::Acquire) {
                return AwaitOutcome::Aborted;
            }
            if !spin.should_park() {
                continue;
            }
            // Spin budget exhausted: check the deadline once per slice (a
            // slice is 200µs, far below any watchdog resolution we accept),
            // then register as a waiter. The re-check between registration
            // and the park closes the publish race down to one timed slice.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return AwaitOutcome::TimedOut;
            }
            self.waiters.fetch_add(1, Ordering::SeqCst);
            if !self.satisfied(cond) && !abort.load(Ordering::Acquire) {
                self.parkers[tid].park_timeout(PARK_SLICE);
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Outcome of [`ProgressBoard::await_condition_bounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AwaitOutcome {
    Satisfied,
    Aborted,
    TimedOut,
}

/// Configuration for [`DomoreRuntime`].
#[derive(Debug)]
pub struct DomoreConfig {
    num_workers: usize,
    queue_capacity: usize,
    fault_plan: Option<FaultPlan>,
    watchdog: Option<Duration>,
    trace_capacity: Option<usize>,
    region_id: u64,
    telemetry: Option<Arc<RegionTelemetry>>,
}

impl DomoreConfig {
    /// Configuration with `num_workers` worker threads and default queue
    /// capacity.
    pub fn with_workers(num_workers: usize) -> Self {
        Self {
            num_workers,
            queue_capacity: 1 << 12,
            fault_plan: None,
            watchdog: None,
            trace_capacity: None,
            region_id: 0,
            telemetry: None,
        }
    }

    /// Sets the per-worker SPSC queue capacity (in messages). A zero
    /// capacity is rejected with [`DomoreError::InvalidConfig`] at run time.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Installs a deterministic fault schedule (testing). Coordinates map as
    /// epoch = invocation, task = iteration, thread = worker id.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Bounds every synchronization-condition wait by a wall-clock deadline
    /// measured from the start of the execution.
    pub fn watchdog(mut self, limit: Duration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// Enables execution tracing with per-thread rings of `capacity`
    /// records (see [`ExecutionReport::trace`]).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The configured worker-thread count (the region's pool-slot demand).
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Enables tracing with `capacity` only when tracing is off — the
    /// region server uses this to arm always-on flight-recorder rings
    /// without overriding an explicitly configured capacity.
    pub fn trace_default(mut self, capacity: usize) -> Self {
        self.trace_capacity.get_or_insert(capacity);
        self
    }

    /// Attributes the region's trace to a region-server submission id
    /// (the `region_id` JSONL field; default 0 = solo, wire-invisible).
    pub fn region(mut self, region_id: u64) -> Self {
        self.region_id = region_id;
        self
    }

    /// Attaches a live telemetry cell (region-server mode; see
    /// `crossinvoc_runtime::telemetry`). The runtime then writes its
    /// metrics through the cell — live registry snapshots and the final
    /// [`ExecutionReport::metrics`] read the same counters — and drives the
    /// cell's lifecycle. `None` (the default, solo mode) costs nothing.
    pub fn telemetry(mut self, cell: Arc<RegionTelemetry>) -> Self {
        self.telemetry = Some(cell);
        self
    }
}

/// Errors reported by the DOMORE runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomoreError {
    /// The configuration requested zero workers.
    NoWorkers,
    /// The configuration is inconsistent (message says how).
    InvalidConfig(String),
    /// The workload declared its prologue non-replicable but the duplicated
    /// scheduler was requested.
    PrologueNotReplicable,
    /// An iteration body panicked; the runtime aborted the region after
    /// releasing every worker.
    IterationPanicked {
        /// Invocation of the panicking iteration.
        inv: usize,
        /// Iteration index within the invocation.
        iter: usize,
    },
    /// The scheduler body (prologue or scheduling logic) panicked.
    SchedulerPanicked,
    /// The watchdog deadline elapsed while a worker waited on a
    /// synchronization condition.
    WatchdogTimeout,
}

impl fmt::Display for DomoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomoreError::NoWorkers => write!(f, "at least one worker thread is required"),
            DomoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DomoreError::PrologueNotReplicable => write!(
                f,
                "workload prologue has side effects; duplicated scheduler is unsound"
            ),
            DomoreError::IterationPanicked { inv, iter } => {
                write!(f, "iteration {iter} of invocation {inv} panicked")
            }
            DomoreError::SchedulerPanicked => write!(f, "scheduler body panicked"),
            DomoreError::WatchdogTimeout => write!(f, "watchdog deadline elapsed"),
        }
    }
}

impl std::error::Error for DomoreError {}

/// Outcome of a DOMORE execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Counter snapshot (tasks, synchronization conditions, stalls, …).
    pub stats: StatsSummary,
    /// Wall-clock time of the parallel region.
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub num_workers: usize,
    /// Counters plus wait-time histograms (exact: snapshotted after the
    /// worker scope joined).
    pub metrics: MetricsSummary,
    /// Merged execution trace when [`DomoreConfig::trace`] was enabled.
    pub trace: Option<Trace>,
}

/// The scheduler/worker DOMORE engine.
///
/// See the crate-level example for end-to-end usage.
pub struct DomoreRuntime {
    config: DomoreConfig,
    policy: Box<dyn Policy>,
}

impl fmt::Debug for DomoreRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomoreRuntime")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl DomoreRuntime {
    /// Creates a runtime with round-robin scheduling.
    pub fn new(config: DomoreConfig) -> Self {
        Self {
            config,
            policy: Box::new(RoundRobin),
        }
    }

    /// Replaces the scheduling policy.
    pub fn with_policy(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the scheduling policy by name via the [`Dispatch`] enum —
    /// the configuration-friendly surface used by the bench harness.
    pub fn with_dispatch(mut self, dispatch: Dispatch) -> Self {
        self.policy = dispatch.policy();
        self
    }

    /// Executes `workload` to completion: all invocations, in semantic order
    /// where dependences demand it, overlapped otherwise.
    ///
    /// The calling thread acts as the scheduler; `num_workers` additional
    /// threads are spawned for the duration of the call.
    ///
    /// # Errors
    ///
    /// [`DomoreError::NoWorkers`] / [`DomoreError::InvalidConfig`] for a bad
    /// configuration; [`DomoreError::IterationPanicked`],
    /// [`DomoreError::SchedulerPanicked`] and
    /// [`DomoreError::WatchdogTimeout`] when the region failed (all workers
    /// are released and joined before the error is returned — no thread is
    /// leaked and no queue left jammed).
    pub fn execute<W: DomoreWorkload>(
        &mut self,
        workload: &W,
    ) -> Result<ExecutionReport, DomoreError> {
        self.execute_on(workload, &ScopedExecutor)
    }

    /// Like [`DomoreRuntime::execute`], but running the worker gang on the
    /// given executor — a shared [`crossinvoc_runtime::pool::WorkerPool`] in
    /// region-server mode, or [`ScopedExecutor`] for the classic
    /// thread-per-worker behaviour. The calling thread stays the scheduler
    /// either way, and all per-region state (shadow memory, progress
    /// board, metrics, trace sinks, fault budget) lives in this
    /// call frame, so concurrent regions on one pool cannot observe each
    /// other.
    pub fn execute_on<W: DomoreWorkload>(
        &mut self,
        workload: &W,
        exec: &dyn RegionExecutor,
    ) -> Result<ExecutionReport, DomoreError> {
        let num_workers = self.config.num_workers;
        if num_workers == 0 {
            return Err(DomoreError::NoWorkers);
        }
        if self.config.queue_capacity == 0 {
            return Err(DomoreError::InvalidConfig(
                "queue capacity must be positive".to_string(),
            ));
        }
        if let Some(cap) = exec.capacity() {
            // The scheduler runs on the calling thread, so the gang demand
            // is the worker count alone.
            if num_workers > cap {
                return Err(DomoreError::InvalidConfig(format!(
                    "region needs a gang of {num_workers} workers but the executor caps gangs at {cap}"
                )));
            }
        }
        // One shared fault budget for the whole execution (Clone resets it).
        let fault = self.config.fault_plan.clone().unwrap_or_default();
        let deadline = self.config.watchdog.map(|w| Instant::now() + w);

        let mut logic = match workload.address_space() {
            Some(n) => SchedulerLogic::with_dense_shadow(n),
            None => SchedulerLogic::with_sparse_shadow(),
        };
        let board = ProgressBoard::new(num_workers);
        let telemetry = self.config.telemetry.as_deref();
        if let Some(cell) = telemetry {
            cell.mark_running();
        }
        // In region-server mode the metrics live in the telemetry cell, so
        // live registry snapshots and the final report read the same
        // counters and cannot disagree.
        let owned_metrics;
        let metrics: &Metrics = match telemetry {
            Some(cell) => cell.metrics(),
            None => {
                owned_metrics = Metrics::new();
                &owned_metrics
            }
        };
        let collector = TraceCollector::with_region(
            self.config.trace_capacity.unwrap_or(0),
            self.config.region_id,
        );
        let abort = AtomicBool::new(false);
        // Workers that panicked and now only drain; the scheduler routes
        // new assignments around them.
        let dead: Box<[AtomicBool]> = (0..num_workers).map(|_| AtomicBool::new(false)).collect();
        let error: Mutex<Option<DomoreError>> = Mutex::new(None);
        // First error wins; it is surfaced exactly once, after the join.
        let record = |err: DomoreError| {
            let mut slot = error.lock();
            if slot.is_none() {
                *slot = Some(err);
            }
        };
        // Fatal failures (scheduler panic, watchdog, last worker dead)
        // additionally condemn the whole region.
        let fail = |err: DomoreError| {
            record(err);
            abort.store(true, Ordering::Release);
        };
        let start = Instant::now();

        let queue_capacity = self.config.queue_capacity;
        let policy = self.policy.as_mut();
        {
            let mut producers = Vec::with_capacity(num_workers);
            let mut roles: Vec<Role<'_>> = Vec::with_capacity(num_workers);
            for tid in 0..num_workers {
                let (tx, rx) = Queue::<Msg>::with_capacity(queue_capacity);
                producers.push(tx);
                let board = &board;
                let collector = &collector;
                let (abort, fault) = (&abort, &fault);
                let (dead, record, fail) = (&dead, &record, &fail);
                roles.push(Box::new(move || {
                    let stats = metrics.stats();
                    let mut sink = collector.sink(tid);
                    // Set after a local panic: this worker only drains
                    // (publishes, never executes) from then on.
                    let mut draining = false;
                    loop {
                        match rx.consume() {
                            Msg::Sync { cond, inv } => {
                                // Under abort or local drain the result is
                                // already condemned; skip the wait (the
                                // condition may name an iteration that will
                                // now never execute).
                                if draining
                                    || abort.load(Ordering::Acquire)
                                    || board.satisfied(cond)
                                {
                                    continue;
                                }
                                stats.add_stall();
                                sink.emit(Event::BarrierEnter { epoch: inv });
                                let entered = Instant::now();
                                let outcome =
                                    board.await_condition_bounded(tid, cond, abort, deadline);
                                if outcome == AwaitOutcome::TimedOut {
                                    fail(DomoreError::WatchdogTimeout);
                                }
                                let wait_ns = entered.elapsed().as_nanos() as u64;
                                metrics.record_stall_wait(wait_ns);
                                sink.emit(Event::BarrierLeave {
                                    epoch: inv,
                                    wait_ns,
                                });
                                if outcome == AwaitOutcome::Satisfied {
                                    // The predecessor's retire released this
                                    // condition wait.
                                    sink.emit(Event::Wake {
                                        edge: WakeEdge::Barrier,
                                        src_tid: cond.dep_tid,
                                        seq: cond.dep_iter,
                                    });
                                }
                            }
                            Msg::Run {
                                inv,
                                iter,
                                iter_num,
                            } => {
                                let mut executed = false;
                                if !draining && !abort.load(Ordering::Acquire) {
                                    let inject =
                                        match fault.task_start(inv as u32, iter as u64, tid) {
                                            Some(TaskFault::Delay(d)) => {
                                                sink.emit(Event::FaultInjected {
                                                    kind: FaultKind::Delay(d.as_micros() as u64),
                                                    epoch: inv as u32,
                                                    task: iter as u64,
                                                });
                                                std::thread::sleep(d);
                                                false
                                            }
                                            Some(TaskFault::Panic) => {
                                                sink.emit(Event::FaultInjected {
                                                    kind: FaultKind::WorkerPanic,
                                                    epoch: inv as u32,
                                                    task: iter as u64,
                                                });
                                                true
                                            }
                                            None => false,
                                        };
                                    // SPSC produce → consume: the scheduler's
                                    // enqueue is what this dispatch picks up.
                                    sink.emit(Event::Wake {
                                        edge: WakeEdge::Queue,
                                        src_tid: MANAGER_TID,
                                        seq: iter_num,
                                    });
                                    sink.emit(Event::TaskDispatch {
                                        epoch: inv as u32,
                                        task: iter as u64,
                                    });
                                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                                        if inject {
                                            panic!(
                                                "injected fault: worker panic at invocation {inv}, iteration {iter}"
                                            );
                                        }
                                        workload.execute_iteration(inv, iter, tid);
                                    }));
                                    match outcome {
                                        Ok(()) => executed = true,
                                        Err(_) => {
                                            // Record (don't abort): mark
                                            // this worker dead and let the
                                            // scheduler route around it so
                                            // live workers finish the
                                            // region.
                                            record(DomoreError::IterationPanicked { inv, iter });
                                            dead[tid].store(true, Ordering::Release);
                                            draining = true;
                                        }
                                    }
                                }
                                // Publish even when the iteration was skipped
                                // or panicked: dependents blocked on this
                                // iteration number must be released so the
                                // region drains.
                                board.publish(tid, iter_num);
                                if executed {
                                    stats.add_task();
                                    sink.emit(Event::TaskRetire {
                                        epoch: inv as u32,
                                        task: iter as u64,
                                    });
                                }
                            }
                            Msg::End => break,
                        }
                    }
                    collector.absorb(sink);
                }));
            }

            // ---- Scheduler (this thread, the executor's `local` role) ----
            // The body is contained so a panicking prologue / oracle cannot
            // strand the gang before the end tokens are sent. The sink
            // lives outside the unwind boundary so events emitted before a
            // scheduler panic survive into the trace.
            let mut scheduler = |producers: Vec<Producer<Msg>>| {
                let mut sched_sink = collector.sink(MANAGER_TID);
                let stats = metrics.stats();
                let sched = catch_unwind(AssertUnwindSafe(|| {
                    let mut writes = Vec::new();
                    let mut reads = Vec::new();
                    let mut addrs = Vec::new();
                    let mut conds = Vec::new();
                    // Per-worker message buffers, flushed with one batched
                    // enqueue (single tail publication each). Invariant: before
                    // a `Sync` naming `dep_tid` is buffered anywhere, pending
                    // messages for `dep_tid` are flushed — so by induction on
                    // enqueue order, every condition a worker can block on
                    // names a `Run` that is already in its owner's queue, and
                    // the region cannot deadlock on an unflushed dependency.
                    let mut pending: Vec<Vec<Msg>> = (0..num_workers)
                        .map(|_| Vec::with_capacity(SCHED_BATCH))
                        .collect();
                    'invocations: for inv in 0..workload.num_invocations() {
                        if abort.load(Ordering::Acquire) {
                            break;
                        }
                        workload.prologue(inv);
                        stats.add_epoch();
                        sched_sink.emit(Event::EpochBegin { epoch: inv as u32 });
                        for iter in 0..workload.num_iterations(inv) {
                            if abort.load(Ordering::Acquire) {
                                break 'invocations;
                            }
                            writes.clear();
                            reads.clear();
                            workload.touched(inv, iter, &mut writes, &mut reads);
                            addrs.clear();
                            addrs.extend_from_slice(&writes);
                            addrs.extend_from_slice(&reads);
                            let preview = logic.next_iter_num();
                            let mut tid = policy.assign(preview, &addrs, num_workers);
                            // Route around dead workers: next live thread in id
                            // order. Rerouting happens *before* the scheduling
                            // logic runs, so every synchronization condition
                            // names the worker that will actually execute.
                            if dead[tid].load(Ordering::Acquire) {
                                match (1..num_workers)
                                    .map(|k| (tid + k) % num_workers)
                                    .find(|&t| !dead[t].load(Ordering::Acquire))
                                {
                                    Some(live) => tid = live,
                                    None => {
                                        // Every worker is dead: condemn the
                                        // region (the first panic is already
                                        // recorded) and stop scheduling.
                                        abort.store(true, Ordering::Release);
                                        break 'invocations;
                                    }
                                }
                            }
                            conds.clear();
                            let iter_num = logic.schedule_rw(tid, &writes, &reads, &mut conds);
                            debug_assert_eq!(iter_num, preview);
                            sched_sink.emit(Event::TaskAssign {
                                epoch: inv as u32,
                                task: iter as u64,
                                worker: tid,
                            });
                            for &cond in &conds {
                                stats.add_sync_condition();
                                if cond.dep_tid != tid && !pending[cond.dep_tid].is_empty() {
                                    producers[cond.dep_tid]
                                        .produce_batch(&mut pending[cond.dep_tid]);
                                }
                                pending[tid].push(Msg::Sync {
                                    cond,
                                    inv: inv as u32,
                                });
                            }
                            pending[tid].push(Msg::Run {
                                inv,
                                iter,
                                iter_num,
                            });
                            if pending[tid].len() >= SCHED_BATCH {
                                producers[tid].produce_batch(&mut pending[tid]);
                            }
                        }
                        // Keep the pipeline warm across the (sequential)
                        // prologue of the next invocation.
                        for (tx, buf) in producers.iter().zip(pending.iter_mut()) {
                            if !buf.is_empty() {
                                tx.produce_batch(buf);
                            }
                        }
                        sched_sink.emit(Event::EpochEnd { epoch: inv as u32 });
                    }
                    for (tx, buf) in producers.iter().zip(pending.iter_mut()) {
                        if !buf.is_empty() {
                            tx.produce_batch(buf);
                        }
                    }
                }));
                collector.absorb(sched_sink);
                if sched.is_err() {
                    fail(DomoreError::SchedulerPanicked);
                }
                // Always send the end tokens — workers drain their queues even
                // under abort, so this cannot jam and every worker terminates.
                for tx in &producers {
                    tx.produce(Msg::End);
                }
            };
            let gang_stats = exec.run_gang(roles, Box::new(move || scheduler(producers)));
            if let Some(cell) = telemetry {
                cell.add_queue_wait(gang_stats.queue_wait_ns);
            }
        }

        let elapsed = start.elapsed();
        let trace = collector.finish();
        if let Some(err) = error.into_inner() {
            // Hard failure: deposit the trace with the telemetry cell so
            // the flight recorder can dump the window that led here.
            if let Some(cell) = telemetry {
                cell.fail(trace.as_ref());
            }
            return Err(err);
        }
        // The worker scope has joined: snapshots are exact per the
        // RegionStats ordering contract.
        let metrics = metrics.snapshot();
        if let Some(cell) = telemetry {
            cell.complete(0, false, trace.as_ref());
        }
        Ok(ExecutionReport {
            stats: metrics.stats,
            elapsed,
            num_workers,
            metrics,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LocalWrite;
    use crossinvoc_runtime::SharedSlice;

    /// Invocation k writes cell (i + k) % n for iteration i: shifting
    /// conflicts across invocations, heavy cross-invocation dependences.
    struct Rotating {
        data: SharedSlice<u64>,
        invocations: usize,
    }

    impl Rotating {
        fn new(n: usize, invocations: usize) -> Self {
            Self {
                data: SharedSlice::from_vec(vec![0; n]),
                invocations,
            }
        }
        fn cell(&self, inv: usize, iter: usize) -> usize {
            (iter + inv) % self.data.len()
        }
    }

    impl DomoreWorkload for Rotating {
        fn num_invocations(&self) -> usize {
            self.invocations
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.data.len()
        }
        fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
            out.push(self.cell(inv, iter));
        }
        fn execute_iteration(&self, inv: usize, iter: usize, _tid: ThreadId) {
            let cell = self.cell(inv, iter);
            // SAFETY: the runtime serializes conflicting iterations; each
            // iteration touches exactly the reported cell.
            unsafe { self.data.update(cell, |v| *v = v.wrapping_mul(31) + 1) };
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.data.len())
        }
    }

    fn expected_rotating(n: usize, invocations: usize) -> Vec<u64> {
        let mut data = vec![0u64; n];
        for _ in 0..invocations {
            for v in data.iter_mut() {
                *v = v.wrapping_mul(31) + 1;
            }
        }
        data
    }

    #[test]
    fn matches_sequential_result_under_contention() {
        for workers in [1, 2, 3, 5] {
            let mut w = Rotating::new(17, 12);
            let report = DomoreRuntime::new(DomoreConfig::with_workers(workers))
                .execute(&w)
                .unwrap();
            assert_eq!(w.data.snapshot(), expected_rotating(17, 12));
            assert_eq!(report.stats.tasks, 17 * 12);
            assert_eq!(report.stats.epochs, 12);
        }
    }

    #[test]
    fn localwrite_policy_produces_no_sync_conditions_for_owned_cells() {
        // Same cell always maps to the same owner, so every cross-invocation
        // dependence stays within one worker: zero conditions.
        struct Fixed {
            data: SharedSlice<u64>,
        }
        impl DomoreWorkload for Fixed {
            fn num_invocations(&self) -> usize {
                8
            }
            fn num_iterations(&self, _inv: usize) -> usize {
                16
            }
            fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
                out.push(iter);
            }
            fn execute_iteration(&self, _inv: usize, iter: usize, _tid: ThreadId) {
                unsafe { self.data.update(iter, |v| *v += 1) };
            }
            fn address_space(&self) -> Option<usize> {
                Some(16)
            }
        }
        let w = Fixed {
            data: SharedSlice::from_vec(vec![0; 16]),
        };
        let report = DomoreRuntime::new(DomoreConfig::with_workers(4))
            .with_policy(Box::new(LocalWrite::new(16)))
            .execute(&w)
            .unwrap();
        assert_eq!(report.stats.sync_conditions, 0);
        let mut w = w;
        assert!(w.data.snapshot().iter().all(|&v| v == 8));
    }

    #[test]
    fn round_robin_generates_conditions_for_repeated_cells() {
        let mut w = Rotating::new(8, 4);
        let report = DomoreRuntime::new(DomoreConfig::with_workers(4))
            .execute(&w)
            .unwrap();
        assert!(
            report.stats.sync_conditions > 0,
            "rotating cells across round-robin workers must conflict"
        );
        assert_eq!(w.data.snapshot(), expected_rotating(8, 4));
    }

    #[test]
    fn zero_workers_is_an_error() {
        let w = Rotating::new(4, 1);
        let err = DomoreRuntime::new(DomoreConfig::with_workers(0))
            .execute(&w)
            .unwrap_err();
        assert_eq!(err, DomoreError::NoWorkers);
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn small_queue_capacity_still_completes() {
        let mut w = Rotating::new(9, 6);
        DomoreRuntime::new(DomoreConfig::with_workers(3).queue_capacity(2))
            .execute(&w)
            .unwrap();
        assert_eq!(w.data.snapshot(), expected_rotating(9, 6));
    }

    #[test]
    fn progress_board_condition_semantics() {
        let board = ProgressBoard::new(2);
        let cond = SyncCondition {
            dep_tid: 1,
            dep_iter: 3,
        };
        assert!(!board.satisfied(cond));
        board.publish(1, 2);
        assert!(!board.satisfied(cond), "iter 3 not yet finished");
        board.publish(1, 3);
        assert!(board.satisfied(cond));
    }

    #[test]
    fn empty_workload_reports_zero_tasks() {
        struct Empty;
        impl DomoreWorkload for Empty {
            fn num_invocations(&self) -> usize {
                0
            }
            fn num_iterations(&self, _inv: usize) -> usize {
                0
            }
            fn touched_addrs(&self, _inv: usize, _iter: usize, _out: &mut Vec<usize>) {}
            fn execute_iteration(&self, _inv: usize, _iter: usize, _tid: ThreadId) {}
        }
        let report = DomoreRuntime::new(DomoreConfig::with_workers(2))
            .execute(&Empty)
            .unwrap();
        assert_eq!(report.stats.tasks, 0);
        assert_eq!(report.stats.epochs, 0);
    }
}
