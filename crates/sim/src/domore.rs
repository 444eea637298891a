//! Simulated DOMORE execution (Fig. 3.2(b)/(c), §3.4).
//!
//! The scheduler timeline runs the *real* shadow-memory logic
//! ([`crossinvoc_domore::SchedulerLogic`]) and the real assignment policy
//! over the workload's actual address streams, so the synchronization
//! conditions — and therefore who waits on whom — are exactly what the
//! threaded runtime would produce. The simulator adds time: prologue and
//! per-iteration scheduling cost on the scheduler's clock, queue latency on
//! dispatch, kernel cost on the assigned worker's clock, and dependence
//! stalls whenever a synchronization condition's source has not yet
//! finished.

use crossinvoc_domore::logic::{SchedulerLogic, SyncCondition};
use crossinvoc_domore::policy::Policy;
use crossinvoc_runtime::stats::RegionStats;
use crossinvoc_runtime::trace::{Event, WakeEdge, MANAGER_TID};

use crate::cost::CostModel;
use crate::result::SimResult;
use crate::tracing::SimSinks;
use crate::workload::SimWorkload;

fn make_logic<W: SimWorkload + ?Sized>(workload: &W) -> SchedulerLogic {
    match workload.address_space() {
        Some(n) => SchedulerLogic::with_dense_shadow(n),
        None => SchedulerLogic::with_sparse_shadow(),
    }
}

/// Flattens an access list into the address vector handed to the policy
/// and the shadow logic — writes first, because LOCALWRITE-style policies
/// assign ownership by the first address and owner-computes means the
/// *written* cell's owner.
fn split_accesses(
    pairs: &[(usize, crossinvoc_runtime::signature::AccessKind)],
    writes: &mut Vec<usize>,
    reads: &mut Vec<usize>,
    addrs: &mut Vec<usize>,
) {
    use crossinvoc_runtime::signature::AccessKind;
    writes.clear();
    reads.clear();
    for &(a, k) in pairs {
        match k {
            AccessKind::Write => writes.push(a),
            AccessKind::Read => reads.push(a),
        }
    }
    addrs.clear();
    addrs.extend_from_slice(writes);
    addrs.extend_from_slice(reads);
}

/// Simulates DOMORE with a dedicated scheduler thread and `workers` worker
/// threads (the final plan of Fig. 3.2(c)).
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
) -> SimResult {
    domore_in_region(workload, workers, policy, cost, None, 0)
}

/// Like [`domore`], but optionally records a virtual-time execution trace
/// (the shared JSONL schema of `docs/OBSERVABILITY.md`) with
/// `trace_capacity` records per simulated thread. Scheduler events carry
/// the manager pseudo thread-id; worker condition waits appear as
/// barrier-enter/leave pairs, exactly as in the threaded runtime.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore_traced<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
    trace_capacity: Option<usize>,
) -> SimResult {
    domore_in_region(workload, workers, policy, cost, trace_capacity, 0)
}

/// [`domore_traced`] with the trace attributed to a region-server
/// submission id, mirroring the threaded runtime's `DomoreConfig::region`:
/// `region_id = 0` (solo) emits the exact pre-region JSONL bytes, any other
/// id stamps `region_id` on every record — so simulated and threaded
/// regions of the same id are schema-identical.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore_in_region<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
    trace_capacity: Option<usize>,
    region_id: u64,
) -> SimResult {
    assert!(workers > 0, "at least one worker is required");
    let stats = RegionStats::new();
    let mut sinks = SimSinks::new(workers, 0, trace_capacity.unwrap_or(0)).region(region_id);
    let mut logic = make_logic(workload);
    let mut sched_clock = 0u64;
    let mut clocks = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let mut idle = vec![0u64; workers];
    let mut finish_times: Vec<u64> = Vec::new();
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    let mut addrs = Vec::new();
    let mut pairs = Vec::new();
    let mut conds = Vec::new();

    for inv in 0..workload.num_invocations() {
        stats.add_epoch();
        sched_clock += workload.prologue_cost(inv);
        sinks
            .manager
            .emit_at(sched_clock, Event::EpochBegin { epoch: inv as u32 });
        for iter in 0..workload.num_iterations(inv) {
            // computeAddr + conflict detection + the produce() call.
            sched_clock += workload.sched_cost(inv, iter) + cost.queue_ns;
            pairs.clear();
            workload.accesses(inv, iter, &mut pairs);
            split_accesses(&pairs, &mut writes, &mut reads, &mut addrs);
            let preview = logic.next_iter_num();
            let tid = policy.assign(preview, &addrs, workers);
            sinks.manager.emit_at(
                sched_clock,
                Event::TaskAssign {
                    epoch: inv as u32,
                    task: iter as u64,
                    worker: tid,
                },
            );
            conds.clear();
            let iter_num = logic.schedule_rw(tid, &writes, &reads, &mut conds);
            debug_assert_eq!(iter_num, preview);

            // Delivery on the assigned worker's clock: the condition
            // stalls, the queue hand-off and the kernel itself.
            let wait_from = (sched_clock + cost.queue_ns).max(clocks[tid]);
            let mut release = wait_from;
            // The condition whose source finished last binds the wait — the
            // source of the release causality edge.
            let mut binding: Option<&SyncCondition> = None;
            for cond in &conds {
                stats.add_sync_condition();
                let dep_finish = finish_times[cond.dep_iter as usize];
                if dep_finish > release {
                    stats.add_stall();
                    release = dep_finish;
                    binding = Some(cond);
                }
            }
            let worker = &mut sinks.workers[tid];
            if release > wait_from {
                // A synchronization-condition wait: the threaded worker's
                // barrier-enter/leave pair around `await_condition`.
                worker.emit_at(wait_from, Event::BarrierEnter { epoch: inv as u32 });
                worker.emit_at(
                    release,
                    Event::BarrierLeave {
                        epoch: inv as u32,
                        wait_ns: release - wait_from,
                    },
                );
                if let Some(cond) = binding {
                    worker.emit_at(
                        release,
                        Event::Wake {
                            edge: WakeEdge::Barrier,
                            src_tid: cond.dep_tid,
                            seq: cond.dep_iter,
                        },
                    );
                }
            }
            let work = cost.task_overhead_ns + workload.iteration_cost(inv, iter);
            idle[tid] += release - clocks[tid].min(release);
            busy[tid] += work;
            // SPSC produce → consume: the worker picks the scheduler's
            // message up at dispatch.
            worker.emit_at(
                release,
                Event::Wake {
                    edge: WakeEdge::Queue,
                    src_tid: MANAGER_TID,
                    seq: iter_num,
                },
            );
            worker.emit_at(
                release,
                Event::TaskDispatch {
                    epoch: inv as u32,
                    task: iter as u64,
                },
            );
            clocks[tid] = release + work;
            worker.emit_at(
                clocks[tid],
                Event::TaskRetire {
                    epoch: inv as u32,
                    task: iter as u64,
                },
            );
            finish_times.push(clocks[tid]);
            stats.add_task();
        }
        sinks
            .manager
            .emit_at(sched_clock, Event::EpochEnd { epoch: inv as u32 });
    }

    let total = clocks.iter().copied().max().unwrap_or(0).max(sched_clock);
    SimResult {
        total_ns: total,
        busy_ns: busy,
        idle_ns: idle,
        stats: stats.summary(),
        degraded: false,
        trace: sinks.finish(),
    }
}

/// Simulates DOMORE applied *within* invocations only: the scheduler
/// pipeline runs as in [`domore`], but a global barrier is restored at every
/// invocation boundary (the "DOMORE + Barrier" plan of the Fig. 5.6 case
/// study — runtime scheduling without cross-invocation overlap).
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore_barriered<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
) -> SimResult {
    assert!(workers > 0, "at least one worker is required");
    let stats = RegionStats::new();
    let mut logic = make_logic(workload);
    let mut sched_clock = 0u64;
    let mut clocks = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let mut idle = vec![0u64; workers];
    let mut finish_times: Vec<u64> = Vec::new();
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    let mut addrs = Vec::new();
    let mut pairs = Vec::new();
    let mut conds = Vec::new();

    for inv in 0..workload.num_invocations() {
        stats.add_epoch();
        sched_clock += workload.prologue_cost(inv);
        for iter in 0..workload.num_iterations(inv) {
            // computeAddr + conflict detection + the produce() call.
            sched_clock += workload.sched_cost(inv, iter) + cost.queue_ns;
            pairs.clear();
            workload.accesses(inv, iter, &mut pairs);
            split_accesses(&pairs, &mut writes, &mut reads, &mut addrs);
            let preview = logic.next_iter_num();
            let tid = policy.assign(preview, &addrs, workers);
            conds.clear();
            logic.schedule_rw(tid, &writes, &reads, &mut conds);
            let arrival = sched_clock + cost.queue_ns;
            let mut release = arrival.max(clocks[tid]);
            for cond in &conds {
                stats.add_sync_condition();
                release = release.max(finish_times[cond.dep_iter as usize]);
            }
            idle[tid] += release - clocks[tid].min(release);
            let work = cost.task_overhead_ns + workload.iteration_cost(inv, iter);
            busy[tid] += work;
            clocks[tid] = release + work;
            finish_times.push(clocks[tid]);
            stats.add_task();
        }
        // The restored barrier: everyone (the scheduler included) waits.
        let slowest = clocks.iter().copied().max().unwrap_or(0).max(sched_clock);
        for (clock, i) in clocks.iter_mut().zip(idle.iter_mut()) {
            *i += slowest - *clock;
            *clock = slowest + cost.barrier_ns(workers + 1);
        }
        sched_clock = slowest + cost.barrier_ns(workers + 1);
    }

    SimResult {
        total_ns: clocks.iter().copied().max().unwrap_or(0).max(sched_clock),
        busy_ns: busy,
        idle_ns: idle,
        stats: stats.summary(),
        degraded: false,
        trace: None,
    }
}

/// Simulates the duplicated-scheduler variant (§3.4): every worker replays
/// the full scheduling loop (prologue and per-iteration scheduling cost are
/// paid redundantly by all workers) and executes only its own iterations.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn domore_duplicated<W: SimWorkload + ?Sized>(
    workload: &W,
    workers: usize,
    policy: &mut dyn Policy,
    cost: &CostModel,
) -> SimResult {
    assert!(workers > 0, "at least one worker is required");
    let stats = RegionStats::new();
    let mut logic = make_logic(workload);
    let mut clocks = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let mut idle = vec![0u64; workers];
    let mut finish_times: Vec<u64> = Vec::new();
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    let mut addrs = Vec::new();
    let mut pairs = Vec::new();
    let mut conds = Vec::new();

    for inv in 0..workload.num_invocations() {
        stats.add_epoch();
        let prologue = workload.prologue_cost(inv);
        for (clock, b) in clocks.iter_mut().zip(busy.iter_mut()) {
            *clock += prologue;
            *b += prologue;
        }
        for iter in 0..workload.num_iterations(inv) {
            let sched = workload.sched_cost(inv, iter);
            for (clock, b) in clocks.iter_mut().zip(busy.iter_mut()) {
                *clock += sched;
                *b += sched;
            }
            pairs.clear();
            workload.accesses(inv, iter, &mut pairs);
            split_accesses(&pairs, &mut writes, &mut reads, &mut addrs);
            let preview = logic.next_iter_num();
            let tid = policy.assign(preview, &addrs, workers);
            conds.clear();
            logic.schedule_rw(tid, &writes, &reads, &mut conds);

            let mut release = clocks[tid];
            for cond in &conds {
                stats.add_sync_condition();
                let dep_finish = finish_times[cond.dep_iter as usize];
                if dep_finish > release {
                    stats.add_stall();
                    release = dep_finish;
                }
            }
            idle[tid] += release - clocks[tid];
            let work = cost.task_overhead_ns + workload.iteration_cost(inv, iter);
            busy[tid] += work;
            clocks[tid] = release + work;
            finish_times.push(clocks[tid]);
            stats.add_task();
        }
    }

    SimResult {
        total_ns: clocks.iter().copied().max().unwrap_or(0),
        busy_ns: busy,
        idle_ns: idle,
        stats: stats.summary(),
        degraded: false,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::barrier;
    use crate::seq::sequential;
    use crate::workload::UniformWorkload;
    use crossinvoc_domore::policy::{LocalWrite, RoundRobin};

    #[test]
    fn independent_work_scales() {
        let w = UniformWorkload::independent(50, 64, 10_000).with_sched_cost(50);
        let seq = sequential(&w, &CostModel::default());
        let r = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        let speedup = r.speedup_over(seq.total_ns);
        assert!(speedup > 6.0, "near-linear expected, got {speedup}");
        assert_eq!(r.stats.sync_conditions, 0);
    }

    #[test]
    fn beats_barrier_on_many_small_invocations() {
        // The motivating scenario: many invocations, iterations that can
        // flow across invocation boundaries.
        let w = UniformWorkload::same_cell(500, 24, 2_000).with_sched_cost(50);
        let seq = sequential(&w, &CostModel::default());
        let bar = barrier(&w, 8, &CostModel::default());
        let dom = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        assert!(
            dom.speedup_over(seq.total_ns) > bar.speedup_over(seq.total_ns),
            "DOMORE {} must beat barrier {}",
            dom.speedup_over(seq.total_ns),
            bar.speedup_over(seq.total_ns)
        );
    }

    #[test]
    fn rotating_conflicts_generate_conditions_and_stalls() {
        let w = UniformWorkload::rotating(50, 16, 3_000);
        let r = domore(&w, 4, &mut RoundRobin, &CostModel::default());
        assert!(r.stats.sync_conditions > 0);
    }

    #[test]
    fn localwrite_policy_eliminates_conditions_for_fixed_cells() {
        let w = UniformWorkload::same_cell(50, 16, 3_000);
        let r = domore(&w, 4, &mut LocalWrite::new(16), &CostModel::default());
        assert_eq!(r.stats.sync_conditions, 0);
    }

    #[test]
    fn heavy_scheduler_limits_scaling() {
        // Scheduler slice ≈ kernel cost: the scheduler serializes the region
        // (the ECLAT/FLUIDANIMATE observation of §5.1).
        let w = UniformWorkload::independent(100, 24, 1_000).with_sched_cost(900);
        let seq = sequential(&w, &CostModel::default());
        let s8 = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        let s16 = domore(&w, 16, &mut RoundRobin, &CostModel::default());
        let (a, b) = (
            s8.speedup_over(seq.total_ns),
            s16.speedup_over(seq.total_ns),
        );
        assert!(b < a * 1.2, "scheduler-bound: {a} vs {b}");
    }

    #[test]
    fn barriered_domore_is_no_faster_than_full_domore() {
        let w = UniformWorkload::same_cell(200, 24, 2_000).with_sched_cost(50);
        let full = domore(&w, 8, &mut RoundRobin, &CostModel::default());
        let barriered = domore_barriered(&w, 8, &mut RoundRobin, &CostModel::default());
        assert!(barriered.total_ns >= full.total_ns);
        assert_eq!(barriered.stats.tasks, full.stats.tasks);
    }

    #[test]
    fn duplicated_scheduler_pays_redundant_scheduling() {
        let w = UniformWorkload::independent(50, 32, 1_000).with_sched_cost(400);
        let seq = sequential(&w, &CostModel::default());
        let sep = domore(&w, 6, &mut RoundRobin, &CostModel::default());
        let dup = domore_duplicated(&w, 6, &mut RoundRobin, &CostModel::default());
        // Redundant scheduling makes the duplicated variant slower here
        // (every worker pays the full scheduling stream).
        assert!(dup.total_ns >= sep.total_ns);
        assert!(dup.speedup_over(seq.total_ns) > 1.0);
    }

    #[test]
    fn single_worker_matches_serialized_cost() {
        let w = UniformWorkload::independent(3, 4, 100).with_sched_cost(10);
        let free = CostModel::free();
        let r = domore(&w, 1, &mut RoundRobin, &free);
        // Scheduler and worker pipeline: worker finishes after all work.
        assert!(r.total_ns >= 12 * 100);
        assert_eq!(r.stats.tasks, 12);
    }

    #[test]
    fn traced_run_emits_dispatches_and_condition_waits() {
        use crossinvoc_runtime::trace::{Event, Trace, TraceReport};
        let w = UniformWorkload::rotating(50, 16, 3_000);
        let r = domore_traced(&w, 4, &mut RoundRobin, &CostModel::default(), Some(1 << 14));
        let trace = r.trace.expect("tracing was requested");
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("valid JSONL");
        assert_eq!(parsed, trace);
        let report = TraceReport::from_trace(&trace);
        let tasks: u64 = report.threads.iter().map(|t| t.tasks).sum();
        assert_eq!(tasks, r.stats.tasks);
        if r.stats.stalls > 0 {
            assert!(trace
                .records()
                .iter()
                .any(|rec| matches!(rec.event, Event::BarrierLeave { .. })));
        }
        // The untraced entry point stays trace-free.
        assert!(domore(&w, 4, &mut RoundRobin, &CostModel::default())
            .trace
            .is_none());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let w = UniformWorkload::independent(1, 1, 1);
        domore(&w, 0, &mut RoundRobin, &CostModel::default());
    }
}
