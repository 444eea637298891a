//! Property-based tests of the system's core invariants.
//!
//! The correctness argument of both techniques reduces to a handful of
//! invariants — signature conservativeness, scheduling-condition
//! well-formedness, runtime/sequential equivalence, simulator determinism.
//! These are checked here over randomized inputs with `proptest`.

use proptest::prelude::*;

use crossinvoc_domore::logic::SchedulerLogic;
use crossinvoc_domore::prelude::*;
use crossinvoc_runtime::signature::{AccessKind, AccessSignature, BloomSignature, RangeSignature};
use crossinvoc_runtime::telemetry::{RegionState, ServerRegistry};
use crossinvoc_runtime::trace::{Event, Trace, TraceSink};
use crossinvoc_runtime::SharedSlice;
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::Position;

/// An access list: (address, is_write) pairs over a small address space.
fn accesses() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0usize..64, any::<bool>()), 0..12)
}

fn fill<S: AccessSignature>(list: &[(usize, bool)]) -> S {
    let mut s = S::empty();
    for &(addr, w) in list {
        s.record(
            addr,
            if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        );
    }
    s
}

/// Exact conflict semantics: some address touched by both, with at least
/// one write on each... (write/any overlap).
fn exact_conflict(a: &[(usize, bool)], b: &[(usize, bool)]) -> bool {
    a.iter()
        .any(|&(addr, aw)| b.iter().any(|&(baddr, bw)| addr == baddr && (aw || bw)))
}

proptest! {
    /// Signatures are conservative: a real conflict is never missed.
    #[test]
    fn range_signature_never_misses_conflicts(a in accesses(), b in accesses()) {
        if exact_conflict(&a, &b) {
            let sa: RangeSignature = fill(&a);
            let sb: RangeSignature = fill(&b);
            prop_assert!(sa.conflicts_with(&sb));
        }
    }

    /// Same soundness property for the Bloom scheme.
    #[test]
    fn bloom_signature_never_misses_conflicts(a in accesses(), b in accesses()) {
        if exact_conflict(&a, &b) {
            let sa: BloomSignature = fill(&a);
            let sb: BloomSignature = fill(&b);
            prop_assert!(sa.conflicts_with(&sb));
        }
    }

    /// Conflict detection is symmetric for both schemes.
    #[test]
    fn signature_conflicts_are_symmetric(a in accesses(), b in accesses()) {
        let (ra, rb): (RangeSignature, RangeSignature) = (fill(&a), fill(&b));
        prop_assert_eq!(ra.conflicts_with(&rb), rb.conflicts_with(&ra));
        let (ba, bb): (BloomSignature, BloomSignature) = (fill(&a), fill(&b));
        prop_assert_eq!(ba.conflicts_with(&bb), bb.conflicts_with(&ba));
    }

    /// Scheduler conditions are well-formed: they reference strictly
    /// earlier combined iterations, never the assigned worker itself, and
    /// at most one condition per predecessor worker.
    #[test]
    fn scheduler_conditions_are_well_formed(
        stream in prop::collection::vec((0usize..4, prop::collection::vec(0usize..32, 0..4)), 1..80)
    ) {
        let mut logic = SchedulerLogic::with_dense_shadow(32);
        let mut conds = Vec::new();
        for (tid, addrs) in stream {
            conds.clear();
            let iter = logic.schedule(tid, &addrs, &mut conds);
            for c in &conds {
                prop_assert!(c.dep_iter < iter, "conditions look backwards");
                prop_assert_ne!(c.dep_tid, tid, "no self-waits");
            }
            let mut tids: Vec<_> = conds.iter().map(|c| c.dep_tid).collect();
            tids.sort_unstable();
            tids.dedup();
            prop_assert_eq!(tids.len(), conds.len(), "one condition per worker");
        }
    }

    /// Position packing round-trips and preserves order.
    #[test]
    fn position_pack_is_order_preserving(e1 in 0u32..1000, t1 in 0u32..1000,
                                         e2 in 0u32..1000, t2 in 0u32..1000) {
        let a = Position { epoch: e1, task: t1 };
        let b = Position { epoch: e2, task: t2 };
        prop_assert_eq!(Position::unpack(a.pack()), a);
        prop_assert_eq!(a < b, a.pack() < b.pack());
    }

    /// The simulator is a pure function: identical inputs, identical
    /// timelines.
    #[test]
    fn simulator_is_deterministic(invs in 1usize..12, iters in 1usize..16,
                                  cost_ns in 1u64..10_000, threads in 1usize..9) {
        let w = UniformWorkload::rotating(invs, iters, cost_ns);
        let model = CostModel::default();
        let a = barrier(&w, threads, &model);
        let b = barrier(&w, threads, &model);
        prop_assert_eq!(&a, &b);
        let params = SpecSimParams::with_threads(threads);
        let sa = speccross(&w, &params, &model);
        let sb = speccross(&w, &params, &model);
        prop_assert_eq!(sa.total_ns, sb.total_ns);
    }

    /// Simulated parallel executions respect the work lower bound
    /// (total time ≥ total work / threads) and never beat it.
    #[test]
    fn simulated_time_respects_work_conservation(invs in 1usize..10, iters in 1usize..16,
                                                 cost_ns in 100u64..5_000, threads in 1usize..9) {
        let w = UniformWorkload::independent(invs, iters, cost_ns);
        let work = w.total_work_ns();
        let r = barrier(&w, threads, &CostModel::free());
        prop_assert!(r.total_ns >= work / threads as u64);
        prop_assert!(r.total_ns <= work, "parallel never slower than serial work");
    }
}

/// A fault-injection workload for the robustness property below: task `t`
/// of every epoch increments cell `t`, so the sequential reference is
/// simply `epochs` in every cell and a clean run never conflicts.
struct FaultGrid {
    data: SharedSlice<u64>,
    epochs: usize,
}

impl FaultGrid {
    fn new(n: usize, epochs: usize) -> Self {
        Self {
            data: SharedSlice::from_vec(vec![0; n]),
            epochs,
        }
    }

    fn cells(&self) -> Vec<u64> {
        (0..self.data.len())
            .map(|i| unsafe { self.data.read(i) })
            .collect()
    }
}

impl crossinvoc_speccross::SpecWorkload for FaultGrid {
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
        _tid: usize,
        rec: &mut dyn crossinvoc_speccross::AccessRecorder,
    ) {
        rec.write(task);
        // SAFETY: same-epoch tasks write disjoint cells; cross-epoch
        // revisits are ordered by the engine.
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

proptest! {
    /// The robustness invariant: a run under *any* seeded fault plan ends,
    /// within the watchdog deadline, in either the sequential reference
    /// state or a typed error — never a deadlock, never an abort.
    #[test]
    fn any_seeded_fault_plan_ends_sequential_or_typed_error(seed in any::<u64>()) {
        use crossinvoc_runtime::fault::FaultPlan;
        use crossinvoc_speccross::{DegradePolicy, SpecConfig, SpecCrossEngine};

        let (epochs, tasks, workers) = (6usize, 6usize, 2usize);
        let plan = FaultPlan::random(seed, epochs as u32, tasks as u64, workers);
        let w = FaultGrid::new(tasks, epochs);
        let result = SpecCrossEngine::<RangeSignature>::new(
            SpecConfig::with_workers(workers)
                .checkpoint_every(2)
                .fault_plan(plan)
                .degrade(DegradePolicy::default())
                .watchdog(std::time::Duration::from_secs(60)),
        )
        .execute(&w);
        match result {
            // Absorbed (possibly degraded): the state must be sequential.
            Ok(report) => {
                prop_assert_eq!(w.cells(), vec![epochs as u64; tasks]);
                prop_assert_eq!(report.stats.epochs >= epochs as u64, true);
            }
            // Not absorbable: a typed error is the contract; reaching this
            // arm at all means no hang and no process abort.
            Err(e) => {
                let _: crossinvoc_speccross::SpecError = e;
            }
        }
    }
}

/// Randomized DOMORE executions on real threads match sequential
/// semantics. Kept outside `proptest!` iteration-count defaults: thread
/// spawning is expensive, so a handful of seeded cases suffice.
#[test]
fn randomized_domore_matches_sequential() {
    struct Random {
        data: SharedSlice<u64>,
        cells: Vec<Vec<usize>>, // per (inv, iter) address sets
        invs: usize,
        iters: usize,
    }
    impl DomoreWorkload for Random {
        fn num_invocations(&self) -> usize {
            self.invs
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.iters
        }
        fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
            out.extend(&self.cells[inv * self.iters + iter]);
        }
        fn execute_iteration(&self, inv: usize, iter: usize, _tid: usize) {
            for &addr in &self.cells[inv * self.iters + iter] {
                // SAFETY: the runtime orders conflicting iterations.
                unsafe {
                    self.data.update(addr, |v| {
                        *v = crossinvoc_runtime::hash::splitmix64(*v ^ (inv * 31 + iter) as u64)
                    })
                };
            }
        }
        fn address_space(&self) -> Option<usize> {
            Some(self.data.len())
        }
    }

    for seed in 0..6u64 {
        let mut rng = crossinvoc_runtime::hash::SplitMix64::new(seed);
        let (invs, iters, space) = (6, 10, 24);
        let cells: Vec<Vec<usize>> = (0..invs * iters)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| rng.next_below(space as u64) as usize)
                    .collect()
            })
            .collect();
        let make = |cells: Vec<Vec<usize>>| Random {
            data: SharedSlice::from_vec(vec![0; space]),
            cells,
            invs,
            iters,
        };
        let mut reference = make(cells.clone());
        for inv in 0..invs {
            for iter in 0..iters {
                reference.execute_iteration(inv, iter, 0);
            }
        }
        let expected = reference.data.snapshot();
        let mut parallel = make(cells);
        DomoreRuntime::new(DomoreConfig::with_workers(3))
            .execute(&parallel)
            .unwrap();
        assert_eq!(parallel.data.snapshot(), expected, "seed {seed}");
    }
}

/// A seeded random DOMORE nest over a small address space, shared by the
/// dispatch-equivalence property below.
struct RandomNest {
    data: SharedSlice<u64>,
    cells: Vec<Vec<usize>>, // per (inv, iter) address sets
    invs: usize,
    iters: usize,
}

impl RandomNest {
    fn generate(seed: u64, invs: usize, iters: usize, space: usize) -> Vec<Vec<usize>> {
        let mut rng = crossinvoc_runtime::hash::SplitMix64::new(seed);
        (0..invs * iters)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| rng.next_below(space as u64) as usize)
                    .collect()
            })
            .collect()
    }

    fn new(cells: Vec<Vec<usize>>, invs: usize, iters: usize, space: usize) -> Self {
        Self {
            data: SharedSlice::from_vec(vec![0; space]),
            cells,
            invs,
            iters,
        }
    }
}

impl DomoreWorkload for RandomNest {
    fn num_invocations(&self) -> usize {
        self.invs
    }
    fn num_iterations(&self, _inv: usize) -> usize {
        self.iters
    }
    fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
        out.extend(&self.cells[inv * self.iters + iter]);
    }
    fn execute_iteration(&self, inv: usize, iter: usize, _tid: usize) {
        for &addr in &self.cells[inv * self.iters + iter] {
            // SAFETY: the runtime orders conflicting iterations.
            unsafe {
                self.data.update(addr, |v| {
                    *v = crossinvoc_runtime::hash::splitmix64(*v ^ (inv * 31 + iter) as u64)
                })
            };
        }
    }
    fn address_space(&self) -> Option<usize> {
        Some(self.data.len())
    }
}

proptest! {
    /// Dispatch-policy transparency: round-robin and adaptive dispatch are
    /// different *placements* of the same dependence-ordered iteration
    /// stream, so both must land in exactly the sequential state — policy
    /// choice can change timing, never observable results.
    #[test]
    fn round_robin_and_adaptive_dispatch_agree_with_sequential(
        seed in any::<u64>(),
        workers in 1usize..=3,
    ) {
        let (invs, iters, space) = (4usize, 8usize, 16usize);
        let cells = RandomNest::generate(seed, invs, iters, space);

        let mut reference = RandomNest::new(cells.clone(), invs, iters, space);
        for inv in 0..invs {
            for iter in 0..iters {
                reference.execute_iteration(inv, iter, 0);
            }
        }
        let expected = reference.data.snapshot();

        for dispatch in [Dispatch::RoundRobin, Dispatch::Adaptive] {
            let mut nest = RandomNest::new(cells.clone(), invs, iters, space);
            DomoreRuntime::new(DomoreConfig::with_workers(workers))
                .with_dispatch(dispatch)
                .execute(&nest)
                .unwrap();
            prop_assert_eq!(
                nest.data.snapshot(),
                expected.clone(),
                "dispatch {:?} diverged (seed {}, {} workers)",
                dispatch,
                seed,
                workers
            );
        }
    }
}

/// Inspector-Executor wavefront soundness: two iterations placed in the
/// same wavefront never conflict (write/any overlap) — checked over random
/// access patterns.
#[test]
fn inspector_wavefronts_are_conflict_free() {
    use crossinvoc_runtime::hash::SplitMix64;
    use crossinvoc_runtime::signature::AccessKind;
    use crossinvoc_sim::inspector::wavefronts;

    #[derive(Debug)]
    struct RandomAccesses {
        cells: Vec<Vec<(usize, AccessKind)>>,
    }
    impl SimWorkload for RandomAccesses {
        fn num_invocations(&self) -> usize {
            1
        }
        fn num_iterations(&self, _inv: usize) -> usize {
            self.cells.len()
        }
        fn iteration_cost(&self, _inv: usize, _iter: usize) -> u64 {
            1
        }
        fn accesses(&self, _inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
            out.extend_from_slice(&self.cells[iter]);
        }
        fn address_space(&self) -> Option<usize> {
            Some(16)
        }
    }

    for seed in 0..20u64 {
        let mut rng = SplitMix64::new(seed);
        let cells: Vec<Vec<(usize, AccessKind)>> = (0..40)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| {
                        let addr = rng.next_below(16) as usize;
                        let kind = if rng.next_below(2) == 0 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        (addr, kind)
                    })
                    .collect()
            })
            .collect();
        let w = RandomAccesses { cells };
        let fronts = wavefronts(&w, 0);
        for a in 0..40 {
            for b in (a + 1)..40 {
                if fronts[a] != fronts[b] {
                    continue;
                }
                let conflict = w.cells[a].iter().any(|&(addr, ka)| {
                    w.cells[b].iter().any(|&(baddr, kb)| {
                        addr == baddr && (ka == AccessKind::Write || kb == AccessKind::Write)
                    })
                });
                assert!(
                    !conflict,
                    "seed {seed}: iterations {a} and {b} share wavefront {} but conflict",
                    fronts[a]
                );
            }
        }
    }
}

/// Decodes a thread id from raw bits, including the service-thread
/// sentinels that exercise the JSONL writer's special cases.
fn tid_from(raw: u64) -> usize {
    use crossinvoc_runtime::trace::{checker_shard_tid, CHECKER_TID, MANAGER_TID};
    match raw % 10 {
        7 => checker_shard_tid((raw >> 8) as usize % 64),
        8 => CHECKER_TID,
        9 => MANAGER_TID,
        n => n as usize,
    }
}

/// Builds one arbitrary trace [`Event`]: `sel` picks the variant and the
/// raw words fill its fields. (The vendored proptest shim has no
/// `prop_oneof!`, so variant choice is an explicit decode; callers sweep
/// `sel` over `0..15` to guarantee every variant appears in every case.)
fn event_from(
    sel: usize,
    x: (u64, u64, u64),
    y: (u64, u64, u64),
) -> crossinvoc_runtime::trace::Event {
    use crossinvoc_runtime::fault::FaultKind;
    use crossinvoc_runtime::trace::{Event, WakeEdge};
    let (a, b, c) = x;
    let (d, e, f) = y;
    let epoch = a as u32;
    match sel % 15 {
        0 => Event::EpochBegin { epoch },
        1 => Event::EpochEnd { epoch },
        2 => Event::TaskAssign {
            epoch,
            task: b,
            worker: tid_from(c),
        },
        3 => Event::TaskDispatch { epoch, task: b },
        4 => Event::TaskRetire { epoch, task: b },
        5 => Event::BarrierEnter { epoch },
        6 => Event::BarrierLeave { epoch, wait_ns: b },
        7 => Event::Checkpoint { epoch },
        8 => Event::Misspeculation {
            earlier_tid: tid_from(a),
            earlier_epoch: b as u32,
            earlier_task: c,
            later_tid: tid_from(d),
            later_epoch: e as u32,
            later_task: f,
        },
        9 => Event::Degradation { epoch },
        10 => Event::FaultInjected {
            kind: match b % 7 {
                0 => FaultKind::WorkerPanic,
                1 => FaultKind::CheckerStall(c),
                2 => FaultKind::CheckerDeath,
                3 => FaultKind::FalsePositive,
                4 => FaultKind::SnapshotFail,
                5 => FaultKind::RestoreFail,
                _ => FaultKind::Delay(c),
            },
            epoch,
            task: d,
        },
        11 => Event::CheckerSummary {
            epoch,
            skips: b,
            comparisons: c,
        },
        12 => Event::CheckElided {
            epoch,
            tasks: b,
            accesses: c,
        },
        13 => Event::CheckerShard {
            shard: b as u32,
            shards: c as u32,
            requests: d,
        },
        _ => Event::Wake {
            edge: WakeEdge::ALL[(b % 4) as usize],
            src_tid: tid_from(c),
            seq: d,
        },
    }
}

proptest! {
    /// The JSONL wire schema is lossless over *every* event variant,
    /// including `Wake` over all four edge classes, the checker-shard tid
    /// band and full-range `u64` fields: a trace built from arbitrary
    /// records round-trips through `to_jsonl`/`from_jsonl` unchanged. At
    /// least 15 records per case and an `i % 15` variant sweep guarantee
    /// full variant coverage in every case, not just in expectation.
    #[test]
    fn trace_jsonl_round_trips_every_event_variant(
        raw in prop::collection::vec(
            (any::<u64>(), any::<u64>(),
             (any::<u64>(), any::<u64>(), any::<u64>()),
             (any::<u64>(), any::<u64>(), any::<u64>())),
            15..40)
    ) {
        use crossinvoc_runtime::trace::{Trace, TraceRecord};
        let records: Vec<TraceRecord> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (t_ns, tid, x, y))| TraceRecord {
                t_ns,
                tid: tid_from(tid),
                event: event_from(i, x, y),
            })
            .collect();
        let trace = Trace::from_records(records);
        let parsed = Trace::from_jsonl(&trace.to_jsonl());
        prop_assert_eq!(parsed.expect("round-trip must parse"), trace);
    }
}

/// The exact overlap-race predicate the checker implements, restated
/// pointwise for the naive reference below: two logged tasks race iff they
/// ran on different workers in different epochs and the earlier-epoch task
/// had not retired when the later-epoch task began.
fn races(
    a: &crossinvoc_speccross::CheckRequest<RangeSignature>,
    b: &crossinvoc_speccross::CheckRequest<RangeSignature>,
) -> bool {
    if a.tid == b.tid || a.pos.epoch == b.pos.epoch {
        return false;
    }
    let (earlier, later) = if a.pos.epoch < b.pos.epoch {
        (a, b)
    } else {
        (b, a)
    };
    earlier.pos >= later.snapshot[earlier.tid] && a.sig.conflicts_with(&b.sig)
}

proptest! {
    /// The epoch-bucketed checker with its aggregate fast path reaches the
    /// same verdict as a naive reference that compares the arriving request
    /// against *every* logged task with the pure race predicate — over
    /// randomized interleavings with monotone progress boards, lagging
    /// snapshot views and interleaved retirement. When the bucketed checker
    /// reports a conflict, the named pair must really race.
    #[test]
    fn bucketed_checker_matches_naive_reference(
        workers in 2usize..5,
        steps in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0usize..24, 0..4)), 1..100),
    ) {
        use crossinvoc_speccross::{CheckRequest, CheckerState};

        let mut board = vec![Position::ZERO; workers]; // latest started pos
        let mut observed = vec![Position::ZERO; workers]; // lagging view
        let mut live = vec![false; workers];
        let mut bucketed = CheckerState::<RangeSignature>::new(workers);
        let mut naive: Vec<CheckRequest<RangeSignature>> = Vec::new();

        for (r, addrs) in steps {
            let w = (r % workers as u64) as usize;
            // Advance worker `w` to its next position: a fresh epoch with
            // probability 1/3, the next task of the current epoch otherwise.
            let pos = if !live[w] {
                live[w] = true;
                board[w]
            } else if (r >> 4) % 3 == 0 {
                Position { epoch: board[w].epoch + 1, task: 0 }
            } else {
                Position { epoch: board[w].epoch, task: board[w].task + 1 }
            };
            board[w] = pos;
            // Occasionally publish some worker's progress into the lagging
            // view; both moves keep every log's snapshots monotone.
            if (r >> 16) % 2 == 0 {
                let v = ((r >> 20) % workers as u64) as usize;
                observed[v] = board[v];
            }
            observed[w] = pos;
            let mut sig = RangeSignature::empty();
            for &a in &addrs {
                sig.record(a, AccessKind::Write);
            }
            let req = CheckRequest {
                tid: w,
                pos,
                snapshot: observed.clone().into_boxed_slice(),
                sig,
            };

            let expect = naive.iter().any(|logged| races(logged, &req));
            let got = bucketed.admit(req.clone());
            prop_assert_eq!(got.is_some(), expect, "verdicts diverged");
            if let Some(c) = got {
                let find = |(tid, pos): (usize, Position)| {
                    if req.tid == tid && req.pos == pos {
                        req.clone()
                    } else {
                        naive
                            .iter()
                            .find(|q| q.tid == tid && q.pos == pos)
                            .expect("conflict names a logged task")
                            .clone()
                    }
                };
                let (earlier, later) = (find(c.earlier), find(c.later));
                prop_assert!(earlier.pos.epoch < later.pos.epoch);
                prop_assert!(races(&earlier, &later), "reported pair must race");
            }
            naive.push(req);

            // Occasional retirement at a globally-passed epoch; both sides
            // must drop exactly the same entries.
            if (r >> 24) % 8 == 0 {
                let e = board.iter().map(|p| p.epoch).min().unwrap_or(0);
                bucketed.retire_before(e);
                naive.retain(|q| q.pos.epoch >= e);
                prop_assert_eq!(bucketed.logged(), naive.len());
            }
        }
    }

    /// Sharding the checker is verdict-transparent for Range signatures:
    /// over randomized request streams — multi-address spans that straddle
    /// shards, lagging snapshot views, interleaved retirement — every shard
    /// count issues exactly the unsharded verdict at every admission. (The
    /// merge rule under test: a straddling task is admitted iff every
    /// touched shard admits it, and any shard's conflict is the verdict.)
    #[test]
    fn sharded_checker_matches_unsharded_verdicts(
        workers in 2usize..5,
        shards in 2usize..10,
        steps in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0usize..24, 0..4)), 1..100),
    ) {
        use crossinvoc_speccross::{CheckRequest, CheckerState, ShardedChecker};

        let mut board = vec![Position::ZERO; workers];
        let mut observed = vec![Position::ZERO; workers];
        let mut live = vec![false; workers];
        let mut plain = CheckerState::<RangeSignature>::new(workers);
        let mut sharded = ShardedChecker::<RangeSignature>::new(workers, shards);

        for (r, addrs) in steps {
            let w = (r % workers as u64) as usize;
            let pos = if !live[w] {
                live[w] = true;
                board[w]
            } else if (r >> 4) % 3 == 0 {
                Position { epoch: board[w].epoch + 1, task: 0 }
            } else {
                Position { epoch: board[w].epoch, task: board[w].task + 1 }
            };
            board[w] = pos;
            if (r >> 16) % 2 == 0 {
                let v = ((r >> 20) % workers as u64) as usize;
                observed[v] = board[v];
            }
            observed[w] = pos;
            let mut sig = RangeSignature::empty();
            for &a in &addrs {
                sig.record(a, AccessKind::Write);
            }
            let req = CheckRequest {
                tid: w,
                pos,
                snapshot: observed.clone().into_boxed_slice(),
                sig,
            };
            prop_assert_eq!(
                sharded.admit(req.clone()).is_some(),
                plain.admit(req).is_some(),
                "verdicts diverged at {:?} with {} shards",
                pos,
                shards
            );
            if (r >> 24) % 8 == 0 {
                let e = board.iter().map(|p| p.epoch).min().unwrap_or(0);
                plain.retire_before(e);
                sharded.retire_before(e);
            }
        }
    }
}

/// Restoring DOMORE's barrier at every invocation can only slow it down:
/// the barriered executor is never faster than the cross-invocation one.
#[test]
fn barriered_domore_never_beats_full_domore() {
    use crossinvoc_domore::policy::RoundRobin;
    for (invs, iters, cost_ns) in [(20, 8, 500), (5, 64, 3_000), (50, 3, 10_000)] {
        let w = UniformWorkload::rotating(invs, iters, cost_ns);
        let model = CostModel::default();
        let full = domore(&w, 4, &mut RoundRobin, &model);
        let barriered = domore_barriered(&w, 4, &mut RoundRobin, &model);
        assert!(
            barriered.total_ns >= full.total_ns,
            "({invs},{iters},{cost_ns}): {} < {}",
            barriered.total_ns,
            full.total_ns
        );
    }
}

proptest! {
    /// The differential fuzzer's acceptance property: a randomly generated
    /// case with a randomly injected fault schedule always terminates
    /// (watchdog-bounded inside `run_case`) and every engine path either
    /// reproduces the sequential oracle's memory image byte for byte or
    /// fails with a typed error / degraded report — never a hang, never
    /// silent corruption.
    #[test]
    fn fault_injected_cases_terminate_with_clean_outcomes(seed in 0u64..1_000_000) {
        let params = crossinvoc_fuzz::GenParams {
            fault_percent: 100,
            ..crossinvoc_fuzz::GenParams::default()
        };
        let case = crossinvoc_fuzz::generate(seed, &params);
        let report = crossinvoc_fuzz::run_case(&case);
        prop_assert!(
            report.divergence.is_none(),
            "seed {} ({}): {:?}",
            seed,
            case.note,
            report.divergence
        );
    }

    /// Fault-free cases are exact: every applicable path must agree with
    /// the oracle, including the Bloom-signature configurations whose
    /// false positives trigger rollbacks.
    #[test]
    fn fault_free_cases_are_oracle_exact(seed in 0u64..1_000_000) {
        let params = crossinvoc_fuzz::GenParams {
            fault_percent: 0,
            ..crossinvoc_fuzz::GenParams::default()
        };
        let case = crossinvoc_fuzz::generate(seed, &params);
        let report = crossinvoc_fuzz::run_case(&case);
        prop_assert!(
            report.divergence.is_none(),
            "seed {} ({}): {:?}",
            seed,
            case.note,
            report.divergence
        );
    }
}

proptest! {
    /// Static check elision is observationally transparent on real
    /// threads: over random fault-free regions, executing the accepted
    /// plan with elision forced off and forced on both succeeds and leaves
    /// byte-identical memory digests. The off run must never bank an
    /// elided admission (the config flag, not the analysis, gates the fast
    /// path), and a fully-proven region that never misspeculates must
    /// reach the commit point without filing a single check request.
    #[test]
    fn elision_on_and_off_agree_on_memory_digests(seed in 0u64..1_000_000) {
        use crossinvoc_pir::{Memory, SpecCrossPlan};
        use crossinvoc_speccross::SpecConfig;

        let params = crossinvoc_fuzz::GenParams {
            fault_percent: 0,
            ..crossinvoc_fuzz::GenParams::default()
        };
        let case = crossinvoc_fuzz::generate(seed, &params);
        if let Some(outer) = case.outer() {
            if let Ok(plan) = SpecCrossPlan::build(&case.program, outer) {
                let config = |elide: bool| {
                    SpecConfig::with_workers(case.workers)
                        .checkpoint_every(case.checkpoint_every)
                        .checker_shards(case.checker_shards)
                        .epoch_summaries(true)
                        .elide(elide)
                        .watchdog(std::time::Duration::from_secs(60))
                };
                let mut off_mem = Memory::zeroed(&case.program);
                let off = plan
                    .execute_sig::<RangeSignature>(&mut off_mem, config(false))
                    .unwrap_or_else(|e| panic!("seed {seed} ({}): elide-off: {e:?}", case.note));
                let mut on_mem = Memory::zeroed(&case.program);
                let on = plan
                    .execute_sig::<RangeSignature>(&mut on_mem, config(true))
                    .unwrap_or_else(|e| panic!("seed {seed} ({}): elide-on: {e:?}", case.note));
                prop_assert_eq!(
                    off_mem.snapshot(),
                    on_mem.snapshot(),
                    "seed {} ({}): elision changed the memory digest",
                    seed,
                    case.note
                );
                prop_assert_eq!(off.stats.elided_admits, 0, "off run elided");
                prop_assert_eq!(off.stats.elided_signatures, 0, "off run elided");
                if plan.elision().fully_proven() && on.stats.misspeculations == 0 {
                    prop_assert_eq!(
                        on.stats.check_requests,
                        0,
                        "seed {}: fully-proven region still filed checks",
                        seed
                    );
                }
            }
        }
    }

    /// The simulator mirror, where verdict streams *are* deterministic:
    /// the elide flag alone (nothing proven) is timeline-inert, and with
    /// every invocation proven — sound for the disjoint workload — the
    /// verdict stream is unchanged while check traffic and wall-clock only
    /// ever shrink.
    #[test]
    fn sim_elision_preserves_verdict_streams(invs in 1usize..10, iters in 1usize..16,
                                             cost_ns in 1u64..5_000, threads in 1usize..9) {
        let model = CostModel::default();
        let params = |elide: bool| SpecSimParams::with_threads(threads).elide(elide);

        let w = UniformWorkload::rotating(invs, iters, cost_ns);
        let base = speccross(&w, &params(false), &model);
        let flag = speccross(&w, &params(true), &model);
        prop_assert_eq!(base.total_ns, flag.total_ns, "flag alone moved the clock");
        prop_assert_eq!(base.stats.check_requests, flag.stats.check_requests);
        prop_assert_eq!(flag.stats.elided_admits, 0, "elided without a proof");

        let w = UniformWorkload::independent(invs, iters, cost_ns);
        let off = speccross(&w, &params(false), &model);
        let on = speccross(&w.assume_proven(), &params(true), &model);
        prop_assert_eq!(off.stats.misspeculations, on.stats.misspeculations);
        prop_assert_eq!(off.stats.tasks, on.stats.tasks);
        prop_assert_eq!(off.degraded, on.degraded);
        prop_assert!(on.stats.check_requests <= off.stats.check_requests);
        prop_assert!(on.total_ns <= off.total_ns, "elision slowed the sim down");
    }

    /// The flight-recorder substrate: a trace ring of capacity `c` handed
    /// `n` records keeps exactly the newest `min(n, c)` in emission order
    /// and accounts every eviction — `dropped()` is `n - min(n, c)`
    /// *exactly*, on the sink and on the merged [`Trace`] alike, so a
    /// post-mortem dump can always say how much history it is missing.
    #[test]
    fn trace_ring_drop_accounting_is_exact(capacity in 1usize..48, n in 0usize..128) {
        let mut sink = TraceSink::with_capacity(0, capacity);
        for i in 0..n {
            sink.emit_at(i as u64, Event::EpochBegin { epoch: i as u32 });
        }
        let kept = n.min(capacity);
        let evicted = (n - kept) as u64;
        prop_assert_eq!(sink.len(), kept);
        prop_assert_eq!(sink.dropped(), evicted);
        let trace = Trace::from_sinks([sink]);
        prop_assert_eq!(trace.records().len(), kept);
        prop_assert_eq!(trace.dropped(), evicted);
        // Survivors are exactly the newest `kept` records, oldest first.
        for (j, rec) in trace.records().iter().enumerate() {
            prop_assert_eq!(rec.t_ns, evicted + j as u64);
        }
    }

    /// Registry snapshots are consistent at every step of an arbitrary
    /// interleaving of registrations and cell lifecycle mutations: row
    /// counts and counters reflect exactly the operations applied so far,
    /// and a finish is terminal — replaying every cell with the *opposite*
    /// outcome afterwards changes nothing.
    #[test]
    fn registry_snapshots_reflect_applied_operations(
        specs in prop::collection::vec(
            (1usize..5, any::<bool>(), 0u64..4, 0u64..3), 1..8)
    ) {
        let registry = std::sync::Arc::new(ServerRegistry::new(8));
        let mut cells = Vec::new();
        for (i, &(gang, hard_fail, degrades, waits)) in specs.iter().enumerate() {
            let cell = registry.register(i as u64 + 1, "prop", gang);
            // Snapshot mid-registration: earlier regions present, in order.
            prop_assert_eq!(registry.snapshot().regions.len(), i + 1);
            cell.mark_running();
            for _ in 0..waits {
                cell.add_queue_wait(7);
            }
            for _ in 0..degrades {
                cell.add_degrade_event();
            }
            if hard_fail {
                cell.fail(None);
            } else {
                cell.complete(0, false, None);
            }
            cells.push(cell);
        }
        let snap = registry.snapshot();
        prop_assert_eq!(snap.pool.slots, 8);
        prop_assert_eq!(snap.regions.len(), specs.len());
        for (row, &(gang, hard_fail, degrades, waits)) in snap.regions.iter().zip(&specs) {
            prop_assert_eq!(row.gang, gang);
            prop_assert_eq!(row.queue_wait_ns, waits * 7);
            prop_assert_eq!(row.degrade_events, degrades);
            prop_assert_eq!(row.faults, u64::from(hard_fail));
            let want = if hard_fail { RegionState::Faulted } else { RegionState::Done };
            prop_assert_eq!(row.state, want);
        }
        // Terminality: contradicting finishes must be no-ops.
        for (cell, &(_, hard_fail, _, _)) in cells.iter().zip(&specs) {
            if hard_fail {
                cell.complete(5, true, None);
            } else {
                cell.fail(None);
            }
        }
        prop_assert_eq!(registry.snapshot().regions, snap.regions);
    }
}

/// Snapshots taken *while* a cell is mutated from another thread are
/// always internally consistent: the degrade counter only moves forward,
/// never exceeds what the mutator has applied, a snapshot that observes
/// the terminal state also observes every prior counter update, and the
/// post-join snapshot is exact. (Threaded companion to the sequential
/// `registry_snapshots_reflect_applied_operations` property, following the
/// suite's convention of keeping threaded checks outside `proptest!`.)
#[test]
fn registry_snapshots_stay_consistent_under_concurrent_mutation() {
    const EVENTS: u64 = 10_000;
    let registry = std::sync::Arc::new(ServerRegistry::new(4));
    let cell = registry.register(1, "prop-threaded", 2);
    std::thread::scope(|scope| {
        let mutator = {
            let cell = std::sync::Arc::clone(&cell);
            scope.spawn(move || {
                cell.mark_running();
                for _ in 0..EVENTS {
                    cell.add_degrade_event();
                }
                cell.complete(0, false, None);
            })
        };
        let mut last = 0u64;
        loop {
            let snap = registry.snapshot();
            assert_eq!(snap.regions.len(), 1);
            let row = &snap.regions[0];
            assert!(row.degrade_events >= last, "degrade counter went backwards");
            assert!(row.degrade_events <= EVENTS, "counter overshot the mutator");
            last = row.degrade_events;
            if row.state == RegionState::Done {
                // The terminal-state store releases every prior update.
                assert_eq!(row.degrade_events, EVENTS);
                break;
            }
            std::hint::spin_loop();
        }
        mutator.join().unwrap();
    });
    let row = &registry.snapshot().regions[0];
    assert_eq!(row.degrade_events, EVENTS);
    assert_eq!(row.faults, 0);
    assert_eq!(row.state, RegionState::Done);
}
