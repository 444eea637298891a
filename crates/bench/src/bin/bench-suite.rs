//! `bench-suite`: the machine-readable scheduling-policy regression
//! harness behind `target/figures/BENCH_3.json`.
//!
//! For every DOMORE-evaluated Table 5.1 kernel the suite runs three
//! configurations — `seq`, `round_robin` dispatch, and `adaptive`
//! dispatch — and reports, per kernel:
//!
//! * **simulated speedups** from the discrete-event model (virtual time,
//!   deterministic: the models carry fixed seeds), which is what the
//!   acceptance criteria are evaluated against — this container has one
//!   core, so parallel wall-clock would measure noise, not scheduling;
//! * **median wall time** of real-thread executions of the same kernels
//!   through [`AccessKernel`] (checksum-validated against the sequential
//!   image every repetition);
//! * **queue-wait histograms** from the runtime's [`Metrics`] — the
//!   stall-wait distribution each policy produced.
//!
//! Full mode additionally gates the regression criteria: adaptive must
//! beat round-robin by ≥1.15× (virtual time) on at least one imbalanced
//! kernel at the configured worker count and may not regress any balanced
//! kernel by more than 5%. `--smoke` keeps every run at test scale and
//! skips the criteria (they are calibrated at figure scale) so CI stays
//! under its time budget; the JSON is still written and validated.
//!
//! With `--fastpath` the suite instead produces
//! `target/figures/BENCH_5.json`, the regression gate for the checker's
//! epoch-summary pruning: a clustered-access SPECCROSS workload is
//! simulated with the per-epoch aggregate fast path on and off; full mode
//! requires the per-admitted-task signature-comparison count to drop by
//! ≥5× and the critical path's checker-latency share to shrink strictly.
//!
//! With `--shards` the suite produces `target/figures/BENCH_7.json`, the
//! regression gate for the sharded checker: the same clustered SPECCROSS
//! workload is simulated with the checker partitioned into 1, 2, 4 and 8
//! address-range shards. Every shard count must report the verdict stream
//! of the single checker (misspeculations, admitted tasks, check
//! requests), and in full mode the best sharded configuration must cut
//! the checker-wait critical-path share below `0.9738×` the single-shard
//! (BENCH_5 baseline) share.
//!
//! With `--regions` the suite produces `target/figures/BENCH_8.json`, the
//! region-server saturation gate: a mixed batch of independent SPECCROSS
//! and DOMORE regions is pushed through one shared
//! [`WorkerPool`](crossinvoc_runtime::pool::WorkerPool) via the
//! [`RegionServer`]. Three criteria, all
//! deterministic and therefore evaluated in smoke mode too:
//!
//! * **identity** — every region's result digest (tasks, epochs, verdict
//!   stream, final cells) through the shared pool is byte-identical to its
//!   solo region-at-a-time run;
//! * **throughput** — the pooled makespan, replayed in virtual time by the
//!   FIFO gang-admission model ([`crossinvoc_sim::server`]; this container
//!   has one core, so wall clock would measure noise), must be strictly
//!   below region-at-a-time execution;
//! * **isolation** — rerunning the batch with region 0 under a worker-panic
//!   fault plan leaves every neighbour's digest (including its verdict
//!   stream) byte-identical to solo, while region 0 itself still completes
//!   with the fault contained.
//!
//! With `--telemetry` the suite produces `target/figures/BENCH_9.json`,
//! the live-telemetry-plane gate over the BENCH_8 region batch (see
//! `docs/OBSERVABILITY.md`). Four criteria, all evaluated in smoke mode:
//!
//! * **overhead** — the batch rerun on CPU-heavy spin regions with the
//!   registry attached must keep ≥ `0.97×` the telemetry-off throughput
//!   (best-of-N wall time, arms interleaved so frequency drift cancels);
//! * **consistency** — after the joins, each region's registry snapshot row
//!   must equal the engine report's final `MetricsSummary` exactly (the
//!   engines alias the registry cell's counters, so live snapshots and the
//!   final report read the same memory);
//! * **flight** — a worker-panic fault plan on region 1 must produce
//!   exactly one flight-recorder dump, trigger `fault`, whose JSONL
//!   round-trips through the trace parser with exact drop accounting;
//! * **identity** — telemetry-on region digests (verdict streams included)
//!   must be byte-identical to telemetry-off.
//!
//! The run also writes `BENCH_9.snapshots.jsonl` (wire-schema snapshots
//! for `server-stats`) and `BENCH_9.prom` (Prometheus text exposition).
//!
//! With `--elide` the suite produces `target/figures/BENCH_10.json`, the
//! static-check-elision gate (see `docs/CHECKER.md` § Static elision).
//! Three criteria:
//!
//! * **transparency** — every Table 5.1 registry kernel, wrapped in the
//!   bench-side disjointness oracle (an invocation is proven iff no
//!   address it touches is written by a different invocation — the same
//!   conservative pair-conflict rule `pir::elide` applies to affine
//!   programs), must leave a memory digest on real threads with elision
//!   on that is byte-identical to elision off and to the sequential
//!   image, and an identical simulated verdict stream (misspeculations,
//!   tasks, degraded) with check requests only ever shrinking; evaluated
//!   in smoke mode too (the sweep is deterministic at test scale);
//! * **pruning** — on the mixed proven/unproven workload (even epochs the
//!   clustered shape static analysis proves, odd epochs scattered inside
//!   a private block — disjoint in fact, indirect in form), the combined
//!   summaries+elision comparisons-per-admit reduction over the bare
//!   checker must beat the `9.19×` epoch-summary baseline BENCH_5
//!   measured (full mode);
//! * **critical path** — elision must cut the mixed workload's
//!   checker-wait critical-path share below `0.8545×` the elide-off
//!   share — the factor the best BENCH_7 shard sweep achieved (full
//!   mode). The fully-proven clustered workload must additionally file
//!   **zero** check requests with elision on.
//!
//! ```text
//! bench-suite [--smoke] [--out PATH] [--workers N] [--reps N]
//! bench-suite --fastpath [--smoke] [--out PATH] [--workers N]
//! bench-suite --shards [--smoke] [--out PATH]
//! bench-suite --regions [--smoke] [--out PATH]
//! bench-suite --telemetry [--smoke] [--out PATH]
//! bench-suite --elide [--smoke] [--out PATH]
//! bench-suite --validate PATH   # parse an existing BENCH_3/5/7/8/9/10 report
//! ```
//!
//! `--validate` dispatches on the report's `schema` field, so one CI step
//! checks any artifact. Exit status is nonzero on panic, checksum
//! mismatch, malformed JSON, or failed criteria.
//!
//! [`AccessKernel`]: crossinvoc_workloads::AccessKernel
//! [`Metrics`]: crossinvoc_runtime::metrics::Metrics

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossinvoc::server::{RegionReport, RegionServer};
use crossinvoc_bench::json::{self, Json};
use crossinvoc_bench::out_dir;
use crossinvoc_domore::prelude::*;
use crossinvoc_domore::runtime::ExecutionReport;
use crossinvoc_runtime::fault::FaultPlan;
use crossinvoc_runtime::metrics::HistogramSummary;
use crossinvoc_runtime::signature::{AccessKind, RangeSignature};
use crossinvoc_runtime::telemetry::{
    FlightRecorder, RegionState, RegistrySnapshot, ServerRegistry,
};
use crossinvoc_runtime::trace::Trace;
use crossinvoc_runtime::ThreadId;
use crossinvoc_runtime::{critical_path, what_if, PathCategory, TraceReport, WakeEdge};
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::engine::{SpecConfig, SpecCrossEngine, SpecReport};
use crossinvoc_speccross::workload::{AccessRecorder, SpecWorkload};
use crossinvoc_workloads::{registry, AccessKernel, BenchmarkInfo, Scale};

/// Minimum virtual-time win adaptive must show over round-robin on at
/// least one imbalanced kernel (full mode).
const WIN_THRESHOLD: f64 = 1.15;
/// Maximum virtual-time regression tolerated on each balanced kernel.
const BALANCED_TOLERANCE: f64 = 0.95;
/// Minimum reduction of signature comparisons per admitted task the
/// epoch-summary fast path must show on the clustered workload (BENCH_5,
/// full mode).
const PRUNING_THRESHOLD: f64 = 5.0;
/// Maximum checker-wait critical-path share the best sharded checker may
/// report, as a fraction of the single-shard share (BENCH_7, full mode).
const SHARD_SHARE_FACTOR: f64 = 0.9738;
/// Shard counts the BENCH_7 suite sweeps; the leading 1 is the baseline.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// BENCH_5's measured epoch-summary pruning ratio; the combined
/// summaries+elision comparisons-per-admit reduction on the mixed
/// workload must beat it (BENCH_10, full mode).
const ELIDE_PRUNING_BASELINE: f64 = 9.19;
/// The checker-wait share factor the best BENCH_7 shard sweep achieved;
/// elision's share factor on the mixed workload must land strictly below
/// it (BENCH_10, full mode).
const ELIDE_SHARE_FACTOR: f64 = 0.8545;

struct Args {
    smoke: bool,
    fastpath: bool,
    shards: bool,
    regions: bool,
    telemetry: bool,
    elide: bool,
    out: PathBuf,
    workers: usize,
    reps: usize,
    validate: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        fastpath: false,
        shards: false,
        regions: false,
        telemetry: false,
        elide: false,
        out: PathBuf::new(), // resolved after the mode flags are known
        workers: 8,
        reps: 0, // resolved after --smoke is known
        validate: None,
    };
    let mut reps: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--fastpath" => args.fastpath = true,
            "--shards" => args.shards = true,
            "--regions" => args.regions = true,
            "--telemetry" => args.telemetry = true,
            "--elide" => args.elide = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--reps" => {
                reps = Some(
                    value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--validate" => args.validate = Some(PathBuf::from(value("--validate")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.reps = reps.unwrap_or(if args.smoke { 1 } else { 5 });
    if [
        args.fastpath,
        args.shards,
        args.regions,
        args.telemetry,
        args.elide,
    ]
    .iter()
    .filter(|&&f| f)
    .count()
        > 1
    {
        return Err(
            "--fastpath, --shards, --regions, --telemetry and --elide are mutually exclusive"
                .into(),
        );
    }
    let default_name = if args.elide {
        "BENCH_10.json"
    } else if args.telemetry {
        "BENCH_9.json"
    } else if args.regions {
        "BENCH_8.json"
    } else if args.shards {
        "BENCH_7.json"
    } else if args.fastpath {
        "BENCH_5.json"
    } else {
        "BENCH_3.json"
    };
    args.out = out.unwrap_or_else(|| out_dir().join(default_name));
    if args.workers == 0 || args.reps == 0 {
        return Err("--workers and --reps must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.validate {
        return match std::fs::read_to_string(path) {
            Ok(text) => match validate_report(&text) {
                Ok(desc) => {
                    println!("{}: {desc}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{}: invalid: {e}", path.display());
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    if args.elide {
        run_elide(&args)
    } else if args.telemetry {
        run_telemetry(&args)
    } else if args.regions {
        run_regions(&args)
    } else if args.shards {
        run_shards(&args)
    } else if args.fastpath {
        run_fastpath(&args)
    } else {
        run_suite(&args)
    }
}

/// One kernel's simulated timings for one dispatch policy.
struct SimRow {
    dispatch: Dispatch,
    total_ns: u64,
    speedup_vs_seq: f64,
    sync_conditions: u64,
    stalls: u64,
}

/// One kernel's real-thread timings for one configuration.
struct RealRow {
    name: &'static str,
    wall_ns: Vec<u64>,
    speedup_vs_seq: f64,
    stall_wait: Option<HistogramSummary>,
}

struct KernelReport {
    name: &'static str,
    imbalanced: bool,
    sim_scale: Scale,
    sim_seq_ns: u64,
    sim: Vec<SimRow>,
    real: Vec<RealRow>,
}

impl KernelReport {
    fn sim_ratio(&self) -> f64 {
        let rr = self.sim.iter().find(|r| r.dispatch == Dispatch::RoundRobin);
        let ad = self.sim.iter().find(|r| r.dispatch == Dispatch::Adaptive);
        match (rr, ad) {
            (Some(rr), Some(ad)) => rr.total_ns as f64 / ad.total_ns as f64,
            _ => 1.0,
        }
    }
}

fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

fn run_suite(args: &Args) -> ExitCode {
    let sim_scale = if args.smoke {
        Scale::Test
    } else {
        Scale::Figure
    };
    let cost = CostModel::default();
    let kernels: Vec<BenchmarkInfo> = registry().into_iter().filter(|b| b.domore).collect();
    let mut reports = Vec::new();
    let suite_start = Instant::now();

    for info in &kernels {
        println!("[{}] simulating at {sim_scale:?} scale", info.name);
        let model = info.model(sim_scale);
        let seq_ns = sequential(model.as_ref(), &cost).total_ns;
        let mut sim = Vec::new();
        for dispatch in [Dispatch::RoundRobin, Dispatch::Adaptive] {
            let mut policy = dispatch.policy();
            let r = crossinvoc_sim::domore(model.as_ref(), args.workers, policy.as_mut(), &cost);
            sim.push(SimRow {
                dispatch,
                total_ns: r.total_ns,
                speedup_vs_seq: r.speedup_over(seq_ns),
                sync_conditions: r.stats.sync_conditions,
                stalls: r.stats.stalls,
            });
        }

        // Real threads always run the test-scale kernel: wall time on this
        // host measures harness overhead, not parallel speedup, so small
        // checksum-validated runs are the honest configuration.
        println!(
            "[{}] executing on real threads ({} reps)",
            info.name, args.reps
        );
        let kernel = AccessKernel::from_model(info.model(Scale::Test));
        let expected = kernel.sequential_checksum();
        let mut real = Vec::new();

        let mut seq_walls = Vec::with_capacity(args.reps);
        for _ in 0..args.reps {
            kernel.reset();
            let t = Instant::now();
            for inv in 0..DomoreWorkload::num_invocations(&kernel) {
                for iter in 0..DomoreWorkload::num_iterations(&kernel, inv) {
                    kernel.execute_iteration(inv, iter, 0);
                }
            }
            seq_walls.push(t.elapsed().as_nanos() as u64);
            if kernel.checksum() != expected {
                eprintln!("[{}] sequential checksum mismatch", info.name);
                return ExitCode::FAILURE;
            }
        }
        let seq_median = median(&seq_walls).max(1);
        real.push(RealRow {
            name: "seq",
            wall_ns: seq_walls,
            speedup_vs_seq: 1.0,
            stall_wait: None,
        });

        for dispatch in [Dispatch::RoundRobin, Dispatch::Adaptive] {
            let mut walls = Vec::with_capacity(args.reps);
            let mut stall_wait = None;
            for _ in 0..args.reps {
                kernel.reset();
                let t = Instant::now();
                let report = DomoreRuntime::new(DomoreConfig::with_workers(args.workers))
                    .with_dispatch(dispatch)
                    .execute(&kernel);
                walls.push(t.elapsed().as_nanos() as u64);
                let report = match report {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("[{}] {} run failed: {e}", info.name, dispatch.name());
                        return ExitCode::FAILURE;
                    }
                };
                if kernel.checksum() != expected {
                    eprintln!(
                        "[{}] checksum mismatch under {} dispatch",
                        info.name,
                        dispatch.name()
                    );
                    return ExitCode::FAILURE;
                }
                stall_wait = Some(report.metrics.stall_wait);
            }
            real.push(RealRow {
                name: dispatch.name(),
                speedup_vs_seq: seq_median as f64 / median(&walls).max(1) as f64,
                wall_ns: walls,
                stall_wait,
            });
        }
        kernel.reset();

        reports.push(KernelReport {
            name: info.name,
            imbalanced: info.imbalanced(),
            sim_scale,
            sim_seq_ns: seq_ns,
            sim,
            real,
        });
    }

    // Criteria (full mode only: smoke runs at test scale, where the models
    // are too small for the calibrated thresholds).
    let best_win = reports
        .iter()
        .filter(|r| r.imbalanced)
        .map(|r| (r.name, r.sim_ratio()))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let worst_balanced = reports
        .iter()
        .filter(|r| !r.imbalanced)
        .map(|r| (r.name, r.sim_ratio()))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    let pass = !args.smoke
        && best_win.is_some_and(|(_, w)| w >= WIN_THRESHOLD)
        && worst_balanced.is_none_or(|(_, w)| w >= BALANCED_TOLERANCE);

    let json = render_json(args, &reports, best_win, worst_balanced, pass);
    if let Err(e) = std::fs::create_dir_all(args.out.parent().unwrap_or(&args.out)) {
        eprintln!("bench-suite: creating output directory: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench-suite: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    // Self-check: the file we just wrote must parse. A malformed report is
    // a bug in this harness and must fail the run (and the CI step).
    if let Err(e) = validate_report(&json) {
        eprintln!("bench-suite: produced malformed JSON: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "[wrote {}] {} kernels in {:.1}s",
        args.out.display(),
        reports.len(),
        suite_start.elapsed().as_secs_f64()
    );
    for r in &reports {
        println!(
            "  {:<16} adaptive/round_robin (virtual) = {:.3}{}",
            r.name,
            r.sim_ratio(),
            if r.imbalanced { "  [imbalanced]" } else { "" }
        );
    }
    if args.smoke {
        println!("smoke mode: criteria not evaluated (test-scale models)");
        return ExitCode::SUCCESS;
    }
    if let Some((name, win)) = best_win {
        println!("best imbalanced win: {win:.3} on {name} (need ≥ {WIN_THRESHOLD})");
    }
    if let Some((name, worst)) = worst_balanced {
        println!("worst balanced ratio: {worst:.3} on {name} (need ≥ {BALANCED_TOLERANCE})");
    }
    if pass {
        println!("criteria: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("criteria: FAIL");
        ExitCode::FAILURE
    }
}

// ---- BENCH_5: the fast-path regression suite ----

/// The clustered-access SPECCROSS workload of the BENCH_5 pruning
/// criterion: task `t` of epoch `e` writes cell `e * tasks + t`, so every
/// epoch's signature aggregate is disjoint from every other epoch's — the
/// shape the per-epoch aggregate test prunes best — while task costs are
/// staggered (`500 + (iter % 5) * 1000` ns) so admissions from many
/// epochs are in flight at once and the checker actually faces deep logs.
struct Clustered {
    epochs: usize,
    tasks: usize,
    /// Whether every invocation carries the static conflict-freedom
    /// verdict. The cluster shape is exactly the `E[trip·t + i]` family
    /// `pir::elide` proves, so BENCH_10 runs this workload proven; the
    /// BENCH_5/7 suites keep it on the full check path.
    proven: bool,
}

impl SimWorkload for Clustered {
    fn num_invocations(&self) -> usize {
        self.epochs
    }
    fn num_iterations(&self, _inv: usize) -> usize {
        self.tasks
    }
    fn iteration_cost(&self, _inv: usize, iter: usize) -> u64 {
        500 + (iter % 5) as u64 * 1000
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        out.push((inv * self.tasks + iter, AccessKind::Write));
    }
    fn address_space(&self) -> Option<usize> {
        Some(self.epochs * self.tasks)
    }
    fn invocation_is_proven(&self, _inv: usize) -> bool {
        self.proven
    }
}

/// The mixed proven/unproven workload of the BENCH_10 elision criteria:
/// most epochs are the clustered shape static analysis proves (task `t`
/// of epoch `e` writes cell `e·tasks + t`); every `unproven_every`-th
/// epoch scatters its writes through a coprime permutation of the same
/// epoch-private block — disjoint in fact, indirect in form, so a sound
/// static analysis must keep it on the full admission path. Task costs
/// carry the BENCH_5 stagger so admissions from many epochs are in
/// flight at once.
struct MixedElide {
    epochs: usize,
    tasks: usize,
    /// Period of the unproven epochs (`inv % unproven_every == 0` stays
    /// on the full check path; everything else is proven).
    unproven_every: usize,
}

impl MixedElide {
    fn proven(&self, inv: usize) -> bool {
        inv % self.unproven_every != 0
    }
}

impl SimWorkload for MixedElide {
    fn num_invocations(&self) -> usize {
        self.epochs
    }
    fn num_iterations(&self, _inv: usize) -> usize {
        self.tasks
    }
    fn iteration_cost(&self, _inv: usize, iter: usize) -> u64 {
        500 + (iter % 5) as u64 * 1000
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        let slot = if self.proven(inv) {
            iter
        } else {
            (iter * 7 + inv) % self.tasks
        };
        out.push((inv * self.tasks + slot, AccessKind::Write));
    }
    fn address_space(&self) -> Option<usize> {
        Some(self.epochs * self.tasks)
    }
    fn invocation_is_proven(&self, inv: usize) -> bool {
        self.proven(inv)
    }
}

/// One traced clustered run's checker-side measurements.
struct CheckerSide {
    total_ns: u64,
    check_requests: u64,
    comparisons: u64,
    epoch_skips: u64,
    /// Admissions the static-elision fast path skipped (zero unless the
    /// run enabled elision on a workload with proven invocations).
    elided_admits: u64,
    /// Verdict stream of the run: misspeculation count and admitted
    /// tasks. BENCH_7 requires these to be shard-count-invariant.
    misspeculations: u64,
    tasks: u64,
    /// Fraction of the critical path spent waiting on the checker: the
    /// checkpoint-drain/verdict categories plus the SPSC stalls, which on
    /// this trace are exclusively workers' check requests sitting in the
    /// ring while the checker scans signatures (the speccross simulator
    /// emits queue wakes only at checker pickups).
    checker_share: f64,
    /// `what_if` speedup from zeroing the checker's pickup and verdict
    /// wake edges — how much faster the run would finish were signature
    /// checking free.
    zero_checker_speedup: f64,
}

fn checker_side<W: SimWorkload>(
    w: &W,
    threads: usize,
    checkpoint_every: usize,
    summaries: bool,
    shards: usize,
    elide: bool,
    cost: &CostModel,
) -> CheckerSide {
    let params = SpecSimParams::with_threads(threads)
        .trace(1 << 17)
        .checkpoint_every(checkpoint_every)
        .epoch_summaries(summaries)
        .checker_shards(shards)
        .elide(elide);
    let r = crossinvoc_sim::speccross(w, &params, cost);
    let trace = r.trace.as_ref().expect("tracing was requested");
    let report = TraceReport::from_trace(trace);
    let crit = critical_path(trace);
    let total = crit.attribution.total().max(1);
    let waiting_on_checker = crit.attribution.get(PathCategory::CheckerLatency)
        + crit.attribution.get(PathCategory::SpscStall);
    CheckerSide {
        total_ns: r.total_ns,
        check_requests: r.stats.check_requests,
        comparisons: report.checker_comparisons,
        epoch_skips: report.checker_epoch_skips,
        elided_admits: r.stats.elided_admits,
        misspeculations: r.stats.misspeculations,
        tasks: r.stats.tasks,
        checker_share: waiting_on_checker as f64 / total as f64,
        zero_checker_speedup: what_if(trace, &[WakeEdge::Queue, WakeEdge::Checker])
            .predicted_speedup(),
    }
}

impl CheckerSide {
    fn comparisons_per_admit(&self) -> f64 {
        self.comparisons as f64 / self.check_requests.max(1) as f64
    }
}

fn run_fastpath(args: &Args) -> ExitCode {
    let cost = CostModel::default();
    let suite_start = Instant::now();

    // The pruning shape needs enough concurrent cross-epoch candidates for
    // aggregates to matter: thread count, not --workers, sets that, so the
    // clustered run has its own (documented) configuration.
    // Checkpoint rendezvous drain the checker, which is how its service
    // time (summaries on vs off) reaches the critical path.
    let (epochs, tasks, threads, ckpt) = if args.smoke {
        (12, 8, 8, 4)
    } else {
        (60, 32, 32, 10)
    };
    let w = Clustered {
        epochs,
        tasks,
        proven: false,
    };
    println!(
        "[clustered] {epochs} epochs x {tasks} tasks on {threads} threads, checkpoint every {ckpt}"
    );
    let on = checker_side(&w, threads, ckpt, true, 1, false, &cost);
    let off = checker_side(&w, threads, ckpt, false, 1, false, &cost);
    let pruning_ratio =
        off.comparisons_per_admit() / on.comparisons_per_admit().max(f64::MIN_POSITIVE);

    let pass =
        !args.smoke && pruning_ratio >= PRUNING_THRESHOLD && on.checker_share < off.checker_share;

    let json = render_fastpath_json(args, &on, &off, pruning_ratio, epochs, tasks, threads, pass);
    if let Err(e) = std::fs::create_dir_all(args.out.parent().unwrap_or(&args.out)) {
        eprintln!("bench-suite: creating output directory: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench-suite: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate_report(&json) {
        eprintln!("bench-suite: produced malformed JSON: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "[wrote {}] in {:.1}s",
        args.out.display(),
        suite_start.elapsed().as_secs_f64()
    );
    println!(
        "  comparisons/admit: {:.2} with summaries, {:.2} without  (ratio {:.2})",
        on.comparisons_per_admit(),
        off.comparisons_per_admit(),
        pruning_ratio
    );
    println!(
        "  checker-wait critical-path share: {:.4} with summaries, {:.4} without \
         (what-if free checks: {:.3}x vs {:.3}x)",
        on.checker_share, off.checker_share, on.zero_checker_speedup, off.zero_checker_speedup
    );
    if args.smoke {
        println!("smoke mode: criteria not evaluated (test-scale models)");
        return ExitCode::SUCCESS;
    }
    println!(
        "pruning ratio {pruning_ratio:.2} (need >= {PRUNING_THRESHOLD}), checker share shrank: {}",
        on.checker_share < off.checker_share
    );
    if pass {
        println!("criteria: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("criteria: FAIL");
        ExitCode::FAILURE
    }
}

// ---- BENCH_7: the sharded-checker regression suite ----

fn run_shards(args: &Args) -> ExitCode {
    let cost = CostModel::default();
    let suite_start = Instant::now();

    // Same clustered shape and configuration as the BENCH_5 pruning
    // criterion, summaries on — the single-shard row below IS that
    // baseline, so the share factor reads directly against BENCH_5.
    let (epochs, tasks, threads, ckpt) = if args.smoke {
        (12, 8, 8, 4)
    } else {
        (60, 32, 32, 10)
    };
    let w = Clustered {
        epochs,
        tasks,
        proven: false,
    };
    println!(
        "[clustered] {epochs} epochs x {tasks} tasks on {threads} threads, \
         checkpoint every {ckpt}, shard sweep {SHARD_COUNTS:?}"
    );
    let rows: Vec<(usize, CheckerSide)> = SHARD_COUNTS
        .iter()
        .map(|&n| (n, checker_side(&w, threads, ckpt, true, n, false, &cost)))
        .collect();
    let baseline = &rows[0].1;
    let verdicts_identical = rows.iter().all(|(_, c)| {
        c.misspeculations == baseline.misspeculations
            && c.tasks == baseline.tasks
            && c.check_requests == baseline.check_requests
    });
    let (best_shards, best_share) = rows
        .iter()
        .skip(1)
        .map(|(n, c)| (*n, c.checker_share))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the sweep has sharded rows");
    let share_factor = best_share / baseline.checker_share.max(f64::MIN_POSITIVE);

    let pass = !args.smoke && verdicts_identical && share_factor < SHARD_SHARE_FACTOR;

    let json = render_shards_json(
        args,
        &rows,
        epochs,
        tasks,
        threads,
        ckpt,
        verdicts_identical,
        share_factor,
        pass,
    );
    if let Err(e) = std::fs::create_dir_all(args.out.parent().unwrap_or(&args.out)) {
        eprintln!("bench-suite: creating output directory: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench-suite: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate_report(&json) {
        eprintln!("bench-suite: produced malformed JSON: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "[wrote {}] in {:.1}s",
        args.out.display(),
        suite_start.elapsed().as_secs_f64()
    );
    for (n, c) in &rows {
        println!(
            "  {n} shard(s): checker-wait share {:.4}, total {} ns, \
             {} misspec / {} tasks / {} checks (what-if free checks: {:.3}x)",
            c.checker_share,
            c.total_ns,
            c.misspeculations,
            c.tasks,
            c.check_requests,
            c.zero_checker_speedup
        );
    }
    if args.smoke {
        println!("smoke mode: criteria not evaluated (test-scale workload)");
        return ExitCode::SUCCESS;
    }
    println!(
        "best sharded share {best_share:.4} on {best_shards} shards = {share_factor:.4} of the \
         single-shard share (need < {SHARD_SHARE_FACTOR}), verdicts identical: {verdicts_identical}"
    );
    if pass {
        println!("criteria: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("criteria: FAIL");
        ExitCode::FAILURE
    }
}

#[allow(clippy::too_many_arguments)]
fn render_shards_json(
    args: &Args,
    rows: &[(usize, CheckerSide)],
    epochs: usize,
    tasks: usize,
    threads: usize,
    ckpt: usize,
    verdicts_identical: bool,
    share_factor: f64,
    pass: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"crossinvoc-bench-7\",");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    s.push_str("  \"checker\": {\n");
    let _ = writeln!(s, "    \"workload\": \"clustered\",");
    let _ = writeln!(s, "    \"epochs\": {epochs},");
    let _ = writeln!(s, "    \"tasks\": {tasks},");
    let _ = writeln!(s, "    \"threads\": {threads},");
    let _ = writeln!(s, "    \"checkpoint_every\": {ckpt},");
    s.push_str("    \"shards\": [\n");
    for (i, (n, c)) in rows.iter().enumerate() {
        s.push_str("      {\n");
        let _ = writeln!(s, "        \"shards\": {n},");
        let _ = writeln!(s, "        \"total_ns\": {},", c.total_ns);
        let _ = writeln!(s, "        \"check_requests\": {},", c.check_requests);
        let _ = writeln!(s, "        \"comparisons\": {},", c.comparisons);
        let _ = writeln!(s, "        \"misspeculations\": {},", c.misspeculations);
        let _ = writeln!(s, "        \"tasks\": {},", c.tasks);
        let _ = writeln!(s, "        \"checker_wait_share\": {:.6},", c.checker_share);
        let _ = writeln!(
            s,
            "        \"what_if_zero_checker_wait_speedup\": {:.4}",
            c.zero_checker_speedup
        );
        s.push_str("      }");
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ]\n  },\n");
    s.push_str("  \"criteria\": {\n");
    let _ = writeln!(s, "    \"evaluated\": {},", !args.smoke);
    let _ = writeln!(s, "    \"max_share_factor\": {SHARD_SHARE_FACTOR},");
    let _ = writeln!(s, "    \"share_factor\": {share_factor:.6},");
    let _ = writeln!(s, "    \"verdicts_identical\": {verdicts_identical},");
    let _ = writeln!(s, "    \"pass\": {pass}");
    s.push_str("  }\n}\n");
    s
}

#[allow(clippy::too_many_arguments)]
fn render_fastpath_json(
    args: &Args,
    on: &CheckerSide,
    off: &CheckerSide,
    pruning_ratio: f64,
    epochs: usize,
    tasks: usize,
    threads: usize,
    pass: bool,
) -> String {
    let side = |s: &mut String, label: &str, c: &CheckerSide, comma: bool| {
        let _ = writeln!(s, "    \"{label}\": {{");
        let _ = writeln!(s, "      \"total_ns\": {},", c.total_ns);
        let _ = writeln!(s, "      \"check_requests\": {},", c.check_requests);
        let _ = writeln!(s, "      \"comparisons\": {},", c.comparisons);
        let _ = writeln!(s, "      \"epoch_skips\": {},", c.epoch_skips);
        let _ = writeln!(
            s,
            "      \"comparisons_per_admit\": {:.4},",
            c.comparisons_per_admit()
        );
        let _ = writeln!(s, "      \"checker_wait_share\": {:.6},", c.checker_share);
        let _ = writeln!(
            s,
            "      \"what_if_zero_checker_wait_speedup\": {:.4}",
            c.zero_checker_speedup
        );
        s.push_str(if comma { "    },\n" } else { "    }\n" });
    };
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"crossinvoc-bench-5\",");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"workers\": {},", args.workers);
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    s.push_str("  \"checker\": {\n");
    let _ = writeln!(s, "    \"workload\": \"clustered\",");
    let _ = writeln!(s, "    \"epochs\": {epochs},");
    let _ = writeln!(s, "    \"tasks\": {tasks},");
    let _ = writeln!(s, "    \"threads\": {threads},");
    let _ = writeln!(s, "    \"pruning_ratio\": {pruning_ratio:.4},");
    side(&mut s, "summaries_on", on, true);
    side(&mut s, "summaries_off", off, false);
    s.push_str("  },\n");
    s.push_str("  \"criteria\": {\n");
    let _ = writeln!(s, "    \"evaluated\": {},", !args.smoke);
    let _ = writeln!(s, "    \"min_pruning_ratio\": {PRUNING_THRESHOLD},");
    let _ = writeln!(s, "    \"pruning_ratio\": {pruning_ratio:.4},");
    let _ = writeln!(s, "    \"checker_share_on\": {:.6},", on.checker_share);
    let _ = writeln!(s, "    \"checker_share_off\": {:.6},", off.checker_share);
    let _ = writeln!(s, "    \"pass\": {pass}");
    s.push_str("  }\n}\n");
    s
}

// ---- BENCH_10: the static-check-elision regression suite ----

/// Wraps a registry model with the bench-side disjointness oracle: an
/// invocation is proven iff no address it touches is also written by a
/// different invocation — the conservative pair-conflict rule
/// `pir::elide` applies to affine programs, computed here from the
/// model's declared accesses (exact, hence sound by construction).
struct ProvenMask {
    model: Box<dyn SimWorkload + Send + Sync>,
    proven: Vec<bool>,
}

impl ProvenMask {
    fn new(model: Box<dyn SimWorkload + Send + Sync>) -> Self {
        let proven = disjoint_invocations(model.as_ref());
        Self { model, proven }
    }
}

impl SimWorkload for ProvenMask {
    fn num_invocations(&self) -> usize {
        self.model.num_invocations()
    }
    fn num_iterations(&self, inv: usize) -> usize {
        self.model.num_iterations(inv)
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        self.model.iteration_cost(inv, iter)
    }
    fn accesses(&self, inv: usize, iter: usize, out: &mut Vec<(usize, AccessKind)>) {
        self.model.accesses(inv, iter, out);
    }
    fn prologue_cost(&self, inv: usize) -> u64 {
        self.model.prologue_cost(inv)
    }
    fn sched_cost(&self, inv: usize, iter: usize) -> u64 {
        self.model.sched_cost(inv, iter)
    }
    fn address_space(&self) -> Option<usize> {
        self.model.address_space()
    }
    fn invocation_is_proven(&self, inv: usize) -> bool {
        self.proven.get(inv).copied().unwrap_or(false)
    }
}

/// The oracle behind [`ProvenMask`]: collects, per address, the
/// invocations touching it and whether any access to it writes. Any
/// address written somewhere and touched from more than one invocation
/// poisons every invocation on it — the checker never compares same-epoch
/// tasks, so intra-invocation overlap is irrelevant, exactly as in the
/// static pair-conflict model.
fn disjoint_invocations(model: &dyn SimWorkload) -> Vec<bool> {
    let invs = model.num_invocations();
    let mut proven = vec![true; invs];
    let mut by_addr: HashMap<usize, (Vec<usize>, bool)> = HashMap::new();
    let mut pairs = Vec::new();
    for inv in 0..invs {
        for iter in 0..model.num_iterations(inv) {
            pairs.clear();
            model.accesses(inv, iter, &mut pairs);
            for &(addr, kind) in &pairs {
                let entry = by_addr.entry(addr).or_default();
                if entry.0.last() != Some(&inv) {
                    entry.0.push(inv);
                }
                entry.1 |= kind == AccessKind::Write;
            }
        }
    }
    for (touching, any_write) in by_addr.into_values() {
        if touching.len() > 1 && any_write {
            for inv in touching {
                proven[inv] = false;
            }
        }
    }
    proven
}

/// One registry kernel's elision-transparency measurements.
struct ElideRegistryRow {
    name: &'static str,
    epochs: usize,
    proven: usize,
    /// Whether the kernel ran on real threads. Rows whose inner loops are
    /// not DOALL-parallelizable (`speccross: false` in the registry — they
    /// need Spec-DOALL/LOCALWRITE intra-epoch ordering the SPECCROSS
    /// engine does not provide) are checked in simulation only.
    realized: bool,
    /// Real-thread digests: elide-on == elide-off == sequential image.
    /// Vacuously true when `realized` is false.
    digest_identical: bool,
    /// Simulated verdict stream: misspeculations, tasks and degrade state
    /// identical elide-on vs elide-off, check requests never more.
    verdicts_identical: bool,
    /// Admissions the real elide-on run skipped.
    elided_admits: u64,
}

fn run_elide(args: &Args) -> ExitCode {
    let cost = CostModel::default();
    let suite_start = Instant::now();

    // Transparency sweep: every Table 5.1 kernel, real threads at test
    // scale (checksum-validated — same rationale as BENCH_3: this
    // container has one core, so wall time would measure noise) plus the
    // deterministic simulated verdict stream.
    println!("[registry] elision transparency sweep at Test scale");
    let mut rows: Vec<ElideRegistryRow> = Vec::new();
    for info in &registry() {
        let masked = ProvenMask::new(info.model(Scale::Test));
        let epochs = masked.proven.len();
        let proven = masked.proven.iter().filter(|&&p| p).count();

        let sim_params = |elide: bool| {
            SpecSimParams::with_threads(4)
                .checkpoint_every(4)
                .elide(elide)
        };
        let sim_off = crossinvoc_sim::speccross(&masked, &sim_params(false), &cost);
        let sim_on = crossinvoc_sim::speccross(&masked, &sim_params(true), &cost);
        let verdicts_identical = sim_on.stats.misspeculations == sim_off.stats.misspeculations
            && sim_on.stats.tasks == sim_off.stats.tasks
            && sim_on.degraded == sim_off.degraded
            && sim_on.stats.check_requests <= sim_off.stats.check_requests;

        // Real threads only where the registry says the inner loop is
        // DOALL-parallelizable: SPECCROSS orders cross-epoch conflicts
        // only, so Spec-DOALL/LOCALWRITE rows (intra-epoch dependences)
        // would race under the real engine regardless of elision. Those
        // keep the simulated verdict check above.
        let mut digest_identical = true;
        let mut elided_admits = 0;
        if info.speccross {
            let kernel = AccessKernel::from_model(masked);
            let expected = kernel.sequential_checksum();
            let config = |elide: bool| {
                SpecConfig::with_workers(4)
                    .checkpoint_every(4)
                    .elide(elide)
                    .watchdog(std::time::Duration::from_secs(60))
            };
            for elide in [false, true] {
                kernel.reset();
                match SpecCrossEngine::<RangeSignature>::new(config(elide)).execute(&kernel) {
                    Ok(report) => {
                        if elide {
                            elided_admits = report.stats.elided_admits;
                        }
                        digest_identical &= kernel.checksum() == expected;
                    }
                    Err(e) => {
                        eprintln!("[{}] elide={elide} run failed: {e}", info.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!(
            "  {:<16} {proven:>3}/{epochs} proven epochs, digests identical: {}, \
             sim verdicts identical: {verdicts_identical}, {elided_admits} admits elided",
            info.name,
            if info.speccross {
                if digest_identical {
                    "true"
                } else {
                    "false"
                }
            } else {
                "n/a (sim only)"
            }
        );
        rows.push(ElideRegistryRow {
            name: info.name,
            epochs,
            proven,
            realized: info.speccross,
            digest_identical,
            verdicts_identical,
            elided_admits,
        });
    }
    let registry_identical = rows
        .iter()
        .all(|r| r.digest_identical && r.verdicts_identical);

    // The checker-side criteria reuse the BENCH_5/7 clustered
    // configuration so the numbers read directly against those baselines.
    let (epochs, tasks, threads, ckpt) = if args.smoke {
        (12, 8, 8, 4)
    } else {
        (60, 32, 32, 10)
    };

    // Fully-proven clustered workload: elision must remove the checker
    // from the picture entirely.
    let clustered = Clustered {
        epochs,
        tasks,
        proven: true,
    };
    println!("[clustered] {epochs} epochs x {tasks} tasks on {threads} threads, fully proven");
    let clu_off = checker_side(&clustered, threads, ckpt, true, 1, false, &cost);
    let clu_on = checker_side(&clustered, threads, ckpt, true, 1, true, &cost);
    // (The simulator bills a check request only when a task's window
    // overlaps retained cross-epoch state, so elided_admits need not
    // equal the baseline's request count — only the zero is exact.)
    let clustered_zero_checks =
        clu_on.check_requests == 0 && clu_on.stats_match(&clu_off) && clu_on.elided_admits > 0;

    // Mixed proven/unproven workload: the pruning and critical-path
    // criteria are evaluated where elision has to coexist with real
    // admissions.
    // Every 6th epoch stays on the full admission path: enough retained
    // admissions that the pruning/critical-path criteria are measured
    // against live checker traffic, few enough that elision can pull the
    // checker off the critical path (at 1/2 retained the checker stays
    // saturated and the wait share barely moves).
    let mixed = MixedElide {
        epochs,
        tasks,
        unproven_every: 6,
    };
    let mixed_proven = (0..epochs).filter(|&e| mixed.proven(e)).count();
    println!(
        "[mixed] {epochs} epochs x {tasks} tasks on {threads} threads, {mixed_proven}/{epochs} proven"
    );
    let base_off = checker_side(&mixed, threads, ckpt, false, 1, false, &cost);
    let sum_on = checker_side(&mixed, threads, ckpt, true, 1, false, &cost);
    let elide_on = checker_side(&mixed, threads, ckpt, true, 1, true, &cost);
    // Test-scale runs can elide their way to zero comparisons; cap the
    // ratio so the report stays a finite, readable number.
    let combined_ratio =
        (base_off.comparisons_per_admit() / elide_on.comparisons_per_admit().max(1e-9)).min(1e9);
    let share_factor = elide_on.checker_share / sum_on.checker_share.max(f64::MIN_POSITIVE);
    let mixed_verdicts = elide_on.stats_match(&sum_on) && base_off.stats_match(&sum_on);

    let pass = !args.smoke
        && registry_identical
        && clustered_zero_checks
        && mixed_verdicts
        && combined_ratio > ELIDE_PRUNING_BASELINE
        && share_factor < ELIDE_SHARE_FACTOR;

    let json = render_elide_json(
        args,
        &rows,
        registry_identical,
        &clu_off,
        &clu_on,
        clustered_zero_checks,
        &base_off,
        &sum_on,
        &elide_on,
        mixed_verdicts,
        combined_ratio,
        share_factor,
        epochs,
        tasks,
        threads,
        ckpt,
        pass,
    );
    if let Err(e) = std::fs::create_dir_all(args.out.parent().unwrap_or(&args.out)) {
        eprintln!("bench-suite: creating output directory: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench-suite: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate_report(&json) {
        eprintln!("bench-suite: produced malformed JSON: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "[wrote {}] in {:.1}s",
        args.out.display(),
        suite_start.elapsed().as_secs_f64()
    );
    println!(
        "  clustered: {} -> {} check requests with elision ({} admits elided)",
        clu_off.check_requests, clu_on.check_requests, clu_on.elided_admits
    );
    println!(
        "  mixed comparisons/admit: {:.2} bare, {:.2} summaries, {:.2} summaries+elision \
         (combined ratio {combined_ratio:.2})",
        base_off.comparisons_per_admit(),
        sum_on.comparisons_per_admit(),
        elide_on.comparisons_per_admit()
    );
    println!(
        "  mixed checker-wait share: {:.4} -> {:.4} (factor {share_factor:.4}; \
         what-if free checks: {:.3}x -> {:.3}x)",
        sum_on.checker_share,
        elide_on.checker_share,
        sum_on.zero_checker_speedup,
        elide_on.zero_checker_speedup
    );
    if args.smoke {
        println!("smoke mode: criteria not evaluated (test-scale workload)");
        return ExitCode::SUCCESS;
    }
    println!(
        "combined pruning ratio {combined_ratio:.2} (need > {ELIDE_PRUNING_BASELINE}), \
         share factor {share_factor:.4} (need < {ELIDE_SHARE_FACTOR}), registry identical: \
         {registry_identical}, clustered zero checks: {clustered_zero_checks}"
    );
    if pass {
        println!("criteria: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("criteria: FAIL");
        ExitCode::FAILURE
    }
}

impl CheckerSide {
    /// Verdict-stream equality of two runs of the same workload:
    /// misspeculation and admitted-task counts match (the simulated
    /// replay is deterministic, so elision and the summary fast path must
    /// not move either).
    fn stats_match(&self, other: &CheckerSide) -> bool {
        self.misspeculations == other.misspeculations && self.tasks == other.tasks
    }
}

#[allow(clippy::too_many_arguments)]
fn render_elide_json(
    args: &Args,
    rows: &[ElideRegistryRow],
    registry_identical: bool,
    clu_off: &CheckerSide,
    clu_on: &CheckerSide,
    clustered_zero_checks: bool,
    base_off: &CheckerSide,
    sum_on: &CheckerSide,
    elide_on: &CheckerSide,
    mixed_verdicts: bool,
    combined_ratio: f64,
    share_factor: f64,
    epochs: usize,
    tasks: usize,
    threads: usize,
    ckpt: usize,
    pass: bool,
) -> String {
    let side = |s: &mut String, label: &str, c: &CheckerSide, comma: bool| {
        let _ = writeln!(s, "      \"{label}\": {{");
        let _ = writeln!(s, "        \"total_ns\": {},", c.total_ns);
        let _ = writeln!(s, "        \"check_requests\": {},", c.check_requests);
        let _ = writeln!(s, "        \"comparisons\": {},", c.comparisons);
        let _ = writeln!(s, "        \"elided_admits\": {},", c.elided_admits);
        let _ = writeln!(s, "        \"misspeculations\": {},", c.misspeculations);
        let _ = writeln!(s, "        \"tasks\": {},", c.tasks);
        let _ = writeln!(
            s,
            "        \"comparisons_per_admit\": {:.4},",
            c.comparisons_per_admit()
        );
        let _ = writeln!(s, "        \"checker_wait_share\": {:.6},", c.checker_share);
        let _ = writeln!(
            s,
            "        \"what_if_zero_checker_wait_speedup\": {:.4}",
            c.zero_checker_speedup
        );
        s.push_str(if comma { "      },\n" } else { "      }\n" });
    };
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"crossinvoc-bench-10\",");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    s.push_str("  \"registry\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"epochs\": {}, \"proven_epochs\": {}, \
             \"realized\": {}, \"digest_identical\": {}, \"verdicts_identical\": {}, \
             \"elided_admits\": {}}}",
            row.name,
            row.epochs,
            row.proven,
            row.realized,
            row.digest_identical,
            row.verdicts_identical,
            row.elided_admits
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"checker\": {\n");
    let _ = writeln!(s, "    \"epochs\": {epochs},");
    let _ = writeln!(s, "    \"tasks\": {tasks},");
    let _ = writeln!(s, "    \"threads\": {threads},");
    let _ = writeln!(s, "    \"checkpoint_every\": {ckpt},");
    s.push_str("    \"clustered\": {\n");
    side(&mut s, "elide_off", clu_off, true);
    side(&mut s, "elide_on", clu_on, false);
    s.push_str("    },\n");
    s.push_str("    \"mixed\": {\n");
    side(&mut s, "bare", base_off, true);
    side(&mut s, "summaries", sum_on, true);
    side(&mut s, "summaries_elide", elide_on, false);
    s.push_str("    }\n  },\n");
    s.push_str("  \"criteria\": {\n");
    let _ = writeln!(s, "    \"evaluated\": {},", !args.smoke);
    let _ = writeln!(s, "    \"min_combined_ratio\": {ELIDE_PRUNING_BASELINE},");
    let _ = writeln!(s, "    \"max_share_factor\": {ELIDE_SHARE_FACTOR},");
    let _ = writeln!(s, "    \"combined_ratio\": {combined_ratio:.4},");
    let _ = writeln!(s, "    \"share_factor\": {share_factor:.6},");
    let _ = writeln!(s, "    \"registry_identical\": {registry_identical},");
    let _ = writeln!(s, "    \"clustered_zero_checks\": {clustered_zero_checks},");
    let _ = writeln!(s, "    \"mixed_verdicts_identical\": {mixed_verdicts},");
    let _ = writeln!(s, "    \"pass\": {pass}");
    s.push_str("  }\n}\n");
    s
}

// ---- BENCH_8: the region-server saturation suite ----

/// Which engine a BENCH_8 region runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    Spec,
    Domore,
}

/// One region of the BENCH_8 batch.
#[derive(Debug, Clone, Copy)]
struct RegionDef {
    kind: RegionKind,
    workers: usize,
    shards: usize,
    epochs: usize,
    tasks: usize,
}

impl RegionDef {
    /// Pool slots the region's gang occupies (the DOMORE scheduler rides
    /// the submitting manager thread, so only its workers count).
    fn gang(&self) -> usize {
        match self.kind {
            RegionKind::Spec => self.workers + self.shards,
            RegionKind::Domore => self.workers,
        }
    }

    fn kind_name(&self) -> &'static str {
        match self.kind {
            RegionKind::Spec => "speccross",
            RegionKind::Domore => "domore",
        }
    }
}

/// Conflict-free SPECCROSS grid: task `t` of every epoch increments cell
/// `t`, so clean runs never misspeculate and the digest is deterministic.
/// Atomic cells survive an injected task panic without lock poisoning.
struct RegionIncGrid {
    cells: Vec<AtomicU64>,
    epochs: usize,
}

impl RegionIncGrid {
    fn new(tasks: usize, epochs: usize) -> Self {
        Self {
            cells: (0..tasks).map(|_| AtomicU64::new(0)).collect(),
            epochs,
        }
    }
}

impl SpecWorkload for RegionIncGrid {
    type State = Vec<u64>;

    fn num_epochs(&self) -> usize {
        self.epochs
    }

    fn num_tasks(&self, _epoch: usize) -> usize {
        self.cells.len()
    }

    fn execute_task(
        &self,
        _epoch: usize,
        task: usize,
        _tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    ) {
        recorder.record(task, AccessKind::Write);
        self.cells[task].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    fn restore(&self, state: &Vec<u64>) {
        for (cell, v) in self.cells.iter().zip(state) {
            cell.store(*v, Ordering::Relaxed);
        }
    }
}

/// The DOMORE analogue: iteration `i` of every invocation owns cell `i`.
struct RegionDomGrid {
    cells: Vec<AtomicU64>,
    invocations: usize,
}

impl RegionDomGrid {
    fn new(iterations: usize, invocations: usize) -> Self {
        Self {
            cells: (0..iterations).map(|_| AtomicU64::new(0)).collect(),
            invocations,
        }
    }
}

impl DomoreWorkload for RegionDomGrid {
    fn num_invocations(&self) -> usize {
        self.invocations
    }

    fn num_iterations(&self, _inv: usize) -> usize {
        self.cells.len()
    }

    fn touched_addrs(&self, _inv: usize, iter: usize, out: &mut Vec<usize>) {
        out.push(iter);
    }

    fn execute_iteration(&self, _inv: usize, iter: usize, _tid: ThreadId) {
        self.cells[iter].fetch_add(1, Ordering::Relaxed);
    }

    fn address_space(&self) -> Option<usize> {
        Some(self.cells.len())
    }
}

fn cells_of(cells: &[AtomicU64]) -> Vec<u64> {
    cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// Canonical result digest of a SPECCROSS region: every deterministic
/// observable, including the verdict stream (conflicts in detection order,
/// misspeculation count) and the final memory image. Timing-dependent
/// fields (wall clock, stalls, comparison counts) are deliberately absent.
fn spec_digest(report: &SpecReport, cells: &[AtomicU64]) -> String {
    format!(
        "spec tasks={} epochs={} misspec={} conflicts={:?} degraded={} contained={} cells={:?}",
        report.stats.tasks,
        report.stats.epochs,
        report.stats.misspeculations,
        report.conflicts,
        report.degraded,
        report.contained_faults.len(),
        cells_of(cells),
    )
}

/// Canonical result digest of a DOMORE region (scheduling decisions are
/// deterministic, so the synchronization-condition count is too).
fn dom_digest(report: &ExecutionReport, cells: &[AtomicU64]) -> String {
    format!(
        "domore tasks={} epochs={} sync={} cells={:?}",
        report.stats.tasks,
        report.stats.epochs,
        report.stats.sync_conditions,
        cells_of(cells),
    )
}

fn spec_region_config(def: &RegionDef) -> SpecConfig {
    SpecConfig::with_workers(def.workers)
        .checker_shards(def.shards)
        .checkpoint_every(4)
}

/// Runs one region alone, the pre-region-server way: a fresh scoped gang
/// on dedicated threads. This is the baseline every pooled digest must
/// reproduce byte-for-byte.
fn run_region_solo(def: &RegionDef) -> Result<String, String> {
    match def.kind {
        RegionKind::Spec => {
            let w = RegionIncGrid::new(def.tasks, def.epochs);
            let report = SpecCrossEngine::<RangeSignature>::new(spec_region_config(def))
                .execute(&w)
                .map_err(|e| format!("solo speccross region: {e}"))?;
            Ok(spec_digest(&report, &w.cells))
        }
        RegionKind::Domore => {
            let w = RegionDomGrid::new(def.tasks, def.epochs);
            let report = DomoreRuntime::new(DomoreConfig::with_workers(def.workers))
                .execute(&w)
                .map_err(|e| format!("solo domore region: {e}"))?;
            Ok(dom_digest(&report, &w.cells))
        }
    }
}

/// Workload handles kept across a pooled run so digests can read the final
/// cells after the joins.
enum LoadRef {
    Spec(Arc<RegionIncGrid>),
    Dom(Arc<RegionDomGrid>),
}

/// What a telemetry-attached pooled run observed, for the BENCH_9 gates.
struct TelemetryOutcome {
    /// Every region's snapshot row equals the engine report's final
    /// `MetricsSummary` (the aliasing contract), with state `done`.
    consistent: bool,
    /// Gang admissions the pool hooks recorded.
    admissions: u64,
    /// Flight dumps taken: `(region_id, trigger, records, dropped, jsonl)`.
    dumps: Vec<(u64, String, usize, u64, String)>,
    /// The post-join registry snapshot.
    snapshot: RegistrySnapshot,
}

/// Submits the whole batch to one shared-pool [`RegionServer`] and joins
/// every region. With `fault_region0` the first region (SPECCROSS by
/// construction) runs under a worker-panic fault plan; its own digest is
/// timing-dependent (how far the other workers ran before the rollback
/// varies), so the returned bool instead reports whether the fault was
/// contained *and* the region's final cells are still exact — the
/// neighbours' digests remain byte-comparable either way.
///
/// With `telemetry`, the server carries a live registry plus a
/// flight recorder, and the returned [`TelemetryOutcome`] reports what the
/// telemetry plane observed. Digests are computed identically either way —
/// BENCH_9's identity criterion diffs them across the two settings.
fn run_regions_pooled(
    defs: &[RegionDef],
    pool_threads: usize,
    fault_region0: bool,
    telemetry: bool,
) -> Result<(Vec<String>, bool, Option<TelemetryOutcome>), String> {
    let server = if telemetry {
        RegionServer::with_telemetry(
            pool_threads,
            ServerRegistry::new(pool_threads).with_recorder(FlightRecorder::new(512)),
        )
    } else {
        RegionServer::new(pool_threads)
    };
    let mut loads = Vec::new();
    let mut handles = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        let region_id = (i + 1) as u64;
        match def.kind {
            RegionKind::Spec => {
                let w = Arc::new(RegionIncGrid::new(def.tasks, def.epochs));
                let mut config = spec_region_config(def);
                if fault_region0 && i == 0 {
                    config = config.fault_plan(FaultPlan::new().worker_panic_at(1, 0));
                }
                handles.push(server.submit_spec::<RangeSignature, _>(
                    region_id,
                    config,
                    Arc::clone(&w),
                ));
                loads.push(LoadRef::Spec(w));
            }
            RegionKind::Domore => {
                let w = Arc::new(RegionDomGrid::new(def.tasks, def.epochs));
                handles.push(server.submit_domore(
                    region_id,
                    DomoreConfig::with_workers(def.workers),
                    Arc::clone(&w),
                ));
                loads.push(LoadRef::Dom(w));
            }
        }
    }
    let mut digests = Vec::new();
    let mut final_metrics = Vec::new();
    let mut region0_ok = true;
    for (i, (handle, load)) in handles.into_iter().zip(&loads).enumerate() {
        let report = handle
            .join()
            .map_err(|e| format!("pooled region {}: {e}", i + 1))?;
        final_metrics.push(match &report {
            RegionReport::Spec(r) => r.metrics,
            RegionReport::Domore(r) => r.metrics,
        });
        if fault_region0 && i == 0 {
            region0_ok = match (&report, load) {
                (RegionReport::Spec(r), LoadRef::Spec(w)) => {
                    !r.contained_faults.is_empty()
                        && cells_of(&w.cells)
                            .iter()
                            .all(|&c| c == defs[0].epochs as u64)
                }
                _ => false,
            };
            digests.push(String::new());
            continue;
        }
        let digest = match (&report, load) {
            (RegionReport::Spec(r), LoadRef::Spec(w)) => spec_digest(r, &w.cells),
            (RegionReport::Domore(r), LoadRef::Dom(w)) => dom_digest(r, &w.cells),
            _ => return Err(format!("region {} returned the wrong report kind", i + 1)),
        };
        digests.push(digest);
    }
    let outcome = server.registry().map(|registry| {
        let snapshot = registry.snapshot();
        // Structural equality covers every counter (including the elision
        // ones); the wire check below additionally pins the JSON
        // exposition, so a row silently dropping `elided_admits` from the
        // live view fails here, not in a dashboard.
        let wire_elided = json::parse(&snapshot.to_json()).ok().is_some_and(|j| {
            j.get("regions").and_then(Json::as_arr).is_some_and(|rows| {
                rows.len() == final_metrics.len()
                    && rows.iter().zip(&final_metrics).all(|(row, m)| {
                        row.get("elided_admits").and_then(Json::as_f64)
                            == Some(m.stats.elided_admits as f64)
                    })
            })
        });
        let consistent = snapshot.regions.len() == defs.len()
            && wire_elided
            && snapshot.regions.iter().zip(&final_metrics).all(|(row, m)| {
                row.metrics == *m && matches!(row.state, RegionState::Done | RegionState::Faulted)
            });
        let dumps = registry
            .flight_recorder()
            .map(|rec| {
                rec.dumps()
                    .iter()
                    .map(|d| {
                        (
                            d.region_id,
                            d.trigger.to_string(),
                            d.records,
                            d.dropped,
                            d.jsonl.clone(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        TelemetryOutcome {
            consistent,
            admissions: snapshot.pool.admissions,
            dumps,
            snapshot,
        }
    });
    Ok((digests, region0_ok, outcome))
}

/// Solo virtual-time duration of one region, for the throughput replay
/// (the container is single-core; wall clock would measure noise).
fn region_sim_duration(def: &RegionDef, cost: &CostModel) -> u64 {
    let w = UniformWorkload::independent(def.epochs, def.tasks, 10_000);
    match def.kind {
        RegionKind::Spec => {
            let params = SpecSimParams::with_threads(def.workers).checker_shards(def.shards);
            crossinvoc_sim::speccross::speccross(&w, &params, cost).total_ns
        }
        RegionKind::Domore => domore(&w, def.workers, &mut RoundRobin, cost).total_ns,
    }
}

/// The BENCH_8 batch shapes, shared with the BENCH_9 telemetry gate.
///
/// Gangs are sized so the pool can overlap at least two regions
/// (throughput must beat region-at-a-time strictly); region 0 is
/// SPECCROSS because the isolation/flight legs fault it via the spec fault
/// plan. Shapes are conflict-free grids, so every digest field is
/// deterministic and the criteria hold at either scale.
fn regions_batch(smoke: bool) -> (usize, Vec<RegionDef>) {
    if smoke {
        let spec = RegionDef {
            kind: RegionKind::Spec,
            workers: 2,
            shards: 1,
            epochs: 8,
            tasks: 8,
        };
        let dom = RegionDef {
            kind: RegionKind::Domore,
            workers: 2,
            shards: 0,
            epochs: 8,
            tasks: 8,
        };
        (6, vec![spec, dom, spec, dom])
    } else {
        let spec = RegionDef {
            kind: RegionKind::Spec,
            workers: 3,
            shards: 1,
            epochs: 24,
            tasks: 16,
        };
        let dom = RegionDef {
            kind: RegionKind::Domore,
            workers: 4,
            shards: 0,
            epochs: 24,
            tasks: 16,
        };
        (8, vec![spec, dom, spec, dom, spec, dom])
    }
}

fn run_regions(args: &Args) -> ExitCode {
    let suite_start = Instant::now();
    let (pool_threads, defs) = regions_batch(args.smoke);
    println!(
        "[regions] {} regions through a {pool_threads}-thread pool (gangs {:?})",
        defs.len(),
        defs.iter().map(RegionDef::gang).collect::<Vec<_>>()
    );

    // Criterion 1: pooled digests byte-identical to solo digests.
    let solo: Vec<String> = match defs.iter().map(run_region_solo).collect() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (pooled, _, _) = match run_regions_pooled(&defs, pool_threads, false, false) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let identical: Vec<bool> = solo.iter().zip(&pooled).map(|(s, p)| s == p).collect();
    let all_identical = identical.iter().all(|&b| b);

    // Criterion 2: pooled throughput strictly beats region-at-a-time in
    // the FIFO gang-admission virtual-time replay.
    let cost = CostModel::default();
    let durations: Vec<u64> = defs.iter().map(|d| region_sim_duration(d, &cost)).collect();
    let sim = region_server(
        pool_threads,
        &defs
            .iter()
            .zip(&durations)
            .map(|(d, &duration)| RegionSpec {
                gang: d.gang(),
                duration,
            })
            .collect::<Vec<_>>(),
    );
    let ratio = sim.throughput_ratio();

    // Criterion 3: a faulted region 0 leaves every neighbour's digest —
    // verdict stream included — byte-identical to its solo run.
    let (faulted, region0_contained, _) = match run_regions_pooled(&defs, pool_threads, true, false)
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let isolated: Vec<bool> = solo
        .iter()
        .zip(&faulted)
        .enumerate()
        .map(|(i, (s, f))| if i == 0 { region0_contained } else { s == f })
        .collect();
    let isolation = isolated.iter().all(|&b| b);

    let pass = all_identical && ratio > 1.0 && isolation;
    let json = render_regions_json(
        args,
        pool_threads,
        &defs,
        &durations,
        &identical,
        &isolated,
        &sim,
        region0_contained,
        pass,
    );
    if let Err(e) = std::fs::create_dir_all(args.out.parent().unwrap_or(&args.out)) {
        eprintln!("bench-suite: creating output directory: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench-suite: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate_report(&json) {
        eprintln!("bench-suite: produced malformed JSON: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "[wrote {}] in {:.1}s",
        args.out.display(),
        suite_start.elapsed().as_secs_f64()
    );
    for (i, def) in defs.iter().enumerate() {
        println!(
            "  region {} ({}, gang {}): identical={} isolated={} sim {} ns",
            i + 1,
            def.kind_name(),
            def.gang(),
            identical[i],
            isolated[i],
            durations[i],
        );
    }
    println!(
        "pooled makespan {} ns vs region-at-a-time {} ns = {ratio:.3}x (need > 1.0), \
         fault contained: {region0_contained}",
        sim.makespan, sim.sequential
    );
    // The criteria are deterministic (digest equality, virtual time), so
    // unlike the timing-calibrated suites they gate smoke mode too.
    if pass {
        println!("criteria: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("criteria: FAIL");
        ExitCode::FAILURE
    }
}

#[allow(clippy::too_many_arguments)]
fn render_regions_json(
    args: &Args,
    pool_threads: usize,
    defs: &[RegionDef],
    durations: &[u64],
    identical: &[bool],
    isolated: &[bool],
    sim: &ServerSimResult,
    region0_contained: bool,
    pass: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"crossinvoc-bench-8\",");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(s, "  \"pool\": {{ \"threads\": {pool_threads} }},");
    s.push_str("  \"regions\": [\n");
    for (i, def) in defs.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"region_id\": {},", i + 1);
        let _ = writeln!(s, "      \"kind\": \"{}\",", def.kind_name());
        let _ = writeln!(s, "      \"gang\": {},", def.gang());
        let _ = writeln!(s, "      \"epochs\": {},", def.epochs);
        let _ = writeln!(s, "      \"tasks\": {},", def.tasks);
        let _ = writeln!(s, "      \"sim_duration_ns\": {},", durations[i]);
        let _ = writeln!(s, "      \"identical\": {},", identical[i]);
        let _ = writeln!(s, "      \"isolated\": {}", isolated[i]);
        s.push_str("    }");
        s.push_str(if i + 1 < defs.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"throughput\": {\n");
    let _ = writeln!(s, "    \"makespan_ns\": {},", sim.makespan);
    let _ = writeln!(s, "    \"region_at_a_time_ns\": {},", sim.sequential);
    let _ = writeln!(s, "    \"ratio\": {:.4}", sim.throughput_ratio());
    s.push_str("  },\n");
    s.push_str("  \"isolation\": {\n");
    let _ = writeln!(s, "    \"faulted_region\": 1,");
    let _ = writeln!(s, "    \"contained\": {region0_contained}");
    s.push_str("  },\n");
    s.push_str("  \"criteria\": {\n");
    let _ = writeln!(s, "    \"evaluated\": true,");
    let _ = writeln!(s, "    \"identical\": {},", identical.iter().all(|&b| b));
    let _ = writeln!(s, "    \"min_ratio\": 1.0,");
    let _ = writeln!(s, "    \"ratio\": {:.4},", sim.throughput_ratio());
    let _ = writeln!(s, "    \"isolation\": {},", isolated.iter().all(|&b| b));
    let _ = writeln!(s, "    \"pass\": {pass}");
    s.push_str("  }\n}\n");
    s
}

// ---- BENCH_9: the live-telemetry-plane suite ----

/// Minimum telemetry-on / telemetry-off throughput the registry must keep
/// on the saturated spin batch (BENCH_9; best-of-N wall time either arm).
const TELEMETRY_MIN_RATIO: f64 = 0.97;

/// Busy-spins for `ns` nanoseconds — CPU-heavy task bodies for the
/// overhead arm, so per-task telemetry cost is measured against real work
/// rather than against an empty increment.
fn spin_for(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// [`RegionIncGrid`] with a busy-spin task body.
struct SpinIncGrid {
    inner: RegionIncGrid,
    spin_ns: u64,
}

impl SpecWorkload for SpinIncGrid {
    type State = Vec<u64>;

    fn num_epochs(&self) -> usize {
        self.inner.num_epochs()
    }

    fn num_tasks(&self, epoch: usize) -> usize {
        self.inner.num_tasks(epoch)
    }

    fn execute_task(
        &self,
        epoch: usize,
        task: usize,
        tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    ) {
        spin_for(self.spin_ns);
        self.inner.execute_task(epoch, task, tid, recorder);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.inner.snapshot()
    }

    fn restore(&self, state: &Vec<u64>) {
        self.inner.restore(state);
    }
}

/// [`RegionDomGrid`] with a busy-spin iteration body.
struct SpinDomGrid {
    inner: RegionDomGrid,
    spin_ns: u64,
}

impl DomoreWorkload for SpinDomGrid {
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
        spin_for(self.spin_ns);
        self.inner.execute_iteration(inv, iter, tid);
    }

    fn address_space(&self) -> Option<usize> {
        self.inner.address_space()
    }
}

/// Wall time of one spin batch through the shared pool, submit to last
/// join, with or without the telemetry plane attached.
fn telemetry_batch_wall(
    defs: &[RegionDef],
    pool_threads: usize,
    spin_ns: u64,
    telemetry: bool,
) -> Result<u64, String> {
    let server = if telemetry {
        RegionServer::with_telemetry(
            pool_threads,
            ServerRegistry::new(pool_threads).with_recorder(FlightRecorder::new(512)),
        )
    } else {
        RegionServer::new(pool_threads)
    };
    let start = Instant::now();
    let mut handles = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        let region_id = (i + 1) as u64;
        match def.kind {
            RegionKind::Spec => {
                let w = Arc::new(SpinIncGrid {
                    inner: RegionIncGrid::new(def.tasks, def.epochs),
                    spin_ns,
                });
                handles.push(server.submit_spec::<RangeSignature, _>(
                    region_id,
                    spec_region_config(def),
                    w,
                ));
            }
            RegionKind::Domore => {
                let w = Arc::new(SpinDomGrid {
                    inner: RegionDomGrid::new(def.tasks, def.epochs),
                    spin_ns,
                });
                handles.push(server.submit_domore(
                    region_id,
                    DomoreConfig::with_workers(def.workers),
                    w,
                ));
            }
        }
    }
    for (i, handle) in handles.into_iter().enumerate() {
        handle
            .join()
            .map_err(|e| format!("spin region {}: {e}", i + 1))?;
    }
    Ok(start.elapsed().as_nanos() as u64)
}

/// What the flight-recorder leg observed, for rendering and the criteria.
struct FlightCheck {
    dumps: usize,
    region_id: u64,
    trigger: String,
    records: usize,
    dropped: u64,
    roundtrip: bool,
    ok: bool,
}

/// Checks the fault run's dumps: exactly one, on region 1, trigger
/// `fault`, non-empty, and its JSONL must round-trip through the trace
/// parser with record and drop counts intact.
fn check_flight(outcome: &TelemetryOutcome, contained: bool) -> FlightCheck {
    let (region_id, trigger, records, dropped, roundtrip) = match outcome.dumps.as_slice() {
        [(region_id, trigger, records, dropped, jsonl)] => {
            let roundtrip = match Trace::from_jsonl_region(jsonl, *region_id) {
                Ok(trace) => trace.records().len() == *records && trace.dropped() == *dropped,
                Err(_) => false,
            };
            (*region_id, trigger.clone(), *records, *dropped, roundtrip)
        }
        _ => (0, String::new(), 0, 0, false),
    };
    let ok = contained
        && outcome.dumps.len() == 1
        && region_id == 1
        && trigger == "fault"
        && records > 0
        && roundtrip;
    FlightCheck {
        dumps: outcome.dumps.len(),
        region_id,
        trigger,
        records,
        dropped,
        roundtrip,
        ok,
    }
}

fn run_telemetry(args: &Args) -> ExitCode {
    let suite_start = Instant::now();
    let (pool_threads, defs) = regions_batch(args.smoke);
    println!(
        "[telemetry] {} regions through a {pool_threads}-thread pool, registry attached",
        defs.len(),
    );

    // Criterion 1: identity — telemetry-on digests byte-identical to
    // telemetry-off (verdict streams included).
    let (off_digests, _, _) = match run_regions_pooled(&defs, pool_threads, false, false) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (on_digests, _, on_outcome) = match run_regions_pooled(&defs, pool_threads, false, true) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = on_outcome.expect("telemetry-attached run reports an outcome");
    let identical = off_digests == on_digests;

    // Criterion 2: consistency — every region's snapshot row equals its
    // report's final MetricsSummary, the pool saw every admission, and a
    // healthy batch takes no flight dumps.
    let consistency =
        outcome.consistent && outcome.admissions >= defs.len() as u64 && outcome.dumps.is_empty();

    // Criterion 3: flight — rerun with region 1 under a worker panic; the
    // recorder must dump exactly that region's armed ring.
    let (_, contained, fault_outcome) = match run_regions_pooled(&defs, pool_threads, true, true) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fault_outcome = fault_outcome.expect("telemetry-attached run reports an outcome");
    let flight = check_flight(&fault_outcome, contained);

    // Criterion 4: overhead — best-of-N wall time over CPU-heavy spin
    // regions, arms interleaved so clock drift hits both equally.
    let spin_ns: u64 = if args.smoke { 200_000 } else { 100_000 };
    let reps = if args.smoke { 3 } else { 5 };
    let (mut best_off, mut best_on) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        match (
            telemetry_batch_wall(&defs, pool_threads, spin_ns, false),
            telemetry_batch_wall(&defs, pool_threads, spin_ns, true),
        ) {
            (Ok(off), Ok(on)) => {
                best_off = best_off.min(off);
                best_on = best_on.min(on);
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench-suite: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let ratio = best_off as f64 / best_on as f64;
    let overhead = ratio >= TELEMETRY_MIN_RATIO;

    let pass = identical && consistency && flight.ok && overhead;
    let json = render_telemetry_json(
        args,
        pool_threads,
        defs.len(),
        &outcome,
        &flight,
        (spin_ns, reps, best_off, best_on, ratio),
        (identical, consistency, overhead, pass),
    );
    if let Err(e) = std::fs::create_dir_all(args.out.parent().unwrap_or(&args.out)) {
        eprintln!("bench-suite: creating output directory: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench-suite: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate_report(&json) {
        eprintln!("bench-suite: produced malformed JSON: {e}");
        return ExitCode::FAILURE;
    }
    // Exposition artifacts: wire-schema snapshots for `server-stats`
    // (healthy batch, then the faulted batch) and Prometheus text format.
    let snapshots = args.out.with_file_name("BENCH_9.snapshots.jsonl");
    let prom = args.out.with_file_name("BENCH_9.prom");
    let jsonl = format!(
        "{}\n{}\n",
        outcome.snapshot.to_json(),
        fault_outcome.snapshot.to_json()
    );
    for (path, text) in [
        (&snapshots, jsonl),
        (&prom, fault_outcome.snapshot.to_prometheus()),
    ] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("bench-suite: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "[wrote {} + snapshots.jsonl + prom] in {:.1}s",
        args.out.display(),
        suite_start.elapsed().as_secs_f64()
    );
    println!(
        "  identity: telemetry-on digests identical to off = {identical}\n  \
         consistency: snapshot rows == final MetricsSummary = {} (admissions {})\n  \
         flight: {} dump(s), region {}, trigger {:?}, {} records, roundtrip={}\n  \
         overhead: best off {} ns vs on {} ns = {ratio:.4}x (need >= {TELEMETRY_MIN_RATIO})",
        outcome.consistent,
        outcome.admissions,
        flight.dumps,
        flight.region_id,
        flight.trigger,
        flight.records,
        flight.roundtrip,
        best_off,
        best_on,
    );
    if pass {
        println!("criteria: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("criteria: FAIL");
        ExitCode::FAILURE
    }
}

fn render_telemetry_json(
    args: &Args,
    pool_threads: usize,
    num_regions: usize,
    outcome: &TelemetryOutcome,
    flight: &FlightCheck,
    (spin_ns, reps, best_off, best_on, ratio): (u64, usize, u64, u64, f64),
    (identical, consistency, overhead, pass): (bool, bool, bool, bool),
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"crossinvoc-bench-9\",");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(
        s,
        "  \"pool\": {{ \"threads\": {pool_threads}, \"regions\": {num_regions} }},"
    );
    s.push_str("  \"overhead\": {\n");
    let _ = writeln!(s, "    \"spin_ns\": {spin_ns},");
    let _ = writeln!(s, "    \"reps\": {reps},");
    let _ = writeln!(s, "    \"best_off_ns\": {best_off},");
    let _ = writeln!(s, "    \"best_on_ns\": {best_on},");
    let _ = writeln!(s, "    \"throughput_ratio\": {ratio:.4},");
    let _ = writeln!(s, "    \"min_ratio\": {TELEMETRY_MIN_RATIO}");
    s.push_str("  },\n");
    s.push_str("  \"consistency\": {\n");
    let _ = writeln!(s, "    \"regions\": {num_regions},");
    let _ = writeln!(s, "    \"snapshot_matches_final\": {},", outcome.consistent);
    let _ = writeln!(s, "    \"admissions\": {},", outcome.admissions);
    let _ = writeln!(s, "    \"clean_run_dumps\": {}", outcome.dumps.len());
    s.push_str("  },\n");
    s.push_str("  \"flight\": {\n");
    let _ = writeln!(s, "    \"dumps\": {},", flight.dumps);
    let _ = writeln!(s, "    \"region_id\": {},", flight.region_id);
    let _ = writeln!(s, "    \"trigger\": \"{}\",", flight.trigger);
    let _ = writeln!(s, "    \"records\": {},", flight.records);
    let _ = writeln!(s, "    \"dropped\": {},", flight.dropped);
    let _ = writeln!(s, "    \"roundtrip\": {}", flight.roundtrip);
    s.push_str("  },\n");
    s.push_str("  \"criteria\": {\n");
    let _ = writeln!(s, "    \"evaluated\": true,");
    let _ = writeln!(s, "    \"identical\": {identical},");
    let _ = writeln!(s, "    \"consistency\": {consistency},");
    let _ = writeln!(s, "    \"flight\": {},", flight.ok);
    let _ = writeln!(s, "    \"overhead\": {overhead},");
    let _ = writeln!(s, "    \"pass\": {pass}");
    s.push_str("  }\n}\n");
    s
}

// ---- JSON rendering (hand-rolled: the workspace carries no serde) ----

fn render_json(
    args: &Args,
    reports: &[KernelReport],
    best_win: Option<(&str, f64)>,
    worst_balanced: Option<(&str, f64)>,
    pass: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"crossinvoc-bench-3\",");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"workers\": {},", args.workers);
    let _ = writeln!(s, "  \"reps\": {},", args.reps);
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    s.push_str("  \"criteria\": {\n");
    let _ = writeln!(s, "    \"evaluated\": {},", !args.smoke);
    let _ = writeln!(s, "    \"adaptive_min_win\": {WIN_THRESHOLD},");
    let _ = writeln!(s, "    \"balanced_min_ratio\": {BALANCED_TOLERANCE},");
    match best_win {
        Some((name, win)) => {
            let _ = writeln!(s, "    \"best_imbalanced_win\": {win:.4},");
            let _ = writeln!(s, "    \"best_imbalanced_kernel\": \"{name}\",");
        }
        None => {
            s.push_str("    \"best_imbalanced_win\": null,\n");
            s.push_str("    \"best_imbalanced_kernel\": null,\n");
        }
    }
    match worst_balanced {
        Some((name, w)) => {
            let _ = writeln!(s, "    \"worst_balanced_ratio\": {w:.4},");
            let _ = writeln!(s, "    \"worst_balanced_kernel\": \"{name}\",");
        }
        None => {
            s.push_str("    \"worst_balanced_ratio\": null,\n");
            s.push_str("    \"worst_balanced_kernel\": null,\n");
        }
    }
    let _ = writeln!(s, "    \"pass\": {pass}");
    s.push_str("  },\n");
    s.push_str("  \"kernels\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"imbalanced\": {},", r.imbalanced);
        s.push_str("      \"sim\": {\n");
        let _ = writeln!(
            s,
            "        \"scale\": \"{}\",",
            match r.sim_scale {
                Scale::Test => "test",
                Scale::Figure => "figure",
            }
        );
        let _ = writeln!(s, "        \"seq_ns\": {},", r.sim_seq_ns);
        let _ = writeln!(
            s,
            "        \"adaptive_over_round_robin\": {:.4},",
            r.sim_ratio()
        );
        s.push_str("        \"configs\": [\n");
        for (j, row) in r.sim.iter().enumerate() {
            let _ = write!(
                s,
                "          {{\"dispatch\": \"{}\", \"total_ns\": {}, \
                 \"speedup_vs_seq\": {:.4}, \"sync_conditions\": {}, \"stalls\": {}}}",
                row.dispatch.name(),
                row.total_ns,
                row.speedup_vs_seq,
                row.sync_conditions,
                row.stalls
            );
            s.push_str(if j + 1 < r.sim.len() { ",\n" } else { "\n" });
        }
        s.push_str("        ]\n      },\n");
        s.push_str("      \"real\": {\n");
        s.push_str("        \"scale\": \"test\",\n");
        s.push_str("        \"configs\": [\n");
        for (j, row) in r.real.iter().enumerate() {
            s.push_str("          {\n");
            let _ = writeln!(s, "            \"config\": \"{}\",", row.name);
            let _ = writeln!(
                s,
                "            \"median_wall_ns\": {},",
                median(&row.wall_ns)
            );
            let _ = writeln!(
                s,
                "            \"speedup_vs_seq\": {:.4},",
                row.speedup_vs_seq
            );
            let walls: Vec<String> = row.wall_ns.iter().map(|w| w.to_string()).collect();
            let _ = writeln!(s, "            \"wall_ns\": [{}],", walls.join(", "));
            match &row.stall_wait {
                Some(h) => {
                    s.push_str("            \"stall_wait\": {\n");
                    let _ = writeln!(s, "              \"count\": {},", h.count);
                    let _ = writeln!(s, "              \"sum_ns\": {},", h.sum_ns);
                    let _ = writeln!(s, "              \"mean_ns\": {:.1},", h.mean_ns());
                    let _ = writeln!(
                        s,
                        "              \"p50_ns\": {},",
                        h.quantile_upper_bound(0.50)
                    );
                    let _ = writeln!(
                        s,
                        "              \"p90_ns\": {},",
                        h.quantile_upper_bound(0.90)
                    );
                    let _ = writeln!(
                        s,
                        "              \"p99_ns\": {},",
                        h.quantile_upper_bound(0.99)
                    );
                    let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
                    let _ = writeln!(
                        s,
                        "              \"log2_buckets\": [{}]",
                        buckets.join(", ")
                    );
                    s.push_str("            }\n");
                }
                None => s.push_str("            \"stall_wait\": null\n"),
            }
            s.push_str("          }");
            s.push_str(if j + 1 < r.real.len() { ",\n" } else { "\n" });
        }
        s.push_str("        ]\n      }\n    }");
        s.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

// ---- JSON validation ----
//
// Parsing is the shared `crossinvoc_bench::json` reader (the workspace
// vendors no JSON library); this file only checks the report structures,
// dispatching on the `schema` field.

/// Parses `text`, dispatches on its `schema` field and checks the
/// corresponding structural contract. Returns a one-line description.
fn validate_report(text: &str) -> Result<String, String> {
    let root = json::parse(text)?;
    match root.get("schema") {
        Some(Json::Str(s)) if s == "crossinvoc-bench-3" => validate_bench3(&root),
        Some(Json::Str(s)) if s == "crossinvoc-bench-5" => validate_bench5(&root),
        Some(Json::Str(s)) if s == "crossinvoc-bench-7" => validate_bench7(&root),
        Some(Json::Str(s)) if s == "crossinvoc-bench-8" => validate_bench8(&root),
        Some(Json::Str(s)) if s == "crossinvoc-bench-9" => validate_bench9(&root),
        Some(Json::Str(s)) if s == "crossinvoc-bench-10" => validate_bench10(&root),
        other => Err(format!("bad schema field: {other:?}")),
    }
}

fn validate_bench10(root: &Json) -> Result<String, String> {
    let criteria = root.get("criteria").ok_or("missing criteria")?;
    for field in [
        "pass",
        "registry_identical",
        "clustered_zero_checks",
        "mixed_verdicts_identical",
    ] {
        if !matches!(criteria.get(field), Some(Json::Bool(_))) {
            return Err(format!("criteria.{field} must be a bool"));
        }
    }
    for field in ["combined_ratio", "share_factor"] {
        if !matches!(criteria.get(field), Some(Json::Num(_))) {
            return Err(format!("criteria.{field} must be a number"));
        }
    }
    let rows = match root.get("registry") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        _ => return Err("registry must be a non-empty array".into()),
    };
    for row in rows {
        if !matches!(row.get("name"), Some(Json::Str(_))) {
            return Err("registry row missing name".into());
        }
        for field in ["realized", "digest_identical", "verdicts_identical"] {
            if !matches!(row.get(field), Some(Json::Bool(_))) {
                return Err(format!("registry row field {field} must be a bool"));
            }
        }
        for field in ["proven_epochs", "elided_admits"] {
            if !matches!(row.get(field), Some(Json::Num(_))) {
                return Err(format!("registry row field {field} must be a number"));
            }
        }
    }
    let checker = root.get("checker").ok_or("missing checker section")?;
    for (section, sides) in [
        ("clustered", &["elide_off", "elide_on"][..]),
        ("mixed", &["bare", "summaries", "summaries_elide"][..]),
    ] {
        let sec = checker
            .get(section)
            .ok_or_else(|| format!("checker missing {section}"))?;
        for side in sides {
            let c = sec
                .get(side)
                .ok_or_else(|| format!("checker.{section} missing {side}"))?;
            for field in ["check_requests", "comparisons", "elided_admits"] {
                if !matches!(c.get(field), Some(Json::Num(_))) {
                    return Err(format!("checker.{section}.{side}.{field} must be a number"));
                }
            }
        }
    }
    Ok(format!(
        "valid BENCH_10 report, {} registry kernels",
        rows.len()
    ))
}

fn validate_bench3(root: &Json) -> Result<String, String> {
    let criteria = root.get("criteria").ok_or("missing criteria")?;
    if !matches!(criteria.get("pass"), Some(Json::Bool(_))) {
        return Err("criteria.pass must be a bool".into());
    }
    let kernels = match root.get("kernels") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        _ => return Err("kernels must be a non-empty array".into()),
    };
    for kernel in kernels {
        let name = match kernel.get("name") {
            Some(Json::Str(n)) => n.clone(),
            _ => return Err("kernel missing name".into()),
        };
        for section in ["sim", "real"] {
            let configs = kernel
                .get(section)
                .and_then(|s| s.get("configs"))
                .ok_or_else(|| format!("{name}: missing {section}.configs"))?;
            match configs {
                Json::Arr(items) if !items.is_empty() => {}
                _ => return Err(format!("{name}: {section}.configs empty")),
            }
        }
    }
    Ok(format!("valid BENCH_3 report, {} kernels", kernels.len()))
}

fn validate_bench5(root: &Json) -> Result<String, String> {
    let criteria = root.get("criteria").ok_or("missing criteria")?;
    if !matches!(criteria.get("pass"), Some(Json::Bool(_))) {
        return Err("criteria.pass must be a bool".into());
    }
    let checker = root.get("checker").ok_or("missing checker section")?;
    for side in ["summaries_on", "summaries_off"] {
        let c = checker
            .get(side)
            .ok_or_else(|| format!("checker missing {side}"))?;
        for field in ["comparisons", "check_requests"] {
            if !matches!(c.get(field), Some(Json::Num(_))) {
                return Err(format!("checker.{side}.{field} must be a number"));
            }
        }
    }
    if !matches!(checker.get("pruning_ratio"), Some(Json::Num(_))) {
        return Err("checker.pruning_ratio must be a number".into());
    }
    Ok("valid BENCH_5 report".to_string())
}

fn validate_bench7(root: &Json) -> Result<String, String> {
    let criteria = root.get("criteria").ok_or("missing criteria")?;
    if !matches!(criteria.get("pass"), Some(Json::Bool(_))) {
        return Err("criteria.pass must be a bool".into());
    }
    if !matches!(criteria.get("verdicts_identical"), Some(Json::Bool(_))) {
        return Err("criteria.verdicts_identical must be a bool".into());
    }
    if !matches!(criteria.get("share_factor"), Some(Json::Num(_))) {
        return Err("criteria.share_factor must be a number".into());
    }
    let rows = match root.get("checker").and_then(|c| c.get("shards")) {
        Some(Json::Arr(items)) if items.len() >= 2 => items,
        _ => return Err("checker.shards needs the baseline and ≥1 sharded row".into()),
    };
    for row in rows {
        for field in ["shards", "checker_wait_share", "misspeculations", "tasks"] {
            if !matches!(row.get(field), Some(Json::Num(_))) {
                return Err(format!("shard row field {field} must be a number"));
            }
        }
    }
    Ok(format!("valid BENCH_7 report, {} shard rows", rows.len()))
}

fn validate_bench8(root: &Json) -> Result<String, String> {
    let criteria = root.get("criteria").ok_or("missing criteria")?;
    for field in ["pass", "identical", "isolation"] {
        if !matches!(criteria.get(field), Some(Json::Bool(_))) {
            return Err(format!("criteria.{field} must be a bool"));
        }
    }
    if !matches!(criteria.get("ratio"), Some(Json::Num(_))) {
        return Err("criteria.ratio must be a number".into());
    }
    let throughput = root.get("throughput").ok_or("missing throughput")?;
    for field in ["makespan_ns", "region_at_a_time_ns", "ratio"] {
        if !matches!(throughput.get(field), Some(Json::Num(_))) {
            return Err(format!("throughput.{field} must be a number"));
        }
    }
    let isolation = root.get("isolation").ok_or("missing isolation")?;
    if !matches!(isolation.get("contained"), Some(Json::Bool(_))) {
        return Err("isolation.contained must be a bool".into());
    }
    let regions = match root.get("regions") {
        Some(Json::Arr(items)) if items.len() >= 2 => items,
        _ => return Err("regions needs at least two concurrent rows".into()),
    };
    for row in regions {
        if !matches!(row.get("region_id"), Some(Json::Num(_)))
            || !matches!(row.get("gang"), Some(Json::Num(_)))
            || !matches!(row.get("kind"), Some(Json::Str(_)))
        {
            return Err("region row needs region_id, gang and kind".into());
        }
        for field in ["identical", "isolated"] {
            if !matches!(row.get(field), Some(Json::Bool(_))) {
                return Err(format!("region row field {field} must be a bool"));
            }
        }
    }
    Ok(format!("valid BENCH_8 report, {} regions", regions.len()))
}

fn validate_bench9(root: &Json) -> Result<String, String> {
    let criteria = root.get("criteria").ok_or("missing criteria")?;
    for field in ["pass", "identical", "consistency", "flight", "overhead"] {
        if !matches!(criteria.get(field), Some(Json::Bool(_))) {
            return Err(format!("criteria.{field} must be a bool"));
        }
    }
    let overhead = root.get("overhead").ok_or("missing overhead")?;
    for field in ["best_off_ns", "best_on_ns", "throughput_ratio", "min_ratio"] {
        if !matches!(overhead.get(field), Some(Json::Num(_))) {
            return Err(format!("overhead.{field} must be a number"));
        }
    }
    let consistency = root.get("consistency").ok_or("missing consistency")?;
    if !matches!(
        consistency.get("snapshot_matches_final"),
        Some(Json::Bool(_))
    ) {
        return Err("consistency.snapshot_matches_final must be a bool".into());
    }
    let flight = root.get("flight").ok_or("missing flight")?;
    for field in ["dumps", "region_id", "records", "dropped"] {
        if !matches!(flight.get(field), Some(Json::Num(_))) {
            return Err(format!("flight.{field} must be a number"));
        }
    }
    if !matches!(flight.get("roundtrip"), Some(Json::Bool(_))) {
        return Err("flight.roundtrip must be a bool".into());
    }
    let ratio = overhead
        .get("throughput_ratio")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    Ok(format!("valid BENCH_9 report, throughput ratio {ratio:.4}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_json_is_rejected() {
        for bad in ["{", "[1,]", "{\"a\": }", "{} trailing", "{\"a\"; 1}"] {
            assert!(validate_report(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn structural_contract_is_enforced() {
        // Parses fine, but violates the report shape.
        let err =
            validate_report(r#"{"schema": "crossinvoc-bench-3", "kernels": []}"#).unwrap_err();
        assert!(err.contains("criteria"), "{err}");
    }

    #[test]
    fn bench5_contract_is_enforced() {
        let err =
            validate_report(r#"{"schema": "crossinvoc-bench-5", "criteria": {"pass": true}}"#)
                .unwrap_err();
        assert!(err.contains("checker"), "{err}");

        let ok = r#"{
          "schema": "crossinvoc-bench-5",
          "criteria": {"pass": false},
          "checker": {
            "pruning_ratio": 6.5,
            "summaries_on": {"comparisons": 10, "check_requests": 5},
            "summaries_off": {"comparisons": 65, "check_requests": 5}
          }
        }"#;
        let desc = validate_report(ok).unwrap();
        assert!(desc.contains("BENCH_5"), "{desc}");

        let no_ratio = ok.replace("\"pruning_ratio\": 6.5", "\"pruning_ratio\": \"high\"");
        assert!(validate_report(&no_ratio).is_err());
    }

    #[test]
    fn bench7_contract_is_enforced() {
        let err =
            validate_report(r#"{"schema": "crossinvoc-bench-7", "criteria": {"pass": true}}"#)
                .unwrap_err();
        assert!(err.contains("verdicts_identical"), "{err}");

        let ok = r#"{
          "schema": "crossinvoc-bench-7",
          "criteria": {"pass": true, "verdicts_identical": true, "share_factor": 0.82},
          "checker": {"shards": [
            {"shards": 1, "checker_wait_share": 0.3, "misspeculations": 0, "tasks": 1920},
            {"shards": 4, "checker_wait_share": 0.246, "misspeculations": 0, "tasks": 1920}
          ]}
        }"#;
        let desc = validate_report(ok).unwrap();
        assert!(desc.contains("BENCH_7"), "{desc}");

        // The baseline row alone is not a sweep.
        let one_row = ok.replace(
            ",\n            {\"shards\": 4, \"checker_wait_share\": 0.246, \
             \"misspeculations\": 0, \"tasks\": 1920}",
            "",
        );
        assert!(validate_report(&one_row).is_err());
    }

    #[test]
    fn bench8_contract_is_enforced() {
        let err =
            validate_report(r#"{"schema": "crossinvoc-bench-8", "criteria": {"pass": true}}"#)
                .unwrap_err();
        assert!(err.contains("identical"), "{err}");

        let ok = r#"{
          "schema": "crossinvoc-bench-8",
          "criteria": {"pass": true, "identical": true, "isolation": true, "ratio": 1.9},
          "throughput": {"makespan_ns": 100, "region_at_a_time_ns": 190, "ratio": 1.9},
          "isolation": {"faulted_region": 1, "contained": true},
          "regions": [
            {"region_id": 1, "kind": "speccross", "gang": 3, "identical": true, "isolated": true},
            {"region_id": 2, "kind": "domore", "gang": 2, "identical": true, "isolated": true}
          ]
        }"#;
        let desc = validate_report(ok).unwrap();
        assert!(desc.contains("BENCH_8"), "{desc}");

        // One region is not a saturation batch.
        let one_region = ok.replace(
            ",\n            {\"region_id\": 2, \"kind\": \"domore\", \"gang\": 2, \
             \"identical\": true, \"isolated\": true}",
            "",
        );
        assert!(validate_report(&one_region).is_err());

        let bad_iso = ok.replace("\"contained\": true", "\"contained\": \"yes\"");
        assert!(validate_report(&bad_iso).is_err());
    }

    #[test]
    fn bench10_contract_is_enforced() {
        let err =
            validate_report(r#"{"schema": "crossinvoc-bench-10", "criteria": {"pass": true}}"#)
                .unwrap_err();
        assert!(err.contains("registry_identical"), "{err}");

        let ok = r#"{
          "schema": "crossinvoc-bench-10",
          "criteria": {"pass": true, "registry_identical": true,
                       "clustered_zero_checks": true, "mixed_verdicts_identical": true,
                       "combined_ratio": 14.2, "share_factor": 0.41},
          "registry": [
            {"name": "FDTD", "epochs": 8, "proven_epochs": 0, "realized": true,
             "digest_identical": true, "verdicts_identical": true, "elided_admits": 0}
          ],
          "checker": {
            "clustered": {
              "elide_off": {"check_requests": 90, "comparisons": 200, "elided_admits": 0},
              "elide_on": {"check_requests": 0, "comparisons": 0, "elided_admits": 96}
            },
            "mixed": {
              "bare": {"check_requests": 90, "comparisons": 900, "elided_admits": 0},
              "summaries": {"check_requests": 90, "comparisons": 120, "elided_admits": 0},
              "summaries_elide": {"check_requests": 45, "comparisons": 40, "elided_admits": 48}
            }
          }
        }"#;
        let desc = validate_report(ok).unwrap();
        assert!(desc.contains("BENCH_10"), "{desc}");

        // A registry sweep with no rows is no transparency evidence.
        let empty = ok.replace(
            "{\"name\": \"FDTD\", \"epochs\": 8, \"proven_epochs\": 0, \"realized\": true,\n             \
             \"digest_identical\": true, \"verdicts_identical\": true, \"elided_admits\": 0}",
            "",
        );
        assert!(validate_report(&empty).is_err());

        let no_realized = ok.replace("\"realized\": true", "\"realized\": 1");
        assert!(validate_report(&no_realized).is_err());

        let bad_digest = ok.replace("\"digest_identical\": true", "\"digest_identical\": 1");
        assert!(validate_report(&bad_digest).is_err());

        let no_side = ok.replace("\"summaries_elide\"", "\"other\"");
        assert!(validate_report(&no_side).is_err());
    }

    #[test]
    fn bench9_contract_is_enforced() {
        let err =
            validate_report(r#"{"schema": "crossinvoc-bench-9", "criteria": {"pass": true}}"#)
                .unwrap_err();
        assert!(err.contains("identical"), "{err}");

        let ok = r#"{
          "schema": "crossinvoc-bench-9",
          "criteria": {"pass": true, "identical": true, "consistency": true,
                       "flight": true, "overhead": true},
          "overhead": {"spin_ns": 200000, "reps": 3, "best_off_ns": 51000000,
                       "best_on_ns": 51200000, "throughput_ratio": 0.9961, "min_ratio": 0.97},
          "consistency": {"regions": 4, "snapshot_matches_final": true,
                          "admissions": 9, "clean_run_dumps": 0},
          "flight": {"dumps": 1, "region_id": 1, "trigger": "fault",
                     "records": 120, "dropped": 0, "roundtrip": true}
        }"#;
        let desc = validate_report(ok).unwrap();
        assert!(desc.contains("BENCH_9"), "{desc}");

        // The overhead gate cannot be reported without its measurement.
        let no_ratio = ok.replace("\"throughput_ratio\": 0.9961, ", "");
        assert!(validate_report(&no_ratio).is_err());

        let bad_roundtrip = ok.replace("\"roundtrip\": true", "\"roundtrip\": \"yes\"");
        assert!(validate_report(&bad_roundtrip).is_err());
    }
}
