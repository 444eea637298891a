//! What one round runs: a case per kernel (or per PIR region set), each
//! timed under up to four techniques and checked against its oracle.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossinvoc::{RegionReport, RegionServer};
use crossinvoc_domore::runtime::{DomoreConfig, DomoreRuntime};
use crossinvoc_runtime::pool::{RegionExecutor, ScopedExecutor};
use crossinvoc_runtime::signature::RangeSignature;
use crossinvoc_speccross::engine::{SpecConfig, SpecCrossEngine};
use crossinvoc_workloads::kernel::profile_distance;
use crossinvoc_workloads::registry::{by_name, InnerPlan};
use crossinvoc_workloads::Scale;

use crate::kernel::{model, BenchKernel, Model, Prefix};
use crate::probe::{self, TimedExecutor, Totals};
use crate::replay;

/// Worker threads per region: the smallest count at which SPECCROSS does
/// cross-worker checks.
pub const WORKERS: usize = 2;

/// Epoch window of the dependence-distance profiler.
pub const PROFILE_WINDOW: u32 = 6;

/// Invocations of SYMM kept by `spec-checker`.
pub const SYMM_PREFIX: usize = 200;

/// Regions of the SYMM prefix per seq/barrier/par activity. A single
/// SPECCROSS region of the prefix takes anywhere from about 50 to 400 ms
/// (how far the checker lags), so one region per round left the workload's
/// `par_ms` median spreading by up to 23% from run to run.
pub const SYMM_REPEATS: u32 = 4;

/// A timed activity of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tech {
    /// Sequential execution: the oracle order.
    Seq,
    /// `execute_with_barriers`.
    Barrier,
    /// The cross-invocation technique (SPECCROSS, DOMORE or the driver's
    /// choice).
    Par,
    /// Plan-time work.
    Plan,
}

impl Tech {
    /// The end-to-end metric this activity's time is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Tech::Seq => "seq_ms",
            Tech::Barrier => "barrier_ms",
            Tech::Par => "par_ms",
            Tech::Plan => "plan_ms",
        }
    }
}

/// Per-layer sums one activity contributed (traced rounds only).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub sums: BTreeMap<&'static str, f64>,
    /// Gang role start latencies, in microseconds.
    pub gang_start_us: Vec<f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
        self.gang_start_us.extend(other.gang_start_us);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Result of one timed activity.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each region (or plan) the activity timed, in
    /// milliseconds, in a fixed order; a case repeating one region reports
    /// the repeats' mean as one entry.
    pub region_ms: Vec<f64>,
    /// Checked runs this activity made: region executions, and plan runs
    /// (whose check is that they repeat the set-up decision).
    pub regions: u64,
    /// Checked runs that errored or mismatched their oracle.
    pub failed: u64,
    pub layers: Layers,
}

/// One case of a workload.
pub trait Case {
    /// Name used in per-kernel metric rows (`<metric>.<name>`).
    fn name(&self) -> &str;
    /// The activities this case is timed under.
    fn techs(&self) -> Vec<Tech>;
    /// Runs one activity; untimed preparation happens before the clock.
    fn run(&self, tech: Tech) -> Outcome;
    /// One line describing the case's shape.
    fn describe(&self) -> String;
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Adds a finished region's report counts and probe totals to `l`.
pub fn add_region_layers(
    l: &mut Layers,
    report: &RegionReport,
    barrier_mode: bool,
    totals: &Totals,
    model_tasks: Option<u64>,
) {
    l.add("runtime.gang_passes", totals.gang_passes as f64);
    l.gang_start_us
        .extend(totals.gang_start_ns.iter().map(|&n| n as f64 / 1e3));
    // Task bodies are timed only through the benchmark's kernel wrapper.
    let wrapped = totals.tasks > 0;
    let busy_ms = ns_ms(totals.task_ns);
    if wrapped {
        l.add("workloads.task_busy_ms", busy_ms);
        l.add("workloads.tasks_run", totals.tasks as f64);
        if let Some(m) = model_tasks {
            l.add("workloads.model_tasks", m as f64);
        }
    }
    let idle = |workers: usize, wall: Duration| (workers as f64 * ms(wall) - busy_ms).max(0.0);
    match report {
        RegionReport::Spec(r) if barrier_mode => {
            l.add(
                "barrier.barrier_wait_ms",
                ns_ms(r.metrics.barrier_wait.sum_ns),
            );
            if wrapped {
                l.add("barrier.worker_idle_ms", idle(r.num_workers, r.elapsed));
            }
        }
        RegionReport::Spec(r) => {
            let s = &r.stats;
            l.add("speccross.check_requests", s.check_requests as f64);
            l.add("speccross.comparisons", r.comparisons as f64);
            l.add("speccross.epoch_skips", s.checker_epoch_skips as f64);
            l.add("speccross.checkpoints", s.checkpoints as f64);
            l.add("speccross.misspeculations", s.misspeculations as f64);
            l.add(
                "speccross.stall_wait_ms",
                ns_ms(r.metrics.stall_wait.sum_ns),
            );
            l.add(
                "speccross.barrier_wait_ms",
                ns_ms(r.metrics.barrier_wait.sum_ns),
            );
            l.add("speccross.snapshot_ms", ns_ms(totals.snapshot_ns));
            l.add("speccross.restore_ms", ns_ms(totals.restore_ns));
            if wrapped {
                l.add("speccross.recorded_accesses", totals.records as f64);
                l.add("speccross.record_ms", ns_ms(totals.record_ns));
                l.add("speccross.worker_idle_ms", idle(r.num_workers, r.elapsed));
            }
        }
        RegionReport::Domore(r) => {
            let s = &r.stats;
            l.add("domore.sync_conditions", s.sync_conditions as f64);
            l.add("domore.stalls", s.stalls as f64);
            l.add("domore.stall_wait_ms", ns_ms(r.metrics.stall_wait.sum_ns));
            l.add("domore.memo_hits", s.schedule_cache_hits as f64);
            l.add("domore.invocations", s.epochs as f64);
            if wrapped {
                l.add("domore.compute_addr_calls", totals.touched as f64);
                l.add("domore.compute_addr_ms", ns_ms(totals.touched_ns));
                l.add("domore.worker_idle_ms", idle(r.num_workers, r.elapsed));
            }
        }
    }
}

/// The cross-invocation technique a registry kernel runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Par {
    SpecCross,
    Domore,
}

/// A registry kernel: seq, barrier (DOALL/LOCALWRITE only), its technique,
/// and `profile_distance` when the registry evaluates it under SPECCROSS.
pub struct KernelCase {
    name: &'static str,
    kernel: Arc<BenchKernel>,
    oracle: u64,
    par: Par,
    barrier: bool,
    plan: bool,
    /// Regions go through this long-lived server (`compute`), else run on
    /// scoped threads.
    server: Option<RegionServer>,
    /// Profiled minimum dependence distance, computed once before the first
    /// timed use (plan work, so not part of set-up).
    distance: OnceLock<Option<u64>>,
    /// Signature stream for the checker replay (traced rounds only).
    stream: OnceLock<Vec<Vec<RangeSignature>>>,
    /// Regions per seq/barrier/par activity; the activity reports their
    /// mean time.
    repeats: u32,
}

impl KernelCase {
    /// Builds the kernel, allocates its memory and computes the oracle.
    pub fn new(
        name: &'static str,
        model: Model,
        par: Par,
        server: Option<RegionServer>,
        repeats: u32,
    ) -> Self {
        let info = by_name(name);
        let kernel = Arc::new(BenchKernel::new(model));
        let oracle = kernel.oracle();
        Self {
            name,
            kernel,
            oracle,
            par,
            // Spec-DOALL kernels race under barriers (see `kernel`'s docs).
            barrier: info.inner_plan != InnerPlan::SpecDoall,
            plan: info.speccross,
            server,
            distance: OnceLock::new(),
            stream: OnceLock::new(),
            repeats,
        }
    }

    fn distance(&self) -> Option<u64> {
        *self
            .distance
            .get_or_init(|| profile_distance(self.kernel.model(), PROFILE_WINDOW).min_distance)
    }

    fn spec_config(&self) -> SpecConfig {
        SpecConfig::with_workers(WORKERS).spec_distance(self.distance())
    }

    /// Runs one region under `tech` (Barrier or Par).
    fn execute(&self, tech: Tech) -> Result<RegionReport, String> {
        let k = &self.kernel;
        let barrier = tech == Tech::Barrier;
        if let (Some(server), false) = (&self.server, probe::on()) {
            // The user path of `compute`: a submission to the server.
            let id = server.next_region_id();
            let handle = match (barrier, self.par) {
                (true, _) => server.submit_spec_barriers::<RangeSignature, _>(
                    id,
                    SpecConfig::with_workers(WORKERS),
                    Arc::clone(k),
                ),
                (false, Par::SpecCross) => {
                    server.submit_spec::<RangeSignature, _>(id, self.spec_config(), Arc::clone(k))
                }
                (false, Par::Domore) => {
                    server.submit_domore(id, DomoreConfig::with_workers(WORKERS), Arc::clone(k))
                }
            };
            return handle.join().map_err(|e| e.to_string());
        }
        // Inline on the calling thread (`execute` is `execute_on` with the
        // scoped executor). Traced rounds wrap the executor; the server's
        // submit API takes none, so traced `compute` regions run inline on
        // the server's pool.
        let host: &dyn RegionExecutor = match &self.server {
            Some(server) => &**server.pool(),
            None => &ScopedExecutor,
        };
        let timed = TimedExecutor::new(host);
        let exec: &dyn RegionExecutor = if probe::on() { &timed } else { host };
        match (barrier, self.par) {
            (true, _) => SpecCrossEngine::<RangeSignature>::new(SpecConfig::with_workers(WORKERS))
                .execute_with_barriers_on(&**k, exec)
                .map(RegionReport::Spec)
                .map_err(|e| e.to_string()),
            (false, Par::SpecCross) => SpecCrossEngine::<RangeSignature>::new(self.spec_config())
                .execute_on(&**k, exec)
                .map(RegionReport::Spec)
                .map_err(|e| e.to_string()),
            (false, Par::Domore) => DomoreRuntime::new(DomoreConfig::with_workers(WORKERS))
                .execute_on(&**k, exec)
                .map(RegionReport::Domore)
                .map_err(|e| e.to_string()),
        }
    }

    /// Runs one checked region under `tech` (Seq, Barrier or Par); returns
    /// its milliseconds and whether it matched the oracle.
    fn region(&self, tech: Tech, layers: &mut Layers) -> (f64, bool) {
        if self.par == Par::SpecCross {
            self.distance();
        }
        self.kernel.reset();
        let traced = probe::on();
        let span = traced.then(|| probe::region_begin(format!("{} {}", tech.metric(), self.name)));
        let start = Instant::now();
        let result = if tech == Tech::Seq {
            self.kernel.run_sequential();
            None
        } else {
            Some(self.execute(tech))
        };
        let elapsed = ms(start.elapsed());
        let totals = span.map(probe::region_end);
        let checksum = self.kernel.checksum();
        let Some(result) = result else {
            return (elapsed, checksum == self.oracle);
        };
        if let (Some(totals), Ok(report)) = (totals, &result) {
            let model_tasks = Some(self.kernel.total_tasks());
            add_region_layers(layers, report, tech == Tech::Barrier, &totals, model_tasks);
        }
        (elapsed, verdict(&result, checksum, self.oracle))
    }

    /// Replays the kernel's signature stream through the checker in the
    /// fixed lockstep order (traced rounds, SPECCROSS kernels).
    fn replay(&self, l: &mut Layers) {
        let stream = self.stream.get_or_init(|| {
            let s = self.kernel.signature_stream();
            self.kernel.reset();
            s
        });
        let steps = replay::schedule(
            stream,
            WORKERS,
            SpecConfig::with_workers(WORKERS).checkpoint_every,
        );
        let r = replay::replay(steps, WORKERS);
        l.add("speccross.replay_admits", r.admits as f64);
        l.add("speccross.replay_comparisons", r.comparisons as f64);
        l.add("speccross.replay_admit_ns_total", r.admit_ns as f64);
    }
}

/// Checks a finished region against the oracle.
fn verdict(result: &Result<RegionReport, String>, checksum: u64, oracle: u64) -> bool {
    match result {
        Ok(_) => checksum == oracle,
        Err(e) => {
            eprintln!("region failed: {e}");
            false
        }
    }
}

impl Case for KernelCase {
    fn name(&self) -> &str {
        self.name
    }

    fn techs(&self) -> Vec<Tech> {
        let mut t = vec![Tech::Seq];
        if self.barrier {
            t.push(Tech::Barrier);
        }
        t.push(Tech::Par);
        if self.plan {
            t.push(Tech::Plan);
        }
        t
    }

    fn run(&self, tech: Tech) -> Outcome {
        let traced = probe::on();
        let mut out = Outcome::default();
        if tech == Tech::Plan {
            let want = self.distance();
            let span = traced.then(|| probe::open("plan", self.name));
            let start = Instant::now();
            let got = profile_distance(self.kernel.model(), PROFILE_WINDOW).min_distance;
            let elapsed = ms(start.elapsed());
            out.region_ms.push(elapsed);
            if let Some(span) = span {
                span.close();
                out.layers.add("speccross.profile_ms", elapsed);
            }
            // Plan work mutates nothing; its check is that the profile
            // repeats.
            out.regions = 1;
            out.failed = u64::from(got != want);
            return out;
        }
        let mut total = 0.0;
        for _ in 0..self.repeats {
            let (ms, ok) = self.region(tech, &mut out.layers);
            total += ms;
            out.regions += 1;
            out.failed += u64::from(!ok);
        }
        out.region_ms.push(total / self.repeats as f64);
        if traced && tech == Tech::Par && self.par == Par::SpecCross {
            self.replay(&mut out.layers);
        }
        out
    }

    fn describe(&self) -> String {
        let m = self.kernel.model();
        format!(
            "{}: {} invocations, {} tasks, {} cost units, {} cells; par={}{}, barrier={}, plan={}",
            self.name,
            m.num_invocations(),
            m.total_iterations(),
            m.total_work_ns(),
            m.address_space().unwrap_or(0),
            match self.par {
                Par::SpecCross => "SPECCROSS",
                Par::Domore => "DOMORE",
            },
            match self.distance.get() {
                Some(d) => format!(" (spec_distance {d:?})"),
                None => String::new(),
            },
            if self.barrier {
                "yes"
            } else {
                "no (Spec-DOALL)"
            },
            if self.plan {
                "profile_distance"
            } else {
                "none"
            },
        )
    }
}

/// Builds a registry workload's cases: models from `seed`, kernels, oracle
/// checksums and, for `compute`, the region server's pool.
pub fn registry_cases(workload: &str, seed: u64) -> Vec<KernelCase> {
    let fig = |name| model(name, Scale::Figure, seed);
    match workload {
        "spec-checker" => vec![
            KernelCase::new(
                "SYMM",
                Box::new(Prefix::new(fig("SYMM"), SYMM_PREFIX)),
                Par::SpecCross,
                None,
                SYMM_REPEATS,
            ),
            KernelCase::new("LLUBENCH", fig("LLUBENCH"), Par::SpecCross, None, 1),
        ],
        "domore-sched" => ["JACOBI", "CG", "ECLAT"]
            .into_iter()
            .map(|n| KernelCase::new(n, fig(n), Par::Domore, None, 1))
            .collect(),
        "compute" => {
            let mut cases = vec![
                KernelCase::new("FDTD", fig("FDTD"), Par::SpecCross, None, 1),
                KernelCase::new("BLACKSCHOLES", fig("BLACKSCHOLES"), Par::Domore, None, 1),
            ];
            // Created last, so its idle workers' spinning does not compete
            // with the builds above. A SPECCROSS region takes workers + one
            // checker slot.
            let server = RegionServer::new(WORKERS + 1);
            for case in &mut cases {
                case.server = Some(server.clone());
            }
            cases
        }
        other => panic!("{other} is not a registry workload"),
    }
}

#[cfg(test)]
impl KernelCase {
    /// A Test-scale case (SYMM under SPECCROSS or CG under DOMORE, two
    /// regions per activity).
    pub fn small(par: Par) -> Self {
        let name = if par == Par::SpecCross { "SYMM" } else { "CG" };
        KernelCase::new(name, model(name, Scale::Test, 11), par, None, 2)
    }

    /// The same case checked against an oracle no region can match.
    pub fn with_wrong_oracle(mut self) -> Self {
        self.oracle ^= 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_technique_matches_the_oracle() {
        for par in [Par::SpecCross, Par::Domore] {
            let case = KernelCase::small(par);
            for tech in case.techs() {
                let out = case.run(tech);
                let regions = if tech == Tech::Plan { 1 } else { 2 };
                assert_eq!(
                    (out.regions, out.failed),
                    (regions, 0),
                    "{} {tech:?}",
                    case.name()
                );
            }
        }
    }

    #[test]
    fn a_wrong_checksum_counts_as_a_failure() {
        for par in [Par::SpecCross, Par::Domore] {
            let case = KernelCase::small(par).with_wrong_oracle();
            for tech in [Tech::Seq, Tech::Barrier, Tech::Par] {
                let out = case.run(tech);
                assert_eq!(
                    (out.regions, out.failed),
                    (2, 2),
                    "{} {tech:?}",
                    case.name()
                );
            }
        }
    }

    #[test]
    fn spec_doall_kernels_get_no_barrier_baseline() {
        let eclat = KernelCase::new(
            "ECLAT",
            model("ECLAT", Scale::Test, 1),
            Par::Domore,
            None,
            1,
        );
        assert!(!eclat.techs().contains(&Tech::Barrier));
        assert!(!eclat.techs().contains(&Tech::Plan));
        assert!(KernelCase::small(Par::Domore)
            .techs()
            .contains(&Tech::Barrier));
    }
}
