//! The `auto-pir` workload: seeded PIR regions planned by the automatic
//! driver and run under its choice of technique.

use std::time::Instant;

use crossinvoc::{AutoParallelizer, Decision, RegionReport, Strategy};
use crossinvoc_domore::runtime::DomoreConfig;
use crossinvoc_fuzz::gen::{generate, FuzzCase, GenParams};
use crossinvoc_pir::interp::{Interp, Memory};
use crossinvoc_pir::ir::StmtId;
use crossinvoc_pir::pdg::{ManifestProfile, Pdg};
use crossinvoc_pir::transform::{DomorePlan, SpecCrossPlan};
use crossinvoc_runtime::hash::splitmix64;
use crossinvoc_runtime::pool::{RegionExecutor, ScopedExecutor};
use crossinvoc_runtime::signature::RangeSignature;
use crossinvoc_speccross::engine::SpecConfig;

use crate::cases::{add_region_layers, ms, Case, Layers, Outcome, Tech, WORKERS};
use crate::probe::{self, TimedExecutor};

/// The driver's dependence-distance window (`AutoParallelizer`'s default).
const DRIVER_WINDOW: u32 = 4;

/// Generator bounds: trip counts up to 64x64, faults off.
fn params() -> GenParams {
    GenParams {
        max_outer: 64,
        max_tasks: 64,
        max_workers: WORKERS as u64,
        fault_percent: 0,
    }
}

/// Which transformation plans a region admits; decides its stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stratum {
    /// `SpecCrossPlan::build` succeeds (DOALL inner loops).
    SpecPlan,
    /// Only `DomorePlan::build` succeeds.
    DomorePlan,
    /// Neither plan builds.
    Neither,
}

/// Interpreter memory accesses admitted per stratum. Regions are drawn in
/// seed order and a region joins its stratum while the stratum is below
/// budget, so every seed runs about the same work in each stratum (about
/// 430 regions in all). The budgets split 1.44M accesses in the
/// generator's own proportions: over seeds 0..200 its regions' accesses
/// fall 50.7% / 24.6% / 24.7% into the three strata (checked by
/// `budgets_follow_the_generators_mix`). Drawn without strata, each seed's
/// SPECCROSS-plan share ranged 0.48–0.53 between quartiles, and
/// `barrier_ms`, which only that stratum runs, spread 0.26 over five
/// seeds.
const BUDGET: [(Stratum, u64); 3] = [
    (Stratum::SpecPlan, 720_000),
    (Stratum::DomorePlan, 360_000),
    (Stratum::Neither, 360_000),
];

/// Upper bound on generated candidates, far above the ~400 needed.
const MAX_CANDIDATES: u64 = 20_000;

/// Generated programs and their sequential oracle images.
pub struct PirSetup {
    cases: Vec<(FuzzCase, StmtId)>,
    oracles: Vec<Vec<i64>>,
}

impl PirSetup {
    /// Generates regions from `seed` until every stratum's budget is full,
    /// running each once through the interpreter for its oracle image and
    /// access count.
    pub fn new(seed: u64) -> Self {
        let mut used = [0u64; 3];
        let (mut cases, mut oracles) = (Vec::new(), Vec::new());
        for i in 0..MAX_CANDIDATES {
            if used.iter().zip(BUDGET).all(|(u, (_, b))| *u >= b) {
                break;
            }
            let case = generate(
                splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                &params(),
            );
            let Some(outer) = case.outer() else { continue };
            let slot = BUDGET
                .iter()
                .position(|(s, _)| *s == stratum(&case, outer))
                .expect("every stratum has a budget");
            if used[slot] >= BUDGET[slot].1 {
                continue;
            }
            let mut mem = Memory::zeroed(&case.program);
            let mut accesses = 0u64;
            Interp::new(&case.program).run_traced(&mut mem, &mut |_| accesses += 1);
            used[slot] += accesses;
            oracles.push(mem.snapshot());
            cases.push((case, outer));
        }
        Self { cases, oracles }
    }
}

fn stratum(case: &FuzzCase, outer: StmtId) -> Stratum {
    if SpecCrossPlan::build(&case.program, outer).is_ok() {
        Stratum::SpecPlan
    } else if case
        .inner()
        .is_some_and(|inner| DomorePlan::build(&case.program, outer, inner).is_ok())
    {
        Stratum::DomorePlan
    } else {
        Stratum::Neither
    }
}

/// Plans made once before timing starts, borrowed from the setup.
struct Planned<'a> {
    case: &'a FuzzCase,
    decision: Decision<'a>,
    spec: Option<SpecCrossPlan<'a>>,
    domore: Option<DomorePlan<'a>>,
}

/// The workload's regions with (`doall`) or without a SPECCROSS region
/// plan, as one case. Only the first kind has a barrier baseline.
pub struct PirCase<'a> {
    name: &'static str,
    setup: &'a PirSetup,
    /// Indices into the setup's regions, with their plans.
    planned: Vec<(usize, Planned<'a>)>,
}

impl<'a> PirCase<'a> {
    /// Plans the regions of one kind (untimed preparation for the
    /// seq/barrier/par activities; plan time itself is measured by
    /// [`Tech::Plan`]).
    pub fn new(setup: &'a PirSetup, doall: bool) -> Self {
        let planned = setup
            .cases
            .iter()
            .enumerate()
            .filter_map(|(i, (c, outer))| {
                let spec = SpecCrossPlan::build(&c.program, *outer).ok();
                if spec.is_some() != doall {
                    return None;
                }
                let decision = AutoParallelizer::new(WORKERS)
                    .plan(&c.program, *outer)
                    .expect("the generator's region loop is top-level");
                let domore = match decision.strategy() {
                    Strategy::Domore => c
                        .inner()
                        .and_then(|inner| DomorePlan::build(&c.program, *outer, inner).ok()),
                    _ => None,
                };
                let planned = Planned {
                    case: c,
                    decision,
                    spec,
                    domore,
                };
                Some((i, planned))
            })
            .collect();
        let name = if doall { "PIR-DOALL" } else { "PIR-OTHER" };
        Self {
            name,
            setup,
            planned,
        }
    }

    /// The driver's planning phases, each timed through its public entry
    /// point, following `AutoParallelizer::plan`'s control flow. Returns the
    /// strategy the phases lead to.
    fn plan_phases(&self, p: &Planned<'_>, l: &mut Layers) -> Strategy {
        let program = &p.case.program;
        let outer = p.case.outer().expect("checked at setup");
        let mut phase = |name: &'static str, metric: &'static str, f: &mut dyn FnMut()| {
            let span = probe::open(name, "");
            f();
            l.add(metric, ms(span.close()));
        };
        phase("manifest_profile", "pir.manifest_profile_ms", &mut || {
            let mut training = Memory::zeroed(program);
            std::hint::black_box(
                ManifestProfile::collect(program, outer, &mut training).max_rate(),
            );
        });
        // Built inside both plan builders; timed alone for its own cost.
        phase("pdg_build", "pir.pdg_build_ms", &mut || {
            std::hint::black_box(Pdg::build(program, outer).edges().len());
        });
        let mut spec = None;
        phase("spec_plan_build", "pir.spec_plan_build_ms", &mut || {
            spec = SpecCrossPlan::build(program, outer).ok();
        });
        let mut speculate = false;
        if let Some(plan) = &spec {
            phase("distance_profile", "pir.distance_profile_ms", &mut || {
                let mut training = Memory::zeroed(program);
                let d = plan.profile(&mut training, DRIVER_WINDOW).min_distance;
                speculate = d.is_none_or(|d| d >= WORKERS as u64);
            });
        }
        if speculate {
            return Strategy::SpecCross;
        }
        let mut domore = false;
        if let Some(inner) = p.case.inner() {
            phase("domore_plan_build", "pir.domore_plan_build_ms", &mut || {
                domore = DomorePlan::build(program, outer, inner).is_ok();
            });
        }
        match (domore, spec.is_some()) {
            (true, _) => Strategy::Domore,
            (false, true) => Strategy::Barrier,
            (false, false) => Strategy::Sequential,
        }
    }

    /// Runs region `p` under its decision. Untraced rounds call
    /// `Decision::execute`; traced rounds follow it step by step through the
    /// plans' `_on` entry points, so gang passes go through `exec`.
    fn run_decision(
        &self,
        p: &Planned<'_>,
        mem: &mut Memory,
        exec: &dyn RegionExecutor,
    ) -> Result<Option<RegionReport>, String> {
        if !probe::on() {
            return p
                .decision
                .execute(mem)
                .map(|_| None)
                .map_err(|e| e.to_string());
        }
        let spec_config = SpecConfig::with_workers(WORKERS);
        match (p.decision.strategy(), &p.spec, &p.domore) {
            (Strategy::SpecCross, Some(plan), _) => plan
                .execute_sig_on::<RangeSignature>(
                    mem,
                    spec_config.spec_distance(p.decision.spec_distance()),
                    exec,
                )
                .map(|r| Some(RegionReport::Spec(r)))
                .map_err(|e| e.to_string()),
            (Strategy::Domore, _, Some(plan)) => plan
                .execute_with_on(mem, DomoreConfig::with_workers(WORKERS), exec)
                .map(|r| Some(RegionReport::Domore(r)))
                .map_err(|e| e.to_string()),
            (Strategy::Barrier, Some(plan), _) => plan
                .execute_with_barriers_on(mem, spec_config, exec)
                .map(|r| Some(RegionReport::Spec(r)))
                .map_err(|e| e.to_string()),
            (Strategy::Sequential, _, _) => {
                Interp::new(&p.case.program).run(mem);
                Ok(None)
            }
            (s, _, _) => Err(format!("no plan for strategy {s}")),
        }
    }
}

fn strategy_metric(s: Strategy) -> &'static str {
    match s {
        Strategy::SpecCross => "core.driver.speccross",
        Strategy::Domore => "core.driver.domore",
        Strategy::Barrier => "core.driver.barrier",
        Strategy::Sequential => "core.driver.sequential",
    }
}

impl Case for PirCase<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn techs(&self) -> Vec<Tech> {
        if self.planned.first().is_some_and(|(_, p)| p.spec.is_some()) {
            vec![Tech::Seq, Tech::Barrier, Tech::Par, Tech::Plan]
        } else {
            vec![Tech::Seq, Tech::Par, Tech::Plan]
        }
    }

    fn run(&self, tech: Tech) -> Outcome {
        let traced = probe::on();
        let timed = TimedExecutor::new(&ScopedExecutor);
        let exec: &dyn RegionExecutor = if traced { &timed } else { &ScopedExecutor };
        let mut out = Outcome::default();
        for (i, p) in &self.planned {
            let i = *i;
            let program = &p.case.program;
            let oracle = &self.setup.oracles[i];
            if tech == Tech::Plan {
                let outer = p.case.outer().expect("checked at setup");
                let region = traced.then(|| probe::region_begin(format!("plan pir{i}")));
                let start = Instant::now();
                let strategy = if traced {
                    Some(self.plan_phases(p, &mut out.layers))
                } else {
                    AutoParallelizer::new(WORKERS)
                        .plan(program, outer)
                        .ok()
                        .map(|d| d.strategy())
                };
                out.region_ms.push(ms(start.elapsed()));
                region.map(probe::region_end);
                out.regions += 1;
                out.failed += u64::from(strategy != Some(p.decision.strategy()));
                continue;
            }
            let mut mem = Memory::zeroed(program);
            let region = traced.then(|| probe::region_begin(format!("{} pir{i}", tech.metric())));
            let start = Instant::now();
            let result: Result<Option<RegionReport>, String> = match tech {
                Tech::Seq => {
                    Interp::new(program).run(&mut mem);
                    Ok(None)
                }
                Tech::Barrier => p
                    .spec
                    .as_ref()
                    .expect("only PIR-DOALL runs barriers")
                    .execute_with_barriers_on(&mut mem, SpecConfig::with_workers(WORKERS), exec)
                    .map(|r| Some(RegionReport::Spec(r)))
                    .map_err(|e| e.to_string()),
                Tech::Par => self.run_decision(p, &mut mem, exec),
                Tech::Plan => unreachable!("handled above"),
            };
            out.region_ms.push(ms(start.elapsed()));
            let totals = region.map(probe::region_end);
            let ok = match &result {
                Ok(_) => mem.snapshot() == *oracle,
                Err(e) => {
                    eprintln!("pir{i} {:?} failed: {e}", tech);
                    false
                }
            };
            out.regions += 1;
            out.failed += u64::from(!ok);
            if let (Some(totals), Ok(Some(report))) = (totals, &result) {
                add_region_layers(
                    &mut out.layers,
                    report,
                    tech == Tech::Barrier,
                    &totals,
                    None,
                );
            }
            if traced && tech == Tech::Par {
                out.layers.add(strategy_metric(p.decision.strategy()), 1.0);
            }
        }
        out
    }

    fn describe(&self) -> String {
        let mut counts = [0usize; 4];
        let mut tasks = 0u64;
        for (_, p) in &self.planned {
            counts[match p.decision.strategy() {
                Strategy::SpecCross => 0,
                Strategy::Domore => 1,
                Strategy::Barrier => 2,
                Strategy::Sequential => 3,
            }] += 1;
            if let Some(plan) = &p.spec {
                let mut mem = Memory::zeroed(&p.case.program);
                tasks += plan
                    .record_region(&mut mem)
                    .iter()
                    .map(|e| e.len() as u64)
                    .sum::<u64>();
            }
        }
        format!(
            "{}: {} regions ({} SPECCROSS region tasks); driver chose {} SPECCROSS, {} DOMORE, {} barrier, {} sequential",
            self.name,
            self.planned.len(),
            tasks,
            counts[0],
            counts[1],
            counts[2],
            counts[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_follow_the_generators_mix() {
        // Accesses per stratum of the first 430 candidates of 40 seeds.
        let mut used = [0u64; 3];
        for seed in 0..40u64 {
            for i in 0..430u64 {
                let case = generate(
                    splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    &params(),
                );
                let Some(outer) = case.outer() else { continue };
                let slot = BUDGET
                    .iter()
                    .position(|(s, _)| *s == stratum(&case, outer))
                    .expect("every stratum has a budget");
                let mut mem = Memory::zeroed(&case.program);
                Interp::new(&case.program).run_traced(&mut mem, &mut |_| used[slot] += 1);
            }
        }
        let total: u64 = used.iter().sum();
        let budget: u64 = BUDGET.iter().map(|(_, b)| b).sum();
        for (u, (s, b)) in used.iter().zip(BUDGET) {
            let (natural, share) = (*u as f64 / total as f64, b as f64 / budget as f64);
            assert!(
                (natural - share).abs() < 0.02,
                "{s:?}: generator {natural:.3}, budget {share:.3}"
            );
        }
    }
}
