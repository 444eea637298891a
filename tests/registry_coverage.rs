//! Registry-wide coverage: every Table 5.1 model is internally consistent,
//! profiles deterministically, simulates with conserved task counts, and
//! (for the SPECCROSS set) runs correctly on the real engine under Bloom
//! signatures as well as the default ranges.

use crossinvoc_runtime::signature::AccessKind;
use crossinvoc_runtime::BloomSignature;
use crossinvoc_sim::prelude::*;
use crossinvoc_speccross::prelude::*;
use crossinvoc_speccross::SpecCrossEngine;
use crossinvoc_workloads::kernel::{profile_distance, AccessKernel};
use crossinvoc_workloads::{registry, Scale};

/// Models must declare address spaces that actually bound their accesses.
#[test]
fn declared_address_spaces_bound_all_accesses() {
    for info in registry() {
        let model = info.model(Scale::Test);
        let space = model.address_space().expect("all models declare space");
        let mut pairs = Vec::new();
        for inv in 0..model.num_invocations() {
            for iter in 0..model.num_iterations(inv) {
                pairs.clear();
                model.accesses(inv, iter, &mut pairs);
                for &(addr, _) in &pairs {
                    assert!(
                        addr < space,
                        "{}: address {addr} outside space {space}",
                        info.name
                    );
                }
            }
        }
    }
}

/// Same-invocation tasks never write-conflict on the SPECCROSS set: the
/// engine's precondition that inner loops are barrier-free parallel
/// (checked exhaustively at test scale). The Spec-DOALL programs (ECLAT,
/// BLACKSCHOLES) are exempt — their rare intra-invocation conflicts are
/// exactly why Table 5.1 assigns them Spec-DOALL and keeps them off the
/// SPECCROSS list, which a companion assertion pins down.
#[test]
fn same_invocation_writes_are_conflict_free() {
    use crossinvoc_workloads::InnerPlan;
    for info in registry() {
        if info.inner_plan == InnerPlan::SpecDoall {
            assert!(
                !info.speccross,
                "{}: Spec-DOALL inner loops cannot feed SPECCROSS",
                info.name
            );
            continue;
        }
        if !info.speccross {
            continue;
        }
        let model = info.model(Scale::Test);
        for inv in 0..model.num_invocations() {
            let mut writers: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            let mut pairs = Vec::new();
            for iter in 0..model.num_iterations(inv) {
                pairs.clear();
                model.accesses(inv, iter, &mut pairs);
                for &(addr, kind) in &pairs {
                    if kind == AccessKind::Write {
                        if let Some(&other) = writers.get(&addr) {
                            panic!(
                                "{}: invocation {inv} tasks {other} and {iter} both write {addr}",
                                info.name
                            );
                        }
                        writers.insert(addr, iter);
                    }
                }
            }
        }
    }
}

/// Simulated executors conserve the task count across techniques.
#[test]
fn simulated_task_counts_are_conserved() {
    let cost = CostModel::default();
    for info in registry() {
        let model = info.model(Scale::Test);
        let total = model.total_iterations();
        let seq = sequential(model.as_ref(), &cost);
        assert_eq!(seq.stats.tasks, total, "{} sequential", info.name);
        let bar = barrier(model.as_ref(), 4, &cost);
        assert_eq!(bar.stats.tasks, total, "{} barrier", info.name);
        let distance = profile_distance(model.as_ref(), 6).min_distance;
        let params = SpecSimParams::with_threads(4).spec_distance(distance);
        let spec = speccross(model.as_ref(), &params, &cost);
        assert!(
            spec.stats.tasks >= total,
            "{} speccross lost tasks",
            info.name
        );
        if spec.stats.misspeculations == 0 {
            assert_eq!(spec.stats.tasks, total, "{} speccross", info.name);
        }
    }
}

/// The real engine under Bloom signatures reproduces sequential results on
/// every SPECCROSS benchmark (false positives may trigger recovery; the
/// answer must survive it).
#[test]
fn bloom_signatures_preserve_results_on_the_speccross_set() {
    for info in registry().into_iter().filter(|b| b.speccross) {
        let model = info.model(Scale::Test);
        let distance = profile_distance(model.as_ref(), 6).min_distance;
        let kernel = AccessKernel::from_model(info.model(Scale::Test));
        let expected = kernel.sequential_checksum();
        SpecCrossEngine::<BloomSignature>::new(SpecConfig::with_workers(2).spec_distance(distance))
            .execute(&kernel)
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        assert_eq!(kernel.checksum(), expected, "{} diverged", info.name);
    }
}

/// Profiling the same model twice gives identical reports (determinism of
/// the whole input-generation + profiling pipeline).
#[test]
fn profiles_are_deterministic_across_reconstruction() {
    for info in registry() {
        let a = profile_distance(info.model(Scale::Test).as_ref(), 6);
        let b = profile_distance(info.model(Scale::Test).as_ref(), 6);
        assert_eq!(a.min_distance, b.min_distance, "{}", info.name);
        assert_eq!(a.conflicts, b.conflicts, "{}", info.name);
        assert_eq!(a.tasks, b.tasks, "{}", info.name);
    }
}

/// Fig. 5.1's scheduler bound: FLUIDANIMATE-1's scheduler spends 21.5% of
/// a worker's time per iteration (Table 5.2), so a single scheduler thread
/// caps its simulated DOMORE speedup at 1 / 0.215 ≈ 4.65× however many
/// workers it feeds (§5.1).
#[test]
fn fluidanimate_domore_speedup_respects_the_scheduler_bound() {
    let pair =
        crossinvoc_bench::domore_pair(&registry::by_name("FLUIDANIMATE-1"), Scale::Figure, 24);
    let bound = 1.0 / 0.215;
    assert!(
        pair.technique <= bound,
        "FLUIDANIMATE-1 DOMORE speedup {:.2}x at 24 threads exceeds the scheduler bound {bound:.2}x",
        pair.technique
    );
}
