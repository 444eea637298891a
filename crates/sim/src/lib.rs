//! Deterministic discrete-event simulation of parallel execution plans.
//!
//! The thesis evaluates DOMORE and SPECCROSS by wall-clock scaling on a
//! 24-core Xeon. This reproduction targets commodity CI hardware where real
//! scaling is unobservable, so — per substitution S2 of `DESIGN.md` — the
//! Chapter 5 figures are regenerated by *simulating* each execution plan:
//! per-thread clocks advance by workload-defined task costs, and the same
//! decision logic the real runtimes use (DOMORE's shadow-memory
//! synchronization conditions, SPECCROSS's signature conflicts and
//! speculative-range gate) determines who waits on whom. The simulator is
//! pure and deterministic: identical inputs give identical timelines.
//!
//! Executors, one per execution plan the evaluation compares:
//!
//! * [`sequential`] — single-thread baseline (the denominator of every
//!   speedup the thesis reports).
//! * [`mod@barrier`] — parallel inner loops with a non-speculative barrier after
//!   every invocation (the `pthread barrier` series of Figs. 5.1/5.2, with
//!   the idle accounting of Fig. 4.3).
//! * [`pipeline`] — the cyclic-dependence baselines DOACROSS and DSWP
//!   (Fig. 2.5), for the Chapter 2 background comparisons.
//! * [`inspector`] — the Inspector-Executor baseline (§2.2/§3.5.3), whose
//!   serialized inspection DOMORE's overlapped scheduling improves on.
//! * [`mod@domore`] — scheduler/worker DOMORE (Fig. 3.2(c)), driven by the real
//!   [`crossinvoc_domore::SchedulerLogic`]; also the duplicated-scheduler
//!   variant of §3.4.
//! * [`mod@speccross`] — speculative barriers with checker, checkpointing and
//!   misspeculation recovery (§4.2), driven by the real signature types and
//!   the real overlap semantics.
//!
//! # Example
//!
//! ```
//! use crossinvoc_sim::prelude::*;
//!
//! // 50 invocations of 64 equal-cost independent iterations.
//! let w = UniformWorkload::independent(50, 64, 10_000);
//! let cost = CostModel::default();
//! let seq = sequential(&w, &cost);
//! let par = barrier(&w, 8, &cost);
//! let speedup = seq.total_ns as f64 / par.total_ns as f64;
//! assert!(speedup > 4.0, "8 threads on independent work: {speedup}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod barrier;
pub mod cost;
pub mod domore;
pub mod inspector;
pub mod pipeline;
pub mod result;
pub mod seq;
pub mod server;
pub mod speccross;
mod tracing;
pub mod workload;

pub use barrier::{barrier, barrier_in_region, barrier_traced};
pub use cost::CostModel;
pub use domore::{domore, domore_barriered, domore_duplicated, domore_in_region, domore_traced};
pub use inspector::inspector_executor;
pub use pipeline::{doacross, dswp, StagedLoop};
pub use result::SimResult;
pub use seq::sequential;
pub use server::{region_server, region_server_telemetry, RegionSpec, ServerSimResult};
pub use speccross::{speccross, SpecSimParams};
pub use workload::{SimWorkload, UniformWorkload};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::barrier::{barrier, barrier_in_region, barrier_traced};
    pub use crate::cost::CostModel;
    pub use crate::domore::{
        domore, domore_barriered, domore_duplicated, domore_in_region, domore_traced,
    };
    pub use crate::inspector::inspector_executor;
    pub use crate::pipeline::{doacross, dswp, StagedLoop};
    pub use crate::result::SimResult;
    pub use crate::seq::sequential;
    pub use crate::server::{region_server, region_server_telemetry, RegionSpec, ServerSimResult};
    pub use crate::speccross::{speccross, SpecSimParams};
    pub use crate::workload::{SimWorkload, UniformWorkload};
}
