//! # CLASP — Cluster Assignment for modulo Scheduling of Pipelined loops
//!
//! A from-scratch Rust reproduction of Nystrom & Eichenberger, *"Effective
//! Cluster Assignment for Modulo Scheduling"* (MICRO-31, 1998): a
//! pre-modulo-scheduling pass that maps loop operations onto the clusters
//! of a clustered VLIW machine, inserts explicit inter-cluster copy
//! operations, and hands any traditional modulo scheduler a graph it can
//! schedule with no knowledge of clustering.
//!
//! This facade crate re-exports the workspace and hosts the staged
//! compile driver: [`compile_full`] runs assignment + modulo scheduling
//! (the paper's Figure 5 escalation), stage scheduling, register
//! modelling (MVE or rotating), kernel emission, and functional
//! verification as explicit stages, returning a [`CompiledArtifact`]
//! with a per-stage [`CompileReport`]. The lighter [`compile_loop`]
//! stops after phase 2 for callers that only need an II.
//!
//! | crate | contents |
//! |-------|----------|
//! | [`ddg`] | dependence graphs, SCCs, RecMII, swing ordering |
//! | [`machine`] | clustered machine models, buses/grids, ResMII |
//! | [`mrt`] | counting + time-indexed modulo reservation tables |
//! | [`core`] | the cluster assignment algorithm (the contribution) |
//! | [`sched`] | Rau's iterative modulo scheduler (phase 2) |
//! | [`loopgen`] | the synthetic loop corpus and Livermore kernels |
//! | [`kernel`] | lifetimes, MVE, kernel emission, functional simulation |
//! | [`obs`] | spans, deterministic counters, Chrome trace output |
//!
//! # Quickstart
//!
//! ```
//! use clasp::{compile_loop, unified_ii, PipelineConfig};
//! use clasp_ddg::{Ddg, OpKind};
//! use clasp_machine::presets;
//!
//! // sum += x[i] * y[i]
//! let mut g = Ddg::new("dot");
//! let x = g.add(OpKind::Load);
//! let y = g.add(OpKind::Load);
//! let m = g.add(OpKind::FpMult);
//! let s = g.add(OpKind::FpAdd);
//! g.add_dep(x, m);
//! g.add_dep(y, m);
//! g.add_dep(m, s);
//! g.add_dep_carried(s, s, 1);
//!
//! let machine = presets::two_cluster_gp(2, 1);
//! let compiled = compile_loop(&g, &machine, PipelineConfig::default())?;
//! let baseline = unified_ii(&g, &machine, Default::default()).unwrap();
//! assert_eq!(compiled.ii(), baseline); // communication fully hidden
//! # Ok::<(), clasp::PipelineError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
mod driver;
pub mod load;
mod pipeline;
pub mod serve;
pub mod service;
pub mod strata;

pub use codec::{CodecError, ARTIFACT_FORMAT};
pub use driver::{
    compile_full, compile_full_observed, oracle_pipeline, BackendKind, CompileReport,
    CompileRequest, CompiledArtifact, IiStep, RegisterModelKind, RegisterStats, StageTimings,
    MAX_ITERATIONS,
};
pub use pipeline::{
    compare_with_unified, compile_loop, compile_loop_post, unified_ii, CompiledLoop,
    PipelineConfig, PipelineError,
};
pub use service::{
    CachedCompile, CompileCache, CompileService, ServiceConfig, ServiceError, ServiceReply,
    ServiceRequest,
};

pub use clasp_core as core;
pub use clasp_ddg as ddg;
pub use clasp_exact as exact;
pub use clasp_kernel as kernel;
pub use clasp_loopgen as loopgen;
pub use clasp_machine as machine;
pub use clasp_mrt as mrt;
pub use clasp_obs as obs;
pub use clasp_oracle as oracle;
pub use clasp_sched as sched;
