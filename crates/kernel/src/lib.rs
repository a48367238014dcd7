//! # clasp-kernel — software-pipelined kernel emission and verification
//!
//! The back end of the CLASP workspace: turns a cluster-annotated modulo
//! schedule into an executable software-pipelined loop and proves it
//! correct.
//!
//! - [`lifetimes`] / [`max_live`] / [`register_requirement`]: value live
//!   ranges and register pressure of a schedule;
//! - [`MveInfo`]: modulo variable expansion (Lam 1988) — the kernel
//!   unroll factor and per-value register rotation;
//! - [`emit_program`] / [`kernel_table`]: the cycle-by-cycle VLIW program
//!   (prologue, unrolled kernel, epilogue) with resolved per-cluster
//!   register names;
//! - [`stage_schedule`]: the stage-scheduling register-pressure pass
//!   (Eichenberger & Davidson 1995);
//! - [`verify_pipelined`]: a functional simulator that executes the
//!   emitted program on symbolic values — cluster register files, write
//!   latencies, copy transport — and compares every store's stream
//!   against sequential execution.
//!
//! # Examples
//!
//! ```
//! use clasp_ddg::{Ddg, OpKind};
//! use clasp_machine::presets;
//! use clasp_sched::{schedule_unified, unified_map, SchedulerConfig};
//! use clasp_kernel::{max_live, verify_pipelined, MveInfo};
//!
//! let mut g = Ddg::new("sum");
//! let a = g.add(OpKind::Load);
//! let acc = g.add(OpKind::FpAdd);
//! let st = g.add(OpKind::Store);
//! g.add_dep(a, acc);
//! g.add_dep_carried(acc, acc, 1);
//! g.add_dep(acc, st);
//!
//! let m = presets::unified_gp(4);
//! let sched = schedule_unified(&g, &m, SchedulerConfig::default()).unwrap();
//! let map = unified_map(&g, &m);
//! assert!(max_live(&g, &sched) >= 2);
//! verify_pipelined(&g, &map, &sched, 16).unwrap(); // pipelined == sequential
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod emit;
mod lifetime;
mod mve;
mod rrf;
mod sim;
mod stage;

pub use emit::{emit_program, emit_program_with, kernel_table, Bundle, Program, Reg, SlotOp};
pub use lifetime::{lifetimes, max_live, register_requirement, Lifetime};
pub use mve::MveInfo;
pub use rrf::{RegisterModel, RrfInfo};
pub use sim::{
    reference_stream, run_program, verify_pipelined, verify_pipelined_with, verify_program,
    SimError, StoreEvent,
};
pub use stage::{stage_schedule, StageResult};
