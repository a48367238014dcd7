//! # clasp-text — the `.clasp` loop-description format
//!
//! Small line-oriented text formats for writing loop dependence graphs
//! and machine descriptions
//! by hand (see [`parse_loop`] for the grammar) and printing them back
//! ([`write_loop`]). Used by the `clasp` CLI:
//!
//! ```text
//! loop dot_product
//! op x   load  "x[i]"
//! op m   fmul
//! op acc fadd
//! dep x -> m
//! dep m -> acc
//! dep acc -> acc @1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod limits;
mod machine;
mod parse;
mod write;

pub use machine::{
    parse_machine, write_machine, write_machine_into, write_machine_named_into, MachineParseError,
};
pub use parse::{parse_loop, ParseError, ParseErrorKind};
pub use write::{write_loop, write_loop_into};
