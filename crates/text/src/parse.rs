//! Parser for the `.clasp` loop-description format.
//!
//! A line-oriented format for writing loop dependence graphs by hand:
//!
//! ```text
//! # sum += x[i] * y[i]
//! loop dot_product
//!
//! op x   load  "x[i]"
//! op y   load
//! op m   fmul
//! op acc fadd
//! op s   store
//!
//! dep x -> m
//! dep y -> m
//! dep m -> acc
//! dep acc -> acc @1    # loop-carried, distance 1
//! dep acc -> s
//! ```
//!
//! Grammar, one statement per line (`#` starts a comment anywhere):
//!
//! - `loop <name>` — optional, names the graph (first statement only);
//! - `op <id> <kind> ["label"]` — declares an operation; kinds: `alu`,
//!   `shift`, `br`, `load`/`ld`, `store`/`st`, `fadd`, `fmul`, `fdiv`,
//!   `fsqrt`;
//! - `dep <src> -> <dst> [@<distance>] [!<latency>]` — a dependence; the
//!   default latency is the producer's result latency, the default
//!   distance 0.
//!
//! A loop has at most [`MAX_NODES`] operations and [`MAX_EDGES`]
//! dependences, each of latency at most [`MAX_LATENCY`] and distance at
//! most [`MAX_DISTANCE`]; a description over any limit is an error.

use crate::limits::{MAX_DISTANCE, MAX_EDGES, MAX_LATENCY, MAX_NODES};
use clasp_ddg::{Ddg, DepEdge, NodeId, OpKind};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending statement.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The kinds of parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The statement keyword is not `loop`, `op` or `dep`.
    UnknownStatement(String),
    /// An `op` line without id and kind, or a malformed `dep` line.
    Malformed(&'static str),
    /// The operation kind is not recognized.
    UnknownKind(String),
    /// An operation id was declared twice.
    DuplicateOp(String),
    /// A `dep` references an undeclared operation id.
    UnknownOp(String),
    /// A numeric field did not parse.
    BadNumber(String),
    /// The finished graph fails validation (zero-distance cycle).
    InvalidGraph(String),
    /// A count or value exceeds its limit in [`crate::limits`].
    OverLimit {
        /// What was counted or read.
        what: &'static str,
        /// The offending count or value.
        value: u64,
        /// The limit it exceeds.
        limit: u64,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::UnknownStatement(s) => write!(f, "unknown statement `{s}`"),
            ParseErrorKind::Malformed(what) => write!(f, "malformed {what} statement"),
            ParseErrorKind::UnknownKind(s) => write!(f, "unknown operation kind `{s}`"),
            ParseErrorKind::DuplicateOp(s) => write!(f, "operation `{s}` declared twice"),
            ParseErrorKind::UnknownOp(s) => write!(f, "undeclared operation `{s}`"),
            ParseErrorKind::BadNumber(s) => write!(f, "invalid number `{s}`"),
            ParseErrorKind::InvalidGraph(s) => write!(f, "invalid graph: {s}"),
            ParseErrorKind::OverLimit { what, value, limit } => {
                write!(f, "{what} {value} exceeds the limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// An [`ParseErrorKind::OverLimit`] error on `line` when `value` of
/// `what` exceeds `limit`.
fn within(line: usize, what: &'static str, value: u64, limit: u64) -> Result<(), ParseError> {
    if value > limit {
        return Err(ParseError {
            line,
            kind: ParseErrorKind::OverLimit { what, value, limit },
        });
    }
    Ok(())
}

/// The kind `token` names: a canonical [`OpKind::token`] or one of the
/// input-only aliases.
fn kind_of(token: &str) -> Option<OpKind> {
    OpKind::parse(token).or(match token {
        "shl" => Some(OpKind::Shift),
        "branch" => Some(OpKind::Branch),
        "ld" => Some(OpKind::Load),
        "st" => Some(OpKind::Store),
        "copy" => Some(OpKind::Copy),
        _ => None,
    })
}

/// Parse a `.clasp` loop description into a validated [`Ddg`].
///
/// # Errors
///
/// A [`ParseError`] with the offending line number.
///
/// # Examples
///
/// ```
/// let text = r#"
/// loop tiny
/// op a load
/// op b fadd
/// dep a -> b
/// dep b -> b @1
/// "#;
/// let g = clasp_text::parse_loop(text)?;
/// assert_eq!(g.name(), "tiny");
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(clasp_ddg::rec_mii(&g), 1);
/// # Ok::<(), clasp_text::ParseError>(())
/// ```
pub fn parse_loop(text: &str) -> Result<Ddg, ParseError> {
    let mut name = String::from("loop");
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    // Deps are buffered so `dep` may appear before `op` of a later node
    // never — ids must be declared first; but we buffer to build after
    // the name is known.
    let mut pending_ops: Vec<(usize, String, OpKind, Option<String>)> = Vec::new();
    let mut pending_deps: Vec<(usize, String, String, u32, Option<u32>)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next().expect("non-empty") {
            "loop" => {
                let n = tokens.next().ok_or(ParseError {
                    line: line_no,
                    kind: ParseErrorKind::Malformed("loop"),
                })?;
                name = n.to_string();
            }
            "op" => {
                let id = tokens
                    .next()
                    .ok_or(ParseError {
                        line: line_no,
                        kind: ParseErrorKind::Malformed("op"),
                    })?
                    .to_string();
                let kind_tok = tokens.next().ok_or(ParseError {
                    line: line_no,
                    kind: ParseErrorKind::Malformed("op"),
                })?;
                let kind = kind_of(kind_tok).ok_or_else(|| ParseError {
                    line: line_no,
                    kind: ParseErrorKind::UnknownKind(kind_tok.to_string()),
                })?;
                // Optional quoted label: everything between the first pair
                // of double quotes on the line.
                let label = match (line.find('"'), line.rfind('"')) {
                    (Some(a), Some(b)) if b > a => Some(line[a + 1..b].to_string()),
                    _ => None,
                };
                if pending_ops.iter().any(|(_, i, _, _)| *i == id) {
                    return Err(ParseError {
                        line: line_no,
                        kind: ParseErrorKind::DuplicateOp(id),
                    });
                }
                let count = pending_ops.len() as u64 + 1;
                within(line_no, "operation count", count, MAX_NODES as u64)?;
                pending_ops.push((line_no, id, kind, label));
            }
            "dep" => {
                // dep <src> -> <dst> [@d] [!lat]
                let src = tokens
                    .next()
                    .ok_or(ParseError {
                        line: line_no,
                        kind: ParseErrorKind::Malformed("dep"),
                    })?
                    .to_string();
                let arrow = tokens.next().ok_or(ParseError {
                    line: line_no,
                    kind: ParseErrorKind::Malformed("dep"),
                })?;
                if arrow != "->" {
                    return Err(ParseError {
                        line: line_no,
                        kind: ParseErrorKind::Malformed("dep"),
                    });
                }
                let dst = tokens
                    .next()
                    .ok_or(ParseError {
                        line: line_no,
                        kind: ParseErrorKind::Malformed("dep"),
                    })?
                    .to_string();
                let mut distance = 0u32;
                let mut latency: Option<u32> = None;
                for extra in tokens {
                    if let Some(d) = extra.strip_prefix('@') {
                        distance = d.parse().map_err(|_| ParseError {
                            line: line_no,
                            kind: ParseErrorKind::BadNumber(extra.to_string()),
                        })?;
                        within(line_no, "distance", distance.into(), MAX_DISTANCE.into())?;
                    } else if let Some(l) = extra.strip_prefix('!') {
                        let l: u32 = l.parse().map_err(|_| ParseError {
                            line: line_no,
                            kind: ParseErrorKind::BadNumber(extra.to_string()),
                        })?;
                        within(line_no, "latency", l.into(), MAX_LATENCY.into())?;
                        latency = Some(l);
                    } else {
                        return Err(ParseError {
                            line: line_no,
                            kind: ParseErrorKind::Malformed("dep"),
                        });
                    }
                }
                let count = pending_deps.len() as u64 + 1;
                within(line_no, "dependence count", count, MAX_EDGES as u64)?;
                pending_deps.push((line_no, src, dst, distance, latency));
            }
            other => {
                return Err(ParseError {
                    line: line_no,
                    kind: ParseErrorKind::UnknownStatement(other.to_string()),
                })
            }
        }
    }

    let mut graph = Ddg::new(name);
    for (_, id, kind, label) in pending_ops {
        let node = match label {
            Some(l) => graph.add_named(kind, l),
            None => graph.add_named(kind, id.clone()),
        };
        ids.insert(id, node);
    }
    for (line_no, src, dst, distance, latency) in pending_deps {
        let s = *ids.get(&src).ok_or_else(|| ParseError {
            line: line_no,
            kind: ParseErrorKind::UnknownOp(src.clone()),
        })?;
        let d = *ids.get(&dst).ok_or_else(|| ParseError {
            line: line_no,
            kind: ParseErrorKind::UnknownOp(dst.clone()),
        })?;
        let lat = latency.unwrap_or_else(|| graph.op(s).kind.latency());
        graph.add_edge(DepEdge {
            src: s,
            dst: d,
            latency: lat,
            distance,
        });
    }
    if let Err(e) = graph.validate() {
        return Err(ParseError {
            line: 0,
            kind: ParseErrorKind::InvalidGraph(e.to_string()),
        });
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_doc_example() {
        let text = r#"
# sum += x[i] * y[i]
loop dot_product

op x   load  "x[i]"
op y   load
op m   fmul
op acc fadd
op s   store

dep x -> m
dep y -> m
dep m -> acc
dep acc -> acc @1    # loop-carried
dep acc -> s
"#;
        let g = parse_loop(text).unwrap();
        assert_eq!(g.name(), "dot_product");
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.op(NodeId(0)).label(), "x[i]");
        assert_eq!(g.op(NodeId(1)).label(), "y");
        let carried = g.edges().filter(|(_, e)| e.distance == 1).count();
        assert_eq!(carried, 1);
    }

    #[test]
    fn latency_override() {
        let g = parse_loop("op a alu\nop b alu\ndep a -> b !7").unwrap();
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.latency, 7);
    }

    #[test]
    fn default_latency_is_producer_latency() {
        let g = parse_loop("op a fmul\nop b st\ndep a -> b").unwrap();
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.latency, 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_loop("op a load\nfrob").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::UnknownStatement(_)));

        let err = parse_loop("op a wibble").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownKind(_)));

        let err = parse_loop("op a load\nop a load").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateOp(_)));

        let err = parse_loop("op a load\ndep a -> zz").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownOp(_)));

        let err = parse_loop("op a load\nop b st\ndep a -> b @x").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadNumber(_)));

        let err = parse_loop("op a load\nop b st\ndep a b").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Malformed("dep")));

        // Values and counts that would size the schedule or the emitted
        // program past any sensible loop are refused on their line.
        let many_ops: String = (0..=MAX_NODES).map(|i| format!("op n{i} alu\n")).collect();
        let many_deps = format!(
            "op a alu\nop b alu\n{}",
            "dep a -> b\n".repeat(MAX_EDGES + 1)
        );
        for (text, line, what) in [
            ("op a alu\ndep a -> a @1 !4000000000", 2, "latency"),
            (
                "op x load\nop y store\ndep x -> y @100000000",
                3,
                "distance",
            ),
            ("op a alu\ndep a -> a @65", 2, "distance"),
            (&many_ops, MAX_NODES + 1, "operation count"),
            (&many_deps, MAX_EDGES + 3, "dependence count"),
        ] {
            let err = parse_loop(text).unwrap_err();
            assert_eq!(err.line, line, "{what}: {err}");
            assert!(
                matches!(err.kind, ParseErrorKind::OverLimit { what: w, .. } if w == what),
                "{what}: {err}"
            );
        }
        let at_limits = format!("op a alu\ndep a -> a @{MAX_DISTANCE} !{MAX_LATENCY}\n");
        assert_eq!(parse_loop(&at_limits).unwrap().edge_count(), 1);
    }

    #[test]
    fn zero_distance_cycle_rejected() {
        let err = parse_loop("op a alu\nop b alu\ndep a -> b\ndep b -> a").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidGraph(_)));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_loop("\n# nothing\n   \nop a load # trailing\n").unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn all_kind_aliases() {
        for (tok, kind) in [
            ("alu", OpKind::IntAlu),
            ("shift", OpKind::Shift),
            ("shl", OpKind::Shift),
            ("br", OpKind::Branch),
            ("branch", OpKind::Branch),
            ("load", OpKind::Load),
            ("ld", OpKind::Load),
            ("store", OpKind::Store),
            ("st", OpKind::Store),
            ("fadd", OpKind::FpAdd),
            ("fmul", OpKind::FpMult),
            ("fdiv", OpKind::FpDiv),
            ("fsqrt", OpKind::FpSqrt),
        ] {
            let g = parse_loop(&format!("op a {tok}")).unwrap();
            assert_eq!(g.op(NodeId(0)).kind, kind, "{tok}");
        }
    }
}
