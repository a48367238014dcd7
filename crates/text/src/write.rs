//! Writer for the `.clasp` loop format: renders a [`Ddg`] back to text
//! that [`crate::parse_loop`] reproduces exactly (up to generated ids).

use clasp_ddg::Ddg;
use std::fmt;

/// Render `g` as a `.clasp` loop description.
///
/// Node ids are generated (`n0`, `n1`, ...); human labels are preserved
/// as quoted strings. Copy nodes (never present in hand-written input)
/// are rendered as `cp` ops so round-tripping a *working* graph yields
/// the same graph back, though normally only original loops are written.
///
/// # Examples
///
/// ```
/// use clasp_ddg::{Ddg, OpKind};
///
/// let mut g = Ddg::new("tiny");
/// let a = g.add(OpKind::Load);
/// let b = g.add(OpKind::FpAdd);
/// g.add_dep(a, b);
/// let text = clasp_text::write_loop(&g);
/// let back = clasp_text::parse_loop(&text)?;
/// assert_eq!(back.node_count(), 2);
/// assert_eq!(back.edge_count(), 1);
/// # Ok::<(), clasp_text::ParseError>(())
/// ```
pub fn write_loop(g: &Ddg) -> String {
    let mut s = String::new();
    let _ = write_loop_into(g, &mut s);
    s
}

/// [`write_loop`] streamed into any [`fmt::Write`] sink — the
/// allocation-free path used when the rendering is consumed on the fly
/// (e.g. folded straight into a cache-key hash).
pub fn write_loop_into<W: fmt::Write>(g: &Ddg, w: &mut W) -> fmt::Result {
    write!(w, "loop ")?;
    sanitize_into(g.name(), "loop", w)?;
    writeln!(w)?;
    writeln!(w)?;
    for (n, op) in g.nodes() {
        write!(w, "op n{} {}", n.0, op.kind.token())?;
        if let Some(name) = &op.name {
            write!(w, " \"")?;
            for c in name.chars() {
                w.write_char(if c == '"' { '\'' } else { c })?;
            }
            write!(w, "\"")?;
        }
        writeln!(w)?;
    }
    writeln!(w)?;
    for (_, e) in g.edges() {
        write!(w, "dep n{} -> n{}", e.src.0, e.dst.0)?;
        if e.distance != 0 {
            write!(w, " @{}", e.distance)?;
        }
        if e.latency != g.op(e.src).kind.latency() {
            write!(w, " !{}", e.latency)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Stream `name` with whitespace and `#` collapsed to `_`, falling back
/// to `fallback` for an empty name.
pub(crate) fn sanitize_into<W: fmt::Write>(name: &str, fallback: &str, w: &mut W) -> fmt::Result {
    if name.is_empty() {
        return w.write_str(fallback);
    }
    for c in name.chars() {
        w.write_char(if c.is_whitespace() || c == '#' {
            '_'
        } else {
            c
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_loop;
    use clasp_ddg::OpKind;

    fn roundtrip(g: &Ddg) -> Ddg {
        parse_loop(&write_loop(g)).expect("round-trip parses")
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let mut g = Ddg::new("rt");
        let a = g.add_named(OpKind::Load, "x[i]");
        let b = g.add(OpKind::FpMult);
        let c = g.add(OpKind::Store);
        g.add_dep(a, b);
        g.add_dep(b, c);
        g.add_dep_carried(b, b, 2);
        let back = roundtrip(&g);
        assert_eq!(back.name(), "rt");
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.edge_count(), 3);
        assert_eq!(back.op(a).label(), "x[i]");
        let carried = back.edges().find(|(_, e)| e.distance == 2).unwrap();
        assert_eq!(carried.1.latency, OpKind::FpMult.latency());
    }

    #[test]
    fn custom_latency_survives() {
        let mut g = Ddg::new("lat");
        let a = g.add(OpKind::IntAlu);
        let b = g.add(OpKind::IntAlu);
        g.add_edge(clasp_ddg::DepEdge {
            src: a,
            dst: b,
            latency: 5,
            distance: 0,
        });
        let back = roundtrip(&g);
        let (_, e) = back.edges().next().unwrap();
        assert_eq!(e.latency, 5);
    }

    #[test]
    fn awkward_names_are_sanitized() {
        let mut g = Ddg::new("has spaces # and hash");
        g.add(OpKind::Load);
        let back = roundtrip(&g);
        assert_eq!(back.name(), "has_spaces___and_hash");
    }

    #[test]
    fn copies_round_trip_as_cp() {
        let mut g = Ddg::new("wg");
        let a = g.add(OpKind::Load);
        let c = g.add(OpKind::Copy);
        let b = g.add(OpKind::FpAdd);
        g.add_dep(a, c);
        g.add_dep(c, b);
        let text = write_loop(&g);
        assert!(text.contains(" cp"), "{text}");
        let back = roundtrip(&g);
        assert_eq!(back.op(c).kind, OpKind::Copy);
    }

    #[test]
    fn streamed_writer_matches_string_writer() {
        let mut g = Ddg::new("streamed name");
        let a = g.add_named(OpKind::Load, "x\"q\"");
        let b = g.add(OpKind::FpMult);
        g.add_dep(a, b);
        g.add_dep_carried(b, b, 3);
        let mut streamed = String::new();
        write_loop_into(&g, &mut streamed).unwrap();
        assert_eq!(streamed, write_loop(&g));
    }

    #[test]
    fn quotes_in_labels_are_replaced() {
        let mut g = Ddg::new("q");
        g.add_named(OpKind::Load, "x\"quoted\"");
        let back = roundtrip(&g);
        assert_eq!(back.op(clasp_ddg::NodeId(0)).label(), "x'quoted'");
    }

    #[test]
    fn livermore_style_roundtrip() {
        // Round-trip a structurally rich graph.
        let mut g = Ddg::new("rich");
        let ids: Vec<_> = (0..10)
            .map(|i| {
                g.add(match i % 5 {
                    0 => OpKind::Load,
                    1 => OpKind::IntAlu,
                    2 => OpKind::FpMult,
                    3 => OpKind::FpAdd,
                    _ => OpKind::Store,
                })
            })
            .collect();
        for w in ids.windows(2) {
            g.add_dep(w[0], w[1]);
        }
        g.add_dep_carried(ids[8], ids[1], 1);
        let back = roundtrip(&g);
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(clasp_ddg::rec_mii(&back), clasp_ddg::rec_mii(&g));
    }
}
