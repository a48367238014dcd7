//! Parser for the `.machine` clustered-machine description format.
//!
//! ```text
//! # four clusters of 4 GP units over 4 buses, 2 ports each way
//! machine my4c
//! cluster 4gp
//! cluster 4gp
//! cluster 4gp
//! cluster 4gp
//! bus 4 ports 2 2
//! ```
//!
//! or a point-to-point grid of fully specified clusters:
//!
//! ```text
//! machine grid
//! cluster 1m 1i 1f
//! cluster 1m 1i 1f
//! cluster 1m 1i 1f
//! cluster 1m 1i 1f
//! link 0 1
//! link 0 2
//! link 1 3
//! link 2 3
//! ports 2 2
//! ```
//!
//! Statements (one per line, `#` comments):
//!
//! - `machine <name>` — optional display name;
//! - `cluster <units>...` — one cluster; units are `<n>gp`, `<n>m`,
//!   `<n>i`, `<n>f` (mixable: `cluster 2gp 1m`);
//! - `bus <count> [ports <read> <write>]` — broadcast buses (ports
//!   default to 1 1);
//! - `link <a> <b>` — a dedicated connection between clusters `a` and
//!   `b` (0-based); implies a point-to-point fabric;
//! - `ports <read> <write>` — port counts for a point-to-point fabric.
//!
//! A machine has at most [`MAX_CLUSTERS`] clusters of at most
//! [`MAX_UNITS`] units each, at most [`MAX_BUSES`] buses or
//! [`MAX_LINKS`] links, and at most [`MAX_PORTS`] read and as many write
//! ports a cluster; a description over any limit is an error.

use crate::limits::{MAX_BUSES, MAX_CLUSTERS, MAX_LINKS, MAX_PORTS, MAX_UNITS};
use clasp_machine::{ClusterId, ClusterSpec, Interconnect, Link, MachineSpec};
use std::fmt;

/// A machine-description parse failure with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineParseError {
    /// 1-based line number (0 for whole-file problems).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for MachineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MachineParseError {}

fn err(line: usize, message: impl Into<String>) -> MachineParseError {
    MachineParseError {
        line,
        message: message.into(),
    }
}

/// `count` of `what` when within `limit`, else an error naming both.
fn within<T: PartialOrd + fmt::Display>(
    line: usize,
    what: &str,
    count: T,
    limit: T,
) -> Result<T, MachineParseError> {
    if count > limit {
        return Err(err(
            line,
            format!("{what} {count} exceeds the limit of {limit}"),
        ));
    }
    Ok(count)
}

/// A port count token, at most [`MAX_PORTS`].
fn ports(line: usize, token: Option<&str>, what: &str) -> Result<u32, MachineParseError> {
    let count = token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(line, format!("ports needs a {what} count")))?;
    within(line, &format!("{what} port count"), count, MAX_PORTS)
}

fn parse_unit(line: usize, token: &str, spec: &mut ClusterSpec) -> Result<(), MachineParseError> {
    let split = token
        .find(|c: char| !c.is_ascii_digit())
        .ok_or_else(|| err(line, format!("unit `{token}` needs a type suffix")))?;
    let (num, suffix) = token.split_at(split);
    let n: u32 = num
        .parse()
        .map_err(|_| err(line, format!("bad unit count in `{token}`")))?;
    // A cluster's total stays within `u32`, so no one count can overflow.
    let width = spec.issue_width().checked_add(n);
    let count = match suffix {
        "gp" => &mut spec.general,
        "m" | "mem" => &mut spec.memory,
        "i" | "int" => &mut spec.integer,
        "f" | "fp" => &mut spec.float,
        _ => return Err(err(line, format!("unknown unit type `{suffix}`"))),
    };
    if width.is_none() {
        return Err(err(line, format!("unit count overflows at `{token}`")));
    }
    *count += n;
    Ok(())
}

/// Parse a `.machine` description into a [`MachineSpec`].
///
/// # Errors
///
/// A [`MachineParseError`] naming the offending line.
///
/// # Examples
///
/// ```
/// let text = "machine tiny\ncluster 2gp\ncluster 2gp\nbus 1 ports 1 1\n";
/// let m = clasp_text::parse_machine(text)?;
/// assert_eq!(m.cluster_count(), 2);
/// assert_eq!(m.total_issue_width(), 4);
/// # Ok::<(), clasp_text::MachineParseError>(())
/// ```
pub fn parse_machine(text: &str) -> Result<MachineSpec, MachineParseError> {
    let mut name = String::from("machine");
    let mut clusters: Vec<ClusterSpec> = Vec::new();
    let mut buses: Option<(u32, u32, u32)> = None;
    let mut links: Vec<(usize, u32, u32)> = Vec::new();
    let mut p2p_ports: Option<(u32, u32)> = None;

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
        let mut toks = line.split_whitespace();
        match toks.next().expect("non-empty") {
            "machine" => {
                name = toks
                    .next()
                    .ok_or_else(|| err(line_no, "machine needs a name"))?
                    .to_string();
            }
            "cluster" => {
                let mut spec = ClusterSpec::default();
                let mut any = false;
                for t in toks {
                    parse_unit(line_no, t, &mut spec)?;
                    any = true;
                }
                if !any || spec.issue_width() == 0 {
                    return Err(err(line_no, "cluster needs at least one unit"));
                }
                within(line_no, "unit count", spec.issue_width(), MAX_UNITS)?;
                within(line_no, "cluster count", clusters.len() + 1, MAX_CLUSTERS)?;
                clusters.push(spec);
            }
            "bus" => {
                let count: u32 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, "bus needs a count"))?;
                let count = within(line_no, "bus count", count, MAX_BUSES)?;
                let (mut r, mut w) = (1u32, 1u32);
                if let Some(kw) = toks.next() {
                    if kw != "ports" {
                        return Err(err(line_no, "expected `ports <read> <write>`"));
                    }
                    r = ports(line_no, toks.next(), "read")?;
                    w = ports(line_no, toks.next(), "write")?;
                }
                buses = Some((count, r, w));
            }
            "link" => {
                let a: u32 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, "link needs two cluster indices"))?;
                let b: u32 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, "link needs two cluster indices"))?;
                if a == b {
                    return Err(err(line_no, "a link must join two distinct clusters"));
                }
                within(line_no, "link count", links.len() + 1, MAX_LINKS)?;
                links.push((line_no, a, b));
            }
            "ports" => {
                let r = ports(line_no, toks.next(), "read")?;
                let w = ports(line_no, toks.next(), "write")?;
                p2p_ports = Some((r, w));
            }
            other => return Err(err(line_no, format!("unknown statement `{other}`"))),
        }
    }

    if clusters.is_empty() {
        return Err(err(0, "a machine needs at least one cluster"));
    }
    if buses.is_some() && !links.is_empty() {
        return Err(err(0, "choose buses or links, not both"));
    }
    for &(line_no, a, b) in &links {
        if a as usize >= clusters.len() || b as usize >= clusters.len() {
            return Err(err(line_no, "link endpoint out of range"));
        }
    }

    let interconnect = if let Some((count, r, w)) = buses {
        Interconnect::Bus {
            buses: count,
            read_ports: r,
            write_ports: w,
        }
    } else if !links.is_empty() {
        let (r, w) = p2p_ports.unwrap_or((1, 1));
        Interconnect::PointToPoint {
            links: links
                .iter()
                .map(|&(_, a, b)| Link {
                    a: ClusterId(a),
                    b: ClusterId(b),
                })
                .collect(),
            read_ports: r,
            write_ports: w,
        }
    } else {
        Interconnect::None
    };

    Ok(MachineSpec::new(name, clusters, interconnect))
}

/// Render `machine` as a `.machine` description that [`parse_machine`]
/// reproduces *exactly*: `parse_machine(&write_machine(m))? == m`.
///
/// Port counts are always written explicitly (never left to parser
/// defaults) so the round-trip is equality, not merely equivalence. Two
/// corners of [`MachineSpec`] are unrepresentable in the format and are
/// written in their closest representable form:
///
/// - a machine name that is not a single `#`-free token is sanitized the
///   same way loop names are;
/// - a point-to-point fabric with an *empty* link table parses back as
///   [`Interconnect::None`] (the format infers the fabric from `link`
///   lines).
///
/// Clusters with zero function units cannot be expressed at all (the
/// parser rejects them), matching the machines every generator in the
/// workspace produces.
///
/// # Examples
///
/// ```
/// use clasp_machine::presets;
///
/// let m = presets::four_cluster_grid(1);
/// let text = clasp_text::write_machine(&m);
/// assert_eq!(clasp_text::parse_machine(&text)?, m);
/// # Ok::<(), clasp_text::MachineParseError>(())
/// ```
pub fn write_machine(machine: &MachineSpec) -> String {
    let mut s = String::new();
    let _ = write_machine_into(machine, &mut s);
    s
}

/// [`write_machine`] streamed into any [`fmt::Write`] sink.
pub fn write_machine_into<W: std::fmt::Write>(
    machine: &MachineSpec,
    w: &mut W,
) -> std::fmt::Result {
    write_machine_named_into(machine, machine.name(), w)
}

/// [`write_machine_into`] with the display name overridden — the hook
/// the compile cache uses to stream a name-normalized rendering straight
/// into its key hash without cloning the `MachineSpec`.
pub fn write_machine_named_into<W: std::fmt::Write>(
    machine: &MachineSpec,
    name: &str,
    w: &mut W,
) -> std::fmt::Result {
    write!(w, "machine ")?;
    crate::write::sanitize_into(name, "machine", w)?;
    writeln!(w)?;
    for c in machine.cluster_ids() {
        let spec = machine.cluster(c);
        write!(w, "cluster")?;
        for (count, suffix) in [
            (spec.general, "gp"),
            (spec.memory, "m"),
            (spec.integer, "i"),
            (spec.float, "f"),
        ] {
            if count > 0 {
                write!(w, " {count}{suffix}")?;
            }
        }
        writeln!(w)?;
    }
    match machine.interconnect() {
        Interconnect::None => {}
        Interconnect::Bus {
            buses,
            read_ports,
            write_ports,
        } => {
            writeln!(w, "bus {buses} ports {read_ports} {write_ports}")?;
        }
        Interconnect::PointToPoint {
            links,
            read_ports,
            write_ports,
        } => {
            for l in links {
                writeln!(w, "link {} {}", l.a.0, l.b.0)?;
            }
            if !links.is_empty() {
                writeln!(w, "ports {read_ports} {write_ports}")?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bused_machine() {
        let m = parse_machine("machine two\ncluster 4gp\ncluster 4gp\nbus 2 ports 1 1\n").unwrap();
        assert_eq!(m.name(), "two");
        assert_eq!(m.cluster_count(), 2);
        assert_eq!(m.interconnect().bus_count(), 2);
        assert!(m.interconnect().is_broadcast());
    }

    #[test]
    fn fs_units_and_mixed() {
        let m = parse_machine("cluster 1m 2i 1f\ncluster 2gp 1m\nbus 1\n").unwrap();
        let c0 = m.cluster(ClusterId(0));
        assert_eq!((c0.memory, c0.integer, c0.float, c0.general), (1, 2, 1, 0));
        let c1 = m.cluster(ClusterId(1));
        assert_eq!((c1.general, c1.memory), (2, 1));
        // Default bus ports are 1/1.
        assert_eq!(m.interconnect().read_ports(), 1);
    }

    #[test]
    fn grid_machine() {
        let text = "cluster 1m 1i 1f\ncluster 1m 1i 1f\ncluster 1m 1i 1f\ncluster 1m 1i 1f\n\
                    link 0 1\nlink 0 2\nlink 1 3\nlink 2 3\nports 2 2\n";
        let m = parse_machine(text).unwrap();
        assert_eq!(m.interconnect().links().len(), 4);
        assert!(!m.interconnect().is_broadcast());
        assert_eq!(m.interconnect().read_ports(), 2);
    }

    #[test]
    fn single_cluster_no_fabric() {
        let m = parse_machine("cluster 8gp\n").unwrap();
        assert!(m.is_unified());
        assert_eq!(m.interconnect(), &Interconnect::None);
    }

    #[test]
    fn errors() {
        assert!(parse_machine("")
            .unwrap_err()
            .message
            .contains("at least one"));
        assert!(parse_machine("cluster\n")
            .unwrap_err()
            .message
            .contains("at least one unit"));
        assert!(parse_machine("cluster 4xx\n")
            .unwrap_err()
            .message
            .contains("unknown unit"));
        assert!(parse_machine("cluster 4gp\nfrob\n")
            .unwrap_err()
            .message
            .contains("unknown statement"));
        assert!(parse_machine("cluster 4gp\ncluster 4gp\nbus 1\nlink 0 1\n")
            .unwrap_err()
            .message
            .contains("not both"));
        assert!(parse_machine("cluster 4gp\ncluster 4gp\nlink 0 5\n")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(parse_machine("cluster 4gp\ncluster 4gp\nlink 1 1\n")
            .unwrap_err()
            .message
            .contains("distinct"));
        let e = parse_machine("cluster 4gp\nbus x\n").unwrap_err();
        assert_eq!(e.line, 2);
        for units in ["4294967295gp 2gp", "4294967295gp 1m"] {
            let e = parse_machine(&format!("cluster 4gp\ncluster {units}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{units}");
            assert!(e.message.contains("overflows"), "{units}: {}", e.message);
        }
        // Counts that would size the scheduler's table past any sensible
        // machine are refused on their line, before anything is built.
        let many_clusters = "cluster 1gp\n".repeat(MAX_CLUSTERS + 1);
        let many_links = format!(
            "cluster 1gp\ncluster 1gp\n{}",
            "link 0 1\n".repeat(MAX_LINKS + 1)
        );
        for (text, line, what) in [
            (
                "cluster 4gp\nbus 4294967295 ports 4294967295 4294967295\n",
                2,
                "bus count",
            ),
            (
                "cluster 4gp\nbus 2 ports 4294967295 1\n",
                2,
                "read port count",
            ),
            ("cluster 4gp\nbus 2 ports 1 17\n", 2, "write port count"),
            (
                "cluster 1gp\ncluster 1gp\nlink 0 1\nports 2 4294967295\n",
                4,
                "write port",
            ),
            ("cluster 4gp\ncluster 40gp 25m\n", 2, "unit count 65"),
            (&many_clusters, MAX_CLUSTERS + 1, "cluster count"),
            (&many_links, MAX_LINKS + 3, "link count"),
        ] {
            let e = parse_machine(text).unwrap_err();
            assert_eq!(e.line, line, "{what}: {e}");
            assert!(e.message.contains(what), "{what}: {e}");
            assert!(e.message.contains("exceeds the limit"), "{what}: {e}");
        }
        let at_limits = format!(
            "{}bus {MAX_BUSES} ports {MAX_PORTS} {MAX_PORTS}\n",
            format!("cluster {MAX_UNITS}gp\n").repeat(MAX_CLUSTERS)
        );
        assert_eq!(
            parse_machine(&at_limits).unwrap().cluster_count(),
            MAX_CLUSTERS
        );
    }

    #[test]
    fn write_round_trips_presets_exactly() {
        use clasp_machine::presets;
        for m in [
            presets::two_cluster_gp(2, 1),
            presets::four_cluster_gp(4, 2),
            presets::two_cluster_fs(2, 1),
            presets::four_cluster_grid(1),
            presets::unified_gp(8),
            presets::mesh(3, 3),
            presets::mesh(4, 4),
            presets::torus(3, 3),
            presets::torus(2, 4),
            presets::pe_grid(2, 3),
            presets::het(4, 0x1998),
            presets::het(6, 0x2a),
        ] {
            let text = write_machine(&m);
            assert_eq!(parse_machine(&text).unwrap(), m, "in:\n{text}");
            // The parameterized families also round-trip through their
            // *names*: the preset is a pure function of the name, so the
            // text format and the name lookup must pin the same machine.
            if let Some(by_name) = presets::by_name(m.name()) {
                assert_eq!(by_name, m, "by_name diverged for {}", m.name());
            }
        }
    }

    #[test]
    fn write_emits_explicit_ports() {
        let m = MachineSpec::new(
            "p",
            vec![ClusterSpec::general(2), ClusterSpec::general(2)],
            Interconnect::Bus {
                buses: 3,
                read_ports: 2,
                write_ports: 1,
            },
        );
        let text = write_machine(&m);
        assert!(text.contains("bus 3 ports 2 1"), "{text}");
        assert_eq!(parse_machine(&text).unwrap(), m);
    }

    #[test]
    fn write_sanitizes_awkward_names() {
        let m = MachineSpec::new(
            "two words # hash",
            vec![ClusterSpec::general(1)],
            Interconnect::None,
        );
        let back = parse_machine(&write_machine(&m)).unwrap();
        assert_eq!(back.name(), "two_words___hash");
    }

    #[test]
    fn write_handles_zero_buses() {
        let m = MachineSpec::new(
            "dead",
            vec![ClusterSpec::general(1), ClusterSpec::general(1)],
            Interconnect::Bus {
                buses: 0,
                read_ports: 1,
                write_ports: 1,
            },
        );
        assert_eq!(parse_machine(&write_machine(&m)).unwrap(), m);
    }

    #[test]
    fn matches_preset_shapes() {
        use clasp_machine::presets;
        let m = parse_machine("machine 2c\ncluster 4gp\ncluster 4gp\nbus 2 ports 1 1\n").unwrap();
        let p = presets::two_cluster_gp(2, 1);
        assert_eq!(m.cluster_count(), p.cluster_count());
        assert_eq!(m.total_issue_width(), p.total_issue_width());
        assert_eq!(m.interconnect(), p.interconnect());
    }
}
