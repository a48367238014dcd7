//! Size limits on machine and loop descriptions.
//!
//! A description arriving as text (a `.machine` or `.clasp` file, a
//! daemon request, an artifact payload, a CLI override) sizes what is
//! built from it: the scheduler's reservation table has a column per
//! resource instance and a row per cycle of the II, and the emitted
//! program holds a preheader entry per value and iteration of the
//! longest dependence distance. Each limit is checked where the text
//! enters, so an oversized description is a typed parse error rather
//! than an allocation that aborts the process. [`crate::parse_machine`]
//! and [`crate::parse_loop`] check them here; the CLI's `--buses` and
//! `--ports` overrides and the artifact codec's `e` lines check the same
//! constants.
//!
//! Every shipped input sits far below them: the 11,376 shipped loops
//! peak at 161 operations, 356 dependences, latency 9 and distance 4,
//! and the machine presets at 256 clusters, 8 units a cluster, 7 buses,
//! 3 ports and 512 links.

/// Clusters in one machine.
pub const MAX_CLUSTERS: usize = 1024;

/// Function units in one cluster, all kinds together.
pub const MAX_UNITS: u32 = 64;

/// Broadcast buses in one machine.
pub const MAX_BUSES: u32 = 64;

/// Read ports, and write ports, of one cluster.
pub const MAX_PORTS: u32 = 16;

/// Point-to-point links in one machine.
pub const MAX_LINKS: usize = 4096;

/// Operations in one loop.
pub const MAX_NODES: usize = 1024;

/// Dependences in one loop.
pub const MAX_EDGES: usize = 8192;

/// Latency of one dependence, in cycles.
pub const MAX_LATENCY: u32 = 64;

/// Iteration distance of one dependence.
pub const MAX_DISTANCE: u32 = 64;
