//! The time-indexed modulo reservation table used during scheduling.
//!
//! Rows are cycles modulo II; columns are concrete resource instances:
//! every function unit of every cluster, every bus, every point-to-point
//! link, and every bus/link read and write port of every cluster. The
//! iterative modulo scheduler places operations at `cycle mod II`, and on
//! conflict evicts the current holders (Rau's force-place).
//!
//! The table holds occupancy only; the scheduler removes a placement by
//! naming its row. Occupancy lives in `u64`-word bitset rows, so the
//! scheduler's free-column probes are mask tests and trailing-zero scans,
//! and a row-major holder grid beside it names the node in each cell; a
//! holder is read only where its bit is set, so neither a reset nor a
//! removal ever touches the grid. The buffers and the probe scratch are
//! reused across attempts, so a warmed table performs no heap allocation
//! on the place/evict/remove/reset path (see [`TimeMrt::reset`]).

use crate::CopyMeta;
use clasp_ddg::{NodeId, OpKind};
use clasp_machine::{ClusterId, LinkId, MachineSpec};

/// A resource request for placing one node at one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotRequest<'a> {
    /// A real operation needing one function unit on its cluster.
    Fu {
        /// The cluster the operation is assigned to.
        cluster: ClusterId,
        /// The operation kind (decides dedicated-vs-GP unit eligibility).
        kind: OpKind,
    },
    /// A copy needing one read port at its source, one write port per
    /// target (several only on broadcast buses), and one bus
    /// (`link == None`) or the given link. The metadata is borrowed from
    /// the [`crate::ClusterMap`] that records it.
    Copy(&'a CopyMeta),
}

/// Column layout bookkeeping: offsets of each resource group.
#[derive(Debug, Clone)]
struct Layout {
    /// Per cluster: (mem, int, float, gp) starting offsets.
    fu_base: Vec<[usize; 4]>,
    /// Per cluster: (mem, int, float, gp) counts.
    fu_count: Vec<[usize; 4]>,
    read_base: Vec<usize>,
    read_count: usize,
    write_base: Vec<usize>,
    write_count: usize,
    bus_base: usize,
    bus_count: usize,
    link_base: usize,
    link_count: usize,
    total: usize,
    /// `u64` words per packed occupancy row (`ceil(total / 64)`).
    words: usize,
}

impl Layout {
    fn new(m: &MachineSpec) -> Self {
        let mut off = 0usize;
        let mut fu_base = Vec::new();
        let mut fu_count = Vec::new();
        for c in m.cluster_ids() {
            let s = m.cluster(c);
            let counts = [
                s.memory as usize,
                s.integer as usize,
                s.float as usize,
                s.general as usize,
            ];
            let base = [
                off,
                off + counts[0],
                off + counts[0] + counts[1],
                off + counts[0] + counts[1] + counts[2],
            ];
            off += counts.iter().sum::<usize>();
            fu_base.push(base);
            fu_count.push(counts);
        }
        let read_count = m.interconnect().read_ports() as usize;
        let read_base: Vec<usize> = m
            .cluster_ids()
            .map(|c| off + c.index() * read_count)
            .collect();
        off += read_count * m.cluster_count();
        let write_count = m.interconnect().write_ports() as usize;
        let write_base: Vec<usize> = m
            .cluster_ids()
            .map(|c| off + c.index() * write_count)
            .collect();
        off += write_count * m.cluster_count();
        let bus_base = off;
        let bus_count = m.interconnect().bus_count() as usize;
        off += bus_count;
        let link_base = off;
        let link_count = m.interconnect().links().len();
        off += link_count;
        Layout {
            fu_base,
            fu_count,
            read_base,
            read_count,
            write_base,
            write_count,
            bus_base,
            bus_count,
            link_base,
            link_count,
            total: off,
            words: off.div_ceil(64),
        }
    }

    /// Column ranges an op of `kind` may use on `cluster`: dedicated class
    /// instances first, then the GP pool. At most two groups; returns the
    /// filled prefix length (no allocation).
    fn fu_groups(&self, cluster: ClusterId, kind: OpKind) -> ([(usize, usize); 2], usize) {
        let ci = cluster.index();
        let mut out = [(0usize, 0usize); 2];
        let mut len = 0;
        if let Some(class) = kind.fu_class() {
            let k = class.index();
            if self.fu_count[ci][k] > 0 {
                out[len] = (self.fu_base[ci][k], self.fu_count[ci][k]);
                len += 1;
            }
            if self.fu_count[ci][3] > 0 {
                out[len] = (self.fu_base[ci][3], self.fu_count[ci][3]);
                len += 1;
            }
        }
        (out, len)
    }

    fn read_range(&self, c: ClusterId) -> (usize, usize) {
        (self.read_base[c.index()], self.read_count)
    }

    fn write_range(&self, c: ClusterId) -> (usize, usize) {
        (self.write_base[c.index()], self.write_count)
    }

    fn bus_range(&self) -> (usize, usize) {
        (self.bus_base, self.bus_count)
    }

    fn link_col(&self, l: LinkId) -> (usize, usize) {
        debug_assert!(l.index() < self.link_count);
        (self.link_base + l.index(), 1)
    }
}

/// Result of a placement probe ([`TimeMrt::try_place`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceOutcome {
    /// The node was placed; the resources are now held.
    Placed,
    /// Current holders block the placement (evict them with
    /// [`TimeMrt::place_evicting_into`]).
    Blocked,
    /// The request can never fit on this machine: a needed resource has
    /// no instance, or fewer than the request itself claims (a copy naming
    /// one target cluster more often than it has write ports).
    Impossible,
}

/// The most cells (resource columns × II) a scheduler may ask a
/// [`TimeMrt`] to hold, about 4 bytes a cell (277 MB at the bound;
/// [`TimeMrt::reset`] grows by doubling, so its buffers stay under twice
/// that). Each description limit of `clasp_text::limits` holds alone,
/// but a machine and a loop at their limits multiply to tens of
/// gigabytes, and a failed allocation aborts the process; a fixed bound
/// keeps the refusal a pure function of the request, whatever memory the
/// host has free.
pub const MAX_TABLE_CELLS: u64 = 1 << 26;

/// Time-indexed MRT for `machine` at a fixed II.
///
/// Backed by `u64` occupancy rows and a holder grid that is read only
/// where a bit is set, so [`TimeMrt::reset`] zeroes a few words per row
/// and a warmed table allocates nothing while scheduling. The table
/// records no node's row: the caller names it to [`TimeMrt::remove`].
///
/// # Examples
///
/// ```
/// use clasp_mrt::{PlaceOutcome, SlotRequest, TimeMrt};
/// use clasp_machine::{presets, ClusterId};
/// use clasp_ddg::{NodeId, OpKind};
///
/// let m = presets::unified_gp(2);
/// let mut mrt = TimeMrt::new(&m, 2);
/// let req = SlotRequest::Fu { cluster: ClusterId(0), kind: OpKind::IntAlu };
/// assert_eq!(mrt.try_place(NodeId(0), 0, &req), PlaceOutcome::Placed);
/// assert_eq!(mrt.try_place(NodeId(1), 0, &req), PlaceOutcome::Placed);
/// // Row 0 is full (2 GP units); a third op conflicts.
/// assert_eq!(mrt.try_place(NodeId(2), 0, &req), PlaceOutcome::Blocked);
/// // Removing a holder from its row frees its unit.
/// mrt.remove(NodeId(1), 0);
/// assert_eq!(mrt.try_place(NodeId(2), 0, &req), PlaceOutcome::Placed);
/// // Move to a different II without reallocating: old placements vanish.
/// mrt.reset(3);
/// assert_eq!(mrt.try_place(NodeId(3), 0, &req), PlaceOutcome::Placed);
/// ```
#[derive(Debug, Clone)]
pub struct TimeMrt {
    layout: Layout,
    ii: u32,
    /// Allocated rows (`>= ii`; grows, never shrinks).
    cap_rows: usize,
    /// Packed occupancy, row-major: bit `col % 64` of
    /// `occ[row * words + col / 64]` is set iff `col` is held at `row`.
    /// Rows `>= ii` may hold stale bits: they are never probed, and
    /// [`TimeMrt::reset`] re-zeroes every row of the new II before they
    /// come back into range.
    occ: Vec<u64>,
    /// `holders[row * total + col]`: the node holding `col` at `row`,
    /// meaningful only where the occupancy bit is set.
    holders: Vec<NodeId>,
    plan_cols: Vec<usize>,
    plan_blockers: Vec<NodeId>,
}

impl TimeMrt {
    /// Create an empty table for `machine` at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(machine: &MachineSpec, ii: u32) -> Self {
        assert!(ii > 0, "II must be positive");
        let layout = Layout::new(machine);
        let cap_rows = ii as usize;
        TimeMrt {
            occ: vec![0; layout.words * cap_rows],
            holders: vec![NodeId(0); layout.total * cap_rows],
            layout,
            ii,
            cap_rows,
            plan_cols: Vec::new(),
            plan_blockers: Vec::new(),
        }
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Resource columns a row: the table holds `columns() × II` cells.
    pub fn columns(&self) -> usize {
        self.layout.total
    }

    /// Drop every placement and move the table to a new II: the packed
    /// occupancy rows of the new II are zeroed (a handful of words per
    /// row) and nothing else is touched. The backing buffers only grow
    /// (doubling) when `ii` exceeds every II seen before, so sweeping
    /// `ii = min..=max` over one table performs O(log max) allocations
    /// total and none once warmed.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn reset(&mut self, ii: u32) {
        assert!(ii > 0, "II must be positive");
        self.ii = ii;
        if ii as usize > self.cap_rows {
            self.cap_rows = (self.cap_rows * 2).max(ii as usize);
            self.occ.resize(self.layout.words * self.cap_rows, 0);
            self.holders
                .resize(self.layout.total * self.cap_rows, NodeId(0));
        }
        self.occ[..self.layout.words * ii as usize].fill(0);
    }

    /// The occupancy words of `row`.
    fn occ_row(&self, row: usize) -> &[u64] {
        &self.occ[row * self.layout.words..(row + 1) * self.layout.words]
    }

    fn holder(&self, col: usize, row: usize) -> Option<NodeId> {
        let held = self.occ_row(row)[col / 64] & (1 << (col % 64)) != 0;
        held.then(|| self.holders[row * self.layout.total + col])
    }

    /// First free column in `[base, base + count)` at `row` that is not in
    /// `claimed` (columns this same request already took — e.g. two
    /// targets on one cluster cannot share a port). A packed scan: each
    /// occupancy word is inverted, masked to the range, and walked by
    /// trailing-zero bits; `claimed` is tiny, so its membership test is a
    /// linear probe.
    fn first_free_in(
        &self,
        base: usize,
        count: usize,
        row: usize,
        claimed: &[usize],
    ) -> Option<usize> {
        let end = base + count;
        let occ = self.occ_row(row);
        let (first, last) = (base / 64, (end - 1) / 64);
        for (w, word) in occ.iter().enumerate().take(last + 1).skip(first) {
            let lo = w * 64;
            let mut free = !word;
            if lo < base {
                free &= !0u64 << (base - lo);
            }
            if lo + 64 > end {
                free &= !0u64 >> (lo + 64 - end);
            }
            while free != 0 {
                let c = lo + free.trailing_zeros() as usize;
                if !claimed.contains(&c) {
                    return Some(c);
                }
                free &= free - 1;
            }
        }
        None
    }

    /// Claim one column out of `groups` (a request may span several
    /// eligible ranges, dedicated + GP): the first free column across all
    /// of them not already claimed by this same request. On failure the
    /// victim instance is the first column of the first non-empty group
    /// that this request has not claimed itself; it is claimed too, so a
    /// later claim on the same group names another victim, and its holder
    /// is reported as a blocker. `Err(())` when there is no such column:
    /// the request alone needs more instances than the machine has (a
    /// copy naming one target cluster more often than it has write
    /// ports, or a resource the machine lacks), which no eviction can
    /// fix, however the row is occupied.
    fn claim_one(
        &self,
        row: usize,
        groups: &[(usize, usize)],
        cols: &mut Vec<usize>,
        blockers: &mut Vec<NodeId>,
    ) -> Result<bool, ()> {
        for &(base, count) in groups.iter().filter(|&&(_, count)| count > 0) {
            if let Some(c) = self.first_free_in(base, count, row, cols) {
                cols.push(c);
                return Ok(true);
            }
        }
        let victim = groups
            .iter()
            .find(|&&(_, count)| count > 0)
            .and_then(|&(base, count)| (base..base + count).find(|c| !cols.contains(c)))
            .ok_or(())?;
        cols.push(victim);
        let owner = self.holder(victim, row).ok_or(())?;
        if !blockers.contains(&owner) {
            blockers.push(owner);
        }
        Ok(false)
    }

    /// Plan the columns for `req` at `row` into `cols`, collecting
    /// blockers. `Err(())` means structurally impossible (a needed
    /// resource has too few instances for the request); `Ok(false)` means
    /// blocked, with at least one blocker recorded.
    fn plan_into(
        &self,
        row: usize,
        req: &SlotRequest,
        cols: &mut Vec<usize>,
        blockers: &mut Vec<NodeId>,
    ) -> Result<bool, ()> {
        match req {
            SlotRequest::Fu { cluster, kind } => {
                let (groups, len) = self.layout.fu_groups(*cluster, *kind);
                self.claim_one(row, &groups[..len], cols, blockers)
            }
            SlotRequest::Copy(meta) => {
                let read = self.layout.read_range(meta.src);
                let mut ok = self.claim_one(row, &[read], cols, blockers)?;
                for &t in &meta.targets {
                    ok &= self.claim_one(row, &[self.layout.write_range(t)], cols, blockers)?;
                }
                let transport = match meta.link {
                    Some(l) => self.layout.link_col(l),
                    None => self.layout.bus_range(),
                };
                ok &= self.claim_one(row, &[transport], cols, blockers)?;
                Ok(ok)
            }
        }
    }

    /// Try to place `node` at `row` (must be `< II`); on success the
    /// resources are held until [`TimeMrt::remove`] names `node` and `row`.
    /// On [`PlaceOutcome::Blocked`] the blockers stay in internal scratch
    /// for [`TimeMrt::place_evicting_into`]. This is the hot path of the
    /// scheduler's window scan and does not allocate once warmed.
    ///
    /// The caller guarantees `node` holds no resource: the table does not
    /// know which nodes are placed.
    ///
    /// # Panics
    ///
    /// Panics if `row >= II`.
    pub fn try_place(&mut self, node: NodeId, row: u32, req: &SlotRequest) -> PlaceOutcome {
        assert!(row < self.ii, "row out of range");
        let row = row as usize;
        let mut cols = std::mem::take(&mut self.plan_cols);
        let mut blockers = std::mem::take(&mut self.plan_blockers);
        cols.clear();
        blockers.clear();
        let outcome = match self.plan_into(row, req, &mut cols, &mut blockers) {
            Err(()) => PlaceOutcome::Impossible,
            Ok(false) => PlaceOutcome::Blocked,
            Ok(true) => {
                for &c in &cols {
                    let word = &mut self.occ[row * self.layout.words + c / 64];
                    debug_assert!(*word & (1 << (c % 64)) == 0);
                    *word |= 1 << (c % 64);
                    self.holders[row * self.layout.total + c] = node;
                }
                PlaceOutcome::Placed
            }
        };
        self.plan_cols = cols;
        self.plan_blockers = blockers;
        outcome
    }

    /// Place `node` at `row`, evicting whoever is in the way from that
    /// row; the evicted nodes are appended to `evicted` (which is not
    /// cleared first). The caller re-schedules them later (Rau's iterative
    /// force-place). Does not allocate beyond `evicted`'s own growth.
    ///
    /// # Panics
    ///
    /// Panics if the request is structurally impossible
    /// ([`PlaceOutcome::Impossible`]) or if `row >= II`.
    pub fn place_evicting_into(
        &mut self,
        node: NodeId,
        row: u32,
        req: &SlotRequest,
        evicted: &mut Vec<NodeId>,
    ) {
        loop {
            match self.try_place(node, row, req) {
                PlaceOutcome::Placed => return,
                PlaceOutcome::Blocked => {
                    let mut blockers = std::mem::take(&mut self.plan_blockers);
                    for &b in &blockers {
                        self.remove(b, row);
                        evicted.push(b);
                    }
                    blockers.clear();
                    self.plan_blockers = blockers;
                }
                PlaceOutcome::Impossible => {
                    panic!("request impossible on this machine: {req:?}")
                }
            }
        }
    }

    /// Free every cell of `row` that `node` holds (a no-op if it holds
    /// none there). The caller names the row its placement went to.
    ///
    /// # Panics
    ///
    /// Panics if `row >= II`.
    pub fn remove(&mut self, node: NodeId, row: u32) {
        assert!(row < self.ii, "row out of range");
        let row = row as usize;
        let Layout { words, total, .. } = self.layout;
        let holders = &self.holders[row * total..(row + 1) * total];
        for (w, word) in self.occ[row * words..(row + 1) * words]
            .iter_mut()
            .enumerate()
        {
            let mut held = *word;
            while held != 0 {
                let bit = held.trailing_zeros() as usize;
                held &= held - 1;
                if holders[w * 64 + bit] == node {
                    *word &= !(1 << bit);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_machine::presets;

    fn fu(cluster: u32, kind: OpKind) -> SlotRequest<'static> {
        SlotRequest::Fu {
            cluster: ClusterId(cluster),
            kind,
        }
    }

    fn copy(src: u32, targets: &[u32], link: Option<LinkId>) -> CopyMeta {
        CopyMeta {
            src: ClusterId(src),
            targets: targets.iter().map(|&t| ClusterId(t)).collect(),
            link,
        }
    }

    /// The distinct nodes holding a cell of `row`, in column order.
    fn holders_of(mrt: &TimeMrt, row: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        for c in 0..mrt.layout.total {
            if let Some(n) = mrt.holder(c, row as usize) {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Probe `req` at `row` and return the outcome with the blockers.
    fn blocked_by(mrt: &mut TimeMrt, node: u32, row: u32, req: &SlotRequest) -> Vec<NodeId> {
        assert_eq!(mrt.try_place(NodeId(node), row, req), PlaceOutcome::Blocked);
        mrt.plan_blockers.clone()
    }

    #[test]
    fn fs_units_fill_by_class() {
        let m = presets::two_cluster_fs(2, 1); // 1 mem, 2 int, 1 fp
        let mut mrt = TimeMrt::new(&m, 1);
        let placed = PlaceOutcome::Placed;
        assert_eq!(mrt.try_place(NodeId(0), 0, &fu(0, OpKind::Load)), placed);
        // Only one memory unit: second load conflicts and names blocker.
        let store = fu(0, OpKind::Store);
        assert_eq!(blocked_by(&mut mrt, 1, 0, &store), vec![NodeId(0)]);
        // Integer units: two fit.
        assert_eq!(mrt.try_place(NodeId(2), 0, &fu(0, OpKind::IntAlu)), placed);
        assert_eq!(mrt.try_place(NodeId(3), 0, &fu(0, OpKind::Shift)), placed);
        let branch = fu(0, OpKind::Branch);
        assert_eq!(mrt.try_place(NodeId(4), 0, &branch), PlaceOutcome::Blocked);
    }

    #[test]
    fn gp_units_take_anything() {
        let m = presets::two_cluster_gp(2, 1); // 4 GP per cluster
        let mut mrt = TimeMrt::new(&m, 1);
        for (i, k) in [OpKind::Load, OpKind::FpMult, OpKind::IntAlu, OpKind::Store]
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                mrt.try_place(NodeId(i as u32), 0, &fu(0, k)),
                PlaceOutcome::Placed
            );
        }
        let fadd = |c| fu(c, OpKind::FpAdd);
        assert_eq!(mrt.try_place(NodeId(9), 0, &fadd(0)), PlaceOutcome::Blocked);
        // Other cluster independent.
        assert_eq!(mrt.try_place(NodeId(10), 0, &fadd(1)), PlaceOutcome::Placed);
    }

    #[test]
    fn rows_are_independent() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 3);
        let req = fu(0, OpKind::IntAlu);
        for r in 0..3 {
            assert_eq!(mrt.try_place(NodeId(r), r, &req), PlaceOutcome::Placed);
        }
        assert_eq!(blocked_by(&mut mrt, 9, 1, &req), vec![NodeId(1)]);
    }

    #[test]
    fn copy_claims_ports_and_bus() {
        let m = presets::two_cluster_gp(1, 1);
        let mut mrt = TimeMrt::new(&m, 2);
        let meta = copy(0, &[1], None);
        let req = SlotRequest::Copy(&meta);
        assert_eq!(mrt.try_place(NodeId(0), 0, &req), PlaceOutcome::Placed);
        // Same row: bus and ports busy.
        assert_eq!(blocked_by(&mut mrt, 1, 0, &req), vec![NodeId(0)]);
        // Other row fine.
        assert_eq!(mrt.try_place(NodeId(1), 1, &req), PlaceOutcome::Placed);
    }

    #[test]
    fn reverse_copy_same_row_needs_distinct_ports() {
        // Copy C0->C1 and copy C1->C0 share only the bus.
        let m = presets::two_cluster_gp(2, 1); // 2 buses
        let mut mrt = TimeMrt::new(&m, 1);
        let (fwd, rev) = (copy(0, &[1], None), copy(1, &[0], None));
        let fwd = SlotRequest::Copy(&fwd);
        let rev = SlotRequest::Copy(&rev);
        assert_eq!(mrt.try_place(NodeId(0), 0, &fwd), PlaceOutcome::Placed);
        assert_eq!(mrt.try_place(NodeId(1), 0, &rev), PlaceOutcome::Placed);
    }

    #[test]
    fn broadcast_copy_claims_every_target_port() {
        let m = presets::four_cluster_gp(4, 1);
        let mut mrt = TimeMrt::new(&m, 1);
        let meta = copy(0, &[1, 2, 3], None);
        let req = SlotRequest::Copy(&meta);
        assert_eq!(mrt.try_place(NodeId(0), 0, &req), PlaceOutcome::Placed);
        // C1's write port is taken.
        let other = copy(2, &[1], None);
        let other = SlotRequest::Copy(&other);
        assert_eq!(blocked_by(&mut mrt, 1, 0, &other), vec![NodeId(0)]);
    }

    #[test]
    fn link_copies_are_exclusive() {
        let m = presets::four_cluster_grid(2);
        let l = m
            .interconnect()
            .link_between(ClusterId(0), ClusterId(1))
            .unwrap();
        let mut mrt = TimeMrt::new(&m, 1);
        let meta = copy(0, &[1], Some(l));
        let req = SlotRequest::Copy(&meta);
        assert_eq!(mrt.try_place(NodeId(0), 0, &req), PlaceOutcome::Placed);
        let back = copy(1, &[0], Some(l));
        let back = SlotRequest::Copy(&back);
        assert_eq!(blocked_by(&mut mrt, 1, 0, &back), vec![NodeId(0)]);
    }

    #[test]
    fn eviction_returns_and_frees() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        let alu = fu(0, OpKind::IntAlu);
        assert_eq!(mrt.try_place(NodeId(0), 0, &alu), PlaceOutcome::Placed);
        let mut evicted = Vec::new();
        mrt.place_evicting_into(NodeId(1), 0, &fu(0, OpKind::Load), &mut evicted);
        assert_eq!(evicted, vec![NodeId(0)]);
        assert_eq!(holders_of(&mrt, 0), vec![NodeId(1)]);
    }

    #[test]
    fn a_repeated_copy_target_names_its_real_blocker() {
        // Two write ports on cluster 1. `x` holds port 1 at row 0 and port
        // 0 is free, so a copy naming cluster 1 twice claims port 0 itself
        // and is blocked by `x` alone, which eviction can clear.
        let m = presets::two_cluster_gp(2, 2);
        let mut mrt = TimeMrt::new(&m, 1);
        let once = copy(0, &[1], None);
        let once = SlotRequest::Copy(&once);
        let (z, x, twice_node) = (NodeId(0), NodeId(1), NodeId(2));
        assert_eq!(mrt.try_place(z, 0, &once), PlaceOutcome::Placed);
        assert_eq!(mrt.try_place(x, 0, &once), PlaceOutcome::Placed);
        mrt.remove(z, 0);
        let twice = copy(0, &[1, 1], None);
        let twice = SlotRequest::Copy(&twice);
        assert_eq!(blocked_by(&mut mrt, twice_node.0, 0, &twice), vec![x]);
        let mut evicted = Vec::new();
        mrt.place_evicting_into(twice_node, 0, &twice, &mut evicted);
        assert_eq!(evicted, vec![x]);
        assert_eq!(holders_of(&mrt, 0), vec![twice_node]);
        // With one write port the same request can never fit, whether
        // that port is free or held.
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = TimeMrt::new(&m, 1);
        assert_eq!(
            mrt.try_place(twice_node, 0, &twice),
            PlaceOutcome::Impossible
        );
        assert_eq!(mrt.try_place(x, 0, &once), PlaceOutcome::Placed);
        assert_eq!(
            mrt.try_place(twice_node, 0, &twice),
            PlaceOutcome::Impossible
        );
    }

    #[test]
    fn a_request_needing_two_held_ports_names_both_holders() {
        // Both write ports of cluster 1 are held; a copy naming cluster 1
        // twice must evict both holders, so both are named at once.
        let m = presets::two_cluster_gp(2, 2);
        let mut mrt = TimeMrt::new(&m, 1);
        let once = copy(0, &[1], None);
        let once = SlotRequest::Copy(&once);
        assert_eq!(mrt.try_place(NodeId(0), 0, &once), PlaceOutcome::Placed);
        assert_eq!(mrt.try_place(NodeId(1), 0, &once), PlaceOutcome::Placed);
        let twice = copy(0, &[1, 1], None);
        let twice = SlotRequest::Copy(&twice);
        assert_eq!(
            blocked_by(&mut mrt, 2, 0, &twice),
            vec![NodeId(0), NodeId(1)]
        );
        let mut evicted = Vec::new();
        mrt.place_evicting_into(NodeId(2), 0, &twice, &mut evicted);
        assert_eq!(evicted, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn impossible_request_panics_on_eviction() {
        let m = presets::unified_gp(1); // no interconnect
        let mut mrt = TimeMrt::new(&m, 1);
        let meta = copy(0, &[0], None);
        mrt.place_evicting_into(NodeId(0), 0, &SlotRequest::Copy(&meta), &mut Vec::new());
    }

    #[test]
    fn remove_frees_only_the_named_node_in_the_named_row() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = TimeMrt::new(&m, 2);
        let load = fu(0, OpKind::Load);
        assert_eq!(mrt.try_place(NodeId(0), 1, &load), PlaceOutcome::Placed);
        assert_eq!(mrt.try_place(NodeId(1), 1, &load), PlaceOutcome::Placed);
        // Naming the wrong row frees nothing.
        mrt.remove(NodeId(0), 0);
        assert_eq!(holders_of(&mrt, 1), vec![NodeId(0), NodeId(1)]);
        mrt.remove(NodeId(0), 1);
        assert_eq!(holders_of(&mrt, 1), vec![NodeId(1)]);
        // A copy's read port, write port and bus all come free at once.
        let meta = copy(0, &[1], None);
        let req = SlotRequest::Copy(&meta);
        assert_eq!(mrt.try_place(NodeId(2), 1, &req), PlaceOutcome::Placed);
        mrt.remove(NodeId(2), 1);
        assert_eq!(holders_of(&mrt, 1), vec![NodeId(1)]);
        assert_eq!(mrt.try_place(NodeId(0), 1, &load), PlaceOutcome::Placed);
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn row_bound_checked() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 2);
        let _ = mrt.try_place(NodeId(0), 2, &fu(0, OpKind::IntAlu));
    }

    #[test]
    fn reset_drops_placements_and_changes_ii() {
        let m = presets::unified_gp(2);
        let mut mrt = TimeMrt::new(&m, 2);
        let req = fu(0, OpKind::IntAlu);
        assert_eq!(mrt.try_place(NodeId(0), 1, &req), PlaceOutcome::Placed);
        assert_eq!(mrt.try_place(NodeId(1), 0, &req), PlaceOutcome::Placed);
        mrt.reset(4);
        assert_eq!(mrt.ii(), 4);
        assert!((0..4).all(|r| holders_of(&mrt, r).is_empty()));
        // Fresh rows usable, including rows beyond the old II.
        assert_eq!(mrt.try_place(NodeId(0), 3, &req), PlaceOutcome::Placed);
        // Shrinking back also works without reallocation.
        mrt.reset(1);
        assert!(holders_of(&mrt, 0).is_empty());
        assert_eq!(mrt.try_place(NodeId(5), 0, &req), PlaceOutcome::Placed);
    }

    #[test]
    fn sweep_reuses_one_table() {
        // Simulates the II sweep: many resets, placements stay coherent.
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        let req = fu(0, OpKind::IntAlu);
        for ii in 1..=16u32 {
            mrt.reset(ii);
            for r in 0..ii {
                assert_eq!(mrt.try_place(NodeId(r), r, &req), PlaceOutcome::Placed);
            }
            assert!((0..ii).all(|r| holders_of(&mrt, r) == vec![NodeId(r)]));
            assert_eq!(blocked_by(&mut mrt, 99, ii - 1, &req), vec![NodeId(ii - 1)]);
        }
    }

    #[test]
    fn probe_reports_outcomes_and_blockers() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        assert_eq!(
            mrt.try_place(NodeId(0), 0, &fu(0, OpKind::IntAlu)),
            PlaceOutcome::Placed
        );
        let load = fu(0, OpKind::Load);
        assert_eq!(blocked_by(&mut mrt, 1, 0, &load), vec![NodeId(0)]);
        let meta = copy(0, &[0], None);
        assert_eq!(
            mrt.try_place(NodeId(1), 0, &SlotRequest::Copy(&meta)),
            PlaceOutcome::Impossible
        );
    }

    #[test]
    fn packed_rows_span_word_boundaries() {
        // 8 clusters x (4 GP FUs + 4 read + 4 write ports) + 8 buses =
        // 104 columns: occupancy rows span two u64 words. Saturate one
        // cluster whose columns straddle nothing, then one whose port
        // columns live in the second word, and check conflicts land
        // exactly where the unpacked scan put them.
        let m = presets::n_cluster_gp(8, 8, 4);
        let mut mrt = TimeMrt::new(&m, 1);
        for i in 0..4u32 {
            let req = fu(7, OpKind::IntAlu);
            assert_eq!(mrt.try_place(NodeId(i), 0, &req), PlaceOutcome::Placed);
        }
        let load = fu(7, OpKind::Load);
        assert_eq!(blocked_by(&mut mrt, 9, 0, &load), vec![NodeId(0)]);
        // Copies from the last cluster claim ports deep in the row.
        let meta = copy(7, &[6], None);
        let req = SlotRequest::Copy(&meta);
        for i in 10..14u32 {
            assert_eq!(mrt.try_place(NodeId(i), 0, &req), PlaceOutcome::Placed);
        }
        // 4 read ports on cluster 7 exhausted.
        assert_eq!(blocked_by(&mut mrt, 20, 0, &req), vec![NodeId(10)]);
        // Removing a copy whose columns sit in the second word frees them.
        mrt.remove(NodeId(12), 0);
        assert_eq!(mrt.try_place(NodeId(20), 0, &req), PlaceOutcome::Placed);
    }

    #[test]
    fn reset_clears_stale_packed_bits() {
        // Shrink the II below a row that holds placements, then grow back
        // past it: the stale row must probe as empty again.
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 4);
        let req = fu(0, OpKind::IntAlu);
        assert_eq!(mrt.try_place(NodeId(0), 3, &req), PlaceOutcome::Placed);
        mrt.reset(2); // row 3 out of range, bits left stale
        mrt.reset(4); // back in range: must have been re-zeroed
        assert_eq!(mrt.try_place(NodeId(1), 3, &req), PlaceOutcome::Placed);
    }

    #[test]
    fn place_evicting_into_appends() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        let alu = fu(0, OpKind::IntAlu);
        assert_eq!(mrt.try_place(NodeId(0), 0, &alu), PlaceOutcome::Placed);
        let mut out = vec![NodeId(7)];
        mrt.place_evicting_into(NodeId(1), 0, &fu(0, OpKind::Load), &mut out);
        assert_eq!(out, vec![NodeId(7), NodeId(0)]);
    }
}
