//! The time-indexed modulo reservation table used during scheduling.
//!
//! Rows are cycles modulo II; columns are concrete resource instances:
//! every function unit of every cluster, every bus, every point-to-point
//! link, and every bus/link read and write port of every cluster. The
//! iterative modulo scheduler places operations at `cycle mod II`, and on
//! conflict evicts the current holders (Rau's force-place).
//!
//! The table is a dense flat grid with a generation (epoch) counter:
//! clearing or resizing to a new II bumps the epoch so every cell of an
//! older epoch reads as empty. Occupancy is additionally mirrored in
//! `u64`-word bitset rows, so the scheduler's free-column probes are mask
//! tests and trailing-zero scans instead of per-slot holder walks (the
//! grid itself is only consulted to name blockers). Placement state, the
//! planning scratch, and per-node column lists are all reused across
//! attempts, so a warmed table performs no heap allocation on the
//! place/evict/remove/reset path (see [`TimeMrt::reset`]).

use clasp_ddg::{NodeId, OpKind};
use clasp_machine::{ClusterId, LinkId, MachineSpec};

/// A resource request for placing one node at one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotRequest {
    /// A real operation needing one function unit on its cluster.
    Fu {
        /// The cluster the operation is assigned to.
        cluster: ClusterId,
        /// The operation kind (decides dedicated-vs-GP unit eligibility).
        kind: OpKind,
    },
    /// A copy needing one read port at the source, one write port per
    /// target, and one bus (`link == None`) or the given link.
    Copy {
        /// Source cluster.
        src: ClusterId,
        /// Destination clusters (several only on broadcast buses).
        targets: Vec<ClusterId>,
        /// Dedicated link for point-to-point machines.
        link: Option<LinkId>,
    },
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

/// The set of nodes blocking a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Current holders that would need to be evicted (deduplicated). Empty
    /// means the request can never fit (a needed resource has too few
    /// instances for it).
    pub blockers: Vec<NodeId>,
}

/// Result of a non-allocating placement probe ([`TimeMrt::try_place_quiet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceOutcome {
    /// The node was placed; the resources are now held.
    Placed,
    /// Current holders block the placement (read them, at least one, with
    /// [`TimeMrt::last_blockers`] or evict via
    /// [`TimeMrt::place_evicting_into`]).
    Blocked,
    /// The request can never fit on this machine: a needed resource has
    /// no instance, or fewer than the request itself claims (a copy naming
    /// one target cluster more often than it has write ports).
    Impossible,
}

/// One grid cell: occupied in epoch `epoch` by `holder`. A cell whose
/// epoch differs from the table's current epoch is empty.
#[derive(Debug, Clone, Copy)]
struct Cell {
    epoch: u32,
    holder: NodeId,
}

const EMPTY_CELL: Cell = Cell {
    epoch: 0,
    holder: NodeId(0),
};

/// Sentinel for "not placed" in the per-node row table.
const ROW_NONE: u32 = u32::MAX;

/// Time-indexed MRT for `machine` at a fixed II.
///
/// Backed by a dense `columns x rows` grid with an epoch counter, so
/// [`TimeMrt::clear`] and [`TimeMrt::reset`] are O(1) and a warmed table
/// allocates nothing while scheduling.
///
/// # Examples
///
/// ```
/// use clasp_mrt::{SlotRequest, TimeMrt};
/// use clasp_machine::{presets, ClusterId};
/// use clasp_ddg::{NodeId, OpKind};
///
/// let m = presets::unified_gp(2);
/// let mut mrt = TimeMrt::new(&m, 2);
/// let req = SlotRequest::Fu { cluster: ClusterId(0), kind: OpKind::IntAlu };
/// assert!(mrt.try_place(NodeId(0), 0, &req).is_ok());
/// assert!(mrt.try_place(NodeId(1), 0, &req).is_ok());
/// // Row 0 is full (2 GP units); a third op conflicts.
/// assert!(mrt.try_place(NodeId(2), 0, &req).is_err());
/// assert!(mrt.try_place(NodeId(2), 1, &req).is_ok());
/// // Move to a different II without reallocating: old placements vanish.
/// mrt.reset(3);
/// assert_eq!(mrt.placed_count(), 0);
/// assert!(mrt.try_place(NodeId(2), 2, &req).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct TimeMrt {
    ii: u32,
    layout: Layout,
    /// Cells and nodes are live only when their epoch matches.
    epoch: u32,
    /// Allocated rows per column (`>= ii`; grows, never shrinks).
    cap_rows: usize,
    /// `grid[col * cap_rows + row]`.
    grid: Vec<Cell>,
    /// `u64` words per packed occupancy row (`ceil(layout.total / 64)`).
    words: usize,
    /// Packed occupancy, row-major: bit `col % 64` of
    /// `occ[row * words + col / 64]` is set iff `col` is held at `row` in
    /// the current epoch. Rows `>= ii` may hold stale bits — they are
    /// never probed, and [`TimeMrt::reset`] re-zeroes every row of the
    /// new II before they come back into range.
    occ: Vec<u64>,
    node_epoch: Vec<u32>,
    node_row: Vec<u32>,
    /// Columns held per node; inner capacity persists across epochs.
    node_cols: Vec<Vec<usize>>,
    placed: usize,
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
        let words = layout.total.div_ceil(64);
        TimeMrt {
            ii,
            grid: vec![EMPTY_CELL; layout.total * cap_rows],
            layout,
            epoch: 1,
            cap_rows,
            words,
            occ: vec![0; words * cap_rows],
            node_epoch: Vec::new(),
            node_row: Vec::new(),
            node_cols: Vec::new(),
            placed: 0,
            plan_cols: Vec::new(),
            plan_blockers: Vec::new(),
        }
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The row (`cycle mod II`) and nothing else for a placed node.
    pub fn row_of(&self, node: NodeId) -> Option<u32> {
        let i = node.index();
        if self.is_placed(i) {
            Some(self.node_row[i])
        } else {
            None
        }
    }

    /// Number of nodes currently placed.
    pub fn placed_count(&self) -> usize {
        self.placed
    }

    /// Drop every placement and move the table to a new II: the epoch
    /// counter is bumped, invalidating all cells at once, and the packed
    /// occupancy rows of the new II are zeroed (a handful of words per
    /// row). The backing buffers only grow (doubling) when `ii` exceeds
    /// every II seen before, so sweeping `ii = min..=max` over one table
    /// performs O(log max) allocations total and none once warmed.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn reset(&mut self, ii: u32) {
        assert!(ii > 0, "II must be positive");
        self.ii = ii;
        if ii as usize > self.cap_rows {
            self.cap_rows = (self.cap_rows * 2).max(ii as usize);
            self.grid.clear();
            self.grid
                .resize(self.layout.total * self.cap_rows, EMPTY_CELL);
            self.occ.clear();
            self.occ.resize(self.words * self.cap_rows, 0);
        }
        self.bump_epoch();
        self.clear_occ_rows();
        self.placed = 0;
    }

    /// Clear all placements (keeps the II).
    pub fn clear(&mut self) {
        self.bump_epoch();
        self.clear_occ_rows();
        self.placed = 0;
    }

    /// Zero the packed occupancy of every row in `0..ii` (rows beyond the
    /// II are cleaned up by whichever future `reset` brings them back
    /// into range).
    fn clear_occ_rows(&mut self) {
        self.occ[..self.words * self.ii as usize].fill(0);
    }

    /// Blockers recorded by the most recent [`TimeMrt::try_place_quiet`]
    /// that returned [`PlaceOutcome::Blocked`] (deduplicated).
    pub fn last_blockers(&self) -> &[NodeId] {
        &self.plan_blockers
    }

    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wraparound (once per 2^32 resets): physically clear.
            for cell in &mut self.grid {
                cell.epoch = 0;
            }
            for e in &mut self.node_epoch {
                *e = 0;
            }
            self.occ.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    fn is_placed(&self, idx: usize) -> bool {
        idx < self.node_epoch.len()
            && self.node_epoch[idx] == self.epoch
            && self.node_row[idx] != ROW_NONE
    }

    fn ensure_node(&mut self, idx: usize) {
        if idx >= self.node_epoch.len() {
            self.node_epoch.resize(idx + 1, 0);
            self.node_row.resize(idx + 1, ROW_NONE);
            self.node_cols.resize_with(idx + 1, Vec::new);
        }
    }

    fn holder(&self, col: usize, row: usize) -> Option<NodeId> {
        let cell = self.grid[col * self.cap_rows + row];
        if cell.epoch == self.epoch {
            Some(cell.holder)
        } else {
            None
        }
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
        let occ = &self.occ[row * self.words..(row + 1) * self.words];
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
    /// that this request has not claimed itself; its holder is reported
    /// as a blocker. `Err(())` when there is no such column: the request
    /// alone needs more instances than the machine has (a copy naming
    /// one target cluster more often than it has write ports), which no
    /// eviction can fix.
    fn claim_one(
        &self,
        row: usize,
        groups: &[(usize, usize)],
        cols: &mut Vec<usize>,
        blockers: &mut Vec<NodeId>,
    ) -> Result<bool, ()> {
        for &(base, count) in groups {
            if let Some(c) = self.first_free_in(base, count, row, cols) {
                cols.push(c);
                return Ok(true);
            }
        }
        let owner = groups
            .iter()
            .find(|&&(_, count)| count > 0)
            .and_then(|&(base, count)| (base..base + count).find(|c| !cols.contains(c)))
            .and_then(|c| self.holder(c, row))
            .ok_or(())?;
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
                if len == 0 {
                    return Err(());
                }
                self.claim_one(row, &groups[..len], cols, blockers)
            }
            SlotRequest::Copy { src, targets, link } => {
                let mut ok = true;
                let r = self.layout.read_range(*src);
                if r.1 == 0 {
                    return Err(());
                }
                ok &= self.claim_one(row, &[r], cols, blockers)?;
                for &t in targets {
                    let w = self.layout.write_range(t);
                    if w.1 == 0 {
                        return Err(());
                    }
                    ok &= self.claim_one(row, &[w], cols, blockers)?;
                }
                match link {
                    Some(l) => {
                        ok &= self.claim_one(row, &[self.layout.link_col(*l)], cols, blockers)?;
                    }
                    None => {
                        let b = self.layout.bus_range();
                        if b.1 == 0 {
                            return Err(());
                        }
                        ok &= self.claim_one(row, &[b], cols, blockers)?;
                    }
                }
                Ok(ok)
            }
        }
    }

    /// Non-allocating placement probe: like [`TimeMrt::try_place`] but
    /// reports the outcome as a plain enum and keeps the blocker list in
    /// internal scratch ([`TimeMrt::last_blockers`]). This is the hot path
    /// of the iterative scheduler's window scan.
    ///
    /// # Panics
    ///
    /// Panics if `row >= II` or `node` is already placed.
    pub fn try_place_quiet(&mut self, node: NodeId, row: u32, req: &SlotRequest) -> PlaceOutcome {
        assert!(row < self.ii, "row out of range");
        let idx = node.index();
        self.ensure_node(idx);
        assert!(!self.is_placed(idx), "{node} already placed");

        let mut cols = std::mem::take(&mut self.plan_cols);
        let mut blockers = std::mem::take(&mut self.plan_blockers);
        cols.clear();
        blockers.clear();
        let planned = self.plan_into(row as usize, req, &mut cols, &mut blockers);
        let outcome = match planned {
            Err(()) => PlaceOutcome::Impossible,
            Ok(false) => PlaceOutcome::Blocked,
            Ok(true) => {
                for &c in &cols {
                    let cell = &mut self.grid[c * self.cap_rows + row as usize];
                    debug_assert!(cell.epoch != self.epoch);
                    *cell = Cell {
                        epoch: self.epoch,
                        holder: node,
                    };
                    let word = &mut self.occ[row as usize * self.words + c / 64];
                    debug_assert!(*word & (1 << (c % 64)) == 0);
                    *word |= 1 << (c % 64);
                }
                self.node_epoch[idx] = self.epoch;
                self.node_row[idx] = row;
                let held = &mut self.node_cols[idx];
                held.clear();
                held.extend_from_slice(&cols);
                self.placed += 1;
                PlaceOutcome::Placed
            }
        };
        self.plan_cols = cols;
        self.plan_blockers = blockers;
        outcome
    }

    /// Try to place `node` at `row` (must be `< II`). On success the
    /// resources are held until [`TimeMrt::remove`].
    ///
    /// # Errors
    ///
    /// A [`Conflict`] naming the nodes that block the placement (empty if
    /// the request is structurally impossible on this machine).
    ///
    /// # Panics
    ///
    /// Panics if `row >= II` or `node` is already placed.
    pub fn try_place(&mut self, node: NodeId, row: u32, req: &SlotRequest) -> Result<(), Conflict> {
        match self.try_place_quiet(node, row, req) {
            PlaceOutcome::Placed => Ok(()),
            PlaceOutcome::Blocked => Err(Conflict {
                blockers: self.plan_blockers.clone(),
            }),
            PlaceOutcome::Impossible => Err(Conflict {
                blockers: Vec::new(),
            }),
        }
    }

    /// Place `node` at `row`, evicting whoever is in the way; the evicted
    /// nodes are appended to `evicted` (which is not cleared first). The
    /// caller re-schedules them later (Rau's iterative force-place). Does
    /// not allocate beyond `evicted`'s own growth.
    ///
    /// # Panics
    ///
    /// Panics if the request is structurally impossible
    /// ([`PlaceOutcome::Impossible`]), if `row >= II`, or if `node` is
    /// already placed.
    pub fn place_evicting_into(
        &mut self,
        node: NodeId,
        row: u32,
        req: &SlotRequest,
        evicted: &mut Vec<NodeId>,
    ) {
        loop {
            match self.try_place_quiet(node, row, req) {
                PlaceOutcome::Placed => return,
                PlaceOutcome::Blocked => {
                    let mut blockers = std::mem::take(&mut self.plan_blockers);
                    for &b in &blockers {
                        self.remove(b);
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

    /// Remove `node`'s placement (no-op if absent).
    pub fn remove(&mut self, node: NodeId) {
        let idx = node.index();
        if !self.is_placed(idx) {
            return;
        }
        let row = self.node_row[idx] as usize;
        let cols = std::mem::take(&mut self.node_cols[idx]);
        for &c in &cols {
            let cell = &mut self.grid[c * self.cap_rows + row];
            debug_assert!(cell.epoch == self.epoch && cell.holder == node);
            cell.epoch = 0;
            self.occ[row * self.words + c / 64] &= !(1 << (c % 64));
        }
        self.node_cols[idx] = cols;
        self.node_cols[idx].clear();
        self.node_row[idx] = ROW_NONE;
        self.placed -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_machine::presets;

    fn fu(cluster: u32, kind: OpKind) -> SlotRequest {
        SlotRequest::Fu {
            cluster: ClusterId(cluster),
            kind,
        }
    }

    #[test]
    fn fs_units_fill_by_class() {
        let m = presets::two_cluster_fs(2, 1); // 1 mem, 2 int, 1 fp
        let mut mrt = TimeMrt::new(&m, 1);
        assert!(mrt.try_place(NodeId(0), 0, &fu(0, OpKind::Load)).is_ok());
        // Only one memory unit: second load conflicts and names blocker.
        let e = mrt
            .try_place(NodeId(1), 0, &fu(0, OpKind::Store))
            .unwrap_err();
        assert_eq!(e.blockers, vec![NodeId(0)]);
        // Integer units: two fit.
        assert!(mrt.try_place(NodeId(2), 0, &fu(0, OpKind::IntAlu)).is_ok());
        assert!(mrt.try_place(NodeId(3), 0, &fu(0, OpKind::Shift)).is_ok());
        assert!(mrt.try_place(NodeId(4), 0, &fu(0, OpKind::Branch)).is_err());
    }

    #[test]
    fn gp_units_take_anything() {
        let m = presets::two_cluster_gp(2, 1); // 4 GP per cluster
        let mut mrt = TimeMrt::new(&m, 1);
        for (i, k) in [OpKind::Load, OpKind::FpMult, OpKind::IntAlu, OpKind::Store]
            .into_iter()
            .enumerate()
        {
            assert!(mrt.try_place(NodeId(i as u32), 0, &fu(0, k)).is_ok());
        }
        assert!(mrt.try_place(NodeId(9), 0, &fu(0, OpKind::FpAdd)).is_err());
        // Other cluster independent.
        assert!(mrt.try_place(NodeId(10), 0, &fu(1, OpKind::FpAdd)).is_ok());
    }

    #[test]
    fn rows_are_independent() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 3);
        for r in 0..3 {
            assert!(mrt.try_place(NodeId(r), r, &fu(0, OpKind::IntAlu)).is_ok());
        }
        assert!(mrt.try_place(NodeId(9), 1, &fu(0, OpKind::IntAlu)).is_err());
    }

    #[test]
    fn copy_claims_ports_and_bus() {
        let m = presets::two_cluster_gp(1, 1);
        let mut mrt = TimeMrt::new(&m, 2);
        let req = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(1)],
            link: None,
        };
        assert!(mrt.try_place(NodeId(0), 0, &req).is_ok());
        // Same row: bus and ports busy.
        let e = mrt.try_place(NodeId(1), 0, &req).unwrap_err();
        assert_eq!(e.blockers, vec![NodeId(0)]);
        // Other row fine.
        assert!(mrt.try_place(NodeId(1), 1, &req).is_ok());
    }

    #[test]
    fn reverse_copy_same_row_needs_distinct_ports() {
        // Copy C0->C1 and copy C1->C0 share only the bus.
        let m = presets::two_cluster_gp(2, 1); // 2 buses
        let mut mrt = TimeMrt::new(&m, 1);
        let fwd = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(1)],
            link: None,
        };
        let rev = SlotRequest::Copy {
            src: ClusterId(1),
            targets: vec![ClusterId(0)],
            link: None,
        };
        assert!(mrt.try_place(NodeId(0), 0, &fwd).is_ok());
        assert!(mrt.try_place(NodeId(1), 0, &rev).is_ok());
    }

    #[test]
    fn broadcast_copy_claims_every_target_port() {
        let m = presets::four_cluster_gp(4, 1);
        let mut mrt = TimeMrt::new(&m, 1);
        let req = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(1), ClusterId(2), ClusterId(3)],
            link: None,
        };
        assert!(mrt.try_place(NodeId(0), 0, &req).is_ok());
        // C1's write port is taken.
        let other = SlotRequest::Copy {
            src: ClusterId(2),
            targets: vec![ClusterId(1)],
            link: None,
        };
        let e = mrt.try_place(NodeId(1), 0, &other).unwrap_err();
        assert_eq!(e.blockers, vec![NodeId(0)]);
    }

    #[test]
    fn link_copies_are_exclusive() {
        let m = presets::four_cluster_grid(2);
        let l = m
            .interconnect()
            .link_between(ClusterId(0), ClusterId(1))
            .unwrap();
        let mut mrt = TimeMrt::new(&m, 1);
        let req = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(1)],
            link: Some(l),
        };
        assert!(mrt.try_place(NodeId(0), 0, &req).is_ok());
        let back = SlotRequest::Copy {
            src: ClusterId(1),
            targets: vec![ClusterId(0)],
            link: Some(l),
        };
        assert!(mrt.try_place(NodeId(1), 0, &back).is_err());
    }

    #[test]
    fn eviction_returns_and_frees() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        mrt.try_place(NodeId(0), 0, &fu(0, OpKind::IntAlu)).unwrap();
        let mut evicted = Vec::new();
        mrt.place_evicting_into(NodeId(1), 0, &fu(0, OpKind::Load), &mut evicted);
        assert_eq!(evicted, vec![NodeId(0)]);
        assert_eq!(mrt.row_of(NodeId(0)), None);
        assert_eq!(mrt.row_of(NodeId(1)), Some(0));
    }

    #[test]
    fn a_repeated_copy_target_names_its_real_blocker() {
        // Two write ports on cluster 1. `x` holds port 1 at row 0 and port
        // 0 is free, so a copy naming cluster 1 twice claims port 0 itself
        // and is blocked by `x` alone, which eviction can clear.
        let m = presets::two_cluster_gp(2, 2);
        let mut mrt = TimeMrt::new(&m, 1);
        let once = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(1)],
            link: None,
        };
        let (z, x, twice_node) = (NodeId(0), NodeId(1), NodeId(2));
        mrt.try_place(z, 0, &once).unwrap();
        mrt.try_place(x, 0, &once).unwrap();
        mrt.remove(z);
        let twice = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(1), ClusterId(1)],
            link: None,
        };
        assert_eq!(
            mrt.try_place_quiet(twice_node, 0, &twice),
            PlaceOutcome::Blocked
        );
        assert_eq!(mrt.last_blockers(), &[x]);
        let mut evicted = Vec::new();
        mrt.place_evicting_into(twice_node, 0, &twice, &mut evicted);
        assert_eq!(evicted, vec![x]);
        assert_eq!(mrt.row_of(twice_node), Some(0));
        // With one write port the same request can never fit.
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = TimeMrt::new(&m, 1);
        assert_eq!(
            mrt.try_place_quiet(twice_node, 0, &twice),
            PlaceOutcome::Impossible
        );
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn impossible_request_panics_on_eviction() {
        let m = presets::unified_gp(1); // no interconnect
        let mut mrt = TimeMrt::new(&m, 1);
        let req = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(0)],
            link: None,
        };
        mrt.place_evicting_into(NodeId(0), 0, &req, &mut Vec::new());
    }

    #[test]
    fn remove_and_clear() {
        let m = presets::two_cluster_gp(2, 1);
        let mut mrt = TimeMrt::new(&m, 2);
        mrt.try_place(NodeId(0), 1, &fu(0, OpKind::Load)).unwrap();
        assert_eq!(mrt.placed_count(), 1);
        mrt.remove(NodeId(0));
        assert_eq!(mrt.placed_count(), 0);
        mrt.try_place(NodeId(0), 1, &fu(0, OpKind::Load)).unwrap();
        mrt.clear();
        assert_eq!(mrt.placed_count(), 0);
        assert!(mrt.try_place(NodeId(1), 1, &fu(0, OpKind::Load)).is_ok());
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
        mrt.try_place(NodeId(0), 1, &fu(0, OpKind::IntAlu)).unwrap();
        mrt.try_place(NodeId(1), 0, &fu(0, OpKind::IntAlu)).unwrap();
        mrt.reset(4);
        assert_eq!(mrt.ii(), 4);
        assert_eq!(mrt.placed_count(), 0);
        assert_eq!(mrt.row_of(NodeId(0)), None);
        // Fresh rows usable, including rows beyond the old II.
        assert!(mrt.try_place(NodeId(0), 3, &fu(0, OpKind::IntAlu)).is_ok());
        // Shrinking back also works without reallocation.
        mrt.reset(1);
        assert_eq!(mrt.placed_count(), 0);
        assert!(mrt.try_place(NodeId(5), 0, &fu(0, OpKind::IntAlu)).is_ok());
    }

    #[test]
    fn sweep_reuses_one_table() {
        // Simulates the II sweep: many resets, placements stay coherent.
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        for ii in 1..=16u32 {
            mrt.reset(ii);
            for r in 0..ii {
                assert!(mrt.try_place(NodeId(r), r, &fu(0, OpKind::IntAlu)).is_ok());
            }
            assert_eq!(mrt.placed_count(), ii as usize);
            assert!(mrt
                .try_place(NodeId(99), ii - 1, &fu(0, OpKind::IntAlu))
                .is_err());
        }
    }

    #[test]
    fn quiet_probe_reports_outcomes_and_blockers() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        assert_eq!(
            mrt.try_place_quiet(NodeId(0), 0, &fu(0, OpKind::IntAlu)),
            PlaceOutcome::Placed
        );
        assert_eq!(
            mrt.try_place_quiet(NodeId(1), 0, &fu(0, OpKind::Load)),
            PlaceOutcome::Blocked
        );
        assert_eq!(mrt.last_blockers(), &[NodeId(0)]);
        let req = SlotRequest::Copy {
            src: ClusterId(0),
            targets: vec![ClusterId(0)],
            link: None,
        };
        assert_eq!(
            mrt.try_place_quiet(NodeId(1), 0, &req),
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
            assert!(mrt.try_place(NodeId(i), 0, &fu(7, OpKind::IntAlu)).is_ok());
        }
        let e = mrt
            .try_place(NodeId(9), 0, &fu(7, OpKind::Load))
            .unwrap_err();
        assert_eq!(e.blockers, vec![NodeId(0)]);
        // Copies from the last cluster claim ports deep in the row.
        let req = SlotRequest::Copy {
            src: ClusterId(7),
            targets: vec![ClusterId(6)],
            link: None,
        };
        for i in 10..14u32 {
            assert!(mrt.try_place(NodeId(i), 0, &req).is_ok());
        }
        // 4 read ports on cluster 7 exhausted.
        assert!(mrt.try_place(NodeId(20), 0, &req).is_err());
    }

    #[test]
    fn reset_clears_stale_packed_bits() {
        // Shrink the II below a row that holds placements, then grow back
        // past it: the stale row must probe as empty again.
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 4);
        mrt.try_place(NodeId(0), 3, &fu(0, OpKind::IntAlu)).unwrap();
        mrt.reset(2); // row 3 out of range, bits left stale
        mrt.reset(4); // back in range: must have been re-zeroed
        assert!(mrt.try_place(NodeId(1), 3, &fu(0, OpKind::IntAlu)).is_ok());
    }

    #[test]
    fn place_evicting_into_appends() {
        let m = presets::unified_gp(1);
        let mut mrt = TimeMrt::new(&m, 1);
        mrt.try_place(NodeId(0), 0, &fu(0, OpKind::IntAlu)).unwrap();
        let mut out = vec![NodeId(7)];
        mrt.place_evicting_into(NodeId(1), 0, &fu(0, OpKind::Load), &mut out);
        assert_eq!(out, vec![NodeId(7), NodeId(0)]);
    }
}
