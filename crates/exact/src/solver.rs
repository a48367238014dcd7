//! A from-scratch CDCL SAT solver, small and strictly deterministic.
//!
//! The classic architecture — two-watched-literal propagation, first-UIP
//! conflict analysis, VSIDS-style variable activities, phase saving, and
//! Luby restarts — with every tie broken by variable index so two runs on
//! the same clause stream make bit-identical decisions. No clause
//! deletion: the encoder produces formulas small enough (tens of
//! thousands of clauses) that keeping every learnt clause is cheaper than
//! the bookkeeping to age them out, and it keeps the learnt-clause
//! soundness test able to audit everything the solver ever derived.
//!
//! The solver is *bounded*: [`Solver::solve`] takes a conflict budget and
//! returns [`Outcome::Unknown`] when it is spent, which the II-iteration
//! driver surfaces as a typed budget failure rather than a wrong answer.

use std::cell::RefCell;
use std::fmt;

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: variable plus sign, packed as `var << 1 | sign`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether this is the negated polarity.
    pub fn is_neg(self) -> bool {
        self.0 & 1 != 0
    }

    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "-x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// Result of a bounded solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Satisfiable; the model maps every variable to a value. A variable
    /// no clause or decision fixed reads its saved phase, which is
    /// `false` until a backtrack saves another.
    Sat(Vec<bool>),
    /// Proved unsatisfiable.
    Unsat,
    /// Conflict budget exhausted before an answer.
    Unknown,
}

const VAL_FALSE: u8 = 0;
const VAL_TRUE: u8 = 1;
const VAL_UNDEF: u8 = 2;

/// Sentinel clause index for "no reason" (decisions, level-0 facts).
const NO_REASON: u32 = u32::MAX;

/// Restart interval base, multiplied by the Luby sequence.
const RESTART_BASE: u64 = 100;

/// Activity bump decay: bumps grow by `1 / DECAY` per conflict.
const DECAY: f64 = 0.95;

/// A clause: `len` literals starting at `start` in the solver's literal
/// arena.
#[derive(Debug, Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
}

impl Clause {
    /// The clause's literals as a range of the arena.
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Every buffer whose size follows the formula's. A dropped [`Solver`]
/// leaves them in its thread's spare slot, and the next [`Solver::new`]
/// on that thread empties and reuses them, so a formula no larger than
/// one the thread has built before costs the allocator nothing here.
#[derive(Debug, Default)]
struct Buffers {
    clauses: Vec<Clause>,
    /// The literal arena: every clause's literals, in clause order.
    lits: Vec<Lit>,
    /// `watches[l.idx()]`: indices of clauses currently watching `l`.
    /// A recycled solver keeps the (emptied) lists of its largest
    /// formula, so there may be more lists than literals.
    watches: Vec<Vec<u32>>,
    /// Per-variable truth value (`VAL_*`).
    assigns: Vec<u8>,
    /// Per-variable saved phase for decisions.
    polarity: Vec<bool>,
    /// Per-variable VSIDS activity.
    activity: Vec<f64>,
    /// Per-variable decision level (valid while assigned).
    level: Vec<u32>,
    /// Per-variable reason clause (valid while assigned).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Binary max-heap of unassigned decision candidates.
    heap: Vec<Var>,
    /// Position of each var in `heap` (`usize::MAX` = absent).
    heap_pos: Vec<usize>,
    /// Scratch for conflict analysis: variables already counted.
    seen: Vec<bool>,
    /// Scratch for conflict analysis: the variables marked in `seen`.
    marked: Vec<Var>,
    /// Scratch for conflict analysis: the clause being learnt.
    learnt: Vec<Lit>,
    /// Scratch for normalizing an added clause.
    scratch: Vec<Lit>,
}

impl Buffers {
    /// Empty every buffer, keeping its allocation. The exhaustive
    /// destructuring makes a buffer added later fail to compile until it
    /// is cleared here too.
    fn clear(&mut self) {
        let Buffers {
            clauses,
            lits,
            watches,
            assigns,
            polarity,
            activity,
            level,
            reason,
            trail,
            trail_lim,
            heap,
            heap_pos,
            seen,
            marked,
            learnt,
            scratch,
        } = self;
        clauses.clear();
        lits.clear();
        watches.iter_mut().for_each(Vec::clear);
        assigns.clear();
        polarity.clear();
        activity.clear();
        level.clear();
        reason.clear();
        trail.clear();
        trail_lim.clear();
        heap.clear();
        heap_pos.clear();
        seen.clear();
        marked.clear();
        learnt.clear();
        scratch.clear();
    }
}

thread_local! {
    /// The buffers of the last solver dropped on this thread.
    static SPARE: RefCell<Option<Buffers>> = const { RefCell::new(None) };
}

/// The CDCL solver. Build the formula with [`Solver::new_var`] and
/// [`Solver::add_clause`], then call [`Solver::solve`] once.
///
/// Clauses live in one literal arena. A dropped solver hands its buffers
/// to the next solver made on the same thread, emptied; every decision
/// is the same as on fresh buffers.
#[derive(Debug)]
pub struct Solver {
    buf: Buffers,
    qhead: usize,
    var_inc: f64,
    conflicts: u64,
    /// `false` once a top-level contradiction is known.
    ok: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Drop for Solver {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // `try_with`: the slot is gone once the thread is shutting down,
        // and the buffers are then freed with the closure. They are not
        // a `Solver`, so freeing them never comes back here.
        let _ = SPARE.try_with(|slot| {
            if let Ok(mut slot) = slot.try_borrow_mut() {
                *slot = Some(buf);
            }
        });
    }
}

impl Solver {
    /// An empty solver with no variables, on the buffers of the last
    /// solver dropped on this thread when there is one.
    pub fn new() -> Solver {
        let mut buf = SPARE
            .try_with(|slot| slot.borrow_mut().take())
            .ok()
            .flatten()
            .unwrap_or_default();
        buf.clear();
        Solver {
            buf,
            qhead: 0,
            var_inc: 1.0,
            conflicts: 0,
            ok: true,
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let b = &mut self.buf;
        let v = b.assigns.len() as Var;
        b.assigns.push(VAL_UNDEF);
        b.polarity.push(false);
        b.activity.push(0.0);
        b.level.push(0);
        b.reason.push(NO_REASON);
        let lists = 2 * b.assigns.len();
        if b.watches.len() < lists {
            b.watches.resize_with(lists, Vec::new);
        }
        b.seen.push(false);
        b.heap_pos.push(usize::MAX);
        self.heap_insert(v);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.buf.assigns.len()
    }

    /// Total conflicts across all `solve` calls.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Every learnt clause of two or more literals, in the order learnt
    /// (diagnostics / soundness audits). A learnt unit is asserted at
    /// level 0 and not stored.
    pub fn learnt_clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.buf
            .clauses
            .iter()
            .filter(|c| c.learnt)
            .map(|c| &self.buf.lits[c.range()])
    }

    /// Every literal fixed at decision level 0, in the order assigned,
    /// each with whether it was asserted without a reason clause (a unit
    /// of the formula or a learnt unit) rather than propagated.
    #[cfg(test)]
    fn level0_trail(&self) -> impl Iterator<Item = (Lit, bool)> + '_ {
        let b = &self.buf;
        let end = b.trail_lim.first().copied().unwrap_or(b.trail.len());
        b.trail[..end]
            .iter()
            .map(|&l| (l, b.reason[l.var() as usize] == NO_REASON))
    }

    fn lit_value(&self, l: Lit) -> u8 {
        let v = self.buf.assigns[l.var() as usize];
        if v == VAL_UNDEF {
            VAL_UNDEF
        } else {
            v ^ (l.is_neg() as u8)
        }
    }

    fn decision_level(&self) -> u32 {
        self.buf.trail_lim.len() as u32
    }

    /// Add a clause at decision level 0, where [`Solver::solve`] always
    /// returns. A clause with a literal already true at level 0 is
    /// dropped; any other is stored without its false literals. Returns
    /// `false` once the formula is known unsatisfiable at top level.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable, even when
    /// another literal of the clause is already true.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        // Checked before the copy and the sort: on a lift most clauses
        // hold a literal the witness's units already made true.
        let mut satisfied = false;
        for &l in lits {
            assert!((l.var() as usize) < self.num_vars(), "unknown variable");
            satisfied |= self.lit_value(l) == VAL_TRUE;
        }
        if satisfied {
            return true;
        }
        let mut c = std::mem::take(&mut self.buf.scratch);
        c.clear();
        c.extend_from_slice(lits);
        let ok = self.add_normalized(&mut c);
        self.buf.scratch = c;
        ok
    }

    /// [`Solver::add_clause`] on a copy of a clause with no true literal,
    /// which it may reorder and shrink.
    fn add_normalized(&mut self, c: &mut Vec<Lit>) -> bool {
        c.sort_unstable();
        c.dedup();
        // Tautology: drop it.
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true;
        }
        c.retain(|&l| self.lit_value(l) != VAL_FALSE);
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(c, false);
                true
            }
        }
    }

    /// Append `lits` (at least two) to the arena as the next clause and
    /// watch its first two literals; returns the clause index.
    fn attach(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let b = &mut self.buf;
        let ci = b.clauses.len() as u32;
        let start = u32::try_from(b.lits.len()).expect("literal arena exceeds u32");
        b.watches[lits[0].idx()].push(ci);
        b.watches[lits[1].idx()].push(ci);
        b.lits.extend_from_slice(lits);
        b.clauses.push(Clause {
            start,
            len: lits.len() as u32,
            learnt,
        });
        ci
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), VAL_UNDEF);
        let level = self.decision_level();
        let b = &mut self.buf;
        let v = l.var() as usize;
        b.assigns[v] = if l.is_neg() { VAL_FALSE } else { VAL_TRUE };
        b.level[v] = level;
        b.reason[v] = reason;
        b.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.buf.trail.len() {
            let p = self.buf.trail[self.qhead];
            self.qhead += 1;
            let watch_lit = !p;
            let mut ws = std::mem::take(&mut self.buf.watches[watch_lit.idx()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                let cl = self.buf.clauses[ci as usize].range();
                let (w0, w1) = (cl.start, cl.start + 1);
                // Make sure the false literal sits at position 1.
                if self.buf.lits[w0] == watch_lit {
                    self.buf.lits.swap(w0, w1);
                }
                debug_assert_eq!(self.buf.lits[w1], watch_lit);
                let first = self.buf.lits[w0];
                if self.lit_value(first) == VAL_TRUE {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in w1 + 1..cl.end {
                    let l = self.buf.lits[k];
                    if self.lit_value(l) != VAL_FALSE {
                        self.buf.lits.swap(w1, k);
                        self.buf.watches[l.idx()].push(ci);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflict.
                if self.lit_value(first) == VAL_FALSE {
                    self.buf.watches[watch_lit.idx()] = ws;
                    self.qhead = self.buf.trail.len();
                    return Some(ci);
                }
                self.unchecked_enqueue(first, ci);
                i += 1;
            }
            self.buf.watches[watch_lit.idx()] = ws;
        }
        None
    }

    /// First-UIP conflict analysis. Writes the learnt clause into
    /// `learnt` (asserting literal first, a highest-level remainder
    /// literal second) and returns the backtrack level.
    fn analyze(&mut self, mut confl: u32, learnt: &mut Vec<Lit>) -> u32 {
        learnt.clear();
        learnt.push(Lit(0));
        let mut marked = std::mem::take(&mut self.buf.marked);
        let mut counter = 0usize;
        let mut index = self.buf.trail.len();
        let mut p: Option<Lit> = None;
        loop {
            let cl = self.buf.clauses[confl as usize].range();
            let skip = usize::from(p.is_some());
            for k in cl.start + skip..cl.end {
                let q = self.buf.lits[k];
                let v = q.var() as usize;
                if !self.buf.seen[v] && self.buf.level[v] > 0 {
                    self.buf.seen[v] = true;
                    marked.push(q.var());
                    self.bump(q.var());
                    if self.buf.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next trail literal contributing to the conflict.
            loop {
                index -= 1;
                if self.buf.seen[self.buf.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.buf.trail[index];
            self.buf.seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.buf.reason[pl.var() as usize];
            debug_assert_ne!(confl, NO_REASON);
        }
        for v in marked.drain(..) {
            self.buf.seen[v as usize] = false;
        }
        self.buf.marked = marked;
        if learnt.len() == 1 {
            return 0;
        }
        // Move a maximum-level remainder literal into slot 1 so the
        // learnt clause's watches are coherent after backtracking.
        let level = |l: Lit| self.buf.level[l.var() as usize];
        let mut max_i = 1;
        for k in 2..learnt.len() {
            if level(learnt[k]) > level(learnt[max_i]) {
                max_i = k;
            }
        }
        learnt.swap(1, max_i);
        level(learnt[1])
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let lim = self.buf.trail_lim.pop().expect("level > 0");
            while self.buf.trail.len() > lim {
                let l = self.buf.trail.pop().expect("trail non-empty");
                let v = l.var() as usize;
                self.buf.polarity[v] = self.buf.assigns[v] == VAL_TRUE;
                self.buf.assigns[v] = VAL_UNDEF;
                self.buf.reason[v] = NO_REASON;
                self.heap_insert(l.var());
            }
        }
        self.qhead = self.buf.trail.len();
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.buf.activity[v as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.buf.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.buf.heap_pos[v as usize] != usize::MAX {
            self.heap_sift_up(self.buf.heap_pos[v as usize]);
        }
    }

    fn decay(&mut self) {
        self.var_inc /= DECAY;
    }

    // --- decision heap: max by (activity, lowest index wins ties) ---

    fn heap_better(&self, a: Var, b: Var) -> bool {
        let (aa, ab) = (self.buf.activity[a as usize], self.buf.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn heap_insert(&mut self, v: Var) {
        if self.buf.heap_pos[v as usize] != usize::MAX {
            return;
        }
        self.buf.heap_pos[v as usize] = self.buf.heap.len();
        self.buf.heap.push(v);
        self.heap_sift_up(self.buf.heap.len() - 1);
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_better(self.buf.heap[i], self.buf.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        let len = self.buf.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < len && self.heap_better(self.buf.heap[l], self.buf.heap[best]) {
                best = l;
            }
            if r < len && self.heap_better(self.buf.heap[r], self.buf.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        let b = &mut self.buf;
        b.heap.swap(i, j);
        b.heap_pos[b.heap[i] as usize] = i;
        b.heap_pos[b.heap[j] as usize] = j;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        let b = &mut self.buf;
        let top = *b.heap.first()?;
        b.heap_pos[top as usize] = usize::MAX;
        let last = b.heap.pop().expect("non-empty");
        if !b.heap.is_empty() {
            b.heap[0] = last;
            b.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    /// Highest-activity unassigned variable (deterministic).
    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.buf.assigns[v as usize] == VAL_UNDEF {
                return Some(v);
            }
        }
        None
    }

    fn record_learnt(&mut self, learnt: &[Lit]) {
        let reason = if learnt.len() == 1 {
            NO_REASON
        } else {
            self.attach(learnt, true)
        };
        self.unchecked_enqueue(learnt[0], reason);
    }

    /// Solve the formula under a conflict budget.
    ///
    /// After level-0 propagation, the total assignment in which every
    /// unassigned variable takes its saved phase is tried first. When it
    /// satisfies every stored clause it is the model, with no decision
    /// made: it is the model the CDCL loop's first descent reaches,
    /// since every decision there takes the saved phase and a
    /// propagation can only force a value that assignment already holds.
    /// Otherwise the CDCL loop runs as if the check had not been made.
    pub fn solve(&mut self, max_conflicts: u64) -> Outcome {
        if !self.propagate_level0() {
            return Outcome::Unsat;
        }
        if let Some(model) = self.phase_model() {
            return Outcome::Sat(model);
        }
        self.cdcl(max_conflicts)
    }

    /// Propagate the level-0 units; `false` once the formula is refuted
    /// at level 0.
    fn propagate_level0(&mut self) -> bool {
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
        self.ok
    }

    /// The level-0 assignment completed by every unassigned variable's
    /// saved phase, when it satisfies every stored clause. The scan stops
    /// at the first clause it leaves unsatisfied.
    fn phase_model(&self) -> Option<Vec<bool>> {
        let b = &self.buf;
        let value = |v: usize| match b.assigns[v] {
            VAL_UNDEF => b.polarity[v],
            a => a == VAL_TRUE,
        };
        let satisfies = |c: &Clause| {
            b.lits[c.range()]
                .iter()
                .any(|&l| value(l.var() as usize) != l.is_neg())
        };
        b.clauses
            .iter()
            .all(satisfies)
            .then(|| (0..b.assigns.len()).map(value).collect())
    }

    /// The CDCL loop, from level 0 once level-0 propagation found no
    /// conflict; `solve` runs it when the saved-phase completion
    /// declines.
    fn cdcl(&mut self, max_conflicts: u64) -> Outcome {
        let start_conflicts = self.conflicts;
        let mut restarts = 0u64;
        let mut since_restart = 0u64;
        let mut limit = RESTART_BASE * luby(restarts);
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Outcome::Unsat;
                }
                let mut learnt = std::mem::take(&mut self.buf.learnt);
                let bt = self.analyze(confl, &mut learnt);
                self.backtrack(bt);
                self.record_learnt(&learnt);
                self.buf.learnt = learnt;
                self.decay();
                if self.conflicts - start_conflicts >= max_conflicts {
                    self.backtrack(0);
                    return Outcome::Unknown;
                }
            } else if since_restart >= limit {
                restarts += 1;
                since_restart = 0;
                limit = RESTART_BASE * luby(restarts);
                self.backtrack(0);
            } else {
                match self.pick_branch() {
                    None => {
                        let model = self
                            .buf
                            .assigns
                            .iter()
                            .map(|&v| v == VAL_TRUE)
                            .collect::<Vec<bool>>();
                        self.backtrack(0);
                        return Outcome::Sat(model);
                    }
                    Some(v) => {
                        self.buf.trail_lim.push(self.buf.trail.len());
                        let l = if self.buf.polarity[v as usize] {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        };
                        self.unchecked_enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (0-based): 1, 1, 2, 1, 1, 2, 4, ...
fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Encode "at most `k` of `lits` are true" with the sequential-counter
/// (Sinz) encoding; allocates auxiliary variables in `s`.
pub fn add_at_most_k(s: &mut Solver, lits: &[Lit], k: usize) {
    if lits.len() <= k {
        return;
    }
    if k == 0 {
        for &l in lits {
            s.add_clause(&[!l]);
        }
        return;
    }
    let n = lits.len();
    // reg[i][j]: among lits[0..=i], at least j+1 are true (j < k).
    let mut prev: Vec<Lit> = Vec::with_capacity(k);
    let mut row: Vec<Lit> = Vec::with_capacity(k);
    for (i, &x) in lits.iter().enumerate() {
        if i + 1 == n {
            // Last element only needs the overflow clause.
            s.add_clause(&[!x, !prev[k - 1]]);
            break;
        }
        row.clear();
        row.extend((0..k).map(|_| Lit::pos(s.new_var())));
        // x_i -> row[0]
        s.add_clause(&[!x, row[0]]);
        if i > 0 {
            for j in 0..k {
                // prev[j] -> row[j]
                s.add_clause(&[!prev[j], row[j]]);
            }
            for j in 1..k {
                // x_i & prev[j-1] -> row[j]
                s.add_clause(&[!x, !prev[j - 1], row[j]]);
            }
            // x_i & prev[k-1] -> conflict
            s.add_clause(&[!x, !prev[k - 1]]);
        }
        std::mem::swap(&mut prev, &mut row);
    }
}

/// Encode "exactly one of `lits` is true".
pub fn add_exactly_one(s: &mut Solver, lits: &[Lit]) {
    assert!(!lits.is_empty(), "exactly-one over an empty set is UNSAT");
    s.add_clause(lits);
    if lits.len() <= 5 {
        for i in 0..lits.len() {
            for j in i + 1..lits.len() {
                s.add_clause(&[!lits[i], !lits[j]]);
            }
        }
    } else {
        add_at_most_k(s, lits, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* for formula generation.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Brute-force satisfiability over `n` vars; returns a model if any.
    fn brute_force(n: usize, clauses: &[Vec<Lit>]) -> Option<Vec<bool>> {
        'outer: for bits in 0u32..(1 << n) {
            for c in clauses {
                let sat = c.iter().any(|l| {
                    let v = bits >> l.var() & 1 == 1;
                    v != l.is_neg()
                });
                if !sat {
                    continue 'outer;
                }
            }
            return Some((0..n).map(|i| bits >> i & 1 == 1).collect());
        }
        None
    }

    fn check_model(clauses: &[Vec<Lit>], model: &[bool]) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var() as usize] != l.is_neg()))
    }

    /// A solver holding `clauses` over `n` variables, and whether the
    /// formula survived loading (adding a clause can refute it at level 0).
    fn load_formula(n: usize, clauses: &[Vec<Lit>]) -> (bool, Solver) {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        let mut ok = true;
        for c in clauses {
            ok &= s.add_clause(c);
        }
        (ok, s)
    }

    fn solve_formula(n: usize, clauses: &[Vec<Lit>]) -> (Outcome, Solver) {
        let (ok, mut s) = load_formula(n, clauses);
        let out = if ok {
            s.solve(u64::MAX)
        } else {
            Outcome::Unsat
        };
        (out, s)
    }

    /// Number of reason-less literals on `s`'s level-0 trail.
    fn level0_units(s: &Solver) -> usize {
        s.level0_trail().filter(|&(_, unit)| unit).count()
    }

    /// Outcome, conflicts and learnt clauses of a solve that returned
    /// `out` on `s`.
    fn report(s: &Solver, out: Outcome) -> (Outcome, u64, Vec<Vec<Lit>>) {
        let learnt = s.learnt_clauses().map(<[Lit]>::to_vec).collect();
        (out, s.conflicts(), learnt)
    }

    /// Solve the formula `load` builds twice, through [`Solver::solve`]
    /// and through the CDCL loop alone, and assert the same outcome,
    /// model, conflicts and learnt clauses. Returns whether the
    /// saved-phase completion answered, or `None` for a formula refuted
    /// at level 0, which never reaches it.
    fn completion_matches_cdcl(load: impl Fn() -> Solver) -> Option<bool> {
        let mut full = load();
        let solved = full.solve(u64::MAX);
        let mut alone = load();
        if !alone.propagate_level0() {
            assert_eq!(solved, Outcome::Unsat);
            return None;
        }
        let completed = alone.phase_model().is_some();
        let searched = alone.cdcl(u64::MAX);
        assert_eq!(
            report(&full, solved),
            report(&alone, searched),
            "the completion is not the CDCL loop's first descent"
        );
        Some(completed)
    }

    /// What the formula-family tests audited: the learnt units, and how
    /// many formulas the saved-phase completion answered or declined.
    #[derive(Default)]
    struct Audit {
        learnt_units: usize,
        completed: usize,
        declined: usize,
    }

    impl Audit {
        /// Fail unless every kind of case was met at least once.
        fn assert_not_vacuous(&self) {
            assert!(self.learnt_units > 0, "no learnt unit was audited");
            assert!(
                self.completed > 0 && self.declined > 0,
                "the completion answered {} formulas and declined {}",
                self.completed,
                self.declined
            );
        }
    }

    /// Cross-check CDCL against brute force on one formula, and audit
    /// every learnt clause and every level-0 literal against every
    /// brute-force model (a learnt clause that excludes a model, or a
    /// fixed literal that one falsifies, would be an unsoundness). The
    /// level-0 trail holds the learnt units, which the solver does not
    /// store as clauses. Also checks that `solve` decides as the CDCL
    /// loop alone does, and counts both into `audit`.
    fn cross_check(n: usize, clauses: &[Vec<Lit>], audit: &mut Audit) {
        match completion_matches_cdcl(|| load_formula(n, clauses).1) {
            Some(true) => audit.completed += 1,
            Some(false) => audit.declined += 1,
            None => {}
        }
        let (ok, mut s) = load_formula(n, clauses);
        let given_units = level0_units(&s);
        let out = if ok {
            s.solve(u64::MAX)
        } else {
            Outcome::Unsat
        };
        let reference = brute_force(n, clauses);
        match (&out, &reference) {
            (Outcome::Sat(model), Some(_)) => {
                assert!(check_model(clauses, model), "bogus model for {clauses:?}");
            }
            (Outcome::Unsat, None) => {}
            _ => panic!("solver/brute-force disagree on {clauses:?}: {out:?} vs {reference:?}"),
        }
        // Learnt-clause soundness: every model of the formula satisfies
        // every learnt clause.
        for bits in 0u32..(1 << n) {
            let model: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            if check_model(clauses, &model) {
                for learnt in s.learnt_clauses() {
                    assert!(
                        learnt.iter().any(|l| model[l.var() as usize] != l.is_neg()),
                        "learnt clause {learnt:?} drops model {model:?} of {clauses:?}"
                    );
                }
                for (l, _) in s.level0_trail() {
                    assert!(
                        model[l.var() as usize] != l.is_neg(),
                        "level-0 literal {l:?} drops model {model:?} of {clauses:?}"
                    );
                }
            }
        }
        audit.learnt_units += level0_units(&s) - given_units;
    }

    /// Every clause with up to 3 literals over 3 vars (no tautologies,
    /// no duplicate vars), in a fixed order.
    fn all_small_clauses() -> Vec<Vec<Lit>> {
        let mut out = Vec::new();
        let lits: Vec<Lit> = (0..3).flat_map(|v| [Lit::pos(v), Lit::neg(v)]).collect();
        for i in 0..lits.len() {
            out.push(vec![lits[i]]);
            for j in i + 1..lits.len() {
                if lits[i].var() == lits[j].var() {
                    continue;
                }
                out.push(vec![lits[i], lits[j]]);
                for k in j + 1..lits.len() {
                    if lits[k].var() == lits[i].var() || lits[k].var() == lits[j].var() {
                        continue;
                    }
                    out.push(vec![lits[i], lits[j], lits[k]]);
                }
            }
        }
        out
    }

    #[test]
    fn exhaustive_pairs_and_triples_of_small_clauses() {
        let pool = all_small_clauses();
        // Every single clause and every pair; triples sampled densely by
        // a fixed stride to keep the test under a second.
        let mut audit = Audit::default();
        for i in 0..pool.len() {
            cross_check(3, &[pool[i].clone()], &mut audit);
            for j in i..pool.len() {
                cross_check(3, &[pool[i].clone(), pool[j].clone()], &mut audit);
            }
        }
        let mut idx = 0usize;
        while idx < pool.len() * pool.len() * pool.len() {
            let (i, j, k) = (
                idx / (pool.len() * pool.len()),
                idx / pool.len() % pool.len(),
                idx % pool.len(),
            );
            let triple = [pool[i].clone(), pool[j].clone(), pool[k].clone()];
            cross_check(3, &triple, &mut audit);
            idx += 97; // prime stride: 26^3/97 ≈ 180 triples
        }
        audit.assert_not_vacuous();
    }

    #[test]
    fn random_formulas_up_to_4_vars_6_clauses() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut audit = Audit::default();
        for _ in 0..4000 {
            let n = 1 + rng.below(4) as usize;
            let m = 1 + rng.below(6) as usize;
            let clauses: Vec<Vec<Lit>> = (0..m)
                .map(|_| {
                    let w = 1 + rng.below(4) as usize;
                    (0..w)
                        .map(|_| {
                            let v = rng.below(n as u64) as Var;
                            if rng.below(2) == 0 {
                                Lit::pos(v)
                            } else {
                                Lit::neg(v)
                            }
                        })
                        .collect()
                })
                .collect();
            cross_check(n, &clauses, &mut audit);
        }
        audit.assert_not_vacuous();
    }

    /// Lift encodings, pinned to a heuristic schedule at MII: the
    /// completion answers every one on machines whose clusters have one
    /// kind of unit (2c-gp only general-purpose, 2c-fs only dedicated),
    /// and declines every one where a claimed op still chooses between
    /// a dedicated and a general-purpose unit.
    #[test]
    fn pinned_lifts_complete_as_the_first_descent() {
        use crate::encode::{encode, horizon, least_stage_times, Pins};
        use clasp_machine::{presets, ClusterSpec, Interconnect, MachineSpec};
        let mixed = MachineSpec::new(
            "mixed",
            vec![
                ClusterSpec {
                    general: 1,
                    memory: 1,
                    integer: 1,
                    float: 1,
                };
                2
            ],
            Interconnect::Bus {
                buses: 2,
                read_ports: 1,
                write_ports: 1,
            },
        );
        let corpus = clasp_loopgen::generate_corpus(clasp_loopgen::CorpusConfig {
            loops: 30,
            scc_loops: 8,
            seed: 0,
        });
        for (m, completes) in [
            (presets::two_cluster_gp(2, 1), true),
            (presets::two_cluster_fs(2, 1), true),
            (mixed, false),
        ] {
            let lifts: Vec<_> = corpus
                .iter()
                .filter(|g| g.node_count() <= 8)
                .filter_map(|g| {
                    let (a, s) = crate::heuristic_at_mii(g, &m)?;
                    let times = least_stage_times(&a.graph, &s);
                    let inside = times.iter().all(|&t| t < horizon(g, s.ii()) as i64);
                    let pins = Pins::new(g, &m, &a, &times).ok().filter(|_| inside)?;
                    Some((g, s.ii(), pins))
                })
                .take(4)
                .collect();
            assert_eq!(lifts.len(), 4, "too few lifts on {}", m.name());
            for (g, ii, pins) in &lifts {
                let load = || encode(g, &m, *ii, Some(pins)).solver;
                let completed = completion_matches_cdcl(load);
                assert_eq!(completed, Some(completes), "{} on {}", g.name(), m.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn a_true_literal_does_not_hide_an_unknown_variable() {
        let mut s = Solver::new();
        let x = s.new_var();
        assert!(s.add_clause(&[Lit::pos(x)]));
        s.add_clause(&[Lit::pos(x), Lit::pos(x + 1)]);
    }

    #[test]
    fn unit_propagation_fixes_implied_chain() {
        // x0 & (x0 -> x1) & (x1 -> x2): all forced at level 0.
        let clauses = vec![
            vec![Lit::pos(0)],
            vec![Lit::neg(0), Lit::pos(1)],
            vec![Lit::neg(1), Lit::pos(2)],
        ];
        let (out, s) = solve_formula(3, &clauses);
        match out {
            Outcome::Sat(m) => assert_eq!(m, vec![true, true, true]),
            other => panic!("expected SAT, got {other:?}"),
        }
        // Decided by propagation alone: no conflicts needed.
        assert_eq!(s.conflicts(), 0);
    }

    /// Add the pigeonhole formula "`pigeons` pigeons into `holes` holes,
    /// at most one per hole" to `s` (UNSAT when `pigeons > holes`).
    fn pigeonhole(s: &mut Solver, pigeons: u32, holes: u32) {
        let var = |p: u32, h: u32| p * holes + h;
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for p in 0..pigeons {
            let c: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
    }

    #[test]
    fn determinism_across_runs_and_restarts() {
        // A formula hard enough to trigger restarts (pigeonhole 7 into 6),
        // solved twice: identical outcome and identical learnt clauses.
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut s = Solver::new();
            pigeonhole(&mut s, 7, 6);
            let out = s.solve(u64::MAX);
            assert_eq!(out, Outcome::Unsat);
            let learnt: Vec<Vec<Lit>> = s.learnt_clauses().map(|c| c.to_vec()).collect();
            assert!(s.conflicts() > RESTART_BASE, "restarts never exercised");
            runs.push((s.conflicts(), learnt));
        }
        assert_eq!(runs[0], runs[1], "solver is not deterministic");
    }

    #[test]
    fn budget_returns_unknown() {
        // Pigeonhole 7 into 6 needs far more than 3 conflicts.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(3), Outcome::Unknown);
        assert!(s.conflicts() >= 3);
    }

    #[test]
    fn default_is_a_fresh_solver() {
        // The one-clause formula {x}.
        let mut s = Solver::default();
        let x = s.new_var();
        assert!(s.add_clause(&[Lit::pos(x)]));
        assert_eq!(s.solve(u64::MAX), Outcome::Sat(vec![true]));
    }

    /// A random 3-SAT formula near the satisfiability threshold.
    fn random_3sat(seed: u64, vars: u32, clauses: usize) -> Vec<Vec<Lit>> {
        let mut rng = Rng(seed);
        (0..clauses)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = rng.below(u64::from(vars)) as Var;
                        if rng.below(2) == 0 {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Outcome, conflicts and learnt clauses of one solve of `clauses`.
    fn solve_report(vars: u32, clauses: &[Vec<Lit>]) -> (Outcome, u64, Vec<Vec<Lit>>) {
        let (out, s) = solve_formula(vars as usize, clauses);
        report(&s, out)
    }

    #[test]
    fn a_recycled_solver_decides_like_a_fresh_one() {
        let f = random_3sat(1, 40, 170);
        let fresh = {
            let f = f.clone();
            std::thread::spawn(move || solve_report(40, &f))
                .join()
                .expect("fresh thread solves")
        };
        assert!(matches!(fresh.0, Outcome::Sat(_)), "{:?}", fresh.0);
        assert!(fresh.1 > 0, "the formula must learn clauses");
        // Two spares in turn: one that learnt its way to UNSAT, one that
        // stopped at its conflict budget with bumped activities.
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 4);
        assert_eq!(s.solve(u64::MAX), Outcome::Unsat);
        assert!(s.learnt_clauses().next().is_some());
        drop(s);
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(3), Outcome::Unknown);
        drop(s);
        assert_eq!(solve_report(40, &f), fresh);
    }

    #[test]
    fn a_thread_exits_cleanly_holding_a_live_solver_and_a_spare() {
        thread_local! {
            static HELD: RefCell<Option<Solver>> = const { RefCell::new(None) };
        }
        // The two thread-local keys are torn down in some order; touching
        // them in both orders covers the live solver dropping before and
        // after the spare slot is gone.
        for held_first in [true, false] {
            std::thread::spawn(move || {
                if held_first {
                    HELD.with(|_| {});
                }
                let mut spare = Solver::new();
                let mut live = Solver::new();
                pigeonhole(&mut spare, 3, 2);
                pigeonhole(&mut live, 3, 2);
                assert_eq!(spare.solve(u64::MAX), Outcome::Unsat);
                drop(spare);
                HELD.with(|h| *h.borrow_mut() = Some(live));
            })
            .join()
            .expect("thread exits cleanly");
        }
    }

    #[test]
    fn at_most_k_counts() {
        for n in 1..=6usize {
            for k in 0..=n {
                let mut s = Solver::new();
                let lits: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
                add_at_most_k(&mut s, &lits, k);
                // Force k of them true: SAT. Force k+1 true: UNSAT.
                for (i, &l) in lits.iter().enumerate() {
                    if i < k {
                        s.add_clause(&[l]);
                    }
                }
                assert!(
                    matches!(s.solve(u64::MAX), Outcome::Sat(_)),
                    "at_most({k}) over {n} rejected {k} trues"
                );
                if k < n {
                    let mut s2 = Solver::new();
                    let lits: Vec<Lit> = (0..n).map(|_| Lit::pos(s2.new_var())).collect();
                    add_at_most_k(&mut s2, &lits, k);
                    for &l in lits.iter().take(k + 1) {
                        s2.add_clause(&[l]);
                    }
                    assert_eq!(
                        s2.solve(u64::MAX),
                        Outcome::Unsat,
                        "at_most({k}) over {n} allowed {} trues",
                        k + 1
                    );
                }
            }
        }
    }

    #[test]
    fn exactly_one_counts() {
        for n in 1..=8usize {
            let mut s = Solver::new();
            let lits: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
            add_exactly_one(&mut s, &lits);
            match s.solve(u64::MAX) {
                Outcome::Sat(m) => {
                    let trues = lits.iter().filter(|l| m[l.var() as usize]).count();
                    assert_eq!(trues, 1, "exactly-one over {n} gave {trues} trues");
                }
                other => panic!("exactly-one over {n}: {other:?}"),
            }
            // Two forced true: UNSAT.
            if n >= 2 {
                let mut s2 = Solver::new();
                let lits: Vec<Lit> = (0..n).map(|_| Lit::pos(s2.new_var())).collect();
                add_exactly_one(&mut s2, &lits);
                s2.add_clause(&[lits[0]]);
                s2.add_clause(&[lits[n - 1]]);
                assert_eq!(s2.solve(u64::MAX), Outcome::Unsat);
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }
}
