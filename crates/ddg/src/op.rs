//! Operation kinds, latencies (paper Table 2), and resource classes.

use std::fmt;

/// The kind of an operation in a loop body.
///
/// The set mirrors the operation repertoire of the paper's evaluation
/// (Table 2): simple integer operations, memory operations, floating-point
/// operations, and the explicit inter-cluster [`OpKind::Copy`].
///
/// # Examples
///
/// ```
/// use clasp_ddg::OpKind;
///
/// assert_eq!(OpKind::Load.latency(), 2);
/// assert_eq!(OpKind::FpMult.latency(), 3);
/// assert!(OpKind::Copy.is_copy());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Integer arithmetic/logic (add, sub, compare, ...). Latency 1.
    IntAlu,
    /// Shift. Latency 1.
    Shift,
    /// Branch (the loop-back branch, IF-converted compares). Latency 1.
    Branch,
    /// Memory load. Latency 2.
    Load,
    /// Memory store. Latency 1.
    Store,
    /// Floating-point add/subtract. Latency 1.
    FpAdd,
    /// Floating-point multiply. Latency 3.
    FpMult,
    /// Floating-point divide. Latency 9.
    FpDiv,
    /// Floating-point square root. Latency 9.
    FpSqrt,
    /// Explicit inter-cluster copy. Latency 1; consumes interconnect
    /// resources (ports and a bus or link), not a function unit.
    Copy,
}

/// The function-unit class an operation executes on, for *fully specified*
/// (FS) machines. General-purpose (GP) units execute every class.
///
/// # Examples
///
/// ```
/// use clasp_ddg::{FuClass, OpKind};
///
/// assert_eq!(OpKind::Load.fu_class(), Some(FuClass::Memory));
/// assert_eq!(OpKind::Copy.fu_class(), None); // copies use no FU
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Memory unit: loads and stores.
    Memory,
    /// Integer unit: ALU, shift, branch.
    Integer,
    /// Floating-point unit: FP add/mult/div/sqrt.
    Float,
}

impl FuClass {
    /// All function-unit classes, in a fixed order usable for indexing.
    pub const ALL: [FuClass; 3] = [FuClass::Memory, FuClass::Integer, FuClass::Float];

    /// A small dense index (0..3) for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FuClass::Memory => 0,
            FuClass::Integer => 1,
            FuClass::Float => 2,
        }
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Memory => "memory",
            FuClass::Integer => "integer",
            FuClass::Float => "float",
        };
        f.write_str(s)
    }
}

impl OpKind {
    /// All non-copy operation kinds.
    pub const REAL_OPS: [OpKind; 9] = [
        OpKind::IntAlu,
        OpKind::Shift,
        OpKind::Branch,
        OpKind::Load,
        OpKind::Store,
        OpKind::FpAdd,
        OpKind::FpMult,
        OpKind::FpDiv,
        OpKind::FpSqrt,
    ];

    /// Result latency in cycles, exactly the paper's Table 2.
    ///
    /// A consumer of this operation's value may issue no earlier than
    /// `issue(this) + latency()` cycles (minus `distance * II` for
    /// loop-carried uses).
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            OpKind::IntAlu
            | OpKind::Shift
            | OpKind::Branch
            | OpKind::Store
            | OpKind::FpAdd
            | OpKind::Copy => 1,
            OpKind::Load => 2,
            OpKind::FpMult => 3,
            OpKind::FpDiv | OpKind::FpSqrt => 9,
        }
    }

    /// The FS function-unit class this operation executes on, or `None`
    /// for [`OpKind::Copy`], which occupies interconnect resources only.
    #[inline]
    pub fn fu_class(self) -> Option<FuClass> {
        match self {
            OpKind::Load | OpKind::Store => Some(FuClass::Memory),
            OpKind::IntAlu | OpKind::Shift | OpKind::Branch => Some(FuClass::Integer),
            OpKind::FpAdd | OpKind::FpMult | OpKind::FpDiv | OpKind::FpSqrt => Some(FuClass::Float),
            OpKind::Copy => None,
        }
    }

    /// Whether this is the explicit inter-cluster copy pseudo-operation.
    #[inline]
    pub fn is_copy(self) -> bool {
        matches!(self, OpKind::Copy)
    }

    /// Whether the operation produces a register result that downstream
    /// operations read. Stores and branches do not.
    #[inline]
    pub fn produces_value(self) -> bool {
        !matches!(self, OpKind::Store | OpKind::Branch)
    }

    /// The canonical token naming this kind in `.clasp` text and the
    /// artifact codec. Copies never appear in hand-written input, but
    /// working graphs round-trip through both, so they get their own
    /// token rather than masquerading as `alu`.
    pub fn token(self) -> &'static str {
        match self {
            OpKind::IntAlu => "alu",
            OpKind::Shift => "shift",
            OpKind::Branch => "br",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::FpAdd => "fadd",
            OpKind::FpMult => "fmul",
            OpKind::FpDiv => "fdiv",
            OpKind::FpSqrt => "fsqrt",
            OpKind::Copy => "cp",
        }
    }

    /// The kind whose [`OpKind::token`] is `token`, or `None`; strict,
    /// with no aliases.
    ///
    /// ```
    /// use clasp_ddg::OpKind;
    ///
    /// assert_eq!(OpKind::parse("fmul"), Some(OpKind::FpMult));
    /// assert_eq!(OpKind::parse(OpKind::Copy.token()), Some(OpKind::Copy));
    /// assert_eq!(OpKind::parse("ld"), None);
    /// ```
    pub fn parse(token: &str) -> Option<OpKind> {
        OpKind::REAL_OPS
            .into_iter()
            .chain([OpKind::Copy])
            .find(|k| k.token() == token)
    }

    /// Short mnemonic used in dumps and graphviz output.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::IntAlu => "alu",
            OpKind::Shift => "shl",
            OpKind::Branch => "br",
            OpKind::Load => "ld",
            OpKind::Store => "st",
            OpKind::FpAdd => "fadd",
            OpKind::FpMult => "fmul",
            OpKind::FpDiv => "fdiv",
            OpKind::FpSqrt => "fsqrt",
            OpKind::Copy => "copy",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_latencies() {
        // Table 2 of the paper, verbatim.
        assert_eq!(OpKind::IntAlu.latency(), 1);
        assert_eq!(OpKind::Shift.latency(), 1);
        assert_eq!(OpKind::Branch.latency(), 1);
        assert_eq!(OpKind::Store.latency(), 1);
        assert_eq!(OpKind::FpAdd.latency(), 1);
        assert_eq!(OpKind::Copy.latency(), 1);
        assert_eq!(OpKind::Load.latency(), 2);
        assert_eq!(OpKind::FpMult.latency(), 3);
        assert_eq!(OpKind::FpDiv.latency(), 9);
        assert_eq!(OpKind::FpSqrt.latency(), 9);
    }

    #[test]
    fn fu_classes() {
        assert_eq!(OpKind::Load.fu_class(), Some(FuClass::Memory));
        assert_eq!(OpKind::Store.fu_class(), Some(FuClass::Memory));
        assert_eq!(OpKind::IntAlu.fu_class(), Some(FuClass::Integer));
        assert_eq!(OpKind::Shift.fu_class(), Some(FuClass::Integer));
        assert_eq!(OpKind::Branch.fu_class(), Some(FuClass::Integer));
        assert_eq!(OpKind::FpAdd.fu_class(), Some(FuClass::Float));
        assert_eq!(OpKind::FpSqrt.fu_class(), Some(FuClass::Float));
        assert_eq!(OpKind::Copy.fu_class(), None);
    }

    #[test]
    fn copy_is_special() {
        assert!(OpKind::Copy.is_copy());
        for k in OpKind::REAL_OPS {
            assert!(!k.is_copy());
        }
    }

    #[test]
    fn value_producers() {
        assert!(OpKind::Load.produces_value());
        assert!(OpKind::FpMult.produces_value());
        assert!(OpKind::Copy.produces_value());
        assert!(!OpKind::Store.produces_value());
        assert!(!OpKind::Branch.produces_value());
    }

    #[test]
    fn fu_class_indices_are_dense() {
        let mut seen = [false; 3];
        for c in FuClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_mnemonics() {
        assert_eq!(OpKind::Load.to_string(), "ld");
        assert_eq!(FuClass::Memory.to_string(), "memory");
        assert_eq!(format!("{:?}", OpKind::Copy), "Copy");
    }
}
