//! Instruction-class cycle costs for the StrongARM SA-1110.
//!
//! The SA-1110 is a single-issue ARMv4 integer core: integer ALU operations
//! are single-cycle, multiplies take a few cycles, and there is **no floating
//! point unit** — every float operation traps into a software emulation
//! routine costing tens to hundreds of cycles. The numbers here are
//! representative (they reproduce the relative gaps the paper measures, not
//! the absolute hardware counts).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::memory::MemoryRegion;

/// Classes of dynamic operations the cost model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InstructionClass {
    /// Integer add/sub/logical/shift (single cycle).
    IntAlu,
    /// Integer multiply (early-terminating ARM MUL).
    IntMul,
    /// Integer multiply-accumulate (MLA).
    IntMac,
    /// Integer divide (no hardware divider: software routine).
    IntDiv,
    /// Load from memory (plus memory-region latency accounted separately).
    Load,
    /// Store to memory.
    Store,
    /// Taken or untaken branch.
    Branch,
    /// Function call/return overhead.
    Call,
    /// Software-emulated floating-point add/sub.
    FloatAddSoft,
    /// Software-emulated floating-point multiply.
    FloatMulSoft,
    /// Software-emulated floating-point divide.
    FloatDivSoft,
    /// Software-emulated float conversion (int ↔ float).
    FloatConvSoft,
    /// Software-emulated transcendental call (exp/log/pow) from the Linux
    /// math library.
    LibmCall,
    /// Table lookup (pre-computed coefficient or Huffman table access).
    TableLookup,
}

impl InstructionClass {
    /// Every class, for iteration.
    pub const ALL: [InstructionClass; 14] = [
        InstructionClass::IntAlu,
        InstructionClass::IntMul,
        InstructionClass::IntMac,
        InstructionClass::IntDiv,
        InstructionClass::Load,
        InstructionClass::Store,
        InstructionClass::Branch,
        InstructionClass::Call,
        InstructionClass::FloatAddSoft,
        InstructionClass::FloatMulSoft,
        InstructionClass::FloatDivSoft,
        InstructionClass::FloatConvSoft,
        InstructionClass::LibmCall,
        InstructionClass::TableLookup,
    ];
}

impl fmt::Display for InstructionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstructionClass::IntAlu => "int-alu",
            InstructionClass::IntMul => "int-mul",
            InstructionClass::IntMac => "int-mac",
            InstructionClass::IntDiv => "int-div",
            InstructionClass::Load => "load",
            InstructionClass::Store => "store",
            InstructionClass::Branch => "branch",
            InstructionClass::Call => "call",
            InstructionClass::FloatAddSoft => "float-add-soft",
            InstructionClass::FloatMulSoft => "float-mul-soft",
            InstructionClass::FloatDivSoft => "float-div-soft",
            InstructionClass::FloatConvSoft => "float-conv-soft",
            InstructionClass::LibmCall => "libm-call",
            InstructionClass::TableLookup => "table-lookup",
        };
        write!(f, "{s}")
    }
}

/// Number of [`InstructionClass`] variants (the length of per-class arrays).
const CLASSES: usize = InstructionClass::ALL.len();
/// Number of [`MemoryRegion`] variants (the length of per-region arrays).
const REGIONS: usize = MemoryRegion::ALL.len();

/// Cycle costs per instruction class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cycles per class, indexed by the class discriminant.
    cycles: [u64; CLASSES],
}

impl CostModel {
    /// The StrongARM SA-1110 model used throughout the reproduction.
    pub fn sa1110() -> Self {
        use InstructionClass::*;
        CostModel {
            cycles: [0; CLASSES],
        }
        .with_cycles(IntAlu, 1)
        .with_cycles(IntMul, 3)
        .with_cycles(IntMac, 3)
        .with_cycles(IntDiv, 22)
        .with_cycles(Load, 2)
        .with_cycles(Store, 2)
        .with_cycles(Branch, 2)
        .with_cycles(Call, 6)
        // Software floating-point emulation on an FPU-less ARM costs
        // roughly two orders of magnitude more than the integer
        // equivalents.
        .with_cycles(FloatAddSoft, 90)
        .with_cycles(FloatMulSoft, 110)
        .with_cycles(FloatDivSoft, 240)
        .with_cycles(FloatConvSoft, 60)
        .with_cycles(LibmCall, 4_000)
        .with_cycles(TableLookup, 3)
    }

    /// A hypothetical core with a hardware FPU (used only in tests and
    /// ablations to show the float/fixed gap collapsing).
    pub fn with_hardware_fpu() -> Self {
        use InstructionClass::*;
        CostModel::sa1110()
            .with_cycles(FloatAddSoft, 3)
            .with_cycles(FloatMulSoft, 4)
            .with_cycles(FloatDivSoft, 18)
            .with_cycles(FloatConvSoft, 3)
            .with_cycles(LibmCall, 200)
    }

    /// Cycles charged for one operation of the given class.
    pub fn cycles_for(&self, class: InstructionClass) -> u64 {
        self.cycles[class as usize]
    }

    /// Overrides the cost of one class (returns self for chaining).
    pub fn with_cycles(mut self, class: InstructionClass, cycles: u64) -> Self {
        self.cycles[class as usize] = cycles;
        self
    }

    /// Total cycles for a bag of operation counts.
    pub fn cycles(&self, ops: &OpCounts) -> u64 {
        ops.iter().map(|(c, n)| self.cycles_for(c) * n).sum()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sa1110()
    }
}

/// A bag of dynamic operation counts, the unit of exchange between workload
/// kernels and the platform model.
///
/// Counts live in fixed arrays indexed by the class and region discriminants,
/// so charging an operation is one add: kernels charge whole loops at a time
/// and the bag never allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    counts: [u64; CLASSES],
    memory: [u64; REGIONS],
}

impl OpCounts {
    /// An empty bag.
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// Adds `n` operations of a class.
    pub fn add(&mut self, class: InstructionClass, n: u64) {
        self.counts[class as usize] += n;
    }

    /// Adds `n` memory accesses attributed to a specific region (in addition
    /// to the [`InstructionClass::Load`]/[`InstructionClass::Store`] issue cost).
    pub fn add_memory(&mut self, region: MemoryRegion, n: u64) {
        self.memory[region as usize] += n;
    }

    /// Count for one class.
    pub fn count(&self, class: InstructionClass) -> u64 {
        self.counts[class as usize]
    }

    /// Memory accesses for one region.
    pub fn memory_count(&self, region: MemoryRegion) -> u64 {
        self.memory[region as usize]
    }

    /// Iterates over the `(class, count)` pairs with a non-zero count, in
    /// [`InstructionClass`] order.
    pub fn iter(&self) -> impl Iterator<Item = (InstructionClass, u64)> + '_ {
        InstructionClass::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, n)| n > 0)
    }

    /// Iterates over the `(region, accesses)` pairs with a non-zero count, in
    /// [`MemoryRegion`] order.
    pub fn memory_iter(&self) -> impl Iterator<Item = (MemoryRegion, u64)> + '_ {
        MemoryRegion::ALL
            .into_iter()
            .zip(self.memory)
            .filter(|&(_, n)| n > 0)
    }

    /// Total dynamic operation count (excluding region-attributed accesses).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().chain(&self.memory).all(|&n| n == 0)
    }

    /// Merges another bag into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        for (a, b) in self.memory.iter_mut().zip(other.memory) {
            *a += b;
        }
    }

    /// Returns a bag with every count divided by `k` (rounding up to at least
    /// one for non-zero counts) — used to attribute per-frame measurements to
    /// a single invocation of a library element.
    pub fn divided(&self, k: u64) -> OpCounts {
        let k = k.max(1);
        self.map(|n| if n > 0 { (n / k).max(1) } else { 0 })
    }

    /// Returns a bag with every count multiplied by `k` (e.g. per-granule
    /// counts scaled to a whole frame).
    pub fn scaled(&self, k: u64) -> OpCounts {
        self.map(|n| n * k)
    }

    fn map(&self, f: impl Fn(u64) -> u64) -> OpCounts {
        OpCounts {
            counts: self.counts.map(&f),
            memory: self.memory.map(&f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa1110_penalizes_software_float() {
        let m = CostModel::sa1110();
        assert!(
            m.cycles_for(InstructionClass::FloatMulSoft)
                > 30 * m.cycles_for(InstructionClass::IntMul)
        );
        assert!(
            m.cycles_for(InstructionClass::FloatDivSoft)
                > m.cycles_for(InstructionClass::FloatMulSoft)
        );
        assert!(
            m.cycles_for(InstructionClass::LibmCall) > m.cycles_for(InstructionClass::FloatDivSoft)
        );
    }

    #[test]
    fn hardware_fpu_closes_the_gap() {
        let soft = CostModel::sa1110();
        let hard = CostModel::with_hardware_fpu();
        assert!(
            hard.cycles_for(InstructionClass::FloatMulSoft)
                < soft.cycles_for(InstructionClass::FloatMulSoft) / 10
        );
        // Integer costs unchanged.
        assert_eq!(
            hard.cycles_for(InstructionClass::IntAlu),
            soft.cycles_for(InstructionClass::IntAlu)
        );
    }

    #[test]
    fn opcounts_accumulate_and_scale() {
        let mut ops = OpCounts::new();
        assert!(ops.is_empty());
        ops.add(InstructionClass::IntAlu, 10);
        ops.add(InstructionClass::IntAlu, 5);
        ops.add(InstructionClass::IntMul, 2);
        ops.add(InstructionClass::Branch, 0);
        ops.add_memory(MemoryRegion::Sdram, 7);
        assert_eq!(ops.count(InstructionClass::IntAlu), 15);
        assert_eq!(ops.count(InstructionClass::Branch), 0);
        assert_eq!(ops.memory_count(MemoryRegion::Sdram), 7);
        assert_eq!(ops.total(), 17);
        let doubled = ops.scaled(2);
        assert_eq!(doubled.count(InstructionClass::IntAlu), 30);
        assert_eq!(doubled.memory_count(MemoryRegion::Sdram), 14);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = OpCounts::new();
        a.add(InstructionClass::IntMul, 3);
        let mut b = OpCounts::new();
        b.add(InstructionClass::IntMul, 4);
        b.add_memory(MemoryRegion::Sram, 2);
        a.merge(&b);
        assert_eq!(a.count(InstructionClass::IntMul), 7);
        assert_eq!(a.memory_count(MemoryRegion::Sram), 2);
    }

    #[test]
    fn cost_model_totals() {
        let m = CostModel::sa1110();
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::IntAlu, 100);
        ops.add(InstructionClass::FloatMulSoft, 10);
        assert_eq!(
            m.cycles(&ops),
            100 + 10 * m.cycles_for(InstructionClass::FloatMulSoft)
        );
    }

    #[test]
    fn with_cycles_overrides() {
        let m = CostModel::sa1110().with_cycles(InstructionClass::IntDiv, 99);
        assert_eq!(m.cycles_for(InstructionClass::IntDiv), 99);
    }

    #[test]
    fn display_names_are_kebab_case() {
        assert_eq!(InstructionClass::FloatMulSoft.to_string(), "float-mul-soft");
        assert_eq!(InstructionClass::IntAlu.to_string(), "int-alu");
    }

    #[test]
    fn iteration_is_in_enum_order_and_skips_zeros() {
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::TableLookup, 4);
        ops.add(InstructionClass::IntMul, 0);
        ops.add(InstructionClass::IntAlu, 1);
        ops.add(InstructionClass::Load, 2);
        ops.add_memory(MemoryRegion::Flash, 3);
        ops.add_memory(MemoryRegion::Sdram, 0);
        ops.add_memory(MemoryRegion::Sram, 5);
        let classes: Vec<_> = ops.iter().collect();
        assert_eq!(
            classes,
            vec![
                (InstructionClass::IntAlu, 1),
                (InstructionClass::Load, 2),
                (InstructionClass::TableLookup, 4),
            ]
        );
        let regions: Vec<_> = ops.memory_iter().collect();
        assert_eq!(
            regions,
            vec![(MemoryRegion::Sram, 5), (MemoryRegion::Flash, 3)]
        );
    }

    #[test]
    fn adding_zero_records_nothing() {
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::IntDiv, 0);
        ops.add_memory(MemoryRegion::Sram, 0);
        assert!(ops.is_empty());
        assert_eq!(ops, OpCounts::new());
        assert_eq!(ops.iter().count(), 0);
        assert_eq!(ops.memory_iter().count(), 0);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = OpCounts::new();
        a.add(InstructionClass::Store, 3);
        a.add_memory(MemoryRegion::Sdram, 1);
        a.add(InstructionClass::FloatAddSoft, 7);
        let mut b = OpCounts::new();
        b.add(InstructionClass::FloatAddSoft, 5);
        b.add_memory(MemoryRegion::Sdram, 1);
        b.add(InstructionClass::Store, 3);
        b.add(InstructionClass::FloatAddSoft, 2);
        assert_eq!(a, b);
        b.add(InstructionClass::Branch, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn divided_keeps_nonzero_counts_nonzero() {
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::IntAlu, 10);
        ops.add(InstructionClass::Load, 1);
        ops.add_memory(MemoryRegion::Sram, 2);
        let d = ops.divided(4);
        assert_eq!(d.count(InstructionClass::IntAlu), 2);
        assert_eq!(d.count(InstructionClass::Load), 1);
        assert_eq!(d.count(InstructionClass::IntMul), 0);
        assert_eq!(d.memory_count(MemoryRegion::Sram), 1);
        assert_eq!(ops.divided(0), ops);
        assert!(ops.scaled(0).is_empty());
    }
}
