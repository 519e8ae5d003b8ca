//! Shared virtual-machine configuration and execution accounting.

use crate::isa::OpClass;

/// Default total-instruction budget `N_i` (paper §7, finite execution).
pub const DEFAULT_INSN_BUDGET: u32 = 65_536;

/// Default branch budget `N_b`.
pub const DEFAULT_BRANCH_BUDGET: u32 = 8_192;

/// Execution limits enforcing the paper's finite-execution guarantee: a
/// single run can never execute more than `N_i` instructions nor take more
/// than `N_b` branches, bounding resource exhaustion by a malicious tenant
/// (threat model §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum instructions executed in one run (`N_i`).
    pub max_instructions: u32,
    /// Maximum branch instructions executed in one run (`N_b`).
    pub max_branches: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_instructions: DEFAULT_INSN_BUDGET,
            max_branches: DEFAULT_BRANCH_BUDGET,
        }
    }
}

impl ExecConfig {
    /// Creates a config with explicit budgets.
    pub fn new(max_instructions: u32, max_branches: u32) -> Self {
        ExecConfig {
            max_instructions,
            max_branches,
        }
    }
}

/// Dynamic operation counts from one execution, used by the platform
/// cycle models to derive simulated execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// 32-bit ALU operations executed.
    pub alu32: u64,
    /// 64-bit ALU operations executed.
    pub alu64: u64,
    /// Multiplications executed.
    pub mul: u64,
    /// Divisions/modulo executed.
    pub div: u64,
    /// Memory loads executed.
    pub load: u64,
    /// Memory stores executed.
    pub store: u64,
    /// Branches taken.
    pub branch_taken: u64,
    /// Branches not taken.
    pub branch_not_taken: u64,
    /// Helper calls executed.
    pub helper_call: u64,
    /// Wide (`lddw`-family) loads executed.
    pub wide_load: u64,
    /// `exit` instructions executed (0 or 1).
    pub exit: u64,
}

impl OpCounts {
    /// Records one executed operation.
    pub fn record(&mut self, class: OpClass) {
        match class {
            OpClass::Alu32 => self.alu32 += 1,
            OpClass::Alu64 => self.alu64 += 1,
            OpClass::Mul => self.mul += 1,
            OpClass::Div => self.div += 1,
            OpClass::Load => self.load += 1,
            OpClass::Store => self.store += 1,
            OpClass::BranchTaken => self.branch_taken += 1,
            OpClass::BranchNotTaken => self.branch_not_taken += 1,
            OpClass::HelperCall => self.helper_call += 1,
            OpClass::WideLoad => self.wide_load += 1,
            OpClass::Exit => self.exit += 1,
        }
    }

    /// Rebuilds counts from a flat array indexed by [`OpClass::index`].
    ///
    /// The threaded tier counts operations in a flat `[u64; 11]`
    /// (a single indexed add per op, no per-class match) and converts
    /// once at `exit`.
    pub fn from_class_array(counts: &[u64; OpClass::COUNT]) -> Self {
        OpCounts {
            alu32: counts[OpClass::Alu32.index()],
            alu64: counts[OpClass::Alu64.index()],
            mul: counts[OpClass::Mul.index()],
            div: counts[OpClass::Div.index()],
            load: counts[OpClass::Load.index()],
            store: counts[OpClass::Store.index()],
            branch_taken: counts[OpClass::BranchTaken.index()],
            branch_not_taken: counts[OpClass::BranchNotTaken.index()],
            helper_call: counts[OpClass::HelperCall.index()],
            wide_load: counts[OpClass::WideLoad.index()],
            exit: counts[OpClass::Exit.index()],
        }
    }

    /// Total operations executed.
    pub fn total(&self) -> u64 {
        self.alu32
            + self.alu64
            + self.mul
            + self.div
            + self.load
            + self.store
            + self.branch_taken
            + self.branch_not_taken
            + self.helper_call
            + self.wide_load
            + self.exit
    }

    /// Count for one class (used by the cycle models).
    pub fn count(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Alu32 => self.alu32,
            OpClass::Alu64 => self.alu64,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::Load => self.load,
            OpClass::Store => self.store,
            OpClass::BranchTaken => self.branch_taken,
            OpClass::BranchNotTaken => self.branch_not_taken,
            OpClass::HelperCall => self.helper_call,
            OpClass::WideLoad => self.wide_load,
            OpClass::Exit => self.exit,
        }
    }
}

/// The result of a completed (non-faulting) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// The application's return value (`r0` at `exit`).
    pub return_value: u64,
    /// Dynamic operation counts for cycle accounting.
    pub counts: OpCounts,
}

/// All eleven op classes, for iteration in benchmarks and models.
pub const ALL_OP_CLASSES: [OpClass; 11] = [
    OpClass::Alu32,
    OpClass::Alu64,
    OpClass::Mul,
    OpClass::Div,
    OpClass::Load,
    OpClass::Store,
    OpClass::BranchTaken,
    OpClass::BranchNotTaken,
    OpClass::HelperCall,
    OpClass::WideLoad,
    OpClass::Exit,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budgets_are_positive() {
        let c = ExecConfig::default();
        assert!(c.max_instructions > 0);
        assert!(c.max_branches > 0);
    }

    #[test]
    fn record_and_total() {
        let mut c = OpCounts::default();
        for class in ALL_OP_CLASSES {
            c.record(class);
        }
        assert_eq!(c.total(), 11);
        for class in ALL_OP_CLASSES {
            assert_eq!(c.count(class), 1);
        }
    }
}
