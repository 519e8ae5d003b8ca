//! The threaded-code interpreter: the hot execution tier, and the one
//! the Femto-Container engine flavour runs (see the crate docs).
//!
//! A `match`-dispatch loop funnels every operation through **one**
//! indirect dispatch site, whose jump-table branch has to predict the
//! whole instruction mix. This module lowers a [`DecodedProgram`] one
//! step further, into
//! classic *threaded code*: each op becomes a [`ThreadedOp`] carrying a
//! per-kind handler **function pointer** inline with its pre-extracted
//! operands, so the hot loop is just
//!
//! ```text
//! loop { op = &ops[pc]; pc = (op.handler)(&mut state, op); }
//! ```
//!
//! and every op kind owns a *distinct* indirect-call site that the
//! branch predictor trains independently (the rBPF/wasm interpreter
//! literature's `exec`/`func_exec` split). On top of the representation
//! change, lowering folds in the decode-time specializations the
//! per-op bench exposes:
//!
//! * **block superinstructions** — a run of consecutive fusable ops
//!   (pure ALU, verified constant divisors, *and branches*) collapses
//!   into one handler whose member loop carries zero per-op
//!   bookkeeping: budget decrements and class counts for every
//!   possible exit point were precomputed into `BlockExit` records,
//!   applied once on the way out. The member stream ends in a
//!   synthetic always-taken jump (the sentinel), so the loop has no
//!   end-of-block bound check either, and a block whose single
//!   back-edge targets its own head runs multiple loop iterations per
//!   dispatch ("spin mode"), multiplying one exit record on the way
//!   out. Every member also keeps its own standalone handler at its
//!   own chain index, so branching into the middle of a block stays
//!   sound.
//! * **pair fusion** — *non-identical* adjacent pure-ALU ops collapse
//!   at decode time: algebraically when the composition is a single
//!   existing op (`lsh k; rsh k` is a bit-field mask, immediate
//!   `add`/`and`/`or`/`xor` chains combine, constants propagate
//!   through `mov`-fed ops), and via dedicated fused micro kinds for
//!   the common offset-then-mask idioms ([`Kind::FusedAddAnd32`] and
//!   siblings). Identical runs are already run-length fused by
//!   [`DecodedProgram::lower`]; two-op straight-line regions use a
//!   dedicated two-op handler (`h_alu_pair`).
//! * **cursor memory path** — loads and stores go through
//!   [`MemoryMap::cursor_load`]/[`MemoryMap::cursor_store`]: the
//!   region-cache probe is hoisted out of the per-access call into two
//!   interpreter-owned [`RegionCursor`]s (one per access direction), so
//!   the steady-state check is a wrapping subtract and two compares
//!   with no permission re-test.
//! * **divisor resolution** — `div`/`mod` by a *known* immediate picks
//!   a guard-free handler at decode time (the verifier already proved
//!   the divisor non-zero); a zero immediate (possible only for
//!   unverified test programs) gets an always-faulting handler. Block
//!   members go further: a 32-bit constant divisor strength-reduces to
//!   a multiply by `floor(2^64 / d)` plus one correction step — no
//!   hardware divide at all.
//!
//! Execution semantics are bit-identical to the reference interpreter
//! ([`crate::interp`]) — same return values, same
//! [`crate::vm::OpCounts`], same faults with the same reported program
//! counters, same budget accounting in VM-instruction units — enforced
//! per-program by the randomized differential suite
//! (`tests/differential_vm.rs`, reference vs threaded vs CertFC).

use crate::decode::{DecodedInsn, DecodedProgram, Kind};
use crate::error::VmError;
use crate::helpers::HelperRegistry;
use crate::isa::OpClass;
use crate::mem::{MemoryMap, RegionCursor};
use crate::vm::{ExecConfig, Execution};

/// `counts` index recording a taken branch; `BNT` (not taken) is the
/// next slot, so `BNT - taken as usize` is a branchless select.
const BNT: usize = 7; // OpClass::BranchNotTaken.index(); taken = 6.

/// Applies one pure (register-only, non-faulting) ALU op `n` times —
/// the execution body of the [`Kind::AluRep`] superinstruction, of
/// standalone ALU handlers and of fused pair/block members. Each
/// application repeats the member op's exact single-step semantics, so
/// the result is identical to dispatching the op `n` times; LLVM
/// strength-reduces the idempotent and affine cases, and `n = 1`
/// callers collapse to the bare op.
///
/// Operands arrive as scalars (not a `&DecodedInsn`) so chain ops,
/// block members and micro ops all feed their own representation
/// through the one semantic implementation.
#[inline(always)]
fn exec_pure_alu(kind: Kind, dst: usize, src: usize, imm: u64, regs: &mut [u64; 11], n: u32) {
    let s = regs[src];
    exec_alu_val(kind, &mut regs[dst], s, imm, n);
}

/// Value-level core of [`exec_pure_alu`]: applies one pure ALU op `n`
/// times to the destination value in place. `src` is the *value* of
/// the source register (ignored by immediate and unary kinds), so the
/// register-file indexing stays out of the per-kind match entirely.
#[inline(always)]
fn exec_alu_val(kind: Kind, dst: &mut u64, src: u64, imm: u64, n: u32) {
    macro_rules! rep {
        ($body:expr) => {
            for _ in 0..n {
                $body;
            }
        };
    }
    match kind {
        Kind::LdImm | Kind::Mov64Imm | Kind::Mov32Imm => *dst = imm,
        Kind::Add32Imm => {
            rep!(*dst = (*dst as u32).wrapping_add(imm as u32) as u64)
        }
        Kind::Add32Reg => {
            rep!(*dst = (*dst as u32).wrapping_add(src as u32) as u64)
        }
        Kind::Sub32Imm => {
            rep!(*dst = (*dst as u32).wrapping_sub(imm as u32) as u64)
        }
        Kind::Sub32Reg => {
            rep!(*dst = (*dst as u32).wrapping_sub(src as u32) as u64)
        }
        Kind::Mul32Imm => {
            rep!(*dst = (*dst as u32).wrapping_mul(imm as u32) as u64)
        }
        Kind::Mul32Reg => {
            rep!(*dst = (*dst as u32).wrapping_mul(src as u32) as u64)
        }
        Kind::Or32Imm => rep!(*dst = ((*dst as u32) | imm as u32) as u64),
        Kind::Or32Reg => {
            rep!(*dst = ((*dst as u32) | (src as u32)) as u64)
        }
        Kind::And32Imm => rep!(*dst = ((*dst as u32) & imm as u32) as u64),
        Kind::And32Reg => {
            rep!(*dst = ((*dst as u32) & (src as u32)) as u64)
        }
        Kind::Lsh32Imm => rep!(*dst = ((*dst as u32) << imm) as u64),
        Kind::Lsh32Reg => {
            rep!(*dst = ((*dst as u32) << ((src as u32) & 31)) as u64)
        }
        Kind::Rsh32Imm => rep!(*dst = ((*dst as u32) >> imm) as u64),
        Kind::Rsh32Reg => {
            rep!(*dst = ((*dst as u32) >> ((src as u32) & 31)) as u64)
        }
        Kind::Neg32 => rep!(*dst = (*dst as u32).wrapping_neg() as u64),
        Kind::Xor32Imm => rep!(*dst = ((*dst as u32) ^ imm as u32) as u64),
        Kind::Xor32Reg => {
            rep!(*dst = ((*dst as u32) ^ (src as u32)) as u64)
        }
        Kind::Mov32Reg => *dst = src as u32 as u64,
        Kind::Arsh32Imm => {
            rep!(*dst = (((*dst as i32) >> imm) as u32) as u64)
        }
        Kind::Arsh32Reg => {
            rep!(*dst = (((*dst as i32) >> ((src as u32) & 31)) as u32) as u64)
        }
        Kind::Le16 => *dst &= 0xffff,
        Kind::Le32 => *dst &= 0xffff_ffff,
        Kind::Le64 => {}
        Kind::Be16 => rep!(*dst = (*dst as u16).swap_bytes() as u64),
        Kind::Be32 => rep!(*dst = (*dst as u32).swap_bytes() as u64),
        Kind::Be64 => rep!(*dst = dst.swap_bytes()),
        Kind::Add64Imm => rep!(*dst = dst.wrapping_add(imm)),
        Kind::Add64Reg => rep!(*dst = dst.wrapping_add(src)),
        Kind::Sub64Imm => rep!(*dst = dst.wrapping_sub(imm)),
        Kind::Sub64Reg => rep!(*dst = dst.wrapping_sub(src)),
        Kind::Mul64Imm => rep!(*dst = dst.wrapping_mul(imm)),
        Kind::Mul64Reg => rep!(*dst = dst.wrapping_mul(src)),
        Kind::Or64Imm => rep!(*dst |= imm),
        Kind::Or64Reg => rep!(*dst |= src),
        Kind::And64Imm => rep!(*dst &= imm),
        Kind::And64Reg => rep!(*dst &= src),
        Kind::Lsh64Imm => rep!(*dst = dst.wrapping_shl(imm as u32)),
        Kind::Lsh64Reg => rep!(*dst = dst.wrapping_shl(src as u32)),
        Kind::Rsh64Imm => rep!(*dst = dst.wrapping_shr(imm as u32)),
        Kind::Rsh64Reg => rep!(*dst = dst.wrapping_shr(src as u32)),
        Kind::Neg64 => rep!(*dst = dst.wrapping_neg()),
        Kind::Xor64Imm => rep!(*dst ^= imm),
        Kind::Xor64Reg => rep!(*dst ^= src),
        Kind::Mov64Reg => *dst = src,
        Kind::Arsh64Imm => {
            rep!(*dst = ((*dst as i64).wrapping_shr(imm as u32)) as u64)
        }
        Kind::Arsh64Reg => {
            rep!(*dst = ((*dst as i64).wrapping_shr(src as u32)) as u64)
        }
        // Constant divisors: fused only when the immediate is non-zero
        // (the verifier guarantees it), so these cannot fault.
        Kind::Div32Imm => rep!(*dst = ((*dst as u32) / imm as u32) as u64),
        Kind::Mod32Imm => rep!(*dst = ((*dst as u32) % imm as u32) as u64),
        Kind::Div64Imm => rep!(*dst /= imm),
        Kind::Mod64Imm => rep!(*dst %= imm),
        other => unreachable!("AluRep of non-pure kind {other:?}"),
    }
}

/// Evaluates a branch condition without side effects — the decision
/// body of the [`Kind::BranchRep`] superinstruction, of the per-kind
/// branch handlers and of block-member branches. Scalar operands, for
/// the same reason as [`exec_pure_alu`].
#[inline(always)]
fn eval_cond(kind: Kind, dst: usize, src: usize, imm: u64, regs: &[u64; 11]) -> bool {
    eval_cond_val(kind, regs[dst], regs[src], imm)
}

/// Value-level core of [`eval_cond`]: operands are register *values*,
/// pre-resolved by the caller.
#[inline(always)]
fn eval_cond_val(kind: Kind, dst: u64, src: u64, imm: u64) -> bool {
    match kind {
        Kind::Ja => true,
        Kind::JeqImm => dst == imm,
        Kind::JeqReg => dst == src,
        Kind::JgtImm => dst > imm,
        Kind::JgtReg => dst > src,
        Kind::JgeImm => dst >= imm,
        Kind::JgeReg => dst >= src,
        Kind::JltImm => dst < imm,
        Kind::JltReg => dst < src,
        Kind::JleImm => dst <= imm,
        Kind::JleReg => dst <= src,
        Kind::JsetImm => dst & imm != 0,
        Kind::JsetReg => dst & src != 0,
        Kind::JneImm => dst != imm,
        Kind::JneReg => dst != src,
        Kind::JsgtImm => (dst as i64) > imm as i64,
        Kind::JsgtReg => (dst as i64) > src as i64,
        Kind::JsgeImm => (dst as i64) >= imm as i64,
        Kind::JsgeReg => (dst as i64) >= src as i64,
        Kind::JsltImm => (dst as i64) < (imm as i64),
        Kind::JsltReg => (dst as i64) < (src as i64),
        Kind::JsleImm => (dst as i64) <= (imm as i64),
        Kind::JsleReg => (dst as i64) <= (src as i64),
        other => unreachable!("BranchRep of non-branch kind {other:?}"),
    }
}

/// A handler's return value: the next chain index to execute, or
/// [`STOP`] after the handler has recorded the run's outcome.
type Control = usize;

/// Sentinel chain index: the handler stored the final
/// `Result<Execution, VmError>` in [`ThreadedState::outcome`].
const STOP: Control = usize::MAX;

/// One per-op handler: executes the op against the interpreter state
/// and returns the next chain index (pre-resolved at lowering time —
/// handlers never do program-counter arithmetic).
type Handler = for<'r, 'h> fn(&mut ThreadedState<'r, 'h>, &ThreadedOp) -> Control;

/// One member of a block superinstruction: the pre-extracted operands
/// a block handler replays in its tight execution loop. `target` is
/// the resolved chain index and `exit` the taken-path [`BlockExit`]
/// for branch members; `self_loop` marks a branch whose taken target
/// is the block's own head, letting the handler restart its member
/// loop without a trampoline round trip.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    /// Pre-processed immediate; for 32-bit constant-divisor members
    /// this is the strength-reduction multiplier `floor(2^64 / d)`.
    imm: u64,
    /// Taken-target chain index (branch members and the sentinel);
    /// the raw divisor for 32-bit constant-divisor members.
    target: u32,
    exit: u32,
    sub: Kind,
    dst: u8,
    src: u8,
    cls: u8,
    self_loop: bool,
    /// Source ops algebraically folded into this member *beyond* the
    /// first (see [`fold_pair`]); the exact-replay tail pays the toll
    /// `1 + extra` times. Zero for unfolded members.
    extra: u8,
}

/// Number of inline class-delta slots in a [`BlockExit`]. Block
/// members span few op classes (64/32-bit ALU, constant divide,
/// byte swap, branch taken/not-taken), so six slots cover every
/// realistic mix; a block that would need more is simply not fused.
const EXIT_DELTAS: usize = 6;

/// Bookkeeping applied when control leaves a block: the instruction
/// and branch budget consumed plus the per-class count deltas for the
/// member prefix that actually executed. Every possible exit point of
/// a block (each branch's taken path, plus falling out the end) is
/// statically known at lowering time, so the block's member loop
/// carries **no** per-op accounting at all — one exit application on
/// the way out replaces `k` budget decrements and count bumps. The
/// delta slots are fixed-size and applied unconditionally (branch-
/// free): unused slots add zero to the discarded scratch class.
#[derive(Debug, Clone, Copy)]
struct BlockExit {
    insn: u32,
    branches: u32,
    cls: [u8; EXIT_DELTAS],
    n: [u8; EXIT_DELTAS],
}

/// Upper bound on block length: keeps the bulk budget precheck tight
/// (a block never demands more headroom than this), bounds the
/// micro-stream duplication from overlapping blocks, and keeps every
/// per-class prefix count within a [`BlockExit`]'s `u8` delta slots.
const MAX_BLOCK: usize = 64;

/// Builds one block exit point record from its budget consumption and
/// the non-zero class counts of `snap`; `None` when the prefix spans
/// more than [`EXIT_DELTAS`] classes (the caller skips fusing then).
fn make_exit(insn: u32, branches: u32, snap: &[u64; OpClass::COUNT + 1]) -> Option<BlockExit> {
    let mut e = BlockExit {
        insn,
        branches,
        cls: [crate::decode::CLS_SCRATCH; EXIT_DELTAS],
        n: [0; EXIT_DELTAS],
    };
    let mut slot = 0usize;
    for (cls, &count) in snap.iter().enumerate() {
        if count != 0 {
            if slot == EXIT_DELTAS {
                return None;
            }
            e.cls[slot] = cls as u8;
            e.n[slot] = count as u8;
            slot += 1;
        }
    }
    Some(e)
}

/// The mutable execution state threaded through every handler.
struct ThreadedState<'r, 'h> {
    regs: [u64; 11],
    insn_left: u32,
    branch_left: u32,
    /// Flat per-class op accounting plus the scratch slot (see
    /// [`crate::decode::CLS_SCRATCH`]).
    counts: [u64; OpClass::COUNT + 1],
    mem: &'r mut MemoryMap,
    helpers: &'r mut HelperRegistry<'h>,
    /// Load-side region cursor (primed only by successful reads, so a
    /// hit never needs a permission re-check).
    load_cur: RegionCursor,
    /// Store-side region cursor.
    store_cur: RegionCursor,
    /// Concatenated per-block micro-op streams the block handlers
    /// replay.
    micro: &'r [MicroOp],
    /// Block exit-point bookkeeping records.
    exits: &'r [BlockExit],
    max_instructions: u32,
    max_branches: u32,
    /// Set exactly once, by the handler that returns [`STOP`].
    outcome: Option<Result<Execution, VmError>>,
}

/// One op in handler-chain form: the handler pointer stored inline
/// with both (for fused pairs) members' pre-extracted operands.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedOp {
    handler: Handler,
    /// First member's pre-processed immediate (see
    /// [`crate::decode::DecodedInsn::imm`]).
    imm: u64,
    /// Second member's immediate when the handler is a fused pair.
    imm2: u64,
    /// Chain successor for straight-line flow: `i + 1` for plain ops,
    /// `i + 2` for pairs, `i + n` past a rep run.
    next: u32,
    /// Fallback successor (`i + 1`) for the single-step budget path of
    /// rep superinstructions.
    alt: u32,
    /// Branch target chain index / rep run length / `1 +` bound helper
    /// slot, exactly as [`crate::decode::DecodedInsn::target`].
    target: u32,
    /// Original instruction slot, reported in faults.
    pc: u32,
    /// Signed memory offset for immediate stores.
    off: i16,
    /// First (or only) member's op kind.
    sub: Kind,
    /// Second member's op kind when the handler is a fused pair.
    sub2: Kind,
    dst: u8,
    src: u8,
    dst2: u8,
    src2: u8,
    /// First member's counter class.
    cls: u8,
    /// Second member's counter class when the handler is a fused pair.
    cls2: u8,
}

/// Pays the standard per-op toll — budget check, decrement, class
/// count — or records budget exhaustion. Mirrors the reference
/// interpreter's per-fetch budget check exactly (branch kinds carry the
/// discarded scratch class).
#[inline(always)]
fn pay(st: &mut ThreadedState<'_, '_>, cls: u8) -> bool {
    if st.insn_left == 0 {
        st.outcome = Some(Err(VmError::InstructionBudgetExceeded {
            budget: st.max_instructions,
        }));
        return false;
    }
    st.insn_left -= 1;
    st.counts[cls as usize] += 1;
    true
}

/// Generates one handler per pure-ALU kind; the constant kind lets the
/// inliner fold [`exec_pure_alu`] to the bare operation.
macro_rules! alu_handlers {
    ($($name:ident => $kind:ident),* $(,)?) => {
        $(fn $name(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
            if !pay(st, op.cls) {
                return STOP;
            }
            exec_pure_alu(
                Kind::$kind,
                op.dst as usize,
                op.src as usize,
                op.imm,
                &mut st.regs,
                1,
            );
            op.next as usize
        })*
    };
}

alu_handlers! {
    h_ld_imm => LdImm,
    h_add32_imm => Add32Imm, h_add32_reg => Add32Reg,
    h_sub32_imm => Sub32Imm, h_sub32_reg => Sub32Reg,
    h_mul32_imm => Mul32Imm, h_mul32_reg => Mul32Reg,
    h_or32_imm => Or32Imm, h_or32_reg => Or32Reg,
    h_and32_imm => And32Imm, h_and32_reg => And32Reg,
    h_lsh32_imm => Lsh32Imm, h_lsh32_reg => Lsh32Reg,
    h_rsh32_imm => Rsh32Imm, h_rsh32_reg => Rsh32Reg,
    h_neg32 => Neg32,
    h_xor32_imm => Xor32Imm, h_xor32_reg => Xor32Reg,
    h_mov32_imm => Mov32Imm, h_mov32_reg => Mov32Reg,
    h_arsh32_imm => Arsh32Imm, h_arsh32_reg => Arsh32Reg,
    h_le16 => Le16, h_le32 => Le32, h_le64 => Le64,
    h_be16 => Be16, h_be32 => Be32, h_be64 => Be64,
    h_add64_imm => Add64Imm, h_add64_reg => Add64Reg,
    h_sub64_imm => Sub64Imm, h_sub64_reg => Sub64Reg,
    h_mul64_imm => Mul64Imm, h_mul64_reg => Mul64Reg,
    h_or64_imm => Or64Imm, h_or64_reg => Or64Reg,
    h_and64_imm => And64Imm, h_and64_reg => And64Reg,
    h_lsh64_imm => Lsh64Imm, h_lsh64_reg => Lsh64Reg,
    h_rsh64_imm => Rsh64Imm, h_rsh64_reg => Rsh64Reg,
    h_neg64 => Neg64,
    h_xor64_imm => Xor64Imm, h_xor64_reg => Xor64Reg,
    h_mov64_imm => Mov64Imm, h_mov64_reg => Mov64Reg,
    h_arsh64_imm => Arsh64Imm, h_arsh64_reg => Arsh64Reg,
    // Guard-free constant divisors: selected at lowering time only
    // when the immediate is non-zero (satellite: the per-op `d == 0`
    // test is resolved at decode time).
    h_div32_imm => Div32Imm, h_mod32_imm => Mod32Imm,
    h_div64_imm => Div64Imm, h_mod64_imm => Mod64Imm,
}

/// `div`/`mod` by a zero immediate (unverified programs only): always
/// faults, with the same pc the reference interpreter reports.
fn h_div_zero_imm(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if !pay(st, op.cls) {
        return STOP;
    }
    st.outcome = Some(Err(VmError::DivisionByZero { pc: op.pc as usize }));
    STOP
}

/// Generates the register-divisor handlers, which keep the run-time
/// zero guard (the divisor is not known at decode time).
macro_rules! div_reg_handlers {
    ($($name:ident: $w:ty, $op:tt);* $(;)?) => {
        $(fn $name(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
            if !pay(st, op.cls) {
                return STOP;
            }
            let d = st.regs[op.src as usize] as $w;
            if d == 0 {
                st.outcome = Some(Err(VmError::DivisionByZero {
                    pc: op.pc as usize,
                }));
                return STOP;
            }
            let dst = op.dst as usize;
            st.regs[dst] = ((st.regs[dst] as $w) $op d) as u64;
            op.next as usize
        })*
    };
}

div_reg_handlers! {
    h_div32_reg: u32, /;
    h_mod32_reg: u32, %;
    h_div64_reg: u64, /;
    h_mod64_reg: u64, %;
}

/// Generates one handler per branch kind. Branches skip the dynamic
/// class count in [`pay`] (their `cls` is the discarded scratch slot)
/// and record taken/not-taken themselves, as the reference does.
macro_rules! branch_handlers {
    ($($name:ident => $kind:ident),* $(,)?) => {
        $(fn $name(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
            if !pay(st, op.cls) {
                return STOP;
            }
            if st.branch_left == 0 {
                st.outcome = Some(Err(VmError::BranchBudgetExceeded {
                    budget: st.max_branches,
                }));
                return STOP;
            }
            st.branch_left -= 1;
            let taken = eval_cond(
                Kind::$kind,
                op.dst as usize,
                op.src as usize,
                op.imm,
                &st.regs,
            );
            st.counts[BNT - taken as usize] += 1;
            if taken {
                op.target as usize
            } else {
                op.next as usize
            }
        })*
    };
}

branch_handlers! {
    h_ja => Ja,
    h_jeq_imm => JeqImm, h_jeq_reg => JeqReg,
    h_jgt_imm => JgtImm, h_jgt_reg => JgtReg,
    h_jge_imm => JgeImm, h_jge_reg => JgeReg,
    h_jlt_imm => JltImm, h_jlt_reg => JltReg,
    h_jle_imm => JleImm, h_jle_reg => JleReg,
    h_jset_imm => JsetImm, h_jset_reg => JsetReg,
    h_jne_imm => JneImm, h_jne_reg => JneReg,
    h_jsgt_imm => JsgtImm, h_jsgt_reg => JsgtReg,
    h_jsge_imm => JsgeImm, h_jsge_reg => JsgeReg,
    h_jslt_imm => JsltImm, h_jslt_reg => JsltReg,
    h_jsle_imm => JsleImm, h_jsle_reg => JsleReg,
}

/// Generates the register-addressed load handlers (specialized MEM
/// path: the allow-list probe runs through the load cursor).
macro_rules! load_handlers {
    ($($name:ident => $len:expr),* $(,)?) => {
        $(fn $name(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
            if !pay(st, op.cls) {
                return STOP;
            }
            let addr = st.regs[op.src as usize].wrapping_add(op.imm);
            match st.mem.cursor_load(&mut st.load_cur, addr, $len) {
                Ok(v) => {
                    st.regs[op.dst as usize] = v;
                    op.next as usize
                }
                Err(e) => {
                    st.outcome = Some(Err(e));
                    STOP
                }
            }
        })*
    };
}

load_handlers! {
    h_ldx1 => 1, h_ldx2 => 2, h_ldx4 => 4, h_ldx8 => 8,
}

/// Generates the store handlers (immediate-value `St*` and
/// register-value `Stx*` forms) over the store cursor.
macro_rules! store_handlers {
    ($($name:ident => $len:expr, $addr:expr, $val:expr),* $(,)?) => {
        $(fn $name(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
            if !pay(st, op.cls) {
                return STOP;
            }
            #[allow(clippy::redundant_closure_call)]
            let addr = ($addr)(st, op);
            #[allow(clippy::redundant_closure_call)]
            let val = ($val)(st, op);
            match st.mem.cursor_store(&mut st.store_cur, addr, $len, val) {
                Ok(()) => op.next as usize,
                Err(e) => {
                    st.outcome = Some(Err(e));
                    STOP
                }
            }
        })*
    };
}

/// `St*` effective address: `regs[dst] + off` (sign-extended).
#[inline(always)]
fn st_addr(st: &ThreadedState<'_, '_>, op: &ThreadedOp) -> u64 {
    st.regs[op.dst as usize].wrapping_add(op.off as i64 as u64)
}

/// `Stx*` effective address: `regs[dst] + imm` (pre-sign-extended off).
#[inline(always)]
fn stx_addr(st: &ThreadedState<'_, '_>, op: &ThreadedOp) -> u64 {
    st.regs[op.dst as usize].wrapping_add(op.imm)
}

store_handlers! {
    h_st1 => 1, st_addr, |_st: &ThreadedState<'_, '_>, op: &ThreadedOp| op.imm,
    h_st2 => 2, st_addr, |_st: &ThreadedState<'_, '_>, op: &ThreadedOp| op.imm,
    h_st4 => 4, st_addr, |_st: &ThreadedState<'_, '_>, op: &ThreadedOp| op.imm,
    h_st8 => 8, st_addr, |_st: &ThreadedState<'_, '_>, op: &ThreadedOp| op.imm,
    h_stx1 => 1, stx_addr, |st: &ThreadedState<'_, '_>, op: &ThreadedOp| st.regs[op.src as usize],
    h_stx2 => 2, stx_addr, |st: &ThreadedState<'_, '_>, op: &ThreadedOp| st.regs[op.src as usize],
    h_stx4 => 4, stx_addr, |st: &ThreadedState<'_, '_>, op: &ThreadedOp| st.regs[op.src as usize],
    h_stx8 => 8, stx_addr, |st: &ThreadedState<'_, '_>, op: &ThreadedOp| st.regs[op.src as usize],
}

/// Executes one block member through a *single* dispatch site: every
/// fusable kind — pure ALU, verified constant divisors, and branches —
/// lives in one match, so the compiler emits one jump table instead of
/// an `is_branch` pre-test feeding two smaller ones. Returns `true`
/// only for a *taken* branch; ALU members and not-taken branches both
/// mean "keep running the block", so they share the `false` path.
///
/// # Safety
///
/// `dsti`/`srci` must be in-bounds register indices and `sub` must be
/// a fusable kind (pure ALU, constant divisor, or branch). Block
/// lowering guarantees both: it clamps `dst`/`src` below the register
/// count (the verifier already guarantees the range for verified
/// programs) and only admits [`fusable`] ops as members.
#[inline(always)]
unsafe fn exec_member(m: &MicroOp, regs: &mut [u64; 11]) -> bool {
    let sub = m.sub;
    let dsti = m.dst as usize;
    let srci = m.src as usize;
    let imm = m.imm;
    debug_assert!(
        sub.is_pure_alu()
            || sub.is_branch()
            || matches!(
                sub,
                Kind::Div32Imm
                    | Kind::Mod32Imm
                    | Kind::Div64Imm
                    | Kind::Mod64Imm
                    | Kind::FusedAddAnd32
                    | Kind::FusedAndAdd32
                    | Kind::FusedAddAnd64
                    | Kind::FusedAndAdd64
            )
    );
    // Operand reads live *inside* the arms (via these macros) so each
    // kind loads only what it uses — immediate ops never touch the
    // source register, unary ops never load `imm`.
    macro_rules! d {
        () => {
            unsafe { *regs.get_unchecked(dsti) }
        };
    }
    macro_rules! s {
        () => {
            unsafe { *regs.get_unchecked(srci) }
        };
    }
    let v: u64 = match sub {
        Kind::Ja => return true,
        Kind::JeqImm => return d!() == imm,
        Kind::JeqReg => return d!() == s!(),
        Kind::JgtImm => return d!() > imm,
        Kind::JgtReg => return d!() > s!(),
        Kind::JgeImm => return d!() >= imm,
        Kind::JgeReg => return d!() >= s!(),
        Kind::JltImm => return d!() < imm,
        Kind::JltReg => return d!() < s!(),
        Kind::JleImm => return d!() <= imm,
        Kind::JleReg => return d!() <= s!(),
        Kind::JsetImm => return d!() & imm != 0,
        Kind::JsetReg => return d!() & s!() != 0,
        Kind::JneImm => return d!() != imm,
        Kind::JneReg => return d!() != s!(),
        Kind::JsgtImm => return (d!() as i64) > imm as i64,
        Kind::JsgtReg => return (d!() as i64) > s!() as i64,
        Kind::JsgeImm => return (d!() as i64) >= imm as i64,
        Kind::JsgeReg => return (d!() as i64) >= s!() as i64,
        Kind::JsltImm => return (d!() as i64) < imm as i64,
        Kind::JsltReg => return (d!() as i64) < s!() as i64,
        Kind::JsleImm => return (d!() as i64) <= imm as i64,
        Kind::JsleReg => return (d!() as i64) <= s!() as i64,
        Kind::LdImm | Kind::Mov64Imm | Kind::Mov32Imm => imm,
        Kind::Add32Imm => (d!() as u32).wrapping_add(imm as u32) as u64,
        Kind::Add32Reg => (d!() as u32).wrapping_add(s!() as u32) as u64,
        Kind::Sub32Imm => (d!() as u32).wrapping_sub(imm as u32) as u64,
        Kind::Sub32Reg => (d!() as u32).wrapping_sub(s!() as u32) as u64,
        Kind::Mul32Imm => (d!() as u32).wrapping_mul(imm as u32) as u64,
        Kind::Mul32Reg => (d!() as u32).wrapping_mul(s!() as u32) as u64,
        Kind::Or32Imm => ((d!() as u32) | imm as u32) as u64,
        Kind::Or32Reg => ((d!() as u32) | (s!() as u32)) as u64,
        Kind::And32Imm => ((d!() as u32) & imm as u32) as u64,
        Kind::And32Reg => ((d!() as u32) & (s!() as u32)) as u64,
        Kind::Lsh32Imm => ((d!() as u32) << imm) as u64,
        Kind::Lsh32Reg => ((d!() as u32) << ((s!() as u32) & 31)) as u64,
        Kind::Rsh32Imm => ((d!() as u32) >> imm) as u64,
        Kind::Rsh32Reg => ((d!() as u32) >> ((s!() as u32) & 31)) as u64,
        Kind::Neg32 => (d!() as u32).wrapping_neg() as u64,
        Kind::Xor32Imm => ((d!() as u32) ^ imm as u32) as u64,
        Kind::Xor32Reg => ((d!() as u32) ^ (s!() as u32)) as u64,
        Kind::Mov32Reg => s!() as u32 as u64,
        Kind::Arsh32Imm => (((d!() as i32) >> imm) as u32) as u64,
        Kind::Arsh32Reg => (((d!() as i32) >> ((s!() as u32) & 31)) as u32) as u64,
        Kind::Le16 => d!() & 0xffff,
        Kind::Le32 => d!() & 0xffff_ffff,
        Kind::Le64 => d!(),
        Kind::Be16 => (d!() as u16).swap_bytes() as u64,
        Kind::Be32 => (d!() as u32).swap_bytes() as u64,
        Kind::Be64 => d!().swap_bytes(),
        Kind::Add64Imm => d!().wrapping_add(imm),
        Kind::Add64Reg => d!().wrapping_add(s!()),
        Kind::Sub64Imm => d!().wrapping_sub(imm),
        Kind::Sub64Reg => d!().wrapping_sub(s!()),
        Kind::Mul64Imm => d!().wrapping_mul(imm),
        Kind::Mul64Reg => d!().wrapping_mul(s!()),
        Kind::Or64Imm => d!() | imm,
        Kind::Or64Reg => d!() | s!(),
        Kind::And64Imm => d!() & imm,
        Kind::And64Reg => d!() & s!(),
        Kind::Lsh64Imm => d!().wrapping_shl(imm as u32),
        Kind::Lsh64Reg => d!().wrapping_shl(s!() as u32),
        Kind::Rsh64Imm => d!().wrapping_shr(imm as u32),
        Kind::Rsh64Reg => d!().wrapping_shr(s!() as u32),
        Kind::Neg64 => d!().wrapping_neg(),
        Kind::Xor64Imm => d!() ^ imm,
        Kind::Xor64Reg => d!() ^ s!(),
        Kind::Mov64Reg => s!(),
        Kind::Arsh64Imm => (d!() as i64).wrapping_shr(imm as u32) as u64,
        Kind::Arsh64Reg => (d!() as i64).wrapping_shr(s!() as u32) as u64,
        // Fused pairs (produced by `fold_pair`): two source ops, one
        // dispatch. Immediates ride packed in `imm` — low half first
        // op, high half second; the 64-bit variants sign-extend each
        // half (lowering only fuses i32-representable immediates).
        Kind::FusedAddAnd32 => ((d!() as u32).wrapping_add(imm as u32) & (imm >> 32) as u32) as u64,
        Kind::FusedAndAdd32 => ((d!() as u32 & imm as u32).wrapping_add((imm >> 32) as u32)) as u64,
        Kind::FusedAddAnd64 => {
            d!().wrapping_add(imm as i32 as i64 as u64) & (((imm >> 32) as i32) as i64 as u64)
        }
        Kind::FusedAndAdd64 => {
            (d!() & imm as i32 as i64 as u64).wrapping_add(((imm >> 32) as i32) as i64 as u64)
        }
        // 32-bit constant divisors: strength-reduced at lowering to a
        // multiply by `floor(2^64 / d)` (in `imm`) plus one correction
        // step against the raw divisor (in `target`). The estimate
        // `q̂ = (n·m) >> 64` is exact or one low for every `n < 2^32`,
        // `d ∈ [2, 2^32)`, so a single conditional fix-up yields the
        // true quotient/remainder — no hardware divide, no fault.
        Kind::Div32Imm => {
            let n = d!() as u32;
            let dv = m.target;
            let q = ((u128::from(n) * u128::from(imm)) >> 64) as u32;
            let r = n.wrapping_sub(q.wrapping_mul(dv));
            u64::from(q + u32::from(r >= dv))
        }
        Kind::Mod32Imm => {
            let n = d!() as u32;
            let dv = m.target;
            let q = ((u128::from(n) * u128::from(imm)) >> 64) as u32;
            let r = n.wrapping_sub(q.wrapping_mul(dv));
            u64::from(if r >= dv { r - dv } else { r })
        }
        // 64-bit constant divisors: fused only when the immediate is
        // non-zero (the verifier guarantees it), so these cannot fault.
        Kind::Div64Imm => d!() / imm,
        Kind::Mod64Imm => d!() % imm,
        // SAFETY: the caller contract admits only fusable kinds, so the
        // remaining variants cannot reach here; eliding the arm drops
        // the jump table's range guard from the hot dispatch.
        _ => unsafe { core::hint::unreachable_unchecked() },
    };
    unsafe {
        *regs.get_unchecked_mut(dsti) = v;
    }
    false
}

/// True when `k` reads its source *register* (as opposed to an
/// immediate or nothing): constant propagation through such an op is
/// only sound when the source is the register being propagated.
fn reads_src(k: Kind) -> bool {
    matches!(
        k,
        Kind::Add32Reg
            | Kind::Sub32Reg
            | Kind::Mul32Reg
            | Kind::Or32Reg
            | Kind::And32Reg
            | Kind::Lsh32Reg
            | Kind::Rsh32Reg
            | Kind::Xor32Reg
            | Kind::Mov32Reg
            | Kind::Arsh32Reg
            | Kind::Add64Reg
            | Kind::Sub64Reg
            | Kind::Mul64Reg
            | Kind::Or64Reg
            | Kind::And64Reg
            | Kind::Lsh64Reg
            | Kind::Rsh64Reg
            | Kind::Xor64Reg
            | Kind::Mov64Reg
            | Kind::Arsh64Reg
    )
}

/// Algebraic micro-fusion: merges two adjacent same-destination,
/// same-class pure-ALU members whose composition is expressible as a
/// *single* micro op — the member executes once but stands for both
/// source instructions. Rules:
///
/// * constant producer — `mov dst, c` followed by any op that only
///   reads `dst` folds to the load of the (simulated) result;
/// * shift round trip — `lsh dst, k; rsh dst, k` is the bit-field
///   mask `and dst, 2^(64-k) - 1`;
/// * immediate chains — adjacent `add`/`and`/`or`/`xor` immediates on
///   one register combine associatively, and same-direction 64-bit
///   shifts add their (in-range) counts;
/// * offset-then-mask — `add`/`and` immediate compositions that no
///   single source op expresses use the dedicated micro-only kinds
///   ([`Kind::FusedAddAnd32`] and siblings) with both immediates
///   packed into one slot.
///
/// Exit records are built from *source* ops and the replay tail pays
/// the toll `1 + extra` times, so budget and count accounting stay
/// exact. Equal-class folds only, so the tail re-pays the right class.
fn fold_pair(a: &MicroOp, b: &MicroOp) -> Option<MicroOp> {
    if a.sub.is_branch() || b.sub.is_branch() || a.dst != b.dst || a.cls != b.cls {
        return None;
    }
    let merged = |sub: Kind, imm: u64| {
        Some(MicroOp {
            imm,
            target: 0,
            exit: 0,
            sub,
            dst: a.dst,
            src: a.src,
            cls: a.cls,
            self_loop: false,
            extra: a.extra + b.extra + 1,
        })
    };
    if matches!(a.sub, Kind::LdImm | Kind::Mov64Imm | Kind::Mov32Imm)
        && b.sub.is_pure_alu()
        && (!reads_src(b.sub) || b.src == b.dst)
    {
        // The destination's value is known, and `b` depends on nothing
        // else: run the real op on it at lowering time.
        let mut regs = [0u64; 11];
        regs[a.dst as usize] = a.imm;
        exec_pure_alu(b.sub, b.dst as usize, b.src as usize, b.imm, &mut regs, 1);
        return merged(Kind::LdImm, regs[a.dst as usize]);
    }
    match (a.sub, b.sub) {
        (Kind::Lsh64Imm, Kind::Rsh64Imm) if a.imm == b.imm && a.imm < 64 => {
            merged(Kind::And64Imm, u64::MAX >> a.imm)
        }
        (Kind::Add64Imm, Kind::Add64Imm) => merged(a.sub, a.imm.wrapping_add(b.imm)),
        (Kind::And64Imm, Kind::And64Imm) => merged(a.sub, a.imm & b.imm),
        (Kind::Or64Imm, Kind::Or64Imm) => merged(a.sub, a.imm | b.imm),
        (Kind::Xor64Imm, Kind::Xor64Imm) => merged(a.sub, a.imm ^ b.imm),
        (Kind::Add32Imm, Kind::Add32Imm) => {
            merged(a.sub, u64::from((a.imm as u32).wrapping_add(b.imm as u32)))
        }
        (Kind::And32Imm, Kind::And32Imm) => merged(a.sub, u64::from(a.imm as u32 & b.imm as u32)),
        (Kind::Or32Imm, Kind::Or32Imm) => merged(a.sub, u64::from(a.imm as u32 | b.imm as u32)),
        (Kind::Xor32Imm, Kind::Xor32Imm) => merged(a.sub, u64::from(a.imm as u32 ^ b.imm as u32)),
        (Kind::Lsh64Imm, Kind::Lsh64Imm)
        | (Kind::Rsh64Imm, Kind::Rsh64Imm)
        | (Kind::Arsh64Imm, Kind::Arsh64Imm)
            if a.imm < 64 && b.imm < 64 && a.imm + b.imm < 64 =>
        {
            merged(a.sub, a.imm + b.imm)
        }
        // Non-identical compositions with dedicated fused micro kinds
        // (see [`Kind::FusedAddAnd32`]): offset-then-mask and
        // mask-then-bias, the bit-field idioms.
        (Kind::Add32Imm, Kind::And32Imm) => merged(Kind::FusedAddAnd32, pack32(a.imm, b.imm)),
        (Kind::And32Imm, Kind::Add32Imm) => merged(Kind::FusedAndAdd32, pack32(a.imm, b.imm)),
        (Kind::Add64Imm, Kind::And64Imm) if i32_rep(a.imm) && i32_rep(b.imm) => {
            merged(Kind::FusedAddAnd64, pack32(a.imm, b.imm))
        }
        (Kind::And64Imm, Kind::Add64Imm) if i32_rep(a.imm) && i32_rep(b.imm) => {
            merged(Kind::FusedAndAdd64, pack32(a.imm, b.imm))
        }
        _ => None,
    }
}

/// Packs two immediates' low halves into one `u64` for a fused-pair
/// micro kind (first low, second high).
fn pack32(a: u64, b: u64) -> u64 {
    u64::from(a as u32) | u64::from(b as u32) << 32
}

/// True when sign-extending the low 32 bits reproduces the immediate —
/// the condition for packing a 64-bit op's immediate into half a slot.
fn i32_rep(imm: u64) -> bool {
    imm as i64 == i64::from(imm as i32)
}

/// Block superinstruction: a run of consecutive fusable ops — pure
/// ALU, verified constant divisors, and *branches* — collapsed into
/// one dispatch. `alt` holds the block's micro-stream base, `target`
/// the *source* op count (for the bulk budget precheck; algebraic
/// fusion can leave fewer members than source ops), `dst` the stored
/// member count, and `imm2` packs the fall-out [`BlockExit`] index
/// (low half) with the branch count (high half). The member loop
/// carries **zero** bookkeeping: budget decrements and class counts
/// for every possible exit point were precomputed into [`BlockExit`]
/// records at lowering time and are applied once on the way out. A
/// taken branch leaves the block early through its own exit record,
/// charging exactly the *source* members that executed. A tight loop
/// whose whole body fuses spins in place ("spin mode", see below)
/// with zero bookkeeping and zero trampoline round trips per pass.
fn h_block(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    let start = op.alt as usize;
    let branches = op.imm2 >> 32;
    // Rebased exit index of the block's unique self-loop branch
    // (`u32::MAX` when the block has none, or more than one).
    let spin = op.imm as u32;
    'outer: loop {
        if st.insn_left < op.target || (st.branch_left as u64) < branches {
            return block_tail(st, op);
        }
        // Spin mode: with exactly one self-loop branch, every pass that
        // leaves through it consumes the same exit record, so work out
        // up front how many such passes the budgets cover *beyond* one
        // worst-case pass, run them with zero bookkeeping, and multiply
        // the record once on the way out. The subtractions cannot
        // underflow (precheck above); a taken-branch exit always has
        // `insn >= 1` and `branches >= 1`, so the divisions are safe.
        let max_passes: u32 = if spin != u32::MAX {
            let e = &st.exits[spin as usize];
            let by_insn = (st.insn_left - op.target) / e.insn;
            let by_branch = (st.branch_left - branches as u32) / e.branches;
            by_insn.min(by_branch)
        } else {
            0
        };
        let mut passes: u32 = 0;
        // The member walk is unbounded on purpose: every block's micro
        // stream ends in a synthetic always-taken `ja` sentinel, so the
        // walk always leaves through the `taken` path — no end-of-block
        // compare in the hot loop. The sentinel carries the fall-out
        // exit record and the block's chain successor, making fall-out
        // indistinguishable from a real taken jump.
        let head = unsafe { st.micro.as_ptr().add(start) };
        let mut p = head;
        loop {
            // SAFETY: the sentinel (always taken) bounds the walk
            // within this block's micro stream; lowering clamps member
            // `dst`/`src` below the register count (the verifier
            // already guarantees it for verified programs).
            let m = unsafe { &*p };
            p = unsafe { p.add(1) };
            let taken = unsafe { exec_member(m, &mut st.regs) };
            if taken {
                if m.exit == spin && passes < max_passes {
                    // Taken back to this block's own head with spin
                    // budget left: restart the member loop in place. A
                    // tight source loop whose body fuses costs zero
                    // bookkeeping and zero trampoline round trips per
                    // iteration.
                    passes += 1;
                    p = head;
                    continue;
                }
                apply_spin(st, spin, passes);
                apply_exit(st, m.exit);
                if m.self_loop {
                    continue 'outer;
                }
                return m.target as usize;
            }
        }
    }
}

/// Applies one [`BlockExit`]'s precomputed bookkeeping: the bulk
/// precheck in [`h_block`] guaranteed both budgets cover the block's
/// worst case, so the subtractions cannot underflow. The delta slots
/// apply branch-free; unused slots add zero to the scratch class.
#[inline(always)]
fn apply_exit(st: &mut ThreadedState<'_, '_>, exit: u32) {
    let e = &st.exits[exit as usize];
    st.insn_left -= e.insn;
    st.branch_left -= e.branches;
    for slot in 0..EXIT_DELTAS {
        st.counts[e.cls[slot] as usize] += e.n[slot] as u64;
    }
}

/// Applies `passes` deferred spin-mode iterations of the self-loop
/// exit record in one multiplied transaction. [`h_block`] capped
/// `passes` so that the products stay within the prechecked budgets —
/// the subtractions cannot underflow.
#[inline(always)]
fn apply_spin(st: &mut ThreadedState<'_, '_>, spin: u32, passes: u32) {
    if passes == 0 {
        return;
    }
    let e = &st.exits[spin as usize];
    st.insn_left -= e.insn * passes;
    st.branch_left -= e.branches * passes;
    for slot in 0..EXIT_DELTAS {
        st.counts[e.cls[slot] as usize] += e.n[slot] as u64 * passes as u64;
    }
}

/// Budget-shortage tail of [`h_block`]: replays exact per-op
/// semantics — head check, decrement, class count, branch-budget
/// check, early exit on a taken branch — so outcomes (including
/// *success*, when a taken branch leaves before the short budget
/// runs out) are observationally identical to per-op dispatch.
#[cold]
fn block_tail(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    let start = op.alt as usize;
    let micro = st.micro;
    // `op.dst` is the *compressed* member count — the sentinel is
    // excluded, so falling off the end takes the plain `op.next` path.
    for m in &micro[start..start + op.dst as usize] {
        if m.sub.is_branch() {
            if !pay(st, m.cls) {
                return STOP;
            }
            if st.branch_left == 0 {
                st.outcome = Some(Err(VmError::BranchBudgetExceeded {
                    budget: st.max_branches,
                }));
                return STOP;
            }
            st.branch_left -= 1;
            let taken = eval_cond(m.sub, m.dst as usize, m.src as usize, m.imm, &st.regs);
            st.counts[BNT - taken as usize] += 1;
            if taken {
                return m.target as usize;
            }
        } else {
            // A folded member stands for `1 + extra` source ops of one
            // class; each pays its own toll, so exhaustion faults at
            // the same source op it would under per-op dispatch (the
            // engine discards partial state on faults). Execution goes
            // through `exec_member` so strength-reduced divisor
            // members replay with their lowered encoding.
            for _ in 0..=m.extra {
                if !pay(st, m.cls) {
                    return STOP;
                }
            }
            // SAFETY: same lowering invariants as the hot member loop.
            unsafe { exec_member(m, &mut st.regs) };
        }
    }
    op.next as usize
}

/// Fused pair of non-identical pure-ALU ops: one dispatch, one budget
/// transaction, two member executions. The constant member kinds were
/// burned into `sub`/`sub2` at lowering; partial effects before budget
/// exhaustion are handled by the exact-replay tail.
fn h_alu_pair(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if st.insn_left < 2 {
        return alu_pair_tail(st, op);
    }
    st.insn_left -= 2;
    st.counts[op.cls as usize] += 1;
    st.counts[op.cls2 as usize] += 1;
    exec_pure_alu(
        op.sub,
        op.dst as usize,
        op.src as usize,
        op.imm,
        &mut st.regs,
        1,
    );
    exec_pure_alu(
        op.sub2,
        op.dst2 as usize,
        op.src2 as usize,
        op.imm2,
        &mut st.regs,
        1,
    );
    op.next as usize
}

/// Budget-exhaustion tail of [`h_alu_pair`]: replays exact per-op
/// semantics — either the first member's head check faults, or the
/// first member executes and the second member's head check faults.
/// Pure-ALU members touch no memory and the engine discards counts on
/// faults, so the replay is observationally identical to per-op
/// dispatch.
#[cold]
fn alu_pair_tail(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if !pay(st, op.cls) {
        return STOP;
    }
    exec_pure_alu(
        op.sub,
        op.dst as usize,
        op.src as usize,
        op.imm,
        &mut st.regs,
        1,
    );
    st.outcome = Some(Err(VmError::InstructionBudgetExceeded {
        budget: st.max_instructions,
    }));
    STOP
}

/// [`Kind::AluRep`] superinstruction: identical-run RLE from the
/// decode tier. When the instruction budget cannot cover the whole
/// run, it executes one member and steps to the next member's own
/// suffix head, so exhaustion lands on the same op as in the reference.
fn h_alu_rep(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if !pay(st, op.cls) {
        return STOP;
    }
    let n = op.target;
    let dst = op.dst as usize;
    let src = op.src as usize;
    if st.insn_left < n - 1 {
        exec_pure_alu(op.sub, dst, src, op.imm, &mut st.regs, 1);
        return op.alt as usize;
    }
    st.insn_left -= n - 1;
    st.counts[op.cls as usize] += (n - 1) as u64;
    exec_pure_alu(op.sub, dst, src, op.imm, &mut st.regs, n);
    op.next as usize
}

/// [`Kind::BranchRep`] superinstruction: a run of identical
/// fall-through branches decided by one evaluation.
fn h_branch_rep(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if !pay(st, op.cls) {
        return STOP;
    }
    let n = op.target;
    let dst = op.dst as usize;
    let src = op.src as usize;
    if st.insn_left < n - 1 || st.branch_left < n {
        if st.branch_left == 0 {
            st.outcome = Some(Err(VmError::BranchBudgetExceeded {
                budget: st.max_branches,
            }));
            return STOP;
        }
        st.branch_left -= 1;
        let t = eval_cond(op.sub, dst, src, op.imm, &st.regs);
        st.counts[BNT - t as usize] += 1;
        return op.alt as usize;
    }
    st.insn_left -= n - 1;
    st.branch_left -= n;
    let t = eval_cond(op.sub, dst, src, op.imm, &st.regs);
    st.counts[BNT - t as usize] += n as u64;
    op.next as usize
}

/// Helper call: slot-bound sites index the registry vector directly
/// (see [`DecodedProgram::bind_helpers`]); unbound sites fall back to
/// the id hash lookup with identical fault semantics.
fn h_call(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if !pay(st, op.cls) {
        return STOP;
    }
    let args = [st.regs[1], st.regs[2], st.regs[3], st.regs[4], st.regs[5]];
    let result = if op.target != 0 {
        st.helpers
            .call_slot(op.target as usize - 1, op.imm as u32, st.mem, args)
    } else {
        st.helpers.call(op.imm as u32, st.mem, args)
    };
    match result {
        Ok(v) => {
            st.regs[0] = v;
            op.next as usize
        }
        Err(e) => {
            st.outcome = Some(Err(e));
            STOP
        }
    }
}

/// `exit`: folds the flat class counts into [`crate::vm::OpCounts`].
fn h_exit(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if !pay(st, op.cls) {
        return STOP;
    }
    let real: &[u64; OpClass::COUNT] = st.counts[..OpClass::COUNT].try_into().expect("fixed split");
    st.outcome = Some(Ok(Execution {
        return_value: st.regs[0],
        counts: crate::vm::OpCounts::from_class_array(real),
    }));
    STOP
}

/// Trailing guard: sequential flow ran past the text section.
fn h_sentinel(st: &mut ThreadedState<'_, '_>, op: &ThreadedOp) -> Control {
    if !pay(st, op.cls) {
        return STOP;
    }
    st.outcome = Some(Err(VmError::PcOutOfBounds { pc: op.pc as usize }));
    STOP
}

/// Selects the handler for one decoded op (pair fusion is a separate
/// peephole pass in [`ThreadedProgram::lower`]).
fn handler_for(op: &DecodedInsn) -> Handler {
    match op.kind {
        Kind::LdImm => h_ld_imm,
        Kind::Ldx1 => h_ldx1,
        Kind::Ldx2 => h_ldx2,
        Kind::Ldx4 => h_ldx4,
        Kind::Ldx8 => h_ldx8,
        Kind::St1 => h_st1,
        Kind::St2 => h_st2,
        Kind::St4 => h_st4,
        Kind::St8 => h_st8,
        Kind::Stx1 => h_stx1,
        Kind::Stx2 => h_stx2,
        Kind::Stx4 => h_stx4,
        Kind::Stx8 => h_stx8,
        Kind::Add32Imm => h_add32_imm,
        Kind::Add32Reg => h_add32_reg,
        Kind::Sub32Imm => h_sub32_imm,
        Kind::Sub32Reg => h_sub32_reg,
        Kind::Mul32Imm => h_mul32_imm,
        Kind::Mul32Reg => h_mul32_reg,
        Kind::Div32Imm => {
            if op.imm as u32 == 0 {
                h_div_zero_imm
            } else {
                h_div32_imm
            }
        }
        Kind::Div32Reg => h_div32_reg,
        Kind::Or32Imm => h_or32_imm,
        Kind::Or32Reg => h_or32_reg,
        Kind::And32Imm => h_and32_imm,
        Kind::And32Reg => h_and32_reg,
        Kind::Lsh32Imm => h_lsh32_imm,
        Kind::Lsh32Reg => h_lsh32_reg,
        Kind::Rsh32Imm => h_rsh32_imm,
        Kind::Rsh32Reg => h_rsh32_reg,
        Kind::Neg32 => h_neg32,
        Kind::Mod32Imm => {
            if op.imm as u32 == 0 {
                h_div_zero_imm
            } else {
                h_mod32_imm
            }
        }
        Kind::Mod32Reg => h_mod32_reg,
        Kind::Xor32Imm => h_xor32_imm,
        Kind::Xor32Reg => h_xor32_reg,
        Kind::Mov32Imm => h_mov32_imm,
        Kind::Mov32Reg => h_mov32_reg,
        Kind::Arsh32Imm => h_arsh32_imm,
        Kind::Arsh32Reg => h_arsh32_reg,
        Kind::Le16 => h_le16,
        Kind::Le32 => h_le32,
        Kind::Le64 => h_le64,
        Kind::Be16 => h_be16,
        Kind::Be32 => h_be32,
        Kind::Be64 => h_be64,
        Kind::Add64Imm => h_add64_imm,
        Kind::Add64Reg => h_add64_reg,
        Kind::Sub64Imm => h_sub64_imm,
        Kind::Sub64Reg => h_sub64_reg,
        Kind::Mul64Imm => h_mul64_imm,
        Kind::Mul64Reg => h_mul64_reg,
        Kind::Div64Imm => {
            if op.imm == 0 {
                h_div_zero_imm
            } else {
                h_div64_imm
            }
        }
        Kind::Div64Reg => h_div64_reg,
        Kind::Or64Imm => h_or64_imm,
        Kind::Or64Reg => h_or64_reg,
        Kind::And64Imm => h_and64_imm,
        Kind::And64Reg => h_and64_reg,
        Kind::Lsh64Imm => h_lsh64_imm,
        Kind::Lsh64Reg => h_lsh64_reg,
        Kind::Rsh64Imm => h_rsh64_imm,
        Kind::Rsh64Reg => h_rsh64_reg,
        Kind::Neg64 => h_neg64,
        Kind::Mod64Imm => {
            if op.imm == 0 {
                h_div_zero_imm
            } else {
                h_mod64_imm
            }
        }
        Kind::Mod64Reg => h_mod64_reg,
        Kind::Xor64Imm => h_xor64_imm,
        Kind::Xor64Reg => h_xor64_reg,
        Kind::Mov64Imm => h_mov64_imm,
        Kind::Mov64Reg => h_mov64_reg,
        Kind::Arsh64Imm => h_arsh64_imm,
        Kind::Arsh64Reg => h_arsh64_reg,
        Kind::Ja => h_ja,
        Kind::JeqImm => h_jeq_imm,
        Kind::JeqReg => h_jeq_reg,
        Kind::JgtImm => h_jgt_imm,
        Kind::JgtReg => h_jgt_reg,
        Kind::JgeImm => h_jge_imm,
        Kind::JgeReg => h_jge_reg,
        Kind::JltImm => h_jlt_imm,
        Kind::JltReg => h_jlt_reg,
        Kind::JleImm => h_jle_imm,
        Kind::JleReg => h_jle_reg,
        Kind::JsetImm => h_jset_imm,
        Kind::JsetReg => h_jset_reg,
        Kind::JneImm => h_jne_imm,
        Kind::JneReg => h_jne_reg,
        Kind::JsgtImm => h_jsgt_imm,
        Kind::JsgtReg => h_jsgt_reg,
        Kind::JsgeImm => h_jsge_imm,
        Kind::JsgeReg => h_jsge_reg,
        Kind::JsltImm => h_jslt_imm,
        Kind::JsltReg => h_jslt_reg,
        Kind::JsleImm => h_jsle_imm,
        Kind::JsleReg => h_jsle_reg,
        Kind::Call => h_call,
        Kind::Exit => h_exit,
        Kind::AluRep => h_alu_rep,
        Kind::BranchRep => h_branch_rep,
        Kind::Sentinel => h_sentinel,
        // Fused micro kinds live only inside block micro streams,
        // never in a decoded program.
        Kind::FusedAddAnd32 | Kind::FusedAndAdd32 | Kind::FusedAddAnd64 | Kind::FusedAndAdd64 => {
            unreachable!("fused micro kind in decoded stream")
        }
    }
}

/// True when a decoded op can be a member of a fused pair or block: a
/// plain (non-rep-head) op that cannot fault — pure ALU, a constant
/// divisor the verifier proved non-zero, or any branch (branches are
/// block members only; pairs stay pure ALU).
fn fusable(op: &DecodedInsn) -> bool {
    op.kind == op.sub
        && (op.kind.is_pure_alu()
            || op.kind.is_branch()
            || (matches!(
                op.kind,
                Kind::Div32Imm | Kind::Div64Imm | Kind::Mod32Imm | Kind::Mod64Imm
            ) && op.imm != 0))
}

/// A program lowered into handler-chain (threaded-code) form.
///
/// Constructed from a [`DecodedProgram`] — after
/// [`DecodedProgram::bind_helpers`] when install-time helper binding is
/// wanted, since the lowering snapshots each op's `target` field.
///
/// # Bounds invariants (relied on by the trampoline)
///
/// Inherited from the decoded stream (see [`DecodedProgram`]): every
/// handler returns either `STOP` or an in-bounds chain index —
/// `next`/`alt` are precomputed from in-run offsets, branch targets
/// were verifier-checked, and the stream ends with a sentinel handler
/// that always stops.
#[derive(Debug, Clone)]
pub struct ThreadedProgram {
    ops: Vec<ThreadedOp>,
    /// Concatenated per-block micro-op streams.
    micro: Vec<MicroOp>,
    /// Block exit-point bookkeeping records.
    exits: Vec<BlockExit>,
    /// Original slot index → chain index (`u32::MAX` for wide tails).
    pc_map: Vec<u32>,
    /// Number of fused pairs and blocks (introspection/tests).
    pairs: u32,
}

impl ThreadedProgram {
    /// Lowers a decoded program into handler-chain form, running the
    /// fusion peephole over adjacent non-identical fusable ops (pure
    /// ALU, verified constant divisors, branches).
    pub fn lower(decoded: &DecodedProgram) -> Self {
        let dops = decoded.ops();
        let n = dops.len();
        let last = n - 1; // sentinel index
        let mut ops: Vec<ThreadedOp> = dops
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let straight = (i + 1).min(last) as u32;
                let next = match d.kind {
                    // Past the whole run; `alt` keeps the single-step exit.
                    Kind::AluRep | Kind::BranchRep => (i + d.target as usize).min(last) as u32,
                    _ => straight,
                };
                ThreadedOp {
                    handler: handler_for(d),
                    imm: d.imm,
                    imm2: 0,
                    next,
                    alt: straight,
                    target: d.target,
                    pc: d.pc,
                    off: d.off,
                    sub: d.sub,
                    sub2: d.sub,
                    dst: d.dst,
                    src: d.src,
                    dst2: 0,
                    src2: 0,
                    cls: d.cls,
                    cls2: d.cls,
                }
            })
            .collect();

        // Fusion peephole over *non-identical* neighbours (identical
        // runs were already RLE-fused by the decode tier). Fusion is
        // anchored at *heads* — the chain indices where control can
        // actually enter a straight-line region: the entry, every
        // branch target, rep fallback/continuation points, and the
        // first fusable op after any non-fusable one. Each head gets
        // the maximal run of consecutive fusable ops starting at it: a
        // pure-ALU length-2 run becomes a fused pair (both members
        // burned inline), anything longer — or anything containing
        // branches — a block superinstruction with its own micro-op
        // stream and precomputed exit records. Non-head members keep
        // their plain per-op handlers, so entering the middle of a
        // block (an exotic `run_from` entry) is always sound — it just
        // runs per-op until the next head.
        let mut is_head = vec![false; n];
        is_head[0] = true;
        for (i, d) in dops.iter().enumerate().take(last) {
            if fusable(d) && (i == 0 || !fusable(&dops[i - 1])) {
                is_head[i] = true;
            }
            if d.kind == d.sub && d.sub.is_branch() {
                // Verifier-checked, pre-resolved to a chain index.
                is_head[d.target as usize] = true;
            }
            if matches!(d.kind, Kind::AluRep | Kind::BranchRep) {
                is_head[(i + 1).min(last)] = true;
                is_head[(i + d.target as usize).min(last)] = true;
            }
        }

        let mut micro: Vec<MicroOp> = Vec::new();
        let mut exits: Vec<BlockExit> = Vec::new();
        let mut pairs = 0u32;
        for h in 0..last {
            if !is_head[h] || !fusable(&dops[h]) {
                continue;
            }
            // Bound both the per-block member count and the total
            // lowered footprint: overlapping blocks (a head inside
            // another head's run) duplicate members, and an
            // adversarial every-op-is-a-target program must not make
            // the lowering superlinear. Unfused heads stay plain.
            let mut k = 0usize;
            while h + k < last && k < MAX_BLOCK && fusable(&dops[h + k]) {
                k += 1;
            }
            if k < 2 || micro.len() > 16 * n {
                continue;
            }
            if k == MAX_BLOCK && h + k < last && fusable(&dops[h + k]) {
                // Capped mid-region: chain into a follow-up block so a
                // long straight line stays fused end to end (`h + k`
                // is visited later in this same ascending scan).
                is_head[h + k] = true;
            }
            let members = &dops[h..h + k];
            let branches = members.iter().filter(|d| d.sub.is_branch()).count() as u32;
            if k == 2 && branches == 0 {
                let second = &dops[h + 1];
                let op = &mut ops[h];
                op.handler = h_alu_pair;
                op.sub2 = second.sub;
                op.imm2 = second.imm;
                op.dst2 = second.dst;
                op.src2 = second.src;
                op.cls2 = second.cls;
                op.next = (h + 2) as u32;
                pairs += 1;
                continue;
            }
            // Running per-class counts for the prefix before each exit
            // point; reaching a branch's taken exit means every earlier
            // branch evaluated not-taken. Built into scratch vectors
            // first: a prefix spanning more classes than an exit record
            // holds aborts fusion for this head (ops stay plain).
            let mut block_micro: Vec<MicroOp> = Vec::with_capacity(k);
            let mut block_exits: Vec<BlockExit> = Vec::new();
            let mut acc = [0u64; OpClass::COUNT + 1];
            let mut b_seen = 0u32;
            let mut representable = true;
            for (p, d) in members.iter().enumerate() {
                let mut exit = 0u32;
                if d.sub.is_branch() {
                    let mut snap = acc;
                    snap[BNT] += b_seen as u64;
                    snap[BNT - 1] += 1;
                    match make_exit((p + 1) as u32, b_seen + 1, &snap) {
                        Some(e) => {
                            exit = block_exits.len() as u32;
                            block_exits.push(e);
                        }
                        None => {
                            representable = false;
                            break;
                        }
                    }
                    b_seen += 1;
                } else {
                    acc[d.cls as usize] += 1;
                }
                // 32-bit constant divisors strength-reduce to a
                // multiply by `floor(2^64 / d)` plus one correction
                // step (see the `Div32Imm` member arm); a divisor of 1
                // degenerates to the identity (`n / 1` zero-extends,
                // `n % 1` is zero). Zero divisors are never fusable.
                let (sub, imm, target) = match d.sub {
                    Kind::Div32Imm | Kind::Mod32Imm if d.imm as u32 >= 2 => {
                        let dv = d.imm as u32;
                        ((d.sub), ((1u128 << 64) / u128::from(dv)) as u64, dv)
                    }
                    Kind::Div32Imm => (Kind::Le32, 0, 0),
                    Kind::Mod32Imm => (Kind::And32Imm, 0, 0),
                    _ => (d.sub, d.imm, d.target),
                };
                // dst/src clamped below the register count: the
                // verifier guarantees the range for real programs, and
                // the clamp keeps the block loop's unchecked register
                // access sound even for hand-built unverified ones.
                block_micro.push(MicroOp {
                    imm,
                    target,
                    exit,
                    sub,
                    dst: d.dst.min(10),
                    src: d.src.min(10),
                    cls: d.cls,
                    self_loop: d.sub.is_branch() && d.target as usize == h,
                    extra: 0,
                });
            }
            let mut snap = acc;
            snap[BNT] += b_seen as u64;
            let fallout = match make_exit(k as u32, b_seen, &snap) {
                Some(e) if representable => {
                    block_exits.push(e);
                    block_exits.len() as u32 - 1
                }
                _ => continue,
            };
            // Algebraic micro-fusion: collapse foldable adjacent pairs
            // (chaining, so `mov; add; add` folds to one load). Exit
            // records stay source-accurate; only the executed member
            // stream compresses.
            let mut folded: Vec<MicroOp> = Vec::with_capacity(block_micro.len());
            for m in block_micro {
                if let Some(prev) = folded.last() {
                    if let Some(f) = fold_pair(prev, &m) {
                        *folded.last_mut().expect("non-empty") = f;
                        continue;
                    }
                }
                folded.push(m);
            }
            let mut block_micro = folded;
            let mlen = block_micro.len() as u8;

            let base = micro.len() as u32;
            let exit_base = exits.len() as u32;
            for m in &mut block_micro {
                m.exit += exit_base;
            }
            // A block with exactly one self-loop branch qualifies for
            // spin mode: stash that member's exit index in `imm`.
            let mut spin = u32::MAX;
            let mut spin_count = 0u32;
            for m in &block_micro {
                if m.self_loop {
                    spin = m.exit;
                    spin_count += 1;
                }
            }
            if spin_count != 1 {
                spin = u32::MAX;
            }
            // Sentinel: a synthetic always-taken `ja` to the block's
            // fall-out successor, carrying the fall-out exit record.
            // The member loop needs no end-of-block bound check at all —
            // it always leaves through some taken branch, real or
            // sentinel. (The exact-replay tail excludes it: `op.dst`
            // counts real members only.)
            block_micro.push(MicroOp {
                imm: 0,
                target: (h + k) as u32,
                exit: exit_base + fallout,
                sub: Kind::Ja,
                dst: 0,
                src: 0,
                cls: crate::decode::CLS_SCRATCH,
                self_loop: false,
                extra: 0,
            });
            micro.extend_from_slice(&block_micro);
            exits.extend_from_slice(&block_exits);
            let op = &mut ops[h];
            op.handler = h_block;
            op.alt = base;
            op.target = k as u32;
            op.dst = mlen;
            op.imm = u64::from(spin);
            op.imm2 = u64::from(exit_base + fallout) | u64::from(branches) << 32;
            op.next = (h + k) as u32;
            pairs += 1;
        }

        let pc_map = (0..decoded.orig_len())
            .map(|pc| {
                decoded
                    .decoded_index(pc)
                    .map(|i| i as u32)
                    .unwrap_or(u32::MAX)
            })
            .collect();

        ThreadedProgram {
            ops,
            micro,
            exits,
            pc_map,
            pairs,
        }
    }

    /// Number of chain entries (wide pairs count once; the sentinel
    /// guard is excluded). Equals [`DecodedProgram::len`].
    pub fn len(&self) -> usize {
        self.ops.len() - 1
    }

    /// True when the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of original instruction slots.
    pub fn orig_len(&self) -> usize {
        self.pc_map.len()
    }

    /// Number of fused pairs and blocks produced by the peephole.
    pub fn pair_count(&self) -> u32 {
        self.pairs
    }

    /// Maps an original slot index to its chain index (`None` for the
    /// second slot of a wide instruction).
    fn chain_index(&self, orig_pc: usize) -> Option<usize> {
        match self.pc_map.get(orig_pc) {
            Some(&u32::MAX) | None => None,
            Some(&i) => Some(i as usize),
        }
    }
}

/// Threaded-code interpreter over a [`ThreadedProgram`].
///
/// # Examples
///
/// ```
/// use fc_rbpf::{asm, isa, verifier, mem::MemoryMap};
/// use fc_rbpf::decode::DecodedProgram;
/// use fc_rbpf::threaded::{ThreadedInterpreter, ThreadedProgram};
/// use fc_rbpf::helpers::HelperRegistry;
/// use std::collections::HashSet;
///
/// let text = isa::encode_all(&asm::assemble("mov r0, 40\nadd r0, 2\nexit").unwrap());
/// let prog = verifier::verify(&text, &HashSet::new()).unwrap();
/// let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
/// let mut mem = MemoryMap::new();
/// mem.add_stack(512);
/// let mut helpers = HelperRegistry::new();
/// let out = ThreadedInterpreter::new(&threaded, Default::default())
///     .run(&mut mem, &mut helpers, 0)
///     .unwrap();
/// assert_eq!(out.return_value, 42);
/// ```
#[derive(Debug)]
pub struct ThreadedInterpreter<'p> {
    program: &'p ThreadedProgram,
    config: ExecConfig,
}

impl<'p> ThreadedInterpreter<'p> {
    /// Creates a threaded-code interpreter for a lowered program.
    pub fn new(program: &'p ThreadedProgram, config: ExecConfig) -> Self {
        ThreadedInterpreter { program, config }
    }

    /// The execution limits in force.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Runs the program from slot 0 with `r1 = ctx`.
    ///
    /// # Errors
    ///
    /// As the reference interpreter: any [`VmError`] aborts execution,
    /// leaving the host intact and prior stores visible in `mem`.
    pub fn run(
        &self,
        mem: &mut MemoryMap,
        helpers: &mut HelperRegistry<'_>,
        ctx: u64,
    ) -> Result<Execution, VmError> {
        self.run_from(mem, helpers, ctx, 0)
    }

    /// Runs the program from an explicit entry slot given in
    /// **original** (pre-decode) instruction slots, mirroring
    /// [`crate::interp::Interpreter::run_from`].
    ///
    /// # Errors
    ///
    /// [`VmError::PcOutOfBounds`] when `entry` is outside the text
    /// section, plus any run-time fault.
    pub fn run_from(
        &self,
        mem: &mut MemoryMap,
        helpers: &mut HelperRegistry<'_>,
        ctx: u64,
        entry: usize,
    ) -> Result<Execution, VmError> {
        if entry >= self.program.orig_len() {
            return Err(VmError::PcOutOfBounds { pc: entry });
        }
        let entry = match self.program.chain_index(entry) {
            Some(i) => i,
            None => {
                // The reference interpreter would fetch the wide pair's
                // zero-opcode tail: budget-check it, then reject it.
                if self.config.max_instructions == 0 {
                    return Err(VmError::InstructionBudgetExceeded { budget: 0 });
                }
                return Err(VmError::UnknownOpcode {
                    pc: entry,
                    opcode: 0,
                });
            }
        };

        let mut st = ThreadedState {
            regs: [0u64; 11],
            insn_left: self.config.max_instructions,
            branch_left: self.config.max_branches,
            counts: [0u64; OpClass::COUNT + 1],
            mem,
            helpers,
            load_cur: RegionCursor::new(),
            store_cur: RegionCursor::new(),
            micro: &self.program.micro,
            exits: &self.program.exits,
            max_instructions: self.config.max_instructions,
            max_branches: self.config.max_branches,
            outcome: None,
        };
        st.regs[1] = ctx;
        st.regs[10] = st.mem.stack_top();

        let ops = self.program.ops.as_slice();
        let mut pc = entry;
        loop {
            // SAFETY: `pc` always indexes inside `ops`. Entry indices
            // come from `chain_index` (real ops only); branch targets
            // were verifier-checked and pre-resolved by
            // `DecodedProgram::lower`; `next`/`alt` successors were
            // precomputed in-bounds by `ThreadedProgram::lower`; and
            // the stream ends with a sentinel whose handler always
            // returns `STOP`.
            let op = unsafe { ops.get_unchecked(pc) };
            pc = (op.handler)(&mut st, op);
            if pc == STOP {
                break;
            }
        }
        st.outcome.expect("stopping handler records the outcome")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::interp::Interpreter;
    use crate::isa;
    use crate::mem::Perm;
    use crate::verifier::verify;
    use std::collections::HashSet;

    fn lower_src(src: &str) -> (crate::verifier::VerifiedProgram, ThreadedProgram) {
        let text = isa::encode_all(&assemble(src).unwrap());
        let prog = verify(&text, &HashSet::new()).unwrap();
        let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
        (prog, threaded)
    }

    fn both(src: &str) -> (Result<Execution, VmError>, Result<Execution, VmError>) {
        let (prog, threaded) = lower_src(src);
        let run = |use_threaded: bool| {
            let mut mem = MemoryMap::new();
            mem.add_stack(512);
            mem.add_ctx(vec![0x5a; 16], Perm::RW);
            let mut helpers = HelperRegistry::new();
            if use_threaded {
                ThreadedInterpreter::new(&threaded, ExecConfig::default()).run(
                    &mut mem,
                    &mut helpers,
                    0x2000_0000,
                )
            } else {
                Interpreter::new(&prog, ExecConfig::default()).run(
                    &mut mem,
                    &mut helpers,
                    0x2000_0000,
                )
            }
        };
        (run(false), run(true))
    }

    #[test]
    fn matches_reference_on_smoke_programs() {
        for src in [
            "mov r0, 21\nadd r0, r0\nexit",
            "lddw r0, 0xdeadbeefcafebabe\nbe64 r0\nexit",
            "mov r0, 0\nmov r1, 10\nloop: add r0, 2\nsub r1, 1\njne r1, 0, loop\nexit",
            "mov r1, 0x1234\nstxdw [r10-8], r1\nldxdw r0, [r10-8]\nexit",
            "ldxdw r0, [r1]\nexit",
            "mov32 r0, 0x80000000\narsh32 r0, 4\nexit",
            "mov r0, 1\nmov r1, 0\ndiv r0, r1\nexit",
            "ldxdw r0, [r10+64]\nexit",
            "mov r0, 100\ndiv r0, 7\nmod r0, 5\nexit",
            "stb [r10-1], 7\nsth [r10-4], 8\nstw [r10-8], 9\nstdw [r10-16], 10\n\
             ldxb r0, [r10-1]\nldxh r1, [r10-4]\nldxw r2, [r10-8]\nldxdw r3, [r10-16]\n\
             add r0, r1\nadd r0, r2\nadd r0, r3\nexit",
        ] {
            let (vanilla, threaded) = both(src);
            assert_eq!(vanilla, threaded, "src: {src}");
        }
    }

    #[test]
    fn op_counts_match_reference() {
        let (vanilla, threaded) =
            both("mov r0, 2\nmul r0, 3\nstxdw [r10-8], r0\nldxdw r0, [r10-8]\nexit");
        assert_eq!(vanilla.unwrap().counts, threaded.unwrap().counts);
    }

    #[test]
    fn pair_fusion_covers_non_identical_neighbours() {
        // add/xor/lsh/rsh alternation: no identical runs, so decode's
        // RLE leaves one op per slot — the peephole must fuse the whole
        // straight-line region into a single block superinstruction.
        let (_, threaded) =
            lower_src("mov r0, 5\nadd r0, 7\nxor r0, 3\nlsh r0, 2\nrsh r0, 1\nexit");
        assert_eq!(threaded.pair_count(), 1, "one region, one block");
        // A store splits the region: two pure-ALU pairs fuse around it.
        let (_, threaded) =
            lower_src("mov r0, 5\nadd r0, 7\nstxdw [r10-8], r0\nxor r0, 3\nlsh r0, 2\nexit");
        assert_eq!(threaded.pair_count(), 2, "two regions, two pairs");
    }

    #[test]
    fn pair_fusion_preserves_budget_exhaustion_semantics() {
        // Exhaust the budget in the middle of a fused pair at every
        // possible cut point; the fault and the prior register effects
        // must match the reference interpreter exactly.
        let src = "mov r0, 1\nadd r0, 2\nxor r0, 7\nadd r0, 9\nxor r0, 1\nexit";
        let text = isa::encode_all(&assemble(src).unwrap());
        let prog = verify(&text, &HashSet::new()).unwrap();
        let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
        assert!(threaded.pair_count() >= 1);
        for budget in 0..8u32 {
            let cfg = ExecConfig::new(budget, 512);
            let run_t = {
                let mut mem = MemoryMap::new();
                mem.add_stack(64);
                let mut helpers = HelperRegistry::new();
                ThreadedInterpreter::new(&threaded, cfg).run(&mut mem, &mut helpers, 0)
            };
            let run_v = {
                let mut mem = MemoryMap::new();
                mem.add_stack(64);
                let mut helpers = HelperRegistry::new();
                Interpreter::new(&prog, cfg).run(&mut mem, &mut helpers, 0)
            };
            assert_eq!(run_v, run_t, "budget {budget}");
        }
    }

    #[test]
    fn branch_into_pair_middle_executes_standalone_member() {
        // The jump lands on the second member of the fused (add, xor)
        // pair; its standalone handler must execute exactly one op.
        let src = "ja +2\nadd r0, 100\nxor r0, 0\nmov r1, 3\nexit";
        let (vanilla, threaded) = both(src);
        let v = vanilla.unwrap();
        let t = threaded.unwrap();
        assert_eq!(v, t);
        assert_eq!(t.return_value, 0);
    }

    #[test]
    fn div_by_zero_immediate_faults_identically() {
        // Unverified program: the decode-time divisor resolution must
        // install the always-fault handler, not divide.
        for op in ["div32", "mod32", "div", "mod"] {
            let src = format!("mov r0, 9\n{op} r0, 0\nexit");
            let insns = assemble(&src).unwrap();
            let prog = crate::verifier::VerifiedProgram::unverified_for_tests(insns);
            let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
            let mut mem = MemoryMap::new();
            mem.add_stack(64);
            let mut helpers = HelperRegistry::new();
            let t = ThreadedInterpreter::new(&threaded, ExecConfig::default())
                .run(&mut mem, &mut helpers, 0)
                .unwrap_err();
            let v = Interpreter::new(&prog, ExecConfig::default())
                .run(&mut mem, &mut helpers, 0)
                .unwrap_err();
            assert_eq!(t, VmError::DivisionByZero { pc: 1 }, "{op}");
            assert_eq!(t, v, "{op}");
        }
    }

    #[test]
    fn budgets_enforced_identically() {
        let src = "spin: ja spin\nexit";
        let text = isa::encode_all(&assemble(src).unwrap());
        let prog = verify(&text, &HashSet::new()).unwrap();
        let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
        let mut mem = MemoryMap::new();
        mem.add_stack(512);
        let mut helpers = HelperRegistry::new();
        let err = ThreadedInterpreter::new(&threaded, ExecConfig::new(1_000_000, 100))
            .run(&mut mem, &mut helpers, 0)
            .unwrap_err();
        assert_eq!(err, VmError::BranchBudgetExceeded { budget: 100 });
        let err = ThreadedInterpreter::new(&threaded, ExecConfig::new(16, 1_000))
            .run(&mut mem, &mut helpers, 0)
            .unwrap_err();
        assert_eq!(err, VmError::InstructionBudgetExceeded { budget: 16 });
    }

    #[test]
    fn helper_calls_route_identically() {
        let text = isa::encode_all(&assemble("mov r1, 40\ncall 2\nexit").unwrap());
        let prog = verify(&text, &[2u32].iter().copied().collect()).unwrap();
        let mut decoded = DecodedProgram::lower(&prog);
        let mut helpers = HelperRegistry::new();
        helpers.register(2, "plus2", |_m, args| Ok(args[0] + 2));
        // Bind before the threaded lowering, as the engine does.
        decoded.bind_helpers(&helpers);
        let threaded = ThreadedProgram::lower(&decoded);
        let mut mem = MemoryMap::new();
        mem.add_stack(512);
        let out = ThreadedInterpreter::new(&threaded, ExecConfig::default())
            .run(&mut mem, &mut helpers, 0)
            .unwrap();
        assert_eq!(out.return_value, 42);
        assert_eq!(out.counts.helper_call, 1);
    }

    #[test]
    fn run_from_entry_matches_reference() {
        let src = "mov r0, 1\nexit\nmov r0, 2\nexit";
        let text = isa::encode_all(&assemble(src).unwrap());
        let prog = verify(&text, &HashSet::new()).unwrap();
        let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
        let mut mem = MemoryMap::new();
        mem.add_stack(512);
        let mut helpers = HelperRegistry::new();
        let t = ThreadedInterpreter::new(&threaded, ExecConfig::default());
        assert_eq!(
            t.run_from(&mut mem, &mut helpers, 0, 2)
                .unwrap()
                .return_value,
            2
        );
        assert!(matches!(
            t.run_from(&mut mem, &mut helpers, 0, 99),
            Err(VmError::PcOutOfBounds { pc: 99 })
        ));
    }

    #[test]
    fn entry_on_wide_tail_matches_reference() {
        let src = "lddw r0, 0x1122334455667788\nexit";
        let text = isa::encode_all(&assemble(src).unwrap());
        let prog = verify(&text, &HashSet::new()).unwrap();
        let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
        let mut mem = MemoryMap::new();
        mem.add_stack(512);
        let mut helpers = HelperRegistry::new();
        let vanilla = Interpreter::new(&prog, ExecConfig::default())
            .run_from(&mut mem, &mut helpers, 0, 1)
            .unwrap_err();
        let t = ThreadedInterpreter::new(&threaded, ExecConfig::default())
            .run_from(&mut mem, &mut helpers, 0, 1)
            .unwrap_err();
        assert_eq!(vanilla, t);
        assert_eq!(t, VmError::UnknownOpcode { pc: 1, opcode: 0 });
    }

    #[test]
    fn cursor_path_survives_structural_map_changes_from_helpers() {
        // A helper that grows the memory map mid-run: the interpreter's
        // cursors must not serve stale region geometry afterwards.
        let src = "ldxdw r2, [r10-8]\ncall 9\nldxdw r0, [r10-8]\nexit";
        let text = isa::encode_all(&assemble(src).unwrap());
        let prog = verify(&text, &[9u32].iter().copied().collect()).unwrap();
        let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
        let mut mem = MemoryMap::new();
        mem.add_stack(512);
        let mut helpers = HelperRegistry::new();
        helpers.register(9, "grow", |m, _args| {
            m.add_host_region("grown", vec![0xab; 16], Perm::RO);
            Ok(0)
        });
        let out = ThreadedInterpreter::new(&threaded, ExecConfig::default())
            .run(&mut mem, &mut helpers, 0)
            .unwrap();
        assert_eq!(out.return_value, 0);
        assert_eq!(out.counts.load, 2);
    }

    #[test]
    fn algebraic_folds_match_reference() {
        // Each program exercises one fold rule inside a block (the
        // trailing loop guarantees block lowering); results and op
        // counts must match the reference interpreter exactly.
        for src in [
            // Shift round trip -> mask.
            "mov r3, -1\nmov r2, 3\nloop: lsh r3, 17\nrsh r3, 17\nsub r2, 1\n\
             jne r2, 0, loop\nmov r0, r3\nexit",
            // lsh/rsh with different counts must NOT mask-fold.
            "mov r3, -1\nmov r2, 3\nloop: lsh r3, 8\nrsh r3, 4\nsub r2, 1\n\
             jne r2, 0, loop\nmov r0, r3\nexit",
            // Immediate chains: add, and, or, xor (64 and 32 bit).
            "mov r3, 100\nmov r2, 3\nloop: add r3, 7\nadd r3, -2\nsub r2, 1\n\
             jne r2, 0, loop\nmov r0, r3\nexit",
            "mov r3, -1\nmov r2, 3\nloop: and32 r3, 0xff0f\nand32 r3, 0xfff\nor32 r3, 1\n\
             or32 r3, 2\nxor32 r3, 5\nxor32 r3, 9\nsub r2, 1\njne r2, 0, loop\n\
             mov r0, r3\nexit",
            // Same-direction shift chains (in-range and overflowing).
            "mov r3, -1\nmov r2, 3\nloop: rsh r3, 30\nrsh r3, 30\nlsh r3, 20\nlsh r3, 20\n\
             arsh r3, 5\narsh r3, 6\nsub r2, 1\njne r2, 0, loop\nmov r0, r3\nexit",
            "mov r3, -1\nmov r2, 3\nloop: rsh r3, 40\nrsh r3, 40\nsub r2, 1\n\
             jne r2, 0, loop\nmov r0, r3\nexit",
            // Constant producer: mov feeding imm, unary and self-reg ops.
            "mov r2, 3\nloop: mov r3, 1000\nmul r3, 3\nsub r2, 1\njne r2, 0, loop\n\
             mov r0, r3\nexit",
            "mov r2, 3\nloop: mov r3, 0x1234\nbe16 r3\nsub r2, 1\njne r2, 0, loop\n\
             mov r0, r3\nexit",
            "mov r2, 3\nloop: mov r3, 21\nadd r3, r3\nsub r2, 1\njne r2, 0, loop\n\
             mov r0, r3\nexit",
            // Fused add/and compositions, 32- and 64-bit, both orders.
            "mov r3, 0x12345\nmov r2, 3\nloop: add32 r3, 77\nand32 r3, 0xffff\n\
             sub r2, 1\njne r2, 0, loop\nmov r0, r3\nexit",
            "mov r3, 0x12345\nmov r2, 3\nloop: and32 r3, 0xffff\nadd32 r3, -5\n\
             sub r2, 1\njne r2, 0, loop\nmov r0, r3\nexit",
            "mov r3, 0x12345\nmov r2, 3\nloop: add r3, -3\nand r3, 0xfff0\n\
             sub r2, 1\njne r2, 0, loop\nmov r0, r3\nexit",
            "mov r3, 0x12345\nmov r2, 3\nloop: and r3, 0xfff0\nadd r3, 9\n\
             sub r2, 1\njne r2, 0, loop\nmov r0, r3\nexit",
        ] {
            let (vanilla, threaded) = both(src);
            let v = vanilla.expect("vanilla runs");
            let t = threaded.expect("threaded runs");
            assert_eq!(v.return_value, t.return_value, "src: {src}");
            assert_eq!(v.counts, t.counts, "src: {src}");
        }
    }

    #[test]
    fn folded_members_pay_exact_budget() {
        // 2 preamble ops + N * (4 source ops per iteration, folding to
        // fewer members) — budget exhaustion must fault at the same
        // source-op boundary as the reference, not at a member
        // boundary.
        let src = "mov r3, -1\nmov r2, 100000\nloop: lsh r3, 9\nrsh r3, 9\nsub r2, 1\n\
                   jne r2, 0, loop\nmov r0, r3\nexit";
        for budget in [3, 4, 5, 6, 7, 9, 10, 41, 42, 43] {
            let text = isa::encode_all(&assemble(src).unwrap());
            let prog = verify(&text, &HashSet::new()).unwrap();
            let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
            let config = ExecConfig {
                max_instructions: budget,
                ..ExecConfig::default()
            };
            let mut mem = MemoryMap::new();
            mem.add_stack(512);
            let mut helpers = HelperRegistry::new();
            let v = Interpreter::new(&prog, config).run(&mut mem, &mut helpers, 0);
            let t = ThreadedInterpreter::new(&threaded, config).run(&mut mem, &mut helpers, 0);
            assert_eq!(v, t, "budget {budget}");
        }
    }

    #[test]
    fn strength_reduced_division_matches_hardware() {
        // The fused-block Div32Imm/Mod32Imm members use the
        // multiply-high reciprocal; sweep divisors across the tricky
        // range (1, small, power-of-two, prime, near 2^31, max) and
        // dividends across the u32 edge set.
        for divisor in [
            1u32,
            2,
            3,
            7,
            10,
            641,
            1 << 16,
            (1 << 31) - 1,
            1 << 31,
            u32::MAX,
        ] {
            for dividend in [0u32, 1, 2, 6, 7, 8, 0xffff, 1 << 30, u32::MAX - 1, u32::MAX] {
                let src = format!(
                    "mov32 r3, 0x{dividend:x}\nmov32 r4, 0x{dividend:x}\nmov r2, 2\n\
                     loop: div32 r3, 0x{divisor:x}\nmod32 r4, 0x{divisor:x}\nadd r3, 0\n\
                     sub r2, 1\njne r2, 0, loop\nmov r0, r3\nadd r0, r4\nexit"
                );
                let (vanilla, threaded) = both(&src);
                let v = vanilla.expect("vanilla runs");
                let t = threaded.expect("threaded runs");
                assert_eq!(
                    v.return_value, t.return_value,
                    "dividend {dividend} divisor {divisor}"
                );
            }
        }
    }

    #[test]
    fn truncated_wide_pair_faults_like_reference() {
        for opcode in [isa::LDDW, isa::LDDWD_IMM, isa::LDDWR_IMM] {
            let prog =
                crate::verifier::VerifiedProgram::unverified_for_tests(vec![isa::Insn::new(
                    opcode, 0, 0, 0, 0x77,
                )]);
            let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
            let mut mem = MemoryMap::new();
            mem.add_stack(64);
            let mut helpers = HelperRegistry::new();
            let t = ThreadedInterpreter::new(&threaded, ExecConfig::default())
                .run(&mut mem, &mut helpers, 0)
                .unwrap_err();
            assert_eq!(t, VmError::PcOutOfBounds { pc: 1 });
        }
    }
}
