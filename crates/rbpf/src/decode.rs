//! One-time lowering of a [`VerifiedProgram`] into the decoded
//! format, the intermediate step of the threaded tier's install-time
//! pipeline (see the crate docs): [`crate::threaded::ThreadedProgram::lower`]
//! consumes a [`DecodedProgram`], which is not executed on its own.
//!
//! The vanilla interpreter re-extracts every instruction field,
//! re-sign-extends every immediate and re-fetches `lddw` second slots on
//! every step. This module pays those costs **once per program**:
//!
//! * every slot becomes a fixed-width [`DecodedInsn`] with a dense
//!   [`Kind`] discriminant (the dispatch match compiles to a compact
//!   jump table);
//! * immediates arrive pre-sign-extended (64-bit ALU), pre-zero-extended
//!   (32-bit ALU), pre-masked (shift amounts) or pre-fused (`lddw`,
//!   `lddwd`, `lddwr` collapse into a single [`Kind::LdImm`] carrying
//!   the final 64-bit value, including the `.data`/`.rodata` base);
//! * memory offsets are pre-sign-extended into the 64-bit immediate for
//!   register-addressed loads/stores;
//! * branch targets are resolved to **absolute decoded slot indices** —
//!   the dispatch loop never does pc-relative arithmetic;
//! * every op remembers its original slot index so faults report the
//!   same program counter as the reference interpreter.
//!
//! Lowering is total on verified programs: the verifier has already
//! rejected unknown opcodes, malformed wide pairs, out-of-range shifts
//! and invalid jump targets, so [`DecodedProgram::lower`] cannot fail.

use std::collections::HashSet;

use crate::isa::{self, Insn, OpClass};
use crate::mem::{DATA_VADDR, RODATA_VADDR};
use crate::verifier::{VerifiedProgram, VerifierError};

/// Dense decoded operation discriminant.
///
/// Imm/reg forms stay distinct so the dispatch loop never tests a
/// source-selector flag, and the `le`/`be` width immediate is resolved
/// into the variant itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // Variants mirror the eBPF ISA one-to-one.
pub enum Kind {
    /// Fused `lddw`/`lddwd`/`lddwr`: the full 64-bit value (including
    /// any section base) is precomputed in `imm`.
    LdImm,
    Ldx1,
    Ldx2,
    Ldx4,
    Ldx8,
    St1,
    St2,
    St4,
    St8,
    Stx1,
    Stx2,
    Stx4,
    Stx8,
    Add32Imm,
    Add32Reg,
    Sub32Imm,
    Sub32Reg,
    Mul32Imm,
    Mul32Reg,
    Div32Imm,
    Div32Reg,
    Or32Imm,
    Or32Reg,
    And32Imm,
    And32Reg,
    Lsh32Imm,
    Lsh32Reg,
    Rsh32Imm,
    Rsh32Reg,
    Neg32,
    Mod32Imm,
    Mod32Reg,
    Xor32Imm,
    Xor32Reg,
    Mov32Imm,
    Mov32Reg,
    Arsh32Imm,
    Arsh32Reg,
    Le16,
    Le32,
    Le64,
    Be16,
    Be32,
    Be64,
    Add64Imm,
    Add64Reg,
    Sub64Imm,
    Sub64Reg,
    Mul64Imm,
    Mul64Reg,
    Div64Imm,
    Div64Reg,
    Or64Imm,
    Or64Reg,
    And64Imm,
    And64Reg,
    Lsh64Imm,
    Lsh64Reg,
    Rsh64Imm,
    Rsh64Reg,
    Neg64,
    Mod64Imm,
    Mod64Reg,
    Xor64Imm,
    Xor64Reg,
    Mov64Imm,
    Mov64Reg,
    Arsh64Imm,
    Arsh64Reg,
    Ja,
    JeqImm,
    JeqReg,
    JgtImm,
    JgtReg,
    JgeImm,
    JgeReg,
    JltImm,
    JltReg,
    JleImm,
    JleReg,
    JsetImm,
    JsetReg,
    JneImm,
    JneReg,
    JsgtImm,
    JsgtReg,
    JsgeImm,
    JsgeReg,
    JsltImm,
    JsltReg,
    JsleImm,
    JsleReg,
    Call,
    Exit,
    /// Superinstruction: a run of `target` consecutive, *identical*,
    /// pure (non-faulting, register-only) ALU ops collapsed into one
    /// dispatch. `sub` holds the member op's real kind and `cls` its
    /// real counter class; every member of the run carries an `AluRep`
    /// head for its own suffix, so jumping into the middle of a run is
    /// sound. Common in compiler-unrolled arithmetic (and the paper's
    /// Figure 8 per-class micro-programs).
    AluRep,
    /// Superinstruction: a run of `target` consecutive identical
    /// branches that each target their own fall-through slot (`j* +0`).
    /// Branches never modify registers, so one condition evaluation
    /// decides the whole run's taken/not-taken accounting; either way
    /// control lands past the run. `sub` holds the member kind; the
    /// member's real branch target is its own index + 1 (reconstructed
    /// by the single-step fallback).
    BranchRep,
    /// Trailing guard op appended by [`DecodedProgram::lower`] (never
    /// part of the program): reports `PcOutOfBounds` if sequential flow
    /// ever runs past the last real op, making the dispatch loop's
    /// unchecked fetch sound even against a broken invariant.
    Sentinel,
    /// Micro-only fused pair (threaded-tier block members, never
    /// produced by instruction decoding): `add32 dst, a` then
    /// `and32 dst, b` — the bit-field-extract idiom — with both
    /// immediates packed in `imm` (`a` low half, `b` high half).
    FusedAddAnd32,
    /// Micro-only fused pair: `and32 dst, a` then `add32 dst, b`
    /// (mask then bias), immediates packed as in [`Kind::FusedAddAnd32`].
    FusedAndAdd32,
    /// Micro-only fused pair, 64-bit: `add dst, a` then `and dst, b`.
    /// Each packed half is sign-extended back to 64 bits at execution,
    /// so only i32-representable immediates are fused.
    FusedAddAnd64,
    /// Micro-only fused pair, 64-bit: `and dst, a` then `add dst, b`,
    /// packed as in [`Kind::FusedAddAnd64`].
    FusedAndAdd64,
}

impl Kind {
    /// True for conditional and unconditional branch kinds.
    pub fn is_branch(self) -> bool {
        use Kind::*;
        matches!(
            self,
            Ja | JeqImm
                | JeqReg
                | JgtImm
                | JgtReg
                | JgeImm
                | JgeReg
                | JltImm
                | JltReg
                | JleImm
                | JleReg
                | JsetImm
                | JsetReg
                | JneImm
                | JneReg
                | JsgtImm
                | JsgtReg
                | JsgeImm
                | JsgeReg
                | JsltImm
                | JsltReg
                | JsleImm
                | JsleReg
        )
    }

    /// True for register-only ops that can never fault or transfer
    /// control — the ops eligible for [`Kind::AluRep`] fusion.
    pub fn is_pure_alu(self) -> bool {
        use Kind::*;
        matches!(
            self,
            LdImm
                | Add32Imm
                | Add32Reg
                | Sub32Imm
                | Sub32Reg
                | Mul32Imm
                | Mul32Reg
                | Or32Imm
                | Or32Reg
                | And32Imm
                | And32Reg
                | Lsh32Imm
                | Lsh32Reg
                | Rsh32Imm
                | Rsh32Reg
                | Neg32
                | Xor32Imm
                | Xor32Reg
                | Mov32Imm
                | Mov32Reg
                | Arsh32Imm
                | Arsh32Reg
                | Le16
                | Le32
                | Le64
                | Be16
                | Be32
                | Be64
                | Add64Imm
                | Add64Reg
                | Sub64Imm
                | Sub64Reg
                | Mul64Imm
                | Mul64Reg
                | Or64Imm
                | Or64Reg
                | And64Imm
                | And64Reg
                | Lsh64Imm
                | Lsh64Reg
                | Rsh64Imm
                | Rsh64Reg
                | Neg64
                | Xor64Imm
                | Xor64Reg
                | Mov64Imm
                | Mov64Reg
                | Arsh64Imm
                | Arsh64Reg
        )
    }
}

/// One pre-decoded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInsn {
    /// Pre-processed 64-bit immediate. Per-kind meaning: fused wide
    /// value (`LdImm`), sign-extended memory offset (`Ldx*`/`Stx*`),
    /// store value (`St*`), zero-extended (32-bit ALU) or sign-extended
    /// (64-bit ALU) operand, pre-masked shift amount, branch right-hand
    /// side (`J*Imm`), or helper id (`Call`).
    pub imm: u64,
    /// Original instruction slot, reported in faults.
    pub pc: u32,
    /// Per-kind side value: absolute decoded slot index of the branch
    /// target (branches), run length (`AluRep`/`BranchRep`), or `1 +`
    /// the registry slot of an install-time-bound helper call (`Call`;
    /// `0` = unbound, dispatch by id).
    pub target: u32,
    /// Signed memory offset for immediate stores (`St*`).
    pub off: i16,
    /// Operation discriminant.
    pub kind: Kind,
    /// The member op's real kind when `kind` is [`Kind::AluRep`];
    /// equal to `kind` otherwise.
    pub sub: Kind,
    /// Destination register index.
    pub dst: u8,
    /// Source register index.
    pub src: u8,
    /// Pre-resolved [`OpClass`] counter index (see [`OpClass::index`]).
    /// Branches carry [`CLS_SCRATCH`]: the dispatch loop's unconditional
    /// indexed count lands in a discarded slot, and the branch arm
    /// records taken/not-taken itself.
    pub cls: u8,
}

/// Counter-array index used by ops whose dynamic class is decided in
/// the dispatch arm (branches): a 12th, discarded slot.
pub const CLS_SCRATCH: u8 = OpClass::COUNT as u8;

/// Marker in the pc map for the second slot of a wide instruction.
const WIDE_TAIL: u32 = u32::MAX;

/// A program lowered into the decoded format (the input of
/// [`crate::threaded::ThreadedProgram::lower`]).
///
/// Constructible only from a [`VerifiedProgram`], so the decoded stream
/// inherits the verifier's guarantees (valid opcodes, in-bounds branch
/// targets outside wide pairs, granted helper calls, canonical
/// encodings).
///
/// # Bounds invariants (relied on by the dispatch loop)
///
/// * `ops` ends with exactly one [`Kind::Sentinel`] guard, which is not
///   part of the program;
/// * every `pc_map` entry (and hence every entry point and pre-resolved
///   branch `target`) indexes a real (non-sentinel) op;
/// * sequential flow from any real op either transfers control or
///   advances by one, so the program counter can never exceed the
///   sentinel's index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    /// Decoded ops plus the trailing sentinel guard.
    ops: Vec<DecodedInsn>,
    /// Original slot index → decoded op index (`WIDE_TAIL` for the
    /// second slot of a wide instruction).
    pc_map: Vec<u32>,
    branch_count: u32,
}

impl DecodedProgram {
    /// Lowers a verified program into the decoded format.
    pub fn lower(program: &VerifiedProgram) -> Self {
        let insns = program.insns();
        let n = insns.len();
        let mut ops = Vec::with_capacity(n);
        let mut pc_map = vec![0u32; n];

        let mut pc = 0usize;
        while pc < n {
            let insn = insns[pc];
            pc_map[pc] = ops.len() as u32;
            if insn.is_wide() {
                if pc + 1 >= n {
                    // Defensive mirror of the reference interpreter: a
                    // truncated wide pair (impossible for programs that
                    // really passed verification) must fault at run
                    // time with `PcOutOfBounds`, never panic the host
                    // at decode time. A sentinel op reports exactly
                    // that when executed.
                    ops.push(DecodedInsn {
                        imm: 0,
                        pc: (pc + 1) as u32,
                        target: 0,
                        off: 0,
                        kind: Kind::Sentinel,
                        sub: Kind::Sentinel,
                        dst: 0,
                        src: 0,
                        cls: CLS_SCRATCH,
                    });
                    pc += 1;
                    continue;
                }
                let hi = insns[pc + 1].imm as u32 as u64;
                let lo = insn.imm as u32 as u64;
                let value = match insn.opcode {
                    isa::LDDW => (hi << 32) | lo,
                    isa::LDDWD_IMM => DATA_VADDR.wrapping_add(lo).wrapping_add(hi << 32),
                    _ => RODATA_VADDR.wrapping_add(lo).wrapping_add(hi << 32),
                };
                ops.push(DecodedInsn {
                    imm: value,
                    pc: pc as u32,
                    target: 0,
                    off: 0,
                    kind: Kind::LdImm,
                    sub: Kind::LdImm,
                    dst: insn.dst,
                    src: 0,
                    cls: OpClass::WideLoad.index() as u8,
                });
                pc_map[pc + 1] = WIDE_TAIL;
                pc += 2;
            } else {
                ops.push(lower_narrow(&insn, pc));
                pc += 1;
            }
        }

        // Second pass: patch pc-relative branch targets to absolute
        // decoded indices (forward targets need the finished map).
        for op in &mut ops {
            if matches!(
                op.kind,
                Kind::Ja
                    | Kind::JeqImm
                    | Kind::JeqReg
                    | Kind::JgtImm
                    | Kind::JgtReg
                    | Kind::JgeImm
                    | Kind::JgeReg
                    | Kind::JltImm
                    | Kind::JltReg
                    | Kind::JleImm
                    | Kind::JleReg
                    | Kind::JsetImm
                    | Kind::JsetReg
                    | Kind::JneImm
                    | Kind::JneReg
                    | Kind::JsgtImm
                    | Kind::JsgtReg
                    | Kind::JsgeImm
                    | Kind::JsgeReg
                    | Kind::JsltImm
                    | Kind::JsltReg
                    | Kind::JsleImm
                    | Kind::JsleReg
            ) {
                let orig_target = (op.pc as i64 + 1 + op.off as i64) as usize;
                op.target = pc_map[orig_target];
            }
        }

        // Superinstruction pass: run-length encode consecutive identical
        // fusable ops. Every member of a run becomes a rep head for its
        // own suffix, so branch targets into the run stay valid.
        //
        // Fusable categories:
        //  * pure ALU (plus div/mod by a non-zero constant, which the
        //    verifier guarantees and therefore cannot fault);
        //  * branches targeting their own fall-through slot (`j* +0`),
        //    whose outcome accounting is decided by one evaluation.
        let fusable = |op: &DecodedInsn, idx: usize| -> bool {
            op.sub.is_pure_alu()
                || (matches!(
                    op.sub,
                    Kind::Div32Imm | Kind::Div64Imm | Kind::Mod32Imm | Kind::Mod64Imm
                ) && op.imm != 0)
                || (op.sub.is_branch() && op.target as usize == idx + 1)
        };
        let mut i = ops.len();
        let mut run: u32 = 0;
        while i > 0 {
            i -= 1;
            let op = ops[i];
            let same_as_next = run > 0 && {
                let next = &ops[i + 1];
                op.sub == next.sub
                    && op.dst == next.dst
                    && op.src == next.src
                    && op.off == next.off
                    && op.imm == next.imm
            };
            run = if fusable(&op, i) {
                if same_as_next {
                    run + 1
                } else {
                    1
                }
            } else {
                0
            };
            if run >= 2 {
                ops[i].kind = if op.sub.is_branch() {
                    Kind::BranchRep
                } else {
                    Kind::AluRep
                };
                ops[i].target = run;
            }
        }

        ops.push(DecodedInsn {
            imm: 0,
            pc: n as u32,
            target: 0,
            off: 0,
            kind: Kind::Sentinel,
            sub: Kind::Sentinel,
            dst: 0,
            src: 0,
            cls: CLS_SCRATCH,
        });

        DecodedProgram {
            ops,
            pc_map,
            branch_count: program.branch_count(),
        }
    }

    /// The decoded operation stream, including the trailing sentinel.
    #[inline]
    pub fn ops(&self) -> &[DecodedInsn] {
        &self.ops
    }

    /// Number of decoded operations (wide pairs count once, the
    /// sentinel guard is excluded).
    pub fn len(&self) -> usize {
        self.ops.len() - 1
    }

    /// True when the program has no operations (never for verified
    /// programs; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of original instruction slots.
    pub fn orig_len(&self) -> usize {
        self.pc_map.len()
    }

    /// Number of static branch instructions.
    pub fn branch_count(&self) -> u32 {
        self.branch_count
    }

    /// Maps an original slot index to its decoded op index. `None` for
    /// the second slot of a wide instruction.
    pub fn decoded_index(&self, orig_pc: usize) -> Option<usize> {
        match self.pc_map.get(orig_pc) {
            Some(&WIDE_TAIL) | None => None,
            Some(&i) => Some(i as usize),
        }
    }

    /// True when `orig_pc` addresses the second slot of a wide
    /// instruction.
    pub fn is_wide_tail(&self, orig_pc: usize) -> bool {
        self.pc_map.get(orig_pc) == Some(&WIDE_TAIL)
    }

    /// Re-checks every `call` site against a granted helper set — the
    /// decode-time counterpart of the registry lookup, letting a hosting
    /// engine fail installation instead of the first event.
    ///
    /// # Errors
    ///
    /// [`VerifierError::HelperNotAllowed`] naming the first ungranted
    /// call site.
    pub fn precheck_helpers(&self, granted: &HashSet<u32>) -> Result<(), VerifierError> {
        for op in &self.ops {
            if op.kind == Kind::Call && !granted.contains(&(op.imm as u32)) {
                return Err(VerifierError::HelperNotAllowed {
                    pc: op.pc as usize,
                    id: op.imm as u32,
                });
            }
        }
        Ok(())
    }

    /// Resolves every `call` site against a concrete registry, storing
    /// `1 + slot` in the op's `target` field (`0` = unresolved). Bound
    /// calls dispatch through [`crate::helpers::HelperRegistry::call_slot`]
    /// — a direct vector index — instead of the id hash lookup, which
    /// matters for event handlers dominated by hot helpers
    /// (`bpf_now_ms`, `bpf_fetch_*`, the CoAP formatters).
    ///
    /// A hosting engine calls this once at install time, right after
    /// building the container's registry; ids absent from the registry
    /// stay unresolved and keep the exact fallback semantics (including
    /// the [`crate::error::VmError::UnknownHelper`] fault).
    pub fn bind_helpers(&mut self, registry: &crate::helpers::HelperRegistry<'_>) {
        for op in &mut self.ops {
            if op.kind == Kind::Call {
                op.target = registry
                    .slot_of(op.imm as u32)
                    .map(|slot| slot + 1)
                    .unwrap_or(0);
            }
        }
    }
}

/// Lowers one single-slot instruction. The opcode is known-valid.
fn lower_narrow(insn: &Insn, pc: usize) -> DecodedInsn {
    use isa::*;
    use Kind::*;

    let imm_s = insn.imm as i64 as u64;
    let imm32 = insn.imm as u32 as u64;
    let off_s = insn.off as i64 as u64;

    // (kind, pre-processed immediate) per opcode.
    let (kind, imm) = match insn.opcode {
        LDXW => (Ldx4, off_s),
        LDXH => (Ldx2, off_s),
        LDXB => (Ldx1, off_s),
        LDXDW => (Ldx8, off_s),
        STW => (St4, imm32),
        STH => (St2, imm32),
        STB => (St1, imm32),
        STDW => (St8, imm_s),
        STXW => (Stx4, off_s),
        STXH => (Stx2, off_s),
        STXB => (Stx1, off_s),
        STXDW => (Stx8, off_s),
        ADD32_IMM => (Add32Imm, imm32),
        ADD32_REG => (Add32Reg, 0),
        SUB32_IMM => (Sub32Imm, imm32),
        SUB32_REG => (Sub32Reg, 0),
        MUL32_IMM => (Mul32Imm, imm32),
        MUL32_REG => (Mul32Reg, 0),
        DIV32_IMM => (Div32Imm, imm32),
        DIV32_REG => (Div32Reg, 0),
        OR32_IMM => (Or32Imm, imm32),
        OR32_REG => (Or32Reg, 0),
        AND32_IMM => (And32Imm, imm32),
        AND32_REG => (And32Reg, 0),
        LSH32_IMM => (Lsh32Imm, imm32 & 31),
        LSH32_REG => (Lsh32Reg, 0),
        RSH32_IMM => (Rsh32Imm, imm32 & 31),
        RSH32_REG => (Rsh32Reg, 0),
        NEG32 => (Neg32, 0),
        MOD32_IMM => (Mod32Imm, imm32),
        MOD32_REG => (Mod32Reg, 0),
        XOR32_IMM => (Xor32Imm, imm32),
        XOR32_REG => (Xor32Reg, 0),
        MOV32_IMM => (Mov32Imm, imm32),
        MOV32_REG => (Mov32Reg, 0),
        ARSH32_IMM => (Arsh32Imm, imm32 & 31),
        ARSH32_REG => (Arsh32Reg, 0),
        LE => match insn.imm {
            16 => (Le16, 0),
            32 => (Le32, 0),
            _ => (Le64, 0),
        },
        BE => match insn.imm {
            16 => (Be16, 0),
            32 => (Be32, 0),
            _ => (Be64, 0),
        },
        ADD64_IMM => (Add64Imm, imm_s),
        ADD64_REG => (Add64Reg, 0),
        SUB64_IMM => (Sub64Imm, imm_s),
        SUB64_REG => (Sub64Reg, 0),
        MUL64_IMM => (Mul64Imm, imm_s),
        MUL64_REG => (Mul64Reg, 0),
        DIV64_IMM => (Div64Imm, imm_s),
        DIV64_REG => (Div64Reg, 0),
        OR64_IMM => (Or64Imm, imm_s),
        OR64_REG => (Or64Reg, 0),
        AND64_IMM => (And64Imm, imm_s),
        AND64_REG => (And64Reg, 0),
        LSH64_IMM => (Lsh64Imm, imm32),
        LSH64_REG => (Lsh64Reg, 0),
        RSH64_IMM => (Rsh64Imm, imm32),
        RSH64_REG => (Rsh64Reg, 0),
        NEG64 => (Neg64, 0),
        MOD64_IMM => (Mod64Imm, imm_s),
        MOD64_REG => (Mod64Reg, 0),
        XOR64_IMM => (Xor64Imm, imm_s),
        XOR64_REG => (Xor64Reg, 0),
        MOV64_IMM => (Mov64Imm, imm_s),
        MOV64_REG => (Mov64Reg, 0),
        ARSH64_IMM => (Arsh64Imm, imm32),
        ARSH64_REG => (Arsh64Reg, 0),
        JA => (Ja, 0),
        JEQ_IMM => (JeqImm, imm_s),
        JEQ_REG => (JeqReg, 0),
        JGT_IMM => (JgtImm, imm_s),
        JGT_REG => (JgtReg, 0),
        JGE_IMM => (JgeImm, imm_s),
        JGE_REG => (JgeReg, 0),
        JLT_IMM => (JltImm, imm_s),
        JLT_REG => (JltReg, 0),
        JLE_IMM => (JleImm, imm_s),
        JLE_REG => (JleReg, 0),
        JSET_IMM => (JsetImm, imm_s),
        JSET_REG => (JsetReg, 0),
        JNE_IMM => (JneImm, imm_s),
        JNE_REG => (JneReg, 0),
        JSGT_IMM => (JsgtImm, imm_s),
        JSGT_REG => (JsgtReg, 0),
        JSGE_IMM => (JsgeImm, imm_s),
        JSGE_REG => (JsgeReg, 0),
        JSLT_IMM => (JsltImm, imm_s),
        JSLT_REG => (JsltReg, 0),
        JSLE_IMM => (JsleImm, imm_s),
        JSLE_REG => (JsleReg, 0),
        CALL => (Call, insn.imm as u32 as u64),
        EXIT => (Exit, 0),
        other => unreachable!("verifier admitted unknown opcode 0x{other:02x}"),
    };

    let cls = match kind {
        Ldx1 | Ldx2 | Ldx4 | Ldx8 => OpClass::Load,
        St1 | St2 | St4 | St8 | Stx1 | Stx2 | Stx4 | Stx8 => OpClass::Store,
        Mul32Imm | Mul32Reg | Mul64Imm | Mul64Reg => OpClass::Mul,
        Div32Imm | Div32Reg | Div64Imm | Div64Reg | Mod32Imm | Mod32Reg | Mod64Imm | Mod64Reg => {
            OpClass::Div
        }
        Call => OpClass::HelperCall,
        Exit => OpClass::Exit,
        Ja | JeqImm | JeqReg | JgtImm | JgtReg | JgeImm | JgeReg | JltImm | JltReg | JleImm
        | JleReg | JsetImm | JsetReg | JneImm | JneReg | JsgtImm | JsgtReg | JsgeImm | JsgeReg
        | JsltImm | JsltReg | JsleImm | JsleReg => {
            // Dynamic taken/not-taken classification happens in the
            // dispatch arm; the unconditional pre-count is discarded.
            return DecodedInsn {
                imm,
                pc: pc as u32,
                target: 0,
                off: insn.off,
                kind,
                sub: kind,
                dst: insn.dst,
                src: insn.src,
                cls: CLS_SCRATCH,
            };
        }
        LdImm => OpClass::WideLoad,
        _ => {
            if insn.class() == isa::CLS_ALU64 {
                OpClass::Alu64
            } else {
                OpClass::Alu32
            }
        }
    };

    DecodedInsn {
        imm,
        pc: pc as u32,
        target: 0,
        off: insn.off,
        kind,
        sub: kind,
        dst: insn.dst,
        src: insn.src,
        cls: cls.index() as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::verifier::verify;
    use std::collections::HashSet;

    fn lower_src(src: &str) -> DecodedProgram {
        let text = isa::encode_all(&assemble(src).unwrap());
        DecodedProgram::lower(&verify(&text, &HashSet::new()).unwrap())
    }

    #[test]
    fn wide_pairs_fuse_into_one_op() {
        let p = lower_src("lddw r1, 0x1122334455667788\nexit");
        assert_eq!(p.len(), 2);
        assert_eq!(p.orig_len(), 3);
        assert_eq!(p.ops()[0].kind, Kind::LdImm);
        assert_eq!(p.ops()[0].imm, 0x1122_3344_5566_7788);
        assert!(p.is_wide_tail(1));
        assert_eq!(p.decoded_index(0), Some(0));
        assert_eq!(p.decoded_index(1), None);
        assert_eq!(p.decoded_index(2), Some(1));
    }

    #[test]
    fn section_pointers_prefused() {
        let p = lower_src("lddwd r1, 8\nlddwr r2, 4\nexit");
        assert_eq!(p.ops()[0].imm, DATA_VADDR + 8);
        assert_eq!(p.ops()[1].imm, RODATA_VADDR + 4);
    }

    #[test]
    fn branch_targets_become_absolute_decoded_slots() {
        // Jump over the wide pair: target slot 3 (orig) = decoded op 2.
        let p = lower_src("ja +2\nlddw r1, 9\nexit");
        assert_eq!(p.ops()[0].kind, Kind::Ja);
        assert_eq!(p.ops()[0].target, 2);
        // Backward jump to slot 0.
        let p = lower_src("exit\nja -2");
        assert_eq!(p.ops()[1].target, 0);
    }

    #[test]
    fn immediates_are_preprocessed() {
        let p = lower_src("add r1, -1\nadd32 r2, -1\nlsh32 r3, 31\nstdw [r10-8], -2\nexit");
        assert_eq!(p.ops()[0].imm, u64::MAX, "64-bit imm sign-extended");
        assert_eq!(p.ops()[1].imm, 0xffff_ffff, "32-bit imm zero-extended");
        assert_eq!(p.ops()[2].imm, 31, "shift pre-masked");
        assert_eq!(p.ops()[3].imm, (-2i64) as u64, "stdw value sign-extended");
    }

    #[test]
    fn load_offsets_sign_extend_into_imm() {
        let p = lower_src("ldxdw r0, [r10-8]\nexit");
        assert_eq!(p.ops()[0].kind, Kind::Ldx8);
        assert_eq!(p.ops()[0].imm, (-8i64) as u64);
    }

    #[test]
    fn endian_width_resolved_into_kind() {
        let p = lower_src("le16 r1\nle32 r1\nle64 r1\nbe16 r1\nbe32 r1\nbe64 r1\nexit");
        let kinds: Vec<_> = p.ops().iter().map(|o| o.kind).collect();
        assert_eq!(
            &kinds[..6],
            &[
                Kind::Le16,
                Kind::Le32,
                Kind::Le64,
                Kind::Be16,
                Kind::Be32,
                Kind::Be64
            ]
        );
    }

    #[test]
    fn precheck_helpers_flags_ungranted_sites() {
        let text = isa::encode_all(&assemble("call 7\nexit").unwrap());
        let prog = verify(&text, &[7u32].iter().copied().collect()).unwrap();
        let dec = DecodedProgram::lower(&prog);
        assert!(dec
            .precheck_helpers(&[7u32].iter().copied().collect())
            .is_ok());
        assert_eq!(
            dec.precheck_helpers(&HashSet::new()),
            Err(VerifierError::HelperNotAllowed { pc: 0, id: 7 })
        );
    }

    #[test]
    fn original_pcs_preserved_across_fusion() {
        let p = lower_src("lddw r1, 1\nmov r0, 0\nexit");
        let pcs: Vec<_> = p.ops()[..p.len()].iter().map(|o| o.pc).collect();
        assert_eq!(pcs, vec![0, 2, 3]);
    }

    #[test]
    fn sentinel_guards_the_stream() {
        let p = lower_src("mov r0, 0\nexit");
        assert_eq!(p.len(), 2);
        assert_eq!(p.ops().len(), 3);
        assert_eq!(p.ops()[2].kind, Kind::Sentinel);
        assert_eq!(p.ops()[2].pc as usize, p.orig_len());
    }
}
