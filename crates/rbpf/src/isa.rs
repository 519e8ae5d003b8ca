//! eBPF instruction set architecture: encodings, opcode constants and the
//! [`Insn`] type.
//!
//! The Femto-Containers VM executes the eBPF instruction set as defined by
//! the Linux kernel ABI, with two Femto-Container extensions
//! ([`LDDWD_IMM`] / [`LDDWR_IMM`]) that materialise pointers into the
//! application's `.data` / `.rodata` sections (position-independent code,
//! paper §7).
//!
//! Every instruction is 64 bits wide:
//!
//! ```text
//!  byte 0   byte 1        bytes 2-3      bytes 4-7
//! +--------+------+------+--------------+--------------------+
//! | opcode | src  | dst  | offset (i16) | immediate (i32)    |
//! |        | hi-4 | lo-4 | little-endian| little-endian      |
//! +--------+------+------+--------------+--------------------+
//! ```
//!
//! `lddw`-family instructions occupy two consecutive slots (16 bytes).

/// Width in bytes of one instruction slot.
pub const INSN_SIZE: usize = 8;

/// Number of virtual-machine registers (`r0` ..= `r10`).
pub const REG_COUNT: usize = 11;

/// Index of the read-only frame/stack pointer register.
pub const REG_STACK_PTR: u8 = 10;

/// Highest register index writable by an instruction destination field.
pub const REG_MAX_WRITABLE: u8 = 9;

// --- Instruction classes (low 3 bits of the opcode) ---------------------

/// Class: load from immediate / special.
pub const CLS_LD: u8 = 0x00;
/// Class: load from register-addressed memory.
pub const CLS_LDX: u8 = 0x01;
/// Class: store immediate to memory.
pub const CLS_ST: u8 = 0x02;
/// Class: store register to memory.
pub const CLS_STX: u8 = 0x03;
/// Class: 32-bit arithmetic.
pub const CLS_ALU: u8 = 0x04;
/// Class: 64-bit jumps.
pub const CLS_JMP: u8 = 0x05;
/// Class: 32-bit jumps (unused by the Femto-Container toolchain but decoded).
pub const CLS_JMP32: u8 = 0x06;
/// Class: 64-bit arithmetic.
pub const CLS_ALU64: u8 = 0x07;

// --- Size field for memory instructions (bits 3-4) ----------------------

/// Word (4 bytes).
pub const SIZE_W: u8 = 0x00;
/// Half-word (2 bytes).
pub const SIZE_H: u8 = 0x08;
/// Byte.
pub const SIZE_B: u8 = 0x10;
/// Double word (8 bytes).
pub const SIZE_DW: u8 = 0x18;

// --- Mode field for memory instructions (bits 5-7) ----------------------

/// Immediate-mode load (`lddw`).
pub const MODE_IMM: u8 = 0x00;
/// Regular memory access.
pub const MODE_MEM: u8 = 0x60;

// --- ALU / JMP operation field (bits 4-7) --------------------------------

/// ALU source: use the 32-bit immediate.
pub const SRC_IMM: u8 = 0x00;
/// ALU source: use the source register.
pub const SRC_REG: u8 = 0x08;

// Fully-assembled opcodes used by the assembler, verifier and interpreters.

/// `lddw dst, imm64` — load 64-bit immediate (2 slots).
pub const LDDW: u8 = 0x18;
/// Femto-Container extension: `lddwd dst, imm` — `dst = data_base + imm`
/// (2 slots; second slot carries the high word like `lddw`).
pub const LDDWD_IMM: u8 = 0xB8;
/// Femto-Container extension: `lddwr dst, imm` — `dst = rodata_base + imm`.
pub const LDDWR_IMM: u8 = 0xD8;

/// `ldxw dst, [src+off]`.
pub const LDXW: u8 = 0x61;
/// `ldxh dst, [src+off]`.
pub const LDXH: u8 = 0x69;
/// `ldxb dst, [src+off]`.
pub const LDXB: u8 = 0x71;
/// `ldxdw dst, [src+off]`.
pub const LDXDW: u8 = 0x79;

/// `stw [dst+off], imm`.
pub const STW: u8 = 0x62;
/// `sth [dst+off], imm`.
pub const STH: u8 = 0x6a;
/// `stb [dst+off], imm`.
pub const STB: u8 = 0x72;
/// `stdw [dst+off], imm`.
pub const STDW: u8 = 0x7a;

/// `stxw [dst+off], src`.
pub const STXW: u8 = 0x63;
/// `stxh [dst+off], src`.
pub const STXH: u8 = 0x6b;
/// `stxb [dst+off], src`.
pub const STXB: u8 = 0x73;
/// `stxdw [dst+off], src`.
pub const STXDW: u8 = 0x7b;

/// 32-bit `add dst, imm`.
pub const ADD32_IMM: u8 = 0x04;
/// 32-bit `add dst, src`.
pub const ADD32_REG: u8 = 0x0c;
/// 32-bit `sub dst, imm`.
pub const SUB32_IMM: u8 = 0x14;
/// 32-bit `sub dst, src`.
pub const SUB32_REG: u8 = 0x1c;
/// 32-bit `mul dst, imm`.
pub const MUL32_IMM: u8 = 0x24;
/// 32-bit `mul dst, src`.
pub const MUL32_REG: u8 = 0x2c;
/// 32-bit `div dst, imm`.
pub const DIV32_IMM: u8 = 0x34;
/// 32-bit `div dst, src`.
pub const DIV32_REG: u8 = 0x3c;
/// 32-bit `or dst, imm`.
pub const OR32_IMM: u8 = 0x44;
/// 32-bit `or dst, src`.
pub const OR32_REG: u8 = 0x4c;
/// 32-bit `and dst, imm`.
pub const AND32_IMM: u8 = 0x54;
/// 32-bit `and dst, src`.
pub const AND32_REG: u8 = 0x5c;
/// 32-bit `lsh dst, imm`.
pub const LSH32_IMM: u8 = 0x64;
/// 32-bit `lsh dst, src`.
pub const LSH32_REG: u8 = 0x6c;
/// 32-bit `rsh dst, imm`.
pub const RSH32_IMM: u8 = 0x74;
/// 32-bit `rsh dst, src`.
pub const RSH32_REG: u8 = 0x7c;
/// 32-bit `neg dst`.
pub const NEG32: u8 = 0x84;
/// 32-bit `mod dst, imm`.
pub const MOD32_IMM: u8 = 0x94;
/// 32-bit `mod dst, src`.
pub const MOD32_REG: u8 = 0x9c;
/// 32-bit `xor dst, imm`.
pub const XOR32_IMM: u8 = 0xa4;
/// 32-bit `xor dst, src`.
pub const XOR32_REG: u8 = 0xac;
/// 32-bit `mov dst, imm`.
pub const MOV32_IMM: u8 = 0xb4;
/// 32-bit `mov dst, src`.
pub const MOV32_REG: u8 = 0xbc;
/// 32-bit `arsh dst, imm`.
pub const ARSH32_IMM: u8 = 0xc4;
/// 32-bit `arsh dst, src`.
pub const ARSH32_REG: u8 = 0xcc;
/// Byte-swap to little-endian (`le16/le32/le64` selected by `imm`).
pub const LE: u8 = 0xd4;
/// Byte-swap to big-endian (`be16/be32/be64` selected by `imm`).
pub const BE: u8 = 0xdc;

/// 64-bit `add dst, imm`.
pub const ADD64_IMM: u8 = 0x07;
/// 64-bit `add dst, src`.
pub const ADD64_REG: u8 = 0x0f;
/// 64-bit `sub dst, imm`.
pub const SUB64_IMM: u8 = 0x17;
/// 64-bit `sub dst, src`.
pub const SUB64_REG: u8 = 0x1f;
/// 64-bit `mul dst, imm`.
pub const MUL64_IMM: u8 = 0x27;
/// 64-bit `mul dst, src`.
pub const MUL64_REG: u8 = 0x2f;
/// 64-bit `div dst, imm`.
pub const DIV64_IMM: u8 = 0x37;
/// 64-bit `div dst, src`.
pub const DIV64_REG: u8 = 0x3f;
/// 64-bit `or dst, imm`.
pub const OR64_IMM: u8 = 0x47;
/// 64-bit `or dst, src`.
pub const OR64_REG: u8 = 0x4f;
/// 64-bit `and dst, imm`.
pub const AND64_IMM: u8 = 0x57;
/// 64-bit `and dst, src`.
pub const AND64_REG: u8 = 0x5f;
/// 64-bit `lsh dst, imm`.
pub const LSH64_IMM: u8 = 0x67;
/// 64-bit `lsh dst, src`.
pub const LSH64_REG: u8 = 0x6f;
/// 64-bit `rsh dst, imm`.
pub const RSH64_IMM: u8 = 0x77;
/// 64-bit `rsh dst, src`.
pub const RSH64_REG: u8 = 0x7f;
/// 64-bit `neg dst`.
pub const NEG64: u8 = 0x87;
/// 64-bit `mod dst, imm`.
pub const MOD64_IMM: u8 = 0x97;
/// 64-bit `mod dst, src`.
pub const MOD64_REG: u8 = 0x9f;
/// 64-bit `xor dst, imm`.
pub const XOR64_IMM: u8 = 0xa7;
/// 64-bit `xor dst, src`.
pub const XOR64_REG: u8 = 0xaf;
/// 64-bit `mov dst, imm`.
pub const MOV64_IMM: u8 = 0xb7;
/// 64-bit `mov dst, src`.
pub const MOV64_REG: u8 = 0xbf;
/// 64-bit `arsh dst, imm`.
pub const ARSH64_IMM: u8 = 0xc7;
/// 64-bit `arsh dst, src`.
pub const ARSH64_REG: u8 = 0xcf;

/// `ja +off` — unconditional jump.
pub const JA: u8 = 0x05;
/// `jeq dst, imm, +off`.
pub const JEQ_IMM: u8 = 0x15;
/// `jeq dst, src, +off`.
pub const JEQ_REG: u8 = 0x1d;
/// `jgt dst, imm, +off` (unsigned).
pub const JGT_IMM: u8 = 0x25;
/// `jgt dst, src, +off` (unsigned).
pub const JGT_REG: u8 = 0x2d;
/// `jge dst, imm, +off` (unsigned).
pub const JGE_IMM: u8 = 0x35;
/// `jge dst, src, +off` (unsigned).
pub const JGE_REG: u8 = 0x3d;
/// `jlt dst, imm, +off` (unsigned).
pub const JLT_IMM: u8 = 0xa5;
/// `jlt dst, src, +off` (unsigned).
pub const JLT_REG: u8 = 0xad;
/// `jle dst, imm, +off` (unsigned).
pub const JLE_IMM: u8 = 0xb5;
/// `jle dst, src, +off` (unsigned).
pub const JLE_REG: u8 = 0xbd;
/// `jset dst, imm, +off` — jump if `dst & imm`.
pub const JSET_IMM: u8 = 0x45;
/// `jset dst, src, +off`.
pub const JSET_REG: u8 = 0x4d;
/// `jne dst, imm, +off`.
pub const JNE_IMM: u8 = 0x55;
/// `jne dst, src, +off`.
pub const JNE_REG: u8 = 0x5d;
/// `jsgt dst, imm, +off` (signed).
pub const JSGT_IMM: u8 = 0x65;
/// `jsgt dst, src, +off` (signed).
pub const JSGT_REG: u8 = 0x6d;
/// `jsge dst, imm, +off` (signed).
pub const JSGE_IMM: u8 = 0x75;
/// `jsge dst, src, +off` (signed).
pub const JSGE_REG: u8 = 0x7d;
/// `jslt dst, imm, +off` (signed).
pub const JSLT_IMM: u8 = 0xc5;
/// `jslt dst, src, +off` (signed).
pub const JSLT_REG: u8 = 0xcd;
/// `jsle dst, imm, +off` (signed).
pub const JSLE_IMM: u8 = 0xd5;
/// `jsle dst, src, +off` (signed).
pub const JSLE_REG: u8 = 0xdd;
/// `call imm` — invoke the system call (helper) numbered `imm`.
pub const CALL: u8 = 0x85;
/// `exit` — leave the virtual machine; `r0` is the result.
pub const EXIT: u8 = 0x95;

/// One decoded eBPF instruction slot.
///
/// `lddw`-family instructions are represented by *two* `Insn` values; the
/// second slot must have opcode zero and carries the upper 32 bits of the
/// immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Insn {
    /// Operation code.
    pub opcode: u8,
    /// Destination register (0..=10).
    pub dst: u8,
    /// Source register (0..=10).
    pub src: u8,
    /// Signed 16-bit offset (jump displacement or memory offset).
    pub off: i16,
    /// Signed 32-bit immediate operand.
    pub imm: i32,
}

impl Insn {
    /// Creates an instruction from its fields.
    ///
    /// # Examples
    ///
    /// ```
    /// use fc_rbpf::isa::{Insn, MOV64_IMM};
    /// let insn = Insn::new(MOV64_IMM, 0, 0, 0, 42);
    /// assert_eq!(insn.imm, 42);
    /// ```
    pub fn new(opcode: u8, dst: u8, src: u8, off: i16, imm: i32) -> Self {
        Insn {
            opcode,
            dst,
            src,
            off,
            imm,
        }
    }

    /// Instruction class (low three bits of the opcode).
    pub fn class(&self) -> u8 {
        self.opcode & 0x07
    }

    /// Serialises the instruction into its 8-byte wire format.
    pub fn encode(&self) -> [u8; INSN_SIZE] {
        let mut b = [0u8; INSN_SIZE];
        b[0] = self.opcode;
        b[1] = (self.dst & 0x0f) | (self.src << 4);
        b[2..4].copy_from_slice(&self.off.to_le_bytes());
        b[4..8].copy_from_slice(&self.imm.to_le_bytes());
        b
    }

    /// Decodes one instruction slot from its 8-byte wire format.
    ///
    /// Decoding never fails: unknown opcodes are surfaced later by the
    /// verifier, which is the component responsible for rejecting them
    /// (paper §7, pre-flight instruction checks).
    pub fn decode(bytes: &[u8; INSN_SIZE]) -> Self {
        Insn {
            opcode: bytes[0],
            dst: bytes[1] & 0x0f,
            src: bytes[1] >> 4,
            off: i16::from_le_bytes([bytes[2], bytes[3]]),
            imm: i32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        }
    }

    /// True for the three double-slot (`lddw`-family) opcodes.
    pub fn is_wide(&self) -> bool {
        matches!(self.opcode, LDDW | LDDWD_IMM | LDDWR_IMM)
    }

    /// True if this is any branch instruction (conditional or not),
    /// excluding `call`/`exit`.
    pub fn is_branch(&self) -> bool {
        if self.class() != CLS_JMP && self.class() != CLS_JMP32 {
            return false;
        }
        !matches!(self.opcode, CALL | EXIT)
    }
}

/// Decodes a full text section into instruction slots.
///
/// Returns `None` when `text` is not a multiple of [`INSN_SIZE`].
pub fn decode_all(text: &[u8]) -> Option<Vec<Insn>> {
    if !text.len().is_multiple_of(INSN_SIZE) {
        return None;
    }
    Some(
        text.chunks_exact(INSN_SIZE)
            .map(|c| Insn::decode(c.try_into().expect("chunk size")))
            .collect(),
    )
}

/// Encodes instruction slots back into a byte stream.
pub fn encode_all(insns: &[Insn]) -> Vec<u8> {
    let mut out = Vec::with_capacity(insns.len() * INSN_SIZE);
    for i in insns {
        out.extend_from_slice(&i.encode());
    }
    out
}

/// Coarse operation classes used for cycle accounting on the simulated
/// platforms (see `fc-rtos::platform`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// 32-bit ALU operation.
    Alu32,
    /// 64-bit ALU operation (dominant cost on 32-bit MCUs).
    Alu64,
    /// Multiplication (either width).
    Mul,
    /// Division or modulo (either width).
    Div,
    /// Memory load (includes the allow-list check).
    Load,
    /// Memory store (includes the allow-list check).
    Store,
    /// Taken branch.
    BranchTaken,
    /// Not-taken branch (fall-through).
    BranchNotTaken,
    /// Helper (system) call transition.
    HelperCall,
    /// `lddw`-family wide load.
    WideLoad,
    /// `exit`.
    Exit,
}

impl OpClass {
    /// Number of distinct op classes.
    pub const COUNT: usize = 11;

    /// Dense index of this class, used by the threaded tier's flat counter
    /// array (see `fc_rbpf::vm::OpCounts::from_class_array`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpClass::Alu32 => 0,
            OpClass::Alu64 => 1,
            OpClass::Mul => 2,
            OpClass::Div => 3,
            OpClass::Load => 4,
            OpClass::Store => 5,
            OpClass::BranchTaken => 6,
            OpClass::BranchNotTaken => 7,
            OpClass::HelperCall => 8,
            OpClass::WideLoad => 9,
            OpClass::Exit => 10,
        }
    }
}

/// Classifies an opcode for cycle accounting.
///
/// Branches are classified by the caller depending on whether they were
/// taken; this function returns [`OpClass::BranchNotTaken`] for them.
pub fn classify(opcode: u8) -> OpClass {
    match opcode {
        LDDW | LDDWD_IMM | LDDWR_IMM => OpClass::WideLoad,
        LDXW | LDXH | LDXB | LDXDW => OpClass::Load,
        STW | STH | STB | STDW | STXW | STXH | STXB | STXDW => OpClass::Store,
        MUL32_IMM | MUL32_REG | MUL64_IMM | MUL64_REG => OpClass::Mul,
        DIV32_IMM | DIV32_REG | DIV64_IMM | DIV64_REG | MOD32_IMM | MOD32_REG | MOD64_IMM
        | MOD64_REG => OpClass::Div,
        CALL => OpClass::HelperCall,
        EXIT => OpClass::Exit,
        op if op & 0x07 == CLS_ALU => OpClass::Alu32,
        op if op & 0x07 == CLS_ALU64 => OpClass::Alu64,
        op if op & 0x07 == CLS_JMP || op & 0x07 == CLS_JMP32 => OpClass::BranchNotTaken,
        _ => OpClass::Alu64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let insn = Insn::new(ADD64_REG, 3, 7, -12, 0x1234_5678);
        let bytes = insn.encode();
        assert_eq!(Insn::decode(&bytes), insn);
    }

    #[test]
    fn encode_packs_registers_into_one_byte() {
        let insn = Insn::new(MOV64_REG, 0x0a, 0x05, 0, 0);
        let bytes = insn.encode();
        assert_eq!(bytes[1], 0x5a);
    }

    #[test]
    fn negative_fields_round_trip() {
        let insn = Insn::new(JEQ_IMM, 1, 0, -1, -1);
        let decoded = Insn::decode(&insn.encode());
        assert_eq!(decoded.off, -1);
        assert_eq!(decoded.imm, -1);
    }

    #[test]
    fn class_extraction() {
        assert_eq!(Insn::new(ADD64_IMM, 0, 0, 0, 0).class(), CLS_ALU64);
        assert_eq!(Insn::new(ADD32_IMM, 0, 0, 0, 0).class(), CLS_ALU);
        assert_eq!(Insn::new(JEQ_IMM, 0, 0, 0, 0).class(), CLS_JMP);
        assert_eq!(Insn::new(LDXW, 0, 0, 0, 0).class(), CLS_LDX);
        assert_eq!(Insn::new(STXDW, 0, 0, 0, 0).class(), CLS_STX);
    }

    #[test]
    fn wide_detection() {
        assert!(Insn::new(LDDW, 0, 0, 0, 0).is_wide());
        assert!(Insn::new(LDDWD_IMM, 0, 0, 0, 0).is_wide());
        assert!(Insn::new(LDDWR_IMM, 0, 0, 0, 0).is_wide());
        assert!(!Insn::new(MOV64_IMM, 0, 0, 0, 0).is_wide());
    }

    #[test]
    fn branch_detection() {
        assert!(Insn::new(JA, 0, 0, 1, 0).is_branch());
        assert!(Insn::new(JSLE_REG, 0, 0, 1, 0).is_branch());
        assert!(!Insn::new(CALL, 0, 0, 0, 1).is_branch());
        assert!(!Insn::new(EXIT, 0, 0, 0, 0).is_branch());
        assert!(!Insn::new(ADD64_IMM, 0, 0, 0, 0).is_branch());
    }

    #[test]
    fn decode_all_checks_length() {
        assert!(decode_all(&[0u8; 7]).is_none());
        assert_eq!(decode_all(&[0u8; 16]).map(|v| v.len()), Some(2));
    }

    #[test]
    fn encode_all_round_trips() {
        let insns = vec![
            Insn::new(MOV64_IMM, 0, 0, 0, 7),
            Insn::new(ADD64_REG, 0, 1, 0, 0),
            Insn::new(EXIT, 0, 0, 0, 0),
        ];
        let bytes = encode_all(&insns);
        assert_eq!(decode_all(&bytes), Some(insns));
    }

    #[test]
    fn classify_covers_major_groups() {
        assert_eq!(classify(MUL64_REG), OpClass::Mul);
        assert_eq!(classify(DIV32_IMM), OpClass::Div);
        assert_eq!(classify(MOD64_REG), OpClass::Div);
        assert_eq!(classify(LDXDW), OpClass::Load);
        assert_eq!(classify(STXB), OpClass::Store);
        assert_eq!(classify(ADD32_IMM), OpClass::Alu32);
        assert_eq!(classify(XOR64_REG), OpClass::Alu64);
        assert_eq!(classify(JNE_REG), OpClass::BranchNotTaken);
        assert_eq!(classify(CALL), OpClass::HelperCall);
        assert_eq!(classify(LDDW), OpClass::WideLoad);
    }
}
