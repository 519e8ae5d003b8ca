//! The Femto-Container application binary format.
//!
//! Applications are shipped over the network as a flat binary with a small
//! header and three sections, mirroring the format used by the RIOT
//! implementation (paper §7): `.data` (mutable globals), `.rodata`
//! (constants such as format strings) and `.text` (eBPF instructions).
//! Position-independent access to the sections uses the `lddwd`/`lddwr`
//! extension instructions.

use std::error::Error;
use std::fmt;

use crate::isa::{self, Insn, INSN_SIZE};

/// Magic number identifying a Femto-Container application
/// (`"FPBr"` little-endian, as in the RIOT rBPF loader).
pub const MAGIC: u32 = 0x7242_5046;

/// Current binary-format version.
pub const VERSION: u32 = 1;

/// Byte alignment of each section inside the flat binary.
pub const SECTION_ALIGN: usize = 8;

/// Size in bytes of the fixed header.
pub const HEADER_SIZE: usize = 28;

/// A parsed (or under-construction) Femto-Container application image.
///
/// # Examples
///
/// ```
/// use fc_rbpf::program::ProgramBuilder;
/// let program = ProgramBuilder::new()
///     .asm("mov r0, 42\nexit")
///     .unwrap()
///     .build();
/// assert_eq!(program.insns().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FcProgram {
    /// Mutable global data section.
    pub data: Vec<u8>,
    /// Read-only data section (e.g. strings).
    pub rodata: Vec<u8>,
    /// Encoded eBPF text section.
    pub text: Vec<u8>,
    /// Named entry points into the text section (slot offsets).
    pub symbols: Vec<(String, u32)>,
}

impl FcProgram {
    /// Decodes the text section into instruction slots.
    ///
    /// Returns `None` when the text length is not a multiple of the
    /// instruction size.
    pub fn insns(&self) -> Option<Vec<Insn>> {
        isa::decode_all(&self.text)
    }

    /// Number of instruction slots in the text section.
    pub fn slot_count(&self) -> usize {
        self.text.len() / INSN_SIZE
    }

    /// Total size of the flat binary produced by [`FcProgram::to_bytes`].
    pub fn byte_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serialises the application into its flat wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // flags
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.rodata.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.text.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_SIZE);
        for section in [&self.data, &self.rodata, &self.text] {
            out.extend_from_slice(section);
            // Sections are aligned relative to the end of the header.
            while !(out.len() - HEADER_SIZE).is_multiple_of(SECTION_ALIGN) {
                out.push(0);
            }
        }
        for (name, off) in &self.symbols {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&off.to_le_bytes());
        }
        out
    }

    /// Parses a flat binary back into an [`FcProgram`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformation found.
    /// This is a *framing* check only; instruction-level validity is the
    /// verifier's job.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < HEADER_SIZE {
            return Err(ParseError::Truncated {
                needed: HEADER_SIZE,
                got: bytes.len(),
            });
        }
        let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
        if word(0) != MAGIC {
            return Err(ParseError::BadMagic { found: word(0) });
        }
        if word(4) != VERSION {
            return Err(ParseError::UnsupportedVersion { found: word(4) });
        }
        let data_len = word(12) as usize;
        let rodata_len = word(16) as usize;
        let text_len = word(20) as usize;
        let n_syms = word(24) as usize;
        if !text_len.is_multiple_of(INSN_SIZE) {
            return Err(ParseError::UnalignedText { len: text_len });
        }
        let align = |n: usize| n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
        let section = |start: usize, len: usize| -> Result<Vec<u8>, ParseError> {
            let end = start + len;
            if end > bytes.len() {
                return Err(ParseError::Truncated {
                    needed: end,
                    got: bytes.len(),
                });
            }
            Ok(bytes[start..end].to_vec())
        };
        let data = section(HEADER_SIZE, data_len)?;
        let rodata = section(HEADER_SIZE + align(data_len), rodata_len)?;
        let text = section(HEADER_SIZE + align(data_len) + align(rodata_len), text_len)?;
        let mut cursor = HEADER_SIZE + align(data_len) + align(rodata_len) + align(text_len);
        // `n_syms` is untrusted: preallocate no more entries than the
        // remaining bytes could hold (a symbol takes at least its
        // 2-byte length and 4-byte offset), so a forged count fails as
        // `Truncated` instead of aborting on a huge allocation.
        let mut symbols = Vec::with_capacity(n_syms.min(bytes.len().saturating_sub(cursor) / 6));
        for _ in 0..n_syms {
            if cursor + 2 > bytes.len() {
                return Err(ParseError::Truncated {
                    needed: cursor + 2,
                    got: bytes.len(),
                });
            }
            let name_len = u16::from_le_bytes([bytes[cursor], bytes[cursor + 1]]) as usize;
            cursor += 2;
            if cursor + name_len + 4 > bytes.len() {
                return Err(ParseError::Truncated {
                    needed: cursor + name_len + 4,
                    got: bytes.len(),
                });
            }
            let name = String::from_utf8_lossy(&bytes[cursor..cursor + name_len]).into_owned();
            cursor += name_len;
            let off = u32::from_le_bytes(bytes[cursor..cursor + 4].try_into().expect("4 bytes"));
            cursor += 4;
            symbols.push((name, off));
        }
        Ok(FcProgram {
            data,
            rodata,
            text,
            symbols,
        })
    }
}

/// Framing errors raised by [`FcProgram::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The binary is shorter than a well-formed image.
    Truncated {
        /// Bytes required for the next field.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The magic number did not match [`MAGIC`].
    BadMagic {
        /// The value found instead.
        found: u32,
    },
    /// The header version is unsupported.
    UnsupportedVersion {
        /// The version found.
        found: u32,
    },
    /// Text section length is not a multiple of the instruction size.
    UnalignedText {
        /// Length found.
        len: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { needed, got } => {
                write!(f, "truncated image: needed {needed} bytes, got {got}")
            }
            ParseError::BadMagic { found } => write!(f, "bad magic 0x{found:08x}"),
            ParseError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            ParseError::UnalignedText { len } => {
                write!(f, "text section length {len} not a multiple of 8")
            }
        }
    }
}

impl Error for ParseError {}

/// Incremental builder for [`FcProgram`] images.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    data: Vec<u8>,
    rodata: Vec<u8>,
    insns: Vec<Insn>,
    symbols: Vec<(String, u32)>,
    helper_names: Vec<(String, u32)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends bytes to the `.data` section, returning their offset.
    pub fn add_data(&mut self, bytes: &[u8]) -> u32 {
        let off = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        off
    }

    /// Appends bytes to the `.rodata` section, returning their offset.
    pub fn add_rodata(&mut self, bytes: &[u8]) -> u32 {
        let off = self.rodata.len() as u32;
        self.rodata.extend_from_slice(bytes);
        off
    }

    /// Appends a NUL-terminated string to `.rodata`, returning its offset.
    pub fn add_string(&mut self, s: &str) -> u32 {
        let off = self.add_rodata(s.as_bytes());
        self.rodata.push(0);
        off
    }

    /// Registers a helper name so assembly source can `call` it by name.
    pub fn helper(mut self, name: &str, id: u32) -> Self {
        self.helper_names.push((name.to_owned(), id));
        self
    }

    /// Registers many helper names at once.
    pub fn helpers<'a, I: IntoIterator<Item = (&'a str, u32)>>(mut self, pairs: I) -> Self {
        for (n, id) in pairs {
            self.helper_names.push((n.to_owned(), id));
        }
        self
    }

    /// Appends raw instruction slots.
    pub fn push_insns(&mut self, insns: &[Insn]) -> &mut Self {
        self.insns.extend_from_slice(insns);
        self
    }

    /// Assembles text-format source and appends the result.
    ///
    /// # Errors
    ///
    /// Returns the assembler's error (with line information) on malformed
    /// source.
    pub fn asm(mut self, source: &str) -> Result<Self, crate::asm::AsmError> {
        let insns = crate::asm::assemble_with_helpers(source, &self.helper_names)?;
        self.insns.extend(insns);
        Ok(self)
    }

    /// Records a named entry point at the current text position.
    pub fn symbol(mut self, name: &str) -> Self {
        self.symbols
            .push((name.to_owned(), self.insns.len() as u32));
        self
    }

    /// Finalises the image.
    pub fn build(self) -> FcProgram {
        FcProgram {
            data: self.data,
            rodata: self.rodata,
            text: isa::encode_all(&self.insns),
            symbols: self.symbols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{EXIT, MOV64_IMM};

    fn sample() -> FcProgram {
        FcProgram {
            data: vec![1, 2, 3],
            rodata: b"hi\0".to_vec(),
            text: isa::encode_all(&[
                Insn::new(MOV64_IMM, 0, 0, 0, 1),
                Insn::new(EXIT, 0, 0, 0, 0),
            ]),
            symbols: vec![("entry".into(), 0)],
        }
    }

    #[test]
    fn wire_round_trip() {
        let p = sample();
        let bytes = p.to_bytes();
        assert_eq!(FcProgram::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn forged_symbol_count_is_truncated_not_an_allocation() {
        let mut bytes = sample().to_bytes();
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            FcProgram::from_bytes(&bytes),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_sections_round_trip() {
        let p = FcProgram::default();
        assert_eq!(FcProgram::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            FcProgram::from_bytes(&bytes),
            Err(ParseError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            FcProgram::from_bytes(&bytes),
            Err(ParseError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let r = FcProgram::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn unaligned_text_rejected() {
        let mut bytes = sample().to_bytes();
        // Patch the text_len header field to a non-multiple of 8.
        bytes[20..24].copy_from_slice(&13u32.to_le_bytes());
        assert!(matches!(
            FcProgram::from_bytes(&bytes),
            Err(ParseError::UnalignedText { len: 13 })
        ));
    }

    #[test]
    fn builder_produces_sections_and_symbols() {
        let mut b = ProgramBuilder::new();
        let d = b.add_data(&[9, 9]);
        let s = b.add_string("fmt");
        let p = b.symbol("main").asm("mov r0, 0\nexit").unwrap().build();
        assert_eq!(d, 0);
        assert_eq!(s, 0);
        assert_eq!(p.rodata, b"fmt\0");
        assert_eq!(p.symbols, vec![("main".to_string(), 0)]);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn header_size_constant_matches_layout() {
        let p = FcProgram::default();
        assert_eq!(p.to_bytes().len(), HEADER_SIZE);
    }
}
