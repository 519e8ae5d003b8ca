//! # fc-rbpf — the Femto-Container virtual machine
//!
//! This crate implements the paper's ultra-lightweight virtualization
//! layer (Zandberg et al., *Femto-Containers*, MIDDLEWARE 2022, §5–§7,
//! §9): the eBPF instruction set with the Femto-Container extensions, a
//! text assembler and disassembler, the application binary format, the
//! pre-flight instruction checker, the run-time memory allow-list, and
//! three execution engines — the vanilla rBPF-derived reference
//! interpreter, the threaded-code tier, and the CertFC-style defensive
//! engine.
//!
//! ## Two interpreters and an oracle: verify → decode → lower → run
//!
//! Each hosting-engine flavour runs exactly one of them, chosen once
//! at install: `Rbpf` runs the reference interpreter, `FemtoContainer`
//! the threaded tier, and `CertFc` the defensive engine. Every
//! per-program cost is paid once, before the first event:
//!
//! 1. **Verify** ([`verifier::verify`]) — the pre-flight checker runs
//!    once per installed application and yields a [`VerifiedProgram`]:
//!    opcodes known, registers in bounds, jump targets inside the text
//!    section and never into a wide pair's second slot, helper calls
//!    covered by the contract, constant divisors non-zero. The
//!    reference interpreter ([`interp::Interpreter`]) and CertFC
//!    ([`certfc`]) execute this form directly.
//! 2. **Decode** ([`decode::DecodedProgram::lower`]) — the verified
//!    instruction stream is lowered once into fixed-width decoded ops:
//!    fields pre-extracted, immediates pre-sign/zero-extended and
//!    shifts pre-masked, `lddw`-family pairs fused into single ops,
//!    identical runs collapsed into `AluRep`/`BranchRep`
//!    superinstructions, branch targets resolved to absolute decoded
//!    indices, and helper call sites optionally re-checked against the
//!    granted set ([`decode::DecodedProgram::precheck_helpers`]). The
//!    decoded form is an intermediate: nothing executes it directly.
//! 3. **Lower** ([`threaded::ThreadedProgram::lower`]) — the decoded
//!    ops become handler-chain *threaded code*: a per-op handler
//!    function pointer stored inline with its operands, fusable runs
//!    collapsed into block superinstructions, adjacent non-identical
//!    pure-ALU ops fused, constant divisors resolved to guard-free
//!    handlers, and memory ops routed through per-direction region
//!    cursors ([`mem::RegionCursor`]).
//! 4. **Run** — [`threaded::ThreadedInterpreter`] executes the chain.
//!
//! The reference interpreter remains the semantic baseline: the
//! randomized differential suite (`tests/differential_vm.rs`) checks
//! that the threaded tier and CertFC are observationally equivalent
//! to it — same return values, same [`OpCounts`], same faults — on
//! thousands of seeded programs.
//!
//! ## Memory-map cache invariants
//!
//! [`mem::MemoryMap`] accelerates the per-access allow-list check with a
//! last-hit region cache and a vaddr-sorted binary-search index. The
//! invariants (stable region indices, append/truncate-only mutation,
//! rebuild on structural change, contents free to mutate) are documented
//! in the [`mem`] module docs; hosting engines that reuse maps across
//! events must only grow regions with `add_*` or shed them with
//! [`mem::MemoryMap::truncate_regions`] /
//! [`mem::MemoryMap::recycle_regions`], never mutate bases or
//! permissions in place.
//!
//! ## The `Send` boundary
//!
//! Everything a concurrent hosting runtime needs to move a container
//! onto a worker thread is `Send`: [`VerifiedProgram`],
//! [`DecodedProgram`] and [`ThreadedProgram`] are plain data,
//! [`mem::MemoryMap`] keeps only a thread-local `Cell` cache (it is
//! deliberately **not** `Sync` — each worker owns its maps outright),
//! and [`helpers::HelperRegistry`] requires `Send` closures, so host
//! state captured by helpers must be shared through `Arc` +
//! locks/atomics. The compile-time assertions
//! live at the bottom of this file.
//!
//! ## Pipeline example
//!
//! ```
//! use fc_rbpf::{asm, isa, verifier, mem::MemoryMap};
//! use fc_rbpf::decode::DecodedProgram;
//! use fc_rbpf::helpers::HelperRegistry;
//! use fc_rbpf::threaded::{ThreadedInterpreter, ThreadedProgram};
//! use std::collections::HashSet;
//!
//! // 1. Author an application (normally compiled from C via LLVM; here
//! //    assembled from text).
//! let insns = asm::assemble("mov r0, 40\nadd r0, 2\nexit")?;
//! let text = isa::encode_all(&insns);
//!
//! // 2. Pre-flight verification, once, before first execution.
//! let program = verifier::verify(&text, &HashSet::new())?;
//!
//! // 3. Decode and lower once into threaded code.
//! let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&program));
//!
//! // 4. Build the memory allow-list and run.
//! let mut mem = MemoryMap::new();
//! mem.add_stack(fc_rbpf::mem::STACK_SIZE);
//! let mut helpers = HelperRegistry::new();
//! let out = ThreadedInterpreter::new(&threaded, Default::default())
//!     .run(&mut mem, &mut helpers, 0)?;
//! assert_eq!(out.return_value, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod certfc;
pub mod compress;
pub mod decode;
pub mod disasm;
pub mod error;
pub mod helpers;
pub mod interp;
pub mod isa;
pub mod mem;
pub mod program;
pub mod threaded;
pub mod verifier;
pub mod vm;

pub use decode::DecodedProgram;
pub use error::VmError;
pub use isa::Insn;
pub use program::FcProgram;
pub use threaded::{ThreadedInterpreter, ThreadedProgram};
pub use verifier::{verify, VerifiedProgram, VerifierError};
pub use vm::{ExecConfig, Execution, OpCounts};

// The `Send` boundary, enforced at compile time: a container's whole
// execution state (program, lowered chain, memory map, helper
// registry) can migrate to a worker thread.
const fn _assert_send<T: Send>() {}
const _: () = {
    _assert_send::<DecodedProgram>();
    _assert_send::<VerifiedProgram>();
    _assert_send::<FcProgram>();
    _assert_send::<mem::MemoryMap>();
    _assert_send::<helpers::HelperRegistry<'static>>();
    _assert_send::<ThreadedProgram>();
    _assert_send::<ThreadedInterpreter<'static>>();
};
