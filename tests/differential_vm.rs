//! Randomized differential tests on the VM stack: the vanilla reference
//! interpreter, the threaded-code tier and the CertFC defensive engine
//! must be observationally identical on every
//! verified program (the property the paper proves in Coq for CertFC,
//! checked here by seeded adversarial search), and the
//! assembler/disassembler round-trips.
//!
//! The generator is a deterministic seeded sampler over the workspace's
//! offline `rand` shim (the build environment has no crates.io access
//! for `proptest`, and seeded determinism makes failures directly
//! replayable from the reported seed): it draws instruction streams
//! from a vocabulary rich enough to exercise every interpreter path,
//! canonicalizes unused fields so more programs verify, and runs every
//! verified program through all three engines comparing return values,
//! final stacks, [`OpCounts`] and faults.

use femto_containers::rbpf::certfc::CertInterpreter;
use femto_containers::rbpf::decode::DecodedProgram;
use femto_containers::rbpf::helpers::HelperRegistry;
use femto_containers::rbpf::interp::Interpreter;
use femto_containers::rbpf::mem::{MemoryMap, Perm};
use femto_containers::rbpf::threaded::{ThreadedInterpreter, ThreadedProgram};
use femto_containers::rbpf::vm::{ExecConfig, OpCounts};
use femto_containers::rbpf::{asm, disasm, isa, verifier, VmError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thin sampling helpers over the shim's seeded generator; failures
/// print the seed, and re-running with that seed reproduces the exact
/// program.
struct XorShift(StdRng);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(StdRng::seed_from_u64(seed))
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n)
    }

    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.below((hi - lo) as u64) as i32)
    }
}

/// Instruction vocabulary: rich enough to reach every dispatch arm,
/// including the wide loads the proptest-era generator never covered.
const OPCODES: &[u8] = {
    use isa::*;
    &[
        ADD64_IMM, ADD64_REG, SUB64_IMM, SUB64_REG, MUL64_IMM, MUL64_REG, DIV64_IMM, DIV64_REG,
        MOD64_IMM, MOD64_REG, OR64_REG, AND64_IMM, LSH64_IMM, LSH64_REG, RSH64_REG, ARSH64_IMM,
        ARSH64_REG, NEG64, XOR64_IMM, XOR64_REG, MOV64_IMM, MOV64_REG, ADD32_IMM, ADD32_REG,
        SUB32_REG, MUL32_REG, MUL32_IMM, DIV32_IMM, DIV32_REG, MOD32_IMM, MOD32_REG, RSH32_IMM,
        LSH32_REG, MOV32_IMM, MOV32_REG, ARSH32_REG, ARSH32_IMM, NEG32, XOR32_IMM, LE, BE, LDDW,
        LDDWD_IMM, LDDWR_IMM, LDXW, LDXH, LDXDW, LDXB, STW, STH, STB, STDW, STXW, STXDW, STXB, JA,
        JEQ_IMM, JEQ_REG, JGT_IMM, JGT_REG, JGE_IMM, JLT_REG, JLE_IMM, JSET_IMM, JSET_REG, JNE_IMM,
        JNE_REG, JSGT_IMM, JSGE_REG, JSLT_IMM, JSLE_REG, EXIT,
    ]
};

/// Zeroes the fields an instruction does not use, so generated programs
/// pass the verifier's canonical-encoding check and differential
/// coverage stays high. (Non-canonical forms are separately covered by
/// the verifier's own unit tests.)
fn canonicalize(mut i: isa::Insn) -> isa::Insn {
    use isa::*;
    match i.opcode {
        LDDW | LDDWD_IMM | LDDWR_IMM => {
            i.src = 0;
            i.off = 0;
        }
        LDXW | LDXH | LDXB | LDXDW => i.imm = 0,
        STW | STH | STB | STDW => i.src = 0,
        STXW | STXH | STXB | STXDW => i.imm = 0,
        NEG32 | NEG64 => {
            i.src = 0;
            i.off = 0;
            i.imm = 0;
        }
        LE | BE => {
            i.src = 0;
            i.off = 0;
        }
        JA => {
            i.dst = 0;
            i.src = 0;
            i.imm = 0;
        }
        EXIT => {
            i.dst = 0;
            i.src = 0;
            i.off = 0;
            i.imm = 0;
        }
        op if op & 0x07 == CLS_ALU || op & 0x07 == CLS_ALU64 => {
            i.off = 0;
            if op & SRC_REG != 0 {
                i.imm = 0;
            } else {
                i.src = 0;
            }
        }
        op if op & 0x07 == CLS_JMP => {
            if op & SRC_REG != 0 {
                i.imm = 0;
            } else {
                i.src = 0;
            }
        }
        _ => {}
    }
    i
}

fn arb_insn(rng: &mut XorShift) -> isa::Insn {
    let op = OPCODES[rng.below(OPCODES.len() as u64) as usize];
    let dst = rng.below(11) as u8;
    let src = rng.below(11) as u8;
    let off = rng.range_i32(-8, 8) as i16;
    let mut imm = rng.range_i32(-64, 64);
    if op == isa::LE || op == isa::BE {
        // Keep endian widths valid so more programs verify.
        imm = [16, 32, 64][(imm.unsigned_abs() % 3) as usize];
    }
    canonicalize(isa::Insn::new(op, dst, src, off, imm))
}

/// Generates one candidate program (possibly invalid); wide opcodes get
/// their pair slot appended so some survive verification. Roughly a
/// quarter of the instructions are emitted as runs of identical copies,
/// exercising the decoder's run-length superinstructions.
fn arb_program(rng: &mut XorShift) -> Vec<isa::Insn> {
    let len = 1 + rng.below(24) as usize;
    let mut insns = Vec::with_capacity(len + 2);
    for _ in 0..len {
        let insn = arb_insn(rng);
        let reps = if rng.below(4) == 0 {
            1 + rng.below(6)
        } else {
            1
        };
        for _ in 0..reps {
            insns.push(insn);
            if insn.is_wide() {
                // Canonical zero-opcode tail carrying the high imm word.
                insns.push(isa::Insn::new(0, 0, 0, 0, rng.range_i32(-4, 4)));
            }
        }
    }
    insns.push(isa::Insn::new(isa::EXIT, 0, 0, 0, 0));
    insns
}

type Observation = Result<(u64, OpCounts, Vec<u8>), VmError>;

/// Runs one engine over the program with the standard differential
/// fixture (256 B stack, RW ctx region) and captures everything a
/// container's host could observe.
fn observe(engine: &str, prog: &verifier::VerifiedProgram) -> Observation {
    let cfg = ExecConfig::new(4_096, 512);
    let mut mem = MemoryMap::new();
    let stack = mem.add_stack(256);
    mem.add_ctx(vec![0xa5; 32], Perm::RW);
    let mut helpers = HelperRegistry::new();
    let out = match engine {
        "vanilla" => Interpreter::new(prog, cfg).run(&mut mem, &mut helpers, 0x2000_0000),
        "certfc" => CertInterpreter::new(prog, cfg).run(&mut mem, &mut helpers, 0x2000_0000),
        "threaded" => {
            let threaded = ThreadedProgram::lower(&DecodedProgram::lower(prog));
            ThreadedInterpreter::new(&threaded, cfg).run(&mut mem, &mut helpers, 0x2000_0000)
        }
        other => unreachable!("unknown engine {other}"),
    };
    out.map(|e| (e.return_value, e.counts, mem.region_bytes(stack).to_vec()))
}

/// Registers the differential helper set: a pure-arithmetic helper, a
/// memory-writing helper, and a data-dependently faulting helper —
/// each path a distinct observable the engines must agree on.
fn register_diff_helpers(helpers: &mut HelperRegistry<'_>) {
    helpers.register(1, "mix", |_m, a| {
        Ok(a[0].wrapping_mul(0x9e37_79b9).wrapping_add(a[1] >> 3))
    });
    helpers.register(2, "poke", |m, a| {
        let addr = 0x2000_0000 + (a[0] % 24);
        m.store(addr, 8, a[1])?;
        Ok(addr)
    });
    helpers.register(3, "picky", |_m, a| {
        // ≡2 mod 3 covers the untouched-r1 (ctx pointer) case, so the
        // corpus hits the helper fault path often.
        if a[0] % 3 == 2 {
            Err(VmError::HelperFault {
                id: 3,
                reason: "bad argument residue".into(),
            })
        } else {
            Ok(a[0] / 3)
        }
    });
}

/// Like [`observe`], but with the differential helper set registered
/// and (for the threaded tier) call sites slot-bound, as the hosting
/// engine does at install.
fn observe_with_helpers(engine: &str, prog: &verifier::VerifiedProgram) -> Observation {
    let cfg = ExecConfig::new(4_096, 512);
    let mut mem = MemoryMap::new();
    let stack = mem.add_stack(256);
    mem.add_ctx(vec![0xa5; 32], Perm::RW);
    let mut helpers = HelperRegistry::new();
    register_diff_helpers(&mut helpers);
    let out = match engine {
        "vanilla" => Interpreter::new(prog, cfg).run(&mut mem, &mut helpers, 0x2000_0000),
        "certfc" => CertInterpreter::new(prog, cfg).run(&mut mem, &mut helpers, 0x2000_0000),
        "threaded" => {
            let mut decoded = DecodedProgram::lower(prog);
            decoded.bind_helpers(&helpers);
            let threaded = ThreadedProgram::lower(&decoded);
            ThreadedInterpreter::new(&threaded, cfg).run(&mut mem, &mut helpers, 0x2000_0000)
        }
        other => unreachable!("unknown engine {other}"),
    };
    out.map(|e| (e.return_value, e.counts, mem.region_bytes(stack).to_vec()))
}

/// The tentpole property: over thousands of seeded random programs, the
/// threaded-code tier is observationally equivalent to the reference
/// interpreter (same `return_value`, same
/// `OpCounts`, same final stack, same `VmError` on faults), and CertFC
/// agrees too.
#[test]
fn engines_agree_on_seeded_random_programs() {
    let mut verified = 0u32;
    let mut faulting = 0u32;
    let mut seed = 0u64;
    // Keep drawing seeds until ≥1000 generated programs verified; the
    // acceptance floor for the differential corpus.
    while verified < 1_000 {
        assert!(
            seed < 200_000,
            "generator stopped producing verified programs"
        );
        let mut rng = XorShift::new(seed);
        seed += 1;
        let insns = arb_program(&mut rng);
        let text = isa::encode_all(&insns);
        let Ok(prog) = verifier::verify(&text, &Default::default()) else {
            continue;
        };
        verified += 1;
        let vanilla = observe("vanilla", &prog);
        let threaded = observe("threaded", &prog);
        let cert = observe("certfc", &prog);
        assert_eq!(
            vanilla,
            threaded,
            "threaded tier diverged, seed {}",
            seed - 1
        );
        assert_eq!(vanilla, cert, "certfc diverged, seed {}", seed - 1);
        if vanilla.is_err() {
            faulting += 1;
        }
    }
    // The corpus must actually exercise fault paths, not only clean
    // exits; with memory ops in the vocabulary this is plentiful.
    assert!(faulting > 50, "only {faulting} faulting programs in corpus");
}

/// Helper-call differential corpus: seeded random programs whose
/// vocabulary includes `call` into the three-helper differential set
/// (pure, memory-writing, data-dependently faulting). All three engines
/// must agree on values, counts, stacks — and on `HelperFault` /
/// `HelperDenied` outcomes — with the threaded tier running slot-bound
/// call sites as the hosting engine installs them.
#[test]
fn engines_agree_on_helper_call_programs() {
    let granted: std::collections::HashSet<u32> = [1, 2, 3].into_iter().collect();
    let mut verified = 0u32;
    let mut called = 0u32;
    let mut helper_faults = 0u32;
    let mut seed = 3_000_000u64;
    while verified < 300 {
        assert!(seed < 3_300_000, "generator exhausted");
        let mut rng = XorShift::new(seed);
        seed += 1;
        let mut insns = arb_program(&mut rng);
        // Splice 1–4 helper calls over the generated stream (replacing
        // non-wide slots keeps branch targets structurally plausible;
        // the verifier rejects the rest).
        let n_calls = 1 + rng.below(4) as usize;
        for _ in 0..n_calls {
            let at = rng.below(insns.len() as u64) as usize;
            if insns[at].is_wide() || insns[at].opcode == 0 {
                continue;
            }
            insns[at] = isa::Insn::new(isa::CALL, 0, 0, 0, 1 + (rng.below(3) as i32));
        }
        let text = isa::encode_all(&insns);
        let Ok(prog) = verifier::verify(&text, &granted) else {
            continue;
        };
        verified += 1;
        if insns.iter().any(|i| i.opcode == isa::CALL) {
            called += 1;
        }
        let vanilla = observe_with_helpers("vanilla", &prog);
        let threaded = observe_with_helpers("threaded", &prog);
        let cert = observe_with_helpers("certfc", &prog);
        assert_eq!(
            vanilla,
            threaded,
            "threaded tier diverged, seed {}",
            seed - 1
        );
        assert_eq!(vanilla, cert, "certfc diverged, seed {}", seed - 1);
        if matches!(vanilla, Err(VmError::HelperFault { .. })) {
            helper_faults += 1;
        }
    }
    assert!(called > 100, "only {called} programs actually called");
    assert!(
        helper_faults > 5,
        "only {helper_faults} helper-fault outcomes in corpus"
    );
}

/// The verifier never accepts a program that later faults for a
/// *structural* reason (bad opcode, bad jump, bad register) — run-time
/// faults must be data-dependent only.
#[test]
fn verified_programs_never_fault_structurally() {
    let mut checked = 0u32;
    let mut seed = 1_000_000u64;
    while checked < 600 {
        assert!(seed < 1_200_000, "generator exhausted");
        let mut rng = XorShift::new(seed);
        seed += 1;
        let insns = arb_program(&mut rng);
        let text = isa::encode_all(&insns);
        let Ok(prog) = verifier::verify(&text, &Default::default()) else {
            continue;
        };
        checked += 1;
        if let Err(e) = observe("vanilla", &prog) {
            assert!(
                matches!(
                    e,
                    VmError::InvalidMemoryAccess { .. }
                        | VmError::DivisionByZero { .. }
                        | VmError::InstructionBudgetExceeded { .. }
                        | VmError::BranchBudgetExceeded { .. }
                ),
                "structural fault {e:?} escaped the verifier (seed {})",
                seed - 1
            );
        }
    }
}

/// Disassembling and re-assembling a verified program reproduces it
/// exactly.
#[test]
fn disassembler_round_trips() {
    let mut checked = 0u32;
    let mut seed = 2_000_000u64;
    while checked < 400 {
        assert!(seed < 2_200_000, "generator exhausted");
        let mut rng = XorShift::new(seed);
        seed += 1;
        let insns = arb_program(&mut rng);
        let text = isa::encode_all(&insns);
        if verifier::verify(&text, &Default::default()).is_err() {
            continue;
        }
        checked += 1;
        let listing = disasm::disassemble(&insns);
        let again = asm::assemble(&listing).expect("listing re-assembles");
        assert_eq!(insns, again, "seed {}", seed - 1);
    }
}

/// Wire encode/decode of instructions is the identity.
#[test]
fn insn_wire_round_trip() {
    let mut rng = XorShift::new(42);
    for _ in 0..4_000 {
        let insn = arb_insn(&mut rng);
        let decoded = isa::Insn::decode(&insn.encode());
        assert_eq!(insn, decoded);
    }
}

/// The memory allow-list never grants an access outside declared
/// regions: probing random addresses only succeeds inside them.
#[test]
fn allowlist_is_sound() {
    let mut rng = XorShift::new(7);
    let mut mem = MemoryMap::new();
    mem.add_stack(512);
    mem.add_ctx(vec![0; 64], Perm::RO);
    for _ in 0..20_000 {
        // Half the probes concentrate near region boundaries where
        // off-by-one bugs live.
        let addr = if rng.below(2) == 0 {
            rng.below(0x1_0000_0000)
        } else {
            let base = [
                0x1000_0000u64,
                0x1000_0000 + 512,
                0x2000_0000,
                0x2000_0000 + 64,
            ][rng.below(4) as usize];
            base.wrapping_add(rng.below(32)).wrapping_sub(16)
        };
        let len = [1usize, 2, 4, 8][rng.below(4) as usize];
        let in_stack = addr >= 0x1000_0000 && addr + len as u64 <= 0x1000_0000 + 512;
        let in_ctx = addr >= 0x2000_0000 && addr + len as u64 <= 0x2000_0000 + 64;
        let read_ok = mem.load(addr, len).is_ok();
        assert_eq!(
            read_ok,
            in_stack || in_ctx,
            "read at 0x{addr:08x} len {len}"
        );
        let write_ok = mem.store(addr, len, 0).is_ok();
        assert_eq!(
            write_ok, in_stack,
            "ctx is read-only (0x{addr:08x} len {len})"
        );
    }
}
