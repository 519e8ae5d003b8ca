//! Interpreter-throughput tracker: measures the threaded-code tier
//! (the interpreter Femto-Container engines run) against the seed
//! (vanilla) reference interpreter and emits `BENCH_interp.json` at
//! the workspace root so successive changes can track the trajectory.
//!
//! Four measurements:
//!
//! 1. **per_instruction** — ns/op for each Figure 8 micro-program
//!    class, vanilla `Interpreter` vs `ThreadedInterpreter` (memory map
//!    and helper registry reused in both, isolating pure dispatch
//!    cost);
//! 2. **alu_branch_mix** — a combined ALU/branch workload, the paper's
//!    dominant interpreter cost and this repo's headline speedup
//!    number, plus the looped non-fusable mix where the threaded tier
//!    must beat vanilla by ≥2.19x (asserted — a dispatch-loop
//!    regression fails the binary);
//! 3. **div_imm_mix** — alternating constant-divisor ops that no tier
//!    can run-length fuse: isolates the threaded tier's decode-time
//!    divisor resolution and strength reduction against the vanilla
//!    per-op guard and hardware divide (≥1.20x, asserted);
//! 4. **hook_dispatch** — events/sec firing an engine hook with the
//!    thread-counter application: seed-style dispatch (fresh memory
//!    map + helper registry per event, vanilla interpreter) vs the
//!    arena-reusing Femto-Container engine (threaded tier).
//!
//! Pass `--quick` for a smoke run (CI) with tiny measurement budgets
//! (the assertions drop to noise-tolerant floors there).

use std::sync::Arc;
use std::time::{Duration, Instant};

use fc_bench::figure8_classes;
use fc_core::apps;
use fc_core::contract::ContractOffer;
use fc_core::engine::HostingEngine;
use fc_core::helpers_impl::{build_registry, standard_helper_ids, HostEnv};
use fc_core::hooks::{sched_hook_id, Hook, HookKind, HookPolicy};
use fc_rbpf::decode::DecodedProgram;
use fc_rbpf::helpers::HelperRegistry;
use fc_rbpf::interp::Interpreter;
use fc_rbpf::mem::MemoryMap;
use fc_rbpf::program::FcProgram;
use fc_rbpf::threaded::{ThreadedInterpreter, ThreadedProgram};
use fc_rbpf::vm::ExecConfig;
use fc_rbpf::{asm, isa, verifier};
use fc_rtos::platform::{Engine, Platform};
use std::hint::black_box;

/// Times `routine` for roughly `budget`, returning ns per call.
///
/// The budget is split into rounds and the *fastest* round wins:
/// single-run means absorb scheduler interrupts and frequency dips
/// (±20-30% on shared hosts), while the per-round minimum converges on
/// the code's actual cost — the standard estimator for throughput
/// microbenchmarks.
fn measure<F: FnMut() -> u64>(budget: Duration, mut routine: F) -> f64 {
    // Calibrate a batch that runs ~1 ms.
    let cal_start = Instant::now();
    let mut cal_iters = 0u64;
    while cal_start.elapsed() < Duration::from_millis(20) {
        black_box(routine());
        cal_iters += 1;
    }
    let per = Duration::from_millis(20).as_secs_f64() / cal_iters.max(1) as f64;
    let batch = ((1.0e-3 / per) as u64).clamp(1, 1 << 22);

    const ROUNDS: u32 = 5;
    let round_budget = budget / ROUNDS;
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < round_budget {
            for _ in 0..batch {
                black_box(routine());
            }
            iters += batch;
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

struct ClassRow {
    name: &'static str,
    vanilla_ns_per_op: f64,
    threaded_ns_per_op: f64,
}

impl ClassRow {
    fn threaded_speedup(&self) -> f64 {
        self.vanilla_ns_per_op / self.threaded_ns_per_op
    }
}

/// Measures one micro-program under both interpreters; returns
/// (vanilla, threaded) ns/op.
fn bench_program(src: &str, budget: Duration) -> (f64, f64) {
    let text = isa::encode_all(&asm::assemble(src).expect("assembles"));
    let prog = verifier::verify(&text, &Default::default()).expect("verifies");
    let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));

    let mut mem = MemoryMap::new();
    mem.add_stack(512);
    let mut helpers = HelperRegistry::new();

    let ops = Interpreter::new(&prog, ExecConfig::default())
        .run(&mut mem, &mut helpers, 0)
        .expect("runs")
        .counts
        .total() as f64;

    let interp = Interpreter::new(&prog, ExecConfig::default());
    let vanilla_ns = measure(budget, || {
        interp
            .run(&mut mem, &mut helpers, 0)
            .expect("runs")
            .return_value
    });
    let thr = ThreadedInterpreter::new(&threaded, ExecConfig::default());
    let threaded_ns = measure(budget, || {
        thr.run(&mut mem, &mut helpers, 0)
            .expect("runs")
            .return_value
    });
    (vanilla_ns / ops, threaded_ns / ops)
}

/// A mixed ALU/branch workload: tight loop of 64-bit ALU, 32-bit ALU,
/// shifts and compare-branches — the §8 interpreter-throughput shape.
fn alu_branch_mix_src() -> String {
    "\
mov r1, 0
mov r2, 4000
mov r3, 0x1234
loop:
add r1, 7
xor r3, r1
lsh r3, 1
rsh r3, 1
add32 r4, 13
and32 r4, 0xffff
sub r2, 1
jgt r3, 0x7fffffff, wrap
jne r2, 0, loop
mov r0, r1
exit
wrap:
and r3, 0xffff
ja loop"
        .to_owned()
}

/// Alternating constant-divisor ops: adjacent ops are never identical,
/// so no run-length fusion applies — what remains is pure dispatch
/// plus the divide itself: the hardware divide (behind its per-op zero
/// guard) in the vanilla interpreter against the threaded tier's
/// strength-reduced multiply. The `or32` re-seeds bit
/// 30 of each dividend every round: hardware 32-bit division has
/// *data-dependent* latency and is cheap on the small dividends this
/// chain would otherwise collapse to, which made the comparison
/// measure divider luck instead of the lowering.
fn div_imm_mix_src() -> String {
    let mut src = String::from("mov r3, 123456789\nmov r4, 987654321\n");
    for _ in 0..32 {
        src.push_str("or32 r3, 0x40000000\nor32 r4, 0x40000000\n");
        src.push_str("div32 r3, 7\ndiv32 r4, 9\nmod32 r3, 1000003\nmod32 r4, 999983\n");
    }
    src.push_str("add r3, r4\nmov r0, r3\nexit");
    src
}

fn seed_style_hook_event(
    env: &Arc<HostEnv>,
    image: &FcProgram,
    prog: &fc_rbpf::VerifiedProgram,
    ctx: &[u8],
) -> u64 {
    // What the seed engine did per event: fresh map, cloned sections,
    // rebuilt registry, vanilla interpreter.
    let mut mem = MemoryMap::new();
    mem.add_stack(fc_rbpf::mem::STACK_SIZE);
    mem.add_ctx(ctx.to_vec(), fc_rbpf::mem::Perm::RW);
    if !image.data.is_empty() {
        mem.add_data(image.data.clone());
    }
    if !image.rodata.is_empty() {
        mem.add_rodata(image.rodata.clone());
    }
    let mut helpers = build_registry(
        env,
        &fc_core::helpers_impl::HelperMeter::new(),
        1,
        1,
        &standard_helper_ids(),
    );
    let out = Interpreter::new(prog, ExecConfig::default())
        .run(&mut mem, &mut helpers, fc_rbpf::mem::CTX_VADDR)
        .expect("runs");
    out.return_value
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test");
    let budget = if quick {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(600)
    };

    // --- 1. Per-instruction classes --------------------------------
    let mut rows = Vec::new();
    for (name, src, _class) in figure8_classes() {
        let (vanilla, threaded) = bench_program(&src, budget);
        println!(
            "{name:<28} vanilla {vanilla:7.2} ns/op   threaded {threaded:7.2} ns/op   speedup {:.2}x",
            vanilla / threaded
        );
        rows.push(ClassRow {
            name,
            vanilla_ns_per_op: vanilla,
            threaded_ns_per_op: threaded,
        });
    }

    // --- 2. ALU/branch aggregates ----------------------------------
    // Headline acceptance number: geometric-mean speedup across the
    // per_instruction bench's ALU and Branch classes.
    let alu_branch: Vec<&ClassRow> = rows
        .iter()
        .filter(|r| r.name.starts_with("ALU") || r.name.starts_with("Branch"))
        .collect();
    let class_mix_threaded = (alu_branch
        .iter()
        .map(|r| r.threaded_speedup().ln())
        .sum::<f64>()
        / alu_branch.len() as f64)
        .exp();
    println!(
        "{:<28} geometric-mean speedup threaded {class_mix_threaded:.2}x over {} classes",
        "ALU/branch class mix",
        alu_branch.len()
    );

    // Secondary: a looped, non-fusable ALU/branch workload (pure
    // dispatch-loop improvement, no run-length superinstruction help —
    // the threaded tier's per-op handler chains and pair fusion are
    // exactly what this shape measures).
    let (mix_vanilla, mix_threaded) = bench_program(&alu_branch_mix_src(), budget * 2);
    let mix_threaded_speedup = mix_vanilla / mix_threaded;
    println!(
        "{:<28} vanilla {mix_vanilla:7.2} ns/op   threaded {mix_threaded:7.2} ns/op   threaded/vanilla {mix_threaded_speedup:.2}x",
        "ALU/branch looped mix"
    );

    // --- 3. Constant-divisor mix -----------------------------------
    let (div_vanilla, div_threaded) = bench_program(&div_imm_mix_src(), budget);
    let div_threaded_speedup = div_vanilla / div_threaded;
    println!(
        "{:<28} vanilla {div_vanilla:7.2} ns/op   threaded {div_threaded:7.2} ns/op   threaded/vanilla {div_threaded_speedup:.2}x",
        "ALU divide imm mixed"
    );

    // --- 4. Hook dispatch ------------------------------------------
    let image_bytes = apps::thread_counter().to_bytes();
    let image = FcProgram::from_bytes(&image_bytes).expect("parses");
    let prog = verifier::verify(&image.text, &standard_helper_ids()).expect("verifies");
    let env = Arc::new(HostEnv::new(fc_kvstore::DEFAULT_CAPACITY));
    let mut ctx = Vec::new();
    ctx.extend_from_slice(&1u64.to_le_bytes());
    ctx.extend_from_slice(&2u64.to_le_bytes());

    let seed_ns = measure(budget, || seed_style_hook_event(&env, &image, &prog, &ctx));

    let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
    engine.register_hook(
        Hook::new("sched", HookKind::SchedSwitch, HookPolicy::First),
        ContractOffer::helpers(standard_helper_ids()),
    );
    let id = engine
        .install("pid_log", 1, &image_bytes, apps::thread_counter_request())
        .expect("installs");
    engine.attach(id, sched_hook_id()).expect("attaches");
    let arena_threaded_ns = measure(budget, || {
        engine
            .fire_hook(sched_hook_id(), &ctx, &[])
            .expect("fires")
            .cycles
    });

    let seed_eps = 1.0e9 / seed_ns;
    let arena_threaded_eps = 1.0e9 / arena_threaded_ns;
    println!(
        "hook dispatch: seed-style {seed_eps:.0} events/s   arena+threaded {arena_threaded_eps:.0} events/s   speedup {:.2}x",
        arena_threaded_eps / seed_eps
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- Emit BENCH_interp.json ------------------------------------
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"interp\",\n");
    out.push_str("  \"unit\": \"ns_per_op\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"per_instruction\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"vanilla_ns_per_op\": {:.3}, \"threaded_ns_per_op\": {:.3}, \"threaded_speedup\": {:.3}}}{}\n",
            json_escape(r.name),
            r.vanilla_ns_per_op,
            r.threaded_ns_per_op,
            r.threaded_speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"alu_branch_mix\": {{\"geomean_class_threaded_speedup\": {class_mix_threaded:.3}}},\n"
    ));
    out.push_str(&format!(
        "  \"alu_branch_looped_mix\": {{\"vanilla_ns_per_op\": {mix_vanilla:.3}, \"threaded_ns_per_op\": {mix_threaded:.3}, \"threaded_speedup\": {mix_threaded_speedup:.3}}},\n"
    ));
    out.push_str(&format!(
        "  \"div_imm_mix\": {{\"vanilla_ns_per_op\": {div_vanilla:.3}, \"threaded_ns_per_op\": {div_threaded:.3}, \"threaded_speedup\": {div_threaded_speedup:.3}}},\n"
    ));
    out.push_str(&format!(
        "  \"hook_dispatch\": {{\"seed_style_events_per_sec\": {seed_eps:.0}, \"arena_threaded_events_per_sec\": {arena_threaded_eps:.0}, \"speedup\": {:.3}}}\n",
        arena_threaded_eps / seed_eps
    ));
    out.push_str("}\n");

    if quick {
        println!("quick mode: BENCH_interp.json not rewritten (numbers too noisy)");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
        std::fs::write(path, &out).expect("writes BENCH_interp.json");
        println!("wrote {path}");
    }

    if !quick && class_mix_threaded < 3.0 {
        eprintln!(
            "WARNING: ALU/branch class-mix threaded speedup {class_mix_threaded:.2}x below the 3x target"
        );
    }

    // Regression gates: the threaded tier must beat the vanilla
    // interpreter on the looped non-fusable mix — that shape is the
    // whole point of per-op handler chains and block superinstructions
    // — and on the constant-divisor mix, where decode-time divisor
    // resolution drops the per-op guard and strength-reduces the
    // divide. The floors are the former threaded-over-decoded-tier
    // floors (1.3x/1.1x and 1.05x/1.0x) multiplied by that tier's
    // recorded speedup over vanilla (1.682x looped, 1.143x div), so
    // they demand what the old floors did. Quick (CI smoke) budgets
    // are tiny and noisy, so the floors are lower there.
    let mix_floor = if quick { 1.85 } else { 2.19 };
    assert!(
        mix_threaded_speedup >= mix_floor,
        "threaded tier regression: looped mix only {mix_threaded_speedup:.2}x over vanilla (floor {mix_floor}x)"
    );
    let div_floor = if quick { 1.14 } else { 1.20 };
    assert!(
        div_threaded_speedup >= div_floor,
        "threaded tier regression: div-imm mix only {div_threaded_speedup:.2}x over vanilla (floor {div_floor}x)"
    );
}
