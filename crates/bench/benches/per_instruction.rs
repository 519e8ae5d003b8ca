//! Host wall-clock per instruction class for the vanilla, threaded and
//! CertFC interpreters (the measurement behind Figure 8; the threaded
//! tier is the one Femto-Container engines run).

use criterion::{criterion_group, criterion_main, Criterion};
use fc_bench::figure8_classes;
use fc_rbpf::certfc::CertInterpreter;
use fc_rbpf::decode::DecodedProgram;
use fc_rbpf::helpers::HelperRegistry;
use fc_rbpf::interp::Interpreter;
use fc_rbpf::mem::MemoryMap;
use fc_rbpf::threaded::{ThreadedInterpreter, ThreadedProgram};
use fc_rbpf::vm::ExecConfig;
use fc_rbpf::{asm, isa, verifier};
use std::hint::black_box;

fn bench_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure8_per_instruction");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.sample_size(30);
    for (name, src, _class) in figure8_classes() {
        let text = isa::encode_all(&asm::assemble(&src).expect("assembles"));
        let prog = verifier::verify(&text, &Default::default()).expect("verifies");
        let threaded = ThreadedProgram::lower(&DecodedProgram::lower(&prog));
        group.bench_function(format!("vanilla/{name}"), |b| {
            let mut mem = MemoryMap::new();
            mem.add_stack(512);
            let mut helpers = HelperRegistry::new();
            let interp = Interpreter::new(&prog, ExecConfig::default());
            b.iter(|| black_box(interp.run(&mut mem, &mut helpers, 0).expect("runs")))
        });
        group.bench_function(format!("threaded/{name}"), |b| {
            let mut mem = MemoryMap::new();
            mem.add_stack(512);
            let mut helpers = HelperRegistry::new();
            let interp = ThreadedInterpreter::new(&threaded, ExecConfig::default());
            b.iter(|| black_box(interp.run(&mut mem, &mut helpers, 0).expect("runs")))
        });
        group.bench_function(format!("certfc/{name}"), |b| {
            let mut mem = MemoryMap::new();
            mem.add_stack(512);
            let mut helpers = HelperRegistry::new();
            let interp = CertInterpreter::new(&prog, ExecConfig::default());
            b.iter(|| black_box(interp.run(&mut mem, &mut helpers, 0).expect("runs")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_classes);
criterion_main!(benches);
