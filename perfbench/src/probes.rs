//! Single-layer probes of the traced run: each calls one layer's public
//! functions directly, on the workload's own programs, values and
//! events, so its figure can be set beside the end-to-end ones.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fc_core::contract::ContractOffer;
use fc_core::engine::{HookReport, HostRegion, HostingEngine};
use fc_core::helpers_impl::{build_registry, standard_helper_ids, HelperMeter, HostEnv};
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_fleet::wire::{self, NodeOp, ReplyBody};
use fc_host::coap::response_pdu;
use fc_host::HookEvent;
use fc_kvstore::{Scope, ShardedStores};
use fc_net::coap::Message;
use fc_rbpf::decode::DecodedProgram;
use fc_rbpf::mem::{MemoryMap, Perm, CTX_VADDR, STACK_SIZE};
use fc_rbpf::threaded::{ThreadedInterpreter, ThreadedProgram};
use fc_rbpf::verifier::verify;
use fc_rbpf::vm::ExecConfig;
use fc_rtos::platform::{Engine, Platform};
use fc_suit::Uuid;

use crate::estimators::median;
use crate::ledger::Ledger;
use crate::tenants::{Responder, PKT_LEN, TENANTS, VALUE_KEY};

/// One of the workload's events: the tenant it targets, the CoAP
/// context and the packet region the front-end built for it.
pub type Event = (u32, Vec<u8>, HostRegion);

/// Runs `pass` at least five times and for at least 200 ms, returning
/// the median pass time in ns.
fn median_pass_ns(mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || started.elapsed().as_millis() < 200 {
        let t0 = Instant::now();
        pass();
        times.push(t0.elapsed().as_nanos() as f64);
    }
    median(&times).expect("at least five passes")
}

fn payload_of(report: &HookReport) -> Option<Vec<u8>> {
    Message::decode(&response_pdu(report))
        .ok()
        .map(|m| m.payload)
}

/// Engine layer: a single-thread [`HostingEngine::fire_hook`] replay
/// of `events`, plus the install cost. Sets `engine.fire_hook_ns`,
/// `engine.install_us` and checks every replayed payload.
pub fn engine(ledger: &mut Ledger, responder: Responder, values: &[u64], events: &[Event]) {
    let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
    let image = responder.program().to_bytes();
    let mut hooks = Vec::new();
    let mut install_us = Vec::new();
    for t in 0..TENANTS {
        let hook = Hook::new(
            &format!("probe-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        engine.register_hook(hook.clone(), ContractOffer::helpers(standard_helper_ids()));
        engine
            .env()
            .stores()
            .store(0, t, Scope::Tenant, VALUE_KEY, values[t as usize] as i64)
            .expect("seeds the tenant value");
        let t0 = Instant::now();
        let c = engine
            .install(&format!("probe-r{t}"), t, &image, responder.request())
            .expect("installs");
        install_us.push(t0.elapsed().as_secs_f64() * 1e6);
        engine.attach(c, hook.id).expect("attaches");
        hooks.push(hook.id);
    }
    let mut ok = true;
    for (t, ctx, pkt) in events {
        let report = engine
            .fire_hook(hooks[*t as usize], ctx, std::slice::from_ref(pkt))
            .expect("hook fires");
        ok &= payload_of(&report) == Some(responder.expected_payload(values[*t as usize]));
    }
    ledger.check("engine replay formats the expected payloads", ok);
    let pass_ns = median_pass_ns(|| {
        for (t, ctx, pkt) in events {
            black_box(engine.fire_hook(hooks[*t as usize], ctx, std::slice::from_ref(pkt)))
                .expect("hook fires");
        }
    });
    ledger.set("engine.fire_hook_ns", pass_ns / events.len() as f64);
    ledger.set("engine.install_us", median(&install_us).unwrap_or(0.0));
}

/// VM layer: the workload's program verified, decoded, lowered to the
/// threaded tier and run through [`ThreadedInterpreter`] with the
/// real helpers over `events`. Sets `vm.run_ns`, `vm.ns_per_insn` and
/// `engine.fixed_ns` (engine replay minus VM run).
pub fn vm(ledger: &mut Ledger, responder: Responder, values: &[u64], events: &[Event]) {
    let env = Arc::new(HostEnv::default());
    let granted = responder.request().helpers;
    let image = responder.program();
    let program = verify(&image.text, &granted).expect("responder verifies");
    struct Lane {
        threaded: ThreadedProgram,
        registry: fc_rbpf::helpers::HelperRegistry<'static>,
        mem: MemoryMap,
        ctx: fc_rbpf::mem::RegionId,
        pkt: fc_rbpf::mem::RegionId,
    }
    let ctx0 = &events.first().expect("at least one event").1;
    let mut lanes: Vec<Lane> = (0..TENANTS)
        .map(|t| {
            env.stores()
                .store(0, t, Scope::Tenant, VALUE_KEY, values[t as usize] as i64)
                .expect("seeds the tenant value");
            let mut decoded = DecodedProgram::lower(&program);
            decoded.precheck_helpers(&granted).expect("helpers granted");
            let registry = build_registry(&env, &HelperMeter::new(), t, t, &granted);
            decoded.bind_helpers(&registry);
            let mut mem = MemoryMap::new();
            mem.add_stack(STACK_SIZE);
            let ctx = mem.add_ctx(ctx0.clone(), Perm::RW);
            let pkt = mem.add_host_region("pkt", vec![0; PKT_LEN], Perm::RW);
            Lane {
                threaded: ThreadedProgram::lower(&decoded),
                registry,
                mem,
                ctx,
                pkt,
            }
        })
        .collect();
    let run = |lanes: &mut Vec<Lane>, t: u32, ctx: &[u8]| {
        let lane = &mut lanes[t as usize];
        lane.mem.region_bytes_mut(lane.ctx).copy_from_slice(ctx);
        ThreadedInterpreter::new(&lane.threaded, ExecConfig::default())
            .run(&mut lane.mem, &mut lane.registry, CTX_VADDR)
            .expect("responder runs")
    };
    let mut ok = true;
    let mut insns = 0u64;
    for (t, ctx, _) in events {
        let exec = run(&mut lanes, *t, ctx);
        insns += exec.counts.total();
        let lane = &lanes[*t as usize];
        let len = exec.return_value as usize;
        let pdu = &lane.mem.region_bytes(lane.pkt)[..len.min(PKT_LEN)];
        ok &= Message::decode(pdu).map(|m| m.payload).ok()
            == Some(responder.expected_payload(values[*t as usize]));
    }
    ledger.check("threaded-tier run formats the expected payloads", ok);
    let pass_ns = median_pass_ns(|| {
        for (t, ctx, _) in events {
            black_box(run(&mut lanes, *t, ctx));
        }
    });
    let run_ns = pass_ns / events.len() as f64;
    ledger.set("vm.run_ns", run_ns);
    ledger.set("vm.ns_per_insn", pass_ns / insns.max(1) as f64);
    if let Some(host) = ledger.values.get("engine.insns_per_req").copied() {
        ledger.check(
            "threaded-tier run retires the host's instructions per request",
            insns as f64 / events.len() as f64 == host,
        );
    }
    if let Some(fire) = ledger.values.get("engine.fire_hook_ns").copied() {
        ledger.set("engine.fixed_ns", fire - run_ns);
    }
}

const KV_OPS: u64 = 20_000;

fn per_op_ns(mut op: impl FnMut(u64)) -> f64 {
    median_pass_ns(|| {
        for i in 0..KV_OPS {
            op(i);
        }
    }) / KV_OPS as f64
}

/// Kv layer: bare [`ShardedStores::fetch`] of the tenants' values on
/// `stores`, and bare [`ShardedStores::store`] on a plain
/// environment's stores. Sets `kv.fetch_ns` and `kv.store_ns`.
pub fn kv(ledger: &mut Ledger, stores: &ShardedStores) {
    ledger.set(
        "kv.fetch_ns",
        per_op_ns(|i| {
            black_box(stores.fetch(0, (i % u64::from(TENANTS)) as u32, Scope::Tenant, VALUE_KEY));
        }),
    );
    let plain = HostEnv::default();
    ledger.set("kv.store_ns", store_ns(plain.stores()));
}

/// Per-call ns of a bare global-scope store on `stores`.
pub fn store_ns(stores: &ShardedStores) -> f64 {
    per_op_ns(|i| {
        stores
            .store(0, 0, Scope::Global, 1000 + (i % 16) as u32, i as i64)
            .expect("store within capacity");
    })
}

/// Fleet wire codec: [`wire::encode_op`] of a real batch frame (the
/// events of one hook) and [`wire::decode_reply`] of the batch reply
/// carrying their reports. Sets `fleet.encode_ns` and
/// `fleet.decode_ns` (per frame) and checks the reply round-trips.
pub fn wire(ledger: &mut Ledger, hook: Uuid, events: Vec<HookEvent>, reports: Vec<HookReport>) {
    let op = NodeOp::Batch { hook, events };
    let reply = Ok(ReplyBody::Batch(reports.into_iter().map(Ok).collect()));
    let frame = wire::encode_reply(&reply);
    ledger.check(
        "batch reply round-trips the wire codec",
        wire::decode_reply(&frame).ok() == Some(reply),
    );
    const REPS: u32 = 2_000;
    let encode = median_pass_ns(|| {
        for _ in 0..REPS {
            black_box(wire::encode_op(black_box(&op)));
        }
    });
    let decode = median_pass_ns(|| {
        for _ in 0..REPS {
            let reply = wire::decode_reply(black_box(&frame)).expect("decodes");
            black_box(reply).expect("a batch reply");
        }
    });
    ledger.set("fleet.encode_ns", encode / f64::from(REPS));
    ledger.set("fleet.decode_ns", decode / f64::from(REPS));
}
