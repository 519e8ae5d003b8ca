//! Differential and interleaving suites for the concurrent hosting
//! runtime (`fc-host`).
//!
//! The load-bearing guarantee: routing an event through the sharded,
//! queued, multi-threaded host produces a per-event [`HookReport`]
//! **identical** to firing the same event on the single-threaded
//! [`HostingEngine`] — same results, same op counts, same cycles, same
//! region contents, same faults. Concurrency may reorder events of
//! *different* hooks but never changes any event's outcome.

use femto_containers::core::apps;
use femto_containers::core::contract::{ContractOffer, ContractRequest};
use femto_containers::core::deploy::{author_update, component_name, contract_request_for};
use femto_containers::core::engine::{HookReport, HostRegion, HostingEngine};
use femto_containers::core::helpers_impl::{
    coap_ctx_bytes, helper_name_table, standard_helper_ids,
};
use femto_containers::core::hooks::{Hook, HookKind, HookPolicy};
use femto_containers::fleet::node::{RemoteConfig, RemoteNode, FLEET_MTU};
use femto_containers::fleet::{FcFleet, FleetConfig};
use femto_containers::host::{
    CoapFront, CounterId, FcHost, HookEvent, HostConfig, HostError, LiveUpdateService, LocalNode,
    MetricsSnapshot, RebalanceConfig, Rebalancer, ShedPolicy, TelemetryConfig,
};
use femto_containers::kvstore::Scope;
use femto_containers::net::link::LinkConfig;
use femto_containers::net::load::{CoapLoadGen, LoadShape};
use femto_containers::rbpf::program::{FcProgram, ProgramBuilder};
use femto_containers::rtos::platform::{cycle_model, Engine, Platform};
use femto_containers::suit::{SigningKey, Uuid};

const PKT_LEN: usize = 64;

fn program(src: &str) -> FcProgram {
    ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm(src)
        .unwrap()
        .build()
}

fn image(src: &str) -> Vec<u8> {
    program(src).to_bytes()
}

/// A compute-heavy loop body — exercises DRR fairness.
const CRUNCHER_SRC: &str = "\
mov r0, 0
mov r1, 2000
loop: add r0, 7
sub r1, 1
jne r1, 0, loop
and r0, 0xffff
exit";

/// Faults on every event (out-of-bounds load) — faults must be
/// contained identically on both paths.
const FAULTER_SRC: &str = "ldxdw r0, [r10+4096]\nexit";

/// The §8.3-style responder: tenant-store read + CoAP formatting.
fn responder() -> (Vec<u8>, ContractRequest) {
    (
        apps::coap_formatter().to_bytes(),
        apps::coap_formatter_request(),
    )
}

/// A compute-heavy tenant (long loop) — exercises DRR fairness.
fn cruncher() -> (Vec<u8>, ContractRequest) {
    (image(CRUNCHER_SRC), ContractRequest::default())
}

/// A tenant that faults on every event (out-of-bounds load) — faults
/// must be contained identically on both paths.
fn faulter() -> (Vec<u8>, ContractRequest) {
    (image(FAULTER_SRC), ContractRequest::default())
}

/// The shared multi-tenant scenario: 6 CoAP hooks; tenants 0..3 run
/// responders, tenant 4 a cruncher, tenant 5 a faulter. Returns the
/// hooks in tenant order.
fn provision<H>(mut register: impl FnMut(&mut H, Hook, ContractOffer), host: &mut H) -> Vec<Uuid> {
    let mut hooks = Vec::new();
    for t in 0..6u32 {
        let hook = Hook::new(
            &format!("coap-diff-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        hooks.push(hook.id);
        register(host, hook, ContractOffer::helpers(standard_helper_ids()));
    }
    hooks
}

fn tenant_program(t: u32) -> (Vec<u8>, ContractRequest) {
    match t {
        0..=3 => responder(),
        4 => cruncher(),
        _ => faulter(),
    }
}

/// Deterministic event stream shared by both executions.
fn event_stream(n: usize) -> Vec<usize> {
    let mut gen = CoapLoadGen::new(
        (0..6).map(|t| format!("t{t}/temp")).collect(),
        0xd1ff,
        LoadShape::Skewed,
    );
    (0..n)
        .map(|_| {
            let (path, _) = gen.next_request();
            path[1..path.find('/').unwrap()].parse().unwrap()
        })
        .collect()
}

fn event_regions() -> (Vec<u8>, HostRegion) {
    (
        coap_ctx_bytes(PKT_LEN as u32),
        HostRegion::read_write("pkt", vec![0; PKT_LEN]),
    )
}

/// Single-threaded reference: the engine's own `fire_hook`.
fn reference_reports(events: &[usize]) -> Vec<HookReport> {
    let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
    let hooks = provision(
        |e: &mut HostingEngine, h, o| e.register_hook(h, o),
        &mut engine,
    );
    for t in 0..6u32 {
        engine
            .env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
        let (img, req) = tenant_program(t);
        let id = engine.install(&format!("t{t}"), t, &img, req).unwrap();
        engine.attach(id, hooks[t as usize]).unwrap();
    }
    events
        .iter()
        .map(|&t| {
            let (ctx, pkt) = event_regions();
            engine
                .fire_hook(hooks[t], &ctx, std::slice::from_ref(&pkt))
                .unwrap()
        })
        .collect()
}

/// Concurrent host run over the same stream, reports collected per
/// event index.
fn host_reports(events: &[usize], workers: usize) -> Vec<HookReport> {
    host_reports_with(events, workers, TelemetryConfig::default())
}

/// As [`host_reports`], on a host of the given engine flavour — the
/// reference-interpreter (`Engine::Rbpf`) oracle runs through here.
fn host_reports_flavor(events: &[usize], workers: usize, flavor: Engine) -> Vec<HookReport> {
    let config = HostConfig {
        workers,
        queue_capacity: events.len() + 1,
        ..HostConfig::default()
    };
    host_run(events, flavor, config).0
}

/// As [`host_reports`], with an explicit telemetry configuration —
/// the observability on/off differential runs through here.
fn host_reports_with(
    events: &[usize],
    workers: usize,
    telemetry: TelemetryConfig,
) -> Vec<HookReport> {
    host_reports_config(
        events,
        HostConfig {
            workers,
            queue_capacity: events.len() + 1,
            telemetry,
            ..HostConfig::default()
        },
    )
}

/// Common body: provisions the six-tenant fixture on a concurrent host
/// built from `config`, fires `events`, and collects per-event reports.
fn host_reports_config(events: &[usize], config: HostConfig) -> Vec<HookReport> {
    host_run(events, Engine::FemtoContainer, config).0
}

/// As [`host_reports_config`], also returning the host's ledger after
/// the run: its metrics snapshot and each shard's simulated cycles.
fn host_run(
    events: &[usize],
    flavor: Engine,
    config: HostConfig,
) -> (Vec<HookReport>, MetricsSnapshot, Vec<u64>) {
    let mut host = FcHost::new(Platform::CortexM4, flavor, config);
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    for t in 0..6u32 {
        host.env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
        let (img, req) = tenant_program(t);
        let id = host.install(&format!("t{t}"), t, &img, req).unwrap();
        host.attach(id, hooks[t as usize]).unwrap();
    }
    // Fire everything first (events of different hooks run genuinely
    // concurrently), then collect in offer order.
    let receivers: Vec<_> = events
        .iter()
        .map(|&t| {
            let (ctx, pkt) = event_regions();
            host.fire_with_reply(hooks[t], &ctx, std::slice::from_ref(&pkt))
                .unwrap()
        })
        .collect();
    let reports = receivers
        .into_iter()
        .map(|rx| rx.recv().expect("not shed").expect("hook exists"))
        .collect();
    host.quiesce();
    let snap = host.metrics_snapshot();
    assert_eq!(
        snap.counter(CounterId::KeyedOverflow),
        0,
        "a bounded key table dropped a ledger row"
    );
    let sim_cycles = host.shard_reports().iter().map(|r| r.sim_cycles).collect();
    host.shutdown();
    (reports, snap, sim_cycles)
}

#[test]
fn per_event_reports_identical_to_single_threaded_fire_hook() {
    let events = event_stream(300);
    let reference = reference_reports(&events);
    for workers in [1, 4] {
        let concurrent = host_reports(&events, workers);
        assert_eq!(reference.len(), concurrent.len());
        for (i, (a, b)) in reference.iter().zip(&concurrent).enumerate() {
            assert_eq!(
                a, b,
                "event {i} (tenant {}) diverged at {workers} workers",
                events[i]
            );
        }
    }
    // The stream exercised every behaviour class.
    let faults: usize = reference
        .iter()
        .flat_map(|r| &r.executions)
        .filter(|e| e.result.is_err())
        .count();
    assert!(faults > 0, "faulting tenant fired");
    assert!(
        reference.iter().any(|r| r.combined.unwrap_or(0) > 4),
        "responders formatted PDUs"
    );
}

/// The interpreter must be invisible in every per-event report apart
/// from its flavour's cycle model: a host of the `Rbpf` flavour runs
/// the reference interpreter (the oracle) where the default host runs
/// the threaded tier, and once its VM cycles are re-derived from its
/// own op counts through the Femto-Container cycle model its
/// [`HookReport`]s are bit-identical to the default host's — results,
/// op counts, helper cycles, context and region contents, faults — at
/// 1 and 4 workers. The default host also matches the single-threaded
/// reference engine.
#[test]
fn rbpf_flavor_host_matches_default_host_reports() {
    let events = event_stream(300);
    let reference = reference_reports(&events);
    let femto = cycle_model(Platform::CortexM4, Engine::FemtoContainer);
    let rbpf = cycle_model(Platform::CortexM4, Engine::Rbpf);
    for workers in [1, 4] {
        let threaded = host_reports(&events, workers);
        assert_eq!(
            reference, threaded,
            "threaded host diverged from single-threaded reference at {workers} workers"
        );
        let mut oracle = host_reports_flavor(&events, workers, Engine::Rbpf);
        for report in &mut oracle {
            report.cycles = Platform::CortexM4.empty_hook_cycles();
            for exec in &mut report.executions {
                assert_eq!(exec.vm_cycles, rbpf.execution_cycles(&exec.counts));
                exec.vm_cycles = femto.execution_cycles(&exec.counts);
                report.cycles += exec.total_cycles();
            }
        }
        assert_eq!(
            oracle, threaded,
            "threaded host diverged from the reference-interpreter host at {workers} workers"
        );
    }
}

/// The telemetry registry must be invisible to the work it observes:
/// with recording fully disabled the concurrent host returns per-event
/// reports bit-identical to the default (telemetry-on) run — and both
/// match the single-threaded reference — at 1 and 4 workers.
#[test]
fn telemetry_on_and_off_reports_are_bit_identical() {
    let events = event_stream(300);
    let reference = reference_reports(&events);
    let off = TelemetryConfig {
        enabled: false,
        trace_capacity: 0,
    };
    for workers in [1, 4] {
        let with_telemetry = host_reports_with(&events, workers, TelemetryConfig::default());
        let without = host_reports_with(&events, workers, off);
        assert_eq!(
            with_telemetry, without,
            "telemetry on/off diverged at {workers} workers"
        );
        assert_eq!(
            reference, without,
            "telemetry-off run diverged from the reference at {workers} workers"
        );
    }
}

/// `TelemetryConfig::enabled = false` turns off only the telemetry
/// extras (per-key latency, the shed table, the trace ring): the
/// dispatch ledger a telemetry-off host keeps is exactly the one a
/// telemetry-on host keeps for the same run.
#[test]
fn telemetry_off_keeps_the_whole_dispatch_ledger() {
    let events = event_stream(300);
    let off = TelemetryConfig {
        enabled: false,
        ..TelemetryConfig::default()
    };
    let tenants = |s: &MetricsSnapshot| -> Vec<(u32, u64, u64)> {
        s.tenants
            .iter()
            .map(|t| (t.tenant, t.executions, t.insns))
            .collect()
    };
    for workers in [1, 4] {
        let config = |telemetry| HostConfig {
            workers,
            queue_capacity: events.len() + 1,
            telemetry,
            ..HostConfig::default()
        };
        let (_, on, on_cycles) = host_run(
            &events,
            Engine::FemtoContainer,
            config(TelemetryConfig::default()),
        );
        let (_, off, off_cycles) = host_run(&events, Engine::FemtoContainer, config(off));
        for id in [CounterId::Dispatched, CounterId::Insns, CounterId::Faults] {
            assert_eq!(
                off.counter(id),
                on.counter(id),
                "{id:?} at {workers} workers"
            );
        }
        assert_eq!(on.counter(CounterId::Dispatched), events.len() as u64);
        assert!(on.counter(CounterId::Faults) > 0, "faulting tenant fired");
        assert_eq!(off.latency.count(), on.latency.count());
        assert_eq!(on.latency.count(), events.len() as u64);
        assert_eq!(tenants(&off), tenants(&on));
        assert_eq!(on.tenants.len(), 6);
        assert_eq!(
            off_cycles, on_cycles,
            "per-shard sim cycles at {workers} workers"
        );
        assert!(on_cycles.iter().sum::<u64>() > 0);
    }
}

#[test]
fn coap_front_responses_match_reference_pdus() {
    let events = event_stream(60);
    let reference = reference_reports(&events);

    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            ..HostConfig::default()
        },
    );
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    let mut front = CoapFront::new().with_pkt_len(PKT_LEN);
    for t in 0..6u32 {
        host.env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
        let (img, req) = tenant_program(t);
        let id = host.install(&format!("t{t}"), t, &img, req).unwrap();
        host.attach(id, hooks[t as usize]).unwrap();
        front.add_route(&format!("t{t}/temp"), hooks[t as usize]);
    }
    for (i, &t) in events.iter().enumerate() {
        let mut req = femto_containers::net::coap::Message::request(
            femto_containers::net::coap::Code::Get,
            i as u16,
            &[],
        );
        req.set_path(&format!("t{t}/temp"));
        let reply = front.dispatch_sync(&host, &req).unwrap();
        assert_eq!(reply.report, reference[i], "event {i}");
        if t <= 3 {
            let msg = reply.message.expect("responder events parse");
            assert_eq!(msg.code, femto_containers::net::coap::Code::Content);
            assert_eq!(msg.payload, (2000 + t).to_string().as_bytes());
        }
    }
    host.shutdown();
}

/// The batched dispatch path (one queue round-trip per hook per batch,
/// grouped execution through `fire_hook_batch`) must produce per-event
/// reports **bit-identical** to the single-threaded `fire_hook`
/// reference — same guarantee the single-event path gives.
#[test]
fn batched_dispatch_reports_identical_to_single_fire_hook() {
    let events = event_stream(300);
    let reference = reference_reports(&events);
    for workers in [1, 4] {
        let mut host = FcHost::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers,
                queue_capacity: events.len() + 1,
                ..HostConfig::default()
            },
        );
        let hooks = provision(
            |h: &mut FcHost, hook, o| h.register_hook(hook, o),
            &mut host,
        );
        for t in 0..6u32 {
            host.env()
                .stores()
                .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
                .unwrap();
            let (img, req) = tenant_program(t);
            let id = host.install(&format!("t{t}"), t, &img, req).unwrap();
            host.attach(id, hooks[t as usize]).unwrap();
        }
        // Offer the stream in mixed-hook batches of 17: per batch,
        // group by hook (preserving each hook's order) and ride one
        // queue round-trip per group.
        let mut receivers: Vec<Option<std::sync::mpsc::Receiver<_>>> =
            (0..events.len()).map(|_| None).collect();
        for chunk_start in (0..events.len()).step_by(17) {
            let chunk = &events[chunk_start..events.len().min(chunk_start + 17)];
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (off, &t) in chunk.iter().enumerate() {
                match groups.iter_mut().find(|(tenant, _)| *tenant == t) {
                    Some((_, idxs)) => idxs.push(chunk_start + off),
                    None => groups.push((t, vec![chunk_start + off])),
                }
            }
            for (t, idxs) in groups {
                let batch: Vec<HookEvent> = idxs
                    .iter()
                    .map(|_| {
                        let (ctx, pkt) = event_regions();
                        HookEvent {
                            ctx,
                            extra: vec![pkt],
                        }
                    })
                    .collect();
                let rxs = host.fire_batch_with_reply(hooks[t], batch).unwrap();
                for (i, rx) in idxs.into_iter().zip(rxs) {
                    receivers[i] = Some(rx);
                }
            }
        }
        for (i, rx) in receivers.into_iter().enumerate() {
            let report = rx
                .expect("every event offered")
                .recv()
                .expect("not shed")
                .expect("hook exists");
            assert_eq!(
                reference[i], report,
                "event {i} (tenant {}) diverged at {workers} workers",
                events[i]
            );
        }
        host.shutdown();
    }
}

/// `CoapFront::dispatch_batch` end to end: batched replies arrive in
/// request order and match the single-threaded reference bit for bit.
#[test]
fn coap_batch_replies_match_reference_in_request_order() {
    let events = event_stream(90);
    let reference = reference_reports(&events);
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: 256,
            ..HostConfig::default()
        },
    );
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    let mut front = CoapFront::new().with_pkt_len(PKT_LEN);
    for t in 0..6u32 {
        host.env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
        let (img, req) = tenant_program(t);
        let id = host.install(&format!("t{t}"), t, &img, req).unwrap();
        host.attach(id, hooks[t as usize]).unwrap();
        front.add_route(&format!("t{t}/temp"), hooks[t as usize]);
    }
    let mut served = 0usize;
    for (chunk_start, chunk) in events.chunks(30).enumerate() {
        let requests: Vec<femto_containers::net::coap::Message> = chunk
            .iter()
            .enumerate()
            .map(|(off, &t)| {
                let mut req = femto_containers::net::coap::Message::request(
                    femto_containers::net::coap::Code::Get,
                    (chunk_start * 30 + off) as u16,
                    &[],
                );
                req.set_path(&format!("t{t}/temp"));
                req
            })
            .collect();
        let replies = front.dispatch_batch(&host, &requests);
        assert_eq!(replies.len(), chunk.len());
        for (off, reply) in replies.into_iter().enumerate() {
            let i = chunk_start * 30 + off;
            let reply = reply.expect("routed and executed");
            assert_eq!(reply.report, reference[i], "event {i}");
            served += 1;
        }
    }
    assert_eq!(served, events.len());
    // Unrouted requests fail their own slot without harming the batch.
    let mut good = femto_containers::net::coap::Message::request(
        femto_containers::net::coap::Code::Get,
        999,
        &[],
    );
    good.set_path("t0/temp");
    let mut bad = good.clone();
    bad.set_path("no/such/resource");
    let replies = front.dispatch_batch(&host, &[bad, good]);
    assert!(matches!(replies[0], Err(HostError::UnknownHook(_))));
    assert!(replies[1].is_ok());
    host.shutdown();
}

/// Migrating a hook mid-stream must not change a single per-event
/// report: attachment order, container identity and the shared stores
/// all travel with it.
#[test]
fn migrated_hook_reports_stay_identical_to_reference() {
    let events = event_stream(240);
    let reference = reference_reports(&events);
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: events.len() + 1,
            ..HostConfig::default()
        },
    );
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    for t in 0..6u32 {
        host.env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
        let (img, req) = tenant_program(t);
        let id = host.install(&format!("t{t}"), t, &img, req).unwrap();
        host.attach(id, hooks[t as usize]).unwrap();
    }
    let mut reports = Vec::with_capacity(events.len());
    for (i, &t) in events.iter().enumerate() {
        // Every 60 events, forcibly migrate the hottest-by-index hooks
        // around the ring — with events still queued behind them.
        if i % 60 == 30 {
            for (k, &hook) in hooks.iter().enumerate() {
                let to = (host.shard_of_hook(hook).unwrap() + k + 1) % host.shard_count();
                host.migrate_hook(hook, to).unwrap();
            }
        }
        let (ctx, pkt) = event_regions();
        reports.push(
            host.fire_sync(hooks[t], &ctx, std::slice::from_ref(&pkt))
                .unwrap(),
        );
    }
    assert_eq!(reference, reports);
    assert!(host.metrics_snapshot().counter(CounterId::Migrations) > 0);
    host.shutdown();
}

/// The bugfix ride-along: *after* a hook has been rebalanced, a
/// replacement attach (and every other lifecycle op) must route to the
/// hook's **current** shard, not its registration-time one.
#[test]
fn attach_after_rebalance_routes_to_current_shard() {
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            ..HostConfig::default()
        },
    );
    let hook = Hook::new("rb-route", HookKind::Custom, HookPolicy::Sum);
    let hook_id = hook.id;
    host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
    let original = host.shard_of_hook(hook_id).unwrap();
    let first = host
        .install(
            "first",
            1,
            &image("mov r0, 40\nexit"),
            ContractRequest::default(),
        )
        .unwrap();
    host.attach(first, hook_id).unwrap();
    let target = (original + 2) % 4;
    host.migrate_hook(hook_id, target).unwrap();

    // A brand-new container attaching to the migrated hook must land
    // on the current shard and join the existing attachment order.
    let second = host
        .install(
            "second",
            2,
            &image("mov r0, 2\nexit"),
            ContractRequest::default(),
        )
        .unwrap();
    host.attach(second, hook_id).unwrap();
    assert_eq!(host.shard_of(second), Some(target), "new attach follows");
    assert_eq!(
        host.fire_sync(hook_id, &[], &[]).unwrap().combined,
        Some(42),
        "both containers fire on the current shard, in order"
    );

    // Replacement attach: detach and re-attach the original container.
    host.detach(first, hook_id).unwrap();
    host.attach(first, hook_id).unwrap();
    assert_eq!(
        host.fire_sync(hook_id, &[], &[]).unwrap().combined,
        Some(42),
        "re-attach lands on the current shard"
    );

    // Re-registering the hook id keeps it on the rebalanced shard.
    host.register_hook(
        Hook::new("rb-route", HookKind::Custom, HookPolicy::Sum),
        ContractOffer::helpers(standard_helper_ids()),
    );
    assert_eq!(host.shard_of_hook(hook_id), Some(target));
    host.shutdown();
}

/// Seeded lifecycle/rebalance interleaving: migrations race installs,
/// attaches, detaches, removes, batched and single fires through the
/// shard lanes in a reproducible order. The host must stay coherent —
/// no panics, every accepted event accounted, errors only from the
/// expected set — while the rebalancer shuffles hook placement
/// underneath.
#[test]
fn seeded_lifecycle_rebalance_interleaving_stays_coherent() {
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: 64,
            shed: ShedPolicy::DropOldest,
            ..HostConfig::default()
        },
    );
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    let mut rebalancer = Rebalancer::new(RebalanceConfig {
        min_balance: 0.95,
        sustain: 1,
        cooldown: 0,
        ..RebalanceConfig::default()
    });
    let mut rng = 0x7eba_1a9c_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut live: Vec<u32> = Vec::new();
    let mut attempts = 0u64;
    for step in 0..600 {
        match next() % 12 {
            0 | 1 => {
                let t = (next() % 6) as u32;
                let (img, req) = tenant_program(t);
                let id = host.install(&format!("s{step}"), t, &img, req).unwrap();
                live.push(id);
            }
            2 | 3 => {
                if let Some(&id) = live.get(next() as usize % live.len().max(1)) {
                    let hook = hooks[next() as usize % hooks.len()];
                    host.attach(id, hook).expect("attach of verified image");
                }
            }
            4 => {
                if let Some(&id) = live.get(next() as usize % live.len().max(1)) {
                    let hook = hooks[next() as usize % hooks.len()];
                    match host.detach(id, hook) {
                        Ok(())
                        | Err(HostError::Engine(
                            femto_containers::core::EngineError::NotAttached,
                        )) => {}
                        other => panic!("unexpected detach outcome: {other:?}"),
                    }
                }
            }
            5 => {
                if !live.is_empty() {
                    let idx = next() as usize % live.len();
                    let id = live.swap_remove(idx);
                    assert!(host.remove(id), "live container removes");
                }
            }
            // Explicit migration with events possibly in flight.
            6 => {
                let hook = hooks[next() as usize % hooks.len()];
                let to = next() as usize % host.shard_count();
                host.migrate_hook(hook, to).expect("migration of live hook");
            }
            // Rebalancer observation (may or may not move hooks).
            7 => {
                rebalancer.observe(&host).expect("observation");
            }
            // Batched fire (sheds are legal under DropOldest).
            8 | 9 => {
                let hook = hooks[next() as usize % hooks.len()];
                let n = 1 + next() as usize % 8;
                let events: Vec<HookEvent> = (0..n)
                    .map(|_| {
                        let (ctx, pkt) = event_regions();
                        HookEvent {
                            ctx,
                            extra: vec![pkt],
                        }
                    })
                    .collect();
                attempts += n as u64;
                host.fire_batch(hook, events).expect("known hook");
            }
            // Single async fire.
            10 => {
                let hook = hooks[next() as usize % hooks.len()];
                let (ctx, pkt) = event_regions();
                attempts += 1;
                match host.fire(hook, &ctx, std::slice::from_ref(&pkt)) {
                    Ok(_) | Err(HostError::Shed) => {}
                    Err(e) => panic!("unexpected fire error: {e:?}"),
                }
            }
            // Sync fire: must complete (or report displacement).
            _ => {
                let hook = hooks[next() as usize % hooks.len()];
                let (ctx, pkt) = event_regions();
                attempts += 1;
                match host.fire_sync(hook, &ctx, std::slice::from_ref(&pkt)) {
                    Ok(_) | Err(HostError::Shed) => {}
                    Err(e) => panic!("unexpected fire_sync error: {e:?}"),
                }
            }
        }
    }
    host.quiesce();
    let snap = host.metrics_snapshot();
    let dispatched = snap.counter(CounterId::Dispatched);
    let shed = snap.counter(CounterId::Shed);
    assert_eq!(dispatched + shed, attempts, "event accounting balances");
    // The host still works after the storm — on whatever shard the
    // hook ended up on.
    let probe = host
        .install(
            "probe",
            1,
            &image("mov r0, 99\nexit"),
            ContractRequest::default(),
        )
        .unwrap();
    host.attach(probe, hooks[0]).unwrap();
    let r = host.fire_sync(hooks[0], &[], &[]).unwrap();
    let probe_exec = r.executions.iter().find(|e| e.container == probe).unwrap();
    assert_eq!(probe_exec.result, Ok(99));
    host.shutdown();
}

/// A skewed 80/20 tenant mix whose hot hooks collide on two shards:
/// the rebalancer must lift the window balance while every event keeps
/// its single-device outcome.
#[test]
fn rebalancer_lifts_skewed_balance_with_identical_outcomes() {
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: 4096,
            ..HostConfig::default()
        },
    );
    // Eight equal-cost responder hooks round-robin over four shards:
    // s0={0,4}, s1={1,5}, s2={2,6}, s3={3,7}. Hot set {0,1,4,5} takes
    // 80% of the volume, so shards 0 and 1 carry 4x the load of 2/3.
    let mut hooks = Vec::new();
    for t in 0..8u32 {
        let hook = Hook::new(
            &format!("rb-skew-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        hooks.push(hook.id);
        host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        host.env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
        let (img, req) = responder();
        let id = host.install(&format!("t{t}"), t, &img, req).unwrap();
        host.attach(id, hooks[t as usize]).unwrap();
    }
    let mut gen = femto_containers::net::load::CoapLoadGen::weighted(
        (0..8).map(|t| format!("t{t}/temp")).collect(),
        0xba1a,
        &[4.0, 4.0, 1.0, 1.0, 4.0, 4.0, 1.0, 1.0],
    );
    let mut rebalancer = Rebalancer::new(RebalanceConfig {
        min_balance: 0.9,
        sustain: 1,
        cooldown: 0,
        min_window_cycles: 1_000,
        max_moves: 2,
    });
    let mut first_balance = None;
    let mut last_balance = 0.0;
    for _round in 0..8 {
        for _ in 0..1200 {
            let (path, _) = gen.next_request();
            let t: usize = path[1..path.find('/').unwrap()].parse().unwrap();
            let (ctx, pkt) = event_regions();
            let report = host
                .fire_sync(hooks[t], &ctx, std::slice::from_ref(&pkt))
                .unwrap();
            // Outcomes stay single-device wherever the hook lives: the
            // responder formats its tenant's seeded value.
            assert_eq!(
                report.combined.map(|len| len > 4),
                Some(true),
                "tenant {t} formatted a PDU"
            );
        }
        host.quiesce();
        let report = rebalancer.observe(&host).unwrap();
        first_balance.get_or_insert(report.balance);
        last_balance = report.balance;
    }
    let first = first_balance.unwrap();
    assert!(
        host.metrics_snapshot().counter(CounterId::Migrations) > 0,
        "rebalancer moved hooks"
    );
    assert!(first < 0.7, "static placement is imbalanced: {first:.3}");
    assert!(
        last_balance >= 0.9,
        "colliding hot hooks separated: {first:.3} -> {last_balance:.3}"
    );
    host.shutdown();
}

#[test]
fn concurrent_producers_all_dispatch() {
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: 4096,
            ..HostConfig::default()
        },
    );
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    for t in 0..6u32 {
        let (img, req) = tenant_program(t);
        let id = host.install(&format!("t{t}"), t, &img, req).unwrap();
        host.attach(id, hooks[t as usize]).unwrap();
    }
    let per_thread = 150;
    std::thread::scope(|scope| {
        for p in 0..3usize {
            let host = &host;
            let hooks = &hooks;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let (ctx, pkt) = event_regions();
                    let hook = hooks[(p + i) % hooks.len()];
                    host.fire(hook, &ctx, std::slice::from_ref(&pkt)).unwrap();
                }
            });
        }
    });
    host.quiesce();
    assert_eq!(
        host.metrics_snapshot().counter(CounterId::Dispatched),
        3 * per_thread as u64
    );
    host.shutdown();
}

/// Seeded lifecycle/event interleaving: installs, attaches, detaches,
/// removes and fires race through the shard control/event lanes in a
/// reproducible order. The host must stay coherent — no panics, every
/// accepted event accounted, errors only from the expected set.
#[test]
fn seeded_install_execute_interleaving_stays_coherent() {
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: 64,
            shed: ShedPolicy::DropOldest,
            ..HostConfig::default()
        },
    );
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    let mut rng = 0x5eed_5eed_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut live: Vec<u32> = Vec::new();
    let mut attempts = 0u64;
    let mut synced = 0u64;
    for step in 0..600 {
        match next() % 10 {
            // Install a container of a random behaviour class.
            0 | 1 => {
                let t = (next() % 6) as u32;
                let (img, req) = tenant_program(t);
                let id = host.install(&format!("s{step}"), t, &img, req).unwrap();
                live.push(id);
            }
            // Attach a live container to a random hook.
            2 | 3 => {
                if let Some(&id) = live.get(next() as usize % live.len().max(1)) {
                    let hook = hooks[next() as usize % hooks.len()];
                    host.attach(id, hook).expect("attach of verified image");
                }
            }
            // Detach (may legitimately report NotAttached).
            4 => {
                if let Some(&id) = live.get(next() as usize % live.len().max(1)) {
                    let hook = hooks[next() as usize % hooks.len()];
                    match host.detach(id, hook) {
                        Ok(())
                        | Err(HostError::Engine(
                            femto_containers::core::EngineError::NotAttached,
                        )) => {}
                        other => panic!("unexpected detach outcome: {other:?}"),
                    }
                }
            }
            // Remove while its events may still be queued.
            5 => {
                if !live.is_empty() {
                    let idx = next() as usize % live.len();
                    let id = live.swap_remove(idx);
                    assert!(host.remove(id), "live container removes");
                }
            }
            // Async fire (sheds are legal under DropOldest).
            6..=8 => {
                let hook = hooks[next() as usize % hooks.len()];
                let (ctx, pkt) = event_regions();
                attempts += 1;
                match host.fire(hook, &ctx, std::slice::from_ref(&pkt)) {
                    Ok(_) | Err(HostError::Shed) => {}
                    Err(e) => panic!("unexpected fire error: {e:?}"),
                }
            }
            // Sync fire: must complete (or report displacement).
            _ => {
                let hook = hooks[next() as usize % hooks.len()];
                let (ctx, pkt) = event_regions();
                attempts += 1;
                match host.fire_sync(hook, &ctx, std::slice::from_ref(&pkt)) {
                    Ok(_) => synced += 1,
                    Err(HostError::Shed) => {}
                    Err(e) => panic!("unexpected fire_sync error: {e:?}"),
                }
            }
        }
    }
    host.quiesce();
    let snap = host.metrics_snapshot();
    let dispatched = snap.counter(CounterId::Dispatched);
    let shed = snap.counter(CounterId::Shed);
    // Every attempt either executed, was rejected at the queue, or was
    // displaced after acceptance — nothing vanishes.
    assert_eq!(dispatched + shed, attempts, "event accounting balances");
    assert!(synced > 0, "sync path exercised");
    // The host still works after the storm.
    let probe = host
        .install(
            "probe",
            1,
            &image("mov r0, 99\nexit"),
            ContractRequest::default(),
        )
        .unwrap();
    host.attach(probe, hooks[0]).unwrap();
    let r = host.fire_sync(hooks[0], &[], &[]).unwrap();
    let probe_exec = r.executions.iter().find(|e| e.container == probe).unwrap();
    assert_eq!(probe_exec.result, Ok(99));
    host.shutdown();
}

/// The program a component runs in deploy version `v` — rotating
/// through all three behaviour classes so live updates change what a
/// hook does, visibly in the reports.
fn deploy_program(t: u32, version: u64) -> FcProgram {
    match (t as u64 + version) % 3 {
        0 => apps::coap_formatter(),
        1 => program(CRUNCHER_SRC),
        _ => program(FAULTER_SRC),
    }
}

/// Live deploys through the shard control lane, in-band rebalance
/// migrations and batched fires under one seed: per-event reports must
/// stay **bit-identical** to a single-threaded engine applying the
/// same lifecycle sequence (same container ids, same replace chain),
/// with zero caller-driven `observe()` calls — the host triggers its
/// own observations from the dispatch count.
#[test]
fn live_deploys_with_inband_rebalance_stay_bit_identical() {
    let maintainer = SigningKey::from_seed(b"diff-maintainer");
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: 4096,
            rebalance_interval: 100,
            rebalance: RebalanceConfig {
                min_balance: 0.95,
                sustain: 1,
                cooldown: 0,
                min_window_cycles: 1_000,
                max_moves: 2,
            },
            ..HostConfig::default()
        },
    );
    let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
    let hooks = provision(
        |h: &mut FcHost, hook, o| h.register_hook(hook, o),
        &mut host,
    );
    let ref_hooks = provision(
        |e: &mut HostingEngine, h, o| e.register_hook(h, o),
        &mut engine,
    );
    assert_eq!(hooks, ref_hooks, "name-derived hook ids agree");
    let mut updates = LiveUpdateService::new();
    for t in 0..6u32 {
        updates.provision_tenant(format!("t{t}").as_bytes(), maintainer.verifying_key(), t);
        for env in [host.env(), engine.env()] {
            env.stores()
                .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
                .unwrap();
        }
    }

    let events = event_stream(1200);
    let mut seq = [0u64; 6];
    let mut ref_installed: [Option<u32>; 6] = [None; 6];
    let mut next_ref_id = 1u32;
    let mut reference: Vec<HookReport> = Vec::with_capacity(events.len());
    let mut receivers: Vec<Option<std::sync::mpsc::Receiver<_>>> =
        (0..events.len()).map(|_| None).collect();

    for (round, chunk) in events.chunks(100).enumerate() {
        // Deploy between rounds (queues are drained, so the control
        // lane's command order matches the reference's apply order
        // exactly), cycling components and behaviour classes.
        host.quiesce();
        for &t in &[round % 6, (round + 3) % 6] {
            let t = t as u32;
            seq[t as usize] += 1;
            let version = seq[t as usize];
            let app = deploy_program(t, version);
            let uri = format!("t{t}-v{version}");
            let (envelope, payload) = author_update(
                &app,
                hooks[t as usize],
                version,
                &uri,
                &maintainer,
                format!("t{t}").as_bytes(),
            );
            updates.stage_payload(&uri, &payload);
            let report = updates.apply(&host, &envelope).unwrap();
            // The reference engine applies the identical mutation.
            let id = engine
                .deploy_swap(
                    next_ref_id,
                    &component_name(hooks[t as usize]),
                    t,
                    &payload,
                    contract_request_for(&app),
                    Some(hooks[t as usize]),
                    ref_installed[t as usize],
                )
                .unwrap();
            assert_eq!(report.container, id, "host and reference agree on ids");
            assert!(report.attached);
            next_ref_id += 1;
            ref_installed[t as usize] = Some(id);
        }
        // An explicit migration racing the fresh deploy: the deployed
        // container must travel with its hook, not strand behind.
        let moved = hooks[round % 6];
        let to = (host.shard_of_hook(moved).unwrap() + 1) % host.shard_count();
        host.migrate_hook(moved, to).unwrap();
        if let Some(c) = ref_installed[round % 6] {
            assert_eq!(
                host.shard_of(c),
                host.shard_of_hook(moved),
                "deployed container follows its migrated hook"
            );
        }

        // Batched fires over the chunk, grouped by hook; the reference
        // fires the same stream in offer order.
        let base = round * 100;
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (off, &t) in chunk.iter().enumerate() {
            match groups.iter_mut().find(|(tenant, _)| *tenant == t) {
                Some((_, idxs)) => idxs.push(base + off),
                None => groups.push((t, vec![base + off])),
            }
        }
        for (t, idxs) in groups {
            let batch: Vec<HookEvent> = idxs
                .iter()
                .map(|_| {
                    let (ctx, pkt) = event_regions();
                    HookEvent {
                        ctx,
                        extra: vec![pkt],
                    }
                })
                .collect();
            let rxs = host.fire_batch_with_reply(hooks[t], batch).unwrap();
            for (i, rx) in idxs.into_iter().zip(rxs) {
                receivers[i] = Some(rx);
            }
        }
        for &t in chunk {
            let (ctx, pkt) = event_regions();
            reference.push(
                engine
                    .fire_hook(hooks[t], &ctx, std::slice::from_ref(&pkt))
                    .unwrap(),
            );
        }
    }

    // No event lost or double-executed: every receiver resolves exactly
    // once, and the dispatch counter equals the offered stream.
    for (i, rx) in receivers.into_iter().enumerate() {
        let report = rx
            .expect("every event offered")
            .recv()
            .expect("event neither lost nor shed")
            .expect("hook exists");
        assert_eq!(
            reference[i], report,
            "event {i} (tenant {}) diverged",
            events[i]
        );
    }
    host.quiesce();
    let snap = host.metrics_snapshot();
    assert_eq!(snap.counter(CounterId::Dispatched), events.len() as u64);
    assert_eq!(snap.counter(CounterId::Shed), 0);
    assert_eq!(
        snap.counter(CounterId::Deploys),
        24,
        "two deploys per round, twelve rounds"
    );
    assert!(
        snap.counter(CounterId::InbandObservations) > 0,
        "the host observed in-band, with no caller-driven observe()"
    );
    assert!(snap.counter(CounterId::Migrations) > 0);
    host.shutdown();
}

/// A deploy racing queued events and migrations — **without**
/// quiescing: every accepted event executes exactly once, against
/// exactly one of the component's containers (old or new, never both,
/// never neither), and the freshly deployed container never strands on
/// the wrong shard.
#[test]
fn deploy_racing_queued_events_and_migrations_loses_nothing() {
    let maintainer = SigningKey::from_seed(b"race-maintainer");
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 4,
            queue_capacity: 8192,
            rebalance_interval: 50,
            rebalance: RebalanceConfig {
                min_balance: 0.95,
                sustain: 1,
                cooldown: 0,
                min_window_cycles: 100,
                max_moves: 2,
            },
            ..HostConfig::default()
        },
    );
    let hook = Hook::new("race-deploy", HookKind::Custom, HookPolicy::First);
    let hook_id = hook.id;
    host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
    let mut updates = LiveUpdateService::new();
    updates.provision_tenant(b"racer", maintainer.verifying_key(), 1);

    let deploy = |updates: &mut LiveUpdateService, host: &FcHost, version: u64| {
        let app = program(CRUNCHER_SRC);
        let uri = format!("race-v{version}");
        let (envelope, payload) =
            author_update(&app, hook_id, version, &uri, &maintainer, b"racer");
        updates.stage_payload(&uri, &payload);
        updates.apply(host, &envelope).unwrap().container
    };

    let mut deployed = vec![deploy(&mut updates, &host, 1)];
    let mut receivers = Vec::new();
    let mut offered = 0u64;
    for wave in 0..8u64 {
        let events: Vec<HookEvent> = (0..60).map(|_| HookEvent::default()).collect();
        offered += 60;
        receivers.extend(host.fire_batch_with_reply(hook_id, events).unwrap());
        // Deploy mid-flight: the swap rides the control lane while the
        // wave is still draining.
        deployed.push(deploy(&mut updates, &host, wave + 2));
        // And a migration racing the deploy it just serialized behind.
        host.migrate_hook(hook_id, (wave as usize) % host.shard_count())
            .unwrap();
        assert_eq!(
            host.shard_of(*deployed.last().unwrap()),
            host.shard_of_hook(hook_id),
            "fresh container travels with its hook"
        );
        let events: Vec<HookEvent> = (0..60).map(|_| HookEvent::default()).collect();
        offered += 60;
        receivers.extend(host.fire_batch_with_reply(hook_id, events).unwrap());
    }
    host.quiesce();
    for rx in receivers {
        let report = rx
            .recv()
            .expect("event neither lost nor shed")
            .expect("hook exists");
        assert_eq!(
            report.executions.len(),
            1,
            "atomic swap: exactly one container serves every event"
        );
        assert!(
            deployed.contains(&report.executions[0].container),
            "events only ever see a deployed version"
        );
    }
    let snap = host.metrics_snapshot();
    assert_eq!(
        snap.counter(CounterId::Dispatched),
        offered,
        "every accepted event executed exactly once"
    );
    assert_eq!(snap.counter(CounterId::Shed), 0);
    assert_eq!(snap.counter(CounterId::Deploys), 9);
    assert!(snap.counter(CounterId::Migrations) > 0);
    host.shutdown();
}

/// The app a fleet-differential tenant runs: the §8.3 responder for
/// tenants 0..3, the cruncher for 4, the faulter for 5 — all three
/// behaviour classes (formatted PDUs, heavy compute, contained faults)
/// must survive the wire codec bit-identically.
fn fleet_tenant_app(t: u32) -> FcProgram {
    match t {
        0..=3 => apps::coap_formatter(),
        4 => program(CRUNCHER_SRC),
        _ => program(FAULTER_SRC),
    }
}

/// Signed v`version` updates for all 6 fleet-differential tenants —
/// authored once, so the reference host and the fleet node apply
/// byte-identical envelopes in the same order (container ids agree by
/// construction).
fn fleet_updates(maintainer: &SigningKey, hooks: &[Uuid], version: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..6u32)
        .map(|t| {
            author_update(
                &fleet_tenant_app(t + version as u32 - 1),
                hooks[t as usize],
                version,
                &format!("fd-t{t}-v{version}"),
                maintainer,
                format!("fd-t{t}").as_bytes(),
            )
        })
        .collect()
}

/// The bare-host reference for the fleet differential: same config,
/// same hooks, same seeded stores, same SUIT deploys.
fn fleet_reference(maintainer: &SigningKey) -> (FcHost, LiveUpdateService) {
    let host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 2,
            ..HostConfig::default()
        },
    );
    let mut updates = LiveUpdateService::new();
    for t in 0..6u32 {
        updates.provision_tenant(format!("fd-t{t}").as_bytes(), maintainer.verifying_key(), t);
        host.env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
        host.register_hook(
            Hook::new(
                &format!("fleet-diff-t{t}"),
                HookKind::CoapRequest,
                HookPolicy::First,
            ),
            ContractOffer::helpers(standard_helper_ids()),
        );
    }
    (host, updates)
}

/// A 1-node fleet whose single node sits behind the codec adapter on a
/// link with the given failure profile, provisioned identically to the
/// reference.
fn one_node_fleet(maintainer: &SigningKey, link: LinkConfig) -> FcFleet {
    let mut node = LocalNode::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 2,
            ..HostConfig::default()
        },
    );
    for t in 0..6u32 {
        node.updates_mut().provision_tenant(
            format!("fd-t{t}").as_bytes(),
            maintainer.verifying_key(),
            t,
        );
        node.host()
            .env()
            .stores()
            .store(0, t, Scope::Tenant, 1, 2000 + t as i64)
            .unwrap();
    }
    let remote = RemoteNode::new(
        node,
        RemoteConfig {
            link,
            max_events_per_message: 4,
            max_retransmit: 8,
            ..RemoteConfig::default()
        },
    );
    let mut fleet = FcFleet::new(FleetConfig::default());
    fleet.add_node(Box::new(remote)).unwrap();
    for t in 0..6u32 {
        fleet
            .register_hook(
                Hook::new(
                    &format!("fleet-diff-t{t}"),
                    HookKind::CoapRequest,
                    HookPolicy::First,
                ),
                ContractOffer::helpers(standard_helper_ids()),
            )
            .unwrap();
    }
    fleet
}

/// The fleet acceptance differential, lossless half: a 1-node fleet
/// routed through the codec adapter over a **lossless** link — SUIT
/// deploys, single dispatches and mid-stream re-deploys included —
/// produces per-event reports **bit-identical** to a bare `FcHost`
/// applying the same byte-identical updates.
#[test]
fn one_node_fleet_over_codec_adapter_is_bit_identical_to_bare_host() {
    let maintainer = SigningKey::from_seed(b"fleet-diff-maintainer");
    let hooks: Vec<Uuid> = (0..6)
        .map(|t| {
            Hook::new(
                &format!("fleet-diff-t{t}"),
                HookKind::CoapRequest,
                HookPolicy::First,
            )
            .id
        })
        .collect();
    let (mut host, mut updates) = fleet_reference(&maintainer);
    let mut fleet = one_node_fleet(
        &maintainer,
        LinkConfig {
            mtu: FLEET_MTU,
            ..LinkConfig::default()
        },
    );
    for (t, (envelope, payload)) in fleet_updates(&maintainer, &hooks, 1).iter().enumerate() {
        updates.stage_payload(&format!("fd-t{t}-v1"), payload);
        let reference = updates.apply(&host, envelope).unwrap();
        let (_, through_fleet) = fleet.deploy(envelope, payload).unwrap();
        assert_eq!(
            reference.container, through_fleet.container,
            "both sides assign the same container ids"
        );
    }
    let events = event_stream(300);
    for (i, &t) in events.iter().enumerate() {
        // Re-deploy two components mid-stream, through both paths.
        if i == 150 {
            for (t, (envelope, payload)) in fleet_updates(&maintainer, &hooks, 2)
                .iter()
                .enumerate()
                .take(2)
            {
                updates.stage_payload(&format!("fd-t{t}-v2"), payload);
                updates.apply(&host, envelope).unwrap();
                fleet.deploy(envelope, payload).unwrap();
            }
        }
        let (ctx, pkt) = event_regions();
        let reference = host
            .fire_sync(hooks[t], &ctx, std::slice::from_ref(&pkt))
            .unwrap();
        let (ctx, pkt) = event_regions();
        let through_fleet = fleet
            .dispatch(
                hooks[t],
                HookEvent {
                    ctx,
                    extra: vec![pkt],
                },
            )
            .unwrap();
        assert_eq!(
            reference, through_fleet,
            "event {i} (tenant {t}) diverged through the codec adapter"
        );
    }
    // The stream exercised formatted PDUs and contained faults.
    host.shutdown();
}

/// The fleet acceptance differential, lossy half: the same 1-node
/// fleet over a link that drops, duplicates and reorders. Reports stay
/// bit-identical — and the node's own ledger proves **no event was
/// lost and none double-executed** (a double execution would inflate
/// `dispatched` past the offered count; a loss would time out or shed).
#[test]
fn lossy_one_node_fleet_loses_nothing_and_doubles_nothing() {
    let maintainer = SigningKey::from_seed(b"fleet-diff-maintainer");
    let hooks: Vec<Uuid> = (0..6)
        .map(|t| {
            Hook::new(
                &format!("fleet-diff-t{t}"),
                HookKind::CoapRequest,
                HookPolicy::First,
            )
            .id
        })
        .collect();
    let (mut host, mut updates) = fleet_reference(&maintainer);
    let mut fleet = one_node_fleet(
        &maintainer,
        LinkConfig {
            loss: 0.15,
            duplicate: 0.2,
            jitter_us: 50_000,
            mtu: FLEET_MTU,
            seed: 0xd1ff_f1ee,
            ..LinkConfig::default()
        },
    );
    for (t, (envelope, payload)) in fleet_updates(&maintainer, &hooks, 1).iter().enumerate() {
        updates.stage_payload(&format!("fd-t{t}-v1"), payload);
        updates.apply(&host, envelope).unwrap();
        fleet.deploy(envelope, payload).unwrap();
    }
    // Mixed single + batched dispatch: batches group a chunk's events
    // per hook (preserving each hook's order), mirroring the reference
    // stream exactly.
    let events = event_stream(240);
    let mut reference = Vec::with_capacity(events.len());
    for &t in &events {
        let (ctx, pkt) = event_regions();
        reference.push(
            host.fire_sync(hooks[t], &ctx, std::slice::from_ref(&pkt))
                .unwrap(),
        );
    }
    let mut through_fleet: Vec<Option<HookReport>> = (0..events.len()).map(|_| None).collect();
    for (chunk_idx, chunk) in events.chunks(24).enumerate() {
        let base = chunk_idx * 24;
        if chunk_idx % 2 == 0 {
            // Singles.
            for (off, &t) in chunk.iter().enumerate() {
                let (ctx, pkt) = event_regions();
                let report = fleet
                    .dispatch(
                        hooks[t],
                        HookEvent {
                            ctx,
                            extra: vec![pkt],
                        },
                    )
                    .unwrap();
                through_fleet[base + off] = Some(report);
            }
        } else {
            // Batches, grouped by hook in chunk order.
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (off, &t) in chunk.iter().enumerate() {
                match groups.iter_mut().find(|(tenant, _)| *tenant == t) {
                    Some((_, idxs)) => idxs.push(base + off),
                    None => groups.push((t, vec![base + off])),
                }
            }
            for (t, idxs) in groups {
                let batch: Vec<HookEvent> = idxs
                    .iter()
                    .map(|_| {
                        let (ctx, pkt) = event_regions();
                        HookEvent {
                            ctx,
                            extra: vec![pkt],
                        }
                    })
                    .collect();
                let replies = fleet.dispatch_batch(hooks[t], batch).unwrap();
                for (i, reply) in idxs.into_iter().zip(replies) {
                    through_fleet[i] = Some(reply.expect("event neither lost nor shed"));
                }
            }
        }
    }
    for (i, report) in through_fleet.into_iter().enumerate() {
        assert_eq!(
            reference[i],
            report.expect("every event resolved"),
            "event {i} (tenant {}) diverged over the lossy link",
            events[i]
        );
    }
    // The exactly-once ledger: the node executed precisely the offered
    // stream — duplicates deduped, drops retransmitted, nothing shed.
    let stats = fleet.stats();
    assert_eq!(stats.len(), 1);
    let node_stats = stats[0].1.as_ref().unwrap();
    assert_eq!(node_stats.dispatched, events.len() as u64);
    assert_eq!(node_stats.shed, 0);
    assert_eq!(node_stats.deploys_accepted, 6);
    host.shutdown();
}

/// Removing a container with queued events: the events drain without
/// it, never crash, and accounting still balances.
#[test]
fn remove_races_queued_events_safely() {
    let mut host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 1,
            queue_capacity: 512,
            ..HostConfig::default()
        },
    );
    let hook = Hook::new("race", HookKind::Custom, HookPolicy::Sum);
    let hook_id = hook.id;
    host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
    let (img, req) = cruncher();
    let doomed = host.install("doomed", 1, &img, req).unwrap();
    host.attach(doomed, hook_id).unwrap();
    let keeper = host
        .install(
            "keeper",
            2,
            &image("mov r0, 1\nexit"),
            ContractRequest::default(),
        )
        .unwrap();
    host.attach(keeper, hook_id).unwrap();
    for _ in 0..50 {
        host.fire(hook_id, &[], &[]).unwrap();
    }
    // The control lane outruns the 50 queued events: later ones fire
    // with only the keeper attached.
    assert!(host.remove(doomed));
    host.quiesce();
    assert_eq!(host.metrics_snapshot().counter(CounterId::Dispatched), 50);
    let r = host.fire_sync(hook_id, &[], &[]).unwrap();
    assert_eq!(r.combined, Some(1), "only the keeper remains");
    host.shutdown();
}
