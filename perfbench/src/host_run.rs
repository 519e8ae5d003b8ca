//! The host workloads: `coap_tiny`, `coap_compute` and `durable_kv`.
//!
//! One driver thread sends bursts of [`BURST`] GETs through
//! [`CoapFront::dispatch_batch`] on a 2-worker host and sends the next
//! burst only when every reply is back (closed loop, one client).

use std::time::Instant;

use fc_core::contract::ContractOffer;
use fc_core::deploy::author_update;
use fc_core::engine::{EngineError, HookReport};
use fc_core::helpers_impl::standard_helper_ids;
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_host::coap::response_pdu;
use fc_host::telemetry::CounterId;
use fc_host::{
    CoapFront, CoapReply, DurabilityConfig, FcHost, HistogramSnapshot, HookEvent, HostConfig,
    HostError, JournalMedia, LiveUpdateService, LocalNode, NodeService,
};
use fc_kvstore::{ContainerId, Scope};
use fc_net::coap::{Code, Message};
use fc_net::load::LoadShape;
use fc_rtos::platform::{Engine, Platform};
use fc_suit::{SigningKey, Uuid};

use crate::estimators::median;
use crate::ledger::{
    reconcile, record_cpu, record_latency, rounds, run_slices, CycleCheck, Ledger, Slice,
    SETUP_REPS,
};
use crate::probes::{self, Event};
use crate::spans::Tracer;
use crate::tenants::{
    path, Inputs, Mix, Responder, BURST, COUNTER_KEY, PKT_LEN, SCHEDULE_BURSTS, TENANTS, VALUE_KEY,
};

/// Worker threads per host.
const WORKERS: usize = 2;
/// Bursts served by the durable node before its media is imaged.
const PREFILL_BURSTS: u64 = 64;

/// Which host workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostWorkload {
    /// Minimal responder: per-event fixed cost dominates.
    Tiny,
    /// Responder with a compute kernel: the VM dominates.
    Compute,
    /// Durable node restored from media, counter write per request.
    Durable,
}

impl HostWorkload {
    fn responder(self) -> Responder {
        match self {
            HostWorkload::Tiny => Responder::Tiny,
            HostWorkload::Compute => Responder::Compute,
            HostWorkload::Durable => Responder::Counter,
        }
    }

    fn mix(self) -> Mix {
        match self {
            HostWorkload::Tiny => Mix::PerRequest(LoadShape::Uniform),
            // One tenant per burst: the burst runs on one worker, so its
            // latency does not hinge on both vCPUs of a shared box being
            // free at once (split bursts are bimodal there, 330 vs 600 us).
            HostWorkload::Compute => Mix::PerBurst,
            HostWorkload::Durable => Mix::PerRequest(LoadShape::Skewed),
        }
    }
}

fn host_config() -> HostConfig {
    HostConfig {
        workers: WORKERS,
        ..HostConfig::default()
    }
}

fn hook_spec(t: u32) -> (Hook, ContractOffer) {
    (
        Hook::new(
            &format!("coap-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        ),
        ContractOffer::helpers(standard_helper_ids()),
    )
}

fn routes() -> CoapFront {
    let mut front = CoapFront::new().with_pkt_len(PKT_LEN);
    for t in 0..TENANTS {
        front.add_route(&path(t), hook_spec(t).0.id);
    }
    front
}

/// A plain host with every tenant's hook, value and responder
/// installed.
fn build_plain(responder: Responder, values: &[u64]) -> FcHost {
    let host = FcHost::new(Platform::CortexM4, Engine::FemtoContainer, host_config());
    let image = responder.program().to_bytes();
    for t in 0..TENANTS {
        let (hook, offer) = hook_spec(t);
        let hook_id = hook.id;
        host.register_hook(hook, offer);
        host.env()
            .stores()
            .store(0, t, Scope::Tenant, VALUE_KEY, values[t as usize] as i64)
            .expect("seeds the tenant value");
        let c = host
            .install(&format!("responder-t{t}"), t, &image, responder.request())
            .expect("installs");
        host.attach(c, hook_id).expect("attaches");
    }
    host
}

/// The durable node's media, filled before any timing.
struct Filled {
    /// Byte image of the media's active slot.
    image: Vec<u8>,
    /// Container id per tenant (stable across restore).
    containers: Vec<ContainerId>,
}

/// Builds a durable node, deploys every tenant's responder by signed
/// SUIT, serves [`PREFILL_BURSTS`] bursts, and images its media.
fn fill_media(inputs: &Inputs, ledger: &mut Ledger) -> Filled {
    let media = JournalMedia::new();
    let mut node = LocalNode::durable(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        DurabilityConfig::default(),
    );
    let key = SigningKey::from_seed(b"perfbench-maintainer");
    let app = Responder::Counter.program();
    let mut containers = Vec::new();
    for t in 0..TENANTS {
        let key_id = format!("tenant-{t}");
        node.updates_mut()
            .provision_tenant(key_id.as_bytes(), key.verifying_key(), t);
        let (hook, offer) = hook_spec(t);
        let hook_id = hook.id;
        node.register_hook(hook, offer).expect("registers");
        node.host()
            .env()
            .stores()
            .store(
                0,
                t,
                Scope::Tenant,
                VALUE_KEY,
                inputs.values[t as usize] as i64,
            )
            .expect("seeds the tenant value");
        let uri = format!("t{t}-v1");
        let (envelope, payload) = author_update(&app, hook_id, 1, &uri, &key, key_id.as_bytes());
        node.stage_chunk(&uri, 0, &payload, true).expect("stages");
        let report = node.deploy(&envelope).expect("deploys");
        ledger.check(format!("tenant {t} SUIT deploy attached"), report.attached);
        containers.push(report.container);
    }
    let front = routes();
    let mut prefill_ok = true;
    for b in 0..PREFILL_BURSTS {
        let (tenants, requests) = inputs.burst(b);
        for (t, reply) in tenants
            .iter()
            .zip(front.dispatch_batch(node.host(), requests))
        {
            let expected = Responder::Counter.expected_payload(inputs.values[*t as usize]);
            prefill_ok &= reply_ok(&reply, &expected);
        }
    }
    ledger.check("durable prefill replies are correct", prefill_ok);
    drop(node);
    let mut image = Vec::new();
    // A byte copy of the active slot: each timed restore reads its own
    // copy of the same flash image, as a fresh device would.
    media.corrupt_active(|slot| image = slot.clone());
    Filled { image, containers }
}

fn restore(filled: &Filled) -> LocalNode {
    let media = JournalMedia::new();
    media.corrupt_active(|slot| *slot = filled.image.clone());
    LocalNode::restore(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        DurabilityConfig::default(),
        (0..TENANTS).map(hook_spec).collect(),
    )
    .expect("restores")
}

/// Whether one reply is a 2.05 carrying `expected`, from a
/// non-faulting execution.
fn reply_ok(reply: &Result<CoapReply, HostError>, expected: &[u8]) -> bool {
    match reply {
        Ok(r) => {
            r.report.executions.len() == 1
                && r.report.executions[0].result.is_ok()
                && matches!(&r.message, Some(m) if m.code == Code::Content && m.payload == expected)
        }
        Err(_) => false,
    }
}

/// Counters read from the host around the timed phase.
struct HostCounters {
    dispatched: u64,
    batches: u64,
    shed: u64,
    latency: HistogramSnapshot,
    busy_ns: u64,
    journal: fc_host::JournalOps,
}

fn read_counters(host: &FcHost) -> HostCounters {
    let snap = host.metrics_snapshot();
    HostCounters {
        dispatched: snap.counter(CounterId::Dispatched),
        batches: snap.counter(CounterId::Batches),
        shed: snap.counter(CounterId::Shed),
        latency: snap.latency,
        busy_ns: host.shard_reports().iter().map(|r| r.busy_ns).sum(),
        journal: host.journal().map(|j| j.ops()).unwrap_or_default(),
    }
}

/// Runs one host workload. `trace` selects the traced run.
pub fn run(
    kind: HostWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
) -> Ledger {
    let mut ledger = Ledger::default();
    let responder = kind.responder();
    let inputs = Inputs::generate(seed, kind.mix());
    let expected: Vec<Vec<u8>> = inputs
        .values
        .iter()
        .map(|v| responder.expected_payload(*v))
        .collect();

    // --- set-up, timed SETUP_REPS times; the last system serves.
    let filled = (kind == HostWorkload::Durable).then(|| fill_media(&inputs, &mut ledger));
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let t0 = Instant::now();
        // The system under load: a restored durable node, or a plain
        // host behind the same in-process node adapter.
        let node = match &filled {
            Some(filled) => restore(filled),
            None => LocalNode::with_host(
                build_plain(responder, &inputs.values),
                LiveUpdateService::new(),
            ),
        };
        let system = (node, routes());
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some(system);
    }
    let (served, front) = served.expect("at least one set-up");
    let host = served.host();
    let setup_median = median(&setup_s).expect("set-up timed");
    ledger.set("setup_s", setup_median);
    if kind == HostWorkload::Durable {
        ledger.set("journal.restore_ms", setup_median * 1e3);
    }

    // --- reference pass: one schedule pass, untimed; fixes the exact
    // per-seed figures (simulated device time, instruction counts).
    let mut cycles = 0u64;
    let mut insns = 0u64;
    let mut tenant_cycles = CycleCheck::default();
    let mut wire_sample: Vec<HookReport> = Vec::new();
    let wire_tenant = inputs.tenants[0];
    for b in 0..SCHEDULE_BURSTS as u64 {
        let (tenants, requests) = inputs.burst(b);
        for (t, reply) in tenants.iter().zip(front.dispatch_batch(host, requests)) {
            let ok = reply_ok(&reply, &expected[*t as usize]);
            ledger.outcome(ok);
            if let Ok(r) = reply {
                tenant_cycles.observe(*t, r.report.cycles);
                cycles += r.report.cycles;
                insns += r
                    .report
                    .executions
                    .iter()
                    .map(|e| e.counts.total())
                    .sum::<u64>();
                if *t == wire_tenant && wire_sample.len() < 4 {
                    wire_sample.push(r.report);
                }
            }
        }
    }
    let ref_requests = (SCHEDULE_BURSTS * BURST) as f64;
    ledger.set(
        "device_us_per_req",
        Platform::CortexM4.us_from_cycles(cycles) / ref_requests,
    );
    ledger.set("engine.insns_per_req", insns as f64 / ref_requests);

    // --- timed phase.
    let before = read_counters(host);
    let mut b = SCHEDULE_BURSTS as u64;
    let started = Instant::now();
    let (slices, peak_rss) = run_slices(seconds, trace, |traced| {
        let (tenants, requests) = inputs.burst(b);
        let t0 = Instant::now();
        let replies = if traced {
            traced_burst(tracer, &front, host, requests, b)
        } else {
            front.dispatch_batch(host, requests)
        };
        let ns = t0.elapsed().as_nanos() as f64;
        for (t, reply) in tenants.iter().zip(&replies) {
            ledger.outcome(reply_ok(reply, &expected[*t as usize]));
            if let Ok(r) = reply {
                tenant_cycles.observe(*t, r.report.cycles);
            }
        }
        b += 1;
        (BURST as u64, ns)
    });
    tenant_cycles.record(&mut ledger);
    let wall_ns = started.elapsed().as_nanos() as f64;
    let after = read_counters(host);
    let timed_bursts = b - SCHEDULE_BURSTS as u64;

    record_cpu(&mut ledger, &slices);
    record_latency(&mut ledger, &slices);
    ledger.set(
        "error_rate",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
    );
    ledger.set("peak_rss_mib", peak_rss);

    // Program counters over the timed phase.
    let dispatched = after.dispatched - before.dispatched;
    ledger.check(
        "host dispatched every timed request",
        dispatched == timed_bursts * BURST as u64,
    );
    let mut queue = after.latency;
    for (q, b0) in queue.0.iter_mut().zip(before.latency.0.iter()) {
        *q -= b0;
    }
    ledger.set("host.queue_p50_us", queue.quantile_ns(0.50) as f64 / 1e3);
    ledger.set("host.queue_p99_us", queue.quantile_ns(0.99) as f64 / 1e3);
    ledger.set(
        "host.busy_share",
        (after.busy_ns - before.busy_ns) as f64 / (WORKERS as f64 * wall_ns),
    );
    let per_req = |n: u64| n as f64 / dispatched.max(1) as f64;
    ledger.set(
        "host.round_trips_per_req",
        per_req(after.batches - before.batches),
    );
    ledger.set("host.shed_per_req", per_req(after.shed - before.shed));
    ledger.set(
        "journal.appends_per_req",
        per_req(after.journal.appends - before.journal.appends),
    );
    ledger.set(
        "journal.bytes_per_req",
        per_req(after.journal.bytes - before.journal.bytes),
    );
    ledger.set(
        "journal.folds_per_kreq",
        1e3 * per_req(after.journal.folds - before.journal.folds),
    );

    // Durable kv contents against a reference fold of the writes: each
    // tenant's counter equals the requests it was sent, prefill
    // included.
    if let Some(filled) = &filled {
        let sent = inputs.per_tenant(b);
        let prefill = inputs.per_tenant(PREFILL_BURSTS);
        let stores = host.env().stores();
        let ok = (0..TENANTS as usize).all(|t| {
            let c = filled.containers[t];
            stores.fetch(c, t as u32, Scope::Local, COUNTER_KEY) == (sent[t] + prefill[t]) as i64
        });
        ledger.check("durable kv counters match the reference fold", ok);
    }

    if trace {
        traced_ledger(&mut ledger, tracer, &slices);
        let events: Vec<Event> = inputs
            .tenants
            .iter()
            .zip(&inputs.requests)
            .map(|(t, req)| {
                let (_, ctx, pkt) = front.request_event(req).expect("routed");
                (*t, ctx, pkt)
            })
            .collect();
        probes::engine(&mut ledger, responder, &inputs.values, &events);
        probes::vm(&mut ledger, responder, &inputs.values, &events);
        probes::kv(&mut ledger, host.env().stores());
        if kind == HostWorkload::Durable {
            let durable = probes::store_ns(host.env().stores());
            let plain = ledger.values["kv.store_ns"];
            ledger.set("journal.append_ns", durable - plain);
        }
        let wire_events: Vec<HookEvent> = events
            .iter()
            .filter(|(t, _, _)| *t == wire_tenant)
            .take(wire_sample.len())
            .map(|(_, ctx, pkt)| HookEvent {
                ctx: ctx.clone(),
                extra: vec![pkt.clone()],
            })
            .collect();
        probes::wire(
            &mut ledger,
            hook_spec(wire_tenant).0.id,
            wire_events,
            wire_sample,
        );
        let mut scrape_us = Vec::new();
        for _ in 0..20 {
            let t0 = Instant::now();
            std::hint::black_box(host.metrics_snapshot());
            scrape_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        ledger.set("telemetry.scrape_us", median(&scrape_us).unwrap_or(0.0));
    }
    drop(served);
    ledger
}

/// One burst through the same steps as [`CoapFront::dispatch_batch`],
/// each step a span: route (`request_event` and grouping by hook),
/// submit (`fire_batch_with_reply`), wait (the reply receivers) and
/// reply (`response_pdu` + `Message::decode`).
fn traced_burst(
    tracer: &mut Tracer,
    front: &CoapFront,
    host: &FcHost,
    requests: &[Message],
    burst: u64,
) -> Vec<Result<CoapReply, HostError>> {
    let root = tracer.begin("burst", None, burst);
    let span = tracer.begin("front.route", Some(&root), burst);
    let mut results: Vec<Option<Result<CoapReply, HostError>>> = vec![None; requests.len()];
    let mut groups: Vec<(Uuid, Vec<usize>, Vec<HookEvent>)> = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        match front.request_event(request) {
            Ok((hook, ctx, pkt)) => {
                let event = HookEvent {
                    ctx,
                    extra: vec![pkt],
                };
                match groups.iter_mut().find(|(h, _, _)| *h == hook) {
                    Some((_, idxs, events)) => {
                        idxs.push(i);
                        events.push(event);
                    }
                    None => groups.push((hook, vec![i], vec![event])),
                }
            }
            Err(e) => results[i] = Some(Err(e)),
        }
    }
    tracer.end(span);

    let span = tracer.begin("host.submit", Some(&root), burst);
    type Rx = std::sync::mpsc::Receiver<Result<HookReport, EngineError>>;
    let mut outstanding: Vec<(usize, Rx)> = Vec::new();
    for (hook, idxs, events) in groups {
        match host.fire_batch_with_reply(hook, events) {
            Ok(receivers) => outstanding.extend(idxs.into_iter().zip(receivers)),
            Err(e) => {
                for i in idxs {
                    results[i] = Some(Err(e.clone()));
                }
            }
        }
    }
    tracer.end(span);

    let span = tracer.begin("host.wait", Some(&root), burst);
    let received: Vec<(usize, Result<HookReport, HostError>)> = outstanding
        .into_iter()
        .map(|(i, rx)| {
            let r = match rx.recv() {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(e)) => Err(HostError::Engine(e)),
                Err(_) => Err(HostError::Shed),
            };
            (i, r)
        })
        .collect();
    tracer.end(span);

    let span = tracer.begin("front.reply", Some(&root), burst);
    for (i, r) in received {
        results[i] = Some(r.map(|report| {
            let pdu = response_pdu(&report);
            let message = Message::decode(&pdu).ok();
            CoapReply {
                report,
                pdu,
                message,
            }
        }));
    }
    tracer.end(span);
    tracer.end(root);
    results
        .into_iter()
        .map(|r| r.expect("every slot resolved"))
        .collect()
}

/// Per-layer figures from the traced slices' spans, the tracing
/// overhead, and the reconciliation of the driver-thread spans with
/// the untraced burst latency.
fn traced_ledger(ledger: &mut Ledger, tracer: &Tracer, slices: &[Slice]) {
    let bursts = rounds(slices, true).len().max(1) as f64;
    let requests = bursts * BURST as f64;
    let total = |name: &str| tracer.totals(name).total_ns as f64;
    ledger.set("front.route_ns", total("front.route") / requests);
    ledger.set("front.reply_ns", total("front.reply") / requests);
    ledger.set("host.submit_ns", total("host.submit") / requests);
    ledger.set("host.wait_us", total("host.wait") / bursts / 1e3);
    let parts = ["front.route", "host.submit", "host.wait", "front.reply"]
        .iter()
        .map(|n| total(n))
        .sum::<f64>()
        / bursts;
    reconcile(ledger, slices, parts);
}
