//! The `fleet_lossy` workload: an [`FcFleet`] of two
//! `RemoteNode<LocalNode>`s over seeded lossy links.
//!
//! One driver thread offers waves of [`PER_HOOK`] events to each of the
//! eight hooks through [`FcFleet::dispatch_all`] and offers the next
//! wave only when every event has resolved (closed loop, one client).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use fc_core::contract::ContractOffer;
use fc_core::deploy::author_update;
use fc_core::engine::HookReport;
use fc_core::helpers_impl::standard_helper_ids;
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_fleet::node::{RemoteConfig, RemoteNode, FLEET_MTU};
use fc_fleet::{BatchOutcome, FcFleet, FleetConfig};
use fc_host::coap::response_pdu;
use fc_host::telemetry::CounterId;
use fc_host::{
    CoapFront, DeployReport, HookEvent, HostConfig, LocalNode, MetricsSnapshot, NodeError,
    NodeReply, NodeService, NodeStats, Ticket, TransportStats, WindowedNode,
};
use fc_kvstore::Scope;
use fc_net::coap::{Code, Message};
use fc_net::link::LinkConfig;
use fc_rtos::platform::{Engine, Platform};
use fc_suit::{SigningKey, Uuid};

use crate::estimators::{mean, median};
use crate::ledger::{
    reconcile, record_cpu, record_latency, rounds, run_slices, CycleCheck, Ledger, SETUP_REPS,
};
use crate::probes::{self, Event};
use crate::spans::Tracer;
use crate::tenants::{mix, path, tenant_values, Responder, PKT_LEN, TENANTS, VALUE_KEY};

/// Member nodes.
const NODES: usize = 2;
/// Events per hook per wave.
const PER_HOOK: usize = 4;
/// Waves in the reference pass that fixes the per-seed figures.
const REFERENCE_WAVES: u64 = 64;

/// Link counters a [`Tapped`] node publishes after every pump.
#[derive(Debug, Clone, Copy, Default)]
struct LinkTap {
    dropped: u64,
    duplicated: u64,
    deduped: u64,
}

/// A `RemoteNode<LocalNode>` that is otherwise transparent but copies
/// its link and dedup counters out after each pump, since the fleet
/// owns its members as `Box<dyn NodeService>`.
struct Tapped {
    inner: RemoteNode<LocalNode>,
    tap: Rc<Cell<LinkTap>>,
}

impl Tapped {
    fn publish(&self) {
        self.tap.set(LinkTap {
            dropped: self.inner.link().dropped_count(),
            duplicated: self.inner.link().duplicated_count(),
            deduped: self.inner.endpoint().deduped_count(),
        });
    }
}

impl NodeService for Tapped {
    fn register_hook(&mut self, hook: Hook, offer: ContractOffer) -> Result<(), NodeError> {
        self.inner.register_hook(hook, offer)
    }
    fn unregister_hook(&mut self, hook: Uuid) -> Result<(), NodeError> {
        self.inner.unregister_hook(hook)
    }
    fn dispatch(&mut self, hook: Uuid, event: HookEvent) -> Result<HookReport, NodeError> {
        self.inner.dispatch(hook, event)
    }
    fn dispatch_batch(&mut self, hook: Uuid, events: Vec<HookEvent>) -> BatchOutcome {
        self.inner.dispatch_batch(hook, events)
    }
    fn stage_chunk(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<(), NodeError> {
        self.inner.stage_chunk(uri, offset, chunk, restart)
    }
    fn deploy(&mut self, envelope: &[u8]) -> Result<DeployReport, NodeError> {
        self.inner.deploy(envelope)
    }
    fn stats(&mut self) -> Result<NodeStats, NodeError> {
        self.inner.stats()
    }
    fn metrics(&mut self) -> Result<MetricsSnapshot, NodeError> {
        self.inner.metrics()
    }
    fn windowed(&mut self) -> Option<&mut dyn WindowedNode> {
        Some(self)
    }
}

impl WindowedNode for Tapped {
    fn submit_batch(&mut self, hook: Uuid, events: Vec<HookEvent>) -> Result<Ticket, NodeError> {
        self.inner.submit_batch(hook, events)
    }
    fn submit_stage(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<Ticket, NodeError> {
        self.inner.submit_stage(uri, offset, chunk, restart)
    }
    fn submit_deploy(&mut self, envelope: &[u8]) -> Result<Ticket, NodeError> {
        self.inner.submit_deploy(envelope)
    }
    fn submit_batch_tagged(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        token: &[u8],
    ) -> Result<Ticket, NodeError> {
        self.inner.submit_batch_tagged(hook, events, token)
    }
    fn submit_deploy_tagged(&mut self, envelope: &[u8], token: &[u8]) -> Result<Ticket, NodeError> {
        self.inner.submit_deploy_tagged(envelope, token)
    }
    fn pump(&mut self) -> bool {
        let progressed = self.inner.pump();
        self.publish();
        progressed
    }
    fn take(&mut self, ticket: Ticket) -> Option<Result<NodeReply, NodeError>> {
        self.inner.take(ticket)
    }
    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

/// The fleet, its hooks, the per-node taps and the front-end that turns
/// CoAP requests into hook events.
struct System {
    fleet: FcFleet,
    hooks: Vec<Uuid>,
    taps: Vec<Rc<Cell<LinkTap>>>,
    front: CoapFront,
    deploy_ms: Vec<f64>,
}

fn build(seed: u64, values: &[u64]) -> System {
    let key = SigningKey::from_seed(b"perfbench-maintainer");
    let mut fleet = FcFleet::new(FleetConfig::default());
    let mut taps = Vec::new();
    for n in 0..NODES {
        let mut node = LocalNode::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers: 1,
                ..HostConfig::default()
            },
        );
        for t in 0..TENANTS {
            node.updates_mut().provision_tenant(
                format!("tenant-{t}").as_bytes(),
                key.verifying_key(),
                t,
            );
            node.host()
                .env()
                .stores()
                .store(0, t, Scope::Tenant, VALUE_KEY, values[t as usize] as i64)
                .expect("seeds the tenant value");
        }
        let remote = RemoteNode::new(
            node,
            RemoteConfig {
                link: LinkConfig {
                    loss: 0.05,
                    duplicate: 0.025,
                    jitter_us: 20_000,
                    mtu: FLEET_MTU,
                    seed: mix(seed, 0x11_0000 + n as u64),
                    ..LinkConfig::default()
                },
                window: 8,
                max_retransmit: 8,
                ..RemoteConfig::default()
            },
        );
        let tap = Rc::new(Cell::new(LinkTap::default()));
        taps.push(Rc::clone(&tap));
        fleet
            .add_node(Box::new(Tapped { inner: remote, tap }))
            .expect("node admitted");
    }
    let app = Responder::Tiny.program();
    let mut front = CoapFront::new().with_pkt_len(PKT_LEN);
    let mut hooks = Vec::new();
    let mut deploy_ms = Vec::new();
    for t in 0..TENANTS {
        let hook = Hook::new(
            &format!("fleet-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        let hook_id = hook.id;
        fleet
            .register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
            .expect("hook registered");
        let key_id = format!("tenant-{t}");
        let uri = format!("t{t}-v1");
        let (envelope, payload) = author_update(&app, hook_id, 1, &uri, &key, key_id.as_bytes());
        let t0 = Instant::now();
        let (_, report) = fleet.deploy(&envelope, &payload).expect("deploy accepted");
        deploy_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(report.attached, "deploy attached to its hook");
        front.add_route(&path(t), hook_id);
        hooks.push(hook_id);
    }
    System {
        fleet,
        hooks,
        taps,
        front,
        deploy_ms,
    }
}

/// One wave's requests: [`PER_HOOK`] GETs for each tenant.
fn wave_requests() -> (Vec<u32>, Vec<Message>) {
    let mut mid = 0u16;
    (0..TENANTS)
        .flat_map(|t| (0..PER_HOOK).map(move |_| t))
        .map(|t| {
            mid += 1;
            let mut req = Message::request(Code::Get, mid, &mid.to_le_bytes());
            req.set_path(&path(t));
            (t, req)
        })
        .unzip()
}

/// Routes a wave through the front-end and groups it by hook.
fn route(front: &CoapFront, requests: &[Message]) -> Vec<(Uuid, Vec<HookEvent>)> {
    let mut work: Vec<(Uuid, Vec<HookEvent>)> = Vec::new();
    for request in requests {
        let (hook, ctx, pkt) = front.request_event(request).expect("routed");
        let event = HookEvent {
            ctx,
            extra: vec![pkt],
        };
        match work.iter_mut().find(|(h, _)| *h == hook) {
            Some((_, events)) => events.push(event),
            None => work.push((hook, vec![event])),
        }
    }
    work
}

/// Decodes every reply of a wave and checks it: per event, whether it
/// is a 2.05 carrying the tenant's payload, with its report.
fn replies(
    outcomes: Vec<BatchOutcome>,
    tenants: &[u32],
    expected: &[Vec<u8>],
) -> Vec<(bool, Option<HookReport>)> {
    let mut out = Vec::with_capacity(tenants.len());
    for outcome in outcomes {
        match outcome {
            Ok(items) => {
                for item in items {
                    let t = tenants[out.len()];
                    out.push(match item {
                        Ok(report) => {
                            let ok = report.executions.len() == 1
                                && report.executions[0].result.is_ok()
                                && matches!(
                                    Message::decode(&response_pdu(&report)),
                                    Ok(m) if m.code == Code::Content && m.payload == expected[t as usize]
                                );
                            (ok, Some(report))
                        }
                        Err(_) => (false, None),
                    });
                }
            }
            Err(_) => {
                let n = PER_HOOK.min(tenants.len() - out.len());
                out.extend((0..n).map(|_| (false, None)));
            }
        }
    }
    out
}

fn taps(system: &System) -> Vec<LinkTap> {
    system.taps.iter().map(|t| t.get()).collect()
}

/// Runs the fleet workload. `trace` selects the traced run.
pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Ledger {
    let mut ledger = Ledger::default();
    let values = tenant_values(seed);
    let expected: Vec<Vec<u8>> = values
        .iter()
        .map(|v| Responder::Tiny.expected_payload(*v))
        .collect();
    let (tenants, requests) = wave_requests();
    let per_wave = requests.len() as u64;

    let mut setup_s = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_REPS {
        drop(system.take());
        let t0 = Instant::now();
        let built = build(seed, &values);
        setup_s.push(t0.elapsed().as_secs_f64());
        system = Some(built);
    }
    let mut system = system.expect("at least one set-up");
    ledger.set("setup_s", median(&setup_s).expect("set-up timed"));
    ledger.set("fleet.deploy_ms", mean(&system.deploy_ms).unwrap_or(0.0));

    // --- reference pass: REFERENCE_WAVES waves fix the exact per-seed
    // figures (device time, virtual link time, injected faults).
    let t_before: Vec<TransportStats> = system
        .fleet
        .transport_stats()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let tap_before = taps(&system);
    let mut cycles = 0u64;
    let mut insns = 0u64;
    let mut tenant_cycles = CycleCheck::default();
    let mut wire_sample: Vec<HookReport> = Vec::new();
    for _ in 0..REFERENCE_WAVES {
        let work = route(&system.front, &requests);
        let outcomes = system.fleet.dispatch_all(work);
        for ((ok, report), t) in replies(outcomes, &tenants, &expected)
            .into_iter()
            .zip(&tenants)
        {
            ledger.outcome(ok);
            if let Some(r) = report {
                tenant_cycles.observe(*t, r.cycles);
                cycles += r.cycles;
                insns += r.executions.iter().map(|e| e.counts.total()).sum::<u64>();
                if wire_sample.len() < PER_HOOK {
                    wire_sample.push(r);
                }
            }
        }
    }
    let t_after: Vec<TransportStats> = system
        .fleet
        .transport_stats()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let tap_after = taps(&system);
    let ref_requests = (REFERENCE_WAVES * per_wave) as f64;
    ledger.set(
        "device_us_per_req",
        Platform::CortexM4.us_from_cycles(cycles) / ref_requests,
    );
    ledger.set("engine.insns_per_req", insns as f64 / ref_requests);
    let delta = |f: fn(&TransportStats) -> u64| -> Vec<u64> {
        t_after
            .iter()
            .zip(&t_before)
            .map(|(a, b)| f(a) - f(b))
            .collect()
    };
    let link_us = delta(|t| t.virtual_now_us).into_iter().max().unwrap_or(0);
    ledger.set("link_virtual_us_per_req", link_us as f64 / ref_requests);
    let per_req = |n: u64| n as f64 / ref_requests;
    ledger.set(
        "net.retransmits_per_req",
        per_req(delta(|t| t.retransmits).iter().sum()),
    );
    ledger.set(
        "net.coalesced_per_req",
        per_req(delta(|t| t.coalesced_frames).iter().sum()),
    );
    ledger.set(
        "net.srtt_us",
        t_after.iter().map(|t| t.srtt_us).max().unwrap_or(0) as f64,
    );
    ledger.set(
        "net.in_flight_hwm",
        t_after.iter().map(|t| t.in_flight_hwm).max().unwrap_or(0) as f64,
    );
    let tap_sum = |f: fn(&LinkTap) -> u64| -> u64 {
        tap_after
            .iter()
            .zip(&tap_before)
            .map(|(a, b)| f(a) - f(b))
            .sum()
    };
    ledger.set("net.dropped_per_req", per_req(tap_sum(|t| t.dropped)));
    ledger.set("net.duplicated_per_req", per_req(tap_sum(|t| t.duplicated)));
    ledger.set("fleet.deduped_per_req", per_req(tap_sum(|t| t.deduped)));

    // --- timed phase.
    let mut waves = REFERENCE_WAVES;
    let (slices, peak_rss) = run_slices(seconds, trace, |traced| {
        let t0 = Instant::now();
        let checked = if traced {
            let root = tracer.begin("wave", None, waves);
            let span = tracer.begin("front.route", Some(&root), waves);
            let work = route(&system.front, &requests);
            tracer.end(span);
            let span = tracer.begin("fleet.wave", Some(&root), waves);
            let outcomes = system.fleet.dispatch_all(work);
            tracer.end(span);
            let span = tracer.begin("front.reply", Some(&root), waves);
            let checked = replies(outcomes, &tenants, &expected);
            tracer.end(span);
            tracer.end(root);
            checked
        } else {
            let outcomes = system.fleet.dispatch_all(route(&system.front, &requests));
            replies(outcomes, &tenants, &expected)
        };
        let ns = t0.elapsed().as_nanos() as f64;
        for ((ok, report), t) in checked.into_iter().zip(&tenants) {
            ledger.outcome(ok);
            if let Some(r) = report {
                tenant_cycles.observe(*t, r.cycles);
            }
        }
        waves += 1;
        (per_wave, ns)
    });

    tenant_cycles.record(&mut ledger);
    record_cpu(&mut ledger, &slices);
    record_latency(&mut ledger, &slices);
    ledger.set(
        "error_rate",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
    );
    ledger.set("peak_rss_mib", peak_rss);

    // Exactly-once: every offered event executed once, nothing shed.
    let mut dispatched = 0u64;
    let mut shed = 0u64;
    let mut stats_ok = true;
    for (_, stats) in system.fleet.stats() {
        match stats {
            Ok(s) => {
                dispatched += s.dispatched;
                shed += s.shed;
            }
            Err(_) => stats_ok = false,
        }
    }
    ledger.check(
        "fleet executed every offered event exactly once",
        stats_ok && dispatched == waves * per_wave,
    );
    ledger.check("fleet shed nothing", shed == 0);

    if trace {
        let waves_traced = rounds(&slices, true).len().max(1) as f64;
        let reqs = waves_traced * per_wave as f64;
        let total = |name: &str| tracer.totals(name).total_ns as f64;
        ledger.set("front.route_ns", total("front.route") / reqs);
        ledger.set("front.reply_ns", total("front.reply") / reqs);
        ledger.set("fleet.wave_us", total("fleet.wave") / waves_traced / 1e3);
        let parts = ["front.route", "fleet.wave", "front.reply"]
            .iter()
            .map(|n| total(n))
            .sum::<f64>()
            / waves_traced;
        reconcile(&mut ledger, &slices, parts);

        let t0 = Instant::now();
        let (merged, errors) = system.fleet.merged_metrics();
        ledger.set("telemetry.scrape_us", t0.elapsed().as_secs_f64() * 1e6);
        ledger.check(
            "fleet metrics scrape answered by every node",
            errors.is_empty(),
        );
        let m_dispatched = merged.counter(CounterId::Dispatched).max(1) as f64;
        ledger.set(
            "host.queue_p50_us",
            merged.latency.quantile_ns(0.50) as f64 / 1e3,
        );
        ledger.set(
            "host.queue_p99_us",
            merged.latency.quantile_ns(0.99) as f64 / 1e3,
        );
        ledger.set(
            "host.round_trips_per_req",
            merged.counter(CounterId::Batches) as f64 / m_dispatched,
        );
        ledger.set(
            "host.shed_per_req",
            merged.counter(CounterId::Shed) as f64 / m_dispatched,
        );

        let events: Vec<Event> = tenants
            .iter()
            .zip(&requests)
            .map(|(t, req)| {
                let (_, ctx, pkt) = system.front.request_event(req).expect("routed");
                (*t, ctx, pkt)
            })
            .collect();
        probes::engine(&mut ledger, Responder::Tiny, &values, &events);
        probes::vm(&mut ledger, Responder::Tiny, &values, &events);
        let env = fc_core::helpers_impl::HostEnv::default();
        for t in 0..TENANTS {
            env.stores()
                .store(0, t, Scope::Tenant, VALUE_KEY, values[t as usize] as i64)
                .expect("seeds the tenant value");
        }
        probes::kv(&mut ledger, env.stores());
        let wire_events: Vec<HookEvent> = events
            .iter()
            .filter(|(t, _, _)| *t == tenants[0])
            .map(|(_, ctx, pkt)| HookEvent {
                ctx: ctx.clone(),
                extra: vec![pkt.clone()],
            })
            .collect();
        probes::wire(
            &mut ledger,
            system.hooks[tenants[0] as usize],
            wire_events,
            wire_sample,
        );
    }
    ledger
}
