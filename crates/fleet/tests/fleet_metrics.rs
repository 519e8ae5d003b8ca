//! Fleet-wide observability: every node scraped over its own lossy
//! link ([`fc_fleet::FcFleet::metrics`]), snapshots decoded off the
//! wire and merged — counters sum, gauges max, histograms add — into
//! one fleet view whose numbers reconcile **exactly** with the
//! nodes' own views of their ledgers (`NodeStats`, read straight off
//! each host's telemetry lanes) and the `TransportStats` counters.

use fc_core::contract::ContractOffer;
use fc_core::deploy::author_update;
use fc_core::helpers_impl::{helper_name_table, standard_helper_ids};
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_fleet::node::{RemoteConfig, RemoteNode, FLEET_MTU};
use fc_fleet::{FcFleet, FleetConfig};
use fc_host::{
    CounterId, CrashPlan, CrashPoint, DurabilityConfig, GaugeId, HookEvent, HostConfig,
    JournalMedia, LocalNode, MetricsSnapshot, NodeError,
};
use fc_net::link::LinkConfig;
use fc_rbpf::program::{FcProgram, ProgramBuilder};
use fc_rtos::platform::{Engine, Platform};
use fc_suit::{SigningKey, Uuid};

fn echo_program() -> FcProgram {
    ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm("ldxb r0, [r1]\nexit")
        .expect("assembles")
        .build()
}

/// A provisioned node behind a 5%-loss link.
fn lossy_node(key: &SigningKey, seed: u64, config: HostConfig) -> RemoteNode<LocalNode> {
    let mut node = LocalNode::new(Platform::CortexM4, Engine::FemtoContainer, config);
    node.updates_mut()
        .provision_tenant(b"metrics-tenant", key.verifying_key(), 1);
    RemoteNode::new(
        node,
        RemoteConfig {
            link: LinkConfig {
                loss: 0.05,
                duplicate: 0.05,
                jitter_us: 20_000,
                mtu: FLEET_MTU,
                seed,
                ..LinkConfig::default()
            },
            max_retransmit: 8,
            window: 4,
            ..RemoteConfig::default()
        },
    )
}

fn signed_update(key: &SigningKey, hook: Uuid, version: u64) -> (Vec<u8>, Vec<u8>) {
    author_update(
        &echo_program(),
        hook,
        version,
        &format!("metrics-{hook}-v{version}"),
        key,
        b"metrics-tenant",
    )
}

/// Registers `n` hooks spread across the ring and deploys the echo
/// container on each owner. Returns the hooks in registration order.
fn deploy_hooks(fleet: &mut FcFleet, key: &SigningKey, n: usize) -> Vec<Uuid> {
    let mut hooks = Vec::new();
    for t in 0..n {
        let hook = Hook::new(
            &format!("metrics-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        hooks.push(hook.id);
        fleet
            .register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
            .unwrap();
        let (envelope, payload) = signed_update(key, hooks[t], 1);
        fleet.deploy(&envelope, &payload).unwrap();
    }
    hooks
}

/// The ledger truth to reconcile a merged snapshot against: summed
/// `NodeStats` over the wire plus summed local transport counters.
struct Ledger {
    dispatched: u64,
    shed: u64,
    retransmits: u64,
    coalesced: u64,
}

fn ledger_of(fleet: &mut FcFleet) -> Ledger {
    let mut ledger = Ledger {
        dispatched: 0,
        shed: 0,
        retransmits: 0,
        coalesced: 0,
    };
    // Transport counters FIRST: fleet.stats() itself crosses the wire
    // and may retransmit, which would desynchronize the comparison
    // with a snapshot merged beforehand.
    for (_, t) in fleet.transport_stats() {
        ledger.retransmits += t.retransmits;
        ledger.coalesced += t.coalesced_frames;
    }
    for (node, stats) in fleet.stats() {
        let stats = stats.unwrap_or_else(|e| panic!("node {node} stats: {e}"));
        ledger.dispatched += stats.dispatched;
        ledger.shed += stats.shed;
    }
    ledger
}

/// CI smoke: a 2-node fleet under the loss link answers a metrics
/// scrape on every node, the snapshots decode off the wire, and the
/// merged dispatched/offered/shed counters reconcile with the fleet's
/// stats ledger.
#[test]
fn two_node_scrape_decodes_and_reconciles_with_ledger() {
    let key = SigningKey::from_seed(b"metrics-maintainer");
    let mut fleet = FcFleet::new(FleetConfig::default());
    for seed in [0x5c0b_e001u64, 0x5c0b_e002] {
        fleet
            .add_node(Box::new(lossy_node(&key, seed, HostConfig::default())))
            .unwrap();
    }
    let hooks = deploy_hooks(&mut fleet, &key, 4);
    for (t, &hook) in hooks.iter().enumerate() {
        for i in 1..=5u8 {
            let report = fleet.dispatch(hook, HookEvent::new(&[i], &[])).unwrap();
            assert_eq!(report.combined, Some(u64::from(i)), "hook {t} echoes");
        }
    }

    let (merged, failed) = fleet.merged_metrics();
    assert!(failed.is_empty(), "every node answered: {failed:?}");
    assert_eq!(merged.nodes, 2, "both nodes merged");
    assert_eq!(
        merged.counter(CounterId::KeyedOverflow),
        0,
        "no bounded key table dropped a ledger row"
    );
    let ledger = ledger_of(&mut fleet);
    assert_eq!(merged.counter(CounterId::Dispatched), 20);
    assert_eq!(merged.counter(CounterId::Dispatched), ledger.dispatched);
    assert_eq!(
        merged.counter(CounterId::Enqueued),
        merged.counter(CounterId::Dispatched),
        "everything offered was dispatched"
    );
    assert_eq!(merged.counter(CounterId::Shed), ledger.shed);
    assert_eq!(ledger.shed, 0);

    // The snapshot wire format is lossless: the merged view survives
    // another encode/decode round trip bit for bit.
    assert_eq!(
        MetricsSnapshot::decode(&merged.encode()).unwrap(),
        merged,
        "fleet-merged snapshot round-trips"
    );
}

/// The acceptance scenario: a 4-node fleet over 5%-loss links serves
/// metrics end to end — per-tenant interpolated p50/p99, per-shard
/// queue depth, and shed + rate-limited + retransmit counters that
/// reconcile exactly with the `NodeStats` / `TransportStats` ledgers.
#[test]
fn four_node_lossy_fleet_merged_view_reconciles_exactly() {
    let key = SigningKey::from_seed(b"metrics-maintainer");
    let mut fleet = FcFleet::new(FleetConfig::default());
    // Node 0 tolerates exactly one deploy (rate-limit probe); node 1
    // has a 4-deep queue (shed probe); the rest are stock.
    let mut limited = lossy_node(&key, 0xacc3_0000, HostConfig::default());
    limited
        .endpoint_mut()
        .inner_mut()
        .updates_mut()
        .limit_tenant_rate(1, 1, 0.0);
    let limited_id = fleet.add_node(Box::new(limited)).unwrap();
    let congested = lossy_node(
        &key,
        0xacc3_0001,
        HostConfig {
            queue_capacity: 4,
            ..HostConfig::default()
        },
    );
    let congested_id = fleet.add_node(Box::new(congested)).unwrap();
    for seed in [0xacc3_0002u64, 0xacc3_0003] {
        fleet
            .add_node(Box::new(lossy_node(&key, seed, HostConfig::default())))
            .unwrap();
    }

    // Pick hooks by ring owner: exactly one on the rate-limited node
    // (its single deploy token must go to that hook), one on the
    // congested node, and a background population on the others.
    let mut limited_hook = None;
    let mut congested_hook = None;
    let mut background = Vec::new();
    for t in 0.. {
        let hook = Hook::new(
            &format!("acceptance-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        let owner = fleet.owner_of(hook.id).unwrap();
        if owner == limited_id && limited_hook.is_none() {
            limited_hook = Some(hook);
        } else if owner == congested_id && congested_hook.is_none() {
            congested_hook = Some(hook);
        } else if owner != limited_id && background.len() < 4 {
            background.push(hook);
        }
        if limited_hook.is_some() && congested_hook.is_some() && background.len() == 4 {
            break;
        }
    }
    let mut hooks = Vec::new();
    for hook in background
        .into_iter()
        .chain(congested_hook)
        .chain(limited_hook)
    {
        hooks.push(hook.id);
        fleet
            .register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
            .unwrap();
        let (envelope, payload) = signed_update(&key, *hooks.last().unwrap(), 1);
        fleet.deploy(&envelope, &payload).unwrap();
    }
    let congested_hook = hooks[4];
    let limited_hook = hooks[5];

    // A second deploy to the rate-limited owner is refused — and the
    // refusal lands in the node's rate-limited ledger.
    let (envelope, payload) = signed_update(&key, limited_hook, 2);
    assert!(
        matches!(
            fleet.deploy(&envelope, &payload),
            Err(NodeError::Rejected(_))
        ),
        "second deploy to the rate-limited node is refused"
    );

    // Traffic: 10 events per hook concurrently — except the congested
    // one, which instead takes a 12-event burst afterwards so its
    // 4-deep queue must shed.
    let work: Vec<(Uuid, Vec<HookEvent>)> = hooks
        .iter()
        .filter(|&&hook| hook != congested_hook)
        .map(|&hook| {
            (
                hook,
                (1..=10u8).map(|i| HookEvent::new(&[i], &[])).collect(),
            )
        })
        .collect();
    for (pos, outcome) in fleet.dispatch_all(work).into_iter().enumerate() {
        for reply in outcome.unwrap_or_else(|e| panic!("offer {pos}: {e}")) {
            reply.unwrap_or_else(|e| panic!("offer {pos}: {e}"));
        }
    }
    let burst: Vec<HookEvent> = (1..=12u8).map(|i| HookEvent::new(&[i], &[])).collect();
    let shed_replies: u64 = fleet
        .dispatch_batch(congested_hook, burst)
        .unwrap()
        .into_iter()
        .filter(|r| matches!(r, Err(NodeError::Shed)))
        .count() as u64;
    assert!(shed_replies > 0, "the 4-deep queue shed part of the burst");

    // Scrape + merge, then reconcile against the ledgers.
    let (merged, failed) = fleet.merged_metrics();
    assert!(failed.is_empty(), "every node answered: {failed:?}");
    assert_eq!(merged.nodes, 4, "all four nodes merged");
    assert_eq!(
        merged.counter(CounterId::KeyedOverflow),
        0,
        "no bounded key table dropped a ledger row"
    );
    let ledger = ledger_of(&mut fleet);

    assert_eq!(merged.counter(CounterId::Dispatched), ledger.dispatched);
    assert_eq!(merged.counter(CounterId::Shed), ledger.shed);
    assert_eq!(merged.counter(CounterId::Shed), shed_replies);
    assert_eq!(
        merged.counter(CounterId::Enqueued) + merged.counter(CounterId::Shed),
        50 + 12,
        "offered = enqueued + shed, fleet-wide"
    );
    assert_eq!(merged.counter(CounterId::DeploysRateLimited), 1);
    assert_eq!(merged.counter(CounterId::Retransmits), ledger.retransmits);
    assert!(
        merged.counter(CounterId::Retransmits) > 0,
        "the 5%-loss links forced retransmissions"
    );
    assert_eq!(merged.counter(CounterId::CoalescedFrames), ledger.coalesced);
    assert!(
        merged.gauge(GaugeId::VirtualNowUs) > 0,
        "virtual clocks advanced"
    );

    // Per-tenant view with interpolated quantiles.
    let tenant = merged.tenant(1).expect("tenant 1 appears in the view");
    assert_eq!(tenant.executions, merged.counter(CounterId::Dispatched));
    let p50 = tenant.latency.quantile_ns(0.50);
    let p99 = tenant.latency.quantile_ns(0.99);
    assert!(p50 > 0, "p50 interpolates to a real latency");
    assert!(p99 >= p50, "quantiles are monotone");

    // Per-hook view: the congested hook's row carries its shed count.
    let hook_row = merged.hook(&congested_hook).expect("congested hook row");
    assert_eq!(hook_row.shed, shed_replies);

    // Per-shard view: every (node, shard) pair distinct, all queues
    // drained at scrape time, per-shard dispatch sums to the total.
    let mut pairs: Vec<(u32, u32)> = merged.shards.iter().map(|s| (s.node, s.shard)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert_eq!(pairs.len(), merged.shards.len(), "shard rows stay distinct");
    assert!(merged.shards.iter().all(|s| s.queue_depth == 0));
    assert_eq!(
        merged.shards.iter().map(|s| s.dispatched).sum::<u64>(),
        merged.counter(CounterId::Dispatched),
        "per-shard dispatch reconciles with the fleet total"
    );
}

/// Counter audit across crash + restore: a restored node seeds its
/// counters from the journal's committed prefix only, so the merged
/// fleet view neither re-counts pre-crash dispatches nor loses them —
/// it reconciles **exactly** with the load the clients saw succeed.
#[test]
fn restored_node_does_not_recount_pre_crash_dispatches() {
    let key = SigningKey::from_seed(b"metrics-maintainer");
    let mut fleet = FcFleet::new(FleetConfig::default());
    let mut medias = Vec::new();
    let mut ids = Vec::new();
    for seed in [0x4e57_a9e1u64, 0x4e57_a9e2] {
        let media = JournalMedia::new();
        let mut node = LocalNode::durable(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig::default(),
            &media,
            DurabilityConfig::default(),
        );
        node.updates_mut()
            .provision_tenant(b"metrics-tenant", key.verifying_key(), 1);
        let remote = RemoteNode::new(
            node,
            RemoteConfig {
                link: LinkConfig {
                    loss: 0.05,
                    duplicate: 0.05,
                    jitter_us: 20_000,
                    mtu: FLEET_MTU,
                    seed,
                    ..LinkConfig::default()
                },
                max_retransmit: 8,
                window: 4,
                ..RemoteConfig::default()
            },
        );
        ids.push(fleet.add_node(Box::new(remote)).unwrap());
        medias.push(media);
    }
    let hooks = deploy_hooks(&mut fleet, &key, 4);

    // Phase 1: every dispatch succeeds, so the committed load is
    // exactly what the clients counted.
    let mut offered_ok = 0u64;
    for &hook in &hooks {
        for i in 1..=5u8 {
            fleet.dispatch(hook, HookEvent::new(&[i], &[])).unwrap();
            offered_ok += 1;
        }
    }

    // Kill the owner of hooks[0] with a pre-commit probe: the probe
    // executes on the doomed process but never commits, so it must
    // appear in NO ledger — the client sees a timeout.
    let victim = fleet.owner_of(hooks[0]).unwrap();
    let media = &medias[ids.iter().position(|&id| id == victim).unwrap()];
    media.set_crash_plan(CrashPlan {
        point: CrashPoint::PreCommit,
        after: 0,
    });
    let probe = fleet.dispatch(hooks[0], HookEvent::new(&[9], &[]));
    assert!(
        matches!(probe, Err(NodeError::Timeout)),
        "a crashed node answers nothing: {probe:?}"
    );

    // Restore the victim from its journal, handing back the
    // fleet-retained hook specs it owned, and swap it into the ring.
    let specs: Vec<_> = fleet
        .hook_specs()
        .into_iter()
        .filter(|(hook, _)| fleet.owner_of(hook.id) == Some(victim))
        .collect();
    assert!(!specs.is_empty(), "the victim owned at least hooks[0]");
    let mut back = LocalNode::restore(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig::default(),
        media,
        DurabilityConfig::default(),
        specs,
    )
    .expect("restore victim");
    back.updates_mut()
        .provision_tenant(b"metrics-tenant", key.verifying_key(), 1);
    fleet
        .replace_node_service(
            victim,
            Box::new(RemoteNode::new(
                back,
                RemoteConfig {
                    link: LinkConfig {
                        loss: 0.05,
                        duplicate: 0.05,
                        jitter_us: 20_000,
                        mtu: FLEET_MTU,
                        seed: 0x4e57_a9e3,
                        ..LinkConfig::default()
                    },
                    max_retransmit: 8,
                    window: 4,
                    // A fresh front tier must not collide with its
                    // predecessor's token space: the restored node's
                    // journal answers known tokens from the resume
                    // cache instead of executing.
                    initial_token: 1 << 32,
                    ..RemoteConfig::default()
                },
            )),
        )
        .expect("swap the restored node in");

    // Phase 2: the full fleet serves again, restored node included.
    for &hook in &hooks {
        for i in 1..=5u8 {
            fleet.dispatch(hook, HookEvent::new(&[i], &[])).unwrap();
            offered_ok += 1;
        }
    }

    let (merged, failed) = fleet.merged_metrics();
    assert!(failed.is_empty(), "every node answered: {failed:?}");
    assert_eq!(merged.nodes, 2);
    assert_eq!(
        merged.counter(CounterId::KeyedOverflow),
        0,
        "no bounded key table dropped a ledger row"
    );
    let ledger = ledger_of(&mut fleet);
    assert_eq!(
        merged.counter(CounterId::Dispatched),
        offered_ok,
        "pre-crash dispatches counted once — not re-counted, not lost"
    );
    assert_eq!(merged.counter(CounterId::Dispatched), ledger.dispatched);
    assert_eq!(
        merged.counter(CounterId::Enqueued),
        merged.counter(CounterId::Dispatched),
        "the uncommitted probe appears in no ledger"
    );
    assert_eq!(merged.counter(CounterId::Shed), 0);
    assert_eq!(
        merged.counter(CounterId::DeploysAccepted),
        hooks.len() as u64,
        "restored deploys seed the acceptance ledger exactly once"
    );
    let tenant = merged.tenant(1).expect("tenant 1 in the merged view");
    assert_eq!(
        tenant.executions,
        merged.counter(CounterId::Dispatched),
        "per-tenant executions reconcile across the restore"
    );
}
