//! # fc-host — the concurrent multi-tenant hosting runtime
//!
//! The paper runs one hosting engine on one microcontroller. This crate
//! is the layer above for the repo's north star — serving heavy traffic
//! as fast as the hardware allows: a **work-queue executor over N
//! engine shards** that keeps every per-device semantic intact while
//! scaling event dispatch with worker threads.
//!
//! ```text
//!             producers (CoAP front-end, RTOS glue, tests)
//!                │ fire(hook, ctx, regions)
//!                ▼ routed by hook → owning shard
//!   ┌─ shard 0 ──────────────┐   ┌─ shard 1 ──────────────┐
//!   │ control lane (install, │   │                        │
//!   │   attach, …)           │   │          …             │
//!   │ per-hook bounded FIFOs │   │                        │
//!   │   (DRR over insn       │   │                        │
//!   │    budgets, shed       │   │                        │
//!   │    policies)           │   │                        │
//!   │        ▼ batch drain   │   │        ▼               │
//!   │ worker thread owning a │   │ worker thread owning a │
//!   │ HostingEngine          │   │ HostingEngine          │
//!   └───────────┬────────────┘   └──────────┬─────────────┘
//!               └────────────┬──────────────┘
//!                            ▼
//!          shared HostEnv (Arc): sharded kv-store locks,
//!          SAUL registry, console, virtual clock
//! ```
//!
//! What lives where:
//!
//! * **Shared** ([`fc_core::helpers_impl::HostEnv`]): the key-value
//!   stores (behind [`fc_kvstore::ShardedStores`]' sharded locks — the
//!   global scope is the sanctioned cross-container channel and must
//!   stay coherent across shards), the SAUL sensors, the console, and
//!   the virtual clock.
//! * **Per shard**: a whole [`fc_core::engine::HostingEngine`] — slots,
//!   lowered programs, helper registries, execution arenas. Nothing
//!   here is locked; the shard's worker thread owns it outright. The
//!   `Send` boundary that makes this legal is enforced in `fc-rbpf`
//!   (see its crate docs) and `fc-core`.
//!
//! Scheduling is deficit round-robin **in instruction units** over the
//! per-hook queues ([`queue`] module docs), so a tenant burning long
//! programs cannot starve its neighbours — the multi-tenant fairness
//! obligation the paper meets with per-execution budgets, carried up
//! to the queue layer. Full queues shed ([`ShedPolicy`]) instead of
//! growing without bound.
//!
//! The [`coap::CoapFront`] maps tenant resource paths onto
//! `CoapRequest` hooks, turning the host into a CoAP server shape: per
//! hook, events behave exactly like the paper's single device (the
//! differential suite proves per-event reports identical to
//! [`fc_core::engine::HostingEngine::fire_hook`]); across hooks, the
//! shards run concurrently.
//!
//! Two amortisation layers sit on top:
//!
//! * **Batched fires** ([`FcHost::fire_batch`],
//!   [`CoapFront::dispatch_batch`]): a vector of events rides one
//!   queue round-trip into the shard's inbox, which the worker drains
//!   batch-wise — per-event reports stay bit-identical to the
//!   single-event path.
//! * **Hot-shard rebalancing** ([`rebalance::Rebalancer`]): hooks are
//!   placed round-robin at registration, blind to event cost; the
//!   rebalancer watches per-shard simulated busy time and migrates hot
//!   hooks — queue, registration and containers
//!   ([`FcHost::migrate_hook`]) — onto underloaded shards, with
//!   hysteresis so it never thrashes. With
//!   [`HostConfig::rebalance_interval`] set, the host folds the
//!   rebalancer in and observes **in-band** every N dispatched events;
//!   no caller-driven `observe()` loop needed.
//!
//! And the paper's headline capability runs live on top of both:
//! **secure OTA deployment without quiescing**
//! ([`deploy::LiveUpdateService`]). SUIT payloads stage block-wise
//! over the CoAP front-end (`/suit/payload`, `/suit/manifest` —
//! [`CoapFront::dispatch_suit`]), the manifest is verified against the
//! tenant's provisioned key, and the install + attach + predecessor
//! swap ride the target shard's **control lane** as one command
//! between event drains ([`FcHost::deploy_verified`]), so every event
//! sees either the old container or the new one — never both, never
//! neither.
//!
//! Finally, the whole per-node surface — hook lifecycle, dispatch,
//! SUIT staging/deploy, stats — is captured by the transport-agnostic
//! [`service::NodeService`] trait ([`service::LocalNode`] is the
//! in-process adapter), which is what lets `fc-fleet` replicate this
//! host N times behind a consistent-hashing front tier and drive every
//! node over a lossy link without changing per-node semantics.
//!
//! See `ARCHITECTURE.md` at the repository root for the full design.

#![deny(missing_docs)]

pub mod coap;
pub mod deploy;
pub mod host;
pub mod journal;
pub mod queue;
pub mod rebalance;
pub mod service;
pub mod shard;
pub mod telemetry;
pub mod wire;

pub use coap::{CoapFront, CoapReply};
pub use deploy::{DeployPoll, DeployReport, LiveDeployError, LiveUpdateService};
pub use host::{DeployOutcome, FcHost, HookEvent, HostConfig, HostError};
pub use journal::{
    crc32, CounterSeeds, CrashPlan, CrashPoint, DeployRecord, DurabilityConfig, DurableTag,
    Journal, JournalError, JournalMedia, JournalOps, KvWrite, RecoveredExchange, RecoveredState,
    TagKind,
};
pub use queue::{Accepted, BatchAccepted, ShedPolicy};
pub use rebalance::{HookMove, RebalanceConfig, RebalanceReport, Rebalancer};
pub use service::{
    LocalNode, NodeError, NodeReply, NodeService, NodeStats, Ticket, TransportStats, WindowedNode,
};
pub use shard::ShardReport;
pub use telemetry::{
    CounterId, GaugeId, HistogramSnapshot, HookMetrics, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, ShardMetrics, SnapshotError, TelemetryConfig, TenantMetrics, TraceEvent,
    TraceKind, TraceRing,
};

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::contract::{ContractOffer, ContractRequest};
    use fc_core::helpers_impl::standard_helper_ids;
    use fc_core::hooks::{Hook, HookKind, HookPolicy};
    use fc_rbpf::program::ProgramBuilder;
    use fc_rtos::platform::{Engine, Platform};
    use fc_suit::Uuid;

    fn host(workers: usize) -> FcHost {
        FcHost::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers,
                ..HostConfig::default()
            },
        )
    }

    fn image(src: &str) -> Vec<u8> {
        ProgramBuilder::new()
            .helpers(
                fc_core::helpers_impl::helper_name_table()
                    .iter()
                    .map(|(n, i)| (n.as_str(), *i)),
            )
            .asm(src)
            .unwrap()
            .build()
            .to_bytes()
    }

    fn custom_hook(name: &str, policy: HookPolicy) -> Hook {
        Hook::new(name, HookKind::Custom, policy)
    }

    #[test]
    fn install_attach_fire_roundtrip() {
        let mut h = host(2);
        let hook = custom_hook("sum", HookPolicy::Sum);
        let hook_id = hook.id;
        h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        let a = h
            .install(
                "a",
                1,
                &image("mov r0, 40\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let b = h
            .install(
                "b",
                2,
                &image("mov r0, 2\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        h.attach(a, hook_id).unwrap();
        h.attach(b, hook_id).unwrap();
        let report = h.fire_sync(hook_id, &[], &[]).unwrap();
        assert_eq!(report.combined, Some(42));
        assert_eq!(report.executions.len(), 2);
        h.shutdown();
    }

    #[test]
    fn install_errors_propagate_from_the_shard() {
        let mut h = host(2);
        assert!(matches!(
            h.install("bad", 1, b"garbage", ContractRequest::default()),
            Err(HostError::Engine(fc_core::EngineError::Parse(_)))
        ));
        h.shutdown();
    }

    #[test]
    fn zero_quantum_config_cannot_livelock_the_scheduler() {
        let mut h = FcHost::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers: 1,
                quantum_insns: 0,
                ..HostConfig::default()
            },
        );
        let hook = custom_hook("zq", HookPolicy::First);
        let hook_id = hook.id;
        h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        let c = h
            .install(
                "c",
                1,
                &image("mov r0, 3\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        h.attach(c, hook_id).unwrap();
        assert_eq!(h.fire_sync(hook_id, &[], &[]).unwrap().combined, Some(3));
        h.shutdown();
    }

    #[test]
    fn fire_unknown_hook_is_rejected() {
        let h = host(1);
        let ghost = Uuid::from_name("test", "ghost");
        assert_eq!(h.fire(ghost, &[], &[]), Err(HostError::UnknownHook(ghost)));
    }

    #[test]
    fn hooks_spread_round_robin_and_containers_follow() {
        let mut h = host(4);
        let mut shards = Vec::new();
        for i in 0..4 {
            let hook = custom_hook(&format!("h{i}"), HookPolicy::First);
            let hook_id = hook.id;
            h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
            let c = h
                .install(
                    &format!("c{i}"),
                    i,
                    &image("mov r0, 1\nexit"),
                    ContractRequest::default(),
                )
                .unwrap();
            h.attach(c, hook_id).unwrap();
            assert_eq!(
                h.shard_of(c),
                h.shard_of_hook(hook_id),
                "container follows hook"
            );
            shards.push(h.shard_of_hook(hook_id).unwrap());
        }
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2, 3], "hooks cover all shards");
        h.shutdown();
    }

    #[test]
    fn container_on_two_hooks_gets_a_replica_with_shared_local_store() {
        let mut h = host(2);
        let h1 = custom_hook("first", HookPolicy::First);
        let h2 = custom_hook("second", HookPolicy::First);
        let (id1, id2) = (h1.id, h2.id);
        h.register_hook(h1, ContractOffer::helpers(standard_helper_ids()));
        h.register_hook(h2, ContractOffer::helpers(standard_helper_ids()));
        assert_ne!(h.shard_of_hook(id1), h.shard_of_hook(id2));
        // Bumps local key 1 and returns the new value.
        let src = "\
mov r1, 1
mov r2, r10
add r2, -8
call bpf_fetch_local
ldxw r6, [r10-8]
add r6, 1
mov r1, 1
mov r2, r6
call bpf_store_local
mov r0, r6
exit";
        let req = ContractRequest::helpers([
            fc_rbpf::helpers::ids::BPF_FETCH_LOCAL,
            fc_rbpf::helpers::ids::BPF_STORE_LOCAL,
        ]);
        let c = h.install("counter", 7, &image(src), req).unwrap();
        h.attach(c, id1).unwrap();
        h.attach(c, id2).unwrap();
        // Replicas on both shards share the container-local store.
        assert_eq!(h.fire_sync(id1, &[], &[]).unwrap().combined, Some(1));
        assert_eq!(h.fire_sync(id2, &[], &[]).unwrap().combined, Some(2));
        assert_eq!(h.fire_sync(id1, &[], &[]).unwrap().combined, Some(3));
        h.shutdown();
    }

    #[test]
    fn detach_and_remove_clean_up() {
        let mut h = host(2);
        let hook = custom_hook("x", HookPolicy::First);
        let hook_id = hook.id;
        h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        let c = h
            .install(
                "c",
                1,
                &image("mov r0, 5\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        h.attach(c, hook_id).unwrap();
        h.detach(c, hook_id).unwrap();
        assert_eq!(h.fire_sync(hook_id, &[], &[]).unwrap().combined, None);
        assert!(h.remove(c));
        assert!(!h.remove(c));
        assert!(matches!(
            h.execute(c, &[], &[]),
            Err(HostError::UnknownContainer(_))
        ));
        h.shutdown();
    }

    #[test]
    fn backpressure_sheds_and_reports() {
        let mut h = FcHost::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers: 1,
                queue_capacity: 2,
                shed: ShedPolicy::DropNewest,
                ..HostConfig::default()
            },
        );
        // A hook that is slow enough to back the queue up: the gate
        // container spins through its whole (small) budget.
        let gate = custom_hook("gate", HookPolicy::First);
        let gate_id = gate.id;
        h.register_hook(gate, ContractOffer::helpers(standard_helper_ids()));
        h.set_exec_config(fc_rbpf::vm::ExecConfig::new(2_000_000, 1_000_000));
        let spin = "\
mov r0, 0
mov r1, 300000
loop: sub r1, 1
jne r1, 0, loop
exit";
        let c = h
            .install("spin", 1, &image(spin), ContractRequest::default())
            .unwrap();
        h.attach(c, gate_id).unwrap();
        let mut shed = 0u64;
        for _ in 0..200 {
            if h.fire(gate_id, &[], &[]) == Err(HostError::Shed) {
                shed += 1;
            }
        }
        assert!(shed > 0, "offered 200 events into a capacity-2 queue");
        assert!(h.metrics_snapshot().shed_rate() > 0.0);
        h.quiesce();
        let done = h.metrics_snapshot().counter(CounterId::Dispatched);
        assert_eq!(done + shed, 200);
        h.shutdown();
    }

    #[test]
    fn fire_batch_delivers_every_event_with_one_round_trip() {
        let mut h = host(2);
        let hook = custom_hook("batch", HookPolicy::First);
        let hook_id = hook.id;
        h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        // Echoes the first context byte.
        let c = h
            .install(
                "echo",
                1,
                &image("ldxb r0, [r1]\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        h.attach(c, hook_id).unwrap();
        let events: Vec<host::HookEvent> =
            (0..10u8).map(|i| host::HookEvent::new(&[i], &[])).collect();
        let receivers = h.fire_batch_with_reply(hook_id, events).unwrap();
        for (i, rx) in receivers.into_iter().enumerate() {
            let report = rx.recv().unwrap().unwrap();
            assert_eq!(report.combined, Some(i as u64), "per-event reply order");
        }
        assert_eq!(
            h.metrics_snapshot().counter(CounterId::Batches),
            1,
            "one queue round-trip for the whole batch"
        );
        // The no-reply flavour counts acceptance.
        let out = h
            .fire_batch(hook_id, vec![host::HookEvent::default(); 5])
            .unwrap();
        assert_eq!(out.accepted, 5);
        assert_eq!(out.rejected + out.displaced, 0);
        h.quiesce();
        h.shutdown();
    }

    #[test]
    fn fire_batch_sheds_per_event_at_capacity() {
        let mut h = FcHost::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers: 1,
                queue_capacity: 4,
                shed: ShedPolicy::DropNewest,
                ..HostConfig::default()
            },
        );
        let gate = custom_hook("gate", HookPolicy::First);
        let gate_id = gate.id;
        h.register_hook(gate, ContractOffer::helpers(standard_helper_ids()));
        h.set_exec_config(fc_rbpf::vm::ExecConfig::new(2_000_000, 1_000_000));
        let spin = "\
mov r0, 0
mov r1, 200000
loop: sub r1, 1
jne r1, 0, loop
exit";
        let c = h
            .install("spin", 1, &image(spin), ContractRequest::default())
            .unwrap();
        h.attach(c, gate_id).unwrap();
        let mut accepted = 0usize;
        let mut shed = 0usize;
        for _ in 0..20 {
            let out = h
                .fire_batch(gate_id, vec![host::HookEvent::default(); 10])
                .unwrap();
            accepted += out.accepted;
            shed += out.rejected + out.displaced;
        }
        assert!(shed > 0, "tiny queue must shed under batch pressure");
        h.quiesce();
        let snap = h.metrics_snapshot();
        let dispatched = snap.counter(CounterId::Dispatched) as usize;
        assert_eq!(dispatched, accepted, "every accepted event executed");
        assert_eq!(snap.counter(CounterId::Shed) as usize, shed);
        h.shutdown();
    }

    #[test]
    fn migrate_hook_moves_queue_containers_and_routing() {
        let mut h = host(2);
        let hook = custom_hook("mig", HookPolicy::Sum);
        let hook_id = hook.id;
        h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        let from = h.shard_of_hook(hook_id).unwrap();
        let to = (from + 1) % 2;
        let a = h
            .install(
                "a",
                1,
                &image("mov r0, 40\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let b = h
            .install(
                "b",
                2,
                &image("mov r0, 2\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        h.attach(a, hook_id).unwrap();
        h.attach(b, hook_id).unwrap();
        h.migrate_hook(hook_id, to).unwrap();
        assert_eq!(h.shard_of_hook(hook_id), Some(to), "routing flipped");
        assert_eq!(h.shard_of(a), Some(to), "containers followed");
        assert_eq!(h.shard_of(b), Some(to));
        let report = h.fire_sync(hook_id, &[], &[]).unwrap();
        assert_eq!(report.combined, Some(42), "attachment order preserved");
        assert_eq!(h.metrics_snapshot().counter(CounterId::Migrations), 1);
        // Migrating to the same shard is a no-op; bad shard errors.
        h.migrate_hook(hook_id, to).unwrap();
        assert!(matches!(
            h.migrate_hook(hook_id, 9),
            Err(HostError::InvalidShard(9))
        ));
        // Lifecycle keeps working against the new shard.
        h.detach(a, hook_id).unwrap();
        assert_eq!(h.fire_sync(hook_id, &[], &[]).unwrap().combined, Some(2));
        h.shutdown();
    }

    #[test]
    fn migrate_hook_carries_pending_events_unshed() {
        let mut h = FcHost::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers: 2,
                queue_capacity: 512,
                ..HostConfig::default()
            },
        );
        let hook = custom_hook("pending", HookPolicy::First);
        let hook_id = hook.id;
        h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        // Slow container so events pile up behind the first.
        h.set_exec_config(fc_rbpf::vm::ExecConfig::new(2_000_000, 1_000_000));
        let spin = "\
mov r0, 7
mov r1, 100000
loop: sub r1, 1
jne r1, 0, loop
exit";
        let c = h
            .install("spin", 1, &image(spin), ContractRequest::default())
            .unwrap();
        h.attach(c, hook_id).unwrap();
        let receivers: Vec<_> = (0..40)
            .map(|_| h.fire_with_reply(hook_id, &[], &[]).unwrap())
            .collect();
        let to = (h.shard_of_hook(hook_id).unwrap() + 1) % 2;
        h.migrate_hook(hook_id, to).unwrap();
        // Every accepted event completes — none were shed by the move.
        for rx in receivers {
            assert_eq!(rx.recv().expect("not shed").unwrap().combined, Some(7));
        }
        h.quiesce();
        assert_eq!(h.telemetry().dispatched(), 40);
        h.shutdown();
    }

    #[test]
    fn coap_front_serves_formatter_response() {
        let mut h = host(2);
        let hook = Hook::new("coap-t0", HookKind::CoapRequest, HookPolicy::First);
        let hook_id = hook.id;
        h.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        // Seed the tenant store like the sensor pipeline would.
        h.env()
            .stores()
            .store(0, 2, fc_kvstore::Scope::Tenant, 1, 2155)
            .unwrap();
        let c = h
            .install(
                "fmt",
                2,
                &fc_core::apps::coap_formatter().to_bytes(),
                fc_core::apps::coap_formatter_request(),
            )
            .unwrap();
        h.attach(c, hook_id).unwrap();
        let mut front = CoapFront::new().with_pkt_len(64);
        front.add_route("t0/temp", hook_id);
        let mut req = fc_net::coap::Message::request(fc_net::coap::Code::Get, 7, b"t");
        req.set_path("t0/temp");
        let reply = front.dispatch_sync(&h, &req).unwrap();
        let msg = reply.message.expect("parses as CoAP");
        assert_eq!(msg.code, fc_net::coap::Code::Content);
        assert_eq!(msg.payload, b"2155");
        assert!(coap::is_content_response(&reply.pdu));
        h.shutdown();
    }

    #[test]
    fn stats_track_tenant_instruction_shares() {
        let mut h = host(2);
        let heavy = custom_hook("heavy", HookPolicy::First);
        let light = custom_hook("light", HookPolicy::First);
        let (heavy_id, light_id) = (heavy.id, light.id);
        h.register_hook(heavy, ContractOffer::helpers(standard_helper_ids()));
        h.register_hook(light, ContractOffer::helpers(standard_helper_ids()));
        let loop_src = "\
mov r0, 0
mov r1, 500
loop: sub r1, 1
jne r1, 0, loop
exit";
        let hc = h
            .install("heavy", 1, &image(loop_src), ContractRequest::default())
            .unwrap();
        let lc = h
            .install(
                "light",
                2,
                &image("mov r0, 1\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        h.attach(hc, heavy_id).unwrap();
        h.attach(lc, light_id).unwrap();
        for _ in 0..10 {
            h.fire(heavy_id, &[], &[]).unwrap();
            h.fire(light_id, &[], &[]).unwrap();
        }
        h.quiesce();
        let snap = h.metrics_snapshot();
        assert_eq!(snap.tenants.len(), 2);
        let (t1, t2) = (&snap.tenants[0], &snap.tenants[1]);
        assert_eq!((t1.tenant, t2.tenant), (1, 2));
        assert_eq!(t1.executions, 10);
        assert_eq!(t2.executions, 10);
        assert!(t1.insns > 50 * t2.insns, "heavy tenant's share is visible");
        assert_eq!(snap.latency.count(), 20);
        h.shutdown();
    }
}
