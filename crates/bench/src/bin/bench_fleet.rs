//! Fleet-tier throughput tracker: drives `fc-fleet` — N hosting nodes
//! behind the consistent-hash front, every node across the codec
//! adapter on a seeded lossy link — and splices a `fleet` section into
//! `BENCH_host.json`.
//!
//! The front tier drives every node's transport **window**
//! (`FcFleet::dispatch_all`, CoAP NSTART = 8 here): each wave offers
//! one batch per hook, the fleet partitions them by ring owner and
//! keeps all owners' windows full from one single-threaded pump loop.
//!
//! Measurements per (node count, loss rate):
//!
//! * **wall events/s** — offered events over wall-clock time, front
//!   tier included (wire codec, retransmission, dedup). Bounded by the
//!   host's core count: nodes execute on real worker threads, so a
//!   small CI box caps the achievable wall scaling (the JSON records
//!   the box's cores next to the ratio).
//! * **virtual events/s** — offered events over the *virtual* link
//!   time (max over nodes; each node's link clock is independent).
//!   Deterministic for a given seed — this is the metric that proves
//!   the window beats stop-and-wait, on any box.
//! * **capacity events/s** — offered events over the *maximum
//!   per-node* busy time in simulated platform cycles (each node
//!   reports its hottest shard): the repo's cycle-model capacity
//!   metric lifted one tier up, reflecting how evenly the ring spreads
//!   the hooks.
//! * **p99 dispatch latency** — worst node-side enqueue → completion
//!   p99 (the wire leg is virtual time, reported separately).
//! * **exactly-once ledger** — at every loss rate, the summed per-node
//!   `dispatched` must equal the offered stream and `shed` must be 0:
//!   drops were retransmitted, duplicates deduped, nothing executed
//!   twice.
//! * **transport stats** — per-node retransmits, in-flight high-water
//!   mark, out-of-order completions, smoothed RTT in virtual µs.
//! * **deploy fan-out** — one signed SUIT update pushed to *every*
//!   node concurrently (per-node accept/reject), wall latency per
//!   fan-out.
//!
//! Pass `--quick` for a smoke run (CI-sized budgets). Both modes
//! assert the windowed-vs-stop-and-wait virtual-time ratio (the
//! regression tripwire) and, on boxes with enough cores, the 1→4 node
//! wall-scaling ratio; only a full run splices its section into
//! `BENCH_host.json`.

use std::time::Instant;

use fc_core::contract::ContractOffer;
use fc_core::deploy::author_update;
use fc_core::helpers_impl::{helper_name_table, standard_helper_ids};
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_fleet::node::{RemoteConfig, RemoteNode, FLEET_MTU};
use fc_fleet::{FcFleet, FleetConfig};
use fc_host::{HookEvent, HostConfig, LocalNode};
use fc_net::link::LinkConfig;
use fc_rbpf::program::{FcProgram, ProgramBuilder};
use fc_rtos::platform::{Engine, Platform};
use fc_suit::{SigningKey, Uuid};

/// Hooks spread over the ring; enough that consistent hashing's spread
/// (not one lumpy arc) dominates the capacity metric.
const HOOKS: u32 = 24;
const WORKERS_PER_NODE: usize = 2;
/// Concurrent exchanges per node (CoAP NSTART) on the windowed runs.
const WINDOW: usize = 8;
/// Cores needed before the wall-scaling assertion is meaningful: the
/// 4 nodes' worker threads plus the front tier and the OS must not be
/// fighting for the same core.
const WALL_ASSERT_MIN_CORES: usize = 10;

/// The same §8.3-style responder-with-compute bench_host uses.
fn responder_program() -> FcProgram {
    ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm(
            "\
    mov r6, r1
    mov r1, 1
    mov r2, r10
    add r2, -8
    call bpf_fetch_shared
    ldxw r7, [r10-8]
    mov r8, 150
spin:
    add r7, 3
    sub r8, 1
    jne r8, 0, spin
    and r7, 0xffff
    mov r1, r6
    mov r2, 0x45
    call bpf_gcoap_resp_init
    mov r1, r6
    mov r2, 0
    call bpf_coap_add_format
    mov r1, r6
    call bpf_coap_opt_finish
    mov r8, r0
    ldxdw r1, [r6]
    add r1, r8
    mov r2, r7
    call bpf_fmt_u32_dec
    add r0, r8
    exit
",
        )
        .expect("assembles")
        .build()
}

fn provisioned_node(maintainer: &SigningKey) -> LocalNode {
    let mut node = LocalNode::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: WORKERS_PER_NODE,
            queue_capacity: 4096,
            drain_batch: 32,
            ..HostConfig::default()
        },
    );
    for t in 0..HOOKS {
        node.updates_mut().provision_tenant(
            format!("bench-t{t}").as_bytes(),
            maintainer.verifying_key(),
            t,
        );
        node.host()
            .env()
            .stores()
            .store(0, t, fc_kvstore::Scope::Tenant, 1, 2000 + t as i64)
            .expect("seeds tenant value");
    }
    node
}

/// Builds a fleet of `nodes` codec-adapter nodes at `loss` with the
/// given transport window, registers the hooks and SUIT-deploys the
/// responder onto each.
fn build_fleet(
    maintainer: &SigningKey,
    nodes: usize,
    loss: f64,
    window: usize,
) -> (FcFleet, Vec<Uuid>) {
    let mut fleet = FcFleet::new(FleetConfig::default());
    for i in 0..nodes {
        let remote = RemoteNode::new(
            provisioned_node(maintainer),
            RemoteConfig {
                link: LinkConfig {
                    loss,
                    duplicate: loss / 2.0,
                    jitter_us: if loss > 0.0 { 20_000 } else { 0 },
                    mtu: FLEET_MTU,
                    seed: 0x000f_1ee7 + i as u64,
                    ..LinkConfig::default()
                },
                max_retransmit: 8,
                window,
                ..RemoteConfig::default()
            },
        );
        fleet.add_node(Box::new(remote)).expect("node admitted");
    }
    let app = responder_program();
    let mut hooks = Vec::new();
    for t in 0..HOOKS {
        let hook = Hook::new(
            &format!("fleet-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        hooks.push(hook.id);
        fleet
            .register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
            .expect("hook registered");
        let (envelope, payload) = author_update(
            &app,
            hooks[t as usize],
            1,
            &format!("t{t}-v1"),
            maintainer,
            format!("bench-t{t}").as_bytes(),
        );
        let (_, report) = fleet.deploy(&envelope, &payload).expect("deploy accepted");
        assert!(report.attached);
    }
    (fleet, hooks)
}

struct FleetRun {
    nodes: usize,
    loss: f64,
    window: usize,
    wall_eps: f64,
    virtual_us: u64,
    virtual_eps: f64,
    capacity_eps: f64,
    p99_us: f64,
    hooks_per_node: Vec<usize>,
    dispatched: u64,
    retransmits: u64,
    in_flight_hwm: u64,
    out_of_order: u64,
    srtt_us: u64,
}

/// Offers `events` uniformly over the hooks in waves — one 16-event
/// batch per hook per wave, all hooks submitted together so every
/// owner node's window fills — and checks the exactly-once ledger.
fn fleet_run(
    maintainer: &SigningKey,
    nodes: usize,
    loss: f64,
    events: u64,
    window: usize,
) -> FleetRun {
    let (mut fleet, hooks) = build_fleet(maintainer, nodes, loss, window);
    let mut hooks_per_node = vec![0usize; nodes];
    for &hook in &hooks {
        hooks_per_node[fleet.owner_of(hook).expect("owned")] += 1;
    }
    let per_hook = events / HOOKS as u64;
    let event = || HookEvent {
        ctx: fc_core::helpers_impl::coap_ctx_bytes(64),
        extra: vec![fc_core::engine::HostRegion::read_write("pkt", vec![0; 64])],
    };
    let started = Instant::now();
    let mut remaining = per_hook;
    while remaining > 0 {
        let n = remaining.min(16) as usize;
        let work: Vec<(Uuid, Vec<HookEvent>)> = hooks
            .iter()
            .map(|&hook| (hook, (0..n).map(|_| event()).collect()))
            .collect();
        for replies in fleet.dispatch_all(work) {
            for reply in replies.expect("batch served") {
                let report = reply.expect("event neither lost nor shed");
                assert!(
                    report.combined.unwrap_or(0) > 4,
                    "responder formatted a PDU"
                );
            }
        }
        remaining -= n as u64;
    }
    let wall = started.elapsed();
    let offered = per_hook * HOOKS as u64;
    let platform = Platform::CortexM4;
    let mut dispatched = 0u64;
    let mut shed = 0u64;
    let mut max_busy_us = f64::MIN_POSITIVE;
    let mut p99_ns = 0u64;
    for (node, stats) in fleet.stats() {
        let stats = stats.unwrap_or_else(|e| panic!("node {node} stats: {e}"));
        dispatched += stats.dispatched;
        shed += stats.shed;
        max_busy_us = max_busy_us.max(platform.us_from_cycles(stats.max_shard_busy_cycles));
        p99_ns = p99_ns.max(stats.p99_ns);
    }
    assert_eq!(
        dispatched, offered,
        "exactly-once at loss {loss}: every offered event executed once"
    );
    assert_eq!(shed, 0, "exactly-once at loss {loss}: nothing shed");
    let mut virtual_us = 0u64;
    let mut retransmits = 0u64;
    let mut in_flight_hwm = 0u64;
    let mut out_of_order = 0u64;
    let mut srtt_us = 0u64;
    for (_, t) in fleet.transport_stats() {
        // Nodes run concurrently; the fleet finishes when the slowest
        // node's virtual clock does.
        virtual_us = virtual_us.max(t.virtual_now_us);
        retransmits += t.retransmits;
        in_flight_hwm = in_flight_hwm.max(t.in_flight_hwm);
        out_of_order += t.completed_out_of_order;
        srtt_us = srtt_us.max(t.srtt_us);
    }
    FleetRun {
        nodes,
        loss,
        window,
        wall_eps: offered as f64 / wall.as_secs_f64(),
        virtual_us,
        virtual_eps: offered as f64 * 1e6 / virtual_us.max(1) as f64,
        capacity_eps: offered as f64 * 1e6 / max_busy_us,
        p99_us: p99_ns as f64 / 1e3,
        hooks_per_node,
        dispatched,
        retransmits,
        in_flight_hwm,
        out_of_order,
        srtt_us,
    }
}

struct FanoutRun {
    nodes: usize,
    loss: f64,
    deploys: u64,
    mean_fanout_ms: f64,
    max_fanout_ms: f64,
}

/// Pushes `rounds` signed updates to EVERY node of the fleet — all
/// nodes' stage/deploy sequences driven concurrently — and measures
/// the wall latency of each full fan-out.
fn fanout_run(maintainer: &SigningKey, nodes: usize, loss: f64, rounds: u64) -> FanoutRun {
    let (mut fleet, hooks) = build_fleet(maintainer, nodes, loss, WINDOW);
    let app = responder_program();
    let mut latencies_ms = Vec::new();
    for round in 0..rounds {
        let t = (round % HOOKS as u64) as usize;
        let version = 2 + round / HOOKS as u64;
        let (envelope, payload) = author_update(
            &app,
            hooks[t],
            version,
            &format!("t{t}-v{version}"),
            maintainer,
            format!("bench-t{t}").as_bytes(),
        );
        let started = Instant::now();
        let outcomes = fleet.deploy_fanout(&envelope, &payload);
        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(outcomes.len(), nodes);
        let owner = fleet.owner_of(hooks[t]).expect("owned");
        for (node, outcome) in outcomes {
            let report = outcome.unwrap_or_else(|e| panic!("node {node} rejected fan-out: {e}"));
            assert_eq!(report.attached, node == owner);
        }
    }
    FanoutRun {
        nodes,
        loss,
        deploys: rounds,
        mean_fanout_ms: latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64,
        max_fanout_ms: latencies_ms.iter().copied().fold(0.0, f64::max),
    }
}

/// Splices `section` in as the (single) `"fleet"` key of
/// BENCH_host.json, preserving everything bench_host wrote. The fleet
/// section is kept last so re-runs of either binary are idempotent.
fn splice_fleet_section(section: &str) {
    let base = std::fs::read_to_string("BENCH_host.json")
        .unwrap_or_else(|_| "{\n  \"bench\": \"host\"\n}\n".to_owned());
    let head = match base.find(",\n  \"fleet\":") {
        Some(idx) => base[..idx].to_owned(),
        None => {
            let trimmed = base.trim_end();
            let trimmed = trimmed
                .strip_suffix('}')
                .expect("BENCH_host.json is a JSON object")
                .trim_end();
            trimmed.to_owned()
        }
    };
    let out = format!("{head},\n  \"fleet\": {section}\n}}\n");
    std::fs::write("BENCH_host.json", out).expect("writes BENCH_host.json");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test");
    let events: u64 = if quick { 2_400 } else { 12_000 };
    let fanouts: u64 = if quick { 6 } else { 24 };
    let maintainer = SigningKey::from_seed(b"bench-fleet-maintainer");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!(
        "fleet load mix: {HOOKS} hooks, {WORKERS_PER_NODE} workers/node, window {WINDOW}, {events} events/run over the codec adapter ({cores} cores)"
    );
    let mut runs = Vec::new();
    for &loss in &[0.0, 0.05] {
        for &nodes in &[1usize, 2, 4] {
            let r = fleet_run(&maintainer, nodes, loss, events, WINDOW);
            println!(
                "nodes {nodes} loss {loss:4.2}: wall {:8.0} ev/s   virtual {:8.0} ev/s   capacity {:9.0} ev/s   p99 {:7.1} µs   hooks/node {:?}",
                r.wall_eps, r.virtual_eps, r.capacity_eps, r.p99_us, r.hooks_per_node
            );
            println!(
                "            transport: retransmits {:4}   in-flight hwm {:2}   out-of-order {:4}   srtt {:6} µs",
                r.retransmits, r.in_flight_hwm, r.out_of_order, r.srtt_us
            );
            runs.push(r);
        }
    }
    // The stop-and-wait regression tripwire: the same 4-node workload
    // with window = 1 must take several times the virtual link time
    // the windowed transport takes. Deterministic per seed, so it
    // holds on any box.
    let mut baseline = Vec::new();
    for &loss in &[0.0, 0.05] {
        let r = fleet_run(&maintainer, 4, loss, events, 1);
        println!(
            "window-1 baseline, 4 nodes, loss {loss:4.2}: wall {:8.0} ev/s   virtual {:8.0} ev/s",
            r.wall_eps, r.virtual_eps
        );
        baseline.push(r);
    }
    let pick = |rs: &[FleetRun], nodes: usize, loss: f64| -> (f64, u64, f64) {
        let r = rs
            .iter()
            .find(|r| r.nodes == nodes && r.loss == loss)
            .expect("run exists");
        (r.capacity_eps, r.virtual_us, r.wall_eps)
    };
    let scaling = pick(&runs, 4, 0.0).0 / pick(&runs, 1, 0.0).0;
    let lossy_scaling = pick(&runs, 4, 0.05).0 / pick(&runs, 1, 0.05).0;
    let wall_scaling = pick(&runs, 4, 0.0).2 / pick(&runs, 1, 0.0).2;
    let window_speedup = pick(&baseline, 4, 0.0).1 as f64 / pick(&runs, 4, 0.0).1.max(1) as f64;
    let lossy_window_speedup =
        pick(&baseline, 4, 0.05).1 as f64 / pick(&runs, 4, 0.05).1.max(1) as f64;
    println!("capacity scaling 1→4 nodes: lossless {scaling:.2}x, 5% loss {lossy_scaling:.2}x");
    println!(
        "wall scaling 1→4 nodes: {wall_scaling:.2}x ({cores} cores; asserted ≥ 1.8 only with ≥ {WALL_ASSERT_MIN_CORES})"
    );
    println!(
        "windowed vs stop-and-wait virtual time, 4 nodes: lossless {window_speedup:.2}x, 5% loss {lossy_window_speedup:.2}x"
    );

    let mut fanout_runs = Vec::new();
    for &loss in &[0.0, 0.05] {
        let r = fanout_run(&maintainer, 4, loss, fanouts);
        println!(
            "deploy fan-out, 4 nodes, loss {loss:4.2}: {} fan-outs   mean {:7.2} ms   max {:7.2} ms",
            r.deploys, r.mean_fanout_ms, r.max_fanout_ms
        );
        fanout_runs.push(r);
    }

    // --- Splice the fleet section into BENCH_host.json --------------
    let mut s = String::from("{\n");
    s.push_str(&format!("    \"quick\": {quick},\n"));
    s.push_str(&format!("    \"hooks\": {HOOKS},\n"));
    s.push_str(&format!("    \"workers_per_node\": {WORKERS_PER_NODE},\n"));
    s.push_str(&format!("    \"window\": {WINDOW},\n"));
    s.push_str(&format!("    \"events_per_run\": {events},\n"));
    s.push_str(&format!("    \"host_cores\": {cores},\n"));
    s.push_str("    \"load\": \"per-wave batched dispatch_all over per-hook responders, all ring owners' transport windows driven concurrently; every node behind the CoAP codec adapter on a seeded lossy link (duplicate = loss/2, 20ms jitter when lossy); all deploys via fleet SUIT lane\",\n");
    s.push_str("    \"runs\": [\n");
    for (i, r) in runs.iter().chain(baseline.iter()).enumerate() {
        s.push_str(&format!(
            "      {{\"nodes\": {}, \"loss\": {:.2}, \"window\": {}, \"wall_events_per_sec\": {:.0}, \"virtual_events_per_sec\": {:.0}, \"virtual_time_us\": {}, \"capacity_events_per_sec\": {:.0}, \"p99_dispatch_us\": {:.1}, \"hooks_per_node\": {:?}, \"dispatched\": {}, \"retransmits\": {}, \"in_flight_hwm\": {}, \"out_of_order\": {}, \"srtt_us\": {}}}{}\n",
            r.nodes,
            r.loss,
            r.window,
            r.wall_eps,
            r.virtual_eps,
            r.virtual_us,
            r.capacity_eps,
            r.p99_us,
            r.hooks_per_node,
            r.dispatched,
            r.retransmits,
            r.in_flight_hwm,
            r.out_of_order,
            r.srtt_us,
            if i + 1 < runs.len() + baseline.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"capacity_scaling_1_to_4_nodes\": {scaling:.2},\n"
    ));
    s.push_str(&format!(
        "    \"capacity_scaling_1_to_4_nodes_at_5pct_loss\": {lossy_scaling:.2},\n"
    ));
    s.push_str(&format!(
        "    \"wall_scaling_1_to_4_nodes\": {wall_scaling:.2},\n"
    ));
    s.push_str(&format!(
        "    \"wall_scaling_asserted\": {},\n",
        cores >= WALL_ASSERT_MIN_CORES
    ));
    s.push_str(&format!(
        "    \"window_speedup_virtual_time_4_nodes\": {window_speedup:.2},\n"
    ));
    s.push_str(&format!(
        "    \"window_speedup_virtual_time_4_nodes_at_5pct_loss\": {lossy_window_speedup:.2},\n"
    ));
    s.push_str("    \"deploy_fanout\": [\n");
    for (i, r) in fanout_runs.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"nodes\": {}, \"loss\": {:.2}, \"fanouts\": {}, \"mean_fanout_ms\": {:.2}, \"max_fanout_ms\": {:.2}}}{}\n",
            r.nodes,
            r.loss,
            r.deploys,
            r.mean_fanout_ms,
            r.max_fanout_ms,
            if i + 1 < fanout_runs.len() { "," } else { "" }
        ));
    }
    s.push_str("    ],\n");
    s.push_str("    \"metric_note\": \"capacity = events / max per-node busy time (each node's hottest shard, simulated cycles): the throughput the ring layout sustains with real hardware per node. Virtual events/s = events / max per-node virtual link time — deterministic per seed, the window-vs-stop-and-wait comparison. Wall events/s includes the real front tier and is bounded by host_cores; the 1.8x wall-scaling assertion arms only at 10+ cores. Exactly-once is asserted at every loss rate: summed per-node dispatched == offered, shed == 0.\",\n");
    s.push_str("    \"semantics\": \"a 1-node fleet over a lossless link at window 1 is bit-identical to a bare FcHost; window > 1 relinquishes cross-batch ordering only (RFC 7252 4.7); lossy runs lose no events and double-execute none (tests/host_differential.rs, crates/fleet/tests)\"\n");
    s.push_str("  }");
    if quick {
        println!("quick mode: BENCH_host.json not spliced (numbers too noisy)");
    } else {
        splice_fleet_section(&s);
        println!("spliced fleet section into BENCH_host.json");
    }

    assert!(
        scaling >= 2.0,
        "fleet capacity scaling 1→4 nodes regressed below 2.0x: {scaling:.2}"
    );
    assert!(
        lossy_scaling >= 2.0,
        "lossy fleet capacity scaling regressed below 2.0x: {lossy_scaling:.2}"
    );
    // The deterministic windowed-transport assertions: if someone
    // regresses the transport back to stop-and-wait, the virtual link
    // time collapses onto the baseline and these fail — on any box.
    assert!(
        window_speedup >= 2.5,
        "windowed transport no faster than stop-and-wait in virtual time: {window_speedup:.2}x"
    );
    assert!(
        lossy_window_speedup >= 2.0,
        "lossy windowed transport no faster than stop-and-wait in virtual time: {lossy_window_speedup:.2}x"
    );
    // Wall scaling needs real cores to mean anything: with the 4-node
    // fleet's 8 worker threads multiplexed onto a 1-2 core CI box,
    // wall time measures the scheduler, not the transport. Assert the
    // target ratio when the box can physically show it; always assert
    // the no-collapse floor.
    if cores >= WALL_ASSERT_MIN_CORES {
        assert!(
            wall_scaling >= 1.8,
            "fleet wall scaling 1→4 nodes regressed below 1.8x on a {cores}-core box: {wall_scaling:.2}"
        );
    }
    assert!(
        wall_scaling >= 0.5,
        "fleet wall throughput collapsed going 1→4 nodes: {wall_scaling:.2}x"
    );
    for r in &fanout_runs {
        assert!(
            r.mean_fanout_ms > 0.0 && r.deploys > 0,
            "fan-outs must have landed"
        );
    }
    // The ring must actually spread hooks at 4 nodes.
    let spread = runs
        .iter()
        .find(|r| r.nodes == 4 && r.loss == 0.0)
        .expect("run exists");
    assert!(
        spread.hooks_per_node.iter().filter(|n| **n > 0).count() >= 3,
        "hooks concentrated: {:?}",
        spread.hooks_per_node
    );
}
