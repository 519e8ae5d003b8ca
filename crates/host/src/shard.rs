//! One execution shard: a worker thread owning a [`HostingEngine`]
//! and draining its `Inbox`.
//!
//! Lifecycle commands travel on the control lane and are handled
//! before events in every scheduling round, so an install/attach
//! issued before a fire is always visible to that fire. Events execute
//! *outside* the inbox lock — the worker takes a batch, releases the
//! lock, runs the batch against its engine, then post-pays each
//! event's instruction cost to the DRR state on the next lock
//! acquisition.
//!
//! Events execute through [`HostingEngine::fire_hook`] — which is the
//! engine's batched entry point
//! ([`HostingEngine::fire_hook_batch`]) with a batch of one — at
//! **per-event granularity** deliberately: a panic is contained to one
//! event, replies stream as soon as each event completes, and fault
//! accounting stays per event. The batch amortisation lives where the
//! round-trips actually cost: producers enqueue whole vectors under
//! one inbox lock (`Inbox::enqueue_batch`), and the worker already
//! drains up to `drain_batch` events per lock acquisition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use fc_core::contract::{ContractOffer, ContractRequest};
use fc_core::engine::{
    ContainerId, ContainerSlot, EngineError, ExecutionReport, HostRegion, HostingEngine,
};
use fc_core::helpers_impl::HostEnv;
use fc_core::hooks::Hook;
use fc_kvstore::TenantId;
use fc_rbpf::vm::ExecConfig;
use fc_rtos::platform::{Engine as EngineFlavor, Platform};
use fc_suit::Uuid;

use crate::journal::{self, CommitRecord, Journal};
use crate::queue::Inbox;
use crate::telemetry::{DispatchRecord, MetricsRegistry, TraceKind};
use crate::{HostError, NodeError};

/// A lifecycle or query command routed to one shard's control lane.
pub(crate) enum Command {
    Install {
        id: ContainerId,
        name: String,
        tenant: TenantId,
        /// Shared with the host's retained spec and any replicas —
        /// one allocation per image, however many shards carry it.
        image: std::sync::Arc<[u8]>,
        request: ContractRequest,
        reply: SyncSender<Result<ContainerId, EngineError>>,
    },
    Eject {
        id: ContainerId,
        reply: SyncSender<Option<ContainerSlot>>,
    },
    Adopt {
        slot: Box<ContainerSlot>,
    },
    Attach {
        id: ContainerId,
        hook: Uuid,
        reply: SyncSender<Result<(), EngineError>>,
    },
    Detach {
        id: ContainerId,
        hook: Uuid,
        reply: SyncSender<Result<(), EngineError>>,
    },
    Remove {
        id: ContainerId,
        reply: SyncSender<bool>,
    },
    Execute {
        id: ContainerId,
        ctx: Vec<u8>,
        extra: Vec<HostRegion>,
        reply: SyncSender<Result<ExecutionReport, EngineError>>,
    },
    /// Installs, attaches and (optionally) retires a predecessor as
    /// **one** control-lane command — the live-deploy primitive. The
    /// whole swap executes between event drains, so every event fired
    /// at `attach` sees either the old container or the new one, never
    /// both and never neither.
    Deploy {
        id: ContainerId,
        name: String,
        tenant: TenantId,
        /// Shared with the host's retained spec (see `Install`).
        image: std::sync::Arc<[u8]>,
        request: ContractRequest,
        /// Hook to attach the fresh container to, when the deploy
        /// targets one registered on this shard.
        attach: Option<Uuid>,
        /// Predecessor to detach from `attach` and remove, atomically
        /// with the install.
        replace: Option<ContainerId>,
        reply: SyncSender<Result<(), EngineError>>,
    },
    RegisterHook {
        hook: Hook,
        offer: ContractOffer,
    },
    /// Drops a hook's registration, replying with the containers that
    /// were attached in attachment order (the migration contract).
    UnregisterHook {
        hook: Uuid,
        reply: SyncSender<Vec<ContainerId>>,
    },
    /// Zeroes a removed hook's cycle row in this worker's own lane, so
    /// a reused hook UUID never inherits a stale rebalancer count.
    /// Sent to every shard: the hook may have run on several.
    ClearHookCycles {
        hook: Uuid,
        done: SyncSender<()>,
    },
    SetExecConfig {
        config: ExecConfig,
    },
}

/// A point-in-time view of one shard, for balancing and benchmarks —
/// a read of the shard's telemetry lane (plus the container count
/// from placement), never a round trip to its worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index within the host.
    pub shard: usize,
    /// Containers installed on this shard's engine.
    pub containers: usize,
    /// Events this shard has executed.
    pub events: u64,
    /// Wall-clock nanoseconds this shard spent executing events. On a
    /// host with a core per worker this is the shard's busy time; on a
    /// core-starved box it includes preemption while other shards run.
    pub busy_ns: u64,
    /// Simulated platform cycles this shard's events consumed
    /// ([`fc_core::engine::HookReport::cycles`]) — the preemption-free
    /// busy measure behind capacity metrics.
    pub sim_cycles: u64,
    /// Simulated cycles of the hooks this shard **currently owns** —
    /// the signal the rebalancer picks hot hooks by, sorted by hook.
    /// A hook's entry sums its cycles over every shard it ever ran on,
    /// so it is monotone across migrations; an unregistered hook has no
    /// entry, and its cycles are cleared when it is removed.
    pub hook_cycles: Vec<(Uuid, u64)>,
}

/// The inbox plus its wakeup signal, shared producer/worker.
pub(crate) type SharedInbox = Arc<(Mutex<Inbox>, Condvar)>;

/// Accepted-but-not-executed event counter with a blocking wait:
/// producers `add` on acceptance, workers `sub` after execution (on
/// every path, including panics), and `wait_zero` parks instead of
/// burning a core — on a box with fewer cores than workers a spinning
/// waiter would steal CPU from the very shards it waits on.
#[derive(Debug, Default)]
pub(crate) struct OutstandingGauge {
    count: AtomicU64,
    lock: Mutex<()>,
    zero: Condvar,
}

impl OutstandingGauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&self) {
        self.count.fetch_add(1, Ordering::AcqRel);
    }

    pub fn add_n(&self, n: u64) {
        self.count.fetch_add(n, Ordering::AcqRel);
    }

    pub fn sub(&self) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Take the lock so a waiter between its count check and
            // its wait cannot miss this notification.
            let _guard = self.lock.lock().expect("gauge lock");
            self.zero.notify_all();
        }
    }

    pub fn wait_zero(&self) {
        if self.count.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut guard = self.lock.lock().expect("gauge lock");
        while self.count.load(Ordering::Acquire) != 0 {
            // The timeout is a belt-and-braces fallback; the notify
            // under lock makes lost wakeups impossible in the first
            // place.
            let (g, _) = self
                .zero
                .wait_timeout(guard, std::time::Duration::from_millis(10))
                .expect("gauge lock");
            guard = g;
        }
    }
}

/// Scheduling parameters handed to each worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardParams {
    pub quantum_insns: i64,
    pub drain_batch: usize,
}

/// Spawns one shard worker owning a fresh engine over `env`.
#[allow(clippy::too_many_arguments)] // internal wiring call, one site
pub(crate) fn spawn_shard(
    index: usize,
    platform: Platform,
    flavor: EngineFlavor,
    env: Arc<HostEnv>,
    inbox: SharedInbox,
    outstanding: Arc<OutstandingGauge>,
    telemetry: Arc<MetricsRegistry>,
    params: ShardParams,
    journal: Option<Arc<Journal>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("fc-host-shard-{index}"))
        .spawn(move || {
            run_shard(
                index,
                HostingEngine::with_env(platform, flavor, env),
                inbox,
                outstanding,
                telemetry,
                params,
                journal,
            );
        })
        .expect("spawn shard worker")
}

fn run_shard(
    index: usize,
    mut engine: HostingEngine,
    inbox: SharedInbox,
    outstanding: Arc<OutstandingGauge>,
    telemetry: Arc<MetricsRegistry>,
    params: ShardParams,
    journal: Option<Arc<Journal>>,
) {
    let (lock, cvar) = &*inbox;
    // Instruction costs of the last batch, post-paid to the DRR state.
    let mut charges: Vec<(Uuid, u64)> = Vec::new();

    loop {
        let (commands, batch) = {
            let mut inbox = lock.lock().expect("inbox lock");
            for (hook, insns) in charges.drain(..) {
                inbox.charge(hook, insns, params.quantum_insns);
            }
            loop {
                let commands: Vec<Command> = inbox.control.drain(..).collect();
                let batch = inbox.take_batch(params.quantum_insns, params.drain_batch);
                if !commands.is_empty() || !batch.is_empty() {
                    break (commands, batch);
                }
                if !inbox.open {
                    return;
                }
                inbox = cvar.wait(inbox).expect("inbox lock");
            }
        };

        for command in commands {
            handle_command(index, &mut engine, &telemetry, command);
        }

        let batch_len = batch.len();
        if batch_len > 0 {
            telemetry.trace(
                engine.env().now_us(),
                TraceKind::Drain,
                index as u64,
                batch_len as u64,
            );
        }
        for event in batch {
            let started = Instant::now();
            // On a durable host the worker captures the event's store
            // writes (thread-local, installed as the stores' sink) so
            // they land in the same commit record as the outcome.
            if journal.is_some() {
                journal::begin_capture();
            }
            // A host-side panic inside an event (e.g. a poisoned
            // shared-state lock in a helper) must not kill the worker:
            // a dead worker would strand its queues, hang quiesce()
            // and leave fire_sync callers blocked forever. VM faults
            // are already values, so a panic here is a host bug — the
            // event is recorded as a fault and the shard carries on.
            // Execution stays per event (`fire_hook` is the engine's
            // batch entry point with a batch of one) so panic blast
            // radius, reply latency and fault accounting all keep
            // single-event granularity; the batching amortisation
            // lives at the queue layer, where the round-trips cost.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.fire_hook(event.hook, &event.ctx, &event.extra)
            }));
            let writes = if journal.is_some() {
                journal::take_capture()
            } else {
                Vec::new()
            };
            let busy_ns = started.elapsed().as_nanos() as u64;
            let latency_ns = event.enqueued_at.elapsed().as_nanos() as u64;

            match outcome {
                Ok(result) => {
                    let mut insns = 0u64;
                    let mut faults = 0u64;
                    let mut cycles = 0u64;
                    let mut executions = 0u64;
                    let mut event_charges: Vec<(fc_kvstore::TenantId, u64)> = Vec::new();
                    if let Ok(report) = &result {
                        cycles = report.cycles;
                        executions = report.executions.len() as u64;
                        for exec in &report.executions {
                            let cost = exec.counts.total();
                            insns += cost;
                            faults += exec.result.is_err() as u64;
                            if let Some(slot) = engine.container(exec.container) {
                                if journal.is_some() {
                                    event_charges.push((slot.tenant, cost));
                                }
                                telemetry.record_tenant_execution(
                                    index,
                                    slot.tenant,
                                    cost,
                                    latency_ns,
                                );
                            }
                        }
                    }
                    // An empty hook still consumed a scheduling slot.
                    charges.push((event.hook, insns.max(1)));
                    telemetry.record_dispatch(
                        index,
                        &event.hook,
                        DispatchRecord {
                            latency_ns,
                            busy_ns,
                            insns,
                            faults,
                            cycles,
                        },
                    );
                    telemetry.trace_hook(
                        engine.env().now_us(),
                        TraceKind::Exec,
                        &event.hook,
                        insns,
                    );
                    // The write-ahead commit point: the record (writes
                    // + wire-level outcome) must be durable *before*
                    // the reply can leave the node. A `false` return
                    // means the node lost power at this seam — the
                    // reply is suppressed, exactly as a real crash
                    // between commit and send would.
                    let alive = match &journal {
                        Some(j) => {
                            let error;
                            j.commit(&CommitRecord {
                                hook: event.hook,
                                tag: event.durable_tag.as_ref(),
                                latency_ns,
                                insns,
                                faults,
                                charges: &event_charges,
                                writes: &writes,
                                outcome: match &result {
                                    Ok(report) => Ok(report),
                                    Err(e) => {
                                        error = NodeError::from(HostError::Engine(e.clone()));
                                        Err(&error)
                                    }
                                },
                            })
                        }
                        None => true,
                    };
                    if let Some(reply) = event.reply {
                        if alive {
                            telemetry.trace_hook(
                                engine.env().now_us(),
                                TraceKind::Reply,
                                &event.hook,
                                executions,
                            );
                            // A disinterested caller may have dropped
                            // the receiver.
                            let _ = reply.send(result);
                        }
                    }
                }
                Err(_panic) => {
                    // Never journal a panicked event: the engine's
                    // state is suspect and its captured writes are
                    // discarded with it.
                    charges.push((event.hook, 1));
                    telemetry.record_dispatch(
                        index,
                        &event.hook,
                        DispatchRecord {
                            latency_ns,
                            busy_ns,
                            faults: 1,
                            ..DispatchRecord::default()
                        },
                    );
                    // The reply sender drops without a send; a
                    // fire_sync caller observes HostError::Shed.
                }
            }
        }
        // Every event above is already in the lane, so a caller
        // returning from quiesce() sees its whole ledger.
        for _ in 0..batch_len {
            outstanding.sub();
        }
    }
}

fn handle_command(
    index: usize,
    engine: &mut HostingEngine,
    telemetry: &MetricsRegistry,
    command: Command,
) {
    match command {
        Command::Install {
            id,
            name,
            tenant,
            image,
            request,
            reply,
        } => {
            let _ = reply.send(engine.install_with_id(id, &name, tenant, &image, request));
        }
        Command::Deploy {
            id,
            name,
            tenant,
            image,
            request,
            attach,
            replace,
            reply,
        } => {
            let _ = reply.send(
                engine
                    .deploy_swap(id, &name, tenant, &image, request, attach, replace)
                    .map(|_| ()),
            );
        }
        Command::Eject { id, reply } => {
            let _ = reply.send(engine.eject(id));
        }
        Command::Adopt { slot } => {
            engine.adopt(*slot);
        }
        Command::Attach { id, hook, reply } => {
            let _ = reply.send(engine.attach(id, hook));
        }
        Command::Detach { id, hook, reply } => {
            let _ = reply.send(engine.detach(id, hook));
        }
        Command::Remove { id, reply } => {
            let _ = reply.send(engine.remove(id));
        }
        Command::Execute {
            id,
            ctx,
            extra,
            reply,
        } => {
            let _ = reply.send(engine.execute(id, &ctx, &extra));
        }
        Command::RegisterHook { hook, offer } => {
            engine.register_hook(hook, offer);
        }
        Command::UnregisterHook { hook, reply } => {
            let attached = engine
                .unregister_hook(hook)
                .map(|(_, attached)| attached)
                .unwrap_or_default();
            let _ = reply.send(attached);
        }
        Command::ClearHookCycles { hook, done } => {
            telemetry.clear_hook_cycles(index, &hook);
            let _ = done.send(());
        }
        Command::SetExecConfig { config } => {
            engine.set_exec_config(config);
        }
    }
}
