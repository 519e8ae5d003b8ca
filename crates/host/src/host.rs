//! The concurrent multi-tenant host: N engine shards behind per-hook
//! event queues, with lifecycle routed through a shard map keyed by
//! container id.
//!
//! ## Placement
//!
//! * **Hooks own shards.** Each registered hook is assigned a shard
//!   round-robin; every event for that hook executes on that shard's
//!   engine. A hook fire therefore runs its attached containers in
//!   attachment order on one thread — per-event results are *identical*
//!   to the single-threaded [`HostingEngine::fire_hook`] path (the
//!   differential suite in `tests/host_differential.rs` enforces this).
//! * **Containers follow their hooks.** `install` places a container
//!   on the least-loaded shard; the first `attach` migrates the slot
//!   (eject/adopt) to the hook's shard when it is still unattached, and
//!   later attaches to hooks on *other* shards install replicas from
//!   the retained image. Replicas share the container id — and hence
//!   the same local store in the shared [`HostEnv`] — so placement is
//!   invisible to the container.
//!
//! ## Concurrency model
//!
//! All placement state (hook→shard routing, container→shard carriage,
//! attachment sets, retained specs) lives behind one `RwLock`:
//!
//! * **fires** take the read lock for routing *and hold it across the
//!   inbox push*, so an accepted event always lands on a live queue —
//!   a migration can never shed it by racing the enqueue;
//! * **lifecycle mutations** (install, attach, deploy, migrate, …)
//!   take the write lock for their whole critical section, which
//!   serializes them against each other and against every fire. A
//!   deploy racing a migration of its target hook therefore resolves
//!   in caller order: whichever runs second sees the other's placement.
//!
//! Shard workers never touch the placement lock, so queued events keep
//! draining while a lifecycle operation holds it — lifecycle stalls
//! *enqueues*, never execution. This is what lets a SUIT deploy land on
//! a loaded host without quiescing it.
//!
//! Throughput scales with shards because distinct hooks (in the CoAP
//! front-end: distinct tenant resources) dispatch concurrently, while
//! everything genuinely shared (stores, sensors, console, clock) lives
//! in the `HostEnv` behind sharded locks.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use fc_core::contract::{ContractOffer, ContractRequest};
use fc_core::engine::{
    ContainerId, EngineError, ExecutionReport, HookReport, HostRegion, HostingEngine,
};
use fc_core::helpers_impl::HostEnv;
use fc_core::hooks::Hook;
use fc_kvstore::TenantId;
use fc_rbpf::vm::ExecConfig;
use fc_rtos::platform::{Engine as EngineFlavor, Platform};
use fc_suit::Uuid;

use crate::journal::{CaptureSink, DurabilityConfig, DurableTag, Journal, JournalMedia};
use crate::queue::{Accepted, BatchAccepted, Event, Inbox, ShedPolicy};
use crate::rebalance::{RebalanceConfig, Rebalancer};
use crate::shard::{spawn_shard, Command, OutstandingGauge, ShardParams, ShardReport, SharedInbox};
use crate::telemetry::{
    CounterId, GaugeId, MetricsRegistry, MetricsSnapshot, TelemetryConfig, TraceKind,
};

/// Why a host operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The hook is not registered with this host.
    UnknownHook(Uuid),
    /// The container id is not known to this host.
    UnknownContainer(ContainerId),
    /// The shard index does not name a shard of this host.
    InvalidShard(usize),
    /// The event was shed by backpressure.
    Shed,
    /// The owning shard rejected the operation.
    Engine(EngineError),
    /// The shard worker is gone (host shut down).
    Disconnected,
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::UnknownHook(u) => write!(f, "unknown hook {u}"),
            HostError::UnknownContainer(c) => write!(f, "unknown container {c}"),
            HostError::InvalidShard(s) => write!(f, "invalid shard index {s}"),
            HostError::Shed => write!(f, "event shed by backpressure"),
            HostError::Engine(e) => write!(f, "engine: {e}"),
            HostError::Disconnected => write!(f, "shard worker disconnected"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<EngineError> for HostError {
    fn from(e: EngineError) -> Self {
        HostError::Engine(e)
    }
}

/// Configuration of a [`FcHost`].
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Worker threads (= engine shards).
    pub workers: usize,
    /// Bounded capacity of each per-hook event queue.
    pub queue_capacity: usize,
    /// Events a worker drains per inbox lock acquisition.
    pub drain_batch: usize,
    /// Deficit-round-robin quantum, in VM instructions per round.
    pub quantum_insns: u64,
    /// Backpressure policy for full queues.
    pub shed: ShedPolicy,
    /// In-band rebalancing: every `rebalance_interval` dispatched
    /// events the host takes a [`Rebalancer`] observation itself — no
    /// caller-driven `observe()` needed. `0` disables the trigger
    /// (observation stays caller-driven, as before).
    pub rebalance_interval: u64,
    /// Tuning for the in-band rebalancer (ignored while
    /// `rebalance_interval` is 0).
    pub rebalance: RebalanceConfig,
    /// Observability plane: keyed metrics registry + event trace ring
    /// (see [`crate::telemetry`]).
    pub telemetry: TelemetryConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            workers: 4,
            queue_capacity: 256,
            drain_batch: 16,
            quantum_insns: 4096,
            shed: ShedPolicy::default(),
            rebalance_interval: 0,
            rebalance: RebalanceConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Retained installation inputs, for installing replicas on additional
/// shards when a container attaches to hooks owned elsewhere.
struct ContainerSpec {
    name: String,
    tenant: TenantId,
    image: Arc<[u8]>,
    request: ContractRequest,
}

/// One hook event for the batched fire path: the context bytes plus the
/// host-granted regions, exactly as [`FcHost::fire`] takes them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HookEvent {
    /// Event context handed to every attached container.
    pub ctx: Vec<u8>,
    /// Host-granted regions (e.g. a writable packet buffer).
    pub extra: Vec<HostRegion>,
}

impl HookEvent {
    /// Builds an event from borrowed context and regions.
    pub fn new(ctx: &[u8], extra: &[HostRegion]) -> Self {
        HookEvent {
            ctx: ctx.to_vec(),
            extra: extra.to_vec(),
        }
    }
}

/// What a successful [`FcHost::deploy_verified`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployOutcome {
    /// The freshly installed container.
    pub container: ContainerId,
    /// Shard it landed on (the target hook's current shard, or the
    /// least-loaded shard for an unattached install).
    pub shard: usize,
    /// Hook the container was attached to, when the deploy targeted
    /// one.
    pub hook: Option<Uuid>,
    /// Previous container retired by this deploy, if any.
    pub replaced: Option<ContainerId>,
}

struct Shard {
    inbox: SharedInbox,
    worker: Option<JoinHandle<()>>,
}

/// Routing and carriage state: every map a lifecycle decision reads or
/// writes, guarded by one `RwLock` (see the module docs on the
/// concurrency model).
struct Placement {
    /// Hook → owning shard. **The single routing authority**: every
    /// fire, attach, detach, deploy and migration resolves the shard
    /// here, so a rebalanced hook's events and lifecycle always land on
    /// its *current* shard.
    hook_shard: HashMap<Uuid, usize>,
    /// Hook descriptor + offer, retained for re-registration on the
    /// target shard when the rebalancer migrates the hook.
    hook_specs: HashMap<Uuid, (Hook, ContractOffer)>,
    next_hook_shard: usize,
    /// Container → shards carrying it (first entry = home/primary).
    container_shards: BTreeMap<ContainerId, Vec<usize>>,
    /// Container → hooks it is attached to.
    attachments: HashMap<ContainerId, HashSet<Uuid>>,
    specs: HashMap<ContainerId, ContainerSpec>,
    /// Containers installed per shard (placement heuristic).
    shard_load: Vec<usize>,
    next_id: ContainerId,
}

impl Placement {
    fn least_loaded(&self) -> usize {
        self.shard_load
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| **n)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The concurrent multi-tenant hosting runtime (see module docs).
///
/// # Examples
///
/// ```
/// use fc_core::contract::{ContractOffer, ContractRequest};
/// use fc_core::helpers_impl::standard_helper_ids;
/// use fc_core::hooks::{Hook, HookKind, HookPolicy};
/// use fc_host::{FcHost, HostConfig};
/// use fc_rbpf::program::ProgramBuilder;
/// use fc_rtos::platform::{Engine, Platform};
///
/// let mut host = FcHost::new(Platform::CortexM4, Engine::FemtoContainer, HostConfig::default());
/// let hook = Hook::new("tick", HookKind::Timer, HookPolicy::First);
/// let hook_id = hook.id;
/// host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
/// let image = ProgramBuilder::new().asm("mov r0, 42\nexit").unwrap().build();
/// let id = host.install("answer", 1, &image.to_bytes(), ContractRequest::default()).unwrap();
/// host.attach(id, hook_id).unwrap();
/// let report = host.fire_sync(hook_id, &[], &[]).unwrap();
/// assert_eq!(report.combined, Some(42));
/// host.shutdown();
/// ```
pub struct FcHost {
    shards: Vec<Shard>,
    env: Arc<HostEnv>,
    /// The dispatch ledger (one lane per shard worker), the
    /// producer-side counters and the trace ring — the host's only
    /// accounting (lock-free; see [`crate::telemetry`]).
    telemetry: Arc<MetricsRegistry>,
    /// Events accepted but not yet executed (quiescence tracking).
    outstanding: Arc<OutstandingGauge>,
    config: HostConfig,
    platform: Platform,
    flavor: EngineFlavor,
    placement: RwLock<Placement>,
    /// The folded-in rebalancer, present when `rebalance_interval > 0`.
    /// `try_lock` keeps the trigger non-reentrant and lets every other
    /// producer skip past while one observation runs.
    inband: Option<Mutex<Rebalancer>>,
    /// Dispatched-event count at which the next in-band observation
    /// fires.
    next_rebalance_at: AtomicU64,
    /// Write-ahead journal, when this host is durable. Shared with the
    /// shard workers (event commits) and the stores' capture sink.
    journal: Option<Arc<Journal>>,
}

impl FcHost {
    /// Starts a host with `config.workers` shards over a fresh shared
    /// environment.
    pub fn new(platform: Platform, flavor: EngineFlavor, config: HostConfig) -> Self {
        Self::with_env(
            platform,
            flavor,
            config,
            Arc::new(HostEnv::new(fc_kvstore::DEFAULT_CAPACITY)),
        )
    }

    /// Starts a host over an existing shared environment.
    pub fn with_env(
        platform: Platform,
        flavor: EngineFlavor,
        config: HostConfig,
        env: Arc<HostEnv>,
    ) -> Self {
        Self::with_env_and_journal(platform, flavor, config, env, None)
    }

    /// Starts a **durable** host: every event commit, accepted deploy
    /// and bare store write is journaled to `media` before its reply
    /// can leave, and the journal folds to a snapshot every
    /// [`DurabilityConfig::snapshot_threshold`] records. With
    /// `durability.enabled == false` this is exactly [`FcHost::new`]
    /// (no journal, no capture, bit-identical outputs).
    pub fn with_durability(
        platform: Platform,
        flavor: EngineFlavor,
        config: HostConfig,
        media: &JournalMedia,
        durability: DurabilityConfig,
    ) -> Self {
        let journal = durability
            .enabled
            .then(|| Journal::create(media, durability));
        Self::with_env_and_journal(
            platform,
            flavor,
            config,
            Arc::new(HostEnv::new(fc_kvstore::DEFAULT_CAPACITY)),
            journal,
        )
    }

    /// Starts a host over an existing environment and, optionally, an
    /// existing journal (the restore path hands in a quiet journal
    /// recovered from crashed media).
    pub(crate) fn with_env_and_journal(
        platform: Platform,
        flavor: EngineFlavor,
        mut config: HostConfig,
        env: Arc<HostEnv>,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        if let Some(journal) = &journal {
            // The stores tell the journal about every committed write:
            // captured into the worker's commit record inside an
            // event, journaled as a bare record outside one.
            env.stores()
                .set_sink(Arc::new(CaptureSink::new(Arc::clone(journal))));
        }
        let workers = config.workers.max(1);
        // A zero-capacity queue could never hold an event; DropOldest
        // would displace from an empty queue.
        config.queue_capacity = config.queue_capacity.max(1);
        let telemetry = Arc::new(MetricsRegistry::new(config.telemetry, workers));
        let outstanding = Arc::new(OutstandingGauge::new());
        let params = ShardParams {
            // A zero quantum would never let any queue's deficit go
            // positive and livelock the scheduling loop.
            quantum_insns: config.quantum_insns.clamp(1, i64::MAX as u64) as i64,
            drain_batch: config.drain_batch.max(1),
        };
        let shards = (0..workers)
            .map(|i| {
                let inbox: SharedInbox = Arc::new((Mutex::new(Inbox::new()), Condvar::new()));
                let worker = spawn_shard(
                    i,
                    platform,
                    flavor,
                    Arc::clone(&env),
                    Arc::clone(&inbox),
                    Arc::clone(&outstanding),
                    Arc::clone(&telemetry),
                    params,
                    journal.clone(),
                );
                Shard {
                    inbox,
                    worker: Some(worker),
                }
            })
            .collect();
        FcHost {
            shards,
            env,
            telemetry,
            outstanding,
            platform,
            flavor,
            placement: RwLock::new(Placement {
                hook_shard: HashMap::new(),
                hook_specs: HashMap::new(),
                next_hook_shard: 0,
                container_shards: BTreeMap::new(),
                attachments: HashMap::new(),
                specs: HashMap::new(),
                shard_load: vec![0; workers],
                next_id: 1,
            }),
            inband: (config.rebalance_interval > 0)
                .then(|| Mutex::new(Rebalancer::new(config.rebalance))),
            next_rebalance_at: AtomicU64::new(config.rebalance_interval),
            config,
            journal,
        }
    }

    /// The host's journal, when durable.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Whether the host is still powered: `false` once a seeded
    /// [`crate::CrashPlan`] fired on its journal media. A non-durable
    /// host is always alive.
    pub fn alive(&self) -> bool {
        self.journal.as_ref().is_none_or(|j| j.alive())
    }

    /// Number of engine shards (= worker threads).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The host's platform model.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The interpreter flavour shards run.
    pub fn flavor(&self) -> EngineFlavor {
        self.flavor
    }

    /// The shared host environment (stores, sensors, console, clock).
    pub fn env(&self) -> &HostEnv {
        &self.env
    }

    /// Shared handle to the environment.
    pub fn env_handle(&self) -> Arc<HostEnv> {
        Arc::clone(&self.env)
    }

    /// The metrics registry: the per-worker dispatch ledger, the
    /// producer-side counters and the bounded event-trace ring (see
    /// [`crate::telemetry`]).
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// Builds a point-in-time [`MetricsSnapshot`] of this host: the
    /// whole telemetry ledger (counters, latency, per-hook, per-tenant
    /// and per-shard rows), the journal counters when durable, and the
    /// per-shard queue depth observed at scrape time.
    ///
    /// This is a *scrape-path* operation: it reads the lanes and takes
    /// each inbox lock briefly for the queue depth. It never waits on a
    /// shard worker, and the dispatch path records nothing here.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            nodes: 1,
            ..MetricsSnapshot::default()
        };
        self.telemetry.fill_snapshot(&mut snap);
        if let Some(journal) = &self.journal {
            let ops = journal.ops();
            snap.set_counter(CounterId::JournalAppends, ops.appends);
            snap.set_counter(CounterId::JournalBytes, ops.bytes);
            snap.set_counter(CounterId::JournalFolds, ops.folds);
        }
        let mut max_depth = 0u64;
        for (row, shard) in snap.shards.iter_mut().zip(&self.shards) {
            let depth = shard.inbox.0.lock().expect("inbox lock").depth() as u64;
            max_depth = max_depth.max(depth);
            row.queue_depth = depth;
        }
        snap.gauge_max(GaugeId::QueueDepthMax, max_depth);
        snap.gauge_max(GaugeId::VirtualNowUs, self.env.now_us());
        snap
    }

    /// Shard a container currently calls home, if installed.
    pub fn shard_of(&self, container: ContainerId) -> Option<usize> {
        self.placement
            .read()
            .expect("placement lock")
            .container_shards
            .get(&container)
            .and_then(|s| s.first().copied())
    }

    /// Shard owning a hook's event queue, if registered.
    pub fn shard_of_hook(&self, hook: Uuid) -> Option<usize> {
        self.placement
            .read()
            .expect("placement lock")
            .hook_shard
            .get(&hook)
            .copied()
    }

    fn send_command(&self, shard: usize, command: Command) {
        let (lock, cvar) = &*self.shards[shard].inbox;
        lock.lock().expect("inbox lock").control.push_back(command);
        cvar.notify_one();
    }

    /// Overrides the finite-execution budgets on every shard, for
    /// installed containers and future installs alike.
    pub fn set_exec_config(&self, config: ExecConfig) {
        for shard in 0..self.shards.len() {
            self.send_command(shard, Command::SetExecConfig { config });
        }
    }

    /// Registers a launchpad hook, assigning it a shard round-robin and
    /// creating its bounded event queue there. Re-registering an id
    /// keeps the hook on its current shard — including a shard the
    /// rebalancer moved it to.
    pub fn register_hook(&self, hook: Hook, offer: ContractOffer) {
        let mut p = self.placement.write().expect("placement lock");
        let shard = match p.hook_shard.get(&hook.id) {
            Some(&s) => s,
            None => {
                let s = p.next_hook_shard % self.shards.len();
                p.next_hook_shard += 1;
                p.hook_shard.insert(hook.id, s);
                s
            }
        };
        p.hook_specs.insert(hook.id, (hook.clone(), offer.clone()));
        self.telemetry
            .trace_hook(self.env.now_us(), TraceKind::Lifecycle, &hook.id, 1);
        let (lock, cvar) = &*self.shards[shard].inbox;
        {
            let mut inbox = lock.lock().expect("inbox lock");
            inbox.add_queue(hook.id);
            inbox
                .control
                .push_back(Command::RegisterHook { hook, offer });
        }
        cvar.notify_one();
    }

    /// Unregisters a hook: its queue is removed (pending events are
    /// shed — their reply senders drop, which synchronous callers see
    /// as [`HostError::Shed`]), its engine registration is dropped, and
    /// every shard clears its lane's cycle count for the hook so a
    /// later re-registration of the same UUID starts from a clean
    /// baseline. Attached containers stay installed and are returned in
    /// attachment order.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`] / [`HostError::Disconnected`].
    pub fn unregister_hook(&self, hook: Uuid) -> Result<Vec<ContainerId>, HostError> {
        let mut p = self.placement.write().expect("placement lock");
        let shard = *p
            .hook_shard
            .get(&hook)
            .ok_or(HostError::UnknownHook(hook))?;
        // Shed the pending events first: once the queue is gone they
        // can never execute, and their outstanding slots must release
        // or quiesce() would hang.
        let dropped = {
            let (lock, _) = &*self.shards[shard].inbox;
            lock.lock().expect("inbox lock").remove_queue(hook)
        };
        for _ in &dropped {
            self.outstanding.sub();
        }
        if !dropped.is_empty() {
            let n = dropped.len() as u64;
            self.telemetry.count(CounterId::Shed, n);
            self.telemetry.count(CounterId::Displaced, n);
            self.telemetry.record_shed(&hook, n);
            self.telemetry
                .trace_hook(self.env.now_us(), TraceKind::Shed, &hook, n);
        }
        self.telemetry
            .trace_hook(self.env.now_us(), TraceKind::Lifecycle, &hook, 0);
        let (tx, rx) = sync_channel(1);
        self.send_command(shard, Command::UnregisterHook { hook, reply: tx });
        let attached = Self::recv(rx)?;
        // Each worker clears its own lane (the single-writer rule);
        // wait for all of them so no later read sees a stale count.
        let cleared: Vec<_> = (0..self.shards.len())
            .map(|s| {
                let (done, rx) = sync_channel(1);
                self.send_command(s, Command::ClearHookCycles { hook, done });
                rx
            })
            .collect();
        for rx in cleared {
            Self::recv(rx)?;
        }
        p.hook_shard.remove(&hook);
        p.hook_specs.remove(&hook);
        for container in &attached {
            if let Some(set) = p.attachments.get_mut(container) {
                set.remove(&hook);
            }
        }
        // Release the placement lock before touching the in-band
        // rebalancer: an in-band observation holds that lock while
        // waiting for the placement write lock, so taking them in the
        // opposite order here would deadlock.
        drop(p);
        if let Some(inband) = &self.inband {
            if let Ok(mut rebalancer) = inband.lock() {
                rebalancer.forget_hook(hook);
            }
        }
        Ok(attached)
    }

    fn recv<T>(rx: Receiver<T>) -> Result<T, HostError> {
        rx.recv().map_err(|_| HostError::Disconnected)
    }

    /// Installs an application on the least-loaded shard.
    ///
    /// # Errors
    ///
    /// [`HostError::Engine`] carrying the shard's verdict (parse,
    /// verification or contract failure).
    pub fn install(
        &self,
        name: &str,
        tenant: TenantId,
        image: &[u8],
        request: ContractRequest,
    ) -> Result<ContainerId, HostError> {
        let mut p = self.placement.write().expect("placement lock");
        let shard = p.least_loaded();
        let id = p.next_id;
        p.next_id += 1;
        // One shared allocation serves the install command, the
        // retained spec and every future replica placement.
        let image: Arc<[u8]> = Arc::from(image);
        let (tx, rx) = sync_channel(1);
        self.send_command(
            shard,
            Command::Install {
                id,
                name: name.to_owned(),
                tenant,
                image: Arc::clone(&image),
                request: request.clone(),
                reply: tx,
            },
        );
        Self::recv(rx)??;
        p.container_shards.insert(id, vec![shard]);
        p.shard_load[shard] += 1;
        p.specs.insert(
            id,
            ContainerSpec {
                name: name.to_owned(),
                tenant,
                image,
                request,
            },
        );
        Ok(id)
    }

    /// Ensures `container` exists on `shard`, migrating the slot there
    /// when nothing pins it to its current shard (cheap, no
    /// re-verification) or installing a replica from the retained image
    /// otherwise.
    ///
    /// `moving` names a hook whose attachment is being migrated *along
    /// with* the container (the rebalancer's case): an attachment to
    /// that hook does not pin the slot, because the hook is moving to
    /// `shard` too. `None` recovers the plain attach-time rule — only
    /// a fully unattached slot moves.
    fn place_on_locked(
        &self,
        p: &mut Placement,
        container: ContainerId,
        shard: usize,
        moving: Option<Uuid>,
    ) -> Result<(), HostError> {
        let shards = p
            .container_shards
            .get(&container)
            .ok_or(HostError::UnknownContainer(container))?
            .clone();
        if shards.contains(&shard) {
            return Ok(());
        }
        let unpinned = p
            .attachments
            .get(&container)
            .is_none_or(|set| set.iter().all(|h| Some(*h) == moving));
        if unpinned && shards.len() == 1 {
            // Migrate: eject from the home shard, adopt on the target.
            let home = shards[0];
            let (tx, rx) = sync_channel(1);
            self.send_command(
                home,
                Command::Eject {
                    id: container,
                    reply: tx,
                },
            );
            let slot = Self::recv(rx)?.ok_or(HostError::UnknownContainer(container))?;
            self.send_command(
                shard,
                Command::Adopt {
                    slot: Box::new(slot),
                },
            );
            p.container_shards.insert(container, vec![shard]);
            p.shard_load[home] -= 1;
            p.shard_load[shard] += 1;
            return Ok(());
        }
        // Replica: re-install the retained image under the same id.
        let spec = p
            .specs
            .get(&container)
            .ok_or(HostError::UnknownContainer(container))?;
        let (tx, rx) = sync_channel(1);
        self.send_command(
            shard,
            Command::Install {
                id: container,
                name: spec.name.clone(),
                tenant: spec.tenant,
                image: spec.image.clone(),
                request: spec.request.clone(),
                reply: tx,
            },
        );
        Self::recv(rx)??;
        p.container_shards.entry(container).or_default().push(shard);
        p.shard_load[shard] += 1;
        Ok(())
    }

    /// Attaches a container to a hook, placing it on the hook's shard
    /// first (see module docs on placement).
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`] / [`HostError::UnknownContainer`] /
    /// [`HostError::Engine`] when the hook's offer does not cover the
    /// container's helper calls.
    pub fn attach(&self, container: ContainerId, hook: Uuid) -> Result<(), HostError> {
        let mut p = self.placement.write().expect("placement lock");
        let shard = *p
            .hook_shard
            .get(&hook)
            .ok_or(HostError::UnknownHook(hook))?;
        self.place_on_locked(&mut p, container, shard, None)?;
        let (tx, rx) = sync_channel(1);
        self.send_command(
            shard,
            Command::Attach {
                id: container,
                hook,
                reply: tx,
            },
        );
        Self::recv(rx)??;
        p.attachments.entry(container).or_default().insert(hook);
        Ok(())
    }

    /// Detaches a container from a hook.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`] / [`HostError::Engine`].
    pub fn detach(&self, container: ContainerId, hook: Uuid) -> Result<(), HostError> {
        let mut p = self.placement.write().expect("placement lock");
        let shard = *p
            .hook_shard
            .get(&hook)
            .ok_or(HostError::UnknownHook(hook))?;
        let (tx, rx) = sync_channel(1);
        self.send_command(
            shard,
            Command::Detach {
                id: container,
                hook,
                reply: tx,
            },
        );
        Self::recv(rx)??;
        if let Some(set) = p.attachments.get_mut(&container) {
            set.remove(&hook);
        }
        Ok(())
    }

    /// Removes a container from every shard carrying it, dropping its
    /// local store.
    pub fn remove(&self, container: ContainerId) -> bool {
        let mut p = self.placement.write().expect("placement lock");
        self.remove_locked(&mut p, container)
    }

    fn remove_locked(&self, p: &mut Placement, container: ContainerId) -> bool {
        let Some(shards) = p.container_shards.remove(&container) else {
            return false;
        };
        let mut removed = false;
        for shard in shards {
            let (tx, rx) = sync_channel(1);
            self.send_command(
                shard,
                Command::Remove {
                    id: container,
                    reply: tx,
                },
            );
            removed |= Self::recv(rx).unwrap_or(false);
            p.shard_load[shard] = p.shard_load[shard].saturating_sub(1);
        }
        p.attachments.remove(&container);
        p.specs.remove(&container);
        removed
    }

    /// Deploys a **verified** application onto the running host through
    /// the shard control lane — the live half of the SUIT update flow
    /// (signature, rollback and digest checks belong to the layer
    /// above, [`crate::deploy::LiveUpdateService`]).
    ///
    /// Placement consults the *current* routing state: a deploy
    /// targeting `hook` lands on whatever shard the hook owns **now**
    /// (post-migration), and an unattached install (`hook` = `None`)
    /// lands least-loaded. When the deploy targets a hook, the install,
    /// the attach and the retirement of `replace` execute as **one
    /// control-lane command** on the owning shard, between event
    /// drains: every event fired at the hook sees either the old
    /// container or the new one, never both and never neither.
    ///
    /// Serialization: this holds the placement write lock end to end,
    /// so a deploy and a [`FcHost::migrate_hook`] of the same hook
    /// resolve in caller order — if the migration wins, the deploy
    /// lands on the hook's new shard; if the deploy wins, the migration
    /// moves the fresh container along with the hook. Queued events
    /// keep executing throughout (workers never take the placement
    /// lock); only new enqueues wait.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`] when `hook` is not registered, or
    /// [`HostError::Engine`] with the shard's verdict — the previous
    /// container (if any) keeps running untouched then.
    pub fn deploy_verified(
        &self,
        name: &str,
        tenant: TenantId,
        image: &[u8],
        request: ContractRequest,
        hook: Option<Uuid>,
        replace: Option<ContainerId>,
    ) -> Result<DeployOutcome, HostError> {
        self.deploy_inner(name, tenant, image, request, hook, replace, None)
    }

    /// Replays a journaled deploy on a restored host: the container
    /// lands under its **pre-crash id** (so retransmitted replies stay
    /// byte-identical) and the deploy counter is *not* bumped — the
    /// restore seeds it from the journal's counter state instead.
    #[allow(clippy::too_many_arguments)] // same fan-in as deploy_inner
    pub(crate) fn deploy_restored(
        &self,
        name: &str,
        tenant: TenantId,
        image: &[u8],
        request: ContractRequest,
        hook: Option<Uuid>,
        replace: Option<ContainerId>,
        forced_id: ContainerId,
    ) -> Result<DeployOutcome, HostError> {
        self.deploy_inner(name, tenant, image, request, hook, replace, Some(forced_id))
    }

    /// Bumps the container-id allocator past `next` — called at the
    /// end of a restore so fresh deploys never collide with replayed
    /// pre-crash ids.
    pub(crate) fn ensure_next_container_id(&self, next: ContainerId) {
        let mut p = self.placement.write().expect("placement lock");
        p.next_id = p.next_id.max(next);
    }

    #[allow(clippy::too_many_arguments)] // internal fan-in, two call sites
    fn deploy_inner(
        &self,
        name: &str,
        tenant: TenantId,
        image: &[u8],
        request: ContractRequest,
        hook: Option<Uuid>,
        replace: Option<ContainerId>,
        forced_id: Option<ContainerId>,
    ) -> Result<DeployOutcome, HostError> {
        let mut p = self.placement.write().expect("placement lock");
        let shard = match hook {
            Some(h) => *p.hook_shard.get(&h).ok_or(HostError::UnknownHook(h))?,
            None => p.least_loaded(),
        };
        let id = match forced_id {
            Some(id) => {
                p.next_id = p.next_id.max(id + 1);
                id
            }
            None => {
                let id = p.next_id;
                p.next_id += 1;
                id
            }
        };
        let image: Arc<[u8]> = Arc::from(image);
        // The old container rides the same command — an atomic swap —
        // only when it actually lives on the target shard (it always
        // does in the SUIT flow: containers follow their hooks).
        let swap = match (hook, replace) {
            (Some(_), Some(old))
                if p.container_shards
                    .get(&old)
                    .is_some_and(|s| s.contains(&shard)) =>
            {
                Some(old)
            }
            _ => None,
        };
        let (tx, rx) = sync_channel(1);
        self.send_command(
            shard,
            Command::Deploy {
                id,
                name: name.to_owned(),
                tenant,
                image: Arc::clone(&image),
                request: request.clone(),
                attach: hook,
                replace: swap,
                reply: tx,
            },
        );
        Self::recv(rx)??;
        p.container_shards.insert(id, vec![shard]);
        p.shard_load[shard] += 1;
        p.specs.insert(
            id,
            ContainerSpec {
                name: name.to_owned(),
                tenant,
                image,
                request,
            },
        );
        if let Some(h) = hook {
            p.attachments.entry(id).or_default().insert(h);
        }
        // Retire the replaced container everywhere it was carried; the
        // target shard already removed it inside the Deploy command.
        let mut replaced = None;
        if let Some(old) = replace {
            if let Some(shards) = p.container_shards.remove(&old) {
                replaced = Some(old);
                for s in shards {
                    if swap == Some(old) && s == shard {
                        p.shard_load[s] = p.shard_load[s].saturating_sub(1);
                        continue;
                    }
                    let (tx, rx) = sync_channel(1);
                    self.send_command(s, Command::Remove { id: old, reply: tx });
                    let _ = Self::recv(rx);
                    p.shard_load[s] = p.shard_load[s].saturating_sub(1);
                }
            }
            p.attachments.remove(&old);
            p.specs.remove(&old);
        }
        if forced_id.is_none() {
            self.telemetry.count(CounterId::Deploys, 1);
        }
        let at = self.env.now_us();
        match hook {
            Some(h) => self
                .telemetry
                .trace_hook(at, TraceKind::Deploy, &h, u64::from(id)),
            None => self
                .telemetry
                .trace(at, TraceKind::Deploy, 0, u64::from(id)),
        }
        Ok(DeployOutcome {
            container: id,
            shard,
            hook,
            replaced,
        })
    }

    /// Executes a container synchronously on its home shard.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownContainer`] / [`HostError::Engine`]; VM
    /// faults are inside the report, as with the single engine.
    pub fn execute(
        &self,
        container: ContainerId,
        ctx: &[u8],
        extra: &[HostRegion],
    ) -> Result<ExecutionReport, HostError> {
        let shard = self
            .shard_of(container)
            .ok_or(HostError::UnknownContainer(container))?;
        let (tx, rx) = sync_channel(1);
        self.send_command(
            shard,
            Command::Execute {
                id: container,
                ctx: ctx.to_vec(),
                extra: extra.to_vec(),
                reply: tx,
            },
        );
        Ok(Self::recv(rx)??)
    }

    fn enqueue(
        &self,
        hook: Uuid,
        ctx: &[u8],
        extra: &[HostRegion],
        reply: Option<std::sync::mpsc::SyncSender<Result<HookReport, EngineError>>>,
        durable_tag: Option<DurableTag>,
    ) -> Result<Accepted, HostError> {
        let outcome = {
            // Hold the routing read lock across the push: a migration
            // (write) cannot land between shard resolution and the
            // inbox append, so an accepted event is never shed by a
            // concurrent move.
            let p = self.placement.read().expect("placement lock");
            let shard = *p
                .hook_shard
                .get(&hook)
                .ok_or(HostError::UnknownHook(hook))?;
            let event = Event {
                hook,
                ctx: ctx.to_vec(),
                extra: extra.to_vec(),
                enqueued_at: Instant::now(),
                reply,
                durable_tag,
            };
            // Count the event as outstanding *before* it becomes
            // visible to the worker: once the inbox lock drops, the
            // worker may execute it (and decrement) immediately, and
            // quiesce() must never observe a published-but-uncounted
            // event.
            self.outstanding.add();
            let (lock, cvar) = &*self.shards[shard].inbox;
            let outcome = {
                let mut inbox = lock.lock().expect("inbox lock");
                inbox.enqueue(event, self.config.queue_capacity, self.config.shed)
            };
            match outcome {
                Ok((accepted, displaced)) => {
                    cvar.notify_one();
                    self.telemetry.count(CounterId::Enqueued, 1);
                    self.telemetry.trace_hook(
                        self.env.now_us(),
                        TraceKind::Enqueue,
                        &hook,
                        shard as u64,
                    );
                    if displaced.is_some() {
                        // The displaced event never executes; its
                        // outstanding slot transfers to the new event.
                        self.telemetry.count(CounterId::Shed, 1);
                        self.telemetry.count(CounterId::Displaced, 1);
                        self.outstanding.sub();
                        self.telemetry.record_shed(&hook, 1);
                        self.telemetry
                            .trace_hook(self.env.now_us(), TraceKind::Shed, &hook, 1);
                    }
                    Ok(accepted)
                }
                Err(_event) => {
                    self.telemetry.count(CounterId::Shed, 1);
                    self.outstanding.sub();
                    self.telemetry.record_shed(&hook, 1);
                    self.telemetry
                        .trace_hook(self.env.now_us(), TraceKind::Shed, &hook, 1);
                    Err(HostError::Shed)
                }
            }
        };
        self.maybe_rebalance();
        outcome
    }

    /// Fires a hook asynchronously: the event is queued on the hook's
    /// shard and executed by its worker.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`], or [`HostError::Shed`] under
    /// backpressure (the event did not enter the queue).
    pub fn fire(
        &self,
        hook: Uuid,
        ctx: &[u8],
        extra: &[HostRegion],
    ) -> Result<Accepted, HostError> {
        self.enqueue(hook, ctx, extra, None, None)
    }

    /// Fires a hook and returns a receiver for its report, without
    /// blocking — the building block for pipelined load generators and
    /// the differential suite.
    ///
    /// # Errors
    ///
    /// As [`FcHost::fire`]. A later `recv` error means the event was
    /// displaced by `DropOldest` backpressure after acceptance.
    pub fn fire_with_reply(
        &self,
        hook: Uuid,
        ctx: &[u8],
        extra: &[HostRegion],
    ) -> Result<Receiver<Result<HookReport, EngineError>>, HostError> {
        let (tx, rx) = sync_channel(1);
        self.enqueue(hook, ctx, extra, Some(tx), None)?;
        Ok(rx)
    }

    /// As [`FcHost::fire_with_reply`], with a durable exchange tag: on
    /// a durable host the event's commit record is journaled under
    /// `tag` before the reply is sent, so a restored node can answer a
    /// retransmission of the same exchange without re-executing.
    pub fn fire_with_reply_tagged(
        &self,
        hook: Uuid,
        ctx: &[u8],
        extra: &[HostRegion],
        tag: Option<DurableTag>,
    ) -> Result<Receiver<Result<HookReport, EngineError>>, HostError> {
        let (tx, rx) = sync_channel(1);
        self.enqueue(hook, ctx, extra, Some(tx), tag)?;
        Ok(rx)
    }

    /// Queues a whole vector of events for one hook with a **single
    /// queue round-trip**: one outstanding-gauge update, one inbox lock
    /// acquisition, one worker wakeup for the entire batch — the
    /// amortised fire path the CoAP front-end's batched reads use.
    ///
    /// Backpressure applies per event, exactly as if each had been
    /// offered through [`FcHost::fire`] in order; the returned
    /// [`BatchAccepted`] says how many entered the queue and how many
    /// were shed.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`]. Individual shed events are reported
    /// in the counts, not as an error.
    pub fn fire_batch(
        &self,
        hook: Uuid,
        events: Vec<HookEvent>,
    ) -> Result<BatchAccepted, HostError> {
        self.enqueue_batch(hook, events, false, None)
            .map(|(counts, _)| counts)
    }

    /// As [`FcHost::fire_batch`], but every event also gets a reply
    /// receiver, returned in offer order. A shed event's receiver
    /// errors on `recv` (its sender is dropped without a send), which
    /// callers map to [`HostError::Shed`] — identical to the
    /// single-event [`FcHost::fire_with_reply`] contract.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`].
    pub fn fire_batch_with_reply(
        &self,
        hook: Uuid,
        events: Vec<HookEvent>,
    ) -> Result<Vec<Receiver<Result<HookReport, EngineError>>>, HostError> {
        self.enqueue_batch(hook, events, true, None)
            .map(|(_, receivers)| receivers)
    }

    /// As [`FcHost::fire_batch_with_reply`], with per-event durable
    /// tags (parallel to `events`; shorter vectors leave the tail
    /// untagged). See [`FcHost::fire_with_reply_tagged`].
    pub fn fire_batch_with_reply_tagged(
        &self,
        hook: Uuid,
        events: Vec<HookEvent>,
        tags: Vec<DurableTag>,
    ) -> Result<Vec<Receiver<Result<HookReport, EngineError>>>, HostError> {
        self.enqueue_batch(hook, events, true, Some(tags))
            .map(|(_, receivers)| receivers)
    }

    #[allow(clippy::type_complexity)] // reply receivers mirror fire_with_reply
    fn enqueue_batch(
        &self,
        hook: Uuid,
        events: Vec<HookEvent>,
        with_reply: bool,
        tags: Option<Vec<DurableTag>>,
    ) -> Result<
        (
            BatchAccepted,
            Vec<Receiver<Result<HookReport, EngineError>>>,
        ),
        HostError,
    > {
        let result = {
            let p = self.placement.read().expect("placement lock");
            let shard = *p
                .hook_shard
                .get(&hook)
                .ok_or(HostError::UnknownHook(hook))?;
            let n = events.len();
            let mut receivers = Vec::with_capacity(if with_reply { n } else { 0 });
            let now = Instant::now();
            let mut tags = tags.unwrap_or_default().into_iter();
            let queued: Vec<Event> = events
                .into_iter()
                .map(|e| {
                    let reply = if with_reply {
                        let (tx, rx) = sync_channel(1);
                        receivers.push(rx);
                        Some(tx)
                    } else {
                        None
                    };
                    Event {
                        hook,
                        ctx: e.ctx,
                        extra: e.extra,
                        enqueued_at: now,
                        reply,
                        durable_tag: tags.next(),
                    }
                })
                .collect();
            // As with the single-event path: count the batch as
            // outstanding *before* it becomes visible to the worker.
            self.outstanding.add_n(n as u64);
            let (lock, cvar) = &*self.shards[shard].inbox;
            let outcome = {
                let mut inbox = lock.lock().expect("inbox lock");
                inbox.enqueue_batch(queued, self.config.queue_capacity, self.config.shed)
            };
            cvar.notify_one();
            self.telemetry.count(CounterId::Batches, 1);
            self.telemetry
                .count(CounterId::Enqueued, outcome.accepted as u64);
            if outcome.accepted > 0 {
                // One span for the whole batch: the amortised path
                // stays amortised in the trace too.
                self.telemetry.trace_hook(
                    self.env.now_us(),
                    TraceKind::Enqueue,
                    &hook,
                    shard as u64,
                );
            }
            let shed = (outcome.rejected + outcome.displaced) as u64;
            if shed > 0 {
                self.telemetry.count(CounterId::Shed, shed);
                self.telemetry
                    .count(CounterId::Displaced, outcome.displaced as u64);
                self.telemetry.record_shed(&hook, shed);
                self.telemetry
                    .trace_hook(self.env.now_us(), TraceKind::Shed, &hook, shed);
                // Rejected events never execute; displaced events'
                // slots transfer to the newly accepted ones.
                for _ in 0..shed {
                    self.outstanding.sub();
                }
            }
            Ok((outcome, receivers))
        };
        self.maybe_rebalance();
        result
    }

    /// Fires a hook and blocks for its report.
    ///
    /// # Errors
    ///
    /// As [`FcHost::fire`], plus [`HostError::Shed`] when the queued
    /// event was displaced before executing and [`HostError::Engine`]
    /// for engine-side failures.
    pub fn fire_sync(
        &self,
        hook: Uuid,
        ctx: &[u8],
        extra: &[HostRegion],
    ) -> Result<HookReport, HostError> {
        let rx = self.fire_with_reply(hook, ctx, extra)?;
        match rx.recv() {
            Ok(result) => result.map_err(HostError::Engine),
            // The event was displaced from the queue: its reply sender
            // was dropped without a send.
            Err(_) => Err(HostError::Shed),
        }
    }

    /// The in-band rebalancing trigger: when the dispatched-event
    /// counter crosses the configured interval, take one [`Rebalancer`]
    /// observation right here, on the producer's thread. `try_lock`
    /// keeps concurrent producers from stacking up behind one
    /// observation — everyone but the trigger-winner skips past.
    ///
    /// A failed migration inside the observation is deliberately
    /// swallowed: [`FcHost::migrate_hook`] guarantees the hook stays
    /// registered and routable on the target with its pending events
    /// intact, so the host remains coherent and the next window simply
    /// observes again.
    fn maybe_rebalance(&self) {
        let Some(inband) = &self.inband else { return };
        let dispatched = self.telemetry.dispatched();
        if dispatched < self.next_rebalance_at.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut rebalancer) = inband.try_lock() else {
            return;
        };
        // Re-check under the lock: another producer may have just
        // observed and advanced the threshold.
        let dispatched = self.telemetry.dispatched();
        if dispatched < self.next_rebalance_at.load(Ordering::Relaxed) {
            return;
        }
        self.next_rebalance_at.store(
            dispatched + self.config.rebalance_interval.max(1),
            Ordering::Relaxed,
        );
        self.telemetry.count(CounterId::InbandObservations, 1);
        let _ = rebalancer.observe(self);
    }

    /// Blocks (parked, not spinning) until every accepted event has
    /// executed.
    pub fn quiesce(&self) {
        self.outstanding.wait_zero();
    }

    /// Point-in-time reports from every shard: each shard's telemetry
    /// lane, with hook cycles attributed to the hooks' current owners
    /// and container counts from placement. No shard worker is asked.
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        let p = self.placement.read().expect("placement lock");
        let mut reports = self
            .telemetry
            .shard_reports(|hook| p.hook_shard.get(hook).copied());
        for (report, &containers) in reports.iter_mut().zip(&p.shard_load) {
            report.containers = containers;
        }
        reports
    }

    /// Migrates a hook — queue, registration, and attached containers —
    /// onto another shard. This is the rebalancer's primitive, but it
    /// is also safe to call directly for explicit placement.
    ///
    /// The move is atomic with respect to event routing because it
    /// holds the placement write lock: no producer can resolve a route
    /// while it runs. In order:
    ///
    /// 1. the hook's pending events are pulled off the old shard's
    ///    inbox (they were accepted and must not be shed by the move);
    /// 2. the hook is unregistered from the old engine, yielding the
    ///    authoritative attachment order (the cycles it accrued there
    ///    stay in the old shard's lane and keep counting towards the
    ///    hook, so rebalancer accounting stays monotone);
    /// 3. the hook is re-registered on the target shard from the
    ///    retained descriptor/offer;
    /// 4. each attached container is placed on the target — the slot
    ///    itself migrates (eject/adopt, keeping metrics and meter) when
    ///    only the moving hook pins it, otherwise a replica installs
    ///    from the retained image — and re-attached in order;
    /// 5. replicas left on the old shard with no remaining attachment
    ///    there are ejected and dropped (their shared local store
    ///    survives; only [`FcHost::remove`] deletes stores);
    /// 6. the pending events are injected into the target queue, in
    ///    their original FIFO order.
    ///
    /// Per-event reports after a migration are identical to before it —
    /// attachment order, container identity and the shared environment
    /// all travel with the hook (`tests/host_differential.rs`).
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`] / [`HostError::InvalidShard`], or any
    /// engine error from replica installation. On error the hook is
    /// left registered and routable **on the target shard** with its
    /// pending events intact (they execute against whatever subset of
    /// containers re-attached — never lost, so quiescence and event
    /// accounting always balance); only a missing or partially
    /// re-attached container distinguishes the failed state.
    pub fn migrate_hook(&self, hook: Uuid, to: usize) -> Result<(), HostError> {
        let mut p = self.placement.write().expect("placement lock");
        let from = *p
            .hook_shard
            .get(&hook)
            .ok_or(HostError::UnknownHook(hook))?;
        if to >= self.shards.len() {
            return Err(HostError::InvalidShard(to));
        }
        if from == to {
            return Ok(());
        }
        // 1. Pending events come off the old queue first so the old
        // worker cannot race them while the hook moves. From here on
        // they MUST reach a live queue on every path, or their
        // outstanding-gauge slots would never release and quiesce()
        // would hang forever.
        let pending = {
            let (lock, _) = &*self.shards[from].inbox;
            lock.lock().expect("inbox lock").remove_queue(hook)
        };
        // 2. Unregister on the old engine; its attachment order is the
        // contract for identical per-event semantics on the target.
        let (tx, rx) = sync_channel(1);
        self.send_command(from, Command::UnregisterHook { hook, reply: tx });
        let attached = match Self::recv(rx) {
            Ok(reply) => reply,
            Err(e) => {
                // The old worker is gone (host shutting down): put the
                // events back where they came from and bail.
                let (lock, cvar) = &*self.shards[from].inbox;
                lock.lock().expect("inbox lock").inject(hook, pending);
                cvar.notify_one();
                return Err(e);
            }
        };
        // 3. Register on the target from the retained spec.
        let (desc, offer) = p
            .hook_specs
            .get(&hook)
            .cloned()
            .expect("registered hook retains its spec");
        {
            let (lock, cvar) = &*self.shards[to].inbox;
            let mut inbox = lock.lock().expect("inbox lock");
            inbox.add_queue(hook);
            inbox
                .control
                .push_back(Command::RegisterHook { hook: desc, offer });
            cvar.notify_one();
        }
        // Flip the routing authority now: every subsequent attach,
        // detach or fire — including the re-attaches below — must see
        // the hook on its *current* shard.
        p.hook_shard.insert(hook, to);
        // 4. Containers follow their hook, in attachment order. A
        // failure stops re-attachment but NOT the hand-over below —
        // the pending events must still reach the target queue.
        let mut outcome = Ok(());
        for &container in &attached {
            let placed = self
                .place_on_locked(&mut p, container, to, Some(hook))
                .and_then(|()| {
                    let (tx, rx) = sync_channel(1);
                    self.send_command(
                        to,
                        Command::Attach {
                            id: container,
                            hook,
                            reply: tx,
                        },
                    );
                    Self::recv(rx)?.map_err(HostError::Engine)
                });
            if let Err(e) = placed {
                outcome = Err(e);
                break;
            }
        }
        // 5. Drop replicas orphaned on the old shard.
        for &container in &attached {
            self.drop_orphaned_replica_locked(&mut p, container, from);
        }
        // 6. Hand the pending events to the new worker.
        if !pending.is_empty() {
            let (lock, cvar) = &*self.shards[to].inbox;
            lock.lock().expect("inbox lock").inject(hook, pending);
            cvar.notify_one();
        }
        if outcome.is_ok() {
            self.telemetry.count(CounterId::Migrations, 1);
            self.telemetry.trace_hook(
                self.env.now_us(),
                TraceKind::Migrate,
                &hook,
                ((from as u64) << 32) | to as u64,
            );
        }
        outcome
    }

    /// Ejects and drops `container`'s replica on `shard` when no hook
    /// on that shard still uses it and another shard carries the
    /// container. The slot is discarded; the container's local store
    /// is keyed by id in the shared environment and survives.
    fn drop_orphaned_replica_locked(
        &self,
        p: &mut Placement,
        container: ContainerId,
        shard: usize,
    ) {
        let Some(shards) = p.container_shards.get(&container) else {
            return;
        };
        if shards.len() < 2 || !shards.contains(&shard) {
            return;
        }
        let still_used = p
            .attachments
            .get(&container)
            .is_some_and(|hooks| hooks.iter().any(|h| p.hook_shard.get(h) == Some(&shard)));
        if still_used {
            return;
        }
        let (tx, rx) = sync_channel(1);
        self.send_command(
            shard,
            Command::Eject {
                id: container,
                reply: tx,
            },
        );
        // The ejected slot drops here; only FcHost::remove touches the
        // shared store.
        let _ = Self::recv(rx);
        if let Some(shards) = p.container_shards.get_mut(&container) {
            shards.retain(|s| *s != shard);
        }
        p.shard_load[shard] = p.shard_load[shard].saturating_sub(1);
    }

    /// Drains outstanding work and stops every shard worker.
    pub fn shutdown(&mut self) {
        self.quiesce();
        for shard in &self.shards {
            let (lock, cvar) = &*shard.inbox;
            lock.lock().expect("inbox lock").open = false;
            cvar.notify_all();
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for FcHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for FcHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.placement.read().expect("placement lock");
        f.debug_struct("FcHost")
            .field("shards", &self.shards.len())
            .field("hooks", &p.hook_shard.len())
            .field("containers", &p.container_shards.len())
            .finish()
    }
}

// The host façade itself crosses threads: `&FcHost` can be shared by
// several producer threads firing events concurrently, and — since the
// placement state moved behind its lock — lifecycle mutation (install,
// attach, deploy, migrate) is safe from any thread too, which is what
// lets the in-band rebalancer and live deploys run while producers
// keep firing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<FcHost>();
    assert_send::<HostingEngine>();
};
