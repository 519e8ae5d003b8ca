//! The transport-agnostic node-service boundary.
//!
//! A fleet front tier must talk to many hosting nodes without caring
//! whether a node shares its address space or sits across a lossy
//! low-power link. [`NodeService`] is that seam: the complete set of
//! operations the fleet performs against one node — hook lifecycle,
//! single and batched event dispatch, SUIT payload staging and deploy,
//! stats/health — expressed over **serializable** inputs and outputs
//! only, so the exact same calls can run in-process
//! ([`LocalNode`], this module) or be encoded as CoAP messages over
//! `fc_net::link` (the codec adapter in `fc-fleet`).
//!
//! Two rules keep the adapters observationally identical, which is
//! what lets the differential suite prove a 1-node fleet bit-identical
//! to a bare [`FcHost`]:
//!
//! * results that must survive the wire ([`fc_core::engine::HookReport`],
//!   [`crate::DeployReport`], [`NodeStats`]) are plain data, encoded
//!   losslessly by the codec adapter;
//! * errors collapse to [`NodeError`], whose node-side verdicts travel
//!   as text — the in-process adapter renders its engine errors to the
//!   same strings the wire carries, so callers cannot tell the
//!   transports apart by error shape.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

use fc_core::contract::ContractOffer;
use fc_core::engine::{EngineError, HookReport};
use fc_core::helpers_impl::HostEnv;
use fc_core::hooks::Hook;
use fc_rtos::platform::{Engine as EngineFlavor, Platform};
use fc_suit::Uuid;

use crate::deploy::{LiveDeployError, LiveUpdateService};
use crate::host::{FcHost, HookEvent, HostConfig, HostError};
use crate::journal::{
    DurabilityConfig, DurableTag, Journal, JournalError, JournalMedia, RecoveredExchange, TagKind,
};

/// Why a node-service operation failed — the transport-portable
/// projection of host/deploy errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The hook is not registered on the node.
    UnknownHook(Uuid),
    /// The node shed the event under backpressure.
    Shed,
    /// The node rejected the operation; the verdict travels as text
    /// (engine and SUIT errors render identically on both adapters).
    Rejected(String),
    /// The transport gave up (retransmissions exhausted on the lossy
    /// link). Never produced by the in-process adapter.
    Timeout,
    /// The transport delivered something undecodable, or the operation
    /// does not fit the link MTU.
    Transport(String),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::UnknownHook(u) => write!(f, "unknown hook {u}"),
            NodeError::Shed => write!(f, "event shed by node backpressure"),
            NodeError::Rejected(reason) => write!(f, "node rejected: {reason}"),
            NodeError::Timeout => write!(f, "node unreachable: retransmissions exhausted"),
            NodeError::Transport(reason) => write!(f, "transport failure: {reason}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<HostError> for NodeError {
    fn from(e: HostError) -> Self {
        match e {
            HostError::UnknownHook(u) => NodeError::UnknownHook(u),
            HostError::Shed => NodeError::Shed,
            other => NodeError::Rejected(other.to_string()),
        }
    }
}

impl From<LiveDeployError> for NodeError {
    fn from(e: LiveDeployError) -> Self {
        NodeError::Rejected(e.to_string())
    }
}

/// A point-in-time stats/health snapshot of one node — the fleet's
/// observability surface, wire-encodable. The dispatch figures are a
/// view over the host's telemetry lanes, the same ledger `/metrics`
/// reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Events fully executed on the node.
    pub dispatched: u64,
    /// Events shed by backpressure.
    pub shed: u64,
    /// Live deploys accepted (SUIT pipeline + engine).
    pub deploys_accepted: u64,
    /// Live deploys rejected (validation, engine or rate limit).
    pub deploys_rejected: u64,
    /// Hooks currently registered.
    pub hooks: u64,
    /// p50 dispatch latency in nanoseconds (enqueue → completion).
    pub p50_ns: u64,
    /// p99 dispatch latency in nanoseconds.
    pub p99_ns: u64,
    /// Maximum per-shard busy time in simulated cycles — the node's
    /// capacity denominator under the repo's cycle-model methodology.
    pub max_shard_busy_cycles: u64,
}

/// Identifies one in-flight asynchronous submission on a
/// [`WindowedNode`] channel. Tickets are per-node and never reused
/// within a node's lifetime.
pub type Ticket = u64;

/// Transport-level counters for one node's windowed channel — the
/// observability surface the fleet bench prints next to [`NodeStats`].
/// All time quantities are **virtual** microseconds (the deterministic
/// `fc_net::link` clock), not wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Datagrams retransmitted (selective, per-token).
    pub retransmits: u64,
    /// High-water mark of concurrently open exchanges.
    pub in_flight_hwm: u64,
    /// Exchanges whose reply arrived after a later-launched exchange
    /// had already completed — the reordering the window tolerates.
    pub completed_out_of_order: u64,
    /// Smoothed round-trip time estimate in virtual µs (RFC 6298
    /// shape, Karn-sampled: retransmitted exchanges never update it).
    pub srtt_us: u64,
    /// Request/reply frames coalesced into shared datagrams under the
    /// MTU budget (frames beyond the first in each bundle).
    pub coalesced_frames: u64,
    /// Current virtual clock of the node's link, in µs.
    pub virtual_now_us: u64,
}

/// A completed asynchronous submission's payload — one variant per
/// submittable [`NodeService`] operation.
#[derive(Debug, Clone)]
pub enum NodeReply {
    /// `stage_chunk` succeeded.
    Staged,
    /// `dispatch_batch` result in offer order.
    Batch(Vec<Result<HookReport, NodeError>>),
    /// `deploy` verdict.
    Deploy(crate::DeployReport),
}

/// The non-blocking face of a node channel: submissions return a
/// [`Ticket`] immediately, [`WindowedNode::pump`] drives whatever the
/// transport needs driving (virtual link clocks, worker completions),
/// and [`WindowedNode::take`] collects finished replies in any order.
///
/// This is what lets `FcFleet` keep many nodes' windows full from one
/// single-threaded event loop: submit to every owner, then round-robin
/// `pump` until every ticket resolves. A [`NodeService`] exposes its
/// windowed face through [`NodeService::windowed`]; transports without
/// one (mocks, strictly synchronous adapters) simply return `None` and
/// the fleet falls back to the blocking calls.
pub trait WindowedNode {
    /// Submits a batch dispatch; resolves to [`NodeReply::Batch`].
    ///
    /// # Errors
    ///
    /// [`NodeError::UnknownHook`] (checked at submission) or transport
    /// errors that prevent even queuing the work.
    fn submit_batch(&mut self, hook: Uuid, events: Vec<HookEvent>) -> Result<Ticket, NodeError>;

    /// Submits a staging chunk; resolves to [`NodeReply::Staged`].
    ///
    /// # Errors
    ///
    /// Transport errors that prevent queuing.
    fn submit_stage(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<Ticket, NodeError>;

    /// Submits a SUIT deploy; resolves to [`NodeReply::Deploy`].
    ///
    /// # Errors
    ///
    /// Transport errors that prevent queuing.
    fn submit_deploy(&mut self, envelope: &[u8]) -> Result<Ticket, NodeError>;

    /// As [`WindowedNode::submit_batch`] with a durable exchange token
    /// (see [`NodeService::dispatch_batch_tagged`]). Defaults to the
    /// untagged submission for transports without durability.
    ///
    /// # Errors
    ///
    /// As [`WindowedNode::submit_batch`].
    fn submit_batch_tagged(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        _token: &[u8],
    ) -> Result<Ticket, NodeError> {
        self.submit_batch(hook, events)
    }

    /// As [`WindowedNode::submit_deploy`] with a durable exchange
    /// token (see [`NodeService::deploy_tagged`]).
    ///
    /// # Errors
    ///
    /// As [`WindowedNode::submit_deploy`].
    fn submit_deploy_tagged(
        &mut self,
        envelope: &[u8],
        _token: &[u8],
    ) -> Result<Ticket, NodeError> {
        self.submit_deploy(envelope)
    }

    /// Makes one step of progress (delivers datagrams, launches queued
    /// exchanges, collects worker completions, advances the virtual
    /// clock). Returns `true` when anything moved — a caller looping
    /// over several nodes should keep pumping while any node reports
    /// progress or tickets remain outstanding.
    fn pump(&mut self) -> bool;

    /// Takes the result of a finished submission, or `None` while it
    /// is still in flight. A taken ticket is forgotten.
    fn take(&mut self, ticket: Ticket) -> Option<Result<NodeReply, NodeError>>;

    /// Transport counters so far.
    fn transport_stats(&self) -> TransportStats;
}

/// The operations a fleet front tier performs against one hosting
/// node, transport-agnostically (module docs).
///
/// Containers reach a node **only** through the SUIT lane
/// ([`NodeService::stage_chunk`] + [`NodeService::deploy`]) — the
/// paper's deployment model, and the reason hook handoff between nodes
/// can always be replayed from the fleet's retained updates.
pub trait NodeService {
    /// Registers a launchpad hook on the node.
    ///
    /// # Errors
    ///
    /// [`NodeError`] on transport failure (in-process registration is
    /// infallible).
    fn register_hook(&mut self, hook: Hook, offer: ContractOffer) -> Result<(), NodeError>;

    /// Unregisters a hook and **evacuates** its component: the bound
    /// container is retired and the node's SUIT rollback state for the
    /// component is forgotten, so the hook can be re-homed elsewhere —
    /// or back here — by re-deploying the fleet's retained update.
    ///
    /// # Errors
    ///
    /// [`NodeError::UnknownHook`] when the hook is not registered here.
    fn unregister_hook(&mut self, hook: Uuid) -> Result<(), NodeError>;

    /// Fires one event at a hook and returns its full report.
    ///
    /// # Errors
    ///
    /// [`NodeError::UnknownHook`] / [`NodeError::Shed`] /
    /// transport errors.
    fn dispatch(&mut self, hook: Uuid, event: HookEvent) -> Result<HookReport, NodeError>;

    /// Fires a vector of events at one hook, reports in offer order;
    /// per-event outcomes are independent (a shed event fails its own
    /// slot only).
    ///
    /// # Errors
    ///
    /// [`NodeError::UnknownHook`] or a transport error for the batch as
    /// a whole.
    fn dispatch_batch(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
    ) -> Result<Vec<Result<HookReport, NodeError>>, NodeError>;

    /// Stages one block-wise payload chunk under a URI (the
    /// [`fc_net::block::stage_chunk`] discipline; a hole is an error —
    /// the transfer must restart).
    ///
    /// # Errors
    ///
    /// [`NodeError::Rejected`] for a hole, or transport errors.
    fn stage_chunk(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<(), NodeError>;

    /// Applies a signed SUIT manifest against the node's staged
    /// payloads — the live-deploy pipeline of
    /// [`LiveUpdateService::apply`].
    ///
    /// # Errors
    ///
    /// [`NodeError::Rejected`] with the verdict, or transport errors.
    fn deploy(&mut self, envelope: &[u8]) -> Result<crate::DeployReport, NodeError>;

    /// Stats/health snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    fn stats(&mut self) -> Result<NodeStats, NodeError>;

    /// Full observability snapshot ([`crate::MetricsSnapshot`]): every
    /// ledger counter, per-tenant/per-hook/per-shard sections with
    /// mergeable latency histograms — what the fleet aggregator scrapes
    /// and merges into its fleet-wide view. Defaults to a rejection so
    /// transports and test doubles predating the metrics plane stay
    /// valid [`NodeService`] implementations.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`NodeError::Rejected`] when the node does
    /// not serve metrics.
    fn metrics(&mut self) -> Result<crate::MetricsSnapshot, NodeError> {
        Err(NodeError::Rejected(
            "node does not serve metrics".to_owned(),
        ))
    }

    /// The node's non-blocking windowed face, when the transport has
    /// one. Defaults to `None` so existing adapters and test doubles
    /// stay valid; the fleet falls back to blocking calls for them.
    fn windowed(&mut self) -> Option<&mut dyn WindowedNode> {
        None
    }

    /// Whether the node has crash-stopped: its durable media powered
    /// off mid-operation (fault injection) and the node will answer
    /// nothing until restored. Defaults to `false` — non-durable nodes
    /// cannot crash this way.
    fn crashed(&self) -> bool {
        false
    }

    /// As [`NodeService::dispatch`], carrying the transport token of
    /// the exchange. On a durable node the event commits under the
    /// token before the reply leaves, and a **restored** node answers a
    /// retransmission of a pre-crash token from its journal — same
    /// report bytes, no re-execution. Defaults to plain dispatch for
    /// adapters without durability.
    fn dispatch_tagged(
        &mut self,
        hook: Uuid,
        event: HookEvent,
        _token: &[u8],
    ) -> Result<HookReport, NodeError> {
        self.dispatch(hook, event)
    }

    /// As [`NodeService::dispatch_batch`] with a durable exchange
    /// token; per-slot commits mean a restored node re-executes only
    /// the slots that had not committed before the crash.
    fn dispatch_batch_tagged(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        _token: &[u8],
    ) -> Result<Vec<Result<HookReport, NodeError>>, NodeError> {
        self.dispatch_batch(hook, events)
    }

    /// As [`NodeService::deploy`] with a durable exchange token: an
    /// accepted deploy journals its report under the token, so a
    /// restored node answers a retransmission without re-applying.
    /// (Rejections are deterministic and simply re-derive.)
    fn deploy_tagged(
        &mut self,
        envelope: &[u8],
        _token: &[u8],
    ) -> Result<crate::DeployReport, NodeError> {
        self.deploy(envelope)
    }
}

/// The in-process [`NodeService`] adapter: one [`FcHost`] plus its
/// [`LiveUpdateService`], called directly.
///
/// # Examples
///
/// ```
/// use fc_core::contract::ContractOffer;
/// use fc_core::helpers_impl::standard_helper_ids;
/// use fc_core::hooks::{Hook, HookKind, HookPolicy};
/// use fc_host::{HostConfig, LocalNode, NodeService};
/// use fc_rtos::platform::{Engine, Platform};
///
/// let mut node = LocalNode::new(Platform::CortexM4, Engine::FemtoContainer, HostConfig::default());
/// let hook = Hook::new("tick", HookKind::Timer, HookPolicy::First);
/// let hook_id = hook.id;
/// node.register_hook(hook, ContractOffer::helpers(standard_helper_ids())).unwrap();
/// let report = node.dispatch(hook_id, Default::default()).unwrap();
/// assert!(report.executions.is_empty()); // nothing deployed yet
/// ```
pub struct LocalNode {
    host: FcHost,
    updates: LiveUpdateService,
    hooks: u64,
    pending: HashMap<Ticket, LocalPending>,
    next_ticket: Ticket,
    in_flight_hwm: u64,
    /// Journal-recovered tagged exchanges, by token: retransmissions
    /// of pre-crash exchanges answer from here without re-executing.
    resume: HashMap<Vec<u8>, RecoveredExchange>,
    /// Journal-recovered deploy reports, by token.
    deploy_replies: HashMap<Vec<u8>, crate::DeployReport>,
}

/// One outstanding asynchronous submission on a [`LocalNode`].
enum LocalPending {
    /// A batch whose events execute on the host's worker threads; each
    /// slot fills from its reply channel as the worker finishes.
    Batch {
        receivers: Vec<Option<Receiver<Result<HookReport, EngineError>>>>,
        slots: Vec<Option<Result<HookReport, NodeError>>>,
    },
    /// An operation that completed synchronously at submission
    /// (staging and deploys run on the caller thread in-process).
    Ready(Result<NodeReply, NodeError>),
}

impl LocalNode {
    /// Starts a node: a fresh host plus an empty update service.
    pub fn new(platform: Platform, flavor: EngineFlavor, config: HostConfig) -> Self {
        Self::with_host(
            FcHost::new(platform, flavor, config),
            LiveUpdateService::new(),
        )
    }

    /// Starts a **durable** node: every event commit, accepted deploy
    /// and bare store write is journaled to `media` before its reply
    /// can leave (see [`FcHost::with_durability`]). With
    /// `durability.enabled == false` this is exactly [`LocalNode::new`].
    pub fn durable(
        platform: Platform,
        flavor: EngineFlavor,
        config: HostConfig,
        media: &JournalMedia,
        durability: DurabilityConfig,
    ) -> Self {
        Self::with_host(
            FcHost::with_durability(platform, flavor, config, media, durability),
            LiveUpdateService::new(),
        )
    }

    /// Restores a node from crashed durable media: replays the
    /// journal's durable prefix, re-registers `hooks` (the
    /// fleet-retained specs, **in original registration order** — hook
    /// placement is round-robin over registration order, and counter
    /// seeding keys per-hook telemetry off the re-derived shard),
    /// reinstalls every committed deploy at its pre-crash container id
    /// and rollback-protected sequence, reapplies committed kv state,
    /// seeds the telemetry ledger once so pre-crash dispatches are not
    /// re-counted, and rebuilds the exchange-resume cache so
    /// retransmissions of pre-crash exchanges answer byte-identically.
    ///
    /// Tenant trust anchors are **not** durable — re-provision them
    /// through [`LocalNode::updates_mut`] before accepting new deploys.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the media fails closed (header/CRC
    /// corruption beyond the durable prefix) or a recovered record no
    /// longer re-applies.
    pub fn restore(
        platform: Platform,
        flavor: EngineFlavor,
        config: HostConfig,
        media: &JournalMedia,
        durability: DurabilityConfig,
        hooks: Vec<(Hook, ContractOffer)>,
    ) -> Result<Self, JournalError> {
        let (journal, state) = Journal::recover(media, durability)?;
        // The journal is still quiet: nothing replayed below re-enters
        // it (bare store notifications no-op until `arm`).
        let host = FcHost::with_env_and_journal(
            platform,
            flavor,
            config,
            Arc::new(HostEnv::new(fc_kvstore::DEFAULT_CAPACITY)),
            Some(Arc::clone(&journal)),
        );
        let mut node = Self::with_host(host, LiveUpdateService::new());
        for (hook, offer) in hooks {
            node.register_hook(hook, offer)
                .map_err(|e| JournalError::Replay(e.to_string()))?;
        }
        for rec in &state.deploys {
            node.updates
                .restore_component(&node.host, rec)
                .map_err(|e| JournalError::Replay(e.to_string()))?;
        }
        if let Some(next) = state.deploys.iter().map(|d| d.report.container).max() {
            node.host.ensure_next_container_id(next + 1);
        }
        for w in &state.kv {
            node.host
                .env()
                .stores()
                .store(w.container, w.tenant, w.scope, w.key, w.value)
                .map_err(|e| JournalError::Replay(e.to_string()))?;
        }
        let seeds = &state.seeds;
        node.host
            .telemetry()
            .seed(seeds, |hook| node.host.shard_of_hook(*hook).unwrap_or(0));
        node.updates.seed_accepted(seeds.deploys);
        node.resume = state
            .exchanges
            .into_iter()
            .map(|e| (e.token.clone(), e))
            .collect();
        node.deploy_replies = state.deploy_replies.into_iter().collect();
        journal.arm();
        Ok(node)
    }

    /// Wraps an existing host and update service.
    pub fn with_host(host: FcHost, updates: LiveUpdateService) -> Self {
        LocalNode {
            host,
            updates,
            hooks: 0,
            pending: HashMap::new(),
            next_ticket: 0,
            in_flight_hwm: 0,
            resume: HashMap::new(),
            deploy_replies: HashMap::new(),
        }
    }

    fn issue_ticket(&mut self, pending: LocalPending) -> Ticket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.insert(ticket, pending);
        self.in_flight_hwm = self.in_flight_hwm.max(self.pending.len() as u64);
        ticket
    }

    /// The wrapped host (e.g. to seed its environment).
    pub fn host(&self) -> &FcHost {
        &self.host
    }

    /// The wrapped update service (e.g. to provision tenants).
    pub fn updates_mut(&mut self) -> &mut LiveUpdateService {
        &mut self.updates
    }

    /// Renders a host error exactly as the wire adapter would decode
    /// it, keeping the two transports indistinguishable to callers.
    fn portable(e: HostError) -> NodeError {
        e.into()
    }

    /// Pre-fills a batch's outcome slots with the committed results a
    /// restored journal retained for `token`; uncommitted slots stay
    /// `None` and must be (re-)executed.
    fn resume_slots(
        &self,
        token: &[u8],
        total: usize,
    ) -> Vec<Option<Result<HookReport, NodeError>>> {
        let mut slots = vec![None; total];
        if let Some(exchange) = self.resume.get(token) {
            for (index, outcome) in &exchange.outcomes {
                if let Some(slot) = slots.get_mut(*index as usize) {
                    *slot = Some(outcome.clone());
                }
            }
        }
        slots
    }

    /// Fires the not-yet-committed slots of a tagged batch and fills
    /// their reply receivers back into position; committed slots keep
    /// their journal-recovered outcomes and are not re-executed.
    #[allow(clippy::type_complexity)] // mirrors fire_batch_with_reply
    fn fire_uncommitted(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        token: &[u8],
        slots: &[Option<Result<HookReport, NodeError>>],
    ) -> Result<Vec<Option<Receiver<Result<HookReport, EngineError>>>>, NodeError> {
        let total = events.len() as u32;
        let mut receivers: Vec<Option<Receiver<_>>> = (0..events.len()).map(|_| None).collect();
        let mut to_fire = Vec::new();
        let mut tags = Vec::new();
        let mut fired = Vec::new();
        for (index, event) in events.into_iter().enumerate() {
            if slots[index].is_none() {
                to_fire.push(event);
                tags.push(DurableTag {
                    token: token.to_vec(),
                    kind: TagKind::Batch,
                    index: index as u32,
                    total,
                });
                fired.push(index);
            }
        }
        if !to_fire.is_empty() {
            let fresh = self
                .host
                .fire_batch_with_reply_tagged(hook, to_fire, tags)
                .map_err(Self::portable)?;
            for (index, rx) in fired.into_iter().zip(fresh) {
                receivers[index] = Some(rx);
            }
        }
        Ok(receivers)
    }
}

impl NodeService for LocalNode {
    fn register_hook(&mut self, hook: Hook, offer: ContractOffer) -> Result<(), NodeError> {
        if self.host.shard_of_hook(hook.id).is_none() {
            // A standby copy of this component (installed unattached by
            // a deploy fan-out while the hook lived on another node) is
            // superseded by the authoritative re-deploy that follows a
            // hook handoff here: retire it and clear its rollback state
            // now, or that same-sequence re-deploy would be rejected as
            // a rollback and the stale container would linger.
            if let Some(standby) = self.updates.forget_component_on(&self.host, hook.id) {
                self.host.remove(standby);
            }
            self.hooks += 1;
        }
        self.host.register_hook(hook, offer);
        Ok(())
    }

    fn unregister_hook(&mut self, hook: Uuid) -> Result<(), NodeError> {
        self.host.unregister_hook(hook).map_err(Self::portable)?;
        self.hooks = self.hooks.saturating_sub(1);
        // Evacuate the component: retire its SUIT-bound container and
        // clear rollback state so a retained update can re-home it.
        // Durable nodes journal the evacuation so a restore does not
        // resurrect the departed component.
        if let Some(container) = self.updates.forget_component_on(&self.host, hook) {
            self.host.remove(container);
        }
        Ok(())
    }

    fn dispatch(&mut self, hook: Uuid, event: HookEvent) -> Result<HookReport, NodeError> {
        self.host
            .fire_sync(hook, &event.ctx, &event.extra)
            .map_err(Self::portable)
    }

    fn dispatch_batch(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
    ) -> Result<Vec<Result<HookReport, NodeError>>, NodeError> {
        let receivers = self
            .host
            .fire_batch_with_reply(hook, events)
            .map_err(Self::portable)?;
        Ok(receivers
            .into_iter()
            .map(|rx| match rx.recv() {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(e)) => Err(Self::portable(HostError::Engine(e))),
                // Sender dropped without a send: displaced after
                // acceptance.
                Err(_) => Err(NodeError::Shed),
            })
            .collect())
    }

    fn stage_chunk(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<(), NodeError> {
        if self.updates.stage_block(uri, offset, chunk, restart) {
            Ok(())
        } else {
            Err(NodeError::Rejected(format!(
                "staging hole at offset {offset} for `{uri}`"
            )))
        }
    }

    fn deploy(&mut self, envelope: &[u8]) -> Result<crate::DeployReport, NodeError> {
        self.updates
            .apply(&self.host, envelope)
            .map_err(NodeError::from)
    }

    fn stats(&mut self) -> Result<NodeStats, NodeError> {
        use crate::telemetry::CounterId;
        let snap = self.host.metrics_snapshot();
        Ok(NodeStats {
            dispatched: snap.counter(CounterId::Dispatched),
            shed: snap.counter(CounterId::Shed),
            deploys_accepted: self.updates.accepted_count(),
            deploys_rejected: self.updates.rejected_count() + self.updates.rate_limited_count(),
            hooks: self.hooks,
            p50_ns: snap.latency.quantile_ns(0.50),
            p99_ns: snap.latency.quantile_ns(0.99),
            max_shard_busy_cycles: snap.shards.iter().map(|s| s.busy_cycles).max().unwrap_or(0),
        })
    }

    fn metrics(&mut self) -> Result<crate::MetricsSnapshot, NodeError> {
        use crate::telemetry::CounterId;
        let mut snap = self.host.metrics_snapshot();
        // Overlay the live-update service's ledgers — they live beside
        // the host, not inside it.
        snap.set_counter(CounterId::DeploysAccepted, self.updates.accepted_count());
        snap.set_counter(
            CounterId::DeploysRejected,
            self.updates.rejected_count() + self.updates.rate_limited_count(),
        );
        Ok(snap)
    }

    fn windowed(&mut self) -> Option<&mut dyn WindowedNode> {
        Some(self)
    }

    fn crashed(&self) -> bool {
        !self.host.alive()
    }

    fn dispatch_tagged(
        &mut self,
        hook: Uuid,
        event: HookEvent,
        token: &[u8],
    ) -> Result<HookReport, NodeError> {
        if let Some(exchange) = self.resume.get(token) {
            if let Some((_, outcome)) = exchange.outcomes.iter().find(|(i, _)| *i == 0) {
                return outcome.clone();
            }
        }
        let tag = DurableTag {
            token: token.to_vec(),
            kind: TagKind::Dispatch,
            index: 0,
            total: 1,
        };
        let rx = self
            .host
            .fire_with_reply_tagged(hook, &event.ctx, &event.extra, Some(tag))
            .map_err(Self::portable)?;
        match rx.recv() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(Self::portable(HostError::Engine(e))),
            // Sender dropped without a send: displaced after
            // acceptance, or reply suppressed by a mid-commit crash
            // (callers check `crashed()` before trusting the verdict).
            Err(_) => Err(NodeError::Shed),
        }
    }

    fn dispatch_batch_tagged(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        token: &[u8],
    ) -> Result<Vec<Result<HookReport, NodeError>>, NodeError> {
        let mut slots = self.resume_slots(token, events.len());
        let receivers = self.fire_uncommitted(hook, events, token, &slots)?;
        for (slot, rx) in slots.iter_mut().zip(receivers) {
            let Some(rx) = rx else { continue };
            *slot = Some(match rx.recv() {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(e)) => Err(Self::portable(HostError::Engine(e))),
                Err(_) => Err(NodeError::Shed),
            });
        }
        Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect())
    }

    fn deploy_tagged(
        &mut self,
        envelope: &[u8],
        token: &[u8],
    ) -> Result<crate::DeployReport, NodeError> {
        if let Some(report) = self.deploy_replies.get(token) {
            return Ok(*report);
        }
        self.updates
            .apply_tagged(&self.host, envelope, Some(token.to_vec()))
            .map_err(NodeError::from)
    }
}

impl WindowedNode for LocalNode {
    fn submit_batch(&mut self, hook: Uuid, events: Vec<HookEvent>) -> Result<Ticket, NodeError> {
        let receivers = self
            .host
            .fire_batch_with_reply(hook, events)
            .map_err(Self::portable)?;
        let slots = receivers.iter().map(|_| None).collect();
        let receivers = receivers.into_iter().map(Some).collect();
        Ok(self.issue_ticket(LocalPending::Batch { receivers, slots }))
    }

    fn submit_stage(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<Ticket, NodeError> {
        let result = self
            .stage_chunk(uri, offset, chunk, restart)
            .map(|()| NodeReply::Staged);
        Ok(self.issue_ticket(LocalPending::Ready(result)))
    }

    fn submit_deploy(&mut self, envelope: &[u8]) -> Result<Ticket, NodeError> {
        let result = self.deploy(envelope).map(NodeReply::Deploy);
        Ok(self.issue_ticket(LocalPending::Ready(result)))
    }

    fn submit_batch_tagged(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        token: &[u8],
    ) -> Result<Ticket, NodeError> {
        let slots = self.resume_slots(token, events.len());
        let receivers = self.fire_uncommitted(hook, events, token, &slots)?;
        Ok(self.issue_ticket(LocalPending::Batch { receivers, slots }))
    }

    fn submit_deploy_tagged(&mut self, envelope: &[u8], token: &[u8]) -> Result<Ticket, NodeError> {
        let result = NodeService::deploy_tagged(self, envelope, token).map(NodeReply::Deploy);
        Ok(self.issue_ticket(LocalPending::Ready(result)))
    }

    fn pump(&mut self) -> bool {
        let mut progressed = false;
        for pending in self.pending.values_mut() {
            let LocalPending::Batch { receivers, slots } = pending else {
                continue;
            };
            for (rx_slot, out) in receivers.iter_mut().zip(slots.iter_mut()) {
                let Some(rx) = rx_slot else { continue };
                let filled = match rx.try_recv() {
                    Ok(Ok(report)) => Some(Ok(report)),
                    Ok(Err(e)) => Some(Err(Self::portable(HostError::Engine(e)))),
                    Err(TryRecvError::Empty) => None,
                    // Sender dropped without a send: displaced after
                    // acceptance.
                    Err(TryRecvError::Disconnected) => Some(Err(NodeError::Shed)),
                };
                if let Some(result) = filled {
                    *out = Some(result);
                    *rx_slot = None;
                    progressed = true;
                }
            }
        }
        progressed
    }

    fn take(&mut self, ticket: Ticket) -> Option<Result<NodeReply, NodeError>> {
        let done = match self.pending.get(&ticket)? {
            LocalPending::Ready(_) => true,
            LocalPending::Batch { slots, .. } => slots.iter().all(Option::is_some),
        };
        if !done {
            return None;
        }
        match self.pending.remove(&ticket)? {
            LocalPending::Ready(result) => Some(result),
            LocalPending::Batch { slots, .. } => Some(Ok(NodeReply::Batch(
                slots.into_iter().map(|s| s.expect("slot filled")).collect(),
            ))),
        }
    }

    fn transport_stats(&self) -> TransportStats {
        // In-process: no link, no retransmissions, no virtual clock.
        TransportStats {
            in_flight_hwm: self.in_flight_hwm,
            ..TransportStats::default()
        }
    }
}

impl std::fmt::Debug for LocalNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalNode")
            .field("host", &self.host)
            .field("hooks", &self.hooks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::deploy::author_update;
    use fc_core::helpers_impl::standard_helper_ids;
    use fc_core::hooks::{HookKind, HookPolicy};
    use fc_suit::SigningKey;

    fn node() -> (LocalNode, Uuid, SigningKey) {
        let mut node = LocalNode::new(
            Platform::CortexM4,
            EngineFlavor::FemtoContainer,
            HostConfig {
                workers: 2,
                ..HostConfig::default()
            },
        );
        let key = SigningKey::from_seed(b"svc-maintainer");
        node.updates_mut()
            .provision_tenant(b"svc-tenant", key.verifying_key(), 1);
        let hook = Hook::new("svc-hook", HookKind::Custom, HookPolicy::First);
        let hook_id = hook.id;
        node.register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
            .unwrap();
        (node, hook_id, key)
    }

    fn deploy_counter(node: &mut LocalNode, hook: Uuid, key: &SigningKey, version: u64) -> u32 {
        let app = fc_core::apps::thread_counter();
        let uri = format!("svc-v{version}");
        let (envelope, payload) = author_update(&app, hook, version, &uri, key, b"svc-tenant");
        for chunk in payload.chunks(32).enumerate() {
            node.stage_chunk(&uri, chunk.0 * 32, chunk.1, chunk.0 == 0)
                .unwrap();
        }
        node.deploy(&envelope).unwrap().container
    }

    #[test]
    fn suit_deploy_then_dispatch_round_trips() {
        let (mut node, hook_id, key) = node();
        let container = deploy_counter(&mut node, hook_id, &key, 1);
        let report = node.dispatch(hook_id, HookEvent::default()).unwrap();
        assert_eq!(report.executions.len(), 1);
        assert_eq!(report.executions[0].container, container);
        let batch = node
            .dispatch_batch(hook_id, vec![HookEvent::default(); 4])
            .unwrap();
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().all(|r| r.is_ok()));
        let stats = node.stats().unwrap();
        assert_eq!(stats.dispatched, 5);
        assert_eq!(stats.deploys_accepted, 1);
        assert_eq!(stats.hooks, 1);
    }

    #[test]
    fn unregister_evacuates_component_for_rehoming() {
        let (mut node, hook_id, key) = node();
        deploy_counter(&mut node, hook_id, &key, 3);
        node.unregister_hook(hook_id).unwrap();
        assert!(matches!(
            node.dispatch(hook_id, HookEvent::default()),
            Err(NodeError::UnknownHook(_))
        ));
        // Re-homing: the same hook and the SAME sequence re-deploy
        // cleanly — rollback state was forgotten with the hook.
        node.register_hook(
            Hook::new("svc-hook", HookKind::Custom, HookPolicy::First),
            ContractOffer::helpers(standard_helper_ids()),
        )
        .unwrap();
        deploy_counter(&mut node, hook_id, &key, 3);
        let report = node.dispatch(hook_id, HookEvent::default()).unwrap();
        assert_eq!(report.executions.len(), 1, "exactly one container serves");
    }

    #[test]
    fn windowed_face_resolves_tickets_out_of_order() {
        let (mut node, hook_id, key) = node();
        deploy_counter(&mut node, hook_id, &key, 1);
        let w = node.windowed().expect("local node has a windowed face");
        let t1 = w
            .submit_batch(hook_id, vec![HookEvent::default(); 3])
            .unwrap();
        let t2 = w
            .submit_batch(hook_id, vec![HookEvent::default(); 2])
            .unwrap();
        let mut got = HashMap::new();
        while got.len() < 2 {
            w.pump();
            for t in [t1, t2] {
                if let std::collections::hash_map::Entry::Vacant(e) = got.entry(t) {
                    if let Some(r) = w.take(t) {
                        e.insert(r);
                    }
                }
            }
            std::thread::yield_now();
        }
        for (t, len) in [(t1, 3), (t2, 2)] {
            match got.remove(&t).unwrap() {
                Ok(NodeReply::Batch(reports)) => {
                    assert_eq!(reports.len(), len);
                    assert!(reports.iter().all(Result::is_ok));
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(w.take(t1).is_none(), "tickets are single-take");
        assert!(w.transport_stats().in_flight_hwm >= 2);
        assert_eq!(node.stats().unwrap().dispatched, 5);
    }

    #[test]
    fn windowed_submit_rejects_unknown_hook_at_submission() {
        let (mut node, _, _) = node();
        let ghost = Uuid::from_name("svc", "ghost");
        let w = node.windowed().unwrap();
        assert!(matches!(
            w.submit_batch(ghost, vec![HookEvent::default()]),
            Err(NodeError::UnknownHook(_))
        ));
        // Synchronous-at-submit operations still resolve via take().
        let t = w.submit_stage("w-uri", 0, &[1, 2, 3], true).unwrap();
        assert!(matches!(w.take(t), Some(Ok(NodeReply::Staged))));
        let t = w.submit_deploy(b"garbage").unwrap();
        assert!(matches!(w.take(t), Some(Err(NodeError::Rejected(_)))));
    }

    /// The node's metrics snapshot reconciles exactly with its
    /// `stats()` ledgers — the invariant the fleet aggregation tests
    /// lean on per node.
    #[test]
    fn metrics_snapshot_reconciles_with_stats() {
        use crate::telemetry::CounterId;
        let (mut node, hook_id, key) = node();
        deploy_counter(&mut node, hook_id, &key, 1);
        node.dispatch_batch(hook_id, vec![HookEvent::default(); 8])
            .unwrap();
        let stats = node.stats().unwrap();
        let snap = node.metrics().unwrap();
        assert_eq!(snap.counter(CounterId::Dispatched), stats.dispatched);
        assert_eq!(snap.counter(CounterId::Shed), stats.shed);
        assert_eq!(
            snap.counter(CounterId::DeploysAccepted),
            stats.deploys_accepted
        );
        assert_eq!(
            snap.counter(CounterId::DeploysRejected),
            stats.deploys_rejected
        );
        // The keyed sections saw the same traffic as the ledgers.
        assert_eq!(snap.tenant(1).unwrap().executions, stats.dispatched);
        assert_eq!(snap.hook(&hook_id).unwrap().dispatched, stats.dispatched);
        assert_eq!(
            snap.shards.iter().map(|s| s.dispatched).sum::<u64>(),
            stats.dispatched
        );
        // Interpolated quantiles agree with the ledger histogram.
        assert_eq!(snap.latency.quantile_ns(0.99), stats.p99_ns);
        // Round-trips the wire encoding losslessly.
        let decoded = crate::MetricsSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn errors_are_wire_portable() {
        let (mut node, _, _) = node();
        let ghost = Uuid::from_name("svc", "ghost");
        assert_eq!(
            node.dispatch(ghost, HookEvent::default()),
            Err(NodeError::UnknownHook(ghost))
        );
        // A staging hole renders as a textual rejection.
        assert!(matches!(
            node.stage_chunk("u", 64, &[1], false),
            Err(NodeError::Rejected(_))
        ));
        // A garbage envelope renders the SUIT verdict as text.
        let err = node.deploy(b"garbage").unwrap_err();
        assert!(matches!(err, NodeError::Rejected(_)), "{err:?}");
    }
}
