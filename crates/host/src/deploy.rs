//! Live SUIT deployment onto a running [`FcHost`].
//!
//! The paper's headline capability (§5) is secure over-the-air
//! deployment onto a *running* device: a signed SUIT manifest arrives,
//! its payload is fetched block-wise over CoAP, and only a
//! fully-verified image reaches the engine. The single-device flow
//! lives in `fc_core::deploy`; this module is the hosting-runtime
//! version — the same security pipeline, but the install lands
//! **through the shard control lane** while the host keeps serving
//! events:
//!
//! 1. payload blocks are staged into the service (over
//!    [`crate::CoapFront::dispatch_suit`] or directly via
//!    [`LiveUpdateService::stage_payload`]);
//! 2. the manifest's COSE/Schnorr envelope is verified against the
//!    tenant's provisioned key, rollback-checked, and the staged
//!    payload digest-checked — **before** the engine is touched;
//! 3. the verified image rides one [`FcHost::deploy_verified`] call:
//!    placement consults the *current* hook→shard routing
//!    (post-migration), and the install + attach + predecessor
//!    retirement execute as one control-lane command between event
//!    drains — no quiescing, no torn state;
//! 4. only then is the SUIT sequence number committed, so a deploy the
//!    engine rejects never burns it.
//!
//! Every mutation of a live hook thus funnels through one serialization
//! point per shard — the control lane — mirroring how containerized
//! runtimes route all lifecycle through a single agent channel instead
//! of side-channel mutation of a running sandbox.

use std::collections::HashMap;

use fc_core::deploy::{component_name, contract_request_for};
use fc_core::engine::{ContainerId, EngineError};
use fc_kvstore::TenantId;
use fc_net::block::StagingArea;
use fc_rbpf::program::FcProgram;
use fc_suit::{UpdateError, UpdateManager, Uuid, VerifyingKey};

use crate::host::{FcHost, HostError};
use crate::telemetry::{CounterId, TraceKind};

/// Why a live deployment was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveDeployError {
    /// Manifest/payload validation failed (signature, rollback, size,
    /// digest).
    Update(UpdateError),
    /// The host (or its target shard's engine) rejected the deploy.
    Host(HostError),
    /// The manifest's payload URI has not been staged.
    PayloadUnavailable {
        /// The URI the manifest named.
        uri: String,
    },
    /// The tenant exhausted its deploy token bucket
    /// ([`LiveUpdateService::limit_tenant_rate`]); retry after the
    /// bucket refills. Distinct from validation failures so operators
    /// can tell throttling from broken images.
    RateLimited {
        /// The throttled tenant.
        tenant: TenantId,
    },
}

impl std::fmt::Display for LiveDeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveDeployError::Update(e) => write!(f, "update rejected: {e}"),
            LiveDeployError::Host(e) => write!(f, "host rejected: {e}"),
            LiveDeployError::PayloadUnavailable { uri } => {
                write!(f, "payload `{uri}` not staged")
            }
            LiveDeployError::RateLimited { tenant } => {
                write!(f, "deploy rate limit exceeded for tenant {tenant}")
            }
        }
    }
}

impl std::error::Error for LiveDeployError {}

impl From<UpdateError> for LiveDeployError {
    fn from(e: UpdateError) -> Self {
        LiveDeployError::Update(e)
    }
}

impl From<HostError> for LiveDeployError {
    fn from(e: HostError) -> Self {
        LiveDeployError::Host(e)
    }
}

/// What an accepted live deploy did — the report sent back through the
/// reply lane (the CoAP response payload, via its `Display`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployReport {
    /// The freshly installed container.
    pub container: ContainerId,
    /// The manifest's storage location (= target hook UUID).
    pub component: Uuid,
    /// Shard the container landed on.
    pub shard: usize,
    /// The committed SUIT sequence number.
    pub sequence: u64,
    /// Whether the container was attached to the component's hook
    /// (`false` for an unattached install: the component names no
    /// registered hook).
    pub attached: bool,
    /// Predecessor container retired by this deploy, if any.
    pub replaced: Option<ContainerId>,
}

impl std::fmt::Display for DeployReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deployed container={} shard={} seq={} attached={}",
            self.container, self.shard, self.sequence, self.attached
        )?;
        if let Some(old) = self.replaced {
            write!(f, " replaced={old}")?;
        }
        Ok(())
    }
}

/// The outcome of one [`LiveUpdateService::apply`], kept for
/// asynchronous clients polling `/suit/report`
/// ([`crate::CoapFront::dispatch_suit`]): a client whose in-band
/// response was lost on the wire can fetch the verdict instead of
/// blindly resubmitting the manifest. Outcomes are recorded both
/// globally (the service's last apply) and **per component**, so one
/// tenant's poll is never answered with another tenant's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployPoll {
    /// Monotone apply counter — lets a poller tell a fresh outcome from
    /// the one it already saw.
    pub serial: u64,
    /// The manifest's component (storage location), when the envelope
    /// parsed far enough to name one.
    pub component: Option<Uuid>,
    /// Whether the deploy landed.
    pub accepted: bool,
    /// The committed SUIT sequence number, when accepted.
    pub sequence: Option<u64>,
    /// The accepted report (its `Display`) or the rejection reason.
    pub detail: String,
}

impl std::fmt::Display for DeployPoll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deploy #{} {}",
            self.serial,
            if self.accepted {
                "accepted"
            } else {
                "rejected"
            },
        )?;
        if let Some(component) = self.component {
            write!(f, " component={component}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// A deploy-rate token bucket: `capacity` deploys in a burst, refilled
/// continuously at `refill_per_sec` of **virtual time** — the host's
/// deterministic clock ([`fc_core::helpers_impl::HostEnv::now_us`]),
/// like every other time-dependent mechanism in this stack.
#[derive(Debug, Clone)]
struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    /// Virtual timestamp of the last refill; `None` until first use so
    /// a bucket configured before the clock advances does not count the
    /// whole epoch as elapsed.
    last_us: Option<u64>,
}

impl TokenBucket {
    fn new(capacity: u32, refill_per_sec: f64) -> Self {
        TokenBucket {
            capacity: capacity as f64,
            tokens: capacity as f64,
            refill_per_sec: refill_per_sec.max(0.0),
            last_us: None,
        }
    }

    fn try_take(&mut self, now_us: u64) -> bool {
        if let Some(last_us) = self.last_us {
            let elapsed_s = now_us.saturating_sub(last_us) as f64 / 1e6;
            self.tokens = (self.tokens + self.refill_per_sec * elapsed_s).min(self.capacity);
        }
        self.last_us = Some(now_us);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn credit(&mut self, tokens: u32) {
        self.tokens = (self.tokens + tokens as f64).min(self.capacity);
    }
}

/// The host-owned SUIT update service: provisioned trust anchors,
/// per-component sequence state, block-wise payload staging (bounded —
/// abandoned transfers are LRU-evicted), per-tenant deploy rate
/// limits, and the component → container bindings that make re-deploys
/// replace their predecessor.
///
/// # Examples
///
/// ```
/// use fc_core::deploy::author_update;
/// use fc_core::contract::ContractOffer;
/// use fc_core::helpers_impl::standard_helper_ids;
/// use fc_core::hooks::{Hook, HookKind, HookPolicy};
/// use fc_host::{FcHost, HostConfig, LiveUpdateService};
/// use fc_rtos::platform::{Engine, Platform};
/// use fc_suit::SigningKey;
///
/// let mut host = FcHost::new(Platform::CortexM4, Engine::FemtoContainer, HostConfig::default());
/// let hook = Hook::new("tick", HookKind::Timer, HookPolicy::First);
/// let hook_id = hook.id;
/// host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
///
/// // Commissioning: provision the tenant's verification key.
/// let key = SigningKey::from_seed(b"tenant-a-maintainer");
/// let mut updates = LiveUpdateService::new();
/// updates.provision_tenant(b"tenant-a", key.verifying_key(), 1);
///
/// // Author side: sign an image for the hook; stage + apply it live.
/// let app = fc_core::apps::thread_counter();
/// let (envelope, payload) = author_update(&app, hook_id, 1, "app-v1", &key, b"tenant-a");
/// updates.stage_payload("app-v1", &payload);
/// let report = updates.apply(&host, &envelope).unwrap();
/// assert!(report.attached);
/// let fired = host.fire_sync(hook_id, &[], &[]).unwrap();
/// assert_eq!(fired.executions.len(), 1);
/// host.shutdown();
/// ```
#[derive(Debug, Default)]
pub struct LiveUpdateService {
    manager: UpdateManager,
    tenants: HashMap<Vec<u8>, TenantId>,
    installed: HashMap<Uuid, ContainerId>,
    staged: StagingArea,
    rate_limits: HashMap<TenantId, TokenBucket>,
    rate_limited: u64,
    last_outcome: Option<DeployPoll>,
    component_outcomes: HashMap<Uuid, DeployPoll>,
    applies: u64,
}

impl LiveUpdateService {
    /// Creates a service with no trust anchors.
    pub fn new() -> Self {
        LiveUpdateService::default()
    }

    /// Overrides the bound on concurrently staged transfers (default
    /// [`fc_net::block::DEFAULT_STAGING_CAPACITY`]); abandoned uploads
    /// beyond it are LRU-evicted.
    pub fn with_staging_capacity(mut self, capacity: usize) -> Self {
        self.staged = StagingArea::with_capacity(capacity);
        self
    }

    /// Provisions a tenant: its signing key id, verification key and
    /// tenant id for store scoping (done at commissioning, not over
    /// the air).
    pub fn provision_tenant(&mut self, key_id: &[u8], key: VerifyingKey, tenant: TenantId) {
        self.manager.trust(key_id, key);
        self.tenants.insert(key_id.to_vec(), tenant);
    }

    /// Imposes a deploy-rate token bucket on a tenant: at most
    /// `capacity` deploys in a burst, refilled continuously at
    /// `refill_per_sec` of the host's **virtual** clock
    /// ([`fc_core::helpers_impl::HostEnv::now_us`]) — deterministic
    /// like the rest of the stack; whoever drives the simulation
    /// advances it. A zero refill rate makes the bucket purely
    /// burst-bounded until [`LiveUpdateService::credit_tenant`] tops it
    /// up. Unconfigured tenants are unlimited.
    pub fn limit_tenant_rate(&mut self, tenant: TenantId, capacity: u32, refill_per_sec: f64) {
        self.rate_limits
            .insert(tenant, TokenBucket::new(capacity, refill_per_sec));
    }

    /// Manually credits deploy tokens to a rate-limited tenant (e.g.
    /// an operator override); a no-op for unlimited tenants.
    pub fn credit_tenant(&mut self, tenant: TenantId, tokens: u32) {
        if let Some(bucket) = self.rate_limits.get_mut(&tenant) {
            bucket.credit(tokens);
        }
    }

    /// Deploys refused by per-tenant rate limiting so far.
    pub fn rate_limited_count(&self) -> u64 {
        self.rate_limited
    }

    /// Container currently bound to a storage location.
    pub fn installed_container(&self, component: Uuid) -> Option<ContainerId> {
        self.installed.get(&component).copied()
    }

    /// Evacuates a component from this service: drops its
    /// container binding **and** its SUIT rollback state, so the
    /// component can later be re-homed here at the same manifest
    /// sequence (fleet hook handoff). Returns the container that was
    /// bound, which the caller is expected to retire from the host.
    pub fn forget_component(&mut self, component: Uuid) -> Option<ContainerId> {
        self.manager.forget_component(component);
        self.installed.remove(&component)
    }

    /// Updates accepted so far.
    pub fn accepted_count(&self) -> u64 {
        self.manager.accepted_count()
    }

    /// Updates rejected so far.
    pub fn rejected_count(&self) -> u64 {
        self.manager.rejected_count()
    }

    /// The outcome of the most recent [`LiveUpdateService::apply`], for
    /// the `/suit/report` poll resource. `None` until the first apply.
    pub fn last_outcome(&self) -> Option<&DeployPoll> {
        self.last_outcome.as_ref()
    }

    /// The most recent apply outcome for one component — the
    /// tenant-safe poll: another tenant's later deploy never overwrites
    /// it. `None` until some apply got far enough to name the
    /// component.
    pub fn component_outcome(&self, component: Uuid) -> Option<&DeployPoll> {
        self.component_outcomes.get(&component)
    }

    /// Transfers evicted from staging as abandoned so far.
    pub fn staging_evicted_count(&self) -> u64 {
        self.staged.evicted_count()
    }

    /// Stages a whole payload under a URI in one call (the block-wise
    /// path is [`LiveUpdateService::stage_block`]).
    pub fn stage_payload(&mut self, uri: &str, payload: &[u8]) {
        self.staged.insert(uri, payload);
    }

    /// Appends one Block1 chunk to a staged payload, with the shared
    /// receiver-side discipline of [`fc_net::block::stage_chunk`]
    /// (in-order, hole-free; `restart` — Block1 `num == 0` — clears
    /// any stale staging for the URI; zero-length terminal blocks and
    /// retransmitted duplicates are idempotent). The staging map is
    /// bounded: starting a transfer beyond the capacity evicts the
    /// least-recently-touched *abandoned* one, whose client then sees
    /// its next chunk rejected and restarts from block 0.
    pub fn stage_block(&mut self, uri: &str, offset: usize, chunk: &[u8], restart: bool) -> bool {
        self.staged.stage(uri, offset, chunk, restart)
    }

    /// The staged bytes for a URI, if any.
    pub fn staged_payload(&self, uri: &str) -> Option<&[u8]> {
        self.staged.get(uri)
    }

    /// Drops a staged payload (to abort a transfer; a successful
    /// [`LiveUpdateService::apply`] drops its payload itself).
    pub fn unstage(&mut self, uri: &str) -> bool {
        self.staged.remove(uri).is_some()
    }

    /// Applies a signed manifest to the **running** host: verify →
    /// rollback-check → digest-check the staged payload → deploy
    /// through the shard control lane → commit the sequence number.
    ///
    /// Placement policy (see [`FcHost::deploy_verified`]): when the
    /// manifest's component names a registered hook, the container
    /// attaches to it on the hook's *current* shard, atomically
    /// replacing this component's previous container; otherwise it
    /// installs unattached on the least-loaded shard.
    ///
    /// On success the staged payload is dropped — a long-lived host
    /// taking updates forever must not accumulate one image per
    /// deploy. On error it stays staged, so a corrected manifest can
    /// retry without re-transferring the payload.
    ///
    /// # Errors
    ///
    /// Any [`LiveDeployError`]. On error nothing changed: the previous
    /// container keeps running and the sequence number is not burned,
    /// so a corrected payload can retry under the same manifest. A
    /// [`LiveDeployError::RateLimited`] refusal additionally bumps the
    /// host's `deploys_rate_limited` stat.
    ///
    /// Every apply — accepted or rejected — records a [`DeployPoll`]
    /// retrievable via [`LiveUpdateService::last_outcome`] and, once
    /// the component is known, [`LiveUpdateService::component_outcome`]
    /// (served as `/suit/report` by the CoAP front-end), so a client
    /// whose in-band response was lost can poll the verdict.
    pub fn apply(
        &mut self,
        host: &FcHost,
        envelope: &[u8],
    ) -> Result<DeployReport, LiveDeployError> {
        self.apply_tagged(host, envelope, None)
    }

    /// As [`LiveUpdateService::apply`], with the transport token of the
    /// deploying exchange: on a durable host the accepted deploy is
    /// journaled under `token`, so a restored node answers a
    /// retransmission of the same exchange with the pre-crash report
    /// instead of re-running (and rejecting) the manifest.
    pub fn apply_tagged(
        &mut self,
        host: &FcHost,
        envelope: &[u8],
        token: Option<Vec<u8>>,
    ) -> Result<DeployReport, LiveDeployError> {
        let mut component = None;
        let result = self.apply_inner(host, envelope, &mut component, token);
        self.applies += 1;
        let poll = match &result {
            Ok(report) => DeployPoll {
                serial: self.applies,
                component,
                accepted: true,
                sequence: Some(report.sequence),
                detail: report.to_string(),
            },
            Err(e) => DeployPoll {
                serial: self.applies,
                component,
                accepted: false,
                sequence: None,
                detail: e.to_string(),
            },
        };
        if let Some(component) = component {
            self.component_outcomes.insert(component, poll.clone());
        }
        self.last_outcome = Some(poll);
        result
    }

    fn apply_inner(
        &mut self,
        host: &FcHost,
        envelope: &[u8],
        component_out: &mut Option<Uuid>,
        token: Option<Vec<u8>>,
    ) -> Result<DeployReport, LiveDeployError> {
        let pending = self.manager.begin(envelope)?;
        *component_out = Some(pending.manifest.component);
        // Any failure below keeps the named payload staged for the
        // documented retry — so refresh its LRU recency now, or other
        // tenants' upload churn could evict it while this tenant fixes
        // the manifest or waits out its rate limit.
        self.staged.touch(&pending.manifest.uri);
        // The envelope is authenticated: throttle by the tenant behind
        // the verified key before any further work.
        let tenant = self
            .tenants
            .get(&pending.key_id)
            .copied()
            .unwrap_or_default();
        if let Some(bucket) = self.rate_limits.get_mut(&tenant) {
            if !bucket.try_take(host.env().now_us()) {
                self.rate_limited += 1;
                host.telemetry().count(CounterId::DeploysRateLimited, 1);
                host.telemetry().trace_hook(
                    host.env().now_us(),
                    TraceKind::DeployRateLimited,
                    &pending.manifest.component,
                    u64::from(tenant),
                );
                return Err(LiveDeployError::RateLimited { tenant });
            }
        }
        let uri = pending.manifest.uri.clone();
        let Some(payload) = self.staged.get(&uri).map(<[u8]>::to_vec) else {
            return Err(LiveDeployError::PayloadUnavailable { uri });
        };
        // Front-load the digest/size check so a bad payload never
        // touches the running engine. Routing the failure through
        // `complete` keeps the manager's rejection counters truthful.
        if let Err(e) = self.manager.check_payload(&pending, &payload) {
            let _ = self.manager.complete(pending, payload);
            return Err(e.into());
        }
        let component = pending.manifest.component;
        let image = FcProgram::from_bytes(&payload)
            .map_err(|e| LiveDeployError::Host(HostError::Engine(EngineError::Parse(e))))?;
        let request = contract_request_for(&image);
        let hook = host.shard_of_hook(component).is_some().then_some(component);
        let replace = self.installed.get(&component).copied();
        let outcome = host.deploy_verified(
            &component_name(component),
            tenant,
            &payload,
            request,
            hook,
            replace,
        )?;
        // The deploy landed: commit the SUIT state. `check_payload`
        // already validated this exact payload, so this cannot fail.
        let journal_payload = host.journal().map(|_| payload.clone());
        let ready = self.manager.complete(pending, payload)?;
        self.installed.insert(component, outcome.container);
        self.staged.remove(&uri);
        let report = DeployReport {
            container: outcome.container,
            component,
            shard: outcome.shard,
            sequence: ready.manifest.sequence,
            attached: outcome.hook.is_some(),
            replaced: outcome.replaced,
        };
        // The manifest commit point: the accepted deploy (payload +
        // committed sequence + report) must be durable before the
        // reply can leave the node. A dead node's reply is suppressed
        // by the transport layer (`FcHost::alive`).
        if let Some(journal) = host.journal() {
            journal.commit_deploy(&crate::journal::DeployRecord {
                tenant,
                uri,
                payload: journal_payload.unwrap_or_default(),
                token,
                report,
            });
        }
        Ok(report)
    }

    /// Replays one journaled deploy onto a restored host: the verified
    /// payload installs under its **pre-crash container id** on the
    /// component's current shard, and the SUIT rollback floor is
    /// seeded to the committed sequence — so a pre-crash lower-sequence
    /// manifest re-staged after the restore is rejected with the same
    /// verdict as before the crash.
    ///
    /// # Errors
    ///
    /// [`LiveDeployError::Host`] when the image no longer parses or
    /// the host refuses the install (both indicate corrupted state the
    /// caller should surface, not swallow).
    pub fn restore_component(
        &mut self,
        host: &FcHost,
        rec: &crate::journal::DeployRecord,
    ) -> Result<(), LiveDeployError> {
        let component = rec.report.component;
        let image = FcProgram::from_bytes(&rec.payload)
            .map_err(|e| LiveDeployError::Host(HostError::Engine(EngineError::Parse(e))))?;
        let request = contract_request_for(&image);
        let hook = host.shard_of_hook(component).is_some().then_some(component);
        let replace = self.installed.get(&component).copied();
        host.deploy_restored(
            &component_name(component),
            rec.tenant,
            &rec.payload,
            request,
            hook,
            replace,
            rec.report.container,
        )?;
        self.manager.seed_sequence(component, rec.report.sequence);
        self.installed.insert(component, rec.report.container);
        Ok(())
    }

    /// Seeds the accepted-update counter from journal-recovered state
    /// (see [`fc_suit::UpdateManager::seed_accepted`]).
    pub fn seed_accepted(&mut self, accepted: u64) {
        self.manager.seed_accepted(accepted);
    }

    /// As [`LiveUpdateService::forget_component`], journaling the
    /// evacuation when `host` is durable so a restored node does not
    /// resurrect the departed component.
    pub fn forget_component_on(&mut self, host: &FcHost, component: Uuid) -> Option<ContainerId> {
        if let Some(journal) = host.journal() {
            journal.forget(component);
        }
        self.forget_component(component)
    }
}
