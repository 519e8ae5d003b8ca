//! The Femto-Container hosting engine (paper §7, Figure 3): installs
//! verified applications into slots, attaches them to launchpad hooks,
//! and executes them in isolation when events fire.
//!
//! ## Zero-allocation event dispatch
//!
//! Hook dispatch sits on hot paths (scheduler switches, packet
//! reception), so everything that *can* be built once per container is
//! built at install time and reused per event:
//!
//! * the program is verified once and the slot keeps the one form its
//!   engine flavour executes (an `Executor`, chosen at install): the
//!   verified program for the `Rbpf` reference and `CertFc` engines,
//!   or the threaded-code lowering ([`ThreadedProgram`]) for
//!   Femto-Containers, whose helper call sites are **bound** to
//!   registry slots so hot helpers dispatch without a hash lookup;
//! * the helper registry is built once (the host environment is shared
//!   through an `Arc`, so helper closures are `'static` **and `Send`**);
//! * each slot owns an `ExecArena` whose [`MemoryMap`] skeleton
//!   (stack + `.data` + `.rodata`) persists across events. Isolation is
//!   preserved by re-establishing the initial state between runs: the
//!   stack is zeroed, `.data` is rewritten from the installed image,
//!   and per-event regions (context, host grants) are recycled into a
//!   buffer pool — in steady state an event allocates nothing.
//!
//! ## Concurrency boundary
//!
//! A `HostingEngine` is single-threaded by design (it models one
//! execution shard), but it is `Send`, and several engines can share
//! one [`HostEnv`] (see [`HostingEngine::with_env`]): that is exactly
//! how the `fc-host` runtime runs N engine shards on N worker threads
//! over common stores/sensors/clock. [`ContainerSlot`]s are themselves
//! `Send` and can be moved between engines with
//! [`HostingEngine::eject`] / [`HostingEngine::adopt`] as long as the
//! engines share the same environment.

use std::collections::BTreeMap;
use std::sync::Arc;

use fc_kvstore::TenantId;
use fc_rbpf::certfc::CertInterpreter;
use fc_rbpf::decode::DecodedProgram;
use fc_rbpf::error::VmError;
use fc_rbpf::interp::Interpreter;
use fc_rbpf::mem::{MemoryMap, Perm, RegionId, CTX_VADDR, STACK_SIZE};
use fc_rbpf::program::{FcProgram, ParseError};
use fc_rbpf::threaded::{ThreadedInterpreter, ThreadedProgram};
use fc_rbpf::verifier::{verify, VerifiedProgram, VerifierError};
use fc_rbpf::vm::{ExecConfig, OpCounts};
use fc_rtos::platform::{cycle_model, Engine as EngineFlavor, Platform};
use fc_suit::Uuid;

use crate::contract::{Contract, ContractOffer, ContractRequest};
use crate::helpers_impl::{build_registry, HelperMeter, HostEnv};
use crate::hooks::Hook;

/// Identifier the engine assigns to an installed container.
pub type ContainerId = u32;

/// Fixed per-instance housekeeping bytes (slot struct, region table —
/// the paper's 624 B per instance = 512 B stack + register set +
/// housekeeping, §10.3).
pub const INSTANCE_OVERHEAD_BYTES: usize = 24;

/// Why an engine operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Malformed application image.
    Parse(ParseError),
    /// The pre-flight checker rejected the application.
    Verify(VerifierError),
    /// Unknown hook UUID (bad storage location in a manifest).
    UnknownHook(Uuid),
    /// Unknown container id.
    UnknownContainer(ContainerId),
    /// The contract grant does not cover the request (missing helper
    /// ids listed).
    ContractUnsatisfied {
        /// Helper ids requested but not offered.
        missing: Vec<u32>,
    },
    /// The container is not attached to that hook.
    NotAttached,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "image rejected: {e}"),
            EngineError::Verify(e) => write!(f, "pre-flight check failed: {e}"),
            EngineError::UnknownHook(u) => write!(f, "unknown hook {u}"),
            EngineError::UnknownContainer(c) => write!(f, "unknown container {c}"),
            EngineError::ContractUnsatisfied { missing } => {
                write!(f, "contract not satisfied; missing helpers {missing:?}")
            }
            EngineError::NotAttached => write!(f, "container not attached to hook"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<VerifierError> for EngineError {
    fn from(e: VerifierError) -> Self {
        EngineError::Verify(e)
    }
}

/// Per-container execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerMetrics {
    /// Completed executions.
    pub executions: u64,
    /// Executions aborted by a fault.
    pub faults: u64,
    /// Total simulated cycles (VM + helper internals).
    pub total_cycles: u64,
}

/// Reusable per-slot execution state: the memory-map skeleton and its
/// well-known regions, rebuilt (not reallocated) between events.
#[derive(Debug)]
struct ExecArena {
    /// Map whose first `skeleton` regions (stack, `.data`, `.rodata`)
    /// persist across events; per-event regions are appended after them
    /// and recycled away by [`ExecArena::reset`].
    mem: MemoryMap,
    skeleton: usize,
    stack: RegionId,
    data: Option<RegionId>,
    /// Buffers recovered from dropped per-event regions (context, host
    /// grants), cleared but with capacity retained, so steady-state
    /// events reuse allocations instead of making fresh ones.
    pool: Vec<Vec<u8>>,
}

impl ExecArena {
    fn new(stack_bytes: usize, image: &FcProgram) -> Self {
        let mut mem = MemoryMap::new();
        let stack = mem.add_stack(stack_bytes);
        let data = if image.data.is_empty() {
            None
        } else {
            Some(mem.add_data(image.data.clone()))
        };
        if !image.rodata.is_empty() {
            mem.add_rodata(image.rodata.clone());
        }
        let skeleton = mem.region_count();
        ExecArena {
            mem,
            skeleton,
            stack,
            data,
            pool: Vec::new(),
        }
    }

    /// Restores the pristine pre-event state: recycles per-event
    /// regions into the buffer pool, zeroes the stack and rewrites
    /// `.data` from the installed image — the isolation guarantee of a
    /// freshly built map, without the allocations.
    fn reset(&mut self, image: &FcProgram) {
        self.mem.recycle_regions(self.skeleton, &mut self.pool);
        self.mem.region_bytes_mut(self.stack).fill(0);
        if let Some(data) = self.data {
            self.mem.region_bytes_mut(data).copy_from_slice(&image.data);
        }
    }

    /// A cleared buffer (pooled if available) pre-filled with `init`.
    fn event_buf(&mut self, init: &[u8]) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.extend_from_slice(init);
        buf
    }
}

/// The one executable form a slot keeps, chosen once at install by
/// the engine flavour — each flavour runs exactly one interpreter.
#[derive(Debug)]
enum Executor {
    /// `Rbpf`: the vanilla reference interpreter over the verified
    /// program (the paper's rBPF baseline and the semantic oracle).
    Reference(VerifiedProgram),
    /// `CertFc`: the defensive engine over the verified program.
    CertFc(VerifiedProgram),
    /// `FemtoContainer`: the threaded-code tier, lowered after helper
    /// binding so slot-bound call sites carry over.
    Threaded(ThreadedProgram),
}

/// An installed container.
#[derive(Debug)]
pub struct ContainerSlot {
    /// Engine-assigned id.
    pub id: ContainerId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Human-readable name.
    pub name: String,
    image: FcProgram,
    executor: Executor,
    /// Helper registry built once at install from the granted contract.
    helpers: fc_rbpf::helpers::HelperRegistry<'static>,
    /// Helper-internal cycle meter captured by `helpers`' closures.
    meter: HelperMeter,
    arena: ExecArena,
    contract: Contract,
    config: ExecConfig,
    /// Execution statistics.
    pub metrics: ContainerMetrics,
}

// A slot is the unit of work a concurrent host moves between engine
// shards; everything inside (executor, Send helpers, arena) is
// thread-movable.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ContainerSlot>();
    assert_send::<HostingEngine>();
};

impl ContainerSlot {
    /// Granted contract.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }

    /// Per-instance RAM: VM stack (plus granted extra), register set
    /// and housekeeping (paper Table 3 / §10.3: 624 B default).
    pub fn ram_bytes(&self) -> usize {
        STACK_SIZE + self.contract.extra_stack + 11 * 8 + INSTANCE_OVERHEAD_BYTES
    }

    /// Bytes of the stored application image (flash/storage cost).
    pub fn image_bytes(&self) -> usize {
        self.image.byte_size()
    }
}

/// A host region granted to one execution (e.g. a packet buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRegion {
    /// Diagnostic name.
    pub name: String,
    /// Initial contents.
    pub data: Vec<u8>,
    /// Whether the container may write it.
    pub writable: bool,
}

impl HostRegion {
    /// A read-only grant (the paper's firewall example: inspect, not
    /// modify).
    pub fn read_only(name: &str, data: Vec<u8>) -> Self {
        HostRegion {
            name: name.to_owned(),
            data,
            writable: false,
        }
    }

    /// A read-write grant (e.g. a response buffer).
    pub fn read_write(name: &str, data: Vec<u8>) -> Self {
        HostRegion {
            name: name.to_owned(),
            data,
            writable: true,
        }
    }
}

/// Result of one container execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Which container ran.
    pub container: ContainerId,
    /// Its return value, or the fault that aborted it.
    pub result: Result<u64, VmError>,
    /// Dynamic operation counts.
    pub counts: OpCounts,
    /// Simulated VM cycles on the engine's platform.
    pub vm_cycles: u64,
    /// Simulated helper-internal cycles.
    pub helper_cycles: u64,
    /// Final contents of the context region.
    pub ctx_back: Vec<u8>,
    /// Final contents of each granted host region, in grant order.
    pub regions_back: Vec<(String, Vec<u8>)>,
}

impl ExecutionReport {
    /// Total simulated cycles for this execution.
    pub fn total_cycles(&self) -> u64 {
        self.vm_cycles + self.helper_cycles
    }
}

/// Result of firing a hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookReport {
    /// Per-container reports, in attachment order.
    pub executions: Vec<ExecutionReport>,
    /// The policy-combined result the firmware acts on.
    pub combined: Option<u64>,
    /// Total simulated cycles including the launchpad overhead
    /// (Table 4's "Hook with Application" measurement).
    pub cycles: u64,
}

struct HookEntry {
    hook: Hook,
    offer: ContractOffer,
    attached: Vec<ContainerId>,
}

/// The hosting engine.
///
/// # Examples
///
/// ```
/// use fc_core::engine::HostingEngine;
/// use fc_core::contract::ContractRequest;
/// use fc_rbpf::program::ProgramBuilder;
/// use fc_rtos::platform::{Engine, Platform};
///
/// let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
/// let image = ProgramBuilder::new().asm("mov r0, 42\nexit").unwrap().build();
/// let id = engine
///     .install("answer", 1, &image.to_bytes(), ContractRequest::default())
///     .unwrap();
/// let report = engine.execute(id, &[], &[]).unwrap();
/// assert_eq!(report.result, Ok(42));
/// ```
pub struct HostingEngine {
    platform: Platform,
    flavor: EngineFlavor,
    env: Arc<HostEnv>,
    containers: BTreeMap<ContainerId, ContainerSlot>,
    hooks: BTreeMap<Uuid, HookEntry>,
    next_id: ContainerId,
    exec_config: ExecConfig,
}

impl HostingEngine {
    /// Creates an engine for the given platform using the given
    /// interpreter flavour (Femto-Containers or CertFC), with a private
    /// host environment.
    pub fn new(platform: Platform, flavor: EngineFlavor) -> Self {
        Self::with_env(
            platform,
            flavor,
            Arc::new(HostEnv::new(fc_kvstore::DEFAULT_CAPACITY)),
        )
    }

    /// Creates an engine **shard** over a shared host environment: N
    /// engines built from clones of the same `Arc<HostEnv>` see one set
    /// of stores, sensors, console and clock, while keeping all
    /// execution state (slots, arenas, registries) private. This is the
    /// constructor the concurrent `fc-host` runtime uses.
    pub fn with_env(platform: Platform, flavor: EngineFlavor, env: Arc<HostEnv>) -> Self {
        HostingEngine {
            platform,
            flavor,
            env,
            containers: BTreeMap::new(),
            hooks: BTreeMap::new(),
            next_id: 1,
            exec_config: ExecConfig::default(),
        }
    }

    /// The engine's platform.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The interpreter flavour in use.
    pub fn flavor(&self) -> EngineFlavor {
        self.flavor
    }

    /// Overrides the finite-execution budgets applied to every
    /// container — the ones already installed as well as future
    /// installs, so a tightened budget (the fairness/DoS control)
    /// takes effect immediately and replicas installed later can
    /// never run under a different budget than their originals.
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        self.exec_config = config;
        for slot in self.containers.values_mut() {
            slot.config = config;
        }
    }

    /// Host environment (stores, sensors, console) for inspection and
    /// device registration.
    pub fn env(&self) -> &HostEnv {
        &self.env
    }

    /// Shared handle to the host environment, for building sibling
    /// engine shards with [`HostingEngine::with_env`].
    pub fn env_handle(&self) -> Arc<HostEnv> {
        Arc::clone(&self.env)
    }

    /// Advances the engine's virtual clock (driven by the RTOS glue).
    pub fn set_now_us(&self, now_us: u64) {
        self.env.set_now_us(now_us);
    }

    /// Registers a launchpad hook with the helper set it offers.
    pub fn register_hook(&mut self, hook: Hook, offer: ContractOffer) {
        self.hooks.insert(
            hook.id,
            HookEntry {
                hook,
                offer,
                attached: Vec::new(),
            },
        );
    }

    /// Unregisters a launchpad hook, returning its descriptor and the
    /// containers that were attached, **in attachment order** — the
    /// contract a migrating host needs to re-create the hook on a
    /// sibling shard with identical per-event semantics. The containers
    /// themselves stay installed.
    pub fn unregister_hook(&mut self, hook: Uuid) -> Option<(Hook, Vec<ContainerId>)> {
        self.hooks.remove(&hook).map(|e| (e.hook, e.attached))
    }

    /// Registered hook UUIDs.
    pub fn hook_ids(&self) -> Vec<Uuid> {
        self.hooks.keys().copied().collect()
    }

    /// Containers attached to a hook, in attachment order.
    pub fn attached(&self, hook: Uuid) -> Vec<ContainerId> {
        self.hooks
            .get(&hook)
            .map(|h| h.attached.clone())
            .unwrap_or_default()
    }

    /// Installs an application image: parse → grant contract → verify
    /// with the granted helper set (paper §7 pre-flight checks happen
    /// exactly once, here).
    ///
    /// # Errors
    ///
    /// [`EngineError::Parse`] / [`EngineError::Verify`].
    pub fn install(
        &mut self,
        name: &str,
        tenant: TenantId,
        image_bytes: &[u8],
        request: ContractRequest,
    ) -> Result<ContainerId, EngineError> {
        self.install_with_id(self.next_id, name, tenant, image_bytes, request)
    }

    /// Installs an application image under a caller-chosen container id
    /// — the entry point for a multi-engine host that assigns globally
    /// unique ids across shards. An existing container under `id` is
    /// replaced: the replacement starts **detached** (the old
    /// program's hook attachments are dropped, so attaching the new
    /// program re-runs every per-hook contract check), while the id's
    /// local store persists until [`HostingEngine::remove`].
    ///
    /// # Errors
    ///
    /// As [`HostingEngine::install`].
    pub fn install_with_id(
        &mut self,
        id: ContainerId,
        name: &str,
        tenant: TenantId,
        image_bytes: &[u8],
        request: ContractRequest,
    ) -> Result<ContainerId, EngineError> {
        // The engine-wide offer is the standard helper set; per-hook
        // offers further restrict at attach time.
        let offer = ContractOffer {
            helpers: crate::helpers_impl::standard_helper_ids(),
            max_extra_stack: 1024,
        };
        let contract = Contract::grant(&request, &offer);
        if !contract.satisfies(&request) {
            let missing: Vec<u32> = request
                .helpers
                .difference(&contract.helpers)
                .copied()
                .collect();
            return Err(EngineError::ContractUnsatisfied { missing });
        }
        let image = FcProgram::from_bytes(image_bytes)?;
        let program = verify(&image.text, &contract.helpers)?;
        // Decode once and re-check every call site against the granted
        // set, so a bad helper binding fails the install, not the first
        // event.
        let mut decoded = DecodedProgram::lower(&program);
        decoded.precheck_helpers(&contract.helpers)?;
        self.next_id = self.next_id.max(id) + 1;
        let meter = HelperMeter::new();
        let helpers = build_registry(&self.env, &meter, id, tenant, &contract.helpers);
        let executor = match self.flavor {
            EngineFlavor::Rbpf => Executor::Reference(program),
            EngineFlavor::CertFc => Executor::CertFc(program),
            EngineFlavor::FemtoContainer => {
                // Resolve call sites to registry slots (hot helper calls
                // skip the id hash lookup from the first event on), then
                // lower the bound stream into handler chains; the
                // decoded form is only a stepping stone.
                decoded.bind_helpers(&helpers);
                Executor::Threaded(ThreadedProgram::lower(&decoded))
            }
        };
        let arena = ExecArena::new(STACK_SIZE + contract.extra_stack, &image);
        // A replaced container must not inherit the old program's
        // attachments — they were granted against the *old* helper
        // contract by `attach`'s per-hook verification.
        if self.containers.contains_key(&id) {
            for entry in self.hooks.values_mut() {
                entry.attached.retain(|c| *c != id);
            }
        }
        self.containers.insert(
            id,
            ContainerSlot {
                id,
                tenant,
                name: name.to_owned(),
                image,
                executor,
                helpers,
                meter,
                arena,
                contract,
                config: self.exec_config,
                metrics: ContainerMetrics::default(),
            },
        );
        Ok(id)
    }

    /// The deploy-swap primitive behind live SUIT updates: installs a
    /// fresh program under `id`, attaches it to `attach` (when given)
    /// and retires `replace` — detached from the hook and removed —
    /// as one indivisible engine mutation. Callers that serialize
    /// engine access (a shard worker's control lane, or the
    /// single-threaded reference in the differential suite) therefore
    /// guarantee that every hook fire sees either the predecessor or
    /// the replacement, never both and never neither.
    ///
    /// # Errors
    ///
    /// As [`HostingEngine::install_with_id`], plus
    /// [`EngineError::UnknownHook`] / [`EngineError::Verify`] from the
    /// attach — the install is rolled back then and `replace` keeps
    /// running untouched (deploys are atomic, as in the SUIT flow of
    /// [`crate::deploy::UpdateService`]).
    #[allow(clippy::too_many_arguments)] // mirrors the install signature + swap operands
    pub fn deploy_swap(
        &mut self,
        id: ContainerId,
        name: &str,
        tenant: TenantId,
        image_bytes: &[u8],
        request: ContractRequest,
        attach: Option<Uuid>,
        replace: Option<ContainerId>,
    ) -> Result<ContainerId, EngineError> {
        self.install_with_id(id, name, tenant, image_bytes, request)?;
        if let Some(hook) = attach {
            if let Err(e) = self.attach(id, hook) {
                self.remove(id);
                return Err(e);
            }
            if let Some(old) = replace {
                let _ = self.detach(old, hook);
                self.remove(old);
            }
        }
        Ok(id)
    }

    /// Attaches an installed container to a hook, re-verifying the
    /// program against the hook's (possibly narrower) helper offer.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownHook`] / [`EngineError::UnknownContainer`] /
    /// [`EngineError::Verify`] when the hook offers fewer helpers than
    /// the application calls.
    pub fn attach(&mut self, container: ContainerId, hook: Uuid) -> Result<(), EngineError> {
        let slot = self
            .containers
            .get(&container)
            .ok_or(EngineError::UnknownContainer(container))?;
        let entry = self
            .hooks
            .get_mut(&hook)
            .ok_or(EngineError::UnknownHook(hook))?;
        let effective: std::collections::HashSet<u32> = slot
            .contract
            .helpers
            .intersection(&entry.offer.helpers)
            .copied()
            .collect();
        verify(&slot.image.text, &effective)?;
        if !entry.attached.contains(&container) {
            entry.attached.push(container);
        }
        Ok(())
    }

    /// Detaches a container from a hook.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownHook`] / [`EngineError::NotAttached`].
    pub fn detach(&mut self, container: ContainerId, hook: Uuid) -> Result<(), EngineError> {
        let entry = self
            .hooks
            .get_mut(&hook)
            .ok_or(EngineError::UnknownHook(hook))?;
        let before = entry.attached.len();
        entry.attached.retain(|c| *c != container);
        if entry.attached.len() == before {
            return Err(EngineError::NotAttached);
        }
        Ok(())
    }

    /// Removes a container entirely, detaching it everywhere and
    /// dropping its local store.
    pub fn remove(&mut self, container: ContainerId) -> bool {
        for entry in self.hooks.values_mut() {
            entry.attached.retain(|c| *c != container);
        }
        self.env.stores().remove_container(container);
        self.containers.remove(&container).is_some()
    }

    /// Detaches a container everywhere and hands its slot out for
    /// migration to a sibling engine shard ([`HostingEngine::adopt`]).
    /// Unlike [`HostingEngine::remove`], the container's local store
    /// survives — the slot keeps its identity.
    pub fn eject(&mut self, container: ContainerId) -> Option<ContainerSlot> {
        for entry in self.hooks.values_mut() {
            entry.attached.retain(|c| *c != container);
        }
        self.containers.remove(&container)
    }

    /// Adopts a slot ejected from a sibling engine shard. The slot's
    /// helper registry was built against the environment it was
    /// installed over, and its executor was chosen by the installing
    /// engine's flavour, so both engines must share one [`HostEnv`]
    /// (see [`HostingEngine::with_env`]) and one flavour; the adopting
    /// engine only guarantees id uniqueness among *its own* slots. The
    /// slot runs under the adopting engine's [`ExecConfig`] from then
    /// on, like every other container it hosts.
    pub fn adopt(&mut self, mut slot: ContainerSlot) -> ContainerId {
        let id = slot.id;
        self.next_id = self.next_id.max(id) + 1;
        slot.config = self.exec_config;
        self.containers.insert(id, slot);
        id
    }

    /// Looks up a container slot.
    pub fn container(&self, id: ContainerId) -> Option<&ContainerSlot> {
        self.containers.get(&id)
    }

    /// Number of installed containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Executes one container directly with the given event context and
    /// host-granted regions.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownContainer`]; VM faults are reported inside
    /// the [`ExecutionReport`], not as an `Err` — a faulting container
    /// never takes the host down.
    pub fn execute(
        &mut self,
        id: ContainerId,
        ctx: &[u8],
        extra: &[HostRegion],
    ) -> Result<ExecutionReport, EngineError> {
        let slot = self
            .containers
            .get_mut(&id)
            .ok_or(EngineError::UnknownContainer(id))?;
        // Re-establish the pristine skeleton (zeroed stack, fresh
        // `.data`), then append this event's regions from the pool.
        slot.arena.reset(&slot.image);
        let ctx_region = if ctx.is_empty() {
            None
        } else {
            let buf = slot.arena.event_buf(ctx);
            Some(slot.arena.mem.add_ctx(buf, Perm::RW))
        };
        let mut extra_ids = Vec::with_capacity(extra.len());
        for r in extra {
            let perm = if r.writable { Perm::RW } else { Perm::RO };
            let buf = slot.arena.event_buf(&r.data);
            extra_ids.push(slot.arena.mem.add_host_region(&r.name, buf, perm));
        }
        let mem = &mut slot.arena.mem;

        slot.meter.reset();
        let ctx_addr = if ctx.is_empty() { 0 } else { CTX_VADDR };
        let helpers = &mut slot.helpers;
        let outcome = match &slot.executor {
            Executor::Reference(program) => {
                Interpreter::new(program, slot.config).run(mem, helpers, ctx_addr)
            }
            Executor::CertFc(program) => {
                CertInterpreter::new(program, slot.config).run(mem, helpers, ctx_addr)
            }
            Executor::Threaded(program) => {
                ThreadedInterpreter::new(program, slot.config).run(mem, helpers, ctx_addr)
            }
        };

        let model = cycle_model(self.platform, self.flavor);
        let (result, counts) = match outcome {
            Ok(exec) => (Ok(exec.return_value), exec.counts),
            Err(e) => (Err(e), OpCounts::default()),
        };
        let vm_cycles = model.execution_cycles(&counts);
        let helper_cycles = slot.meter.get();
        let ctx_back = ctx_region
            .map(|r| mem.region_bytes(r).to_vec())
            .unwrap_or_default();
        let regions_back = extra
            .iter()
            .zip(extra_ids)
            .map(|(r, rid)| (r.name.clone(), mem.region_bytes(rid).to_vec()))
            .collect();

        let report = ExecutionReport {
            container: id,
            result,
            counts,
            vm_cycles,
            helper_cycles,
            ctx_back,
            regions_back,
        };
        slot.metrics.executions += 1;
        if report.result.is_err() {
            slot.metrics.faults += 1;
        }
        slot.metrics.total_cycles += report.total_cycles();
        Ok(report)
    }

    /// Fires a hook: runs every attached container over the context and
    /// combines results under the hook's policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownHook`]. Individual container faults are
    /// contained in the per-execution reports.
    ///
    /// # Examples
    ///
    /// ```
    /// use fc_core::contract::{ContractOffer, ContractRequest};
    /// use fc_core::engine::HostingEngine;
    /// use fc_core::helpers_impl::standard_helper_ids;
    /// use fc_core::hooks::{Hook, HookKind, HookPolicy};
    /// use fc_rbpf::program::ProgramBuilder;
    /// use fc_rtos::platform::{Engine, Platform};
    ///
    /// let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
    /// let hook = Hook::new("tick", HookKind::Timer, HookPolicy::Sum);
    /// let hook_id = hook.id;
    /// engine.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
    /// let image = ProgramBuilder::new().asm("mov r0, 21\nexit").unwrap().build();
    /// let a = engine.install("a", 1, &image.to_bytes(), ContractRequest::default()).unwrap();
    /// let b = engine.install("b", 2, &image.to_bytes(), ContractRequest::default()).unwrap();
    /// engine.attach(a, hook_id).unwrap();
    /// engine.attach(b, hook_id).unwrap();
    /// let report = engine.fire_hook(hook_id, &[], &[]).unwrap();
    /// assert_eq!(report.combined, Some(42));
    /// ```
    pub fn fire_hook(
        &mut self,
        hook: Uuid,
        ctx: &[u8],
        extra: &[HostRegion],
    ) -> Result<HookReport, EngineError> {
        let mut reports = self.fire_hook_batch(hook, &[(ctx, extra)])?;
        Ok(reports.pop().expect("one event in, one report out"))
    }

    /// Fires a hook over a whole batch of events with one hook lookup,
    /// one attached-list clone and one cycle-model fetch — the
    /// amortised entry point for embedders driving an engine directly.
    /// (The concurrent `fc-host` runtime amortises at its queue layer
    /// instead and deliberately drains **per event** — a batch of one
    /// through this method — to keep panic isolation, reply streaming
    /// and fault accounting at single-event granularity.) Per-event
    /// reports are **identical** to calling
    /// [`HostingEngine::fire_hook`] once per event, because that *is*
    /// a batch of one.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownHook`]. Individual container faults are
    /// contained in the per-execution reports.
    pub fn fire_hook_batch(
        &mut self,
        hook: Uuid,
        events: &[(&[u8], &[HostRegion])],
    ) -> Result<Vec<HookReport>, EngineError> {
        let (attached, policy) = {
            let entry = self
                .hooks
                .get(&hook)
                .ok_or(EngineError::UnknownHook(hook))?;
            (entry.attached.clone(), entry.hook.policy)
        };
        let empty_hook_cycles = self.platform.empty_hook_cycles();
        let mut reports = Vec::with_capacity(events.len());
        for (ctx, extra) in events {
            let mut executions = Vec::with_capacity(attached.len());
            let mut cycles = empty_hook_cycles;
            for &id in &attached {
                let report = self.execute(id, ctx, extra)?;
                cycles += report.total_cycles();
                executions.push(report);
            }
            let results: Vec<u64> = executions
                .iter()
                .filter_map(|e| e.result.as_ref().ok().copied())
                .collect();
            let combined = policy.combine(&results);
            reports.push(HookReport {
                executions,
                combined,
                cycles,
            });
        }
        Ok(reports)
    }

    /// Times a hook fire: the Table 4 measurement pair (empty hook
    /// cycles, hook-with-application cycles).
    pub fn hook_overhead_cycles(&self) -> u64 {
        self.platform.empty_hook_cycles()
    }

    /// Total RAM attributable to container instances plus the stores
    /// (the paper's §10.3 multi-instance accounting).
    pub fn ram_bytes(&self) -> usize {
        self.containers
            .values()
            .map(ContainerSlot::ram_bytes)
            .sum::<usize>()
            + self.env.stores().ram_bytes()
    }

    /// Console lines captured from `bpf_printf`.
    pub fn console(&self) -> Vec<String> {
        self.env.console_lines()
    }
}

impl std::fmt::Debug for HostingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostingEngine")
            .field("platform", &self.platform)
            .field("flavor", &self.flavor)
            .field("containers", &self.containers.len())
            .field("hooks", &self.hooks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers_impl::standard_helper_ids;
    use crate::hooks::{Hook, HookKind, HookPolicy};
    use fc_rbpf::helpers::ids;
    use fc_rbpf::program::ProgramBuilder;

    fn engine() -> HostingEngine {
        HostingEngine::new(Platform::CortexM4, EngineFlavor::FemtoContainer)
    }

    fn image(src: &str) -> Vec<u8> {
        ProgramBuilder::new()
            .helpers(
                crate::helpers_impl::helper_name_table()
                    .iter()
                    .map(|(n, i)| (n.as_str(), *i)),
            )
            .asm(src)
            .unwrap()
            .build()
            .to_bytes()
    }

    #[test]
    fn forged_symbol_count_fails_install_cleanly() {
        let mut bytes = image("mov r0, 7\nexit");
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = engine()
            .install("forged", 1, &bytes, ContractRequest::default())
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Parse(ParseError::Truncated { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn install_and_execute() {
        let mut e = engine();
        let id = e
            .install(
                "t",
                1,
                &image("mov r0, 7\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let r = e.execute(id, &[], &[]).unwrap();
        assert_eq!(r.result, Ok(7));
        assert!(r.vm_cycles > 0);
        assert_eq!(e.container(id).unwrap().metrics.executions, 1);
    }

    #[test]
    fn install_rejects_bad_image_and_bad_program() {
        let mut e = engine();
        assert!(matches!(
            e.install("x", 1, b"garbage", ContractRequest::default()),
            Err(EngineError::Parse(_))
        ));
        // Valid image framing but invalid program (falls off the end).
        let img = image("mov r0, 7\nexit");
        let prog = FcProgram::from_bytes(&img).unwrap();
        let bad = FcProgram {
            text: prog.text[..8].to_vec(),
            ..prog
        };
        assert!(matches!(
            e.install("x", 1, &bad.to_bytes(), ContractRequest::default()),
            Err(EngineError::Verify(_))
        ));
    }

    #[test]
    fn helper_calls_require_contract() {
        let mut e = engine();
        // Program calls store_global but requests no helpers: pre-flight
        // rejects it.
        let img = image("mov r1, 1\nmov r2, 2\ncall bpf_store_global\nmov r0, 0\nexit");
        assert!(matches!(
            e.install("x", 1, &img, ContractRequest::default()),
            Err(EngineError::Verify(VerifierError::HelperNotAllowed { .. }))
        ));
        // With the helper requested, it installs and runs.
        let id = e
            .install(
                "x",
                1,
                &img,
                ContractRequest::helpers([ids::BPF_STORE_GLOBAL]),
            )
            .unwrap();
        let r = e.execute(id, &[], &[]).unwrap();
        assert_eq!(r.result, Ok(0));
        assert_eq!(
            e.env().stores().fetch(id, 1, fc_kvstore::Scope::Global, 1),
            2
        );
    }

    #[test]
    fn faulting_container_is_contained() {
        let mut e = engine();
        let id = e
            .install(
                "oob",
                1,
                &image("ldxdw r0, [r10+64]\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let r = e.execute(id, &[], &[]).unwrap();
        assert!(matches!(r.result, Err(VmError::InvalidMemoryAccess { .. })));
        assert_eq!(e.container(id).unwrap().metrics.faults, 1);
        // Engine still fully operational.
        let id2 = e
            .install(
                "ok",
                1,
                &image("mov r0, 1\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        assert_eq!(e.execute(id2, &[], &[]).unwrap().result, Ok(1));
    }

    #[test]
    fn hook_attach_fire_detach() {
        let mut e = engine();
        e.register_hook(
            Hook::new("custom", HookKind::Custom, HookPolicy::Sum),
            ContractOffer::helpers(standard_helper_ids()),
        );
        let hook = crate::hooks::Hook::new("custom", HookKind::Custom, HookPolicy::Sum).id;
        let a = e
            .install(
                "a",
                1,
                &image("mov r0, 10\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let b = e
            .install(
                "b",
                2,
                &image("mov r0, 32\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        e.attach(a, hook).unwrap();
        e.attach(b, hook).unwrap();
        let report = e.fire_hook(hook, &[], &[]).unwrap();
        assert_eq!(report.combined, Some(42));
        assert_eq!(report.executions.len(), 2);
        assert!(report.cycles > e.hook_overhead_cycles());
        e.detach(a, hook).unwrap();
        assert_eq!(e.fire_hook(hook, &[], &[]).unwrap().combined, Some(32));
        assert!(matches!(e.detach(a, hook), Err(EngineError::NotAttached)));
    }

    #[test]
    fn empty_hook_returns_default_flow() {
        let mut e = engine();
        e.register_hook(
            Hook::new("empty", HookKind::Custom, HookPolicy::First),
            ContractOffer::default(),
        );
        let hook = Hook::new("empty", HookKind::Custom, HookPolicy::First).id;
        let report = e.fire_hook(hook, &[], &[]).unwrap();
        assert_eq!(report.combined, None);
        assert_eq!(report.cycles, e.platform().empty_hook_cycles());
    }

    #[test]
    fn hook_offer_narrower_than_install_rejects_attach() {
        let mut e = engine();
        e.register_hook(
            Hook::new("narrow", HookKind::Custom, HookPolicy::First),
            ContractOffer::helpers([]), // offers nothing
        );
        let hook = Hook::new("narrow", HookKind::Custom, HookPolicy::First).id;
        let img = image("mov r1, 1\nmov r2, 2\ncall bpf_store_global\nmov r0, 0\nexit");
        let id = e
            .install(
                "x",
                1,
                &img,
                ContractRequest::helpers([ids::BPF_STORE_GLOBAL]),
            )
            .unwrap();
        assert!(matches!(e.attach(id, hook), Err(EngineError::Verify(_))));
    }

    #[test]
    fn ctx_passed_and_returned() {
        let mut e = engine();
        let src = "\
ldxdw r2, [r1]
add r2, 1
stxdw [r1], r2
mov r0, r2
exit";
        let id = e
            .install("inc", 1, &image(src), ContractRequest::default())
            .unwrap();
        let ctx = 41u64.to_le_bytes().to_vec();
        let r = e.execute(id, &ctx, &[]).unwrap();
        assert_eq!(r.result, Ok(42));
        assert_eq!(r.ctx_back, 42u64.to_le_bytes().to_vec());
    }

    #[test]
    fn read_only_region_cannot_be_modified() {
        let mut e = engine();
        // Tries to write the first host region.
        let src = "\
lddw r1, 0x60000000
stb [r1], 1
mov r0, 0
exit";
        let id = e
            .install("fw", 1, &image(src), ContractRequest::default())
            .unwrap();
        let r = e
            .execute(id, &[], &[HostRegion::read_only("pkt", vec![0; 16])])
            .unwrap();
        assert!(matches!(
            r.result,
            Err(VmError::InvalidMemoryAccess { write: true, .. })
        ));
        // Read-only inspection works.
        let src_read = "\
lddw r1, 0x60000000
ldxb r0, [r1]
exit";
        let id2 = e
            .install("fw2", 1, &image(src_read), ContractRequest::default())
            .unwrap();
        let r2 = e
            .execute(id2, &[], &[HostRegion::read_only("pkt", vec![9; 16])])
            .unwrap();
        assert_eq!(r2.result, Ok(9));
    }

    #[test]
    fn local_stores_are_per_container_and_dropped_on_remove() {
        let mut e = engine();
        let src = "\
mov r1, 5
mov r2, 77
call bpf_store_local
mov r1, 5
mov r2, r10
add r2, -8
call bpf_fetch_local
ldxw r0, [r10-8]
exit";
        let req = ContractRequest::helpers([ids::BPF_STORE_LOCAL, ids::BPF_FETCH_LOCAL]);
        let a = e.install("a", 1, &image(src), req.clone()).unwrap();
        let r = e.execute(a, &[], &[]).unwrap();
        assert_eq!(r.result, Ok(77));
        assert!(e.env().stores().local_snapshot(a).is_some());
        assert!(e.remove(a));
        assert!(e.env().stores().local_snapshot(a).is_none());
        assert!(matches!(
            e.execute(a, &[], &[]),
            Err(EngineError::UnknownContainer(_))
        ));
    }

    #[test]
    fn ram_accounting_matches_paper_per_instance() {
        let mut e = engine();
        let id = e
            .install(
                "t",
                1,
                &image("mov r0, 0\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let per_instance = e.container(id).unwrap().ram_bytes();
        assert_eq!(per_instance, 624, "paper §10.3: 624 B per instance");
    }

    #[test]
    fn certfc_flavor_executes_identically() {
        let mut fc = engine();
        let mut cert = HostingEngine::new(Platform::CortexM4, EngineFlavor::CertFc);
        let img = image("mov r0, 9\nmul r0, r0\nexit");
        let a = fc
            .install("x", 1, &img, ContractRequest::default())
            .unwrap();
        let b = cert
            .install("x", 1, &img, ContractRequest::default())
            .unwrap();
        let ra = fc.execute(a, &[], &[]).unwrap();
        let rb = cert.execute(b, &[], &[]).unwrap();
        assert_eq!(ra.result, rb.result);
        assert!(rb.vm_cycles > ra.vm_cycles, "CertFC is slower");
    }

    #[test]
    fn arena_reuse_preserves_isolation_between_events() {
        let mut e = engine();
        // Writes a sentinel to the stack, then returns what it found
        // there *before* writing: a second event must read 0, not the
        // previous event's sentinel.
        let src = "\
ldxdw r0, [r10-8]
mov r1, 0x5a5a
stxdw [r10-8], r1
exit";
        let id = e
            .install("probe", 1, &image(src), ContractRequest::default())
            .unwrap();
        for _ in 0..3 {
            let r = e.execute(id, &[], &[]).unwrap();
            assert_eq!(r.result, Ok(0), "stack leaked across events");
        }
    }

    #[test]
    fn arena_reuse_rebuilds_data_section() {
        let mut e = engine();
        // Increments the first word of .data and returns it: with .data
        // rebuilt per event, every run sees the initial image value.
        let src = "\
lddwd r1, 0
ldxw r2, [r1]
add32 r2, 1
stxw [r1], r2
mov r0, r2
exit";
        let mut builder = ProgramBuilder::new();
        builder.add_data(&7u32.to_le_bytes());
        let img = builder.asm(src).unwrap().build().to_bytes();
        let id = e
            .install("ctr", 1, &img, ContractRequest::default())
            .unwrap();
        for _ in 0..3 {
            assert_eq!(e.execute(id, &[], &[]).unwrap().result, Ok(8));
        }
    }

    #[test]
    fn arena_reuse_keeps_host_region_bases_stable() {
        let mut e = engine();
        // Reads the first host-granted region at its well-known base.
        let src = "\
lddw r1, 0x60000000
ldxb r0, [r1]
exit";
        let id = e
            .install("rd", 1, &image(src), ContractRequest::default())
            .unwrap();
        for v in [3u8, 9, 27] {
            let r = e
                .execute(id, &[], &[HostRegion::read_only("pkt", vec![v; 8])])
                .unwrap();
            assert_eq!(r.result, Ok(v as u64));
        }
        // And the context region does not persist into a later event
        // that grants none.
        let src_ctx = "ldxdw r0, [r1]\nexit";
        let id2 = e
            .install("c", 1, &image(src_ctx), ContractRequest::default())
            .unwrap();
        let ok = e.execute(id2, &5u64.to_le_bytes(), &[]).unwrap();
        assert_eq!(ok.result, Ok(5));
        let bad = e.execute(id2, &[], &[]).unwrap();
        assert!(
            bad.result.is_err(),
            "stale ctx region reachable: {:?}",
            bad.result
        );
    }

    #[test]
    fn all_flavors_agree_on_results() {
        let src = "\
mov r0, 0
mov r1, 25
loop: add r0, r1
sub r1, 1
jne r1, 0, loop
stxdw [r10-16], r0
ldxdw r0, [r10-16]
exit";
        let mut results = Vec::new();
        for flavor in [
            EngineFlavor::FemtoContainer,
            EngineFlavor::Rbpf,
            EngineFlavor::CertFc,
        ] {
            let mut e = HostingEngine::new(Platform::CortexM4, flavor);
            let id = e
                .install("x", 1, &image(src), ContractRequest::default())
                .unwrap();
            let r = e.execute(id, &[], &[]).unwrap();
            results.push((r.result, r.counts));
        }
        assert_eq!(results[0], results[1], "threaded vs vanilla");
        assert_eq!(results[1], results[2], "vanilla vs certfc");
        assert_eq!(results[0].0, Ok(325));
    }

    #[test]
    fn replacement_install_drops_stale_attachments() {
        let mut e = engine();
        e.register_hook(
            Hook::new("narrow", HookKind::Custom, HookPolicy::First),
            ContractOffer::helpers([]), // offers no helpers
        );
        let hook = Hook::new("narrow", HookKind::Custom, HookPolicy::First).id;
        let plain = image("mov r0, 1\nexit");
        let id = e
            .install("v1", 1, &plain, ContractRequest::default())
            .unwrap();
        e.attach(id, hook).unwrap();
        // Replace the attached container with a helper-calling program:
        // the stale attachment must NOT survive, because this hook's
        // offer would have rejected it at attach time.
        let helperful = image("mov r1, 1\nmov r2, 2\ncall bpf_store_global\nmov r0, 0\nexit");
        e.install_with_id(
            id,
            "v2",
            1,
            &helperful,
            ContractRequest::helpers([ids::BPF_STORE_GLOBAL]),
        )
        .unwrap();
        assert!(e.attached(hook).is_empty(), "replacement starts detached");
        let report = e.fire_hook(hook, &[], &[]).unwrap();
        assert_eq!(report.combined, None);
        // And re-attaching re-runs the per-hook contract check.
        assert!(matches!(e.attach(id, hook), Err(EngineError::Verify(_))));
    }

    #[test]
    fn sibling_shards_share_env_and_slots_migrate() {
        let mut a = engine();
        let mut b = HostingEngine::with_env(a.platform(), a.flavor(), a.env_handle());
        let img = image("mov r1, 1\nmov r2, 2\ncall bpf_store_global\nmov r0, 0\nexit");
        let id = a
            .install(
                "x",
                1,
                &img,
                ContractRequest::helpers([ids::BPF_STORE_GLOBAL]),
            )
            .unwrap();
        // Eject from shard A, adopt on shard B: same id, same contract,
        // same (shared) stores.
        let slot = a.eject(id).unwrap();
        assert!(matches!(
            a.execute(id, &[], &[]),
            Err(EngineError::UnknownContainer(_))
        ));
        assert_eq!(b.adopt(slot), id);
        let r = b.execute(id, &[], &[]).unwrap();
        assert_eq!(r.result, Ok(0));
        assert!(r.helper_cycles > 0, "meter travels with the slot");
        // The global-store write is visible through shard A's env view.
        assert_eq!(
            a.env().stores().fetch(id, 1, fc_kvstore::Scope::Global, 1),
            2
        );
        // And a whole engine (with installed slots) can cross threads.
        let b = std::thread::spawn(move || {
            let mut b = b;
            b.execute(id, &[], &[]).unwrap().result
        })
        .join()
        .unwrap();
        assert_eq!(b, Ok(0));
    }

    #[test]
    fn adopted_slot_runs_under_the_adopting_engines_budget() {
        // Installed under the default (generous) budgets on shard A…
        let mut a = engine();
        let id = a
            .install(
                "spin",
                1,
                &image("spin: ja spin\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        // …then migrated to shard B, whose budget was tightened: the
        // adopted container must be contained by B's budget, not the
        // one it carried out of A.
        let mut b = HostingEngine::with_env(a.platform(), a.flavor(), a.env_handle());
        b.set_exec_config(ExecConfig::new(1000, 100));
        b.adopt(a.eject(id).unwrap());
        let r = b.execute(id, &[], &[]).unwrap();
        assert!(
            matches!(
                r.result,
                Err(VmError::BranchBudgetExceeded { budget: 100 }
                    | VmError::InstructionBudgetExceeded { budget: 1000 })
            ),
            "{:?}",
            r.result
        );
    }

    #[test]
    fn fire_hook_batch_reports_identical_to_single_fires() {
        // Two engines driven over the same five events: one per-event,
        // one batched. The reports must match bit for bit — including
        // the faulting container's.
        let mk = || {
            let mut e = engine();
            e.register_hook(
                Hook::new("b", HookKind::Custom, HookPolicy::Sum),
                ContractOffer::helpers(standard_helper_ids()),
            );
            let hook = Hook::new("b", HookKind::Custom, HookPolicy::Sum).id;
            let ok = e
                .install(
                    "ok",
                    1,
                    &image("ldxdw r0, [r1]\nadd r0, 1\nexit"),
                    ContractRequest::default(),
                )
                .unwrap();
            let bad = e
                .install(
                    "bad",
                    2,
                    &image("ldxdw r0, [r10+4096]\nexit"),
                    ContractRequest::default(),
                )
                .unwrap();
            e.attach(ok, hook).unwrap();
            e.attach(bad, hook).unwrap();
            (e, hook)
        };
        let ctxs: Vec<Vec<u8>> = (0..5u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let (mut single, hook) = mk();
        let singles: Vec<HookReport> = ctxs
            .iter()
            .map(|c| single.fire_hook(hook, c, &[]).unwrap())
            .collect();
        let (mut batched, hook) = mk();
        let events: Vec<(&[u8], &[HostRegion])> =
            ctxs.iter().map(|c| (c.as_slice(), &[][..])).collect();
        let batch = batched.fire_hook_batch(hook, &events).unwrap();
        assert_eq!(singles, batch);
        assert!(batch[0].executions[1].result.is_err(), "fault exercised");
    }

    #[test]
    fn unregister_hook_returns_attachment_order_and_stops_fires() {
        let mut e = engine();
        e.register_hook(
            Hook::new("u", HookKind::Custom, HookPolicy::First),
            ContractOffer::helpers(standard_helper_ids()),
        );
        let hook = Hook::new("u", HookKind::Custom, HookPolicy::First).id;
        let a = e
            .install(
                "a",
                1,
                &image("mov r0, 1\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let b = e
            .install(
                "b",
                1,
                &image("mov r0, 2\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        e.attach(b, hook).unwrap();
        e.attach(a, hook).unwrap();
        let (desc, attached) = e.unregister_hook(hook).unwrap();
        assert_eq!(desc.id, hook);
        assert_eq!(attached, vec![b, a], "attachment order preserved");
        assert!(matches!(
            e.fire_hook(hook, &[], &[]),
            Err(EngineError::UnknownHook(_))
        ));
        assert!(e.unregister_hook(hook).is_none());
        // Containers survive unregistration.
        assert_eq!(e.execute(a, &[], &[]).unwrap().result, Ok(1));
    }

    #[test]
    fn infinite_loop_contained_by_budget() {
        let mut e = engine();
        e.set_exec_config(ExecConfig::new(1000, 100));
        let id = e
            .install(
                "spin",
                1,
                &image("spin: ja spin\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        let r = e.execute(id, &[], &[]).unwrap();
        assert!(matches!(
            r.result,
            Err(VmError::BranchBudgetExceeded { .. } | VmError::InstructionBudgetExceeded { .. })
        ));
    }

    #[test]
    fn exec_config_change_applies_to_installed_containers() {
        let mut e = engine();
        // Installed under the default (generous) budgets…
        let id = e
            .install(
                "spin",
                1,
                &image("spin: ja spin\nexit"),
                ContractRequest::default(),
            )
            .unwrap();
        // …then the budget is tightened: the running container must be
        // contained by the *new* budget, not the one at install time.
        e.set_exec_config(ExecConfig::new(1000, 100));
        let r = e.execute(id, &[], &[]).unwrap();
        assert!(matches!(
            r.result,
            Err(VmError::BranchBudgetExceeded { .. } | VmError::InstructionBudgetExceeded { .. })
        ));
    }
}
