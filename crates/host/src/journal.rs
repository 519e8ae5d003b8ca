//! Durable node state: an in-simulation write-ahead journal plus
//! snapshot store, with seeded crash injection.
//!
//! A node that can be killed at any instant must be able to restart
//! from **local durable state only** and look, to its clients, exactly
//! like a node that never crashed: no committed kv write lost, no
//! event executed twice, and retransmissions of pre-crash exchanges
//! answered byte-identically. This module provides the storage half of
//! that contract; `LocalNode::restore` (see `service`) provides the
//! rebuild half.
//!
//! # Media and record format
//!
//! [`JournalMedia`] models a tiny two-slot flash device: two byte
//! arrays plus an **active-slot index** whose update is the only
//! atomic operation the medium guarantees (the classic A/B-image
//! discipline the paper's SUIT bootloaders rely on). A slot holds a
//! 5-byte header (`"FCJ1"` magic + format version) followed by
//! records in the codec discipline of [`crate::wire`]:
//!
//! ```text
//! | len: u32 | crc32: u32 | body: len bytes |
//! ```
//!
//! `crc32` guards `body`. A record that announces more bytes than the
//! slot holds is a **torn tail** — the crash interrupted the append —
//! and recovery keeps the durable prefix before it. A *complete*
//! record whose CRC or body does not check out is corruption, and
//! recovery **fails closed** with a typed [`JournalError`]: it never
//! panics and never half-applies.
//!
//! Record bodies are tagged: `1` an event commit (kv writes + wire
//! outcome + exchange tag), `2` a bare kv write (host-side seeding
//! outside any event), `3` an accepted live deploy (payload +
//! committed sequence + report), `4` a component evacuation, `5` a
//! snapshot. A snapshot is only legal as the first record of a slot.
//!
//! # Snapshot fold
//!
//! The journal keeps a **running fold** of its active slot in memory:
//! the state recovery would rebuild from that slot, extended by each
//! append in the same critical section that writes the record to the
//! media. A fresh journal starts from an empty fold; a recovered one
//! continues from the fold recovery built. Every
//! [`DurabilityConfig::snapshot_threshold`] appended records the
//! journal **folds**: it takes that running fold (it never re-reads or
//! re-verifies its own slot), collapses it to one snapshot record
//! (final kv values, newest deploy per component, the most recent
//! tagged exchanges, aggregate counter seeds), writes header + snapshot
//! to the *inactive* slot, flips the active index, and restarts the
//! running fold from the snapshot exactly as recovery would read it. A
//! crash mid-fold ([`CrashPoint::MidSnapshot`]) leaves the half-written
//! inactive slot unreferenced — the flip never happened, so recovery
//! still reads the full pre-fold journal. With folding disabled
//! (`snapshot_threshold == 0`) the journal keeps no running fold.
//!
//! # Crash injection
//!
//! A seeded [`CrashPlan`] arms the media to "lose power" at a chosen
//! [`CrashPoint`]. After the crash every append is refused and the
//! owner is expected to stay silent (no replies leave a dead node);
//! the differential harness then drops the host entirely and restores
//! a fresh one from the media, proving that nothing the journal did
//! not capture was needed.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fc_core::engine::{ContainerId, HookReport};
use fc_kvstore::{Scope, StoreSink, TenantId};
use fc_suit::Uuid;

use crate::telemetry::HistogramSnapshot;
use crate::wire::{
    get_deploy_report, get_node_error, get_report, put_bytes, put_deploy_report, put_i64,
    put_node_error, put_report, put_str, put_u32, put_u64, put_u8, put_uuid, Reader, WireError,
};
use crate::{DeployReport, NodeError};

/// Slot header: magic plus format version.
const MAGIC: &[u8; 4] = b"FCJ1";
const VERSION: u8 = 1;
const HEADER_LEN: usize = 5;

const TAG_COMMIT: u8 = 1;
const TAG_BARE_KV: u8 = 2;
const TAG_DEPLOY: u8 = 3;
const TAG_FORGET: u8 = 4;
const TAG_SNAPSHOT: u8 = 5;

// ------------------------------------------------------------- crc32

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the journal's
/// record guard — computed slicing-by-8: eight bytes per step through
/// eight tables built at compile time; no dependency needed. Table `k`
/// maps a byte to its CRC contribution `k` bytes further up the
/// stream, so table `0` is the classic bytewise table.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 8 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            t += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ------------------------------------------------------ configuration

/// Durability switches for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Master switch. When `false` the node journals nothing and its
    /// behaviour is bit-identical to a node built without this module.
    pub enabled: bool,
    /// Appended records that trigger a snapshot fold; `0` disables
    /// folding (the journal grows without bound).
    pub snapshot_threshold: u64,
    /// Tagged exchanges a snapshot retains for post-restore dedup
    /// (mirrors the transport's own bounded reply cache). Oldest
    /// exchanges beyond the cap fall out at fold time.
    pub retain_exchanges: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            enabled: true,
            snapshot_threshold: 256,
            retain_exchanges: 128,
        }
    }
}

impl DurabilityConfig {
    /// Durability off: no journal, no overhead, bit-identical outputs.
    pub fn disabled() -> Self {
        DurabilityConfig {
            enabled: false,
            ..DurabilityConfig::default()
        }
    }
}

// ---------------------------------------------------- crash injection

/// Where a seeded fault-injection crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Power fails after the event executed but before its commit
    /// record reaches the medium: the write is lost, the client
    /// retransmits, the restored node re-executes.
    PreCommit,
    /// Power fails after the commit record is durable but before the
    /// reply leaves the node: the retransmission must be answered from
    /// the journal, byte-identically, without re-executing.
    PostCommitPreReply,
    /// Power fails halfway through writing a snapshot fold: the
    /// inactive slot is torn but the active index never flipped.
    MidSnapshot,
    /// Power fails halfway through appending the commit record itself:
    /// the journal ends in a torn record recovery must tolerate.
    TornRecord,
}

/// A seeded crash: fire at `point` after `after` earlier operations of
/// the relevant kind (commit appends, or folds for
/// [`CrashPoint::MidSnapshot`]) have completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The seam to crash at.
    pub point: CrashPoint,
    /// Operations of the relevant kind to let through first.
    pub after: u64,
}

// -------------------------------------------------------------- media

#[derive(Debug, Default)]
struct MediaInner {
    slots: [Vec<u8>; 2],
    active: usize,
    crashed: bool,
    plan: Option<CrashPlan>,
}

/// The simulated two-slot storage device a [`Journal`] writes to. The
/// handle is cheap to clone and — crucially — **survives the node**:
/// crash tests drop the whole host and hand the same media to
/// [`Journal::recover`], exactly like flash surviving a power cycle.
#[derive(Debug, Clone, Default)]
pub struct JournalMedia {
    inner: Arc<Mutex<MediaInner>>,
}

impl JournalMedia {
    /// A blank device.
    pub fn new() -> Self {
        JournalMedia::default()
    }

    /// Arms a seeded crash. Replaces any previous plan.
    pub fn set_crash_plan(&self, plan: CrashPlan) {
        self.lock().plan = Some(plan);
    }

    /// Whether the device has "lost power" (a [`CrashPlan`] fired).
    /// A crashed device refuses all further writes until recovered.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Bytes currently in the active slot (header included) — the
    /// journal length the recovery bench plots against restore time.
    pub fn journal_len(&self) -> usize {
        let m = self.lock();
        m.slots[m.active].len()
    }

    /// Mutates the active slot's raw bytes — the fault-injection
    /// surface for the journal-corruption matrix (truncate the tail,
    /// flip a CRC byte, duplicate a record, zero the file).
    pub fn corrupt_active(&self, f: impl FnOnce(&mut Vec<u8>)) {
        let mut m = self.lock();
        let active = m.active;
        f(&mut m.slots[active]);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MediaInner> {
        self.inner.lock().expect("journal media lock")
    }
}

// ------------------------------------------------------------ records

/// One committed kv write (absolute value), as observed by the store
/// sink at the moment the sharded store accepted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvWrite {
    /// Store scope the write landed in.
    pub scope: Scope,
    /// Owning container (local scope; `0` otherwise).
    pub container: ContainerId,
    /// Owning tenant (tenant scope; `0` otherwise).
    pub tenant: TenantId,
    /// Key within the scoped store.
    pub key: u32,
    /// Value written.
    pub value: i64,
}

/// Which client operation a durable exchange tag belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagKind {
    /// A single-event dispatch.
    Dispatch,
    /// One slot of a batched dispatch.
    Batch,
}

/// The exactly-once identity of one client exchange: the CoAP token
/// plus, for batches, the slot index within the batch. Commit records
/// carrying the same `(token, index)` are duplicates and replay once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableTag {
    /// The transport token of the exchange.
    pub token: Vec<u8>,
    /// Operation kind behind the token.
    pub kind: TagKind,
    /// Slot index within the batch (`0` for single dispatches).
    pub index: u32,
    /// Total slots under this token.
    pub total: u32,
}

/// One event's atomic commit: everything the restored node needs to
/// (a) reapply the event's kv writes, (b) answer a retransmission of
/// its exchange byte-identically, and (c) seed its counters as if it
/// had dispatched the event itself. Borrowed from the shard worker, so
/// committing an event copies nothing but the encoded bytes (and, for
/// a tagged exchange, the outcome the running fold keeps for dedup).
#[derive(Debug)]
pub(crate) struct CommitRecord<'a> {
    pub hook: Uuid,
    pub tag: Option<&'a DurableTag>,
    pub latency_ns: u64,
    pub insns: u64,
    pub faults: u64,
    pub charges: &'a [(TenantId, u64)],
    pub writes: &'a [KvWrite],
    pub outcome: Result<&'a HookReport, &'a NodeError>,
}

/// A commit record decoded from the media: owns what [`CommitRecord`]
/// borrows.
#[derive(Debug)]
struct OwnedCommit {
    hook: Uuid,
    tag: Option<DurableTag>,
    latency_ns: u64,
    insns: u64,
    faults: u64,
    charges: Vec<(TenantId, u64)>,
    writes: Vec<KvWrite>,
    outcome: Result<HookReport, NodeError>,
}

impl OwnedCommit {
    fn record(&self) -> CommitRecord<'_> {
        CommitRecord {
            hook: self.hook,
            tag: self.tag.as_ref(),
            latency_ns: self.latency_ns,
            insns: self.insns,
            faults: self.faults,
            charges: &self.charges,
            writes: &self.writes,
            outcome: self.outcome.as_ref(),
        }
    }
}

/// One accepted live deploy, journaled with enough context to replay
/// the install on a restored host at the **same container id** and the
/// same rollback-protected sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployRecord {
    /// Tenant the verified manifest belonged to.
    pub tenant: TenantId,
    /// Manifest payload URI (for diagnostics; the payload itself is
    /// inlined below, staging does not survive a crash).
    pub uri: String,
    /// The verified image bytes.
    pub payload: Vec<u8>,
    /// Transport token of the deploying exchange, when it arrived over
    /// a tagged channel — retransmissions answer from the report.
    pub token: Option<Vec<u8>>,
    /// The accepted report (container id, component, committed
    /// sequence) exactly as replied pre-crash.
    pub report: DeployReport,
}

/// One recovered tagged exchange: the committed per-slot outcomes a
/// restored node must answer retransmissions from.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredExchange {
    /// The transport token.
    pub token: Vec<u8>,
    /// Hook the exchange targeted.
    pub hook: Uuid,
    /// Operation kind.
    pub kind: TagKind,
    /// Total slots under the token.
    pub total: u32,
    /// Committed `(index, outcome)` pairs — possibly a subset of
    /// `total` when the crash interrupted a batch mid-flight.
    pub outcomes: Vec<(u32, Result<HookReport, NodeError>)>,
}

/// Aggregate counter state folded out of the journal: what a restored
/// node seeds its telemetry ledger with (once, in `LocalNode::restore`)
/// so fleet-level reconciliation (`dispatched == offered`) holds across
/// a crash without re-counting pre-crash events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSeeds {
    /// Events accepted (durably committed ones only).
    pub enqueued: u64,
    /// Events fully executed and committed.
    pub dispatched: u64,
    /// Executions that faulted.
    pub faults: u64,
    /// VM instructions retired.
    pub insns: u64,
    /// Deploys accepted through the SUIT pipeline.
    pub deploys: u64,
    /// Dispatch latency histogram (wall-clock; seeds quantile
    /// continuity, not bit-identity).
    pub latency: HistogramSnapshot,
    /// Per-hook committed dispatch counts, sorted by hook id.
    pub hooks: Vec<(Uuid, u64)>,
    /// Per-tenant `(executions, insns)` charges, sorted by tenant.
    pub tenants: Vec<(TenantId, u64, u64)>,
}

/// Everything [`Journal::recover`] reconstructs from the media: the
/// input to `LocalNode::restore`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Final committed kv values (folded; absolute writes make the
    /// fold exact), sorted by `(scope, container, tenant, key)`.
    pub kv: Vec<KvWrite>,
    /// Accepted deploys in replay order (newest per component after a
    /// fold; evacuated components removed).
    pub deploys: Vec<DeployRecord>,
    /// Tagged exchanges with their committed outcomes, oldest first.
    pub exchanges: Vec<RecoveredExchange>,
    /// Deploy replies by token, for retransmitted deploy exchanges.
    pub deploy_replies: Vec<(Vec<u8>, DeployReport)>,
    /// Aggregate counter seeds.
    pub seeds: CounterSeeds,
}

/// Why recovery failed closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The active slot is non-empty but does not start with the
    /// journal header.
    BadHeader,
    /// A complete record failed its CRC (or a CRC-valid body failed to
    /// decode) at the given slot offset. Fail closed: nothing is
    /// applied.
    Corrupt {
        /// Byte offset of the offending record in the active slot.
        offset: usize,
    },
    /// The journal replayed cleanly but a recovered record failed to
    /// re-apply on the restored host (e.g. a journaled image no longer
    /// parses). Fail closed: the node is not brought up half-restored.
    Replay(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::BadHeader => write!(f, "journal slot header is not FCJ1"),
            JournalError::Corrupt { offset } => {
                write!(f, "journal record at offset {offset} is corrupt")
            }
            JournalError::Replay(reason) => {
                write!(f, "recovered journal record failed to re-apply: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

// --------------------------------------------------------- encoding

fn scope_tag(scope: Scope) -> u8 {
    match scope {
        Scope::Local => 0,
        Scope::Global => 1,
        Scope::Tenant => 2,
    }
}

fn scope_from(tag: u8) -> Result<Scope, WireError> {
    Ok(match tag {
        0 => Scope::Local,
        1 => Scope::Global,
        2 => Scope::Tenant,
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_write(buf: &mut Vec<u8>, w: &KvWrite) {
    put_u8(buf, scope_tag(w.scope));
    put_u32(buf, w.container);
    put_u32(buf, w.tenant);
    put_u32(buf, w.key);
    put_i64(buf, w.value);
}

fn get_write(r: &mut Reader) -> Result<KvWrite, WireError> {
    Ok(KvWrite {
        scope: scope_from(r.u8()?)?,
        container: r.u32()?,
        tenant: r.u32()?,
        key: r.u32()?,
        value: r.i64()?,
    })
}

fn put_outcome(buf: &mut Vec<u8>, outcome: Result<&HookReport, &NodeError>) {
    match outcome {
        Ok(report) => {
            put_u8(buf, 0);
            put_report(buf, report);
        }
        Err(e) => {
            put_u8(buf, 1);
            put_node_error(buf, e);
        }
    }
}

fn get_outcome(r: &mut Reader) -> Result<Result<HookReport, NodeError>, WireError> {
    Ok(match r.u8()? {
        0 => Ok(get_report(r)?),
        1 => Err(get_node_error(r)?),
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_tag_kind(buf: &mut Vec<u8>, kind: TagKind) {
    put_u8(
        buf,
        match kind {
            TagKind::Dispatch => 0,
            TagKind::Batch => 1,
        },
    );
}

fn get_tag_kind(r: &mut Reader) -> Result<TagKind, WireError> {
    Ok(match r.u8()? {
        0 => TagKind::Dispatch,
        1 => TagKind::Batch,
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_commit(buf: &mut Vec<u8>, rec: &CommitRecord) {
    put_u8(buf, TAG_COMMIT);
    put_uuid(buf, rec.hook);
    match rec.tag {
        Some(tag) => {
            put_u8(buf, 1);
            put_bytes(buf, &tag.token);
            put_tag_kind(buf, tag.kind);
            put_u32(buf, tag.index);
            put_u32(buf, tag.total);
        }
        None => put_u8(buf, 0),
    }
    put_u64(buf, rec.latency_ns);
    put_u64(buf, rec.insns);
    put_u64(buf, rec.faults);
    put_u32(buf, rec.charges.len() as u32);
    for &(tenant, insns) in rec.charges {
        put_u32(buf, tenant);
        put_u64(buf, insns);
    }
    put_u32(buf, rec.writes.len() as u32);
    for w in rec.writes {
        put_write(buf, w);
    }
    put_outcome(buf, rec.outcome);
}

fn decode_commit(r: &mut Reader) -> Result<OwnedCommit, WireError> {
    let hook = r.uuid()?;
    let tag = match r.u8()? {
        0 => None,
        1 => Some(DurableTag {
            token: r.bytes()?,
            kind: get_tag_kind(r)?,
            index: r.u32()?,
            total: r.u32()?,
        }),
        t => return Err(WireError::BadTag(t)),
    };
    let latency_ns = r.u64()?;
    let insns = r.u64()?;
    let faults = r.u64()?;
    let n = r.u32()? as usize;
    let mut charges = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        charges.push((r.u32()?, r.u64()?));
    }
    let n = r.u32()? as usize;
    let mut writes = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        writes.push(get_write(r)?);
    }
    let outcome = get_outcome(r)?;
    Ok(OwnedCommit {
        hook,
        tag,
        latency_ns,
        insns,
        faults,
        charges,
        writes,
        outcome,
    })
}

/// A deploy record's body without its tag byte: self-delimiting, so
/// the deploy record and the snapshot's deploy list share it.
fn put_deploy_body(buf: &mut Vec<u8>, rec: &DeployRecord) {
    put_u32(buf, rec.tenant);
    put_str(buf, &rec.uri);
    put_bytes(buf, &rec.payload);
    match &rec.token {
        Some(token) => {
            put_u8(buf, 1);
            put_bytes(buf, token);
        }
        None => put_u8(buf, 0),
    }
    put_deploy_report(buf, &rec.report);
}

fn decode_deploy(r: &mut Reader) -> Result<DeployRecord, WireError> {
    let tenant = r.u32()?;
    let uri = r.string()?;
    let payload = r.bytes()?;
    let token = match r.u8()? {
        0 => None,
        1 => Some(r.bytes()?),
        t => return Err(WireError::BadTag(t)),
    };
    let report = get_deploy_report(r)?;
    Ok(DeployRecord {
        tenant,
        uri,
        payload,
        token,
        report,
    })
}

fn put_hist(buf: &mut Vec<u8>, h: &HistogramSnapshot) {
    let occupied = h.0.iter().filter(|&&b| b != 0).count() as u8;
    put_u8(buf, occupied);
    for (i, &b) in h.0.iter().enumerate() {
        if b != 0 {
            put_u8(buf, i as u8);
            put_u64(buf, b);
        }
    }
}

fn get_hist(r: &mut Reader) -> Result<HistogramSnapshot, WireError> {
    let n = r.u8()?;
    let mut h = HistogramSnapshot::default();
    for _ in 0..n {
        let idx = r.u8()? as usize;
        let v = r.u64()?;
        let slot = h.0.get_mut(idx).ok_or(WireError::BadTag(idx as u8))?;
        *slot = slot.wrapping_add(v);
    }
    Ok(h)
}

fn put_snapshot(buf: &mut Vec<u8>, state: &RecoveredState) {
    put_u8(buf, TAG_SNAPSHOT);
    put_u32(buf, state.kv.len() as u32);
    for w in &state.kv {
        put_write(buf, w);
    }
    put_u32(buf, state.deploys.len() as u32);
    for d in &state.deploys {
        put_deploy_body(buf, d);
    }
    put_u32(buf, state.exchanges.len() as u32);
    for ex in &state.exchanges {
        put_bytes(buf, &ex.token);
        put_uuid(buf, ex.hook);
        put_tag_kind(buf, ex.kind);
        put_u32(buf, ex.total);
        put_u32(buf, ex.outcomes.len() as u32);
        for (index, outcome) in &ex.outcomes {
            put_u32(buf, *index);
            put_outcome(buf, outcome.as_ref());
        }
    }
    put_u32(buf, state.deploy_replies.len() as u32);
    for (token, report) in &state.deploy_replies {
        put_bytes(buf, token);
        put_deploy_report(buf, report);
    }
    let s = &state.seeds;
    put_u64(buf, s.enqueued);
    put_u64(buf, s.dispatched);
    put_u64(buf, s.faults);
    put_u64(buf, s.insns);
    put_u64(buf, s.deploys);
    put_hist(buf, &s.latency);
    put_u32(buf, s.hooks.len() as u32);
    for (hook, count) in &s.hooks {
        put_uuid(buf, *hook);
        put_u64(buf, *count);
    }
    put_u32(buf, s.tenants.len() as u32);
    for (tenant, executions, insns) in &s.tenants {
        put_u32(buf, *tenant);
        put_u64(buf, *executions);
        put_u64(buf, *insns);
    }
}

fn decode_snapshot(r: &mut Reader) -> Result<RecoveredState, WireError> {
    let mut state = RecoveredState::default();
    let n = r.u32()? as usize;
    for _ in 0..n {
        state.kv.push(get_write(r)?);
    }
    let n = r.u32()? as usize;
    for _ in 0..n {
        state.deploys.push(decode_deploy(r)?);
    }
    let n = r.u32()? as usize;
    for _ in 0..n {
        let token = r.bytes()?;
        let hook = r.uuid()?;
        let kind = get_tag_kind(r)?;
        let total = r.u32()?;
        let m = r.u32()? as usize;
        let mut outcomes = Vec::with_capacity(m.min(64));
        for _ in 0..m {
            let index = r.u32()?;
            outcomes.push((index, get_outcome(r)?));
        }
        state.exchanges.push(RecoveredExchange {
            token,
            hook,
            kind,
            total,
            outcomes,
        });
    }
    let n = r.u32()? as usize;
    for _ in 0..n {
        let token = r.bytes()?;
        let report = get_deploy_report(r)?;
        state.deploy_replies.push((token, report));
    }
    state.seeds.enqueued = r.u64()?;
    state.seeds.dispatched = r.u64()?;
    state.seeds.faults = r.u64()?;
    state.seeds.insns = r.u64()?;
    state.seeds.deploys = r.u64()?;
    state.seeds.latency = get_hist(r)?;
    let n = r.u32()? as usize;
    for _ in 0..n {
        let hook = r.uuid()?;
        state.seeds.hooks.push((hook, r.u64()?));
    }
    let n = r.u32()? as usize;
    for _ in 0..n {
        state.seeds.tenants.push((r.u32()?, r.u64()?, r.u64()?));
    }
    Ok(state)
}

// ----------------------------------------------------------- recovery

/// Recovery accumulator: a [`RecoveredState`] plus the lookup indexes
/// replay needs for dedup. Recovery builds one from a slot; a journal
/// keeps one running over its active slot (see the module docs).
#[derive(Clone, Default)]
struct Fold {
    kv: BTreeMap<(u8, ContainerId, TenantId, u32), i64>,
    deploys: Vec<DeployRecord>,
    exchanges: Vec<RecoveredExchange>,
    exchange_index: HashMap<Vec<u8>, usize>,
    deploy_replies: Vec<(Vec<u8>, DeployReport)>,
    deploy_tokens: HashSet<Vec<u8>>,
    hooks: HashMap<Uuid, u64>,
    tenants: HashMap<TenantId, (u64, u64)>,
    seeds: CounterSeeds,
}

impl Fold {
    fn put_write(&mut self, w: &KvWrite) {
        self.kv
            .insert((scope_tag(w.scope), w.container, w.tenant, w.key), w.value);
    }

    fn apply_snapshot(&mut self, snap: RecoveredState) {
        for w in &snap.kv {
            self.put_write(w);
        }
        for d in snap.deploys {
            if let Some(token) = &d.token {
                if self.deploy_tokens.insert(token.clone()) {
                    self.deploy_replies.push((token.clone(), d.report));
                }
            }
            self.deploys.push(d);
        }
        for ex in snap.exchanges {
            self.exchange_index
                .insert(ex.token.clone(), self.exchanges.len());
            self.exchanges.push(ex);
        }
        for (token, report) in snap.deploy_replies {
            if self.deploy_tokens.insert(token.clone()) {
                self.deploy_replies.push((token, report));
            }
        }
        self.seeds = snap.seeds;
        self.hooks = self.seeds.hooks.drain(..).collect();
        self.tenants = self
            .seeds
            .tenants
            .drain(..)
            .map(|(t, e, i)| (t, (e, i)))
            .collect();
    }

    /// Applies one commit record; duplicated tagged records (same
    /// token + index) replay exactly once. Only a tagged record's
    /// outcome is copied: retransmissions answer from it.
    fn apply_commit(&mut self, rec: &CommitRecord) {
        let known = rec
            .tag
            .and_then(|tag| self.exchange_index.get(&tag.token).copied());
        if let (Some(tag), Some(idx)) = (rec.tag, known) {
            if self.exchanges[idx]
                .outcomes
                .iter()
                .any(|(i, _)| *i == tag.index)
            {
                return; // duplicate record
            }
        }
        for w in rec.writes {
            self.put_write(w);
        }
        self.seeds.enqueued += 1;
        self.seeds.dispatched += 1;
        self.seeds.faults += rec.faults;
        self.seeds.insns += rec.insns;
        self.seeds.latency.record(rec.latency_ns);
        *self.hooks.entry(rec.hook).or_insert(0) += 1;
        for &(tenant, insns) in rec.charges {
            let slot = self.tenants.entry(tenant).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += insns;
        }
        if let Some(tag) = rec.tag {
            let idx = known.unwrap_or_else(|| {
                self.exchange_index
                    .insert(tag.token.clone(), self.exchanges.len());
                self.exchanges.push(RecoveredExchange {
                    token: tag.token.clone(),
                    hook: rec.hook,
                    kind: tag.kind,
                    total: tag.total,
                    outcomes: Vec::new(),
                });
                self.exchanges.len() - 1
            });
            let outcome = rec.outcome.cloned().map_err(NodeError::clone);
            self.exchanges[idx].outcomes.push((tag.index, outcome));
        }
    }

    fn apply_deploy(&mut self, rec: DeployRecord) {
        // A byte-duplicated record re-presents the same committed
        // sequence for the same component: replay once.
        if self.deploys.iter().any(|d| {
            d.report.component == rec.report.component && d.report.sequence == rec.report.sequence
        }) {
            return;
        }
        if let Some(token) = &rec.token {
            if self.deploy_tokens.insert(token.clone()) {
                self.deploy_replies.push((token.clone(), rec.report));
            }
        }
        self.seeds.deploys += 1;
        self.deploys.push(rec);
    }

    fn apply_forget(&mut self, component: Uuid) {
        self.deploys.retain(|d| d.report.component != component);
    }

    /// Applies a record this journal has just appended.
    fn apply(&mut self, entry: &Entry) {
        match *entry {
            Entry::Commit(rec) => self.apply_commit(rec),
            Entry::BareKv(w) => self.put_write(w),
            Entry::Deploy(rec) => self.apply_deploy(rec.clone()),
            Entry::Forget(component) => self.apply_forget(component),
        }
    }

    fn finish(mut self) -> RecoveredState {
        let kv = self
            .kv
            .into_iter()
            .map(|((tag, container, tenant, key), value)| KvWrite {
                scope: scope_from(tag).expect("fold stores valid scope tags"),
                container,
                tenant,
                key,
                value,
            })
            .collect();
        let mut hooks: Vec<(Uuid, u64)> = self.hooks.into_iter().collect();
        hooks.sort_unstable_by_key(|(hook, _)| *hook);
        let mut tenants: Vec<(TenantId, u64, u64)> = self
            .tenants
            .into_iter()
            .map(|(t, (e, i))| (t, e, i))
            .collect();
        tenants.sort_unstable_by_key(|(t, _, _)| *t);
        self.seeds.hooks = hooks;
        self.seeds.tenants = tenants;
        RecoveredState {
            kv,
            deploys: self.deploys,
            exchanges: self.exchanges,
            deploy_replies: self.deploy_replies,
            seeds: self.seeds,
        }
    }
}

/// Replays one slot's bytes into a [`Fold`]. Tolerates a torn tail
/// (keeps the durable prefix); fails closed on a complete record that
/// does not check out.
fn recover_bytes(bytes: &[u8]) -> Result<Fold, JournalError> {
    let mut fold = Fold::default();
    if bytes.is_empty() {
        // A blank device is a fresh node.
        return Ok(fold);
    }
    if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC || bytes[4] != VERSION {
        return Err(JournalError::BadHeader);
    }
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            break; // torn tail: not even a full frame header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
        let Some(end) = pos.checked_add(8).and_then(|p| p.checked_add(len)) else {
            break; // absurd length: the append was interrupted
        };
        if end > bytes.len() {
            break; // torn tail: record extends past EOF
        }
        let body = &bytes[pos + 8..end];
        if crc32(body) != crc {
            return Err(JournalError::Corrupt { offset: pos });
        }
        let mut r = Reader::new(body);
        let decoded = (|| -> Result<(), WireError> {
            match r.u8()? {
                TAG_SNAPSHOT if pos == HEADER_LEN => {
                    let snap = decode_snapshot(&mut r)?;
                    fold.apply_snapshot(snap);
                }
                TAG_COMMIT => fold.apply_commit(&decode_commit(&mut r)?.record()),
                TAG_BARE_KV => {
                    let w = get_write(&mut r)?;
                    fold.put_write(&w);
                }
                TAG_DEPLOY => fold.apply_deploy(decode_deploy(&mut r)?),
                TAG_FORGET => fold.apply_forget(r.uuid()?),
                t => return Err(WireError::BadTag(t)),
            }
            r.done()
        })();
        if decoded.is_err() {
            // CRC passed but the body is not a legal record (or a
            // snapshot appears mid-file): fail closed.
            return Err(JournalError::Corrupt { offset: pos });
        }
        pos = end;
    }
    Ok(fold)
}

// ------------------------------------------------------------ journal

/// One record on its way to the media, borrowed from its producer.
enum Entry<'a> {
    Commit(&'a CommitRecord<'a>),
    BareKv(&'a KvWrite),
    Deploy(&'a DeployRecord),
    Forget(Uuid),
}

impl Entry<'_> {
    /// Encodes the tagged record body.
    fn put(&self, buf: &mut Vec<u8>) {
        match *self {
            Entry::Commit(rec) => put_commit(buf, rec),
            Entry::BareKv(w) => {
                put_u8(buf, TAG_BARE_KV);
                put_write(buf, w);
            }
            Entry::Deploy(rec) => {
                put_u8(buf, TAG_DEPLOY);
                put_deploy_body(buf, rec);
            }
            Entry::Forget(component) => {
                put_u8(buf, TAG_FORGET);
                put_uuid(buf, component);
            }
        }
    }

    /// Whether this append is a commit point a client waits on — what
    /// a non-fold [`CrashPlan`] counts and fires at.
    fn is_commit(&self) -> bool {
        matches!(self, Entry::Commit(_) | Entry::Deploy(_))
    }
}

/// Appends one framed record to `buf`: reserves the 8-byte frame
/// header, lets `body` encode in place after it, then writes the
/// length and CRC of what it encoded into the reserved bytes.
fn put_framed(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    body(buf);
    let len = (buf.len() - start - 8) as u32;
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Journal op counters, surfaced as host metrics
/// (`journal_appends` / `journal_bytes` / `journal_folds`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalOps {
    /// Records appended.
    pub appends: u64,
    /// Framed bytes written (headers excluded).
    pub bytes: u64,
    /// Snapshot folds completed.
    pub folds: u64,
}

/// The journal's in-memory view of its active slot.
struct Running {
    /// What recovering the active slot would build; `None` when
    /// folding is disabled and nothing would ever read it.
    fold: Option<Fold>,
    /// Records appended since the last fold (counted while folding).
    since_fold: u64,
}

/// The write-ahead journal one durable node owns. Shared (`Arc`)
/// between the host's shard workers (event commits), the update
/// service (deploy commits), and the store sink (bare writes); all
/// appends serialize on the running-fold lock and then the media lock
/// (always in that order), so the running fold of the active slot
/// advances in the same critical section as the media it mirrors and
/// a snapshot fold never has to re-read the slot.
pub struct Journal {
    media: JournalMedia,
    config: DurabilityConfig,
    /// Quiet until armed: recovery replays state *through* the same
    /// host paths that normally journal, so the journal ignores
    /// appends until the restore is complete.
    armed: AtomicBool,
    running: Mutex<Running>,
    appends: AtomicU64,
    bytes: AtomicU64,
    folds: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("len", &self.media.journal_len())
            .finish()
    }
}

impl Journal {
    fn with_fold(
        media: JournalMedia,
        config: DurabilityConfig,
        armed: bool,
        fold: Fold,
    ) -> Arc<Journal> {
        Arc::new(Journal {
            media,
            config,
            armed: AtomicBool::new(armed),
            running: Mutex::new(Running {
                fold: (config.snapshot_threshold > 0).then_some(fold),
                since_fold: 0,
            }),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            folds: AtomicU64::new(0),
        })
    }

    /// Formats the media for a **fresh** node: wipes both slots,
    /// writes the header, and returns an armed journal.
    pub fn create(media: &JournalMedia, config: DurabilityConfig) -> Arc<Journal> {
        {
            let mut m = media.lock();
            m.slots = [Vec::new(), Vec::new()];
            m.active = 0;
            let mut slot = Vec::with_capacity(HEADER_LEN);
            slot.extend_from_slice(MAGIC);
            slot.push(VERSION);
            m.slots[0] = slot;
        }
        Journal::with_fold(media.clone(), config, true, Fold::default())
    }

    /// Boots from existing media (clearing any crash condition — the
    /// dead machine is gone, the disk is being read by a new one) and
    /// replays the active slot. The returned journal is **quiet**:
    /// call [`Journal::arm`] once the owner has finished applying the
    /// recovered state, or the replay itself would be re-journaled.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the slot is corrupt — fail closed, nothing
    /// applied. A torn tail is not an error: the durable prefix wins.
    pub fn recover(
        media: &JournalMedia,
        config: DurabilityConfig,
    ) -> Result<(Arc<Journal>, RecoveredState), JournalError> {
        let fold = {
            let mut m = media.lock();
            m.crashed = false;
            m.plan = None;
            if m.slots[m.active].is_empty() {
                // Blank device: format it like `create` so appends
                // have a header to follow.
                let mut slot = Vec::with_capacity(HEADER_LEN);
                slot.extend_from_slice(MAGIC);
                slot.push(VERSION);
                let active = m.active;
                m.slots[active] = slot;
            }
            recover_bytes(&m.slots[m.active])?
        };
        // The running fold continues from the very fold recovery built
        // (not one rebuilt from the returned state), so each append
        // extends it exactly as recovery would extend the slot.
        let journal = Journal::with_fold(media.clone(), config, false, fold.clone());
        Ok((journal, fold.finish()))
    }

    /// Opens the journal for appends (end of a restore).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether the node behind this journal is still powered: `false`
    /// once a [`CrashPlan`] fired. A dead node must not reply.
    pub fn alive(&self) -> bool {
        !self.media.crashed()
    }

    /// The media handle (what survives a crash).
    pub fn media(&self) -> JournalMedia {
        self.media.clone()
    }

    /// Op counters so far.
    pub fn ops(&self) -> JournalOps {
        JournalOps {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            folds: self.folds.load(Ordering::Relaxed),
        }
    }

    /// Journals one event commit. Returns `false` when the node is
    /// dead (crashed before or at this append) — the caller must then
    /// suppress the reply.
    pub(crate) fn commit(&self, rec: &CommitRecord) -> bool {
        self.append(Entry::Commit(rec))
    }

    /// Journals one accepted deploy (same liveness contract as
    /// [`Journal::commit`]).
    pub(crate) fn commit_deploy(&self, rec: &DeployRecord) -> bool {
        self.append(Entry::Deploy(rec))
    }

    /// Journals a component evacuation (rollback state forgotten).
    pub(crate) fn forget(&self, component: Uuid) -> bool {
        self.append(Entry::Forget(component))
    }

    /// Journals a bare kv write (host-side seeding outside any event).
    pub(crate) fn bare_kv(&self, w: &KvWrite) -> bool {
        self.append(Entry::BareKv(w))
    }

    fn append(&self, entry: Entry) -> bool {
        if !self.armed.load(Ordering::Acquire) {
            return true;
        }
        // Room for a typical event commit without regrowing.
        let mut framed = Vec::with_capacity(512);
        put_framed(&mut framed, |buf| entry.put(buf));
        let mut running = self.running.lock().expect("journal fold lock");
        let mut m = self.media.lock();
        if m.crashed {
            return false;
        }
        if entry.is_commit() {
            if let Some(plan) = &mut m.plan {
                if plan.point != CrashPoint::MidSnapshot {
                    if plan.after == 0 {
                        let point = plan.point;
                        m.plan = None;
                        m.crashed = true;
                        let active = m.active;
                        match point {
                            CrashPoint::PreCommit => {}
                            CrashPoint::TornRecord => {
                                // A strict prefix: the frame header
                                // plus half the body.
                                let torn = 8 + (framed.len() - 8) / 2;
                                m.slots[active].extend_from_slice(&framed[..torn]);
                            }
                            CrashPoint::PostCommitPreReply => {
                                m.slots[active].extend_from_slice(&framed);
                            }
                            CrashPoint::MidSnapshot => unreachable!("filtered above"),
                        }
                        return false;
                    }
                    plan.after -= 1;
                }
            }
        }
        let active = m.active;
        m.slots[active].extend_from_slice(&framed);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(framed.len() as u64, Ordering::Relaxed);
        let running = &mut *running;
        if let Some(fold) = &mut running.fold {
            fold.apply(&entry);
            running.since_fold += 1;
            if running.since_fold >= self.config.snapshot_threshold {
                running.since_fold = 0;
                return self.fold_locked(&mut m, fold);
            }
        }
        true
    }

    /// Folds the journal: snapshot the running fold into one record in
    /// the inactive slot, flip the active index, and restart the
    /// running fold from that snapshot. Returns `false` when a
    /// [`CrashPoint::MidSnapshot`] plan fired (the node is then dead
    /// and never appends or folds again).
    fn fold_locked(&self, m: &mut MediaInner, fold: &mut Fold) -> bool {
        let mut state = std::mem::take(fold).finish();
        // Collapse deploys to the newest record per component (replay
        // order preserved) and cap the retained exchanges/replies.
        let mut newest: HashMap<Uuid, DeployRecord> = HashMap::new();
        let mut order = Vec::new();
        for d in state.deploys.drain(..) {
            let component = d.report.component;
            if newest.insert(component, d).is_none() {
                order.push(component);
            }
        }
        state.deploys = order
            .into_iter()
            .map(|c| newest.remove(&c).expect("just inserted"))
            .collect();
        let retain = self.config.retain_exchanges;
        if state.exchanges.len() > retain {
            state.exchanges.drain(..state.exchanges.len() - retain);
        }
        if state.deploy_replies.len() > retain {
            state
                .deploy_replies
                .drain(..state.deploy_replies.len() - retain);
        }
        let mut slot = Vec::new();
        slot.extend_from_slice(MAGIC);
        slot.push(VERSION);
        put_framed(&mut slot, |buf| put_snapshot(buf, &state));
        if let Some(plan) = &mut m.plan {
            if plan.point == CrashPoint::MidSnapshot {
                if plan.after == 0 {
                    m.plan = None;
                    m.crashed = true;
                    // Half the fold reaches the inactive slot; the
                    // active index never flips.
                    let inactive = 1 - m.active;
                    m.slots[inactive] = slot[..slot.len() / 2].to_vec();
                    return false;
                }
                plan.after -= 1;
            }
        }
        let inactive = 1 - m.active;
        m.slots[inactive] = slot;
        m.active = inactive;
        self.folds.fetch_add(1, Ordering::Relaxed);
        // Recovery of the new slot applies this snapshot to an empty
        // fold; `take` left `fold` empty.
        fold.apply_snapshot(state);
        true
    }

    /// What the running fold holds now, finished like a recovery.
    #[cfg(test)]
    fn running_state(&self) -> Option<RecoveredState> {
        let running = self.running.lock().expect("journal fold lock");
        running.fold.clone().map(Fold::finish)
    }
}

// --------------------------------------------------------- store sink

thread_local! {
    /// Per-thread kv write capture, active while a shard worker
    /// executes one event (see `shard::run_shard`).
    static CAPTURE: RefCell<Option<Vec<KvWrite>>> = const { RefCell::new(None) };
}

/// Starts capturing this thread's store writes into a buffer.
pub(crate) fn begin_capture() {
    CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
}

/// Ends the capture and returns the writes observed since
/// [`begin_capture`].
pub(crate) fn take_capture() -> Vec<KvWrite> {
    CAPTURE.with(|c| c.borrow_mut().take().unwrap_or_default())
}

/// The [`StoreSink`] a durable host installs on its sharded stores:
/// writes made inside an event capture into the worker's commit
/// record; writes made outside any event journal immediately as bare
/// kv records.
pub(crate) struct CaptureSink {
    journal: Arc<Journal>,
}

impl CaptureSink {
    pub(crate) fn new(journal: Arc<Journal>) -> Self {
        CaptureSink { journal }
    }
}

impl StoreSink for CaptureSink {
    fn on_store(
        &self,
        container: fc_kvstore::ContainerId,
        tenant: TenantId,
        scope: Scope,
        key: u32,
        value: i64,
    ) {
        let write = KvWrite {
            scope,
            container,
            tenant,
            key,
            value,
        };
        let captured = CAPTURE.with(|c| {
            if let Some(buf) = c.borrow_mut().as_mut() {
                buf.push(write);
                true
            } else {
                false
            }
        });
        if !captured {
            self.journal.bare_kv(&write);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::engine::HookReport;

    fn report(combined: u64) -> HookReport {
        HookReport {
            executions: Vec::new(),
            combined: Some(combined),
            cycles: combined * 10,
        }
    }

    fn commit(hook: Uuid, token: u8, key: u32, value: i64) -> OwnedCommit {
        OwnedCommit {
            hook,
            tag: Some(DurableTag {
                token: vec![token],
                kind: TagKind::Dispatch,
                index: 0,
                total: 1,
            }),
            latency_ns: 1_000,
            insns: 7,
            faults: 0,
            charges: vec![(1, 7)],
            writes: vec![KvWrite {
                scope: Scope::Global,
                container: 0,
                tenant: 0,
                key,
                value,
            }],
            outcome: Ok(report(value as u64)),
        }
    }

    fn filled_journal(config: DurabilityConfig) -> (JournalMedia, Uuid) {
        let media = JournalMedia::new();
        let journal = Journal::create(&media, config);
        let hook = Uuid::from_name("journal", "hook");
        for i in 0..4u8 {
            assert!(journal.commit(&commit(hook, i, u32::from(i), i64::from(i) + 10).record()));
        }
        (media, hook)
    }

    #[test]
    fn round_trips_commits_deploys_and_bare_writes() {
        let media = JournalMedia::new();
        let journal = Journal::create(&media, DurabilityConfig::default());
        let hook = Uuid::from_name("journal", "rt");
        assert!(journal.commit(&commit(hook, 1, 5, 55).record()));
        assert!(journal.bare_kv(&KvWrite {
            scope: Scope::Tenant,
            container: 0,
            tenant: 3,
            key: 9,
            value: -1,
        }));
        let deploy = DeployRecord {
            tenant: 3,
            uri: "app-v1".into(),
            payload: vec![1, 2, 3, 4],
            token: Some(vec![9, 9]),
            report: DeployReport {
                container: 7,
                component: hook,
                shard: 1,
                sequence: 4,
                attached: true,
                replaced: None,
            },
        };
        assert!(journal.commit_deploy(&deploy));
        assert_eq!(journal.ops().appends, 3);

        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(state.kv.len(), 2);
        assert!(state.kv.contains(&KvWrite {
            scope: Scope::Global,
            container: 0,
            tenant: 0,
            key: 5,
            value: 55,
        }));
        assert_eq!(state.deploys, vec![deploy.clone()]);
        assert_eq!(state.deploy_replies, vec![(vec![9, 9], deploy.report)]);
        assert_eq!(state.seeds.dispatched, 1);
        assert_eq!(state.seeds.deploys, 1);
        assert_eq!(state.seeds.hooks, vec![(hook, 1)]);
        assert_eq!(state.seeds.tenants, vec![(1, 1, 7)]);
        assert_eq!(state.exchanges.len(), 1);
        assert_eq!(state.exchanges[0].token, vec![1]);
        assert_eq!(state.exchanges[0].outcomes[0].1, Ok(report(55)));
    }

    #[test]
    fn evacuation_forgets_a_component_durably() {
        let media = JournalMedia::new();
        let journal = Journal::create(&media, DurabilityConfig::default());
        let component = Uuid::from_name("journal", "evac");
        let deploy = DeployRecord {
            tenant: 1,
            uri: "x".into(),
            payload: vec![0],
            token: None,
            report: DeployReport {
                container: 1,
                component,
                shard: 0,
                sequence: 1,
                attached: true,
                replaced: None,
            },
        };
        journal.commit_deploy(&deploy);
        journal.forget(component);
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert!(state.deploys.is_empty(), "evacuated component not replayed");
        assert_eq!(state.seeds.deploys, 1, "accepted count stays monotone");
    }

    // ------------------------------------------ corruption matrix

    #[test]
    fn truncated_tail_recovers_to_last_durable_prefix() {
        let (media, hook) = filled_journal(DurabilityConfig::default());
        let full = media.journal_len();
        // Sever the last record mid-body: exactly the shape a torn
        // append leaves behind.
        media.corrupt_active(|bytes| bytes.truncate(full - 10));
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(state.seeds.dispatched, 3, "prefix survives, tail dropped");
        assert_eq!(state.seeds.hooks, vec![(hook, 3)]);
        assert_eq!(state.kv.len(), 3);
    }

    #[test]
    fn flipped_crc_byte_fails_closed_with_offset() {
        let (media, _) = filled_journal(DurabilityConfig::default());
        // Flip one CRC byte of the second record (a *complete* record:
        // this is corruption, not a torn tail).
        let mut second = 0;
        media.corrupt_active(|bytes| {
            let first_len =
                u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
            second = HEADER_LEN + 8 + first_len;
            bytes[second + 4] ^= 0xFF;
        });
        let err = Journal::recover(&media, DurabilityConfig::default()).unwrap_err();
        assert_eq!(err, JournalError::Corrupt { offset: second });
    }

    #[test]
    fn duplicated_record_replays_exactly_once() {
        let (media, hook) = filled_journal(DurabilityConfig::default());
        // Byte-duplicate the final framed record, as a replayed write
        // by a confused medium would.
        media.corrupt_active(|bytes| {
            let mut pos = HEADER_LEN;
            let mut last = pos;
            while pos < bytes.len() {
                last = pos;
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 8 + len;
            }
            let dup = bytes[last..].to_vec();
            bytes.extend_from_slice(&dup);
        });
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(state.seeds.dispatched, 4, "duplicate not double-counted");
        assert_eq!(state.seeds.hooks, vec![(hook, 4)]);
        assert_eq!(
            state
                .exchanges
                .iter()
                .map(|e| e.outcomes.len())
                .sum::<usize>(),
            4,
            "duplicate outcome not double-registered"
        );
    }

    #[test]
    fn zero_length_file_recovers_fresh() {
        let (media, _) = filled_journal(DurabilityConfig::default());
        media.corrupt_active(Vec::clear);
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(
            state,
            RecoveredState::default(),
            "blank device = fresh node"
        );
    }

    #[test]
    fn garbage_header_fails_closed() {
        let (media, _) = filled_journal(DurabilityConfig::default());
        media.corrupt_active(|bytes| bytes[0] = b'X');
        assert_eq!(
            Journal::recover(&media, DurabilityConfig::default()).unwrap_err(),
            JournalError::BadHeader
        );
    }

    // ------------------------------------------------------- crc32

    /// The bytewise table CRC the journal shipped with first: the
    /// oracle slicing-by-8 must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn slicing_crc_matches_bytewise_oracle_at_every_length_and_offset() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "IEEE check value");
        assert_eq!(crc32(b""), 0);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    // ------------------------------------------------- format pin

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Pins the on-media bytes: a commit, a bare kv write, two
    /// deploys, a forget and an error commit, the last of which trips
    /// a snapshot fold. The expected slots were written by the
    /// bytewise-CRC journal that re-read its slot to fold, so images
    /// written before the fast path restore unchanged.
    #[test]
    fn slot_bytes_match_the_pinned_format() {
        let config = DurabilityConfig {
            enabled: true,
            snapshot_threshold: 6,
            retain_exchanges: 128,
        };
        let media = JournalMedia::new();
        let journal = Journal::create(&media, config);
        let hook = Uuid::from_name("journal", "golden-hook");
        let app_a = Uuid::from_name("journal", "golden-a");
        let app_b = Uuid::from_name("journal", "golden-b");
        let report = HookReport {
            executions: vec![fc_core::engine::ExecutionReport {
                container: 4,
                result: Ok(9),
                counts: fc_rbpf::vm::OpCounts {
                    alu64: 5,
                    load: 2,
                    store: 1,
                    exit: 1,
                    ..Default::default()
                },
                vm_cycles: 90,
                helper_cycles: 30,
                ctx_back: vec![1, 2, 3],
                regions_back: vec![("kv".into(), vec![7, 7])],
            }],
            combined: Some(9),
            cycles: 120,
        };
        let batch = |index| DurableTag {
            token: vec![0xA1, 0xB2],
            kind: TagKind::Batch,
            index,
            total: 2,
        };
        let (first, second) = (batch(0), batch(1));
        let writes = [
            KvWrite {
                scope: Scope::Global,
                container: 0,
                tenant: 0,
                key: 7,
                value: 42,
            },
            KvWrite {
                scope: Scope::Local,
                container: 4,
                tenant: 0,
                key: 1,
                value: -3,
            },
        ];
        assert!(journal.commit(&CommitRecord {
            hook,
            tag: Some(&first),
            latency_ns: 1_500,
            insns: 9,
            faults: 0,
            charges: &[(3, 9)],
            writes: &writes,
            outcome: Ok(&report),
        }));
        assert!(journal.bare_kv(&KvWrite {
            scope: Scope::Tenant,
            container: 0,
            tenant: 3,
            key: 2,
            value: 1_000_000,
        }));
        let deploy = |component: Uuid, container: u32, token: Option<Vec<u8>>| DeployRecord {
            tenant: 3,
            uri: "coaps://golden/app".into(),
            payload: vec![0xDE, 0xAD, 0xBE, 0xEF, container as u8],
            token,
            report: DeployReport {
                container,
                component,
                shard: 1,
                sequence: 2,
                attached: true,
                replaced: None,
            },
        };
        assert!(journal.commit_deploy(&deploy(app_a, 10, Some(vec![0x55]))));
        assert!(journal.commit_deploy(&deploy(app_b, 11, None)));
        assert!(journal.forget(app_a));
        let rejected = NodeError::Rejected("no such hook".into());
        assert!(journal.commit(&CommitRecord {
            hook,
            tag: Some(&second),
            latency_ns: 70_000,
            insns: 0,
            faults: 1,
            charges: &[],
            writes: &[],
            outcome: Err(&rejected),
        }));
        assert_eq!(journal.ops().folds, 1);
        let journal_slot = concat!(
            "46434a3101190100003fc260e6017f0dd44e530255eeadb9caf140a5bec30102",
            "000000a1b2010000000002000000dc0500000000000009000000000000000000",
            "0000000000000100000003000000090000000000000002000000010000000000",
            "000000070000002a0000000000000000040000000000000001000000fdffffff",
            "ffffffff00010900000000000000780000000000000001000000040000000009",
            "0000000000000000000000000000000500000000000000000000000000000000",
            "0000000000000002000000000000000100000000000000000000000000000000",
            "000000000000000000000000000000000000000000000001000000000000005a",
            "000000000000001e000000000000000300000001020301000000020000006b76",
            "02000000070716000000184711ac020200000000030000000200000040420f00",
            "0000000050000000264a24e2030300000012000000636f6170733a2f2f676f6c",
            "64656e2f61707005000000deadbeef0a0101000000550a0000009969aabb03a6",
            "5fcd84d2f13e1c5890500100000000000000020000000000000001004b000000",
            "6fe3bea6030300000012000000636f6170733a2f2f676f6c64656e2f61707005",
            "000000deadbeef0b000b000000a94e868bcb1259f196df8cdde7e3b874010000",
            "0000000000020000000000000001001100000087e18913049969aabb03a65fcd",
            "84d2f13e1c58905053000000911de5c9017f0dd44e530255eeadb9caf140a5be",
            "c30102000000a1b2010100000002000000701101000000000000000000000000",
            "000100000000000000000000000000000001020c0000006e6f20737563682068",
            "6f6f6b",
        );
        let snapshot_slot = concat!(
            "46434a31010f020000feb0cedf050300000000040000000000000001000000fd",
            "ffffffffffffff010000000000000000070000002a0000000000000002000000",
            "00030000000200000040420f0000000000010000000300000012000000636f61",
            "70733a2f2f676f6c64656e2f61707005000000deadbeef0b000b000000a94e86",
            "8bcb1259f196df8cdde7e3b87401000000000000000200000000000000010001",
            "00000002000000a1b27f0dd44e530255eeadb9caf140a5bec301020000000200",
            "0000000000000001090000000000000078000000000000000100000004000000",
            "0009000000000000000000000000000000050000000000000000000000000000",
            "0000000000000000000200000000000000010000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000001000000000000",
            "005a000000000000001e00000000000000030000000102030100000002000000",
            "6b760200000007070100000001020c0000006e6f207375636820686f6f6b0100",
            "000001000000550a0000009969aabb03a65fcd84d2f13e1c5890500100000000",
            "0000000200000000000000010002000000000000000200000000000000010000",
            "000000000009000000000000000200000000000000020a010000000000000010",
            "0100000000000000010000007f0dd44e530255eeadb9caf140a5bec302000000",
            "00000000010000000300000001000000000000000900000000000000",
        );
        let m = media.lock();
        assert_eq!(m.active, 1, "the fold flipped to slot 1");
        assert_eq!(hex(&m.slots[0]), journal_slot, "record format drifted");
        assert_eq!(hex(&m.slots[1]), snapshot_slot, "snapshot format drifted");
    }

    // ------------------------------------------- running fold

    /// The running fold must always equal a recovery of the active
    /// slot: this is what lets a snapshot fold skip re-reading it.
    fn assert_running_matches_slot(journal: &Journal, media: &JournalMedia, step: usize) {
        let running = journal
            .running_state()
            .expect("folding keeps a running fold");
        let recovered = {
            let m = media.lock();
            recover_bytes(&m.slots[m.active]).expect("own slot recovers")
        };
        assert_eq!(running, recovered.finish(), "step {step}");
    }

    #[test]
    fn running_fold_equals_slot_recovery_after_every_append() {
        let config = DurabilityConfig {
            enabled: true,
            snapshot_threshold: 7,
            retain_exchanges: 3,
        };
        let media = JournalMedia::new();
        let mut journal = Journal::create(&media, config);
        let hook = Uuid::from_name("journal", "running");
        let components: Vec<Uuid> = (0..3)
            .map(|i| Uuid::from_name("journal", &format!("running-{i}")))
            .collect();
        let mut folds = 0;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let write = |next: &mut dyn FnMut(u64) -> u64| KvWrite {
            scope: [Scope::Local, Scope::Global, Scope::Tenant][next(3) as usize],
            container: next(3) as u32,
            tenant: next(3) as u32,
            key: next(5) as u32,
            value: next(1000) as i64 - 500,
        };
        for step in 0..300 {
            if step % 23 == 22 {
                // Continue on a recovered journal now and then: its
                // running fold is seeded by recovery, not by appends.
                folds += journal.ops().folds;
                drop(journal);
                let (recovered, _state) = Journal::recover(&media, config).unwrap();
                recovered.arm();
                journal = recovered;
            }
            let alive = match next(6) {
                kind @ 0..=2 => {
                    // 0: untagged, 1: tagged batch slot (a small token
                    // and index space forces duplicates), 2: error.
                    let tag = (kind == 1 || next(2) == 0).then(|| DurableTag {
                        token: vec![next(5) as u8],
                        kind: TagKind::Batch,
                        index: next(3) as u32,
                        total: 3,
                    });
                    let writes: Vec<KvWrite> = (0..next(3)).map(|_| write(&mut next)).collect();
                    let charges: Vec<(TenantId, u64)> =
                        (0..next(3)).map(|_| (next(4) as u32, next(50))).collect();
                    let report = HookReport {
                        executions: Vec::new(),
                        combined: Some(next(100)),
                        cycles: next(1000),
                    };
                    let error = NodeError::Rejected(format!("fault {}", next(9)));
                    journal.commit(&CommitRecord {
                        hook,
                        tag: tag.as_ref(),
                        latency_ns: next(1_000_000),
                        insns: next(500),
                        faults: u64::from(kind == 2),
                        charges: &charges,
                        writes: &writes,
                        outcome: if kind == 2 { Err(&error) } else { Ok(&report) },
                    })
                }
                3 => journal.bare_kv(&write(&mut next)),
                4 => {
                    // Small component/sequence space: duplicates recur.
                    let component = components[next(3) as usize];
                    journal.commit_deploy(&DeployRecord {
                        tenant: next(4) as u32,
                        uri: format!("app-{}", next(9)),
                        payload: vec![next(256) as u8; next(8) as usize],
                        token: (next(2) == 0).then(|| vec![0xD0, next(6) as u8]),
                        report: DeployReport {
                            container: next(20) as u32,
                            component,
                            shard: next(2) as usize,
                            sequence: next(4),
                            attached: true,
                            replaced: None,
                        },
                    })
                }
                _ => journal.forget(components[next(3) as usize]),
            };
            assert!(alive, "no crash plan armed");
            assert_running_matches_slot(&journal, &media, step);
        }
        folds += journal.ops().folds;
        assert!(folds >= 30, "folds fired often: {folds}");

        let unfolded = Journal::create(
            &JournalMedia::new(),
            DurabilityConfig {
                snapshot_threshold: 0,
                ..config
            },
        );
        assert!(unfolded.commit(&commit(hook, 0, 0, 1).record()));
        assert_eq!(unfolded.running_state(), None, "no fold, no running fold");
    }

    // ------------------------------------------------ snapshot fold

    #[test]
    fn fold_collapses_the_journal_and_preserves_state() {
        let config = DurabilityConfig {
            snapshot_threshold: 3,
            ..DurabilityConfig::default()
        };
        let media = JournalMedia::new();
        let journal = Journal::create(&media, config);
        let hook = Uuid::from_name("journal", "fold");
        for i in 0..10u8 {
            journal.commit(&commit(hook, i, u32::from(i % 2), i64::from(i)).record());
        }
        assert!(journal.ops().folds >= 2, "threshold 3 folds repeatedly");
        let (_j, state) = Journal::recover(&media, config).unwrap();
        assert_eq!(state.seeds.dispatched, 10);
        assert_eq!(state.seeds.hooks, vec![(hook, 10)]);
        // kv folded to final absolute values.
        assert_eq!(state.kv.len(), 2);
        let last_even = state.kv.iter().find(|w| w.key == 0).unwrap();
        assert_eq!(last_even.value, 8);
        // All ten tagged exchanges retained (cap is 128).
        assert_eq!(state.exchanges.len(), 10);
    }

    #[test]
    fn fold_caps_retained_exchanges() {
        let config = DurabilityConfig {
            snapshot_threshold: 4,
            retain_exchanges: 2,
            ..DurabilityConfig::default()
        };
        let media = JournalMedia::new();
        let journal = Journal::create(&media, config);
        let hook = Uuid::from_name("journal", "cap");
        for i in 0..8u8 {
            journal.commit(&commit(hook, i, 0, i64::from(i)).record());
        }
        let (_j, state) = Journal::recover(&media, config).unwrap();
        assert!(state.exchanges.len() <= 2 + 3, "old exchanges fell out");
        assert_eq!(state.seeds.dispatched, 8, "seeds keep the full count");
    }

    // ---------------------------------------------- crash injection

    #[test]
    fn pre_commit_crash_loses_the_record_and_kills_the_node() {
        let (media, hook) = {
            let media = JournalMedia::new();
            let journal = Journal::create(&media, DurabilityConfig::default());
            let hook = Uuid::from_name("journal", "pre");
            journal.commit(&commit(hook, 0, 0, 1).record());
            media.set_crash_plan(CrashPlan {
                point: CrashPoint::PreCommit,
                after: 0,
            });
            assert!(
                !journal.commit(&commit(hook, 1, 1, 2).record()),
                "node died"
            );
            assert!(!journal.alive());
            assert!(
                !journal.commit(&commit(hook, 2, 2, 3).record()),
                "dead node stays dead"
            );
            (media, hook)
        };
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(state.seeds.dispatched, 1, "uncommitted event invisible");
        assert_eq!(state.seeds.hooks, vec![(hook, 1)]);
    }

    #[test]
    fn torn_record_crash_recovers_to_durable_prefix() {
        let media = JournalMedia::new();
        let journal = Journal::create(&media, DurabilityConfig::default());
        let hook = Uuid::from_name("journal", "torn");
        journal.commit(&commit(hook, 0, 0, 1).record());
        media.set_crash_plan(CrashPlan {
            point: CrashPoint::TornRecord,
            after: 0,
        });
        assert!(!journal.commit(&commit(hook, 1, 1, 2).record()));
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(state.seeds.dispatched, 1, "torn record tolerated");
        assert_eq!(state.kv.len(), 1);
    }

    #[test]
    fn post_commit_crash_keeps_the_record_but_silences_the_reply() {
        let media = JournalMedia::new();
        let journal = Journal::create(&media, DurabilityConfig::default());
        let hook = Uuid::from_name("journal", "post");
        media.set_crash_plan(CrashPlan {
            point: CrashPoint::PostCommitPreReply,
            after: 1,
        });
        assert!(
            journal.commit(&commit(hook, 0, 0, 1).record()),
            "first one passes"
        );
        assert!(
            !journal.commit(&commit(hook, 1, 1, 2).record()),
            "no reply leaves"
        );
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(state.seeds.dispatched, 2, "the commit itself is durable");
        assert_eq!(
            state
                .exchanges
                .iter()
                .find(|e| e.token == vec![1])
                .map(|e| e.outcomes.len()),
            Some(1),
            "retransmission will answer from the journal"
        );
    }

    #[test]
    fn mid_snapshot_crash_never_loses_the_pre_fold_journal() {
        let config = DurabilityConfig {
            snapshot_threshold: 4,
            ..DurabilityConfig::default()
        };
        let media = JournalMedia::new();
        let journal = Journal::create(&media, config);
        let hook = Uuid::from_name("journal", "mid");
        media.set_crash_plan(CrashPlan {
            point: CrashPoint::MidSnapshot,
            after: 0,
        });
        let mut alive = true;
        for i in 0..6u8 {
            alive = journal.commit(&commit(hook, i, u32::from(i), i64::from(i)).record());
            if !alive {
                break;
            }
        }
        assert!(!alive, "the fold crash killed the node");
        assert_eq!(journal.ops().folds, 0, "no fold completed");
        let (_j, state) = Journal::recover(&media, config).unwrap();
        assert_eq!(
            state.seeds.dispatched, 4,
            "every record up to and including the fold trigger survives"
        );
    }

    #[test]
    fn capture_brackets_writes_per_event() {
        begin_capture();
        let media = JournalMedia::new();
        let journal = Journal::create(&media, DurabilityConfig::default());
        let sink = CaptureSink::new(Arc::clone(&journal));
        sink.on_store(1, 2, Scope::Local, 3, 4);
        let captured = take_capture();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].container, 1);
        assert_eq!(
            journal.ops().appends,
            0,
            "captured writes not yet journaled"
        );
        // Outside a capture the sink journals immediately.
        sink.on_store(0, 0, Scope::Global, 7, 8);
        assert_eq!(journal.ops().appends, 1);
        assert!(take_capture().is_empty());
    }

    #[test]
    fn quiet_journal_ignores_appends_until_armed() {
        let media = JournalMedia::new();
        let journal = Journal::create(&media, DurabilityConfig::default());
        let hook = Uuid::from_name("journal", "quiet");
        journal.commit(&commit(hook, 0, 0, 1).record());
        let (recovered, _state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert!(
            recovered.commit(&commit(hook, 9, 9, 9).record()),
            "quiet = no-op"
        );
        assert_eq!(recovered.ops().appends, 0);
        recovered.arm();
        recovered.commit(&commit(hook, 1, 1, 2).record());
        assert_eq!(recovered.ops().appends, 1);
        let (_j, state) = Journal::recover(&media, DurabilityConfig::default()).unwrap();
        assert_eq!(state.seeds.dispatched, 2);
    }
}
