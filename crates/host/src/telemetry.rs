//! Runtime observability plane and the host's single dispatch ledger:
//! a lock-free [`MetricsRegistry`] the hot paths record into, a
//! bounded [`TraceRing`] of virtual-clock stamped events for
//! post-mortems, and a [`MetricsSnapshot`] with a lossless binary
//! encoding that fleets scrape over the wire and merge (histogram add,
//! counter sum, gauge max) into one view.
//!
//! The registry's per-worker lanes are the **only** record of what the
//! shards executed: dispatched events, faults, instructions, busy
//! time, simulated cycles, the latency histogram, per-hook dispatches
//! and cycles, per-tenant executions and instructions. Every other
//! accounting surface — [`crate::ShardReport`], the rebalancer's
//! window, `NodeStats`, `/metrics` — is a read over those lanes.
//!
//! Design constraints, in force on every API here:
//!
//! - **Zero allocation and no new locks on the dispatch path.** All
//!   registry storage (keyed slot tables, shard lanes, the trace ring)
//!   is preallocated at construction. The dispatch-path tables are
//!   striped into one private lane per shard worker, so recording is
//!   an open-addressed probe plus plain relaxed load+store bumps — no
//!   locked read-modify-writes and no cacheline shared between
//!   workers; the snapshot path merges lanes exactly as the fleet
//!   tier merges nodes. Slot claiming uses a CAS state-machine, never
//!   a mutex.
//! - **Determinism.** Recording only *reads* the virtual clock and
//!   touches telemetry-private atomics, so per-event reports and
//!   virtual timestamps are bit-identical with telemetry on or off
//!   (pinned by the differential suites).
//! - **Bounded memory.** The keyed tables (per lane: 256 hook rows and
//!   128 tenant rows) and the trace ring have fixed capacities;
//!   overflow is counted in [`CounterId::KeyedOverflow`], never
//!   allocated around. A lane's shard totals do not depend on the
//!   tables, so an overflow loses only that key's row.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use fc_kvstore::TenantId;
use fc_suit::Uuid;

use crate::journal::CounterSeeds;
use crate::shard::ShardReport;

/// Open-addressed slots for per-hook ledger rows in each lane (power
/// of two). A hook dispatched on a lane whose table is full keeps
/// counting in the lane totals but gets no row there.
const HOOK_TABLE: usize = 256;
/// Open-addressed slots for per-tenant ledger rows in each lane (power
/// of two), with the same overflow rule as [`HOOK_TABLE`].
const TENANT_TABLE: usize = 128;

/// Tuning knobs for a host's telemetry plane, carried inside
/// [`crate::HostConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Switch for the observability extras. The dispatch ledger in the
    /// per-worker lanes (counters, the overall latency histogram,
    /// per-hook and per-tenant rows) is always kept — it is the host's
    /// only accounting. When `false`, the per-key latency histograms,
    /// the per-hook shed table and the trace ring record nothing and
    /// allocate no storage.
    pub enabled: bool,
    /// Trace ring capacity in events; the ring overwrites its oldest
    /// entry once full and counts what it dropped.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            trace_capacity: 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Number of power-of-two latency buckets (covers 1 ns … ~584 years).
pub(crate) const BUCKETS: usize = 64;

/// The one bucket rule every histogram here uses: bucket `i` covers
/// `[2^i, 2^(i+1))` ns (0 ns lands in bucket 0).
pub(crate) fn bucket_of(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros()) as usize
}

/// Interpolated quantile over a frozen bucket array (shared by
/// [`LatencyHistogram`] and [`HistogramSnapshot`]). The returned value
/// places the requested rank linearly within its bucket instead of
/// reporting the bucket upper bound, which overstated p50/p99 by up to
/// 2x at coarse buckets.
fn quantile_from_buckets(buckets: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        if seen + b >= rank {
            let lo = 1u64 << i;
            let hi = 1u64 << (i + 1).min(63);
            let within = (rank - seen) as f64 / b as f64;
            return lo + (within * (hi - lo) as f64).round() as u64;
        }
        seen += b;
    }
    u64::MAX
}

/// A lock-free histogram over power-of-two nanosecond buckets, precise
/// enough for p50/p99 dispatch-latency reporting without allocating or
/// locking on the record path.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([(); BUCKETS].map(|_| AtomicU64::new(0))),
        }
    }

    /// Records one latency sample.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one latency sample into a histogram with a single
    /// writer: a plain load+store bump instead of a locked
    /// read-modify-write. Callers must guarantee no concurrent
    /// `record` on the same histogram — concurrent *readers* are fine
    /// and observe each sample exactly once or not yet.
    pub fn record_single_writer(&self, ns: u64) {
        bump(&self.buckets[bucket_of(ns)], 1);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Freezes the bucket counts into a plain array (one relaxed load
    /// per bucket; a racing `record` may or may not be included).
    pub fn load(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// The `q`-quantile (`q` in `0.0..=1.0`) in nanoseconds, linearly
    /// interpolated within the power-of-two bucket that contains the
    /// requested rank; `0` when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.load(), q)
    }

    /// Adds every bucket of `other` into `self`. Quantiles of the
    /// merged histogram are exactly those of the concatenated sample
    /// streams (bucketing loses no cross-histogram information).
    pub fn merge(&self, other: &LatencyHistogram) {
        self.absorb(&other.load());
    }

    /// Adds a frozen bucket array into `self` — how a restored node
    /// seeds its histogram from journal-recovered counter state.
    pub fn absorb(&self, buckets: &[u64; BUCKETS]) {
        for (dst, &n) in self.buckets.iter().zip(buckets.iter()) {
            if n != 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

/// What a [`TraceEvent`] describes. The `a`/`b` payload words are
/// kind-specific (documented per variant); hook identities are carried
/// as the low 8 bytes of the hook `Uuid`, little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Event accepted into a hook queue. `a` = hook id (low 8 bytes),
    /// `b` = destination shard.
    Enqueue = 0,
    /// Event shed by backpressure. `a` = hook id, `b` = number shed.
    Shed = 1,
    /// A shard worker drained a batch. `a` = shard, `b` = batch size.
    Drain = 2,
    /// One event finished VM execution. `a` = hook id, `b` =
    /// instructions retired.
    Exec = 3,
    /// A reply was handed back to the caller. `a` = hook id, `b` =
    /// executions in the report.
    Reply = 4,
    /// Hook registered or unregistered. `a` = hook id, `b` = 1 for
    /// register, 0 for unregister.
    Lifecycle = 5,
    /// Hook migrated between shards. `a` = hook id, `b` = packed
    /// `from << 32 | to` shard pair.
    Migrate = 6,
    /// Live deploy landed through the control lane. `a` = component id
    /// (low 8 bytes), `b` = manifest sequence number.
    Deploy = 7,
    /// Deploy refused by per-tenant rate limiting. `a` = tenant,
    /// `b` = 0.
    DeployRateLimited = 8,
    /// Rebalancer planned a migration. `a` = hook id, `b` = packed
    /// `from << 32 | to` shard pair.
    Rebalance = 9,
    /// Transport retransmitted a request. `a` = exchange token, `b` =
    /// attempt number.
    Retransmit = 10,
}

impl TraceKind {
    fn from_u8(v: u64) -> Option<TraceKind> {
        Some(match v {
            0 => TraceKind::Enqueue,
            1 => TraceKind::Shed,
            2 => TraceKind::Drain,
            3 => TraceKind::Exec,
            4 => TraceKind::Reply,
            5 => TraceKind::Lifecycle,
            6 => TraceKind::Migrate,
            7 => TraceKind::Deploy,
            8 => TraceKind::DeployRateLimited,
            9 => TraceKind::Rebalance,
            10 => TraceKind::Retransmit,
            _ => return None,
        })
    }

    /// Stable lower-case name used by the `/trace` text rendering.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Enqueue => "enqueue",
            TraceKind::Shed => "shed",
            TraceKind::Drain => "drain",
            TraceKind::Exec => "exec",
            TraceKind::Reply => "reply",
            TraceKind::Lifecycle => "lifecycle",
            TraceKind::Migrate => "migrate",
            TraceKind::Deploy => "deploy",
            TraceKind::DeployRateLimited => "deploy_rate_limited",
            TraceKind::Rebalance => "rebalance",
            TraceKind::Retransmit => "retransmit",
        }
    }
}

/// One decoded entry from the [`TraceRing`], stamped with the virtual
/// clock at record time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp (µs) when the event was recorded.
    pub at_us: u64,
    /// Event kind; fixes the meaning of `a` and `b`.
    pub kind: TraceKind,
    /// First kind-specific payload word (see [`TraceKind`]).
    pub a: u64,
    /// Second kind-specific payload word (see [`TraceKind`]).
    pub b: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TraceKind::Enqueue => write!(
                f,
                "t={}us enqueue hook={:#018x} shard={}",
                self.at_us, self.a, self.b
            ),
            TraceKind::Shed => write!(
                f,
                "t={}us shed hook={:#018x} n={}",
                self.at_us, self.a, self.b
            ),
            TraceKind::Drain => write!(
                f,
                "t={}us drain shard={} batch={}",
                self.at_us, self.a, self.b
            ),
            TraceKind::Exec => write!(
                f,
                "t={}us exec hook={:#018x} insns={}",
                self.at_us, self.a, self.b
            ),
            TraceKind::Reply => write!(
                f,
                "t={}us reply hook={:#018x} executions={}",
                self.at_us, self.a, self.b
            ),
            TraceKind::Lifecycle => write!(
                f,
                "t={}us lifecycle hook={:#018x} {}",
                self.at_us,
                self.a,
                if self.b == 1 {
                    "register"
                } else {
                    "unregister"
                }
            ),
            TraceKind::Migrate | TraceKind::Rebalance => write!(
                f,
                "t={}us {} hook={:#018x} {}→{}",
                self.at_us,
                self.kind.name(),
                self.a,
                self.b >> 32,
                self.b & 0xffff_ffff
            ),
            TraceKind::Deploy => write!(
                f,
                "t={}us deploy component={:#018x} seq={}",
                self.at_us, self.a, self.b
            ),
            TraceKind::DeployRateLimited => {
                write!(
                    f,
                    "t={}us deploy_rate_limited tenant={}",
                    self.at_us, self.a
                )
            }
            TraceKind::Retransmit => write!(
                f,
                "t={}us retransmit token={:#x} attempt={}",
                self.at_us, self.a, self.b
            ),
        }
    }
}

struct TraceSlot {
    at_us: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A bounded, lock-free ring buffer of [`TraceEvent`]s. Writers claim
/// a slot with one `fetch_add` and store four words; once the ring
/// wraps, the oldest entries are overwritten (and counted as dropped).
/// Dumps are best-effort under concurrent writes — a reader racing the
/// writer on a wrapping slot can observe a torn entry, which is
/// acceptable for a post-mortem buffer and free on the record path.
pub struct TraceRing {
    slots: Box<[TraceSlot]>,
    cursor: AtomicU64,
}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` events, rounded up to
    /// the next power of two so the hot-path slot index is a mask
    /// rather than a division (0 disables the ring).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity.checked_next_power_of_two().unwrap_or(capacity))
                .map(|_| TraceSlot {
                    at_us: AtomicU64::new(0),
                    kind: AtomicU64::new(u64::MAX),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Records one event; a no-op on a zero-capacity ring.
    pub fn record(&self, at_us: u64, kind: TraceKind, a: u64, b: u64) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & (self.slots.len() as u64 - 1)) as usize];
        slot.at_us.store(at_us, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Dumps the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let total = self.recorded();
        let cap = self.slots.len() as u64;
        if cap == 0 {
            return Vec::new();
        }
        let count = total.min(cap);
        let start = total - count;
        (start..total)
            .filter_map(|seq| {
                let slot = &self.slots[(seq % cap) as usize];
                let kind = TraceKind::from_u8(slot.kind.load(Ordering::Acquire))?;
                Some(TraceEvent {
                    at_us: slot.at_us.load(Ordering::Relaxed),
                    kind,
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Keyed slot tables
// ---------------------------------------------------------------------------

const SLOT_EMPTY: u64 = 0;
const SLOT_CLAIMED: u64 = 1;
const SLOT_READY: u64 = 2;

struct KeySlot {
    state: AtomicU64,
    k0: AtomicU64,
    k1: AtomicU64,
    /// Primary count: dispatched events (hooks) / executions (tenants).
    events: AtomicU64,
    /// Secondary count: simulated cycles (lane hook rows) / retired
    /// insns (tenants) / shed events (the shared shed table).
    extra: AtomicU64,
    /// Per-key latency — one of the telemetry extras, absent when the
    /// registry is disabled.
    latency: Option<LatencyHistogram>,
}

/// Fixed-capacity open-addressed table mapping a 128-bit key to a
/// preallocated metrics slot. Lookup and first-touch insertion are
/// lock-free (CAS claim, linear probe); a full table counts the miss
/// in `overflow` instead of allocating.
struct KeyTable {
    slots: Box<[KeySlot]>,
    overflow: AtomicU64,
}

impl KeyTable {
    fn new(capacity: usize, with_latency: bool) -> Self {
        debug_assert!(capacity.is_power_of_two());
        KeyTable {
            slots: (0..capacity)
                .map(|_| KeySlot {
                    state: AtomicU64::new(SLOT_EMPTY),
                    k0: AtomicU64::new(0),
                    k1: AtomicU64::new(0),
                    events: AtomicU64::new(0),
                    extra: AtomicU64::new(0),
                    latency: with_latency.then(LatencyHistogram::new),
                })
                .collect(),
            overflow: AtomicU64::new(0),
        }
    }

    /// The slot holding `(k0, k1)`, claimed on first touch.
    fn slot(&self, k0: u64, k1: u64) -> Option<&KeySlot> {
        self.probe(k0, k1, true)
    }

    /// The slot holding `(k0, k1)` if the key was ever recorded; never
    /// claims and never counts an overflow.
    fn find(&self, k0: u64, k1: u64) -> Option<&KeySlot> {
        self.probe(k0, k1, false)
    }

    fn probe(&self, k0: u64, k1: u64, claim: bool) -> Option<&KeySlot> {
        let mask = self.slots.len() - 1;
        let mut idx = ((k0 ^ k1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        for _ in 0..self.slots.len() {
            let s = &self.slots[idx];
            loop {
                match s.state.load(Ordering::Acquire) {
                    SLOT_READY => {
                        if s.k0.load(Ordering::Relaxed) == k0 && s.k1.load(Ordering::Relaxed) == k1
                        {
                            return Some(s);
                        }
                        break; // other key lives here → next slot
                    }
                    SLOT_EMPTY if !claim => return None,
                    SLOT_EMPTY => {
                        if s.state
                            .compare_exchange(
                                SLOT_EMPTY,
                                SLOT_CLAIMED,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            s.k0.store(k0, Ordering::Relaxed);
                            s.k1.store(k1, Ordering::Relaxed);
                            s.state.store(SLOT_READY, Ordering::Release);
                            return Some(s);
                        }
                        // Lost the claim race; re-read this slot — the
                        // winner may be inserting our key.
                    }
                    _ => std::hint::spin_loop(), // mid-claim: settles in 3 stores
                }
            }
            idx = (idx + 1) & mask;
        }
        if claim {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    fn for_each_ready(&self, mut f: impl FnMut(u64, u64, &KeySlot)) {
        for s in self.slots.iter() {
            if s.state.load(Ordering::Acquire) == SLOT_READY {
                f(
                    s.k0.load(Ordering::Relaxed),
                    s.k1.load(Ordering::Relaxed),
                    s,
                );
            }
        }
    }
}

fn uuid_key(id: &Uuid) -> (u64, u64) {
    let b = &id.0;
    (
        u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
    )
}

fn uuid_from_key(k0: u64, k1: u64) -> Uuid {
    let mut b = [0u8; 16];
    b[0..8].copy_from_slice(&k0.to_le_bytes());
    b[8..16].copy_from_slice(&k1.to_le_bytes());
    Uuid(b)
}

fn tenant_key(tenant: TenantId) -> (u64, u64) {
    (u64::from(tenant), u64::MAX)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One shard worker's private ledger lane. Exactly one worker ever
/// writes a lane, which is what lets every hot-path update be a plain
/// relaxed load+store bump instead of a locked read-modify-write; the
/// snapshot path merges lanes the same way the fleet tier merges
/// per-node snapshots. Cache-line aligned so neighbouring workers'
/// totals never share a line.
#[repr(align(128))]
struct Lane {
    dispatched: AtomicU64,
    faults: AtomicU64,
    insns: AtomicU64,
    busy_ns: AtomicU64,
    sim_cycles: AtomicU64,
    latency: LatencyHistogram,
    /// Hook rows: `events` = dispatched, `extra` = simulated cycles.
    hooks: KeyTable,
    /// Tenant rows: `events` = executions, `extra` = retired insns.
    tenants: KeyTable,
}

/// Single-writer bump: a plain relaxed load+store, valid only where
/// exactly one thread writes the cell (the per-lane invariant).
/// Concurrent readers observe each increment exactly once or not yet.
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// What one completed event costs, as its shard worker records it
/// with [`MetricsRegistry::record_dispatch`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DispatchRecord {
    /// Enqueue→completion latency in nanoseconds.
    pub latency_ns: u64,
    /// Wall-clock nanoseconds the worker spent executing the event.
    pub busy_ns: u64,
    /// VM instructions retired.
    pub insns: u64,
    /// Container executions that faulted.
    pub faults: u64,
    /// Simulated platform cycles ([`fc_core::engine::HookReport::cycles`]).
    pub cycles: u64,
}

/// Counters bumped by producer threads (fires, lifecycle, deploys)
/// rather than by shard workers; they share one atomic home in the
/// registry. Everything the workers count lives in their lanes.
const PRODUCER_COUNTERS: [CounterId; 8] = [
    CounterId::Enqueued,
    CounterId::Shed,
    CounterId::Displaced,
    CounterId::Batches,
    CounterId::Migrations,
    CounterId::Deploys,
    CounterId::DeploysRateLimited,
    CounterId::InbandObservations,
];

/// The per-host registry: the per-worker ledger lanes, the shared
/// producer-side counters, and the telemetry extras (per-key latency
/// histograms, the shed table, the [`TraceRing`]). All storage is
/// preallocated; every record call is lock-free and allocation-free.
/// A disabled registry keeps the full ledger and turns only the extras
/// into no-ops.
pub struct MetricsRegistry {
    enabled: bool,
    lanes: Box<[Lane]>,
    /// Producer-side counters, indexed by [`CounterId`] (only the
    /// [`PRODUCER_COUNTERS`] entries are ever bumped).
    counters: [AtomicU64; NUM_COUNTERS],
    /// Shed events are recorded from producer threads (any number of
    /// them), so they live in one shared hook-keyed table with atomic
    /// updates — shedding is the rare path.
    shed: KeyTable,
    trace: TraceRing,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled)
            .field("lanes", &self.lanes.len())
            .field("trace", &self.trace)
            .finish()
    }
}

impl MetricsRegistry {
    /// Builds a registry for `shards` shard workers. A disabled config
    /// allocates the ledger lanes but no per-key latency, shed-table or
    /// trace storage.
    pub fn new(config: TelemetryConfig, shards: usize) -> Self {
        let enabled = config.enabled;
        MetricsRegistry {
            enabled,
            lanes: (0..shards)
                .map(|_| Lane {
                    dispatched: AtomicU64::new(0),
                    faults: AtomicU64::new(0),
                    insns: AtomicU64::new(0),
                    busy_ns: AtomicU64::new(0),
                    sim_cycles: AtomicU64::new(0),
                    latency: LatencyHistogram::new(),
                    hooks: KeyTable::new(HOOK_TABLE, enabled),
                    tenants: KeyTable::new(TENANT_TABLE, enabled),
                })
                .collect(),
            counters: [(); NUM_COUNTERS].map(|_| AtomicU64::new(0)),
            shed: KeyTable::new(if enabled { HOOK_TABLE } else { 1 }, false),
            trace: TraceRing::new(if enabled { config.trace_capacity } else { 0 }),
        }
    }

    /// Whether the telemetry extras are recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one completed event into the worker's lane: the shard
    /// totals, the overall latency histogram and the hook's row. Must
    /// only be called by the lane's own shard worker — the
    /// single-writer invariant is what keeps this path free of locked
    /// read-modify-writes.
    pub(crate) fn record_dispatch(&self, shard: usize, hook: &Uuid, d: DispatchRecord) {
        let lane = &self.lanes[shard];
        bump(&lane.dispatched, 1);
        bump(&lane.faults, d.faults);
        bump(&lane.insns, d.insns);
        bump(&lane.busy_ns, d.busy_ns);
        bump(&lane.sim_cycles, d.cycles);
        lane.latency.record_single_writer(d.latency_ns);
        let (k0, k1) = uuid_key(hook);
        if let Some(slot) = lane.hooks.slot(k0, k1) {
            bump(&slot.events, 1);
            bump(&slot.extra, d.cycles);
            if let Some(latency) = &slot.latency {
                latency.record_single_writer(d.latency_ns);
            }
        }
    }

    /// Records one container execution on a tenant's behalf, into the
    /// calling worker's lane (same single-writer contract as
    /// [`MetricsRegistry::record_dispatch`]).
    pub(crate) fn record_tenant_execution(
        &self,
        shard: usize,
        tenant: TenantId,
        insns: u64,
        latency_ns: u64,
    ) {
        let (k0, k1) = tenant_key(tenant);
        if let Some(slot) = self.lanes[shard].tenants.slot(k0, k1) {
            bump(&slot.events, 1);
            bump(&slot.extra, insns);
            if let Some(latency) = &slot.latency {
                latency.record_single_writer(latency_ns);
            }
        }
    }

    /// Zeroes `hook`'s simulated-cycle count in the worker's own lane —
    /// how a removed hook stops feeding the rebalancer, so a later
    /// reuse of its UUID starts from a clean window. Dispatch counts
    /// stay. Same single-writer contract as
    /// [`MetricsRegistry::record_dispatch`].
    pub(crate) fn clear_hook_cycles(&self, shard: usize, hook: &Uuid) {
        let (k0, k1) = uuid_key(hook);
        if let Some(slot) = self.lanes[shard].hooks.find(k0, k1) {
            slot.extra.store(0, Ordering::Relaxed);
        }
    }

    /// Adds `n` to a producer-side counter (one of the counters the
    /// shard workers do not own). Callable from any thread.
    pub(crate) fn count(&self, id: CounterId, n: u64) {
        debug_assert!(PRODUCER_COUNTERS.contains(&id), "{id:?} lives in the lanes");
        self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Seeds the ledger from journal-recovered counter state — the one
    /// place a restored node's counts continue from the crashed node's
    /// instead of re-counting replayed commits. Per-hook dispatches go
    /// to the lane of `shard_of(hook)`; the aggregate faults,
    /// instructions, latency and tenant rows go to lane 0. Only safe
    /// while every shard worker is idle (restore runs before any event
    /// is offered), which upholds the single-writer contract.
    pub(crate) fn seed(&self, seeds: &CounterSeeds, shard_of: impl Fn(&Uuid) -> usize) {
        self.count(CounterId::Enqueued, seeds.enqueued);
        self.count(CounterId::Deploys, seeds.deploys);
        let lane0 = &self.lanes[0];
        bump(&lane0.faults, seeds.faults);
        bump(&lane0.insns, seeds.insns);
        lane0.latency.absorb(&seeds.latency.0);
        for (hook, dispatched) in &seeds.hooks {
            let lane = &self.lanes[shard_of(hook)];
            bump(&lane.dispatched, *dispatched);
            let (k0, k1) = uuid_key(hook);
            if let Some(slot) = lane.hooks.slot(k0, k1) {
                bump(&slot.events, *dispatched);
            }
        }
        for &(tenant, executions, insns) in &seeds.tenants {
            let (k0, k1) = tenant_key(tenant);
            if let Some(slot) = lane0.tenants.slot(k0, k1) {
                bump(&slot.events, executions);
                bump(&slot.extra, insns);
            }
        }
    }

    /// Events dispatched so far, summed over lanes.
    pub fn dispatched(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.dispatched.load(Ordering::Relaxed))
            .sum()
    }

    /// One [`ShardReport`] per lane. A hook's cycles are its rows
    /// summed over every lane it ever ran on, listed under the shard
    /// `owner` names for it now; hooks `owner` does not know (departed
    /// ones) and hooks with no cycles are left out. `containers` is
    /// the caller's to fill — placement, not the ledger, knows it.
    pub(crate) fn shard_reports(&self, owner: impl Fn(&Uuid) -> Option<usize>) -> Vec<ShardReport> {
        let mut hook_cycles: BTreeMap<Uuid, u64> = BTreeMap::new();
        for lane in self.lanes.iter() {
            lane.hooks.for_each_ready(|k0, k1, s| {
                *hook_cycles.entry(uuid_from_key(k0, k1)).or_insert(0) +=
                    s.extra.load(Ordering::Relaxed);
            });
        }
        let mut reports: Vec<ShardReport> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(shard, lane)| ShardReport {
                shard,
                containers: 0,
                events: lane.dispatched.load(Ordering::Relaxed),
                busy_ns: lane.busy_ns.load(Ordering::Relaxed),
                sim_cycles: lane.sim_cycles.load(Ordering::Relaxed),
                hook_cycles: Vec::new(),
            })
            .collect();
        for (hook, cycles) in hook_cycles {
            if cycles == 0 {
                continue;
            }
            if let Some(report) = owner(&hook).and_then(|s| reports.get_mut(s)) {
                report.hook_cycles.push((hook, cycles));
            }
        }
        reports
    }

    /// Records `n` events shed for a hook. Callable from any thread:
    /// sheds land in the shared table, not a lane.
    pub fn record_shed(&self, hook: &Uuid, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        let (k0, k1) = uuid_key(hook);
        if let Some(slot) = self.shed.slot(k0, k1) {
            slot.extra.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Appends an event to the trace ring, stamped with the caller's
    /// virtual-clock reading.
    pub fn trace(&self, at_us: u64, kind: TraceKind, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        self.trace.record(at_us, kind, a, b);
    }

    /// Convenience for hook-keyed trace events: stamps `hook`'s low 8
    /// bytes as the `a` word.
    pub fn trace_hook(&self, at_us: u64, kind: TraceKind, hook: &Uuid, b: u64) {
        if !self.enabled {
            return;
        }
        self.trace.record(at_us, kind, uuid_key(hook).0, b);
    }

    /// Dumps the retained trace, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// Trace events lost to ring wrap-around.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Keyed records dropped because a slot table was full.
    pub fn keyed_overflow(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| {
                lane.hooks.overflow.load(Ordering::Relaxed)
                    + lane.tenants.overflow.load(Ordering::Relaxed)
            })
            .sum::<u64>()
            + self.shed.overflow.load(Ordering::Relaxed)
    }

    /// Copies the whole ledger into `snap`: the producer-side
    /// counters, the lane-summed dispatched/faults/insns counters and
    /// overall latency, one row per hook, tenant and shard (merging the
    /// per-worker lanes into one row per key — counter sums and
    /// histogram bucket adds, the same semantics the fleet tier
    /// applies across nodes), plus the registry's own health counters.
    /// The caller fills the journal counters, gauges and per-shard
    /// queue depth it owns.
    pub fn fill_snapshot(&self, snap: &mut MetricsSnapshot) {
        for id in PRODUCER_COUNTERS {
            snap.set_counter(id, self.counters[id as usize].load(Ordering::Relaxed));
        }
        let mut hooks: BTreeMap<[u8; 16], HookMetrics> = BTreeMap::new();
        let mut tenants: BTreeMap<TenantId, TenantMetrics> = BTreeMap::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            lane.hooks.for_each_ready(|k0, k1, s| {
                let row = hook_row(&mut hooks, k0, k1);
                row.dispatched += s.events.load(Ordering::Relaxed);
                if let Some(latency) = &s.latency {
                    row.latency.merge(&HistogramSnapshot(latency.load()));
                }
            });
            lane.tenants.for_each_ready(|k0, _, s| {
                let tenant = k0 as TenantId;
                let row = tenants.entry(tenant).or_insert_with(|| TenantMetrics {
                    tenant,
                    ..TenantMetrics::default()
                });
                row.executions += s.events.load(Ordering::Relaxed);
                row.insns += s.extra.load(Ordering::Relaxed);
                if let Some(latency) = &s.latency {
                    row.latency.merge(&HistogramSnapshot(latency.load()));
                }
            });
            let dispatched = lane.dispatched.load(Ordering::Relaxed);
            snap.add_counter(CounterId::Dispatched, dispatched);
            snap.add_counter(CounterId::Faults, lane.faults.load(Ordering::Relaxed));
            snap.add_counter(CounterId::Insns, lane.insns.load(Ordering::Relaxed));
            let latency = HistogramSnapshot(lane.latency.load());
            snap.latency.merge(&latency);
            snap.shards.push(ShardMetrics {
                node: 0,
                shard: i as u32,
                dispatched,
                queue_depth: 0,
                busy_cycles: lane.sim_cycles.load(Ordering::Relaxed),
                latency,
            });
        }
        // A hook that only ever shed still gets a row.
        self.shed.for_each_ready(|k0, k1, s| {
            hook_row(&mut hooks, k0, k1).shed += s.extra.load(Ordering::Relaxed);
        });
        // BTreeMap iteration over the raw uuid bytes is exactly the
        // sorted-by-key order the snapshot wire format requires.
        snap.hooks.extend(hooks.into_values());
        snap.tenants.extend(tenants.into_values());
        snap.set_counter(CounterId::TraceDropped, self.trace_dropped());
        snap.set_counter(CounterId::KeyedOverflow, self.keyed_overflow());
    }
}

/// The snapshot row for hook `(k0, k1)`, created empty on first use.
fn hook_row(hooks: &mut BTreeMap<[u8; 16], HookMetrics>, k0: u64, k1: u64) -> &mut HookMetrics {
    let id = uuid_from_key(k0, k1);
    hooks.entry(id.0).or_insert_with(|| HookMetrics {
        hook: id,
        dispatched: 0,
        shed: 0,
        latency: HistogramSnapshot::default(),
    })
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Identifiers for the monotone counters carried in a snapshot.
/// Fleet merge **sums** counters across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CounterId {
    /// Events accepted into a queue.
    Enqueued = 0,
    /// Events fully executed.
    Dispatched = 1,
    /// Events shed by backpressure.
    Shed = 2,
    /// Shed events that had already been accepted (`DropOldest`).
    Displaced = 3,
    /// Batched enqueue calls.
    Batches = 4,
    /// Hook migrations executed.
    Migrations = 5,
    /// Live deploys landed through the shard control lane.
    Deploys = 6,
    /// Deploys refused by per-tenant rate limiting.
    DeploysRateLimited = 7,
    /// In-band rebalancer observations.
    InbandObservations = 8,
    /// Container executions that faulted.
    Faults = 9,
    /// VM instructions retired.
    Insns = 10,
    /// Deploy manifests accepted by the live-update service.
    DeploysAccepted = 11,
    /// Deploy manifests rejected by the live-update service.
    DeploysRejected = 12,
    /// Transport-level retransmissions (from `TransportStats`).
    Retransmits = 13,
    /// Replies coalesced into shared frames (from `TransportStats`).
    CoalescedFrames = 14,
    /// Trace events lost to ring wrap-around.
    TraceDropped = 15,
    /// Keyed metric records dropped because a slot table was full.
    KeyedOverflow = 16,
    /// Write-ahead journal records appended (durable hosts only).
    JournalAppends = 17,
    /// Framed bytes written to the journal.
    JournalBytes = 18,
    /// Snapshot folds completed.
    JournalFolds = 19,
}

/// Number of counter ids (array length in [`MetricsSnapshot`]).
pub const NUM_COUNTERS: usize = 20;

impl CounterId {
    /// All counter ids, in encoding order.
    pub const ALL: [CounterId; NUM_COUNTERS] = [
        CounterId::Enqueued,
        CounterId::Dispatched,
        CounterId::Shed,
        CounterId::Displaced,
        CounterId::Batches,
        CounterId::Migrations,
        CounterId::Deploys,
        CounterId::DeploysRateLimited,
        CounterId::InbandObservations,
        CounterId::Faults,
        CounterId::Insns,
        CounterId::DeploysAccepted,
        CounterId::DeploysRejected,
        CounterId::Retransmits,
        CounterId::CoalescedFrames,
        CounterId::TraceDropped,
        CounterId::KeyedOverflow,
        CounterId::JournalAppends,
        CounterId::JournalBytes,
        CounterId::JournalFolds,
    ];

    /// Stable lower-snake name used by the text rendering.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Enqueued => "enqueued",
            CounterId::Dispatched => "dispatched",
            CounterId::Shed => "shed",
            CounterId::Displaced => "displaced",
            CounterId::Batches => "batches",
            CounterId::Migrations => "migrations",
            CounterId::Deploys => "deploys",
            CounterId::DeploysRateLimited => "deploys_rate_limited",
            CounterId::InbandObservations => "inband_observations",
            CounterId::Faults => "faults",
            CounterId::Insns => "insns",
            CounterId::DeploysAccepted => "deploys_accepted",
            CounterId::DeploysRejected => "deploys_rejected",
            CounterId::Retransmits => "retransmits",
            CounterId::CoalescedFrames => "coalesced_frames",
            CounterId::TraceDropped => "trace_dropped",
            CounterId::KeyedOverflow => "keyed_overflow",
            CounterId::JournalAppends => "journal_appends",
            CounterId::JournalBytes => "journal_bytes",
            CounterId::JournalFolds => "journal_folds",
        }
    }

    fn from_u8(v: u8) -> Option<CounterId> {
        CounterId::ALL.get(v as usize).copied()
    }
}

/// Identifiers for point-in-time gauges. Fleet merge takes the
/// **maximum** across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GaugeId {
    /// Deepest per-shard queue at scrape time.
    QueueDepthMax = 0,
    /// Transport in-flight high-water mark.
    InFlightHwm = 1,
    /// Transport smoothed RTT (µs).
    SrttUs = 2,
    /// Virtual clock (µs) at scrape time.
    VirtualNowUs = 3,
}

/// Number of gauge ids (array length in [`MetricsSnapshot`]).
pub const NUM_GAUGES: usize = 4;

impl GaugeId {
    /// All gauge ids, in encoding order.
    pub const ALL: [GaugeId; NUM_GAUGES] = [
        GaugeId::QueueDepthMax,
        GaugeId::InFlightHwm,
        GaugeId::SrttUs,
        GaugeId::VirtualNowUs,
    ];

    /// Stable lower-snake name used by the text rendering.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::QueueDepthMax => "queue_depth_max",
            GaugeId::InFlightHwm => "in_flight_hwm",
            GaugeId::SrttUs => "srtt_us",
            GaugeId::VirtualNowUs => "virtual_now_us",
        }
    }

    fn from_u8(v: u8) -> Option<GaugeId> {
        GaugeId::ALL.get(v as usize).copied()
    }
}

/// A frozen latency histogram: 64 power-of-two nanosecond buckets,
/// bucket `i` covering `[2^i, 2^(i+1))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot(pub [u64; BUCKETS]);

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot([0u64; BUCKETS])
    }
}

impl HistogramSnapshot {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile in nanoseconds, linearly interpolated within
    /// its bucket; `0` when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.0, q)
    }

    /// Counts one sample, bucketed by the same rule as
    /// [`LatencyHistogram`].
    pub(crate) fn record(&mut self, ns: u64) {
        self.0[bucket_of(ns)] += 1;
    }

    /// Bucket-wise addition — the fleet histogram-merge primitive.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.0.iter_mut().zip(other.0.iter()) {
            *dst += *src;
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let occupied = self.0.iter().filter(|&&b| b != 0).count() as u8;
        out.push(occupied);
        for (i, &b) in self.0.iter().enumerate() {
            if b != 0 {
                out.push(i as u8);
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Cursor<'_>) -> Result<HistogramSnapshot, SnapshotError> {
        let n = r.u8()?;
        let mut h = HistogramSnapshot::default();
        for _ in 0..n {
            let idx = r.u8()? as usize;
            if idx >= BUCKETS {
                return Err(SnapshotError::BadField);
            }
            h.0[idx] = h.0[idx].wrapping_add(r.u64()?);
        }
        Ok(h)
    }
}

/// Per-tenant section of a snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Tenant id.
    pub tenant: TenantId,
    /// Container executions on this tenant's behalf.
    pub executions: u64,
    /// VM instructions those executions retired.
    pub insns: u64,
    /// Dispatch latency of events that executed this tenant's hooks.
    pub latency: HistogramSnapshot,
}

/// Per-hook section of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookMetrics {
    /// Hook id.
    pub hook: Uuid,
    /// Events dispatched for this hook.
    pub dispatched: u64,
    /// Events shed for this hook.
    pub shed: u64,
    /// Dispatch latency for this hook.
    pub latency: HistogramSnapshot,
}

/// Per-shard section of a snapshot. In a fleet-merged view the
/// `(node, shard)` pair stays unique because the aggregator retags
/// `node` before merging.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Owning node (0 for a single-host snapshot; retagged on merge).
    pub node: u32,
    /// Shard index within the node.
    pub shard: u32,
    /// Events this shard dispatched.
    pub dispatched: u64,
    /// Queue depth (pending events) at scrape time.
    pub queue_depth: u64,
    /// Simulated busy cycles this shard has accumulated.
    pub busy_cycles: u64,
    /// Dispatch latency on this shard.
    pub latency: HistogramSnapshot,
}

/// Decode failures for the snapshot wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended before the structure was complete, or had trailing
    /// bytes after it.
    Truncated,
    /// Unknown format version byte.
    BadVersion(u8),
    /// A field held an out-of-range value (bucket index, counter id…).
    BadField,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated or has trailing bytes"),
            SnapshotError::BadVersion(v) => write!(f, "unknown snapshot version {v}"),
            SnapshotError::BadField => write!(f, "snapshot field out of range"),
        }
    }
}

impl std::error::Error for SnapshotError {}

const SNAPSHOT_VERSION: u8 = 1;

/// A frozen, mergeable view of one node's (or a whole fleet's)
/// metrics: ledger counters, gauges, the overall latency histogram,
/// and per-tenant / per-hook / per-shard breakdowns.
///
/// The binary encoding ([`encode`](MetricsSnapshot::encode) /
/// [`decode`](MetricsSnapshot::decode)) is lossless and
/// deterministic: `decode(encode(s)) == s` bit-for-bit, with sparse
/// histogram and counter sections to stay small on the wire. The
/// [`fmt::Display`] impl renders the human-readable `/metrics` text.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Node snapshots merged into this view (1 for a single host).
    pub nodes: u32,
    /// Monotone counters, indexed by [`CounterId`]; merged by sum.
    pub counters: [u64; NUM_COUNTERS],
    /// Point-in-time gauges, indexed by [`GaugeId`]; merged by max.
    pub gauges: [u64; NUM_GAUGES],
    /// Overall enqueue→completion dispatch latency.
    pub latency: HistogramSnapshot,
    /// Per-tenant breakdown, sorted by tenant id.
    pub tenants: Vec<TenantMetrics>,
    /// Per-hook breakdown, sorted by hook id bytes.
    pub hooks: Vec<HookMetrics>,
    /// Per-shard breakdown, sorted by `(node, shard)`.
    pub shards: Vec<ShardMetrics>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            nodes: 0,
            counters: [0u64; NUM_COUNTERS],
            gauges: [0u64; NUM_GAUGES],
            latency: HistogramSnapshot::default(),
            tenants: Vec::new(),
            hooks: Vec::new(),
            shards: Vec::new(),
        }
    }
}

impl MetricsSnapshot {
    /// Reads one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Sets one counter.
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id as usize] = v;
    }

    /// Adds to one counter.
    pub fn add_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id as usize] += v;
    }

    /// Reads one gauge.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize]
    }

    /// Raises one gauge to at least `v` (gauge-max semantics).
    pub fn gauge_max(&mut self, id: GaugeId, v: u64) {
        let g = &mut self.gauges[id as usize];
        *g = (*g).max(v);
    }

    /// Events offered so far: accepted ones plus those rejected at the
    /// queue. Displaced events are excluded — they were already
    /// counted when accepted.
    pub fn offered(&self) -> u64 {
        let rejected = self
            .counter(CounterId::Shed)
            .saturating_sub(self.counter(CounterId::Displaced));
        self.counter(CounterId::Enqueued) + rejected
    }

    /// Shed fraction over everything offered so far (correct under
    /// both shed policies).
    pub fn shed_rate(&self) -> f64 {
        match self.offered() {
            0 => 0.0,
            offered => self.counter(CounterId::Shed) as f64 / offered as f64,
        }
    }

    /// Looks up one tenant's section.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantMetrics> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Looks up one hook's section.
    pub fn hook(&self, hook: &Uuid) -> Option<&HookMetrics> {
        self.hooks.iter().find(|h| &h.hook == hook)
    }

    /// Retags every shard entry with `node` — the fleet aggregator
    /// calls this before merging so per-shard rows stay distinct.
    pub fn retag_node(&mut self, node: u32) {
        for s in &mut self.shards {
            s.node = node;
        }
    }

    /// Merges `other` into `self`: counters sum, gauges max,
    /// histograms add bucket-wise, tenant/hook rows join on their key,
    /// shard rows union on `(node, shard)`.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.nodes += other.nodes;
        for (dst, src) in self.counters.iter_mut().zip(other.counters.iter()) {
            *dst += *src;
        }
        for (dst, src) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *dst = (*dst).max(*src);
        }
        self.latency.merge(&other.latency);
        for t in &other.tenants {
            match self.tenants.iter_mut().find(|mine| mine.tenant == t.tenant) {
                Some(mine) => {
                    mine.executions += t.executions;
                    mine.insns += t.insns;
                    mine.latency.merge(&t.latency);
                }
                None => self.tenants.push(t.clone()),
            }
        }
        self.tenants.sort_by_key(|t| t.tenant);
        for h in &other.hooks {
            match self.hooks.iter_mut().find(|mine| mine.hook == h.hook) {
                Some(mine) => {
                    mine.dispatched += h.dispatched;
                    mine.shed += h.shed;
                    mine.latency.merge(&h.latency);
                }
                None => self.hooks.push(h.clone()),
            }
        }
        self.hooks.sort_by_key(|h| h.hook.0);
        for s in &other.shards {
            match self
                .shards
                .iter_mut()
                .find(|mine| mine.node == s.node && mine.shard == s.shard)
            {
                Some(mine) => {
                    mine.dispatched += s.dispatched;
                    mine.queue_depth += s.queue_depth;
                    mine.busy_cycles = mine.busy_cycles.max(s.busy_cycles);
                    mine.latency.merge(&s.latency);
                }
                None => self.shards.push(s.clone()),
            }
        }
        self.shards.sort_by_key(|s| (s.node, s.shard));
    }

    /// Encodes the snapshot into its versioned binary wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&self.nodes.to_le_bytes());
        let nc = self.counters.iter().filter(|&&c| c != 0).count() as u8;
        out.push(nc);
        for (i, &c) in self.counters.iter().enumerate() {
            if c != 0 {
                out.push(i as u8);
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        let ng = self.gauges.iter().filter(|&&g| g != 0).count() as u8;
        out.push(ng);
        for (i, &g) in self.gauges.iter().enumerate() {
            if g != 0 {
                out.push(i as u8);
                out.extend_from_slice(&g.to_le_bytes());
            }
        }
        self.latency.encode(&mut out);
        out.extend_from_slice(&(self.tenants.len() as u16).to_le_bytes());
        for t in &self.tenants {
            out.extend_from_slice(&t.tenant.to_le_bytes());
            out.extend_from_slice(&t.executions.to_le_bytes());
            out.extend_from_slice(&t.insns.to_le_bytes());
            t.latency.encode(&mut out);
        }
        out.extend_from_slice(&(self.hooks.len() as u16).to_le_bytes());
        for h in &self.hooks {
            out.extend_from_slice(&h.hook.0);
            out.extend_from_slice(&h.dispatched.to_le_bytes());
            out.extend_from_slice(&h.shed.to_le_bytes());
            h.latency.encode(&mut out);
        }
        out.extend_from_slice(&(self.shards.len() as u16).to_le_bytes());
        for s in &self.shards {
            out.extend_from_slice(&s.node.to_le_bytes());
            out.extend_from_slice(&s.shard.to_le_bytes());
            out.extend_from_slice(&s.dispatched.to_le_bytes());
            out.extend_from_slice(&s.queue_depth.to_le_bytes());
            out.extend_from_slice(&s.busy_cycles.to_le_bytes());
            s.latency.encode(&mut out);
        }
        out
    }

    /// Decodes a snapshot; total on arbitrary input (never panics) and
    /// strict — trailing bytes are an error.
    pub fn decode(data: &[u8]) -> Result<MetricsSnapshot, SnapshotError> {
        let mut r = Cursor { data, pos: 0 };
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let mut snap = MetricsSnapshot {
            nodes: r.u32()?,
            ..MetricsSnapshot::default()
        };
        let nc = r.u8()?;
        for _ in 0..nc {
            let id = CounterId::from_u8(r.u8()?).ok_or(SnapshotError::BadField)?;
            snap.set_counter(id, r.u64()?);
        }
        let ng = r.u8()?;
        for _ in 0..ng {
            let id = GaugeId::from_u8(r.u8()?).ok_or(SnapshotError::BadField)?;
            snap.gauges[id as usize] = r.u64()?;
        }
        snap.latency = HistogramSnapshot::decode(&mut r)?;
        let nt = r.u16()?;
        for _ in 0..nt {
            snap.tenants.push(TenantMetrics {
                tenant: r.u32()?,
                executions: r.u64()?,
                insns: r.u64()?,
                latency: HistogramSnapshot::decode(&mut r)?,
            });
        }
        let nh = r.u16()?;
        for _ in 0..nh {
            let mut id = [0u8; 16];
            id.copy_from_slice(r.take(16)?);
            snap.hooks.push(HookMetrics {
                hook: Uuid(id),
                dispatched: r.u64()?,
                shed: r.u64()?,
                latency: HistogramSnapshot::decode(&mut r)?,
            });
        }
        let ns = r.u16()?;
        for _ in 0..ns {
            snap.shards.push(ShardMetrics {
                node: r.u32()?,
                shard: r.u32()?,
                dispatched: r.u64()?,
                queue_depth: r.u64()?,
                busy_cycles: r.u64()?,
                latency: HistogramSnapshot::decode(&mut r)?,
            });
        }
        r.done()?;
        Ok(snap)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# fc-metrics v{SNAPSHOT_VERSION} nodes={}", self.nodes)?;
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v != 0 || matches!(id, CounterId::Dispatched | CounterId::Shed) {
                writeln!(f, "counter {} {v}", id.name())?;
            }
        }
        for id in GaugeId::ALL {
            let v = self.gauge(id);
            if v != 0 {
                writeln!(f, "gauge {} {v}", id.name())?;
            }
        }
        writeln!(
            f,
            "latency count={} p50_ns={} p99_ns={}",
            self.latency.count(),
            self.latency.quantile_ns(0.50),
            self.latency.quantile_ns(0.99)
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "tenant {} executions={} insns={} p50_ns={} p99_ns={}",
                t.tenant,
                t.executions,
                t.insns,
                t.latency.quantile_ns(0.50),
                t.latency.quantile_ns(0.99)
            )?;
        }
        for h in &self.hooks {
            write!(f, "hook ")?;
            for byte in &h.hook.0[..8] {
                write!(f, "{byte:02x}")?;
            }
            writeln!(
                f,
                " dispatched={} shed={} p50_ns={} p99_ns={}",
                h.dispatched,
                h.shed,
                h.latency.quantile_ns(0.50),
                h.latency.quantile_ns(0.99)
            )?;
        }
        for s in &self.shards {
            writeln!(
                f,
                "shard {}/{} dispatched={} queue_depth={} busy_cycles={} p99_ns={}",
                s.node,
                s.shard,
                s.dispatched,
                s.queue_depth,
                s.busy_cycles,
                s.latency.quantile_ns(0.99)
            )?;
        }
        Ok(())
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(SnapshotError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn dispatch(latency_ns: u64, cycles: u64) -> DispatchRecord {
        DispatchRecord {
            latency_ns,
            cycles,
            ..DispatchRecord::default()
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            nodes: 1,
            ..MetricsSnapshot::default()
        };
        snap.set_counter(CounterId::Dispatched, 240);
        snap.set_counter(CounterId::Shed, 3);
        snap.set_counter(CounterId::Retransmits, 17);
        snap.gauge_max(GaugeId::QueueDepthMax, 9);
        let mut hist = HistogramSnapshot::default();
        hist.0[10] = 100;
        hist.0[16] = 7;
        snap.latency = hist.clone();
        snap.tenants.push(TenantMetrics {
            tenant: 3,
            executions: 40,
            insns: 4096,
            latency: hist.clone(),
        });
        snap.hooks.push(HookMetrics {
            hook: Uuid([7u8; 16]),
            dispatched: 40,
            shed: 1,
            latency: hist.clone(),
        });
        snap.shards.push(ShardMetrics {
            node: 0,
            shard: 1,
            dispatched: 120,
            queue_depth: 4,
            busy_cycles: 99_000,
            latency: hist,
        });
        snap
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let decoded = MetricsSnapshot::decode(&bytes).expect("decode");
        assert_eq!(decoded, snap);
        // Determinism: encoding the decode reproduces the bytes.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn decode_is_total_on_garbage() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(MetricsSnapshot::decode(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            MetricsSnapshot::decode(&trailing),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(
            MetricsSnapshot::decode(&[99]),
            Err(SnapshotError::BadVersion(99))
        );
        for seed in 0u8..32 {
            let junk: Vec<u8> = (0..64u8)
                .map(|i| i.wrapping_mul(37).wrapping_add(seed))
                .collect();
            let _ = MetricsSnapshot::decode(&junk); // must not panic
        }
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_adds_histograms() {
        let a = sample_snapshot();
        let mut b = sample_snapshot();
        b.gauges[GaugeId::QueueDepthMax as usize] = 2;
        b.tenants[0].tenant = 5; // disjoint tenant joins the view
        b.retag_node(1);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.nodes, 2);
        assert_eq!(merged.counter(CounterId::Dispatched), 480);
        assert_eq!(merged.counter(CounterId::Retransmits), 34);
        assert_eq!(merged.gauge(GaugeId::QueueDepthMax), 9, "gauge takes max");
        assert_eq!(merged.latency.count(), 2 * a.latency.count());
        assert_eq!(merged.tenants.len(), 2);
        assert_eq!(merged.tenant(3).unwrap().executions, 40);
        assert_eq!(merged.tenant(5).unwrap().executions, 40);
        // Same hook on both nodes: joined by key.
        assert_eq!(merged.hooks.len(), 1);
        assert_eq!(merged.hooks[0].dispatched, 80);
        // Shards retagged → distinct rows.
        assert_eq!(merged.shards.len(), 2);
        assert_eq!(merged.shards[0].node, 0);
        assert_eq!(merged.shards[1].node, 1);
        // Merged view round-trips too.
        assert_eq!(
            MetricsSnapshot::decode(&merged.encode()).expect("decode"),
            merged
        );
    }

    #[test]
    fn registry_records_keyed_metrics_lock_free() {
        let reg = MetricsRegistry::new(TelemetryConfig::default(), 2);
        let hook_a = Uuid([1u8; 16]);
        let hook_b = Uuid([2u8; 16]);
        reg.record_dispatch(0, &hook_a, dispatch(1_000, 10));
        reg.record_dispatch(1, &hook_a, dispatch(2_000, 20));
        reg.record_dispatch(1, &hook_b, dispatch(4_000, 40));
        reg.record_shed(&hook_b, 3);
        reg.record_tenant_execution(0, 7, 128, 1_000);
        reg.record_tenant_execution(1, 7, 128, 2_000);

        let mut snap = MetricsSnapshot::default();
        reg.fill_snapshot(&mut snap);
        assert_eq!(snap.hooks.len(), 2);
        let a = snap.hook(&hook_a).expect("hook a");
        assert_eq!((a.dispatched, a.shed), (2, 0));
        let b = snap.hook(&hook_b).expect("hook b");
        assert_eq!((b.dispatched, b.shed), (1, 3));
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].executions, 2);
        assert_eq!(snap.tenants[0].insns, 256);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].dispatched, 1);
        assert_eq!(snap.shards[1].dispatched, 2);
        assert_eq!(snap.shards[1].busy_cycles, 60);
        assert_eq!(snap.counter(CounterId::Dispatched), 3);
        assert_eq!(snap.latency.count(), 3);
        assert_eq!(snap.counter(CounterId::KeyedOverflow), 0);
        // Hook cycles sum over lanes, under the hook's current owner.
        let reports = reg.shard_reports(|h| (*h == hook_a).then_some(0));
        assert_eq!(reports[0].hook_cycles, vec![(hook_a, 30)]);
        assert!(reports[1].hook_cycles.is_empty(), "hook b has no owner");
    }

    #[test]
    fn registry_sums_exactly_under_concurrency() {
        let reg = Arc::new(MetricsRegistry::new(TelemetryConfig::default(), 4));
        let hooks: Vec<Uuid> = (0..32u8).map(|i| Uuid([i; 16])).collect();
        let threads: Vec<_> = (0..4usize)
            .map(|t| {
                let reg = Arc::clone(&reg);
                let hooks = hooks.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000usize {
                        let hook = &hooks[(i + t) % hooks.len()];
                        reg.record_dispatch(t, hook, dispatch((i as u64 + 1) * 10, 1));
                        reg.record_tenant_execution(t, (i % 8) as u32, 5, 100);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("join");
        }
        let mut snap = MetricsSnapshot::default();
        reg.fill_snapshot(&mut snap);
        assert_eq!(snap.hooks.iter().map(|h| h.dispatched).sum::<u64>(), 4_000);
        assert_eq!(snap.hooks.len(), 32);
        assert_eq!(
            snap.tenants.iter().map(|t| t.executions).sum::<u64>(),
            4_000
        );
        assert_eq!(snap.tenants.iter().map(|t| t.insns).sum::<u64>(), 20_000);
        assert_eq!(snap.shards.iter().map(|s| s.dispatched).sum::<u64>(), 4_000);
        assert_eq!(snap.counter(CounterId::KeyedOverflow), 0);
    }

    #[test]
    fn disabled_registry_keeps_the_ledger_and_drops_the_extras() {
        let hook = Uuid([1u8; 16]);
        let snapshot_of = |config| {
            let reg = MetricsRegistry::new(config, 2);
            reg.record_dispatch(1, &hook, dispatch(1_000, 7));
            reg.record_tenant_execution(1, 3, 64, 1_000);
            reg.record_shed(&hook, 2);
            reg.trace(5, TraceKind::Enqueue, 1, 2);
            let mut snap = MetricsSnapshot::default();
            reg.fill_snapshot(&mut snap);
            (snap, reg.trace_events().len())
        };
        let (on, on_trace) = snapshot_of(TelemetryConfig::default());
        let (off, off_trace) = snapshot_of(off_config());
        assert!(!MetricsRegistry::new(off_config(), 1).enabled());
        // The ledger is identical either way.
        assert_eq!(off.counters, on.counters);
        assert_eq!(off.latency, on.latency);
        assert_eq!(off.shards, on.shards);
        assert_eq!(off.tenants[0].executions, 1);
        assert_eq!(off.tenants[0].insns, 64);
        assert_eq!(off.hooks[0].dispatched, 1);
        // The extras are gone: per-key latency, sheds, trace.
        assert_eq!(on.hooks[0].shed, 2);
        assert_eq!(off.hooks[0].shed, 0);
        assert_eq!(on.tenants[0].latency.count(), 1);
        assert_eq!(off.tenants[0].latency.count(), 0);
        assert_eq!(off.hooks[0].latency.count(), 0);
        assert_eq!((on_trace, off_trace), (1, 0));
    }

    fn off_config() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        }
    }

    #[test]
    fn trace_ring_wraps_and_counts_drops() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record(i, TraceKind::Exec, i, i * 2);
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let events = ring.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.at_us).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest-first, newest retained"
        );
        let line = events[0].to_string();
        assert!(line.contains("exec"), "rendering: {line}");
    }

    #[test]
    fn text_rendering_lists_sections() {
        let snap = sample_snapshot();
        let text = snap.to_string();
        assert!(text.contains("counter dispatched 240"), "{text}");
        assert!(text.contains("gauge queue_depth_max 9"), "{text}");
        assert!(text.contains("tenant 3 "), "{text}");
        assert!(text.contains("shard 0/1 "), "{text}");
        assert!(text.contains("p99_ns="), "{text}");
    }

    #[test]
    fn clearing_hook_cycles_restarts_the_rebalancer_signal() {
        let reg = MetricsRegistry::new(TelemetryConfig::default(), 2);
        let hook = Uuid([9u8; 16]);
        reg.record_dispatch(0, &hook, dispatch(100, 500));
        reg.record_dispatch(1, &hook, dispatch(100, 300));
        reg.clear_hook_cycles(0, &hook);
        reg.clear_hook_cycles(1, &hook);
        reg.clear_hook_cycles(1, &Uuid([8u8; 16])); // never recorded: no row claimed
        assert!(reg.shard_reports(|_| Some(0))[0].hook_cycles.is_empty());
        reg.record_dispatch(1, &hook, dispatch(100, 40));
        assert_eq!(
            reg.shard_reports(|_| Some(0))[0].hook_cycles,
            vec![(hook, 40)]
        );
        let mut snap = MetricsSnapshot::default();
        reg.fill_snapshot(&mut snap);
        assert_eq!(snap.hooks.len(), 1);
        assert_eq!(snap.hooks[0].dispatched, 3, "dispatch counts survive");
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5);
        assert!((128..=512).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 100_000, "p99 = {p99}");
        assert!(h.quantile_ns(0.0) >= 64);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 samples all in bucket [1024, 2048): ranks spread linearly
        // across the bucket instead of every quantile reporting the
        // 2048 upper bound.
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(1500);
        }
        let p25 = h.quantile_ns(0.25);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        assert_eq!(p25, 1024 + 256, "rank 25/100 sits 1/4 into the bucket");
        assert_eq!(p50, 1024 + 512, "rank 50/100 sits halfway");
        assert_eq!(p99, 1024 + 1014, "p99 = {p99}");
        assert!(p25 < p50 && p50 < p99, "quantiles monotone in q");
        // Full-rank quantile reaches the bucket upper bound exactly.
        assert_eq!(h.quantile_ns(1.0), 2048);
    }

    #[test]
    fn quantiles_of_known_two_bucket_distribution() {
        // 90 samples in [64,128), 10 in [65536,131072): p50 must stay
        // inside the low bucket, and p95 must land inside the high
        // bucket, not at its upper bound.
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let p50 = h.quantile_ns(0.50);
        assert!((64..128).contains(&p50), "p50 = {p50}");
        // rank 95 is the 5th of 10 samples in [65536,131072):
        // 65536 + 5/10 * 65536 = 98304.
        assert_eq!(h.quantile_ns(0.95), 98_304);
    }

    #[test]
    fn merge_matches_concatenated_sample_stream() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for ns in [100u64, 300, 900, 2_700] {
            a.record(ns);
            both.record(ns);
        }
        for ns in [150u64, 450, 8_100, 24_300, 72_900] {
            b.record(ns);
            both.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), 9);
        assert_eq!(a.load(), both.load(), "merge is bucket-wise exact");
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile_ns(q), both.quantile_ns(q));
        }
    }

    #[test]
    fn snapshot_and_live_histograms_share_one_bucket_rule() {
        let live = LatencyHistogram::new();
        let mut frozen = HistogramSnapshot::default();
        for ns in [0u64, 1, 2, 3, 1023, 1024, u64::MAX] {
            live.record(ns);
            frozen.record(ns);
        }
        assert_eq!(HistogramSnapshot(live.load()), frozen);
    }

    fn ledger(enqueued: u64, shed: u64, displaced: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter(CounterId::Enqueued, enqueued);
        snap.set_counter(CounterId::Shed, shed);
        snap.set_counter(CounterId::Displaced, displaced);
        snap
    }

    #[test]
    fn shed_rate_counts_offered_load() {
        assert_eq!(MetricsSnapshot::default().shed_rate(), 0.0);
        // DropNewest shape: 3 accepted, 1 rejected at the queue.
        let s = ledger(3, 1, 0);
        assert_eq!(s.offered(), 4);
        assert!((s.shed_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn shed_rate_does_not_double_count_displaced_events() {
        // DropOldest shape: 100 offers, all accepted, 60 displaced
        // after acceptance. True shed fraction is 60%, not 60/160.
        let s = ledger(100, 60, 60);
        assert_eq!(s.offered(), 100);
        assert!((s.shed_rate() - 0.6).abs() < 1e-9);
    }
}
