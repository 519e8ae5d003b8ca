//! What one run measured, and the timed-phase slicing shared by every
//! workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::estimators::{iqr_share, mean, median, tail};
use crate::procfs::{peak_rss_mib, process_cpu_ns};

/// Slices the timed phase is cut into. End-to-end CPU cost is the
/// median over slices, so one slice disturbed by a neighbour on a
/// shared box moves nothing.
pub const SLICES: usize = 20;

/// Set-ups timed per run; `setup_s` is their median. Set-up takes well
/// under a millisecond, so one thread spawn delayed by a neighbour
/// would move a median of few.
pub const SETUP_REPS: usize = 31;

/// Closed-loop rounds per second a slice's latency buffer is sized for
/// (the fastest workload runs about 10k). The buffers are written once
/// before timing starts, so recording latencies does not grow the
/// resident set while it is measured.
const MAX_ROUNDS_PER_SEC: f64 = 25_000.0;

/// Timed requests after which `peak_rss_mib` is read. The process's
/// resident set creeps with requests served (on `coap_tiny`, `VmHWM`
/// grew by about 1.4 bytes per request between 0.5M and 4.5M
/// requests), so a read at the end of a fixed-time run would move with
/// throughput; a read after a fixed count measures the same work at any
/// speed. Every workload reaches it well inside a 20-s run.
const RSS_AFTER_REQUESTS: u64 = 1 << 18;

/// Everything a run reports: request accounting, named correctness
/// checks and every metric by name.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Requests attempted (reference pass and timed phase).
    pub attempted: u64,
    /// Requests failed: shed, timed out, faulted, or a reply that is
    /// not 2.05 with the expected payload.
    pub failed: u64,
    /// Whole-run correctness checks beyond the per-reply ones.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts one request outcome.
    pub fn outcome(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a named whole-run check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every reply and every check was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// One slice of the timed phase.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Whether the slice ran the traced (decomposed) request path.
    pub traced: bool,
    /// Process CPU time spent in the slice, ns.
    pub cpu_ns: u64,
    /// Requests served in the slice.
    pub requests: u64,
    /// Latency of each closed-loop round (burst or wave), ns.
    pub round_ns: Vec<f64>,
}

impl Slice {
    /// CPU µs per request.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.requests.max(1) as f64
    }
}

/// Runs the timed phase: [`SLICES`] slices over `seconds`, calling
/// `round(traced)` (which serves one closed-loop round and returns the
/// requests it served and its latency in ns) until each slice's
/// deadline. With `trace`, odd slices run traced and even ones
/// untraced, so both paths see the same box conditions. Returns the
/// slices and the peak resident set in MiB, read once
/// [`RSS_AFTER_REQUESTS`] requests were served (or at the end of a
/// shorter run).
pub fn run_slices(
    seconds: f64,
    trace: bool,
    mut round: impl FnMut(bool) -> (u64, f64),
) -> (Vec<Slice>, f64) {
    let per_slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let cap = (per_slice.as_secs_f64() * MAX_ROUNDS_PER_SEC) as usize;
    let buffers: Vec<Vec<f64>> = (0..SLICES)
        .map(|_| {
            let mut v = vec![f64::NAN; cap];
            v.clear();
            v
        })
        .collect();
    let mut slices = Vec::with_capacity(SLICES);
    let mut served_total = 0u64;
    let mut peak_rss = None;
    for (i, mut round_ns) in buffers.into_iter().enumerate() {
        let traced = trace && i % 2 == 1;
        let cpu_before = process_cpu_ns().expect("per-thread schedstat is readable");
        let deadline = Instant::now() + per_slice;
        let mut requests = 0u64;
        while Instant::now() < deadline {
            let (served, ns) = round(traced);
            requests += served;
            round_ns.push(ns);
            served_total += served;
            if peak_rss.is_none() && served_total >= RSS_AFTER_REQUESTS {
                peak_rss = peak_rss_mib();
            }
        }
        let cpu_after = process_cpu_ns().expect("per-thread schedstat is readable");
        slices.push(Slice {
            traced,
            cpu_ns: cpu_after.saturating_sub(cpu_before),
            requests,
            round_ns,
        });
    }
    let peak_rss = peak_rss
        .or_else(peak_rss_mib)
        .expect("/proc/self/status is readable");
    (slices, peak_rss)
}

/// Median CPU µs per request over the slices of one kind.
fn cpu_us_per_req(slices: &[Slice], traced: bool) -> f64 {
    median(&slice_cpu(slices, traced)).unwrap_or(0.0)
}

fn slice_cpu(slices: &[Slice], traced: bool) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| s.traced == traced)
        .map(Slice::cpu_us_per_req)
        .collect()
}

/// Records `cpu_us_per_req` (untraced slices) and notes its spread
/// across slices.
pub fn record_cpu(ledger: &mut Ledger, slices: &[Slice]) {
    ledger.set("cpu_us_per_req", cpu_us_per_req(slices, false));
    let per_slice = slice_cpu(slices, false);
    if let Some(share) = iqr_share(&per_slice) {
        ledger.note(format!(
            "cpu_us_per_req spread across slices: IQR {:.1}% of the median ({})",
            share * 100.0,
            per_slice
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
}

/// Round latencies (ns) of the slices of one kind, in order.
pub fn rounds(slices: &[Slice], traced: bool) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| s.traced == traced)
        .flat_map(|s| s.round_ns.iter().copied())
        .collect()
}

/// Records the latency figures of the untraced slices:
/// `latency_p50_us` (median round latency), and the tail under the
/// ten-beyond rule as `latency_p99_us` with its sample count.
pub fn record_latency(ledger: &mut Ledger, slices: &[Slice]) {
    let us: Vec<f64> = rounds(slices, false).iter().map(|ns| ns / 1e3).collect();
    ledger.set("latency_p50_us", median(&us).unwrap_or(0.0));
    let per_slice: Vec<String> = slices
        .iter()
        .filter(|s| !s.traced)
        .map(|s| format!("{:.1}", median(&s.round_ns).unwrap_or(0.0) / 1e3))
        .collect();
    ledger.note(format!("latency_p50_us per slice: {}", per_slice.join(" ")));
    match tail(&us, 0.99) {
        Some(t) => {
            ledger.set("latency_p99_us", t.value);
            ledger.set("latency_p99_samples", t.samples as f64);
            ledger.note(format!(
                "latency tail: p{:.2} = {:.1} us over {} samples ({} beyond)",
                t.quantile * 100.0,
                t.value,
                t.samples,
                t.beyond
            ));
        }
        None => {
            ledger.set("latency_p99_us", 0.0);
            ledger.set("latency_p99_samples", us.len() as f64);
            ledger.note(format!("latency tail: too few samples ({})", us.len()));
        }
    }
}

/// Simulated cycles must repeat exactly for every request to a tenant:
/// the cycle model is deterministic, so `device_us_per_req` is exact.
#[derive(Debug, Default)]
pub struct CycleCheck {
    first: std::collections::BTreeMap<u32, u64>,
    mismatches: u64,
}

impl CycleCheck {
    /// Compares one reply's cycles with the tenant's first reply.
    pub fn observe(&mut self, tenant: u32, cycles: u64) {
        if *self.first.entry(tenant).or_insert(cycles) != cycles {
            self.mismatches += 1;
        }
    }

    /// Records the verdict as a named check.
    pub fn record(&self, ledger: &mut Ledger) {
        ledger.check(
            "simulated device cycles repeat exactly per tenant",
            self.mismatches == 0,
        );
    }
}

/// Tolerance on the reconciliation: the driver-thread spans must add
/// up to the untraced per-round latency within this share.
const RECONCILE_TOLERANCE: f64 = 0.25;

/// Sets `trace.overhead_cpu_us`, `trace.leftover_us` and
/// `trace.leftover_share`, and notes whether the spans reconcile.
pub fn reconcile(ledger: &mut Ledger, slices: &[Slice], parts_ns: f64) {
    let overhead = cpu_us_per_req(slices, true) - cpu_us_per_req(slices, false);
    ledger.set("trace.overhead_cpu_us", overhead);
    let untraced = mean(&rounds(slices, false)).unwrap_or(0.0);
    let leftover = untraced - parts_ns;
    let share = leftover / untraced.max(1.0);
    ledger.set("trace.leftover_us", leftover / 1e3);
    ledger.set("trace.leftover_share", share);
    ledger.note(format!(
        "reconciliation: spans {:.1} us vs untraced round {:.1} us, leftover {:+.1} us ({:+.1}%, tolerance ±{:.0}%): {}",
        parts_ns / 1e3,
        untraced / 1e3,
        leftover / 1e3,
        share * 100.0,
        RECONCILE_TOLERANCE * 100.0,
        if share.abs() <= RECONCILE_TOLERANCE { "PASS" } else { "FAIL" }
    ));
}
