//! fc-perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload coap_tiny --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives one named workload end to end through the public entry
//! points, checks every reply, and prints every metric by name and unit.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same workload with spans around each layer's calls and reports the
//! per-layer ledger. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Results and spans
//! are also written under `perfbench/out/`; nothing else is written.
//! See `perfbench/README.md` for the workloads and the prediction
//! table.

mod estimators;
mod fleet_run;
mod host_run;
mod ledger;
mod probes;
mod procfs;
mod spans;
mod tenants;

use std::fmt::Write as _;
use std::path::Path;

use host_run::HostWorkload;
use ledger::Ledger;
use spans::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["coap_tiny", "coap_compute", "durable_kv", "fleet_lossy"];

/// End-to-end metrics (`--trace 0`), with units. Every workload
/// reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_req", "us"),
    ("latency_p50_us", "us"),
    ("device_us_per_req", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload
/// does not exercise reports 0 (see README.md for which apply where).
const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("latency_p99_us", "us"),
    ("latency_p99_samples", "count"),
    ("link_virtual_us_per_req", "us"),
    ("front.route_ns", "ns"),
    ("front.reply_ns", "ns"),
    ("host.submit_ns", "ns"),
    ("host.wait_us", "us"),
    ("host.queue_p50_us", "us"),
    ("host.queue_p99_us", "us"),
    ("host.busy_share", "ratio"),
    ("host.round_trips_per_req", "count"),
    ("host.shed_per_req", "count"),
    ("engine.fire_hook_ns", "ns"),
    ("engine.fixed_ns", "ns"),
    ("engine.insns_per_req", "count"),
    ("engine.install_us", "us"),
    ("vm.run_ns", "ns"),
    ("vm.ns_per_insn", "ns"),
    ("kv.fetch_ns", "ns"),
    ("kv.store_ns", "ns"),
    ("journal.append_ns", "ns"),
    ("journal.appends_per_req", "count"),
    ("journal.bytes_per_req", "bytes"),
    ("journal.folds_per_kreq", "count"),
    ("journal.restore_ms", "ms"),
    ("fleet.wave_us", "us"),
    ("fleet.encode_ns", "ns"),
    ("fleet.decode_ns", "ns"),
    ("fleet.deduped_per_req", "count"),
    ("fleet.deploy_ms", "ms"),
    ("net.retransmits_per_req", "count"),
    ("net.coalesced_per_req", "count"),
    ("net.srtt_us", "us"),
    ("net.in_flight_hwm", "count"),
    ("net.dropped_per_req", "count"),
    ("net.duplicated_per_req", "count"),
    ("telemetry.scrape_us", "us"),
    ("trace.overhead_cpu_us", "us"),
    ("trace.leftover_us", "us"),
    ("trace.leftover_share", "ratio"),
];

/// A seed kept out of tuning: re-run a claim with `--seed` set to it to
/// check it on inputs it was not tuned on.
const HELD_OUT_SEED: u64 = 0x5eed_0b5e;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return String::from("unknown");
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| String::from("unknown"))
}

/// A JSON number with every digit of `v`; JSON has no NaN or
/// infinity, so those print as 0 (and fail the run).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::from("0.0")
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new();
    let ledger: Ledger = match args.workload.as_str() {
        "coap_tiny" => host_run::run(
            HostWorkload::Tiny,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
        ),
        "coap_compute" => host_run::run(
            HostWorkload::Compute,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
        ),
        "durable_kv" => host_run::run(
            HostWorkload::Durable,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
        ),
        _ => fleet_run::run(args.seed, args.seconds, args.trace, &mut tracer),
    };

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let value = |name: &str| ledger.values.get(name).copied().unwrap_or(0.0);

    // Human-readable report: provenance, every metric the run measured
    // (end-to-end and per-layer), notes and checks.
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench workload={} seed={} held_out_seed={} seconds={} trace={} host_cores={} git_rev={}",
        args.workload,
        args.seed,
        HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace),
        procfs::host_cores(),
        git_revision()
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = ledger.values.get(name) {
            let _ = writeln!(report, "  {name:<26} {v:>14.4} {unit}");
        }
    }
    for note in &ledger.notes {
        let _ = writeln!(report, "  {note}");
    }
    for (name, ok) in &ledger.checks {
        let _ = writeln!(
            report,
            "  check {}: {name}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let _ = writeln!(
        report,
        "  requests attempted {} failed {}",
        ledger.attempted, ledger.failed
    );
    print!("{report}");

    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value(name))
            )
        })
        .collect();
    // A metric that is not a finite number is a fault of the run.
    let finite = table.iter().all(|(name, _)| value(name).is_finite());
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct() && finite,
        ledger.attempted,
        ledger.failed,
        metrics.join(", ")
    );

    let out = Path::new("perfbench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(
                out.join(format!("{stem}.txt")),
                format!("{report}{result}\n"),
            )
        })
        .and_then(|()| {
            if args.trace {
                std::fs::write(out.join(format!("{stem}-spans.csv")), tracer.render())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write results under {}: {e}",
            out.display()
        );
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let named = json.matches("\"name\": ").count();
        assert_eq!(named, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
