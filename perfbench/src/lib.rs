//! The htapg benchmark: three HTAP workloads run through the public front
//! door (`driver::execute_op` and `physical::execute_adaptive` over
//! `StorageEngine::plan`), with every answer checked.
//!
//! * `htap_mixed` — ReferenceEngine, TPC-C customers, one OLTP and one OLAP
//!   client, periodic maintenance, an in-memory WAL checked by recovery.
//! * `olap_scan` — Fractured Mirrors, TPC-C items, one client running
//!   sum / filter_sum / group_sum on the pooled host executor.
//! * `oltp_cold` — HyPer, customers compacted into compressed cold chunks,
//!   one client of point reads, thawing updates and materializations. It
//!   runs on request but is not listed in `BENCHMARK.json`: its
//!   decode-bound medians follow the host's speed, and on a shared 2-vCPU
//!   VM the interquartile range of ten seeds reached 45% of the median.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, measured on
//! the host. A traced run (`--trace 1`) alternates untraced and traced
//! slices: traced ops are decomposed into plan / execute / storage / txn
//! calls, each under a span, and the per-layer metrics come from those
//! spans, from the engines' counters and from column probes run at a
//! quiescent point. The spans are written under `perfbench/traces/`.

pub mod client;
mod cold;
mod layers;
mod mixed;
mod oltp;
mod scan;
pub mod stats;

use std::time::{Duration, Instant};

use htapg::core::engine::StorageEngine;

use htapg::core::{Record, RelationId, Value};
use htapg::workload::tpcc::{customer_attr::C_BALANCE, Generator};

use client::{Kind, Tally, KINDS};

pub const WORKLOADS: [&str; 3] = ["htap_mixed", "olap_scan", "oltp_cold"];
/// The workloads `BENCHMARK.json` lists, whose metrics gate a change.
pub const GATED: [&str; 2] = ["htap_mixed", "olap_scan"];

/// End-to-end metrics (`--trace 0`), name and unit, in output order; every
/// workload reports all of them.
///
/// * `setup_s` — median of [`SETUP_REPS`] set-ups: load, then warm-up until
///   steady (replicas resident, chunks compacted, planner warm).
/// * `ops_per_s` — completed ops per second over the timed phase, all
///   clients.
/// * `op_p50_gmean_us` — host-measured median latency per op type, as a
///   geometric mean taken first within each client class (OLTP: point
///   reads, updates, materializations; OLAP: sum, filter_sum, group_sum)
///   and then, with equal weight, over the classes the workload runs.
/// * `query_p50_gmean_us` — the geometric mean of the medians of the
///   analytic ops alone (sum, filter_sum, group_sum), so a slower scan,
///   device or aggregate path shows even beside µs-scale OLTP ops; on a
///   workload without analytics (`oltp_cold`), the median of its 150-row
///   materializations, its only multi-row read.
/// * `peak_rss_mib` — the process's peak resident memory (`VmHWM`), read
///   when the timed phase ends, before any check or probe runs.
///
/// The per-type medians and tails are printed above the result with their
/// sample counts.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_gmean_us", "us"),
    ("query_p50_gmean_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in output order; zero
/// where a workload bypasses the layer. What each should move:
///
/// * `plan.build_us_p50.*` → that op type's median on `htap_mixed` and
///   `oltp_cold` (a visible share of µs-scale ops); negligible on `olap_scan`.
/// * `plan.device_route_frac`, `plan.replans` → the sum median and
///   `device.model_ms_per_olap` on `htap_mixed`.
/// * `exec.us_p50.*`, `exec.fallback_frac` → that op type's median, and the
///   sum tail on `htap_mixed`.
/// * `exec.{collect,reduce,group}_ns_per_row`, `pool.sum_ns_per_row` → the
///   sum, filter_sum and group_sum medians on `olap_scan`.
/// * `floor.sum_ns_per_row` — a plain `iter().sum()` over the same column:
///   the reference the others are read against; it should never move.
/// * `device.*`, `kernels.tree_sum_ns_per_row` → `device.model_ms_per_olap`
///   and the sum and group_sum medians on `htap_mixed`.
/// * `txn.*`, `wal.*` → the update median and tail on `htap_mixed`.
/// * `maintain.*` → the sum tail and `ops_per_s` on `htap_mixed`, and the
///   update and point_read tails on `oltp_cold`.
/// * `storage.read_record_*`, `storage.update_us_p99` → the point_read,
///   materialize and update figures on `oltp_cold` and `htap_mixed`;
///   `storage.scan_ns_per_row` → the sum median on `olap_scan`.
/// * `trace.overhead_pct` — mean latency of traced over untraced ops, both
///   through the front door.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.build_us_p50.point_read", "us"),
    ("plan.build_us_p50.update", "us"),
    ("plan.build_us_p50.materialize", "us"),
    ("plan.build_us_p50.sum", "us"),
    ("plan.build_us_p50.filter_sum", "us"),
    ("plan.build_us_p50.group_sum", "us"),
    ("plan.device_route_frac", "ratio"),
    ("plan.replans", "count"),
    ("exec.us_p50.point_read", "us"),
    ("exec.us_p50.update", "us"),
    ("exec.us_p50.materialize", "us"),
    ("exec.us_p50.sum", "us"),
    ("exec.us_p50.filter_sum", "us"),
    ("exec.us_p50.group_sum", "us"),
    ("exec.fallback_frac", "ratio"),
    ("exec.collect_ns_per_row", "ns/row"),
    ("exec.reduce_ns_per_row", "ns/row"),
    ("exec.group_ns_per_row", "ns/row"),
    ("floor.sum_ns_per_row", "ns/row"),
    ("pool.sum_ns_per_row", "ns/row"),
    ("device.model_ms_per_olap", "vms"),
    ("device.transfer_vns_per_olap", "vns"),
    ("device.kernel_vns_per_olap", "vns"),
    ("device.bytes_to_device_per_olap", "bytes"),
    ("device.kernel_launches_per_olap", "count"),
    ("device.delta_merges_per_olap", "count"),
    ("device.cache_hit_ratio", "ratio"),
    ("device.cache_evictions", "count"),
    ("device.delta_bytes_per_update", "bytes"),
    ("device.backoff_vns", "vns"),
    ("kernels.tree_sum_ns_per_row", "ns/row"),
    ("txn.update_us_p50", "us"),
    ("txn.commit_us_p50", "us"),
    ("txn.conflict_retries", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.appends_per_update", "count"),
    ("maintain.ms_per_round", "ms"),
    ("maintain.merges", "count"),
    ("maintain.versions_pruned", "count"),
    ("maintain.fragments_moved", "count"),
    ("storage.read_record_us_p50", "us"),
    ("storage.read_record_us_p99", "us"),
    ("storage.update_us_p99", "us"),
    ("storage.scan_ns_per_row", "ns/row"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own test.
    pub smoke: bool,
}

impl Config {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
        let mut cfg =
            Config { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                cfg.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(cfg)
    }

    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Calls per column probe of a traced run; each probe reports the median.
    fn probe_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines, printed above the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What one workload run produced.
pub(crate) struct Outcome {
    pub setup_s: Vec<f64>,
    pub phase_s: f64,
    /// `VmHWM` when the timed phase ended.
    pub peak_rss_mib: f64,
    pub tally: Tally,
    pub layers: layers::Counters,
    pub lines: Vec<String>,
}

/// Run one workload and derive its metrics.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The executor pool starts lazily; pin its size before first use.
    std::env::set_var(htapg::exec::pool::THREADS_ENV, threads.to_string());
    let outcome = match cfg.workload.as_str() {
        "htap_mixed" => mixed::run(cfg),
        "olap_scan" => scan::run(cfg, threads),
        "oltp_cold" => cold::run(cfg),
        other => return Err(format!("unknown workload {other}")),
    }
    .map_err(|e| format!("{}: {e}", cfg.workload))?;
    let tally = &outcome.tally;
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    )];
    lines.extend(outcome.lines.iter().cloned());
    let metrics = if cfg.trace {
        let m = layers::per_layer(&outcome);
        let path = layers::write_spans(cfg, &tally.spans)?;
        lines.push(layers::span_counts(&tally.spans));
        lines.push(format!("{} spans, written to {}", tally.spans.len(), path.display()));
        m
    } else {
        let m = end_to_end(&outcome)?;
        lines.extend(issue_metrics(&outcome, &m));
        m
    };
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    for e in &tally.errors {
        lines.push(format!("error: {e}"));
    }
    for e in &tally.mismatches {
        lines.push(format!("WRONG: {e}"));
    }
    if tally.wrong > 0 {
        lines.push(format!("{} wrong answers", tally.wrong));
    }
    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics,
        lines,
    })
}

/// Geometric mean of the median latencies (µs) of the op types that `pick`
/// selects and the run completed; `None` when there are none.
fn p50_gmean_us(t: &Tally, pick: impl Fn(Kind) -> bool) -> Option<f64> {
    let p50s: Vec<f64> = KINDS
        .into_iter()
        .filter(|&k| pick(k) && t.lat[k as usize].seen() > 0)
        .map(|k| stats::quantile(&t.lat[k as usize].sorted(), 0.5) as f64 / 1e3)
        .collect();
    (!p50s.is_empty()).then(|| stats::geomean(&p50s))
}

fn end_to_end(o: &Outcome) -> Result<Vec<Metric>, String> {
    let t = &o.tally;
    let classes: Vec<f64> = [false, true]
        .into_iter()
        .filter_map(|olap| p50_gmean_us(t, |k| k.analytic() == olap))
        .collect();
    let query = p50_gmean_us(t, Kind::analytic)
        .or_else(|| p50_gmean_us(t, |k| k == Kind::Materialize))
        .ok_or("no multi-row read completed")?;
    let values = [
        stats::median(&o.setup_s),
        (t.attempted() - t.failed()) as f64 / o.phase_s,
        stats::geomean(&classes),
        query,
        o.peak_rss_mib,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect())
}

/// Every end-to-end figure of the workload, by operation type, with its
/// sample count.
fn issue_metrics(o: &Outcome, e2e: &[Metric]) -> Vec<String> {
    fn row(name: &str, value: f64, unit: &str, n: usize) -> String {
        format!("  {name:<28} {value:>14.3} {unit:<4} (n={n})")
    }
    let t = &o.tally;
    let n_ops = t.attempted() as usize;
    let reps: Vec<String> = o.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let mut lines = vec![
        row("setup_s", e2e[0].value, "s", o.setup_s.len()),
        format!("  set-ups: {} s", reps.join(", ")),
        row("ops_per_s", e2e[1].value, "1/s", n_ops),
    ];
    let mut short = Vec::new();
    for kind in KINDS {
        let lat = &t.lat[kind as usize];
        if lat.seen() == 0 {
            continue;
        }
        let s = lat.sorted();
        let (scale, unit) = if kind.analytic() { (1e6, "ms") } else { (1e3, "us") };
        let n = s.len();
        let p50 = stats::quantile(&s, 0.5) as f64 / scale;
        lines.push(row(&format!("{}_p50_{unit}", kind.name()), p50, unit, n));
        match stats::tail(n) {
            Some((q, label)) => {
                let v = stats::quantile(&s, q) as f64 / scale;
                lines.push(row(&format!("{}_{label}_{unit}", kind.name()), v, unit, n));
            }
            None => short.push(kind.name()),
        }
        if lat.seen() > n as u64 {
            lines.push(format!("  {}: {n} samples kept of {} ops", kind.name(), lat.seen()));
        }
    }
    let olap: u64 = KINDS.iter().filter(|k| k.analytic()).map(|&k| t.attempts[k as usize]).sum();
    if let Some(d) = &o.layers.device {
        let model_ms = (d.transfer_ns + d.kernel_ns + d.backoff_ns) as f64 / 1e6;
        let per_olap = model_ms / olap.max(1) as f64;
        lines.push(row("device_model_ms_per_olap", per_olap, "vms", olap as usize));
    }
    lines.push(row("op_p50_gmean_us", e2e[2].value, "us", n_ops));
    lines.push(row("query_p50_gmean_us", e2e[3].value, "us", n_ops));
    lines.push(row("peak_rss_mib", e2e[4].value, "MiB", 1));
    let ratio = t.failed() as f64 / t.attempted().max(1) as f64;
    lines.push(row("failed_op_ratio", ratio, "", n_ops));
    for kind in KINDS.into_iter().filter(|&k| t.failures[k as usize] > 0) {
        let (failed, tried) = (t.failures[kind as usize], t.attempts[kind as usize]);
        lines.push(format!("  {}: {failed} of {tried} failed", kind.name()));
    }
    if !short.is_empty() {
        lines.push(format!("  too few samples for a tail: {}", short.join(", ")));
    }
    lines
}

/// Build a workload's state `reps` times, dropping the previous one first;
/// returns the last state and every set-up time.
pub(crate) fn repeat_setup<S, E>(
    reps: usize,
    mut build: impl FnMut() -> Result<(S, Duration), E>,
) -> Result<(S, Vec<f64>), E> {
    let mut last = None;
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (state, took) = build()?;
        secs.push(took.as_secs_f64());
        last = Some(state);
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// Insert `make(0..n)` into `rel`, generating in batches; returns the time
/// spent inside `insert` alone.
pub(crate) fn load(
    engine: &dyn StorageEngine,
    rel: RelationId,
    n: u64,
    make: impl Fn(u64) -> Record,
) -> htapg::core::Result<Duration> {
    const BATCH: u64 = 4096;
    let mut busy = Duration::ZERO;
    let mut batch = Vec::with_capacity(BATCH as usize);
    let mut lo = 0;
    while lo < n {
        let hi = (lo + BATCH).min(n);
        batch.clear();
        batch.extend((lo..hi).map(&make));
        let t = Instant::now();
        for r in &batch {
            engine.insert(rel, r)?;
        }
        busy += t.elapsed();
        lo = hi;
    }
    Ok(busy)
}

/// Customer `row` as generated, with the last balance the client wrote to
/// it (the model the answer checks compare against).
pub(crate) fn expected(gen: &Generator, model: &oltp::Model, row: u64) -> Record {
    let mut rec = gen.customer(row);
    if let Some(v) = model.get(row) {
        rec[C_BALANCE as usize] = Value::Float64(v);
    }
    rec
}

/// Group-sum results equal key by key and bit for bit.
pub(crate) fn same_groups(got: Option<&[(i64, f64)]>, oracle: &[(i64, f64)]) -> bool {
    got.is_some_and(|g| {
        g.len() == oracle.len()
            && g.iter().zip(oracle).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    })
}
