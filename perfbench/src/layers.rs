//! Per-layer metrics of a traced run: span timings, layer counters, and
//! column probes that time one layer's public function at a time.

use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use htapg::core::engine::StorageEngine;
use htapg::core::obs::{self, MetricsSnapshot};
use htapg::core::plan::ScanStrategy;
use htapg::core::{AttrId, RelationId, Result};
use htapg::device::kernels;
use htapg::device::ledger::CostSnapshot;
use htapg::exec::physical;
use htapg::exec::ThreadingPolicy;

use crate::client::{Kind, Layer, Span, Tally, KINDS, ROOT};
use crate::{stats, Config, Metric, Outcome, PER_LAYER};

/// Layer counters a workload collects over its timed phase; zero where
/// the workload bypasses the layer.
#[derive(Default)]
pub struct Counters {
    /// Device ledger delta (engines with a simulated device).
    pub device: Option<CostSnapshot>,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Deltas of the process-wide `plan.replans`, `txn.conflicts` and
    /// `wal.appends` counters.
    pub replans: u64,
    pub conflicts: u64,
    pub wal_appends: u64,
    pub probes: Probes,
}

/// Snapshot of the process-wide metrics registry at the start of a phase.
pub struct Globals(MetricsSnapshot);

impl Globals {
    pub fn start() -> Self {
        Globals(obs::metrics().snapshot())
    }

    /// Fill the registry-derived counters with the deltas since `start`.
    pub fn finish(&self, c: &mut Counters) {
        let d = obs::metrics().snapshot().since(&self.0);
        c.replans = d.counter("plan.replans");
        c.conflicts = d.counter("txn.conflicts");
        c.wal_appends = d.counter("wal.appends");
    }
}

/// Host ns per row of single-layer calls over one column.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    pub scan: f64,
    pub collect: f64,
    pub reduce: f64,
    pub group: f64,
    pub floor: f64,
    pub pool: f64,
    pub tree_sum: f64,
}

/// Which column the probes read and which optional layers they time.
pub struct ColumnProbe<'a> {
    pub engine: &'a dyn StorageEngine,
    pub rel: RelationId,
    pub key_attr: AttrId,
    pub value_attr: AttrId,
    /// Scan strategy of the workload's planned sum.
    pub strategy: ScanStrategy,
    /// Host policy of the workload's group-sum (`None`: serial).
    pub group_policy: Option<ThreadingPolicy>,
    /// Time `pooled_canonical_sum` under this policy.
    pub pool: Option<ThreadingPolicy>,
    /// Time `kernels::tree_sum`.
    pub tree_sum: bool,
    pub reps: usize,
}

/// Median host ns of `f` over `reps` calls.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> Result<T>) -> Result<f64> {
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        black_box(f()?);
        ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(stats::median(&ns))
}

impl ColumnProbe<'_> {
    pub fn run(&self) -> Result<Probes> {
        let (e, rel, attr) = (self.engine, self.rel, self.value_attr);
        let values = physical::collect_f64(e, rel, attr, self.strategy)?;
        let rows = values.len().max(1) as f64;
        let reps = self.reps;
        // Visit every value's bytes without reducing them: one XOR per word.
        let scan = time_ns(reps, || {
            let mut acc = 0u64;
            let mut visit = |b: &[u8]| {
                for w in b.chunks_exact(8) {
                    acc ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                }
            };
            if !e.with_column_bytes(rel, attr, &mut visit)? {
                e.scan_column(rel, attr, &mut |_, v| {
                    acc ^= black_box(v).as_f64().map_or(0, f64::to_bits)
                })?;
            }
            Ok(acc)
        })?;
        let collect = time_ns(reps, || physical::collect_f64(e, rel, attr, self.strategy))?;
        let reduce = time_ns(reps, || Ok(physical::canonical_sum(black_box(&values))))?;
        let group = time_ns(reps, || {
            physical::group_sum_host(e, rel, self.key_attr, attr, self.strategy, self.group_policy)
        })?;
        let floor = time_ns(reps, || Ok(black_box(&values).iter().sum::<f64>()))?;
        let pool = match self.pool {
            Some(p) => time_ns(reps, || Ok(physical::pooled_canonical_sum(black_box(&values), p)))?,
            None => 0.0,
        };
        let tree_sum = if self.tree_sum {
            time_ns(reps, || Ok(kernels::tree_sum(black_box(&values))))?
        } else {
            0.0
        };
        Ok(Probes {
            scan: scan / rows,
            collect: collect / rows,
            reduce: reduce / rows,
            // Group-sum collects the value column itself; count only the rest.
            group: (group - collect).max(0.0) / rows,
            floor: floor / rows,
            pool: pool / rows,
            tree_sum: tree_sum / rows,
        })
    }
}

/// Sorted durations (ns) of the spans of `layer` (and `kind`, if given).
fn durations(spans: &[Span], layer: Layer, kind: Option<Kind>) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.layer == layer && (kind.is_none() || s.kind == kind))
        .map(Span::ns)
        .collect();
    d.sort_unstable();
    d
}

fn us(sorted: &[u64], q: f64) -> f64 {
    stats::quantile(sorted, q) as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Tracing overhead: per op type, the mean latency of traced ops over that
/// of untraced ops, as a geometric mean over the types run in both modes.
/// Only traced ops that took the same front door as the untraced ones (an
/// op span with an `execute_observed` child) count; the direct storage and
/// txn decompositions run other code.
fn overhead_pct(t: &Tally) -> f64 {
    let front_door: HashSet<u32> =
        t.spans.iter().filter(|s| s.layer == Layer::Exec).map(|s| s.parent).collect();
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    let mut ratios = Vec::new();
    for k in KINDS {
        let traced: Vec<u64> = (t.spans.iter().enumerate())
            .filter(|(i, s)| s.kind == Some(k) && front_door.contains(&(*i as u32)))
            .map(|(_, s)| s.ns())
            .collect();
        let untraced = t.lat[k as usize].samples();
        if !traced.is_empty() && !untraced.is_empty() {
            ratios.push(mean(&traced) / mean(untraced));
        }
    }
    if ratios.is_empty() {
        0.0
    } else {
        (stats::geomean(&ratios) - 1.0) * 100.0
    }
}

pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let t = &o.tally;
    let c = &o.layers;
    let spans = &t.spans;
    let mut v: Vec<f64> = Vec::with_capacity(PER_LAYER.len());
    for k in KINDS {
        v.push(us(&durations(spans, Layer::PlanBuild, Some(k)), 0.5));
    }
    v.push(ratio(t.device_routes as f64, t.analytic_plans as f64));
    v.push(c.replans as f64);
    for k in KINDS {
        v.push(us(&durations(spans, Layer::Exec, Some(k)), 0.5));
    }
    v.push(ratio(t.fallbacks as f64, t.executed as f64));
    let p = &c.probes;
    v.extend([p.collect, p.reduce, p.group, p.floor, p.pool]);

    let olap: u64 = KINDS.iter().filter(|k| k.analytic()).map(|&k| t.attempts[k as usize]).sum();
    let updates = t.attempts[Kind::Update as usize] as f64;
    let d = c.device.unwrap_or_default();
    let per_olap = |x: u64| ratio(x as f64, olap as f64);
    v.push(per_olap(d.transfer_ns + d.kernel_ns + d.backoff_ns) / 1e6);
    v.push(per_olap(d.transfer_ns));
    v.push(per_olap(d.kernel_ns));
    v.push(per_olap(d.bytes_to_device));
    v.push(per_olap(d.kernel_launches));
    v.push(per_olap(d.delta_merges));
    v.push(ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64));
    v.push(d.cache_evictions as f64);
    v.push(ratio(d.delta_bytes as f64, updates));
    v.push(d.backoff_ns as f64);
    v.push(p.tree_sum);

    v.push(us(&durations(spans, Layer::TxnUpdate, None), 0.5));
    v.push(us(&durations(spans, Layer::TxnCommit, None), 0.5));
    v.push(c.conflicts as f64);
    // A user byte is the 8-byte value each update writes.
    v.push(ratio(c.wal_bytes as f64, updates * 8.0));
    v.push(ratio(c.wal_appends as f64, updates));

    let mut maint = t.maint_ns.clone();
    maint.sort_unstable();
    v.push(stats::quantile(&maint, 0.5) as f64 / 1e6);
    v.push(t.maint.merges as f64);
    v.push(t.maint.versions_pruned as f64);
    v.push(t.maint.fragments_moved as f64);

    let reads = durations(spans, Layer::StorageRead, None);
    v.push(us(&reads, 0.5));
    v.push(us(&reads, 0.99));
    v.push(us(&durations(spans, Layer::StorageUpdate, None), 0.99));
    v.push(p.scan);

    v.push(overhead_pct(t));

    debug_assert_eq!(v.len(), PER_LAYER.len());
    PER_LAYER.iter().zip(v).map(|(&(name, unit), value)| Metric { name, unit, value }).collect()
}

/// The sample count behind each span-based metric, by layer.
pub fn span_counts(spans: &[Span]) -> String {
    let layers = [
        Layer::Op,
        Layer::PlanBuild,
        Layer::PlanReplan,
        Layer::Exec,
        Layer::StorageRead,
        Layer::StorageUpdate,
        Layer::TxnUpdate,
        Layer::TxnCommit,
        Layer::Maintain,
    ];
    let counts: Vec<String> = layers
        .iter()
        .map(|&l| format!("{}={}", l.name(), spans.iter().filter(|s| s.layer == l).count()))
        .collect();
    format!("  spans by layer: {}", counts.join(", "))
}

/// Spans written per run; the rest stay in memory for the metrics only.
const MAX_WRITTEN_SPANS: usize = 100_000;

/// Write the traced run's spans as JSON lines under `perfbench/traces/`.
pub fn write_spans(cfg: &Config, spans: &[Span]) -> std::result::Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    for (i, s) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"op_kind\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.layer.name(),
            s.kind.map_or("none", Kind::name),
            s.op,
            s.start_ns,
            s.end_ns,
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)?;
    Ok(path)
}
