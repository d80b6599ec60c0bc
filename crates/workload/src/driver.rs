//! The HTAP driver: concurrent transactional + analytical load against any
//! [`StorageEngine`], with per-class latency/throughput metrics.
//!
//! This is the workload of the paper's challenge (b.iii): "efficient
//! processing of both workload types without interferences between
//! long-running ad-hoc analytic queries and massive short-living
//! write-intensive transactional queries."

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use htapg_core::engine::StorageEngine;
use htapg_core::plan::LogicalPlan;
use htapg_core::{obs, AttrId, RelationId, Result, Value};
use htapg_exec::threading::ThreadingPolicy;
use htapg_exec::{physical, pool};

use crate::queries::Op;

/// Registry handles for the driver's hot path, resolved once.
struct DriverMetrics {
    oltp_latency: Arc<obs::Histogram>,
    olap_latency: Arc<obs::Histogram>,
    cross_class_steals: Arc<obs::Counter>,
}

fn driver_metrics() -> &'static DriverMetrics {
    static METRICS: OnceLock<DriverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = obs::metrics();
        DriverMetrics {
            oltp_latency: m.histogram("query.oltp.latency_ns"),
            olap_latency: m.histogram("query.olap.latency_ns"),
            cross_class_steals: m.counter("driver.cross_class_steals"),
        }
    })
}

/// Aggregated metrics for one operation class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassMetrics {
    pub ops: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub errors: u64,
}

impl ClassMetrics {
    pub fn mean_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.ops as f64
        }
    }

    /// Operations per second over the class's busy time.
    pub fn throughput(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.total_ns as f64
        }
    }

    fn record(&mut self, ns: u64) {
        self.ops += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, other: ClassMetrics) {
        self.ops += other.ops;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.errors += other.errors;
    }
}

/// Full report of a driver run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HtapReport {
    pub oltp: ClassMetrics,
    pub olap: ClassMetrics,
    /// Wall-clock duration of the whole run.
    pub wall_ns: u64,
}

impl HtapReport {
    pub fn render(&self) -> String {
        format!(
            "OLTP: {} ops, {:.1} kops/s, mean {:.1} µs, max {:.1} µs, {} errors\n\
             OLAP: {} scans, mean {:.2} ms, max {:.2} ms, {} errors\n\
             wall: {:.1} ms",
            self.oltp.ops,
            self.oltp.throughput() / 1e3,
            self.oltp.mean_ns() / 1e3,
            self.oltp.max_ns as f64 / 1e3,
            self.oltp.errors,
            self.olap.ops,
            self.olap.mean_ns() / 1e6,
            self.olap.max_ns as f64 / 1e6,
            self.olap.errors,
            self.wall_ns as f64 / 1e6,
        )
    }
}

/// Build the logical plan for one workload op: every variant of [`Op`] is
/// expressed in the plan IR — the driver holds no direct engine-method
/// dispatch.
fn logical_for(rel: RelationId, op: &Op) -> LogicalPlan {
    match op {
        Op::Materialize(positions) => LogicalPlan::Materialize { rel, rows: positions.clone() },
        Op::PointRead(row) => LogicalPlan::PointRead { rel, row: *row },
        Op::UpdateField { row, attr, value } => {
            LogicalPlan::Update { rel, row: *row, attr: *attr, value: value.clone() }
        }
        Op::SumColumn(attr) => LogicalPlan::sum(rel, *attr),
        Op::GroupSum { key_attr, value_attr } => {
            LogicalPlan::group_sum(rel, *key_attr, *value_attr)
        }
    }
}

/// Execute one op against the engine (shared by sequential and concurrent
/// drivers). Returns whether the op was analytic.
///
/// Every op is lowered to a [`LogicalPlan`], routed by the engine's
/// cost-based planner ([`StorageEngine::plan`]) and interpreted by the
/// physical executor — the same path the repro binary and benches take.
///
/// Each op runs under a `query.{class}.{kind}` span, and its *virtual*
/// latency (the engine's [`StorageEngine::trace_clock`] delta, when the
/// engine has one) lands in the `query.{class}.latency_ns` histogram — so
/// dashboard percentiles are a function of the seed, not host scheduling.
pub fn execute_op(engine: &dyn StorageEngine, rel: RelationId, op: &Op) -> Result<bool> {
    let name = match op {
        Op::Materialize(_) => "query.oltp.materialize",
        Op::PointRead(_) => "query.oltp.point_read",
        Op::UpdateField { .. } => "query.oltp.update_field",
        Op::SumColumn(_) => "query.olap.sum_column",
        Op::GroupSum { .. } => "query.olap.group_sum",
    };
    let clock = engine.trace_clock();
    let v0 = clock.as_ref().map(|c| c.now_ns());
    let _span = obs::span("query", name);
    // The driver's workers are themselves pool tasks, so routed host work
    // stays on the issuing thread rather than re-entering the pool.
    // Adaptive execution observes each op's residual into the engine's
    // calibration profiles (when it has any) and replans on divergence,
    // so a live mixed workload continuously corrects the cost model.
    let result = physical::execute_adaptive(engine, &logical_for(rel, op), ThreadingPolicy::Single)
        .map(|_| op.is_analytic());
    if let (Some(clock), Some(v0)) = (clock, v0) {
        let m = driver_metrics();
        let hist = if op.is_analytic() { &m.olap_latency } else { &m.oltp_latency };
        hist.record(clock.now_ns().saturating_sub(v0));
    }
    result
}

/// Run a pre-generated op stream sequentially, timing each op.
pub fn run_sequential(engine: &dyn StorageEngine, rel: RelationId, ops: &[Op]) -> HtapReport {
    let mut report = HtapReport::default();
    let wall = Instant::now();
    for op in ops {
        let t = Instant::now();
        let outcome = execute_op(engine, rel, op);
        let ns = t.elapsed().as_nanos() as u64;
        let class = if op.is_analytic() { &mut report.olap } else { &mut report.oltp };
        class.record(ns);
        if outcome.is_err() {
            class.errors += 1;
        }
    }
    report.wall_ns = wall.elapsed().as_nanos() as u64;
    report
}

/// Concurrent HTAP run: `oltp_threads` workers drain the transactional ops
/// while `olap_threads` workers drain the analytic ops, all against the
/// same engine.
///
/// The workers are logical tasks on the persistent
/// [`htapg_exec::pool`] — nothing is spawned per call. The first
/// `oltp_threads` tasks start on the transactional queue, the rest on the
/// analytic queue; a task whose queue drains helps the other, so every op
/// completes no matter how many pool threads are actually free, and
/// metrics are attributed by the *op's* class rather than the worker's.
pub fn run_concurrent(
    engine: &dyn StorageEngine,
    rel: RelationId,
    ops: &[Op],
    oltp_threads: usize,
    olap_threads: usize,
) -> HtapReport {
    let oltp_ops: Vec<&Op> = ops.iter().filter(|o| !o.is_analytic()).collect();
    let olap_ops: Vec<&Op> = ops.iter().filter(|o| o.is_analytic()).collect();
    let oltp_cursor = AtomicU64::new(0);
    let olap_cursor = AtomicU64::new(0);
    let oltp_total = Mutex::new(ClassMetrics::default());
    let olap_total = Mutex::new(ClassMetrics::default());
    let oltp_threads = oltp_threads.max(1);
    let workers = oltp_threads + olap_threads.max(1);

    let wall = Instant::now();
    pool::run_tasks(workers as u64, workers, |task| {
        let mut oltp_local = ClassMetrics::default();
        let mut olap_local = ClassMetrics::default();
        let queues: [(&[&Op], &AtomicU64); 2] = if (task as usize) < oltp_threads {
            [(&oltp_ops, &oltp_cursor), (&olap_ops, &olap_cursor)]
        } else {
            [(&olap_ops, &olap_cursor), (&oltp_ops, &oltp_cursor)]
        };
        for (qi, (queue, cursor)) in queues.into_iter().enumerate() {
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= queue.len() {
                    break;
                }
                // A claim from the non-primary queue is a cross-class
                // steal: the worker's own class drained, it helps the
                // other.
                if qi == 1 {
                    driver_metrics().cross_class_steals.inc();
                }
                let op = queue[i];
                let t = Instant::now();
                let r = execute_op(engine, rel, op);
                let ns = t.elapsed().as_nanos() as u64;
                let m = if op.is_analytic() { &mut olap_local } else { &mut oltp_local };
                m.record(ns);
                if r.is_err() {
                    m.errors += 1;
                }
            }
        }
        oltp_total.lock().expect("metrics lock").merge(oltp_local);
        olap_total.lock().expect("metrics lock").merge(olap_local);
    });
    HtapReport {
        oltp: oltp_total.into_inner().expect("metrics lock"),
        olap: olap_total.into_inner().expect("metrics lock"),
        wall_ns: wall.elapsed().as_nanos() as u64,
    }
}

/// Load `n` generated customers into a fresh relation of `engine`.
pub fn load_customers(
    engine: &dyn StorageEngine,
    gen: &crate::tpcc::Generator,
    n: u64,
) -> Result<RelationId> {
    let rel = engine.create_relation(crate::tpcc::customer_schema())?;
    for i in 0..n {
        engine.insert(rel, &gen.customer(i))?;
    }
    Ok(rel)
}

/// Load `n` generated items into a fresh relation of `engine`.
pub fn load_items(
    engine: &dyn StorageEngine,
    gen: &crate::tpcc::Generator,
    n: u64,
) -> Result<RelationId> {
    let rel = engine.create_relation(crate::tpcc::item_schema())?;
    for i in 0..n {
        engine.insert(rel, &gen.item(i))?;
    }
    Ok(rel)
}

/// Apply a burst of `w` single-field updates to `w` *distinct* rows
/// starting at `offset` (wrapping at `rows`), deterministic in
/// `(offset, salt)`. This is the write half of an HTAP write-rate sweep:
/// replaying the same burst against two engines keeps their tables
/// bit-identical, and the distinct-row guarantee (for `w <= rows`) makes
/// the burst's device-replica staleness exactly `w` rows.
pub fn apply_write_burst(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    rows: u64,
    offset: u64,
    w: u64,
    salt: u64,
) -> Result<()> {
    for i in 0..w {
        let row = (offset + i) % rows;
        let v = Value::Float64((row % 89) as f64 * 1.25 + salt as f64);
        engine.update_field(rel, row, attr, &v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{mixed_stream, MixConfig};
    use crate::tpcc::Generator;
    use htapg_core::engine::MaintenanceReport;
    use htapg_core::sync::RwLock;
    use htapg_core::{AttrId, LayoutTemplate, Record, Relation, RowId, Schema, Value};
    use htapg_taxonomy::{survey, Classification};

    /// Minimal engine for driver tests.
    struct Mem {
        rels: RwLock<Vec<Relation>>,
    }

    impl Mem {
        fn new() -> Self {
            Mem { rels: RwLock::new(Vec::new()) }
        }
    }

    impl StorageEngine for Mem {
        fn name(&self) -> &'static str {
            "MEM"
        }
        fn classification(&self) -> Classification {
            survey::pax()
        }
        fn create_relation(&self, schema: Schema) -> htapg_core::Result<u32> {
            let template = LayoutTemplate::nsm(&schema);
            let mut rels = self.rels.write();
            rels.push(Relation::new(schema, template)?);
            Ok(rels.len() as u32 - 1)
        }
        fn schema(&self, rel: u32) -> htapg_core::Result<Schema> {
            Ok(self.rels.read()[rel as usize].schema().clone())
        }
        fn insert(&self, rel: u32, record: &Record) -> htapg_core::Result<RowId> {
            self.rels.write()[rel as usize].insert(record)
        }
        fn read_record(&self, rel: u32, row: RowId) -> htapg_core::Result<Record> {
            self.rels.read()[rel as usize].read_record(row)
        }
        fn read_field(&self, rel: u32, row: RowId, attr: AttrId) -> htapg_core::Result<Value> {
            self.rels.read()[rel as usize].read_value(
                row,
                attr,
                htapg_core::AccessHint::RecordCentric,
            )
        }
        fn update_field(
            &self,
            rel: u32,
            row: RowId,
            attr: AttrId,
            value: &Value,
        ) -> htapg_core::Result<()> {
            self.rels.write()[rel as usize].update_field(row, attr, value)
        }
        fn with_aligned_blocks(
            &self,
            rel: u32,
            attrs: &[AttrId],
            visit: &mut dyn FnMut(&[&[u8]]),
        ) -> htapg_core::Result<()> {
            self.rels.read()[rel as usize].with_aligned_blocks(attrs, &[], visit)
        }
        fn row_count(&self, rel: u32) -> htapg_core::Result<u64> {
            Ok(self.rels.read()[rel as usize].row_count())
        }
        fn maintain(&self) -> htapg_core::Result<MaintenanceReport> {
            Ok(MaintenanceReport::default())
        }
    }

    #[test]
    fn sequential_run_counts_classes() {
        let engine = Mem::new();
        let gen = Generator::new(1);
        let rel = load_customers(&engine, &gen, 500).unwrap();
        let ops = mixed_stream(&gen, 2, 500, 200, &MixConfig::default());
        let report = run_sequential(&engine, rel, &ops);
        assert_eq!(report.oltp.ops + report.olap.ops, 200);
        assert_eq!(report.oltp.errors, 0);
        assert_eq!(report.olap.errors, 0);
        assert!(report.wall_ns > 0);
        assert!(report.render().contains("OLTP"));
    }

    #[test]
    fn concurrent_run_completes_all_ops() {
        let engine = Mem::new();
        let gen = Generator::new(1);
        let rel = load_customers(&engine, &gen, 300).unwrap();
        let ops = mixed_stream(
            &gen,
            3,
            300,
            400,
            &MixConfig { olap_fraction: 0.05, ..Default::default() },
        );
        let report = run_concurrent(&engine, rel, &ops, 4, 1);
        assert_eq!(report.oltp.ops + report.olap.ops, 400);
        assert_eq!(report.oltp.errors + report.olap.errors, 0);
    }

    #[test]
    fn group_sum_matches_manual_grouping() {
        let engine = Mem::new();
        let gen = Generator::new(8);
        let rel = load_customers(&engine, &gen, 300).unwrap();
        let (key, value) =
            (crate::tpcc::customer_attr::C_D_ID, crate::tpcc::customer_attr::C_BALANCE);
        let plan = engine.plan(&LogicalPlan::group_sum(rel, key, value)).unwrap();
        let out = physical::execute(&engine, &plan, ThreadingPolicy::Single).unwrap();
        let groups = out.as_groups().unwrap().to_vec();
        // Manual oracle.
        let mut expect: std::collections::HashMap<i64, f64> = std::collections::HashMap::new();
        for i in 0..300 {
            let rec = gen.customer(i);
            let k = rec[crate::tpcc::customer_attr::C_D_ID as usize].as_i64().unwrap();
            let v = rec[crate::tpcc::customer_attr::C_BALANCE as usize].as_f64().unwrap();
            *expect.entry(k).or_insert(0.0) += v;
        }
        assert_eq!(groups.len(), expect.len());
        for (k, sum) in groups {
            assert!((sum - expect[&k]).abs() < 1e-6, "group {k}");
        }
    }

    #[test]
    fn streams_include_group_bys() {
        let gen = Generator::new(5);
        let cfg = MixConfig { olap_fraction: 0.5, group_fraction: 0.5, ..Default::default() };
        let ops = mixed_stream(&gen, 1, 100, 2000, &cfg);
        assert!(ops.iter().any(|o| matches!(o, Op::GroupSum { .. })));
        // And the driver executes them without error.
        let engine = Mem::new();
        let rel = load_customers(&engine, &gen, 100).unwrap();
        let report = run_sequential(&engine, rel, &ops[..200]);
        assert_eq!(report.olap.errors + report.oltp.errors, 0);
    }

    #[test]
    fn loaders_populate() {
        let engine = Mem::new();
        let gen = Generator::new(4);
        let c = load_customers(&engine, &gen, 50).unwrap();
        let i = load_items(&engine, &gen, 70).unwrap();
        assert_eq!(engine.row_count(c).unwrap(), 50);
        assert_eq!(engine.row_count(i).unwrap(), 70);
        // Sum over the engine matches the generator's analytic expectation.
        let plan = engine.plan(&LogicalPlan::sum(i, crate::tpcc::item_attr::I_PRICE)).unwrap();
        let out = physical::execute(&engine, &plan, ThreadingPolicy::Single).unwrap();
        let sum = out.as_sum().unwrap();
        assert!((sum - gen.expected_item_price_sum(70)).abs() < 1e-9);
    }
}
