//! Physical-plan interpreter: executes a routed [`PhysicalPlan`] against
//! any [`StorageEngine`], on the host for host routes and through the
//! engine's device hooks for device routes.
//!
//! **Bit-identity across routes** is the module's invariant and what the
//! planner property tests pin: every route reduces in the *canonical
//! order* — the device kernels' two-pass tree reduction
//! ([`htapg_device::kernels::reduce_seg_len`] segmentation, per-segment
//! [`htapg_device::kernels::tree_sum`], then a tree sum of the partials).
//! On the host, [`htapg_device::kernels::SegmentReducer`] replicates it
//! straight from the column's blocks, one segment at a time, so thread
//! count and block boundaries cannot perturb the result; the naive volcano
//! oracle ([`volcano_sum`]) feeds the same reduction from tuple-at-a-time
//! reads. A query may therefore bounce
//! between host and device from one execution to the next (cache warmth,
//! relation growth) without ever changing a single result bit.
//!
//! Every executed node opens a `plan.*` span carrying the route, the
//! planner's estimate, and the input rows, so PR 4's `TraceReport` renders
//! estimated-vs-actual virtual ns per plan node (DESIGN.md §12).

use htapg_core::engine::StorageEngine;
use htapg_core::plan::{
    LogicalPlan, PhysicalNode, PhysicalOp, PhysicalPlan, Predicate, Route, ScanStrategy,
};
use htapg_core::{obs, AttrId, DataType, Error, Record, RelationId, Result, Value};
use htapg_device::kernels::{self, Decoder, SegmentReducer};
use std::collections::BTreeMap;

use crate::threading::{run_blocks, ThreadingPolicy};

/// Result of interpreting a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    Sum(f64),
    Groups(Vec<(i64, f64)>),
    Records(Vec<Record>),
    Record(Record),
    Updated,
}

impl QueryOutput {
    pub fn as_sum(&self) -> Option<f64> {
        match self {
            QueryOutput::Sum(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_groups(&self) -> Option<&[(i64, f64)]> {
        match self {
            QueryOutput::Groups(g) => Some(g),
            _ => None,
        }
    }
}

/// The canonical reduction: segment exactly like the device's pass 1
/// (`reduce_seg_len`), tree-sum each segment, tree-sum the partials.
/// Bit-identical to [`kernels::reduce_sum_f64`] over the same values.
pub fn canonical_sum(values: &[f64]) -> f64 {
    reduce_values(values, kernels::reduce_seg_len(values.len()), None)
}

/// Pooled canonical reduction, bit-identical to [`canonical_sum`] for every
/// pool size. The canonical segmentation has at most
/// [`kernels::REDUCE_GRID`] segments, less than one pool morsel, so the
/// pool would run them inline on the caller anyway: the serial pass is the
/// pooled one.
pub fn pooled_canonical_sum(values: &[f64], _policy: ThreadingPolicy) -> f64 {
    canonical_sum(values)
}

/// Canonical *fused* filter+sum: per segment, compact the values matching
/// `pred` and tree-sum the compacted slice — exactly the semantics of
/// [`kernels::filter_partials_f64`], so host and device filtered sums are
/// bit-identical.
pub fn canonical_filter_sum(values: &[f64], pred: &Predicate) -> f64 {
    reduce_values(values, kernels::reduce_seg_len(values.len()), Some(pred))
}

/// The *sharded* canonical reduction: one tree-ordered partial per
/// placement fragment (`partition_rows` consecutive global rows), then a
/// tree sum of the per-fragment partials in global fragment order.
/// Fragments — not nodes — are the reduction unit, so the result is
/// invariant under node count and placement policy: every cluster width
/// produces exactly these partials, merely computing them on different
/// nodes. Bit-identical to gathering
/// [`kernels::reduce_fragment_partials_f64`] across shards.
pub fn sharded_canonical_sum(values: &[f64], partition_rows: usize) -> f64 {
    reduce_values(values, partition_rows, None)
}

/// Sharded fused filter+sum: per fragment, tree-sum the qualifying values
/// (the host mirror of [`kernels::filter_fragment_partials_f64`]).
pub fn sharded_canonical_filter_sum(
    values: &[f64],
    pred: &Predicate,
    partition_rows: usize,
) -> f64 {
    reduce_values(values, partition_rows, Some(pred))
}

/// Sharded group-sum over collected key/value columns: each fragment
/// groups its values by key in row order and tree-reduces per key; each
/// key's final sum is the tree sum of its per-fragment partials in global
/// fragment order. Returns `(key, sum)` ordered by key — the host mirror
/// of gathering [`kernels::keyed_fragment_partials_f64`] across shards.
pub fn sharded_group_sum(keys: &[i64], values: &[f64], partition_rows: usize) -> Vec<(i64, f64)> {
    let part = partition_rows.max(1);
    let mut acc: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for (kf, vf) in keys.chunks(part).zip(values.chunks(part)) {
        let mut frag: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for (&k, &v) in kf.iter().zip(vf) {
            frag.entry(k).or_default().push(v);
        }
        for (k, vs) in frag {
            acc.entry(k).or_default().push(kernels::tree_sum(&vs));
        }
    }
    acc.into_iter().map(|(k, partials)| (k, kernels::tree_sum(&partials))).collect()
}

/// Pooled variant of [`canonical_filter_sum`]: the serial pass, for the
/// reason given at [`pooled_canonical_sum`].
pub fn pooled_canonical_filter_sum(
    values: &[f64],
    pred: &Predicate,
    _policy: ThreadingPolicy,
) -> f64 {
    canonical_filter_sum(values, pred)
}

/// A canonical reducer at `seg_len` rows per segment, keeping only the
/// values matching `pred` when there is one.
fn reducer(
    seg_len: usize,
    pred: Option<&Predicate>,
) -> SegmentReducer<impl Fn(f64) -> bool + Copy> {
    SegmentReducer::with_filter(seg_len, pred.map(|&p| move |v| p.matches(v)))
}

fn reduce_values(values: &[f64], seg_len: usize, pred: Option<&Predicate>) -> f64 {
    let mut r = reducer(seg_len, pred);
    r.push_f64s(values);
    r.finish()
}

/// Reduce a numeric column canonically under an optional predicate, at
/// `seg_len` rows per segment (`None`: the flat segmentation of the
/// column's row count). The column streams through the reducer — blocks
/// of a contiguous column are decoded straight into its scratch — so it
/// is read once and never materialized.
fn reduce_column(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
    seg_len: Option<usize>,
    pred: Option<&Predicate>,
) -> Result<f64> {
    let dec = numeric_decoder(engine, rel, attr)?;
    let rows = engine.row_count(rel)? as usize;
    let mut r = reducer(seg_len.unwrap_or_else(|| kernels::reduce_seg_len(rows)), pred);
    let contiguous = strategy == ScanStrategy::ContiguousBytes
        && engine.with_column_bytes(rel, attr, &mut |block| r.push_bytes(block, dec))?;
    if !contiguous {
        for_each_f64(engine, rel, attr, ScanStrategy::ValueVisit, |run| r.push_f64s(run))?;
    }
    if seg_len.is_some() || r.rows() == rows {
        return Ok(r.finish());
    }
    // The row count moved between the two reads (a concurrent insert), so
    // the flat segmentation is off: collect, then segment what was read.
    let values = collect_f64(engine, rel, attr, strategy)?;
    Ok(reduce_values(&values, kernels::reduce_seg_len(values.len()), pred))
}

/// The `f64` block decoder of a numeric column; a typed error otherwise.
fn numeric_decoder(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
) -> Result<Decoder<f64>> {
    let ty = engine.schema(rel)?.ty(attr)?;
    kernels::f64_decoder(ty).ok_or(Error::NonNumericAggregate { attr, got: ty.name() })
}

/// Values per run of [`for_each_run`]: a run's decode and its consumer
/// both stay in L1.
const RUN: usize = 2048;

/// Visit a column's values in row order, in runs of at most [`RUN`].
/// Contiguous blocks are decoded through `dec` when the plan says they are
/// available; otherwise — or if the engine declines at run time, the
/// overlay may have filled since planning — the value visit is batched.
fn for_each_run<T: Copy + Default>(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
    dec: Decoder<T>,
    from_value: impl Fn(&Value) -> T,
    mut f: impl FnMut(&[T]),
) -> Result<()> {
    let mut run = [T::default(); RUN];
    if strategy == ScanStrategy::ContiguousBytes {
        let used = engine.with_column_bytes(rel, attr, &mut |block| {
            for bytes in block.chunks(RUN * dec.width) {
                let run = &mut run[..bytes.len() / dec.width];
                (dec.decode)(bytes, run);
                f(run);
            }
        })?;
        if used {
            return Ok(());
        }
    }
    let mut len = 0;
    engine.scan_column(rel, attr, &mut |_, v| {
        run[len] = from_value(v);
        len += 1;
        if len == RUN {
            f(&run);
            len = 0;
        }
    })?;
    f(&run[..len]);
    Ok(())
}

/// [`for_each_run`] over a numeric column, as `f64`; a typed error for any
/// other column.
fn for_each_f64(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
    f: impl FnMut(&[f64]),
) -> Result<()> {
    let dec = numeric_decoder(engine, rel, attr)?;
    let as_f64 = |v: &Value| v.as_f64().expect("column type checked numeric above");
    for_each_run(engine, rel, attr, strategy, dec, as_f64, f)
}

/// Materialize a numeric column as `Vec<f64>` in row order, preferring the
/// contiguous fast path when the plan says it is available.
pub fn collect_f64(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(engine.row_count(rel)? as usize);
    for_each_f64(engine, rel, attr, strategy, |run| out.extend_from_slice(run))?;
    Ok(out)
}

/// Collect an integer key column in row order.
fn collect_keys(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
) -> Result<Vec<i64>> {
    let dec = match engine.schema(rel)?.ty(attr)? {
        DataType::Int64 => {
            Decoder { width: 8, decode: |b, out| kernels::decode_le(b, out, i64::from_le_bytes) }
        }
        DataType::Int32 | DataType::Date => Decoder {
            width: 4,
            decode: |b, out| kernels::decode_le(b, out, |x| i32::from_le_bytes(x).into()),
        },
        ty => return Err(Error::NonNumericAggregate { attr, got: ty.name() }),
    };
    let mut keys = Vec::with_capacity(engine.row_count(rel)? as usize);
    for_each_run(
        engine,
        rel,
        attr,
        strategy,
        dec,
        |v| v.as_i64().expect("key type checked integer above"),
        |run| keys.extend_from_slice(run),
    )?;
    Ok(keys)
}

fn length_mismatch(keys: usize, values: usize) -> Error {
    Error::Internal(format!("group-sum column length mismatch: {keys} keys vs {values} values"))
}

/// Host group-sum: group values by key preserving row order, reduce each
/// group canonically, return `(key, sum)` ordered by key. `strategy` is
/// the scan strategy of both columns. The pooled route distributes the
/// per-group reductions over the morsel pool (fold in group order —
/// bit-identical to the serial pass).
pub fn group_sum_host(
    engine: &dyn StorageEngine,
    rel: RelationId,
    key_attr: AttrId,
    value_attr: AttrId,
    strategy: ScanStrategy,
    policy: Option<ThreadingPolicy>,
) -> Result<Vec<(i64, f64)>> {
    group_sum_scans(engine, rel, (key_attr, strategy), (value_attr, strategy), policy)
}

/// Group ids in key order, the key of each id, and each id's row count.
/// An id is `k - min` while the observed key span is at most twice the row
/// count (some ids then count no row), else the key's rank among the
/// sorted distinct keys; either way no array is sized by the key span
/// alone. The ids reuse the keys' buffer.
fn group_ids(keys: Vec<i64>) -> (Vec<usize>, Vec<i64>, Vec<usize>) {
    if keys.is_empty() {
        return (Vec::new(), Vec::new(), Vec::new());
    }
    let (min, max) = keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let dense = max.abs_diff(min) <= 2 * keys.len() as u64;
    let id_keys: Vec<i64> = if dense {
        (min..=max).collect()
    } else {
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct
    };
    let mut counts = vec![0usize; id_keys.len()];
    let ids = keys
        .into_iter()
        .map(|k| {
            let id = if dense {
                k.abs_diff(min) as usize
            } else {
                id_keys.binary_search(&k).expect("every key is among the distinct keys")
            };
            counts[id] += 1;
            id
        })
        .collect();
    (ids, id_keys, counts)
}

/// The host group-sum body. A stable counting sort over group ids
/// scatters each value, straight from the value scan, to its group's next
/// slot, so each group's values lie contiguous and in row order; each
/// group then reduces canonically — the same bits as the
/// `BTreeMap<i64, Vec<f64>>` grouping of [`volcano_group_sum`].
fn group_sum_scans(
    engine: &dyn StorageEngine,
    rel: RelationId,
    (key_attr, key_strategy): (AttrId, ScanStrategy),
    (value_attr, value_strategy): (AttrId, ScanStrategy),
    policy: Option<ThreadingPolicy>,
) -> Result<Vec<(i64, f64)>> {
    let (ids, id_keys, mut end) = group_ids(collect_keys(engine, rel, key_attr, key_strategy)?);
    // `end[g]` holds group g's row count, then its start offset, and after
    // the scatter its end: group g is `grouped[end[g - 1]..end[g]]`.
    let mut offset = 0;
    for e in end.iter_mut() {
        (*e, offset) = (offset, offset + *e);
    }
    let mut grouped = vec![0.0; ids.len()];
    let mut row = 0;
    for_each_f64(engine, rel, value_attr, value_strategy, |run| {
        if let Some(run_ids) = ids.get(row..row + run.len()) {
            for (&g, &v) in run_ids.iter().zip(run) {
                grouped[end[g]] = v;
                end[g] += 1;
            }
        }
        row += run.len();
    })?;
    if row != ids.len() {
        return Err(length_mismatch(ids.len(), row));
    }
    let sums = |lo: usize, hi: usize| -> Vec<(i64, f64)> {
        (lo..hi)
            .filter_map(|g| {
                let start = if g == 0 { 0 } else { end[g - 1] };
                let group = &grouped[start..end[g]];
                // Up to one row per segment, the canonical partials are the
                // values themselves: the reduction is their tree sum.
                let sum = match group.len() {
                    0 => return None,
                    n if kernels::reduce_seg_len(n) == 1 => kernels::tree_sum(group),
                    _ => canonical_sum(group),
                };
                Some((id_keys[g], sum))
            })
            .collect()
    };
    Ok(match policy {
        None => sums(0, id_keys.len()),
        Some(policy) => run_blocks(
            id_keys.len() as u64,
            policy,
            |lo, hi| sums(lo as usize, hi as usize),
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
            Vec::new(),
        ),
    })
}

/// The naive volcano oracle: tuple-at-a-time `read_field` per row, then
/// the canonical reduction. Every planner route must be bit-identical to
/// this (the property the planner tests check).
pub fn volcano_sum(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> Result<f64> {
    Ok(canonical_sum(&volcano_values(engine, rel, attr)?))
}

/// Volcano oracle for the fused filter+sum shape.
pub fn volcano_filter_sum(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    pred: &Predicate,
) -> Result<f64> {
    Ok(canonical_filter_sum(&volcano_values(engine, rel, attr)?, pred))
}

/// Volcano oracle for group-sum.
pub fn volcano_group_sum(
    engine: &dyn StorageEngine,
    rel: RelationId,
    key_attr: AttrId,
    value_attr: AttrId,
) -> Result<Vec<(i64, f64)>> {
    let rows = engine.row_count(rel)?;
    let mut groups: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for row in 0..rows {
        let k = engine.read_field(rel, row, key_attr)?.as_i64()?;
        let v = engine.read_field(rel, row, value_attr)?.as_f64()?;
        groups.entry(k).or_default().push(v);
    }
    Ok(groups.into_iter().map(|(k, vs)| (k, canonical_sum(&vs))).collect())
}

/// Single-node volcano oracle for a *sharded* plan: tuple-at-a-time reads
/// fed through the fragment-granularity reduction. Every scatter-gather
/// execution, at any node count, must be bit-identical to this.
pub fn sharded_volcano_sum(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    partition_rows: usize,
) -> Result<f64> {
    Ok(sharded_canonical_sum(&volcano_values(engine, rel, attr)?, partition_rows))
}

/// Sharded volcano oracle for the fused filter+sum shape.
pub fn sharded_volcano_filter_sum(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    pred: &Predicate,
    partition_rows: usize,
) -> Result<f64> {
    Ok(sharded_canonical_filter_sum(&volcano_values(engine, rel, attr)?, pred, partition_rows))
}

/// Sharded volcano oracle for group-sum.
pub fn sharded_volcano_group_sum(
    engine: &dyn StorageEngine,
    rel: RelationId,
    key_attr: AttrId,
    value_attr: AttrId,
    partition_rows: usize,
) -> Result<Vec<(i64, f64)>> {
    let rows = engine.row_count(rel)?;
    let mut keys = Vec::with_capacity(rows as usize);
    let mut values = Vec::with_capacity(rows as usize);
    for row in 0..rows {
        keys.push(engine.read_field(rel, row, key_attr)?.as_i64()?);
        values.push(engine.read_field(rel, row, value_attr)?.as_f64()?);
    }
    Ok(sharded_group_sum(&keys, &values, partition_rows))
}

fn volcano_values(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> Result<Vec<f64>> {
    let ty = engine.schema(rel)?.ty(attr)?;
    if !ty.is_numeric() {
        return Err(Error::NonNumericAggregate { attr, got: ty.name() });
    }
    let rows = engine.row_count(rel)?;
    let mut values = Vec::with_capacity(rows as usize);
    for row in 0..rows {
        values.push(engine.read_field(rel, row, attr)?.as_f64()?);
    }
    Ok(values)
}

fn node_span(node: &PhysicalNode) -> obs::SpanGuard {
    let mut span = obs::span("plan", node.op.span_name());
    if span.is_recording() {
        span.arg("route", node.route.label());
        span.arg("est_ns", node.estimated_ns);
        span.arg("raw_est_ns", node.raw_estimated_ns);
        span.arg("rows", node.rows);
        span.arg("scan", node.strategy.label());
        if node.bytes_to_device > 0 {
            span.arg("bytes_to_device", node.bytes_to_device);
        }
        if node.partition_rows > 0 {
            span.arg("part_rows", node.partition_rows);
        }
        if let Some(m) = node.mirror {
            span.arg("mirror", m);
        }
    }
    span
}

/// Execute a routed plan. `policy` is the host pool policy used when a
/// node is routed `HostPooledMorsel` (inline routes always run
/// single-threaded on the issuing thread).
pub fn execute(
    engine: &dyn StorageEngine,
    plan: &PhysicalPlan,
    policy: ThreadingPolicy,
) -> Result<QueryOutput> {
    let mut executed = plan.root.route;
    exec_node(engine, &plan.root, policy, &mut executed)
}

/// What [`execute_observed`] learned from one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    pub output: QueryOutput,
    /// The route that actually ran: the planned root route, unless a
    /// device fault/stale replica degraded the node to the host fallback.
    pub executed_route: Route,
    /// Virtual ns the execution charged to the engine's trace clock
    /// (zero for host-only engines, whose work advances no virtual time).
    pub actual_ns: u64,
    /// The root node's observed cost fell outside the calibrated
    /// tolerance band — the replanning trigger.
    pub diverged: bool,
}

/// Execute a plan and feed the root's estimated-vs-actual residual back
/// into the engine's [`calibration
/// profiles`](htapg_core::calibrate::CalibrationProfiles), keyed by the
/// route that *actually executed* (a failed-then-degraded device node is
/// attributed to the host fallback, never to the device). Engines without
/// calibration behave exactly like [`execute`].
pub fn execute_observed(
    engine: &dyn StorageEngine,
    plan: &PhysicalPlan,
    policy: ThreadingPolicy,
) -> Result<ExecOutcome> {
    let clock = engine.trace_clock();
    let t0 = clock.as_ref().map_or(0, |c| c.now_ns());
    let mut executed = plan.root.route;
    let output = exec_node(engine, &plan.root, policy, &mut executed)?;
    let actual_ns = clock.as_ref().map_or(0, |c| c.now_ns()).saturating_sub(t0);
    let mut diverged = false;
    if let Some(cal) = engine.calibration() {
        let op = plan.root.op.span_name();
        cal.observe(op, executed.label(), plan.root.raw_estimated_ns, actual_ns);
        // Only a node that ran its planned route can diverge from its own
        // estimate; a fallback's residual belongs to the fallback route.
        diverged = executed == plan.root.route
            && cal.diverged(op, executed.label(), plan.root.estimated_ns, actual_ns);
    }
    Ok(ExecOutcome { output, executed_route: executed, actual_ns, diverged })
}

/// What [`execute_adaptive`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    pub output: QueryOutput,
    pub diverged: bool,
    /// The route a post-divergence replan chose, when one happened. The
    /// result is *not* re-executed — routes are bit-identical by the
    /// module invariant — so the fresh route simply serves the next
    /// execution of the same shape.
    pub replanned: Option<Route>,
}

/// Plan → execute with residual feedback → replan on divergence. The
/// workload driver's adaptivity loop: calibration happens live under
/// mixed load, and a diverged estimate triggers an immediate replan
/// (counted on the `plan.replans` metric).
pub fn execute_adaptive(
    engine: &dyn StorageEngine,
    logical: &LogicalPlan,
    policy: ThreadingPolicy,
) -> Result<AdaptiveOutcome> {
    let plan = engine.plan(logical)?;
    let outcome = execute_observed(engine, &plan, policy)?;
    let mut replanned = None;
    if outcome.diverged {
        obs::metrics().counter("plan.replans").inc();
        replanned = Some(engine.plan(logical)?.route());
    }
    Ok(AdaptiveOutcome { output: outcome.output, diverged: outcome.diverged, replanned })
}

fn exec_node(
    engine: &dyn StorageEngine,
    node: &PhysicalNode,
    policy: ThreadingPolicy,
    executed: &mut Route,
) -> Result<QueryOutput> {
    let mut span = node_span(node);
    match &node.op {
        PhysicalOp::Materialize { rel, rows } => {
            Ok(QueryOutput::Records(engine.materialize_rows(*rel, rows)?))
        }
        PhysicalOp::PointRead { rel, row } => {
            Ok(QueryOutput::Record(engine.read_record(*rel, *row)?))
        }
        PhysicalOp::Update { rel, row, attr, value } => {
            engine.update_field(*rel, *row, *attr, value)?;
            Ok(QueryOutput::Updated)
        }
        PhysicalOp::Project { attrs } => {
            let child = node
                .children
                .first()
                .ok_or_else(|| Error::Internal("project without input".into()))?;
            let out = exec_node(engine, child, policy, executed)?;
            match out {
                QueryOutput::Records(recs) => Ok(QueryOutput::Records(
                    recs.into_iter()
                        .map(|r| attrs.iter().map(|&a| r[a as usize].clone()).collect())
                        .collect(),
                )),
                QueryOutput::Record(r) => {
                    Ok(QueryOutput::Record(attrs.iter().map(|&a| r[a as usize].clone()).collect()))
                }
                other => Ok(other),
            }
        }
        PhysicalOp::AggregateSum => {
            let (rel, attr, pred) = sum_input(node)?;
            exec_sum(engine, node, rel, attr, pred, &mut span, executed)
        }
        PhysicalOp::AggregateGroupSum { key_attr } => {
            let (rel, value_attr, key_strategy) = group_input(node)?;
            let key = (*key_attr, key_strategy);
            exec_group_sum(engine, node, rel, key, value_attr, policy, &mut span, executed)
        }
        PhysicalOp::Scan { rel, attr } => {
            // A bare scan materializes the column as records of one value
            // (rarely used directly; aggregates inline their scans).
            let values = collect_f64(engine, *rel, *attr, node.strategy)?;
            Ok(QueryOutput::Records(values.into_iter().map(|v| vec![Value::Float64(v)]).collect()))
        }
        PhysicalOp::Filter { .. } => {
            Err(Error::Internal("filter outside an aggregate is not executable".into()))
        }
        PhysicalOp::Gather { .. } => {
            Err(Error::Internal("gather is executed by the engine's scatter hook".into()))
        }
    }
}

/// Pull `(rel, attr, predicate)` out of an `AggregateSum` node's children.
/// A scatter root's only child is the `Gather` node; all per-shard
/// subtrees scan the same `(rel, attr)` with the same predicate, so the
/// first subtree is descended into as the representative.
fn sum_input(node: &PhysicalNode) -> Result<(RelationId, AttrId, Option<Predicate>)> {
    let mut input = node
        .children
        .first()
        .ok_or_else(|| Error::Internal("aggregate without scan input".into()))?;
    if matches!(input.op, PhysicalOp::Gather { .. }) {
        input = input
            .children
            .first()
            .and_then(|sub| sub.children.first())
            .ok_or_else(|| Error::Internal("gather without per-shard subtree".into()))?;
    }
    match &input.op {
        PhysicalOp::Scan { rel, attr } => Ok((*rel, *attr, None)),
        PhysicalOp::Filter { pred } => match input.children.first().map(|c| &c.op) {
            Some(PhysicalOp::Scan { rel, attr }) => Ok((*rel, *attr, Some(*pred))),
            _ => Err(Error::Internal("filter without scan input".into())),
        },
        _ => Err(Error::Internal("aggregate without scan input".into())),
    }
}

/// Pull `(rel, value_attr, key scan strategy)` out of a group-sum node
/// (children are the key scan then the value scan; for a scatter root,
/// descend through the `Gather` into the first per-shard subtree first).
fn group_input(node: &PhysicalNode) -> Result<(RelationId, AttrId, ScanStrategy)> {
    let mut holder = node;
    if let Some(first) = node.children.first() {
        if matches!(first.op, PhysicalOp::Gather { .. }) {
            holder = first
                .children
                .first()
                .ok_or_else(|| Error::Internal("gather without per-shard subtree".into()))?;
        }
    }
    let key_strategy = holder.children.first().map_or(holder.strategy, |k| k.strategy);
    match holder.children.last().map(|c| &c.op) {
        Some(PhysicalOp::Scan { rel, attr }) => Ok((*rel, *attr, key_strategy)),
        _ => Err(Error::Internal("group-sum without value scan".into())),
    }
}

fn exec_sum(
    engine: &dyn StorageEngine,
    node: &PhysicalNode,
    rel: RelationId,
    attr: AttrId,
    pred: Option<Predicate>,
    span: &mut obs::SpanGuard,
    executed: &mut Route,
) -> Result<QueryOutput> {
    if let Route::Scatter { .. } = node.route {
        // Sharded placement: the engine fans the aggregate out to the
        // owning shards and gathers the per-fragment partials in canonical
        // order. On failure (exhausted retries, no hook) degrade to the
        // host sharded reduction — same fragment geometry, bit-identical.
        match engine.scatter_sum(rel, attr, pred.as_ref()) {
            Ok(sum) => return Ok(QueryOutput::Sum(sum)),
            Err(e) if !matches!(e, Error::NonNumericAggregate { .. }) => {
                if span.is_recording() {
                    span.arg("fallback", "host");
                }
                *executed = Route::InlineVolcano;
            }
            Err(e) => return Err(e),
        }
    }
    if node.route == Route::DevicePipelined {
        let device_result = match pred {
            None => engine.device_sum_column(rel, attr),
            Some(ref p) => engine.device_filter_sum(rel, attr, p),
        };
        match device_result {
            Ok(sum) => return Ok(QueryOutput::Sum(sum)),
            // Stale replica, device fault, or no hook: degrade to the host
            // canonical reduction — bit-identical, just differently
            // priced. Recorded on the span so EXPLAIN shows the miss, and
            // on `executed` so calibration attributes the residual to the
            // route that actually ran.
            Err(e) if !matches!(e, Error::NonNumericAggregate { .. }) => {
                if span.is_recording() {
                    span.arg("fallback", "host");
                }
                *executed = Route::InlineVolcano;
            }
            Err(e) => return Err(e),
        }
    }
    // Sharded plans reduce at fragment granularity regardless of who
    // executes them, so the host fallback matches the gathered result.
    let seg_len = (node.partition_rows > 0).then_some(node.partition_rows as usize);
    Ok(QueryOutput::Sum(reduce_column(engine, rel, attr, node.strategy, seg_len, pred.as_ref())?))
}

#[allow(clippy::too_many_arguments)]
fn exec_group_sum(
    engine: &dyn StorageEngine,
    node: &PhysicalNode,
    rel: RelationId,
    key: (AttrId, ScanStrategy),
    value_attr: AttrId,
    policy: ThreadingPolicy,
    span: &mut obs::SpanGuard,
    executed: &mut Route,
) -> Result<QueryOutput> {
    let (key_attr, key_strategy) = key;
    if let Route::Scatter { .. } = node.route {
        match engine.scatter_group_sum(rel, key_attr, value_attr) {
            Ok(groups) => return Ok(QueryOutput::Groups(groups)),
            Err(e) if !matches!(e, Error::NonNumericAggregate { .. }) => {
                if span.is_recording() {
                    span.arg("fallback", "host");
                }
                *executed = Route::InlineVolcano;
            }
            Err(e) => return Err(e),
        }
    }
    if node.route == Route::DevicePipelined {
        match engine.device_group_sum(rel, key_attr, value_attr) {
            Ok(groups) => return Ok(QueryOutput::Groups(groups)),
            Err(e) if !matches!(e, Error::NonNumericAggregate { .. }) => {
                if span.is_recording() {
                    span.arg("fallback", "host");
                }
                *executed = Route::InlineVolcano;
            }
            Err(e) => return Err(e),
        }
    }
    if node.partition_rows > 0 {
        let keys = collect_keys(engine, rel, key_attr, key_strategy)?;
        let values = collect_f64(engine, rel, value_attr, node.strategy)?;
        if keys.len() != values.len() {
            return Err(length_mismatch(keys.len(), values.len()));
        }
        return Ok(QueryOutput::Groups(sharded_group_sum(
            &keys,
            &values,
            node.partition_rows as usize,
        )));
    }
    let pooled = if node.route == Route::HostPooledMorsel { Some(policy) } else { None };
    Ok(QueryOutput::Groups(group_sum_scans(engine, rel, key, (value_attr, node.strategy), pooled)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::plan::LogicalPlan;
    use htapg_core::prng::Prng;
    use htapg_core::sync::RwLock;
    use htapg_core::{LayoutTemplate, Relation, RowId, Schema};
    use htapg_taxonomy::{
        Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
        LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
    };

    // A minimal NSM engine (mirrors the Toy engine in core's tests).
    struct Toy {
        rel: RwLock<Option<Relation>>,
    }

    impl StorageEngine for Toy {
        fn name(&self) -> &'static str {
            "TOY-EXEC"
        }

        fn classification(&self) -> Classification {
            Classification {
                name: "TOY-EXEC",
                layout_handling: LayoutHandling::Single,
                layout_flexibility: LayoutFlexibility::Inflexible,
                layout_adaptability: LayoutAdaptability::Static,
                data_location: DataLocation::host_only(),
                data_locality: DataLocality::Centralized,
                fragment_linearization: FragmentLinearization::FatNsmFixed,
                fragment_scheme: FragmentScheme::None,
                processor_support: ProcessorSupport::Cpu,
                workload_support: WorkloadSupport::Htap,
                year: 2017,
            }
        }

        fn create_relation(&self, schema: Schema) -> Result<RelationId> {
            *self.rel.write() = Some(Relation::new(schema.clone(), LayoutTemplate::nsm(&schema))?);
            Ok(0)
        }

        fn schema(&self, _rel: RelationId) -> Result<Schema> {
            Ok(self.rel.read().as_ref().unwrap().schema().clone())
        }

        fn insert(&self, _rel: RelationId, record: &Record) -> Result<RowId> {
            self.rel.write().as_mut().unwrap().insert(record)
        }

        fn read_record(&self, _rel: RelationId, row: RowId) -> Result<Record> {
            self.rel.read().as_ref().unwrap().read_record(row)
        }

        fn read_field(&self, _rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
            self.rel.read().as_ref().unwrap().read_value(
                row,
                attr,
                htapg_core::AccessHint::RecordCentric,
            )
        }

        fn update_field(
            &self,
            _rel: RelationId,
            row: RowId,
            attr: AttrId,
            value: &Value,
        ) -> Result<()> {
            self.rel.write().as_mut().unwrap().update_field(row, attr, value)
        }

        fn scan_column(
            &self,
            _rel: RelationId,
            attr: AttrId,
            visit: &mut dyn FnMut(RowId, &Value),
        ) -> Result<()> {
            let guard = self.rel.read();
            let rel = guard.as_ref().unwrap();
            let ty = rel.schema().ty(attr)?;
            rel.for_each_field(attr, |row, bytes| visit(row, &Value::decode(ty, bytes)))
        }

        fn row_count(&self, _rel: RelationId) -> Result<u64> {
            Ok(self.rel.read().as_ref().unwrap().row_count())
        }
    }

    fn toy_with_rows(n: usize, rng: &mut Prng) -> Toy {
        let e = Toy { rel: RwLock::new(None) };
        let s = Schema::of(&[("d", DataType::Int32), ("price", DataType::Float64)]);
        e.create_relation(s).unwrap();
        for _ in 0..n {
            e.insert(
                0,
                &vec![
                    Value::Int32(rng.gen_range(0..8)),
                    Value::Float64(rng.gen_range(0..100_000) as f64 / 7.0),
                ],
            )
            .unwrap();
        }
        e
    }

    #[test]
    fn canonical_sum_matches_device_reduction_shape() {
        // Mirror of the device kernels' bit-identity test, host-side.
        let values: Vec<f64> = (0..123_457).map(|i| (i as f64) * 0.3125).collect();
        let serial = canonical_sum(&values);
        for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
            assert_eq!(serial.to_bits(), pooled_canonical_sum(&values, policy).to_bits());
        }
        // And against the actual device kernel.
        let device = htapg_device::SimDevice::with_defaults();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = device.alloc(bytes.len()).unwrap();
        device.write(buf, 0, &bytes).unwrap();
        let dev = kernels::reduce_sum_f64(&device, buf).unwrap();
        assert_eq!(serial.to_bits(), dev.to_bits());
    }

    #[test]
    fn filter_sum_is_bit_identical_to_device_fused_kernel() {
        let values: Vec<f64> = (0..50_000).map(|i| (i as f64) * 0.5 - 1000.0).collect();
        let pred = Predicate::Ge(0.0);
        let host = canonical_filter_sum(&values, &pred);
        for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
            assert_eq!(
                host.to_bits(),
                pooled_canonical_filter_sum(&values, &pred, policy).to_bits()
            );
        }
        let device = htapg_device::SimDevice::with_defaults();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = device.alloc(bytes.len()).unwrap();
        device.write(buf, 0, &bytes).unwrap();
        let dev = kernels::filter_sum_f64(&device, buf, |v| pred.matches(v)).unwrap();
        assert_eq!(host.to_bits(), dev.to_bits());
    }

    #[test]
    fn sharded_reduction_is_invariant_to_placement() {
        // The fragment partials are fixed by partition_rows alone, so any
        // split of the fragments across nodes gathers to the same bits.
        let values: Vec<f64> = (0..40_000).map(|i| (i as f64) * 0.7 - 3000.0).collect();
        let part = 1024usize;
        let whole = sharded_canonical_sum(&values, part);
        // Simulate a 3-node round-robin placement: per-fragment partials
        // computed shard-locally, merged in global fragment order.
        let frags: Vec<&[f64]> = values.chunks(part).collect();
        let mut partials = vec![0.0f64; frags.len()];
        for node in 0..3 {
            for (f, chunk) in frags.iter().enumerate() {
                if f % 3 == node {
                    partials[f] = kernels::tree_sum(chunk);
                }
            }
        }
        assert_eq!(whole.to_bits(), kernels::tree_sum(&partials).to_bits());
        // When a fragment is exactly a device reduce segment, the sharded
        // geometry coincides with the flat canonical reduction.
        let aligned: Vec<f64> = (0..1024 * 64).map(|i| (i as f64) * 0.3).collect();
        let seg = kernels::reduce_seg_len(aligned.len());
        assert_eq!(
            sharded_canonical_sum(&aligned, seg).to_bits(),
            canonical_sum(&aligned).to_bits()
        );
    }

    #[test]
    fn sharded_group_sum_merges_fragment_partials_per_key() {
        let keys = vec![7i64, 3, 7, 3, 9, 3];
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let got = sharded_group_sum(&keys, &values, 3);
        // Fragment 0: {3: [2.0], 7: [1.0, 3.0]}; fragment 1: {3: [4.0, 6.0], 9: [5.0]}.
        assert_eq!(got, vec![(3, 12.0), (7, 4.0), (9, 5.0)]);
        // Filter variant keeps fragment geometry too.
        let pred = Predicate::Ge(3.0);
        let fs = sharded_canonical_filter_sum(&values, &pred, 3);
        let frag0 = kernels::tree_sum(&[3.0]);
        let frag1 = kernels::tree_sum(&[4.0, 5.0, 6.0]);
        assert_eq!(fs.to_bits(), kernels::tree_sum(&[frag0, frag1]).to_bits());
    }

    #[test]
    fn plan_threshold_matches_pool_morsel_size() {
        assert_eq!(htapg_core::plan::INLINE_MORSEL_ROWS, crate::pool::MORSEL_ROWS);
    }

    #[test]
    fn executed_plan_matches_volcano_oracle() {
        let mut rng = Prng::seed_from_u64(0xA1);
        for &n in &[0usize, 1, 7, 1000, 70_000] {
            let e = toy_with_rows(n, &mut rng);
            let plan = e.plan(&LogicalPlan::sum(0, 1)).unwrap();
            let got = execute(&e, &plan, ThreadingPolicy::multi8()).unwrap();
            let want = volcano_sum(&e, 0, 1).unwrap();
            assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn group_sum_matches_volcano_oracle() {
        let mut rng = Prng::seed_from_u64(0xA2);
        let e = toy_with_rows(5000, &mut rng);
        let plan = e.plan(&LogicalPlan::group_sum(0, 0, 1)).unwrap();
        let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let want = volcano_group_sum(&e, 0, 0, 1).unwrap();
        assert_eq!(got.as_groups().unwrap(), &want[..]);
        // Keys are sorted and cover the inserted domain.
        let keys: Vec<i64> = want.iter().map(|&(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn update_and_point_read_execute_through_plans() {
        let mut rng = Prng::seed_from_u64(0xA3);
        let e = toy_with_rows(100, &mut rng);
        let upd = e
            .plan(&LogicalPlan::Update { rel: 0, row: 5, attr: 1, value: Value::Float64(42.0) })
            .unwrap();
        assert_eq!(upd.route(), Route::InlineVolcano);
        assert_eq!(execute(&e, &upd, ThreadingPolicy::Single).unwrap(), QueryOutput::Updated);
        let read = e.plan(&LogicalPlan::PointRead { rel: 0, row: 5 }).unwrap();
        match execute(&e, &read, ThreadingPolicy::Single).unwrap() {
            QueryOutput::Record(r) => assert_eq!(r[1], Value::Float64(42.0)),
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn materialize_and_project_execute_through_plans() {
        let mut rng = Prng::seed_from_u64(0xA4);
        let e = toy_with_rows(50, &mut rng);
        let mat = e.plan(&LogicalPlan::Materialize { rel: 0, rows: vec![3, 1, 4] }).unwrap();
        match execute(&e, &mat, ThreadingPolicy::Single).unwrap() {
            QueryOutput::Records(recs) => {
                assert_eq!(recs.len(), 3);
                assert_eq!(recs[0], e.read_record(0, 3).unwrap());
            }
            other => panic!("expected records, got {other:?}"),
        }
        let proj = e
            .plan(&LogicalPlan::Project {
                input: Box::new(LogicalPlan::Materialize { rel: 0, rows: vec![2] }),
                attrs: vec![1],
            })
            .unwrap();
        match execute(&e, &proj, ThreadingPolicy::Single).unwrap() {
            QueryOutput::Records(recs) => {
                assert_eq!(recs[0].len(), 1);
                assert_eq!(recs[0][0], e.read_field(0, 2, 1).unwrap());
            }
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn observed_execution_calibrates_and_triggers_one_replan() {
        use htapg_core::calibrate::Calibrated;
        let mut rng = Prng::seed_from_u64(0xA6);
        let engine = Calibrated::new(Box::new(toy_with_rows(1000, &mut rng)));
        let profiles = engine.profiles();
        let logical = LogicalPlan::sum(0, 1);
        let want = volcano_sum(&engine, 0, 1).unwrap();
        let mut replans = 0;
        for round in 0..6 {
            let out = execute_adaptive(&engine, &logical, ThreadingPolicy::Single).unwrap();
            assert_eq!(out.output.as_sum().unwrap().to_bits(), want.to_bits(), "round {round}");
            if out.diverged {
                replans += 1;
                assert_eq!(out.replanned, Some(Route::InlineVolcano));
            }
        }
        // The Toy engine is host-only: its work advances no virtual time,
        // so every actual is 0 against a positive cache-model estimate.
        // The run that crosses the warm-up threshold flags the stale
        // estimate once; afterwards the calibrated estimate is ~0 and the
        // loop is quiet again.
        assert_eq!(replans, 1, "exactly the warm-up-crossing run diverges");
        assert_eq!(profiles.observations("plan.aggregate.sum", "inline-volcano"), 6);
        let plan = engine.plan(&logical).unwrap();
        assert!(plan.root.raw_estimated_ns > 0, "raw estimate is untouched");
        assert_eq!(plan.estimated_ns(), 0, "calibrated estimate tracks the observed zero");
    }

    #[test]
    fn filtered_sum_plan_matches_oracle() {
        let mut rng = Prng::seed_from_u64(0xA5);
        let e = toy_with_rows(3000, &mut rng);
        let pred = Predicate::Ge(5000.0);
        let plan = e.plan(&LogicalPlan::filter_sum(0, 1, pred)).unwrap();
        let got = execute(&e, &plan, ThreadingPolicy::Single).unwrap();
        let want = volcano_filter_sum(&e, 0, 1, &pred).unwrap();
        assert_eq!(got.as_sum().unwrap().to_bits(), want.to_bits());
    }
}
