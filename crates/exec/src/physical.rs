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
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool::MORSEL_ROWS;
use crate::threading::{run_each, ThreadingPolicy};

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

/// [`canonical_sum`] on the pool: the whole segments that start in each
/// morsel reduce there, on up to `policy.threads()` threads, and the
/// partials join in row order — bit-identical for every policy and pool
/// size. Fewer than two morsels of values reduce on the caller.
pub fn pooled_canonical_sum(values: &[f64], policy: ThreadingPolicy) -> f64 {
    pooled_reduce(values, None, policy)
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

/// [`canonical_filter_sum`] on the pool, split like
/// [`pooled_canonical_sum`].
pub fn pooled_canonical_filter_sum(
    values: &[f64],
    pred: &Predicate,
    policy: ThreadingPolicy,
) -> f64 {
    pooled_reduce(values, Some(pred), policy)
}

/// A canonical reducer at `seg_len` rows per segment, keeping only the
/// values matching `pred` when there is one.
fn reducer(
    seg_len: usize,
    pred: Option<&Predicate>,
) -> SegmentReducer<impl Fn(f64) -> bool + Copy + Send + Sync> {
    SegmentReducer::with_filter(seg_len, pred.map(|&p| move |v| p.matches(v)))
}

fn reduce_values(values: &[f64], seg_len: usize, pred: Option<&Predicate>) -> f64 {
    let mut r = reducer(seg_len, pred);
    r.push_f64s(values);
    r.finish()
}

fn pooled_reduce(values: &[f64], pred: Option<&Predicate>, policy: ThreadingPolicy) -> f64 {
    let mut r = reducer(kernels::reduce_seg_len(values.len()), pred);
    push_block(&mut r, Block::Values(values), policy);
    r.finish()
}

/// Rows per pool morsel.
const MORSEL: usize = MORSEL_ROWS as usize;

/// The policy of a pass over one block of `rows` rows: `policy` once the
/// block holds a morsel for the caller and one for a pool worker, else
/// `Single` — a broadcast would wake workers to share a few hundred rows.
fn block_policy(rows: usize, policy: ThreadingPolicy) -> ThreadingPolicy {
    if rows < 2 * MORSEL {
        ThreadingPolicy::Single
    } else {
        policy
    }
}

/// Rows `lo..hi` cut at the multiples of `unit`, as `(lo, hi)` pieces.
fn cuts(lo: usize, hi: usize, unit: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut at = lo;
    std::iter::from_fn(move || {
        let piece = (at, hi.min((at / unit + 1) * unit));
        at = piece.1;
        (piece.0 < hi).then_some(piece)
    })
}

/// Feed `block`, the rows that follow `r.rows()`, to `r`. Under `Multi`,
/// the whole segments that start in each morsel of a block of at least two
/// morsels reduce there, on the pool; the caller feeds the block's head,
/// which finishes a segment begun in an earlier block, and its tail, which
/// begins one, and appends the morsels' partials in row order. Segment
/// cuts depend on the row index alone and one thread reduces each segment,
/// so the partials — and the bits — are the serial pass's, which every
/// other block takes straight into `r`.
fn push_block<K>(r: &mut SegmentReducer<K>, block: Block<'_, f64>, policy: ThreadingPolicy)
where
    K: Fn(f64) -> bool + Copy + Send + Sync,
{
    fn feed<K: Fn(f64) -> bool + Copy>(r: &mut SegmentReducer<K>, block: Block<'_, f64>) {
        match block {
            Block::Bytes(bytes, dec) => r.push_bytes(bytes, dec),
            Block::Values(values) => r.push_f64s(values),
        }
    }
    if block_policy(block.len(), policy).threads() == 1 {
        return feed(r, block);
    }
    let (base, seg) = (r.rows(), r.seg_len());
    let end = base + block.len();
    // Whole segments cover rows `s0..s1`: shared once they start in two
    // morsels or more.
    let s0 = base.next_multiple_of(seg).min(end);
    let s1 = (end - end % seg).max(s0);
    if s1 == s0 || s0 / MORSEL == (s1 - seg) / MORSEL {
        return feed(r, block);
    }
    feed(r, block.rows(0, s0 - base));
    let mut pieces: Vec<_> = (s0 / MORSEL..=(s1 - seg) / MORSEL)
        .map(|m| {
            let lo = (m * MORSEL).max(s0).next_multiple_of(seg);
            let hi = ((m + 1) * MORSEL).min(s1).next_multiple_of(seg);
            (block.rows(lo - base, hi - base), r.fork())
        })
        .collect();
    run_each(pieces.iter_mut(), policy, |(piece, pr)| feed(pr, *piece));
    for (_, pr) in pieces {
        r.append(pr);
    }
    feed(r, block.rows(s1 - base, end - base));
}

/// Reduce a numeric column canonically under an optional predicate, at
/// `seg_len` rows per segment (`None`: the flat segmentation of the
/// column's row count). The column streams through [`push_block`] —
/// blocks of a contiguous column are decoded straight into the reducers'
/// scratch — so it is read once and never materialized.
fn reduce_column(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
    seg_len: Option<usize>,
    pred: Option<&Predicate>,
    policy: ThreadingPolicy,
) -> Result<f64> {
    let dec = numeric_decoder(engine, rel, attr)?;
    let rows = engine.row_count(rel)? as usize;
    let mut r = reducer(seg_len.unwrap_or_else(|| kernels::reduce_seg_len(rows)), pred);
    for_each_block(engine, rel, attr, strategy, dec, value_f64, |b| push_block(&mut r, b, policy))?;
    if seg_len.is_some() || r.rows() == rows {
        return Ok(r.finish());
    }
    // The row count moved between the two reads (a concurrent insert), so
    // the flat segmentation is off: collect, then segment what was read.
    let values = collect_f64(engine, rel, attr, strategy)?;
    Ok(pooled_reduce(&values, pred, policy))
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

/// The `i64` block decoder of an integer key column; a typed error
/// otherwise.
fn key_decoder(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> Result<Decoder<i64>> {
    Ok(match engine.schema(rel)?.key_ty(attr)? {
        DataType::Int64 => {
            Decoder { width: 8, decode: |b, out| kernels::decode_le(b, out, i64::from_le_bytes) }
        }
        DataType::Int32 | DataType::Date => Decoder {
            width: 4,
            decode: |b, out| kernels::decode_le(b, out, |x| i32::from_le_bytes(x).into()),
        },
        ty => unreachable!("key_ty admits integer types only, not {ty:?}"),
    })
}

fn value_f64(v: &Value) -> f64 {
    v.as_f64().expect("column type checked numeric above")
}

/// Values per run of [`Block::for_each_run`]: a run's decode and its
/// consumer both stay in L1.
const RUN: usize = 2048;

/// One block of a column, its rows in order: packed little-endian bytes
/// with their decoder, or values already decoded (a value-visit run).
#[derive(Clone, Copy)]
enum Block<'a, T> {
    Bytes(&'a [u8], Decoder<T>),
    Values(&'a [T]),
}

impl<T: Copy + Default> Block<'_, T> {
    fn len(&self) -> usize {
        match self {
            Block::Bytes(bytes, dec) => bytes.len() / dec.width,
            Block::Values(values) => values.len(),
        }
    }

    /// Rows `lo..hi` of the block.
    fn rows(&self, lo: usize, hi: usize) -> Self {
        match *self {
            Block::Bytes(bytes, dec) => Block::Bytes(&bytes[lo * dec.width..hi * dec.width], dec),
            Block::Values(values) => Block::Values(&values[lo..hi]),
        }
    }

    /// Decode the block into `out`, which holds exactly its rows.
    fn decode(&self, out: &mut [T]) {
        match *self {
            Block::Bytes(bytes, dec) => (dec.decode)(bytes, out),
            Block::Values(values) => out.copy_from_slice(values),
        }
    }

    /// Visit the block's values in runs of at most `buf.len()`; bytes
    /// decode through `buf`.
    fn for_each_run(&self, buf: &mut [T], mut f: impl FnMut(&[T])) {
        match *self {
            Block::Values(values) => values.chunks(buf.len()).for_each(f),
            Block::Bytes(bytes, dec) => {
                for bytes in bytes.chunks(buf.len() * dec.width) {
                    let run = &mut buf[..bytes.len() / dec.width];
                    (dec.decode)(bytes, run);
                    f(run);
                }
            }
        }
    }
}

/// Visit a column's rows in order as [`Block`]s: the engine's contiguous
/// blocks when the plan says they are available; otherwise — or if the
/// engine declines at run time, the overlay may have filled since
/// planning — value-visit runs of at most [`RUN`] values.
fn for_each_block<T: Copy + Default>(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
    dec: Decoder<T>,
    from_value: impl Fn(&Value) -> T,
    mut f: impl FnMut(Block<'_, T>),
) -> Result<()> {
    if strategy == ScanStrategy::ContiguousBytes
        && engine.with_column_bytes(rel, attr, &mut |bytes| f(Block::Bytes(bytes, dec)))?
    {
        return Ok(());
    }
    let mut run = [T::default(); RUN];
    let mut len = 0;
    engine.scan_column(rel, attr, &mut |_, v| {
        run[len] = from_value(v);
        len += 1;
        if len == RUN {
            f(Block::Values(&run));
            len = 0;
        }
    })?;
    if len > 0 {
        f(Block::Values(&run[..len]));
    }
    Ok(())
}

/// Materialize a numeric column as `Vec<f64>` in row order, preferring the
/// contiguous fast path when the plan says it is available.
pub fn collect_f64(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
) -> Result<Vec<f64>> {
    let dec = numeric_decoder(engine, rel, attr)?;
    let mut out = Vec::with_capacity(engine.row_count(rel)? as usize);
    let mut buf = [0.0; RUN];
    for_each_block(engine, rel, attr, strategy, dec, value_f64, |b| {
        b.for_each_run(&mut buf, |run| out.extend_from_slice(run))
    })?;
    Ok(out)
}

fn length_mismatch(keys: usize, values: usize) -> Error {
    Error::Internal(format!("group-sum column length mismatch: {keys} keys vs {values} values"))
}

/// Host group-sum: group values by key preserving row order, reduce each
/// group canonically, return `(key, sum)` ordered by key. `strategy` is
/// the scan strategy of both columns. With a policy the grouping's morsel
/// passes run on the pool (`None`: inline, as `Single`); the result is
/// bit-identical at every policy and pool size.
pub fn group_sum_host(
    engine: &dyn StorageEngine,
    rel: RelationId,
    key_attr: AttrId,
    value_attr: AttrId,
    strategy: ScanStrategy,
    policy: Option<ThreadingPolicy>,
) -> Result<Vec<(i64, f64)>> {
    let policy = policy.unwrap_or(ThreadingPolicy::Single);
    group_sum_scans(engine, rel, (key_attr, strategy), (value_attr, strategy), policy)
}

/// A key column decoded in row order, and its `(min, max)` key: each
/// morsel decodes its keys and folds their range, on the pool under
/// `policy` for a block of at least two morsels (see [`block_policy`]).
fn decode_keys(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
    policy: ThreadingPolicy,
) -> Result<(Vec<i64>, (i64, i64))> {
    const EMPTY: (i64, i64) = (i64::MAX, i64::MIN);
    let dec = key_decoder(engine, rel, attr)?;
    let mut keys = vec![0; engine.row_count(rel)? as usize];
    let mut ranges = vec![EMPTY; keys.len().div_ceil(MORSEL)];
    let mut rows = 0;
    let as_key = |v: &Value| v.as_i64().expect("key type checked integer above");
    for_each_block(engine, rel, attr, strategy, dec, as_key, |b| {
        let (base, end) = (rows, rows + b.len());
        if keys.len() < end {
            // The relation grew since its row count was read.
            keys.resize(end, 0);
            ranges.resize(end.div_ceil(MORSEL), EMPTY);
        }
        let mut rest = &mut keys[base..end];
        let pieces = cuts(base, end, MORSEL).map(|(lo, hi)| {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
            rest = tail;
            (lo, out)
        });
        let ranges = &mut ranges[base / MORSEL..];
        run_each(pieces.zip(ranges), block_policy(b.len(), policy), |((lo, out), range)| {
            b.rows(lo - base, lo - base + out.len()).decode(out);
            *range = out.iter().fold(*range, |(min, max), &k| (min.min(k), max.max(k)));
        });
        rows = end;
    })?;
    keys.truncate(rows);
    let range = ranges[..rows.div_ceil(MORSEL)]
        .iter()
        .fold(EMPTY, |(lo, hi), &(min, max)| (lo.min(min), hi.max(max)));
    Ok((keys, range))
}

/// The host group-sum body: a stable counting sort over group ids, run as
/// morsel passes on the pool under `policy` (inline under `Single`, and
/// for the passes over the engine's blocks, inline for a block of fewer
/// than two morsels):
///
/// 1. decode the keys, each morsel folding its key range;
/// 2. count each chunk's rows per group id ([`kernels::GroupIds`]; ranked
///    ids first replace each key in place);
/// 3. a prefix over (group, chunk) gives each chunk its first slot in
///    every group;
/// 4. scatter the values, straight from the value scan, chunk by chunk;
/// 5. reduce each group canonically, in the morsel of the grouped array
///    that holds its first value.
///
/// Groups lie in key order and, within a group, the chunks' slots in chunk
/// order and each chunk's in row order, so every group's values are
/// contiguous and in row order at every pool size — the grouping of
/// [`volcano_group_sum`], and so its bits.
fn group_sum_scans(
    engine: &dyn StorageEngine,
    rel: RelationId,
    (key_attr, key_strategy): (AttrId, ScanStrategy),
    (value_attr, value_strategy): (AttrId, ScanStrategy),
    policy: ThreadingPolicy,
) -> Result<Vec<(i64, f64)>> {
    let value_dec = numeric_decoder(engine, rel, value_attr)?;
    let (mut keys, range) = decode_keys(engine, rel, key_attr, key_strategy, policy)?;
    let rows = keys.len();
    if rows == 0 {
        return Ok(Vec::new());
    }
    let ids = kernels::GroupIds::new(&keys, range);
    if ids.ranked {
        // Rank each key once, in place: the passes below take `k - 0`.
        run_each(keys.chunks_mut(MORSEL), policy, |keys| {
            keys.iter_mut().for_each(|k| *k = ids.id(*k) as i64);
        });
    }
    let (min, id_keys) = (if ids.ranked { 0 } else { ids.keys[0] }, ids.keys);
    let groups = id_keys.len();
    let id = |k: i64| k.abs_diff(min) as usize;
    // A chunk is the fewest whole morsels holding 8 rows per group: on
    // average a cache line of values per group and chunk, and the chunks'
    // count arrays together hold at most one entry per 8 rows.
    let chunk = MORSEL * (8 * groups).div_ceil(MORSEL);
    let mut slots = vec![0usize; rows.div_ceil(chunk) * groups];
    run_each(keys.chunks(chunk).zip(slots.chunks_mut(groups)), policy, |(keys, counts)| {
        keys.iter().for_each(|&k| counts[id(k)] += 1);
    });
    // `start[g]` is group g's first slot; `end[g]` runs through each
    // chunk's first slot in the group and stops at the group's end.
    let mut start = vec![0; groups];
    for counts in slots.chunks(groups) {
        start.iter_mut().zip(counts).for_each(|(s, &n)| *s += n);
    }
    let mut offset = 0;
    for s in start.iter_mut() {
        (*s, offset) = (offset, offset + *s);
    }
    let mut end = start.clone();
    for counts in slots.chunks_mut(groups) {
        for (slot, e) in counts.iter_mut().zip(end.iter_mut()) {
            (*slot, *e) = (*e, *e + *slot);
        }
    }
    let grouped: Vec<AtomicU64> = (0..rows).map(|_| AtomicU64::new(0)).collect();
    // Each chunk decodes its values through a run buffer of its own.
    let mut runs = vec![0.0; slots.len() / groups * RUN];
    let mut at = 0;
    for_each_block(engine, rel, value_attr, value_strategy, value_dec, value_f64, |b| {
        let (base, stop) = (at, at + b.len());
        at = stop;
        if stop > rows {
            return;
        }
        let chunks = slots.chunks_mut(groups).zip(runs.chunks_mut(RUN)).skip(base / chunk);
        let policy = block_policy(b.len(), policy);
        run_each(cuts(base, stop, chunk).zip(chunks), policy, |((lo, hi), (cursor, buf))| {
            let mut row = lo;
            b.rows(lo - base, hi - base).for_each_run(buf, |run| {
                for (&k, &v) in keys[row..row + run.len()].iter().zip(run) {
                    let slot = &mut cursor[id(k)];
                    // Chunks own disjoint slots. Relaxed suffices: this
                    // pass's join (each worker's Release completion count,
                    // read with Acquire by the caller) and the reduction's
                    // job queue lock order the stores before its loads.
                    grouped[*slot].store(v.to_bits(), Ordering::Relaxed);
                    *slot += 1;
                }
                row += run.len();
            });
        });
    })?;
    if at != rows {
        return Err(length_mismatch(rows, at));
    }
    // Morsel m of the grouped array reduces the groups whose first value it
    // holds, and publishes their sums like the scatter its values.
    let first_group = |m: usize| start.partition_point(|&s| s < m * MORSEL);
    let sums: Vec<AtomicU64> = (0..groups).map(|_| AtomicU64::new(0)).collect();
    run_each(0..rows.div_ceil(MORSEL), policy, |m| {
        let mut buf = [0.0; REDUCE_GRID];
        for g in first_group(m)..first_group(m + 1) {
            let sum = reduce_group(&grouped[start[g]..end[g]], &mut buf);
            sums[g].store(sum.to_bits(), Ordering::Relaxed);
        }
    });
    let sum = |g: usize| f64::from_bits(sums[g].load(Ordering::Relaxed));
    Ok((0..groups).filter(|&g| end[g] > start[g]).map(|g| (id_keys[g], sum(g))).collect())
}

/// Rows up to which a group's canonical segments hold one row each.
const REDUCE_GRID: usize = kernels::REDUCE_GRID as usize;

/// The canonical reduction of one group, read from its scattered slots
/// through `buf`.
fn reduce_group(group: &[AtomicU64], buf: &mut [f64; REDUCE_GRID]) -> f64 {
    fn load<'a>(slots: &[AtomicU64], buf: &'a mut [f64]) -> &'a [f64] {
        let buf = &mut buf[..slots.len()];
        for (v, s) in buf.iter_mut().zip(slots) {
            *v = f64::from_bits(s.load(Ordering::Relaxed));
        }
        buf
    }
    let seg_len = kernels::reduce_seg_len(group.len());
    if seg_len == 1 {
        // Up to one row per segment, the canonical partials are the values
        // themselves: the reduction is their tree sum.
        return kernels::tree_sum(load(group, buf));
    }
    let mut r = SegmentReducer::new(seg_len);
    for slots in group.chunks(REDUCE_GRID) {
        r.push_f64s(load(slots, buf));
    }
    r.finish()
}

/// Visit every value of `attr` the way a host column scan does (the
/// contiguous fast path, else value visits) and aggregate nothing: warms
/// an engine's access statistics like a repeated analytic scan, without
/// planning a query or charging a device.
pub fn touch_column(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> Result<()> {
    if !engine.with_column_bytes(rel, attr, &mut |_| {})? {
        engine.scan_column(rel, attr, &mut |_, _| {})?;
    }
    Ok(())
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
            exec_sum(engine, node, rel, (attr, pred), policy, &mut span, executed)
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

/// The host policy of a node: the caller's on the pooled route, `Single`
/// on every other (inline routes, and host fallbacks of device and
/// scatter routes).
fn host_policy(node: &PhysicalNode, policy: ThreadingPolicy) -> ThreadingPolicy {
    match node.route {
        Route::HostPooledMorsel => policy,
        _ => ThreadingPolicy::Single,
    }
}

/// Run an off-host node's engine hook (`DevicePipelined`, `Scatter`):
/// `Ok(Some(_))` is its answer. Any error but a typed
/// [`Error::NonNumericAggregate`] (a stale replica, a device fault, a
/// failed gather, no hook) degrades to the host reduction of the same
/// geometry, bit-identical and only differently priced: `Ok(None)`,
/// recorded on the span so EXPLAIN shows the miss, and on `executed` so
/// calibration attributes the residual to the route that actually ran.
/// Host routes never call the hook.
fn try_offload<T>(
    node: &PhysicalNode,
    span: &mut obs::SpanGuard,
    executed: &mut Route,
    offload: impl FnOnce() -> Result<T>,
) -> Result<Option<T>> {
    if !matches!(node.route, Route::DevicePipelined | Route::Scatter { .. }) {
        return Ok(None);
    }
    match offload() {
        Ok(out) => Ok(Some(out)),
        Err(e @ Error::NonNumericAggregate { .. }) => Err(e),
        Err(_) => {
            if span.is_recording() {
                span.arg("fallback", "host");
            }
            *executed = Route::InlineVolcano;
            Ok(None)
        }
    }
}

fn exec_sum(
    engine: &dyn StorageEngine,
    node: &PhysicalNode,
    rel: RelationId,
    (attr, pred): (AttrId, Option<Predicate>),
    policy: ThreadingPolicy,
    span: &mut obs::SpanGuard,
    executed: &mut Route,
) -> Result<QueryOutput> {
    let offload = || engine.offload_sum(rel, attr, pred.as_ref());
    if let Some(sum) = try_offload(node, span, executed, offload)? {
        return Ok(QueryOutput::Sum(sum));
    }
    // Sharded plans reduce at fragment granularity regardless of who
    // executes them, so the host fallback matches the gathered result.
    let seg_len = (node.partition_rows > 0).then_some(node.partition_rows as usize);
    let policy = host_policy(node, policy);
    let sum = reduce_column(engine, rel, attr, node.strategy, seg_len, pred.as_ref(), policy)?;
    Ok(QueryOutput::Sum(sum))
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
    let offload = || engine.offload_group_sum(rel, key_attr, value_attr);
    if let Some(groups) = try_offload(node, span, executed, offload)? {
        return Ok(QueryOutput::Groups(groups));
    }
    if node.partition_rows > 0 {
        let (keys, _) = decode_keys(engine, rel, key_attr, key_strategy, ThreadingPolicy::Single)?;
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
    let policy = host_policy(node, policy);
    Ok(QueryOutput::Groups(group_sum_scans(engine, rel, key, (value_attr, node.strategy), policy)?))
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
