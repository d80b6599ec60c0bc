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
use htapg_core::sync::Mutex;
use htapg_core::{obs, AttrId, Error, Record, RelationId, Result, Value};
use htapg_device::kernels::{self, Decoder, KeyDecoder, SegmentReducer};
use std::collections::BTreeMap;

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

/// The canonical segmented reduction, the one reduction every route
/// shares: cut `values` into segments of `seg_len` rows (`None`: the flat
/// [`kernels::reduce_seg_len`] of the device's pass 1; `Some(partition_rows)`:
/// a sharded plan's placement fragments), tree-sum each segment's values —
/// only those matching `pred` when there is one — and tree-sum the partials
/// in row order. Bit-identical to the device kernels over the same values
/// ([`kernels::reduce_sum_f64`], [`kernels::filter_sum_f64`], and gathering
/// [`kernels::reduce_fragment_partials_f64`] or
/// [`kernels::filter_fragment_partials_f64`] across shards). Under
/// `policy`, the whole segments that start in each morsel reduce there, on
/// the pool, and the partials join in row order: bit-identical for every
/// policy and pool size. Fewer than two morsels of values reduce on the
/// caller.
pub fn segmented_sum(
    values: &[f64],
    seg_len: Option<usize>,
    pred: Option<&Predicate>,
    policy: ThreadingPolicy,
) -> f64 {
    let mut r = reducer(seg_len.unwrap_or_else(|| kernels::reduce_seg_len(values.len())), pred);
    push_block(&mut r, Block::Values(values), policy);
    r.finish()
}

/// [`segmented_sum`] at the flat segmentation, unfiltered, on the caller.
pub fn canonical_sum(values: &[f64]) -> f64 {
    segmented_sum(values, None, None, ThreadingPolicy::Single)
}

/// [`segmented_sum`] at the flat segmentation, unfiltered, under `policy`.
pub fn pooled_canonical_sum(values: &[f64], policy: ThreadingPolicy) -> f64 {
    segmented_sum(values, None, None, policy)
}

/// A canonical reducer at `seg_len` rows per segment, keeping only the
/// values matching `pred` when there is one.
fn reducer(
    seg_len: usize,
    pred: Option<&Predicate>,
) -> SegmentReducer<impl Fn(f64) -> bool + Copy + Send + Sync> {
    SegmentReducer::with_filter(seg_len, pred.map(|&p| move |v| p.matches(v)))
}

/// Rows per pool morsel.
const MORSEL: usize = MORSEL_ROWS as usize;

/// Rows of a block that a host group-sum sorts as a chunk of its own: one
/// window a relation gathers or patches at a time, whose sort stays in L1.
const MIN_CHUNK: usize = htapg_core::relation::GATHER_ROWS as usize;

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
fn push_block<K>(r: &mut SegmentReducer<K>, block: Block<'_>, policy: ThreadingPolicy)
where
    K: Fn(f64) -> bool + Copy + Send + Sync,
{
    fn feed<K: Fn(f64) -> bool + Copy>(r: &mut SegmentReducer<K>, block: Block<'_>) {
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
    seg_len: Option<usize>,
    pred: Option<&Predicate>,
    policy: ThreadingPolicy,
) -> Result<f64> {
    let dec = numeric_decoder(engine, rel, attr)?;
    let rows = engine.row_count(rel)? as usize;
    let mut r = reducer(seg_len.unwrap_or_else(|| kernels::reduce_seg_len(rows)), pred);
    engine.with_aligned_blocks(rel, &[attr], &mut |blocks| {
        push_block(&mut r, Block::Bytes(blocks[0], dec), policy)
    })?;
    if seg_len.is_some() || r.rows() == rows {
        return Ok(r.finish());
    }
    // The row count moved between the two reads (a concurrent insert), so
    // the flat segmentation is off: collect, then segment what was read.
    let values = collect_f64(engine, rel, attr, ScanStrategy::ContiguousBytes)?;
    Ok(segmented_sum(&values, None, pred, policy))
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

/// One block of a numeric column, its rows in order: packed little-endian
/// bytes with their decoder, or values already decoded.
#[derive(Clone, Copy)]
enum Block<'a> {
    Bytes(&'a [u8], Decoder<f64>),
    Values(&'a [f64]),
}

impl Block<'_> {
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
}

/// Materialize a numeric column as `Vec<f64>` in row order, from the
/// engine's block read. `strategy` is the plan's price tag and does not
/// steer the read.
pub fn collect_f64(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    strategy: ScanStrategy,
) -> Result<Vec<f64>> {
    let _ = strategy;
    let dec = numeric_decoder(engine, rel, attr)?;
    let mut out = Vec::with_capacity(engine.row_count(rel)? as usize);
    engine.with_aligned_blocks(rel, &[attr], &mut |blocks| {
        let at = out.len();
        out.resize(at + blocks[0].len() / dec.width, 0.0);
        (dec.decode)(blocks[0], &mut out[at..]);
    })?;
    Ok(out)
}

/// Host group-sum: group values by key preserving row order, reduce each
/// group canonically, return `(key, sum)` ordered by key. Both columns
/// come from one [`StorageEngine::with_aligned_blocks`] read, whatever
/// `strategy` says, so an engine that serves that read at one snapshot
/// never pairs a key with a value of another state. With a policy the
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
    let _ = strategy;
    group_sum_scans(engine, rel, key_attr, value_attr, policy.unwrap_or(ThreadingPolicy::Single))
}

/// No keys: the identity of the key-range fold.
const NO_KEYS: (i64, i64) = (i64::MAX, i64::MIN);

fn span((lo, hi): (i64, i64), (min, max): (i64, i64)) -> (i64, i64) {
    (lo.min(min), hi.max(max))
}

/// One chunk of a group-sum's input, decoded compactly in row order into
/// buffers reused from chunk to chunk: each key's low 32 bits (which
/// [`sort`](Self::sort) reads as group ids), the high 32 bits of an 8-byte
/// key column's keys, the keys' `(min, max)`, and the values; `rows` of
/// each hold the chunk's rows so far. `slots` is the buffer the sort
/// scatters into and keeps. The thread that makes or refills a chunk
/// sizes every buffer, so a pool thread that only sorts it allocates no
/// big buffer of its own: its allocator would keep it apart.
struct ChunkInput {
    low: Vec<u32>,
    high: Vec<u32>,
    values: Vec<f64>,
    slots: Vec<f64>,
    rows: usize,
    range: (i64, i64),
}

/// The decoders of a group-sum's key and value columns.
type Decoders = (KeyDecoder, Decoder<f64>);

impl ChunkInput {
    fn new() -> ChunkInput {
        let (low, high, values, slots) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        ChunkInput { low, high, values, slots, rows: 0, range: NO_KEYS }
    }

    /// Make room to decode `rows` rows.
    fn fit(&mut self, rows: usize, (key, _): Decoders) {
        if self.values.len() < rows {
            self.low.resize(rows, 0);
            self.high.resize(if key.width > 4 { rows } else { 0 }, 0);
            self.values.resize(rows, 0.0);
        }
    }

    /// Decode and append the rows of a key block and its value block.
    fn push(&mut self, (keys, values): (&[u8], &[u8]), decoders: Decoders) {
        let (key, value) = decoders;
        let (at, end) = (self.rows, self.rows + values.len() / value.width);
        self.fit(end, decoders);
        (value.decode)(values, &mut self.values[at..end]);
        let high = self.high.get_mut(at..end).unwrap_or_default();
        let range = (key.decode_low)(keys, &mut self.low[at..end], high);
        (self.rows, self.range) = (end, span(self.range, range));
    }

    /// Sort the chunk's rows by group and start the next chunk. Dense
    /// [`kernels::GroupIds`] ids are `k - min`, which fits in 32 bits and
    /// so is the wrapping difference of the keys' low bits: the sort reads
    /// them as they are. Ranked ids replace the low bits first, in place.
    fn sort(&mut self) -> kernels::GroupSort {
        let (low, high) = (&mut self.low[..self.rows], self.high.get(..self.rows).unwrap_or(&[]));
        let key = |i: usize, l: u32| match high.get(i) {
            Some(&h) => ((h as u64) << 32 | l as u64) as i64,
            None => l as i32 as i64,
        };
        let distinct = || low.iter().enumerate().map(|(i, &l)| key(i, l)).collect();
        let ids = kernels::GroupIds::new(self.rows, self.range, distinct);
        let mut base = self.range.0 as u32;
        if ids.ranked {
            low.iter_mut().enumerate().for_each(|(i, l)| *l = ids.id(key(i, *l)) as u32);
            base = 0;
        }
        let mut slots = std::mem::take(&mut self.slots);
        if slots.len() < self.rows {
            slots = vec![0.0; self.rows];
        }
        let sort = kernels::GroupSort::new(ids, low, base, &self.values[..self.rows], slots);
        (self.rows, self.range) = (0, NO_KEYS);
        sort
    }
}

/// Read a group-sum's key and value columns through the engine's
/// several-column read, as [`kernels::GroupSort`]s of the rows in order.
/// Rows are cut into windows at multiples of `chunk` rows, and every
/// chunk lies in one window: a block's piece of at least `min` rows,
/// sorted straight from the block while it is in cache, or the rest of
/// the window gathered on the caller. With `min == chunk` each window is
/// one chunk. The whole pieces of a block of at least two morsels decode
/// and sort on the pool under `policy` (see [`block_policy`]); the others
/// on the caller.
fn group_chunks(
    engine: &dyn StorageEngine,
    rel: RelationId,
    (key_attr, value_attr): (AttrId, AttrId),
    (chunk, min): (usize, usize),
    policy: ThreadingPolicy,
) -> Result<Vec<kernels::GroupSort>> {
    let key_ty = engine.schema(rel)?.key_ty(key_attr)?;
    let key = kernels::key_decoder(key_ty).expect("key_ty admits integer types only");
    let decoders = (key, numeric_decoder(engine, rel, value_attr)?);
    let widths = (key.width, decoders.1.width);
    let chunk = chunk.min(engine.row_count(rel)? as usize).max(1);
    let (mut chunks, mut rows) = (Vec::new(), 0);
    // The window's gathered rows, and inputs for whole pieces, back from
    // their tasks for the next ones.
    let (mut rest, mut spare) = (ChunkInput::new(), Vec::new());
    engine.with_aligned_blocks(rel, &[key_attr, value_attr], &mut |blocks| {
        let base = rows;
        rows += blocks[1].len() / widths.1;
        let policy = block_policy(rows - base, policy);
        let (mut sorted, mut whole) = (Vec::new(), Vec::new());
        for (lo, hi) in cuts(base, rows, chunk) {
            if lo % chunk == 0 && rest.rows > 0 {
                sorted.push(Some(rest.sort()));
            }
            let whole_piece = rest.rows == 0 && hi - lo >= min.min(chunk);
            let (lo, hi) = (lo - base, hi - base);
            let piece = (
                &blocks[0][lo * widths.0..hi * widths.0],
                &blocks[1][lo * widths.1..hi * widths.1],
            );
            if whole_piece && policy.threads() > 1 {
                whole.push((piece, sorted.len()));
                sorted.push(None);
                continue;
            }
            rest.push(piece, decoders);
            if whole_piece {
                sorted.push(Some(rest.sort()));
            }
        }
        if whole.is_empty() {
            chunks.extend(sorted.into_iter().flatten());
            return;
        }
        // Every task borrows one of a thread's worth of inputs, sized here,
        // and sorts into slots of its own, allocated here.
        let most = whole.iter().map(|(piece, _)| piece.1.len() / widths.1).max().unwrap_or(0);
        spare.resize_with(spare.len().max(policy.threads().min(whole.len())), ChunkInput::new);
        spare.iter_mut().for_each(|input| input.fit(most, decoders));
        let inputs = Mutex::new(std::mem::take(&mut spare));
        let slots: Vec<_> =
            whole.iter().map(|(piece, _)| vec![0.0; piece.1.len() / widths.1]).collect();
        let mut done: Vec<_> = whole.iter().map(|_| None).collect();
        run_each(whole.iter().zip(slots).zip(&mut done), policy, |((&(piece, _), slots), out)| {
            let mut input = inputs.lock().pop().expect("a spare input per thread");
            input.slots = slots;
            input.push(piece, decoders);
            *out = Some(input.sort());
            inputs.lock().push(input);
        });
        spare = inputs.into_inner();
        for ((_, at), sort) in whole.iter().zip(done) {
            sorted[*at] = sort;
        }
        chunks.extend(sorted.into_iter().flatten());
    })?;
    if rest.rows > 0 {
        chunks.push(rest.sort());
    }
    Ok(chunks)
}

/// Merge the chunks' sorts by key and reduce every key's runs, taken in
/// chunk order (so its values in row order), with `reduce`: `(key, sum)`
/// ordered by key. Keys get [`kernels::GroupIds`] over all the rows; under
/// `policy`, ranges of ids reduce on the pool, each writing its own sums.
fn reduce_groups(
    chunks: &[kernels::GroupSort],
    policy: ThreadingPolicy,
    reduce: impl Fn(&[&[f64]], &mut Vec<f64>) -> f64 + Sync,
) -> Vec<(i64, f64)> {
    let rows = chunks.iter().map(kernels::GroupSort::rows).sum::<usize>();
    let range = chunks.iter().map(kernels::GroupSort::range).fold(NO_KEYS, span);
    let distinct = || chunks.iter().flat_map(|c| c.runs().map(|(k, _)| k)).collect();
    let ids = kernels::GroupIds::new(rows, range, distinct);
    let mut sums = vec![None; ids.keys.len()];
    let per = ids.keys.len().div_ceil(rows.div_ceil(MORSEL).max(1)).max(1);
    run_each(ids.keys.chunks(per).zip(sums.chunks_mut(per)), policy, |(keys, sums)| {
        let (mut runs, mut buf) = (Vec::with_capacity(chunks.len()), Vec::new());
        for (&k, sum) in keys.iter().zip(sums) {
            runs.clear();
            runs.extend(chunks.iter().map(|c| c.run(k)).filter(|run| !run.is_empty()));
            if !runs.is_empty() {
                *sum = Some(reduce(&runs, &mut buf));
            }
        }
    });
    ids.keys.into_iter().zip(sums).filter_map(|(k, sum)| Some((k, sum?))).collect()
}

/// The host group-sum body: a stable counting sort by key, one chunk of
/// at most a morsel of rows at a time (a block's piece of at least
/// [`MIN_CHUNK`] rows, or the rest of a morsel's window), run as passes on
/// the pool under `policy` (inline under `Single`):
///
/// 1. one several-column read decodes each chunk's keys (their low bits
///    and range) and values into compact arrays ([`group_chunks`]);
/// 2. each chunk's keys get [`kernels::GroupIds`] ids of its own, and
///    [`kernels::GroupSort`] counts them and scatters the values into
///    plain `f64` slots, every key's run in row order;
/// 3. the keys, in ranges, reduce canonically from their runs in chunk
///    order ([`reduce_groups`]).
///
/// A key's runs in chunk order are its values in row order at every pool
/// size and chunking — the grouping of [`volcano_group_sum`], and so its
/// bits.
fn group_sum_scans(
    engine: &dyn StorageEngine,
    rel: RelationId,
    key_attr: AttrId,
    value_attr: AttrId,
    policy: ThreadingPolicy,
) -> Result<Vec<(i64, f64)>> {
    let chunks = group_chunks(engine, rel, (key_attr, value_attr), (MORSEL, MIN_CHUNK), policy)?;
    Ok(reduce_groups(&chunks, policy, kernels::canonical_runs_sum))
}

/// Read `attr` the way a host column scan does, through the engine's
/// block read, and aggregate nothing: warms an engine's access statistics
/// like a repeated analytic scan, without planning a query or charging a
/// device.
pub fn touch_column(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> Result<()> {
    engine.with_aligned_blocks(rel, &[attr], &mut |_| {})
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
    let values = volcano_values(engine, rel, attr)?;
    Ok(segmented_sum(&values, None, Some(pred), ThreadingPolicy::Single))
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
/// fed through the fragment-granularity reduction, under an optional
/// filter. Every scatter-gather execution, at any node count, must be
/// bit-identical to this.
pub fn sharded_volcano_sum(
    engine: &dyn StorageEngine,
    rel: RelationId,
    attr: AttrId,
    pred: Option<&Predicate>,
    partition_rows: usize,
) -> Result<f64> {
    let values = volcano_values(engine, rel, attr)?;
    Ok(segmented_sum(&values, Some(partition_rows), pred, ThreadingPolicy::Single))
}

/// Sharded volcano oracle for group-sum: each fragment groups its values by
/// key in row order and tree-sums each key's values; each key's sum is the
/// tree sum of its per-fragment partials in global fragment order. Returns
/// `(key, sum)` ordered by key.
pub fn sharded_volcano_group_sum(
    engine: &dyn StorageEngine,
    rel: RelationId,
    key_attr: AttrId,
    value_attr: AttrId,
    partition_rows: usize,
) -> Result<Vec<(i64, f64)>> {
    let (rows, part) = (engine.row_count(rel)?, partition_rows.max(1) as u64);
    let mut acc: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for lo in (0..rows).step_by(part as usize) {
        let mut frag: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for row in lo..rows.min(lo + part) {
            let k = engine.read_field(rel, row, key_attr)?.as_i64()?;
            frag.entry(k).or_default().push(engine.read_field(rel, row, value_attr)?.as_f64()?);
        }
        for (k, vs) in frag {
            acc.entry(k).or_default().push(kernels::tree_sum(&vs));
        }
    }
    Ok(acc.into_iter().map(|(k, partials)| (k, kernels::tree_sum(&partials))).collect())
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
            let (rel, value_attr) = group_input(node)?;
            exec_group_sum(engine, node, rel, *key_attr, value_attr, policy, &mut span, executed)
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

/// Pull `(rel, value_attr)` out of a group-sum node (children are the key
/// scan then the value scan; for a scatter root, descend through the
/// `Gather` into the first per-shard subtree first).
fn group_input(node: &PhysicalNode) -> Result<(RelationId, AttrId)> {
    let mut holder = node;
    if let Some(first) = node.children.first() {
        if matches!(first.op, PhysicalOp::Gather { .. }) {
            holder = first
                .children
                .first()
                .ok_or_else(|| Error::Internal("gather without per-shard subtree".into()))?;
        }
    }
    match holder.children.last().map(|c| &c.op) {
        Some(PhysicalOp::Scan { rel, attr }) => Ok((*rel, *attr)),
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
    let sum = reduce_column(engine, rel, attr, seg_len, pred.as_ref(), policy)?;
    Ok(QueryOutput::Sum(sum))
}

#[allow(clippy::too_many_arguments)]
fn exec_group_sum(
    engine: &dyn StorageEngine,
    node: &PhysicalNode,
    rel: RelationId,
    key_attr: AttrId,
    value_attr: AttrId,
    policy: ThreadingPolicy,
    span: &mut obs::SpanGuard,
    executed: &mut Route,
) -> Result<QueryOutput> {
    let offload = || engine.offload_group_sum(rel, key_attr, value_attr);
    if let Some(groups) = try_offload(node, span, executed, offload)? {
        return Ok(QueryOutput::Groups(groups));
    }
    if node.partition_rows > 0 {
        // The host mirror of the scatter: a chunk per fragment, each key's
        // fragment partial the tree sum of its run, and its sum the tree
        // sum of those partials in global fragment order.
        let (attrs, part) = ((key_attr, value_attr), node.partition_rows as usize);
        let single = ThreadingPolicy::Single;
        let frags = group_chunks(engine, rel, attrs, (part, part), single)?;
        let groups = reduce_groups(&frags, single, |runs, partials| {
            partials.clear();
            partials.extend(runs.iter().map(|run| kernels::tree_sum(run)));
            kernels::tree_sum(partials)
        });
        return Ok(QueryOutput::Groups(groups));
    }
    let policy = host_policy(node, policy);
    Ok(QueryOutput::Groups(group_sum_scans(engine, rel, key_attr, value_attr, policy)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::plan::LogicalPlan;
    use htapg_core::prng::Prng;
    use htapg_core::sync::RwLock;
    use htapg_core::{DataType, LayoutTemplate, Relation, RowId, Schema};
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

        fn with_aligned_blocks(
            &self,
            _rel: RelationId,
            attrs: &[AttrId],
            visit: &mut dyn FnMut(&[&[u8]]),
        ) -> Result<()> {
            self.rel.read().as_ref().unwrap().with_aligned_blocks(attrs, &[], visit)
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
        let host = segmented_sum(&values, None, Some(&pred), ThreadingPolicy::Single);
        let pooled = segmented_sum(&values, None, Some(&pred), ThreadingPolicy::multi8());
        assert_eq!(host.to_bits(), pooled.to_bits());
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
        let whole = segmented_sum(&values, Some(part), None, ThreadingPolicy::Single);
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
        let sharded = segmented_sum(&aligned, Some(seg), None, ThreadingPolicy::Single);
        assert_eq!(sharded.to_bits(), canonical_sum(&aligned).to_bits());
    }

    #[test]
    fn sharded_oracles_merge_fragment_partials_per_key() {
        let e = toy_with_rows(0, &mut Prng::seed_from_u64(0));
        for (k, v) in [(7, 1.0), (3, 2.0), (7, 3.0), (3, 4.0), (9, 5.0), (3, 6.0)] {
            e.insert(0, &vec![Value::Int32(k), Value::Float64(v)]).unwrap();
        }
        let got = sharded_volcano_group_sum(&e, 0, 0, 1, 3).unwrap();
        // Fragment 0: {3: [2.0], 7: [1.0, 3.0]}; fragment 1: {3: [4.0, 6.0], 9: [5.0]}.
        assert_eq!(got, vec![(3, 12.0), (7, 4.0), (9, 5.0)]);
        // Filter variant keeps fragment geometry too.
        let pred = Predicate::Ge(3.0);
        let fs = sharded_volcano_sum(&e, 0, 1, Some(&pred), 3).unwrap();
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
