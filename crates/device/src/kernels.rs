//! Device kernels: real computation, modeled time.
//!
//! [`reduce_sum_f64`] reproduces the paper's experiment kernel: "an
//! optimized parallel reduction kernel to calculate the sum of price fields
//! ... configured to run with at least 1024 blocks (each having 512
//! threads). The final reduction was performed with 1 block and 1024
//! threads" (Section II-B, after Mark Harris' classic reduction).
//!
//! Reductions use a fixed pairwise tree order, so results are
//! bit-deterministic and independent of the launch geometry — the property
//! tests rely on this.

use htapg_core::{DataType, Error, Result};

use crate::memory::{BufferId, SimDevice};
use crate::simt::{Executor, KernelCost, LaunchConfig};
use crate::stream::SimStream;

/// The paper's reduction geometry.
pub const REDUCE_GRID: u32 = 1024;
pub const REDUCE_BLOCK: u32 = 512;
pub const FINAL_BLOCK: u32 = 1024;

/// Rows per segment of the canonical `REDUCE_GRID`-way segmentation of an
/// `n`-row column. Fixed by the *total* row count — chunked pipelines reuse
/// it so their partials are bit-identical to the single-shot reduction.
pub fn reduce_seg_len(n: usize) -> usize {
    n.div_ceil(REDUCE_GRID as usize).max(1)
}

/// Number of (non-empty) segments in the canonical segmentation of `n`.
pub fn reduce_segments(n: usize) -> usize {
    n.div_ceil(reduce_seg_len(n))
}

/// Pairwise (tree) summation of a slice — the deterministic order a
/// shared-memory tree reduction produces: split at `mid = n / 2`, sum each
/// half, add. The recursion ends in leaves of at most 8 values written out
/// in exactly that association, so the result is bit-identical to
/// recursing down to single values, at a fraction of the calls.
pub fn tree_sum(values: &[f64]) -> f64 {
    let n = values.len();
    if n <= 8 {
        return leaf_sum(values);
    }
    let (lo, hi) = values.split_at(n / 2);
    if n <= 16 {
        // Both halves are leaves: add them without another call.
        leaf_sum(lo) + leaf_sum(hi)
    } else {
        tree_sum(lo) + tree_sum(hi)
    }
}

/// [`tree_sum`] of at most 8 values, in the same association.
#[inline(always)]
fn leaf_sum(values: &[f64]) -> f64 {
    match *values {
        [] => 0.0,
        [a] => a,
        [a, b] => a + b,
        [a, b, c] => a + (b + c),
        [a, b, c, d] => (a + b) + (c + d),
        [a, b, c, d, e] => (a + b) + (c + (d + e)),
        [a, b, c, d, e, f] => (a + (b + c)) + (d + (e + f)),
        [a, b, c, d, e, f, g] => (a + (b + c)) + ((d + e) + (f + g)),
        [a, b, c, d, e, f, g, h] => ((a + b) + (c + d)) + ((e + f) + (g + h)),
        _ => unreachable!("a tree_sum leaf holds at most 8 values"),
    }
}

/// Decode packed little-endian `W`-byte values into `out`, one per chunk:
/// a plain loop, monomorphized per element type, with no call per value.
pub fn decode_le<T, const W: usize>(bytes: &[u8], out: &mut [T], decode: impl Fn([u8; W]) -> T) {
    for (o, c) in out.iter_mut().zip(bytes.chunks_exact(W)) {
        *o = decode(c.try_into().expect("chunks_exact yields W bytes"));
    }
}

/// A block decoder for one column type: `width` bytes per value, and a
/// loop that decodes a whole block of them (called once per block, so the
/// indirection is per block, never per value).
#[derive(Clone, Copy)]
pub struct Decoder<T> {
    pub width: usize,
    pub decode: fn(&[u8], &mut [T]),
}

/// Packed little-endian `f64`: the layout of every device column buffer.
const F64_LE: Decoder<f64> =
    Decoder { width: 8, decode: |b, out| decode_le(b, out, f64::from_le_bytes) };

/// The `f64` decoder of a numeric column type; `None` for `Bool`/`Text`.
pub fn f64_decoder(ty: DataType) -> Option<Decoder<f64>> {
    Some(match ty {
        DataType::Float64 => F64_LE,
        DataType::Int64 => Decoder {
            width: 8,
            decode: |b, out| decode_le(b, out, |x| i64::from_le_bytes(x) as f64),
        },
        DataType::Int32 | DataType::Date => Decoder {
            width: 4,
            decode: |b, out| decode_le(b, out, |x| i32::from_le_bytes(x) as f64),
        },
        DataType::Bool | DataType::Text(_) => return None,
    })
}

/// Decode packed keys compactly (see [`KeyDecoder::decode_low`]).
pub type DecodeLow = fn(&[u8], &mut [u32], &mut [u32]) -> (i64, i64);

/// The decoder of an integer key column type: `width` bytes a key, read
/// as whole blocks of packed little-endian keys.
#[derive(Clone, Copy)]
pub struct KeyDecoder {
    pub width: usize,
    /// Decode every key into its `i64` value.
    pub decode: fn(&[u8], &mut [i64]),
    /// Decode every key compactly: its low 32 bits into `low`, and, for an
    /// 8-byte key, its high 32 bits into `high` (empty for a 4-byte key,
    /// whose low bits sign-extend to the key). Returns the keys' `(min,
    /// max)`, `(i64::MAX, i64::MIN)` for none.
    pub decode_low: DecodeLow,
}

/// The [`KeyDecoder`] of an integer key column type; `None` for every
/// other type.
pub fn key_decoder(ty: DataType) -> Option<KeyDecoder> {
    Some(match ty {
        DataType::Int64 => KeyDecoder {
            width: 8,
            decode: |b, out| decode_le(b, out, i64::from_le_bytes),
            decode_low: |b, low, high| {
                let (mut min, mut max) = (i64::MAX, i64::MIN);
                for ((l, h), c) in low.iter_mut().zip(high).zip(b.chunks_exact(8)) {
                    let k = i64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
                    (*l, *h) = (k as u32, (k >> 32) as u32);
                    (min, max) = (min.min(k), max.max(k));
                }
                (min, max)
            },
        },
        DataType::Int32 | DataType::Date => KeyDecoder {
            width: 4,
            decode: |b, out| decode_le(b, out, |x| i32::from_le_bytes(x).into()),
            decode_low: |b, low, _| {
                let (mut min, mut max) = (i32::MAX, i32::MIN);
                for (l, c) in low.iter_mut().zip(b.chunks_exact(4)) {
                    let k = i32::from_le_bytes(c.try_into().expect("chunks_exact yields 4 bytes"));
                    *l = k as u32;
                    (min, max) = (min.min(k), max.max(k));
                }
                if low.is_empty() {
                    return (i64::MAX, i64::MIN);
                }
                (min.into(), max.into())
            },
        },
        DataType::Float64 | DataType::Bool | DataType::Text(_) => return None,
    })
}

/// The canonical segmented reduction, fed in row order: rows are cut into
/// segments of `seg_len` ([`reduce_seg_len`] for the flat reduction, the
/// fragment size for sharded ones), each segment reduces to its
/// [`tree_sum`] partial, and [`finish`](Self::finish) tree-sums the
/// partials. Input arrives as column blocks of any size — packed
/// little-endian bytes or `f64` slices — and blocks need not align with
/// segments: the one scratch holds the current segment across blocks.
///
/// With a `keep` predicate, each segment's partial sums only its matching
/// values, kept in row order (the fused filter+sum). Compaction happens in
/// the scratch without branches, so the reduction reads each value once
/// and allocates nothing per segment.
pub struct SegmentReducer<K> {
    seg_len: usize,
    keep: Option<K>,
    /// `scratch[..kept]` holds the kept values of the current segment's
    /// first `seg_rows` rows.
    scratch: Vec<f64>,
    seg_rows: usize,
    kept: usize,
    total_rows: usize,
    partials: Vec<f64>,
}

impl SegmentReducer<fn(f64) -> bool> {
    /// An unfiltered reducer.
    pub fn new(seg_len: usize) -> Self {
        Self::with_filter(seg_len, None)
    }
}

impl<K: Fn(f64) -> bool + Copy> SegmentReducer<K> {
    pub fn with_filter(seg_len: usize, keep: Option<K>) -> Self {
        let seg_len = seg_len.max(1);
        SegmentReducer {
            seg_len,
            keep,
            scratch: Vec::new(),
            seg_rows: 0,
            kept: 0,
            total_rows: 0,
            partials: Vec::new(),
        }
    }

    /// Rows fed so far.
    pub fn rows(&self) -> usize {
        self.total_rows
    }

    /// Rows per segment.
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// An empty reducer with this one's segment length and filter, to be
    /// fed whole segments elsewhere and then [`append`](Self::append)ed.
    pub fn fork(&self) -> Self {
        Self::with_filter(self.seg_len, self.keep)
    }

    /// Append the partials of `other`, a reducer fed — elsewhere, typically
    /// on another thread — the whole segments that follow this reducer's
    /// rows. Both stand at a segment boundary, so the partials are exactly
    /// those of feeding the same rows here.
    pub fn append(&mut self, other: Self) {
        assert!(
            self.seg_rows == 0 && other.seg_rows == 0 && self.seg_len == other.seg_len,
            "appended partials must cover whole segments of the same length"
        );
        self.partials.extend_from_slice(&other.partials);
        self.total_rows += other.total_rows;
    }

    /// Feed the next rows as a block of packed values read by `dec` (a
    /// trailing partial value is ignored).
    pub fn push_bytes(&mut self, bytes: &[u8], dec: Decoder<f64>) {
        let mut rest = &bytes[..bytes.len() - bytes.len() % dec.width];
        while !rest.is_empty() {
            let rows = (self.seg_len - self.seg_rows).min(rest.len() / dec.width);
            let (run, tail) = rest.split_at(rows * dec.width);
            (dec.decode)(run, self.slots(rows));
            self.take(rows);
            rest = tail;
        }
    }

    /// Feed the next rows as decoded values. Whole unfiltered segments are
    /// reduced in place, without a copy.
    pub fn push_f64s(&mut self, values: &[f64]) {
        let mut rest = values;
        while !rest.is_empty() {
            if self.keep.is_none() && self.seg_rows == 0 && rest.len() >= self.seg_len {
                let whole = rest.len() - rest.len() % self.seg_len;
                let (run, tail) = rest.split_at(whole);
                self.partials.extend(run.chunks_exact(self.seg_len).map(tree_sum));
                self.total_rows += whole;
                rest = tail;
                continue;
            }
            let rows = (self.seg_len - self.seg_rows).min(rest.len());
            let (run, tail) = rest.split_at(rows);
            self.slots(rows).copy_from_slice(run);
            self.take(rows);
            rest = tail;
        }
    }

    /// Scratch for the current segment's next `rows` values, grown on
    /// first use: a segment may be far longer than the whole input.
    fn slots(&mut self, rows: usize) -> &mut [f64] {
        let end = self.kept + rows;
        if self.scratch.len() < end {
            self.scratch.resize(end, 0.0);
        }
        &mut self.scratch[self.kept..end]
    }

    /// Account for `rows` values just written at `scratch[kept..]`: compact
    /// them under `keep`, and close the segment once it is full.
    fn take(&mut self, rows: usize) {
        match &self.keep {
            None => self.kept += rows,
            Some(keep) => {
                // A local copy: the scratch stores below cannot alias it,
                // so the predicate stays in registers across the loop.
                let keep = *keep;
                let seg = &mut self.scratch[..self.kept + rows];
                let mut kept = self.kept;
                for i in self.kept..seg.len() {
                    let v = seg[i];
                    seg[kept] = v;
                    kept += keep(v) as usize;
                }
                self.kept = kept;
            }
        }
        self.seg_rows += rows;
        self.total_rows += rows;
        if self.seg_rows == self.seg_len {
            self.close_segment();
        }
    }

    fn close_segment(&mut self) {
        self.partials.push(tree_sum(&self.scratch[..self.kept]));
        self.seg_rows = 0;
        self.kept = 0;
    }

    /// The per-segment partials in row order, a trailing short segment
    /// included.
    pub(crate) fn partials(mut self) -> Vec<f64> {
        if self.seg_rows > 0 {
            self.close_segment();
        }
        self.partials
    }

    /// The tree sum of the partials: the reduction's result (0 for no rows).
    pub fn finish(self) -> f64 {
        tree_sum(&self.partials())
    }
}

/// Rows of a packed `f64` buffer.
fn f64_rows(bytes: &[u8]) -> Result<usize> {
    if !bytes.len().is_multiple_of(8) {
        return Err(Error::Internal("buffer is not a packed f64 column".into()));
    }
    Ok(bytes.len() / 8)
}

fn as_f64s(bytes: &[u8]) -> Result<Vec<f64>> {
    let mut values = vec![0.0; f64_rows(bytes)?];
    (F64_LE.decode)(bytes, &mut values);
    Ok(values)
}

/// Sum a device-resident packed `f64` column with the two-pass Harris-style
/// reduction. Returns the sum; charges two kernel launches (partials +
/// final) to the device ledger.
pub fn reduce_sum_f64(device: &SimDevice, buf: BufferId) -> Result<f64> {
    let ex = Executor::new(device);
    let (n, partials) = device.with_buffer(buf, |bytes| {
        let n = f64_rows(bytes)?;
        // Pass 1: REDUCE_GRID blocks × REDUCE_BLOCK threads; each block
        // reduces a contiguous segment into one partial.
        let mut reducer = SegmentReducer::new(reduce_seg_len(n));
        reducer.push_bytes(bytes, F64_LE);
        Ok((n, reducer.partials()))
    })??;
    if n == 0 {
        // Even an empty reduction launches.
        ex.charge_launch(
            LaunchConfig::new(1, FINAL_BLOCK),
            KernelCost { work_items: 1, cycles_per_item: 1.0, bytes: 0 },
        )?;
        return Ok(0.0);
    }
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID, REDUCE_BLOCK),
        KernelCost { work_items: n as u64, cycles_per_item: 4.0, bytes: (n * 8) as u64 },
    )?;
    // Pass 2: final reduction with 1 block × FINAL_BLOCK threads.
    let total = tree_sum(&partials);
    ex.charge_launch(
        LaunchConfig::new(1, FINAL_BLOCK),
        KernelCost {
            work_items: partials.len() as u64,
            cycles_per_item: 4.0,
            bytes: (partials.len() * 8) as u64,
        },
    )?;
    Ok(total)
}

/// Pass-1 partials for segments `[seg_lo, seg_hi)` of the canonical
/// segmentation of a `total_rows` column, read from the (possibly still
/// filling) buffer `buf` and charged as one launch on `stream`.
///
/// Because segment boundaries depend only on `total_rows`, a pipeline that
/// covers `[0, reduce_segments(n))` in any chunking produces exactly the
/// partials of [`reduce_sum_f64`]'s first pass — the bit-identity the
/// property tests assert.
pub fn reduce_partials_f64(
    stream: &mut SimStream<'_>,
    buf: BufferId,
    total_rows: usize,
    seg_lo: usize,
    seg_hi: usize,
) -> Result<Vec<f64>> {
    segment_partials(stream, buf, total_rows, seg_lo, seg_hi, None)
}

/// Fused pass-1 partials: per segment, the tree sum of only the values
/// satisfying `pred` — selection and aggregation in a single launch.
pub fn filter_partials_f64(
    stream: &mut SimStream<'_>,
    buf: BufferId,
    total_rows: usize,
    seg_lo: usize,
    seg_hi: usize,
    pred: &dyn Fn(f64) -> bool,
) -> Result<Vec<f64>> {
    segment_partials(stream, buf, total_rows, seg_lo, seg_hi, Some(pred))
}

fn segment_partials(
    stream: &mut SimStream<'_>,
    buf: BufferId,
    total_rows: usize,
    seg_lo: usize,
    seg_hi: usize,
    pred: Option<&dyn Fn(f64) -> bool>,
) -> Result<Vec<f64>> {
    let device = stream.device();
    let seg_len = reduce_seg_len(total_rows);
    let lo_row = seg_lo * seg_len;
    let hi_row = (seg_hi * seg_len).min(total_rows);
    if seg_hi <= seg_lo {
        return Ok(Vec::new());
    }
    let partials = device.with_buffer(buf, |bytes| {
        if lo_row > hi_row || hi_row * 8 > bytes.len() {
            return Err(Error::Internal("segment range beyond device buffer".into()));
        }
        // `lo_row` starts a segment, so the reducer's cuts are the
        // canonical ones.
        let mut reducer = SegmentReducer::with_filter(seg_len, pred);
        reducer.push_bytes(&bytes[lo_row * 8..hi_row * 8], F64_LE);
        Ok(reducer.partials())
    })??;
    let rows = (hi_row - lo_row) as u64;
    stream.charge_launch(
        LaunchConfig::new((seg_hi - seg_lo).max(1) as u32, REDUCE_BLOCK),
        KernelCost {
            work_items: rows.max(1),
            cycles_per_item: if pred.is_some() { 5.0 } else { 4.0 },
            bytes: rows * 8,
        },
    )?;
    Ok(partials)
}

/// Pass-2 final combine of pass-1 partials (1 block × [`FINAL_BLOCK`]
/// threads), charged on `stream`. Same tree order as [`reduce_sum_f64`]'s
/// final pass.
pub fn reduce_final_f64(stream: &mut SimStream<'_>, partials: &[f64]) -> Result<f64> {
    let total = tree_sum(partials);
    stream.charge_launch(
        LaunchConfig::new(1, FINAL_BLOCK),
        KernelCost {
            work_items: partials.len().max(1) as u64,
            cycles_per_item: 4.0,
            bytes: (partials.len() * 8) as u64,
        },
    )?;
    Ok(total)
}

/// Fused filter+sum over a device-resident packed `f64` column: one data
/// pass (selection folded into the partial reduction) plus the small final
/// combine — two launches, with no selection pass or gather.
pub fn filter_sum_f64(
    device: &SimDevice,
    buf: BufferId,
    pred: impl Fn(f64) -> bool,
) -> Result<f64> {
    let n = device.buffer_len(buf)? / 8;
    let mut stream = SimStream::new(device);
    let partials = filter_partials_f64(&mut stream, buf, n, 0, reduce_segments(n), &pred)?;
    let total = reduce_final_f64(&mut stream, &partials)?;
    // Single-stream use: the whole span is serial wall time.
    device.ledger().advance_wall(stream.cursor_ns());
    Ok(total)
}

/// Per-fragment pass-1 partials for a shard's device-resident slice: the
/// buffer holds the shard's fragments back to back (`frag_rows` rows each,
/// the last possibly short), and each fragment reduces to one tree-ordered
/// partial. One launch over the whole slice. A gather that concatenates
/// these per-fragment partials in *global* fragment order and tree-reduces
/// them is bit-identical for every node count and placement — the
/// scatter-gather analogue of [`reduce_partials_f64`]'s segment property.
pub fn reduce_fragment_partials_f64(
    device: &SimDevice,
    buf: BufferId,
    frag_rows: usize,
) -> Result<Vec<f64>> {
    fragment_partials(device, buf, frag_rows, None)
}

/// Fused per-fragment filter+sum partials: each fragment's partial is the
/// tree sum of only its qualifying values (one extra cycle per item, like
/// [`filter_partials_f64`]).
pub fn filter_fragment_partials_f64(
    device: &SimDevice,
    buf: BufferId,
    frag_rows: usize,
    pred: &dyn Fn(f64) -> bool,
) -> Result<Vec<f64>> {
    fragment_partials(device, buf, frag_rows, Some(pred))
}

fn fragment_partials(
    device: &SimDevice,
    buf: BufferId,
    frag_rows: usize,
    pred: Option<&dyn Fn(f64) -> bool>,
) -> Result<Vec<f64>> {
    if frag_rows == 0 {
        return Err(Error::Internal("fragment size must be positive".into()));
    }
    let ex = Executor::new(device);
    let (n, out) = device.with_buffer(buf, |bytes| {
        let n = f64_rows(bytes)?;
        let mut reducer = SegmentReducer::with_filter(frag_rows, pred);
        reducer.push_bytes(bytes, F64_LE);
        Ok((n, reducer.partials()))
    })??;
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID.min(out.len().max(1) as u32), REDUCE_BLOCK),
        KernelCost {
            work_items: n.max(1) as u64,
            cycles_per_item: if pred.is_some() { 5.0 } else { 4.0 },
            bytes: (n * 8) as u64,
        },
    )?;
    Ok(out)
}

/// Per-fragment keyed partials for a scattered group-sum: `keys` holds the
/// (host-resident) group key of every row in the slice, `buf` the packed
/// values. Each fragment's partials are the [`group_tree_sums`] of its
/// rows, sorted by key. A gather that groups every fragment's partials,
/// concatenated in global fragment order, through [`group_tree_sums`] again
/// is bit-identical for every placement. One launch (values + key traffic).
pub fn keyed_fragment_partials_f64(
    device: &SimDevice,
    buf: BufferId,
    keys: &[i64],
    frag_rows: usize,
) -> Result<Vec<Vec<(i64, f64)>>> {
    if frag_rows == 0 {
        return Err(Error::Internal("fragment size must be positive".into()));
    }
    let ex = Executor::new(device);
    let values = device.with_buffer(buf, as_f64s)??;
    let n = values.len();
    if keys.len() != n {
        return Err(Error::Internal(format!(
            "key column has {} rows but value slice has {n}",
            keys.len()
        )));
    }
    let frags = keys.chunks(frag_rows).zip(values.chunks(frag_rows));
    let out: Vec<_> = frags.map(|(keys, values)| group_tree_sums(keys, values)).collect();
    ex.charge_launch(
        LaunchConfig::new(REDUCE_GRID.min(out.len().max(1) as u32), REDUCE_BLOCK),
        KernelCost { work_items: n.max(1) as u64, cycles_per_item: 8.0, bytes: (n * 16) as u64 },
    )?;
    Ok(out)
}

/// The group ids of integer keys, one rule for every group-sum: ids
/// follow key order. While the keys' span is at most twice their count,
/// key `k`'s id is `k - min` (some ids then count no row); a wider span
/// ranks each key among the sorted distinct keys instead, so no array is
/// sized by the span alone.
pub struct GroupIds {
    /// The key of every id.
    pub keys: Vec<i64>,
    /// Whether ids are ranks rather than `k - keys[0]`.
    pub ranked: bool,
}

impl GroupIds {
    /// The ids of `rows` keys whose least and greatest are `min` and
    /// `max`. A span too wide for `k - min` ids ranks the keys `distinct`
    /// lists (each key at least once, in any order).
    pub fn new(rows: usize, (min, max): (i64, i64), distinct: impl FnOnce() -> Vec<i64>) -> Self {
        if max.abs_diff(min) <= 2 * rows as u64 {
            return GroupIds { keys: (min..=max).collect(), ranked: false };
        }
        let mut keys = distinct();
        keys.sort_unstable();
        keys.dedup();
        GroupIds { keys, ranked: true }
    }

    /// The id of `k`, one of the keys the ids were made for.
    pub fn id(&self, k: i64) -> usize {
        self.find(k).expect("every key the ids were made for has one")
    }

    /// The id of `k`, if it has one.
    pub fn find(&self, k: i64) -> Option<usize> {
        match self.ranked {
            true => self.keys.binary_search(&k).ok(),
            false => self.keys.first().and_then(|&min| {
                let id = k.checked_sub(min)?;
                (0..self.keys.len() as i64).contains(&id).then_some(id as usize)
            }),
        }
    }
}

/// A stable counting sort of rows by group, the one grouping of every
/// group-sum: the rows' [`GroupIds`], and their values in plain `f64`
/// slots, each group's run in row order and the runs in key order. A
/// group-sum over many rows sorts them a chunk at a time; a key's values
/// are then its runs in the chunks, taken in chunk order.
pub struct GroupSort {
    ids: GroupIds,
    /// Id `i`'s run is `slots[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    slots: Vec<f64>,
}

impl GroupSort {
    /// Sort `values` by their rows' ids among `ids`, row `i`'s id being
    /// `row_ids[i] - base` (wrapping, so the low 32 bits of dense keys
    /// serve with the least key's as `base`), into `slots`, a buffer of at
    /// least as many values (the caller's, so a sort on a pool thread
    /// allocates no big buffer there): count the rows per id, turn the
    /// counts into every id's first slot, scatter. Both passes keep a
    /// store to an id's counter from stalling the next row's load of it:
    /// the count spreads rows over four counter arrays, and the scatter
    /// loads the slots of two rows before storing either.
    pub fn new(
        ids: GroupIds,
        row_ids: &[u32],
        base: u32,
        values: &[f64],
        mut slots: Vec<f64>,
    ) -> GroupSort {
        assert_eq!(row_ids.len(), values.len(), "one id per value");
        slots.truncate(values.len());
        assert_eq!(slots.len(), values.len(), "one slot per value");
        let id = |r: u32| r.wrapping_sub(base) as usize;
        let n = ids.keys.len();
        let mut counts = vec![0u32; 4 * n];
        let (a, rest) = counts.split_at_mut(n);
        let (b, rest) = rest.split_at_mut(n);
        let (c, d) = rest.split_at_mut(n);
        let mut quads = row_ids.chunks_exact(4);
        for q in &mut quads {
            a[id(q[0])] += 1;
            b[id(q[1])] += 1;
            c[id(q[2])] += 1;
            d[id(q[3])] += 1;
        }
        quads.remainder().iter().for_each(|&r| a[id(r)] += 1);
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0);
        for i in 0..n {
            let rows = (a[i] + b[i] + c[i] + d[i]) as usize;
            bounds.push(bounds[i] + rows);
        }
        let mut next = bounds.clone();
        let mut pairs = row_ids.chunks_exact(2).zip(values.chunks_exact(2));
        for (r, v) in &mut pairs {
            let (i, j) = (id(r[0]), id(r[1]));
            // Two rows of one id take consecutive slots.
            let (si, sj) = (next[i], next[j] + (i == j) as usize);
            (slots[si], slots[sj]) = (v[0], v[1]);
            (next[i], next[j]) = (si + 1, sj + 1);
        }
        if let (Some(&r), Some(&v)) = (row_ids.last(), values.last()) {
            if row_ids.len() % 2 == 1 {
                slots[next[id(r)]] = v;
            }
        }
        GroupSort { ids, bounds, slots }
    }

    /// Sort `values` by `keys`, one key per value.
    pub fn of(keys: &[i64], values: &[f64]) -> GroupSort {
        let range = keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let ids = GroupIds::new(keys.len(), range, || keys.to_vec());
        let row_ids: Vec<u32> = keys.iter().map(|&k| ids.id(k) as u32).collect();
        GroupSort::new(ids, &row_ids, 0, values, vec![0.0; values.len()])
    }

    /// The values of `key` in row order (empty for a key with no row).
    pub fn run(&self, key: i64) -> &[f64] {
        self.ids.find(key).map_or(&[], |id| &self.slots[self.bounds[id]..self.bounds[id + 1]])
    }

    /// Every key with rows, and its values in row order, by key.
    pub fn runs(&self) -> impl Iterator<Item = (i64, &[f64])> + '_ {
        let runs = self.bounds.windows(2).map(|b| &self.slots[b[0]..b[1]]);
        self.ids.keys.iter().copied().zip(runs).filter(|(_, run)| !run.is_empty())
    }

    /// The least and greatest key (`(i64::MAX, i64::MIN)` for no rows):
    /// ids run from one to the other.
    pub fn range(&self) -> (i64, i64) {
        match (self.ids.keys.first(), self.ids.keys.last()) {
            (Some(&min), Some(&max)) => (min, max),
            _ => (i64::MAX, i64::MIN),
        }
    }

    /// Number of rows sorted.
    pub fn rows(&self) -> usize {
        self.slots.len()
    }
}

/// The canonical reduction of one group's values, given in row order as
/// `runs`: segments of [`reduce_seg_len`] of its rows, each tree-summed,
/// then the tree of those partials. Up to [`REDUCE_GRID`] rows a segment
/// holds one row, so the partials are the values themselves and the
/// reduction is their [`tree_sum`], read through `buf` when the group
/// spans runs.
pub fn canonical_runs_sum(runs: &[&[f64]], buf: &mut Vec<f64>) -> f64 {
    let rows = runs.iter().map(|run| run.len()).sum();
    let seg_len = reduce_seg_len(rows);
    if seg_len > 1 {
        let mut r = SegmentReducer::new(seg_len);
        runs.iter().for_each(|run| r.push_f64s(run));
        return r.finish();
    }
    if let [run] = runs {
        return tree_sum(run);
    }
    buf.clear();
    runs.iter().for_each(|run| buf.extend_from_slice(run));
    tree_sum(buf)
}

/// Group `values` by `keys` (one per value) and tree-sum each group's
/// values in row order: `(key, sum)` ordered by key. The one grouping of
/// every keyed partial — a fragment's groups, and the merge of fragments'
/// partials in global fragment order.
pub fn group_tree_sums(keys: &[i64], values: &[f64]) -> Vec<(i64, f64)> {
    assert_eq!(keys.len(), values.len(), "one key per value");
    GroupSort::of(keys, values).runs().map(|(k, run)| (k, tree_sum(run))).collect()
}

/// Group-sum of a device-resident packed `f64` column by `keys`, the
/// (host-resident) integer key of every row. The [`GroupSort`] counting
/// sort gathers each group's values into a contiguous run, in row order,
/// of a device scratch buffer the size of the column (an allocation
/// failure is the caller's to degrade on). Each run then reduces
/// canonically ([`reduce_seg_len`] of the group's rows, then the tree of
/// its partials), so every group's sum is bit-identical to the canonical
/// sum of its values. Three launches for any number of groups: the gather
/// of all rows into group order, pass 1 over every group's segments, and
/// the final combine of every group's partials. Returns `(key, sum)`
/// ordered by key.
pub fn group_sum_f64(device: &SimDevice, buf: BufferId, keys: &[i64]) -> Result<Vec<(i64, f64)>> {
    let values = device.with_buffer(buf, as_f64s)??;
    let n = values.len();
    if keys.len() != n {
        return Err(Error::Internal(format!("{} keys for a {n}-row value column", keys.len())));
    }
    let gathered = device.alloc(n * 8)?;
    let sort = GroupSort::of(keys, &values);
    let partials = device.with_buffer_mut(gathered, |bytes| {
        let mut at = 0;
        let runs = sort.runs().map(|(key, run)| {
            let group = &mut bytes[at * 8..(at + run.len()) * 8];
            at += run.len();
            group
                .chunks_exact_mut(8)
                .zip(run)
                .for_each(|(b, v)| b.copy_from_slice(&v.to_le_bytes()));
            let mut reducer = SegmentReducer::new(reduce_seg_len(run.len()));
            reducer.push_bytes(group, F64_LE);
            (key, reducer.partials())
        });
        runs.collect::<Vec<_>>()
    });
    device.free(gathered)?;
    let partials = partials?;
    let combined = partials.iter().map(|(_, p)| p.len()).sum::<usize>();
    let ex = Executor::new(device);
    let launch = |blocks, threads, work: usize, cycles, bytes: usize| {
        let cost = KernelCost {
            work_items: work.max(1) as u64,
            cycles_per_item: cycles,
            bytes: bytes as u64,
        };
        ex.charge_launch(LaunchConfig::new(blocks, threads), cost)
    };
    launch(REDUCE_GRID.min(n.max(1) as u32), REDUCE_BLOCK, n, 8.0, n * 16)?; // gather
    launch(REDUCE_GRID, REDUCE_BLOCK, n, 4.0, n * 8)?; // pass 1
    launch(1, FINAL_BLOCK, combined, 4.0, combined * 8)?; // final combine
    Ok(partials.into_iter().map(|(k, p)| (k, tree_sum(&p))).collect())
}

/// Byte width of one shipped delta pair: `(u64 row, f64 value)`.
pub const DELTA_PAIR_BYTES: usize = 16;

/// Scatter a staged batch of delta pairs into a device-resident packed
/// `f64` column. `staging` holds `pairs` packed little-endian
/// `(u64 row, f64 value)` records ([`DELTA_PAIR_BYTES`] each); each value
/// is written at `row * 8` in `replica`. One launch on `stream`; rows
/// beyond the replica are [`Error::UnknownRow`] and leave the ledger
/// uncharged. The scatter is idempotent: replaying the same pairs after a
/// partial failure converges to the same bytes.
pub fn merge_deltas_f64(
    stream: &mut SimStream<'_>,
    replica: BufferId,
    staging: BufferId,
    pairs: usize,
) -> Result<()> {
    let device = stream.device();
    let decoded = device.with_buffer(staging, |bytes| {
        if bytes.len() < pairs * DELTA_PAIR_BYTES {
            return Err(Error::Internal("staging buffer smaller than the delta batch".into()));
        }
        let mut out = Vec::with_capacity(pairs);
        for rec in bytes[..pairs * DELTA_PAIR_BYTES].chunks_exact(DELTA_PAIR_BYTES) {
            let row = u64::from_le_bytes(rec[..8].try_into().unwrap());
            let value = f64::from_le_bytes(rec[8..].try_into().unwrap());
            out.push((row, value));
        }
        Ok(out)
    })??;
    scatter_decoded(stream, replica, &decoded)
}

/// Scatter host-resident delta pairs directly into a device column —
/// the device-local transport for engines whose authoritative store is
/// already on the device (no PCIe staging write, kernel charge only).
pub fn scatter_deltas_f64(
    stream: &mut SimStream<'_>,
    replica: BufferId,
    pairs: &[(u64, f64)],
) -> Result<()> {
    scatter_decoded(stream, replica, pairs)
}

fn scatter_decoded(
    stream: &mut SimStream<'_>,
    replica: BufferId,
    pairs: &[(u64, f64)],
) -> Result<()> {
    let device = stream.device();
    device.with_buffer_mut(replica, |bytes| {
        for &(row, value) in pairs {
            let off = row as usize * 8;
            if off + 8 > bytes.len() {
                return Err(Error::UnknownRow(row));
            }
            bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        }
        Ok(())
    })??;
    let n = pairs.len();
    stream.charge_launch(
        LaunchConfig::new(REDUCE_GRID.min(n.max(1) as u32), REDUCE_BLOCK),
        KernelCost {
            work_items: n.max(1) as u64,
            cycles_per_item: 8.0,
            bytes: (n * (DELTA_PAIR_BYTES + 8)) as u64,
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceSpec;

    fn upload_f64(device: &SimDevice, values: &[f64]) -> BufferId {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        device.upload(&bytes).unwrap()
    }

    #[test]
    fn tree_sum_matches_sequential_for_ints() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        assert_eq!(tree_sum(&values), values.iter().sum::<f64>());
    }

    #[test]
    fn tree_sum_is_deterministic() {
        let values: Vec<f64> = (0..997).map(|i| (i as f64).sin()).collect();
        assert_eq!(tree_sum(&values).to_bits(), tree_sum(&values).to_bits());
    }

    #[test]
    fn reduce_matches_tree_order_regardless_of_geometry() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..100_000).map(|i| (i % 1000) as f64 * 0.01).collect();
        let buf = upload_f64(&d, &values);
        let got = reduce_sum_f64(&d, buf).unwrap();
        let expect: f64 = values.iter().sum();
        assert!((got - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }

    #[test]
    fn reduce_charges_two_launches() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[1.0, 2.0, 3.0]);
        let before = d.ledger().snapshot();
        let sum = reduce_sum_f64(&d, buf).unwrap();
        assert_eq!(sum, 6.0);
        let delta = d.ledger().snapshot().since(&before);
        assert_eq!(delta.kernel_launches, 2);
        assert!(delta.kernel_ns >= 2 * d.spec().kernel_launch_ns);
        assert_eq!(delta.transfer_ns, 0, "reduction must not touch PCIe");
    }

    #[test]
    fn reduce_empty_is_zero() {
        let d = SimDevice::with_defaults();
        let buf = d.alloc(0).unwrap();
        assert_eq!(reduce_sum_f64(&d, buf).unwrap(), 0.0);
    }

    #[test]
    fn split_partials_are_bit_identical_to_single_shot() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..50_000).map(|i| (i as f64).sin()).collect();
        let buf = upload_f64(&d, &values);
        let n = values.len();
        let segs = reduce_segments(n);
        let mut one = SimStream::new(&d);
        let whole = reduce_partials_f64(&mut one, buf, n, 0, segs).unwrap();
        let single_shot = reduce_final_f64(&mut one, &whole).unwrap();
        // Same segments computed across three arbitrary splits.
        let mut many = SimStream::new(&d);
        let mut pieced = Vec::new();
        for (lo, hi) in [(0, 7), (7, 700), (700, segs)] {
            pieced.extend(reduce_partials_f64(&mut many, buf, n, lo, hi).unwrap());
        }
        assert_eq!(
            whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            pieced.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let pieced_total = reduce_final_f64(&mut many, &pieced).unwrap();
        assert_eq!(single_shot.to_bits(), pieced_total.to_bits());
        assert_eq!(single_shot.to_bits(), reduce_sum_f64(&d, buf).unwrap().to_bits());
    }

    #[test]
    fn fused_filter_sum_matches_host_and_saves_launches() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64) - 5_000.0).collect();
        let buf = upload_f64(&d, &values);
        let before = d.ledger().snapshot();
        let fused = filter_sum_f64(&d, buf, |v| v > 0.0).unwrap();
        let fused_delta = d.ledger().snapshot().since(&before);
        // Integers below 2^53: the tree order can't change the answer.
        let expect: f64 = values.iter().filter(|&&v| v > 0.0).sum();
        assert_eq!(fused, expect);
        assert_eq!(fused_delta.kernel_launches, 2, "fused path is one pass + final");
        assert_eq!(fused_delta.wall_ns, fused_delta.kernel_ns);
    }

    #[test]
    fn merge_scatter_applies_pairs_and_charges_one_launch() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[1.0, 2.0, 3.0, 4.0]);
        let pairs = [(1u64, 20.0f64), (3, 40.0)];
        let encoded: Vec<u8> = pairs
            .iter()
            .flat_map(|(r, v)| r.to_le_bytes().into_iter().chain(v.to_le_bytes()))
            .collect();
        let staging = d.upload(&encoded).unwrap();
        let before = d.ledger().snapshot();
        let mut stream = SimStream::new(&d);
        merge_deltas_f64(&mut stream, buf, staging, pairs.len()).unwrap();
        let delta = d.ledger().snapshot().since(&before);
        assert_eq!(delta.kernel_launches, 1);
        assert_eq!(delta.transfer_ns, 0, "scatter itself must not touch PCIe");
        assert_eq!(reduce_sum_f64(&d, buf).unwrap(), 1.0 + 20.0 + 3.0 + 40.0);
        // Replaying the same batch is idempotent.
        merge_deltas_f64(&mut stream, buf, staging, pairs.len()).unwrap();
        assert_eq!(reduce_sum_f64(&d, buf).unwrap(), 64.0);
        // Out-of-bounds rows are surfaced and charge nothing.
        let before = d.ledger().snapshot();
        let err = scatter_deltas_f64(&mut stream, buf, &[(9, 1.0)]).unwrap_err();
        assert!(matches!(err, Error::UnknownRow(9)));
        assert_eq!(d.ledger().snapshot().since(&before).kernel_launches, 0);
        d.free(staging).unwrap();
    }

    #[test]
    fn fragment_partials_merge_bit_identically_across_placements() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..20_000).map(|i| (i as f64).cos() * 3.7).collect();
        let frag_rows = 1024;
        // Single "node" holding every fragment.
        let whole = upload_f64(&d, &values);
        let single = reduce_fragment_partials_f64(&d, whole, frag_rows).unwrap();
        // Two nodes, fragments dealt round-robin; merging the per-node
        // partials back into global fragment order must reproduce the
        // single-node partials exactly.
        let frags: Vec<&[f64]> = values.chunks(frag_rows).collect();
        let mut merged = vec![0.0f64; frags.len()];
        for node in 0..2 {
            let slice: Vec<f64> = frags
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == node)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            let buf = upload_f64(&d, &slice);
            let partials = reduce_fragment_partials_f64(&d, buf, frag_rows).unwrap();
            for (local, p) in partials.into_iter().enumerate() {
                merged[local * 2 + node] = p;
            }
        }
        assert_eq!(
            single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            merged.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // With frag_rows = reduce_seg_len(n), the fragment partials ARE the
        // canonical pass-1 segments, so the merged tree equals the flat
        // two-pass reduction bit-for-bit.
        let n = values.len();
        let seg = reduce_seg_len(n);
        let canon = reduce_fragment_partials_f64(&d, whole, seg).unwrap();
        assert_eq!(tree_sum(&canon).to_bits(), reduce_sum_f64(&d, whole).unwrap().to_bits());
    }

    #[test]
    fn keyed_fragment_partials_group_in_row_order() {
        let d = SimDevice::with_defaults();
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let keys = vec![7i64, 3, 7, 3, 9];
        let buf = upload_f64(&d, &values);
        let before = d.ledger().snapshot();
        let partials = keyed_fragment_partials_f64(&d, buf, &keys, 3).unwrap();
        assert_eq!(d.ledger().snapshot().since(&before).kernel_launches, 1);
        assert_eq!(partials.len(), 2);
        assert_eq!(partials[0], vec![(3, 2.0), (7, 4.0)]);
        assert_eq!(partials[1], vec![(3, 4.0), (9, 5.0)]);
        assert!(keyed_fragment_partials_f64(&d, buf, &keys[..3], 3).is_err());
    }

    #[test]
    fn group_tree_sums_match_an_ordered_map_model() {
        let values: Vec<f64> = (0..3_000).map(|i| (i as f64 * 0.61).cos() * 1e4).collect();
        let dense: Vec<i64> = (0..3_000).map(|i| i % 11).collect();
        // A span far beyond twice the rows takes the ranked ids.
        let ranked: Vec<i64> = (0..3_000).map(|i| (i % 13) * 1_000_003 - (1 << 40)).collect();
        let negative: Vec<i64> = (0..3_000).map(|i| -(i % 5) - 7).collect();
        let cases =
            [(&dense[..], &values[..]), (&ranked, &values), (&negative, &values), (&[], &[])];
        for (keys, values) in cases {
            let mut model: std::collections::BTreeMap<i64, Vec<f64>> = Default::default();
            for (&k, &v) in keys.iter().zip(values) {
                model.entry(k).or_default().push(v);
            }
            let want: Vec<(i64, u64)> =
                model.into_iter().map(|(k, vs)| (k, tree_sum(&vs).to_bits())).collect();
            let got: Vec<(i64, u64)> =
                group_tree_sums(keys, values).into_iter().map(|(k, s)| (k, s.to_bits())).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn group_sum_reduces_each_group_canonically_in_three_launches() {
        let d = SimDevice::with_defaults();
        let values: Vec<f64> = (0..5_000).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let buf = upload_f64(&d, &values);
        // Dense and sparse keys, negative and extreme ones included.
        let dense: Vec<i64> = (0..5_000).map(|i| i % 7 - 3).collect();
        let sparse: Vec<i64> = (0..5_000).map(|i| [i64::MIN, 5, i64::MAX][i % 3]).collect();
        for keys in [dense, sparse] {
            let before = d.ledger().snapshot();
            let got = group_sum_f64(&d, buf, &keys).unwrap();
            assert_eq!(d.ledger().snapshot().since(&before).kernel_launches, 3);
            let mut groups: std::collections::BTreeMap<i64, Vec<f64>> = Default::default();
            for (&k, &v) in keys.iter().zip(&values) {
                groups.entry(k).or_default().push(v);
            }
            let want: Vec<(i64, u64)> = groups
                .into_iter()
                .map(|(k, vs)| {
                    let mut r = SegmentReducer::new(reduce_seg_len(vs.len()));
                    r.push_f64s(&vs);
                    (k, r.finish().to_bits())
                })
                .collect();
            let got: Vec<(i64, u64)> = got.into_iter().map(|(k, s)| (k, s.to_bits())).collect();
            assert_eq!(got, want);
        }
        assert!(group_sum_f64(&d, buf, &[1, 2]).is_err(), "one key per row");
    }

    #[test]
    fn group_sum_gathers_into_device_memory() {
        // 40k values take 320 kB of a 1 MB device; the gather as much again.
        let d = SimDevice::new(0, DeviceSpec::tiny());
        let values: Vec<f64> = (0..40_000).map(|i| i as f64).collect();
        let buf = upload_f64(&d, &values);
        let keys: Vec<i64> = (0..40_000).map(|i| i % 3).collect();
        assert_eq!(group_sum_f64(&d, buf, &keys).unwrap().len(), 3);
        assert_eq!((d.used_bytes(), d.peak_bytes()), (320_000, 640_000), "scratch freed");
        // Less room than the gather needs: no launch, nothing leaked.
        let filler = d.alloc(d.free_bytes() - 319_999).unwrap();
        let before = d.ledger().snapshot();
        let err = group_sum_f64(&d, buf, &keys).unwrap_err();
        assert!(matches!(err, Error::DeviceOutOfMemory { .. }), "{err}");
        assert_eq!(d.ledger().snapshot().since(&before).kernel_launches, 0);
        d.free(filler).unwrap();
        assert_eq!(d.used_bytes(), 320_000);
    }

    #[test]
    fn fused_filter_sum_none_qualify_and_empty() {
        let d = SimDevice::with_defaults();
        let buf = upload_f64(&d, &[1.0, 2.0, 3.0]);
        assert_eq!(filter_sum_f64(&d, buf, |_| false).unwrap(), 0.0);
        let empty = d.alloc(0).unwrap();
        assert_eq!(filter_sum_f64(&d, empty, |_| true).unwrap(), 0.0);
    }
}
