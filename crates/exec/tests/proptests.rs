//! Randomized property tests for the execution layer: Figure 2's
//! attribute-centric sums and record-centric materialization must agree on
//! arbitrary data under arbitrary layouts and threading policies, the
//! keyed grouping must partition the total, and the streaming segment
//! reducer must give the canonical reduction's bits whatever the block
//! split. Driven by the deterministic in-repo [`Prng`] (seed honors
//! `HTAPG_SEED`, printed on failure).

use htapg_core::plan::Predicate;
use htapg_core::prng::{check_cases, Prng};
use htapg_core::{DataType, Layout, LayoutTemplate, RowId, Schema, Value};
use htapg_device::kernels::{self, tree_sum, SegmentReducer};
use htapg_exec::materialize::materialize;
use htapg_exec::physical::{self, segmented_sum};
use htapg_exec::scan::{sum_at_positions_f64, sum_column_f64_typed};
use htapg_exec::threading::ThreadingPolicy;

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)])
}

fn build(template: LayoutTemplate, rows: &[(i64, f64)]) -> Layout {
    let s = schema();
    let mut l = Layout::new(&s, template).unwrap();
    for &(k, v) in rows {
        l.append(&s, &vec![Value::Int64(k), Value::Float64(v)]).unwrap();
    }
    l
}

fn arb_rows(rng: &mut Prng) -> Vec<(i64, f64)> {
    (0..rng.gen_range(0usize..200))
        .map(|_| (rng.gen_range(-8i64..8), rng.gen_range(-100.0..100.0)))
        .collect()
}

/// The rows whose value is positive, in row order: a sorted position list,
/// like the output of the join that precedes Figure 2's operators.
fn positive_positions(rows: &[(i64, f64)]) -> Vec<RowId> {
    rows.iter().enumerate().filter(|(_, &(_, v))| v > 0.0).map(|(i, _)| i as RowId).collect()
}

/// The value field of every materialized record, summed in order.
fn sum_records(layout: &Layout, positions: &[RowId], policy: ThreadingPolicy) -> f64 {
    let records = materialize(layout, &schema(), positions, policy).unwrap();
    records.iter().map(|r| r[1].as_f64().unwrap()).sum()
}

fn templates() -> Vec<LayoutTemplate> {
    let s = schema();
    vec![
        LayoutTemplate::nsm(&s),
        LayoutTemplate::dsm(&s),
        LayoutTemplate::dsm_emulated(&s),
        LayoutTemplate::pax(&s, 16),
    ]
}

#[test]
fn sums_agree_across_models_layouts_policies() {
    check_cases("sums_agree_across_models_layouts_policies", 48, 0xE8EC_0001, |_, rng| {
        let rows = arb_rows(rng);
        let reference: f64 = rows.iter().map(|(_, v)| v).sum();
        let all: Vec<RowId> = (0..rows.len() as RowId).collect();
        for template in templates() {
            let layout = build(template, &rows);
            for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
                // Attribute-centric: the column scan, and the sum at every
                // position; record-centric: the materialized records.
                let scan = sum_column_f64_typed(&layout, 1, DataType::Float64, policy).unwrap();
                assert!((scan - reference).abs() < 1e-6);
                let at = sum_at_positions_f64(&layout, 1, DataType::Float64, &all, policy).unwrap();
                assert!((at - reference).abs() < 1e-6);
                assert!((sum_records(&layout, &all, policy) - reference).abs() < 1e-6);
            }
        }
    });
}

#[test]
fn policies_are_bit_identical_on_arbitrary_layouts() {
    // The executor-pool determinism guarantee, as a property: every
    // threading policy folds the identical morsel partition in the
    // identical order, so sums are bit-for-bit equal — not merely within
    // epsilon — and materialized records arrive in position order, on any
    // layout, at any size. Sizes straddle the morsel boundary (64K rows)
    // so both the inline path and the real pooled path are exercised.
    check_cases("policies_are_bit_identical_on_arbitrary_layouts", 9, 0xE8EC_0005, |case, rng| {
        let n = match case % 3 {
            0 => rng.gen_range(0usize..512),
            1 => rng.gen_range(65_530usize..65_545),
            _ => rng.gen_range(130_000usize..140_000),
        };
        let rows: Vec<(i64, f64)> =
            (0..n).map(|_| (rng.gen_range(-8i64..8), rng.gen_range(-100.0..100.0))).collect();
        let all = templates();
        let template = all[rng.gen_range(0usize..all.len())].clone();
        let layout = build(template, &rows);
        let single = ThreadingPolicy::Single;
        let single_sum = sum_column_f64_typed(&layout, 1, DataType::Float64, single).unwrap();
        let positions = positive_positions(&rows);
        let single_pos_sum =
            sum_at_positions_f64(&layout, 1, DataType::Float64, &positions, single).unwrap();
        let single_records = materialize(&layout, &schema(), &positions, single).unwrap();
        for threads in [2usize, 8, 32] {
            let policy = ThreadingPolicy::Multi { threads };
            let sum = sum_column_f64_typed(&layout, 1, DataType::Float64, policy).unwrap();
            assert_eq!(sum.to_bits(), single_sum.to_bits(), "sum, threads={threads}");
            let pos_sum =
                sum_at_positions_f64(&layout, 1, DataType::Float64, &positions, policy).unwrap();
            assert_eq!(pos_sum.to_bits(), single_pos_sum.to_bits(), "pos sum, threads={threads}");
            let records = materialize(&layout, &schema(), &positions, policy).unwrap();
            assert!(records == single_records, "materialize, threads={threads}");
        }
    });
}

#[test]
fn group_sum_partitions_the_total() {
    check_cases("group_sum_partitions_the_total", 48, 0xE8EC_0003, |_, rng| {
        let rows = arb_rows(rng);
        let (keys, values): (Vec<i64>, Vec<f64>) = rows.iter().copied().unzip();
        let groups = kernels::group_tree_sums(&keys, &values);
        let total: f64 = values.iter().sum();
        let group_total: f64 = groups.iter().map(|(_, s)| s).sum();
        assert!((total - group_total).abs() < 1e-6);
        // One group per distinct key, in key order.
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(groups.iter().map(|&(k, _)| k).collect::<Vec<_>>(), distinct);
    });
}

/// Split `n` rows into arbitrary blocks: empty ones, single rows, and
/// spans that cut canonical segments anywhere.
fn arb_splits(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < n {
        let len = match rng.gen_range(0u32..4) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(1..=n - at),
        };
        cuts.push(len);
        at += len;
    }
    cuts.push(0);
    cuts
}

/// The canonical reduction spelled out: `seg`-row chunks, each filtered
/// then tree-summed, then the tree sum of the partials.
fn chunked_sum(values: &[f64], seg: usize, keep: impl Fn(f64) -> bool) -> f64 {
    let partials: Vec<f64> = values
        .chunks(seg.max(1))
        .map(|c| tree_sum(&c.iter().copied().filter(|&v| keep(v)).collect::<Vec<f64>>()))
        .collect();
    tree_sum(&partials)
}

#[test]
fn segment_reducer_matches_canonical_sums_over_any_block_split() {
    check_cases("segment_reducer_matches_canonical_sums", 60, 0xE8EC_0006, |case, rng| {
        let n = rng.gen_range(0usize..6000);
        // One column of each numeric type, as packed little-endian bytes.
        let (ty, bytes, values): (DataType, Vec<u8>, Vec<f64>) = match case % 3 {
            0 => {
                let v: Vec<f64> = (0..n)
                    .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-20i32..=20)))
                    .collect();
                (DataType::Float64, v.iter().flat_map(|x| x.to_le_bytes()).collect(), v)
            }
            1 => {
                let v: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64 >> 8).collect();
                let f = v.iter().map(|&x| x as f64).collect();
                (DataType::Int64, v.iter().flat_map(|x| x.to_le_bytes()).collect(), f)
            }
            _ => {
                let v: Vec<i32> = (0..n).map(|_| rng.next_u64() as i32).collect();
                let f = v.iter().map(|&x| x as f64).collect();
                (DataType::Int32, v.iter().flat_map(|x| x.to_le_bytes()).collect(), f)
            }
        };
        let dec = kernels::f64_decoder(ty).unwrap();
        let pred = Predicate::Ge(0.0);
        let seg = kernels::reduce_seg_len(n);
        let part = rng.gen_range(1usize..3000);
        let splits = arb_splits(n, rng);
        let feed = |seg_len: usize, keep: Option<&Predicate>| {
            let mut r = SegmentReducer::with_filter(seg_len, keep.map(|p| move |v| p.matches(v)));
            let mut at = 0;
            for (i, &len) in splits.iter().enumerate() {
                // Alternate byte blocks and decoded blocks.
                if i % 2 == 0 {
                    r.push_bytes(&bytes[at * dec.width..(at + len) * dec.width], dec);
                } else {
                    r.push_f64s(&values[at..at + len]);
                }
                at += len;
            }
            assert_eq!(r.rows(), n);
            r.finish()
        };
        let all = |_: f64| true;
        let keep = |v: f64| pred.matches(v);
        let single = ThreadingPolicy::Single;
        for (got, want) in [
            (feed(seg, None), physical::canonical_sum(&values)),
            (feed(seg, Some(&pred)), segmented_sum(&values, None, Some(&pred), single)),
            (feed(part, None), segmented_sum(&values, Some(part), None, single)),
            (feed(part, Some(&pred)), segmented_sum(&values, Some(part), Some(&pred), single)),
            (feed(seg, None), chunked_sum(&values, seg, all)),
            (feed(seg, Some(&pred)), chunked_sum(&values, seg, keep)),
            (feed(part, Some(&pred)), chunked_sum(&values, part, keep)),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{} rows of {}", n, ty.name());
        }
        for threads in [1usize, 2, 8] {
            let policy = ThreadingPolicy::Multi { threads };
            let pooled = physical::pooled_canonical_sum(&values, policy);
            assert_eq!(pooled.to_bits(), chunked_sum(&values, seg, all).to_bits());
            let pooled = segmented_sum(&values, None, Some(&pred), policy);
            assert_eq!(pooled.to_bits(), chunked_sum(&values, seg, keep).to_bits());
            let pooled = segmented_sum(&values, Some(part), Some(&pred), policy);
            assert_eq!(pooled.to_bits(), chunked_sum(&values, part, keep).to_bits());
        }
    });
}

/// Rows per pool morsel.
const MORSEL: usize = htapg_exec::pool::MORSEL_ROWS as usize;

/// Feed `values` to `r` in blocks of `splits` rows the way the pooled
/// reduction does: each block's head, up to its first segment start, and
/// its tail, from its last whole segment on, go to `r`; the whole segments
/// in between go to forked reducers, cut at arbitrary segment boundaries,
/// which `r` then appends in row order.
fn feed_forked<K: Fn(f64) -> bool + Copy>(
    r: &mut SegmentReducer<K>,
    values: &[f64],
    splits: &[usize],
    rng: &mut Prng,
) {
    let seg = r.seg_len();
    let mut at = 0;
    for &len in splits {
        let end = at + len;
        let s0 = at.next_multiple_of(seg).min(end);
        let s1 = (end - end % seg).max(s0);
        r.push_f64s(&values[at..s0]);
        let mut lo = s0;
        while lo < s1 {
            let hi = (lo + seg * rng.gen_range(0..=(s1 - lo) / seg)).max(lo + seg);
            let mut fork = r.fork();
            fork.push_f64s(&values[lo..hi]);
            r.append(fork);
            lo = hi;
        }
        r.push_f64s(&values[s1..end]);
        at = end;
    }
}

#[test]
fn pooled_reduction_matches_canonical_sums_at_pool_scale() {
    // Columns of 2 to 4 morsels: a segment length that divides the morsel
    // (131_072 rows: 128), ones that do not (131_073: 129), a last morsel
    // shorter than a segment (3 morsels + 50 rows: 193), and random ones.
    let fixed = [2 * MORSEL, 2 * MORSEL + 1, 3 * MORSEL + 50];
    check_cases(
        "pooled_reduction_matches_canonical_sums_at_pool_scale",
        6,
        0xE8EC_0007,
        |case, rng| {
            let n = match fixed.get(case as usize) {
                Some(&n) => n,
                None => rng.gen_range(2 * MORSEL..=4 * MORSEL),
            };
            let seg = kernels::reduce_seg_len(n);
            let values: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-20i32..=20)))
                .collect();
            let pred = Predicate::Ge(0.0);
            let keep = |v: f64| pred.matches(v);
            let want = chunked_sum(&values, seg, |_| true);
            let want_filtered = chunked_sum(&values, seg, keep);
            for threads in [1usize, 2, 8, 32] {
                let policy = ThreadingPolicy::Multi { threads };
                let got = physical::pooled_canonical_sum(&values, policy);
                assert_eq!(got.to_bits(), want.to_bits(), "{n} rows, {threads} threads");
                let got = segmented_sum(&values, None, Some(&pred), policy);
                assert_eq!(got.to_bits(), want_filtered.to_bits(), "{n} rows, {threads} threads");
            }
            let splits = arb_splits(n, rng);
            let mut r = SegmentReducer::new(seg);
            feed_forked(&mut r, &values, &splits, rng);
            assert_eq!(r.rows(), n);
            assert_eq!(r.finish().to_bits(), want.to_bits(), "forked, {n} rows");
            let mut r = SegmentReducer::with_filter(seg, Some(keep));
            feed_forked(&mut r, &values, &splits, rng);
            assert_eq!(r.finish().to_bits(), want_filtered.to_bits(), "forked filter, {n} rows");
        },
    );
}
