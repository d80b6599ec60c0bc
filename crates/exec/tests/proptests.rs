//! Randomized property tests for the execution layer: the two processing
//! models (Volcano and bulk) and all three join algorithms must agree on
//! arbitrary data under arbitrary layouts and threading policies, and the
//! streaming segment reducer must give the canonical reduction's bits
//! whatever the block split. Driven by
//! the deterministic in-repo [`Prng`] (seed honors `HTAPG_SEED`, printed on
//! failure).

use htapg_core::plan::Predicate;
use htapg_core::prng::{check_cases, Prng};
use htapg_core::{DataType, Layout, LayoutTemplate, Schema, Value};
use htapg_device::kernels::{self, tree_sum, SegmentReducer};
use htapg_exec::scan::{column_stats, sum_column_f64_typed};
use htapg_exec::threading::ThreadingPolicy;
use htapg_exec::{bulk, join, physical, volcano};

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
        let s = schema();
        let reference: f64 = rows.iter().map(|(_, v)| v).sum();
        for template in templates() {
            let layout = build(template, &rows);
            for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
                let scan = sum_column_f64_typed(&layout, 1, DataType::Float64, policy).unwrap();
                assert!((scan - reference).abs() < 1e-6);
            }
            let vol = volcano::sum_f64(volcano::Scan::new(&layout, &s), 1).unwrap();
            assert!((vol - reference).abs() < 1e-6);
            let batches = bulk::scan_batches(&layout, &s, &[1], 32).unwrap();
            let blk = bulk::sum_f64(&batches, 1).unwrap();
            assert!((blk - reference).abs() < 1e-6);
            let stats =
                column_stats(&layout, 1, DataType::Float64, ThreadingPolicy::Single).unwrap();
            assert_eq!(stats.count, rows.len() as u64);
            assert!((stats.sum - reference).abs() < 1e-6);
        }
    });
}

#[test]
fn policies_are_bit_identical_on_arbitrary_layouts() {
    // The executor-pool determinism guarantee, as a property: every
    // threading policy folds the identical morsel partition in the
    // identical order, so sums and stats are bit-for-bit equal — not
    // merely within epsilon — on any layout, at any size. Sizes straddle
    // the morsel boundary (64K rows) so both the inline path and the real
    // pooled path are exercised.
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
        let single_sum =
            sum_column_f64_typed(&layout, 1, DataType::Float64, ThreadingPolicy::Single).unwrap();
        let single_stats =
            column_stats(&layout, 1, DataType::Float64, ThreadingPolicy::Single).unwrap();
        let positions =
            htapg_exec::scan::filter_positions(&layout, 1, DataType::Float64, |v| v > 0.0).unwrap();
        let single_pos_sum = htapg_exec::scan::sum_at_positions_f64(
            &layout,
            1,
            DataType::Float64,
            &positions,
            ThreadingPolicy::Single,
        )
        .unwrap();
        for threads in [2usize, 8, 32] {
            let policy = ThreadingPolicy::Multi { threads };
            let sum = sum_column_f64_typed(&layout, 1, DataType::Float64, policy).unwrap();
            assert_eq!(sum.to_bits(), single_sum.to_bits(), "sum, threads={threads}");
            let stats = column_stats(&layout, 1, DataType::Float64, policy).unwrap();
            assert_eq!(stats.count, single_stats.count, "count, threads={threads}");
            assert_eq!(
                stats.sum.to_bits(),
                single_stats.sum.to_bits(),
                "stats.sum, threads={threads}"
            );
            assert_eq!(
                stats.min.to_bits(),
                single_stats.min.to_bits(),
                "stats.min, threads={threads}"
            );
            assert_eq!(
                stats.max.to_bits(),
                single_stats.max.to_bits(),
                "stats.max, threads={threads}"
            );
            let hits =
                htapg_exec::scan::count_where(&layout, 1, DataType::Float64, policy, |v| v > 0.0)
                    .unwrap();
            assert_eq!(hits, positions.len() as u64, "count_where, threads={threads}");
            let pos_sum = htapg_exec::scan::sum_at_positions_f64(
                &layout,
                1,
                DataType::Float64,
                &positions,
                policy,
            )
            .unwrap();
            assert_eq!(pos_sum.to_bits(), single_pos_sum.to_bits(), "pos sum, threads={threads}");
        }
    });
}

#[test]
fn joins_agree_on_arbitrary_keys() {
    check_cases("joins_agree_on_arbitrary_keys", 48, 0xE8EC_0002, |_, rng| {
        let left = arb_rows(rng);
        let right = arb_rows(rng);
        let l = build(LayoutTemplate::dsm_emulated(&schema()), &left);
        let r = build(LayoutTemplate::nsm(&schema()), &right);
        let oracle =
            join::nested_loop_join(&l, 0, DataType::Int64, &r, 0, DataType::Int64).unwrap();
        let hashed = join::hash_join(&l, 0, DataType::Int64, &r, 0, DataType::Int64).unwrap();
        let merged = join::merge_join(&l, 0, DataType::Int64, &r, 0, DataType::Int64).unwrap();
        assert_eq!(&hashed, &oracle);
        assert_eq!(&merged, &oracle);
        // Volcano join counts the same number of matches.
        let vol = volcano::count(volcano::HashJoinOp::new(
            volcano::Scan::new(&l, &schema()),
            volcano::Scan::new(&r, &schema()),
            0,
            0,
        ))
        .unwrap();
        assert_eq!(vol as usize, oracle.len());
    });
}

#[test]
fn group_sum_partitions_the_total() {
    check_cases("group_sum_partitions_the_total", 48, 0xE8EC_0003, |_, rng| {
        let rows = arb_rows(rng);
        let l = build(LayoutTemplate::dsm_emulated(&schema()), &rows);
        let groups = join::group_sum_f64(&l, 0, DataType::Int64, 1, DataType::Float64).unwrap();
        let total: f64 = rows.iter().map(|(_, v)| v).sum();
        let group_total: f64 = groups.iter().map(|(_, s, _)| s).sum();
        assert!((total - group_total).abs() < 1e-6);
        let count_total: u64 = groups.iter().map(|(_, _, c)| c).sum();
        assert_eq!(count_total, rows.len() as u64);
        // Keys are distinct and sorted.
        for w in groups.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    });
}

#[test]
fn filter_positions_match_volcano_filter() {
    check_cases("filter_positions_match_volcano_filter", 48, 0xE8EC_0004, |_, rng| {
        let rows = arb_rows(rng);
        let threshold = rng.gen_range(-100.0..100.0);
        let s = schema();
        let l = build(LayoutTemplate::pax(&s, 8), &rows);
        let positions =
            htapg_exec::scan::filter_positions(&l, 1, DataType::Float64, |v| v > threshold)
                .unwrap();
        let vol = volcano::collect(volcano::Filter::new(
            volcano::Scan::new(&l, &s),
            move |rec| matches!(rec[1], Value::Float64(x) if x > threshold),
        ))
        .unwrap();
        assert_eq!(positions.len(), vol.len());
        for (&p, rec) in positions.iter().zip(&vol) {
            assert_eq!(&l.read_record(&s, p).unwrap(), rec);
        }
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
        for (got, want) in [
            (feed(seg, None), physical::canonical_sum(&values)),
            (feed(seg, Some(&pred)), physical::canonical_filter_sum(&values, &pred)),
            (feed(part, None), physical::sharded_canonical_sum(&values, part)),
            (feed(part, Some(&pred)), physical::sharded_canonical_filter_sum(&values, &pred, part)),
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
            let pooled = physical::pooled_canonical_filter_sum(&values, &pred, policy);
            assert_eq!(pooled.to_bits(), chunked_sum(&values, seg, keep).to_bits());
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
                let got = physical::pooled_canonical_filter_sum(&values, &pred, policy);
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
