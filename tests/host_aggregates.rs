//! Host aggregates against their Volcano oracles, bit for bit: the
//! counting-sort group-sum and the in-place column reduction must give the
//! bits of `volcano_group_sum` / `volcano_sum` / `volcano_filter_sum` on
//! key shapes that stress the grouping — dense keys, a single key, no
//! rows, a group longer than one canonical segment, and a key span far
//! wider than the row count with `i64::MIN` and `i64::MAX` side by side —
//! over contiguous (column store), strided (row store) and overlay-patched
//! (reference engine) columns. The reference engine's snapshot blocks get
//! a suite of their own: patches on chunk edges, pending and aborted
//! writes, rows changing group, and the same data before and after
//! `maintain()` delegates the columns. The seed honors `HTAPG_SEED`.

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Predicate, ScanStrategy};
use htapg::core::prng::{check_cases, Prng};
use htapg::core::{DataType, RelationId, Schema, Value};
use htapg::engines::{PlainEngine, ReferenceEngine};
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::threading::ThreadingPolicy;
use std::collections::BTreeMap;

const K64: u16 = 0;
const K32: u16 = 1;
const V: u16 = 2;

fn schema() -> Schema {
    Schema::of(&[("k64", DataType::Int64), ("k32", DataType::Int32), ("v", DataType::Float64)])
}

/// A value from 1e-20 to 1e20 in magnitude, a signed zero or a subnormal.
fn arb_value(rng: &mut Prng) -> f64 {
    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
    match rng.gen_range(0u32..16) {
        0 => sign * 0.0,
        1 => sign * f64::from_bits(rng.gen_range(1u64..1 << 52)),
        _ => sign * rng.next_f64() * 10f64.powi(rng.gen_range(-20i32..=20)),
    }
}

/// The 64-bit keys of one key shape, one per row.
fn arb_keys(shape: u64, rng: &mut Prng) -> Vec<i64> {
    match shape {
        // Dense keys: a few dozen ids, every row somewhere among them.
        0 => (0..rng.gen_range(1usize..3000)).map(|_| rng.gen_range(-20i64..20)).collect(),
        // One key.
        1 => vec![rng.gen_range(-5i64..5); rng.gen_range(1usize..500)],
        // No rows.
        2 => Vec::new(),
        // A group of more than 1024 rows: its canonical segments hold more
        // than one row, so it reduces through the full two-level tree.
        3 => (0..rng.gen_range(1100usize..2600))
            .map(|_| if rng.gen_bool(0.8) { 7 } else { rng.gen_range(0i64..4) })
            .collect(),
        // A key span far wider than the row count, with both extremes.
        _ => {
            let mut keys: Vec<i64> = (0..rng.gen_range(2usize..400))
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.next_u64() as i64 >> rng.gen_range(0u32..60),
                })
                .collect();
            keys[0] = i64::MIN;
            let last = keys.len() - 1;
            keys[last] = i64::MAX;
            keys
        }
    }
}

fn engines() -> Vec<Box<dyn StorageEngine>> {
    vec![
        Box::new(PlainEngine::column_store()),
        Box::new(PlainEngine::row_store()),
        Box::new(ReferenceEngine::new()),
    ]
}

/// The 32-bit key column folds the 64-bit key into `i32` range.
fn k32(k: i64) -> i32 {
    (k % 1000) as i32
}

fn insert_rows(e: &dyn StorageEngine, rel: RelationId, keys: &[i64], values: &[f64]) {
    for (&k, &v) in keys.iter().zip(values) {
        e.insert(rel, &vec![Value::Int64(k), Value::Int32(k32(k)), Value::Float64(v)]).unwrap();
    }
}

fn bits(groups: &[(i64, f64)]) -> Vec<(i64, u64)> {
    groups.iter().map(|&(k, v)| (k, v.to_bits())).collect()
}

fn column_bits(values: &[f64]) -> Vec<(i64, u64)> {
    values.iter().map(|v| (0, v.to_bits())).collect()
}

fn planned(engine: &dyn StorageEngine, logical: &LogicalPlan) -> QueryOutput {
    let plan = engine.plan(logical).unwrap();
    physical::execute(engine, &plan, ThreadingPolicy::multi8()).unwrap()
}

/// Answers by name, each as `(key, value bits)` pairs.
type Answers = Vec<(String, Vec<(i64, u64)>)>;

/// Every host and planned aggregate: per scan strategy the collected
/// value column and the serial and pooled group-sums, then the planned
/// group_sums, sum and filter_sum.
fn host_answers(e: &dyn StorageEngine, rel: RelationId) -> Answers {
    let mut out = Vec::new();
    for strategy in [ScanStrategy::ContiguousBytes, ScanStrategy::ValueVisit] {
        let column = physical::collect_f64(e, rel, V, strategy).unwrap();
        out.push((format!("{strategy:?} column"), column_bits(&column)));
        for key in [K64, K32] {
            for policy in [None, Some(ThreadingPolicy::multi8())] {
                let got = physical::group_sum_host(e, rel, key, V, strategy, policy).unwrap();
                out.push((format!("{strategy:?} key {key} {policy:?}"), bits(&got)));
            }
        }
    }
    for key in [K64, K32] {
        let groups = planned(e, &LogicalPlan::group_sum(rel, key, V));
        out.push((format!("planned group_sum key {key}"), bits(groups.as_groups().unwrap())));
    }
    let sum = planned(e, &LogicalPlan::sum(rel, V)).as_sum().unwrap();
    out.push(("planned sum".into(), column_bits(&[sum])));
    let filtered = planned(e, &LogicalPlan::filter_sum(rel, V, Predicate::Ge(0.0)));
    out.push(("planned filter_sum".into(), column_bits(&[filtered.as_sum().unwrap()])));
    out
}

/// What [`host_answers`] must return: the Volcano oracles, after checking
/// them against the test's model of the committed rows.
fn volcano_answers(
    e: &dyn StorageEngine,
    rel: RelationId,
    keys: &[i64],
    values: &[f64],
) -> Answers {
    let sum = physical::volcano_sum(e, rel, V).unwrap();
    assert_eq!(sum.to_bits(), physical::canonical_sum(values).to_bits(), "sum oracle vs model");
    let mut groups = Vec::new();
    for key in [K64, K32] {
        let want = bits(&physical::volcano_group_sum(e, rel, key, V).unwrap());
        let mut model: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(values) {
            let k = if key == K64 { k } else { k32(k).into() };
            model.entry(k).or_default().push(v);
        }
        let model: Vec<(i64, f64)> =
            model.into_iter().map(|(k, vs)| (k, physical::canonical_sum(&vs))).collect();
        assert_eq!(want, bits(&model), "group_sum oracle vs model, key {key}");
        groups.push(want);
    }
    let mut out = Vec::new();
    for strategy in [ScanStrategy::ContiguousBytes, ScanStrategy::ValueVisit] {
        out.push((format!("{strategy:?} column"), column_bits(values)));
        for (key, want) in [K64, K32].into_iter().zip(&groups) {
            for policy in [None, Some(ThreadingPolicy::multi8())] {
                out.push((format!("{strategy:?} key {key} {policy:?}"), want.clone()));
            }
        }
    }
    for (key, want) in [K64, K32].into_iter().zip(groups) {
        out.push((format!("planned group_sum key {key}"), want));
    }
    out.push(("planned sum".into(), column_bits(&[sum])));
    let filtered = physical::volcano_filter_sum(e, rel, V, &Predicate::Ge(0.0)).unwrap();
    out.push(("planned filter_sum".into(), column_bits(&[filtered])));
    out
}

fn assert_same(got: &Answers, want: &Answers, when: &str) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{when}: {}", g.0);
    }
}

#[test]
fn host_group_sum_is_bit_identical_to_volcano() {
    check_cases("host_group_sum_is_bit_identical_to_volcano", 15, 0x6A0F_5E01, |case, rng| {
        let keys = arb_keys(case % 5, rng);
        let values: Vec<f64> = keys.iter().map(|_| arb_value(rng)).collect();
        // Patch a few rows through the update path, so the reference
        // engine answers from its version overlay.
        let mut model = values.clone();
        for (row, v) in model.iter_mut().take(3).enumerate() {
            *v = -(row as f64) - 0.5;
        }
        for engine in engines() {
            let e = engine.as_ref();
            let rel = e.create_relation(schema()).unwrap();
            insert_rows(e, rel, &keys, &values);
            for (row, &v) in model.iter().take(3).enumerate() {
                e.update_field(rel, row as u64, V, &Value::Float64(v)).unwrap();
            }
            assert_same(&host_answers(e, rel), &volcano_answers(e, rel, &keys, &model), e.name());
        }
    });
}

/// Rows of one primary-layout chunk of the reference engine.
const CHUNK: u64 = htapg::engines::reference::DEFAULT_CHUNK_ROWS;

#[test]
fn reference_snapshot_blocks_are_bit_identical_to_volcano() {
    check_cases(
        "reference_snapshot_blocks_are_bit_identical_to_volcano",
        4,
        0x6A0F_5E02,
        |_, rng| {
            let e = ReferenceEngine::new();
            let rel = e.create_relation(schema()).unwrap();
            // Two primary chunks: the second one partly filled.
            let rows = CHUNK + rng.gen_range(1u64..2000);
            let mut keys: Vec<i64> = (0..rows).map(|_| rng.gen_range(-20i64..20)).collect();
            let mut model: Vec<f64> = (0..rows).map(|_| arb_value(rng)).collect();
            insert_rows(&e, rel, &keys, &model);
            let set_value = |model: &mut Vec<f64>, row: u64, v: f64| {
                e.update_field(rel, row, V, &Value::Float64(v)).unwrap();
                model[row as usize] = v;
            };
            let set_key = |keys: &mut Vec<i64>, row: u64, k: i64| {
                e.update_field(rel, row, K64, &Value::Int64(k)).unwrap();
                e.update_field(rel, row, K32, &Value::Int32(k32(k))).unwrap();
                keys[row as usize] = k;
            };
            // Committed patches on the first and last row of both chunks, a
            // few inside, and rows moved to another group (one to a new key).
            for row in [0, CHUNK - 1, CHUNK, rows - 1, rng.gen_range(1..CHUNK - 1)] {
                set_value(&mut model, row, arb_value(rng));
            }
            for row in [0, CHUNK - 1, rows - 1, rng.gen_range(0..rows)] {
                set_key(&mut keys, row, rng.gen_range(-20i64..20));
            }
            set_key(&mut keys, CHUNK, 1 << 40);
            // A still-open transaction's pending write, and an aborted write
            // over a row that already has committed versions: both invisible.
            let pending_row = rng.gen_range(1..CHUNK - 1);
            let open = e.begin();
            e.txn_update(rel, &open, pending_row, V, Value::Float64(1e300)).unwrap();
            let aborted = e.begin();
            e.txn_update(rel, &aborted, CHUNK - 1, V, Value::Float64(-1e300)).unwrap();
            e.txn_update(rel, &aborted, CHUNK, K64, Value::Int64(-7)).unwrap();
            e.txn_abort(rel, &aborted).unwrap();
            // Committed after `open` began, so maintenance cannot prune them
            // while it is open: the delegated columns keep patches.
            for row in [0, CHUNK - 1, rows - 1] {
                set_value(&mut model, row, arb_value(rng));
            }
            set_key(&mut keys, rows - 1, -(1 << 40));

            // Before maintenance, from the primary (NSM) layout. These reads
            // record only scans, so `maintain` delegates all three columns.
            assert!(e.delegated(rel).unwrap().is_empty());
            let before = host_answers(&e, rel);
            e.maintain().unwrap();
            let mut delegated = e.delegated(rel).unwrap();
            delegated.sort();
            assert_eq!(delegated, vec![K64, K32, V], "maintain must delegate the scanned columns");
            let after = host_answers(&e, rel);
            assert_same(&after, &before, "after vs before maintain");
            assert_same(&after, &volcano_answers(&e, rel, &keys, &model), "delegated vs volcano");
            // Patches over the delegated (contiguous) columns, then a drained
            // overlay once the open transaction is gone.
            for row in [0, CHUNK, rows - 1, rng.gen_range(pending_row + 1..rows)] {
                set_value(&mut model, row, arb_value(rng));
            }
            set_key(&mut keys, CHUNK - 1, rng.gen_range(-20i64..20));
            let want = volcano_answers(&e, rel, &keys, &model);
            assert_same(&host_answers(&e, rel), &want, "patched delegated columns vs volcano");
            e.txn_abort(rel, &open).unwrap();
            e.maintain().unwrap();
            let want = volcano_answers(&e, rel, &keys, &model);
            assert_same(&host_answers(&e, rel), &want, "drained overlay vs volcano");
        },
    );
}
