//! Host aggregates against their Volcano oracles, bit for bit: the
//! counting-sort group-sum and the in-place column reduction must give the
//! bits of `volcano_group_sum` / `volcano_sum` / `volcano_filter_sum` on
//! key shapes that stress the grouping — dense keys, a single key, no
//! rows, a group longer than one canonical segment, and a key span far
//! wider than the row count with `i64::MIN` and `i64::MAX` side by side —
//! over contiguous (column store), strided (row store) and overlay-patched
//! (reference engine) columns. The seed honors `HTAPG_SEED`.

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Predicate, ScanStrategy};
use htapg::core::prng::{check_cases, Prng};
use htapg::core::{DataType, Schema, Value};
use htapg::engines::{PlainEngine, ReferenceEngine};
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::threading::ThreadingPolicy;

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

fn bits(groups: &[(i64, f64)]) -> Vec<(i64, u64)> {
    groups.iter().map(|&(k, v)| (k, v.to_bits())).collect()
}

fn planned(engine: &dyn StorageEngine, logical: &LogicalPlan) -> QueryOutput {
    let plan = engine.plan(logical).unwrap();
    physical::execute(engine, &plan, ThreadingPolicy::multi8()).unwrap()
}

#[test]
fn host_group_sum_is_bit_identical_to_volcano() {
    check_cases("host_group_sum_is_bit_identical_to_volcano", 15, 0x6A0F_5E01, |case, rng| {
        let keys = arb_keys(case % 5, rng);
        let values: Vec<f64> = keys.iter().map(|_| arb_value(rng)).collect();
        for engine in engines() {
            let e = engine.as_ref();
            let rel = e.create_relation(schema()).unwrap();
            for (&k, &v) in keys.iter().zip(&values) {
                // The 32-bit key column folds the 64-bit key into i32 range.
                let k32 = (k % 1000) as i32;
                e.insert(rel, &vec![Value::Int64(k), Value::Int32(k32), Value::Float64(v)])
                    .unwrap();
            }
            // Patch a few rows through the update path, so the reference
            // engine answers from its version overlay.
            for row in 0..keys.len().min(3) as u64 {
                e.update_field(rel, row, V, &Value::Float64(-(row as f64) - 0.5)).unwrap();
            }
            for key in [K64, K32] {
                let want = bits(&physical::volcano_group_sum(e, rel, key, V).unwrap());
                for strategy in [ScanStrategy::ContiguousBytes, ScanStrategy::ValueVisit] {
                    for policy in [None, Some(ThreadingPolicy::multi8())] {
                        let got = physical::group_sum_host(e, rel, key, V, strategy, policy);
                        assert_eq!(bits(&got.unwrap()), want, "{} key {key}", e.name());
                    }
                }
                let out = planned(e, &LogicalPlan::group_sum(rel, key, V));
                assert_eq!(bits(out.as_groups().unwrap()), want, "{} planned", e.name());
            }
            let pred = Predicate::Ge(0.0);
            let sum = physical::volcano_sum(e, rel, V).unwrap();
            let filtered = physical::volcano_filter_sum(e, rel, V, &pred).unwrap();
            let got = planned(e, &LogicalPlan::sum(rel, V)).as_sum().unwrap();
            assert_eq!(got.to_bits(), sum.to_bits(), "{} sum", e.name());
            let got = planned(e, &LogicalPlan::filter_sum(rel, V, pred)).as_sum().unwrap();
            assert_eq!(got.to_bits(), filtered.to_bits(), "{} filter_sum", e.name());
        }
    });
}
