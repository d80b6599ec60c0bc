//! Randomized property tests over the core data structures and invariants.
//!
//! Cases are driven by the in-repo deterministic [`Prng`]; the base seed
//! honors `HTAPG_SEED` and is printed on failure (see
//! `htapg_core::prng::check_cases`), so any CI failure replays locally.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use htapg_core::calibrate::CalibrationProfiles;
use htapg_core::compress::{self, Codec, Dictionary, ForBitPack, Rle};
use htapg_core::index::{BPlusTree, HashIndex};
use htapg_core::prng::{check_cases, Prng};
use htapg_core::txn::{MvStore, TxnManager};
use htapg_core::{
    AccessHint, AttrId, DataType, DelegationPolicy, DelegationRule, GroupOrder, Layout,
    LayoutTemplate, Linearization, Relation, RowId, Schema, Scheme, Value, VerticalGroup,
};

// ---------------------------------------------------------------------
// Random-value helpers.
// ---------------------------------------------------------------------

fn arb_f64(rng: &mut Prng) -> f64 {
    // Full bit patterns (minus NaN, which breaks PartialEq) so encode/decode
    // sees subnormals, infinities, and negative zero too.
    loop {
        let v = f64::from_bits(rng.next_u64());
        if !v.is_nan() {
            return v;
        }
    }
}

fn arb_text(rng: &mut Prng, max: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    let len = rng.gen_range(0usize..=max);
    let s: String = (0..len).map(|_| CHARS[rng.gen_range(0usize..CHARS.len())] as char).collect();
    s.trim_end().to_string()
}

fn arb_value_and_type(rng: &mut Prng) -> (Value, DataType) {
    match rng.gen_range(0usize..6) {
        0 => (Value::Bool(rng.gen_bool(0.5)), DataType::Bool),
        1 => (Value::Int32(rng.next_u64() as i32), DataType::Int32),
        2 => (Value::Int64(rng.next_u64() as i64), DataType::Int64),
        3 => (Value::Float64(arb_f64(rng)), DataType::Float64),
        4 => (Value::Date(rng.next_u64() as i32), DataType::Date),
        _ => (Value::Text(arb_text(rng, 12)), DataType::Text(12)),
    }
}

// ---------------------------------------------------------------------
// Values: encode/decode identity for every type.
// ---------------------------------------------------------------------

#[test]
fn value_roundtrip() {
    check_cases("value_roundtrip", 256, 0xC0DE_0001, |_, rng| {
        let (v, ty) = arb_value_and_type(rng);
        let mut buf = vec![0u8; ty.width()];
        v.encode_into(ty, &mut buf).unwrap();
        assert_eq!(Value::decode(ty, &buf), v);
    });
}

// ---------------------------------------------------------------------
// Layouts: every template stores and retrieves identically.
// ---------------------------------------------------------------------

fn test_schema() -> Schema {
    Schema::of(&[
        ("a", DataType::Int64),
        ("b", DataType::Int32),
        ("c", DataType::Float64),
        ("d", DataType::Text(6)),
    ])
}

fn arb_template(rng: &mut Prng) -> LayoutTemplate {
    let groups = match rng.gen_range(0usize..5) {
        0 => vec![VerticalGroup::new(vec![0, 1, 2, 3], GroupOrder::Nsm)],
        1 => vec![VerticalGroup::new(vec![0, 1, 2, 3], GroupOrder::Dsm)],
        2 => vec![VerticalGroup::new(vec![0, 1, 2, 3], GroupOrder::ThinPerAttr)],
        3 => vec![
            VerticalGroup::new(vec![0, 3], GroupOrder::Nsm),
            VerticalGroup::new(vec![1, 2], GroupOrder::Dsm),
        ],
        _ => vec![
            VerticalGroup::new(vec![2], GroupOrder::ThinPerAttr),
            VerticalGroup::new(vec![0, 1, 3], GroupOrder::Nsm),
        ],
    };
    let chunk = if rng.gen_bool(0.5) { None } else { Some(rng.gen_range(2u64..64)) };
    LayoutTemplate::grouped(groups, chunk)
}

fn arb_record(rng: &mut Prng) -> Vec<Value> {
    vec![
        Value::Int64(rng.next_u64() as i64),
        Value::Int32(rng.next_u64() as i32),
        Value::Float64(arb_f64(rng)),
        Value::Text(arb_text(rng, 6).trim_end().to_string()),
    ]
}

/// `n >= 2` records whose first text is empty and whose last text fills
/// its field: the two edges of a fixed-width text slot.
fn arb_records_with_edge_texts(rng: &mut Prng, n: usize) -> Vec<Vec<Value>> {
    let mut records: Vec<_> = (0..n).map(|_| arb_record(rng)).collect();
    records[0][3] = Value::Text(String::new());
    records[n - 1][3] = Value::Text("abcdef".into());
    records
}

/// Fragment by fragment, `a` and `b` have the same specs and the same
/// bytes.
fn assert_same_fragments(a: &[htapg_core::Fragment], b: &[htapg_core::Fragment]) {
    assert_eq!(a.len(), b.len(), "fragment count");
    for (fa, fb) in a.iter().zip(b) {
        assert_eq!(fa.spec(), fb.spec());
        assert_eq!(fa.len(), fb.len());
        assert_eq!(fa.raw(), fb.raw(), "bytes of {:?}", fa.spec());
    }
}

#[test]
fn any_layout_roundtrips_records() {
    check_cases("any_layout_roundtrips_records", 64, 0xC0DE_0002, |_, rng| {
        let template = arb_template(rng);
        let records: Vec<_> = (0..rng.gen_range(1usize..120)).map(|_| arb_record(rng)).collect();
        let s = test_schema();
        template.validate(&s).unwrap();
        let mut layout = Layout::new(&s, template.clone()).unwrap();
        for (i, rec) in records.iter().enumerate() {
            let row = layout.append(&s, rec).unwrap();
            assert_eq!(row, i as u64);
        }
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(&layout.read_record(&s, i as u64).unwrap(), rec);
        }
        // Column iteration covers every row once, in order.
        let mut rows = Vec::new();
        for view in layout.column_views(0).unwrap() {
            rows.extend(view.first_row..view.first_row + view.rows);
        }
        assert_eq!(rows, (0..records.len() as u64).collect::<Vec<_>>());

        // A relation reads a record in one pass per layout: under the
        // template alone, and with the template as the primary beside a
        // column layout that owns a random subset of the attributes.
        // Updates reach only the owning layout, so the other copy goes
        // stale and only the owner's field is right.
        let owned: Vec<AttrId> = s.attr_ids().filter(|_| rng.gen_bool(0.5)).collect();
        let policy = DelegationPolicy::new(vec![
            DelegationRule { attrs: Some(owned), row_from: 0, row_to: RowId::MAX, layout: 1 },
            DelegationRule { attrs: None, row_from: 0, row_to: RowId::MAX, layout: 0 },
        ]);
        let layouts = vec![template.clone(), LayoutTemplate::dsm_emulated(&s)];
        let relations = [
            Relation::new(s.clone(), template).unwrap(),
            Relation::with_layouts(s.clone(), layouts, Scheme::Delegation(policy)).unwrap(),
        ];
        for mut relation in relations {
            let mut want = records.clone();
            for rec in &records {
                relation.insert(rec).unwrap();
            }
            for _ in 0..records.len() {
                let row = rng.gen_range(0..records.len());
                let attr = rng.gen_range(0usize..s.arity());
                want[row][attr] = arb_record(rng).swap_remove(attr);
                relation.update_field(row as RowId, attr as AttrId, &want[row][attr]).unwrap();
            }
            for (row, rec) in want.iter().enumerate() {
                let row = row as RowId;
                let per_field: Vec<Value> = s
                    .attr_ids()
                    .map(|a| relation.read_value(row, a, AccessHint::RecordCentric).unwrap())
                    .collect();
                assert_eq!(&per_field, rec, "row {row}");
                assert_eq!(relation.read_record(row).unwrap(), per_field, "row {row}");
            }
            let end = records.len() as RowId;
            assert_eq!(relation.read_record(end), Err(htapg_core::Error::UnknownRow(end)));
        }
    });
}

#[test]
fn rebuild_to_any_template_preserves_content() {
    check_cases("rebuild_to_any_template_preserves_content", 64, 0xC0DE_0003, |_, rng| {
        let from = arb_template(rng);
        let to = arb_template(rng);
        let n = rng.gen_range(2usize..60);
        let records = arb_records_with_edge_texts(rng, n);
        let s = test_schema();
        let mut layout = Layout::new(&s, from).unwrap();
        let mut appended = Layout::new(&s, to.clone()).unwrap();
        for rec in &records {
            layout.append(&s, rec).unwrap();
            appended.append(&s, rec).unwrap();
        }
        let rebuilt = layout.rebuild(&s, to).unwrap();
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(&rebuilt.read_record(&s, i as u64).unwrap(), rec);
        }
        // A byte copy: the same fragments, byte for byte, as appending the
        // records under the target template.
        assert_eq!(rebuilt.row_count(), appended.row_count());
        assert_same_fragments(rebuilt.fragments(), appended.fragments());
    });
}

#[test]
fn relinearize_is_lossless() {
    check_cases("relinearize_is_lossless", 64, 0xC0DE_0004, |_, rng| {
        let n = rng.gen_range(2usize..50);
        let records = arb_records_with_edge_texts(rng, n);
        let to_dsm = rng.gen_bool(0.5);
        let s = test_schema();
        let order = if to_dsm { Linearization::Dsm } else { Linearization::Nsm };
        let other = if to_dsm { Linearization::Nsm } else { Linearization::Dsm };
        // Spare capacity, so the unpopulated tail is compared too.
        let capacity = records.len() as u64 + rng.gen_range(0u64..4);
        let new_frag = |order| {
            let spec =
                htapg_core::FragmentSpec { first_row: 0, capacity, attrs: vec![0, 1, 2, 3], order };
            htapg_core::Fragment::new(&s, spec).unwrap()
        };
        let (mut frag, mut appended) = (new_frag(order), new_frag(other));
        for rec in &records {
            frag.append(&s, rec).unwrap();
            appended.append(&s, rec).unwrap();
        }
        let re = frag.relinearize(&s, other).unwrap();
        for i in 0..records.len() as u64 {
            assert_eq!(frag.read_tuplet(&s, i).unwrap(), re.read_tuplet(&s, i).unwrap());
        }
        assert_same_fragments(&[re], &[appended]);
    });
}

// ---------------------------------------------------------------------
// Compression: decode(encode(x)) == x for every codec.
// ---------------------------------------------------------------------

#[test]
fn codecs_roundtrip() {
    check_cases("codecs_roundtrip", 128, 0xC0DE_0005, |_, rng| {
        let values: Vec<u64> = (0..rng.gen_range(0usize..400)).map(|_| rng.next_u64()).collect();
        for codec in [&Rle as &dyn Codec, &Dictionary, &ForBitPack] {
            let block = codec.encode(&values);
            assert_eq!(&codec.decode(&block).unwrap(), &values);
        }
        let auto = compress::auto_encode(&values);
        assert_eq!(&compress::decode(&auto).unwrap(), &values);
    });
}

#[test]
fn codecs_roundtrip_skewed() {
    check_cases("codecs_roundtrip_skewed", 128, 0xC0DE_0006, |_, rng| {
        // Runs of low-cardinality values: the shapes codecs exploit.
        let runs = rng.gen_range(0usize..60);
        let mut values = Vec::new();
        for _ in 0..runs {
            let v = rng.gen_range(0u64..8);
            let n = rng.gen_range(1u64..50);
            values.extend(std::iter::repeat_n(v, n as usize));
        }
        for codec in [&Rle as &dyn Codec, &Dictionary, &ForBitPack] {
            let block = codec.encode(&values);
            assert_eq!(&codec.decode(&block).unwrap(), &values);
        }
    });
}

// ---------------------------------------------------------------------
// B+-tree: model-based equivalence with BTreeMap.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    Range(u16, u16),
}

fn arb_tree_op(rng: &mut Prng) -> TreeOp {
    let k = rng.next_u64() as u16;
    match rng.gen_range(0usize..4) {
        0 => TreeOp::Insert(k, rng.next_u64() as u32),
        1 => TreeOp::Remove(k),
        2 => TreeOp::Get(k),
        _ => {
            let other = rng.next_u64() as u16;
            TreeOp::Range(k.min(other), k.max(other))
        }
    }
}

#[test]
fn bptree_matches_btreemap() {
    check_cases("bptree_matches_btreemap", 64, 0xC0DE_0007, |_, rng| {
        let ops: Vec<_> = (0..rng.gen_range(1usize..400)).map(|_| arb_tree_op(rng)).collect();
        let mut tree = BPlusTree::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    assert_eq!(tree.remove(&k), model.remove(&k));
                }
                TreeOp::Get(k) => {
                    assert_eq!(tree.get(&k), model.get(&k));
                }
                TreeOp::Range(lo, hi) => {
                    let got = tree.range_keys(Bound::Included(&lo), Bound::Excluded(&hi));
                    let want: Vec<u16> = model.range(lo..hi).map(|(k, _)| *k).collect();
                    assert_eq!(got, want);
                }
            }
            assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants();
        // Full ordered iteration agrees.
        let mut got = Vec::new();
        tree.for_each(&mut |k, v| got.push((*k, *v)));
        let want: Vec<(u16, u32)> = model.into_iter().collect();
        assert_eq!(got, want);
    });
}

#[test]
fn hash_index_matches_model() {
    check_cases("hash_index_matches_model", 64, 0xC0DE_0008, |_, rng| {
        let ops: Vec<_> = (0..rng.gen_range(1usize..300)).map(|_| arb_tree_op(rng)).collect();
        let mut index = HashIndex::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    assert_eq!(index.insert(k, v), model.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    assert_eq!(index.remove(&k), model.remove(&k));
                }
                TreeOp::Get(k) | TreeOp::Range(k, _) => {
                    assert_eq!(index.get(&k), model.get(&k));
                }
            }
        }
        assert_eq!(index.len(), model.len());
    });
}

// ---------------------------------------------------------------------
// MVCC: serial history equivalence — committed transactions applied in
// commit order produce the same final state as a sequential map; aborted
// transactions leave no trace; snapshots are stable.
// ---------------------------------------------------------------------

#[test]
fn mvcc_committed_history_matches_model() {
    check_cases("mvcc_committed_history_matches_model", 48, 0xC0DE_0009, |_, rng| {
        let steps: Vec<(u8, u8, u16)> = (0..rng.gen_range(1usize..150))
            .map(|_| (rng.gen_range(0u8..4), rng.next_u64() as u8, rng.next_u64() as u16))
            .collect();
        let mgr = Arc::new(TxnManager::new());
        let store: MvStore<u8, u16> = MvStore::new(mgr.clone());
        let mut model: BTreeMap<u8, u16> = BTreeMap::new();
        for (kind, key, value) in steps {
            let txn = mgr.begin();
            match kind {
                0 => {
                    // put + commit
                    if store.put(&txn, key, value).is_ok() {
                        store.commit(&txn).unwrap();
                        model.insert(key, value);
                    } else {
                        store.abort(&txn).unwrap();
                    }
                }
                1 => {
                    // put + abort: no trace (aborted whether or not the
                    // put itself conflicted)
                    let _ = store.put(&txn, key, value);
                    store.abort(&txn).unwrap();
                }
                2 => {
                    // delete + commit
                    if store.delete(&txn, key).is_ok() {
                        store.commit(&txn).unwrap();
                        model.remove(&key);
                    } else {
                        store.abort(&txn).unwrap();
                    }
                }
                _ => {
                    // read must match the model
                    assert_eq!(store.get(&txn, &key), model.get(&key).copied());
                    store.abort(&txn).unwrap();
                }
            }
        }
        // Final committed view equals the model.
        let reader = mgr.begin();
        for k in 0u8..4 {
            assert_eq!(store.get(&reader, &k), model.get(&k).copied());
        }
    });
}

// ---------------------------------------------------------------------
// Calibration: EWMA factors converge to the true cost ratio, stay
// positive/finite under arbitrary residual streams, and snapshot
// byte-identically under the same seed.
// ---------------------------------------------------------------------

#[test]
fn calibration_converges_monotonically_to_true_ratio() {
    check_cases("calibration_converges_monotonically_to_true_ratio", 64, 0xC0DE_000B, |_, rng| {
        // A constant true ratio r: every observation reports actual =
        // r * raw. Restricted to ratios and estimates where integer
        // truncation of `actual` is far below the EWMA step, so the
        // convergence error is monotone up to a tiny additive slack.
        let r = rng.gen_range(1e-2..1e4);
        let mut prev_err = f64::INFINITY;
        let p = CalibrationProfiles::new();
        for _ in 0..24 {
            let raw = rng.gen_range(10_000u64..1_000_000);
            let actual = (raw as f64 * r) as u64;
            p.observe("plan.aggregate.sum", "device-pipelined", raw, actual);
            let f = p.learned_factor("plan.aggregate.sum", "device-pipelined").unwrap();
            assert!(f.is_finite() && f > 0.0, "factor {f}");
            let err = (f - r).abs();
            assert!(
                err <= prev_err + r * 1e-2,
                "convergence not monotone: err {err} after prev {prev_err} (r = {r})"
            );
            prev_err = err;
        }
        let f = p.learned_factor("plan.aggregate.sum", "device-pipelined").unwrap();
        assert!((f - r).abs() / r < 0.02, "factor {f} should be within 2% of true ratio {r}");
    });
}

#[test]
fn calibration_factors_never_nan_zero_or_negative() {
    check_cases("calibration_factors_never_nan_zero_or_negative", 64, 0xC0DE_000C, |_, rng| {
        let p = CalibrationProfiles::new();
        for _ in 0..rng.gen_range(1usize..200) {
            // Adversarial residuals: zeros, u64::MAX, and everything
            // in between, on a handful of keys.
            let raw = match rng.gen_range(0usize..4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64() >> rng.gen_range(0u64..64),
            };
            let actual = match rng.gen_range(0usize..4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64() >> rng.gen_range(0u64..64),
            };
            let op =
                ["plan.scan", "plan.aggregate.sum", "plan.point_read"][rng.gen_range(0usize..3)];
            let route = ["inline-volcano", "device-pipelined"][rng.gen_range(0usize..2)];
            p.observe(op, route, raw, actual);
            let f = p.learned_factor(op, route).unwrap();
            assert!(f.is_finite(), "factor {f} for ({op}, {route})");
            assert!(f > 0.0, "factor {f} for ({op}, {route})");
            let cal = p.calibrated_ns(op, route, raw);
            let _ = cal; // must not panic/overflow; saturates at u64::MAX
        }
        for e in p.snapshot().entries {
            assert!(e.factor.is_finite() && e.factor > 0.0, "{e:?}");
        }
    });
}

#[test]
fn calibration_is_byte_identical_under_same_seed() {
    // Two profiles fed the identical seeded residual stream snapshot to
    // byte-identical factors (f64::to_bits equality), independent of
    // HTAPG_THREADS — observation order is the only input.
    check_cases("calibration_is_byte_identical_under_same_seed", 32, 0xC0DE_000D, |case, _| {
        let run = |seed: u64| {
            let mut rng = Prng::seed_from_u64(seed);
            let p = CalibrationProfiles::new();
            for _ in 0..50 {
                let raw = rng.gen_range(1u64..1_000_000);
                let actual = rng.gen_range(0u64..1_000_000);
                let op = ["plan.scan", "plan.aggregate.sum"][rng.gen_range(0usize..2)];
                p.observe(op, "inline-volcano", raw, actual);
            }
            p.snapshot()
        };
        let a = run(case);
        let b = run(case);
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.route, y.route);
            assert_eq!(x.observations, y.observations);
            assert_eq!(x.factor.to_bits(), y.factor.to_bits(), "factors differ in bits");
        }
    });
}

#[test]
fn mvcc_snapshots_are_immutable() {
    check_cases("mvcc_snapshots_are_immutable", 48, 0xC0DE_000A, |_, rng| {
        let writes: Vec<(u8, u16)> = (0..rng.gen_range(1usize..60))
            .map(|_| (rng.gen_range(0u8..3), rng.next_u64() as u16))
            .collect();
        let mgr = Arc::new(TxnManager::new());
        let store: MvStore<u8, u16> = MvStore::new(mgr.clone());
        // Commit an initial state, snapshot it, then mutate heavily.
        let init = mgr.begin();
        store.put(&init, 0, 111).unwrap();
        store.commit(&init).unwrap();
        let snapshot = mgr.begin();
        let frozen = store.get(&snapshot, &0);
        for (key, value) in writes {
            let t = mgr.begin();
            if store.put(&t, key, value).is_ok() {
                store.commit(&t).unwrap();
            } else {
                store.abort(&t).unwrap();
            }
            assert_eq!(store.get(&snapshot, &0), frozen, "snapshot drifted");
        }
    });
}
