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
//! `maintain()` delegates the columns. A pool-scale case (more than three
//! morsels) runs the planned aggregates and the host group-sum under
//! `Single`, `Multi { threads: 2 }` and `multi8()` over one block, many
//! paged blocks and patched snapshot blocks. Every engine that updates in
//! place must answer a host group-sum from one committed state while a
//! writer keeps moving a row between groups (the reference engine also
//! under transactions), and the reference engine keeps its bits when the
//! key column is delegated and the value column is not. The seed honors
//! `HTAPG_SEED`.

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Predicate, ScanStrategy};
use htapg::core::prng::{check_cases, Prng};
use htapg::core::sync::RwLock;
use htapg::core::ShardingKind;
use htapg::core::{
    AccessHint, AttrId, DataType, LayoutTemplate, Record, Relation, RelationId, RowId, Schema,
    Value,
};
use htapg::engines::{all_surveyed_engines, EmulatedMultiEngine, PlainEngine, ReferenceEngine};
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::threading::ThreadingPolicy;
use htapg::exec::ShardedEngine;
use htapg::taxonomy::{survey, Classification};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::time::Duration;

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

/// Rows per page of [`PagedEngine`]: its columns arrive as ~200 blocks
/// that cut segments and morsels anywhere.
const PAGE_ROWS: u64 = 1000;

/// A paged contiguous layout (PAX pages of [`PAGE_ROWS`]): one contiguous
/// block per page and column.
struct PagedEngine(RwLock<Option<Relation>>);

impl StorageEngine for PagedEngine {
    fn name(&self) -> &'static str {
        "PAGED"
    }

    fn classification(&self) -> Classification {
        survey::pax()
    }

    fn create_relation(&self, schema: Schema) -> htapg::core::Result<RelationId> {
        let template = LayoutTemplate::pax(&schema, PAGE_ROWS);
        *self.0.write() = Some(Relation::new(schema, template)?);
        Ok(0)
    }

    fn schema(&self, _: RelationId) -> htapg::core::Result<Schema> {
        Ok(self.0.read().as_ref().unwrap().schema().clone())
    }

    fn insert(&self, _: RelationId, record: &Record) -> htapg::core::Result<RowId> {
        self.0.write().as_mut().unwrap().insert(record)
    }

    fn read_record(&self, _: RelationId, row: RowId) -> htapg::core::Result<Record> {
        self.0.read().as_ref().unwrap().read_record(row)
    }

    fn read_field(&self, _: RelationId, row: RowId, attr: AttrId) -> htapg::core::Result<Value> {
        self.0.read().as_ref().unwrap().read_value(row, attr, AccessHint::AttributeCentric)
    }

    fn update_field(
        &self,
        _: RelationId,
        row: RowId,
        attr: AttrId,
        v: &Value,
    ) -> htapg::core::Result<()> {
        self.0.write().as_mut().unwrap().update_field(row, attr, v)
    }

    fn with_aligned_blocks(
        &self,
        _: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> htapg::core::Result<()> {
        self.0.read().as_ref().unwrap().with_aligned_blocks(attrs, &[], visit)
    }

    fn row_count(&self, _: RelationId) -> htapg::core::Result<u64> {
        Ok(self.0.read().as_ref().unwrap().row_count())
    }
}

/// Assert `got == want`, naming the first differing group instead of
/// printing thousands.
fn same_groups(got: &[(i64, u64)], want: &[(i64, u64)], what: &str) {
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        let (g, w) = (got.get(i), want.get(i));
        panic!("{what}: {} groups, want {}; group {i} is {g:?}, want {w:?}", got.len(), want.len());
    }
}

/// Rows of the pool-scale case: more than 3 morsels of 65,536 rows, and a
/// multiple of neither the morsel nor the canonical segment (197 rows).
const POOL_ROWS: usize = 3 * 65_536 + 4_321;

/// One row of the pool-scale relation: three key shapes, then the value.
/// About 10k dense keys, as with TPC-C's `i_im_id`; a few keys, so every
/// group is far longer than 1024 rows and spans every morsel; and a
/// sparse span with both extremes.
fn pool_row(rng: &mut Prng, sparse: &[i64]) -> [i64; 3] {
    [rng.gen_range(1i64..=10_000), rng.gen_range(-2i64..2), sparse[rng.gen_range(0..sparse.len())]]
}

#[test]
fn pooled_aggregates_are_bit_identical_to_volcano_at_pool_scale() {
    check_cases("pooled_aggregates_at_pool_scale", 1, 0x6A0F_5E03, |_, rng| pool_scale_case(rng));
}

fn pool_scale_case(rng: &mut Prng) {
    let mut sparse: Vec<i64> =
        (0..1000).map(|_| (rng.next_u64() as i64) >> rng.gen_range(0u32..60)).collect();
    sparse.extend([i64::MIN, i64::MAX]);
    let schema = Schema::of(&[
        ("dense", DataType::Int64),
        ("few", DataType::Int64),
        ("sparse", DataType::Int64),
        ("v", DataType::Float64),
    ]);
    let (keys, v): ([AttrId; 3], AttrId) = ([0, 1, 2], 3);
    let rows: Vec<([i64; 3], f64)> =
        (0..POOL_ROWS).map(|_| (pool_row(rng, &sparse), arb_value(rng))).collect();
    // Committed updates at different rows of a key and the value column:
    // the reference engine's snapshot blocks cut the two apart, leaving
    // blocks of one row, of under two morsels and of more than two.
    let mut updates: Vec<(RowId, AttrId, Value)> = [1, 65_535, 65_536, POOL_ROWS - 1]
        .into_iter()
        .map(|row| (row as RowId, v, Value::Float64(arb_value(rng))))
        .collect();
    for row in [7, 150_000] {
        updates.push((row, keys[0], Value::Int64(rng.gen_range(1i64..=10_000))));
    }
    let engines: [Box<dyn StorageEngine>; 3] = [
        Box::new(PlainEngine::column_store()),
        Box::new(PagedEngine(RwLock::new(None))),
        Box::new(ReferenceEngine::new()),
    ];
    let mut oracles = None;
    for engine in engines {
        let e = engine.as_ref();
        let rel = e.create_relation(schema.clone()).unwrap();
        for (k, x) in &rows {
            let rec = vec![Value::Int64(k[0]), Value::Int64(k[1]), Value::Int64(k[2]), (*x).into()];
            e.insert(rel, &rec).unwrap();
        }
        // Scans, then maintenance: the reference engine moves to contiguous
        // columns, which its updates below then patch.
        for attr in keys.into_iter().chain([v]) {
            e.with_column_bytes(rel, attr, &mut |_| {}).unwrap();
        }
        e.maintain().unwrap();
        for (row, attr, value) in &updates {
            e.update_field(rel, *row, *attr, value).unwrap();
        }
        // Every engine holds the same rows: the column store's Volcano
        // oracles are every engine's.
        let pred = Predicate::Ge(0.0);
        let (sum, filtered, groups) = oracles.get_or_insert_with(|| {
            let sum = physical::volcano_sum(e, rel, v).unwrap();
            let filtered = physical::volcano_filter_sum(e, rel, v, &pred).unwrap();
            let groups = keys.map(|k| bits(&physical::volcano_group_sum(e, rel, k, v).unwrap()));
            (sum, filtered, groups)
        });
        let name = e.name();
        let run = |logical: &LogicalPlan, policy| {
            physical::execute(e, &e.plan(logical).unwrap(), policy).unwrap()
        };
        for policy in [
            ThreadingPolicy::Single,
            ThreadingPolicy::Multi { threads: 2 },
            ThreadingPolicy::multi8(),
        ] {
            let got = run(&LogicalPlan::sum(rel, v), policy).as_sum().unwrap();
            assert_eq!(got.to_bits(), sum.to_bits(), "{name} sum {policy:?}");
            let got = run(&LogicalPlan::filter_sum(rel, v, pred), policy).as_sum().unwrap();
            assert_eq!(got.to_bits(), filtered.to_bits(), "{name} filter_sum {policy:?}");
            for (k, want) in keys.into_iter().zip(groups.iter()) {
                let got = run(&LogicalPlan::group_sum(rel, k, v), policy);
                same_groups(
                    &bits(got.as_groups().unwrap()),
                    want,
                    &format!("{name} key {k} {policy:?}"),
                );
                let strategy = ScanStrategy::ContiguousBytes;
                let got = physical::group_sum_host(e, rel, k, v, strategy, Some(policy)).unwrap();
                same_groups(&bits(&got), want, &format!("{name} host key {k} {policy:?}"));
            }
        }
    }
}

/// Group keys of the one-snapshot cases.
const GROUPS: i64 = 4;
/// Rows of the reference engine's one-snapshot case.
const SNAPSHOT_ROWS: u64 = 20_000;
/// Rows of the every-engine one-state case: reads short enough that a
/// writer pausing 5 µs lands between two reads of one query often.
const MOVE_ROWS: u64 = 512;

/// Row 0's key and value after move `i`; every other row's, fixed.
/// Integer values sum to the same bits in any order, so each committed
/// state's answer is plain arithmetic.
fn mover(i: u64) -> (i64, f64) {
    (i as i64 % GROUPS, 1_000.0 * (i + 1) as f64)
}

fn still(row: u64) -> (i64, f64) {
    (row as i64 % GROUPS, (row % 13) as f64)
}

/// Run `queries` host group-sums on `e` while a writer applies moves of
/// row 0 through `apply(i, done)`, which calls `done` after each committed
/// state, pausing `pause` after each move; every answer must be `state(u)`
/// for a committed state `u` the query could have seen.
fn assert_group_sums_read_one_state(
    e: &dyn StorageEngine,
    rel: RelationId,
    (queries, pause): (u32, Duration),
    apply: &(dyn Fn(u64, &dyn Fn()) + Sync),
    state: &dyn Fn(u64) -> Vec<(i64, u64)>,
) {
    let (committed, stop) = (AtomicU64::new(0), AtomicBool::new(false));
    let (mut answered, mut torn) = (0, None);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Bounded, so a failing reader cannot leave the scope waiting.
            for i in 1..=1_000_000 {
                if stop.load(SeqCst) {
                    break;
                }
                apply(i, &|| {
                    committed.fetch_add(1, SeqCst);
                });
                std::thread::sleep(pause);
            }
        });
        for query in 0..queries {
            let first = committed.load(SeqCst);
            let strategy = ScanStrategy::ContiguousBytes;
            let groups = physical::group_sum_host(e, rel, K64, V, strategy, None).unwrap();
            // The state after the last one counted may already be visible.
            let last = committed.load(SeqCst) + 1;
            answered += 1;
            if !(first..=last).any(|u| bits(&groups) == state(u)) {
                torn = Some((query, groups, first..=last));
                break;
            }
        }
        stop.store(true, SeqCst);
    });
    assert_eq!(torn, None, "{}: a host group-sum matched no committed state", e.name());
    assert!(answered > 0);
}

/// The answer of the state in which row 0 holds `(key, value)`.
fn state_with(rows: u64, key: i64, value: f64) -> Vec<(i64, u64)> {
    let mut sums = [0.0; GROUPS as usize];
    for (k, v) in (1..rows).map(still).chain([(key, value)]) {
        sums[k as usize] += v;
    }
    sums.iter().enumerate().map(|(k, s)| (k as i64, s.to_bits())).collect()
}

fn load_moving_rows(e: &dyn StorageEngine, rows: u64) -> RelationId {
    let rel = e.create_relation(schema()).unwrap();
    for (k, v) in [mover(0)].into_iter().chain((1..rows).map(still)) {
        e.insert(rel, &vec![Value::Int64(k), Value::Int32(k32(k)), Value::Float64(v)]).unwrap();
    }
    rel
}

#[test]
fn reference_host_group_sum_reads_keys_and_values_from_one_snapshot() {
    let e = ReferenceEngine::new();
    let rel = load_moving_rows(&e, SNAPSHOT_ROWS);
    // One transaction moves row 0 to another key with a new value.
    let apply = |i: u64, done: &dyn Fn()| {
        let (k, v) = mover(i);
        let txn = e.begin();
        e.txn_update(rel, &txn, 0, K64, Value::Int64(k)).unwrap();
        e.txn_update(rel, &txn, 0, V, Value::Float64(v)).unwrap();
        e.txn_commit(rel, &txn).unwrap();
        done();
    };
    let state = |u: u64| {
        let (k, v) = mover(u);
        state_with(SNAPSHOT_ROWS, k, v)
    };
    let pace = (300, Duration::from_micros(50));
    assert_group_sums_read_one_state(&e, rel, pace, &apply, &state);
}

/// Every engine that updates in place: the ten surveyed, the reference
/// engine, the three plain baselines, the emulated multi-layout engine
/// and a 4-node sharded one.
fn in_place_engines() -> Vec<Box<dyn StorageEngine>> {
    let mut v = all_surveyed_engines();
    v.push(Box::new(ReferenceEngine::new()));
    v.push(Box::new(PlainEngine::row_store()));
    v.push(Box::new(PlainEngine::column_store()));
    v.push(Box::new(PlainEngine::emulated_column_store()));
    v.push(Box::new(EmulatedMultiEngine::new()));
    v.push(Box::new(ShardedEngine::new(ShardingKind::Hash, 4)));
    v
}

#[test]
fn host_group_sum_reads_keys_and_values_from_one_state_on_every_engine() {
    for engine in in_place_engines() {
        let e = engine.as_ref();
        let rel = load_moving_rows(e, MOVE_ROWS);
        // Two single-field updates move row 0: its key, then its value,
        // each a committed state of its own.
        let apply = |i: u64, done: &dyn Fn()| {
            let (k, v) = mover(i);
            e.update_field(rel, 0, K64, &Value::Int64(k)).unwrap();
            done();
            e.update_field(rel, 0, V, &Value::Float64(v)).unwrap();
            done();
        };
        // State `u`: the key of move `ceil(u / 2)`, the value of move `u / 2`.
        let state = |u: u64| state_with(MOVE_ROWS, mover(u.div_ceil(2)).0, mover(u / 2).1);
        let pace = (300, Duration::from_micros(5));
        assert_group_sums_read_one_state(e, rel, pace, &apply, &state);
    }
}

#[test]
fn reference_group_sum_is_bit_identical_across_layouts() {
    check_cases("reference_group_sum_is_bit_identical_across_layouts", 3, 0x6A0F_5E04, |_, rng| {
        let e = ReferenceEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        let rows = 2 * CHUNK + rng.gen_range(1u64..2000);
        let mut keys: Vec<i64> = (0..rows).map(|_| rng.gen_range(-20i64..20)).collect();
        let mut model: Vec<f64> = (0..rows).map(|_| arb_value(rng)).collect();
        insert_rows(&e, rel, &keys, &model);
        // Scans of the key column alone: maintenance delegates it to the
        // analytic layout, and the value column stays in primary chunks.
        for _ in 0..8 {
            physical::touch_column(&e, rel, K64).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(e.delegated(rel).unwrap(), vec![K64]);
        // Patches on both columns, some on one row, on chunk edges.
        for row in [0, CHUNK - 1, CHUNK, rows - 1, rng.gen_range(1..rows)] {
            let v = arb_value(rng);
            e.update_field(rel, row, V, &Value::Float64(v)).unwrap();
            model[row as usize] = v;
        }
        for row in [0, CHUNK, 2 * CHUNK - 1, rng.gen_range(1..rows)] {
            let k = rng.gen_range(-20i64..20);
            e.update_field(rel, row, K64, &Value::Int64(k)).unwrap();
            keys[row as usize] = k;
        }
        let want = bits(&physical::volcano_group_sum(&e, rel, K64, V).unwrap());
        let mut by_key: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(&model) {
            by_key.entry(k).or_default().push(v);
        }
        let model: Vec<(i64, f64)> =
            by_key.into_iter().map(|(k, vs)| (k, physical::canonical_sum(&vs))).collect();
        assert_eq!(want, bits(&model), "oracle vs model");
        for policy in [None, Some(ThreadingPolicy::multi8())] {
            let strategy = ScanStrategy::ContiguousBytes;
            let got = physical::group_sum_host(&e, rel, K64, V, strategy, policy).unwrap();
            assert_eq!(bits(&got), want, "host group-sum {policy:?}");
        }
        let planned = planned(&e, &LogicalPlan::group_sum(rel, K64, V));
        assert_eq!(bits(planned.as_groups().unwrap()), want, "planned group-sum");
    });
}
