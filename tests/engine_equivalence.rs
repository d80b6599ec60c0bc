//! Cross-engine equivalence: every engine — whatever its physical layout,
//! device placement, versioning, or cluster distribution — must answer the
//! same logical queries identically. A randomized workload of inserts,
//! updates, point reads, planned sums, several-column block reads and
//! interleaved maintenance runs against every engine plus a trivially
//! correct oracle.

use htapg::core::engine::StorageEngine;
use htapg::core::plan::LogicalPlan;
use htapg::core::prng::check_cases;
use htapg::core::{AttrId, DataType, Error, Record, RelationId, ShardingKind, Value};
use htapg::engines::{all_surveyed_engines, EmulatedMultiEngine, PlainEngine, ReferenceEngine};
use htapg::exec::physical;
use htapg::exec::threading::ThreadingPolicy;
use htapg::exec::ShardedEngine;
use htapg::workload::tpcc::{item_attr, item_schema, Generator};

fn engines_under_test() -> Vec<Box<dyn StorageEngine>> {
    let mut v = all_surveyed_engines();
    v.push(Box::new(ReferenceEngine::new()));
    v
}

/// Every engine: the ten surveyed, the reference engine, the three plain
/// baselines, the emulated multi-layout engine and a 4-node sharded one.
fn every_engine() -> Vec<Box<dyn StorageEngine>> {
    let mut v = engines_under_test();
    v.push(Box::new(PlainEngine::row_store()));
    v.push(Box::new(PlainEngine::column_store()));
    v.push(Box::new(PlainEngine::emulated_column_store()));
    v.push(Box::new(EmulatedMultiEngine::new()));
    v.push(Box::new(ShardedEngine::new(ShardingKind::Hash, 4)));
    v
}

/// An integer, a float and a text column, read together.
const BLOCK_ATTRS: [AttrId; 3] = [item_attr::I_IM_ID, item_attr::I_PRICE, item_attr::I_NAME];

/// Every row's [`BLOCK_ATTRS`] fields from one several-column block read,
/// each block checked to hold the same rows in every column.
fn block_read(e: &dyn StorageEngine, rel: RelationId) -> Vec<Record> {
    let schema = e.schema(rel).unwrap();
    let types: Vec<DataType> = BLOCK_ATTRS.iter().map(|&a| schema.ty(a).unwrap()).collect();
    let mut records = Vec::new();
    e.with_aligned_blocks(rel, &BLOCK_ATTRS, &mut |blocks| {
        assert_eq!(blocks.len(), BLOCK_ATTRS.len(), "{}: a block per column", e.name());
        let rows = blocks[0].len() / types[0].width();
        for (block, ty) in blocks.iter().zip(&types) {
            assert_eq!(
                block.len(),
                rows * ty.width(),
                "{}: the same rows in every column",
                e.name()
            );
        }
        for i in 0..rows {
            let field = |(block, ty): (&&[u8], &DataType)| {
                Value::decode(*ty, &block[i * ty.width()..(i + 1) * ty.width()])
            };
            records.push(blocks.iter().zip(&types).map(field).collect());
        }
    })
    .unwrap();
    records
}

#[test]
fn randomized_workload_equivalence() {
    // One randomized case; the seed honors HTAPG_SEED and is printed on
    // failure so CI logs are directly reproducible.
    check_cases("randomized_workload_equivalence", 1, 99, |_, rng| {
        randomized_workload_equivalence_case(rng)
    });
}

fn randomized_workload_equivalence_case(rng: &mut htapg::core::prng::Prng) {
    let gen = Generator::new(1234);
    let oracle = PlainEngine::row_store();
    let engines = every_engine();

    let oracle_rel = oracle.create_relation(item_schema()).unwrap();
    let rels: Vec<_> = engines.iter().map(|e| e.create_relation(item_schema()).unwrap()).collect();

    let mut rows = 0u64;
    // Seed rows so updates have targets, and enough of them that
    // maintenance leaves full units behind: HyPer's cold chunk, L-Store's
    // compressed base blocks and Peloton's columnar tile groups.
    for i in 0..4_200 {
        let rec = gen.item(i);
        oracle.insert(oracle_rel, &rec).unwrap();
        for (e, &rel) in engines.iter().zip(&rels) {
            e.insert(rel, &rec).unwrap();
        }
        rows += 1;
    }

    for step in 0..600 {
        match rng.gen_range(0..100) {
            0..=29 => {
                let rec = gen.item(rows);
                oracle.insert(oracle_rel, &rec).unwrap();
                for (e, &rel) in engines.iter().zip(&rels) {
                    let got = e.insert(rel, &rec).unwrap();
                    assert_eq!(got, rows, "{} row id", e.name());
                }
                rows += 1;
            }
            30..=59 => {
                let row = rng.gen_range(0..rows);
                let v = Value::Float64(rng.gen_range(0.0..100.0));
                oracle.update_field(oracle_rel, row, item_attr::I_PRICE, &v).unwrap();
                for (e, &rel) in engines.iter().zip(&rels) {
                    e.update_field(rel, row, item_attr::I_PRICE, &v).unwrap();
                }
            }
            60..=79 => {
                let row = rng.gen_range(0..rows);
                let want: Record = oracle.read_record(oracle_rel, row).unwrap();
                for (e, &rel) in engines.iter().zip(&rels) {
                    let got = e.read_record(rel, row).unwrap();
                    assert_eq!(got, want, "{} record {row} at step {step}", e.name());
                }
            }
            80..=87 => {
                let want: Vec<Record> = (0..rows)
                    .map(|row| {
                        let rec = oracle.read_record(oracle_rel, row).unwrap();
                        BLOCK_ATTRS.iter().map(|&a| rec[a as usize].clone()).collect()
                    })
                    .collect();
                for (e, &rel) in engines.iter().zip(&rels) {
                    let got = block_read(e.as_ref(), rel);
                    assert_eq!(got.len(), want.len(), "{} block rows at step {step}", e.name());
                    if let Some(row) = (0..want.len()).find(|&i| got[i] != want[i]) {
                        panic!("{} block row {row} at step {step}: {:?}", e.name(), got[row]);
                    }
                }
            }
            88..=94 => {
                let flat = physical::volcano_sum(&oracle, oracle_rel, item_attr::I_PRICE).unwrap();
                for (e, &rel) in engines.iter().zip(&rels) {
                    let plan = e.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
                    // A sharded plan reduces at its fragment granularity.
                    let want = match plan.root.partition_rows as usize {
                        0 => flat,
                        part => physical::sharded_volcano_sum(
                            &oracle,
                            oracle_rel,
                            item_attr::I_PRICE,
                            None,
                            part,
                        )
                        .unwrap(),
                    };
                    let out = physical::execute(e.as_ref(), &plan, ThreadingPolicy::Single);
                    let got = out.unwrap().as_sum().unwrap();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} sum {got} vs oracle {want} at step {step}",
                        e.name()
                    );
                }
            }
            _ => {
                // Maintenance at arbitrary points must never change answers.
                // A second pass finds every full unit quiet, so HyPer
                // freezes its cold chunk and Peloton turns groups columnar.
                for e in &engines {
                    e.maintain().unwrap();
                    e.maintain().unwrap();
                }
            }
        }
    }

    // Final sweep: every row of every engine equals the oracle.
    for row in (0..rows).step_by(7) {
        let want = oracle.read_record(oracle_rel, row).unwrap();
        for (e, &rel) in engines.iter().zip(&rels) {
            assert_eq!(e.read_record(rel, row).unwrap(), want, "{} final row {row}", e.name());
        }
    }
    for (e, &rel) in engines.iter().zip(&rels) {
        assert_eq!(e.row_count(rel).unwrap(), rows, "{}", e.name());
    }
}

#[test]
fn scan_order_and_coverage_is_identical_everywhere() {
    let gen = Generator::new(5);
    let engines = engines_under_test();
    for engine in engines {
        let rel = engine.create_relation(item_schema()).unwrap();
        for i in 0..500 {
            engine.insert(rel, &gen.item(i)).unwrap();
        }
        engine.maintain().unwrap();
        let mut rows = Vec::new();
        let mut values = Vec::new();
        engine
            .scan_column(rel, item_attr::I_ID, &mut |row, v| {
                rows.push(row);
                values.push(v.clone());
            })
            .unwrap();
        assert_eq!(rows, (0..500u64).collect::<Vec<_>>(), "{} row order", engine.name());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(v, &Value::Int64(i as i64), "{} value {i}", engine.name());
        }
    }
}

#[test]
fn errors_are_uniform_across_engines() {
    let engines = every_engine();
    for engine in engines {
        let empty = engine.create_relation(item_schema()).unwrap();
        let rel = engine.create_relation(item_schema()).unwrap();
        engine.insert(rel, &Generator::new(0).item(0)).unwrap();
        for r in [empty, rel] {
            let mut visits = 0;
            assert_eq!(
                engine.with_aligned_blocks(r, &[item_attr::I_ID, 99], &mut |_| visits += 1),
                Err(Error::UnknownAttribute(99)),
                "{} block read of an unknown attribute",
                engine.name()
            );
            assert_eq!(visits, 0, "{}", engine.name());
        }
        assert!(engine.read_record(rel, 5).is_err(), "{} bad row", engine.name());
        assert!(
            engine.update_field(rel, 0, 99, &Value::Int32(0)).is_err(),
            "{} bad attr",
            engine.name()
        );
        assert!(
            engine.update_field(rel, 0, item_attr::I_PRICE, &Value::Text("x".into())).is_err(),
            "{} bad type",
            engine.name()
        );
        assert!(engine.read_record(99, 0).is_err(), "{} bad relation", engine.name());
    }
}

/// An insert is all-or-nothing: a record whose text overflows its field is
/// rejected before any storage changes, on every engine, so the relation
/// keeps its row count and the next record lands intact in the next row.
#[test]
fn rejected_insert_leaves_every_engine_intact() {
    let gen = Generator::new(5);
    for engine in every_engine() {
        let name = engine.name();
        let rel = engine.create_relation(item_schema()).unwrap();
        for i in 0..3 {
            engine.insert(rel, &gen.item(i)).unwrap();
        }
        // Fields before and after the over-long one are valid.
        let mut rejected = gen.item(3);
        rejected[item_attr::I_NAME as usize] = Value::Text("x".repeat(7));
        assert_eq!(
            engine.insert(rel, &rejected),
            Err(Error::TextTooLong { max: 6, got: 7 }),
            "{name}: over-long text"
        );
        assert_eq!(engine.row_count(rel).unwrap(), 3, "{name}: row count after the rejection");
        assert_eq!(engine.insert(rel, &gen.item(4)).unwrap(), 3, "{name}: next row id");
        assert_eq!(engine.row_count(rel).unwrap(), 4, "{name}: row count");
        assert_eq!(engine.read_record(rel, 3).unwrap(), gen.item(4), "{name}: next record");
        for i in 0..3 {
            assert_eq!(engine.read_record(rel, i).unwrap(), gen.item(i), "{name}: row {i}");
        }
    }
}
