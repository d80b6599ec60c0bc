//! Randomized cross-engine equivalence: arbitrary op sequences against
//! randomly chosen engines must match the row-store oracle, with
//! maintenance injected at arbitrary points. Driven by the deterministic
//! in-repo [`Prng`] (seed honors `HTAPG_SEED`, printed on failure).

use htapg::core::engine::StorageEngine;
use htapg::core::plan::LogicalPlan;
use htapg::core::prng::{check_cases, Prng};
use htapg::core::{DataType, Schema, Value};
use htapg::engines::{
    Es2Engine, H2oEngine, HyperEngine, HyriseEngine, LStoreEngine, MirrorsEngine, PaxEngine,
    PelotonEngine, PlainEngine, ReferenceEngine,
};
use htapg::exec::physical;
use htapg::exec::threading::ThreadingPolicy;

fn small_schema() -> Schema {
    Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64), ("t", DataType::Text(5))])
}

#[derive(Debug, Clone)]
enum EngOp {
    Insert(i64, f64),
    Update { row_sel: u16, value: f64 },
    ReadRecord { row_sel: u16 },
    ReadField { row_sel: u16, attr_sel: u8 },
    Sum,
    Maintain,
}

fn arb_finite_f64(rng: &mut Prng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

fn arb_op(rng: &mut Prng) -> EngOp {
    // Weights match the original distribution: 3/3/3/2/1/1.
    match rng.gen_range(0u32..13) {
        0..=2 => EngOp::Insert(rng.next_u64() as i64, arb_finite_f64(rng)),
        3..=5 => EngOp::Update { row_sel: rng.next_u64() as u16, value: arb_finite_f64(rng) },
        6..=8 => EngOp::ReadRecord { row_sel: rng.next_u64() as u16 },
        9..=10 => {
            EngOp::ReadField { row_sel: rng.next_u64() as u16, attr_sel: rng.next_u64() as u8 }
        }
        11 => EngOp::Sum,
        _ => EngOp::Maintain,
    }
}

fn build_engine(which: u8) -> Box<dyn StorageEngine> {
    match which % 10 {
        0 => Box::new(PaxEngine::new()),
        1 => Box::new(MirrorsEngine::new()),
        2 => Box::new(HyriseEngine::new()),
        3 => Box::new(Es2Engine::new(3)),
        4 => Box::new(H2oEngine::new()),
        5 => Box::new(HyperEngine::with_chunk_rows(16)),
        6 => Box::new(LStoreEngine::new()),
        7 => Box::new(PelotonEngine::with_tile_rows(16)),
        8 => Box::new(ReferenceEngine::new()),
        _ => Box::new(PlainEngine::column_store()),
    }
}

#[test]
fn engine_matches_oracle() {
    check_cases("engine_matches_oracle", 24, 0x0E26_17E5, |case, rng| {
        // Cycle engines so every archetype is covered, plus a random draw.
        let which = (case as u8).wrapping_add(rng.next_u64() as u8 & 1);
        let ops: Vec<_> = (0..rng.gen_range(1usize..80)).map(|_| arb_op(rng)).collect();
        let engine = build_engine(which);
        let oracle = PlainEngine::row_store();
        let schema = small_schema();
        let rel_e = engine.create_relation(schema.clone()).unwrap();
        let rel_o = oracle.create_relation(schema).unwrap();
        // Seed one row so row selectors always have a target.
        let seed = vec![Value::Int64(-1), Value::Float64(0.0), Value::Text("s".into())];
        engine.insert(rel_e, &seed).unwrap();
        oracle.insert(rel_o, &seed).unwrap();
        let mut rows = 1u64;
        for op in ops {
            match op {
                EngOp::Insert(k, v) => {
                    let rec = vec![
                        Value::Int64(k),
                        Value::Float64(v),
                        Value::Text(format!("r{}", rows % 100)),
                    ];
                    assert_eq!(
                        engine.insert(rel_e, &rec).unwrap(),
                        oracle.insert(rel_o, &rec).unwrap()
                    );
                    rows += 1;
                }
                EngOp::Update { row_sel, value } => {
                    let row = row_sel as u64 % rows;
                    engine.update_field(rel_e, row, 1, &Value::Float64(value)).unwrap();
                    oracle.update_field(rel_o, row, 1, &Value::Float64(value)).unwrap();
                }
                EngOp::ReadRecord { row_sel } => {
                    let row = row_sel as u64 % rows;
                    assert_eq!(
                        engine.read_record(rel_e, row).unwrap(),
                        oracle.read_record(rel_o, row).unwrap(),
                        "{} record {}",
                        engine.name(),
                        row
                    );
                }
                EngOp::ReadField { row_sel, attr_sel } => {
                    let row = row_sel as u64 % rows;
                    let attr = (attr_sel % 3) as u16;
                    assert_eq!(
                        engine.read_field(rel_e, row, attr).unwrap(),
                        oracle.read_field(rel_o, row, attr).unwrap(),
                        "{} field ({}, {})",
                        engine.name(),
                        row,
                        attr
                    );
                }
                EngOp::Sum => {
                    let plan = engine.plan(&LogicalPlan::sum(rel_e, 1)).unwrap();
                    let out = physical::execute(engine.as_ref(), &plan, ThreadingPolicy::Single);
                    let a = out.unwrap().as_sum().unwrap();
                    let b = physical::volcano_sum(&oracle, rel_o, 1).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "{}: {} vs {}", engine.name(), a, b);
                }
                EngOp::Maintain => {
                    engine.maintain().unwrap();
                }
            }
        }
        assert_eq!(engine.row_count(rel_e).unwrap(), rows);
    });
}
