//! Crash recovery: the reference engine with a write-ahead log attached
//! rebuilds its full state — including committed transactions — from the
//! log alone, and torn log tails lose only uncommitted work.

use std::sync::Arc;

use htapg::core::engine::StorageEngine;
use htapg::core::wal::{MemStorage, Wal};
use htapg::core::Value;
use htapg::engines::ReferenceEngine;
use htapg::exec::physical;
use htapg::workload::tpcc::{item_attr, Generator};

#[test]
fn full_state_survives_a_crash() {
    let wal = Arc::new(Wal::new(MemStorage::new()));
    let gen = Generator::new(61);

    // --- before the crash ---
    let engine = ReferenceEngine::new();
    engine.attach_wal(wal.clone());
    let rel = engine.create_relation(htapg::workload::tpcc::item_schema()).unwrap();
    for i in 0..500 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    // Autocommit updates…
    engine.update_field(rel, 7, item_attr::I_PRICE, &Value::Float64(1.25)).unwrap();
    // …and an explicit multi-field transaction.
    let txn = engine.begin();
    engine.txn_update(rel, &txn, 8, item_attr::I_PRICE, Value::Float64(2.50)).unwrap();
    engine.txn_update(rel, &txn, 8, item_attr::I_IM_ID, Value::Int32(-1)).unwrap();
    engine.txn_commit(rel, &txn).unwrap();
    // An aborted transaction leaves no trace in the recovered state.
    let doomed = engine.begin();
    engine.txn_update(rel, &doomed, 9, item_attr::I_PRICE, Value::Float64(9e9)).unwrap();
    engine.txn_abort(rel, &doomed).unwrap();

    let want_sum = physical::volcano_sum(&engine, rel, item_attr::I_PRICE).unwrap();
    let want_rec8 = engine.read_record(rel, 8).unwrap();
    drop(engine); // the crash

    // --- after the crash ---
    let recovered = ReferenceEngine::new();
    let report = recovered.recover_from(&wal).unwrap();
    assert!(report.records > 500);
    assert!(!report.torn_tail);
    assert_eq!(recovered.row_count(rel).unwrap(), 500);
    assert_eq!(recovered.read_field(rel, 7, item_attr::I_PRICE).unwrap(), Value::Float64(1.25));
    assert_eq!(recovered.read_record(rel, 8).unwrap(), want_rec8);
    // The aborted write was never redone.
    assert_ne!(recovered.read_field(rel, 9, item_attr::I_PRICE).unwrap(), Value::Float64(9e9));
    let got_sum = physical::volcano_sum(&recovered, rel, item_attr::I_PRICE).unwrap();
    assert_eq!(got_sum.to_bits(), want_sum.to_bits(), "{got_sum} vs {want_sum}");
}

#[test]
fn torn_tail_loses_only_the_unfinished_transaction() {
    let wal = Arc::new(Wal::new(MemStorage::new()));
    let gen = Generator::new(67);
    let engine = ReferenceEngine::new();
    engine.attach_wal(wal.clone());
    let rel = engine.create_relation(htapg::workload::tpcc::item_schema()).unwrap();
    for i in 0..50 {
        engine.insert(rel, &gen.item(i)).unwrap();
    }
    engine.update_field(rel, 1, item_attr::I_PRICE, &Value::Float64(11.0)).unwrap();
    // A transaction whose Commit record we tear off the log tail.
    let txn = engine.begin();
    engine.txn_update(rel, &txn, 2, item_attr::I_PRICE, Value::Float64(22.0)).unwrap();
    engine.txn_commit(rel, &txn).unwrap();
    // Tear into the final (Commit) frame: the update's redo loses its
    // commit marker.
    wal.storage().lock().tear_tail(5);

    let recovered = ReferenceEngine::new();
    let report = recovered.recover_from(&wal).unwrap();
    assert!(report.torn_tail);
    // The earlier committed update survived…
    assert_eq!(recovered.read_field(rel, 1, item_attr::I_PRICE).unwrap(), Value::Float64(11.0));
    // …the torn transaction did not (no commit record ⇒ not redone).
    assert_eq!(
        recovered.read_field(rel, 2, item_attr::I_PRICE).unwrap(),
        gen.item(2)[item_attr::I_PRICE as usize],
        "uncommitted-by-the-log work must be discarded"
    );
}

#[test]
fn recovered_engine_keeps_working_and_logging() {
    let wal = Arc::new(Wal::new(MemStorage::new()));
    let gen = Generator::new(71);
    {
        let engine = ReferenceEngine::new();
        engine.attach_wal(wal.clone());
        let rel = engine.create_relation(htapg::workload::tpcc::item_schema()).unwrap();
        for i in 0..20 {
            engine.insert(rel, &gen.item(i)).unwrap();
        }
    }
    // First recovery, more work, second crash, second recovery.
    let engine2 = ReferenceEngine::new();
    engine2.recover_from(&wal).unwrap();
    engine2.attach_wal(wal.clone());
    for i in 20..40 {
        engine2.insert(0, &gen.item(i)).unwrap();
    }
    drop(engine2);

    let engine3 = ReferenceEngine::new();
    engine3.recover_from(&wal).unwrap();
    assert_eq!(engine3.row_count(0).unwrap(), 40);
    assert_eq!(engine3.read_record(0, 39).unwrap(), gen.item(39));
}
