//! WAL truncation property: for a log of N framed records, truncation at
//! EVERY byte offset must (1) never panic, (2) never replay a corrupt or
//! invented record — the replayed sequence is always an exact prefix of
//! what was logged — and (3) report `torn_tail` precisely when the cut
//! fell strictly inside a frame (a cut on a frame boundary is a clean EOF).

use htapg_core::prng::{check_cases, Prng};
use htapg_core::wal::{LogRecord, LogStorage, MemStorage, Wal};
use htapg_core::{DataType, Schema, Value};

/// Log `records`, then replay every possible truncation prefix and check
/// the contract. `ctx` goes into assertion messages (seed/case for
/// randomized callers).
fn assert_every_truncation(records: &[LogRecord], ctx: &str) {
    let wal = Wal::new(MemStorage::new());
    // boundaries[i] = byte length of the log after i records.
    let mut boundaries = vec![0usize];
    for rec in records {
        wal.log(rec).unwrap();
        boundaries.push(wal.storage().lock().len());
    }
    let full = wal.storage().lock().read_all().unwrap();
    assert_eq!(full.len(), *boundaries.last().unwrap());

    for cut in 0..=full.len() {
        let wal = Wal::new(MemStorage::from_bytes(full[..cut].to_vec()));
        let mut seen = Vec::new();
        let report = wal
            .replay(|r| {
                seen.push(r);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("cut {cut}: replay errored: {e} ({ctx})"));

        // Frames wholly inside the prefix replay; nothing else does.
        let intact = boundaries[1..].iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            report.records, intact as u64,
            "cut {cut}: {} records replayed, {intact} frames intact ({ctx})",
            report.records
        );
        assert_eq!(
            seen,
            records[..intact],
            "cut {cut}: replay must be an exact prefix of the logged records ({ctx})"
        );
        // A torn tail iff the cut is not a frame boundary.
        let on_boundary = boundaries[intact] == cut;
        assert_eq!(
            report.torn_tail, !on_boundary,
            "cut {cut}: torn_tail={} but boundary={on_boundary} ({ctx})",
            report.torn_tail
        );
    }
}

fn fixed_records() -> Vec<LogRecord<'static>> {
    let schema = Schema::of(&[
        ("k", DataType::Int64),
        ("price", DataType::Float64),
        ("flag", DataType::Bool),
        ("name", DataType::Text(8)),
    ]);
    vec![
        LogRecord::CreateRelation { rel: 0, schema },
        LogRecord::Insert {
            rel: 0,
            row: 0,
            values: vec![
                Value::Int64(-7),
                Value::Float64(3.25),
                Value::Bool(true),
                Value::Text("tuple".into()),
            ]
            .into(),
        },
        LogRecord::Update { rel: 0, row: 0, attr: 1, value: Value::Float64(-0.5), txn: 9 },
        LogRecord::Commit { txn: 9 },
        LogRecord::Update { rel: 0, row: 0, attr: 0, value: Value::Int64(i64::MIN), txn: 10 },
        LogRecord::Commit { txn: 10 },
    ]
}

#[test]
fn every_truncation_offset_of_a_fixed_log_replays_a_clean_prefix() {
    assert_every_truncation(&fixed_records(), "fixed log");
}

#[test]
fn empty_log_replays_clean() {
    assert_every_truncation(&[], "empty log");
}

fn random_value(rng: &mut Prng, ty: DataType) -> Value {
    match ty {
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Int32 => Value::Int32(rng.next_u64() as i32),
        DataType::Int64 => Value::Int64(rng.next_u64() as i64),
        DataType::Float64 => Value::Float64(rng.next_f64() * 2e6 - 1e6),
        DataType::Date => Value::Date(rng.next_u64() as i32),
        DataType::Text(n) => {
            let len = rng.gen_range(0usize..n as usize + 1);
            Value::Text("x".repeat(len))
        }
    }
}

fn random_records(rng: &mut Prng) -> Vec<LogRecord<'static>> {
    let types = [DataType::Int64, DataType::Float64, DataType::Text(6), DataType::Bool];
    let arity = rng.gen_range(1usize..4);
    let attrs: Vec<(&str, DataType)> =
        (0..arity).map(|i| (["a", "b", "c"][i], types[rng.gen_range(0usize..4)])).collect();
    let schema = Schema::of(&attrs);
    let mut out = vec![LogRecord::CreateRelation { rel: 0, schema: schema.clone() }];
    let n = rng.gen_range(1usize..8);
    for row in 0..n as u64 {
        let values: Vec<Value> =
            (0..arity).map(|a| random_value(rng, schema.attrs()[a].ty)).collect();
        out.push(LogRecord::Insert { rel: 0, row, values: values.into() });
        if rng.gen_bool(0.5) {
            let attr = rng.gen_range(0usize..arity) as u16;
            let value = random_value(rng, schema.attrs()[attr as usize].ty);
            out.push(LogRecord::Update { rel: 0, row, attr, value, txn: row + 100 });
            out.push(LogRecord::Commit { txn: row + 100 });
        }
    }
    out
}

#[test]
fn every_truncation_offset_of_random_logs_replays_a_clean_prefix() {
    check_cases("wal_truncation", 6, 0x7A11_57ED, |case, rng| {
        let records = random_records(rng);
        assert_every_truncation(&records, &format!("case {case}"));
    });
}
