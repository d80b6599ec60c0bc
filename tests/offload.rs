//! The offload hooks end to end. Every device-backed engine (REFERENCE,
//! COGADB, GPUTX) answers planned sum, filter-sum and group-sum on the
//! `DevicePipelined` route from its replica — warm, delta-stale, and (on
//! the reference engine) cold — with the Volcano oracle's bits; transient
//! kernel-launch faults are retried with virtual backoff on every engine;
//! a device group-sum costs three launches whatever its group count; and
//! it groups one snapshot's values by the same snapshot's keys while
//! transactions commit. The fault seed honors `HTAPG_SEED` and is printed
//! on failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Predicate, Route};
use htapg::core::prng::env_seed;
use htapg::core::{DataType, RelationId, Schema, Value};
use htapg::device::{FaultPlan, FaultRates, SimDevice};
use htapg::engines::{CogadbEngine, GputxEngine, ReferenceEngine};
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::threading::ThreadingPolicy;

const KEY: u16 = 0;
const VALUE: u16 = 1;
const ROWS: u64 = 4_000;
const DEFAULT_SEED: u64 = 0x0FF1_0AD5;

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)])
}

/// Non-integer values: a sequential fold and the canonical tree disagree
/// in the last bits, so only the canonical reduction passes.
fn value(i: u64) -> f64 {
    (i as f64 * 0.37).sin() * 1e3 + 0.1
}

/// `ROWS` rows over `groups` keys (negative ones included), values warm
/// on the device: scans make the value column hot, `maintain` places it.
fn loaded(engine: &dyn StorageEngine, groups: u64) -> RelationId {
    let rel = engine.create_relation(schema()).unwrap();
    for i in 0..ROWS {
        let key = (i * 7_919 % groups) as i64 - 3;
        engine.insert(rel, &vec![Value::Int64(key), Value::Float64(value(i))]).unwrap();
    }
    for _ in 0..30 {
        // Under injected launch faults a scan of GPUTx's device-resident
        // column may fail; that only skips one warm-up visit.
        let _ = physical::touch_column(engine, rel, VALUE);
    }
    engine.maintain().unwrap();
    rel
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Sum,
    FilterSum,
    GroupSum,
}

const OPS: [Op; 3] = [Op::Sum, Op::FilterSum, Op::GroupSum];
const PRED: Predicate = Predicate::Ge(0.0);

impl Op {
    fn logical(self, rel: RelationId) -> LogicalPlan {
        match self {
            Op::Sum => LogicalPlan::sum(rel, VALUE),
            Op::FilterSum => LogicalPlan::filter_sum(rel, VALUE, PRED),
            Op::GroupSum => LogicalPlan::group_sum(rel, KEY, VALUE),
        }
    }

    fn oracle(self, engine: &dyn StorageEngine, rel: RelationId) -> QueryOutput {
        match self {
            Op::Sum => QueryOutput::Sum(physical::volcano_sum(engine, rel, VALUE).unwrap()),
            Op::FilterSum => {
                QueryOutput::Sum(physical::volcano_filter_sum(engine, rel, VALUE, &PRED).unwrap())
            }
            Op::GroupSum => {
                QueryOutput::Groups(physical::volcano_group_sum(engine, rel, KEY, VALUE).unwrap())
            }
        }
    }
}

/// An answer as bits: one `(0, sum)` pair, or one `(key, sum)` per group.
fn bits(out: &QueryOutput) -> Vec<(i64, u64)> {
    match out {
        QueryOutput::Sum(x) => vec![(0, x.to_bits())],
        QueryOutput::Groups(groups) => groups.iter().map(|&(k, v)| (k, v.to_bits())).collect(),
        other => panic!("not an aggregate: {other:?}"),
    }
}

/// Plan `op` and execute it on the device route: a warm replica must be
/// planned there; a stale or cold one is pinned there (the cost model may
/// price the host cheaper), so the engine's hook runs either way. Returns
/// the answer and the route that actually ran.
fn on_device(
    engine: &dyn StorageEngine,
    rel: RelationId,
    op: Op,
    warm: bool,
) -> (QueryOutput, Route) {
    let mut plan = engine.plan(&op.logical(rel)).unwrap();
    if warm {
        assert_eq!(plan.route(), Route::DevicePipelined, "{} {op:?}: warm", engine.name());
    }
    plan.root.route = Route::DevicePipelined;
    let out = physical::execute_observed(engine, &plan, ThreadingPolicy::Single).unwrap();
    (out.output, out.executed_route)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Replica {
    Warm,
    DeltaStale,
    Cold,
}

/// Every op against `engine` in `state`, each answered on the device with
/// the oracle's bits. `make_cold` drops the replica (reference engine).
fn check_offloads(
    engine: &dyn StorageEngine,
    rel: RelationId,
    state: Replica,
    make_cold: &dyn Fn(RelationId),
) {
    for (i, op) in OPS.into_iter().enumerate() {
        match state {
            Replica::Warm => {}
            Replica::DeltaStale => {
                let row = 17 + 101 * i as u64;
                let v = Value::Float64(value(row) * -0.5);
                engine.update_field(rel, row, VALUE, &v).unwrap();
                let ev = engine.column_evidence(rel, VALUE).unwrap();
                // GPUTx merges device-locally and always reports warm.
                if engine.name() != "GPUTX" {
                    assert!(ev.stale_rows > 0, "{} {op:?}: replica not stale", engine.name());
                }
            }
            Replica::Cold => make_cold(rel),
        }
        let (got, route) = on_device(engine, rel, op, state == Replica::Warm);
        assert_eq!(route, Route::DevicePipelined, "{} {op:?} {state:?}: fell back", engine.name());
        let want = op.oracle(engine, rel);
        assert_eq!(bits(&got), bits(&want), "{} {op:?} {state:?}", engine.name());
    }
}

#[test]
fn device_engines_answer_every_aggregate_with_the_oracles_bits() {
    let reference = ReferenceEngine::new();
    let rel = loaded(&reference, 37);
    let drop_replica = |rel| reference.cache().invalidate(rel, VALUE).unwrap();
    // Warm first: observed executions feed the reference engine's
    // calibration, which may later price its device route off the plan.
    for state in [Replica::Warm, Replica::DeltaStale, Replica::Cold] {
        check_offloads(&reference, rel, state, &drop_replica);
    }
    let no_cold = |_| unreachable!("only the reference engine builds replicas on demand");
    let cogadb = CogadbEngine::new();
    let rel = loaded(&cogadb, 37);
    let gputx = GputxEngine::new();
    let rel_g = loaded(&gputx, 37);
    for state in [Replica::Warm, Replica::DeltaStale, Replica::Warm] {
        check_offloads(&cogadb, rel, state, &no_cold);
        check_offloads(&gputx, rel_g, state, &no_cold);
    }
}

#[test]
fn transient_launch_faults_are_retried_on_every_device_engine() {
    let seed = env_seed(DEFAULT_SEED);
    let rates = FaultRates { kernel_launch: 0.1, ..FaultRates::none() };
    let faulty = || {
        let mut dev = SimDevice::with_defaults();
        dev.set_fault_plan(FaultPlan::seeded(seed, rates));
        Arc::new(dev)
    };
    let (d_ref, d_cog, d_gpu) = (faulty(), faulty(), faulty());
    let engines: [(&dyn StorageEngine, &SimDevice); 3] = [
        (&ReferenceEngine::with_device(d_ref.clone()), &d_ref),
        (&CogadbEngine::with_device(d_cog.clone()), &d_cog),
        (&GputxEngine::with_device(d_gpu.clone()), &d_gpu),
    ];
    for (engine, device) in engines {
        let rel = loaded(engine, 37);
        let want: Vec<_> = OPS.iter().map(|op| bits(&op.oracle(engine, rel))).collect();
        let before = device.ledger().snapshot();
        for round in 0..10 {
            for (op, want) in OPS.into_iter().zip(&want) {
                // A fault past the retry budget degrades to the host: the
                // route may change, the bits may not.
                let plan = engine.plan(&op.logical(rel)).unwrap();
                match physical::execute(engine, &plan, ThreadingPolicy::Single) {
                    Ok(got) => assert_eq!(
                        &bits(&got),
                        want,
                        "{} {op:?} round {round} (HTAPG_SEED={seed})",
                        engine.name()
                    ),
                    // GPUTx's host path reads its device-resident columns
                    // through kernel launches too: a fault there fails the
                    // query, it never changes an answer.
                    Err(e) => assert!(
                        e.is_transient() && engine.name() == "GPUTX",
                        "{} {op:?} round {round}: {e} (HTAPG_SEED={seed})",
                        engine.name()
                    ),
                }
            }
        }
        let spent = device.ledger().snapshot().since(&before);
        assert!(
            spent.backoff_ns > 0,
            "{}: no launch fault was retried (HTAPG_SEED={seed})",
            engine.name()
        );
    }
}

#[test]
fn device_group_sum_charges_three_launches_for_any_group_count() {
    for groups in [1, 1_000] {
        let reference = ReferenceEngine::new();
        let cogadb = CogadbEngine::new();
        let engines: [(&dyn StorageEngine, &SimDevice); 2] =
            [(&reference, reference.device()), (&cogadb, cogadb.device())];
        for (engine, device) in engines {
            let rel = loaded(engine, groups);
            let before = device.ledger().snapshot();
            let (got, route) = on_device(engine, rel, Op::GroupSum, true);
            let launches = device.ledger().snapshot().since(&before).kernel_launches;
            assert_eq!(route, Route::DevicePipelined, "{}", engine.name());
            assert_eq!(bits(&got).len() as u64, groups, "{}", engine.name());
            assert_eq!(launches, 3, "{}: {groups} group(s)", engine.name());
        }
    }
}

#[test]
fn reference_group_sum_reads_keys_and_values_from_one_snapshot() {
    const GROUPS: i64 = 4;
    const ROWS: u64 = 512;
    // Row 0 moves to another key with a new value in every commit; the
    // other rows stay. Integer values sum to the same bits in any order,
    // so each committed state's answer is plain arithmetic.
    let mover = |i: u64| (i as i64 % GROUPS, 1_000.0 * (i + 1) as f64);
    let still = |row: u64| (row as i64 % GROUPS, (row % 13) as f64);
    let state = |i: u64| -> Vec<(i64, u64)> {
        let mut sums = [0.0; GROUPS as usize];
        for (k, v) in (1..ROWS).map(still).chain([mover(i)]) {
            sums[k as usize] += v;
        }
        sums.iter().enumerate().map(|(k, s)| (k as i64, s.to_bits())).collect()
    };
    let engine = ReferenceEngine::new();
    let rel = engine.create_relation(schema()).unwrap();
    for (k, v) in [mover(0)].into_iter().chain((1..ROWS).map(still)) {
        engine.insert(rel, &vec![Value::Int64(k), Value::Float64(v)]).unwrap();
    }
    let (committed, stop) = (AtomicU64::new(0), AtomicBool::new(false));
    let (mut answered, mut torn) = (0, None);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Bounded, so a failing reader cannot leave the scope waiting.
            for i in 1..=20_000 {
                if stop.load(SeqCst) {
                    break;
                }
                let (k, v) = mover(i);
                let txn = engine.begin();
                engine.txn_update(rel, &txn, 0, KEY, Value::Int64(k)).unwrap();
                engine.txn_update(rel, &txn, 0, VALUE, Value::Float64(v)).unwrap();
                engine.txn_commit(rel, &txn).unwrap();
                committed.store(i, SeqCst);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        for query in 0..20_000 {
            let first = committed.load(SeqCst);
            let got = engine.offload_group_sum(rel, KEY, VALUE);
            // The commit after the last one counted may already be visible.
            let last = committed.load(SeqCst) + 1;
            // A commit past the replica's version fails the lookup: the
            // planned query would degrade to the host.
            let Ok(groups) = got else { continue };
            answered += 1;
            let got: Vec<_> = groups.iter().map(|&(k, v)| (k, v.to_bits())).collect();
            if !(first..=last).any(|i| got == state(i)) {
                torn = Some((query, groups, first..=last));
            }
            if torn.is_some() || answered == 300 {
                break;
            }
        }
        stop.store(true, SeqCst);
    });
    assert_eq!(torn, None, "a device answer matched no committed state");
    assert!(answered > 0, "no query reached the device");
}

#[test]
fn device_group_sums_read_keys_and_values_from_one_state() {
    const GROUPS: i64 = 4;
    // Row 0 moves to another key with a new value by two single-field
    // updates, the key and then the value, each a committed state.
    let mover = |i: u64| (i as i64 % GROUPS, 1_000.0 * (i + 1) as f64);
    let still = |row: u64| (row as i64 % GROUPS, (row % 13) as f64);
    // State `u`: the key of move `ceil(u / 2)`, the value of move `u / 2`.
    let state = |u: u64| -> Vec<(i64, u64)> {
        let (key, value) = (mover(u.div_ceil(2)).0, mover(u / 2).1);
        let mut sums = [0.0; GROUPS as usize];
        for (k, v) in (1..ROWS).map(still).chain([(key, value)]) {
            sums[k as usize] += v;
        }
        sums.iter().enumerate().map(|(k, s)| (k as i64, s.to_bits())).collect()
    };
    let (cogadb, gputx) = (CogadbEngine::new(), GputxEngine::new());
    for engine in [&cogadb as &dyn StorageEngine, &gputx] {
        let rel = engine.create_relation(schema()).unwrap();
        for (k, v) in [mover(0)].into_iter().chain((1..ROWS).map(still)) {
            engine.insert(rel, &vec![Value::Int64(k), Value::Float64(v)]).unwrap();
        }
        // Scans make the value column hot; CoGaDB places it on `maintain`,
        // GPUTx widens it on the first device query.
        for _ in 0..30 {
            physical::touch_column(engine, rel, VALUE).unwrap();
        }
        engine.maintain().unwrap();
        let (committed, stop) = (AtomicU64::new(0), AtomicBool::new(false));
        let (mut answered, mut torn) = (0, None);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Bounded, so a failing reader cannot leave the scope waiting.
                for i in 1..=1_000_000 {
                    if stop.load(SeqCst) {
                        break;
                    }
                    let (k, v) = mover(i);
                    engine.update_field(rel, 0, KEY, &Value::Int64(k)).unwrap();
                    committed.fetch_add(1, SeqCst);
                    engine.update_field(rel, 0, VALUE, &Value::Float64(v)).unwrap();
                    committed.fetch_add(1, SeqCst);
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            for query in 0..20_000 {
                let first = committed.load(SeqCst);
                let got = engine.offload_group_sum(rel, KEY, VALUE);
                // The state after the last one counted may already be visible.
                let last = committed.load(SeqCst) + 1;
                // A replica the engine cannot refresh cheaply degrades the
                // planned query to the host.
                let Ok(groups) = got else { continue };
                answered += 1;
                let got: Vec<_> = groups.iter().map(|&(k, v)| (k, v.to_bits())).collect();
                if !(first..=last).any(|u| got == state(u)) {
                    torn = Some((query, groups, first..=last));
                }
                if torn.is_some() || answered == 300 {
                    break;
                }
            }
            stop.store(true, SeqCst);
        });
        assert_eq!(torn, None, "{}: a device answer matched no committed state", engine.name());
        assert_eq!(answered, 300, "{}: too few queries reached the device", engine.name());
    }
}
