//! `htap_mixed`: the paper's §IV-C reference engine under concurrent OLTP
//! and OLAP clients, with periodic maintenance and an in-memory WAL.

use std::sync::Arc;
use std::time::{Duration, Instant};

use htapg::core::engine::StorageEngine;
use htapg::core::plan::LogicalPlan;
use htapg::core::prng::Prng;
use htapg::core::wal::{MemStorage, Wal};
use htapg::core::{Error, RelationId, Result, Value};
use htapg::engines::ReferenceEngine;
use htapg::exec::physical;
use htapg::exec::ThreadingPolicy;
use htapg::workload::queries::{sorted_positions, Op};
use htapg::workload::tpcc::customer_attr::{C_BALANCE, C_D_ID};
use htapg::workload::tpcc::{customer_schema, Generator};

use crate::client::{Client, Kind, Layer, Tally};
use crate::layers::{ColumnProbe, Counters, Globals};
use crate::{load, oltp, repeat_setup, same_groups, stats, Config, Outcome};

struct Sizes {
    customers: u64,
    /// OLTP ops between maintenance rounds.
    maintain_every: u64,
}

/// OLTP mix per block of 20 ops.
const OLTP_MIX: [(Kind, usize); 3] =
    [(Kind::PointRead, 9), (Kind::Update, 9), (Kind::Materialize, 2)];
/// The OLAP client starts one query per period (or right after the
/// previous one, when that overran), so analytics hold a bounded share of
/// the time and interference does not depend on how the clients align.
const OLAP_PERIOD: Duration = Duration::from_millis(20);
/// Bytes reserved for the in-memory log up front. The pages are touched
/// only as records land, so resident memory grows with the bytes logged
/// and not in the steps of a growing buffer's reallocations.
const WAL_RESERVE: usize = 256 << 20;
/// Rows whose full records the quiescent and recovery checks compare.
const SAMPLE_ROWS: usize = 1000;

struct Loaded {
    engine: ReferenceEngine,
    wal: Arc<Wal<MemStorage>>,
    rel: RelationId,
}

fn sizes(cfg: &Config) -> Sizes {
    if cfg.smoke {
        Sizes { customers: 3_000, maintain_every: 200 }
    } else {
        Sizes { customers: 100_000, maintain_every: 2_000 }
    }
}

fn sum_plan(rel: RelationId) -> LogicalPlan {
    LogicalPlan::sum(rel, C_BALANCE)
}

fn group_plan(rel: RelationId) -> LogicalPlan {
    LogicalPlan::group_sum(rel, C_D_ID, C_BALANCE)
}

/// Load, then run analytics until maintenance has delegated `c_balance`
/// and placed its replica on the device, then warm the calibration.
fn setup(gen: &Generator, s: &Sizes) -> Result<(Loaded, Duration)> {
    let t = Instant::now();
    let engine = ReferenceEngine::new();
    let wal = Arc::new(Wal::new(MemStorage::from_bytes(Vec::with_capacity(WAL_RESERVE))));
    engine.attach_wal(wal.clone());
    let rel = engine.create_relation(customer_schema())?;
    let mut busy = t.elapsed();
    busy += load(&engine, rel, s.customers, |i| gen.customer(i))?;
    let t = Instant::now();
    for _ in 0..6 {
        physical::execute_adaptive(&engine, &sum_plan(rel), ThreadingPolicy::Single)?;
        physical::execute_adaptive(&engine, &group_plan(rel), ThreadingPolicy::Single)?;
    }
    engine.maintain()?;
    if !engine.device_resident(rel)?.contains(&C_BALANCE) {
        return Err(Error::Internal("c_balance replica not resident after warm-up".into()));
    }
    for _ in 0..4 {
        physical::execute_adaptive(&engine, &sum_plan(rel), ThreadingPolicy::Single)?;
    }
    busy += t.elapsed();
    Ok((Loaded { engine, wal, rel }, busy))
}

/// One autocommit update as `update_field` runs it, with the txn layer's
/// calls under their own spans.
fn txn_update(
    c: &mut Client,
    e: &ReferenceEngine,
    rel: RelationId,
    row: u64,
    v: f64,
) -> Option<()> {
    let logical = LogicalPlan::Update { rel, row, attr: C_BALANCE, value: Value::Float64(v) };
    c.direct(Kind::Update, &logical, Layer::StorageUpdate, |c, op, parent| loop {
        let txn = e.begin();
        let r = c.span(Layer::TxnUpdate, Kind::Update, op, parent, || {
            e.txn_update(rel, &txn, row, C_BALANCE, Value::Float64(v))
        });
        match r {
            Ok(()) => {
                c.span(Layer::TxnCommit, Kind::Update, op, parent, || e.txn_commit(rel, &txn))?;
                return Ok(());
            }
            Err(Error::TxnConflict { .. }) => {
                let _ = e.txn_abort(rel, &txn);
            }
            Err(err) => {
                let _ = e.txn_abort(rel, &txn);
                return Err(err);
            }
        }
    })
}

fn oltp_spec<'a>(gen: &'a Generator, rel: RelationId, s: &Sizes, cfg: &Config) -> oltp::Spec<'a> {
    oltp::Spec {
        gen,
        rel,
        rows: s.customers,
        mix: &OLTP_MIX,
        skewed_reads: true,
        maintain_every: s.maintain_every,
        seed: cfg.seed,
    }
}

fn oltp_client(
    l: &Loaded,
    spec: &oltp::Spec,
    cfg: &Config,
    epoch: Instant,
) -> (Tally, oltp::Model) {
    let (e, rel) = (&l.engine, l.rel);
    let mut c = Client::new(e, rel, ThreadingPolicy::Single, epoch, cfg.deadline(), cfg.trace, 0);
    let model = oltp::run(&mut c, spec, |c, row, v| txn_update(c, e, rel, row, v), || {});
    (c.tally, model)
}

fn olap_client(l: &Loaded, cfg: &Config, epoch: Instant) -> Tally {
    let rel = l.rel;
    let mut c =
        Client::new(&l.engine, rel, ThreadingPolicy::Single, epoch, cfg.deadline(), cfg.trace, 1);
    let mut sum_next = true;
    let mut next = Instant::now();
    while c.running() {
        if sum_next {
            c.run_driver(Kind::Sum, &Op::SumColumn(C_BALANCE), &sum_plan(rel));
        } else {
            let op = Op::GroupSum { key_attr: C_D_ID, value_attr: C_BALANCE };
            c.run_driver(Kind::GroupSum, &op, &group_plan(rel));
        }
        sum_next = !sum_next;
        next += OLAP_PERIOD;
        let now = Instant::now();
        if next > now {
            std::thread::sleep((next - now).min(c.remaining()));
        } else {
            next = now;
        }
    }
    c.tally
}

/// Front-door answers at a quiescent point against the Volcano oracles.
fn check_answers(l: &Loaded) -> Result<Vec<String>> {
    let (e, rel) = (&l.engine, l.rel);
    let mut wrong = Vec::new();
    let sum = physical::execute_adaptive(e, &sum_plan(rel), ThreadingPolicy::Single)?.output;
    let oracle = physical::volcano_sum(e, rel, C_BALANCE)?;
    if sum.as_sum().map(f64::to_bits) != Some(oracle.to_bits()) {
        wrong.push(format!("sum {sum:?} != oracle {oracle}"));
    }
    let groups = physical::execute_adaptive(e, &group_plan(rel), ThreadingPolicy::Single)?.output;
    let oracle = physical::volcano_group_sum(e, rel, C_D_ID, C_BALANCE)?;
    if !same_groups(groups.as_groups(), &oracle) {
        wrong.push("group_sum differs from the oracle".into());
    }
    Ok(wrong)
}

/// Recover the WAL into a fresh engine and compare it with the live one.
fn check_recovery(l: &Loaded, cfg: &Config, s: &Sizes) -> Result<Vec<String>> {
    let (e, rel) = (&l.engine, l.rel);
    let fresh = ReferenceEngine::new();
    fresh.recover_from(&l.wal)?;
    let mut wrong = Vec::new();
    if fresh.row_count(rel)? != e.row_count(rel)? {
        wrong.push("recovered row count differs".into());
        return Ok(wrong);
    }
    let (a, b) =
        (physical::volcano_sum(e, rel, C_BALANCE)?, physical::volcano_sum(&fresh, rel, C_BALANCE)?);
    if a.to_bits() != b.to_bits() {
        wrong.push(format!("recovered sum {b} != live sum {a}"));
    }
    let mut rng = Prng::seed_from_u64(cfg.seed ^ 0x5245_4356);
    for row in sorted_positions(&mut rng, s.customers, SAMPLE_ROWS) {
        if fresh.read_record(rel, row)? != e.read_record(rel, row)? {
            wrong.push(format!("recovered row {row} differs"));
            break;
        }
    }
    Ok(wrong)
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let s = sizes(cfg);
    let gen = Generator::new(cfg.seed);
    let (l, setup_s) = repeat_setup(cfg.setup_reps(), || setup(&gen, &s))?;
    let ledger = l.engine.device().ledger().clone();
    let device0 = ledger.snapshot();
    let wal0 = l.wal.storage().lock().len();
    let globals = Globals::start();
    let spec = oltp_spec(&gen, l.rel, &s, cfg);
    let epoch = Instant::now();
    let ((mut tally, model), olap) = std::thread::scope(|scope| {
        let oltp = scope.spawn(|| oltp_client(&l, &spec, cfg, epoch));
        let olap = scope.spawn(|| olap_client(&l, cfg, epoch));
        (oltp.join().expect("OLTP client panicked"), olap.join().expect("OLAP client panicked"))
    });
    let phase_s = epoch.elapsed().as_secs_f64();
    let peak_rss_mib = stats::peak_rss_mib()?;
    tally.merge(olap);
    let mut layers = Counters {
        device: Some(ledger.snapshot().since(&device0)),
        wal_bytes: (l.wal.storage().lock().len() - wal0) as u64,
        ..Counters::default()
    };
    globals.finish(&mut layers);

    let checks = [
        check_answers(&l)?,
        oltp::check_model(&l.engine, &spec, &model)?,
        check_recovery(&l, cfg, &s)?,
    ];
    for wrong in checks.into_iter().flatten() {
        tally.mismatch(wrong);
    }
    if cfg.trace {
        let strategy = l.engine.plan(&sum_plan(l.rel))?.root.strategy;
        layers.probes = ColumnProbe {
            engine: &l.engine,
            rel: l.rel,
            key_attr: C_D_ID,
            value_attr: C_BALANCE,
            strategy,
            group_policy: None,
            pool: None,
            tree_sum: true,
            reps: cfg.probe_reps(),
        }
        .run()?;
    }
    let lines = vec![
        format!(
            "htap_mixed: ReferenceEngine, {} customers x 96 B, 1 closed-loop OLTP client + 1 OLAP client pacing one query per {:?}, \
             maintenance every {} OLTP ops, in-memory WAL (no fsync)",
            s.customers, OLAP_PERIOD, s.maintain_every
        ),
        format!(
            "  {} balances written; {} maintenance rounds, {} layout changes; \
             delegated attrs {:?}, device resident attrs {:?}, {} primary groups",
            model.written().count(),
            tally.maint_ns.len(),
            tally.maint.layouts_reorganized,
            l.engine.delegated(l.rel)?,
            l.engine.device_resident(l.rel)?,
            l.engine.primary_groups(l.rel)?.len(),
        ),
    ];
    Ok(Outcome { setup_s, phase_s, peak_rss_mib, tally, layers, lines })
}
