//! `oltp_cold`: HyPer with its chunks compacted into compressed cold form,
//! under one record-centric client whose updates thaw chunks and whose
//! periodic maintenance re-compacts them.

use std::time::{Duration, Instant};

use htapg::core::engine::StorageEngine;
use htapg::core::plan::LogicalPlan;
use htapg::core::{Error, RelationId, Result, Value};
use htapg::engines::HyperEngine;
use htapg::exec::ThreadingPolicy;
use htapg::workload::tpcc::customer_attr::C_BALANCE;
use htapg::workload::tpcc::{customer_schema, Generator};

use crate::client::{Client, Kind, Layer};
use crate::layers::{Counters, Globals};
use crate::{load, oltp, repeat_setup, stats, Config, Outcome};

struct Sizes {
    customers: u64,
    /// Ops between maintenance rounds; every 25 keeps about 44 of 49 chunks
    /// cold, so the point-read and update medians sit inside the cold-read
    /// and thawing modes, away from the edge between hot and cold.
    maintain_every: u64,
}

/// Op mix per block of 20 ops.
const MIX: [(Kind, usize); 3] = [(Kind::PointRead, 16), (Kind::Update, 3), (Kind::Materialize, 1)];

fn sizes(cfg: &Config) -> Sizes {
    if cfg.smoke {
        Sizes { customers: 20_000, maintain_every: 50 }
    } else {
        Sizes { customers: 200_000, maintain_every: 25 }
    }
}

/// Load, then compact every full chunk into cold form.
fn setup(gen: &Generator, s: &Sizes) -> Result<((HyperEngine, RelationId), Duration)> {
    let t = Instant::now();
    let engine = HyperEngine::new();
    let rel = engine.create_relation(customer_schema())?;
    let mut busy = t.elapsed();
    busy += load(&engine, rel, s.customers, |i| gen.customer(i))?;
    let t = Instant::now();
    engine.maintain()?;
    busy += t.elapsed();
    let full = (s.customers / htapg::engines::hyper::DEFAULT_CHUNK_ROWS) as usize;
    if engine.cold_chunks(rel)? != full {
        return Err(Error::Internal("not every full chunk is cold after compaction".into()));
    }
    Ok(((engine, rel), busy))
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let s = sizes(cfg);
    let gen = Generator::new(cfg.seed);
    let ((engine, rel), setup_s) = repeat_setup(cfg.setup_reps(), || setup(&gen, &s))?;
    let globals = Globals::start();
    let epoch = Instant::now();
    let mut c =
        Client::new(&engine, rel, ThreadingPolicy::Single, epoch, cfg.deadline(), cfg.trace, 0);
    let spec = oltp::Spec {
        gen: &gen,
        rel,
        rows: s.customers,
        mix: &MIX,
        skewed_reads: false,
        maintain_every: s.maintain_every,
        seed: cfg.seed,
    };
    let mut cold_after_maintain = Vec::new();
    let direct_update = |c: &mut Client, row, v| {
        let value = Value::Float64(v);
        let logical = LogicalPlan::Update { rel, row, attr: C_BALANCE, value: value.clone() };
        c.direct(Kind::Update, &logical, Layer::StorageUpdate, |_, _, _| {
            engine.update_field(rel, row, C_BALANCE, &value)
        })
    };
    let count_cold = || {
        if let Ok(n) = engine.cold_chunks(rel) {
            cold_after_maintain.push(n as f64);
        }
    };
    let model = oltp::run(&mut c, &spec, direct_update, count_cold);
    let phase_s = epoch.elapsed().as_secs_f64();
    let peak_rss_mib = stats::peak_rss_mib()?;
    let mut tally = c.tally;
    let mut layers = Counters::default();
    globals.finish(&mut layers);

    for wrong in oltp::check_model(&engine, &spec, &model)? {
        tally.mismatch(wrong);
    }
    let chunks = s.customers.div_ceil(htapg::engines::hyper::DEFAULT_CHUNK_ROWS);
    let lines = vec![
        format!(
            "oltp_cold: HyPer, {} customers x 96 B in {chunks} chunks, compacted after load, \
             1 closed-loop client, maintenance every {} ops",
            s.customers, s.maintain_every
        ),
        format!(
            "  cold chunks after maintenance: median {} of {chunks} over {} rounds",
            stats::median(&cold_after_maintain),
            cold_after_maintain.len()
        ),
    ];
    Ok(Outcome { setup_s, phase_s, peak_rss_mib, tally, layers, lines })
}
