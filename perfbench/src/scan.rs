//! `olap_scan`: Fractured Mirrors under one analytic client on the pooled
//! host executor; no writes, so every answer is checked against its oracle.

use std::time::{Duration, Instant};

use htapg::core::engine::StorageEngine;
use htapg::core::plan::{LogicalPlan, Predicate};
use htapg::core::{RelationId, Result};
use htapg::engines::MirrorsEngine;
use htapg::exec::physical::{self, QueryOutput};
use htapg::exec::ThreadingPolicy;
use htapg::workload::tpcc::item_attr::{I_IM_ID, I_PRICE};
use htapg::workload::tpcc::{item_schema, Generator};

use crate::client::{Client, Kind};
use crate::layers::{ColumnProbe, Counters, Globals};
use crate::{load, repeat_setup, same_groups, stats, Config, Outcome};

/// Prices are 1.00..=99.99, so this keeps about half the rows.
const PRICE_FLOOR: f64 = 50.0;

fn items(cfg: &Config) -> u64 {
    if cfg.smoke {
        20_000
    } else {
        2_000_000
    }
}

fn queries(rel: RelationId) -> [(Kind, LogicalPlan); 3] {
    [
        (Kind::Sum, LogicalPlan::sum(rel, I_PRICE)),
        (Kind::FilterSum, LogicalPlan::filter_sum(rel, I_PRICE, Predicate::Ge(PRICE_FLOOR))),
        (Kind::GroupSum, LogicalPlan::group_sum(rel, I_IM_ID, I_PRICE)),
    ]
}

/// Load, then run each query once so the planner and pool are warm.
fn setup(
    gen: &Generator,
    n: u64,
    policy: ThreadingPolicy,
) -> Result<((MirrorsEngine, RelationId), Duration)> {
    let t = Instant::now();
    let engine = MirrorsEngine::new();
    let rel = engine.create_relation(item_schema())?;
    let mut busy = t.elapsed();
    busy += load(&engine, rel, n, |i| gen.item(i))?;
    let t = Instant::now();
    for (_, q) in queries(rel) {
        physical::execute_adaptive(&engine, &q, policy)?;
    }
    busy += t.elapsed();
    Ok(((engine, rel), busy))
}

fn matches(out: &QueryOutput, oracle: &QueryOutput) -> bool {
    match (out, oracle) {
        (QueryOutput::Sum(a), QueryOutput::Sum(b)) => a.to_bits() == b.to_bits(),
        (QueryOutput::Groups(_), QueryOutput::Groups(b)) => same_groups(out.as_groups(), b),
        _ => false,
    }
}

pub fn run(cfg: &Config, threads: usize) -> Result<Outcome> {
    let n = items(cfg);
    let gen = Generator::new(cfg.seed);
    let policy = ThreadingPolicy::Multi { threads };
    let ((engine, rel), setup_s) = repeat_setup(cfg.setup_reps(), || setup(&gen, n, policy))?;
    let oracles = [
        QueryOutput::Sum(physical::volcano_sum(&engine, rel, I_PRICE)?),
        QueryOutput::Sum(physical::volcano_filter_sum(
            &engine,
            rel,
            I_PRICE,
            &Predicate::Ge(PRICE_FLOOR),
        )?),
        QueryOutput::Groups(physical::volcano_group_sum(&engine, rel, I_IM_ID, I_PRICE)?),
    ];
    let queries = queries(rel);
    let globals = Globals::start();
    let epoch = Instant::now();
    let mut c = Client::new(&engine, rel, policy, epoch, cfg.deadline(), cfg.trace, 0);
    let mut i = 0usize;
    while c.running() {
        let (kind, q) = &queries[i % queries.len()];
        if let Some(out) = c.run(*kind, q) {
            let ok = matches(&out, &oracles[i % queries.len()]);
            c.expect(ok, || format!("{} differs from its oracle", kind.name()));
        }
        i += 1;
    }
    let phase_s = epoch.elapsed().as_secs_f64();
    let peak_rss_mib = stats::peak_rss_mib()?;
    let mut tally = c.tally;
    let mut layers = Counters::default();
    globals.finish(&mut layers);
    if cfg.trace {
        layers.probes = ColumnProbe {
            engine: &engine,
            rel,
            key_attr: I_IM_ID,
            value_attr: I_PRICE,
            strategy: engine.plan(&queries[0].1)?.root.strategy,
            group_policy: Some(policy),
            pool: Some(policy),
            tree_sum: false,
            reps: cfg.probe_reps(),
        }
        .run()?;
    }
    if tally.attempted() < queries.len() as u64 {
        tally.mismatch("fewer ops than distinct queries: not every query was checked".into());
    }
    let lines = vec![format!(
        "olap_scan: Fractured Mirrors, {n} items x 28 B, 1 closed-loop client, \
         round-robin sum / filter_sum(price >= {PRICE_FLOOR}) / group_sum(price by i_im_id), \
         Multi {{ threads: {threads} }}, no writes"
    )];
    Ok(Outcome { setup_s, phase_s, peak_rss_mib, tally, layers, lines })
}
