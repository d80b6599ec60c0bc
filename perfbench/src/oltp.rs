//! The closed-loop OLTP client shared by `htap_mixed` and `oltp_cold`:
//! point reads, `c_balance` updates and 150-row materializations over the
//! customer table, periodic maintenance, and checks against a model of the
//! balances it wrote.

use htapg::core::engine::StorageEngine;
use htapg::core::plan::LogicalPlan;
use htapg::core::prng::Prng;
use htapg::core::{RelationId, Result, Value};
use htapg::exec::physical::QueryOutput;
use htapg::workload::queries::sorted_positions;
use htapg::workload::tpcc::customer_attr::C_BALANCE;
use htapg::workload::tpcc::Generator;

use crate::client::{Client, Kind, Mix};
use crate::expected;

/// Rows per materialization (the paper's Q1 materializes 150 customers).
const POSITIONS: usize = 150;
/// Check every n-th point read and materialization against the model.
const CHECK_EVERY: u64 = 8;
/// Rows whose full records the end-of-run check compares.
const SAMPLE_ROWS: usize = 1000;

/// The last balance the client wrote to each row (NaN: none yet). It is
/// written in full when it is made, so its footprint does not grow with the
/// number of updates a run completes.
pub struct Model(Vec<f64>);

impl Model {
    fn new(rows: u64) -> Self {
        Model(vec![f64::NAN; rows as usize])
    }

    pub fn get(&self, row: u64) -> Option<f64> {
        self.0.get(row as usize).copied().filter(|v| !v.is_nan())
    }

    /// Every written row with its last balance.
    pub fn written(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.0.iter().enumerate().filter(|(_, v)| !v.is_nan()).map(|(r, &v)| (r as u64, v))
    }
}

pub struct Spec<'a> {
    pub gen: &'a Generator,
    pub rel: RelationId,
    pub rows: u64,
    /// Op kinds per block (see [`Mix`]).
    pub mix: &'a [(Kind, usize)],
    /// Point reads draw NURand-skewed rows when set, uniform rows otherwise;
    /// updates are always NURand-skewed.
    pub skewed_reads: bool,
    /// Ops between maintenance rounds.
    pub maintain_every: u64,
    pub seed: u64,
}

/// Run until the phase ends. In traced slices every other point read goes
/// straight to `read_record` and every other update to `traced_update`, so
/// the storage and txn layers get spans of their own. Returns the last
/// balance written to each row.
pub fn run(
    c: &mut Client,
    s: &Spec,
    mut traced_update: impl FnMut(&mut Client, u64, f64) -> Option<()>,
    mut after_maintain: impl FnMut(),
) -> Model {
    let (gen, rel) = (s.gen, s.rel);
    let mut rng = Prng::seed_from_u64(s.seed ^ 0x4f4c_5450);
    let mut mix = Mix::new(s.mix, s.seed ^ 0x4d49_5831);
    let mut model = Model::new(s.rows);
    let (mut ops, mut reads, mut updates, mut mats) = (0u64, 0u64, 0u64, 0u64);
    while c.running() {
        match mix.next_kind() {
            Kind::PointRead => {
                let row = if s.skewed_reads {
                    gen.skewed_row(&mut rng, s.rows)
                } else {
                    rng.gen_range(0..s.rows)
                };
                reads += 1;
                let rec = if c.traced() && reads % 2 == 1 {
                    c.direct_read(row)
                } else {
                    match c.run(Kind::PointRead, &LogicalPlan::PointRead { rel, row }) {
                        Some(QueryOutput::Record(r)) => Some(r),
                        _ => None,
                    }
                };
                if let (Some(rec), true) = (rec, reads % CHECK_EVERY == 0) {
                    let ok = rec == expected(gen, &model, row);
                    c.expect(ok, || format!("point_read of row {row} differs from the model"));
                }
            }
            Kind::Update => {
                let row = gen.skewed_row(&mut rng, s.rows);
                let v = rng.gen_range(-500.0..500.0);
                updates += 1;
                let done = if c.traced() && updates % 2 == 1 {
                    traced_update(c, row, v)
                } else {
                    let value = Value::Float64(v);
                    let logical = LogicalPlan::Update { rel, row, attr: C_BALANCE, value };
                    c.run(Kind::Update, &logical).map(|_| ())
                };
                if done.is_some() {
                    model.0[row as usize] = v;
                }
            }
            // The mixes hold only these three kinds.
            _ => {
                let rows = sorted_positions(&mut rng, s.rows, POSITIONS);
                mats += 1;
                let logical = LogicalPlan::Materialize { rel, rows: rows.clone() };
                let out = c.run(Kind::Materialize, &logical);
                if let (Some(QueryOutput::Records(recs)), true) = (out, mats % CHECK_EVERY == 0) {
                    let ok = recs.len() == rows.len()
                        && rows.iter().zip(&recs).all(|(&r, rec)| *rec == expected(gen, &model, r));
                    c.expect(ok, || {
                        format!("materialize of {} rows differs from the model", rows.len())
                    });
                }
            }
        }
        ops += 1;
        if ops % s.maintain_every == 0 {
            c.maintain();
            after_maintain();
        }
    }
    model
}

/// At a quiescent point: every balance the client wrote, and a seeded
/// sample of full records, against the model.
pub fn check_model(engine: &dyn StorageEngine, s: &Spec, model: &Model) -> Result<Vec<String>> {
    let mut wrong = Vec::new();
    for (row, v) in model.written() {
        if engine.read_field(s.rel, row, C_BALANCE)? != Value::Float64(v) {
            wrong.push(format!("row {row}: balance differs from the last write"));
            break;
        }
    }
    let mut rng = Prng::seed_from_u64(s.seed ^ 0x5341_4d50);
    for row in sorted_positions(&mut rng, s.rows, SAMPLE_ROWS) {
        if engine.read_record(s.rel, row)? != expected(s.gen, model, row) {
            wrong.push(format!("row {row}: record differs from the model"));
            break;
        }
    }
    Ok(wrong)
}
