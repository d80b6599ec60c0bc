//! The record-centric operator: materialization of full records from a
//! position list — the Q1 pattern (`SELECT * FROM R WHERE pk = c`) and Figure 2's
//! "materialize 150 customers" experiment.
//!
//! "We consider costs starting right after the output (i.e., sorted
//! position lists) of the last directly preceding join operator is
//! available" — so the operator takes a sorted position list and
//! materializes every field of every listed row.

use htapg_core::{obs, Layout, Record, Result, RowId, Schema};

use crate::threading::{run_blocks, ThreadingPolicy};

/// Materialize full records at `positions` under a threading policy.
///
/// Output order matches `positions`. Under NSM layouts each record is one
/// (or few) cache line(s); under column layouts every attribute is a
/// separate random access — the record-centric contrast of Figure 2.
pub fn materialize(
    layout: &Layout,
    schema: &Schema,
    positions: &[RowId],
    policy: ThreadingPolicy,
) -> Result<Vec<Record>> {
    let mut span = obs::span("op", "op.materialize");
    if span.is_recording() {
        span.arg("rows", positions.len() as u64);
    }
    // `run_blocks` folds morsel results in morsel order, so concatenation
    // already reproduces the order of `positions`.
    run_blocks(
        positions.len() as u64,
        policy,
        |lo, hi| -> Result<Vec<Record>> {
            let mut out = Vec::with_capacity((hi - lo) as usize);
            for &row in &positions[lo as usize..hi as usize] {
                out.push(layout.read_record(schema, row)?);
            }
            Ok(out)
        },
        |acc: Result<Vec<Record>>, part| {
            let mut acc = acc?;
            acc.extend(part?);
            Ok(acc)
        },
        Ok(Vec::with_capacity(positions.len())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::{DataType, LayoutTemplate, Value};

    fn setup(n: i64) -> (Schema, Layout, Layout) {
        let s = Schema::of(&[
            ("id", DataType::Int64),
            ("name", DataType::Text(16)),
            ("balance", DataType::Float64),
        ]);
        let mut nsm = Layout::new(&s, LayoutTemplate::nsm(&s)).unwrap();
        let mut dsm = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        for i in 0..n {
            let rec = vec![
                Value::Int64(i),
                Value::Text(format!("cust{i}")),
                Value::Float64(i as f64 * 1.5),
            ];
            nsm.append(&s, &rec).unwrap();
            dsm.append(&s, &rec).unwrap();
        }
        (s, nsm, dsm)
    }

    #[test]
    fn output_order_matches_positions() {
        let (s, nsm, _) = setup(100);
        let positions = vec![42u64, 3, 99, 3];
        let recs = materialize(&nsm, &s, &positions, ThreadingPolicy::Single).unwrap();
        assert_eq!(recs[0][0], Value::Int64(42));
        assert_eq!(recs[1][0], Value::Int64(3));
        assert_eq!(recs[2][0], Value::Int64(99));
        assert_eq!(recs[3][0], Value::Int64(3));
    }

    #[test]
    fn layouts_and_policies_agree() {
        let (s, nsm, dsm) = setup(2000);
        let positions: Vec<u64> = (0..2000).step_by(13).collect();
        let a = materialize(&nsm, &s, &positions, ThreadingPolicy::Single).unwrap();
        let b = materialize(&nsm, &s, &positions, ThreadingPolicy::multi8()).unwrap();
        let c = materialize(&dsm, &s, &positions, ThreadingPolicy::multi8()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn bad_position_errors() {
        let (s, nsm, _) = setup(10);
        assert!(materialize(&nsm, &s, &[100], ThreadingPolicy::Single).is_err());
        assert!(materialize(&nsm, &s, &[100], ThreadingPolicy::multi8()).is_err());
    }

    #[test]
    fn empty_positions() {
        let (s, nsm, _) = setup(10);
        let recs = materialize(&nsm, &s, &[], ThreadingPolicy::multi8()).unwrap();
        assert!(recs.is_empty());
    }
}
