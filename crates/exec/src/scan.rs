//! Attribute-centric operators: a column sum and a sum at a sorted
//! position list, over column views — the Q2 pattern (`SELECT sum(a) FROM
//! R`) and Figure 2's "sum prices of 150 items".
//!
//! The operators read typed fields straight from [`ColumnView`]s, so the
//! cache behaviour of the underlying layout (contiguous DSM vs strided NSM)
//! is exactly what the CPU executes — the mechanism Figure 2 measures.
//!
//! Every kernel is monomorphized over the element type through
//! `dispatch_typed!`: the `DataType` match runs once per view range, not
//! per value, and contiguous views stream through `chunks_exact` so the
//! inner loops vectorize.

use htapg_core::{obs, ColumnView, DataType, Error, Layout, Result, RowId};

use crate::threading::{run_blocks, ThreadingPolicy};

/// Open an operator span with the column's row count attached.
fn op_span(name: &'static str, rows: u64) -> obs::SpanGuard {
    let mut span = obs::span("op", name);
    if span.is_recording() {
        span.arg("rows", rows);
    }
    span
}

/// Monomorphize a kernel body over the column's element type: the
/// `DataType` match runs **once**, outside the loop, and `$body` is
/// instantiated per arm with `$read` bound to a concrete (inlinable)
/// `&[u8] -> f64` decoder — so the hot loop carries no per-value dispatch.
/// Shared by `sum_view_range` and `sum_at_positions_f64`.
macro_rules! dispatch_typed {
    ($ty:expr, $read:ident => $body:expr) => {
        match $ty {
            DataType::Float64 => {
                let $read = |b: &[u8]| -> f64 { f64::from_le_bytes(b.try_into().unwrap()) };
                $body
            }
            DataType::Int64 => {
                let $read = |b: &[u8]| -> f64 { i64::from_le_bytes(b.try_into().unwrap()) as f64 };
                $body
            }
            DataType::Int32 | DataType::Date => {
                let $read = |b: &[u8]| -> f64 { i32::from_le_bytes(b.try_into().unwrap()) as f64 };
                $body
            }
            DataType::Bool => {
                let $read = |b: &[u8]| -> f64 { b[0] as f64 };
                $body
            }
            DataType::Text(_) => {
                let $read = |_b: &[u8]| -> f64 { 0.0 };
                $body
            }
        }
    };
}

fn check_numeric(ty: DataType) -> Result<()> {
    match ty {
        DataType::Text(_) | DataType::Bool => {
            Err(Error::TypeMismatch { expected: "numeric", got: ty.name() })
        }
        _ => Ok(()),
    }
}

/// Map the logical row range `[lo, hi)` (spanning all views) onto per-view
/// local ranges, invoking `f(view, v_lo, v_hi)` for each non-empty one.
#[inline]
fn for_view_ranges<'a>(
    views: &[ColumnView<'a>],
    lo: u64,
    hi: u64,
    mut f: impl FnMut(&ColumnView<'a>, u64, u64),
) {
    let mut base = 0u64;
    for v in views {
        let v_lo = lo.max(base);
        let v_hi = hi.min(base + v.rows);
        if v_lo < v_hi {
            f(v, v_lo - base, v_hi - base);
        }
        base += v.rows;
        if base >= hi {
            break;
        }
    }
}

/// Sum one view's rows `[lo, hi)` as f64.
fn sum_view_range(view: &ColumnView<'_>, ty: DataType, lo: u64, hi: u64) -> f64 {
    dispatch_typed!(ty, read => {
        let mut acc = 0.0f64;
        if let Some(block) = view.slice_rows(lo, hi).contiguous_bytes() {
            // Contiguous fast path: sequential streaming.
            for chunk in block.chunks_exact(view.width) {
                acc += read(chunk);
            }
        } else {
            for i in lo..hi {
                acc += read(view.field(i as usize));
            }
        }
        acc
    })
}

/// Sum an entire column of `layout`, of element type `ty`, under a
/// threading policy.
///
/// Rows are blockwise-partitioned across the *logical* row space spanning
/// all chunks, matching the paper's partitioning description.
pub fn sum_column_f64_typed(
    layout: &Layout,
    attr: u16,
    ty: DataType,
    policy: ThreadingPolicy,
) -> Result<f64> {
    check_numeric(ty)?;
    let views = layout.column_views(attr)?;
    let total_rows: u64 = views.iter().map(|v| v.rows).sum();
    let _span = op_span("op.scan.sum", total_rows);
    let sum = run_blocks(
        total_rows,
        policy,
        |lo, hi| {
            let mut acc = 0.0f64;
            for_view_ranges(&views, lo, hi, |v, v_lo, v_hi| {
                acc += sum_view_range(v, ty, v_lo, v_hi);
            });
            acc
        },
        |a, b| a + b,
        0.0,
    );
    Ok(sum)
}

/// Sum the column at an explicit list of row positions (the tiny-position
/// variant of Figure 2's second panel: "sum prices of 150 items").
pub fn sum_at_positions_f64(
    layout: &Layout,
    attr: u16,
    ty: DataType,
    positions: &[RowId],
    policy: ThreadingPolicy,
) -> Result<f64> {
    check_numeric(ty)?;
    let views = layout.column_views(attr)?;
    let _span = op_span("op.scan.sum_positions", positions.len() as u64);
    // Blockwise over the *position list*, as in the paper; each point
    // access resolves its chunk by row id.
    let sum = run_blocks(
        positions.len() as u64,
        policy,
        |lo, hi| {
            // Type dispatch hoisted out of the point-access loop.
            dispatch_typed!(ty, read => {
                let mut acc = 0.0f64;
                for &row in &positions[lo as usize..hi as usize] {
                    let mut base = 0u64;
                    for v in &views {
                        if row < base + v.rows {
                            acc += read(v.field((row - base) as usize));
                            break;
                        }
                        base += v.rows;
                    }
                }
                acc
            })
        },
        |a, b| a + b,
        0.0,
    );
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::{LayoutTemplate, Schema, Value};

    fn filled(template: fn(&Schema) -> LayoutTemplate, n: i64) -> (Schema, Layout) {
        let s = Schema::of(&[
            ("k", DataType::Int64),
            ("price", DataType::Float64),
            ("pad", DataType::Text(12)),
        ]);
        let mut l = Layout::new(&s, template(&s)).unwrap();
        for i in 0..n {
            l.append(
                &s,
                &vec![Value::Int64(i), Value::Float64(i as f64 * 0.25), Value::Text("x".into())],
            )
            .unwrap();
        }
        (s, l)
    }

    #[test]
    fn sum_is_layout_and_policy_invariant() {
        let n = 10_000i64;
        let expect: f64 = (0..n).map(|i| i as f64 * 0.25).sum();
        for template in [
            LayoutTemplate::nsm as fn(&Schema) -> _,
            LayoutTemplate::dsm,
            LayoutTemplate::dsm_emulated,
        ] {
            let (_, l) = filled(template, n);
            for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
                let got = sum_column_f64_typed(&l, 1, DataType::Float64, policy).unwrap();
                assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
            }
        }
    }

    #[test]
    fn sum_at_positions_matches_subset() {
        let (_, l) = filled(LayoutTemplate::nsm, 1000);
        let positions: Vec<u64> = (0..1000).step_by(7).collect();
        let expect: f64 = positions.iter().map(|&i| i as f64 * 0.25).sum();
        for policy in [ThreadingPolicy::Single, ThreadingPolicy::multi8()] {
            let got = sum_at_positions_f64(&l, 1, DataType::Float64, &positions, policy).unwrap();
            assert!((got - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn text_columns_rejected() {
        let (_, l) = filled(LayoutTemplate::nsm, 10);
        assert!(sum_column_f64_typed(&l, 2, DataType::Text(12), ThreadingPolicy::Single).is_err());
    }

    #[test]
    fn int32_columns_sum() {
        let s = Schema::of(&[("v", DataType::Int32)]);
        let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        for i in 0..100 {
            l.append(&s, &vec![Value::Int32(i)]).unwrap();
        }
        let got = sum_column_f64_typed(&l, 0, DataType::Int32, ThreadingPolicy::Single).unwrap();
        assert_eq!(got, (0..100).sum::<i32>() as f64);
    }

    #[test]
    fn chunked_layout_sums_across_chunks() {
        let s = Schema::of(&[("v", DataType::Int64)]);
        let mut l = Layout::new(&s, LayoutTemplate::pax(&s, 64)).unwrap();
        for i in 0..1000i64 {
            l.append(&s, &vec![Value::Int64(i)]).unwrap();
        }
        let got = sum_column_f64_typed(&l, 0, DataType::Int64, ThreadingPolicy::multi8()).unwrap();
        assert_eq!(got, (0..1000i64).sum::<i64>() as f64);
    }
}
