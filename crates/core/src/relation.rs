//! Relations: schema + one or more layouts + a fragment scheme.
//!
//! A relation owns its layouts. Multi-layout relations route reads and
//! writes through their [`Scheme`]: replication keeps all layouts current
//! and picks the best layout per access pattern; delegation gives each
//! region exactly one authoritative layout.
//!
//! Under delegation, inserts seed every layout (so row ids stay aligned
//! across layouts, mirroring L-Store/Peloton's shared-tuplet references),
//! but *updates* and *reads* only touch the authoritative layout — the
//! non-authoritative copy of a delegated region is never consulted and may
//! go stale, exactly the "restricted access" the paper describes.

use crate::error::{Error, Result};
use crate::layout::{Layout, LayoutTemplate};
use crate::schema::{AttrId, Record, RowId, Schema};
use crate::scheme::{AccessHint, Scheme};
use crate::types::Value;
use htapg_taxonomy::FragmentLinearization;

/// Rows per block a strided column is gathered in by
/// [`Relation::with_aligned_blocks`].
pub const GATHER_ROWS: u64 = 4096;

/// A relation with one or more alternative layouts.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    layouts: Vec<Layout>,
    scheme: Scheme,
    rows: u64,
}

impl Relation {
    /// Single-layout relation.
    pub fn new(schema: Schema, template: LayoutTemplate) -> Result<Relation> {
        let layout = Layout::new(&schema, template)?;
        Ok(Relation { schema, layouts: vec![layout], scheme: Scheme::Single, rows: 0 })
    }

    /// Multi-layout relation with an explicit scheme.
    pub fn with_layouts(
        schema: Schema,
        templates: Vec<LayoutTemplate>,
        scheme: Scheme,
    ) -> Result<Relation> {
        if templates.is_empty() {
            return Err(Error::InvalidLayout("relation needs at least one layout".into()));
        }
        if matches!(scheme, Scheme::Single) && templates.len() != 1 {
            return Err(Error::InvalidLayout("single scheme requires exactly one layout".into()));
        }
        let mut layouts = Vec::with_capacity(templates.len());
        for t in templates {
            layouts.push(Layout::new(&schema, t)?);
        }
        Ok(Relation { schema, layouts, scheme, rows: 0 })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Mutable access to the scheme — re-delegation installs a new policy
    /// here. Callers are responsible for synchronizing data into the newly
    /// authoritative layout first (see `htapg-engines`' reference engine).
    pub fn scheme_mut(&mut self) -> &mut Scheme {
        &mut self.scheme
    }

    pub fn layouts(&self) -> &[Layout] {
        &self.layouts
    }

    pub fn layouts_mut(&mut self) -> &mut [Layout] {
        &mut self.layouts
    }

    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Append a record. Every layout receives the record so row ids stay
    /// aligned; see the module docs for delegation semantics. The record is
    /// checked once, before the first layout changes, so a rejected record
    /// leaves every layout as it was.
    pub fn insert(&mut self, record: &Record) -> Result<RowId> {
        self.schema.check_record(record)?;
        let mut assigned = None;
        for layout in &mut self.layouts {
            let row = layout.push_record(&self.schema, record)?;
            match assigned {
                None => assigned = Some(row),
                Some(prev) => debug_assert_eq!(prev, row, "layouts out of sync"),
            }
        }
        self.rows += 1;
        Ok(assigned.expect("at least one layout"))
    }

    /// Pick the replication read layout for an access pattern: record-centric
    /// readers prefer row-structured layouts, attribute-centric readers
    /// prefer column-structured ones.
    fn pick_replica(&self, hint: AccessHint) -> usize {
        let score = |class: FragmentLinearization| -> i32 {
            let row_ish = matches!(
                class,
                FragmentLinearization::FatNsmFixed
                    | FragmentLinearization::ThinNsmEmulated
                    | FragmentLinearization::VariableNsmFixedPartiallyDsmEmulated
            );
            match hint {
                AccessHint::RecordCentric => {
                    if row_ish {
                        2
                    } else {
                        0
                    }
                }
                AccessHint::AttributeCentric => {
                    if row_ish {
                        0
                    } else {
                        2
                    }
                }
            }
        };
        (0..self.layouts.len())
            .max_by_key(|&i| score(self.layouts[i].template().linearization_class()))
            .unwrap_or(0)
    }

    /// The layout index that must answer `(row, attr)` reads.
    pub fn route_read(&self, row: RowId, attr: AttrId, hint: AccessHint) -> Result<usize> {
        match &self.scheme {
            Scheme::Single => Ok(0),
            Scheme::Replication => Ok(self.pick_replica(hint)),
            Scheme::Delegation(policy) => policy.route(row, attr),
        }
    }

    pub fn read_value(&self, row: RowId, attr: AttrId, hint: AccessHint) -> Result<Value> {
        let li = self.route_read(row, attr, hint)?;
        self.layouts[li].read_value(&self.schema, row, attr)
    }

    /// Read a full record: each layout that owns fields of `row` is visited
    /// once, and each field decoded once, from the fragment that holds it.
    pub fn read_record(&self, row: RowId) -> Result<Record> {
        let mut out = vec![Value::Bool(false); self.schema.arity()];
        let li = match &self.scheme {
            Scheme::Single => 0,
            Scheme::Replication => self.pick_replica(AccessHint::RecordCentric),
            Scheme::Delegation(policy) => {
                let owners = policy.owners(row, self.schema.arity())?;
                for (li, layout) in self.layouts.iter().enumerate() {
                    if owners.contains(&li) {
                        let take = |a: AttrId| owners[a as usize] == li;
                        layout.decode_row(&self.schema, row, &take, &mut out)?;
                    }
                }
                return Ok(out);
            }
        };
        self.layouts[li].decode_row(&self.schema, row, &|_| true, &mut out)?;
        Ok(out)
    }

    /// Update one field. Replication updates every layout; delegation only
    /// the authoritative one.
    pub fn update_field(&mut self, row: RowId, attr: AttrId, v: &Value) -> Result<()> {
        match &self.scheme {
            Scheme::Single => self.layouts[0].write_value(&self.schema, row, attr, v),
            Scheme::Replication => {
                for layout in &mut self.layouts {
                    layout.write_value(&self.schema, row, attr, v)?;
                }
                Ok(())
            }
            Scheme::Delegation(policy) => {
                let li = policy.route(row, attr)?;
                self.layouts[li].write_value(&self.schema, row, attr, v)
            }
        }
    }

    /// The layout a column scan of `attr` reads: the only one, the
    /// column-structured replica, or the layout that owns every row of the
    /// column under delegation (an error if the column is split).
    fn scan_layout(&self, attr: AttrId) -> Result<usize> {
        let policy = match &self.scheme {
            Scheme::Single => return Ok(0),
            Scheme::Replication => return Ok(self.pick_replica(AccessHint::AttributeCentric)),
            Scheme::Delegation(policy) => policy,
        };
        let mut covering = policy.rules().iter().filter(|r| {
            r.attrs.as_ref().is_none_or(|attrs| attrs.contains(&attr)) && r.row_from < self.rows
        });
        match covering.next() {
            None => Ok(0),
            Some(r) if r.row_from == 0 && r.row_to >= self.rows => Ok(r.layout),
            Some(_) => Err(Error::InvalidLayout(format!("column {attr} is split across layouts"))),
        }
    }

    /// Visit `attrs`' fields, all rows in row order, as row-aligned blocks
    /// under this one borrow: each call of `visit` gets one block per
    /// attribute, in order, holding the same rows as packed little-endian
    /// fields. Each column is read from the layout a column scan reads.
    /// `patches[i]`, when present, lists fields to encode over attribute
    /// `i`'s stored ones, sorted by row, one per row. A contiguous column
    /// is served in place, except that each [`GATHER_ROWS`]-aligned window
    /// holding a patch is copied and patched; a strided one is gathered at
    /// most [`GATHER_ROWS`] rows at a time, and patched there. Blocks are
    /// cut where any column's fragment or window ends.
    pub fn with_aligned_blocks(
        &self,
        attrs: &[AttrId],
        patches: &[Vec<(RowId, Value)>],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        struct Column<'a> {
            ty: crate::types::DataType,
            views: Vec<crate::fragment::ColumnView<'a>>,
            view: usize,
            patches: &'a [(RowId, Value)],
            buf: Vec<u8>,
            in_place: Option<&'a [u8]>,
        }
        let mut columns = Vec::with_capacity(attrs.len());
        for (i, &attr) in attrs.iter().enumerate() {
            columns.push(Column {
                ty: self.schema.ty(attr)?,
                views: self.layouts[self.scan_layout(attr)?].column_views(attr)?,
                view: 0,
                patches: patches.get(i).map_or(&[], |p| p),
                buf: Vec::new(),
                in_place: None,
            });
        }
        let mut at = 0;
        while at < self.rows {
            let mut end = self.rows;
            for c in &mut columns {
                while c.views.get(c.view).is_some_and(|v| v.first_row + v.rows <= at) {
                    c.view += 1;
                }
                let v = c.views.get(c.view).ok_or(Error::UnknownRow(at))?;
                end = end.min(v.first_row + v.rows);
                match c.patches.first() {
                    _ if !v.is_contiguous() => end = end.min(at + GATHER_ROWS),
                    Some(&(row, _)) => {
                        let window = row - row % GATHER_ROWS;
                        end = end.min(if at < window { window } else { window + GATHER_ROWS });
                    }
                    None => {}
                }
            }
            for c in &mut columns {
                let v = &c.views[c.view];
                let piece = v.slice_rows(at - v.first_row, end - v.first_row);
                let patched = c.patches.first().is_some_and(|&(row, _)| row < end);
                c.in_place = piece.contiguous_bytes().filter(|_| !patched);
                if c.in_place.is_none() {
                    c.buf.clear();
                    piece.gather_into(&mut c.buf);
                }
                let w = c.ty.width();
                while let Some((row, value)) = c.patches.first().filter(|(row, _)| *row < end) {
                    let at = (row - at) as usize * w;
                    value.encode_into(c.ty, &mut c.buf[at..at + w])?;
                    c.patches = &c.patches[1..];
                }
            }
            let blocks: Vec<&[u8]> = columns.iter().map(|c| c.in_place.unwrap_or(&c.buf)).collect();
            visit(&blocks);
            at = end;
        }
        debug_assert!(columns.iter().all(|c| c.patches.is_empty()), "a patch past the last row");
        Ok(())
    }

    /// Copy `attr`'s fields from layout `from` into layout `to` as bytes:
    /// re-delegation makes `to` authoritative for the column this way.
    pub fn copy_column(&mut self, attr: AttrId, from: usize, to: usize) -> Result<()> {
        let n = self.layouts.len();
        if from >= n || to >= n || from == to {
            return Err(Error::InvalidLayout(format!("no copy from layout {from} to {to}")));
        }
        let (lo, hi) = self.layouts.split_at_mut(from.max(to));
        let (src, dst) = if from < to { (&lo[from], &mut hi[0]) } else { (&hi[0], &mut lo[to]) };
        dst.copy_column_from(src, attr)
    }

    /// Replace layout `idx` with a rebuild under `template` (responsive
    /// reorganization).
    pub fn reorganize_layout(&mut self, idx: usize, template: LayoutTemplate) -> Result<()> {
        let layout = self
            .layouts
            .get(idx)
            .ok_or_else(|| Error::InvalidLayout(format!("no layout {idx}")))?;
        let rebuilt = layout.rebuild(&self.schema, template)?;
        self.layouts[idx] = rebuilt;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{GroupOrder, VerticalGroup};
    use crate::scheme::{DelegationPolicy, DelegationRule};
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64), ("t", DataType::Text(6))])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Int64(i * 7), Value::Text(format!("x{}", i % 10))]
    }

    #[test]
    fn single_layout_crud() {
        let s = schema();
        let mut r = Relation::new(s.clone(), LayoutTemplate::nsm(&s)).unwrap();
        for i in 0..20 {
            assert_eq!(r.insert(&rec(i)).unwrap(), i as u64);
        }
        assert_eq!(r.read_record(5).unwrap(), rec(5));
        r.update_field(5, 1, &Value::Int64(0)).unwrap();
        assert_eq!(r.read_value(5, 1, AccessHint::RecordCentric).unwrap(), Value::Int64(0));
    }

    #[test]
    fn replication_routes_by_hint() {
        let s = schema();
        let mut r = Relation::with_layouts(
            s.clone(),
            vec![LayoutTemplate::nsm(&s), LayoutTemplate::dsm_emulated(&s)],
            Scheme::Replication,
        )
        .unwrap();
        for i in 0..10 {
            r.insert(&rec(i)).unwrap();
        }
        // Record-centric picks the NSM layout (index 0), attribute-centric
        // the DSM-emulated one (index 1).
        assert_eq!(r.route_read(0, 0, AccessHint::RecordCentric).unwrap(), 0);
        assert_eq!(r.route_read(0, 0, AccessHint::AttributeCentric).unwrap(), 1);
        // Both replicas answer identically.
        assert_eq!(
            r.read_value(3, 1, AccessHint::RecordCentric).unwrap(),
            r.read_value(3, 1, AccessHint::AttributeCentric).unwrap()
        );
        // Updates reach both replicas.
        r.update_field(3, 1, &Value::Int64(-5)).unwrap();
        assert_eq!(r.read_value(3, 1, AccessHint::RecordCentric).unwrap(), Value::Int64(-5));
        assert_eq!(r.read_value(3, 1, AccessHint::AttributeCentric).unwrap(), Value::Int64(-5));
    }

    #[test]
    fn delegation_routes_and_isolates() {
        let s = schema();
        // Attribute 1 is owned by the column layout (1), the rest by the
        // row layout (0).
        let policy = DelegationPolicy::new(vec![
            DelegationRule { attrs: Some(vec![1]), row_from: 0, row_to: RowId::MAX, layout: 1 },
            DelegationRule { attrs: None, row_from: 0, row_to: RowId::MAX, layout: 0 },
        ]);
        let mut r = Relation::with_layouts(
            s.clone(),
            vec![LayoutTemplate::nsm(&s), LayoutTemplate::dsm_emulated(&s)],
            Scheme::Delegation(policy),
        )
        .unwrap();
        for i in 0..10 {
            r.insert(&rec(i)).unwrap();
        }
        r.update_field(4, 1, &Value::Int64(123)).unwrap();
        // The authoritative read sees the update…
        assert_eq!(r.read_value(4, 1, AccessHint::RecordCentric).unwrap(), Value::Int64(123));
        // …while the non-authoritative replica was intentionally not written
        // (the delegated region is exclusive).
        assert_eq!(
            r.layouts()[0].read_value(r.schema(), 4, 1).unwrap(),
            Value::Int64(28),
            "stale non-authoritative copy is never consulted"
        );
        assert_eq!(r.read_record(4).unwrap()[1], Value::Int64(123));
    }

    #[test]
    fn delegated_column_scan_fast_path() {
        let s = schema();
        let policy = DelegationPolicy::new(vec![
            DelegationRule { attrs: Some(vec![1]), row_from: 0, row_to: RowId::MAX, layout: 1 },
            DelegationRule { attrs: None, row_from: 0, row_to: RowId::MAX, layout: 0 },
        ]);
        let mut r = Relation::with_layouts(
            s.clone(),
            vec![LayoutTemplate::nsm(&s), LayoutTemplate::dsm_emulated(&s)],
            Scheme::Delegation(policy),
        )
        .unwrap();
        for i in 0..100 {
            r.insert(&rec(i)).unwrap();
        }
        r.update_field(50, 1, &Value::Int64(0)).unwrap();
        let mut sum = 0i64;
        r.with_aligned_blocks(&[1], &[], &mut |blocks| {
            // The delegated column is contiguous: one block, served in place.
            assert_eq!(blocks[0].len(), 100 * 8);
            sum += blocks[0]
                .chunks_exact(8)
                .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
                .sum::<i64>();
        })
        .unwrap();
        let expected: i64 = (0..100).map(|i| i * 7).sum::<i64>() - 350;
        assert_eq!(sum, expected);
    }

    #[test]
    fn reorganize_layout_in_place() {
        let s = schema();
        let mut r = Relation::new(s.clone(), LayoutTemplate::nsm(&s)).unwrap();
        for i in 0..30 {
            r.insert(&rec(i)).unwrap();
        }
        assert!(!r.layouts()[0].column_views(1).unwrap()[0].is_contiguous());
        r.reorganize_layout(0, LayoutTemplate::dsm_emulated(&s)).unwrap();
        assert_eq!(r.read_record(29).unwrap(), rec(29));
        assert!(r.layouts()[0].column_views(1).unwrap().iter().all(|v| v.is_contiguous()));
    }

    #[test]
    fn copy_column_moves_field_bytes_both_ways() {
        let s = schema();
        let mut r = Relation::with_layouts(
            s.clone(),
            vec![LayoutTemplate::nsm(&s), LayoutTemplate::pax(&s, 7)],
            Scheme::Replication,
        )
        .unwrap();
        for i in 0..20 {
            r.insert(&rec(i)).unwrap();
        }
        // Let the two copies of attrs 1 and 2 diverge, then copy each way.
        r.layouts_mut()[0].write_value(&s, 3, 1, &Value::Int64(-3)).unwrap();
        r.layouts_mut()[1].write_value(&s, 19, 2, &Value::Text("new".into())).unwrap();
        r.copy_column(1, 0, 1).unwrap();
        r.copy_column(2, 1, 0).unwrap();
        for l in r.layouts() {
            assert_eq!(l.read_value(&s, 3, 1).unwrap(), Value::Int64(-3));
            assert_eq!(l.read_value(&s, 19, 2).unwrap(), Value::Text("new".into()));
            assert_eq!(l.read_record(&s, 4).unwrap(), rec(4));
        }
        assert!(r.copy_column(1, 0, 0).is_err());
        assert!(r.copy_column(1, 0, 2).is_err());
    }

    #[test]
    fn mixed_group_relation() {
        let s = schema();
        let t = LayoutTemplate::grouped(
            vec![
                VerticalGroup::new(vec![0, 2], GroupOrder::Nsm),
                VerticalGroup::new(vec![1], GroupOrder::ThinPerAttr),
            ],
            Some(8),
        );
        let mut r = Relation::new(s.clone(), t).unwrap();
        for i in 0..20 {
            r.insert(&rec(i)).unwrap();
        }
        assert_eq!(r.read_record(19).unwrap(), rec(19));
    }
}
