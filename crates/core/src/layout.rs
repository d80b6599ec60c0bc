//! Layouts: complete divisions of a relation into fragments, built from
//! declarative templates, with taxonomy classification derived from the
//! actual fragment structure.
//!
//! "Relations can have multiple alternative layouts; a layout is a complete
//! relation divided into a set of possibly overlapping fragments."
//! (Section III)

use crate::error::{Error, Result};
use crate::fragment::{Fragment, FragmentSpec, Linearization, Location};
use crate::schema::{AttrId, Record, RowId, Schema};
use crate::types::Value;
use htapg_taxonomy::{FragmentLinearization, LayoutFlexibility};

/// How a vertical group of attributes is physically stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupOrder {
    /// One fat fragment per chunk, tuplets sequential (row-wise).
    Nsm,
    /// One fat fragment per chunk, column blocks sequential inside a single
    /// allocation (column-wise, "columns in one single vector").
    Dsm,
    /// One thin fragment per attribute per chunk ("columns equivalent to
    /// multiple distinct vectors" — the *emulated* DSM of Section III).
    ThinPerAttr,
}

/// A vertical group: a set of attributes stored together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerticalGroup {
    pub attrs: Vec<AttrId>,
    pub order: GroupOrder,
}

impl VerticalGroup {
    pub fn new(attrs: Vec<AttrId>, order: GroupOrder) -> Self {
        VerticalGroup { attrs, order }
    }

    /// Number of fragments this group contributes per horizontal chunk.
    fn slots(&self) -> usize {
        match self.order {
            GroupOrder::ThinPerAttr => self.attrs.len(),
            _ => 1,
        }
    }
}

/// Declarative description of a layout: vertical groups (sub-relations)
/// optionally chunked horizontally.
///
/// This template language expresses every layout the survey needs:
///
/// * plain NSM row store — one group, [`GroupOrder::Nsm`], unchunked;
/// * plain DSM column store — one group, [`GroupOrder::Dsm`], unchunked;
/// * emulated DSM (HyPer vectors, CoGaDB/GPUTx/L-Store columns) — groups of
///   [`GroupOrder::ThinPerAttr`];
/// * PAX — one group, [`GroupOrder::Dsm`], chunked at page granularity;
/// * HYRISE containers — several groups with per-group NSM/DSM;
/// * H₂O — NSM group plus broken-out thin columns;
/// * HyPer / Peloton — groups × chunks (strong, constrained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutTemplate {
    pub groups: Vec<VerticalGroup>,
    /// Horizontal chunking: `Some(n)` splits the relation into fragments of
    /// `n` rows; `None` keeps a single growable fragment per group slot.
    pub chunk_rows: Option<u64>,
}

impl LayoutTemplate {
    /// Row-store template: one NSM fat fragment over the whole schema.
    pub fn nsm(schema: &Schema) -> Self {
        LayoutTemplate {
            groups: vec![VerticalGroup::new(schema.attr_ids().collect(), GroupOrder::Nsm)],
            chunk_rows: None,
        }
    }

    /// Column-store template with a single allocation (DSM-fixed).
    pub fn dsm(schema: &Schema) -> Self {
        LayoutTemplate {
            groups: vec![VerticalGroup::new(schema.attr_ids().collect(), GroupOrder::Dsm)],
            chunk_rows: None,
        }
    }

    /// Column-store template with one thin fragment per attribute
    /// (DSM-emulated).
    pub fn dsm_emulated(schema: &Schema) -> Self {
        LayoutTemplate {
            groups: vec![VerticalGroup::new(schema.attr_ids().collect(), GroupOrder::ThinPerAttr)],
            chunk_rows: None,
        }
    }

    /// PAX template: horizontal pages, DSM-fixed minipages inside each page.
    pub fn pax(schema: &Schema, rows_per_page: u64) -> Self {
        LayoutTemplate {
            groups: vec![VerticalGroup::new(schema.attr_ids().collect(), GroupOrder::Dsm)],
            chunk_rows: Some(rows_per_page),
        }
    }

    pub fn grouped(groups: Vec<VerticalGroup>, chunk_rows: Option<u64>) -> Self {
        LayoutTemplate { groups, chunk_rows }
    }

    /// Validate: groups must disjointly cover the schema; chunk size > 0.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if let Some(0) = self.chunk_rows {
            return Err(Error::InvalidLayout("chunk size must be positive".into()));
        }
        if self.groups.is_empty() {
            return Err(Error::InvalidLayout("layout has no vertical groups".into()));
        }
        let mut covered = vec![false; schema.arity()];
        for g in &self.groups {
            if g.attrs.is_empty() {
                return Err(Error::InvalidLayout("empty vertical group".into()));
            }
            for &a in &g.attrs {
                let idx = a as usize;
                if idx >= schema.arity() {
                    return Err(Error::UnknownAttribute(a));
                }
                if covered[idx] {
                    return Err(Error::InvalidLayout(format!(
                        "attribute {a} appears in two vertical groups"
                    )));
                }
                covered[idx] = true;
            }
        }
        if let Some(missing) = covered.iter().position(|c| !c) {
            return Err(Error::InvalidLayout(format!(
                "attribute {missing} is not covered by any vertical group"
            )));
        }
        Ok(())
    }

    /// Total fragment slots per horizontal chunk.
    pub fn slots_per_chunk(&self) -> usize {
        self.groups.iter().map(VerticalGroup::slots).sum()
    }

    /// Taxonomy: layout flexibility implied by this template (Section III,
    /// "Layout flexibility").
    pub fn flexibility(&self) -> LayoutFlexibility {
        let vertical = self.slots_per_chunk() > 1;
        let horizontal = self.chunk_rows.is_some();
        match (vertical, horizontal) {
            (false, false) => LayoutFlexibility::Inflexible,
            (true, false) | (false, true) => LayoutFlexibility::WeakFlexible,
            // Combining vertical and horizontal partitioning with a fixed
            // order (vertical first, chunk boundaries dictated to every
            // group) is the paper's *constrained* strong flexibility — the
            // HyPer/Peloton case.
            (true, true) => LayoutFlexibility::StrongFlexible { constrained: true },
        }
    }

    /// Taxonomy: fragment linearization class implied by this template
    /// (Section III, "Fragment linearization properties"; Figure 3).
    pub fn linearization_class(&self) -> FragmentLinearization {
        let mut has_fat_nsm = false;
        let mut has_fat_dsm = false;
        let mut has_thin = false;
        for g in &self.groups {
            match (g.order, g.attrs.len()) {
                (GroupOrder::ThinPerAttr, _) | (_, 1) => has_thin = true,
                (GroupOrder::Nsm, _) => has_fat_nsm = true,
                (GroupOrder::Dsm, _) => has_fat_dsm = true,
            }
        }
        match (has_fat_nsm, has_fat_dsm, has_thin) {
            (true, false, false) => FragmentLinearization::FatNsmFixed,
            (false, true, false) => FragmentLinearization::FatDsmFixed,
            (true, true, false) => FragmentLinearization::FatVariable,
            (false, false, true) => FragmentLinearization::ThinDsmEmulated,
            (true, false, true) => FragmentLinearization::VariableNsmFixedPartiallyDsmEmulated,
            // Thin column fragments are the DSM-emulated side; with fat DSM
            // fragments the whole layout remains column-structured, which the
            // paper's vocabulary folds into the DSM-fixed partial class.
            (false, true, true) => FragmentLinearization::VariableDsmFixedPartiallyNsmEmulated,
            (true, true, true) => FragmentLinearization::FatVariable,
            (false, false, false) => unreachable!("validated template has groups"),
        }
    }
}

/// Default capacity of the initial fragment of an unchunked group slot.
const INITIAL_CAPACITY: u64 = 1024;

/// A materialized layout: fragments created on demand from a template as
/// rows are appended.
#[derive(Debug, Clone)]
pub struct Layout {
    template: LayoutTemplate,
    /// Fragments in chunk-major, slot-minor order: chunk `c`'s fragments
    /// occupy `[c * slots, (c+1) * slots)`. Unchunked layouts have exactly
    /// one chunk with growable fragments.
    fragments: Vec<Fragment>,
    /// Slot index (within a chunk) covering each attribute.
    attr_slot: Vec<usize>,
    rows: u64,
    location: Location,
}

impl Layout {
    pub fn new(schema: &Schema, template: LayoutTemplate) -> Result<Layout> {
        Self::new_at(schema, template, Location::Host)
    }

    pub fn new_at(schema: &Schema, template: LayoutTemplate, location: Location) -> Result<Layout> {
        template.validate(schema)?;
        let mut attr_slot = vec![usize::MAX; schema.arity()];
        let mut slot = 0usize;
        for g in &template.groups {
            match g.order {
                GroupOrder::ThinPerAttr => {
                    for &a in &g.attrs {
                        attr_slot[a as usize] = slot;
                        slot += 1;
                    }
                }
                _ => {
                    for &a in &g.attrs {
                        attr_slot[a as usize] = slot;
                    }
                    slot += 1;
                }
            }
        }
        Ok(Layout { template, fragments: Vec::new(), attr_slot, rows: 0, location })
    }

    pub fn template(&self) -> &LayoutTemplate {
        &self.template
    }

    pub fn row_count(&self) -> u64 {
        self.rows
    }

    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    pub fn location(&self) -> Location {
        self.location
    }

    /// Specs to instantiate one chunk starting at `first_row` with `capacity`
    /// rows.
    fn chunk_specs(&self, first_row: RowId, capacity: u64) -> Vec<FragmentSpec> {
        let mut specs = Vec::with_capacity(self.template.slots_per_chunk());
        for g in &self.template.groups {
            match g.order {
                GroupOrder::ThinPerAttr => {
                    for &a in &g.attrs {
                        specs.push(FragmentSpec {
                            first_row,
                            capacity,
                            attrs: vec![a],
                            order: Linearization::Direct,
                        });
                    }
                }
                GroupOrder::Nsm | GroupOrder::Dsm => {
                    let order = if g.attrs.len() == 1 {
                        Linearization::Direct
                    } else if g.order == GroupOrder::Nsm {
                        Linearization::Nsm
                    } else {
                        Linearization::Dsm
                    };
                    // A chunk of a single row would be thin; fragments with
                    // capacity 1 only occur with chunk_rows == 1, where the
                    // direct order is the correct degenerate form.
                    let order = if capacity == 1 { Linearization::Direct } else { order };
                    specs.push(FragmentSpec { first_row, capacity, attrs: g.attrs.clone(), order });
                }
            }
        }
        specs
    }

    /// Append a full-schema record; returns the assigned row id. The record
    /// is checked before any fragment changes, so a rejected record leaves
    /// the layout as it was.
    pub fn append(&mut self, schema: &Schema, record: &Record) -> Result<RowId> {
        schema.check_record(record)?;
        self.push_record(schema, record)
    }

    /// [`Layout::append`] of a record already checked against `schema`:
    /// each field is encoded straight into its fragment slot.
    pub(crate) fn push_record(&mut self, schema: &Schema, record: &Record) -> Result<RowId> {
        let row = self.rows;
        let slots = self.template.slots_per_chunk();
        match self.template.chunk_rows {
            Some(chunk) => {
                let chunk_idx = (row / chunk) as usize;
                if chunk_idx == self.fragments.len() / slots {
                    self.push_chunk(schema, chunk_idx as u64 * chunk, chunk)?;
                }
            }
            None => {
                if self.fragments.is_empty() {
                    self.push_chunk(schema, 0, INITIAL_CAPACITY)?;
                } else if self.fragments[0].is_full() {
                    let cap = self.fragments[0].spec().capacity;
                    for f in &mut self.fragments {
                        f.grow(cap * 2);
                    }
                }
            }
        }
        let base = self.fragments.len() - slots;
        for f in &mut self.fragments[base..] {
            let got = f.append_record(schema, record)?;
            debug_assert_eq!(got, row);
        }
        self.rows += 1;
        Ok(row)
    }

    /// Instantiate the fragments of one chunk.
    fn push_chunk(&mut self, schema: &Schema, first_row: RowId, capacity: u64) -> Result<()> {
        for spec in self.chunk_specs(first_row, capacity) {
            self.fragments.push(Fragment::new_at(schema, spec, self.location)?);
        }
        Ok(())
    }

    /// Slot index (within a chunk) of the fragment covering `attr`.
    fn slot(&self, attr: AttrId) -> Result<usize> {
        self.attr_slot.get(attr as usize).copied().ok_or(Error::UnknownAttribute(attr))
    }

    fn locate(&self, row: RowId, attr: AttrId) -> Result<usize> {
        if row >= self.rows {
            return Err(Error::UnknownRow(row));
        }
        let slot = self.slot(attr)?;
        let slots = self.template.slots_per_chunk();
        let chunk_idx = match self.template.chunk_rows {
            Some(chunk) => (row / chunk) as usize,
            None => 0,
        };
        Ok(chunk_idx * slots + slot)
    }

    pub fn read_value(&self, schema: &Schema, row: RowId, attr: AttrId) -> Result<Value> {
        let fi = self.locate(row, attr)?;
        self.fragments[fi].read_value(schema, row, attr)
    }

    pub fn write_value(
        &mut self,
        schema: &Schema,
        row: RowId,
        attr: AttrId,
        v: &Value,
    ) -> Result<()> {
        let fi = self.locate(row, attr)?;
        self.fragments[fi].write_value(schema, row, attr, v)
    }

    /// Read a full-schema record: each field decoded once, from the
    /// fragment that holds it.
    pub fn read_record(&self, schema: &Schema, row: RowId) -> Result<Record> {
        let mut out = vec![Value::Bool(false); schema.arity()];
        self.decode_row(schema, row, &|_| true, &mut out)?;
        Ok(out)
    }

    /// Decode the fields of `row` whose attributes `take` selects, each
    /// into `out[attr]`: one visit per fragment of the row's chunk (one per
    /// vertical group, one per attribute of a thin group).
    pub(crate) fn decode_row(
        &self,
        schema: &Schema,
        row: RowId,
        take: &dyn Fn(AttrId) -> bool,
        out: &mut [Value],
    ) -> Result<()> {
        if row >= self.rows {
            return Err(Error::UnknownRow(row));
        }
        let slots = self.template.slots_per_chunk();
        let chunk = self.template.chunk_rows.map_or(0, |c| (row / c) as usize);
        for f in &self.fragments[chunk * slots..(chunk + 1) * slots] {
            f.decode_fields(schema, row, take, out)?;
        }
        Ok(())
    }

    /// Zero-copy views of `attr`'s fields, one per chunk, in row order.
    pub fn column_views(&self, attr: AttrId) -> Result<Vec<crate::fragment::ColumnView<'_>>> {
        let slot = self.slot(attr)?;
        let slots = self.template.slots_per_chunk();
        let chunks = if self.fragments.is_empty() { 0 } else { self.fragments.len() / slots };
        let mut out = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let view = self.fragments[c * slots + slot].column_view(attr)?;
            if view.rows > 0 {
                out.push(view);
            }
        }
        Ok(out)
    }

    /// Rebuild this layout's data under a new template (responsive
    /// reorganization). Row ids are preserved. The target is allocated for
    /// every row at once, with the fragments [`Layout::append`] would have
    /// built, and filled by copying field bytes out of this layout.
    pub fn rebuild(&self, schema: &Schema, template: LayoutTemplate) -> Result<Layout> {
        let mut out = Layout::new_at(schema, template, self.location)?;
        if self.rows > 0 {
            match out.template.chunk_rows {
                Some(chunk) => {
                    for first_row in (0..self.rows).step_by(chunk as usize) {
                        out.push_chunk(schema, first_row, chunk)?;
                    }
                }
                // Appends double the capacity from a power of two.
                None => {
                    out.push_chunk(schema, 0, self.rows.next_power_of_two().max(INITIAL_CAPACITY))?
                }
            }
        }
        out.rows = self.rows;
        for f in &mut out.fragments {
            let first = f.spec().first_row;
            f.set_len((self.rows - first).min(f.spec().capacity));
            for i in 0..f.spec().attrs.len() {
                let attr = f.spec().attrs[i];
                self.copy_into(f, attr)?;
            }
        }
        Ok(out)
    }

    /// Copy `attr`'s fields from layout `src`, which holds the same rows,
    /// as bytes. Re-delegation hands a column to its new authoritative
    /// layout this way.
    pub(crate) fn copy_column_from(&mut self, src: &Layout, attr: AttrId) -> Result<()> {
        if src.rows != self.rows {
            return Err(Error::Internal(format!(
                "copy of attr {attr} between layouts of {} and {} rows",
                src.rows, self.rows
            )));
        }
        let slot = self.slot(attr)?;
        let slots = self.template.slots_per_chunk();
        for f in self.fragments.iter_mut().skip(slot).step_by(slots) {
            src.copy_into(f, attr)?;
        }
        Ok(())
    }

    /// Copy this layout's fields of `attr` for the rows `dst` holds into
    /// `dst`, one run per overlapping source fragment.
    fn copy_into(&self, dst: &mut Fragment, attr: AttrId) -> Result<()> {
        let rows = dst.present_rows();
        if rows.is_empty() {
            return Ok(());
        }
        let slot = self.slot(attr)?;
        let slots = self.template.slots_per_chunk();
        let chunks = match self.template.chunk_rows {
            Some(chunk) => (rows.start / chunk) as usize..=((rows.end - 1) / chunk) as usize,
            None => 0..=0,
        };
        for c in chunks {
            let view = self.fragments[c * slots + slot].column_view(attr)?;
            let lo = rows.start.max(view.first_row);
            let hi = rows.end.min(view.first_row + view.rows);
            dst.copy_fields(attr, &view.slice_rows(lo - view.first_row, hi - view.first_row))?;
        }
        Ok(())
    }

    /// Bytes currently used by all fragments.
    pub fn used_bytes(&self) -> usize {
        self.fragments.iter().map(Fragment::used_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("a", DataType::Int32),
            ("b", DataType::Int64),
            ("c", DataType::Float64),
            ("d", DataType::Text(8)),
        ])
    }

    fn rec(i: i64) -> Record {
        vec![
            Value::Int32(i as i32),
            Value::Int64(i * 10),
            Value::Float64(i as f64 / 2.0),
            Value::Text(format!("r{i}")),
        ]
    }

    fn fill(layout: &mut Layout, schema: &Schema, n: i64) {
        for i in 0..n {
            layout.append(schema, &rec(i)).unwrap();
        }
    }

    #[test]
    fn nsm_dsm_emulated_roundtrip() {
        let s = schema();
        for template in [
            LayoutTemplate::nsm(&s),
            LayoutTemplate::dsm(&s),
            LayoutTemplate::dsm_emulated(&s),
            LayoutTemplate::pax(&s, 7),
        ] {
            let mut l = Layout::new(&s, template).unwrap();
            fill(&mut l, &s, 100);
            assert_eq!(l.row_count(), 100);
            for i in [0i64, 1, 6, 7, 49, 99] {
                assert_eq!(l.read_record(&s, i as u64).unwrap(), rec(i));
            }
            assert!(l.read_record(&s, 100).is_err());
        }
    }

    #[test]
    fn growth_beyond_initial_capacity() {
        let s = schema();
        let mut l = Layout::new(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        fill(&mut l, &s, 3000); // > INITIAL_CAPACITY, forces grow
        assert_eq!(l.read_record(&s, 2999).unwrap(), rec(2999));
        assert_eq!(l.read_record(&s, 0).unwrap(), rec(0));
    }

    #[test]
    fn pax_creates_one_fragment_per_page() {
        let s = schema();
        let mut l = Layout::new(&s, LayoutTemplate::pax(&s, 10)).unwrap();
        fill(&mut l, &s, 25);
        assert_eq!(l.fragments().len(), 3); // ceil(25/10) pages
        assert!(l.fragments().iter().all(|f| f.spec().order == Linearization::Dsm));
    }

    #[test]
    fn update_then_read() {
        let s = schema();
        let mut l = Layout::new(&s, LayoutTemplate::nsm(&s)).unwrap();
        fill(&mut l, &s, 10);
        l.write_value(&s, 5, 1, &Value::Int64(-1)).unwrap();
        assert_eq!(l.read_value(&s, 5, 1).unwrap(), Value::Int64(-1));
        assert_eq!(l.read_value(&s, 5, 0).unwrap(), Value::Int32(5));
    }

    #[test]
    fn column_scan_over_chunks() {
        let s = schema();
        let mut l = Layout::new(&s, LayoutTemplate::pax(&s, 8)).unwrap();
        fill(&mut l, &s, 20);
        let mut sum = 0i64;
        let mut rows = Vec::new();
        for view in l.column_views(1).unwrap() {
            for i in 0..view.rows as usize {
                rows.push(view.first_row + i as u64);
                sum += i64::from_le_bytes(view.field(i).try_into().unwrap());
            }
        }
        assert_eq!(rows, (0..20u64).collect::<Vec<_>>());
        assert_eq!(sum, (0..20i64).map(|i| i * 10).sum::<i64>());
    }

    #[test]
    fn contiguous_column_fast_path() {
        let s = schema();
        let mut dsm = Layout::new(&s, LayoutTemplate::dsm(&s)).unwrap();
        let mut nsm = Layout::new(&s, LayoutTemplate::nsm(&s)).unwrap();
        fill(&mut dsm, &s, 10);
        fill(&mut nsm, &s, 10);
        let views = dsm.column_views(2).unwrap();
        assert_eq!(views.len(), 1);
        assert!(views[0].is_contiguous());
        assert!(nsm.column_views(2).unwrap().iter().all(|v| !v.is_contiguous()));
    }

    #[test]
    fn template_validation() {
        let s = schema();
        // Attribute 3 missing.
        let t =
            LayoutTemplate::grouped(vec![VerticalGroup::new(vec![0, 1, 2], GroupOrder::Nsm)], None);
        assert!(t.validate(&s).is_err());
        // Attribute 0 twice.
        let t = LayoutTemplate::grouped(
            vec![
                VerticalGroup::new(vec![0, 1], GroupOrder::Nsm),
                VerticalGroup::new(vec![0, 2, 3], GroupOrder::Dsm),
            ],
            None,
        );
        assert!(t.validate(&s).is_err());
        // Zero chunk size.
        let t = LayoutTemplate::grouped(
            vec![VerticalGroup::new(vec![0, 1, 2, 3], GroupOrder::Nsm)],
            Some(0),
        );
        assert!(t.validate(&s).is_err());
    }

    #[test]
    fn flexibility_classes() {
        let s = schema();
        assert_eq!(LayoutTemplate::nsm(&s).flexibility(), LayoutFlexibility::Inflexible);
        assert_eq!(LayoutTemplate::dsm(&s).flexibility(), LayoutFlexibility::Inflexible);
        assert_eq!(LayoutTemplate::dsm_emulated(&s).flexibility(), LayoutFlexibility::WeakFlexible);
        assert_eq!(LayoutTemplate::pax(&s, 64).flexibility(), LayoutFlexibility::WeakFlexible);
        let hyper_like = LayoutTemplate::grouped(
            vec![
                VerticalGroup::new(vec![0, 1], GroupOrder::ThinPerAttr),
                VerticalGroup::new(vec![2, 3], GroupOrder::ThinPerAttr),
            ],
            Some(1024),
        );
        assert_eq!(
            hyper_like.flexibility(),
            LayoutFlexibility::StrongFlexible { constrained: true }
        );
    }

    #[test]
    fn linearization_classes() {
        let s = schema();
        assert_eq!(
            LayoutTemplate::nsm(&s).linearization_class(),
            FragmentLinearization::FatNsmFixed
        );
        assert_eq!(
            LayoutTemplate::dsm(&s).linearization_class(),
            FragmentLinearization::FatDsmFixed
        );
        assert_eq!(
            LayoutTemplate::dsm_emulated(&s).linearization_class(),
            FragmentLinearization::ThinDsmEmulated
        );
        let hyrise_like = LayoutTemplate::grouped(
            vec![
                VerticalGroup::new(vec![0, 1], GroupOrder::Nsm),
                VerticalGroup::new(vec![2, 3], GroupOrder::Dsm),
            ],
            None,
        );
        assert_eq!(hyrise_like.linearization_class(), FragmentLinearization::FatVariable);
        let h2o_like = LayoutTemplate::grouped(
            vec![
                VerticalGroup::new(vec![0, 1, 3], GroupOrder::Nsm),
                VerticalGroup::new(vec![2], GroupOrder::ThinPerAttr),
            ],
            None,
        );
        assert_eq!(
            h2o_like.linearization_class(),
            FragmentLinearization::VariableNsmFixedPartiallyDsmEmulated
        );
    }

    #[test]
    fn rebuild_preserves_rows() {
        let s = schema();
        let mut l = Layout::new(&s, LayoutTemplate::nsm(&s)).unwrap();
        fill(&mut l, &s, 50);
        let r = l.rebuild(&s, LayoutTemplate::dsm_emulated(&s)).unwrap();
        assert_eq!(r.row_count(), 50);
        for i in [0i64, 17, 49] {
            assert_eq!(r.read_record(&s, i as u64).unwrap(), rec(i));
        }
    }

    #[test]
    fn grouped_layout_mixed_orders_roundtrip() {
        let s = schema();
        let t = LayoutTemplate::grouped(
            vec![
                VerticalGroup::new(vec![3, 0], GroupOrder::Nsm),
                VerticalGroup::new(vec![1], GroupOrder::ThinPerAttr),
                VerticalGroup::new(vec![2], GroupOrder::ThinPerAttr),
            ],
            Some(16),
        );
        let mut l = Layout::new(&s, t).unwrap();
        fill(&mut l, &s, 40);
        for i in [0i64, 15, 16, 39] {
            assert_eq!(l.read_record(&s, i as u64).unwrap(), rec(i));
        }
    }
}
