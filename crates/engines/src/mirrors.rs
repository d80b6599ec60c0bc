//! Fractured Mirrors (Ramamurthy et al., 2002): "two logical copies of a
//! relation with each possessing its own storage model ... the pages of
//! both fragments are distributed on disks such that each disk holds a copy
//! of the relation but both fragments are equally represented on all
//! disks." (Section IV-A2)
//!
//! The engine keeps an NSM mirror (stripe 0) and a DSM mirror (stripe 1) of
//! every relation, replicated on every write, and routes reads by access
//! pattern: record-centric reads hit the NSM mirror, attribute-centric
//! scans the DSM mirror. Completed page images of both mirrors are striped
//! across a [`DiskArray`] so the mirrored copies of a page never share a
//! spindle.

use std::ops::Range;
use std::sync::Arc;

use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::retry::{with_retry, RetryPolicy};
use htapg_core::{
    AccessHint, AttrId, LayoutTemplate, Record, Relation, RelationId, Result, RowId, Schema,
    Scheme, Value,
};
use htapg_device::disk::{DiskArray, DiskSpec, PageId};
use htapg_device::FaultPlan;
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

struct MirroredRelation {
    rel: RelationId,
    relation: Relation,
    rows_per_page: u64,
    /// Pages already persisted as complete page images.
    persisted_pages: u64,
}

/// The Fractured Mirrors engine.
pub struct MirrorsEngine {
    rels: Registry<MirroredRelation>,
    array: Arc<DiskArray>,
}

impl Default for MirrorsEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MirrorsEngine {
    pub fn new() -> Self {
        Self::with_disks(4, DiskSpec::default())
    }

    pub fn with_disks(n: usize, spec: DiskSpec) -> Self {
        assert!(n >= 2, "mirroring needs at least two disks");
        MirrorsEngine { rels: Registry::new(), array: Arc::new(DiskArray::new(n, spec)) }
    }

    /// Like [`Self::with_disks`], with a fault injector installed on every
    /// spindle of the array (chaos testing).
    pub fn with_fault_plan(n: usize, spec: DiskSpec, plan: &Arc<FaultPlan>) -> Self {
        assert!(n >= 2, "mirroring needs at least two disks");
        let mut array = DiskArray::new(n, spec);
        array.set_fault_plan(plan);
        MirrorsEngine { rels: Registry::new(), array: Arc::new(array) }
    }

    pub fn array(&self) -> &Arc<DiskArray> {
        &self.array
    }

    /// Pages of a relation persisted so far (both mirrors).
    pub fn persisted_pages(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.persisted_pages))
    }

    /// The disk key of a relation's persisted page.
    pub fn page_key(rel: RelationId, page: u64) -> PageId {
        ((rel as u64) << 40) | page
    }

    /// Read one persisted page back as the NSM tuplets of its rows,
    /// preferring the stripe-0 copy (the row mirror's tuplets) and
    /// degrading to the stripe-1 mirror (the column mirror's runs, turned
    /// back into tuplets) when the first spindle faults — the availability
    /// payoff of keeping "a copy of the relation" on each disk. Transient
    /// faults are retried per spindle (backoff charged to that disk's
    /// ledger) before falling over.
    pub fn read_persisted_page(&self, rel: RelationId, page: u64) -> Result<Vec<u8>> {
        let key = Self::page_key(rel, page);
        // Every page image of a relation has the same footprint; a shorter
        // image is a torn leftover of a failed write and must not be served.
        let (schema, expect) =
            self.rels.read(rel, |r| Ok((r.relation.schema().clone(), self.page_footprint(r))))?;
        let policy = RetryPolicy::default();
        let mut last_err = None;
        for stripe in 0..2u32 {
            let disk = self.array.place(stripe, page);
            match with_retry(&policy, disk.ledger(), || disk.read_page(key)) {
                Ok(image) if image.len() == expect && stripe == 1 => {
                    return Ok(tuplets_from_runs(&schema, &image));
                }
                Ok(image) if image.len() == expect => return Ok(image),
                Ok(torn) => {
                    last_err = Some(htapg_core::Error::Internal(format!(
                        "torn page image on disk {}: {} of {expect} bytes",
                        disk.id(),
                        torn.len()
                    )))
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("two stripes attempted"))
    }

    /// Persist freshly completed pages of both mirrors onto the array.
    ///
    /// Each spindle's write retries transient faults with virtual backoff;
    /// a page is considered durable when at least one mirror holds it, so a
    /// single dead stripe degrades redundancy, not availability. Only when
    /// *both* copies fail does persistence error out.
    fn persist_completed(&self, r: &mut MirroredRelation) -> Result<()> {
        let complete = r.relation.row_count() / r.rows_per_page;
        let policy = RetryPolicy::default();
        while r.persisted_pages < complete {
            let page = r.persisted_pages;
            let key = Self::page_key(r.rel, page);
            // Persist each mirror's own bytes for this row range: the row
            // mirror's tuplets on stripe 0, the column mirror's runs on
            // stripe 1. The striping (what Fractured Mirrors is about)
            // keeps the two copies on different spindles.
            let rows = page * r.rows_per_page..(page + 1) * r.rows_per_page;
            let footprint = self.page_footprint(r);
            let mut survivors = 0;
            let mut last_err = None;
            for stripe in 0..2u32 {
                let mut image = page_image(&r.relation, stripe as usize, rows.clone())?;
                image.truncate(footprint);
                let disk = self.array.place(stripe, page);
                match with_retry(&policy, disk.ledger(), || disk.write_page(key, &image)) {
                    Ok(()) => survivors += 1,
                    Err(e) if e.is_transient() => last_err = Some(e),
                    Err(e) => return Err(e),
                }
            }
            if survivors == 0 {
                return Err(last_err.expect("both stripes faulted"));
            }
            r.persisted_pages += 1;
        }
        Ok(())
    }
}

impl MirrorsEngine {
    /// Bytes of every persisted page image of a relation.
    fn page_footprint(&self, r: &MirroredRelation) -> usize {
        let page_bytes = self.array.disk(0).spec().page_bytes;
        let footprint = (r.relation.schema().tuple_width() as u64 * r.rows_per_page) as usize;
        footprint.min(page_bytes)
    }
}

/// The image of `rows` in mirror `layout`'s own byte order: NSM tuplets
/// for the row mirror (layout 0), one run of fields per column, in schema
/// order, for the column mirror (layout 1). Both are copied a fragment's
/// run at a time: the row mirror stores whole tuplets in schema order, so
/// its first field's view spans them, and the column mirror stores every
/// column contiguously.
fn page_image(relation: &Relation, layout: usize, rows: Range<RowId>) -> Result<Vec<u8>> {
    let schema = relation.schema();
    let (tw, n) = (schema.tuple_width(), (rows.end - rows.start) as usize);
    let mut image = vec![0u8; tw * n];
    let attrs = if layout == 0 { 0..1 } else { 0..schema.arity() as AttrId };
    let mut at = 0;
    for attr in attrs {
        let w = schema.width(attr)?;
        for view in relation.layouts()[layout].column_views(attr)? {
            let (lo, hi) =
                (rows.start.max(view.first_row), rows.end.min(view.first_row + view.rows));
            if lo >= hi {
                continue;
            }
            let piece = view.slice_rows(lo - view.first_row, hi - view.first_row);
            let (first, len) = ((lo - rows.start) as usize, piece.rows as usize);
            let (dst, run) = match layout {
                0 => (first * tw, &piece.data[piece.offset..][..len * tw]),
                _ => (at * n + first * w, piece.contiguous_bytes().expect("contiguous columns")),
            };
            image[dst..dst + run.len()].copy_from_slice(run);
        }
        at += w;
    }
    Ok(image)
}

/// The NSM tuplets of a column mirror's page image (see [`page_image`]).
fn tuplets_from_runs(schema: &Schema, runs: &[u8]) -> Vec<u8> {
    let tw = schema.tuple_width();
    let n = runs.len() / tw;
    let mut tuplets = vec![0u8; runs.len()];
    let mut at = 0;
    for attr in schema.attr_ids() {
        let w = schema.width(attr).expect("schema attributes have widths");
        for (i, field) in runs[at * n..(at + w) * n].chunks_exact(w).enumerate() {
            tuplets[i * tw + at..i * tw + at + w].copy_from_slice(field);
        }
        at += w;
    }
    tuplets
}

impl StorageEngine for MirrorsEngine {
    fn name(&self) -> &'static str {
        "FRAC. MIRRORS"
    }

    fn classification(&self) -> Classification {
        survey::fractured_mirrors()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let rows_per_page =
            (self.array.disk(0).spec().page_bytes / schema.tuple_width()).max(1) as u64;
        let relation = Relation::with_layouts(
            schema.clone(),
            vec![LayoutTemplate::nsm(&schema), LayoutTemplate::dsm(&schema)],
            Scheme::Replication,
        )?;
        let rel =
            self.rels.add(MirroredRelation { rel: 0, relation, rows_per_page, persisted_pages: 0 });
        self.rels.write(rel, |r| {
            r.rel = rel;
            Ok(())
        })?;
        Ok(rel)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.relation.schema().clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.rels.write(rel, |r| {
            let row = r.relation.insert(record)?;
            self.persist_completed(r)?;
            Ok(row)
        })
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| r.relation.read_record(row))
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| r.relation.read_value(row, attr, AccessHint::RecordCentric))
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        // Replication: both mirrors must be written.
        self.rels.write(rel, |r| r.relation.update_field(row, attr, value))
    }

    /// Several columns from the DSM mirror under one registry read.
    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| r.relation.with_aligned_blocks(attrs, &[], visit))
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.relation.row_count()))
    }

    /// Batch materialization against the NSM mirror: one registry read and
    /// a single sorted pass over the requested positions (sequential page
    /// order on the record-centric mirror), with records restored to the
    /// caller's request order. The planner annotates this plan node with
    /// the `nsm` mirror choice.
    fn materialize_rows(&self, rel: RelationId, rows: &[RowId]) -> Result<Vec<Record>> {
        self.rels.read(rel, |r| {
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by_key(|&i| rows[i]);
            let mut out: Vec<Record> = vec![Vec::new(); rows.len()];
            for i in order {
                out[i] = r.relation.read_record(rows[i])?;
            }
            Ok(out)
        })
    }

    fn maintain(&self) -> Result<MaintenanceReport> {
        Ok(MaintenanceReport::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::DataType;

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64), ("t", DataType::Text(6))])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Float64(i as f64), Value::Text("m".into())]
    }

    #[test]
    fn both_mirrors_stay_consistent() {
        let e = MirrorsEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..50 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.update_field(rel, 10, 1, &Value::Float64(-1.0)).unwrap();
        // Record-centric read (NSM mirror) and scan (DSM mirror) agree.
        assert_eq!(e.read_record(rel, 10).unwrap()[1], Value::Float64(-1.0));
        let sum = crate::testing::planned_sum(&e, rel, 1);
        let expect: f64 = (0..50).map(|i| i as f64).sum::<f64>() - 10.0 - 1.0;
        assert!((sum - expect).abs() < 1e-9);
    }

    #[test]
    fn reads_route_to_the_right_mirror() {
        let e = MirrorsEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        e.insert(rel, &rec(0)).unwrap();
        // The DSM mirror serves the column in place: one contiguous block.
        let mut blocks = Vec::new();
        assert!(e.with_column_bytes(rel, 1, &mut |b| blocks.push(b.len())).unwrap());
        assert_eq!(blocks, vec![8]);
        // Internal routing: record reads use layout 0 (NSM), scans layout 1.
        e.rels
            .read(rel, |r| {
                assert_eq!(r.relation.route_read(0, 0, AccessHint::RecordCentric).unwrap(), 0);
                assert_eq!(r.relation.route_read(0, 0, AccessHint::AttributeCentric).unwrap(), 1);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn completed_pages_land_on_distinct_disks() {
        let spec = DiskSpec { page_bytes: 128, ..DiskSpec::default() };
        let e = MirrorsEngine::with_disks(4, spec);
        let rel = e.create_relation(schema()).unwrap();
        // 128 / 22 = 5 rows per page; insert enough for several pages.
        for i in 0..40 {
            e.insert(rel, &rec(i)).unwrap();
        }
        let total_pages: usize = (0..4).map(|d| e.array().disk(d).page_count()).sum();
        assert!(total_pages >= 8, "two mirrors of ≥4 pages: got {total_pages}");
        for d in 0..4 {
            assert!(e.array().disk(d).page_count() > 0, "disk {d} empty");
        }
    }

    #[test]
    fn persisted_pages_decode_to_the_records_from_either_mirror() {
        let spec = DiskSpec { page_bytes: 128, ..DiskSpec::default() };
        let e = MirrorsEngine::with_disks(4, spec);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..40 {
            e.insert(rel, &rec(i * 37 - 500)).unwrap();
        }
        let s = schema();
        let (tw, per_page) = (s.tuple_width(), 128 / s.tuple_width());
        let check = |image: &[u8], page: u64| {
            assert_eq!(image.len(), tw * per_page);
            for (i, tuplet) in image.chunks_exact(tw).enumerate() {
                let mut at = 0;
                let got: Record = s
                    .attr_ids()
                    .map(|a| {
                        let ty = s.ty(a).unwrap();
                        at += ty.width();
                        Value::decode(ty, &tuplet[at - ty.width()..at])
                    })
                    .collect();
                let row = page * per_page as u64 + i as u64;
                assert_eq!(got, e.read_record(rel, row).unwrap(), "page {page} row {row}");
            }
        };
        let pages = e.persisted_pages(rel).unwrap();
        assert!(pages >= 4, "{pages} pages");
        for page in 0..pages {
            let key = MirrorsEngine::page_key(rel, page);
            let tuplets = e.read_persisted_page(rel, page).unwrap();
            check(&tuplets, page);
            // The column mirror's copy holds the same rows as runs.
            let runs = e.array().place(1, page).read_page(key).unwrap();
            assert_ne!(runs, tuplets, "page {page}: stripe 1 holds tuplets");
            // Stripe 0's copy torn: the column mirror serves the page.
            e.array().place(0, page).write_page(key, &tuplets[..1]).unwrap();
            check(&e.read_persisted_page(rel, page).unwrap(), page);
        }
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(MirrorsEngine::new().classification(), survey::fractured_mirrors());
    }
}
