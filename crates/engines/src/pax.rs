//! PAX (Ailamaki et al., 2002): "a page-level decomposition storage model
//! in the context of disk-based database systems ... a relation has one
//! layout that is horizontally split in n fat fragments where n is
//! determined by the page size. Each fat fragment is afterwards linearized
//! using a DSM-fixed approach." (Section IV-A1)
//!
//! The disk is primary storage; the working set is a fixed-capacity buffer
//! pool of decoded pages. Completed pages are written through to
//! [`SimDisk`]; reads outside the pool fault pages in, charging disk time.

use htapg_core::sync::RwLock;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use htapg_core::engine::{visit_views, MaintenanceReport, StorageEngine};
use htapg_core::{
    AttrId, Error, Fragment, FragmentSpec, Linearization, Location, Record, RelationId, Result,
    RowId, Schema, Value,
};
use htapg_device::disk::{DiskSpec, SimDisk};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

/// Page key on the shared disk: relation id in the high bits.
fn page_key(rel: RelationId, page: u64) -> u64 {
    ((rel as u64) << 40) | page
}

struct PaxRelation {
    rel: RelationId,
    schema: Schema,
    rows_per_page: u64,
    rows: u64,
    /// The open, not-yet-full page (memory only until it completes).
    open: Option<Fragment>,
    /// Buffer pool of completed pages, FIFO-evicted.
    pool: HashMap<u64, Fragment>,
    pool_order: VecDeque<u64>,
    pool_capacity: usize,
}

impl PaxRelation {
    fn page_of(&self, row: RowId) -> u64 {
        row / self.rows_per_page
    }

    fn page_spec(&self, page: u64) -> FragmentSpec {
        FragmentSpec {
            first_row: page * self.rows_per_page,
            capacity: self.rows_per_page,
            attrs: self.schema.attr_ids().collect(),
            order: if self.schema.arity() > 1 { Linearization::Dsm } else { Linearization::Direct },
        }
    }

    fn pool_insert(
        &mut self,
        page: u64,
        frag: Fragment,
        disk: &SimDisk,
        rel_evictions: &mut usize,
    ) -> Result<()> {
        if self.pool.len() >= self.pool_capacity {
            if let Some(old) = self.pool_order.pop_front() {
                // Pages are written through on completion and on update, so
                // eviction is free of I/O.
                self.pool.remove(&old);
                *rel_evictions += 1;
            }
        }
        let _ = disk;
        self.pool.insert(page, frag);
        self.pool_order.push_back(page);
        Ok(())
    }

    /// Get the fragment for `page`, faulting it in from disk if needed.
    fn fetch_page(&mut self, page: u64, disk: &SimDisk) -> Result<&mut Fragment> {
        let open_covers =
            self.open.as_ref().is_some_and(|o| o.spec().first_row / self.rows_per_page == page);
        if open_covers {
            return Ok(self.open.as_mut().expect("checked above"));
        }
        if !self.pool.contains_key(&page) {
            let bytes = disk.read_page(page_key(self.rel, page))?;
            let spec = self.page_spec(page);
            let frag = Fragment::from_raw(
                &self.schema,
                spec,
                bytes,
                self.rows_per_page,
                Location::Disk(disk.id()),
            )?;
            let mut evictions = 0;
            self.pool_insert(page, frag, disk, &mut evictions)?;
        } else {
            // Refresh FIFO position on hit to approximate LRU.
            if let Some(pos) = self.pool_order.iter().position(|&p| p == page) {
                self.pool_order.remove(pos);
                self.pool_order.push_back(page);
            }
        }
        Ok(self.pool.get_mut(&page).expect("just inserted"))
    }
}

/// The PAX engine: DSM-fixed pages over a simulated disk with a buffer
/// pool.
pub struct PaxEngine {
    rels: Registry<PaxRelation>,
    disk: Arc<SimDisk>,
    /// Pages the buffer pool may hold per relation.
    pool_pages: usize,
    evictions: RwLock<usize>,
}

impl Default for PaxEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PaxEngine {
    pub fn new() -> Self {
        Self::with_config(DiskSpec::default(), 256)
    }

    pub fn with_config(disk: DiskSpec, pool_pages: usize) -> Self {
        PaxEngine {
            rels: Registry::new(),
            disk: Arc::new(SimDisk::new(0, disk)),
            pool_pages: pool_pages.max(1),
            evictions: RwLock::new(0),
        }
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    /// Buffer-pool evictions since creation (for the buffer-pool tests).
    pub fn evictions(&self) -> usize {
        *self.evictions.read()
    }
}

impl StorageEngine for PaxEngine {
    fn name(&self) -> &'static str {
        "PAX"
    }

    fn trace_clock(&self) -> Option<Arc<dyn htapg_core::obs::VirtualClock>> {
        let ledger: Arc<htapg_device::CostLedger> = Arc::clone(self.disk().ledger());
        Some(ledger)
    }

    fn classification(&self) -> Classification {
        survey::pax()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let page_bytes = self.disk.spec().page_bytes;
        let rows_per_page = (page_bytes / schema.tuple_width()).max(2) as u64;
        if schema.tuple_width() > page_bytes {
            return Err(Error::InvalidLayout(format!(
                "tuple of {} bytes exceeds the {page_bytes}-byte page",
                schema.tuple_width()
            )));
        }
        let pool_capacity = self.pool_pages;
        // Two-phase: reserve the id, then fix it up inside the state.
        let rel = self.rels.add(PaxRelation {
            rel: 0,
            schema,
            rows_per_page,
            rows: 0,
            open: None,
            pool: HashMap::new(),
            pool_order: VecDeque::new(),
            pool_capacity,
        });
        self.rels.write(rel, |r| {
            r.rel = rel;
            Ok(())
        })?;
        Ok(rel)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        let disk = self.disk.clone();
        self.rels.write(rel, |r| {
            r.schema.check_record(record)?;
            if r.open.is_none() {
                let page = r.rows / r.rows_per_page;
                let spec = r.page_spec(page);
                r.open = Some(Fragment::new_at(&r.schema, spec, Location::Disk(disk.id()))?);
            }
            let row = {
                let open = r.open.as_mut().expect("ensured above");
                open.append(&r.schema, record)?
            };
            r.rows += 1;
            if r.open.as_ref().expect("present").is_full() {
                let frag = r.open.take().expect("present");
                let page = frag.spec().first_row / r.rows_per_page;
                disk.write_page(page_key(r.rel, page), frag.raw())?;
                let mut ev = 0;
                r.pool_insert(page, frag, &disk, &mut ev)?;
                if ev > 0 {
                    *self.evictions.write() += ev;
                }
            }
            Ok(row)
        })
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        let disk = self.disk.clone();
        self.rels.write(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let page = r.page_of(row);
            let schema = r.schema.clone();
            let frag = r.fetch_page(page, &disk)?;
            frag.read_tuplet(&schema, row)
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        let disk = self.disk.clone();
        self.rels.write(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let page = r.page_of(row);
            let schema = r.schema.clone();
            let frag = r.fetch_page(page, &disk)?;
            frag.read_value(&schema, row, attr)
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        let disk = self.disk.clone();
        self.rels.write(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let page = r.page_of(row);
            let schema = r.schema.clone();
            let rows_per_page = r.rows_per_page;
            let rel_id = r.rel;
            let is_open =
                r.open.as_ref().is_some_and(|o| o.spec().first_row / rows_per_page == page);
            let frag = r.fetch_page(page, &disk)?;
            frag.write_value(&schema, row, attr, value)?;
            if !is_open {
                // Write-through so evictions stay I/O-free.
                disk.write_page(page_key(rel_id, page), frag.raw())?;
            }
            Ok(())
        })
    }

    /// Completed pages in row order, each faulted in once for every
    /// column, then the open page: a page's minipages of `attrs` are one
    /// visit, served in place.
    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        let disk = self.disk.clone();
        self.rels.write(rel, |r| {
            attrs.iter().try_for_each(|&a| r.schema.attr(a).map(drop))?;
            let mut bufs = Vec::new();
            let mut page_blocks = |frag: &Fragment| -> Result<()> {
                let views =
                    attrs.iter().map(|&a| frag.column_view(a)).collect::<Result<Vec<_>>>()?;
                visit_views(&views, &mut bufs, visit);
                Ok(())
            };
            for page in 0..r.rows / r.rows_per_page {
                page_blocks(r.fetch_page(page, &disk)?)?;
            }
            r.open.as_ref().map_or(Ok(()), page_blocks)
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.rows))
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
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Float64(i as f64 * 2.0)]
    }

    #[test]
    fn crud_across_pages() {
        let e = PaxEngine::with_config(DiskSpec { page_bytes: 256, ..DiskSpec::default() }, 4);
        let rel = e.create_relation(schema()).unwrap();
        // 256 / 16 = 16 rows per page; 100 rows = 6 completed pages + open.
        for i in 0..100 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.row_count(rel).unwrap(), 100);
        assert_eq!(e.read_record(rel, 0).unwrap(), rec(0));
        assert_eq!(e.read_record(rel, 99).unwrap(), rec(99));
        e.update_field(rel, 17, 1, &Value::Float64(0.0)).unwrap();
        assert_eq!(e.read_field(rel, 17, 1).unwrap(), Value::Float64(0.0));
        let sum = crate::testing::planned_sum(&e, rel, 0);
        assert_eq!(sum, (0..100i64).sum::<i64>() as f64);
    }

    #[test]
    fn completed_pages_hit_the_disk() {
        let e = PaxEngine::with_config(DiskSpec { page_bytes: 128, ..DiskSpec::default() }, 4);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..64 {
            e.insert(rel, &rec(i)).unwrap();
        }
        let (_, writes, _) = e.disk().io_stats();
        assert!(writes >= 8, "128/16 = 8 rows/page, 64 rows = 8 pages: got {writes}");
        assert!(e.disk().page_count() >= 8);
    }

    #[test]
    fn small_pool_faults_pages_back_in() {
        let e = PaxEngine::with_config(DiskSpec { page_bytes: 128, ..DiskSpec::default() }, 2);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..128 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert!(e.evictions() > 0, "pool of 2 must evict");
        let (reads_before, _, _) = e.disk().io_stats();
        // Read a row from the oldest page: must fault in from disk.
        assert_eq!(e.read_record(rel, 0).unwrap(), rec(0));
        let (reads_after, _, _) = e.disk().io_stats();
        assert!(reads_after > reads_before, "expected a page fault");
        // And the data survives the round trip bit-exactly.
        for i in (0..128).step_by(17) {
            assert_eq!(e.read_record(rel, i as u64).unwrap(), rec(i));
        }
    }

    #[test]
    fn updates_written_through_survive_eviction() {
        let e = PaxEngine::with_config(DiskSpec { page_bytes: 128, ..DiskSpec::default() }, 1);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..64 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.update_field(rel, 3, 1, &Value::Float64(-9.0)).unwrap();
        // Force the page out by touching many others.
        for i in (0..64).rev() {
            let _ = e.read_field(rel, i, 0).unwrap();
        }
        assert_eq!(e.read_field(rel, 3, 1).unwrap(), Value::Float64(-9.0));
    }

    #[test]
    fn oversized_tuple_rejected() {
        let e = PaxEngine::with_config(DiskSpec { page_bytes: 64, ..DiskSpec::default() }, 2);
        let wide = Schema::of(&[("pad", DataType::Text(100))]);
        assert!(e.create_relation(wide).is_err());
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(PaxEngine::new().classification(), survey::pax());
    }
}
