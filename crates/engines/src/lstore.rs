//! L-Store (Sadoghi et al., 2016): "a relation is encoded by three
//! components: a set of base pages, a set of tail pages and a page
//! dictionary. ... the upper read-only (and compressed) base page part and
//! the lower append-only tail page part. ... When the value of a field for
//! a certain tuple (called base record) is modified, a new tuple (called
//! tail record) is appended ... The book-keeping between pages and records
//! is in the responsibility of the page dictionary. ... the deep
//! integration of historic data handling is a notable feature." (§IV-B4)
//!
//! Per attribute: a compressed base column + an append-only tail of
//! versioned updates behind a page dictionary (row → latest tail entry).
//! Reads chase the dictionary indirection (the record-centric penalty the
//! paper notes); [`StorageEngine::maintain`] merges tails into a fresh
//! compressed base, moving superseded versions to the archive so
//! [`LStoreEngine::read_field_as_of`] keeps answering historic queries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htapg_core::compress::{self, Compressed};
use htapg_core::engine::{align_columns, MaintenanceReport, StorageEngine};
use htapg_core::{AttrId, Error, Record, RelationId, Result, RowId, Schema, Value};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

/// Rows per compressed base block.
const BASE_BLOCK_ROWS: usize = 1024;

/// One tail record: a versioned update of a single field.
#[derive(Debug, Clone)]
struct TailEntry {
    row: RowId,
    bytes: Vec<u8>,
    /// Previous version of the same row in this column's tail/archive.
    prev: Option<usize>,
    /// Logical timestamp of the update.
    ts: u64,
}

struct Column {
    width: usize,
    /// Whether this column's base blocks are codec-compressed (fixed-width
    /// fields of ≤ 8 bytes) or raw (wider text).
    packable: bool,
    /// Compressed blocks covering the first `compressed_rows` rows.
    base_blocks: Vec<Compressed>,
    compressed_rows: u64,
    /// Uncompressed base region for rows ≥ `compressed_rows`.
    base_raw: Vec<u8>,
    /// Append-only active tail.
    tail: Vec<TailEntry>,
    /// Merged-away history (still answers as-of reads).
    archive: Vec<TailEntry>,
    /// Page dictionary: row → latest active tail entry.
    latest: HashMap<RowId, usize>,
}

impl Column {
    fn base_value(&self, row: RowId) -> Result<Vec<u8>> {
        if row < self.compressed_rows {
            let block = (row as usize) / BASE_BLOCK_ROWS;
            let local = (row as usize) % BASE_BLOCK_ROWS;
            let values = compress::decode(&self.base_blocks[block])?;
            let v = values.get(local).ok_or(Error::UnknownRow(row))?;
            Ok(v.to_le_bytes()[..self.width].to_vec())
        } else {
            let local = (row - self.compressed_rows) as usize;
            let start = local * self.width;
            if start + self.width > self.base_raw.len() {
                return Err(Error::UnknownRow(row));
            }
            Ok(self.base_raw[start..start + self.width].to_vec())
        }
    }

    /// The latest column in row order, as blocks: each compressed base
    /// block decoded, then the raw region in place; a block holding rows
    /// with unmerged tail versions is copied and patched.
    fn latest_blocks(&self, sink: &mut dyn FnMut(&[u8])) -> Result<()> {
        let w = self.width;
        let mut patches: Vec<(RowId, &[u8])> =
            self.latest.iter().map(|(&row, &i)| (row, self.tail[i].bytes.as_slice())).collect();
        patches.sort_unstable_by_key(|&(row, _)| row);
        let mut patches = patches.as_slice();
        // Encode the patches of rows `first..` over `block`, dropping them.
        fn patch(patches: &mut &[(RowId, &[u8])], first: RowId, block: &mut [u8], w: usize) {
            let end = first + (block.len() / w) as u64;
            while let Some((&(row, bytes), rest)) = patches.split_first().filter(|p| p.0 .0 < end) {
                let at = (row - first) as usize * w;
                block[at..at + w].copy_from_slice(bytes);
                *patches = rest;
            }
        }
        let (mut scratch, mut first) = (Vec::new(), 0);
        for block in &self.base_blocks {
            let values = compress::decode(block)?;
            scratch.resize(values.len() * w, 0);
            for (field, v) in scratch.chunks_exact_mut(w).zip(values) {
                field.copy_from_slice(&v.to_le_bytes()[..w]);
            }
            patch(&mut patches, first, &mut scratch, w);
            sink(&scratch);
            first += (scratch.len() / w) as u64;
        }
        if patches.is_empty() {
            if !self.base_raw.is_empty() {
                sink(&self.base_raw);
            }
        } else {
            scratch.clear();
            scratch.extend_from_slice(&self.base_raw);
            patch(&mut patches, first, &mut scratch, w);
            sink(&scratch);
        }
        Ok(())
    }

    /// Latest value via the page dictionary (tail first, base fallback).
    fn read_latest(&self, row: RowId) -> Result<Vec<u8>> {
        match self.latest.get(&row) {
            Some(&idx) => Ok(self.tail[idx].bytes.clone()),
            None => self.base_value(row),
        }
    }

    /// Value as of timestamp `ts`: newest version (tail then archive chain)
    /// with `entry.ts <= ts`, else the base value.
    fn read_as_of(
        &self,
        row: RowId,
        ts: u64,
        pool: &dyn Fn(usize) -> TailEntry,
    ) -> Result<Vec<u8>> {
        // Chains are threaded through a single conceptual version pool:
        // active tail indices are offset after the archive.
        let mut cur = self.latest.get(&row).map(|&i| i + self.archive.len());
        // If no active version, the newest (by timestamp) archived version
        // of this row.
        if cur.is_none() {
            cur = self
                .archive
                .iter()
                .enumerate()
                .filter(|(_, e)| e.row == row)
                .max_by_key(|(_, e)| e.ts)
                .map(|(i, _)| i);
        }
        let mut cursor = cur;
        while let Some(i) = cursor {
            let entry = pool(i);
            if entry.ts <= ts {
                return Ok(entry.bytes);
            }
            cursor = entry.prev;
        }
        self.base_value(row)
    }
}

struct LStoreRelation {
    schema: Schema,
    columns: Vec<Column>,
    rows: u64,
}

/// The L-Store engine.
pub struct LStoreEngine {
    rels: Registry<LStoreRelation>,
    /// Relation-spanning logical clock for version timestamps.
    clock: Arc<AtomicU64>,
}

impl Default for LStoreEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl LStoreEngine {
    pub fn new() -> Self {
        LStoreEngine { rels: Registry::new(), clock: Arc::new(AtomicU64::new(1)) }
    }

    /// Current logical time (use as the `ts` for later as-of reads).
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Historic read: the value of `(row, attr)` as of logical time `ts`.
    pub fn read_field_as_of(
        &self,
        rel: RelationId,
        row: RowId,
        attr: AttrId,
        ts: u64,
    ) -> Result<Value> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let ty = r.schema.ty(attr)?;
            let col = r.columns.get(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
            let pool = |i: usize| -> TailEntry {
                if i < col.archive.len() {
                    col.archive[i].clone()
                } else {
                    col.tail[i - col.archive.len()].clone()
                }
            };
            let bytes = col.read_as_of(row, ts, &pool)?;
            Ok(Value::decode(ty, &bytes))
        })
    }

    /// Active tail length across all columns (merge instrumentation).
    pub fn tail_len(&self, rel: RelationId) -> Result<usize> {
        self.rels.read(rel, |r| Ok(r.columns.iter().map(|c| c.tail.len()).sum()))
    }
}

fn pack_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

impl StorageEngine for LStoreEngine {
    fn name(&self) -> &'static str {
        "L-STORE"
    }

    fn classification(&self) -> Classification {
        survey::lstore()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let columns = schema
            .attr_ids()
            .map(|a| {
                let width = schema.width(a).expect("attr exists");
                Column {
                    width,
                    packable: width <= 8,
                    base_blocks: Vec::new(),
                    compressed_rows: 0,
                    base_raw: Vec::new(),
                    tail: Vec::new(),
                    archive: Vec::new(),
                    latest: HashMap::new(),
                }
            })
            .collect();
        Ok(self.rels.add(LStoreRelation { schema, columns, rows: 0 }))
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.tick();
        self.rels.write(rel, |r| {
            r.schema.check_record(record)?;
            let row = r.rows;
            for (a, v) in record.iter().enumerate() {
                let ty = r.schema.ty(a as AttrId)?;
                let col = &mut r.columns[a];
                let start = col.base_raw.len();
                col.base_raw.resize(start + col.width, 0);
                v.encode_into(ty, &mut col.base_raw[start..start + col.width])?;
            }
            r.rows += 1;
            Ok(row)
        })
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            // The dictionary indirection is chased once per attribute —
            // the record-centric dereference cost the paper calls out.
            (0..r.schema.arity())
                .map(|a| {
                    let ty = r.schema.ty(a as AttrId)?;
                    Ok(Value::decode(ty, &r.columns[a].read_latest(row)?))
                })
                .collect()
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let ty = r.schema.ty(attr)?;
            let col = r.columns.get(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
            Ok(Value::decode(ty, &col.read_latest(row)?))
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        let ts = self.tick();
        self.rels.write(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            let ty = r.schema.ty(attr)?;
            if !value.matches(ty) {
                return Err(Error::TypeMismatch { expected: ty.name(), got: value.type_name() });
            }
            let col = r.columns.get_mut(attr as usize).ok_or(Error::UnknownAttribute(attr))?;
            let mut bytes = vec![0u8; col.width];
            value.encode_into(ty, &mut bytes)?;
            // The tail record shares lineage with its base record: it links
            // to the previous version (if any).
            let prev = col.latest.get(&row).map(|&i| i + col.archive.len());
            col.tail.push(TailEntry { row, bytes, prev, ts });
            col.latest.insert(row, col.tail.len() - 1);
            Ok(())
        })
    }

    /// Every column's latest values (`Column::latest_blocks`), aligned
    /// across columns whose base blocks cut the rows differently
    /// (`align_columns`).
    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            let columns = attrs
                .iter()
                .map(|&a| r.columns.get(a as usize).ok_or(Error::UnknownAttribute(a)))
                .collect::<Result<Vec<_>>>()?;
            let widths: Vec<usize> = columns.iter().map(|c| c.width).collect();
            align_columns(&widths, |i, sink| columns[i].latest_blocks(sink), visit)
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.rows))
    }

    /// The merge process: fold active tails into a fresh compressed base,
    /// archiving superseded versions for historic reads.
    fn maintain(&self) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        for handle in self.rels.all() {
            let mut r = handle.write();
            let rows = r.rows;
            for col in &mut r.columns {
                if col.tail.is_empty()
                    && col.compressed_rows + (col.base_raw.len() / col.width.max(1)) as u64 == rows
                {
                    // Nothing to merge and base already covers all rows.
                    if col.packable && (col.base_raw.len() / col.width.max(1)) < BASE_BLOCK_ROWS {
                        continue;
                    }
                }
                // Materialize the full latest column: stream the compressed
                // blocks once, then patch with the dictionary.
                let mut latest_bytes: Vec<Vec<u8>> = Vec::with_capacity(rows as usize);
                for block in &col.base_blocks {
                    for v in compress::decode(block)? {
                        latest_bytes.push(v.to_le_bytes()[..col.width].to_vec());
                    }
                }
                let mut row = latest_bytes.len() as u64;
                while row < rows {
                    latest_bytes.push(col.base_value(row)?);
                    row += 1;
                }
                for (&row, &idx) in &col.latest {
                    latest_bytes[row as usize] = col.tail[idx].bytes.clone();
                }
                // The value each updated row had *before* its first update
                // this round is about to be overwritten in the base; archive
                // a ts=0 snapshot of it so historic reads keep working.
                let mut snapshots: Vec<TailEntry> = Vec::new();
                for &row in col.latest.keys() {
                    snapshots.push(TailEntry {
                        row,
                        bytes: col.base_value(row)?,
                        prev: None,
                        ts: 0,
                    });
                }
                // Archive the tail. Pool indices stay valid: active index i
                // was addressed as (archive_len + i), which is exactly where
                // entry i lands after the drain.
                let drained: Vec<TailEntry> = col.tail.drain(..).collect();
                let merged = drained.len();
                col.archive.extend(drained);
                // Link each row's earliest first-update entry (prev == None,
                // ts > 0) to its base snapshot, then append the snapshots.
                let snap_base = col.archive.len();
                let snap_idx: HashMap<RowId, usize> =
                    snapshots.iter().enumerate().map(|(i, e)| (e.row, snap_base + i)).collect();
                for e in col.archive.iter_mut() {
                    if e.prev.is_none() && e.ts > 0 {
                        if let Some(&si) = snap_idx.get(&e.row) {
                            e.prev = Some(si);
                        }
                    }
                }
                col.archive.extend(snapshots);
                col.latest.clear();
                // Rebuild the base: compressed blocks + raw remainder.
                if col.packable {
                    col.base_blocks.clear();
                    let mut packed: Vec<u64> = latest_bytes.iter().map(|b| pack_u64(b)).collect();
                    let full_blocks = packed.len() / BASE_BLOCK_ROWS;
                    let rest = packed.split_off(full_blocks * BASE_BLOCK_ROWS);
                    for chunk in packed.chunks(BASE_BLOCK_ROWS) {
                        col.base_blocks.push(compress::auto_encode(chunk));
                    }
                    col.compressed_rows = (full_blocks * BASE_BLOCK_ROWS) as u64;
                    col.base_raw.clear();
                    for v in rest {
                        col.base_raw.extend_from_slice(&v.to_le_bytes()[..col.width]);
                    }
                } else {
                    col.base_blocks.clear();
                    col.compressed_rows = 0;
                    col.base_raw.clear();
                    for b in &latest_bytes {
                        col.base_raw.extend_from_slice(b);
                    }
                }
                if merged > 0 {
                    report.merges += 1;
                    report.versions_pruned += merged;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::Int64),
            ("v", DataType::Float64),
            ("name", DataType::Text(12)),
        ])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Float64(i as f64), Value::Text(format!("n{i}"))]
    }

    #[test]
    fn crud_with_lineage() {
        let e = LStoreEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..100 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.read_record(rel, 50).unwrap(), rec(50));
        e.update_field(rel, 50, 1, &Value::Float64(-1.0)).unwrap();
        e.update_field(rel, 50, 1, &Value::Float64(-2.0)).unwrap();
        assert_eq!(e.read_field(rel, 50, 1).unwrap(), Value::Float64(-2.0));
        assert_eq!(e.tail_len(rel).unwrap(), 2);
        // Unchanged fields of the same record still come from base pages.
        assert_eq!(e.read_field(rel, 50, 0).unwrap(), Value::Int64(50));
    }

    #[test]
    fn historic_queries_see_old_versions() {
        let e = LStoreEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        e.insert(rel, &rec(0)).unwrap();
        let t0 = e.now();
        e.update_field(rel, 0, 1, &Value::Float64(10.0)).unwrap();
        let t1 = e.now();
        e.update_field(rel, 0, 1, &Value::Float64(20.0)).unwrap();
        let t2 = e.now();
        assert_eq!(e.read_field_as_of(rel, 0, 1, t0).unwrap(), Value::Float64(0.0));
        assert_eq!(e.read_field_as_of(rel, 0, 1, t1).unwrap(), Value::Float64(10.0));
        assert_eq!(e.read_field_as_of(rel, 0, 1, t2).unwrap(), Value::Float64(20.0));
    }

    #[test]
    fn merge_folds_tails_and_keeps_history() {
        let e = LStoreEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..2000 {
            e.insert(rel, &rec(i)).unwrap();
        }
        let t_before = e.now();
        for i in 0..50 {
            e.update_field(rel, i, 1, &Value::Float64(1000.0 + i as f64)).unwrap();
        }
        let t_after = e.now();
        assert_eq!(e.tail_len(rel).unwrap(), 50);
        let report = e.maintain().unwrap();
        assert!(report.merges >= 1);
        assert_eq!(e.tail_len(rel).unwrap(), 0, "tails folded into base");
        // Latest reads now come from the merged base.
        assert_eq!(e.read_field(rel, 3, 1).unwrap(), Value::Float64(1003.0));
        // History survives the merge.
        assert_eq!(e.read_field_as_of(rel, 3, 1, t_before).unwrap(), Value::Float64(3.0));
        assert_eq!(e.read_field_as_of(rel, 3, 1, t_after).unwrap(), Value::Float64(1003.0));
    }

    #[test]
    fn scans_patch_unmerged_tails() {
        let e = LStoreEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..100 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.update_field(rel, 10, 1, &Value::Float64(0.0)).unwrap();
        let sum = crate::testing::planned_sum(&e, rel, 1);
        let expect: f64 = (0..100).map(|i| i as f64).sum::<f64>() - 10.0;
        assert!((sum - expect).abs() < 1e-9);
        // After merge, the compressed base alone serves the column and agrees.
        e.maintain().unwrap();
        assert_eq!(e.tail_len(rel).unwrap(), 0);
        assert!((crate::testing::planned_sum(&e, rel, 1) - expect).abs() < 1e-9);
    }

    #[test]
    fn merged_base_is_compressed() {
        let e = LStoreEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        // Low-cardinality column compresses well.
        for i in 0..3000i64 {
            e.insert(rel, &vec![Value::Int64(i % 4), Value::Float64(0.0), Value::Text("x".into())])
                .unwrap();
        }
        e.maintain().unwrap();
        e.rels
            .read(rel, |r| {
                let col = &r.columns[0];
                assert!(!col.base_blocks.is_empty(), "base must be block-compressed");
                let compressed: usize = col.base_blocks.iter().map(|b| b.compressed_bytes()).sum();
                let raw = col.compressed_rows as usize * col.width;
                assert!(compressed * 4 < raw, "{compressed} vs {raw}");
                Ok(())
            })
            .unwrap();
        assert_eq!(e.read_field(rel, 2999, 0).unwrap(), Value::Int64(3));
    }

    #[test]
    fn text_columns_merge_raw() {
        let e = LStoreEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..10 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.update_field(rel, 5, 2, &Value::Text("updated".into())).unwrap();
        e.maintain().unwrap();
        assert_eq!(e.read_field(rel, 5, 2).unwrap(), Value::Text("updated".into()));
        assert_eq!(e.read_field(rel, 6, 2).unwrap(), Value::Text("n6".into()));
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(LStoreEngine::new().classification(), survey::lstore());
    }
}
