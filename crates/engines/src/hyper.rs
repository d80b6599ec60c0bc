//! HyPer's renewed storage engine (Funke et al.; surveyed 2015): "a
//! relation is physically organized by a hierarchy of partitions, chunks
//! and vectors. ... A resulting sub-relation is further split into
//! horizontal (inner) fragments (called chunks). ... a chunk in a
//! sub-relation is organized as a set of vectors. Each vector represents
//! exactly one attribute ... Thus, a vector in HYPER is a thin fragment."
//! (Section IV-B2)
//!
//! Chunks start *hot* (uncompressed thin vectors, update-friendly);
//! [`StorageEngine::maintain`] *compacts* full chunks that saw no recent
//! updates into *cold* (compressed) form — Funke et al.'s
//! "Compacting Transactional Data in Hybrid OLTP&OLAP Databases".
//! Updating a cold chunk un-freezes it (decompress → modify → recompress),
//! which is deliberately expensive.

use htapg_core::compress::{self, Compressed};
use htapg_core::engine::{visit_views, MaintenanceReport, StorageEngine};
use htapg_core::{
    AttrId, ColumnView, Error, Fragment, FragmentSpec, Linearization, Record, RelationId, Result,
    RowId, Schema, Value,
};
use htapg_taxonomy::{survey, Classification};

use crate::common::Registry;

/// Default chunk capacity (rows per chunk).
pub const DEFAULT_CHUNK_ROWS: u64 = 4096;

/// One cold (compressed) column of a chunk.
enum ColdColumn {
    /// Fixed-width ≤ 8 B fields packed into u64s and codec-compressed.
    Packed(Compressed),
    /// Wider fields (fixed-width text) kept as raw bytes.
    Raw(Vec<u8>),
}

enum Chunk {
    Hot { vectors: Vec<Fragment>, updates_since_maintain: u64 },
    Cold { columns: Vec<ColdColumn>, len: u64 },
}

struct HyperRelation {
    schema: Schema,
    chunk_rows: u64,
    chunks: Vec<Chunk>,
    rows: u64,
}

fn field_to_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

fn u64_to_field(v: u64, width: usize) -> Vec<u8> {
    v.to_le_bytes()[..width].to_vec()
}

impl HyperRelation {
    fn vector_spec(&self, chunk: u64, attr: AttrId) -> FragmentSpec {
        FragmentSpec {
            first_row: chunk * self.chunk_rows,
            capacity: self.chunk_rows,
            attrs: vec![attr],
            order: Linearization::Direct,
        }
    }

    fn new_hot_chunk(&self, chunk: u64) -> Result<Chunk> {
        let mut vectors = Vec::with_capacity(self.schema.arity());
        for a in self.schema.attr_ids() {
            vectors.push(Fragment::new(&self.schema, self.vector_spec(chunk, a))?);
        }
        Ok(Chunk::Hot { vectors, updates_since_maintain: 0 })
    }

    fn chunk_of(&self, row: RowId) -> usize {
        (row / self.chunk_rows) as usize
    }

    fn chunk_len(&self, idx: usize) -> u64 {
        match &self.chunks[idx] {
            Chunk::Hot { vectors, .. } => vectors[0].len(),
            Chunk::Cold { len, .. } => *len,
        }
    }

    /// Freeze a hot chunk into compressed cold form.
    fn freeze(&mut self, idx: usize) -> Result<()> {
        let chunk = &self.chunks[idx];
        let vectors = match chunk {
            Chunk::Hot { vectors, .. } => vectors,
            Chunk::Cold { .. } => return Ok(()),
        };
        let len = vectors[0].len();
        let mut columns = Vec::with_capacity(vectors.len());
        for (a, v) in vectors.iter().enumerate() {
            let width = self.schema.width(a as AttrId)?;
            let view = v.column_view(a as AttrId)?;
            if width <= 8 {
                let mut packed = Vec::with_capacity(len as usize);
                for i in 0..len as usize {
                    packed.push(field_to_u64(view.field(i)));
                }
                columns.push(ColdColumn::Packed(compress::auto_encode(&packed)));
            } else {
                let mut raw = Vec::with_capacity(len as usize * width);
                for i in 0..len as usize {
                    raw.extend_from_slice(view.field(i));
                }
                columns.push(ColdColumn::Raw(raw));
            }
        }
        self.chunks[idx] = Chunk::Cold { columns, len };
        Ok(())
    }

    /// Un-freeze a cold chunk back to hot vectors (update path).
    fn thaw(&mut self, idx: usize) -> Result<()> {
        let (columns, len) = match &self.chunks[idx] {
            Chunk::Cold { columns, len } => (columns, *len),
            Chunk::Hot { .. } => return Ok(()),
        };
        let first_row = idx as u64 * self.chunk_rows;
        let mut vectors = Vec::with_capacity(columns.len());
        for (a, col) in columns.iter().enumerate() {
            let width = self.schema.width(a as AttrId)?;
            let ty = self.schema.ty(a as AttrId)?;
            let spec = FragmentSpec {
                first_row,
                capacity: self.chunk_rows,
                attrs: vec![a as AttrId],
                order: Linearization::Direct,
            };
            let mut frag = Fragment::new(&self.schema, spec)?;
            match col {
                ColdColumn::Packed(block) => {
                    let values = compress::decode(block)?;
                    for v in values {
                        frag.append(&self.schema, &[Value::decode(ty, &u64_to_field(v, width))])?;
                    }
                }
                ColdColumn::Raw(bytes) => {
                    for i in 0..len as usize {
                        frag.append(
                            &self.schema,
                            &[Value::decode(ty, &bytes[i * width..(i + 1) * width])],
                        )?;
                    }
                }
            }
            vectors.push(frag);
        }
        self.chunks[idx] = Chunk::Hot { vectors, updates_since_maintain: 1 };
        Ok(())
    }

    fn read_field(&self, row: RowId, attr: AttrId) -> Result<Value> {
        let idx = self.chunk_of(row);
        let ty = self.schema.ty(attr)?;
        let width = self.schema.width(attr)?;
        match &self.chunks[idx] {
            Chunk::Hot { vectors, .. } => {
                vectors[attr as usize].read_value(&self.schema, row, attr)
            }
            Chunk::Cold { columns, .. } => {
                let local = (row - idx as u64 * self.chunk_rows) as usize;
                match &columns[attr as usize] {
                    ColdColumn::Packed(block) => {
                        let values = compress::decode(block)?;
                        let v = values.get(local).ok_or(Error::UnknownRow(row))?;
                        Ok(Value::decode(ty, &u64_to_field(*v, width)))
                    }
                    ColdColumn::Raw(bytes) => {
                        Ok(Value::decode(ty, &bytes[local * width..(local + 1) * width]))
                    }
                }
            }
        }
    }
}

/// The HyPer-style engine: chunked thin vectors with hot/cold compaction.
pub struct HyperEngine {
    rels: Registry<HyperRelation>,
    chunk_rows: u64,
}

impl Default for HyperEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl HyperEngine {
    pub fn new() -> Self {
        Self::with_chunk_rows(DEFAULT_CHUNK_ROWS)
    }

    pub fn with_chunk_rows(chunk_rows: u64) -> Self {
        HyperEngine { rels: Registry::new(), chunk_rows: chunk_rows.max(2) }
    }

    /// Number of cold (compressed) chunks of a relation.
    pub fn cold_chunks(&self, rel: RelationId) -> Result<usize> {
        self.rels
            .read(rel, |r| Ok(r.chunks.iter().filter(|c| matches!(c, Chunk::Cold { .. })).count()))
    }

    /// Compressed vs raw footprint of cold data (compression ablation).
    pub fn cold_footprint(&self, rel: RelationId) -> Result<(usize, usize)> {
        self.rels.read(rel, |r| {
            let mut compressed = 0usize;
            let mut raw = 0usize;
            for c in &r.chunks {
                if let Chunk::Cold { columns, len } = c {
                    for (a, col) in columns.iter().enumerate() {
                        let width = r.schema.width(a as AttrId)?;
                        raw += *len as usize * width;
                        compressed += match col {
                            ColdColumn::Packed(b) => b.compressed_bytes(),
                            ColdColumn::Raw(b) => b.len(),
                        };
                    }
                }
            }
            Ok((compressed, raw))
        })
    }
}

impl StorageEngine for HyperEngine {
    fn name(&self) -> &'static str {
        "HYPER"
    }

    fn classification(&self) -> Classification {
        survey::hyper()
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        Ok(self.rels.add(HyperRelation {
            schema,
            chunk_rows: self.chunk_rows,
            chunks: Vec::new(),
            rows: 0,
        }))
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.schema.clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.rels.write(rel, |r| {
            r.schema.check_record(record)?;
            let chunk_idx = (r.rows / r.chunk_rows) as usize;
            if chunk_idx == r.chunks.len() {
                let c = r.new_hot_chunk(chunk_idx as u64)?;
                r.chunks.push(c);
            }
            let row = r.rows;
            let schema = r.schema.clone();
            match &mut r.chunks[chunk_idx] {
                Chunk::Hot { vectors, .. } => {
                    for (a, v) in record.iter().enumerate() {
                        vectors[a].append(&schema, std::slice::from_ref(v))?;
                    }
                }
                Chunk::Cold { .. } => {
                    return Err(Error::Internal("append chunk can never be cold".into()))
                }
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
            (0..r.schema.arity()).map(|a| r.read_field(row, a as AttrId)).collect()
        })
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            r.schema.attr(attr)?;
            r.read_field(row, attr)
        })
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.rels.write(rel, |r| {
            if row >= r.rows {
                return Err(Error::UnknownRow(row));
            }
            r.schema.attr(attr)?;
            let idx = r.chunk_of(row);
            // Updates to cold chunks un-freeze them first.
            r.thaw(idx)?;
            let schema = r.schema.clone();
            match &mut r.chunks[idx] {
                Chunk::Hot { vectors, updates_since_maintain } => {
                    *updates_since_maintain += 1;
                    vectors[attr as usize].write_value(&schema, row, attr, value)
                }
                Chunk::Cold { .. } => unreachable!("thawed above"),
            }
        })
    }

    /// Chunks in row order, one visit each: a hot chunk's vectors served
    /// in place, a cold chunk's columns decoded into scratch.
    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| {
            let widths = attrs.iter().map(|&a| r.schema.width(a)).collect::<Result<Vec<_>>>()?;
            let (mut cold, mut bufs) = (vec![Vec::new(); attrs.len()], Vec::new());
            for (ci, chunk) in r.chunks.iter().enumerate() {
                let views = match chunk {
                    Chunk::Hot { vectors, .. } => attrs
                        .iter()
                        .map(|&a| vectors[a as usize].column_view(a))
                        .collect::<Result<Vec<_>>>()?,
                    Chunk::Cold { columns, len } => {
                        for ((&a, &width), out) in attrs.iter().zip(&widths).zip(&mut cold) {
                            if let ColdColumn::Packed(block) = &columns[a as usize] {
                                let values = compress::decode(block)?;
                                out.resize(values.len() * width, 0);
                                for (field, v) in out.chunks_exact_mut(width).zip(values) {
                                    field.copy_from_slice(&v.to_le_bytes()[..width]);
                                }
                            }
                        }
                        let first_row = ci as u64 * r.chunk_rows;
                        let views = attrs.iter().zip(&widths).zip(&cold);
                        views
                            .map(|((&a, &width), decoded)| {
                                let data = match &columns[a as usize] {
                                    ColdColumn::Packed(_) => decoded.as_slice(),
                                    ColdColumn::Raw(bytes) => bytes.as_slice(),
                                };
                                let rows = *len;
                                ColumnView {
                                    data,
                                    offset: 0,
                                    stride: width,
                                    width,
                                    rows,
                                    first_row,
                                }
                            })
                            .collect()
                    }
                };
                visit_views(&views, &mut bufs, visit);
            }
            Ok(())
        })
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.rows))
    }

    /// Compaction: freeze every *full* hot chunk that saw no updates since
    /// the previous maintenance pass.
    fn maintain(&self) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        for handle in self.rels.all() {
            let mut r = handle.write();
            let n_chunks = r.chunks.len();
            for idx in 0..n_chunks {
                let full = r.chunk_len(idx) == r.chunk_rows;
                let quiet = match &mut r.chunks[idx] {
                    Chunk::Hot { updates_since_maintain, .. } => {
                        let q = *updates_since_maintain == 0;
                        *updates_since_maintain = 0;
                        q
                    }
                    Chunk::Cold { .. } => continue,
                };
                if full && quiet {
                    r.freeze(idx)?;
                    report.merges += 1;
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
            ("price", DataType::Float64),
            ("tag", DataType::Text(12)),
        ])
    }

    fn rec(i: i64) -> Record {
        vec![Value::Int64(i), Value::Float64((i % 100) as f64), Value::Text(format!("t{}", i % 5))]
    }

    #[test]
    fn crud_across_chunks() {
        let e = HyperEngine::with_chunk_rows(16);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..100 {
            e.insert(rel, &rec(i)).unwrap();
        }
        assert_eq!(e.read_record(rel, 99).unwrap(), rec(99));
        e.update_field(rel, 50, 1, &Value::Float64(-3.0)).unwrap();
        assert_eq!(e.read_field(rel, 50, 1).unwrap(), Value::Float64(-3.0));
    }

    #[test]
    fn maintain_freezes_quiet_full_chunks_only() {
        let e = HyperEngine::with_chunk_rows(16);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..40 {
            e.insert(rel, &rec(i)).unwrap();
        }
        // Freshly filled chunks are quiet (inserts are not updates), so a
        // single pass freezes them. Chunks: [0..16), [16..32) full; open tail.
        let report = e.maintain().unwrap();
        assert_eq!(report.merges, 2);
        assert_eq!(e.cold_chunks(rel).unwrap(), 2);
        // Reads still correct from cold chunks.
        assert_eq!(e.read_record(rel, 3).unwrap(), rec(3));
        assert_eq!(e.read_record(rel, 20).unwrap(), rec(20));
        let sum = crate::testing::planned_sum(&e, rel, 1);
        assert_eq!(sum, (0..40).map(|i| (i % 100) as f64).sum::<f64>());
    }

    #[test]
    fn updates_unfreeze_cold_chunks() {
        let e = HyperEngine::with_chunk_rows(8);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..16 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(e.cold_chunks(rel).unwrap(), 2);
        e.update_field(rel, 2, 1, &Value::Float64(77.0)).unwrap();
        assert_eq!(e.cold_chunks(rel).unwrap(), 1, "updated chunk thawed");
        assert_eq!(e.read_field(rel, 2, 1).unwrap(), Value::Float64(77.0));
        // The thawed chunk is dirty; one quiet cycle later it refreezes.
        e.maintain().unwrap();
        let r = e.maintain().unwrap();
        assert_eq!(r.merges, 1);
        assert_eq!(e.cold_chunks(rel).unwrap(), 2);
        assert_eq!(e.read_field(rel, 2, 1).unwrap(), Value::Float64(77.0));
    }

    #[test]
    fn compression_actually_shrinks_cold_data() {
        let e = HyperEngine::with_chunk_rows(512);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..2048 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.maintain().unwrap();
        let (compressed, raw) = e.cold_footprint(rel).unwrap();
        assert!(compressed > 0);
        assert!((compressed as f64) < raw as f64 * 0.8, "compressed {compressed} vs raw {raw}");
    }

    #[test]
    fn fast_path_spans_hot_and_cold() {
        let e = HyperEngine::with_chunk_rows(16);
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..40 {
            e.insert(rel, &rec(i)).unwrap();
        }
        e.maintain().unwrap();
        let mut blocks = 0;
        assert!(e.with_column_bytes(rel, 1, &mut |_| blocks += 1).unwrap());
        assert_eq!(blocks, 3, "two cold chunks + one hot");
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(HyperEngine::new().classification(), survey::hyper());
    }
}
