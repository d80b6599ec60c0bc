//! Plain single-layout baselines: pure row store (NSM), pure column store
//! (DSM single-vector), and emulated column store (one vector per
//! attribute). These are the "row-store" / "column-store" host series of
//! Figure 2 and the oracles the cross-engine equivalence tests compare
//! against.

use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::{
    AccessHint, AttrId, LayoutTemplate, Record, Relation, RelationId, Result, RowId, Schema, Value,
};
use htapg_taxonomy::{
    Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
    LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
};

use crate::common::Registry;

/// Which baseline layout a [`PlainEngine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlainKind {
    /// One fat NSM fragment (classic row store).
    RowStore,
    /// One fat DSM fragment (column blocks in a single vector).
    ColumnStore,
    /// One thin fragment per attribute (columns as distinct vectors).
    EmulatedColumnStore,
}

impl PlainKind {
    fn template(self, schema: &Schema) -> LayoutTemplate {
        match self {
            PlainKind::RowStore => LayoutTemplate::nsm(schema),
            PlainKind::ColumnStore => LayoutTemplate::dsm(schema),
            PlainKind::EmulatedColumnStore => LayoutTemplate::dsm_emulated(schema),
        }
    }

    fn linearization(self) -> FragmentLinearization {
        match self {
            PlainKind::RowStore => FragmentLinearization::FatNsmFixed,
            PlainKind::ColumnStore => FragmentLinearization::FatDsmFixed,
            PlainKind::EmulatedColumnStore => FragmentLinearization::ThinDsmEmulated,
        }
    }

    fn name(self) -> &'static str {
        match self {
            PlainKind::RowStore => "ROW-STORE",
            PlainKind::ColumnStore => "COLUMN-STORE",
            PlainKind::EmulatedColumnStore => "COLUMN-STORE-EMULATED",
        }
    }
}

/// A minimal, correct, single-layout engine.
pub struct PlainEngine {
    kind: PlainKind,
    rels: Registry<Relation>,
}

impl PlainEngine {
    pub fn new(kind: PlainKind) -> Self {
        PlainEngine { kind, rels: Registry::new() }
    }

    pub fn row_store() -> Self {
        Self::new(PlainKind::RowStore)
    }

    pub fn column_store() -> Self {
        Self::new(PlainKind::ColumnStore)
    }

    pub fn emulated_column_store() -> Self {
        Self::new(PlainKind::EmulatedColumnStore)
    }

    pub fn kind(&self) -> PlainKind {
        self.kind
    }
}

impl StorageEngine for PlainEngine {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn classification(&self) -> Classification {
        Classification {
            name: self.kind.name(),
            layout_handling: LayoutHandling::Single,
            layout_flexibility: match self.kind {
                PlainKind::EmulatedColumnStore => LayoutFlexibility::WeakFlexible,
                _ => LayoutFlexibility::Inflexible,
            },
            layout_adaptability: LayoutAdaptability::Static,
            data_location: DataLocation::host_only(),
            data_locality: DataLocality::Centralized,
            fragment_linearization: self.kind.linearization(),
            fragment_scheme: FragmentScheme::None,
            processor_support: ProcessorSupport::Cpu,
            workload_support: WorkloadSupport::Htap,
            year: 2017,
        }
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let template = self.kind.template(&schema);
        Ok(self.rels.add(Relation::new(schema, template)?))
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.rels.read(rel, |r| Ok(r.schema().clone()))
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        self.rels.write(rel, |r| r.insert(record))
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.rels.read(rel, |r| r.read_record(row))
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.rels.read(rel, |r| r.read_value(row, attr, AccessHint::RecordCentric))
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.rels.write(rel, |r| r.update_field(row, attr, value))
    }

    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.rels.read(rel, |r| r.with_aligned_blocks(attrs, &[], visit))
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.rels.read(rel, |r| Ok(r.row_count()))
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
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64), ("t", DataType::Text(4))])
    }

    fn crud(engine: &PlainEngine) {
        let rel = engine.create_relation(schema()).unwrap();
        for i in 0..200 {
            let row = engine
                .insert(
                    rel,
                    &vec![Value::Int64(i), Value::Float64(i as f64), Value::Text("x".into())],
                )
                .unwrap();
            assert_eq!(row, i as u64);
        }
        assert_eq!(engine.row_count(rel).unwrap(), 200);
        assert_eq!(engine.read_field(rel, 42, 0).unwrap(), Value::Int64(42));
        engine.update_field(rel, 42, 1, &Value::Float64(-1.0)).unwrap();
        let rec = engine.read_record(rel, 42).unwrap();
        assert_eq!(rec[1], Value::Float64(-1.0));
        let sum = crate::testing::planned_sum(engine, rel, 1);
        let expect: f64 = (0..200).map(|i| i as f64).sum::<f64>() - 42.0 - 1.0;
        assert!((sum - expect).abs() < 1e-9);
    }

    #[test]
    fn all_kinds_pass_crud() {
        crud(&PlainEngine::row_store());
        crud(&PlainEngine::column_store());
        crud(&PlainEngine::emulated_column_store());
    }

    #[test]
    fn fast_path_availability_by_kind() {
        for (engine, expect_fast) in [
            (PlainEngine::row_store(), false),
            (PlainEngine::column_store(), true),
            (PlainEngine::emulated_column_store(), true),
        ] {
            let rel = engine.create_relation(schema()).unwrap();
            engine
                .insert(rel, &vec![Value::Int64(1), Value::Float64(1.0), Value::Text("a".into())])
                .unwrap();
            // The layout decides contiguity; the block read serves every kind.
            let contiguous = engine.rels.read(rel, |r| {
                Ok(r.layouts()[0].column_views(1)?.iter().all(|v| v.is_contiguous()))
            });
            assert_eq!(contiguous.unwrap(), expect_fast, "{}", engine.name());
            assert_eq!(engine.column_evidence(rel, 1).unwrap().contiguous, expect_fast);
            let mut fields = Vec::new();
            assert!(engine
                .with_column_bytes(rel, 1, &mut |b| fields.extend_from_slice(b))
                .unwrap());
            assert_eq!(fields, 1.0f64.to_le_bytes(), "{}", engine.name());
        }
    }

    #[test]
    fn classifications_are_sane() {
        assert_eq!(
            PlainEngine::row_store().classification().fragment_linearization,
            FragmentLinearization::FatNsmFixed
        );
        assert_eq!(
            PlainEngine::emulated_column_store().classification().fragment_linearization,
            FragmentLinearization::ThinDsmEmulated
        );
    }

    #[test]
    fn multiple_relations() {
        let e = PlainEngine::row_store();
        let a = e.create_relation(schema()).unwrap();
        let b = e.create_relation(schema()).unwrap();
        e.insert(a, &vec![Value::Int64(1), Value::Float64(0.0), Value::Text("".into())]).unwrap();
        assert_eq!(e.row_count(a).unwrap(), 1);
        assert_eq!(e.row_count(b).unwrap(), 0);
        assert!(e.row_count(7).is_err());
    }
}
