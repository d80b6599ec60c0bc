//! Emulated multi-layout handling — the remaining leaf of Figure 4's
//! "Layout Handling" axis: "Storage engines can emulate a multi-layout
//! property for a relation R by holding relations R1, R2, …, Rn under the
//! same name, but relations in R have pair-wise different fragments (e.g.,
//! different storage models, or data locations) following a data
//! replication strategy." (Section III)
//!
//! [`EmulatedMultiEngine`] wraps two *single-layout* inner engines (by
//! default a row store and an emulated column store) and keeps them in
//! lock-step under one relation name: writes fan out to both, reads route
//! by access pattern. Unlike built-in multi-layout engines, the inner
//! engines know nothing about each other — the multi-layout property lives
//! entirely in the wrapper, which is exactly what "emulated" means.

use htapg_core::engine::{MaintenanceReport, StorageEngine};
use htapg_core::{AttrId, Record, RelationId, Result, RowId, Schema, Value};
use htapg_taxonomy::{
    Classification, DataLocality, DataLocation, FragmentLinearization, FragmentScheme,
    LayoutAdaptability, LayoutFlexibility, LayoutHandling, ProcessorSupport, WorkloadSupport,
};

use crate::plain::PlainEngine;

/// Two single-layout engines behind one name.
pub struct EmulatedMultiEngine {
    /// Serves record-centric reads.
    row_side: Box<dyn StorageEngine>,
    /// Serves attribute-centric scans.
    column_side: Box<dyn StorageEngine>,
}

impl Default for EmulatedMultiEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl EmulatedMultiEngine {
    pub fn new() -> Self {
        EmulatedMultiEngine {
            row_side: Box::new(PlainEngine::row_store()),
            column_side: Box::new(PlainEngine::emulated_column_store()),
        }
    }

    /// Wrap two arbitrary engines (they must assign identical row ids).
    pub fn wrapping(row_side: Box<dyn StorageEngine>, column_side: Box<dyn StorageEngine>) -> Self {
        EmulatedMultiEngine { row_side, column_side }
    }
}

impl StorageEngine for EmulatedMultiEngine {
    fn name(&self) -> &'static str {
        "EMULATED-MULTI"
    }

    fn classification(&self) -> Classification {
        Classification {
            name: "EMULATED-MULTI",
            layout_handling: LayoutHandling::MultiEmulated,
            layout_flexibility: LayoutFlexibility::Inflexible,
            layout_adaptability: LayoutAdaptability::Static,
            data_location: DataLocation::host_only(),
            data_locality: DataLocality::Centralized,
            // One NSM replica + one DSM-emulated replica, like Fractured
            // Mirrors in spirit but via composition rather than built-in
            // support.
            fragment_linearization: FragmentLinearization::FatNsmPlusDsmFixed,
            fragment_scheme: FragmentScheme::ReplicationBased,
            processor_support: ProcessorSupport::Cpu,
            workload_support: WorkloadSupport::Htap,
            year: 2017,
        }
    }

    fn create_relation(&self, schema: Schema) -> Result<RelationId> {
        let a = self.row_side.create_relation(schema.clone())?;
        let b = self.column_side.create_relation(schema)?;
        debug_assert_eq!(a, b, "inner engines must assign aligned relation ids");
        Ok(a)
    }

    fn schema(&self, rel: RelationId) -> Result<Schema> {
        self.row_side.schema(rel)
    }

    fn insert(&self, rel: RelationId, record: &Record) -> Result<RowId> {
        let row = self.row_side.insert(rel, record)?;
        let row2 = self.column_side.insert(rel, record)?;
        debug_assert_eq!(row, row2, "replicas out of sync");
        Ok(row)
    }

    fn read_record(&self, rel: RelationId, row: RowId) -> Result<Record> {
        self.row_side.read_record(rel, row)
    }

    fn read_field(&self, rel: RelationId, row: RowId, attr: AttrId) -> Result<Value> {
        self.row_side.read_field(rel, row, attr)
    }

    fn update_field(&self, rel: RelationId, row: RowId, attr: AttrId, value: &Value) -> Result<()> {
        self.row_side.update_field(rel, row, attr, value)?;
        self.column_side.update_field(rel, row, attr, value)
    }

    fn with_aligned_blocks(
        &self,
        rel: RelationId,
        attrs: &[AttrId],
        visit: &mut dyn FnMut(&[&[u8]]),
    ) -> Result<()> {
        self.column_side.with_aligned_blocks(rel, attrs, visit)
    }

    fn row_count(&self, rel: RelationId) -> Result<u64> {
        self.row_side.row_count(rel)
    }

    fn maintain(&self) -> Result<MaintenanceReport> {
        let a = self.row_side.maintain()?;
        let b = self.column_side.maintain()?;
        Ok(MaintenanceReport {
            layouts_reorganized: a.layouts_reorganized + b.layouts_reorganized,
            merges: a.merges + b.merges,
            versions_pruned: a.versions_pruned + b.versions_pruned,
            fragments_moved: a.fragments_moved + b.fragments_moved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htapg_core::DataType;

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Float64)])
    }

    #[test]
    fn replicas_stay_in_lock_step() {
        let e = EmulatedMultiEngine::new();
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..100 {
            e.insert(rel, &vec![Value::Int64(i), Value::Float64(i as f64)]).unwrap();
        }
        e.update_field(rel, 7, 1, &Value::Float64(-7.0)).unwrap();
        // The record read (row side) and the scan (column side) agree.
        assert_eq!(e.read_record(rel, 7).unwrap()[1], Value::Float64(-7.0));
        let sum = crate::testing::planned_sum(&e, rel, 1);
        let expect = (0..100).map(|i| i as f64).sum::<f64>() - 14.0;
        assert!((sum - expect).abs() < 1e-9);
        // Scans read the column side's blocks; record reads the row layout.
        assert!(e.with_column_bytes(rel, 1, &mut |_| ()).unwrap());
    }

    #[test]
    fn classification_is_the_emulated_leaf() {
        let c = EmulatedMultiEngine::new().classification();
        assert_eq!(c.layout_handling, LayoutHandling::MultiEmulated);
        assert_eq!(c.fragment_scheme, FragmentScheme::ReplicationBased);
        // No surveyed Table 1 engine occupies this leaf — the wrapper
        // completes the Figure 4 coverage.
        for row in htapg_taxonomy::survey::paper_table1() {
            assert_ne!(row.layout_handling, LayoutHandling::MultiEmulated);
        }
    }

    #[test]
    fn composes_with_other_engine_types() {
        // Wrap HyPer (column side) with a plain row store.
        let e = EmulatedMultiEngine::wrapping(
            Box::new(PlainEngine::row_store()),
            Box::new(crate::HyperEngine::with_chunk_rows(16)),
        );
        let rel = e.create_relation(schema()).unwrap();
        for i in 0..50 {
            e.insert(rel, &vec![Value::Int64(i), Value::Float64(1.0)]).unwrap();
        }
        e.maintain().unwrap();
        assert_eq!(crate::testing::planned_sum(&e, rel, 1), 50.0);
        assert_eq!(e.read_record(rel, 49).unwrap()[0], Value::Int64(49));
    }
}
