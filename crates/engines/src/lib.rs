//! # htapg-engines
//!
//! Running implementations of every storage engine the paper surveys
//! (Table 1), plus the Section IV-C reference engine — all behind the
//! common [`htapg_core::engine::StorageEngine`] API, so Table 1 is
//! regenerated from code and the engines compare head-to-head on identical
//! workloads.
//!
//! | Module | Engine | Year | Key mechanism reproduced |
//! |---|---|---|---|
//! | [`plain`] | row/column baselines | — | NSM / DSM / DSM-emulated layouts (Figure 2 series) |
//! | [`pax`] | PAX | 2002 | page-level DSM minipages behind a buffer pool on `SimDisk` |
//! | [`mirrors`] | Fractured Mirrors | 2002 | NSM+DSM replicas, page striping across a disk array |
//! | [`hyrise`] | HYRISE | 2010 | variable-width containers, workload-responsive re-partitioning |
//! | [`es2`] | ES² | 2011 | co-access grouping + horizontal partitioning over `SimCluster`, distributed secondary index |
//! | [`gputx`] | GPUTx | 2011 | device-resident columns, bulk transaction batches on the simulated GPU |
//! | [`h2o`] | H₂O | 2014 | NSM partitions that shed hot scan columns, lazily adopted layouts |
//! | [`hyper`] | HyPer | 2015 | partitions → chunks → thin vectors, hot/cold compaction with compression |
//! | [`cogadb`] | CoGaDB | 2016 | all-or-nothing device column placement, HYPE-style learned operator placement |
//! | [`lstore`] | L-Store | 2016 | base/tail pages behind a page dictionary, lineage updates, historic reads, merges |
//! | [`peloton`] | Peloton | 2016 | tile groups with per-group NSM/DSM physical tiles, hot→cold layout migration |
//! | [`emulated`] | (Fig. 4 leaf) | — | multi-layout *emulated* by composing two single-layout engines |
//! | [`reference`][mod@reference] | (this paper, §IV-C) | 2017 | all six reference-design requirements in one engine |

pub mod cogadb;
pub mod common;
pub mod emulated;
pub mod es2;
pub mod gputx;
pub mod h2o;
pub mod hyper;
pub mod hyrise;
pub mod lstore;
pub mod mirrors;
pub mod pax;
pub mod peloton;
pub mod plain;
pub mod reference;

pub use cogadb::CogadbEngine;
pub use emulated::EmulatedMultiEngine;
pub use es2::Es2Engine;
pub use gputx::GputxEngine;
pub use h2o::H2oEngine;
pub use hyper::HyperEngine;
pub use hyrise::HyriseEngine;
pub use lstore::LStoreEngine;
pub use mirrors::MirrorsEngine;
pub use pax::PaxEngine;
pub use peloton::PelotonEngine;
pub use plain::PlainEngine;
pub use reference::ReferenceEngine;

use htapg_core::engine::StorageEngine;

#[cfg(test)]
pub(crate) mod testing {
    use htapg_core::engine::StorageEngine;
    use htapg_core::plan::LogicalPlan;
    use htapg_core::{AttrId, RelationId};
    use htapg_exec::physical;
    use htapg_exec::threading::ThreadingPolicy;

    /// `SUM(attr)` through the analytic front door: plan, then execute.
    pub(crate) fn planned_sum(engine: &dyn StorageEngine, rel: RelationId, attr: AttrId) -> f64 {
        let plan = engine.plan(&LogicalPlan::sum(rel, attr)).unwrap();
        physical::execute(engine, &plan, ThreadingPolicy::Single).unwrap().as_sum().unwrap()
    }
}

/// Instantiate every Table 1 engine with default configuration, in the
/// paper's order. (The reference engine is not part of Table 1 and is
/// created separately.)
pub fn all_surveyed_engines() -> Vec<Box<dyn StorageEngine>> {
    vec![
        Box::new(PaxEngine::new()),
        Box::new(MirrorsEngine::new()),
        Box::new(HyriseEngine::new()),
        Box::new(Es2Engine::new(4)),
        Box::new(GputxEngine::new()),
        Box::new(H2oEngine::new()),
        Box::new(HyperEngine::new()),
        Box::new(CogadbEngine::new()),
        Box::new(LStoreEngine::new()),
        Box::new(PelotonEngine::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_classify_exactly_as_table1() {
        let engines = all_surveyed_engines();
        let expected = htapg_taxonomy::survey::paper_table1();
        assert_eq!(engines.len(), expected.len());
        for (engine, row) in engines.iter().zip(&expected) {
            assert_eq!(&engine.classification(), row, "engine {}", engine.name());
        }
    }
}
