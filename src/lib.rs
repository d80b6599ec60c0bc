//! # htapg — HTAP storage engines for CPU/GPU systems
//!
//! A comprehensive reproduction of *Pinnecke, Broneske, Campero Durand,
//! Saake: "Are Databases Fit for Hybrid Workloads on GPUs? A Storage
//! Engine's Perspective", ICDE 2017* — the paper's terminology, taxonomy,
//! survey, micro-benchmarks, and its Section IV-C reference storage-engine
//! design, as running Rust code.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] ([`htapg_core`]) — fragments, layouts, linearization, fragment
//!   schemes, relations, compression, indexes, MVCC, the workload-adaptive
//!   layout advisor, and the common [`core::engine::StorageEngine`] API;
//! * [`taxonomy`] ([`htapg_taxonomy`]) — Figure 4 as types, Table 1 as data,
//!   and the reference-design checklist;
//! * [`device`] ([`htapg_device`]) — the simulated GPU, disk array, and
//!   shared-nothing cluster substrates;
//! * [`exec`] ([`htapg_exec`]) — bulk and Volcano processing models,
//!   threading policies, and device offload;
//! * [`engines`] ([`htapg_engines`]) — the ten surveyed storage-engine
//!   archetypes plus the reference HTAP CPU/GPU engine;
//! * [`workload`] ([`htapg_workload`]) — TPC-C-shaped generators and the
//!   HTAP driver.
//!
//! ## Quick start
//!
//! Analytics have one front door: plan a logical query, then execute the
//! plan. The router picks the host or the device; every route gives the
//! same bits as the Volcano oracle.
//!
//! ```
//! use htapg::core::engine::StorageEngine;
//! use htapg::core::plan::LogicalPlan;
//! use htapg::engines::ReferenceEngine;
//! use htapg::exec::{physical, ThreadingPolicy};
//! use htapg::workload::tpcc::{item_attr, item_schema, Generator};
//!
//! let engine = ReferenceEngine::new();
//! let rel = engine.create_relation(item_schema()).unwrap();
//! let gen = Generator::new(42);
//! for i in 0..1000 {
//!     engine.insert(rel, &gen.item(i)).unwrap();
//! }
//! let plan = engine.plan(&LogicalPlan::sum(rel, item_attr::I_PRICE)).unwrap();
//! let out = physical::execute(&engine, &plan, ThreadingPolicy::Single).unwrap();
//! let total = out.as_sum().unwrap();
//! assert!((total - gen.expected_item_price_sum(1000)).abs() < 1e-9);
//! let oracle = physical::volcano_sum(&engine, rel, item_attr::I_PRICE).unwrap();
//! assert_eq!(total.to_bits(), oracle.to_bits());
//! ```

pub use htapg_core as core;
pub use htapg_device as device;
pub use htapg_engines as engines;
pub use htapg_exec as exec;
pub use htapg_taxonomy as taxonomy;
pub use htapg_workload as workload;
