//! # htapg-exec
//!
//! The execution layer: the operators and execution policies the paper's
//! Figure 2 experiment varies, and the physical-plan interpreter every
//! analytic query runs through.
//!
//! * [`pool`] — the persistent morsel-driven executor pool every parallel
//!   operator runs on (lazily started, `HTAPG_THREADS`-sized, deterministic
//!   morsel-order folds);
//! * [`threading`] — single-threaded vs multi-threaded execution with
//!   "blockwise partitioning of the input data (i.e., each thread operates
//!   on one exclusive and subsequent list of input positions)", scheduled
//!   as fixed-size morsels on the pool;
//! * [`scan`] — Figure 2's attribute-centric operators (a column sum, a sum
//!   at a sorted position list) over zero-copy [`htapg_core::ColumnView`]s;
//! * [`materialize`] — Figure 2's record-centric operator (the
//!   "materialize 150 customers" operation) over a sorted position list;
//! * [`device_exec`] — offload to the simulated GPU: column placement,
//!   resident-column caching, and the reduction-kernel sum (Figure 2's
//!   "column-store / device" series);
//! * [`physical`] — the physical-plan interpreter: executes the routed
//!   [`htapg_core::PhysicalPlan`]s produced by the cost-based planner,
//!   guaranteeing bit-identical results across the device-pipelined,
//!   host-pooled-morsel, inline-volcano and scatter routes through one
//!   segmented reduction;
//! * [`sharded`] — the N-node scatter-gather engine.

pub mod device_exec;
pub mod materialize;
pub mod physical;
pub mod pool;
pub mod scan;
pub mod sharded;
pub mod threading;

pub use physical::QueryOutput;
pub use sharded::ShardedEngine;
pub use threading::ThreadingPolicy;
