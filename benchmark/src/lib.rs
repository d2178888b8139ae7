//! Mission-level benchmark of the Earth+ reproduction.
//!
//! Four workloads replay pre-rendered inputs through the crates' public
//! functions only, check the outputs, and report twelve end-to-end
//! metrics plus a per-layer ledger measured from outside the crates. See
//! `README.md` beside this package for every workload, metric and bound.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec_stream;
pub mod ground_backfill;
pub mod json;
pub mod metrics;
pub mod mission;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod store;
pub mod tape;
pub mod workload;
