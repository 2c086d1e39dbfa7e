//! Experiment harness for reproducing every table and figure in the
//! paper's evaluation (§4), plus the ablation studies DESIGN.md calls out.
//!
//! Each `fig*`/`table*` function regenerates one artifact and returns a
//! displayable report; the `repro` binary dispatches on experiment id and
//! writes CSV series under `results/`. See EXPERIMENTS.md for the
//! paper-vs-measured record.

pub mod experiments;
pub mod report;

pub use experiments::*;
