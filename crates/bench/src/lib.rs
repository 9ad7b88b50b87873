//! Experiment harnesses reproducing every figure and analytic claim of
//! *Adaptive Counting Networks* (Tirthapura, ICDCS 2005).
//!
//! Each `expNN_*` module regenerates one experiment from the index in
//! `DESIGN.md` §4 and prints a table; the `exp_*` binaries are thin
//! wrappers, and `exp_all` runs the full suite (this is what populated
//! `EXPERIMENTS.md`). The criterion benches under `benches/` measure the
//! throughput comparisons (experiment E11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp01_step_property;
pub mod exp02_depth_bound;
pub mod exp03_width_bound;
pub mod exp04_size_estimation;
pub mod exp05_level_estimates;
pub mod exp06_component_counts;
pub mod exp07_effective_dims;
pub mod exp08_figure3;
pub mod exp09_routing;
pub mod exp10_adaptivity;
pub mod exp11_motivation;
pub mod exp12_ablation_state;
pub mod exp13_ablation_wiring;
pub mod exp14_contention;
pub mod exp15_generality;
pub mod exp16_overlay;
pub mod exp17_reconfig_cost;
pub mod figures;
pub mod util;
