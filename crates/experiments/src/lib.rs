//! Experiment harness reproducing every table and figure of the PIECK paper.
//!
//! The stack, bottom up:
//!
//! - [`scenario`] — one grid cell: dataset × model × attack × defense ×
//!   hyper-parameters, driven by a [`scenario::ScenarioRun`] into a
//!   [`scenario::ScenarioOutcome`]. Suite cells, `paper serve` and the
//!   bespoke commands share that one driver.
//!   Attacks and defenses are both referenced by catalog name plus a
//!   canonical params payload ([`frs_attacks::AttackSel`], e.g.
//!   `pieck-uea:scale=2`; [`frs_defense::DefenseSel`], e.g. `ours:beta=0.9`)
//!   — so a scenario is plain data, and every attack and defense, the
//!   paper's own included, builds through the same catalog path.
//! - [`suite`] — the declarative layer: a [`suite::Sweep`] names its axes
//!   (`Sweep::over_attacks(..).over_defenses(..).over_models(..)`), an
//!   [`suite::ExperimentSuite`] groups sweeps, expands them into a scenario
//!   grid, runs cells in parallel (bit-identical to sequential), and renders
//!   a unified [`report::Report`].
//! - [`report`] — Markdown / CSV / JSON sinks over titled table sections.
//! - [`cache`] — content-addressed suite cache: outcomes persist under a
//!   SHA-256 of the canonical scenario JSON, so overlapping or repeated
//!   grids replay instead of recomputing (`--cache-dir`, `--resume`).
//! - [`progress`] — streaming run layer: one JSONL event per finished cell
//!   (`--progress run.jsonl`), making long sweeps observable mid-flight and
//!   abortable/resumable.
//! - [`paper`] — one declaration per paper table/figure, consumed by the
//!   single `paper` CLI binary (`paper table4 --scale 0.25`, `paper all
//!   --json out/`).
//!
//! Scale control: everything accepts `--scale f` (shrinking the dataset
//! presets while preserving their long-tail shape) and `--rounds n`, so the
//! full grid runs in CI minutes, while `--scale 1.0` reproduces paper-scale
//! workloads.

pub mod cache;
pub mod cli;
pub mod paper;
pub mod presets;
pub mod progress;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod shutdown;
pub mod suite;

pub use cache::{
    scenario_key, CacheStats, DoomedFile, GcOutcome, SuiteCache, CACHE_SCHEMA_VERSION,
};
pub use cli::CommonArgs;
pub use presets::{paper_scenario, scale_scenario, PaperDataset};
pub use progress::{CellEvent, JsonlSink, MemorySink, ProgressSink, SuiteAborted};
pub use report::{Report, ReportFormat, Table};
pub use scenario::{
    run, CheckpointCtl, Interrupted, ScenarioCheckpoint, ScenarioConfig, ScenarioOutcome,
    ScenarioRun,
};
pub use serve::{
    serve_scenarios, ScenarioServeSummary, ServeOptions, ServeScenarioSpec, ServeSummary,
};
pub use suite::{
    Axis, Cell, CellResult, ConfigPatch, ExecOptions, ExperimentSuite, RunOptions, SuiteResult,
    Sweep, SweepResult,
};
