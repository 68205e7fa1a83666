//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each module in [`figures`] declares the [`ltc_sim::engine::RunSpec`]s
//! one paper table or figure needs and renders the rows from the engine's
//! [`ltc_sim::engine::ResultSet`]; [`harness`] registers them all and
//! drives the deduplicating scheduler across whichever figures are
//! requested. The `ltsim` CLI (`src/bin/ltsim.rs`) prints them: `ltsim
//! run --figures NAME` computes and prints one figure or table, and its
//! `plan`/`render` subcommands show the plan or re-render cached results.
//!
//! This crate times nothing: the repository's one benchmark harness is
//! `perfbench/` (see `BENCHMARK.json` and `perfbench/README.md`).
//!
//! Absolute numbers differ from the paper (the substrate is a synthetic
//! trace simulator, not SimpleScalar/Alpha on SPEC2000 — see DESIGN.md §1);
//! the *shape* — who wins, by what factor, where crossovers fall — is the
//! reproduction target, recorded in EXPERIMENTS.md.

pub mod events;
pub mod figures;
pub mod harness;
pub mod scale;

pub use harness::FigureDef;
pub use scale::Scale;
