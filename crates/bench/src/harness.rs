//! The figure registry and its engine driver.
//!
//! Every paper figure/table is registered here as a [`FigureDef`]: a pure
//! function from ([`Scale`], results so far) to the [`RunSpec`]s it needs,
//! plus a renderer over the completed [`ResultSet`]. The driver loop
//! ([`collect`]) gathers specs from *all* requested figures each round,
//! hands them to one deduplicating [`Scheduler`], and repeats until no
//! figure wants anything more — so a spec shared by five figures runs
//! once, and figures whose spec set depends on earlier results (Figure 4
//! filters benchmarks by oracle coverage) simply declare their next wave
//! when the previous one is satisfied.

use std::io;
use std::path::Path;

use ltc_sim::engine::{EngineOptions, ResultSet, RunSpec, Scheduler};

use crate::figures::*;
use crate::scale::Scale;

/// One paper artifact: how to plan it and how to render it.
pub struct FigureDef {
    /// Registry name (`fig08`, `table3`, `ablations`, ...).
    pub name: &'static str,
    /// Human title printed above the table.
    pub title: &'static str,
    /// The specs this figure needs, given what has already been computed.
    /// Must be pure and monotone: with more results it may request more
    /// specs, never different ones.
    pub specs: fn(Scale, &ResultSet) -> Vec<RunSpec>,
    /// Renders the figure from a result set containing every requested
    /// spec.
    pub render: fn(Scale, &ResultSet) -> String,
}

/// Every figure and table of the paper, in presentation order.
pub fn registry() -> &'static [FigureDef] {
    &[
        FigureDef {
            name: "table1",
            title: "Table 1: system configuration",
            specs: |_, _| Vec::new(),
            render: |_, _| table1::render(),
        },
        FigureDef {
            name: "table2",
            title: "Table 2: benchmarks, base miss rates and IPCs",
            specs: table2::specs,
            render: |scale, rs| table2::render(&table2::rows(scale, rs)),
        },
        FigureDef {
            name: "fig02",
            title: "Figure 2: CDF of block dead times",
            specs: fig02::specs,
            render: |scale, rs| fig02::render(&fig02::dead_times(scale, rs)),
        },
        FigureDef {
            name: "fig04",
            title: "Figure 4: DBCP coverage vs on-chip table size",
            specs: fig04::specs,
            render: |scale, rs| fig04::render(&fig04::sensitivity(scale, rs)),
        },
        FigureDef {
            name: "fig06",
            title: "Figure 6: temporal correlation distance and sequence lengths",
            specs: fig06::specs,
            render: |scale, rs| fig06::render(&fig06::rows(scale, rs)),
        },
        FigureDef {
            name: "fig07",
            title: "Figure 7: last-touch to miss order distance",
            specs: fig07::specs,
            render: |scale, rs| fig07::render(&fig07::ordering(scale, rs)),
        },
        FigureDef {
            name: "fig08",
            title: "Figure 8: coverage and accuracy, LT-cords (A) vs unlimited DBCP (B)",
            specs: fig08::specs,
            render: |scale, rs| fig08::render(&fig08::rows(scale, rs)),
        },
        FigureDef {
            name: "fig09",
            title: "Figure 9: coverage vs signature cache size",
            specs: fig09::specs,
            render: |scale, rs| fig09::render(&fig09::sensitivity(scale, rs)),
        },
        FigureDef {
            name: "fig10",
            title: "Figure 10: coverage vs off-chip sequence storage",
            specs: fig10::specs,
            render: |scale, rs| fig10::render(&fig10::storage_demand(scale, rs)),
        },
        FigureDef {
            name: "fig11",
            title: "Figure 11: multi-programmed coverage",
            specs: fig11::specs,
            render: |scale, rs| fig11::render(&fig11::bars(scale, rs)),
        },
        FigureDef {
            name: "table3",
            title: "Table 3: percent speedup over the baseline processor",
            specs: table3::specs,
            render: |scale, rs| table3::render(&table3::rows(scale, rs)),
        },
        FigureDef {
            name: "fig12",
            title: "Figure 12: memory bus utilization breakdown",
            specs: fig12::specs,
            render: |scale, rs| fig12::render(&fig12::rows(scale, rs)),
        },
        FigureDef {
            name: "ablations",
            title: "Design-choice ablations (beyond the paper's figures)",
            specs: ablations::specs,
            render: |scale, rs| ablations::render(&ablations::points(scale, rs)),
        },
        FigureDef {
            name: "sketch",
            title: "Sketch budget sweep: SketchDbcp coverage vs exact DBCP",
            specs: sketch::specs,
            render: |scale, rs| sketch::render(&sketch::points(scale, rs)),
        },
        FigureDef {
            name: "merge",
            title: "Merge scaling sweep: segmented streaming vs single pass",
            specs: merge::specs,
            render: |scale, rs| merge::render(&merge::points(scale, rs)),
        },
    ]
}

/// Looks a figure up by registry name.
pub fn by_name(name: &str) -> Option<&'static FigureDef> {
    registry().iter().find(|f| f.name == name)
}

/// Upper bound on spec-declaration rounds; figures are at most two-stage
/// today (Figure 4), so hitting this means a `specs` fn is not monotone.
const MAX_ROUNDS: usize = 8;

/// Computes everything the given figures need, deduplicated across
/// figures, reusing (and refilling) the artifact cache in `opts`.
///
/// # Errors
///
/// Returns artifact-cache I/O errors.
///
/// # Panics
///
/// Panics if a figure keeps requesting new specs after `MAX_ROUNDS`
/// rounds (a broken `specs` implementation).
pub fn collect(
    figures: &[&FigureDef],
    scale: Scale,
    opts: &EngineOptions,
    results: &mut ResultSet,
) -> io::Result<()> {
    for _ in 0..MAX_ROUNDS {
        let sched = gather(figures, scale, results);
        if sched.unique().iter().all(|s| results.contains(s)) {
            return Ok(());
        }
        sched.execute_into(results, opts)?;
    }
    panic!("figure spec sets did not converge after {MAX_ROUNDS} rounds");
}

/// Loads everything the given figures need from the artifact cache
/// without simulating. Returns the specs that are not cached (empty means
/// the figures are fully renderable).
///
/// # Errors
///
/// Returns artifact-cache I/O errors.
pub fn load_cached(
    figures: &[&FigureDef],
    scale: Scale,
    dir: &Path,
    results: &mut ResultSet,
) -> io::Result<Vec<RunSpec>> {
    for _ in 0..MAX_ROUNDS {
        let sched = gather(figures, scale, results);
        let missing = sched.load_into(results, dir)?;
        if !missing.is_empty() {
            return Ok(missing);
        }
        // Everything declared so far is cached; stop once satisfying it
        // declared nothing further.
        if gather(figures, scale, results).unique().iter().all(|s| results.contains(s)) {
            return Ok(Vec::new());
        }
    }
    panic!("figure spec sets did not converge after {MAX_ROUNDS} rounds");
}

/// One scheduler holding every requested figure's current spec set.
fn gather(figures: &[&FigureDef], scale: Scale, results: &ResultSet) -> Scheduler {
    let mut sched = Scheduler::new();
    for f in figures {
        sched.request_all((f.specs)(scale, results));
    }
    sched
}

/// The deduplicated first-round plan for the given figures (what
/// `ltsim plan` prints). Later rounds may add result-dependent specs.
pub fn plan(figures: &[&FigureDef], scale: Scale) -> Vec<RunSpec> {
    gather(figures, scale, &ResultSet::new()).unique()
}

/// Computes a single figure in memory at the given scale (test
/// convenience; no cache, one worker per core).
///
/// # Panics
///
/// Panics if the figure's benchmarks are unknown (suite authoring bug).
pub fn compute(def: &FigureDef, scale: Scale) -> ResultSet {
    let mut results = ResultSet::new();
    collect(&[def], scale, &EngineOptions::default(), &mut results)
        .expect("in-memory execution cannot hit I/O errors");
    results
}

/// Entry point shared by the per-figure binaries: runs one figure through
/// the engine and prints its table.
///
/// Flags: `--quick` (reduced scale), `--out DIR` (artifact cache),
/// `--force` (ignore cached artifacts), `--threads N` (one worker per
/// core by default).
///
/// # Panics
///
/// Panics if `name` is not registered or the cache directory is unusable.
pub fn figure_main(name: &str) {
    let def = by_name(name).unwrap_or_else(|| panic!("unregistered figure {name}"));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, opts) = match parse_figure_flags(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: {name} [--quick] [--out DIR] [--force] [--threads N]");
            std::process::exit(2);
        }
    };
    let mut results = ResultSet::new();
    println!("{}\n", def.title);
    collect(&[def], scale, &opts, &mut results).expect("artifact cache I/O failed");
    print!("{}", (def.render)(scale, &results));
    eprintln!("\nengine: {} simulated, {} from cache", results.simulated(), results.cache_hits());
}

/// Parses the figure binaries' shared flags, rejecting unknown flags and
/// malformed values (a typo must not silently fall back to a full-scale
/// uncached run).
fn parse_figure_flags(args: &[String]) -> Result<(Scale, EngineOptions), String> {
    let scale = if args.iter().any(|a| a == "--quick") { Scale::quick() } else { Scale::full() };
    let mut opts = EngineOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {}
            "--out" => {
                opts.cache_dir = Some(it.next().ok_or("--out needs a directory")?.into());
            }
            "--force" => opts.force = true,
            "--threads" => {
                let raw = it.next().ok_or("--threads needs a positive number")?;
                opts.threads = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--threads needs a positive number, got `{raw}`"))?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((scale, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = registry().iter().map(|f| f.name).collect();
        for name in &names {
            assert!(by_name(name).is_some());
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate figure names");
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn shared_specs_dedupe_across_figures() {
        // Table 2 (baseline timing) is a strict subset of Table 3's grid:
        // requesting both must not grow the unique set beyond Table 3's.
        let scale = Scale::bench();
        let t3 = by_name("table3").unwrap();
        let t2 = by_name("table2").unwrap();
        let both = plan(&[t2, t3], scale);
        let alone = plan(&[t3], scale);
        assert_eq!(both.len(), alone.len(), "table2 must ride along for free");
    }
}
