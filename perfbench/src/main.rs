//! `perfbench`: the binary behind `perfbench/run.py`, the repository's
//! end-to-end benchmark.
//!
//! * `perfbench e2e` makes one cold run of a workload through the
//!   experiment engine the way `ltsim run` and `ltsim stream` drive it
//!   (the same telemetry subscribers, no event log) and reports when the
//!   first spec started, which artifacts the run persisted, and the
//!   headline modelled numbers. `--spans` also folds the run's spec spans
//!   into engine-layer figures; `--setup-only` ends the process the
//!   moment the first spec starts.
//! * `perfbench layers` is the per-crate half of the traced run: it times
//!   calls into each crate's public functions on traces generated into
//!   memory, one layer at a time.
//!
//! Both print one JSON object as the last line of standard output.

mod e2e;
mod layers;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use workload::{Scale, Workload};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("e2e") => Args::parse(&argv[1..]).and_then(|args| e2e::run(&args)),
        Some("layers") => Args::parse(&argv[1..]).and_then(|args| layers::run(&args)),
        _ => Err("usage: perfbench <e2e|layers> --workload NAME [--seed N] \
                  [--scale full|sample|tiny] [--threads N] [--ltsim PATH] [--out DIR] \
                  [--backend threads|subprocess] [--spans] [--setup-only]"
            .to_string()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Flags shared by the subcommands.
pub struct Args {
    pub workload: Workload,
    /// Trace seed of every spec and generator.
    pub seed: u64,
    pub scale: Scale,
    /// Engine worker threads (or worker processes).
    pub threads: usize,
    /// The `ltsim` binary whose `worker` subcommand serves the
    /// `subprocess` backend.
    pub ltsim: Option<PathBuf>,
    /// The run's artifact directory (`e2e`) or working directory
    /// (`layers`).
    pub out: Option<PathBuf>,
    /// `threads` or `subprocess`; the workload's own backend by default.
    pub backend: Option<String>,
    pub spans: bool,
    pub setup_only: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::Coverage,
            seed: 1,
            scale: Scale::full(),
            threads: 1,
            ltsim: None,
            out: None,
            backend: None,
            spans: false,
            setup_only: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value()?)?),
                "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs a number")?,
                "--scale" => args.scale = Scale::parse(value()?)?,
                "--threads" => {
                    args.threads = value()?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--threads needs a positive number")?;
                }
                "--ltsim" => args.ltsim = Some(value()?.into()),
                "--out" => args.out = Some(value()?.into()),
                "--backend" => args.backend = Some(value()?.clone()),
                "--spans" => args.spans = true,
                "--setup-only" => args.setup_only = true,
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// A JSON value of `perfbench`'s one-line reports.
pub enum Json {
    Num(f64),
    Int(u64),
    Str(String),
    List(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact one-line rendering; non-finite numbers become `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if u32::from(c) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", u32::from(c));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}
