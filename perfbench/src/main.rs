//! `perfbench`: runs one named workload of the repository's benchmark and
//! prints every metric with its unit; the last stdout line is the result
//! as one JSON object. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod gen;
mod ledger;
mod metrics;
mod probe;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWarm,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "serve_warm" => Workload::ServeWarm,
            "serve_mixed" => Workload::ServeMixed,
            _ => return None,
        })
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (serve_warm or serve_mixed)")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // The program reads `SMS_*` settings from the environment; the
    // benchmark passes every setting explicitly, so none may leak in.
    // Safe here: no other thread has started yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SMS_") {
            std::env::remove_var(key);
        }
    }
    let work = PathBuf::from(".bench_build").join("perfbench");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let report = match args.workload {
        Workload::ServeWarm => serve::run(&args, false, &work),
        Workload::ServeMixed => serve::run(&args, true, &work),
    };
    let catalogue: Vec<(String, &'static str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    report.print(&catalogue);
}
