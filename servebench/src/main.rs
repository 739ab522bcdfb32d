//! `servebench`: the serving benchmark of `egocensus`.
//!
//! ```text
//! servebench --workload <cold-census|hot-read|churn|routed> --seed <n>
//!            --seconds <s> --trace <0|1>
//! servebench --steadiness <runs> [--workloads a,b] [--seconds <s>] [--first-seed <n>]
//! ```
//!
//! The first form runs one workload and prints, last, one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The second
//! runs each workload `runs` times and reports the spread of every
//! end-to-end metric against its bound in `BENCHMARK.json`. See
//! `servebench/README.md`.

mod check;
mod drive;
mod inputs;
mod net;
mod proc;
mod report;
mod trace;

use drive::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    if !std::path::Path::new("BENCHMARK.json").exists() {
        return Err("run from the repository root (BENCHMARK.json not found)".into());
    }
    if let Some(runs) = flag(args, "--steadiness") {
        let runs: usize = runs.parse().map_err(|_| "bad --steadiness")?;
        let list = flag(args, "--workloads").unwrap_or("cold-census,hot-read,churn,routed");
        let names: Vec<&str> = list.split(',').collect();
        for n in &names {
            Workload::parse(n).ok_or_else(|| format!("unknown workload `{n}`"))?;
        }
        let seconds = parsed(args, "--seconds", Some(15u64))?;
        let first = parsed(args, "--first-seed", Some(1u64))?;
        return Ok(report::steadiness(&names, runs, first, seconds));
    }
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = parsed(args, "--seed", None)?;
    let seconds: f64 = parsed(args, "--seconds", None)?;
    let traced = parsed::<u8>(args, "--trace", Some(0))? == 1;
    if !proc::egocensus_bin().exists() {
        return Err(format!("{} is not built", proc::egocensus_bin().display()));
    }

    let work = PathBuf::from("servebench/work").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let t = std::time::Instant::now();
    let inputs = inputs::Inputs::new(seed);
    let inputs_s = t.elapsed().as_secs_f64();
    let result = if traced {
        trace::run(w, &inputs, seconds, &work)
    } else {
        drive::run(w, &inputs, seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir("servebench/work");
    let outcome = result?;
    outcome.print(&[
        ("workload", w.name().to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", (traced as u8).to_string()),
        ("git_rev", proc::git_rev()),
        ("nproc", proc::nproc().to_string()),
        ("loadavg", format!("{:.2}", proc::loadavg())),
        ("inputs_s", format!("{inputs_s:.3}")),
    ]);
    Ok(0)
}
