//! `perfbench` — the observatory end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <embed_cold|embed_warm|knn_warm|characterize|all> \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload ([`workloads`]) makes its
//! inputs from `--seed`, measures for about `--seconds`, checks the
//! program's outputs against serial, uncached references, and prints a
//! report followed by one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--trace 0` reports the end-to-end metrics of a timed run;
//! `--trace 1` runs the separate traced replay and reports the
//! per-layer metrics. `--workload all` runs every workload in turn and
//! prints one such line per workload.
//!
//! Exit codes: 0 success; 1 a check failed or the run errored; 2 usage;
//! 3 the run is invalid (the generator fell behind its schedule).

mod characterize;
mod env;
mod gen;
mod replay;
mod report;
mod serving;
mod stats;
mod sys;
mod wire;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use workloads::{Kind, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| "--seed must be a non-negative integer")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name|all> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let selected: Vec<&workloads::Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else if let Some(w) = workloads::get(&args.workload) {
        vec![w]
    } else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        std::process::exit(2);
    };
    println!("{{\"env\":{}}}", env::Fingerprint::capture().to_json());
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut exit = 0;
    for wl in selected {
        let scratch =
            PathBuf::from(".perfbench_runs").join(format!("{}-{}", std::process::id(), wl.name));
        let _ = std::fs::remove_dir_all(&scratch);
        if let Err(e) = std::fs::create_dir_all(&scratch) {
            eprintln!("perfbench: cannot create {}: {e}", scratch.display());
            std::process::exit(1);
        }
        println!("== {} ({})", wl.name, if args.trace { "traced" } else { "timed" });
        let outcome = match wl.kind {
            Kind::Characterize => {
                characterize::run(wl, args.seed, args.seconds, args.trace, &scratch)
            }
            _ => serving::run(wl, args.seed, args.seconds, args.trace, &scratch),
        };
        let _ = std::fs::remove_dir_all(&scratch);
        let _ = std::fs::remove_dir(".perfbench_runs");
        let result = match outcome {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", wl.name);
                std::process::exit(1);
            }
        };
        for n in &result.notes {
            println!("{n}");
        }
        if let Some(why) = &result.invalid {
            eprintln!("perfbench: {}: invalid run: {why}", wl.name);
            std::process::exit(3);
        }
        match result.json_line(table) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", wl.name);
                std::process::exit(1);
            }
        }
        if !result.correct() {
            exit = 1;
        }
    }
    std::process::exit(exit);
}
