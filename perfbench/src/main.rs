//! `perfbench`: one command for the attack, service and design paths.
//!
//! ```text
//! perfbench --workload <sat_deep|attack_matrix|serve_sessions|orap_tables>
//!           --seed N --seconds S --trace <0|1> [--smoke]
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (timed as
//! `setup_s`), then runs whole rounds of the same operations for at least
//! `--seconds`, checking every output against a computation made apart
//! from the program. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Provenance, deterministic work counts and the span summary go to
//! `perfbench/out/`. See `perfbench/README.md`.

mod checks;
mod drive;
mod ledger;
mod matrix;
mod report;
mod sat_deep;
mod serve_sessions;
mod tables;
mod trace;

use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    /// The run's measuring time.
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const WORKLOADS: [&str; 4] = ["sat_deep", "attack_matrix", "serve_sessions", "orap_tables"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> \
         [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        let value = || argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let seconds = seconds.unwrap_or_else(|| usage());
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage()),
        seconds,
        trace: trace.unwrap_or_else(|| usage()),
        smoke,
    }
}

fn main() {
    let args = parse_args();
    trace::set_enabled(args.trace);
    let mut rep = match args.workload.as_str() {
        "sat_deep" => sat_deep::run(&args),
        "attack_matrix" => matrix::run(&args),
        "serve_sessions" => serve_sessions::run(&args),
        "orap_tables" => tables::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    match ledger::reconcile(&args, &rep.counts) {
        Ok(mismatched) => {
            for key in &mismatched {
                rep.fail(format!(
                    "work counts of {key} differ from an earlier run of this code and seed"
                ));
            }
        }
        Err(e) => eprintln!("perfbench: work-count record not kept: {e}"),
    }
    if let Err(e) = report::write_artifacts(&args, &rep) {
        eprintln!("perfbench: could not write artifacts: {e}");
    }
    report::print(&args, &rep);
}
