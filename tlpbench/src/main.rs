//! `tlpbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Generates the workload's input from the seed (for `serve-mixed`, also
//! the store it serves), then runs the workload in a child process of its
//! own, so that its peak memory excludes the generator, and prints the
//! child's report. The last line of standard
//! output is the JSON result. Exits non-zero when the run fails or its
//! correctness gate does.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tlpbench::report::{END_TO_END, PER_LAYER, UNBOUNDED};
use tlpbench::workload::{generate, run, Workload};

const USAGE: &str = "usage: tlpbench --workload tlp-powerlaw|hdrf-stream|serve-mixed \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child: the working directory holding the input.
    child: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--child" => child = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        child,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.child {
        Some(work) => run_child(&args, work),
        None => run_parent(&args, &raw),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generates the input in a fresh working directory under the current
/// one, runs the child on it, and removes the directory.
fn run_parent(args: &Args, raw: &[String]) -> Result<ExitCode, String> {
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let status = generate(&args.workload.params(), args.seed, &work).and_then(|()| {
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        Command::new(exe)
            .args(raw)
            .arg("--child")
            .arg(&work)
            .status()
            .map_err(|e| format!("starting the workload: {e}"))
    });
    let cleanup = std::fs::remove_dir_all(&work);
    let status = status?;
    cleanup.map_err(|e| format!("removing {}: {e}", work.display()))?;
    Ok(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    })
}

fn run_child(args: &Args, work: &Path) -> Result<ExitCode, String> {
    let params = args.workload.params();
    let mut outcome = run(&params, args.seed, args.seconds, args.trace, work)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}:",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", outcome.render(defs));
    if !args.trace {
        println!("reported, not bounded:");
        print!("{}", outcome.render(UNBOUNDED));
    }
    println!(
        "  {:<30} {:>16.4} fraction ({} failed of {} attempted)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    let line = outcome.json_line(defs);
    for error in &outcome.gate_errors {
        println!("correctness gate FAILED: {error}");
    }
    println!("{line}");
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
