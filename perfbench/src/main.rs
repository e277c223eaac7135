//! `perfbench --workload <net-read|embed-mix|squeeze> --seed <n>
//! --seconds <s> --trace <0|1> [--work-dir <dir>]`
//!
//! Prints a table of every metric (name, value, unit, sample count),
//! then, as the last line, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Any failed correctness gate ends
//! the run with a non-zero exit code and no result line.

use std::path::PathBuf;
use std::process::ExitCode;

use softmem_perfbench::{run, Args, Workload, END_TO_END, PER_LAYER};

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=120.0).contains(&s) {
                    return Err("--seconds must be within 0.5..=120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: FAILED: {e}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::FAILURE;
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut keep = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        match out.report.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.unit == *unit => keep.push(*name),
            _ => {
                eprintln!("perfbench: metric {name} ({unit}) was not measured");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} (available_parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallelism,
    );
    print!("{}", out.report.table());
    for n in &out.notes {
        println!("  note: {n}");
    }
    println!(
        "{}",
        out.report
            .json_line(out.correct, out.attempted, out.failed, &keep)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs were wrong");
        ExitCode::FAILURE
    }
}
