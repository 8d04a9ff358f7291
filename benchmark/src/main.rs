//! The repository's benchmark: four workloads, four gated end-to-end
//! metrics, per-layer attribution measured from outside. See `README.md`
//! beside this package for the workloads, the metric definitions and how
//! the layers are expected to move the end-to-end numbers.
//!
//! ```text
//! desq-benchmark run --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--quick]
//! desq-benchmark sweep --seeds 1..10 --out a.json [--seconds <s>] [--trace-seconds <s>] [--quick]
//! desq-benchmark compare a.json b.json
//! ```
//!
//! `run` prints one JSON object as the last line of its standard output —
//! `correct`, `attempted`, `failed`, `metrics` — and writes the full run
//! record (and, traced, the spans) under `benchmark/out/`.

mod compare;
mod json;
mod layers;
mod run;
mod spec;
mod state;
mod stats;
mod sys;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use crate::compare::SweepConfig;
use crate::run::RunConfig;
use crate::spec::BenchmarkFile;

const USAGE: &str = "usage:
  desq-benchmark run --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--quick]
  desq-benchmark sweep --seeds <a..b> --out <file> [--seconds <s>] [--trace-seconds <s>] [--quick]
  desq-benchmark compare <a.json> <b.json>";

/// Where run records and traces go, relative to the repository root the
/// command runs from.
const OUT_DIR: &str = "benchmark/out";

/// `--name value` flags, bare `--quick`, and positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => parsed.quick = true,
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.flags.push((name.to_string(), value.clone()));
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let text = self
            .flag(name)
            .ok_or_else(|| format!("--{name} is required"))?;
        text.parse()
            .map_err(|_| format!("--{name}: cannot read {text:?}"))
    }

    fn optional<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            Some(_) => self.required(name),
            None => Ok(default),
        }
    }
}

fn write_out(name: &str, content: &json::Json) {
    let path = Path::new(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{content}\n")));
    if let Err(e) = written {
        eprintln!("warning: {}: {e}", path.display());
    }
}

fn positive_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be positive, got {seconds}"))
    }
}

fn run_command(args: &Args) -> Result<bool, String> {
    let trace = match args.required::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let cfg = RunConfig {
        workload: args.required("workload")?,
        seed: args.required("seed")?,
        seconds: positive_seconds(args.required("seconds")?)?,
        trace,
        quick: args.quick,
    };
    sys::check_arena_pin();
    let output = run::run(&cfg)?;
    let stem = format!("{}.seed{}.trace{}", cfg.workload, cfg.seed, u8::from(trace));
    write_out(&format!("{stem}.json"), &output.record);
    if let Some(spans) = &output.spans {
        write_out(&format!("{}.trace.json", cfg.workload), spans);
    }
    println!("{}", output.result());
    Ok(true)
}

fn sweep_command(args: &Args) -> Result<bool, String> {
    let seconds = positive_seconds(args.optional("seconds", BenchmarkFile::load()?.run_seconds)?)?;
    compare::sweep(&SweepConfig {
        seeds: compare::parse_seeds(args.flag("seeds").ok_or("--seeds is required")?)?,
        out: args.required("out")?,
        seconds,
        trace_seconds: positive_seconds(args.optional("trace-seconds", seconds)?)?,
        quick: args.quick,
    })?;
    Ok(true)
}

fn compare_command(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result sets".into());
    };
    let (report, pass) = compare::compare(a, b, &BenchmarkFile::load()?)?;
    print!("{report}");
    Ok(pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((command, rest)) => Args::parse(rest).and_then(|args| match command.as_str() {
            "run" => run_command(&args),
            "sweep" => sweep_command(&args),
            "compare" => compare_command(&args),
            other => Err(format!("unknown command {other:?}\n{USAGE}")),
        }),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
