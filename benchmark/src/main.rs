//! The repository's benchmark: host nanoseconds per packet-hop on three
//! backends, four workloads, a layer ladder and a traced run.
//!
//! One process runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload bcast16_rho90 [--seed 1] [--seconds 24] [--trace 1]
//! ```
//!
//! It prints every metric by name with its unit, checks every run's
//! outputs against the serial engine, writes the record into
//! `benchmark/out/`, ends standard output with one JSON result line, and
//! exits non-zero if a run failed. README.md has the design.

mod arms;
mod estimate;
mod json;
mod layers;
mod metrics;
mod record;
mod run;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Mode;

const USAGE: &str = "\
usage: pstar-benchmark --workload <name> [--seed N] [--seconds N] [--trace [0|1]]
                       [--smoke] [--out <set.json>]
       pstar-benchmark --compare <a.json> <b.json>

  --workload  bcast16_rho90, mixed8x8x16_rho70, ucast16_rho30 or small4_rho90
  --seed      reaches the program only as SimConfig::seed (default 1)
  --seconds   time budget for measuring (default 24)
  --trace     1: after the timed rounds run every arm instrumented plus the
              layer kernels, report the per-layer metrics and write
              <workload>.trace.json next to the record set
  --smoke     one round at a twentieth of the slots (tests only)
  --out       record set to write into (default benchmark/out/results.json)
  --compare   b against a: per workload and end-to-end metric both values,
              the relative difference and the bound; exit 1 if any exceeds it";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("pstar-benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// `benchmark/`, wherever the checkout is: cargo sets the variable for
/// `cargo run`; the compile-time value covers a directly started binary.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn compare(a: &str, b: &str) -> ExitCode {
    let sets =
        record::read_set(Path::new(a)).and_then(|a| Ok((a, record::read_set(Path::new(b))?)));
    match sets {
        Ok((a, b)) => {
            let c = record::compare(&a, &b);
            record::print_comparison(&c);
            if c.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("pstar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut mode) = (1u64, 24.0f64, false, Mode::Full);
    let mut out = manifest_dir().join("out/results.json");
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        let parsed = match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--compare" => {
                return match (args.next(), args.next()) {
                    (Some(a), Some(b)) => compare(&a, &b),
                    _ => usage_error("--compare needs two record sets"),
                };
            }
            "--workload" => value("--workload").and_then(|name| {
                workload = Some(workloads::find(&name).ok_or(format!("unknown workload {name}"))?);
                Ok(())
            }),
            "--seed" => value("--seed").and_then(|v| {
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
                Ok(())
            }),
            "--seconds" => value("--seconds").and_then(|v| {
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or(format!(
                        "--seconds {v}: not a number of seconds between 0 and 600"
                    ))?;
                Ok(())
            }),
            "--trace" => {
                // Bare `--trace` means 1.
                trace = match args.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
                Ok(())
            }
            "--smoke" => {
                mode = Mode::Smoke;
                Ok(())
            }
            "--out" => value("--out").map(|v| out = PathBuf::from(v)),
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(e) = parsed {
            return usage_error(&e);
        }
    }
    let Some(workload) = workload else {
        return usage_error("--workload is required");
    };

    let outcome = run::run(&run::Options {
        workload,
        seed,
        seconds,
        trace,
        mode,
        rounds: (mode == Mode::Smoke).then_some(1),
    });
    run::print_record(&outcome.record);

    let mut io_failed = false;
    let mut save = |what: &str, result: Result<(), String>| {
        if let Err(e) = result {
            eprintln!("pstar-benchmark: {what}: {e}");
            io_failed = true;
        }
    };
    save(
        "writing the record",
        record::write_into_set(&out, &outcome.record),
    );
    if trace {
        let dir = out.parent().unwrap_or(Path::new("."));
        let write = |name: String, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        save(
            "writing the span trace",
            write(
                format!("{}.trace.json", workload.name),
                &outcome.spans.chrome_json(workload.name),
            ),
        );
        if let Some(phases) = outcome
            .traced
            .as_ref()
            .and_then(|t| t.phases_chrome_json.as_deref())
        {
            save(
                "writing the phase trace",
                write(format!("{}.phases.trace.json", workload.name), phases),
            );
        }
    }

    // The contract's result: the last line of standard output.
    println!("{}", outcome.result_line.render());
    if outcome.correct && !io_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
