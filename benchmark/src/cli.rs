//! Command-line parsing, kept pure so malformed input is a typed error
//! (exit code 2 in `main`), never a panic.

use crate::table::{self, Workload, RUN_SECONDS};

/// Usage text printed on a parse error.
pub const USAGE: &str = "usage:
  benchmark --workload NAME --seed N [--seconds N] [--trace 0|1] [--trace-out PATH] [--out PATH]
  benchmark --list
  benchmark compare --base RUN.json... --head RUN.json...";

/// Arguments of one measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: u64,
    /// Report per-layer metrics and write a trace instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace (default under
    /// `benchmark/out/`).
    pub trace_out: Option<String>,
    /// Where to also write the run's result, with its workload and
    /// seed, for `compare`.
    pub out: Option<String>,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Measure one workload.
    Run(RunArgs),
    /// Print workloads and metrics.
    List,
    /// Compare two sets of saved runs.
    Compare {
        /// Runs of the base commit.
        base: Vec<String>,
        /// Runs of the changed commit.
        head: Vec<String>,
    },
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument: unknown flags or
/// workloads, missing or malformed values, a missing required flag.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("--list") if args.len() == 1 => return Ok(Command::List),
        Some("compare") => return parse_compare(&args[1..]),
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut trace_out = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(table::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = table::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let raw = value()?;
                seed =
                    Some(raw.parse::<u64>().map_err(|_| {
                        format!("--seed wants a non-negative integer, got {raw:?}")
                    })?);
            }
            "--seconds" => {
                let raw = value()?;
                seconds = raw
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=3_600).contains(s))
                    .ok_or_else(|| format!("--seconds wants 1..=3600, got {raw:?}"))?;
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.to_string()),
            "--out" => out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_out,
        out,
    }))
}

fn parse_compare(args: &[String]) -> Result<Command, String> {
    let (mut base, mut head) = (Vec::new(), Vec::new());
    let mut side = None;
    for arg in args {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag:?}")),
            path => side
                .as_mut()
                .ok_or_else(|| format!("{path:?} before --base or --head"))?
                .push(path.to_string()),
        }
    }
    if base.is_empty() || head.is_empty() {
        return Err("compare needs at least one --base and one --head run".into());
    }
    Ok(Command::Compare { base, head })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn driver_command_line_parses() {
        let Ok(Command::Run(run)) = parse("--workload plan-paper --seed 7 --seconds 10 --trace 1")
        else {
            panic!("expected a run");
        };
        assert_eq!(run.workload.name, "plan-paper");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 10, true));
        assert_eq!((run.trace_out, run.out), (None, None));
    }

    #[test]
    fn defaults_and_output_paths() {
        let Ok(Command::Run(run)) =
            parse("--seed 1 --workload stream-large --out a.json --trace-out t.json")
        else {
            panic!("expected a run");
        };
        assert_eq!((run.seconds, run.trace), (RUN_SECONDS, false));
        assert_eq!(run.out.as_deref(), Some("a.json"));
        assert_eq!(run.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn list_and_compare() {
        assert_eq!(parse("--list"), Ok(Command::List));
        assert_eq!(
            parse("compare --base a b --head c"),
            Ok(Command::Compare {
                base: vec!["a".into(), "b".into()],
                head: vec!["c".into()],
            })
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload plan-paper",
            "--seed 1",
            "--workload plan-paper --seed",
            "--workload plan-paper --seed -3",
            "--workload plan-paper --seed 1.5",
            "--workload plan-paper --seed 1 --seconds 0",
            "--workload plan-paper --seed 1 --seconds lots",
            "--workload plan-paper --seed 1 --trace 2",
            "--workload plan-paper --seed 1 --trace",
            "--workload plan-paper --seed 1 --frobnicate 3",
            "--list extra",
            "compare a --base b --head c",
            "compare --base a",
            "compare --base a --head b --bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
