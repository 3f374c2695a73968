//! One benchmark for uavnet planning and live re-deployment.
//!
//! `benchmark --workload NAME --seed N [--seconds N] [--trace 0|1]`
//! runs one workload from the table in `table.rs` (mirrored by the
//! repository's `BENCHMARK.json`), checks every output, and prints each
//! metric as `name value unit (n=samples)` followed by one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics
//! and writes a Chrome/Perfetto trace. See `README.md` beside this
//! package for the workloads and how to read the results.
//!
//! Exit codes: 0 on a correct run, 1 when a check failed, 2 on a usage
//! error.

mod cli;
mod compare;
mod gen;
mod live;
mod plan;
mod report;
mod stats;
mod stream;
mod table;
mod trace;

use cli::{Command, RunArgs};
use report::Report;
use std::time::Instant;
use table::Load;
use trace::Tracer;
use uavnet_json::Json;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli::parse_args(&args) {
        Ok(Command::List) => {
            print!("{}", table::listing());
            0
        }
        Ok(Command::Compare { base, head }) => compare::run(&base, &head),
        Ok(Command::Run(run_args)) => run(&run_args, started),
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{}", cli::USAGE);
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &RunArgs, started: Instant) -> i32 {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let mut tracer = args.trace.then(|| Tracer::new(started));
    match &args.workload.load {
        Load::Plan(p) => plan::run(p, args, tracer.as_mut(), &mut report),
        Load::Stream(p) => stream::run(p, args, tracer.as_mut(), &mut report),
    }
    let (lines, result) = if args.trace {
        report.render(table::per_layer())
    } else {
        report.render(table::END_TO_END.iter())
    };
    if let Some(t) = &tracer {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            format!(
                "{}/out/{}-seed{}.trace.json",
                env!("CARGO_MANIFEST_DIR"),
                args.workload.name,
                args.seed
            )
        });
        if let Err(e) = write_file(&path, &t.to_chrome_json()) {
            eprintln!("benchmark: trace {path}: {e}");
            return 1;
        }
        eprintln!(
            "benchmark: wrote {} spans to {path} (open in ui.perfetto.dev)",
            t.len()
        );
    }
    if let Some(path) = &args.out {
        let mut saved = vec![
            ("workload".to_string(), Json::Str(args.workload.name.into())),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            ("trace".to_string(), Json::Bool(args.trace)),
        ];
        saved.extend(result.as_obj().unwrap_or_default().iter().cloned());
        if let Err(e) = write_file(path, &Json::Obj(saved).dump()) {
            eprintln!("benchmark: out {path}: {e}");
            return 1;
        }
    }
    print!("{lines}");
    println!("{}", result.dump_line());
    i32::from(!report.correct())
}

fn write_file(path: &str, text: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
