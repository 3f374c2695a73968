//! Regenerates the paper's evaluation figures as text tables.
//!
//! ```text
//! figures [fig4|fig5|fig6a|fig6b|ablate|all]
//!         [--quick|--laptop|--paper] [--threads N] [--trials T] [--out DIR]
//! ```
//!
//! Defaults: `all --laptop --threads <cores>`. See EXPERIMENTS.md for
//! the paper-vs-measured comparison of each table.

use std::process::ExitCode;
use uavnet_bench::report::Harness;
use uavnet_bench::{
    ablation, fig4, fig5, fig6, render_ablation_table, render_csv, render_served_table,
    render_time_table, Scale,
};

const HARNESS: Harness = Harness {
    name: "figures",
    usage: "usage: figures [fig4|fig5|fig6a|fig6b|ablate|all] \
            [--quick|--laptop|--paper] [--threads N] [--trials T] [--out DIR]",
};

fn main() -> ExitCode {
    let mut which = "all".to_string();
    let mut scale = Scale::laptop();
    let mut threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut trials_override: Option<usize> = None;

    let help = HARNESS.options(|args| {
        while let Some(arg) = args.next_flag() {
            match arg.as_str() {
                "fig4" | "fig5" | "fig6a" | "fig6b" | "ablate" | "all" => which = arg,
                "--quick" => scale = Scale::quick(),
                "--laptop" => scale = Scale::laptop(),
                "--paper" => scale = Scale::paper(),
                "--out" => out_dir = Some(args.value(&arg)?.into()),
                "--threads" => threads = args.number(&arg)?,
                "--trials" => trials_override = Some(args.number(&arg)?),
                "--help" | "-h" => return Ok(true),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(false)
    });
    if help {
        println!("{}", HARNESS.usage);
        return ExitCode::SUCCESS;
    }

    if let Some(t) = trials_override {
        scale.trials = t.max(1);
    }
    println!(
        "# uavnet evaluation — scale: {} (cell {:.0} m, n ≤ {}, K ≤ {}), {} threads\n",
        scale.name,
        scale.cell_m,
        scale.n_max(),
        scale.k_max(),
        threads
    );

    let dump = |name: &str, csv: String| {
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create --out dir");
            std::fs::write(dir.join(format!("{name}.csv")), csv).expect("write csv");
        }
    };
    if which == "fig4" || which == "all" {
        let points = fig4(&scale, threads);
        dump("fig4", render_csv("K", &points));
        println!(
            "{}",
            render_served_table(
                &format!(
                    "Fig. 4 — served users vs K (n = {}, s = {})",
                    scale.n_max(),
                    scale.s_default
                ),
                "K",
                &points
            )
        );
    }
    if which == "fig5" || which == "all" {
        let points = fig5(&scale, threads);
        dump("fig5", render_csv("n", &points));
        println!(
            "{}",
            render_served_table(
                &format!(
                    "Fig. 5 — served users vs n (K = {}, s = {})",
                    scale.k_max(),
                    scale.s_default
                ),
                "n",
                &points
            )
        );
    }
    if which == "fig6a" || which == "fig6b" || which == "all" {
        let points = fig6(&scale, threads);
        dump("fig6", render_csv("s", &points));
        if which != "fig6b" {
            println!(
                "{}",
                render_served_table(
                    &format!(
                        "Fig. 6(a) — served users vs s (n = {}, K = {})",
                        scale.n_max(),
                        scale.k_max()
                    ),
                    "s",
                    &points
                )
            );
        }
        if which != "fig6a" {
            println!(
                "{}",
                render_time_table(
                    &format!(
                        "Fig. 6(b) — running time vs s (n = {}, K = {})",
                        scale.n_max(),
                        scale.k_max()
                    ),
                    "s",
                    &points
                )
            );
        }
    }
    if which == "ablate" || which == "all" {
        let s = scale.s_default.min(2); // the sweep is re-run 5×; keep it affordable
        let rows = ablation(&scale, s, threads);
        println!(
            "{}",
            render_ablation_table(
                &format!(
                    "Ablation — approAlg design choices (n = {}, K = {}, s = {s})",
                    scale.n_max(),
                    scale.k_max()
                ),
                &rows
            )
        );
    }
    ExitCode::SUCCESS
}
