//! Regression for re-entrant obs sessions (the long-running-service
//! lifecycle): two *full* recorded sweeps in one process, each closed
//! into its own JSON-lines event log and metrics snapshot, and both
//! logs must pass `scripts/validate_obs_log.py` independently —
//! including the `--single-root` span-tree check, which is exactly
//! what stale thread-local span-parent stacks from the first session
//! used to corrupt.
//!
//! With the `obs` feature off the facade refuses to record and the
//! test degrades to pinning that refusal; CI runs it with
//! `--features obs`.

use std::path::{Path, PathBuf};
use std::process::Command;

use uavnet::channel::UavRadio;
use uavnet::core::{approx_alg_with_stats, ApproxConfig, Instance};
use uavnet::geom::{AreaSpec, GridSpec, Point2};
use uavnet::obs;

fn sweep_instance() -> Instance {
    let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), 300.0, 300.0)
        .unwrap()
        .build();
    let mut b = Instance::builder(grid, 600.0);
    for i in 0..12 {
        b.add_user(Point2::new(70.0 * i as f64, 450.0), 2_000.0);
    }
    b.add_uav(6, UavRadio::new(30.0, 5.0, 450.0));
    b.add_uav(4, UavRadio::new(28.0, 4.0, 400.0));
    b.build().unwrap()
}

/// One complete recorded sweep: begin (typed), solve under a single
/// root span, end, and write the event log + metrics snapshot.
fn recorded_sweep(instance: &Instance, log_path: &Path, metrics_path: &Path) {
    let mut provenance = obs::Provenance::detect();
    provenance.instance_fingerprint = instance.fingerprint();
    obs::session_begin(provenance).expect("session must begin cleanly");
    {
        let _root = obs::phases::REPORT.span();
        approx_alg_with_stats(instance, &ApproxConfig::with_s(1).threads(2)).unwrap();
    }
    let snap = obs::session_end().expect("active session yields a snapshot");
    let events = obs::drain_events();
    assert!(!events.is_empty(), "a recorded sweep emits events");
    let mut lines = String::new();
    for e in &events {
        lines.push_str(&e.to_json_line());
        lines.push('\n');
    }
    std::fs::write(log_path, lines).expect("write event log");
    std::fs::write(metrics_path, snap.to_json()).expect("write metrics snapshot");
}

/// Runs `scripts/validate_obs_log.py` on one (log, metrics) pair.
/// Returns `false` (skipping, not failing) when python3 is absent.
fn validate(log_path: &Path, metrics_path: &Path) -> bool {
    let script = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scripts/validate_obs_log.py");
    let out = match Command::new("python3")
        .arg(&script)
        .arg(log_path)
        .arg(metrics_path)
        .arg("--single-root")
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("skipping validate_obs_log.py ({e}); structural asserts still ran");
            return false;
        }
    };
    assert!(
        out.status.success(),
        "validate_obs_log.py rejected {}:\n{}{}",
        log_path.display(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    true
}

#[test]
fn two_recorded_sweeps_in_one_process_both_validate() {
    if !obs::is_enabled() {
        // Facade build: re-entrancy degenerates to repeated refusals.
        for _ in 0..2 {
            assert_eq!(
                obs::session_begin(obs::Provenance::detect()),
                Err(obs::SessionError::Disabled)
            );
        }
        return;
    }

    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&tmp).unwrap();
    let instance = sweep_instance();

    let mut snapshots = Vec::new();
    for epoch in 0..2u32 {
        let log = tmp.join(format!("reentrancy_epoch{epoch}.jsonl"));
        let metrics = tmp.join(format!("reentrancy_epoch{epoch}_metrics.json"));
        recorded_sweep(&instance, &log, &metrics);
        let validated = validate(&log, &metrics);
        snapshots.push((log, metrics, validated));
    }

    // Both epochs must have produced identical counter sets (nothing
    // leaked from epoch 0 into epoch 1) — compare the written
    // snapshots, not in-memory state, so the files themselves are the
    // artifact under test.
    let a = std::fs::read_to_string(&snapshots[0].1).unwrap();
    let b = std::fs::read_to_string(&snapshots[1].1).unwrap();
    let counters = |s: &str| s.lines().filter(|l| l.contains("\"counters\"")).count();
    assert_eq!(counters(&a), counters(&b));
    let doc_a = uavnet_json::Json::parse(&a).expect("metrics snapshot is valid JSON");
    let doc_b = uavnet_json::Json::parse(&b).expect("metrics snapshot is valid JSON");
    assert_eq!(
        doc_a.get("counters"),
        doc_b.get("counters"),
        "counters must not leak across sessions"
    );

    // A third session still begins cleanly after two full cycles.
    obs::session_begin(obs::Provenance::detect()).expect("third session begins");
    assert_eq!(
        obs::session_begin(obs::Provenance::detect()),
        Err(obs::SessionError::AlreadyActive),
        "double-begin stays typed after re-entry"
    );
    obs::session_end().unwrap();
    obs::drain_events();
}
