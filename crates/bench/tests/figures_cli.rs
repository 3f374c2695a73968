//! `figures` refuses an `--out` it cannot use before computing anything.

use std::process::Command;

#[test]
fn an_out_dir_that_cannot_be_created_exits_2_before_any_figure() {
    // An existing file cannot become the output directory.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig4", "--quick", "--trials", "1", "--out", out_path])
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(out_path), "{stderr}");
    assert!(run.stdout.is_empty(), "figures printed before refusing");
}
