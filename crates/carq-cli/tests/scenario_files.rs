//! `scenario run` takes a generated `VANETGEN1` scenario file wherever it
//! takes a registered scenario name, and the export stays independent of
//! the thread count.

use std::path::Path;
use std::process::Command;

/// Runs the real binary, panicking on failure.
fn carq(args: &[&str]) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_carq-cli")).args(args).output().expect("carq-cli spawns");
    assert!(
        out.status.success(),
        "carq-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

#[test]
fn a_generated_world_runs_byte_identically_at_1_and_8_threads() {
    let dir = std::env::temp_dir().join(format!("carq-scenario-files-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let world = dir.join("grid.gen");
    carq(&[
        "gen",
        "emit",
        "grid-city",
        "--blocks_x",
        "4",
        "--blocks_y",
        "4",
        "--n_cars",
        "8",
        "--n_aps",
        "4",
        "--seed",
        "0x20081cdc",
        "--out",
        path_str(&world),
    ]);
    let export = |threads: &str| {
        let out = dir.join(format!("t{threads}.csv"));
        carq(&[
            "scenario",
            "run",
            path_str(&world),
            "--rounds",
            "1",
            "--threads",
            threads,
            "--out",
            path_str(&out),
        ]);
        std::fs::read_to_string(&out).expect("export written")
    };
    let one = export("1");
    let eight = export("8");
    std::fs::remove_dir_all(&dir).ok();
    assert!(one.lines().nth(1).is_some_and(|row| row.starts_with("gen/grid-city/")), "{one}");
    assert_eq!(one, eight, "the export must not depend on the thread count");
}
