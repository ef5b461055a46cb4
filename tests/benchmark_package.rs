//! Keeps the repo benchmark inside tier-1.
//!
//! `crates/bench/src/bin/benchmark` is a workspace root of its own (the
//! pipeline builds it from its own manifest), so the outer `cargo test`
//! never compiles it: a renamed `JoinResult`/`ServiceStats`/`LiveStats`
//! field would pass every gate and fail only when someone tries to measure.
//! This test type-checks the package against the production crates as they
//! are in this checkout.

use std::process::Command;

#[test]
fn benchmark_package_compiles_against_the_production_crates() {
    let package = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/bench/src/bin/benchmark"
    );
    // The package's own git-ignored target/: no build lock is shared with
    // the cargo that is running this test, and nothing tracked is written.
    let output = Command::new(env!("CARGO"))
        .args(["check", "--offline", "--quiet", "--all-targets"])
        .args(["--manifest-path", &format!("{package}/Cargo.toml")])
        .args(["--target-dir", &format!("{package}/target")])
        .output()
        .expect("cargo is runnable");
    assert!(
        output.status.success(),
        "usj_benchmark no longer compiles against the production crates:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
