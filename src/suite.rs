//! Workspace-level umbrella crate: hosts the cross-crate integration tests
//! in `tests/` and the runnable examples in `examples/`. Re-exports the
//! member crates so tests and examples can use a single dependency root.

pub use neuroplan;
pub use np_eval;
pub use np_flow;
pub use np_lp;
pub use np_neural;
pub use np_rl;
pub use np_topology;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The `neuroplan` binary of the calling test's build profile. The root
/// package does not own the binary, so cargo has not necessarily built
/// it: build it here, once per test process (a no-op when it is fresh).
pub fn neuroplan_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(build_neuroplan)
}

fn build_neuroplan() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target/<profile>/deps");
    let mut build = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    build.args([
        "build",
        "-q",
        "--offline",
        "-p",
        "neuroplan",
        "--bin",
        "neuroplan",
    ]);
    build.current_dir(env!("CARGO_MANIFEST_DIR"));
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    assert!(
        build.status().expect("run cargo").success(),
        "cargo build of the CLI failed"
    );
    profile_dir.join("neuroplan")
}
