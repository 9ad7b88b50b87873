//! The workspace itself must satisfy its own lints: every hash-ordered
//! collection is out of the deterministic subsystems, every
//! `Ordering::Relaxed` carries a justification, raw `std::sync` locks
//! are annotated exceptions, and so on for every rule `acn_check::lint`
//! documents.
//!
//! This is the in-tree equivalent of running `acn-lint` (which
//! `scripts/check.sh` also does); keeping it a test means `cargo test`
//! alone already enforces the discipline.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.ancestors().nth(2).expect("crates/check sits two levels down");
    assert!(root.join("Cargo.toml").is_file(), "workspace root not found from {manifest:?}");
    root.to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let findings = acn_check::lint::lint_workspace(&root).expect("workspace scan succeeds");
    assert!(
        findings.is_empty(),
        "acn-lint found {} violation(s):\n{}",
        findings.len(),
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn workspace_scan_covers_every_crate() {
    // Guard against the scanner silently skipping directories: the scan
    // must visit files in each workspace crate.
    let root = workspace_root();
    let scanned = acn_check::lint::workspace_rs_files(&root).expect("workspace scan succeeds");
    for krate in
        ["sync", "topology", "core", "bitonic", "simnet", "telemetry", "trace", "bench", "check"]
    {
        let prefix = root.join("crates").join(krate);
        assert!(
            scanned.iter().any(|p| p.starts_with(&prefix)),
            "no .rs files scanned under crates/{krate}"
        );
    }
    // ...and must NOT visit vendored or generated code.
    for excluded in ["vendor", "target"] {
        let prefix = root.join(excluded);
        assert!(
            !scanned.iter().any(|p| p.starts_with(&prefix)),
            "scanner descended into {excluded}/"
        );
    }
}
