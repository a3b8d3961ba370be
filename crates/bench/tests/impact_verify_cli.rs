//! `impact-verify` run as its own process: session snapshots that this test
//! process writes audit clean through `--snapshot-dir`, and every failure
//! path exits with status 1 (a deliberate failure, not a panic): one flipped
//! byte in one snapshot, a directory without snapshots or no directory at
//! all, a `--design` name that matches no design, and a flag without its
//! operand.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use impact_bench::{example_designs, figure13_jobs, prepare, run_batch, DEFAULT_SEED};
use impact_core::SweepSession;

/// Runs the `impact-verify` binary of this package with `args`.
fn impact_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_impact-verify"))
        .args(args)
        .output()
        .expect("the impact-verify binary starts")
}

/// The run's stdout and stderr, for assertion messages and matching.
fn transcript(output: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    )
}

/// A fresh, empty directory under the system temporary directory, unique to
/// this process and `name`.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impact_verify_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the temporary directory is writable");
    dir
}

/// `impact-verify --snapshot-dir dir`.
fn audit_dir(dir: &Path) -> Output {
    impact_verify(&["--snapshot-dir", dir.to_str().expect("a UTF-8 path")])
}

#[test]
fn snapshot_directories_audit_clean_and_corruption_fails() {
    let dir = empty_dir("snapshots");
    let designs = example_designs();
    for bench in &designs {
        let (cdfg, trace) = prepare(bench, 6, DEFAULT_SEED);
        let session = SweepSession::new();
        run_batch(
            &figure13_jobs(&cdfg, &trace, &[1.2, 2.4], (1, 2)),
            Some(&session),
            0,
        );
        session
            .save_to_file(dir.join(format!("{}.impactcache", bench.name)))
            .expect("the snapshot directory is writable");
    }

    let clean = audit_dir(&dir);
    let log = transcript(&clean);
    assert!(clean.status.success(), "clean snapshots must pass:\n{log}");
    assert!(
        log.contains(&format!("audited {} snapshot(s)", designs.len()))
            && log.contains("impact-verify: no violations"),
        "{log}"
    );

    let victim = dir.join("gcd.impactcache");
    let mut bytes = std::fs::read(&victim).expect("the gcd snapshot exists");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&victim, &bytes).expect("the snapshot is writable");
    let corrupt = audit_dir(&dir);
    let log = transcript(&corrupt);
    assert_eq!(
        corrupt.status.code(),
        Some(1),
        "a flipped byte must fail:\n{log}"
    );
    assert!(
        log.contains("gcd.impactcache") && log.contains("cache-snapshot"),
        "the failure names the file and the rule:\n{log}"
    );

    let empty = empty_dir("empty");
    let vacuous = audit_dir(&empty);
    let log = transcript(&vacuous);
    assert_eq!(
        vacuous.status.code(),
        Some(1),
        "a directory without snapshots must fail:\n{log}"
    );
    assert!(log.contains("no *.impactcache snapshots"), "{log}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
    let missing = audit_dir(&empty);
    let log = transcript(&missing);
    assert_eq!(
        missing.status.code(),
        Some(1),
        "a missing directory must fail:\n{log}"
    );
}

#[test]
fn an_unknown_design_fails_and_lists_the_known_ones() {
    let typo = impact_verify(&["--smoke", "--design", "gdc"]);
    let log = transcript(&typo);
    assert_eq!(
        typo.status.code(),
        Some(1),
        "a misspelt name must fail:\n{log}"
    );
    assert!(log.contains("unknown design `gdc`"), "{log}");
    for bench in impact_benchmarks::all_benchmarks() {
        assert!(
            log.contains(bench.name),
            "{} is not listed:\n{log}",
            bench.name
        );
    }
    assert!(!log.contains("no violations"), "{log}");
}

#[test]
fn a_flag_without_its_operand_fails_instead_of_auditing_the_defaults() {
    for flag in ["--snapshot", "--snapshot-dir", "--design"] {
        let run = impact_verify(&["--smoke", flag]);
        let log = transcript(&run);
        assert_eq!(run.status.code(), Some(1), "{flag}:\n{log}");
        assert!(log.contains(&format!("`{flag}` needs an operand")), "{log}");
    }
}
