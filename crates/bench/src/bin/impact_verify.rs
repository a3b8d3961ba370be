//! `impact-verify`: static invariant audit of IMPACT artifacts.
//!
//! Three modes, all exiting non-zero when any violation is found:
//!
//! * `--snapshot FILE` — decode one persistent cache snapshot and audit
//!   every cached entry against its key and its own invariants (supply
//!   levels, ENC budgets, block-schedule consistency, and each schedule
//!   summary's numbers: a finite ENC, a finite positive clock, at least one
//!   state). A snapshot holds no design, no scheduling problem, no state
//!   transition graph and no evaluation context, so fingerprints, contexts
//!   and each schedule's agreement with its problem are checked only in the
//!   default mode, by the inline audits, which compose the graphs again,
//!   and by the audit of the live session.
//! * `--snapshot-dir DIR` — audit every `*.impactcache` file in a
//!   directory (`<design>.impactcache`, as `SweepSession::save_to_file`
//!   writes them). Fails when the directory holds no snapshots at all, so a
//!   misconfigured path cannot pass vacuously.
//! * default (optionally `--design NAME`, repeatable, any of the paper's
//!   six designs) — synthesize the four example designs, or the named ones,
//!   over a shared session with the engine's inline audits at
//!   [`VerifyLevel::Full`], then re-audit the finished outcomes, the whole
//!   session cache and the snapshot round-trip as data. A name that matches
//!   no design fails before anything is synthesized.
//!
//! A flag given without its operand fails rather than running the default
//! mode.
//!
//! Usage: `impact-verify [--smoke] [--design NAME] [--snapshot FILE]
//! [--snapshot-dir DIR]`

use impact_bench::{
    benchmark_named, example_designs, fail, fail_if, prepare, quick_laxities, BenchCli,
    DEFAULT_EFFORT, DEFAULT_PASSES,
};
use impact_core::verify::{audit_session, audit_snapshot_bytes};
use impact_core::{EngineConfig, Evaluator, Impact, SweepSession, SynthesisConfig, VerifyLevel};
use impact_verify::Violation;

/// Prints every violation of one audited artifact and folds it into the
/// running total.
fn report(label: &str, violations: &[Violation], total: &mut usize) {
    for violation in violations {
        println!("{label}: {violation}");
    }
    *total += violations.len();
}

/// Audits one snapshot file as bytes.
fn audit_file(path: &std::path::Path, total: &mut usize) {
    let label = path.display().to_string();
    match std::fs::read(path) {
        Ok(bytes) => {
            let violations = audit_snapshot_bytes(&bytes);
            println!(
                "{label}: {} bytes, {} violation(s)",
                bytes.len(),
                violations.len()
            );
            report(&label, &violations, total);
        }
        Err(error) => {
            println!("{label}: unreadable ({error})");
            *total += 1;
        }
    }
}

/// Synthesizes `bench` across a small laxity sweep with inline engine audits
/// on, then audits the outcomes, the session and the snapshot round-trip.
fn audit_design(
    bench: &impact_benchmarks::Benchmark,
    laxities: &[f64],
    passes: usize,
    effort: (usize, usize),
    total: &mut usize,
) {
    let (cdfg, trace) = prepare(bench, passes, impact_bench::DEFAULT_SEED);
    let session = SweepSession::new();
    let mut artifacts = 0usize;
    for &laxity in laxities {
        for mode in ["area", "power"] {
            let label = format!("{}/{mode}@{laxity:.1}", bench.name);
            let base = match mode {
                "area" => SynthesisConfig::area_optimized(laxity),
                _ => SynthesisConfig::power_optimized(laxity),
            };
            let config = base
                .with_effort(effort.0, effort.1)
                .with_engine(EngineConfig::incremental().with_verify(VerifyLevel::Full));
            // The run itself audits every stored point and the session
            // (VerifyLevel::Full), so a violation surfaces here as an error.
            let outcome = match Impact::new(config.clone())
                .synthesize_with_session(&cdfg, &trace, &session)
            {
                Ok(outcome) => outcome,
                Err(error) => {
                    println!("{label}: synthesis failed: {error}");
                    *total += 1;
                    continue;
                }
            };
            // Re-audit the finished outcome as data, budget included.
            let violations = match Evaluator::with_session(&cdfg, &trace, config, &session) {
                Ok(evaluator) => evaluator.audit_outcome(&outcome),
                Err(error) => {
                    println!("{label}: evaluator failed: {error}");
                    *total += 1;
                    continue;
                }
            };
            report(&label, &violations, total);
            artifacts += 1;
        }
    }
    let session_violations = audit_session(&session);
    report(
        &format!("{}/session", bench.name),
        &session_violations,
        total,
    );
    let snapshot_violations = audit_snapshot_bytes(&session.save_snapshot());
    report(
        &format!("{}/snapshot", bench.name),
        &snapshot_violations,
        total,
    );
    println!(
        "{}: {artifacts} outcome(s), session and snapshot audited, {} violation(s)",
        bench.name,
        session_violations.len() + snapshot_violations.len()
    );
}

fn main() {
    let cli = BenchCli::parse();
    let mut total = 0usize;
    // A flag without its operand fails instead of falling through to the
    // default mode, which would audit something else and pass.
    let operand = |key: &str| {
        cli.parsed::<String>(key)
            .unwrap_or_else(|message| fail(&message))
    };

    if let Some(path) = operand("--snapshot") {
        audit_file(std::path::Path::new(&path), &mut total);
    } else if let Some(dir) = operand("--snapshot-dir") {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|error| fail(&format!("snapshot directory `{dir}`: {error}")))
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "impactcache"))
            .collect();
        paths.sort();
        fail_if(
            paths.is_empty(),
            &format!("no *.impactcache snapshots found in `{dir}`"),
        );
        for path in &paths {
            audit_file(path, &mut total);
        }
        println!("audited {} snapshot(s) in `{dir}`", paths.len());
    } else {
        let (passes, effort, laxities) = if cli.smoke() {
            (10, (2, 3), vec![1.0, 2.0])
        } else {
            (DEFAULT_PASSES, DEFAULT_EFFORT, quick_laxities())
        };
        // `--design` is repeatable; BenchCli::value only sees the first, so
        // collect every occurrence here, and resolve every name before the
        // first synthesis.
        let args: Vec<String> = std::env::args().skip(1).collect();
        fail_if(
            args.last().is_some_and(|arg| arg == "--design"),
            "`--design` needs an operand",
        );
        let wanted: Vec<_> = args
            .windows(2)
            .filter(|pair| pair[0] == "--design")
            .map(|pair| benchmark_named(&pair[1]))
            .collect();
        let designs = if wanted.is_empty() {
            example_designs()
        } else {
            wanted
        };
        for bench in &designs {
            audit_design(bench, &laxities, passes, effort, &mut total);
        }
    }

    fail_if(
        total > 0,
        &format!("impact-verify found {total} violation(s)"),
    );
    println!("impact-verify: no violations");
}
