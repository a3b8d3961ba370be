//! The correctness gate: every report is compared bit for bit with a
//! reference — the expected file generated by the brute-force sequential
//! engine at the default seed, or the run's own first round at any other
//! seed — and failures are counted, never panicked on.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use impact_codec::{Encode, Encoder};
use impact_core::{EngineConfig, Impact, SynthesisReport};

use crate::flow::{self, Design, Job, Round, EFFORT};

/// The exact bytes of a report (every `f64` by its bit pattern).
pub fn encode_report(report: &SynthesisReport) -> Vec<u8> {
    let mut encoder = Encoder::new();
    report.encode(&mut encoder);
    encoder.into_bytes()
}

/// One line of an expected file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExpectedEntry {
    /// Design name.
    pub design: String,
    /// Job label.
    pub job: String,
    /// Encoded report.
    pub report: Vec<u8>,
}

/// Synthesizes every job of every design with `EngineConfig::sequential()`
/// — no caches, no threads, the oracle the incremental engine is pinned
/// to — and returns the reports as expected-file entries.
///
/// # Errors
///
/// Reports the first synthesis failure.
pub fn oracle_entries(designs: &[Design], jobs: &[Job]) -> Result<Vec<ExpectedEntry>, String> {
    let mut entries = Vec::with_capacity(designs.len() * jobs.len());
    for design in designs {
        for job in jobs {
            let config = job.config.clone().with_engine(EngineConfig::sequential());
            let outcome = Impact::new(config)
                .synthesize(&design.cdfg, &design.trace)
                .map_err(|e| format!("{} {}: {e}", design.name, job.label))?;
            entries.push(ExpectedEntry {
                design: design.name.to_string(),
                job: job.label.clone(),
                report: encode_report(&outcome.report),
            });
        }
    }
    Ok(entries)
}

/// Writes an expected file: a comment header, then one
/// `design<TAB>job<TAB>hex report` line per job.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_expected(path: &Path, header: &str, entries: &[ExpectedEntry]) -> io::Result<()> {
    let mut text = format!("# {header}\n");
    for entry in entries {
        let _ = write!(text, "{}\t{}\t", entry.design, entry.job);
        for byte in &entry.report {
            let _ = write!(text, "{byte:02x}");
        }
        text.push('\n');
    }
    fs::write(path, text)
}

/// Reads an expected file written by [`write_expected`].
///
/// # Errors
///
/// Reports an unreadable file or a malformed line.
pub fn read_expected(path: &Path) -> Result<Vec<ExpectedEntry>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.starts_with('#') && !line.is_empty())
        .map(|(number, line)| {
            let malformed = || format!("{}:{}: malformed line", path.display(), number + 1);
            let mut fields = line.split('\t');
            let (Some(design), Some(job), Some(hex), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(malformed());
            };
            if hex.len() % 2 != 0 {
                return Err(malformed());
            }
            let report = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
                .map_err(|_| malformed())?;
            Ok(ExpectedEntry {
                design: design.to_string(),
                job: job.to_string(),
                report,
            })
        })
        .collect()
}

/// The header line of an expected file for `passes`-pass traces at `seed`.
pub fn expected_header(passes: usize, seed: u64) -> String {
    format!(
        "reports of EngineConfig::sequential(), seed {seed}, {passes} passes, effort {EFFORT:?}"
    )
}

/// Checks a round's reports against reference bytes in the same job order.
/// Returns, per job, whether it failed: a synthesis error, a missing
/// reference or any differing bit.
pub fn failed_jobs(
    reports: &[Result<SynthesisReport, String>],
    reference: &[Vec<u8>],
) -> Vec<bool> {
    reports
        .iter()
        .enumerate()
        .map(|(index, report)| match (report, reference.get(index)) {
            (Ok(report), Some(expected)) => encode_report(report) != *expected,
            _ => true,
        })
        .collect()
}

/// The reference bytes of `entries` if they name exactly the given designs
/// and jobs, in order.
///
/// # Errors
///
/// Reports the first entry that does not line up with the job list.
pub fn aligned_reference(
    entries: &[ExpectedEntry],
    designs: &[Design],
    jobs: &[Job],
) -> Result<Vec<Vec<u8>>, String> {
    if entries.len() != designs.len() * jobs.len() {
        return Err(format!(
            "expected {} entries, found {}",
            designs.len() * jobs.len(),
            entries.len()
        ));
    }
    let names = designs.iter().flat_map(|design| {
        jobs.iter()
            .map(move |job| (design.name, job.label.as_str()))
    });
    entries
        .iter()
        .zip(names)
        .map(|(entry, (design, job))| {
            if entry.design == design && entry.job == job {
                Ok(entry.report.clone())
            } else {
                Err(format!(
                    "entry {} {} where {design} {job} was expected",
                    entry.design, entry.job
                ))
            }
        })
        .collect()
}

/// What a round's reports are compared with.
pub enum Reference {
    /// The sequential engine's reports for the default seed.
    Expected(Vec<Vec<u8>>),
    /// The expected file could not be used: every job fails.
    Broken(String),
    /// Another seed: every round must repeat the first.
    FirstRound,
}

/// Attempts and failures of a run, with the first round's results kept for
/// the audit and for seeds without an expected file.
#[derive(Default)]
pub struct Tally {
    /// Jobs and flushes attempted.
    pub attempted: u64,
    /// Jobs and flushes that failed.
    pub failed: u64,
    first_reports: Option<Vec<Vec<u8>>>,
    first_failed: Vec<bool>,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Keeps a note for the log (the first twenty only).
    pub fn note(&mut self, note: String) {
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// Counts a round's jobs and those whose report differs from the
    /// reference (and, warm, from the cold run that built the fixtures).
    pub fn jobs(&mut self, round: &Round, reference: &Reference, cold: Option<&[Vec<u8>]>) {
        let mut failed = match (reference, &self.first_reports) {
            (Reference::Expected(expected), _) => failed_jobs(&round.reports, expected),
            (Reference::Broken(_), _) => vec![true; round.reports.len()],
            (Reference::FirstRound, Some(first)) => failed_jobs(&round.reports, first),
            (Reference::FirstRound, None) => round.reports.iter().map(Result::is_err).collect(),
        };
        if let Some(cold) = cold {
            for (failed, differs) in failed.iter_mut().zip(failed_jobs(&round.reports, cold)) {
                *failed |= differs;
            }
        }
        for (index, report) in round.reports.iter().enumerate() {
            match report {
                Err(e) => self.note(format!("job {index} failed: {e}")),
                Ok(_) if failed[index] => self.note(format!("job {index}: report differs")),
                Ok(_) => {}
            }
        }
        if self.first_reports.is_none() {
            self.first_reports = Some(
                round
                    .reports
                    .iter()
                    .map(|r| r.as_ref().map(encode_report).unwrap_or_default())
                    .collect(),
            );
            self.first_failed.clone_from(&failed);
        }
        self.attempted += failed.len() as u64;
        self.failed += failed.iter().filter(|&&f| f).count() as u64;
    }

    /// Counts each flush that failed or wrote other bytes than the fixture
    /// it resumed from. Returns the bytes the round's flushes wrote.
    pub fn flushes(&mut self, round: &Round, fixtures: &[(PathBuf, (u64, u64))]) -> u64 {
        let mut written = 0;
        for ((path, fixture), flushed) in fixtures.iter().zip(&round.flushes) {
            self.attempted += 1;
            let identical = match flushed {
                Ok(()) => match flow::file_digest(path) {
                    Ok(digest) => {
                        written += digest.0;
                        digest == *fixture
                    }
                    Err(e) => {
                        self.note(format!("{}: {e}", path.display()));
                        false
                    }
                },
                Err(e) => {
                    self.note(format!("flush failed: {e}"));
                    false
                }
            };
            if !identical {
                self.failed += 1;
                self.note(format!(
                    "{}: flush differs from its fixture",
                    path.display()
                ));
            }
        }
        written
    }

    /// Counts the first round's jobs whose audit found violations, unless
    /// they already failed.
    pub fn audit(&mut self, violations: &[usize]) {
        for (index, &count) in violations.iter().enumerate() {
            if count > 0 && !self.first_failed.get(index).copied().unwrap_or(true) {
                self.failed += 1;
                self.first_failed[index] = true;
                self.note(format!("job {index}: {count} audit violations"));
            }
        }
    }
}
