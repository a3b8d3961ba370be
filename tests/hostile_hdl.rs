#![allow(clippy::unwrap_used)]

//! Hostile HDL text never panics: seeded mutants of the six benchmark
//! sources go through `impact_hdl::compile` and, when they compile, through
//! `impact_behsim::simulate`, and every call returns `Ok` or `Err`.
//!
//! Heavy mutations (deleting, duplicating or truncating spans, inserting a
//! keyword, an operator or a printable character) mostly stop in the lexer
//! or the parser. Single-token edits (one operator, number or name replaced
//! by another of its kind) mostly still compile, so lowering and simulation
//! see malformed designs too: the test requires a minimum number of
//! compiled mutants.

use std::panic::{catch_unwind, AssertUnwindSafe};

use impact::behsim::simulate;
use impact::benchmarks::all_benchmarks;
use impact::hdl::compile;
use rand::{Rng, SeedableRng, StdRng};

const KEYWORDS: &[&str] = &[
    "design", "input", "output", "var", "if", "else", "while", "for",
];

const OPERATORS: &[&str] = &[
    "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||", "!", "&", "|", "^", "~",
    "<<", ">>", "=", ";", ",", ":", "(", ")", "{", "}",
];

/// A random byte offset into `text` (every benchmark source is ASCII, so
/// every offset is a character boundary).
fn offset(rng: &mut StdRng, text: &str) -> usize {
    rng.random_range(0..=text.len())
}

/// One heavy mutation: a span deleted or duplicated, the text truncated, or
/// a keyword, operator or printable character inserted.
fn heavy(rng: &mut StdRng, source: &str) -> String {
    let mut text = source.to_string();
    let at = offset(rng, &text);
    let end = (at + rng.random_range(1..=24usize)).min(text.len());
    match rng.random_range(0..6u32) {
        0 => {
            text.replace_range(at..end, "");
        }
        1 => {
            let span = text[at..end].to_string();
            text.insert_str(end, &span);
        }
        2 => text.truncate(at),
        3 => text.insert_str(
            at,
            &format!(" {} ", KEYWORDS[rng.random_range(0..KEYWORDS.len())]),
        ),
        4 => text.insert_str(at, OPERATORS[rng.random_range(0..OPERATORS.len())]),
        _ => text.insert(at, char::from(rng.random_range(0x20..0x7fu8))),
    }
    text
}

/// The tokens of `source` as byte ranges: runs of alphanumerics and
/// underscores, and single punctuation characters.
fn tokens(source: &str) -> Vec<(usize, usize)> {
    let bytes = source.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut spans = Vec::new();
    let mut start = 0;
    while start < bytes.len() {
        let mut end = start + 1;
        if word(bytes[start]) {
            while end < bytes.len() && word(bytes[end]) {
                end += 1;
            }
        }
        if !bytes[start].is_ascii_whitespace() {
            spans.push((start, end));
        }
        start = end;
    }
    spans
}

/// One light mutation: a single token replaced by another of its kind — an
/// operator by an operator, a number by a small number, a name by another
/// name of the source.
fn light(rng: &mut StdRng, source: &str, spans: &[(usize, usize)]) -> String {
    let (start, end) = spans[rng.random_range(0..spans.len())];
    let token = &source[start..end];
    let replacement = if token.bytes().all(|b| b.is_ascii_digit()) {
        rng.random_range(0..300u32).to_string()
    } else if token
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_')
    {
        let names: Vec<&str> = spans
            .iter()
            .map(|&(s, e)| &source[s..e])
            .filter(|t| t.bytes().next().is_some_and(|b| b.is_ascii_alphabetic()))
            .collect();
        names[rng.random_range(0..names.len())].to_string()
    } else {
        OPERATORS[rng.random_range(0..OPERATORS.len())].to_string()
    };
    format!("{}{replacement}{}", &source[..start], &source[end..])
}

#[test]
fn mutated_benchmark_sources_compile_and_simulate_or_fail_cleanly() {
    let mut rng = StdRng::seed_from_u64(0x4d55_7441);
    let (mut compiled, mut simulated) = (0, 0);
    for bench in all_benchmarks() {
        let spans = tokens(bench.source);
        for index in 0..400 {
            let mutant = if index % 2 == 0 {
                heavy(&mut rng, bench.source)
            } else {
                light(&mut rng, bench.source, &spans)
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let Ok(cdfg) = compile(&mutant) else {
                    return (false, false);
                };
                // Inputs for the mutant's own ports, from the benchmark's
                // ranges where the port count still matches.
                let ports = cdfg.primary_inputs().len();
                let inputs = if ports == bench.input_ranges.len() {
                    bench.input_sequences(4, 1998)
                } else {
                    (0..4).map(|pass| vec![pass as i64 + 1; ports]).collect()
                };
                (true, simulate(&cdfg, &inputs).is_ok())
            }));
            let Ok((did_compile, did_simulate)) = outcome else {
                panic!("{} mutant {index} panicked:\n{mutant}", bench.name);
            };
            compiled += usize::from(did_compile);
            simulated += usize::from(did_simulate);
        }
    }
    assert!(
        compiled >= 200 && simulated > 0,
        "{compiled} mutants compiled, {simulated} simulated"
    );
}
