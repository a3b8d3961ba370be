//! The benchmark suite of the IMPACT paper.
//!
//! Six behavioral designs are provided, matching Section 4 of the paper:
//!
//! | Benchmark | Character | Paper source |
//! |---|---|---|
//! | [`loops`] | nested/concurrent loops and a conditional (Figure 1) | the paper's own example |
//! | [`gcd`] | classic loop-and-branch Euclid GCD | HLSynth'95 repository \[22\] |
//! | [`x25_send`] | send process of the X.25 protocol (structure-equivalent) | \[9\] |
//! | [`dealer`] | Blackjack dealer decision process (structure-equivalent) | \[10\] |
//! | [`cordic`] | iterative coordinate rotation | \[2\] |
//! | [`paulin`] | differential-equation solver (data-dominated) | \[23\] |
//!
//! The exact X.25 and Dealer sources of [9, 10] are not publicly available;
//! the versions here preserve their control structure (nested loops around
//! skewed conditionals).
//!
//! Every [`Benchmark`] carries its behavioral source and a deterministic,
//! seeded input-sequence generator playing the role of the paper's "typical
//! input sequences".
//!
//! # Example
//!
//! ```
//! let bench = impact_benchmarks::gcd();
//! let cdfg = bench.compile()?;
//! let inputs = bench.input_sequences(32, 42);
//! let trace = impact_behsim::simulate(&cdfg, &inputs)?;
//! assert_eq!(trace.passes(), 32);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use impact_cdfg::Cdfg;
use impact_hdl::HdlError;
use rand::prelude::*;

/// One benchmark: a behavioral description plus an input model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Benchmark {
    /// Short name (`"loops"`, `"gcd"`, …).
    pub name: &'static str,
    /// One-line description of the workload.
    pub description: &'static str,
    /// Behavioral source text accepted by [`impact_hdl::compile`].
    pub source: &'static str,
    /// Inclusive value range for each primary input, in declaration order.
    pub input_ranges: &'static [(i64, i64)],
}

impl Benchmark {
    /// Compiles the benchmark into a CDFG.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (none are expected for the built-in
    /// sources; the error type is kept for uniformity with user designs).
    pub fn compile(&self) -> Result<Cdfg, HdlError> {
        impact_hdl::compile(self.source)
    }

    /// Generates `passes` input vectors, one value per primary input, drawn
    /// uniformly from [`Benchmark::input_ranges`] with the given seed.
    pub fn input_sequences(&self, passes: usize, seed: u64) -> Vec<Vec<i64>> {
        let mut rng = StdRng::seed_from_u64(seed ^ fxhash(self.name));
        (0..passes)
            .map(|_| {
                self.input_ranges
                    .iter()
                    .map(|&(lo, hi)| rng.random_range(lo..=hi))
                    .collect()
            })
            .collect()
    }
}

fn fxhash(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// The paper's own `Loops` example (Figure 1): an outer counted loop around a
/// conditional whose else-side contains two independent inner loops that
/// Wavesched can run concurrently.
pub fn loops() -> Benchmark {
    Benchmark {
        name: "loops",
        description: "Figure 1 example: nested and concurrent loops below a data-dependent branch",
        source: r#"
design loops {
  input a: 1, b: 1, d: 8;
  output zout: 16;
  var z: 16 = 0;
  var i: 8; var j: 8; var n: 8;
  var h: 8 = 0; var m: 8 = 0; var k: 8 = 0;
  var g: 8; var e: 16; var c: 1;
  for (i = 0; i < 10; i = i + 1) {
    c = a && b;
    e = d * i;
    z = z + e;
    if (c == 1) {
      z = 0;
    } else {
      j = 0;
      n = 0;
      while (j < 8) { g = j + h; h = g + 5; j = j + 1; }
      while (n < 8) { m = m + k; k = d * n; n = n + 1; }
      z = h - m;
      h = 8;
      m = 0;
    }
  }
  zout = z;
}
"#,
        input_ranges: &[(0, 1), (0, 1), (0, 15)],
    }
}

/// Euclid's greatest common divisor from the HLSynth'95 repository.
pub fn gcd() -> Benchmark {
    Benchmark {
        name: "gcd",
        description: "greatest common divisor: data-dependent loop around a two-way branch",
        source: r#"
design gcd {
  input a: 8, b: 8;
  output result: 8;
  var x: 8; var y: 8;
  x = a;
  y = b;
  while (x != y) {
    if (x > y) { x = x - y; } else { y = y - x; }
  }
  result = x;
}
"#,
        input_ranges: &[(1, 200), (1, 200)],
    }
}

/// Send process of the X.25 link protocol (structure-equivalent model):
/// window-limited transmission with acknowledgement and error handling.
pub fn x25_send() -> Benchmark {
    Benchmark {
        name: "x25_send",
        description: "X.25 send process: window-limited framing with ack/retry control flow",
        source: r#"
design x25_send {
  input frame_len: 8, window: 4, ack: 1, err: 1, credit: 4;
  output sent: 8, retries: 8;
  var seq: 4 = 0; var count: 8 = 0; var retry: 8 = 0;
  var remaining: 8; var w: 4; var chunk: 8;
  remaining = frame_len;
  w = window;
  while (remaining > 0) {
    if (w > 0) {
      chunk = remaining;
      if (chunk > 16) { chunk = 16; }
      count = count + 1;
      seq = seq + 1;
      if (seq >= 8) { seq = 0; }
      remaining = remaining - chunk;
      w = w - 1;
    } else {
      if (ack == 1) { w = credit; } else { retry = retry + 1; w = 1; }
    }
    if (err == 1) { retry = retry + 1; }
  }
  sent = count;
  retries = retry;
}
"#,
        input_ranges: &[(1, 120), (1, 7), (0, 1), (0, 1), (1, 7)],
    }
}

/// Blackjack dealer process (structure-equivalent model): draw until the hand
/// reaches 17, handling aces and busts.
pub fn dealer() -> Benchmark {
    Benchmark {
        name: "dealer",
        description: "Blackjack dealer: draw-until-17 loop with ace and bust handling",
        source: r#"
design dealer {
  input c1: 4, c2: 4, c3: 4, c4: 4, c5: 4;
  output total: 8, bust: 1;
  var sum: 8 = 0; var card: 4; var n: 4 = 0; var aces: 4 = 0; var busted: 1 = 0;
  sum = c1 + c2;
  while (sum < 17) {
    n = n + 1;
    if (n == 1) { card = c3; } else { if (n == 2) { card = c4; } else { card = c5; } }
    if (card == 1) { aces = aces + 1; sum = sum + 11; } else { sum = sum + card; }
    if (sum > 21) {
      if (aces > 0) { sum = sum - 10; aces = aces - 1; } else { busted = 1; sum = 22; }
    }
    if (n >= 3) {
      if (sum < 17) { sum = 17; }
    }
  }
  total = sum;
  bust = busted;
}
"#,
        input_ranges: &[(1, 10), (1, 10), (1, 10), (1, 10), (1, 10)],
    }
}

/// Iterative CORDIC-style coordinate rotation with a fixed iteration count.
pub fn cordic() -> Benchmark {
    Benchmark {
        name: "cordic",
        description:
            "CORDIC coordinate rotation: fixed-count loop with a data-dependent branch per step",
        source: r#"
design cordic {
  input x0: 12, y0: 12, angle: 12;
  output xr: 12, yr: 12;
  var x: 12; var y: 12; var zr: 12; var i: 4; var dx: 12; var dy: 12;
  x = x0;
  y = y0;
  zr = angle;
  for (i = 0; i < 8; i = i + 1) {
    dx = x >> i;
    dy = y >> i;
    if (zr > 0) { x = x - dy; y = y + dx; zr = zr - 1; }
    else { x = x + dy; y = y - dx; zr = zr + 1; }
  }
  xr = x;
  yr = y;
}
"#,
        input_ranges: &[(1, 255), (1, 255), (-8, 8)],
    }
}

/// The Paulin differential-equation benchmark (data-dominated, used to show
/// IMPACT also handles data-dominated designs).
pub fn paulin() -> Benchmark {
    Benchmark {
        name: "paulin",
        description: "Paulin differential-equation solver: multiply-heavy data-dominated loop body",
        source: r#"
design paulin {
  input x0: 8, y0: 8, u0: 8, dx: 8, a: 8;
  output xo: 8, yo: 16, uo: 16;
  var x: 8; var y: 16; var u: 16;
  var t1: 16; var t2: 16; var t3: 16; var t4: 16; var t5: 16; var t6: 16;
  x = x0;
  y = y0;
  u = u0;
  while (x < a) {
    t1 = u * dx;
    t2 = 3 * x;
    t3 = 3 * y;
    t4 = t1 * t2;
    t5 = dx * t3;
    t6 = u - t4;
    u = t6 - t5;
    y = y + t1;
    x = x + dx;
  }
  xo = x;
  yo = y;
  uo = u;
}
"#,
        input_ranges: &[(0, 8), (1, 10), (1, 10), (1, 4), (10, 30)],
    }
}

/// All six benchmarks in the order the paper reports them (Figure 13 a–f).
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![loops(), gcd(), dealer(), x25_send(), cordic(), paulin()]
}

/// Looks a benchmark up by name (case-insensitive).
pub fn by_name(name: &str) -> Option<Benchmark> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_behsim::simulate;

    #[test]
    fn all_benchmarks_compile_and_validate() {
        for bench in all_benchmarks() {
            let cdfg = bench
                .compile()
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", bench.name));
            assert!(
                cdfg.validate().is_ok(),
                "{} is structurally invalid",
                bench.name
            );
            assert!(
                cdfg.node_count() > 5,
                "{} is suspiciously small",
                bench.name
            );
        }
    }

    #[test]
    fn all_benchmarks_simulate_on_generated_inputs() {
        for bench in all_benchmarks() {
            let cdfg = bench.compile().unwrap();
            let inputs = bench.input_sequences(40, 7);
            let trace = simulate(&cdfg, &inputs)
                .unwrap_or_else(|e| panic!("{} failed to simulate: {e}", bench.name));
            assert_eq!(trace.passes(), 40);
            assert!(trace.event_count() > 0);
        }
    }

    #[test]
    fn input_generation_is_deterministic_per_seed() {
        let b = gcd();
        assert_eq!(b.input_sequences(10, 3), b.input_sequences(10, 3));
        assert_ne!(b.input_sequences(10, 3), b.input_sequences(10, 4));
    }

    #[test]
    fn input_values_respect_their_ranges() {
        for bench in all_benchmarks() {
            for pass in bench.input_sequences(50, 11) {
                assert_eq!(pass.len(), bench.input_ranges.len());
                for (value, &(lo, hi)) in pass.iter().zip(bench.input_ranges) {
                    assert!(
                        *value >= lo && *value <= hi,
                        "{}: {value} not in [{lo}, {hi}]",
                        bench.name
                    );
                }
            }
        }
    }

    #[test]
    fn gcd_results_match_euclid() {
        fn reference(mut a: i64, mut b: i64) -> i64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        let bench = gcd();
        let cdfg = bench.compile().unwrap();
        let inputs = bench.input_sequences(25, 99);
        let trace = simulate(&cdfg, &inputs).unwrap();
        let out = cdfg.variable_by_name("result").unwrap();
        for (pass, input) in inputs.iter().enumerate() {
            assert_eq!(
                trace.output(pass, out),
                Some(reference(input[0], input[1])),
                "gcd({}, {}) mismatch",
                input[0],
                input[1]
            );
        }
    }

    #[test]
    fn loops_benchmark_exposes_concurrent_inner_loops() {
        let cdfg = loops().compile().unwrap();
        // Outer loop plus two inner loops.
        assert_eq!(impact_cdfg::region::total_loop_count(cdfg.regions()), 3);
    }

    #[test]
    fn dealer_never_reports_totals_below_17() {
        let bench = dealer();
        let cdfg = bench.compile().unwrap();
        let inputs = bench.input_sequences(60, 5);
        let trace = simulate(&cdfg, &inputs).unwrap();
        let total = cdfg.variable_by_name("total").unwrap();
        for pass in 0..inputs.len() {
            let t = trace.output(pass, total).unwrap();
            assert!(t >= 17, "dealer stood on {t}");
        }
    }

    #[test]
    fn cordic_rotation_direction_follows_the_angle_sign() {
        let bench = cordic();
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &[vec![100, 100, 8], vec![100, 100, -8]]).unwrap();
        let xr = cdfg.variable_by_name("xr").unwrap();
        let plus = trace.output(0, xr).unwrap();
        let minus = trace.output(1, xr).unwrap();
        assert_ne!(plus, minus, "opposite angles must rotate differently");
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(by_name("GCD").is_some());
        assert!(by_name("cordic").is_some());
        assert!(by_name("unknown").is_none());
        assert_eq!(all_benchmarks().len(), 6);
    }
}
