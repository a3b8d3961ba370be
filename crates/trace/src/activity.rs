//! Bit-level switching statistics over value sequences.

/// Hamming distance between two values restricted to `width` bits.
///
/// ```
/// use impact_trace::hamming_distance;
/// assert_eq!(hamming_distance(0b1010, 0b0110, 4), 2);
/// assert_eq!(hamming_distance(-1, 0, 8), 8);
/// ```
pub fn hamming_distance(a: i64, b: i64, width: u8) -> u32 {
    let mask: u64 = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    (((a ^ b) as u64) & mask).count_ones()
}

/// Total number of bit toggles along a value sequence, restricted to `width`
/// bits.
pub fn toggle_count(values: &[i64], width: u8) -> u64 {
    values
        .windows(2)
        .map(|w| u64::from(hamming_distance(w[0], w[1], width)))
        .sum()
}

/// Mean per-transition switching activity of a value sequence, normalized to
/// the bit width: 0.0 for a constant signal, 1.0 when every bit toggles on
/// every transition.
///
/// ```
/// use impact_trace::sequence_activity;
/// assert_eq!(sequence_activity(&[5, 5, 5], 8), 0.0);
/// assert_eq!(sequence_activity(&[0, 255, 0], 8), 1.0);
/// ```
pub fn sequence_activity(values: &[i64], width: u8) -> f64 {
    activity_of(toggle_count(values, width), values.len(), width)
}

fn activity_of(toggles: u64, values: usize, width: u8) -> f64 {
    if values < 2 || width == 0 {
        return 0.0;
    }
    toggles as f64 / ((values - 1) as f64 * f64::from(width))
}

/// [`sequence_activity`] of a sequence observed a few values at a time.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Toggles {
    last: i64,
    toggles: u64,
    values: usize,
}

impl Toggles {
    /// Appends `values` to the sequence.
    pub(crate) fn extend(&mut self, values: &[i64], width: u8) {
        let (Some(&first), Some(&last)) = (values.first(), values.last()) else {
            return;
        };
        if self.values > 0 {
            self.toggles += u64::from(hamming_distance(self.last, first, width));
        }
        self.toggles += toggle_count(values, width);
        self.last = last;
        self.values += values.len();
    }

    /// Appends `count` zeros to the sequence.
    pub(crate) fn extend_zeros(&mut self, count: usize, width: u8) {
        if count > 0 {
            self.extend(&[0], width);
            self.values += count - 1;
        }
    }

    /// Number of values appended so far.
    pub(crate) fn values(&self) -> usize {
        self.values
    }

    pub(crate) fn activity(&self, width: u8) -> f64 {
        activity_of(self.toggles, self.values, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_masks_to_width() {
        assert_eq!(hamming_distance(0xFF, 0x00, 4), 4);
        assert_eq!(hamming_distance(0xFF, 0x00, 8), 8);
        assert_eq!(hamming_distance(7, 7, 8), 0);
    }

    #[test]
    fn hamming_full_width_handles_negative_values() {
        assert_eq!(hamming_distance(-1, 0, 64), 64);
    }

    #[test]
    fn toggle_count_accumulates_over_the_sequence() {
        assert_eq!(toggle_count(&[0, 1, 3, 2], 8), 1 + 1 + 1);
        assert_eq!(toggle_count(&[], 8), 0);
        assert_eq!(toggle_count(&[42], 8), 0);
    }

    #[test]
    fn activity_is_normalized_per_bit_and_transition() {
        // One of four bits toggles on each of two transitions.
        assert!((sequence_activity(&[0b0000, 0b0001, 0b0011], 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sequences_have_zero_activity() {
        assert_eq!(sequence_activity(&[], 8), 0.0);
        assert_eq!(sequence_activity(&[1], 8), 0.0);
        assert_eq!(sequence_activity(&[1, 2], 0), 0.0);
    }

    #[test]
    fn alternating_extremes_give_unit_activity() {
        assert!((sequence_activity(&[0, 15, 0, 15], 4) - 1.0).abs() < 1e-12);
    }
}
