//! The k-way merge behind every unit and register trace: per-node event
//! columns, each already in dynamic order, are walked in global order
//! without gathering or sorting them.

use std::ops::Range;

/// Walks key streams, each sorted, in (key, stream index) order — the order
/// a stable sort of their concatenation by key gives. Yields maximal runs
/// `(stream, rows)`: consecutive rows of one stream that all come before
/// every other stream's next entry.
///
/// The streams' next entries play a tournament (a loser tree): the winner
/// is the next entry, and the runner-up — the lowest entry that lost to it
/// on its path — ends the winner's run.
pub(crate) struct Merge<'a> {
    streams: Vec<&'a [u32]>,
    rows: Vec<usize>,
    /// `losers[node]` is the entry that lost the match at internal node
    /// `node` of a complete binary tree whose leaves `size..2 * size` are the
    /// streams (padded with exhausted ones).
    losers: Vec<u64>,
    winner: u64,
}

/// A stream's next entry as one integer whose order is (key, stream index),
/// so ties between streams go to the lower index; `u64::MAX` once the
/// stream is exhausted.
fn entry(keys: &[u32], row: usize, stream: usize) -> u64 {
    keys.get(row)
        .map_or(u64::MAX, |&key| (u64::from(key) << 32) | stream as u64)
}

impl<'a> Merge<'a> {
    pub(crate) fn new(streams: Vec<&'a [u32]>) -> Self {
        let size = streams.len().next_power_of_two();
        let mut winners = vec![u64::MAX; 2 * size];
        for (stream, keys) in streams.iter().enumerate() {
            winners[size + stream] = entry(keys, 0, stream);
        }
        let mut losers = vec![u64::MAX; size];
        for node in (1..size).rev() {
            let (left, right) = (winners[2 * node], winners[2 * node + 1]);
            winners[node] = left.min(right);
            losers[node] = left.max(right);
        }
        Self {
            rows: vec![0; streams.len()],
            streams,
            losers,
            // The root's winner, or the only leaf when `size` is 1.
            winner: winners[1],
        }
    }

    /// Internal nodes from a stream's leaf up to the root.
    fn path(&self, stream: usize) -> impl Iterator<Item = usize> {
        std::iter::successors(Some((self.losers.len() + stream) / 2), |&node| {
            Some(node / 2)
        })
        .take_while(|&node| node > 0)
    }
}

impl Iterator for Merge<'_> {
    type Item = (usize, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.winner == u64::MAX {
            return None;
        }
        let stream = (self.winner & u64::from(u32::MAX)) as usize;
        let runner_up = self.path(stream).map(|node| self.losers[node]).min();
        let bound = runner_up.unwrap_or(u64::MAX);
        let keys = self.streams[stream];
        let start = self.rows[stream];
        let mut end = start + 1;
        while entry(keys, end, stream) < bound {
            end += 1;
        }
        self.rows[stream] = end;
        // Replay the stream's matches with its new entry.
        let mut contender = entry(keys, end, stream);
        for node in self.path(stream) {
            let loser = &mut self.losers[node];
            if *loser < contender {
                std::mem::swap(loser, &mut contender);
            }
        }
        self.winner = contender;
        Some((stream, start..end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_key_then_stream() {
        let a = [1, 4, 4, 9];
        let b = [0, 4, 10];
        let c = [4];
        let runs: Vec<(usize, Range<usize>)> = Merge::new(vec![&a, &b, &[], &c]).collect();
        assert_eq!(
            runs,
            vec![
                (1, 0..1),
                (0, 0..3),
                (1, 1..2),
                (3, 0..1),
                (0, 3..4),
                (1, 2..3)
            ]
        );
        assert_eq!(Merge::new(Vec::new()).count(), 0);
        assert_eq!(Merge::new(vec![&a]).collect::<Vec<_>>(), vec![(0, 0..4)]);
        let five: Vec<Vec<u32>> = (0..5).map(|s| vec![s, s + 5, s + 10]).collect();
        let merged: Vec<(usize, Range<usize>)> =
            Merge::new(five.iter().map(Vec::as_slice).collect()).collect();
        assert_eq!(merged.len(), 15);
        assert!(merged
            .iter()
            .enumerate()
            .all(|(i, (stream, rows))| *stream == i % 5 && *rows == (i / 5..i / 5 + 1)));
    }
}
