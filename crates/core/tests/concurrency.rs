#![allow(clippy::unwrap_used)]

//! Concurrency and algebra of the shared cache merge path: `export` racing
//! `absorb` on one [`InMemoryCache`] never observes a torn snapshot, and
//! `absorb` is idempotent and order-independent — the properties snapshot
//! loads and `SweepSession::merge_from` rely on when the same entries arrive
//! in arbitrary order and possibly more than once.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use impact_behsim::simulate;
use impact_core::{
    encode_snapshot, CacheBackend, CacheSnapshot, ContextKey, Impact, InMemoryCache, SweepSession,
    SynthesisConfig,
};
use proptest::prelude::*;

/// One real run's cache contents, built once — synthesis is the expensive
/// part of these tests and every case partitions the same snapshot.
fn populated_snapshot() -> &'static CacheSnapshot {
    static SNAPSHOT: OnceLock<CacheSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(6, 11)).unwrap();
        let session = SweepSession::new();
        for laxity in [1.4, 2.2] {
            Impact::new(SynthesisConfig::power_optimized(laxity).with_effort(2, 3))
                .synthesize_with_session(&cdfg, &trace, &session)
                .unwrap();
        }
        session.backend().export()
    })
}

/// The context layer's keys. Contexts are session-local, so the snapshot
/// bytes these tests compare leave them out; their keys are compared apart.
fn context_keys(snapshot: &CacheSnapshot) -> BTreeSet<ContextKey> {
    snapshot.contexts.keys().copied().collect()
}

/// Splits a snapshot into two disjoint parts: entry `i` (counted across the
/// layers in sorted key order, so the partition is deterministic) goes to
/// the first part when bit `i % 64` of `mask` is set.
fn partition(snapshot: &CacheSnapshot, mask: u64) -> (CacheSnapshot, CacheSnapshot) {
    let mut a = CacheSnapshot::default();
    let mut b = CacheSnapshot::default();
    let mut index = 0usize;
    macro_rules! split {
        ($field:ident) => {
            let mut entries: Vec<_> = snapshot.$field.iter().collect();
            entries.sort_by_key(|(key, _)| **key);
            for (key, value) in entries {
                if (mask >> (index % 64)) & 1 == 1 {
                    a.$field.insert(*key, value.clone());
                } else {
                    b.$field.insert(*key, value.clone());
                }
                index += 1;
            }
        };
    }
    split!(points);
    split!(scaled);
    split!(contexts);
    split!(schedules);
    split!(block_schedules);
    split!(fu_stats);
    split!(reg_stats);
    split!(mux_stats);
    let _ = index;
    (a, b)
}

#[test]
fn export_racing_absorb_never_tears() {
    let snapshot = populated_snapshot();
    let total = snapshot.len();
    assert!(total > 0, "a real run populates the cache");
    let (first, second) = partition(snapshot, 0xAAAA_AAAA_AAAA_AAAA);
    let cache = InMemoryCache::new();
    cache.absorb(first.clone());

    std::thread::scope(|scope| {
        // One thread merges the second half in small pieces while the others
        // continuously export. Every export must see a coherent prefix of
        // the merge: at least the first half, never more than the union, and
        // sizes only grow (absorb never removes entries).
        scope.spawn(|| {
            for shift in 0..64 {
                let (piece, _) = partition(&second, 1u64 << shift);
                cache.absorb(piece);
            }
            cache.absorb(second.clone());
        });
        for _ in 0..2 {
            scope.spawn(|| {
                let mut last_len = 0usize;
                for _ in 0..50 {
                    let view = cache.export();
                    assert!(view.len() >= first.len(), "the first half never vanishes");
                    assert!(view.len() <= total, "no entry appears from nowhere");
                    assert!(view.len() >= last_len, "absorb only ever adds entries");
                    last_len = view.len();
                }
            });
        }
    });

    assert_eq!(
        encode_snapshot(&cache.export()),
        encode_snapshot(snapshot),
        "after the race the merge converged on the full snapshot"
    );
    assert_eq!(context_keys(&cache.export()), context_keys(snapshot));
}

#[test]
fn concurrent_absorbs_from_many_threads_converge() {
    let snapshot = populated_snapshot();
    let (a, rest) = partition(snapshot, 0x9249_2492_4924_9249);
    let (b, c) = partition(&rest, 0x5555_5555_5555_5555);
    let cache = InMemoryCache::new();
    std::thread::scope(|scope| {
        for part in [&a, &b, &c] {
            scope.spawn(|| {
                cache.absorb(part.clone());
            });
        }
    });
    assert_eq!(encode_snapshot(&cache.export()), encode_snapshot(snapshot));
    assert_eq!(context_keys(&cache.export()), context_keys(snapshot));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Absorbing the same snapshot twice changes nothing: the second pass is
    /// all duplicates and the contents (hence the encoded bytes) are stable.
    #[test]
    fn absorb_is_idempotent(mask in any::<u64>()) {
        let (part, _) = partition(populated_snapshot(), mask);
        let entries = part.len() as u64;
        let cache = InMemoryCache::new();
        let first = cache.absorb(part.clone());
        prop_assert_eq!(first.absorbed, entries);
        let after_once = encode_snapshot(&cache.export());
        let second = cache.absorb(part);
        prop_assert_eq!(second.absorbed, 0);
        prop_assert_eq!(second.duplicates, entries);
        prop_assert_eq!(encode_snapshot(&cache.export()), after_once);
    }

    /// Merge order never matters: A then B equals B then A byte-for-byte,
    /// and both equal the undivided snapshot.
    #[test]
    fn absorb_is_order_independent(mask in any::<u64>()) {
        let snapshot = populated_snapshot();
        let (a, b) = partition(snapshot, mask);
        let ab = InMemoryCache::new();
        ab.absorb(a.clone());
        ab.absorb(b.clone());
        let ba = InMemoryCache::new();
        ba.absorb(b);
        ba.absorb(a);
        let bytes_ab = encode_snapshot(&ab.export());
        prop_assert_eq!(&bytes_ab, &encode_snapshot(&ba.export()));
        prop_assert_eq!(&bytes_ab, &encode_snapshot(snapshot));
        prop_assert_eq!(context_keys(&ab.export()), context_keys(&ba.export()));
        prop_assert_eq!(context_keys(&ab.export()), context_keys(snapshot));
    }
}
