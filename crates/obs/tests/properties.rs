//! Property tests for the observability primitives, over deterministic
//! pseudo-random inputs (a seeded SplitMix64 stream — no RNG crate, and
//! every failure reproduces from the printed seed).
//!
//! * log2 histograms: the buckets partition `u64`, a snapshot's buckets
//!   sum to its count, and everything at or above the top-bucket threshold
//!   saturates into the top bucket instead of widening the array;
//! * trace cards: stamps are monotone under in-order stamping, the stage
//!   breakdown reconstructs the end-to-end latency *exactly* (for
//!   arbitrary, even adversarial, stamp patterns), and the journal event
//!   packing round-trips.

use amopt_obs::{
    bucket_bound, bucket_index, HistSnapshot, Histogram, RequestTrace, Stage, TraceCard,
    HIST_BUCKETS, STAGES, STAGE_COUNT,
};

/// SplitMix64: the standard 64-bit finalizer; bijective and well mixed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `i`-th draw of the seeded stream, skewed so small values, mid
/// values, and near-max values all occur (a uniform u64 draw almost never
/// exercises the low buckets).
fn draw(seed: u64, i: u64) -> u64 {
    let r = splitmix64(seed ^ i);
    match r % 4 {
        0 => r % 16,                    // low buckets, including exact zero
        1 => r % (1 << 20),             // mid buckets
        2 => r >> (r % 33),             // variable magnitude
        _ => u64::MAX - (r % (1 << 8)), // top-bucket saturation range
    }
}

#[test]
fn buckets_partition_the_u64_range() {
    // Every value lands in exactly one bucket, below that bucket's bound
    // and above the previous bucket's bound.
    for i in 0..4096u64 {
        let v = draw(0xB0C4E7, i);
        let b = bucket_index(v);
        assert!(b < HIST_BUCKETS, "bucket {b} out of range for {v}");
        assert!(v <= bucket_bound(b), "{v} above its bucket bound {}", bucket_bound(b));
        if b > 0 {
            assert!(v > bucket_bound(b - 1), "{v} at or below the previous bound");
        }
    }
    // The boundaries themselves are exact: each bound is the largest value
    // of its bucket, and bound+1 starts the next bucket.
    assert_eq!(bucket_index(0), 0, "bucket 0 holds exact zeros");
    assert_eq!(bucket_index(1), 1);
    for b in 1..HIST_BUCKETS - 1 {
        assert_eq!(bucket_index(bucket_bound(b)), b);
        assert_eq!(bucket_index(bucket_bound(b) + 1), b + 1);
    }
    assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
}

/// Records `n` draws of `seed` into a fresh histogram and snapshots it.
fn random_snapshot(seed: u64, n: u64) -> HistSnapshot {
    let hist = Histogram::detached();
    for i in 0..n {
        hist.record(draw(seed, i));
    }
    hist.snapshot()
}

#[test]
fn snapshot_counts_are_internally_consistent() {
    let snap = random_snapshot(0x5EED, 2048);
    assert_eq!(snap.count, 2048);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count, "buckets must sum to count");
    let expected_sum: u64 = (0..2048).map(|i| draw(0x5EED, i)).fold(0, u64::wrapping_add);
    assert_eq!(snap.sum, expected_sum, "sum must add up every recorded value");
}

#[test]
fn top_bucket_saturates_instead_of_widening() {
    // Everything with bit length ≥ the top bucket index lands in the top
    // bucket — the array never widens, huge values never wrap around.
    let threshold = 1u64 << (HIST_BUCKETS - 2);
    assert_eq!(bucket_index(threshold - 1), HIST_BUCKETS - 2, "below threshold: last finite");
    assert_eq!(bucket_index(threshold), HIST_BUCKETS - 1, "at threshold: top bucket");
    let hist = Histogram::detached();
    let mut recorded = 0u64;
    for i in 0..256u64 {
        let huge = threshold.saturating_add(splitmix64(i)); // ≥ threshold, up to u64::MAX
        hist.record(huge);
        recorded += 1;
    }
    let snap = hist.snapshot();
    assert_eq!(snap.buckets[HIST_BUCKETS - 1], recorded, "every huge value in the top bucket");
    assert_eq!(snap.count, recorded);
}

#[test]
fn in_order_stamping_yields_monotone_cards_that_sum_exactly() {
    for round in 0..64u64 {
        let seed = splitmix64(0x7_4ACE ^ round);
        let trace = RequestTrace::start();
        // Stamp a random subset of stages, in stage order (as the service
        // does); real elapsed time makes the stamps genuinely increasing.
        for (i, &stage) in STAGES.iter().enumerate() {
            if !splitmix64(seed ^ i as u64).is_multiple_of(4) {
                trace.stamp(stage);
            }
        }
        assert!(trace.finish(), "first finish must win");
        assert!(!trace.finish(), "second finish must be a no-op");
        let card = trace.card();
        assert!(card.is_monotone(), "in-order stamps must be monotone: {card:?}");
        let sum: u64 = card.breakdown().iter().map(|&(_, d)| d).sum();
        assert_eq!(
            sum,
            card.end_to_end_nanos(),
            "stage breakdown must reconstruct the end-to-end latency exactly: {card:?}"
        );
    }
}

#[test]
fn breakdown_sums_to_end_to_end_for_arbitrary_stamp_patterns() {
    // The exact-sum identity holds for *any* stamp pattern — including
    // unstamped holes and non-monotone (clock-skewed) stamps — because the
    // per-stage durations telescope along the running maximum.
    for round in 0..4096u64 {
        let seed = splitmix64(0xCA4D ^ round);
        let mut stamps = [0u64; STAGE_COUNT];
        for (i, slot) in stamps.iter_mut().enumerate() {
            let r = splitmix64(seed ^ (i as u64) << 8);
            *slot = match r % 3 {
                0 => 0, // unstamped hole
                1 => r % 1_000,
                _ => r % 1_000_000_000,
            };
        }
        let card = TraceCard { id: round, kind: round % 4, flags: 0, stamps };
        let sum: u64 = card.stage_nanos().iter().flatten().sum();
        assert_eq!(sum, card.end_to_end_nanos(), "telescoping failed for {card:?}");
    }
}

#[test]
fn trace_cards_round_trip_through_journal_events() {
    for round in 0..512u64 {
        let seed = splitmix64(0xE7E47 ^ round);
        let mut stamps = [0u64; STAGE_COUNT];
        for (i, slot) in stamps.iter_mut().enumerate() {
            *slot = splitmix64(seed ^ i as u64);
        }
        let card = TraceCard {
            id: splitmix64(seed),
            // kind and flags share a payload word: 32 bits each.
            kind: splitmix64(seed ^ 1) >> 32,
            flags: splitmix64(seed ^ 2) & 0xffff_ffff,
            stamps,
        };
        let unpacked = TraceCard::from_event(&card.to_event()).expect("trace event unpacks");
        assert_eq!(unpacked, card, "journal packing must be lossless");
    }
}

#[test]
fn stamps_are_first_write_wins() {
    let trace = RequestTrace::start();
    trace.stamp(Stage::Parsed);
    let card = trace.card();
    let first = card.stamps[Stage::Parsed as usize];
    assert!(first > 0, "a stamp is never stored as zero");
    std::thread::sleep(std::time::Duration::from_millis(1));
    trace.stamp(Stage::Parsed);
    assert_eq!(
        trace.card().stamps[Stage::Parsed as usize],
        first,
        "re-stamping must not move an existing stamp"
    );
}
