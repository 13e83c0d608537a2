//! `EliasFano::range` — the one-select block-range probe the random-access
//! store runs per row — must agree with two independent `get`s on every
//! shape of offset index: runs of equal values (empty blocks), `l = 0`
//! universes, and neighbouring elements whose high bits sit in different
//! words of the upper bitvector.

use proptest::prelude::*;
use ssr_store::EliasFano;

fn assert_range_matches_get(values: &[u64]) {
    let ef = EliasFano::from_monotone(values);
    for i in 0..values.len().saturating_sub(1) {
        assert_eq!(
            ef.range(i),
            (ef.get(i), ef.get(i + 1)),
            "range({i}) of {} values",
            values.len()
        );
        assert_eq!(ef.range(i), (values[i], values[i + 1]));
    }
}

/// Prefix sums of `gaps` starting at `start`: a monotone sequence.
fn monotone(start: u64, gaps: Vec<u64>) -> Vec<u64> {
    let mut acc = start;
    std::iter::once(start)
        .chain(gaps.into_iter().map(|g| {
            acc += g;
            acc
        }))
        .collect()
}

/// Gap scales: 0..=1 gives mostly-empty blocks and `l = 0`; 64 and
/// 2^20 give realistic to sparse indexes; the last mode is long runs of
/// equal values broken by rare huge jumps, so consecutive set bits of
/// the upper bitvector land many (possibly empty) words apart.
fn arb_offsets() -> impl Strategy<Value = Vec<u64>> {
    (0usize..5, 0u64..1_000, 1usize..700).prop_flat_map(|(mode, start, len)| {
        proptest::collection::vec(0u64..1 << 20, len).prop_map(move |raw| {
            let gaps = raw
                .into_iter()
                .map(|x| match mode {
                    0 => x & 1,
                    1 => x % 65,
                    2 => x,
                    3 => u64::from(x % 7 == 0) * (x % 3),
                    _ => u64::from(x % 97 == 0) * x * 4_096,
                })
                .collect();
            monotone(start, gaps)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_equals_two_gets(values in arb_offsets()) {
        assert_range_matches_get(&values);
    }
}
