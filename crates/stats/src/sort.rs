//! The stable ascending sort behind every fit: an LSD radix sort on an
//! order-preserving integer key of each value.
//!
//! A fit's kept samples, bandwidth and grid are a function of the order
//! its sort leaves equal values in, so the sort must be *the* stable
//! ascending order under `partial_cmp`: equal values (and `-0.0`, which
//! compares equal to `0.0`) keep their input order. The sort key maps
//! finite values to `u64`s that compare exactly as the values do — equal
//! keys for equal values, `-0.0` folded onto `0.0` — and an LSD radix
//! sort is stable, so [`radix_sort_by_value`] yields the same
//! permutation as a stable comparison sort, in a fixed number of linear
//! passes instead of `O(n log n)` comparisons.

/// The order-preserving key of a finite `f64`.
///
/// Positive values set the sign bit, so they sort above every negative
/// value and among themselves as their bits do; negative values flip all
/// bits, so a larger magnitude sorts lower. `-0.0` is folded onto `0.0`
/// first, as `partial_cmp` treats them. Non-finite values have keys too
/// but are never sorted: callers validate first.
fn sort_key(x: f64) -> u64 {
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Stably sort `items` ascending by `value` of each, which must be
/// finite: the permutation `sort_by` on `partial_cmp` makes.
///
/// One pass counts every digit of every key; then one scatter pass per
/// byte-wide digit, least significant first, into a scratch copy and
/// back. A digit every key shares moves nothing, so its pass is skipped.
pub fn radix_sort_by_value<T: Copy>(items: &mut Vec<T>, value: impl Fn(&T) -> f64) {
    const BITS: usize = 8;
    const BUCKETS: usize = 1 << BITS;
    const DIGITS: usize = u64::BITS as usize / BITS;
    let digit = |item: &T, d: usize| (sort_key(value(item)) >> (BITS * d)) as usize & (BUCKETS - 1);
    let n = items.len();
    if n < 2 {
        return;
    }
    let mut counts = vec![0usize; BUCKETS * DIGITS];
    for item in items.iter() {
        for d in 0..DIGITS {
            counts[d * BUCKETS + digit(item, d)] += 1;
        }
    }
    let mut scratch = items.clone();
    for d in 0..DIGITS {
        let next = &mut counts[d * BUCKETS..(d + 1) * BUCKETS];
        if next[digit(&items[0], d)] == n {
            continue;
        }
        let mut at = 0;
        for slot in next.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for item in items.iter() {
            let slot = &mut next[digit(item, d)];
            scratch[*slot] = *item;
            *slot += 1;
        }
        std::mem::swap(items, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A value of one of the shapes the sort must order like
    /// `partial_cmp`: signed zeros, subnormals, small integers (many
    /// duplicates), values across the whole exponent range, and both
    /// signs of each.
    fn value(h: u64) -> f64 {
        let sign = if h & 1 == 1 { -1.0 } else { 1.0 };
        let mantissa = (h >> 12) & ((1 << 52) - 1);
        match (h >> 1) % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => sign * f64::from_bits(mantissa),
            3 => sign * ((h >> 8) % 7) as f64,
            4 => sign * f64::from_bits(((h >> 4) % 2047) << 52 | mantissa),
            _ => sign * 10f64.powi(((h >> 4) % 40) as i32 - 20) * ((h >> 20) % 5) as f64,
        }
    }

    /// `n` values from a splitmix64 stream seeded with `seed`.
    fn values(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                value(z ^ (z >> 31))
            })
            .collect()
    }

    #[test]
    fn keys_order_like_values() {
        let xs = [f64::MIN, -1.0, -f64::MIN_POSITIVE, -5e-324, 0.0, 5e-324, 1.0, f64::MAX];
        for w in xs.windows(2) {
            assert!(sort_key(w[0]) < sort_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(sort_key(-0.0), sort_key(0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_radix_permutation_is_the_stable_comparison_sort(
            size in 0usize..4,
            small in 2usize..1200,
            seed in any::<u64>(),
        ) {
            let n = [0, 1, 50_000, small][size];
            let xs = values(seed, n);
            let mut radix: Vec<(f64, u32)> = xs.iter().zip(0..).map(|(&x, i)| (x, i)).collect();
            let mut oracle = radix.clone();
            radix_sort_by_value(&mut radix, |&(x, _)| x);
            oracle.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let order = |v: &[(f64, u32)]| v.iter().map(|&(_, i)| i).collect::<Vec<_>>();
            prop_assert_eq!(order(&radix), order(&oracle));
        }
    }
}
