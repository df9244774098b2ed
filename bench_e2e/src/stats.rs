//! The harness's own arithmetic: medians, tail percentiles, quartered
//! growth and the decision digest.

/// Percentiles a timing may be reported at, highest first, each with the
/// share of the samples beyond it in thousandths (whole numbers, so that
/// "ten samples beyond" is decided without rounding).
const LADDER: [(f64, usize); 6] = [
    (99.9, 1),
    (99.0, 10),
    (95.0, 50),
    (90.0, 100),
    (75.0, 250),
    (50.0, 500),
];

/// The highest percentile of [`LADDER`] that is at most `want` and still has
/// at least ten samples beyond it in a set of `n`; the median when none has.
pub fn reportable_percentile(n: usize, want: f64) -> f64 {
    LADDER
        .iter()
        .filter(|&&(p, _)| p <= want)
        .find(|&&(_, beyond)| n * beyond >= 10 * 1000)
        .map_or(50.0, |&(p, _)| p)
}

/// The `p`-th percentile (nearest rank) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile of an ascending slice that [`reportable_percentile`]
/// allows for `want`.
pub fn tail(sorted: &[f64], want: f64) -> f64 {
    percentile(sorted, reportable_percentile(sorted.len(), want))
}

/// The median of `values` (mean of the two middle values for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Retained-state cost: busy time of the last quarter of the calls divided
/// by busy time of the first quarter, in call order. 0 with fewer than four
/// calls or an idle first quarter.
pub fn growth(durations: &[f64]) -> f64 {
    let quarter = durations.len() / 4;
    if quarter == 0 {
        return 0.0;
    }
    let first: f64 = durations[..quarter].iter().sum();
    let last: f64 = durations[durations.len() - quarter..].iter().sum();
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// FNV-1a over everything fed in: the decision digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feed a string plus a terminator, so `("ab", "c")` and `("a", "bc")`
    /// digest differently.
    pub fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn number(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, so inputs are a
/// pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0; the modulo bias is irrelevant at
    /// the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 10 / (1 - p) samples are the least that leave ten beyond p.
        assert_eq!(reportable_percentile(10_000, 99.9), 99.9);
        assert_eq!(reportable_percentile(9_999, 99.9), 99.0);
        assert_eq!(reportable_percentile(1_000, 99.0), 99.0);
        assert_eq!(reportable_percentile(999, 99.0), 95.0);
        assert_eq!(reportable_percentile(200, 95.0), 95.0);
        assert_eq!(reportable_percentile(199, 95.0), 90.0);
        assert_eq!(reportable_percentile(40, 99.0), 75.0);
        assert_eq!(reportable_percentile(20, 99.0), 50.0);
        assert_eq!(reportable_percentile(3, 99.0), 50.0);
        // Never above what the metric's name promises.
        assert_eq!(reportable_percentile(1_000_000, 95.0), 95.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(tail(&[1.0, 5.0, 9.0], 99.0), 5.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn growth_compares_last_quarter_with_first() {
        // Eight calls: quarters are two calls each.
        let durations = [1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 3.0, 3.0];
        assert_eq!(growth(&durations), 3.0);
        // A remainder stays in the middle: nine calls still quarter by two.
        let nine = [1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 2.0, 2.0];
        assert_eq!(growth(&nine), 2.0);
        assert_eq!(growth(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(growth(&[0.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn digest_separates_fields_and_repeats() {
        let mut a = Digest::new();
        a.text("ab");
        a.text("c");
        let mut b = Digest::new();
        b.text("a");
        b.text("bc");
        assert_ne!(a.value(), b.value());
        let mut again = Digest::new();
        again.text("ab");
        again.text("c");
        assert_eq!(a, again);
    }

    #[test]
    fn splitmix_is_a_pure_function_of_the_seed() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        let first: Vec<u64> = (0..4).map(|_| a.next()).collect();
        assert_eq!(first, (0..4).map(|_| b.next()).collect::<Vec<_>>());
        let mut items: Vec<u32> = (0..20).collect();
        SplitMix(7).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
