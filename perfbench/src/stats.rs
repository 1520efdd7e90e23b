//! Order statistics and the metric-name grammar.

/// The median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive values; `0.0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A latency tail: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples above it, its nearest-rank value, and the
/// sample count it was taken from.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
}

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`, searching percentiles 99 down to 50. `None` when
/// even the median has fewer than [`TAIL_BEYOND`] samples beyond it
/// (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    (50..=99u32).rev().find_map(|p| {
        // Nearest rank: the smallest value with at least p% of samples
        // at or below it.
        let rank = (p as usize * n).div_ceil(100).max(1);
        let beyond = n - rank;
        (beyond >= TAIL_BEYOND).then(|| Tail { percentile: p, value: s[rank - 1], samples: n })
    })
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(Tail { percentile: 99, value: 990.0, samples: 1000 }));

        // 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(Tail { percentile: 90, value: 90.0, samples: 100 }));

        // 25 samples: p60 is rank 15 with 10 beyond; p61 is rank 16.
        let xs: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some(Tail { percentile: 60, value: 15.0, samples: 25 }));

        // 20 samples: only the median qualifies; 19 samples: nothing.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.percentile), Some(50));
        assert_eq!(tail(&xs[..19]), None);
    }

    #[test]
    fn name_grammar() {
        for good in ["wall_s", "core.phase1_ms", "serve-edit", "0x", &"a".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "bytes per second", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
