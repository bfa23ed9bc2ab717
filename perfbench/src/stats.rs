//! Order statistics and digests for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed in Python from the printed values.

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `values`. Refuses, with the
/// sample count, when fewer than [`MIN_BEYOND`] samples lie beyond it: a
/// tail percentile read off a handful of samples is noise.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let s = sorted(values);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} needs at least {MIN_BEYOND} samples beyond it; have {n} samples"
        ));
    }
    Ok(s[rank - 1])
}

/// FNV-1a digest over a sequence of byte strings, each length-prefixed so
/// `["ab", "c"]` and `["a", "bc"]` differ.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut buf = Vec::new();
    for p in parts {
        buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
        buf.extend_from_slice(p);
    }
    hauberk::canon::fnv1a_hex(&buf)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert!(percentile(&v, 99.0).is_err(), "only 1 sample beyond p99");
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        let err = percentile(&v, 50.0).unwrap_err();
        assert!(err.contains("have 19 samples"), "{err}");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn digest_is_stable_and_length_prefixed() {
        let a = digest([b"ab".as_slice(), b"c".as_slice()]);
        let b = digest([b"a".as_slice(), b"bc".as_slice()]);
        assert_ne!(a, b);
        assert_eq!(a, digest([b"ab".as_slice(), b"c".as_slice()]));
        assert_eq!(a.len(), 16);
    }
}
