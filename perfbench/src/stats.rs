//! Small summary statistics over per-operation samples.

/// Interquartile mean: the mean of the middle half of the sorted samples
/// (the median for fewer than four).  Robust to the odd preempted run like
/// a median, while averaging over more of the samples.
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 4 {
        return median_sorted(&sorted);
    }
    let lo = n / 4;
    let hi = n - lo;
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Median (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        assert_eq!(iqm(&[]), 0.0);
        assert_eq!(iqm(&[3.0, 1.0, 2.0]), 2.0);
        // Middle half of 1..=8 is 3,4,5,6.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(iqm(&v), 4.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
