//! # cavenet-bench — reproduction harness for the paper's evaluation
//!
//! Two kinds of artifacts live here:
//!
//! * **Figure/table binaries** (`src/bin/`): each regenerates one element of
//!   the paper's evaluation section and prints both a human-readable
//!   rendering (tables, ASCII plots) and machine-readable CSV blocks.
//!   See DESIGN.md §5 for the experiment index.
//! * **Criterion benches** (`benches/`): performance of the CA stepper, the
//!   FFT/periodogram pipeline, the discrete-event engine and the full
//!   per-protocol scenario.
//!
//! This library crate carries the small shared rendering helpers and the
//! [`report`] writer behind `resilience`'s `BENCH_resilience.json`.
//!
//! Correctness claims live in the tier-1 tests and speed claims in the
//! repository benchmark (`BENCHMARK.json`); no binary here gates on
//! wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

/// Render a numeric series as a one-line unicode sparkline.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Render `(x, y)` points as CSV with a header.
pub fn csv_block(header: &str, rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Downsample a series to at most `n` points by averaging buckets — keeps
/// terminal output readable for long series.
pub fn downsample(series: &[f64], n: usize) -> Vec<f64> {
    if series.len() <= n || n == 0 {
        return series.to_vec();
    }
    let bucket = series.len().div_ceil(n);
    series
        .chunks(bucket)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_constant_series() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn csv_block_format() {
        let s = csv_block("a,b", &[vec![1.0, 2.0]]);
        assert!(s.starts_with("a,b\n"));
        assert!(s.contains("1.000000,2.000000"));
    }

    #[test]
    fn downsample_averages() {
        let d = downsample(&[1.0, 3.0, 5.0, 7.0], 2);
        assert_eq!(d, vec![2.0, 6.0]);
        let same = downsample(&[1.0, 2.0], 10);
        assert_eq!(same, vec![1.0, 2.0]);
    }
}
