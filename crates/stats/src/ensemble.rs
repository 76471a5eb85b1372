//! Monte-Carlo ensemble helpers.
//!
//! The paper's fundamental diagram (Fig. 4) averages each point over an
//! ensemble of 20 independent trials; this module provides a small harness
//! for running seeded trials of any scalar- or series-valued experiment and
//! aggregating the results.
//!
//! Trials are independent by construction (each gets its own derived seed),
//! so [`Ensemble::run_scalar_par`] and [`Ensemble::run_series_par`] fan them
//! out across OS threads. Results are **bit-identical** to the serial
//! methods: trial outputs are reassembled in trial order before any
//! floating-point aggregation, so the summation order never changes.

use std::num::NonZeroUsize;
use std::thread;

use crate::{StatsError, Summary};

/// Number of worker threads to use when none is requested explicitly.
fn default_workers() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Deterministic parallel map: applies `f(index, &jobs[index])` to every job
/// on a scoped thread pool and returns the results **in job order**,
/// regardless of which worker ran which job or when it finished.
///
/// Jobs are assigned to workers in strides (worker `w` takes jobs `w`,
/// `w + workers`, …), each worker collects `(index, result)` pairs, and the
/// pairs are written back into an index-addressed slot vector. `workers =
/// None` uses [`std::thread::available_parallelism`]; a single worker (or a
/// single job) short-circuits to a plain serial loop with no threads
/// spawned.
///
/// ```
/// use cavenet_stats::par_map;
/// let squares = par_map(&[1u64, 2, 3, 4], None, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(jobs: &[T], workers: Option<NonZeroUsize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = jobs.len();
    let w = workers
        .map(NonZeroUsize::get)
        .unwrap_or_else(default_workers)
        .min(n.max(1));
    if w <= 1 {
        return jobs.iter().enumerate().map(|(i, job)| f(i, job)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..w)
            .map(|wid| {
                let f = &f;
                scope.spawn(move || {
                    (wid..n)
                        .step_by(w)
                        .map(|i| (i, f(i, &jobs[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("ensemble worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("strided assignment covers every job"))
        .collect()
}

/// Runs `trials` independent repetitions of a seeded experiment and
/// aggregates scalar results.
///
/// ```
/// use cavenet_stats::Ensemble;
/// let summary = Ensemble::new(10, 42).run_scalar(|seed| (seed % 7) as f64).unwrap();
/// assert_eq!(summary.len(), 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ensemble {
    trials: usize,
    seed: u64,
    workers: Option<NonZeroUsize>,
}

impl Ensemble {
    /// An ensemble of `trials` repetitions; per-trial seeds are derived
    /// deterministically from `seed`.
    pub fn new(trials: usize, seed: u64) -> Self {
        Ensemble {
            trials: trials.max(1),
            seed,
            workers: None,
        }
    }

    /// Number of repetitions.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Set the worker-thread count for the `_par` runners. `0` restores the
    /// default ([`std::thread::available_parallelism`]); `1` forces serial
    /// execution. The result is identical for any value — this is purely a
    /// resource knob.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = NonZeroUsize::new(workers);
        self
    }

    /// The seed for trial `i` (splitmix-style derivation so consecutive
    /// trials get well-separated streams).
    pub fn trial_seed(&self, i: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Run a scalar-valued experiment once per trial and summarize the
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] from the summary computation (cannot occur
    /// for `trials ≥ 1`).
    pub fn run_scalar<F>(&self, mut f: F) -> Result<Summary, StatsError>
    where
        F: FnMut(u64) -> f64,
    {
        let values: Vec<f64> = (0..self.trials).map(|i| f(self.trial_seed(i))).collect();
        Summary::from_slice(&values)
    }

    /// Run a series-valued experiment once per trial and average the series
    /// point-wise. Trials shorter than the longest series contribute only to
    /// the prefix they cover.
    pub fn run_series<F>(&self, mut f: F) -> EnsembleSeries
    where
        F: FnMut(u64) -> Vec<f64>,
    {
        let series: Vec<Vec<f64>> = (0..self.trials).map(|i| f(self.trial_seed(i))).collect();
        self.average_series(series)
    }

    /// [`run_scalar`](Self::run_scalar) with trials fanned out across worker
    /// threads (see [`Ensemble::workers`]). The summary is **bit-identical**
    /// to the serial method: per-trial values are reassembled in trial order
    /// before aggregation, so no floating-point operation is reordered.
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] from the summary computation (cannot occur
    /// for `trials ≥ 1`).
    pub fn run_scalar_par<F>(&self, f: F) -> Result<Summary, StatsError>
    where
        F: Fn(u64) -> f64 + Sync,
    {
        let seeds: Vec<u64> = (0..self.trials).map(|i| self.trial_seed(i)).collect();
        let values = par_map(&seeds, self.workers, |_, &seed| f(seed));
        Summary::from_slice(&values)
    }

    /// [`run_series`](Self::run_series) with trials fanned out across worker
    /// threads; bit-identical to the serial method for the same reason as
    /// [`run_scalar_par`](Self::run_scalar_par).
    pub fn run_series_par<F>(&self, f: F) -> EnsembleSeries
    where
        F: Fn(u64) -> Vec<f64> + Sync,
    {
        let seeds: Vec<u64> = (0..self.trials).map(|i| self.trial_seed(i)).collect();
        let series = par_map(&seeds, self.workers, |_, &seed| f(seed));
        self.average_series(series)
    }

    /// Point-wise average in trial order — the shared aggregation tail of
    /// the serial and parallel series runners.
    fn average_series(&self, all: Vec<Vec<f64>>) -> EnsembleSeries {
        let mut sum: Vec<f64> = Vec::new();
        let mut count: Vec<u32> = Vec::new();
        for series in &all {
            if series.len() > sum.len() {
                sum.resize(series.len(), 0.0);
                count.resize(series.len(), 0);
            }
            for (j, &x) in series.iter().enumerate() {
                sum[j] += x;
                count[j] += 1;
            }
        }
        let mean = sum
            .iter()
            .zip(&count)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        EnsembleSeries {
            mean,
            trials: self.trials,
        }
    }
}

/// Point-wise ensemble average of a series-valued experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSeries {
    /// Point-wise mean across trials.
    pub mean: Vec<f64>,
    /// Number of trials that were run.
    pub trials: usize,
}

impl EnsembleSeries {
    /// Length of the averaged series.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// Whether the averaged series is empty.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let e = Ensemble::new(100, 7);
        let seeds: Vec<u64> = (0..100).map(|i| e.trial_seed(i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100, "trial seeds must be distinct");
        let e2 = Ensemble::new(100, 7);
        assert_eq!(seeds[42], e2.trial_seed(42));
    }

    #[test]
    fn different_master_seed_different_streams() {
        let a = Ensemble::new(1, 1).trial_seed(0);
        let b = Ensemble::new(1, 2).trial_seed(0);
        assert_ne!(a, b);
    }

    #[test]
    fn scalar_aggregation() {
        let e = Ensemble::new(4, 0);
        let mut calls = 0;
        let s = e
            .run_scalar(|_| {
                calls += 1;
                calls as f64
            })
            .unwrap();
        assert_eq!(s.len(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_trials_clamps_to_one() {
        let e = Ensemble::new(0, 0);
        assert_eq!(e.trials(), 1);
    }

    #[test]
    fn series_average() {
        let e = Ensemble::new(3, 0);
        let mut k = 0.0;
        let out = e.run_series(|_| {
            k += 1.0;
            vec![k, k * 2.0]
        });
        assert_eq!(out.len(), 2);
        assert!(!out.is_empty());
        assert!((out.mean[0] - 2.0).abs() < 1e-12);
        assert!((out.mean[1] - 4.0).abs() < 1e-12);
    }

    /// A scalar experiment with plenty of rounding surface: any reordering
    /// of trials or of the aggregation sum would change the low bits.
    fn awkward_scalar(seed: u64) -> f64 {
        (seed as f64).sqrt().sin() * 1e-3 + (seed % 97) as f64 / 0.7
    }

    fn awkward_series(seed: u64) -> Vec<f64> {
        (0..(seed % 13 + 1))
            .map(|k| awkward_scalar(seed.wrapping_add(k)))
            .collect()
    }

    #[test]
    fn par_map_preserves_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        let workers = NonZeroUsize::new(3);
        let out = par_map(&jobs, workers, |i, &job| {
            assert_eq!(i, job);
            job * 2
        });
        assert_eq!(out, (0..200).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single_job() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, None, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], None, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn run_scalar_par_is_bit_identical_to_serial() {
        for workers in [0, 1, 2, 5, 16] {
            let e = Ensemble::new(37, 123).workers(workers);
            let serial = e.run_scalar(awkward_scalar).unwrap();
            let parallel = e.run_scalar_par(awkward_scalar).unwrap();
            assert_eq!(
                serial.mean().to_bits(),
                parallel.mean().to_bits(),
                "mean diverged at workers={workers}"
            );
            assert_eq!(serial.variance().to_bits(), parallel.variance().to_bits());
            assert_eq!(serial.min().to_bits(), parallel.min().to_bits());
            assert_eq!(serial.max().to_bits(), parallel.max().to_bits());
        }
    }

    #[test]
    fn run_series_par_is_bit_identical_to_serial() {
        let e = Ensemble::new(29, 99).workers(4);
        let serial = e.run_series(awkward_series);
        let parallel = e.run_series_par(awkward_series);
        assert_eq!(serial.mean.len(), parallel.mean.len());
        for (a, b) in serial.mean.iter().zip(&parallel.mean) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(serial.trials, parallel.trials);
    }

    #[test]
    fn ragged_series_average_prefix_rule() {
        let e = Ensemble::new(2, 0);
        let mut first = true;
        let out = e.run_series(|_| {
            if std::mem::take(&mut first) {
                vec![1.0, 1.0, 1.0]
            } else {
                vec![3.0]
            }
        });
        assert_eq!(out.len(), 3);
        assert!((out.mean[0] - 2.0).abs() < 1e-12);
        assert!((out.mean[1] - 1.0).abs() < 1e-12);
    }
}
