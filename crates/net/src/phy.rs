//! Physical layer: radio propagation models and air-time computation.
//!
//! The paper's Table 1 selects the **two-ray ground** model with a 250 m
//! transmission range at a 2 Mb/s MAC rate — ns-2's classic 914 MHz
//! WaveLAN parameterization. The free-space and log-normal shadowing models
//! are included as well (the paper's §V names shadowing as future work and
//! cites ref [18]).

use std::f64::consts::PI;
use std::time::Duration;

use cavenet_rng::SimRng;

/// Speed of light in vacuum (m/s).
const C: f64 = 299_792_458.0;

/// Radio propagation model: given transmit power and distance, produce the
/// received power in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Propagation {
    /// Friis free-space model: `Pr = Pt·Gt·Gr·λ² / ((4πd)²·L)`.
    FreeSpace,
    /// Two-ray ground reflection: free-space below the crossover distance
    /// `d_c = 4π·ht·hr/λ`, and `Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L)` beyond it.
    TwoRayGround,
    /// Log-normal shadowing: `Pr(d) = Pr(d₀)·(d₀/d)^β · 10^(X/10)` with
    /// `X ~ N(0, σ²)` in dB.
    Shadowing {
        /// Path-loss exponent `β` (2 free space, ~2.7–5 outdoors).
        exponent: f64,
        /// Shadowing deviation `σ` in dB.
        sigma_db: f64,
    },
}

impl Default for Propagation {
    /// Defaults to the paper's two-ray ground model.
    fn default() -> Self {
        Propagation::TwoRayGround
    }
}

/// Physical-layer parameters.
///
/// Defaults reproduce ns-2's 914 MHz WaveLAN profile: 250 m transmission
/// range and 550 m carrier-sense range under two-ray ground propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyParams {
    /// Transmit power in watts.
    pub tx_power_w: f64,
    /// Transmit antenna gain.
    pub gt: f64,
    /// Receive antenna gain.
    pub gr: f64,
    /// Transmit antenna height (m).
    pub ht: f64,
    /// Receive antenna height (m).
    pub hr: f64,
    /// Carrier frequency (Hz).
    pub frequency_hz: f64,
    /// System loss factor `L ≥ 1`.
    pub system_loss: f64,
    /// Minimum power for successful reception (W).
    pub rx_threshold_w: f64,
    /// Minimum power for carrier sensing (W).
    pub cs_threshold_w: f64,
    /// Capture ratio: an ongoing reception survives interference when its
    /// power exceeds the interferer by this factor (ns-2 `CPThresh_ = 10`).
    pub capture_ratio: f64,
    /// PLCP preamble + header air time (sent at the 1 Mb/s DSSS basic rate).
    pub plcp_overhead: Duration,
    /// Payload bit rate (b/s) — Table 1: 2 Mb/s.
    pub data_rate_bps: f64,
    /// Control/basic bit rate (b/s) for ACKs.
    pub basic_rate_bps: f64,
}

impl PhyParams {
    /// ns-2's default 914 MHz WaveLAN profile (250 m / 550 m under two-ray
    /// ground), 2 Mb/s data rate.
    pub fn ns2_default() -> Self {
        PhyParams {
            tx_power_w: 0.281_838_15,
            gt: 1.0,
            gr: 1.0,
            ht: 1.5,
            hr: 1.5,
            frequency_hz: 914e6,
            system_loss: 1.0,
            rx_threshold_w: 3.652e-10,
            cs_threshold_w: 1.559e-11,
            capture_ratio: 10.0,
            plcp_overhead: Duration::from_micros(192),
            data_rate_bps: 2e6,
            basic_rate_bps: 1e6,
        }
    }

    /// Carrier wavelength (m).
    pub fn wavelength(&self) -> f64 {
        C / self.frequency_hz
    }

    /// Two-ray crossover distance `d_c = 4π·ht·hr/λ`.
    pub fn crossover_distance(&self) -> f64 {
        4.0 * PI * self.ht * self.hr / self.wavelength()
    }

    /// Recalibrate the reception and carrier-sense thresholds so that the
    /// given propagation model yields exactly `tx_range` / `cs_range` metres
    /// (ignoring shadowing randomness, for which the mean path loss is
    /// used).
    pub fn calibrate_ranges(mut self, model: Propagation, tx_range: f64, cs_range: f64) -> Self {
        self.rx_threshold_w = self.mean_rx_power(model, tx_range);
        self.cs_threshold_w = self.mean_rx_power(model, cs_range);
        self
    }

    /// Mean (deterministic part of the) received power at distance `d`.
    pub fn mean_rx_power(&self, model: Propagation, d: f64) -> f64 {
        LinkBudget::new(self, model).mean_rx_power(d)
    }

    /// Received power at distance `d`, including the random shadowing
    /// component when the model has one.
    pub fn rx_power(&self, model: Propagation, d: f64, rng: &mut SimRng) -> f64 {
        LinkBudget::new(self, model).rx_power(d, rng)
    }

    /// The distance at which the mean received power crosses the reception
    /// threshold, found by bisection. Useful for verifying calibration.
    ///
    /// The bracket is 1 m to 100 km, and its far end doubles while the
    /// threshold is still met there, so a longer range is found rather
    /// than clipped. Returns `f64::INFINITY` when the threshold is met at
    /// every finite distance (a threshold ≤ 0, or a mean power that never
    /// falls).
    pub fn effective_range(&self, model: Propagation) -> f64 {
        let mut lo = 1.0;
        let mut hi = 1e5;
        while self.mean_rx_power(model, hi) >= self.rx_threshold_w {
            if hi.is_infinite() {
                return f64::INFINITY;
            }
            lo = hi;
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = (lo + hi) / 2.0;
            if self.mean_rx_power(model, mid) >= self.rx_threshold_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// A distance beyond which the given model's received power is
    /// guaranteed to stay below the carrier-sense threshold, or `None` when
    /// no such bound is known: the model has an unbounded random component,
    /// so any distance may occasionally be sensed, or the threshold is still
    /// met 100 km out (a threshold ≤ 0 is met at any distance).
    ///
    /// This is the carrier-sense pruning radius of the simulator's neighbor
    /// grid: a node farther than the returned distance can never observe the
    /// transmission, so it can be skipped without changing the event
    /// schedule. The bound is found by bisection on the mean received power
    /// (monotone non-increasing in distance for every deterministic model)
    /// and rounded conservatively upward.
    pub fn carrier_sense_cutoff(&self, model: Propagation) -> Option<f64> {
        let deterministic = match model {
            Propagation::FreeSpace | Propagation::TwoRayGround => true,
            // Zero-sigma shadowing draws no randomness; its mean power is
            // monotone only for a positive path-loss exponent.
            Propagation::Shadowing { exponent, sigma_db } => sigma_db <= 0.0 && exponent > 0.0,
        };
        if !deterministic {
            return None;
        }
        let th = self.cs_threshold_w;
        let mut lo = 1e-3;
        let mut hi = 1e5;
        if self.mean_rx_power(model, hi) >= th {
            // Still sensed at the bracket's end (or the threshold is met at
            // any distance): no radius found here is safe.
            return None;
        }
        if self.mean_rx_power(model, lo) < th {
            // Nothing is ever sensed; any positive radius works.
            return Some(lo);
        }
        for _ in 0..200 {
            let mid = (lo + hi) / 2.0;
            if self.mean_rx_power(model, mid) >= th {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // `hi` already satisfies power(hi) < threshold; keep a small margin
        // so the bound stays safe under any floating-point wobble.
        Some(hi * (1.0 + 1e-9) + 1e-6)
    }

    /// Air time of a data frame of `bytes` total size: PLCP overhead at the
    /// basic rate plus payload at the data rate.
    pub fn data_frame_duration(&self, bytes: u32) -> Duration {
        self.plcp_overhead + Duration::from_secs_f64(bytes as f64 * 8.0 / self.data_rate_bps)
    }

    /// Air time of a control frame (ACK) of `bytes` size at the basic rate.
    pub fn control_frame_duration(&self, bytes: u32) -> Duration {
        self.plcp_overhead + Duration::from_secs_f64(bytes as f64 * 8.0 / self.basic_rate_bps)
    }

    /// Propagation delay over `d` metres.
    pub fn propagation_delay(&self, d: f64) -> Duration {
        Duration::from_secs_f64(d.max(0.0) / C)
    }
}

impl Default for PhyParams {
    fn default() -> Self {
        Self::ns2_default()
    }
}

/// One propagation model's received-power formula with its
/// distance-independent factors computed once. The simulator keeps one per
/// run for the per-receiver power of every transmission; the public
/// [`PhyParams::mean_rx_power`] and [`PhyParams::rx_power`] build one per
/// call, so there is one formula and both give bit-identical powers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkBudget {
    model: Propagation,
    /// `Pt·Gt·Gr·λ²`, the Friis numerator.
    friis_gain: f64,
    /// System loss factor `L`.
    loss: f64,
    /// Two-ray crossover distance `d_c`.
    crossover: f64,
    /// `Pt·Gt·Gr·ht²·hr²`, the two-ray numerator.
    two_ray_gain: f64,
    /// Friis power at the shadowing reference distance of 1 m.
    friis_1m: f64,
}

impl LinkBudget {
    pub(crate) fn new(phy: &PhyParams, model: Propagation) -> Self {
        let mut budget = LinkBudget {
            model,
            friis_gain: phy.tx_power_w * phy.gt * phy.gr * phy.wavelength().powi(2),
            loss: phy.system_loss,
            crossover: phy.crossover_distance(),
            two_ray_gain: phy.tx_power_w * phy.gt * phy.gr * phy.ht.powi(2) * phy.hr.powi(2),
            friis_1m: 0.0,
        };
        budget.friis_1m = budget.friis(1.0);
        budget
    }

    #[inline]
    fn friis(&self, d: f64) -> f64 {
        self.friis_gain / ((4.0 * PI * d).powi(2) * self.loss)
    }

    /// Mean (deterministic part of the) received power at distance `d`.
    #[inline]
    pub(crate) fn mean_rx_power(&self, d: f64) -> f64 {
        let d = d.max(1e-3);
        match self.model {
            Propagation::FreeSpace => self.friis(d),
            Propagation::TwoRayGround => {
                if d < self.crossover {
                    self.friis(d)
                } else {
                    self.two_ray_gain / (d.powi(4) * self.loss)
                }
            }
            Propagation::Shadowing { exponent, .. } => {
                // Reference distance d₀ = 1 m via Friis.
                self.friis_1m * (1.0 / d).powf(exponent).max(f64::MIN_POSITIVE)
            }
        }
    }

    /// Received power at distance `d`, including the random shadowing
    /// component when the model has one.
    #[inline]
    pub(crate) fn rx_power(&self, d: f64, rng: &mut SimRng) -> f64 {
        let mean = self.mean_rx_power(d);
        match self.model {
            Propagation::Shadowing { sigma_db, .. } if sigma_db > 0.0 => {
                let x_db = gaussian(rng) * sigma_db;
                mean * 10f64.powf(x_db / 10.0)
            }
            _ => mean,
        }
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut SimRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns2_two_ray_range_is_250m() {
        let p = PhyParams::ns2_default();
        let r = p.effective_range(Propagation::TwoRayGround);
        assert!(
            (r - 250.0).abs() < 2.0,
            "ns-2 default range should be ≈250 m, got {r}"
        );
    }

    #[test]
    fn ns2_carrier_sense_range_is_550m() {
        let p = PhyParams::ns2_default();
        // Bisection against the CS threshold.
        let mut q = p;
        q.rx_threshold_w = p.cs_threshold_w;
        let r = q.effective_range(Propagation::TwoRayGround);
        assert!(
            (r - 550.0).abs() < 5.0,
            "ns-2 CS range should be ≈550 m, got {r}"
        );
    }

    /// A range past the first 100 km bracket is found, not clipped to it,
    /// and a threshold met at every distance gives an unbounded range.
    #[test]
    fn effective_range_grows_past_100_km() {
        let model = Propagation::TwoRayGround;
        let p = PhyParams::ns2_default().calibrate_ranges(model, 260_000.0, 300_000.0);
        let r = p.effective_range(model);
        assert!((r - 260_000.0).abs() < 1.0, "got {r}");
        let mut open = PhyParams::ns2_default();
        open.rx_threshold_w = 0.0;
        assert_eq!(open.effective_range(model), f64::INFINITY);
    }

    #[test]
    fn crossover_distance_value() {
        let p = PhyParams::ns2_default();
        let dc = p.crossover_distance();
        assert!((dc - 86.14).abs() < 0.5, "crossover ≈86 m, got {dc}");
    }

    #[test]
    fn two_ray_equals_friis_below_crossover() {
        let p = PhyParams::ns2_default();
        let d = 50.0;
        let a = p.mean_rx_power(Propagation::FreeSpace, d);
        let b = p.mean_rx_power(Propagation::TwoRayGround, d);
        assert!((a - b).abs() / a < 1e-12);
    }

    #[test]
    fn power_decreases_with_distance() {
        let p = PhyParams::ns2_default();
        for model in [
            Propagation::FreeSpace,
            Propagation::TwoRayGround,
            Propagation::Shadowing {
                exponent: 3.0,
                sigma_db: 0.0,
            },
        ] {
            let mut last = f64::INFINITY;
            for d in [10.0, 50.0, 100.0, 300.0, 600.0] {
                let pr = p.mean_rx_power(model, d);
                assert!(pr < last, "{model:?} must be monotone decreasing");
                last = pr;
            }
        }
    }

    #[test]
    fn calibrate_ranges_hits_target() {
        let p = PhyParams::ns2_default().calibrate_ranges(Propagation::FreeSpace, 100.0, 220.0);
        let r = p.effective_range(Propagation::FreeSpace);
        assert!((r - 100.0).abs() < 1.0, "calibrated range {r}");
    }

    #[test]
    fn shadowing_randomizes_power() {
        let p = PhyParams::ns2_default();
        let model = Propagation::Shadowing {
            exponent: 2.8,
            sigma_db: 6.0,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..100)
            .map(|_| p.rx_power(model, 100.0, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let distinct = samples.windows(2).any(|w| w[0] != w[1]);
        assert!(distinct, "shadowing should randomize");
        assert!(mean > 0.0);
    }

    #[test]
    fn zero_sigma_shadowing_is_deterministic() {
        let p = PhyParams::ns2_default();
        let model = Propagation::Shadowing {
            exponent: 2.8,
            sigma_db: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let a = p.rx_power(model, 123.0, &mut rng);
        let b = p.rx_power(model, 123.0, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn frame_durations() {
        let p = PhyParams::ns2_default();
        // 512-byte payload + 58 bytes overhead at 2 Mb/s + 192 µs PLCP.
        let d = p.data_frame_duration(570);
        let expect = 192e-6 + 570.0 * 8.0 / 2e6;
        assert!((d.as_secs_f64() - expect).abs() < 1e-9);
        let ack = p.control_frame_duration(14);
        let expect_ack = 192e-6 + 14.0 * 8.0 / 1e6;
        assert!((ack.as_secs_f64() - expect_ack).abs() < 1e-9);
    }

    #[test]
    fn propagation_delay_at_c() {
        let p = PhyParams::ns2_default();
        let d = p.propagation_delay(299.792_458);
        assert!((d.as_secs_f64() - 1e-6).abs() < 1e-12);
    }
}

#[cfg(test)]
mod calibration_tests {
    use super::*;

    #[test]
    fn calibrate_shadowing_uses_mean_path_loss() {
        let model = Propagation::Shadowing {
            exponent: 3.0,
            sigma_db: 6.0,
        };
        let p = PhyParams::ns2_default().calibrate_ranges(model, 200.0, 400.0);
        let r = p.effective_range(model);
        assert!((r - 200.0).abs() < 2.0, "calibrated mean range {r}");
        assert!(
            p.cs_threshold_w < p.rx_threshold_w,
            "CS floor below RX floor"
        );
    }

    #[test]
    fn carrier_sense_cutoff_bounds_cs_range() {
        let p = PhyParams::ns2_default();
        for model in [Propagation::FreeSpace, Propagation::TwoRayGround] {
            let cutoff = p.carrier_sense_cutoff(model).expect("deterministic model");
            // Everything beyond the cutoff must be below the CS threshold...
            assert!(p.mean_rx_power(model, cutoff) < p.cs_threshold_w);
            // ...and the bound must be tight enough to be useful: for the
            // ns-2 profile the CS range is ≈550 m under two-ray ground.
            if model == Propagation::TwoRayGround {
                assert!((545.0..600.0).contains(&cutoff), "cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn carrier_sense_cutoff_shadowing_gating() {
        let p = PhyParams::ns2_default();
        assert!(p
            .carrier_sense_cutoff(Propagation::Shadowing {
                exponent: 2.8,
                sigma_db: 6.0
            })
            .is_none());
        let c = p
            .carrier_sense_cutoff(Propagation::Shadowing {
                exponent: 2.8,
                sigma_db: 0.0,
            })
            .expect("zero-sigma shadowing is deterministic");
        assert!(
            p.mean_rx_power(
                Propagation::Shadowing {
                    exponent: 2.8,
                    sigma_db: 0.0
                },
                c
            ) < p.cs_threshold_w
        );
    }

    #[test]
    fn two_ray_calibration_roundtrip() {
        for target in [150.0, 250.0, 400.0] {
            let p = PhyParams::ns2_default().calibrate_ranges(
                Propagation::TwoRayGround,
                target,
                target * 2.2,
            );
            let r = p.effective_range(Propagation::TwoRayGround);
            assert!((r - target).abs() < 2.0, "target {target}, got {r}");
        }
    }

    #[test]
    fn control_frames_slower_than_data_per_byte() {
        let p = PhyParams::ns2_default();
        // Same byte count: basic-rate control frame takes longer on air.
        assert!(p.control_frame_duration(100) > p.data_frame_duration(100));
    }

    #[test]
    fn shadowing_power_is_lognormal_around_mean() {
        let p = PhyParams::ns2_default();
        let model = Propagation::Shadowing {
            exponent: 2.8,
            sigma_db: 4.0,
        };
        let mean = p.mean_rx_power(model, 150.0);
        let mut rng = SimRng::seed_from_u64(5);
        let mut log_sum = 0.0;
        let n = 2000;
        for _ in 0..n {
            log_sum += (p.rx_power(model, 150.0, &mut rng) / mean).ln();
        }
        // Median of the lognormal is the deterministic mean path loss:
        // the average log-ratio should be near zero.
        let avg_log = log_sum / n as f64;
        assert!(avg_log.abs() < 0.1, "log-ratio mean {avg_log}");
    }
}
