//! Single-lane Nagel–Schreckenberg automaton.

use cavenet_rng::wire::{WireError, WireReader, WireWriter};
use cavenet_rng::SimRng;

use crate::{Boundary, CaError, NasParams, Vehicle, VehicleId};

/// A single lane of the Nagel–Schreckenberg automaton.
///
/// The lane owns its vehicles (kept sorted by position), a deterministic
/// seeded RNG for the stochastic rule, and bookkeeping counters used by the
/// measurement layer (seam crossings for flow, wall-clock step count).
///
/// # Update semantics
///
/// [`Lane::step`] applies the NaS rules **in parallel** (paper footnote 1):
/// all velocities are computed from the configuration at time `t_n`, then all
/// vehicles move simultaneously. Because rule 2 caps each velocity at the gap
/// ahead, parallel movement can never produce a collision; this invariant is
/// checked by `debug_assert!` and by property tests.
///
/// ```
/// use cavenet_ca::{Lane, NasParams, Boundary};
/// # fn main() -> Result<(), cavenet_ca::CaError> {
/// let params = NasParams::builder().length(100).density(0.2).build()?;
/// let mut lane = Lane::with_uniform_placement(params, Boundary::Closed, 7)?;
/// lane.step();
/// assert_eq!(lane.time(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lane {
    params: NasParams,
    boundary: Boundary,
    /// Vehicles sorted by ascending position.
    vehicles: Vec<Vehicle>,
    rng: SimRng,
    time: u64,
    next_id: u32,
    seam_crossings: u64,
    removed: u64,
    injected: u64,
}

impl Lane {
    /// Create a lane with vehicles spread as evenly as possible along it,
    /// all starting at velocity 0.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::TooManyVehicles`] if `params.vehicles()` exceeds
    /// the lane length (already prevented by the params builder).
    pub fn with_uniform_placement(
        params: NasParams,
        boundary: Boundary,
        seed: u64,
    ) -> Result<Self, CaError> {
        let n = params.vehicles();
        let l = params.length();
        if n > l {
            return Err(CaError::TooManyVehicles {
                vehicles: n,
                sites: l,
            });
        }
        let positions: Vec<usize> = (0..n).map(|i| i * l / n).collect();
        let velocities = vec![0; n];
        Self::from_positions(params, boundary, &positions, &velocities, seed)
    }

    /// Create a lane with vehicles on uniformly random distinct sites, each
    /// with an independent uniform random velocity in `[0, v_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::TooManyVehicles`] if the vehicles do not fit.
    pub fn with_random_placement(
        params: NasParams,
        boundary: Boundary,
        seed: u64,
    ) -> Result<Self, CaError> {
        let n = params.vehicles();
        let l = params.length();
        if n > l {
            return Err(CaError::TooManyVehicles {
                vehicles: n,
                sites: l,
            });
        }
        let mut rng = SimRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        // Floyd's algorithm for a uniform random n-subset of [0, l).
        let mut chosen = std::collections::BTreeSet::new();
        for j in (l - n)..l {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        let positions: Vec<usize> = chosen.into_iter().collect();
        let velocities: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=params.vmax())).collect();
        Self::from_positions(params, boundary, &positions, &velocities, seed)
    }

    /// Create a lane from explicit vehicle positions and velocities.
    ///
    /// `positions` must be strictly increasing, in range, and the same length
    /// as `velocities`. Velocities above `v_max` are clamped.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::InvalidPlacement`] for duplicate, unsorted or
    /// out-of-range positions.
    pub fn from_positions(
        params: NasParams,
        boundary: Boundary,
        positions: &[usize],
        velocities: &[u32],
        seed: u64,
    ) -> Result<Self, CaError> {
        if positions.len() != velocities.len() {
            return Err(CaError::InvalidPlacement {
                site: positions.len().min(velocities.len()),
            });
        }
        let l = params.length();
        let mut last: Option<usize> = None;
        for &p in positions {
            if p >= l || last.is_some_and(|prev| prev >= p) {
                return Err(CaError::InvalidPlacement { site: p });
            }
            last = Some(p);
        }
        let vehicles = positions
            .iter()
            .zip(velocities)
            .enumerate()
            .map(|(i, (&p, &v))| Vehicle::new(VehicleId(i as u32), p, v.min(params.vmax())))
            .collect::<Vec<_>>();
        let next_id = vehicles.len() as u32;
        let mut lane = Lane {
            params,
            boundary,
            vehicles,
            rng: SimRng::seed_from_u64(seed),
            time: 0,
            next_id,
            seam_crossings: 0,
            removed: 0,
            injected: 0,
        };
        lane.refresh_gaps();
        Ok(lane)
    }

    /// The parameter set this lane was built with.
    ///
    /// Note that for [`Boundary::Open`] lanes the *current* vehicle count is
    /// [`Lane::vehicle_count`], not `params().vehicles()`.
    pub fn params(&self) -> &NasParams {
        &self.params
    }

    /// The boundary condition.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Number of update steps performed so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Current number of vehicles on the lane.
    pub fn vehicle_count(&self) -> usize {
        self.vehicles.len()
    }

    /// Current density `ρ = N / L`.
    pub fn density(&self) -> f64 {
        self.vehicles.len() as f64 / self.params.length() as f64
    }

    /// Vehicles, sorted by ascending position.
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// Look up a vehicle by id (O(N)).
    pub fn vehicle(&self, id: VehicleId) -> Option<&Vehicle> {
        self.vehicles.iter().find(|v| v.id() == id)
    }

    /// Average velocity `v̄(t) = N⁻¹ Σ vᵢ(t)` in cells per step — the
    /// paper's simulation variable of interest. Returns 0 for an empty lane.
    pub fn average_velocity(&self) -> f64 {
        if self.vehicles.is_empty() {
            return 0.0;
        }
        let total: u64 = self.vehicles.iter().map(|v| u64::from(v.velocity())).sum();
        total as f64 / self.vehicles.len() as f64
    }

    /// Instantaneous flow `J = ρ · v̄` in vehicles per step (the quantity
    /// plotted in the paper's fundamental diagram, Fig. 4).
    pub fn flow(&self) -> f64 {
        self.density() * self.average_velocity()
    }

    /// Long-run flow measured at the lane seam (site `L−1 → 0` crossings per
    /// elapsed step). Converges to `J` in the stationary regime of a closed
    /// lane. Returns 0 before the first step.
    pub fn seam_flow_rate(&self) -> f64 {
        if self.time == 0 {
            0.0
        } else {
            self.seam_crossings as f64 / self.time as f64
        }
    }

    /// Total vehicles removed at the exit of an open lane.
    pub fn removed_count(&self) -> u64 {
        self.removed
    }

    /// Total vehicles injected at the entrance of an open lane.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// The paper's lane vector representation: a length-`L` row where
    /// unoccupied sites hold `−1` and occupied sites hold the vehicle's
    /// velocity.
    pub fn occupancy_row(&self) -> Vec<i32> {
        let mut row = vec![-1; self.params.length()];
        for v in &self.vehicles {
            row[v.position()] = v.velocity() as i32;
        }
        row
    }

    /// Physical positions of all vehicles (sorted order), in metres along
    /// the lane axis.
    pub fn positions_m(&self) -> Vec<f64> {
        self.vehicles
            .iter()
            .map(|v| v.position() as f64 * self.params.cell_length_m())
            .collect()
    }

    /// Advance the automaton by one time step (parallel update).
    pub fn step(&mut self) {
        self.refresh_gaps();
        let p = self.params.slowdown_probability();
        let vmax = self.params.vmax();
        let l = self.params.length();

        // Phase 1: velocity update from the frozen configuration.
        let mut new_velocities = Vec::with_capacity(self.vehicles.len());
        for v in &self.vehicles {
            // Rule 1: acceleration.
            let mut vel = (v.velocity() + 1).min(vmax);
            // Rule 2: slow down to the gap.
            vel = vel.min(v.gap());
            // Rule 2′: random slow-down.
            if p > 0.0 && self.rng.gen_bool(p) {
                vel = vel.saturating_sub(1);
            }
            new_velocities.push(vel);
        }

        // Phase 2: simultaneous movement.
        let mut exited = Vec::new();
        for (i, vel) in new_velocities.iter().copied().enumerate() {
            let veh = &mut self.vehicles[i];
            veh.set_velocity(vel);
            let intended = veh.position() + vel as usize;
            match self.boundary {
                Boundary::Closed => {
                    let wrapped = intended >= l;
                    let pos = intended % l;
                    if wrapped {
                        self.seam_crossings += 1;
                    }
                    veh.advance_to(pos, wrapped);
                }
                Boundary::Recycling | Boundary::Open { .. } => {
                    if intended >= l {
                        exited.push(i);
                    } else {
                        veh.advance_to(intended, false);
                    }
                }
            }
        }

        // Phase 3: boundary-specific handling of exited vehicles.
        match self.boundary {
            Boundary::Closed => {}
            Boundary::Recycling => self.recycle(&exited),
            Boundary::Open { injection_rate } => {
                // Remove in reverse so indices stay valid.
                for &i in exited.iter().rev() {
                    self.vehicles.remove(i);
                    self.removed += 1;
                }
                self.maybe_inject(injection_rate);
            }
        }

        self.vehicles.sort_by_key(|v| v.position());
        debug_assert!(self.no_collisions(), "parallel update produced a collision");
        self.time += 1;
        self.refresh_gaps();
    }

    /// Run `n` steps, collecting the average velocity after each. This is the
    /// `v̄(t)` series analysed throughout §IV of the paper.
    pub fn run_collect_velocity(&mut self, n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            self.step();
            out.push(self.average_velocity());
        }
        out
    }

    /// Teleport exited vehicles to the first free sites from the start of the
    /// lane (first-version CAVENET semantics). The re-entry breaks the
    /// trajectory and is flagged via [`Vehicle::wrapped_last_step`].
    fn recycle(&mut self, exited: &[usize]) {
        if exited.is_empty() {
            return;
        }
        let l = self.params.length();
        let mut occupied = vec![false; l];
        for (i, v) in self.vehicles.iter().enumerate() {
            if !exited.contains(&i) {
                occupied[v.position()] = true;
            }
        }
        let mut cursor = 0usize;
        for &i in exited {
            while cursor < l && occupied[cursor] {
                cursor += 1;
            }
            debug_assert!(cursor < l, "no free site to recycle into");
            let site = cursor.min(l - 1);
            occupied[site] = true;
            self.vehicles[i].advance_to(site, true);
            self.seam_crossings += 1;
        }
    }

    fn maybe_inject(&mut self, rate: f64) {
        if rate <= 0.0 {
            return;
        }
        let entrance_free = self.vehicles.iter().all(|v| v.position() != 0);
        if entrance_free && self.rng.gen_bool(rate.min(1.0)) {
            let id = VehicleId(self.next_id);
            self.next_id += 1;
            self.vehicles.push(Vehicle::new(id, 0, self.params.vmax()));
            self.injected += 1;
        }
    }

    /// Recompute the gap field for every vehicle from current positions.
    fn refresh_gaps(&mut self) {
        let n = self.vehicles.len();
        if n == 0 {
            return;
        }
        let l = self.params.length();
        let vmax = self.params.vmax();
        let positions: Vec<usize> = self.vehicles.iter().map(|v| v.position()).collect();
        for i in 0..n {
            let gap = if i + 1 < n {
                (positions[i + 1] - positions[i] - 1) as u32
            } else {
                match self.boundary {
                    // Ring: wrap around to the first vehicle.
                    Boundary::Closed => {
                        if n == 1 {
                            // A lone vehicle never catches itself.
                            vmax
                        } else {
                            (positions[0] + l - positions[n - 1] - 1) as u32
                        }
                    }
                    // Straight road: open space ahead of the leader.
                    Boundary::Recycling | Boundary::Open { .. } => vmax,
                }
            };
            self.vehicles[i].set_gap(gap);
        }
    }

    fn no_collisions(&self) -> bool {
        self.vehicles
            .windows(2)
            .all(|w| w[0].position() < w[1].position())
    }

    /// Serialize the lane's dynamic state: every vehicle, the RNG stream,
    /// the step counter and the boundary bookkeeping. The configuration
    /// (`params`, `boundary`) is *not* captured — restores go into a lane
    /// rebuilt from the same scenario parameters.
    pub fn capture(&self, w: &mut WireWriter) {
        w.put_usize(self.vehicles.len());
        for v in &self.vehicles {
            v.capture(w);
        }
        w.put_u64(self.rng.state());
        w.put_u64(self.time);
        w.put_u32(self.next_id);
        w.put_u64(self.seam_crossings);
        w.put_u64(self.removed);
        w.put_u64(self.injected);
    }

    /// Overwrite this lane's dynamic state from a [`Lane::capture`] stream.
    ///
    /// The lane must have been built with the same parameters as the
    /// captured one; vehicle positions are validated against the current
    /// lane length so a snapshot from a different scenario fails loudly.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated stream, a malformed value, or a vehicle
    /// position outside this lane.
    pub fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let n = r.get_count(Vehicle::WIRE_BYTES)?;
        let mut vehicles = Vec::with_capacity(n);
        let mut last: Option<usize> = None;
        for _ in 0..n {
            let v = Vehicle::restore(r)?;
            if v.position() >= self.params.length() {
                return Err(WireError::Malformed {
                    what: "vehicle position out of lane",
                    value: v.position() as u64,
                });
            }
            if last.is_some_and(|prev| prev >= v.position()) {
                return Err(WireError::Malformed {
                    what: "vehicle positions not strictly increasing",
                    value: v.position() as u64,
                });
            }
            last = Some(v.position());
            vehicles.push(v);
        }
        self.vehicles = vehicles;
        self.rng = SimRng::from_state(r.get_u64()?);
        self.time = r.get_u64()?;
        self.next_id = r.get_u32()?;
        self.seam_crossings = r.get_u64()?;
        self.removed = r.get_u64()?;
        self.injected = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(l: usize, n: usize, p: f64) -> NasParams {
        NasParams::builder()
            .length(l)
            .vehicle_count(n)
            .slowdown_probability(p)
            .build()
            .unwrap()
    }

    #[test]
    fn uniform_placement_spreads_vehicles() {
        let lane = Lane::with_uniform_placement(params(100, 4, 0.0), Boundary::Closed, 1).unwrap();
        let pos: Vec<usize> = lane.vehicles().iter().map(|v| v.position()).collect();
        assert_eq!(pos, vec![0, 25, 50, 75]);
    }

    #[test]
    fn random_placement_has_distinct_positions_and_exact_count() {
        for seed in 0..20 {
            let lane =
                Lane::with_random_placement(params(50, 25, 0.5), Boundary::Closed, seed).unwrap();
            assert_eq!(lane.vehicle_count(), 25);
            let mut pos: Vec<usize> = lane.vehicles().iter().map(|v| v.position()).collect();
            let before = pos.len();
            pos.dedup();
            assert_eq!(pos.len(), before);
        }
    }

    #[test]
    fn from_positions_rejects_duplicates_and_unsorted() {
        let p = params(10, 2, 0.0);
        assert!(Lane::from_positions(p, Boundary::Closed, &[3, 3], &[0, 0], 0).is_err());
        assert!(Lane::from_positions(p, Boundary::Closed, &[5, 2], &[0, 0], 0).is_err());
        assert!(Lane::from_positions(p, Boundary::Closed, &[5, 10], &[0, 0], 0).is_err());
        assert!(Lane::from_positions(p, Boundary::Closed, &[5], &[0, 0], 0).is_err());
    }

    #[test]
    fn lone_vehicle_reaches_vmax_and_cruises() {
        let p = params(100, 1, 0.0);
        let mut lane = Lane::with_uniform_placement(p, Boundary::Closed, 0).unwrap();
        for _ in 0..10 {
            lane.step();
        }
        assert_eq!(lane.vehicles()[0].velocity(), 5);
        // Deterministic free flow: average velocity equals vmax.
        assert!((lane.average_velocity() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_free_flow_average_velocity_is_vmax() {
        // ρ well below the critical 1/(vmax+1): free-flow regime.
        let p = params(400, 40, 0.0);
        let mut lane = Lane::with_uniform_placement(p, Boundary::Closed, 0).unwrap();
        for _ in 0..200 {
            lane.step();
        }
        assert!((lane.average_velocity() - 5.0).abs() < 1e-12);
        assert!((lane.flow() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jammed_deterministic_flow_matches_theory() {
        // For ρ > 1/(vmax+1), deterministic NaS stationary flow is 1 − ρ.
        let p = params(400, 200, 0.0); // ρ = 0.5
        let mut lane = Lane::with_uniform_placement(p, Boundary::Closed, 0).unwrap();
        for _ in 0..2000 {
            lane.step();
        }
        let mut flows = Vec::new();
        for _ in 0..200 {
            lane.step();
            flows.push(lane.flow());
        }
        let mean: f64 = flows.iter().sum::<f64>() / flows.len() as f64;
        assert!(
            (mean - 0.5).abs() < 0.02,
            "deterministic jammed flow should be 1 − ρ = 0.5, got {mean}"
        );
    }

    #[test]
    fn velocity_never_exceeds_gap_or_vmax() {
        let p = params(200, 100, 0.5);
        let mut lane = Lane::with_random_placement(p, Boundary::Closed, 9).unwrap();
        for _ in 0..300 {
            lane.step();
            for v in lane.vehicles() {
                assert!(v.velocity() <= 5);
            }
        }
    }

    #[test]
    fn closed_lane_conserves_vehicles() {
        let p = params(100, 30, 0.3);
        let mut lane = Lane::with_random_placement(p, Boundary::Closed, 5).unwrap();
        for _ in 0..500 {
            lane.step();
            assert_eq!(lane.vehicle_count(), 30);
        }
    }

    #[test]
    fn recycling_lane_conserves_vehicles_and_flags_teleports() {
        let p = params(50, 5, 0.0);
        let mut lane = Lane::with_uniform_placement(p, Boundary::Recycling, 3).unwrap();
        let mut saw_teleport = false;
        for _ in 0..200 {
            lane.step();
            assert_eq!(lane.vehicle_count(), 5);
            if lane.vehicles().iter().any(|v| v.wrapped_last_step()) {
                saw_teleport = true;
            }
        }
        assert!(saw_teleport, "vehicles should have been recycled");
    }

    #[test]
    fn open_lane_drains_without_injection() {
        let p = params(30, 10, 0.0);
        let mut lane = Lane::with_uniform_placement(
            p,
            Boundary::Open {
                injection_rate: 0.0,
            },
            3,
        )
        .unwrap();
        for _ in 0..100 {
            lane.step();
        }
        assert_eq!(lane.vehicle_count(), 0);
        assert_eq!(lane.removed_count(), 10);
    }

    #[test]
    fn open_lane_injects_vehicles() {
        let p = params(50, 1, 0.0);
        let mut lane = Lane::with_uniform_placement(
            p,
            Boundary::Open {
                injection_rate: 0.5,
            },
            3,
        )
        .unwrap();
        for _ in 0..200 {
            lane.step();
        }
        assert!(lane.injected_count() > 10);
        // Injected + initial − removed = current.
        assert_eq!(
            1 + lane.injected_count() as i64 - lane.removed_count() as i64,
            lane.vehicle_count() as i64
        );
    }

    #[test]
    fn seam_flow_approaches_fundamental_flow() {
        let p = params(400, 100, 0.0); // ρ = 0.25 > 1/6 ⇒ stationary J = 1 − ρ = 0.75
        let mut lane = Lane::with_uniform_placement(p, Boundary::Closed, 0).unwrap();
        // Warm up past the transient, then compare seam rate to ρ·v̄.
        for _ in 0..3000 {
            lane.step();
        }
        let j_state = lane.flow();
        let seam = lane.seam_flow_rate();
        assert!(
            (seam - j_state).abs() < 0.1,
            "seam flow {seam} should approximate state flow {j_state}"
        );
    }

    #[test]
    fn occupancy_row_matches_paper_encoding() {
        let p = params(10, 2, 0.0);
        let lane = Lane::from_positions(p, Boundary::Closed, &[2, 7], &[1, 3], 0).unwrap();
        let row = lane.occupancy_row();
        assert_eq!(row.len(), 10);
        assert_eq!(row[2], 1);
        assert_eq!(row[7], 3);
        assert_eq!(row.iter().filter(|&&x| x == -1).count(), 8);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let p = params(100, 40, 0.5);
        let mut a = Lane::with_random_placement(p, Boundary::Closed, 77).unwrap();
        let mut b = Lane::with_random_placement(p, Boundary::Closed, 77).unwrap();
        for _ in 0..100 {
            a.step();
            b.step();
        }
        assert_eq!(a.occupancy_row(), b.occupancy_row());
    }

    #[test]
    fn different_seed_different_trajectory() {
        let p = params(100, 40, 0.5);
        let mut a = Lane::with_random_placement(p, Boundary::Closed, 1).unwrap();
        let mut b = Lane::with_random_placement(p, Boundary::Closed, 2).unwrap();
        for _ in 0..20 {
            a.step();
            b.step();
        }
        assert_ne!(a.occupancy_row(), b.occupancy_row());
    }

    #[test]
    fn run_collect_velocity_length_and_range() {
        let p = params(100, 20, 0.3);
        let mut lane = Lane::with_uniform_placement(p, Boundary::Closed, 4).unwrap();
        let series = lane.run_collect_velocity(250);
        assert_eq!(series.len(), 250);
        assert!(series.iter().all(|&v| (0.0..=5.0).contains(&v)));
    }

    #[test]
    fn positions_m_scale() {
        let p = params(10, 1, 0.0);
        let lane = Lane::from_positions(p, Boundary::Closed, &[4], &[0], 0).unwrap();
        assert!((lane.positions_m()[0] - 30.0).abs() < 1e-12);
    }

    #[test]
    fn full_lane_is_frozen() {
        // Every site occupied: all gaps are 0, nobody can ever move.
        let p = params(6, 6, 0.0);
        let positions: Vec<usize> = (0..6).collect();
        let mut lane = Lane::from_positions(p, Boundary::Closed, &positions, &[0; 6], 0).unwrap();
        for _ in 0..10 {
            lane.step();
        }
        assert!((lane.average_velocity()).abs() < 1e-12);
        let pos: Vec<usize> = lane.vehicles().iter().map(|v| v.position()).collect();
        assert_eq!(pos, positions);
    }

    #[test]
    fn snapshot_resume_matches_straight_run() {
        // Straight run: 300 steps. Resumed run: 100 steps, capture, restore
        // into a fresh lane, 200 more steps. Trajectories must be
        // bit-identical (the RNG stream is part of the snapshot).
        let p = params(120, 50, 0.4);
        let mut straight = Lane::with_random_placement(p, Boundary::Closed, 21).unwrap();
        let mut first = Lane::with_random_placement(p, Boundary::Closed, 21).unwrap();
        for _ in 0..100 {
            straight.step();
            first.step();
        }
        let mut w = WireWriter::new();
        first.capture(&mut w);
        let bytes = w.into_bytes();

        let mut resumed = Lane::with_random_placement(p, Boundary::Closed, 999).unwrap();
        let mut r = WireReader::new(&bytes);
        resumed.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(resumed.time(), 100);
        assert_eq!(resumed.occupancy_row(), first.occupancy_row());

        for _ in 0..200 {
            straight.step();
            resumed.step();
        }
        assert_eq!(resumed.occupancy_row(), straight.occupancy_row());
        assert_eq!(resumed.seam_flow_rate(), straight.seam_flow_rate());
    }

    #[test]
    fn snapshot_round_trips_open_lane_counters() {
        let p = params(50, 5, 0.3);
        let boundary = Boundary::Open {
            injection_rate: 0.4,
        };
        let mut lane = Lane::with_uniform_placement(p, boundary, 3).unwrap();
        for _ in 0..80 {
            lane.step();
        }
        let mut w = WireWriter::new();
        lane.capture(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Lane::with_uniform_placement(p, boundary, 77).unwrap();
        let mut r = WireReader::new(&bytes);
        restored.restore(&mut r).unwrap();
        assert_eq!(restored.injected_count(), lane.injected_count());
        assert_eq!(restored.removed_count(), lane.removed_count());
        let mut w2 = WireWriter::new();
        restored.capture(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "round trip not bit-identical");
    }

    #[test]
    fn restore_rejects_foreign_and_truncated_snapshots() {
        let big = params(200, 60, 0.2);
        let mut lane = Lane::with_random_placement(big, Boundary::Closed, 5).unwrap();
        for _ in 0..50 {
            lane.step();
        }
        let mut w = WireWriter::new();
        lane.capture(&mut w);
        let bytes = w.into_bytes();

        // A shorter lane cannot hold these positions.
        let small = params(40, 10, 0.2);
        let mut wrong = Lane::with_uniform_placement(small, Boundary::Closed, 5).unwrap();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            wrong.restore(&mut r),
            Err(WireError::Malformed {
                what: "vehicle position out of lane",
                ..
            })
        ));

        let mut fresh = Lane::with_random_placement(big, Boundary::Closed, 5).unwrap();
        let mut r = WireReader::new(&bytes[..bytes.len() - 5]);
        assert!(matches!(
            fresh.restore(&mut r),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn restore_refuses_vehicle_counts_the_stream_cannot_hold() {
        let mut lane =
            Lane::with_uniform_placement(params(40, 10, 0.2), Boundary::Closed, 5).unwrap();
        for count in [1u64 << 40, 1 << 61] {
            let mut bytes = count.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 16]);
            let got = lane.restore(&mut WireReader::new(&bytes));
            assert!(
                matches!(got, Err(WireError::Truncated { .. })),
                "count {count}: {got:?}"
            );
        }
    }

    #[test]
    fn p_equal_one_limits_speed() {
        // With p = 1 every vehicle slows each step; velocity is capped at
        // vmax − 1 in steady state.
        let p = params(200, 10, 1.0);
        let mut lane = Lane::with_uniform_placement(p, Boundary::Closed, 0).unwrap();
        for _ in 0..100 {
            lane.step();
        }
        for v in lane.vehicles() {
            assert!(v.velocity() <= 4);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For every boundary condition, stepping preserves the structural
        /// invariants: sorted distinct positions in range, bounded
        /// velocities.
        #[test]
        fn any_boundary_structural_invariants(
            length in 8usize..150,
            count in 1usize..40,
            p in 0.0f64..1.0,
            seed in any::<u64>(),
            boundary_pick in 0u8..3,
            steps in 1usize..80,
        ) {
            prop_assume!(count <= length);
            let params = NasParams::builder()
                .length(length)
                .vehicle_count(count)
                .slowdown_probability(p)
                .build()
                .unwrap();
            let boundary = match boundary_pick {
                0 => Boundary::Closed,
                1 => Boundary::Recycling,
                _ => Boundary::Open { injection_rate: 0.3 },
            };
            let mut lane = Lane::with_random_placement(params, boundary, seed).unwrap();
            for _ in 0..steps {
                lane.step();
                let mut last = None;
                for v in lane.vehicles() {
                    prop_assert!(v.position() < length);
                    prop_assert!(v.velocity() <= params.vmax());
                    if let Some(prev) = last {
                        prop_assert!(v.position() > prev);
                    }
                    last = Some(v.position());
                }
                if boundary.conserves_vehicles() {
                    prop_assert_eq!(lane.vehicle_count(), count);
                }
            }
        }

        /// Deterministic rule: identical seeds and parameters give
        /// identical evolution, step by step.
        #[test]
        fn determinism(
            length in 10usize..100,
            count in 1usize..30,
            p in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            prop_assume!(count <= length);
            let params = NasParams::builder()
                .length(length)
                .vehicle_count(count)
                .slowdown_probability(p)
                .build()
                .unwrap();
            let mut a = Lane::with_random_placement(params, Boundary::Closed, seed).unwrap();
            let mut b = Lane::with_random_placement(params, Boundary::Closed, seed).unwrap();
            for _ in 0..40 {
                a.step();
                b.step();
                prop_assert_eq!(a.occupancy_row(), b.occupancy_row());
            }
        }

        /// On a closed deterministic lane, total momentum (sum of
        /// velocities) equals total displacement per step.
        #[test]
        fn velocity_equals_displacement(
            length in 20usize..200,
            count in 2usize..40,
            seed in any::<u64>(),
        ) {
            prop_assume!(count <= length / 2);
            let params = NasParams::builder()
                .length(length)
                .vehicle_count(count)
                .build()
                .unwrap();
            let mut lane = Lane::with_random_placement(params, Boundary::Closed, seed).unwrap();
            for _ in 0..30 {
                let before: u64 = lane
                    .vehicles()
                    .iter()
                    .map(|v| v.odometer_cells(length))
                    .sum();
                lane.step();
                let after: u64 = lane
                    .vehicles()
                    .iter()
                    .map(|v| v.odometer_cells(length))
                    .sum();
                let velocity_sum: u64 =
                    lane.vehicles().iter().map(|v| u64::from(v.velocity())).sum();
                prop_assert_eq!(after - before, velocity_sum);
            }
        }
    }
}
