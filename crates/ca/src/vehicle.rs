//! The per-vehicle data structure (`VE_i` in the paper, §III-C).

use std::fmt;

use cavenet_rng::wire::{WireError, WireReader, WireWriter};

/// Unique, stable identifier of a vehicle within a lane or road.
///
/// The paper uses the relative euclidean position `X_i` as the identifier for
/// trace generation; because positions change every step we instead assign a
/// dense integer id at placement time and keep it stable for the vehicle's
/// lifetime, which serves the same purpose (joining CA state to mobility
/// traces and to network nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub u32);

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "veh{}", self.0)
    }
}

impl From<u32> for VehicleId {
    fn from(raw: u32) -> Self {
        VehicleId(raw)
    }
}

/// State of one vehicle: its site index on the lane, current velocity, the
/// gap ahead measured at the last step, and wrap bookkeeping for trace
/// generation (§III-C: "for closed boundaries … we check if a shift has taken
/// place. This information will serve to properly generate the trace").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vehicle {
    id: VehicleId,
    position: usize,
    velocity: u32,
    gap: u32,
    laps: u64,
    wrapped_last_step: bool,
}

impl Vehicle {
    /// Create a vehicle at `position` with initial `velocity`.
    pub fn new(id: VehicleId, position: usize, velocity: u32) -> Self {
        Vehicle {
            id,
            position,
            velocity,
            gap: 0,
            laps: 0,
            wrapped_last_step: false,
        }
    }

    /// Stable identifier.
    pub fn id(&self) -> VehicleId {
        self.id
    }

    /// Current site index on the lane, in `[0, L)`.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Current velocity in cells per step.
    pub fn velocity(&self) -> u32 {
        self.velocity
    }

    /// Gap (empty sites) to the vehicle ahead, as computed at the last update.
    pub fn gap(&self) -> u32 {
        self.gap
    }

    /// Number of times this vehicle has wrapped around a closed lane (or been
    /// recycled on a `Recycling` lane).
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Whether the vehicle wrapped/teleported during the most recent step.
    ///
    /// Mobility-trace generators must break the trajectory here instead of
    /// interpolating a huge backwards jump.
    pub fn wrapped_last_step(&self) -> bool {
        self.wrapped_last_step
    }

    /// Total distance travelled in cells, including completed laps on a ring
    /// of `lane_length` sites (position monotone "unrolled" coordinate).
    pub fn odometer_cells(&self, lane_length: usize) -> u64 {
        self.laps * lane_length as u64 + self.position as u64
    }

    pub(crate) fn set_velocity(&mut self, v: u32) {
        self.velocity = v;
    }

    pub(crate) fn set_gap(&mut self, gap: u32) {
        self.gap = gap;
    }

    pub(crate) fn advance_to(&mut self, position: usize, wrapped: bool) {
        self.position = position;
        self.wrapped_last_step = wrapped;
        if wrapped {
            self.laps += 1;
        }
    }

    /// Wire bytes of one [`Vehicle::capture`] record.
    pub(crate) const WIRE_BYTES: usize = 29;

    /// Serialize the complete vehicle state (checkpoint snapshots).
    pub(crate) fn capture(&self, w: &mut WireWriter) {
        w.put_u32(self.id.0);
        w.put_usize(self.position);
        w.put_u32(self.velocity);
        w.put_u32(self.gap);
        w.put_u64(self.laps);
        w.put_bool(self.wrapped_last_step);
    }

    /// Rebuild a vehicle from a [`Vehicle::capture`] stream.
    pub(crate) fn restore(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Vehicle {
            id: VehicleId(r.get_u32()?),
            position: r.get_usize()?,
            velocity: r.get_u32()?,
            gap: r.get_u32()?,
            laps: r.get_u64()?,
            wrapped_last_step: r.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_vehicle_state() {
        let v = Vehicle::new(VehicleId(3), 17, 2);
        assert_eq!(v.id(), VehicleId(3));
        assert_eq!(v.position(), 17);
        assert_eq!(v.velocity(), 2);
        assert_eq!(v.gap(), 0);
        assert_eq!(v.laps(), 0);
        assert!(!v.wrapped_last_step());
    }

    #[test]
    fn advance_tracks_wraps() {
        let mut v = Vehicle::new(VehicleId(0), 398, 5);
        v.advance_to(3, true);
        assert_eq!(v.position(), 3);
        assert_eq!(v.laps(), 1);
        assert!(v.wrapped_last_step());
        v.advance_to(8, false);
        assert!(!v.wrapped_last_step());
        assert_eq!(v.laps(), 1);
    }

    #[test]
    fn odometer_unrolls_laps() {
        let mut v = Vehicle::new(VehicleId(0), 10, 0);
        assert_eq!(v.odometer_cells(400), 10);
        v.advance_to(2, true);
        assert_eq!(v.odometer_cells(400), 402);
    }

    #[test]
    fn id_display_and_conversion() {
        let id: VehicleId = 7u32.into();
        assert_eq!(id.to_string(), "veh7");
    }
}
