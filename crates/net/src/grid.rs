//! Uniform spatial-hash grid for neighbor pruning on broadcasts.
//!
//! The discrete-event engine schedules one `RxStart`/`RxEnd` pair per
//! station in carrier-sense range of every transmission. Scanning all `N`
//! stations per frame makes broadcast-heavy protocols (OLSR, flooding)
//! quadratic in node count; hashing stations into cells of edge length equal
//! to the carrier-sense cutoff restricts each scan to the 3×3 cell
//! neighborhood of the sender — `O(neighbors)` instead of `O(N)` — while
//! producing the exact same receiver set (the per-candidate power check is
//! unchanged; the grid only removes stations that provably cannot sense the
//! frame).

use crate::hash::FastMap;

/// A uniform spatial-hash grid over node positions.
///
/// Built from a position snapshot and queried once per transmission; the
/// simulator rebuilds it only when its nodes may have drifted past a slack
/// (see [`PositionEpoch`](crate::PositionEpoch)). Candidate lists are
/// returned in ascending node order so that event scheduling is
/// bit-identical to a full `0..N` scan.
#[derive(Debug, Clone, Default)]
pub struct SpatialGrid {
    cell: f64,
    cells: FastMap<(i64, i64), Vec<u32>>,
    nodes: usize,
}

impl SpatialGrid {
    /// Create an empty grid with the given cell edge length in metres.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "grid cell size must be positive and finite, got {cell_size}"
        );
        SpatialGrid {
            cell: cell_size,
            cells: FastMap::default(),
            nodes: 0,
        }
    }

    /// Cell edge length in metres.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of nodes currently indexed.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the grid holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Re-index the grid from a position snapshot (`positions[i]` is node
    /// `i`). Per-cell node lists stay sorted because nodes are inserted in
    /// index order.
    pub fn rebuild(&mut self, positions: &[(f64, f64)]) {
        let cell = self.cell;
        let cell_of = |x: f64, y: f64| ((x / cell).floor() as i64, (y / cell).floor() as i64);
        self.cells.clear();
        self.nodes = positions.len();
        for (i, &(x, y)) in positions.iter().enumerate() {
            self.cells.entry(cell_of(x, y)).or_default().push(i as u32);
        }
    }

    /// Collect into `out` every node whose cell intersects the axis-aligned
    /// square of half-width `range` around `center` — a superset of all
    /// nodes within Euclidean distance `range`. Results are appended in
    /// ascending node order.
    pub fn candidates_within(&self, center: (f64, f64), range: f64, out: &mut Vec<usize>) {
        let start = out.len();
        let (cx, cy) = center;
        let x0 = ((cx - range) / self.cell).floor() as i64;
        let x1 = ((cx + range) / self.cell).floor() as i64;
        let y0 = ((cy - range) / self.cell).floor() as i64;
        let y1 = ((cy + range) / self.cell).floor() as i64;
        let span = (x1 - x0 + 1).saturating_mul(y1 - y0 + 1);
        if span as u128 <= self.cells.len() as u128 * 2 {
            for gx in x0..=x1 {
                for gy in y0..=y1 {
                    if let Some(bucket) = self.cells.get(&(gx, gy)) {
                        out.extend(bucket.iter().map(|&i| i as usize));
                    }
                }
            }
        } else {
            // The query square covers more cells than exist: walking the
            // occupied cells directly is cheaper than probing empty ones.
            for (&(gx, gy), bucket) in &self.cells {
                if (x0..=x1).contains(&gx) && (y0..=y1).contains(&gy) {
                    out.extend(bucket.iter().map(|&i| i as usize));
                }
            }
        }
        out[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(grid: &SpatialGrid, center: (f64, f64), range: f64) -> Vec<usize> {
        let mut out = Vec::new();
        grid.candidates_within(center, range, &mut out);
        out
    }

    #[test]
    fn covers_all_nodes_within_range() {
        let positions: Vec<(f64, f64)> = (0..100)
            .map(|i| ((i % 10) as f64 * 50.0, (i / 10) as f64 * 50.0))
            .collect();
        let mut grid = SpatialGrid::new(120.0);
        grid.rebuild(&positions);
        assert_eq!(grid.len(), 100);
        let center = positions[44];
        let got = candidates(&grid, center, 120.0);
        for (j, &(x, y)) in positions.iter().enumerate() {
            let d = ((x - center.0).powi(2) + (y - center.1).powi(2)).sqrt();
            if d <= 120.0 {
                assert!(got.contains(&j), "node {j} at distance {d} missing");
            }
        }
    }

    #[test]
    fn candidates_are_sorted_and_deduplicated_by_construction() {
        let positions = vec![(0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (0.5, 0.5)];
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild(&positions);
        let got = candidates(&grid, (0.0, 0.0), 10.0);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(got, sorted);
    }

    #[test]
    fn negative_coordinates_hash_correctly() {
        let positions = vec![(-0.5, -0.5), (0.5, 0.5)];
        let mut grid = SpatialGrid::new(1.0);
        grid.rebuild(&positions);
        // Both nodes sit within 2 m of the origin; a naive `as i64` cast
        // (truncation toward zero) would fold cell −1 into cell 0.
        assert_eq!(candidates(&grid, (0.0, 0.0), 2.0), vec![0, 1]);
        assert_eq!(candidates(&grid, (-0.5, -0.5), 0.1), vec![0]);
    }

    #[test]
    fn huge_range_degrades_to_full_scan() {
        let positions: Vec<(f64, f64)> = (0..32).map(|i| (i as f64 * 7.0, 0.0)).collect();
        let mut grid = SpatialGrid::new(5.0);
        grid.rebuild(&positions);
        let got = candidates(&grid, (0.0, 0.0), 1e6);
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn rebuild_replaces_previous_contents() {
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild(&[(0.0, 0.0), (5.0, 5.0)]);
        grid.rebuild(&[(100.0, 100.0)]);
        assert_eq!(grid.len(), 1);
        assert!(candidates(&grid, (0.0, 0.0), 8.0).is_empty());
        assert_eq!(candidates(&grid, (100.0, 100.0), 1.0), vec![0]);
    }

    #[test]
    fn empty_grid_yields_no_candidates() {
        let mut grid = SpatialGrid::new(1.0);
        grid.rebuild(&[]);
        assert!(grid.is_empty());
        assert!(candidates(&grid, (3.0, 4.0), 100.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_rejected() {
        let _ = SpatialGrid::new(0.0);
    }
}
