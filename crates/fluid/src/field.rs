//! The per-step grid field: node binning, load deposition, utilization.
//!
//! The fluid model never touches node pairs. Nodes are binned into square
//! cells of half the reception range; everything downstream — contention,
//! connectivity, routing — happens at cell granularity, which is what
//! makes a 10k-node step cost microseconds instead of the exact engine's
//! per-frame event cascade.
//!
//! Two relations between cells, both fixed by geometry at construction:
//!
//! * **link adjacency** — occupied cells whose centers lie within
//!   `rx_range`. With cell size `rx_range / 2` that is the 12-offset
//!   neighborhood `dx² + dy² ≤ 4`.
//! * **contention** — cells whose centers lie within the carrier-sense
//!   range; the utilization of a cell integrates offered load over this
//!   neighborhood.
//!
//! Determinism: cells are indexed in sorted coordinate order, BFS expands
//! neighbors in a fixed offset order, and the utilization sum runs in a
//! fixed sequence per cell regardless of how many worker shards computed
//! it — so shard count never changes a bit of output.

use std::collections::BTreeMap;

use cavenet_mobility::Point2;

/// Offsets with `dx² + dy² ≤ 4`: centers within `2·cell = rx_range`.
/// Fixed order (row-major) keeps BFS expansion deterministic.
const LINK_OFFSETS: [(i32, i32); 12] = [
    (-2, 0),
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -2),
    (0, -1),
    (0, 1),
    (0, 2),
    (1, -1),
    (1, 0),
    (1, 1),
    (2, 0),
];

/// One step's occupied-cell field.
#[derive(Debug, Clone)]
pub struct Field {
    cell: f64,
    coords: Vec<(i32, i32)>,
    index: BTreeMap<(i32, i32), u32>,
    /// Nodes binned into each cell.
    pub count: Vec<u32>,
    /// Offered airtime load per cell (seconds of airtime per second).
    pub load: Vec<f64>,
    /// Channel utilization per cell (load integrated over the
    /// carrier-sense neighborhood). Filled by [`Field::integrate`].
    pub util: Vec<f64>,
    /// Cell index of each node.
    pub node_cell: Vec<u32>,
    contention_offsets: Vec<(i32, i32)>,
    /// Squared contention reach in cell units — the disk
    /// `contention_offsets` enumerates.
    reach2: f64,
}

impl Field {
    /// Bin `positions` (one per node, id order) into cells of size `cell`
    /// metres; `cs_range` bounds the contention neighborhood.
    pub fn bin(positions: &[Point2], cell: f64, cs_range: f64) -> Field {
        let key = |p: &Point2| ((p.x / cell).floor() as i32, (p.y / cell).floor() as i32);
        let mut index: BTreeMap<(i32, i32), u32> = BTreeMap::new();
        for p in positions {
            let next = index.len() as u32;
            index.entry(key(p)).or_insert(next);
        }
        // Re-number in sorted coordinate order so cell ids are a pure
        // function of the occupied set, not of node iteration order.
        let coords: Vec<(i32, i32)> = index.keys().copied().collect();
        for (i, c) in coords.iter().enumerate() {
            *index.get_mut(c).expect("coord from index") = i as u32;
        }
        let mut count = vec![0u32; coords.len()];
        let mut node_cell = Vec::with_capacity(positions.len());
        for p in positions {
            let c = index[&key(p)];
            count[c as usize] += 1;
            node_cell.push(c);
        }
        let reach = (cs_range / cell).max(0.0);
        let r = reach.ceil() as i32;
        let reach2 = reach * reach;
        let mut contention_offsets = Vec::new();
        for dx in -r..=r {
            for dy in -r..=r {
                if (dx * dx + dy * dy) as f64 <= reach2 {
                    contention_offsets.push((dx, dy));
                }
            }
        }
        let load = vec![0.0; coords.len()];
        let util = vec![0.0; coords.len()];
        Field {
            cell,
            coords,
            index,
            count,
            load,
            util,
            node_cell,
            contention_offsets,
            reach2,
        }
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the field has no occupied cells.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Geometric center of cell `c`.
    pub fn center(&self, c: u32) -> Point2 {
        let (ix, iy) = self.coords[c as usize];
        Point2::new(
            (f64::from(ix) + 0.5) * self.cell,
            (f64::from(iy) + 0.5) * self.cell,
        )
    }

    /// Center-to-center distance between two cells.
    pub fn center_distance(&self, a: u32, b: u32) -> f64 {
        self.center(a).distance(&self.center(b))
    }

    /// Occupied link-adjacent neighbors of `c`, in fixed offset order.
    pub fn neighbors<'a>(&'a self, c: u32) -> impl Iterator<Item = u32> + 'a {
        let (ix, iy) = self.coords[c as usize];
        LINK_OFFSETS
            .iter()
            .filter_map(move |&(dx, dy)| self.index.get(&(ix + dx, iy + dy)).copied())
    }

    /// Utilization of the range `[lo, hi)` of cell indices: for each cell,
    /// the sum of `load` over its contention neighborhood. Pure — writes
    /// only into `out` (same length as the range), reads only `load`.
    fn integrate_range(&self, lo: usize, hi: usize, out: &mut [f64]) {
        for (slot, c) in (lo..hi).enumerate() {
            let (ix, iy) = self.coords[c];
            let mut u = 0.0;
            for &(dx, dy) in &self.contention_offsets {
                if let Some(&n) = self.index.get(&(ix + dx, iy + dy)) {
                    u += self.load[n as usize];
                }
            }
            out[slot] = u;
        }
    }

    /// Fill [`Field::util`] from [`Field::load`], fanning the pure per-cell
    /// integral over `shards` workers. The per-cell arithmetic is identical
    /// for every shard count — this is an execution knob.
    pub fn integrate(&mut self, shards: u32) {
        let n = self.len();
        let shards = (shards.max(1) as usize).min(n.max(1));
        if shards <= 1 || n < 64 {
            let mut out = vec![0.0; n];
            self.integrate_range(0, n, &mut out);
            self.util = out;
            return;
        }
        let chunk = n.div_ceil(shards);
        let mut out = vec![0.0; n];
        std::thread::scope(|scope| {
            let field = &*self;
            let mut rest = out.as_mut_slice();
            let mut lo = 0;
            let mut handles = Vec::with_capacity(shards);
            while lo < n {
                let hi = (lo + chunk).min(n);
                let (mine, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                handles.push(scope.spawn(move || field.integrate_range(lo, hi, mine)));
                lo = hi;
            }
            for h in handles {
                h.join().expect("fluid shard worker panicked");
            }
        });
        self.util = out;
    }

    /// Sum of `deposits` (`(cell, offered-airtime)` pairs) whose cell lies
    /// within the contention disk of `at` — the same disk
    /// [`integrate`](Self::integrate) sums, so
    /// `util[at] - util_from(deposits, at)` is the utilization of `at`
    /// with those deposits excluded. Used to subtract a flow's own load
    /// from its delivery closure: a flow's frames are serialized by its
    /// own MAC queue and never collide with themselves.
    pub fn util_from(&self, deposits: &[(u32, f64)], at: u32) -> f64 {
        let (ax, ay) = self.coords[at as usize];
        deposits
            .iter()
            .map(|&(c, amount)| {
                let (cx, cy) = self.coords[c as usize];
                let (dx, dy) = (cx - ax, cy - ay);
                if f64::from(dx * dx + dy * dy) <= self.reach2 {
                    amount
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Deterministic BFS from `src` over occupied link-adjacent cells.
    /// Returns `(parent, dist_m)` arrays: `parent[c] == u32::MAX` marks an
    /// unreached cell (the source is its own parent), `dist_m` accumulates
    /// center-to-center path length in metres.
    pub fn bfs(&self, src: u32) -> (Vec<u32>, Vec<f64>) {
        let n = self.len();
        let mut parent = vec![u32::MAX; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut queue = std::collections::VecDeque::new();
        parent[src as usize] = src;
        dist[src as usize] = 0.0;
        queue.push_back(src);
        while let Some(c) = queue.pop_front() {
            for nb in self.neighbors(c) {
                if parent[nb as usize] == u32::MAX {
                    parent[nb as usize] = c;
                    dist[nb as usize] = dist[c as usize] + self.center_distance(c, nb);
                    queue.push_back(nb);
                }
            }
        }
        (parent, dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(nodes: usize, spacing: f64) -> Vec<Point2> {
        (0..nodes)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn binning_counts_every_node() {
        let f = Field::bin(&line(10, 50.0), 125.0, 550.0);
        assert_eq!(f.count.iter().sum::<u32>(), 10);
        assert_eq!(f.node_cell.len(), 10);
    }

    #[test]
    fn bfs_spans_a_connected_line() {
        let f = Field::bin(&line(20, 100.0), 125.0, 550.0);
        let src = f.node_cell[0];
        let (parent, dist) = f.bfs(src);
        let last = f.node_cell[19];
        assert_ne!(parent[last as usize], u32::MAX, "line must be connected");
        // 19 gaps of 100 m ≈ 1.9 km of path, measured at cell granularity.
        assert!(dist[last as usize] > 1000.0 && dist[last as usize] < 3000.0);
    }

    #[test]
    fn bfs_respects_a_gap() {
        let mut pts = line(5, 100.0);
        // Second cluster 2 km away: far beyond rx range.
        pts.extend((0..5).map(|i| Point2::new(2000.0 + i as f64 * 100.0, 0.0)));
        let f = Field::bin(&pts, 125.0, 550.0);
        let (parent, _) = f.bfs(f.node_cell[0]);
        assert_eq!(parent[f.node_cell[9] as usize], u32::MAX);
    }

    #[test]
    fn integration_is_shard_invariant() {
        let pts = line(200, 37.0);
        let mut a = Field::bin(&pts, 125.0, 550.0);
        for (i, l) in a.load.iter_mut().enumerate() {
            *l = (i as f64 * 0.01).sin().abs() * 0.2;
        }
        let mut b = a.clone();
        a.integrate(1);
        b.integrate(7);
        assert_eq!(a.util, b.util, "shard count leaked into utilization");
        assert!(a.util.iter().any(|&u| u > 0.0));
    }
}
