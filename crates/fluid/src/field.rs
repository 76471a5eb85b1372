//! The per-step grid field: node binning, load deposition, utilization.
//!
//! The fluid model never touches node pairs. Nodes are binned into square
//! cells of half the reception range; everything downstream — contention,
//! connectivity, routing — happens at cell granularity. Past one pass over
//! the nodes (sample, bin) a step costs a few forward sweeps over the
//! occupied cells (DESIGN.md §17), where the exact engine spends seconds
//! per simulated second on its per-frame event cascade.
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
//! Both are disks of integer offsets, and a disk is a run of columns: at
//! each `dx`, the offsets `|dy| ≤ h`. The field's one index is its cell
//! coordinates in sorted `(x, y)` order, so each column of a cell's disk is
//! a contiguous range of cell ids, and the ranges of consecutive cells
//! only move forward. A `Sweep` walks every cell's disk with one such
//! pointer per column: the utilization integral, link adjacency and a
//! flood's own-load exclusion are each one sweep, O(cells × columns) plus
//! the neighbours they visit.
//!
//! Determinism: cell ids come from sorting the distinct occupied
//! coordinates, and a sweep visits a disk's cells in ascending id, which
//! is `(dx, dy)` order: dx-major, dy ascending. Each cell's utilization is
//! therefore the same sum, added in the same order, as one lookup per
//! disk offset would give, and BFS expands neighbors in that fixed order.
//! Cell arithmetic runs in `i64` or saturates, so a position beyond the
//! `i32` cell range cannot overflow it.

use cavenet_mobility::Point2;
use cavenet_net::FastMap;

/// The link disk `dx² + dy² ≤ 4` (centers within `2·cell = rx_range`) as
/// columns `(dx, h)`: the offsets `(dx, dy)` with `|dy| ≤ h`. A sweep
/// visits them dx-major, dy ascending, so BFS expands in that fixed order.
const LINK_COLUMNS: [(i32, i32); 5] = [(-2, 0), (-1, 1), (0, 2), (1, 1), (2, 0)];

/// A relative margin inside each cell edge. The product `v · (1 / cell)`
/// is within a few ulps of the quotient `v / cell`, so a product farther
/// than this from every integer floors as the quotient does.
const KEY_EDGE: f64 = 1e-12;

/// Cell coordinates of positions along one axis, `(v / cell).floor() as
/// i32`, and the span of products `v · (1 / cell)` that share a key: a
/// node whose product lies inside the previous key's span needs no
/// division and no floor (the x86-64 baseline has no floor instruction).
#[derive(Debug, Clone, Copy)]
struct CellKey {
    cell: f64,
    /// `1 / cell`, for any `cell`: an infinite reciprocal gives products
    /// no span holds, and a subnormal one, from a cell above 4.5e307,
    /// still has a precision far finer than [`KEY_EDGE`].
    inv: f64,
}

/// The products `q = v · (1 / cell)` strictly inside `(lo, hi)`: a cell's
/// span of products, shrunk by [`KEY_EDGE`], so the quotient of every one
/// of them floors to the cell's key.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: f64,
    hi: f64,
}

impl Span {
    const EMPTY: Span = Span {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The span of key `k`. Valid for every key the division gives,
    /// including the saturated `i32::MIN` and `i32::MAX` and the 0 of a
    /// NaN, since a quotient strictly inside `(k, k + 1)` floors to `k`.
    fn of(k: i32) -> Span {
        let (k, k1) = (f64::from(k), f64::from(k) + 1.0);
        let margin = KEY_EDGE * k.abs().max(k1.abs());
        Span {
            lo: k + margin,
            hi: k1 - margin,
        }
    }

    /// Whether the span holds `q`. Both comparisons are evaluated, so a
    /// caller can test two spans with one branch: with node order unrelated
    /// to position, a short-circuit branch on `q > lo` alone goes either way
    /// at random.
    #[inline]
    fn holds(self, q: f64) -> bool {
        (q > self.lo) & (q < self.hi)
    }
}

impl CellKey {
    fn new(cell: f64) -> CellKey {
        CellKey {
            cell,
            inv: 1.0 / cell,
        }
    }

    /// The product `v · (1 / cell)`.
    #[inline]
    fn product(self, v: f64) -> f64 {
        v * self.inv
    }

    /// The key of `v` and the span of products that share it.
    #[inline]
    fn of(self, v: f64) -> (i32, Span) {
        let k = (v / self.cell).floor() as i32;
        (k, Span::of(k))
    }
}

/// Packs cell coordinates into one key whose unsigned order is the
/// `(x, y)` lexicographic order.
#[inline]
fn pack(x: i32, y: i32) -> u64 {
    (u64::from(x as u32 ^ 0x8000_0000) << 32) | u64::from(y as u32 ^ 0x8000_0000)
}

#[inline]
fn unpack(k: u64) -> (i32, i32) {
    (
        ((k >> 32) as u32 ^ 0x8000_0000) as i32,
        (k as u32 ^ 0x8000_0000) as i32,
    )
}

/// The key range of column `(dx, h)` of the disk around cell `(x, y)`,
/// or `None` when the column lies beyond the `i32` cell range. The `dy`
/// bounds saturate: no cell lies beyond them.
#[inline]
fn column_keys(x: i32, y: i32, (dx, h): (i32, i32)) -> Option<(u64, u64)> {
    let cx = x.checked_add(dx)?;
    Some((pack(cx, y.saturating_sub(h)), pack(cx, y.saturating_add(h))))
}

/// The columns `(dx, h)` of the disk `dx² + dy² ≤ reach2` of integer
/// offsets, `|dx| ≤ r`: per `dx` that holds any offset, in ascending
/// order, the largest `h` with `(dx, h)` inside.
fn disk_columns(reach2: f64, r: i32) -> Vec<(i32, i32)> {
    (-r..=r)
        .filter_map(|dx| {
            let inside = |dy: i32| {
                (i64::from(dx) * i64::from(dx) + i64::from(dy) * i64::from(dy)) as f64 <= reach2
            };
            (0..=r).take_while(|&dy| inside(dy)).last().map(|h| (dx, h))
        })
        .collect()
}

/// Walks the disks of cells in ascending id with one forward-only pointer
/// per column: the first cell not below that column's window for the
/// last cell visited.
struct Sweep<'a> {
    keys: &'a [u64],
    columns: &'a [(i32, i32)],
    next: Vec<usize>,
}

impl<'a> Sweep<'a> {
    fn new(keys: &'a [u64], columns: &'a [(i32, i32)]) -> Sweep<'a> {
        Sweep {
            keys,
            columns,
            next: vec![0; columns.len()],
        }
    }

    /// Calls `visit` with every occupied cell of cell `c`'s disk, in
    /// ascending id (the disk's `(dx, dy)` order). `c` must not decrease
    /// from one call to the next.
    #[inline]
    fn disk(&mut self, c: usize, mut visit: impl FnMut(usize)) {
        let keys = self.keys;
        let (x, y) = unpack(keys[c]);
        for (&column, next) in self.columns.iter().zip(self.next.iter_mut()) {
            let Some((lo, hi)) = column_keys(x, y, column) else {
                continue;
            };
            let mut p = *next;
            while p < keys.len() && keys[p] < lo {
                p += 1;
            }
            *next = p;
            while p < keys.len() && keys[p] <= hi {
                visit(p);
                p += 1;
            }
        }
    }
}

/// One step's occupied-cell field.
#[derive(Debug, Clone)]
pub struct Field {
    cell: f64,
    /// The cell index: occupied cell coordinates, packed by `pack`, in
    /// ascending order. Cell `c` is `keys[c]`.
    keys: Vec<u64>,
    /// Nodes binned into each cell.
    pub count: Vec<u32>,
    /// Offered airtime load per cell (seconds of airtime per second).
    pub load: Vec<f64>,
    /// Channel utilization per cell (load integrated over the
    /// carrier-sense neighborhood). Filled by [`Field::integrate`].
    pub util: Vec<f64>,
    /// Cell index of each node.
    pub node_cell: Vec<u32>,
    /// The contention disk, as `disk_columns` gives it.
    columns: Vec<(i32, i32)>,
    /// Squared contention reach in cell units — the disk `columns` spans.
    reach2: f64,
}

impl Field {
    /// Bin `positions` (one per node, id order) into cells of size `cell`
    /// metres; `cs_range` bounds the contention neighborhood.
    pub fn bin(positions: &[Point2], cell: f64, cs_range: f64) -> Field {
        let key = CellKey::new(cell);
        // Split the nodes into runs that share a cell, numbering cells in
        // first-seen order. Consecutive ids mostly share a cell (vehicles
        // are numbered along the road), so a node whose products lie in
        // the spans of the run's cell joins the run without a key or a
        // map lookup. The map hashes the coordinate pair, not the packed
        // key: a multiplicative hash of the packed key would pick buckets
        // by `y` alone.
        let mut index: FastMap<(i32, i32), u32> = FastMap::default();
        let mut seen: Vec<u64> = Vec::new();
        // Each run's end (one past its last node) and its cell's
        // first-seen id.
        let mut runs: Vec<(usize, u32)> = Vec::new();
        let (mut span_x, mut span_y) = (Span::EMPTY, Span::EMPTY);
        for (i, p) in positions.iter().enumerate() {
            let (qx, qy) = (key.product(p.x), key.product(p.y));
            if span_x.holds(qx) & span_y.holds(qy) {
                continue;
            }
            let (kx, sx) = key.of(p.x);
            let (ky, sy) = key.of(p.y);
            (span_x, span_y) = (sx, sy);
            let c = *index.entry((kx, ky)).or_insert_with(|| {
                seen.push(pack(kx, ky));
                seen.len() as u32 - 1
            });
            if let Some(run) = runs.last_mut() {
                run.0 = i;
            }
            runs.push((positions.len(), c));
        }
        // Re-number in sorted coordinate order so cell ids are a pure
        // function of the occupied set, not of node or hash order.
        let mut sorted: Vec<(u64, u32)> = seen.into_iter().zip(0..).collect();
        sorted.sort_unstable();
        let mut rank = vec![0u32; sorted.len()];
        for (new, &(_, first_seen)) in sorted.iter().enumerate() {
            rank[first_seen as usize] = new as u32;
        }
        let keys: Vec<u64> = sorted.into_iter().map(|(k, _)| k).collect();
        let mut count = vec![0u32; keys.len()];
        let mut node_cell = Vec::with_capacity(positions.len());
        for &(end, c) in &runs {
            let c = rank[c as usize];
            count[c as usize] += (end - node_cell.len()) as u32;
            node_cell.resize(end, c);
        }
        let reach = (cs_range / cell).max(0.0);
        let reach2 = reach * reach;
        let columns = disk_columns(reach2, reach.ceil() as i32);
        let load = vec![0.0; keys.len()];
        let util = vec![0.0; keys.len()];
        Field {
            cell,
            keys,
            count,
            load,
            util,
            node_cell,
            columns,
            reach2,
        }
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the field has no occupied cells.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Geometric center of cell `c`.
    pub fn center(&self, c: u32) -> Point2 {
        let (ix, iy) = unpack(self.keys[c as usize]);
        Point2::new(
            (f64::from(ix) + 0.5) * self.cell,
            (f64::from(iy) + 0.5) * self.cell,
        )
    }

    /// Center-to-center distance between two cells.
    pub fn center_distance(&self, a: u32, b: u32) -> f64 {
        self.center(a).distance(&self.center(b))
    }

    /// For every cell, the sum of `values` over its contention disk,
    /// added from 0.0 in the disk's `(dx, dy)` order.
    fn disk_sums(&self, values: &[f64], out: &mut [f64]) {
        assert_eq!(values.len(), self.len());
        let mut sweep = Sweep::new(&self.keys, &self.columns);
        for (c, sum) in out.iter_mut().enumerate() {
            let mut u = 0.0;
            sweep.disk(c, |n| u += values[n]);
            *sum = u;
        }
    }

    /// Fill [`Field::util`] from [`Field::load`]: each cell's load summed
    /// over its contention disk, in one serial sweep.
    ///
    /// `shards` does nothing. It once fanned the integral over worker
    /// threads, which never beat one (DESIGN.md §17), and remains only
    /// because the repository benchmark package (`benchmarks/benchmark`)
    /// still passes it.
    pub fn integrate(&mut self, _shards: u32) {
        let mut util = std::mem::take(&mut self.util);
        util.resize(self.len(), 0.0);
        self.disk_sums(&self.load, &mut util);
        self.util = util;
    }

    /// Sum of `deposits` (`(cell, offered-airtime)` pairs) whose cell lies
    /// within the contention disk of `at` — the same disk
    /// [`integrate`](Self::integrate) sums, so
    /// `util[at] - util_from(deposits, at)` is the utilization of `at`
    /// with those deposits excluded. Used to subtract a flow's own load
    /// from its delivery closure: a flow's frames are serialized by its
    /// own MAC queue and never collide with themselves.
    pub fn util_from(&self, deposits: &[(u32, f64)], at: u32) -> f64 {
        let (ax, ay) = unpack(self.keys[at as usize]);
        deposits
            .iter()
            .map(|&(c, amount)| {
                let (cx, cy) = unpack(self.keys[c as usize]);
                // Exact below 2^26 cells apart, where the disk lies.
                let dx = (i64::from(cx) - i64::from(ax)) as f64;
                let dy = (i64::from(cy) - i64::from(ay)) as f64;
                if dx * dx + dy * dy <= self.reach2 {
                    amount
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// [`util_from`](Self::util_from) at every cell at once, in one sweep
    /// instead of one scan of `deposits` per cell.
    ///
    /// Bit for bit equal to it when there are deposits, at distinct cells
    /// in ascending id, with non-negative amounts, as a flood's are: a sweep
    /// adds a disk's cells in ascending id, which is then the deposits'
    /// own order, and the +0.0 it adds for a cell without a deposit, like
    /// the 0.0 `util_from` adds for a deposit out of reach, never changes
    /// a non-negative sum.
    pub(crate) fn deposit_util(&self, deposits: &[(u32, f64)]) -> Vec<f64> {
        let mut own = vec![0.0; self.len()];
        for &(c, amount) in deposits {
            own[c as usize] = amount;
        }
        let mut out = vec![0.0; self.len()];
        self.disk_sums(&own, &mut out);
        out
    }

    /// Each cell's node count plus those of its link-adjacent cells.
    pub(crate) fn link_counts(&self) -> Vec<u32> {
        let mut sweep = Sweep::new(&self.keys, &LINK_COLUMNS);
        (0..self.len())
            .map(|c| {
                let mut near = 0;
                sweep.disk(c, |n| near += self.count[n]);
                near
            })
            .collect()
    }

    /// Link adjacency in compressed rows: the occupied link-adjacent
    /// neighbors of `c` are `adj[start[c]..start[c + 1]]`, in the link
    /// disk's fixed `(dx, dy)` order.
    fn adjacency(&self) -> (Vec<u32>, Vec<u32>) {
        let mut sweep = Sweep::new(&self.keys, &LINK_COLUMNS);
        let mut start = Vec::with_capacity(self.len() + 1);
        let mut adj = Vec::new();
        start.push(0);
        for c in 0..self.len() {
            sweep.disk(c, |n| {
                if n != c {
                    adj.push(n as u32);
                }
            });
            start.push(adj.len() as u32);
        }
        (start, adj)
    }

    /// Deterministic BFS from `src` over occupied link-adjacent cells.
    /// Returns `(parent, dist_m)` arrays: `parent[c] == u32::MAX` marks an
    /// unreached cell (the source is its own parent), `dist_m` accumulates
    /// center-to-center path length in metres.
    pub fn bfs(&self, src: u32) -> (Vec<u32>, Vec<f64>) {
        let (start, adj) = self.adjacency();
        let n = self.len();
        let mut parent = vec![u32::MAX; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut queue = std::collections::VecDeque::new();
        parent[src as usize] = src;
        dist[src as usize] = 0.0;
        queue.push_back(src);
        while let Some(c) = queue.pop_front() {
            let c_ = c as usize;
            for &nb in &adj[start[c_] as usize..start[c_ + 1] as usize] {
                if parent[nb as usize] == u32::MAX {
                    parent[nb as usize] = c;
                    dist[nb as usize] = dist[c_] + self.center_distance(c, nb);
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

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

    #[test]
    fn far_coordinates_stay_apart() {
        // ±1e12 m puts x beyond the i32 cell range: both clusters saturate
        // to the extreme columns, where a cell offset would overflow.
        let pts = [
            Point2::new(1e12, 0.0),
            Point2::new(1e12, 130.0),
            Point2::new(-1e12, 0.0),
            Point2::new(-1e12, 130.0),
        ];
        let mut f = Field::bin(&pts, 125.0, 550.0);
        assert_eq!(f.len(), 4);
        let cells: Vec<u32> = f.node_cell.clone();
        assert_eq!(cells, vec![2, 3, 0, 1]);
        f.load = vec![1.0, 2.0, 4.0, 8.0];
        f.integrate(1);
        assert_eq!(f.util, vec![3.0, 3.0, 12.0, 12.0]);
        let (start, adj) = f.adjacency();
        assert_eq!(start, vec![0, 1, 2, 3, 4]);
        assert_eq!(adj, vec![1, 0, 3, 2]);
        let (parent, dist) = f.bfs(2);
        assert_eq!(parent, vec![u32::MAX, u32::MAX, 2, 2]);
        assert_eq!(dist[3], 125.0);
        let deposits = [(0, 1.0), (1, 2.0)];
        assert_eq!(f.util_from(&deposits, 2), 0.0);
        assert_eq!(f.util_from(&deposits, 1), 3.0);
    }

    /// The `BTreeMap`-indexed binning that preceded the sorted sweep, kept
    /// as the reference it must reproduce bit for bit: one lookup per disk
    /// offset, an offset beyond the `i32` cell range finding no cell.
    struct Reference {
        coords: Vec<(i32, i32)>,
        index: BTreeMap<(i32, i32), u32>,
        count: Vec<u32>,
        node_cell: Vec<u32>,
        contention_offsets: Vec<(i32, i32)>,
    }

    /// Offsets with `dx² + dy² ≤ 4`, dx-major, dy ascending.
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

    impl Reference {
        fn bin(positions: &[Point2], cell: f64, cs_range: f64) -> Reference {
            let key = |p: &Point2| ((p.x / cell).floor() as i32, (p.y / cell).floor() as i32);
            let mut index: BTreeMap<(i32, i32), u32> = BTreeMap::new();
            for p in positions {
                let next = index.len() as u32;
                index.entry(key(p)).or_insert(next);
            }
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
            let mut contention_offsets = Vec::new();
            for dx in -r..=r {
                for dy in -r..=r {
                    if (dx * dx + dy * dy) as f64 <= reach * reach {
                        contention_offsets.push((dx, dy));
                    }
                }
            }
            Reference {
                coords,
                index,
                count,
                node_cell,
                contention_offsets,
            }
        }

        fn at(&self, c: u32, (dx, dy): (i32, i32)) -> Option<u32> {
            let (ix, iy) = self.coords[c as usize];
            let key = (ix.checked_add(dx)?, iy.checked_add(dy)?);
            self.index.get(&key).copied()
        }

        fn neighbors(&self, c: u32) -> Vec<u32> {
            LINK_OFFSETS.iter().filter_map(|&o| self.at(c, o)).collect()
        }

        fn util(&self, load: &[f64]) -> Vec<f64> {
            (0..self.coords.len() as u32)
                .map(|c| {
                    let mut u = 0.0;
                    for &o in &self.contention_offsets {
                        if let Some(n) = self.at(c, o) {
                            u += load[n as usize];
                        }
                    }
                    u
                })
                .collect()
        }

        fn bfs(&self, src: u32, cell: f64) -> (Vec<u32>, Vec<f64>) {
            let center = |c: u32| {
                let (ix, iy) = self.coords[c as usize];
                Point2::new((f64::from(ix) + 0.5) * cell, (f64::from(iy) + 0.5) * cell)
            };
            let n = self.coords.len();
            let mut parent = vec![u32::MAX; n];
            let mut dist = vec![f64::INFINITY; n];
            let mut queue = VecDeque::new();
            parent[src as usize] = src;
            dist[src as usize] = 0.0;
            queue.push_back(src);
            while let Some(c) = queue.pop_front() {
                for nb in self.neighbors(c) {
                    if parent[nb as usize] == u32::MAX {
                        parent[nb as usize] = c;
                        dist[nb as usize] = dist[c as usize] + center(c).distance(&center(nb));
                        queue.push_back(nb);
                    }
                }
            }
            (parent, dist)
        }
    }

    /// One point of a mixed set, in units of the cell size: anywhere in
    /// ±40 cells (`kind` 0), on a cell edge or corner (1), inside one fixed
    /// cell (2), in one of two clusters ±10⁵ cells out (3), in one of two
    /// clusters beyond the `i32` cell range (4), or straddling its ends
    /// (5).
    fn point_strategy() -> impl Strategy<Value = (u8, i32, i32, f64, f64)> {
        (0u8..6, -40i32..40, -40i32..40, 0.0f64..1.0, 0.0f64..1.0)
    }

    fn place(cell: f64, (kind, i, j, u, v): (u8, i32, i32, f64, f64)) -> Point2 {
        let at = |a: f64, b: f64| Point2::new(a * cell, b * cell);
        let side = |k: i32, far: f64| if k < 0 { -far } else { far };
        match kind {
            0 => at(f64::from(i) + u, f64::from(j) + v),
            1 => at(f64::from(i), f64::from(j) + if u < 0.5 { 0.0 } else { v }),
            2 => at(3.0 + u, -7.0 + v),
            3 => {
                let far = side(i, 1e5);
                at(far + u * 6.0, -far + v * 6.0)
            }
            4 => {
                let far = side(i, 8e9);
                at(far * (1.0 + u), f64::from(j) + v)
            }
            _ => {
                let end = side(i, 2_147_483_648.0);
                at(end + f64::from(i % 4) + u, -end + f64::from(j % 4) + v)
            }
        }
    }

    fn f64_bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn coords(field: &Field) -> Vec<(i32, i32)> {
        field.keys.iter().map(|&k| unpack(k)).collect()
    }

    fn offsets(columns: &[(i32, i32)]) -> Vec<(i32, i32)> {
        columns
            .iter()
            .flat_map(|&(dx, h)| (-h..=h).map(move |dy| (dx, dy)))
            .collect()
    }

    /// Values that probe a cell key: multiples of `cell` and their
    /// neighbouring floats, signed zeros, subnormals, infinities, both
    /// NaNs, and values whose key lies beyond the `i32` range.
    fn key_probes(cell: f64, k: i64, x: f64) -> Vec<f64> {
        let on = k as f64 * cell;
        vec![
            on,
            on.next_up(),
            on.next_down(),
            -on,
            (-on).next_up(),
            (-on).next_down(),
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE.next_down(),
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN,
            2_147_483_648.0 * cell,
            (2_147_483_648.0 * cell).next_down(),
            -2_147_483_648.0 * cell,
            (-2_147_483_648.0 * cell).next_down(),
            (-2_147_483_648.0 * cell).next_up(),
            1e12,
            -1e12,
            x,
            x * cell,
        ]
    }

    proptest! {
        // At least 512 cases; `PROPTEST_CASES` raises it (CI runs 4096).
        #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(512)))]
        #[test]
        fn swept_field_equals_reference(
            points in prop::collection::vec(point_strategy(), 1..400),
            only in 0u8..8,
            cell in prop_oneof![Just(125.0f64), Just(50.0), Just(1.0), 0.1f64..300.0],
            reach in 0.0f64..6.0,
            loads in prop::collection::vec(0.0f64..0.5, 1..16),
            deposited in prop::collection::vec(any::<bool>(), 1..16),
        ) {
            // `only` < 6 restricts the set to one kind: a single cell, just
            // edges, or just far clusters. The carrier-sense reach spans
            // 0–6 cells.
            let cs_range = reach * cell;
            let positions: Vec<Point2> = points
                .into_iter()
                .map(|(kind, i, j, u, v)| (if only < 6 { only } else { kind }, i, j, u, v))
                .map(|p| place(cell, p))
                .collect();
            let field = Field::bin(&positions, cell, cs_range);
            let reference = Reference::bin(&positions, cell, cs_range);
            prop_assert_eq!(coords(&field), reference.coords.clone());
            prop_assert_eq!(&field.count, &reference.count);
            prop_assert_eq!(&field.node_cell, &reference.node_cell);
            prop_assert_eq!(offsets(&field.columns), reference.contention_offsets.clone());
            prop_assert_eq!(offsets(&LINK_COLUMNS), {
                let mut link = LINK_OFFSETS.to_vec();
                link.insert(6, (0, 0));
                link
            });
            let link_counts = field.link_counts();
            let (start, adj) = field.adjacency();
            prop_assert_eq!(start.len(), field.len() + 1);
            for c in 0..field.len() as u32 {
                let neighbors = reference.neighbors(c);
                let row = &adj[start[c as usize] as usize..start[c as usize + 1] as usize];
                prop_assert_eq!(row, &neighbors[..]);
                let near: u32 = neighbors.iter().map(|&n| reference.count[n as usize]).sum();
                prop_assert_eq!(link_counts[c as usize], reference.count[c as usize] + near);
            }
            let load: Vec<f64> = (0..field.len()).map(|c| loads[c % loads.len()]).collect();
            let expected = f64_bits(&reference.util(&load));
            for shards in [1, 3] {
                let mut f = field.clone();
                f.load.clone_from(&load);
                f.integrate(shards);
                prop_assert_eq!(f64_bits(&f.util), expected.clone());
            }
            // A flood's own deposits: distinct cells in ascending id, its
            // source's among them.
            let deposits: Vec<(u32, f64)> = (0..field.len() as u32)
                .filter(|&c| c == field.node_cell[0] || deposited[c as usize % deposited.len()])
                .map(|c| (c, load[c as usize]))
                .collect();
            let own = field.deposit_util(&deposits);
            for c in 0..field.len() as u32 {
                prop_assert_eq!(
                    own[c as usize].to_bits(),
                    field.util_from(&deposits, c).to_bits(),
                    "cell {}", c
                );
            }
            for src in [field.node_cell[0], (field.len() - 1) as u32] {
                let (parent, dist) = field.bfs(src);
                let (ref_parent, ref_dist) = reference.bfs(src, cell);
                prop_assert_eq!(parent, ref_parent);
                prop_assert_eq!(f64_bits(&dist), f64_bits(&ref_dist));
            }
        }

        #[test]
        fn cell_key_equals_reference(
            cell in prop_oneof![
                Just(0.1f64),
                Just(1.0),
                Just(125.0),
                1e-3f64..1e4,
                any::<u64>().prop_map(f64::from_bits),
                // Reciprocals that are subnormal or overflow.
                prop_oneof![Just(f64::MAX), 4.5e307f64..1.7e308, 0.0f64..1e-307],
            ],
            k in prop_oneof![-50i64..50, any::<i32>().prop_map(i64::from), any::<i64>()],
            x in prop_oneof![-1e4f64..1e4, any::<u64>().prop_map(f64::from_bits)],
        ) {
            let key = CellKey::new(cell);
            let probes = key_probes(cell, k, x);
            let floored = |v: f64| (v / cell).floor() as i32;
            for &v in &probes {
                let (kv, span) = key.of(v);
                prop_assert_eq!(kv, floored(v), "v = {:e}, cell = {:e}", v, cell);
                // Every probe whose product the span holds shares the key,
                // as do values at the span's ends.
                let ends = [span.lo * cell, span.hi * cell, (span.lo + span.hi) / 2.0 * cell];
                let near = ends.iter().flat_map(|&e| [e, e.next_up(), e.next_down()]);
                for w in probes.iter().copied().chain(near) {
                    if span.holds(key.product(w)) {
                        prop_assert_eq!(floored(w), kv, "v = {:e}, w = {:e}, cell = {:e}", v, w, cell);
                    }
                }
            }
        }
    }
}
