//! Time-major storage for traces whose nodes share one sample-time vector.

use super::{lerp, segment_of, NodeTrajectory, TraceSample};
use crate::Point2;

/// Every node of a trace sampled at the same times, stored time-major: one
/// shared `times` vector and, per frame, every node's x, y and speed in
/// node order, plus a teleport bitset. Sample `j` of node `id` sits at
/// index `j * nodes + id`. A trace with no nodes has no frames.
#[derive(Debug, Clone, PartialEq, Default)]
pub(super) struct Frames {
    nodes: usize,
    times: Vec<f64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    speeds: Vec<f64>,
    /// [`words`](Self::words) words per frame: bit `id` of frame `j` is set
    /// when node `id` jumped into its sample `j`.
    teleports: Vec<u64>,
}

/// Where a query time falls on the shared times.
#[derive(Debug, Clone, Copy)]
pub(super) enum At {
    /// On frame `j`: the query clamps to the first or the last time.
    Frame(usize),
    /// Inside the segment from frame `i` to frame `i + 1`, at weight `w`.
    Between(usize, f64),
}

impl Frames {
    /// Room for `frames` frames of `nodes` nodes (at least one), every
    /// node at the origin, still and not teleported, and no times yet:
    /// [`start`](Self::start) opens each frame and [`set`](Self::set)
    /// fills it.
    pub(super) fn zeroed(nodes: usize, frames: usize) -> Self {
        debug_assert!(nodes > 0, "a trace with no nodes has no frames");
        let len = nodes * frames;
        Frames {
            nodes,
            times: Vec::new(),
            xs: vec![0.0; len],
            ys: vec![0.0; len],
            speeds: vec![0.0; len],
            teleports: vec![0; nodes.div_ceil(64) * frames],
        }
    }

    /// Open the next frame, at `time` (after the last one).
    pub(super) fn start(&mut self, time: f64) {
        debug_assert!(self.times.last().is_none_or(|&last| last < time));
        self.times.push(time);
    }

    /// Write node `id`'s sample into frame `j`.
    pub(super) fn set(&mut self, j: usize, id: usize, s: &TraceSample) {
        let k = j * self.nodes + id;
        self.xs[k] = s.position.x;
        self.ys[k] = s.position.y;
        self.speeds[k] = s.speed;
        if s.teleport {
            let word = j * self.words() + id / 64;
            self.teleports[word] |= 1 << (id % 64);
        }
    }

    /// Transpose `nodes` into frames when they all hold the same number of
    /// samples at bit-identical times; otherwise hand them back untouched.
    ///
    /// The frames start zeroed, which the allocator maps lazily, and the
    /// input is copied and dropped a block of nodes at a time from the
    /// end, so the frames' pages fill as the input's memory is given back:
    /// peak memory stays near the input's rather than input plus frames.
    /// Each block is dropped first node first, so its memory coalesces and
    /// goes back in one piece rather than page by page. The times are
    /// collected last, from node 0: a small allocation made while the
    /// input is whole can land above it and keep its memory from going
    /// back.
    pub(super) fn transpose(mut nodes: Vec<NodeTrajectory>) -> Result<Self, Vec<NodeTrajectory>> {
        const BLOCK: usize = 256;
        let Some(first) = nodes.first() else {
            return Ok(Frames::default());
        };
        let aligned = nodes.iter().all(|node| {
            node.len() == first.len()
                && node
                    .samples
                    .iter()
                    .zip(&first.samples)
                    .all(|(s, f)| s.time.to_bits() == f.time.to_bits())
        });
        if !aligned {
            return Err(nodes);
        }
        let samples = first.len();
        let mut frames = Frames::zeroed(nodes.len(), samples);
        while !nodes.is_empty() {
            let lo = nodes.len().saturating_sub(BLOCK);
            for j in 0..samples {
                for (id, node) in nodes.iter().enumerate().skip(lo) {
                    frames.set(j, id, &node.samples[j]);
                }
            }
            if lo == 0 {
                frames.times = nodes[0].samples.iter().map(|s| s.time).collect();
            }
            nodes.truncate(lo);
        }
        Ok(frames)
    }

    /// Teleport-bitset words per frame.
    fn words(&self) -> usize {
        self.nodes.div_ceil(64)
    }

    /// Number of nodes.
    pub(super) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of frames (every node's sample count).
    pub(super) fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether node `id` jumped into its sample `j`.
    fn teleported(&self, j: usize, id: usize) -> bool {
        self.teleports[j * self.words() + id / 64] >> (id % 64) & 1 == 1
    }

    /// The trajectory of node `id`, rebuilt from the frames.
    pub(super) fn node(&self, id: usize) -> NodeTrajectory {
        let sample = |(j, &time)| {
            let k = j * self.nodes + id;
            TraceSample {
                time,
                position: Point2::new(self.xs[k], self.ys[k]),
                speed: self.speeds[k],
                teleport: self.teleported(j, id),
            }
        };
        NodeTrajectory {
            samples: self.times.iter().enumerate().map(sample).collect(),
        }
    }

    /// Where `t` falls, found as [`NodeTrajectory::position_at`] finds it:
    /// clamped at the first and last time, else on the segment the
    /// `total_cmp` search picks. `None` with no frames or for a NaN `t`.
    pub(super) fn locate(&self, t: f64) -> Option<At> {
        let (first, last) = (*self.times.first()?, *self.times.last()?);
        if t <= first {
            return Some(At::Frame(0));
        }
        if t >= last {
            return Some(At::Frame(self.len() - 1));
        }
        let i = segment_of(&self.times, t, |&time| time)?;
        let w = (t - self.times[i]) / (self.times[i + 1] - self.times[i]);
        Some(At::Between(i, w))
    }

    /// Node `id`'s position at `at`.
    #[inline]
    pub(super) fn point(&self, at: At, id: usize) -> Point2 {
        let n = self.nodes;
        match at {
            At::Frame(j) => Point2::new(self.xs[j * n + id], self.ys[j * n + id]),
            At::Between(i, w) => {
                let (a, b) = (i * n + id, (i + 1) * n + id);
                let start = Point2::new(self.xs[a], self.ys[a]);
                if self.teleported(i + 1, id) {
                    start
                } else {
                    lerp(start, Point2::new(self.xs[b], self.ys[b]), w)
                }
            }
        }
    }

    /// The positions of nodes `0..count` (at most every node) at `at`,
    /// appended to `out`: [`point`](Self::point) in one contiguous pass.
    pub(super) fn points_into(&self, at: At, count: usize, out: &mut Vec<Point2>) {
        let frame = |j: usize| {
            let k = j * self.nodes;
            let (xs, ys) = (&self.xs[k..][..count], &self.ys[k..][..count]);
            xs.iter().zip(ys).map(|(&x, &y)| Point2::new(x, y))
        };
        match at {
            At::Frame(j) => out.extend(frame(j)),
            At::Between(i, w) => {
                out.extend(frame(i).zip(frame(i + 1)).enumerate().map(|(id, (a, b))| {
                    if self.teleported(i + 1, id) {
                        a
                    } else {
                        lerp(a, b, w)
                    }
                }))
            }
        }
    }

    /// Upper bound on any node's displacement rate, as
    /// [`NodeTrajectory::max_speed`] computes it per node; `None` if any
    /// node teleports after its first sample.
    pub(super) fn max_speed(&self) -> Option<f64> {
        if self.teleports.iter().skip(self.words()).any(|&w| w != 0) {
            return None;
        }
        let n = self.nodes;
        let mut vmax = 0.0f64;
        for j in 1..self.len() {
            let dt = self.times[j] - self.times[j - 1];
            for (a, b) in ((j - 1) * n..j * n).zip(j * n..) {
                let d =
                    ((self.xs[b] - self.xs[a]).powi(2) + (self.ys[b] - self.ys[a]).powi(2)).sqrt();
                vmax = vmax.max(d / dt);
            }
        }
        Some(vmax)
    }

    /// The last sample time, as the largest over nodes (0 with no frames).
    pub(super) fn duration(&self) -> f64 {
        self.times.last().map_or(0.0, |&t| 0.0f64.max(t))
    }
}
