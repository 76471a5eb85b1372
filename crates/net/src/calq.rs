//! Calendar queue over sorted runs: the engine's event scheduler.
//!
//! A discrete-event simulator spends a large share of its time inserting and
//! popping timestamped events. A binary heap does both in `O(log n)`; a
//! *calendar queue* (Brown 1988) exploits the fact that event times are dense
//! and near-monotonic to make both amortized `O(1)`. This one also exploits
//! the fact that events arrive in batches: one transmission schedules a
//! reception start and end at every station in carrier-sense range —
//! hundreds of events within a few microseconds of each other.
//!
//! * Every pending entry belongs to a **run**, a buffer sorted by
//!   `(time, seq)`. [`CalendarQueue::insert_run`] sorts a batch once and
//!   files it as one run; a lone [`insert`](CalendarQueue::insert) is a run
//!   of one. The scheduling structures below hold run **heads** (each run's
//!   smallest key), never the events behind them.
//! * Time is partitioned into fixed-width **days** (`1 << DAY_SHIFT` ns,
//!   ≈1.05 ms), and a run is filed by the day of its head.
//! * Heads in the **current day** live in a small binary heap (`active`),
//!   ordered by the full `(time, seq)` key — this is where exact tie-break
//!   order is enforced. Popping takes the top run's head and re-files the
//!   run by its next head: in place on the heap while that is still due
//!   today, otherwise by its day.
//! * Heads in a **future in-window day** sit unsorted in that day's bucket
//!   (a window of `nb` days, `nb` a power of two) until the cursor reaches
//!   the day.
//! * Heads **beyond the window** go to an overflow heap ordered by day,
//!   promoted into buckets as the window advances.
//!
//! Drained run buffers go back to a [`VecPool`] and are handed out again by
//! [`CalendarQueue::run_buffer`], so the steady state does not allocate.
//!
//! # Ordering invariant
//!
//! The queue dequeues in exactly ascending `(time, seq)` order — the same
//! total order a `BinaryHeap<Reverse<(time, seq)>>` would produce, however
//! the entries were batched. This is the foundation of the repository's
//! bit-identity guarantee: replacing the binary heap with this structure
//! must not reorder any two events, and the property tests in this module
//! verify that against a reference heap under random interleavings of
//! single inserts, unsorted batches and pops.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::pool::VecPool;
use crate::time::SimTime;

/// Width of one calendar day in nanoseconds, as a shift: ≈1.05 ms. Chosen so
/// day extraction is a shift (not a division) and a typical contention window
/// of MAC timers and in-flight frames spans a handful of days.
const DAY_SHIFT: u32 = 20;

/// A new queue's bucket window: 16 days ≈ 17 ms.
const MIN_BUCKETS: usize = 16;

/// Buckets never grow beyond this (2^20 days ≈ 18 min of window).
const MAX_BUCKETS: usize = 1 << 20;

#[inline]
fn day_of(time: SimTime) -> u64 {
    time.as_nanos() >> DAY_SHIFT
}

/// One pending event: its `(time, seq)` key and payload.
pub type Entry<T> = (SimTime, u64, T);

/// A run's head, carrying its key so heap ordering never touches the runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    time: SimTime,
    seq: u64,
    run: u32,
}

impl Head {
    /// The single source of truth for event ordering.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest key on top.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Calendar-queue priority queue over sorted runs, keyed by `(SimTime, seq)`.
///
/// See the module docs for the design; the API surface is what the engine
/// kernel needs: [`insert`](Self::insert), [`insert_run`](Self::insert_run)
/// with [`run_buffer`](Self::run_buffer), [`pop`](Self::pop),
/// [`min_key`](Self::min_key) (a normalizing peek), and
/// [`sorted_entries`](Self::sorted_entries) for checkpoint capture.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Run arena. A pending run holds its entries in *descending* key
    /// order, so its head is `last()` and taking it is `Vec::pop`; a free
    /// slot holds an empty, unallocated vec.
    runs: Vec<Vec<Entry<T>>>,
    free: Vec<u32>,
    /// Drained run buffers, handed out again by [`run_buffer`](Self::run_buffer).
    spare: VecPool<Entry<T>>,
    /// Heads of runs whose head day ≤ `cursor`, ordered by full key.
    active: BinaryHeap<Head>,
    /// Runs whose head day is a future in-window day; index = `day & mask`.
    buckets: Vec<Vec<u32>>,
    /// Number of run ids currently sitting in `buckets`.
    in_buckets: usize,
    /// Runs whose head day ≥ `cursor + buckets.len()`, ordered by day.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// The day `active` is currently collecting.
    cursor: u64,
    mask: u64,
    /// Pending entries across all runs.
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the minimum bucket window.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue whose run arena and active heap are pre-sized for
    /// about `n` concurrently pending events, so the steady state does not
    /// grow them. The bucket window is sized from the runs the queue holds,
    /// not from `n`: it starts at the minimum and doubles whenever more than
    /// 4 runs per bucket are pending, so no bucket is allocated before a
    /// run needs it.
    pub fn with_capacity(n: usize) -> Self {
        CalendarQueue {
            runs: Vec::with_capacity(n),
            free: Vec::new(),
            spare: VecPool::new(),
            active: BinaryHeap::with_capacity(64.min(n.max(16))),
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            cursor: 0,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An empty buffer with room for at least `n` entries, to stage a batch
    /// for [`insert_run`](Self::insert_run); a drained run's buffer when one
    /// is spare.
    pub fn run_buffer(&mut self, n: usize) -> Vec<Entry<T>> {
        // The pool files buffers by power-of-two capacity class, so a fresh
        // buffer is sized to a class boundary for a later same-size request
        // to find it.
        self.spare.take(n.next_power_of_two())
    }

    /// Insert `value` at key `(time, seq)`: a run of one.
    ///
    /// Keys must be unique: `seq` is the caller's monotone event counter.
    pub fn insert(&mut self, time: SimTime, seq: u64, value: T) {
        let mut run = self.run_buffer(1);
        run.push((time, seq, value));
        self.insert_run(run);
    }

    /// Insert a batch of entries, in any order, as one run. Keys must be
    /// unique across the queue; an empty batch just recycles its buffer.
    pub fn insert_run(&mut self, mut run: Vec<Entry<T>>) {
        if run.is_empty() {
            return self.spare.put(run);
        }
        // Descending, so the head is `last()`. The stable sort finds a
        // batch's monotone stretches (receptions come as a V of propagation
        // delays around the sender) and merges them in linear time.
        run.sort_by_key(|&(time, seq, _)| Reverse((time, seq)));
        self.len += run.len();
        let id = match self.free.pop() {
            Some(id) => {
                self.runs[id as usize] = run;
                id
            }
            None => {
                assert!(self.runs.len() < u32::MAX as usize, "run arena overflow");
                self.runs.push(run);
                (self.runs.len() - 1) as u32
            }
        };
        self.file(id);
        self.maybe_grow();
    }

    /// The smallest pending `(time, seq)` key, or `None` when empty.
    ///
    /// Takes `&mut self` because peeking normalizes: the cursor advances
    /// over empty days until the minimum sits on top of the active heap.
    pub fn min_key(&mut self) -> Option<(SimTime, u64)> {
        self.normalize();
        self.active.peek().map(Head::key)
    }

    /// Remove and return the entry with the smallest `(time, seq)` key.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.normalize();
        let mut top = self.active.peek_mut()?;
        let id = top.run;
        let run = &mut self.runs[id as usize];
        let entry = run.pop().expect("filed runs are non-empty");
        self.len -= 1;
        match run.last() {
            // Still due today: re-key the head in place, one sift down.
            Some(&(time, seq, _)) if day_of(time) <= self.cursor => {
                top.time = time;
                top.seq = seq;
            }
            next => {
                let drained = next.is_none();
                PeekMut::pop(top);
                if drained {
                    self.spare.put(std::mem::take(&mut self.runs[id as usize]));
                    self.free.push(id);
                } else {
                    self.file(id);
                }
            }
        }
        Some(entry)
    }

    /// All pending entries in ascending `(time, seq)` order. Used by
    /// checkpoint capture, which needs a deterministic serialization order;
    /// O(n log n) and allocation-heavy, so not for the hot path.
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, &T)> {
        let mut out: Vec<(SimTime, u64, &T)> = self
            .runs
            .iter()
            .flatten()
            .map(|(time, seq, v)| (*time, *seq, v))
            .collect();
        out.sort_unstable_by_key(|&(t, q, _)| (t, q));
        out
    }

    /// File the non-empty run `id` by the day of its head.
    fn file(&mut self, id: u32) {
        let &(time, seq, _) = self.runs[id as usize]
            .last()
            .expect("filed runs are non-empty");
        let day = day_of(time);
        if day <= self.cursor {
            self.active.push(Head { time, seq, run: id });
        } else if day < self.cursor + self.buckets.len() as u64 {
            self.buckets[(day & self.mask) as usize].push(id);
            self.in_buckets += 1;
        } else {
            self.overflow.push(Reverse((day, id)));
        }
    }

    /// Advance the cursor until the active heap holds the global minimum
    /// (or the queue is exhausted).
    fn normalize(&mut self) {
        while self.active.is_empty() {
            if self.in_buckets > 0 {
                // Scan forward one day; `in_buckets > 0` bounds this loop to
                // at most one full window sweep before a head surfaces.
                self.cursor += 1;
                let idx = (self.cursor & self.mask) as usize;
                let mut due = std::mem::take(&mut self.buckets[idx]);
                self.in_buckets -= due.len();
                for id in due.drain(..) {
                    self.file(id);
                }
                self.buckets[idx] = due;
                self.promote();
            } else if let Some(&Reverse((day, _))) = self.overflow.peek() {
                // Window is empty: jump straight to the overflow's first day.
                self.cursor = day;
                self.promote();
            } else {
                return; // queue exhausted
            }
        }
    }

    /// Re-file overflow runs whose head day entered the window.
    fn promote(&mut self) {
        let window_end = self.cursor + self.buckets.len() as u64;
        while let Some(&Reverse((day, id))) = self.overflow.peek() {
            if day >= window_end {
                break;
            }
            self.overflow.pop();
            self.file(id);
        }
    }

    /// Double the bucket window when it holds more than 4 pending runs per
    /// bucket, re-filing in-window and overflow runs by day. Rare (amortized
    /// by the doubling), and order-neutral: placement is derived from keys.
    fn maybe_grow(&mut self) {
        let pending_runs = self.runs.len() - self.free.len();
        if pending_runs <= self.buckets.len() * 4 || self.buckets.len() >= MAX_BUCKETS {
            return;
        }
        let nb = self.buckets.len() * 2;
        let ids: Vec<u32> = self
            .buckets
            .iter_mut()
            .flat_map(|b| b.drain(..))
            .chain(self.overflow.drain().map(|Reverse((_, id))| id))
            .collect();
        self.buckets = (0..nb).map(|_| Vec::new()).collect();
        self.mask = (nb - 1) as u64;
        self.in_buckets = 0;
        for id in ids {
            self.file(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn day(d: u64, k: u64) -> SimTime {
        t((d << DAY_SHIFT) + k)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.insert(t(50), 3, "c");
        q.insert(t(10), 1, "a");
        q.insert(t(50), 2, "b");
        q.insert(t(5_000_000_000), 4, "far");
        assert_eq!(q.len(), 4);
        assert_eq!(q.min_key(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(10), 1, "a")));
        assert_eq!(q.pop(), Some((t(50), 2, "b")));
        assert_eq!(q.pop(), Some((t(50), 3, "c")));
        assert_eq!(q.pop(), Some((t(5_000_000_000), 4, "far")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn drained_run_buffers_are_recycled() {
        let mut q = CalendarQueue::new();
        let mut run = q.run_buffer(8);
        run.extend([(t(30), 3, 30u32), (t(10), 1, 10), (t(20), 2, 20)]);
        let buffer = run.as_ptr();
        q.insert_run(run);
        assert_eq!(q.len(), 3);
        for k in 1..=3 {
            assert_eq!(q.pop(), Some((t(k * 10), k, k as u32 * 10)));
        }
        assert!(q.is_empty());
        let reused = q.run_buffer(5);
        assert_eq!(reused.as_ptr(), buffer, "the drained run's buffer");
        q.insert_run(reused); // an empty batch only recycles
        let again = q.run_buffer(8);
        assert_eq!(again.as_ptr(), buffer);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_inserts_during_pops_stay_ordered() {
        let mut q = CalendarQueue::new();
        q.insert(t(1 << 21), 1, 1u64);
        assert_eq!(q.pop(), Some((t(1 << 21), 1, 1)));
        // Cursor has advanced past day 0; inserting "in the past" must still
        // dequeue before later keys.
        q.insert(t(10), 2, 2u64);
        q.insert(t(1 << 22), 3, 3u64);
        assert_eq!(q.pop(), Some((t(10), 2, 2)));
        assert_eq!(q.pop(), Some((t(1 << 22), 3, 3)));
    }

    #[test]
    fn sorted_entries_lists_live_entries_ascending() {
        let mut q = CalendarQueue::new();
        q.insert(t(30), 3, "z");
        q.insert_run(vec![(t(20), 2, "y"), (t(10), 1, "popped"), (t(40), 4, "w")]);
        assert_eq!(q.pop(), Some((t(10), 1, "popped")));
        let entries: Vec<(u64, u64, &&str)> = q
            .sorted_entries()
            .into_iter()
            .map(|(time, seq, v)| (time.as_nanos(), seq, v))
            .collect();
        assert_eq!(entries, vec![(20, 2, &"y"), (30, 3, &"z"), (40, 4, &"w")]);
    }

    #[test]
    fn grows_past_initial_window_without_losing_entries() {
        let mut q = CalendarQueue::with_capacity(0);
        // 4 entries per day across 512 days: forces several doublings and
        // exercises overflow promotion.
        let mut seq = 0u64;
        for d in 0..512u64 {
            for k in 0..4u64 {
                seq += 1;
                q.insert(day(d, k), seq, seq);
            }
        }
        assert_eq!(q.len(), 2048);
        let mut prev = None;
        let mut n = 0;
        while let Some((time, s, v)) = q.pop() {
            assert_eq!(s, v);
            if let Some(p) = prev {
                assert!((time, s) > p, "keys must strictly ascend");
            }
            prev = Some((time, s));
            n += 1;
        }
        assert_eq!(n, 2048);
    }

    #[test]
    fn overflow_runs_roll_over_day_boundaries() {
        // A run filed in the overflow heap whose entries span days 100, 101
        // and 120: as its head advances it must be re-filed from the active
        // heap into a bucket, then back into the overflow heap, and
        // interleave with a lone entry on its last day.
        let mut q = CalendarQueue::new(); // 16-day window
        q.insert(day(0, 5), 1, 1u32);
        q.insert_run(vec![
            (day(120, 0), 5, 5),
            (day(100, 7), 3, 3),
            (day(101, 3), 4, 4),
            (day(100, 0), 2, 2),
        ]);
        q.insert(day(120, 9), 6, 6);
        for (d, k, s) in [
            (0, 5, 1),
            (100, 0, 2),
            (100, 7, 3),
            (101, 3, 4),
            (120, 0, 5),
        ] {
            assert_eq!(q.pop(), Some((day(d, k), s, s as u32)));
        }
        assert_eq!(q.pop(), Some((day(120, 9), 6, 6)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn inserts_after_a_promoting_peek_stay_ordered() {
        let mut q = CalendarQueue::new();
        q.insert(day(0, 1), 1, 1u32);
        q.insert_run(vec![(day(31, 0), 3, 3), (day(30, 0), 2, 2)]);
        assert_eq!(q.pop(), Some((day(0, 1), 1, 1)));
        // The normalizing peek jumps the cursor to day 30, promoting the run
        // into the active heap; later inserts land on both sides of it.
        assert_eq!(q.min_key(), Some((day(30, 0), 2)));
        q.insert(day(30, 0), 4, 4);
        q.insert(day(5, 0), 5, 5);
        for (d, s) in [(5, 5), (30, 2), (30, 4), (31, 3)] {
            assert_eq!(q.pop(), Some((day(d, 0), s, s as u32)));
        }
        assert!(q.is_empty());
    }

    /// The heart of the bit-identity argument: against a reference binary
    /// heap, random interleavings of single inserts, batches and pops
    /// dequeue in exactly the same `(time, seq)` order.
    #[derive(Debug, Clone)]
    enum Op {
        /// Insert one entry at `now + dt` ns.
        Insert(u64),
        /// Insert entries at `now + dt` ns as one run, in this order.
        Run(Vec<u64>),
        /// Pop the minimum from both and compare.
        Pop,
    }

    /// Batches start in the window or in the overflow heap's range and
    /// spread over up to four day boundaries. Shape 0 keeps a random order,
    /// 1 makes a V (falling, then rising: the propagation delays around a
    /// sender) and 2 snaps offsets to whole days, so entries tie on time.
    fn batch_strategy() -> impl Strategy<Value = Vec<u64>> {
        let base = prop_oneof![0u64..(1 << 24), (1u64 << 24)..(1 << 32)];
        let spread = prop::collection::vec(0u64..(1 << 22), 0..48);
        (base, spread, 0u8..3).prop_map(|(base, mut dts, shape)| {
            match shape {
                1 => {
                    dts.sort_unstable();
                    let half = dts.len() / 2;
                    dts[..half].reverse();
                }
                2 => dts.iter_mut().for_each(|dt| *dt &= !((1 << DAY_SHIFT) - 1)),
                _ => {}
            }
            dts.into_iter().map(|dt| base + dt).collect()
        })
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..(1u64 << 24)).prop_map(Op::Insert),
            // Far inserts: 16 .. 4096 days out — beyond the bucket window
            // even after growth, so they live in the overflow heap.
            ((1u64 << 24)..(1u64 << 32)).prop_map(Op::Insert),
            batch_strategy().prop_map(Op::Run),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    proptest! {
        // At least 512 cases; `PROPTEST_CASES` raises it (CI runs 4096).
        #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(512)))]
        #[test]
        fn matches_reference_heap(ops in prop::collection::vec(op_strategy(), 1..200)) {
            let mut calq = CalendarQueue::new();
            let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Insert(dt) => {
                        seq += 1;
                        calq.insert(t(now + dt), seq, seq * 7);
                        reference.push(Reverse((t(now + dt), seq)));
                    }
                    Op::Run(dts) => {
                        let mut run = calq.run_buffer(dts.len());
                        for dt in dts {
                            seq += 1;
                            run.push((t(now + dt), seq, seq * 7));
                            reference.push(Reverse((t(now + dt), seq)));
                        }
                        calq.insert_run(run);
                    }
                    Op::Pop => {
                        let expected = reference.pop().map(|Reverse((rt, rs))| (rt, rs, rs * 7));
                        prop_assert_eq!(calq.min_key(), expected.map(|(rt, rs, _)| (rt, rs)));
                        prop_assert_eq!(calq.pop(), expected);
                        if let Some((rt, _, _)) = expected {
                            now = rt.as_nanos();
                        }
                    }
                }
                prop_assert_eq!(calq.len(), reference.len());
            }
            // Drain both to empty; remaining orders must agree too.
            while let Some(Reverse((rt, rs))) = reference.pop() {
                prop_assert_eq!(calq.pop(), Some((rt, rs, rs * 7)));
            }
            prop_assert!(calq.pop().is_none());
        }
    }
}
