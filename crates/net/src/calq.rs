//! The engine's event scheduler: a calendar queue of single events beside
//! the reception tables of the transmissions in flight.
//!
//! A discrete-event simulator spends a large share of its time inserting and
//! popping timestamped events. A binary heap does both in `O(log n)`; a
//! *calendar queue* (Brown 1988) exploits the fact that event times are dense
//! and near-monotonic to make both amortized `O(1)`:
//!
//! * Time is partitioned into fixed-width **days** (`1 << DAY_SHIFT` ns,
//!   ≈1.05 ms), and an entry is filed by its day.
//! * Entries of the **current day** live in a small binary heap (`active`),
//!   ordered by the full `(time, seq)` key packed into one `u128` — this is
//!   where exact tie-break order is enforced.
//! * Entries of a **future in-window day** sit unsorted in that day's bucket
//!   (a window of `nb` days, `nb` a power of two) until the cursor reaches
//!   the day.
//! * Entries **beyond the window** go to an overflow heap, promoted into
//!   buckets as the window advances.
//!
//! Most events, though, are receptions: one transmission starts and ends a
//! reception at every station in carrier-sense range — hundreds of events
//! within a few microseconds of each other. The engine's queue does not
//! file them one by one. A transmission hands it one **reception table**, a
//! row `(delay, staging index m, node, power)` per receiver, sorted once by
//! `(delay, m)`. Both of the table's passes are read from it in that order:
//! receiver `m` starts receiving at `start + delay` with sequence number
//! `base + 2m + 1` and stops at `end + delay` with `base + 2m + 2`, so each
//! pass is ascending in `(time, seq)`. A small heap holds each live pass's
//! next row, keyed like a calendar entry, and each pop takes whichever of
//! the calendar's head and the passes' head is smaller.
//!
//! # Ordering invariant
//!
//! The queue dequeues in exactly ascending `(time, seq)` order — the same
//! total order a `BinaryHeap<Reverse<(time, seq)>>` would produce, however
//! the entries were filed. This is the foundation of the repository's
//! bit-identity guarantee: the property tests in this module check it
//! against a reference heap under random interleavings of single inserts,
//! reception tables, pops and captures.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::sim::Event;
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
fn day_of(ns: u64) -> u64 {
    ns >> DAY_SHIFT
}

/// `(time, seq)` as one integer, so that ordering two events is one
/// comparison.
#[inline]
fn pack(time: u64, seq: u64) -> u128 {
    (u128::from(time) << 64) | u128::from(seq)
}

/// One pending event: its `(time, seq)` key and payload.
pub type Entry<T> = (SimTime, u64, T);

/// A heap item ordered by its `(time, seq)` key alone: a calendar entry,
/// or a reception pass's next row. `time` and `seq` stay two `u64` fields
/// (a `u128` field would align the item to 16 bytes) and are packed on
/// comparison.
#[derive(Debug)]
struct Keyed<T> {
    time: u64,
    seq: u64,
    value: T,
}

impl<T> Keyed<T> {
    #[inline]
    fn key(&self) -> u128 {
        pack(self.time, self.seq)
    }
}

impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest key on top.
        other.key().cmp(&self.key())
    }
}

impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Keyed<T> {}

/// Calendar-queue priority queue of single entries, keyed by
/// `(SimTime, seq)`.
///
/// See the module docs for the design; the API surface is what the engine
/// needs: [`insert`](Self::insert), [`pop`](Self::pop),
/// [`min_key`](Self::min_key) (a normalizing peek), and
/// [`sorted_entries`](Self::sorted_entries) for checkpoint capture.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Entries whose day ≤ `cursor`, ordered by full key.
    active: BinaryHeap<Keyed<T>>,
    /// Entries of a future in-window day; index = `day & mask`.
    buckets: Vec<Vec<Keyed<T>>>,
    /// Number of entries currently sitting in `buckets`.
    in_buckets: usize,
    /// Entries whose day ≥ `cursor + buckets.len()`, ordered by key (and
    /// so by day).
    overflow: BinaryHeap<Keyed<T>>,
    /// The day `active` is currently collecting.
    cursor: u64,
    mask: u64,
    /// Pending entries.
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

    /// An empty queue whose active heap is pre-sized for about `n`
    /// concurrently pending events (at most 64). The bucket window is sized
    /// from the entries the queue holds, not from `n`: it starts at the
    /// minimum and doubles whenever more than 4 entries per bucket are
    /// pending, so no bucket is allocated before an entry needs it.
    pub fn with_capacity(n: usize) -> Self {
        CalendarQueue {
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

    /// Insert `value` at key `(time, seq)`.
    ///
    /// Keys must be unique: `seq` is the caller's monotone event counter.
    pub fn insert(&mut self, time: SimTime, seq: u64, value: T) {
        self.len += 1;
        self.file(Keyed {
            time: time.as_nanos(),
            seq,
            value,
        });
        self.maybe_grow();
    }

    /// The smallest pending `(time, seq)` key, or `None` when empty.
    ///
    /// Takes `&mut self` because peeking normalizes: the cursor advances
    /// over empty days until the minimum sits on top of the active heap.
    pub fn min_key(&mut self) -> Option<(SimTime, u64)> {
        self.min_packed()
            .map(|key| (SimTime::from_nanos((key >> 64) as u64), key as u64))
    }

    /// [`min_key`](Self::min_key), packed.
    #[inline]
    fn min_packed(&mut self) -> Option<u128> {
        self.normalize();
        self.active.peek().map(Keyed::key)
    }

    /// Remove and return the entry with the smallest `(time, seq)` key.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.normalize();
        let slot = self.active.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(slot.time), slot.seq, slot.value))
    }

    /// All pending entries in ascending `(time, seq)` order. Used by
    /// checkpoint capture, which needs a deterministic serialization order;
    /// O(n log n) and allocation-heavy, so not for the hot path.
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, &T)> {
        let mut out: Vec<(SimTime, u64, &T)> = self
            .active
            .iter()
            .chain(self.buckets.iter().flatten())
            .chain(self.overflow.iter())
            .map(|s| (SimTime::from_nanos(s.time), s.seq, &s.value))
            .collect();
        out.sort_unstable_by_key(|&(t, q, _)| (t, q));
        out
    }

    /// File `slot` by its day.
    fn file(&mut self, slot: Keyed<T>) {
        let day = day_of(slot.time);
        if day <= self.cursor {
            self.active.push(slot);
        } else if day < self.cursor + self.buckets.len() as u64 {
            self.buckets[(day & self.mask) as usize].push(slot);
            self.in_buckets += 1;
        } else {
            self.overflow.push(slot);
        }
    }

    /// Advance the cursor until the active heap holds the global minimum
    /// (or the queue is exhausted).
    fn normalize(&mut self) {
        while self.active.is_empty() {
            if self.in_buckets > 0 {
                // Scan forward one day; `in_buckets > 0` bounds this loop to
                // at most one full window sweep before an entry surfaces.
                self.cursor += 1;
                let idx = (self.cursor & self.mask) as usize;
                let mut due = std::mem::take(&mut self.buckets[idx]);
                self.in_buckets -= due.len();
                for slot in due.drain(..) {
                    self.file(slot);
                }
                self.buckets[idx] = due;
                self.promote();
            } else if let Some(first) = self.overflow.peek() {
                // Window is empty: jump straight to the overflow's first day.
                self.cursor = day_of(first.time);
                self.promote();
            } else {
                return; // queue exhausted
            }
        }
    }

    /// Re-file overflow entries whose day entered the window.
    fn promote(&mut self) {
        let window_end = self.cursor + self.buckets.len() as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|s| day_of(s.time) < window_end)
        {
            let slot = self.overflow.pop().expect("peeked");
            self.file(slot);
        }
    }

    /// Double the bucket window when it holds more than 4 pending entries
    /// per bucket, re-filing in-window and overflow entries by day. Rare
    /// (amortized by the doubling), and order-neutral: placement is derived
    /// from keys.
    fn maybe_grow(&mut self) {
        if self.len <= self.buckets.len() * 4 || self.buckets.len() >= MAX_BUCKETS {
            return;
        }
        let nb = self.buckets.len() * 2;
        let mut slots: Vec<Keyed<T>> = self.buckets.iter_mut().flat_map(|b| b.drain(..)).collect();
        slots.extend(self.overflow.drain());
        self.buckets = (0..nb).map(|_| Vec::new()).collect();
        self.mask = (nb - 1) as u64;
        self.in_buckets = 0;
        for slot in slots {
            self.file(slot);
        }
    }
}

/// One in-range receiver of a transmission: its propagation delay, its
/// staging index `m` (the order in which the transmission found it, which
/// fixes its sequence numbers), and what its `RxStart` carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reception {
    pub(crate) delay_ns: u64,
    pub(crate) m: u32,
    pub(crate) node: u32,
    pub(crate) power: f64,
}

/// A transmission's receptions, sorted by `(delay, m)`, read by two passes.
#[derive(Debug, Default)]
struct Table {
    tx_id: u64,
    /// Each pass's origin: the transmission's start, then its end.
    origin: [u64; 2],
    /// The sequence number before the transmission's first reception.
    base: u64,
    rows: Vec<Reception>,
    /// Passes not yet drained; the table's slot is free at zero.
    live: u8,
}

impl Table {
    /// The `(time, seq)` key of row `row` on pass `pass`.
    #[inline]
    fn key(&self, pass: usize, row: &Reception) -> (u64, u64) {
        (
            self.origin[pass] + row.delay_ns,
            self.base + 2 * u64::from(row.m) + 1 + pass as u64,
        )
    }

    /// The event row `row` stands for on pass `pass`.
    #[inline]
    fn event(&self, pass: usize, row: &Reception) -> Event {
        let (node, tx_id) = (row.node, self.tx_id);
        match pass {
            0 => Event::RxStart {
                node,
                tx_id,
                power: row.power,
            },
            _ => Event::RxEnd { node, tx_id },
        }
    }
}

/// Where a live pass over a table stands; it is keyed by its next row.
#[derive(Debug, Clone, Copy)]
struct Pass {
    /// `table << 1 | pass`.
    id: u32,
    /// The next row to dispatch.
    row: u32,
}

/// The engine's event queue: single events in a [`CalendarQueue`], and
/// each transmission's receptions as one table (see the module docs).
#[derive(Debug)]
pub(crate) struct EventQueue {
    calendar: CalendarQueue<Event>,
    /// Table arena; a drained table keeps its rows' buffer for the next.
    tables: Vec<Table>,
    free: Vec<u32>,
    /// The next row of every live pass.
    passes: BinaryHeap<Keyed<Pass>>,
}

impl EventQueue {
    /// An empty queue; see [`CalendarQueue::with_capacity`].
    pub(crate) fn with_capacity(n: usize) -> Self {
        EventQueue {
            calendar: CalendarQueue::with_capacity(n),
            tables: Vec::new(),
            free: Vec::new(),
            passes: BinaryHeap::new(),
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    fn len(&self) -> usize {
        let rows = |p: &Keyed<Pass>| {
            self.tables[(p.value.id >> 1) as usize].rows.len() - p.value.row as usize
        };
        self.calendar.len() + self.passes.iter().map(rows).sum::<usize>()
    }

    /// Insert one event at key `(time, seq)`; keys must be unique.
    pub(crate) fn insert(&mut self, time: SimTime, seq: u64, event: Event) {
        self.calendar.insert(time, seq, event);
    }

    /// File the receptions of transmission `tx_id`, on the air from `start`
    /// to `end`: `rows` in staging order (row `m` has staging index `m`),
    /// whose sequence numbers follow `base`. `rows` is taken, and left
    /// empty with a drained table's buffer in its place, so a caller that
    /// keeps passing the same vector never allocates in steady state.
    ///
    /// # Panics
    ///
    /// Panics if a reception would end past the end of time.
    pub(crate) fn insert_table(
        &mut self,
        tx_id: u64,
        start: SimTime,
        end: SimTime,
        base: u64,
        rows: &mut Vec<Reception>,
    ) {
        if rows.is_empty() {
            return;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            assert!(
                self.tables.len() < (u32::MAX >> 1) as usize,
                "table arena overflow"
            );
            self.tables.push(Table::default());
            (self.tables.len() - 1) as u32
        });
        let table = &mut self.tables[id as usize];
        std::mem::swap(&mut table.rows, rows);
        // Stable: equal delays keep staging order, so rows end sorted by
        // `(delay, m)`. The sort finds the monotone stretches a
        // transmission makes (delays fall towards the sender and rise past
        // it) and merges them in linear time.
        table.rows.sort_by_key(|r| r.delay_ns);
        let last = table.rows[table.rows.len() - 1].delay_ns;
        assert!(
            end.as_nanos().checked_add(last).is_some(),
            "SimTime overflow"
        );
        table.tx_id = tx_id;
        table.origin = [start.as_nanos(), end.as_nanos()];
        table.base = base;
        table.live = 2;
        for pass in 0..2 {
            let (time, seq) = table.key(pass, &table.rows[0]);
            self.passes.push(Keyed {
                time,
                seq,
                value: Pass {
                    id: id << 1 | pass as u32,
                    row: 0,
                },
            });
        }
    }

    /// Remove and return the event with the smallest `(time, seq)` key if
    /// it is due at or before `limit`.
    #[inline]
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<Entry<Event>> {
        let limit = pack(limit.as_nanos(), u64::MAX);
        let table = self.passes.peek().map(Keyed::key).filter(|&k| k <= limit);
        let calendar = self.calendar.min_packed().filter(|&k| k <= limit);
        match (calendar, table) {
            (Some(c), Some(t)) if c < t => self.calendar.pop(),
            (_, Some(_)) => Some(self.pop_pass()),
            (Some(_), None) => self.calendar.pop(),
            (None, None) => None,
        }
    }

    /// Dispatch the next row of the smallest live pass.
    fn pop_pass(&mut self) -> Entry<Event> {
        let mut head = self.passes.peek_mut().expect("a live pass");
        let (id, pass) = ((head.value.id >> 1) as usize, (head.value.id & 1) as usize);
        let table = &mut self.tables[id];
        let row = table.rows[head.value.row as usize];
        let entry = (
            SimTime::from_nanos(head.time),
            head.seq,
            table.event(pass, &row),
        );
        head.value.row += 1;
        match table.rows.get(head.value.row as usize) {
            // Re-key the head in place: one sift down.
            Some(next) => (head.time, head.seq) = table.key(pass, next),
            None => {
                PeekMut::pop(head);
                table.live -= 1;
                if table.live == 0 {
                    table.rows.clear();
                    self.free.push(id as u32);
                }
            }
        }
        entry
    }

    /// All pending events in ascending `(time, seq)` order, for checkpoint
    /// capture; O(n log n), not for the hot path.
    pub(crate) fn sorted_entries(&self) -> Vec<Entry<Event>> {
        let mut out: Vec<Entry<Event>> = self
            .calendar
            .sorted_entries()
            .into_iter()
            .map(|(time, seq, &event)| (time, seq, event))
            .collect();
        for head in &self.passes {
            let (id, pass) = ((head.value.id >> 1) as usize, (head.value.id & 1) as usize);
            let table = &self.tables[id];
            out.extend(table.rows[head.value.row as usize..].iter().map(|row| {
                let (time, seq) = table.key(pass, row);
                (SimTime::from_nanos(time), seq, table.event(pass, row))
            }));
        }
        out.sort_unstable_by_key(|&(t, q, _)| (t, q));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn day(d: u64, k: u64) -> SimTime {
        t((d << DAY_SHIFT) + k)
    }

    fn row(m: u32, delay_ns: u64) -> Reception {
        Reception {
            delay_ns,
            m,
            node: 100 + m,
            power: f64::from(m) + 0.5,
        }
    }

    fn keys(q: &mut EventQueue) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| q.pop_until(t(u64::MAX)))
            .map(|(time, seq, _)| (time, seq))
            .collect()
    }

    #[test]
    fn entries_are_forty_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 24);
        assert_eq!(std::mem::size_of::<Keyed<Event>>(), 40);
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
    fn drained_tables_are_recycled() {
        let mut q = EventQueue::with_capacity(0);
        let mut rows = Vec::with_capacity(8);
        rows.extend([row(0, 30), row(1, 10), row(2, 20)]);
        let buffer = rows.as_ptr();
        q.insert_table(7, t(0), t(1000), 0, &mut rows);
        assert!(rows.is_empty());
        assert_eq!(q.len(), 6);
        // Both passes in (delay, m) order: starts at 0 + delay, seq 2m + 1;
        // ends at 1000 + delay, seq 2m + 2.
        assert_eq!(
            keys(&mut q),
            [(10, 3), (20, 5), (30, 1), (1010, 4), (1020, 6), (1030, 2)]
                .map(|(time, seq)| (t(time), seq))
        );
        assert_eq!(q.len(), 0);
        rows.extend([row(0, 5)]);
        q.insert_table(8, t(2000), t(3000), 6, &mut rows);
        assert_eq!(rows.as_ptr(), buffer, "the drained table's buffer");
        assert_eq!(q.tables.len(), 1, "the drained table's slot");
        rows.clear();
        q.insert_table(9, t(2000), t(3000), 8, &mut rows); // files nothing
        assert_eq!(q.len(), 2);
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
        q.insert(t(20), 2, "y");
        q.insert(t(10), 1, "popped");
        q.insert(t(1 << 30), 4, "w");
        assert_eq!(q.pop(), Some((t(10), 1, "popped")));
        let entries: Vec<(u64, u64, &&str)> = q
            .sorted_entries()
            .into_iter()
            .map(|(time, seq, v)| (time.as_nanos(), seq, v))
            .collect();
        assert_eq!(
            entries,
            vec![(20, 2, &"y"), (30, 3, &"z"), (1 << 30, 4, &"w")]
        );
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
        // A table whose passes span days 100, 101 and 120 — beyond the
        // calendar's 16-day window when filed — interleaves with single
        // entries on those days, in the window and in the overflow heap.
        let mut q = EventQueue::with_capacity(0);
        q.insert(day(0, 5), 1, Event::AppTimer { node: 0, token: 0 });
        let far = |d: u64| day(d, 0).as_nanos() - day(100, 0).as_nanos();
        let mut rows = vec![row(0, far(120)), row(1, far(101) + 3), row(2, 7)];
        // Starts at day 100, ends exactly one day later: seqs 2..=7.
        q.insert_table(1, day(100, 0), day(101, 0), 1, &mut rows);
        q.insert(day(101, 5), 8, Event::AppTimer { node: 0, token: 8 });
        q.insert(day(120, 9), 9, Event::AppTimer { node: 0, token: 9 });
        let expected = [
            (day(0, 5), 1),
            (day(100, 7), 6),
            (day(101, 3), 4),
            (day(101, 5), 8),
            (day(101, 7), 7),
            (day(102, 3), 5),
            (day(120, 0), 2),
            (day(120, 9), 9),
            (day(121, 0), 3),
        ];
        assert_eq!(keys(&mut q), expected);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn inserts_after_a_promoting_peek_stay_ordered() {
        let mut q = CalendarQueue::new();
        q.insert(day(0, 1), 1, 1u32);
        q.insert(day(31, 0), 3, 3);
        q.insert(day(30, 0), 2, 2);
        assert_eq!(q.pop(), Some((day(0, 1), 1, 1)));
        // The normalizing peek jumps the cursor to day 30, promoting both
        // entries; later inserts land on both sides of them.
        assert_eq!(q.min_key(), Some((day(30, 0), 2)));
        q.insert(day(30, 0), 4, 4);
        q.insert(day(5, 0), 5, 5);
        for (d, s) in [(5, 5), (30, 2), (30, 4), (31, 3)] {
            assert_eq!(q.pop(), Some((day(d, 0), s, s as u32)));
        }
        assert!(q.is_empty());
    }

    /// Single inserts and pops: the calendar alone against a reference
    /// heap.
    #[derive(Debug, Clone)]
    enum Op {
        /// Insert one entry at `now + dt` ns.
        Insert(u64),
        /// Pop the minimum from both and compare.
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..(1u64 << 24)).prop_map(Op::Insert),
            // Far inserts: 16 .. 4096 days out — beyond the bucket window
            // even after growth, so they live in the overflow heap.
            ((1u64 << 24)..(1u64 << 32)).prop_map(Op::Insert),
            Just(Op::Pop),
        ]
    }

    /// What the engine files: one event, one transmission's table, a pop
    /// of everything due by `now + dt`, or a capture.
    #[derive(Debug, Clone)]
    enum Step {
        /// One event at `now + dt` ns.
        Single(u64),
        /// A transmission starting `dt` ns from now and lasting `airtime`
        /// ns, with these receiver delays in staging order.
        Table {
            dt: u64,
            airtime: u64,
            delays: Vec<u64>,
        },
        /// Pop, if the minimum is due by `now + dt`.
        Pop(u64),
        /// Compare the capture list with the reference's remaining entries.
        Capture,
    }

    /// Delays of up to 48 receivers. Shape 0 keeps a random order, 1 makes
    /// a V (falling, then rising: the delays around a sender), 2 makes them
    /// all equal (ties broken by staging index alone) and 3 snaps them to
    /// whole days.
    fn delays_strategy() -> impl Strategy<Value = Vec<u64>> {
        let spread = prop::collection::vec(0u64..(1 << 22), 0..48);
        (spread, 0u8..4).prop_map(|(mut delays, shape)| {
            match shape {
                1 => {
                    delays.sort_unstable();
                    let half = delays.len() / 2;
                    delays[..half].reverse();
                }
                2 => {
                    let d = delays.first().copied().unwrap_or(0);
                    delays.iter_mut().for_each(|x| *x = d);
                }
                3 => delays
                    .iter_mut()
                    .for_each(|x| *x &= !((1 << DAY_SHIFT) - 1)),
                _ => {}
            }
            delays
        })
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        // Near the cursor, or 16 .. 4096 days out: tables and single
        // events straddle day boundaries and the calendar's overflow
        // window.
        let dt = || prop_oneof![0u64..(1u64 << 24), (1u64 << 24)..(1u64 << 32)];
        prop_oneof![
            dt().prop_map(Step::Single),
            (dt(), 0u64..(1 << 22), delays_strategy()).prop_map(|(dt, airtime, delays)| {
                Step::Table {
                    dt,
                    airtime,
                    delays,
                }
            }),
            (0u64..(1 << 23)).prop_map(Step::Pop),
            (0u64..(1 << 23)).prop_map(Step::Pop),
            Just(Step::Capture),
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

        /// The merged order of tables and single events: every pop, and
        /// every capture (taken mid-table too), equals a reference heap's.
        #[test]
        fn tables_and_singles_merge_like_reference_heap(
            steps in prop::collection::vec(step_strategy(), 1..120),
        ) {
            let mut queue = EventQueue::with_capacity(0);
            let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut events: BTreeMap<u64, Event> = BTreeMap::new();
            let mut rows = Vec::new();
            let (mut now, mut seq, mut tx_id) = (0u64, 0u64, 0u64);
            for step in steps {
                match step {
                    Step::Single(dt) => {
                        seq += 1;
                        let event = Event::MacTimer { node: 1, seq };
                        queue.insert(t(now + dt), seq, event);
                        reference.push(Reverse((t(now + dt), seq)));
                        events.insert(seq, event);
                    }
                    Step::Table { dt, airtime, delays } => {
                        tx_id += 1;
                        let (start, end) = (now + dt, now + dt + airtime);
                        for (m, &delay_ns) in delays.iter().enumerate() {
                            let r = row(m as u32, delay_ns);
                            let table = Table {
                                tx_id,
                                origin: [start, end],
                                base: seq,
                                ..Table::default()
                            };
                            for pass in 0..2 {
                                let (time, s) = table.key(pass, &r);
                                reference.push(Reverse((t(time), s)));
                                events.insert(s, table.event(pass, &r));
                            }
                            rows.push(r);
                        }
                        queue.insert_table(tx_id, t(start), t(end), seq, &mut rows);
                        prop_assert!(rows.is_empty());
                        seq += 2 * delays.len() as u64;
                    }
                    Step::Pop(dt) => {
                        let limit = t(now + dt);
                        let due = reference.peek().is_some_and(|Reverse((rt, _))| *rt <= limit);
                        let expected = if due {
                            reference.pop().map(|Reverse((rt, rs))| (rt, rs, events[&rs]))
                        } else {
                            None
                        };
                        prop_assert_eq!(queue.pop_until(limit), expected);
                        if let Some((rt, _, _)) = expected {
                            now = rt.as_nanos();
                        }
                    }
                    Step::Capture => {
                        let mut remaining: Vec<(SimTime, u64)> =
                            reference.iter().map(|&Reverse(k)| k).collect();
                        remaining.sort_unstable();
                        let expected: Vec<Entry<Event>> =
                            remaining.into_iter().map(|(rt, rs)| (rt, rs, events[&rs])).collect();
                        prop_assert_eq!(queue.sorted_entries(), expected);
                    }
                }
                prop_assert_eq!(queue.len(), reference.len());
            }
            while let Some(Reverse((rt, rs))) = reference.pop() {
                prop_assert_eq!(queue.pop_until(t(u64::MAX)), Some((rt, rs, events[&rs])));
            }
            prop_assert!(queue.pop_until(t(u64::MAX)).is_none());
        }
    }
}
