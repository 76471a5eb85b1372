//! The engine's event scheduler: a binary heap of single events beside the
//! reception tables of the transmissions in flight.
//!
//! Most events are receptions: one transmission starts and ends a reception
//! at every station in carrier-sense range — hundreds of events within a few
//! microseconds of each other. The queue does not file them one by one. A
//! transmission hands it one **reception table**, a row `(delay, staging
//! index m, node, power)` per receiver, sorted once by `(delay, m)`. Both of
//! the table's passes are read from it in that order: receiver `m` starts
//! receiving at `start + delay` with sequence number `base + 2m + 1` and
//! stops at `end + delay` with `base + 2m + 2`, so each pass is ascending in
//! `(time, seq)`. A small heap holds each live pass's next row. Every other
//! event — a timer, a transmission's end, a fault — is a single entry in a
//! second heap, and each pop takes whichever of the two heads has the
//! smaller `(time, seq)` key, packed into one `u128`.
//!
//! # Ordering invariant
//!
//! The queue dequeues in exactly ascending `(time, seq)` order — the same
//! total order a `BinaryHeap<Reverse<(time, seq)>>` would produce, however
//! the entries were filed. This is the foundation of the repository's
//! bit-identity guarantee: the property test in this module checks it
//! against a reference heap under random interleavings of single inserts,
//! reception tables, pops and captures.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::sim::Event;
use crate::time::SimTime;

/// `(time, seq)` as one integer, so that ordering two events is one
/// comparison.
#[inline]
fn pack(time: u64, seq: u64) -> u128 {
    (u128::from(time) << 64) | u128::from(seq)
}

/// One pending event: its `(time, seq)` key and payload.
pub(crate) type Entry = (SimTime, u64, Event);

/// A heap item ordered by its `(time, seq)` key alone: a single event, or a
/// reception pass's next row. `time` and `seq` stay two `u64` fields (a
/// `u128` field would align the item to 16 bytes) and are packed on
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

/// The engine's event queue: single events in one heap, and each
/// transmission's receptions as one table (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Timers, transmission ends and faults.
    singles: BinaryHeap<Keyed<Event>>,
    /// Table arena; a drained table keeps its rows' buffer for the next.
    tables: Vec<Table>,
    free: Vec<u32>,
    /// The next row of every live pass.
    passes: BinaryHeap<Keyed<Pass>>,
}

impl EventQueue {
    /// Number of pending events.
    #[cfg(test)]
    fn len(&self) -> usize {
        let rows = |p: &Keyed<Pass>| {
            self.tables[(p.value.id >> 1) as usize].rows.len() - p.value.row as usize
        };
        self.singles.len() + self.passes.iter().map(rows).sum::<usize>()
    }

    /// Insert one event at key `(time, seq)`; keys must be unique.
    pub(crate) fn insert(&mut self, time: SimTime, seq: u64, event: Event) {
        self.singles.push(Keyed {
            time: time.as_nanos(),
            seq,
            value: event,
        });
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
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<Entry> {
        let limit = pack(limit.as_nanos(), u64::MAX);
        let single = self.singles.peek().map(Keyed::key).filter(|&k| k <= limit);
        let table = self.passes.peek().map(Keyed::key).filter(|&k| k <= limit);
        match (single, table) {
            (Some(s), Some(t)) if t < s => Some(self.pop_pass()),
            (Some(_), _) => self
                .singles
                .pop()
                .map(|k| (SimTime::from_nanos(k.time), k.seq, k.value)),
            (None, Some(_)) => Some(self.pop_pass()),
            (None, None) => None,
        }
    }

    /// Dispatch the next row of the smallest live pass.
    fn pop_pass(&mut self) -> Entry {
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
    pub(crate) fn sorted_entries(&self) -> Vec<Entry> {
        let mut out: Vec<Entry> = self
            .singles
            .iter()
            .map(|k| (SimTime::from_nanos(k.time), k.seq, k.value))
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

    fn timer(token: u64) -> Event {
        Event::AppTimer { node: 0, token }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.insert(t(50), 3, timer(3));
        q.insert(t(10), 1, timer(1));
        q.insert(t(50), 2, timer(2));
        q.insert(t(5_000_000_000), 4, timer(4));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_until(t(9)), None, "nothing is due yet");
        assert_eq!(q.pop_until(t(10)), Some((t(10), 1, timer(1))));
        assert_eq!(
            keys(&mut q),
            [(t(50), 2), (t(50), 3), (t(5_000_000_000), 4)]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_inserts_during_pops_stay_ordered() {
        let mut q = EventQueue::default();
        q.insert(t(1 << 21), 1, timer(1));
        assert_eq!(q.pop_until(t(u64::MAX)), Some((t(1 << 21), 1, timer(1))));
        // An insert behind the last pop still dequeues before later keys.
        q.insert(t(10), 2, timer(2));
        q.insert(t(1 << 22), 3, timer(3));
        assert_eq!(keys(&mut q), [(t(10), 2), (t(1 << 22), 3)]);
    }

    #[test]
    fn sorted_entries_lists_live_entries_ascending() {
        let mut q = EventQueue::default();
        q.insert(t(30), 3, timer(3));
        q.insert(t(20), 2, timer(2));
        q.insert(t(10), 1, timer(1));
        q.insert(t(1 << 30), 4, timer(4));
        assert_eq!(q.pop_until(t(10)), Some((t(10), 1, timer(1))));
        assert_eq!(
            q.sorted_entries(),
            [
                (t(20), 2, timer(2)),
                (t(30), 3, timer(3)),
                (t(1 << 30), 4, timer(4))
            ]
        );
    }

    #[test]
    fn drained_tables_are_recycled() {
        let mut q = EventQueue::default();
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
    /// a V (falling, then rising: the delays around a sender) and 2 makes
    /// them all equal (ties broken by staging index alone).
    fn delays_strategy() -> impl Strategy<Value = Vec<u64>> {
        let spread = prop::collection::vec(0u64..(1 << 22), 0..48);
        (spread, 0u8..3).prop_map(|(mut delays, shape)| {
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
                _ => {}
            }
            delays
        })
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        // Near now, or far in the future: far entries wait behind many
        // pops up to a limit, and tables and singles interleave on both
        // sides of them.
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

        /// The merged order of tables and single events: every pop, and
        /// every capture (taken mid-table too), equals a reference heap's.
        #[test]
        fn tables_and_singles_merge_like_reference_heap(
            steps in prop::collection::vec(step_strategy(), 1..120),
        ) {
            let mut queue = EventQueue::default();
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
                        let expected: Vec<Entry> =
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
