//! Optimized Link State Routing (RFC 3626), with the olsrd ETX/LQ
//! extension the paper describes.
//!
//! OLSR is proactive: every node periodically broadcasts HELLO messages to
//! sense its one-hop links and learn its two-hop neighbourhood; from those
//! it elects **multipoint relays (MPRs)** — the minimal neighbour subset
//! covering all two-hop nodes. Only MPRs forward Topology Control (TC)
//! floods, "by this way, the amount of control traffic can be reduced"
//! (paper §III-B-1). TC messages advertise each node's MPR-selector set;
//! the union of HELLO-sensed links and TC-learned links feeds a
//! shortest-path computation.
//!
//! With [`LinkMetric::Etx`] the route computation minimizes the expected
//! transmission count `ETX(i) = 1/(NI(i)·LQI(i))` instead of the hop count,
//! where `NI` is the packet arrival rate we measure on a link and `LQI` is
//! the rate the neighbour reports back — exactly the olsrd LQ extension the
//! paper cites.

use std::collections::VecDeque;
use std::time::Duration;

use cavenet_net::snapshot::{read_node_id, read_time, write_node_id, write_time};
use cavenet_net::{
    ControlBlob, ControlCodec, DropReason, FastMap, NodeApi, NodeId, Packet, RoutingProtocol,
    RoutingTelemetry, SimTime, WireError, WireReader, WireWriter,
};

/// Which link cost the route computation minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkMetric {
    /// Minimum hop count (RFC 3626 baseline).
    #[default]
    Hops,
    /// Minimum sum of ETX = 1/(NI·LQI) (olsrd LQ extension).
    Etx,
}

/// OLSR tunables (Table 1: HELLO 1 s, TC 2 s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsrConfig {
    /// HELLO emission interval.
    pub hello_interval: Duration,
    /// TC emission interval.
    pub tc_interval: Duration,
    /// Link/neighbour hold time (3 × HELLO by default).
    pub neighb_hold: Duration,
    /// Topology hold time (3 × TC by default).
    pub top_hold: Duration,
    /// Link metric for route computation.
    pub metric: LinkMetric,
    /// Sliding window (in HELLO periods) for ETX link-quality estimation.
    pub lq_window: u32,
}

impl Default for OlsrConfig {
    fn default() -> Self {
        OlsrConfig {
            hello_interval: Duration::from_secs(1),
            tc_interval: Duration::from_secs(2),
            neighb_hold: Duration::from_secs(3),
            top_hold: Duration::from_secs(6),
            metric: LinkMetric::Hops,
            lq_window: 10,
        }
    }
}

/// One neighbour entry inside a HELLO.
#[derive(Debug, Clone, Copy)]
struct HelloEntry {
    addr: NodeId,
    /// The sender considers the link to `addr` symmetric.
    sym: bool,
    /// The sender has selected `addr` as an MPR.
    is_mpr: bool,
    /// The sender's measured arrival rate on the link to `addr` (for ETX).
    lq: f64,
}

/// HELLO message (wire ≈ 16 + 8·entries bytes).
#[derive(Debug, Clone)]
struct Hello {
    entries: Vec<HelloEntry>,
}

/// Topology Control message (wire ≈ 16 + 8·selectors bytes).
#[derive(Debug, Clone)]
struct Tc {
    origin: NodeId,
    seq: u32,
    ansn: u16,
    /// The origin's MPR-selector set with the origin's link quality toward
    /// each.
    selectors: Vec<(NodeId, f64)>,
}

const TOKEN_HELLO: u64 = 1;
const TOKEN_TC: u64 = 2;
const TOKEN_TICK: u64 = 3;
const TICK: Duration = Duration::from_millis(250);

#[derive(Debug, Clone)]
struct LinkInfo {
    heard_until: SimTime,
    sym_until: SimTime,
    /// Times we received a HELLO from this neighbour (ETX window).
    hello_times: VecDeque<SimTime>,
    /// Arrival rate the neighbour reports for packets *from us* (LQI).
    lqi: f64,
}

impl LinkInfo {
    fn new() -> Self {
        LinkInfo {
            heard_until: SimTime::ZERO,
            sym_until: SimTime::ZERO,
            hello_times: VecDeque::new(),
            lqi: 1.0,
        }
    }

    fn is_sym(&self, now: SimTime) -> bool {
        self.sym_until > now
    }

    fn is_heard(&self, now: SimTime) -> bool {
        self.heard_until > now
    }

    /// Drop HELLO times older than the LQ `window` — exactly the ones
    /// [`Olsr::ni`] no longer counts.
    fn trim_window(&mut self, now: SimTime, window: Duration) {
        while self
            .hello_times
            .front()
            .is_some_and(|&t| now.saturating_since(t) > window)
        {
            self.hello_times.pop_front();
        }
    }
}

/// A directed link-state edge `(from, to, cost)`.
type Edge = (NodeId, NodeId, f64);

/// Inputs of the last MPR selection and route computation, with the
/// scratch buffers both reuse.
///
/// MPR selection is a pure function of (sorted symmetric neighbours, sorted
/// unexpired two-hop pairs) and the route computation of (own id, sorted
/// edge list). A recompute whose inputs equal the stored ones — costs
/// compared bit for bit — leaves `mprs`/`routes` as they are. Inputs are
/// kept verbatim rather than hashed, so no collision can hide a change.
///
/// Derived state: never serialized, and invalidated on restore.
#[derive(Debug, Default)]
struct LinkStateMemo {
    /// `mprs` was selected from these when `mpr_valid`.
    mpr_neighbours: Vec<NodeId>,
    mpr_pairs: Vec<(NodeId, NodeId)>,
    mpr_valid: bool,
    /// `routes` was computed at node `route_me` over these edges.
    route_edges: Vec<Edge>,
    route_me: Option<NodeId>,
    /// This call's candidate inputs; swapped with the stored ones when they
    /// differ.
    next_neighbours: Vec<NodeId>,
    next_pairs: Vec<(NodeId, NodeId)>,
    next_edges: Vec<Edge>,
    mpr_scratch: MprScratch,
    path_scratch: PathScratch,
    /// Test hook: compute on every call, as if no input were ever equal.
    #[cfg(test)]
    never_skip: bool,
    #[cfg(test)]
    mpr_skips: u64,
    #[cfg(test)]
    route_skips: u64,
}

impl LinkStateMemo {
    fn invalidate(&mut self) {
        self.mpr_valid = false;
        self.route_me = None;
    }

    fn may_skip(&self) -> bool {
        #[cfg(test)]
        {
            !self.never_skip
        }
        #[cfg(not(test))]
        {
            true
        }
    }
}

/// The OLSR routing protocol state for one node.
#[derive(Debug)]
pub struct Olsr {
    config: OlsrConfig,
    links: FastMap<NodeId, LinkInfo>,
    /// (neighbour, two-hop node) → expiry.
    two_hop: FastMap<(NodeId, NodeId), SimTime>,
    /// Selected MPRs, ascending.
    mprs: Vec<NodeId>,
    /// Neighbours that selected us as MPR → expiry.
    mpr_selectors: FastMap<NodeId, SimTime>,
    /// (destination, last hop) → (link quality, expiry).
    topology: FastMap<(NodeId, NodeId), (f64, SimTime)>,
    /// Highest ANSN seen per origin.
    origin_ansn: FastMap<NodeId, u16>,
    /// TC duplicate cache: (origin, seq) → expiry.
    seen_tc: FastMap<(NodeId, u32), SimTime>,
    /// Destination → (next hop, cost).
    routes: FastMap<NodeId, (NodeId, f64)>,
    tc_seq: u32,
    ansn: u16,
    last_selector_snapshot: Vec<NodeId>,
    memo: LinkStateMemo,
}

impl Default for Olsr {
    fn default() -> Self {
        Self::new()
    }
}

impl Olsr {
    /// OLSR with default configuration (hop-count metric).
    pub fn new() -> Self {
        Self::with_config(OlsrConfig::default())
    }

    /// OLSR minimizing ETX (the LQ extension).
    pub fn new_etx() -> Self {
        Self::with_config(OlsrConfig {
            metric: LinkMetric::Etx,
            ..OlsrConfig::default()
        })
    }

    /// OLSR with explicit configuration.
    pub fn with_config(config: OlsrConfig) -> Self {
        Olsr {
            config,
            links: FastMap::default(),
            two_hop: FastMap::default(),
            mprs: Vec::new(),
            mpr_selectors: FastMap::default(),
            topology: FastMap::default(),
            origin_ansn: FastMap::default(),
            seen_tc: FastMap::default(),
            routes: FastMap::default(),
            tc_seq: 0,
            ansn: 0,
            last_selector_snapshot: Vec::new(),
            memo: LinkStateMemo::default(),
        }
    }

    /// Current symmetric neighbours.
    pub fn symmetric_neighbours(&self, now: SimTime) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .links
            .iter()
            .filter(|(_, l)| l.is_sym(now))
            .map(|(&n, _)| n)
            .collect();
        v.sort();
        v
    }

    /// Currently selected MPRs.
    pub fn mpr_set(&self) -> Vec<NodeId> {
        self.mprs.clone()
    }

    /// Current unexpired `(symmetric neighbour, two-hop node)` adjacency as
    /// learned from HELLOs — the input to MPR selection. Exposed so the
    /// testkit can check the MPR coverage property from outside.
    pub fn two_hop_pairs(&self, now: SimTime) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<(NodeId, NodeId)> = self
            .two_hop
            .iter()
            .filter(|(_, &exp)| exp > now)
            .map(|(&pair, _)| pair)
            .collect();
        v.sort();
        v
    }

    /// The computed route to `dst`, as `(next_hop, cost)`.
    pub fn route(&self, dst: NodeId) -> Option<(NodeId, f64)> {
        self.routes.get(&dst).copied()
    }

    /// Measured arrival rate (NI) for a neighbour over the LQ window.
    fn ni(&self, neighbour: NodeId, now: SimTime) -> f64 {
        let Some(link) = self.links.get(&neighbour) else {
            return 0.0;
        };
        let window = self.config.hello_interval * self.config.lq_window;
        let start = if now.as_nanos() > window.as_nanos() as u64 {
            SimTime::from_nanos(now.as_nanos() - window.as_nanos() as u64)
        } else {
            SimTime::ZERO
        };
        let received = link.hello_times.iter().filter(|&&t| t >= start).count();
        let expected = (now.saturating_since(start).as_secs_f64()
            / self.config.hello_interval.as_secs_f64())
        .max(1.0);
        (received as f64 / expected).min(1.0)
    }

    /// ETX cost of the direct link to `neighbour`.
    fn etx(&self, neighbour: NodeId, now: SimTime) -> f64 {
        let ni = self.ni(neighbour, now);
        let lqi = self.links.get(&neighbour).map_or(0.0, |l| l.lqi);
        if ni <= 0.0 || lqi <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / (ni * lqi)
        }
    }

    fn link_cost(&self, neighbour: NodeId, now: SimTime) -> f64 {
        match self.config.metric {
            LinkMetric::Hops => 1.0,
            LinkMetric::Etx => self.etx(neighbour, now),
        }
    }

    /// Remote link cost from a TC-advertised quality value.
    fn remote_cost(&self, lq: f64) -> f64 {
        match self.config.metric {
            LinkMetric::Hops => 1.0,
            LinkMetric::Etx => {
                if lq <= 0.0 {
                    f64::INFINITY
                } else {
                    (1.0 / lq).max(1.0)
                }
            }
        }
    }

    fn emit_hello(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        let me = api.id();
        let mut entries: Vec<HelloEntry> = self
            .links
            .iter()
            .filter(|(_, l)| l.is_heard(now))
            .map(|(&addr, l)| HelloEntry {
                addr,
                sym: l.is_sym(now),
                is_mpr: self.mprs.binary_search(&addr).is_ok(),
                lq: self.ni(addr, now),
            })
            .collect();
        entries.sort_by_key(|e| e.addr);
        let size = 16 + 8 * entries.len() as u32;
        let packet = Packet::control(me, NodeId::BROADCAST, size, Hello { entries });
        api.send(packet, NodeId::BROADCAST);
    }

    fn emit_tc(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        // Only nodes selected as MPR by someone generate TCs.
        self.mpr_selectors.retain(|_, &mut exp| exp > now);
        if self.mpr_selectors.is_empty() {
            return;
        }
        let mut selectors: Vec<NodeId> = self.mpr_selectors.keys().copied().collect();
        selectors.sort();
        if selectors != self.last_selector_snapshot {
            self.ansn = self.ansn.wrapping_add(1);
            self.last_selector_snapshot = selectors.clone();
        }
        self.tc_seq = self.tc_seq.wrapping_add(1);
        let tc = Tc {
            origin: api.id(),
            seq: self.tc_seq,
            ansn: self.ansn,
            selectors: selectors
                .into_iter()
                .map(|s| (s, self.ni(s, now)))
                .collect(),
        };
        let size = 16 + 8 * tc.selectors.len() as u32;
        let mut packet = Packet::control(api.id(), NodeId::BROADCAST, size, tc);
        packet.ttl = 32;
        api.send(packet, NodeId::BROADCAST);
    }

    fn handle_hello(&mut self, api: &mut NodeApi<'_>, hello: &Hello, from: NodeId) {
        let now = api.now();
        let me = api.id();
        let hold = self.config.neighb_hold;
        let window = self.config.hello_interval * self.config.lq_window;
        let link = self.links.entry(from).or_insert_with(LinkInfo::new);
        link.heard_until = now + hold;
        link.hello_times.push_back(now);
        link.trim_window(now, window);
        let mut lists_me = None;
        for e in &hello.entries {
            if e.addr == me {
                lists_me = Some(*e);
            }
        }
        if let Some(e) = lists_me {
            // The neighbour hears us: the link is symmetric.
            link.sym_until = now + hold;
            link.lqi = e.lq.max(0.01);
            if e.is_mpr {
                self.mpr_selectors.insert(from, now + hold);
            } else {
                self.mpr_selectors.remove(&from);
            }
        }
        // Two-hop set: the sender's symmetric neighbours (except us).
        if self.links.get(&from).is_some_and(|l| l.is_sym(now)) {
            for e in &hello.entries {
                if e.sym && e.addr != me {
                    self.two_hop.insert((from, e.addr), now + hold);
                }
            }
        }
        self.recompute_mprs(now);
        self.recompute_routes(now, me);
    }

    fn handle_tc(&mut self, api: &mut NodeApi<'_>, packet: &Packet, tc: &Tc, from: NodeId) {
        let now = api.now();
        if tc.origin == api.id() {
            return;
        }
        // RFC 3626 §9.5: discard if the sender is not a symmetric neighbour.
        if !self.links.get(&from).is_some_and(|l| l.is_sym(now)) {
            return;
        }
        let dup_key = (tc.origin, tc.seq);
        if self.seen_tc.contains_key(&dup_key) {
            return;
        }
        self.seen_tc.insert(dup_key, now + Duration::from_secs(30));

        // ANSN handling: ignore stale, flush on newer.
        let process = match self.origin_ansn.get(&tc.origin) {
            Some(&have) => {
                let diff = tc.ansn.wrapping_sub(have) as i16;
                if diff < 0 {
                    false
                } else {
                    if diff > 0 {
                        self.topology.retain(|&(_, lh), _| lh != tc.origin);
                    }
                    true
                }
            }
            None => true,
        };
        if process {
            self.origin_ansn.insert(tc.origin, tc.ansn);
            for &(sel, lq) in &tc.selectors {
                if sel == api.id() {
                    continue;
                }
                self.topology
                    .insert((sel, tc.origin), (lq, now + self.config.top_hold));
            }
            self.recompute_routes(now, api.id());
        }

        // MPR flooding: forward only if the sender selected us as MPR.
        if self.mpr_selectors.contains_key(&from) && packet.ttl > 1 {
            let mut fwd = packet.clone();
            fwd.ttl -= 1;
            api.send(fwd, NodeId::BROADCAST);
        }
    }

    /// Re-select the MPR set unless its inputs are unchanged. The expiry
    /// sweep of the two-hop set runs on every call.
    fn recompute_mprs(&mut self, now: SimTime) {
        self.two_hop.retain(|_, &mut exp| exp > now);
        let memo = &mut self.memo;
        memo.next_neighbours.clear();
        memo.next_neighbours.extend(
            self.links
                .iter()
                .filter(|(_, l)| l.is_sym(now))
                .map(|(&n, _)| n),
        );
        memo.next_neighbours.sort_unstable();
        memo.next_pairs.clear();
        memo.next_pairs.extend(self.two_hop.keys().copied());
        memo.next_pairs.sort_unstable();
        if memo.may_skip()
            && memo.mpr_valid
            && memo.next_neighbours == memo.mpr_neighbours
            && memo.next_pairs == memo.mpr_pairs
        {
            #[cfg(test)]
            {
                memo.mpr_skips += 1;
            }
            if cfg!(debug_assertions) {
                let mut fresh = Vec::new();
                select_mprs(
                    &memo.next_neighbours,
                    &memo.next_pairs,
                    &mut memo.mpr_scratch,
                    &mut fresh,
                );
                debug_assert_eq!(fresh, self.mprs, "skipped MPR selection was stale");
            }
            return;
        }
        std::mem::swap(&mut memo.next_neighbours, &mut memo.mpr_neighbours);
        std::mem::swap(&mut memo.next_pairs, &mut memo.mpr_pairs);
        memo.mpr_valid = true;
        select_mprs(
            &memo.mpr_neighbours,
            &memo.mpr_pairs,
            &mut memo.mpr_scratch,
            &mut self.mprs,
        );
    }

    /// Recompute routes over HELLO links + TC topology unless the edge list
    /// is unchanged. The expiry sweep of the topology runs on every call.
    fn recompute_routes(&mut self, now: SimTime, me: NodeId) {
        self.topology.retain(|_, &mut (_, exp)| exp > now);

        let mut edges = std::mem::take(&mut self.memo.next_edges);
        edges.clear();
        for (&n, l) in &self.links {
            if l.is_sym(now) {
                edges.push((me, n, self.link_cost(n, now)));
            }
        }
        for (&(n, t), &exp) in &self.two_hop {
            if exp > now {
                edges.push((n, t, 1.0));
            }
        }
        for (&(dest, lasthop), &(lq, _)) in &self.topology {
            edges.push((lasthop, dest, self.remote_cost(lq)));
        }
        // The edge list is assembled from maps, so its order is arbitrary;
        // equal-cost relaxations resolve by edge order, which must not leak
        // into next-hop choice. Equal edges are bit-identical, so an
        // unstable sort is deterministic.
        edges.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));

        let memo = &mut self.memo;
        if memo.may_skip() && memo.route_me == Some(me) && same_edges(&edges, &memo.route_edges) {
            #[cfg(test)]
            {
                memo.route_skips += 1;
            }
            if cfg!(debug_assertions) {
                let mut fresh = FastMap::default();
                shortest_paths(me, &edges, &mut memo.path_scratch, &mut fresh);
                debug_assert_eq!(fresh, self.routes, "skipped route computation was stale");
            }
            memo.next_edges = edges;
            return;
        }
        memo.next_edges = std::mem::replace(&mut memo.route_edges, edges);
        memo.route_me = Some(me);
        shortest_paths(
            me,
            &memo.route_edges,
            &mut memo.path_scratch,
            &mut self.routes,
        );
    }

    fn tick(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        self.seen_tc.retain(|_, &mut exp| exp > now);
        // Without this trim a neighbour gone silent would keep its stale
        // HELLO times, and its link, forever.
        let window = self.config.hello_interval * self.config.lq_window;
        for link in self.links.values_mut() {
            link.trim_window(now, window);
        }
        self.links
            .retain(|_, l| l.is_heard(now) || !l.hello_times.is_empty());
        self.recompute_mprs(now);
        self.recompute_routes(now, api.id());
    }
}

/// Reusable buffers for [`select_mprs`].
#[derive(Debug, Default)]
struct MprScratch {
    /// Strict two-hop nodes, ascending.
    strict: Vec<NodeId>,
    /// `(neighbour index, strict index)` per covering pair, ascending.
    cover: Vec<(usize, usize)>,
    /// `cover[first_cover[n]..first_cover[n + 1]]` are neighbour `n`'s pairs.
    first_cover: Vec<usize>,
    /// Per strict node: how many neighbours cover it, and the last of them.
    coverers: Vec<u32>,
    sole: Vec<usize>,
    covered: Vec<bool>,
    chosen: Vec<bool>,
}

impl MprScratch {
    /// Strict indices neighbour `ni` covers.
    fn pairs_of(&self, ni: usize) -> impl Iterator<Item = usize> + '_ {
        self.cover[self.first_cover[ni]..self.first_cover[ni + 1]]
            .iter()
            .map(|&(_, ti)| ti)
    }

    /// Select neighbour `ni`; returns how many strict nodes it newly covers.
    fn choose(&mut self, ni: usize) -> usize {
        self.chosen[ni] = true;
        let mut newly = 0;
        for &(_, ti) in &self.cover[self.first_cover[ni]..self.first_cover[ni + 1]] {
            if !self.covered[ti] {
                self.covered[ti] = true;
                newly += 1;
            }
        }
        newly
    }
}

/// Greedy MPR selection (RFC 3626 §8.3.1 heuristic) over sorted symmetric
/// `neighbours` and sorted `(neighbour, two-hop node)` pairs, written to
/// `mprs` in ascending order.
fn select_mprs(
    neighbours: &[NodeId],
    pairs: &[(NodeId, NodeId)],
    s: &mut MprScratch,
    mprs: &mut Vec<NodeId>,
) {
    let is_neighbour = |n: &NodeId| neighbours.binary_search(n).is_ok();
    // Strict two-hop set: reachable via a sym neighbour, not a neighbour
    // itself.
    s.strict.clear();
    s.strict.extend(
        pairs
            .iter()
            .filter(|(n, t)| is_neighbour(n) && !is_neighbour(t))
            .map(|&(_, t)| t),
    );
    s.strict.sort_unstable();
    s.strict.dedup();
    s.cover.clear();
    for (n, t) in pairs {
        if let (Ok(ni), Ok(ti)) = (neighbours.binary_search(n), s.strict.binary_search(t)) {
            s.cover.push((ni, ti));
        }
    }
    s.first_cover.clear();
    s.first_cover.resize(neighbours.len() + 1, 0);
    for &(ni, _) in &s.cover {
        s.first_cover[ni + 1] += 1;
    }
    for i in 0..neighbours.len() {
        s.first_cover[i + 1] += s.first_cover[i];
    }
    s.coverers.clear();
    s.coverers.resize(s.strict.len(), 0);
    s.sole.clear();
    s.sole.resize(s.strict.len(), 0);
    for &(ni, ti) in &s.cover {
        s.coverers[ti] += 1;
        s.sole[ti] = ni;
    }
    s.chosen.clear();
    s.chosen.resize(neighbours.len(), false);
    s.covered.clear();
    s.covered.resize(s.strict.len(), false);
    let mut uncovered = s.strict.len();
    // 1. Neighbours that are the sole cover of some two-hop node.
    for ti in 0..s.strict.len() {
        if s.coverers[ti] == 1 && !s.chosen[s.sole[ti]] {
            uncovered -= s.choose(s.sole[ti]);
        }
    }
    // 2. Greedy: repeatedly take the neighbour covering most uncovered,
    // the lowest id among equals.
    while uncovered > 0 {
        let mut best: Option<(usize, usize)> = None;
        for ni in (0..neighbours.len()).filter(|&ni| !s.chosen[ni]) {
            let gain = s.pairs_of(ni).filter(|&ti| !s.covered[ti]).count();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((ni, gain));
            }
        }
        match best {
            Some((ni, gain)) if gain > 0 => uncovered -= s.choose(ni),
            _ => break,
        }
    }
    mprs.clear();
    mprs.extend(
        neighbours
            .iter()
            .zip(&s.chosen)
            .filter(|&(_, &c)| c)
            .map(|(&n, _)| n),
    );
}

/// Reusable buffers for [`shortest_paths`], indexed densely by position in
/// `nodes`.
#[derive(Debug, Default)]
struct PathScratch {
    /// Every node of the graph, ascending, so index order is id order.
    nodes: Vec<NodeId>,
    /// `edges[first_edge[u]..first_edge[u + 1]]` leave node `u`.
    first_edge: Vec<usize>,
    /// Dense index of each edge's head.
    head: Vec<usize>,
    dist: Vec<f64>,
    reached: Vec<bool>,
    done: Vec<bool>,
    first_hop: Vec<usize>,
}

fn same_edges(a: &[Edge], b: &[Edge]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

/// Dijkstra from `me` over `edges` (sorted by `(from, to, cost)`), writing
/// `destination → (first hop, cost)` to `routes`.
///
/// The graphs are tiny, so the next node is found by a scan in `(dist, id)`
/// order; edges out of it relax in `(to, cost)` order and replace a known
/// distance only when shorter by more than 1e-12, which fixes every
/// equal-cost tie.
fn shortest_paths(
    me: NodeId,
    edges: &[Edge],
    s: &mut PathScratch,
    routes: &mut FastMap<NodeId, (NodeId, f64)>,
) {
    s.nodes.clear();
    s.nodes.push(me);
    for &(from, to, _) in edges {
        s.nodes.push(from);
        s.nodes.push(to);
    }
    s.nodes.sort_unstable();
    s.nodes.dedup();
    let n = s.nodes.len();
    let nodes = &s.nodes;
    let index = |id: NodeId| {
        nodes
            .binary_search(&id)
            .expect("every edge endpoint is a node")
    };
    s.first_edge.clear();
    s.first_edge.resize(n + 1, 0);
    s.head.clear();
    for &(from, to, _) in edges {
        s.first_edge[index(from) + 1] += 1;
        s.head.push(index(to));
    }
    for i in 0..n {
        s.first_edge[i + 1] += s.first_edge[i];
    }
    s.dist.clear();
    s.dist.resize(n, 0.0);
    s.reached.clear();
    s.reached.resize(n, false);
    s.done.clear();
    s.done.resize(n, false);
    s.first_hop.clear();
    s.first_hop.extend(0..n);

    let src = index(me);
    s.reached[src] = true;
    loop {
        let mut next: Option<usize> = None;
        for i in 0..n {
            if s.reached[i]
                && !s.done[i]
                && next.is_none_or(|b| s.dist[i].total_cmp(&s.dist[b]).is_lt())
            {
                next = Some(i);
            }
        }
        let Some(u) = next else { break };
        s.done[u] = true;
        let du = s.dist[u];
        let out = s.first_edge[u]..s.first_edge[u + 1];
        for (&(_, _, cost), &v) in edges[out.clone()].iter().zip(&s.head[out]) {
            if cost.is_infinite() {
                continue;
            }
            let nd = du + cost;
            if !s.reached[v] || nd < s.dist[v] - 1e-12 {
                s.dist[v] = nd;
                s.reached[v] = true;
                s.first_hop[v] = if u == src { v } else { s.first_hop[u] };
            }
        }
    }
    routes.clear();
    for i in (0..n).filter(|&i| i != src && s.reached[i]) {
        routes.insert(s.nodes[i], (s.nodes[s.first_hop[i]], s.dist[i]));
    }
}

/// Serializer for OLSR's in-flight control payloads (HELLO and TC). The
/// tag bytes are part of the checkpoint format and fixed forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct OlsrCodec;

const CTRL_HELLO: u8 = 1;
const CTRL_TC: u8 = 2;
/// Wire bytes of one HELLO entry: address, two flags, link quality.
const HELLO_ENTRY_BYTES: usize = 14;
/// Wire bytes of one TC selector: address, link quality.
const SELECTOR_BYTES: usize = 12;

impl ControlCodec for OlsrCodec {
    fn encode(&self, blob: &ControlBlob, w: &mut WireWriter) -> Result<(), WireError> {
        if let Some(h) = blob.downcast_ref::<Hello>() {
            w.put_u8(CTRL_HELLO);
            w.put_usize(h.entries.len());
            for e in &h.entries {
                write_node_id(w, e.addr);
                w.put_bool(e.sym);
                w.put_bool(e.is_mpr);
                w.put_f64(e.lq);
            }
            return Ok(());
        }
        if let Some(tc) = blob.downcast_ref::<Tc>() {
            w.put_u8(CTRL_TC);
            write_node_id(w, tc.origin);
            w.put_u32(tc.seq);
            w.put_u16(tc.ansn);
            w.put_usize(tc.selectors.len());
            for &(sel, lq) in &tc.selectors {
                write_node_id(w, sel);
                w.put_f64(lq);
            }
            return Ok(());
        }
        Err(WireError::Malformed {
            what: "non-OLSR control payload",
            value: 0,
        })
    }

    fn decode(&self, r: &mut WireReader<'_>) -> Result<ControlBlob, WireError> {
        match r.get_u8()? {
            CTRL_HELLO => {
                let n = r.get_count(HELLO_ENTRY_BYTES)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(HelloEntry {
                        addr: read_node_id(r)?,
                        sym: r.get_bool()?,
                        is_mpr: r.get_bool()?,
                        lq: r.get_f64()?,
                    });
                }
                Ok(std::sync::Arc::new(Hello { entries }))
            }
            CTRL_TC => {
                let origin = read_node_id(r)?;
                let seq = r.get_u32()?;
                let ansn = r.get_u16()?;
                let n = r.get_count(SELECTOR_BYTES)?;
                let mut selectors = Vec::with_capacity(n);
                for _ in 0..n {
                    selectors.push((read_node_id(r)?, r.get_f64()?));
                }
                Ok(std::sync::Arc::new(Tc {
                    origin,
                    seq,
                    ansn,
                    selectors,
                }))
            }
            tag => Err(WireError::Malformed {
                what: "olsr control tag",
                value: u64::from(tag),
            }),
        }
    }
}

impl RoutingProtocol for Olsr {
    fn name(&self) -> &'static str {
        "olsr"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn telemetry(&self) -> RoutingTelemetry {
        RoutingTelemetry {
            route_table_size: self.routes.len() as u64,
            neighbours: self.links.len() as u64,
            mpr_set_size: self.mprs.len() as u64,
            ..RoutingTelemetry::default()
        }
    }

    fn on_crash(&mut self, _api: &mut NodeApi<'_>) {
        // OLSR never buffers data (no route means an immediate NoRoute
        // drop), so a crash surrenders nothing. Link-state tables need no
        // cleanup either: a cold-start recovery replaces the instance, and
        // a warm start deliberately keeps the stale topology — neighbours
        // expire it through the usual HELLO/TC hold timers.
    }

    fn start(&mut self, api: &mut NodeApi<'_>) {
        let jitter = Duration::from_millis(api.rng().gen_range(0..250));
        api.schedule(Duration::from_millis(100) + jitter, TOKEN_HELLO);
        api.schedule(self.config.tc_interval / 2 + jitter, TOKEN_TC);
        api.schedule(TICK + jitter, TOKEN_TICK);
    }

    fn route_output(&mut self, api: &mut NodeApi<'_>, packet: Packet) {
        if packet.dst.is_broadcast() {
            api.send(packet, NodeId::BROADCAST);
            return;
        }
        if let Some(&(nh, _)) = self.routes.get(&packet.dst) {
            api.send(packet, nh);
        } else {
            // Proactive protocol: no route means drop (no buffering).
            api.drop_packet(packet, DropReason::NoRoute);
        }
    }

    fn handle_received(&mut self, api: &mut NodeApi<'_>, mut packet: Packet, from: NodeId) {
        if let Some(hello) = packet.body.as_control::<Hello>() {
            self.handle_hello(api, hello, from);
            return;
        }
        if let Some(tc) = packet.body.as_control::<Tc>() {
            self.handle_tc(api, &packet, tc, from);
            return;
        }
        // Data.
        if packet.dst == api.id() {
            api.deliver_to_app(packet);
            return;
        }
        if packet.ttl <= 1 {
            api.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        packet.ttl -= 1;
        if let Some(&(nh, _)) = self.routes.get(&packet.dst) {
            api.send(packet, nh);
        } else {
            api.drop_packet(packet, DropReason::NoRoute);
        }
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        match token {
            TOKEN_HELLO => {
                self.emit_hello(api);
                let jitter = Duration::from_millis(api.rng().gen_range(0..100));
                api.schedule(
                    self.config.hello_interval - Duration::from_millis(50) + jitter,
                    TOKEN_HELLO,
                );
            }
            TOKEN_TC => {
                self.emit_tc(api);
                let jitter = Duration::from_millis(api.rng().gen_range(0..100));
                api.schedule(
                    self.config.tc_interval - Duration::from_millis(50) + jitter,
                    TOKEN_TC,
                );
            }
            TOKEN_TICK => {
                self.tick(api);
                api.schedule(TICK, TOKEN_TICK);
            }
            _ => {}
        }
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        // Every map is serialized in sorted key order so the stream is
        // independent of HashMap iteration order.
        let mut link_ids: Vec<NodeId> = self.links.keys().copied().collect();
        link_ids.sort_by_key(|n| n.0);
        w.put_usize(link_ids.len());
        for n in link_ids {
            let l = &self.links[&n];
            write_node_id(w, n);
            write_time(w, l.heard_until);
            write_time(w, l.sym_until);
            w.put_usize(l.hello_times.len());
            for &t in &l.hello_times {
                write_time(w, t);
            }
            w.put_f64(l.lqi);
        }

        let mut two_hop: Vec<(NodeId, NodeId)> = self.two_hop.keys().copied().collect();
        two_hop.sort_by_key(|&(a, b)| (a.0, b.0));
        w.put_usize(two_hop.len());
        for key in two_hop {
            write_node_id(w, key.0);
            write_node_id(w, key.1);
            write_time(w, self.two_hop[&key]);
        }

        w.put_usize(self.mprs.len());
        for &n in &self.mprs {
            write_node_id(w, n);
        }

        let mut selectors: Vec<NodeId> = self.mpr_selectors.keys().copied().collect();
        selectors.sort_by_key(|n| n.0);
        w.put_usize(selectors.len());
        for n in selectors {
            write_node_id(w, n);
            write_time(w, self.mpr_selectors[&n]);
        }

        let mut topo: Vec<(NodeId, NodeId)> = self.topology.keys().copied().collect();
        topo.sort_by_key(|&(a, b)| (a.0, b.0));
        w.put_usize(topo.len());
        for key in topo {
            let (lq, exp) = self.topology[&key];
            write_node_id(w, key.0);
            write_node_id(w, key.1);
            w.put_f64(lq);
            write_time(w, exp);
        }

        let mut ansns: Vec<NodeId> = self.origin_ansn.keys().copied().collect();
        ansns.sort_by_key(|n| n.0);
        w.put_usize(ansns.len());
        for n in ansns {
            write_node_id(w, n);
            w.put_u16(self.origin_ansn[&n]);
        }

        let mut seen: Vec<(NodeId, u32)> = self.seen_tc.keys().copied().collect();
        seen.sort_by_key(|&(n, s)| (n.0, s));
        w.put_usize(seen.len());
        for key in seen {
            write_node_id(w, key.0);
            w.put_u32(key.1);
            write_time(w, self.seen_tc[&key]);
        }

        let mut routes: Vec<NodeId> = self.routes.keys().copied().collect();
        routes.sort_by_key(|n| n.0);
        w.put_usize(routes.len());
        for n in routes {
            let (nh, cost) = self.routes[&n];
            write_node_id(w, n);
            write_node_id(w, nh);
            w.put_f64(cost);
        }

        w.put_u32(self.tc_seq);
        w.put_u16(self.ansn);
        w.put_usize(self.last_selector_snapshot.len());
        for &n in &self.last_selector_snapshot {
            write_node_id(w, n);
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.links.clear();
        for _ in 0..r.get_usize()? {
            let n = read_node_id(r)?;
            let heard_until = read_time(r)?;
            let sym_until = read_time(r)?;
            // Each HELLO time is one `u64`.
            let times = r.get_count(8)?;
            let mut hello_times = VecDeque::with_capacity(times);
            for _ in 0..times {
                hello_times.push_back(read_time(r)?);
            }
            let lqi = r.get_f64()?;
            self.links.insert(
                n,
                LinkInfo {
                    heard_until,
                    sym_until,
                    hello_times,
                    lqi,
                },
            );
        }

        self.two_hop.clear();
        for _ in 0..r.get_usize()? {
            let key = (read_node_id(r)?, read_node_id(r)?);
            self.two_hop.insert(key, read_time(r)?);
        }

        self.mprs.clear();
        for _ in 0..r.get_usize()? {
            self.mprs.push(read_node_id(r)?);
        }
        self.mprs.sort_unstable();
        self.mprs.dedup();

        self.mpr_selectors.clear();
        for _ in 0..r.get_usize()? {
            let n = read_node_id(r)?;
            self.mpr_selectors.insert(n, read_time(r)?);
        }

        self.topology.clear();
        for _ in 0..r.get_usize()? {
            let key = (read_node_id(r)?, read_node_id(r)?);
            let lq = r.get_f64()?;
            let exp = read_time(r)?;
            self.topology.insert(key, (lq, exp));
        }

        self.origin_ansn.clear();
        for _ in 0..r.get_usize()? {
            let n = read_node_id(r)?;
            self.origin_ansn.insert(n, r.get_u16()?);
        }

        self.seen_tc.clear();
        for _ in 0..r.get_usize()? {
            let key = (read_node_id(r)?, r.get_u32()?);
            self.seen_tc.insert(key, read_time(r)?);
        }

        self.routes.clear();
        for _ in 0..r.get_usize()? {
            let n = read_node_id(r)?;
            let nh = read_node_id(r)?;
            let cost = r.get_f64()?;
            self.routes.insert(n, (nh, cost));
        }

        self.tc_seq = r.get_u32()?;
        self.ansn = r.get_u16()?;
        self.last_selector_snapshot.clear();
        for _ in 0..r.get_usize()? {
            self.last_selector_snapshot.push(read_node_id(r)?);
        }
        self.memo.invalidate();
        Ok(())
    }

    fn control_codec(&self) -> Option<Box<dyn ControlCodec>> {
        Some(Box::new(OlsrCodec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_line, run_ring};

    #[test]
    fn name() {
        assert_eq!(Olsr::new().name(), "olsr");
    }

    #[test]
    fn decoders_refuse_counts_the_stream_cannot_hold() {
        use crate::testutil::assert_refuses_huge_counts;
        assert_refuses_huge_counts(&[CTRL_HELLO], |r| OlsrCodec.decode(r));
        // A TC up to its selector count: tag, origin, seq, ANSN.
        let mut w = WireWriter::new();
        w.put_u8(CTRL_TC);
        write_node_id(&mut w, NodeId(1));
        w.put_u32(2);
        w.put_u16(3);
        assert_refuses_huge_counts(&w.into_bytes(), |r| OlsrCodec.decode(r));
        // Node state up to one link's HELLO-time count: one link, its
        // address and two expiry times.
        let mut w = WireWriter::new();
        w.put_usize(1);
        write_node_id(&mut w, NodeId(1));
        write_time(&mut w, SimTime::from_secs(1));
        write_time(&mut w, SimTime::from_secs(1));
        assert_refuses_huge_counts(&w.into_bytes(), |r| Olsr::new().restore_state(r));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        crate::testutil::assert_snapshot_round_trip(4, |_| Box::new(Olsr::new()), 8.0, 7);
    }

    #[test]
    fn etx_snapshot_round_trip_is_bit_identical() {
        crate::testutil::assert_snapshot_round_trip(3, |_| Box::new(Olsr::new_etx()), 8.0, 9);
    }

    #[test]
    fn codec_round_trips_every_control_message() {
        let codec = OlsrCodec;
        let blobs: Vec<cavenet_net::ControlBlob> = vec![
            std::sync::Arc::new(Hello {
                entries: vec![
                    HelloEntry {
                        addr: NodeId(1),
                        sym: true,
                        is_mpr: false,
                        lq: 0.875,
                    },
                    HelloEntry {
                        addr: NodeId(2),
                        sym: false,
                        is_mpr: true,
                        lq: 1.0,
                    },
                ],
            }),
            std::sync::Arc::new(Tc {
                origin: NodeId(4),
                seq: 17,
                ansn: 3,
                selectors: vec![(NodeId(1), 0.5), (NodeId(9), 1.0)],
            }),
        ];
        for blob in blobs {
            let mut w = WireWriter::new();
            codec.encode(&blob, &mut w).expect("encode");
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let decoded = codec.decode(&mut r).expect("decode");
            r.finish().expect("whole stream consumed");
            let mut w2 = WireWriter::new();
            codec.encode(&decoded, &mut w2).expect("re-encode");
            assert_eq!(bytes, w2.into_bytes(), "codec round trip not stable");
        }
        let foreign: cavenet_net::ControlBlob = std::sync::Arc::new(1u8);
        assert!(matches!(
            codec.encode(&foreign, &mut WireWriter::new()),
            Err(WireError::Malformed { .. })
        ));
        let mut bad = WireReader::new(&[0x33]);
        assert!(matches!(
            codec.decode(&mut bad),
            Err(WireError::Malformed {
                what: "olsr control tag",
                ..
            })
        ));
    }

    #[test]
    fn single_hop_delivery_after_convergence() {
        // Link sensing takes 2–3 HELLO rounds; packets sent before that are
        // dropped (no buffering in a proactive protocol). Send 30 packets
        // over 6 s so most fall after convergence.
        let (log, _) = run_line(2, 200.0, |_| Box::new(Olsr::new()), 0, 1, 30, 10.0, 1);
        let got = log.borrow().received.len();
        assert!(got >= 20, "OLSR single hop should deliver, got {got}/30");
    }

    #[test]
    fn multi_hop_delivery_via_tc() {
        // 4 hops needs TC dissemination, not just hellos: allow several TC
        // rounds of convergence time.
        let (log, _) = run_line(5, 200.0, |_| Box::new(Olsr::new()), 0, 4, 40, 30.0, 2);
        let got = log.borrow().received.len();
        assert!(got >= 20, "OLSR multi-hop delivery too low: {got}/40");
    }

    #[test]
    fn ring_delivery() {
        let (log, _) = run_ring(30, 3000.0, |_| Box::new(Olsr::new()), 5, 0, 40, 40.0, 3);
        let got = log.borrow().received.len();
        assert!(got >= 10, "OLSR ring delivery too low: {got}/40");
    }

    #[test]
    fn early_packets_lost_before_convergence() {
        // Source starts at 0.5 s — before topology has converged over TC.
        // On a 4-hop chain the very first packets are typically dropped
        // (no route yet): the behaviour the paper's Fig. 9 shows as OLSR's
        // late goodput onset.
        let (log, _) = run_line(5, 200.0, |_| Box::new(Olsr::new()), 0, 4, 10, 20.0, 4);
        let log = log.borrow();
        if let Some(&(first_seq, _)) = log.received.first() {
            assert!(
                first_seq > 0,
                "expected the first packet(s) to be lost pre-convergence"
            );
        }
    }

    #[test]
    fn mpr_set_is_minimal_on_chain() {
        // Behavioural proxy: in a 3-node chain the middle node must relay
        // TCs (it is the only possible MPR), so end nodes learn each other.
        let (log, sim) = run_line(3, 200.0, |_| Box::new(Olsr::new()), 0, 2, 20, 20.0, 5);
        let got = log.borrow().received.len();
        assert!(got >= 10, "chain delivery too low: {got}/20");
        assert!(sim.node_stats(1).data_forwarded >= got as u64);
    }

    #[test]
    fn etx_variant_works() {
        let (log, _) = run_line(3, 200.0, |_| Box::new(Olsr::new_etx()), 0, 2, 30, 25.0, 6);
        let got = log.borrow().received.len();
        assert!(got >= 15, "ETX OLSR should deliver, got {got}/30");
    }

    #[test]
    fn no_route_drops_instead_of_buffering() {
        // Partitioned destination: packets are silently dropped (proactive
        // protocols do not buffer), and never delivered.
        let mobility =
            cavenet_net::StaticMobility::new(vec![(0.0, 0.0), (200.0, 0.0), (5000.0, 0.0)]);
        let (log, _) = crate::testutil::run_with_mobility(
            mobility,
            3,
            |_| Box::new(Olsr::new()),
            0,
            2,
            5,
            15.0,
            7,
        );
        assert_eq!(log.borrow().received.len(), 0);
    }

    #[test]
    fn control_overhead_is_periodic() {
        let (_, sim) = run_line(3, 200.0, |_| Box::new(Olsr::new()), 0, 2, 0, 10.0, 8);
        // ≈10 hellos per node plus TCs from the MPR (middle node).
        let hello_ish = sim.node_stats(0).control_sent;
        assert!((8..=30).contains(&hello_ish), "got {hello_ish}");
        let middle = sim.node_stats(1).control_sent;
        assert!(middle >= hello_ish, "the MPR node also sends TCs");
    }

    #[test]
    fn default_config_matches_table1() {
        let c = OlsrConfig::default();
        assert_eq!(c.hello_interval, Duration::from_secs(1));
        assert_eq!(c.tc_interval, Duration::from_secs(2));
    }

    #[test]
    fn crashed_mpr_is_dropped_and_reelected_after_recovery() {
        // 0-1-2 chain: node 1 is the only possible MPR for both ends. It
        // crashes at 6 s (well after convergence) and recovers at 12 s.
        // Node 0 must age the dead neighbour out within neighb_hold (3 s)
        // and recompute an empty MPR set; after recovery the HELLO
        // exchange must re-elect node 1.
        use cavenet_net::{FaultPlan, ScenarioConfig, Simulator, StaticMobility};

        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .seed(2)
            .mobility(Box::new(StaticMobility::line(3, 200.0)))
            .fault_plan(
                FaultPlan::new()
                    .crash(SimTime::from_secs(6), 1)
                    .recover(SimTime::from_secs(12), 1),
            )
            .routing_with(|_| Box::new(Olsr::new()))
            .build();
        let olsr_of = |sim: &Simulator, node: usize| -> Vec<NodeId> {
            sim.routing(node)
                .expect("routing attached")
                .as_any()
                .expect("OLSR opts into downcasting")
                .downcast_ref::<Olsr>()
                .expect("protocol is OLSR")
                .mpr_set()
        };
        sim.run_until_secs(5.0);
        assert_eq!(
            olsr_of(&sim, 0),
            vec![NodeId(1)],
            "converged chain must elect the middle node"
        );
        sim.run_until_secs(11.0);
        assert!(
            olsr_of(&sim, 0).is_empty(),
            "dead MPR must age out and the set be recomputed"
        );
        assert!(olsr_of(&sim, 2).is_empty());
        sim.run_until_secs(18.0);
        assert_eq!(
            olsr_of(&sim, 0),
            vec![NodeId(1)],
            "recovered node must be re-elected as MPR"
        );
        assert_eq!(olsr_of(&sim, 2), vec![NodeId(1)]);
    }

    #[test]
    fn silent_neighbours_are_pruned_from_the_link_set() {
        // 0-1-2 chain; node 1 crashes at 6 s and stays down. Its last HELLO
        // leaves the LQ window (10 s) after its hold (3 s) has run out, so
        // by 20 s both ends must have dropped it from their link sets.
        use cavenet_net::{FaultPlan, ScenarioConfig, Simulator, StaticMobility};

        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .seed(3)
            .mobility(Box::new(StaticMobility::line(3, 200.0)))
            .fault_plan(FaultPlan::new().crash(SimTime::from_secs(6), 1))
            .routing_with(|_| Box::new(Olsr::new()))
            .build();
        let neighbours = |sim: &Simulator, node: usize| {
            sim.routing(node)
                .expect("routing attached")
                .telemetry()
                .neighbours
        };
        sim.run_until_secs(5.0);
        assert_eq!(neighbours(&sim, 0), 1);
        assert_eq!(neighbours(&sim, 2), 1);
        sim.run_until_secs(20.0);
        assert_eq!(neighbours(&sim, 0), 0, "dead link must be pruned");
        assert_eq!(neighbours(&sim, 2), 0, "dead link must be pruned");
    }

    /// Table-1-sized ring (30 nodes, 100 m apart) whose nodes circle at
    /// 5–17 m/s, so they overtake each other and the link graph keeps
    /// changing.
    struct DriftingRing;

    impl cavenet_net::MobilityModel for DriftingRing {
        fn position(&self, index: usize, t: SimTime) -> (f64, f64) {
            let r = 3000.0 / std::f64::consts::TAU;
            let speed = 5.0 + (index % 7) as f64 * 2.0;
            let theta = index as f64 / 30.0 * std::f64::consts::TAU + speed * t.as_secs_f64() / r;
            (r + r * theta.cos(), r + r * theta.sin())
        }

        fn node_count(&self) -> usize {
            30
        }
    }

    #[test]
    fn skipping_unchanged_inputs_never_changes_delivery() {
        use crate::testutil::{TestSink, TestSource};
        use cavenet_net::{FaultPlan, ScenarioConfig, Simulator};
        use std::cell::RefCell;
        use std::rc::Rc;

        // Every skip is also re-checked against a full recompute by the
        // debug assertions in `recompute_mprs`/`recompute_routes`.
        let run = |make: fn() -> Olsr, never_skip: bool| {
            let log = Rc::new(RefCell::new(crate::testutil::SinkLog::default()));
            let mut sim = Simulator::builder(ScenarioConfig::default())
                .nodes(30)
                .seed(11)
                .mobility(Box::new(DriftingRing))
                .fault_plan(
                    FaultPlan::new()
                        .crash(SimTime::from_secs(8), 2)
                        .recover(SimTime::from_secs(16), 2),
                )
                .routing_with(move |_| {
                    let mut olsr = make();
                    olsr.memo.never_skip = never_skip;
                    Box::new(olsr)
                })
                .app(0, Box::new(TestSource::new(NodeId(4), 100)))
                .app(
                    4,
                    Box::new(TestSink {
                        log: Rc::clone(&log),
                    }),
                )
                .build();
            sim.run_until_secs(25.0);
            let (mut mpr_skips, mut route_skips) = (0, 0);
            for i in 0..30 {
                let olsr = sim
                    .routing(i)
                    .expect("routing attached")
                    .as_any()
                    .expect("OLSR opts into downcasting")
                    .downcast_ref::<Olsr>()
                    .expect("protocol is OLSR");
                mpr_skips += olsr.memo.mpr_skips;
                route_skips += olsr.memo.route_skips;
            }
            let stats: Vec<_> = (0..30).map(|i| sim.node_stats(i)).collect();
            let received = log.borrow().received.clone();
            (received, stats, mpr_skips, route_skips)
        };
        for make in [Olsr::new as fn() -> Olsr, Olsr::new_etx] {
            let (got, stats, mpr_skips, route_skips) = run(make, false);
            let (want, want_stats, no_mpr_skips, no_route_skips) = run(make, true);
            assert_eq!((no_mpr_skips, no_route_skips), (0, 0));
            assert!(mpr_skips > 0, "the MPR skip path was never taken");
            assert!(route_skips > 0, "the route skip path was never taken");
            assert!(!want.is_empty(), "the scenario must deliver something");
            assert_eq!(got, want, "skipping changed delivery");
            assert_eq!(stats, want_stats, "skipping changed per-node counters");
        }
    }

    #[test]
    fn mpr_set_covers_every_strict_two_hop_neighbour() {
        // RFC 3626 §8.3.1: the MPR set of a node must reach every strict
        // two-hop neighbour. Ring of 10 nodes, 2000 m circumference: each
        // node hears exactly its two ring neighbours (200 m arc ≈ 198 m
        // chord < 250 m range; the two-hop chord ≈ 391 m is out of range),
        // so both ring neighbours must be selected as MPRs.
        let (_, sim) = run_ring(10, 2000.0, |_| Box::new(Olsr::new()), 0, 5, 0, 10.0, 4);
        let now = sim.now();
        for i in 0..10 {
            let olsr = sim
                .routing(i)
                .expect("routing attached")
                .as_any()
                .expect("OLSR opts into downcasting")
                .downcast_ref::<Olsr>()
                .expect("protocol is OLSR");
            let neighbours = olsr.symmetric_neighbours(now);
            assert_eq!(neighbours.len(), 2, "node {i}: ring neighbours");
            let mprs = olsr.mpr_set();
            assert!(!mprs.is_empty(), "node {i}: no MPRs despite two-hop nodes");
            // Coverage property: every strict two-hop node is reachable
            // through at least one selected MPR.
            let me = NodeId(i as u32);
            let strict: Vec<NodeId> = olsr
                .two_hop_pairs(now)
                .iter()
                .filter(|(_, t)| *t != me && !neighbours.contains(t))
                .map(|&(_, t)| t)
                .collect();
            assert!(!strict.is_empty(), "node {i}: ring must have two-hop nodes");
            for t in strict {
                let covered = olsr
                    .two_hop_pairs(now)
                    .iter()
                    .any(|&(n, t2)| t2 == t && mprs.contains(&n));
                assert!(covered, "node {i}: two-hop node {} uncovered by MPRs", t.0);
            }
        }
    }
}
