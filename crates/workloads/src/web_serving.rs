//! Million-client web serving under chaos (§6, ROADMAP item 2).
//!
//! [`WebFrontKernel`] is an application kernel that serves a simulated
//! web workload across the multi-node cluster while the fabric
//! underneath it cuts, heals and loses nodes. It is the load generator
//! for `report -- serve`, the serving smoke gate in `scripts/check.sh`
//! and the retry-budget property tests.
//!
//! The generator is deterministic and seed-replayable:
//!
//! * **Arrivals** are open-loop (a Poisson process whose rate scales
//!   with the connected-client count — the only shape that stays
//!   O(requests) at 10^6 clients) or closed-loop (per-client think
//!   times in a heap, for the small grid points where per-client state
//!   is affordable).
//! * **Keys** are Zipf-distributed over a shared key space, striped
//!   across nodes by `key % nodes`. Local keys are served from a
//!   second-chance front cache of `cache_pages` pages (the cache-size
//!   sweep axis) — a hit charges one memory access, a miss charges
//!   `miss_fetch` cycles for the storage-tier fetch; remote keys are
//!   forwarded on [`WEB_CHANNEL`] and the reply completes the request.
//! * **Churn** connects and disconnects a configured fraction of the
//!   clients in periodic waves, modulating the arrival rate.
//!
//! Serving *charges the simulated clock*, so arrival volume must not
//! scale with raw elapsed cycles: a tick whose serves charge more than
//! a clock interval would owe proportionally more arrivals next tick,
//! and at utilization above 1 that feedback diverges geometrically.
//! The generator therefore advances a bounded *generation horizon* by
//! at most `gen_window` cycles of arrival stream per tick; under light
//! load the horizon tracks the clock exactly (honest open loop), under
//! overload arrivals saturate at the horizon rate instead of running
//! away. The admission bound then sheds the overflow — admission
//! control, not clock explosion, is the overload mechanism.
//!
//! The robustness layer on top (all off by default — with every knob
//! at its default the kernel is a plain closed-over generator and no
//! new counter moves):
//!
//! * **Admission control**: at most `max_inflight` requests
//!   outstanding; arrivals beyond the bound are shed and counted.
//! * **Deadlines**: each request carries a [`libkern::Deadline`];
//!   expiry (a reply lost to a cut, an owner across the partition) is
//!   retryable.
//! * **Retry budgets**: sheds and expiries re-enter through the
//!   per-kernel [`libkern::RetryBudget`] token bucket with seeded
//!   backoff jitter — a drained bucket degrades the request to a
//!   counted drop instead of amplifying the storm.
//!
//! Cluster events re-home key ownership exactly like the DSM workload
//! re-homes lines: on a quorum `NodeDown` the dead node's stripe is
//! served by the lowest live node; a `NodeRejoined` restores it.

use cache_kernel::{AppKernel, ClusterEvent, Env, FaultDisposition, ObjId, TrapDisposition};
use hw::{Fault, Packet};
use libkern::{Backoff, Deadline, PageMap, RetryBudget};
use std::collections::{BTreeMap, VecDeque};

/// Fabric channel for front-kernel request forwarding.
pub const WEB_CHANNEL: u32 = 0xffff_0004;

/// Fixed-point scale for the per-peer reply-time EWMA.
const SRTT_SCALE: u64 = 8;

/// Latency histogram buckets (log2 of cycles, saturating).
pub const LAT_BUCKETS: usize = 40;

/// Arrival process shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Open loop: Poisson arrivals at `per_mcycle` requests per million
    /// cycles *per connected client* — aggregate rate scales with the
    /// connected count, cost scales with requests, not clients.
    Open {
        /// Requests per client per million cycles.
        per_mcycle: f64,
    },
    /// Closed loop: each connected client issues, waits for completion
    /// (or drop), thinks for an exponential time with the given mean,
    /// and issues again. Per-client state — small grid points only.
    Closed {
        /// Mean think time in cycles.
        think: u64,
    },
}

/// Configuration for one [`WebFrontKernel`] (one node's front end).
#[derive(Clone, Debug)]
pub struct WebServingConfig {
    /// This node's index.
    pub node: usize,
    /// Configured cluster size.
    pub cluster_nodes: usize,
    /// Simulated clients homed on this node.
    pub clients: u64,
    /// Shared key space size (keys striped `key % cluster_nodes`).
    pub keys: u32,
    /// Zipf skew over the key space (0 = uniform, ~1 = web skew).
    pub zipf_theta: f64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Churn wave period in cycles (0 = no churn).
    pub churn_period: u64,
    /// Fraction of clients disconnected per down-wave, in permille.
    pub churn_permille: u32,
    /// Per-request deadline in cycles (0 = no deadlines).
    pub deadline: u64,
    /// Admission bound on outstanding requests (0 = unbounded).
    pub max_inflight: u32,
    /// Backoff policy for shed/expired retries (jitter via
    /// `jitter_permille`).
    pub retry: Backoff,
    /// Per-kernel retry budget (default disabled = unlimited).
    pub budget: RetryBudget,
    /// Front-cache capacity in pages (cache-size axis).
    pub cache_pages: usize,
    /// Cycles charged for a front-cache miss (storage-tier fetch).
    pub miss_fetch: u64,
    /// Hedge a forwarded request that has waited this many cycles by
    /// duplicating it to a second node (0 = hedging off). Every hedge
    /// spends the retry budget — a drained bucket denies the hedge and
    /// the primary stays the only copy.
    pub hedge_after: u64,
    /// Adaptive hedge delay: when non-zero, the delay is
    /// `max(hedge_after, srtt(primary) * permille / 1000)` so a
    /// measured-fast path hedges at the floor and a measured-slow path
    /// waits proportionally longer (0 = fixed `hedge_after`).
    pub hedge_ewma_permille: u32,
    /// Steer forwards away from suspect-slow owners to the
    /// lowest-latency live peer, probing the owner every 16th request
    /// so it reintegrates gracefully when it recovers.
    pub steer: bool,
    /// Arrival-stream cycles generated per tick, at most — the
    /// feedback bound described in the module docs.
    pub gen_window: u64,
    /// Seed for keys, arrivals and jitter.
    pub seed: u64,
}

impl Default for WebServingConfig {
    fn default() -> Self {
        WebServingConfig {
            node: 0,
            cluster_nodes: 1,
            clients: 1_000,
            keys: 4_096,
            zipf_theta: 0.99,
            arrival: Arrival::Open { per_mcycle: 1.0 },
            churn_period: 0,
            churn_permille: 0,
            deadline: 0,
            max_inflight: 0,
            retry: Backoff::default(),
            budget: RetryBudget::default(),
            cache_pages: 64,
            miss_fetch: 1_500,
            hedge_after: 0,
            hedge_ewma_permille: 0,
            steer: false,
            gen_window: 5_000,
            seed: 1,
        }
    }
}

/// Storage tier behind the front cache: a miss charges
/// `fetch(page)` cycles on top of the memory access. Pluggable so the
/// flat synthetic fetch can be swapped for the database kernel's page
/// I/O cost — an *endogenous* straggler whose slowness comes from the
/// workload itself rather than an injected fault.
pub trait FetchTier: Send {
    /// Cycles one storage-tier fetch of `page` costs.
    fn fetch(&mut self, page: u32) -> u64;
    /// Tier name for reports.
    fn name(&self) -> &str;
}

/// Flat fetch cost — the default tier; behaves byte-identically to the
/// pre-hook `miss_fetch` charge.
pub struct FlatTier(pub u64);

impl FetchTier for FlatTier {
    fn fetch(&mut self, _page: u32) -> u64 {
        self.0
    }
    fn name(&self) -> &str {
        "flat"
    }
}

/// Database-backed fetch: every miss pays the same 250k-cycle page I/O
/// the DB kernel charges (`hw::clock` cost table), so a node serving
/// cold keys becomes a straggler without any injected fault.
pub struct PageIoTier {
    /// Cycles per page I/O (the DB kernel's `page_io` cost).
    pub page_io: u64,
}

impl Default for PageIoTier {
    fn default() -> Self {
        PageIoTier { page_io: 250_000 }
    }
}

impl FetchTier for PageIoTier {
    fn fetch(&mut self, _page: u32) -> u64 {
        self.page_io
    }
    fn name(&self) -> &str {
        "page-io"
    }
}

/// Counters one front kernel accumulates (folded into the global
/// `Counters` registry each tick).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WebStats {
    /// Fresh client arrivals (excludes retry re-admissions). Every
    /// arrival ends in exactly one of: completed, budget-denied,
    /// attempts-exhausted, or still outstanding — the ledger the
    /// tests balance.
    pub arrivals: u64,
    /// Requests admitted past the admission bound (retries re-count).
    pub admitted: u64,
    /// Requests completed (local hit/miss or remote reply).
    pub completed: u64,
    /// Requests shed at the admission bound.
    pub shed: u64,
    /// Deadlines that expired in flight.
    pub expired: u64,
    /// Retries denied by the drained budget — counted drops.
    pub budget_denied: u64,
    /// Requests dropped after exhausting `retry.max_attempts`.
    pub attempts_exhausted: u64,
    /// Local front-cache hits.
    pub local_hits: u64,
    /// Local misses (storage-tier fetches).
    pub local_misses: u64,
    /// Requests forwarded to a remote owner.
    pub forwarded: u64,
    /// Remote requests this node served for peers.
    pub served_remote: u64,
    /// Churn waves processed.
    pub churn_waves: u64,
    /// Requests abandoned because the owner is across a cut and this
    /// side holds no quorum (degraded minority).
    pub degraded_drops: u64,
    /// Send attempts: every entry into admission (fresh or re-admitted
    /// retry) plus every hedge duplicate. The spend ledger the tests
    /// balance: `attempts - arrivals == budget.spent - parked`.
    pub attempts: u64,
    /// Hedge duplicates sent to a second node.
    pub hedges_sent: u64,
    /// Hedges whose duplicate replied first — latency the hedge saved.
    pub hedges_won: u64,
    /// Hedges the primary beat anyway, or that expired — budget spent
    /// for nothing.
    pub hedges_wasted: u64,
    /// Hedges denied by the drained retry budget.
    pub hedges_denied: u64,
    /// Forwards steered off a suspect-slow owner to a faster peer.
    pub steered_away: u64,
}

/// One outstanding request.
#[derive(Clone, Copy, Debug)]
struct Req {
    key: u32,
    /// First arrival time (latency is measured from here across
    /// retries — the client experiences the whole wait).
    arrival: u64,
    deadline: Deadline,
    attempt: u32,
    /// When the current forward left this node (hedge timer base).
    sent_at: u64,
    /// Node the forward went to.
    primary: usize,
    /// 0 = not hedged, 1 = hedge in flight, 2 = will not hedge
    /// (no eligible peer, or the budget denied it).
    hedged: u8,
    /// Where the hedge duplicate went (valid when `hedged == 1`).
    hedge_dst: usize,
}

/// One step of splitmix64 (same mix `hw::FaultRng` uses).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from one splitmix draw (53-bit mantissa).
fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential variate with the given mean, floored at 1 cycle.
fn exp_interval(state: &mut u64, mean: f64) -> u64 {
    let u = unit(state).max(f64::MIN_POSITIVE);
    ((-u.ln() * mean) as u64).max(1)
}

/// Second-chance (CLOCK) page cache for the serving front: bounded,
/// deterministic, O(1) amortized. A hit sets the reference bit; a miss
/// evicts from the hand, skipping referenced pages once.
struct FrontCache {
    cap: usize,
    /// (page, referenced) in slot order.
    slots: Vec<(u32, bool)>,
    index: PageMap<u32, usize>,
    hand: usize,
}

impl FrontCache {
    fn new(cap: usize) -> Self {
        FrontCache {
            cap: cap.max(1),
            slots: Vec::new(),
            index: PageMap::default(),
            hand: 0,
        }
    }

    /// Touch `page`: true on hit; on miss the page is resident after.
    fn touch(&mut self, page: u32) -> bool {
        if let Some(&slot) = self.index.get(&page) {
            self.slots[slot].1 = true;
            return true;
        }
        if self.slots.len() < self.cap {
            self.index.insert(page, self.slots.len());
            self.slots.push((page, false));
            return false;
        }
        loop {
            let (victim, referenced) = self.slots[self.hand];
            if referenced {
                self.slots[self.hand].1 = false;
                self.hand = (self.hand + 1) % self.cap;
                continue;
            }
            self.index.remove(&victim);
            self.index.insert(page, self.hand);
            self.slots[self.hand] = (page, false);
            self.hand = (self.hand + 1) % self.cap;
            return false;
        }
    }
}

/// The serving front kernel. See the module docs.
pub struct WebFrontKernel {
    cfg: WebServingConfig,
    me: ObjId,
    /// Front page cache for this node's serving (hit-rate axis).
    cache: FrontCache,
    /// Storage tier charged on front-cache misses.
    tier: Box<dyn FetchTier>,
    /// Membership mirror from cluster events.
    alive: Vec<bool>,
    /// Suspect-slow advisory mirror (below suspect-dead; reversible).
    slow: Vec<bool>,
    /// Per-peer reply-time EWMA, scaled by [`SRTT_SCALE`] (0 = no
    /// sample yet). Feeds hedge delays and steering.
    srtt: Vec<u64>,
    /// Steering probe counter (every 16th forward tries the owner).
    probe: u64,
    /// Zipf CDF over the key space.
    zipf: crate::Zipf,
    /// Key-draw RNG stream.
    keys_rng: u64,
    /// Arrival-interval RNG stream.
    arrivals_rng: u64,
    /// Retry-jitter RNG stream.
    jitter_rng: u64,
    /// Connected clients right now (churn moves this).
    connected: u64,
    /// Next open-loop arrival time on the arrival stream.
    next_arrival: u64,
    /// How far the arrival stream has been generated (advances by at
    /// most `gen_window` per tick — the feedback bound).
    gen_horizon: u64,
    /// Closed-loop client wakeups: (due cycle, client id).
    thinkers: BTreeMap<(u64, u64), ()>,
    /// Churn waves already processed.
    waves_done: u64,
    /// Closed-loop wakeups to discard (clients a down-wave hung up).
    to_drop: u64,
    /// Outstanding requests in ascending id order: ids are issued
    /// monotonically, so admission appends, and a reply (usually to one
    /// of the oldest) finds its entry by binary search.
    inflight: VecDeque<(u64, Req)>,
    /// Shed/expired requests waiting out their backoff: keyed by
    /// (due cycle, id) so the tick scan pops them in order.
    parked: BTreeMap<(u64, u64), Req>,
    next_id: u64,
    /// Per-kernel retry budget (live state of `cfg.budget`).
    pub budget: RetryBudget,
    /// Serving counters.
    pub stats: WebStats,
    folded: WebStats,
    folded_budget_denied: u64,
    /// Log2-bucketed completion latency histogram (cycles).
    pub latency: [u64; LAT_BUCKETS],
    /// Completions per [`Self::curve_window`]-cycle window, for
    /// throughput and MTTR curves.
    pub curve: Vec<u64>,
    /// Width of one curve window in cycles.
    pub curve_window: u64,
}

impl WebFrontKernel {
    /// Build the kernel (fully initialized; `on_start` only records the
    /// granted identity).
    pub fn new(cfg: WebServingConfig) -> Self {
        let seed = cfg.seed;
        let mut thinkers = BTreeMap::new();
        let mut arrivals_rng = seed ^ 0xa001;
        if let Arrival::Closed { think } = cfg.arrival {
            // Stagger first wakeups across one think time so a run
            // doesn't start with a synchronized thundering herd.
            for c in 0..cfg.clients {
                let due = mix(&mut arrivals_rng) % think.max(1);
                thinkers.insert((due, c), ());
            }
        }
        WebFrontKernel {
            me: ObjId::new(cache_kernel::ObjKind::Kernel, 0, 0),
            cache: FrontCache::new(cfg.cache_pages),
            tier: Box::new(FlatTier(cfg.miss_fetch)),
            alive: vec![true; cfg.cluster_nodes.max(1)],
            slow: vec![false; cfg.cluster_nodes.max(1)],
            srtt: vec![0; cfg.cluster_nodes.max(1)],
            probe: 0,
            zipf: crate::Zipf::new(cfg.keys.max(1), cfg.zipf_theta),
            keys_rng: seed ^ 0xb002,
            arrivals_rng,
            jitter_rng: seed ^ 0xc003,
            connected: cfg.clients,
            next_arrival: 0,
            gen_horizon: 0,
            thinkers,
            waves_done: 0,
            to_drop: 0,
            inflight: VecDeque::new(),
            parked: BTreeMap::new(),
            next_id: 0,
            budget: cfg.budget,
            stats: WebStats::default(),
            folded: WebStats::default(),
            folded_budget_denied: 0,
            latency: [0; LAT_BUCKETS],
            curve: Vec::new(),
            curve_window: 20_000,
            cfg,
        }
    }

    /// The node currently serving `key`: its home stripe, re-homed to
    /// the lowest live node while the home is believed dead — but only
    /// on a quorum side. A degraded minority must not claim stripes it
    /// cannot know the fate of; its requests to dead homes go through
    /// the retry/drop path instead.
    fn owner_of(&self, key: u32) -> usize {
        let home = key as usize % self.cfg.cluster_nodes.max(1);
        if self.alive[home] || !self.majority() {
            home
        } else {
            self.alive.iter().position(|a| *a).unwrap_or(home)
        }
    }

    fn majority(&self) -> bool {
        self.alive.iter().filter(|a| **a).count() * 2 > self.cfg.cluster_nodes
    }

    /// Table page backing a key: identity — every node's table covers
    /// the whole key space so a re-homed stripe is servable in place.
    fn page_of(&self, key: u32) -> u32 {
        key
    }

    /// Draw one Zipf key.
    fn draw_key(&mut self) -> u32 {
        let u = unit(&mut self.keys_rng);
        self.zipf.sample_unit(u)
    }

    /// Fold stat deltas into the global counter registry.
    fn fold_stats(&mut self, env: &mut Env) {
        let s = self.stats;
        let f = self.folded;
        env.ck.stats.requests_admitted += s.admitted - f.admitted;
        env.ck.stats.requests_completed += s.completed - f.completed;
        env.ck.stats.requests_shed += s.shed - f.shed;
        env.ck.stats.deadlines_expired += s.expired - f.expired;
        env.ck.stats.retry_budget_denied += self.budget.denied - self.folded_budget_denied;
        env.ck.stats.hedges_sent += s.hedges_sent - f.hedges_sent;
        env.ck.stats.hedges_won += s.hedges_won - f.hedges_won;
        env.ck.stats.hedges_wasted += s.hedges_wasted - f.hedges_wasted;
        self.folded = s;
        self.folded_budget_denied = self.budget.denied;
    }

    fn complete(&mut self, now: u64, req: Req) {
        self.stats.completed += 1;
        let lat = now.saturating_sub(req.arrival).max(1);
        let bucket = (64 - lat.leading_zeros() as usize).min(LAT_BUCKETS - 1);
        self.latency[bucket] += 1;
        let w = (now / self.curve_window) as usize;
        if self.curve.len() <= w {
            self.curve.resize(w + 1, 0);
        }
        self.curve[w] += 1;
        if let Arrival::Closed { think } = self.cfg.arrival {
            let due = now + exp_interval(&mut self.arrivals_rng, think as f64);
            self.thinkers.insert((due, mix(&mut self.arrivals_rng)), ());
        }
    }

    /// A request failed retryably (shed, expired, owner unreachable):
    /// park it for a jittered backoff if the attempt and budget allow,
    /// else degrade to a counted drop.
    fn maybe_retry(&mut self, now: u64, mut req: Req) {
        if req.attempt + 1 >= self.cfg.retry.max_attempts.max(1) {
            self.stats.attempts_exhausted += 1;
            self.fail_closed_loop(now);
            return;
        }
        if !self.budget.try_spend(now) {
            // Counted in budget.denied; mirror into the fold below.
            self.stats.budget_denied += 1;
            self.fail_closed_loop(now);
            return;
        }
        let base = (self.cfg.deadline / 4).clamp(1, u32::MAX as u64) as u32;
        let wait = self
            .cfg
            .retry
            .wait_for_seeded(req.attempt, base, &mut self.jitter_rng);
        req.attempt += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.parked.insert((now + wait as u64, id), req);
    }

    /// A closed-loop client whose request dropped goes back to
    /// thinking (it will re-issue later); open loop does nothing.
    fn fail_closed_loop(&mut self, now: u64) {
        if let Arrival::Closed { think } = self.cfg.arrival {
            let due = now + exp_interval(&mut self.arrivals_rng, think as f64);
            self.thinkers.insert((due, mix(&mut self.arrivals_rng)), ());
        }
    }

    /// Serve `key` from the front cache, charging the memory access on
    /// a hit or the storage-tier fetch on a miss. Returns the hit bit.
    fn serve_page(&mut self, env: &mut Env, page: u32) -> bool {
        let hit = self.cache.touch(page);
        let cost = env.mpm.config.cost.l2_miss;
        if hit {
            self.stats.local_hits += 1;
            env.mpm.clock.charge(cost);
        } else {
            self.stats.local_misses += 1;
            let fetch = self.tier.fetch(page);
            env.mpm.clock.charge(cost + fetch);
        }
        hit
    }

    /// Swap the storage tier behind the front cache (the default
    /// [`FlatTier`] charges exactly `cfg.miss_fetch`).
    pub fn set_fetch_tier(&mut self, tier: Box<dyn FetchTier>) {
        self.tier = tier;
    }

    /// Smoothed reply time to `node` in cycles (0 = no sample yet).
    pub fn srtt_estimate(&self, node: usize) -> u64 {
        self.srtt.get(node).map_or(0, |&s| s / SRTT_SCALE)
    }

    /// Fold one observed reply time into the peer's EWMA. The gain is
    /// asymmetric — 1/2 on the way up, 1/8 on the way down — so a node
    /// that starts limping is noticed within a sample or two while a
    /// single fast reply does not prematurely reintegrate it.
    fn sample_srtt(&mut self, node: usize, rtt: u64) {
        if node >= self.srtt.len() {
            return;
        }
        let scaled = rtt * SRTT_SCALE;
        let e = &mut self.srtt[node];
        *e = if *e == 0 {
            scaled
        } else if scaled > *e {
            (*e + scaled) / 2
        } else {
            (*e * 7 + scaled) / 8
        };
    }

    /// Lowest-measured-latency live peer excluding this node and
    /// `exclude` (unsampled peers sort first so every peer gets
    /// probed). Skips suspect-slow peers; `None` when no peer
    /// qualifies.
    fn best_peer(&self, exclude: usize) -> Option<usize> {
        (0..self.alive.len())
            .filter(|&n| n != self.cfg.node && n != exclude && self.alive[n] && !self.slow[n])
            .min_by_key(|&n| (self.srtt[n], n))
    }

    /// Whether forwards to `owner` should be steered around it: either
    /// membership has it suspect-slow (the advisory), or its own
    /// service-time EWMA runs more than the hedge trigger ahead of the
    /// best alternative's — the same yardstick for "abnormally late"
    /// that arms a hedge. A constant limp is invisible to gap-based
    /// suspicion (only the *change* in delay widens an ad gap), so the
    /// EWMA test is what keeps a steady straggler steered around.
    /// Requires a sampled alternative; with `hedge_after` at 0 there is
    /// no yardstick and only the advisory steers.
    fn steer_worthy(&self, owner: usize) -> bool {
        if self.slow[owner] {
            return true;
        }
        if self.cfg.hedge_after == 0 {
            return false;
        }
        let o = self.srtt_estimate(owner);
        let b = self
            .best_peer(owner)
            .map_or(0, |alt| self.srtt_estimate(alt));
        o > 0 && b > 0 && o.saturating_sub(b) > self.cfg.hedge_after
    }

    /// Cycles a forward to `primary` waits before being hedged: the
    /// configured floor, stretched by the measured reply time when the
    /// adaptive knob is on — hedge when the wait is abnormal for this
    /// path, not merely when the path is slow.
    fn hedge_delay(&self, primary: usize) -> u64 {
        let base = self.cfg.hedge_after;
        if self.cfg.hedge_ewma_permille == 0 {
            return base;
        }
        let srtt = self.srtt_estimate(primary);
        base.max(srtt * self.cfg.hedge_ewma_permille as u64 / 1000)
    }

    /// Serve `key` locally and complete the request; local serving
    /// always succeeds (the cache admits every page), it only varies in
    /// charged cost.
    fn serve_local(&mut self, env: &mut Env, now: u64, req: Req) {
        let page = self.page_of(req.key);
        self.serve_page(env, page);
        // Latency includes the serve cost just charged.
        self.complete(env.mpm.clock.cycles().max(now), req);
    }

    /// Admit one request: local serve, or forward under the admission
    /// bound. Local serves complete synchronously and never occupy an
    /// outstanding slot, so the bound applies only to forwards — a cut
    /// that pins the inflight table full of dead forwards must not
    /// choke the local stripe.
    fn admit(&mut self, env: &mut Env, now: u64, mut req: Req) {
        // Every admission entry is one send attempt — fresh arrivals
        // enter once for free, every re-entry paid a budget token, and
        // hedge duplicates count where they are sent. That is the
        // ledger: `attempts - arrivals == budget.spent - parked`.
        self.stats.attempts += 1;
        let owner = self.owner_of(req.key);
        if owner == self.cfg.node {
            self.stats.admitted += 1;
            self.serve_local(env, now, req);
            return;
        }
        if !self.alive[owner] {
            // Degraded side of a cut: the owner is unreachable and we
            // hold no quorum to re-home — retry (the heal may land
            // before the budget drains) or drop.
            self.stats.degraded_drops += 1;
            self.maybe_retry(now, req);
            return;
        }
        if self.cfg.max_inflight > 0 && self.inflight.len() >= self.cfg.max_inflight as usize {
            self.stats.shed += 1;
            self.maybe_retry(now, req);
            return;
        }
        // Steering: a slow owner (by advisory or by its service-time
        // EWMA) is sidestepped to the fastest live peer (every node's
        // table covers the key space, so any peer can serve it via the
        // unchecked hedge frame). Every 32nd steer-worthy forward still
        // probes the owner so its EWMA keeps tracking and it
        // reintegrates the moment it speeds back up.
        let mut dst = owner;
        if self.cfg.steer && self.steer_worthy(owner) {
            self.probe += 1;
            if !self.probe.is_multiple_of(32) {
                if let Some(alt) = self.best_peer(owner) {
                    dst = alt;
                    self.stats.steered_away += 1;
                }
            }
        }
        self.stats.admitted += 1;
        self.stats.forwarded += 1;
        req.sent_at = now;
        req.primary = dst;
        req.hedged = 0;
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.push_back((id, req));
        let data = if dst == owner {
            encode_request(id, req.key)
        } else {
            encode_hedge(id, req.key)
        };
        env.outbox.push(Packet {
            src: self.cfg.node,
            dst,
            channel: WEB_CHANNEL,
            data,
        });
    }

    /// Fresh request for `key` arriving at `t`.
    fn fresh(&mut self, t: u64, key: u32) -> Req {
        self.stats.arrivals += 1;
        let deadline = if self.cfg.deadline > 0 {
            Deadline::after(t, self.cfg.deadline)
        } else {
            Deadline::NONE
        };
        Req {
            key,
            arrival: t,
            deadline,
            attempt: 0,
            sent_at: t,
            primary: self.cfg.node,
            hedged: 0,
            hedge_dst: self.cfg.node,
        }
    }

    /// Process churn waves and due arrivals up to `now`.
    fn generate(&mut self, env: &mut Env, now: u64) {
        if self.cfg.churn_period > 0 && self.cfg.churn_permille > 0 {
            let wave = now / self.cfg.churn_period;
            while self.waves_done < wave {
                self.waves_done += 1;
                self.stats.churn_waves += 1;
                let gone = self.cfg.clients * self.cfg.churn_permille as u64 / 1000;
                // Odd waves disconnect the tail fraction, even waves
                // reconnect it.
                if self.waves_done % 2 == 1 {
                    self.connected = self.cfg.clients - gone;
                    // Closed loop: the next `gone` wakeups evaporate
                    // (those clients hung up mid-think).
                    self.to_drop += gone;
                } else {
                    self.connected = self.cfg.clients;
                    // Closed loop: the returnees dial back in with
                    // fresh think times, minus any still-pending drops
                    // from the down-wave they cancel out.
                    if let Arrival::Closed { think } = self.cfg.arrival {
                        // An unconsumed drop means that client's wakeup
                        // is still in the heap: cancel instead of
                        // double-inserting.
                        let cancel = self.to_drop.min(gone);
                        self.to_drop -= cancel;
                        for _ in 0..gone - cancel {
                            let due = now + exp_interval(&mut self.arrivals_rng, think as f64);
                            self.thinkers.insert((due, mix(&mut self.arrivals_rng)), ());
                        }
                    } else {
                        self.to_drop = 0;
                    }
                }
            }
        }
        match self.cfg.arrival {
            Arrival::Open { per_mcycle } => {
                // Advance the horizon by at most one generation window:
                // serving charges below can't owe this loop more
                // arrivals next tick (see the module docs).
                self.gen_horizon = self
                    .gen_horizon
                    .saturating_add(self.cfg.gen_window.max(1))
                    .min(now);
                let rate = self.connected as f64 * per_mcycle / 1_000_000.0;
                if rate <= 0.0 {
                    self.next_arrival = self.gen_horizon + 1;
                    return;
                }
                let mean = 1.0 / rate;
                while self.next_arrival <= self.gen_horizon {
                    let t = self.next_arrival;
                    let key = self.draw_key();
                    // Requests are stamped with the tick's clock so
                    // deadlines and latency live on the real time axis
                    // even when the stream horizon lags under overload.
                    let req = self.fresh(now, key);
                    self.admit(env, now, req);
                    self.next_arrival = t + exp_interval(&mut self.arrivals_rng, mean);
                }
            }
            Arrival::Closed { .. } => {
                // Issue for every client whose think time elapsed,
                // eating pending churn drops first.
                while let Some((&(due, c), ())) = self.thinkers.iter().next() {
                    if due > now {
                        break;
                    }
                    self.thinkers.remove(&(due, c));
                    if self.to_drop > 0 {
                        self.to_drop -= 1;
                        continue;
                    }
                    let key = self.draw_key();
                    let req = self.fresh(due, key);
                    self.admit(env, now, req);
                }
            }
        }
    }

    /// Expire overdue requests, fire due hedges, re-admit parked
    /// retries.
    fn pump_timers(&mut self, env: &mut Env, now: u64) {
        if self.cfg.deadline > 0 {
            let expired: Vec<Req> = self
                .inflight
                .iter()
                .filter(|(_, r)| r.deadline.expired(now))
                .map(|&(_, r)| r)
                .collect();
            self.inflight.retain(|(_, r)| !r.deadline.expired(now));
            for req in expired {
                self.stats.expired += 1;
                if req.hedged == 1 {
                    // Neither copy answered in time: the hedge token
                    // bought nothing.
                    self.stats.hedges_wasted += 1;
                }
                self.maybe_retry(now, req);
            }
        }
        self.pump_hedges(env, now);
        while let Some((&(due, id), _)) = self.parked.iter().next() {
            if due > now {
                break;
            }
            if let Some(mut req) = self.parked.remove(&(due, id)) {
                if self.cfg.deadline > 0 {
                    req.deadline = Deadline::after(now, self.cfg.deadline);
                }
                self.admit(env, now, req);
            }
        }
    }

    /// Duplicate every un-hedged forward that has out-waited its
    /// adaptive hedge delay to a second node. First reply wins; the
    /// loser's reply arrives to a dead id and is dropped. Each hedge
    /// spends one retry-budget token — a drained bucket denies it and
    /// the request keeps waiting on the primary alone.
    fn pump_hedges(&mut self, env: &mut Env, now: u64) {
        if self.cfg.hedge_after == 0 {
            return;
        }
        // Each step reads and writes only its own entry, so one pass in
        // id order decides exactly what a snapshot of the due set would.
        for i in 0..self.inflight.len() {
            let (id, req) = self.inflight[i];
            if req.hedged != 0 || now.saturating_sub(req.sent_at) < self.hedge_delay(req.primary) {
                continue;
            }
            let Some(dst) = self.best_peer(req.primary) else {
                // Nowhere to hedge to (two-node cluster, or every peer
                // suspect): stop rescanning this request.
                self.inflight[i].1.hedged = 2;
                continue;
            };
            if !self.budget.try_spend(now) {
                self.stats.hedges_denied += 1;
                self.inflight[i].1.hedged = 2;
                continue;
            }
            self.stats.attempts += 1;
            self.stats.hedges_sent += 1;
            let r = &mut self.inflight[i].1;
            r.hedged = 1;
            r.hedge_dst = dst;
            env.outbox.push(Packet {
                src: self.cfg.node,
                dst,
                channel: WEB_CHANNEL,
                data: encode_hedge(id, req.key),
            });
        }
    }

    /// Total requests dropped (all causes).
    pub fn dropped(&self) -> u64 {
        self.stats.budget_denied + self.stats.attempts_exhausted
    }

    /// Requests still outstanding: (inflight, parked for retry).
    pub fn outstanding(&self) -> (usize, usize) {
        (self.inflight.len(), self.parked.len())
    }
}

/// Request frame: `[0, id:8, key:4]`.
fn encode_request(id: u64, key: u32) -> Vec<u8> {
    let mut d = Vec::with_capacity(13);
    d.push(0u8);
    d.extend_from_slice(&id.to_le_bytes());
    d.extend_from_slice(&key.to_le_bytes());
    d
}

/// Reply frame: `[1, id:8, hit:1]`.
fn encode_reply(id: u64, hit: bool) -> Vec<u8> {
    let mut d = Vec::with_capacity(10);
    d.push(1u8);
    d.extend_from_slice(&id.to_le_bytes());
    d.push(hit as u8);
    d
}

/// Hedge frame: `[2, id:8, key:4]` — served by any node without the
/// owner check (every node's table covers the key space), so a
/// duplicate or a steered forward lands wherever it is sent.
fn encode_hedge(id: u64, key: u32) -> Vec<u8> {
    let mut d = Vec::with_capacity(13);
    d.push(2u8);
    d.extend_from_slice(&id.to_le_bytes());
    d.extend_from_slice(&key.to_le_bytes());
    d
}

/// Decoded web frame.
enum Frame {
    Request { id: u64, key: u32 },
    Reply { id: u64 },
    Hedge { id: u64, key: u32 },
}

fn decode(data: &[u8]) -> Option<Frame> {
    let (&tag, rest) = data.split_first()?;
    let id = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
    match tag {
        0 => Some(Frame::Request {
            id,
            key: u32::from_le_bytes(rest.get(8..12)?.try_into().ok()?),
        }),
        1 => Some(Frame::Reply { id }),
        2 => Some(Frame::Hedge {
            id,
            key: u32::from_le_bytes(rest.get(8..12)?.try_into().ok()?),
        }),
        _ => None,
    }
}

impl AppKernel for WebFrontKernel {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, _env: &mut Env, id: ObjId) {
        self.me = id;
    }

    fn on_page_fault(&mut self, _env: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
        FaultDisposition::Kill
    }

    fn on_trap(&mut self, _env: &mut Env, _t: ObjId, no: u32, _a: [u32; 4]) -> TrapDisposition {
        TrapDisposition::Return(no)
    }

    fn on_tick(&mut self, env: &mut Env) {
        let now = env.mpm.clock.cycles();
        self.pump_timers(env, now);
        self.generate(env, now);
        self.fold_stats(env);
    }

    fn on_packet(&mut self, env: &mut Env, src: usize, channel: u32, data: &[u8]) {
        if channel != WEB_CHANNEL {
            return;
        }
        let now = env.mpm.clock.cycles();
        match decode(data) {
            // Serve a peer's forwarded request if this node is the
            // current owner of the key; a mis-routed request (the stripe
            // moved under the sender) is dropped and the sender's
            // deadline path re-drives it to the new owner.
            Some(Frame::Request { key, .. }) if self.owner_of(key) != self.cfg.node => return,
            // A hedge duplicate (or steered forward) is served
            // unconditionally — ownership does not gate it, the sender
            // already decided where the work should land.
            Some(Frame::Request { id, key } | Frame::Hedge { id, key }) => {
                let page = self.page_of(key);
                let hit = self.serve_page(env, page);
                self.stats.served_remote += 1;
                env.outbox.push(Packet {
                    src: self.cfg.node,
                    dst: src,
                    channel: WEB_CHANNEL,
                    data: encode_reply(id, hit),
                });
            }
            Some(Frame::Reply { id }) => {
                let at = self.inflight.binary_search_by_key(&id, |&(id, _)| id);
                if let Some((_, req)) = at.ok().and_then(|i| self.inflight.remove(i)) {
                    // First reply wins; the loser's reply finds the id
                    // gone and is dropped right here. Only the primary
                    // path samples the EWMA — the hedge left later than
                    // `sent_at`, so its wait would be overstated.
                    if src == req.primary {
                        self.sample_srtt(src, now.saturating_sub(req.sent_at).max(1));
                    }
                    if req.hedged == 1 {
                        if src == req.hedge_dst {
                            self.stats.hedges_won += 1;
                        } else {
                            self.stats.hedges_wasted += 1;
                        }
                    }
                    self.complete(now, req);
                }
            }
            None => {
                env.ck.stats.frames_rejected += 1;
            }
        }
        self.fold_stats(env);
    }

    fn on_cluster_event(&mut self, env: &mut Env, ev: ClusterEvent) {
        match ev {
            ClusterEvent::NodeDown { node, quorum, .. } => {
                if node < self.alive.len() {
                    self.alive[node] = false;
                    // Dead supersedes slow.
                    self.slow[node] = false;
                }
                // Quorum side: the dead stripe re-homes implicitly via
                // `owner_of`. Minority side: requests to unreachable
                // owners go through the degraded path.
                let _ = quorum;
            }
            ClusterEvent::NodeRejoined { node, .. } => {
                if node < self.alive.len() {
                    self.alive[node] = true;
                    self.slow[node] = false;
                    // Stale latency history must not keep steering
                    // traffic off a recovered node.
                    self.srtt[node] = 0;
                }
            }
            ClusterEvent::NodeSlow { node, slow } => {
                // Advisory from membership: steer (if enabled) but do
                // not re-home — the straggler still owns its stripe.
                if node < self.slow.len() {
                    self.slow[node] = slow;
                }
            }
            ClusterEvent::EpochChanged { .. } => {}
        }
        self.fold_stats(env);
    }

    fn name(&self) -> &str {
        "web-front"
    }
}

/// Latency percentile from a log2-bucketed histogram: the upper edge
/// of the bucket containing the `p`-th percentile completion (cycles).
pub fn latency_percentile(hist: &[u64; LAT_BUCKETS], p: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = (total as f64 * p.clamp(0.0, 1.0)).ceil() as u64;
    let mut seen = 0u64;
    for (b, &n) in hist.iter().enumerate() {
        seen += n;
        if seen >= target {
            return 1u64 << b;
        }
    }
    1u64 << (LAT_BUCKETS - 1)
}

/// Mean time to recover from a fault, in cycles: the time from
/// `fault_at` until windowed throughput first returns to at least
/// `threshold` (per-mille) of the pre-fault mean, measured on a
/// completions-per-window `curve`. `None` when it never recovers
/// within the curve.
pub fn mttr(curve: &[u64], window: u64, fault_at: u64, threshold_permille: u32) -> Option<u64> {
    let fw = (fault_at / window.max(1)) as usize;
    if fw == 0 || fw >= curve.len() {
        return None;
    }
    let pre: u64 = curve[..fw].iter().sum::<u64>() / fw as u64;
    if pre == 0 {
        return None;
    }
    let floor = pre * threshold_permille as u64 / 1000;
    for (w, &n) in curve.iter().enumerate().skip(fw + 1) {
        if n >= floor {
            return Some((w as u64 - fw as u64) * window);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let build = |seed| {
            let mut k = WebFrontKernel::new(WebServingConfig {
                seed,
                ..WebServingConfig::default()
            });
            (0..1000).map(|_| k.draw_key()).collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn zipf_keys_are_skewed() {
        let mut k = WebFrontKernel::new(WebServingConfig::default());
        let keys: Vec<u32> = (0..10_000).map(|_| k.draw_key()).collect();
        assert!(keys.iter().all(|&x| x < 4096));
        let head = keys.iter().filter(|&&x| x < 410).count();
        assert!(head > 5_000, "zipf head share, got {head}");
    }

    #[test]
    fn exponential_intervals_have_roughly_the_right_mean() {
        let mut s = 42u64;
        let n = 10_000;
        let total: u64 = (0..n).map(|_| exp_interval(&mut s, 500.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((400.0..600.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn ownership_stripes_and_rehomes() {
        let mut k = WebFrontKernel::new(WebServingConfig {
            node: 0,
            cluster_nodes: 3,
            ..WebServingConfig::default()
        });
        assert_eq!(k.owner_of(4), 1);
        k.alive[1] = false;
        assert_eq!(k.owner_of(4), 0, "dead stripe re-homes to lowest live");
        k.alive[1] = true;
        assert_eq!(k.owner_of(4), 1, "rejoin restores the stripe");
    }

    #[test]
    fn frames_round_trip_and_reject_garbage() {
        let r = encode_request(77, 1234);
        assert!(matches!(
            decode(&r),
            Some(Frame::Request { id: 77, key: 1234 })
        ));
        let p = encode_reply(78, true);
        assert!(matches!(decode(&p), Some(Frame::Reply { id: 78 })));
        let h = encode_hedge(79, 4321);
        assert!(matches!(
            decode(&h),
            Some(Frame::Hedge { id: 79, key: 4321 })
        ));
        assert!(decode(&[]).is_none());
        assert!(decode(&[9, 0, 0]).is_none());
    }

    #[test]
    fn best_peer_prefers_fast_and_skips_slow_and_dead() {
        let mut k = WebFrontKernel::new(WebServingConfig {
            node: 0,
            cluster_nodes: 4,
            ..WebServingConfig::default()
        });
        // Unsampled peers sort first (srtt 0), lowest index wins.
        assert_eq!(k.best_peer(usize::MAX), Some(1));
        for n in 1..4 {
            k.sample_srtt(n, 100 * n as u64);
        }
        assert_eq!(k.best_peer(usize::MAX), Some(1), "fastest sampled peer");
        assert_eq!(k.best_peer(1), Some(2), "exclusion respected");
        k.slow[1] = true;
        assert_eq!(k.best_peer(usize::MAX), Some(2), "suspect-slow skipped");
        k.alive[2] = false;
        assert_eq!(k.best_peer(usize::MAX), Some(3), "dead skipped");
        k.slow[3] = true;
        assert_eq!(k.best_peer(usize::MAX), None, "no eligible peer");
    }

    #[test]
    fn hedge_delay_is_floored_and_stretches_with_srtt() {
        let mut k = WebFrontKernel::new(WebServingConfig {
            node: 0,
            cluster_nodes: 2,
            hedge_after: 1_000,
            hedge_ewma_permille: 2_000,
            ..WebServingConfig::default()
        });
        assert_eq!(
            k.hedge_delay(1),
            1_000,
            "unsampled path hedges at the floor"
        );
        for _ in 0..32 {
            k.sample_srtt(1, 5_000);
        }
        assert_eq!(k.srtt_estimate(1), 5_000);
        assert_eq!(k.hedge_delay(1), 10_000, "2x the measured reply time");
        let fixed = WebFrontKernel::new(WebServingConfig {
            hedge_after: 700,
            hedge_ewma_permille: 0,
            ..WebServingConfig::default()
        });
        assert_eq!(fixed.hedge_delay(1), 700, "ewma knob off = fixed delay");
    }

    #[test]
    fn srtt_ewma_converges_and_rejoin_resets_it() {
        let mut k = WebFrontKernel::new(WebServingConfig {
            node: 0,
            cluster_nodes: 2,
            ..WebServingConfig::default()
        });
        assert_eq!(k.srtt_estimate(1), 0);
        k.sample_srtt(1, 800);
        assert_eq!(k.srtt_estimate(1), 800, "first sample seeds the estimate");
        for _ in 0..64 {
            k.sample_srtt(1, 100);
        }
        let settled = k.srtt_estimate(1);
        assert!(settled <= 110, "converges toward the new level: {settled}");
        // Asymmetric gain: one limping reply moves the estimate
        // halfway up immediately — far faster than the 1/8 descent.
        k.sample_srtt(1, 10 * settled);
        assert!(
            k.srtt_estimate(1) >= 5 * settled,
            "a slow reply must register fast: {}",
            k.srtt_estimate(1)
        );
        k.slow[1] = true;
        k.srtt[1] = 0; // what NodeRejoined does
        assert_eq!(k.srtt_estimate(1), 0);
    }

    #[test]
    fn steer_gate_fires_on_advisory_or_ewma_gap() {
        let mut k = WebFrontKernel::new(WebServingConfig {
            node: 0,
            cluster_nodes: 3,
            hedge_after: 1_000,
            steer: true,
            ..WebServingConfig::default()
        });
        assert!(!k.steer_worthy(1), "no samples, no advisory: no steering");
        k.sample_srtt(1, 5_000);
        assert!(
            !k.steer_worthy(1),
            "an unsampled alternative is no alternative"
        );
        k.sample_srtt(2, 500);
        assert!(k.steer_worthy(1), "EWMA gap over the hedge trigger steers");
        assert!(!k.steer_worthy(2), "the fast peer itself is not steered");
        // The advisory steers regardless of samples.
        let mut adv = WebFrontKernel::new(WebServingConfig {
            node: 0,
            cluster_nodes: 3,
            steer: true,
            ..WebServingConfig::default()
        });
        adv.slow[1] = true;
        assert!(adv.steer_worthy(1));
        assert!(
            !adv.steer_worthy(2),
            "hedge_after 0 leaves only the advisory"
        );
    }

    /// The id-ordered request table against a `BTreeMap` replay: a
    /// hedged first batch and an unhedged second batch, replies in
    /// reverse and then random order (duplicates and unknown ids
    /// included), then a non-prefix set of deadlines expiring. The
    /// table keeps every surviving entry's hedge state, `outstanding()`
    /// tracks the replay, and expiries re-enter in id order.
    #[test]
    fn request_table_replays_a_btreemap() {
        let mut ck = cache_kernel::CacheKernel::new(cache_kernel::CkConfig::default());
        let mut mpm = hw::Mpm::new(hw::MachineConfig {
            phys_frames: 256,
            ..hw::MachineConfig::default()
        });
        let mut code = cache_kernel::CodeStore::new();
        let mut outbox = Vec::new();
        let mut env = Env {
            ck: &mut ck,
            mpm: &mut mpm,
            code: &mut code,
            cpu: 0,
            node: 0,
            outbox: &mut outbox,
        };
        let mut k = WebFrontKernel::new(WebServingConfig {
            node: 0,
            cluster_nodes: 3,
            deadline: 500,
            hedge_after: 1_000,
            ..WebServingConfig::default()
        });
        let mut rng = 27u64;
        let mut replay: BTreeMap<u64, Req> = BTreeMap::new();
        let keys = (1..).filter(|key| key % 3 != 0);
        for (n, key) in keys.take(40).enumerate() {
            // First batch at 0 (hedged at 1 000), second batch at 1 000.
            let now = if n < 20 { 0 } else { 1_000 };
            if n == 20 {
                k.pump_hedges(&mut env, now);
                for (&id, r) in replay.iter_mut() {
                    let &(_, got) = k.inflight.iter().find(|e| e.0 == id).unwrap();
                    assert_eq!((got.hedged, got.hedge_dst), (1, 3 - r.primary));
                    *r = got;
                }
            }
            let mut req = k.fresh(now, key);
            req.deadline = Deadline::after(1_500, mix(&mut rng) % 500);
            let id = k.next_id;
            k.admit(&mut env, now, req);
            let &(got_id, got) = k.inflight.back().unwrap();
            assert_eq!((got_id, got.key, got.primary), (id, key, key as usize % 3));
            replay.insert(id, got);
        }
        let check = |k: &WebFrontKernel, replay: &BTreeMap<u64, Req>| {
            assert_eq!(k.outstanding().0, replay.len());
            let got = k
                .inflight
                .iter()
                .map(|&(id, r)| (id, r.key, r.hedged, r.hedge_dst));
            let want = replay
                .iter()
                .map(|(&id, r)| (id, r.key, r.hedged, r.hedge_dst));
            assert!(got.eq(want), "the table diverged from the replay");
        };
        let reply = |k: &mut WebFrontKernel, env: &mut Env, src: usize, id: u64| {
            k.on_packet(env, src, WEB_CHANNEL, &encode_reply(id, true));
        };
        // Replies: the newest six in reverse order, then ten at random
        // (from the hedge or the primary), then a loser's duplicate and
        // an id never issued.
        let ids: Vec<u64> = replay.keys().copied().collect();
        for &id in ids.iter().rev().take(6) {
            reply(&mut k, &mut env, replay[&id].primary, id);
            replay.remove(&id);
            check(&k, &replay);
        }
        for _ in 0..10 {
            let ids: Vec<u64> = replay.keys().copied().collect();
            let id = ids[mix(&mut rng) as usize % ids.len()];
            let r = replay.remove(&id).unwrap();
            let src = if r.hedged == 1 && mix(&mut rng).is_multiple_of(2) {
                r.hedge_dst
            } else {
                r.primary
            };
            reply(&mut k, &mut env, src, id);
            check(&k, &replay);
            reply(&mut k, &mut env, 3 - src, id);
            check(&k, &replay);
        }
        reply(&mut k, &mut env, 1, 10_000);
        check(&k, &replay);
        // Expire at the median deadline: a set that is not a prefix.
        let mut deadlines: Vec<u64> = replay.values().map(|r| r.deadline.at).collect();
        deadlines.sort_unstable();
        let t = deadlines[deadlines.len() / 2];
        let expired: Vec<u32> = replay
            .values()
            .filter(|r| r.deadline.expired(t))
            .map(|r| r.key)
            .collect();
        let first_live = replay.values().position(|r| !r.deadline.expired(t));
        let last_dead = replay.values().rposition(|r| r.deadline.expired(t));
        assert!(
            matches!((first_live, last_dead), (Some(a), Some(b)) if a < b),
            "the expiring set is a prefix"
        );
        k.pump_timers(&mut env, t);
        replay.retain(|_, r| !r.deadline.expired(t));
        check(&k, &replay);
        assert_eq!(k.stats.expired, expired.len() as u64);
        let mut parked: Vec<(u64, u32)> =
            k.parked.iter().map(|(&(_, id), r)| (id, r.key)).collect();
        parked.sort_unstable();
        let order: Vec<u32> = parked.iter().map(|&(_, key)| key).collect();
        assert_eq!(order, expired, "expiries re-enter in id order");
        assert_eq!(k.outstanding(), (replay.len(), expired.len()));
    }

    #[test]
    fn fetch_tiers_report_their_costs() {
        let mut flat = FlatTier(1_500);
        assert_eq!(flat.fetch(7), 1_500);
        assert_eq!(flat.name(), "flat");
        let mut db = PageIoTier::default();
        assert_eq!(db.fetch(7), 250_000, "matches the DB kernel page_io cost");
        assert_eq!(db.name(), "page-io");
    }

    #[test]
    fn percentile_and_mttr_math() {
        let mut hist = [0u64; LAT_BUCKETS];
        hist[4] = 90; // 16 cycles
        hist[10] = 10; // 1024 cycles
        assert_eq!(latency_percentile(&hist, 0.50), 16);
        assert_eq!(latency_percentile(&hist, 0.99), 1024);
        assert_eq!(latency_percentile(&[0; LAT_BUCKETS], 0.5), 0);

        // Throughput 10/window, dips to 0 for 3 windows after the
        // fault at window 5, recovers to 9 at window 8.
        let curve = [10, 10, 10, 10, 10, 2, 0, 0, 9, 10];
        assert_eq!(mttr(&curve, 1000, 5_000, 800), Some(3_000));
        assert_eq!(mttr(&curve[..8], 1000, 5_000, 800), None, "never recovers");
    }
}
