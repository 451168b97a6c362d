//! The seven workloads. Each `rep` builds its inputs from the seed,
//! runs a fixed amount of work with the clock running, checks the
//! outputs, and returns what it measured. Work is fixed per rep (op
//! counts, not durations), so every sim-clock number and every counter
//! repeats exactly for a given seed.

pub mod ck_thrash;
pub mod db_oltp;
pub mod mill;
pub mod msg_mix;
pub mod serve;

use crate::trace::{Off, Probe, Tracer};
use cache_kernel::Counters;
use hw::{FaultRng, Mpm};
use std::time::Instant;
use workloads::Zipf;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 7] = [
    ("mill_1s", "job mill on one lockstep shard: cache-kernel emit/pump/dispatch/fault path and hw translate do the work; no rings, no replacement"),
    ("mill_2t", "the same mill on two free-running shard threads: adds hw rings, cross-shard shootdown rounds and idle steal on exactly nproc threads"),
    ("serve_quiet", "open-loop web serving on a 2-node cluster with retries and membership armed but idle: the fault-free serving path, bypass for serve_cuts"),
    ("serve_cuts", "serve_quiet under a seeded partition schedule: retry-budget drain, deadline expiry, membership epochs and fabric blocking do the work"),
    ("ck_thrash", "closed-loop app kernel on a bare Cache Kernel, working set 1.25x the descriptor pools: reclaim, physmap and the writeback queue dominate"),
    ("db_oltp", "closed-loop database kernel with its own buffer pool and scan-resistant policy: the application-managed cache, not the kernel's"),
    ("msg_mix", "closed-loop signal storms (eager and batched) and channel round trips (copy and remap, 16 B and 3900 B): messaging only, no executive"),
];

/// What one rep measured.
pub struct Rep {
    /// Host ns to build the workload: boot, job/cluster build, input
    /// generation. Not part of `wall_ns`.
    pub setup_ns: u64,
    /// Host ns of the timed region.
    pub wall_ns: u64,
    /// Ops attempted (jobs, arrivals, calls, touches, rounds).
    pub attempted: u64,
    /// Ops that completed correctly.
    pub ok: u64,
    /// Ops that completed within the latency limit; equals `ok` where
    /// the workload has no limit.
    pub within_slo: u64,
    /// Sim cycles the timed region consumed.
    pub sim_cycles: u64,
    /// Host ns per op of each equal-work chunk of the timed region.
    pub chunk_ns_per_op: Vec<f64>,
    /// Counters that must repeat exactly for one seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Count-derived per-layer metrics, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

/// Whether a workload's `sim_cycles` is a function of the seed alone
/// (free-running shard threads make it scheduling-dependent).
pub fn sim_is_exact(workload: &str) -> bool {
    workload != "mill_2t"
}

pub type RepResult = Result<Rep, String>;

/// Run one rep of `workload`, traced when a tracer is given.
pub fn run(workload: &str, seed: u64, tracer: Option<&mut Tracer>) -> RepResult {
    fn go<P: Probe>(workload: &str, seed: u64, p: &mut P) -> RepResult {
        match workload {
            "mill_1s" => mill::rep(&mill::MILL_1S, seed, p),
            "mill_2t" => mill::rep(&mill::MILL_2T, seed, p),
            "serve_quiet" => serve::rep(false, seed, p),
            "serve_cuts" => serve::rep(true, seed, p),
            "ck_thrash" => ck_thrash::rep(seed, p),
            "db_oltp" => db_oltp::rep(seed, p),
            "msg_mix" => msg_mix::rep(seed, p),
            other => Err(format!("unknown workload {other}")),
        }
    }
    match tracer {
        Some(t) => go(workload, seed, t),
        None => go(workload, seed, &mut Off),
    }
}

/// `0..n` in a seeded order (Fisher-Yates).
pub(crate) fn shuffled(rng: &mut FaultRng, n: u32) -> Vec<u32> {
    let mut items: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
    items
}

/// Zipf-popular items whose popularity ranks are scattered over the
/// index space by a seeded permutation.
pub(crate) struct ScatteredZipf {
    zipf: Zipf,
    item_of_rank: Vec<u32>,
}

impl ScatteredZipf {
    pub fn new(rng: &mut FaultRng, n: u32, theta: f64) -> Self {
        ScatteredZipf {
            zipf: Zipf::new(n, theta),
            item_of_rank: shuffled(rng, n),
        }
    }

    pub fn draw(&self, rng: &mut FaultRng) -> u32 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.item_of_rank[self.zipf.sample_unit(unit) as usize]
    }
}

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub(crate) fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Times equal-work chunks of a timed region, for the stall detector.
pub(crate) struct Chunks {
    last: Instant,
    ns_per_op: Vec<f64>,
}

impl Chunks {
    pub fn start() -> Self {
        Chunks {
            last: Instant::now(),
            ns_per_op: Vec::with_capacity(512),
        }
    }

    /// Close the current chunk, which completed `ops` ops.
    pub fn close(&mut self, ops: u64) {
        let now = Instant::now();
        if ops > 0 {
            self.ns_per_op
                .push((now - self.last).as_nanos() as f64 / ops as f64);
        }
        self.last = now;
    }

    pub fn finish(self) -> Vec<f64> {
        self.ns_per_op
    }
}

/// Hardware-cache miss ratios summed over the machines a workload ran.
pub(crate) fn hw_cache_metrics<'a>(
    mpms: impl Iterator<Item = &'a Mpm>,
) -> Vec<(&'static str, f64)> {
    let (mut tlb, mut l2, mut rtlb) = ((0, 0), (0, 0), (0, 0));
    for m in mpms {
        for c in &m.cpus {
            tlb = (tlb.0 + c.tlb.stats.misses, tlb.1 + c.tlb.stats.hits);
            rtlb = (rtlb.0 + c.rtlb.stats.misses, rtlb.1 + c.rtlb.stats.hits);
        }
        l2 = (l2.0 + m.l2.stats.misses, l2.1 + m.l2.stats.hits);
    }
    vec![
        ("hw.tlb_miss_ratio", ratio(tlb.0, tlb.0 + tlb.1)),
        ("hw.l2_miss_ratio", ratio(l2.0, l2.0 + l2.1)),
        ("hw.rtlb_miss_ratio", ratio(rtlb.0, rtlb.0 + rtlb.1)),
    ]
}

/// Cache-Kernel traffic per op, from the merged counters.
pub(crate) fn ck_traffic_metrics(c: &Counters, ops: u64) -> Vec<(&'static str, f64)> {
    let sum = |a: &[u64; 4]| a.iter().sum::<u64>();
    let loads = sum(&c.loads);
    vec![
        ("cache-kernel.events_per_op", ratio(c.events_emitted, ops)),
        ("cache-kernel.loads_per_op", ratio(loads, ops)),
        ("cache-kernel.unloads_per_op", ratio(sum(&c.unloads), ops)),
        (
            "cache-kernel.writebacks_per_op",
            ratio(sum(&c.writebacks), ops),
        ),
        (
            "cache-kernel.shootdown_rounds_per_op",
            ratio(c.shootdown_rounds, ops),
        ),
        (
            "cache-kernel.shootdown_batch_pages_mean",
            ratio(c.shootdown_batched_pages, c.shootdown_batches),
        ),
        (
            "cache-kernel.loads_shed_ratio",
            ratio(c.loads_shed, loads + c.loads_shed),
        ),
        ("cache-kernel.events_dropped", c.events_dropped as f64),
        (
            "cache-kernel.signals_fast_ratio",
            ratio(c.signals_fast, c.signals_fast + c.signals_slow),
        ),
    ]
}

/// Every field of the merged counters, for workloads whose whole counter
/// set is a function of the seed.
pub(crate) fn all_counters(c: &Counters) -> Vec<(&'static str, u64)> {
    // The Debug form names every field; hashing it covers fields added
    // later without this list going stale.
    vec![("counters", crate::fnv1a(format!("{c:?}").as_bytes()))]
}
