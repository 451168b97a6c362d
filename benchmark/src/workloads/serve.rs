//! `serve_quiet` and `serve_cuts`: `workloads::web_serving` on a 2-node
//! classic cluster. The load is an open loop *inside the simulation*:
//! each node's front kernel draws Poisson arrivals on the sim clock and
//! times every request from the cycle it was due. op = completed request.
//!
//! `serve_cuts` is the same run under a seeded partition schedule, so the
//! retry budget, deadlines, membership and the fabric's cut do real work;
//! on `serve_quiet` they are armed and idle.

use super::{
    all_counters, check, ck_traffic_metrics, hw_cache_metrics, ratio, Chunks, Rep, RepResult,
};
use crate::stats::share_within;
use crate::trace::{Probe, REP, SRM, STEP, WEB_FRONT};
use cache_kernel::{LockedQuota, MAX_CPUS};
use hw::{FaultPlan, FaultRng};
use libkern::{Backoff, RetryBudget};
use srm::Srm;
use std::time::Instant;
use vpp::{boot_cluster, BootConfig};
use workloads::web_serving::{
    latency_percentile, Arrival, WebFrontKernel, WebServingConfig, WebStats, LAT_BUCKETS,
    WEB_CHANNEL,
};

const NODES: usize = 2;
const CLIENTS_PER_NODE: u64 = 500_000;
/// Offered load per node: 0.85 of the ~800 req/Mcycle a node sustains.
const RATE_PER_MCYCLE: f64 = 0.85 * 800.0;
const DEADLINE: u64 = 250_000;
/// The latency limit: 2^18 = 262 144 cycles, the one edge the front
/// kernel's log2 histogram resolves at the 250 000-cycle deadline.
const SLO_LOG2: usize = 18;
/// Sim horizon of one rep: about 2 M requests.
const HORIZON: u64 = 1_500_000_000;
const CUT_PERIOD: u64 = 3_000_000;
const CUT_LENGTH: u64 = 600_000;
const QUANTA_PER_STEP: usize = 5;
const STEPS_PER_CHUNK: u32 = 512;

/// One partition {0}|{1} of `CUT_LENGTH` cycles in every `CUT_PERIOD`,
/// starting at a seeded offset inside its period.
fn cut_schedule(seed: u64) -> FaultPlan {
    let mut rng = FaultRng::new(seed ^ 0xc075);
    let mut plan = FaultPlan::new(seed);
    for period in 0..HORIZON / CUT_PERIOD {
        let at = period * CUT_PERIOD + rng.below(CUT_PERIOD - CUT_LENGTH);
        plan = plan.partition(at, &[&[0], &[1]]).heal(at + CUT_LENGTH);
    }
    plan
}

pub fn rep<P: Probe>(cuts: bool, seed: u64, p: &mut P) -> RepResult {
    let t0 = Instant::now();
    let (mut cluster, srms) = boot_cluster(
        NODES,
        BootConfig {
            clock_interval: 5_000,
            ..BootConfig::default()
        },
    );
    let mut fronts = Vec::new();
    for (node, ex) in cluster.nodes.iter_mut().enumerate() {
        let id = ex
            .with_kernel::<Srm, _>(srms[node], |s, env| {
                s.start_kernel(env, "web", 2, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .ok_or("no SRM registered")?
            .map_err(|e| format!("start_kernel: {e:?}"))?;
        let front = WebFrontKernel::new(WebServingConfig {
            node,
            cluster_nodes: NODES,
            clients: CLIENTS_PER_NODE,
            keys: 4_096,
            zipf_theta: 0.99,
            arrival: Arrival::Open {
                per_mcycle: RATE_PER_MCYCLE / CLIENTS_PER_NODE as f64,
            },
            deadline: DEADLINE,
            max_inflight: 256,
            retry: Backoff {
                max_attempts: 6,
                cap: 40_000,
                jitter_permille: 300,
            },
            budget: RetryBudget::new(512, 200),
            cache_pages: 64,
            gen_window: 25_000,
            seed: seed ^ (node as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..WebServingConfig::default()
        });
        ex.register_kernel(id, p.wrap(WEB_FRONT, 0, false, Box::new(front)));
        ex.register_channel(WEB_CHANNEL, id);
        if P::ON {
            if let Some(srm) = ex.unregister_kernel(srms[node]) {
                ex.register_kernel(srms[node], p.wrap(SRM, 0, true, srm));
            }
        }
        fronts.push(id);
    }
    if cuts {
        cluster.net_faults = Some(cut_schedule(seed));
    }
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let now = |c: &cache_kernel::Cluster| {
        c.nodes
            .iter()
            .map(|n| n.mpm.clock.cycles())
            .max()
            .unwrap_or(0)
    };
    let completed_so_far = |c: &cache_kernel::Cluster| {
        c.nodes
            .iter()
            .map(|n| n.ck.stats.requests_completed)
            .sum::<u64>()
    };

    let t1 = Instant::now();
    let root = p.enter(REP, 0);
    let mut chunks = Chunks::start();
    let (mut step, mut done) = (0u32, 0u64);
    while now(&cluster) < HORIZON {
        let s = p.enter(STEP, step);
        cluster.step(QUANTA_PER_STEP);
        p.exit(s);
        step += 1;
        if step % STEPS_PER_CHUNK == 0 {
            let total = completed_so_far(&cluster);
            chunks.close(total - done);
            done = total;
        }
    }
    p.exit(root);
    let wall_ns = t1.elapsed().as_nanos() as u64;
    p.adopt_handlers(false);

    let sim_cycles = now(&cluster);
    let mut stats = WebStats::default();
    let mut hist = [0u64; LAT_BUCKETS];
    let (mut outstanding, mut budget_spent, mut budget_denied, mut offered) =
        (0u64, 0u64, 0u64, 0.0);
    for (node, &id) in cluster.nodes.iter_mut().zip(&fronts) {
        check(!node.mpm.halted, || "a node halted".into())?;
        node.ck.check_invariants()?;
        offered += RATE_PER_MCYCLE * node.mpm.clock.cycles() as f64 / 1e6;
        let ledger = node
            .with_kernel::<WebFrontKernel, _>(id, |k, _| {
                let s = k.stats;
                let (inflight, parked) = k.outstanding();
                stats.arrivals += s.arrivals;
                stats.completed += s.completed;
                stats.budget_denied += s.budget_denied;
                stats.attempts_exhausted += s.attempts_exhausted;
                stats.expired += s.expired;
                stats.local_hits += s.local_hits;
                stats.local_misses += s.local_misses;
                stats.forwarded += s.forwarded;
                stats.attempts += s.attempts;
                for (b, &c) in k.latency.iter().enumerate() {
                    hist[b] += c;
                }
                outstanding += (inflight + parked) as u64;
                budget_spent += k.budget.spent;
                budget_denied += k.budget.denied;
                // Every re-entry into admission paid one budget token.
                s.attempts - s.arrivals == k.budget.spent - parked as u64
            })
            .ok_or("front kernel missing")?;
        check(ledger, || "retry ledger does not balance".into())?;
    }
    let c = cluster.counters();
    let dropped = stats.budget_denied + stats.attempts_exhausted;
    let accounted = stats.completed + dropped + outstanding;
    check(stats.completed > 0, || "nothing was served".into())?;
    check(accounted == stats.arrivals, || {
        format!("{} arrivals, {accounted} accounted for", stats.arrivals)
    })?;
    if !cuts {
        check(c.nodes_down == 0 && c.epoch_changes == 0, || {
            format!(
                "membership moved on a quiet run: {} down, {} epochs",
                c.nodes_down, c.epoch_changes
            )
        })?;
    }

    let packets: u64 = (0..NODES).map(|n| cluster.fabric.stats(n).tx_packets).sum();
    let blocked = cluster.fabric.frames_blocked();
    let local = stats.local_hits + stats.local_misses;
    let mut layer = hw_cache_metrics(cluster.nodes.iter().map(|n| &n.mpm));
    layer.extend(ck_traffic_metrics(&c, stats.completed));
    layer.extend([
        ("hw.fabric.packets_per_op", ratio(packets, stats.completed)),
        ("hw.fabric.blocked_ratio", ratio(blocked, packets + blocked)),
        (
            "libkern.retry.spent_per_kop",
            1e3 * ratio(budget_spent, stats.arrivals),
        ),
        (
            "libkern.retry.denied_ratio",
            ratio(budget_denied, budget_spent + budget_denied),
        ),
        (
            "libkern.deadlines_expired_per_kop",
            1e3 * ratio(stats.expired, stats.arrivals),
        ),
        ("srm.epoch_changes", c.epoch_changes as f64),
        ("srm.nodes_down", c.nodes_down as f64),
        (
            "workloads.web.front_hit_ratio",
            ratio(stats.local_hits, local),
        ),
        (
            "workloads.web.forward_ratio",
            ratio(stats.forwarded, stats.attempts),
        ),
        (
            "workloads.web.gen_shortfall_ratio",
            1.0 - stats.arrivals as f64 / offered,
        ),
        (
            "workloads.web.goodput_per_mcycle",
            stats.completed as f64 * 1e6 / sim_cycles as f64,
        ),
        (
            "workloads.web.lat_p50_cycles",
            latency_percentile(&hist, 0.50) as f64,
        ),
        (
            "workloads.web.lat_p99_cycles",
            latency_percentile(&hist, 0.99) as f64,
        ),
        (
            "workloads.web.lat_share_le_2e14",
            share_within(&hist, 14, stats.completed),
        ),
        (
            "workloads.web.lat_share_le_2e17",
            share_within(&hist, 17, stats.completed),
        ),
    ]);
    let mut exact = all_counters(&c);
    exact.extend([
        ("arrivals", stats.arrivals),
        ("completed", stats.completed),
        ("dropped", dropped),
        ("packets", packets),
        ("blocked", blocked),
    ]);
    let within: u64 = hist.iter().take(SLO_LOG2 + 1).sum();
    Ok(Rep {
        setup_ns,
        wall_ns,
        attempted: stats.arrivals,
        ok: stats.completed,
        within_slo: within,
        sim_cycles,
        chunk_ns_per_op: chunks.finish(),
        exact,
        layer,
    })
}
