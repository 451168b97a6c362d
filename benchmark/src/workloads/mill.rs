//! `mill_1s` and `mill_2t`: the `workloads::throughput` job mill on a
//! sharded machine. Every job faults in a private 4-page window,
//! re-reads it, sends one packet, unloads the window (a batched
//! shootdown round) and exits. op = job.
//!
//! The seed decides which window each job gets, where its packet goes
//! and what it stores; the amount of work does not depend on it.

use super::{
    all_counters, check, ck_traffic_metrics, hw_cache_metrics, ratio, shuffled, Chunks, Rep,
    RepResult,
};
use crate::trace::{Probe, REP, RUN_UNTIL_IDLE, SHARD_DRIVER};
use cache_kernel::{Machine, Priority, RunMode};
use hw::FaultRng;
use std::time::Instant;
use workloads::throughput::{self, ShardDriver, ThroughputSpec};

pub struct MillSpec {
    pub shards: usize,
    pub threads: bool,
    pub jobs_per_shard: usize,
}

/// 250 000 jobs of 4 pages: the 32-bit window space caps one machine at
/// about 261 000 such jobs.
pub const MILL_1S: MillSpec = MillSpec {
    shards: 1,
    threads: false,
    jobs_per_shard: 250_000,
};

/// The same 250 000 jobs split over exactly `nproc` = 2 shard threads.
pub const MILL_2T: MillSpec = MillSpec {
    shards: 2,
    threads: true,
    jobs_per_shard: 125_000,
};

const PAGES_PER_JOB: u32 = 4;
/// Quanta per lockstep chunk: a few hundred chunks per rep.
const CHUNK_QUANTA: usize = 1_024;
const MAX_QUANTA: usize = 50_000_000;

/// Build the machine and seed its backlogs.
pub fn build(ms: &MillSpec, seed: u64) -> Machine {
    let empty = ThroughputSpec {
        shards: ms.shards,
        jobs_per_shard: 0,
        pages_per_job: PAGES_PER_JOB,
        compute: 0,
        threads: ms.threads,
        ..ThroughputSpec::default()
    };
    let mut m = throughput::build(&empty);
    let layout = ThroughputSpec {
        jobs_per_shard: ms.jobs_per_shard,
        ..empty
    };
    let total = ms.shards * ms.jobs_per_shard;
    let mut rng = FaultRng::new(seed);
    // Every window is used once, in a seeded order.
    for (n, w) in shuffled(&mut rng, total as u32).into_iter().enumerate() {
        let w = w as usize;
        let window = throughput::window_of(&layout, w / ms.jobs_per_shard, w % ms.jobs_per_shard);
        let send_to = rng.below(ms.shards as u64) as u32;
        let tag = rng.next_u64() as u32;
        m.nodes[n / ms.jobs_per_shard].push_job(
            Box::new(throughput::job_script(
                window,
                PAGES_PER_JOB,
                0,
                send_to,
                tag,
            )),
            10 as Priority,
        );
    }
    m
}

/// Put the tracing decorator around every shard's driver.
pub fn decorate<P: Probe>(m: &mut Machine, p: &mut P) {
    for (i, node) in m.nodes.iter_mut().enumerate() {
        let Some((kernel, _)) = node.job_target else {
            continue;
        };
        if let Some(driver) = node.unregister_kernel(kernel) {
            node.register_kernel(kernel, p.wrap(SHARD_DRIVER, i as u8 + 1, true, driver));
        }
    }
}

pub fn rep<P: Probe>(ms: &MillSpec, seed: u64, p: &mut P) -> RepResult {
    let t0 = Instant::now();
    let mut m = build(ms, seed);
    if P::ON {
        decorate(&mut m, p);
    }
    let total = (ms.shards * ms.jobs_per_shard) as u64;
    let threaded = m.run_mode() == RunMode::Threaded;
    check(threaded == ms.threads, || {
        "run mode differs from the spec (built with the lockstep feature?)".into()
    })?;
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let root = p.enter(REP, 0);
    let mut chunks = Chunks::start();
    if threaded {
        // One call: the shard threads live for the whole run, as they
        // would in service. No chunks, so no stall detector here.
        let s = p.enter(RUN_UNTIL_IDLE, 0);
        m.run_until_idle(MAX_QUANTA);
        p.exit(s);
    } else {
        let mut done = 0;
        for chunk in 0..(MAX_QUANTA / CHUNK_QUANTA) as u32 {
            let s = p.enter(RUN_UNTIL_IDLE, chunk);
            let used = m.run_until_idle(CHUNK_QUANTA);
            p.exit(s);
            let exits = m.nodes[0].ck.stats.thread_exits;
            chunks.close(exits - done);
            done = exits;
            if used < CHUNK_QUANTA {
                break;
            }
        }
    }
    p.exit(root);
    let wall_ns = t1.elapsed().as_nanos() as u64;
    p.adopt_handlers(threaded);

    let c = m.counters();
    let exited = c.thread_exits;
    check(exited == total, || {
        format!("{exited} of {total} jobs exited")
    })?;
    let completed = throughput::completed(&mut m);
    check(completed == total, || {
        format!("drivers saw {completed} of {total} exits")
    })?;
    let packets = throughput::packets_seen(&mut m);
    check(packets == total, || {
        format!("{packets} packets seen, {total} sent")
    })?;
    check(c.events_dropped == 0, || {
        format!("{} events dropped", c.events_dropped)
    })?;
    check(c.threads_panicked == 0, || "a shard thread panicked".into())?;
    check(m.in_flight() == 0, || "messages still in flight".into())?;
    for node in &m.nodes {
        node.ck.check_invariants()?;
    }
    let mapped: u64 = (0..ms.shards)
        .filter_map(|i| {
            let (k, _) = m.nodes[i].job_target?;
            m.nodes[i].with_kernel::<ShardDriver, u64>(k, |d, _| d.mapped)
        })
        .sum();
    check(mapped == total * PAGES_PER_JOB as u64, || {
        format!(
            "{mapped} pages mapped, expected {}",
            total * PAGES_PER_JOB as u64
        )
    })?;

    // CPU cycles summed over the shards. Which shard runs (or steals) a
    // job depends on host scheduling when they free-run, but the work per
    // job does not, so the sum moves by parts in 10^5 where any single
    // shard's clock moves by tens of percent.
    let sim_cycles = m.nodes.iter().map(|n| n.mpm.clock.cycles()).sum();
    let exact = if threaded {
        // Only the totals the mill keeps invariant under scheduling.
        vec![
            ("thread_exits", c.thread_exits),
            ("jobs_admitted", c.jobs_admitted),
            ("faults_forwarded", c.faults_forwarded),
            ("traps_forwarded", c.traps_forwarded),
            ("mapping_loads", c.loads[3]),
            ("mapping_unloads", c.unloads[3]),
            ("packets_seen", packets),
        ]
    } else {
        all_counters(&c)
    };
    let mut layer = hw_cache_metrics(m.nodes.iter().map(|n| &n.mpm));
    layer.extend(ck_traffic_metrics(&c, total));
    layer.extend([
        ("hw.ring.msgs_per_op", ratio(c.shard_msgs_sent, total)),
        (
            "hw.ring.full_per_kmsg",
            1e3 * ratio(c.rings_full, c.shard_msgs_sent),
        ),
        (
            "cache-kernel.remote_shootdowns_per_op",
            ratio(c.remote_shootdowns, total),
        ),
        (
            "cache-kernel.steals_per_kop",
            1e3 * ratio(c.shard_steals, total),
        ),
    ]);
    Ok(Rep {
        setup_ns,
        wall_ns,
        attempted: total,
        ok: exited,
        within_slo: exited,
        sim_cycles,
        chunk_ns_per_op: chunks.finish(),
        exact,
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    /// The decorator is transparent: a wrapped and an unwrapped 2 000-job
    /// lockstep mill leave identical counters and clocks.
    #[test]
    fn decorated_mill_matches_undecorated_counters() {
        let spec = MillSpec {
            shards: 2,
            threads: false,
            jobs_per_shard: 1_000,
        };
        let run = |wrap: bool| {
            let mut m = build(&spec, 7);
            let mut t = Tracer::new();
            if wrap {
                decorate(&mut m, &mut t);
            }
            m.run_until_idle(1_000_000);
            t.adopt_handlers(false);
            let clocks: Vec<u64> = m.nodes.iter().map(|n| n.mpm.clock.cycles()).collect();
            (
                m.counters(),
                clocks,
                throughput::completed(&mut m),
                t.spans.len(),
            )
        };
        let (plain, wrapped) = (run(false), run(true));
        assert_eq!(plain.0, wrapped.0);
        assert_eq!(plain.1, wrapped.1);
        assert_eq!((plain.2, wrapped.2), (2_000, 2_000));
        // Four faults, two traps and an exit per job, at least.
        assert_eq!(plain.3, 0);
        assert!(wrapped.3 >= 2_000 * 7, "{} handler spans", wrapped.3);
    }

    #[test]
    fn seed_changes_inputs_not_work() {
        let spec = MillSpec {
            shards: 1,
            threads: false,
            jobs_per_shard: 500,
        };
        let counters = |seed| {
            let mut m = build(&spec, seed);
            m.run_until_idle(1_000_000);
            m.counters()
        };
        let (a, b) = (counters(1), counters(2));
        assert_eq!(a, counters(1));
        assert_eq!(a.thread_exits, b.thread_exits);
        assert_eq!(a.faults_forwarded, b.faults_forwarded);
    }
}
