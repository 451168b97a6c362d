//! `ck_thrash`: the benchmark is the application kernel on a bare
//! `CacheKernel` + `Mpm`, one caller, closed loop. A Zipf(0.6) stream
//! over 640 pages against 512 mapping descriptors, and every fourth op a
//! lookup over 80 logical threads against 64 thread slots: the working
//! set is 1.25x each descriptor pool, so replacement never stops.
//! op = one mapping access (`query_mapping`, on a miss `load_mapping`),
//! with `take_writebacks` after every op.

use super::{
    all_counters, check, ck_traffic_metrics, hw_cache_metrics, ratio, Chunks, Rep, RepResult,
    ScatteredZipf,
};
use crate::trace::{
    Probe, CK_LOAD_MAPPING, CK_LOAD_THREAD, CK_QUERY_MAPPING, CK_TAKE_WRITEBACKS, CK_THREAD, REP,
};
use bench::Bench;
use cache_kernel::{CkConfig, CkError, ObjId, SpaceDesc, ThreadDesc};
use hw::{FaultRng, Paddr, Pte, Vaddr, PAGE_SIZE};
use std::time::Instant;

const OPS: usize = 3_000_000;
const PAGES: u32 = 640;
const MAPPING_CAPACITY: usize = 512;
const THREADS: u32 = 80;
const THREAD_SLOTS: usize = 64;
const THREAD_EVERY: usize = 4;
const THETA: f64 = 0.6;
const CHUNKS: usize = 250;
const BASE_VADDR: u32 = 0x0040_0000;
const FIRST_FRAME: u32 = 1_024;

fn zipf_stream(rng: &mut FaultRng, n: u32, count: usize) -> Vec<u32> {
    let items = ScatteredZipf::new(rng, n, THETA);
    (0..count).map(|_| items.draw(rng)).collect()
}

pub fn rep<P: Probe>(seed: u64, p: &mut P) -> RepResult {
    let t0 = Instant::now();
    let mut h = Bench::with_config(
        CkConfig {
            mapping_capacity: MAPPING_CAPACITY,
            thread_slots: THREAD_SLOTS,
            ..CkConfig::default()
        },
        16 * 1024,
    );
    let me = h.srm;
    let space =
        h.ck.load_space(me, SpaceDesc::default(), &mut h.mpm)
            .map_err(|e| format!("load_space: {e:?}"))?;
    let mut rng = FaultRng::new(seed);
    let pages = zipf_stream(&mut rng, PAGES, OPS);
    let threads = zipf_stream(&mut rng, THREADS, OPS / THREAD_EVERY);
    let mut thread_ids: Vec<Option<ObjId>> = vec![None; THREADS as usize];
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let (mut map_hits, mut map_loads, mut thread_hits, mut thread_loads) = (0u64, 0u64, 0u64, 0u64);
    let (mut again, mut writebacks_taken) = (0u64, 0u64);
    let c0 = h.mpm.clock.cycles();
    let t1 = Instant::now();
    let root = p.enter(REP, 0);
    let mut chunks = Chunks::start();
    for (n, &page) in pages.iter().enumerate() {
        let id = n as u32;
        let va = Vaddr(BASE_VADDR + page * PAGE_SIZE);
        let s = p.enter(CK_QUERY_MAPPING, id);
        let found = h.ck.query_mapping(me, space, va);
        p.exit(s);
        match found {
            Ok(_) => map_hits += 1,
            Err(CkError::NoMapping) => loop {
                let s = p.enter(CK_LOAD_MAPPING, id);
                let loaded = h.ck.load_mapping(
                    me,
                    space,
                    va,
                    Paddr((FIRST_FRAME + page) * PAGE_SIZE),
                    Pte::WRITABLE | Pte::CACHEABLE,
                    None,
                    None,
                    &mut h.mpm,
                );
                p.exit(s);
                match loaded {
                    Ok(()) => {
                        map_loads += 1;
                        break;
                    }
                    Err(CkError::Again { .. }) => again += 1,
                    Err(e) => return Err(format!("load_mapping page {page}: {e:?}")),
                }
            },
            Err(e) => return Err(format!("query_mapping page {page}: {e:?}")),
        }
        if n % THREAD_EVERY == 0 {
            let t = threads[n / THREAD_EVERY] as usize;
            let s = p.enter(CK_THREAD, id);
            let cached = thread_ids[t].is_some_and(|tid| h.ck.thread(tid).is_ok());
            p.exit(s);
            if cached {
                thread_hits += 1;
            } else {
                let s = p.enter(CK_LOAD_THREAD, id);
                let loaded = h.ck.load_thread(
                    me,
                    ThreadDesc::new(space, t as u32 + 1, 10),
                    false,
                    &mut h.mpm,
                );
                p.exit(s);
                thread_ids[t] = Some(loaded.map_err(|e| format!("load_thread {t}: {e:?}"))?);
                thread_loads += 1;
            }
        }
        let s = p.enter(CK_TAKE_WRITEBACKS, id);
        writebacks_taken += h.ck.take_writebacks().len() as u64;
        p.exit(s);
        if (n + 1) % (OPS / CHUNKS) == 0 {
            chunks.close((OPS / CHUNKS) as u64);
        }
    }
    p.exit(root);
    let wall_ns = t1.elapsed().as_nanos() as u64;
    let sim_cycles = h.mpm.clock.cycles() - c0;

    h.ck.check_invariants()?;
    let ops = OPS as u64;
    check(map_hits + map_loads == ops, || {
        format!("{map_hits} hits + {map_loads} reloads != {ops} ops")
    })?;
    let lookups = (OPS / THREAD_EVERY) as u64;
    check(thread_hits + thread_loads == lookups, || {
        format!("{thread_hits} thread hits + {thread_loads} reloads != {lookups} lookups")
    })?;
    let c = h.ck.stats;
    let displaced: u64 = c.writebacks.iter().sum();
    check(writebacks_taken == displaced, || {
        format!("{writebacks_taken} writebacks taken, {displaced} displaced")
    })?;
    check(h.ck.pending_events() == 0, || {
        "events left in the queue".into()
    })?;

    let mut layer = hw_cache_metrics(std::iter::once(&h.mpm));
    layer.extend(ck_traffic_metrics(&c, ops));
    layer.extend([
        ("cache-kernel.mapping_hit_ratio", ratio(map_hits, ops)),
        (
            "cache-kernel.thread_reload_ratio",
            ratio(thread_loads, lookups),
        ),
    ]);
    let mut exact = all_counters(&c);
    exact.extend([
        ("map_hits", map_hits),
        ("thread_hits", thread_hits),
        ("again", again),
    ]);
    Ok(Rep {
        setup_ns,
        wall_ns,
        attempted: ops,
        ok: map_hits + map_loads,
        within_slo: map_hits + map_loads,
        sim_cycles,
        chunk_ns_per_op: chunks.finish(),
        exact,
        layer,
    })
}
