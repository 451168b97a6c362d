//! `db_oltp`: the database kernel's application-managed buffer pool,
//! one caller, closed loop. A 2 048-page table behind a 512-page pool
//! under the scan-resistant policy: Zipf(0.99) point lookups in blocks
//! of 20 000 with a full table scan after every second block.
//! op = page touch.

use super::{
    all_counters, check, ck_traffic_metrics, hw_cache_metrics, ratio, Chunks, Rep, RepResult,
    ScatteredZipf,
};
use crate::trace::{Probe, DB_TOUCH, REP};
use bench::Bench;
use cache_kernel::CkConfig;
use db_kernel::{DbKernel, Policy};
use hw::FaultRng;
use std::time::Instant;

const TABLE_PAGES: u32 = 2_048;
const POOL_PAGES: usize = 512;
const LOOKUPS: usize = 3_000_000;
const BLOCK: usize = 20_000;
const THETA: f64 = 0.99;
const CHUNKS: usize = 300;

/// The touch stream: lookups with every scan expanded in place.
fn touches(seed: u64) -> Vec<u32> {
    let mut rng = FaultRng::new(seed);
    let pages = ScatteredZipf::new(&mut rng, TABLE_PAGES, THETA);
    let blocks = LOOKUPS / BLOCK;
    let mut out = Vec::with_capacity(LOOKUPS + blocks / 2 * TABLE_PAGES as usize);
    for block in 0..blocks {
        for _ in 0..BLOCK {
            out.push(pages.draw(&mut rng));
        }
        if block % 2 == 1 {
            out.extend(0..TABLE_PAGES);
        }
    }
    out
}

pub fn rep<P: Probe>(seed: u64, p: &mut P) -> RepResult {
    let t0 = Instant::now();
    let mut h = Bench::with_config(CkConfig::default(), 16 * 1024);
    let mut db = DbKernel::create(
        &mut h.ck,
        &mut h.mpm,
        h.srm,
        TABLE_PAGES,
        POOL_PAGES,
        64..64 + 2 * POOL_PAGES as u32,
        Policy::ScanResistant,
    )
    .map_err(|e| format!("DbKernel::create: {e:?}"))?;
    let stream = touches(seed);
    let per_chunk = stream.len() / CHUNKS;
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let c0 = h.mpm.clock.cycles();
    let t1 = Instant::now();
    let root = p.enter(REP, 0);
    let mut chunks = Chunks::start();
    for (n, &page) in stream.iter().enumerate() {
        let s = p.enter(DB_TOUCH, n as u32);
        let touched = db.touch(&mut h.ck, &mut h.mpm, page);
        p.exit(s);
        touched.map_err(|e| format!("touch page {page}: {e:?}"))?;
        if (n + 1) % per_chunk == 0 {
            chunks.close(per_chunk as u64);
        }
    }
    p.exit(root);
    let wall_ns = t1.elapsed().as_nanos() as u64;
    let sim_cycles = h.mpm.clock.cycles() - c0;

    h.ck.check_invariants()?;
    let s = db.stats;
    let ops = stream.len() as u64;
    check(s.touches == ops, || {
        format!("{} touches counted, {ops} made", s.touches)
    })?;
    check(s.hits + s.disk_reads == ops, || {
        format!(
            "{} hits + {} disk reads != {ops} touches",
            s.hits, s.disk_reads
        )
    })?;
    check(db.resident() <= POOL_PAGES, || {
        format!(
            "{} pages resident in a {POOL_PAGES}-page pool",
            db.resident()
        )
    })?;

    let c = h.ck.stats;
    let mut layer = hw_cache_metrics(std::iter::once(&h.mpm));
    layer.extend(ck_traffic_metrics(&c, ops));
    layer.extend([
        ("libkern.mem.pool_hit_ratio", ratio(s.hits, ops)),
        // Every page read in either is still resident or was evicted.
        (
            "libkern.mem.evictions_per_op",
            ratio(s.disk_reads - db.resident() as u64, ops),
        ),
        ("db-kernel.disk_reads_per_op", ratio(s.disk_reads, ops)),
    ]);
    let mut exact = all_counters(&c);
    exact.extend([("hits", s.hits), ("disk_reads", s.disk_reads)]);
    Ok(Rep {
        setup_ns,
        wall_ns,
        attempted: ops,
        ok: s.hits + s.disk_reads,
        within_slo: s.hits + s.disk_reads,
        sim_cycles,
        chunk_ns_per_op: chunks.finish(),
        exact,
        layer,
    })
}
