//! Wall-clock gate: a policy touch costs the same in a large pool as in a
//! small one. Host nanoseconds differ from machine to machine; the ratio
//! of two loops timed in one process does not. Ignored under plain
//! `cargo test` (no wall-clock assertions in tier-1); `scripts/check.sh`
//! runs it with `--release -- --ignored`.

use hw::{FaultRng, Vaddr, PAGE_SIZE};
use libkern::{Lru, ReplacementPolicy};
use std::hint::black_box;
use std::time::Instant;

const TOUCHES: usize = 1_000_000;

/// Best of three timings of `TOUCHES` uniformly random LRU hits with
/// `pool` pages resident.
fn ns_per_touch(pool: u32) -> f64 {
    let mut lru = Lru::default();
    for n in 0..pool {
        lru.inserted(Vaddr(n * PAGE_SIZE));
    }
    let mut rng = FaultRng::new(u64::from(pool));
    let stream: Vec<Vaddr> = (0..TOUCHES)
        .map(|_| Vaddr(rng.below(u64::from(pool)) as u32 * PAGE_SIZE))
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for &page in &stream {
            lru.touched(black_box(page));
        }
        best = best.min(t.elapsed().as_nanos() as f64 / TOUCHES as f64);
        black_box(lru.victim());
    }
    best
}

#[test]
#[ignore = "wall-clock ratio; run by scripts/check.sh with --release"]
fn lru_touch_cost_does_not_grow_with_the_pool() {
    let small = ns_per_touch(512);
    let large = ns_per_touch(8_192);
    println!(
        "  lru touch: {large:.1} ns at 8192 pages = {:.2} x {small:.1} ns at 512 (limit 3)",
        large / small
    );
    assert!(
        large <= 3.0 * small,
        "an LRU touch costs {large:.1} ns at 8192 resident pages, {small:.1} ns at 512: \
         the replacement-order core is no longer O(1)"
    );
}
