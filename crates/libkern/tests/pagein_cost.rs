//! Wall-clock gate: a page-in from the backing store shares the stored
//! page image instead of copying 4 KiB. Host nanoseconds differ from
//! machine to machine; the ratio of two loops timed in one process does
//! not. Ignored under plain `cargo test` (no wall-clock assertions in
//! tier-1); `scripts/check.sh` runs it with `--release -- --ignored`.

use hw::{MachineConfig, Mpm, Pfn, PAGE_SIZE};
use libkern::BackingStore;
use std::hint::black_box;
use std::time::Instant;

const KEYS: usize = 2_048;
const FRAMES: usize = 512;
const OPS: usize = 200_000;

/// The bytes of page `key`: distinct per key, the same in both loops.
fn page(key: usize) -> Vec<u8> {
    (0..PAGE_SIZE as usize)
        .map(|i| (key.wrapping_mul(31) ^ i) as u8)
        .collect()
}

/// Best of three timings of `OPS` calls of `op(n)`, in ns per call.
fn best_ns(mut op: impl FnMut(usize)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for n in 0..OPS {
            op(black_box(n));
        }
        best = best.min(t.elapsed().as_nanos() as f64 / OPS as f64);
    }
    best
}

#[test]
#[ignore = "wall-clock ratio; run by scripts/check.sh with --release"]
fn page_in_costs_a_fraction_of_a_page_copy() {
    let mut mpm = Mpm::new(MachineConfig {
        phys_frames: 2 * FRAMES,
        l2_bytes: 32 * 1024,
        ..MachineConfig::default()
    });
    let pages: Vec<Vec<u8>> = (0..KEYS).map(page).collect();
    let mut store = BackingStore::new();
    for (key, bytes) in pages.iter().enumerate() {
        store.seed(key as u64, bytes);
    }
    let frame = |n: usize| Pfn((n % FRAMES) as u32);
    let write = best_ns(|n| {
        let bytes = &pages[n % KEYS];
        mpm.mem.write(frame(n).base(), bytes).unwrap();
    });
    let page_in = best_ns(|n| store.page_in(&mut mpm, (n % KEYS) as u64, frame(n)));
    // Both loops left the same pages in the same frames.
    let last = OPS - 1;
    let mut got = vec![0u8; PAGE_SIZE as usize];
    mpm.mem.read(frame(last).base(), &mut got).unwrap();
    assert_eq!(got, pages[last % KEYS]);
    println!(
        "  page_in: {page_in:.1} ns = {:.2} x a 4 KiB write at {write:.1} ns (limit 0.25)",
        page_in / write
    );
    assert!(
        page_in <= 0.25 * write,
        "a page-in costs {page_in:.1} ns, a 4 KiB PhysMem::write {write:.1} ns: \
         page-in copies the page again"
    );
}
