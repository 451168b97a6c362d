//! Heap-allocation budgets in steady state: one mill job, and the
//! messaging fast paths.
//!
//! A scheduling quantum of `Executive::run` is meant to be
//! allocation-free: its buffers (outbox, shard exports, scratch vectors,
//! the code store's slab) keep their capacity from quantum to quantum.
//! What remains per job belongs to the workload's own interface — the
//! packet payload and the shipment bytes it builds (`to_vec`), and the
//! `Vec<MappingState>` that `unload_mapping_range` returns. The first
//! test counts every `alloc`/`realloc` its thread makes while the
//! one-shard lockstep mill runs 2 000 jobs after a 200-job warm-up — the
//! backlog never empty, so neither the fill nor the drain is in the
//! count — and holds the line at three per job.
//!
//! Messaging is held to zero: once its scratch has grown, a batched
//! signal round and a zero-copy channel trip allocate nothing. The
//! copying channel's one allocation per message is the `Vec` that
//! `Channel::recv` hands its caller.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vpp::cache_kernel::{
    CacheKernel, CkConfig, KernelDesc, MemoryAccessArray, ObjId, SpaceDesc, ThreadDesc,
};
use vpp::hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr, PAGE_SIZE};
use vpp::libkern::{Channel, PageChannel};
use vpp::workloads::throughput::{build, completed, ThroughputSpec};

thread_local! {
    /// Tests run on threads of their own: each counts only itself, and
    /// only while it says so.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// Run `f`, returning how many allocations this thread made meanwhile.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s, which do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARM_UP: u64 = 200;
const MEASURED: u64 = 2_000;
/// Jobs left for after the measured region, so that it ends before the
/// backlog runs dry.
const DRAIN: u64 = 64;
const BUDGET_PER_JOB: u64 = 3;

#[test]
fn steady_state_mill_job_allocates_at_most_three_times() {
    let spec = ThroughputSpec {
        shards: 1,
        jobs_per_shard: (WARM_UP + MEASURED + DRAIN) as usize,
        pages_per_job: 4,
        compute: 0,
        threads: false,
        ..ThroughputSpec::default()
    };
    let mut m = build(&spec);
    // The archive of shipped exit records grows with the run, not with
    // the quantum: give it its final size so its doubling is not counted.
    m.nodes[0].wb_archive.reserve(spec.jobs_per_shard);
    let exits = |m: &vpp::cache_kernel::Machine| m.nodes[0].ck.stats.thread_exits;

    while exits(&m) < WARM_UP {
        m.step(1);
    }
    let warmed = exits(&m);

    let allocs = count_allocs(|| {
        while exits(&m) < warmed + MEASURED {
            m.step(1);
        }
    });
    let jobs = exits(&m) - warmed;
    assert!(!m.nodes[0].jobs.is_empty(), "the backlog ran dry");

    let used = m.run_until_idle(1_000_000);
    assert!(used < 1_000_000, "mill failed to quiesce");
    assert_eq!(completed(&mut m), spec.total_jobs());
    assert!(
        allocs <= BUDGET_PER_JOB * jobs,
        "{allocs} allocations over {jobs} jobs = {:.3} per job, budget {BUDGET_PER_JOB}",
        allocs as f64 / jobs as f64
    );
    // The budget is tight, not slack: the three survivors are all there.
    assert!(
        allocs >= BUDGET_PER_JOB * jobs - 8,
        "{allocs} over {jobs} jobs"
    );
}

/// A bare Cache Kernel and machine with `n` single-thread receivers, each
/// in a space of its own: `(space, thread)` per receiver.
fn messaging_rig(n: usize) -> (CacheKernel, Mpm, ObjId, Vec<(ObjId, ObjId)>) {
    let mut ck = CacheKernel::new(CkConfig::default());
    ck.signal_events = false;
    ck.shootdown_events = false;
    let mut mpm = Mpm::new(MachineConfig {
        phys_frames: 4096,
        ..MachineConfig::default()
    });
    let srm = ck.boot(KernelDesc {
        memory_access: MemoryAccessArray::all(),
        ..KernelDesc::default()
    });
    let receivers = (0..n)
        .map(|_| {
            let space = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
            let desc = ThreadDesc::new(space, 1, 20);
            (space, ck.load_thread(srm, desc, false, &mut mpm).unwrap())
        })
        .collect();
    (ck, mpm, srm, receivers)
}

fn drain(ck: &mut CacheKernel, thread: ObjId) -> usize {
    let taken = std::iter::from_fn(|| ck.take_signal(thread.slot)).count();
    ck.signal_return(thread.slot);
    taken
}

/// The `msg_mix` storm — 16 raises over 4 pages, each page watched by the
/// same 4 threads, so one batch makes 64 deliveries — and one sixteen
/// times its size, past what a sort's on-stack scratch would hide.
#[test]
fn steady_state_signal_batch_allocates_nothing() {
    const STORM_BASE: u32 = 0x0040_0000;
    for (watchers, raises) in [(4usize, 16u32), (16, 64)] {
        let (mut ck, mut mpm, srm, receivers) = messaging_rig(watchers);
        for &(space, thread) in &receivers {
            for page in 0..4 {
                let va = Vaddr(0xa000 + page * PAGE_SIZE);
                let pa = Paddr(STORM_BASE + page * PAGE_SIZE);
                ck.load_mapping(
                    srm,
                    space,
                    va,
                    pa,
                    Pte::MESSAGE,
                    Some(thread),
                    None,
                    &mut mpm,
                )
                .unwrap();
            }
        }
        let mut round = |ck: &mut CacheKernel| {
            let mut batch = ck.take_signal_batch();
            for r in 0..raises {
                batch.add(Paddr(STORM_BASE + (r % 4) * PAGE_SIZE + r * 52));
            }
            assert_eq!(ck.finish_signal_batch(batch, &mut mpm, 0), raises as usize);
            for &(_, thread) in &receivers {
                assert_eq!(drain(ck, thread), raises as usize);
            }
        };
        for _ in 0..4 {
            round(&mut ck);
        }
        let allocs = count_allocs(|| {
            for _ in 0..100 {
                round(&mut ck);
            }
        });
        let deliveries = watchers as u32 * raises;
        assert_eq!(
            allocs, 0,
            "over 100 batched rounds of {deliveries} deliveries"
        );
    }
}

/// A zero-copy trip — `send`, `read_in_place`, `complete`, the receiver's
/// signal taken — allocates nothing at either payload size; the copying
/// channel allocates exactly the `Vec` that `recv` returns.
#[test]
fn steady_state_channel_trips_allocate_only_the_received_copy() {
    let (mut ck, mut mpm, srm, ends) = messaging_rig(4);
    let [(tx, _), (rx_space, rx), (ptx, _), (prx_space, prx)] = ends[..] else {
        unreachable!("four receivers");
    };
    let (send_va, recv_va) = (Vaddr(0xa000), Vaddr(0xb000));
    let mut classic = Channel::setup(
        &mut ck,
        &mut mpm,
        srm,
        tx,
        send_va,
        rx_space,
        recv_va,
        rx,
        Paddr(0x0048_0000),
    )
    .unwrap();
    let mut page = PageChannel::setup(
        &mut ck,
        &mut mpm,
        srm,
        ptx,
        send_va,
        prx_space,
        recv_va,
        prx,
        Paddr(0x004a_0000),
        Paddr(0x004b_0000),
    )
    .unwrap();
    let payloads = [vec![7u8; 16], vec![9u8; 3_900]];

    let mut page_trip = |ck: &mut CacheKernel, mpm: &mut Mpm| {
        for data in &payloads {
            page.send(ck, mpm, 0, data).unwrap();
            let (seq, len, _) = page.read_in_place(mpm).unwrap();
            assert_eq!((seq, len as usize), (page.seq(), data.len()));
            page.complete(ck, mpm).unwrap();
            assert_eq!(drain(ck, prx), 1);
        }
    };
    for _ in 0..4 {
        page_trip(&mut ck, &mut mpm);
    }
    let allocs = count_allocs(|| {
        for _ in 0..100 {
            page_trip(&mut ck, &mut mpm);
        }
    });
    assert_eq!(allocs, 0, "over 200 zero-copy trips");
    assert_eq!((page.remaps, page.copies), (208, 0));

    let mut classic_trip = |ck: &mut CacheKernel, mpm: &mut Mpm| {
        for data in &payloads {
            classic.send_bytes(ck, mpm, 0, data).unwrap();
            let (_, got) = classic.recv(mpm, 0).unwrap();
            assert_eq!(got.len(), data.len());
            assert_eq!(drain(ck, rx), 1);
        }
    };
    for _ in 0..4 {
        classic_trip(&mut ck, &mut mpm);
    }
    let allocs = count_allocs(|| {
        for _ in 0..100 {
            classic_trip(&mut ck, &mut mpm);
        }
    });
    assert_eq!(allocs, 200, "one received copy per message");
}
