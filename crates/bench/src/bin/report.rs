//! The evaluation report: regenerates every quantitative artifact of the
//! paper's §5 in paper format, side by side with the original numbers.
//!
//! Usage: `cargo run --release -p bench --bin report [-- <section> [--json]]`
//! where `<section>` is one of `table1`, `table2`, `trap`, `signal`,
//! `fault`, `size`, `cache-sweep`, `overhead`, `mp3d`, `policy`,
//! `quota`, `rtlb`, `teardown`, `recovery`, `overload`, `partition`,
//! `serve`, `gray`, `throughput`, `msg`, `caps`, or `all` (default).
//! Output is what EXPERIMENTS.md records. With `--json`, the `signal`,
//! `recovery`, `overload`, `partition`, `serve`, `gray`, `throughput`,
//! `msg` and `caps` sections additionally write a machine-readable
//! `BENCH_<section>.json` artifact beside the working directory's
//! manifest (numbers plus the pinned seeds the check gates replay).

use bench::{count_loc, quick_median_ns, Bench};
use cache_kernel::{
    CacheKernel, CkConfig, Executive, FnProgram, KernelDesc, MemoryAccessArray, NullKernel,
    SpaceDesc, Step, ThreadCtx, ThreadDesc,
};
use db_kernel::{DbKernel, DbOp, Policy};
use hw::{Access, MachineConfig, Mpm, Paddr, Pte, Rights, Vaddr, PAGE_GROUP_SIZE, PAGE_SIZE};
use sim_kernel::mp3d::{locality_comparison, Mp3dConfig};
use std::sync::atomic::{AtomicBool, Ordering};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    JSON.store(args.iter().any(|a| a == "--json"), Ordering::Relaxed);
    let arg = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let run = |name: &str| arg == "all" || arg == name;
    println!("# V++ Cache Kernel — evaluation report\n");
    if run("table1") {
        table1();
    }
    if run("table2") {
        table2();
    }
    if run("trap") {
        trap();
    }
    if run("signal") {
        signal();
    }
    if run("fault") {
        fault();
    }
    if run("size") {
        size();
    }
    if run("cache-sweep") {
        cache_sweep();
    }
    if run("overhead") {
        overhead();
    }
    if run("mp3d") {
        mp3d();
    }
    if run("dist") {
        dist();
    }
    if run("policy") {
        policy();
    }
    if run("quota") {
        quota();
    }
    if run("rtlb") {
        rtlb();
    }
    if run("teardown") {
        teardown();
    }
    if run("recovery") {
        recovery();
    }
    if run("overload") {
        overload();
    }
    if run("partition") {
        partition();
    }
    if run("serve") {
        serve();
    }
    if run("gray") {
        gray();
    }
    if run("throughput") {
        throughput();
    }
    if run("msg") {
        msg();
    }
    if run("caps") {
        caps();
    }
}

// ---------------------------------------------------------------------
// E-caps — capability enforcement cost (granted path vs violation path)
// ---------------------------------------------------------------------

/// Granted-path and denied-path mapping-load cost under one
/// `caps_enforce` setting. The caller is a scoped (non-first) kernel so
/// the rights check actually runs.
fn caps_cell(caps_on: bool) -> (f64, f64) {
    let mut h = Bench::with_config(
        CkConfig {
            caps_enforce: caps_on,
            ..CkConfig::default()
        },
        16 * 1024,
    );
    let mut desc = KernelDesc {
        memory_access: MemoryAccessArray::none(),
        ..KernelDesc::default()
    };
    desc.memory_access.set(0, Rights::ReadWrite);
    let k = h.ck.load_kernel(h.srm, desc, &mut h.mpm).unwrap();
    let sp =
        h.ck.load_space(k, SpaceDesc::default(), &mut h.mpm)
            .unwrap();
    let granted_ns = quick_median_ns(
        9,
        400,
        &mut h,
        |h| {
            h.ck.load_mapping(
                k,
                sp,
                Vaddr(0x1000),
                Paddr(0x3000),
                Pte::WRITABLE | Pte::CACHEABLE,
                None,
                None,
                &mut h.mpm,
            )
            .unwrap();
        },
        |h| {
            h.ck.unload_mapping_range(k, sp, Vaddr(0x1000), PAGE_SIZE, &mut h.mpm)
                .unwrap();
            h.ck.take_writebacks();
            h.ck.drain_events();
        },
    );
    let denied_ns = quick_median_ns(
        9,
        400,
        &mut h,
        |h| {
            h.ck.load_mapping(
                k,
                sp,
                Vaddr(0x2000),
                Paddr(PAGE_GROUP_SIZE),
                Pte::WRITABLE,
                None,
                None,
                &mut h.mpm,
            )
            .unwrap_err();
        },
        |h| {
            h.ck.drain_events();
        },
    );
    (granted_ns, denied_ns)
}

fn caps() {
    println!("## Capability enforcement — granted path vs violation path\n");
    let (off_granted, off_denied) = caps_cell(false);
    let (on_granted, on_denied) = caps_cell(true);
    let overhead_pct = (on_granted - off_granted) / off_granted * 100.0;
    println!("| path                    | caps off | caps on |");
    println!("|-------------------------|---------:|--------:|");
    println!("| granted mapping load    | {off_granted:7.0}ns | {on_granted:6.0}ns |");
    println!("| denied  mapping load    | {off_denied:7.0}ns | {on_denied:6.0}ns |");
    println!(
        "\ngranted-path overhead with enforcement on: {overhead_pct:+.1}% \
         (the check is the same branch either way; only the error path\n\
         gains the violation event and counter)\n"
    );
    write_json(
        "caps",
        &[
            ("granted_ns_caps_off", jf(off_granted)),
            ("granted_ns_caps_on", jf(on_granted)),
            ("granted_overhead_pct", jf(overhead_pct)),
            ("denied_ns_caps_off", jf(off_denied)),
            ("denied_ns_caps_on", jf(on_denied)),
            (
                "pinned_adversarial_seeds",
                jarr(vec![
                    "\"0x00C0_FFEE_DEAD_BEEF\"".into(),
                    "\"0x9E37_79B9_7F4A_7C15\"".into(),
                ]),
            ),
        ],
    );
}

// ---------------------------------------------------------------------
// JSON artifacts (`--json`): hand-rolled writer, no serialization dep.
// ---------------------------------------------------------------------

static JSON: AtomicBool = AtomicBool::new(false);

/// Write `BENCH_<section>.json` when `--json` was passed. `fields` are
/// (key, already-encoded JSON value) pairs.
fn write_json(section: &str, fields: &[(&str, String)]) {
    if !JSON.load(Ordering::Relaxed) {
        return;
    }
    let body = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let path = format!("BENCH_{section}.json");
    if let Err(e) = std::fs::write(&path, format!("{{\n{body}\n}}\n")) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("[wrote {path}]");
    }
}

fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn jarr(items: Vec<String>) -> String {
    format!("[{}]", items.join(", "))
}

fn jobj(fields: &[(&str, String)]) -> String {
    let body = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Where a wall-clock artifact was captured — core count, compiler and
/// commit — as (key, JSON value) pairs: a threaded number means nothing
/// without the first, and cannot be reproduced without the other two.
fn host_stamp() -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok();
        let line = out
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        format!("\"{}\"", line.unwrap_or_else(|| "unknown".into()))
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", run("rustc", &["--version"])),
        ("commit", run("git", &["describe", "--always", "--dirty"])),
    ]
}

/// The pinned seeds `scripts/check.sh` replays for the messaging
/// properties; recorded in every artifact so a number can be traced to
/// the exact gated scenario set.
fn pinned_seeds() -> String {
    jarr(vec![
        "\"0xC4E5_1994\"".into(),
        "\"0x51B_BA7C_0FEE\"".into(),
        "\"0..32\"".into(),
    ])
}

// ---------------------------------------------------------------------
// T1 — Table 1: object sizes and cache sizes
// ---------------------------------------------------------------------
fn table1() {
    println!("## Table 1 — Cache Kernel object sizes (bytes) and cache sizes\n");
    println!("| Object      | paper size | our size | paper cache | our cache |");
    println!("|-------------|-----------:|---------:|------------:|----------:|");
    let cfg = CkConfig::default();
    println!(
        "| Kernel      | {:>10} | {:>8} | {:>11} | {:>9} |",
        2160,
        core::mem::size_of::<KernelDesc>(),
        16,
        cfg.kernel_slots
    );
    println!(
        "| AddrSpace   | {:>10} | {:>8} | {:>11} | {:>9} |",
        60,
        core::mem::size_of::<SpaceDesc>() + 3 * core::mem::size_of::<usize>() + 16,
        64,
        cfg.space_slots
    );
    println!(
        "| Thread      | {:>10} | {:>8} | {:>11} | {:>9} |",
        532,
        core::mem::size_of::<ThreadDesc>(),
        256,
        cfg.thread_slots
    );
    println!(
        "| MemMapEntry | {:>10} | {:>8} | {:>11} | {:>9} |",
        16,
        core::mem::size_of::<cache_kernel::DepRecord>(),
        65536,
        cfg.mapping_capacity
    );
    println!("\n(AddrSpace row: root object = lock/owner state plus the page-table");
    println!("root pointer, as in the paper; the page tables themselves are");
    println!("accounted in the §5.2 overhead section.)\n");
}

// ---------------------------------------------------------------------
// T2 — Table 2: basic operation costs
// ---------------------------------------------------------------------

/// Per-cell scratch: the harness plus the ids the op cycles through.
struct T2State {
    h: Bench,
    sp: Option<cache_kernel::ObjId>,
    id: Option<cache_kernel::ObjId>,
    next: u32,
}

/// Measure one operation in host-ns and simulated-µs on fresh state.
fn t2_cell(
    mut setup: impl FnMut() -> T2State,
    mut op: impl FnMut(&mut T2State),
    mut reset: impl FnMut(&mut T2State),
) -> (f64, f64) {
    // Simulated cost: one run on a fresh harness.
    let mut st = setup();
    let c0 = st.h.mpm.clock.cycles();
    op(&mut st);
    let sim_us = (st.h.mpm.clock.cycles() - c0) as f64 / st.h.mpm.config.cost.cycles_per_us as f64;
    // Host cost: median over repeated op/reset cycles.
    let mut st = setup();
    let ns = quick_median_ns(9, 200, &mut st, |st| op(st), |st| reset(st));
    (ns, sim_us)
}

fn table2() {
    println!("## Table 2 — basic operations, elapsed time\n");
    println!("paper µs on a 25 MHz 68040; ours as host-ns (this machine) and");
    println!("simulated-µs (cost model at 25 cycles/µs)\n");
    println!("| Object (op)            | paper µs | host ns | sim µs |");
    println!("|------------------------|---------:|--------:|-------:|");

    let row = |label: &str, paper: &str, (ns, us): (f64, f64)| {
        println!("| {label:<22} | {paper:>8} | {ns:>7.0} | {us:>6.1} |");
    };

    const VA: Vaddr = Vaddr(0x10_0000);
    const PA: Paddr = Paddr(0x40_0000);

    let fresh = || T2State {
        h: Bench::new(),
        sp: None,
        id: None,
        next: 0,
    };
    let with_space = || {
        let mut st = fresh();
        st.sp = Some(
            st.h.ck
                .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                .unwrap(),
        );
        st
    };
    let kdesc = || KernelDesc {
        memory_access: MemoryAccessArray::all(),
        ..KernelDesc::default()
    };

    // Mappings.
    row(
        "Mapping load",
        "45",
        t2_cell(
            with_space,
            |st| {
                st.h.ck
                    .load_mapping(
                        st.h.srm,
                        st.sp.unwrap(),
                        VA,
                        PA,
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut st.h.mpm,
                    )
                    .unwrap();
            },
            |st| {
                st.h.ck
                    .unload_mapping_range(st.h.srm, st.sp.unwrap(), VA, PAGE_SIZE, &mut st.h.mpm)
                    .unwrap();
            },
        ),
    );
    row(
        "Mapping load + wb",
        "145",
        t2_cell(
            || {
                let mut st = T2State {
                    h: Bench::with_config(
                        CkConfig {
                            mapping_capacity: 256,
                            ..CkConfig::default()
                        },
                        16 * 1024,
                    ),
                    sp: None,
                    id: None,
                    next: 256,
                };
                let sp =
                    st.h.ck
                        .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                        .unwrap();
                for i in 0..256u32 {
                    st.h.ck
                        .load_mapping(
                            st.h.srm,
                            sp,
                            Vaddr(0x10_0000 + i * PAGE_SIZE),
                            Paddr(0x40_0000 + i * PAGE_SIZE),
                            Pte::CACHEABLE,
                            None,
                            None,
                            &mut st.h.mpm,
                        )
                        .unwrap();
                }
                st.sp = Some(sp);
                st
            },
            |st| {
                st.h.ck
                    .load_mapping(
                        st.h.srm,
                        st.sp.unwrap(),
                        Vaddr(0x10_0000 + st.next * PAGE_SIZE),
                        Paddr(0x40_0000 + (st.next % 1024) * PAGE_SIZE),
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut st.h.mpm,
                    )
                    .unwrap();
                st.next += 1;
            },
            |st| {
                st.h.ck.take_writebacks();
            },
        ),
    );
    row(
        "Mapping unload",
        "160",
        t2_cell(
            || {
                let mut st = with_space();
                st.h.ck
                    .load_mapping(
                        st.h.srm,
                        st.sp.unwrap(),
                        VA,
                        PA,
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut st.h.mpm,
                    )
                    .unwrap();
                st
            },
            |st| {
                st.h.ck
                    .unload_mapping_range(st.h.srm, st.sp.unwrap(), VA, PAGE_SIZE, &mut st.h.mpm)
                    .unwrap();
            },
            |st| {
                st.h.ck
                    .load_mapping(
                        st.h.srm,
                        st.sp.unwrap(),
                        VA,
                        PA,
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut st.h.mpm,
                    )
                    .unwrap();
            },
        ),
    );
    row(
        "Mapping load (optim.)",
        "67",
        t2_cell(
            with_space,
            |st| {
                st.h.ck
                    .load_mapping_and_resume(
                        st.h.srm,
                        st.sp.unwrap(),
                        VA,
                        PA,
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut st.h.mpm,
                        0,
                    )
                    .unwrap();
            },
            |st| {
                st.h.ck
                    .unload_mapping_range(st.h.srm, st.sp.unwrap(), VA, PAGE_SIZE, &mut st.h.mpm)
                    .unwrap();
            },
        ),
    );

    // Threads.
    row(
        "Thread load",
        "113",
        t2_cell(
            with_space,
            |st| {
                st.id = Some(
                    st.h.ck
                        .load_thread(
                            st.h.srm,
                            ThreadDesc::new(st.sp.unwrap(), 1, 5),
                            false,
                            &mut st.h.mpm,
                        )
                        .unwrap(),
                );
            },
            |st| {
                st.h.ck
                    .unload_thread(st.h.srm, st.id.take().unwrap(), &mut st.h.mpm)
                    .unwrap();
            },
        ),
    );
    row(
        "Thread load + wb",
        "489",
        t2_cell(
            || {
                let mut st = T2State {
                    h: Bench::with_config(
                        CkConfig {
                            thread_slots: 64,
                            ..CkConfig::default()
                        },
                        16 * 1024,
                    ),
                    sp: None,
                    id: None,
                    next: 0,
                };
                let sp =
                    st.h.ck
                        .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                        .unwrap();
                for _ in 0..64 {
                    st.h.ck
                        .load_thread(st.h.srm, ThreadDesc::new(sp, 1, 5), false, &mut st.h.mpm)
                        .unwrap();
                }
                st.sp = Some(sp);
                st
            },
            |st| {
                st.h.ck
                    .load_thread(
                        st.h.srm,
                        ThreadDesc::new(st.sp.unwrap(), 1, 5),
                        false,
                        &mut st.h.mpm,
                    )
                    .unwrap();
            },
            |st| {
                st.h.ck.take_writebacks();
            },
        ),
    );
    row(
        "Thread unload",
        "206",
        t2_cell(
            || {
                let mut st = with_space();
                st.id = Some(
                    st.h.ck
                        .load_thread(
                            st.h.srm,
                            ThreadDesc::new(st.sp.unwrap(), 1, 5),
                            false,
                            &mut st.h.mpm,
                        )
                        .unwrap(),
                );
                st
            },
            |st| {
                st.h.ck
                    .unload_thread(st.h.srm, st.id.take().unwrap(), &mut st.h.mpm)
                    .unwrap();
            },
            |st| {
                st.id = Some(
                    st.h.ck
                        .load_thread(
                            st.h.srm,
                            ThreadDesc::new(st.sp.unwrap(), 1, 5),
                            false,
                            &mut st.h.mpm,
                        )
                        .unwrap(),
                );
            },
        ),
    );

    // Address spaces.
    row(
        "AddrSpace load",
        "101",
        t2_cell(
            fresh,
            |st| {
                st.id = Some(
                    st.h.ck
                        .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                        .unwrap(),
                );
            },
            |st| {
                st.h.ck
                    .unload_space(st.h.srm, st.id.take().unwrap(), &mut st.h.mpm)
                    .unwrap();
            },
        ),
    );
    row(
        "AddrSpace load + wb",
        "229",
        t2_cell(
            || {
                let mut st = T2State {
                    h: Bench::with_config(
                        CkConfig {
                            space_slots: 16,
                            ..CkConfig::default()
                        },
                        16 * 1024,
                    ),
                    sp: None,
                    id: None,
                    next: 0,
                };
                for i in 0..16u32 {
                    let sp =
                        st.h.ck
                            .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                            .unwrap();
                    for p in 0..2u32 {
                        st.h.ck
                            .load_mapping(
                                st.h.srm,
                                sp,
                                Vaddr(0x10_0000 + p * PAGE_SIZE),
                                Paddr(0x40_0000 + (i * 2 + p) * PAGE_SIZE),
                                Pte::CACHEABLE,
                                None,
                                None,
                                &mut st.h.mpm,
                            )
                            .unwrap();
                    }
                }
                st
            },
            |st| {
                st.h.ck
                    .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                    .unwrap();
            },
            |st| {
                st.h.ck.take_writebacks();
            },
        ),
    );
    row(
        "AddrSpace unload",
        "152",
        t2_cell(
            || {
                let mut st = fresh();
                st.id = Some(
                    st.h.ck
                        .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                        .unwrap(),
                );
                st
            },
            |st| {
                st.h.ck
                    .unload_space(st.h.srm, st.id.take().unwrap(), &mut st.h.mpm)
                    .unwrap();
            },
            |st| {
                st.id = Some(
                    st.h.ck
                        .load_space(st.h.srm, SpaceDesc::default(), &mut st.h.mpm)
                        .unwrap(),
                );
            },
        ),
    );

    // Kernels.
    row(
        "Kernel load",
        "244",
        t2_cell(
            fresh,
            |st| {
                st.id = Some(
                    st.h.ck
                        .load_kernel(st.h.srm, kdesc(), &mut st.h.mpm)
                        .unwrap(),
                );
            },
            |st| {
                st.h.ck
                    .unload_kernel(st.h.srm, st.id.take().unwrap(), &mut st.h.mpm)
                    .unwrap();
            },
        ),
    );
    row(
        "Kernel load + wb",
        "291",
        t2_cell(
            || {
                let mut st = fresh();
                for _ in 0..15 {
                    st.h.ck
                        .load_kernel(st.h.srm, kdesc(), &mut st.h.mpm)
                        .unwrap();
                }
                st
            },
            |st| {
                st.h.ck
                    .load_kernel(st.h.srm, kdesc(), &mut st.h.mpm)
                    .unwrap();
            },
            |st| {
                st.h.ck.take_writebacks();
            },
        ),
    );
    row(
        "Kernel unload",
        "80",
        t2_cell(
            || {
                let mut st = fresh();
                st.id = Some(
                    st.h.ck
                        .load_kernel(st.h.srm, kdesc(), &mut st.h.mpm)
                        .unwrap(),
                );
                st
            },
            |st| {
                st.h.ck
                    .unload_kernel(st.h.srm, st.id.take().unwrap(), &mut st.h.mpm)
                    .unwrap();
            },
            |st| {
                st.id = Some(
                    st.h.ck
                        .load_kernel(st.h.srm, kdesc(), &mut st.h.mpm)
                        .unwrap(),
                );
            },
        ),
    );

    println!("\nShape checks: mapping load is the cheapest op; writeback adds");
    println!("substantially to every load; kernel load is the most expensive");
    println!("load; kernel unload (no dependents) is cheap.\n");
}

// ---------------------------------------------------------------------
// E-trap — §5.3 trap cost
// ---------------------------------------------------------------------
fn trap() {
    println!("## §5.3 — trap to emulator (getpid)\n");
    let mut h = Bench::new();
    let sp =
        h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
            .unwrap();
    let t =
        h.ck.load_thread(h.srm, ThreadDesc::new(sp, 1, 5), false, &mut h.mpm)
            .unwrap();
    let c0 = h.mpm.clock.cycles();
    h.ck.begin_trap_forward(&mut h.mpm, 0, t.slot, 20, [0; 4])
        .unwrap();
    h.ck.end_forward(&mut h.mpm, 0);
    let sim = (h.mpm.clock.cycles() - c0) as f64 / h.mpm.config.cost.cycles_per_us as f64;
    h.ck.drain_events();
    let ns = quick_median_ns(
        9,
        500,
        &mut h,
        |h| {
            h.ck.begin_trap_forward(&mut h.mpm, 0, t.slot, 20, [0; 4])
                .unwrap();
            h.ck.end_forward(&mut h.mpm, 0);
        },
        |h| {
            h.ck.drain_events();
        },
    );
    println!("paper: 37 µs round trip (12 µs more than Mach 2.5 on comparable hw)");
    println!("ours : {ns:.0} ns host, {sim:.1} µs simulated\n");
}

// ---------------------------------------------------------------------
// E-signal — §5.3 signal delivery
// ---------------------------------------------------------------------
fn signal() {
    println!("## §5.3 — memory-based-message signal delivery\n");
    let mut h = Bench::new();
    let sp =
        h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
            .unwrap();
    let t =
        h.ck.load_thread(h.srm, ThreadDesc::new(sp, 1, 20), false, &mut h.mpm)
            .unwrap();
    h.ck.load_mapping(
        h.srm,
        sp,
        Vaddr(0xa000),
        Paddr(0x40_0000),
        Pte::MESSAGE,
        Some(t),
        None,
        &mut h.mpm,
    )
    .unwrap();
    // Warm.
    h.ck.raise_signal(&mut h.mpm, 0, Paddr(0x40_0000));
    h.ck.take_signal(t.slot);
    h.ck.signal_return(t.slot);

    let c0 = h.mpm.clock.cycles();
    h.ck.raise_signal(&mut h.mpm, 0, Paddr(0x40_0000));
    let sim_deliver = (h.mpm.clock.cycles() - c0) as f64 / h.mpm.config.cost.cycles_per_us as f64;
    h.ck.take_signal(t.slot);
    h.ck.signal_return(t.slot);

    let deliver_ns = quick_median_ns(
        9,
        500,
        &mut h,
        |h| {
            h.ck.raise_signal(&mut h.mpm, 0, Paddr(0x40_0000));
        },
        |h| {
            h.ck.take_signal(t.slot);
            h.ck.signal_return(t.slot);
            h.ck.drain_events();
        },
    );
    let return_ns = quick_median_ns(
        9,
        500,
        &mut h,
        |h| {
            h.ck.take_signal(t.slot);
            h.ck.signal_return(t.slot);
        },
        |h| {
            h.ck.raise_signal(&mut h.mpm, 0, Paddr(0x40_0000));
            h.ck.drain_events();
        },
    );
    println!("paper: 71 µs total = 44 µs delivery + 27 µs return-from-handler");
    println!(
        "ours : delivery {deliver_ns:.0} ns host / {sim_deliver:.1} µs sim; return {return_ns:.0} ns host"
    );
    println!(
        "       fast-path deliveries so far: {} fast vs {} slow\n",
        h.ck.stats.signals_fast, h.ck.stats.signals_slow
    );
    write_json(
        "signal",
        &[
            ("paper_total_us", "71".into()),
            ("deliver_ns_host", jf(deliver_ns)),
            ("return_ns_host", jf(return_ns)),
            ("deliver_us_sim", jf(sim_deliver)),
            ("signals_fast", h.ck.stats.signals_fast.to_string()),
            ("signals_slow", h.ck.stats.signals_slow.to_string()),
            ("pinned_seeds", pinned_seeds()),
        ],
    );
}

// ---------------------------------------------------------------------
// E-fault — §5.3 page-fault cost
// ---------------------------------------------------------------------
fn fault() {
    println!("## §5.3 — page-fault handling\n");
    let mut h = Bench::new();
    let sp =
        h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
            .unwrap();
    let t =
        h.ck.load_thread(h.srm, ThreadDesc::new(sp, 1, 5), false, &mut h.mpm)
            .unwrap();
    let asid = CacheKernel::asid_of(sp);
    let va = Vaddr(0x10_0000);
    let pa = Paddr(0x40_0000);

    // One simulated pass, component by component.
    let c0 = h.mpm.clock.cycles();
    let fault = {
        let pt = h.ck.page_table_mut(sp).unwrap();
        h.mpm.translate(0, asid, pt, va, Access::Write).unwrap_err()
    };
    h.ck.begin_fault_forward(&mut h.mpm, 0, t.slot, fault)
        .unwrap();
    let c_transfer = h.mpm.clock.cycles();
    h.ck.load_mapping_and_resume(
        h.srm,
        sp,
        va,
        pa,
        Pte::WRITABLE | Pte::CACHEABLE,
        None,
        None,
        &mut h.mpm,
        0,
    )
    .unwrap();
    {
        let pt = h.ck.page_table_mut(sp).unwrap();
        h.mpm.translate(0, asid, pt, va, Access::Write).unwrap();
    }
    let c_end = h.mpm.clock.cycles();
    let per_us = h.mpm.config.cost.cycles_per_us as f64;
    println!("paper: 99 µs = 32 µs transfer to app kernel + 67 µs optimized load");
    println!(
        "ours (simulated): {:.1} µs total = {:.1} µs transfer + {:.1} µs resolve+resume",
        (c_end - c0) as f64 / per_us,
        (c_transfer - c0) as f64 / per_us,
        (c_end - c_transfer) as f64 / per_us
    );
    // Reset for the host-time measurement.
    h.ck.unload_mapping_range(h.srm, sp, va, PAGE_SIZE, &mut h.mpm)
        .unwrap();
    h.ck.drain_events();

    let ns = quick_median_ns(
        9,
        200,
        &mut h,
        |h| {
            let fault = {
                let pt = h.ck.page_table_mut(sp).unwrap();
                h.mpm.translate(0, asid, pt, va, Access::Write).unwrap_err()
            };
            h.ck.begin_fault_forward(&mut h.mpm, 0, t.slot, fault)
                .unwrap();
            h.ck.load_mapping_and_resume(
                h.srm,
                sp,
                fault.vaddr.page_base(),
                pa,
                Pte::WRITABLE | Pte::CACHEABLE,
                None,
                None,
                &mut h.mpm,
                0,
            )
            .unwrap();
            let pt = h.ck.page_table_mut(sp).unwrap();
            h.mpm.translate(0, asid, pt, va, Access::Write).unwrap();
        },
        |h| {
            h.ck.unload_mapping_range(h.srm, sp, va, PAGE_SIZE, &mut h.mpm)
                .unwrap();
            h.ck.drain_events();
        },
    );
    println!("ours (host): {ns:.0} ns per full fault round trip\n");
}

// ---------------------------------------------------------------------
// E-size — §5.1 code size
// ---------------------------------------------------------------------
fn size() {
    println!("## §5.1 — code size\n");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let loc = |rel: &str| count_loc(&root.join(rel));
    let vm_core = ["ck.rs", "physmap.rs", "reclaim.rs", "fault.rs"]
        .iter()
        .map(|f| loc(&format!("crates/cache-kernel/src/{f}")))
        .sum::<usize>();
    println!("paper: Cache Kernel VM code ≈ 1,500 lines C++ vs V kernel 13,087 /");
    println!("       SunOS 14,400 / Mach 20,000+ / Ultrix 23,400; whole Cache");
    println!("       Kernel 14,958 lines (40% of it PROM monitor/boot support);");
    println!("       binary 139 KB.\n");
    println!("| subsystem                  | non-test LoC |");
    println!("|----------------------------|-------------:|");
    for (name, n) in [
        ("cache-kernel (supervisor)", loc("crates/cache-kernel/src")),
        ("  of which VM+fault core", vm_core),
        ("hw substrate (\"hardware\")", loc("crates/hw/src")),
        ("libkern class libraries", loc("crates/libkern/src")),
        ("unix emulator", loc("crates/unix-emu/src")),
        ("srm", loc("crates/srm/src")),
        ("sim-kernel (MP3D + DES)", loc("crates/sim-kernel/src")),
        ("db-kernel", loc("crates/db-kernel/src")),
        ("workloads", loc("crates/workloads/src")),
        ("every crate under crates/", loc("crates")),
    ] {
        println!("| {name:<26} | {n:>12} |");
    }
    println!("\nShape: the supervisor-mode component stays small; policy bulk");
    println!("(paging, scheduling, swapping, fs) lives in application kernels.\n");
}

// ---------------------------------------------------------------------
// E-cache — §5.2 replacement interference sweep
// ---------------------------------------------------------------------
fn cache_sweep() {
    println!("## §5.2 — replacement interference vs. working-set size\n");
    println!("mapping descriptor pool = 512; cyclic access to W pages; reload");
    println!("rate should stay ~0 until W crosses the pool size, then thrash:\n");
    println!("| working set W | reloads/access |");
    println!("|--------------:|---------------:|");
    for ws in [64u32, 128, 256, 384, 448, 512, 576, 640, 768, 1024] {
        let mut h = Bench::with_config(
            CkConfig {
                mapping_capacity: 512,
                ..CkConfig::default()
            },
            16 * 1024,
        );
        let sp =
            h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                .unwrap();
        let mut reloads = 0u64;
        let mut accesses = 0u64;
        let rounds = 6;
        for _ in 0..rounds {
            for p in 0..ws {
                accesses += 1;
                let va = Vaddr(0x10_0000 + p * PAGE_SIZE);
                if h.ck.query_mapping(h.srm, sp, va).is_err() {
                    reloads += 1;
                    h.ck.load_mapping(
                        h.srm,
                        sp,
                        va,
                        Paddr(0x40_0000 + (p % 2048) * PAGE_SIZE),
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut h.mpm,
                    )
                    .unwrap();
                }
                h.ck.take_writebacks();
            }
        }
        // Discount the compulsory first-round loads.
        let steady = reloads.saturating_sub(ws as u64) as f64 / (accesses - ws as u64) as f64;
        println!("| {ws:>13} | {steady:>14.3} |");
    }
    println!();

    // Same experiment for thread descriptors: "a system that is actively
    // switching among more than 256 threads is incurring a context
    // switching overhead that would dominate the cost of loading and
    // unloading thread descriptors" — pool of 64 here for speed.
    println!("thread descriptor pool = 64; round-robin dispatch of W logical");
    println!("threads, reload on displacement:\n");
    println!("| logical threads W | reloads/dispatch |");
    println!("|------------------:|-----------------:|");
    for w in [16u32, 32, 48, 64, 80, 96, 128] {
        let mut h = Bench::with_config(
            CkConfig {
                thread_slots: 64,
                ..CkConfig::default()
            },
            16 * 1024,
        );
        let sp =
            h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                .unwrap();
        // The application kernel's view: logical thread -> current id.
        let mut ids: Vec<Option<cache_kernel::ObjId>> = vec![None; w as usize];
        let mut reloads = 0u64;
        let mut dispatches = 0u64;
        let rounds = 6;
        for _ in 0..rounds {
            for (i, slot) in ids.iter_mut().enumerate() {
                dispatches += 1;
                let current = slot.map(|id| h.ck.thread(id).is_ok()).unwrap_or(false);
                if !current {
                    reloads += 1;
                    *slot = Some(
                        h.ck.load_thread(
                            h.srm,
                            ThreadDesc::new(sp, i as u32, 5),
                            false,
                            &mut h.mpm,
                        )
                        .unwrap(),
                    );
                    h.ck.take_writebacks();
                }
                // "Dispatch": touch the descriptor (clock reference bit).
                if let Some(id) = slot {
                    let _ = h.ck.thread(*id);
                }
            }
        }
        let steady = reloads.saturating_sub(w.min(64) as u64) as f64
            / (dispatches - w.min(64) as u64) as f64;
        println!("| {w:>17} | {steady:>16.3} |");
    }
    println!();
}

// ---------------------------------------------------------------------
// E-ovh — §5.2 space overhead
// ---------------------------------------------------------------------
fn overhead() {
    println!("## §5.2 — mapping descriptor and page-table space overhead\n");
    let mut h = Bench::with_config(
        CkConfig {
            mapping_capacity: 65_536,
            ..CkConfig::default()
        },
        64 * 1024,
    );
    let sp =
        h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
            .unwrap();
    let pages = 4096u32;
    for p in 0..pages {
        h.ck.load_mapping(
            h.srm,
            sp,
            Vaddr(0x10_0000 + p * PAGE_SIZE),
            Paddr(0x100_0000 + p * PAGE_SIZE),
            Pte::CACHEABLE,
            None,
            None,
            &mut h.mpm,
        )
        .unwrap();
    }
    let mapped = pages as u64 * PAGE_SIZE as u64;
    let desc_bytes = h.ck.physmap.bytes() as u64;
    let pt_bytes = h.ck.page_table(sp).unwrap().table_bytes() as u64;
    println!("mapped {pages} clustered pages = {} KiB", mapped / 1024);
    println!(
        "mapping descriptors : {} KiB ({:.2}% of mapped space; paper: 0.4%)",
        desc_bytes / 1024,
        desc_bytes as f64 * 100.0 / mapped as f64
    );
    println!(
        "page tables         : {} KiB ({:.2}%; paper: descriptors are 2–4x the tables)",
        pt_bytes / 1024,
        pt_bytes as f64 * 100.0 / mapped as f64
    );
    println!(
        "descriptor/table ratio: {:.1}x\n",
        desc_bytes as f64 / pt_bytes as f64
    );
}

// ---------------------------------------------------------------------
// E-mp3d — §5.2 locality experiment
// ---------------------------------------------------------------------
fn mp3d() {
    println!("## §5.2 — MP3D page locality\n");
    let (local, scattered, slowdown) = locality_comparison(Mp3dConfig {
        cells: 128,
        particles_per_cell: 16,
        sweeps: 3,
        workers: 4,
        l2_bytes: 16 * 1024,
        ..Mp3dConfig::default()
    });
    println!("| layout            | sim cycles | L2 hit | TLB miss | faults |");
    println!("|-------------------|-----------:|-------:|---------:|-------:|");
    println!(
        "| per-cell (copied) | {:>10} | {:>5.1}% | {:>7.2}% | {:>6} |",
        local.cycles,
        local.l2_hit_rate * 100.0,
        local.tlb_miss_rate * 100.0,
        local.faults
    );
    println!(
        "| scattered pages   | {:>10} | {:>5.1}% | {:>7.2}% | {:>6} |",
        scattered.cycles,
        scattered.l2_hit_rate * 100.0,
        scattered.tlb_miss_rate * 100.0,
        scattered.faults
    );
    println!("\nslowdown {slowdown:.2}x — paper: \"up to a 25 percent degradation\"; fixed by");
    println!("copying particles for page locality (our per-cell layout).\n");
}

// ---------------------------------------------------------------------
// §3 — distributed MP3D: particle migration across MPMs
// ---------------------------------------------------------------------
fn dist() {
    println!("## §3 — distributed MP3D (particles migrate between MPMs)\n");
    let cfg = sim_kernel::dist::DistConfig {
        nodes: 3,
        particles_per_node: 48,
        sweeps: 3,
        ..sim_kernel::dist::DistConfig::default()
    };
    let r = sim_kernel::dist::run_distributed(&cfg);
    println!("3 nodes x 48 particles, 3 sweeps, single-owner bands:\n");
    println!("| node | final particles | sent | received |");
    println!("|-----:|----------------:|-----:|---------:|");
    for i in 0..cfg.nodes {
        println!(
            "| {:>4} | {:>15} | {:>4} | {:>8} |",
            i, r.per_node[i], r.migrations_out[i], r.migrations_in[i]
        );
    }
    println!(
        "\ntotal {} particles conserved; {} migrations over the fabric",
        r.total(),
        r.migrations()
    );
    println!("(paper: MP3D \"can use … significant communication bandwidth to");
    println!("move particles when executed across multiple nodes\")\n");
    assert!(r.completed && r.total() == 144);
}

// ---------------------------------------------------------------------
// A-policy — §1 application-controlled replacement
// ---------------------------------------------------------------------
fn policy() {
    println!("## §1 — application-controlled page replacement (db kernel)\n");
    let run_one = |p: Policy, ops: &[DbOp]| {
        let mut ck = CacheKernel::new(CkConfig::default());
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 4096,
            l2_bytes: 256 * 1024,
            clock_interval: u64::MAX / 4,
            ..MachineConfig::default()
        });
        let me = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let mut db = DbKernel::create(&mut ck, &mut mpm, me, 64, 16, 64..1024, p).unwrap();
        db.run(&mut ck, &mut mpm, ops).unwrap()
    };
    let scans: Vec<DbOp> = (0..5).map(|_| DbOp::Scan).collect();
    let mixed: Vec<DbOp> = workloads::mixed_stream(64, 4, 12, 2, 8)
        .into_iter()
        .map(DbOp::Lookup)
        .collect();
    for (name, ops) in [
        ("cyclic scans", &scans[..]),
        ("hot set + scans", &mixed[..]),
    ] {
        println!("workload: {name}  (table 64 pages, pool 16)\n");
        println!("| policy               | disk reads | hit rate | sim Mcycles |");
        println!("|----------------------|-----------:|---------:|------------:|");
        for p in Policy::all() {
            let r = run_one(p, ops);
            println!(
                "| {:<20} | {:>10} | {:>7.1}% | {:>11.1} |",
                p.name(),
                r.disk_reads,
                r.hit_rate() * 100.0,
                r.cycles as f64 / 1e6
            );
        }
        println!();
    }
}

// ---------------------------------------------------------------------
// A-quota — §4.3 graduated charging and demotion
// ---------------------------------------------------------------------
fn quota() {
    println!("## §4.3 — processor quota enforcement\n");
    let mut ck = CacheKernel::new(CkConfig::default());
    let mut mpm = Mpm::new(MachineConfig {
        phys_frames: 4096,
        l2_bytes: 256 * 1024,
        clock_interval: 25_000,
        ..MachineConfig::default()
    });
    let srm = ck.boot(KernelDesc {
        memory_access: MemoryAccessArray::all(),
        ..KernelDesc::default()
    });
    let mk = |q: u8| KernelDesc {
        memory_access: MemoryAccessArray::all(),
        cpu_quota_pct: [q; cache_kernel::MAX_CPUS],
        ..KernelDesc::default()
    };
    let rogue = ck.load_kernel(srm, mk(15), &mut mpm).unwrap();
    let polite = ck.load_kernel(srm, mk(60), &mut mpm).unwrap();
    let mut ex = Executive::new(ck, mpm);
    ex.register_kernel(srm, Box::new(NullKernel));
    ex.register_kernel(rogue, Box::new(NullKernel));
    ex.register_kernel(polite, Box::new(NullKernel));
    let rsp = ex
        .ck
        .load_space(rogue, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    let psp = ex
        .ck
        .load_space(polite, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    ex.spawn_thread(
        rogue,
        rsp,
        Box::new(FnProgram(|_: &mut ThreadCtx| Step::Compute(3_000))),
        20,
    )
    .unwrap();
    ex.spawn_thread(
        polite,
        psp,
        Box::new(FnProgram({
            let mut n = 0u64;
            move |_: &mut ThreadCtx| {
                n += 1;
                if n.is_multiple_of(2) {
                    Step::Yield
                } else {
                    Step::Compute(200)
                }
            }
        })),
        10,
    )
    .unwrap();

    println!("rogue quota 15%, polite quota 60%; rogue runs flat out:\n");
    println!("| quanta | rogue usage | rogue demoted | polite demoted |");
    println!("|-------:|------------:|:-------------:|:--------------:|");
    for step in 1..=6 {
        ex.run(100);
        let period = ex.ck.config.accounting_period;
        println!(
            "| {:>6} | {:>10.1}% | {:^13} | {:^14} |",
            step * 100,
            ex.ck.kernel_usage_pct(rogue, 0, period),
            ex.ck.kernel_demoted(rogue),
            ex.ck.kernel_demoted(polite)
        );
    }
    println!("\npaper: \"If a kernel exceeds its allocation … threads on that");
    println!("processor are reduced to a low priority so that they only run");
    println!("when the processor is otherwise idle.\"\n");
}

// ---------------------------------------------------------------------
// A-rtlb — §4.1 reverse-TLB ablation
// ---------------------------------------------------------------------
fn rtlb() {
    println!("## §4.1 — reverse-TLB fast path ablation\n");
    let run_one = |enabled: bool| {
        let mut h = Bench::new();
        let sp =
            h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                .unwrap();
        let t =
            h.ck.load_thread(h.srm, ThreadDesc::new(sp, 1, 20), false, &mut h.mpm)
                .unwrap();
        h.ck.load_mapping(
            h.srm,
            sp,
            Vaddr(0xa000),
            Paddr(0x40_0000),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut h.mpm,
        )
        .unwrap();
        for cpu in h.mpm.cpus.iter_mut() {
            cpu.rtlb.set_enabled(enabled);
        }
        // Warm, then measure 1000 deliveries in simulated cycles.
        h.ck.raise_signal(&mut h.mpm, 0, Paddr(0x40_0000));
        h.ck.take_signal(t.slot);
        let c0 = h.mpm.clock.cycles();
        for _ in 0..1000 {
            h.ck.raise_signal(&mut h.mpm, 0, Paddr(0x40_0000));
            h.ck.take_signal(t.slot);
            h.ck.signal_return(t.slot);
        }
        let per = (h.mpm.clock.cycles() - c0) as f64 / 1000.0;
        (per, h.ck.stats.signals_fast, h.ck.stats.signals_slow)
    };
    let (on, fast_on, slow_on) = run_one(true);
    let (off, fast_off, slow_off) = run_one(false);
    println!("| reverse TLB | cycles/delivery | fast | slow |");
    println!("|-------------|----------------:|-----:|-----:|");
    println!("| enabled     | {on:>15.1} | {fast_on:>4} | {slow_on:>4} |");
    println!("| disabled    | {off:>15.1} | {fast_off:>4} | {slow_off:>4} |");
    println!(
        "\nfast path saves {:.1}% per delivery (paper: two-stage lookup cost is\n\"dominated by rescheduling\" only for inactive receivers).\n",
        (off - on) * 100.0 / off
    );
}

// ---------------------------------------------------------------------
// A-teardown — batched TLB/rTLB shootdowns on compound operations
// ---------------------------------------------------------------------
fn teardown() {
    println!("## Batched shootdowns — compound teardown and range unload\n");
    println!("Eager shootdowns broadcast one cross-CPU round per page; the batch");
    println!("layer issues one round per compound operation. \"eager rounds\" is");
    println!("what the per-page discipline would have paid (= pages flushed).\n");

    let build = |pages: u32, stride: u32| {
        let mut h = Bench::with_config(
            CkConfig {
                space_slots: 8,
                mapping_capacity: 1024,
                ..CkConfig::default()
            },
            16 * 1024,
        );
        let sp =
            h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                .unwrap();
        for i in 0..pages {
            h.ck.load_mapping(
                h.srm,
                sp,
                Vaddr(0x10_0000 + i * stride * PAGE_SIZE),
                Paddr(0x40_0000 + i * PAGE_SIZE),
                Pte::CACHEABLE,
                None,
                None,
                &mut h.mpm,
            )
            .unwrap();
        }
        (h, sp)
    };

    println!("space teardown (threads=0):\n");
    println!("| mappings | eager rounds | batched rounds | sim µs | host ns |");
    println!("|---------:|-------------:|---------------:|-------:|--------:|");
    for n in [1u32, 64, 512] {
        // Counters and simulated time from one fresh teardown.
        let (mut h, sp) = build(n, 1);
        let r0 = h.ck.stats.shootdown_rounds;
        let c0 = h.mpm.clock.cycles();
        h.ck.unload_space(h.srm, sp, &mut h.mpm).unwrap();
        let rounds = h.ck.stats.shootdown_rounds - r0;
        let sim_us = (h.mpm.clock.cycles() - c0) as f64 / h.mpm.config.cost.cycles_per_us as f64;
        // Host time over teardown/rebuild cycles.
        let mut st = build(n, 1);
        let ns = quick_median_ns(
            9,
            30,
            &mut st,
            |(h, sp)| {
                h.ck.unload_space(h.srm, *sp, &mut h.mpm).unwrap();
            },
            |(h, sp)| {
                h.ck.take_writebacks();
                *sp =
                    h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                        .unwrap();
                for i in 0..n {
                    h.ck.load_mapping(
                        h.srm,
                        *sp,
                        Vaddr(0x10_0000 + i * PAGE_SIZE),
                        Paddr(0x40_0000 + i * PAGE_SIZE),
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut h.mpm,
                    )
                    .unwrap();
                }
            },
        );
        println!("| {n:>8} | {n:>12} | {rounds:>14} | {sim_us:>6.1} | {ns:>7.0} |");
    }

    println!("\nrange unload (one call over the span):\n");
    println!("| span / populated | batched rounds | pages/round | host ns |");
    println!("|------------------|---------------:|------------:|--------:|");
    for (label, pages, stride, span) in [
        ("dense 128/128", 128u32, 1u32, 128u32),
        ("sparse 32/512", 32, 16, 512),
    ] {
        let (mut h, sp) = build(pages, stride);
        let (r0, p0) = (
            h.ck.stats.shootdown_rounds,
            h.ck.stats.shootdown_batched_pages,
        );
        h.ck.unload_mapping_range(h.srm, sp, Vaddr(0x10_0000), span * PAGE_SIZE, &mut h.mpm)
            .unwrap();
        let rounds = h.ck.stats.shootdown_rounds - r0;
        let per_round = (h.ck.stats.shootdown_batched_pages - p0) as f64 / rounds.max(1) as f64;
        let mut st = build(pages, stride);
        let ns = quick_median_ns(
            9,
            30,
            &mut st,
            |(h, sp)| {
                h.ck.unload_mapping_range(
                    h.srm,
                    *sp,
                    Vaddr(0x10_0000),
                    span * PAGE_SIZE,
                    &mut h.mpm,
                )
                .unwrap();
            },
            |(h, sp)| {
                for i in 0..pages {
                    h.ck.load_mapping(
                        h.srm,
                        *sp,
                        Vaddr(0x10_0000 + i * stride * PAGE_SIZE),
                        Paddr(0x40_0000 + i * PAGE_SIZE),
                        Pte::CACHEABLE,
                        None,
                        None,
                        &mut h.mpm,
                    )
                    .unwrap();
                }
            },
        );
        println!("| {label:<16} | {rounds:>14} | {per_round:>11.0} | {ns:>7.0} |");
    }
    println!("\nSingle-page unloads keep the eager one-round path, so Table 2's");
    println!("per-operation costs are unchanged by batching.\n");
}

// ---------------------------------------------------------------------
// Recovery sweep — orphan reclamation latency vs. object count
// ---------------------------------------------------------------------
fn recovery() {
    println!("## Recovery sweep — orphan reclamation latency vs. object count\n");
    println!("`recover_kernel` reclaims everything a dead application kernel had");
    println!("loaded — threads, then mappings, then spaces, then the kernel object");
    println!("— in one dependency-ordered pass under a single shootdown batch,");
    println!("writing every orphan back to the SRM. The sweep is the entire");
    println!("crash-recovery cost the Cache Kernel pays; everything else (restart)");
    println!("is ordinary reloading.\n");

    // Build a victim kernel populated with `spaces` address spaces, each
    // holding `maps` mappings and `threads` threads.
    let build = |spaces: u32, maps: u32, threads: u32| {
        let mut h = Bench::with_config(CkConfig::default(), 16 * 1024);
        let victim =
            h.ck.load_kernel(
                h.srm,
                KernelDesc {
                    memory_access: MemoryAccessArray::all(),
                    ..KernelDesc::default()
                },
                &mut h.mpm,
            )
            .unwrap();
        for s in 0..spaces {
            let sp =
                h.ck.load_space(victim, SpaceDesc::default(), &mut h.mpm)
                    .unwrap();
            for m in 0..maps {
                h.ck.load_mapping(
                    victim,
                    sp,
                    Vaddr(0x10_0000 + m * PAGE_SIZE),
                    Paddr(0x40_0000 + (s * maps + m) * PAGE_SIZE),
                    Pte::WRITABLE | Pte::CACHEABLE,
                    None,
                    None,
                    &mut h.mpm,
                )
                .unwrap();
            }
            for _ in 0..threads {
                h.ck.load_thread(victim, ThreadDesc::new(sp, 1, 5), false, &mut h.mpm)
                    .unwrap();
            }
        }
        (h, victim)
    };

    println!("| spaces | threads | mappings | orphans | shootdown rounds | sim µs | host ns |");
    println!("|-------:|--------:|---------:|--------:|-----------------:|-------:|--------:|");
    let mut rec_rows = Vec::new();
    for (spaces, maps, threads) in [(1u32, 8u32, 2u32), (4, 32, 4), (8, 64, 8)] {
        // Counters and simulated time from one fresh sweep.
        let (mut h, victim) = build(spaces, maps, threads);
        let r0 = h.ck.stats.shootdown_rounds;
        let c0 = h.mpm.clock.cycles();
        h.ck.mark_kernel_failed(victim).unwrap();
        let report = h.ck.recover_kernel(h.srm, victim, &mut h.mpm).unwrap();
        let rounds = h.ck.stats.shootdown_rounds - r0;
        let sim_us = (h.mpm.clock.cycles() - c0) as f64 / h.mpm.config.cost.cycles_per_us as f64;
        let orphans = report.orphans();
        // Host time over sweep/rebuild cycles.
        let mut st = build(spaces, maps, threads);
        let ns = quick_median_ns(
            9,
            10,
            &mut st,
            |(h, victim)| {
                h.ck.recover_kernel(h.srm, *victim, &mut h.mpm).unwrap();
            },
            |(h, victim)| {
                h.ck.take_writebacks();
                h.ck.drain_events();
                *victim =
                    h.ck.load_kernel(
                        h.srm,
                        KernelDesc {
                            memory_access: MemoryAccessArray::all(),
                            ..KernelDesc::default()
                        },
                        &mut h.mpm,
                    )
                    .unwrap();
                for s in 0..spaces {
                    let sp =
                        h.ck.load_space(*victim, SpaceDesc::default(), &mut h.mpm)
                            .unwrap();
                    for m in 0..maps {
                        h.ck.load_mapping(
                            *victim,
                            sp,
                            Vaddr(0x10_0000 + m * PAGE_SIZE),
                            Paddr(0x40_0000 + (s * maps + m) * PAGE_SIZE),
                            Pte::WRITABLE | Pte::CACHEABLE,
                            None,
                            None,
                            &mut h.mpm,
                        )
                        .unwrap();
                    }
                    for _ in 0..threads {
                        h.ck.load_thread(*victim, ThreadDesc::new(sp, 1, 5), false, &mut h.mpm)
                            .unwrap();
                    }
                }
            },
        );
        let maps_total = spaces * maps;
        let threads_total = spaces * threads;
        println!(
            "| {spaces:>6} | {threads_total:>7} | {maps_total:>8} | {orphans:>7} | {rounds:>16} | {sim_us:>6.1} | {ns:>7.0} |"
        );
        rec_rows.push(jobj(&[
            ("spaces", spaces.to_string()),
            ("threads", threads_total.to_string()),
            ("mappings", maps_total.to_string()),
            ("orphans", orphans.to_string()),
            ("shootdown_rounds", rounds.to_string()),
            ("sim_us", jf(sim_us)),
            ("host_ns", jf(ns)),
        ]));
    }
    println!("\nLatency is linear in the orphan count and the whole sweep issues");
    println!("one shootdown round regardless of size: crash reclamation costs no");
    println!("more than the same objects displaced one at a time, minus all but");
    println!("one of the cross-CPU broadcasts.\n");
    write_json("recovery", &[("rows", jarr(rec_rows))]);
}

// ---------------------------------------------------------------------
// A-overload — forward progress at 2× cache capacity
// ---------------------------------------------------------------------

fn overload() {
    use cache_kernel::{CkError, ReservedSlots, STAT_MAPPING};

    println!("## Overload — three kernels, combined working set 2× the mapping cache\n");
    println!("Three application kernels cycle 32-page working sets through a");
    println!("48-descriptor mapping cache (96 live pages wanted, 2× capacity),");
    println!("each holding an 8-descriptor reservation, with the thrash detector");
    println!("armed and per-kernel writeback queues bounded at 16. Midway the");
    println!("event pump stalls for a phase, modeling a slow-draining consumer:");
    println!("backpressure sheds the stalled kernels' own loads and spills");
    println!("displaced state to the SRM instead of growing any queue without");
    println!("bound. Loads shed with `Again` are retried through the libkern");
    println!("capped-backoff helper, charging the waits to the simulated clock.\n");

    const WS: u32 = 32;
    const CAP: usize = 48;
    const WB_BOUND: usize = 16;
    const ROUNDS: u32 = 3000;
    const STALL: std::ops::Range<u32> = 900..1200;

    let mut h = Bench::with_config(
        CkConfig {
            mapping_capacity: CAP,
            wb_queue_bound: WB_BOUND,
            thrash_window: 64,
            thrash_threshold: 4,
            thrash_penalty: 64,
            shed_backoff: 500,
            ..CkConfig::default()
        },
        16 * 1024,
    );
    let reserved = ReservedSlots {
        mappings: 8,
        ..ReservedSlots::default()
    };
    let mut kernels = Vec::new();
    for _ in 0..3 {
        let k =
            h.ck.load_kernel(
                h.srm,
                KernelDesc {
                    memory_access: MemoryAccessArray::all(),
                    ..KernelDesc::default()
                },
                &mut h.mpm,
            )
            .unwrap();
        h.ck.set_kernel_reservation(h.srm, k, reserved).unwrap();
        let sp =
            h.ck.load_space(k, SpaceDesc::default(), &mut h.mpm)
                .unwrap();
        kernels.push((k, sp));
    }

    let mut sweeps = [0u64; 3];
    let mut gave_up = [0u64; 3];
    let mut cursor = [0u32; 3];
    let mut max_wb = [0u32; 3];
    for round in 0..ROUNDS {
        let i = (round % 3) as usize;
        let (k, sp) = kernels[i];
        let va = Vaddr(0x10_0000 + cursor[i] * PAGE_SIZE);
        let pa = Paddr(0x100_0000 + (i as u32 * WS + cursor[i]) * PAGE_SIZE);
        let r = libkern::retry(
            libkern::Backoff {
                max_attempts: 4,
                cap: 4_000,
                ..libkern::Backoff::default()
            },
            |wait| {
                h.mpm.clock.charge(u64::from(wait));
                h.ck.load_mapping(
                    k,
                    sp,
                    va,
                    pa,
                    Pte::WRITABLE | Pte::CACHEABLE,
                    None,
                    None,
                    &mut h.mpm,
                )
            },
        );
        match r {
            Ok(()) => {
                cursor[i] = (cursor[i] + 1) % WS;
                if cursor[i] == 0 {
                    sweeps[i] += 1;
                }
            }
            Err(CkError::Again { .. }) => gave_up[i] += 1,
            Err(e) => panic!("unexpected load failure: {e:?}"),
        }
        if !STALL.contains(&round) {
            while h.ck.pop_event().is_some() {}
        }
        for (j, (kj, _)) in kernels.iter().enumerate() {
            let wb = h.ck.kernel_wb_pending(*kj).unwrap();
            assert!(
                wb as usize <= WB_BOUND,
                "per-kernel wb queue exceeded its bound: {wb}"
            );
            max_wb[j] = max_wb[j].max(wb);
            if sweeps[j] > 0 {
                assert!(
                    h.ck.kernel_residency(*kj).unwrap()[STAT_MAPPING]
                        >= u32::from(reserved.mappings),
                    "kernel {j} was evicted below its reservation"
                );
            }
        }
    }
    while h.ck.pop_event().is_some() {}
    h.ck.check_invariants().unwrap();

    println!("| kernel | sweeps | sheds (gave up) | loads shed | max wb queue | resident maps |");
    println!("|-------:|-------:|----------------:|-----------:|-------------:|--------------:|");
    let mut ov_rows = Vec::new();
    for (i, (k, _)) in kernels.iter().enumerate() {
        assert!(sweeps[i] >= 2, "kernel {i} made no forward progress");
        let shed = h.ck.kernel_loads_shed(*k);
        let resident = h.ck.kernel_residency(*k).unwrap()[STAT_MAPPING];
        println!(
            "| {:>6} | {:>6} | {:>15} | {:>10} | {:>12} | {:>13} |",
            i, sweeps[i], gave_up[i], shed, max_wb[i], resident,
        );
        ov_rows.push(jobj(&[
            ("kernel", i.to_string()),
            ("sweeps", sweeps[i].to_string()),
            ("gave_up", gave_up[i].to_string()),
            ("loads_shed", shed.to_string()),
            ("max_wb_queue", max_wb[i].to_string()),
            ("resident_maps", resident.to_string()),
        ]));
    }
    let s = &h.ck.stats;
    println!();
    println!(
        "global: loads_shed={} thrash_detected={} wb_overflow_redirects={} events_dropped={}",
        s.loads_shed, s.thrash_detected, s.wb_overflow_redirects, s.events_dropped
    );
    println!("\nEvery kernel keeps completing sweeps of a working set that cannot");
    println!("fit — forward progress under 2× overcommit — while no writeback");
    println!("queue ever exceeds its bound and no kernel is displaced below its");
    println!("reservation.\n");
    write_json(
        "overload",
        &[
            ("rounds", ROUNDS.to_string()),
            ("mapping_capacity", CAP.to_string()),
            ("wb_queue_bound", WB_BOUND.to_string()),
            ("rows", jarr(ov_rows)),
            ("global_loads_shed", s.loads_shed.to_string()),
            ("global_thrash_detected", s.thrash_detected.to_string()),
            (
                "global_wb_overflow_redirects",
                s.wb_overflow_redirects.to_string(),
            ),
            ("global_events_dropped", s.events_dropped.to_string()),
        ],
    );
}

// ---------------------------------------------------------------------
// A-partition — §3 partition tolerance and DSM ownership recovery
// ---------------------------------------------------------------------

/// One 3-node partition run: cut [0,1]|[2] at 300k cycles, heal at
/// `heal_at`, halt node 1 at `heal_at + 300k`. Returns per-node
/// (progress, skipped) plus summed recovery counters.
struct PartitionOutcome {
    progress: Vec<u64>,
    skipped: Vec<u64>,
    epoch: u64,
    rehomed: u64,
    stale_rejected: u64,
    converged: bool,
}

fn partition_once(heal_at: u64) -> PartitionOutcome {
    use vpp::cache_kernel::{LockedQuota, MAX_CPUS};
    use vpp::hw::FaultPlan;
    use vpp::libkern::DSM_CHANNEL;
    use vpp::srm::Srm;
    use vpp::workloads::dsm_cluster::{DsmNodeConfig, DsmNodeKernel};
    use vpp::{boot_cluster, BootConfig};

    const N: usize = 3;
    const SEED: u64 = 0x00c0_ffee_dead_beef;
    let down_at = heal_at + 300_000;
    let run_until = down_at + 300_000;
    let drain_until = run_until + 400_000;

    let (mut cluster, srms) = boot_cluster(
        N,
        BootConfig {
            clock_interval: 5_000,
            ..BootConfig::default()
        },
    );
    let mut ids = Vec::new();
    for (node, ex) in cluster.nodes.iter_mut().enumerate() {
        let id = ex
            .with_kernel::<Srm, _>(srms[node], |s, env| {
                s.start_kernel(env, "dsm", 2, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .unwrap()
            .expect("grant available");
        ex.register_kernel(
            id,
            Box::new(DsmNodeKernel::new(DsmNodeConfig {
                node,
                cluster_nodes: N,
                base: hw::Paddr(0x30_0000),
                lines: 24,
                seed: SEED ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                accesses: 100_000,
                retry_ticks: 20,
                gossip_ticks: 24,
            })),
        );
        ex.register_channel(DSM_CHANNEL, id);
        ids.push(id);
    }
    cluster.net_faults = Some(
        FaultPlan::new(SEED)
            .partition(300_000, &[&[0, 1], &[2]])
            .heal(heal_at)
            .node_down(down_at, 1),
    );

    let step_to = |cluster: &mut vpp::cache_kernel::Cluster, target: u64| {
        while cluster
            .nodes
            .iter()
            .map(|n| n.mpm.clock.cycles())
            .max()
            .unwrap()
            < target
        {
            cluster.step(5);
        }
    };
    step_to(&mut cluster, run_until);
    for (node, &id) in cluster.nodes.iter_mut().zip(ids.iter()) {
        if !node.mpm.halted {
            node.with_kernel::<DsmNodeKernel, _>(id, |k, _| k.freeze())
                .unwrap();
        }
    }
    step_to(&mut cluster, drain_until);

    let mut out = PartitionOutcome {
        progress: vec![0; N],
        skipped: vec![0; N],
        epoch: 0,
        rehomed: 0,
        stale_rejected: 0,
        converged: true,
    };
    let mut dirs = Vec::new();
    for (i, (node, &id)) in cluster.nodes.iter_mut().zip(ids.iter()).enumerate() {
        if node.mpm.halted {
            continue;
        }
        let s = node.ck.stats;
        out.rehomed += s.lines_rehomed;
        out.stale_rejected += s.stale_rejected;
        let (p, sk, ep, dir) = node
            .with_kernel::<DsmNodeKernel, _>(id, |k, _| {
                (k.progress, k.skipped, k.dsm.epoch, k.dsm.directory())
            })
            .unwrap();
        out.progress[i] = p;
        out.skipped[i] = sk;
        out.epoch = out.epoch.max(ep);
        dirs.push(dir);
        node.ck.check_invariants().unwrap();
    }
    out.converged = dirs.windows(2).all(|w| w[0] == w[1]);
    out
}

fn partition() {
    println!("## §3 — partition tolerance and DSM ownership recovery\n");
    println!("Three nodes share a 24-line migratory-DSM region; the fabric cuts");
    println!("[0,1] | [2] at 300k cycles, heals after the cut duration below, and");
    println!("halts node 1 for good 300k cycles after the heal. The majority pair");
    println!("bumps the membership epoch and re-homes the minority's lines; the");
    println!("minority degrades (local progress only, no epoch minting); the heal");
    println!("rejoins it; the node-down sweep re-homes the dead node's lines. The");
    println!("run ends with every surviving directory byte-identical.\n");
    println!("| cut duration | final epoch | lines rehomed | stale fenced | minority skips | converged |");
    println!("|-------------:|------------:|--------------:|-------------:|---------------:|:---------:|");
    let mut part_rows = Vec::new();
    for cut in [200_000u64, 600_000, 1_200_000] {
        let o = partition_once(300_000 + cut);
        println!(
            "| {:>9}k | {:>11} | {:>13} | {:>12} | {:>14} | {:^9} |",
            cut / 1000,
            o.epoch,
            o.rehomed,
            o.stale_rejected,
            o.skipped[2],
            o.converged
        );
        assert!(o.converged, "surviving directories diverged");
        assert!(o.progress.iter().enumerate().all(|(i, &p)| i == 1 || p > 0));
        part_rows.push(jobj(&[
            ("cut_cycles", cut.to_string()),
            ("final_epoch", o.epoch.to_string()),
            ("lines_rehomed", o.rehomed.to_string()),
            ("stale_fenced", o.stale_rejected.to_string()),
            ("minority_skips", o.skipped[2].to_string()),
            ("converged", o.converged.to_string()),
        ]));
    }
    println!("\nLonger cuts cost the minority proportionally more skipped accesses,");
    println!("while the recovery sweep stays bounded by the region size (each");
    println!("majority node re-homes the same dead-owner lines). The outcome is");
    println!("invariant: identical surviving directories, no line owned by a dead");
    println!("node, and every fenced stale reply counted rather than applied.\n");
    write_json(
        "partition",
        &[
            ("seed", "\"0x00C0_FFEE_DEAD_BEEF\"".into()),
            ("cut_at", 300_000.to_string()),
            ("rows", jarr(part_rows)),
        ],
    );
}

// ---------------------------------------------------------------------
// A-serve — million-client serving under chaos
// ---------------------------------------------------------------------

/// One grid point of the serving sweep: total clients × nodes × front
/// cache size × fault schedule.
struct ServeSpec {
    name: &'static str,
    /// Total simulated clients summed over the cluster.
    clients: u64,
    nodes: usize,
    cache_pages: usize,
    /// `none` | `cut+heal` | `node-down` | `churn-spike`.
    fault: &'static str,
    /// Offered load as a fraction of the ~800 req/Mcycle per-node
    /// goodput capacity (front-cache hit mix plus fabric forwarding,
    /// remote serves and retry overheads). Larger client fleets offer
    /// more load, as a real fleet does; the per-client rate in the
    /// manifest is `rho`·capacity / clients-per-node.
    rho: f64,
    /// Closed-loop (per-client think times) instead of open arrivals.
    closed: bool,
}

/// Everything one grid point leaves behind for the leaderboard and the
/// JSON manifest.
struct ServeCell {
    arrivals: u64,
    completed: u64,
    /// Final drops: budget-denied plus attempts-exhausted retries.
    dropped: u64,
    shed_rate: f64,
    p50: u64,
    p99: u64,
    thr_per_mcycle: f64,
    mttr: Option<u64>,
    seeds: Vec<u64>,
    /// Total completions per [`SERVE_WINDOW`]-cycle window.
    curve: Vec<u64>,
}

const SERVE_SEED: u64 = 0x5e12_7e00_0000_0001;
const SERVE_CUT_AT: u64 = 1_000_000;
const SERVE_HEAL_AT: u64 = 1_600_000;
const SERVE_RUN_UNTIL: u64 = 3_000_000;
const SERVE_WINDOW: u64 = 20_000;

fn serve_once(spec: &ServeSpec) -> ServeCell {
    use vpp::cache_kernel::{LockedQuota, MAX_CPUS};
    use vpp::hw::FaultPlan;
    use vpp::libkern::{Backoff, RetryBudget};
    use vpp::srm::Srm;
    use vpp::workloads::web_serving::{
        latency_percentile, mttr, Arrival, WebFrontKernel, WebServingConfig, LAT_BUCKETS,
        WEB_CHANNEL,
    };
    use vpp::{boot_cluster, BootConfig};

    let n = spec.nodes;
    let per_node = (spec.clients / n as u64).max(1);
    // Per-node offered load = ρ × the ~800 req/Mcycle goodput capacity
    // a node sustains once forwarding and remote serves are in the mix,
    // kept below 1.0 so the run is genuinely loaded without compressing
    // the simulated time axis (oversubscribed open loops saturate at
    // the generation horizon and the cycle axis goes coarse; see the
    // web_serving module docs). Closed loops derive the think time from
    // the same target rate.
    let rate_per_mcycle = spec.rho * 800.0;
    let arrival = if spec.closed {
        Arrival::Closed {
            think: (per_node as f64 * 1e6 / rate_per_mcycle) as u64,
        }
    } else {
        Arrival::Open {
            per_mcycle: rate_per_mcycle / per_node as f64,
        }
    };
    let (churn_period, churn_permille) = if spec.fault == "churn-spike" {
        (150_000, 400)
    } else {
        (0, 0)
    };
    let mid = n.div_ceil(2);
    let (left, right): (Vec<usize>, Vec<usize>) = ((0..mid).collect(), (mid..n).collect());
    let plan = match spec.fault {
        "cut+heal" => Some(
            FaultPlan::new(SERVE_SEED)
                .partition(SERVE_CUT_AT, &[&left, &right])
                .heal(SERVE_HEAL_AT),
        ),
        "node-down" => Some(FaultPlan::new(SERVE_SEED).node_down(SERVE_CUT_AT, n - 1)),
        _ => None,
    };

    let (mut cluster, srms) = boot_cluster(
        n,
        BootConfig {
            clock_interval: 5_000,
            ..BootConfig::default()
        },
    );
    let mut ids = Vec::new();
    let mut seeds = Vec::new();
    for (node, ex) in cluster.nodes.iter_mut().enumerate() {
        let seed = SERVE_SEED ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        seeds.push(seed);
        let id = ex
            .with_kernel::<Srm, _>(srms[node], |s, env| {
                s.start_kernel(env, "web", 2, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .unwrap()
            .expect("grant available");
        ex.register_kernel(
            id,
            Box::new(WebFrontKernel::new(WebServingConfig {
                node,
                cluster_nodes: n,
                clients: per_node,
                keys: 4_096,
                arrival,
                churn_period,
                churn_permille,
                deadline: 250_000,
                max_inflight: 256,
                retry: Backoff {
                    max_attempts: 6,
                    cap: 40_000,
                    jitter_permille: 300,
                },
                budget: RetryBudget::new(512, 200),
                cache_pages: spec.cache_pages,
                // Ticks lag the cycle count when a tick's serving
                // charges advance the clock past one interval; a wider
                // window lets the horizon keep tracking real time.
                gen_window: 25_000,
                seed,
                ..WebServingConfig::default()
            })),
        );
        ex.register_channel(WEB_CHANNEL, id);
        ids.push(id);
    }
    cluster.net_faults = plan;
    while cluster
        .nodes
        .iter()
        .map(|node| node.mpm.clock.cycles())
        .max()
        .unwrap()
        < SERVE_RUN_UNTIL
    {
        cluster.step(5);
    }

    let mut arrivals = 0u64;
    let mut completed = 0u64;
    let mut dropped = 0u64;
    let mut hist = [0u64; LAT_BUCKETS];
    let mut curve: Vec<u64> = Vec::new();
    for (node, &id) in cluster.nodes.iter_mut().zip(ids.iter()) {
        if node.mpm.halted {
            continue;
        }
        node.with_kernel::<WebFrontKernel, _>(id, |k, _| {
            arrivals += k.stats.arrivals;
            completed += k.stats.completed;
            dropped += k.stats.budget_denied + k.stats.attempts_exhausted;
            for (b, &c) in k.latency.iter().enumerate() {
                hist[b] += c;
            }
            if curve.len() < k.curve.len() {
                curve.resize(k.curve.len(), 0);
            }
            for (w, &c) in k.curve.iter().enumerate() {
                curve[w] += c;
            }
            assert!(k.stats.completed > 0, "a live node must serve something");
        })
        .unwrap();
        node.ck.check_invariants().unwrap();
    }
    let recovery = match spec.fault {
        "cut+heal" | "node-down" => mttr(&curve, SERVE_WINDOW, SERVE_CUT_AT, 800),
        _ => None,
    };
    ServeCell {
        arrivals,
        completed,
        dropped,
        shed_rate: dropped as f64 / arrivals.max(1) as f64,
        p50: latency_percentile(&hist, 0.50),
        p99: latency_percentile(&hist, 0.99),
        thr_per_mcycle: completed as f64 * 1e6 / SERVE_RUN_UNTIL as f64,
        mttr: recovery,
        seeds,
        curve,
    }
}

fn serve() {
    println!("## A-serve — million-client serving under chaos\n");
    println!("The web front workload: Zipf(0.99)-popular keys striped across the");
    println!("cluster, served from a per-node CLOCK front cache, remote keys");
    println!("forwarded over the fabric under an admission bound, with per-request");
    println!("deadlines, token-bucket retry budgets and seeded-jitter backoff all");
    println!("armed. The grid sweeps total clients × nodes × cache size × fault");
    println!("schedule; a cut lands at 1.0M cycles (healing at 1.6M where the");
    println!("schedule says so) and every run goes to 3.0M cycles. MTTR is the");
    println!("time from the fault until total throughput regains 80% of its");
    println!("pre-fault mean. Open-loop arrivals keep O(1) generator state, so");
    println!("the million-client points simulate every request individually.\n");

    let grid = [
        ServeSpec {
            name: "10k-2n-quiet",
            clients: 10_000,
            nodes: 2,
            cache_pages: 64,
            fault: "none",
            rho: 0.5,
            closed: false,
        },
        ServeSpec {
            name: "10k-2n-cut",
            clients: 10_000,
            nodes: 2,
            cache_pages: 64,
            fault: "cut+heal",
            rho: 0.5,
            closed: false,
        },
        ServeSpec {
            name: "100k-2n-cut",
            clients: 100_000,
            nodes: 2,
            cache_pages: 64,
            fault: "cut+heal",
            rho: 0.7,
            closed: false,
        },
        ServeSpec {
            name: "1M-2n-quiet",
            clients: 1_000_000,
            nodes: 2,
            cache_pages: 64,
            fault: "none",
            rho: 0.85,
            closed: false,
        },
        ServeSpec {
            name: "1M-2n-cut",
            clients: 1_000_000,
            nodes: 2,
            cache_pages: 64,
            fault: "cut+heal",
            rho: 0.85,
            closed: false,
        },
        ServeSpec {
            name: "1M-3n-down",
            clients: 1_000_000,
            nodes: 3,
            cache_pages: 64,
            fault: "node-down",
            rho: 0.85,
            closed: false,
        },
        ServeSpec {
            name: "1M-4n-cut",
            clients: 1_000_000,
            nodes: 4,
            cache_pages: 64,
            fault: "cut+heal",
            rho: 0.85,
            closed: false,
        },
        ServeSpec {
            name: "1M-2n-cut-c16",
            clients: 1_000_000,
            nodes: 2,
            cache_pages: 16,
            fault: "cut+heal",
            rho: 0.85,
            closed: false,
        },
        ServeSpec {
            name: "1M-2n-cut-c256",
            clients: 1_000_000,
            nodes: 2,
            cache_pages: 256,
            fault: "cut+heal",
            rho: 0.85,
            closed: false,
        },
        ServeSpec {
            name: "1M-2n-churn",
            clients: 1_000_000,
            nodes: 2,
            cache_pages: 64,
            fault: "churn-spike",
            rho: 0.85,
            closed: false,
        },
        ServeSpec {
            name: "2k-2n-closed-cut",
            clients: 2_000,
            nodes: 2,
            cache_pages: 64,
            fault: "cut+heal",
            rho: 0.6,
            closed: true,
        },
    ];

    println!("| grid point | clients | nodes | cache | fault | ρ | arrivals | completed | shed % | p50 cyc | p99 cyc | thr/Mc | MTTR kcyc |");
    println!("|:-----------|--------:|------:|------:|:------|----:|---------:|----------:|-------:|--------:|--------:|-------:|----------:|");
    let mut rows = Vec::new();
    for spec in &grid {
        let c = serve_once(spec);
        let mttr_cell = c
            .mttr
            .map_or("—".into(), |m| format!("{:.0}", m as f64 / 1e3));
        println!(
            "| {:<10} | {:>7} | {:>5} | {:>5} | {:<11} | {:>3.2} | {:>8} | {:>9} | {:>5.2}% | {:>7} | {:>7} | {:>6.0} | {:>9} |",
            spec.name,
            spec.clients,
            spec.nodes,
            spec.cache_pages,
            spec.fault,
            spec.rho,
            c.arrivals,
            c.completed,
            c.shed_rate * 100.0,
            c.p50,
            c.p99,
            c.thr_per_mcycle,
            mttr_cell,
        );
        rows.push(jobj(&[
            ("name", format!("\"{}\"", spec.name)),
            ("clients", spec.clients.to_string()),
            ("nodes", spec.nodes.to_string()),
            ("cache_pages", spec.cache_pages.to_string()),
            ("fault", format!("\"{}\"", spec.fault)),
            ("offered_rho", jf(spec.rho)),
            (
                "arrival",
                format!("\"{}\"", if spec.closed { "closed" } else { "open" }),
            ),
            (
                "seeds",
                jarr(c.seeds.iter().map(|s| format!("\"{s:#x}\"")).collect()),
            ),
            ("arrivals", c.arrivals.to_string()),
            ("completed", c.completed.to_string()),
            ("dropped", c.dropped.to_string()),
            ("shed_rate", jf(c.shed_rate)),
            ("p50_cycles", c.p50.to_string()),
            ("p99_cycles", c.p99.to_string()),
            ("throughput_per_mcycle", jf(c.thr_per_mcycle)),
            (
                "mttr_cycles",
                c.mttr.map_or("null".into(), |m| m.to_string()),
            ),
            ("curve", jarr(c.curve.iter().map(u64::to_string).collect())),
        ]));
    }
    println!();
    println!("Cuts expire the cross-stripe forwards and the retry storm drains");
    println!("into the token bucket: the shed rate is the budget doing its job,");
    println!("bounding the storm to a counted drop rate instead of letting the");
    println!("queues grow without bound. A larger front cache buys p50 directly");
    println!("(more hits at L2-miss cost); MTTR is insensitive to cache size");
    println!("because recovery is gated on membership detection, not warmth.\n");
    write_json(
        "serve",
        &[
            ("run_until", SERVE_RUN_UNTIL.to_string()),
            ("cut_at", SERVE_CUT_AT.to_string()),
            ("heal_at", SERVE_HEAL_AT.to_string()),
            ("curve_window", SERVE_WINDOW.to_string()),
            ("mttr_threshold_permille", 800.to_string()),
            ("rows", jarr(rows)),
        ],
    );
}

// ---------------------------------------------------------------------
// A-gray — gray failures: stragglers, hedged requests, slow suspicion
// ---------------------------------------------------------------------

/// One grid point of the gray-failure sweep: straggler count × delay
/// magnitude × {hedging, adaptive hedge delay} × fetch tier.
struct GraySpec {
    name: &'static str,
    /// Trailing nodes that limp under the fabric delay schedule.
    stragglers: usize,
    /// Per-frame delay multiplier in permille (8_000 = 8× the
    /// 2_500-cycle straggler base, so 17.5k extra cycles per frame).
    /// 1_000 means no delay schedule at all.
    mult_permille: u64,
    hedge: bool,
    /// Stretch the hedge delay with the per-node service-time EWMA
    /// instead of firing at the fixed `hedge_after` floor.
    adaptive: bool,
    /// `flat` | `page-io`: the tier backing the last node's front-cache
    /// misses. `page-io` charges the DbKernel page-in cost on every
    /// miss — endogenous slowness with no fabric fault at all.
    fetch: &'static str,
}

/// Everything one grid point leaves behind.
struct GrayCell {
    arrivals: u64,
    attempts: u64,
    completed: u64,
    dropped: u64,
    budget_spent: u64,
    parked: u64,
    p50: u64,
    p99: u64,
    p999: u64,
    hedges_sent: u64,
    hedges_won: u64,
    hedges_wasted: u64,
    steered: u64,
    slow_suspects: u64,
    /// Quorum `NodeDown` mints plus epoch changes — for a delay-only
    /// schedule both must be zero (a straggler is slow, not dead).
    false_dead: u64,
    mttr: Option<u64>,
}

const GRAY_SEED: u64 = 0x06ea_7f00_0000_0002;
const GRAY_SLOW_AT: u64 = 300_000;
const GRAY_RUN_UNTIL: u64 = 2_000_000;
const GRAY_NODES: usize = 10;
const GRAY_WINDOW: u64 = 20_000;
/// Cycles per 1× of straggler multiplier (the default 2_500 is tuned
/// for membership-margin tests; the bench wants a limp that dwarfs the
/// healthy round trip).
const GRAY_STRAGGLER_BASE: u64 = 25_000;

fn gray_once(spec: &GraySpec) -> GrayCell {
    use vpp::cache_kernel::{LockedQuota, MAX_CPUS};
    use vpp::hw::FaultPlan;
    use vpp::libkern::{Backoff, RetryBudget};
    use vpp::srm::Srm;
    use vpp::workloads::web_serving::{
        latency_percentile, mttr, Arrival, PageIoTier, WebFrontKernel, WebServingConfig,
        LAT_BUCKETS, WEB_CHANNEL,
    };
    use vpp::{boot_cluster, BootConfig};

    let n = GRAY_NODES;
    let plan = if spec.stragglers > 0 && spec.mult_permille > 1_000 {
        // A deep limp: 25k cycles per 1× of multiplier, so the 8× row
        // adds 175k cycles per frame — several latency buckets above
        // the healthy fabric round trip, the regime hedging exists for.
        let mut p = FaultPlan::new(GRAY_SEED)
            .with_straggler_base(GRAY_STRAGGLER_BASE)
            .delay_jitter(GRAY_SLOW_AT, 50);
        for s in 0..spec.stragglers {
            let node = n - 1 - s;
            // Ramp the onset one multiplier step at a time: a constant
            // delay shifts the whole ad stream, so only the *change*
            // in delay widens an inter-arrival gap. 25k-cycle
            // increments keep every gap spike (5 ticks) under the
            // 12-tick dead threshold while the steady-state limp goes
            // as deep as the grid asks. Multiple stragglers ramp
            // staggered — frames *between* two stragglers pay both
            // penalties, so simultaneous steps would double the spike.
            let mut at = GRAY_SLOW_AT + 20_000 * s as u64;
            let mut m = 1_000;
            while m + 1_000 < spec.mult_permille {
                m += 1_000;
                p = p.slow_node(at, node, m);
                at += 40_000;
            }
            p = p.slow_node(at, node, spec.mult_permille);
        }
        Some(p)
    } else {
        None
    };

    let (mut cluster, srms) = boot_cluster(
        n,
        BootConfig {
            clock_interval: 5_000,
            ..BootConfig::default()
        },
    );
    let mut ids = Vec::new();
    for (node, ex) in cluster.nodes.iter_mut().enumerate() {
        let seed = GRAY_SEED ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let id = ex
            .with_kernel::<Srm, _>(srms[node], |s, env| {
                s.start_kernel(env, "web", 2, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .unwrap()
            .expect("grant available");
        ex.register_kernel(
            id,
            Box::new(WebFrontKernel::new(WebServingConfig {
                node,
                cluster_nodes: n,
                clients: 2_000,
                keys: 1_024,
                // Light load: latency must resolve *under* the
                // deadline for the straggler's tail to be visible, so
                // the offered rate stays well below the point where
                // serving charges dilate the fabric round-trip.
                arrival: Arrival::Open { per_mcycle: 0.08 },
                // Wide enough that even the deep straggler's round
                // trip resolves to a *measured* completion instead of
                // an expiry — the bench is about the latency tail, and
                // a survivor-only histogram would hide it.
                deadline: 1_200_000,
                max_inflight: 256,
                retry: Backoff {
                    max_attempts: 6,
                    cap: 40_000,
                    jitter_permille: 300,
                },
                budget: RetryBudget::new(512, 200),
                cache_pages: 64,
                gen_window: 25_000,
                hedge_after: if spec.hedge { 30_000 } else { 0 },
                hedge_ewma_permille: if spec.hedge && spec.adaptive {
                    2_000
                } else {
                    0
                },
                steer: spec.hedge,
                seed,
                ..WebServingConfig::default()
            })),
        );
        if spec.fetch == "page-io" && node == n - 1 {
            ex.with_kernel::<WebFrontKernel, _>(id, |k, _| {
                k.set_fetch_tier(Box::new(PageIoTier::default()));
            })
            .unwrap();
        }
        ex.register_channel(WEB_CHANNEL, id);
        ids.push(id);
    }
    cluster.net_faults = plan;
    // Run until the *slowest* clock crosses the horizon: the page-io
    // row's stalling node charges its clock far ahead of the others,
    // and a max-based cutoff would end the run before the healthy
    // nodes served anything.
    while cluster
        .nodes
        .iter()
        .map(|node| node.mpm.clock.cycles())
        .min()
        .unwrap()
        < GRAY_RUN_UNTIL
    {
        cluster.step(5);
    }

    let mut cell = GrayCell {
        arrivals: 0,
        attempts: 0,
        completed: 0,
        dropped: 0,
        budget_spent: 0,
        parked: 0,
        p50: 0,
        p99: 0,
        p999: 0,
        hedges_sent: 0,
        hedges_won: 0,
        hedges_wasted: 0,
        steered: 0,
        slow_suspects: 0,
        false_dead: 0,
        mttr: None,
    };
    let mut hist = [0u64; LAT_BUCKETS];
    let mut curve: Vec<u64> = Vec::new();
    for (idx, (node, &id)) in cluster.nodes.iter_mut().zip(ids.iter()).enumerate() {
        let s = node.ck.stats;
        cell.slow_suspects += s.nodes_suspected_slow;
        cell.false_dead += s.nodes_down + s.epoch_changes;
        node.with_kernel::<WebFrontKernel, _>(id, |k, _| {
            let (inflight, parked) = k.outstanding();
            // The spend ledger the whole hedging design hangs on:
            // every attempt beyond its arrival was paid for by exactly
            // one budget token (tokens parked for not-yet-readmitted
            // retries are still in escrow).
            assert_eq!(
                k.stats.attempts - k.stats.arrivals,
                k.budget.spent - parked as u64,
                "hedge spend ledger broke on node {idx}"
            );
            assert_eq!(
                k.stats.arrivals,
                k.stats.completed
                    + k.stats.budget_denied
                    + k.stats.attempts_exhausted
                    + inflight as u64
                    + parked as u64,
                "arrival ledger broke on node {idx}"
            );
            cell.arrivals += k.stats.arrivals;
            cell.attempts += k.stats.attempts;
            cell.completed += k.stats.completed;
            cell.dropped += k.stats.budget_denied + k.stats.attempts_exhausted;
            cell.budget_spent += k.budget.spent;
            cell.parked += parked as u64;
            cell.hedges_sent += k.stats.hedges_sent;
            cell.hedges_won += k.stats.hedges_won;
            cell.hedges_wasted += k.stats.hedges_wasted;
            cell.steered += k.stats.steered_away;
            for (b, &c) in k.latency.iter().enumerate() {
                hist[b] += c;
            }
            if curve.len() < k.curve.len() {
                curve.resize(k.curve.len(), 0);
            }
            for (w, &c) in k.curve.iter().enumerate() {
                curve[w] += c;
            }
        })
        .unwrap();
        node.ck.check_invariants().unwrap();
    }
    cell.p50 = latency_percentile(&hist, 0.50);
    cell.p99 = latency_percentile(&hist, 0.99);
    cell.p999 = latency_percentile(&hist, 0.999);
    if spec.stragglers > 0 || spec.fetch == "page-io" {
        cell.mttr = mttr(&curve, GRAY_WINDOW, GRAY_SLOW_AT, 800);
    }
    cell
}

fn gray() {
    println!("## A-gray — gray failures: stragglers, hedging, slow suspicion\n");
    println!("The serving cluster again, but the fault is a *limp*, not a corpse:");
    println!("a seeded delay schedule multiplies every frame touching the");
    println!("straggler (onset ramped so only genuine silence ever looks dead),");
    println!("with bounded jitter. The grid sweeps straggler fraction × delay");
    println!("magnitude × {{hedging, adaptive hedge delay}}; one row replaces the");
    println!("fabric fault with an endogenously slow backing tier (DbKernel's");
    println!("page-in cost on every front-cache miss). false-dead counts quorum");
    println!("NodeDown mints plus epoch changes — a delay-only schedule must");
    println!("leave it at zero while the suspect-slow advisory fires and steers.");
    println!("Every hedge is paid for from the retry budget; the ledger");
    println!("`attempts - arrivals == spent - parked` is asserted per node.\n");

    let grid = [
        GraySpec {
            name: "quiet",
            stragglers: 0,
            mult_permille: 1_000,
            hedge: false,
            adaptive: false,
            fetch: "flat",
        },
        GraySpec {
            name: "1of10-8x",
            stragglers: 1,
            mult_permille: 8_000,
            hedge: false,
            adaptive: false,
            fetch: "flat",
        },
        GraySpec {
            name: "1of10-8x-hedge",
            stragglers: 1,
            mult_permille: 8_000,
            hedge: true,
            adaptive: true,
            fetch: "flat",
        },
        GraySpec {
            name: "1of10-8x-hedge-fix",
            stragglers: 1,
            mult_permille: 8_000,
            hedge: true,
            adaptive: false,
            fetch: "flat",
        },
        GraySpec {
            name: "2of10-8x-hedge",
            stragglers: 2,
            mult_permille: 8_000,
            hedge: true,
            adaptive: true,
            fetch: "flat",
        },
        GraySpec {
            name: "1of10-16x-hedge",
            stragglers: 1,
            mult_permille: 16_000,
            hedge: true,
            adaptive: true,
            fetch: "flat",
        },
        GraySpec {
            name: "page-io-hedge",
            stragglers: 0,
            mult_permille: 1_000,
            hedge: true,
            adaptive: true,
            fetch: "page-io",
        },
    ];

    println!("| grid point | stragglers | delay | hedge | adaptive | completed | p50 | p99 | p999 | hedges w/l | steered | slow | false-dead | MTTR kcyc |");
    println!("|:-----------|-----------:|------:|:------|:---------|----------:|----:|----:|-----:|-----------:|--------:|-----:|-----------:|----------:|");
    let mut rows = Vec::new();
    let mut p99_off = 0u64;
    let mut p99_hedged = 0u64;
    for spec in &grid {
        let c = gray_once(spec);
        if spec.name == "1of10-8x" {
            p99_off = c.p99;
        }
        if spec.name == "1of10-8x-hedge" {
            p99_hedged = c.p99;
        }
        if spec.fetch == "flat" {
            assert_eq!(
                c.false_dead, 0,
                "{}: a delay-only schedule minted an epoch",
                spec.name
            );
        }
        let mttr_cell = c
            .mttr
            .map_or("—".into(), |m| format!("{:.0}", m as f64 / 1e3));
        println!(
            "| {:<18} | {:>10} | {:>4}x | {:<5} | {:<8} | {:>9} | {:>4} | {:>6} | {:>6} | {:>5}/{:<5} | {:>7} | {:>4} | {:>10} | {:>9} |",
            spec.name,
            spec.stragglers,
            spec.mult_permille / 1_000,
            spec.hedge,
            spec.adaptive,
            c.completed,
            c.p50,
            c.p99,
            c.p999,
            c.hedges_won,
            c.hedges_wasted,
            c.steered,
            c.slow_suspects,
            c.false_dead,
            mttr_cell,
        );
        rows.push(jobj(&[
            ("name", format!("\"{}\"", spec.name)),
            ("stragglers", spec.stragglers.to_string()),
            ("delay_mult_permille", spec.mult_permille.to_string()),
            ("hedge", spec.hedge.to_string()),
            ("adaptive", spec.adaptive.to_string()),
            ("fetch_tier", format!("\"{}\"", spec.fetch)),
            ("arrivals", c.arrivals.to_string()),
            ("attempts", c.attempts.to_string()),
            ("completed", c.completed.to_string()),
            ("dropped", c.dropped.to_string()),
            ("budget_spent", c.budget_spent.to_string()),
            ("parked", c.parked.to_string()),
            ("p50_cycles", c.p50.to_string()),
            ("p99_cycles", c.p99.to_string()),
            ("p999_cycles", c.p999.to_string()),
            ("hedges_sent", c.hedges_sent.to_string()),
            ("hedges_won", c.hedges_won.to_string()),
            ("hedges_wasted", c.hedges_wasted.to_string()),
            ("steered_away", c.steered.to_string()),
            ("slow_suspects", c.slow_suspects.to_string()),
            ("false_dead", c.false_dead.to_string()),
            (
                "mttr_cycles",
                c.mttr.map_or("null".into(), |m| m.to_string()),
            ),
        ]));
    }
    println!();
    let ratio = p99_off as f64 / p99_hedged.max(1) as f64;
    assert!(
        ratio >= 2.0,
        "hedging must cut the straggler p99 at least 2x (got {ratio:.2})"
    );
    println!("Hedging plus the adaptive delay cuts the 10%-straggler/8x p99 by");
    println!("{ratio:.1}x: the duplicate beats the limping owner, the slow advisory");
    println!("steers later forwards around it (no epoch mint, so reintegration on");
    println!("recovery is free), and every duplicate was paid for by one retry");
    println!("token — the budget bounds the hedge amplification exactly as it");
    println!("bounds a retry storm.\n");
    write_json(
        "gray",
        &[
            ("seed", format!("\"{GRAY_SEED:#x}\"")),
            ("nodes", GRAY_NODES.to_string()),
            ("slow_at", GRAY_SLOW_AT.to_string()),
            ("run_until", GRAY_RUN_UNTIL.to_string()),
            ("curve_window", GRAY_WINDOW.to_string()),
            ("p99_improvement", jf(ratio)),
            ("rows", jarr(rows)),
        ],
    );
}

// ---------------------------------------------------------------------
// A-threads — sharded multi-threaded executive throughput
// ---------------------------------------------------------------------
fn throughput() {
    use workloads::throughput::{build, ThroughputSpec};

    println!("## A-threads — sharded executives: KernelEvents/sec\n");
    println!("Each shard is one simulated CPU owning its slice of every kernel");
    println!("structure; cross-CPU interaction (shootdown rounds, writeback");
    println!("shipment, packets, idle steal) is explicit messages on bounded SPSC");
    println!("rings. Lockstep routes messages deterministically at quantum");
    println!("boundaries on one host thread; threaded runs every shard on its own");
    println!("OS thread. The mill: every job faults in a private window, computes,");
    println!("sends one packet, unloads its window (a broadcast shootdown round)");
    println!("and exits (a writeback descriptor shipped to shard 0).\n");

    let jobs_per_shard = 512usize;
    println!("jobs/shard = {jobs_per_shard}, pages/job = 4, ring capacity = 256");
    let stamp = host_stamp();
    for (key, value) in &stamp {
        println!("{key} = {value}");
    }
    println!();
    println!("| shards | mode | wall ms | KernelEvents | Mev/s | msgs | rings_full | steals |");
    println!("|-------:|:-----|--------:|-------------:|------:|-----:|-----------:|-------:|");
    let mut threaded16 = 0.0f64;
    let mut rows = Vec::new();
    for &(shards, threads) in &[
        (1usize, false),
        (2, false),
        (4, false),
        (2, true),
        (4, true),
        (8, true),
        (16, true),
    ] {
        let spec = ThroughputSpec {
            shards,
            jobs_per_shard,
            threads,
            ..ThroughputSpec::default()
        };
        let mut m = build(&spec);
        let t0 = std::time::Instant::now();
        m.run_until_idle(10_000_000);
        let wall = t0.elapsed();
        let c = m.counters();
        assert_eq!(c.thread_exits, spec.total_jobs(), "mill must finish");
        let mevs = c.events_emitted as f64 / wall.as_secs_f64() / 1e6;
        if shards == 16 && threads {
            threaded16 = mevs;
        }
        println!(
            "| {:>6} | {:<8} | {:>7.1} | {:>12} | {:>5.2} | {:>4} | {:>10} | {:>6} |",
            shards,
            if threads { "threaded" } else { "lockstep" },
            wall.as_secs_f64() * 1e3,
            c.events_emitted,
            mevs,
            c.shard_msgs_sent,
            c.rings_full,
            c.shard_steals,
        );
        rows.push(jobj(&[
            ("shards", shards.to_string()),
            (
                "mode",
                format!("\"{}\"", if threads { "threaded" } else { "lockstep" }),
            ),
            ("wall_ms", jf(wall.as_secs_f64() * 1e3)),
            ("events", c.events_emitted.to_string()),
            ("mev_per_s", jf(mevs)),
        ]));
    }
    println!();
    println!("Ring-capacity sensitivity (4 shards, threaded): tiny rings trade");
    println!("throughput for retries, never loss or deadlock.\n");
    println!("| ring capacity | wall ms | Mev/s | rings_full |");
    println!("|--------------:|--------:|------:|-----------:|");
    for &cap in &[4usize, 32, 256, 2048] {
        let spec = ThroughputSpec {
            shards: 4,
            jobs_per_shard,
            threads: true,
            ring_capacity: cap,
            ..ThroughputSpec::default()
        };
        let mut m = build(&spec);
        let t0 = std::time::Instant::now();
        m.run_until_idle(10_000_000);
        let wall = t0.elapsed();
        let c = m.counters();
        assert_eq!(c.thread_exits, spec.total_jobs(), "mill must finish");
        println!(
            "| {:>13} | {:>7.1} | {:>5.2} | {:>10} |",
            cap,
            wall.as_secs_f64() * 1e3,
            c.events_emitted as f64 / wall.as_secs_f64() / 1e6,
            c.rings_full,
        );
    }
    println!();
    println!(
        "16-CPU free-running machine: {threaded16:.2} M KernelEvents/sec (target ≥ 1 M ev/s).\n"
    );
    let mut fields = stamp;
    fields.extend([
        ("jobs_per_shard", jobs_per_shard.to_string()),
        ("rows", jarr(rows)),
        ("threaded16_mev_per_s", jf(threaded16)),
        ("pinned_seeds", pinned_seeds()),
    ]);
    write_json("throughput", &fields);
}

// ---------------------------------------------------------------------
// A-msg — zero-copy batched messaging
// ---------------------------------------------------------------------
fn msg() {
    use libkern::{Channel, PageChannel};

    println!("## A-msg — zero-copy batched messaging\n");

    // 1. Signal storms: the same 16-raise burst (4 pages × 4 receivers)
    //    delivered raise by raise versus through one SignalBatch.
    const RECEIVERS: usize = 4;
    const PAGES: u32 = 4;
    const RAISES: usize = 16;
    let base = 0x40_0000u32;
    let setup_fanout = |h: &mut Bench| -> Vec<u16> {
        let mut slots = Vec::new();
        for _ in 0..RECEIVERS {
            let sp =
                h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                    .unwrap();
            let t =
                h.ck.load_thread(h.srm, ThreadDesc::new(sp, 1, 20), false, &mut h.mpm)
                    .unwrap();
            for p in 0..PAGES {
                h.ck.load_mapping(
                    h.srm,
                    sp,
                    Vaddr(0xa000 + p * PAGE_SIZE),
                    Paddr(base + p * PAGE_SIZE),
                    Pte::MESSAGE,
                    Some(t),
                    None,
                    &mut h.mpm,
                )
                .unwrap();
            }
            slots.push(t.slot);
        }
        slots
    };
    let storm_paddr = |r: usize| Paddr(base + (r as u32 % PAGES) * PAGE_SIZE + (r as u32 * 16));
    let drain = |h: &mut Bench, slots: &[u16]| {
        for &slot in slots {
            while h.ck.take_signal(slot).is_some() {}
            h.ck.signal_return(slot);
        }
    };

    let mut h = Bench::new();
    let slots = setup_fanout(&mut h);
    let c0 = h.mpm.clock.cycles();
    for r in 0..RAISES {
        h.ck.raise_signal(&mut h.mpm, 0, storm_paddr(r));
    }
    let eager_cycles = h.mpm.clock.cycles() - c0;
    drain(&mut h, &slots);
    let eager_ns = quick_median_ns(
        9,
        200,
        &mut h,
        |h| {
            for r in 0..RAISES {
                h.ck.raise_signal(&mut h.mpm, 0, storm_paddr(r));
            }
        },
        |h| drain(h, &slots),
    );

    let mut h = Bench::new();
    let slots = setup_fanout(&mut h);
    let c0 = h.mpm.clock.cycles();
    let mut batch = h.ck.take_signal_batch();
    for r in 0..RAISES {
        batch.add(storm_paddr(r));
    }
    h.ck.finish_signal_batch(batch, &mut h.mpm, 0);
    let batched_cycles = h.mpm.clock.cycles() - c0;
    drain(&mut h, &slots);
    let batched_ns = quick_median_ns(
        9,
        200,
        &mut h,
        |h| {
            let mut batch = h.ck.take_signal_batch();
            for r in 0..RAISES {
                batch.add(storm_paddr(r));
            }
            h.ck.finish_signal_batch(batch, &mut h.mpm, 0);
        },
        |h| drain(h, &slots),
    );

    println!("Signal storm ({RAISES} raises, {PAGES} pages x {RECEIVERS} receivers):");
    println!("  eager  : {eager_ns:.0} ns host / {eager_cycles} sim cycles per storm");
    println!("  batched: {batched_ns:.0} ns host / {batched_cycles} sim cycles per storm");
    println!(
        "  batched/eager: {:.2}x host, {:.2}x sim\n",
        batched_ns / eager_ns,
        batched_cycles as f64 / eager_cycles as f64
    );

    // 2. Classic copying channel versus page-remap channel. Host time
    //    is dominated by harness overhead at these sizes; the simulated
    //    cycles carry the claim — the copy cost scales with the payload,
    //    the remap cost is flat.
    let mut chan_rows = Vec::new();
    println!("| payload | classic ns/msg | zero-copy ns/msg | classic sim | zero-copy sim |");
    println!("|--------:|---------------:|-----------------:|------------:|--------------:|");
    for &size in &[16usize, 256, 3900] {
        let payload = vec![0xabu8; size];

        let mut h = Bench::new();
        let (chan, slot) = {
            let tx_sp =
                h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                    .unwrap();
            let rx_sp =
                h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                    .unwrap();
            let rx =
                h.ck.load_thread(h.srm, ThreadDesc::new(rx_sp, 1, 20), false, &mut h.mpm)
                    .unwrap();
            let c = Channel::setup(
                &mut h.ck,
                &mut h.mpm,
                h.srm,
                tx_sp,
                Vaddr(0xa000),
                rx_sp,
                Vaddr(0xb000),
                rx,
                Paddr(0x48_0000),
            )
            .unwrap();
            (c, rx.slot)
        };
        let mut st = (h, chan);
        // Warm (rTLB + first slow signal), then one metered send.
        st.1.send_bytes(&mut st.0.ck, &mut st.0.mpm, 0, &payload)
            .unwrap();
        st.0.ck.take_signal(slot);
        st.0.ck.signal_return(slot);
        let c0 = st.0.mpm.clock.cycles();
        st.1.send_bytes(&mut st.0.ck, &mut st.0.mpm, 0, &payload)
            .unwrap();
        let _ = st.1.recv(&mut st.0.mpm, 0).unwrap();
        let classic_sim = st.0.mpm.clock.cycles() - c0;
        st.0.ck.take_signal(slot);
        st.0.ck.signal_return(slot);
        let classic_ns = quick_median_ns(
            9,
            200,
            &mut st,
            |(h, chan)| {
                chan.send_bytes(&mut h.ck, &mut h.mpm, 0, &payload).unwrap();
                let _ = chan.recv(&mut h.mpm, 0).unwrap();
            },
            |(h, _)| {
                h.ck.take_signal(slot);
                h.ck.signal_return(slot);
            },
        );

        let mut h = Bench::new();
        let (chan, slot) = {
            let tx_sp =
                h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                    .unwrap();
            let rx_sp =
                h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
                    .unwrap();
            let rx =
                h.ck.load_thread(h.srm, ThreadDesc::new(rx_sp, 1, 20), false, &mut h.mpm)
                    .unwrap();
            let c = PageChannel::setup(
                &mut h.ck,
                &mut h.mpm,
                h.srm,
                tx_sp,
                Vaddr(0xa000),
                rx_sp,
                Vaddr(0xb000),
                rx,
                Paddr(0x48_0000),
                Paddr(0x49_0000),
            )
            .unwrap();
            (c, rx.slot)
        };
        let mut st = (h, chan);
        // Warm, then one metered remap round trip.
        st.1.send(&mut st.0.ck, &mut st.0.mpm, 0, &payload).unwrap();
        st.0.ck.take_signal(slot);
        st.0.ck.signal_return(slot);
        st.1.complete(&mut st.0.ck, &mut st.0.mpm).unwrap();
        let c0 = st.0.mpm.clock.cycles();
        st.1.send(&mut st.0.ck, &mut st.0.mpm, 0, &payload).unwrap();
        let _ = st.1.read_in_place(&st.0.mpm).unwrap();
        st.1.complete(&mut st.0.ck, &mut st.0.mpm).unwrap();
        let zerocopy_sim = st.0.mpm.clock.cycles() - c0;
        st.0.ck.take_signal(slot);
        st.0.ck.signal_return(slot);
        let zerocopy_ns = quick_median_ns(
            9,
            200,
            &mut st,
            |(h, chan)| {
                chan.send(&mut h.ck, &mut h.mpm, 0, &payload).unwrap();
                let _ = chan.read_in_place(&h.mpm).unwrap();
                chan.complete(&mut h.ck, &mut h.mpm).unwrap();
            },
            |(h, _)| {
                h.ck.take_signal(slot);
                h.ck.signal_return(slot);
            },
        );
        let (remaps, copies) = (st.1.remaps, st.1.copies);
        println!(
            "| {:>7} | {:>14.0} | {:>16.0} | {:>11} | {:>13} |",
            size, classic_ns, zerocopy_ns, classic_sim, zerocopy_sim
        );
        chan_rows.push(jobj(&[
            ("payload", size.to_string()),
            ("classic_ns", jf(classic_ns)),
            ("zerocopy_ns", jf(zerocopy_ns)),
            ("classic_sim_cycles", classic_sim.to_string()),
            ("zerocopy_sim_cycles", zerocopy_sim.to_string()),
            ("remaps", remaps.to_string()),
            ("copies", copies.to_string()),
        ]));
    }
    println!();

    // 3. Cross-shard fan-out sweep: one publisher broadcasting to every
    //    shard's listener over the MPSC fan-out ring.
    use workloads::fanout::{build as build_fanout, received, FanoutSpec};
    let mut fanout_rows = Vec::new();
    println!("Fan-out sweep (256 broadcasts, burst 8, threaded):");
    println!("| shards | wall ms | signals delivered | batches | batched signals |");
    println!("|-------:|--------:|------------------:|--------:|----------------:|");
    for &shards in &[2usize, 4, 8] {
        let spec = FanoutSpec {
            shards,
            rounds: 256,
            burst: 8,
            threads: true,
            ..FanoutSpec::default()
        };
        let mut m = build_fanout(&spec);
        let t0 = std::time::Instant::now();
        m.run_until_idle(10_000_000);
        let wall = t0.elapsed();
        let got = received(&mut m);
        assert_eq!(got, (shards * spec.rounds) as u64, "fan-out must finish");
        let c = m.counters();
        println!(
            "| {:>6} | {:>7.1} | {:>17} | {:>7} | {:>15} |",
            shards,
            wall.as_secs_f64() * 1e3,
            got,
            c.signal_batches,
            c.signals_batched,
        );
        fanout_rows.push(jobj(&[
            ("shards", shards.to_string()),
            ("wall_ms", jf(wall.as_secs_f64() * 1e3)),
            ("signals", got.to_string()),
            ("batches", c.signal_batches.to_string()),
            ("batched_signals", c.signals_batched.to_string()),
        ]));
    }
    println!();

    write_json(
        "msg",
        &[
            (
                "storm",
                jobj(&[
                    ("raises", RAISES.to_string()),
                    ("pages", PAGES.to_string()),
                    ("receivers", RECEIVERS.to_string()),
                    ("eager_ns", jf(eager_ns)),
                    ("batched_ns", jf(batched_ns)),
                    ("eager_sim_cycles", eager_cycles.to_string()),
                    ("batched_sim_cycles", batched_cycles.to_string()),
                ]),
            ),
            ("channel", jarr(chan_rows)),
            ("fanout", jarr(fanout_rows)),
            ("pinned_seeds", pinned_seeds()),
        ],
    );
}
