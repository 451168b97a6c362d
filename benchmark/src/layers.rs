//! The metric names: what a user sees end to end, and what each layer
//! contributes. `BENCHMARK.json` is generated from these tables
//! (`ckbench --contract`) and a test keeps the two equal.
//!
//! Layers are the workspace crates: `hw`, `cache-kernel`, `libkern`,
//! `srm`, `db-kernel`, `workloads`, plus `bench` for the harness's own
//! numbers. A per-layer metric a workload does not exercise reads 0.

use crate::stats::{median, median_grouped, percentile};
use crate::trace::{self, Name, Span, Totals};
use crate::workloads::Rep;
use hw::{spsc, Access, Fabric, MachineConfig, Mpm, Packet, PageTable, Pfn, Pte, Vaddr, PAGE_SIZE};
use std::hint::black_box;
use std::time::Instant;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees, on both clocks. Every metric is
/// defined on every workload and is never 0.
pub const END_TO_END: [EndToEnd; 6] = [
    // Host clock: ops completed per second of timed wall, median over reps.
    EndToEnd {
        name: "host_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.15,
    },
    // Sim clock: cycles the timed region consumed per completed op (CPU
    // cycles summed over a mill's shards; the run horizon on serve_*,
    // where this is the inverse of goodput per cycle).
    EndToEnd {
        name: "sim_cycles_per_op",
        unit: "cycles",
        better: "lower",
        bound: 0.03,
    },
    // Ops completed within the latency limit (2^18 sim cycles on
    // serve_*) over ops attempted; shed, dropped and unfinished requests
    // miss it. Equals ok_ratio where a workload has no limit.
    EndToEnd {
        name: "sim_slo_ok_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
    // Ops completed correctly over ops attempted.
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
    // Host: the process's peak resident set (VmHWM) during one rep,
    // median over reps.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
    // Host: boot, build and input generation of one rep, median over reps.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 76] = [
    ("hw.tlb_miss_ratio", "ratio", "lower"),
    ("hw.l2_miss_ratio", "ratio", "lower"),
    ("hw.rtlb_miss_ratio", "ratio", "lower"),
    ("hw.ring.msgs_per_op", "count", "lower"),
    ("hw.ring.full_per_kmsg", "count", "lower"),
    ("hw.fabric.packets_per_op", "count", "lower"),
    ("hw.fabric.blocked_ratio", "ratio", "lower"),
    ("hw.probe.translate_hit_ns", "ns", "lower"),
    ("hw.probe.translate_walk_ns", "ns", "lower"),
    ("hw.probe.spsc_roundtrip_ns", "ns", "lower"),
    ("hw.probe.fabric_send_recv_ns", "ns", "lower"),
    ("cache-kernel.events_per_op", "count", "lower"),
    ("cache-kernel.host_ns_per_event", "ns", "lower"),
    ("cache-kernel.mev_per_s", "Mev/s", "higher"),
    ("cache-kernel.exec_self_s", "s", "lower"),
    ("cache-kernel.exec_self_share", "ratio", "lower"),
    ("cache-kernel.call_self_s", "s", "lower"),
    ("cache-kernel.loads_per_op", "count", "lower"),
    ("cache-kernel.unloads_per_op", "count", "lower"),
    ("cache-kernel.writebacks_per_op", "count", "lower"),
    ("cache-kernel.shootdown_rounds_per_op", "count", "lower"),
    ("cache-kernel.shootdown_batch_pages_mean", "count", "higher"),
    ("cache-kernel.mapping_hit_ratio", "ratio", "higher"),
    ("cache-kernel.thread_reload_ratio", "ratio", "lower"),
    ("cache-kernel.remote_shootdowns_per_op", "count", "lower"),
    ("cache-kernel.steals_per_kop", "count", "lower"),
    ("cache-kernel.loads_shed_ratio", "ratio", "lower"),
    ("cache-kernel.events_dropped", "count", "lower"),
    ("cache-kernel.query_mapping_ns", "ns", "lower"),
    ("cache-kernel.load_mapping_ns", "ns", "lower"),
    ("cache-kernel.load_mapping_p99_ns", "ns", "lower"),
    ("cache-kernel.load_thread_ns", "ns", "lower"),
    ("cache-kernel.take_writebacks_ns", "ns", "lower"),
    ("cache-kernel.raise_signal_ns", "ns", "lower"),
    ("cache-kernel.signal_batch16_ns", "ns", "lower"),
    ("cache-kernel.take_signal_ns", "ns", "lower"),
    ("cache-kernel.signals_fast_ratio", "ratio", "higher"),
    ("cache-kernel.signal_eager16_cycles", "cycles", "lower"),
    ("cache-kernel.signal_batch16_cycles", "cycles", "lower"),
    ("libkern.call_self_s", "s", "lower"),
    ("libkern.chan.classic_16_ns", "ns", "lower"),
    ("libkern.chan.classic_3900_ns", "ns", "lower"),
    ("libkern.chan.page_16_ns", "ns", "lower"),
    ("libkern.chan.page_3900_ns", "ns", "lower"),
    ("libkern.chan.classic_3900_cycles", "cycles", "lower"),
    ("libkern.chan.page_3900_cycles", "cycles", "lower"),
    ("libkern.chan.remaps_per_msg", "ratio", "higher"),
    ("libkern.chan.copies_per_msg", "ratio", "lower"),
    ("libkern.retry.spent_per_kop", "count", "lower"),
    ("libkern.retry.denied_ratio", "ratio", "lower"),
    ("libkern.deadlines_expired_per_kop", "count", "lower"),
    ("libkern.mem.pool_hit_ratio", "ratio", "higher"),
    ("libkern.mem.evictions_per_op", "count", "lower"),
    ("srm.epoch_changes", "count", "lower"),
    ("srm.nodes_down", "count", "lower"),
    ("srm.handler_s", "s", "lower"),
    ("db-kernel.call_self_s", "s", "lower"),
    ("db-kernel.touch_ns", "ns", "lower"),
    ("db-kernel.touch_p99_ns", "ns", "lower"),
    ("db-kernel.disk_reads_per_op", "count", "lower"),
    ("workloads.handler_s", "s", "lower"),
    ("workloads.handler_share", "ratio", "lower"),
    ("workloads.web.front_hit_ratio", "ratio", "higher"),
    ("workloads.web.forward_ratio", "ratio", "lower"),
    ("workloads.web.gen_shortfall_ratio", "ratio", "lower"),
    ("workloads.web.goodput_per_mcycle", "req/Mcycle", "higher"),
    ("workloads.web.lat_p50_cycles", "cycles", "lower"),
    ("workloads.web.lat_p99_cycles", "cycles", "lower"),
    ("workloads.web.lat_share_le_2e14", "ratio", "higher"),
    ("workloads.web.lat_share_le_2e17", "ratio", "higher"),
    ("bench.self_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.rep_iqr_ratio", "ratio", "lower"),
    ("bench.chunk_p95_ns_per_op", "ns/op", "lower"),
    // An equality witness, not a magnitude: the low 48 bits of a hash of
    // every exact counter. It has no better direction; "lower" only
    // satisfies the format.
    ("bench.sim_fingerprint", "hash48", "lower"),
];

/// The per-layer metrics of one traced rep: the counts the workload read
/// from public state, and the host times its spans give. `reference` is
/// an untraced rep of the same seed.
pub fn of_traced_rep(
    rep: &Rep,
    reference: &Rep,
    spans: &[Span],
    tot: &Totals,
) -> Vec<(&'static str, f64)> {
    let mut out = rep.layer.clone();
    let get = |name: &str| {
        rep.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let exact = |name: &str| {
        rep.exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    let layer_self = |layer: &str| {
        tot.by_layer
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns)
    };
    let name_self = |name: Name| tot.by_name[name as usize].2;

    // Host cost per kernel event comes from the untraced rep: tracing
    // must not inflate it.
    let events = get("cache-kernel.events_per_op") * rep.ok as f64;
    if events > 0.0 {
        out.push((
            "cache-kernel.host_ns_per_event",
            reference.wall_ns as f64 / events,
        ));
        out.push((
            "cache-kernel.mev_per_s",
            events / secs(reference.wall_ns) / 1e6,
        ));
    }

    // Self time per layer. The executive's own share is its spans minus
    // the handler spans under them. Shares are of the traced time
    // spent outside the harness (on mill_2t: of the shard threads' time).
    let exec =
        name_self(trace::RUN_UNTIL_IDLE) + name_self(trace::STEP) + name_self(trace::SHARD_THREAD);
    let outside_harness = tot.roots.saturating_sub(layer_self("bench")).max(1) as f64;
    out.extend([
        ("cache-kernel.exec_self_s", secs(exec)),
        (
            "cache-kernel.exec_self_share",
            exec as f64 / outside_harness,
        ),
        (
            "cache-kernel.call_self_s",
            secs(layer_self("cache-kernel") - exec),
        ),
        ("libkern.call_self_s", secs(layer_self("libkern"))),
        ("db-kernel.call_self_s", secs(layer_self("db-kernel"))),
        ("srm.handler_s", secs(layer_self("srm"))),
        ("workloads.handler_s", secs(layer_self("workloads"))),
        (
            "workloads.handler_share",
            layer_self("workloads") as f64 / outside_harness,
        ),
        ("bench.self_s", secs(layer_self("bench"))),
        ("bench.traced_wall_s", secs(rep.wall_ns)),
        (
            "bench.trace_overhead_ratio",
            rep.wall_ns as f64 / reference.wall_ns.max(1) as f64,
        ),
    ]);

    // Host time per call, for the calls a workload makes one at a time.
    // Durations are whole ns and many calls are a few clock reads long,
    // so the median is read off inside its tie interval.
    // `(metric, span name, calls per span, p99 metric)`
    let per_call: [(&'static str, Name, f64, Option<&'static str>); 11] = [
        (
            "cache-kernel.query_mapping_ns",
            trace::CK_QUERY_MAPPING,
            1.0,
            None,
        ),
        (
            "cache-kernel.load_mapping_ns",
            trace::CK_LOAD_MAPPING,
            1.0,
            Some("cache-kernel.load_mapping_p99_ns"),
        ),
        (
            "cache-kernel.load_thread_ns",
            trace::CK_LOAD_THREAD,
            1.0,
            None,
        ),
        (
            "cache-kernel.take_writebacks_ns",
            trace::CK_TAKE_WRITEBACKS,
            1.0,
            None,
        ),
        (
            "db-kernel.touch_ns",
            trace::DB_TOUCH,
            1.0,
            Some("db-kernel.touch_p99_ns"),
        ),
        // One span covers the storm's 16 raises.
        (
            "cache-kernel.raise_signal_ns",
            trace::SIG_EAGER16,
            16.0,
            None,
        ),
        (
            "cache-kernel.signal_batch16_ns",
            trace::SIG_BATCH16,
            1.0,
            None,
        ),
        (
            "libkern.chan.classic_16_ns",
            trace::CHAN_CLASSIC_16,
            1.0,
            None,
        ),
        (
            "libkern.chan.classic_3900_ns",
            trace::CHAN_CLASSIC_3900,
            1.0,
            None,
        ),
        ("libkern.chan.page_16_ns", trace::CHAN_PAGE_16, 1.0, None),
        (
            "libkern.chan.page_3900_ns",
            trace::CHAN_PAGE_3900,
            1.0,
            None,
        ),
    ];
    // One pass over the spans, keeping the durations of the names above.
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); trace::NAME_COUNT];
    for s in spans {
        if per_call.iter().any(|(_, name, _, _)| *name == s.name) {
            durations[s.name as usize].push(s.dur() as f64);
        }
    }
    for (metric, name, calls, p99) in per_call {
        let d = &durations[name as usize];
        if d.is_empty() {
            continue;
        }
        out.push((metric, median_grouped(d) / calls));
        if let Some(p99) = p99 {
            out.push((p99, percentile(d, 0.99)));
        }
    }
    // A drain span covers a variable number of take_signal calls.
    let takes = exact("take_signal_calls");
    if takes > 0 {
        out.push((
            "cache-kernel.take_signal_ns",
            tot.by_name[trace::SIG_DRAIN as usize].1 as f64 / takes as f64,
        ));
    }

    if !reference.chunk_ns_per_op.is_empty() {
        out.push((
            "bench.chunk_p95_ns_per_op",
            percentile(&reference.chunk_ns_per_op, 0.95),
        ));
    }
    out
}

fn median_ns_per_iter(iters: u32, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                body();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&samples)
}

/// Host cost of the hardware layer's hottest public operations, probed
/// in isolation: count x probe estimates the `hw` share of a workload,
/// which the outside-in spans cannot separate from the Cache Kernel's.
pub fn hw_probes() -> Vec<(&'static str, f64)> {
    const ITERS: u32 = 100_000;
    let mut mpm = Mpm::new(MachineConfig {
        phys_frames: 4_096,
        ..MachineConfig::default()
    });
    let mut pt = PageTable::new();
    let pages = 4 * mpm.cpus[0].tlb.capacity() as u32;
    for p in 0..pages {
        pt.insert(
            Vaddr(p * PAGE_SIZE).vpn(),
            Pte::new(Pfn(64 + p), Pte::CACHEABLE),
        );
    }
    let hit = median_ns_per_iter(ITERS, || {
        black_box(
            mpm.translate(0, 1, &mut pt, black_box(Vaddr(0x10)), Access::Read)
                .is_ok(),
        );
    });
    // Cycling through four times the TLB's capacity misses every time.
    let mut next = 0;
    let walk = median_ns_per_iter(ITERS, || {
        next = (next + 1) % pages;
        black_box(
            mpm.translate(0, 1, &mut pt, Vaddr(next * PAGE_SIZE), Access::Read)
                .is_ok(),
        );
    });
    let (tx, rx) = spsc::<u64>(256);
    let ring = median_ns_per_iter(ITERS, || {
        black_box(tx.push(black_box(7)).is_ok());
        black_box(rx.pop());
    });
    let mut fabric = Fabric::new(2);
    let send_recv = median_ns_per_iter(ITERS, || {
        fabric.send(Packet {
            src: 0,
            dst: 1,
            channel: 1,
            data: vec![0u8; 13],
        });
        black_box(fabric.recv(1));
    });
    vec![
        ("hw.probe.translate_hit_ns", hit),
        ("hw.probe.translate_walk_ns", walk),
        ("hw.probe.spsc_roundtrip_ns", ring),
        ("hw.probe.fabric_send_recv_ns", send_recv),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.0));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        assert!(PER_LAYER.len() <= 128);
        assert!(crate::workloads::WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_contract_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed.trim_end(), crate::contract_json().trim_end());
    }

    #[test]
    fn probes_report_every_probe_metric() {
        let probes = hw_probes();
        let listed: Vec<_> = PER_LAYER
            .iter()
            .filter(|m| m.0.starts_with("hw.probe."))
            .collect();
        assert_eq!(probes.len(), listed.len());
        assert!(probes
            .iter()
            .all(|(name, ns)| *ns > 0.0 && listed.iter().any(|m| m.0 == *name)));
    }
}
