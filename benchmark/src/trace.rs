//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Nothing inside the crates is instrumented, so a
//! span's layer is the layer of the function the benchmark called; what
//! that function calls further down stays inside its span.
//!
//! Spans are held in memory and written out when the traced rep ends.
//! With tracing off every probe call compiles to nothing ([`Off`]), so
//! the end-to-end runs measure the program alone.

use cache_kernel::{
    AppKernel, ClusterEvent, Env, FaultDisposition, ObjId, TrapDisposition, Writeback,
};
use hw::Fault;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index into [`NAMES`].
pub type Name = u8;

pub const REP: Name = 0;
pub const RUN_UNTIL_IDLE: Name = 1;
pub const STEP: Name = 2;
pub const SHARD_THREAD: Name = 3;
pub const RUN_WAIT: Name = 4;
pub const CK_QUERY_MAPPING: Name = 5;
pub const CK_LOAD_MAPPING: Name = 6;
pub const CK_THREAD: Name = 7;
pub const CK_LOAD_THREAD: Name = 8;
pub const CK_TAKE_WRITEBACKS: Name = 9;
pub const DB_TOUCH: Name = 10;
pub const SIG_EAGER16: Name = 11;
pub const SIG_BATCH16: Name = 12;
pub const SIG_DRAIN: Name = 13;
pub const CHAN_CLASSIC_16: Name = 14;
pub const CHAN_CLASSIC_3900: Name = 15;
pub const CHAN_PAGE_16: Name = 16;
pub const CHAN_PAGE_3900: Name = 17;
/// First handler span of each decorated application-kernel family; the
/// eight handlers follow in [`HANDLERS`] order.
pub const SHARD_DRIVER: Name = 18;
pub const WEB_FRONT: Name = SHARD_DRIVER + HANDLERS.len() as u8;
pub const SRM: Name = WEB_FRONT + HANDLERS.len() as u8;

const HANDLERS: [&str; 8] = [
    "on_page_fault",
    "on_trap",
    "on_exception",
    "on_writeback",
    "on_tick",
    "on_packet",
    "on_thread_exit",
    "on_cluster_event",
];

/// `(label, layer)` of every span name below the handler families.
const NAMES: [(&str, &str); SHARD_DRIVER as usize] = [
    ("bench::rep", "bench"),
    ("Machine::run_until_idle", "cache-kernel"),
    ("Machine::step", "cache-kernel"),
    ("shard thread", "cache-kernel"),
    (
        "Machine::run_until_idle (caller asleep while the shard threads run)",
        "bench",
    ),
    ("CacheKernel::query_mapping", "cache-kernel"),
    ("CacheKernel::load_mapping", "cache-kernel"),
    ("CacheKernel::thread", "cache-kernel"),
    ("CacheKernel::load_thread", "cache-kernel"),
    ("CacheKernel::take_writebacks", "cache-kernel"),
    ("DbKernel::touch", "db-kernel"),
    ("CacheKernel::raise_signal x16", "cache-kernel"),
    ("SignalBatch::add x16 + finish_signal_batch", "cache-kernel"),
    ("CacheKernel::take_signal drain", "cache-kernel"),
    ("Channel send_bytes+recv 16B", "libkern"),
    ("Channel send_bytes+recv 3900B", "libkern"),
    ("PageChannel send+read_in_place+complete 16B", "libkern"),
    ("PageChannel send+read_in_place+complete 3900B", "libkern"),
];

const FAMILIES: [(Name, &str, &str); 3] = [
    (SHARD_DRIVER, "ShardDriver", "workloads"),
    (WEB_FRONT, "WebFrontKernel", "workloads"),
    (SRM, "Srm", "srm"),
];

pub const NAME_COUNT: usize = SRM as usize + HANDLERS.len();

fn family_of(name: Name) -> Option<(Name, &'static str, &'static str)> {
    FAMILIES
        .iter()
        .rev()
        .find(|(base, _, _)| name >= *base)
        .copied()
}

pub fn label(name: Name) -> String {
    match family_of(name) {
        Some((base, kernel, _)) => format!("{kernel}::{}", HANDLERS[(name - base) as usize]),
        None => NAMES[name as usize].0.to_string(),
    }
}

pub fn layer(name: Name) -> &'static str {
    match family_of(name) {
        Some((_, _, layer)) => layer,
        None => NAMES[name as usize].1,
    }
}

pub const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start and end (ns since the tracer's epoch),
/// the span that caused it, and the request/op/chunk id it belongs to.
/// `lane` is the host thread the call ran on (0 = the benchmark's own).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub id: u32,
    pub name: Name,
    pub lane: u8,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover. Children of one parent never overlap here (one thread, calls
/// nest), so the covered part is the sum of the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// What a workload's rep is generic over: [`Off`] for the timed runs,
/// [`Tracer`] for the traced one.
pub trait Probe {
    const ON: bool;
    fn enter(&mut self, name: Name, id: u32) -> u32;
    fn exit(&mut self, span: u32);
    /// Wrap an application kernel so each handler call is spanned.
    /// `started` says the kernel already had its `on_start`.
    fn wrap(
        &mut self,
        family: Name,
        lane: u8,
        started: bool,
        inner: Box<dyn AppKernel>,
    ) -> Box<dyn AppKernel>;
    /// Fold the decorators' handler spans under the executive spans that
    /// contain them (`threaded`: under one synthesized root per shard
    /// thread, since those handlers ran beside the caller, not under it).
    fn adopt_handlers(&mut self, threaded: bool);
}

pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn enter(&mut self, _name: Name, _id: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _span: u32) {}
    fn wrap(
        &mut self,
        _family: Name,
        _lane: u8,
        _started: bool,
        inner: Box<dyn AppKernel>,
    ) -> Box<dyn AppKernel> {
        inner
    }
    fn adopt_handlers(&mut self, _threaded: bool) {}
}

/// `(name, start, end)` of one handler call, logged by a decorator.
type HandlerLog = Arc<Mutex<Vec<(Name, u64, u64)>>>;

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    logs: Vec<(u8, HandlerLog)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            logs: Vec::new(),
        }
    }

    /// Forget the previous rep's spans, keeping the buffer.
    pub fn reset(&mut self) {
        self.epoch = Instant::now();
        self.spans.clear();
        self.open.clear();
        self.logs.clear();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    #[inline]
    fn enter(&mut self, name: Name, id: u32) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(idx);
        let start = self.now();
        self.spans.push(Span {
            start,
            end: start,
            parent,
            id,
            name,
            lane: 0,
        });
        idx
    }

    #[inline]
    fn exit(&mut self, span: u32) {
        let end = self.now();
        self.spans[span as usize].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span), "spans must nest");
    }

    fn wrap(
        &mut self,
        family: Name,
        lane: u8,
        started: bool,
        inner: Box<dyn AppKernel>,
    ) -> Box<dyn AppKernel> {
        let log: HandlerLog = Arc::default();
        self.logs.push((lane, Arc::clone(&log)));
        Box::new(Traced {
            inner,
            family,
            started,
            epoch: self.epoch,
            log,
        })
    }

    fn adopt_handlers(&mut self, threaded: bool) {
        let logs = std::mem::take(&mut self.logs);
        // Executive spans of lane 0 in start order, for containment.
        let execs: Vec<u32> = (0..self.spans.len() as u32)
            .filter(|&i| matches!(self.spans[i as usize].name, RUN_UNTIL_IDLE | STEP))
            .collect();
        for (lane, log) in logs {
            let calls = std::mem::take(&mut *log.lock().expect("decorator never panics"));
            let root = if threaded {
                // The shard's thread lived for the length of the caller's
                // one run_until_idle span, which the caller slept through.
                if let Some(&i) = execs.first() {
                    self.spans[i as usize].name = RUN_WAIT;
                }
                let run = execs.first().map(|&i| self.spans[i as usize]);
                let (start, end) = run.map_or((0, 0), |r| (r.start, r.end));
                self.spans.push(Span {
                    start,
                    end,
                    parent: NO_PARENT,
                    id: lane as u32,
                    name: SHARD_THREAD,
                    lane,
                });
                Some(self.spans.len() as u32 - 1)
            } else {
                None
            };
            for (name, start, end) in calls {
                let parent = root.or_else(|| {
                    let at = execs.partition_point(|&i| self.spans[i as usize].start <= start);
                    at.checked_sub(1).map(|k| execs[k])
                });
                let id = parent.map_or(0, |p| self.spans[p as usize].id);
                self.spans.push(Span {
                    start,
                    end,
                    parent: parent.unwrap_or(NO_PARENT),
                    id,
                    name,
                    lane,
                });
            }
        }
    }
}

/// The bench-owned application-kernel decorator: forwards every handler
/// to the wrapped kernel and logs a span around it. `as_any` forwards
/// too, so `Executive::with_kernel::<Inner, _>` keeps working and the
/// decorated run is the undecorated run plus clock reads.
struct Traced {
    inner: Box<dyn AppKernel>,
    family: Name,
    started: bool,
    epoch: Instant,
    log: HandlerLog,
}

impl Traced {
    #[inline]
    fn spanned<R>(&mut self, handler: u8, f: impl FnOnce(&mut dyn AppKernel) -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let r = f(self.inner.as_mut());
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.log
            .lock()
            .expect("decorator never panics")
            .push((self.family + handler, start, end));
        r
    }
}

impl AppKernel for Traced {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any()
    }
    fn on_start(&mut self, env: &mut Env, id: ObjId) {
        // Re-registering an already running kernel must not start it twice.
        if !self.started {
            self.started = true;
            self.inner.on_start(env, id);
        }
    }
    fn on_page_fault(&mut self, env: &mut Env, t: ObjId, f: Fault) -> FaultDisposition {
        self.spanned(0, |k| k.on_page_fault(env, t, f))
    }
    fn on_trap(&mut self, env: &mut Env, t: ObjId, no: u32, args: [u32; 4]) -> TrapDisposition {
        self.spanned(1, |k| k.on_trap(env, t, no, args))
    }
    fn on_exception(&mut self, env: &mut Env, t: ObjId, f: Fault) -> FaultDisposition {
        self.spanned(2, |k| k.on_exception(env, t, f))
    }
    fn on_writeback(&mut self, env: &mut Env, wb: Writeback) {
        self.spanned(3, |k| k.on_writeback(env, wb))
    }
    fn on_tick(&mut self, env: &mut Env) {
        self.spanned(4, |k| k.on_tick(env))
    }
    fn on_packet(&mut self, env: &mut Env, src: usize, channel: u32, data: &[u8]) {
        self.spanned(5, |k| k.on_packet(env, src, channel, data))
    }
    fn on_thread_exit(&mut self, env: &mut Env, t: ObjId, code: i32) {
        self.spanned(6, |k| k.on_thread_exit(env, t, code))
    }
    fn on_cluster_event(&mut self, env: &mut Env, ev: ClusterEvent) {
        self.spanned(7, |k| k.on_cluster_event(env, ev))
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Per-name and per-layer totals of one traced rep.
pub struct Totals {
    /// Calls, summed duration and summed self time per span name (ns).
    pub by_name: Vec<(u64, u64, u64)>,
    /// Summed self time per layer (ns), in first-seen order.
    pub by_layer: Vec<(&'static str, u64)>,
    /// Summed duration of the root spans (ns): the traced wall, counted
    /// once per host thread.
    pub roots: u64,
}

pub fn totals(spans: &[Span]) -> Totals {
    let own = self_times(spans);
    let mut by_name = vec![(0u64, 0u64, 0u64); NAME_COUNT];
    let mut by_layer: Vec<(&'static str, u64)> = Vec::new();
    let mut roots = 0;
    for (s, own) in spans.iter().zip(own) {
        let n = &mut by_name[s.name as usize];
        n.0 += 1;
        n.1 += s.dur();
        n.2 += own;
        let l = layer(s.name);
        match by_layer.iter_mut().find(|(name, _)| *name == l) {
            Some((_, total)) => *total += own,
            None => by_layer.push((l, own)),
        }
        if s.parent == NO_PARENT {
            roots += s.dur();
        }
    }
    Totals {
        by_name,
        by_layer,
        roots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            start,
            end,
            parent,
            id: 0,
            name: REP,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100
        //   a 10..40        (sibling 1)
        //     a1 15..25     (nested under a)
        //   b 50..90        (sibling 2)
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(15, 25, 1),
            span(50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_parents_and_totals_sum_to_the_root() {
        let mut t = Tracer::new();
        let rep = t.enter(REP, 0);
        for op in 0..3 {
            let q = t.enter(CK_QUERY_MAPPING, op);
            t.exit(q);
            let d = t.enter(DB_TOUCH, op);
            t.exit(d);
        }
        t.exit(rep);
        assert_eq!(t.spans.len(), 7);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert!(t.spans[1..].iter().all(|s| s.parent == 0));
        let tot = totals(&t.spans);
        assert_eq!(tot.by_name[CK_QUERY_MAPPING as usize].0, 3);
        assert_eq!(tot.roots, t.spans[0].dur());
        assert_eq!(
            tot.by_layer.iter().map(|(_, ns)| ns).sum::<u64>(),
            tot.roots
        );
        let layers: Vec<_> = tot.by_layer.iter().map(|(l, _)| *l).collect();
        assert_eq!(layers, ["bench", "cache-kernel", "db-kernel"]);
    }

    #[test]
    fn names_cover_every_family_handler() {
        assert_eq!(label(REP), "bench::rep");
        assert_eq!(label(SHARD_DRIVER), "ShardDriver::on_page_fault");
        assert_eq!(label(WEB_FRONT + 4), "WebFrontKernel::on_tick");
        assert_eq!(label(SRM + 7), "Srm::on_cluster_event");
        assert_eq!(layer(SHARD_DRIVER + 7), "workloads");
        assert_eq!(layer(SRM), "srm");
        assert_eq!(layer(CHAN_PAGE_3900), "libkern");
        assert_eq!(NAME_COUNT, 42);
    }
}
