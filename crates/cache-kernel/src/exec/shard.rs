//! The sharded machine: N executives, N shards, explicit messages.
//!
//! A [`Machine`] runs several executives. In the **classic** form
//! (built with [`Machine::new`]) the executives are MPM nodes joined by
//! the store-and-forward [`Fabric`] — the multi-MPM cluster of Fig. 4,
//! byte-identical to the pre-sharding `Cluster` (which is now just a
//! type alias). In the **sharded** form (built with
//! [`Machine::sharded`]) each executive owns one shard of a single
//! simulated machine: its object-cache partition, its physmap
//! partition, its per-CPU ready queue and its counter cell. No shard
//! ever touches another's state; every cross-CPU interaction — TLB
//! shootdown rounds, writeback delivery, signal fan-out, idle steal,
//! interconnect packets — is a [`ShardMsg`] on a bounded SPSC ring
//! ([`hw::ring`]) between the two executives.
//!
//! Two run modes sit behind the one `step`/`run_until_idle` seam:
//!
//! * [`RunMode::Lockstep`] — deterministic. Every quantum runs the
//!   shards in index order on the calling thread, then routes messages
//!   in fixed `(dst, src)` order. Trace-pinned tests, property tests
//!   and fault replay use this mode; with the `lockstep` cargo feature
//!   enabled it is forced regardless of configuration.
//! * [`RunMode::Threaded`] — free-running. Each shard runs on its own
//!   OS thread; rings carry the messages; quiescence is detected from
//!   the shared in-flight count (incremented strictly before a message
//!   becomes visible, decremented strictly after it is fully
//!   processed — once per pass over the rings, not once per message, so
//!   in between the count is merely conservative), so the machine can
//!   never report idle while a shootdown round is still in flight.
//!
//! Backpressure, never loss: a send that finds its ring full counts
//! `rings_full` and stays queued on the sender; it is retried until it
//! fits. A shard thread that panics is caught, counted in
//! `threads_panicked`, and its shard halted — the machine stays usable.
//!
//! [`ShardMsg`]: crate::shardmsg::ShardMsg
//! [`Fabric`]: hw::Fabric

use super::Executive;
use crate::ck::{CacheKernel, CkConfig};
use crate::counters::Counters;
use crate::shardmsg::{ShardDst, ShardExport, ShardMsg};
use hw::{
    mpsc, spsc, Fabric, FaultPlan, FrameFate, MachineConfig, Mpm, MpscRx, MpscTx, Paddr, RingRx,
    RingTx,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How a sharded machine executes its shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Barrier-stepped on the calling thread, messages routed in fixed
    /// order at quantum boundaries: deterministic, replayable.
    Lockstep,
    /// One OS thread per shard, rings drained as messages arrive:
    /// fast, order-nondeterministic (totals still converge).
    Threaded,
}

/// Configuration of a sharded machine.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards (= simulated CPUs; each shard's MPM has one).
    pub shards: usize,
    /// Physical frames owned by each shard's physmap partition.
    pub frames_per_shard: usize,
    /// Capacity of each inter-shard SPSC ring.
    pub ring_capacity: usize,
    /// Start in free-running threaded mode (the `lockstep` cargo
    /// feature overrides this to lockstep).
    pub threads: bool,
    /// Idle shards steal backlog jobs from their peers.
    pub steal: bool,
    /// Wall-clock seconds the free-running quiescence watchdog allows a
    /// run before force-stopping it. Injected delay schedules slow
    /// *simulated* delivery, not host time, so they must extend a run
    /// within this bound — never trip it.
    pub watchdog_secs: u64,
    /// Cache-Kernel configuration template (`shard_fanout` is set to
    /// the shard count automatically).
    pub ck: CkConfig,
    /// Machine configuration template (`node`, `cpus` and
    /// `phys_frames` are overridden per shard).
    pub machine: MachineConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            frames_per_shard: 2048,
            ring_capacity: 256,
            threads: false,
            steal: true,
            watchdog_secs: 60,
            ck: CkConfig::default(),
            machine: MachineConfig::default(),
        }
    }
}

/// One shard's end of the mesh: its transmit ring to every other shard,
/// its receive ring from every other shard, and the per-destination
/// egress queues where messages wait (and are retried) when a ring is
/// full.
pub(crate) struct ShardPort {
    tx: Vec<Option<RingTx<ShardMsg>>>,
    rx: Vec<Option<RingRx<ShardMsg>>>,
    egress: Vec<VecDeque<ShardMsg>>,
    /// Producer ends of the other shards' signal fan-out rings.
    sig_tx: Vec<Option<MpscTx<Paddr>>>,
    /// Consumer end of this shard's signal fan-out ring.
    sig_rx: Option<MpscRx<Paddr>>,
    /// Per-destination deferred signals (full fan-out ring).
    sig_egress: Vec<VecDeque<Paddr>>,
    /// Reusable drain buffer for one sweep of the fan-out ring.
    sig_sweep: Vec<Paddr>,
    /// The buffer `collect_exports` swaps with the Cache Kernel's export
    /// queue, so both keep their capacity from quantum to quantum.
    exports: Vec<ShardExport>,
}

impl ShardPort {
    fn egress_empty(&self) -> bool {
        self.egress.iter().all(|q| q.is_empty()) && self.sig_egress.iter().all(|q| q.is_empty())
    }
}

/// The full mesh: N×(N−1) SPSC rings plus the shared in-flight count.
/// A message is "in flight" from the moment it is queued for egress to
/// the moment its receiver has fully processed it, so
/// `in_flight == 0 && all shards idle` really means quiescent.
pub(crate) struct RingMesh {
    ports: Vec<ShardPort>,
    in_flight: Arc<AtomicU64>,
    /// Ring capacity (diagnostics).
    pub(crate) capacity: usize,
}

impl RingMesh {
    fn new(shards: usize, capacity: usize) -> Self {
        let mut ports: Vec<ShardPort> = (0..shards)
            .map(|_| ShardPort {
                tx: (0..shards).map(|_| None).collect(),
                rx: (0..shards).map(|_| None).collect(),
                egress: (0..shards).map(|_| VecDeque::new()).collect(),
                sig_tx: (0..shards).map(|_| None).collect(),
                sig_rx: None,
                sig_egress: (0..shards).map(|_| VecDeque::new()).collect(),
                sig_sweep: Vec::new(),
                exports: Vec::new(),
            })
            .collect();
        for src in 0..shards {
            for dst in 0..shards {
                if src == dst {
                    continue;
                }
                let (tx, rx) = spsc::<ShardMsg>(capacity);
                ports[src].tx[dst] = Some(tx);
                ports[dst].rx[src] = Some(rx);
            }
        }
        // One MPSC fan-out ring per shard for shipped signals: every
        // other shard holds a producer handle, so a broadcast signal is
        // one cheap `Paddr` push per peer instead of a full `ShardMsg`,
        // and the receiver drains the whole ring in one wakeup sweep.
        for dst in 0..shards {
            if shards < 2 {
                break;
            }
            let (tx, rx) = mpsc::<Paddr>(capacity);
            for (src, port) in ports.iter_mut().enumerate() {
                if src != dst {
                    port.sig_tx[dst] = Some(tx.clone());
                }
            }
            ports[dst].sig_rx = Some(rx);
        }
        RingMesh {
            ports,
            in_flight: Arc::new(AtomicU64::new(0)),
            capacity,
        }
    }
}

/// One pass's in-flight accounting — messages queued (+) or popped (−)
/// — applied to the shared count in a single RMW when it drops. On
/// unwind too, so a handler that panics mid-pass can neither leave
/// popped messages counted (the run would wait out the watchdog) nor
/// queued ones uncounted. The caller places the drop: after the last
/// handler returns, before `flush_egress`.
struct InFlightPass<'a> {
    total: &'a AtomicU64,
    delta: i64,
}

impl Drop for InFlightPass<'_> {
    fn drop(&mut self) {
        if self.delta != 0 {
            // Two's complement: adding a wrapped negative subtracts.
            self.total.fetch_add(self.delta as u64, Ordering::SeqCst);
        }
    }
}

/// One shard's coordination cells, on a cache line of their own: only
/// its worker writes them, and flipping one must not invalidate the
/// line its peers poll.
#[derive(Default)]
#[repr(align(64))]
struct ShardFlags {
    /// The shard has nothing to do right now (may wake again).
    idle: AtomicBool,
    /// The shard has exhausted its quantum budget.
    done: AtomicBool,
}

/// Coordination flags shared with the worker threads of one
/// free-running run. Scoped threads borrow it; nothing escapes the run.
struct RunFlags {
    shard: Vec<ShardFlags>,
    /// Coordinator verdict: everyone go home.
    stop: AtomicBool,
    /// The (parked) coordinator: the thread that built the flags.
    coordinator: std::thread::Thread,
}

impl RunFlags {
    fn new(n: usize) -> Self {
        RunFlags {
            shard: (0..n).map(|_| ShardFlags::default()).collect(),
            stop: AtomicBool::new(false),
            coordinator: std::thread::current(),
        }
    }

    fn settled(&self) -> bool {
        let set = |flag: &AtomicBool| flag.load(Ordering::SeqCst);
        self.shard.iter().all(|f| set(&f.idle) || set(&f.done))
    }

    /// Publish a shard's idle or done flag and wake the coordinator:
    /// either may be the store that settles the machine.
    fn settle(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::SeqCst);
        self.coordinator.unpark();
    }
}

/// A machine of several executives: a classic fabric-connected cluster,
/// or a sharded multiprocessor whose shards exchange explicit messages.
pub struct Machine {
    /// The per-node (per-shard) executives.
    pub nodes: Vec<Executive>,
    /// The interconnect (classic clusters; sharded machines route
    /// packets over the rings instead).
    pub fabric: Fabric,
    /// Cluster-level fault schedule: partitions, heals and whole-node
    /// failures, applied at step boundaries against simulated time.
    /// `None` keeps the fault-free fast path exactly as before.
    pub net_faults: Option<FaultPlan>,
    /// The ring mesh (`Some` iff the machine is sharded).
    pub(crate) mesh: Option<RingMesh>,
    /// Configured run mode (see [`Machine::run_mode`] for the effective
    /// one).
    pub mode: RunMode,
    /// Idle shards steal backlog jobs from their peers.
    pub steal: bool,
    /// Free-running watchdog bound in wall-clock seconds (see
    /// [`ShardConfig::watchdog_secs`]).
    pub watchdog_secs: u64,
}

/// The historical name for the classic multi-MPM configuration: every
/// pre-sharding test and workload built a `Cluster`, and they all still
/// do — the classic [`Machine`] paths are byte-identical.
pub type Cluster = Machine;

impl Machine {
    /// Assemble a classic cluster from executives (their machine
    /// configs should carry distinct node indices).
    pub fn new(nodes: Vec<Executive>) -> Self {
        let fabric = Fabric::new(nodes.len());
        Machine {
            nodes,
            fabric,
            net_faults: None,
            mesh: None,
            mode: RunMode::Lockstep,
            steal: false,
            watchdog_secs: 60,
        }
    }

    /// Build a sharded machine: `cfg.shards` single-CPU executives,
    /// each owning `frames_per_shard` physical frames and one shard of
    /// every kernel structure, connected by a full mesh of bounded
    /// SPSC rings.
    pub fn sharded(cfg: ShardConfig) -> Self {
        let n = cfg.shards.max(1);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let mut ckc = cfg.ck.clone();
            ckc.shard_fanout = n;
            let mpm = Mpm::new(MachineConfig {
                node: i,
                cpus: 1,
                phys_frames: cfg.frames_per_shard,
                ..cfg.machine.clone()
            });
            nodes.push(Executive::new(CacheKernel::new(ckc), mpm));
        }
        Machine {
            nodes,
            fabric: Fabric::new(n),
            net_faults: None,
            mesh: Some(RingMesh::new(n, cfg.ring_capacity.max(2))),
            mode: if cfg.threads {
                RunMode::Threaded
            } else {
                RunMode::Lockstep
            },
            steal: cfg.steal,
            watchdog_secs: cfg.watchdog_secs.max(1),
        }
    }

    /// Number of shards (or cluster nodes).
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// Whether this machine is sharded (vs. a classic cluster).
    pub fn is_sharded(&self) -> bool {
        self.mesh.is_some()
    }

    /// The mode the machine will actually run in: the configured mode,
    /// except that the `lockstep` cargo feature pins everything to
    /// lockstep (so a trace-pinned test suite can force determinism
    /// across the whole tree with one feature flag).
    pub fn run_mode(&self) -> RunMode {
        if cfg!(feature = "lockstep") {
            RunMode::Lockstep
        } else {
            self.mode
        }
    }

    /// Messages currently in flight between shards (queued for egress,
    /// riding a ring, or being processed).
    pub fn in_flight(&self) -> u64 {
        self.mesh
            .as_ref()
            .map(|m| m.in_flight.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Capacity of each inter-shard ring (0 for classic clusters).
    pub fn ring_capacity(&self) -> usize {
        self.mesh.as_ref().map(|m| m.capacity).unwrap_or(0)
    }

    /// The machine's counters: every shard's cell merged into one.
    /// Shards never share a counter cache line; totals exist only at
    /// read time.
    pub fn counters(&self) -> Counters {
        let mut total = Counters::default();
        for node in &self.nodes {
            total.merge_from(&node.ck.stats);
        }
        total
    }

    /// Run every node for `quanta`, then move cross-node traffic. A
    /// failed (halted) node simply stops executing; its traffic is
    /// dropped (fault containment, §3).
    pub fn step(&mut self, quanta: usize) {
        if self.mesh.is_some() {
            match self.run_mode() {
                RunMode::Lockstep => self.lockstep_rounds(quanta),
                RunMode::Threaded => {
                    self.run_threaded(quanta, false);
                }
            }
            return;
        }
        self.classic_step(quanta);
    }

    /// Run until every executive is idle and no message is in flight,
    /// or `max_quanta` elapse. Returns the quanta used (per shard).
    ///
    /// Quiescence is cross-executive: all shards locally idle *and*
    /// the in-flight count zero *and* every outbox/export queue empty.
    /// The in-flight count covers a message from egress-queue to
    /// fully-processed, so the machine cannot report idle while a
    /// shootdown round or steal grant is still travelling.
    pub fn run_until_idle(&mut self, max_quanta: usize) -> usize {
        if self.mesh.is_some() {
            match self.run_mode() {
                RunMode::Lockstep => {
                    for q in 0..max_quanta {
                        if self.sharded_quiescent() {
                            return q;
                        }
                        self.lockstep_rounds(1);
                    }
                    max_quanta
                }
                RunMode::Threaded => self.run_threaded(max_quanta, true),
            }
        } else {
            for q in 0..max_quanta {
                if self.classic_quiescent() {
                    return q;
                }
                self.classic_step(1);
            }
            max_quanta
        }
    }

    /// Halt a node (simulated MPM hardware failure) and stop its
    /// traffic.
    pub fn fail_node(&mut self, node: usize) {
        self.nodes[node].mpm.halt();
        self.fabric.fail_node(node);
    }

    // ------------------------------------------------------------------
    // Classic cluster path (pre-sharding semantics, unchanged)
    // ------------------------------------------------------------------

    fn classic_step(&mut self, quanta: usize) {
        // Fire due fabric schedule entries before the quantum, so every
        // protocol on every node sees the same seeded network cut at the
        // same simulated instant.
        if let Some(plan) = self.net_faults.as_mut() {
            let now = self
                .nodes
                .iter()
                .map(|n| n.mpm.clock.cycles())
                .max()
                .unwrap_or(0);
            for ev in plan.due_fabric_events(now) {
                match ev {
                    hw::FabricEvent::Partition(groups) => self.fabric.set_partition(&groups),
                    hw::FabricEvent::Heal => self.fabric.heal(),
                    hw::FabricEvent::NodeDown(n) => {
                        if n < self.nodes.len() {
                            self.fail_node(n);
                        }
                    }
                    hw::FabricEvent::DelayLink { groups, extra } => {
                        self.fabric.set_link_delay(&groups, extra);
                    }
                    hw::FabricEvent::SlowNode { node, extra } => {
                        self.fabric.set_node_extra(node, extra);
                    }
                    hw::FabricEvent::ClearDelays => self.fabric.clear_delays(),
                    hw::FabricEvent::DelayJitter { permille, seed } => {
                        self.fabric.set_delay_jitter(permille, seed);
                    }
                }
            }
            // Advance the fabric clock so delayed frames whose delivery
            // cycle has arrived mature into the FIFO queues below.
            self.fabric.set_now(now);
        }
        for node in self.nodes.iter_mut() {
            node.run(quanta);
        }
        // Drain outboxes into the fabric, with the sending node's fault
        // plan deciding each frame's fate (loss/duplication injection).
        for node in self.nodes.iter_mut() {
            let halted = node.mpm.halted;
            for pkt in node.outbox.drain(..) {
                if halted {
                    continue;
                }
                let fate = node
                    .faults
                    .as_mut()
                    .map(|p| p.frame_fate())
                    .unwrap_or(FrameFate::Deliver);
                match fate {
                    FrameFate::Deliver => {
                        self.fabric.send(pkt);
                    }
                    FrameFate::Drop => {
                        node.ck.stats.faults_injected += 1;
                    }
                    FrameFate::Duplicate => {
                        node.ck.stats.faults_injected += 1;
                        self.fabric.send(pkt.clone());
                        self.fabric.send(pkt);
                    }
                }
            }
        }
        // Deliver incoming traffic.
        for i in 0..self.nodes.len() {
            if self.fabric.is_failed(i) || self.nodes[i].mpm.halted {
                continue;
            }
            while let Some(pkt) = self.fabric.recv(i) {
                self.nodes[i].deliver_packet(pkt);
            }
        }
    }

    fn classic_quiescent(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.mpm.halted || (n.idle() && n.outbox.is_empty()))
            && self.fabric.total_pending() == 0
    }

    // ------------------------------------------------------------------
    // Sharded lockstep path
    // ------------------------------------------------------------------

    fn sharded_quiescent(&self) -> bool {
        self.in_flight() == 0
            && self.nodes.iter().all(|n| {
                n.mpm.halted || (n.idle() && n.outbox.is_empty() && n.ck.shard_exports.is_empty())
            })
    }

    /// One deterministic round per quantum: run every shard in index
    /// order, collect and flush every shard's exports in index order,
    /// then deliver in fixed `(dst, src)` order. Replies generated
    /// while processing are collected at the end of the round and flow
    /// next round, so the whole schedule is a pure function of the
    /// initial state.
    fn lockstep_rounds(&mut self, quanta: usize) {
        let n = self.nodes.len();
        let steal = self.steal;
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        for _ in 0..quanta {
            for node in self.nodes.iter_mut() {
                node.run(1);
            }
            for (node, port) in self.nodes.iter_mut().zip(mesh.ports.iter_mut()) {
                collect_exports(node, port, &mesh.in_flight, steal, n);
                flush_egress(node, port);
            }
            // Deliver in fixed `(dst, src)` order. Producers pushed in
            // index order under the lockstep schedule, so the contents
            // of every ring and fan-out sweep are deterministic.
            for (node, port) in self.nodes.iter_mut().zip(mesh.ports.iter_mut()) {
                drain_rings(node, port, &mesh.in_flight, || {});
            }
            for (node, port) in self.nodes.iter_mut().zip(mesh.ports.iter_mut()) {
                collect_exports(node, port, &mesh.in_flight, steal, n);
                flush_egress(node, port);
            }
        }
    }

    // ------------------------------------------------------------------
    // Sharded free-running path
    // ------------------------------------------------------------------

    /// Run the shards on their own OS threads. With `until_idle` the
    /// workers run until global quiescence (or their quantum budget);
    /// otherwise each runs exactly `quanta` quanta and then keeps
    /// draining its rings until the whole machine settles. Returns the
    /// largest per-shard quantum count.
    fn run_threaded(&mut self, quanta: usize, until_idle: bool) -> usize {
        let n = self.nodes.len();
        if n == 0 {
            return 0;
        }
        let steal = self.steal;
        let flags = RunFlags::new(n);
        let Some(mesh) = self.mesh.as_mut() else {
            return 0;
        };
        let in_flight = Arc::clone(&mesh.in_flight);
        let mut used = 0usize;
        std::thread::scope(|s| {
            let flags = &flags;
            let in_flight = &in_flight;
            let handles: Vec<_> = self
                .nodes
                .iter_mut()
                .zip(mesh.ports.iter_mut())
                .enumerate()
                .map(|(i, (node, port))| {
                    s.spawn(move || {
                        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            shard_worker(
                                i, node, port, flags, in_flight, quanta, until_idle, steal, n,
                            )
                        }));
                        match caught {
                            Ok(q) => q,
                            Err(_) => {
                                // The shard is lost but the machine is
                                // not: halt it, wake the coordinator,
                                // and keep draining (and dropping) its
                                // rings until the run is called — a
                                // dead CPU must not wedge its senders or
                                // pin the in-flight count.
                                node.mpm.halt();
                                node.ck.stats.threads_panicked += 1;
                                flags.shard[i].idle.store(true, Ordering::SeqCst);
                                flags.settle(&flags.shard[i].done);
                                drain_after_panic(node, port, flags, in_flight);
                                0
                            }
                        }
                    })
                })
                .collect();
            coordinate(flags, in_flight, self.watchdog_secs);
            for h in handles {
                used = used.max(h.join().unwrap_or(0));
            }
        });
        used
    }
}

/// The termination coordinator for one free-running run. It never
/// touches shard state; it only watches the flags and the in-flight
/// count, and raises `stop` once the machine has settled: every shard
/// idle or out of budget, nothing in flight — checked twice across a
/// yield so a shard caught mid-transition cannot slip through (a shard
/// clears its idle flag *before* it processes a popped message, and the
/// in-flight count covers the message until processing completes, so a
/// stable double-read really is quiescence).
///
/// Between checks it parks: on a host with exactly as many cores as
/// shards every coordinator wake-up preempts a shard, so it must wake
/// only when the answer can have changed. The predicate turns true at
/// an idle or done store (both unpark, see [`RunFlags::settle`]) or at
/// an in-flight decrement to zero — made by a live worker whose own
/// busy→idle transition follows, or by a panicked shard's drain, which
/// unparks itself. An unpark that lands before the park is kept as a
/// token, so none is lost. The park's timeout is the wall-clock
/// watchdog that bounds the run even if a worker misbehaves — the
/// machine degrades, it never hangs.
fn coordinate(flags: &RunFlags, in_flight: &AtomicU64, watchdog_secs: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(watchdog_secs);
    loop {
        if flags.settled() && in_flight.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
            if flags.settled() && in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
        }
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::park_timeout(left);
    }
    flags.stop.store(true, Ordering::SeqCst);
}

/// Quanta a busy worker runs between ring services: amortizes the
/// drain/collect/flush cycle (and, on an oversubscribed host, the
/// context switch) over several quanta. Ring capacity bounds how stale
/// a peer's view can get; 8 quanta of egress fits comfortably.
const RUN_BURST: usize = 8;

/// One shard's worker loop (free-running mode). Invariants that make
/// the coordinator's quiescence check sound:
///
/// * the idle flag is cleared *before* a popped message is processed
///   and before a quantum runs;
/// * a message's in-flight increment happens before it can be pushed on
///   a ring (so before it is ever visible to the receiver) and its
///   decrement strictly after `process_shard_msg` returns;
/// * the idle flag is set only when nothing was processed, the shard
///   has no runnable work, and its egress queues are empty.
///
/// The worker mirrors its two flags in locals and touches the shared
/// cells only when one changes: a busy shard's passes write nothing the
/// coordinator or a peer reads.
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    i: usize,
    node: &mut Executive,
    port: &mut ShardPort,
    flags: &RunFlags,
    in_flight: &AtomicU64,
    max_quanta: usize,
    until_idle: bool,
    steal: bool,
    shards: usize,
) -> usize {
    let mine = &flags.shard[i];
    let (mut idle, mut done) = (false, false);
    let mut used = 0usize;
    loop {
        if flags.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut wake = || {
            if std::mem::take(&mut idle) {
                mine.idle.store(false, Ordering::SeqCst);
            }
        };
        let processed = drain_rings(node, port, in_flight, &mut wake);
        let budget_left = used < max_quanta && !node.mpm.halted;
        let should_run = budget_left && (!until_idle || processed > 0 || !node.idle());
        if should_run {
            wake();
            // Run a burst: re-checking the rings after every single
            // quantum costs more than the quantum itself. Stop early if
            // the shard drains its own work.
            for _ in 0..RUN_BURST {
                if used >= max_quanta {
                    break;
                }
                node.run(1);
                used += 1;
                if until_idle && node.idle() {
                    break;
                }
            }
        }
        collect_exports(node, port, in_flight, steal, shards);
        let flushed_all = flush_egress(node, port);
        if !budget_left && !done {
            done = true;
            flags.settle(&mine.done);
        }
        if processed == 0 && !should_run {
            // No progress this pass. Only an empty egress queue counts
            // as idle (queued messages are in-flight work), but either
            // way surrender the CPU: spinning here starves the very
            // peer whose full ring we are waiting on.
            if !idle && port.egress_empty() {
                idle = true;
                flags.settle(&mine.idle);
            }
            std::thread::yield_now();
        } else if !flushed_all {
            // Made progress but a peer's ring is full: yield so the
            // consumer gets cycles to drain it before we retry.
            std::thread::yield_now();
        }
    }
    used
}

/// Post-panic containment: the shard's state may be arbitrary, but it
/// is halted and the port is intact (the panic propagated out of
/// `shard_worker`, ending its borrows). Undo the in-flight charges of
/// anything still queued for egress (it will never be sent), then keep
/// draining and dropping the receive rings until the coordinator stops
/// the run, so peers pushing to this shard never see a permanently full
/// ring and the in-flight count can reach zero. Any decrement here may
/// be the one that settles the machine, and no live worker's idle
/// transition follows it: wake the coordinator after each.
fn drain_after_panic(
    node: &mut Executive,
    port: &mut ShardPort,
    flags: &RunFlags,
    in_flight: &AtomicU64,
) {
    let mut unsent = 0;
    for q in port.egress.iter_mut() {
        unsent += q.drain(..).count();
    }
    for q in port.sig_egress.iter_mut() {
        unsent += q.drain(..).count();
    }
    in_flight.fetch_sub(unsent as u64, Ordering::SeqCst);
    flags.coordinator.unpark();
    while !flags.stop.load(Ordering::SeqCst) {
        if drain_rings(node, port, in_flight, || {}) > 0 {
            flags.coordinator.unpark();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }
}

/// Pop and process every message currently queued on `node`'s receive
/// rings, then its signal fan-out ring. `wake` runs before each message
/// is processed (the free-running worker clears its idle flag there, see
/// the worker-loop invariants; lockstep has none). The in-flight count
/// drops once, by everything popped, when the pass ends — after the
/// last handler returned, or on its unwind. A halted shard still drains
/// (a dead CPU cannot wedge its senders) but drops the messages.
fn drain_rings(
    node: &mut Executive,
    port: &mut ShardPort,
    in_flight: &AtomicU64,
    mut wake: impl FnMut(),
) -> usize {
    let mut pass = InFlightPass {
        total: in_flight,
        delta: 0,
    };
    for rx in port.rx.iter().flatten() {
        let halted = node.mpm.halted;
        while let Some(msg) = rx.pop() {
            pass.delta -= 1;
            wake();
            if !halted {
                node.process_shard_msg(msg);
            }
        }
    }
    // Drain the signal fan-out ring into one sweep and deliver it as a
    // batch: N shipped signals cost one wakeup pass, not N.
    if let Some(rx) = port.sig_rx.as_ref() {
        let sweep = &mut port.sig_sweep;
        sweep.clear();
        while let Some(paddr) = rx.pop() {
            sweep.push(paddr);
        }
        if !sweep.is_empty() {
            pass.delta -= sweep.len() as i64;
            wake();
            if !node.mpm.halted {
                node.deliver_signal_sweep(sweep);
            }
        }
    }
    pass.delta.unsigned_abs() as usize
}

/// Move the executive's pending cross-shard traffic into the port's
/// egress queues: Cache-Kernel exports (shootdown broadcasts, steal
/// protocol, anything an application kernel queued through its `Env`)
/// and outbox packets bound for other shards. Also lets an idle shard
/// ask a peer for work. Everything queued here counts into the shared
/// in-flight total in one add when the function returns — before the
/// caller's `flush_egress` can make any of it visible to a receiver.
fn collect_exports(
    node: &mut Executive,
    port: &mut ShardPort,
    in_flight: &AtomicU64,
    steal: bool,
    shards: usize,
) {
    let me = node.node();
    let mut pass = InFlightPass {
        total: in_flight,
        delta: 0,
    };
    if steal && !node.mpm.halted {
        node.maybe_request_steal(shards);
    }
    // Exports queued while these are processed (a steal grant, say) land
    // in the swapped-in buffer and go out with the next collection.
    debug_assert!(port.exports.is_empty());
    std::mem::swap(&mut node.ck.shard_exports, &mut port.exports);
    for export in port.exports.drain(..) {
        match export.dst {
            ShardDst::Node(dst) => {
                if dst == me || dst >= shards {
                    // Self- or out-of-range addressed: process locally
                    // rather than dropping (a shard is always allowed
                    // to talk to itself).
                    node.process_shard_msg(export.msg);
                    continue;
                }
                if let ShardMsg::Writeback(_) = &export.msg {
                    node.ck.stats.wb_shipped += 1;
                }
                pass.delta += 1;
                port.egress[dst].push_back(export.msg);
            }
            ShardDst::All => match export.msg {
                ShardMsg::Shootdown(rs) => {
                    // Every peer but the last gets a copy; the last
                    // gets the original.
                    let mut peers = (0..shards).filter(|&dst| dst != me);
                    let last = peers.next_back();
                    for dst in peers {
                        pass.delta += 1;
                        port.egress[dst].push_back(ShardMsg::Shootdown(rs.clone()));
                    }
                    if let Some(dst) = last {
                        pass.delta += 1;
                        port.egress[dst].push_back(ShardMsg::Shootdown(rs));
                    }
                }
                ShardMsg::Signal { paddr } => {
                    // Broadcast signals ride the per-shard MPSC fan-out
                    // ring: one `Paddr` per peer, drained in one sweep.
                    for dst in (0..shards).filter(|&dst| dst != me) {
                        pass.delta += 1;
                        port.sig_egress[dst].push_back(paddr);
                    }
                }
                // Jobs and writebacks are not broadcastable (they carry
                // unique ownership); a broadcast of one is a caller bug
                // handled by delivering it locally.
                msg => node.process_shard_msg(msg),
            },
        }
    }
    // Packets for this shard stay (in order) for the loopback; those
    // addressed outside the machine are dropped, as the classic fabric
    // would refuse them.
    for pkt in node.outbox.extract_if(.., |pkt| pkt.dst != me) {
        if pkt.dst < shards {
            pass.delta += 1;
            port.egress[pkt.dst].push_back(ShardMsg::Packet(pkt));
        }
    }
}

/// Try to push every queued egress message onto its ring. A full ring
/// counts `rings_full` once per deferred message per pass and leaves
/// the message queued — backpressure, never loss, never panic.
#[allow(clippy::result_large_err)] // a full ring hands the message back
fn flush_egress(node: &mut Executive, port: &mut ShardPort) -> bool {
    fn flush<T>(
        queue: &mut VecDeque<T>,
        push: impl Fn(T) -> Result<(), T>,
        stats: &mut Counters,
    ) -> bool {
        while let Some(v) = queue.pop_front() {
            match push(v) {
                Ok(()) => stats.shard_msgs_sent += 1,
                Err(v) => {
                    stats.rings_full += 1;
                    queue.push_front(v);
                    return false;
                }
            }
        }
        true
    }
    let stats = &mut node.ck.stats;
    let mut all = true;
    for (queue, tx) in port.egress.iter_mut().zip(&port.tx) {
        all &= tx
            .as_ref()
            .is_none_or(|tx| flush(queue, |m| tx.push(m), stats));
    }
    for (queue, tx) in port.sig_egress.iter_mut().zip(&port.sig_tx) {
        all &= tx
            .as_ref()
            .is_none_or(|tx| flush(queue, |p| tx.push(p), stats));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appkernel::{AppKernel, Env};
    use crate::fault::{FaultDisposition, TrapDisposition};
    use crate::ids::ObjId;
    use crate::objects::{KernelDesc, MemoryAccessArray, SpaceDesc, ThreadDesc};
    use crate::program::{Script, Step};
    use hw::{Fault, Paddr};

    const SIG_FRAME: Paddr = Paddr(0x20_0000);

    /// Shard 0's kernel: each trap broadcasts `args[0]` signals on the
    /// fan-out ring.
    struct Caster;

    impl AppKernel for Caster {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_page_fault(&mut self, _e: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
            FaultDisposition::Kill
        }
        fn on_trap(&mut self, e: &mut Env, _t: ObjId, _no: u32, args: [u32; 4]) -> TrapDisposition {
            for _ in 0..args[0] {
                e.ck.broadcast_signal(e.mpm, e.cpu, SIG_FRAME);
            }
            TrapDisposition::Return(0)
        }
        fn name(&self) -> &str {
            "caster"
        }
    }

    /// Shard 1's kernel: the first trap panics the shard worker.
    struct Bomb;

    impl AppKernel for Bomb {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_page_fault(&mut self, _e: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
            FaultDisposition::Kill
        }
        fn on_trap(&mut self, _e: &mut Env, _t: ObjId, _no: u32, _a: [u32; 4]) -> TrapDisposition {
            panic!("induced shard panic");
        }
        fn name(&self) -> &str {
            "bomb"
        }
    }

    /// Shard 1's kernel: the first packet panics the shard worker —
    /// from inside `drain_rings`, with the message popped off its ring.
    struct PacketBomb;

    impl AppKernel for PacketBomb {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_page_fault(&mut self, _e: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
            FaultDisposition::Kill
        }
        fn on_trap(&mut self, _e: &mut Env, _t: ObjId, no: u32, _a: [u32; 4]) -> TrapDisposition {
            TrapDisposition::Return(no)
        }
        fn on_packet(&mut self, _e: &mut Env, _src: usize, _channel: u32, _data: &[u8]) {
            panic!("induced shard panic while draining");
        }
        fn name(&self) -> &str {
            "packet-bomb"
        }
    }

    fn boot_shard(node: &mut Executive, steps: Vec<Step>, kernel: Box<dyn AppKernel>) -> ObjId {
        let k = node.ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let sp = node
            .ck
            .load_space(k, SpaceDesc::default(), &mut node.mpm)
            .unwrap();
        let pc = node.code.register(Box::new(Script::new(steps)));
        node.ck
            .load_thread(k, ThreadDesc::new(sp, pc, 10), false, &mut node.mpm)
            .unwrap();
        node.register_kernel(k, kernel);
        k
    }

    /// A panicked free-running shard must not wedge the machine: its
    /// post-panic drain keeps consuming both its SPSC mesh rings and its
    /// fan-out ring (dropping the messages) so the in-flight count
    /// reaches zero and the coordinator stops without the wall-clock
    /// watchdog.
    #[test]
    fn panicked_shard_drains_fanout_ring() {
        let mut m = Machine::sharded(ShardConfig {
            shards: 2,
            threads: true,
            ring_capacity: 8,
            steal: false,
            ..ShardConfig::default()
        });
        // Shard 0: publish 64 bursts of 8 broadcast signals — far more
        // fan-out traffic than a capacity-8 ring holds, so the run only
        // quiesces if the dead peer keeps draining.
        let mut steps = Vec::new();
        for _ in 0..64 {
            steps.push(Step::Trap {
                no: 1,
                args: [8, 0, 0, 0],
            });
        }
        steps.push(Step::Exit(0));
        boot_shard(&mut m.nodes[0], steps, Box::new(Caster));
        // Shard 1: dies on its first quantum.
        boot_shard(
            &mut m.nodes[1],
            vec![
                Step::Trap {
                    no: 9,
                    args: [0; 4],
                },
                Step::Exit(0),
            ],
            Box::new(Bomb),
        );

        let start = std::time::Instant::now();
        m.run_until_idle(10_000);
        assert!(
            start.elapsed().as_secs() < 30,
            "panicked shard wedged quiescence until the watchdog"
        );
        assert_eq!(m.in_flight(), 0);
        let c = m.counters();
        assert_eq!(c.threads_panicked, 1);
        // The publisher ran to completion despite the dead peer.
        assert_eq!(c.thread_exits, 1);
        assert!(m.nodes[1].mpm.halted);
    }

    /// A handler that panics *inside* `drain_rings` unwinds past the
    /// pass's in-flight decrement. The pass's drop guard must uncount
    /// what was popped, or the count stays above zero forever and the
    /// run ends only when the watchdog fires.
    #[test]
    fn panic_while_draining_does_not_wait_for_the_watchdog() {
        const WATCHDOG_SECS: u64 = 20;
        let mut m = Machine::sharded(ShardConfig {
            shards: 2,
            threads: true,
            ring_capacity: 8,
            steal: false,
            watchdog_secs: WATCHDOG_SECS,
            ..ShardConfig::default()
        });
        // Shard 0: a few broadcast bursts, then exit; and three packets
        // for shard 1 waiting in the outbox, so the pass that panics has
        // popped (or left queued) more than the one fatal message.
        let mut steps = vec![
            Step::Trap {
                no: 1,
                args: [4, 0, 0, 0],
            };
            4
        ];
        steps.push(Step::Exit(0));
        boot_shard(&mut m.nodes[0], steps, Box::new(Caster));
        for _ in 0..3 {
            m.nodes[0].outbox.push(hw::Packet {
                src: 0,
                dst: 1,
                channel: 5,
                data: vec![0xEE],
            });
        }
        // Shard 1: no thread of its own; dies on its first packet.
        let k = boot_shard(&mut m.nodes[1], vec![Step::Exit(0)], Box::new(PacketBomb));
        m.nodes[1].register_channel(5, k);

        let start = std::time::Instant::now();
        m.run_until_idle(10_000);
        assert!(
            start.elapsed().as_secs() < WATCHDOG_SECS / 2,
            "a panic while draining leaked an in-flight count: the run waited for the watchdog"
        );
        assert_eq!(m.in_flight(), 0);
        let c = m.counters();
        assert_eq!(c.threads_panicked, 1);
        assert!(m.nodes[1].mpm.halted);
        // The sender's thread ran to completion despite the dead peer
        // (shard 1's own thread may or may not have exited first).
        assert!(m.nodes[0].ck.stats.thread_exits == 1);
    }

    /// A `ShardDst::All` shootdown reaches every peer with the payload
    /// it was exported with — the copies and the moved original alike —
    /// and counts once per destination.
    #[test]
    fn broadcast_round_delivers_equal_payloads_to_every_peer() {
        use crate::shardmsg::RemoteShootdown;
        let pages: Vec<_> = (0..300u32).map(|i| (7u16, hw::Vpn(0x100 + i))).collect();
        let frames: Vec<_> = (0..9u32).map(hw::Pfn).collect();
        for n_pages in [0usize, 4, 8, 9, 300] {
            let mut m = Machine::sharded(ShardConfig {
                shards: 4,
                ..ShardConfig::default()
            });
            let rs = RemoteShootdown::new(&pages[..n_pages], &[7], &frames, &[3], false);
            // Exported from shard 1, so the peers are 0, 2 and 3.
            m.nodes[1].ck.shard_exports.push(ShardExport {
                dst: ShardDst::All,
                msg: ShardMsg::Shootdown(rs),
            });
            let mesh = m.mesh.as_mut().unwrap();
            collect_exports(
                &mut m.nodes[1],
                &mut mesh.ports[1],
                &mesh.in_flight,
                false,
                4,
            );
            assert_eq!(mesh.in_flight.load(Ordering::SeqCst), 3);
            assert!(mesh.ports[1].egress[1].is_empty());
            for dst in [0, 2, 3] {
                let queue = &mesh.ports[1].egress[dst];
                assert_eq!(queue.len(), 1);
                let Some(ShardMsg::Shootdown(got)) = queue.front() else {
                    panic!("shard {dst} was sent something else");
                };
                assert_eq!(got.pages(), &pages[..n_pages]);
                assert_eq!(got.asids(), &[7]);
                assert_eq!(got.frames(), &frames[..]);
                assert_eq!(got.threads(), &[3]);
                assert!(!got.rtlb_clear);
            }
            // Delivered, the round leaves nothing in flight.
            flush_egress(&mut m.nodes[1], &mut mesh.ports[1]);
            for (node, port) in m.nodes.iter_mut().zip(mesh.ports.iter_mut()) {
                drain_rings(node, port, &mesh.in_flight, || {});
            }
            assert_eq!(m.in_flight(), 0);
            assert_eq!(m.counters().remote_shootdowns, 3);
        }
    }

    /// The quiescence watchdog is a config knob, not a 60-second
    /// constant: the bound plumbs through `ShardConfig`, zero clamps to
    /// a one-second floor, and a healthy threaded run settles through
    /// real quiescence well inside even a tight bound — injected delay
    /// schedules stretch *simulated* delivery, never host time, so they
    /// extend a run without tripping the wall clock.
    #[test]
    fn watchdog_bound_is_configurable() {
        let m = Machine::sharded(ShardConfig {
            shards: 2,
            watchdog_secs: 7,
            ..ShardConfig::default()
        });
        assert_eq!(m.watchdog_secs, 7);
        let m = Machine::sharded(ShardConfig {
            shards: 2,
            watchdog_secs: 0,
            ..ShardConfig::default()
        });
        assert_eq!(m.watchdog_secs, 1, "zero clamps to the one-second floor");

        let mut m = Machine::sharded(ShardConfig {
            shards: 2,
            threads: true,
            ring_capacity: 8,
            steal: false,
            watchdog_secs: 20,
            ..ShardConfig::default()
        });
        let mut steps = Vec::new();
        for _ in 0..16 {
            steps.push(Step::Trap {
                no: 1,
                args: [4, 0, 0, 0],
            });
        }
        steps.push(Step::Exit(0));
        boot_shard(&mut m.nodes[0], steps, Box::new(Caster));
        let start = std::time::Instant::now();
        m.run_until_idle(10_000);
        assert!(
            start.elapsed().as_secs() < 20,
            "healthy run quiesced via settling, not the watchdog"
        );
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.counters().thread_exits, 1);
    }
}
