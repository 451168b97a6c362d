//! `msg_mix`: a fixed messaging round on `bench::Bench`, one caller,
//! closed loop, no executive. Each round raises a 16-signal storm
//! (4 pages x 4 receivers) eagerly, raises the same storm through one
//! `SignalBatch`, and makes one round trip on the copying `Channel` and
//! one on the remapping `PageChannel` at 16 B and at 3 900 B, draining
//! the receivers each time. Copy beside remap, eager beside batched.
//! op = round.

use super::{
    all_counters, check, ck_traffic_metrics, hw_cache_metrics, ratio, Chunks, Rep, RepResult,
};
use crate::trace::{
    Name, Probe, CHAN_CLASSIC_16, CHAN_CLASSIC_3900, CHAN_PAGE_16, CHAN_PAGE_3900, REP,
    SIG_BATCH16, SIG_DRAIN, SIG_EAGER16,
};
use bench::Bench;
use cache_kernel::{ObjId, SpaceDesc, ThreadDesc};
use hw::{FaultRng, Paddr, Pte, Vaddr, PAGE_SIZE};
use libkern::{Channel, PageChannel};
use std::time::Instant;

const ROUNDS: usize = 300_000;
const RECEIVERS: usize = 4;
const STORM_PAGES: u32 = 4;
const RAISES: usize = 16;
const SMALL: usize = 16;
const LARGE: usize = 3_900;
const CHUNKS: usize = 250;
const STORM_BASE: u32 = 0x0040_0000;

/// Sim cycles of one phase of the last round, by per-layer metric name.
type PhaseCycles = Vec<(&'static str, f64)>;

struct Mix {
    h: Bench,
    storm_slots: Vec<u16>,
    storm: [Paddr; RAISES],
    classic: Channel,
    classic_rx: u16,
    page: PageChannel,
    page_rx: u16,
    small: Vec<u8>,
    large: Vec<u8>,
    takes: u64,
}

fn receiver(h: &mut Bench) -> Result<(ObjId, ObjId), String> {
    let space =
        h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)
            .map_err(|e| format!("load_space: {e:?}"))?;
    let thread =
        h.ck.load_thread(h.srm, ThreadDesc::new(space, 1, 20), false, &mut h.mpm)
            .map_err(|e| format!("load_thread: {e:?}"))?;
    Ok((space, thread))
}

fn setup(seed: u64) -> Result<Mix, String> {
    let mut h = Bench::new();
    let mut rng = FaultRng::new(seed);
    let mut storm_slots = Vec::new();
    for _ in 0..RECEIVERS {
        let (space, thread) = receiver(&mut h)?;
        for page in 0..STORM_PAGES {
            h.ck.load_mapping(
                h.srm,
                space,
                Vaddr(0xa000 + page * PAGE_SIZE),
                Paddr(STORM_BASE + page * PAGE_SIZE),
                Pte::MESSAGE,
                Some(thread),
                None,
                &mut h.mpm,
            )
            .map_err(|e| format!("storm mapping: {e:?}"))?;
        }
        storm_slots.push(thread.slot);
    }
    // Raise r lands on page r mod 4 at a seeded word offset.
    let storm = std::array::from_fn(|r| {
        let offset = rng.below(u64::from(PAGE_SIZE / 4)) as u32 * 4;
        Paddr(STORM_BASE + (r as u32 % STORM_PAGES) * PAGE_SIZE + offset)
    });
    let (tx, _) = receiver(&mut h)?;
    let (rx_space, rx) = receiver(&mut h)?;
    let classic = Channel::setup(
        &mut h.ck,
        &mut h.mpm,
        h.srm,
        tx,
        Vaddr(0xa000),
        rx_space,
        Vaddr(0xb000),
        rx,
        Paddr(0x0048_0000),
    )
    .map_err(|e| format!("Channel::setup: {e:?}"))?;
    let (ptx, _) = receiver(&mut h)?;
    let (prx_space, prx) = receiver(&mut h)?;
    let page = PageChannel::setup(
        &mut h.ck,
        &mut h.mpm,
        h.srm,
        ptx,
        Vaddr(0xa000),
        prx_space,
        Vaddr(0xb000),
        prx,
        Paddr(0x004a_0000),
        Paddr(0x004b_0000),
    )
    .map_err(|e| format!("PageChannel::setup: {e:?}"))?;
    let mut payload = |len: usize| (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
    Ok(Mix {
        small: payload(SMALL),
        large: payload(LARGE),
        h,
        storm_slots,
        storm,
        classic,
        classic_rx: rx.slot,
        page,
        page_rx: prx.slot,
        takes: 0,
    })
}

impl Mix {
    /// Take every pending signal of `slot`; returns how many there were.
    fn drain(&mut self, slot: u16) -> u64 {
        let mut n = 0;
        while self.h.ck.take_signal(slot).is_some() {
            n += 1;
        }
        self.h.ck.signal_return(slot);
        // The call that found the queue empty is a call too.
        self.takes += n + 1;
        n
    }

    fn drain_storm<P: Probe>(&mut self, p: &mut P, id: u32) -> u64 {
        let s = p.enter(SIG_DRAIN, id);
        let mut n = 0;
        for i in 0..self.storm_slots.len() {
            n += self.drain(self.storm_slots[i]);
        }
        p.exit(s);
        n
    }

    fn classic_trip<P: Probe>(
        &mut self,
        p: &mut P,
        name: Name,
        id: u32,
        large: bool,
    ) -> Result<(), String> {
        let payload = if large { &self.large } else { &self.small };
        let s = p.enter(name, id);
        let sent = self
            .classic
            .send_bytes(&mut self.h.ck, &mut self.h.mpm, 0, payload);
        let got = self.classic.recv(&mut self.h.mpm, 0);
        p.exit(s);
        sent.map_err(|e| format!("Channel::send_bytes: {e:?}"))?;
        let seq = self.classic.seq();
        check(
            got.is_some_and(|(s, data)| s == seq && data == *payload),
            || format!("classic channel: message {seq} not read back equal"),
        )?;
        let s = p.enter(SIG_DRAIN, id);
        let signals = self.drain(self.classic_rx);
        p.exit(s);
        check(signals == 1, || {
            format!("classic channel: {signals} signals for one send")
        })
    }

    fn page_trip<P: Probe>(
        &mut self,
        p: &mut P,
        name: Name,
        id: u32,
        large: bool,
    ) -> Result<(), String> {
        let payload = if large { &self.large } else { &self.small };
        let s = p.enter(name, id);
        let sent = self.page.send(&mut self.h.ck, &mut self.h.mpm, 0, payload);
        let got = self.page.read_in_place(&self.h.mpm);
        let done = self.page.complete(&mut self.h.ck, &mut self.h.mpm);
        p.exit(s);
        sent.map_err(|e| format!("PageChannel::send: {e:?}"))?;
        done.map_err(|e| format!("PageChannel::complete: {e:?}"))?;
        // Zero-copy receive: compare the header and the stamped first and
        // last words where they lie, without copying the payload out.
        let seq = self.page.seq();
        let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let mem = &self.h.mpm.mem;
        let intact = got.is_some_and(|(s, len, at)| {
            s == seq
                && len as usize == payload.len()
                && mem.read_u32(at).ok() == Some(word(payload))
                && mem.read_u32(Paddr(at.0 + len - 4)).ok()
                    == Some(word(&payload[payload.len() - 4..]))
        });
        check(intact, || {
            format!("page channel: message {seq} not read back equal")
        })?;
        let s = p.enter(SIG_DRAIN, id);
        let signals = self.drain(self.page_rx);
        p.exit(s);
        check(signals == 1, || {
            format!("page channel: {signals} signals for one send")
        })
    }

    /// One round. `cycles` is filled with each phase's sim-cycle cost.
    fn round<P: Probe>(
        &mut self,
        p: &mut P,
        n: u32,
        cycles: Option<&mut PhaseCycles>,
    ) -> Result<(), String> {
        // Stamp the round into both payloads so no two messages are equal.
        for buf in [&mut self.small, &mut self.large] {
            let end = buf.len() - 4;
            buf[..4].copy_from_slice(&n.to_le_bytes());
            buf[end..].copy_from_slice(&(!n).to_le_bytes());
        }
        let mut marks = [0u64; 7];
        marks[0] = self.h.mpm.clock.cycles();

        let s = p.enter(SIG_EAGER16, n);
        let mut delivered = 0;
        for r in 0..RAISES {
            delivered += self
                .h
                .ck
                .raise_signal(&mut self.h.mpm, 0, self.storm[r])
                .receivers() as u64;
        }
        p.exit(s);
        marks[1] = self.h.mpm.clock.cycles();
        let eager = self.drain_storm(p, n);
        check(
            eager == delivered && eager == (RAISES * RECEIVERS) as u64,
            || format!("eager storm: {delivered} delivered, {eager} taken"),
        )?;

        marks[2] = self.h.mpm.clock.cycles();
        let s = p.enter(SIG_BATCH16, n);
        let mut batch = self.h.ck.take_signal_batch();
        for r in 0..RAISES {
            batch.add(self.storm[r]);
        }
        self.h.ck.finish_signal_batch(batch, &mut self.h.mpm, 0);
        p.exit(s);
        marks[3] = self.h.mpm.clock.cycles();
        let batched = self.drain_storm(p, n);
        check(batched == eager, || {
            format!("batched storm: {batched} taken, eager took {eager}")
        })?;

        self.classic_trip(p, CHAN_CLASSIC_16, n, false)?;
        marks[4] = self.h.mpm.clock.cycles();
        self.classic_trip(p, CHAN_CLASSIC_3900, n, true)?;
        marks[5] = self.h.mpm.clock.cycles();
        self.page_trip(p, CHAN_PAGE_16, n, false)?;
        marks[6] = self.h.mpm.clock.cycles();
        self.page_trip(p, CHAN_PAGE_3900, n, true)?;
        if let Some(out) = cycles {
            let end = self.h.mpm.clock.cycles();
            *out = vec![
                (
                    "cache-kernel.signal_eager16_cycles",
                    (marks[1] - marks[0]) as f64,
                ),
                (
                    "cache-kernel.signal_batch16_cycles",
                    (marks[3] - marks[2]) as f64,
                ),
                (
                    "libkern.chan.classic_3900_cycles",
                    (marks[5] - marks[4]) as f64,
                ),
                ("libkern.chan.page_3900_cycles", (end - marks[6]) as f64),
            ];
        }
        Ok(())
    }
}

pub fn rep<P: Probe>(seed: u64, p: &mut P) -> RepResult {
    let t0 = Instant::now();
    let mut mix = setup(seed)?;
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let c0 = mix.h.mpm.clock.cycles();
    let t1 = Instant::now();
    let root = p.enter(REP, 0);
    let mut chunks = Chunks::start();
    let mut last_round = PhaseCycles::new();
    for n in 0..ROUNDS {
        let cycles = (n == ROUNDS - 1).then_some(&mut last_round);
        mix.round(p, n as u32, cycles)?;
        if (n + 1) % (ROUNDS / CHUNKS) == 0 {
            chunks.close((ROUNDS / CHUNKS) as u64);
        }
    }
    p.exit(root);
    let wall_ns = t1.elapsed().as_nanos() as u64;
    let sim_cycles = mix.h.mpm.clock.cycles() - c0;

    mix.h.ck.check_invariants()?;
    let rounds = ROUNDS as u64;
    let sends = mix.page.remaps + mix.page.copies;
    check(
        mix.classic.sent == 2 * rounds && sends == 2 * rounds,
        || {
            format!(
                "{} classic and {sends} page sends in {rounds} rounds",
                mix.classic.sent
            )
        },
    )?;

    let c = mix.h.ck.stats;
    let mut layer = hw_cache_metrics(std::iter::once(&mix.h.mpm));
    layer.extend(ck_traffic_metrics(&c, rounds));
    layer.extend(last_round);
    layer.extend([
        ("libkern.chan.remaps_per_msg", ratio(mix.page.remaps, sends)),
        ("libkern.chan.copies_per_msg", ratio(mix.page.copies, sends)),
    ]);
    let mut exact = all_counters(&c);
    exact.extend([
        ("take_signal_calls", mix.takes),
        ("remaps", mix.page.remaps),
    ]);
    Ok(Rep {
        setup_ns,
        wall_ns,
        attempted: rounds,
        ok: rounds,
        within_slo: rounds,
        sim_cycles,
        chunk_ns_per_op: chunks.finish(),
        exact,
        layer,
    })
}
