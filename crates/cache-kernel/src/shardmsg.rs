//! Cross-shard messages.
//!
//! The sharded machine ([`exec::Machine`]) runs one executive per
//! simulated CPU, each owning its shard of kernel state: its object-cache
//! partition, its physmap partition, its per-CPU ready queue and its
//! counter cell. No executive ever touches another's shard directly;
//! every cross-CPU interaction is one of these messages on a bounded
//! SPSC ring between the two executives ([`hw::ring`]). The Cache Kernel
//! itself stays single-threaded — it only *exports* messages into
//! [`CacheKernel::shard_exports`]; the machine layer routes them.
//!
//! [`exec::Machine`]: crate::exec::Machine
//! [`CacheKernel::shard_exports`]: crate::ck::CacheKernel
//! [`hw::ring`]: hw::ring

use crate::objects::Priority;
use crate::program::Program;
use hw::{Asid, Packet, Paddr, Pfn, Vpn};

/// `items` as the live prefix of a fixed inline array (the caller
/// records the length and has checked that it fits).
fn inline<T: Copy + Default, const N: usize>(items: &[T]) -> [T; N] {
    let mut buf = [T::default(); N];
    buf[..items.len()].copy_from_slice(items);
    buf
}

/// The four lists of a round too large for the inline arrays.
#[derive(Clone, Debug)]
struct Spill {
    pages: Vec<(Asid, Vpn)>,
    asids: Vec<Asid>,
    frames: Vec<Pfn>,
    threads: Vec<u32>,
}

/// One TLB/reverse-TLB consistency round, summarized for broadcast to
/// the other shards of a machine. Mirrors what
/// [`finish_shootdown`](crate::ck::CacheKernel) applies locally: the
/// receiving executive flushes the listed translations from its own
/// CPU's TLB/rTLB, which is exactly the inter-processor interrupt the
/// paper's §4.2 consistency actions pay for.
///
/// A round always travels whole, as one message. The common round (a
/// job's handful of pages, one thread) lives in fixed inline arrays, so
/// building, broadcasting and dropping it never touches the allocator —
/// on either core; a larger one (a space teardown) boxes all four lists
/// in one spill.
#[derive(Clone, Debug, Default)]
pub struct RemoteShootdown {
    pages: [(Asid, Vpn); 8],
    frames: [Pfn; 8],
    threads: [u32; 2],
    asids: [Asid; 2],
    /// Live prefix of `pages`, `frames`, `threads`, `asids` (kept
    /// together: a length beside each array pads the message past two
    /// cache lines).
    lens: [u8; 4],
    /// The frame list coalesced past the reverse-TLB capacity: clear the
    /// whole reverse TLB instead (`frames` is then empty).
    pub rtlb_clear: bool,
    spill: Option<Box<Spill>>,
}

impl RemoteShootdown {
    /// Summarize one round: `(asid, vpn)` page translations to drop,
    /// address spaces flushed wholesale, frames and threads whose
    /// reverse-TLB entries drop.
    pub fn new(
        pages: &[(Asid, Vpn)],
        asids: &[Asid],
        frames: &[Pfn],
        threads: &[u32],
        rtlb_clear: bool,
    ) -> Self {
        let mut rs = RemoteShootdown {
            rtlb_clear,
            ..Default::default()
        };
        if pages.len() <= rs.pages.len()
            && frames.len() <= rs.frames.len()
            && threads.len() <= rs.threads.len()
            && asids.len() <= rs.asids.len()
        {
            rs.pages = inline(pages);
            rs.frames = inline(frames);
            rs.threads = inline(threads);
            rs.asids = inline(asids);
            rs.lens = [pages.len(), frames.len(), threads.len(), asids.len()].map(|n| n as u8);
        } else {
            rs.spill = Some(Box::new(Spill {
                pages: pages.to_vec(),
                asids: asids.to_vec(),
                frames: frames.to_vec(),
                threads: threads.to_vec(),
            }));
        }
        rs
    }

    /// `(asid, vpn)` page translations to drop.
    pub fn pages(&self) -> &[(Asid, Vpn)] {
        match &self.spill {
            Some(s) => &s.pages,
            None => &self.pages[..self.lens[0] as usize],
        }
    }

    /// Address spaces flushed wholesale.
    pub fn asids(&self) -> &[Asid] {
        match &self.spill {
            Some(s) => &s.asids,
            None => &self.asids[..self.lens[3] as usize],
        }
    }

    /// Frames whose reverse-TLB entries drop (empty when `rtlb_clear`).
    pub fn frames(&self) -> &[Pfn] {
        match &self.spill {
            Some(s) => &s.frames,
            None => &self.frames[..self.lens[1] as usize],
        }
    }

    /// Threads whose reverse-TLB entries drop.
    pub fn threads(&self) -> &[u32] {
        match &self.spill {
            Some(s) => &s.threads,
            None => &self.threads[..self.lens[2] as usize],
        }
    }
}

/// A displaced descriptor shipped to its home shard (the sharded
/// machine's stand-in for writeback delivery toward the SRM): the home
/// shard archives the bytes the way the SRM keeps written-back
/// descriptors as restart state.
#[derive(Clone, Debug)]
pub struct WbShipment {
    /// Shard the descriptor was displaced on.
    pub from: usize,
    /// Object-kind index (same indices as the `loads`/`writebacks`
    /// counter arrays).
    pub class: u8,
    /// Serialized descriptor.
    pub bytes: Vec<u8>,
}

/// One unit of deferred work: a program plus the priority its thread
/// spawns at. Jobs sit in an executive's backlog until admitted into the
/// thread cache, and migrate between shards through idle steal.
pub struct Job {
    /// The program the spawned thread runs.
    pub program: Box<dyn Program>,
    /// Thread priority at spawn.
    pub priority: Priority,
}

/// A message between two executives of a sharded machine.
pub enum ShardMsg {
    /// A fabric packet: in a sharded machine the rings *are* the
    /// interconnect, so inter-shard packets ride them instead of the
    /// cluster fabric.
    Packet(Packet),
    /// A cross-shard MMU consistency round (§4.2 as explicit message
    /// exchange rather than shared mutation).
    Shootdown(RemoteShootdown),
    /// An address-valued signal raised on a page homed on the receiving
    /// shard (cross-shard signal fan-out).
    Signal {
        /// Physical address the signal is raised on.
        paddr: Paddr,
    },
    /// A displaced descriptor travelling to its home shard.
    Writeback(WbShipment),
    /// An idle shard asking `thief`'s next victim for work.
    StealRequest {
        /// The requesting shard.
        thief: usize,
    },
    /// Work granted to a steal request (possibly empty: the victim had
    /// no backlog, and the thief moves to its next victim).
    Work(Vec<Job>),
}

impl ShardMsg {
    /// Diagnostic tag (trace lines, tests).
    pub fn tag(&self) -> &'static str {
        match self {
            ShardMsg::Packet(_) => "packet",
            ShardMsg::Shootdown(_) => "shootdown",
            ShardMsg::Signal { .. } => "signal",
            ShardMsg::Writeback(_) => "writeback",
            ShardMsg::StealRequest { .. } => "steal-request",
            ShardMsg::Work(_) => "work",
        }
    }
}

// A message is copied into an export, an egress queue and a ring slot:
// two cache lines is the budget (a 136-byte prototype cost the
// single-shard mill 2 % through `ShardExport` copies alone).
const _: () = assert!(core::mem::size_of::<ShardMsg>() <= 128);

/// Where an exported message is bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardDst {
    /// Every other shard of the machine (consistency rounds).
    All,
    /// One specific shard.
    Node(usize),
}

/// A message the Cache Kernel (or an application kernel through
/// [`Env::ck`](crate::appkernel::Env)) queued for the machine layer to
/// route. Lower layers never touch rings directly; they push here and
/// the executive's owner drains it after every quantum.
pub struct ShardExport {
    /// Destination shard(s).
    pub dst: ShardDst,
    /// The message.
    pub msg: ShardMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round comes back out exactly as it went in, whichever side of
    /// the inline limits (8 pages/frames, 2 ASIDs/threads) each list
    /// falls on: empty, inline, inline-full, one past (spill), far past.
    #[test]
    fn remote_shootdown_round_trips_inline_and_spilled() {
        let pages: Vec<_> = (0..300u32)
            .map(|i| (i as Asid % 3, Vpn(0x40 + i)))
            .collect();
        let frames: Vec<_> = (0..300u32).map(|i| Pfn(0x900 + i)).collect();
        let asids: Vec<Asid> = vec![11, 12, 13];
        let threads: Vec<u32> = vec![5, 6, 7];
        for n in [0usize, 1, 8, 9, 300] {
            for few in [0usize, 2, 3] {
                let rs = RemoteShootdown::new(
                    &pages[..n],
                    &asids[..few],
                    &frames[..n],
                    &threads[..few],
                    n == 9,
                );
                assert_eq!(
                    rs.spill.is_some(),
                    n > 8 || few > 2,
                    "{n} pages, {few} asids"
                );
                let copy = rs.clone();
                for rs in [&rs, &copy] {
                    assert_eq!(rs.pages(), &pages[..n]);
                    assert_eq!(rs.frames(), &frames[..n]);
                    assert_eq!(rs.asids(), &asids[..few]);
                    assert_eq!(rs.threads(), &threads[..few]);
                    assert_eq!(rs.rtlb_clear, n == 9);
                }
            }
        }
        // Each list spills the round on its own.
        assert!(RemoteShootdown::new(&[], &[], &frames[..9], &[], false)
            .spill
            .is_some());
        assert!(RemoteShootdown::new(&[], &[], &[], &threads, false)
            .spill
            .is_some());
        let empty = RemoteShootdown::default();
        assert!(empty.pages().is_empty() && empty.frames().is_empty());
        assert!(empty.asids().is_empty() && empty.threads().is_empty());
    }
}
