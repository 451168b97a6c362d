//! Communication class library: channels over memory-based messaging (§3).
//!
//! A channel is a shared physical message page mapped into the sender's
//! space (writable, message mode) and the receiver's space (message mode,
//! with a signal thread). The sender writes a frame into the page; the
//! store raises an address-valued signal that wakes the receiver, which
//! reads the frame at the signaled address. The Cache Kernel never touches
//! the data (§2.2).
//!
//! Frame layout in the page: `[seq: u32][len: u32][payload…]`.

use cache_kernel::{CacheKernel, CkError, CkResult, ObjId, SignalOutcome, TransferOutcome};
use hw::{Mpm, Paddr, Pte, Vaddr, CACHE_LINE_SIZE, PAGE_SIZE};

/// Simulated cycles to move `bytes` through the memory system line by
/// line — the §2.2 "data transfer through the memory system" cost a
/// copying channel pays per message and a page-remap channel avoids.
fn copy_cycles(mpm: &Mpm, bytes: usize) -> u64 {
    mpm.config.cost.copy_line * (bytes as u64).div_ceil(CACHE_LINE_SIZE as u64)
}

/// Header bytes of a channel frame.
pub const CHAN_HDR: u32 = 8;
/// Maximum payload per message.
pub const CHAN_MAX: u32 = PAGE_SIZE - CHAN_HDR;

/// One direction of communication over a shared message page.
pub struct Channel {
    /// Physical page carrying the messages.
    pub frame: Paddr,
    /// Sender-side virtual base (in the sender's space).
    pub send_va: Vaddr,
    /// Receiver-side virtual base (in the receiver's space).
    pub recv_va: Vaddr,
    seq: u32,
    /// Messages sent.
    pub sent: u64,
}

impl Channel {
    /// Set up the channel: map `frame` into both spaces with the receiver
    /// registered as the page's signal thread. Per §4.2 the application
    /// kernel loads *all* the mappings for a message page together.
    #[allow(clippy::too_many_arguments)]
    pub fn setup(
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        kernel: ObjId,
        sender_space: ObjId,
        send_va: Vaddr,
        receiver_space: ObjId,
        recv_va: Vaddr,
        receiver_thread: ObjId,
        frame: Paddr,
    ) -> CkResult<Channel> {
        ck.load_mapping(
            kernel,
            receiver_space,
            recv_va,
            frame,
            Pte::MESSAGE,
            Some(receiver_thread),
            None,
            mpm,
        )?;
        ck.load_mapping(
            kernel,
            sender_space,
            send_va,
            frame,
            Pte::WRITABLE | Pte::MESSAGE,
            None,
            None,
            mpm,
        )?;
        Ok(Channel {
            frame,
            send_va,
            recv_va,
            seq: 0,
            sent: 0,
        })
    }

    /// Kernel-level send: write the frame directly through physical
    /// memory and raise the signal (this is how the Cache Kernel's own
    /// writeback channel and kernel-to-kernel communication operate; user
    /// programs instead store through their mapping and the hardware
    /// raises the signal).
    pub fn send_bytes(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        cpu: usize,
        data: &[u8],
    ) -> CkResult<SignalOutcome> {
        assert!(data.len() as u32 <= CHAN_MAX, "message too large");
        self.seq = self.seq.wrapping_add(1);
        mpm.mem
            .write_u32(self.frame, self.seq)
            .map_err(|_| cache_kernel::CkError::Invalid)?;
        mpm.mem
            .write_u32(Paddr(self.frame.0 + 4), data.len() as u32)
            .map_err(|_| cache_kernel::CkError::Invalid)?;
        mpm.mem
            .write(Paddr(self.frame.0 + CHAN_HDR), data)
            .map_err(|_| cache_kernel::CkError::Invalid)?;
        let copy = copy_cycles(mpm, CHAN_HDR as usize + data.len());
        mpm.clock.charge(copy);
        mpm.cpus[cpu].consume(copy);
        self.sent += 1;
        Ok(ck.raise_signal(mpm, cpu, self.frame))
    }

    /// Read the current frame out of the message page.
    pub fn read(&self, mpm: &Mpm) -> Option<(u32, Vec<u8>)> {
        let seq = mpm.mem.read_u32(self.frame).ok()?;
        let len = mpm.mem.read_u32(Paddr(self.frame.0 + 4)).ok()?;
        if len > CHAN_MAX {
            return None;
        }
        let mut data = vec![0u8; len as usize];
        mpm.mem
            .read(Paddr(self.frame.0 + CHAN_HDR), &mut data)
            .ok()?;
        Some((seq, data))
    }

    /// Receive: [`Channel::read`] plus the drain copy's cycle charge. A
    /// shared-frame channel *must* copy the payload out before the
    /// receiver acknowledges — the sender overwrites the frame on its
    /// next send — so the copy-out is part of every message's cost, the
    /// mirror of `send_bytes`' copy-in. (A [`PageChannel`] receiver keeps
    /// the page instead and pays neither.)
    pub fn recv(&self, mpm: &mut Mpm, cpu: usize) -> Option<(u32, Vec<u8>)> {
        let out = self.read(mpm)?;
        let copy = copy_cycles(mpm, CHAN_HDR as usize + out.1.len());
        mpm.clock.charge(copy);
        mpm.cpus[cpu].consume(copy);
        Some(out)
    }

    /// Last sequence number sent.
    pub fn seq(&self) -> u32 {
        self.seq
    }
}

/// A zero-copy channel: instead of both sides sharing one mapped page,
/// the message page itself ping-pongs between the spaces. The sender
/// composes the frame in place and [`PageChannel::send`] *transfers* the
/// page's mapping into the receiver's space
/// ([`CacheKernel::transfer_mapping`]); the receiver reads the payload in
/// place — no copy on either side, and the kernel cost is flat in the
/// message size. [`PageChannel::complete`] hands the page back for
/// reuse.
///
/// When the page turns out to be mapped elsewhere too (the transfer
/// would yank it from the other holders), the send falls back to a
/// classic copy through a dedicated fallback page set up alongside the
/// primary; [`PageChannel::remaps`] / [`PageChannel::copies`] count which
/// path each send took.
pub struct PageChannel {
    /// The ping-ponging message page.
    pub frame: Paddr,
    /// Fallback page for multiply-mapped sends (classic shared channel).
    pub fallback: Paddr,
    /// Sender-side virtual base of `frame` while the sender holds it.
    pub send_va: Vaddr,
    /// Receiver-side virtual base of `frame` while the receiver holds it.
    pub recv_va: Vaddr,
    kernel: ObjId,
    sender_space: ObjId,
    receiver_space: ObjId,
    receiver_thread: ObjId,
    seq: u32,
    at_receiver: bool,
    last_published: Paddr,
    /// Messages sent.
    pub sent: u64,
    /// Sends that transferred the page (zero-copy path).
    pub remaps: u64,
    /// Sends that fell back to copying through the fallback page.
    pub copies: u64,
}

impl PageChannel {
    /// Set up the channel: the primary `frame` starts mapped only in the
    /// sender's space (it is about to be written), and `fallback` is a
    /// classic shared channel page mapped in both spaces at
    /// `send_va`/`recv_va` + one page.
    #[allow(clippy::too_many_arguments)]
    pub fn setup(
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        kernel: ObjId,
        sender_space: ObjId,
        send_va: Vaddr,
        receiver_space: ObjId,
        recv_va: Vaddr,
        receiver_thread: ObjId,
        frame: Paddr,
        fallback: Paddr,
    ) -> CkResult<PageChannel> {
        ck.load_mapping(
            kernel,
            sender_space,
            send_va,
            frame,
            Pte::WRITABLE | Pte::MESSAGE,
            None,
            None,
            mpm,
        )?;
        ck.load_mapping(
            kernel,
            receiver_space,
            Vaddr(recv_va.0 + PAGE_SIZE),
            fallback,
            Pte::MESSAGE,
            Some(receiver_thread),
            None,
            mpm,
        )?;
        ck.load_mapping(
            kernel,
            sender_space,
            Vaddr(send_va.0 + PAGE_SIZE),
            fallback,
            Pte::WRITABLE | Pte::MESSAGE,
            None,
            None,
            mpm,
        )?;
        Ok(PageChannel {
            frame,
            fallback,
            send_va,
            recv_va,
            kernel,
            sender_space,
            receiver_space,
            receiver_thread,
            seq: 0,
            at_receiver: false,
            last_published: frame,
            sent: 0,
            remaps: 0,
            copies: 0,
        })
    }

    /// Kernel-level send: compose the frame in the page the sender holds,
    /// then hand the page to the receiver by transferring its mapping
    /// (signal registration rides the new mapping, so the raise wakes the
    /// receiver at its own translation). Fails with
    /// [`CkError::Again`] while the receiver still holds the page.
    pub fn send(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        cpu: usize,
        data: &[u8],
    ) -> CkResult<SignalOutcome> {
        assert!(data.len() as u32 <= CHAN_MAX, "message too large");
        if self.at_receiver {
            return Err(CkError::Again {
                backoff: ck.config.shed_backoff,
            });
        }
        // The sequence number advances only once the message is on its
        // way: a refused transfer sent nothing, and the next message that
        // is delivered must not skip a number.
        let seq = self.seq.wrapping_add(1);
        write_frame(mpm, self.frame, seq, data)?;
        let outcome = ck.transfer_mapping(
            self.kernel,
            self.sender_space,
            self.send_va,
            self.receiver_space,
            self.recv_va,
            Pte::MESSAGE,
            Some(self.receiver_thread),
            mpm,
        )?;
        self.seq = seq;
        self.sent += 1;
        match outcome {
            TransferOutcome::Remapped => {
                self.at_receiver = true;
                self.last_published = self.frame;
                self.remaps += 1;
                Ok(ck.raise_signal(mpm, cpu, self.frame))
            }
            TransferOutcome::MultiplyMapped => {
                // Someone else holds a mapping of the page: copy the
                // payload through the fallback page instead of yanking
                // the frame out from under them. The fallback is a real
                // copy, so it pays the memory-system transfer cost the
                // remap path avoids.
                let copy = copy_cycles(mpm, CHAN_HDR as usize + data.len());
                mpm.clock.charge(copy);
                mpm.cpus[cpu].consume(copy);
                write_frame(mpm, self.fallback, seq, data)?;
                self.last_published = self.fallback;
                self.copies += 1;
                Ok(ck.raise_signal(mpm, cpu, self.fallback))
            }
        }
    }

    /// The receiver is done with the message: transfer the page back to
    /// the sender for reuse. A no-op after a fallback (copied) send —
    /// the sender never lost the page.
    pub fn complete(&mut self, ck: &mut CacheKernel, mpm: &mut Mpm) -> CkResult<()> {
        if !self.at_receiver {
            return Ok(());
        }
        ck.transfer_mapping(
            self.kernel,
            self.receiver_space,
            self.recv_va,
            self.sender_space,
            self.send_va,
            Pte::WRITABLE | Pte::MESSAGE,
            None,
            mpm,
        )?;
        self.at_receiver = false;
        Ok(())
    }

    /// Read the current frame header in place: `(seq, len, payload
    /// address)`. No payload bytes move — this is the zero-copy receive.
    pub fn read_in_place(&self, mpm: &Mpm) -> Option<(u32, u32, Paddr)> {
        let base = self.last_published;
        let seq = mpm.mem.read_u32(base).ok()?;
        let len = mpm.mem.read_u32(Paddr(base.0 + 4)).ok()?;
        if len > CHAN_MAX {
            return None;
        }
        Some((seq, len, Paddr(base.0 + CHAN_HDR)))
    }

    /// Copying read, for callers (and tests) that want the bytes out.
    pub fn read(&self, mpm: &Mpm) -> Option<(u32, Vec<u8>)> {
        let (seq, len, payload) = self.read_in_place(mpm)?;
        let mut data = vec![0u8; len as usize];
        mpm.mem.read(payload, &mut data).ok()?;
        Some((seq, data))
    }

    /// Last sequence number sent.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Whether the receiver currently holds the page.
    pub fn at_receiver(&self) -> bool {
        self.at_receiver
    }
}

/// Write a `[seq][len][payload]` frame into a page.
fn write_frame(mpm: &mut Mpm, page: Paddr, seq: u32, data: &[u8]) -> CkResult<()> {
    mpm.mem.write_u32(page, seq).map_err(|_| CkError::Invalid)?;
    mpm.mem
        .write_u32(Paddr(page.0 + 4), data.len() as u32)
        .map_err(|_| CkError::Invalid)?;
    mpm.mem
        .write(Paddr(page.0 + CHAN_HDR), data)
        .map_err(|_| CkError::Invalid)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_kernel::{CkConfig, KernelDesc, MemoryAccessArray, SpaceDesc, ThreadDesc};
    use hw::MachineConfig;

    fn setup() -> (CacheKernel, Mpm, ObjId) {
        let mut ck = CacheKernel::new(CkConfig::default());
        let mpm = Mpm::new(MachineConfig {
            phys_frames: 1024,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        (ck, mpm, srm)
    }

    #[test]
    fn send_signals_receiver_and_data_is_readable() {
        let (mut ck, mut mpm, srm) = setup();
        let tx_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let rx_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let rx = ck
            .load_thread(srm, ThreadDesc::new(rx_sp, 1, 8), false, &mut mpm)
            .unwrap();
        let mut chan = Channel::setup(
            &mut ck,
            &mut mpm,
            srm,
            tx_sp,
            Vaddr(0xa000),
            rx_sp,
            Vaddr(0xb000),
            rx,
            Paddr(0x30_0000),
        )
        .unwrap();
        let out = chan.send_bytes(&mut ck, &mut mpm, 0, b"request 1").unwrap();
        assert_eq!(out.receivers(), 1);
        assert_eq!(ck.take_signal(rx.slot), Some(Vaddr(0xb000)));
        let (seq, data) = chan.read(&mpm).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(data, b"request 1");
        // Sequence numbers advance.
        chan.send_bytes(&mut ck, &mut mpm, 0, b"x").unwrap();
        assert_eq!(chan.read(&mpm).unwrap().0, 2);
        assert_eq!(chan.sent, 2);
    }

    #[test]
    fn channel_mappings_are_consistent() {
        // Unloading the receiver's signal mapping flushes the sender's
        // writable one (multi-mapping consistency through the channel).
        let (mut ck, mut mpm, srm) = setup();
        let tx_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let rx_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let rx = ck
            .load_thread(srm, ThreadDesc::new(rx_sp, 1, 8), false, &mut mpm)
            .unwrap();
        let _chan = Channel::setup(
            &mut ck,
            &mut mpm,
            srm,
            tx_sp,
            Vaddr(0xa000),
            rx_sp,
            Vaddr(0xb000),
            rx,
            Paddr(0x30_0000),
        )
        .unwrap();
        ck.unload_mapping_range(srm, rx_sp, Vaddr(0xb000), PAGE_SIZE, &mut mpm)
            .unwrap();
        assert!(ck.query_mapping(srm, tx_sp, Vaddr(0xa000)).is_err());
    }

    fn page_setup() -> (CacheKernel, Mpm, ObjId, ObjId, ObjId, ObjId, PageChannel) {
        let (mut ck, mut mpm, srm) = setup();
        let tx_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let rx_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let rx = ck
            .load_thread(srm, ThreadDesc::new(rx_sp, 1, 8), false, &mut mpm)
            .unwrap();
        let chan = PageChannel::setup(
            &mut ck,
            &mut mpm,
            srm,
            tx_sp,
            Vaddr(0xa000),
            rx_sp,
            Vaddr(0xb000),
            rx,
            Paddr(0x30_0000),
            Paddr(0x31_0000),
        )
        .unwrap();
        (ck, mpm, srm, tx_sp, rx_sp, rx, chan)
    }

    #[test]
    fn page_channel_ping_pongs_without_copying() {
        let (mut ck, mut mpm, srm, tx_sp, rx_sp, rx, mut chan) = page_setup();
        let out = chan.send(&mut ck, &mut mpm, 0, b"zero copy").unwrap();
        assert_eq!(out.receivers(), 1);
        assert_eq!(chan.remaps, 1);
        assert_eq!(chan.copies, 0);
        assert_eq!(ck.stats.mapping_transfers, 1);
        // The page now lives in the receiver's space only, and the
        // signal points at the receiver's own translation.
        assert_eq!(ck.take_signal(rx.slot), Some(Vaddr(0xb000)));
        assert!(ck.query_mapping(srm, tx_sp, Vaddr(0xa000)).is_err());
        assert_eq!(
            ck.query_mapping(srm, rx_sp, Vaddr(0xb000)).unwrap().paddr,
            chan.frame
        );
        let (seq, len, payload) = chan.read_in_place(&mpm).unwrap();
        assert_eq!((seq, len), (1, 9));
        assert_eq!(payload, Paddr(chan.frame.0 + CHAN_HDR));
        // A second send before completion is refused, not silently
        // overwritten under the reader.
        assert!(chan.send(&mut ck, &mut mpm, 0, b"x").is_err());
        // Completion hands the page back and the channel is reusable.
        chan.complete(&mut ck, &mut mpm).unwrap();
        assert!(ck.query_mapping(srm, rx_sp, Vaddr(0xb000)).is_err());
        chan.send(&mut ck, &mut mpm, 0, b"again").unwrap();
        assert_eq!(chan.read(&mpm).unwrap().1, b"again");
        assert_eq!(chan.remaps, 2);
    }

    /// A send the Cache Kernel refuses sent nothing, so it must leave the
    /// channel as it found it: the next message delivered is `seq + 1`.
    #[test]
    fn refused_page_send_does_not_advance_the_sequence() {
        let (mut ck, mut mpm, srm, tx_sp, rx_sp, rx, mut chan) = page_setup();
        chan.send(&mut ck, &mut mpm, 0, b"first").unwrap();
        chan.complete(&mut ck, &mut mpm).unwrap();
        assert_eq!(ck.take_signal(rx.slot), Some(Vaddr(0xb000)));

        // Point the channel at a destination space of another kernel:
        // the load half of the transfer is refused.
        let other = ck
            .load_kernel(
                srm,
                KernelDesc {
                    memory_access: MemoryAccessArray::all(),
                    ..KernelDesc::default()
                },
                &mut mpm,
            )
            .unwrap();
        let foreign = ck
            .load_space(other, SpaceDesc::default(), &mut mpm)
            .unwrap();
        chan.receiver_space = foreign;
        let state = |c: &PageChannel| (c.seq(), c.sent, c.remaps, c.copies, c.at_receiver());
        let before = state(&chan);
        assert_eq!(before, (1, 1, 1, 0, false));
        let refused = chan.send(&mut ck, &mut mpm, 0, b"never sent");
        assert_eq!(refused, Err(CkError::NotOwner(foreign)));
        assert_eq!(state(&chan), before);
        assert_eq!(ck.take_signal(rx.slot), None);
        // The sender still holds its page.
        assert_eq!(
            ck.query_mapping(srm, tx_sp, Vaddr(0xa000)).unwrap().paddr,
            chan.frame
        );

        chan.receiver_space = rx_sp;
        chan.send(&mut ck, &mut mpm, 0, b"second").unwrap();
        assert_eq!(state(&chan), (2, 2, 2, 0, true));
        assert_eq!(chan.read(&mpm).unwrap(), (2, b"second".to_vec()));
        ck.check_invariants().unwrap();
    }

    #[test]
    fn page_channel_falls_back_to_copy_when_multiply_mapped() {
        let (mut ck, mut mpm, srm, tx_sp, _rx_sp, rx, mut chan) = page_setup();
        // A third party maps the primary frame: the transfer must not
        // yank it, so the send copies through the fallback page.
        let other = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        ck.load_mapping(
            srm,
            other,
            Vaddr(0xc000),
            chan.frame,
            0,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        let out = chan.send(&mut ck, &mut mpm, 0, b"copied").unwrap();
        assert_eq!(out.receivers(), 1);
        assert_eq!((chan.remaps, chan.copies), (0, 1));
        assert!(!chan.at_receiver());
        // The signal arrived on the fallback page's receiver mapping.
        assert_eq!(ck.take_signal(rx.slot), Some(Vaddr(0xb000 + PAGE_SIZE)));
        let (seq, data) = chan.read(&mpm).unwrap();
        assert_eq!((seq, data.as_slice()), (1, &b"copied"[..]));
        // The sender still holds the primary page; complete is a no-op.
        chan.complete(&mut ck, &mut mpm).unwrap();
        assert_eq!(
            ck.query_mapping(srm, tx_sp, Vaddr(0xa000)).unwrap().paddr,
            chan.frame
        );
    }
}
