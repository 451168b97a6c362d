//! Cache Kernel device drivers (§2.2).
//!
//! "Devices that fit into the memory-based messaging model directly
//! require minimal driver code complexity of the Cache Kernel. … In
//! contrast, the Ethernet device requires a non-trivial Cache Kernel
//! driver to implement the memory-based messaging interface because the
//! Ethernet chip itself provides a conventional DMA interface."
//!
//! The fiber channel needs no driver at all beyond mapping its slot
//! regions (the executive's `message_store` doorbell). This module is
//! the *non-trivial* one: [`EtherDriver`] owns descriptor rings and
//! buffers in reserved frames, programs the MAC, keeps the receive ring
//! stocked, and converts completion events into address-valued signals
//! on the buffer pages — turning the DMA interface into memory-based
//! messaging.

use crate::ck::CacheKernel;
use crate::events::{DeviceSource, KernelEvent};
use hw::dev::ethernet::{read_desc, write_desc, EtherEvent, DESC_BYTES, F_OWN};
use hw::{Mpm, Packet, Paddr, PAGE_SIZE};

/// Ring sizes (power of two keeps index math trivial).
pub const RING_ENTRIES: u32 = 8;

/// Driver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EtherDriverStats {
    /// Frames transmitted.
    pub tx: u64,
    /// Frames received and signaled.
    pub rx_signaled: u64,
    /// Transmit attempts dropped because the ring was full.
    pub tx_ring_full: u64,
    /// Receive overruns reported by the MAC.
    pub rx_overruns: u64,
}

/// The Ethernet driver state inside the Cache Kernel.
pub struct EtherDriver {
    tx_ring: Paddr,
    rx_ring: Paddr,
    tx_buf: Paddr,
    rx_buf: Paddr,
    tx_tail: u32,
    tx_inflight: u32,
    /// Counters.
    pub stats: EtherDriverStats,
}

impl EtherDriver {
    /// Initialize the driver over `frames_base..`: lay out rings and
    /// buffers, program the MAC, and stock the receive ring.
    pub fn new(mpm: &mut Mpm, frames_base: u32) -> Self {
        let ring_frame = Paddr(frames_base * PAGE_SIZE);
        let tx_ring = ring_frame;
        let rx_ring = Paddr(ring_frame.0 + RING_ENTRIES * DESC_BYTES);
        let tx_buf = Paddr((frames_base + 1) * PAGE_SIZE);
        let rx_buf = Paddr((frames_base + 1 + RING_ENTRIES) * PAGE_SIZE);

        mpm.ether.set_tx_ring(tx_ring, RING_ENTRIES);
        mpm.ether.set_rx_ring(rx_ring, RING_ENTRIES);
        // Stock every receive descriptor with a buffer, owned by the MAC.
        for i in 0..RING_ENTRIES {
            write_desc(
                &mut mpm.mem,
                rx_ring,
                i,
                Paddr(rx_buf.0 + i * PAGE_SIZE),
                0,
                F_OWN,
            );
        }
        EtherDriver {
            tx_ring,
            rx_ring,
            tx_buf,
            rx_buf,
            tx_tail: 0,
            tx_inflight: 0,
            stats: EtherDriverStats::default(),
        }
    }

    /// Buffer page of receive slot `i` (application kernels map these
    /// with signal threads to receive packets).
    pub fn rx_buffer(&self, i: u32) -> Paddr {
        Paddr(self.rx_buf.0 + (i % RING_ENTRIES) * PAGE_SIZE)
    }

    /// Transmit a frame: copy it into the next transmit buffer, hand the
    /// descriptor to the MAC, ring the doorbell, and return the packets
    /// the MAC pushed toward the fabric.
    pub fn transmit(
        &mut self,
        mpm: &mut Mpm,
        dst: usize,
        channel: u32,
        payload: &[u8],
    ) -> Vec<Packet> {
        if self.tx_inflight >= RING_ENTRIES {
            self.stats.tx_ring_full += 1;
            return Vec::new();
        }
        let slot = self.tx_tail % RING_ENTRIES;
        self.tx_tail += 1;
        self.tx_inflight += 1;
        let buf = Paddr(self.tx_buf.0 + slot * PAGE_SIZE);
        // Simulated framing: [dst u32][channel u32][payload].
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(dst as u32).to_le_bytes());
        frame.extend_from_slice(&channel.to_le_bytes());
        frame.extend_from_slice(payload);
        let _ = mpm.mem.write(buf, &frame);
        write_desc(
            &mut mpm.mem,
            self.tx_ring,
            slot,
            buf,
            frame.len() as u16,
            F_OWN,
        );
        mpm.clock.charge(mpm.config.cost.device_cmd);
        let pkts = mpm.ether.kick_tx(&mut mpm.mem);
        self.stats.tx += pkts.len() as u64;
        pkts
    }

    /// Poll completion events: reclaim finished transmit descriptors and
    /// turn received frames into [`KernelEvent::DeviceInterrupt`]s on
    /// their buffer pages. The executive's event pump raises the
    /// address-valued signal — the memory-based-messaging adaptation.
    pub fn poll(&mut self, ck: &mut CacheKernel, mpm: &mut Mpm) -> u32 {
        let events = mpm.ether.take_events();
        let mut signaled = 0;
        for ev in events {
            match ev {
                EtherEvent::TxDone(_) => {
                    self.tx_inflight = self.tx_inflight.saturating_sub(1);
                }
                EtherEvent::RxDone { index, .. } => {
                    let buf = self.rx_buffer(index);
                    ck.emit(KernelEvent::DeviceInterrupt {
                        source: DeviceSource::EtherRx,
                        paddr: buf,
                    });
                    self.stats.rx_signaled += 1;
                    signaled += 1;
                    // Restock the descriptor for the MAC.
                    let (_, _flags) = read_desc(&mpm.mem, self.rx_ring, index);
                    write_desc(&mut mpm.mem, self.rx_ring, index, buf, 0, F_OWN);
                }
                EtherEvent::RxOverrun => {
                    self.stats.rx_overruns += 1;
                }
            }
        }
        signaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ck::{CacheKernel, CkConfig};
    use crate::objects::{KernelDesc, MemoryAccessArray, SpaceDesc, ThreadDesc};
    use hw::{MachineConfig, Pte, Vaddr};

    fn setup() -> (CacheKernel, Mpm, crate::ids::ObjId, EtherDriver) {
        let mut ck = CacheKernel::new(CkConfig::default());
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 1024,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let drv = EtherDriver::new(&mut mpm, 512);
        (ck, mpm, srm, drv)
    }

    /// What the executive's event pump does for device interrupts; these
    /// tests drive the driver without an executive.
    fn pump_interrupts(ck: &mut CacheKernel, mpm: &mut Mpm) {
        for ev in ck.drain_events() {
            if let KernelEvent::DeviceInterrupt { paddr, .. } = ev {
                ck.raise_signal(mpm, 0, paddr);
            }
        }
    }

    #[test]
    fn transmit_produces_fabric_packets() {
        let (_ck, mut mpm, _srm, mut drv) = setup();
        let pkts = drv.transmit(&mut mpm, 2, 9, b"frame one");
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].dst, 2);
        assert_eq!(pkts[0].channel, 9);
        assert_eq!(pkts[0].data, b"frame one");
        assert_eq!(drv.stats.tx, 1);
    }

    #[test]
    fn tx_ring_wraps_and_reclaims() {
        let (mut ck, mut mpm, _srm, mut drv) = setup();
        for i in 0..20u32 {
            let pkts = drv.transmit(&mut mpm, 1, 1, &i.to_le_bytes());
            assert_eq!(pkts.len(), 1, "descriptor reclaimed before reuse");
            drv.poll(&mut ck, &mut mpm); // reclaim TxDone
        }
        assert_eq!(drv.stats.tx, 20);
        assert_eq!(drv.stats.tx_ring_full, 0);
    }

    #[test]
    fn ring_full_drops_when_not_polled() {
        let (_ck, mut mpm, _srm, mut drv) = setup();
        // Without polling, in-flight counts accumulate (the MAC finished,
        // but the driver hasn't reclaimed) and the ring throttles.
        for i in 0..RING_ENTRIES + 3 {
            drv.transmit(&mut mpm, 1, 1, &i.to_le_bytes());
        }
        assert_eq!(drv.stats.tx_ring_full, 3);
    }

    #[test]
    fn receive_becomes_signal_on_buffer_page() {
        let (mut ck, mut mpm, srm, mut drv) = setup();
        // A receiver thread maps rx buffer 0 in message mode.
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 10), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0xe000_0000),
            drv.rx_buffer(0),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        // A frame arrives from the fabric.
        let pkt = Packet {
            src: 3,
            dst: 0,
            channel: 5,
            data: b"incoming".to_vec(),
        };
        mpm.ether.deliver(&mut mpm.mem, &pkt);
        let n = drv.poll(&mut ck, &mut mpm);
        assert_eq!(n, 1);
        assert_eq!(ck.stats.device_interrupts, 1);
        pump_interrupts(&mut ck, &mut mpm);
        assert_eq!(ck.take_signal(t.slot), Some(Vaddr(0xe000_0000)));
        // The data is in the mapped buffer, via DMA.
        let mut buf = vec![0u8; 8];
        mpm.mem.read(drv.rx_buffer(0), &mut buf).unwrap();
        assert_eq!(&buf, b"incoming");
        assert_eq!(drv.stats.rx_signaled, 1);
    }

    #[test]
    fn rx_ring_restocked_after_signal() {
        let (mut ck, mut mpm, _srm, mut drv) = setup();
        // Deliver more frames than the ring holds, polling between.
        for i in 0..RING_ENTRIES * 2 {
            let pkt = Packet {
                src: 1,
                dst: 0,
                channel: 5,
                data: vec![i as u8],
            };
            mpm.ether.deliver(&mut mpm.mem, &pkt);
            drv.poll(&mut ck, &mut mpm);
        }
        assert_eq!(drv.stats.rx_signaled as u32, RING_ENTRIES * 2);
        assert_eq!(drv.stats.rx_overruns, 0, "driver kept the ring stocked");
    }
}
