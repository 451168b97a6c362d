//! Device polling and fabric packet movement.
//!
//! Devices never touch application kernels directly either: the clock's
//! tick and the Ethernet driver's receive completions enter the pipeline
//! as [`KernelEvent::DeviceInterrupt`]s, and arriving fabric packets as
//! [`KernelEvent::PacketArrived`]; the pump turns them into the
//! address-valued signals and kernel hooks.
//!
//! [`KernelEvent::DeviceInterrupt`]: crate::events::KernelEvent
//! [`KernelEvent::PacketArrived`]: crate::events::KernelEvent

use super::Executive;
use crate::events::{DeviceSource, KernelEvent};
use hw::Packet;

impl Executive {
    pub(crate) fn poll_devices(&mut self) {
        // Interval clock: its tick refreshes the time page; the pump
        // raises the address-valued signal on it and runs the registered
        // kernels' rescheduling hooks.
        let now = self.mpm.clock.cycles();
        let tick = self.mpm.clockdev.poll(&mut self.mpm.mem, now);
        if let Some(pa) = tick {
            self.ck.emit(KernelEvent::DeviceInterrupt {
                source: DeviceSource::Clock,
                paddr: pa,
            });
        }
        // Ethernet driver: reclaim transmit descriptors and turn receive
        // completions into interrupt events on the buffer pages.
        if let Some(drv) = self.ether_driver.as_mut() {
            drv.poll(&mut self.ck, &mut self.mpm);
        }
    }

    /// Packets addressed to this very node are delivered locally at the
    /// end of a quantum; the rest wait for the cluster loop.
    pub(crate) fn loopback_outbox(&mut self) {
        let node = self.mpm.node();
        // One at a time, in order: a delivery may queue further packets,
        // which wait at the tail for the next quantum like the remote
        // ones already there.
        let mut at = 0;
        for _ in 0..self.outbox.len() {
            if self.outbox[at].dst == node {
                let pkt = self.outbox.remove(at);
                self.deliver_packet(pkt);
            } else {
                at += 1;
            }
        }
    }

    /// Deliver an incoming fabric packet through the fiber interface: it
    /// lands in a reception slot and raises an address-valued signal on
    /// the slot page (§2.2 device model). The arrival is pumped through
    /// the event pipeline immediately, so callers observe the same
    /// synchronous behavior as before the pipeline refactor.
    pub fn deliver_packet(&mut self, pkt: Packet) {
        if self.ether_driver.is_some() && self.ether_channels.contains(&pkt.channel) {
            // DMA into the Ethernet receive ring; the driver emits the
            // interrupt event at the next poll.
            self.mpm.ether.deliver(&mut self.mpm.mem, &pkt);
        } else if let Some(pa) = self.mpm.fiber.deliver(&mut self.mpm.mem, &pkt) {
            self.ck.emit(KernelEvent::DeviceInterrupt {
                source: DeviceSource::Fiber,
                paddr: pa,
            });
        }
        self.ck.emit(KernelEvent::PacketArrived {
            src: pkt.src,
            channel: pkt.channel,
            data: pkt.data,
        });
        self.pump_events();
    }
}
