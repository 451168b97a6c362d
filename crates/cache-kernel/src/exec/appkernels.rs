//! The application-kernel registry.
//!
//! Application kernels are trait objects held in a vector indexed by the
//! slot of the kernel object they are registered under. Walking it is
//! ascending slot order by construction, so broadcast deliveries — clock
//! ticks, for one — visit kernels in a deterministic order regardless of
//! registration history; this is load-bearing for the byte-identical
//! event traces the executive guarantees. Taking a kernel out for a call
//! and putting it back are an `Option::take` and a store.

use crate::appkernel::AppKernel;

/// Registered application-kernel objects, indexed by kernel-object slot.
#[derive(Default)]
pub struct AppKernelTable {
    kernels: Vec<Option<Box<dyn AppKernel>>>,
}

impl AppKernelTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `k` under the kernel-object `slot` (also how a kernel
    /// taken out for a call with [`remove`] is put back).
    ///
    /// [`remove`]: AppKernelTable::remove
    pub fn insert(&mut self, slot: u16, k: Box<dyn AppKernel>) {
        if self.kernels.len() <= slot as usize {
            self.kernels.resize_with(slot as usize + 1, || None);
        }
        self.kernels[slot as usize] = Some(k);
    }

    /// Remove and return the kernel registered under `slot`. Take-out /
    /// put-back around a call lets the callee re-enter the executive.
    pub fn remove(&mut self, slot: u16) -> Option<Box<dyn AppKernel>> {
        self.kernels.get_mut(slot as usize)?.take()
    }

    /// Whether a kernel is registered under `slot`.
    pub fn contains(&self, slot: u16) -> bool {
        matches!(self.kernels.get(slot as usize), Some(Some(_)))
    }

    /// One past the highest slot ever registered: `0..slot_end()` walks
    /// the registered slots in ascending (deterministic) order.
    pub fn slot_end(&self) -> u16 {
        self.kernels.len() as u16
    }
}
