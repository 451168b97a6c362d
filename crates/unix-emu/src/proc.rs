//! Process table of the UNIX emulator.
//!
//! The emulator provides "stable" UNIX-like process identifiers that are
//! independent of the Cache Kernel address-space and thread identifiers,
//! which may change several times over the lifetime of the process (§2) —
//! every swap-out/in or writeback/reload assigns fresh Cache Kernel ids,
//! recorded here next to the pid.

use crate::fs::FdTable;
use cache_kernel::ObjId;
use hw::{Vaddr, PAGE_SIZE};
use libkern::SegmentManager;

/// A UNIX process identifier.
pub type Pid = u32;

/// Virtual layout of an emulated process.
pub mod layout {
    use super::*;
    /// Text (code) region base.
    pub const TEXT_BASE: Vaddr = Vaddr(0x0040_0000);
    /// Data + heap region base.
    pub const DATA_BASE: Vaddr = Vaddr(0x0080_0000);
    /// Stack region base (grows upward in the emulator for simplicity).
    pub const STACK_BASE: Vaddr = Vaddr(0x7ff0_0000);
    /// Default text pages.
    pub const TEXT_PAGES: u32 = 16;
    /// Default data pages (heap cap).
    pub const DATA_PAGES: u32 = 64;
    /// Default stack pages.
    pub const STACK_PAGES: u32 = 16;
    /// End of the data region.
    pub fn data_end() -> Vaddr {
        Vaddr(DATA_BASE.0 + DATA_PAGES * PAGE_SIZE)
    }
}

/// Lifecycle state of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Has a loaded (or loadable) thread.
    Runnable,
    /// Thread unloaded, descriptor parked on an event.
    Sleeping(u64),
    /// Sleeping long enough that its pages and address space were
    /// released (swap, §2.3: "a thread whose application has been swapped
    /// out is also unloaded … it consumes no Cache Kernel descriptors").
    Swapped(u64),
    /// Exited, waiting for the parent's `wait`.
    Zombie(i32),
}

/// One emulated UNIX process.
pub struct Process {
    /// Stable pid.
    pub pid: Pid,
    /// Parent pid (0 for init).
    pub parent: Pid,
    /// Lifecycle state.
    pub state: ProcState,
    /// Current Cache Kernel address-space id, if loaded.
    pub space: Option<ObjId>,
    /// Current Cache Kernel thread id, if loaded.
    pub thread: Option<ObjId>,
    /// Demand paging state for the process's space.
    pub sm: SegmentManager,
    /// Program id of the process's code.
    pub prog: u32,
    /// Current heap break.
    pub brk: Vaddr,
    /// Base scheduling priority.
    pub base_priority: u8,
    /// Recent CPU usage (decayed by the scheduler thread).
    pub usage: u64,
    /// Open files.
    pub fds: FdTable,
    /// Segment id of the data segment (private per process).
    pub data_segment: u32,
    /// Segment id of the (shared, read-only) text segment.
    pub text_segment: u32,
    /// Ticks spent sleeping (swap-out trigger).
    pub sleep_ticks: u32,
    /// Exit code of a reaped child delivered to a pending `wait`.
    pub pending_wait: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_sane() {
        assert!(layout::TEXT_BASE < layout::DATA_BASE);
        assert!(layout::data_end() < layout::STACK_BASE);
        assert_eq!(layout::TEXT_BASE.offset(), 0);
        assert_eq!(layout::DATA_BASE.offset(), 0);
        assert_eq!(layout::STACK_BASE.offset(), 0);
    }
}
