//! Application-kernel class libraries (§3 of the paper).
//!
//! "A C++ class library has been developed for each of the resources,
//! namely memory management, processing and communication. These libraries
//! allow applications to start with a common base of functionality and
//! then specialize" — here as Rust modules:
//!
//! * [`mem`] — segments, regions, the segment manager, frame allocation,
//!   backing store, and pluggable page-replacement policies;
//! * [`thread`] — the sleep queue that parks unloaded thread descriptors
//!   and reloads them on wakeup;
//! * [`chan`] — channels over memory-based messaging;
//! * [`rpc`] — the object-oriented RPC facility (marshaling, request/
//!   response frames, same-node and cross-node transports).
//!
//! Application kernels override the policy hooks (e.g.
//! [`mem::ReplacementPolicy`]) with application-specific versions, which is
//! the entire point of the caching model's division of labor.
//!
//! # Example
//!
//! A channel over memory-based messaging: the receiver is signaled, the
//! data moves through memory:
//!
//! ```
//! use cache_kernel::{CacheKernel, CkConfig, KernelDesc, MemoryAccessArray,
//!                    SpaceDesc, ThreadDesc};
//! use hw::{MachineConfig, Mpm, Paddr, Vaddr};
//! use libkern::Channel;
//!
//! let mut ck = CacheKernel::new(CkConfig::default());
//! let mut mpm = Mpm::new(MachineConfig { phys_frames: 1024, ..Default::default() });
//! let k = ck.boot(KernelDesc {
//!     memory_access: MemoryAccessArray::all(),
//!     ..KernelDesc::default()
//! });
//! let tx = ck.load_space(k, SpaceDesc::default(), &mut mpm)?;
//! let rx = ck.load_space(k, SpaceDesc::default(), &mut mpm)?;
//! let receiver = ck.load_thread(k, ThreadDesc::new(rx, 1, 8), false, &mut mpm)?;
//!
//! let mut chan = Channel::setup(&mut ck, &mut mpm, k,
//!     tx, Vaddr(0xa000), rx, Vaddr(0xb000), receiver, Paddr(0x30_0000))?;
//! let outcome = chan.send_bytes(&mut ck, &mut mpm, 0, b"hello")?;
//! assert_eq!(outcome.receivers(), 1);
//! assert_eq!(ck.take_signal(receiver.slot), Some(Vaddr(0xb000)));
//! assert_eq!(chan.read(&mpm).unwrap().1, b"hello");
//! # Ok::<(), cache_kernel::CkError>(())
//! ```

pub mod chan;
pub mod dsm;
pub mod mem;
pub mod reliable;
pub mod retry;
pub mod rpc;
pub mod thread;

pub use chan::{Channel, PageChannel, CHAN_HDR, CHAN_MAX};
pub use dsm::{Dsm, DsmAction, DsmStats, LineEntry, DSM_CHANNEL};
pub use mem::{
    BackingStore, Fifo, FrameAllocator, Lru, Mru, PageList, PageMap, Region, ReplacementPolicy,
    Segment, SegmentManager,
};
pub use reliable::{Inbound, LinkCounters, ReliableLink, RELIABLE_MAGIC};
pub use retry::{retry, retry_budgeted, Backoff, Deadline, RetryBudget};
pub use rpc::{Demarshal, Marshal, RpcClient, RpcMessage, RpcServer, RESPONSE};
pub use thread::{codeschedule, coschedule, Event, SleepQueue};
