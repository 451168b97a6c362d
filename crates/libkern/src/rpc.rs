//! Object-oriented RPC over memory-based messaging (§2.2, §3).
//!
//! "An object-oriented RPC facility implemented on top of the memory-based
//! messaging as a user-space communication library allows applications and
//! services to use a conventional procedural communication interface."
//! Marshaling is direct into the communication channel with minimal
//! copying; the implementation lives entirely in user (application-kernel)
//! space so kernels can override resource management and exception
//! handling.
//!
//! The same frame encoding is used over fabric packets for communication
//! between distributed application kernels (the SRM's coordination).

use crate::chan::Channel;
use cache_kernel::{CacheKernel, CkResult, ObjId};
use hw::Mpm;

/// An RPC frame: request or response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcMessage {
    /// Request/response matching tag.
    pub seq: u32,
    /// Method selector (responses set the high bit).
    pub method: u32,
    /// Marshaled arguments or results.
    pub payload: Vec<u8>,
}

/// Response bit in the method word.
pub const RESPONSE: u32 = 1 << 31;

impl RpcMessage {
    /// A request frame.
    pub fn request(seq: u32, method: u32, payload: Vec<u8>) -> Self {
        RpcMessage {
            seq,
            method: method & !RESPONSE,
            payload,
        }
    }
    /// A response frame for `req`.
    pub fn response(req: &RpcMessage, payload: Vec<u8>) -> Self {
        RpcMessage {
            seq: req.seq,
            method: req.method | RESPONSE,
            payload,
        }
    }
    /// Whether this is a response.
    pub fn is_response(&self) -> bool {
        self.method & RESPONSE != 0
    }
    /// Method selector without the response bit.
    pub fn selector(&self) -> u32 {
        self.method & !RESPONSE
    }

    /// Marshal to bytes (little-endian, length-prefixed payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.payload.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.method.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Demarshal from bytes.
    pub fn decode(data: &[u8]) -> Option<RpcMessage> {
        if data.len() < 12 {
            return None;
        }
        let seq = u32::from_le_bytes(data[0..4].try_into().ok()?);
        let method = u32::from_le_bytes(data[4..8].try_into().ok()?);
        let len = u32::from_le_bytes(data[8..12].try_into().ok()?) as usize;
        if data.len() < 12 + len {
            return None;
        }
        Some(RpcMessage {
            seq,
            method,
            payload: data[12..12 + len].to_vec(),
        })
    }
}

/// Argument marshaling helper (stub-routine flavor).
#[derive(Default)]
pub struct Marshal {
    buf: Vec<u8>,
}

impl Marshal {
    /// An empty argument buffer.
    pub fn new() -> Self {
        Self::default()
    }
    /// Append a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Append a `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Append length-prefixed bytes.
    pub fn bytes(mut self, v: &[u8]) -> Self {
        self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(v);
        self
    }
    /// Finish.
    pub fn done(self) -> Vec<u8> {
        self.buf
    }
}

/// Argument demarshaling helper.
pub struct Demarshal<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Demarshal<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Demarshal { buf, at: 0 }
    }
    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }
    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let b = self.buf.get(self.at..self.at + len)?;
        self.at += len;
        Some(b)
    }
}

/// An RPC service: dispatch a request to a result.
pub trait RpcServer {
    /// Handle `method(args)`, returning marshaled results.
    fn dispatch(&mut self, method: u32, args: &[u8]) -> Vec<u8>;
}

/// A same-node RPC endpoint: request channel out, response channel back.
/// (Cross-node RPC reuses [`RpcMessage`] encoding over fabric packets.)
pub struct RpcClient {
    /// Request channel (client → server).
    pub req: Channel,
    /// Response channel (server → client).
    pub resp: Channel,
    next_seq: u32,
}

impl RpcClient {
    /// A client over a channel pair.
    pub fn new(req: Channel, resp: Channel) -> Self {
        RpcClient {
            req,
            resp,
            next_seq: 1,
        }
    }

    /// Issue a call and (synchronously, for kernel-level use) run the
    /// server against the request channel, returning the unmarshaled
    /// response payload. The message travels through the shared memory
    /// pages both ways.
    pub fn call(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        cpu: usize,
        server: &mut dyn RpcServer,
        method: u32,
        args: Vec<u8>,
    ) -> CkResult<Vec<u8>> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = RpcMessage::request(seq, method, args);
        self.req.send_bytes(ck, mpm, cpu, &msg.encode())?;

        // Server side: read the request out of the message page.
        let (_, data) = self.req.read(mpm).ok_or(cache_kernel::CkError::Invalid)?;
        let req = RpcMessage::decode(&data).ok_or(cache_kernel::CkError::Invalid)?;
        let result = server.dispatch(req.selector(), &req.payload);
        let resp = RpcMessage::response(&req, result);
        self.resp.send_bytes(ck, mpm, cpu, &resp.encode())?;

        // Client side: read the response.
        let (_, data) = self.resp.read(mpm).ok_or(cache_kernel::CkError::Invalid)?;
        let resp = RpcMessage::decode(&data).ok_or(cache_kernel::CkError::Invalid)?;
        debug_assert!(resp.is_response() && resp.seq == seq);
        Ok(resp.payload)
    }

    /// The writeback channel of the paper is this same facility: provide
    /// a one-way notification send.
    pub fn notify(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        cpu: usize,
        method: u32,
        args: Vec<u8>,
    ) -> CkResult<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = RpcMessage::request(seq, method, args);
        self.req.send_bytes(ck, mpm, cpu, &msg.encode())?;
        Ok(())
    }
}

/// Helper for a dead ObjId placeholder in marshaled structures.
pub fn encode_objid(id: ObjId) -> u64 {
    let kind = match id.kind {
        cache_kernel::ObjKind::Kernel => 0u64,
        cache_kernel::ObjKind::AddrSpace => 1,
        cache_kernel::ObjKind::Thread => 2,
    };
    (kind << 48) | ((id.slot as u64) << 32) | id.gen as u64
}

/// Inverse of [`encode_objid`].
pub fn decode_objid(v: u64) -> Option<ObjId> {
    let kind = match v >> 48 {
        0 => cache_kernel::ObjKind::Kernel,
        1 => cache_kernel::ObjKind::AddrSpace,
        2 => cache_kernel::ObjKind::Thread,
        _ => return None,
    };
    Some(ObjId::new(kind, ((v >> 32) & 0xffff) as u16, v as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_kernel::{CkConfig, KernelDesc, MemoryAccessArray, ObjKind, SpaceDesc, ThreadDesc};
    use hw::{MachineConfig, Paddr, Vaddr};

    #[test]
    fn message_roundtrip() {
        let m = RpcMessage::request(7, 3, vec![1, 2, 3]);
        let d = RpcMessage::decode(&m.encode()).unwrap();
        assert_eq!(m, d);
        assert!(!d.is_response());
        let r = RpcMessage::response(&d, vec![9]);
        assert!(r.is_response());
        assert_eq!(r.selector(), 3);
        assert_eq!(r.seq, 7);
    }

    #[test]
    fn decode_rejects_truncation() {
        let m = RpcMessage::request(1, 2, vec![0; 16]).encode();
        assert!(RpcMessage::decode(&m[..8]).is_none());
        assert!(RpcMessage::decode(&m[..m.len() - 1]).is_none());
    }

    #[test]
    fn marshal_demarshal() {
        let buf = Marshal::new()
            .u32(5)
            .u64(0xdead_beef_cafe)
            .bytes(b"hi")
            .done();
        let mut d = Demarshal::new(&buf);
        assert_eq!(d.u32(), Some(5));
        assert_eq!(d.u64(), Some(0xdead_beef_cafe));
        assert_eq!(d.bytes(), Some(&b"hi"[..]));
        assert_eq!(d.u32(), None);
    }

    #[test]
    fn objid_roundtrip() {
        let id = ObjId::new(ObjKind::Thread, 12, 345);
        assert_eq!(decode_objid(encode_objid(id)), Some(id));
        assert_eq!(decode_objid(0xffff_0000_0000_0000), None);
    }

    struct Adder;
    impl RpcServer for Adder {
        fn dispatch(&mut self, method: u32, args: &[u8]) -> Vec<u8> {
            assert_eq!(method, 1);
            let mut d = Demarshal::new(args);
            let a = d.u32().unwrap();
            let b = d.u32().unwrap();
            Marshal::new().u32(a + b).done()
        }
    }

    #[test]
    fn rpc_call_through_message_pages() {
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
        let client_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let server_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let server_thread = ck
            .load_thread(srm, ThreadDesc::new(server_sp, 1, 8), false, &mut mpm)
            .unwrap();
        let client_thread = ck
            .load_thread(srm, ThreadDesc::new(client_sp, 2, 8), false, &mut mpm)
            .unwrap();
        let req = Channel::setup(
            &mut ck,
            &mut mpm,
            srm,
            client_sp,
            Vaddr(0xa000),
            server_sp,
            Vaddr(0xb000),
            server_thread,
            Paddr(0x30_0000),
        )
        .unwrap();
        let resp = Channel::setup(
            &mut ck,
            &mut mpm,
            srm,
            server_sp,
            Vaddr(0xc000),
            client_sp,
            Vaddr(0xd000),
            client_thread,
            Paddr(0x30_1000),
        )
        .unwrap();
        let mut client = RpcClient::new(req, resp);
        let out = client
            .call(
                &mut ck,
                &mut mpm,
                0,
                &mut Adder,
                1,
                Marshal::new().u32(20).u32(22).done(),
            )
            .unwrap();
        assert_eq!(Demarshal::new(&out).u32(), Some(42));
        // Both parties were signaled through memory-based messaging.
        assert_eq!(ck.pending_signals(server_thread.slot), 1);
        assert_eq!(ck.pending_signals(client_thread.slot), 1);
    }
}
