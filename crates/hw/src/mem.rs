//! Simulated physical memory.
//!
//! Frames are 4 KiB and allocated lazily on first touch, so a machine can
//! expose a large physical address space (the prototype managed up to 4 GiB
//! of bus space) while only paying for frames actually used. Page-frame
//! *ownership* is not tracked here — that is application-kernel policy,
//! enforced by the Cache Kernel's memory access arrays.
//!
//! A frame holds either its own bytes or one shared, immutable
//! [`PageImage`], never both. Sharing makes a page-in from a backing store
//! that keeps images a reference-count bump instead of a 4 KiB copy; the
//! first write to a shared frame copies the image into bytes of its own,
//! in `frame_mut`, the one place every mutation passes through. An access
//! to a frame that owns its bytes never looks at the images.

use crate::types::{Paddr, Pfn, PAGE_SIZE};
use std::sync::Arc;

type Page = [u8; PAGE_SIZE as usize];

/// An immutable 4 KiB page image, shared by the frames and the stores that
/// hold it.
pub type PageImage = Arc<Page>;

/// Errors raised by physical-memory operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The physical address lies beyond the configured memory size.
    OutOfRange(Paddr),
    /// An access crossed the end of configured memory.
    Truncated,
}

/// Simulated physical memory with lazily materialized 4 KiB frames.
pub struct PhysMem {
    /// The frames that own their bytes.
    frames: Vec<Option<Box<Page>>>,
    /// The frames that share an image instead: `None` wherever `frames` is
    /// `Some`. Empty until the first `share_in`.
    shared: Vec<Option<PageImage>>,
}

impl PhysMem {
    /// A physical memory of `frames` page frames (addresses `0..frames*4K`).
    pub fn new(frames: usize) -> Self {
        let mut v = Vec::new();
        v.resize_with(frames, || None);
        PhysMem {
            frames: v,
            shared: Vec::new(),
        }
    }

    /// Whether `pfn` is a valid frame of this memory.
    pub fn contains(&self, pfn: Pfn) -> bool {
        (pfn.0 as usize) < self.frames.len()
    }

    fn index(&self, pfn: Pfn) -> Result<usize, MemError> {
        match pfn.0 as usize {
            idx if idx < self.frames.len() => Ok(idx),
            _ => Err(MemError::OutOfRange(pfn.base())),
        }
    }

    /// The image frame `idx` shares, if it shares one.
    fn image(&self, idx: usize) -> Option<&PageImage> {
        self.shared.get(idx)?.as_ref()
    }

    fn frame_mut(&mut self, pfn: Pfn) -> Result<&mut Page, MemError> {
        let idx = self.index(pfn)?;
        if self.frames[idx].is_none() {
            self.own(idx);
        }
        Ok(self.frames[idx].as_mut().unwrap())
    }

    /// Give frame `idx` bytes of its own: a private copy of the image it
    /// shares (the copy-on-write step), or zeroes.
    #[cold]
    fn own(&mut self, idx: usize) {
        let mut page = Box::new([0u8; PAGE_SIZE as usize]);
        if let Some(image) = self.shared.get_mut(idx).and_then(Option::take) {
            page.copy_from_slice(&image[..]);
        }
        self.frames[idx] = Some(page);
    }

    /// Read from a frame that owns no bytes: its shared image, or zeroes.
    #[cold]
    fn read_unowned(&self, idx: usize, in_page: usize, out: &mut [u8]) {
        match self.image(idx) {
            Some(image) => out.copy_from_slice(&image[in_page..in_page + out.len()]),
            None => out.fill(0),
        }
    }

    /// Make `image` the contents of `pfn` without copying it. The frame's
    /// first write takes a private copy; the image itself never changes.
    pub fn share_in(&mut self, pfn: Pfn, image: &PageImage) -> Result<(), MemError> {
        let idx = self.index(pfn)?;
        if self.shared.is_empty() {
            self.shared.resize(self.frames.len(), None);
        }
        self.frames[idx] = None;
        self.shared[idx] = Some(Arc::clone(image));
        Ok(())
    }

    /// The contents of `pfn` as an image: the image it shares, or a copy of
    /// its own bytes (zeroes if it was never written).
    pub fn image_of(&self, pfn: Pfn) -> Result<PageImage, MemError> {
        let idx = self.index(pfn)?;
        Ok(match (&self.frames[idx], self.image(idx)) {
            (Some(own), _) => Arc::new(**own),
            (None, Some(image)) => Arc::clone(image),
            (None, None) => Arc::new([0u8; PAGE_SIZE as usize]),
        })
    }

    /// Read `buf.len()` bytes starting at `addr`. Reads of frames never
    /// written return zeroes without materializing the frame.
    pub fn read(&self, addr: Paddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut a = addr.0 as u64;
        let end = a + buf.len() as u64;
        if end > (self.frames.len() as u64) * PAGE_SIZE as u64 {
            return Err(MemError::Truncated);
        }
        let mut off = 0usize;
        while off < buf.len() {
            let pfn = (a >> 12) as usize;
            let in_page = (a & (PAGE_SIZE as u64 - 1)) as usize;
            let n = core::cmp::min(buf.len() - off, PAGE_SIZE as usize - in_page);
            match &self.frames[pfn] {
                Some(f) => buf[off..off + n].copy_from_slice(&f[in_page..in_page + n]),
                None => self.read_unowned(pfn, in_page, &mut buf[off..off + n]),
            }
            off += n;
            a += n as u64;
        }
        Ok(())
    }

    /// Write `buf` starting at `addr`, materializing frames as needed.
    pub fn write(&mut self, addr: Paddr, buf: &[u8]) -> Result<(), MemError> {
        let mut a = addr.0 as u64;
        let end = a + buf.len() as u64;
        if end > (self.frames.len() as u64) * PAGE_SIZE as u64 {
            return Err(MemError::Truncated);
        }
        let mut off = 0usize;
        while off < buf.len() {
            let pfn = Pfn((a >> 12) as u32);
            let in_page = (a & (PAGE_SIZE as u64 - 1)) as usize;
            let n = core::cmp::min(buf.len() - off, PAGE_SIZE as usize - in_page);
            let frame = self.frame_mut(pfn)?;
            frame[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            off += n;
            a += n as u64;
        }
        Ok(())
    }

    /// Read a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Paddr) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Write a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: Paddr, val: u32) -> Result<(), MemError> {
        self.write(addr, &val.to_le_bytes())
    }

    /// Read a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Paddr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Paddr, val: u64) -> Result<(), MemError> {
        self.write(addr, &val.to_le_bytes())
    }

    /// Copy `len` bytes from frame-to-frame (used for COW resolution and
    /// paging); handles overlap like `memmove`.
    pub fn copy(&mut self, src: Paddr, dst: Paddr, len: usize) -> Result<(), MemError> {
        let mut tmp = vec![0u8; len];
        self.read(src, &mut tmp)?;
        self.write(dst, &tmp)
    }

    /// Zero an entire frame (page-zeroing on allocation).
    pub fn zero_frame(&mut self, pfn: Pfn) -> Result<(), MemError> {
        let frame = self.frame_mut(pfn)?;
        frame.fill(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PhysMem {
        /// Frames that hold bytes of their own (the laziness checks).
        fn resident_frames(&self) -> usize {
            self.frames.iter().filter(|f| f.is_some()).count()
        }
    }

    #[test]
    fn shared_image_is_copied_on_the_first_write_only() {
        let mut m = PhysMem::new(4);
        let image: PageImage = Arc::new([7u8; PAGE_SIZE as usize]);
        m.share_in(Pfn(1), &image).unwrap();
        m.share_in(Pfn(2), &image).unwrap();
        assert_eq!(m.resident_frames(), 0, "sharing copies nothing");
        assert!(Arc::ptr_eq(&m.image_of(Pfn(2)).unwrap(), &image));
        m.write(Paddr(0x1000), b"own").unwrap();
        assert_eq!(m.resident_frames(), 1);
        assert_eq!(Arc::strong_count(&image), 2, "frame 1 let go of it");
        let mut b = [0u8; 4];
        m.read(Paddr(0x1000), &mut b).unwrap();
        assert_eq!(&b, b"own\x07");
        m.read(Paddr(0x2000), &mut b).unwrap();
        assert_eq!(b, [7; 4], "the sibling frame still reads the image");
        assert!(image.iter().all(|&x| x == 7), "the image never changes");
        // Sharing over a frame's own bytes drops them.
        m.share_in(Pfn(1), &image).unwrap();
        assert_eq!(m.resident_frames(), 0);
        assert_eq!(m.read_u32(Paddr(0x1000)).unwrap(), 0x0707_0707);
        assert_eq!(
            m.share_in(Pfn(4), &image),
            Err(MemError::OutOfRange(Paddr(4 * PAGE_SIZE)))
        );
    }

    #[test]
    fn read_unwritten_is_zero_and_lazy() {
        let m = PhysMem::new(16);
        let mut b = [0xffu8; 8];
        m.read(Paddr(0x1000), &mut b).unwrap();
        assert_eq!(b, [0u8; 8]);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = PhysMem::new(16);
        m.write(Paddr(0x2345), b"hello cache kernel").unwrap();
        let mut b = [0u8; 18];
        m.read(Paddr(0x2345), &mut b).unwrap();
        assert_eq!(&b, b"hello cache kernel");
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn cross_page_write() {
        let mut m = PhysMem::new(4);
        let data: Vec<u8> = (0..100).collect();
        m.write(Paddr(PAGE_SIZE - 50), &data).unwrap();
        let mut b = vec![0u8; 100];
        m.read(Paddr(PAGE_SIZE - 50), &mut b).unwrap();
        assert_eq!(b, data);
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = PhysMem::new(2);
        assert_eq!(
            m.write(Paddr(2 * PAGE_SIZE - 2), &[1, 2, 3]),
            Err(MemError::Truncated)
        );
        let mut b = [0u8; 4];
        assert_eq!(
            m.read(Paddr(2 * PAGE_SIZE), &mut b),
            Err(MemError::Truncated)
        );
    }

    #[test]
    fn u32_u64_roundtrip() {
        let mut m = PhysMem::new(2);
        m.write_u32(Paddr(0x10), 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(Paddr(0x10)).unwrap(), 0xdead_beef);
        m.write_u64(Paddr(0x18), 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u64(Paddr(0x18)).unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn copy_and_zero() {
        let mut m = PhysMem::new(4);
        m.write(Paddr(0x0), b"abcd").unwrap();
        m.copy(Paddr(0x0), Paddr(0x1000), 4).unwrap();
        assert_eq!(
            m.read_u32(Paddr(0x1000)).unwrap(),
            u32::from_le_bytes(*b"abcd")
        );
        m.zero_frame(Pfn(1)).unwrap();
        assert_eq!(m.read_u32(Paddr(0x1000)).unwrap(), 0);
    }
}
