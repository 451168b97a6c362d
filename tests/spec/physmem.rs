//! Physical-memory reference model: what `hw::PhysMem` means, written as
//! the plainest code that says it.
//!
//! The model is the copying memory `PhysMem` was before frames could share
//! page images: one plain byte array, where `share_in` copies the image
//! into the frame and `image_of` copies the frame into a new image.
//! `assert_matches_model` drives production and the model through one
//! random sequence of operations over a few frames and a small pool of
//! images, so that one image is often shared by two frames. After every
//! step every frame must read byte-identical to the model, and every
//! pooled image must still hold the bytes it was made with: a write never
//! leaks into a shared image or into a frame that shares it.
//!
//! Included with `#[path]` by `hw/tests/prop_hw.rs`; depends only on `hw`.

use hw::{FaultRng, MemError, Paddr, PageImage, Pfn, PhysMem, PAGE_SIZE};
use std::ops::Range;

const PAGE: usize = PAGE_SIZE as usize;

/// Copying physical memory: every frame's bytes, back to back.
struct Model {
    bytes: Vec<u8>,
}

impl Model {
    fn new(frames: usize) -> Self {
        Model {
            bytes: vec![0; frames * PAGE],
        }
    }

    fn span(&self, addr: Paddr, len: usize) -> Result<Range<usize>, MemError> {
        let start = addr.0 as usize;
        match start + len {
            end if end <= self.bytes.len() => Ok(start..end),
            _ => Err(MemError::Truncated),
        }
    }

    fn frame(&self, pfn: Pfn) -> Result<Range<usize>, MemError> {
        self.span(pfn.base(), PAGE)
            .map_err(|_| MemError::OutOfRange(pfn.base()))
    }

    fn read(&self, addr: Paddr, buf: &mut [u8]) -> Result<(), MemError> {
        buf.copy_from_slice(&self.bytes[self.span(addr, buf.len())?]);
        Ok(())
    }

    fn write(&mut self, addr: Paddr, buf: &[u8]) -> Result<(), MemError> {
        let span = self.span(addr, buf.len())?;
        self.bytes[span].copy_from_slice(buf);
        Ok(())
    }

    fn copy(&mut self, src: Paddr, dst: Paddr, len: usize) -> Result<(), MemError> {
        let from = self.span(src, len)?;
        let to = self.span(dst, len)?;
        self.bytes.copy_within(from, to.start);
        Ok(())
    }

    fn zero_frame(&mut self, pfn: Pfn) -> Result<(), MemError> {
        let frame = self.frame(pfn)?;
        self.bytes[frame].fill(0);
        Ok(())
    }

    fn share_in(&mut self, pfn: Pfn, image: &PageImage) -> Result<(), MemError> {
        let frame = self.frame(pfn)?;
        self.bytes[frame].copy_from_slice(&image[..]);
        Ok(())
    }

    fn image_of(&self, pfn: Pfn) -> Result<PageImage, MemError> {
        let mut page = [0u8; PAGE];
        page.copy_from_slice(&self.bytes[self.frame(pfn)?]);
        Ok(PageImage::new(page))
    }
}

/// Frames per memory: few, so shared images meet often.
const FRAMES: usize = 8;
/// Images in the pool at most.
const POOL: usize = 4;

/// `len` bytes of a pattern drawn from `rng`.
fn noise(rng: &mut FaultRng, len: usize) -> Vec<u8> {
    let word = rng.next_u64().to_le_bytes();
    (0..len).map(|i| word[i % 8] ^ (i / 8) as u8).collect()
}

/// Drive a fresh `PhysMem` and the model through `steps` random
/// operations from `seed` and require the same result from each call,
/// the same bytes in every frame and untouched pooled images after every
/// step. Addresses and frame numbers reach one page past the end, so the
/// errors are compared too.
pub fn assert_matches_model(seed: u64, steps: usize) {
    let mut fast = PhysMem::new(FRAMES);
    let mut model = Model::new(FRAMES);
    let mut rng = FaultRng::new(seed);
    // Each image, beside a copy of the bytes it was made with.
    let mut pool: Vec<(PageImage, Vec<u8>)> = Vec::new();
    let end = (FRAMES * PAGE) as u64;
    for step in 0..steps {
        let addr = Paddr(rng.below(end + PAGE as u64) as u32);
        let pfn = Pfn(rng.below(FRAMES as u64 + 1) as u32);
        // Up to two pages, so a write or read often crosses a frame.
        let len = 1 + rng.below(2 * PAGE as u64) as usize;
        let op = rng.below(8);
        match op {
            0 | 1 => {
                let bytes = noise(&mut rng, len);
                assert_eq!(fast.write(addr, &bytes), model.write(addr, &bytes));
            }
            2 => {
                let v = rng.next_u64() as u32;
                let got = fast.write_u32(addr, v);
                assert_eq!(got, model.write(addr, &v.to_le_bytes()));
            }
            3 => {
                let (mut got, mut want) = (vec![1u8; len], vec![1u8; len]);
                assert_eq!(fast.read(addr, &mut got), model.read(addr, &mut want));
                assert!(got == want, "seed {seed} step {step}: read {addr:?}+{len}");
            }
            4 => assert_eq!(fast.zero_frame(pfn), model.zero_frame(pfn)),
            5 => {
                let dst = Paddr(rng.below(end) as u32);
                assert_eq!(fast.copy(addr, dst, len), model.copy(addr, dst, len));
            }
            6 => {
                if pool.is_empty() || (pool.len() < POOL && rng.chance(250)) {
                    let bytes = noise(&mut rng, PAGE);
                    let mut page = [0u8; PAGE];
                    page.copy_from_slice(&bytes);
                    pool.push((PageImage::new(page), bytes));
                }
                let (image, _) = &pool[rng.below(pool.len() as u64) as usize];
                assert_eq!(fast.share_in(pfn, image), model.share_in(pfn, image));
            }
            _ => match (fast.image_of(pfn), model.image_of(pfn)) {
                (Ok(image), Ok(want)) => {
                    assert!(
                        image[..] == want[..],
                        "seed {seed} step {step}: image_of {pfn:?}"
                    );
                    let entry = (image, want.to_vec());
                    match pool.len() {
                        POOL => pool[rng.below(POOL as u64) as usize] = entry,
                        _ => pool.push(entry),
                    }
                }
                (got, want) => assert_eq!(got.err(), want.err()),
            },
        }
        let mut frames = vec![0u8; FRAMES * PAGE];
        fast.read(Paddr(0), &mut frames).unwrap();
        if frames != model.bytes {
            let at = frames.iter().zip(&model.bytes).position(|(a, b)| a != b);
            panic!(
                "seed {seed} step {step} (op {op}): frames differ from the model at byte {:#x}",
                at.unwrap_or_default()
            );
        }
        for (n, (image, bytes)) in pool.iter().enumerate() {
            assert!(
                image[..] == bytes[..],
                "seed {seed} step {step} (op {op}): pooled image {n} changed under a write"
            );
        }
    }
}
