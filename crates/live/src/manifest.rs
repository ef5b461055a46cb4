//! Persisted manifests and per-block run checksums: the durable half of
//! live datasets.
//!
//! A durable [`LiveDataset`](crate::LiveDataset) keeps, on its own device,
//! a description of its last *published* persisted state — the base run
//! and every delta run, each with per-block FNV-1a checksums of its pages
//! — so that a restart from a device snapshot can rebuild exactly that
//! state and *prove* it did (a torn or corrupted run fails its checksum).
//!
//! Two on-device structures cooperate, both written by
//! [`LiveDataset::write_manifest`](crate::LiveDataset::write_manifest):
//!
//! * the **manifest body** ([`Manifest`]) — generation, run descriptors,
//!   bounding boxes and checksums, trailed by a whole-body FNV-1a — is
//!   written to *freshly allocated* pages every time. A crash may tear
//!   this multi-page write harmlessly: nothing points at the torn copy.
//! * the **root pointer** ([`RootPointer`]) — one fixed page holding the
//!   location of the current manifest body plus its own FNV-1a — is
//!   updated with a single-page write, which is atomic under the device's
//!   torn-write model (only multi-page writes tear). The root write is
//!   therefore the *commit point*: recovery reads the root, follows it to
//!   a manifest that is either entirely the old or entirely the new one,
//!   and verifies every checksum on the way up.
//!
//! Everything here is plain byte encoding and hashing; the recovery
//! policy (verify the base hard, roll torn deltas back) lives on
//! [`LiveDataset::recover`](crate::LiveDataset::recover).

use usj_core::SnapshotRun;
use usj_geom::{Point, Rect};
use usj_io::stream::ITEMS_PER_PAGE;
use usj_io::{ItemStream, PageId, SimEnv, PAGE_SIZE};

use crate::{LiveError, Result};

/// Magic tag of the root pointer page.
const ROOT_MAGIC: u64 = 0x5553_4a52_4f4f_5431; // "USJROOT1"
/// Magic tag of a manifest body.
const MANIFEST_MAGIC: u64 = 0x5553_4a4d_414e_4931; // "USJMANI1"
/// Encoding version of both structures.
const VERSION: u64 = 1;

/// 64-bit FNV-1a over a byte slice — the checksum used for manifest
/// bodies, root pointers and run blocks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Computes the per-block checksums of a persisted run by reading its
/// pages back from the device (charged I/O — this is deliberate
/// verify-after-write).
///
/// Block `i` hashes the page-resident bytes of extent `i`, zero padding
/// included, so a later re-read that produces different bytes — a torn
/// write's zero tail, silent corruption — fails the comparison.
pub fn run_checksums(env: &mut SimEnv, stream: &ItemStream) -> usj_io::Result<Vec<u64>> {
    let items_per_block = stream.pages_per_block() * ITEMS_PER_PAGE as u64;
    let mut remaining = stream.len();
    let mut checksums = Vec::with_capacity(stream.extents().len());
    let mut buf = Vec::new();
    for &first in stream.extents() {
        let in_block = remaining.min(items_per_block);
        let pages = in_block.div_ceil(ITEMS_PER_PAGE as u64);
        env.device.read_pages_into(first, pages, &mut buf)?;
        checksums.push(fnv1a(&buf));
        remaining -= in_block;
    }
    Ok(checksums)
}

/// One persisted run as recorded in a manifest: the stream descriptor with
/// its bounding box, and one checksum per extent block.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run (page identifiers on this device) and its bounding box.
    pub run: SnapshotRun,
    /// Per-block FNV-1a checksums, one per extent.
    pub checksums: Vec<u64>,
}

impl RunRecord {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let desc = self.run.stream().encode();
        buf.extend_from_slice(&(desc.len() as u64).to_le_bytes());
        buf.extend_from_slice(&desc);
        let bbox = self.run.bbox();
        for c in [bbox.lo.x, bbox.lo.y, bbox.hi.x, bbox.hi.y] {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        buf.extend_from_slice(&(self.checksums.len() as u64).to_le_bytes());
        for c in &self.checksums {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode_from(buf: &[u8], off: &mut usize) -> Result<RunRecord> {
        let desc_len = read_u64(buf, off)? as usize;
        let desc = buf
            .get(*off..*off + desc_len)
            .ok_or_else(|| LiveError::Corrupted("run record truncated".into()))?;
        let (stream, consumed) = ItemStream::decode(desc)
            .map_err(|e| LiveError::Corrupted(format!("run descriptor: {e}")))?;
        if consumed != desc_len {
            return Err(LiveError::Corrupted("run descriptor length mismatch".into()));
        }
        *off += desc_len;
        let mut coords = [0f32; 4];
        for c in coords.iter_mut() {
            let bytes = buf
                .get(*off..*off + 4)
                .ok_or_else(|| LiveError::Corrupted("run bbox truncated".into()))?;
            *c = f32::from_le_bytes(bytes.try_into().expect("checked length"));
            *off += 4;
        }
        // Constructed as a literal: the empty-rect sentinel (`lo > hi`)
        // must round-trip, which `Rect::new`'s ordering assert would reject.
        let bbox = Rect {
            lo: Point::new(coords[0], coords[1]),
            hi: Point::new(coords[2], coords[3]),
        };
        let count = read_u64(buf, off)? as usize;
        if count != stream.extents().len() {
            return Err(LiveError::Corrupted("checksum count mismatch".into()));
        }
        let mut checksums = Vec::with_capacity(count);
        for _ in 0..count {
            checksums.push(read_u64(buf, off)?);
        }
        Ok(RunRecord {
            run: SnapshotRun::new(stream, bbox),
            checksums,
        })
    }
}

/// The manifest body: the complete published persisted state of one live
/// dataset at one generation.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Generation at the time of the write.
    pub generation: u64,
    /// The base run.
    pub base: RunRecord,
    /// Delta runs, oldest first.
    pub deltas: Vec<RunRecord>,
}

impl Manifest {
    /// Serializes the manifest, trailed by a whole-body FNV-1a.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.generation.to_le_bytes());
        buf.extend_from_slice(&(self.deltas.len() as u64).to_le_bytes());
        self.base.encode_into(&mut buf);
        for d in &self.deltas {
            d.encode_into(&mut buf);
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes and integrity-checks a manifest produced by
    /// [`encode`](Manifest::encode).
    pub fn decode(buf: &[u8]) -> Result<Manifest> {
        if buf.len() < 40 {
            return Err(LiveError::Corrupted("manifest truncated".into()));
        }
        let (body, trailer) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("checked length"));
        if fnv1a(body) != stored {
            return Err(LiveError::Corrupted("manifest checksum mismatch".into()));
        }
        let mut off = 0usize;
        if read_u64(body, &mut off)? != MANIFEST_MAGIC {
            return Err(LiveError::Corrupted("manifest magic mismatch".into()));
        }
        if read_u64(body, &mut off)? != VERSION {
            return Err(LiveError::Corrupted("manifest version unsupported".into()));
        }
        let generation = read_u64(body, &mut off)?;
        let delta_count = read_u64(body, &mut off)? as usize;
        let base = RunRecord::decode_from(body, &mut off)?;
        let mut deltas = Vec::with_capacity(delta_count);
        for _ in 0..delta_count {
            deltas.push(RunRecord::decode_from(body, &mut off)?);
        }
        Ok(Manifest { generation, base, deltas })
    }
}

/// The root pointer: the single-page commit record locating the current
/// manifest body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootPointer {
    /// Monotonic write counter (each manifest write bumps it).
    pub epoch: u64,
    /// First page of the manifest body.
    pub first: PageId,
    /// Pages the body occupies.
    pub pages: u64,
    /// Meaningful bytes of the body (the tail of the last page is padding).
    pub bytes: u64,
}

impl RootPointer {
    /// Serializes the pointer into one page-sized buffer (self-checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        buf.extend_from_slice(&ROOT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.first.to_le_bytes());
        buf.extend_from_slice(&self.pages.to_le_bytes());
        buf.extend_from_slice(&self.bytes.to_le_bytes());
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes and integrity-checks a root pointer page.
    pub fn decode(page: &[u8]) -> Result<RootPointer> {
        if page.len() < 56 {
            return Err(LiveError::Corrupted("root pointer truncated".into()));
        }
        let stored = u64::from_le_bytes(page[48..56].try_into().expect("checked length"));
        if fnv1a(&page[..48]) != stored {
            return Err(LiveError::Corrupted("root pointer checksum mismatch".into()));
        }
        let mut off = 0usize;
        if read_u64(page, &mut off)? != ROOT_MAGIC {
            return Err(LiveError::Corrupted("root pointer magic mismatch".into()));
        }
        if read_u64(page, &mut off)? != VERSION {
            return Err(LiveError::Corrupted("root pointer version unsupported".into()));
        }
        Ok(RootPointer {
            epoch: read_u64(page, &mut off)?,
            first: read_u64(page, &mut off)?,
            pages: read_u64(page, &mut off)?,
            bytes: read_u64(page, &mut off)?,
        })
    }
}

fn read_u64(buf: &[u8], off: &mut usize) -> Result<u64> {
    let bytes = buf
        .get(*off..*off + 8)
        .ok_or_else(|| LiveError::Corrupted("record truncated".into()))?;
    *off += 8;
    Ok(u64::from_le_bytes(bytes.try_into().expect("checked length")))
}

/// Builds a run record for a stream already on `env`'s device, computing
/// its checksums by read-back.
pub fn record_run(env: &mut SimEnv, stream: &ItemStream, bbox: Rect) -> Result<RunRecord> {
    let checksums = run_checksums(env, stream)?;
    Ok(RunRecord {
        run: SnapshotRun::new(stream.clone(), bbox),
        checksums,
    })
}

/// Verifies a recorded run against the device: recomputes every block
/// checksum and compares. `Ok(true)` means intact.
pub fn verify_run(env: &mut SimEnv, record: &RunRecord) -> Result<bool> {
    let fresh = run_checksums(env, record.run.stream())?;
    Ok(fresh == record.checksums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Item;
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn items(n: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Item::new(Rect::from_coords(f, f, f + 1.0, f + 1.0), i)
            })
            .collect()
    }

    #[test]
    fn manifest_roundtrip_preserves_everything() {
        let mut env = env();
        let base = ItemStream::from_items_with_block(&mut env, &items(300), 2).unwrap();
        let delta = ItemStream::from_items_with_block(&mut env, &items(40), 2).unwrap();
        let m = Manifest {
            generation: 17,
            base: record_run(&mut env, &base, Rect::from_coords(0.0, 0.0, 9.0, 9.0)).unwrap(),
            deltas: vec![record_run(&mut env, &delta, Rect::empty()).unwrap()],
        };
        let blob = m.encode();
        let back = Manifest::decode(&blob).unwrap();
        assert_eq!(back.generation, 17);
        assert_eq!(back.base.run.stream().len(), 300);
        assert_eq!(back.base.checksums, m.base.checksums);
        assert_eq!(back.base.run.bbox(), m.base.run.bbox());
        assert_eq!(back.deltas.len(), 1);
        assert!(back.deltas[0].run.bbox().is_empty(), "empty bbox must round-trip");
        assert!(verify_run(&mut env, &back.base).unwrap());
        assert!(verify_run(&mut env, &back.deltas[0]).unwrap());
    }

    #[test]
    fn manifest_rejects_bit_flips_anywhere() {
        let mut env = env();
        let base = ItemStream::from_items_with_block(&mut env, &items(50), 2).unwrap();
        let m = Manifest {
            generation: 1,
            base: record_run(&mut env, &base, Rect::from_coords(0.0, 0.0, 1.0, 1.0)).unwrap(),
            deltas: Vec::new(),
        };
        let blob = m.encode();
        for pos in [0, 8, blob.len() / 2, blob.len() - 1] {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(Manifest::decode(&bad), Err(LiveError::Corrupted(_))),
                "flip at {pos} must be caught"
            );
        }
        assert!(Manifest::decode(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn root_pointer_roundtrip_and_corruption_detection() {
        let root = RootPointer { epoch: 3, first: 99, pages: 2, bytes: 12_345 };
        let page = root.encode();
        assert!(page.len() <= PAGE_SIZE, "root must fit one page");
        assert_eq!(RootPointer::decode(&page).unwrap(), root);
        let mut bad = page.clone();
        bad[20] ^= 1;
        assert!(matches!(RootPointer::decode(&bad), Err(LiveError::Corrupted(_))));
        // A zeroed page (never-written root) is rejected, not misparsed.
        assert!(RootPointer::decode(&vec![0u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn run_checksums_detect_a_torn_tail() {
        let mut env = env();
        // Two-page blocks: a multi-page run where a torn write zeroes the
        // tail of a block changes that block's checksum and only that one.
        let stream =
            ItemStream::from_items_with_block(&mut env, &items(ITEMS_PER_PAGE as u32 * 6), 2)
                .unwrap();
        let before = run_checksums(&mut env, &stream).unwrap();
        assert_eq!(before.len(), stream.extents().len());
        // Simulate silent damage: zero one page of the second block.
        let victim = stream.extents()[1];
        env.device.write_page(victim + 1, &[]).unwrap();
        let after = run_checksums(&mut env, &stream).unwrap();
        assert_ne!(before[1], after[1]);
        assert_eq!(before[0], after[0]);
        assert_eq!(before[2], after[2]);
    }
}
