//! The persistent block store behind the write cache.
//!
//! Stores a [`BlockImage`] per logical block. File-system tests write
//! real bytes; raw block benchmarks use cheap tags, and integrity runs
//! store each [`rio_proto::payload`] block as its 8-byte seed, so a
//! simulated multi-gigabyte run costs megabytes of host memory. A
//! payload block becomes real bytes only when it is damaged (a torn
//! write or bit rot) or read back.
//!
//! With end-to-end integrity on, every block that lands on media is
//! *sealed*: the store records the CRC-32C of the intended image next
//! to whatever bytes actually landed. A torn write (partial image,
//! intended seal) or at-rest bit rot (mutated image, original seal)
//! leaves the two inconsistent, which is exactly what a recovery scrub
//! checks for.

use rio_proto::crc32c;
use rio_proto::payload::{self, BLOCK_BYTES};
use rio_sim::FxHashMap;

/// Contents of one 4 KB block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockImage {
    /// Never written (reads back as zeroes).
    Zero,
    /// A benchmark write identified by a token instead of real bytes.
    Tag(u64),
    /// Real data (file-system paths, and damaged payload blocks).
    Bytes(Box<[u8]>),
    /// A [`rio_proto::payload`] block held as its seed; its bytes are
    /// [`payload::fill_block`] of the seed.
    Payload(u64),
}

impl BlockImage {
    /// Materialises the block into `out`, whose length is the block
    /// size: shorter images are zero-padded, longer ones truncated.
    pub fn fill_bytes(&self, out: &mut [u8]) {
        match self {
            BlockImage::Zero => out.fill(0),
            BlockImage::Tag(t) => copy_padded(&t.to_le_bytes(), out),
            BlockImage::Bytes(b) => copy_padded(b, out),
            BlockImage::Payload(seed) if out.len() == BLOCK_BYTES => {
                payload::fill_block(*seed, out)
            }
            BlockImage::Payload(seed) => {
                let mut block = [0u8; BLOCK_BYTES];
                payload::fill_block(*seed, &mut block);
                copy_padded(&block, out);
            }
        }
    }

    /// Materialises the block as bytes of length `block_size`.
    pub fn to_bytes(&self, block_size: usize) -> Vec<u8> {
        let mut v = vec![0; block_size];
        self.fill_bytes(&mut v);
        v
    }

    /// CRC-32C of the block's 4 KB image: the seal a clean media
    /// landing records. Allocates nothing.
    pub fn seal(&self) -> u32 {
        match self {
            BlockImage::Payload(seed) => payload::seal_for(*seed),
            BlockImage::Bytes(b) if b.len() == BLOCK_BYTES => crc32c(b),
            _ => {
                let mut block = [0u8; BLOCK_BYTES];
                self.fill_bytes(&mut block);
                crc32c(&block)
            }
        }
    }
}

/// Copies the prefix of `src` that fits into `out` and zeroes the rest.
fn copy_padded(src: &[u8], out: &mut [u8]) {
    let n = src.len().min(out.len());
    out[..n].copy_from_slice(&src[..n]);
    out[n..].fill(0);
}

/// A sparse persistent store of block images with write versioning.
///
/// Lives on the per-write hot path (every accepted block lands here
/// once in the logical image and once on media), so the map uses the
/// simulator's fast deterministic hasher.
#[derive(Debug, Default, Clone)]
pub struct BlockStore {
    blocks: FxHashMap<u64, (u64, BlockImage)>,
    /// Intended-content CRC-32C per sealed block (integrity runs only;
    /// empty — and cost-free — otherwise).
    seals: FxHashMap<u64, u32>,
    next_version: u64,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Writes one block, returning its new version number. An unsealed
    /// write drops any stale seal: the recorded checksum always belongs
    /// to the last write.
    pub fn write(&mut self, lba: u64, image: BlockImage) -> u64 {
        self.next_version += 1;
        let v = self.next_version;
        self.blocks.insert(lba, (v, image));
        if !self.seals.is_empty() {
            self.seals.remove(&lba);
        }
        v
    }

    /// Writes one block together with the CRC-32C of its *intended*
    /// image. Callers landing clean data pass the checksum of `image`
    /// itself; a torn-write injection passes the intended checksum next
    /// to the partial bytes that actually hit media.
    pub fn write_sealed(&mut self, lba: u64, image: BlockImage, seal: u32) -> u64 {
        let v = self.write(lba, image);
        self.seals.insert(lba, seal);
        v
    }

    /// The recorded seal of `lba`, if the block was written sealed.
    pub fn seal(&self, lba: u64) -> Option<u32> {
        self.seals.get(&lba).copied()
    }

    /// Every sealed block address, ascending (a deterministic scrub
    /// order).
    pub fn sealed_lbas(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.seals.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Flips one bit of the stored image of `lba` without touching its
    /// seal (at-rest bit rot). Returns `false` when the block holds no
    /// data. `bit` indexes into the materialised `block_size`-byte
    /// image.
    pub fn flip_bit(&mut self, lba: u64, bit: usize, block_size: usize) -> bool {
        let Some((_, img)) = self.blocks.get_mut(&lba) else {
            return false;
        };
        let mut bytes = img.to_bytes(block_size);
        bytes[bit / 8] ^= 1 << (bit % 8);
        *img = BlockImage::Bytes(bytes.into_boxed_slice());
        true
    }

    /// Reads one block (unwritten blocks read back as [`BlockImage::Zero`]).
    pub fn read(&self, lba: u64) -> BlockImage {
        self.blocks
            .get(&lba)
            .map(|(_, img)| img.clone())
            .unwrap_or(BlockImage::Zero)
    }

    /// Materialises one block into `out` (see [`BlockImage::fill_bytes`])
    /// without cloning its image; unwritten blocks read back as zeroes.
    pub fn read_into(&self, lba: u64, out: &mut [u8]) {
        match self.blocks.get(&lba) {
            Some((_, img)) => img.fill_bytes(out),
            None => out.fill(0),
        }
    }

    /// The version of the last write to `lba` (0 when never written).
    pub fn version(&self, lba: u64) -> u64 {
        self.blocks.get(&lba).map(|(v, _)| *v).unwrap_or(0)
    }

    /// Erases `count` blocks starting at `lba` (recovery roll-back /
    /// TRIM). Seals go with their blocks.
    pub fn discard(&mut self, lba: u64, count: u64) {
        for b in lba..lba + count {
            self.blocks.remove(&b);
            if !self.seals.is_empty() {
                self.seals.remove(&b);
            }
        }
    }

    /// Number of written blocks.
    pub fn written_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let s = BlockStore::new();
        assert_eq!(s.read(42), BlockImage::Zero);
        assert_eq!(s.version(42), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = BlockStore::new();
        let v1 = s.write(1, BlockImage::Tag(7));
        assert_eq!(s.read(1), BlockImage::Tag(7));
        let v2 = s.write(1, BlockImage::Tag(8));
        assert!(v2 > v1, "versions increase");
        assert_eq!(s.read(1), BlockImage::Tag(8));
    }

    #[test]
    fn bytes_round_trip() {
        let mut s = BlockStore::new();
        let data: Box<[u8]> = vec![0xAB; 4096].into_boxed_slice();
        s.write(5, BlockImage::Bytes(data.clone()));
        assert_eq!(s.read(5), BlockImage::Bytes(data));
    }

    #[test]
    fn discard_erases_range() {
        let mut s = BlockStore::new();
        for lba in 0..10 {
            s.write(lba, BlockImage::Tag(lba));
        }
        s.discard(2, 3);
        assert_eq!(s.read(1), BlockImage::Tag(1));
        assert_eq!(s.read(2), BlockImage::Zero);
        assert_eq!(s.read(4), BlockImage::Zero);
        assert_eq!(s.read(5), BlockImage::Tag(5));
        assert_eq!(s.written_blocks(), 7);
    }

    #[test]
    fn sealed_write_records_and_clears_checksums() {
        let mut s = BlockStore::new();
        s.write_sealed(3, BlockImage::Tag(9), 0xDEAD_BEEF);
        assert_eq!(s.seal(3), Some(0xDEAD_BEEF));
        assert_eq!(s.sealed_lbas(), vec![3]);
        // An unsealed overwrite drops the stale seal.
        s.write(3, BlockImage::Tag(10));
        assert_eq!(s.seal(3), None);
        assert!(s.sealed_lbas().is_empty());
    }

    #[test]
    fn discard_takes_seals_with_it() {
        let mut s = BlockStore::new();
        s.write_sealed(5, BlockImage::Tag(1), 7);
        s.write_sealed(6, BlockImage::Tag(2), 8);
        s.discard(5, 1);
        assert_eq!(s.seal(5), None);
        assert_eq!(s.seal(6), Some(8));
    }

    #[test]
    fn flip_bit_mutates_image_but_not_seal() {
        let mut s = BlockStore::new();
        let clean = BlockImage::Tag(0xFF).to_bytes(64);
        s.write_sealed(1, BlockImage::Tag(0xFF), 123);
        assert!(s.flip_bit(1, 9, 64));
        let rotten = s.read(1).to_bytes(64);
        assert_ne!(clean, rotten);
        assert_eq!(clean[1] ^ 2, rotten[1], "exactly bit 9 flipped");
        assert_eq!(s.seal(1), Some(123), "seal untouched by rot");
        assert!(!s.flip_bit(99, 0, 64), "absent block cannot rot");
    }

    #[test]
    fn payload_image_materialises_its_seed_block() {
        let seed = payload::seed_for(2, 40, 9);
        assert_eq!(
            BlockImage::Payload(seed).to_bytes(BLOCK_BYTES),
            payload::block_for(seed).to_vec()
        );
    }

    #[test]
    fn payload_image_pads_or_truncates_like_bytes() {
        let seed = payload::seed_for(1, 2, 3);
        let bytes = BlockImage::Bytes(payload::block_for(seed));
        for size in [0, 5, 64, BLOCK_BYTES - 1, BLOCK_BYTES + 100] {
            assert_eq!(
                BlockImage::Payload(seed).to_bytes(size),
                bytes.to_bytes(size),
                "block size {size}"
            );
        }
    }

    #[test]
    fn seal_is_the_crc_of_the_4k_image() {
        for img in [
            BlockImage::Zero,
            BlockImage::Tag(0xABCD),
            BlockImage::Bytes(vec![7; 100].into_boxed_slice()),
            BlockImage::Bytes(vec![9; BLOCK_BYTES].into_boxed_slice()),
            BlockImage::Payload(11),
        ] {
            assert_eq!(img.seal(), crc32c(&img.to_bytes(BLOCK_BYTES)), "{img:?}");
        }
    }

    #[test]
    fn flip_bit_on_payload_yields_bytes_with_one_bit_changed() {
        let seed = payload::seed_for(0, 5, 6);
        let clean = payload::block_for(seed);
        let mut s = BlockStore::new();
        s.write_sealed(4, BlockImage::Payload(seed), payload::seal_for(seed));
        assert!(s.flip_bit(4, 8 * 1000 + 5, BLOCK_BYTES));
        let BlockImage::Bytes(rotten) = s.read(4) else {
            panic!("a rotted payload block is stored as bytes");
        };
        let diff: u32 = clean
            .iter()
            .zip(rotten.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit changed");
        assert_eq!(clean[1000] ^ rotten[1000], 1 << 5);
        assert_eq!(s.seal(4), Some(payload::seal_for(seed)), "seal kept");
    }

    #[test]
    fn read_into_matches_read_and_zeroes_unwritten() {
        let mut s = BlockStore::new();
        s.write(1, BlockImage::Payload(77));
        let mut buf = [0xEEu8; BLOCK_BYTES];
        s.read_into(1, &mut buf);
        assert_eq!(buf.to_vec(), s.read(1).to_bytes(BLOCK_BYTES));
        s.read_into(2, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn to_bytes_materialisation() {
        assert_eq!(BlockImage::Zero.to_bytes(8), vec![0; 8]);
        let tag = BlockImage::Tag(0x0102).to_bytes(16);
        assert_eq!(tag[0], 0x02);
        assert_eq!(tag[1], 0x01);
        let short = BlockImage::Bytes(vec![9, 9].into_boxed_slice()).to_bytes(4);
        assert_eq!(short, vec![9, 9, 0, 0]);
    }
}
