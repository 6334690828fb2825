//! Shared checksum implementations and the per-command payload digest.
//!
//! One audited home for every cyclic-redundancy check the stack uses:
//!
//! * [`crc16`] — CRC-16/CCITT-FALSE, the 32-byte PMR record body
//!   checksum (torn-write detection on the persistent ordering log,
//!   §4.3.2). Chosen over Fletcher-16, whose mod-255 arithmetic cannot
//!   distinguish 0x00 from 0xFF bytes — exactly the corruption a torn
//!   write of a zero-filled slot produces.
//! * [`crc32c`] — CRC-32C (Castagnoli), the payload checksum used for
//!   per-command digests on the wire and per-block seals on media.
//!   Castagnoli is what NVMe end-to-end protection and iSCSI use. The
//!   implementation is slicing-by-8: eight compile-time 256-entry
//!   tables fold eight input bytes per step with eight independent
//!   lookups, so sealing a 4 KB block costs 512 steps rather than 4096
//!   dependent byte lookups. It is portable safe Rust; a hardware
//!   `crc32` instruction would need `std::arch` intrinsics and
//!   `unsafe`, which this workspace forbids.
//!
//! [`PayloadDigest`] wraps a CRC-32C over a command's payload and is
//! stamped at submission when the cluster runs with integrity checking
//! enabled; the zero value doubles as the "integrity off" sentinel so
//! untouched commands carry no digest state.

/// CRC-16/CCITT-FALSE over `data` (init `0xFFFF`, poly `0x1021`, no
/// reflection, no final xor).
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// Reflected CRC-32C (Castagnoli) slicing-by-8 tables. Row 0 is the
/// classic byte-at-a-time table; row `k` advances a byte through `k`
/// further zero bytes, so one step can fold eight bytes at once.
const CRC32C_TABLES: [[u32; 256]; 8] = build_crc32c_tables();

const fn build_crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds `data` into a running CRC-32C state (use [`crc32c`] for the
/// one-shot form). The state is the raw shift-register value: start
/// from `!0` and invert the final state yourself, or let the wrappers
/// do it.
pub fn crc32c_update(state: u32, data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32C (Castagnoli) over `data` — reflected, init `!0`, final xor
/// `!0`; the check value of `"123456789"` is `0xE3069283`.
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_update(!0, data)
}

/// A CRC-32C digest over one command's payload bytes, stamped at
/// submission and carried with the command so the receiver can verify
/// what the fabric delivered.
///
/// The zero digest is the "no digest" sentinel commands carry when the
/// cluster runs without integrity checking — stamping and verification
/// are both skipped, so the integrity machinery is free when off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PayloadDigest(pub u32);

impl PayloadDigest {
    /// The sentinel carried by commands of integrity-off runs.
    pub const NONE: PayloadDigest = PayloadDigest(0);

    /// Whether this is the integrity-off sentinel.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }

    /// Digest over a sequence of per-block payload seeds (the compact
    /// wire form: each 4 KB block is generated from its 8-byte seed,
    /// so the command digest covers the seeds in order).
    pub fn over_seeds<I: IntoIterator<Item = u64>>(seeds: I) -> Self {
        let mut state = !0u32;
        for seed in seeds {
            state = crc32c_update(state, &seed.to_le_bytes());
        }
        PayloadDigest(!state)
    }

    /// One-shot digest over raw payload bytes.
    pub fn over_bytes(data: &[u8]) -> Self {
        PayloadDigest(crc32c(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_check_value() {
        // CRC-16/CCITT-FALSE standard check input.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn crc32c_check_value() {
        // CRC-32C (Castagnoli) standard check input.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    /// Bit-at-a-time CRC-32C, independent of the lookup tables.
    fn crc32c_update_reference(state: u32, data: &[u8]) -> u32 {
        let mut crc = state;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0x82F6_3B78
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    #[test]
    fn crc32c_rfc3720_iscsi_vectors() {
        // RFC 3720 §B.4 CRC examples.
        assert_eq!(crc32c(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn crc32c_matches_reference_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for offset in 0..8 {
            for len in 0..=67 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32c_update(!0, data),
                    crc32c_update_reference(!0, data),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32c_update_composes_at_every_split() {
        let data: Vec<u8> = (0..67u32).map(|i| (i * 151 + 7) as u8).collect();
        let whole = crc32c_update_reference(!0, &data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32c_update(crc32c_update(!0, a), b), whole, "cut {cut}");
        }
    }

    #[test]
    fn crc32c_update_composes() {
        let whole = crc32c(b"hello world");
        let split = !crc32c_update(crc32c_update(!0, b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn crc32c_detects_single_bit_flips() {
        let mut block = vec![0u8; 4096];
        block[17] = 0xA5;
        let good = crc32c(&block);
        for bit in [0usize, 8 * 17 + 3, 8 * 4095 + 7] {
            let mut bad = block.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&bad), good, "bit {bit} undetected");
        }
    }

    #[test]
    fn crc16_position_sensitive() {
        assert_ne!(crc16(&[1, 2, 3]), crc16(&[3, 2, 1]));
        assert_ne!(crc16(&[0x00, 1]), crc16(&[0xff, 1]));
    }

    #[test]
    fn digest_sentinel_and_seed_form() {
        assert!(PayloadDigest::NONE.is_none());
        let d1 = PayloadDigest::over_seeds([1u64, 2, 3]);
        let d2 = PayloadDigest::over_seeds([1u64, 2, 3]);
        let d3 = PayloadDigest::over_seeds([1u64, 3, 2]);
        assert_eq!(d1, d2);
        assert_ne!(d1, d3, "seed order matters");
        assert!(!d1.is_none());
        // The seed form is the CRC over the concatenated LE bytes.
        let mut bytes = Vec::new();
        for s in [1u64, 2, 3] {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        assert_eq!(d1, PayloadDigest::over_bytes(&bytes));
    }
}
