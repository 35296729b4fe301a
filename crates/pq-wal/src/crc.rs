//! CRC-32 (IEEE 802.3 polynomial), the checksum framing every WAL record
//! and checkpoint file with. Slicing-by-8 (Kounavis & Berry): eight
//! 256-entry tables, computed at first use, fold eight bytes per step with
//! eight independent lookups instead of a chain of eight dependent ones.
//! A restart checksums the newest checkpoint and the whole retained log,
//! so this loop is most of what recovery spends on bytes it only reads.
//!
//! The polynomial is the ubiquitous reflected `0xEDB88320` — the same CRC
//! zlib, PNG and Ethernet use — so the standard check value holds:
//! `crc32(b"123456789") == 0xCBF4_3926`.

use std::sync::OnceLock;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        for k in 1..8 {
            let (done, rest) = tables.split_at_mut(k);
            for (entry, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *entry = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// A streaming CRC-32 state: feed byte slices, then [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = tables();
        let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = crc ^ u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
            let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
            crc = t[7][byte(lo, 0)]
                ^ t[6][byte(lo, 8)]
                ^ t[5][byte(lo, 16)]
                ^ t[4][byte(lo, 24)]
                ^ t[3][byte(hi, 0)]
                ^ t[2][byte(hi, 8)]
                ^ t[1][byte(hi, 16)]
                ^ t[0][byte(hi, 24)];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
        }
        self.state = crc;
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 of one contiguous byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut streaming = Crc32::new();
        streaming.update(b"hello ");
        streaming.update(b"world");
        assert_eq!(streaming.finish(), crc32(b"hello world"));
    }

    #[test]
    fn eight_byte_steps_match_the_bytewise_definition() {
        // The bit-at-a-time definition, independent of every table.
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                }
            }
            !crc
        }
        let bytes: Vec<u8> = (0u32..300).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        // Every length around the 8-byte step, and streaming splits that
        // leave the state mid-word.
        for len in 0..bytes.len() {
            assert_eq!(crc32(&bytes[..len]), reference(&bytes[..len]), "length {len}");
        }
        for split in 0..40 {
            let mut streaming = Crc32::new();
            streaming.update(&bytes[..split]);
            streaming.update(&bytes[split..]);
            assert_eq!(streaming.finish(), reference(&bytes), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut bytes = b"the wal record payload".to_vec();
        let clean = crc32(&bytes);
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), clean, "bit {i} flip went undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }
}
