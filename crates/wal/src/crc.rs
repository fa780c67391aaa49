//! CRC-32 (IEEE 802.3 polynomial), implemented locally so the WAL has no
//! external codec dependency.
//!
//! A table-driven, byte-at-a-time implementation — entirely adequate for
//! the record sizes a commit protocol writes, and byte-for-byte
//! compatible with the ubiquitous `crc32` used by zlib/gzip (checked
//! against published test vectors below).

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Lazily built 256-entry lookup table.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        t
    })
}

/// CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = table();
    let mut state = 0xFFFF_FFFF_u32;
    for &b in bytes {
        state = t[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published CRC-32/ISO-HDLC ("zlib") test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        data[10] = 0x42;
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), good, "undetected flip at {byte}:{bit}");
            }
        }
    }
}
