//! IEEE CRC-32 (the zlib/PNG polynomial), table-driven and dependency-free.
//!
//! Every checkpoint section (header and payload) carries a CRC so a torn
//! write, a flipped bit, or a truncated file is detected *before* any field
//! is interpreted. The table is built at compile time.

const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC-32 of `bytes` (IEEE reflected polynomial, init `!0`, final xor `!0`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"symi checkpoint payload");
        let b = crc32(b"symi checkpoint paylobd");
        assert_ne!(a, b);
    }
}
