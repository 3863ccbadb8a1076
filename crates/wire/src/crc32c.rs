//! CRC32C (Castagnoli) — the stronger integrity check the Internet
//! checksum was never meant to be.
//!
//! The paper's goal list ranks accountability and integrity low, and the
//! wire format shows it: the 16-bit one's-complement checksum cannot see
//! word transpositions, cancelling word pairs, or the 0x0000/0xFFFF
//! flip (all pinned by `tests/checksum_escape.rs`). CRC32C detects every
//! one of those classes: it is a degree-32 polynomial code with Hamming
//! distance ≥ 4 over any realistic segment length, and its burst-error
//! guarantee covers all bursts up to 32 bits. This module vendors the
//! reflected table-driven implementation (polynomial 0x1EDC6F41,
//! reflected 0x82F63B78 — the iSCSI/SCTP polynomial) so the stack can
//! carry an opt-in payload CRC without any external dependency.

/// The reflected CRC32C polynomial (0x1EDC6F41 bit-reversed).
const POLY: u32 = 0x82F6_3B78;

/// The 256-entry lookup table, computed at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Compute the CRC32C of `data` (initial value all-ones, final XOR
/// all-ones, reflected — the standard iSCSI/SCTP convention).
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_parts(&[data])
}

/// The CRC32C of the concatenation of `parts`, without concatenating
/// them (a payload lent as the two halves of a ring buffer).
pub fn crc32c_parts(parts: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for &byte in parts.iter().copied().flatten() {
        crc = (crc >> 8) ^ TABLE[usize::from((crc as u8) ^ byte)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // The canonical check value for "123456789" (RFC 3720 App. B.4
        // uses the same polynomial; this vector is the CRC catalogue's).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // 32 bytes of zeros (iSCSI test vector).
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of ones (iSCSI test vector).
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // Empty input: init XOR final = 0.
        assert_eq!(crc32c(b""), 0);
        // Split anywhere, the parts hash as the whole.
        assert_eq!(crc32c_parts(&[b"1234", b"", b"56789"]), 0xE306_9283);
    }

    #[test]
    fn incremental_bytes_change_the_crc() {
        let a = crc32c(b"the quick brown fox");
        let b = crc32c(b"the quick brown foy");
        assert_ne!(a, b);
    }

    #[test]
    fn detects_word_transposition() {
        // The Internet checksum is blind to reordered 16-bit words
        // (one's-complement addition commutes); CRC32C is not.
        let orig = [0x12u8, 0x34, 0xAB, 0xCD, 0x55, 0x66];
        let mut swapped = orig;
        swapped.swap(0, 2);
        swapped.swap(1, 3);
        assert_ne!(crc32c(&orig), crc32c(&swapped));
    }

    #[test]
    fn detects_zero_flip() {
        // 0x0000 -> 0xFFFF in a word is invisible to the one's-complement
        // sum (both are zero); CRC32C sees it.
        let orig = [0x00u8, 0x00, 0x12, 0x34];
        let flipped = [0xFFu8, 0xFF, 0x12, 0x34];
        assert_ne!(crc32c(&orig), crc32c(&flipped));
    }
}
