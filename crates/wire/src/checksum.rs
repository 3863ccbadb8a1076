//! The Internet checksum (RFC 1071): one's-complement sum of 16-bit words.
//!
//! Used by IPv4 (header), ICMPv4 (whole message), and UDP/TCP (pseudo-header
//! plus payload). The checksum is the only integrity mechanism the 1988
//! architecture assumes of itself; everything else is the network's problem
//! or the endpoint's problem — which is exactly the point of the paper's
//! "variety of networks" goal.

use crate::types::{IpProtocol, Ipv4Address};

/// Compute the one's-complement sum of `data`, without the final inversion.
///
/// Odd trailing bytes are padded with zero, per RFC 1071.
///
/// The kernel reads little-endian `u32` words into four independent `u64`
/// lanes, so no add waits for another add's carry: the adds overlap, and
/// an optimised build packs lanes into vector registers. A `u32` word is two 16-bit words and `2^16 ≡ 1
/// (mod 2^16 − 1)`, so a plain sum of them is congruent to the sum of
/// their halves; and byte order does not matter to a one's-complement sum
/// (RFC 1071 §2(B)): the sum of byte-swapped words is the byte-swapped
/// sum. So the lanes are folded once, at the end, and the result swapped
/// back. A lane gains less than 2^32 per 16 bytes read, so it cannot wrap
/// below 64 GiB of input; a datagram is at most 65,535 bytes.
///
/// The contract is `fold(sum(d)) == fold(sum_scalar(d))`, and `sum(d)` is
/// zero exactly when `sum_scalar(d)` is (every fold step and the swap map
/// nonzero to nonzero); the raw values may differ (see
/// `tests/checksum_lanes.rs`). The result is at most `0xffff`, so
/// [`combine`] and [`pseudo_header_sum`] can add many of them without
/// overflow.
pub fn sum(data: &[u8]) -> u32 {
    let word = |w: &[u8]| u64::from(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
    let mut lanes = [0u64; 4];
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane += word(w);
        }
    }
    // The 0–15 bytes left: whole words, then the last 0–3 bytes
    // zero-padded — which pads an odd byte, as RFC 1071 asks, because
    // every word starts at an even offset.
    let mut words = blocks.remainder().chunks_exact(4);
    for w in &mut words {
        lanes[0] += word(w);
    }
    lanes[1] += word(&match *words.remainder() {
        [a] => [a, 0, 0, 0],
        [a, b] => [a, b, 0, 0],
        [a, b, c] => [a, b, c, 0],
        _ => [0; 4],
    });
    // Each step preserves the value mod 0xffff (2^32 ≡ 2^16 ≡ 1): under
    // 2^35 after the lanes meet, under 2^20, at most 0x1000e, at most
    // 0xffff.
    let total: u64 = lanes
        .iter()
        .map(|&lane| (lane >> 32) + (lane & 0xffff_ffff))
        .sum();
    let total = (total >> 16) + (total & 0xffff);
    let total = (total >> 16) + (total & 0xffff);
    let total = (total >> 16) + (total & 0xffff);
    u32::from((total as u16).swap_bytes())
}

/// The scalar reference sum: one 16-bit word per iteration.
///
/// Kept as the executable specification for [`sum`]; the property tests
/// assert `fold(sum(d)) == fold(sum_scalar(d))` exhaustively on short
/// inputs and on seeded random long ones.
pub fn sum_scalar(data: &[u8]) -> u32 {
    let mut accum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        accum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        accum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    accum
}

/// RFC 1624 incremental checksum update: the checksum of a message in
/// which the 16-bit word `old` has been replaced by `new`, given the
/// message's previous `checksum`, without touching the other bytes.
///
/// `HC' = ~(~HC + ~m + m')` (RFC 1624 eq. 3, the form that avoids the
/// minus-zero pitfall of RFC 1141). For any message whose stored
/// checksum was itself produced by [`checksum`] — in particular every
/// IPv4 header this stack builds or verifies before forwarding — the
/// result is bit-identical to a full recompute, because both reductions
/// land on the same canonical representative of the sum mod 0xffff.
pub fn update(checksum: u16, old: u16, new: u16) -> u16 {
    !fold(u32::from(!checksum) + u32::from(!old) + u32::from(new))
}

/// Fold a 32-bit accumulator into a 16-bit one's-complement value.
pub fn fold(mut accum: u32) -> u16 {
    while accum > 0xffff {
        accum = (accum & 0xffff) + (accum >> 16);
    }
    accum as u16
}

/// Compute the Internet checksum of `data` (folded and inverted).
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum(data))
}

/// Combine several partial (unfolded) sums.
pub fn combine(sums: &[u32]) -> u16 {
    !fold(sums.iter().copied().fold(0, u32::wrapping_add))
}

/// The unfolded sum of the IPv4 pseudo-header used by UDP and TCP.
pub fn pseudo_header_sum(
    src_addr: Ipv4Address,
    dst_addr: Ipv4Address,
    protocol: IpProtocol,
    length: u32,
) -> u32 {
    // An address is two 16-bit words; no kernel needed for those.
    let words = |addr: Ipv4Address| {
        let value = u32::from_be_bytes(addr.0);
        (value >> 16) + (value & 0xffff)
    };
    words(src_addr)
        + words(dst_addr)
        + u32::from(u8::from(protocol))
        + (length >> 16)
        + (length & 0xffff)
}

/// Verify that `data` (whose checksum field is included) sums to the
/// all-ones pattern, i.e. the checksum is valid.
pub fn verify(data: &[u8]) -> bool {
    fold(sum(data)) == 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The worked example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(sum(&data)), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn empty_data() {
        assert_eq!(checksum(&[]), 0xffff);
        assert!(verify(&[]) || checksum(&[]) == 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verify_detects_single_bit_flip() {
        let mut data = vec![0x12u8, 0x34, 0x56, 0x78, 0x00, 0x00];
        let csum = checksum(&data[..]);
        data[4..6].copy_from_slice(&csum.to_be_bytes());
        assert!(verify(&data));
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(!verify(&corrupt), "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn combine_matches_single_pass() {
        let a = [0x01u8, 0x02, 0x03, 0x04];
        let b = [0x05u8, 0x06, 0x07, 0x08];
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(combine(&[sum(&a), sum(&b)]), checksum(&whole));
    }

    #[test]
    fn pseudo_header_known_value() {
        let s = pseudo_header_sum(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            IpProtocol::Udp,
            12,
        );
        // 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 17 + 12
        assert_eq!(s, 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 17 + 12);
    }

    #[test]
    fn wide_sum_matches_scalar_on_rfc_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(sum(&data)), fold(sum_scalar(&data)));
        assert_eq!(fold(sum(&data)), 0xddf2);
    }

    #[test]
    fn incremental_update_matches_recompute() {
        // Replace one aligned word and compare against a full re-sum.
        let mut data = vec![0x45u8, 0x00, 0x12, 0x34, 0xab, 0xcd, 0x00, 0x00];
        let ck = checksum(&data);
        data[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        let old = u16::from_be_bytes([data[2], data[3]]);
        let new = 0x11u16 << 8 | 0x34;
        let incremental = update(ck, old, new);
        data[2..4].copy_from_slice(&new.to_be_bytes());
        data[6..8].copy_from_slice(&[0, 0]);
        assert_eq!(incremental, checksum(&data));
    }

    #[test]
    fn incremental_update_noop_word_is_identity() {
        assert_eq!(update(0x1234, 0xabcd, 0xabcd), 0x1234);
    }

    #[test]
    fn sums_leave_room_to_combine() {
        // `combine` adds with `wrapping_add`, and UDP/TCP add a
        // pseudo-header sum to a payload sum with `+`: neither may wrap.
        let largest = [0u8, 0x5a, 0xff]
            .iter()
            .flat_map(|&fill| [1, 20, 1_480, 65_535].map(|len| sum(&vec![fill; len])))
            .max()
            .unwrap();
        assert_eq!(largest, 0xffff, "all-ones input is the maximum");
        let many = vec![largest; 1 << 16];
        let exact: u64 = many.iter().map(|&s| u64::from(s)).sum();
        assert!(exact < 1 << 32, "65,536 maximal sums fit a u32");
        let wide_fold = (exact >> 32) + (exact & 0xffff_ffff);
        assert_eq!(combine(&many), !fold(wide_fold as u32));
        let all_ones = Ipv4Address::new(255, 255, 255, 255);
        let pseudo = pseudo_header_sum(all_ones, all_ones, IpProtocol::Unknown(255), u32::MAX);
        assert_eq!(pseudo, 6 * 0xffff + 255);
        assert!(pseudo.checked_add(largest).is_some());
    }

    #[test]
    fn fold_handles_large_accumulators() {
        assert_eq!(fold(0xffff_ffff), 0xffff);
        assert_eq!(fold(0x0001_0000), 0x0001);
        assert_eq!(fold(0x1234_5678), fold(0x5678 + 0x1234));
    }
}
