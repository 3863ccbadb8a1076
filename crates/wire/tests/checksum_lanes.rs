//! The four-lane checksum kernel against its scalar specification.
//!
//! `checksum::sum` reads little-endian `u32` words into four independent
//! `u64` lanes, 16 bytes a round, then sums the 0–15 bytes left as whole
//! words and one zero-padded word; it folds the lanes once at the end and
//! swaps the bytes of the result (RFC 1071 §2(B)). `checksum::sum_scalar`
//! is the one-word-per-iteration loop, kept as the executable spec. The
//! two do *not* promise the same raw accumulator — only the same value
//! modulo `0xffff` with matching zero/nonzero-ness, which is what every
//! consumer (fold, checksum, verify, combine) actually observes. These
//! tests pin that contract:
//!
//! - on every length 0–256 (sixteen lane rounds, and every tail shape
//!   after each), on random, `0x00`, `0xFF` and `0xA5` fills, at every
//!   start offset 0–7 of a larger buffer;
//! - on seeded random long inputs, at every alignment of a large buffer;
//! - on a 65,535-byte all-`0xFF` input: the most a datagram carries, and
//!   the largest value every lane can reach;
//! - on the `0x0000`/`0xFFFF` fixpoint patterns from `checksum_escape.rs`
//!   (one's complement has two zeros — the lanes must preserve the blind
//!   spot exactly, not blur it).
//!
//! The loop vectorises only with optimisation, so CI also runs this file
//! under `--release`.

use catenet_sim::Rng;
use catenet_wire::checksum;

/// The equivalence every consumer relies on.
fn assert_equivalent(data: &[u8]) {
    let lanes = checksum::sum(data);
    let scalar = checksum::sum_scalar(data);
    assert_eq!(
        checksum::fold(lanes),
        checksum::fold(scalar),
        "fold mismatch on len {}: {data:02x?}",
        data.len()
    );
    assert_eq!(
        lanes == 0,
        scalar == 0,
        "zero-preservation mismatch on len {}",
        data.len()
    );
    assert_eq!(checksum::checksum(data), !checksum::fold(scalar));
    // Sealing with the scalar-derived checksum must verify through the
    // lanes: append the inverted fold as a trailing word.
    let mut sealed = data.to_vec();
    if sealed.len() % 2 == 1 {
        sealed.push(0);
    }
    let ck = !checksum::fold(checksum::sum_scalar(&sealed));
    sealed.extend_from_slice(&ck.to_be_bytes());
    assert!(
        checksum::verify(&sealed),
        "sealed buffer fails the lanes' verify"
    );
}

#[test]
fn every_length_to_256_at_every_offset() {
    let mut rng = Rng::from_seed(0x1071);
    let random: Vec<u8> = (0..256 + 8).map(|_| rng.below(256) as u8).collect();
    for fill in [None, Some(0x00u8), Some(0xff), Some(0xa5)] {
        let buffer = match fill {
            None => random.clone(),
            Some(byte) => vec![byte; random.len()],
        };
        for offset in 0..8 {
            for len in 0..=256usize {
                assert_equivalent(&buffer[offset..offset + len]);
            }
        }
    }
}

#[test]
fn seeded_random_long_inputs_all_alignments() {
    let mut rng = Rng::from_seed(0x1624);
    let big: Vec<u8> = (0..9009).map(|_| rng.below(256) as u8).collect();
    // Every start offset mod 8 × every tail length mod 8, on kilobyte-scale
    // slices — the shapes a forwarding path actually sums.
    for start in 0..8 {
        for trim in 0..8 {
            assert_equivalent(&big[start..big.len() - trim]);
        }
    }
    for len in [257, 1000, 1460, 1480, 1500, 8192] {
        assert_equivalent(&big[..len]);
    }
}

#[test]
fn largest_datagram_of_all_ones() {
    // Every lane takes the largest word on every round, and the odd
    // last byte lands in the zero-padded word.
    let ones = vec![0xffu8; 65_535];
    assert_equivalent(&ones);
    assert_equivalent(&ones[..65_534]);
    assert_eq!(checksum::sum(&ones[..65_534]), 0xffff);
    assert_eq!(checksum::sum(&ones), 0xff00);
}

#[test]
fn zero_fixpoints_match_scalar() {
    // One's complement has two zeros: a word of 0x0000 and a word of
    // 0xFFFF both add nothing mod 0xffff. checksum_escape.rs proves the
    // scalar sum cannot tell them apart; the lanes must agree on both
    // representatives, wherever the word lands: in any lane, in the
    // whole-word tail, or in the padded last word.
    let base: Vec<u8> = (0..38u8).map(|i| i.wrapping_mul(0x35) ^ 0x5a).collect();
    for offset in (0..base.len()).step_by(2) {
        let mut zeros = base.clone();
        zeros[offset..offset + 2].copy_from_slice(&[0x00, 0x00]);
        let mut ones = base.clone();
        ones[offset..offset + 2].copy_from_slice(&[0xff, 0xff]);
        assert_equivalent(&zeros);
        assert_equivalent(&ones);
        // The blind spot survives intact: the two variants fold equal.
        assert_eq!(
            checksum::fold(checksum::sum(&zeros)),
            checksum::fold(checksum::sum(&ones)),
            "zero flip became visible at offset {offset}"
        );
    }
    // All-zero vs all-ones whole buffers: both are "zero" mod 0xffff, but
    // only the literal all-zero input has a zero accumulator.
    assert_eq!(checksum::sum(&[0u8; 64]), 0);
    assert_eq!(checksum::fold(checksum::sum(&[0xffu8; 64])), 0xffff);
    assert_eq!(checksum::sum(&[]), checksum::sum_scalar(&[]));
}
