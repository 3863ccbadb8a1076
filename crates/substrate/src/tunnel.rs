//! The UDP-tunnel wire format: how a link frame rides inside a UDP
//! payload between two OS processes.
//!
//! A tunnel datagram is an 8-byte header followed by the frame bytes,
//! verbatim:
//!
//! ```text
//! 0      2      3      4      6      8
//! +------+------+------+------+------+----------------- - - -
//! | magic 0xC47E| ver  | rsvd | link |  len | frame bytes …
//! +------+------+------+------+------+------+---------- - - -
//!   u16 BE        u8     u8    u16 BE  u16 BE
//! ```
//!
//! The `link` field names the link the two endpoints agreed on at
//! configuration time; a datagram whose link id doesn't match the
//! receiving endpoint is *somebody else's traffic* (or an attacker's)
//! and is dropped. `len` must equal the number of frame bytes that
//! actually follow — a UDP datagram is never fragmented by us, so any
//! mismatch means truncation or garbage.
//!
//! Decoding is fully defensive: this is the first place in the repo
//! where bytes arrive from outside the process, so every malformed
//! shape (short header, bad magic, unknown version, length mismatch,
//! oversized frame, wrong link) is **counted and dropped, never
//! panicked on** — the same posture `Node::handle_frame` already takes
//! one layer up, fuzz-pinned by `tunnel_decode_never_panics`.

/// First two bytes of every tunnel datagram.
pub const TUNNEL_MAGIC: u16 = 0xC47E;

/// Wire-format version this build speaks.
pub const TUNNEL_VERSION: u8 = 1;

/// Header bytes preceding the frame.
pub const TUNNEL_HEADER: usize = 8;

/// Largest frame a tunnel will carry. Matches the packet pool's buffer
/// capacity: a frame that wouldn't fit a simulator `PacketBuf` has no
/// business on a real link either (the MTU machinery keeps honest
/// senders far below this).
pub const MAX_FRAME: usize = 1600;

/// Why an incoming tunnel datagram was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelError {
    /// Shorter than the 8-byte header.
    Truncated,
    /// Magic bytes are not [`TUNNEL_MAGIC`].
    BadMagic,
    /// Version byte is not [`TUNNEL_VERSION`].
    BadVersion,
    /// Header's `len` disagrees with the bytes present.
    LengthMismatch,
    /// Frame longer than [`MAX_FRAME`].
    Oversized,
    /// Link id is not the one this endpoint serves.
    WrongLink,
}

/// Per-endpoint ingress accounting: every accepted frame and every
/// dropped malformation, by reason. The REPL's `stats` command prints
/// these; the interop test asserts zero drops on a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunnelStats {
    /// Well-formed frames handed to the node.
    pub accepted: u64,
    /// Datagrams shorter than the header.
    pub truncated: u64,
    /// Wrong magic bytes.
    pub bad_magic: u64,
    /// Unknown version.
    pub bad_version: u64,
    /// Header length disagreed with payload length.
    pub length_mismatch: u64,
    /// Frame exceeded [`MAX_FRAME`].
    pub oversized: u64,
    /// Link id didn't match this endpoint.
    pub wrong_link: u64,
}

impl TunnelStats {
    /// Total dropped datagrams, all reasons.
    pub fn dropped(&self) -> u64 {
        self.truncated
            + self.bad_magic
            + self.bad_version
            + self.length_mismatch
            + self.oversized
            + self.wrong_link
    }

    /// Count one rejection.
    pub fn record(&mut self, err: TunnelError) {
        match err {
            TunnelError::Truncated => self.truncated += 1,
            TunnelError::BadMagic => self.bad_magic += 1,
            TunnelError::BadVersion => self.bad_version += 1,
            TunnelError::LengthMismatch => self.length_mismatch += 1,
            TunnelError::Oversized => self.oversized += 1,
            TunnelError::WrongLink => self.wrong_link += 1,
        }
    }
}

/// Write the tunnel header for a `frame_len`-byte frame on `link_id`
/// into `header` (exactly [`TUNNEL_HEADER`] bytes) — what a sender
/// that prepends in place calls instead of [`encode`].
///
/// Panics if `frame_len` exceeds [`MAX_FRAME`] — an *outgoing*
/// oversized frame is a local bug (the node's MTU machinery bounds
/// what reaches the outbox), unlike incoming garbage which is merely
/// counted.
pub fn write_header(link_id: u16, frame_len: usize, header: &mut [u8]) {
    assert!(frame_len <= MAX_FRAME, "outgoing frame exceeds MAX_FRAME");
    header[0..2].copy_from_slice(&TUNNEL_MAGIC.to_be_bytes());
    header[2] = TUNNEL_VERSION;
    header[3] = 0; // reserved
    header[4..6].copy_from_slice(&link_id.to_be_bytes());
    header[6..8].copy_from_slice(&(frame_len as u16).to_be_bytes());
}

/// Encode `frame` for `link_id` into a fresh tunnel datagram.
///
/// Panics if `frame` exceeds [`MAX_FRAME`], as [`write_header`] does.
pub fn encode(link_id: u16, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TUNNEL_HEADER + frame.len());
    out.resize(TUNNEL_HEADER, 0);
    write_header(link_id, frame.len(), &mut out);
    out.extend_from_slice(frame);
    out
}

/// Decode an incoming tunnel datagram for the endpoint serving
/// `expect_link`. Returns the frame bytes, or the reason to drop.
pub fn decode(expect_link: u16, payload: &[u8]) -> Result<&[u8], TunnelError> {
    if payload.len() < TUNNEL_HEADER {
        return Err(TunnelError::Truncated);
    }
    let magic = u16::from_be_bytes([payload[0], payload[1]]);
    if magic != TUNNEL_MAGIC {
        return Err(TunnelError::BadMagic);
    }
    if payload[2] != TUNNEL_VERSION {
        return Err(TunnelError::BadVersion);
    }
    let link = u16::from_be_bytes([payload[4], payload[5]]);
    let len = u16::from_be_bytes([payload[6], payload[7]]) as usize;
    if len > MAX_FRAME {
        return Err(TunnelError::Oversized);
    }
    if payload.len() - TUNNEL_HEADER != len {
        return Err(TunnelError::LengthMismatch);
    }
    if link != expect_link {
        return Err(TunnelError::WrongLink);
    }
    Ok(&payload[TUNNEL_HEADER..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_sim::Rng;

    #[test]
    fn round_trip() {
        let frame = b"\x45\x00\x00\x14 some ip packet".to_vec();
        let wire = encode(9, &frame);
        assert_eq!(decode(9, &wire), Ok(frame.as_slice()));
    }

    #[test]
    fn empty_frame_round_trips() {
        let wire = encode(0, &[]);
        assert_eq!(decode(0, &wire), Ok(&[][..]));
    }

    #[test]
    fn rejections_name_their_reason() {
        let wire = encode(3, b"abc");
        assert_eq!(decode(4, &wire), Err(TunnelError::WrongLink));
        assert_eq!(decode(3, &wire[..5]), Err(TunnelError::Truncated));
        let mut bad = wire.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode(3, &bad), Err(TunnelError::BadMagic));
        let mut bad = wire.clone();
        bad[2] = 42;
        assert_eq!(decode(3, &bad), Err(TunnelError::BadVersion));
        let mut bad = wire.clone();
        bad[7] = 200; // claims 200 bytes, carries 3
        assert_eq!(decode(3, &bad), Err(TunnelError::LengthMismatch));
        let mut bad = wire;
        bad[6] = 0xFF;
        bad[7] = 0xFF; // claims 65535 > MAX_FRAME
        assert_eq!(decode(3, &bad), Err(TunnelError::Oversized));
    }

    #[test]
    fn stats_tally_by_reason() {
        let mut stats = TunnelStats::default();
        stats.record(TunnelError::Truncated);
        stats.record(TunnelError::WrongLink);
        stats.record(TunnelError::WrongLink);
        assert_eq!(stats.truncated, 1);
        assert_eq!(stats.wrong_link, 2);
        assert_eq!(stats.dropped(), 3);
    }

    /// The decoder's sibling of `random_wire_input_never_panics`:
    /// arbitrary bytes from the network must always come back as
    /// `Ok(frame)` or a counted error — never a panic, never an
    /// out-of-bounds slice.
    #[test]
    fn tunnel_decode_never_panics() {
        let mut rng = Rng::from_seed(0xC47E_F422);
        let mut stats = TunnelStats::default();
        for case in 0..4000u64 {
            let len = (rng.below(2100)) as usize;
            let mut payload = vec![0u8; len];
            for byte in payload.iter_mut() {
                *byte = rng.next_u32() as u8;
            }
            // Half the cases get a plausible header prefix so the
            // deeper checks (version, length, link) are reached too.
            if case % 2 == 0 && len >= TUNNEL_HEADER {
                payload[0..2].copy_from_slice(&TUNNEL_MAGIC.to_be_bytes());
                if case % 4 == 0 {
                    payload[2] = TUNNEL_VERSION;
                }
                if case % 8 == 0 {
                    let body = (len - TUNNEL_HEADER) as u16;
                    payload[6..8].copy_from_slice(&body.to_be_bytes());
                    // A small link id sometimes matches `expect`, so
                    // the fully-valid accept path is exercised too.
                    let link = rng.below(4) as u16;
                    payload[4..6].copy_from_slice(&link.to_be_bytes());
                }
            }
            let expect = rng.below(4) as u16;
            match decode(expect, &payload) {
                Ok(frame) => {
                    assert!(frame.len() <= MAX_FRAME);
                    stats.accepted += 1;
                }
                Err(err) => stats.record(err),
            }
        }
        // The harness above manufactures every rejection class.
        assert_eq!(stats.accepted + stats.dropped(), 4000);
        assert!(stats.accepted > 0, "fuzz never built a valid datagram");
        assert!(stats.truncated > 0);
        assert!(stats.bad_magic > 0);
        assert!(stats.bad_version > 0);
        assert!(stats.length_mismatch > 0);
        assert!(stats.wrong_link > 0);
    }
}
