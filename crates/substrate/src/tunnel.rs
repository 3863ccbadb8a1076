//! The UDP-tunnel wire format: how link frames ride inside a UDP
//! payload between two OS processes.
//!
//! A tunnel datagram is a sequence of one or more *records*, each an
//! 8-byte header followed by one frame's bytes, verbatim:
//!
//! ```text
//! 0      2      3      4      6      8
//! +------+------+------+------+------+----------------- - - -
//! | magic 0xC47E| ver  | rsvd | link |  len | frame bytes …
//! +------+------+------+------+------+------+---------- - - -
//!   u16 BE        u8     u8    u16 BE  u16 BE
//! ```
//!
//! The next record starts right after the `len` frame bytes; the
//! datagram ends after its last record. A sender packs whatever frames
//! one pass of its event loop has for a link into one datagram of at
//! most [`MAX_DATAGRAM`] bytes, so a burst costs one `send` and one
//! `recv` instead of one per frame, and a lone frame still leaves at
//! once, alone. (Version 1 carried exactly one record per datagram.)
//!
//! The `link` field names the link the two endpoints agreed on at
//! configuration time; a record whose link id doesn't match the
//! receiving endpoint is *somebody else's traffic* (or an attacker's).
//! `len` must fit in the bytes that follow: a record that claims more
//! means truncation or garbage.
//!
//! Decoding is fully defensive: this is the first place in the repo
//! where bytes arrive from outside the process, so every malformed
//! shape (short header, bad magic, unknown version, length past the
//! end, oversized frame, wrong link) is **counted and dropped, never
//! panicked on** — the same posture `Node::handle_frame` already takes
//! one layer up, fuzz-pinned by `tunnel_decode_never_panics`. A
//! malformed record ends its datagram: nothing after it can be framed
//! with any confidence, so the rest is discarded with it, one drop.

/// First two bytes of every record.
pub const TUNNEL_MAGIC: u16 = 0xC47E;

/// Wire-format version this build speaks.
pub const TUNNEL_VERSION: u8 = 2;

/// Header bytes preceding each frame.
pub const TUNNEL_HEADER: usize = 8;

/// Largest frame a tunnel will carry. Matches the packet pool's buffer
/// capacity: a frame that wouldn't fit a simulator `PacketBuf` has no
/// business on a real link either (the MTU machinery keeps honest
/// senders far below this).
pub const MAX_FRAME: usize = 1600;

/// Largest datagram a sender builds: the IPv4 UDP payload limit
/// (65,535 − 20 − 8). One constant, not an option (DESIGN.md "What a
/// datagram costs").
pub const MAX_DATAGRAM: usize = 65_507;

/// Why an incoming record was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelError {
    /// Fewer than 8 bytes left for a header (an empty datagram too).
    Truncated,
    /// Magic bytes are not [`TUNNEL_MAGIC`].
    BadMagic,
    /// Version byte is not [`TUNNEL_VERSION`].
    BadVersion,
    /// Header's `len` runs past the end of the datagram.
    LengthMismatch,
    /// Frame longer than [`MAX_FRAME`].
    Oversized,
    /// Link id is not the one this endpoint serves.
    WrongLink,
}

/// Per-endpoint ingress accounting: every datagram read, every
/// accepted frame and every dropped malformation, by reason. The
/// REPL's `stats` command prints these; the interop test asserts zero
/// drops on a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunnelStats {
    /// Well-formed frames handed to the node.
    pub accepted: u64,
    /// Datagrams read: `accepted / datagrams` is frames per datagram.
    pub datagrams: u64,
    /// Records shorter than the header.
    pub truncated: u64,
    /// Wrong magic bytes.
    pub bad_magic: u64,
    /// Unknown version.
    pub bad_version: u64,
    /// Header length ran past the end of the datagram.
    pub length_mismatch: u64,
    /// Frame exceeded [`MAX_FRAME`].
    pub oversized: u64,
    /// Link id didn't match this endpoint.
    pub wrong_link: u64,
}

impl TunnelStats {
    /// Total dropped records, all reasons: each one ended its
    /// datagram.
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

/// Write the record header for a `frame_len`-byte frame on `link_id`
/// into `header` (exactly [`TUNNEL_HEADER`] bytes) — what a sender
/// that packs records into a datagram of its own calls instead of
/// [`encode`].
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

/// Encode `frame` for `link_id` into a fresh one-record datagram.
/// Concatenated, such datagrams are one datagram of their records.
///
/// Panics if `frame` exceeds [`MAX_FRAME`], as [`write_header`] does.
pub fn encode(link_id: u16, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TUNNEL_HEADER + frame.len());
    out.resize(TUNNEL_HEADER, 0);
    write_header(link_id, frame.len(), &mut out);
    out.extend_from_slice(frame);
    out
}

/// Decode the first record of `records` for the endpoint serving
/// `expect_link`: its frame bytes and the records after it, or the
/// reason to drop it (and, with it, the rest of its datagram). The one
/// record parser every ingress route uses.
pub fn decode_next(expect_link: u16, records: &[u8]) -> Result<(&[u8], &[u8]), TunnelError> {
    if records.len() < TUNNEL_HEADER {
        return Err(TunnelError::Truncated);
    }
    let magic = u16::from_be_bytes([records[0], records[1]]);
    if magic != TUNNEL_MAGIC {
        return Err(TunnelError::BadMagic);
    }
    if records[2] != TUNNEL_VERSION {
        return Err(TunnelError::BadVersion);
    }
    let link = u16::from_be_bytes([records[4], records[5]]);
    let len = u16::from_be_bytes([records[6], records[7]]) as usize;
    if len > MAX_FRAME {
        return Err(TunnelError::Oversized);
    }
    if records.len() - TUNNEL_HEADER < len {
        return Err(TunnelError::LengthMismatch);
    }
    if link != expect_link {
        return Err(TunnelError::WrongLink);
    }
    Ok(records[TUNNEL_HEADER..].split_at(len))
}

/// Decode a one-record datagram (what [`encode`] builds) for the
/// endpoint serving `expect_link`. Returns the frame bytes, or the
/// reason to drop; bytes after the record are a length mismatch.
pub fn decode(expect_link: u16, payload: &[u8]) -> Result<&[u8], TunnelError> {
    match decode_next(expect_link, payload)? {
        (frame, []) => Ok(frame),
        _ => Err(TunnelError::LengthMismatch),
    }
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
        let two = [wire.clone(), wire.clone()].concat(); // not one record
        assert_eq!(decode(3, &two), Err(TunnelError::LengthMismatch));
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

    /// Read a datagram as ingress does: record after record until the
    /// records run out (`None`) or one is malformed, which ends it.
    fn read(link: u16, datagram: &[u8]) -> (Vec<&[u8]>, Option<TunnelError>) {
        let (mut frames, mut records) = (Vec::new(), datagram);
        loop {
            match decode_next(link, records) {
                Ok((frame, rest)) => {
                    frames.push(frame);
                    if rest.is_empty() {
                        return (frames, None);
                    }
                    records = rest;
                }
                Err(reason) => return (frames, Some(reason)),
            }
        }
    }

    #[test]
    fn records_round_trip_in_order() {
        let frames: Vec<Vec<u8>> = [0, 1, 1_460, MAX_FRAME]
            .iter()
            .map(|&len| (0..len).map(|i| (i % 251) as u8).collect())
            .collect();
        let datagram: Vec<u8> = frames.iter().flat_map(|f| encode(5, f)).collect();
        let (read_back, end) = read(5, &datagram);
        assert_eq!(end, None);
        assert_eq!(read_back, frames);
    }

    /// A malformed record costs its datagram's tail, not its head: the
    /// records before it are frames, it is one drop by its reason, and
    /// the good record after it is never looked at.
    #[test]
    fn a_malformed_record_ends_its_datagram() {
        let good: Vec<u8> = [encode(3, b"ab"), encode(3, b"cde")].concat();
        let bad = encode(3, b"xyz");
        let corrupt = |at: usize, byte: u8| {
            let mut bad = bad.clone();
            bad[at] = byte;
            [bad, encode(3, b"fg")].concat()
        };
        let cases = [
            (corrupt(0, 0), TunnelError::BadMagic),
            (corrupt(2, 42), TunnelError::BadVersion),
            (corrupt(5, 4), TunnelError::WrongLink),
            (corrupt(6, 0xFF), TunnelError::Oversized),
            // Claims more than the rest of the datagram.
            (corrupt(7, 200), TunnelError::LengthMismatch),
            // Only at the very end can a header be short.
            (bad[..5].to_vec(), TunnelError::Truncated),
        ];
        for (tail, reason) in cases {
            let datagram = [good.clone(), tail].concat();
            let (frames, end) = read(3, &datagram);
            assert_eq!(frames, [&b"ab"[..], b"cde"], "{reason:?}");
            assert_eq!(end, Some(reason));
        }
        // A record cut short by the datagram's end is as malformed as
        // any, and so is a datagram with no record at all.
        assert_eq!(
            read(3, &good[..good.len() - 1]),
            (vec![&b"ab"[..]], Some(TunnelError::LengthMismatch))
        );
        assert_eq!(read(3, &[]), (vec![], Some(TunnelError::Truncated)));
    }

    /// The decoder's sibling of `random_wire_input_never_panics`:
    /// arbitrary bytes from the network, alone or behind and between
    /// well-formed records, must always come back as frames and at
    /// most one counted error — never a panic, never an out-of-bounds
    /// slice. Each datagram is either consumed whole or ends in exactly
    /// one drop.
    #[test]
    fn tunnel_decode_never_panics() {
        const DATAGRAMS: u64 = 4000;
        let mut rng = Rng::from_seed(0xC47E_F422);
        let mut stats = TunnelStats::default();
        let (mut whole, mut most_frames) = (0, 0);
        for case in 0..DATAGRAMS {
            let mut datagram = Vec::new();
            for part in 0..1 + rng.below(4) {
                if rng.below(2) == 0 {
                    // A well-formed record, for a link `expect` may be.
                    let len = rng.below(MAX_FRAME as u64 + 1) as usize;
                    let frame: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                    datagram.extend(encode(rng.below(2) as u16, &frame));
                    continue;
                }
                let len = rng.below(2100) as usize;
                let mut garbage: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                // Half the garbage gets a plausible header prefix so
                // the deeper checks (version, length, link) are
                // reached too.
                let shape = case + part;
                if shape % 2 == 0 && len >= TUNNEL_HEADER {
                    garbage[0..2].copy_from_slice(&TUNNEL_MAGIC.to_be_bytes());
                    if shape % 4 == 0 {
                        garbage[2] = TUNNEL_VERSION;
                    }
                    if shape % 8 == 0 {
                        let body = (len - TUNNEL_HEADER) as u16;
                        garbage[6..8].copy_from_slice(&body.to_be_bytes());
                        let link = rng.below(2) as u16;
                        garbage[4..6].copy_from_slice(&link.to_be_bytes());
                    }
                }
                datagram.extend(garbage);
            }
            if case % 16 == 1 {
                // Cut short, anywhere: mid-header or mid-frame.
                datagram.truncate(rng.below(datagram.len() as u64 + 1) as usize);
            }
            let (frames, end) = read(rng.below(2) as u16, &datagram);
            for frame in &frames {
                assert!(frame.len() <= MAX_FRAME);
            }
            stats.accepted += frames.len() as u64;
            match end {
                Some(reason) => stats.record(reason),
                None => {
                    let read: usize = frames.iter().map(|f| TUNNEL_HEADER + f.len()).sum();
                    assert_eq!(read, datagram.len(), "a clean end consumes the datagram");
                    whole += 1;
                }
            }
            most_frames = most_frames.max(frames.len());
        }
        // One drop per datagram not consumed whole, and the harness
        // above manufactures every rejection class.
        assert_eq!(whole + stats.dropped(), DATAGRAMS);
        assert!(whole > 0, "fuzz never built a valid datagram");
        assert!(most_frames > 1, "fuzz never read a multi-record datagram");
        assert!(stats.truncated > 0);
        assert!(stats.bad_magic > 0);
        assert!(stats.bad_version > 0);
        assert!(stats.length_mismatch > 0);
        assert!(stats.oversized > 0);
        assert!(stats.wrong_link > 0);
    }
}
