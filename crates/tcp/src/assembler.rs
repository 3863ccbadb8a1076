//! Out-of-order segment buffering for the receive side.
//!
//! The internet layer may reorder datagrams freely (another "minimal
//! assumptions" consequence), so TCP receivers hold early segments until
//! the gap before them fills. Callers name byte ranges by their offset
//! from the current `rcv_nxt`; the buffer keys them by absolute stream
//! position against a moving base, so the in-order point advancing is a
//! counter bump and never a re-keying of what is held.

use std::collections::BTreeMap;

/// A bounded buffer of out-of-order byte ranges.
#[derive(Debug, Clone)]
pub struct OutOfOrderBuffer {
    /// Disjoint segments keyed by absolute stream position, all of them
    /// ending past `base`.
    segments: BTreeMap<u64, Vec<u8>>,
    /// Stream position of the in-order point (offset zero to callers).
    base: u64,
    /// Total bytes buffered (bounded by the receive window, enforced by
    /// the caller; this cap is a hard backstop).
    buffered: usize,
    capacity: usize,
}

impl OutOfOrderBuffer {
    /// A buffer that will hold at most `capacity` bytes.
    pub fn new(capacity: usize) -> OutOfOrderBuffer {
        OutOfOrderBuffer {
            segments: BTreeMap::new(),
            base: 0,
            buffered: 0,
            capacity,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buffered
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Store `data` starting `offset` bytes past the in-order point.
    /// Overlapping or duplicate ranges are tolerated (first writer wins
    /// on overlap, matching the original-transmission-wins convention).
    /// Data beyond capacity is silently dropped — the sender will
    /// retransmit, exactly as if the network had lost it.
    pub fn insert(&mut self, offset: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        // Trim against an existing segment that covers our start.
        let mut start = self.base + offset as u64;
        let mut slice = data;
        if let Some((&seg_start, seg)) = self.segments.range(..=start).next_back() {
            let seg_end = seg_start + seg.len() as u64;
            if seg_end >= start + data.len() as u64 {
                return; // fully covered
            }
            if seg_end > start {
                slice = &data[(seg_end - start) as usize..];
                start = seg_end;
            }
        }
        // Keep the pieces that fall between segments starting inside our
        // range.
        let end = start + slice.len() as u64;
        let mut pieces: Vec<(u64, u64)> = Vec::new();
        let mut cursor = start;
        for (&seg_start, seg) in self.segments.range(start..end) {
            if seg_start > cursor {
                pieces.push((cursor, seg_start));
            }
            cursor = cursor.max(seg_start + seg.len() as u64);
        }
        if cursor < end {
            pieces.push((cursor, end));
        }
        for (piece_start, piece_end) in pieces {
            let piece = &slice[(piece_start - start) as usize..(piece_end - start) as usize];
            if self.buffered + piece.len() > self.capacity {
                break; // backstop: drop; the sender retransmits
            }
            self.buffered += piece.len();
            self.segments.insert(piece_start, piece.to_vec());
        }
    }

    /// Remove and return the contiguous run starting at offset zero, if
    /// any, and move the in-order point past it: the caller advances
    /// `rcv_nxt` by the returned length and need not call
    /// [`OutOfOrderBuffer::advance`] for it.
    pub fn take_contiguous(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(entry) = self.segments.first_entry() {
            if *entry.key() != self.base {
                break;
            }
            let data = entry.remove();
            self.buffered -= data.len();
            self.base += data.len() as u64;
            out.extend_from_slice(&data);
        }
        out
    }

    /// Move the in-order point `n` bytes on (in-order data arrived
    /// directly). Buffered bytes that fall before the new origin are
    /// discarded.
    pub fn advance(&mut self, n: usize) {
        self.base += n as u64;
        while let Some(entry) = self.segments.first_entry() {
            let stale = self.base.saturating_sub(*entry.key()) as usize;
            if stale == 0 {
                break;
            }
            let data = entry.remove();
            let kept = data.len().saturating_sub(stale);
            self.buffered -= data.len() - kept;
            if kept > 0 {
                // Disjoint segments: nothing else can start at `base`.
                self.segments.insert(self.base, data[stale..].to_vec());
                break;
            }
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.buffered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_data_released_immediately() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(0, b"hello");
        assert_eq!(buf.take_contiguous(), b"hello");
        assert!(buf.is_empty());
    }

    #[test]
    fn gap_holds_data_back() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(5, b"world");
        assert_eq!(buf.take_contiguous(), b"");
        assert_eq!(buf.len(), 5);
        buf.insert(0, b"hello");
        assert_eq!(buf.take_contiguous(), b"helloworld");
        assert!(buf.is_empty());
    }

    #[test]
    fn multiple_gaps_fill_in_any_order() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(10, b"ccccc");
        buf.insert(0, b"aaaaa");
        buf.insert(5, b"bbbbb");
        assert_eq!(buf.take_contiguous(), b"aaaaabbbbbccccc");
    }

    #[test]
    fn duplicate_segment_ignored() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(3, b"xyz");
        buf.insert(3, b"xyz");
        assert_eq!(buf.len(), 3);
        buf.insert(0, b"abc");
        assert_eq!(buf.take_contiguous(), b"abcxyz");
    }

    #[test]
    fn overlap_first_writer_wins() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(2, b"BBBB"); // covers 2..6
        buf.insert(0, b"aaaaaa"); // covers 0..6, overlapping
        let out = buf.take_contiguous();
        assert_eq!(out.len(), 6);
        assert_eq!(&out[..2], b"aa");
        assert_eq!(&out[2..6], b"BBBB"); // the earlier arrival's bytes stay
    }

    #[test]
    fn partial_overlap_extends() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(0, b"abcd");
        buf.insert(2, b"cdEF"); // 2..6, overlapping 2..4
        assert_eq!(buf.take_contiguous(), b"abcdEF");
    }

    #[test]
    fn take_shifts_remaining_offsets() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(0, b"ab");
        buf.insert(4, b"ef");
        assert_eq!(buf.take_contiguous(), b"ab");
        // The 4-offset segment is now at offset 2.
        buf.insert(0, b"cd");
        assert_eq!(buf.take_contiguous(), b"cdef");
    }

    #[test]
    fn advance_discards_stale_bytes() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(2, b"abcdef"); // 2..8
        buf.advance(5); // new origin at 5: keep bytes 5..8 = "def"
        assert_eq!(buf.take_contiguous(), b"def");
    }

    #[test]
    fn advance_past_everything_empties() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(0, b"abc");
        buf.insert(10, b"xyz");
        buf.advance(20);
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn capacity_backstop_drops_excess() {
        let mut buf = OutOfOrderBuffer::new(8);
        buf.insert(0, b"aaaa");
        buf.insert(100, b"bbbbbbbb"); // would exceed 8 bytes total
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.take_contiguous(), b"aaaa");
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut buf = OutOfOrderBuffer::new(8);
        buf.insert(3, b"");
        assert!(buf.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut buf = OutOfOrderBuffer::new(1024);
        buf.insert(1, b"zz");
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
    }
}
