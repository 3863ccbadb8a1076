//! FNV-1a 64: the one content digest the workspace uses — dump digests
//! in experiment JSON, stream-integrity receipts, flow-table shard
//! placement, file-transfer receipts on the real arm. Stable across
//! runs, platforms and process restarts, so a digest is part of a
//! reproducible result.

/// FNV-1a 64 offset basis: the state to start a digest from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold `bytes` into the FNV-1a 64 state `state`. Start from
/// [`FNV_OFFSET`]; feed a stream in pieces by passing each result back.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_the_standard_vector() {
        // Classic FNV-1a test vectors pin the digest so a refactor
        // can't silently change every recorded fingerprint.
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
