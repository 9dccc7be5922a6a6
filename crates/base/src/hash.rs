//! Stable, process-independent hashes.
//!
//! Unlike `std`'s randomized hasher, both hashes here are pure
//! functions of their input on every platform and in every process —
//! what persisted or reproduced values need: campaign job ids, result
//! cache keys and journal check fields (FNV-1a), per-trial and
//! per-candidate seeds (the SplitMix64 finalizer), fuzz corpus keys and
//! emitted scenario names (FNV-1a). Neither is cryptographic.

/// FNV-1a (64-bit) over a byte string.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes: `fnv1a64_extend(fnv1a64(a), b)`
/// is `fnv1a64` of `a` followed by `b`, so a hash can cover bytes that
/// are not contiguous in memory.
#[must_use]
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The SplitMix64 finalizer: a full avalanche, so neighboring inputs
/// yield unrelated outputs. Seeds derive as `mix(seed ^ mix(tag))`.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors() {
        // FNV-1a reference values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"tta"), 0x571e_cd19_4484_e15c);
    }

    #[test]
    fn fnv1a64_extends_over_split_input() {
        let whole = b"{\"chunk\":0}";
        for cut in 0..=whole.len() {
            let (head, tail) = whole.split_at(cut);
            assert_eq!(fnv1a64_extend(fnv1a64(head), tail), fnv1a64(whole));
        }
    }

    #[test]
    fn mix_known_answers() {
        // Pinned: job ids, cache keys, trial seeds and emitted scenario
        // names all derive through `mix`; any drift here changes them.
        assert_eq!(mix(0), 0);
        assert_eq!(mix(1), 0x5692_161d_100b_05e5);
        assert_eq!(mix(0xDB5_2004), 0xb4b5_8d5b_829b_58fd);
        assert_eq!(mix(u64::MAX), 0xb4d0_55fc_f2cb_bd7b);
        // The first SplitMix64 output for seed 0 (the generator adds the
        // golden-ratio increment before finalizing).
        assert_eq!(mix(0x9E37_79B9_7F4A_7C15), 0xe220_a839_7b1d_cdaf);
    }
}
