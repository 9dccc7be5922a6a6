//! Content hashing for job identity and the per-trial result cache.
//!
//! FNV-1a ([`tta_base::hash::fnv1a64`]) over canonical byte strings:
//! not cryptographic, but stable across platforms and processes, which
//! is what journal file names and cache keys need. Collisions
//! would only ever conflate two *byte-identical renderings*' worth of
//! campaign work at 64-bit odds — acceptable for a result cache whose
//! entries are also self-describing.

pub use tta_base::hash::fnv1a64;

/// Fixed-width lowercase hex of a 64-bit hash (journal file names, job
/// ids on the wire).
#[must_use]
pub fn to_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses [`to_hex`] output back.
#[must_use]
pub fn from_hex(text: &str) -> Option<u64> {
    if text.len() != 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(from_hex(&to_hex(h)), Some(h));
        }
        assert_eq!(from_hex("xyz"), None);
        assert_eq!(from_hex("00"), None);
    }
}
