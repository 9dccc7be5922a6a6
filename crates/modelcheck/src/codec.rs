//! State interning codecs: fixed-size encodings for visited-set storage.
//!
//! The explorers never store full model states in their visited sets;
//! they store *encoded* states produced by a [`StateCodec`]. A model
//! with a naturally compact state (a `u64`, a small tuple) uses the
//! [`IdentityCodec`]; a model with a heap-carrying state (like
//! `tta-core`'s `ClusterState`, a `Vec` of controllers) supplies a
//! bit-packing codec so millions of visited states cost a few dozen
//! flat bytes each instead of a heap allocation per clone.
//!
//! Contract: `encode` must be injective on the model's reachable states
//! and `decode(encode(s)) == s`; equal states must produce equal
//! encodings (so hashing the encoding partitions states correctly).
//! `encode` sits on the hottest path of the checker — it runs once per
//! *generated* transition, not once per distinct state — so it should
//! be allocation-free whenever possible.

use std::hash::Hash;
use std::marker::PhantomData;

/// An invertible encoding between model states and a compact,
/// hashable visited-set key.
pub trait StateCodec {
    /// The model state type being encoded.
    type State;
    /// The interned representation; this is what visited sets store.
    type Encoded: Clone + Eq + Hash;

    /// Encodes a state (hot path: once per generated transition).
    fn encode(&self, state: &Self::State) -> Self::Encoded;

    /// Reconstructs the state (runs once per *expanded* state and per
    /// counterexample step).
    fn decode(&self, encoded: &Self::Encoded) -> Self::State;

    /// Approximate bytes one encoded state occupies. Nothing in the
    /// workspace reads it (`visited_bytes` counts arena capacity); it
    /// stays only because the repository benchmark's tracing codec
    /// overrides it.
    fn encoded_size_hint(&self) -> usize {
        std::mem::size_of::<Self::Encoded>()
    }
}

/// The trivial codec: states are their own encoding (cloned).
///
/// Correct for every `Clone + Eq + Hash` state and the default for
/// [`crate::Explorer::check`]; models with heap-carrying states should
/// provide a packing codec instead.
pub struct IdentityCodec<S>(PhantomData<fn() -> S>);

impl<S> IdentityCodec<S> {
    /// Creates the identity codec.
    #[must_use]
    pub const fn new() -> Self {
        IdentityCodec(PhantomData)
    }
}

impl<S> Default for IdentityCodec<S> {
    fn default() -> Self {
        IdentityCodec::new()
    }
}

impl<S> Clone for IdentityCodec<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for IdentityCodec<S> {}

impl<S> std::fmt::Debug for IdentityCodec<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("IdentityCodec")
    }
}

impl<S: Clone + Eq + Hash> StateCodec for IdentityCodec<S> {
    type State = S;
    type Encoded = S;

    #[inline]
    fn encode(&self, state: &S) -> S {
        state.clone()
    }

    #[inline]
    fn decode(&self, encoded: &S) -> S {
        encoded.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::fx_hash;

    #[test]
    fn identity_round_trips() {
        let codec = IdentityCodec::<(u32, u32)>::new();
        let state = (3, 9);
        let enc = codec.encode(&state);
        assert_eq!(codec.decode(&enc), state);
        assert_eq!(codec.encode(&codec.decode(&enc)), enc);
    }

    #[test]
    fn equal_states_hash_equal_through_identity() {
        let codec = IdentityCodec::<u64>::new();
        assert_eq!(fx_hash(&codec.encode(&77)), fx_hash(&codec.encode(&77)));
    }

    #[test]
    fn size_hint_matches_encoded_type() {
        let codec = IdentityCodec::<u64>::new();
        assert_eq!(codec.encoded_size_hint(), 8);
    }
}
