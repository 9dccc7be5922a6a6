//! The frontier-parallel explorer's name.
//!
//! There is one explorer: [`crate::Explorer`] runs the chunked layer
//! step at every thread count, so parallel exploration is
//! [`crate::Explorer::threads`] set above one.

/// [`crate::Explorer`], under the name callers of the parallel explorer
/// know it by.
pub type ParallelExplorer = crate::Explorer;
