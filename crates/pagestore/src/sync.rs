//! The crate's synchronization layer, switched at compile time.
//!
//! Production builds (the default) use `parking_lot` locks and `std`
//! atomics — zero-cost, exactly what the code always used. Under the
//! test-only `model` cargo feature the same names resolve to the `loom`
//! model-checker shims, which turn every lock acquisition and atomic
//! operation into a deterministic schedule point so
//! `loom::model` can enumerate interleavings of the pool's latch
//! protocols (see `tests/model.rs`).
//!
//! Everything concurrency-relevant in this crate — frame pin latches,
//! shard mapping tables, the policy mutex, touch logs — must import its
//! primitives from here, never from `parking_lot`/`std::sync` directly.

#[cfg(feature = "model")]
pub(crate) use loom::sync::{Mutex, RwLock};

#[cfg(not(feature = "model"))]
pub(crate) use parking_lot::{Mutex, RwLock};

pub(crate) mod atomic {
    #[cfg(feature = "model")]
    pub(crate) use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    #[cfg(not(feature = "model"))]
    pub(crate) use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
}
