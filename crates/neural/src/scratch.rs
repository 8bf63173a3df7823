//! Reusable buffers that are deliberately *not* part of a layer's value.

/// Workspace a layer or agent sizes on first use and reuses on every
/// later call. It holds nothing the next call's result depends on, so it
/// is not learning state: cloning the owner — a NaN-rollback snapshot, a
/// per-actor copy — yields an empty workspace instead of copying the
/// buffers, and nothing in it is exported or checkpointed.
#[derive(Debug, Default)]
pub struct Scratch<T>(pub T);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch(T::default())
    }
}
