//! A recycling buffer arena for tape and kernel scratch memory.
//!
//! One training step builds a forward tape, runs backward, and drops
//! everything — historically one heap allocation per op per step. A
//! [`ScratchArena`] keeps the freed `Vec<f32>` backing stores and hands
//! them back out, so a steady-state training loop (same graph shape
//! every step) stops allocating entirely after the first step. Values
//! are bit-identical either way: the arena only changes *where* buffers
//! come from, never what is written into them.

/// A best-fit free-list of `f32` buffers.
///
/// A request is served by the smallest held buffer whose capacity
/// covers it; when none does, a fresh buffer of exactly the requested
/// capacity is allocated. A recycled buffer is never grown, so every
/// held buffer keeps the size of the tensor it was made for and a
/// repeated graph settles on one buffer per live tensor. (A LIFO list
/// that grows whatever it pops instead drifts every buffer up to the
/// largest tensor size, paying a copying realloc each time.)
///
/// The list is bounded so a one-off giant graph cannot pin unbounded
/// memory; when full it evicts its smallest buffer, never a large one
/// behind it.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Held buffers, sorted by ascending capacity.
    free: Vec<Vec<f32>>,
}

/// Retained buffer cap: generous for any model in this workspace (a
/// graph recycles one buffer per node) while bounding worst-case
/// retention.
const MAX_FREE: usize = 512;

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cleared buffer with capacity for at least `cap` elements
    /// (length 0). Fill it with `extend`-style writes.
    pub fn take_empty(&mut self, cap: usize) -> Vec<f32> {
        let i = self.free.partition_point(|v| v.capacity() < cap);
        if i == self.free.len() {
            return Vec::with_capacity(cap);
        }
        let mut v = self.free.remove(i);
        v.clear();
        v
    }

    /// A buffer of exactly `len` zeros.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take_empty(len);
        v.resize(len, 0.0);
        v
    }

    /// Returns a buffer to the free list for reuse. When the list is
    /// full, the smallest buffer (held or offered) is dropped.
    pub fn give(&mut self, v: Vec<f32>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        if self.free.len() == MAX_FREE {
            if self.free[0].capacity() >= cap {
                return;
            }
            self.free.remove(0);
        }
        let i = self.free.partition_point(|h| h.capacity() < cap);
        self.free.insert(i, v);
    }

    /// Number of buffers currently held for reuse.
    pub fn held(&self) -> usize {
        self.free.len()
    }

    /// Total capacity, in `f32` elements, of the buffers currently held.
    pub fn retained_capacity(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let mut arena = ScratchArena::new();
        let mut v = arena.take_empty(100);
        v.extend((0..100).map(|i| i as f32));
        let ptr = v.as_ptr();
        arena.give(v);
        assert_eq!(arena.held(), 1);
        let v2 = arena.take_zeroed(64);
        assert_eq!(v2.as_ptr(), ptr, "the recycled allocation is reused");
        assert_eq!(v2.len(), 64);
        assert!(v2.iter().all(|&x| x == 0.0), "recycled buffers are reset");
    }

    #[test]
    fn take_grows_capacity_when_needed() {
        let mut arena = ScratchArena::new();
        arena.give(vec![1.0; 4]);
        let v = arena.take_zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn free_list_is_bounded() {
        let mut arena = ScratchArena::new();
        for _ in 0..(MAX_FREE + 50) {
            arena.give(vec![0.0; 8]);
        }
        assert_eq!(arena.held(), MAX_FREE);
    }

    #[test]
    fn best_fit_picks_the_smallest_buffer_that_fits() {
        let mut arena = ScratchArena::new();
        for cap in [500usize, 50, 5000, 120, 80] {
            arena.give(Vec::with_capacity(cap));
        }
        let v = arena.take_empty(60);
        assert_eq!(v.capacity(), 80, "smallest held capacity >= 60");
        let v = arena.take_empty(120);
        assert_eq!(v.capacity(), 120, "an exact fit wins");
        let v = arena.take_empty(1);
        assert_eq!(v.capacity(), 50);
        assert_eq!(arena.held(), 2);
        assert_eq!(arena.retained_capacity(), 5500);
    }

    #[test]
    fn a_too_small_buffer_is_never_grown() {
        let mut arena = ScratchArena::new();
        let small = Vec::<f32>::with_capacity(16);
        let small_ptr = small.as_ptr();
        arena.give(small);
        let big = arena.take_zeroed(1000);
        assert_ne!(big.as_ptr(), small_ptr, "fresh allocation, not a regrow");
        assert_eq!(big.capacity(), 1000);
        assert_eq!(arena.held(), 1, "the small buffer stays held");
        let again = arena.take_empty(16);
        assert_eq!(again.as_ptr(), small_ptr);
        assert_eq!(again.capacity(), 16, "held buffers keep their size");
    }

    #[test]
    fn a_full_list_evicts_its_smallest_buffer() {
        let mut arena = ScratchArena::new();
        for i in 0..MAX_FREE {
            arena.give(Vec::with_capacity(10 + i));
        }
        // Smaller than everything held: dropped.
        arena.give(Vec::with_capacity(5));
        assert_eq!(arena.held(), MAX_FREE);
        assert_eq!(arena.take_empty(0).capacity(), 10);
        arena.give(Vec::with_capacity(10));
        // Larger: displaces the smallest held buffer instead.
        arena.give(Vec::with_capacity(100_000));
        assert_eq!(arena.held(), MAX_FREE);
        assert_eq!(arena.take_empty(0).capacity(), 11);
        assert_eq!(arena.take_empty(50_000).capacity(), 100_000);
    }
}
