//! Reusable request buffers for steady-state batch loops.
//!
//! Every `execute_batch` call used to be preceded by materializing a fresh
//! `Vec<Request>`, so batch-per-iteration loops (the concurrent benchmark,
//! streaming ingest) measured allocator traffic as much as table
//! throughput. A [`BatchBuffer`] owns its requests and keeps their storage
//! across [`clear`](BatchBuffer::clear) and
//! [`reset_results`](BatchBuffer::reset_results), so a loop that reuses one
//! buffer allocates nothing after warm-up:
//!
//! ```
//! use simt::Grid;
//! use slab_hash::{BatchBuffer, KeyValue, Request, SlabHash};
//!
//! let grid = Grid::sequential();
//! let table = SlabHash::<KeyValue>::for_expected_elements(1000, 0.6, 7);
//! let mut batch: BatchBuffer = (0..1000).map(|k| Request::replace(k, k)).collect();
//! for _ in 0..3 {
//!     batch.reset_results(); // no reallocation, results cleared in place
//!     table.execute_buffer(&mut batch, &grid);
//! }
//! assert_eq!(table.len(), 1000);
//! ```

use simt::{Grid, LaunchReport};
use slab_alloc::SlabAllocator;

use crate::entry::EntryLayout;
use crate::hash_table::SlabHash;
use crate::ops::Request;

/// An owned, reusable batch of requests. Reusing one buffer across batch
/// executions keeps the steady-state loop allocation-free.
#[derive(Debug, Default, Clone)]
pub struct BatchBuffer {
    reqs: Vec<Request>,
}

impl BatchBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            reqs: Vec::with_capacity(n),
        }
    }

    /// Number of requests in the buffer.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// True when the buffer holds no requests.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Removes all requests, keeping the request storage for reuse.
    pub fn clear(&mut self) {
        self.reqs.clear();
    }

    /// Appends one request.
    pub fn push(&mut self, req: Request) {
        self.reqs.push(req);
    }

    /// Resets every request's result to pending (see [`Request::reset`]) so
    /// the same batch can be executed again without rebuilding it.
    pub fn reset_results(&mut self) {
        for req in &mut self.reqs {
            req.reset();
        }
    }

    /// The requests, in the order they were pushed. Results land here after
    /// execution.
    pub fn requests(&self) -> &[Request] {
        &self.reqs
    }

    /// Mutable access to the requests (for editing keys/ops in place).
    pub fn requests_mut(&mut self) -> &mut [Request] {
        &mut self.reqs
    }
}

impl Extend<Request> for BatchBuffer {
    fn extend<I: IntoIterator<Item = Request>>(&mut self, iter: I) {
        self.reqs.extend(iter);
    }
}

impl FromIterator<Request> for BatchBuffer {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Self {
            reqs: iter.into_iter().collect(),
        }
    }
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// Executes the buffer's requests (see [`SlabHash::execute_batch`]).
    pub fn execute_buffer(&self, batch: &mut BatchBuffer, grid: &Grid) -> LaunchReport {
        self.execute_batch(&mut batch.reqs, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::KeyValue;
    use crate::ops::OpResult;

    #[test]
    fn buffer_reuse_keeps_storage_and_matches_fresh_requests() {
        let grid = Grid::new(4);
        let t = SlabHash::<KeyValue>::for_expected_elements(2000, 0.6, 11);
        let mut batch: BatchBuffer = (0..2000).map(|k| Request::replace(k, k + 1)).collect();
        t.execute_buffer(&mut batch, &grid);
        let cap = batch.reqs.capacity();
        for round in 0..3 {
            batch.reset_results();
            assert!(batch
                .requests()
                .iter()
                .all(|r| r.result == OpResult::Pending));
            t.execute_buffer(&mut batch, &grid);
            for (k, req) in batch.requests().iter().enumerate() {
                assert_eq!(
                    req.result,
                    OpResult::Replaced(k as u32 + 1),
                    "round {round}, key {k}"
                );
            }
        }
        assert_eq!(cap, batch.reqs.capacity());
        // Refilling after `clear` reuses the same storage.
        batch.clear();
        batch.extend((0..2000).map(Request::search));
        t.execute_buffer(&mut batch, &grid);
        assert!(batch
            .requests()
            .iter()
            .all(|r| r.result == OpResult::Found(r.key + 1)));
        assert_eq!(cap, batch.reqs.capacity());
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn buffer_basics() {
        let mut batch = BatchBuffer::with_capacity(8);
        assert!(batch.is_empty());
        batch.push(Request::search(1));
        batch.extend([Request::search(2), Request::search(3)]);
        assert_eq!(batch.len(), 3);
        batch.requests_mut()[0].key = 9;
        assert_eq!(batch.requests()[0].key, 9);
        batch.clear();
        assert!(batch.is_empty());
    }
}
