//! The prefetch request queue used in cycle-accurate simulation.
//!
//! Section 5 of the paper: "all DBCP and LT-cords requests are placed into a
//! 128-entry circular queue. When the request queue is full, new requests
//! replace old (unissued) ones at the queue head. Requests are only issued
//! when the L1/L2 bus is free."

use std::collections::VecDeque;

use ltc_cache::PrefetchRequest;

/// A bounded circular prefetch request queue.
///
/// # Example
///
/// ```
/// use ltc_predictors::{PrefetchRequest, RequestQueue};
/// use ltc_trace::Addr;
///
/// let mut q = RequestQueue::new(2);
/// q.push(PrefetchRequest::into_l2(Addr(0)));
/// q.push(PrefetchRequest::into_l2(Addr(64)));
/// q.push(PrefetchRequest::into_l2(Addr(128))); // displaces the oldest
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop().unwrap().target, Addr(64));
/// ```
#[derive(Debug, Clone)]
pub struct RequestQueue {
    queue: VecDeque<PrefetchRequest>,
    capacity: usize,
    dropped: u64,
}

impl RequestQueue {
    /// Creates a queue with the given capacity (the paper uses 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        RequestQueue { queue: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// The paper's 128-entry configuration.
    pub fn paper() -> Self {
        RequestQueue::new(128)
    }

    /// Enqueues a request, displacing the oldest unissued request when full.
    pub fn push(&mut self, req: PrefetchRequest) {
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.dropped += 1;
        }
        self.queue.push_back(req);
    }

    /// Dequeues the oldest request (issued when the L1/L2 bus is free).
    pub fn pop(&mut self) -> Option<PrefetchRequest> {
        self.queue.pop_front()
    }

    /// Pending requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Requests displaced before they could issue.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_trace::Addr;

    fn req(n: u64) -> PrefetchRequest {
        PrefetchRequest::into_l2(Addr(n * 64))
    }

    #[test]
    fn fifo_order() {
        let mut q = RequestQueue::new(4);
        for i in 0..3 {
            q.push(req(i));
        }
        assert_eq!(q.pop().unwrap().target, Addr(0));
        assert_eq!(q.pop().unwrap().target, Addr(64));
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut q = RequestQueue::new(2);
        q.push(req(1));
        q.push(req(2));
        q.push(req(3));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.pop().unwrap().target, Addr(128));
        assert_eq!(q.pop().unwrap().target, Addr(192));
        assert!(q.pop().is_none());
    }

    #[test]
    fn paper_capacity_is_128() {
        let mut q = RequestQueue::paper();
        for i in 0..200 {
            q.push(req(i));
        }
        assert_eq!(q.len(), 128);
        assert_eq!(q.dropped(), 72);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_capacity() {
        let _ = RequestQueue::new(0);
    }
}
