//! Bounded ring-buffer event log.

use std::collections::VecDeque;

/// A bounded event log keeping the most recent `capacity` events.
///
/// When full, pushing evicts the oldest event and counts it as
/// dropped, so the log can answer both "what happened recently" and
/// "how much history did I lose". The middlebox's admission-decision
/// audit trail is an `EventRing<DecisionEvent>`.
///
/// A plain owned value: the one writer holds it by `&mut`, readers
/// borrow it, and nothing on the push path locks.
#[derive(Debug)]
pub struct EventRing<T> {
    buf: VecDeque<T>,
    capacity: usize,
    evicted: u64,
    pushed: u64,
}

impl<T: Clone> EventRing<T> {
    /// Ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        EventRing {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
            pushed: 0,
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&mut self, event: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(event);
        self.pushed += 1;
    }

    /// Oldest-to-newest copy of the retained events.
    pub fn snapshot(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted to make room (total history lost).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent() {
        let mut r = EventRing::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.snapshot(), vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.total_pushed(), 5);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = EventRing::new(8);
        assert!(r.is_empty());
        r.push("a");
        r.push("b");
        assert_eq!(r.snapshot(), vec!["a", "b"]);
        assert_eq!(r.evicted(), 0);
        assert_eq!(r.total_pushed(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: EventRing<u8> = EventRing::new(0);
    }
}
