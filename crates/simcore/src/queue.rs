//! The deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vc2m_model::SimTime;

/// A pending event: fire time, caller-supplied priority key (smaller
/// fires first among simultaneous events), caller-supplied canonical
/// key (content-derived; orders equal-priority events independently of
/// insertion history), insertion sequence number, and the payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    priority: u64,
    key: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Entry<E> {
    fn cmp_key(&self) -> (SimTime, u64, u64, u64) {
        (self.time, self.priority, self.key, self.seq)
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other.cmp_key().cmp(&self.cmp_key())
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
///
/// Events that share a fire time are delivered in ascending `priority`
/// order; among equal priorities in ascending canonical `key` order
/// (see [`EventQueue::push_keyed`]); and among equal keys in insertion
/// order. Popping never goes backwards in time relative to previously
/// popped events; the queue tracks the *current time* (time of the
/// last popped event) and rejects pushes into the past, which would
/// indicate a causality bug in the caller.
///
/// The canonical key exists for *sharded* simulation: a key derived
/// from event **content** (e.g. the target core or task index) makes
/// the delivery order at simultaneous instants reconstructible from
/// independently-advancing sub-queues, which a history-dependent
/// insertion sequence number is not. Callers that never shard may use
/// [`EventQueue::push`] (key 0) and rely on insertion order alone.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at `time` with tie-break `priority`
    /// (smaller fires first among simultaneous events) and canonical
    /// key 0 (simultaneous equal-priority events fire in insertion
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the queue's current time:
    /// scheduling into the past is always a bug in a causal simulation.
    pub fn push(&mut self, time: SimTime, priority: u64, payload: E) {
        self.push_keyed(time, priority, 0, payload);
    }

    /// Schedules `payload` at `time` with tie-break `priority` and a
    /// content-derived canonical `key`: among simultaneous
    /// equal-priority events, smaller keys fire first, and equal keys
    /// fire in insertion order. See the type docs for why sharded
    /// simulation needs content-based keys.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the queue's current time.
    pub fn push_keyed(&mut self, time: SimTime, priority: u64, key: u64, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule event at {time} before current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            priority,
            key,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest event as
    /// `(time, priority, payload)`, advancing the queue's current time.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_keyed().map(|(time, priority, _, payload)| (time, priority, payload))
    }

    /// Removes and returns the earliest event as
    /// `(time, priority, key, payload)`, advancing the queue's current
    /// time. Sharded simulation uses the key to tag trace records for
    /// the deterministic cross-group merge.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, u64, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        Some((entry.time, entry.priority, entry.key, entry.payload))
    }

    /// The fire time of the earliest pending event, if any, without
    /// removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(3.0), 0, 'c');
        q.push(SimTime::from_ms(1.0), 0, 'a');
        q.push(SimTime::from_ms(2.0), 0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_obey_priority_then_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1.0);
        q.push(t, 5, "low-prio-first-inserted");
        q.push(t, 1, "high-prio");
        q.push(t, 5, "low-prio-second-inserted");
        assert_eq!(q.pop().unwrap().2, "high-prio");
        assert_eq!(q.pop().unwrap().2, "low-prio-first-inserted");
        assert_eq!(q.pop().unwrap().2, "low-prio-second-inserted");
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ms(2.0), 0, ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(2.0));
        // Scheduling at the current instant is allowed (zero-delay events).
        q.push(SimTime::from_ms(2.0), 0, ());
        assert_eq!(q.pop().unwrap().0, SimTime::from_ms(2.0));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(2.0), 0, ());
        q.pop();
        q.push(SimTime::from_ms(1.0), 0, ());
    }

    #[test]
    fn len_and_peek() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ms(4.0), 0, 7);
        q.push(SimTime::from_ms(3.0), 0, 8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(3.0)));
        assert_eq!(q.len(), 2, "peek must not consume");
    }

    #[test]
    fn canonical_key_orders_equal_priority_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1.0);
        q.push_keyed(t, 2, 9, "key9");
        q.push_keyed(t, 2, 1, "key1");
        q.push_keyed(t, 2, 5, "key5");
        q.push_keyed(t, 1, 7, "prio-wins");
        assert_eq!(q.pop().unwrap().2, "prio-wins");
        assert_eq!(q.pop().unwrap().2, "key1");
        assert_eq!(q.pop().unwrap().2, "key5");
        assert_eq!(q.pop().unwrap().2, "key9");
    }

    #[test]
    fn equal_keys_fall_back_to_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1.0);
        q.push_keyed(t, 0, 3, "first");
        q.push_keyed(t, 0, 3, "second");
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "second");
    }

    #[test]
    fn unkeyed_push_uses_key_zero() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1.0);
        q.push_keyed(t, 0, 1, "keyed");
        q.push(t, 0, "unkeyed-later-insertion");
        assert_eq!(q.pop().unwrap().2, "unkeyed-later-insertion");
        assert_eq!(q.pop().unwrap().2, "keyed");
    }

    #[test]
    fn cloned_queue_pops_identically() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push_keyed(SimTime((i * 3) % 7), i % 2, i % 5, i);
        }
        let mut c = q.clone();
        loop {
            let (a, b) = (q.pop(), c.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let mut q = EventQueue::new();
            for i in 0..100u64 {
                q.push(SimTime((i * 7) % 13), 0, i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
