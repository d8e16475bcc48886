//! Fixed-capacity ring buffer for epoch records.
//!
//! The buffer allocates once at construction and never again: pushes into
//! a full ring overwrite the oldest record (counting what was dropped), so
//! the steady-state epoch path stays allocation-free no matter how long
//! the run is.

use super::record::EpochRecord;

/// A fixed-capacity trace of the most recent epoch records.
#[derive(Debug, Clone)]
pub struct RingTrace {
    buf: Vec<EpochRecord>,
    capacity: usize,
    /// Index of the oldest record once the buffer has wrapped.
    head: usize,
    /// Records overwritten because the ring was full.
    dropped: u64,
}

impl RingTrace {
    /// Creates a ring holding at most `capacity` records. A capacity of 0
    /// is legal and makes every push a drop-only no-op.
    pub fn with_capacity(capacity: usize) -> Self {
        RingTrace {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full. Never
    /// allocates: within capacity it fills pre-reserved space, beyond it
    /// it overwrites in place.
    #[inline]
    pub fn push(&mut self, rec: EpochRecord) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records lost to overwriting (or to a zero-capacity ring).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held records oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &EpochRecord> {
        let (older, newer) = (&self.buf[self.head..], &self.buf[..self.head]);
        older.iter().chain(newer.iter())
    }

    /// Copies the held records out, oldest → newest (allocates — call
    /// outside the hot loop, e.g. when draining to an exporter).
    pub fn to_vec(&self) -> Vec<EpochRecord> {
        self.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::record::Health;
    use super::*;
    use mimo_linalg::Vector;

    fn rec(epoch: u64) -> EpochRecord {
        let u = Vector::from_slice(&[epoch as f64, 0.0]);
        EpochRecord::capture(epoch, None, &u, &u, Health::Healthy, None)
    }

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut ring = RingTrace::with_capacity(4);
        assert!(ring.is_empty());
        for e in 0..4 {
            ring.push(rec(e));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 0);
        let order: Vec<u64> = ring.iter().map(|r| r.epoch).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        // Wrap: 0 and 1 are overwritten by 4 and 5.
        ring.push(rec(4));
        ring.push(rec(5));
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let order: Vec<u64> = ring.iter().map(|r| r.epoch).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert_eq!(
            ring.to_vec().iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn wraps_many_times_without_growing() {
        let mut ring = RingTrace::with_capacity(3);
        for e in 0..1000 {
            ring.push(rec(e));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 997);
        let order: Vec<u64> = ring.iter().map(|r| r.epoch).collect();
        assert_eq!(order, vec![997, 998, 999]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut ring = RingTrace::with_capacity(0);
        ring.push(rec(0));
        ring.push(rec(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.to_vec(), vec![]);
    }
}
