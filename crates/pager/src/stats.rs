//! Physical-transfer counters.
//!
//! These count what actually crosses the file boundary — block reads and
//! writes issued by the pool (or the pass-through path), plus cache hits and
//! misses. They are deliberately kept apart from the *logical* model
//! counters (`ce-extmem`'s `IoStats`): the paper's figures price every
//! logical block access at one I/O, while the pool's whole purpose is to
//! make the physical number smaller than the logical one without changing
//! it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic physical-transfer counters for one [`crate::Pager`].
#[derive(Debug, Default)]
pub struct PhysStats {
    reads: AtomicU64,
    writes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl PhysStats {
    /// Creates zeroed counters.
    pub fn new() -> PhysStats {
        PhysStats::default()
    }

    pub(crate) fn record_read(&self) {
        self.record_reads(1);
    }

    pub(crate) fn record_reads(&self, blocks: u64) {
        self.reads.fetch_add(blocks, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// `blocks` dirty blocks written back: each is one write and one
    /// write-back.
    pub(crate) fn record_writebacks(&self, blocks: u64) {
        self.writes.fetch_add(blocks, Ordering::Relaxed);
        self.writebacks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of all counters.
    pub fn snapshot(&self) -> PhysSnapshot {
        PhysSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`PhysStats`]; supports differencing so callers
/// can attribute physical transfers to phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhysSnapshot {
    /// Blocks physically read from a file.
    pub reads: u64,
    /// Blocks physically written to a file (including write-backs).
    pub writes: u64,
    /// Pooled block lookups served from a resident frame.
    pub hits: u64,
    /// Pooled block lookups that required a frame fill.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back (on eviction, sync, or drop).
    pub writebacks: u64,
}

impl PhysSnapshot {
    /// Counters accumulated since `earlier` (all fields are monotone).
    pub fn since(&self, earlier: &PhysSnapshot) -> PhysSnapshot {
        PhysSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
        }
    }

    /// Total physical block transfers (reads + writes).
    pub fn transfers(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of pooled lookups served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for PhysSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} physical transfers ({} reads, {} writes); {} cache hits, {} misses ({:.1}% hit rate)",
            self.transfers(),
            self.reads,
            self.writes,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_rates() {
        let s = PhysStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        let a = s.snapshot();
        assert_eq!(a.transfers(), 3);
        assert!((a.hit_rate() - 0.75).abs() < 1e-9);

        s.record_eviction();
        s.record_writebacks(1);
        let d = s.snapshot().since(&a);
        assert_eq!(d.writes, 1);
        assert_eq!(d.evictions, 1);
        assert_eq!(d.writebacks, 1);
        assert_eq!(d.reads, 0);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(PhysSnapshot::default().hit_rate(), 0.0);
        let text = PhysSnapshot::default().to_string();
        assert!(text.contains("0 physical transfers"));
    }
}
