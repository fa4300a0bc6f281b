//! Counted I/O statistics.
//!
//! Every block transfer performed through [`crate::file::CountedFile`] is
//! recorded here and classified as *sequential* (the offset continues where the
//! previous access on the same file handle ended) or *random* (anything else).
//! The distinction matters because the paper's central argument is that the
//! DFS-based baseline is dominated by random I/Os while Ext-SCC uses only
//! sequential scans and external sorts.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic I/O counters for one [`crate::DiskEnv`].
#[derive(Debug, Default)]
pub struct IoStats {
    seq_reads: AtomicU64,
    rand_reads: AtomicU64,
    seq_writes: AtomicU64,
    rand_writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        IoStats::default()
    }

    pub(crate) fn record_read(&self, blocks: u64, bytes: u64, sequential: bool) {
        if sequential {
            self.seq_reads.fetch_add(blocks, Ordering::Relaxed);
        } else {
            self.rand_reads.fetch_add(blocks, Ordering::Relaxed);
        }
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, blocks: u64, bytes: u64, sequential: bool) {
        if sequential {
            self.seq_writes.fetch_add(blocks, Ordering::Relaxed);
        } else {
            self.rand_writes.fetch_add(blocks, Ordering::Relaxed);
        }
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            rand_reads: self.rand_reads.load(Ordering::Relaxed),
            seq_writes: self.seq_writes.load(Ordering::Relaxed),
            rand_writes: self.rand_writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Total block I/Os so far (reads + writes, sequential + random).
    pub fn total_ios(&self) -> u64 {
        self.snapshot().total_ios()
    }
}

/// A point-in-time copy of [`IoStats`]; supports differencing so callers can
/// attribute I/Os to phases (contraction iteration k, semi-external base case,
/// expansion iteration k, ...).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Sequential block reads.
    pub seq_reads: u64,
    /// Random block reads.
    pub rand_reads: u64,
    /// Sequential block writes.
    pub seq_writes: u64,
    /// Random block writes.
    pub rand_writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

impl IoSnapshot {
    /// Counters accumulated since `earlier` (all fields must be monotone).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            seq_writes: self.seq_writes - earlier.seq_writes,
            rand_writes: self.rand_writes - earlier.rand_writes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    /// Total block I/Os (the paper's y-axis "Number of I/Os").
    pub fn total_ios(&self) -> u64 {
        self.seq_reads + self.rand_reads + self.seq_writes + self.rand_writes
    }

    /// Random block I/Os only (reads + writes).
    pub fn random_ios(&self) -> u64 {
        self.rand_reads + self.rand_writes
    }

    /// Sequential block I/Os only (reads + writes).
    pub fn sequential_ios(&self) -> u64 {
        self.seq_reads + self.seq_writes
    }

    /// Element-wise sum; convenient when aggregating per-phase diffs.
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads + other.seq_reads,
            rand_reads: self.rand_reads + other.rand_reads,
            seq_writes: self.seq_writes + other.seq_writes,
            rand_writes: self.rand_writes + other.rand_writes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} I/Os ({} seq, {} rand; {:.1} MiB read, {:.1} MiB written)",
            self.total_ios(),
            self.sequential_ios(),
            self.random_ios(),
            self.bytes_read as f64 / (1 << 20) as f64,
            self.bytes_written as f64 / (1 << 20) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_totals() {
        let s = IoStats::new();
        s.record_read(3, 3000, true);
        s.record_read(2, 2000, false);
        s.record_write(1, 500, true);
        let a = s.snapshot();
        assert_eq!(a.total_ios(), 6);
        assert_eq!(a.random_ios(), 2);
        assert_eq!(a.sequential_ios(), 4);

        s.record_write(4, 4096, false);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.total_ios(), 4);
        assert_eq!(d.rand_writes, 4);
        assert_eq!(d.bytes_written, 4096);
    }

    #[test]
    fn plus_adds_fields() {
        let a = IoSnapshot {
            seq_reads: 1,
            rand_reads: 2,
            seq_writes: 3,
            rand_writes: 4,
            bytes_read: 5,
            bytes_written: 6,
        };
        let b = a.plus(&a);
        assert_eq!(b.total_ios(), 20);
        assert_eq!(b.bytes_read, 10);
    }

    #[test]
    fn display_is_humane() {
        let a = IoSnapshot::default();
        let text = a.to_string();
        assert!(text.contains("0 I/Os"));
    }
}
