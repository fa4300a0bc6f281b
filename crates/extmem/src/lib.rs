//! External-memory substrate for the Contract & Expand SCC library.
//!
//! This crate implements the standard I/O model of Aggarwal & Vitter, which the
//! paper ("Contract & Expand: I/O Efficient SCCs Computing", ICDE 2014) assumes
//! throughout:
//!
//! * a main memory of `M` bytes and a disk accessed in blocks of `B` bytes,
//!   with `2·B ≤ M < ‖G‖` ([`IoConfig`]);
//! * `scan(m) = Θ(m/B)` sequential block transfers ([`stream`]);
//! * `sort(m) = Θ((m/B)·log_{M/B}(m/B))` via external merge sort ([`sort`]);
//! * every block transfer is *counted* and classified as sequential or random
//!   ([`stats::IoStats`]), which is how the reproduction regenerates the
//!   "Number of I/Os" axis of the paper's Figures 6–9.
//!
//! # Logical vs. physical I/O
//!
//! Since the `ce-pager` integration the model counters above are **logical**:
//! they price every block access at one transfer, exactly as the paper does.
//! How the bytes actually move is a separate concern, delegated to the
//! [pager](ce_pager) of each [`DiskEnv`]: blocks live in files under the
//! environment's directory (a tmpfs directory keeps them in RAM), behind a
//! fixed-capacity buffer pool with LRU eviction and dirty write-back whose
//! size [`EnvOptions`] sets (0 = no pool). The pool's **physical** counters
//! ([`DiskEnv::phys`]) record block transfers plus cache hits/misses.
//!
//! The figures stay faithful because the logical counters are recorded in
//! [`file::CountedFile`] *before* the pool is consulted: a cache hit still
//! costs one logical I/O, a pooled run and an unpooled run of the same
//! algorithm report identical [`stats::IoSnapshot`]s, and only the physical
//! numbers (and wall-clock) shrink. Fault injection
//! ([`DiskEnv::inject_fault_after`]) counts physical operations — block
//! transfers and fsyncs — so injected faults fire where real hardware would
//! fail and can never be skipped by a cached hit.
//!
//! On top of the raw model the crate provides the relational plumbing the
//! paper's Algorithms 3–5 are written in: typed record files ([`ExtFile`]),
//! block-buffered readers/writers, merge/semi/anti/lookup joins over sorted
//! streams ([`join`]), and a buffered repository tree ([`brt`]) used by the
//! external-DFS baseline.
//!
//! # The streaming sorted-run pipeline
//!
//! Every sort and join both *consumes and produces* [`sorted::SortedStream`]s:
//! [`sort_streaming_by_key`] stops after run formation once at most `fan_in`
//! runs remain and hands the final merge to the consumer as a
//! [`sort::SortedRuns`] value, and each join has a `*_stream` form whose
//! output is pulled rather than written. A `sort → join → sort` chain
//! therefore fuses end to end — the only files written are the sort runs
//! and whatever the caller explicitly
//! [`materialize`](sorted::SortedStream::materialize)s — saving one full
//! `write(m) + read(m)` (≈ `2·m/B` logical I/Os) per elided stage. See
//! [`sorted`] for the pass accounting and [`sort`] for the elision rules.
//!
//! All scratch files live inside a [`DiskEnv`], are deleted on drop, and share
//! one [`stats::IoStats`] counter so experiments can report exact I/O numbers
//! per phase.
//!
//! # Observability
//!
//! Any region of engine code can be wrapped in an [`IoSpan`] (usually via the
//! [`io_span!`] macro), which attributes the exact logical and physical
//! counter deltas consumed between open and drop to a node of the `ce-obs`
//! trace tree — see [`trace`] for the counter vocabulary. With no sink
//! installed spans are inert: one branch, no snapshot, no allocation.

pub mod brt;
pub mod config;
pub mod env;
pub mod file;
pub mod join;
pub mod record;
pub mod shared;
pub mod sort;
pub mod sorted;
pub mod stats;
pub mod stream;
pub mod trace;

/// Re-export of the observability layer, so engine crates built on this one
/// can open plain (non-I/O) spans and update metrics without a direct
/// `ce-obs` dependency.
pub use ce_obs as obs;
pub use ce_pager::PhysSnapshot;
pub use config::IoConfig;
pub use env::{DiskEnv, EnvOptions};
pub use join::{
    anti_join, anti_join_stream, left_lookup_join, left_lookup_join_stream, lookup_join,
    lookup_join_stream, merge_union, merge_union_stream, semi_join, semi_join_stream, GroupCursor,
};
pub use record::Record;
pub use shared::SharedFile;
pub use sort::{
    is_sorted_by_key, sort_by_key, sort_dedup_by_key, sort_dedup_streaming_by_key,
    sort_streaming_by_key, MergeStream, SortedRuns,
};
pub use sorted::{FileStream, Peeked, SortedSource, SortedStream, DEFAULT_BATCH};
pub use stats::{IoSnapshot, IoStats};
pub use stream::{ExtFile, PeekReader, RecordReader, RecordWriter, RevRecordReader};
pub use trace::IoSpan;
