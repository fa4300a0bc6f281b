//! Counted buffer pools over block-granular files.
//!
//! The paper's evaluation is phrased entirely in the Aggarwal–Vitter model:
//! what matters for Figures 6–9 is the number of *logical* block transfers an
//! algorithm issues, not how the bytes actually reach a storage device. This
//! crate separates the two concerns:
//!
//! * [`Pager`] multiplexes every scratch file of one environment — one
//!   `std::fs::File` per path — over one fixed-capacity
//!   [buffer pool](Pager) with LRU eviction and dirty-page write-back. With
//!   capacity 0 the pager degenerates to a pass-through in which every
//!   block access is a physical transfer. Scratch in RAM is a scratch
//!   directory on a tmpfs, not a second code path.
//! * [`SharedPager`] is the concurrent complement for *finished* artifacts:
//!   a read-only striped-lock LRU pool over one immutable file whose
//!   `read_at` takes `&self`, so any number of query threads share the hot
//!   pages of one open index (see `ce-graph`'s `SccIndexReader`).
//!
//! The pool counts **physical** transfers ([`PhysStats`]): blocks actually
//! moved between a frame and a file, plus cache hits and misses. The
//! *logical* model counters of the reproduction live one layer up (in
//! `ce-extmem`'s `IoStats`) and are completely unaffected by the pool — a
//! cache hit still costs one logical I/O, exactly as the model prices it.
//!
//! Deterministic fault injection ("fail the N-th physical operation from
//! now") also lives here, so that faults fire where hardware would fail:
//! every block transfer (miss fill, pass-through access, eviction or sync
//! write-back) and every fsync of [`Pager::sync`] consumes the countdown,
//! while a cached hit performs no operation and does not.

pub mod pool;
pub mod shared;
pub mod stats;

pub use pool::{FileId, Pager};
pub use shared::SharedPager;
pub use stats::{PhysSnapshot, PhysStats};
