//! Block-storage backends and a counted buffer pool.
//!
//! The paper's evaluation is phrased entirely in the Aggarwal–Vitter model:
//! what matters for Figures 6–9 is the number of *logical* block transfers an
//! algorithm issues, not how the bytes actually reach a storage device. This
//! crate separates the two concerns:
//!
//! * [`BlockBackend`] is the storage substrate: a block-granular
//!   `read_block` / `write_block` / `sync` / `len` surface with two
//!   implementations — [`FileBackend`] (one `std::fs::File` per scratch
//!   file, the faithful on-disk path) and [`MemBackend`] (a growable byte
//!   vector, for serving-style workloads and fast tests);
//! * [`Pager`] multiplexes every scratch file of one environment over one
//!   fixed-capacity [buffer pool](Pager) with LRU eviction and dirty-page
//!   write-back. With capacity 0 the pager degenerates to a
//!   pass-through in which every block access is a physical transfer.
//! * [`SharedPager`] is the concurrent complement for *finished* artifacts:
//!   a read-only striped-lock LRU pool over one immutable file whose
//!   `read_at` takes `&self`, so any number of query threads share the hot
//!   pages of one open index (see `ce-graph`'s `SccIndexReader`).
//!
//! The pool counts **physical** transfers ([`PhysStats`]): blocks actually
//! moved between a frame and a backend, plus cache hits and misses. The
//! *logical* model counters of the reproduction live one layer up (in
//! `ce-extmem`'s `IoStats`) and are completely unaffected by the pool — a
//! cache hit still costs one logical I/O, exactly as the model prices it.
//!
//! Deterministic fault injection ("fail the N-th transfer from now") also
//! lives here, so that faults fire on *physical* transfers: a cached hit
//! performs no transfer and therefore does not consume the countdown, while
//! every miss fill, eviction write-back and explicit sync does.

pub mod backend;
pub mod pool;
pub mod shared;
pub mod stats;

pub use backend::{BackendKind, BlockBackend, FileBackend, MemBackend};
pub use pool::{FileId, Pager};
pub use shared::SharedPager;
pub use stats::{PhysSnapshot, PhysStats};
