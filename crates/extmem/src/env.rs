//! Disk environment: owns a scratch namespace, the pager that stores its
//! blocks, the shared I/O counters, and the fault-injection hook.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ce_pager::{BackendKind, Pager, PhysSnapshot};

use crate::config::IoConfig;
use crate::file::CountedFile;
use crate::record::Record;
use crate::stats::IoStats;
use crate::stream::RecordWriter;

/// Worker-thread budget of `ce_core`'s `run_pair`, which runs the
/// contraction operators' independent sort and join chains side by side.
///
/// The knob changes **wall-clock only**: each chain charges the logical
/// [`IoStats`] through its own handles, so the counters — and the computed
/// partition — are bit-identical to the single-threaded schedule for every
/// thread count. The default is 1 (fully sequential, the seed behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Maximum worker threads `run_pair` may use (clamped to at least 1;
    /// any value above 1 runs its two jobs on two threads).
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism { threads: 1 }
    }
}

/// Storage options of a [`DiskEnv`]: which [`BackendKind`] stores scratch
/// blocks and how many block frames the buffer pool holds.
///
/// The default (`file` backend, no pool) reproduces the seed behaviour
/// exactly: every logical block access is one physical transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvOptions {
    /// Substrate for scratch files.
    pub backend: BackendKind,
    /// Buffer-pool capacity in block frames; 0 disables the pool
    /// (pass-through: nothing is cached and every block of every access is
    /// a physical transfer — plus a read-modify-write read for writes that
    /// only partially cover a live block).
    pub cache_blocks: usize,
    /// Worker-thread budget of `run_pair` (wall-clock only; logical I/O is
    /// the same at every thread count).
    pub par: Parallelism,
}

impl EnvOptions {
    /// Seed-faithful mode: on-disk files, no buffer pool.
    pub fn unpooled() -> EnvOptions {
        EnvOptions::default()
    }

    /// On-disk files behind a pool sized from the memory budget (`M / B`
    /// frames — the buffer pool models the machine's real page cache, which
    /// the I/O model prices at zero logical cost).
    pub fn pooled(cfg: &IoConfig) -> EnvOptions {
        EnvOptions {
            backend: BackendKind::File,
            cache_blocks: cfg.blocks_in_memory(),
            ..EnvOptions::default()
        }
    }

    /// Pure in-memory storage (serving-style workloads, fast tests), with a
    /// budget-sized pool in front.
    pub fn mem(cfg: &IoConfig) -> EnvOptions {
        EnvOptions {
            backend: BackendKind::Mem,
            cache_blocks: cfg.blocks_in_memory(),
            ..EnvOptions::default()
        }
    }

    /// Strict `M`-total accounting: splits one `mem`-byte budget between the
    /// buffer pool and the algorithm instead of granting the pool its frames
    /// *on top of* `M` (what [`EnvOptions::pooled`] does, modelling the OS
    /// page cache the I/O model prices at zero).
    ///
    /// Half of the budget's blocks (but always leaving the algorithm at
    /// least two) become pool frames; the rest stays in the returned
    /// [`IoConfig`]'s `mem_budget`, so `pool_bytes + cfg.mem_budget == mem`
    /// exactly. Pass both values to the environment constructor:
    ///
    /// ```
    /// use ce_extmem::{DiskEnv, EnvOptions};
    /// let (cfg, opts) = EnvOptions::strict(64 << 10, 4 << 10);
    /// assert_eq!(opts.cache_blocks * cfg.block_size + cfg.mem_budget, 64 << 10);
    /// let env = DiskEnv::new_temp_with(cfg, opts).unwrap();
    /// assert_eq!(env.options().cache_blocks, 8);
    /// ```
    ///
    /// # Panics
    /// Panics (via [`IoConfig::new`]) if `block == 0` or `mem < 2 * block` —
    /// under strict accounting there is no budget the split could satisfy.
    pub fn strict(mem: usize, block: usize) -> (IoConfig, EnvOptions) {
        assert!(block > 0, "block size must be positive");
        let total_blocks = mem / block;
        let pool = (total_blocks / 2).min(total_blocks.saturating_sub(2));
        let cfg = IoConfig::new(block, mem - pool * block);
        (
            cfg,
            EnvOptions {
                backend: BackendKind::File,
                cache_blocks: pool,
                ..EnvOptions::default()
            },
        )
    }

    /// Replaces the backend kind.
    pub fn with_backend(mut self, backend: BackendKind) -> EnvOptions {
        self.backend = backend;
        self
    }

    /// Replaces the pool capacity (0 disables the pool).
    pub fn with_cache_blocks(mut self, cache_blocks: usize) -> EnvOptions {
        self.cache_blocks = cache_blocks;
        self
    }

    /// Replaces the worker-thread budget (0 is clamped to 1 — callers that
    /// must *reject* 0 validate before building options).
    pub fn with_threads(mut self, threads: usize) -> EnvOptions {
        self.par = Parallelism {
            threads: threads.max(1),
        };
        self
    }
}

/// A handle to a scratch namespace in which all external files of one
/// computation live.
///
/// * cheap to clone (`Arc` inside); every [`crate::ExtFile`] holds a clone so
///   the namespace outlives all files created in it;
/// * all I/O through files created here is counted in one [`IoStats`]
///   (**logical** model I/Os) and in one [`PhysSnapshot`] (**physical**
///   backend transfers) — see the crate docs for the distinction;
/// * blocks live wherever [`EnvOptions::backend`] says, behind an optional
///   buffer pool ([`EnvOptions::cache_blocks`]);
/// * supports deterministic fault injection ("fail the N-th *physical* block
///   transfer from now") so tests can verify that every algorithm surfaces
///   I/O errors instead of panicking or producing truncated results.
#[derive(Clone)]
pub struct DiskEnv {
    inner: Arc<EnvInner>,
}

struct EnvInner {
    root: PathBuf,
    cfg: IoConfig,
    opts: EnvOptions,
    pager: Pager,
    stats: IoStats,
    next_id: AtomicU64,
    owns_dir: bool,
}

impl DiskEnv {
    /// Creates a fresh scratch directory under the system temp dir, with
    /// seed-faithful storage ([`EnvOptions::unpooled`]).
    ///
    /// The directory (and everything in it) is removed when the last clone of
    /// this environment is dropped.
    pub fn new_temp(cfg: IoConfig) -> io::Result<DiskEnv> {
        DiskEnv::new_temp_with(cfg, EnvOptions::unpooled())
    }

    /// Like [`DiskEnv::new_temp`], with explicit storage options. With the
    /// in-memory backend no directory is created (the "paths" are pure
    /// namespace keys).
    pub fn new_temp_with(cfg: IoConfig, opts: EnvOptions) -> io::Result<DiskEnv> {
        let mut base = std::env::temp_dir();
        let unique = format!("ce-scc-{}-{:x}", std::process::id(), fresh_dir_nonce());
        base.push(unique);
        let owns_dir = opts.backend == BackendKind::File;
        if owns_dir {
            std::fs::create_dir_all(&base)?;
        }
        Ok(DiskEnv::build(base, cfg, opts, owns_dir))
    }

    /// Uses an existing directory as scratch space. The directory is *not*
    /// removed on drop; individual scratch files still are.
    pub fn new_in(dir: &Path, cfg: IoConfig) -> io::Result<DiskEnv> {
        DiskEnv::new_in_with(dir, cfg, EnvOptions::unpooled())
    }

    /// Like [`DiskEnv::new_in`], with explicit storage options.
    pub fn new_in_with(dir: &Path, cfg: IoConfig, opts: EnvOptions) -> io::Result<DiskEnv> {
        if opts.backend == BackendKind::File {
            std::fs::create_dir_all(dir)?;
        }
        Ok(DiskEnv::build(dir.to_path_buf(), cfg, opts, false))
    }

    fn build(root: PathBuf, cfg: IoConfig, opts: EnvOptions, owns_dir: bool) -> DiskEnv {
        DiskEnv {
            inner: Arc::new(EnvInner {
                root,
                pager: Pager::new(cfg.block_size, opts.cache_blocks, opts.backend),
                cfg,
                opts,
                stats: IoStats::new(),
                next_id: AtomicU64::new(0),
                owns_dir,
            }),
        }
    }

    /// The I/O-model parameters this environment enforces.
    pub fn config(&self) -> IoConfig {
        self.inner.cfg
    }

    /// The storage options this environment was created with.
    pub fn options(&self) -> EnvOptions {
        self.inner.opts
    }

    /// Shared **logical** I/O counters (the paper's "Number of I/Os") for
    /// everything created in this environment.
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// Worker-thread budget of `run_pair` (≥ 1; 1 = sequential).
    pub fn threads(&self) -> usize {
        self.inner.opts.par.threads.max(1)
    }

    /// **Physical** transfer counters of the underlying pager: blocks that
    /// actually crossed the backend boundary, plus cache hits and misses.
    pub fn phys(&self) -> PhysSnapshot {
        self.inner.pager.phys()
    }

    /// Opens an [`crate::IoSpan`] attributing the logical/physical I/O
    /// consumed until its drop to a named trace node (see [`crate::trace`]).
    /// Inert and essentially free when no `ce-obs` sink is installed.
    pub fn io_span(&self, name: &'static str, fields: &[ce_obs::Field]) -> crate::IoSpan {
        crate::IoSpan::start(self, name, fields)
    }

    /// The pager storing this environment's blocks.
    pub(crate) fn pager(&self) -> &Pager {
        &self.inner.pager
    }

    /// Forgets any pager state for `path` — its interned file id and every
    /// cached frame — **without touching the file on disk**. Needed when a
    /// file is replaced behind the pager (the delta engine's atomic
    /// generation swap does a tmp copy + `rename(2)` at the filesystem
    /// level): without eviction, later opens of the same path would be
    /// served the interned pre-swap inode. Any frames the caller still
    /// needs must be synced first; unknown paths are a no-op.
    pub fn evict(&self, path: &Path) {
        self.inner.pager.forget(path);
    }

    /// Root directory of the scratch space (a virtual namespace prefix for
    /// the in-memory backend).
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// Allocates a unique file path with a human-readable label (for
    /// debuggability of leftover scratch space).
    pub(crate) fn fresh_path(&self, label: &str) -> PathBuf {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let safe: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .take(48)
            .collect();
        self.inner.root.join(format!("{id:06}-{safe}.bin"))
    }

    /// Removes one scratch file from the pager (and, for file-backed
    /// environments, from the filesystem).
    pub(crate) fn remove_scratch(&self, path: &Path) {
        let _ = self.inner.pager.remove(path);
    }

    /// Creates a raw counted byte file on a fresh scratch path. Most callers
    /// want the typed [`DiskEnv::writer`] instead; this is the low-level
    /// surface used by page-level data structures and tests.
    pub fn raw_file(&self, label: &str) -> io::Result<CountedFile> {
        let path = self.fresh_path(label);
        CountedFile::create(self, &path)
    }

    /// Opens a typed record writer on a fresh scratch file.
    pub fn writer<T: Record>(&self, label: &str) -> io::Result<RecordWriter<T>> {
        RecordWriter::create(self.clone(), label)
    }

    /// Builds an [`crate::ExtFile`] directly from an in-memory slice.
    /// Convenient in tests and for small metadata files.
    pub fn file_from_slice<T: Record>(
        &self,
        label: &str,
        items: &[T],
    ) -> io::Result<crate::ExtFile<T>> {
        let mut w = self.writer(label)?;
        for item in items {
            w.push(*item)?;
        }
        w.finish()
    }

    /// Arranges for the `n`-th **physical** block transfer from now
    /// (1-based) to fail with an injected [`io::Error`]. All subsequent
    /// transfers fail too until [`DiskEnv::clear_fault`] is called.
    ///
    /// The countdown is consumed once per physical *block*: a multi-block
    /// access steps it several times, and an unaligned unpooled write steps
    /// it for its read-modify-write read too (historically it was one step
    /// per `CountedFile` call — calibrate fault points against
    /// [`DiskEnv::phys`], not against logical I/O counts). With a buffer
    /// pool, cache hits move no bytes and therefore do not consume the
    /// countdown — but every miss fill, eviction write-back, and sync does,
    /// so a fault can never be skipped by caching alone.
    pub fn inject_fault_after(&self, n: u64) {
        self.inner.pager.inject_fault_after(n);
    }

    /// Disables fault injection.
    pub fn clear_fault(&self) {
        self.inner.pager.clear_fault();
    }

    /// Consumes one step of the fault countdown (the pager calls the same
    /// hook before every physical transfer).
    #[cfg(test)]
    pub(crate) fn check_fault(&self) -> io::Result<()> {
        self.inner.pager.check_fault()
    }
}

impl std::fmt::Debug for DiskEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskEnv")
            .field("root", &self.inner.root)
            .field("cfg", &self.inner.cfg)
            .field("opts", &self.inner.opts)
            .finish()
    }
}

impl Drop for EnvInner {
    fn drop(&mut self) {
        if self.owns_dir {
            // The whole directory is about to go: skip write-backs.
            self.pager.discard_all();
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

fn fresh_dir_nonce() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    t ^ COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_env_creates_and_removes_dir() {
        let path;
        {
            let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
            path = env.root().to_path_buf();
            assert!(path.is_dir());
        }
        assert!(!path.exists(), "scratch dir should be removed on drop");
    }

    #[test]
    fn mem_env_touches_no_filesystem() {
        let env =
            DiskEnv::new_temp_with(IoConfig::small_for_tests(), EnvOptions::mem(&IoConfig::small_for_tests()))
                .unwrap();
        assert!(!env.root().exists(), "mem env must not create a directory");
        let f = env.file_from_slice("m", &[1u32, 2, 3]).unwrap();
        assert_eq!(f.read_all().unwrap(), vec![1, 2, 3]);
        assert!(!env.root().exists());
    }

    #[test]
    fn fresh_paths_are_unique_and_sanitized() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        let a = env.fresh_path("edges/by src");
        let b = env.fresh_path("edges/by src");
        assert_ne!(a, b);
        assert!(!a.file_name().unwrap().to_str().unwrap().contains('/'));
    }

    #[test]
    fn fault_injection_counts_down() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        env.inject_fault_after(3);
        assert!(env.check_fault().is_ok());
        assert!(env.check_fault().is_ok());
        assert!(env.check_fault().is_err());
        assert!(env.check_fault().is_err(), "stays failed");
        env.clear_fault();
        assert!(env.check_fault().is_ok());
    }

    #[test]
    fn strict_split_conserves_the_budget() {
        for (mem, block) in [(64usize << 10, 4 << 10), (4096, 512), (1024, 512), (4224, 512)] {
            let (cfg, opts) = EnvOptions::strict(mem, block);
            assert_eq!(
                opts.cache_blocks * block + cfg.mem_budget,
                mem,
                "pool + algorithm must account for exactly M (mem={mem}, block={block})"
            );
            assert!(cfg.mem_budget >= 2 * block, "algorithm keeps >= 2 blocks");
            assert_eq!(opts.backend, BackendKind::File);
        }
        // Minimum budget: nothing left over for the pool.
        let (cfg, opts) = EnvOptions::strict(1024, 512);
        assert_eq!(opts.cache_blocks, 0);
        assert_eq!(cfg.mem_budget, 1024);
    }

    #[test]
    #[should_panic(expected = "M >= 2B")]
    fn strict_rejects_unsplittable_budgets() {
        let _ = EnvOptions::strict(512, 512);
    }

    #[test]
    fn persistent_file_survives_a_mem_environment() {
        let dir = std::env::temp_dir().join(format!("ce-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("artifact.bin");
        let cfg = IoConfig::small_for_tests();
        {
            let env = DiskEnv::new_temp_with(cfg, EnvOptions::mem(&cfg)).unwrap();
            let mut f = crate::file::CountedFile::create_persistent(&env, &target).unwrap();
            f.write_at(0, b"durable").unwrap();
            f.sync().unwrap();
            assert!(env.stats().total_ios() > 0, "persistent writes are counted");
        }
        assert_eq!(std::fs::read(&target).unwrap(), b"durable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pooled_env_reports_physical_savings() {
        let cfg = IoConfig::small_for_tests();
        let env = DiskEnv::new_temp_with(cfg, EnvOptions::pooled(&cfg)).unwrap();
        let items: Vec<u64> = (0..2048).collect();
        let f = env.file_from_slice("p", &items).unwrap();
        for _ in 0..4 {
            assert_eq!(f.read_all().unwrap().len(), 2048);
        }
        let logical = env.stats().snapshot().total_ios();
        let phys = env.phys();
        assert!(phys.hits > 0, "rereads must hit the pool: {phys}");
        assert!(
            phys.transfers() < logical,
            "pooled physical transfers ({}) must undercut logical I/Os ({logical})",
            phys.transfers()
        );
    }
}
