//! Typed record files and block-buffered sequential streams.
//!
//! [`ExtFile<T>`] is a handle to an immutable on-disk sequence of `T` records.
//! Files are write-once (via [`RecordWriter`]) and then read any number of
//! times (via [`RecordReader`] / [`PeekReader`]). Readers and writers buffer
//! exactly one block, so one block transfer is counted per `B` bytes streamed
//! — the `scan(m)` primitive of the I/O model.

use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::env::DiskEnv;
use crate::file::CountedFile;
use crate::record::Record;

/// A handle to an immutable typed record file inside a [`DiskEnv`].
///
/// The underlying file is deleted when the last clone of the handle drops.
pub struct ExtFile<T: Record> {
    inner: Arc<FileInner>,
    len: u64,
    _marker: PhantomData<fn() -> T>,
}

struct FileInner {
    path: PathBuf,
    env: DiskEnv,
}

impl Drop for FileInner {
    fn drop(&mut self) {
        self.env.remove_scratch(&self.path);
    }
}

impl<T: Record> Clone for ExtFile<T> {
    fn clone(&self) -> Self {
        ExtFile {
            inner: Arc::clone(&self.inner),
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Record> std::fmt::Debug for ExtFile<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtFile")
            .field("path", &self.inner.path)
            .field("records", &self.len)
            .finish()
    }
}

impl<T: Record> ExtFile<T> {
    /// Number of records in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the file in bytes.
    pub fn bytes(&self) -> u64 {
        self.len * T::SIZE as u64
    }

    /// Path of the backing file (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// The environment this file belongs to.
    pub fn env(&self) -> &DiskEnv {
        &self.inner.env
    }

    /// Opens a sequential reader positioned at the first record.
    pub fn reader(&self) -> io::Result<RecordReader<T>> {
        RecordReader::open(self)
    }

    /// Opens a peekable sequential reader ([`PeekReader`]).
    pub fn peek_reader(&self) -> io::Result<PeekReader<T>> {
        use crate::sorted::SortedStream;
        Ok(self.stream()?.peeked())
    }

    /// Opens the file as a [`crate::sorted::SortedStream`] positioned at the
    /// first record (the stream keeps the file alive).
    pub fn stream(&self) -> io::Result<crate::sorted::FileStream<T>> {
        crate::sorted::FileStream::open(self)
    }

    /// Reads the whole file into memory. Intended for tests, for metadata
    /// that provably fits in the budget, and for the semi-external base case.
    pub fn read_all(&self) -> io::Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut r = self.reader()?;
        while let Some(x) = r.next()? {
            out.push(x);
        }
        Ok(out)
    }

    /// Creates an empty file.
    pub fn empty(env: &DiskEnv, label: &str) -> io::Result<ExtFile<T>> {
        env.writer::<T>(label)?.finish()
    }
}

/// Streaming writer producing an [`ExtFile<T>`].
pub struct RecordWriter<T: Record> {
    file: CountedFile,
    env: DiskEnv,
    path: PathBuf,
    buf: Vec<u8>,
    filled: usize,
    offset: u64,
    count: u64,
    finished: bool,
    _marker: PhantomData<fn(T)>,
}

impl<T: Record> RecordWriter<T> {
    pub(crate) fn create(env: DiskEnv, label: &str) -> io::Result<RecordWriter<T>> {
        assert!(T::SIZE > 0, "zero-sized records are not supported");
        let block = env.config().block_size;
        // Buffer an integral number of records, at least one block's worth.
        let per_block = (block / T::SIZE).max(1);
        let path = env.fresh_path(label);
        let file = CountedFile::create(&env, &path)?;
        Ok(RecordWriter {
            file,
            env,
            path,
            buf: vec![0u8; per_block * T::SIZE],
            filled: 0,
            offset: 0,
            count: 0,
            finished: false,
            _marker: PhantomData,
        })
    }

    /// Appends one record.
    pub fn push(&mut self, value: T) -> io::Result<()> {
        if self.filled + T::SIZE > self.buf.len() {
            self.flush()?;
        }
        value.encode(&mut self.buf[self.filled..self.filled + T::SIZE]);
        self.filled += T::SIZE;
        self.count += 1;
        Ok(())
    }

    /// Appends every record from an iterator.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) -> io::Result<()> {
        for v in iter {
            self.push(v)?;
        }
        Ok(())
    }

    /// Appends every record of `values` — the batched counterpart of
    /// [`push`](RecordWriter::push), encoding block-sized stretches in a
    /// tight loop.
    pub fn push_slice(&mut self, values: &[T]) -> io::Result<()> {
        let mut rest = values;
        while !rest.is_empty() {
            if self.filled + T::SIZE > self.buf.len() {
                self.flush()?;
            }
            let fit = ((self.buf.len() - self.filled) / T::SIZE).min(rest.len());
            let (now, later) = rest.split_at(fit);
            for v in now {
                v.encode(&mut self.buf[self.filled..self.filled + T::SIZE]);
                self.filled += T::SIZE;
            }
            self.count += fit as u64;
            rest = later;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.filled > 0 {
            self.file.write_at(self.offset, &self.buf[..self.filled])?;
            self.offset += self.filled as u64;
            self.filled = 0;
        }
        Ok(())
    }

    /// Number of records pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Completes the file and returns the immutable handle.
    pub fn finish(mut self) -> io::Result<ExtFile<T>> {
        self.flush()?;
        self.finished = true;
        Ok(ExtFile {
            inner: Arc::new(FileInner {
                path: std::mem::take(&mut self.path),
                env: self.env.clone(),
            }),
            len: self.count,
            _marker: PhantomData,
        })
    }
}

impl<T: Record> Drop for RecordWriter<T> {
    fn drop(&mut self) {
        if !self.finished {
            // Abandoned writer: remove the partial file.
            self.env.remove_scratch(&self.path);
        }
    }
}

/// Streaming reader over an [`ExtFile<T>`].
///
/// `next` is a fallible iterator step: `Ok(None)` is end-of-stream, errors
/// surface I/O problems (including injected faults).
pub struct RecordReader<T: Record> {
    file: CountedFile,
    /// Keeps the underlying file alive (and un-removed in the pager) even if
    /// every `ExtFile` clone drops while this reader is still streaming —
    /// the moral equivalent of POSIX unlink-while-open semantics.
    _keepalive: Arc<FileInner>,
    buf: Vec<u8>,
    buf_len: usize,
    buf_pos: usize,
    offset: u64,
    remaining: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Record> RecordReader<T> {
    fn open(f: &ExtFile<T>) -> io::Result<RecordReader<T>> {
        let env = f.env();
        let block = env.config().block_size;
        let per_block = (block / T::SIZE).max(1);
        let file = CountedFile::open_read(env, f.path())?;
        Ok(RecordReader {
            file,
            _keepalive: Arc::clone(&f.inner),
            buf: vec![0u8; per_block * T::SIZE],
            buf_len: 0,
            buf_pos: 0,
            offset: 0,
            remaining: f.len(),
            _marker: PhantomData,
        })
    }

    /// Refills the block buffer. The caller guarantees `remaining > 0` and
    /// an empty buffer; the read is priced identically to the per-record
    /// path (one logical transfer per block).
    fn refill(&mut self) -> io::Result<()> {
        let want = self
            .buf
            .len()
            .min((self.remaining as usize).saturating_mul(T::SIZE));
        let n = self.file.read_at(self.offset, &mut self.buf[..want])?;
        if n < T::SIZE {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "record file truncated",
            ));
        }
        self.buf_len = n - n % T::SIZE;
        self.buf_pos = 0;
        self.offset += self.buf_len as u64;
        Ok(())
    }

    /// Returns the next record, or `None` at end of stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> io::Result<Option<T>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.buf_pos == self.buf_len {
            self.refill()?;
        }
        let rec = T::decode(&self.buf[self.buf_pos..self.buf_pos + T::SIZE]);
        self.buf_pos += T::SIZE;
        self.remaining -= 1;
        Ok(Some(rec))
    }

    /// Decodes up to `n` records, appending them to `out` (which is *not*
    /// cleared). Returns how many records were appended — fewer than `n`
    /// only at end of stream. Whole buffered blocks are decoded in a tight
    /// loop, so the per-record cost is one `decode` and one `Vec` push; the
    /// logical I/O count is identical to `n` calls of
    /// [`next`](RecordReader::next).
    pub fn next_batch(&mut self, out: &mut Vec<T>, n: usize) -> io::Result<usize> {
        let mut got = 0usize;
        while got < n && self.remaining > 0 {
            if self.buf_pos == self.buf_len {
                self.refill()?;
            }
            let avail = (self.buf_len - self.buf_pos) / T::SIZE;
            let take = avail.min(n - got).min(self.remaining as usize);
            out.reserve(take);
            for _ in 0..take {
                out.push(T::decode(&self.buf[self.buf_pos..self.buf_pos + T::SIZE]));
                self.buf_pos += T::SIZE;
            }
            self.remaining -= take as u64;
            got += take;
        }
        Ok(got)
    }

    /// Records not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

/// A file reader with one-record lookahead — [`crate::sorted::Peeked`] over
/// a [`crate::sorted::FileStream`], the building block of every merge join
/// in the workspace.
pub type PeekReader<T> = crate::sorted::Peeked<T, crate::sorted::FileStream<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;
    use crate::sorted::SortedStream;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    #[test]
    fn write_read_roundtrip_many_blocks() {
        let env = env();
        let mut w = env.writer::<(u32, u32)>("pairs").unwrap();
        for i in 0..1000u32 {
            w.push((i, i * 2)).unwrap();
        }
        let f = w.finish().unwrap();
        assert_eq!(f.len(), 1000);
        assert_eq!(f.bytes(), 8000);
        let back = f.read_all().unwrap();
        assert_eq!(back.len(), 1000);
        assert_eq!(back[513], (513, 1026));
    }

    #[test]
    fn empty_file_reads_nothing() {
        let env = env();
        let f = ExtFile::<u64>::empty(&env, "e").unwrap();
        assert!(f.is_empty());
        assert_eq!(f.read_all().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn reader_counts_sequential_ios_only() {
        let env = env();
        let items: Vec<u32> = (0..512).collect();
        let f = env.file_from_slice("seq", &items).unwrap();
        let before = env.stats().snapshot();
        let _ = f.read_all().unwrap();
        let d = env.stats().snapshot().since(&before);
        // 512 * 4 bytes = 2048 bytes = 32 blocks of 64B; first read random.
        assert_eq!(d.total_ios(), 32);
        assert!(d.rand_reads <= 1);
    }

    #[test]
    fn reader_outlives_dropped_file_handles() {
        // Unlink-while-open semantics: dropping the last ExtFile clone must
        // not invalidate a reader that is still streaming.
        let env = env();
        let f = env.file_from_slice("keep", &(0u32..300).collect::<Vec<_>>()).unwrap();
        let mut r = f.reader().unwrap();
        assert_eq!(r.next().unwrap(), Some(0));
        drop(f);
        let mut count = 1;
        while let Some(v) = r.next().unwrap() {
            assert_eq!(v, count);
            count += 1;
        }
        assert_eq!(count, 300);
    }

    #[test]
    fn file_deleted_when_last_handle_drops() {
        let env = env();
        let f = env.file_from_slice("d", &[1u32, 2, 3]).unwrap();
        let path = f.path().to_path_buf();
        let f2 = f.clone();
        drop(f);
        assert!(path.exists());
        drop(f2);
        assert!(!path.exists());
    }

    #[test]
    fn abandoned_writer_removes_partial_file() {
        let env = env();
        let mut w = env.writer::<u32>("partial").unwrap();
        w.push(1).unwrap();
        let path = env.root().join(
            std::fs::read_dir(env.root())
                .unwrap()
                .next()
                .unwrap()
                .unwrap()
                .file_name(),
        );
        drop(w);
        assert!(!path.exists());
    }

    #[test]
    fn peek_reader_lookahead() {
        let env = env();
        let f = env.file_from_slice("p", &[10u32, 20, 30]).unwrap();
        let mut p = f.peek_reader().unwrap();
        assert_eq!(p.peek().unwrap(), Some(&10));
        assert_eq!(p.peek().unwrap(), Some(&10));
        assert_eq!(p.next().unwrap(), Some(10));
        assert_eq!(p.next().unwrap(), Some(20));
        assert_eq!(p.peek().unwrap(), Some(&30));
        assert_eq!(p.next().unwrap(), Some(30));
        assert_eq!(p.next().unwrap(), None);
        assert_eq!(p.peek().unwrap(), None);
    }

    #[test]
    fn drain_while_groups() {
        let env = env();
        let f = env
            .file_from_slice("g", &[(1u32, 1u32), (1, 2), (2, 3), (3, 4)])
            .unwrap();
        let mut p = f.peek_reader().unwrap();
        let mut grp = Vec::new();
        p.drain_while(|r| r.0 == 1, |r| grp.push(r)).unwrap();
        assert_eq!(grp, vec![(1, 1), (1, 2)]);
        assert_eq!(p.next().unwrap(), Some((2, 3)));
    }

    #[test]
    fn fault_during_read_is_an_error() {
        let env = env();
        let items: Vec<u32> = (0..512).collect();
        let f = env.file_from_slice("f", &items).unwrap();
        env.inject_fault_after(2);
        let mut r = f.reader().unwrap();
        let mut saw_err = false;
        for _ in 0..512 {
            match r.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    saw_err = true;
                    break;
                }
            }
        }
        env.clear_fault();
        assert!(saw_err);
    }
}
