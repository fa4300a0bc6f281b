//! Streaming sorted-record pipeline: pull-based record streams that let the
//! external sort hand its **final merge pass to the consumer** instead of
//! materializing it.
//!
//! # Pass accounting
//!
//! The textbook external sort costs `(m/B)·(1 + ⌈log_{M/B−1}(r)⌉)` read
//! passes plus the same number of write passes, where `r` is the number of
//! formed runs — and then the *consumer* of the sorted file pays one more
//! `scan(m)` to read it. Whenever `r ≤ M/B − 1` (the merge fan-in), that
//! last merge pass is redundant: the consumer can pull records straight out
//! of a k-way [`MergeStream`](crate::sort::MergeStream) over the formed
//! runs, saving one full
//! `write(m) + read(m)` — about `2·m/B` logical I/Os per sort stage. The
//! same applies between any producer and consumer: a join whose output is
//! consumed exactly once can hand the records over as a stream and never
//! write them at all.
//!
//! The abstractions:
//!
//! * [`SortedStream`] — a fallible pull iterator over records, with
//!   [`materialize`](SortedStream::materialize) as the escape hatch back to
//!   an [`ExtFile`] where a real file is needed (multi-reader inputs,
//!   persisted outputs) and adapters ([`map`](SortedStream::map),
//!   [`filter`](SortedStream::filter),
//!   [`dedup_by_key`](SortedStream::dedup_by_key)) for scan-fused
//!   transformations;
//! * [`SortedSource`] — anything that can open such a stream: a
//!   materialized `&ExtFile` (via [`FileStream`]), an in-flight stream, or
//!   the formed runs of an elided sort
//!   ([`SortedRuns`](crate::sort::SortedRuns)). Every operator in
//!   [`crate::join`] and [`crate::sort`] consumes `impl SortedSource`, so
//!   `sort → join → sort` chains fuse end to end;
//! * [`Peeked`] — one-record lookahead over any stream, the building block
//!   of the merge joins.
//!
//! Streams yield records in the order their constructor guarantees (file
//! order for [`FileStream`], key order for merge streams); operators that
//! require sorted inputs document the key they expect, exactly as the
//! file-based operators always did.
//!
//! # Batched pull & buffer reuse
//!
//! Pulling one record per [`SortedStream::next`] call through a deep
//! combinator chain costs a call cascade per record — cheap in the I/O
//! model, expensive on a real CPU (the PR 5 wall-clock regression). Every
//! stream therefore also supports [`SortedStream::next_batch`], which moves
//! up to `n` records per call: file streams decode whole buffered blocks in
//! a tight loop, [`MergeStream`](crate::sort::MergeStream) repairs its heap
//! in place (and bypasses it entirely once a single run remains), and the
//! `map`/`filter`/`dedup_by_key` adapters and the join streams of
//! [`crate::join`] forward batches through a reused scratch buffer instead
//! of cascading per record. Batch consumers clear and refill one caller-owned
//! `Vec` across pulls, so the steady state allocates nothing. The default
//! batch size is [`DEFAULT_BATCH`] records — a constant amount of state, in
//! the same spirit as the constant-block buffers below. Logical I/O counts
//! are bit-identical between the batched and the per-record path: blocks are
//! still read one buffer refill at a time.
//!
//! # Memory accounting
//!
//! A fused chain holds each stage's constant-block state at once: a merge
//! stream keeps one block buffer per run (≤ fan-in, i.e. ≤ `M/B − 1`
//! blocks — the same budget the merge pass itself would have used), a join
//! keeps one block per input, and the run-formation buffer of a downstream
//! sort holds `M` bytes. This is the classical accounting of last-pass
//! elision: stage buffers overlap within a constant factor of `M`, and the
//! logical I/O counts — the metric this reproduction exists to measure —
//! are exact.

use std::io;
use std::marker::PhantomData;

use crate::env::DiskEnv;
use crate::record::Record;
use crate::stream::{ExtFile, RecordReader};

/// Default number of records moved per [`SortedStream::next_batch`] pull —
/// a constant, block-scale amount of in-flight state.
pub const DEFAULT_BATCH: usize = 256;

/// A fallible pull-based stream of records.
///
/// `next` is an iterator step: `Ok(None)` is end-of-stream, errors surface
/// I/O problems (including injected faults). Streams are single-use; the
/// provided combinators consume `self`.
pub trait SortedStream<T: Record>: Sized {
    /// Returns the next record, or `None` at end of stream.
    fn next(&mut self) -> io::Result<Option<T>>;

    /// Appends up to `n` records to `buf` (which is **not** cleared),
    /// returning how many were appended — fewer than `n` only at end of
    /// stream. Semantically identical to `n` calls of
    /// [`next`](SortedStream::next); implementations override the default to
    /// move whole blocks per call (see the module docs on batched pull).
    fn next_batch(&mut self, buf: &mut Vec<T>, n: usize) -> io::Result<usize> {
        let mut got = 0usize;
        while got < n {
            match self.next()? {
                Some(v) => {
                    buf.push(v);
                    got += 1;
                }
                None => break,
            }
        }
        Ok(got)
    }

    /// Exact number of records left, when cheaply known (used to pre-size
    /// buffers; `None` for streams whose length depends on their input).
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Drains the stream into a new file — the escape hatch where a
    /// materialized [`ExtFile`] is genuinely needed (an input read more than
    /// once, a persisted output). Costs `write(m)` logical I/Os on top of
    /// whatever producing the records costs.
    fn materialize(mut self, env: &DiskEnv, label: &str) -> io::Result<ExtFile<T>> {
        let _sp = crate::io_span!(env, "materialize");
        let mut w = env.writer::<T>(label)?;
        let mut batch: Vec<T> = Vec::with_capacity(DEFAULT_BATCH);
        loop {
            batch.clear();
            if self.next_batch(&mut batch, DEFAULT_BATCH)? == 0 {
                break;
            }
            w.push_slice(&batch)?;
        }
        w.finish()
    }

    /// Drains the stream, returning how many records it yielded (no file is
    /// written — the cheapest possible consumer).
    fn count(mut self) -> io::Result<u64> {
        let mut n = 0u64;
        let mut batch: Vec<T> = Vec::with_capacity(DEFAULT_BATCH);
        loop {
            batch.clear();
            let got = self.next_batch(&mut batch, DEFAULT_BATCH)?;
            if got == 0 {
                break;
            }
            n += got as u64;
        }
        Ok(n)
    }

    /// Transforms every record with `f` (order preserved; sortedness under a
    /// new key is the caller's claim to make).
    fn map<U, G>(self, f: G) -> MapStream<T, U, Self, G>
    where
        U: Record,
        G: FnMut(T) -> U,
    {
        MapStream {
            inner: self,
            f,
            scratch: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Keeps only records for which `pred` holds.
    fn filter<P>(self, pred: P) -> FilterStream<T, Self, P>
    where
        P: FnMut(&T) -> bool,
    {
        FilterStream {
            inner: self,
            pred,
            scratch: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Drops records whose key equals the previous record's key (adjacent
    /// dedup — full dedup when the stream is sorted by the same key).
    fn dedup_by_key<K, G>(self, key: G) -> DedupStream<T, K, Self, G>
    where
        K: PartialEq,
        G: Fn(&T) -> K,
    {
        DedupStream {
            inner: self,
            key,
            last: None,
            scratch: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Adds one-record lookahead.
    fn peeked(self) -> Peeked<T, Self> {
        Peeked {
            inner: self,
            slot: None,
            primed: false,
        }
    }
}

/// Anything that can open a [`SortedStream`]: a materialized `&ExtFile`, an
/// in-flight stream (identity), or formed sort runs awaiting their final
/// merge. Join and sort operators take `impl SortedSource` so call sites can
/// pass files and streams interchangeably.
pub trait SortedSource<T: Record> {
    /// The stream type this source opens.
    type Stream: SortedStream<T>;

    /// Opens the stream (for files: positions a reader at the first record).
    fn open_sorted(self) -> io::Result<Self::Stream>;
}

/// Implements [`SortedSource`] as the identity for a stream type.
macro_rules! stream_is_source {
    (impl[$($g:tt)*] $ty:ty => $item:ty) => {
        impl<$($g)*> $crate::sorted::SortedSource<$item> for $ty {
            type Stream = Self;
            fn open_sorted(self) -> std::io::Result<Self> {
                Ok(self)
            }
        }
    };
}
pub(crate) use stream_is_source;

impl<T: Record> SortedSource<T> for &ExtFile<T> {
    type Stream = FileStream<T>;

    fn open_sorted(self) -> io::Result<FileStream<T>> {
        self.stream()
    }
}

/// Stream over a materialized record file (keeps the file alive while
/// streaming).
pub struct FileStream<T: Record> {
    reader: RecordReader<T>,
}

impl<T: Record> FileStream<T> {
    pub(crate) fn open(file: &ExtFile<T>) -> io::Result<FileStream<T>> {
        Ok(FileStream {
            reader: file.reader()?,
        })
    }
}

impl<T: Record> SortedStream<T> for FileStream<T> {
    fn next(&mut self) -> io::Result<Option<T>> {
        self.reader.next()
    }

    fn next_batch(&mut self, buf: &mut Vec<T>, n: usize) -> io::Result<usize> {
        self.reader.next_batch(buf, n)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.reader.remaining())
    }
}

stream_is_source!(impl[T: Record] FileStream<T> => T);

/// One-record lookahead over any stream (see
/// [`SortedStream::peeked`]).
pub struct Peeked<T: Record, S: SortedStream<T>> {
    inner: S,
    slot: Option<T>,
    primed: bool,
}

impl<T: Record, S: SortedStream<T>> Peeked<T, S> {
    /// Returns the next record without consuming it.
    pub fn peek(&mut self) -> io::Result<Option<&T>> {
        if !self.primed {
            self.slot = self.inner.next()?;
            self.primed = true;
        }
        Ok(self.slot.as_ref())
    }

    /// Consumes records while `pred` holds, invoking `f` on each.
    pub fn drain_while<P, F>(&mut self, mut pred: P, mut f: F) -> io::Result<()>
    where
        P: FnMut(&T) -> bool,
        F: FnMut(T),
    {
        while let Some(v) = self.peek()? {
            if !pred(v) {
                break;
            }
            let v = self.next()?.expect("peeked record must exist");
            f(v);
        }
        Ok(())
    }
}

impl<T: Record, S: SortedStream<T>> SortedStream<T> for Peeked<T, S> {
    fn next(&mut self) -> io::Result<Option<T>> {
        if self.primed {
            self.primed = false;
            Ok(self.slot.take())
        } else {
            self.inner.next()
        }
    }

    fn next_batch(&mut self, buf: &mut Vec<T>, n: usize) -> io::Result<usize> {
        if n == 0 {
            return Ok(0);
        }
        let mut got = 0usize;
        if self.primed {
            self.primed = false;
            match self.slot.take() {
                Some(v) => {
                    buf.push(v);
                    got = 1;
                }
                // A primed empty slot means the inner stream is known-dry.
                None => return Ok(0),
            }
        }
        got += self.inner.next_batch(buf, n - got)?;
        Ok(got)
    }

    fn len_hint(&self) -> Option<u64> {
        let buffered = if self.primed && self.slot.is_some() { 1 } else { 0 };
        self.inner.len_hint().map(|n| n + buffered)
    }
}

stream_is_source!(impl[T: Record, S: SortedStream<T>] Peeked<T, S> => T);

/// Stream adapter applying a function to every record (see
/// [`SortedStream::map`]).
pub struct MapStream<T: Record, U: Record, S: SortedStream<T>, G: FnMut(T) -> U> {
    inner: S,
    f: G,
    scratch: Vec<T>,
    _marker: PhantomData<fn(T) -> U>,
}

impl<T: Record, U: Record, S: SortedStream<T>, G: FnMut(T) -> U> SortedStream<U>
    for MapStream<T, U, S, G>
{
    fn next(&mut self) -> io::Result<Option<U>> {
        Ok(self.inner.next()?.map(&mut self.f))
    }

    fn next_batch(&mut self, buf: &mut Vec<U>, n: usize) -> io::Result<usize> {
        self.scratch.clear();
        let got = self.inner.next_batch(&mut self.scratch, n)?;
        buf.reserve(got);
        for v in &self.scratch {
            buf.push((self.f)(*v));
        }
        Ok(got)
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

stream_is_source!(
    impl[T: Record, U: Record, S: SortedStream<T>, G: FnMut(T) -> U] MapStream<T, U, S, G> => U
);

/// Stream adapter dropping records that fail a predicate (see
/// [`SortedStream::filter`]).
pub struct FilterStream<T: Record, S: SortedStream<T>, P: FnMut(&T) -> bool> {
    inner: S,
    pred: P,
    scratch: Vec<T>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Record, S: SortedStream<T>, P: FnMut(&T) -> bool> SortedStream<T>
    for FilterStream<T, S, P>
{
    fn next(&mut self) -> io::Result<Option<T>> {
        while let Some(v) = self.inner.next()? {
            if (self.pred)(&v) {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn next_batch(&mut self, buf: &mut Vec<T>, n: usize) -> io::Result<usize> {
        let mut got = 0usize;
        while got < n {
            let want = n - got;
            self.scratch.clear();
            let pulled = self.inner.next_batch(&mut self.scratch, want)?;
            for v in &self.scratch {
                if (self.pred)(v) {
                    buf.push(*v);
                    got += 1;
                }
            }
            if pulled < want {
                break; // inner stream exhausted
            }
        }
        Ok(got)
    }
}

stream_is_source!(
    impl[T: Record, S: SortedStream<T>, P: FnMut(&T) -> bool] FilterStream<T, S, P> => T
);

/// Stream adapter collapsing adjacent records with equal keys (see
/// [`SortedStream::dedup_by_key`]).
pub struct DedupStream<T: Record, K: PartialEq, S: SortedStream<T>, G: Fn(&T) -> K> {
    inner: S,
    key: G,
    last: Option<K>,
    scratch: Vec<T>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Record, K: PartialEq, S: SortedStream<T>, G: Fn(&T) -> K> SortedStream<T>
    for DedupStream<T, K, S, G>
{
    fn next(&mut self) -> io::Result<Option<T>> {
        while let Some(v) = self.inner.next()? {
            let k = (self.key)(&v);
            if self.last.as_ref() != Some(&k) {
                self.last = Some(k);
                return Ok(Some(v));
            }
            self.last = Some(k);
        }
        Ok(None)
    }

    fn next_batch(&mut self, buf: &mut Vec<T>, n: usize) -> io::Result<usize> {
        let mut got = 0usize;
        while got < n {
            let want = n - got;
            self.scratch.clear();
            let pulled = self.inner.next_batch(&mut self.scratch, want)?;
            for v in &self.scratch {
                let k = (self.key)(v);
                if self.last.as_ref() != Some(&k) {
                    buf.push(*v);
                    got += 1;
                }
                self.last = Some(k);
            }
            if pulled < want {
                break; // inner stream exhausted
            }
        }
        Ok(got)
    }
}

stream_is_source!(
    impl[T: Record, K: PartialEq, S: SortedStream<T>, G: Fn(&T) -> K] DedupStream<T, K, S, G> => T
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    #[test]
    fn file_stream_round_trips_and_hints_length() {
        let env = env();
        let f = env.file_from_slice("s", &[1u32, 2, 3]).unwrap();
        let mut s = f.stream().unwrap();
        assert_eq!(s.len_hint(), Some(3));
        assert_eq!(s.next().unwrap(), Some(1));
        assert_eq!(s.len_hint(), Some(2));
        let rest = s.materialize(&env, "rest").unwrap();
        assert_eq!(rest.read_all().unwrap(), vec![2, 3]);
    }

    #[test]
    fn adapters_compose() {
        let env = env();
        let f = env.file_from_slice("a", &[1u32, 1, 2, 3, 3, 3, 4]).unwrap();
        let n = f
            .stream()
            .unwrap()
            .dedup_by_key(|&x| x)
            .filter(|&x| x % 2 == 0)
            .map(|x| x * 10)
            .count()
            .unwrap();
        assert_eq!(n, 2); // 20 and 40
        let out = f
            .stream()
            .unwrap()
            .dedup_by_key(|&x| x)
            .map(|x| (x, x))
            .materialize(&env, "pairs")
            .unwrap();
        assert_eq!(
            out.read_all().unwrap(),
            vec![(1, 1), (2, 2), (3, 3), (4, 4)]
        );
    }

    #[test]
    fn peeked_lookahead_is_transparent() {
        let env = env();
        let f = env.file_from_slice("p", &[10u32, 20]).unwrap();
        let mut p = f.stream().unwrap().peeked();
        assert_eq!(p.len_hint(), Some(2));
        assert_eq!(p.peek().unwrap(), Some(&10));
        assert_eq!(p.len_hint(), Some(2), "peeking must not shrink the hint");
        assert_eq!(p.next().unwrap(), Some(10));
        assert_eq!(p.next().unwrap(), Some(20));
        assert_eq!(p.peek().unwrap(), None);
        assert_eq!(p.next().unwrap(), None);
    }

    #[test]
    fn materialize_counts_only_the_write() {
        let env = env();
        let items: Vec<u32> = (0..256).collect();
        let f = env.file_from_slice("m", &items).unwrap();
        let before = env.stats().snapshot();
        let copy = f.stream().unwrap().materialize(&env, "copy").unwrap();
        let d = env.stats().snapshot().since(&before);
        assert_eq!(copy.len(), 256);
        // 256 u32 = 1024 B = 16 blocks read + 16 written.
        assert_eq!(d.total_ios(), 32);
    }
}
