//! Property tests of the external-memory substrate: the sort/join/stream
//! operators must agree with their in-memory models under tiny blocks (so
//! every path crosses many block boundaries).

use proptest::prelude::*;

use ce_extmem::file::CountedFile;
use ce_extmem::{
    anti_join, anti_join_stream, is_sorted_by_key, left_lookup_join,
    left_lookup_join_stream, lookup_join, lookup_join_stream, merge_union, merge_union_stream,
    semi_join, semi_join_stream, sort_by_key, sort_dedup_by_key, sort_dedup_streaming_by_key,
    sort_streaming_by_key, DiskEnv, EnvOptions, IoConfig, SortedStream,
};

fn tiny_env() -> DiskEnv {
    DiskEnv::new_temp(IoConfig::new(128, 1024)).unwrap()
}

/// Drains `s` one record at a time — the reference semantics.
fn drain_next<T, S>(mut s: S) -> Vec<T>
where
    T: ce_extmem::Record,
    S: SortedStream<T>,
{
    let mut out = Vec::new();
    while let Some(v) = s.next().unwrap() {
        out.push(v);
    }
    out
}

/// Drains `s` through `next_batch` with the given request-size schedule,
/// checking the batch contract along the way: the buffer is appended to
/// (never cleared), the return value equals the number of records appended,
/// and a short return means the stream is exhausted.
fn drain_batched<T, S>(mut s: S, sizes: &[usize]) -> Vec<T>
where
    T: ce_extmem::Record + PartialEq + std::fmt::Debug,
    S: SortedStream<T>,
{
    let mut out = Vec::new();
    let mut i = 0usize;
    loop {
        let n = sizes.get(i % sizes.len().max(1)).copied().unwrap_or(7).max(1);
        i += 1;
        let before = out.len();
        let got = s.next_batch(&mut out, n).unwrap();
        assert_eq!(out.len() - before, got, "return value must count appended records");
        if got < n {
            assert!(s.next().unwrap().is_none(), "short return must mean exhausted");
            assert_eq!(s.next_batch(&mut out, 3).unwrap(), 0, "exhausted stream must stay dry");
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn stream_roundtrip(items in prop::collection::vec(any::<(u32, u64)>(), 0..500)) {
        let env = tiny_env();
        let f = env.file_from_slice("t", &items).unwrap();
        prop_assert_eq!(f.len(), items.len() as u64);
        prop_assert_eq!(f.read_all().unwrap(), items);
    }

    #[test]
    fn external_sort_equals_std_sort(items in prop::collection::vec(any::<u32>(), 0..600)) {
        let env = tiny_env();
        let f = env.file_from_slice("t", &items).unwrap();
        let sorted = sort_by_key(&env, &f, "s", |&x| x).unwrap();
        prop_assert!(is_sorted_by_key(&sorted, |&x| x).unwrap());
        let mut want = items.clone();
        want.sort_unstable();
        prop_assert_eq!(sorted.read_all().unwrap(), want);
    }

    #[test]
    fn sort_dedup_equals_btree_set(items in prop::collection::vec(0u32..64, 0..600)) {
        let env = tiny_env();
        let f = env.file_from_slice("t", &items).unwrap();
        let got = sort_dedup_by_key(&env, &f, "s", |&x| x).unwrap().read_all().unwrap();
        let want: Vec<u32> = items.iter().copied().collect::<std::collections::BTreeSet<_>>()
            .into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Last-pass elision must be invisible to the consumer: for any input
    /// and any (block, budget) configuration, the streaming sort yields the
    /// same records in the same order as the materializing sort — with and
    /// without dedup — and never yields more runs than the merge fan-in.
    #[test]
    fn streaming_sort_equals_materializing_sort(
        items in prop::collection::vec((0u32..96, any::<u16>()), 0..600),
        block_pow in 5usize..8,   // 32..128-byte blocks
        budget_blocks in 2usize..12,
    ) {
        let block = 1 << block_pow;
        let cfg = IoConfig::new(block, budget_blocks * block);
        let env = DiskEnv::new_temp(cfg).unwrap();
        let f = env.file_from_slice("t", &items).unwrap();
        let key = |r: &(u32, u16)| r.0;

        let materialized = sort_by_key(&env, &f, "m", key).unwrap().read_all().unwrap();
        let runs = sort_streaming_by_key(&env, &f, "s", key).unwrap();
        prop_assert!(runs.n_runs() <= cfg.sort_fan_in().max(2));
        let mut stream = runs.into_stream().unwrap();
        let mut streamed = Vec::new();
        while let Some(v) = stream.next().unwrap() {
            streamed.push(v);
        }
        prop_assert_eq!(&streamed, &materialized, "streaming sort diverged");

        let mat_dedup = sort_dedup_by_key(&env, &f, "md", key).unwrap().read_all().unwrap();
        let mut stream = sort_dedup_streaming_by_key(&env, &f, "sd", key)
            .unwrap()
            .into_stream()
            .unwrap();
        let mut str_dedup = Vec::new();
        while let Some(v) = stream.next().unwrap() {
            str_dedup.push(v);
        }
        prop_assert_eq!(&str_dedup, &mat_dedup, "streaming dedup sort diverged");
        let keys: Vec<u32> = str_dedup.iter().map(|r| r.0).collect();
        let want_keys: Vec<u32> = items.iter().map(|r| r.0)
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        prop_assert_eq!(keys, want_keys);
    }

    /// The batch contract: for EVERY stream combinator, `next_batch` under
    /// any request-size schedule yields exactly the records that repeated
    /// `next` yields, in the same order — including empty inputs, primed
    /// lookaheads, and both dedup settings of the run merge.
    #[test]
    fn next_batch_equals_repeated_next_for_every_combinator(
        items in prop::collection::vec((0u32..48, any::<u16>()), 0..400),
        mut bkeys in prop::collection::vec(0u32..48, 0..60),
        sizes in prop::collection::vec(1usize..97, 1..8),
    ) {
        bkeys.sort_unstable();
        bkeys.dedup();
        let env = tiny_env();
        let f = env.file_from_slice("a", &items).unwrap();
        let key = |r: &(u32, u16)| r.0;

        // FileStream.
        prop_assert_eq!(drain_batched(f.stream().unwrap(), &sizes), drain_next(f.stream().unwrap()));

        // Peeked — including one with a primed lookahead slot.
        prop_assert_eq!(
            drain_batched(f.stream().unwrap().peeked(), &sizes),
            drain_next(f.stream().unwrap())
        );
        let mut primed = f.stream().unwrap().peeked();
        let _ = primed.peek().unwrap();
        prop_assert_eq!(drain_batched(primed, &sizes), drain_next(f.stream().unwrap()));

        // map / filter / dedup_by_key, stacked.
        let combinators = || {
            f.stream().unwrap()
                .map(|(k, v)| (k / 2, v))
                .filter(|&(k, _)| k % 3 != 0)
                .dedup_by_key(|&(k, _)| k)
        };
        prop_assert_eq!(drain_batched(combinators(), &sizes), drain_next(combinators()));

        // MergeStream, dedup off and on.
        let sorted = items.clone();
        let merge = || {
            sort_streaming_by_key(&env, &f, "ms", key).unwrap().into_stream().unwrap()
        };
        prop_assert_eq!(drain_batched(merge(), &sizes), drain_next(merge()));
        let merge_dedup = || {
            sort_dedup_streaming_by_key(&env, &f, "md", key).unwrap().into_stream().unwrap()
        };
        prop_assert_eq!(drain_batched(merge_dedup(), &sizes), drain_next(merge_dedup()));
        drop(sorted);

        // Joins need sorted operands.
        let sa = sort_by_key(&env, &f, "sa", key).unwrap();
        let fb = env.file_from_slice("b", &bkeys).unwrap();
        let semi = || semi_join_stream(&sa, key, &fb, |&k| k).unwrap();
        prop_assert_eq!(drain_batched(semi(), &sizes), drain_next(semi()));
        let anti = || anti_join_stream(&sa, key, &fb, |&k| k).unwrap();
        prop_assert_eq!(drain_batched(anti(), &sizes), drain_next(anti()));

        let tb: Vec<(u32, u32)> = bkeys.iter().map(|&k| (k, k * 7)).collect();
        let ftb = env.file_from_slice("t", &tb).unwrap();
        let lookup = || {
            lookup_join_stream(&sa, key, &ftb, |r| r.0, |a, b| (a.0, b.1)).unwrap()
        };
        prop_assert_eq!(drain_batched(lookup(), &sizes), drain_next(lookup()));
        let left = || {
            left_lookup_join_stream(
                &sa, key, &ftb, |r| r.0,
                |a, m| (a.0, m.map_or(u32::MAX, |b| b.1)),
            ).unwrap()
        };
        prop_assert_eq!(drain_batched(left(), &sizes), drain_next(left()));

        // Sorted two-way union.
        let union = || merge_union_stream(&sa, &sa, key).unwrap();
        prop_assert_eq!(drain_batched(union(), &sizes), drain_next(union()));
    }

    #[test]
    fn joins_agree_with_set_semantics(
        mut a in prop::collection::vec((0u32..48, any::<u32>()), 0..200),
        mut b in prop::collection::vec(0u32..48, 0..100),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let env = tiny_env();
        let fa = env.file_from_slice("a", &a).unwrap();
        let fb = env.file_from_slice("b", &b).unwrap();
        let keys: std::collections::HashSet<u32> = b.iter().copied().collect();

        let semi = semi_join(&env, "s", &fa, |r| r.0, &fb, |&k| k).unwrap().read_all().unwrap();
        let want_semi: Vec<(u32, u32)> = a.iter().copied().filter(|r| keys.contains(&r.0)).collect();
        prop_assert_eq!(semi, want_semi);

        let anti = anti_join(&env, "t", &fa, |r| r.0, &fb, |&k| k).unwrap().read_all().unwrap();
        let want_anti: Vec<(u32, u32)> = a.iter().copied().filter(|r| !keys.contains(&r.0)).collect();
        prop_assert_eq!(anti, want_anti);
    }

    #[test]
    fn lookup_joins_agree_with_map_semantics(
        mut a in prop::collection::vec(0u32..48, 0..200),
        table in prop::collection::btree_map(0u32..48, any::<u32>(), 0..40),
    ) {
        a.sort_unstable();
        let env = tiny_env();
        let fa = env.file_from_slice("a", &a).unwrap();
        let tb: Vec<(u32, u32)> = table.iter().map(|(&k, &v)| (k, v)).collect();
        let fb = env.file_from_slice("b", &tb).unwrap();

        let inner: Vec<(u32, u32)> = lookup_join(
            &env, "i", &fa, |&k| k, &fb, |r| r.0, |k, r| (k, r.1),
        ).unwrap().read_all().unwrap();
        let want_inner: Vec<(u32, u32)> = a.iter()
            .filter_map(|k| table.get(k).map(|&v| (*k, v)))
            .collect();
        prop_assert_eq!(inner, want_inner);

        let left: Vec<(u32, u32)> = left_lookup_join(
            &env, "l", &fa, |&k| k, &fb, |r| r.0, |k, m| (k, m.map_or(u32::MAX, |r| r.1)),
        ).unwrap().read_all().unwrap();
        let want_left: Vec<(u32, u32)> = a.iter()
            .map(|k| (*k, table.get(k).copied().unwrap_or(u32::MAX)))
            .collect();
        prop_assert_eq!(left, want_left);
    }

    #[test]
    fn merge_union_is_sorted_multiset_union(
        mut a in prop::collection::vec(any::<u32>(), 0..200),
        mut b in prop::collection::vec(any::<u32>(), 0..200),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let env = tiny_env();
        let fa = env.file_from_slice("a", &a).unwrap();
        let fb = env.file_from_slice("b", &b).unwrap();
        let got = merge_union(&env, "m", &fa, &fb, |&k| k).unwrap().read_all().unwrap();
        let mut want = a.clone();
        want.extend_from_slice(&b);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dedup_sorted_model(mut items in prop::collection::vec(0u32..32, 0..300)) {
        items.sort_unstable();
        let env = tiny_env();
        let f = env.file_from_slice("a", &items).unwrap();
        let got = f
            .stream()
            .unwrap()
            .dedup_by_key(|&k| k)
            .materialize(&env, "d")
            .unwrap()
            .read_all()
            .unwrap();
        let mut want = items.clone();
        want.dedup();
        prop_assert_eq!(got, want);
    }

    /// The pager acceptance property: for ANY sequence of reads and writes,
    /// every storage variant (unpooled, pooled at 2 and 3 frames under heavy
    /// eviction pressure, pooled with everything resident) must produce
    /// byte-identical file contents, identical read results, and — because
    /// the logical model counters are priced before the pool is consulted —
    /// identical `IoStats`.
    #[test]
    fn every_storage_variant_agrees(
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..600, 1usize..96, any::<u8>()),
            1..40,
        )
    ) {
        let cfg = IoConfig::new(64, 1024);
        let variants = [
            EnvOptions::unpooled(),
            EnvOptions::unpooled().with_cache_blocks(2), // constant eviction
            EnvOptions::unpooled().with_cache_blocks(64), // everything resident
            EnvOptions::unpooled().with_cache_blocks(3),
        ];
        let mut files = Vec::new();
        for opts in variants {
            let env = DiskEnv::new_temp_with(cfg, opts).unwrap();
            let path = env.root().join("eq.bin");
            let f = CountedFile::create(&env, &path).unwrap();
            files.push((env, f, path, opts));
        }
        for &(is_write, offset, len, seed) in &ops {
            if is_write {
                let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                for (_, f, _, _) in &mut files {
                    f.write_at(offset, &data).unwrap();
                }
            } else {
                let mut results = Vec::new();
                for (_, f, _, _) in &mut files {
                    let mut buf = vec![0u8; len];
                    let n = f.read_at(offset, &mut buf).unwrap();
                    buf.truncate(n);
                    results.push(buf);
                }
                for r in &results[1..] {
                    prop_assert_eq!(r, &results[0], "read divergence at {}+{}", offset, len);
                }
            }
        }
        // Identical logical model accounting, no matter the substrate.
        let base_stats = files[0].0.stats().snapshot();
        let base_len = files[0].1.len_bytes().unwrap();
        for (env, f, _, opts) in &files {
            prop_assert_eq!(env.stats().snapshot(), base_stats, "IoStats diverged: {:?}", opts);
            prop_assert_eq!(f.len_bytes().unwrap(), base_len);
        }
        // Byte-identical contents, both through the pager...
        let mut images = Vec::new();
        for (_, f, _, _) in &mut files {
            let mut img = vec![0u8; base_len as usize];
            let n = f.read_at(0, &mut img).unwrap();
            prop_assert_eq!(n as u64, base_len);
            images.push(img);
        }
        for img in &images[1..] {
            prop_assert_eq!(img, &images[0]);
        }
        // ... and on the filesystem after a sync.
        for (_, f, path, opts) in &mut files {
            f.sync().unwrap();
            prop_assert_eq!(&std::fs::read(&path).unwrap(), &images[0], "fs divergence: {:?}", opts);
        }
    }
}
