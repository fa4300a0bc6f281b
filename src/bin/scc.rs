//! `scc` — command-line SCC computation over text or binary edge lists.
//!
//! ```text
//! scc run   --input graph.txt [--mem 64M] [--block 64K] [--baseline]
//!           [--cache-blocks N]
//!           [--out labels.txt] [--condense dag.txt] [--export-binary g.ceg]
//!           [--scratch DIR] [--stats] [--trace human|json] [--trace-wall]
//! scc plan  --input graph.txt [--mem 64M] [--block 64K]
//!           [--engine auto|semi-scc|ext-scc|ext-scc-op]
//! scc index build --input graph.txt --out graph.sccidx
//!           [--mem 64M] [--block 64K] [--cache-blocks N]
//!           [--scratch DIR] [--engine auto|semi-scc|ext-scc|ext-scc-op]
//!           [--with-condensation] [--stats]
//! scc index query --index graph.sccidx -u NODE [-v NODE] [--stats]
//! scc index apply --index graph.sccidx --input graph.txt
//!           [--add "U V"]... [--remove "U V"]... [--deltas FILE]
//!           [--mem 64M] [--stats]
//! scc index compact --index graph.sccidx --input graph.txt [--mem 64M] [--stats]
//! scc serve --index graph.sccidx [--input graph.txt] [--threads N]
//!           [--cache-blocks N] [--stats]
//! scc serve --index graph.sccidx --queries K [--batch B] [--seed S] [--threads N]
//! scc serve --self-test [--threads N] [--nodes N] [--seed S]
//! scc verify [--scale smoke|full]
//! scc --version | -V
//! ```
//!
//! Flat flags (`scc --input ...`) remain a byte-compatible alias for
//! `scc run`. Every subcommand accepts `--help`.
//!
//! `scc plan` prints the engine the planner would choose for the input
//! under the given budget — with the reason and the predicted contraction
//! passes — without running anything.
//!
//! `scc index build` runs the *planned* engine (override with `--engine`)
//! and materializes the persistent queryable index artifact; `scc index
//! query` answers `component_of` / `same_component` / `component_size`
//! from that artifact alone — no recomputation — reporting the logical
//! query I/O under `--stats`.
//!
//! `scc serve` is the concurrent query loop over one open artifact: it
//! opens the index once behind a shared read-only block pool
//! (`SccIndexReader`) and answers query lines from stdin on `--threads`
//! worker threads, each holding its own cloned handle. The line protocol
//! (one answer line per query line, errors answered inline so the loop
//! never dies mid-stream):
//!
//! ```text
//! c U            -> component_of(U) = R
//! s U V          -> same_component(U, V) = true|false
//! z U            -> component_size(U) = S
//! b U1 U2 ...    -> component_of_many(k) = R1 R2 ...
//! +U V           -> applied +(U, V): KIND, generation G   (needs --input)
//! -U V           -> applied -(U, V): KIND, generation G   (needs --input)
//! ```
//!
//! The `+U V` / `-U V` mutation ops are enabled by giving `scc serve` the
//! base graph the index was built from (`--input graph.txt`): a single
//! writer commits each mutation crash-safely through the incremental delta
//! engine ([`ce_graph::delta::DeltaEngine`]) — to the journal sidecar
//! alone unless it merges components, which writes a new checkpoint
//! artifact — so queries after the mutation line observe the mutation. A
//! deletion inside a component only marks it dirty, and its labels may
//! then be too coarse: before answering the next query line the writer
//! re-verifies every dirty component (one compact covers a run of
//! deletions), which writes a checkpoint too. The loop atomically swaps
//! the shared reader handle after a checkpoint and keeps it after a
//! journal-only commit, which changes no label or size.
//! Mutations serialize in line order; runs of queries between them still
//! fan out across the worker threads. Without `--input`, mutation lines
//! are answered with an inline `error:` line, like any other bad input.
//!
//! `scc index apply` is the batch form of the same maintenance path: it
//! classifies `--add`/`--remove` pairs (or a `--deltas FILE` of `+U V` /
//! `-U V` lines) against the stored condensation DAG and commits one new
//! generation; `scc index compact` eagerly re-verifies every
//! deletion-dirtied component and folds the journal tail into a
//! checkpoint. Both require an index built with the condensation DAG
//! embedded (`scc index build --with-condensation`).
//!
//! `--queries K` serves a deterministic generated workload instead of
//! stdin and reports throughput; `--self-test` builds a scratch index from
//! a generated graph and replays a mixed workload on every thread against
//! the in-memory Tarjan oracle, additionally asserting that each thread's
//! per-query logical I/O is bit-identical to a single-threaded replay
//! (exit 0 iff everything matches). Query counts and throughput are
//! published to the `ce-obs` metrics registry (`serve.queries`,
//! `serve.qps`), printed under `--stats`.
//!
//! `scc verify` runs the `ce-harness` differential conformance matrix:
//! every registered algorithm (the five external engines plus the in-memory
//! oracles) over every scenario {workload family × memory budget × buffer
//! pool (off / on) × fault point}, asserting partition equivalence,
//! logical-I/O determinism, planner agreement and index round-trips. The
//! summary table on stdout is deterministic and byte-stable
//! (golden-tested); the exit code is 0 iff every check passed.
//!
//! Input: whitespace-separated `src dst` lines (`#`/`%` comments allowed).
//! Output: `node scc_representative` lines sorted by node. `--condense`
//! additionally writes the condensation DAG's edge list (computed
//! externally). The memory budget is honoured end to end: the node set of
//! the input graph is never loaded into RAM.
//!
//! Scratch files live in a fresh temporary directory, or in `--scratch DIR`
//! (a directory on a tmpfs such as `/dev/shm` keeps them in RAM), and
//! `--cache-blocks` sizes the buffer pool in front of them (default:
//! `M / B` frames; 0 disables the pool). Neither changes the *logical*
//! block-I/O numbers reported — those count model transfers, as in the
//! paper — but `--stats` additionally reports the *physical* transfers and
//! the pool's hit/miss counters.
//!
//! `--trace human` prints the run's I/O-attribution span tree on stdout:
//! one node per contraction iteration and per phase (Get-V, Get-E,
//! expansion, sort passes, coloring rounds), each annotated with the
//! logical/physical I/O it consumed, plus the metrics registry. Leaf
//! deltas (including synthetic `(self)` rows) sum exactly to the run's
//! total logical I/O. `--trace json` emits the same spans as JSON lines.
//! Both are deterministic — wall-clock times appear only under
//! `--trace-wall`. Tracing never changes the logical I/O counts.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use contract_expand::graph::labels::condense_external;
use contract_expand::harness::{gen_query, ServeQuery};
use contract_expand::prelude::*;
use contract_expand::util::{parse_size, storage_stats};

/// `--trace` output format.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    Human,
    Json,
}

impl TraceMode {
    fn parse(v: &str) -> Result<TraceMode, String> {
        match v {
            "human" => Ok(TraceMode::Human),
            "json" => Ok(TraceMode::Json),
            other => Err(format!("bad --trace {other:?}; use human|json")),
        }
    }
}

struct Options {
    input: PathBuf,
    out: Option<PathBuf>,
    condense: Option<PathBuf>,
    export_binary: Option<PathBuf>,
    scratch: Option<PathBuf>,
    mem: usize,
    block: usize,
    cache_blocks: Option<usize>,
    baseline: bool,
    stats: bool,
    trace: Option<TraceMode>,
    trace_wall: bool,
}

fn usage() -> &'static str {
    "usage: scc run --input graph.txt|graph.ceg [--mem 64M] [--block 64K] [--baseline]\n\
     \x20              [--cache-blocks N]\n\
     \x20              [--out labels.txt] [--condense dag.txt] [--export-binary g.ceg]\n\
     \x20              [--scratch DIR] [--stats] [--trace human|json] [--trace-wall]\n\
     \x20      scc plan --input graph.txt|graph.ceg [--mem 64M] [--block 64K]\n\
     \x20              [--engine auto|semi-scc|ext-scc|ext-scc-op]\n\
     \x20      scc index build --input graph.txt|graph.ceg --out graph.sccidx\n\
     \x20              [--mem 64M] [--block 64K] [--cache-blocks N]\n\
     \x20              [--scratch DIR] [--engine auto|semi-scc|ext-scc|ext-scc-op]\n\
     \x20              [--with-condensation (embed the condensation DAG)] [--stats]\n\
     \x20      scc index query --index graph.sccidx -u NODE [-v NODE] [--stats]\n\
     \x20      scc index apply --index graph.sccidx --input graph.txt|graph.ceg\n\
     \x20              [--add \"U V\"]... [--remove \"U V\"]... [--deltas FILE]\n\
     \x20              [--mem 64M] [--stats]\n\
     \x20      scc index compact --index graph.sccidx --input graph.txt|graph.ceg\n\
     \x20              [--mem 64M] [--stats]\n\
     \x20      scc serve --index graph.sccidx [--input graph.txt (enable +U V / -U V)]\n\
     \x20              [--threads N] [--cache-blocks N] [--stats]\n\
     \x20              [--queries K [--batch B] [--seed S]]\n\
     \x20      scc serve --self-test [--threads N] [--nodes N] [--seed S]\n\
     \x20      scc verify [--scale smoke|full]\n\
     \x20      scc --version | -V\n\
     \x20 (flat `scc --input ...` stays a byte-compatible alias for `scc run`)"
}

/// `scc verify [--scale smoke|full]` — run the differential conformance
/// matrix (every registered algorithm on every scenario) and print the
/// summary table. Exits 0 iff every check passed.
fn run_verify(args: &[String]) -> Result<ExitCode, String> {
    let mut scale = HarnessScale::Smoke;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale requires a value")?;
                scale = HarnessScale::parse(v)
                    .ok_or_else(|| format!("bad --scale {v:?}; use smoke|full"))?;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown verify argument {other:?}\n{}", usage())),
        }
    }
    let report = contract_expand::harness::run_matrix(scale)
        .map_err(|e| format!("conformance matrix failed to run: {e}"))?;
    print!("{report}");
    if report.all_ok() {
        Ok(ExitCode::SUCCESS)
    } else {
        for failure in report.failures() {
            eprintln!("conformance failure: {failure}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Parses `--engine auto|semi-scc|ext-scc|ext-scc-op` values.
fn parse_engine(v: &str) -> Result<Option<Engine>, String> {
    if v == "auto" {
        return Ok(None);
    }
    Engine::parse(v)
        .map(Some)
        .ok_or_else(|| format!("bad --engine {v:?}; use auto|semi-scc|ext-scc|ext-scc-op"))
}

/// `Ok(None)` means `--help` was requested: print usage and exit 0.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut args = args.iter();
    let mut opts = Options {
        input: PathBuf::new(),
        out: None,
        condense: None,
        export_binary: None,
        scratch: None,
        mem: 64 << 20,
        block: 64 << 10,
        cache_blocks: None,
        baseline: false,
        stats: false,
        trace: None,
        trace_wall: false,
    };
    let mut have_input = false;
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--input" => {
                opts.input = PathBuf::from(value("--input")?);
                have_input = true;
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--condense" => opts.condense = Some(PathBuf::from(value("--condense")?)),
            "--export-binary" => {
                opts.export_binary = Some(PathBuf::from(value("--export-binary")?))
            }
            "--scratch" => opts.scratch = Some(PathBuf::from(value("--scratch")?)),
            "--mem" => opts.mem = parse_size(value("--mem")?)?,
            "--block" => opts.block = parse_size(value("--block")?)?,
            "--cache-blocks" => {
                let v = value("--cache-blocks")?;
                opts.cache_blocks = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad --cache-blocks {v:?}: {e}"))?,
                );
            }
            "--baseline" => opts.baseline = true,
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = Some(TraceMode::parse(value("--trace")?)?),
            "--trace-wall" => opts.trace_wall = true,
            "--help" | "-h" => return Ok(None),
            other => match other.strip_prefix("--trace=") {
                Some(v) => opts.trace = Some(TraceMode::parse(v)?),
                None => return Err(format!("unknown argument {other:?}\n{}", usage())),
            },
        }
    }
    if !have_input {
        return Err(format!("--input is required\n{}", usage()));
    }
    check_model(opts.mem, opts.block)?;
    Ok(Some(opts))
}

/// The CLI-facing `M >= 2B` model check shared by every subcommand.
fn check_model(mem: usize, block: usize) -> Result<(), String> {
    if block == 0 {
        return Err("block size must be nonzero".into());
    }
    match block.checked_mul(2) {
        Some(two_blocks) if mem >= two_blocks => Ok(()),
        _ => Err("memory budget must be at least two blocks".into()),
    }
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = IoConfig::new(opts.block, opts.mem);
    let env_opts = EnvOptions {
        cache_blocks: opts.cache_blocks.unwrap_or_else(|| cfg.blocks_in_memory()),
    };
    let env = match &opts.scratch {
        Some(dir) => DiskEnv::new_in_with(dir, cfg, env_opts)?,
        None => DiskEnv::new_temp_with(cfg, env_opts)?,
    };

    // `.ceg` files use the compact binary format; anything else is text.
    let graph = if opts.input.extension().is_some_and(|e| e == "ceg") {
        EdgeListGraph::open_binary(&env, &opts.input)?
    } else {
        EdgeListGraph::from_text(&env, &opts.input, None)?
    };
    eprintln!(
        "loaded {}: |V| = {}, |E| = {}",
        opts.input.display(),
        graph.n_nodes(),
        graph.n_edges()
    );
    if let Some(path) = &opts.export_binary {
        graph.save_binary(path)?;
        eprintln!("binary copy written to {}", path.display());
    }
    if opts.stats {
        let s = contract_expand::graph::stats::graph_stats(&env, &graph)?;
        eprintln!(
            "avg degree {:.2}, max in/out {}/{}, sources {}, sinks {}, isolated {}, self-loops {}",
            s.avg_degree(),
            s.max_in,
            s.max_out,
            s.sources,
            s.sinks,
            s.isolated,
            s.self_loops
        );
    }

    let cfg = if opts.baseline {
        ExtSccConfig::baseline()
    } else {
        ExtSccConfig::optimized()
    };

    // `--trace` installs a sink for the engine run only, so the root `run`
    // span covers exactly the I/O the report attributes to the run. Spans
    // only read the existing atomic counters: the logical I/O numbers (and
    // the default stdout/stderr output) are bit-identical with and without
    // tracing.
    use std::rc::Rc;
    let mut mem_sink: Option<Rc<contract_expand::obs::MemSink>> = None;
    let mut json_sink: Option<Rc<contract_expand::obs::JsonSink>> = None;
    let guard = opts.trace.map(|mode| match mode {
        TraceMode::Human => {
            let s = Rc::new(contract_expand::obs::MemSink::new());
            mem_sink = Some(s.clone());
            contract_expand::obs::install(s)
        }
        TraceMode::Json => {
            let s = Rc::new(if opts.trace_wall {
                contract_expand::obs::JsonSink::with_wall()
            } else {
                contract_expand::obs::JsonSink::new()
            });
            json_sink = Some(s.clone());
            contract_expand::obs::install(s)
        }
    });
    if guard.is_some() {
        contract_expand::obs::metrics::reset();
    }
    let out = ExtScc::new(&env, cfg).run(&graph)?;
    drop(guard);
    if let Some(sink) = mem_sink {
        let roots = sink.take();
        print!(
            "{}",
            contract_expand::obs::MemSink::render_human(
                &roots,
                &["ios", "rand", "phys"],
                opts.trace_wall
            )
        );
        let metrics = contract_expand::obs::metrics::snapshot();
        if !metrics.is_empty() {
            println!("metrics:");
            print!("{}", contract_expand::obs::metrics::render(&metrics));
        }
    } else if let Some(sink) = json_sink {
        print!("{}", sink.take());
    }
    eprintln!(
        "{} SCCs in {} contraction iterations, {} block I/Os, {:.2?}",
        out.report.n_sccs,
        out.report.iterations(),
        out.report.total_ios.total_ios(),
        out.report.total_wall
    );
    if opts.stats {
        eprintln!("{}", out.report);
        eprintln!("{}", storage_stats(env.options().cache_blocks, env.phys()));
    }

    // Stream labels to the output without materializing them.
    let sink: Box<dyn std::io::Write> = match &opts.out {
        Some(path) => Box::new(std::fs::File::create(path)?),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut w = BufWriter::new(sink);
    let mut r = out.labels.reader()?;
    while let Some(l) = r.next()? {
        writeln!(w, "{} {}", l.node, l.scc)?;
    }
    w.flush()?;

    if let Some(path) = &opts.condense {
        let dag = condense_external(&env, &graph, &out.labels)?;
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let mut r = dag.edges().reader()?;
        while let Some(e) = r.next()? {
            writeln!(w, "{} {}", e.src, e.dst)?;
        }
        w.flush()?;
        eprintln!(
            "condensation: {} edges written to {}",
            dag.n_edges(),
            path.display()
        );
    }
    Ok(())
}

/// `scc plan` — print the planner's engine choice for an input without
/// running anything. Deterministic stdout: graph size, engine, reason,
/// predicted passes.
fn run_plan(args: &[String]) -> Result<ExitCode, String> {
    let mut input: Option<PathBuf> = None;
    let mut mem = 64usize << 20;
    let mut block = 64usize << 10;
    let mut engine: Option<Engine> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--input" => input = Some(PathBuf::from(value("--input")?)),
            "--mem" => mem = parse_size(value("--mem")?)?,
            "--block" => block = parse_size(value("--block")?)?,
            "--engine" => engine = parse_engine(value("--engine")?)?,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown plan argument {other:?}\n{}", usage())),
        }
    }
    let input = input.ok_or_else(|| format!("--input is required\n{}", usage()))?;
    check_model(mem, block)?;
    let cfg = IoConfig::new(block, mem);

    let plan_it = || -> Result<(u64, u64, Plan), Box<dyn std::error::Error>> {
        let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))?
            .source(GraphSource::from_path(&input))?;
        if let Some(e) = engine {
            session = session.engine(e);
        }
        let g = session.graph().expect("sourced");
        Ok((g.n_nodes(), g.n_edges(), session.plan()?))
    };
    // Runtime failures (missing input, parse errors) exit 1 like every
    // other subcommand; only usage errors take the exit-2 path above.
    match plan_it() {
        Ok((n_nodes, n_edges, plan)) => {
            println!("graph: |V| = {n_nodes}, |E| = {n_edges}");
            println!("{plan}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `scc index build` — run the planned engine and materialize the
/// persistent queryable index artifact.
fn run_index_build(args: &[String]) -> Result<ExitCode, String> {
    let mut input: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut scratch: Option<PathBuf> = None;
    let mut mem = 64usize << 20;
    let mut block = 64usize << 10;
    let mut cache_blocks: Option<usize> = None;
    let mut engine: Option<Engine> = None;
    let mut condense = false;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--input" => input = Some(PathBuf::from(value("--input")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--scratch" => scratch = Some(PathBuf::from(value("--scratch")?)),
            "--mem" => mem = parse_size(value("--mem")?)?,
            "--block" => block = parse_size(value("--block")?)?,
            "--cache-blocks" => {
                let v = value("--cache-blocks")?;
                cache_blocks = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad --cache-blocks {v:?}: {e}"))?,
                );
            }
            "--engine" => engine = parse_engine(value("--engine")?)?,
            "--with-condensation" => condense = true,
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown index build argument {other:?}\n{}", usage())),
        }
    }
    let input = input.ok_or_else(|| format!("--input is required\n{}", usage()))?;
    let out = out.ok_or_else(|| format!("--out is required\n{}", usage()))?;
    check_model(mem, block)?;
    let cfg = IoConfig::new(block, mem);
    let env_opts = EnvOptions {
        cache_blocks: cache_blocks.unwrap_or_else(|| cfg.blocks_in_memory()),
    };

    let build_it = || -> Result<(), Box<dyn std::error::Error>> {
        let mut session = match &scratch {
            Some(dir) => SccSession::open_in(dir, cfg, env_opts)?,
            None => SccSession::open(cfg, env_opts)?,
        }
        .source(GraphSource::from_path(&input))?
        .condensation(condense);
        if let Some(e) = engine {
            session = session.engine(e);
        }
        let g = session.graph().expect("sourced");
        eprintln!(
            "loaded {}: |V| = {}, |E| = {}",
            input.display(),
            g.n_nodes(),
            g.n_edges()
        );
        let built = session.build_index(&out)?;
        eprintln!(
            "plan: engine={} predicted_passes={} ({})",
            built.plan.engine, built.plan.predicted_passes, built.plan.reason
        );
        eprintln!(
            "{} SCCs, {} engine block I/Os, {} index-build block I/Os",
            built.run.n_sccs,
            built.run.ios.total_ios(),
            built.build_ios.total_ios()
        );
        eprintln!(
            "index written to {}: {} nodes, {} components{}, {} bytes",
            out.display(),
            built.index.n_nodes(),
            built.index.n_sccs(),
            if built.index.has_condensation() {
                format!(", {} condensation edges", built.index.n_dag_edges())
            } else {
                String::new()
            },
            built.index.len_bytes()
        );
        if stats {
            eprintln!("engine I/O: {}", built.run.ios);
            let env = session.env();
            eprintln!("{}", storage_stats(env.options().cache_blocks, env.phys()));
        }
        Ok(())
    };
    match build_it() {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `scc index query` — answer component queries from an artifact, no
/// recomputation.
fn run_index_query(args: &[String]) -> Result<ExitCode, String> {
    let mut index: Option<PathBuf> = None;
    let mut u: Option<u32> = None;
    let mut v: Option<u32> = None;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let node = |name: &str, s: &str| -> Result<u32, String> {
            s.parse::<u32>().map_err(|e| format!("bad {name} {s:?}: {e}"))
        };
        match a.as_str() {
            "--index" => index = Some(PathBuf::from(value("--index")?)),
            "-u" => u = Some(node("-u", value("-u")?)?),
            "-v" => v = Some(node("-v", value("-v")?)?),
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown index query argument {other:?}\n{}", usage())),
        }
    }
    let index = index.ok_or_else(|| format!("--index is required\n{}", usage()))?;
    let u = u.ok_or_else(|| format!("-u is required\n{}", usage()))?;

    let query_it = || -> Result<(), Box<dyn std::error::Error>> {
        // Queries need O(1) memory: an unpooled reader keeps the logical
        // counters honest (every block read is visible), priced in the
        // artifact's own pages, so one page read is one logical I/O.
        let idx = SccIndex::open_shared(&index, 0)?;
        let open_ios = idx.stats();
        // Validate every requested node up front: a failing query must be
        // one clean error line, never answers for `-u` followed by a
        // mid-stream failure on `-v`.
        for x in std::iter::once(u).chain(v) {
            if x as u64 >= idx.n_nodes() {
                return Err(format!(
                    "node {x} out of range (index covers {} nodes)",
                    idx.n_nodes()
                )
                .into());
            }
        }
        println!("component_of({u}) = {}", idx.component_of(u)?);
        println!("component_size({u}) = {}", idx.component_size(u)?);
        if let Some(v) = v {
            println!("same_component({u}, {v}) = {}", idx.same_component(u, v)?);
        }
        if stats {
            eprintln!(
                "index: {} nodes, {} components, {} bytes",
                idx.n_nodes(),
                idx.n_sccs(),
                idx.len_bytes()
            );
            eprintln!("open I/O: {open_ios}");
            eprintln!("query I/O: {}", idx.stats().since(&open_ios));
            eprintln!("{}", storage_stats(0, idx.phys()));
        }
        Ok(())
    };
    match query_it() {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Parses one `+U V` / `-U V` mutation (the `--deltas` file format and the
/// serve protocol share it). The sign may be glued to the first node
/// (`+3 4`) or stand alone (`+ 3 4`). Returns `(is_add, u, v)`.
fn parse_mutation(line: &str) -> Result<(bool, u32, u32), String> {
    let line = line.trim();
    let (is_add, rest) = match line.as_bytes().first() {
        Some(b'+') => (true, &line[1..]),
        Some(b'-') => (false, &line[1..]),
        _ => return Err(format!("bad mutation {line:?}: must start with '+' or '-'")),
    };
    let mut it = rest.split_whitespace();
    let mut node = |what: &str| -> Result<u32, String> {
        let tok = it
            .next()
            .ok_or_else(|| format!("mutation {line:?} needs {what}"))?;
        tok.parse::<u32>().map_err(|e| format!("bad node {tok:?}: {e}"))
    };
    let u = node("two nodes")?;
    let v = node("two nodes")?;
    if it.next().is_some() {
        return Err(format!("trailing tokens after mutation {line:?}"));
    }
    Ok((is_add, u, v))
}

/// Parses an `--add "U V"` / `--remove "U V"` pair value.
fn parse_pair(name: &str, s: &str) -> Result<(u32, u32), String> {
    let mut it = s.split_whitespace();
    let mut node = || -> Result<u32, String> {
        let tok = it.next().ok_or_else(|| format!("{name} needs \"U V\""))?;
        tok.parse::<u32>().map_err(|e| format!("bad {name} node {tok:?}: {e}"))
    };
    let u = node()?;
    let v = node()?;
    if it.next().is_some() {
        return Err(format!("{name} takes exactly two nodes, got {s:?}"));
    }
    Ok((u, v))
}

/// Opens a maintenance session over an existing artifact: the environment's
/// block size is sniffed from the artifact header (the delta engine patches
/// whole pages, so the geometries must agree), the base graph is loaded,
/// and the artifact is attached as the session's live index.
fn open_maintenance_session(
    index: &std::path::Path,
    input: &std::path::Path,
    mem: usize,
) -> Result<SccSession, Box<dyn std::error::Error>> {
    let block = contract_expand::graph::index::sniff_page_size(index)? as usize;
    let cfg = IoConfig::new(block, mem.max(2 * block));
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))?
        .source(GraphSource::from_path(input))?;
    session.attach_index(index)?;
    Ok(session)
}

/// `scc index apply` — classify a batch of edge insertions/deletions
/// against the stored condensation DAG and commit one new index
/// generation.
fn run_index_apply(args: &[String]) -> Result<ExitCode, String> {
    let mut index: Option<PathBuf> = None;
    let mut input: Option<PathBuf> = None;
    let mut deltas: Option<PathBuf> = None;
    let mut adds: Vec<(u32, u32)> = Vec::new();
    let mut removes: Vec<(u32, u32)> = Vec::new();
    let mut mem = 64usize << 20;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--index" => index = Some(PathBuf::from(value("--index")?)),
            "--input" => input = Some(PathBuf::from(value("--input")?)),
            "--deltas" => deltas = Some(PathBuf::from(value("--deltas")?)),
            "--add" => adds.push(parse_pair("--add", value("--add")?)?),
            "--remove" => removes.push(parse_pair("--remove", value("--remove")?)?),
            "--mem" => mem = parse_size(value("--mem")?)?,
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown index apply argument {other:?}\n{}", usage())),
        }
    }
    let index = index.ok_or_else(|| format!("--index is required\n{}", usage()))?;
    let input = input.ok_or_else(|| format!("--input is required\n{}", usage()))?;
    if deltas.is_none() && adds.is_empty() && removes.is_empty() {
        return Err(format!(
            "nothing to apply: give --add/--remove pairs or --deltas FILE\n{}",
            usage()
        ));
    }

    let apply_it = || -> Result<(), Box<dyn std::error::Error>> {
        let mut batch = DeltaBatch::new();
        if let Some(path) = &deltas {
            let text = std::fs::read_to_string(path)?;
            for (no, line) in text.lines().enumerate() {
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
                    continue;
                }
                let (add, u, v) = parse_mutation(t)
                    .map_err(|e| format!("{}:{}: {e}", path.display(), no + 1))?;
                batch = if add { batch.add(u, v) } else { batch.remove(u, v) };
            }
        }
        for &(u, v) in &adds {
            batch = batch.add(u, v);
        }
        for &(u, v) in &removes {
            batch = batch.remove(u, v);
        }
        let session = open_maintenance_session(&index, &input, mem)?;
        let mut eng = session.delta_engine()?;
        let before = eng.generation();
        let r = eng.apply(&batch)?;
        println!(
            "applied {} ops to {}: generation {before} -> {}",
            batch.len(),
            index.display(),
            r.generation
        );
        println!(
            "  inserts: {} intra-component, {} dag-append, {} dag-reinforce, \
             {} merges ({} components, {} nodes)",
            r.intra_added, r.dag_appended, r.dag_reinforced, r.merges, r.merged_components,
            r.merged_nodes
        );
        println!(
            "  deletes: {} dirty-marked, {} dag-weakened, {} dag-dropped",
            r.dirty_marked, r.dag_weakened, r.dag_dropped
        );
        println!(
            "  index now: {} components ({} dirty), {} journal records",
            eng.n_sccs(),
            eng.n_dirty(),
            eng.n_journal()
        );
        if stats {
            eprintln!("label pages rewritten: {}", r.label_pages_rewritten);
            eprintln!("apply I/O: {}", r.ios);
        }
        Ok(())
    };
    match apply_it() {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `scc index compact` — eagerly re-verify every deletion-dirtied
/// component (the explicit form of the lazy re-verification queries
/// perform) and fold the journal tail into a checkpoint.
fn run_index_compact(args: &[String]) -> Result<ExitCode, String> {
    let mut index: Option<PathBuf> = None;
    let mut input: Option<PathBuf> = None;
    let mut mem = 64usize << 20;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--index" => index = Some(PathBuf::from(value("--index")?)),
            "--input" => input = Some(PathBuf::from(value("--input")?)),
            "--mem" => mem = parse_size(value("--mem")?)?,
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => {
                return Err(format!("unknown index compact argument {other:?}\n{}", usage()))
            }
        }
    }
    let index = index.ok_or_else(|| format!("--index is required\n{}", usage()))?;
    let input = input.ok_or_else(|| format!("--input is required\n{}", usage()))?;

    let compact_it = || -> Result<(), Box<dyn std::error::Error>> {
        let session = open_maintenance_session(&index, &input, mem)?;
        let mut eng = session.delta_engine()?;
        let before = eng.generation();
        let dirty = eng.n_dirty();
        let r = eng.compact()?;
        println!(
            "compacted {}: generation {before} -> {}, {} of {dirty} dirty components \
             re-verified into {} ({} nodes relabeled)",
            index.display(),
            r.generation,
            r.components_reverified,
            r.components_after,
            r.relabeled_nodes
        );
        println!(
            "  index now: {} components ({} dirty), {} journal records",
            eng.n_sccs(),
            eng.n_dirty(),
            eng.n_journal()
        );
        if stats {
            eprintln!("compact I/O: {}", r.ios);
        }
        Ok(())
    };
    match compact_it() {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Parses one protocol line (`c U` | `s U V` | `z U` | `b U1 U2 ...`).
fn parse_query(line: &str) -> Result<ServeQuery, String> {
    let mut it = line.split_whitespace();
    let op = it.next().ok_or("empty query line")?;
    let mut node = |what: &str| -> Result<u32, String> {
        let tok = it.next().ok_or_else(|| format!("{op:?} needs {what}"))?;
        tok.parse::<u32>().map_err(|e| format!("bad node {tok:?}: {e}"))
    };
    let q = match op {
        "c" => ServeQuery::Point(node("a node")?),
        "s" => ServeQuery::Same(node("two nodes")?, node("two nodes")?),
        "z" => ServeQuery::Size(node("a node")?),
        "b" => {
            let mut nodes = Vec::new();
            for tok in it {
                nodes.push(
                    tok.parse::<u32>().map_err(|e| format!("bad node {tok:?}: {e}"))?,
                );
            }
            if nodes.is_empty() {
                return Err("\"b\" needs at least one node".into());
            }
            return Ok(ServeQuery::Batch(nodes));
        }
        other => return Err(format!("unknown query op {other:?} (use c|s|z|b)")),
    };
    if it.next().is_some() {
        return Err(format!("trailing tokens after {op:?} query"));
    }
    Ok(q)
}

/// Answers one query as one output line; errors become inline
/// `error: ...` lines so the serving loop survives bad nodes.
fn answer_query(idx: &SccIndexReader, q: &ServeQuery) -> String {
    let r = match q {
        ServeQuery::Point(u) => {
            idx.component_of(*u).map(|r| format!("component_of({u}) = {r}"))
        }
        ServeQuery::Same(u, v) => idx
            .same_component(*u, *v)
            .map(|b| format!("same_component({u}, {v}) = {b}")),
        ServeQuery::Size(u) => {
            idx.component_size(*u).map(|s| format!("component_size({u}) = {s}"))
        }
        ServeQuery::Batch(us) => idx.component_of_many(us).map(|rs| {
            let reps: Vec<String> = rs.iter().map(|r| r.to_string()).collect();
            format!("component_of_many({}) = {}", us.len(), reps.join(" "))
        }),
    };
    r.unwrap_or_else(|e| format!("error: {e}"))
}

/// One parsed line of the stdin serve loop: a query, a `+U V` / `-U V`
/// mutation, or a parse error answered inline.
enum ServeLine {
    Query(Result<ServeQuery, String>),
    Mutate(bool, u32, u32),
    Bad(String),
}

/// Answers a run of consecutive queries by fanning them out across the
/// worker threads (one cloned reader handle each), preserving input order.
fn answer_run(
    idx: &SccIndexReader,
    threads: usize,
    queries: &[&Result<ServeQuery, String>],
) -> Vec<String> {
    let per = queries.len().div_ceil(threads);
    let answers: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(per)
            .map(|part| {
                let handle = idx.clone();
                s.spawn(move || {
                    part.iter()
                        .map(|q| match q {
                            Ok(q) => answer_query(&handle, q),
                            Err(msg) => format!("error: {msg}"),
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    answers.into_iter().flatten().collect()
}

/// The stdin serving loop: lines are consumed in chunks, runs of queries
/// split across the worker threads (one cloned reader each), answers
/// printed in input order. A chunk ends at 4096 lines or as soon as no
/// further input is buffered, so a client that waits for each answer gets
/// it at once. Parse errors are answered inline without reaching a worker.
///
/// With a writer (`--input` gave the loop the base graph), `+U V` / `-U V`
/// lines mutate the index: the writer classifies the edge through the
/// delta engine and commits a new crash-safe generation, and every query
/// after the mutation line observes the mutation. Before the next query
/// line is answered, the writer re-verifies every component a deletion
/// dirtied (one compact for a run of deletions), and the loop swaps the
/// shared reader handle if a merge or that re-verification wrote a
/// checkpoint; a journal-only commit changes no label or size, so the
/// reader stays. Mutations serialize in line order; a failed mutation
/// leaves the artifact at its current generation and is answered with an
/// inline `error:` line. Returns (queries answered, mutations applied).
fn serve_stdin(
    index_path: &std::path::Path,
    idx: &mut SccIndexReader,
    threads: usize,
    cache_blocks: usize,
    mut writer: Option<&mut DeltaEngine<'_>>,
) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    const CHUNK: usize = 4096;
    // Larger than std's 8 KiB stdin buffer, so every fill reads the pipe
    // directly and `buffer()` shows exactly what the client has sent.
    let mut input = BufReader::with_capacity(64 << 10, std::io::stdin().lock());
    let mut out = BufWriter::new(std::io::stdout().lock());
    let mut served = 0u64;
    let mut mutated = 0u64;
    let mut line = String::new();
    let mut eof = false;
    // A checkpoint was renamed over the path since `idx` was opened.
    let mut stale = false;
    while !eof {
        let mut chunk: Vec<ServeLine> = Vec::with_capacity(CHUNK);
        while chunk.len() < CHUNK {
            line.clear();
            if input.read_line(&mut line)? == 0 {
                eof = true;
                break;
            }
            let t = line.trim();
            if !t.is_empty() {
                chunk.push(match t.as_bytes()[0] {
                    b'+' | b'-' => match parse_mutation(t) {
                        Ok((add, u, v)) => ServeLine::Mutate(add, u, v),
                        Err(msg) => ServeLine::Bad(msg),
                    },
                    _ => ServeLine::Query(parse_query(t)),
                });
            }
            if input.buffer().is_empty() {
                break;
            }
        }
        let mut i = 0;
        while i < chunk.len() {
            match &chunk[i] {
                ServeLine::Query(_) => {
                    if let Some(eng) = writer.as_mut().filter(|eng| eng.n_dirty() > 0) {
                        eng.compact()?;
                        stale = true;
                    }
                    if stale {
                        // Atomic generation swap: reopen the renamed
                        // artifact behind a fresh shared pool and rebind
                        // the handle the query workers clone from.
                        *idx = SccIndex::open_shared(index_path, cache_blocks)?;
                        stale = false;
                    }
                    let mut j = i;
                    while j < chunk.len() && matches!(chunk[j], ServeLine::Query(_)) {
                        j += 1;
                    }
                    let run: Vec<&Result<ServeQuery, String>> = chunk[i..j]
                        .iter()
                        .map(|l| match l {
                            ServeLine::Query(q) => q,
                            _ => unreachable!("run contains only queries"),
                        })
                        .collect();
                    served += run.len() as u64;
                    for line in answer_run(idx, threads, &run) {
                        writeln!(out, "{line}")?;
                    }
                    i = j;
                }
                ServeLine::Mutate(add, u, v) => {
                    let (add, u, v) = (*add, *u, *v);
                    let sign = if add { '+' } else { '-' };
                    let line = match writer.as_mut() {
                        None => "error: index is read-only (start serve with \
                                 --input GRAPH to enable mutations)"
                            .to_string(),
                        Some(eng) => {
                            let batch = if add {
                                DeltaBatch::new().add(u, v)
                            } else {
                                DeltaBatch::new().remove(u, v)
                            };
                            match eng.apply(&batch) {
                                Ok(r) => {
                                    stale |= r.merges > 0;
                                    mutated += 1;
                                    let kind = if add {
                                        if r.merges > 0 {
                                            "merge"
                                        } else if r.intra_added > 0 {
                                            "intra-component"
                                        } else if r.dag_reinforced > 0 {
                                            "dag-reinforce"
                                        } else {
                                            "dag-append"
                                        }
                                    } else if r.dirty_marked > 0 {
                                        "dirty-marked"
                                    } else if r.dag_dropped > 0 {
                                        "dag-drop"
                                    } else if r.dag_weakened > 0 {
                                        "dag-weaken"
                                    } else {
                                        "no-op"
                                    };
                                    format!(
                                        "applied {sign}({u}, {v}): {kind}, generation {}",
                                        r.generation
                                    )
                                }
                                Err(e) => format!("error: {e}"),
                            }
                        }
                    };
                    writeln!(out, "{line}")?;
                    i += 1;
                }
                ServeLine::Bad(msg) => {
                    writeln!(out, "error: {msg}")?;
                    i += 1;
                }
            }
        }
        out.flush()?;
    }
    Ok((served, mutated))
}

/// The generated-workload loop (`--queries K`): each thread replays its
/// deterministic slice of the workload on its own cloned reader handle.
/// Returns (queries served, aggregated logical I/O).
fn serve_generated(
    idx: &SccIndexReader,
    threads: usize,
    queries: u64,
    batch: usize,
    seed: u64,
) -> Result<(u64, IoSnapshot), Box<dyn std::error::Error>> {
    let n_nodes = u32::try_from(idx.n_nodes()).unwrap_or(u32::MAX);
    let per = queries.div_ceil(threads as u64);
    let results: Vec<Result<IoSnapshot, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                let handle = idx.clone();
                s.spawn(move || {
                    let mine = per.min(queries.saturating_sub(t * per));
                    let mut x = seed ^ (0x9e37_79b9_7f4a_7c15 + t);
                    for _ in 0..mine {
                        let q = gen_query(&mut x, n_nodes, batch);
                        let line = answer_query(&handle, &q);
                        if line.starts_with("error: ") {
                            return Err(line);
                        }
                    }
                    Ok(handle.stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut total = IoSnapshot::default();
    for r in results {
        total = total.plus(&r.map_err(|e| format!("generated workload failed: {e}"))?);
    }
    Ok((queries, total))
}

/// `scc serve --self-test`: builds a scratch index from a generated graph
/// and runs [`contract_expand::harness::check_serve`] on it — answers
/// against the Tarjan oracle, per-query logical I/O against a
/// single-threaded replay.
fn serve_self_test(
    threads: usize,
    n_nodes: u32,
    seed: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    const QUERIES: usize = 1500;
    let env = DiskEnv::new_temp(IoConfig::new(1024, 4 << 20))?;
    let path = env.root().join("self-test.sccidx");
    let reps = contract_expand::harness::build_query_index(&env, &path, n_nodes, seed)?;
    contract_expand::harness::check_serve(&path, &reps, seed, QUERIES, threads)
        .map_err(|e| format!("self-test failed: {e}"))?;
    // Canonical representatives are minimum members: one per component.
    let n_sccs = reps.iter().enumerate().filter(|&(v, &r)| r as usize == v).count();
    println!(
        "self-test ok: {QUERIES} queries x {threads} threads over {n_nodes} nodes \
         ({n_sccs} components); answers match the oracle, per-query logical I/O \
         identical to a single-threaded replay"
    );
    Ok(())
}

/// `scc serve` — the concurrent query loop (see the module docs for the
/// protocol and modes).
fn run_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut index: Option<PathBuf> = None;
    let mut input: Option<PathBuf> = None;
    let mut mem = 64usize << 20;
    let mut threads = 1usize;
    let mut cache_blocks = 1024usize;
    let mut queries: Option<u64> = None;
    let mut batch = 16usize;
    let mut seed = 42u64;
    let mut nodes = 5000u32;
    let mut self_test = false;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, s: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            s.parse::<T>().map_err(|e| format!("bad {name} {s:?}: {e}"))
        }
        match a.as_str() {
            "--index" => index = Some(PathBuf::from(value("--index")?)),
            "--input" => input = Some(PathBuf::from(value("--input")?)),
            "--mem" => mem = parse_size(value("--mem")?)?,
            "--threads" => {
                threads = num("--threads", value("--threads")?)?;
                if threads == 0 {
                    // A runtime rejection (exit 1), not the usage exit-2
                    // path: one clean error line, no usage dump.
                    eprintln!("error: --threads must be at least 1");
                    return Ok(ExitCode::FAILURE);
                }
                if threads > 1024 {
                    return Err("--threads must be in 1..=1024".into());
                }
            }
            "--cache-blocks" => cache_blocks = num("--cache-blocks", value("--cache-blocks")?)?,
            "--queries" => queries = Some(num("--queries", value("--queries")?)?),
            "--batch" => {
                batch = num("--batch", value("--batch")?)?;
                if batch == 0 {
                    return Err("--batch must be positive".into());
                }
            }
            "--seed" => seed = num("--seed", value("--seed")?)?,
            "--nodes" => {
                nodes = num("--nodes", value("--nodes")?)?;
                if nodes == 0 {
                    return Err("--nodes must be positive".into());
                }
            }
            "--self-test" => self_test = true,
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown serve argument {other:?}\n{}", usage())),
        }
    }

    let serve_it = || -> Result<(), Box<dyn std::error::Error>> {
        if self_test {
            if input.is_some() {
                return Err("--input (mutations) does not combine with --self-test".into());
            }
            return serve_self_test(threads, nodes, seed);
        }
        if input.is_some() && queries.is_some() {
            return Err(
                "--input (mutations) only applies to the stdin loop; drop --queries".into(),
            );
        }
        let index = index
            .as_ref()
            .ok_or_else(|| format!("--index is required (or --self-test)\n{}", usage()))?;
        let mut reader = SccIndex::open_shared(index, cache_blocks)?;
        if reader.n_nodes() == 0 {
            return Err("index covers 0 nodes; nothing to serve".into());
        }
        eprintln!(
            "serving {}: {} nodes, {} components, {} bytes; {} threads, {} cache blocks",
            index.display(),
            reader.n_nodes(),
            reader.n_sccs(),
            reader.len_bytes(),
            threads,
            cache_blocks
        );
        // Metrics (and the serve span) only record into a live sink;
        // without --stats the whole observability path stays disabled and
        // costs one thread-local branch per query batch.
        let _guard = stats.then(|| {
            contract_expand::obs::install(std::rc::Rc::new(contract_expand::obs::MemSink::new()))
        });
        let sp = contract_expand::obs::span!("serve", threads = threads as u64);
        let t0 = std::time::Instant::now();
        let served = match queries {
            Some(k) => {
                let (served, logical) = serve_generated(&reader, threads, k, batch, seed)?;
                let wall = t0.elapsed();
                let qps = served as f64 / wall.as_secs_f64().max(1e-9);
                println!(
                    "served {served} queries on {threads} threads in {:.1} ms ({qps:.0} qps)",
                    wall.as_secs_f64() * 1e3
                );
                if stats {
                    eprintln!("workload logical I/O: {logical}");
                }
                served
            }
            None => {
                // The single-writer session: its environment's block size is
                // sniffed from the artifact so the delta engine's page
                // patches line up with the stored geometry.
                let writer_session;
                let mut writer = match &input {
                    Some(graph) => {
                        let s = open_maintenance_session(index, graph, mem)?;
                        writer_session = s;
                        let eng = writer_session.delta_engine()?;
                        eprintln!(
                            "mutations enabled from {}: generation {}, {} journal records",
                            graph.display(),
                            eng.generation(),
                            eng.n_journal()
                        );
                        Some(eng)
                    }
                    None => None,
                };
                let (served, mutated) =
                    serve_stdin(index, &mut reader, threads, cache_blocks, writer.as_mut())?;
                // The engine's generation: the reader's lags it after
                // journal-only mutations.
                if let Some(eng) = writer.as_ref().filter(|_| mutated > 0) {
                    eprintln!(
                        "applied {mutated} mutations; index at generation {}",
                        eng.generation()
                    );
                }
                served
            }
        };
        let wall = t0.elapsed();
        sp.close(&[("queries", served)], 0);
        contract_expand::obs::metrics::counter_add("serve.queries", served);
        contract_expand::obs::metrics::gauge_set(
            "serve.qps",
            (served as f64 / wall.as_secs_f64().max(1e-9)) as u64,
        );
        if stats {
            eprintln!(
                "served {served} queries in {:.1} ms; {}",
                wall.as_secs_f64() * 1e3,
                reader.phys()
            );
            let metrics = contract_expand::obs::metrics::snapshot();
            if !metrics.is_empty() {
                eprint!("{}", contract_expand::obs::metrics::render(&metrics));
            }
        }
        Ok(())
    };
    match serve_it() {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `scc index build|query|apply|compact` dispatch.
fn run_index(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("build") => run_index_build(&args[1..]),
        Some("query") => run_index_query(&args[1..]),
        Some("apply") => run_index_apply(&args[1..]),
        Some("compact") => run_index_compact(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown index subcommand {other:?}\n{}", usage())),
        None => Err(format!("index requires build|query|apply|compact\n{}", usage())),
    }
}

/// Flat-flag / `scc run` entry point (byte-compatible output).
fn run_flat(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let dispatch = |result: Result<ExitCode, String>| match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    };
    match argv.first().map(String::as_str) {
        Some("--version") | Some("-V") => {
            println!("scc {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Some("verify") => dispatch(run_verify(&argv[1..])),
        Some("plan") => dispatch(run_plan(&argv[1..])),
        Some("index") => dispatch(run_index(&argv[1..])),
        Some("serve") => dispatch(run_serve(&argv[1..])),
        Some("run") => run_flat(&argv[1..]),
        _ => run_flat(&argv),
    }
}
