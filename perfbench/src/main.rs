//! The contract-expand benchmark: one command, three workloads, every answer
//! checked against the in-memory Tarjan oracle.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload contract|serve|maintain [--seed 42] [--seconds 35] [--trace 0|1]
//! ```
//!
//! Each run generates its graph in-process from `--seed` (set-up, repeated
//! five times so `setup_s` is a median), then spends `--seconds` on the
//! lifecycle a user of the system goes through, always through public
//! calls only:
//!
//! 1. **build** — `SccSession::build_index` with the condensation DAG on:
//!    plan, engine, condensation, artifact write, checksummed reopen;
//! 2. **serve** — two closed-loop clients on cloned `SccIndexReader`s
//!    (a 256-block shared pool) send the `scc serve` mix: equal parts
//!    `component_of`, `same_component`, `component_size` and 16-node
//!    `component_of_many`;
//! 3. **maintain** — one writer holds a `DeltaEngine` and applies
//!    single-edge batches (60% inserts of random edges, 40% deletes of
//!    present edges); after each commit it opens a fresh reader generation
//!    and the two clients run a burst of queries on it.
//!
//! The workloads differ in input, I/O geometry and how the time is split
//! between the phases (builds first, then serve and maintain interleaved):
//! `contract` spends most of it building in the Ext-SCC-Op regime; `serve`
//! and `maintain` build in the Semi-SCC regime, `serve` gives the read loop
//! its own share, `maintain` has no read loop and reads only in the bursts.
//! Oracle checks run outside the timed phases.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer ones,
//! taken from a `ce_obs::MemSink` installed on the driving thread (self
//! time and self logical I/O per span name, computed here) plus timers and
//! counters read around public calls. The exit code is non-zero when any
//! check fails.

mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use contract_expand::core::{ExtScc, ExtSccConfig};
use contract_expand::extmem::{DiskEnv, EnvOptions, IoConfig, PhysSnapshot};
use contract_expand::graph::delta::DeltaBatch;
use contract_expand::graph::labels::same_partition;
use contract_expand::graph::planner::Engine;
use contract_expand::graph::tarjan::tarjan_scc;
use contract_expand::graph::{
    gen, CsrGraph, DeltaEngine, Edge, EdgeListGraph, NodeId, SccIndex, SccIndexReader,
};
use contract_expand::obs::{MemSink, SpanNode};
use contract_expand::session::{GraphSource, SccSession};

use stats::{mean, median, quantile, Hist};

const USAGE: &str = "usage: perfbench --workload contract|serve|maintain \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Shared-pool frames of every reader the benchmark opens.
const POOL_BLOCKS: usize = 256;
/// Closed-loop client threads.
const CLIENTS: u64 = 2;
/// Nodes per `component_of_many` request.
const MANY: usize = 16;
/// Every `SAMPLE_EVERY`-th answer of a client is kept for the oracle check.
const SAMPLE_EVERY: u64 = 32;
/// Queries per client in the burst after each update.
const BURST: u64 = 500;
/// Builds made at least, whatever the clock says.
const MIN_BUILDS: usize = 3;
/// Updates the maintain phase applies at least, whatever the clock says.
const MIN_UPDATES: usize = 20;
/// Length of one slice of the serve phase; a traced run alternates
/// untraced and traced slices.
const SLICE: Duration = Duration::from_millis(500);

/// End-to-end metrics (`--trace 0`), in output order, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("logical_ios", "count"),
    ("peak_rss_mb", "MiB"),
    ("artifact_mb", "MiB"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("update_p50_ms", "ms"),
    ("update_p95_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("extmem.run_formation.ms", "ms"),
    ("extmem.run_formation.ios", "count"),
    ("extmem.run_formation.count", "count"),
    ("extmem.merge_pass.ms", "ms"),
    ("extmem.merge_pass.ios", "count"),
    ("extmem.materialize.ms", "ms"),
    ("extmem.materialize.ios", "count"),
    ("core.build_orders.ms", "ms"),
    ("core.build_orders.ios", "count"),
    ("core.get_v.ms", "ms"),
    ("core.get_v.ios", "count"),
    ("core.get_e.ms", "ms"),
    ("core.get_e.ios", "count"),
    ("core.expand.ms", "ms"),
    ("core.expand.ios", "count"),
    ("core.iterations", "count"),
    ("core.base_edge_ratio", "ratio"),
    ("core.base_node_ratio", "ratio"),
    ("core.edge_growth_max", "ratio"),
    ("semi_scc.color_round.ms", "ms"),
    ("semi_scc.color_round.ios", "count"),
    ("semi_scc.color_round.count", "count"),
    ("planner.predicted_passes", "count"),
    ("index.condense.ms", "ms"),
    ("index.condense.ios", "count"),
    ("index.build.ms", "ms"),
    ("index.build.ios", "count"),
    ("index.open_ms", "ms"),
    ("index.ios_per_query", "ios/query"),
    ("pager.hit_rate", "ratio"),
    ("pager.reads_per_query", "reads/query"),
    ("pager.evictions", "count"),
    ("pager.writebacks", "count"),
    ("delta.classify.ms", "ms"),
    ("delta.merge.ms", "ms"),
    ("delta.ios_per_update", "ios/update"),
    ("delta.label_pages_rewritten", "pages/update"),
    ("delta.merges", "1/update"),
    ("delta.bytes_written_per_update", "B/update"),
    ("delta.modeled_bytes_per_update", "B/update"),
    ("obs.overhead_pct", "%"),
    ("obs.unattributed_ios", "count"),
    ("error_rate", "ratio"),
];

/// Span name → per-layer metric prefix, for the span-derived metrics.
const SPAN_LAYERS: &[(&str, &str)] = &[
    ("run_formation", "extmem.run_formation"),
    ("merge_pass", "extmem.merge_pass"),
    ("materialize", "extmem.materialize"),
    ("build_orders", "core.build_orders"),
    ("get_v", "core.get_v"),
    ("get_e", "core.get_e"),
    ("expand", "core.expand"),
    ("color_round", "semi_scc.color_round"),
    ("condense", "index.condense"),
    ("index_build", "index.build"),
];

/// Root span the benchmark opens around each build, so the whole job's
/// logical I/O lands in one tree.
const BUILD_ROOT: &str = "bench.build_index";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Contract,
    Serve,
    Maintain,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "contract" => Workload::Contract,
            "serve" => Workload::Serve,
            "maintain" => Workload::Maintain,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Contract => "contract",
            Workload::Serve => "serve",
            Workload::Maintain => "maintain",
        }
    }

    /// Block size `B` and memory budget `M`.
    fn io_config(self) -> IoConfig {
        match self {
            // The 200k-node array does not fit 2 MiB: Ext-SCC-Op.
            Workload::Contract => IoConfig::new(64 << 10, 2 << 20),
            // 200k nodes fit 16 MiB: Semi-SCC. 4 KiB pages make the
            // artifact ~1700 pages, larger than the readers' 256-block pool.
            Workload::Serve | Workload::Maintain => IoConfig::new(4 << 10, 16 << 20),
        }
    }

    fn generate(self, env: &DiskEnv, seed: u64) -> io::Result<EdgeListGraph> {
        match self {
            Workload::Contract => gen::random_gnm(env, 200_000, 1_000_000, seed),
            Workload::Serve | Workload::Maintain => gen::web_like(env, 200_000, 5.0, seed),
        }
    }

    /// Shares of `--seconds` given to the build and serve phases; the
    /// maintain phase gets the rest.
    fn shares(self) -> (f64, f64) {
        match self {
            Workload::Contract => (0.5, 0.2),
            Workload::Serve => (0.25, 0.25),
            Workload::Maintain => (0.25, 0.0),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 35.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A nonzero xorshift state derived from the run seed and a stream tag.
fn stream(seed: u64, tag: u64) -> u64 {
    let mut x = (seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    for _ in 0..4 {
        xorshift(&mut x);
    }
    x
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The generated input and its oracle answers.
struct Oracle {
    n: u64,
    edges: Vec<(NodeId, NodeId)>,
    /// Minimum-member representative of each node's component.
    reps: Vec<NodeId>,
    /// `size_of_rep[r]`: size of the component represented by `r`.
    size_of_rep: Vec<u64>,
    n_sccs: u64,
}

impl Oracle {
    fn new(n: u64, edges: Vec<(NodeId, NodeId)>) -> Oracle {
        let es: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let reps = canonical_reps(n, &es);
        let mut size_of_rep = vec![0u64; n as usize];
        for &r in &reps {
            size_of_rep[r as usize] += 1;
        }
        let n_sccs = size_of_rep.iter().filter(|&&s| s > 0).count() as u64;
        Oracle {
            n,
            edges,
            reps,
            size_of_rep,
            n_sccs,
        }
    }

    fn size(&self, u: NodeId) -> u64 {
        self.size_of_rep[self.reps[u as usize] as usize]
    }
}

fn canonical_reps(n: u64, edges: &[Edge]) -> Vec<NodeId> {
    tarjan_scc(&CsrGraph::from_edges(n, edges)).canonical_reps()
}

/// Generates the workload's graph, writes it where the builds read it, and
/// computes the oracle. This is the set-up that `setup_s` times.
fn setup(args: &Args, dir: &Path, graph_path: &Path) -> io::Result<Oracle> {
    let cfg = args.workload.io_config();
    let env = DiskEnv::new_in_with(&dir.join("gen"), cfg, EnvOptions::pooled(&cfg))?;
    let g = args.workload.generate(&env, args.seed)?;
    g.save_binary(graph_path)?;
    let edges = g
        .edges_in_memory()?
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    Ok(Oracle::new(g.n_nodes(), edges))
}

/// One answered query, kept for the oracle check.
enum Answer {
    Of(NodeId, NodeId),
    Same(NodeId, NodeId, bool),
    Size(NodeId, u64),
    Many(Vec<NodeId>, Vec<NodeId>),
}

/// Throughput and latency of one stretch of client load: a slice of the
/// serve phase or one burst.
struct Slice {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Run with a sink installed on the client threads.
    traced: bool,
}

/// What the clients of a phase did, slice by slice.
#[derive(Default)]
struct Clients {
    queries: u64,
    logical_ios: u64,
    samples: Vec<Answer>,
    slices: Vec<Slice>,
}

impl Clients {
    fn absorb(&mut self, other: Clients) {
        self.queries += other.queries;
        self.logical_ios += other.logical_ios;
        self.samples.extend(other.samples);
        self.slices.extend(other.slices);
    }

    /// Median over the untraced slices of one slice statistic. Medians over
    /// slices keep a transient stall from moving the run's figure.
    fn median_of(&self, f: fn(&Slice) -> f64) -> f64 {
        self.median_where(false, f)
    }

    fn median_where(&self, traced: bool, f: fn(&Slice) -> f64) -> f64 {
        let v: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect();
        median(&v)
    }
}

/// One client thread's share of a slice.
struct ClientRun {
    hist: Hist,
    queries: u64,
    logical_ios: u64,
    samples: Vec<Answer>,
}

/// When a client stops: at a deadline or after a number of queries.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(u64),
}

/// Runs [`CLIENTS`] closed-loop clients on clones of `reader`. Each client
/// sends its next query only after the previous answer arrived. `traced`
/// installs a `MemSink` on every client thread for the duration.
fn run_clients(
    reader: &SccIndexReader,
    seed: u64,
    stop: Stop,
    traced: bool,
) -> io::Result<Clients> {
    let n = u32::try_from(reader.n_nodes()).expect("node ids are u32");
    let t0 = Instant::now();
    let outs: Vec<io::Result<ClientRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let h = reader.clone();
                s.spawn(move || {
                    let sink = traced.then(|| Rc::new(MemSink::new()));
                    let _guard = sink.map(|s| contract_expand::obs::install(s));
                    client(&h, n, stream(seed, c + 1), stop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let busy = t0.elapsed().as_secs_f64();
    let mut all = Clients::default();
    let mut hist = Hist::new();
    for o in outs {
        let o = o?;
        hist.merge(&o.hist);
        all.queries += o.queries;
        all.logical_ios += o.logical_ios;
        all.samples.extend(o.samples);
    }
    all.slices.push(Slice {
        qps: all.queries as f64 / busy,
        p50_us: hist.quantile(0.50) / 1e3,
        p99_us: hist.quantile(0.99) / 1e3,
        traced,
    });
    Ok(all)
}

fn client(h: &SccIndexReader, n: u32, mut x: u64, stop: Stop) -> io::Result<ClientRun> {
    let mut out = ClientRun {
        hist: Hist::new(),
        queries: 0,
        logical_ios: 0,
        samples: Vec::new(),
    };
    let io0 = h.stats().total_ios();
    let mut nodes = Vec::with_capacity(MANY);
    let mut q = 0u64;
    loop {
        let keep = q.is_multiple_of(SAMPLE_EVERY);
        let kind = xorshift(&mut x) % 4;
        // Draw the request's nodes before the clock starts.
        let mut node = || (xorshift(&mut x) % n as u64) as NodeId;
        let (u, v) = (node(), node());
        if kind == 3 {
            nodes.clear();
            nodes.push(u);
            while nodes.len() < MANY {
                nodes.push(node());
            }
        }
        let t = Instant::now();
        match kind {
            0 => {
                let r = h.component_of(u)?;
                if keep {
                    out.samples.push(Answer::Of(u, r));
                }
            }
            1 => {
                let same = h.same_component(u, v)?;
                if keep {
                    out.samples.push(Answer::Same(u, v, same));
                }
            }
            2 => {
                let size = h.component_size(u)?;
                if keep {
                    out.samples.push(Answer::Size(u, size));
                }
            }
            _ => {
                let reps = h.component_of_many(&nodes)?;
                if keep {
                    out.samples.push(Answer::Many(nodes.clone(), reps));
                }
            }
        }
        let end = Instant::now();
        out.hist.record(end.duration_since(t).as_nanos() as u64);
        q += 1;
        let done = match stop {
            Stop::At(deadline) => end >= deadline,
            Stop::After(k) => q >= k,
        };
        if done {
            break;
        }
    }
    out.queries = q;
    out.logical_ios = h.stats().total_ios() - io0;
    Ok(out)
}

/// Counts answers that disagree with the built index's labels `stored`,
/// which were checked to partition the nodes exactly as the oracle does.
fn wrong_exact(samples: &[Answer], stored: &[NodeId], o: &Oracle) -> u64 {
    let label = |u: NodeId| stored[u as usize];
    let same = |u: NodeId, v: NodeId| o.reps[u as usize] == o.reps[v as usize];
    samples
        .iter()
        .filter(|a| match a {
            Answer::Of(u, r) => *r != label(*u),
            Answer::Same(u, v, b) => *b != same(*u, *v),
            Answer::Size(u, s) => *s != o.size(*u),
            Answer::Many(us, rs) => us.iter().zip(rs).any(|(&u, &r)| r != label(u)),
        })
        .count() as u64
}

/// Counts answers that a generation of the maintained index cannot give.
/// Between compactions the stored components only merge (deletions mark
/// components dirty instead of splitting them), and a merged component
/// takes the smallest of its parts' labels. So each stored component is a
/// union of built components: its label is a built label no larger than
/// the node's own, nodes the oracle joins stay joined, and sizes only grow.
fn wrong_coarsening(samples: &[Answer], stored: &[NodeId], o: &Oracle) -> u64 {
    let label = |u: NodeId| stored[u as usize];
    let label_ok = |u: NodeId, r: NodeId| (r as u64) < o.n && label(r) == r && r <= label(u);
    let same = |u: NodeId, v: NodeId| o.reps[u as usize] == o.reps[v as usize];
    samples
        .iter()
        .filter(|a| match a {
            Answer::Of(u, r) => !label_ok(*u, *r),
            Answer::Same(u, v, b) => same(*u, *v) && !*b,
            Answer::Size(u, s) => *s < o.size(*u),
            Answer::Many(us, rs) => us.iter().zip(rs).any(|(&u, &r)| !label_ok(u, r)),
        })
        .count() as u64
}

/// One `build_index` job.
struct Build {
    wall_s: f64,
    logical_ios: u64,
    evictions: u64,
    writebacks: u64,
    predicted_passes: u64,
    engine: Engine,
    /// The span forest of a traced build.
    spans: Option<Vec<SpanNode>>,
}

/// Opens a fresh session on the generated graph and times `build_index`.
/// Returns the session (the live index's owner), the measurements, and the
/// component label the engine gave each node.
fn build_once(
    args: &Args,
    dir: &Path,
    graph_path: &Path,
    index_path: &Path,
    traced: bool,
) -> io::Result<(SccSession, Build, Vec<NodeId>)> {
    let cfg = args.workload.io_config();
    let mut session = SccSession::open_in(dir, cfg, EnvOptions::pooled(&cfg))?
        .source(GraphSource::binary(graph_path))?
        .condensation(true);
    let env = session.env().clone();
    let io0 = env.stats().snapshot();
    let phys0 = env.phys();
    let sink = traced.then(|| Rc::new(MemSink::new()));
    let guard = sink.clone().map(|s| contract_expand::obs::install(s));
    let t0 = Instant::now();
    let built = {
        let _root = env.io_span(BUILD_ROOT, &[]);
        session.build_index(index_path)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    drop(guard);
    let built = built.map_err(|e| io::Error::other(format!("build_index failed: {e}")))?;
    let logical_ios = env.stats().snapshot().since(&io0).total_ios();
    let phys = env.phys().since(&phys0);

    // Labels by node; a node the label file misses keeps `NodeId::MAX`,
    // which the partition check then rejects.
    let mut labels = vec![NodeId::MAX; built.index.n_nodes() as usize];
    for l in built.run.labels.read_all()? {
        if let Some(slot) = labels.get_mut(l.node as usize) {
            *slot = l.scc;
        }
    }

    Ok((
        session,
        Build {
            wall_s,
            logical_ios,
            evictions: phys.evictions,
            writebacks: phys.writebacks,
            predicted_passes: built.plan.predicted_passes as u64,
            engine: built.plan.engine,
            spans: sink.map(|s| s.take()),
        },
        labels,
    ))
}

/// One applied update of the maintain phase.
struct Update {
    /// `apply` until the new generation is open for readers.
    total_ms: f64,
    open_ms: f64,
    logical_ios: u64,
    /// Bytes the process passed to write calls during `apply`.
    wchar: u64,
    label_pages: u64,
    merges: u64,
    spans: Option<Vec<SpanNode>>,
}

struct Maintained {
    updates: Vec<Update>,
    bursts: Clients,
    /// Physical counters of the bursts' readers, summed.
    burst_phys: PhysSnapshot,
    artifact_bytes: u64,
    /// Labels after the final compaction that disagree with Tarjan on the
    /// final edge multiset.
    wrong_final: u64,
}

/// The writer of the maintain phase: a held `DeltaEngine` that applies one
/// single-edge batch per [`Writer::step`]. After each commit it opens a
/// fresh reader generation and the clients run a burst on it.
struct Writer<'a> {
    eng: DeltaEngine<'a>,
    index_path: &'a Path,
    /// The current edge multiset: the deletes draw from it.
    current: Vec<(NodeId, NodeId)>,
    n: u64,
    x: u64,
    seed: u64,
    updates: Vec<Update>,
    bursts: Clients,
    burst_phys: PhysSnapshot,
}

impl<'a> Writer<'a> {
    fn new(
        session: &'a SccSession,
        index_path: &'a Path,
        oracle: &Oracle,
        seed: u64,
    ) -> io::Result<Writer<'a>> {
        Ok(Writer {
            eng: session.delta_engine()?,
            index_path,
            current: oracle.edges.clone(),
            n: oracle.n,
            x: stream(seed, 0xde17a),
            seed,
            updates: Vec::new(),
            bursts: Clients::default(),
            burst_phys: PhysSnapshot::default(),
        })
    }

    /// Draws the next batch: 60% inserts of an edge between two uniform
    /// random nodes, 40% deletes of a present edge.
    fn next_batch(&mut self) -> DeltaBatch {
        let x = &mut self.x;
        let current = &mut self.current;
        if xorshift(x) % 100 < 60 || current.is_empty() {
            let u = (xorshift(x) % self.n) as NodeId;
            let v = (xorshift(x) % self.n) as NodeId;
            current.push((u, v));
            DeltaBatch::new().add(u, v)
        } else {
            let i = (xorshift(x) % current.len() as u64) as usize;
            let (u, v) = current.swap_remove(i);
            DeltaBatch::new().remove(u, v)
        }
    }

    /// Applies one batch, opens the new generation and runs a burst on it.
    /// `traced` captures the apply's spans.
    fn step(&mut self, traced: bool) -> io::Result<()> {
        let batch = self.next_batch();
        let sink = traced.then(|| Rc::new(MemSink::new()));
        let guard = sink.clone().map(|s| contract_expand::obs::install(s));
        let w0 = stats::wchar()?;
        let t0 = Instant::now();
        let report = self.eng.apply(&batch)?;
        let applied = Instant::now();
        let w1 = stats::wchar()?;
        drop(guard);
        let t1 = Instant::now();
        let reader = SccIndex::open_shared(self.index_path, POOL_BLOCKS)?;
        let open = t1.elapsed();
        self.updates.push(Update {
            total_ms: (applied.duration_since(t0) + open).as_secs_f64() * 1e3,
            open_ms: open.as_secs_f64() * 1e3,
            logical_ios: report.ios.total_ios(),
            wchar: w1 - w0,
            label_pages: report.label_pages_rewritten,
            merges: report.merges,
            spans: sink.map(|s| s.take()),
        });
        let burst_seed = self.seed ^ ((self.updates.len() as u64) << 20);
        self.bursts
            .absorb(run_clients(&reader, burst_seed, Stop::After(BURST), false)?);
        let p = reader.phys();
        self.burst_phys.reads += p.reads;
        self.burst_phys.hits += p.hits;
        self.burst_phys.misses += p.misses;
        Ok(())
    }

    /// Ends the stream. The oracle check runs here: compact, then compare
    /// every label with Tarjan on the final edge multiset.
    fn finish(mut self) -> io::Result<Maintained> {
        let artifact_bytes = std::fs::metadata(self.index_path)?.len();
        let labels = self.eng.labels_snapshot()?;
        let es: Vec<Edge> = self.current.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let truth = canonical_reps(self.n, &es);
        let wrong_final = (labels.len() as u64).abs_diff(self.n)
            + labels.iter().zip(&truth).filter(|(a, b)| a != b).count() as u64;
        Ok(Maintained {
            updates: self.updates,
            bursts: self.bursts,
            burst_phys: self.burst_phys,
            artifact_bytes,
            wrong_final,
        })
    }
}

/// The contraction trajectory of the Ext-SCC-Op regime, from one direct
/// `ExtScc::run` outside the timed phases: iterations next to the
/// planner's prediction, and how nodes and edges evolve on the way to the
/// base case.
fn contraction(
    m: &mut BTreeMap<String, f64>,
    session: &SccSession,
    predicted_passes: u64,
    oracle: &Oracle,
) -> io::Result<()> {
    let g = session.graph().expect("session has a graph");
    let out = ExtScc::new(session.env(), ExtSccConfig::optimized())
        .run(g)
        .map_err(|e| io::Error::other(format!("ExtScc::run failed: {e}")))?;
    let r = &out.report;
    let steps: Vec<String> = r
        .contraction
        .iter()
        .map(|i| format!("{}/{}", i.n_nodes, i.n_edges))
        .collect();
    println!(
        "contraction: planner predicted {predicted_passes} passes, ran {}; |V_i|/|E_i| {} -> base {}/{}",
        r.iterations(),
        steps.join(" -> "),
        r.base_nodes,
        r.base_edges
    );
    let input_edges = oracle.edges.len().max(1) as f64;
    let growth = r
        .contraction
        .iter()
        .map(|i| i.n_edges)
        .chain([r.base_edges])
        .map(|e| e as f64 / input_edges)
        .fold(0.0, f64::max);
    m.insert("core.iterations".into(), r.iterations() as f64);
    m.insert(
        "core.base_edge_ratio".into(),
        r.base_edges as f64 / input_edges,
    );
    m.insert(
        "core.base_node_ratio".into(),
        r.base_nodes as f64 / oracle.n as f64,
    );
    m.insert("core.edge_growth_max".into(), growth);
    Ok(())
}

/// Per-metric medians over a list of per-sample metric maps.
fn medians(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (k, &v) in s {
            by.entry(k.clone()).or_default().push(v);
        }
    }
    by.into_iter().map(|(k, vs)| (k, median(&vs))).collect()
}

fn percent_over(traced: f64, plain: f64) -> f64 {
    if plain > 0.0 {
        (traced / plain - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Everything a run measured and checked.
struct Outcome {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args, dir: &Path) -> io::Result<Outcome> {
    let w = args.workload;
    let graph_path = dir.join("graph.ceg");
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // ---- Set-up: generate the input and its oracle, several times. ----
    let mut setup_s = Vec::new();
    let mut oracle = None;
    for _ in 0..SETUP_REPS {
        drop(oracle.take()); // free the previous copy before timing the next
        let t0 = Instant::now();
        let o = setup(args, dir, &graph_path)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        oracle = Some(o);
    }
    let oracle = oracle.expect("at least one set-up");
    m.insert("setup_s".into(), median(&setup_s));
    println!(
        "{}: {} nodes, {} edges, {} SCCs (seed {}); set-up {:.3} s",
        w.name(),
        oracle.n,
        oracle.edges.len(),
        oracle.n_sccs,
        args.seed,
        median(&setup_s)
    );

    // ---- The timed phases. Builds come first, until their share of the
    // time is used. Then serve and maintain interleave: whichever is
    // further behind its share of the time so far goes next, so a stall of
    // a few seconds touches both a little instead of one entirely.
    // Interleaving builds too would let their writeback stall the
    // updates' fsyncs. In a traced run each phase alternates untraced and
    // traced steps. ----
    stats::reset_peak_rss()?;
    let start = Instant::now();
    let (build_share, serve_share) = w.shares();
    let shares = [build_share, serve_share, 1.0 - build_share - serve_share];
    let mut spent = [0.0f64; 3];

    // The first build makes the live artifact: the serve slices read its
    // generation 0, the writer maintains it. Later builds only time the job.
    let live_path = dir.join("live.sccidx");
    let (live, first, stored) =
        build_once(args, &dir.join("live"), &graph_path, &live_path, false)?;
    spent[0] += first.wall_s;
    attempted += 1;
    if !same_partition(&stored, &oracle.reps) {
        eprintln!("build 0: labels do not partition the nodes as the oracle does");
        failed += 1;
    }
    let mut builds = vec![first];
    let reader = SccIndex::open_shared(&live_path, POOL_BLOCKS)?;
    let mut writer = Writer::new(&live, &live_path, &oracle, args.seed)?;
    let mut served = Clients::default();
    let mut slices = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let short_builds = builds.len() < MIN_BUILDS;
        let short_updates = writer.updates.len() < MIN_UPDATES;
        let last_build = builds.last().map_or(0.0, |b| b.wall_s);
        let phase = if short_builds || spent[0] + last_build <= shares[0] * args.seconds {
            0
        } else if elapsed < args.seconds {
            // Serve and maintain interleave; on a tie a serve slice goes
            // first, which also lets the builds' writeback settle.
            let behind = |p: usize| shares[p] * elapsed - spent[p];
            if shares[1] > 0.0 && behind(1) >= behind(2) {
                1
            } else {
                2
            }
        } else if short_updates {
            2
        } else {
            break;
        };
        let t0 = Instant::now();
        match phase {
            0 => {
                let traced = args.trace && builds.len() % 2 == 1;
                let scratch = dir.join("build.sccidx");
                let (_, b, labels) =
                    build_once(args, &dir.join("build"), &graph_path, &scratch, traced)?;
                attempted += 1;
                // Every build must repeat the first one's labels exactly.
                if labels != stored {
                    eprintln!(
                        "build {}: labels differ from the first build's",
                        builds.len()
                    );
                    failed += 1;
                }
                builds.push(b);
            }
            1 => {
                let traced = args.trace && slices % 2 == 1;
                let stop = Stop::At(Instant::now() + SLICE);
                served.absorb(run_clients(
                    &reader,
                    args.seed ^ (slices << 32),
                    stop,
                    traced,
                )?);
                slices += 1;
            }
            _ => {
                // Updates worth about one slice.
                let until = Instant::now() + SLICE;
                while Instant::now() < until {
                    let traced = args.trace && writer.updates.len() % 2 == 1;
                    writer.step(traced)?;
                }
            }
        }
        spent[phase] += t0.elapsed().as_secs_f64();
    }
    let peak_rss = stats::peak_rss_mb()?;
    let serve_phys = (slices > 0).then(|| reader.phys());
    let maintained = writer.finish()?;

    let plain: Vec<&Build> = builds.iter().filter(|b| b.spans.is_none()).collect();
    // Logical I/O is deterministic at one thread: every build must agree.
    if builds
        .iter()
        .any(|b| b.logical_ios != builds[0].logical_ios)
    {
        eprintln!("builds disagree on logical I/O");
        failed += 1;
    }
    let build_walls: Vec<f64> = plain.iter().map(|b| b.wall_s).collect();
    let walls: Vec<String> = builds.iter().map(|b| format!("{:.3}", b.wall_s)).collect();
    println!("builds ({:?}): {} s", builds[0].engine, walls.join(" "));
    m.insert("build_s".into(), median(&build_walls));
    m.insert("logical_ios".into(), builds[0].logical_ios as f64);

    // ---- Checks. ----
    attempted += served.queries + maintained.bursts.queries + maintained.updates.len() as u64;
    let wrong_served = wrong_exact(&served.samples, &stored, &oracle);
    let wrong_bursts = wrong_coarsening(&maintained.bursts.samples, &stored, &oracle);
    for (what, wrong) in [
        ("serve answers", wrong_served),
        ("burst answers", wrong_bursts),
        ("final maintained labels", maintained.wrong_final),
    ] {
        if wrong > 0 {
            eprintln!("{what}: {wrong} disagree with the oracle");
        }
        failed += wrong;
    }
    println!(
        "checked {} builds, {} of {} serve answers, {} of {} burst answers, {} labels after {} updates ({} merges)",
        builds.len(),
        served.samples.len(),
        served.queries,
        maintained.bursts.samples.len(),
        maintained.bursts.queries,
        oracle.n,
        maintained.updates.len(),
        maintained.updates.iter().map(|u| u.merges).sum::<u64>()
    );

    // ---- End-to-end metrics. Queries come from the serve phase, or from
    // the bursts when the workload has none. ----
    let (queries, phys) = match serve_phys {
        Some(p) => (&served, p),
        None => (&maintained.bursts, maintained.burst_phys),
    };
    let upd: Vec<f64> = maintained.updates.iter().map(|u| u.total_ms).collect();
    m.insert("peak_rss_mb".into(), peak_rss);
    m.insert(
        "artifact_mb".into(),
        maintained.artifact_bytes as f64 / (1u64 << 20) as f64,
    );
    m.insert("qps".into(), queries.median_of(|s| s.qps));
    m.insert("query_p50_us".into(), queries.median_of(|s| s.p50_us));
    m.insert("query_p99_us".into(), queries.median_of(|s| s.p99_us));
    m.insert("update_p50_ms".into(), quantile(&upd, 0.50));
    m.insert("update_p95_ms".into(), quantile(&upd, 0.95));

    if args.trace {
        failed += per_layer(&mut m, &builds, queries, phys, &maintained, w);
        if builds[0].engine != Engine::SemiScc {
            contraction(&mut m, &live, builds[0].predicted_passes, &oracle)?;
        }
        m.insert("error_rate".into(), failed as f64 / attempted as f64);
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

/// Fills the per-layer metrics of a traced run. Returns the number of
/// traced builds whose span tree does not account for the build's logical
/// I/O exactly.
fn per_layer(
    m: &mut BTreeMap<String, f64>,
    builds: &[Build],
    queries: &Clients,
    phys: PhysSnapshot,
    maintained: &Maintained,
    w: Workload,
) -> u64 {
    // Span layers, per traced build; medians over traced builds.
    let mut per_build = Vec::new();
    for b in builds.iter().filter(|b| b.spans.is_some()) {
        let roots = b.spans.as_deref().expect("traced");
        let by = trace::self_by_name(roots);
        let mut s = BTreeMap::new();
        for &(span, prefix) in SPAN_LAYERS {
            let t = by.get(span).copied().unwrap_or_default();
            s.insert(format!("{prefix}.ms"), t.self_ms);
            s.insert(format!("{prefix}.ios"), t.self_ios as f64);
            s.insert(format!("{prefix}.count"), t.count as f64);
        }
        let total: u64 = by.values().map(|t| t.self_ios).sum();
        s.insert("bench.span_ios".into(), total as f64);
        s.insert(
            "obs.unattributed_ios".into(),
            by.get(BUILD_ROOT).map_or(0, |t| t.self_ios) as f64,
        );
        s.insert("pager.evictions".into(), b.evictions as f64);
        s.insert("pager.writebacks".into(), b.writebacks as f64);
        per_build.push(s);
    }
    let med = medians(&per_build);
    for &(name, _) in PER_LAYER {
        if let Some(&v) = med.get(name) {
            m.insert(name.into(), v);
        }
    }

    // Trace exactness: in every traced build, span self-I/O summed over the
    // whole tree equals the untraced job's logical I/O.
    let untraced = builds
        .iter()
        .find(|b| b.spans.is_none())
        .expect("an untraced build");
    let inexact = per_build
        .iter()
        .filter(|s| s["bench.span_ios"] as u64 != untraced.logical_ios)
        .count() as u64;
    println!(
        "trace: span self-I/O of {} traced builds sums to {} (untraced logical_ios {}), {inexact} differ",
        per_build.len(),
        med["bench.span_ios"],
        untraced.logical_ios
    );
    m.insert(
        "planner.predicted_passes".into(),
        builds[0].predicted_passes as f64,
    );

    // Index and pager, from the readers the queries ran on.
    m.insert(
        "index.ios_per_query".into(),
        queries.logical_ios as f64 / queries.queries.max(1) as f64,
    );
    let lookups = phys.hits + phys.misses;
    m.insert(
        "pager.hit_rate".into(),
        if lookups > 0 {
            phys.hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    m.insert(
        "pager.reads_per_query".into(),
        phys.reads as f64 / queries.queries.max(1) as f64,
    );

    // Delta engine, per update.
    let ups = &maintained.updates;
    let f = |g: fn(&Update) -> f64| ups.iter().map(g).collect::<Vec<f64>>();
    m.insert("index.open_ms".into(), median(&f(|u| u.open_ms)));
    m.insert(
        "delta.ios_per_update".into(),
        mean(&f(|u| u.logical_ios as f64)),
    );
    m.insert(
        "delta.label_pages_rewritten".into(),
        mean(&f(|u| u.label_pages as f64)),
    );
    m.insert("delta.merges".into(), mean(&f(|u| u.merges as f64)));
    m.insert(
        "delta.bytes_written_per_update".into(),
        mean(&f(|u| u.wchar as f64)),
    );
    let block = w.io_config().block_size as f64;
    m.insert(
        "delta.modeled_bytes_per_update".into(),
        mean(&f(|u| u.logical_ios as f64)) * block,
    );
    let mut classify = Vec::new();
    let mut merge = Vec::new();
    for u in ups.iter().filter(|u| u.spans.is_some()) {
        let by = trace::self_by_name(u.spans.as_deref().expect("traced"));
        classify.push(by.get("delta_classify").map_or(0.0, |t| t.self_ms));
        merge.push(by.get("delta_merge").map_or(0.0, |t| t.self_ms));
    }
    m.insert("delta.classify.ms".into(), median(&classify));
    m.insert("delta.merge.ms".into(), median(&merge));

    // Tracing overhead on the workload's main timing.
    let overhead = match w {
        Workload::Contract => {
            let walls = |traced: bool| -> Vec<f64> {
                builds
                    .iter()
                    .filter(|b| b.spans.is_some() == traced)
                    .map(|b| b.wall_s)
                    .collect()
            };
            percent_over(median(&walls(true)), median(&walls(false)))
        }
        Workload::Serve => percent_over(
            queries.median_where(true, |s| s.p50_us),
            queries.median_where(false, |s| s.p50_us),
        ),
        Workload::Maintain => {
            let t: Vec<f64> = ups
                .iter()
                .filter(|u| u.spans.is_some())
                .map(|u| u.total_ms)
                .collect();
            let p: Vec<f64> = ups
                .iter()
                .filter(|u| u.spans.is_none())
                .map(|u| u.total_ms)
                .collect();
            percent_over(median(&t), median(&p))
        }
    };
    m.insert("obs.overhead_pct".into(), overhead);
    inexact
}

/// Prints the result line. A per-layer metric the workload does not
/// produce (the contraction figures outside the Ext-SCC-Op regime) reads 0.
fn print_result(args: &Args, o: &Outcome) {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = WorkDir(
        std::env::current_dir()
            .expect("a current directory")
            .join(".perfbench-work")
            .join(format!("{}-{}", args.workload.name(), std::process::id())),
    );
    let outcome = std::fs::create_dir_all(&dir.0).and_then(|_| run(&args, &dir.0));
    drop(dir);
    match outcome {
        Ok(o) => {
            print_result(&args, &o);
            if o.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the declarations in `BENCHMARK.json`
    /// name the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let decl = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "{name} ({unit}) is not declared");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
