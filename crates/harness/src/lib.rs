//! Differential conformance harness for every SCC engine in the workspace.
//!
//! The paper's claim is that Ext-SCC / Ext-SCC-Op compute the *same* SCC
//! partition as classical algorithms at a fraction of the I/O. This crate
//! turns that claim into a test: a **scenario matrix** sweeping
//! {workload family × memory budget × storage backend × buffer-pool size ×
//! fault-injection point}, running every registered
//! [`SccAlgorithm`] on every cell and
//! asserting
//!
//! 1. **partition equivalence** — each algorithm's labeling, canonicalized
//!    by [`normalize_partition`], equals the in-memory Tarjan oracle's;
//! 2. **logical-I/O determinism** — the logical block-I/O count of a run
//!    depends only on (workload, budget, algorithm), never on which backend
//!    or pool the blocks lived in;
//! 3. **invariants** — label files are dense and node-sorted,
//!    representatives are members of their own component, reported SCC
//!    counts match the labeling;
//! 4. **fault surfacing** — with an injected physical-transfer fault every
//!    algorithm returns an error instead of panicking or mislabeling;
//! 5. **planner agreement** — for every (workload × budget) the
//!    [`Planner`](ce_graph::planner::Planner) (wired to the semi-external
//!    footprint via [`ce_semi_scc::planner_for`]) picks Semi-SCC *exactly*
//!    when the node array fits the budget, and the planned engine's cell
//!    passes in every storage mode;
//! 6. **index round-trips** — per scenario, an [`SccIndex`] built from the
//!    oracle labeling, closed, and reopened in a fresh environment answers
//!    every `component_of` / size query exactly as the oracle does;
//! 7. **strict budget accounting** — one extra scenario runs under
//!    [`EnvOptions::strict`], where the buffer pool's frames come *out of*
//!    the `M`-byte budget instead of on top of it;
//! 8. **thread-count invariance** — per (family × budget), the external
//!    engines are rerun at `threads = 1` and `threads = N` and both the
//!    partition and the full six-counter logical I/O snapshot must be
//!    bit-identical (worker threads may change wall time, never the model's
//!    charges).
//!
//! Algorithms whose [`may_stall`](ce_graph::algo::SccAlgorithm::may_stall)
//! is true (EM-SCC) may record a DNF instead of a labeling, as in the
//! paper's tables.
//!
//! The matrix is exposed three ways: `scc verify --scale smoke|full` on the
//! CLI, the root `tests/conformance.rs` suite (scale picked by the
//! `HARNESS_SCALE` env var), and [`verify_graph`] as a one-graph entry point
//! for property tests.
//!
//! Adding an engine: implement `SccAlgorithm` in its crate, push it in
//! [`registry`] (or [`full_registry`] for expensive variants), and every
//! surface above picks it up.
//!
//! ```
//! use ce_extmem::{DiskEnv, IoConfig};
//! use ce_graph::gen;
//!
//! let env = DiskEnv::new_temp(IoConfig::new(512, 8 << 10)).unwrap();
//! let g = gen::disjoint_cycles(&env, &[5, 7]).unwrap();
//! let verdicts = ce_harness::verify_graph(&env, &g).unwrap();
//! assert_eq!(verdicts.len(), ce_harness::registry().len());
//! assert!(verdicts.iter().all(|v| v.ok()), "{verdicts:?}");
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use ce_core::ExtSccAlgo;
use ce_dfs_scc::{DfsMode, DfsSccAlgo};
use ce_em_scc::EmSccAlgo;
use ce_extmem::{BackendKind, DiskEnv, EnvOptions, IoConfig};
use ce_graph::algo::{AlgoError, SccAlgorithm};
use ce_graph::planner::{Engine, Plan};
use ce_graph::{gen, EdgeListGraph, SccIndex, SccLabel, SccLabeling};
use ce_semi_scc::{SemiSccAlgo, SemiSccKind};

pub mod delta;

pub use delta::{run_delta_matrix, run_delta_stream, DeltaFamily, DeltaRow};

/// How big a matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessScale {
    /// Sub-thousand-node workloads; fast enough for tier-1 CI.
    Smoke,
    /// Larger workloads, the roomy-memory regime and the extended registry.
    Full,
}

impl HarnessScale {
    /// Parses `smoke` / `full`.
    pub fn parse(s: &str) -> Option<HarnessScale> {
        match s {
            "smoke" => Some(HarnessScale::Smoke),
            "full" => Some(HarnessScale::Full),
            _ => None,
        }
    }

    /// Reads the `HARNESS_SCALE` environment variable (default: smoke).
    ///
    /// # Panics
    ///
    /// On an unrecognized value — a typo like `HARNESS_SCALE=Full` must not
    /// silently downgrade the sweep to smoke and report green.
    pub fn from_env() -> HarnessScale {
        match std::env::var("HARNESS_SCALE") {
            Ok(v) => HarnessScale::parse(&v)
                .unwrap_or_else(|| panic!("bad HARNESS_SCALE {v:?}; use smoke|full")),
            Err(_) => HarnessScale::Smoke,
        }
    }

    /// Lowercase name for report headers.
    pub fn name(&self) -> &'static str {
        match self {
            HarnessScale::Smoke => "smoke",
            HarnessScale::Full => "full",
        }
    }

    /// Picks `s` under `Smoke` and `f` under `Full`.
    fn pick<T>(&self, s: T, f: T) -> T {
        match self {
            HarnessScale::Smoke => s,
            HarnessScale::Full => f,
        }
    }
}

/// The standard registry: the five external engines of the paper's
/// evaluation plus the two in-memory oracles. Order is the column order of
/// every report.
pub fn registry() -> Vec<Box<dyn SccAlgorithm>> {
    vec![
        Box::new(ce_graph::TarjanOracle),
        Box::new(ce_graph::KosarajuOracle),
        Box::new(ExtSccAlgo::baseline()),
        Box::new(ExtSccAlgo::optimized()),
        Box::new(SemiSccAlgo::new(SemiSccKind::Coloring)),
        Box::new(DfsSccAlgo::new(DfsMode::Naive)),
        Box::new(EmSccAlgo::new()),
    ]
}

/// The extended registry run at full scale: [`registry`] plus the expensive
/// variants (BRT-based DFS, spanning-tree semi-external).
pub fn full_registry() -> Vec<Box<dyn SccAlgorithm>> {
    let mut algos = registry();
    algos.push(Box::new(DfsSccAlgo::new(DfsMode::Brt)));
    algos.push(Box::new(SemiSccAlgo::new(SemiSccKind::SpanningTree)));
    algos
}

/// Canonicalizes a dense representative vector: every component is renamed
/// to its **minimum member id**, so two labelings describe the same
/// partition iff their normalized forms are equal.
pub fn normalize_partition(rep: &[u32]) -> Vec<u32> {
    let mut min_of: HashMap<u32, u32> = HashMap::new();
    for (v, &r) in rep.iter().enumerate() {
        // First occurrence = minimum member, since v ascends.
        min_of.entry(r).or_insert(v as u32);
    }
    rep.iter().map(|r| min_of[r]).collect()
}

/// What one algorithm did on one scenario cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Completed and passed every check.
    Pass {
        /// SCCs found.
        n_sccs: u64,
        /// Logical block I/Os consumed.
        ios: u64,
    },
    /// Stalled structurally — tolerated for `may_stall` algorithms (EM-SCC).
    Dnf,
    /// Wrong partition, broken invariant, or unexpected error.
    Fail,
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellOutcome::Pass { n_sccs, ios } => write!(f, "{n_sccs}/{ios}"),
            CellOutcome::Dnf => write!(f, "DNF"),
            CellOutcome::Fail => write!(f, "FAIL"),
        }
    }
}

/// One algorithm's verdict on one graph.
#[derive(Debug, Clone)]
pub struct AlgoVerdict {
    /// Algorithm display name (from [`SccAlgorithm::name`]).
    pub algo: &'static str,
    /// What happened.
    pub outcome: CellOutcome,
    /// Failure description, present iff `outcome` is [`CellOutcome::Fail`].
    pub detail: Option<String>,
}

impl AlgoVerdict {
    /// True unless the algorithm failed a check (DNFs count as ok).
    pub fn ok(&self) -> bool {
        !matches!(self.outcome, CellOutcome::Fail)
    }
}

/// Runs every algorithm of the standard [`registry`] on `g` and checks each
/// against the in-memory Tarjan oracle — the single-graph harness entry
/// point used by the property tests and the doctest above.
pub fn verify_graph(env: &DiskEnv, g: &EdgeListGraph) -> io::Result<Vec<AlgoVerdict>> {
    verify_graph_with(env, g, &registry())
}

/// [`verify_graph`] over an explicit algorithm list (column order kept).
/// The first algorithm must be the oracle the others are compared against.
pub fn verify_graph_with(
    env: &DiskEnv,
    g: &EdgeListGraph,
    algos: &[Box<dyn SccAlgorithm>],
) -> io::Result<Vec<AlgoVerdict>> {
    graded_cells(env, g, algos).map(|(cells, _)| cells)
}

/// [`verify_graph_with`] plus the oracle's labeling (the matrix reuses it
/// for the per-scenario index round-trip).
fn graded_cells(
    env: &DiskEnv,
    g: &EdgeListGraph,
    algos: &[Box<dyn SccAlgorithm>],
) -> io::Result<(Vec<AlgoVerdict>, SccLabeling)> {
    let oracle = algos
        .first()
        .ok_or_else(|| io::Error::other("empty algorithm list"))?;
    let oracle_run = oracle
        .run(env, g)
        .map_err(|e| io::Error::other(format!("oracle {} failed: {e}", oracle.name())))?;
    let oracle_labeling = oracle_run.labeling(g.n_nodes())?;
    let oracle_norm = normalize_partition(&oracle_labeling.rep);
    let oracle_sccs = oracle_run.n_sccs;

    let mut verdicts = vec![AlgoVerdict {
        algo: oracle.name(),
        outcome: CellOutcome::Pass {
            n_sccs: oracle_sccs,
            ios: oracle_run.ios.total_ios(),
        },
        detail: None,
    }];
    for algo in &algos[1..] {
        verdicts.push(check_one(env, g, algo.as_ref(), &oracle_norm, oracle_sccs));
    }
    Ok((verdicts, oracle_labeling))
}

/// Runs one algorithm and grades it against the oracle partition.
fn check_one(
    env: &DiskEnv,
    g: &EdgeListGraph,
    algo: &dyn SccAlgorithm,
    oracle_norm: &[u32],
    oracle_sccs: u64,
) -> AlgoVerdict {
    let fail = |detail: String| AlgoVerdict {
        algo: algo.name(),
        outcome: CellOutcome::Fail,
        detail: Some(detail),
    };
    // One span per matrix cell: when a sink is installed (e.g. a traced
    // conformance sweep), each algorithm run becomes its own trace root.
    let _sp = ce_extmem::io_span!(env, "harness_cell", nodes = g.n_nodes());
    let run = match algo.run(env, g) {
        Ok(run) => run,
        Err(AlgoError::Stalled(why)) if algo.may_stall() => {
            return AlgoVerdict {
                algo: algo.name(),
                outcome: CellOutcome::Dnf,
                detail: Some(why),
            }
        }
        Err(e) => return fail(format!("unexpected error: {e}")),
    };
    // Invariant: dense, node-sorted label file.
    let lab = match run.labeling(g.n_nodes()) {
        Ok(lab) => lab,
        Err(e) => return fail(format!("bad label file: {e}")),
    };
    // Invariant: representatives are members of their own component.
    if !lab.reps_are_members() {
        return fail("representative not a member of its component".into());
    }
    // Invariant: the reported SCC count matches the labeling.
    if lab.n_sccs() as u64 != run.n_sccs {
        return fail(format!(
            "reported {} SCCs but the labeling has {}",
            run.n_sccs,
            lab.n_sccs()
        ));
    }
    // Equivalence with the oracle, up to component renaming.
    if run.n_sccs != oracle_sccs {
        return fail(format!("found {} SCCs, oracle found {oracle_sccs}", run.n_sccs));
    }
    if normalize_partition(&lab.rep) != oracle_norm {
        return fail("partition differs from the oracle's".into());
    }
    AlgoVerdict {
        algo: algo.name(),
        outcome: CellOutcome::Pass {
            n_sccs: run.n_sccs,
            ios: run.ios.total_ios(),
        },
        detail: None,
    }
}

/// One workload family of the matrix: a named deterministic generator plus
/// its closed-form node count (memory budgets are sized from it *before*
/// generating; [`run_matrix`] asserts the two agree so they cannot drift).
struct Workload {
    name: &'static str,
    n_nodes: fn(HarnessScale) -> u64,
    build: fn(&DiskEnv, HarnessScale) -> io::Result<EdgeListGraph>,
}

/// Smoke-scale pins of the bench-scenario families: `(name, node count,
/// builder)` with the *exact* generator parameters the conformance matrix
/// (and therefore the golden `verify_smoke.txt`) runs at smoke scale.
///
/// This is the single source of truth shared with the root
/// `tests/io_model.rs` I/O-regression test, so its pinned baseline always
/// describes the scenario the matrix grades — tune a generator here and
/// every consumer moves in lockstep.
pub fn smoke_workloads() -> Vec<SmokeWorkload> {
    vec![
        ("web", SMOKE_WEB_N, |env| {
            gen::web_like(env, SMOKE_WEB_N as u32, 4.0, 11)
        }),
        ("cycle", SMOKE_CYCLE_N, |env| {
            gen::permuted_cycle(env, SMOKE_CYCLE_N as u32, 1)
        }),
        ("dag", SMOKE_DAG_N, |env| {
            gen::dag_layered(env, SMOKE_DAG_N as u32, 6, SMOKE_DAG_N * 3, 5)
        }),
        ("gnm", SMOKE_GNM_N, |env| {
            gen::random_gnm(env, SMOKE_GNM_N as u32, SMOKE_GNM_N * 4, 9)
        }),
    ]
}

/// One smoke bench workload: family name, node count, builder.
pub type SmokeWorkload = (&'static str, u64, fn(&DiskEnv) -> io::Result<EdgeListGraph>);

/// Builds the deterministic query-serving smoke index shared by `scc serve
/// --self-test` and the threaded stress test in `tests/serve.rs`:
/// a `gen::web_like(n_nodes, 4.0, seed)` graph labeled by the in-memory
/// Tarjan oracle and materialized at `path` (page size = the environment's
/// block size). Returns the oracle's canonical representative per node —
/// the ground truth every concurrent query answer is checked against.
pub fn build_query_index(
    env: &DiskEnv,
    path: &std::path::Path,
    n_nodes: u32,
    seed: u64,
) -> io::Result<Vec<u32>> {
    let g = gen::web_like(env, n_nodes, 4.0, seed)?;
    let edges = g.edges_in_memory()?;
    let r = ce_graph::tarjan::tarjan_scc(&ce_graph::CsrGraph::from_edges(g.n_nodes(), &edges));
    let reps = r.canonical_reps();
    let mut w = env.writer::<SccLabel>("query-index-oracle-labels")?;
    for (v, &rep) in reps.iter().enumerate() {
        w.push(SccLabel::new(v as u32, rep))?;
    }
    let labels = w.finish()?;
    SccIndex::build(env, path, &labels, g.n_nodes(), None)?;
    Ok(reps)
}

/// One query of the `scc serve` line protocol.
#[derive(Debug)]
pub enum ServeQuery {
    /// `c u` — `component_of(u)`.
    Point(u32),
    /// `s u v` — `same_component(u, v)`.
    Same(u32, u32),
    /// `z u` — `component_size(u)`.
    Size(u32),
    /// `b u1 u2 ...` — `component_of_many(&[u1, u2, ...])`.
    Batch(Vec<u32>),
}

/// Draws one query of the mixed serve workload from the xorshift state `x`
/// (which must be nonzero): 60% point lookups, 20% pair checks, 10% size
/// lookups and 10% batches of `batch` nodes, every node uniform over
/// `0..n_nodes`. The state fully determines the sequence.
pub fn gen_query(x: &mut u64, n_nodes: u32, batch: usize) -> ServeQuery {
    let node = |x: &mut u64| (delta::xorshift(x) % u64::from(n_nodes)) as u32;
    match delta::xorshift(x) % 10 {
        0..=5 => ServeQuery::Point(node(x)),
        6 | 7 => ServeQuery::Same(node(x), node(x)),
        8 => ServeQuery::Size(node(x)),
        _ => ServeQuery::Batch((0..batch).map(|_| node(x)).collect()),
    }
}

/// The concurrent serve check behind `scc serve --self-test` and
/// `tests/serve.rs`. Generates `n_queries` queries from `seed` over the
/// index at `path`, built by [`build_query_index`] with oracle
/// representatives `reps`. It replays them once through an owned
/// [`SccIndex`] in `env`, recording each query's logical I/O, then on
/// `threads` concurrent clones of one shared reader with a 64-block pool.
/// Every shared answer must match the oracle, and every per-query logical
/// delta must equal the owned one; the first mismatch is the error.
pub fn check_serve(
    env: &DiskEnv,
    path: &std::path::Path,
    reps: &[u32],
    seed: u64,
    n_queries: usize,
    threads: usize,
) -> io::Result<()> {
    let n_nodes = u32::try_from(reps.len()).map_err(|_| io::Error::other("too many nodes"))?;
    let mut sizes = HashMap::<u32, u64>::new();
    for &r in reps {
        *sizes.entry(r).or_default() += 1;
    }
    let mut x = (seed ^ 0x9e37_79b9_7f4a_7c15) | 1;
    let workload: Vec<ServeQuery> = (0..n_queries)
        .map(|_| gen_query(&mut x, n_nodes, 8))
        .collect();

    let mut owned = SccIndex::open(env, path)?;
    let mut owned_deltas = Vec::with_capacity(workload.len());
    let mut last = env.stats().snapshot();
    for q in &workload {
        match q {
            ServeQuery::Point(u) => drop(owned.component_of(*u)?),
            ServeQuery::Same(u, v) => drop(owned.same_component(*u, *v)?),
            ServeQuery::Size(u) => drop(owned.component_size(*u)?),
            ServeQuery::Batch(us) => drop(owned.component_of_many(us)?),
        }
        let now = env.stats().snapshot();
        owned_deltas.push(now.since(&last));
        last = now;
    }

    // Answers flattened to numbers (`same_component` as 0/1).
    let oracle = |q: &ServeQuery| -> Vec<u64> {
        let rep = |u: &u32| u64::from(reps[*u as usize]);
        match q {
            ServeQuery::Point(u) => vec![rep(u)],
            ServeQuery::Same(u, v) => vec![u64::from(rep(u) == rep(v))],
            ServeQuery::Size(u) => vec![sizes[&reps[*u as usize]]],
            ServeQuery::Batch(us) => us.iter().map(rep).collect(),
        }
    };
    let shared = |idx: &ce_graph::SccIndexReader, q: &ServeQuery| -> io::Result<Vec<u64>> {
        Ok(match q {
            ServeQuery::Point(u) => vec![u64::from(idx.component_of(*u)?)],
            ServeQuery::Same(u, v) => vec![u64::from(idx.same_component(*u, *v)?)],
            ServeQuery::Size(u) => vec![idx.component_size(*u)?],
            ServeQuery::Batch(us) => idx
                .component_of_many(us)?
                .into_iter()
                .map(u64::from)
                .collect(),
        })
    };

    let reader = SccIndex::open_shared(path, 64)?;
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let handle = reader.clone();
                let (workload, owned_deltas, oracle, shared) =
                    (&workload, &owned_deltas, &oracle, &shared);
                s.spawn(move || -> Result<(), String> {
                    let mut last = handle.stats();
                    for (i, q) in workload.iter().enumerate() {
                        let err = |what: String| format!("thread {t}, query {i} {q:?}: {what}");
                        let got = shared(&handle, q).map_err(|e| err(e.to_string()))?;
                        let want = oracle(q);
                        if got != want {
                            return Err(err(format!("answered {got:?}, oracle says {want:?}")));
                        }
                        let now = handle.stats();
                        let delta = now.since(&last);
                        last = now;
                        if delta != owned_deltas[i] {
                            return Err(err(format!(
                                "logical I/O {delta:?} != owned {:?}",
                                owned_deltas[i]
                            )));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("serve check worker panicked").err())
            .collect()
    });
    match failures.into_iter().next() {
        Some(first) => Err(io::Error::other(first)),
        None => Ok(()),
    }
}

/// Node counts of the four bench-scenario families at each scale (shared
/// between [`smoke_workloads`], the matrix's `n_nodes` closures and its
/// full-scale `build` arms, so sizes cannot drift from the budgets computed
/// from them).
const SMOKE_WEB_N: u64 = 600;
const SMOKE_CYCLE_N: u64 = 400;
const SMOKE_DAG_N: u64 = 300;
const SMOKE_GNM_N: u64 = 300;
const FULL_WEB_N: u64 = 5000;
const FULL_CYCLE_N: u64 = 4000;
const FULL_DAG_N: u64 = 3000;
const FULL_GNM_N: u64 = 2500;

/// Looks up one smoke workload by family name.
fn smoke_workload(name: &str) -> (u64, fn(&DiskEnv) -> io::Result<EdgeListGraph>) {
    smoke_workloads()
        .into_iter()
        .find(|w| w.0 == name)
        .map(|w| (w.1, w.2))
        .unwrap_or_else(|| panic!("unknown smoke workload {name:?}"))
}

/// The matrix's workload families (deterministic seeds; sizes scale with
/// [`HarnessScale`]; smoke arms delegate to [`smoke_workloads`]).
fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "cycle",
            n_nodes: |s| s.pick(SMOKE_CYCLE_N, FULL_CYCLE_N),
            build: |env, s| match s {
                HarnessScale::Smoke => smoke_workload("cycle").1(env),
                HarnessScale::Full => gen::permuted_cycle(env, FULL_CYCLE_N as u32, 1),
            },
        },
        Workload {
            name: "nested-cycles",
            n_nodes: |s| 3 * 4u64.pow(s.pick(3, 5)),
            build: |env, s| gen::nested_cycles(env, 3, s.pick(3, 5), 4),
        },
        Workload {
            name: "dag",
            n_nodes: |s| s.pick(SMOKE_DAG_N, FULL_DAG_N),
            build: |env, s| match s {
                HarnessScale::Smoke => smoke_workload("dag").1(env),
                HarnessScale::Full => {
                    gen::dag_layered(env, FULL_DAG_N as u32, 6, FULL_DAG_N * 3, 5)
                }
            },
        },
        Workload {
            name: "web",
            n_nodes: |s| s.pick(SMOKE_WEB_N, FULL_WEB_N),
            build: |env, s| match s {
                HarnessScale::Smoke => smoke_workload("web").1(env),
                HarnessScale::Full => gen::web_like(env, FULL_WEB_N as u32, 4.0, 11),
            },
        },
        Workload {
            name: "planted",
            n_nodes: |s| s.pick(800, 6000),
            build: |env, s| {
                let spec = gen::SyntheticSpec::table1(gen::Dataset::Large, s.pick(800, 6000), 4.0, 21);
                gen::planted_scc_graph(env, &spec)
            },
        },
        Workload {
            name: "gnm",
            n_nodes: |s| s.pick(SMOKE_GNM_N, FULL_GNM_N),
            build: |env, s| match s {
                HarnessScale::Smoke => smoke_workload("gnm").1(env),
                HarnessScale::Full => {
                    gen::random_gnm(env, FULL_GNM_N as u32, FULL_GNM_N * 4, 9)
                }
            },
        },
        Workload {
            name: "rmat",
            n_nodes: |s| 1 << s.pick(8, 11),
            build: |env, s| gen::rmat(env, &gen::RmatSpec::graph500(s.pick(8, 11), 4, 42)),
        },
    ]
}

/// Block size of every matrix environment: small enough that even the smoke
/// graphs span many blocks. Public because the bench scenario
/// ([`smoke_workloads`] / [`tight_budget`]) is defined against it.
pub const MATRIX_BLOCK: usize = 512;

/// Memory budget in bytes that fits the semi-external state of `nodes`
/// nodes under the matrix block size — the one formula behind every budget
/// regime.
fn budget_for(nodes: u64) -> usize {
    let cfg = IoConfig::new(MATRIX_BLOCK, 4 * MATRIX_BLOCK);
    let need = ce_semi_scc::mem_required(SemiSccKind::Coloring, nodes.max(2), &cfg);
    (need as usize).max(2 * MATRIX_BLOCK)
}

/// The tight memory regime's budget in bytes for an `n_nodes`-node graph:
/// semi-external state for ~|V|/3 nodes, so Ext-SCC must genuinely contract
/// (the regime the paper's figures sweep). Shared between the matrix's
/// tight scenarios and the I/O-regression test in `tests/io_model.rs`.
pub fn tight_budget(n_nodes: u64) -> usize {
    budget_for(n_nodes / 3)
}

/// One storage configuration of the matrix.
struct StorageMode {
    name: &'static str,
    backend: BackendKind,
    pooled: bool,
}

/// The 2 backends × 2 pool settings every scenario runs under.
fn storage_modes() -> [StorageMode; 4] {
    [
        StorageMode { name: "file/raw", backend: BackendKind::File, pooled: false },
        StorageMode { name: "file/pool", backend: BackendKind::File, pooled: true },
        StorageMode { name: "mem/raw", backend: BackendKind::Mem, pooled: false },
        StorageMode { name: "mem/pool", backend: BackendKind::Mem, pooled: true },
    ]
}

/// One memory-budget regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BudgetKind {
    /// Semi-external state for ~|V|/3 nodes: contraction genuinely runs.
    Tight,
    /// State for all of |V| and more: the base case runs directly.
    Roomy,
}

impl BudgetKind {
    fn name(&self) -> &'static str {
        match self {
            BudgetKind::Tight => "tight",
            BudgetKind::Roomy => "roomy",
        }
    }

    /// The memory budget in bytes for a graph of `n` nodes.
    fn bytes(&self, n: u64) -> usize {
        match self {
            BudgetKind::Tight => tight_budget(n),
            BudgetKind::Roomy => budget_for(n * 2),
        }
    }
}

/// One row of the matrix report: one (family, budget, storage) scenario with
/// one cell per algorithm.
#[derive(Debug)]
pub struct MatrixRow {
    /// Workload family name.
    pub family: &'static str,
    /// Budget regime name.
    pub budget: &'static str,
    /// Storage mode name.
    pub storage: &'static str,
    /// One verdict per registered algorithm, in registry order.
    pub cells: Vec<AlgoVerdict>,
}

/// The planner's decision for one (workload family × budget) pair, as shown
/// in the `scc verify` report.
#[derive(Debug)]
pub struct PlannerRow {
    /// `"family x budget"`.
    pub scenario: String,
    /// Chosen engine's display name.
    pub engine: &'static str,
    /// Compact byte arithmetic behind the choice.
    pub detail: String,
}

/// Renders a [`Plan`] as the report's compact one-line arithmetic.
fn planner_detail(plan: &Plan) -> String {
    if plan.engine == Engine::SemiScc {
        format!(
            "semi needs {} B <= {} B budget",
            plan.semi_bytes_needed, plan.mem_budget
        )
    } else {
        format!(
            "semi needs {} B > {} B budget; ~{} passes",
            plan.semi_bytes_needed, plan.mem_budget, plan.predicted_passes
        )
    }
}

/// Builds an [`SccIndex`] from the oracle labeling inside the scenario's
/// environment (exercising its backend and pool on the write path), closes
/// it, reopens it in a *fresh* default environment (the artifact must stand
/// alone), and checks every query against the oracle. Returns a violation
/// description on mismatch.
fn check_index_roundtrip(env: &DiskEnv, lab: &SccLabeling) -> io::Result<Option<String>> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = lab.rep.len() as u64;
    let records: Vec<SccLabel> = lab
        .rep
        .iter()
        .enumerate()
        .map(|(v, &r)| SccLabel::new(v as u32, r))
        .collect();
    let labels = env.file_from_slice("idx-rt-labels", &records)?;
    let path = std::env::temp_dir().join(format!(
        "ce-harness-idx-{}-{}.sccidx",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let verdict = (|| -> io::Result<Option<String>> {
        let n_sccs = SccIndex::build(env, &path, &labels, n, None)?;
        let fresh = DiskEnv::new_temp(IoConfig::new(MATRIX_BLOCK, 4 * MATRIX_BLOCK))?;
        let mut idx = SccIndex::open(&fresh, &path)?;
        if n_sccs != lab.n_sccs() as u64 || idx.n_sccs() != n_sccs || idx.n_nodes() != n {
            return Ok(Some(format!(
                "index counts drifted: built {n_sccs}, reopened {}, oracle {}",
                idx.n_sccs(),
                lab.n_sccs()
            )));
        }
        for (v, &rep) in lab.rep.iter().enumerate() {
            let got = idx.component_of(v as u32)?;
            if got != rep {
                return Ok(Some(format!(
                    "component_of({v}) = {got} after reopen, oracle says {rep}"
                )));
            }
        }
        let mut total = 0u64;
        for entry in idx.components() {
            total += entry?.1;
        }
        if total != n {
            return Ok(Some(format!("component sizes sum to {total}, not {n}")));
        }
        Ok(None)
    })();
    let _ = std::fs::remove_file(&path);
    verdict
}

/// Outcome of one fault-injection run.
#[derive(Debug)]
pub struct FaultRow {
    /// Algorithm display name.
    pub algo: &'static str,
    /// Physical transfer after which the injected fault fires.
    pub point: u64,
    /// `"error surfaced"` if the run returned an I/O error, `"completed
    /// clean"` if it finished (correctly) before the fault fired, `"FAIL"`
    /// otherwise (panic-free wrong behaviour).
    pub outcome: &'static str,
}

/// Everything one matrix sweep produced; `Display` renders the summary
/// table printed by `scc verify` (deterministic, byte-stable output — no
/// wall-clock, no paths, no hash-map iteration order).
#[derive(Debug)]
pub struct MatrixReport {
    /// Scale the sweep ran at.
    pub scale: HarnessScale,
    /// Column names, in registry order.
    pub algos: Vec<&'static str>,
    /// One row per scenario.
    pub rows: Vec<MatrixRow>,
    /// Logical-I/O determinism violations (empty = pass).
    pub determinism_violations: Vec<String>,
    /// Number of (family × budget × algorithm) groups checked for identical
    /// logical I/Os across storage modes.
    pub determinism_groups: usize,
    /// Worker-thread count the thread-invariance axis compared against 1.
    pub threads_axis: usize,
    /// Number of (family × budget × engine) groups checked for identical
    /// partitions and bit-identical six-counter logical I/O between
    /// `threads = 1` and `threads = threads_axis`.
    pub threads_groups: usize,
    /// Thread-count invariance violations (empty = pass).
    pub threads_violations: Vec<String>,
    /// Planner decision per (family × budget).
    pub planner_rows: Vec<PlannerRow>,
    /// Planner disagreements — fit-boundary mismatches or planned engines
    /// that failed their scenario (empty = pass).
    pub planner_violations: Vec<String>,
    /// Scenarios whose index round-trip was checked.
    pub index_scenarios: usize,
    /// Index round-trip mismatches (empty = pass).
    pub index_violations: Vec<String>,
    /// The strict-budget scenario's split arithmetic, for the report.
    pub strict_note: String,
    /// Fault-injection outcomes.
    pub faults: Vec<FaultRow>,
}

impl MatrixReport {
    /// True iff every cell passed (or DNF'd where tolerated), logical I/Os
    /// were identical across storage modes, and every fault surfaced.
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(|r| r.cells.iter().all(|c| c.ok()))
            && self.determinism_violations.is_empty()
            && self.threads_violations.is_empty()
            && self.planner_violations.is_empty()
            && self.index_violations.is_empty()
            && self.faults.iter().all(|f| f.outcome != "FAIL")
    }

    /// (runs, passes, dnfs, failures) over all cells.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let mut pass = 0;
        let mut dnf = 0;
        let mut fail = 0;
        for row in &self.rows {
            for c in &row.cells {
                match c.outcome {
                    CellOutcome::Pass { .. } => pass += 1,
                    CellOutcome::Dnf => dnf += 1,
                    CellOutcome::Fail => fail += 1,
                }
            }
        }
        (pass + dnf + fail, pass, dnf, fail)
    }

    /// Failure details (cell and determinism), for assertion messages.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                if !c.ok() {
                    out.push(format!(
                        "{} x {} x {} x {}: {}",
                        row.family,
                        row.budget,
                        row.storage,
                        c.algo,
                        c.detail.as_deref().unwrap_or("failed")
                    ));
                }
            }
        }
        out.extend(self.determinism_violations.iter().cloned());
        out.extend(self.threads_violations.iter().cloned());
        out.extend(self.planner_violations.iter().cloned());
        out.extend(self.index_violations.iter().cloned());
        for f in &self.faults {
            if f.outcome == "FAIL" {
                out.push(format!("fault injection: {} at point {}", f.algo, f.point));
            }
        }
        out
    }
}

impl fmt::Display for MatrixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conformance matrix (scale = {})", self.scale.name())?;
        write!(f, "  {:<14} {:<6} {:<9}", "family", "budget", "storage")?;
        for a in &self.algos {
            write!(f, " {a:>12}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "  {:<14} {:<6} {:<9}", row.family, row.budget, row.storage)?;
            for c in &row.cells {
                write!(f, " {:>12}", c.outcome.to_string())?;
            }
            writeln!(f)?;
        }
        writeln!(f, "strict budget: {}", self.strict_note)?;
        writeln!(f, "planner:")?;
        for p in &self.planner_rows {
            writeln!(f, "  {:<22} -> {:<10} ({})", p.scenario, p.engine, p.detail)?;
        }
        if self.planner_violations.is_empty() {
            writeln!(
                f,
                "planner agreement: OK — {} plans; planned engine passed in every scenario",
                self.planner_rows.len()
            )?;
        } else {
            writeln!(f, "planner agreement: FAILED")?;
            for v in &self.planner_violations {
                writeln!(f, "  {v}")?;
            }
        }
        if self.index_violations.is_empty() {
            writeln!(
                f,
                "index round-trip: OK — {} scenarios (build -> close -> reopen -> queries match the oracle)",
                self.index_scenarios
            )?;
        } else {
            writeln!(f, "index round-trip: FAILED")?;
            for v in &self.index_violations {
                writeln!(f, "  {v}")?;
            }
        }
        if self.determinism_violations.is_empty() {
            writeln!(
                f,
                "logical-I/O determinism: OK — {} (family x budget x algorithm) groups identical across {} storage modes",
                self.determinism_groups,
                storage_modes().len()
            )?;
        } else {
            writeln!(f, "logical-I/O determinism: FAILED")?;
            for v in &self.determinism_violations {
                writeln!(f, "  {v}")?;
            }
        }
        if self.threads_violations.is_empty() {
            writeln!(
                f,
                "thread-count invariance: OK — {} (family x budget x engine) groups identical between threads=1 and threads={}",
                self.threads_groups, self.threads_axis
            )?;
        } else {
            writeln!(f, "thread-count invariance: FAILED")?;
            for v in &self.threads_violations {
                writeln!(f, "  {v}")?;
            }
        }
        writeln!(f, "fault injection (unpooled file backend):")?;
        for fr in &self.faults {
            writeln!(f, "  {:<14} after {:>3} transfers: {}", fr.algo, fr.point, fr.outcome)?;
        }
        let (runs, pass, dnf, fail) = self.tally();
        writeln!(
            f,
            "verdict: {} ({runs} runs: {pass} ok, {dnf} DNF, {fail} failed)",
            if self.all_ok() { "PASS" } else { "FAIL" }
        )
    }
}

/// Runs the full scenario matrix at the given scale, comparing the
/// thread-invariance axis at `threads = 2` (see [`run_matrix_with`]).
pub fn run_matrix(scale: HarnessScale) -> io::Result<MatrixReport> {
    run_matrix_with(scale, 2)
}

/// The thread-count invariance axis: Ext-SCC, Ext-SCC-Op and Semi-SCC are
/// each run per (family × budget) on the unpooled file backend at
/// `threads = 1` and `threads = par`, and both the normalized partition and
/// the full six-counter logical [`ce_extmem::IoSnapshot`] must match bit for
/// bit — the contract that worker threads may only change wall time, never
/// what the I/O model charges. Both Ext-SCC modes put Get-E's paired chains
/// on `ce_core`'s `run_pair` threads (baseline mode its edge orders too);
/// Semi-SCC spawns no threads and is the sequential control.
fn run_thread_axis_checks(
    scale: HarnessScale,
    budgets: &[BudgetKind],
    par: usize,
) -> io::Result<(usize, Vec<String>)> {
    let engines: Vec<Box<dyn SccAlgorithm>> = vec![
        Box::new(ExtSccAlgo::baseline()),
        Box::new(ExtSccAlgo::optimized()),
        Box::new(SemiSccAlgo::new(SemiSccKind::Coloring)),
    ];
    let mut groups = 0usize;
    let mut violations = Vec::new();
    for family in &workloads() {
        let n = (family.n_nodes)(scale);
        for budget in budgets {
            let cfg = IoConfig::new(MATRIX_BLOCK, budget.bytes(n));
            let mut base: Vec<Option<(Vec<u32>, ce_extmem::IoSnapshot)>> =
                vec![None; engines.len()];
            for t in [1usize, par] {
                let env = DiskEnv::new_temp_with(cfg, EnvOptions::default().with_threads(t))?;
                let g = (family.build)(&env, scale)?;
                for (i, algo) in engines.iter().enumerate() {
                    let scenario =
                        format!("{} x {} x {}", family.name, budget.name(), algo.name());
                    let run = algo.run(&env, &g).map_err(|e| {
                        io::Error::other(format!("{scenario} failed at threads={t}: {e}"))
                    })?;
                    let norm = normalize_partition(&run.labeling(g.n_nodes())?.rep);
                    match &base[i] {
                        None => base[i] = Some((norm, run.ios)),
                        Some((b_norm, b_ios)) => {
                            groups += 1;
                            if &norm != b_norm {
                                violations.push(format!(
                                    "{scenario}: partition differs between threads=1 and threads={t}"
                                ));
                            }
                            if b_ios != &run.ios {
                                violations.push(format!(
                                    "{scenario}: logical I/O differs between threads=1 and threads={t}: {b_ios:?} vs {:?}",
                                    run.ios
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((groups, violations))
}

/// Runs the full scenario matrix at the given scale. `threads` sets the
/// parallel side of the thread-invariance axis (values below 2 are raised
/// to 2 so the axis always compares against a genuinely parallel run); the
/// main matrix cells stay at `threads = 1` so their logical I/Os — already
/// proven thread-invariant by the axis — keep the historical golden output.
pub fn run_matrix_with(scale: HarnessScale, threads: usize) -> io::Result<MatrixReport> {
    let threads_axis = threads.max(2);
    let algos = match scale {
        HarnessScale::Smoke => registry(),
        HarnessScale::Full => full_registry(),
    };
    let algo_names: Vec<&'static str> = algos.iter().map(|a| a.name()).collect();
    let budgets: &[BudgetKind] = match scale {
        HarnessScale::Smoke => &[BudgetKind::Tight],
        HarnessScale::Full => &[BudgetKind::Tight, BudgetKind::Roomy],
    };

    let mut rows = Vec::new();
    // (family, budget, algo) -> set of logical-I/O counts seen across modes.
    let mut io_groups: BTreeMap<(String, &'static str), Vec<u64>> = BTreeMap::new();
    let mut planner_rows = Vec::new();
    let mut planner_violations = Vec::new();
    let mut index_scenarios = 0usize;
    let mut index_violations = Vec::new();

    // Grades one scenario environment: runs every algorithm, records the
    // planner-agreement and index-round-trip checks, returns the cell row.
    #[allow(clippy::too_many_arguments)]
    fn grade_scenario(
        env: &DiskEnv,
        g: &EdgeListGraph,
        algos: &[Box<dyn SccAlgorithm>],
        scenario: String,
        plan: &Plan,
        planner_violations: &mut Vec<String>,
        index_scenarios: &mut usize,
        index_violations: &mut Vec<String>,
    ) -> io::Result<Vec<AlgoVerdict>> {
        let (cells, oracle_labeling) = graded_cells(env, g, algos)?;
        match cells.iter().find(|c| c.algo == plan.engine.name()) {
            Some(cell) if matches!(cell.outcome, CellOutcome::Pass { .. }) => {}
            Some(cell) => planner_violations.push(format!(
                "{scenario}: planned engine {} did not pass ({})",
                plan.engine,
                cell.detail.as_deref().unwrap_or("no detail")
            )),
            None => planner_violations.push(format!(
                "{scenario}: planned engine {} is not in the registry",
                plan.engine
            )),
        }
        *index_scenarios += 1;
        if let Some(why) = check_index_roundtrip(env, &oracle_labeling)? {
            index_violations.push(format!("{scenario}: {why}"));
        }
        Ok(cells)
    }

    for family in &workloads() {
        let n = (family.n_nodes)(scale);
        for budget in budgets {
            let cfg = IoConfig::new(MATRIX_BLOCK, budget.bytes(n));
            // The planner must pick Semi-SCC exactly when the node array
            // fits the budget — checked against the footprint source of
            // truth, then against every storage mode's actual run.
            let plan = ce_semi_scc::planner_for(cfg).plan(n);
            let fits =
                ce_semi_scc::mem_required(SemiSccKind::Coloring, n, &cfg) <= cfg.mem_budget as u64;
            if (plan.engine == Engine::SemiScc) != fits {
                planner_violations.push(format!(
                    "{} x {}: planner chose {} but the node array {} the budget",
                    family.name,
                    budget.name(),
                    plan.engine,
                    if fits { "fits" } else { "exceeds" }
                ));
            }
            planner_rows.push(PlannerRow {
                scenario: format!("{} x {}", family.name, budget.name()),
                engine: plan.engine.name(),
                detail: planner_detail(&plan),
            });
            for mode in &storage_modes() {
                let opts = EnvOptions::default()
                    .with_backend(mode.backend)
                    .with_cache_blocks(if mode.pooled { cfg.blocks_in_memory() } else { 0 });
                let env = DiskEnv::new_temp_with(cfg, opts)?;
                let g = (family.build)(&env, scale)?;
                assert_eq!(
                    g.n_nodes(),
                    n,
                    "{}: declared node count drifted from the generator",
                    family.name
                );
                let cells = grade_scenario(
                    &env,
                    &g,
                    &algos,
                    format!("{} x {} x {}", family.name, budget.name(), mode.name),
                    &plan,
                    &mut planner_violations,
                    &mut index_scenarios,
                    &mut index_violations,
                )?;
                for c in &cells {
                    if let CellOutcome::Pass { ios, .. } = c.outcome {
                        io_groups
                            .entry((format!("{} x {}", family.name, budget.name()), c.algo))
                            .or_default()
                            .push(ios);
                    }
                }
                rows.push(MatrixRow {
                    family: family.name,
                    budget: budget.name(),
                    storage: mode.name,
                    cells,
                });
            }
        }
    }

    // One extra scenario under strict M-total accounting: the pool's frames
    // come out of the budget instead of on top of it (ROADMAP open item).
    // Not part of the determinism groups — a smaller algorithm-side budget
    // legitimately changes the logical I/O counts.
    let strict_note = {
        let family = workloads()
            .into_iter()
            .find(|w| w.name == "web")
            .expect("web workload exists");
        let n = (family.n_nodes)(scale);
        let total = BudgetKind::Tight.bytes(n);
        let (cfg, opts) = EnvOptions::strict(total, MATRIX_BLOCK);
        let env = DiskEnv::new_temp_with(cfg, opts)?;
        let g = (family.build)(&env, scale)?;
        let plan = ce_semi_scc::planner_for(cfg).plan(n);
        let cells = grade_scenario(
            &env,
            &g,
            &algos,
            format!("{} x tight x strict", family.name),
            &plan,
            &mut planner_violations,
            &mut index_scenarios,
            &mut index_violations,
        )?;
        rows.push(MatrixRow {
            family: family.name,
            budget: "tight",
            storage: "strict",
            cells,
        });
        format!(
            "web x tight splits {total} B as {} pool frames + {} B algorithm budget",
            opts.cache_blocks, cfg.mem_budget
        )
    };

    let mut determinism_violations = Vec::new();
    let determinism_groups = io_groups.len();
    for ((scenario, algo), ios) in &io_groups {
        if ios.windows(2).any(|w| w[0] != w[1]) {
            determinism_violations.push(format!(
                "{scenario} x {algo}: logical I/Os vary across storage modes: {ios:?}"
            ));
        }
    }

    let (threads_groups, threads_violations) =
        run_thread_axis_checks(scale, budgets, threads_axis)?;

    Ok(MatrixReport {
        scale,
        algos: algo_names,
        rows,
        determinism_violations,
        determinism_groups,
        threads_axis,
        threads_groups,
        threads_violations,
        planner_rows,
        planner_violations,
        index_scenarios,
        index_violations,
        strict_note,
        faults: run_fault_checks(&algos)?,
    })
}

/// Fault-injection pass: on an unpooled file environment (every logical
/// block access is one physical transfer), arrange for the `point`-th
/// physical transfer to fail and assert each algorithm either surfaces the
/// error or — if it completes before the fault fires — still labels
/// correctly. Afterwards the fault is cleared and a clean rerun must pass.
fn run_fault_checks(algos: &[Box<dyn SccAlgorithm>]) -> io::Result<Vec<FaultRow>> {
    // The fixed fault workload: three 8-cycles, whose canonical partition is
    // known in closed form.
    let expected: Vec<u32> = (0u32..24).map(|v| v / 8 * 8).collect();
    let labels_correct = |run: &ce_graph::SccRun, n: u64| -> bool {
        run.n_sccs == 3
            && run
                .labeling(n)
                .is_ok_and(|lab| normalize_partition(&lab.rep) == expected)
    };
    let mut out = Vec::new();
    for algo in algos {
        for point in [3u64, 64] {
            let env = DiskEnv::new_temp(IoConfig::new(MATRIX_BLOCK, 8 << 10))?;
            let g = gen::disjoint_cycles(&env, &[8, 8, 8])?;
            env.inject_fault_after(point);
            let result = algo.run(&env, &g);
            // Disarm before grading: reading the labels back must not trip
            // a countdown the run itself never reached.
            env.clear_fault();
            let outcome = match result {
                Err(AlgoError::Io(_)) => "error surfaced",
                Ok(run) if labels_correct(&run, g.n_nodes()) => "completed clean",
                Err(AlgoError::Stalled(_)) if algo.may_stall() => "completed clean",
                _ => "FAIL",
            };
            let rerun = algo.run(&env, &g);
            let recovered = matches!(&rerun, Ok(run) if labels_correct(run, g.n_nodes()))
                || (algo.may_stall() && matches!(&rerun, Err(AlgoError::Stalled(_))));
            out.push(FaultRow {
                algo: algo.name(),
                point,
                outcome: if recovered { outcome } else { "FAIL" },
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_is_canonical() {
        // Same partition, different names -> same normal form.
        assert_eq!(normalize_partition(&[5, 5, 9]), vec![0, 0, 2]);
        assert_eq!(normalize_partition(&[1, 1, 2]), vec![0, 0, 2]);
        assert_ne!(normalize_partition(&[5, 9, 9]), normalize_partition(&[5, 5, 9]));
        assert_eq!(normalize_partition(&[]), Vec::<u32>::new());
    }

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<&str> = registry().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["Tarjan", "Kosaraju", "Ext-SCC", "Ext-SCC-Op", "Semi-SCC", "DFS-SCC", "EM-SCC"]
        );
        let full: Vec<&str> = full_registry().iter().map(|a| a.name()).collect();
        assert_eq!(full.len(), names.len() + 2);
        let mut dedup = full.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), full.len(), "duplicate algorithm names");
    }

    #[test]
    fn serve_workload_draws_every_query_kind() {
        let mut x = 7u64;
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[match gen_query(&mut x, 100, 3) {
                ServeQuery::Point(_) => 0,
                ServeQuery::Same(..) => 1,
                ServeQuery::Size(_) => 2,
                ServeQuery::Batch(us) => {
                    assert_eq!(us.len(), 3);
                    3
                }
            }] = true;
        }
        assert_eq!(seen, [true; 4], "point, same, size, batch");
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(HarnessScale::parse("smoke"), Some(HarnessScale::Smoke));
        assert_eq!(HarnessScale::parse("full"), Some(HarnessScale::Full));
        assert_eq!(HarnessScale::parse("bogus"), None);
        assert_eq!(HarnessScale::Smoke.name(), "smoke");
    }

    #[test]
    fn verify_graph_catches_everything_on_a_small_graph() {
        let env = DiskEnv::new_temp(IoConfig::new(256, 4 << 10)).unwrap();
        let g = gen::web_like(&env, 200, 4.0, 3).unwrap();
        let verdicts = verify_graph(&env, &g).unwrap();
        assert_eq!(verdicts.len(), registry().len());
        for v in &verdicts {
            assert!(v.ok(), "{}: {:?}", v.algo, v.detail);
        }
    }

    #[test]
    fn cell_outcome_formats() {
        assert_eq!(CellOutcome::Pass { n_sccs: 3, ios: 42 }.to_string(), "3/42");
        assert_eq!(CellOutcome::Dnf.to_string(), "DNF");
        assert_eq!(CellOutcome::Fail.to_string(), "FAIL");
    }
}
