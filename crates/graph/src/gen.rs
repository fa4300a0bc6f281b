//! Deterministic workload generators.
//!
//! Reproduces the paper's Section-VIII inputs at configurable scale:
//!
//! * [`SyntheticSpec`] / [`planted_scc_graph`] — the Table-I family: a graph
//!   with planted SCCs (one *massive*, several *large*, or many *small*) plus
//!   random filler nodes and edges, exactly the construction the paper
//!   describes ("randomly select all nodes in SCCs, add edges among the nodes
//!   of an SCC until it is strongly connected, then add additional random
//!   nodes and edges");
//! * [`web_like`] — a bow-tie web graph (large core SCC, IN and OUT regions,
//!   tendrils, heavy-tailed out-degrees) standing in for WEBSPAM-UK2007,
//!   which is not redistributable at reproduction time;
//! * structured graphs used by unit tests and ablations: [`random_gnm`],
//!   [`dag_layered`], [`cycle`], [`path`], [`complete`], [`disjoint_cycles`];
//! * [`edge_fraction`] — random edge subsampling, the x-axis of Figure 6.
//!
//! All generators take explicit seeds and stream edges straight to disk, so
//! generating a graph never requires `O(|E|)` memory.

use std::io;

use ce_extmem::DiskEnv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::edgelist::EdgeListGraph;
use crate::types::Edge;

/// A group of planted SCCs: `count` components of `size` nodes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedScc {
    /// Number of components to plant.
    pub count: u32,
    /// Nodes per component (must be ≥ 1; size 1 plants nothing interesting).
    pub size: u32,
}

/// Which Table-I synthetic dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// One massive SCC (paper default: 1 × 400K nodes at |V| = 100M).
    Massive,
    /// Several large SCCs (paper default: 50 × 8K).
    Large,
    /// Many small SCCs (paper default: 10K × 40).
    Small,
}

impl Dataset {
    /// All three datasets, in paper order.
    pub const ALL: [Dataset; 3] = [Dataset::Massive, Dataset::Large, Dataset::Small];

    /// Short lowercase name for CLI/report use.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Massive => "massive",
            Dataset::Large => "large",
            Dataset::Small => "small",
        }
    }
}

/// Full description of a Table-I synthetic graph.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// `|V|`.
    pub n_nodes: u32,
    /// Average total degree `D`; the generator emits `D·|V|` edges in total.
    pub avg_degree: f64,
    /// Planted SCC groups.
    pub planted: Vec<PlantedScc>,
    /// If true, filler edges only go "forward" in a hidden topological order,
    /// so the planted components are *exactly* the non-trivial SCCs of the
    /// output (used by tests that assert planted recovery). If false, filler
    /// edges are unconstrained, as in the paper, and may merge components.
    pub acyclic_filler: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// The paper's Table-I defaults, rescaled from `|V| = 100M` to `n_nodes`.
    ///
    /// Scaling policy: the massive and large
    /// datasets keep the paper's component *count* (1 and 50) and scale the
    /// component *size* with `n/100M`; the small dataset keeps the component
    /// size (40) and scales the count. This preserves the qualitative regime
    /// each dataset exercises.
    ///
    /// Filler edges are acyclic: the datasets are *defined* by their planted
    /// SCC structure ("containing different sizes of SCCs", Table I), which
    /// only holds if the random filler contributes no components of its own —
    /// unconstrained filler at degree 4 would create a giant SCC spanning
    /// about half the nodes and swamp the planted structure.
    pub fn table1(dataset: Dataset, n_nodes: u32, avg_degree: f64, seed: u64) -> SyntheticSpec {
        let scale = n_nodes as f64 / 100_000_000.0;
        let planted = match dataset {
            Dataset::Massive => vec![PlantedScc {
                count: 1,
                size: ((400_000.0 * scale) as u32).max(2),
            }],
            Dataset::Large => vec![PlantedScc {
                count: 50,
                size: ((8_000.0 * scale) as u32).max(2),
            }],
            Dataset::Small => vec![PlantedScc {
                count: ((10_000.0 * scale) as u32).max(1),
                size: 40,
            }],
        };
        SyntheticSpec {
            n_nodes,
            avg_degree,
            planted,
            acyclic_filler: true,
            seed,
        }
    }

    /// Total nodes covered by planted components.
    pub fn planted_nodes(&self) -> u64 {
        self.planted
            .iter()
            .map(|p| p.count as u64 * p.size as u64)
            .sum()
    }
}

/// Generates a Table-I style graph (see [`SyntheticSpec`]).
pub fn planted_scc_graph(env: &DiskEnv, spec: &SyntheticSpec) -> io::Result<EdgeListGraph> {
    let n = spec.n_nodes;
    assert!(n >= 1, "graph must have at least one node");
    assert!(
        spec.planted_nodes() <= n as u64,
        "planted components ({}) exceed |V| = {}",
        spec.planted_nodes(),
        n
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Random node membership: a permutation of 0..n; planted components take
    // consecutive segments of it ("randomly selecting all nodes in SCCs").
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }

    // block_of_rank: planted blocks first (by segment), then singleton ranks.
    let mut block_bounds: Vec<u32> = Vec::new(); // exclusive end rank per block
    {
        let mut at = 0u32;
        for p in &spec.planted {
            for _ in 0..p.count {
                at += p.size;
                block_bounds.push(at);
            }
        }
    }
    let planted_total = *block_bounds.last().unwrap_or(&0);
    let n_blocks = block_bounds.len() as u32;
    let block_of_rank = |rank: u32| -> u32 {
        if rank < planted_total {
            block_bounds.partition_point(|&b| b <= rank) as u32
        } else {
            n_blocks + (rank - planted_total)
        }
    };
    // rank_of: inverse permutation.
    let mut rank_of = vec![0u32; n as usize];
    for (rank, &node) in perm.iter().enumerate() {
        rank_of[node as usize] = rank as u32;
    }

    let target_edges = (spec.avg_degree * n as f64).round() as u64;

    EdgeListGraph::from_writer(env, n as u64, "synthetic", |w| {
        let mut emitted = 0u64;
        // 1. Strongly connect each planted component: a random cycle through
        //    its members, plus ~size/2 random chords for internal structure.
        let mut start = 0u32;
        for &end in &block_bounds {
            let members = &perm[start as usize..end as usize];
            let size = members.len();
            for i in 0..size {
                w.push(Edge::new(members[i], members[(i + 1) % size]))?;
                emitted += 1;
            }
            let chords = size / 2;
            for _ in 0..chords {
                let a = members[rng.gen_range(0..size)];
                let b = members[rng.gen_range(0..size)];
                if a != b {
                    w.push(Edge::new(a, b))?;
                    emitted += 1;
                }
            }
            start = end;
        }
        // 2. Random filler edges up to the degree target.
        while emitted < target_edges {
            let mut u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            if spec.acyclic_filler {
                let (bu, bv) = (block_of_rank(rank_of[u as usize]), block_of_rank(rank_of[v as usize]));
                if bu == bv {
                    // Internal to a planted SCC: harmless, keep as-is.
                } else if bu > bv {
                    std::mem::swap(&mut u, &mut v);
                }
            }
            w.push(Edge::new(u, v))?;
            emitted += 1;
        }
        Ok(())
    })
}

/// Bow-tie web graph: one core SCC of about `n/4` nodes, an IN region feeding
/// it, an OUT region fed by it, and sparse tendrils — with heavy-tailed
/// out-degrees in the core, mimicking the WEBSPAM-UK2007 structure the paper
/// evaluates on (Figures 6 and 7).
pub fn web_like(env: &DiskEnv, n_nodes: u32, avg_degree: f64, seed: u64) -> io::Result<EdgeListGraph> {
    assert!(n_nodes >= 20, "web-like graph needs at least 20 nodes");
    let n = n_nodes;
    let mut rng = StdRng::seed_from_u64(seed);
    let core_end = n / 4;
    let in_end = core_end + n / 5;
    let out_end = in_end + n / 5;
    // tendrils: out_end..n
    let target_edges = (avg_degree * n as f64).round() as u64;

    // Heavy-tailed degree sample (discrete Pareto, alpha ~ 1.8, min 1).
    let pareto = {
        move |rng: &mut StdRng, cap: u32| -> u32 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let d = (1.0 / u.powf(1.0 / 1.8)).floor() as u32;
            d.clamp(1, cap)
        }
    };

    EdgeListGraph::from_writer(env, n as u64, "weblike", |w| {
        let mut emitted = 0u64;
        // Core cycle guarantees the core is one SCC.
        for i in 0..core_end {
            w.push(Edge::new(i, (i + 1) % core_end))?;
            emitted += 1;
        }
        // Core internal chords with heavy-tailed out-degree (~50% of budget).
        let core_budget = target_edges / 2;
        while emitted < core_budget {
            let u = rng.gen_range(0..core_end);
            let extra = pareto(&mut rng, 64);
            for _ in 0..extra {
                let v = rng.gen_range(0..core_end);
                if u != v {
                    w.push(Edge::new(u, v))?;
                    emitted += 1;
                }
            }
        }
        // IN region: edges into the core, or *forward* within IN (forward
        // orientation keeps IN acyclic, as in real web bow-ties) (~20%).
        let in_budget = core_budget + target_edges / 5;
        while emitted < in_budget {
            let u = rng.gen_range(core_end..in_end);
            let to_core = rng.gen_bool(0.7);
            if to_core {
                let v = rng.gen_range(0..core_end);
                w.push(Edge::new(u, v))?;
                emitted += 1;
            } else {
                let v = rng.gen_range(core_end..in_end);
                if u != v {
                    w.push(Edge::new(u.min(v), u.max(v)))?;
                    emitted += 1;
                }
            }
        }
        // OUT region: edges from the core, or forward within OUT (~20%).
        let out_budget = in_budget + target_edges / 5;
        while emitted < out_budget {
            let v = rng.gen_range(in_end..out_end);
            let from_core = rng.gen_bool(0.7);
            if from_core {
                let u = rng.gen_range(0..core_end);
                w.push(Edge::new(u, v))?;
                emitted += 1;
            } else {
                let u = rng.gen_range(in_end..out_end);
                if u != v {
                    w.push(Edge::new(u.min(v), u.max(v)))?;
                    emitted += 1;
                }
            }
        }
        // Tendrils and tubes: IN -> tendril, tendril -> OUT (~10%).
        while emitted < target_edges {
            if out_end >= n {
                break;
            }
            let t = rng.gen_range(out_end..n);
            if rng.gen_bool(0.5) {
                let u = rng.gen_range(core_end..in_end.max(core_end + 1));
                w.push(Edge::new(u, t))?;
            } else {
                let v = rng.gen_range(in_end..out_end.max(in_end + 1));
                w.push(Edge::new(t, v))?;
            }
            emitted += 1;
        }
        Ok(())
    })
}

/// Parameters of an R-MAT (recursive-matrix) generator run — the standard
/// power-law graph family (Chakrabarti, Zhan & Faloutsos, SDM'04) used by the
/// Graph500 benchmark and by the parallel-SCC literature the conformance
/// matrix cross-checks against.
#[derive(Debug, Clone, Copy)]
pub struct RmatSpec {
    /// log2 of the node count: `|V| = 1 << scale`.
    pub scale: u32,
    /// Number of edges to emit (duplicates kept, self-loops skipped).
    pub edges: u64,
    /// Probability of the top-left quadrant (hub→hub).
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatSpec {
    /// The Graph500 defaults (`a,b,c,d = 0.57, 0.19, 0.19, 0.05`) at the
    /// given scale with `edge_factor · |V|` edges.
    pub fn graph500(scale: u32, edge_factor: u64, seed: u64) -> RmatSpec {
        RmatSpec {
            scale,
            edges: edge_factor << scale,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }
}

/// Generates an R-MAT graph: each edge picks a quadrant of the adjacency
/// matrix with probabilities `(a, b, c, 1-a-b-c)` recursively `scale` times.
/// Out-degrees are heavy-tailed; the largest SCC grows with density, giving
/// the matrix a power-law family that none of the structured generators
/// cover. Self-loops are skipped (redrawn), parallel edges kept.
pub fn rmat(env: &DiskEnv, spec: &RmatSpec) -> io::Result<EdgeListGraph> {
    assert!(spec.scale >= 1 && spec.scale < 32, "scale must be in 1..32");
    let d = 1.0 - spec.a - spec.b - spec.c;
    assert!(
        spec.a > 0.0 && spec.b >= 0.0 && spec.c >= 0.0 && d > 0.0,
        "quadrant probabilities must be a valid distribution"
    );
    // With b = c = 0 every level picks a diagonal quadrant, so u == v for
    // every draw and the self-loop redraw below would loop forever.
    assert!(
        spec.b + spec.c > 0.0,
        "at least one off-diagonal quadrant probability must be positive"
    );
    let n: u32 = 1 << spec.scale;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    EdgeListGraph::from_writer(env, n as u64, "rmat", |w| {
        let mut emitted = 0u64;
        while emitted < spec.edges {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..spec.scale {
                let r: f64 = rng.gen_range(0.0..1.0);
                let (du, dv) = if r < spec.a {
                    (0, 0)
                } else if r < spec.a + spec.b {
                    (0, 1)
                } else if r < spec.a + spec.b + spec.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            if u == v {
                continue; // redraw self-loops
            }
            w.push(Edge::new(u, v))?;
            emitted += 1;
        }
        Ok(())
    })
}

/// Generates a chain of *nested-cycle* components: each component is built
/// recursively — a ring of `fanout` copies of the previous level, so cycles
/// nest inside cycles `depth` deep — and `chain` such components are linked
/// by forward-only edges.
///
/// The construction is fully deterministic (no RNG). Every component is one
/// SCC of `fanout^depth` nodes, so the graph has exactly `chain` non-trivial
/// SCCs; edge counts are closed-form (see the unit test). Degrees are nearly
/// uniform (most nodes have in/out degree 1, sub-block representatives one
/// more), which makes the family adversarial for degree-ordered vertex-cover
/// contraction — few local minima per iteration, many contraction levels.
pub fn nested_cycles(
    env: &DiskEnv,
    chain: u32,
    depth: u32,
    fanout: u32,
) -> io::Result<EdgeListGraph> {
    assert!(chain >= 1 && depth >= 1 && fanout >= 2);
    let block: u64 = (fanout as u64)
        .checked_pow(depth)
        .expect("fanout^depth overflows");
    let n = chain as u64 * block;
    assert!(n <= u32::MAX as u64, "graph too large for u32 node ids");

    // Emits the edges of one nested block occupying ids [base, base+fanout^k)
    // by recursing into its fanout sub-blocks and closing a ring over their
    // first nodes.
    fn emit(
        w: &mut ce_extmem::RecordWriter<Edge>,
        base: u32,
        k: u32,
        fanout: u32,
    ) -> io::Result<()> {
        if k == 0 {
            return Ok(());
        }
        let sub = fanout.pow(k - 1);
        for i in 0..fanout {
            emit(w, base + i * sub, k - 1, fanout)?;
        }
        for i in 0..fanout {
            let from = base + i * sub;
            let to = base + ((i + 1) % fanout) * sub;
            w.push(Edge::new(from, to))?;
        }
        Ok(())
    }

    EdgeListGraph::from_writer(env, n, "nested", |w| {
        for b in 0..chain {
            emit(w, b * block as u32, depth, fanout)?;
        }
        // Forward-only connectors keep the chain acyclic between blocks.
        for b in 0..chain.saturating_sub(1) {
            w.push(Edge::new(b * block as u32, (b + 1) * block as u32))?;
        }
        Ok(())
    })
}

/// Uniform random directed multigraph with `m` edges (self-loops skipped).
pub fn random_gnm(env: &DiskEnv, n_nodes: u32, m: u64, seed: u64) -> io::Result<EdgeListGraph> {
    assert!(n_nodes >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    EdgeListGraph::from_writer(env, n_nodes as u64, "gnm", |w| {
        let mut emitted = 0;
        while emitted < m {
            let u = rng.gen_range(0..n_nodes);
            let v = rng.gen_range(0..n_nodes);
            if u != v {
                w.push(Edge::new(u, v))?;
                emitted += 1;
            }
        }
        Ok(())
    })
}

/// Layered DAG: `n_nodes` split into `layers` equal layers, `m` random edges
/// from lower to strictly higher layers. Every SCC is a singleton — this is
/// the paper's "Case-2" graph on which the EM-SCC baseline cannot make
/// progress.
pub fn dag_layered(
    env: &DiskEnv,
    n_nodes: u32,
    layers: u32,
    m: u64,
    seed: u64,
) -> io::Result<EdgeListGraph> {
    assert!(layers >= 2 && n_nodes >= layers);
    let mut rng = StdRng::seed_from_u64(seed);
    let per = n_nodes / layers;
    EdgeListGraph::from_writer(env, n_nodes as u64, "dag", |w| {
        let mut emitted = 0;
        while emitted < m {
            let lu = rng.gen_range(0..layers - 1);
            let lv = rng.gen_range(lu + 1..layers);
            let u = lu * per + rng.gen_range(0..per);
            let v = lv * per + rng.gen_range(0..per);
            if u < n_nodes && v < n_nodes {
                w.push(Edge::new(u, v))?;
                emitted += 1;
            }
        }
        Ok(())
    })
}

/// A single directed cycle `0 → 1 → … → n-1 → 0` (one SCC).
pub fn cycle(env: &DiskEnv, n_nodes: u32) -> io::Result<EdgeListGraph> {
    assert!(n_nodes >= 1);
    EdgeListGraph::from_writer(env, n_nodes as u64, "cycle", |w| {
        for i in 0..n_nodes {
            w.push(Edge::new(i, (i + 1) % n_nodes))?;
        }
        Ok(())
    })
}

/// A directed cycle over a *random permutation* of `0..n` (one SCC).
///
/// The sequential-id [`cycle`] used to be adversarial for degree-based
/// vertex-cover contraction (all degrees tie, and a raw-id tie-break removes
/// only the single local minimum per iteration). The contraction order now
/// breaks ties on a scrambled id (`ce_core::spread`), so both cycle variants
/// sit in the ≈ n/3-local-minima regime; this permuted variant remains
/// useful as an id-independent control.
pub fn permuted_cycle(env: &DiskEnv, n_nodes: u32, seed: u64) -> io::Result<EdgeListGraph> {
    assert!(n_nodes >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n_nodes).collect();
    for i in (1..n_nodes as usize).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    EdgeListGraph::from_writer(env, n_nodes as u64, "pcycle", |w| {
        for i in 0..n_nodes as usize {
            w.push(Edge::new(perm[i], perm[(i + 1) % n_nodes as usize]))?;
        }
        Ok(())
    })
}

/// A simple path `0 → 1 → … → n-1` (all singleton SCCs).
pub fn path(env: &DiskEnv, n_nodes: u32) -> io::Result<EdgeListGraph> {
    assert!(n_nodes >= 1);
    EdgeListGraph::from_writer(env, n_nodes as u64, "path", |w| {
        for i in 0..n_nodes.saturating_sub(1) {
            w.push(Edge::new(i, i + 1))?;
        }
        Ok(())
    })
}

/// Complete directed graph on `k` nodes (one SCC, max density).
pub fn complete(env: &DiskEnv, k: u32) -> io::Result<EdgeListGraph> {
    EdgeListGraph::from_writer(env, k as u64, "complete", |w| {
        for u in 0..k {
            for v in 0..k {
                if u != v {
                    w.push(Edge::new(u, v))?;
                }
            }
        }
        Ok(())
    })
}

/// Disjoint directed cycles of the given sizes (one SCC per cycle).
pub fn disjoint_cycles(env: &DiskEnv, sizes: &[u32]) -> io::Result<EdgeListGraph> {
    let n: u64 = sizes.iter().map(|&s| s as u64).sum();
    EdgeListGraph::from_writer(env, n, "cycles", |w| {
        let mut base = 0u32;
        for &s in sizes {
            for i in 0..s {
                w.push(Edge::new(base + i, base + (i + 1) % s))?;
            }
            base += s;
        }
        Ok(())
    })
}

/// Keeps each edge of `g` independently with probability `frac` — the
/// "percentage of edges" axis of Figure 6.
pub fn edge_fraction(
    env: &DiskEnv,
    g: &EdgeListGraph,
    frac: f64,
    seed: u64,
) -> io::Result<EdgeListGraph> {
    assert!((0.0..=1.0).contains(&frac), "fraction must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = g.edges().reader()?;
    EdgeListGraph::from_writer(env, g.n_nodes(), "fraction", |w| {
        while let Some(e) = r.next()? {
            if rng.gen_bool(frac) {
                w.push(e)?;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::tarjan::tarjan_scc;
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(1 << 12, 1 << 20)).unwrap()
    }

    #[test]
    fn planted_acyclic_recovers_exact_sccs() {
        let env = env();
        let spec = SyntheticSpec {
            n_nodes: 2000,
            avg_degree: 3.0,
            planted: vec![
                PlantedScc { count: 2, size: 100 },
                PlantedScc { count: 5, size: 10 },
            ],
            acyclic_filler: true,
            seed: 42,
        };
        let g = planted_scc_graph(&env, &spec).unwrap();
        assert_eq!(g.n_nodes(), 2000);
        let edges = g.edges_in_memory().unwrap();
        let r = tarjan_scc(&CsrGraph::from_edges(2000, &edges));
        let sizes = r.component_sizes();
        assert_eq!(&sizes[..2], &[100, 100]);
        assert_eq!(&sizes[2..7], &[10, 10, 10, 10, 10]);
        assert!(sizes[7..].iter().all(|&s| s == 1));
    }

    #[test]
    fn planted_free_filler_has_at_least_target_density() {
        let env = env();
        let spec = SyntheticSpec {
            n_nodes: 1000,
            avg_degree: 4.0,
            planted: vec![PlantedScc { count: 1, size: 50 }],
            acyclic_filler: false,
            seed: 7,
        };
        let g = planted_scc_graph(&env, &spec).unwrap();
        assert!(g.n_edges() >= 4000);
        assert!(g.n_edges() < 4200, "overshoot bounded by one chord batch");
    }

    #[test]
    fn planted_generation_is_deterministic() {
        let env = env();
        let spec = SyntheticSpec {
            n_nodes: 500,
            avg_degree: 2.0,
            planted: vec![PlantedScc { count: 3, size: 20 }],
            acyclic_filler: false,
            seed: 99,
        };
        let a = planted_scc_graph(&env, &spec).unwrap().edges_in_memory().unwrap();
        let b = planted_scc_graph(&env, &spec).unwrap().edges_in_memory().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn table1_scaling() {
        let m = SyntheticSpec::table1(Dataset::Massive, 1_000_000, 4.0, 1);
        assert_eq!(m.planted, vec![PlantedScc { count: 1, size: 4000 }]);
        let l = SyntheticSpec::table1(Dataset::Large, 1_000_000, 4.0, 1);
        assert_eq!(l.planted, vec![PlantedScc { count: 50, size: 80 }]);
        let s = SyntheticSpec::table1(Dataset::Small, 1_000_000, 4.0, 1);
        assert_eq!(s.planted, vec![PlantedScc { count: 100, size: 40 }]);
    }

    #[test]
    fn web_like_has_one_giant_scc() {
        let env = env();
        let g = web_like(&env, 2000, 5.0, 3).unwrap();
        let edges = g.edges_in_memory().unwrap();
        let r = tarjan_scc(&CsrGraph::from_edges(2000, &edges));
        let sizes = r.component_sizes();
        assert!(
            sizes[0] >= 500,
            "core SCC should hold ~n/4 nodes, got {}",
            sizes[0]
        );
        assert!(sizes[1] < sizes[0] / 4, "second SCC should be much smaller");
    }

    #[test]
    fn dag_has_only_singletons() {
        let env = env();
        let g = dag_layered(&env, 300, 10, 900, 5).unwrap();
        let edges = g.edges_in_memory().unwrap();
        let r = tarjan_scc(&CsrGraph::from_edges(300, &edges));
        assert_eq!(r.count, 300);
    }

    #[test]
    fn structured_generators() {
        let env = env();
        assert_eq!(cycle(&env, 5).unwrap().n_edges(), 5);
        assert_eq!(path(&env, 5).unwrap().n_edges(), 4);
        assert_eq!(complete(&env, 4).unwrap().n_edges(), 12);
        let dc = disjoint_cycles(&env, &[3, 4]).unwrap();
        assert_eq!(dc.n_nodes(), 7);
        assert_eq!(dc.n_edges(), 7);
        let edges = dc.edges_in_memory().unwrap();
        let r = tarjan_scc(&CsrGraph::from_edges(7, &edges));
        assert_eq!(r.count, 2);
    }

    #[test]
    fn rmat_pins_counts_for_fixed_seed() {
        let env = env();
        let spec = RmatSpec::graph500(8, 4, 42);
        let g = rmat(&env, &spec).unwrap();
        assert_eq!(g.n_nodes(), 256);
        assert_eq!(g.n_edges(), 1024, "edge target is exact (duplicates kept)");
        let edges = g.edges_in_memory().unwrap();
        assert!(edges.iter().all(|e| !e.is_loop()), "self-loops are redrawn");
        let r = tarjan_scc(&CsrGraph::from_edges(256, &edges));
        // Oracle SCC structure pinned for seed 42: a giant power-law core
        // plus singleton leaves. Both numbers are deterministic (StdRng).
        assert_eq!(r.count, 133);
        assert_eq!(r.component_sizes()[0], 124);
        // Power-law shape: the max out-degree dwarfs the average (4).
        let mut out = vec![0u32; 256];
        for e in &edges {
            out[e.src as usize] += 1;
        }
        assert!(*out.iter().max().unwrap() >= 32, "heavy tail expected");
    }

    #[test]
    fn rmat_is_deterministic() {
        let env = env();
        let spec = RmatSpec::graph500(6, 4, 7);
        let a = rmat(&env, &spec).unwrap().edges_in_memory().unwrap();
        let b = rmat(&env, &spec).unwrap().edges_in_memory().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nested_cycles_pins_counts_and_oracle_sccs() {
        let env = env();
        let g = nested_cycles(&env, 3, 3, 4).unwrap();
        // |V| = chain * fanout^depth = 3 * 64.
        assert_eq!(g.n_nodes(), 192);
        // Per block: e(k) = fanout*e(k-1) + fanout => e(3) = 84; plus the
        // chain-1 = 2 forward connectors.
        assert_eq!(g.n_edges(), 3 * 84 + 2);
        let edges = g.edges_in_memory().unwrap();
        let r = tarjan_scc(&CsrGraph::from_edges(192, &edges));
        assert_eq!(r.count, 3, "each nested block is exactly one SCC");
        assert_eq!(r.component_sizes(), vec![64, 64, 64]);
    }

    #[test]
    fn nested_cycles_depth_one_is_a_plain_cycle() {
        let env = env();
        let g = nested_cycles(&env, 1, 1, 5).unwrap();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_edges(), 5);
        let edges = g.edges_in_memory().unwrap();
        let r = tarjan_scc(&CsrGraph::from_edges(5, &edges));
        assert_eq!(r.count, 1);
    }

    #[test]
    fn edge_fraction_subsamples() {
        let env = env();
        let g = random_gnm(&env, 100, 10_000, 11).unwrap();
        let half = edge_fraction(&env, &g, 0.5, 13).unwrap();
        let ratio = half.n_edges() as f64 / g.n_edges() as f64;
        assert!((0.45..0.55).contains(&ratio), "ratio {ratio}");
        let all = edge_fraction(&env, &g, 1.0, 13).unwrap();
        assert_eq!(all.n_edges(), g.n_edges());
        let none = edge_fraction(&env, &g, 0.0, 13).unwrap();
        assert_eq!(none.n_edges(), 0);
    }
}
