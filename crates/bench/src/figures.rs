//! One function per paper figure/table. [`table1_text`] prints the mapping
//! between the paper's axes and the scaled axes used here.

use std::time::Duration;

use ce_core::ExtSccAlgo;
use ce_dfs_scc::{DfsMode, DfsSccAlgo};
use ce_em_scc::EmSccAlgo;
use ce_graph::algo::SccAlgorithm;
use ce_graph::gen::{self, Dataset, PlantedScc, SyntheticSpec};
use ce_graph::EdgeListGraph;
use ce_extmem::DiskEnv;

use crate::runner::{
    bench_env, human_count, run_algo, Measurement, RunBudget, Scale, SweepTable,
};

/// Block size used by every experiment (the paper's testbed used 256 KiB on
/// 2007 disks; 8 KiB keeps counted I/Os in the paper's 10⁵–10⁶ range at our
/// graph sizes).
pub const BLOCK: usize = 8 << 10;

/// Memory budget that fits `frac · n` nodes of semi-external state — the
/// experiments' "vary memory size M" knob expressed relative to `|V|`, the
/// way the paper's 200M–600M sweep relates to its 100M-node graphs.
pub fn budget_for(frac: f64, n_nodes: u64) -> usize {
    let node_bytes = ce_semi_scc::mem_required(
        ce_semi_scc::SemiSccKind::Coloring,
        (frac * n_nodes as f64) as u64,
        &ce_extmem::IoConfig::new(BLOCK, 4 * BLOCK),
    );
    (node_bytes as usize).max(4 * BLOCK)
}

/// The INF budget: the paper gives every algorithm the same 24-hour wall;
/// we give the baselines a multiple of the slowest Ext-SCC run of the row,
/// in deterministic I/O units plus a generous wall-clock backstop.
fn inf_budget(ext_rows: &[Measurement], factor: u64) -> RunBudget {
    let max_ios = ext_rows.iter().map(|m| m.ios).max().unwrap_or(0).max(50_000);
    RunBudget::capped(max_ios * factor, Duration::from_secs(120))
}

/// Scaled Table I: the synthetic-generator parameters in paper units and in
/// this reproduction's units.
pub fn table1_text(scale: Scale) -> String {
    let n = scale.pick(30_000u32, 150_000u32);
    let mut out = String::new();
    out.push_str(&format!(
        "Table I (scaled to |V| = {}; paper defaults at |V| = 100M in parentheses)\n",
        human_count(n as u64)
    ));
    out.push_str(&format!("  {:<26} {:<22} {}\n", "parameter", "range", "default"));
    let rows: Vec<(String, String, String)> = vec![
        (
            "size of |V|".into(),
            format!("{}..{} (25M..200M)", human_count(n as u64 / 4), human_count(n as u64 * 2)),
            format!("{} (100M)", human_count(n as u64)),
        ),
        ("average degree D".into(), "2..6 (2..6)".into(), "4 (4)".into()),
        (
            "memory size M".into(),
            "0.3|V|..0.9|V| (200M..600M)".into(),
            "0.5|V| (400M)".into(),
        ),
        (
            "massive-SCC size".into(),
            format!(
                "{}..{} (200K..600K)",
                (200_000.0 * n as f64 / 1e8) as u32,
                (600_000.0 * n as f64 / 1e8) as u32
            ),
            format!("{} (400K)", (400_000.0 * n as f64 / 1e8) as u32),
        ),
        (
            "large-SCC size".into(),
            format!(
                "{}..{} (4K..12K)",
                (4_000.0 * n as f64 / 1e8).max(2.0) as u32,
                (12_000.0 * n as f64 / 1e8).max(2.0) as u32
            ),
            format!("{} (8K)", (8_000.0 * n as f64 / 1e8).max(2.0) as u32),
        ),
        ("small-SCC size".into(), "20..60 (20..60)".into(), "40 (40)".into()),
        ("number of massive SCCs".into(), "1 (1)".into(), "1 (1)".into()),
        ("number of large SCCs".into(), "30..70 (30..70)".into(), "50 (50)".into()),
        (
            "number of small SCCs".into(),
            format!("{}..{} (6K..14K)", 6 * n / 100_000 * 10, 14 * n / 100_000 * 10),
            format!("{} (10K)", n / 10_000),
        ),
    ];
    for (a, b, c) in rows {
        out.push_str(&format!("  {a:<26} {b:<22} {c}\n"));
    }
    out
}

/// Standard algorithm columns of Figures 6–9, labelled by the trait's
/// `name()` so tables cannot drift from the registry. The first
/// `n_reference` entries are the Ext-SCC variants: they run without limits
/// and their most expensive run defines the row's INF budget for the
/// remaining (baseline) columns.
struct FigureAlgos {
    algos: Vec<Box<dyn SccAlgorithm>>,
    n_reference: usize,
}

fn figure_algos(dfs_mode: DfsMode) -> FigureAlgos {
    let reference: Vec<Box<dyn SccAlgorithm>> =
        vec![Box::new(ExtSccAlgo::optimized()), Box::new(ExtSccAlgo::baseline())];
    let n_reference = reference.len();
    let mut algos = reference;
    algos.push(Box::new(DfsSccAlgo::new(dfs_mode)));
    algos.push(Box::new(EmSccAlgo::new()));
    FigureAlgos { algos, n_reference }
}

/// One x-axis point of a figure: its label, environment (carrying the row's
/// memory budget) and workload.
struct Point {
    x: String,
    env: DiskEnv,
    g: EdgeListGraph,
}

/// Runs a whole figure. The reference algorithms run first on every point;
/// the baselines then get one **fixed per-figure budget** — a multiple of
/// the most expensive reference run — the counted-I/O analogue of the paper
/// giving every algorithm the same 24-hour wall.
fn run_figure(
    title: impl Into<String>,
    x_label: impl Into<String>,
    points: Vec<Point>,
    dfs_mode: DfsMode,
) -> SweepTable {
    let fa = figure_algos(dfs_mode);
    let mut table = SweepTable::for_algos(title, x_label, &fa.algos);
    let (reference, budgeted) = fa.algos.split_at(fa.n_reference);
    let mut ref_rows: Vec<Vec<Measurement>> = Vec::with_capacity(points.len());
    for p in &points {
        ref_rows.push(
            reference
                .iter()
                .map(|a| run_algo(&p.env, &p.g, a.as_ref(), &RunBudget::unlimited()))
                .collect(),
        );
    }
    let all: Vec<Measurement> = ref_rows.iter().flat_map(|r| r.iter().cloned()).collect();
    let budget = inf_budget(&all, 6);
    for (p, mut row) in points.into_iter().zip(ref_rows) {
        for a in budgeted {
            row.push(run_algo(&p.env, &p.g, a.as_ref(), &budget));
        }
        table.push_row(p.x, row);
    }
    table
}

/// Figure 6 — WEBSPAM substitute, vary the fraction of edges (20%..100%)
/// under a fixed memory budget of 0.5·|V| node-state.
pub fn fig6(scale: Scale) -> SweepTable {
    let n = scale.pick(24_000u32, 120_000u32);
    let deg = 8.0;
    let mut points = Vec::new();
    for pct in [20u32, 40, 60, 80, 100] {
        let env = bench_env(BLOCK, budget_for(0.5, n as u64));
        let full = gen::web_like(&env, n, deg, 4207).expect("gen");
        let g = gen::edge_fraction(&env, &full, pct as f64 / 100.0, 99).expect("fraction");
        points.push(Point { x: format!("{pct}"), env, g });
    }
    run_figure(
        format!(
            "Fig. 6 — web-like graph (|V| = {}, avg degree {deg}), vary edge %; M = 0.5|V|",
            human_count(n as u64)
        ),
        "edges %",
        points,
        DfsMode::Naive,
    )
}

/// Figure 7 — WEBSPAM substitute, vary the memory budget (the paper's
/// 400M→1G sweep; expressed as the fraction of |V| whose semi-external state
/// fits). The last point exceeds |V| — like the paper's 1G point, the
/// semi-external algorithm runs directly and contraction is skipped.
pub fn fig7(scale: Scale) -> SweepTable {
    let n = scale.pick(24_000u32, 120_000u32);
    let deg = 8.0;
    let mut points = Vec::new();
    for frac in [0.45, 0.6, 0.75, 0.9, 1.1] {
        let env = bench_env(BLOCK, budget_for(frac, n as u64));
        let g = gen::web_like(&env, n, deg, 4207).expect("gen");
        points.push(Point { x: format!("{frac:.2}"), env, g });
    }
    run_figure(
        format!(
            "Fig. 7 — web-like graph (|V| = {}, avg degree {deg}), vary memory",
            human_count(n as u64)
        ),
        "M / |V|",
        points,
        DfsMode::Naive,
    )
}

/// Figure 8 — Table-I synthetic datasets, vary the memory budget
/// (panels (a,b) = Massive, (c,d) = Large, (e,f) = Small).
pub fn fig8(scale: Scale, dataset: Dataset) -> SweepTable {
    let n = scale.pick(30_000u32, 150_000u32);
    let mut points = Vec::new();
    for frac in [0.3, 0.45, 0.6, 0.75, 0.9] {
        let env = bench_env(BLOCK, budget_for(frac, n as u64));
        let spec = SyntheticSpec::table1(dataset, n, 4.0, 88);
        let g = gen::planted_scc_graph(&env, &spec).expect("gen");
        points.push(Point { x: format!("{frac:.2}"), env, g });
    }
    run_figure(
        format!(
            "Fig. 8 ({}) — {} dataset (|V| = {}, D = 4), vary memory",
            match dataset {
                Dataset::Massive => "a,b",
                Dataset::Large => "c,d",
                Dataset::Small => "e,f",
            },
            dataset.name(),
            human_count(n as u64)
        ),
        "M / |V|",
        points,
        DfsMode::Naive,
    )
}

/// The x-axis of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig9Axis {
    /// (a,b) — vary `|V|`.
    Nodes,
    /// (c,d) — vary the average degree `D`.
    Degree,
    /// (e,f) — vary the planted SCC size.
    SccSize,
    /// (g,h) — vary the number of planted SCCs.
    SccCount,
}

impl Fig9Axis {
    /// Parses a CLI token.
    pub fn parse(s: &str) -> Option<Fig9Axis> {
        match s {
            "nodes" => Some(Fig9Axis::Nodes),
            "degree" => Some(Fig9Axis::Degree),
            "scc-size" => Some(Fig9Axis::SccSize),
            "scc-count" => Some(Fig9Axis::SccCount),
            _ => None,
        }
    }

    /// All panels in paper order.
    pub const ALL: [Fig9Axis; 4] = [
        Fig9Axis::Nodes,
        Fig9Axis::Degree,
        Fig9Axis::SccSize,
        Fig9Axis::SccCount,
    ];
}

/// Figure 9 — the Large-SCC dataset, varying one generator parameter per
/// panel pair. Memory is fixed at 0.5·|V| state.
pub fn fig9(scale: Scale, axis: Fig9Axis) -> SweepTable {
    let base_n = scale.pick(30_000u32, 120_000u32);
    // Paper defaults: 50 large SCCs of 8K nodes at |V| = 100M. Scaled sizes.
    let scc_size = |n: u32, paper: f64| ((paper * n as f64 / 1e8) as u32).max(2);
    let (title, points): (String, Vec<(String, SyntheticSpec)>) = match axis {
        Fig9Axis::Nodes => (
            "Fig. 9(a,b) — vary |V| (Large-SCC, D = 4, M = 0.5|V|)".to_string(),
            [base_n / 4, base_n / 2, base_n, base_n * 3 / 2, base_n * 2]
                .iter()
                .map(|&n| {
                    (
                        human_count(n as u64),
                        SyntheticSpec::table1(Dataset::Large, n, 4.0, 88),
                    )
                })
                .collect(),
        ),
        Fig9Axis::Degree => (
            "Fig. 9(c,d) — vary average degree (Large-SCC, M = 0.5|V|)".to_string(),
            [2.0, 3.0, 4.0, 5.0, 6.0]
                .iter()
                .map(|&d| {
                    (
                        format!("{d}"),
                        SyntheticSpec::table1(Dataset::Large, base_n, d, 88),
                    )
                })
                .collect(),
        ),
        Fig9Axis::SccSize => (
            "Fig. 9(e,f) — vary SCC size (50 SCCs, D = 4, M = 0.5|V|)".to_string(),
            [4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0]
                .iter()
                .map(|&paper| {
                    let size = scc_size(base_n, paper);
                    let mut spec = SyntheticSpec::table1(Dataset::Large, base_n, 4.0, 88);
                    spec.planted = vec![PlantedScc { count: 50, size }];
                    (format!("{size}"), spec)
                })
                .collect(),
        ),
        Fig9Axis::SccCount => (
            "Fig. 9(g,h) — vary SCC count (D = 4, M = 0.5|V|)".to_string(),
            [30u32, 40, 50, 60, 70]
                .iter()
                .map(|&count| {
                    let size = scc_size(base_n, 8_000.0);
                    let mut spec = SyntheticSpec::table1(Dataset::Large, base_n, 4.0, 88);
                    spec.planted = vec![PlantedScc { count, size }];
                    (format!("{count}"), spec)
                })
                .collect(),
        ),
    };
    let mut pts = Vec::new();
    for (x, spec) in points {
        let env = bench_env(BLOCK, budget_for(0.5, spec.n_nodes as u64));
        let g = gen::planted_scc_graph(&env, &spec).expect("gen");
        pts.push(Point { x, env, g });
    }
    run_figure(title, axis_label(axis), pts, DfsMode::Naive)
}

fn axis_label(axis: Fig9Axis) -> &'static str {
    match axis {
        Fig9Axis::Nodes => "|V|",
        Fig9Axis::Degree => "avg degree",
        Fig9Axis::SccSize => "SCC size",
        Fig9Axis::SccCount => "#SCCs",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_with_fraction() {
        let half = budget_for(0.5, 100_000);
        let full = budget_for(1.0, 100_000);
        assert!(full > half);
        assert!(half >= 4 * BLOCK);
    }

    #[test]
    fn table1_mentions_all_parameters() {
        let t = table1_text(Scale::Quick);
        for needle in ["average degree", "massive-SCC", "large-SCC", "small-SCC"] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn fig9_axis_parse() {
        assert_eq!(Fig9Axis::parse("nodes"), Some(Fig9Axis::Nodes));
        assert_eq!(Fig9Axis::parse("scc-size"), Some(Fig9Axis::SccSize));
        assert_eq!(Fig9Axis::parse("bogus"), None);
    }
}
