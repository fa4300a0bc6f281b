//! Integration tests of the observability layer: the I/O-attribution span
//! tree produced by `scc run --trace` and the library-level sum invariant.
//!
//! The load-bearing promise is **exact attribution**: every span closes
//! with the logical-I/O delta it consumed, children never claim more than
//! their parent, and the rendered tree's leaves (including the synthetic
//! `(self)` rows) sum byte-for-byte to the run's total `IoStats`. Tracing
//! itself costs no logical I/O, so the traced numbers are the same numbers
//! `--stats` reports.

use std::process::Command;
use std::rc::Rc;

use contract_expand::harness::{tight_budget, MATRIX_BLOCK};
use contract_expand::obs::{self, MemSink, SpanNode};
use contract_expand::prelude::*;

/// The conformance matrix's smoke `web` workload geometry.
const WEB_N: u32 = 600;

fn scc_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scc"))
}

/// The smoke `web` graph under the tight budget: contraction genuinely
/// runs, so the trace has per-iteration spans to attribute.
fn smoke_web(env: &DiskEnv) -> EdgeListGraph {
    gen::web_like(env, WEB_N, 4.0, 11).unwrap()
}

/// Walks the tree checking the attribution invariant for `key`: no node's
/// children may claim more than the node consumed. Returns the leaf sum
/// (leaves plus each internal node's `(self)` remainder), which under that
/// invariant telescopes to the root's own counter.
fn leaf_sum(n: &SpanNode, key: &str) -> u64 {
    let own = n.counter(key).unwrap_or(0);
    let kids = n.children_sum(key);
    assert!(
        kids <= own,
        "children of span {:?} claim {kids} {key} > parent's {own}",
        n.name
    );
    if n.children.is_empty() {
        return own;
    }
    n.self_counter(key) + n.children.iter().map(|c| leaf_sum(c, key)).sum::<u64>()
}

#[test]
fn trace_leaf_deltas_sum_exactly_to_run_totals() {
    let mem = tight_budget(WEB_N as u64);
    let env = DiskEnv::new_temp(IoConfig::new(MATRIX_BLOCK, mem)).unwrap();
    let g = smoke_web(&env);

    let sink = Rc::new(MemSink::new());
    let guard = obs::install(sink.clone());
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    drop(guard);

    let roots = sink.take();
    assert_eq!(roots.len(), 1, "one trace root: the driver's run span");
    let root = &roots[0];
    assert_eq!(root.name, "run");

    // The root span covers exactly the interval the report measures.
    let total = out.report.total_ios.total_ios();
    assert_eq!(root.counter("ios"), Some(total));
    assert!(total > 0, "smoke web under the tight budget does real I/O");

    // Leaves + (self) remainders sum exactly to the total — per counter.
    assert_eq!(leaf_sum(root, "ios"), total);
    assert_eq!(
        leaf_sum(root, "rand"),
        out.report.total_ios.random_ios(),
        "random-I/O attribution must telescope too"
    );

    // The tree actually has the paper's structure: contraction iterations
    // with Get-V / Get-E phases under them, and an expansion phase.
    let iters: Vec<&SpanNode> = root.children.iter().filter(|c| c.name == "iter").collect();
    assert!(!iters.is_empty(), "tight budget must force contraction");
    assert!(iters
        .iter()
        .all(|it| it.children.iter().any(|c| c.name == "get_v")));
    assert!(iters
        .iter()
        .all(|it| it.children.iter().any(|c| c.name == "get_e")));
    assert!(root.children.iter().any(|c| c.name == "expand"));
}

#[test]
fn direct_semi_scc_run_is_one_semi_span() {
    // Semi-SCC alone (the planner's engine when the node state fits)
    // opens its own root span, so none of its I/O goes unattributed.
    let env = DiskEnv::new_temp(IoConfig::new(MATRIX_BLOCK, 1 << 20)).unwrap();
    let g = smoke_web(&env);

    let sink = Rc::new(MemSink::new());
    let guard = obs::install(sink.clone());
    let run = SemiSccAlgo::default().run(&env, &g).unwrap();
    drop(guard);

    let roots = sink.take();
    assert_eq!(roots.len(), 1, "one trace root: the engine's semi span");
    let root = &roots[0];
    assert_eq!(root.name, "semi");
    let total = run.ios.total_ios();
    assert!(total > 0);
    assert_eq!(root.counter("ios"), Some(total));
    assert_eq!(leaf_sum(root, "ios"), total);
    assert_eq!(leaf_sum(root, "rand"), run.ios.random_ios());
    assert!(root.children.iter().any(|c| c.name == "color_round"));
}

#[test]
fn tracing_does_not_change_logical_io() {
    let mem = tight_budget(WEB_N as u64);

    let run_once = |trace: bool| {
        let env = DiskEnv::new_temp(IoConfig::new(MATRIX_BLOCK, mem)).unwrap();
        let g = smoke_web(&env);
        let guard = trace.then(|| obs::install(Rc::new(MemSink::new()) as Rc<dyn obs::Sink>));
        let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
        drop(guard);
        (out.report.total_ios, out.report.n_sccs)
    };

    let (plain_ios, plain_sccs) = run_once(false);
    let (traced_ios, traced_sccs) = run_once(true);
    assert_eq!(plain_ios, traced_ios, "spans must only read counters");
    assert_eq!(plain_sccs, traced_sccs);
}

#[test]
fn trace_human_cli_matches_golden() {
    // Golden file: regenerate with
    //   cargo test --test trace -- --ignored regenerate_trace_golden
    // or by running the command below by hand and redirecting stdout to
    //   tests/golden/trace_smoke.txt
    let dir = std::env::temp_dir().join(format!("scc-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = run_trace_cli(&dir, "human");
    let golden = include_str!("golden/trace_smoke.txt");
    assert_eq!(
        out, golden,
        "scc run --trace=human output drifted from tests/golden/trace_smoke.txt \
         (if the change is intentional, regenerate the golden file)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_json_is_deterministic_jsonl_without_wall_times() {
    let dir = std::env::temp_dir().join(format!("scc-trace-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = run_trace_cli(&dir, "json");
    assert!(!out.is_empty());
    for line in out.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not JSONL: {line}");
    }
    assert!(out.lines().next().unwrap().contains("\"span\":\"run\""));
    assert!(out.contains("\"t\":\"end\""));
    assert!(out.contains("\"ios\""));
    assert!(
        !out.contains("wall"),
        "wall times are opt-in (--trace-wall) to keep the stream deterministic"
    );
    // Determinism is the whole point of logical counters: byte-identical
    // across runs.
    let again = run_trace_cli(&dir, "json");
    assert_eq!(out, again);
    std::fs::remove_dir_all(&dir).ok();
}

/// Materializes the smoke web graph as a `.ceg`, runs
/// `scc run --trace=<mode>` on it under the matrix geometry, and returns
/// stdout (labels are routed to a file so stdout is purely the trace).
fn run_trace_cli(dir: &std::path::Path, mode: &str) -> String {
    let env = DiskEnv::new_temp(IoConfig::new(MATRIX_BLOCK, 1 << 20)).unwrap();
    let ceg = dir.join("web.ceg");
    smoke_web(&env).save_binary(&ceg).unwrap();

    let mem = tight_budget(WEB_N as u64);
    let r = scc_bin()
        .args(["run", "--input"])
        .arg(&ceg)
        .args([
            "--block",
            &MATRIX_BLOCK.to_string(),
            "--mem",
            &mem.to_string(),
            &format!("--trace={mode}"),
        ])
        .arg("--out")
        .arg(dir.join(format!("labels-{mode}.txt")))
        .output()
        .expect("binary runs");
    assert!(
        r.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&r.stderr)
    );
    String::from_utf8(r.stdout).unwrap()
}

/// Regenerates `tests/golden/trace_smoke.txt` in place. Run explicitly:
/// `cargo test --test trace -- --ignored regenerate_trace_golden`.
#[test]
#[ignore]
fn regenerate_trace_golden() {
    let dir = std::env::temp_dir().join(format!("scc-trace-regen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = run_trace_cli(&dir, "human");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_smoke.txt");
    std::fs::write(&path, out).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
