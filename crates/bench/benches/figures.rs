//! `cargo bench` entry point that regenerates every table and figure of the
//! paper at quick scale (full-scale runs: the `fig*` binaries).

use ce_bench::figures::{fig6, fig7, fig8, fig9, table1_text, Fig9Axis};
use ce_bench::Scale;
use ce_graph::gen::Dataset;

fn main() {
    // Respect `cargo bench -- --quick`-style filters minimally: this target
    // always runs the quick configuration; it exists so one `cargo bench
    // --workspace` reproduces the whole evaluation end to end.
    let scale = Scale::Quick;
    println!("==============================================================");
    println!("Reproduction of the paper's evaluation (quick scale)");
    println!("==============================================================\n");
    println!("{}", table1_text(scale));
    println!("{}", fig6(scale));
    println!("{}", fig7(scale));
    for d in Dataset::ALL {
        println!("{}", fig8(scale, d));
    }
    for a in Fig9Axis::ALL {
        println!("{}", fig9(scale, a));
    }
    println!("figures complete; run the fig* binaries for full-scale numbers");
}
