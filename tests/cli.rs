//! End-to-end tests of the `scc` command-line binary.

use std::process::Command;

fn scc_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scc"))
}

#[test]
fn computes_labels_from_text_input() {
    let dir = std::env::temp_dir().join(format!("scc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();
    let out_path = dir.join("labels.txt");
    let dag_path = dir.join("dag.txt");

    let output = scc_bin()
        .args(["--input"])
        .arg(&input)
        .args(["--mem", "1M", "--block", "4K", "--stats"])
        .arg("--out")
        .arg(&out_path)
        .arg("--condense")
        .arg(&dag_path)
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("2 SCCs"), "stderr: {stderr}");
    assert!(stderr.contains("avg degree"), "--stats output missing");

    let labels = std::fs::read_to_string(&out_path).unwrap();
    let rows: Vec<(u32, u32)> = labels
        .lines()
        .map(|l| {
            let mut it = l.split_whitespace();
            (
                it.next().unwrap().parse().unwrap(),
                it.next().unwrap().parse().unwrap(),
            )
        })
        .collect();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].1, rows[1].1);
    assert_eq!(rows[3].1, rows[4].1);
    assert_ne!(rows[0].1, rows[3].1);

    let dag = std::fs::read_to_string(&dag_path).unwrap();
    assert_eq!(dag.lines().count(), 1, "one quotient edge between the SCCs");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_roundtrip_through_cli() {
    let dir = std::env::temp_dir().join(format!("scc-cli-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 0\n").unwrap();
    let ceg = dir.join("g.ceg");

    let first = scc_bin()
        .arg("--input")
        .arg(&input)
        .arg("--export-binary")
        .arg(&ceg)
        .output()
        .unwrap();
    assert!(first.status.success());

    let second = scc_bin().arg("--input").arg(&ceg).output().unwrap();
    assert!(second.status.success());
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("1 SCCs"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_bad_arguments() {
    let no_input = scc_bin().output().unwrap();
    assert_eq!(no_input.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&no_input.stderr).contains("usage"));

    let unknown = scc_bin().args(["--frobnicate"]).output().unwrap();
    assert_eq!(unknown.status.code(), Some(2));

    let bad_mem = scc_bin()
        .args(["--input", "/nonexistent", "--mem", "1K", "--block", "4K"])
        .output()
        .unwrap();
    assert_eq!(bad_mem.status.code(), Some(2), "M < 2B must be rejected");

    // Engines run on the calling thread; only `scc serve` takes `--threads`.
    let threads = scc_bin()
        .args(["run", "--input", "g.txt", "--threads", "2"])
        .output()
        .unwrap();
    assert_eq!(threads.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&threads.stderr);
    assert!(stderr.contains("unknown argument \"--threads\""), "{stderr}");

    // Scratch always lives in files; `--scratch DIR` picks where.
    let backend = scc_bin()
        .args(["run", "--input", "g.txt", "--backend", "file"])
        .output()
        .unwrap();
    assert_eq!(backend.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&backend.stderr);
    assert!(
        stderr.contains("unknown argument \"--backend\""),
        "{stderr}"
    );
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let r = scc_bin().arg(flag).output().unwrap();
        assert_eq!(r.status.code(), Some(0), "{flag} must exit 0");
        assert!(String::from_utf8_lossy(&r.stdout).contains("usage"));
    }
}

#[test]
fn every_subcommand_accepts_help() {
    for cmd in [
        vec!["run", "--help"],
        vec!["plan", "--help"],
        vec!["index", "--help"],
        vec!["index", "build", "--help"],
        vec!["index", "query", "--help"],
        vec!["serve", "--help"],
        vec!["serve", "-h"],
        vec!["verify", "--help"],
        vec!["run", "-h"],
        vec!["plan", "-h"],
    ] {
        let r = scc_bin().args(&cmd).output().unwrap();
        assert_eq!(r.status.code(), Some(0), "{cmd:?} must exit 0");
        assert!(
            String::from_utf8_lossy(&r.stdout).contains("usage"),
            "{cmd:?} must print usage"
        );
    }
}

#[test]
fn version_flag_prints_crate_version() {
    for flag in ["--version", "-V"] {
        let r = scc_bin().arg(flag).output().unwrap();
        assert_eq!(r.status.code(), Some(0), "{flag} must exit 0");
        let out = String::from_utf8_lossy(&r.stdout);
        assert_eq!(out.trim(), format!("scc {}", env!("CARGO_PKG_VERSION")), "{flag}");
    }
}

#[test]
fn run_subcommand_matches_flat_flags_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("scc-cli-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();

    let flat = scc_bin()
        .arg("--input")
        .arg(&input)
        .args(["--mem", "1M", "--block", "4K"])
        .output()
        .unwrap();
    let sub = scc_bin()
        .arg("run")
        .arg("--input")
        .arg(&input)
        .args(["--mem", "1M", "--block", "4K"])
        .output()
        .unwrap();
    assert!(flat.status.success() && sub.status.success());
    assert_eq!(flat.stdout, sub.stdout, "label output must be byte-identical");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_prints_a_deterministic_engine_choice() {
    let dir = std::env::temp_dir().join(format!("scc-cli-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();

    // Roomy budget: the 5-node array fits -> Semi-SCC, with the reason.
    let roomy = scc_bin()
        .args(["plan", "--input"])
        .arg(&input)
        .args(["--mem", "64M"])
        .output()
        .unwrap();
    assert!(roomy.status.success(), "{}", String::from_utf8_lossy(&roomy.stderr));
    let out = String::from_utf8_lossy(&roomy.stdout);
    assert!(out.contains("graph: |V| = 5, |E| = 6"), "{out}");
    assert!(out.contains("engine: Semi-SCC"), "{out}");
    assert!(out.contains("reason: "), "{out}");
    assert!(out.contains("fits"), "{out}");
    assert!(out.contains("predicted contraction passes: 0"), "{out}");

    // Deterministic: a second run prints the same bytes.
    let again = scc_bin()
        .args(["plan", "--input"])
        .arg(&input)
        .args(["--mem", "64M"])
        .output()
        .unwrap();
    assert_eq!(roomy.stdout, again.stdout);

    // Tight budget: the node array does not fit -> Ext-SCC-Op.
    let tight = scc_bin()
        .args(["plan", "--input"])
        .arg(&input)
        .args(["--mem", "512", "--block", "256"])
        .output()
        .unwrap();
    assert!(tight.status.success());
    let out = String::from_utf8_lossy(&tight.stdout);
    assert!(out.contains("engine: Ext-SCC-Op"), "{out}");
    assert!(out.contains("exceeds"), "{out}");

    // An override is honoured and recorded in the reason.
    let forced = scc_bin()
        .args(["plan", "--input"])
        .arg(&input)
        .args(["--mem", "64M", "--engine", "ext-scc"])
        .output()
        .unwrap();
    assert!(forced.status.success());
    let out = String::from_utf8_lossy(&forced.stdout);
    assert!(out.contains("engine: Ext-SCC\n"), "{out}");
    assert!(out.contains("override"), "{out}");

    // Bad engine names are rejected as usage errors (exit 2) ...
    let bad = scc_bin()
        .args(["plan", "--input"])
        .arg(&input)
        .args(["--engine", "quantum"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bad --engine"));

    // ... while runtime failures exit 1, like every other subcommand.
    let missing = scc_bin()
        .args(["plan", "--input", "/definitely/not/here.txt"])
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("error"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_build_then_query_answers_without_recomputing() {
    let dir = std::env::temp_dir().join(format!("scc-cli-idx-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    // {0,1,2} and {3,4} strongly connected, 2 -> 3 between them.
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();
    // One artifact at 4 KiB pages, one at the default 64 KiB.
    let blocks: [&[&str]; 2] = [&["--block", "4K"], &[]];
    let mut artifacts = Vec::new();
    for (i, block) in blocks.iter().enumerate() {
        let idx = dir.join(format!("g{i}.sccidx"));
        let build = scc_bin()
            .args(["index", "build", "--input"])
            .arg(&input)
            .arg("--out")
            .arg(&idx)
            .args(["--mem", "1M", "--with-condensation"])
            .args(*block)
            .output()
            .unwrap();
        assert!(
            build.status.success(),
            "{}",
            String::from_utf8_lossy(&build.stderr)
        );
        let stderr = String::from_utf8_lossy(&build.stderr);
        assert!(stderr.contains("plan: engine="), "{stderr}");
        assert!(stderr.contains("index written to"), "{stderr}");
        assert!(stderr.contains("2 components"), "{stderr}");
        assert!(stderr.contains("condensation edges"), "{stderr}");
        assert!(idx.is_file(), "artifact persisted");
        artifacts.push(idx);
    }

    // Delete the input: queries must be answered from the artifact alone.
    std::fs::remove_file(&input).unwrap();

    // Queries are priced in pages of the artifact, so the logical block
    // counts must not depend on the page size it was built with (the byte
    // totals after ';' legitimately do).
    let mut block_counts = Vec::new();
    for idx in &artifacts {
        let query = scc_bin()
            .args(["index", "query", "--index"])
            .arg(idx)
            .args(["-u", "0", "-v", "1", "--stats"])
            .output()
            .unwrap();
        assert!(
            query.status.success(),
            "{}",
            String::from_utf8_lossy(&query.stderr)
        );
        let out = String::from_utf8_lossy(&query.stdout);
        assert!(out.contains("component_of(0) = 0"), "{out}");
        assert!(out.contains("component_size(0) = 3"), "{out}");
        assert!(out.contains("same_component(0, 1) = true"), "{out}");
        let stderr = String::from_utf8_lossy(&query.stderr);
        assert!(
            stderr.contains("query I/O: "),
            "--stats must report logical query I/O: {stderr}"
        );
        assert!(stderr.contains("open I/O: "), "{stderr}");
        // The storage line shared with `scc run --stats`: physical counters
        // plus the pool hit rate.
        assert!(stderr.contains("storage: "), "{stderr}");
        assert!(stderr.contains("physical transfers"), "{stderr}");
        assert!(stderr.contains("hit rate"), "{stderr}");
        // Those counters are the query reader's own: unpooled, so one
        // physical read per logical block of the open and the queries.
        let first_number = |line: &str, after: &str| -> u64 {
            let rest = line.split(after).nth(1).unwrap_or_else(|| panic!("{line}"));
            rest.split_whitespace().next().unwrap().parse().unwrap()
        };
        let line = |prefix: &str| stderr.lines().find(|l| l.starts_with(prefix)).unwrap();
        assert_eq!(
            first_number(line("storage: "), " ("),
            first_number(line("open I/O: "), ": ") + first_number(line("query I/O: "), ": "),
            "physical reads must equal the open plus query logical I/O: {stderr}"
        );
        let counts: Vec<String> = stderr
            .lines()
            .filter(|l| l.starts_with("open I/O: ") || l.starts_with("query I/O: "))
            .map(|l| l.split(';').next().unwrap().to_string())
            .collect();
        assert_eq!(counts.len(), 2, "{stderr}");
        block_counts.push(counts);
    }
    assert_eq!(
        block_counts[0], block_counts[1],
        "query pricing depends on the page size"
    );
    let idx = &artifacts[0];

    let cross = scc_bin()
        .args(["index", "query", "--index"])
        .arg(idx)
        .args(["-u", "0", "-v", "3"])
        .output()
        .unwrap();
    assert!(cross.status.success());
    assert!(String::from_utf8_lossy(&cross.stdout).contains("same_component(0, 3) = false"));

    // Out-of-range nodes and corrupt artifacts fail cleanly.
    let oob = scc_bin()
        .args(["index", "query", "--index"])
        .arg(idx)
        .args(["-u", "99"])
        .output()
        .unwrap();
    assert_eq!(oob.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&oob.stderr).contains("out of range"));

    let mut bytes = std::fs::read(idx).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(idx, &bytes).unwrap();
    let corrupt = scc_bin()
        .args(["index", "query", "--index"])
        .arg(idx)
        .args(["-u", "0"])
        .output()
        .unwrap();
    assert_eq!(corrupt.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&corrupt.stderr).contains("checksum"),
        "corruption must surface as a checksum error: {}",
        String::from_utf8_lossy(&corrupt.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_query_out_of_range_is_one_clean_line_for_both_nodes() {
    let dir = std::env::temp_dir().join(format!("scc-cli-oob-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();
    let idx = dir.join("g.sccidx");
    let build = scc_bin()
        .args(["index", "build", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&idx)
        .output()
        .unwrap();
    assert!(build.status.success(), "{}", String::from_utf8_lossy(&build.stderr));

    // A failing query must be one error line and nothing else — in
    // particular `-u 0 -v 99` must not print the `-u` answers before
    // discovering `-v` is out of range.
    for args in [vec!["-u", "99"], vec!["-u", "0", "-v", "99"], vec!["-u", "99", "-v", "0"]] {
        let r = scc_bin()
            .args(["index", "query", "--index"])
            .arg(&idx)
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(r.status.code(), Some(1), "{args:?}");
        assert_eq!(r.stdout, b"", "{args:?}: no partial answers on stdout");
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert_eq!(
            stderr.trim(),
            "error: node 99 out of range (index covers 5 nodes)",
            "{args:?}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_self_test_passes_and_exits_zero() {
    let r = scc_bin()
        .args(["serve", "--self-test", "--threads", "2", "--nodes", "600"])
        .output()
        .unwrap();
    assert!(
        r.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&r.stdout),
        String::from_utf8_lossy(&r.stderr)
    );
    let out = String::from_utf8_lossy(&r.stdout);
    assert!(out.contains("self-test ok"), "{out}");
    assert!(out.contains("logical I/O"), "{out}");
}

#[test]
fn serve_answers_protocol_lines_in_order_and_survives_bad_queries() {
    use std::io::Write as _;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("scc-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();
    let idx = dir.join("g.sccidx");
    let build = scc_bin()
        .args(["index", "build", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&idx)
        .output()
        .unwrap();
    assert!(build.status.success(), "{}", String::from_utf8_lossy(&build.stderr));

    let mut child = scc_bin()
        .args(["serve", "--index"])
        .arg(&idx)
        .args(["--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"c 0\ns 0 1\ns 0 3\nz 3\nb 0 1 2 3 4\nc 99\nq nope\nb\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Answers come back in input order: bad queries are answered inline
    // with `error:` lines and do not kill the loop.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        vec![
            "component_of(0) = 0",
            "same_component(0, 1) = true",
            "same_component(0, 3) = false",
            "component_size(3) = 2",
            "component_of_many(5) = 0 0 0 3 3",
            "error: node 99 out of range (index covers 5 nodes)",
            "error: unknown query op \"q\" (use c|s|z|b)",
            "error: \"b\" needs at least one node",
        ],
        "{stdout}"
    );
    // The banner goes to stderr so stdout stays machine-parseable.
    assert!(String::from_utf8_lossy(&out.stderr).contains("serving"), "banner on stderr");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_answers_each_query_before_stdin_closes() {
    // A closed-loop client writes one query and waits for its answer before
    // sending the next, so the loop must answer without waiting for more
    // input or for EOF.
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("scc-cli-serve-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n3 4\n").unwrap();
    let idx = dir.join("g.sccidx");
    let build = scc_bin()
        .args(["index", "build", "--block", "4K", "--mem", "64K", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&idx)
        .output()
        .unwrap();
    assert!(build.status.success(), "{}", String::from_utf8_lossy(&build.stderr));

    let mut child = scc_bin()
        .args(["serve", "--index"])
        .arg(&idx)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines() {
            if tx.send(line.unwrap()).is_err() {
                break;
            }
        }
    });
    // On failure the unwind drops `stdin`, so the server still exits.
    let exchanges = [("c 0", "component_of(0) = 0"), ("s 3 4", "same_component(3, 4) = false")];
    for (query, answer) in exchanges {
        writeln!(stdin, "{query}").unwrap();
        stdin.flush().unwrap();
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(got.as_deref(), Ok(answer), "no answer to {query:?} while stdin is open");
    }
    drop(stdin);
    assert!(child.wait().unwrap().success());
    reader.join().unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_answers_from_re_verified_labels_after_a_splitting_deletion() {
    // On the triangle 0 -> 1 -> 2 -> 0, `+0 2` lands inside the component
    // (a journal-only commit), and deleting 2 -> 0 then leaves the path
    // 0 -> 1 -> 2 plus 0 -> 2: three singletons. The deletion only marks
    // the component dirty, so the queries after it must not be answered
    // from the stored labels.
    use std::io::Write as _;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("scc-cli-serve-split-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n").unwrap();
    let idx = dir.join("g.sccidx");
    let build = scc_bin()
        .args(["index", "build", "--with-condensation", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&idx)
        .output()
        .unwrap();
    assert!(build.status.success(), "{}", String::from_utf8_lossy(&build.stderr));

    let mut child = scc_bin()
        .args(["serve", "--index"])
        .arg(&idx)
        .arg("--input")
        .arg(&input)
        .args(["--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"s 0 1\n+0 2\ns 0 2\n-2 0\ns 0 1\nz 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec![
            "same_component(0, 1) = true",
            "applied +(0, 2): intra-component, generation 1",
            "same_component(0, 2) = true",
            "applied -(2, 0): dirty-marked, generation 2",
            "same_component(0, 1) = false",
            "component_size(0) = 1",
        ],
        "{stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_generated_workload_reports_qps() {
    let dir = std::env::temp_dir().join(format!("scc-cli-serveq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();
    let idx = dir.join("g.sccidx");
    assert!(scc_bin()
        .args(["index", "build", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&idx)
        .output()
        .unwrap()
        .status
        .success());

    let r = scc_bin()
        .args(["serve", "--index"])
        .arg(&idx)
        .args(["--threads", "2", "--queries", "500", "--batch", "4", "--stats"])
        .output()
        .unwrap();
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let out = String::from_utf8_lossy(&r.stdout);
    assert!(out.contains("served 500 queries on 2 threads"), "{out}");
    assert!(out.contains("qps"), "{out}");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("workload logical I/O"), "{stderr}");
    assert!(stderr.contains("serve.queries"), "--stats must render metrics: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_usage_and_missing_index() {
    // Usage errors exit 2.
    let r = scc_bin().args(["serve", "--frobnicate"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("unknown serve argument"));

    // `--threads 0` is rejected with one clean error line, exit 1.
    let r = scc_bin().args(["serve", "--threads", "0"]).output().unwrap();
    assert_eq!(r.status.code(), Some(1));
    let err = String::from_utf8_lossy(&r.stderr);
    assert_eq!(err.trim(), "error: --threads must be at least 1", "{err}");

    let r = scc_bin().args(["serve", "--threads"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("requires a value"));

    // Runtime failures exit 1: no --index at all, then one that is not there.
    let r = scc_bin().args(["serve"]).output().unwrap();
    assert_eq!(r.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&r.stderr).contains("--index is required"));

    let r = scc_bin()
        .args(["serve", "--index", "/definitely/not/here.sccidx"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&r.stderr).contains("error"));
}

#[test]
fn index_subcommand_rejects_bad_usage() {
    let r = scc_bin().args(["index"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("build|query"));

    let r = scc_bin().args(["index", "rebuild"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));

    let r = scc_bin().args(["index", "build", "--input", "g.txt"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("--out is required"));

    let r = scc_bin()
        .args(["index", "build", "--input", "g.txt", "--out", "g.sccidx", "--threads", "2"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("unknown index build argument \"--threads\""), "{stderr}");

    // `--with-condensation` is the one spelling (`scc run --condense` takes
    // a path), and scratch always lives in files.
    for (flag, value) in [("--condense", None), ("--backend", Some("file"))] {
        let r = scc_bin()
            .args([
                "index", "build", "--input", "g.txt", "--out", "g.sccidx", flag,
            ])
            .args(value)
            .output()
            .unwrap();
        assert_eq!(r.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&r.stderr);
        let want = format!("unknown index build argument \"{flag}\"");
        assert!(stderr.contains(&want), "{stderr}");
    }

    let r = scc_bin().args(["index", "query", "--index", "x.sccidx"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("-u is required"));

    let r = scc_bin()
        .args(["index", "query", "--index", "x.sccidx", "-u", "abc"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("bad -u"));
}

#[test]
fn bare_size_suffixes_are_rejected() {
    let r = scc_bin()
        .args(["--input", "g.txt", "--mem", "K"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("missing digits"), "{stderr}");
}

#[test]
fn malformed_edge_list_is_reported() {
    let dir = std::env::temp_dir().join(format!("scc-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A line with only one endpoint.
    let truncated = dir.join("truncated.txt");
    std::fs::write(&truncated, "0 1\n2\n").unwrap();
    let r = scc_bin().arg("--input").arg(&truncated).output().unwrap();
    assert_eq!(r.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("error"), "stderr: {stderr}");
    assert!(stderr.contains("malformed"), "stderr: {stderr}");

    // Non-numeric node ids.
    let garbage = dir.join("garbage.txt");
    std::fs::write(&garbage, "alpha beta\n").unwrap();
    let r = scc_bin().arg("--input").arg(&garbage).output().unwrap();
    assert_eq!(r.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&r.stderr).contains("error"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_memory_budget_is_rejected() {
    // M = 0 can never satisfy M >= 2B.
    let r = scc_bin()
        .args(["--input", "/irrelevant.txt", "--mem", "0"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("two blocks"));

    // B = 0 sneaks past M >= 2B and must be rejected on its own.
    let r = scc_bin()
        .args(["--input", "/irrelevant.txt", "--mem", "0", "--block", "0"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("nonzero"));
}

#[test]
fn overflowing_sizes_are_rejected() {
    // 2 * block would wrap to 0 and sneak past the M >= 2B guard. (On
    // 32-bit targets the value already fails usize parsing — also exit 2.)
    let r = scc_bin()
        .args(["--input", "/x", "--mem", "64M", "--block", "9223372036854775808"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(
        stderr.contains("two blocks") || stderr.contains("bad size"),
        "stderr: {stderr}"
    );

    // usize::MAX kibibytes overflows the suffix multiplier.
    let r = scc_bin()
        .args(["--input", "/x", "--mem", "18446744073709551615K"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("overflows"));
}

#[test]
fn missing_flag_value_is_rejected() {
    let r = scc_bin().args(["--input"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("requires a value"));

    let r = scc_bin()
        .args(["--input", "g.txt", "--mem", "lots"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("bad size"));
}

#[test]
fn storage_settings_produce_identical_labels_and_report_cache_stats() {
    let dir = std::env::temp_dir().join(format!("scc-cli-storage-{}", std::process::id()));
    let scratch = dir.join("scratch");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("g.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();

    // Pooled (the default: M / B = 256 frames), pass-through, and pooled
    // over an explicit scratch directory.
    let scratch_arg = scratch.to_str().unwrap();
    let settings: [(&[&str], &str); 3] = [
        (&[], "storage: 256 cache blocks;"),
        (&["--cache-blocks", "0"], "storage: 0 cache blocks;"),
        (&["--scratch", scratch_arg], "storage: 256 cache blocks;"),
    ];
    let mut runs = Vec::new();
    for (extra, storage) in settings {
        let r = scc_bin()
            .arg("--input")
            .arg(&input)
            .args(["--mem", "1M", "--block", "4K", "--stats"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            r.status.success(),
            "{extra:?} failed: {}",
            String::from_utf8_lossy(&r.stderr)
        );
        let stderr = String::from_utf8_lossy(&r.stderr).into_owned();
        assert!(
            stderr.contains("cache hits"),
            "--stats must report the pool: {stderr}"
        );
        assert!(
            stderr.contains(storage),
            "--stats must size the pool: {stderr}"
        );
        let ios = stderr
            .lines()
            .find_map(|l| l.split(", ").find(|f| f.ends_with(" block I/Os")))
            .unwrap_or_else(|| panic!("no block I/O count: {stderr}"))
            .to_string();
        runs.push((String::from_utf8_lossy(&r.stdout).into_owned(), ios, stderr));
    }
    for (labels, ios, _) in &runs[1..] {
        assert_eq!(
            labels, &runs[0].0,
            "storage settings must agree on the labeling"
        );
        assert_eq!(ios, &runs[0].1, "the pool must not change logical I/O");
    }
    assert!(
        runs[1].2.contains("; 0 cache hits,"),
        "pass-through must not hit: {}",
        runs[1].2
    );
    let left = std::fs::read_dir(&scratch).unwrap().count();
    assert_eq!(left, 0, "--scratch keeps the directory but no scratch file");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_backend_and_cache_flags_are_rejected() {
    let r = scc_bin()
        .args(["--input", "g.txt", "--backend", "tape"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("unknown argument \"--backend\""), "{stderr}");

    let r = scc_bin()
        .args(["--input", "g.txt", "--cache-blocks", "many"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("bad --cache-blocks"));

    let r = scc_bin().args(["--input", "g.txt", "--cache-blocks"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("requires a value"));
}

#[test]
fn trace_rejects_bad_modes() {
    for args in [
        vec!["run", "--input", "g.txt", "--trace", "xml"],
        vec!["run", "--input", "g.txt", "--trace=xml"],
    ] {
        let r = scc_bin().args(&args).output().unwrap();
        assert_eq!(r.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&r.stderr).contains("human|json"),
            "{args:?}"
        );
    }
}

#[test]
fn missing_input_file_is_reported() {
    let r = scc_bin()
        .args(["--input", "/definitely/not/here.txt"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&r.stderr).contains("error"));
}

#[test]
fn verify_smoke_output_is_byte_stable() {
    // `scc verify` output is a promise: it contains no wall-clock times, no
    // scratch paths and no hash-map iteration order, so the whole summary
    // table is byte-for-byte reproducible. Golden file: regenerate with
    //   cargo run --release --bin scc -- verify --scale smoke \
    //     > tests/golden/verify_smoke.txt
    let r = scc_bin().args(["verify", "--scale", "smoke"]).output().unwrap();
    assert!(
        r.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&r.stderr)
    );
    let golden = include_str!("golden/verify_smoke.txt");
    let got = String::from_utf8_lossy(&r.stdout);
    assert_eq!(
        got, golden,
        "scc verify --scale smoke output drifted from tests/golden/verify_smoke.txt \
         (if the change is intentional, regenerate the golden file)"
    );
}

#[test]
fn verify_rejects_bad_arguments() {
    let r = scc_bin().args(["verify", "--scale", "bogus"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("smoke|full"));

    let r = scc_bin().args(["verify", "--frobnicate"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("usage"));

    let r = scc_bin().args(["verify", "--threads", "2"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("unknown verify argument \"--threads\""), "{stderr}");

    let r = scc_bin().args(["verify", "--help"]).output().unwrap();
    assert_eq!(r.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&r.stdout).contains("verify"));
}
