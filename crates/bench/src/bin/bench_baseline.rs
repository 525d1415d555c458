//! `bench-baseline` — runs the perf-tracked benches and emits a single
//! `BENCH_pr5.json` with per-bench medians, optionally merged with a set
//! of "before" reports for A/B comparison.
//!
//! ```text
//! cargo run --release -p hoas-bench --bin bench-baseline -- \
//!     [--bench NAME]... [--before FILE]... [--out PATH] [--runs N]
//! ```
//!
//! * `--bench NAME` — which bench targets to run (default: `substitution`,
//!   `unification`, `rewriting`, `analyze`, `interning`, `parallel` — the
//!   six perf-tracked suites).
//! * `--before FILE` — a JSON report produced by an earlier revision via
//!   `HOAS_BENCH_JSON`; medians found there are recorded per benchmark as
//!   `before_median_ns` next to the fresh `median_ns`, plus a `speedup`
//!   ratio. May be given several times.
//! * `--out PATH` — output path (default `BENCH_pr5.json`).
//! * `--runs N` — run each bench target `N` times and record, per
//!   benchmark, the smallest of the `N` medians (default 3). Scheduler
//!   and host interference only ever inflate a wall-clock median, never
//!   deflate it, so the minimum across repeated runs is the least-biased
//!   estimate of the quiet-machine median; each benchmark only needs one
//!   quiet window among the `N` runs.
//!
//! Each bench target is executed as `cargo bench --offline -p hoas-bench
//! --bench NAME` with `HOAS_BENCH_JSON` pointed at a scratch file, so the
//! numbers come from the same harness as a manual `cargo bench` run.

use hoas_bench::history::parse_report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Runs the depth-10 tabled fold workload (certified tabling, one cold
/// pass and one warm pass over shared tables) in-process and returns
/// the table counters the two solves report, summed, as a deterministic
/// fingerprint of tabling behavior for the report's meta block.
fn solver_table_fingerprint() -> hoas_lp::TableStats {
    use hoas_lp::solve::{query_menv, solve_with, SolveConfig};
    use hoas_lp::{Clause, Program, SolveTables, TableMode, TableStats};

    let sig = hoas_core::sig::Signature::parse(
        "type e. type o.
         const zero : e. const one : e.
         const plus : e -> e -> e.
         const opt : e -> e -> o.",
    )
    .expect("well-formed signature");
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[], "opt zero zero", &[]).expect("clause"));
    prog.push(Clause::parse(prog.sig(), &[], "opt one one", &[]).expect("clause"));
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("X", "e"), ("Y", "e"), ("A", "e"), ("B", "e")],
            "opt (plus ?X ?Y) (plus ?A ?B)",
            &["opt ?X ?A", "opt ?Y ?B"],
        )
        .expect("clause"),
    );
    let cert = hoas_analyze::modes::analyze_program(&prog).cert;
    let mut tree = String::from("one");
    for _ in 0..10 {
        tree = format!("(plus {tree} {tree})");
    }
    let (goal, menv) =
        query_menv(prog.sig(), &format!("opt {tree} ?Z"), &[("Z", "e")]).expect("query parses");
    let cfg = SolveConfig {
        max_depth: 1 << 13,
        fuel: 100_000_000,
        table: TableMode::Certified,
        ..SolveConfig::default()
    };
    let mut tables = SolveTables::for_program(&prog);
    let mut total = TableStats::default();
    for _ in 0..2 {
        let out = solve_with(&prog, &menv, &goal, &cfg, Some(&cert), &mut tables).expect("solves");
        assert_eq!(out.answers.len(), 1, "fold workload must solve");
        total.merge(&out.tables);
    }
    total
}

/// One measured benchmark, keyed by its `group/function/param` id.
#[derive(Default)]
struct Entry {
    median_ns: Option<u128>,
    before_median_ns: Option<u128>,
}

fn main() -> ExitCode {
    let mut benches: Vec<String> = Vec::new();
    let mut before_files: Vec<PathBuf> = Vec::new();
    let mut out = PathBuf::from("BENCH_pr5.json");
    let mut runs: u32 = 3;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench-baseline: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--bench" => benches.push(val("--bench")),
            "--before" => before_files.push(PathBuf::from(val("--before"))),
            "--out" => out = PathBuf::from(val("--out")),
            "--runs" => {
                runs = match val("--runs").parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("bench-baseline: --runs needs a positive integer");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench-baseline [--bench NAME]... [--before FILE]... \
                     [--out PATH] [--runs N]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench-baseline: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if benches.is_empty() {
        benches = [
            "substitution",
            "unification",
            "rewriting",
            "analyze",
            "interning",
            "parallel",
            "warm_start",
            "solver_det",
            "solver",
        ]
        .map(String::from)
        .to_vec();
    }

    let mut entries: BTreeMap<String, Entry> = BTreeMap::new();
    for file in &before_files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-baseline: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        for (id, median) in parse_report(&text) {
            entries.entry(id).or_default().before_median_ns = Some(median);
        }
    }

    let scratch = std::env::temp_dir().join("hoas-bench-baseline.json");
    for run in 1..=runs {
        for bench in &benches {
            println!("# bench-baseline: running `cargo bench --bench {bench}` (run {run}/{runs})");
            let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
                .args(["bench", "--offline", "-p", "hoas-bench", "--bench", bench])
                .env("HOAS_BENCH_JSON", &scratch)
                // Recorded baselines need medians that are robust against
                // scheduler jitter, so raise the per-benchmark sample floor
                // well above the quick interactive default.
                .env("HOAS_BENCH_SAMPLES", "60")
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("bench-baseline: bench {bench} failed with {s}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("bench-baseline: cannot spawn cargo: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let text = match std::fs::read_to_string(&scratch) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "bench-baseline: bench {bench} wrote no report ({}: {e})",
                        scratch.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            for (id, median) in parse_report(&text) {
                let slot = &mut entries.entry(id).or_default().median_ns;
                *slot = Some(slot.map_or(median, |prev| prev.min(median)));
            }
        }
    }

    // Host metadata as the report's first element. Its key is "meta",
    // not "id", so `parse_report` (which requires a quoted "id" field)
    // skips it when the file is later fed back through `--before`.
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let host_cpus = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or(threads);
    // The benched runs happen in child processes, so their solves are
    // not visible here; run the canonical tabled fold workload instead,
    // so the meta block records a stable tabling fingerprint — same
    // workload, same expected counters — comparable across reports.
    let table = solver_table_fingerprint();
    let mut json = format!(
        "[\n  {{\"meta\": \"host\", \"available_parallelism\": {threads}, \
         \"host_cpus\": {host_cpus}, \"table_hits\": {}, \
         \"table_variant_misses\": {}, \"table_suspensions\": {}, \
         \"table_answers_reused\": {}}},\n",
        table.hits, table.variant_misses, table.suspensions, table.answers_reused,
    );
    let mut first = true;
    for (id, e) in &entries {
        let Some(after) = e.median_ns else {
            // A before-only id: the benchmark no longer exists; drop it.
            continue;
        };
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(r#"  {{"id": "{id}", "median_ns": {after}"#));
        if let Some(before) = e.before_median_ns {
            let speedup = before as f64 / after.max(1) as f64;
            json.push_str(&format!(
                r#", "before_median_ns": {before}, "speedup": {speedup:.2}"#
            ));
        }
        json.push('}');
    }
    json.push_str("\n]\n");

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench-baseline: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# bench-baseline: {} benchmarks written to {}",
        entries.values().filter(|e| e.median_ns.is_some()).count(),
        out.display()
    );
    ExitCode::SUCCESS
}
