//! End-to-end benchmark of the HOAS system: every job goes from
//! metalanguage source text to a printed answer through the public layer
//! entry points, and every answer is checked by an independent oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rewrite-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run starts measuring child processes one after another; each is a
//! closed loop with one client thread: the next job starts when the
//! previous answer has been checked. Input generation and oracle checks
//! run outside each job's timer. An untraced run runs every child's job
//! stream [`ROUNDS`] times, in fresh processes spread over the run, and
//! times each job by the least of its timings. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` traces every other batch of jobs, prints the
//! per-layer metrics and writes the spans to `perfbench/out/`. The last
//! line of standard output is one JSON object; `perfbench/README.md`
//! describes workloads and metrics.

mod clock;
mod gen;
mod oracle;
mod system;
mod trace;

use clock::thread_cpu_ns;
use gen::{Job, Stream};
use hoas_core::store::{self, InternStats};
use hoas_rewrite::image::save_warm_image;
use hoas_testkit::rng::per_thread_seed;
use oracle::Oracle;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use system::{LpOut, LpSys, RewriteOut, RewriteSys, SigTexts};
use trace::Tracer;

/// Set-ups per child process. `setup_s` is the median over a run's
/// set-ups of each one's least time over the rounds.
const SETUP_REPS: usize = 3;
/// Jobs generated (or replayed) between clock checks; with tracing on,
/// batches alternate between traced and untraced.
const BATCH: usize = 64;
/// `rewrite-warm`'s working set: the first jobs of `rewrite-cold`'s
/// stream (128 of each kind). Large enough that its mix of job kinds, and
/// so its latency median, barely moves with the seed; small next to the
/// engine caches' caps (2^20 entries each).
const WORKING_SET: usize = 512;
/// Times an untraced run runs each child, each time in a fresh process
/// with the same inputs. The rounds follow one another, so the runs of
/// one child are spread over the whole run. Traced runs have one round.
const ROUNDS: u64 = 10;
/// The clock probe's time on the reference host, nanoseconds. Every
/// timing a run reports is given at the clock rate this stands for:
/// multiplied by `REF_PROBE_NS` over the median of the run's clock probes
/// ([`clock::clock_probe_ns`]), which the parent times before each child.
const REF_PROBE_NS: f64 = 5.0e6;
/// Fewest jobs a measuring process runs, whatever `--seconds` says: a
/// run then has at least 10 samples beyond its p99.
const MIN_JOBS: u64 = 128;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    RewriteCold,
    LpCold,
    RewriteWarm,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::RewriteCold => "rewrite-cold",
            Workload::LpCold => "lp-cold",
            Workload::RewriteWarm => "rewrite-warm",
        }
    }

    /// Job streams per run; each child runs an equal share of the run's
    /// jobs on a stream of its own. A `rewrite-warm` child primes its
    /// working set and loads the images before its first job, which takes
    /// longer than its jobs, so that workload has fewer children.
    fn children(self) -> u64 {
        match self {
            Workload::RewriteCold | Workload::LpCold => 8,
            Workload::RewriteWarm => 4,
        }
    }

    /// Jobs per second of `--seconds`. A run is a fixed count of jobs,
    /// not a time budget, so two builds measured with the same seed and
    /// `--seconds` time exactly the same jobs, however fast each runs.
    /// The counts are sized so that on the reference host a run takes
    /// about `--seconds`, set-up, generation and checks included.
    fn jobs_per_s(self) -> u64 {
        match self {
            Workload::RewriteCold => 2_560,
            Workload::LpCold => 400,
            Workload::RewriteWarm => 3_072,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a measuring child: its index among [`Workload::children`].
    child: Option<u64>,
}

impl Args {
    /// The seed of this process's job stream: each child draws its own
    /// stream from the run's seed.
    fn stream_seed(&self) -> u64 {
        self.child
            .map_or(self.seed, |i| per_thread_seed(self.seed, i as usize))
    }

    /// Jobs a measuring child runs: its share of the run's jobs, which
    /// an untraced run runs [`ROUNDS`] times.
    fn jobs(&self) -> u64 {
        let share = self.workload.children() * ROUNDS;
        (self.workload.jobs_per_s() * self.seconds / share).max(MIN_JOBS)
    }

    /// Rounds this run makes.
    fn rounds(&self) -> u64 {
        if self.trace {
            1
        } else {
            ROUNDS
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "rewrite-cold" => Workload::RewriteCold,
                    "lp-cold" => Workload::LpCold,
                    "rewrite-warm" => Workload::RewriteWarm,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--child" => child = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        child,
    })
}

// ------------------------------------------------------------ host shape --

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim_start_matches([':', ' ', '\t']).trim().to_string())
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> usize {
    let Some(list) = proc_field("/proc/self/status", "Cpus_allowed_list") else {
        return 0;
    };
    list.split(',')
        .map(|r| match r.split_once('-') {
            Some((a, b)) => b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0),
            None => 1,
        })
        .sum()
}

fn host_json() -> String {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        r#"{{"nproc": {}, "available_parallelism": {par}, "cpu": "{}", "rustc": "{}", "profile": "{}", "root_profile": "{}"}}"#,
        nproc(),
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_ROOT_PROFILE"),
    )
}

/// Peak resident set size so far (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------- stats --

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-layer counters summed over traced jobs.
#[derive(Default)]
struct Counters {
    parse_bytes: u64,
    steps: u64,
    matched_steps: u64,
    nodes_visited: u64,
    match_attempts: u64,
    rule_nf: (u64, u64),
    root_memo: (u64, u64),
    canon: (u64, u64),
    solves: u64,
    cuts: u64,
    table_hits: u64,
    table_misses: u64,
    answers_reused: u64,
    intern_lookups: u64,
    intern_hits: u64,
    distinct: u64,
}

impl Counters {
    fn rewrite(&mut self, out: &RewriteOut) {
        let s = &out.stats;
        self.steps += out.steps as u64;
        // A root-memo hit replays a whole step without matching.
        self.matched_steps += (out.steps as u64).saturating_sub(s.memo_hits);
        self.nodes_visited += s.nodes_visited;
        self.match_attempts += s.pattern_attempts + s.general_attempts + s.native_attempts;
        self.rule_nf.0 += s.cache_hits;
        self.rule_nf.1 += s.cache_lookups;
        self.root_memo.0 += s.memo_hits;
        self.root_memo.1 += s.memo_hits + s.memo_misses;
        self.canon.0 += s.canon_hits;
        self.canon.1 += s.canon_hits + s.canon_misses;
    }

    fn lp(&mut self, out: &LpOut) {
        let t = &out.outcome.tables;
        self.solves += 1;
        self.cuts += u64::from(out.outcome.cut.is_some());
        self.table_hits += t.hits;
        self.table_misses += t.variant_misses;
        self.answers_reused += t.answers_reused;
    }

    fn store(&mut self, d: &InternStats) {
        self.intern_lookups += d.lookups;
        self.intern_hits += d.hits;
        self.distinct += d.distinct_nodes;
    }
}

/// A workload's system and how to run, check and count one job.
trait System {
    type Out;
    fn exec(&mut self, job: &Job, tr: &mut Tracer) -> Result<Self::Out, String>;
    fn check(&mut self, job: &Job, out: &Self::Out, oracle: &mut Oracle) -> Result<(), String>;
    /// Term nodes in and out, when the job returned a term.
    fn sizes(out: &Self::Out) -> Option<(usize, usize)>;
    fn count(out: &Self::Out, c: &mut Counters);
}

struct Rewrite<'a> {
    sys: &'a RewriteSys,
    engines: Vec<hoas_rewrite::Engine<'a>>,
}

impl System for Rewrite<'_> {
    type Out = RewriteOut;
    fn exec(&mut self, job: &Job, tr: &mut Tracer) -> Result<RewriteOut, String> {
        system::run_rewrite(&self.engines, self.sys, &job.input, &job.text, tr)
    }
    fn check(&mut self, job: &Job, out: &RewriteOut, oracle: &mut Oracle) -> Result<(), String> {
        oracle.check_rewrite(&job.input, out)
    }
    fn sizes(out: &RewriteOut) -> Option<(usize, usize)> {
        Some((out.input.size(), out.output.size()))
    }
    fn count(out: &RewriteOut, c: &mut Counters) {
        c.rewrite(out);
    }
}

struct Lp(LpSys);

impl System for Lp {
    type Out = LpOut;
    fn exec(&mut self, job: &Job, tr: &mut Tracer) -> Result<LpOut, String> {
        system::run_lp(&mut self.0, &job.input, &job.text, tr)
    }
    fn check(&mut self, job: &Job, out: &LpOut, oracle: &mut Oracle) -> Result<(), String> {
        oracle.check_lp(&job.input, out)
    }
    fn sizes(out: &LpOut) -> Option<(usize, usize)> {
        let answer = out.outcome.answers.first()?;
        let nodes = answer.bindings.iter().map(|(_, t)| t.size()).sum();
        Some((out.goal_nodes, nodes))
    }
    fn count(out: &LpOut, c: &mut Counters) {
        c.lp(out);
    }
}

/// Where jobs come from: a fresh stream, or a working set replayed
/// (with the draws its stream threw away).
enum Source {
    Stream(Stream),
    Replay(Vec<Job>, u64),
}

/// What set-up measured (medians over [`SETUP_REPS`]).
#[derive(Default)]
struct Setup {
    /// Every set-up's duration, seconds.
    reps: Vec<f64>,
    cert_ms: f64,
    image_load_ms: f64,
    image_save_ms: f64,
    image_bytes: u64,
    image_reloaded: u64,
    image_dropped: u64,
}

/// Everything one measured run observed.
struct Measured {
    /// Untraced job latencies, thread CPU nanoseconds.
    lat: Vec<u64>,
    /// Traced job latencies, thread CPU nanoseconds.
    lat_traced: Vec<u64>,
    /// Wall-clock time spent inside jobs (shown for reference).
    wall_busy: Duration,
    attempted: u64,
    failed: u64,
    log_size_ratio: f64,
    sized: u64,
    rss_mb: f64,
    /// Draws the job stream threw away as repeats.
    redraws: u64,
    /// `imp` jobs the oracle could not compare (both runs diverged).
    imp_unchecked: u64,
    counters: Counters,
    tracer: Tracer,
}

fn measure<S: System>(sys: &mut S, mut source: Source, args: &Args) -> Measured {
    let mut oracle = Oracle::new(args.stream_seed());
    let mut m = Measured {
        lat: Vec::new(),
        lat_traced: Vec::new(),
        wall_busy: Duration::ZERO,
        attempted: 0,
        failed: 0,
        log_size_ratio: 0.0,
        sized: 0,
        rss_mb: 0.0,
        redraws: 0,
        imp_unchecked: 0,
        counters: Counters::default(),
        tracer: Tracer::new(),
    };
    let jobs = args.jobs();
    let mut fresh;
    for batch_no in 0.. {
        let left = jobs - m.attempted;
        if left == 0 {
            break;
        }
        let batch: &[Job] = match &mut source {
            Source::Stream(s) => {
                fresh = (0..BATCH.min(left as usize))
                    .map(|_| s.next_job())
                    .collect::<Vec<_>>();
                &fresh
            }
            Source::Replay(w, _) => &w[..w.len().min(left as usize)],
        };
        let traced = args.trace && batch_no % 2 == 0;
        m.tracer.on = traced;
        for job in batch {
            let id = m.attempted as u32;
            let before = traced.then(store::stats);
            m.tracer.begin_job(id);
            let wall = Instant::now();
            let t0 = thread_cpu_ns();
            let out = sys.exec(job, &mut m.tracer);
            let t1 = thread_cpu_ns();
            m.wall_busy += wall.elapsed();
            m.tracer.end_job(t0, t1);
            let ns = t1 - t0;
            if traced {
                m.lat_traced.push(ns);
            } else {
                m.lat.push(ns);
            }
            m.attempted += 1;
            if let Some(before) = &before {
                m.counters.store(&store::stats().since(before));
                m.counters.parse_bytes += job.text.len() as u64;
            }
            let verdict = out.and_then(|o| {
                if traced {
                    S::count(&o, &mut m.counters);
                }
                if let Some((i, o_nodes)) = S::sizes(&o) {
                    m.log_size_ratio += (o_nodes as f64 / i as f64).ln();
                    m.sized += 1;
                }
                sys.check(job, &o, &mut oracle)
            });
            if let Err(why) = verdict {
                m.failed += 1;
                if m.failed <= 5 {
                    eprintln!(
                        "failed {} job {id}: {why}\n  input: {}",
                        job.input.kind(),
                        job.text
                    );
                }
            }
        }
    }
    m.rss_mb = peak_rss_mb();
    m.redraws = match &source {
        Source::Stream(s) => s.redraws,
        Source::Replay(_, redraws) => *redraws,
    };
    m.imp_unchecked = oracle.imp_unchecked;
    m
}

// ------------------------------------------------------------ workloads --

fn run_rewrite(args: &Args, warm: bool) -> (Measured, Setup) {
    let texts = SigTexts::new();
    let mut setup = Setup::default();
    let (images, source) = if warm {
        let mut stream = Stream::rewrite(args.stream_seed());
        let ws: Vec<Job> = (0..WORKING_SET).map(|_| stream.next_job()).collect();
        let (images, save_ns) = prime(&texts, &ws);
        setup.image_save_ms = save_ns as f64 / 1e6;
        (images, Source::Replay(ws, stream.redraws))
    } else {
        (
            Vec::new(),
            Source::Stream(Stream::rewrite(args.stream_seed())),
        )
    };
    let (mut total, mut cert, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut one_setup = || {
        let t = thread_cpu_ns();
        let mut cert_ns = 0;
        let sys = RewriteSys::build(&texts, &mut cert_ns);
        let tl = thread_cpu_ns();
        let (caches, stats) = system::load_images(&images);
        load.push((thread_cpu_ns() - tl) as f64 / 1e6);
        (sys, caches, stats, t, cert_ns)
    };
    for _ in 1..SETUP_REPS {
        let (sys, caches, _, t, cert_ns) = one_setup();
        drop(sys.engines(caches));
        total.push((thread_cpu_ns() - t) as f64 / 1e9);
        cert.push(cert_ns as f64 / 1e6);
        drop(sys);
        store::trim();
    }
    let (sys, caches, stats, t, cert_ns) = one_setup();
    let engines = sys.engines(caches);
    total.push((thread_cpu_ns() - t) as f64 / 1e9);
    cert.push(cert_ns as f64 / 1e6);
    setup.reps = total;
    setup.cert_ms = median(&cert);
    if warm {
        setup.image_load_ms = median(&load);
        setup.image_bytes = stats.bytes;
        setup.image_reloaded = stats.entries_reloaded;
        setup.image_dropped = stats.entries_dropped;
    }
    println!(
        "# set-up: {} of 4 rule sets carry a termination certificate",
        sys.certified()
    );
    let m = measure(&mut Rewrite { sys: &sys, engines }, source, args);
    (m, setup)
}

/// The priming pass: runs each rule set's share of the working set in a
/// store of its own (as a separate earlier process would) and saves that
/// engine's caches as a warm image. Returns the images and the time spent
/// saving them.
fn prime(texts: &SigTexts, ws: &[Job]) -> (Vec<Vec<u8>>, u64) {
    let mut save_ns = 0;
    let images = (0..4)
        .map(|slot| {
            store::StoreHandle::isolated().enter(|| {
                let sys = RewriteSys::build(texts, &mut 0);
                let engines = sys.engines(Default::default());
                let mut tr = Tracer::new();
                // Keep the answers alive until the save, so every cache key
                // is still in the store snapshot.
                let answers: Vec<_> = ws
                    .iter()
                    .filter(|j| system::rewrite_slot(&j.input) == slot)
                    .map(|j| system::run_rewrite(&engines, &sys, &j.input, &j.text, &mut tr))
                    .collect();
                let t = thread_cpu_ns();
                let image = save_warm_image(&engines[slot].caches());
                save_ns += thread_cpu_ns() - t;
                drop(answers);
                image
            })
        })
        .collect();
    (images, save_ns)
}

fn run_lp(args: &Args) -> (Measured, Setup) {
    let mut setup = Setup::default();
    let (mut total, mut cert) = (Vec::new(), Vec::new());
    let mut one_setup = || {
        let t = thread_cpu_ns();
        let mut cert_ns = 0;
        let sys = LpSys::build(&mut cert_ns);
        total.push((thread_cpu_ns() - t) as f64 / 1e9);
        cert.push(cert_ns as f64 / 1e6);
        sys
    };
    for _ in 1..SETUP_REPS {
        drop(one_setup());
        store::trim();
    }
    let sys = one_setup();
    setup.reps = total;
    setup.cert_ms = median(&cert);
    let m = measure(
        &mut Lp(sys),
        Source::Stream(Stream::lp(args.stream_seed())),
        args,
    );
    (m, setup)
}

// --------------------------------------------------------------- report --

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    let value = if value.is_finite() { value } else { 0.0 };
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(out, r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#);
}

/// Children's reports: every `key value` line, by key.
#[derive(Default)]
struct Reports(BTreeMap<String, Vec<f64>>);

impl Reports {
    fn parse(report: &str) -> Option<Reports> {
        let mut r = Reports::default();
        for line in report.lines().filter(|l| !l.starts_with('#')) {
            let (key, value) = line.split_once(' ')?;
            r.push(key, value.trim().parse().ok()?);
        }
        Some(r)
    }

    fn push(&mut self, key: &str, value: f64) {
        self.0.entry(key.to_string()).or_default().push(value);
    }

    fn merge(&mut self, other: &Reports) {
        for (key, values) in &other.0 {
            self.0.entry(key.clone()).or_default().extend(values);
        }
    }

    fn sum(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| v.iter().sum())
    }

    fn mean(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }

    fn median(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| median(v))
    }

    fn last(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .and_then(|v| v.last().copied())
            .unwrap_or(0.0)
    }
}

/// Prints the `key value` lines a child reports to its parent.
fn report(lines: &[(&str, f64)]) {
    for (key, value) in lines {
        println!("{key} {value}");
    }
}

/// What every child reports.
fn report_common(m: &Measured) {
    report(&[
        ("attempted", m.attempted as f64),
        ("failed", m.failed as f64),
        ("redraws", m.redraws as f64),
        ("imp_unchecked", m.imp_unchecked as f64),
    ]);
}

/// An untraced child's report: every job's and every set-up's time in
/// thread CPU time, in the order they ran, its memory and its counts.
fn report_timing(m: &Measured, setup: &Setup) {
    let mut lat: Vec<f64> = m.lat.iter().map(|&ns| ns as f64).collect();
    for ns in &lat {
        report(&[("lat_ns", *ns)]);
    }
    lat.sort_by(f64::total_cmp);
    let busy: f64 = lat.iter().sum();
    report_common(m);
    report(&[
        ("jobs_per_s", lat.len() as f64 / (busy / 1e9)),
        ("p50_us", percentile(&lat, 0.50) / 1e3),
        ("rss_mb", m.rss_mb),
        (
            "wall_jobs_per_s",
            lat.len() as f64 / m.wall_busy.as_secs_f64(),
        ),
        ("sized", m.sized as f64),
        ("log_size_ratio", m.log_size_ratio),
    ]);
    for rep in &setup.reps {
        report(&[("setup_s", *rep)]);
    }
}

/// Element-wise least of one key's values over a child's rounds, which
/// ran the same jobs (or set-ups) in the same order.
fn least(rounds: &[Reports], key: &str) -> Result<Vec<f64>, String> {
    let mut out: Option<Vec<f64>> = None;
    for r in rounds {
        let v = r.0.get(key).map_or(&[][..], Vec::as_slice);
        match &mut out {
            None => out = Some(v.to_vec()),
            Some(o) if o.len() == v.len() => {
                for (a, b) in o.iter_mut().zip(v) {
                    *a = a.min(*b);
                }
            }
            Some(o) => {
                return Err(format!(
                    "rounds of one child report {} and {} {key} values",
                    o.len(),
                    v.len()
                ))
            }
        }
    }
    Ok(out.unwrap_or_default())
}

/// End-to-end metrics. A job's latency is the least of its timings over
/// the rounds, and so is a set-up's: the host's slow phases only ever add
/// time, and a child's rounds are spread over the run. `scale` converts
/// this run's CPU time to time at the reference host's clock rate.
fn end_to_end(by_child: &[Vec<Reports>], r: &Reports, scale: f64) -> Result<String, String> {
    let (mut lat, mut setup) = (Vec::new(), Vec::new());
    for rounds in by_child {
        lat.extend(least(rounds, "lat_ns")?);
        setup.extend(least(rounds, "setup_s")?);
    }
    if lat.is_empty() {
        return Err("no job latencies reported".into());
    }
    lat.sort_by(f64::total_cmp);
    let busy: f64 = lat.iter().sum();
    let (jobs_per_s, p50_us, p99_us, setup_s) = (
        lat.len() as f64 / (busy / 1e9),
        percentile(&lat, 0.50) / 1e3,
        percentile(&lat, 0.99) / 1e3,
        median(&setup),
    );
    println!(
        "# at this run's clock rate: jobs_per_s {jobs_per_s:.1}, latency_p50_us {p50_us:.2}, latency_p99_us {p99_us:.2}, setup_s {setup_s:.6}; clock probe median {:.3} ms",
        r.median("probe_ns") / 1e6
    );
    let mut s = String::new();
    metric(&mut s, "jobs_per_s", jobs_per_s / scale, "1/s");
    metric(&mut s, "latency_p50_us", p50_us * scale, "us");
    metric(&mut s, "latency_p99_us", p99_us * scale, "us");
    metric(&mut s, "setup_s", setup_s * scale, "s");
    metric(&mut s, "peak_rss_mb", r.mean("rss_mb"), "MiB");
    let failed_frac = r.sum("failed") / r.sum("attempted");
    metric(&mut s, "ok_frac", 1.0 - failed_frac, "frac");
    let mean_log = r.sum("log_size_ratio") / r.sum("sized");
    metric(&mut s, "out_size_ratio", mean_log.exp(), "ratio");
    Ok(s)
}

/// Layer spans' names, and `job` for the glue no layer span covers.
const LAYERS: [&str; 8] = [
    "parse", "typeck", "rewrite", "eval", "solve", "decode", "print", "job",
];

/// A traced child's report: self time per layer and the layer counters,
/// all summed over its traced jobs, and its set-up gauges.
fn report_layers(m: &Measured, setup: &Setup) {
    let mut self_ns = BTreeMap::<&str, u64>::new();
    for (span, ns) in m.tracer.spans.iter().zip(m.tracer.self_times()) {
        *self_ns.entry(span.name).or_default() += ns;
    }
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        println!("self.{layer} {ns}");
    }
    let c = &m.counters;
    let n = |x: u64| x as f64;
    report_common(m);
    report(&[
        ("traced_jobs", m.lat_traced.len() as f64),
        ("traced_ns", n(m.lat_traced.iter().sum())),
        ("untraced_jobs", m.lat.len() as f64),
        ("untraced_ns", n(m.lat.iter().sum())),
        ("parse_bytes", n(c.parse_bytes)),
        ("steps", n(c.steps)),
        ("matched_steps", n(c.matched_steps)),
        ("nodes_visited", n(c.nodes_visited)),
        ("match_attempts", n(c.match_attempts)),
        ("rule_nf_hits", n(c.rule_nf.0)),
        ("rule_nf_lookups", n(c.rule_nf.1)),
        ("root_memo_hits", n(c.root_memo.0)),
        ("root_memo_lookups", n(c.root_memo.1)),
        ("canon_hits", n(c.canon.0)),
        ("canon_lookups", n(c.canon.1)),
        ("solves", n(c.solves)),
        ("cuts", n(c.cuts)),
        ("table_hits", n(c.table_hits)),
        ("table_misses", n(c.table_misses)),
        ("answers_reused", n(c.answers_reused)),
        ("intern_lookups", n(c.intern_lookups)),
        ("intern_hits", n(c.intern_hits)),
        ("distinct", n(c.distinct)),
        ("live_nodes", store::current().len() as f64),
        ("image_load_ms", setup.image_load_ms),
        ("image_save_ms", setup.image_save_ms),
        ("image_bytes", n(setup.image_bytes)),
        ("image_reloaded", n(setup.image_reloaded)),
        ("image_dropped", n(setup.image_dropped)),
        ("cert_ms", setup.cert_ms),
    ]);
}

/// Per-layer metrics over all children's traced jobs. Per-job figures
/// divide by the traced job count, so the layer self times plus the glue
/// add up to the mean traced latency; gauges are medians over children.
/// Times are at the reference host's clock rate, as in [`end_to_end`].
fn per_layer(r: &Reports, scale: f64) -> String {
    let jobs = r.sum("traced_jobs").max(1.0);
    let per_job = |key: &str| r.sum(key) / jobs;
    let us = |layer: &str| r.sum(&format!("self.{layer}")) / 1e3 / jobs * scale;
    let frac = |num: &str, den: &str| {
        let d = r.sum(den);
        if d == 0.0 {
            0.0
        } else {
            r.sum(num) / d
        }
    };
    let traced_us = r.sum("traced_ns") / 1e3 / jobs * scale;
    let untraced_us = r.sum("untraced_ns") / 1e3 / r.sum("untraced_jobs").max(1.0) * scale;
    let parse_s = r.sum("self.parse") / 1e9 * scale;
    let table_calls = r.sum("table_hits") + r.sum("table_misses");

    let mut s = String::new();
    let mut m = |name: &str, value: f64, unit: &str| metric(&mut s, name, value, unit);
    m("parse.us_per_job", us("parse"), "us");
    m(
        "parse.mb_per_s",
        r.sum("parse_bytes") / 1e6 / parse_s,
        "MB/s",
    );
    m("typeck.us_per_job", us("typeck"), "us");
    m("rewrite.us_per_job", us("rewrite"), "us");
    m("rewrite.steps_per_job", per_job("steps"), "count");
    m(
        "rewrite.nodes_visited_per_job",
        per_job("nodes_visited"),
        "count",
    );
    m(
        "rewrite.match_useful_ratio",
        frac("matched_steps", "match_attempts"),
        "ratio",
    );
    m(
        "rewrite.rule_nf_hit_ratio",
        frac("rule_nf_hits", "rule_nf_lookups"),
        "ratio",
    );
    m(
        "rewrite.root_memo_hit_ratio",
        frac("root_memo_hits", "root_memo_lookups"),
        "ratio",
    );
    m(
        "rewrite.canon_hit_ratio",
        frac("canon_hits", "canon_lookups"),
        "ratio",
    );
    m("eval.us_per_job", us("eval"), "us");
    m("solve.us_per_job", us("solve"), "us");
    let table_hit_ratio = if table_calls == 0.0 {
        0.0
    } else {
        r.sum("table_hits") / table_calls
    };
    m("solve.table_hit_ratio", table_hit_ratio, "ratio");
    m(
        "solve.table_variant_misses_per_job",
        per_job("table_misses"),
        "count",
    );
    m(
        "solve.table_answers_reused_per_job",
        per_job("answers_reused"),
        "count",
    );
    m("solve.cut_frac", frac("cuts", "solves"), "frac");
    m("decode.us_per_job", us("decode"), "us");
    m("print.us_per_job", us("print"), "us");
    m(
        "store.intern_lookups_per_job",
        per_job("intern_lookups"),
        "count",
    );
    m(
        "store.dedup_ratio",
        frac("intern_hits", "intern_lookups"),
        "ratio",
    );
    m("store.distinct_nodes_per_job", per_job("distinct"), "count");
    m("store.live_nodes", r.median("live_nodes"), "count");
    m("image.load_ms", r.median("image_load_ms") * scale, "ms");
    m("image.save_ms", r.median("image_save_ms") * scale, "ms");
    m("image.bytes", r.median("image_bytes"), "bytes");
    m(
        "image.entries_reloaded",
        r.median("image_reloaded"),
        "count",
    );
    m("image.entries_dropped", r.sum("image_dropped"), "count");
    m("analyze.cert_ms", r.median("cert_ms") * scale, "ms");
    m("failed_frac", frac("failed", "attempted"), "frac");
    m("trace.jobs_per_s", 1e6 / traced_us, "1/s");
    m("trace.untraced_jobs_per_s", 1e6 / untraced_us, "1/s");
    m("trace.overhead_frac", traced_us / untraced_us - 1.0, "frac");
    m("trace.glue_us_per_job", us("job"), "us");
    m("trace.glue_frac", us("job") / traced_us, "frac");
    m("host.probe_us", r.median("probe_ns") / 1e3, "us");
    s
}

/// Runs the measuring children one after another, round by round, and
/// collects their reports by child and round. On the reference host the
/// same child with the same inputs varies widely in speed from one
/// process to the next, as the host passes through slow phases lasting
/// seconds; a child's rounds are spread over the run so that some of them
/// fall outside those phases.
///
/// The core's clock rate is probed here before each child, where the code
/// under test cannot affect the probe.
fn run_children(args: &Args) -> Result<Vec<Vec<Reports>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let children = args.workload.children();
    let mut by_child: Vec<Vec<Reports>> = (0..children).map(|_| Vec::new()).collect();
    for (round, i) in (0..args.rounds()).flat_map(|r| (0..children).map(move |i| (r, i))) {
        let probe_ns = clock::clock_probe_ns() as f64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--child", &i.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("child {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "child {i} round {round} exited with {}",
                out.status
            ));
        }
        let mut child = Reports::parse(&String::from_utf8_lossy(&out.stdout))
            .ok_or(format!("child {i} round {round}: malformed report"))?;
        child.push("probe_ns", probe_ns);
        if !args.trace {
            println!(
                "# child {i} round {round}: clock probe {:.2} ms; {:.1} jobs per CPU second, {:.1} per wall second, p50 {:.1} us",
                probe_ns / 1e6,
                child.last("jobs_per_s"),
                child.last("wall_jobs_per_s"),
                child.last("p50_us")
            );
        }
        by_child[i as usize].push(child);
    }
    Ok(by_child)
}

fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let child = args.child.unwrap_or(0);
    let name = format!("spans-{}-{}-{child}.tsv", args.workload.name(), args.seed);
    let path = dir.join(name);
    let result = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write(
                &mut w,
                &format!(
                    "{} seed {} host {}",
                    args.workload.name(),
                    args.seed,
                    host_json()
                ),
            )?;
            std::io::Write::flush(&mut w)
        });
    if let Err(e) = result {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}

fn run_here(args: &Args) -> (Measured, Setup) {
    match args.workload {
        Workload::RewriteCold => run_rewrite(args, false),
        Workload::LpCold => run_lp(args),
        Workload::RewriteWarm => run_rewrite(args, true),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload rewrite-cold|lp-cold|rewrite-warm --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.child.is_some() {
        let (m, setup) = run_here(&args);
        if args.trace {
            write_spans(&args, &m.tracer);
            report_layers(&m, &setup);
        } else {
            report_timing(&m, &setup);
        }
        return ExitCode::SUCCESS;
    }
    println!("# host {}", host_json());
    let by_child = match run_children(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Reports::default();
    for child in by_child.iter().flatten() {
        reports.merge(child);
    }
    let (attempted, failed) = (
        reports.sum("attempted") as u64,
        reports.sum("failed") as u64,
    );
    let scale = REF_PROBE_NS / reports.median("probe_ns");
    let metrics = if args.trace {
        println!(
            "# spans: {}/out/spans-{}-{}-*.tsv",
            env!("CARGO_MANIFEST_DIR"),
            args.workload.name(),
            args.seed
        );
        per_layer(&reports, scale)
    } else {
        match end_to_end(&by_child, &reports, scale) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "# {} seed {}: {attempted} jobs, {failed} failed, failed_frac {}, imp jobs unchecked (both runs diverged) {}, repeated draws thrown away {}",
        args.workload.name(),
        args.seed,
        failed as f64 / attempted as f64,
        reports.sum("imp_unchecked"),
        reports.sum("redraws")
    );
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{metrics}}}}}"#,
        failed == 0
    );
    ExitCode::SUCCESS
}
