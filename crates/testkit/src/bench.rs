//! A minimal wall-clock micro-benchmark harness with a Criterion-shaped
//! API, so the workspace's `harness = false` bench targets port by
//! swapping one `use` line.
//!
//! Measurement model: each benchmark is warmed up, then timed over
//! `sample_size` samples; a sample runs the closure in a batch sized so
//! one sample takes ≳ [`MIN_SAMPLE_TIME`] (adaptive batching keeps
//! nanosecond-scale benchmarks measurable). Reported numbers are per-call
//! min / median / mean.
//!
//! Output: one human-readable line per benchmark on stdout, and a count
//! at [`Criterion::final_summary`] time (called by the `criterion_main!`
//! replacement).
//!
//! Running under `cargo test --benches` passes `--test`; the harness
//! detects it and switches to a smoke run (one batch of one iteration) so
//! test sweeps stay fast.

use std::time::{Duration, Instant};

/// Target minimum duration of one measurement sample.
pub const MIN_SAMPLE_TIME: Duration = Duration::from_millis(2);

/// Re-export so benches can `black_box` without naming `std::hint`.
pub use std::hint::black_box;

/// A benchmark identifier `group/function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id from a function name and a parameter (rendered with
    /// `Display`).
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { name: s }
    }
}

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Full id `group/function/parameter`.
    pub id: String,
    /// Per-call minimum.
    pub min: Duration,
    /// Per-call median.
    pub median: Duration,
    /// Per-call mean.
    pub mean: Duration,
    /// Total calls measured (samples × batch).
    pub iterations: u64,
}

/// The harness root: collects results across groups.
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
    smoke: bool,
}

impl Criterion {
    /// A fresh harness. Smoke mode (single iteration, no timing loops) is
    /// enabled when the process was launched with `--test`, as
    /// `cargo test --benches` does.
    pub fn new() -> Criterion {
        Criterion {
            results: Vec::new(),
            smoke: std::env::args().any(|a| a == "--test"),
        }
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup<'_> {
        BenchGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Prints the closing summary. Called by the `criterion_main!`
    /// replacement after all groups ran.
    pub fn final_summary(&self) {
        println!("# {} benchmarks measured", self.results.len());
    }

    /// All results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A group of related benchmarks sharing a name prefix and sample count.
pub struct BenchGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks a closure that receives the given input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().name);
        // Start every benchmark from a trimmed term store so one
        // workload's dead-class cache doesn't skew the heap state (and
        // allocator behavior) another workload is measured under.
        hoas_core::store::trim();
        let mut b = Bencher::new(self.sample_size, self.criterion.smoke);
        f(&mut b, input);
        self.record(full, b);
        self
    }

    /// Benchmarks a closure with no input.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().name);
        hoas_core::store::trim();
        let mut b = Bencher::new(self.sample_size, self.criterion.smoke);
        f(&mut b);
        self.record(full, b);
        self
    }

    fn record(&mut self, id: String, b: Bencher) {
        if let Some(r) = b.into_result(id) {
            println!(
                "{:<56} min {:>12} median {:>12} mean {:>12} ({} iters)",
                r.id,
                fmt_ns(r.min),
                fmt_ns(r.median),
                fmt_ns(r.mean),
                r.iterations
            );
            self.criterion.results.push(r);
        }
    }

    /// Ends the group (kept for API compatibility; results are recorded
    /// eagerly).
    pub fn finish(&mut self) {}
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Runs and times one benchmark body.
pub struct Bencher {
    sample_size: usize,
    smoke: bool,
    samples: Option<Vec<Duration>>, // per-call durations
    iterations: u64,
}

impl Bencher {
    fn new(sample_size: usize, smoke: bool) -> Bencher {
        Bencher {
            sample_size,
            smoke,
            samples: None,
            iterations: 0,
        }
    }

    /// Times the closure. Warmup, then `sample_size` samples of an
    /// adaptively sized batch; per-call durations are recorded.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.smoke {
            black_box(f());
            self.samples = Some(vec![Duration::ZERO]);
            self.iterations = 1;
            return;
        }
        // Warmup + batch size estimation: grow the batch until one batch
        // takes at least MIN_SAMPLE_TIME.
        let mut batch: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= MIN_SAMPLE_TIME || batch >= 1 << 20 {
                break;
            }
            // Aim past the threshold with headroom.
            let scale = (MIN_SAMPLE_TIME.as_nanos() as u64)
                .saturating_div(elapsed.as_nanos().max(1) as u64)
                .clamp(2, 1024);
            batch = batch.saturating_mul(scale).min(1 << 20);
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t0.elapsed() / batch as u32);
        }
        self.iterations = batch * self.sample_size as u64;
        self.samples = Some(samples);
    }

    fn into_result(self, id: String) -> Option<BenchResult> {
        let mut samples = self.samples?;
        samples.sort_unstable();
        let min = *samples.first()?;
        let median = samples[samples.len() / 2];
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        Some(BenchResult {
            id,
            min,
            median,
            mean,
            iterations: self.iterations,
        })
    }
}

/// Declares a group of benchmark functions, Criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the benchmark `main`, Criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::new();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("unit");
        g.sample_size(3);
        g.bench_function("spin", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..1000u64 {
                    acc = acc.wrapping_add(black_box(i));
                }
                acc
            })
        });
        g.finish();
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        assert_eq!(r.id, "unit/spin");
        assert!(r.min <= r.median && r.median <= r.mean * 2);
        assert!(r.iterations >= 3);
    }

    #[test]
    fn bench_with_input_passes_input_through() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("inputs");
        g.sample_size(2);
        let data = vec![1u64, 2, 3];
        g.bench_with_input(BenchmarkId::new("sum", data.len()), &data, |b, d| {
            b.iter(|| d.iter().sum::<u64>())
        });
        g.finish();
        assert_eq!(c.results()[0].id, "inputs/sum/3");
    }
}
