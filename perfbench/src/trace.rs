//! Opt-in layer spans, recorded from outside the layers.
//!
//! A traced job gets one span for itself and one child span per layer
//! call it makes (`parse`, `typeck`, `rewrite`, `eval`, `solve`,
//! `decode`, `print`). Spans stay in memory and are written out when the
//! run ends. With tracing off, [`Tracer::layer`] is a plain call. Span
//! times are read from the thread CPU clock, like job latencies.

use crate::clock::thread_cpu_ns;
use std::io::{self, Write};

/// One recorded span. Times are thread CPU nanoseconds since the tracer's
/// origin.
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    /// Index of the parent span, or `None` for a job span.
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    pub on: bool,
    origin: u64,
    pub spans: Vec<Span>,
    job: u32,
    parent: Option<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: thread_cpu_ns(),
            spans: Vec::new(),
            job: 0,
            parent: None,
        }
    }

    fn ns(&self, t: u64) -> u64 {
        t - self.origin
    }

    /// Opens the span of job `job`: the layer spans recorded until
    /// [`Tracer::end_job`] are its children. The caller times the job and
    /// hands the times to `end_job`.
    pub fn begin_job(&mut self, job: u32) {
        if self.on {
            self.job = job;
            self.parent = Some(self.spans.len() as u32);
            self.spans.push(Span {
                name: "job",
                job,
                parent: None,
                start: 0,
                end: 0,
            });
        }
    }

    pub fn end_job(&mut self, start: u64, end: u64) {
        if let Some(p) = self.parent.take() {
            let (s, e) = (self.ns(start), self.ns(end));
            let span = &mut self.spans[p as usize];
            span.start = s;
            span.end = e;
        }
    }

    /// Runs one layer call, recording its span when tracing is on.
    #[inline]
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = thread_cpu_ns();
        let r = f();
        let end = thread_cpu_ns();
        let span = Span {
            name,
            job: self.job,
            parent: self.parent,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.push(span);
        r
    }

    /// Self time per span: its duration minus the part its children
    /// cover (children of one span never overlap: the benchmark is a single
    /// thread).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.nanos());
            }
        }
        own
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, out: &mut impl Write, header: &str) -> io::Result<()> {
        writeln!(out, "# {header}")?;
        writeln!(out, "span\tparent\tjob\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.job, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}
