//! In-memory spans and counts for `bench_trace`.
//!
//! A span is opened at a layer boundary (around a call into a crate's
//! public function) and closed when its guard drops; the span open at
//! that moment is its parent. Counts are recorded at the same
//! boundaries. Nothing is written until the run ends. Single-threaded:
//! the traced run is pinned to one thread like every other run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: &'static str,
    rep: usize,
    item: Option<usize>,
    start: f64,
    end: f64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
    counts: BTreeMap<&'static str, f64>,
}

/// The recorder of one run.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.clock();
        let mut s = self.tracer.state.borrow_mut();
        s.spans[self.index].end = now;
        let top = s.open.pop();
        debug_assert_eq!(top, Some(self.index), "spans close in stack order");
    }
}

impl Tracer {
    /// An empty recorder; times are seconds since this call.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            state: RefCell::default(),
        }
    }

    /// Seconds since the recorder was created.
    pub fn clock(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Sets the repetition number stamped on spans opened from now on.
    pub fn set_rep(&self, rep: usize) {
        self.state.borrow_mut().rep = rep;
    }

    /// Opens a span under the currently open one. `item` is the
    /// subdomain (or request) the span works on, when there is one.
    pub fn span(&self, name: &'static str, item: Option<usize>) -> Guard<'_> {
        let start = self.clock();
        let mut s = self.state.borrow_mut();
        let index = s.spans.len();
        let (parent, rep) = (s.open.last().copied(), s.rep);
        s.spans.push(Span {
            parent,
            name,
            rep,
            item,
            start,
            end: start,
        });
        s.open.push(index);
        Guard {
            tracer: self,
            index,
        }
    }

    /// Records a finished span from timings taken elsewhere (the
    /// daemon's own queue and solve times, reported in its replies).
    pub fn closed_span(&self, name: &'static str, item: Option<usize>, start: f64, seconds: f64) {
        let mut s = self.state.borrow_mut();
        let (parent, rep) = (s.open.last().copied(), s.rep);
        s.spans.push(Span {
            parent,
            name,
            rep,
            item,
            start,
            end: start + seconds,
        });
    }

    /// Sets a count (or any number recorded once at a boundary).
    pub fn count(&self, name: &'static str, value: f64) {
        self.state.borrow_mut().counts.insert(name, value);
    }

    /// Adds to a count.
    pub fn add(&self, name: &'static str, value: f64) {
        *self.state.borrow_mut().counts.entry(name).or_insert(0.0) += value;
    }

    /// A count's value, 0 when never recorded (a layer that is not on
    /// this workload's path).
    pub fn counted(&self, name: &str) -> f64 {
        self.state.borrow().counts.get(name).copied().unwrap_or(0.0)
    }

    /// Per repetition after the warm-up (repetition 0), folds the
    /// durations of the spans called `name`; returns the best (smallest)
    /// repetition, like every timing of the benchmark. 0 when no such
    /// span was recorded.
    fn best_over_reps(&self, name: &str, fold: fn(f64, f64) -> f64) -> f64 {
        let s = self.state.borrow();
        let mut by_rep: BTreeMap<usize, f64> = BTreeMap::new();
        for span in s.spans.iter().filter(|sp| sp.name == name && sp.rep > 0) {
            let e = by_rep.entry(span.rep).or_insert(0.0);
            *e = fold(*e, span.end - span.start);
        }
        by_rep.into_values().reduce(f64::min).unwrap_or(0.0)
    }

    /// Time spent in spans called `name` during one repetition.
    pub fn best_total(&self, name: &str) -> f64 {
        self.best_over_reps(name, |a, b| a + b)
    }

    /// Longest single span called `name` during one repetition (the
    /// slowest subdomain of a phase).
    pub fn best_max(&self, name: &str) -> f64 {
        self.best_over_reps(name, f64::max)
    }

    /// Writes one JSON object per span, then one with the counts. A
    /// span's `self` is its duration minus the part of that interval its
    /// child spans cover.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let s = self.state.borrow();
        let mut child_time = vec![0.0; s.spans.len()];
        for span in &s.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in s.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"rep\":{},\
                 \"item\":{},\"start\":{:.9},\"end\":{:.9},\"self\":{:.9}}}",
                opt(span.parent),
                span.name,
                self.workload,
                span.rep,
                opt(span.item),
                span.start,
                span.end,
                span.end - span.start - child_time[id]
            )?;
        }
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(
            out,
            "{{\"workload\":\"{}\",\"counts\":{{{}}}}}",
            self.workload,
            counts.join(",")
        )?;
        out.flush()
    }
}
