//! Bench-side spans: wall-clock intervals recorded around calls into each
//! layer's public functions, kept in memory and summarised at the end.
//!
//! The client is one thread, so spans nest strictly: a span's *self time*
//! is its duration minus the durations of its direct children. A root
//! span per traced iteration makes its own self time the unattributed
//! remainder.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span recorder. When off, [`Spans::span`] just runs its closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

/// Per-name totals over every recorded span of that name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, epoch: Instant::now(), spans: Vec::new(), open: None }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the open span).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.open });
        let parent = self.open.replace(id);
        let out = f(self);
        self.open = parent;
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Totals by span name, in name order.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Inclusive seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum::<f64>()
            + 0.0 // an empty f64 sum is -0.0
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
