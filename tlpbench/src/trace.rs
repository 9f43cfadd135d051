//! Folding a recorded trace into per-layer durations, self times and
//! counters.
//!
//! The benchmark opens one span around each call it makes into a layer's
//! public function (`graph.parse`, `store.open`, `pipeline.run`, ...), all
//! under one `workload` span per run. The program's own spans (`run`,
//! `trial`, `round`, `pass`) and counters land inside them. A span's self
//! time is its duration minus the durations of its direct children; spans
//! recorded on one thread nest, so the self times of a tree sum to the
//! duration of its root.

use std::collections::BTreeMap;
use tlp_obs::{Event, EventKind};

/// One closed span of the folded trace.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// Wall-clock duration in microseconds.
    pub dur_us: i64,
    /// Duration minus the durations of the direct children.
    pub self_us: i64,
}

/// A counter increment, attributed to the innermost span open at the time.
#[derive(Clone, Debug)]
struct CounterHit {
    span: Option<usize>,
    name: String,
    delta: u64,
}

/// A folded trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Every span, in open order.
    pub spans: Vec<SpanNode>,
    counters: Vec<CounterHit>,
}

/// Self-time table row: one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: String,
    /// Spans of this name.
    pub count: usize,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed self time, milliseconds.
    pub self_ms: f64,
}

impl Trace {
    /// Folds an event stream. Parents come from the fold's own open-span
    /// stack, which also places spans replayed out of a worker's recording
    /// under the span that replayed them.
    pub fn fold(events: &[Event]) -> Trace {
        let mut trace = Trace::default();
        let mut stack: Vec<usize> = Vec::new();
        let mut index: BTreeMap<(Option<u32>, u64), usize> = BTreeMap::new();
        for event in events {
            match &event.kind {
                EventKind::SpanOpen { id, name, .. } => {
                    let at = trace.spans.len();
                    trace.spans.push(SpanNode {
                        name: name.clone(),
                        parent: stack.last().copied(),
                        dur_us: 0,
                        self_us: 0,
                    });
                    index.insert((event.trial, *id), at);
                    stack.push(at);
                }
                EventKind::SpanClose { id, dur_us } => {
                    if let Some(at) = index.remove(&(event.trial, *id)) {
                        trace.spans[at].dur_us = dur_us.map_or(0, |d| d as i64);
                        while let Some(top) = stack.pop() {
                            if top == at {
                                break;
                            }
                        }
                    }
                }
                EventKind::Counter { name, delta } => trace.counters.push(CounterHit {
                    span: stack.last().copied(),
                    name: name.clone(),
                    delta: *delta,
                }),
                EventKind::Gauge { .. } => {}
            }
        }
        for at in 0..trace.spans.len() {
            trace.spans[at].self_us += trace.spans[at].dur_us;
            if let Some(parent) = trace.spans[at].parent {
                trace.spans[parent].self_us -= trace.spans[at].dur_us;
            }
        }
        trace
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e3)
            .collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// True when span `at` is, or lies inside, a span named `name`.
    fn within(&self, mut at: usize, name: &str) -> bool {
        loop {
            if self.spans[at].name == name {
                return true;
            }
            match self.spans[at].parent {
                Some(parent) => at = parent,
                None => return false,
            }
        }
    }

    /// Sum of counter `counter` over increments made inside a span named
    /// `under`. A name ending in `.` sums the whole family under it
    /// (`"kernel.count."` covers `kernel.count.mark`, `kernel.count.gallop`,
    /// ...).
    pub fn counter_under(&self, counter: &str, under: &str) -> u64 {
        let family = counter.ends_with('.');
        let matches = |name: &str| name == counter || (family && name.starts_with(counter));
        self.counters
            .iter()
            .filter(|hit| matches(&hit.name))
            .filter(|hit| hit.span.is_some_and(|at| self.within(at, under)))
            .map(|hit| hit.delta)
            .sum()
    }

    /// Per-name totals and self times, largest self time first.
    pub fn self_times(&self) -> Vec<SelfTimeRow> {
        let mut rows: BTreeMap<&str, SelfTimeRow> = BTreeMap::new();
        for span in &self.spans {
            let row = rows.entry(&span.name).or_insert_with(|| SelfTimeRow {
                name: span.name.clone(),
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            row.count += 1;
            row.total_ms += span.dur_us as f64 / 1e3;
            row.self_ms += span.self_us as f64 / 1e3;
        }
        let mut rows: Vec<SelfTimeRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        rows
    }

    /// The self-time table as aligned text, one line per span name.
    pub fn render_self_times(&self) -> String {
        let mut out = format!(
            "{:<24} {:>7} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for row in self.self_times() {
            out.push_str(&format!(
                "{:<24} {:>7} {:>12.3} {:>12.3}\n",
                row.name, row.count, row.total_ms, row.self_ms
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let ((), events) = tlp_obs::with_recording(|| {
            let _root = tlp_obs::span("workload");
            {
                let _a = tlp_obs::span("a");
                tlp_obs::counter("hits", 2);
                let _b = tlp_obs::span("b");
                tlp_obs::counter("hits", 3);
                tlp_obs::counter("hits.extra", 4);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            tlp_obs::counter("hits", 5);
        });
        let trace = Trace::fold(&events);
        assert_eq!(trace.spans.len(), 3);
        let root = &trace.spans[0];
        assert_eq!(root.parent, None);
        assert_eq!(trace.spans[2].parent, Some(1));
        for (at, span) in trace.spans.iter().enumerate() {
            let children: i64 = trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(at))
                .map(|s| s.dur_us)
                .sum();
            assert_eq!(span.self_us, span.dur_us - children);
        }
        let total_self: i64 = trace.spans.iter().map(|s| s.self_us).sum();
        assert_eq!(total_self, root.dur_us);
        assert_eq!(trace.counter_under("hits", "a"), 5);
        assert_eq!(trace.counter_under("hits", "b"), 3);
        assert_eq!(trace.counter_under("hits", "workload"), 10);
        assert_eq!(trace.counter_under("hits.", "workload"), 4);
    }
}
