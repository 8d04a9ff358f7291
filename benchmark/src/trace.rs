//! Spans recorded by the harness around its calls into each layer.
//!
//! The benchmark changes nothing outside its own directory, so every span
//! is taken *from outside*: around a job, a query, or — for distributed
//! jobs — around the phase times the job's public `MiningMetrics` report.
//! Spans stay in memory while rounds run and are written out once, at
//! exit.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    /// The round the span belongs to: spans of one round share it.
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with a stack of open spans: a span begun while
/// another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, round: u32) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            round,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records an already-measured phase of `parent` — `nanos` long,
    /// starting `offset_ns` into the parent — as a closed child span. Used
    /// for the map and reduce phases a distributed job reports about
    /// itself; clipped to the parent so a phase clock that disagrees with
    /// ours by a few microseconds cannot escape it.
    pub fn phase(&mut self, parent: u32, name: &str, offset_ns: u64, nanos: u64) -> u32 {
        let p = &self.spans[parent as usize];
        let (round, lo, hi) = (p.round, p.start_ns, p.end_ns);
        let start_ns = (lo + offset_ns).min(hi);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_string(),
            round,
            start_ns,
            end_ns: (start_ns + nanos).min(hi),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once).
    pub fn self_nanos(&self, id: u32) -> u64 {
        self_nanos(&self.spans, id)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("name", Json::str(&s.name)),
                        ("round", Json::Num(f64::from(s.round))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self.self_nanos(s.id) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

pub fn self_nanos(spans: &[Span], id: u32) -> u64 {
    let span = &spans[id as usize];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (lo, hi) in children {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    span.nanos() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            round: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(0, None, 100, 1100),     // 1000 long
            span(1, Some(0), 100, 400),   // covers 300
            span(2, Some(0), 300, 600),   // overlaps 1: adds 200
            span(3, Some(0), 800, 1300),  // sticks out: clipped to 300
            span(4, Some(1), 150, 250),   // a grandchild does not count twice
            span(5, Some(0), 1000, 1000), // empty
        ];
        assert_eq!(self_nanos(&spans, 0), 1000 - 300 - 200 - 300);
        assert_eq!(self_nanos(&spans, 1), 300 - 100);
        assert_eq!(self_nanos(&spans, 4), 100);
    }

    #[test]
    fn nesting_follows_begin_and_end_and_phases_stay_inside_their_parent() {
        let mut t = Tracer::new();
        let round = t.begin("round", 7);
        let job = t.begin("job", 7);
        t.end(job);
        let next = t.begin("job", 7);
        t.end(next);
        t.end(round);
        let far = t.spans()[next as usize].nanos() + 1_000_000;
        let phase = t.phase(next, "map", 0, far);
        let spans = t.spans();
        assert_eq!(spans[round as usize].parent, None);
        assert_eq!(spans[job as usize].parent, Some(round));
        assert_eq!(spans[next as usize].parent, Some(round));
        assert_eq!(spans[phase as usize].parent, Some(next));
        assert_eq!(spans[phase as usize].round, 7);
        assert_eq!(spans[phase as usize].end_ns, spans[next as usize].end_ns);
        assert_eq!(t.self_nanos(next), 0);
        assert!(spans[round as usize].nanos() >= spans[job as usize].nanos());
    }
}
