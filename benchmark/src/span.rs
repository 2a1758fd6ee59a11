//! In-memory spans recorded around the calls into each layer.
//!
//! The traced run opens one root span per candidate (or request) and one
//! child span per stage; nothing is written until the run ends.  A span's
//! self time is its duration minus the part its children cover.

use std::path::Path;
use std::time::Instant;

use atim_autotune::Json;

/// One timed interval: `layer` is the crate the call went into, `parent`
/// the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, parent: Option<u32>, name: &'static str, layer: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn timed<R>(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(parent, name, layer);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval that was timed elsewhere (after [`Spans::new`]).
    pub fn record(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open(parent, name, layer);
        let span = &mut self.spans[id as usize];
        span.start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        span.end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span, indexed by span id: the span's duration
    /// minus the durations of its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        self_ns(&self.spans)
    }

    /// Writes `{"workload": .., "spans": [{id, parent, name, layer,
    /// start_ns, end_ns, self_ns}]}`.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Int(i64::from(s.id))),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                    ),
                    ("name".into(), Json::Str(s.name.into())),
                    ("layer".into(), Json::Str(s.layer.into())),
                    ("start_ns".into(), Json::Int(s.start_ns as i64)),
                    ("end_ns".into(), Json::Int(s.end_ns as i64)),
                    ("self_ns".into(), Json::Int(self_ns[s.id as usize] as i64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("spans".into(), Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.to_string())
    }
}

fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] = out[p as usize].saturating_sub(s.duration_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, 0, 100),    // root: 100 - (30 + 50) = 20
            span(1, Some(0), 10, 40), // 30 - 10 = 20
            span(2, Some(1), 15, 25), // leaf: 10
            span(3, Some(0), 40, 90), // leaf: 50
            span(4, None, 100, 130),  // childless root: 30
        ];
        assert_eq!(self_ns(&spans), vec![20, 20, 10, 50, 30]);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut spans = Spans::new();
        let root = spans.open(None, "candidate", "core");
        let v = spans.timed(Some(root), "stage", "tir", || 7);
        spans.close(root);
        assert_eq!(v, 7);
        let all = &spans.spans;
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(root));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        let own = spans.self_ns();
        assert_eq!(own[0], all[0].duration_ns() - all[1].duration_ns());
        assert_eq!(spans.durations_us("stage").len(), 1);
    }
}
