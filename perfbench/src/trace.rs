//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer of the program: name, start, end, the span that was open when it
//! started (its parent), and the id of the campaign or job it belongs to.
//! Nothing is written while the run measures; [`Recorder::write_jsonl`]
//! dumps every span at the end.
//!
//! The recorder is single-threaded by design: the traced replica runs one
//! injection at a time, so spans nest strictly and tile the run.

use hauberk_telemetry::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this span covers, e.g. `sim.launch`.
    pub name: &'static str,
    /// Start, ns since the recorder origin.
    pub start_ns: u64,
    /// End, ns since the recorder origin (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Campaign or job the span belongs to.
    pub id: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled recorder takes no timestamps at all, which is
/// what the tracing-overhead comparison runs against.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration not covered by child spans).
    pub self_ns: u64,
}

impl Recorder {
    /// New recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            id,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span and return its duration in ns
    /// (0 when disabled).
    pub fn exit(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Run `f` inside a span; returns `f`'s value and the span's duration.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name, id);
        let v = f();
        let ns = self.exit();
        (v, ns)
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name, over the spans `keep`
    /// accepts.
    pub fn totals_by_name(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            if !keep(s) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations (ns) of the spans named `name` owned by one of `ids`
    /// (every owner when `ids` is empty), in start order.
    pub fn durations(&self, name: &str, ids: &[u64]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (ids.is_empty() || ids.contains(&s.id)))
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Append every span as one JSON line to `out`: name, start, end,
    /// duration, self time, span index, parent index and owner id.
    pub fn write_jsonl(&self, out: &mut String, run: &str) {
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let doc = Json::obj([
                ("run", Json::str(run)),
                ("span", Json::uint(i as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                ),
                ("name", Json::str(s.name)),
                ("id", Json::uint(s.id)),
                ("start_ns", Json::uint(s.start_ns)),
                ("end_ns", Json::uint(s.end_ns)),
                ("dur_ns", Json::uint(s.dur_ns())),
                ("self_ns", Json::uint(self_ns)),
            ]);
            out.push_str(&doc.to_string());
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 7,
        }
    }

    fn recorder_with(spans: Vec<Span>) -> Recorder {
        let mut r = Recorder::new(true);
        r.spans = spans;
        r
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping) and a
        // grandchild [12,18) inside the first child.
        let r = recorder_with(vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("a.x", 12, 18, Some(1)),
        ]);
        assert_eq!(r.self_times(), vec![60, 14, 30, 6]);
        let totals = r.totals_by_name(|_| true);
        assert_eq!(totals["root"].self_ns, 60);
        assert!(!r.totals_by_name(|s| s.name != "a").contains_key("a"));
        assert_eq!(totals["a"].total_ns, 20);
        assert_eq!(totals["a.x"].count, 1);
    }

    #[test]
    fn self_times_of_tiling_children_sum_to_the_root() {
        let r = recorder_with(vec![
            span("root", 0, 90, None),
            span("c", 0, 30, Some(0)),
            span("c", 30, 60, Some(0)),
            span("c", 60, 90, Some(0)),
        ]);
        let st = r.self_times();
        assert_eq!(st[0], 0, "children tile the root");
        assert_eq!(st.iter().sum::<u64>(), 90);
        assert_eq!(r.durations("c", &[]), vec![30.0, 30.0, 30.0]);
        assert_eq!(r.durations("c", &[7]).len(), 3);
        assert!(r.durations("c", &[8]).is_empty());
    }

    #[test]
    fn live_spans_nest_through_enter_and_exit() {
        let mut r = Recorder::new(true);
        r.enter("outer", 1);
        let (v, inner_ns) = r.time("inner", 1, || 41 + 1);
        let outer_ns = r.exit();
        assert_eq!(v, 42);
        assert!(outer_ns >= inner_ns);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        let mut out = String::new();
        r.write_jsonl(&mut out, "t");
        assert_eq!(out.lines().count(), 2);
        let line = hauberk_telemetry::json::parse(out.lines().nth(1).unwrap()).unwrap();
        assert_eq!(line.get("name").and_then(|n| n.as_str()), Some("inner"));
        assert_eq!(line.get("parent").and_then(|p| p.as_u64()), Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let (v, ns) = r.time("x", 0, || 5);
        assert_eq!((v, ns), (5, 0));
        assert!(r.spans.is_empty());
    }
}
