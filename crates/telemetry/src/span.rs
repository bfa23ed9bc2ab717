//! Hierarchical tracing spans over the event pipeline.
//!
//! A span is a named, timed region of work with a process-unique id and a
//! parent id, so the spans of one campaign reassemble into a tree: the
//! serve daemon opens a root `campaign` span carrying the request's trace
//! id, the orchestrator nests `stratum` and `unit` spans under it, and the
//! simulator nests a `launch` span per kernel launch. Spans ride the
//! existing [`TelemetrySink`](crate::TelemetrySink) pipeline as ordinary
//! [`Event::Span`](crate::Event) records, emitted when the span
//! *closes* (children therefore appear before their parents in a JSONL
//! trace; consumers rebuild the tree from ids, not line order).
//!
//! Parenting is implicit through a thread-local: opening a span installs
//! its id as the thread's current span, and closing it restores the
//! previous one. Rayon moves work across threads, so the thread-local does
//! not follow automatically — the orchestrator wraps each parallel closure
//! in [`with_parent`] to re-install the owning unit's span id on whichever
//! worker thread picks the closure up.
//!
//! Cost model: a disabled pipeline (or [`Telemetry::with_spans`]`(false)`)
//! returns an inert guard after a single branch — no id allocation, no
//! clock read, no thread-local write. `interp_bench` prices it as the
//! `spans_on` over `spans_off` pair of its telemetry section, against the
//! observability acceptance bar of 1%; that harness's round-to-round spread
//! is wider than 1%, so it shows the cost within noise but does not resolve
//! the bar.

use crate::{Event, Telemetry};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique span id (never 0; 0 means "no span").
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Process start used as the epoch for span `start_us` timestamps; spans
/// from one process are mutually orderable, not wall-clock absolute.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The span currently open on this thread (0 when none).
pub fn current_span() -> u64 {
    CURRENT_SPAN.with(Cell::get)
}

/// Run `f` with `parent` installed as this thread's current span, restoring
/// the previous value afterwards (also on panic, so a poisoned rayon worker
/// does not leak a stale parent into later work units).
pub fn with_parent<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_SPAN.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_SPAN.with(|c| c.replace(parent)));
    f()
}

/// An open span's state; owned by the guard, emitted on drop.
#[derive(Debug)]
struct ActiveSpan {
    tele: Telemetry,
    name: &'static str,
    id: u64,
    parent: u64,
    trace: Option<String>,
    start: Instant,
    start_us: u64,
    attrs: Vec<(&'static str, String)>,
}

/// RAII guard for one span: created by [`Telemetry::span`], emits an
/// [`Event::Span`] when dropped. When the pipeline is disabled the guard is
/// inert — every method is a no-op after one branch.
#[derive(Debug)]
#[must_use = "a span measures the region until the guard drops"]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl SpanGuard {
    /// A guard that records nothing (what a disabled pipeline hands out).
    pub fn inert() -> Self {
        SpanGuard { inner: None }
    }

    /// Whether this span is actually recording.
    #[inline]
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id (0 when inert) — pass it through [`with_parent`] to
    /// re-parent work that crosses a thread boundary.
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |a| a.id)
    }

    /// Attach an attribute (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(a) = self.inner.as_mut() {
            a.attrs.push((key, value.into()));
        }
    }

    /// Attach an attribute built lazily — `build` runs only when the span
    /// is recording, so formatting stays off the disabled path.
    pub fn attr_with(&mut self, key: &'static str, build: impl FnOnce() -> String) {
        if let Some(a) = self.inner.as_mut() {
            let v = build();
            a.attrs.push((key, v));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.inner.take() {
            CURRENT_SPAN.with(|c| c.set(a.parent));
            a.tele.emit(&Event::Span {
                name: a.name,
                id: a.id,
                parent: a.parent,
                trace: a.trace,
                start_us: a.start_us,
                dur_ns: a.start.elapsed().as_nanos() as u64,
                attrs: a.attrs,
            });
        }
    }
}

impl Telemetry {
    /// Whether spans should be recorded.
    #[inline]
    pub fn span_enabled(&self) -> bool {
        self.enabled() && self.spans()
    }

    /// Open a span named `name`, parented to this thread's current span.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_traced(name, None)
    }

    /// Open a span carrying a correlation trace id — used for the root of
    /// a request's tree; descendants inherit correlation through parent
    /// ids, not by repeating the trace on every span.
    pub fn span_traced(&self, name: &'static str, trace: Option<String>) -> SpanGuard {
        if !self.span_enabled() {
            return SpanGuard::inert();
        }
        let id = next_span_id();
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        SpanGuard {
            inner: Some(ActiveSpan {
                tele: self.clone(),
                name,
                id,
                parent,
                trace,
                start: Instant::now(),
                start_us: epoch().elapsed().as_micros() as u64,
                attrs: Vec::new(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, NullSink};
    use std::sync::Arc;

    fn span_events(sink: &MemorySink) -> Vec<Event> {
        sink.events()
            .into_iter()
            .filter(|e| matches!(e, Event::Span { .. }))
            .collect()
    }

    #[test]
    fn nested_spans_parent_each_other() {
        let sink = Arc::new(MemorySink::unbounded());
        let t = Telemetry::new(sink.clone());
        let outer_id;
        {
            let outer = t.span("campaign");
            outer_id = outer.id();
            assert!(outer.active());
            assert_eq!(current_span(), outer_id);
            {
                let mut inner = t.span("unit");
                inner.attr("chunk", "3");
                assert_eq!(current_span(), inner.id());
            }
            assert_eq!(current_span(), outer_id, "inner close restores outer");
        }
        assert_eq!(current_span(), 0);
        let evs = span_events(&sink);
        assert_eq!(evs.len(), 2);
        // Children close (and therefore emit) before parents.
        match (&evs[0], &evs[1]) {
            (
                Event::Span {
                    name: n0,
                    parent: p0,
                    attrs,
                    ..
                },
                Event::Span {
                    name: n1,
                    id: id1,
                    parent: p1,
                    ..
                },
            ) => {
                assert_eq!(*n0, "unit");
                assert_eq!(*n1, "campaign");
                assert_eq!(*id1, outer_id);
                assert_eq!(*p0, outer_id);
                assert_eq!(*p1, 0);
                assert_eq!(attrs, &vec![("chunk", "3".to_string())]);
            }
            other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn disabled_pipeline_hands_out_inert_guards() {
        let t = Telemetry::new(Arc::new(NullSink));
        let mut g = t.span_traced("campaign", Some("deadbeef".into()));
        assert!(!g.active());
        assert_eq!(g.id(), 0);
        let mut built = false;
        g.attr_with("expensive", || {
            built = true;
            "x".into()
        });
        assert!(!built, "inert spans must not build attributes");
        assert_eq!(current_span(), 0, "inert spans must not touch the TLS");
    }

    #[test]
    fn spans_toggle_is_independent_of_events() {
        let sink = Arc::new(MemorySink::unbounded());
        let t = Telemetry::new(sink.clone()).with_spans(false);
        assert!(t.enabled());
        assert!(!t.span_enabled());
        let _g = t.span("campaign");
        drop(_g);
        assert!(span_events(&sink).is_empty());
    }

    #[test]
    fn with_parent_restores_on_panic() {
        let before = current_span();
        let r = std::panic::catch_unwind(|| {
            with_parent(42, || {
                assert_eq!(current_span(), 42);
                panic!("worker dies");
            })
        });
        assert!(r.is_err());
        assert_eq!(current_span(), before);
    }

    #[test]
    fn trace_rides_only_the_root() {
        let sink = Arc::new(MemorySink::unbounded());
        let t = Telemetry::new(sink.clone());
        {
            let root = t.span_traced("campaign", Some("cafe0001".into()));
            let _ = root.id();
            let _child = t.span("stratum");
        }
        let evs = span_events(&sink);
        let traces: Vec<Option<&String>> = evs
            .iter()
            .map(|e| match e {
                Event::Span { trace, .. } => trace.as_ref(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(traces[0], None, "child carries no trace");
        assert_eq!(traces[1].map(String::as_str), Some("cafe0001"));
    }
}
