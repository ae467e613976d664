//! The harness's own spans: one around each call into a layer.
//!
//! A span is `(name, start, end, parent, scenario)`. Every call the
//! harness makes into the program goes through [`Recorder::span`], which
//! always times the call (the end-to-end metrics need the durations) and,
//! in a traced round, also keeps the span. Spans stay in memory and are
//! written once, at exit, as a Chrome trace-event file.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the recorder's origin.
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
    /// Scenario id; all spans of one scenario share it.
    pub scenario: String,
}

struct Inner {
    keep: bool,
    scenario: String,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
}

/// Span recorder of one process (single-threaded, like the program).
/// Clones share the store, so the simulation's root future can hold one.
#[derive(Clone)]
pub struct Recorder {
    origin: Instant,
    inner: Rc<RefCell<Inner>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            inner: Rc::new(RefCell::new(Inner {
                keep: false,
                scenario: String::new(),
                spans: Vec::new(),
                open: Vec::new(),
            })),
        }
    }

    /// Keep (traced round) or only time (untraced round) the spans that
    /// follow.
    pub fn set_keep(&self, keep: bool) {
        self.inner.borrow_mut().keep = keep;
    }

    /// Name the scenario the following spans belong to.
    pub fn set_scenario(&self, id: &str) {
        self.inner.borrow_mut().scenario = id.to_string();
    }

    /// Run `f` inside a span called `name`; returns its result and its
    /// duration.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let token = self.begin(name);
        let out = f();
        (out, self.end(token))
    }

    /// Open a span by hand, for a region that cannot be a closure (the
    /// set-up/run boundary lies inside the simulation's root future).
    pub fn begin(&self, name: &'static str) -> Open {
        let start = self.origin.elapsed();
        let mut inner = self.inner.borrow_mut();
        let index = inner.keep.then(|| {
            let parent = inner.open.last().copied();
            let scenario = inner.scenario.clone();
            inner.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                scenario,
            });
            let index = inner.spans.len() - 1;
            inner.open.push(index);
            index
        });
        Open { start, index }
    }

    /// Close a span opened with [`Recorder::begin`]; returns its duration.
    pub fn end(&self, open: Open) -> Duration {
        let end = self.origin.elapsed();
        if let Some(index) = open.index {
            let mut inner = self.inner.borrow_mut();
            inner.spans[index].end = end;
            // Also closes spans a panic inside this one left open.
            while inner.open.pop().is_some_and(|top| top != index) {}
        }
        end - open.start
    }

    /// Every kept span, in begin order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Handle of an open span.
pub struct Open {
    start: Duration,
    index: Option<usize>,
}

/// Self time of each span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Render spans as a Chrome trace-event JSON document (`ph: "X"` complete
/// events, microsecond timestamps; loadable in Perfetto and
/// `chrome://tracing`). `tid` is the scenario's ordinal so each scenario
/// gets its own row; `args` carries the parent index, the scenario id and
/// the self time.
pub fn to_chrome_trace(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut scenarios: Vec<&str> = Vec::new();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let tid = match scenarios.iter().position(|x| *x == s.scenario) {
            Some(t) => t,
            None => {
                scenarios.push(&s.scenario);
                scenarios.len() - 1
            }
        };
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"scenario\":\"{}\",\"self_us\":{:.3}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            tid,
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            i,
            parent,
            workload,
            s.scenario,
            own[i].as_secs_f64() * 1e6,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_time_but_keep_nothing() {
        let r = Recorder::new();
        let (v, d) = r.span("run", || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let r = Recorder::new();
        r.set_keep(true);
        r.set_scenario("s0");
        r.span("scenario", || {
            r.span("core.build", || {
                std::thread::sleep(Duration::from_millis(2))
            });
            r.span("run", || std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = self_times(&spans);
        let total = spans[0].end - spans[0].start;
        assert!(own[0] < total - Duration::from_millis(3));
        let json = to_chrome_trace("w", &spans);
        assert!(json.contains("\"name\":\"core.build\""));
        assert!(json.contains("\"scenario\":\"s0\""));
    }
}
