//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions: name, start, end, parent span, and the
//! run id every span of one run shares. They stay in memory until the run
//! ends and are then written out as JSON. A layer's self time is its
//! span's duration minus the part its child spans cover (children never
//! overlap: every span is opened and closed on the benchmark's thread).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Per-name totals over all spans of that name.
#[derive(Default, Clone)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans).
    pub self_ns: u64,
    /// Every duration, in recording order.
    pub durations_ns: Vec<u64>,
}

/// Records spans; single-threaded by construction.
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&self, name: &'static str) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        let idx = spans.len() - 1;
        self.open.borrow_mut().push(idx);
        idx
    }

    fn exit(&self, idx: usize) {
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
    }

    fn self_times(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Totals per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let self_ns = self.self_times();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, own) in self.spans.borrow().iter().zip(self_ns) {
            let a = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += own;
            a.durations_ns.push(dur);
        }
        out
    }

    /// Every span as one JSON document.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times();
        let mut out = format!("{{\"run_id\": {}, \"spans\": [", self.run_id);
        for (i, (s, own)) in self.spans.borrow().iter().zip(self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {own}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, self.run_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Runs `f` inside a span named `name` when `tracer` is set; with `None`
/// it is a plain call (the untraced path costs one branch).
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let idx = t.enter(name);
            let r = f();
            t.exit(idx);
            r
        }
    }
}
