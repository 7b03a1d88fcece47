//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer: name, start, end, parent span and operation id
//! (spans of one pass, batch or request share the id). They stay in
//! memory and are written out as JSON lines when the run ends. With
//! tracing off every call is a branch and nothing is stored.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
struct Span {
    /// Layer boundary name, e.g. `experiment.fig7` or `served.admit`.
    name: String,
    /// The pass, batch or request the span belongs to.
    op: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    end_ns: u64,
}

/// The recorder. Shared by reference across the generator threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that stores spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being stored.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval; returns its index for use as a parent.
    pub fn record(
        &self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Tracer::close`] — for parents
    /// whose children are recorded while they run.
    pub fn open(&self, name: &str, op: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span list poisoned")[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index
    /// so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let me = self.open(name, op, parent);
        let out = f(me);
        self.close(me);
        out
    }

    /// Writes the spans as JSON lines (`name`, `op`, `parent`, `start_ns`,
    /// `end_ns`; `parent` is the line index of the parent span or -1) and
    /// returns how many it wrote.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        use std::fmt::Write as _;
        let mut text = String::new();
        let spans = self.spans.lock().expect("span list poisoned");
        for s in spans.iter() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)?;
        Ok(spans.len())
    }
}
