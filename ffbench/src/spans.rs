//! In-memory span recorder for the traced run. Spans are recorded
//! around the benchmark's calls into each layer (and synthesized from
//! the per-item journal and `flashflow-trace` timelines), kept in
//! memory, and written out as JSONL when the run ends.

use std::time::Instant;

use flashflow_obs::Json;

/// One recorded span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span id (index in the recorder).
    pub id: usize,
    /// Causing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `proto.blast.fill` or `item.slots`.
    pub name: String,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
    /// The item-attempt trace id the span belongs to (0 = none).
    pub trace: u64,
}

/// Collects spans for one benchmark run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the origin at `at`.
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: f64,
        end: f64,
        trace: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec { id, parent, name: name.to_string(), start, end, trace });
        id
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.add(name, parent, now, now, 0)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i128));
            let line = Json::Obj(vec![
                ("id".into(), Json::Int(s.id as i128)),
                ("parent".into(), parent),
                ("name".into(), Json::Str(s.name.clone())),
                ("start".into(), Json::Num(s.start)),
                ("end".into(), Json::Num(s.end)),
                ("trace".into(), Json::Str(format!("{:016x}", s.trace))),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}
