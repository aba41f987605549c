//! Spans recorded by the traced run: name, start, end, parent, request.
//!
//! The spans live here, in the benchmark, around calls into each crate's
//! public functions; the program itself is not instrumented by this PR.
//! They are kept in memory and written out once, when the run ends.
//! A span's **self time** is its duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use gent_serve::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `discovery.set_similarity`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The request (task) this span belongs to.
    pub request: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch` (shared by every thread of
    /// a run, so their spans line up in one trace file).
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    /// Time `f` as a span named `name`, nested under whichever span is
    /// open. `f` gets the recorder back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request: self.request });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Give up the spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one recorder, in nanoseconds: duration minus
/// the time covered by direct children (children of one thread never
/// overlap each other, so covering is summing).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration());
        }
    }
    own
}

/// Per request, the summed self time (ns) of each span name.
pub fn self_by_request(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.request).or_default().entry(span.name).or_default() += own;
    }
    out
}

/// The trace file: one JSON array of span objects, times in µs.
pub fn render_trace(spans: &[(usize, Span)]) -> String {
    let us = |ns: u64| Json::Float(ns as f64 / 1e3);
    Json::Array(
        spans
            .iter()
            .map(|(thread, s)| {
                Json::Object(vec![
                    ("name".into(), Json::str(s.name)),
                    ("thread".into(), Json::Int(*thread as i64)),
                    ("request".into(), Json::Int(i64::from(s.request))),
                    ("start_us".into(), us(s.start)),
                    ("end_us".into(), us(s.end)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Int(p as i64))),
                ])
            })
            .collect(),
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, request: u32) -> Span {
        Span { name, start, end, parent, request }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // request [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; request ⊃ b [50,90].
        let spans = vec![
            span("request", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("a1", 15, 25, Some(1), 1),
            span("b", 50, 90, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_by_request_sums_same_named_spans() {
        let spans = vec![
            span("request", 0, 50, None, 1),
            span("build", 0, 10, Some(0), 1),
            span("build", 20, 35, Some(0), 1),
            span("request", 60, 80, None, 2),
        ];
        let by = self_by_request(&spans);
        assert_eq!(by[&1]["build"], 25);
        assert_eq!(by[&1]["request"], 25);
        assert_eq!(by[&2]["request"], 20);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_request(9);
        let out = rec.span("outer", |rec| rec.span("inner", |_| std::hint::black_box(3)) + 1);
        assert_eq!(out, 4);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].request), ("outer", None, 9));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let trace = render_trace(&[(0, spans[0].clone()), (0, spans[1].clone())]);
        assert!(Json::parse(&trace).unwrap().as_array().unwrap().len() == 2);
    }
}
