//! The benchmark's own span recorder: spans are taken from outside the
//! product, around each call into a layer, kept in memory and written
//! out when the run ends.  Deliberately not `tpiin-obs` — the thing
//! being measured must not be the thing measuring.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (rep, request, batch) share an id.
    pub op: u64,
}

/// Records spans when `on`; otherwise only runs the closures, so the
/// untraced pass executes the same code path minus the bookkeeping.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    on: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            on,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's index to parent
    /// its children on (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("no span closure panics while recording");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("see above")[id].end_ns = end;
        out
    }

    /// A leaf span.
    pub fn leaf<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span(name, parent, op, |_| f())
    }

    /// Records a span measured elsewhere (a request's socket phases,
    /// which the client times itself).  Returns its index.
    pub fn add(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        took: std::time::Duration,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("see above");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Writes the spans to `bench/e2e/out/trace-<workload>.json`.
    pub fn write(&self, workload: &str) {
        let out = std::path::Path::new("bench/e2e/out");
        std::fs::create_dir_all(out).expect("out dir is writable");
        std::fs::write(
            out.join(format!("trace-{workload}.json")),
            to_json(&self.spans()),
        )
        .expect("out dir is writable");
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("see above").clone()
    }
}

/// Milliseconds spent in every span called `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Self time of span `id`: its duration minus the part of its interval
/// its direct children cover (overlapping children count once).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut frontier = me.start_ns;
    for (a, b) in kids {
        let a = a.max(frontier);
        if b > a {
            covered += b - a;
            frontier = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Share of the wall time of all spans called `name` that no child
/// accounts for — the residual the per-layer rows fail to explain.
pub fn residual_ratio(spans: &[Span], name: &str) -> f64 {
    let (mut own, mut wall) = (0u64, 0u64);
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        own += self_ns(spans, id);
        wall += s.end_ns - s.start_ns;
    }
    if wall == 0 {
        0.0
    } else {
        own as f64 / wall as f64
    }
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.op,
            self_ns(spans, id),
            if id + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and sticks out of the parent by 20.
            span("b", 30, 120, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span("c", 12, 20, Some(1)),
        ];
        // Children cover [10, 100) of [0, 100).
        assert_eq!(self_ns(&spans, 0), 10);
        assert_eq!(self_ns(&spans, 1), 30 - 8);
        assert_eq!(self_ns(&spans, 3), 8);
        assert!((residual_ratio(&spans, "rep") - 0.10).abs() < 1e-12);
        assert_eq!(residual_ratio(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_records_nesting_and_is_inert_when_off() {
        let on = Tracer::new(true);
        let got = on.span("outer", None, 7, |outer| {
            on.leaf("inner", outer, 7, || 21) * 2
        });
        assert_eq!(got, 42);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_ms(&spans, "inner").len(), 1);
        assert!(to_json(&spans).contains("\"name\":\"inner\""));

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
