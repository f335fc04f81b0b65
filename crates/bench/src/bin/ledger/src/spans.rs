//! The benchmark's own span recorder for the traced pass: spans are kept
//! in memory around the calls into each layer and written out, if asked,
//! when the run ends. The untraced pass never constructs one.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate's short name.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The user-visible request this span worked for.
    pub op_id: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Spans recorded from here on belong to a new op.
    pub fn next_op(&mut self) -> u64 {
        self.op_id += 1;
        self.op_id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. `f` gets the recorder back so the calls it
    /// makes can nest their own spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the finished spans of `other`, a recorder started after
    /// this one: they keep their nesting, move onto this recorder's
    /// clock, and get op ids after its own.
    pub fn absorb(&mut self, other: Recorder) {
        let (base, ops) = (self.spans.len(), self.op_id);
        let later = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + later,
            end_ns: s.end_ns + later,
            parent: s.parent.map(|p| p + base),
            op_id: s.op_id + ops,
            ..s
        }));
        self.op_id += other.op_id;
    }

    /// Each span's own time: its duration less what its direct children
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        self_ns(&self.spans)
    }

    /// Self time in microseconds of every span, grouped by name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            by_name.entry(span.name).or_default().push(ns as f64 / 1e3);
        }
        by_name
    }

    /// Total self time in nanoseconds per layer (the name up to the
    /// first dot).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            *by_layer.entry(layer_of(span.name)).or_default() += ns;
        }
        by_layer
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        Ok(())
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("incr.query", 0, 100, None),
            span("lang.compile", 10, 60, Some(0)),
            span("lang.lex", 20, 30, Some(1)),
            span("drc.check_flat", 60, 90, Some(0)),
            span("cif.write", 100, 130, None),
        ];
        // Siblings 1 and 3 both come off the root; the grandchild only
        // off its parent.
        assert_eq!(self_ns(&spans), vec![20, 40, 10, 30, 30]);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut rec = Recorder::new();
        rec.next_op();
        rec.span("incr.query", |rec| {
            rec.span("lang.compile", |_| std::hint::black_box(1 + 1));
            rec.span("layout.flatten", |_| ());
        });
        rec.next_op();
        rec.span("cif.write", |_| ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op_id, spans[3].op_id), (1, 2));
        for s in spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        let total: u64 = rec.self_ns().iter().sum();
        assert_eq!(
            total,
            (spans[0].end_ns - spans[0].start_ns) + (spans[3].end_ns - spans[3].start_ns)
        );
        assert_eq!(
            rec.self_ns_by_layer().keys().copied().collect::<Vec<_>>(),
            ["cif", "incr", "lang", "layout"]
        );

        let mut more = Recorder::new();
        more.next_op();
        more.span("drc.check", |more| more.span("drc.merge", |_| ()));
        rec.absorb(more);
        assert_eq!(rec.spans()[5].parent, Some(4));
        assert_eq!(rec.spans()[5].op_id, 3);
        assert!(rec.spans()[4].start_ns >= rec.spans()[3].end_ns);
        rec.spans.truncate(4);

        let mut text = Vec::new();
        rec.write_jsonl(&mut text).unwrap();
        let lines: Vec<Json> = std::str::from_utf8(&text)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[3].get("parent"), Some(&Json::Null));
        assert_eq!(
            lines[2].get("name").and_then(Json::as_str),
            Some("layout.flatten")
        );
    }
}
