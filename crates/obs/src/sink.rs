//! Pluggable sinks: [`NullSink`], the in-memory [`MemSink`] (tree builder +
//! renderers), and the deterministic JSON-lines [`JsonSink`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Field;

/// Receiver for span and metric events. Implementations are thread-local (no
/// `Send`/`Sync` bound) and take `&self`; stateful sinks use interior
/// mutability.
pub trait Sink {
    /// False only for [`NullSink`]-like sinks: installing a non-live sink
    /// leaves tracing disabled, so spans never reach it.
    fn live(&self) -> bool {
        true
    }

    /// A span was opened at `depth` (0 = root) on the thread's span stack.
    fn span_start(&self, name: &'static str, fields: &[Field], depth: usize);

    /// The matching span closed. `counters` are the deltas it consumed;
    /// `wall_ns` is non-deterministic and omitted by default renderers.
    fn span_end(
        &self,
        name: &'static str,
        fields: &[Field],
        counters: &[Field],
        wall_ns: u64,
        depth: usize,
    );

    /// A registry counter was incremented by `delta`.
    fn counter(&self, _name: &'static str, _delta: u64) {}

    /// A registry gauge was set to `value`.
    fn gauge(&self, _name: &'static str, _value: u64) {}

    /// A registry histogram observed `value`.
    fn observe(&self, _name: &'static str, _value: u64) {}
}

/// The do-nothing sink. Installing it is identical to having no sink at all:
/// `live()` is false, so [`crate::enabled`] stays false and the span fast
/// path never allocates or calls into it — the zero-cost disabled mode.
pub struct NullSink;

impl Sink for NullSink {
    fn live(&self) -> bool {
        false
    }

    fn span_start(&self, _: &'static str, _: &[Field], _: usize) {}

    fn span_end(&self, _: &'static str, _: &[Field], _: &[Field], _: u64, _: usize) {}
}

/// One closed span in a [`MemSink`] tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub name: &'static str,
    pub fields: Vec<Field>,
    pub counters: Vec<Field>,
    pub wall_ns: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Value of the named close-counter, if the span reported it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }

    /// Sum of the named counter over direct children (missing = 0).
    pub fn children_sum(&self, name: &str) -> u64 {
        self.children.iter().map(|c| c.counter(name).unwrap_or(0)).sum()
    }

    /// This span's *self* share of the named counter: its own delta minus
    /// what its children account for. Children are fully nested, so this
    /// never underflows on monotonic counters; saturate defensively anyway.
    pub fn self_counter(&self, name: &str) -> u64 {
        self.counter(name).unwrap_or(0).saturating_sub(self.children_sum(name))
    }
}

#[derive(Default)]
struct MemInner {
    roots: Vec<SpanNode>,
    stack: Vec<SpanNode>,
    counters: BTreeMap<&'static str, u64>,
}

/// In-memory sink for tests and for post-run rendering: reconstructs the
/// span tree (LIFO close order makes this a simple stack) and accumulates
/// counter events.
#[derive(Default)]
pub struct MemSink {
    inner: RefCell<MemInner>,
}

impl MemSink {
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// Drains and returns the completed root spans. Panics if a span is
    /// still open (the caller dropped its guards out of order).
    pub fn take(&self) -> Vec<SpanNode> {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.stack.is_empty(), "take() with {} spans still open", inner.stack.len());
        std::mem::take(&mut inner.roots)
    }

    /// Accumulated counter events, name-sorted.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.borrow().counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Renders `roots` as a human-readable attribution tree. For each span:
    /// two-space indentation, the span name, its fields, then the counters
    /// named in `keys` (missing keys are skipped). When a span's children do
    /// not fully account for one of its `keys` counters, a synthetic
    /// `(self)` leaf holding the remainder is printed, so **the leaves of
    /// the rendered tree sum exactly to each root's totals**. `wall_ns` is
    /// only printed when `with_wall` is set (see crate determinism rules).
    pub fn render_human(roots: &[SpanNode], keys: &[&str], with_wall: bool) -> String {
        let mut out = String::new();
        for root in roots {
            Self::render_node(root, keys, with_wall, 0, &mut out);
        }
        out
    }

    fn render_node(node: &SpanNode, keys: &[&str], with_wall: bool, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(node.name);
        for &(k, v) in &node.fields {
            let _ = write!(out, " {k}={v}");
        }
        for &k in keys {
            if let Some(v) = node.counter(k) {
                let _ = write!(out, " {k}={v}");
            }
        }
        if with_wall && node.wall_ns > 0 {
            let _ = write!(out, " wall_ns={}", node.wall_ns);
        }
        out.push('\n');
        for child in &node.children {
            Self::render_node(child, keys, with_wall, depth + 1, out);
        }
        if !node.children.is_empty() && keys.iter().any(|&k| node.self_counter(k) > 0) {
            for _ in 0..depth + 1 {
                out.push_str("  ");
            }
            out.push_str("(self)");
            for &k in keys {
                if node.counter(k).is_some() {
                    let _ = write!(out, " {k}={}", node.self_counter(k));
                }
            }
            out.push('\n');
        }
    }
}

impl Sink for MemSink {
    fn span_start(&self, name: &'static str, fields: &[Field], _depth: usize) {
        self.inner.borrow_mut().stack.push(SpanNode {
            name,
            fields: fields.to_vec(),
            counters: Vec::new(),
            wall_ns: 0,
            children: Vec::new(),
        });
    }

    fn span_end(
        &self,
        name: &'static str,
        _fields: &[Field],
        counters: &[Field],
        wall_ns: u64,
        _depth: usize,
    ) {
        let mut inner = self.inner.borrow_mut();
        let mut node = inner.stack.pop().expect("span_end without matching span_start");
        debug_assert_eq!(node.name, name);
        node.counters = counters.to_vec();
        node.wall_ns = wall_ns;
        match inner.stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => inner.roots.push(node),
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self.inner.borrow_mut().counters.entry(name).or_insert(0) += delta;
    }
}

/// Streaming JSON-lines sink: one JSON object per event, written to an
/// internal buffer. Deterministic by default — `wall_ns` is emitted only
/// when constructed via [`JsonSink::with_wall`].
pub struct JsonSink {
    buf: RefCell<String>,
    emit_wall: bool,
}

impl Default for JsonSink {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonSink {
    /// Deterministic sink: logical counters only, no wall times.
    pub fn new() -> JsonSink {
        JsonSink {
            buf: RefCell::new(String::new()),
            emit_wall: false,
        }
    }

    /// Also emit `"wall_ns"` on span-end events. Output is then no longer
    /// byte-stable across runs — never golden-test it.
    pub fn with_wall() -> JsonSink {
        JsonSink {
            buf: RefCell::new(String::new()),
            emit_wall: true,
        }
    }

    /// Drains and returns the accumulated JSON lines.
    pub fn take(&self) -> String {
        std::mem::take(&mut self.buf.borrow_mut())
    }

    fn fields_json(out: &mut String, key: &str, fields: &[Field]) {
        let _ = write!(out, ",\"{key}\":{{");
        for (i, &(k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape(k));
        }
        out.push('}');
    }
}

fn escape(s: &str) -> String {
    // Names are static identifiers in practice; escape the JSON specials
    // anyway so the output is always well-formed.
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl Sink for JsonSink {
    fn span_start(&self, name: &'static str, fields: &[Field], depth: usize) {
        let mut buf = self.buf.borrow_mut();
        let _ = write!(buf, "{{\"t\":\"start\",\"span\":\"{}\",\"depth\":{depth}", escape(name));
        Self::fields_json(&mut buf, "fields", fields);
        buf.push_str("}\n");
    }

    fn span_end(
        &self,
        name: &'static str,
        fields: &[Field],
        counters: &[Field],
        wall_ns: u64,
        depth: usize,
    ) {
        let mut buf = self.buf.borrow_mut();
        let _ = write!(buf, "{{\"t\":\"end\",\"span\":\"{}\",\"depth\":{depth}", escape(name));
        Self::fields_json(&mut buf, "fields", fields);
        Self::fields_json(&mut buf, "counters", counters);
        if self.emit_wall {
            let _ = write!(buf, ",\"wall_ns\":{wall_ns}");
        }
        buf.push_str("}\n");
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let mut buf = self.buf.borrow_mut();
        let _ = writeln!(buf, "{{\"t\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}", escape(name));
    }

    fn gauge(&self, name: &'static str, value: u64) {
        let mut buf = self.buf.borrow_mut();
        let _ = writeln!(buf, "{{\"t\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}", escape(name));
    }

    fn observe(&self, name: &'static str, value: u64) {
        let mut buf = self.buf.borrow_mut();
        let _ = writeln!(buf, "{{\"t\":\"observe\",\"name\":\"{}\",\"value\":{value}}}", escape(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, span};
    use std::rc::Rc;

    #[test]
    fn render_human_adds_self_leaf_and_sums_exactly() {
        let sink = Rc::new(MemSink::new());
        let _g = install(sink.clone());
        {
            let root = span!("run");
            {
                let a = span!("iter", level = 1u32);
                a.close(&[("ios", 30)], 0);
            }
            {
                let b = span!("iter", level = 2u32);
                b.close(&[("ios", 20)], 0);
            }
            root.close(&[("ios", 60)], 0);
        }
        let roots = sink.take();
        assert_eq!(roots[0].self_counter("ios"), 10);
        let text = MemSink::render_human(&roots, &["ios"], false);
        assert_eq!(
            text,
            "run ios=60\n  iter level=1 ios=30\n  iter level=2 ios=20\n  (self) ios=10\n"
        );
        // Leaves (incl. the synthetic self leaf) sum exactly to the root.
        assert_eq!(30 + 20 + 10, roots[0].counter("ios").unwrap());
    }

    #[test]
    fn json_lines_are_deterministic_and_wall_free_by_default() {
        let run = || {
            let sink = Rc::new(JsonSink::new());
            let g = install(sink.clone());
            {
                let sp = span!("get_v", iter = 2u32);
                sp.close(&[("ios", 5)], 987_654_321);
            }
            drop(g);
            sink.take()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(
            a,
            "{\"t\":\"start\",\"span\":\"get_v\",\"depth\":0,\"fields\":{\"iter\":2}}\n\
             {\"t\":\"end\",\"span\":\"get_v\",\"depth\":0,\"fields\":{\"iter\":2},\"counters\":{\"ios\":5}}\n"
        );
        assert!(!a.contains("wall_ns"));
    }

    #[test]
    fn json_wall_flag_emits_wall_ns() {
        let sink = Rc::new(JsonSink::with_wall());
        let g = install(sink.clone());
        span!("x").close(&[], 42);
        drop(g);
        assert!(sink.take().contains("\"wall_ns\":42"));
    }
}
