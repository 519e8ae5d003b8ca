//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in this benchmark's own code, around calls
//! into each layer's public functions. Each carries a name, start, end,
//! parent and request id; they stay in memory and are written out when
//! the run ends. Per-name totals cover every span; the raw list keeps
//! the first [`Tracer::RAW_CAP`] spans so the output file stays small.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a span, unique within one tracer.
pub type SpanId = u64;

/// One closed span, times in ns since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Layer-qualified name, e.g. `front.route`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Request (burst or wave) the span belongs to.
    pub req: u64,
}

/// Per-name aggregate: count, total and self time (total minus the
/// time covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// An open span: close it with [`Tracer::end`]. Spans nest: the most
/// recently opened span is the first to close.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    name: &'static str,
    start: u64,
    parent: Option<SpanId>,
    req: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the child time closed so far.
    stack: Vec<(SpanId, u64)>,
    totals: BTreeMap<&'static str, SpanTotals>,
    next_id: SpanId,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Raw spans kept for the output file; totals cover all spans.
    pub const RAW_CAP: usize = 20_000;

    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            next_id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside `parent` (which must be the innermost open
    /// span) or at top level.
    pub fn begin(&mut self, name: &'static str, parent: Option<&Open>, req: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push((id, 0));
        Open {
            id,
            name,
            start: self.now(),
            parent: parent.map(|p| p.id),
            req,
        }
    }

    /// Closes the innermost open span, returning its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = self.now();
        let (id, child) = self.stack.pop().expect("a span is open");
        assert_eq!(id, open.id, "spans close innermost first");
        self.close(
            open.id,
            open.name,
            open.start,
            end,
            open.parent,
            open.req,
            child,
        )
    }

    #[allow(clippy::too_many_arguments)] // the fields of one span
    fn close(
        &mut self,
        id: SpanId,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        req: u64,
        child: u64,
    ) -> u64 {
        let dur = end.saturating_sub(start);
        if let Some(p) = parent {
            if let Some(entry) = self.stack.iter_mut().rev().find(|(sid, _)| *sid == p) {
                entry.1 += dur;
            }
        }
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child);
        if self.spans.len() < Self::RAW_CAP {
            self.spans.push(Span {
                id,
                name,
                start,
                end,
                parent,
                req,
            });
        }
        dur
    }

    /// Per-name totals over every span recorded.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Renders the summary and raw spans as CSV-like text.
    pub fn render(&self) -> String {
        let mut out = String::from("# name,count,total_ns,self_ns\n");
        for (name, t) in &self.totals {
            let _ = writeln!(out, "{name},{},{},{}", t.count, t.total_ns, t.self_ns);
        }
        out.push_str("# id,name,start_ns,end_ns,parent,req\n");
        for s in &self.spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.name, s.start, s.end, parent, s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("burst", None, 7);
        let route = t.begin("front.route", Some(&root), 7);
        let route_ns = t.end(route);
        let wait = t.begin("host.wait", Some(&root), 7);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let wait_ns = t.end(wait);
        let total = t.end(root);
        let burst = t.totals("burst");
        assert_eq!(burst.count, 1);
        assert_eq!(burst.total_ns, total);
        assert_eq!(burst.self_ns, total - route_ns - wait_ns);
        assert_eq!(t.totals("host.wait").self_ns, wait_ns);
        assert_eq!(t.totals("missing"), SpanTotals::default());
        let text = t.render();
        assert!(text.contains(&format!("host.wait,1,{wait_ns},{wait_ns}")));
        assert!(text
            .lines()
            .any(|l| l.contains(",burst,") && l.ends_with(",-,7")));
    }

    #[test]
    fn nested_spans_attribute_to_direct_parent_only() {
        let mut t = Tracer::new();
        let a = t.begin("a", None, 1);
        let b = t.begin("b", Some(&a), 1);
        let c = t.begin("c", Some(&b), 1);
        let c_ns = t.end(c);
        let b_ns = t.end(b);
        let a_ns = t.end(a);
        assert_eq!(t.totals("b").self_ns, b_ns - c_ns);
        assert_eq!(t.totals("a").self_ns, a_ns - b_ns);
    }
}
