//! The traced run's span plumbing: the benchmark's own spans around every
//! call it makes into a layer, the server's retained span trees, self time
//! (a span minus the part of it its children cover), and Chrome trace-event
//! output.

use dbtouch_obs::SpanTree;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span on one clock (nanoseconds from that clock's origin).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The gesture this span belongs to (0 outside gestures).
    pub gesture: u64,
    /// Name-specific payload of a server span (a `service` span's touch
    /// count); 0 for the benchmark's own spans.
    pub detail: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans recorded by one benchmark thread. A disabled log records nothing,
/// so the untraced run pays only for the clock reads it needs anyway.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    /// High bits of every id this log mints, so logs never collide.
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool, thread: u64) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// An id for a span whose children are recorded before it closes.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Record a closed span under a reserved id.
    pub fn record_as(&mut self, id: u64, parent: u64, name: &str, start_ns: u64, gesture: u64) {
        if self.enabled {
            let end_ns = self.now();
            self.spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
                gesture,
                detail: 0,
            });
        }
    }

    /// Record a closed span that started at `start_ns` and ends now.
    pub fn record(&mut self, parent: u64, name: &str, start_ns: u64, gesture: u64) {
        let id = self.reserve();
        self.record_as(id, parent, name, start_ns, gesture);
    }
}

/// Self time of every span, parallel to `spans`: its duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One server-side span tree, retained by the server's tail sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerTree {
    pub session: u64,
    /// The trace id; a client-stamped one for gestures that came over TCP.
    pub trace: u64,
    /// Root first.
    pub spans: Vec<Span>,
}

impl ServerTree {
    /// Convert a retained tree, moving its root to the front. An open span
    /// ends where it starts.
    pub fn from_tree(tree: &SpanTree) -> ServerTree {
        let mut spans: Vec<Span> = tree
            .spans
            .iter()
            .map(|s| Span {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                start_ns: s.start_nanos,
                end_ns: s.end_nanos(),
                gesture: 0,
                detail: s.detail,
            })
            .collect();
        if let Some(root) = spans.iter().position(|s| s.parent == 0) {
            spans.swap(0, root);
        }
        ServerTree {
            session: tree.session,
            trace: tree.trace,
            spans,
        }
    }

    pub fn root(&self) -> &Span {
        &self.spans[0]
    }
}

/// Chrome trace-event JSON (`{"traceEvents": [...]}`) of the benchmark's
/// spans (process 0, one thread per benchmark thread) and the server's trees
/// (one process per server session, on the server's clock).
pub fn chrome_trace(bench: &[(u64, Vec<Span>)], server: &[ServerTree]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, s: &Span, pid: u64, tid: u64| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":{:?},\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"span\":{},\"parent\":{},\"gesture\":{},\"detail\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.gesture,
            s.detail
        );
    };
    for (thread, spans) in bench {
        for s in spans {
            push(&mut out, s, 0, *thread);
        }
    }
    for (i, tree) in server.iter().enumerate() {
        for s in &tree.spans {
            push(&mut out, s, 1_000_000 + tree.session, i as u64);
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_obs::SpanRecord;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            gesture: 1,
            detail: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // gesture [0,100): ack [10,30), snapshot [40,90) with a nested
        // child [50,60) that must not be subtracted from the gesture twice,
        // and an overlapping sibling [80,95) that is partly outside.
        let spans = vec![
            span(1, 0, "gesture", 0, 100),
            span(2, 1, "ack", 10, 30),
            span(3, 1, "snapshot", 40, 90),
            span(4, 3, "decode", 50, 60),
            span(5, 1, "late", 80, 120),
        ];
        let selfs = self_times(&spans);
        // Covered: [10,30) + [40,100) = 80.
        assert_eq!(selfs[0], 20);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 40);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 40);
        // Self times never exceed the span and sum to at most the root.
        assert!(selfs
            .iter()
            .zip(&spans)
            .all(|(s, sp)| *s <= sp.duration_ns()));
    }

    #[test]
    fn span_log_records_only_when_enabled() {
        let origin = Instant::now();
        let mut on = SpanLog::new(origin, true, 1);
        let root = on.reserve();
        let t = on.now();
        on.record(root, "child", t, 7);
        on.record_as(root, 0, "root", t, 7);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[0].parent, root);
        assert!(on.spans[1].id >> 40 == 1);
        let mut off = SpanLog::new(origin, false, 2);
        off.record(0, "x", 0, 0);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn server_trees_convert_with_root_first() {
        let root_id = (1 << 63) | 5;
        let record = |id, parent, name, start_nanos, duration_nanos| SpanRecord {
            id,
            parent,
            name,
            start_nanos,
            duration_nanos,
            detail: 7,
            late: false,
        };
        let tree = SpanTree {
            session: 3,
            trace: (1 << 63) | 9,
            spans: vec![
                record(4, root_id, "queue_wait", 10_000, 5_000),
                record(root_id, 0, "touch", 10_000, 50_000),
                record(5, root_id, "service", 15_000, 40_000),
                record(6, 5, "segments", 20_000, 10_000),
                record(8, 5, "open", 30_000, u64::MAX),
            ],
            tail_sampled: false,
            truncated: 0,
        };
        let t = ServerTree::from_tree(&tree);
        assert_eq!((t.session, t.trace), (3, (1 << 63) | 9));
        assert_eq!(t.root().name, "touch");
        assert_eq!(t.spans[4].duration_ns(), 0, "open span");
        let selfs = self_times(&t.spans);
        let by_name = |n: &str| selfs[t.spans.iter().position(|s| s.name == n).unwrap()];
        assert_eq!(by_name("touch"), 5_000);
        assert_eq!(by_name("service"), 30_000);
        assert_eq!(by_name("segments"), 10_000);
        // The Chrome output holds every span once and parses back.
        let out = chrome_trace(&[(0, t.spans.clone())], std::slice::from_ref(&t));
        let back = dbtouch_types::json::parse(&out).unwrap();
        let n = back
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap()
            .len();
        assert_eq!(n, 10);
    }
}
