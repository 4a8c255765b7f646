//! The load generator: closed-loop TCP clients, the open-loop churn writer
//! and (traced run only) probes that time calls into each layer on the live
//! server.

use crate::setup::Served;
use crate::spans::{ServerTree, SpanLog};
use crate::stats::splitmix;
use dbtouch_core::kernel::ObjectId;
use dbtouch_net::{Admission, TcpClient};
use dbtouch_server::{ClientSession, ExplorationClient, SessionReport, ShedConfig};
use dbtouch_types::{DbTouchError, SizeCm};
use dbtouch_workload::ExplorerPlan;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Session statistics summed over every closed session.
#[derive(Debug, Default)]
pub struct Totals {
    pub gestures: u64,
    pub touches: u64,
    pub rows: u64,
    pub bytes: u64,
    pub segments: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shared_hits: u64,
    pub shared_misses: u64,
}

impl Totals {
    fn absorb(&mut self, report: &SessionReport) {
        self.gestures += report.outcomes.len() as u64;
        for t in &report.outcomes {
            let s = &t.outcome.stats;
            self.touches += s.touches;
            self.rows += s.rows_touched;
            self.bytes += s.bytes_touched;
            self.segments += s.segments_scanned;
            self.cache_hits += s.cache_hits;
            self.cache_misses += s.cache_misses;
            self.shared_hits += s.shared_cache_hits;
            self.shared_misses += s.shared_cache_misses;
        }
    }

    pub fn merge(&mut self, o: &Totals) {
        self.gestures += o.gestures;
        self.touches += o.touches;
        self.rows += o.rows;
        self.bytes += o.bytes;
        self.segments += o.segments;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.shared_hits += o.shared_hits;
        self.shared_misses += o.shared_misses;
    }
}

/// One closed session, to be checked against the oracle.
#[derive(Debug)]
pub struct Closed {
    pub plan: usize,
    pub digest: u64,
    /// (completion ns since the run's origin, touches) of each gesture.
    pub gestures: Vec<(u64, u64)>,
}

/// What one client thread observed.
#[derive(Debug)]
pub struct ClientOut {
    pub log: SpanLog,
    pub gesture_ns: Vec<u64>,
    /// Start of each gesture, parallel to `gesture_ns`.
    pub gesture_at_ns: Vec<u64>,
    pub open_ns: Vec<u64>,
    pub set_action_ns: Vec<u64>,
    pub ack_ns: Vec<u64>,
    pub snapshot_ns: Vec<u64>,
    /// Traced run: gesture ns by the trace id the client stamped into its
    /// `RunTrace` frame, which the server's span tree carries.
    pub gesture_traces: HashMap<u64, u64>,
    pub closed: Vec<Closed>,
    pub totals: Totals,
    /// Client calls made (open, set_action, run_trace, snapshot, close).
    pub attempted: u64,
    pub errors: Vec<String>,
    pub sheds: u64,
    /// A few snapshot reports, kept to time the codec on real frames.
    pub sample_reports: Vec<SessionReport>,
    pub finished: Instant,
}

/// Shared, read-only inputs of the client threads.
pub struct LoadCtx<'a> {
    pub addr: String,
    pub object: ObjectId,
    pub plans: &'a [ExplorerPlan],
    /// Next session's plan index (sessions take plans in order).
    pub next_plan: AtomicUsize,
    pub gesture_seq: AtomicU64,
    pub origin: Instant,
    pub traced: bool,
    /// Seeds each client's think times.
    pub seed: u64,
}

/// Longest pause a client takes before opening its next session. The
/// pauses are seeded and uniform over one acceptor poll period (20 ms), so
/// session arrivals do not lock onto the poll phase.
const MAX_THINK_MICROS: u64 = 20_000;

/// A closed-loop client: sessions back to back on one connection at a time
/// until `deadline`; a session started before the deadline runs to its end.
pub fn client_loop(ctx: &LoadCtx, thread: u64, deadline: Instant) -> ClientOut {
    let client = TcpClient::new(ctx.addr.clone());
    let mut out = ClientOut {
        log: SpanLog::new(ctx.origin, ctx.traced, thread),
        gesture_ns: Vec::new(),
        gesture_at_ns: Vec::new(),
        open_ns: Vec::new(),
        set_action_ns: Vec::new(),
        ack_ns: Vec::new(),
        snapshot_ns: Vec::new(),
        gesture_traces: HashMap::new(),
        closed: Vec::new(),
        totals: Totals::default(),
        attempted: 0,
        errors: Vec::new(),
        sheds: 0,
        sample_reports: Vec::new(),
        finished: Instant::now(),
    };
    let mut think = ctx.seed ^ (thread << 32);
    while Instant::now() < deadline {
        think = splitmix(think);
        std::thread::sleep(Duration::from_micros(think % MAX_THINK_MICROS));
        let plan_index = ctx.next_plan.fetch_add(1, Ordering::Relaxed);
        let plan = &ctx.plans[plan_index % ctx.plans.len()];
        if let Err(e) = run_session(ctx, &client, plan_index, plan, &mut out) {
            if let DbTouchError::Overloaded { retry_after_ms, .. } = e {
                out.sheds += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(100)));
            } else {
                out.errors.push(e.to_string());
            }
        }
    }
    out.finished = Instant::now();
    out
}

fn run_session(
    ctx: &LoadCtx,
    client: &TcpClient,
    plan_index: usize,
    plan: &ExplorerPlan,
    out: &mut ClientOut,
) -> Result<(), DbTouchError> {
    let log = &mut out.log;
    let session_span = log.reserve();
    let session_start = log.now();
    out.attempted += 1;
    let t = log.now();
    let mut session = client.open_session()?;
    out.open_ns.push(log.now() - t);
    log.record(session_span, "net.open_session", t, 0);

    out.attempted += 1;
    let t = log.now();
    session.set_action(ctx.object, plan.action.clone())?;
    out.set_action_ns.push(log.now() - t);
    log.record(session_span, "net.set_action", t, 0);

    let mut last = None;
    let mut done = Vec::with_capacity(plan.traces.len());
    for trace in &plan.traces {
        let gesture = ctx.gesture_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let gesture_span = log.reserve();
        out.attempted += 2;
        let t0 = log.now();
        session.run_trace(ctx.object, trace.clone())?;
        let t1 = log.now();
        log.record(gesture_span, "net.run_trace_ack", t0, gesture);
        let report = session.snapshot()?;
        let t2 = log.now();
        log.record(gesture_span, "net.snapshot", t1, gesture);
        log.record_as(gesture_span, session_span, "gesture", t0, gesture);
        out.gesture_ns.push(t2 - t0);
        out.gesture_at_ns.push(t0);
        out.ack_ns.push(t1 - t0);
        out.snapshot_ns.push(t2 - t1);
        done.push((t2, trace.len() as u64));
        if let (true, Some(&trace_id)) = (ctx.traced, session.stamped_trace_ids().last()) {
            out.gesture_traces.insert(trace_id, t2 - t0);
        }
        last = Some(report);
    }

    out.attempted += 1;
    let t = log.now();
    let report = session.close()?;
    log.record(session_span, "net.close", t, 0);
    log.record_as(session_span, 0, "session", session_start, 0);
    if let Some(snapshot) = last {
        if ctx.traced && out.sample_reports.len() < 8 {
            out.sample_reports.push(snapshot);
        }
    }
    if !report.errors.is_empty() {
        return Err(DbTouchError::Remote(format!(
            "session reported errors: {:?}",
            report.errors
        )));
    }
    out.totals.absorb(&report);
    out.closed.push(Closed {
        plan: plan_index % ctx.plans.len(),
        digest: report.result_digest(),
        gestures: done,
    });
    Ok(())
}

/// What the open-loop churn writer observed.
#[derive(Debug, Default)]
pub struct WriterOut {
    /// Completion minus due time, per restructure.
    pub from_due_ns: Vec<u64>,
    /// Start minus due time, per restructure.
    pub lag_ns: Vec<u64>,
    pub drag_out_ns: Vec<u64>,
    pub drag_in_ns: Vec<u64>,
    pub refresh_ns: Vec<u64>,
    pub errors: Vec<String>,
    pub restructures: u64,
}

/// Restructures in a run of `seconds`: one per period, rounded up to whole
/// out-and-back cycles so the table ends with its full schema. Fixed by the
/// schedule alone, never by how fast the system keeps up.
pub fn writer_ops(seconds: f64, period_ms: u64) -> u64 {
    let per_cycle = 2.0 * period_ms as f64 / 1e3;
    2 * ((seconds / per_cycle).ceil() as u64).max(1)
}

/// Ping-pong `churn_c0` out of and back into the churn table on a fixed
/// schedule starting at `start`. After each publish the explored object's
/// session state is refreshed, timed.
pub fn writer_loop(
    served: &Served,
    log: &mut SpanLog,
    start: Instant,
    ops: u64,
    period: Duration,
) -> WriterOut {
    let mut out = WriterOut::default();
    let Some(table) = served.churn_table else {
        return out;
    };
    let catalog = &served.catalog;
    let mut state = match catalog.checkout(served.object) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("checkout: {e}"));
            return out;
        }
    };
    let mut standalone = None;
    for i in 0..ops {
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        out.lag_ns.push((began - due).as_nanos() as u64);
        let t = log.now();
        let result = match standalone.take() {
            None => catalog
                .drag_column_out(table, "churn_c0", SizeCm::new(2.0, 8.0))
                .map(|id| {
                    standalone = Some(id);
                    out.drag_out_ns.push(began.elapsed().as_nanos() as u64);
                    log.record(0, "core.drag_column_out", t, 0);
                }),
            Some(id) => catalog.drag_column_into(table, id).map(|()| {
                out.drag_in_ns.push(began.elapsed().as_nanos() as u64);
                log.record(0, "core.drag_column_into", t, 0);
            }),
        };
        if let Err(e) = result {
            out.errors.push(format!("restructure {i}: {e}"));
            break;
        }
        out.from_due_ns.push(due.elapsed().as_nanos() as u64);
        out.restructures += 1;

        let t = log.now();
        let r = Instant::now();
        if let Err(e) = state.refresh(catalog) {
            out.errors.push(format!("refresh: {e}"));
        }
        out.refresh_ns.push(r.elapsed().as_nanos() as u64);
        log.record(0, "core.refresh", t, 0);
    }
    out
}

/// Timings of calls into each layer on the live server (traced run only).
#[derive(Debug, Default)]
pub struct ProbeOut {
    pub handshake_ns: Vec<u64>,
    pub admission_ns: Vec<u64>,
    pub metrics_snapshot_ns: Vec<u64>,
    pub checkout_ns: Vec<u64>,
    /// Every distinct span tree the server retained during the window.
    pub trees: Vec<ServerTree>,
    pub errors: Vec<String>,
}

/// Probe the live server every few milliseconds until `stop`, collecting
/// the span trees each metrics snapshot carries.
pub fn probe_loop(served: &Served, log: &mut SpanLog, stop: &AtomicBool) -> ProbeOut {
    let mut out = ProbeOut::default();
    let client = TcpClient::new(served.addr());
    let admission = Admission::new(ShedConfig::default());
    // Trees retained before the window (the warm-up's) are not its own.
    let mut seen: HashSet<(u64, u64)> = served
        .server
        .metrics_snapshot()
        .traces()
        .iter()
        .map(|t| (t.session, t.trace))
        .collect();
    while !stop.load(Ordering::Relaxed) {
        let t = log.now();
        let c = Instant::now();
        match client.wait_ready(Duration::from_secs(5)) {
            Ok(()) => out.handshake_ns.push(c.elapsed().as_nanos() as u64),
            Err(e) => out.errors.push(format!("handshake: {e}")),
        }
        log.record(0, "net.handshake", t, 0);

        let t = log.now();
        let c = Instant::now();
        let snapshot = served.server.metrics_snapshot();
        out.metrics_snapshot_ns.push(c.elapsed().as_nanos() as u64);
        std::hint::black_box(admission.admit_trace(&snapshot));
        out.admission_ns.push(c.elapsed().as_nanos() as u64);
        log.record(0, "net.admission", t, 0);

        let t = log.now();
        let c = Instant::now();
        if let Err(e) = served.catalog.checkout(served.object) {
            out.errors.push(format!("checkout: {e}"));
        }
        out.checkout_ns.push(c.elapsed().as_nanos() as u64);
        log.record(0, "core.checkout", t, 0);

        for tree in snapshot.traces() {
            if seen.insert((tree.session, tree.trace)) {
                out.trees.push(ServerTree::from_tree(tree));
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_schedule_is_fixed_and_ends_on_a_full_cycle() {
        // 20 s at one restructure per 500 ms: 40 restructures, 20 cycles.
        assert_eq!(writer_ops(20.0, 500), 40);
        // A partial cycle rounds up so the table gets its column back.
        assert_eq!(writer_ops(12.0, 500), 24);
        assert_eq!(writer_ops(12.2, 500), 26);
        // Even the shortest run restructures out and back once.
        assert_eq!(writer_ops(0.1, 500), 2);
        for s in [1.0, 7.5, 20.0, 33.3] {
            assert_eq!(writer_ops(s, 500) % 2, 0);
        }
    }
}
