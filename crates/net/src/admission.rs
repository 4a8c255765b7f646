//! Admission control: decide from live telemetry whether to serve or shed.
//!
//! The serving layer never queues work it cannot absorb. Before an
//! `OpenSession` or `RunTrace` is admitted, the thresholds in [`ShedConfig`]
//! are checked against the *live* [`metrics_snapshot`] signals — the same
//! numbers an operator sees on the dashboard:
//!
//! * `server.sessions_opened - server.sessions_closed` — live sessions,
//!   gating new sessions;
//! * `remote_exec.backlog` — the remote executor's queued refinements,
//!   gating all traffic;
//! * `server.touch_nanos` p99 — the per-touch latency distribution, the
//!   paper's interactivity ceiling turned into an admission signal.
//!
//! A tripped threshold produces a [`Verdict::Shed`] that the connection
//! handler turns into an explicit `Shed` frame with a suggested backoff —
//! the client sees *why* it was rejected and when to retry, instead of an
//! unbounded queue silently eating its latency budget. The verdict names the
//! tripped [`ShedSignal`], so the server codes its `Shed` event from the
//! signal itself, never from the reason text.
//!
//! **Admission sees only executed work.** `RunTrace` is acknowledged once
//! the trace is *queued*, but `server.touch_nanos` and `remote_exec.backlog`
//! move only when a worker *runs* it. A trace acknowledged a moment ago is
//! therefore invisible to the next admission decision until the session
//! passes a barrier (`Snapshot` or `Close`): the barrier answers only after
//! every trace acknowledged before it has run and been recorded. Live
//! sessions are exact: `OpenSession`/`CloseSession` count them before they
//! answer.
//!
//! With no threshold set (the default [`ShedConfig`]), nothing is read:
//! [`Admission::gates_opens`] and [`Admission::gates_traces`] tell the
//! server it may admit without building a snapshot at all.
//!
//! [`metrics_snapshot`]: dbtouch_server::ExplorationServer::metrics_snapshot

use dbtouch_server::{ServerMetricsSnapshot, ShedConfig};

/// The signal that tripped a shed. Its [`code`](ShedSignal::code) is the
/// `detail` of the `Shed` trace event (`dbtouch_obs::TraceEventKind::Shed`):
/// 0 = overload pressure, 1 = draining, 2 = connection limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedSignal {
    /// Live sessions at or above `ShedConfig::max_live_sessions`.
    LiveSessions,
    /// `remote_exec.backlog` at or above `ShedConfig::max_remote_backlog`.
    RemoteBacklog,
    /// `server.touch_nanos` p99 above `ShedConfig::max_touch_p99_nanos`.
    TouchP99,
    /// Live connections at `ServerConfig::max_connections` (at accept).
    ConnectionLimit,
    /// The accept queue of `ServerConfig::accept_backlog` is full.
    AcceptBacklog,
}

impl ShedSignal {
    /// The shed-reason code stamped into the `Shed` trace event. Draining
    /// (code 1) answers with `GoAway` rather than a shed, so no signal maps
    /// to it today.
    pub fn code(self) -> u64 {
        match self {
            ShedSignal::LiveSessions | ShedSignal::RemoteBacklog | ShedSignal::TouchP99 => 0,
            ShedSignal::ConnectionLimit | ShedSignal::AcceptBacklog => 2,
        }
    }
}

/// The admission decision for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Serve the request.
    Admit,
    /// Reject the request up front.
    Shed {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
        /// The signal that tripped.
        signal: ShedSignal,
        /// The signal that tripped, human-readable.
        reason: String,
    },
}

impl Verdict {
    /// True when the request was admitted.
    pub fn is_admit(&self) -> bool {
        matches!(self, Verdict::Admit)
    }
}

/// Stateless evaluator of [`ShedConfig`] thresholds against a metrics
/// snapshot.
#[derive(Debug, Clone)]
pub struct Admission {
    shed: ShedConfig,
}

impl Admission {
    pub fn new(shed: ShedConfig) -> Admission {
        Admission { shed }
    }

    fn shed_with(&self, signal: ShedSignal, reason: String) -> Verdict {
        Verdict::Shed {
            retry_after_ms: self.shed.retry_after_ms,
            signal,
            reason,
        }
    }

    /// Whether [`admit_trace`](Admission::admit_trace) reads its snapshot:
    /// false when no pressure threshold is set, so every trace is admitted.
    pub(crate) fn gates_traces(&self) -> bool {
        self.shed.max_remote_backlog.is_some() || self.shed.max_touch_p99_nanos.is_some()
    }

    /// Whether [`admit_open`](Admission::admit_open) reads its snapshot:
    /// false when no threshold is set, so every open is admitted.
    pub(crate) fn gates_opens(&self) -> bool {
        self.shed.max_live_sessions.is_some() || self.gates_traces()
    }

    /// Pressure checks shared by every request kind: remote-executor backlog
    /// and the server-wide per-touch p99.
    fn check_pressure(&self, snapshot: &ServerMetricsSnapshot) -> Verdict {
        if let Some(max) = self.shed.max_remote_backlog {
            let backlog = snapshot.scalar("remote_exec.backlog").unwrap_or(0);
            if backlog >= max {
                return self.shed_with(
                    ShedSignal::RemoteBacklog,
                    format!("remote executor backlog {backlog} at or above limit {max}"),
                );
            }
        }
        if let Some(max) = self.shed.max_touch_p99_nanos {
            if let Some(hist) = snapshot.histogram("server.touch_nanos") {
                if hist.count() > 0 {
                    let p99 = hist.quantile(99.0);
                    if p99 > max {
                        return self.shed_with(
                            ShedSignal::TouchP99,
                            format!("per-touch p99 {p99}ns above limit {max}ns"),
                        );
                    }
                }
            }
        }
        Verdict::Admit
    }

    /// Decide whether a new session may open.
    pub fn admit_open(&self, snapshot: &ServerMetricsSnapshot) -> Verdict {
        if let Some(max) = self.shed.max_live_sessions {
            let opened = snapshot.scalar("server.sessions_opened").unwrap_or(0);
            let closed = snapshot.scalar("server.sessions_closed").unwrap_or(0);
            let live = opened.saturating_sub(closed);
            if live >= max {
                return self.shed_with(
                    ShedSignal::LiveSessions,
                    format!("{live} live sessions at or above limit {max}"),
                );
            }
        }
        self.check_pressure(snapshot)
    }

    /// Decide whether a trace submission may proceed.
    pub fn admit_trace(&self, snapshot: &ServerMetricsSnapshot) -> Verdict {
        self.check_pressure(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_core::catalog::SharedCatalog;
    use dbtouch_server::{ExplorationServer, ServerConfig};
    use dbtouch_types::KernelConfig;
    use std::sync::Arc;

    fn server() -> ExplorationServer {
        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        ExplorationServer::serve(ServerConfig::with_workers(1).with_catalog(catalog)).unwrap()
    }

    #[test]
    fn unlimited_config_admits_everything() {
        let server = server();
        let admission = Admission::new(ShedConfig::default());
        let snap = server.metrics_snapshot();
        assert!(admission.admit_open(&snap).is_admit());
        assert!(admission.admit_trace(&snap).is_admit());
        server.shutdown();
    }

    #[test]
    fn live_session_cap_sheds_opens_but_not_traces() {
        let server = server();
        let admission = Admission::new(ShedConfig {
            max_live_sessions: Some(1),
            retry_after_ms: 42,
            ..ShedConfig::default()
        });
        let session = server.open_session();
        let snap = server.metrics_snapshot();
        match admission.admit_open(&snap) {
            Verdict::Shed {
                retry_after_ms,
                signal,
                reason,
            } => {
                assert_eq!(retry_after_ms, 42);
                assert_eq!(signal, ShedSignal::LiveSessions);
                assert!(reason.contains("live sessions"), "reason: {reason}");
            }
            Verdict::Admit => panic!("expected shed at the session cap"),
        }
        // The cap gates new sessions only; existing traffic still flows.
        assert!(admission.admit_trace(&snap).is_admit());
        session.close().unwrap();
        // With the session closed, opens are admitted again.
        let snap = server.metrics_snapshot();
        assert!(admission.admit_open(&snap).is_admit());
        server.shutdown();
    }

    #[test]
    fn zero_backlog_limit_sheds_all_traffic() {
        let server = server();
        let admission = Admission::new(ShedConfig {
            max_remote_backlog: Some(0),
            ..ShedConfig::default()
        });
        let snap = server.metrics_snapshot();
        assert!(!admission.admit_trace(&snap).is_admit());
        assert!(!admission.admit_open(&snap).is_admit());
        server.shutdown();
    }

    fn tripped(verdict: Verdict) -> (ShedSignal, String) {
        match verdict {
            Verdict::Shed { signal, reason, .. } => (signal, reason),
            Verdict::Admit => panic!("expected a shed"),
        }
    }

    #[test]
    fn shed_codes_follow_the_tripped_signal_not_its_text() {
        use dbtouch_core::kernel::TouchAction;
        use dbtouch_gesture::synthesizer::GestureSynthesizer;
        use dbtouch_workload::concurrent::scenario_catalog;
        use dbtouch_workload::Scenario;

        let (catalog, object) =
            scenario_catalog(&Scenario::sky_survey(2_000, 5), KernelConfig::default()).unwrap();
        let view = catalog.data(object).unwrap().base_view().clone();
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(1).with_catalog(catalog)).unwrap();

        // The remote-executor reason names a backlog, yet it is overload
        // pressure (0), not a connection limit (2).
        let snap = server.metrics_snapshot();
        let backlog = Admission::new(ShedConfig {
            max_remote_backlog: Some(0),
            ..ShedConfig::default()
        });
        let (signal, reason) = tripped(backlog.admit_trace(&snap));
        assert!(reason.contains("backlog"), "reason: {reason}");
        assert_eq!((signal, signal.code()), (ShedSignal::RemoteBacklog, 0));

        let sessions = Admission::new(ShedConfig {
            max_live_sessions: Some(0),
            ..ShedConfig::default()
        });
        let (signal, _) = tripped(sessions.admit_open(&snap));
        assert_eq!((signal, signal.code()), (ShedSignal::LiveSessions, 0));

        // The p99 signal needs an executed trace (the snapshot barrier).
        let session = server.open_session();
        session.set_action(object, TouchAction::Scan).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 0.2);
        session.run_trace(object, trace).unwrap();
        session.snapshot().unwrap();
        let p99 = Admission::new(ShedConfig {
            max_touch_p99_nanos: Some(0),
            ..ShedConfig::default()
        });
        let (signal, _) = tripped(p99.admit_trace(&server.metrics_snapshot()));
        assert_eq!((signal, signal.code()), (ShedSignal::TouchP99, 0));
        session.close().unwrap();
        server.shutdown();

        // The acceptor's own signals never pass through `Admission`.
        assert_eq!(ShedSignal::ConnectionLimit.code(), 2);
        assert_eq!(ShedSignal::AcceptBacklog.code(), 2);
    }

    #[test]
    fn default_config_gates_nothing() {
        let admission = Admission::new(ShedConfig::default());
        assert!(!admission.gates_opens());
        assert!(!admission.gates_traces());
        let sessions_only = Admission::new(ShedConfig {
            max_live_sessions: Some(4),
            ..ShedConfig::default()
        });
        assert!(sessions_only.gates_opens());
        assert!(!sessions_only.gates_traces());
        let pressure = Admission::new(ShedConfig {
            max_touch_p99_nanos: Some(1),
            ..ShedConfig::default()
        });
        assert!(pressure.gates_opens());
        assert!(pressure.gates_traces());
    }
}
