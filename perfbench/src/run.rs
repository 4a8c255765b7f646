//! One benchmark run: set-up, the measured window, the digest gate, and the
//! metrics — end-to-end from the untraced run, per-layer from the traced one.

use crate::cli::{Args, Workload};
use crate::load::{
    client_loop, probe_loop, writer_loop, writer_ops, ClientOut, Closed, LoadCtx, ProbeOut, Totals,
    WriterOut,
};
use crate::setup::{dir_bytes, oracle_catalog, setup, shape, Served};
use crate::spans::{chrome_trace, self_times, ServerTree, Span, SpanLog};
use crate::stats::{median, percentile, ratio, splitmix, windowed_percentile, windowed_rate};
use dbtouch_core::morsel::window_stats;
use dbtouch_net::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use dbtouch_server::{ExplorationServer, ServerConfig};
use dbtouch_storage::pager::PagerStats;
use dbtouch_types::{DbTouchError, Result, RowRange};
use dbtouch_workload::run_sequential;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Host noise comes in bursts of a second or so: each time-based metric is
/// the median over windows, so a burst that hits a few windows does not
/// move it. Window length of `touches_per_s`:
const RATE_WINDOW_NS: u64 = 1_000_000_000;
/// Gestures per window of `gesture_p50_ms`.
const P50_WINDOW: usize = 200;
/// Gestures per window of `gesture_p99_ms`: enough for ten beyond p99.
const P99_WINDOW: usize = 1000;
/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample support, applicability — printed next to the value.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Informational lines printed before the result.
    pub info: Vec<String>,
}

/// Everything one measured window produced.
struct Phase {
    clients: Vec<ClientOut>,
    /// The measured window, ns since the run's origin: start and deadline.
    window: (u64, u64),
    /// Start to the last client's end (sessions run past the deadline).
    wall_ns: u64,
    /// CPU time of the whole process (server and clients) over `wall_ns`.
    cpu_ns: u64,
    /// Peak resident set over the window, MiB: the high-water mark is reset
    /// when the window starts and read before the digest gate builds its
    /// oracle, so neither set-up nor the gate counts.
    peak_rss_mb: f64,
    writer: Option<(WriterOut, SpanLog)>,
    probes: Option<(ProbeOut, SpanLog)>,
    pager: PagerStats,
    gate: Gate,
}

impl Phase {
    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for c in &self.clients {
            t.merge(&c.totals);
        }
        t
    }

    fn samples(&self, pick: impl Fn(&ClientOut) -> &Vec<u64>) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| pick(c).iter().map(|&ns| ns as f64))
            .collect()
    }

    fn attempted(&self) -> u64 {
        let writer = self
            .writer
            .as_ref()
            .map_or(0, |(w, _)| w.restructures + w.errors.len() as u64);
        self.clients.iter().map(|c| c.attempted).sum::<u64>() + writer + self.gate.sessions
    }

    fn sheds(&self) -> u64 {
        self.clients.iter().map(|c| c.sheds).sum()
    }

    fn errors(&self) -> Vec<String> {
        let mut e: Vec<String> = self.clients.iter().flat_map(|c| c.errors.clone()).collect();
        if let Some((w, _)) = &self.writer {
            e.extend(w.errors.iter().cloned());
        }
        e
    }

    fn failed(&self) -> u64 {
        self.errors().len() as u64 + self.sheds() + self.gate.mismatches
    }

    /// Digest-verified touches per second: the median over the measured
    /// window's whole seconds of the touches completed in each, with a note
    /// giving the whole run's rate and the slowest and fastest second.
    fn touches_per_s(&self) -> (f64, String) {
        let (start, end) = self.window;
        let whole = ratio(self.gate.verified_touches as f64, self.wall_ns as f64 / 1e9);
        let Some((rate, rates)) = windowed_rate(&self.gate.verified, start, end, RATE_WINDOW_NS)
        else {
            return (
                whole,
                "window shorter than one second: whole-run rate".into(),
            );
        };
        let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().copied().fold(0.0, f64::max);
        let note = format!(
            "median over {} one-second windows (slowest {lo}, fastest {hi}); whole run {whole} = {} digest-verified touches in {:.3} s, {} sessions",
            rates.len(),
            self.gate.verified_touches,
            self.wall_ns as f64 / 1e9,
            self.gate.sessions
        );
        (rate, note)
    }

    /// Gesture time percentile `q` in ms: the median over consecutive
    /// windows of at least `min_window` gestures of each window's
    /// nearest-rank percentile, with a note giving every window and the
    /// whole run's percentile.
    fn gesture_ms(&self, q: f64, min_window: usize) -> (f64, String) {
        let timed: Vec<(u64, f64)> = self
            .clients
            .iter()
            .flat_map(|c| {
                let ms = c.gesture_ns.iter().map(|&ns| ns as f64 / 1e6);
                c.gesture_at_ns.iter().copied().zip(ms)
            })
            .collect();
        let Some((value, windows)) = windowed_percentile(&timed, q, min_window) else {
            return (0.0, "no samples".into());
        };
        let lo = windows
            .iter()
            .map(|w| w.value)
            .fold(f64::INFINITY, f64::min);
        let hi = windows.iter().map(|w| w.value).fold(0.0, f64::max);
        let unsupported = windows.iter().filter(|w| !w.supported()).count();
        let all: Vec<f64> = timed.iter().map(|&(_, v)| v).collect();
        let (whole, whole_note) = pct_note(&all, q);
        let note = format!(
            "median of p{q} over {} consecutive windows of >= {min_window} gestures (lowest {lo}, highest {hi}, {unsupported} UNSUPPORTED); whole run {whole} ms, {whole_note}",
            windows.len(),
        );
        (value, note)
    }
}

/// The digest gate's verdict over one phase.
#[derive(Debug, Default)]
struct Gate {
    sessions: u64,
    mismatches: u64,
    verified_touches: u64,
    /// (completion ns, touches) of every gesture of a verified session.
    verified: Vec<(u64, u64)>,
    replay_ns: u64,
    replay_touches: u64,
}

/// A fresh directory for the persisted catalog of set-up number `n`.
fn catalog_dir(work: &Path, n: usize) -> PathBuf {
    work.join(format!("catalog-{n}"))
}

fn pager_delta(before: Option<PagerStats>, after: Option<PagerStats>) -> PagerStats {
    match (before, after) {
        (Some(b), Some(a)) => PagerStats {
            pool_hits: a.pool_hits - b.pool_hits,
            faults: a.faults - b.faults,
            evictions: a.evictions - b.evictions,
        },
        _ => PagerStats::default(),
    }
}

/// Drive the served workload for `seconds`, then check every closed session
/// against the oracle. `probes` runs the layer probes alongside the clients.
fn measure(
    workload: Workload,
    seed: u64,
    served: &Served,
    seconds: f64,
    traced: bool,
    probes: bool,
    origin: Instant,
) -> Result<Phase> {
    let s = shape(workload);
    let ctx = LoadCtx {
        addr: served.addr(),
        object: served.object,
        plans: &served.plans,
        next_plan: AtomicUsize::new(0),
        gesture_seq: AtomicU64::new(0),
        origin,
        traced,
        seed,
    };
    let pager_before = served.catalog.pager_stats();
    let stop = AtomicBool::new(false);
    reset_peak_rss()?;
    let cpu_before = process_cpu_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (clients, writer, probes) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..s.connections)
            .map(|i| {
                let ctx = &ctx;
                scope.spawn(move || client_loop(ctx, i as u64 + 1, deadline))
            })
            .collect();
        let writer = served.churn_table.map(|_| {
            scope.spawn(move || {
                let mut log = SpanLog::new(origin, traced, 100);
                let ops = writer_ops(seconds, s.writer_period_ms);
                let period = Duration::from_millis(s.writer_period_ms);
                let out = writer_loop(served, &mut log, start, ops, period);
                (out, log)
            })
        });
        let probes = probes.then(|| {
            let stop = &stop;
            scope.spawn(move || {
                let mut log = SpanLog::new(origin, true, 200);
                let out = probe_loop(served, &mut log, stop);
                (out, log)
            })
        });
        let clients: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let writer = writer.map(|h| h.join().expect("writer thread panicked"));
        let probes = probes.map(|h| h.join().expect("probe thread panicked"));
        (clients, writer, probes)
    });
    let cpu_ns = process_cpu_ns().saturating_sub(cpu_before);
    let peak_rss_mb = peak_rss_mb();
    let wall_ns = clients
        .iter()
        .map(|c| (c.finished - start).as_nanos() as u64)
        .max()
        .unwrap_or(1);
    let pager = pager_delta(pager_before, served.catalog.pager_stats());
    let closed: Vec<&Closed> = clients.iter().flat_map(|c| &c.closed).collect();
    let gate = digest_gate(workload, seed, &served.plans, &closed)?;
    let since_origin = |t: Instant| (t - origin).as_nanos() as u64;
    Ok(Phase {
        clients,
        window: (since_origin(start), since_origin(deadline)),
        wall_ns,
        cpu_ns,
        peak_rss_mb,
        writer,
        probes,
        pager,
        gate,
    })
}

/// Replay every plan the run used through the single-user kernel over the
/// oracle catalog (two threads) and compare each closed session's digest.
fn digest_gate(
    workload: Workload,
    seed: u64,
    plans: &[dbtouch_workload::ExplorerPlan],
    closed: &[&Closed],
) -> Result<Gate> {
    let (oracle, object) = oracle_catalog(workload, seed)?;
    let used: Vec<usize> = closed
        .iter()
        .map(|c| c.plan)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let chunks: Vec<&[usize]> = used.chunks(used.len().div_ceil(2).max(1)).collect();
    let replayed = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let oracle = &oracle;
                // (plan, digest, replay nanoseconds) per plan.
                scope.spawn(move || -> Result<Vec<(usize, u64, u64)>> {
                    chunk
                        .iter()
                        .map(|&i| {
                            let t = Instant::now();
                            let d =
                                run_sequential(oracle, object, std::slice::from_ref(&plans[i]))?;
                            Ok((i, d[0], t.elapsed().as_nanos() as u64))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect::<Result<Vec<_>>>()
    })?;
    let mut expected = BTreeMap::new();
    let mut gate = Gate::default();
    for (plan, digest, ns) in replayed.into_iter().flatten() {
        expected.insert(plan, digest);
        gate.replay_ns += ns;
        gate.replay_touches += plans[plan].touches();
    }
    for c in closed {
        gate.sessions += 1;
        if expected.get(&c.plan) == Some(&c.digest) {
            gate.verified_touches += c.gestures.iter().map(|&(_, t)| t).sum::<u64>();
            gate.verified.extend_from_slice(&c.gestures);
        } else {
            gate.mismatches += 1;
        }
    }
    Ok(gate)
}

/// CPU time (user + system, all threads) this process has used, ns.
/// `/proc/self/stat` counts in USER_HZ ticks, which Linux fixes at 100/s.
fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * 10_000_000
}

/// Reset this process's peak resident set (VmHWM) to its current resident
/// set. Set-up frees more than it keeps (staging catalogs, earlier set-ups),
/// and glibc holds on to freed heap, so it is handed back to the kernel
/// first; otherwise it would count as resident.
fn reset_peak_rss() -> Result<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| DbTouchError::Io(format!("reset VmHWM via /proc/self/clear_refs: {e}")))
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pct_note(samples: &[f64], q: f64) -> (f64, String) {
    match percentile(samples, q) {
        Some(p) => (
            p.value,
            format!(
                "p{q} nearest-rank over {} samples, {} beyond{}",
                p.samples,
                p.beyond,
                if p.supported() { "" } else { ", UNSUPPORTED" }
            ),
        ),
        None => (0.0, "no samples".into()),
    }
}

fn ns_to(samples: &[f64], scale: f64) -> Vec<f64> {
    samples.iter().map(|v| v / scale).collect()
}

/// The untraced run: `SETUPS` timed set-ups, one measured window, the gate,
/// and the end-to-end metrics.
pub fn untraced(args: &Args, work: &Path) -> Result<Outcome> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut served = None;
    for n in 0..SETUPS {
        let t = Instant::now();
        let s = setup(args.workload, args.seed, false, &catalog_dir(work, n))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if n + 1 < SETUPS {
            s.teardown()?;
        } else {
            served = Some(s);
        }
    }
    let served = served.expect("SETUPS > 0");
    let phase = measure(
        args.workload,
        args.seed,
        &served,
        args.seconds as f64,
        false,
        false,
        Instant::now(),
    )?;
    let disk = served.dir.as_deref().map(dir_bytes);
    let user_bytes = served.user_bytes;
    served.teardown()?;

    let opens = ns_to(&phase.samples(|c| &c.open_ns), 1e6);
    let (rate, rate_note) = phase.touches_per_s();
    let (p50, p50_note) = phase.gesture_ms(50.0, P50_WINDOW);
    let (p99, p99_note) = phase.gesture_ms(99.0, P99_WINDOW);
    let (open, open_note) = pct_note(&opens, 50.0);
    let setup_note = format!("median of {SETUPS} set-ups: {setup_s:.3?}");
    let cpu_note = format!(
        "{} ms process CPU, server and clients, over {} verified touches",
        phase.cpu_ns / 1_000_000,
        phase.gate.verified_touches
    );
    let metrics = vec![
        metric("touches_per_s", rate, "touches/s", rate_note),
        metric("gesture_p50_ms", p50, "ms", p50_note),
        metric("open_p50_ms", open, "ms", open_note),
        metric(
            "cpu_us_per_touch",
            ratio(
                phase.cpu_ns as f64 / 1e3,
                phase.gate.verified_touches as f64,
            ),
            "us",
            cpu_note,
        ),
        metric("setup_s", median(&setup_s), "s", setup_note),
        metric(
            "peak_rss_mb",
            phase.peak_rss_mb,
            "MiB",
            "VmHWM of the serving process over the measured window",
        ),
    ];
    let mut info = common_info(&phase);
    // Reported, not gated: see WORKLOADS.md.
    info.push(format!("gesture_p99_ms = {p99} ms ({p99_note})"));
    if let Some(bytes) = disk {
        info.push(format!(
            "disk_bytes_per_user_byte = {} ratio ({bytes} catalog bytes / {user_bytes} user bytes)",
            ratio(bytes as f64, user_bytes as f64)
        ));
    }
    if let Some((w, _)) = &phase.writer {
        let (p, note) = pct_note(&ns_to(&samples_of(&w.from_due_ns), 1e6), 50.0);
        info.push(format!(
            "restructure_p50_ms = {p} ms (from due time; {note}; {} restructures)",
            w.restructures
        ));
    }
    Ok(Outcome {
        correct: phase.gate.mismatches == 0,
        attempted: phase.attempted(),
        failed: phase.failed(),
        metrics,
        info,
    })
}

fn samples_of(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64).collect()
}

fn common_info(phase: &Phase) -> Vec<String> {
    let mut info = vec![format!(
        "failed_frac = {} ratio ({} failed of {} attempted: {} errors, {} sheds, {} digest mismatches)",
        ratio(phase.failed() as f64, phase.attempted() as f64),
        phase.failed(),
        phase.attempted(),
        phase.errors().len(),
        phase.sheds(),
        phase.gate.mismatches
    )];
    for e in phase.errors().iter().take(5) {
        info.push(format!("error: {e}"));
    }
    info
}

/// Repeat `round` (which processes `bytes` bytes) for at least `budget`;
/// nanoseconds per byte.
fn ns_per_byte(bytes: u64, budget: Duration, mut round: impl FnMut()) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < budget {
        round();
        rounds += 1;
    }
    start.elapsed().as_nanos() as f64 / (rounds * bytes) as f64
}

/// The traced run: an untraced window (for the tracing overhead), then an
/// equally long traced window on a fresh set-up with every span tree
/// head-sampled, and the per-layer metrics. The layer probes run in both
/// windows, so tracing is the only difference between them. Writes the
/// Chrome trace.
pub fn traced(args: &Args, work: &Path, trace_file: &Path) -> Result<Outcome> {
    let w = args.workload;
    // Each window is half the run.
    let secs = args.seconds as f64 / 2.0;

    let served = setup(w, args.seed, false, &catalog_dir(work, 0))?;
    let plain = measure(w, args.seed, &served, secs, false, true, Instant::now())?;
    served.teardown()?;

    let origin = Instant::now();
    let served = setup(w, args.seed, true, &catalog_dir(work, 1))?;
    let disk_before = served.dir.as_deref().map_or(0, dir_bytes);
    let before = served.server.metrics_snapshot();
    let phase = measure(w, args.seed, &served, secs, true, true, origin)?;
    let after = served.server.metrics_snapshot();
    let disk_after = served.dir.as_deref().map(dir_bytes);
    let delta = |key: &str| {
        after
            .scalar(key)
            .unwrap_or(0)
            .saturating_sub(before.scalar(key).unwrap_or(0)) as f64
    };

    // Layer probes after the window, on the same catalog.
    let mut extra_log = SpanLog::new(origin, true, 300);
    let window_ns = time_windows(&served, args.seed, &mut extra_log)?;
    let inproc_ns = time_inproc(&served, &mut extra_log)?;
    let (encode_npb, decode_npb) = time_codec(&phase, &served);
    let catalog_open_ns = served.catalog_open_ns;
    let user_bytes = served.user_bytes;
    served.teardown()?;

    let t = phase.totals();
    let gestures = t.gestures.max(1) as f64;
    let touches = t.touches as f64;
    let us = |v: &[u64]| median(&ns_to(&samples_of(v), 1e3));
    let ms = |v: &[u64]| median(&ns_to(&samples_of(v), 1e6));
    let client = |pick: fn(&ClientOut) -> &Vec<u64>| median(&ns_to(&phase.samples(pick), 1e3));
    let (probe, probe_log) = phase.probes.as_ref().expect("traced phase has probes");
    let trees = &probe.trees;
    let server_us = |name: &str, q: f64| {
        let v: Vec<f64> = trees
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        percentile(&v, q).map_or(0.0, |p| p.value)
    };
    let server_self = |name: &str| self_time_p50(trees.iter().map(|t| t.spans.as_slice()), name);
    let wire = wire_samples(&phase, trees);
    let root_name = trees
        .first()
        .map_or("touch".to_string(), |t| t.root().name.clone());

    let mut bench_logs: Vec<(u64, Vec<Span>)> = phase
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u64 + 1, c.log.spans.clone()))
        .collect();
    if let Some((_, log)) = &phase.writer {
        bench_logs.push((100, log.spans.clone()));
    }
    bench_logs.push((200, probe_log.spans.clone()));
    bench_logs.push((300, extra_log.spans.clone()));
    let client_self =
        |name: &str| self_time_p50(bench_logs.iter().map(|(_, s)| s.as_slice()), name);
    std::fs::write(trace_file, chrome_trace(&bench_logs, trees))
        .map_err(|e| DbTouchError::Io(format!("write {}: {e}", trace_file.display())))?;

    let na = "n/a on this workload";
    let persisted = matches!(w, Workload::WideScan | Workload::ChurnCold);
    let pick = |on: bool, v: f64| if on { v } else { 0.0 };
    let note = |on: bool, s: &str| if on { s.to_string() } else { na.to_string() };
    let writer = phase.writer.as_ref().map(|(wo, _)| wo);
    let wv = |f: fn(&WriterOut) -> &Vec<u64>, scale: fn(&[u64]) -> f64| {
        writer.map_or(0.0, |wo| scale(f(wo)))
    };
    let restructures = writer.map_or(0, |wo| wo.restructures);
    let wire_bytes = delta("net.bytes_in") + delta("net.bytes_out");
    let (gesture_p99, gesture_p99_note) = phase.gesture_ms(99.0, P99_WINDOW);
    let (traced_rate, _) = phase.touches_per_s();
    let (plain_rate, _) = plain.touches_per_s();

    let metrics = vec![
        metric(
            "net.handshake_us",
            us(&probe.handshake_ns),
            "us",
            "p50, TcpClient::wait_ready",
        ),
        metric(
            "net.set_action_us",
            client(|c| &c.set_action_ns),
            "us",
            "p50 client round trip",
        ),
        metric(
            "net.run_trace_ack_us",
            client(|c| &c.ack_ns),
            "us",
            "p50 client round trip",
        ),
        metric(
            "net.snapshot_us",
            client(|c| &c.snapshot_ns),
            "us",
            "p50 client round trip",
        ),
        metric(
            "net.admission_us",
            us(&probe.admission_ns),
            "us",
            "p50 metrics_snapshot + admit_trace",
        ),
        metric(
            "net.encode_ns_per_byte",
            encode_npb,
            "ns/B",
            "encode_request/encode_response over sampled frames",
        ),
        metric(
            "net.decode_ns_per_byte",
            decode_npb,
            "ns/B",
            "decode_request/decode_response over sampled frames",
        ),
        metric(
            "net.bytes_per_gesture",
            wire_bytes / gestures,
            "B",
            "net.bytes_in + net.bytes_out per gesture",
        ),
        metric(
            "net.shed_frac",
            ratio(delta("net.shed"), phase.attempted() as f64),
            "ratio",
            "net.shed / attempted",
        ),
        metric(
            "obs.metrics_snapshot_us",
            us(&probe.metrics_snapshot_ns),
            "us",
            "p50",
        ),
        metric(
            "obs.trees_retained",
            after.traces().len() as f64,
            "count",
            "at end of window",
        ),
        metric(
            "obs.spans_truncated",
            delta("obs.spans_truncated"),
            "count",
            "during window",
        ),
        metric(
            "obs.events_dropped",
            delta("obs.events_dropped"),
            "count",
            "during window",
        ),
        metric(
            "server.queue_wait_us_p50",
            server_us("queue_wait", 50.0),
            "us",
            format!("{} span trees", trees.len()),
        ),
        metric(
            "server.queue_wait_us_p99",
            server_us("queue_wait", 99.0),
            "us",
            format!("{} span trees", trees.len()),
        ),
        metric(
            "server.service_us_p50",
            server_us("service", 50.0),
            "us",
            format!("{} span trees", trees.len()),
        ),
        metric(
            "server.inproc_gesture_us",
            median(&ns_to(&samples_of(&inproc_ns), 1e3)),
            "us",
            "p50 in-process run_trace + snapshot",
        ),
        metric(
            "core.run_trace_us_per_touch",
            ratio(
                phase.gate.replay_ns as f64 / 1e3,
                phase.gate.replay_touches as f64,
            ),
            "us",
            "oracle replay",
        ),
        metric(
            "core.rows_per_touch",
            ratio(t.rows as f64, touches),
            "rows",
            "SessionStats",
        ),
        metric(
            "core.bytes_per_touch",
            ratio(t.bytes as f64, touches),
            "B",
            "SessionStats",
        ),
        metric(
            "core.cache_hit_frac",
            ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
            "ratio",
            "SessionStats",
        ),
        metric(
            "core.shared_cache_hit_frac",
            ratio(
                t.shared_hits as f64,
                (t.shared_hits + t.shared_misses) as f64,
            ),
            "ratio",
            "SessionStats",
        ),
        metric(
            "core.morsel.window_us",
            median(&ns_to(&samples_of(&window_ns), 1e3)),
            "us",
            "p50 window_stats on the morsel pool",
        ),
        metric(
            "core.morsel.segments_per_touch",
            ratio(t.segments as f64, touches),
            "segments",
            "SessionStats",
        ),
        metric(
            "core.morsel.steal_frac",
            ratio(delta("morsel.steals"), delta("morsel.segments_scanned")),
            "ratio",
            "morsel.steals / morsel.segments_scanned",
        ),
        metric(
            "core.checkout_us",
            us(&probe.checkout_ns),
            "us",
            "p50 SharedCatalog::checkout",
        ),
        metric(
            "core.refresh_us",
            wv(|wo| &wo.refresh_ns, us),
            "us",
            note(writer.is_some(), "p50 ObjectState::refresh after a publish"),
        ),
        metric(
            "core.drag_out_ms",
            wv(|wo| &wo.drag_out_ns, ms),
            "ms",
            note(writer.is_some(), "p50"),
        ),
        metric(
            "core.drag_in_ms",
            wv(|wo| &wo.drag_in_ns, ms),
            "ms",
            note(writer.is_some(), "p50"),
        ),
        metric(
            "core.restructure_p50_ms",
            wv(|wo| &wo.from_due_ns, ms),
            "ms",
            note(writer.is_some(), "p50 from due time"),
        ),
        metric(
            "core.catalog_open_ms",
            catalog_open_ns as f64 / 1e6,
            "ms",
            note(persisted, "SharedCatalog::open"),
        ),
        metric(
            "storage.pager.faults_per_touch",
            pick(persisted, ratio(phase.pager.faults as f64, touches)),
            "count",
            note(persisted, "pager_stats delta"),
        ),
        metric(
            "storage.pager.hit_frac",
            pick(
                persisted,
                ratio(
                    phase.pager.pool_hits as f64,
                    (phase.pager.pool_hits + phase.pager.faults) as f64,
                ),
            ),
            "ratio",
            note(persisted, ""),
        ),
        metric(
            "storage.pager.evictions_per_touch",
            pick(persisted, ratio(phase.pager.evictions as f64, touches)),
            "count",
            note(persisted, ""),
        ),
        metric(
            "storage.disk_bytes_per_restructure",
            ratio(
                disk_after.unwrap_or(0).saturating_sub(disk_before) as f64,
                restructures as f64,
            ),
            "B",
            note(writer.is_some(), "catalog growth / restructures"),
        ),
        metric(
            "storage.disk_bytes_per_user_byte",
            ratio(disk_after.unwrap_or(0) as f64, user_bytes as f64),
            "ratio",
            note(persisted, "catalog bytes / live user bytes"),
        ),
        metric(
            "bench.writer_lag_ms",
            wv(
                |wo| &wo.lag_ns,
                |v| v.iter().copied().max().unwrap_or(0) as f64 / 1e6,
            ),
            "ms",
            note(writer.is_some(), "max start - due"),
        ),
        metric(
            "bench.trace_overhead_frac",
            1.0 - ratio(traced_rate, plain_rate),
            "ratio",
            format!("untraced {plain_rate:.0} vs traced {traced_rate:.0} touches/s"),
        ),
        metric(
            "bench.failed_frac",
            ratio(
                (phase.failed() + plain.failed()) as f64,
                (phase.attempted() + plain.attempted()) as f64,
            ),
            "ratio",
            "",
        ),
        metric(
            "bench.gestures",
            t.gestures as f64,
            "count",
            "traced window",
        ),
        metric("bench.gesture_p99_ms", gesture_p99, "ms", gesture_p99_note),
        metric(
            "trace.self.client_gesture_us",
            client_self("gesture"),
            "us",
            "gesture span minus run_trace ack and snapshot",
        ),
        metric(
            "trace.self.server_root_us",
            server_self(&root_name),
            "us",
            format!("server `{root_name}` span minus children"),
        ),
        metric(
            "trace.self.service_us",
            server_self("service"),
            "us",
            "server `service` span minus children",
        ),
        metric(
            "trace.wire_us",
            median(&wire),
            "us",
            format!(
                "p50 client gesture minus its server root span, {} matched gestures",
                wire.len()
            ),
        ),
    ];
    let mut info = common_info(&plain);
    info.extend(common_info(&phase));
    info.push(format!("chrome trace: {}", trace_file.display()));
    for e in &probe.errors {
        info.push(format!("probe error: {e}"));
    }
    Ok(Outcome {
        correct: phase.gate.mismatches == 0 && plain.gate.mismatches == 0,
        attempted: phase.attempted() + plain.attempted(),
        failed: phase.failed() + plain.failed(),
        metrics,
        info,
    })
}

/// Median self time, µs, of the spans named `name`; each group of spans is
/// one id space (a benchmark thread's log, or one server tree).
fn self_time_p50<'a>(groups: impl Iterator<Item = &'a [Span]>, name: &str) -> f64 {
    let mut v = Vec::new();
    for spans in groups {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            if s.name == name {
                v.push(self_ns as f64 / 1e3);
            }
        }
    }
    median(&v)
}

/// Client gesture time minus its server span tree's root, µs: the share
/// spent outside the server's trace — wire, codec and connection handler.
/// Trees are matched to gestures by the trace id the client stamped.
fn wire_samples(phase: &Phase, trees: &[ServerTree]) -> Vec<f64> {
    trees
        .iter()
        .filter_map(|t| {
            let gesture = phase
                .clients
                .iter()
                .find_map(|c| c.gesture_traces.get(&t.trace))?;
            Some(gesture.saturating_sub(t.root().duration_ns()) as f64 / 1e3)
        })
        .collect()
}

/// Time `window_stats` on seeded windows of the workload's width, through
/// the catalog's morsel pool.
fn time_windows(served: &Served, seed: u64, log: &mut SpanLog) -> Result<Vec<u64>> {
    let data = served.catalog.data(served.object)?;
    let rows = data.row_count();
    let half = served
        .plans
        .first()
        .and_then(|p| match &p.action {
            dbtouch_core::kernel::TouchAction::Summary { half_window, .. } => *half_window,
            _ => None,
        })
        .unwrap_or(5);
    let segment_rows = served.catalog.config().segment_rows;
    let pool = served.catalog.morsel_pool().map(|p| p.as_ref());
    let mut state = seed ^ 0x5eed;
    let mut out = Vec::with_capacity(200);
    for _ in 0..200 {
        state = splitmix(state);
        let center = state % rows.max(1);
        let range = RowRange::new(center.saturating_sub(half), (center + half + 1).min(rows));
        let t = log.now();
        let c = Instant::now();
        std::hint::black_box(window_stats(&data, 0, 0, range, segment_rows, pool, None)?);
        out.push(c.elapsed().as_nanos() as u64);
        log.record(0, "core.morsel.window_stats", t, 0);
    }
    Ok(out)
}

/// The same plans through an in-process `ExplorationServer` over the same
/// catalog: the floor the TCP path is compared against.
fn time_inproc(served: &Served, log: &mut SpanLog) -> Result<Vec<u64>> {
    let server = ExplorationServer::serve(
        ServerConfig::with_workers(2).with_catalog(std::sync::Arc::clone(&served.catalog)),
    )?;
    let budget = Instant::now() + Duration::from_millis(1500);
    let mut out = Vec::new();
    'plans: for plan in served.plans.iter().cycle().take(served.plans.len().max(64)) {
        let session = server.open_session();
        session.set_action(served.object, plan.action.clone())?;
        for trace in &plan.traces {
            let t = log.now();
            let c = Instant::now();
            session.run_trace(served.object, trace.clone())?;
            session.snapshot()?;
            out.push(c.elapsed().as_nanos() as u64);
            log.record(0, "server.inproc_gesture", t, 0);
            if out.len() >= 512 || Instant::now() > budget {
                session.close()?;
                break 'plans;
            }
        }
        session.close()?;
    }
    server.shutdown();
    Ok(out)
}

/// Encode and decode the run's own frames: the sampled plans' `RunTrace`
/// requests and the sampled `Snapshot` reports.
fn time_codec(phase: &Phase, served: &Served) -> (f64, f64) {
    let requests: Vec<Request> = served
        .plans
        .iter()
        .take(4)
        .flat_map(|p| {
            p.traces
                .iter()
                .map(|t| Request::RunTrace(served.object, t.clone(), None))
        })
        .collect();
    let responses: Vec<Response> = phase
        .clients
        .iter()
        .flat_map(|c| c.sample_reports.iter().cloned().map(Response::Report))
        .collect();
    let req_frames: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    let resp_frames: Vec<Vec<u8>> = responses.iter().map(encode_response).collect();
    let bytes: u64 = req_frames
        .iter()
        .chain(&resp_frames)
        .map(|f| f.len() as u64)
        .sum();
    let budget = Duration::from_millis(60);
    let encode = ns_per_byte(bytes, budget, || {
        for r in &requests {
            std::hint::black_box(encode_request(r));
        }
        for r in &responses {
            std::hint::black_box(encode_response(r));
        }
    });
    let decode = ns_per_byte(bytes, budget, || {
        for f in &req_frames {
            std::hint::black_box(decode_request(f).ok());
        }
        for f in &resp_frames {
            std::hint::black_box(decode_response(f).ok());
        }
    });
    (encode, decode)
}
