//! The live re-deployment path: a solver service on loopback with one
//! publisher and one `deployments` subscriber connection, and the
//! in-process replay every wire run is checked against.

use crate::gen::{latency_from_due, Kind};
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::{Tracer, Track};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uavnet_core::{
    approx_alg_with_stats, assign_users, ApproxConfig, CoreError, Delta, DeltaOutcome, Instance,
    LoopConfig, ResolveStats, SolverLoop,
};
use uavnet_service::proto::{delta_from_wire, delta_to_wire, TOPIC_DEPLOYMENTS};
use uavnet_service::{
    DeploymentMsg, Reply, Request, ServiceConfig, ServiceError, ServiceHandle, SolverService,
};

/// How long a reply or frame may take before the run counts it as
/// missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Per delta kind, how many `Instance::with_*` calls the traced replay
/// times directly (each is a full instance rebuild at scale).
const MODEL_PROBES_PER_KIND: usize = 5;

/// One published delta and the timestamps taken around its send.
#[derive(Debug)]
pub struct Sent {
    /// Sequence number, also its trace id.
    pub seq: u64,
    /// Delta kind.
    pub kind: Kind,
    /// The delta itself, for the replay.
    pub delta: Delta,
    /// When it was due (open loop) or when the previous one completed
    /// (closed loop).
    pub due: Instant,
    /// Encoding began.
    pub encode_start: Instant,
    /// Encoding ended; the write began.
    pub encode_end: Instant,
    /// The write returned.
    pub sent: Instant,
    /// Frame size including the newline.
    pub bytes: usize,
    /// Sent by the closed loop.
    pub closed: bool,
    /// The encoded frame, kept for traced deltas' decode probe.
    pub line: Option<String>,
}

/// A reply on the publisher connection.
#[derive(Debug)]
struct Ack {
    at: Instant,
    outcome: Result<DeltaOutcome, String>,
}

/// A decoded `deployments` frame.
#[derive(Debug)]
struct Frame {
    at: Instant,
    decode: Duration,
    msg: DeploymentMsg,
}

/// A line read by a reader thread, decoded, with its timestamps.
struct Line {
    at: Instant,
    decode: Duration,
    reply: Result<Reply, String>,
}

/// A running service plus the benchmark's two connections to it.
pub struct Session {
    handle: ServiceHandle,
    writer: TcpStream,
    acks: Receiver<Line>,
    frames_rx: Receiver<Line>,
    readers: Vec<JoinHandle<()>>,
    received: Received,
}

/// The `deployments` frames received so far, by sequence number, and
/// anything that arrived that no delta asked for.
#[derive(Default)]
struct Received {
    frames: HashMap<u64, Frame>,
    strays: Vec<String>,
}

impl Received {
    fn absorb(&mut self, line: Line) {
        match line.reply {
            Ok(Reply::Deployment(msg)) if msg.is_final => {}
            Ok(Reply::Deployment(msg)) => {
                match msg.trace_id.as_deref().and_then(|t| t.parse::<u64>().ok()) {
                    Some(seq) if !self.frames.contains_key(&seq) => {
                        self.frames.insert(
                            seq,
                            Frame {
                                at: line.at,
                                decode: line.decode,
                                msg,
                            },
                        );
                    }
                    _ => self
                        .strays
                        .push(format!("frame with unknown trace id {:?}", msg.trace_id)),
                }
            }
            other => self.strays.push(format!("unexpected frame {other:?}")),
        }
    }
}

/// Reads newline-delimited replies until EOF, error or a final
/// deployments frame, decoding each as it arrives.
fn spawn_reader(mut reader: BufReader<TcpStream>, tx: Sender<Line>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let start = Instant::now();
            let reply = Reply::from_line(line.trim_end()).map_err(|e| e.to_string());
            let at = Instant::now();
            let last = matches!(&reply, Ok(Reply::Deployment(d)) if d.is_final);
            if tx
                .send(Line {
                    at,
                    decode: at - start,
                    reply,
                })
                .is_err()
                || last
            {
                return;
            }
        }
    })
}

fn connect(handle: &ServiceHandle) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(2 * REPLY_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

impl Session {
    /// Spawns the service on `instance` (its cold solve included) and
    /// connects the subscriber, then the publisher.
    pub fn open(instance: Instance, loop_config: LoopConfig) -> Result<Session, String> {
        let handle = SolverService::spawn(instance, loop_config, ServiceConfig::default())
            .map_err(|e| format!("spawn service: {e}"))?;
        match Self::connect_both(&handle) {
            Ok((writer, acks, frames_rx, readers)) => Ok(Session {
                handle,
                writer,
                acks,
                frames_rx,
                readers,
                received: Received::default(),
            }),
            Err(e) => {
                let _ = handle.shutdown_and_join();
                Err(e)
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn connect_both(
        handle: &ServiceHandle,
    ) -> Result<
        (
            TcpStream,
            Receiver<Line>,
            Receiver<Line>,
            Vec<JoinHandle<()>>,
        ),
        String,
    > {
        let mut sub = connect(handle)?;
        let subscribe = Request::Subscribe {
            topics: vec![TOPIC_DEPLOYMENTS.to_string()],
        };
        writeln!(sub, "{}", subscribe.to_line()).map_err(|e| format!("subscribe: {e}"))?;
        let mut sub_reader = BufReader::new(sub);
        let mut line = String::new();
        sub_reader
            .read_line(&mut line)
            .map_err(|e| format!("subscribe reply: {e}"))?;
        match Reply::from_line(line.trim_end()) {
            Ok(Reply::Subscribed { .. }) => {}
            other => return Err(format!("subscribe refused: {other:?}")),
        }
        let (frame_tx, frames_rx) = channel();
        let mut readers = vec![spawn_reader(sub_reader, frame_tx)];
        let writer = connect(handle)?;
        let ack_reader = writer
            .try_clone()
            .map_err(|e| format!("clone publisher socket: {e}"))?;
        let (ack_tx, acks) = channel();
        readers.push(spawn_reader(BufReader::new(ack_reader), ack_tx));
        Ok((writer, acks, frames_rx, readers))
    }

    /// Encodes and writes one `Publish` with `trace_id` = `seq`,
    /// without waiting for its ack.
    pub fn send(
        &mut self,
        seq: u64,
        delta: Delta,
        due: Instant,
        closed: bool,
        keep_line: bool,
    ) -> Result<Sent, String> {
        let encode_start = Instant::now();
        let (topic, payload) = delta_to_wire(&delta);
        let mut line = Request::Publish {
            topic: topic.to_string(),
            seq,
            trace_id: Some(seq.to_string()),
            payload,
        }
        .to_line();
        line.push('\n');
        let encode_end = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("publish {seq}: {e}"))?;
        let sent = Instant::now();
        Ok(Sent {
            seq,
            kind: Kind::of(&delta),
            delta,
            due,
            encode_start,
            encode_end,
            sent,
            bytes: line.len(),
            closed,
            line: keep_line.then(|| {
                line.pop();
                line
            }),
        })
    }

    /// Waits until the `deployments` frame of `seq` has arrived;
    /// `false` when `deadline` passes first.
    pub fn await_frame(&mut self, seq: u64, deadline: Instant) -> bool {
        while !self.received.frames.contains_key(&seq) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.frames_rx.recv_timeout(left) {
                Ok(line) => self.received.absorb(line),
                Err(_) => return false,
            }
        }
        true
    }

    /// Closes the publisher, shuts the service down (it drains and
    /// publishes a final frame), joins every reader and returns what
    /// arrived.
    pub fn close(self) -> Result<Wire, String> {
        let Session {
            handle,
            writer,
            acks: ack_rx,
            frames_rx,
            readers,
            mut received,
        } = self;
        let _ = writer.shutdown(Shutdown::Write);
        let summary = handle
            .shutdown_and_join()
            .map_err(|e| format!("service shutdown: {e}"))?;
        while let Ok(line) = frames_rx.recv_timeout(REPLY_TIMEOUT) {
            received.absorb(line);
        }
        let mut acks = HashMap::new();
        while let Ok(line) = ack_rx.recv_timeout(REPLY_TIMEOUT) {
            let (seq, outcome) = match line.reply {
                Ok(Reply::Ack { seq, outcome, .. }) => (seq, Ok(outcome)),
                Ok(Reply::Busy { seq, .. }) => (seq, Err("busy".to_string())),
                Ok(Reply::Error {
                    seq: Some(seq),
                    message,
                }) => (seq, Err(message)),
                other => {
                    received.strays.push(format!("unexpected reply {other:?}"));
                    continue;
                }
            };
            if acks
                .insert(
                    seq,
                    Ack {
                        at: line.at,
                        outcome,
                    },
                )
                .is_some()
            {
                received.strays.push(format!("second reply for seq {seq}"));
            }
        }
        for r in readers {
            r.join().map_err(|_| "reader thread panicked".to_string())?;
        }
        Ok(Wire {
            acks,
            frames: received.frames,
            strays: received.strays,
            final_placements: summary.placements,
            final_served: summary.served,
        })
    }
}

/// Everything the wire run received.
pub struct Wire {
    acks: HashMap<u64, Ack>,
    frames: HashMap<u64, Frame>,
    strays: Vec<String>,
    final_placements: Vec<(usize, usize)>,
    final_served: usize,
}

impl Wire {
    /// Users served by the deployment the `deployments` frame of `seq`
    /// published, if that frame arrived.
    pub fn served_after(&self, seq: u64) -> Option<usize> {
        self.frames.get(&seq).map(|f| f.msg.served)
    }

    /// End-to-end latency of `sent`: due time to its frame, if one
    /// arrived.
    pub fn e2e(&self, sent: &Sent) -> Option<Duration> {
        self.frames
            .get(&sent.seq)
            .map(|f| latency_from_due(sent.due, f.at))
    }

    /// Counts failed attempts (busy/error replies, missing frames) and
    /// records correctness problems: frames no delta asked for, and a
    /// frame that disagrees with its ack.
    pub fn account(&self, sent: &[Sent], report: &mut Report) {
        for p in &self.strays {
            report.check(false, || format!("wire: {p}"));
        }
        for s in sent {
            let ack = self.acks.get(&s.seq);
            let frame = self.frames.get(&s.seq);
            match (ack.map(|a| &a.outcome), frame) {
                (Some(Ok(outcome)), Some(frame)) => {
                    report.check(frame.msg.served == outcome.served, || {
                        format!(
                            "delta {}: frame serves {}, ack {}",
                            s.seq, frame.msg.served, outcome.served
                        )
                    })
                }
                _ => report.failed += 1,
            }
        }
        let seqs: HashSet<u64> = sent.iter().map(|s| s.seq).collect();
        for seq in self.frames.keys().filter(|q| !seqs.contains(q)) {
            report.check(false, || {
                format!("frame carries trace id {seq}, which no delta had")
            });
        }
    }
}

/// Builds `current` again through the public builder, without the
/// `dead` UAVs and with the `severed` links cut: the instance a cold
/// re-solve would face.
pub fn rebuild_instance(
    current: &Instance,
    dead: &[usize],
    severed: &[(usize, usize)],
) -> Result<Instance, CoreError> {
    let mut builder = Instance::builder(current.grid().clone(), current.uav_channel().range_m());
    builder.users(current.users().iter().copied());
    builder.uavs(
        current
            .uavs()
            .iter()
            .enumerate()
            .filter(|(k, _)| !dead.contains(k))
            .map(|(_, u)| *u),
    );
    if let Some(g) = current.gateway() {
        builder.gateway(g);
    }
    let rebuilt = builder.build()?;
    if severed.is_empty() {
        Ok(rebuilt)
    } else {
        rebuilt.with_severed_links(severed)
    }
}

/// What the in-process replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// `(seq, kind, start, end)` of every replayed `apply`.
    pub applies: Vec<(u64, Kind, Instant, Instant)>,
    /// Cumulative solver work counters after the replay.
    pub stats: ResolveStats,
    /// Links severed by the stream.
    pub severed: Vec<(usize, usize)>,
    /// The replayed loop after the last delta.
    pub solver: Option<SolverLoop>,
    /// A copy of the loop, and the links severed so far, right after
    /// the delta `replay` was asked to snapshot.
    pub snapshot: Option<(SolverLoop, Vec<(usize, usize)>)>,
    /// Per kill: served after it over a cold re-solve with the
    /// survivors (traced only).
    pub kill_ratios: Vec<f64>,
    /// Applies timed outside the stream, by kind (the kill probe).
    pub probe_applies: Vec<(Kind, Duration)>,
    /// `Instance::with_*` call times by kind (traced only).
    pub model: Vec<(Kind, Duration)>,
    /// `Request::from_line` + `delta_from_wire` times by kind (traced
    /// only).
    pub decodes: Vec<(Kind, Duration)>,
    /// `assign_users` times on the replayed deployments (traced only).
    pub assigns: Vec<Duration>,
}

/// Replays the acked deltas into a fresh in-process loop built the way
/// the service built its own, timing each `apply`, and checks the wire
/// against it: every ack's served count, every frame's placements and
/// the final deployment must be bit-identical. `snapshot_after` names
/// a delta after which to keep a copy of the loop; `traced` adds the
/// per-layer probes.
pub fn replay(
    initial: Instance,
    loop_config: &LoopConfig,
    sent: &[Sent],
    wire: &Wire,
    snapshot_after: Option<u64>,
    traced: bool,
    report: &mut Report,
) -> Replay {
    let mut out = Replay::default();
    let mut solver = match SolverLoop::new(initial, loop_config.clone()) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("replay cold solve: {e}"));
            return out;
        }
    };
    for s in sent {
        let Some(Ack {
            outcome: Ok(acked), ..
        }) = wire.acks.get(&s.seq)
        else {
            continue;
        };
        if traced {
            probe_model(&solver, s, &mut out);
            if let Some(line) = &s.line {
                let start = Instant::now();
                let decoded = Request::from_line(line).and_then(|r| match r {
                    Request::Publish { topic, payload, .. } => delta_from_wire(&topic, &payload),
                    other => Err(ServiceError::Protocol(format!("not a publish: {other:?}"))),
                });
                out.decodes.push((s.kind, start.elapsed()));
                report.check(decoded.as_ref().ok() == Some(&s.delta), || {
                    format!("delta {}: wire decode differs from the sent delta", s.seq)
                });
            }
        }
        let start = Instant::now();
        let applied = solver.apply(s.delta.clone());
        let end = Instant::now();
        let outcome = match applied {
            Ok(o) => o,
            Err(e) => {
                report.check(false, || {
                    format!("replay rejected acked delta {}: {e}", s.seq)
                });
                return out;
            }
        };
        out.applies.push((s.seq, s.kind, start, end));
        if let Delta::SeverLinks(links) = &s.delta {
            out.severed.extend(links);
        }
        if snapshot_after == Some(s.seq) {
            out.snapshot = Some((solver.clone(), out.severed.clone()));
        }
        report.check(
            (
                outcome.served,
                outcome.dirty_tiles,
                outcome.dropped_placements,
            ) == (acked.served, acked.dirty_tiles, acked.dropped_placements),
            || {
                format!(
                    "delta {}: replay outcome {outcome:?} differs from ack {acked:?}",
                    s.seq
                )
            },
        );
        if let Some(frame) = wire.frames.get(&s.seq) {
            report.check(frame.msg.placements == solver.placements(), || {
                format!(
                    "delta {}: published placements differ from the replay",
                    s.seq
                )
            });
        }
        if traced {
            let start = Instant::now();
            let assignment = assign_users(solver.instance(), solver.placements());
            out.assigns.push(start.elapsed());
            report.check(assignment.served == solver.served_users(), || {
                format!(
                    "delta {}: incremental serves {}, a cold assignment {}",
                    s.seq,
                    solver.served_users(),
                    assignment.served
                )
            });
            if s.kind == Kind::Kill {
                match cold_served(&solver, &out.severed, &loop_config.approx) {
                    Ok(cold) => out
                        .kill_ratios
                        .push(solver.served_users() as f64 / cold.max(1) as f64),
                    Err(e) => report.check(false, || format!("kill re-solve: {e}")),
                }
            }
        }
    }
    report.check(
        wire.final_placements == solver.placements() && wire.final_served == solver.served_users(),
        || "final published deployment differs from the replay".to_string(),
    );
    out.stats = solver.stats().clone();
    out.solver = Some(solver);
    out
}

/// Users a cold `approx_alg` serves on `solver`'s current instance with
/// its dead UAVs removed and the `severed` links cut.
pub fn cold_served(
    solver: &SolverLoop,
    severed: &[(usize, usize)],
    approx: &ApproxConfig,
) -> Result<usize, CoreError> {
    let instance = rebuild_instance(solver.instance(), &solver.dead_uavs(), severed)?;
    Ok(approx_alg_with_stats(&instance, approx)?.0.served_users())
}

/// Every single-UAV loss of `solver`'s standing deployment, each on its
/// own copy of the loop: the repair's served users over a cold re-solve
/// with the survivors, one printed row per loss. Adds to `out`'s kill
/// ratios and timed kill applies.
pub fn kill_probe(
    solver: &SolverLoop,
    approx: &ApproxConfig,
    severed: &[(usize, usize)],
    out: &mut Replay,
    report: &mut Report,
) {
    for &(uav, cell) in solver.placements() {
        let mut copy = solver.clone();
        let start = Instant::now();
        let applied = copy.apply(Delta::KillUavs(vec![uav]));
        let elapsed = start.elapsed();
        match (applied, cold_served(&copy, severed, approx)) {
            (Ok(outcome), Ok(cold)) => {
                println!(
                    "kill: uav {uav} at cell {cell}: repair serves {} of {}, a cold re-solve \
                     with the survivors {cold}",
                    outcome.served,
                    solver.served_users(),
                );
                out.probe_applies.push((Kind::Kill, elapsed));
                out.kill_ratios
                    .push(outcome.served as f64 / cold.max(1) as f64);
            }
            (Err(e), _) | (_, Err(e)) => report.check(false, || format!("kill probe: {e}")),
        }
    }
}

/// Times the `Instance::with_*` call behind `s` on the loop's current
/// instance, for the first few deltas of each kind.
fn probe_model(solver: &SolverLoop, s: &Sent, out: &mut Replay) {
    if out.model.iter().filter(|(k, _)| *k == s.kind).count() >= MODEL_PROBES_PER_KIND {
        return;
    }
    let instance = solver.instance();
    let start = Instant::now();
    let built = match &s.delta {
        Delta::UserMoved(moves) => instance.with_moved_users(moves).map(drop),
        Delta::UserSurge(users) => instance.with_extra_users(users).map(drop),
        Delta::SeverLinks(links) => instance.with_severed_links(links).map(drop),
        _ => return,
    };
    if built.is_ok() {
        out.model.push((s.kind, start.elapsed()));
    }
}

/// Records the spans of every delta: `delta` → `encode`, `send`, `ack`,
/// `frame` from the wire run and `apply` from its replay.
pub fn record_spans(tracer: &mut Tracer, sent: &[Sent], wire: &Wire, replay: &Replay) {
    let applies: HashMap<u64, (Instant, Instant)> = replay
        .applies
        .iter()
        .map(|&(seq, _, start, end)| (seq, (start, end)))
        .collect();
    for s in sent {
        let id = s.seq.to_string();
        let end = wire.frames.get(&s.seq).map_or(s.sent, |f| f.at);
        let root = tracer.record("delta", &id, None, Track::Caller, s.due, end);
        tracer.record(
            "encode",
            &id,
            Some(root),
            Track::Caller,
            s.encode_start,
            s.encode_end,
        );
        tracer.record("send", &id, Some(root), Track::Caller, s.encode_end, s.sent);
        if let Some(a) = wire.acks.get(&s.seq) {
            tracer.record("ack", &id, Some(root), Track::Acks, s.sent, a.at);
        }
        if let Some(f) = wire.frames.get(&s.seq) {
            tracer.record(
                "frame",
                &id,
                Some(root),
                Track::Frames,
                f.at - f.decode,
                f.at,
            );
        }
        if let Some(&(start, end)) = applies.get(&s.seq) {
            tracer.record("apply", &id, Some(root), Track::Replay, start, end);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sets the per-layer metrics of the live path (model mutations,
/// incremental engine, wire protocol, service) from one wire run and
/// its replay, prints the per-delta budget, and checks that the
/// budget's residual is non-negative for at least 95% of deltas.
pub fn layer_metrics(sent: &[Sent], wire: &Wire, replay: &Replay, report: &mut Report) {
    let by_kind = |samples: &[(Kind, Duration)], kind: Kind| -> Vec<f64> {
        samples
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, d)| ms(d))
            .collect()
    };
    let applies: Vec<(Kind, Duration)> = replay
        .applies
        .iter()
        .map(|&(_, k, start, end)| (k, end - start))
        .chain(replay.probe_applies.iter().copied())
        .collect();
    for (name, kind) in [
        ("incremental.apply_move_ms", Kind::Move),
        ("incremental.apply_surge_ms", Kind::Surge),
        ("incremental.apply_sever_ms", Kind::Sever),
        ("incremental.apply_kill_ms", Kind::Kill),
    ] {
        let v = by_kind(&applies, kind);
        report.set(name, median(&v), v.len());
    }
    for (name, kind) in [
        ("model.with_moved_users_ms", Kind::Move),
        ("model.with_extra_users_ms", Kind::Surge),
        ("model.with_severed_links_ms", Kind::Sever),
    ] {
        let v = by_kind(&replay.model, kind);
        report.set(name, median(&v), v.len());
    }
    let st = &replay.stats;
    let n = replay.applies.len();
    for (name, count) in [
        ("incremental.dirty_tiles", st.dirty_tiles),
        ("incremental.stations_refreshed", st.stations_refreshed),
        ("incremental.repairs", st.repairs),
        ("incremental.cold_solves", st.cold_solves),
        ("incremental.matching_rebuilds", st.matching_rebuilds),
        ("incremental.dropped_placements", st.dropped_placements),
        ("incremental.relays_spent", st.relays_spent),
    ] {
        report.set(name, Some(count as f64), n);
    }
    report.set(
        "incremental.kill_served_ratio",
        replay.kill_ratios.iter().copied().reduce(f64::min),
        replay.kill_ratios.len(),
    );

    // The wire cost that matters is the mobility batch's: faults are a
    // few bytes.
    let moves = || sent.iter().filter(|s| s.kind == Kind::Move);
    let bytes: Vec<f64> = moves().map(|s| s.bytes as f64).collect();
    report.set("proto.publish_bytes", mean(&bytes), bytes.len());
    let encode: Vec<f64> = moves().map(|s| us(s.encode_end - s.encode_start)).collect();
    report.set("proto.publish_encode_us", median(&encode), encode.len());
    let decode: Vec<f64> = replay
        .decodes
        .iter()
        .filter(|(k, _)| *k == Kind::Move)
        .map(|&(_, d)| us(d))
        .collect();
    report.set("proto.publish_decode_us", median(&decode), decode.len());
    let frame_decode: Vec<f64> = wire.frames.values().map(|f| us(f.decode)).collect();
    report.set(
        "proto.frame_decode_us",
        median(&frame_decode),
        frame_decode.len(),
    );

    let ack_at = |s: &Sent| wire.acks.get(&s.seq).map(|a| a.at);
    let rtt: Vec<f64> = sent
        .iter()
        .filter(|s| s.closed)
        .filter_map(|s| ack_at(s).map(|a| ms(a.saturating_duration_since(s.sent))))
        .collect();
    report.set("service.publish_rtt_ms", median(&rtt), rtt.len());
    // Ack and frame arrive on two client threads within microseconds of
    // each other, in either order: keep the sign.
    let fan_out: Vec<f64> = sent
        .iter()
        .filter_map(|s| {
            let (frame, ack) = (wire.frames.get(&s.seq)?.at, ack_at(s)?);
            Some(
                ms(frame.saturating_duration_since(ack)) - ms(ack.saturating_duration_since(frame)),
            )
        })
        .collect();
    report.set("service.ack_to_frame_ms", median(&fan_out), fan_out.len());
    let busy = wire
        .acks
        .values()
        .filter(|a| matches!(&a.outcome, Err(m) if m == "busy"))
        .count();
    report.set("service.busy_replies", Some(busy as f64), wire.acks.len());

    let apply_of: HashMap<u64, Duration> = replay
        .applies
        .iter()
        .map(|&(seq, _, start, end)| (seq, end - start))
        .collect();
    let mut residuals = Vec::new();
    let mut table =
        String::from("budget: seq kind phase | lag + encode + apply + residual = e2e (ms)\n");
    for s in sent {
        let (Some(e2e), Some(&apply)) = (wire.e2e(s), apply_of.get(&s.seq)) else {
            continue;
        };
        let lag = ms(s.encode_start.saturating_duration_since(s.due));
        let encode = ms(s.encode_end - s.encode_start);
        let residual = ms(e2e) - lag - encode - ms(apply);
        residuals.push(residual);
        table.push_str(&format!(
            "budget: {:>4} {:<5} {:<6} | {:>8.3} + {:>7.3} + {:>8.3} + {:>8.3} = {:>8.3}\n",
            s.seq,
            s.kind.label(),
            if s.closed { "closed" } else { "open" },
            lag,
            encode,
            ms(apply),
            residual,
            ms(e2e)
        ));
    }
    let nonneg = residuals.iter().filter(|&&r| r >= 0.0).count();
    table.push_str(&format!(
        "budget: residual >= 0 for {nonneg} of {} deltas\n",
        residuals.len()
    ));
    print!("{table}");
    // The replayed apply is a second measurement of the same work, so
    // on a noisy machine it can exceed the wire run's whole latency; a
    // budget that stops adding up is flagged, not failed.
    if nonneg * 100 < residuals.len() * 95 {
        eprintln!(
            "benchmark: budget residual negative for more than 5% of deltas (noisy machine?)"
        );
    }
    report.set("service.residual_ms", median(&residuals), residuals.len());
}
