//! The solver service process: acceptor, per-connection readers, the
//! single solver worker, the topic publisher, and the HTTP telemetry
//! endpoint.
//!
//! Threading model:
//!
//! * **acceptor** — non-blocking accept loop; spawns one reader per
//!   connection and joins them on shutdown. The acceptor owns the
//!   ingress [`SyncSender`]; readers hold clones, so once the
//!   acceptor and every reader exit, the worker's `recv` drains the
//!   queue and returns `Err` — graceful shutdown needs no sentinel.
//! * **reader (×N)** — decodes newline-delimited frames under a read
//!   timeout (polling the shutdown flag between timeouts), answers
//!   protocol-level requests inline (ping, subscribe, busy) and
//!   forwards deltas into the bounded queue.
//! * **worker** — owns the [`SolverLoop`]; applies deltas one at a
//!   time inside `catch_unwind`, acks the publisher connection, and
//!   publishes deployment diffs / degradation reports to subscribers.
//!   A panic poisons the loop (typed errors from then on) without
//!   killing the process.
//! * **http** — minimal HTTP/1.1 for `/metrics` (Prometheus text)
//!   and `/healthz`.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{
    delta_from_wire, DegradationMsg, DeploymentMsg, Reply, Request, OUT_TOPICS, TOPIC_DEGRADATION,
    TOPIC_DEPLOYMENTS,
};
use crate::ServiceError;
use uavnet_core::{diff_deployments, Delta, Instance, LoopConfig, ResolveStats, SolverLoop};
use uavnet_obs::{counters, gauges, hists, phases, SpanHandle};

/// Tuning of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the bounded delta ingress queue; overflow gets a
    /// typed [`Reply::Busy`], never unbounded buffering.
    pub queue_capacity: usize,
    /// Per-connection read timeout — also the shutdown-flag poll
    /// period for blocked readers.
    pub read_timeout: Duration,
    /// Per-connection write timeout; a subscriber stalled past this
    /// is dropped from the registry.
    pub write_timeout: Duration,
    /// Accept-loop poll period.
    pub poll_interval: Duration,
    /// Explicit parent for the worker's `service.worker` root span.
    /// `None` (the default) leaves it a root; an embedder that opens
    /// its own report-level span (as `service_report` does around the
    /// whole loopback run, in-process twin included) passes its handle
    /// here so the session's log stays one rooted tree. The service
    /// records into whatever obs session the embedder began and never
    /// begins or ends one itself, so the embedder ends its session
    /// after `shutdown_and_join` (the worker closes `service.worker`
    /// as it exits) and after dropping the guard owning this handle
    /// — a span guard dropped after session end is never written,
    /// leaving its children dangling. (Closing the parent before its
    /// children is fine: ids are allocated on span entry.)
    pub obs_parent: Option<uavnet_obs::SpanHandle>,
    /// A delta whose enqueue-to-publish latency exceeds this threshold
    /// emits a structured `service.slow_delta` event and bumps the
    /// `service.slow_deltas` counter.
    pub slow_delta_threshold: Duration,
    /// Test hook: the worker panics while applying the publish with
    /// this sequence number, exercising panic containment.
    pub inject_panic_on_seq: Option<u64>,
    /// Test hook: the worker sleeps this long before each apply, so
    /// backpressure tests can fill the bounded queue deterministically.
    pub apply_delay: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(20),
            obs_parent: None,
            slow_delta_threshold: Duration::from_millis(250),
            inject_panic_on_seq: None,
            apply_delay: Duration::ZERO,
        }
    }
}

/// What the worker had done by the time it drained and exited.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceSummary {
    /// Solve epochs completed (deltas absorbed; 0 = cold solve only).
    pub epochs: u64,
    /// Users served by the final published deployment.
    pub served: usize,
    /// The final published placements.
    pub placements: Vec<(usize, usize)>,
    /// Cumulative solver work counters.
    pub stats: ResolveStats,
    /// The panic message, when the worker was poisoned.
    pub worker_panic: Option<String>,
}

type SharedWriter = Arc<Mutex<TcpStream>>;

fn write_line_to(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn reply_to(writer: &SharedWriter, reply: &Reply) {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    let _ = write_line_to(&mut w, &reply.to_line());
}

struct Subscriber {
    stream: TcpStream,
    topics: Vec<String>,
}

/// Writes `reply` to every subscriber of `topic`, dropping
/// subscribers whose socket errors or stalls past the write timeout.
/// Each write is timed into the `service.subscriber_write_ns`
/// histogram; drops bump `service.subscriber_drops`.
fn publish(subscribers: &Mutex<Vec<Subscriber>>, topic: &str, reply: &Reply) {
    let line = reply.to_line();
    let mut subs = subscribers.lock().unwrap_or_else(|e| e.into_inner());
    subs.retain_mut(|s| {
        if !s.topics.iter().any(|t| t == topic) {
            return true;
        }
        let timer = hists::SUBSCRIBER_WRITE.timer();
        let ok = write_line_to(&mut s.stream, &line).is_ok();
        drop(timer);
        if !ok {
            counters::SERVICE_SUBSCRIBER_DROPS.add(1);
        }
        ok
    });
}

enum Job {
    Apply {
        seq: u64,
        /// Client correlation id, echoed on the ack and stamped on
        /// the frames this delta produces.
        trace_id: Option<String>,
        delta: Delta,
        /// When the reader enqueued the job; queue-wait is measured
        /// from here to the worker's dequeue.
        enqueued: Instant,
        /// The reader-side `service.ingress` span, parenting the
        /// worker-side queue-wait/apply/publish spans across the
        /// thread boundary.
        parent: Option<SpanHandle>,
        reply: SharedWriter,
    },
    Snapshot {
        reply: SharedWriter,
    },
}

/// Shared state the worker mutates for the other service threads.
struct WorkerShared {
    subscribers: Arc<Mutex<Vec<Subscriber>>>,
    healthy: Arc<AtomicBool>,
    deltas_applied: Arc<AtomicU64>,
    queue_depth: Arc<AtomicU64>,
    summary: Arc<Mutex<Option<ServiceSummary>>>,
}

/// The long-running solver service; [`SolverService::spawn`] is the
/// entry point.
pub struct SolverService;

impl SolverService {
    /// Cold-solves `instance`, stands up a [`SolverLoop`] on the
    /// result, and starts serving the delta pub/sub protocol on an
    /// ephemeral loopback TCP port (plus `/metrics` + `/healthz` on a
    /// second ephemeral port).
    ///
    /// # Errors
    ///
    /// Any [`CoreError`](uavnet_core::CoreError) of the cold solve, or
    /// socket bind failures.
    pub fn spawn(
        instance: Instance,
        loop_config: LoopConfig,
        config: ServiceConfig,
    ) -> Result<ServiceHandle, ServiceError> {
        let solver = SolverLoop::new(instance, loop_config)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let http_listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let http_addr = http_listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let healthy = Arc::new(AtomicBool::new(true));
        let deltas_applied = Arc::new(AtomicU64::new(0));
        let queue_depth = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        let subscribers = Arc::new(Mutex::new(Vec::<Subscriber>::new()));
        let summary = Arc::new(Mutex::new(None::<ServiceSummary>));
        let (tx, rx) = sync_channel::<Job>(config.queue_capacity);
        // The worker opens the session's root span on its own thread
        // and hands its handle back, so reader threads can parent
        // their ingress spans under it across the thread boundary.
        let (root_tx, root_rx) = std::sync::mpsc::channel::<Option<SpanHandle>>();

        let mut threads = Vec::new();
        {
            let shared = WorkerShared {
                subscribers: Arc::clone(&subscribers),
                healthy: Arc::clone(&healthy),
                deltas_applied: Arc::clone(&deltas_applied),
                queue_depth: Arc::clone(&queue_depth),
                summary: Arc::clone(&summary),
            };
            let config = config.clone();
            threads.push(std::thread::spawn(move || {
                worker_loop(solver, rx, &shared, &config, &root_tx, started);
            }));
        }
        let worker_root = root_rx.recv().unwrap_or(None);
        {
            let (shutdown, subscribers, queue_depth, config) = (
                Arc::clone(&shutdown),
                Arc::clone(&subscribers),
                Arc::clone(&queue_depth),
                config.clone(),
            );
            threads.push(std::thread::spawn(move || {
                accept_loop(
                    listener,
                    tx,
                    shutdown,
                    subscribers,
                    queue_depth,
                    worker_root,
                    config,
                );
            }));
        }
        {
            let (shutdown, healthy, deltas_applied, queue_depth, config) = (
                Arc::clone(&shutdown),
                Arc::clone(&healthy),
                Arc::clone(&deltas_applied),
                Arc::clone(&queue_depth),
                config.clone(),
            );
            threads.push(std::thread::spawn(move || {
                http_loop(
                    http_listener,
                    &shutdown,
                    &healthy,
                    &deltas_applied,
                    &queue_depth,
                    started,
                    &config,
                );
            }));
        }

        Ok(ServiceHandle {
            addr,
            http_addr,
            shutdown,
            healthy,
            threads,
            summary,
        })
    }
}

/// Handle to a running service: addresses, liveness, and shutdown.
pub struct ServiceHandle {
    addr: SocketAddr,
    http_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    healthy: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    summary: Arc<Mutex<Option<ServiceSummary>>>,
}

impl ServiceHandle {
    /// The pub/sub protocol address (loopback, ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP telemetry address serving `/metrics` and `/healthz`.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// `false` once the worker was poisoned by a panic.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Requests graceful shutdown (idempotent): stop accepting,
    /// drain in-flight deltas, publish a final snapshot. Returns
    /// immediately; use [`shutdown_and_join`](Self::shutdown_and_join)
    /// to wait.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Requests shutdown and waits for every service thread to exit,
    /// returning the worker's summary.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Closed`] if the worker died without writing a
    /// summary (it panicked outside the contained apply path).
    pub fn shutdown_and_join(self) -> Result<ServiceSummary, ServiceError> {
        self.request_shutdown();
        for t in self.threads {
            let _ = t.join();
        }
        self.summary
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .ok_or(ServiceError::Closed)
    }
}

fn worker_loop(
    mut solver: SolverLoop,
    rx: Receiver<Job>,
    shared: &WorkerShared,
    config: &ServiceConfig,
    root_tx: &std::sync::mpsc::Sender<Option<SpanHandle>>,
    started: Instant,
) {
    let subscribers = &*shared.subscribers;
    // One root span for the worker's whole life: every per-delta
    // subtree hangs under it (via the reader-side ingress spans), so
    // a recorded session validates as a single-root tree.
    let root = phases::SERVICE_WORKER.span_under(config.obs_parent);
    let _ = root_tx.send(root.handle());

    let mut epoch: u64 = 0;
    let mut published = solver.placements().to_vec();
    let mut last_served = solver.served_users();
    let mut poisoned: Option<String> = None;

    while let Ok(job) = rx.recv() {
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        gauges::SERVICE_QUEUE_DEPTH.set(shared.queue_depth.load(Ordering::SeqCst));
        gauges::SERVICE_UPTIME_SECONDS.set(started.elapsed().as_secs());
        match job {
            Job::Snapshot { reply } => {
                let msg = match &poisoned {
                    Some(m) => Reply::Error {
                        seq: None,
                        message: format!("solver worker poisoned: {m}"),
                    },
                    None => Reply::Deployment(DeploymentMsg {
                        epoch,
                        served: last_served,
                        trace_id: None,
                        placements: published.clone(),
                        added: Vec::new(),
                        removed: Vec::new(),
                        is_final: false,
                    }),
                };
                reply_to(&reply, &msg);
            }
            Job::Apply {
                seq,
                trace_id,
                delta,
                enqueued,
                parent,
                reply,
            } => {
                phases::SERVICE_QUEUE_WAIT
                    .record_ns_under(parent, enqueued.elapsed().as_nanos() as u64);
                if let Some(m) = &poisoned {
                    reply_to(
                        &reply,
                        &Reply::Error {
                            seq: Some(seq),
                            message: format!("solver worker poisoned: {m}"),
                        },
                    );
                    continue;
                }
                if !config.apply_delay.is_zero() {
                    std::thread::sleep(config.apply_delay);
                }
                let served_before = solver.served_users();
                let inject = config.inject_panic_on_seq == Some(seq);
                let apply_span = phases::SERVICE_APPLY.span_under(parent);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if inject {
                        panic!("injected worker panic at seq {seq}");
                    }
                    solver.apply(delta)
                }));
                drop(apply_span);
                match result {
                    Ok(Ok(outcome)) => {
                        epoch += 1;
                        last_served = outcome.served;
                        shared.deltas_applied.fetch_add(1, Ordering::Relaxed);
                        reply_to(
                            &reply,
                            &Reply::Ack {
                                seq,
                                trace_id: trace_id.clone(),
                                outcome: outcome.clone(),
                            },
                        );
                        let now = solver.placements().to_vec();
                        let diff = diff_deployments(&published, &now);
                        {
                            let _publish_span = phases::SERVICE_PUBLISH.span_under(parent);
                            publish(
                                subscribers,
                                TOPIC_DEPLOYMENTS,
                                &Reply::Deployment(DeploymentMsg {
                                    epoch,
                                    served: outcome.served,
                                    trace_id: trace_id.clone(),
                                    placements: now.clone(),
                                    added: diff.added,
                                    removed: diff.removed,
                                    is_final: false,
                                }),
                            );
                            published = now;
                            if outcome.served < served_before
                                || outcome.dropped_placements > 0
                                || outcome.relays_spent > 0
                                || outcome.cold_solved
                            {
                                publish(
                                    subscribers,
                                    TOPIC_DEGRADATION,
                                    &Reply::Degradation(DegradationMsg {
                                        epoch,
                                        trace_id,
                                        served_before,
                                        served_after: outcome.served,
                                        dropped_placements: outcome.dropped_placements,
                                        relays_spent: outcome.relays_spent,
                                        cold_solved: outcome.cold_solved,
                                    }),
                                );
                                counters::SERVICE_PUBLISH_DEGRADATION.add(1);
                            }
                        }
                        let total_ns = enqueued.elapsed().as_nanos() as u64;
                        if total_ns > config.slow_delta_threshold.as_nanos() as u64 {
                            counters::SERVICE_SLOW_DELTAS.add(1);
                            uavnet_obs::emit_run(
                                "service.slow_delta",
                                &[
                                    ("seq", seq),
                                    ("epoch", epoch),
                                    ("total_ns", total_ns),
                                    (
                                        "threshold_ns",
                                        config.slow_delta_threshold.as_nanos() as u64,
                                    ),
                                ],
                            );
                        }
                    }
                    Ok(Err(core_err)) => {
                        // Typed solver refusal (bad ids, infeasible
                        // repair): the loop state is unchanged, the
                        // service stays healthy.
                        reply_to(
                            &reply,
                            &Reply::Error {
                                seq: Some(seq),
                                message: format!("solver error: {core_err}"),
                            },
                        );
                    }
                    Err(payload) => {
                        // Containment: the loop state may be torn
                        // mid-apply, so poison it — subsequent deltas
                        // and snapshots get typed errors, `/healthz`
                        // flips — but the process and its telemetry
                        // stay up.
                        let m = panic_message(payload);
                        shared.healthy.store(false, Ordering::SeqCst);
                        poisoned = Some(m.clone());
                        reply_to(
                            &reply,
                            &Reply::Error {
                                seq: Some(seq),
                                message: ServiceError::WorkerPanicked(m).to_string(),
                            },
                        );
                    }
                }
            }
        }
    }

    // Every sender is gone and the queue is drained: publish the
    // final snapshot and leave a summary for `shutdown_and_join`.
    publish(
        subscribers,
        TOPIC_DEPLOYMENTS,
        &Reply::Deployment(DeploymentMsg {
            epoch,
            served: last_served,
            trace_id: None,
            placements: published.clone(),
            added: Vec::new(),
            removed: Vec::new(),
            is_final: true,
        }),
    );
    *shared.summary.lock().unwrap_or_else(|e| e.into_inner()) = Some(ServiceSummary {
        epochs: epoch,
        served: last_served,
        placements: published,
        stats: solver.stats().clone(),
        worker_panic: poisoned,
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<Job>,
    shutdown: Arc<AtomicBool>,
    subscribers: Arc<Mutex<Vec<Subscriber>>>,
    queue_depth: Arc<AtomicU64>,
    worker_root: Option<SpanHandle>,
    config: ServiceConfig,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let tx = tx.clone();
                let shutdown = Arc::clone(&shutdown);
                let subscribers = Arc::clone(&subscribers);
                let queue_depth = Arc::clone(&queue_depth);
                let config = config.clone();
                readers.push(std::thread::spawn(move || {
                    let _ = serve_conn(
                        stream,
                        &tx,
                        &shutdown,
                        &subscribers,
                        &queue_depth,
                        worker_root,
                        &config,
                    );
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(config.poll_interval);
            }
            Err(_) => break,
        }
    }
    // Dropping the acceptor's sender — after every reader (each holds
    // a clone) exits — is what ends the worker's `recv` loop.
    drop(tx);
    for r in readers {
        let _ = r.join();
    }
}

/// One protocol connection: decode frames until EOF, socket error,
/// or shutdown.
fn serve_conn(
    stream: TcpStream,
    tx: &SyncSender<Job>,
    shutdown: &AtomicBool,
    subscribers: &Mutex<Vec<Subscriber>>,
    queue_depth: &AtomicU64,
    worker_root: Option<SpanHandle>,
    config: &ServiceConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    let writer: SharedWriter = {
        let w = stream.try_clone()?;
        w.set_write_timeout(Some(config.write_timeout))?;
        Arc::new(Mutex::new(w))
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {}
            // Timeout: poll the shutdown flag and keep reading. Any
            // partial frame already pulled stays accumulated in
            // `line`, so a slow writer is not corrupted.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
        let frame = line.trim_end_matches(['\r', '\n']);
        if frame.trim().is_empty() {
            line.clear();
            continue;
        }
        let request = Request::from_line(frame);
        line.clear();
        match request {
            Err(e) => reply_to(
                &writer,
                &Reply::Error {
                    seq: None,
                    message: e.to_string(),
                },
            ),
            Ok(Request::Ping) => reply_to(&writer, &Reply::Pong),
            Ok(Request::Shutdown) => {
                shutdown.store(true, Ordering::SeqCst);
                reply_to(&writer, &Reply::ShuttingDown);
                return Ok(());
            }
            Ok(Request::Subscribe { topics }) => {
                if let Some(bad) = topics.iter().find(|t| !OUT_TOPICS.contains(&t.as_str())) {
                    reply_to(
                        &writer,
                        &Reply::Error {
                            seq: None,
                            message: format!(
                                "unknown topic {bad:?}; outbound topics are {OUT_TOPICS:?}"
                            ),
                        },
                    );
                    continue;
                }
                let sub_stream = {
                    let w = reader.get_ref().try_clone()?;
                    w.set_write_timeout(Some(config.write_timeout))?;
                    w
                };
                subscribers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Subscriber {
                        stream: sub_stream,
                        topics: topics.clone(),
                    });
                reply_to(&writer, &Reply::Subscribed { topics });
            }
            Ok(Request::Snapshot) => {
                let job = Job::Snapshot {
                    reply: Arc::clone(&writer),
                };
                queue_depth.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        queue_depth.fetch_sub(1, Ordering::SeqCst);
                        reply_to(
                            &writer,
                            &Reply::Error {
                                seq: None,
                                message: format!(
                                    "ingress queue full (capacity {}); retry snapshot",
                                    config.queue_capacity
                                ),
                            },
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        queue_depth.fetch_sub(1, Ordering::SeqCst);
                        reply_to(
                            &writer,
                            &Reply::Error {
                                seq: None,
                                message: "service shutting down".to_string(),
                            },
                        );
                        return Ok(());
                    }
                }
            }
            Ok(Request::Publish {
                topic,
                seq,
                trace_id,
                payload,
            }) => {
                // The ingress span covers decode + enqueue on the
                // reader thread; its handle rides in the job so the
                // worker-side queue-wait/apply/publish spans parent
                // under it across the thread boundary.
                let ingress = phases::SERVICE_INGRESS.span_under(worker_root);
                match delta_from_wire(&topic, &payload) {
                    Err(e) => reply_to(
                        &writer,
                        &Reply::Error {
                            seq: Some(seq),
                            message: e.to_string(),
                        },
                    ),
                    Ok(delta) => {
                        let parent = ingress.handle().or(worker_root);
                        let job = Job::Apply {
                            seq,
                            trace_id: trace_id.clone(),
                            delta,
                            enqueued: Instant::now(),
                            parent,
                            reply: Arc::clone(&writer),
                        };
                        queue_depth.fetch_add(1, Ordering::SeqCst);
                        match tx.try_send(job) {
                            Ok(()) => {}
                            Err(TrySendError::Full(_)) => {
                                queue_depth.fetch_sub(1, Ordering::SeqCst);
                                counters::SERVICE_BUSY_REJECTIONS.add(1);
                                reply_to(
                                    &writer,
                                    &Reply::Busy {
                                        seq,
                                        trace_id,
                                        queue_capacity: config.queue_capacity,
                                    },
                                );
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                queue_depth.fetch_sub(1, Ordering::SeqCst);
                                reply_to(
                                    &writer,
                                    &Reply::Error {
                                        seq: Some(seq),
                                        message: "service shutting down".to_string(),
                                    },
                                );
                                return Ok(());
                            }
                        }
                    }
                }
            }
        }
    }
}

fn http_loop(
    listener: TcpListener,
    shutdown: &AtomicBool,
    healthy: &AtomicBool,
    deltas_applied: &AtomicU64,
    queue_depth: &AtomicU64,
    started: Instant,
    config: &ServiceConfig,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_http(
                    stream,
                    healthy,
                    deltas_applied,
                    queue_depth,
                    started,
                    config,
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(config.poll_interval);
            }
            Err(_) => break,
        }
    }
}

fn serve_http(
    stream: TcpStream,
    healthy: &AtomicBool,
    deltas_applied: &AtomicU64,
    queue_depth: &AtomicU64,
    started: Instant,
    config: &ServiceConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers until the blank line; ignore their content.
    let mut header = String::new();
    loop {
        header.clear();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/metrics" => {
            // The obs snapshot carries every counter/phase/histogram/
            // gauge family with HELP+TYPE headers (including the
            // `service.queue_depth` / `service.uptime_seconds` gauges
            // the worker samples). The lines below add only what obs
            // cannot know (worker health, the always-on delta count)
            // and, when the instrumentation is compiled out, the
            // queue/uptime gauges straight from the shared atomics.
            let mut body = uavnet_obs::snapshot().to_prometheus();
            body.push_str(&format!(
                "# HELP uavnet_service_healthy 1 while the solver worker is unpoisoned.\n\
                 # TYPE uavnet_service_healthy gauge\nuavnet_service_healthy {}\n\
                 # HELP uavnet_service_deltas_applied_total Deltas applied by the solver worker.\n\
                 # TYPE uavnet_service_deltas_applied_total counter\n\
                 uavnet_service_deltas_applied_total {}\n",
                u8::from(healthy.load(Ordering::SeqCst)),
                deltas_applied.load(Ordering::Relaxed),
            ));
            if !uavnet_obs::is_enabled() {
                body.push_str(&format!(
                    "# HELP uavnet_service_queue_depth Deltas waiting in the bounded ingress queue.\n\
                     # TYPE uavnet_service_queue_depth gauge\nuavnet_service_queue_depth {}\n\
                     # HELP uavnet_service_uptime_seconds Seconds since the service spawned.\n\
                     # TYPE uavnet_service_uptime_seconds gauge\nuavnet_service_uptime_seconds {}\n",
                    queue_depth.load(Ordering::SeqCst),
                    started.elapsed().as_secs(),
                ));
            }
            ("200 OK", body)
        }
        "/healthz" => {
            if healthy.load(Ordering::SeqCst) {
                ("200 OK", "ok\n".to_string())
            } else {
                (
                    "503 Service Unavailable",
                    "unhealthy: solver worker poisoned\n".to_string(),
                )
            }
        }
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}
