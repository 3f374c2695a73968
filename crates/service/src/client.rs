//! Blocking client for the solver service protocol, with retrying
//! connect and backoff on typed [`Reply::Busy`] backpressure.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::proto::{delta_to_wire, DeploymentMsg, Reply, Request};
use crate::ServiceError;
use uavnet_core::{Delta, DeltaOutcome};

/// What a publish came back with: the applied outcome plus the
/// request-correlation extras the server echoes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PublishReceipt {
    /// The solver's applied-delta outcome from the ack.
    pub outcome: DeltaOutcome,
    /// The trace id echoed by the server (equals the one sent, when
    /// one was sent).
    pub trace_id: Option<String>,
    /// Round-trip time of the *acked* attempt, measured send→ack at
    /// the client (excludes busy-backoff sleeps and rejected
    /// attempts).
    pub rtt: Duration,
}

/// Timeouts and retry policy of a [`ServiceClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connect attempts before giving up (the service binds before
    /// `spawn` returns, so this mostly covers slow test machines).
    pub connect_retries: u32,
    /// Base of the exponential backoff between retries (doubles each
    /// attempt), shared by connect and busy-retry paths.
    pub backoff_base: Duration,
    /// Resend attempts when a publish gets [`Reply::Busy`] before
    /// surfacing a typed [`ServiceError::Busy`].
    pub busy_retries: u32,
    /// Socket read timeout (a reply or subscribed event must arrive
    /// within this window).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_retries: 5,
            backoff_base: Duration::from_millis(10),
            busy_retries: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// One protocol connection. Replies arrive in request order, so a
/// connection used for publishing should not also subscribe — open a
/// second client for the event stream (the server accepts any number
/// of connections).
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    config: ClientConfig,
    next_seq: u64,
}

impl ServiceClient {
    /// Connects with retry/backoff.
    ///
    /// # Errors
    ///
    /// The last socket error once every attempt is exhausted.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<Self, ServiceError> {
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..=config.connect_retries {
            if attempt > 0 {
                std::thread::sleep(config.backoff_base * (1u32 << (attempt - 1).min(10)));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(config.read_timeout))?;
                    stream.set_write_timeout(Some(config.write_timeout))?;
                    let writer = stream.try_clone()?;
                    return Ok(ServiceClient {
                        reader: BufReader::new(stream),
                        writer,
                        config,
                        next_seq: 0,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ServiceError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::other("connect failed with no attempts")
        })))
    }

    fn send(&mut self, request: &Request) -> Result<(), ServiceError> {
        let line = request.to_line();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Reply, ServiceError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ServiceError::Closed);
            }
            let frame = line.trim_end_matches(['\r', '\n']);
            if frame.trim().is_empty() {
                continue;
            }
            return Reply::from_line(frame);
        }
    }

    /// Publishes one delta and waits for its ack, resending with
    /// exponential backoff while the server reports
    /// [`Reply::Busy`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] once busy retries are exhausted,
    /// [`ServiceError::Remote`] for a server-reported failure (bad
    /// payload, poisoned worker), or socket-level errors.
    pub fn publish(&mut self, delta: &Delta) -> Result<DeltaOutcome, ServiceError> {
        self.publish_traced(delta, None).map(|r| r.outcome)
    }

    /// [`publish`](Self::publish) carrying an optional `trace_id`,
    /// returning the full [`PublishReceipt`]: the outcome, the echoed
    /// trace id, and the measured ack round-trip time. The server
    /// stamps the same id on the `deployments`/`degradation` frames
    /// this delta produced, so subscribers can correlate them.
    ///
    /// # Errors
    ///
    /// As [`publish`](Self::publish).
    pub fn publish_traced(
        &mut self,
        delta: &Delta,
        trace_id: Option<&str>,
    ) -> Result<PublishReceipt, ServiceError> {
        let (topic, payload) = delta_to_wire(delta);
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = Request::Publish {
            topic: topic.to_string(),
            seq,
            trace_id: trace_id.map(str::to_string),
            payload,
        };
        let mut queue_capacity = 0;
        for attempt in 0..=self.config.busy_retries {
            if attempt > 0 {
                std::thread::sleep(self.config.backoff_base * (1u32 << (attempt - 1).min(10)));
            }
            let sent_at = Instant::now();
            self.send(&request)?;
            match self.recv()? {
                Reply::Ack {
                    seq: ack_seq,
                    trace_id: echoed,
                    outcome,
                } => {
                    if ack_seq != seq {
                        return Err(ServiceError::Protocol(format!(
                            "ack for seq {ack_seq}, expected {seq}"
                        )));
                    }
                    return Ok(PublishReceipt {
                        outcome,
                        trace_id: echoed,
                        rtt: sent_at.elapsed(),
                    });
                }
                Reply::Busy {
                    queue_capacity: reported,
                    ..
                } => queue_capacity = reported,
                Reply::Error { message, .. } => return Err(ServiceError::Remote(message)),
                other => {
                    return Err(ServiceError::Protocol(format!(
                        "unexpected reply to publish: {other:?}"
                    )))
                }
            }
        }
        Err(ServiceError::Busy {
            seq,
            queue_capacity,
        })
    }

    /// Subscribes this connection to outbound topics; subsequent
    /// events arrive via [`next_event`](Self::next_event).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] for unknown topics.
    pub fn subscribe(&mut self, topics: &[&str]) -> Result<(), ServiceError> {
        self.send(&Request::Subscribe {
            topics: topics.iter().map(|t| t.to_string()).collect(),
        })?;
        match self.recv()? {
            Reply::Subscribed { .. } => Ok(()),
            Reply::Error { message, .. } => Err(ServiceError::Remote(message)),
            other => Err(ServiceError::Protocol(format!(
                "unexpected reply to subscribe: {other:?}"
            ))),
        }
    }

    /// Blocks (up to the read timeout) for the next published event
    /// on this subscribed connection.
    ///
    /// # Errors
    ///
    /// Socket errors, [`ServiceError::Closed`] on EOF, or a protocol
    /// error for an undecodable frame.
    pub fn next_event(&mut self) -> Result<Reply, ServiceError> {
        self.recv()
    }

    /// Requests the current deployment snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] when the worker is poisoned or the
    /// ingress queue is full.
    pub fn snapshot(&mut self) -> Result<DeploymentMsg, ServiceError> {
        self.send(&Request::Snapshot)?;
        match self.recv()? {
            Reply::Deployment(msg) => Ok(msg),
            Reply::Error { message, .. } => Err(ServiceError::Remote(message)),
            other => Err(ServiceError::Protocol(format!(
                "unexpected reply to snapshot: {other:?}"
            ))),
        }
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Socket errors or an unexpected reply.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Reply::Pong => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "unexpected reply to ping: {other:?}"
            ))),
        }
    }

    /// Asks the server to shut down gracefully (drain, final
    /// snapshot, exit).
    ///
    /// # Errors
    ///
    /// Socket errors or an unexpected reply.
    pub fn shutdown_server(&mut self) -> Result<(), ServiceError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Reply::ShuttingDown => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "unexpected reply to shutdown: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server whose queue is always full: once the client's busy
    /// retries run out, the typed error carries the capacity the last
    /// `Busy` reply reported.
    #[test]
    fn exhausted_busy_retries_keep_the_reported_capacity() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
        let addr = listener.local_addr().expect("fake server address");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the client");
            let mut writer = stream.try_clone().expect("clone the socket");
            let mut publishes = 0u32;
            for line in BufReader::new(stream).lines() {
                let Ok(Request::Publish { seq, trace_id, .. }) =
                    Request::from_line(&line.expect("read a request"))
                else {
                    panic!("the client sends only publishes");
                };
                publishes += 1;
                let busy = Reply::Busy {
                    seq,
                    trace_id,
                    queue_capacity: 7,
                };
                writeln!(writer, "{}", busy.to_line()).expect("write busy");
            }
            publishes
        });

        let config = ClientConfig {
            busy_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let mut client = ServiceClient::connect(addr, config).expect("connect");
        let err = client
            .publish(&Delta::KillUavs(vec![0]))
            .expect_err("every attempt is refused");
        assert!(
            matches!(
                err,
                ServiceError::Busy {
                    seq: 0,
                    queue_capacity: 7
                }
            ),
            "got {err:?}"
        );
        drop(client);
        assert_eq!(
            server.join().expect("fake server"),
            3,
            "one send + 2 retries"
        );
    }
}
