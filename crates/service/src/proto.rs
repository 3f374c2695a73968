//! Wire protocol of the solver service: newline-delimited JSON.
//!
//! Every frame is one [`Json`] value serialized with
//! [`Json::dump_line`] (guaranteed newline-free) followed by `\n`.
//! Requests flow client→server, replies server→client; published
//! topic messages (`deployments`, `degradation`) reuse the [`Reply`]
//! frames so a subscriber decodes one stream of replies.
//!
//! Topic registry:
//!
//! | topic             | direction | payload                          |
//! |-------------------|-----------|----------------------------------|
//! | `deltas/mobility` | in        | `{"moves":[[user,x,y],…]}`       |
//! | `deltas/kill`     | in        | `{"uavs":[k,…]}`                 |
//! | `deltas/sever`    | in        | `{"links":[[a,b],…]}`            |
//! | `deltas/surge`    | in        | `{"users":[[x,y,min_rate],…]}`   |
//! | `deployments`     | out       | [`DeploymentMsg`]                |
//! | `degradation`     | out       | [`DegradationMsg`]               |

use crate::ServiceError;
use uavnet_core::{Delta, DeltaOutcome, User};
use uavnet_geom::Point2;
use uavnet_json::Json;

/// Outbound topic: the standing deployment, as diffs + full placements.
pub const TOPIC_DEPLOYMENTS: &str = "deployments";
/// Outbound topic: numeric degradation reports after lossy repairs.
pub const TOPIC_DEGRADATION: &str = "degradation";
/// Inbound topic for [`Delta::UserMoved`] batches.
pub const TOPIC_DELTAS_MOBILITY: &str = "deltas/mobility";
/// Inbound topic for [`Delta::KillUavs`] batches.
pub const TOPIC_DELTAS_KILL: &str = "deltas/kill";
/// Inbound topic for [`Delta::SeverLinks`] batches.
pub const TOPIC_DELTAS_SEVER: &str = "deltas/sever";
/// Inbound topic for [`Delta::UserSurge`] batches.
pub const TOPIC_DELTAS_SURGE: &str = "deltas/surge";

/// All inbound delta topics, for validation and docs.
pub const DELTA_TOPICS: &[&str] = &[
    TOPIC_DELTAS_MOBILITY,
    TOPIC_DELTAS_KILL,
    TOPIC_DELTAS_SEVER,
    TOPIC_DELTAS_SURGE,
];

/// All subscribable outbound topics.
pub const OUT_TOPICS: &[&str] = &[TOPIC_DEPLOYMENTS, TOPIC_DEGRADATION];

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn unum(n: usize) -> Json {
    Json::Num(n as f64)
}

fn proto_err(what: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(what.into())
}

fn want_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ServiceError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| proto_err(format!("missing string field {key:?}")))
}

fn want_f64(v: &Json, key: &str) -> Result<f64, ServiceError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| proto_err(format!("missing numeric field {key:?}")))
}

fn want_index(v: &Json, key: &str) -> Result<usize, ServiceError> {
    let n = want_f64(v, key)?;
    to_index(n, key)
}

fn to_index(n: f64, what: &str) -> Result<usize, ServiceError> {
    if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
        return Err(proto_err(format!(
            "{what} must be a non-negative integer, got {n}"
        )));
    }
    Ok(n as usize)
}

fn want_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], ServiceError> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| proto_err(format!("missing array field {key:?}")))
}

fn bool_field(v: &Json, key: &str) -> bool {
    matches!(v.get(key), Some(Json::Bool(true)))
}

fn opt_str_field(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_string)
}

fn push_trace_id(pairs: &mut Vec<(&str, Json)>, trace_id: &Option<String>) {
    if let Some(id) = trace_id {
        pairs.push(("trace_id", Json::Str(id.clone())));
    }
}

fn pair_list(items: &[Json], what: &str) -> Result<Vec<(usize, usize)>, ServiceError> {
    items
        .iter()
        .map(|p| {
            let pair = p
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| proto_err(format!("{what} entries must be [a, b] pairs")))?;
            let a = pair[0]
                .as_f64()
                .ok_or_else(|| proto_err(format!("{what} entries must be numeric")))?;
            let b = pair[1]
                .as_f64()
                .ok_or_else(|| proto_err(format!("{what} entries must be numeric")))?;
            Ok((to_index(a, what)?, to_index(b, what)?))
        })
        .collect()
}

fn placements_json(placements: &[(usize, usize)]) -> Json {
    Json::Arr(
        placements
            .iter()
            .map(|&(uav, cell)| Json::Arr(vec![unum(uav), unum(cell)]))
            .collect(),
    )
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Publish one payload to an inbound `deltas/*` topic.
    Publish {
        /// Target topic (one of [`DELTA_TOPICS`]).
        topic: String,
        /// Client-chosen sequence number, echoed on the ack/busy/error.
        seq: u64,
        /// Optional client-chosen trace id: echoed on the
        /// [`Reply::Ack`]/[`Reply::Busy`] and stamped on the
        /// `deployments`/`degradation` frames this delta produced, so
        /// a subscriber can correlate a publish to its consequences.
        trace_id: Option<String>,
        /// Topic-specific payload object.
        payload: Json,
    },
    /// Subscribe this connection to outbound topics.
    Subscribe {
        /// Requested topics (subset of [`OUT_TOPICS`]).
        topics: Vec<String>,
    },
    /// Request the full standing deployment as a one-off reply.
    Snapshot,
    /// Liveness probe; the server replies [`Reply::Pong`].
    Ping,
    /// Begin graceful shutdown: drain in-flight deltas, publish a
    /// final snapshot, exit.
    Shutdown,
}

impl Request {
    /// Serializes to one newline-free frame.
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Publish {
                topic,
                seq,
                trace_id,
                payload,
            } => {
                let mut pairs = vec![
                    ("type", Json::Str("publish".into())),
                    ("topic", Json::Str(topic.clone())),
                    ("seq", unum(*seq as usize)),
                ];
                push_trace_id(&mut pairs, trace_id);
                pairs.push(("payload", payload.clone()));
                obj(pairs)
            }
            Request::Subscribe { topics } => obj(vec![
                ("type", Json::Str("subscribe".into())),
                (
                    "topics",
                    Json::Arr(topics.iter().map(|t| Json::Str(t.clone())).collect()),
                ),
            ]),
            Request::Snapshot => obj(vec![("type", Json::Str("snapshot".into()))]),
            Request::Ping => obj(vec![("type", Json::Str("ping".into()))]),
            Request::Shutdown => obj(vec![("type", Json::Str("shutdown".into()))]),
        };
        v.dump_line()
    }

    /// Parses one frame.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on malformed JSON or an unknown
    /// `type`.
    pub fn from_line(line: &str) -> Result<Request, ServiceError> {
        let v = Json::parse(line).map_err(|e| proto_err(format!("bad frame: {e}")))?;
        match want_str(&v, "type")? {
            "publish" => Ok(Request::Publish {
                topic: want_str(&v, "topic")?.to_string(),
                seq: want_index(&v, "seq")? as u64,
                trace_id: opt_str_field(&v, "trace_id"),
                payload: v
                    .get("payload")
                    .cloned()
                    .ok_or_else(|| proto_err("publish frame missing payload"))?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                topics: want_arr(&v, "topics")?
                    .iter()
                    .map(|t| {
                        t.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| proto_err("topics must be strings"))
                    })
                    .collect::<Result<_, _>>()?,
            }),
            "snapshot" => Ok(Request::Snapshot),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(proto_err(format!("unknown request type {other:?}"))),
        }
    }
}

/// The standing deployment, published on `deployments` after every
/// absorbed delta (and as the reply to [`Request::Snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentMsg {
    /// Monotone solve epoch: 0 is the cold solve, +1 per absorbed
    /// delta.
    pub epoch: u64,
    /// Users served by this deployment.
    pub served: usize,
    /// The full placement set `(uav, cell)` — lets any subscriber
    /// reconstruct state without replaying diffs.
    pub placements: Vec<(usize, usize)>,
    /// Placements added since the previous published epoch.
    pub added: Vec<(usize, usize)>,
    /// Placements removed since the previous published epoch.
    pub removed: Vec<(usize, usize)>,
    /// Set on the last message before a graceful shutdown.
    pub is_final: bool,
    /// Trace id of the `Publish` whose delta produced this epoch, when
    /// the client supplied one (absent on cold-solve, snapshot and
    /// final-drain frames).
    pub trace_id: Option<String>,
}

/// Numeric degradation report, published on `degradation` whenever a
/// delta cost coverage or forced a repair: the served count before the
/// delta plus the delta's [`DeltaOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationMsg {
    /// Epoch of the triggering delta.
    pub epoch: u64,
    /// Users served before the delta.
    pub served_before: usize,
    /// Users served after repair.
    pub served_after: usize,
    /// Standing placements the repair abandoned.
    pub dropped_placements: usize,
    /// Spare UAVs spent as relays.
    pub relays_spent: usize,
    /// Whether the delta escalated to a full cold re-solve.
    pub cold_solved: bool,
    /// Trace id of the `Publish` whose delta triggered this report,
    /// when the client supplied one.
    pub trace_id: Option<String>,
}

/// A server→client frame (direct reply or published topic message).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The delta at `seq` was absorbed.
    Ack {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Echo of the request's trace id, when supplied.
        trace_id: Option<String>,
        /// What the solver did with it.
        outcome: DeltaOutcome,
    },
    /// The bounded ingress queue was full; the delta was **not**
    /// enqueued. Retry after a backoff.
    Busy {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Echo of the request's trace id, when supplied.
        trace_id: Option<String>,
        /// The queue capacity that was exhausted.
        queue_capacity: usize,
    },
    /// The request failed.
    Error {
        /// Echo of the request's sequence number, when attributable.
        seq: Option<u64>,
        /// Human-readable cause.
        message: String,
    },
    /// Subscription confirmed.
    Subscribed {
        /// The topics now active on this connection.
        topics: Vec<String>,
    },
    /// A `deployments` topic message (or snapshot reply).
    Deployment(DeploymentMsg),
    /// A `degradation` topic message.
    Degradation(DegradationMsg),
    /// Liveness answer to [`Request::Ping`].
    Pong,
    /// Graceful-shutdown acknowledgement; the connection will close
    /// after in-flight deltas drain.
    ShuttingDown,
}

impl Reply {
    /// Serializes to one newline-free frame.
    pub fn to_line(&self) -> String {
        let v = match self {
            Reply::Ack {
                seq,
                trace_id,
                outcome,
            } => {
                let mut pairs = vec![
                    ("type", Json::Str("ack".into())),
                    ("seq", unum(*seq as usize)),
                ];
                push_trace_id(&mut pairs, trace_id);
                pairs.push((
                    "outcome",
                    obj(vec![
                        ("served", unum(outcome.served)),
                        ("stations_refreshed", unum(outcome.stations_refreshed)),
                        ("relays_spent", unum(outcome.relays_spent)),
                        ("dropped_placements", unum(outcome.dropped_placements)),
                        ("cold_solved", Json::Bool(outcome.cold_solved)),
                    ]),
                ));
                obj(pairs)
            }
            Reply::Busy {
                seq,
                trace_id,
                queue_capacity,
            } => {
                let mut pairs = vec![
                    ("type", Json::Str("busy".into())),
                    ("seq", unum(*seq as usize)),
                ];
                push_trace_id(&mut pairs, trace_id);
                pairs.push(("queue_capacity", unum(*queue_capacity)));
                obj(pairs)
            }
            Reply::Error { seq, message } => {
                let mut pairs = vec![("type", Json::Str("error".into()))];
                if let Some(seq) = seq {
                    pairs.push(("seq", unum(*seq as usize)));
                }
                pairs.push(("message", Json::Str(message.clone())));
                obj(pairs)
            }
            Reply::Subscribed { topics } => obj(vec![
                ("type", Json::Str("subscribed".into())),
                (
                    "topics",
                    Json::Arr(topics.iter().map(|t| Json::Str(t.clone())).collect()),
                ),
            ]),
            Reply::Deployment(d) => {
                let mut pairs = vec![
                    ("type", Json::Str("deployment".into())),
                    ("epoch", unum(d.epoch as usize)),
                    ("served", unum(d.served)),
                ];
                push_trace_id(&mut pairs, &d.trace_id);
                pairs.push(("placements", placements_json(&d.placements)));
                pairs.push(("added", placements_json(&d.added)));
                pairs.push(("removed", placements_json(&d.removed)));
                pairs.push(("final", Json::Bool(d.is_final)));
                obj(pairs)
            }
            Reply::Degradation(d) => {
                let mut pairs = vec![
                    ("type", Json::Str("degradation".into())),
                    ("epoch", unum(d.epoch as usize)),
                ];
                push_trace_id(&mut pairs, &d.trace_id);
                pairs.push(("served_before", unum(d.served_before)));
                pairs.push(("served_after", unum(d.served_after)));
                pairs.push(("dropped_placements", unum(d.dropped_placements)));
                pairs.push(("relays_spent", unum(d.relays_spent)));
                pairs.push(("cold_solved", Json::Bool(d.cold_solved)));
                obj(pairs)
            }
            Reply::Pong => obj(vec![("type", Json::Str("pong".into()))]),
            Reply::ShuttingDown => obj(vec![("type", Json::Str("shutting_down".into()))]),
        };
        v.dump_line()
    }

    /// Parses one frame.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on malformed JSON or an unknown
    /// `type`.
    pub fn from_line(line: &str) -> Result<Reply, ServiceError> {
        let v = Json::parse(line).map_err(|e| proto_err(format!("bad frame: {e}")))?;
        match want_str(&v, "type")? {
            "ack" => {
                let o = v
                    .get("outcome")
                    .ok_or_else(|| proto_err("ack frame missing outcome"))?;
                let mut outcome = DeltaOutcome::default();
                outcome.served = want_index(o, "served")?;
                outcome.stations_refreshed = want_index(o, "stations_refreshed")?;
                outcome.relays_spent = want_index(o, "relays_spent")?;
                outcome.dropped_placements = want_index(o, "dropped_placements")?;
                outcome.cold_solved = bool_field(o, "cold_solved");
                Ok(Reply::Ack {
                    seq: want_index(&v, "seq")? as u64,
                    trace_id: opt_str_field(&v, "trace_id"),
                    outcome,
                })
            }
            "busy" => Ok(Reply::Busy {
                seq: want_index(&v, "seq")? as u64,
                trace_id: opt_str_field(&v, "trace_id"),
                queue_capacity: want_index(&v, "queue_capacity")?,
            }),
            "error" => Ok(Reply::Error {
                seq: v.get("seq").and_then(Json::as_f64).map(|n| n as u64),
                message: want_str(&v, "message")?.to_string(),
            }),
            "subscribed" => Ok(Reply::Subscribed {
                topics: want_arr(&v, "topics")?
                    .iter()
                    .map(|t| {
                        t.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| proto_err("topics must be strings"))
                    })
                    .collect::<Result<_, _>>()?,
            }),
            "deployment" => Ok(Reply::Deployment(DeploymentMsg {
                epoch: want_index(&v, "epoch")? as u64,
                served: want_index(&v, "served")?,
                placements: pair_list(want_arr(&v, "placements")?, "placements")?,
                added: pair_list(want_arr(&v, "added")?, "added")?,
                removed: pair_list(want_arr(&v, "removed")?, "removed")?,
                is_final: bool_field(&v, "final"),
                trace_id: opt_str_field(&v, "trace_id"),
            })),
            "degradation" => Ok(Reply::Degradation(DegradationMsg {
                epoch: want_index(&v, "epoch")? as u64,
                served_before: want_index(&v, "served_before")?,
                served_after: want_index(&v, "served_after")?,
                dropped_placements: want_index(&v, "dropped_placements")?,
                relays_spent: want_index(&v, "relays_spent")?,
                cold_solved: bool_field(&v, "cold_solved"),
                trace_id: opt_str_field(&v, "trace_id"),
            })),
            "pong" => Ok(Reply::Pong),
            "shutting_down" => Ok(Reply::ShuttingDown),
            other => Err(proto_err(format!("unknown reply type {other:?}"))),
        }
    }
}

/// Encodes a [`Delta`] as its `(topic, payload)` wire form.
pub fn delta_to_wire(delta: &Delta) -> (&'static str, Json) {
    match delta {
        Delta::UserMoved(moves) => (
            TOPIC_DELTAS_MOBILITY,
            obj(vec![(
                "moves",
                Json::Arr(
                    moves
                        .iter()
                        .map(|&(user, p)| {
                            Json::Arr(vec![unum(user as usize), Json::Num(p.x), Json::Num(p.y)])
                        })
                        .collect(),
                ),
            )]),
        ),
        Delta::KillUavs(uavs) => (
            TOPIC_DELTAS_KILL,
            obj(vec![(
                "uavs",
                Json::Arr(uavs.iter().map(|&u| unum(u)).collect()),
            )]),
        ),
        Delta::SeverLinks(links) => (
            TOPIC_DELTAS_SEVER,
            obj(vec![(
                "links",
                Json::Arr(
                    links
                        .iter()
                        .map(|&(a, b)| Json::Arr(vec![unum(a), unum(b)]))
                        .collect(),
                ),
            )]),
        ),
        Delta::UserSurge(users) => (
            TOPIC_DELTAS_SURGE,
            obj(vec![(
                "users",
                Json::Arr(
                    users
                        .iter()
                        .map(|u| {
                            Json::Arr(vec![
                                Json::Num(u.pos.x),
                                Json::Num(u.pos.y),
                                Json::Num(u.min_rate_bps),
                            ])
                        })
                        .collect(),
                ),
            )]),
        ),
        _ => unreachable!("Delta is non_exhaustive but this crate tracks uavnet-core"),
    }
}

/// Decodes a published `(topic, payload)` back into a typed [`Delta`].
///
/// # Errors
///
/// [`ServiceError::Protocol`] on an unknown topic or a payload not
/// matching the topic's schema (wrong shapes, non-finite coordinates,
/// fractional indices).
pub fn delta_from_wire(topic: &str, payload: &Json) -> Result<Delta, ServiceError> {
    match topic {
        TOPIC_DELTAS_MOBILITY => {
            let moves = want_arr(payload, "moves")?
                .iter()
                .map(|m| {
                    let t = m
                        .as_arr()
                        .filter(|a| a.len() == 3)
                        .ok_or_else(|| proto_err("moves entries must be [user, x, y]"))?;
                    let user = to_index(
                        t[0].as_f64()
                            .ok_or_else(|| proto_err("user id must be numeric"))?,
                        "user id",
                    )?;
                    let (x, y) = (coord(&t[1])?, coord(&t[2])?);
                    Ok((user as u32, Point2::new(x, y)))
                })
                .collect::<Result<Vec<_>, ServiceError>>()?;
            Ok(Delta::UserMoved(moves))
        }
        TOPIC_DELTAS_KILL => {
            let uavs = want_arr(payload, "uavs")?
                .iter()
                .map(|u| {
                    to_index(
                        u.as_f64()
                            .ok_or_else(|| proto_err("uav ids must be numeric"))?,
                        "uav id",
                    )
                })
                .collect::<Result<Vec<_>, ServiceError>>()?;
            Ok(Delta::KillUavs(uavs))
        }
        TOPIC_DELTAS_SEVER => Ok(Delta::SeverLinks(pair_list(
            want_arr(payload, "links")?,
            "links",
        )?)),
        TOPIC_DELTAS_SURGE => {
            let users = want_arr(payload, "users")?
                .iter()
                .map(|u| {
                    let t = u
                        .as_arr()
                        .filter(|a| a.len() == 3)
                        .ok_or_else(|| proto_err("users entries must be [x, y, min_rate]"))?;
                    Ok(User {
                        pos: Point2::new(coord(&t[0])?, coord(&t[1])?),
                        min_rate_bps: coord(&t[2])?,
                    })
                })
                .collect::<Result<Vec<_>, ServiceError>>()?;
            Ok(Delta::UserSurge(users))
        }
        other => Err(proto_err(format!("unknown delta topic {other:?}"))),
    }
}

fn coord(v: &Json) -> Result<f64, ServiceError> {
    let n = v
        .as_f64()
        .ok_or_else(|| proto_err("coordinates must be numeric"))?;
    if !n.is_finite() {
        return Err(proto_err(format!("coordinates must be finite, got {n}")));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Publish {
                topic: TOPIC_DELTAS_KILL.into(),
                seq: 7,
                trace_id: None,
                payload: obj(vec![("uavs", Json::Arr(vec![unum(2)]))]),
            },
            Request::Publish {
                topic: TOPIC_DELTAS_MOBILITY.into(),
                seq: 8,
                trace_id: Some("req-8".into()),
                payload: obj(vec![("moves", Json::Arr(vec![]))]),
            },
            Request::Subscribe {
                topics: vec![TOPIC_DEPLOYMENTS.into(), TOPIC_DEGRADATION.into()],
            },
            Request::Snapshot,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Request::from_line(&line).unwrap(), r);
        }
    }

    #[test]
    fn replies_round_trip() {
        let mut outcome = DeltaOutcome::default();
        outcome.served = 14;
        outcome.stations_refreshed = 3;
        outcome.cold_solved = true;
        let replies = [
            Reply::Ack {
                seq: 1,
                trace_id: None,
                outcome: outcome.clone(),
            },
            Reply::Ack {
                seq: 1,
                trace_id: Some("req-1".into()),
                outcome,
            },
            Reply::Busy {
                seq: 2,
                trace_id: Some("req-2".into()),
                queue_capacity: 64,
            },
            Reply::Busy {
                seq: 2,
                trace_id: None,
                queue_capacity: 64,
            },
            Reply::Error {
                seq: Some(3),
                message: "bad topic".into(),
            },
            Reply::Error {
                seq: None,
                message: "bad frame".into(),
            },
            Reply::Subscribed {
                topics: vec![TOPIC_DEPLOYMENTS.into()],
            },
            Reply::Deployment(DeploymentMsg {
                epoch: 4,
                served: 12,
                placements: vec![(0, 5), (1, 9)],
                added: vec![(1, 9)],
                removed: vec![(1, 7)],
                is_final: true,
                trace_id: None,
            }),
            Reply::Deployment(DeploymentMsg {
                epoch: 5,
                served: 12,
                placements: vec![(0, 5)],
                added: vec![],
                removed: vec![],
                is_final: false,
                trace_id: Some("req-5".into()),
            }),
            Reply::Degradation(DegradationMsg {
                epoch: 4,
                served_before: 16,
                served_after: 12,
                dropped_placements: 1,
                relays_spent: 2,
                cold_solved: false,
                trace_id: Some("req-4".into()),
            }),
            Reply::Pong,
            Reply::ShuttingDown,
        ];
        for r in replies {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Reply::from_line(&line).unwrap(), r);
        }
    }

    #[test]
    fn deltas_round_trip_through_wire_form() {
        let deltas = [
            Delta::UserMoved(vec![
                (3, Point2::new(101.25, -0.5)),
                (9, Point2::new(0.1, 7.0)),
            ]),
            Delta::KillUavs(vec![0, 4]),
            Delta::SeverLinks(vec![(2, 11), (4, 4)]),
            Delta::UserSurge(vec![User {
                pos: Point2::new(330.0, 12.5),
                min_rate_bps: 2_000.0,
            }]),
        ];
        for d in deltas {
            let (topic, payload) = delta_to_wire(&d);
            // Through a full serialize→parse cycle, not just in-memory.
            let reparsed = Json::parse(&payload.dump_line()).unwrap();
            assert_eq!(delta_from_wire(topic, &reparsed).unwrap(), d);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let bad = [
            ("deltas/unknown", obj(vec![])),
            (TOPIC_DELTAS_MOBILITY, obj(vec![("moves", Json::Null)])),
            (
                TOPIC_DELTAS_MOBILITY,
                obj(vec![("moves", Json::Arr(vec![Json::Arr(vec![unum(1)])]))]),
            ),
            (
                TOPIC_DELTAS_MOBILITY,
                Json::parse(r#"{"moves":[[1,1e999,0]]}"#).unwrap(),
            ),
            (
                TOPIC_DELTAS_KILL,
                obj(vec![("uavs", Json::Arr(vec![Json::Num(1.5)]))]),
            ),
            (
                TOPIC_DELTAS_SEVER,
                obj(vec![("links", Json::Arr(vec![unum(1)]))]),
            ),
        ];
        for (topic, payload) in bad {
            assert!(
                matches!(
                    delta_from_wire(topic, &payload),
                    Err(ServiceError::Protocol(_))
                ),
                "{topic} with {payload:?} must be a protocol error"
            );
        }
        assert!(matches!(
            Request::from_line("not json"),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            Request::from_line(r#"{"type":"warp"}"#),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            Reply::from_line(r#"{"type":"ack","seq":-1,"outcome":{}}"#),
            Err(ServiceError::Protocol(_))
        ));
    }
}
