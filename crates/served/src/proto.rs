//! The serve daemon's JSON-lines wire protocol.
//!
//! One JSON object per line in both directions. Client→server lines are
//! *requests* (`{"op": ...}`), server→client lines are *events*
//! (`{"ev": ...}`). The parser is deliberately strict — unknown
//! operations, unknown fields, non-object lines, oversized lines and
//! absurd budgets all map to a typed [`Reject`] instead of a hang or a
//! crash, and a rejected line never poisons the connection: the reader
//! resynchronizes at the next newline and keeps serving.
//!
//! Requests:
//!
//! ```text
//! {"op":"submit","client":"a","scenarios":[...],"options":{"deadline_ms":60000}}
//! {"op":"status"}   {"op":"ping"}   {"op":"drain"}
//! ```
//!
//! Events (answers and per-run stream):
//!
//! ```text
//! {"ev":"admitted","run":"<16hex>","position":0}
//! {"ev":"rejected","reason":"queue-full","detail":"..."}
//! {"ev":"heartbeat","run":K,"state":"running","done":2,"total":6,"events_per_sec":...}
//! {"ev":"checkpoint","run":K,"done":3,"total":6}
//! {"ev":"result","run":K,"index":0,"ok":{...}} | {...,"error":"..."}
//! {"ev":"done","run":K,"degraded":false,"quarantined":0,"stats":{...}}
//! {"ev":"quarantined","run":K,"detail":"..."}
//! {"ev":"status",...}   {"ev":"pong"}   {"ev":"draining"}
//! ```

use biglittle::Scenario;
use serde_json::Value;

/// Hard cap on one request line. Longer lines are rejected as
/// [`Reject::TooLarge`] and discarded up to the next newline without ever
/// being buffered whole.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest scenario batch one submission may carry.
pub const MAX_BATCH_SCENARIOS: usize = 4096;

/// Budget sanity bounds: a zero budget can never complete and a budget
/// beyond these is a typo, not a plan (1 day wall / 10^15 events / 100
/// retries).
pub const MAX_DEADLINE_MS: u64 = 86_400_000;
/// See [`MAX_DEADLINE_MS`].
pub const MAX_EVENT_BUDGET: u64 = 1_000_000_000_000_000;
/// See [`MAX_DEADLINE_MS`].
pub const MAX_RETRIES: u64 = 100;

/// Why a request was refused. Every variant is a *typed, recoverable*
/// answer: the daemon never hangs and never dies on bad input, and the
/// client can tell "back off and retry" ([`Reject::is_retryable`]) from
/// "fix your request".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The submission queue is at capacity; retry after backoff.
    QueueFull,
    /// The queued scenario count is past the admission limit; retry
    /// after backoff.
    Overloaded,
    /// The line was not a well-formed request (bad JSON, unknown op,
    /// unknown field, wrong type, undecodable scenario).
    Malformed,
    /// The line (or batch) exceeded a hard size cap.
    TooLarge,
    /// A budget was zero or absurd (see [`MAX_DEADLINE_MS`]).
    BadBudget,
    /// A submission carried no scenarios.
    EmptyBatch,
    /// The daemon is draining and admits nothing new.
    Draining,
}

impl Reject {
    /// The wire rendering of the reason.
    pub fn as_str(self) -> &'static str {
        match self {
            Reject::QueueFull => "queue-full",
            Reject::Overloaded => "overloaded",
            Reject::Malformed => "malformed",
            Reject::TooLarge => "too-large",
            Reject::BadBudget => "bad-budget",
            Reject::EmptyBatch => "empty-batch",
            Reject::Draining => "draining",
        }
    }

    /// Parses a wire reason back into the type (client side).
    pub fn parse(s: &str) -> Option<Reject> {
        Some(match s {
            "queue-full" => Reject::QueueFull,
            "overloaded" => Reject::Overloaded,
            "malformed" => Reject::Malformed,
            "too-large" => Reject::TooLarge,
            "bad-budget" => Reject::BadBudget,
            "empty-batch" => Reject::EmptyBatch,
            "draining" => Reject::Draining,
            _ => return None,
        })
    }

    /// Whether a client should back off and resubmit (load/lifecycle
    /// rejections) rather than give up (malformed requests stay malformed
    /// no matter how often they are retried).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            Reject::QueueFull | Reject::Overloaded | Reject::Draining
        )
    }
}

/// Per-submission execution knobs, all optional. They funnel into the
/// same [`biglittle::SweepOptions`] budgets the one-shot CLI uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Per-scenario wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-scenario simulated-event budget.
    pub max_events: Option<u64>,
    /// Engine-level retries per failed scenario.
    pub retries: u32,
    /// Force the runtime invariant auditor on for the batch.
    pub audit: bool,
}

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Submit a scenario batch for execution.
    Submit {
        /// The submitting client's self-declared identity — the
        /// fair-share scheduling unit.
        client: String,
        /// The decoded batch, in submission order.
        scenarios: Vec<Scenario>,
        /// Execution knobs.
        options: SubmitOptions,
    },
    /// Ask for daemon-wide load/lifecycle counters.
    Status,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain: stop admitting, finish active runs, exit.
    Drain,
}

/// Parses one request line. Errors carry the typed reason plus a
/// human-readable detail for the `rejected` event.
pub fn parse_request(line: &str) -> Result<Request, (Reject, String)> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| (Reject::Malformed, format!("invalid JSON: {e}")))?;
    let fields = v.as_object().ok_or_else(|| {
        (
            Reject::Malformed,
            "request must be a JSON object".to_string(),
        )
    })?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| (Reject::Malformed, "missing string field \"op\"".to_string()))?;
    match op {
        "submit" => parse_submit(fields, &v),
        "status" | "ping" | "drain" => {
            if let Some((k, _)) = fields.iter().find(|(k, _)| k != "op") {
                return Err((
                    Reject::Malformed,
                    format!("unknown field {k:?} for op {op:?}"),
                ));
            }
            Ok(match op {
                "status" => Request::Status,
                "ping" => Request::Ping,
                _ => Request::Drain,
            })
        }
        other => Err((Reject::Malformed, format!("unknown op {other:?}"))),
    }
}

fn parse_submit(fields: &[(String, Value)], v: &Value) -> Result<Request, (Reject, String)> {
    for (k, _) in fields {
        if !matches!(k.as_str(), "op" | "client" | "scenarios" | "options") {
            return Err((
                Reject::Malformed,
                format!("unknown field {k:?} for op \"submit\""),
            ));
        }
    }
    let client = match v.get("client") {
        None => "anon".to_string(),
        Some(Value::String(s)) if !s.is_empty() => s.clone(),
        Some(_) => {
            return Err((
                Reject::Malformed,
                "\"client\" must be a non-empty string".to_string(),
            ))
        }
    };
    let raw = v
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or_else(|| {
            (
                Reject::Malformed,
                "missing array field \"scenarios\"".to_string(),
            )
        })?;
    if raw.is_empty() {
        return Err((
            Reject::EmptyBatch,
            "a batch must carry at least one scenario".to_string(),
        ));
    }
    if raw.len() > MAX_BATCH_SCENARIOS {
        return Err((
            Reject::TooLarge,
            format!(
                "batch of {} scenarios exceeds the cap of {MAX_BATCH_SCENARIOS}",
                raw.len()
            ),
        ));
    }
    let mut scenarios = Vec::with_capacity(raw.len());
    for (i, sc) in raw.iter().enumerate() {
        scenarios.push(serde_json::from_value::<Scenario>(sc.clone()).map_err(|e| {
            (
                Reject::Malformed,
                format!("scenario #{i} does not decode: {e}"),
            )
        })?);
    }
    let options = parse_options(v.get("options"))?;
    Ok(Request::Submit {
        client,
        scenarios,
        options,
    })
}

fn parse_options(v: Option<&Value>) -> Result<SubmitOptions, (Reject, String)> {
    let mut opts = SubmitOptions::default();
    let Some(v) = v else {
        return Ok(opts);
    };
    let fields = v.as_object().ok_or_else(|| {
        (
            Reject::Malformed,
            "\"options\" must be a JSON object".to_string(),
        )
    })?;
    for (k, val) in fields {
        match k.as_str() {
            "deadline_ms" => {
                let ms = val.as_u64().ok_or_else(|| {
                    (
                        Reject::Malformed,
                        "\"deadline_ms\" must be an integer".to_string(),
                    )
                })?;
                if ms == 0 || ms > MAX_DEADLINE_MS {
                    return Err((
                        Reject::BadBudget,
                        format!("deadline_ms {ms} outside 1..={MAX_DEADLINE_MS}"),
                    ));
                }
                opts.deadline_ms = Some(ms);
            }
            "max_events" => {
                let n = val.as_u64().ok_or_else(|| {
                    (
                        Reject::Malformed,
                        "\"max_events\" must be an integer".to_string(),
                    )
                })?;
                if n == 0 || n > MAX_EVENT_BUDGET {
                    return Err((
                        Reject::BadBudget,
                        format!("max_events {n} outside 1..={MAX_EVENT_BUDGET}"),
                    ));
                }
                opts.max_events = Some(n);
            }
            "retries" => {
                let n = val.as_u64().ok_or_else(|| {
                    (
                        Reject::Malformed,
                        "\"retries\" must be an integer".to_string(),
                    )
                })?;
                if n > MAX_RETRIES {
                    return Err((
                        Reject::BadBudget,
                        format!("retries {n} exceeds {MAX_RETRIES}"),
                    ));
                }
                opts.retries = n as u32;
            }
            "audit" => match val {
                Value::Bool(b) => opts.audit = *b,
                _ => {
                    return Err((Reject::Malformed, "\"audit\" must be a boolean".to_string()));
                }
            },
            other => {
                return Err((
                    Reject::Malformed,
                    format!("unknown field {other:?} in \"options\""),
                ));
            }
        }
    }
    Ok(opts)
}

/// Builds the submit request line a client sends (the inverse of
/// [`parse_request`]). `scenarios` are pre-serialized scenario objects.
pub fn submit_line(client: &str, scenarios: &[Value], options: &SubmitOptions) -> String {
    let mut opt_fields: Vec<(String, Value)> = Vec::new();
    if let Some(ms) = options.deadline_ms {
        opt_fields.push(("deadline_ms".into(), Value::UInt(ms)));
    }
    if let Some(n) = options.max_events {
        opt_fields.push(("max_events".into(), Value::UInt(n)));
    }
    if options.retries > 0 {
        opt_fields.push(("retries".into(), Value::UInt(u64::from(options.retries))));
    }
    if options.audit {
        opt_fields.push(("audit".into(), Value::Bool(true)));
    }
    let mut fields = vec![
        ("op".into(), Value::String("submit".into())),
        ("client".into(), Value::String(client.to_string())),
        ("scenarios".into(), Value::Array(scenarios.to_vec())),
    ];
    if !opt_fields.is_empty() {
        fields.push(("options".into(), Value::Object(opt_fields)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("request serializes")
}

// ---- server→client events --------------------------------------------------

/// One parsed server event (client side).
#[derive(Debug)]
pub enum Event {
    /// The submission was admitted (or attached to an in-flight run of
    /// the same batch).
    Admitted {
        /// The run's identity: the batch key of the submitted scenarios.
        run: String,
        /// Queue position at admission (0 = already executing).
        position: u64,
    },
    /// The request was refused.
    Rejected {
        /// The typed reason.
        reason: Reject,
        /// Human-readable detail.
        detail: String,
    },
    /// Periodic liveness + progress for a subscribed run.
    Heartbeat {
        /// The run.
        run: String,
        /// Lifecycle state rendering.
        state: String,
        /// Scenarios settled so far.
        done: u64,
        /// Scenarios in the batch.
        total: u64,
        /// The daemon's live throughput signal.
        events_per_sec: f64,
    },
    /// Progress advanced (more scenarios settled).
    Checkpoint {
        /// The run.
        run: String,
        /// Scenarios settled so far.
        done: u64,
        /// Scenarios in the batch.
        total: u64,
    },
    /// One scenario's final result.
    ResultSlot {
        /// The run.
        run: String,
        /// The scenario's index in the batch.
        index: u64,
        /// `Ok(result JSON)` or `Err(error rendering)`.
        outcome: Result<Value, String>,
    },
    /// The run completed; all `result` events have been sent.
    Done {
        /// The run.
        run: String,
        /// Whether the sweep needed retries or quarantined scenarios.
        degraded: bool,
        /// Scenarios quarantined inside the batch.
        quarantined: u64,
        /// The sweep's stats object (scenarios, resumed, hydrated, ...).
        stats: Value,
    },
    /// The run was quarantined whole (wedged past the server timeout).
    RunQuarantined {
        /// The run.
        run: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Daemon-wide counters (answer to `{"op":"status"}`).
    Status(Value),
    /// Answer to `{"op":"ping"}`.
    Pong,
    /// Acknowledgement that the daemon entered drain.
    Draining,
}

/// Parses one event line (client side).
pub fn parse_event(line: &str) -> Result<Event, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("invalid event JSON: {e}"))?;
    let ev = v
        .get("ev")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("event without \"ev\": {line}"))?;
    let run = || {
        v.get("run")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("event {ev:?} without \"run\""))
    };
    let num = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    Ok(match ev {
        "admitted" => Event::Admitted {
            run: run()?,
            position: num("position"),
        },
        "rejected" => {
            let reason = v
                .get("reason")
                .and_then(Value::as_str)
                .and_then(Reject::parse)
                .ok_or_else(|| format!("rejected event with unknown reason: {line}"))?;
            Event::Rejected {
                reason,
                detail: v
                    .get("detail")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            }
        }
        "heartbeat" => Event::Heartbeat {
            run: run()?,
            state: v
                .get("state")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            done: num("done"),
            total: num("total"),
            events_per_sec: v
                .get("events_per_sec")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        },
        "checkpoint" => Event::Checkpoint {
            run: run()?,
            done: num("done"),
            total: num("total"),
        },
        "result" => {
            let outcome = match (v.get("ok"), v.get("error").and_then(Value::as_str)) {
                (Some(ok), None) => Ok(ok.clone()),
                (None, Some(e)) => Err(e.to_string()),
                _ => {
                    return Err(format!(
                        "result event needs exactly one of ok/error: {line}"
                    ))
                }
            };
            Event::ResultSlot {
                run: run()?,
                index: num("index"),
                outcome,
            }
        }
        "done" => Event::Done {
            run: run()?,
            degraded: matches!(v.get("degraded"), Some(Value::Bool(true))),
            quarantined: num("quarantined"),
            stats: v.get("stats").cloned().unwrap_or(Value::Null),
        },
        "quarantined" => Event::RunQuarantined {
            run: run()?,
            detail: v
                .get("detail")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        },
        "status" => Event::Status(v),
        "pong" => Event::Pong,
        "draining" => Event::Draining,
        other => return Err(format!("unknown event {other:?}")),
    })
}

// ---- event line builders (server side) -------------------------------------

fn line(fields: Vec<(String, Value)>) -> String {
    serde_json::to_string(&Value::Object(fields)).expect("event serializes")
}

/// `admitted` event line.
pub fn admitted_line(run: &str, position: u64) -> String {
    line(vec![
        ("ev".into(), Value::String("admitted".into())),
        ("run".into(), Value::String(run.to_string())),
        ("position".into(), Value::UInt(position)),
    ])
}

/// `rejected` event line.
pub fn rejected_line(reason: Reject, detail: &str) -> String {
    line(vec![
        ("ev".into(), Value::String("rejected".into())),
        ("reason".into(), Value::String(reason.as_str().into())),
        ("detail".into(), Value::String(detail.to_string())),
    ])
}

/// `heartbeat` event line.
pub fn heartbeat_line(run: &str, state: &str, done: u64, total: u64, eps: f64) -> String {
    line(vec![
        ("ev".into(), Value::String("heartbeat".into())),
        ("run".into(), Value::String(run.to_string())),
        ("state".into(), Value::String(state.to_string())),
        ("done".into(), Value::UInt(done)),
        ("total".into(), Value::UInt(total)),
        ("events_per_sec".into(), Value::Float(eps)),
    ])
}

/// `checkpoint` event line.
pub fn checkpoint_line(run: &str, done: u64, total: u64) -> String {
    line(vec![
        ("ev".into(), Value::String("checkpoint".into())),
        ("run".into(), Value::String(run.to_string())),
        ("done".into(), Value::UInt(done)),
        ("total".into(), Value::UInt(total)),
    ])
}

/// `result` event line for one scenario slot.
pub fn result_line(run: &str, index: u64, outcome: &Result<Value, String>) -> String {
    let mut fields = vec![
        ("ev".into(), Value::String("result".into())),
        ("run".into(), Value::String(run.to_string())),
        ("index".into(), Value::UInt(index)),
    ];
    match outcome {
        Ok(v) => fields.push(("ok".into(), v.clone())),
        Err(e) => fields.push(("error".into(), Value::String(e.clone()))),
    }
    line(fields)
}

/// `done` event line.
pub fn done_line(run: &str, degraded: bool, quarantined: u64, stats: Value) -> String {
    line(vec![
        ("ev".into(), Value::String("done".into())),
        ("run".into(), Value::String(run.to_string())),
        ("degraded".into(), Value::Bool(degraded)),
        ("quarantined".into(), Value::UInt(quarantined)),
        ("stats".into(), stats),
    ])
}

/// `quarantined` (whole-run) event line.
pub fn quarantined_line(run: &str, detail: &str) -> String {
    line(vec![
        ("ev".into(), Value::String("quarantined".into())),
        ("run".into(), Value::String(run.to_string())),
        ("detail".into(), Value::String(detail.to_string())),
    ])
}

/// `pong` event line.
pub fn pong_line() -> String {
    line(vec![("ev".into(), Value::String("pong".into()))])
}

/// `draining` acknowledgement line.
pub fn draining_line() -> String {
    line(vec![("ev".into(), Value::String("draining".into()))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use biglittle::{Scenario, SystemConfig};
    use bl_simcore::time::SimDuration;

    fn scenario_json() -> String {
        let sc = Scenario::microbench(
            "p",
            bl_platform::ids::CpuId(0),
            0.3,
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
            SystemConfig::baseline(),
        );
        serde_json::to_string(&serde_json::to_value(&sc).unwrap()).unwrap()
    }

    /// The malformed-input hardening table: every bad line maps to its
    /// typed rejection, never a panic.
    #[test]
    fn malformed_lines_map_to_typed_rejections() {
        let sc = scenario_json();
        let cases: Vec<(String, Reject)> = vec![
            // Truncated JSON.
            (
                "{\"op\":\"submit\",\"scenarios\":[".into(),
                Reject::Malformed,
            ),
            ("{\"op\":".into(), Reject::Malformed),
            ("".into(), Reject::Malformed),
            // Not an object / wrong shapes.
            ("[1,2,3]".into(), Reject::Malformed),
            ("42".into(), Reject::Malformed),
            ("{\"no_op\":true}".into(), Reject::Malformed),
            ("{\"op\":17}".into(), Reject::Malformed),
            ("{\"op\":\"launch\"}".into(), Reject::Malformed),
            // Unknown fields, top level and inside options.
            (
                format!("{{\"op\":\"submit\",\"scenarios\":[{sc}],\"extra\":1}}"),
                Reject::Malformed,
            ),
            (
                format!(
                    "{{\"op\":\"submit\",\"scenarios\":[{sc}],\"options\":{{\"priority\":9}}}}"
                ),
                Reject::Malformed,
            ),
            (
                "{\"op\":\"ping\",\"payload\":\"x\"}".into(),
                Reject::Malformed,
            ),
            // Bad client / scenario payloads.
            (
                format!("{{\"op\":\"submit\",\"client\":7,\"scenarios\":[{sc}]}}"),
                Reject::Malformed,
            ),
            (
                "{\"op\":\"submit\",\"scenarios\":[{\"not\":\"a scenario\"}]}".into(),
                Reject::Malformed,
            ),
            (
                "{\"op\":\"submit\",\"scenarios\":\"nope\"}".into(),
                Reject::Malformed,
            ),
            // Zero-scenario batches.
            (
                "{\"op\":\"submit\",\"scenarios\":[]}".into(),
                Reject::EmptyBatch,
            ),
            // Absurd budgets.
            (
                format!(
                    "{{\"op\":\"submit\",\"scenarios\":[{sc}],\"options\":{{\"deadline_ms\":0}}}}"
                ),
                Reject::BadBudget,
            ),
            (
                format!(
                    "{{\"op\":\"submit\",\"scenarios\":[{sc}],\
                     \"options\":{{\"deadline_ms\":99999999999}}}}"
                ),
                Reject::BadBudget,
            ),
            (
                format!(
                    "{{\"op\":\"submit\",\"scenarios\":[{sc}],\"options\":{{\"max_events\":0}}}}"
                ),
                Reject::BadBudget,
            ),
            (
                format!(
                    "{{\"op\":\"submit\",\"scenarios\":[{sc}],\"options\":{{\"retries\":5000}}}}"
                ),
                Reject::BadBudget,
            ),
        ];
        for (input, want) in cases {
            match parse_request(&input) {
                Err((got, detail)) => {
                    assert_eq!(got, want, "input {input:?} → {detail}");
                    assert!(!detail.is_empty(), "rejection for {input:?} carries detail");
                }
                Ok(_) => panic!("input {input:?} unexpectedly parsed"),
            }
        }
    }

    #[test]
    fn well_formed_requests_parse() {
        let sc = scenario_json();
        let req = parse_request(&format!(
            "{{\"op\":\"submit\",\"client\":\"a\",\"scenarios\":[{sc}],\
             \"options\":{{\"deadline_ms\":60000,\"retries\":2,\"audit\":true}}}}"
        ))
        .unwrap();
        match req {
            Request::Submit {
                client,
                scenarios,
                options,
            } => {
                assert_eq!(client, "a");
                assert_eq!(scenarios.len(), 1);
                assert_eq!(options.deadline_ms, Some(60_000));
                assert_eq!(options.retries, 2);
                assert!(options.audit);
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(
            parse_request("{\"op\":\"status\"}"),
            Ok(Request::Status)
        ));
        assert!(matches!(
            parse_request("{\"op\":\"ping\"}"),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request("{\"op\":\"drain\"}"),
            Ok(Request::Drain)
        ));
    }

    #[test]
    fn submit_line_round_trips_through_the_parser() {
        let sc: Value = serde_json::from_str(&scenario_json()).unwrap();
        let opts = SubmitOptions {
            deadline_ms: Some(1000),
            max_events: Some(5_000_000),
            retries: 1,
            audit: false,
        };
        let line = submit_line("smoke", std::slice::from_ref(&sc), &opts);
        match parse_request(&line).unwrap() {
            Request::Submit {
                client, options, ..
            } => {
                assert_eq!(client, "smoke");
                assert_eq!(options, opts);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    /// Every truncation of a valid submit line and every byte XORed with
    /// 0x01 and with 0x80, decoded lossily and trimmed as the daemon's
    /// reader does, parses to a request or a typed rejection with a
    /// detail — never a panic.
    #[test]
    fn every_truncation_and_bit_flip_of_a_submit_line_is_typed() {
        let sc: Value = serde_json::from_str(&scenario_json()).unwrap();
        let opts = SubmitOptions {
            deadline_ms: Some(60_000),
            max_events: Some(5_000_000),
            retries: 2,
            audit: true,
        };
        let line = submit_line("ΔT client", std::slice::from_ref(&sc), &opts);
        assert!(parse_request(&line).is_ok());
        let clean = line.as_bytes();
        let mut variants: Vec<Vec<u8>> = (0..clean.len()).map(|n| clean[..n].to_vec()).collect();
        for i in 0..clean.len() {
            for mask in [0x01, 0x80] {
                let mut bytes = clean.to_vec();
                bytes[i] ^= mask;
                variants.push(bytes);
            }
        }
        for bytes in &variants {
            let text = String::from_utf8_lossy(bytes);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let parsed = std::panic::catch_unwind(|| parse_request(text))
                .unwrap_or_else(|_| panic!("parse_request panicked on {text:?}"));
            if let Err((reason, detail)) = parsed {
                assert!(
                    !detail.is_empty(),
                    "{reason:?} for {text:?} carries no detail"
                );
            }
        }
    }

    #[test]
    fn event_lines_round_trip() {
        let cases = vec![
            admitted_line("abc", 2),
            rejected_line(Reject::Overloaded, "busy"),
            heartbeat_line("abc", "running", 2, 6, 1234.5),
            checkpoint_line("abc", 3, 6),
            result_line("abc", 0, &Ok(Value::UInt(7))),
            result_line("abc", 1, &Err("boom".into())),
            done_line("abc", false, 0, Value::Null),
            quarantined_line("abc", "wedged"),
            pong_line(),
            draining_line(),
        ];
        for l in cases {
            parse_event(&l).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
        assert!(matches!(
            parse_event(&rejected_line(Reject::QueueFull, "full")),
            Ok(Event::Rejected {
                reason: Reject::QueueFull,
                ..
            })
        ));
    }
}
