//! The serve wire protocol: one JSON object per line, each answered by
//! one JSON object on a line of its own.
//!
//! # Requests
//!
//! ```json
//! {"op":"sim","source":"machine m {...}","cycles":10000}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! A compute request names a verb of [`silc_incr::ops::VERBS`] that the
//! wire exposes and carries its `source` text; its other fields are the
//! rows of [`silc_incr::ops::ARGS`] for that verb, each named after the
//! flag without its dashes (`--no-drc` is `"no_drc"`). `stats` and
//! `shutdown` are control ops with no fields. A field none of these
//! names is refused as a `bad_request` naming it, as the word lists
//! refuse an unknown flag.
//!
//! Every request may carry `"id"` (any scalar, echoed verbatim in the
//! response so clients can pipeline), `"deadline_ms"` (per-request
//! compute budget overriding the server default) and `"priority"`
//! (`"interactive"`, the default, or `"batch"` — batch traffic yields
//! to interactive traffic in the worker queues).
//!
//! # Responses
//!
//! Success: `{"id":...,"ok":true,"op":"<op>",...per-op fields...}`.
//! Failure: `{"id":...,"ok":false,"error":"<kind>","detail":"..."}` where
//! `error` is one of the [`kind`] constants — `"overloaded"` (queue
//! full, retry later), `"timeout"` (deadline exceeded), `"bad_request"`
//! (unparseable or unknown), `"error"` (the pipeline failed; `detail`
//! names the failing stage).

use crate::json::{parse, Json};
use silc_incr::ops::{self, Args, Front, Op, Slot, Verb};

/// Failure kinds carried in the `error` field of a failure response.
pub mod kind {
    /// The compute queue was full; the request was never enqueued.
    pub const OVERLOADED: &str = "overloaded";
    /// The deadline passed before a worker finished the request.
    pub const TIMEOUT: &str = "timeout";
    /// The line was not a valid request.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The pipeline failed; `detail` is `"<stage>: <message>"`.
    pub const ERROR: &str = "error";
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Full SIL pipeline; mirrors `silc compile` (the `cif` field of the
    /// response is byte-identical to the CLI's stdout).
    Compile {
        /// SIL source text.
        source: String,
        /// Skip DRC (and emit CIF regardless), like `--no-drc`.
        no_drc: bool,
        /// Also extract the netlist summary.
        extract: bool,
    },
    /// Parse and simulate an ISL machine; mirrors `silc sim`.
    Sim {
        /// ISL source text.
        source: String,
        /// Cycle budget (the CLI default is 10 000).
        cycles: u64,
    },
    /// Elaborate + flatten + DRC only; report violations without CIF.
    Drc {
        /// SIL source text.
        source: String,
    },
    /// Place and route the design's extracted netlist; mirrors
    /// `silc pnr` (the `cif` field is the routed layout).
    Pnr {
        /// SIL source text.
        source: String,
    },
    /// Equivalence-check an artifact against its specification; mirrors
    /// `silc verify`.
    Verify {
        /// Source text of the artifact to check.
        source: String,
        /// Source language: `"pla"`, `"isl"` or `"sil"` (serve carries
        /// text, not file names, so the extension travels here).
        lang: String,
        /// PLA spec text to check a `"pla"` source against instead of
        /// its own minimized realization.
        against: Option<String>,
    },
    /// Server statistics; answered inline, never queued.
    Stats,
    /// Graceful shutdown: drain in-flight jobs, then exit.
    Shutdown,
    /// Test-only: hold a worker for `ms` milliseconds. Rejected unless
    /// the server was built with `enable_test_ops`.
    Sleep {
        /// How long to occupy the worker.
        ms: u64,
    },
}

/// Scheduling priority carried in the optional `priority` field. The
/// server's one queue has a lane per priority; interactive jobs are
/// always dequeued before batch jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Priority {
    /// The default: editor/CLI round-trips that jump batch traffic.
    #[default]
    Interactive,
    /// Bulk traffic that yields to interactive requests.
    Batch,
}

impl Request {
    /// The `op` string echoed in success responses.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Compile { .. } => "compile",
            Request::Sim { .. } => "sim",
            Request::Drc { .. } => "drc",
            Request::Pnr { .. } => "pnr",
            Request::Verify { .. } => "verify",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Sleep { .. } => "sleep",
        }
    }

    /// The one conversion from the wire form into the op the table
    /// defines plus the `source` and `against` texts it reads; `None`
    /// for control and test ops.
    pub fn to_op(&self) -> Option<(Op, &str, Option<&str>)> {
        let mut op = Op::default();
        let mut against = None;
        let source = match self {
            Request::Compile {
                source,
                no_drc,
                extract,
            } => {
                (op.verb, op.no_drc, op.extract) = (Verb::Compile, *no_drc, *extract);
                source
            }
            Request::Sim { source, cycles } => {
                (op.verb, op.cycles) = (Verb::Sim, Some(*cycles));
                source
            }
            Request::Drc { source } => {
                op.verb = Verb::Drc;
                source
            }
            Request::Pnr { source } => {
                op.verb = Verb::Pnr;
                source
            }
            Request::Verify {
                source,
                lang,
                against: spec,
            } => {
                (op.verb, op.lang) = (Verb::Verify, Some(lang.clone()));
                against = spec.as_deref();
                source
            }
            Request::Stats | Request::Shutdown | Request::Sleep { .. } => return None,
        };
        Some((op, source, against))
    }
}

/// A request plus its wire envelope (client id, deadline override).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Echoed verbatim in the response, when the client sent one.
    pub id: Option<Json>,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Scheduling lane (defaults to interactive).
    pub priority: Priority,
    /// The decoded operation.
    pub request: Request,
}

fn optional_priority(obj: &Json) -> Result<Priority, String> {
    match obj.get("priority") {
        None | Some(Json::Null) => Ok(Priority::Interactive),
        Some(v) => match v.as_str() {
            Some("interactive") => Ok(Priority::Interactive),
            Some("batch") => Ok(Priority::Batch),
            _ => Err("`priority` must be \"interactive\" or \"batch\"".into()),
        },
    }
}

fn optional_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// Decodes a compute op: its fields are the rows of [`ops::ARGS`] the
/// wire exposes for the verb, plus the `source` text every op reads.
fn decode_op(obj: &Json, name: &str) -> Result<Request, String> {
    let unknown = || format!("unknown op `{name}`");
    let spec = ops::verb(Front::Wire, name).ok_or_else(unknown)?;
    let mut args = Args::default();
    let exposed = |a: &&ops::Arg| a.accepted(Front::Wire, spec.verb);
    for arg in ops::ARGS.iter().filter(exposed) {
        let key = arg.field();
        let value = match obj.get(&key) {
            None | Some(Json::Null) => continue,
            Some(value) => value,
        };
        let must = |what: &str| format!("`{key}` must be {what}");
        let text = || value.as_str().ok_or_else(|| must("a string"));
        let number = |least: u64, what: &str| {
            let n = value.as_u64().filter(|&n| n >= least);
            n.ok_or_else(|| must(what))
        };
        match (arg.slot)(&mut args) {
            Slot::Switch(on) => *on = value.as_bool().ok_or_else(|| must("a boolean"))?,
            Slot::Text(slot) => *slot = Some(text()?.to_string()),
            Slot::Cycles(slot) => *slot = Some(number(0, "a non-negative integer")?),
            Slot::Count(slot) => *slot = usize::try_from(number(1, "a positive integer")?).ok(),
        }
    }
    let source = obj.get("source").and_then(Json::as_str);
    let source = source
        .ok_or_else(|| format!("`{name}` needs a string `source` field"))?
        .to_string();
    let Args { op, against, .. } = args;
    Ok(match spec.verb {
        Verb::Compile => Request::Compile {
            source,
            no_drc: op.no_drc,
            extract: op.extract,
        },
        Verb::Sim => Request::Sim {
            source,
            cycles: op.cycles(),
        },
        Verb::Drc => Request::Drc { source },
        Verb::Pnr => Request::Pnr { source },
        Verb::Verify => {
            let lang = op.lang.ok_or("`verify` needs a string `lang` field")?;
            if !ops::LANGS.contains(&lang.as_str()) {
                return Err(format!(
                    "`lang` must be \"pla\", \"isl\" or \"sil\", got `{lang}`"
                ));
            }
            Request::Verify {
                source,
                lang,
                against,
            }
        }
        _ => return Err(unknown()),
    })
}

/// The fields any request may carry besides its verb's own.
const ENVELOPE: [&str; 5] = ["op", "id", "source", "deadline_ms", "priority"];

/// True when a request naming op `name` may carry field `key`: an
/// envelope field, the test-only `sleep`'s `ms`, or a row of
/// [`ops::ARGS`] the wire exposes for that verb.
fn takes_field(name: &str, key: &str) -> bool {
    ENVELOPE.contains(&key)
        || (name == "sleep" && key == "ms")
        || ops::verb(Front::Wire, name).is_some_and(|spec| {
            let exposed = |a: &ops::Arg| a.accepted(Front::Wire, spec.verb);
            ops::ARGS.iter().any(|a| exposed(a) && a.field() == key)
        })
}

/// Decodes one request line.
///
/// # Errors
///
/// A message suitable for the `detail` field of a `bad_request`
/// response: JSON syntax errors, a missing/unknown `op`, unknown or
/// wrongly typed fields.
pub fn parse_request(line: &str, allow_test_ops: bool) -> Result<Envelope, String> {
    let obj = parse(line)?;
    let Json::Obj(members) = &obj else {
        return Err("request must be a JSON object".into());
    };
    let op = obj.get("op").and_then(Json::as_str);
    let name = op.ok_or("request needs a string `op` field")?;
    let request = match name {
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "sleep" if allow_test_ops => Request::Sleep {
            ms: optional_u64(&obj, "ms")?.unwrap_or(0),
        },
        name => decode_op(&obj, name)?,
    };
    if let Some((key, _)) = members.iter().find(|(key, _)| !takes_field(name, key)) {
        return Err(format!("unknown field `{key}` for `{name}`"));
    }
    Ok(Envelope {
        id: obj.get("id").cloned(),
        deadline_ms: optional_u64(&obj, "deadline_ms")?,
        priority: optional_priority(&obj)?,
        request,
    })
}

fn envelope(id: &Option<Json>, ok: bool) -> Vec<(String, Json)> {
    let mut members = Vec::with_capacity(8);
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.push(("ok".to_string(), Json::Bool(ok)));
    members
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: &Option<Json>, op: &str, fields: Vec<(String, Json)>) -> String {
    let mut members = envelope(id, true);
    members.push(("op".to_string(), Json::Str(op.to_string())));
    members.extend(fields);
    Json::Obj(members).to_string()
}

/// Renders a failure response line (no trailing newline). `kind` is one
/// of the [`kind`] constants.
pub fn err_response(id: &Option<Json>, kind: &str, detail: &str) -> String {
    let mut members = envelope(id, false);
    members.push(("error".to_string(), Json::Str(kind.to_string())));
    members.push(("detail".to_string(), Json::Str(detail.to_string())));
    Json::Obj(members).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        let e = parse_request(
            r#"{"op":"compile","source":"cell a() {}","no_drc":true,"id":3}"#,
            false,
        )
        .unwrap();
        assert_eq!(e.id, Some(Json::Int(3)));
        assert_eq!(
            e.request,
            Request::Compile {
                source: "cell a() {}".into(),
                no_drc: true,
                extract: false,
            }
        );

        let e = parse_request(r#"{"op":"sim","source":"machine m {}"}"#, false).unwrap();
        assert_eq!(
            e.request,
            Request::Sim {
                source: "machine m {}".into(),
                cycles: 10_000,
            }
        );

        let e = parse_request(r#"{"op":"drc","source":"x","deadline_ms":250}"#, false).unwrap();
        assert_eq!(e.deadline_ms, Some(250));

        let e = parse_request(r#"{"op":"pnr","source":"cell a() {}"}"#, false).unwrap();
        assert_eq!(
            e.request,
            Request::Pnr {
                source: "cell a() {}".into(),
            }
        );

        let e = parse_request(r#"{"op":"verify","source":".i 1","lang":"pla"}"#, false).unwrap();
        assert_eq!(
            e.request,
            Request::Verify {
                source: ".i 1".into(),
                lang: "pla".into(),
                against: None,
            }
        );
        let e = parse_request(
            r#"{"op":"verify","source":".i 1","lang":"pla","against":".i 1"}"#,
            false,
        )
        .unwrap();
        assert_eq!(
            e.request,
            Request::Verify {
                source: ".i 1".into(),
                lang: "pla".into(),
                against: Some(".i 1".into()),
            }
        );

        for op in ["stats", "shutdown"] {
            let e = parse_request(&format!(r#"{{"op":"{op}"}}"#), false).unwrap();
            assert_eq!(e.request.op(), op);
            assert!(e.request.to_op().is_none(), "{op}");
        }
    }

    #[test]
    fn priority_parses_and_defaults_to_interactive() {
        let e = parse_request(r#"{"op":"drc","source":"x"}"#, false).unwrap();
        assert_eq!(e.priority, Priority::Interactive);
        let e = parse_request(r#"{"op":"drc","source":"x","priority":"batch"}"#, false).unwrap();
        assert_eq!(e.priority, Priority::Batch);
        let e = parse_request(
            r#"{"op":"drc","source":"x","priority":"interactive"}"#,
            false,
        )
        .unwrap();
        assert_eq!(e.priority, Priority::Interactive);
        for bad in [r#""turbo""#, "3"] {
            let err = parse_request(
                &format!(r#"{{"op":"drc","source":"x","priority":{bad}}}"#),
                false,
            )
            .unwrap_err();
            assert!(err.contains("priority"), "{err}");
        }
    }

    #[test]
    fn sleep_is_gated_behind_test_ops() {
        let line = r#"{"op":"sleep","ms":50}"#;
        assert!(parse_request(line, false).unwrap_err().contains("sleep"));
        assert_eq!(
            parse_request(line, true).unwrap().request,
            Request::Sleep { ms: 50 }
        );
    }

    #[test]
    fn malformed_lines_name_the_offence() {
        assert!(parse_request("not json", false).is_err());
        assert!(parse_request("[1,2]", false)
            .unwrap_err()
            .contains("object"));
        assert!(parse_request(r#"{"op":"warp"}"#, false)
            .unwrap_err()
            .contains("warp"));
        assert!(parse_request(r#"{"op":"compile"}"#, false)
            .unwrap_err()
            .contains("source"));
        assert!(parse_request(r#"{"op":"pnr"}"#, false)
            .unwrap_err()
            .contains("source"));
        assert!(
            parse_request(r#"{"op":"pnr","source":"x","stack":7}"#, false)
                .unwrap_err()
                .contains("unknown field `stack` for `pnr`")
        );
        assert!(parse_request(r#"{"op":"verify","source":"x"}"#, false)
            .unwrap_err()
            .contains("lang"));
        assert!(
            parse_request(r#"{"op":"verify","source":"x","lang":"vhdl"}"#, false)
                .unwrap_err()
                .contains("vhdl")
        );
        assert!(
            parse_request(r#"{"op":"sim","source":"m","cycles":-1}"#, false)
                .unwrap_err()
                .contains("cycles")
        );
        assert!(
            parse_request(r#"{"op":"sim","source":"m","engine":"warp"}"#, false)
                .unwrap_err()
                .contains("unknown field `engine` for `sim`")
        );
        assert!(
            parse_request(r#"{"op":"sim","source":"m","engine":7}"#, false)
                .unwrap_err()
                .contains("unknown field `engine` for `sim`")
        );
    }

    /// A field no row gives the verb is refused by name, not ignored: a
    /// misspelt or retired flag must not quietly run the default.
    #[test]
    fn unknown_fields_are_refused_by_name() {
        for (line, field) in [
            (r#"{"op":"compile","source":"x","cycles":5}"#, "cycles"),
            (r#"{"op":"sim","source":"m","engine":"interp"}"#, "engine"),
            (r#"{"op":"pnr","source":"x","stack":"x"}"#, "stack"),
            (
                r#"{"op":"verify","source":"x","lang":"sil","stack":"x"}"#,
                "stack",
            ),
            (r#"{"op":"drc","source":"x","no_drc":true}"#, "no_drc"),
            (
                r#"{"op":"compile","source":"x","output":"a.cif"}"#,
                "output",
            ),
            (r#"{"op":"sim","source":"m","ms":5}"#, "ms"),
            (r#"{"op":"stats","verbose":true}"#, "verbose"),
            (r#"{"op":"compile","source":"x","noDrc":null}"#, "noDrc"),
        ] {
            let e = parse_request(line, true).unwrap_err();
            let op = line.split('"').nth(3).unwrap();
            assert!(
                e.contains(&format!("unknown field `{field}` for `{op}`")),
                "{line}: {e}"
            );
        }
        // What the envelope, the verb's rows and the test-only `sleep`
        // name is taken.
        for line in [
            r#"{"op":"compile","source":"x","no_drc":true,"extract":true,"id":1,"deadline_ms":9,"priority":"batch"}"#,
            r#"{"op":"sim","source":"m","cycles":5}"#,
            r#"{"op":"verify","source":"x","lang":"pla","against":"y"}"#,
            r#"{"op":"sleep","ms":5,"id":"s"}"#,
            r#"{"op":"stats","id":2}"#,
        ] {
            assert!(parse_request(line, true).is_ok(), "{line}");
        }
    }

    #[test]
    fn responses_echo_the_id_and_shape() {
        let id = Some(Json::Str("req-1".into()));
        let ok = ok_response(&id, "compile", vec![("cif".into(), Json::Str("DS".into()))]);
        assert_eq!(ok, r#"{"id":"req-1","ok":true,"op":"compile","cif":"DS"}"#);
        let err = err_response(&None, kind::OVERLOADED, "queue full");
        assert_eq!(
            err,
            r#"{"ok":false,"error":"overloaded","detail":"queue full"}"#
        );
    }

    /// The one request spelled three ways must be one op: for every verb
    /// and every row of the argument table, each front-end that exposes
    /// the pair decodes it to the same [`Op`].
    #[test]
    fn every_front_end_decodes_the_same_op() {
        for spec in ops::VERBS.iter() {
            let rows = ops::ARGS.iter().filter(|a| a.verbs.contains(&spec.verb));
            for arg in rows.map(Some).chain([None]) {
                let mut scratch = Args::default();
                let (value, json) = match arg.map(|a| (a.slot)(&mut scratch)) {
                    None => (None, String::new()),
                    Some(Slot::Switch(_)) => (None, "true".to_string()),
                    Some(Slot::Text(_)) => (Some("compiled"), "\"compiled\"".to_string()),
                    Some(Slot::Cycles(_)) => (Some("7"), "7".to_string()),
                    Some(Slot::Count(_)) => (Some("3"), "3".to_string()),
                };
                let mut decoded = Vec::new();
                for front in [Front::Cli, Front::Manifest, Front::Wire] {
                    let exposed = spec.fronts & front as u8 != 0
                        && arg.is_none_or(|a| a.accepted(front, spec.verb));
                    if !exposed {
                        continue;
                    }
                    let op = if front == Front::Wire {
                        // The wire names the language a file name implies.
                        let mut line = format!(r#"{{"op":"{}","source":"x""#, spec.name);
                        if spec.verb == Verb::Verify {
                            line.push_str(r#","lang":"pla""#);
                        }
                        if let Some(a) = arg.filter(|a| a.flag != "--lang") {
                            line.push_str(&format!(r#","{}":{json}"#, a.field()));
                        }
                        line.push('}');
                        let request = parse_request(&line, false).expect(&line).request;
                        request.to_op().expect(&line).0
                    } else {
                        let input = Some("a.pla").filter(|_| !spec.input.is_empty());
                        let words: Vec<&str> = input
                            .into_iter()
                            .chain(arg.map(|a| a.flag))
                            .chain(value)
                            .collect();
                        ops::parse_words(front, spec, &words).expect(spec.name).op
                    };
                    assert_eq!(op.verb, spec.verb);
                    // `Request::Sim` carries the budget resolved, so
                    // compare with the default applied on every side.
                    let cycles = Some(op.cycles()).filter(|_| op.verb == Verb::Sim);
                    decoded.push((front, Op { cycles, ..op }));
                }
                assert!(!decoded.is_empty(), "{} {arg:?}", spec.name);
                for (front, op) in &decoded {
                    assert_eq!(op, &decoded[0].1, "{} {arg:?}: {front:?}", spec.name);
                }
            }
        }
    }
}
