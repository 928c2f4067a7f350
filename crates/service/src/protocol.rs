//! The line-delimited text protocol (DESIGN.md §8.1 has the grammar).
//!
//! One UTF-8 line per request, one line per response. The single
//! exception is `OPEN`, whose request line is followed by the graph in
//! METIS format terminated by a line reading `END`. Responses begin
//! with `OK`, `PONG` or `ERR`; fields are `key=value` tokens so both
//! sides parse with the same helpers.
//!
//! ```text
//! PING
//! OPEN <sid> parts=<p ≤ 1024> [policy=<spec>] [refined=0|1] [init=<rsb|rr>]
//! DELTA <sid> [av=w,…] [rv=v,…] [ae=u:v:w,…] [re=u:v,…]
//! FLUSH <sid>   STAT <sid>   PART <sid>   CLOSE <sid>   LIST   SHUTDOWN
//! METRICS
//! REPL SYNC <sid>
//! REPL FRAME <sid> <seq> <offset>
//! PROMOTE
//! TRACE DUMP [n]
//! TRACE SLOW <threshold_us>
//! STALL LOOP <ms> | STALL WORKER <ms>
//! ```
//!
//! Every session runs the sequential IGPR/IGP driver. `OPEN` still
//! accepts `workers=0` and `backend=sim-cm5|shared-mem` as no-ops: older
//! clients send them and older stores' config lines carry them. Any
//! `workers=<n ≥ 1>` asks for an SPMD session, which the daemon does not
//! run, and is refused.
//!
//! `METRICS` is the other multi-line exception, on the response side:
//! `OK metrics`, then the Prometheus-style text exposition, then a
//! line reading `END`. `TRACE DUMP` answers the same way (`OK trace`,
//! indented span trees, `END`); `TRACE SLOW` sets the slow-request log
//! threshold (0 disables) and answers `OK trace slow_us=<v>`.
//!
//! The two `REPL` verbs (DESIGN.md §11) also answer multi-line: a
//! header with byte counts, hex-encoded payload lines (64 KiB of raw
//! bytes per line), then `END`. `REPL SYNC` ships the session's meta,
//! current snapshot and WAL files; `REPL FRAME` ships the raw WAL
//! frames in `[offset, wal_end)` of log `<seq>`, answering
//! `ERR repl-stale` after a rotation so the follower knows to resync.
//! `PROMOTE` flips a follower to primary.
//!
//! `STALL` is fault injection for the liveness watchdogs (DESIGN.md
//! §14.2): it wedges the event loop (`LOOP`) or one pool worker
//! (`WORKER`) for the given number of milliseconds, so tests and chaos
//! drills can assert `/healthz` flips to degraded and recovers. It is
//! refused with `ERR proto` unless the daemon was started with
//! `--debug-stall`.

use crate::policy::RepartitionPolicy;
use crate::session::{InitPartition, SessionConfig};
use igp_graph::GraphDelta;

/// A parsed request line (the `OPEN` graph block is read separately).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Ping,
    Open { sid: String, cfg: SessionConfig },
    Delta { sid: String, delta: GraphDelta },
    Flush { sid: String },
    Stat { sid: String },
    Part { sid: String },
    Close { sid: String },
    List,
    Metrics,
    Shutdown,
    ReplSync { sid: String },
    ReplFrames { sid: String, seq: u64, offset: u64 },
    Promote,
    TraceDump { n: usize },
    TraceSlow { threshold_us: u64 },
    Stall { target: StallTarget, ms: u64 },
}

impl Request {
    /// Index of this request's verb into [`crate::obs::VERBS`] and the
    /// per-verb metric arrays.
    pub fn verb_idx(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Open { .. } => 1,
            Request::Delta { .. } => 2,
            Request::Flush { .. } => 3,
            Request::Stat { .. } => 4,
            Request::Part { .. } => 5,
            Request::Close { .. } => 6,
            Request::List => 7,
            Request::Metrics => 8,
            Request::Shutdown => 9,
            Request::ReplSync { .. } => 10,
            Request::ReplFrames { .. } => 11,
            Request::Promote => 12,
            Request::TraceDump { .. } | Request::TraceSlow { .. } => 13,
            Request::Stall { .. } => 14,
        }
    }

    /// The session id this request targets, if any — worker log context.
    pub fn sid(&self) -> Option<&str> {
        match self {
            Request::Open { sid, .. }
            | Request::Delta { sid, .. }
            | Request::Flush { sid }
            | Request::Stat { sid }
            | Request::Part { sid }
            | Request::Close { sid }
            | Request::ReplSync { sid }
            | Request::ReplFrames { sid, .. } => Some(sid),
            Request::Ping
            | Request::List
            | Request::Metrics
            | Request::Shutdown
            | Request::Promote
            | Request::TraceDump { .. }
            | Request::TraceSlow { .. }
            | Request::Stall { .. } => None,
        }
    }
}

/// What `STALL` wedges: the event loop thread or one pool worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallTarget {
    Loop,
    Worker,
}

/// Longest accepted `STALL` (keeps fault injection from turning into a
/// denial of service even with `--debug-stall` on).
pub const STALL_MAX_MS: u64 = 10_000;

/// Traces a bare `TRACE DUMP` renders.
pub const TRACE_DUMP_DEFAULT: usize = 32;

/// Upper bound on `TRACE DUMP <n>` (the completed-trace ring holds no
/// more anyway).
pub const TRACE_DUMP_MAX: usize = 1024;

/// Session ids are single tokens: no whitespace, printable, bounded.
/// A durable session's id names its directory under `--data-dir`, so
/// an id must also be exactly one plain path component: with `/`
/// excluded, that rules out only `.` and `..`.
pub(crate) fn check_sid(sid: &str) -> Result<String, String> {
    if sid.is_empty() || sid.len() > 128 {
        return Err("session id must be 1..=128 characters".into());
    }
    if !sid
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
    {
        return Err(format!("bad session id `{sid}` (alnum -_.: only)"));
    }
    if sid == "." || sid == ".." {
        return Err(format!("bad session id `{sid}` (not a path component)"));
    }
    Ok(sid.to_string())
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or("empty request")?;
    let rest: Vec<&str> = tokens.collect();
    let one_sid = |what: &str| -> Result<String, String> {
        match rest.as_slice() {
            [sid] => check_sid(sid),
            _ => Err(format!("usage: {what} <sid>")),
        }
    };
    match verb {
        "PING" => {
            if rest.is_empty() {
                Ok(Request::Ping)
            } else {
                Err("usage: PING".into())
            }
        }
        "OPEN" => {
            let (sid, opts) = rest.split_first().ok_or("usage: OPEN <sid> parts=<p> …")?;
            let sid = check_sid(sid)?;
            let cfg = parse_open_opts(opts)?;
            Ok(Request::Open { sid, cfg })
        }
        "DELTA" => {
            let (sid, fields) = rest.split_first().ok_or("usage: DELTA <sid> [av=…] …")?;
            let sid = check_sid(sid)?;
            let delta = parse_delta_fields(fields)?;
            Ok(Request::Delta { sid, delta })
        }
        "FLUSH" => Ok(Request::Flush {
            sid: one_sid("FLUSH")?,
        }),
        "STAT" => Ok(Request::Stat {
            sid: one_sid("STAT")?,
        }),
        "PART" => Ok(Request::Part {
            sid: one_sid("PART")?,
        }),
        "CLOSE" => Ok(Request::Close {
            sid: one_sid("CLOSE")?,
        }),
        "LIST" => {
            if rest.is_empty() {
                Ok(Request::List)
            } else {
                Err("usage: LIST".into())
            }
        }
        "METRICS" => {
            if rest.is_empty() {
                Ok(Request::Metrics)
            } else {
                Err("usage: METRICS".into())
            }
        }
        "SHUTDOWN" => {
            if rest.is_empty() {
                Ok(Request::Shutdown)
            } else {
                Err("usage: SHUTDOWN".into())
            }
        }
        "REPL" => match rest.as_slice() {
            ["SYNC", sid] => Ok(Request::ReplSync {
                sid: check_sid(sid)?,
            }),
            ["FRAME", sid, seq, offset] => Ok(Request::ReplFrames {
                sid: check_sid(sid)?,
                seq: seq.parse().map_err(|e| format!("bad seq: {e}"))?,
                offset: offset.parse().map_err(|e| format!("bad offset: {e}"))?,
            }),
            _ => Err("usage: REPL SYNC <sid> | REPL FRAME <sid> <seq> <offset>".into()),
        },
        "PROMOTE" => {
            if rest.is_empty() {
                Ok(Request::Promote)
            } else {
                Err("usage: PROMOTE".into())
            }
        }
        "TRACE" => match rest.as_slice() {
            ["DUMP"] => Ok(Request::TraceDump {
                n: TRACE_DUMP_DEFAULT,
            }),
            ["DUMP", n] => {
                let n: usize = n.parse().map_err(|e| format!("bad trace count: {e}"))?;
                if n == 0 || n > TRACE_DUMP_MAX {
                    return Err(format!("trace count must be 1..={TRACE_DUMP_MAX}"));
                }
                Ok(Request::TraceDump { n })
            }
            ["SLOW", us] => Ok(Request::TraceSlow {
                threshold_us: us.parse().map_err(|e| format!("bad threshold: {e}"))?,
            }),
            _ => Err("usage: TRACE DUMP [n] | TRACE SLOW <threshold_us>".into()),
        },
        "STALL" => {
            let (target, ms) = match rest.as_slice() {
                ["LOOP", ms] => (StallTarget::Loop, ms),
                ["WORKER", ms] => (StallTarget::Worker, ms),
                _ => return Err("usage: STALL LOOP <ms> | STALL WORKER <ms>".into()),
            };
            let ms: u64 = ms.parse().map_err(|e| format!("bad stall ms: {e}"))?;
            if ms == 0 || ms > STALL_MAX_MS {
                return Err(format!("stall ms must be 1..={STALL_MAX_MS}"));
            }
            Ok(Request::Stall { target, ms })
        }
        other => Err(format!("unknown verb `{other}`")),
    }
}

/// The largest `parts=` an `OPEN` may ask for: 32× the paper's P. A
/// step allocates P × P tables, so an unbounded P is an allocation the
/// client chooses. A limit, not a setting.
pub const MAX_PARTS: usize = 1024;

/// Parse `OPEN` options (`parts=` is mandatory, at most [`MAX_PARTS`]).
pub fn parse_open_opts(opts: &[&str]) -> Result<SessionConfig, String> {
    let mut parts: Option<usize> = None;
    let mut cfg = SessionConfig::new(1);
    for opt in opts {
        let (key, value) = opt
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{opt}`"))?;
        match key {
            "parts" => {
                let p: usize = value.parse().map_err(|e| format!("bad parts: {e}"))?;
                if p == 0 {
                    return Err("parts must be ≥ 1".into());
                }
                if p > MAX_PARTS {
                    return Err(format!("parts={p} exceeds the limit of {MAX_PARTS}"));
                }
                parts = Some(p);
            }
            "policy" => {
                cfg.policy = value.parse::<RepartitionPolicy>()?;
            }
            "refined" => {
                cfg.refined = parse_bool(value).map_err(|e| format!("bad refined: {e}"))?;
            }
            // Legacy no-ops (see the module docs).
            "workers" => {
                let w: usize = value.parse().map_err(|e| format!("bad workers: {e}"))?;
                if w != 0 {
                    return Err(format!(
                        "workers={w}: the per-session parallel driver was removed; \
                         sessions run sequentially (only workers=0 is accepted)"
                    ));
                }
            }
            "backend" => {
                if !matches!(value, "sim-cm5" | "shared-mem") {
                    return Err(format!("bad backend `{value}` (sim-cm5|shared-mem)"));
                }
            }
            "init" => {
                cfg.init = value.parse::<InitPartition>()?;
            }
            other => return Err(format!("unknown OPEN option `{other}`")),
        }
    }
    cfg.parts = parts.ok_or("OPEN requires parts=<p>")?;
    Ok(cfg)
}

/// Check that a config survives the wire unchanged: encoding then
/// parsing must reproduce it exactly. Fails for configs the grammar
/// cannot express — e.g. a [`crate::policy::CostTrigger`] with custom
/// [`igp_runtime::CostModel`] constants (the wire always reconstructs
/// CM-5 constants) — so the daemon-equals-replay contract cannot be
/// silently broken by a lossy upload.
pub fn check_wire_representable(cfg: &SessionConfig) -> Result<(), String> {
    let enc = encode_open_opts(cfg);
    let tokens: Vec<&str> = enc.split_ascii_whitespace().collect();
    let back = parse_open_opts(&tokens)?;
    if back != *cfg {
        return Err(
            "session config is not wire-representable (custom CostModel constants?); \
             the daemon would reconstruct a different config"
                .into(),
        );
    }
    Ok(())
}

/// Encode `OPEN` options for a config (inverse of [`parse_open_opts`]).
pub fn encode_open_opts(cfg: &SessionConfig) -> String {
    format!(
        "parts={} policy={} refined={} init={}",
        cfg.parts,
        cfg.policy,
        u8::from(cfg.refined),
        cfg.init
    )
}

/// Strict protocol boolean: `0|1|true|false` only (shared with
/// `igp-cli` so flag and wire semantics cannot drift).
pub fn parse_bool(s: &str) -> Result<bool, String> {
    match s {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("`{other}` is not a boolean (0|1)")),
    }
}

/// Encode a delta as `DELTA` request fields. Empty lists are omitted;
/// an empty delta encodes to an empty string. (Delegates to
/// [`igp_graph::io::write_delta_fields`] — the one delta text grammar,
/// shared with the durability tooling.)
pub fn encode_delta_fields(d: &GraphDelta) -> String {
    igp_graph::io::write_delta_fields(d)
}

/// Parse `DELTA` request fields (inverse of [`encode_delta_fields`]).
pub fn parse_delta_fields(fields: &[&str]) -> Result<GraphDelta, String> {
    igp_graph::io::read_delta_fields(fields).map_err(|e| e.to_string())
}

/// Raw bytes per hex line in multi-line `REPL` replies: 64 KiB of
/// payload → 128 KiB lines, well under any reader's line budget.
pub const HEX_LINE_BYTES: usize = 64 * 1024;

/// Hex-encode `bytes` as newline-terminated lines of at most
/// [`HEX_LINE_BYTES`] raw bytes each; empty input yields no lines. The
/// receiver knows the byte count from the reply header, so the lines
/// carry no length framing of their own.
pub fn encode_hex_lines(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let lines = bytes.len().div_ceil(HEX_LINE_BYTES);
    let mut out = String::with_capacity(bytes.len() * 2 + lines);
    for chunk in bytes.chunks(HEX_LINE_BYTES) {
        for &b in chunk {
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xf) as usize] as char);
        }
        out.push('\n');
    }
    out
}

/// Decode one hex line produced by [`encode_hex_lines`], appending the
/// bytes to `out`.
pub fn decode_hex_into(line: &str, out: &mut Vec<u8>) -> Result<(), String> {
    fn nibble(b: u8) -> Result<u8, String> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            other => Err(format!("bad hex byte 0x{other:02x}")),
        }
    }
    let bytes = line.trim_end().as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(format!("odd hex line length {}", bytes.len()));
    }
    out.reserve(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(())
}

/// Split a response tail of `key=value` tokens into pairs (shared by
/// client-side parsers and tests).
pub fn parse_kv(tokens: &[&str]) -> Result<Vec<(String, String)>, String> {
    tokens
        .iter()
        .map(|t| {
            t.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("expected key=value, got `{t}`"))
        })
        .collect()
}

/// Fetch a required field from [`parse_kv`] output.
pub fn kv_get<'a>(kv: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    kv.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RepartitionPolicy;

    #[test]
    fn delta_fields_roundtrip() {
        let d = GraphDelta {
            add_vertices: vec![1, 7],
            remove_vertices: vec![3, 9],
            add_edges: vec![(0, 20, 2), (20, 21, 1)],
            remove_edges: vec![(4, 5)],
        };
        let enc = encode_delta_fields(&d);
        let tokens: Vec<&str> = enc.split_ascii_whitespace().collect();
        assert_eq!(parse_delta_fields(&tokens).unwrap(), d);
        // Empty delta → empty encoding → empty delta.
        assert_eq!(encode_delta_fields(&GraphDelta::default()), "");
        assert_eq!(parse_delta_fields(&[]).unwrap(), GraphDelta::default());
    }

    #[test]
    fn open_opts_roundtrip() {
        let mut cfg = SessionConfig::new(8);
        cfg.policy = RepartitionPolicy::DirtFraction(0.05);
        cfg.refined = false;
        cfg.init = InitPartition::RoundRobin;
        let enc = encode_open_opts(&cfg);
        let tokens: Vec<&str> = enc.split_ascii_whitespace().collect();
        assert_eq!(parse_open_opts(&tokens).unwrap(), cfg);
    }

    /// The config line every older client and store carries still
    /// parses, to the same config; asking for SPMD workers does not.
    #[test]
    fn legacy_workers_and_backend_tokens() {
        let legacy = "parts=4 policy=every:1 refined=1 workers=0 backend=sim-cm5 init=rr";
        let tokens: Vec<&str> = legacy.split_ascii_whitespace().collect();
        let mut want = SessionConfig::new(4);
        want.init = InitPartition::RoundRobin;
        assert_eq!(parse_open_opts(&tokens).unwrap(), want);
        assert_eq!(
            parse_open_opts(&["parts=4", "backend=shared-mem"]).unwrap(),
            SessionConfig::new(4)
        );
        let err = parse_open_opts(&["parts=4", "workers=2"]).unwrap_err();
        assert!(err.contains("removed"), "{err}");
        for bad in ["workers=-1", "workers=x", "backend=gpu", "backend="] {
            assert!(parse_open_opts(&["parts=4", bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn wire_representability_guard() {
        use crate::policy::CostTrigger;
        use igp_runtime::CostModel;

        // Everything the grammar can express passes.
        let mut cfg = SessionConfig::new(4);
        cfg.policy = RepartitionPolicy::CostModelDriven(CostTrigger::default());
        check_wire_representable(&cfg).unwrap();
        // Custom cost-model constants cannot ride the wire: the daemon
        // would rebuild CM-5 constants and diverge from replay.
        cfg.policy = RepartitionPolicy::CostModelDriven(CostTrigger {
            cost: CostModel {
                t_work: 1.0,
                alpha: 0.0,
                beta: 0.0,
            },
            ..CostTrigger::default()
        });
        assert!(check_wire_representable(&cfg).is_err());
    }

    #[test]
    fn request_lines_parse() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("LIST").unwrap(), Request::List);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        match parse_request("OPEN s1 parts=4 policy=every:2").unwrap() {
            Request::Open { sid, cfg } => {
                assert_eq!(sid, "s1");
                assert_eq!(cfg.parts, 4);
                assert_eq!(cfg.policy, RepartitionPolicy::EveryK(2));
            }
            other => panic!("{other:?}"),
        }
        match parse_request("DELTA s1 av=1 ae=0:16:1").unwrap() {
            Request::Delta { sid, delta } => {
                assert_eq!(sid, "s1");
                assert_eq!(delta.add_vertices, vec![1]);
                assert_eq!(delta.add_edges, vec![(0, 16, 1)]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request("FLUSH s1").unwrap(),
            Request::Flush { sid: "s1".into() }
        );
        for bad in [
            "",
            "NOPE",
            "OPEN",
            "OPEN s1", // missing parts
            "OPEN s1 parts=0",
            // over MAX_PARTS, and over usize::MAX
            "OPEN s1 parts=1025",
            "OPEN s1 parts=18446744073709551616",
            "OPEN bad id parts=2",       // whitespace id → extra token
            "OPEN s1 parts=2 workers=3", // no SPMD sessions
            "OPEN . parts=2",
            "OPEN .. parts=2",
            "CLOSE ..",
            "REPL SYNC ..",
            "DELTA s1 av=x",
            "DELTA s1 ae=1:2",
            "FLUSH",
            "FLUSH a b",
            "PING extra",
            "METRICS extra",
            "OPEN s!/ parts=2",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn repl_and_promote_lines_parse() {
        assert_eq!(
            parse_request("REPL SYNC s1").unwrap(),
            Request::ReplSync { sid: "s1".into() }
        );
        assert_eq!(
            parse_request("REPL FRAME s1 3 1024").unwrap(),
            Request::ReplFrames {
                sid: "s1".into(),
                seq: 3,
                offset: 1024
            }
        );
        assert_eq!(parse_request("PROMOTE").unwrap(), Request::Promote);
        for bad in [
            "REPL",
            "REPL SYNC",
            "REPL SYNC a b",
            "REPL FRAME s1 3",
            "REPL FRAME s1 x 0",
            "REPL FRAME s1 3 -1",
            "REPL NOPE s1",
            "PROMOTE now",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn trace_lines_parse() {
        assert_eq!(
            parse_request("TRACE DUMP").unwrap(),
            Request::TraceDump {
                n: TRACE_DUMP_DEFAULT
            }
        );
        assert_eq!(
            parse_request("TRACE DUMP 5").unwrap(),
            Request::TraceDump { n: 5 }
        );
        assert_eq!(
            parse_request(&format!("TRACE DUMP {TRACE_DUMP_MAX}")).unwrap(),
            Request::TraceDump { n: TRACE_DUMP_MAX }
        );
        assert_eq!(
            parse_request("TRACE SLOW 2500").unwrap(),
            Request::TraceSlow { threshold_us: 2500 }
        );
        assert_eq!(
            parse_request("TRACE SLOW 0").unwrap(),
            Request::TraceSlow { threshold_us: 0 }
        );
        for bad in [
            "TRACE",
            "TRACE DUMP 0",
            "TRACE DUMP x",
            "TRACE DUMP 5 6",
            &format!("TRACE DUMP {}", TRACE_DUMP_MAX + 1),
            "TRACE SLOW",
            "TRACE SLOW -1",
            "TRACE SLOW x",
            "TRACE NOPE",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn stall_lines_parse() {
        assert_eq!(
            parse_request("STALL LOOP 250").unwrap(),
            Request::Stall {
                target: StallTarget::Loop,
                ms: 250
            }
        );
        assert_eq!(
            parse_request("STALL WORKER 1").unwrap(),
            Request::Stall {
                target: StallTarget::Worker,
                ms: 1
            }
        );
        for bad in [
            "STALL",
            "STALL LOOP",
            "STALL LOOP 0",
            "STALL LOOP x",
            "STALL WORKER 10001",
            "STALL BOTH 5",
            "STALL LOOP 5 6",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn hex_lines_roundtrip() {
        for len in [
            0usize,
            1,
            2,
            255,
            HEX_LINE_BYTES - 1,
            HEX_LINE_BYTES,
            HEX_LINE_BYTES + 7,
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let enc = encode_hex_lines(&bytes);
            let mut back = Vec::new();
            for line in enc.lines() {
                assert!(line.len() <= 2 * HEX_LINE_BYTES);
                decode_hex_into(line, &mut back).unwrap();
            }
            assert_eq!(back, bytes, "len={len}");
        }
        let mut out = Vec::new();
        assert!(decode_hex_into("0g", &mut out).is_err());
        assert!(decode_hex_into("abc", &mut out).is_err());
    }

    #[test]
    fn kv_helpers() {
        let kv = parse_kv(&["a=1", "b=x"]).unwrap();
        assert_eq!(kv_get(&kv, "a").unwrap(), "1");
        assert_eq!(kv_get(&kv, "b").unwrap(), "x");
        assert!(kv_get(&kv, "c").is_err());
        assert!(parse_kv(&["noequals"]).is_err());
    }
}
