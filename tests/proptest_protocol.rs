//! Request-grammar property suite: `protocol::parse_request` under
//! generated lines. Three invariants:
//!
//! * no line panics the parser — every rejection is an `Err`;
//! * every accepted `OPEN` config survives the wire: encoding it and
//!   parsing it back gives the same config, and
//!   `check_wire_representable` accepts it;
//! * every accepted session id is exactly one plain path component (a
//!   durable session's id names its directory under the data dir);
//! * no accepted `OPEN` asks for more than `MAX_PARTS` partitions.
//!
//! Failure seeds persist to `tests/regressions/`.

mod common;

use common::Lcg;
use igp::service::protocol::{
    check_wire_representable, encode_open_opts, parse_open_opts, parse_request, Request, MAX_PARTS,
};
use proptest::prelude::*;
use std::ffi::OsStr;
use std::path::{Component, Path};

const VERBS: &[&str] = &[
    "PING", "OPEN", "DELTA", "FLUSH", "STAT", "PART", "CLOSE", "LIST", "METRICS", "SHUTDOWN",
    "REPL", "SYNC", "FRAME", "PROMOTE", "TRACE", "DUMP", "SLOW", "STALL", "LOOP", "WORKER",
];

const OPEN_KEYS: &[&str] = &[
    "parts", "policy", "refined", "workers", "backend", "init", "bogus",
];

const SIDS: &[&str] = &[
    ".", "..", "...", "a", "s1", "a.b", "-", "_:.", ".a", "..a", "a..", "a/b", "a\\b", "é",
];

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "32",
    "-1",
    "+3",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "1e308",
    "1e309",
    "5e-324",
    "0.05",
    "-0.0",
    "18446744073709551615",
    "18446744073709551616",
    "0x10",
    "",
];

const WORDS: &[&str] = &[
    "every",
    "dirt",
    "cost",
    "sim-cm5",
    "shared-mem",
    "shm",
    "rsb",
    "rr",
    "true",
    "false",
];

fn pick<'a>(rng: &mut Lcg, pool: &[&'a str]) -> &'a str {
    pool[rng.below(pool.len())]
}

/// A session id: from the pool, a random run of the id alphabet, or
/// one character either side of the 128-character bound.
fn sid(rng: &mut Lcg) -> String {
    const ALPHABET: &[u8] = b"ab9-_.:";
    match rng.below(4) {
        0 | 1 => pick(rng, SIDS).to_string(),
        2 => (0..1 + rng.below(4))
            .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
            .collect(),
        _ => "s".repeat(128 + rng.below(2)),
    }
}

/// A policy spec with up to two numeric fields.
fn policy(rng: &mut Lcg) -> String {
    let mut spec = pick(rng, &["every", "dirt", "cost"]).to_string();
    for _ in 0..rng.below(3) {
        spec.push(':');
        spec.push_str(pick(rng, NUMBERS));
    }
    spec
}

fn value(rng: &mut Lcg) -> String {
    match rng.below(3) {
        0 => pick(rng, NUMBERS).to_string(),
        1 => pick(rng, WORDS).to_string(),
        _ => policy(rng),
    }
}

/// One token of a soup: any verb, option, sid, number or delta field.
fn soup_token(rng: &mut Lcg) -> String {
    match rng.below(6) {
        0 => pick(rng, VERBS).to_string(),
        1 => format!("{}={}", pick(rng, OPEN_KEYS), value(rng)),
        2 => sid(rng),
        3 => pick(rng, NUMBERS).to_string(),
        4 => format!(
            "{}={}:{}",
            pick(rng, &["av", "rv", "ae", "re"]),
            pick(rng, NUMBERS),
            pick(rng, NUMBERS)
        ),
        _ => value(rng),
    }
}

/// `OPEN <sid> parts=…` plus a random subset of the options, each with
/// a well-formed value most of the time and a hostile one otherwise.
/// One `parts=` in eight lands within 64 of `MAX_PARTS`, on either side.
fn open_line(rng: &mut Lcg) -> String {
    let parts = match rng.below(8) {
        0 => MAX_PARTS - 63 + rng.below(128),
        _ => 1 + rng.below(64),
    };
    let mut line = format!("OPEN {} parts={parts}", sid(rng));
    for key in ["policy", "refined", "workers", "backend", "init"] {
        if rng.below(2) == 0 {
            continue;
        }
        let v = if rng.below(4) == 0 {
            value(rng)
        } else {
            match key {
                "policy" => policy(rng),
                "refined" => pick(rng, &["0", "1", "true", "false"]).into(),
                "workers" => "0".into(),
                "backend" => pick(rng, &["sim-cm5", "shared-mem"]).into(),
                _ => pick(rng, &["rsb", "rr"]).into(),
            }
        };
        line.push_str(&format!(" {key}={v}"));
    }
    line
}

/// Parse `line` and check every invariant on what comes back.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            prop_assert!(!e.is_empty(), "empty error for {line:?}");
            return Ok(());
        }
    };
    if let Some(sid) = req.sid() {
        let comps: Vec<Component> = Path::new(sid).components().collect();
        prop_assert_eq!(
            comps,
            vec![Component::Normal(OsStr::new(sid))],
            "accepted sid {:?} is not one plain path component",
            sid
        );
    }
    if let Request::Open { sid, cfg } = &req {
        prop_assert!(cfg.parts <= MAX_PARTS, "{line:?} accepted over the cap");
        let enc = encode_open_opts(cfg);
        let tokens: Vec<&str> = enc.split_ascii_whitespace().collect();
        prop_assert_eq!(
            parse_open_opts(&tokens),
            Ok(cfg.clone()),
            "{line:?} → {enc:?}"
        );
        prop_assert!(
            check_wire_representable(cfg).is_ok(),
            "{line:?} accepted but not wire-representable"
        );
        prop_assert_eq!(parse_request(&format!("OPEN {sid} {enc}")), Ok(req.clone()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(common::tier1_config(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        check_line(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soups_never_panic(seed in any::<u64>()) {
        let mut rng = Lcg::new(seed);
        let tokens: Vec<String> = (0..rng.below(8)).map(|_| soup_token(&mut rng)).collect();
        check_line(&tokens.join(pick(&mut rng, &[" ", "  ", "\t"])))?;
    }

    #[test]
    fn accepted_open_round_trips(seed in any::<u64>()) {
        let mut rng = Lcg::new(seed);
        check_line(&open_line(&mut rng))?;
    }
}

/// The generators reach the accepting paths the properties are about:
/// a healthy share of generated `OPEN` lines parse, including legacy
/// `workers=0` / `backend=` ones, and `parts=` crosses `MAX_PARTS`.
#[test]
fn open_generator_reaches_accepted_lines() {
    let mut rng = Lcg::new(0x9e37);
    let lines: Vec<String> = (0..400).map(|_| open_line(&mut rng)).collect();
    let accepted: Vec<&String> = lines.iter().filter(|l| parse_request(l).is_ok()).collect();
    assert!(accepted.len() > 40, "{} of 400 accepted", accepted.len());
    assert!(accepted.iter().any(|l| l.contains("workers=0")));
    assert!(accepted.iter().any(|l| l.contains("backend=shared-mem")));
    assert!(accepted.iter().any(|l| l.contains("policy=cost:")));
    // `parts=` reaches both sides of the cap.
    let parts = |l: &str| -> usize {
        let v = l.split_once("parts=").unwrap().1;
        v.split(' ').next().unwrap().parse().unwrap()
    };
    assert!(accepted.iter().any(|l| parts(l) > 64));
    assert!(lines.iter().any(|l| parts(l) > MAX_PARTS));
}
