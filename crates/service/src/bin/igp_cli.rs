//! `igp-cli` — scriptable client for `igp-serve`.
//!
//! ```text
//! igp-cli [--addr HOST:PORT] ping
//! igp-cli [--addr HOST:PORT] open <sid> --parts P (--grid RxC | --metis FILE)
//!                                 [--policy SPEC] [--init rsb|rr]
//!                                 [--refined 0|1]
//! igp-cli [--addr HOST:PORT] delta <sid> [av=…] [rv=…] [ae=…] [re=…]
//! igp-cli [--addr HOST:PORT] flush|stat|part|close <sid>
//! igp-cli [--addr HOST:PORT] list | shutdown | promote
//! igp-cli [--addr HOST:PORT] metrics [--watch] [--interval SECS]
//! igp-cli [--addr HOST:PORT] trace [--dump N] [--slow THRESHOLD_US]
//! igp-cli [--addr HOST:PORT] demo [--sessions N] [--deltas K] [--parts P]
//!                                 [--policy SPEC] [--seed S]
//! igp-cli [--addr HOST:PORT] soak [--sessions N] [--parts P] [--hold-secs S]
//! igp-cli health [--http HOST:PORT] [--watch] [--interval SECS]
//! igp-cli diag <bundle-file>
//! igp-cli replay <data-dir> [sid]
//! ```
//!
//! `demo` drives the full loop end to end: it opens N sessions on
//! generated grids, streams K churn deltas each (tracking the virtual
//! graph client-side), forces a final flush, prints per-session
//! statistics and closes the sessions — the CI smoke test in a box.
//!
//! `promote` turns a read-replica follower (`igp-serve --follow`) into
//! a writable primary — the manual half of failover; the daemon can
//! also self-promote on heartbeat timeout (`--failover-ms`).
//!
//! `soak` is the event-loop scale probe: it opens N concurrent
//! connections, each holding one tiny open session, verifies via
//! `METRICS` that the daemon sees all N (`active_sessions`,
//! `conns_active`), prints `soak ready`, idles for `--hold-secs`, then
//! drops every connection. While it holds, the daemon's thread count
//! must stay O(worker pool) — the CI idle-soak job asserts that from
//! `/proc/<pid>/status`.
//!
//! `trace` dumps the daemon's flight recorder: the span trees of the
//! most recently completed request traces (`--dump N` picks how many,
//! newest last). `--slow N` instead sets the daemon's slow-request
//! threshold in µs (0 disables the slow log).
//!
//! `health` talks to the daemon's ops-plane HTTP listener (`igp-serve
//! --http`, not the line-protocol port): it fetches `/healthz` and
//! `/readyz`, prints the per-component watchdog verdicts, and exits
//! nonzero unless both answered 200 — a scriptable probe for CI and
//! process supervisors. `--watch` re-probes on an interval and never
//! exits on an unhealthy answer (the point is to watch it recover).
//!
//! `diag` validates a black-box bundle written by `igp-serve
//! --diag-dir` (structure, magic, end marker) and prints its reason and
//! section inventory; exits nonzero on a malformed or truncated bundle.
//!
//! `replay` needs no server: it inspects a `--data-dir` tree offline —
//! per session, the stored config, the latest snapshot, the WAL tail
//! (record counts + bytes), the tail coalesced into one canonical
//! delta, its dirt statistics, and any corruption the frame checksums
//! caught.

use igp_graph::{generators, io as graph_io};
use igp_service::client::{http_get, DeltaAck, IgpClient};
use igp_service::protocol::{parse_bool, parse_delta_fields};
use igp_service::session::SessionConfig;
use igp_store::SessionStore;
use std::io::Write as _;

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: igp-cli [--addr HOST:PORT] [--log-level LEVEL] \
         <ping|open|delta|flush|stat|part|close|list|metrics|trace|promote|shutdown|demo|soak> …\n\
         \x20      igp-cli metrics [--watch] [--interval SECS]\n\
         \x20      igp-cli trace [--dump N] [--slow THRESHOLD_US]\n\
         \x20      igp-cli soak [--sessions N] [--parts P] [--hold-secs S]\n\
         \x20      igp-cli health [--http HOST:PORT] [--watch] [--interval SECS]\n\
         \x20      igp-cli diag <bundle-file>\n\
         \x20      igp-cli replay <data-dir> [sid]"
    );
    std::process::exit(code);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    igp_obs::error!(target: "cli", msg);
    std::process::exit(1);
}

fn connect(addr: &str) -> IgpClient {
    IgpClient::connect(addr).unwrap_or_else(|e| fail(format!("connect {addr}: {e}")))
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        usage(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let addr = take_value(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7421".into());
    if let Some(l) = take_value(&mut args, "--log-level") {
        match igp_obs::Level::parse(&l) {
            Some(l) => igp_obs::set_max_level(l),
            None => fail(format!("bad --log-level `{l}` (error|warn|info|debug)")),
        }
    }
    if args.is_empty() {
        usage(2);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "ping" => {
            connect(&addr).ping().unwrap_or_else(|e| fail(e));
            println!("PONG");
        }
        "open" => cmd_open(&addr, args),
        "delta" => {
            if args.is_empty() {
                usage(2);
            }
            let sid = args.remove(0);
            let fields: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
            let delta = parse_delta_fields(&fields).unwrap_or_else(|e| fail(e));
            match connect(&addr)
                .delta(&sid, &delta)
                .unwrap_or_else(|e| fail(e))
            {
                DeltaAck::Queued { pending } => println!("queued pending={pending}"),
                DeltaAck::Stepped(s) => println!(
                    "step={} coalesced={} n={} cut={} imbalance={:.4} moved={}",
                    s.step, s.coalesced, s.n, s.cut, s.imbalance, s.moved
                ),
            }
        }
        "flush" | "stat" | "part" | "close" => {
            if args.len() != 1 {
                usage(2);
            }
            let sid = &args[0];
            let mut cli = connect(&addr);
            match cmd.as_str() {
                "flush" => match cli.flush(sid).unwrap_or_else(|e| fail(e)) {
                    Some(s) => println!(
                        "step={} coalesced={} n={} cut={} imbalance={:.4} moved={}",
                        s.step, s.coalesced, s.n, s.cut, s.imbalance, s.moved
                    ),
                    None => println!("noop"),
                },
                "stat" => {
                    let s = cli.stat(sid).unwrap_or_else(|e| fail(e));
                    if let Some(role) = &s.role {
                        print!("role={role} ");
                    }
                    print!(
                        "n={} m={} cut={} imbalance={:.4} pending={} steps={} moved={} scratch={}",
                        s.n, s.m, s.cut, s.imbalance, s.pending, s.steps, s.moved, s.scratch
                    );
                    if let (Some(r), Some(b), Some(q)) = (s.wal_records, s.wal_bytes, s.snap_seq) {
                        print!(" wal_records={r} wal_bytes={b} snap_seq={q}");
                    }
                    if let (Some(p50), Some(p99), Some(mx)) =
                        (s.repart_p50_us, s.repart_p99_us, s.repart_max_us)
                    {
                        print!(" repart_p50_us={p50} repart_p99_us={p99} repart_max_us={mx}");
                    }
                    println!();
                }
                "part" => {
                    let assign = cli.partition(sid).unwrap_or_else(|e| fail(e));
                    let strs: Vec<String> = assign.iter().map(|p| p.to_string()).collect();
                    println!("{}", strs.join(" "));
                }
                "close" => {
                    cli.close(sid).unwrap_or_else(|e| fail(e));
                    println!("closed {sid}");
                }
                _ => unreachable!(),
            }
        }
        "list" => {
            for sid in connect(&addr).list().unwrap_or_else(|e| fail(e)) {
                println!("{sid}");
            }
        }
        "shutdown" => {
            connect(&addr).shutdown().unwrap_or_else(|e| fail(e));
            println!("server shut down");
        }
        "promote" => {
            let was_follower = connect(&addr).promote().unwrap_or_else(|e| fail(e));
            if was_follower {
                println!("promoted to primary");
            } else {
                println!("already primary");
            }
        }
        "metrics" => cmd_metrics(&addr, args),
        "trace" => cmd_trace(&addr, args),
        "demo" => cmd_demo(&addr, args),
        "soak" => cmd_soak(&addr, args),
        "health" => cmd_health(args),
        "diag" => cmd_diag(args),
        "replay" => cmd_replay(args),
        _ => usage(2),
    }
}

/// Scrape the daemon's `METRICS` exposition; `--watch` re-scrapes on an
/// interval (default 2s) over one connection, with a form-feed-free
/// `---` separator between scrapes so the output stays pipeable.
fn cmd_metrics(addr: &str, mut args: Vec<String>) {
    let watch = args
        .iter()
        .position(|a| a == "--watch")
        .map(|i| args.remove(i))
        .is_some();
    let interval: u64 = take_value(&mut args, "--interval")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| fail(format!("--interval: {e}")))
        })
        .unwrap_or(2);
    if !args.is_empty() {
        usage(2);
    }
    let mut cli = connect(addr);
    let mut out = std::io::stdout();
    loop {
        let text = cli.metrics().unwrap_or_else(|e| fail(e));
        // `--watch` is made for piping (`| head`, `| grep -m1 …`): a
        // closed stdout ends the watch instead of panicking.
        if write!(out, "{text}").and_then(|()| out.flush()).is_err() {
            return;
        }
        if !watch {
            return;
        }
        if writeln!(out, "---").is_err() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs(interval.max(1)));
    }
}

/// Dump the daemon's flight recorder (`TRACE DUMP`), or set its
/// slow-request threshold (`--slow N`, µs).
fn cmd_trace(addr: &str, mut args: Vec<String>) {
    let slow: Option<u64> = take_value(&mut args, "--slow")
        .map(|v| v.parse().unwrap_or_else(|e| fail(format!("--slow: {e}"))));
    let dump: Option<usize> = take_value(&mut args, "--dump")
        .map(|v| v.parse().unwrap_or_else(|e| fail(format!("--dump: {e}"))));
    if !args.is_empty() {
        usage(2);
    }
    let mut cli = connect(addr);
    if let Some(us) = slow {
        let acked = cli.trace_slow(us).unwrap_or_else(|e| fail(e));
        println!("slow_us={acked}");
        return;
    }
    let text = cli.trace_dump(dump).unwrap_or_else(|e| fail(e));
    print!("{text}");
    let _ = std::io::stdout().flush();
}

/// Probe the ops plane: `GET /healthz` + `GET /readyz` against the
/// daemon's `--http` listener, render the component verdicts, and exit
/// nonzero unless both answered 200. `--watch` re-probes forever
/// instead (supervisors use the one-shot form to gate restarts).
fn cmd_health(mut args: Vec<String>) {
    let http = take_value(&mut args, "--http").unwrap_or_else(|| "127.0.0.1:7422".into());
    let watch = args
        .iter()
        .position(|a| a == "--watch")
        .map(|i| args.remove(i))
        .is_some();
    let interval: u64 = take_value(&mut args, "--interval")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| fail(format!("--interval: {e}")))
        })
        .unwrap_or(2);
    if !args.is_empty() {
        usage(2);
    }
    let timeout = std::time::Duration::from_secs(5);
    let mut out = std::io::stdout();
    loop {
        let (hcode, hbody) =
            http_get(&http, "/healthz", timeout).unwrap_or_else(|e| fail(format!("{http}: {e}")));
        let (rcode, rbody) =
            http_get(&http, "/readyz", timeout).unwrap_or_else(|e| fail(format!("{http}: {e}")));
        let mut text = format!("healthz {hcode}\n");
        // /healthz bodies are `status <overall>` + one line per
        // component; indent them under the probe line.
        for line in hbody.lines() {
            text.push_str(&format!("  {line}\n"));
        }
        // /readyz repeats the component table; only its verdict lines
        // (`ready 0|1`, `draining 1`) add information here.
        text.push_str(&format!("readyz {rcode}\n"));
        for line in rbody
            .lines()
            .take_while(|l| !l.starts_with("status "))
            .filter(|l| !l.is_empty())
        {
            text.push_str(&format!("  {line}\n"));
        }
        if write!(out, "{text}").and_then(|()| out.flush()).is_err() {
            return;
        }
        if !watch {
            if hcode != 200 || rcode != 200 {
                std::process::exit(1);
            }
            return;
        }
        if writeln!(out, "---").is_err() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs(interval.max(1)));
    }
}

/// Validate a black-box bundle (`igp-serve --diag-dir`) and print its
/// inventory; exit 1 if the bundle is malformed or truncated.
fn cmd_diag(mut args: Vec<String>) {
    if args.len() != 1 {
        usage(2);
    }
    let path = args.remove(0);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("read {path}: {e}")));
    match igp_obs::dump::validate(&text) {
        Ok(summary) => {
            println!("valid bundle: {path}");
            println!("  reason: {}", summary.reason);
            for (name, bytes) in &summary.sections {
                println!("  section {name}: {bytes} bytes");
            }
        }
        Err(e) => fail(format!("{path}: invalid bundle: {e}")),
    }
}

/// Offline WAL/snapshot inspector: no server, read-only.
fn cmd_replay(mut args: Vec<String>) {
    if args.is_empty() || args.len() > 2 {
        usage(2);
    }
    let data_dir = std::path::PathBuf::from(args.remove(0));
    let dirs: Vec<std::path::PathBuf> = if let Some(sid) = args.pop() {
        vec![data_dir.join(sid)]
    } else {
        let mut dirs: Vec<_> = std::fs::read_dir(&data_dir)
            .unwrap_or_else(|e| fail(format!("read {}: {e}", data_dir.display())))
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        if dirs.is_empty() {
            fail(format!(
                "no session directories under {}",
                data_dir.display()
            ));
        }
        dirs
    };
    let mut failed = false;
    for dir in dirs {
        let insp = match SessionStore::inspect(&dir) {
            Ok(i) => i,
            Err(e) => {
                igp_obs::error!(target: "cli", "inspect failed"; dir = dir.display(), error = e);
                failed = true;
                continue;
            }
        };
        let snap = &insp.snapshot;
        println!("{}:", insp.meta.sid);
        println!("  config   {}", insp.meta.config_line);
        println!(
            "  snapshot seq={} n={} m={} steps={} moved={} deltas={} scratch={} \
             (compacted {} WAL records into its lineage)",
            snap.seq,
            snap.graph.num_vertices(),
            snap.graph.num_edges(),
            snap.steps,
            snap.total_moved,
            snap.deltas_received,
            u8::from(snap.needs_scratch),
            snap.compacted_records,
        );
        println!(
            "  wal tail {} records ({} deltas, {} flushes), {} bytes",
            insp.tail_deltas + insp.tail_flushes,
            insp.tail_deltas,
            insp.tail_flushes,
            insp.tail_bytes,
        );
        let dirt = insp.tail_dirt;
        println!(
            "  coalesced tail: {} (touched={} +w{})",
            insp.tail_net.summary(),
            dirt.touched_vertices,
            dirt.added_weight,
        );
        if let Some(c) = &insp.corruption {
            println!("  WARNING: {c}");
        }
        if let Some(n) = &insp.note {
            println!("  note: {n}");
        }
    }
    if failed {
        // Scripts gate on the inspector's exit status; a directory that
        // failed to inspect must not read as success.
        std::process::exit(1);
    }
}

fn cmd_open(addr: &str, mut args: Vec<String>) {
    if args.is_empty() {
        usage(2);
    }
    let sid = args.remove(0);
    let parts: usize = take_value(&mut args, "--parts")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(2));
    if parts == 0 {
        fail("--parts must be ≥ 1");
    }
    let mut cfg = SessionConfig::new(parts);
    if let Some(p) = take_value(&mut args, "--policy") {
        cfg.policy = p.parse().unwrap_or_else(|e| fail(e));
    }
    if let Some(i) = take_value(&mut args, "--init") {
        cfg.init = i.parse().unwrap_or_else(|e| fail(e));
    }
    if let Some(r) = take_value(&mut args, "--refined") {
        cfg.refined = parse_bool(&r).unwrap_or_else(|e| fail(format!("--refined: {e}")));
    }
    let grid = take_value(&mut args, "--grid");
    let metis = take_value(&mut args, "--metis");
    if !args.is_empty() {
        usage(2);
    }
    let graph = match (grid, metis) {
        (Some(spec), None) => {
            let (r, c) = spec
                .split_once('x')
                .and_then(|(r, c)| Some((r.parse().ok()?, c.parse().ok()?)))
                .unwrap_or_else(|| fail(format!("bad --grid `{spec}` (want RxC)")));
            generators::grid(r, c)
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(format!("read {path}: {e}")));
            graph_io::read_metis(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
        }
        _ => fail("open needs exactly one of --grid RxC | --metis FILE"),
    };
    let ack = connect(addr)
        .open(&sid, &graph, &cfg)
        .unwrap_or_else(|e| fail(e));
    println!(
        "open {sid}: n={} m={} cut={} imbalance={:.4}",
        ack.n, ack.m, ack.cut, ack.imbalance
    );
}

/// Hold N concurrent idle sessions against the daemon and verify it
/// counts them all; the caller (CI's idle-soak job) asserts the
/// daemon's thread count stays flat while this holds.
fn cmd_soak(addr: &str, mut args: Vec<String>) {
    let sessions: usize = take_value(&mut args, "--sessions")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| fail(format!("--sessions: {e}")))
        })
        .unwrap_or(1000);
    let parts: usize = take_value(&mut args, "--parts")
        .map(|v| v.parse().unwrap_or_else(|e| fail(format!("--parts: {e}"))))
        .unwrap_or(2);
    let hold_secs: u64 = take_value(&mut args, "--hold-secs")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| fail(format!("--hold-secs: {e}")))
        })
        .unwrap_or(5);
    if !args.is_empty() {
        usage(2);
    }
    // Tiny per-session graph: the probe measures connection/session
    // bookkeeping, not partitioning throughput.
    let base = generators::grid(4, 4);
    let cfg = SessionConfig::new(parts);
    let mut conns = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let mut cli = connect(addr);
        let sid = format!("soak-{i}");
        cli.open(&sid, &base, &cfg)
            .unwrap_or_else(|e| fail(format!("open {sid}: {e}")));
        conns.push(cli);
    }
    // The daemon must account for every held session and connection
    // (the scrape connection itself may add one to conns_active).
    let text = connect(addr).metrics().unwrap_or_else(|e| fail(e));
    let active = scrape_value(&text, "igp_service_active_sessions")
        .unwrap_or_else(|| fail("METRICS lacks igp_service_active_sessions"));
    if active != sessions as i64 {
        fail(format!(
            "daemon reports active_sessions={active}, expected {sessions}"
        ));
    }
    let conns_active = scrape_value(&text, "igp_service_conns_active")
        .unwrap_or_else(|| fail("METRICS lacks igp_service_conns_active"));
    if conns_active < sessions as i64 {
        fail(format!(
            "daemon reports conns_active={conns_active}, expected ≥ {sessions}"
        ));
    }
    println!("soak ready sessions={sessions} conns_active={conns_active}");
    let _ = std::io::stdout().flush();
    std::thread::sleep(std::time::Duration::from_secs(hold_secs));
    drop(conns); // the daemon may already be gone (shutdown-under-load drill)
    println!("soak done sessions={sessions}");
}

/// First sample of an unlabeled metric in a rendered exposition.
fn scrape_value(text: &str, name: &str) -> Option<i64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

fn cmd_demo(addr: &str, mut args: Vec<String>) {
    let sessions: usize = take_value(&mut args, "--sessions")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| fail(format!("--sessions: {e}")))
        })
        .unwrap_or(2);
    let deltas: usize = take_value(&mut args, "--deltas")
        .map(|v| v.parse().unwrap_or_else(|e| fail(format!("--deltas: {e}"))))
        .unwrap_or(12);
    let parts: usize = take_value(&mut args, "--parts")
        .map(|v| v.parse().unwrap_or_else(|e| fail(format!("--parts: {e}"))))
        .unwrap_or(4);
    let seed: u64 = take_value(&mut args, "--seed")
        .map(|v| v.parse().unwrap_or_else(|e| fail(format!("--seed: {e}"))))
        .unwrap_or(42);
    let policy = take_value(&mut args, "--policy").unwrap_or_else(|| "cost".into());
    if !args.is_empty() {
        usage(2);
    }
    let mut cfg = SessionConfig::new(parts);
    cfg.policy = policy.parse().unwrap_or_else(|e| fail(e));
    let mut cli = connect(addr);
    for s in 0..sessions {
        let sid = format!("demo-{s}");
        let base = generators::grid(8 + s, 8);
        let ack = cli.open(&sid, &base, &cfg).unwrap_or_else(|e| fail(e));
        println!("[{sid}] open n={} cut={}", ack.n, ack.cut);
        let mut mirror = base;
        let mut steps = 0usize;
        for k in 0..deltas {
            let d =
                generators::random_churn_delta(&mirror, 3, 1, seed ^ (s as u64) << 32 ^ k as u64);
            mirror = d.apply(&mirror).new_graph().clone();
            match cli.delta(&sid, &d).unwrap_or_else(|e| fail(e)) {
                DeltaAck::Queued { .. } => {}
                DeltaAck::Stepped(st) => {
                    steps += 1;
                    println!(
                        "[{sid}] step {} coalesced={} n={} cut={} imbalance={:.4}",
                        st.step, st.coalesced, st.n, st.cut, st.imbalance
                    );
                }
            }
        }
        if let Some(st) = cli.flush(&sid).unwrap_or_else(|e| fail(e)) {
            steps += 1;
            println!(
                "[{sid}] final flush: step {} coalesced={} n={}",
                st.step, st.coalesced, st.n
            );
        }
        let stat = cli.stat(&sid).unwrap_or_else(|e| fail(e));
        assert_eq!(stat.n, mirror.num_vertices(), "graph diverged from mirror");
        println!(
            "[{sid}] done: {deltas} deltas → {steps} repartitions, n={} cut={} imbalance={:.4}",
            stat.n, stat.cut, stat.imbalance
        );
        cli.close(&sid).unwrap_or_else(|e| fail(e));
    }
    println!("demo OK: {sessions} sessions × {deltas} deltas");
}
