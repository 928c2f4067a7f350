//! Slowloris regression for the event-loop core (DESIGN.md §12).
//!
//! A client that trickles its request one byte at a time must (a) still
//! get a correct parse and reply — the framer is incremental, not
//! line-buffered-per-read — and (b) cost the daemon O(bytes) loop
//! wakeups, not a busy spin: under level-triggered polling a bug that
//! leaves readable interest armed on an unconsumable socket (or leaves
//! the waker pipe undrained) shows up as an unbounded
//! `loop_wakeups_total`.
//!
//! This suite deliberately lives in its own integration-test binary:
//! each test binary is its own process with its own global metrics
//! registry, so the wakeup counter here is driven by *this* traffic
//! only and the bound stays meaningful.

use igp::service::server::{serve, ServeOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Scrape one unlabeled sample out of a `METRICS` exposition.
fn scrape(text: &str, name: &str) -> Option<i64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

fn metrics_text(addr: std::net::SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(b"METRICS\n").expect("write");
    let mut r = BufReader::new(conn);
    let mut text = String::new();
    loop {
        let mut line = String::new();
        r.read_line(&mut line).expect("read");
        if line.trim_end() == "END" {
            return text;
        }
        text.push_str(&line);
    }
}

#[test]
fn one_byte_at_a_time_client_parses_and_stays_cheap() {
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let addr = server.addr();

    // Trickle an OPEN (with its graph block) and a STAT, byte by byte.
    // 3 vertices in a path, 2 parts.
    let script = "OPEN slow parts=2\n3 2\n2\n1 3\n2\nEND\nSTAT slow\n";
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    for b in script.as_bytes() {
        conn.write_all(std::slice::from_ref(b)).expect("write byte");
        // A tiny pause defeats TCP segment coalescing often enough that
        // the framer sees many sub-line reads (exact segmentation is
        // not required for the assertion below).
        std::thread::sleep(Duration::from_micros(300));
    }
    let mut r = BufReader::new(&mut conn);
    let mut reply = String::new();
    r.read_line(&mut reply).expect("open reply");
    assert!(
        reply.starts_with("OK open sid=slow n=3 m=2 parts=2"),
        "trickled OPEN must parse correctly, got: {reply:?}"
    );
    reply.clear();
    r.read_line(&mut reply).expect("stat reply");
    assert!(
        reply.starts_with("OK stat sid=slow"),
        "pipelined-after-trickle STAT must work, got: {reply:?}"
    );
    drop(r);
    drop(conn);

    // The loop must have woken at most O(bytes written): every wakeup is
    // caused by readiness (one per delivered segment), a completion, or
    // a timer — never a spin. The script is ~45 bytes; give generous
    // headroom for connect/close/completion wakeups and scheduler
    // artifacts, while still catching a busy loop (which would log
    // thousands of wakeups during the ~14ms of trickling alone).
    let wakeups = scrape(&metrics_text(addr), "igp_service_loop_wakeups_total")
        .expect("loop_wakeups_total exposed");
    let bound = 4 * script.len() as i64 + 64;
    assert!(
        wakeups <= bound,
        "loop woke {wakeups} times for a {}-byte trickle (bound {bound}); \
         is readable interest being parked correctly?",
        script.len()
    );
}

#[test]
fn oversized_line_without_newline_drops_connection() {
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    // Stream > 1 MiB of newline-free garbage; the incremental cap must
    // kill the connection rather than buffer it forever.
    let chunk = vec![b'x'; 64 * 1024];
    let mut wrote = 0usize;
    let dropped = loop {
        match conn.write_all(&chunk) {
            Ok(()) => {
                wrote += chunk.len();
                if wrote > (1 << 20) + (1 << 21) {
                    break false; // daemon kept reading way past the cap
                }
            }
            Err(_) => break true,
        }
    };
    // Either the write side saw the reset, or the read side sees EOF
    // with no reply bytes.
    if !dropped {
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "daemon must close, not reply, on an unbounded line");
    }
}

#[test]
fn slow_graph_upload_respects_cap_incrementally() {
    let opts = ServeOptions {
        queue_cap: 8,
        ..ServeOptions::default()
    };
    let server = serve("127.0.0.1:0", opts).expect("bind");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.write_all(b"OPEN big parts=2\n").expect("header");
    // Feed graph-block lines forever; the 64 MiB upload cap must cut
    // the connection off without an unbounded buffer. Use a large
    // line so the test stays fast.
    let line = {
        let mut l = vec![b'9'; 1 << 19];
        l.push(b'\n');
        l
    };
    let mut wrote = 0usize;
    let killed = loop {
        match conn.write_all(&line) {
            Ok(()) => {
                wrote += line.len();
                if wrote > (64 << 20) + (64 << 20) {
                    break false;
                }
            }
            Err(_) => break true,
        }
    };
    if !killed {
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "daemon must drop an over-cap upload");
    }
}

/// Write `script` on a fresh connection and return the first `n` reply
/// lines.
fn exchange(addr: std::net::SocketAddr, script: &str, n: usize) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    conn.write_all(script.as_bytes()).expect("write");
    let mut r = BufReader::new(conn);
    (0..n)
        .map(|_| {
            let mut line = String::new();
            r.read_line(&mut line).expect("read");
            line.trim_end().to_string()
        })
        .collect()
}

#[test]
fn oversized_graph_headers_answer_err_graph_not_abort() {
    // Each header alone once sized an allocation before a vertex line
    // was read: 1.6 PB of edges and 10¹¹ vertex weights aborted the
    // process, `usize::MAX` vertices panicked the worker.
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    for (i, header) in [
        "2 100000000000000",
        "100000000000 0",
        "18446744073709551615 0",
    ]
    .into_iter()
    .enumerate()
    {
        let script = format!("OPEN h{i} parts=2\n{header}\nEND\nPING\n");
        let replies = exchange(server.addr(), &script, 2);
        assert!(replies[0].starts_with("ERR graph"), "{header}: {replies:?}");
        assert_eq!(replies[1], "PONG", "{header}");
    }
    assert_eq!(exchange(server.addr(), "PING\n", 1), ["PONG"]);
}

#[test]
fn oversized_parts_is_refused_not_allocated() {
    // parts=200000 over 200k isolated vertices: the first step would
    // allocate P × P tables (160 GB) and abort the process.
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let n = 200_000;
    let mut script = format!("OPEN big parts={n} init=rr policy=every:1\n{n} 0\n");
    script.push_str(&"\n".repeat(n));
    script.push_str("END\nDELTA big av=1\nPING\n");
    let replies = exchange(server.addr(), &script, 3);
    assert!(replies[0].starts_with("ERR proto"), "{replies:?}");
    assert!(replies[1].starts_with("ERR "), "{replies:?}");
    assert_eq!(replies[2], "PONG");
}
