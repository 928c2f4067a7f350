//! Throughput of the serving layer: concurrent clients streaming churn
//! deltas into `igp-serve` over real TCP, under each repartition
//! policy.
//!
//! Custom harness (`harness = false`): besides the table it emits a
//! machine-readable `BENCH_service.json` in the working directory (CI
//! uploads it as an artifact), recording deltas/second end to end —
//! wire parsing, registry locking, coalescing and the policy-gated
//! repartitions included — plus client-observed p50/p99 DELTA latency
//! from the shared [`igp_obs::Histogram`], and the cost of the
//! instrumentation itself (`obs_overhead`: the same workload with the
//! igp-obs kill switch off vs on; the acceptance bar is < 5%). The
//! `every:1` row pays one repartition per delta (the paper's loop);
//! `cost` shows what policy-driven batching buys at the same traffic.
//!
//! The `concurrency` sweep sizes the event-loop core: 128/512/1024
//! sessions held open on as many connections at once, recording the
//! daemon's idle RSS with every session parked (the loop holds no
//! thread per connection, so this is session + connection state, not
//! stacks), sustained deltas/s across all sessions, and client-observed
//! FLUSH p50/p99 (the repartition round trip through the worker pool).

use igp_bench::artifact;
use igp_graph::generators;
use igp_obs::Histogram;
use igp_service::client::{http_get, DeltaAck, IgpClient};
use igp_service::server::{serve, ServeOptions};
use igp_service::session::{InitPartition, SessionConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: [usize; 3] = [1, 2, 4];
const DELTAS_PER_CLIENT: usize = 25;
const PARTS: usize = 4;

struct Point {
    policy: &'static str,
    clients: usize,
    wall_s: f64,
    deltas_per_s: f64,
    steps: usize,
    /// Client-observed DELTA round-trip latency (µs). Empty when the
    /// igp-obs kill switch was off during the run.
    delta_us: Arc<Histogram>,
}

fn run_one(
    addr: std::net::SocketAddr,
    policy: &'static str,
    clients: usize,
    deltas_per_client: usize,
) -> Point {
    let delta_us = Arc::new(Histogram::new());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let delta_us = delta_us.clone();
            std::thread::spawn(move || {
                let mut cli = IgpClient::connect(addr).expect("connect");
                let sid = format!("bench-{policy}-{clients}-{c}");
                let base = generators::grid(10, 10);
                let mut cfg = SessionConfig::new(PARTS);
                cfg.policy = policy.parse().expect("policy spec");
                cfg.init = InitPartition::RoundRobin;
                cli.open(&sid, &base, &cfg).expect("open");
                let mut mirror = base;
                let mut steps = 0usize;
                for k in 0..deltas_per_client {
                    let d =
                        generators::random_churn_delta(&mirror, 3, 1, (c as u64) << 32 | k as u64);
                    mirror = d.apply(&mirror).new_graph().clone();
                    match delta_us.time(|| cli.delta(&sid, &d)).expect("delta") {
                        DeltaAck::Stepped(_) => steps += 1,
                        DeltaAck::Queued { .. } => {}
                    }
                }
                if cli.flush(&sid).expect("flush").is_some() {
                    steps += 1;
                }
                cli.close(&sid).expect("close");
                steps
            })
        })
        .collect();
    let steps: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let wall_s = t0.elapsed().as_secs_f64();
    let total = clients * deltas_per_client;
    Point {
        policy,
        clients,
        wall_s,
        deltas_per_s: total as f64 / wall_s,
        steps,
        delta_us,
    }
}

/// This process's resident set (MiB) from `/proc/self/status`; 0.0 when
/// unreadable (non-Linux). The daemon runs in-process, so with every
/// session idle this is dominated by daemon-side state.
fn rss_mb() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| {
            let kb: f64 = l
                .strip_prefix("VmRSS:")?
                .trim()
                .split(' ')
                .next()?
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

struct SweepPoint {
    sessions: usize,
    open_s: f64,
    idle_rss_mb: f64,
    deltas_per_s: f64,
    flush_us: Arc<Histogram>,
}

/// One sweep rung: hold `sessions` open sessions on as many
/// connections, stream `deltas_per_session` queued deltas into each,
/// then FLUSH each one (timed — the repartition round trip), then tear
/// everything down so the next rung starts clean.
fn run_sweep(addr: std::net::SocketAddr, sessions: usize, deltas_per_session: usize) -> SweepPoint {
    const DRIVERS: usize = 4;
    let flush_us = Arc::new(Histogram::new());
    let per = sessions.div_ceil(DRIVERS);

    // Phase 1: open all sessions (one connection each) and park them.
    let t0 = Instant::now();
    let mut driver_conns: Vec<Vec<(IgpClient, String, igp_graph::CsrGraph)>> = (0..DRIVERS)
        .map(|d| {
            let lo = d * per;
            let hi = sessions.min(lo + per);
            (lo..hi)
                .map(|i| {
                    let mut cli = IgpClient::connect(addr).expect("connect");
                    let sid = format!("sweep-{sessions}-{i}");
                    let base = generators::grid(6, 6);
                    let mut cfg = SessionConfig::new(PARTS);
                    // Queue-only deltas; the FLUSH pays the repartition.
                    cfg.policy = "every:1000".parse().expect("policy");
                    cfg.init = InitPartition::RoundRobin;
                    cli.open(&sid, &base, &cfg).expect("open");
                    (cli, sid, base)
                })
                .collect()
        })
        .collect();
    let open_s = t0.elapsed().as_secs_f64();
    let idle_rss_mb = rss_mb();

    // Phase 2: stream deltas round-robin across every session.
    let t0 = Instant::now();
    let handles: Vec<_> = driver_conns
        .drain(..)
        .map(|mut conns| {
            let flush_us = flush_us.clone();
            std::thread::spawn(move || {
                for k in 0..deltas_per_session {
                    for (cli, sid, mirror) in &mut conns {
                        let seed = (k as u64) << 32 | mirror.num_vertices() as u64;
                        let d = generators::random_churn_delta(mirror, 2, 1, seed);
                        *mirror = d.apply(mirror).new_graph().clone();
                        cli.delta(sid, &d).expect("delta");
                    }
                }
                for (cli, sid, _) in &mut conns {
                    flush_us.time(|| cli.flush(sid)).expect("flush");
                }
                for (cli, sid, _) in &mut conns {
                    cli.close(sid).expect("close");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("driver");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    SweepPoint {
        sessions,
        open_s,
        idle_rss_mb,
        deltas_per_s: (sessions * deltas_per_session) as f64 / wall_s,
        flush_us,
    }
}

fn main() {
    let opts = ServeOptions {
        http: Some("127.0.0.1:0".into()),
        ..ServeOptions::default()
    };
    let server = serve("127.0.0.1:0", opts).expect("bind");
    let addr = server.addr();
    let http_addr = server.http_addr().expect("ops listener");

    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>8} {:>9} {:>9}",
        "policy", "clients", "wall", "deltas/s", "steps", "p50(µs)", "p99(µs)"
    );
    let mut points = Vec::new();
    for policy in ["every:1", "every:5", "cost"] {
        for &clients in &CLIENTS {
            let p = run_one(addr, policy, clients, DELTAS_PER_CLIENT);
            println!(
                "{:>10} {:>8} {:>9.3}s {:>12.1} {:>8} {:>9} {:>9}",
                p.policy,
                p.clients,
                p.wall_s,
                p.deltas_per_s,
                p.steps,
                p.delta_us.quantile(0.5),
                p.delta_us.quantile(0.99),
            );
            points.push(p);
        }
    }

    // Concurrency sweep: many parked sessions, the event loop's home
    // turf. Two queued deltas per session keep the total runtime sane
    // at 1024 sessions on small CI hosts; the FLUSH histogram is where
    // the repartition (worker pool round trip) cost shows.
    println!(
        "\n{:>9} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "sessions", "open", "idle RSS", "deltas/s", "flush p50", "flush p99"
    );
    let mut sweep = Vec::new();
    for sessions in [128, 512, 1024] {
        let p = run_sweep(addr, sessions, 2);
        println!(
            "{:>9} {:>7.2}s {:>8.1}MB {:>12.1} {:>10}µs {:>10}µs",
            p.sessions,
            p.open_s,
            p.idle_rss_mb,
            p.deltas_per_s,
            p.flush_us.quantile(0.5),
            p.flush_us.quantile(0.99),
        );
        sweep.push(p);
    }

    // Price the instrumentation itself: the same workload with the
    // igp-obs kill switch off (no counters, no histograms, no clock
    // reads in Histogram::time) vs on. Off/on runs interleave so both
    // sides sample the same machine drift, the workload is 4× the
    // table's (fixed per-connection costs amortize), and each side
    // keeps its best run — residual difference is the instrumentation,
    // not scheduler noise.
    let overhead_policy = "every:5";
    let overhead_clients = 2;
    const OVERHEAD_DELTAS: usize = 100;
    const OVERHEAD_RUNS: usize = 7;
    let (mut off_rate, mut on_rate) = (0f64, 0f64);
    for _ in 0..OVERHEAD_RUNS {
        igp_obs::set_enabled(false);
        let off = run_one(addr, overhead_policy, overhead_clients, OVERHEAD_DELTAS);
        igp_obs::set_enabled(true);
        let on = run_one(addr, overhead_policy, overhead_clients, OVERHEAD_DELTAS);
        off_rate = off_rate.max(off.deltas_per_s);
        on_rate = on_rate.max(on.deltas_per_s);
    }
    let obs_overhead_pct = (off_rate / on_rate - 1.0) * 100.0;
    println!(
        "obs overhead ({overhead_policy}, {overhead_clients} clients): \
         off {off_rate:.1} deltas/s, on {on_rate:.1} deltas/s ({obs_overhead_pct:+.2}%)"
    );

    // Same protocol for the tracing layer alone: metrics stay on both
    // sides, only the span recorder flips, so the delta prices the
    // flight-recorder writes (and trace-ctx bookkeeping), not the
    // counters underneath.
    let (mut trace_off_rate, mut trace_on_rate) = (0f64, 0f64);
    for _ in 0..OVERHEAD_RUNS {
        igp_obs::trace::set_trace_enabled(false);
        let off = run_one(addr, overhead_policy, overhead_clients, OVERHEAD_DELTAS);
        igp_obs::trace::set_trace_enabled(true);
        let on = run_one(addr, overhead_policy, overhead_clients, OVERHEAD_DELTAS);
        trace_off_rate = trace_off_rate.max(off.deltas_per_s);
        trace_on_rate = trace_on_rate.max(on.deltas_per_s);
    }
    let trace_overhead_pct = (trace_off_rate / trace_on_rate - 1.0) * 100.0;
    println!(
        "trace overhead ({overhead_policy}, {overhead_clients} clients): \
         off {trace_off_rate:.1} deltas/s, on {trace_on_rate:.1} deltas/s \
         ({trace_overhead_pct:+.2}%)"
    );
    assert!(
        trace_overhead_pct < 5.0,
        "tracing costs {trace_overhead_pct:.2}% throughput; the flight \
         recorder is supposed to be ~free (< 5%)"
    );

    // Price the ops plane: the same workload with a concurrent
    // `GET /metrics` scraper hammering the HTTP listener (40 Hz — far
    // hotter than any real Prometheus) vs without. The exposition
    // renders on the event-loop thread, so this is the worst case for
    // scrape interference with serving traffic.
    const SCRAPE_INTERVAL_MS: u64 = 25;
    let (mut plain_rate, mut scraped_rate) = (0f64, 0f64);
    let mut scrapes_total = 0u64;
    for _ in 0..OVERHEAD_RUNS {
        let plain = run_one(addr, overhead_policy, overhead_clients, OVERHEAD_DELTAS);
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (code, _) =
                        http_get(http_addr, "/metrics", Duration::from_secs(10)).expect("scrape");
                    assert_eq!(code, 200, "scrape failed mid-bench");
                    n += 1;
                    std::thread::sleep(Duration::from_millis(SCRAPE_INTERVAL_MS));
                }
                n
            })
        };
        let scraped = run_one(addr, overhead_policy, overhead_clients, OVERHEAD_DELTAS);
        stop.store(true, Ordering::Relaxed);
        scrapes_total += scraper.join().expect("scraper");
        plain_rate = plain_rate.max(plain.deltas_per_s);
        scraped_rate = scraped_rate.max(scraped.deltas_per_s);
    }
    let http_scrape_overhead_pct = (plain_rate / scraped_rate - 1.0) * 100.0;
    println!(
        "http scrape overhead ({overhead_policy}, {overhead_clients} clients, \
         /metrics every {SCRAPE_INTERVAL_MS}ms, {scrapes_total} scrapes): \
         plain {plain_rate:.1} deltas/s, scraped {scraped_rate:.1} deltas/s \
         ({http_scrape_overhead_pct:+.2}%)"
    );
    assert!(
        http_scrape_overhead_pct < 5.0,
        "ops-plane scraping costs {http_scrape_overhead_pct:.2}% throughput; \
         the exposition must stay ~free under load (< 5%)"
    );

    let mut body = String::new();
    body.push_str(&format!(
        "  \"workload\": \"10x10 grid churn, {DELTAS_PER_CLIENT} deltas/client, P={PARTS}, IGPR\",\n"
    ));
    body.push_str(&format!(
        "  \"obs_overhead\": {{\"policy\": \"{overhead_policy}\", \
         \"clients\": {overhead_clients}, \"off_deltas_per_s\": {off_rate:.1}, \
         \"on_deltas_per_s\": {on_rate:.1}, \"overhead_pct\": {obs_overhead_pct:.2}}},\n"
    ));
    body.push_str(&format!(
        "  \"trace_overhead\": {{\"policy\": \"{overhead_policy}\", \
         \"clients\": {overhead_clients}, \"off_deltas_per_s\": {trace_off_rate:.1}, \
         \"on_deltas_per_s\": {trace_on_rate:.1}, \"overhead_pct\": {trace_overhead_pct:.2}}},\n"
    ));
    body.push_str(&format!(
        "  \"http_scrape_overhead\": {{\"policy\": \"{overhead_policy}\", \
         \"clients\": {overhead_clients}, \"scrape_interval_ms\": {SCRAPE_INTERVAL_MS}, \
         \"plain_deltas_per_s\": {plain_rate:.1}, \
         \"scraped_deltas_per_s\": {scraped_rate:.1}, \
         \"overhead_pct\": {http_scrape_overhead_pct:.2}}},\n"
    ));
    body.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"policy\": \"{}\", \"clients\": {}, \"wall_s\": {:.6}, \
             \"deltas_per_s\": {:.1}, \"steps\": {}, {}}}{}\n",
            p.policy,
            p.clients,
            p.wall_s,
            p.deltas_per_s,
            p.steps,
            artifact::hist_fields(&p.delta_us),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    // schema_version 3: the event-loop concurrency sweep. `idle_rss_mb`
    // is the whole process (daemon in-process) with all sessions parked;
    // `flush_*_us` is the client-observed FLUSH round trip (wire +
    // worker-pool repartition).
    body.push_str("  \"concurrency\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"sessions\": {}, \"open_s\": {:.3}, \"idle_rss_mb\": {:.1}, \
             \"deltas_per_s\": {:.1}, \"flush_p50_us\": {}, \"flush_p99_us\": {}, \
             \"flush_max_us\": {}}}{}\n",
            p.sessions,
            p.open_s,
            p.idle_rss_mb,
            p.deltas_per_s,
            p.flush_us.quantile(0.5),
            p.flush_us.quantile(0.99),
            p.flush_us.max(),
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]");
    artifact::write_artifact("BENCH_service.json", &body);

    // Batching sanity: policy-gated batching must not repartition more
    // often than the per-delta loop at identical traffic.
    for &clients in &CLIENTS {
        let per_delta = points
            .iter()
            .find(|p| p.policy == "every:1" && p.clients == clients)
            .unwrap();
        let batched = points
            .iter()
            .find(|p| p.policy == "cost" && p.clients == clients)
            .unwrap();
        assert!(
            batched.steps <= per_delta.steps,
            "cost policy repartitioned more often than every:1"
        );
    }
    println!("batching sanity: cost ≤ every:1 repartitions at equal traffic — OK");
}
