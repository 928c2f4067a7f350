//! The end-to-end drive: a closed-loop client against the daemon booted
//! in-process through `igp_service::serve`, over real TCP with a temp
//! `data_dir`; or, for the star workload, the library call itself.
//!
//! Closed loop because the client is a solver that cannot proceed until
//! the repartition returns: a connection sends its next `DELTA` only
//! after the previous ack. One connection per tenant, never more than
//! `nproc`.

use crate::gen::Stream;
use crate::stats;
use crate::workload::{DaemonInput, PARTS};
use igp_core::{IgpConfig, IncrementalPartitioner};
use igp_graph::{PartId, Partitioning};
use igp_mesh::sequence::MeshSequence;
use igp_service::{serve, DeltaAck, IgpClient, ServeOptions, ServerHandle, StepInfo};
use igp_spectral::{recursive_spectral_bisection, RsbOptions};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Restarts behind `recover_ms`.
const RECOVERIES: usize = 5;

/// Operation and check bookkeeping of one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one attempted operation; `ok = false` counts it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Unwrap a client reply, counting the operation.
    pub fn reply<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// `PART` sanity: length, id range, and counts within one of each other
/// when the last step reported `balanced`.
pub fn check_assignment(assign: &[PartId], n: usize, balanced: bool) -> Result<(), String> {
    if assign.len() != n {
        return Err(format!("PART has {} ids, expected {n}", assign.len()));
    }
    let mut counts = [0usize; PARTS];
    for &p in assign {
        match counts.get_mut(p as usize) {
            Some(c) => *c += 1,
            None => return Err(format!("part id {p} ≥ P = {PARTS}")),
        }
    }
    let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    if balanced && hi - lo > 1 {
        return Err(format!("balanced step left counts {lo}..{hi}"));
    }
    Ok(())
}

/// What one connection measured while replaying its stream.
#[derive(Default)]
struct TenantLog {
    /// Every `DELTA` round trip, in stream order.
    delta_us: Vec<f64>,
    step_us: Vec<f64>,
    queued_us: Vec<f64>,
    part_us: Vec<f64>,
    /// `(cut, moved)` of every step, in order.
    steps: Vec<(u64, u64)>,
    /// Deltas acked (queued or stepped).
    acked: usize,
    last_balanced: bool,
    started: Option<Instant>,
    ended: Option<Instant>,
    checks: Checks,
}

/// Replay `stream` on one connection until the stream or the deadline
/// ends.
fn replay(
    cli: &mut IgpClient,
    sid: &str,
    stream: &Stream,
    read_after_step: bool,
    max_deltas: usize,
    deadline: Option<Instant>,
    start: &Barrier,
) -> TenantLog {
    let mut log = TenantLog {
        last_balanced: true,
        ..Default::default()
    };
    start.wait();
    log.started = Some(Instant::now());
    for (i, delta) in stream.deltas.iter().take(max_deltas).enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let t = Instant::now();
        let ack = cli.delta(sid, delta);
        let us = t.elapsed().as_secs_f64() * 1e6;
        log.delta_us.push(us);
        match log.checks.reply(ack, "DELTA") {
            None => break, // the stream is positional: nothing after a lost delta is valid
            Some(DeltaAck::Queued { .. }) => log.queued_us.push(us),
            Some(DeltaAck::Stepped(StepInfo {
                n,
                cut,
                moved,
                balanced,
                scratch,
                ..
            })) => {
                log.step_us.push(us);
                log.steps.push((cut, moved));
                log.last_balanced = balanced;
                let want = stream.n_after[i];
                if n != want || scratch {
                    log.checks.fail(format!(
                        "step at delta {i}: n={n} (want {want}) scratch={scratch}"
                    ));
                }
                if read_after_step {
                    let t = Instant::now();
                    let part = cli.partition(sid);
                    log.part_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if let Some(p) = log.checks.reply(part, "PART") {
                        if let Err(e) = check_assignment(&p, n, balanced) {
                            log.checks.fail(format!("delta {i}: {e}"));
                        }
                    }
                }
            }
        }
        log.acked += 1;
    }
    log.ended = Some(Instant::now());
    log
}

/// One boot → open → replay → verify → shutdown cycle.
#[derive(Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Tenant 0's `DELTA` round trips in stream order.
    pub delta_us: Vec<f64>,
    pub step_us: Vec<f64>,
    pub queued_us: Vec<f64>,
    pub part_us: Vec<f64>,
    /// Deltas acked, summed over connections.
    pub acked: usize,
    /// Wall time of the timed phase (first start to last end).
    pub wall_s: f64,
    /// Cut reported by the `OPEN` ack (the post-scratch baseline).
    pub open_cut: u64,
    /// Tenant 0's `(cut, moved)` per step.
    pub steps: Vec<(u64, u64)>,
    /// Tenant 0's final `PART`.
    pub final_part: Vec<PartId>,
    pub ping_us: Vec<f64>,
    pub recover_ms: Vec<f64>,
}

pub struct PassPlan {
    /// Stop after this many deltas per connection.
    pub max_deltas: usize,
    /// Stop the timed phase at this instant (a step in flight finishes).
    pub deadline: Option<Duration>,
    /// `PING` round trips before the stream (`net.ping_us`).
    pub pings: usize,
    /// Shut down and restart on the same `data_dir`, `RECOVERIES` times.
    pub recover: bool,
}

fn boot(dir: &Path) -> std::io::Result<ServerHandle> {
    serve(
        "127.0.0.1:0",
        ServeOptions {
            data_dir: Some(dir.to_path_buf()),
            ..ServeOptions::default()
        },
    )
}

fn sid(tenant: usize) -> String {
    format!("t{tenant}")
}

/// Run one pass in `dir` (created fresh). A failed boot or `OPEN` is
/// counted and ends the pass early with whatever was measured.
pub fn run_pass(
    input: &DaemonInput,
    stream: &Stream,
    dir: &Path,
    plan: &PassPlan,
    checks: &mut Checks,
) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create pass data_dir inside the checkout");
    let cfg = input.session_config();
    let n0 = stream.base.num_vertices();
    let mut pass = Pass::default();

    // Set-up: daemon boot + every tenant's OPEN round trip (METIS
    // upload, RSB, snapshot 0).
    let t = Instant::now();
    let Some(mut server) = checks.reply(boot(dir), "serve") else {
        return pass;
    };
    let mut clients = Vec::new();
    for tenant in 0..input.tenants {
        let Some(mut cli) = checks.reply(IgpClient::connect(server.addr()), "connect") else {
            return pass;
        };
        let ack = cli.open(&sid(tenant), &stream.base, &cfg);
        let Some(ack) = checks.reply(ack, "OPEN") else {
            return pass;
        };
        checks.op(ack.n == n0, || format!("OPEN n={} want {n0}", ack.n));
        pass.open_cut = ack.cut;
        clients.push(cli);
    }
    pass.setup_s = t.elapsed().as_secs_f64();

    for _ in 0..plan.pings {
        let t = Instant::now();
        if checks.reply(clients[0].ping(), "PING").is_some() {
            pass.ping_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    // Timed phase: one thread per connection, released together.
    let deadline = plan.deadline.map(|d| Instant::now() + d);
    let barrier = Barrier::new(clients.len());
    let logs: Vec<TenantLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(tenant, cli)| {
                let barrier = &barrier;
                let reads = input.read_after_step;
                s.spawn(move || {
                    replay(
                        cli,
                        &sid(tenant),
                        stream,
                        reads,
                        plan.max_deltas,
                        deadline,
                        barrier,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let first = logs.iter().filter_map(|l| l.started).min();
    let last = logs.iter().filter_map(|l| l.ended).max();
    pass.wall_s = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };

    // Verify every tenant's end state against the generator's.
    let mut acked0 = 0;
    for (tenant, (log, cli)) in logs.into_iter().zip(&mut clients).enumerate() {
        if let Some(st) = checks.reply(cli.stat(&sid(tenant)), "STAT") {
            // `n` is the flushed graph; queued deltas are still pending.
            let flushed = log.acked - st.pending;
            let flushed_n = flushed.checked_sub(1).map_or(n0, |i| stream.n_after[i]);
            let ok = st.n == flushed_n && st.steps == log.steps.len() && !st.scratch;
            checks.op(ok, || {
                format!(
                    "tenant {tenant} STAT n={} steps={} scratch={} pending={}; want n={flushed_n} steps={}",
                    st.n, st.steps, st.scratch, st.pending, log.steps.len()
                )
            });
            if let Some(part) = checks.reply(cli.partition(&sid(tenant)), "PART") {
                let r = check_assignment(&part, flushed_n, log.last_balanced);
                checks.op(r.is_ok(), || {
                    format!("tenant {tenant} final PART: {}", r.unwrap_err())
                });
                if tenant == 0 {
                    pass.final_part = part;
                } else {
                    // Same stream, same config: tenants must agree bit for bit.
                    // (A deadline may cut the tenants at different deltas.)
                    checks.op(part == pass.final_part || log.acked != acked0, || {
                        format!("tenant {tenant} PART differs from tenant 0")
                    });
                }
            }
        }
        if tenant == 0 {
            pass.steps = log.steps;
            pass.delta_us = log.delta_us;
            acked0 = log.acked;
        }
        pass.acked += log.acked;
        pass.step_us.extend(log.step_us);
        pass.queued_us.extend(log.queued_us);
        pass.part_us.extend(log.part_us);
        checks.absorb(log.checks);
    }

    // Dropping the connections first lets the drain finish at once
    // instead of waiting out its write-buffer grace.
    drop(clients);
    server.shutdown();

    if plan.recover {
        for round in 0..RECOVERIES {
            let t = Instant::now();
            let Some(mut server) = checks.reply(boot(dir), "serve (recover)") else {
                break;
            };
            let Some(mut cli) = checks.reply(IgpClient::connect(server.addr()), "connect") else {
                break;
            };
            let stat = cli.stat(&sid(0));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if checks.reply(stat, "STAT (recover)").is_some() {
                pass.recover_ms.push(ms);
            }
            if round == 0 {
                if let Some(part) = checks.reply(cli.partition(&sid(0)), "PART (recover)") {
                    checks.op(part == pass.final_part, || {
                        "recovered PART differs from the pre-shutdown PART".to_string()
                    });
                }
            }
            drop(cli);
            server.shutdown();
        }
    }
    pass
}

/// The samples behind the end-to-end metrics, however the workload was
/// driven.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub step_us: Vec<f64>,
    /// Peak resident set (MB) during each whole pass.
    pub rss_mb: Vec<f64>,
    /// Cut ÷ the post-scratch cut, per step of the whole passes.
    pub cut_ratio: Vec<f64>,
    /// Vertices moved, per step of the whole passes.
    pub moved: Vec<f64>,
}

/// One whole pass per sub-stream, then further passes (cycling the
/// streams, stopping at the deadline) until `seconds` of timed phase are
/// spent. The counts (`cut_drift`, `moved_per_step`) come from the whole
/// passes only, so they repeat exactly for a seed whatever the machine's
/// speed; every pass boots and opens, which is where the `setup_s`
/// samples come from.
pub fn drive_daemon(
    input: &DaemonInput,
    seconds: f64,
    scratch: &Path,
    checks: &mut Checks,
) -> Samples {
    let mut run = Samples::default();
    let mut timed_s = 0.0;
    let whole = input.streams.len();
    let mut whole_steps: Vec<Vec<(u64, u64)>> = Vec::new();
    for k in 0.. {
        let left = seconds - timed_s;
        if k >= whole && left <= 0.0 {
            break;
        }
        let plan = PassPlan {
            max_deltas: usize::MAX,
            deadline: (k >= whole).then(|| Duration::from_secs_f64(left)),
            pings: 0,
            recover: k == 0,
        };
        let stream = &input.streams[k % whole];
        reset_rss_peak();
        let pass = run_pass(input, stream, &pass_dir(scratch, k), &plan, checks);
        if checks.failed > 0 {
            break;
        }
        run.setup_s.push(pass.setup_s);
        run.step_us.extend(&pass.step_us);
        timed_s += pass.wall_s;
        if k < whole {
            run.rss_mb.push(rss_peak_mb());
            let base_cut = pass.open_cut.max(1) as f64;
            run.cut_ratio
                .extend(pass.steps.iter().map(|&(cut, _)| cut as f64 / base_cut));
            run.moved.extend(pass.steps.iter().map(|&(_, m)| m as f64));
            whole_steps.push(pass.steps);
        } else {
            // The daemon is deterministic: a replay of the same stream
            // must report the same cut and movement step for step.
            let same = whole_steps[k % whole].get(..pass.steps.len()) == Some(&pass.steps[..]);
            checks.op(same, || {
                format!("pass {k} diverged from pass {}", k % whole)
            });
        }
    }
    run
}

pub fn pass_dir(scratch: &Path, k: usize) -> PathBuf {
    scratch.join(format!("pass{k}"))
}

/// Everything the star drive measured.
#[derive(Default)]
pub struct StarRun {
    pub samples: Samples,
    pub timed_s: f64,
    /// Per sequence: RSB of its base, what every increment starts from.
    pub base_parts: Vec<Partitioning>,
    /// Per sequence, per increment: the final assignment.
    pub parts: Vec<Vec<Vec<PartId>>>,
}

/// The Figure-14 experiment as a library call: RSB each sequence's base
/// (that is the set-up), then repartition each star increment from its
/// base partition, for at least `min_reps` rounds and `seconds`.
pub fn drive_star(
    seqs: &[MeshSequence],
    seconds: f64,
    min_reps: usize,
    checks: &mut Checks,
) -> StarRun {
    let mut run = StarRun {
        parts: vec![Vec::new(); seqs.len()],
        ..Default::default()
    };
    for seq in seqs {
        let t = Instant::now();
        let part = recursive_spectral_bisection(&seq.base, PARTS, RsbOptions::default());
        run.samples.setup_s.push(t.elapsed().as_secs_f64());
        run.base_parts.push(part);
    }
    let base_cuts: Vec<u64> = seqs
        .iter()
        .zip(&run.base_parts)
        .map(|(seq, part)| igp_graph::CutMetrics::compute(&seq.base, part).total_cut_edges)
        .collect();
    let igpr = IncrementalPartitioner::igpr(IgpConfig::new(PARTS));

    let t0 = Instant::now();
    let mut rep = 0;
    while rep < min_reps || t0.elapsed().as_secs_f64() < seconds {
        for (s, seq) in seqs.iter().enumerate() {
            let base_part = &run.base_parts[s];
            for (i, step) in seq.steps.iter().enumerate() {
                let t = Instant::now();
                let (part, report) = std::hint::black_box(igpr.repartition(&step.inc, base_part));
                run.samples.step_us.push(t.elapsed().as_secs_f64() * 1e6);
                let n = step.inc.new_graph().num_vertices();
                let shape = check_assignment(part.assignment(), n, report.balance.balanced)
                    .and_then(|()| part.validate(step.inc.new_graph()));
                checks.op(shape.is_ok() && report.balance.balanced, || {
                    format!(
                        "sequence {s} increment {i}: balanced={} {shape:?}",
                        report.balance.balanced
                    )
                });
                if rep == 0 {
                    run.samples
                        .cut_ratio
                        .push(report.metrics.total_cut_edges as f64 / base_cuts[s].max(1) as f64);
                    run.samples.moved.push(report.total_moved() as f64);
                    run.parts[s].push(part.assignment().to_vec());
                } else if part.assignment() != run.parts[s][i] {
                    checks.fail(format!(
                        "sequence {s} increment {i} rep {rep}: not deterministic"
                    ));
                }
            }
        }
        rep += 1;
    }
    run.timed_s = t0.elapsed().as_secs_f64();
    run.samples.rss_mb.push(rss_peak_mb());
    run
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Forget the peak so far, so that `VmHWM` reflects what follows: the
/// measured phases rather than the generator's mesh builder, and one
/// pass rather than the luckiest allocator history of all of them (the
/// per-run peak wanders by ±8 % on the 10k workloads; the median of the
/// per-pass peaks is steadier). Best effort: where the kernel refuses,
/// every reading is the process-wide peak on both sides of a comparison.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `(p50, p95)` of step round trips in ms. The p95 obeys the
/// ten-samples-beyond rule except under `--smoke`, whose 20 steps exist
/// to exercise the harness, not to be compared.
pub fn step_percentiles_ms(step_us: &[f64], smoke: bool) -> Result<(f64, f64), String> {
    let p50 = stats::median(step_us).ok_or("no stepped sample")?;
    let p95 = match stats::tail_quantile(step_us, 0.95) {
        Some(v) => v,
        None if smoke => stats::quantile_sorted(&stats::sorted(step_us.to_vec()), 0.95)
            .expect("non-empty: the median exists"),
        None => {
            return Err(format!(
                "{} stepped samples: a p95 needs {} beyond it",
                step_us.len(),
                stats::MIN_BEYOND
            ))
        }
    };
    Ok((p50 / 1e3, p95 / 1e3))
}
