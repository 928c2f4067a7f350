//! One benchmark run: generate the workload's input from the seed,
//! drive it, check it, and reduce the samples to the metric tables of
//! [`crate::spec`].

use crate::drive::{
    self, drive_daemon, drive_star, pass_dir, run_pass, Checks, Pass, PassPlan, Samples,
};
use crate::spec::{collect, RunResult, Sample, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{ops, repartition_traced, step_probes, Counts, Replay, Tracer};
use crate::workload::{prepare, star_min_reps, substreams, DaemonInput, Input, PARTS};
use igp_core::IgpConfig;
use igp_graph::io::{read_metis, write_metis};
use igp_graph::{CsrGraph, GraphDelta};
use igp_mesh::sequence::MeshSequence;
use igp_service::protocol::encode_open_opts;
use igp_service::{Ingest, RepartitionPolicy, ServiceSession, SessionConfig, SnapshotPolicy};
use igp_spectral::{recursive_spectral_bisection, RsbOptions};
use igp_store::SessionStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// n = 300, 20 steps: exercises the harness in a few seconds.
    pub smoke: bool,
}

/// `benchmark/out/`: traces, result files and the temp `data_dir`s all
/// stay inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Deltas the secondary passes of the traced run cover (obs-off daemon
/// pass, untraced replay, `ServiceSession::ingest` probes): the whole
/// stream on the window workloads, the first 16 batches on `ingest10k`.
const PREFIX: usize = 4096;
/// Traced repetitions of the four star increments.
const STAR_TRACED_REPS: usize = 5;
/// Steps whose inner calls are probed, spread evenly over the stream.
const PROBED_STEPS: usize = 50;

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    // The traced run is about where the time goes, not its spread: one
    // sub-stream is enough to set layers against the end-to-end step.
    let substreams = if args.trace {
        1
    } else {
        substreams(&args.workload)
    };
    let prepared = prepare(&args.workload, args.seed, args.smoke, substreams)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    drive::reset_rss_peak();

    let mut checks = Checks::default();
    let measured = match (&prepared.input, args.trace) {
        (Input::Daemon(d), false) => untraced_daemon(d, args, &scratch, &mut checks),
        (Input::Star(s), false) => untraced_star(s, args, &mut checks),
        (Input::Daemon(d), true) => traced_daemon(d, args, prepared.gen_s, &scratch, &mut checks),
        (Input::Star(s), true) => traced_star(s, args, prepared.gen_s, &mut checks),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for note in &checks.notes {
        eprintln!("FAILED: {note}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    Ok(RunResult {
        correct: checks.failed == 0,
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics: collect(table, measured?),
    })
}

type Measured = Result<Vec<(&'static str, Sample)>, String>;

fn one(value: f64) -> Sample {
    Sample { value, n: 1 }
}

fn median_of(xs: &[f64]) -> Sample {
    Sample {
        value: stats::median(xs).unwrap_or(0.0),
        n: xs.len(),
    }
}

fn mean_of(xs: &[f64]) -> Sample {
    Sample {
        value: stats::mean(xs).unwrap_or(0.0),
        n: xs.len(),
    }
}

fn end_to_end(r: &Samples, smoke: bool) -> Measured {
    let (p50, p95) = drive::step_percentiles_ms(&r.step_us, smoke)?;
    let steps = |value| Sample {
        value,
        n: r.step_us.len(),
    };
    Ok(vec![
        ("setup_s", median_of(&r.setup_s)),
        ("step_p50_ms", steps(p50)),
        ("step_p95_ms", steps(p95)),
        ("rss_peak_mb", median_of(&r.rss_mb)),
        ("cut_drift", median_of(&r.cut_ratio)),
        ("moved_per_step", mean_of(&r.moved)),
    ])
}

fn untraced_daemon(
    d: &DaemonInput,
    args: &RunArgs,
    scratch: &Path,
    checks: &mut Checks,
) -> Measured {
    let r = drive_daemon(d, args.seconds, scratch, checks);
    if checks.failed > 0 {
        return Err(format!("{} operations or checks failed", checks.failed));
    }
    end_to_end(&r, args.smoke)
}

fn untraced_star(seqs: &[MeshSequence], args: &RunArgs, checks: &mut Checks) -> Measured {
    let r = drive_star(seqs, args.seconds, star_min_reps(args.smoke), checks);
    end_to_end(&r.samples, args.smoke)
}

/// Reduce a traced replay to the per-layer table. `stepped` lists the
/// traces that took a step, ascending; `extra` carries what only the
/// caller measured; anything still missing is reported as `0, n=0`: the
/// workload does not exercise that call.
fn per_layer(
    tr: &Tracer,
    counts: &Counts,
    stepped: &[u32],
    e2e_step_us: &[f64],
    extra: Vec<(&'static str, Sample)>,
) -> Vec<(&'static str, Sample)> {
    let dur = tr.durations();
    let none: Vec<f64> = Vec::new();
    let d = |span: &str| dur.get(span).unwrap_or(&none);
    let p50 = |span: &str| median_of(d(span));
    let per_step = |total: u64| Sample {
        value: total as f64 / counts.steps.max(1) as f64,
        n: counts.steps as usize,
    };
    let ratio = |num: u64, den: u64| Sample {
        value: if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        },
        n: den as usize,
    };

    let mut out: BTreeMap<&'static str, Sample> = BTreeMap::new();
    for (metric, span) in [
        ("service.encode_delta_us", "service.encode_delta"),
        ("service.parse_request_us", "service.parse_request"),
        ("graph.validate_us", "graph.validate"),
        ("graph.coalesce_push_us", "graph.coalesce_push"),
        ("graph.coalesce_net_us", "graph.coalesce_net"),
        ("graph.apply_us", "graph.apply"),
        ("graph.cut_metrics_us", "graph.cut_metrics"),
        ("graph.clone_us", "graph.clone"),
        ("core.assign_us", "core.assign"),
        ("core.layer_us", "core.layer"),
        ("core.balance_us", "core.balance"),
        ("core.refine_us", "core.refine"),
        ("core.repartition_us", "core.repartition"),
        ("core.session_step_us", "core.session_step"),
        ("lp.movement_dense_us", "lp.movement_dense"),
        ("lp.movement_bounded_us", "lp.movement_bounded"),
        ("lp.movement_flow_us", "lp.movement_flow"),
        ("lp.circulation_dense_us", "lp.circulation_dense"),
        ("lp.circulation_bounded_us", "lp.circulation_bounded"),
        ("lp.circulation_flow_us", "lp.circulation_flow"),
        ("runtime.par2_repartition_us", "runtime.par2_repartition"),
        ("store.wal_append_us", "store.wal_append"),
        ("store.snapshot_us", "store.snapshot"),
    ] {
        out.insert(metric, p50(span));
    }
    let step = p50("core.session_step");
    out.insert(
        "core.session_overhead_us",
        Sample {
            value: (step.value - p50("core.repartition").value - p50("graph.apply").value).max(0.0),
            n: step.n,
        },
    );
    out.insert("core.stages", per_step(counts.stages));
    out.insert("core.balance_pivots", per_step(counts.balance_pivots));
    out.insert("core.refine_pivots", per_step(counts.refine_pivots));
    out.insert("core.refine_rounds", per_step(counts.refine_rounds));
    out.insert(
        "core.refine_waste_ratio",
        ratio(counts.refine_rolled_back, counts.refine_rounds),
    );
    let (rows, cols): (Vec<f64>, Vec<f64>) = counts.lp_shape.iter().copied().unzip();
    out.insert("core.lp_rows", median_of(&rows));
    out.insert("core.lp_cols", median_of(&cols));
    out.insert("core.lp_work_share_model", mean_of(&counts.lp_work_share));
    out.insert("graph.delta_ops", ratio(counts.delta_ops, counts.deltas));
    out.insert(
        "graph.coalesce_keep_ratio",
        ratio(counts.net_ops, counts.pushed_ops),
    );
    out.insert(
        "store.wal_bytes_per_delta",
        ratio(counts.wal_bytes, counts.deltas),
    );
    out.insert(
        "store.snapshots_per_100_steps",
        ratio(100 * counts.snapshots, counts.steps),
    );
    // The paper's "most of the time is spent in the linear programming"
    // in wall-clock, from outside: what `balance` and `refine` take beyond
    // the whole-graph passes they are known to make — one layering per
    // stage; per refine round one candidate scan and one cut recount,
    // each priced at a `CutMetrics` pass, plus the opening cut count. An
    // upper estimate: applying the moves is left in the LP's share.
    let repartition = p50("core.repartition");
    let pass = p50("graph.cut_metrics").value;
    let balance_lp =
        p50("core.balance").value - per_step(counts.stages).value * p50("core.layer").value;
    let refine_lp =
        p50("core.refine").value - (1.0 + 2.0 * per_step(counts.refine_rounds).value) * pass;
    out.insert(
        "lp.share_est",
        Sample {
            value: if repartition.value > 0.0 {
                (balance_lp.max(0.0) + refine_lp.max(0.0)) / repartition.value
            } else {
                0.0
            },
            n: repartition.n,
        },
    );
    // Attribution: what the blocking path's spans cover of the
    // end-to-end step, and the remainder as its own row.
    let attributed: Vec<f64> = tr
        .roots()
        .into_iter()
        .filter(|(trace, _, _)| stepped.binary_search(trace).is_ok())
        .map(|(_, _, covered)| covered)
        .collect();
    let (att, e2e) = (median_of(&attributed), median_of(e2e_step_us));
    out.insert(
        "attributed_frac",
        Sample {
            value: if e2e.value > 0.0 {
                att.value / e2e.value
            } else {
                0.0
            },
            n: att.n,
        },
    );
    out.insert(
        "unattributed_us",
        Sample {
            value: e2e.value - att.value,
            n: att.n,
        },
    );
    out.extend(extra);
    PER_LAYER
        .iter()
        .map(|def| {
            let s = out.remove(def.name).unwrap_or(Sample { value: 0.0, n: 0 });
            (def.name, s)
        })
        .collect()
}

/// Root-span time (µs) of traces below `prefix`: the traced replay's
/// share comparable with an untraced replay of the same prefix.
fn traced_prefix_us(tr: &Tracer, prefix: usize) -> f64 {
    tr.roots()
        .into_iter()
        .filter(|&(trace, _, _)| (trace as usize) < prefix)
        .map(|(_, us, _)| us)
        .sum()
}

fn per_second(ops: usize, wall_s: f64) -> Sample {
    Sample {
        value: if wall_s > 0.0 {
            ops as f64 / wall_s
        } else {
            0.0
        },
        n: ops,
    }
}

fn frac_over(a: f64, base: f64) -> Sample {
    one(if base > 0.0 { (a - base) / base } else { 0.0 })
}

/// p50 of `ServiceSession::ingest` calls answered `Queued`, on a fresh
/// session (durable in `dir` if given) fed `deltas`.
fn queued_ingest_us(
    base: &CsrGraph,
    cfg: &SessionConfig,
    deltas: &[GraphDelta],
    dir: Option<&Path>,
    checks: &mut Checks,
) -> Sample {
    let mut s = match dir {
        Some(dir) => ServiceSession::open_durable(
            base.clone(),
            cfg.clone(),
            dir,
            "t0",
            SnapshotPolicy::default(),
        )
        .expect("durable probe session inside the checkout"),
        None => ServiceSession::open(base.clone(), cfg.clone()),
    };
    let mut us = Vec::new();
    for delta in deltas {
        let t = Instant::now();
        let r = s.ingest(delta);
        let dt = t.elapsed().as_secs_f64() * 1e6;
        match checks.reply(r, "ServiceSession::ingest") {
            Some(Ingest::Queued { .. }) => us.push(dt),
            Some(Ingest::Stepped { .. }) => {}
            None => break,
        }
    }
    median_of(&us)
}

fn traced_daemon(
    d: &DaemonInput,
    args: &RunArgs,
    gen_s: f64,
    scratch: &Path,
    checks: &mut Checks,
) -> Measured {
    let stream = &d.streams[0];
    let base = &stream.base;
    let cfg = d.session_config();
    let len = stream.deltas.len();
    let prefix = len.min(PREFIX);
    let mut extra: Vec<(&'static str, Sample)> = vec![("mesh.gen_s", one(gen_s))];

    // What `OPEN` costs, piece by piece.
    let t = Instant::now();
    let base_part = recursive_spectral_bisection(base, PARTS, RsbOptions::default());
    extra.push(("spectral.rsb_us", one(t.elapsed().as_secs_f64() * 1e6)));
    let metis = write_metis(base);
    let reads: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(read_metis(&metis).expect("own METIS text parses"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    extra.push(("graph.read_metis_us", median_of(&reads)));
    let open_bytes = format!("OPEN t0 {}\n", encode_open_opts(&cfg)).len() + metis.len() + 4;
    extra.push(("service.open_bytes", one(open_bytes as f64)));
    drop(metis);

    // The daemon itself, untraced, over the whole stream: the end-to-end
    // numbers the layers are set against, and the PART to reproduce.
    let whole = PassPlan {
        max_deltas: usize::MAX,
        deadline: None,
        pings: if args.smoke { 100 } else { 1000 },
        recover: true,
    };
    let on: Pass = run_pass(d, stream, &pass_dir(scratch, 0), &whole, checks);
    if checks.failed > 0 {
        return Err(format!("{} operations or checks failed", checks.failed));
    }
    // The same prefix with recording off: what igp-obs costs end to end.
    igp_obs::set_enabled(false);
    let off_plan = PassPlan {
        max_deltas: prefix,
        deadline: None,
        pings: 0,
        recover: false,
    };
    let off = run_pass(d, stream, &pass_dir(scratch, 1), &off_plan, checks);
    igp_obs::set_enabled(true);
    let prefix_s = |p: &Pass| p.delta_us.iter().take(prefix).sum::<f64>();
    extra.push((
        "obs.overhead_frac",
        frac_over(prefix_s(&on), prefix_s(&off)),
    ));

    extra.push(("deltas_per_s", per_second(on.acked, on.wall_s)));
    extra.push(("queued_p50_us", median_of(&on.queued_us)));
    extra.push((
        "queued_p95_us",
        Sample {
            value: stats::tail_quantile(&on.queued_us, 0.95).unwrap_or(0.0),
            n: on.queued_us.len(),
        },
    ));
    extra.push(("part_p50_us", median_of(&on.part_us)));
    extra.push(("recover_ms", median_of(&on.recover_ms)));
    extra.push(("net.ping_us", median_of(&on.ping_us)));
    let reply_bytes = format!("OK part sid=t0 n={}\n", on.final_part.len()).len()
        + on.final_part
            .iter()
            .map(|p| 1 + p.to_string().len())
            .sum::<usize>();
    extra.push(("service.part_reply_bytes", one(reply_bytes as f64)));

    // The layer replay, traced.
    let replay_dir = scratch.join("replay");
    let steps = on.steps.len().max(1);
    let mut tr = Tracer::new(true);
    let mut replay = Replay::new(
        base.clone(),
        base_part.clone(),
        cfg.clone(),
        &replay_dir,
        steps.div_ceil(PROBED_STEPS),
    );
    for (i, delta) in stream.deltas.iter().enumerate() {
        replay.feed(&mut tr, i, delta);
    }
    // The repo's "daemon ≡ single-threaded replay" invariant, bit for bit.
    checks.op(replay.assignment() == on.final_part, || {
        "the daemon's final PART differs from the layer replay's assignment".to_string()
    });

    // The same replay with the recorder off, over the prefix.
    let mut quiet = Tracer::new(false);
    let mut twin = Replay::new(
        base.clone(),
        base_part,
        cfg.clone(),
        &scratch.join("twin"),
        1,
    );
    let t = Instant::now();
    for (i, delta) in stream.deltas.iter().take(prefix).enumerate() {
        twin.feed(&mut quiet, i, delta);
    }
    let untraced_us = t.elapsed().as_secs_f64() * 1e6;
    extra.push((
        "bench.trace_overhead_frac",
        frac_over(traced_prefix_us(&tr, prefix), untraced_us),
    ));
    drop(twin);

    // `ServiceSession::ingest` itself, queued acks only, memory-only and
    // durable. (With `every:1` nothing is ever queued.)
    if d.policy != RepartitionPolicy::EveryK(1) {
        let head = &stream.deltas[..prefix];
        let mem = queued_ingest_us(base, &cfg, head, None, checks);
        let durable = queued_ingest_us(base, &cfg, head, Some(&scratch.join("ingest")), checks);
        let queued_p50 = stats::median(&on.queued_us).unwrap_or(0.0);
        extra.push(("service.ingest_mem_us", mem));
        extra.push(("service.ingest_durable_us", durable));
        extra.push((
            "store.durable_overhead_us",
            Sample {
                value: durable.value - mem.value,
                n: durable.n,
            },
        ));
        extra.push((
            "net.roundtrip_overhead_us",
            Sample {
                value: queued_p50 - durable.value,
                n: on.queued_us.len(),
            },
        ));
    }

    // The store alone: snapshot size, and recovery without the daemon.
    let store_dir = replay.store_dir().to_path_buf();
    let (counts, stepped) = (
        std::mem::take(&mut replay.counts),
        std::mem::take(&mut replay.stepped),
    );
    drop(replay);
    let snap_bytes = std::fs::read_dir(&store_dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    extra.push(("store.snapshot_bytes", one(snap_bytes as f64)));
    let recovers: Vec<f64> = (0..5)
        .filter_map(|_| {
            let t = Instant::now();
            let r = SessionStore::recover(&store_dir, SnapshotPolicy::default());
            let us = t.elapsed().as_secs_f64() * 1e6;
            checks.reply(r, "SessionStore::recover").map(|_| us)
        })
        .collect();
    extra.push(("store.recover_us", median_of(&recovers)));

    write_trace(&tr, &args.workload);
    Ok(per_layer(&tr, &counts, &stepped, &on.step_us, extra))
}

fn traced_star(seqs: &[MeshSequence], args: &RunArgs, gen_s: f64, checks: &mut Checks) -> Measured {
    // The library calls themselves, untraced.
    let r = drive_star(seqs, 0.0, star_min_reps(args.smoke), checks);
    let cfg = IgpConfig::new(PARTS);
    let replay = |tr: &mut Tracer, counts: &mut Counts, checks: &mut Checks| -> Vec<u32> {
        let mut stepped = Vec::new();
        for rep in 0..STAR_TRACED_REPS {
            for (s, seq) in seqs.iter().enumerate() {
                for (i, step) in seq.steps.iter().enumerate() {
                    let trace = stepped.len();
                    tr.set_trace(trace);
                    // The increment arrives pre-built; the delta calls
                    // are probes, not part of the measured call.
                    if let Some(delta) = tr.probe("graph.diff", || step.inc.diff()) {
                        tr.probe("graph.validate", || delta.validate(seq.base.num_vertices()));
                        tr.probe("graph.apply", || delta.apply(&seq.base));
                        counts.deltas += 1;
                        counts.delta_ops += ops(&delta);
                    }
                    let root = tr.open("repartition_call");
                    let (part, done) =
                        repartition_traced(tr, counts, &cfg, &step.inc, &r.base_parts[s]);
                    tr.close(root);
                    stepped.push(trace as u32);
                    checks.op(part.assignment() == r.parts[s][i], || {
                        format!("sequence {s} increment {i}: phase-by-phase replay differs from `repartition`")
                    });
                    if rep == 0 {
                        step_probes(tr, &step.inc, &r.base_parts[s], &done);
                    }
                }
            }
        }
        stepped
    };
    let mut tr = Tracer::new(true);
    let mut counts = Counts::default();
    let stepped = replay(&mut tr, &mut counts, checks);
    let t = Instant::now();
    replay(&mut Tracer::new(false), &mut Counts::default(), checks);
    let untraced_us = t.elapsed().as_secs_f64() * 1e6;

    let extra = vec![
        ("mesh.gen_s", one(gen_s)),
        (
            "deltas_per_s",
            per_second(r.samples.step_us.len(), r.timed_s),
        ),
        (
            "spectral.rsb_us",
            Sample {
                value: stats::median(&r.samples.setup_s).unwrap_or(0.0) * 1e6,
                n: r.samples.setup_s.len(),
            },
        ),
        (
            "bench.trace_overhead_frac",
            frac_over(traced_prefix_us(&tr, usize::MAX), untraced_us),
        ),
    ];
    write_trace(&tr, &args.workload);
    Ok(per_layer(&tr, &counts, &stepped, &r.samples.step_us, extra))
}

fn write_trace(tr: &Tracer, workload: &str) {
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("{} spans written to {}", tr.spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
