//! Per-layer attribution from outside the program.
//!
//! The traced run replays a workload's stream in one thread through the
//! same public functions, in the same order, that the daemon's worker
//! calls for a `DELTA` (DESIGN.md §8: parse → coalesce → policy → flush
//! → journal → snapshot → reply), opening a benchmark-owned span around
//! each call. Spans live in memory and are written to
//! `out/trace-<workload>.jsonl` when the run ends. A layer's self time
//! is its span minus its children.
//!
//! Calls that the program makes *inside* another public call
//! (`layer_partitions` inside `balance`, `validate` inside
//! `push_verified`, the LP solves) cannot be spanned from outside; they
//! are re-run as **probe** spans on the same inputs after the delta's
//! path trace has closed, and are excluded from every sum.
//!
//! Tracing inside the program (ROADMAP item 5) will replace these
//! outside stopwatches without renaming a metric.

use crate::workload::PARTS;
use igp_core::assign::assign_new_vertices;
use igp_core::balance::{balance, integer_targets, scale_surplus, solve_movement};
use igp_core::layer::layer_partitions;
use igp_core::refine::{refine, solve_circulation};
use igp_core::report::PhaseTimings;
use igp_core::{BalanceSolver, IgpConfig, IgpReport, ParallelPartitioner};
use igp_graph::coalesce::DeltaCoalescer;
use igp_graph::{
    CsrGraph, CutMetrics, GraphDelta, IncrementalGraph, NodeId, PartId, Partitioning, INVALID_NODE,
};
use igp_runtime::{Backend, CostModel};
use igp_service::policy::PolicyView;
use igp_service::protocol::{encode_delta_fields, encode_open_opts, parse_request, Request};
use igp_service::{SessionConfig, SnapshotPolicy};
use igp_store::wal::WalWriter;
use igp_store::{SessionState, SessionStore, StoreMeta};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root; ids start at 1.
pub struct Span {
    /// Delta (or increment) index the span belongs to.
    pub trace: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Re-run of an inner call, outside the blocking path.
    pub probe: bool,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle of an open span.
pub struct Open(u32);

/// In-memory span recorder. With `on == false` every call is a no-op,
/// which is what the untraced replay behind `bench.trace_overhead_frac`
/// runs against.
pub struct Tracer {
    on: bool,
    t0: Instant,
    trace: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            trace: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_trace(&mut self, trace: usize) {
        self.trace = trace as u32;
    }

    fn push(&mut self, name: &'static str, probe: bool) -> Open {
        if !self.on {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            trace: self.trace,
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            start_ns: 0,
            end_ns: 0,
            probe,
        });
        self.stack.push(id);
        // Stamp last, so the recorder's own bookkeeping stays outside.
        self.spans[id as usize - 1].start_ns = self.t0.elapsed().as_nanos() as u64;
        Open(id)
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        self.push(name, false)
    }

    pub fn close(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        self.spans[open.0 as usize - 1].end_ns = now;
    }

    /// Close under a name only known once the call returned.
    pub fn close_as(&mut self, open: Open, name: &'static str) {
        if self.on {
            self.spans[open.0 as usize - 1].name = name;
        }
        self.close(open);
    }

    /// Time `f` as a probe span (skipped entirely when off).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> Option<R> {
        if !self.on {
            return None;
        }
        assert!(self.stack.is_empty(), "probes run outside the path trace");
        let s = self.push(name, true);
        let r = std::hint::black_box(f());
        self.close(s);
        Some(r)
    }

    /// Durations (µs) per span name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.us());
        }
        out
    }

    /// Per root span: `(trace, duration, attributed)` in µs, where
    /// attributed is the time covered by the root's children — the sum
    /// of every layer's self time on the blocking path.
    pub fn roots(&self) -> Vec<(u32, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len() + 1];
        for s in &self.spans {
            child_us[s.parent as usize] += s.us();
        }
        self.spans
            .iter()
            .filter(|s| s.parent == 0 && !s.probe)
            .map(|s| (s.trace, s.us(), child_us[s.id as usize]))
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"probe\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.probe
            )?;
        }
        w.flush()
    }
}

/// Exact counts gathered at the layer boundaries (they must repeat bit
/// for bit for a seed).
#[derive(Default)]
pub struct Counts {
    pub steps: u64,
    pub stages: u64,
    pub balance_pivots: u64,
    pub refine_pivots: u64,
    pub refine_rounds: u64,
    pub refine_rolled_back: u64,
    /// `(rows, cols)` of each step's first balance LP.
    pub lp_shape: Vec<(f64, f64)>,
    pub lp_work_share: Vec<f64>,
    pub delta_ops: u64,
    pub deltas: u64,
    /// Ops pushed into / surviving out of the coalescer, over flushes.
    pub pushed_ops: u64,
    pub net_ops: u64,
    pub wal_bytes: u64,
    pub snapshots: u64,
}

/// Edit operations in a delta.
pub fn ops(d: &GraphDelta) -> u64 {
    (d.add_vertices.len() + d.remove_vertices.len() + d.add_edges.len() + d.remove_edges.len())
        as u64
}

fn with_solver(solver: BalanceSolver) -> IgpConfig {
    let mut cfg = IgpConfig::new(PARTS);
    cfg.solver = solver;
    cfg
}

const SOLVERS: [(BalanceSolver, &str, &str); 3] = [
    (
        BalanceSolver::DenseSimplex,
        "lp.movement_dense",
        "lp.circulation_dense",
    ),
    (
        BalanceSolver::BoundedSimplex,
        "lp.movement_bounded",
        "lp.circulation_bounded",
    ),
    (
        BalanceSolver::NetworkFlow,
        "lp.movement_flow",
        "lp.circulation_flow",
    ),
];

/// What one traced repartition hands back besides the new partitioning.
pub struct Repartitioned {
    pub moved: u64,
    pub stages: usize,
    pub balanced: bool,
    /// The assignment after phase 1: the input `balance` layered first.
    after_assign: Vec<PartId>,
}

/// `IncrementalPartitioner::repartition` (IGPR) unrolled into its public
/// phases, one span each, in the driver's order.
pub fn repartition_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    cfg: &IgpConfig,
    inc: &IncrementalGraph,
    old: &Partitioning,
) -> (Partitioning, Repartitioned) {
    let g = inc.new_graph();
    let span = tr.open("core.repartition");
    let s = tr.open("core.assign");
    let (assign_vec, assign) = assign_new_vertices(inc, old);
    let mut part = Partitioning::from_assignment(g, cfg.num_parts, assign_vec);
    tr.close(s);
    let after_assign = part.assignment().to_vec();
    let s = tr.open("core.balance");
    let balance_outcome = balance(g, &mut part, cfg);
    tr.close(s);
    let s = tr.open("core.refine");
    let refine_outcome = refine(g, &mut part, cfg);
    tr.close(s);
    let s = tr.open("graph.cut_metrics");
    let metrics = CutMetrics::compute(g, &part);
    tr.close(s);
    tr.close(span);

    let (stages, rounds) = (&balance_outcome.stages, &refine_outcome.iters);
    counts.steps += 1;
    counts.stages += stages.len() as u64;
    counts.balance_pivots += stages.iter().map(|s| s.lp.pivots as u64).sum::<u64>();
    counts.refine_pivots += rounds.iter().map(|i| i.lp.pivots as u64).sum::<u64>();
    counts.refine_rounds += rounds.len() as u64;
    counts.refine_rolled_back += rounds.iter().filter(|i| i.rolled_back).count() as u64;
    if let Some(first) = stages.first() {
        counts
            .lp_shape
            .push((first.lp.constraints as f64, first.lp.vars as f64));
    }
    let report = IgpReport {
        assign,
        balance: balance_outcome,
        refine: Some(refine_outcome),
        timings: PhaseTimings::default(),
        metrics,
    };
    counts.lp_work_share.push(report.lp_work_share());
    let done = Repartitioned {
        moved: report.total_moved(),
        stages: report.num_stages(),
        balanced: report.balance.balanced,
        after_assign,
    };
    (part, done)
}

/// Probes on one step's inputs: the layering `balance` ran first, the
/// stage-1 movement LP per engine, a circulation LP of the refine LP's
/// *shape* (same pairs, caps = λ — not the refine phase's own
/// coefficients, which only exist inside `refine`), and the same step on
/// the 2-worker shared-memory SPMD driver.
pub fn step_probes(
    tr: &mut Tracer,
    inc: &IncrementalGraph,
    old: &Partitioning,
    done: &Repartitioned,
) {
    let (p, g) = (PARTS, inc.new_graph());
    let Some(layering) = tr.probe("core.layer", || layer_partitions(g, &done.after_assign, p))
    else {
        return;
    };
    let spmd = ParallelPartitioner::new(
        IgpConfig::new(p).with_backend(Backend::SharedMem),
        2,
        true,
        CostModel::cm5(),
    );
    tr.probe("runtime.par2_repartition", || spmd.repartition(inc, old).0);
    let (pairs, caps): (Vec<(PartId, PartId)>, Vec<u64>) = (0..p * p)
        .map(|k| ((k / p) as PartId, (k % p) as PartId))
        .map(|(i, j)| ((i, j), layering.lambda(i, j)))
        .filter(|&(_, lam)| lam > 0)
        .unzip();
    if pairs.is_empty() {
        return;
    }
    let mut counts = vec![0u32; p];
    for &q in &done.after_assign {
        counts[q as usize] += 1;
    }
    let targets = integer_targets(&counts);
    let surplus: Vec<i64> = (0..p).map(|q| counts[q] as i64 - targets[q]).collect();
    // The first δ the capped problem is feasible for, as `balance` finds
    // it (searched with the cheap network engine, untimed).
    let flow = with_solver(BalanceSolver::NetworkFlow);
    let stage1 = (1..=flow.max_delta)
        .map(|delta| scale_surplus(&surplus, delta))
        .take_while(|s| s.iter().any(|&v| v != 0))
        .find(|s| solve_movement(p, &pairs, Some(&caps), s, &flow).is_ok());
    for (solver, movement, circulation) in SOLVERS {
        let cfg = with_solver(solver);
        if let Some(s) = &stage1 {
            tr.probe(movement, || {
                solve_movement(p, &pairs, Some(&caps), s, &cfg).map(|(l, _)| l)
            });
        }
        tr.probe(circulation, || solve_circulation(p, &pairs, &caps, &cfg).0);
    }
}

/// The replay vehicle: the state `ServiceSession`, `IgpSession` and
/// `SessionStore` keep between them, advanced through public calls.
pub struct Replay {
    cfg: IgpConfig,
    session_cfg: SessionConfig,
    graph: CsrGraph,
    part: Partitioning,
    base_of_current: Vec<NodeId>,
    pending: Option<DeltaCoalescer>,
    pushed_in_batch: u64,
    total_weight: u64,
    total_moved: u64,
    deltas_received: u64,
    store: SessionStore,
    /// A second log, appended to as a probe (`WalWriter::append_delta`
    /// alone, without the store's tail compactor).
    wal_probe: WalWriter,
    /// Every this-many-th step is probed (layering, LPs, SPMD driver).
    probe_every: u64,
    pub counts: Counts,
    /// Trace ids that took a step.
    pub stepped: Vec<u32>,
}

/// A step's inputs, kept until its path trace has closed.
struct StepDone {
    inc: IncrementalGraph,
    old_part: Partitioning,
    done: Repartitioned,
    cut: u64,
    imbalance: f64,
}

impl Replay {
    /// `part` is the initial partitioning the daemon computes at `OPEN`
    /// (RSB of `graph`); `dir` receives the replay's own store.
    pub fn new(
        graph: CsrGraph,
        part: Partitioning,
        session_cfg: SessionConfig,
        dir: &Path,
        probe_every: usize,
    ) -> Self {
        let base_of_current: Vec<NodeId> = (0..graph.num_vertices() as NodeId).collect();
        let store = SessionStore::create(
            &dir.join("t0"),
            StoreMeta {
                sid: "t0".into(),
                config_line: encode_open_opts(&session_cfg),
            },
            SnapshotPolicy::default(),
            SessionState {
                graph: &graph,
                part: &part,
                base_of_current: &base_of_current,
                steps: 0,
                total_moved: 0,
                deltas_received: 0,
                needs_scratch: false,
            },
        )
        .expect("create the replay's store inside the checkout");
        let wal_probe = WalWriter::create(&dir.join("probe.log"), 0).expect("create the probe WAL");
        Replay {
            cfg: IgpConfig::new(PARTS),
            total_weight: graph.total_vertex_weight(),
            session_cfg,
            graph,
            part,
            base_of_current,
            pending: None,
            pushed_in_batch: 0,
            total_moved: 0,
            deltas_received: 0,
            store,
            wal_probe,
            probe_every: probe_every.max(1) as u64,
            counts: Counts::default(),
            stepped: Vec::new(),
        }
    }

    pub fn assignment(&self) -> &[PartId] {
        self.part.assignment()
    }

    pub fn store_dir(&self) -> &Path {
        self.store.dir()
    }

    /// One `DELTA` as the daemon's worker handles it, then the probes.
    pub fn feed(&mut self, tr: &mut Tracer, index: usize, delta: &GraphDelta) {
        tr.set_trace(index);
        let n_virtual = self
            .pending
            .as_ref()
            .map_or(self.graph.num_vertices(), |c| c.n_current());
        tr.probe("graph.validate", || delta.validate(n_virtual));

        let root = tr.open("delta");
        let s = tr.open("service.encode_delta");
        let line = format!("DELTA t0 {}", encode_delta_fields(delta));
        tr.close(s);
        let s = tr.open("service.parse_request");
        let Ok(Request::Delta { delta: parsed, .. }) = parse_request(&line) else {
            panic!("the daemon's parser rejected a generated delta: {line}");
        };
        tr.close(s);

        let s = tr.open("graph.coalesce_push");
        let co = self
            .pending
            .get_or_insert_with(|| DeltaCoalescer::new(self.graph.num_vertices()));
        co.push_verified(&parsed, &self.graph)
            .expect("generated delta is valid against the session graph");
        let coalesced = co.len();
        tr.close(s);
        self.deltas_received += 1;
        self.pushed_in_batch += ops(&parsed);
        self.counts.deltas += 1;
        self.counts.delta_ops += ops(&parsed);

        let s = tr.open("service.policy");
        let fire = self.session_cfg.policy.should_flush(&PolicyView {
            n_current: self.graph.num_vertices(),
            total_weight: self.total_weight,
            parts: PARTS,
            dirt: co.dirt(),
        });
        tr.close(s);

        let step = if fire { self.flush(tr) } else { None };

        // Journal-before-ack: the WAL append follows the in-memory
        // apply and precedes the reply.
        let s = tr.open("store.journal");
        self.store
            .journal_delta(&parsed)
            .expect("journal append inside the checkout");
        tr.close(s);
        if step.is_some() {
            let s = tr.open("store.snapshot_check");
            let wrote = self
                .store
                .maybe_snapshot(SessionState {
                    graph: &self.graph,
                    part: &self.part,
                    base_of_current: &self.base_of_current,
                    steps: self.counts.steps,
                    total_moved: self.total_moved,
                    deltas_received: self.deltas_received,
                    needs_scratch: false,
                })
                .expect("snapshot inside the checkout");
            if wrote {
                self.counts.snapshots += 1;
                tr.close_as(s, "store.snapshot");
            } else {
                tr.close(s);
            }
        }
        let s = tr.open("service.reply");
        std::hint::black_box(match &step {
            Some(st) => format!(
                "OK step sid=t0 step={} coalesced={coalesced} n={} cut={} imbalance={:.6} \
                 moved={} stages={} balanced={} scratch=0",
                self.counts.steps - 1,
                self.graph.num_vertices(),
                st.cut,
                st.imbalance,
                st.done.moved,
                st.done.stages,
                u8::from(st.done.balanced),
            ),
            None => format!("OK queued sid=t0 pending={coalesced}"),
        });
        tr.close(s);
        tr.close(root);

        if let Some(bytes) = tr.probe("store.wal_append", || {
            self.wal_probe
                .append_delta(&parsed)
                .expect("probe WAL append inside the checkout")
        }) {
            self.counts.wal_bytes += bytes;
        }
        // Probing every step would leave the caches colder for the next
        // path trace than the daemon ever sees them.
        if let Some(st) = step.filter(|_| (self.counts.steps - 1).is_multiple_of(self.probe_every))
        {
            step_probes(tr, &st.inc, &st.old_part, &st.done);
        }
    }

    /// `IgpSession::flush` + `apply_increment`, unrolled.
    fn flush(&mut self, tr: &mut Tracer) -> Option<StepDone> {
        let co = self.pending.take().expect("flush follows a push");
        let s = tr.open("graph.coalesce_net");
        let net = co.net();
        tr.close(s);
        self.counts.pushed_ops += std::mem::take(&mut self.pushed_in_batch);
        self.counts.net_ops += ops(&net);
        if net.is_empty() {
            return None;
        }
        let session_step = tr.open("core.session_step");
        let s = tr.open("graph.apply");
        let inc = net.apply(&self.graph);
        tr.close(s);
        // Cut-before: the session pays it whenever recording is on.
        let s = tr.open("graph.cut_metrics");
        std::hint::black_box(CutMetrics::compute(inc.old(), &self.part));
        tr.close(s);
        let (part, done) = repartition_traced(tr, &mut self.counts, &self.cfg, &inc, &self.part);
        let s = tr.open("graph.cut_metrics");
        let summary = CutMetrics::compute(inc.new_graph(), &part);
        tr.close(s);
        let s = tr.open("core.idmap");
        let mut base = vec![INVALID_NODE; inc.new_graph().num_vertices()];
        for (v, slot) in base.iter_mut().enumerate() {
            let old = inc.old_of_new(v as NodeId);
            if old != INVALID_NODE {
                *slot = self.base_of_current[old as usize];
            }
        }
        tr.close(s);
        let s = tr.open("graph.clone");
        let graph = inc.new_graph().clone();
        tr.close(s);
        tr.close(session_step);
        let s = tr.open("service.total_weight");
        self.total_weight = graph.total_vertex_weight();
        tr.close(s);

        assert!(done.balanced, "replay step failed to balance");
        let old_part = std::mem::replace(&mut self.part, part);
        self.base_of_current = base;
        self.graph = graph;
        self.total_moved += done.moved;
        self.stepped.push(tr.trace);
        Some(StepDone {
            inc,
            old_part,
            done,
            cut: summary.total_cut_edges,
            imbalance: summary.count_imbalance,
        })
    }
}
