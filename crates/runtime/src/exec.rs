//! The [`Executor`] abstraction: the SPMD primitives the partitioning
//! drivers are written against, decoupled from the execution substrate.
//!
//! The SPMD driver in `igp-core::parallel` and the simplex kernel in
//! `igp-lp` are generic over this trait, so the *algorithm* — ownership
//! split, collective schedule, deterministic tie-breaks — is written
//! once and runs on any backend:
//!
//! * [`Backend::SimCm5`] — the message-passing [`crate::Machine`]: OS
//!   threads exchanging typed messages, every operation charged to the
//!   CM-5 cost model. Produces the paper's simulated `Time-p` numbers
//!   (DESIGN.md §4).
//! * [`Backend::SharedMem`] — the [`crate::SharedMachine`]: collectives
//!   are direct slot reductions on shared memory, `charge` is a plain
//!   counter, and `now` reads the wall clock. This is the "run fast on
//!   this host" substrate (DESIGN.md §6).
//!
//! Determinism contract: every collective returns a value that is a pure,
//! rank-order-deterministic function of the per-rank contributions — e.g.
//! `allreduce` folds as `op(..op(op(v₀, v₁), v₂).., vₚ₋₁)` with ties kept
//! on the left — so a driver that only communicates through collectives
//! computes **bit-identical** replicated state on every backend. The
//! cross-backend equivalence suite (`tests/backend_equiv.rs`) pins that
//! guarantee.

use crate::cost::{CostModel, SimReport};
use crate::machine::Machine;
use crate::shared::SharedMachine;

/// SPMD execution primitives, one instance per rank.
///
/// Word counts (`words`, 4-byte words) are accounting hints: the CM-5
/// backend prices every payload through `α + β·words`; the shared-memory
/// backend ignores them.
pub trait Executor {
    /// This rank's id, `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Account `units` of local compute (advances the virtual clock on
    /// the simulator; increments a work counter on real backends).
    fn charge(&mut self, units: u64);

    /// Current time on this rank in seconds — simulated CM-5 time on
    /// [`Backend::SimCm5`], elapsed wall time on [`Backend::SharedMem`].
    fn now(&self) -> f64;

    /// Wait for every rank.
    fn barrier(&mut self);

    /// Broadcast from `root`; non-roots pass `None`.
    fn broadcast<M>(&mut self, root: usize, val: Option<M>, words: u64) -> M
    where
        M: Clone + Send + 'static;

    /// Rank-ordered vector of every rank's contribution, on every rank.
    fn allgather<M>(&mut self, val: M, words: u64) -> Vec<M>
    where
        M: Clone + Send + 'static;

    /// Reduce with `op` (associative; ties must be resolved keeping the
    /// lower-rank operand) and replicate the result.
    fn allreduce<M, F>(&mut self, val: M, words: u64, op: F) -> M
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M;

    /// Personalized all-to-all: `outboxes[r]` is delivered to rank `r`;
    /// returns inboxes indexed by source rank.
    fn exchange<M>(&mut self, outboxes: Vec<Vec<M>>, words_per_item: u64) -> Vec<Vec<M>>
    where
        M: Send + 'static;

    /// Sum-allreduce of a `u64`.
    fn allreduce_sum(&mut self, val: u64) -> u64 {
        self.allreduce(val, 2, |a, b| a + b)
    }

    /// Global arg-min: every rank contributes `(key, payload)`; all ranks
    /// receive the pair with the smallest key (ties → smallest rank).
    fn allreduce_min_by_key<M>(&mut self, key: f64, payload: M, words: u64) -> (f64, M)
    where
        M: Clone + Send + 'static,
    {
        self.allreduce(
            (key, payload),
            words + 2,
            |a, b| if b.0 < a.0 { b } else { a },
        )
    }
}

/// An SPMD program written against [`Executor`], launchable on any
/// [`Backend`]. (A trait rather than a closure because `run` is generic
/// over the executor type.)
pub trait SpmdJob: Sync {
    /// Per-rank result type.
    type Out: Send;

    /// The rank body; executed once per rank.
    fn run<E: Executor>(&self, exec: &mut E) -> Self::Out;
}

/// Which substrate executes an SPMD job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Simulated CM-5: message passing + charged α/β/t_work costs.
    #[default]
    SimCm5,
    /// Shared memory: slot collectives + wall-clock timing.
    SharedMem,
}

impl Backend {
    /// All backends, for sweeps and test matrices.
    pub const ALL: [Backend; 2] = [Backend::SimCm5, Backend::SharedMem];

    /// Run `job` on `workers` ranks. `cost` is only consulted by
    /// [`Backend::SimCm5`]; per-rank results are indexed by rank.
    pub fn launch<J: SpmdJob>(
        self,
        workers: usize,
        cost: CostModel,
        job: &J,
    ) -> (Vec<J::Out>, SimReport) {
        let m = crate::obs::metrics();
        let bm = &m.backend[self.obs_idx()];
        bm.launches_total.inc();
        let (outs, report) = bm.launch_us.time(|| match self {
            Backend::SimCm5 => Machine::new(workers, cost).run(|ctx| job.run(ctx)),
            Backend::SharedMem => SharedMachine::new(workers).run(|ctx| job.run(ctx)),
        });
        // Simulated charges sit next to the wall timings so modeled vs.
        // observed cost can be compared from one scrape.
        if self == Backend::SimCm5 {
            m.sim_makespan_us
                .observe((report.makespan * 1e6).round() as u64);
            m.sim_messages_total.add(report.total_messages);
            m.sim_words_total.add(report.total_words);
        }
        m.sim_work_total.add(report.total_work);
        (outs, report)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::SimCm5 => "sim-cm5",
            Backend::SharedMem => "shared-mem",
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim-cm5" | "sim" | "cm5" | "simcm5" => Ok(Backend::SimCm5),
            "shared-mem" | "shared" | "shm" | "sharedmem" => Ok(Backend::SharedMem),
            other => Err(format!(
                "unknown backend '{other}' (expected 'sim-cm5' or 'shared-mem')"
            )),
        }
    }
}

/// [`crate::Ctx`] is the [`Backend::SimCm5`] executor: every method
/// delegates to the existing message-passing implementation, so charged
/// costs, message counts and `SimReport`s are unchanged from the
/// pre-trait runtime.
impl Executor for crate::Ctx {
    #[inline]
    fn rank(&self) -> usize {
        crate::Ctx::rank(self)
    }

    #[inline]
    fn size(&self) -> usize {
        crate::Ctx::size(self)
    }

    #[inline]
    fn charge(&mut self, units: u64) {
        crate::Ctx::charge(self, units)
    }

    #[inline]
    fn now(&self) -> f64 {
        crate::Ctx::now(self)
    }

    fn barrier(&mut self) {
        let m = &crate::obs::metrics().backend[Backend::SimCm5.obs_idx()];
        m.barrier_wait_us.time(|| crate::Ctx::barrier(self))
    }

    fn broadcast<M>(&mut self, root: usize, val: Option<M>, words: u64) -> M
    where
        M: Clone + Send + 'static,
    {
        let m = &crate::obs::metrics().backend[Backend::SimCm5.obs_idx()];
        m.broadcast_us.time(|| self.broadcast_w(root, val, words))
    }

    fn allgather<M>(&mut self, val: M, words: u64) -> Vec<M>
    where
        M: Clone + Send + 'static,
    {
        let m = &crate::obs::metrics().backend[Backend::SimCm5.obs_idx()];
        m.allgather_us
            .time(|| crate::Ctx::allgather(self, val, words))
    }

    fn allreduce<M, F>(&mut self, val: M, words: u64, op: F) -> M
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M,
    {
        let m = &crate::obs::metrics().backend[Backend::SimCm5.obs_idx()];
        m.allreduce_us
            .time(|| crate::Ctx::allreduce(self, val, words, op))
    }

    fn exchange<M>(&mut self, outboxes: Vec<Vec<M>>, words_per_item: u64) -> Vec<Vec<M>>
    where
        M: Send + 'static,
    {
        let m = &crate::obs::metrics().backend[Backend::SimCm5.obs_idx()];
        m.exchange_us
            .time(|| crate::Ctx::exchange(self, outboxes, words_per_item))
    }
}

/// The one-rank executor with nothing behind it: rank 0 of 1, `charge`
/// a no-op, no clock, every collective the identity. An SPMD routine
/// written against [`Executor`] *is* its own sequential version when
/// handed a `Solo` — the calls monomorphise away, so there is no twin
/// to keep in step (`igp_lp::solve` is `igp_lp::solve_on` on a `Solo`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Solo;

impl Executor for Solo {
    #[inline]
    fn rank(&self) -> usize {
        0
    }

    #[inline]
    fn size(&self) -> usize {
        1
    }

    #[inline]
    fn charge(&mut self, _units: u64) {}

    #[inline]
    fn now(&self) -> f64 {
        0.0
    }

    #[inline]
    fn barrier(&mut self) {}

    #[inline]
    fn broadcast<M>(&mut self, _root: usize, val: Option<M>, _words: u64) -> M
    where
        M: Clone + Send + 'static,
    {
        val.expect("Solo is always the root")
    }

    #[inline]
    fn allgather<M>(&mut self, val: M, _words: u64) -> Vec<M>
    where
        M: Clone + Send + 'static,
    {
        vec![val]
    }

    #[inline]
    fn allreduce<M, F>(&mut self, val: M, _words: u64, _op: F) -> M
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M,
    {
        val
    }

    #[inline]
    fn exchange<M>(&mut self, outboxes: Vec<Vec<M>>, _words_per_item: u64) -> Vec<Vec<M>>
    where
        M: Send + 'static,
    {
        outboxes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One job, every backend: the generic collectives must agree.
    struct Pipeline;

    impl SpmdJob for Pipeline {
        type Out = (usize, u64, Vec<u32>, (f64, usize));

        fn run<E: Executor>(&self, e: &mut E) -> Self::Out {
            e.charge(10);
            let sum = e.allreduce_sum(e.rank() as u64 + 1);
            let gathered: Vec<u32> = e.allgather(e.rank() as u32 * 3, 1);
            let key = if e.rank() == e.size() - 1 { -1.0 } else { 1.0 };
            let min = e.allreduce_min_by_key(key, e.rank(), 1);
            e.barrier();
            let from_root = e.broadcast(0, if e.rank() == 0 { Some(sum) } else { None }, 2);
            assert_eq!(from_root, sum);
            (e.rank(), sum, gathered, min)
        }
    }

    #[test]
    fn backends_agree_on_collectives() {
        for p in [1usize, 2, 3, 5] {
            let mut per_backend = Vec::new();
            for b in Backend::ALL {
                let (outs, _) = b.launch(p, CostModel::cm5(), &Pipeline);
                let expect_sum: u64 = (1..=p as u64).sum();
                for (r, out) in outs.iter().enumerate() {
                    assert_eq!(out.0, r, "{b} p={p}");
                    assert_eq!(out.1, expect_sum, "{b} p={p}");
                    assert_eq!(
                        out.2,
                        (0..p as u32).map(|x| x * 3).collect::<Vec<_>>(),
                        "{b} p={p}"
                    );
                    assert_eq!(out.3, (-1.0, p - 1), "{b} p={p}");
                }
                per_backend.push(outs);
            }
            assert_eq!(per_backend[0], per_backend[1], "p={p}");
        }
    }

    #[test]
    fn solo_is_the_one_rank_machine() {
        let (outs, _) = Backend::SimCm5.launch(1, CostModel::cm5(), &Pipeline);
        assert_eq!(Pipeline.run(&mut Solo), outs[0]);
        assert_eq!(Exchanger.run(&mut Solo), vec![vec![0]]);
    }

    struct Exchanger;

    impl SpmdJob for Exchanger {
        type Out = Vec<Vec<usize>>;

        fn run<E: Executor>(&self, e: &mut E) -> Self::Out {
            let me = e.rank();
            let boxes: Vec<Vec<usize>> = (0..e.size()).map(|r| vec![me * 10 + r]).collect();
            e.exchange(boxes, 1)
        }
    }

    #[test]
    fn exchange_transposes_on_every_backend() {
        for b in Backend::ALL {
            let (outs, _) = b.launch(4, CostModel::cm5(), &Exchanger);
            for (me, inboxes) in outs.iter().enumerate() {
                for (s, inbox) in inboxes.iter().enumerate() {
                    assert_eq!(inbox, &vec![s * 10 + me], "{b} me={me} s={s}");
                }
            }
        }
    }

    #[test]
    fn backend_parse_and_display() {
        assert_eq!("sim-cm5".parse::<Backend>().unwrap(), Backend::SimCm5);
        assert_eq!("SHARED".parse::<Backend>().unwrap(), Backend::SharedMem);
        assert_eq!("shm".parse::<Backend>().unwrap(), Backend::SharedMem);
        assert!("mpi".parse::<Backend>().is_err());
        assert_eq!(Backend::SimCm5.to_string(), "sim-cm5");
        assert_eq!(Backend::SharedMem.to_string(), "shared-mem");
        assert_eq!(Backend::default(), Backend::SimCm5);
    }

    #[test]
    fn simcm5_charges_are_preserved_through_the_trait() {
        // The Executor impl must delegate, not reimplement: a charged job
        // must produce the exact same SimReport as the inherent Ctx path.
        let (_, via_trait) = Backend::SimCm5.launch(3, CostModel::cm5(), &Pipeline);
        let (_, direct) = Machine::new(3, CostModel::cm5()).run(|ctx| {
            ctx.charge(10);
            let sum = ctx.allreduce_sum(ctx.rank() as u64 + 1);
            let _: Vec<u32> = ctx.allgather(ctx.rank() as u32 * 3, 1);
            let key = if ctx.rank() == ctx.size() - 1 {
                -1.0
            } else {
                1.0
            };
            let _ = ctx.allreduce_min_by_key(key, ctx.rank(), 1);
            ctx.barrier();
            let _ = ctx.broadcast_w(0, if ctx.rank() == 0 { Some(sum) } else { None }, 2);
        });
        assert_eq!(via_trait.makespan, direct.makespan);
        assert_eq!(via_trait.per_rank, direct.per_rank);
        assert_eq!(via_trait.total_messages, direct.total_messages);
        assert_eq!(via_trait.total_words, direct.total_words);
        assert_eq!(via_trait.total_work, direct.total_work);
    }
}
