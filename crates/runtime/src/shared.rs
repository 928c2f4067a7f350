//! The shared-memory SPMD machine: real data parallelism on this host.
//!
//! Where [`crate::Machine`] *simulates* a CM-5 (typed messages, charged
//! α/β costs, virtual clocks), [`SharedMachine`] exists to actually run
//! fast: `p` worker threads share one collective **board** — a slot per
//! rank — and every collective is post → barrier → direct slot reduction
//! → barrier. No envelopes, no channels, no per-hop boxing: a broadcast
//! writes one slot and everyone reads it; an allreduce folds the slot
//! slice left-to-right in rank order.
//!
//! That rank-ordered fold is what makes the backend a drop-in substrate
//! for the drivers: it resolves ties exactly like the simulator's
//! binomial reduction trees (lower rank wins), so replicated state —
//! partitions, simplex pivot choices — is bit-identical across backends
//! (DESIGN.md §6).
//!
//! Timing semantics differ by design: [`crate::Executor::charge`] only
//! increments a work counter here, and `now` reads the wall clock, so
//! the resulting [`SimReport`] carries *measured* per-rank seconds
//! (`makespan` = slowest rank) rather than modeled CM-5 time.

use crate::cost::SimReport;
use crate::exec::Executor;
use std::any::Any;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Watchdog for barrier waits — a rank that stops participating in the
/// collective schedule fails fast instead of hanging the test suite
/// (mirrors `Ctx`'s receive watchdog).
const GATE_TIMEOUT: Duration = Duration::from_secs(60);

/// Reusable p-party barrier with poisoning: a panicking rank marks the
/// gate so the surviving ranks panic at their next wait instead of
/// blocking forever on a peer that will never arrive.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    parties: usize,
}

struct GateState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

impl Gate {
    fn new(parties: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                waiting: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            parties,
        }
    }

    fn wait(&self) {
        if self.parties == 1 {
            return;
        }
        // `into_inner` everywhere: a peer that panicked while holding the
        // lock must not turn our own panic path into an abort-in-drop.
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.poisoned {
            drop(s);
            panic!("SPMD peer rank panicked; gate poisoned");
        }
        s.waiting += 1;
        if s.waiting == self.parties {
            s.waiting = 0;
            s.generation += 1;
            self.cv.notify_all();
            return;
        }
        let gen = s.generation;
        loop {
            let (guard, timeout) = self
                .cv
                .wait_timeout(s, GATE_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            if s.poisoned {
                drop(s);
                panic!("SPMD peer rank panicked; gate poisoned");
            }
            if s.generation != gen {
                return;
            }
            if timeout.timed_out() {
                drop(s);
                panic!("SPMD rank deadlocked at shared-memory barrier");
            }
        }
    }

    fn poison(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.poisoned = true;
        self.cv.notify_all();
    }
}

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

/// The shared collective board: one contribution slot per rank plus the
/// synchronization gate.
struct Board {
    slots: Vec<Slot>,
    gate: Gate,
}

impl Board {
    fn new(p: usize) -> Self {
        Board {
            slots: (0..p).map(|_| Mutex::new(None)).collect(),
            gate: Gate::new(p),
        }
    }
}

/// Poisons the gate if the rank body unwinds, releasing peers blocked at
/// a barrier.
struct PoisonOnPanic<'a>(&'a Gate);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The per-rank executor handed to each worker thread.
pub struct SharedCtx<'a> {
    rank: usize,
    size: usize,
    board: &'a Board,
    start: Instant,
    charged_work: u64,
}

impl<'a> SharedCtx<'a> {
    fn new(rank: usize, size: usize, board: &'a Board) -> Self {
        SharedCtx {
            rank,
            size,
            board,
            start: Instant::now(),
            charged_work: 0,
        }
    }

    /// Post this rank's erased contribution, synchronize, read the full
    /// slot slice, and synchronize again so nobody overwrites a slot a
    /// peer is still reading.
    fn collective<R>(
        &mut self,
        post: Option<Box<dyn Any + Send>>,
        read: impl FnOnce(usize, &[Slot]) -> R,
    ) -> R {
        if let Some(val) = post {
            *self.board.slots[self.rank].lock().unwrap() = Some(val);
        }
        self.board.gate.wait();
        let out = read(self.rank, &self.board.slots);
        self.board.gate.wait();
        out
    }
}

/// Lock slot `r` and clone out its typed contents.
fn read_slot<M: Clone + 'static>(slots: &[Slot], r: usize) -> M {
    slots[r]
        .lock()
        .unwrap()
        .as_ref()
        .expect("collective slot empty: SPMD schedule diverged across ranks")
        .downcast_ref::<M>()
        .expect("collective slot type mismatch: SPMD schedule diverged across ranks")
        .clone()
}

impl Executor for SharedCtx<'_> {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn charge(&mut self, units: u64) {
        self.charged_work += units;
    }

    #[inline]
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn barrier(&mut self) {
        let m = &crate::obs::metrics().backend[crate::Backend::SharedMem.obs_idx()];
        m.barrier_wait_us.time(|| self.board.gate.wait());
    }

    fn broadcast<M>(&mut self, root: usize, val: Option<M>, _words: u64) -> M
    where
        M: Clone + Send + 'static,
    {
        let m = &crate::obs::metrics().backend[crate::Backend::SharedMem.obs_idx()];
        m.broadcast_us.time(|| {
            let me = self.rank;
            let post = if me == root {
                let v = val.expect("root must supply the broadcast value");
                Some(Box::new(v) as Box<dyn Any + Send>)
            } else {
                None
            };
            self.collective(post, |_, slots| read_slot::<M>(slots, root))
        })
    }

    fn allgather<M>(&mut self, val: M, _words: u64) -> Vec<M>
    where
        M: Clone + Send + 'static,
    {
        let m = &crate::obs::metrics().backend[crate::Backend::SharedMem.obs_idx()];
        m.allgather_us.time(|| {
            self.collective(Some(Box::new(val)), |_, slots| {
                (0..slots.len()).map(|r| read_slot::<M>(slots, r)).collect()
            })
        })
    }

    fn allreduce<M, F>(&mut self, val: M, _words: u64, op: F) -> M
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M,
    {
        // Every rank folds the slot slice in rank order. The fold keeps
        // the left operand on ties (op contract), so ties resolve to the
        // lowest rank — the same winner the simulator's binomial tree
        // produces.
        let m = &crate::obs::metrics().backend[crate::Backend::SharedMem.obs_idx()];
        m.allreduce_us.time(|| {
            self.collective(Some(Box::new(val)), |_, slots| {
                let mut acc = read_slot::<M>(slots, 0);
                for r in 1..slots.len() {
                    acc = op(acc, read_slot::<M>(slots, r));
                }
                acc
            })
        })
    }

    fn exchange<M>(&mut self, mut outboxes: Vec<Vec<M>>, _words_per_item: u64) -> Vec<Vec<M>>
    where
        M: Send + 'static,
    {
        let p = self.size;
        let me = self.rank;
        assert_eq!(outboxes.len(), p, "need one outbox per rank");
        let mine = std::mem::take(&mut outboxes[me]);
        let m = &crate::obs::metrics().backend[crate::Backend::SharedMem.obs_idx()];
        m.exchange_us.time(|| {
            self.collective(Some(Box::new(outboxes)), |me, slots| {
                let mut inboxes: Vec<Vec<M>> = (0..p).map(|_| Vec::new()).collect();
                inboxes[me] = mine;
                for (s, slot) in slots.iter().enumerate() {
                    if s == me {
                        continue;
                    }
                    let mut guard = slot.lock().unwrap();
                    let posted = guard
                        .as_mut()
                        .expect("collective slot empty: SPMD schedule diverged across ranks")
                        .downcast_mut::<Vec<Vec<M>>>()
                        .expect(
                            "collective slot type mismatch: SPMD schedule diverged across ranks",
                        );
                    inboxes[s] = std::mem::take(&mut posted[me]);
                }
                inboxes
            })
        })
    }
}

/// A `p`-worker shared-memory machine.
#[derive(Clone, Copy, Debug)]
pub struct SharedMachine {
    p: usize,
}

impl SharedMachine {
    /// A machine with `p ≥ 1` workers.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        SharedMachine { p }
    }

    /// Run `f` on every rank (as OS threads over one shared board),
    /// returning per-rank results (index = rank) and a wall-clock
    /// [`SimReport`]: `per_rank`/`makespan` are measured seconds,
    /// `total_work` sums the charged units, and the message counters
    /// stay zero (nothing is serialized).
    ///
    /// Panics in any rank propagate after the scope joins; peers blocked
    /// at a collective are released by gate poisoning.
    pub fn run<T, F>(&self, f: F) -> (Vec<T>, SimReport)
    where
        T: Send,
        F: for<'e> Fn(&mut SharedCtx<'e>) -> T + Sync,
    {
        let start = Instant::now();
        let board = Board::new(self.p);
        let results: Vec<(T, f64, u64)> = if self.p == 1 {
            // Single rank: run inline (no thread overhead), as Machine does.
            let mut ctx = SharedCtx::new(0, 1, &board);
            let out = f(&mut ctx);
            vec![(out, ctx.now(), ctx.charged_work)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.p)
                    .map(|rank| {
                        let board = &board;
                        let f = &f;
                        scope.spawn(move || {
                            let _guard = PoisonOnPanic(&board.gate);
                            let mut ctx = SharedCtx::new(rank, board.slots.len(), board);
                            let out = f(&mut ctx);
                            (out, ctx.now(), ctx.charged_work)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(v) => v,
                        // Re-raise the original payload so callers (and
                        // #[should_panic] tests) see the real message.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        };

        let mut report = SimReport {
            per_rank: results.iter().map(|r| r.1).collect(),
            wall_seconds: start.elapsed().as_secs_f64(),
            ..Default::default()
        };
        report.makespan = report.per_rank.iter().copied().fold(0.0, f64::max);
        for r in &results {
            report.total_work += r.2;
        }
        (results.into_iter().map(|r| r.0).collect(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_ordered_by_rank() {
        let m = SharedMachine::new(5);
        let (out, _) = m.run(|ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_inline() {
        let (out, report) = SharedMachine::new(1).run(|ctx| {
            ctx.charge(100);
            let s = ctx.allreduce_sum(7);
            let g: Vec<usize> = ctx.allgather(ctx.rank(), 1);
            (s, g)
        });
        assert_eq!(out, vec![(7, vec![0])]);
        assert_eq!(report.total_work, 100);
        assert_eq!(report.total_messages, 0);
    }

    #[test]
    fn allreduce_folds_in_rank_order() {
        // Non-commutative op exposes the fold order: string concatenation
        // must come out strictly rank-ordered on every rank.
        let (out, _) = SharedMachine::new(4)
            .run(|ctx| ctx.allreduce(ctx.rank().to_string(), 1, |a, b| format!("{a}{b}")));
        assert!(out.iter().all(|s| s == "0123"));
    }

    #[test]
    fn min_by_key_tie_goes_to_lowest_rank() {
        let (out, _) = SharedMachine::new(5).run(|ctx| {
            let key = if ctx.rank() >= 2 { 1.0 } else { 5.0 };
            ctx.allreduce_min_by_key(key, ctx.rank(), 1)
        });
        assert!(out.iter().all(|&(k, w)| k == 1.0 && w == 2));
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..4 {
            let (out, _) = SharedMachine::new(4).run(|ctx| {
                let v = (ctx.rank() == root).then(|| vec![root as u32; 3]);
                ctx.broadcast(root, v, 3)
            });
            assert!(out.iter().all(|v| *v == vec![root as u32; 3]));
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        // Same payload type in consecutive collectives: the double gate
        // must keep round k+1's posts from racing round k's reads.
        let (out, _) = SharedMachine::new(4).run(|ctx| {
            let mut acc = Vec::new();
            for round in 0..50u64 {
                let v: Vec<u64> = ctx.allgather(round * 10 + ctx.rank() as u64, 1);
                acc.push(v);
            }
            acc
        });
        for rounds in out {
            for (round, v) in rounds.iter().enumerate() {
                let want: Vec<u64> = (0..4).map(|r| round as u64 * 10 + r).collect();
                assert_eq!(v, &want);
            }
        }
    }

    #[test]
    fn wall_clock_report() {
        let (_, report) = SharedMachine::new(3).run(|ctx| {
            ctx.charge(5);
            ctx.barrier();
        });
        assert_eq!(report.per_rank.len(), 3);
        assert!(report.makespan >= 0.0);
        assert!(report.wall_seconds >= report.makespan);
        assert_eq!(report.total_work, 15);
        assert_eq!(report.total_messages, 0);
        assert_eq!(report.total_words, 0);
    }

    #[test]
    #[should_panic(expected = "gate poisoned")]
    fn panic_propagates_and_releases_peers() {
        let _ = SharedMachine::new(3).run(|ctx| {
            if ctx.rank() == 2 {
                panic!("boom on rank 2");
            }
            // Peers head into a barrier the panicking rank never reaches;
            // poisoning must release them.
            ctx.barrier();
        });
    }
}
