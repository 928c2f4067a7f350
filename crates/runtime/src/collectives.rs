//! Tree-based collective operations.
//!
//! All collectives use binomial trees (`⌈log₂ p⌉` message rounds), the
//! same asymptotics as the CM-5's control/data networks. Word counts are
//! supplied by the caller so the cost model can price each payload.

use crate::ctx::Ctx;

fn ceil_log2(p: usize) -> u32 {
    usize::BITS - (p - 1).leading_zeros()
}

impl Ctx {
    /// Barrier: everyone waits for everyone (zero-payload allreduce).
    pub fn barrier(&mut self) {
        self.allreduce(0u8, 1, |a, b| a | b);
    }

    /// Binomial-tree reduction to `root`. Returns `Some(total)` on the
    /// root, `None` elsewhere. `op` must be associative and commutative.
    pub fn reduce<M, F>(&mut self, root: usize, mut val: M, words: u64, op: F) -> Option<M>
    where
        M: Send + 'static,
        F: Fn(M, M) -> M,
    {
        let p = self.size();
        let rr = (self.rank() + p - root) % p;
        let mut step = 1usize;
        while step < p {
            if rr & step != 0 {
                let dst = (rr - step + root) % p;
                self.send(dst, val, words);
                return None;
            }
            let src_rr = rr + step;
            if src_rr < p {
                let other: M = self.recv((src_rr + root) % p);
                val = op(val, other);
            }
            step <<= 1;
        }
        Some(val)
    }

    /// Binomial-tree broadcast from `root`. Non-roots pass `None`.
    pub fn broadcast<M>(&mut self, root: usize, val: Option<M>) -> M
    where
        M: Clone + Send + 'static,
    {
        self.broadcast_w(root, val, 1)
    }

    /// [`Ctx::broadcast`] with an explicit per-message word count.
    pub fn broadcast_w<M>(&mut self, root: usize, val: Option<M>, words: u64) -> M
    where
        M: Clone + Send + 'static,
    {
        let p = self.size();
        if p == 1 {
            return val.expect("root must supply the broadcast value");
        }
        let rr = (self.rank() + p - root) % p;
        let levels = ceil_log2(p);
        let mut have: Option<M> = if rr == 0 {
            Some(val.expect("root must supply the broadcast value"))
        } else {
            None
        };
        // At step `bit` (descending), ranks whose low bits (< 2·bit) are all
        // zero hold the value and forward it to `rr + bit`; ranks whose low
        // bits equal exactly `bit` receive from `rr − bit`.
        for k in (0..levels).rev() {
            let bit = 1usize << k;
            let low = rr & (2 * bit - 1);
            if low == 0 {
                if rr + bit < p {
                    let v = have.as_ref().expect("broadcast sender lacks value").clone();
                    let dst = (rr + bit + root) % p;
                    self.send(dst, v, words);
                }
            } else if low == bit {
                debug_assert!(have.is_none());
                have = Some(self.recv((rr - bit + root) % p));
            }
        }
        have.expect("broadcast tree did not deliver")
    }

    /// Allreduce (`reduce` to rank 0 + `broadcast`).
    pub fn allreduce<M, F>(&mut self, val: M, words: u64, op: F) -> M
    where
        M: Clone + Send + 'static,
        F: Fn(M, M) -> M,
    {
        let total = self.reduce(0, val, words, op);
        self.broadcast_w(0, total, words)
    }

    /// Sum-allreduce of a `u64`.
    pub fn allreduce_sum(&mut self, val: u64) -> u64 {
        self.allreduce(val, 2, |a, b| a + b)
    }

    /// Global argmin: every rank contributes `(key, payload)`; all ranks
    /// receive the pair with the smallest key (ties → smallest rank wins
    /// because reduction order is deterministic).
    pub fn allreduce_min_by_key<M>(&mut self, key: f64, payload: M, words: u64) -> (f64, M)
    where
        M: Clone + Send + 'static,
    {
        self.allreduce(
            (key, payload),
            words + 2,
            |a, b| if b.0 < a.0 { b } else { a },
        )
    }

    /// Gather per-rank values to `root` in rank order (`None` elsewhere).
    pub fn gather<M>(&mut self, root: usize, val: M, words: u64) -> Option<Vec<M>>
    where
        M: Send + 'static,
    {
        let p = self.size();
        if self.rank() == root {
            let mut out: Vec<Option<M>> = (0..p).map(|_| None).collect();
            out[root] = Some(val);
            for r in 0..p {
                if r != root {
                    out[r] = Some(self.recv(r));
                }
            }
            Some(out.into_iter().map(|v| v.unwrap()).collect())
        } else {
            self.send(root, val, words);
            None
        }
    }

    /// Allgather: every rank receives the rank-ordered vector of all
    /// contributions.
    pub fn allgather<M>(&mut self, val: M, words: u64) -> Vec<M>
    where
        M: Clone + Send + 'static,
    {
        let p = self.size();
        let gathered = self.gather(0, val, words);
        self.broadcast_w(0, gathered, words * p as u64)
    }

    /// Personalized all-to-all: `outboxes[r]` is sent to rank `r`
    /// (`outboxes[self]` is returned locally). Returns `inboxes` indexed
    /// by source rank. Word cost: `words_per_item · len` per message.
    pub fn exchange<M>(&mut self, mut outboxes: Vec<Vec<M>>, words_per_item: u64) -> Vec<Vec<M>>
    where
        M: Send + 'static,
    {
        let p = self.size();
        let me = self.rank();
        assert_eq!(outboxes.len(), p, "need one outbox per rank");
        let mine = std::mem::take(&mut outboxes[me]);
        for off in 1..p {
            let to = (me + off) % p;
            let box_ = std::mem::take(&mut outboxes[to]);
            let words = 1 + words_per_item * box_.len() as u64;
            self.send(to, box_, words);
        }
        let mut inboxes: Vec<Vec<M>> = (0..p).map(|_| Vec::new()).collect();
        inboxes[me] = mine;
        for off in 1..p {
            let from = (me + p - off) % p;
            inboxes[from] = self.recv(from);
        }
        inboxes
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, Machine};

    fn machine(p: usize) -> Machine {
        Machine::new(p, CostModel::cm5())
    }

    #[test]
    fn reduce_sum_all_sizes() {
        for p in 1..=9 {
            let (out, _) = machine(p).run(|ctx| ctx.reduce(0, ctx.rank() as u64, 1, |a, b| a + b));
            let expect: u64 = (0..p as u64).sum();
            assert_eq!(out[0], Some(expect), "p={p}");
            for r in 1..p {
                assert_eq!(out[r], None);
            }
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let (out, _) = machine(6).run(|ctx| ctx.reduce(4, 1u64, 1, |a, b| a + b));
        assert_eq!(out[4], Some(6));
        assert!(out.iter().enumerate().all(|(r, v)| (r == 4) == v.is_some()));
    }

    #[test]
    fn broadcast_all_sizes_and_roots() {
        for p in 1..=8 {
            for root in 0..p {
                let (out, _) = machine(p).run(|ctx| {
                    let v = if ctx.rank() == root {
                        Some(99u32 + root as u32)
                    } else {
                        None
                    };
                    ctx.broadcast(root, v)
                });
                assert!(
                    out.iter().all(|&v| v == 99 + root as u32),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn allreduce_min_by_key_ties_deterministic() {
        let (out, _) = machine(5).run(|ctx| {
            let key = if ctx.rank() >= 2 { 1.0 } else { 5.0 };
            ctx.allreduce_min_by_key(key, ctx.rank(), 1)
        });
        // Ranks 2, 3, 4 tie at key 1.0; deterministic winner must be
        // identical everywhere.
        let winner = out[0].1;
        assert!(winner >= 2);
        assert!(out.iter().all(|&(k, w)| k == 1.0 && w == winner));
    }

    #[test]
    fn gather_in_rank_order() {
        let (out, _) = machine(4).run(|ctx| ctx.gather(2, (ctx.rank() * 11) as u32, 1));
        assert_eq!(out[2], Some(vec![0, 11, 22, 33]));
        assert_eq!(out[0], None);
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let (out, _) = machine(5).run(|ctx| ctx.allgather(ctx.rank() as u8, 1));
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn exchange_transposes() {
        // outboxes[r] = vec![me * 10 + r]; inbox from s must be s*10 + me.
        let (out, _) = machine(4).run(|ctx| {
            let me = ctx.rank();
            let boxes: Vec<Vec<usize>> = (0..4).map(|r| vec![me * 10 + r]).collect();
            ctx.exchange(boxes, 1)
        });
        for (me, inboxes) in out.iter().enumerate() {
            for (s, b) in inboxes.iter().enumerate() {
                assert_eq!(b, &vec![s * 10 + me], "me={me} s={s}");
            }
        }
    }

    #[test]
    fn barrier_completes() {
        let (_, report) = machine(8).run(|ctx| {
            for _ in 0..3 {
                ctx.barrier();
            }
        });
        assert!(report.total_messages > 0);
    }

    #[test]
    fn collective_cost_grows_logarithmically() {
        // Makespan of one barrier should scale ~log p, not ~p.
        let cost = CostModel {
            t_work: 0.0,
            alpha: 1.0,
            beta: 0.0,
        };
        let t4 = Machine::new(4, cost).run(|ctx| ctx.barrier()).1.makespan;
        let t16 = Machine::new(16, cost).run(|ctx| ctx.barrier()).1.makespan;
        assert!(t16 <= t4 * 3.0, "t4={t4} t16={t16}");
    }
}
