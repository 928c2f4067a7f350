//! The SPMD machine: spawn `p` ranks, run a closure on each, collect
//! results and the simulated-time report.

use crate::cost::{CostModel, SimReport};
use crate::ctx::{Ctx, Envelope};
use std::sync::mpsc::channel;

/// A virtual `p`-rank message-passing machine.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    p: usize,
    cost: CostModel,
}

impl Machine {
    /// A machine with `p ≥ 1` ranks and the given cost model.
    pub fn new(p: usize, cost: CostModel) -> Self {
        assert!(p >= 1, "need at least one rank");
        Machine { p, cost }
    }

    /// Run `f` on every rank (as OS threads), returning per-rank results
    /// (index = rank) and the aggregated [`SimReport`].
    ///
    /// Panics in any rank propagate after all threads are joined.
    pub fn run<T, F>(&self, f: F) -> (Vec<T>, SimReport)
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Sync,
    {
        let start = std::time::Instant::now();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..self.p).map(|_| channel::<Envelope>()).unzip();
        let mut ctxs: Vec<Ctx> = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| Ctx::new(rank, self.p, rx, txs.clone(), self.cost))
            .collect();
        drop(txs);

        let results: Vec<(T, f64, u64, u64, u64)> = if self.p == 1 {
            // Single rank: run inline (no thread overhead; used by benches
            // to measure the sequential baseline with identical charging).
            let ctx = &mut ctxs[0];
            let out = f(ctx);
            vec![(
                out,
                ctx.now(),
                ctx.sent_messages,
                ctx.sent_words,
                ctx.charged_work,
            )]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = ctxs
                    .iter_mut()
                    .map(|ctx| {
                        let f = &f;
                        scope.spawn(move || {
                            let out = f(ctx);
                            (
                                out,
                                ctx.now(),
                                ctx.sent_messages,
                                ctx.sent_words,
                                ctx.charged_work,
                            )
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
            report.total_messages += r.2;
            report.total_words += r.3;
            report.total_work += r.4;
        }
        (results.into_iter().map(|r| r.0).collect(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_ordered_by_rank() {
        let m = Machine::new(5, CostModel::cm5());
        let (out, _) = m.run(|ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_inline() {
        let m = Machine::new(1, CostModel::cm5());
        let (out, report) = m.run(|ctx| {
            ctx.charge(100);
            7u8
        });
        assert_eq!(out, vec![7]);
        assert_eq!(report.total_work, 100);
        assert_eq!(report.total_messages, 0);
    }

    #[test]
    fn makespan_is_max_rank_clock() {
        let m = Machine::new(
            3,
            CostModel {
                t_work: 1.0,
                alpha: 0.0,
                beta: 0.0,
            },
        );
        let (_, report) = m.run(|ctx| ctx.charge(ctx.rank() as u64 * 3));
        assert_eq!(report.per_rank, vec![0.0, 3.0, 6.0]);
        assert_eq!(report.makespan, 6.0);
        assert_eq!(report.total_work, 9);
    }

    #[test]
    fn wall_time_recorded() {
        let m = Machine::new(2, CostModel::cm5());
        let (_, report) = m.run(|_| ());
        assert!(report.wall_seconds >= 0.0);
    }
}
