//! Per-rank execution context: typed sends/receives and the virtual clock.

use crate::cost::CostModel;
use std::any::Any;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

/// Watchdog for blocking receives — a deadlocked SPMD program fails fast
/// instead of hanging the test suite.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

pub(crate) struct Envelope {
    pub from: usize,
    /// Simulated arrival time at the receiver.
    pub arrive: f64,
    pub words: u64,
    pub payload: Box<dyn Any + Send>,
}

/// The SPMD context handed to each rank's closure.
pub struct Ctx {
    rank: usize,
    size: usize,
    rx: Receiver<Envelope>,
    txs: Vec<Sender<Envelope>>,
    cost: CostModel,
    clock: f64,
    pending: Vec<Envelope>,
    pub(crate) sent_messages: u64,
    pub(crate) sent_words: u64,
    pub(crate) charged_work: u64,
}

impl Ctx {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        rx: Receiver<Envelope>,
        txs: Vec<Sender<Envelope>>,
        cost: CostModel,
    ) -> Self {
        Ctx {
            rank,
            size,
            rx,
            txs,
            cost,
            clock: 0.0,
            pending: Vec::new(),
            sent_messages: 0,
            sent_words: 0,
            charged_work: 0,
        }
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in effect.
    #[inline]
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Current simulated time on this rank.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Charge `units` of local compute to the virtual clock.
    #[inline]
    pub fn charge(&mut self, units: u64) {
        self.clock += units as f64 * self.cost.t_work;
        self.charged_work += units;
    }

    /// Send `msg` (accounted as `words` 4-byte words) to rank `to`.
    ///
    /// The simulated send is non-blocking: the sender pays latency `α`
    /// overlap-free (a LogP "o" simplification folded into α).
    pub fn send<M: Send + 'static>(&mut self, to: usize, msg: M, words: u64) {
        assert!(to < self.size && to != self.rank, "bad destination {to}");
        let arrive = self.clock + self.cost.msg_cost(words);
        self.sent_messages += 1;
        self.sent_words += words;
        self.txs[to]
            .send(Envelope {
                from: self.rank,
                arrive,
                words,
                payload: Box::new(msg),
            })
            .expect("receiver hung up");
    }

    /// Blocking receive of a message of type `M` from rank `from`.
    /// Messages from other ranks arriving in the meantime are buffered.
    ///
    /// Panics on type mismatch (protocol error) or 60 s of silence
    /// (deadlock watchdog).
    pub fn recv<M: Send + 'static>(&mut self, from: usize) -> M {
        let env = self.take_envelope(from);
        self.clock = self.clock.max(env.arrive);
        let _ = env.words;
        *env.payload.downcast::<M>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving from {} (expected {})",
                self.rank,
                from,
                std::any::type_name::<M>()
            )
        })
    }

    fn take_envelope(&mut self, from: usize) -> Envelope {
        if let Some(pos) = self.pending.iter().position(|e| e.from == from) {
            return self.pending.remove(pos);
        }
        loop {
            let env = self
                .rx
                .recv_timeout(RECV_TIMEOUT)
                .unwrap_or_else(|_| panic!("rank {} deadlocked waiting for {from}", self.rank));
            if env.from == from {
                return env;
            }
            self.pending.push(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, Machine};

    #[test]
    fn rank_and_size_visible() {
        let m = Machine::new(3, CostModel::cm5());
        let (ranks, _) = m.run(|ctx| (ctx.rank(), ctx.size()));
        assert_eq!(ranks, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn charge_advances_clock() {
        let m = Machine::new(
            1,
            CostModel {
                t_work: 2.0,
                alpha: 0.0,
                beta: 0.0,
            },
        );
        let (t, report) = m.run(|ctx| {
            ctx.charge(5);
            ctx.now()
        });
        assert_eq!(t[0], 10.0);
        assert_eq!(report.makespan, 10.0);
        assert_eq!(report.total_work, 5);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let m = Machine::new(2, CostModel::cm5());
        let (vals, report) = m.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 41u32, 1);
                ctx.recv::<u32>(1)
            } else {
                let v = ctx.recv::<u32>(0);
                ctx.send(0, v + 1, 1);
                v
            }
        });
        assert_eq!(vals, vec![42, 41]);
        assert_eq!(report.total_messages, 2);
    }

    #[test]
    fn message_latency_applied() {
        let cost = CostModel {
            t_work: 0.0,
            alpha: 5.0,
            beta: 1.0,
        };
        let m = Machine::new(2, cost);
        let (t, _) = m.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, (), 3);
                ctx.now()
            } else {
                ctx.recv::<()>(0);
                ctx.now()
            }
        });
        assert_eq!(t[0], 0.0); // non-blocking send
        assert_eq!(t[1], 8.0); // α + 3β
    }

    #[test]
    fn out_of_order_senders_buffered() {
        let m = Machine::new(3, CostModel::cm5());
        let (vals, _) = m.run(|ctx| match ctx.rank() {
            0 => {
                // Receive from 2 first even if 1's message arrives earlier.
                let a = ctx.recv::<u8>(2);
                let b = ctx.recv::<u8>(1);
                (a, b)
            }
            r => {
                ctx.send(0, r as u8, 1);
                (0, 0)
            }
        });
        assert_eq!(vals[0], (2, 1));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let m = Machine::new(2, CostModel::cm5());
        let _ = m.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1u32, 1);
            } else {
                let _: u64 = ctx.recv(0);
            }
        });
    }
}
