//! # igp-runtime — SPMD runtimes behind one [`Executor`] abstraction
//!
//! The partitioning drivers in `igp-core` are SPMD programs written
//! against the [`Executor`] trait (rank/size, charge, broadcast,
//! allgather, arg-min reduce, exchange, barrier). Two substrates
//! implement it, selectable through [`Backend`] (DESIGN.md §6):
//!
//! * **[`Backend::SimCm5`]** — [`Machine`]/[`Ctx`]. The paper reports
//!   parallel timings on a **32-node CM-5**; that machine (and working
//!   MPI bindings) are unavailable, so this backend provides the
//!   substitution documented in `DESIGN.md` §4: the *same SPMD
//!   algorithm* runs on OS threads with explicit message passing, while
//!   every rank accrues **simulated time** through a calibrated cost
//!   model ([`CostModel`]): `t_work` per charged work unit, `α + β·words`
//!   per message, tree collectives in `⌈log₂ p⌉` rounds. The reported
//!   parallel time is the makespan over ranks — the same quantity a wall
//!   clock on the CM-5 would have measured — so scaling *shape* (which
//!   phases parallelize, where the dense simplex serializes) is
//!   preserved even on a 2-core CI host.
//! * **[`Backend::SharedMem`]** — [`SharedMachine`]/[`SharedCtx`]. No
//!   simulation: collectives are direct slot reductions on shared
//!   memory and the report carries measured wall-clock seconds. Same
//!   deterministic collective results, so drivers produce bit-identical
//!   partitions on either backend.
//!
//! [`Solo`] is the third implementor and not a backend: the one-rank
//! executor whose collectives are the identity, which is how an SPMD
//! routine (the simplex kernel in `igp-lp`) serves sequential callers
//! without a second copy of itself.
//!
//! ```
//! use igp_runtime::{Machine, CostModel, SharedMachine};
//!
//! let machine = Machine::new(4, CostModel::cm5());
//! let (results, report) = machine.run(|ctx| {
//!     ctx.charge(1_000); // 1000 work units of local compute
//!     let sum: u64 = ctx.allreduce_sum(ctx.rank() as u64);
//!     sum
//! });
//! assert!(results.iter().all(|&s| s == 0 + 1 + 2 + 3));
//! assert!(report.makespan > 0.0);
//!
//! // The same program, executed for real on shared memory:
//! use igp_runtime::Executor;
//! let (results, _) = SharedMachine::new(4).run(|ctx| {
//!     ctx.charge(1_000);
//!     ctx.allreduce_sum(ctx.rank() as u64)
//! });
//! assert!(results.iter().all(|&s| s == 0 + 1 + 2 + 3));
//! ```

pub mod collectives;
pub mod cost;
pub mod ctx;
pub mod exec;
pub mod machine;
pub mod obs;
pub mod shared;

pub use cost::{CostModel, SimReport};
pub use ctx::Ctx;
pub use exec::{Backend, Executor, Solo, SpmdJob};
pub use machine::Machine;
pub use shared::{SharedCtx, SharedMachine};
