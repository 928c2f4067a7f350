//! Runtime-layer metrics: launch wall time, per-backend collective and
//! barrier timings, and the simulator's charged totals — registered
//! into the global igp-obs registry so modeled (CM-5) and observed
//! (wall-clock) cost can be compared side by side from one `METRICS`
//! scrape (DESIGN.md §10.4).

use crate::exec::Backend;

impl Backend {
    /// Index into [`RuntimeMetrics::backend`]: the position in
    /// [`Backend::ALL`], which is declaration order.
    pub(crate) fn obs_idx(self) -> usize {
        self as usize
    }
}

igp_obs::metric_table! {
    /// Per-backend series; [`RuntimeMetrics::backend`] adds the
    /// `backend` label.
    pub struct BackendMetrics(Labels) {
        counter("igp_runtime_launches_total", "SPMD jobs launched via Backend::launch") {
            pub launches_total,
        }
        histogram("igp_runtime_launch_us", "Wall time of Backend::launch (microseconds)") {
            pub launch_us,
        }
        histogram(
            "igp_runtime_barrier_wait_us",
            "Wall time blocked at the SPMD barrier (microseconds)",
        ) {
            pub barrier_wait_us,
        }
        histogram("igp_runtime_collective_us", "Wall time per collective call (microseconds)") {
            pub broadcast_us { op: "broadcast" },
            pub allgather_us { op: "allgather" },
            pub allreduce_us { op: "allreduce" },
            pub exchange_us { op: "exchange" },
        }
    }
}

igp_obs::metric_table! {
    /// All runtime-layer metrics; one instance per process.
    pub struct RuntimeMetrics {
        table(BackendMetrics) {
            /// Indexed in [`Backend::ALL`] order.
            pub backend[b in Backend::ALL] { backend: b },
        }
        histogram(
            "igp_runtime_sim_makespan_us",
            "Modeled CM-5 makespan per launch (microseconds of simulated time)",
        ) {
            pub sim_makespan_us,
        }
        counter(
            "igp_runtime_sim_messages_total",
            "Simulated point-to-point messages charged by the CM-5 model",
        ) {
            pub sim_messages_total,
        }
        counter(
            "igp_runtime_sim_words_total",
            "Simulated 4-byte payload words charged by the CM-5 model",
        ) {
            pub sim_words_total,
        }
        counter("igp_runtime_sim_work_total", "Local compute units charged via Executor::charge") {
            /// Both backends count this; only SimCm5 prices it.
            pub sim_work_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::exec::SpmdJob;

    struct Chatty;

    impl SpmdJob for Chatty {
        type Out = u64;

        fn run<E: crate::exec::Executor>(&self, e: &mut E) -> u64 {
            e.charge(3);
            e.barrier();
            let s = e.allreduce_sum(1);
            let _: Vec<u64> = e.allgather(s, 1);
            let _ = e.broadcast(0, (e.rank() == 0).then_some(s), 1);
            let _ = e.exchange((0..e.size()).map(|_| vec![1u8]).collect(), 1);
            s
        }
    }

    #[test]
    fn launch_populates_backend_and_sim_families() {
        igp_obs::set_enabled(true);
        let m = metrics();
        let before: Vec<u64> = Backend::ALL
            .iter()
            .map(|b| m.backend[b.obs_idx()].launches_total.get())
            .collect();
        let sim_msgs = m.sim_messages_total.get();
        for b in Backend::ALL {
            let _ = b.launch(2, CostModel::cm5(), &Chatty);
            let bm = &m.backend[b.obs_idx()];
            assert!(bm.launches_total.get() > before[b.obs_idx()], "{b}");
            assert!(bm.launch_us.count() > 0, "{b}");
            assert!(bm.barrier_wait_us.count() > 0, "{b}");
            assert!(bm.allreduce_us.count() > 0, "{b}");
            assert!(bm.exchange_us.count() > 0, "{b}");
        }
        assert!(m.sim_makespan_us.count() > 0);
        assert!(m.sim_messages_total.get() > sim_msgs);
        assert!(m.sim_work_total.get() > 0);
    }
}
