//! Shared machine-readable bench artifact writer.
//!
//! The custom-harness benches (`benches/{service,store}.rs`) each
//! emit a `BENCH_*.json` in the working directory for CI to
//! upload. This module is the one place that knows the envelope: a
//! `schema_version` stamp (bump on any incompatible field change), the
//! host's core count (scaling results are meaningless without it), and
//! the write-or-warn handling that used to be copy-pasted per bench.
//!
//! JSON is hand-rolled throughout — the offline workspace has no serde.

use std::fmt::Write as _;

/// Version of the `BENCH_*.json` envelope + field layout. History:
/// 1 = pre-envelope (ad-hoc per bench); 2 = shared envelope with
/// `schema_version`/`host_cores` stamped here and `p50/p99` latency
/// columns from [`igp_obs::Histogram`]; 3 = `BENCH_service.json` gains
/// a `concurrency` section (event-loop session sweep: per-N
/// `sessions`, `open_s`, `idle_rss_mb`, `deltas_per_s`,
/// `flush_p50_us`/`flush_p99_us`/`flush_max_us`); 4 =
/// `BENCH_service.json` gains `trace_overhead` (A/B of the request
/// flight recorder with metrics held on, same envelope as
/// `obs_overhead`); 5 = `BENCH_service.json` gains
/// `http_scrape_overhead` (same workload with a concurrent ops-plane
/// `GET /metrics` scraper vs without; the exposition renders on the
/// event-loop thread, so this prices scraping under load).
pub const SCHEMA_VERSION: u32 = 5;

/// The host's logical core count (1 if undeterminable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Render a histogram's standard latency columns as JSON fields
/// (no surrounding braces): `"p50_us": …, "p99_us": …, "max_us": …,
/// "count": …`.
pub fn hist_fields(h: &igp_obs::Histogram) -> String {
    format!(
        "\"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"count\": {}",
        h.quantile(0.5),
        h.quantile(0.99),
        h.max(),
        h.count()
    )
}

/// Wrap bench-specific fields in the common envelope and write
/// `path`. `body` is the inner field list (no outer braces, trailing
/// comma or newline required on the last line). A failed write warns —
/// a bench that computed its table must not die on a read-only CWD.
pub fn write_artifact(path: &str, body: &str) {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(json, "  \"host_cores\": {},", host_cores());
    json.push_str(body.trim_end_matches('\n'));
    json.push_str("\n}\n");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            igp_obs::warn!(target: "bench", "could not write artifact"; path = path, error = e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_stamps_schema_and_cores() {
        let dir = std::env::temp_dir().join(format!("igp-bench-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let path_str = path.to_str().unwrap().to_string();
        write_artifact(&path_str, "  \"answer\": 42");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n  \"schema_version\": "), "{text}");
        assert!(text.contains("\"host_cores\": "), "{text}");
        assert!(text.contains("\"answer\": 42"), "{text}");
        assert!(text.trim_end().ends_with('}'), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hist_fields_render_quantiles() {
        let h = igp_obs::Histogram::new();
        igp_obs::set_enabled(true);
        for v in 1..=100 {
            h.observe(v);
        }
        let f = hist_fields(&h);
        assert!(f.contains("\"p50_us\": "), "{f}");
        assert!(f.contains("\"count\": 100"), "{f}");
    }
}
