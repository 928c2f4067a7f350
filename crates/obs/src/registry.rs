//! The global metric registry and its Prometheus-style text
//! exposition.
//!
//! Registration is the cold path: consumer crates register each metric
//! once (through a [`metric_table!`](crate::metric_table)) and then
//! hold the returned `Arc` handle, so the serving path never touches
//! the registry lock. A metric is identified by its family name plus an
//! ordered list of `key="value"` labels; registering the same
//! (name, labels) pair twice returns the same underlying metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// A metric's labels, rendered as `{k="v",k2="v2"}` (empty → no braces).
pub type Labels = Vec<(&'static str, String)>;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One exposition family: every registered (labels → metric) series
/// sharing a name, plus the help line. Series render in label order.
struct Family {
    help: &'static str,
    series: BTreeMap<String, Metric>,
}

/// A collection of named metrics that can render itself as a text
/// exposition. Use [`registry()`] for the process-wide instance; tests
/// and per-session subsets can hold private ones.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

fn label_key(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Escape per the exposition grammar (DESIGN.md §10.2).
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(s, "{k}=\"{escaped}\"");
    }
    s.push('}');
    s
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<M>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        wrap: impl Fn(Arc<M>) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<M>>,
        fresh: impl Fn() -> M,
    ) -> Arc<M> {
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            series: BTreeMap::new(),
        });
        let key = label_key(&labels);
        if let Some(existing) = family.series.get(&key) {
            return unwrap(existing).unwrap_or_else(|| {
                panic!("metric {name}{key} already registered with a different type")
            });
        }
        let metric = Arc::new(fresh());
        family.series.insert(key, wrap(metric.clone()));
        metric
    }

    /// Register (or fetch) a counter series.
    pub fn counter(&self, name: &'static str, help: &'static str, labels: Labels) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Register (or fetch) a gauge series.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: Labels) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Register (or fetch) a histogram series.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// Render the Prometheus-style text exposition (DESIGN.md §10.2):
    /// `# HELP` / `# TYPE` headers per family, one sample line per
    /// series, histograms as summaries (`{quantile="…"}` lines plus
    /// `_count` / `_sum` / `_max`).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let ty = match family.series.values().next() {
                Some(Metric::Counter(_)) => "counter",
                Some(Metric::Gauge(_)) => "gauge",
                Some(Metric::Histogram(_)) => "summary",
                None => continue,
            };
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {ty}");
            for (key, metric) in family.series.iter() {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{key} {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{key} {}", g.get());
                    }
                    Metric::Histogram(h) => {
                        let (p50, p90, p99, max) = h.summary();
                        for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
                            let ql = quantile_key(key, q);
                            let _ = writeln!(out, "{name}{ql} {v}");
                        }
                        let _ = writeln!(out, "{name}_max{key} {max}");
                        let _ = writeln!(out, "{name}_count{key} {}", h.count());
                        let _ = writeln!(out, "{name}_sum{key} {}", h.sum());
                    }
                }
            }
        }
        out
    }
}

/// Merge `quantile="q"` into an existing (possibly empty) label set.
fn quantile_key(key: &str, q: &str) -> String {
    if key.is_empty() {
        format!("{{quantile=\"{q}\"}}")
    } else {
        // key ends with '}'; splice before it.
        format!("{},quantile=\"{q}\"}}", &key[..key.len() - 1])
    }
}

/// The process-wide registry every instrumented crate registers into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_renders_all_types() {
        let _g = crate::testsync::recording();
        let r = Registry::new();
        let c = r.counter(
            "igp_test_requests_total",
            "requests",
            vec![("verb", "delta".into())],
        );
        c.add(3);
        let g = r.gauge("igp_test_depth", "queue depth", vec![]);
        g.set(5);
        let h = r.histogram("igp_test_latency_us", "latency", vec![]);
        h.observe(100);
        h.observe(200);
        let text = r.render();
        assert!(
            text.contains("# TYPE igp_test_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("igp_test_requests_total{verb=\"delta\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE igp_test_depth gauge"), "{text}");
        assert!(text.contains("igp_test_depth 5"), "{text}");
        assert!(
            text.contains("# TYPE igp_test_latency_us summary"),
            "{text}"
        );
        assert!(
            text.contains("igp_test_latency_us{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("igp_test_latency_us_count 2"), "{text}");
        assert!(text.contains("igp_test_latency_us_sum 300"), "{text}");
    }

    #[test]
    fn same_name_and_labels_returns_same_metric() {
        let r = Registry::new();
        let _g = crate::testsync::recording();
        let a = r.counter("igp_test_dup_total", "d", vec![("k", "v".into())]);
        let b = r.counter("igp_test_dup_total", "d", vec![("k", "v".into())]);
        a.inc();
        assert_eq!(b.get(), 1);
        // Different labels → different series.
        let c = r.counter("igp_test_dup_total", "d", vec![("k", "w".into())]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("igp_test_esc_total", "e", vec![("p", "a\"b\\c".into())]);
        let text = r.render();
        assert!(
            text.contains("igp_test_esc_total{p=\"a\\\"b\\\\c\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn quantile_label_merges_into_existing_labels() {
        let _g = crate::testsync::recording();
        let r = Registry::new();
        let h = r.histogram("igp_test_lbl_us", "l", vec![("backend", "shared".into())]);
        h.observe(7);
        let text = r.render();
        assert!(
            text.contains("igp_test_lbl_us{backend=\"shared\",quantile=\"0.5\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("igp_test_lbl_us_count{backend=\"shared\"} 1"),
            "{text}"
        );
    }
}
