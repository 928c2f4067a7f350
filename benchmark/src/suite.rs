//! Many runs at once: the full pass (`suite`), two result files set
//! against each other (`compare`), and two back-to-back passes of the
//! current build judged by the benchmark's own bounds (`selfcheck`).
//!
//! Every run is a child process of this same executable, one workload
//! per process, so `rss_peak_mb` (`VmHWM`) is that workload's alone.

use crate::json::Json;
use crate::run::out_dir;
use crate::spec::{Better, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats;
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    seeds: Vec<u64>,
    seconds: f64,
    smoke: bool,
}

impl SuiteArgs {
    /// Defaults: the ten seeds and the run length the driver uses.
    pub fn new(seeds: Option<Vec<u64>>, seconds: Option<f64>, smoke: bool) -> Self {
        SuiteArgs {
            seeds: seeds.unwrap_or_else(|| (1..=10).collect()),
            seconds: seconds.unwrap_or(if smoke { 1.0 } else { RUN_SECONDS as f64 }),
            smoke,
        }
    }
}

/// One run in a child process; returns its result object.
fn child(args: &SuiteArgs, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {}",
            out.status
        )
    })?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let why: Vec<&str> = stderr.lines().filter(|l| l.starts_with("FAILED")).collect();
        return Err(format!(
            "{workload} seed {seed} trace {}: run failed its checks ({}): {}",
            u8::from(trace),
            out.status,
            why.join("; ")
        ));
    }
    Ok(result)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from: they compare only against their own host.
fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "hostname",
            Json::Str(read_trimmed("/proc/sys/kernel/hostname")),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Run every workload on every seed untraced, plus one traced run per
/// workload (first seed); returns the result file's contents.
fn collect(args: &SuiteArgs) -> Result<Json, String> {
    let mut runs = Vec::new();
    for (workload, _) in WORKLOADS {
        for (k, &seed) in args.seeds.iter().enumerate() {
            for trace in [false, true] {
                if trace && k > 0 {
                    continue;
                }
                eprintln!("  {workload} seed={seed} trace={}", u8::from(trace));
                runs.push(Json::obj([
                    ("workload", Json::str(*workload)),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Bool(trace)),
                    ("result", child(args, workload, seed, trace)?),
                ]));
            }
        }
    }
    Ok(Json::obj([
        ("host", host()),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("runs", Json::Arr(runs)),
    ]))
}

/// `(seed, value)` of `metric` on `workload` over a file's runs.
fn values(file: &Json, workload: &str, trace: bool, metric: &str) -> Vec<(u64, f64)> {
    file.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(trace)
        })
        .filter_map(|r| {
            let seed = r.get("seed")?.as_f64()? as u64;
            let v = r.get("result")?.get("metrics")?.get(metric)?.get("value")?;
            Some((seed, v.as_f64()?))
        })
        .collect()
}

fn only_values(pairs: &[(u64, f64)]) -> Vec<f64> {
    pairs.iter().map(|&(_, v)| v).collect()
}

fn write_file(file: &Json, path: &std::path::Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, file.render_pretty()).map_err(|e| e.to_string())?;
    println!("written: {}", path.display());
    Ok(())
}

/// The full pass. Prints a per-workload summary and writes the file.
pub fn suite(args: &SuiteArgs, out: Option<&str>) -> Result<bool, String> {
    let file = collect(args)?;
    print_summary(&file);
    let path = match out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let stamp = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            out_dir().join(format!("suite-{stamp}.json"))
        }
    };
    write_file(&file, &path)?;
    Ok(true)
}

fn print_summary(file: &Json) {
    for (workload, _) in WORKLOADS {
        println!("{workload}");
        for def in END_TO_END {
            let v = only_values(&values(file, workload, false, def.name));
            println!(
                "  {:<18} median {:>14.4} {:<8} spread {:>6} over {} seeds (bound {:.0} %)",
                def.name,
                stats::median(&v).unwrap_or(f64::NAN),
                def.unit,
                stats::iqr_share(&v).map_or("n/a".into(), |s| format!("{:.1} %", 100.0 * s)),
                v.len(),
                100.0 * def.bound.unwrap_or(0.0)
            );
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side exceeds the bound: the
    /// medians cannot be told apart at this resolution.
    Unresolved,
}

/// Judge `b` against base `a` for one bounded metric. A change counts
/// when the medians differ by more than the bound, in either direction.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (
        stats::median(a).unwrap_or(f64::NAN),
        stats::median(b).unwrap_or(f64::NAN),
    );
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let spread = [a, b]
        .iter()
        .filter_map(|xs| stats::iqr_share(xs))
        .fold(0.0, f64::max);
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let v = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (ma, mb, v)
}

/// Per workload × metric: both medians, the ratio with its base, and the
/// verdict. Returns whether nothing regressed.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        println!("{workload}");
        for def in END_TO_END {
            let (va, vb) = (
                only_values(&values(a, workload, false, def.name)),
                only_values(&values(b, workload, false, def.name)),
            );
            if va.is_empty() || vb.is_empty() {
                println!("  {:<32} missing on one side", def.name);
                continue;
            }
            let (ma, mb, v) = verdict(def, &va, &vb);
            ok &= v != Verdict::Regressed;
            println!(
                "  {:<32} {:>14.4} -> {:>14.4} {:<8} x{:.3} of base {:.4} ({} is better, bound {:.0} %, n={}/{})  {}",
                def.name,
                ma,
                mb,
                def.unit,
                mb / ma,
                ma,
                def.better.as_str(),
                100.0 * def.bound.unwrap_or(0.0),
                va.len(),
                vb.len(),
                format!("{v:?}").to_lowercase()
            );
        }
        for def in PER_LAYER {
            let (va, vb) = (
                only_values(&values(a, workload, true, def.name)),
                only_values(&values(b, workload, true, def.name)),
            );
            let (Some(ma), Some(mb)) = (stats::median(&va), stats::median(&vb)) else {
                continue;
            };
            let ratio = if ma != 0.0 {
                format!("x{:.3} of base {ma:.4}", mb / ma)
            } else {
                "base 0".to_string()
            };
            println!(
                "  {:<32} {:>14.4} -> {:>14.4} {:<8} {ratio}  (per-layer, not gated)",
                def.name, ma, mb, def.unit
            );
        }
    }
    ok
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (fa, fb) = (load(a)?, load(b)?);
    println!("base a = {a}\n     b = {b}");
    Ok(compare(&fa, &fb))
}

/// Metrics that are counts of the program's own work: for a seed they
/// must repeat exactly between two runs of the same build.
fn repeats_exactly(def: &MetricDef) -> bool {
    matches!(def.unit, "count" | "bytes" | "vertices")
        || matches!(
            def.name,
            "cut_drift"
                | "graph.coalesce_keep_ratio"
                | "core.refine_waste_ratio"
                | "core.lp_work_share_model"
        )
}

/// The driver's acceptance rule, run locally: two passes of the same
/// build; every end-to-end spread (except `setup_s`) within its bound,
/// no second median worse than the first by more than the bound, and
/// every count identical seed for seed.
pub fn selfcheck(args: &SuiteArgs) -> Result<bool, String> {
    eprintln!("selfcheck: first pass");
    let a = collect(args)?;
    write_file(&a, &out_dir().join("selfcheck-a.json"))?;
    eprintln!("selfcheck: second pass");
    let b = collect(args)?;
    write_file(&b, &out_dir().join("selfcheck-b.json"))?;
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        println!("{workload}");
        for def in END_TO_END {
            let (pa, pb) = (
                values(&a, workload, false, def.name),
                values(&b, workload, false, def.name),
            );
            let (va, vb) = (only_values(&pa), only_values(&pb));
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let (ma, mb, v) = verdict(def, &va, &vb);
            let spreads = [stats::iqr_share(&va), stats::iqr_share(&vb)];
            let steady =
                def.name == "setup_s" || spreads.iter().all(|s| s.is_none_or(|s| s <= bound));
            let exact = !repeats_exactly(def) || pa == pb;
            let pass = steady && v != Verdict::Regressed && exact;
            ok &= pass;
            println!(
                "  {:<18} {:>14.4} / {:>14.4} {:<8} spread {:>5.1} % / {:>5.1} %  bound {:>4.0} %  {}{}",
                def.name,
                ma,
                mb,
                def.unit,
                100.0 * spreads[0].unwrap_or(0.0),
                100.0 * spreads[1].unwrap_or(0.0),
                100.0 * bound,
                if pass { "ok" } else { "FAIL" },
                if exact { "" } else { " (count differs between passes)" },
            );
        }
        for def in PER_LAYER.iter().filter(|d| repeats_exactly(d)) {
            let (pa, pb) = (
                values(&a, workload, true, def.name),
                values(&b, workload, true, def.name),
            );
            if pa != pb {
                ok = false;
                println!(
                    "  {:<32} FAIL: {pa:?} vs {pb:?} (must repeat exactly)",
                    def.name
                );
            }
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0];
        let lower = def(Better::Lower);
        assert_eq!(
            verdict(&lower, &base, &[10.5, 10.6, 10.4, 10.5]).2,
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&lower, &base, &[12.0, 12.1, 11.9, 12.0]).2,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&lower, &base, &[8.0, 8.1, 7.9, 8.0]).2,
            Verdict::Improved
        );
        let higher = def(Better::Higher);
        assert_eq!(
            verdict(&higher, &base, &[12.0, 12.1, 11.9, 12.0]).2,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&higher, &base, &[8.0, 8.1, 7.9, 8.0]).2,
            Verdict::Regressed
        );
        // A side noisier than the bound cannot resolve a 20 % difference.
        assert_eq!(
            verdict(&lower, &base, &[8.0, 16.0, 10.0, 14.0]).2,
            Verdict::Unresolved
        );
    }

    #[test]
    fn values_are_read_back_from_a_result_file() {
        let run = |seed: f64, trace: bool, v: f64| {
            Json::obj([
                ("workload", Json::str("window1k")),
                ("seed", Json::Num(seed)),
                ("trace", Json::Bool(trace)),
                (
                    "result",
                    Json::obj([(
                        "metrics",
                        Json::obj([(
                            "step_p50_ms",
                            Json::obj([("value", Json::Num(v)), ("unit", Json::str("ms"))]),
                        )]),
                    )]),
                ),
            ])
        };
        let file = Json::obj([(
            "runs",
            Json::Arr(vec![
                run(1.0, false, 4.5),
                run(2.0, false, 4.7),
                run(1.0, true, 9.0),
            ]),
        )]);
        assert_eq!(
            values(&file, "window1k", false, "step_p50_ms"),
            vec![(1, 4.5), (2, 4.7)]
        );
        assert!(values(&file, "window10k", false, "step_p50_ms").is_empty());
    }
}
