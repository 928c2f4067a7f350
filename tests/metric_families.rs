//! The exposition's shape, pinned: every `# HELP` line, every `# TYPE`
//! line and every series `name{labels}` the four per-layer metric tables
//! (core, store, runtime, service) register, diffed against
//! `tests/golden/metric_families.txt`. Sample values are dropped and
//! `igp_build_info`'s `profile` label is normalised, so the golden holds
//! in debug and release builds alike. A family renamed, relabelled,
//! retyped or re-helped, or a series added or lost, fails here.
//!
//! This is its own test binary so that only those four tables are in the
//! process-wide registry when it renders. The tables are reached through
//! the crates directly: `igp::obs` is `igp-obs`, not core's table.
//!
//! The second test turns DESIGN.md §10.1's naming rule into assertions
//! over the same render.
//!
//! `IGP_METRIC_FAMILIES_PRINT=1 cargo test --test metric_families --
//! --nocapture` prints the current shape in golden form.

const GOLDEN: &str = include_str!("golden/metric_families.txt");

/// Families outside the `igp_<layer>_…` scheme: Prometheus' well-known
/// process names and the build-identity gauge.
const UNPREFIXED: [&str; 3] = [
    "process_start_time_seconds",
    "process_uptime_seconds",
    "igp_build_info",
];

const LAYERS: [&str; 4] = ["service", "store", "core", "runtime"];

/// Register all four tables and render the global registry.
fn render() -> String {
    let _ = igp_core::obs::metrics();
    let _ = igp_store::obs::metrics();
    let _ = igp_runtime::obs::metrics();
    let _ = igp_service::obs::metrics();
    igp_obs::registry().render()
}

/// The render with sample values removed: header lines as they are,
/// each sample line cut to its `name{labels}`.
fn shape(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let kept = if line.starts_with('#') {
            line
        } else {
            line.rsplit_once(' ')
                .map_or(line, |(series, _value)| series)
        };
        let kept = kept
            .replace("profile=\"debug\"", "profile=\"<profile>\"")
            .replace("profile=\"release\"", "profile=\"<profile>\"");
        out.push_str(&kept);
        out.push('\n');
    }
    out
}

#[test]
fn exposition_matches_golden() {
    let got = shape(&render());
    if std::env::var_os("IGP_METRIC_FAMILIES_PRINT").is_some() {
        print!("{got}");
    }
    let want: Vec<&str> = GOLDEN.lines().collect();
    let have: Vec<&str> = got.lines().collect();
    let missing: Vec<&&str> = want.iter().filter(|l| !have.contains(l)).collect();
    let extra: Vec<&&str> = have.iter().filter(|l| !want.contains(l)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "exposition drifted from tests/golden/metric_families.txt\n\
         missing: {missing:#?}\nextra: {extra:#?}"
    );
    assert_eq!(have, want, "same lines, different order");
}

#[test]
fn families_follow_the_naming_rule() {
    let text = render();
    let mut families = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(!help.trim().is_empty(), "{name} has no help");
        }
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        families += 1;
        let (name, ty) = rest.split_once(' ').expect("TYPE line has a type");
        if !UNPREFIXED.contains(&name) {
            let layer = name
                .strip_prefix("igp_")
                .and_then(|s| s.split_once('_'))
                .map(|(layer, _)| layer);
            assert!(
                layer.is_some_and(|l| LAYERS.contains(&l)),
                "{name} is not igp_<layer>_… with <layer> in {LAYERS:?}"
            );
        }
        assert_eq!(
            name.ends_with("_total"),
            ty == "counter",
            "{name} is a {ty}: counters and only counters end _total"
        );
        if name.ends_with("_us") {
            assert_eq!(ty, "summary", "{name} is a time in µs, so a summary");
        }
    }
    assert!(families > 0, "nothing registered");
}
