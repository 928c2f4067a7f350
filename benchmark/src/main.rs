//! The repo's benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to read them.
//!
//! ```text
//! igp-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! igp-benchmark suite     [--seeds <a,b,…>] [--seconds <n>] [--smoke] [--out <file>]
//! igp-benchmark compare   <a.json> <b.json>
//! igp-benchmark selfcheck [--seeds <a,b,…>] [--seconds <n>] [--smoke]
//! ```
//!
//! The first form is the contract's: one run of one workload, every
//! metric printed by name with unit and sample count, the result object
//! as the last line of stdout, exit code 0 only if every operation and
//! every correctness check passed.

mod drive;
mod gen;
mod json;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: igp-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]\n\
         \x20      igp-benchmark suite     [--seeds <a,b,…>] [--seconds <n>] [--smoke] [--out <file>]\n\
         \x20      igp-benchmark compare   <a.json> <b.json>\n\
         \x20      igp-benchmark selfcheck [--seeds <a,b,…>] [--seconds <n>] [--smoke]\n\
         workloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, key: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == key)?;
        if at + 1 >= self.0.len() {
            return None;
        }
        self.0.remove(at);
        Some(self.0.remove(at))
    }

    fn flag(&mut self, key: &str) -> bool {
        match self.0.iter().position(|a| a == key) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = match args.first().map(String::as_str) {
        Some(s @ ("suite" | "compare" | "selfcheck")) => {
            let s = s.to_string();
            args.remove(0);
            s
        }
        _ => "run".to_string(),
    };
    let mut flags = Flags(args);
    let smoke = flags.flag("--smoke");
    let seconds = flags.value("--seconds").map(|s| s.parse::<f64>());
    let seeds = flags.value("--seeds").map(|s| {
        s.split(',')
            .map(|t| t.trim().parse::<u64>())
            .collect::<Result<Vec<_>, _>>()
    });
    let (Ok(seconds), Ok(seeds)) = (seconds.transpose(), seeds.transpose()) else {
        return usage();
    };
    let result = match sub.as_str() {
        "run" => {
            let workload = flags.value("--workload");
            let seed = flags.value("--seed").and_then(|s| s.parse::<u64>().ok());
            let trace = match flags.value("--trace").as_deref() {
                Some("0") => Some(false),
                Some("1") => Some(true),
                _ => None,
            };
            let (Some(workload), Some(seed), Some(seconds), Some(trace), true) =
                (workload, seed, seconds, trace, flags.0.is_empty())
            else {
                return usage();
            };
            run_one(&run::RunArgs {
                workload,
                seed,
                seconds,
                trace,
                smoke,
            })
        }
        "suite" => {
            let out = flags.value("--out");
            if !flags.0.is_empty() {
                return usage();
            }
            suite::suite(
                &suite::SuiteArgs::new(seeds, seconds, smoke),
                out.as_deref(),
            )
        }
        "selfcheck" if flags.0.is_empty() => {
            suite::selfcheck(&suite::SuiteArgs::new(seeds, seconds, smoke))
        }
        "compare" if flags.0.len() == 2 => suite::compare_files(&flags.0[0], &flags.0[1]),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("igp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(args: &run::RunArgs) -> Result<bool, String> {
    let result = run::run(args)?;
    println!(
        "{} seed={} seconds={} trace={}{}: attempted={} failed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" },
        result.attempted,
        result.failed
    );
    print!("{}", result.table());
    println!("{}", result.to_json().render());
    Ok(result.correct)
}
