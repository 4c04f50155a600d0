//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Human-readable lines (sample counts, quartiles, the output
//! fingerprint, the layer ledger) go to standard output first; the last
//! line is the JSON result.

use crate::e2e::{self, Timed, MIN_CYCLES};
use crate::layers;
use crate::report::{Outcome, END_TO_END};
use crate::stats::Summary;
use crate::workload::{Kind, Workload};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload at its seed (and size).
    pub workload: Workload,
    /// Measurement budget.
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: the traced layer pass.
    pub trace: bool,
    /// Where logs and trace files go.
    pub out: PathBuf,
    /// Probe mode: one serial run, its peak RSS, then timed set-ups.
    pub probe: bool,
}

const USAGE: &str = "usage: repo-benchmark --workload <darknet|vantage> --seed <n> \
                     --seconds <s> --trace <0|1> [--days <d>] [--out <dir>]";

/// Parse `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut days = None;
    let mut probe = false;
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value:?}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of darknet, vantage")
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--days" => days = Some(num()?.max(1)),
            "--out" => out = PathBuf::from(value),
            "--probe" => probe = num()? != 0,
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    let kind = kind.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let mut workload =
        Workload::new(kind, seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?);
    if let Some(d) = days {
        workload.days = d;
    }
    Ok(Args { workload, seconds: seconds.unwrap_or(10), trace: trace.unwrap_or(false), out, probe })
}

/// Run the benchmark and return the result line's content.
pub fn run(args: &Args, exe: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let budget = Duration::from_secs(args.seconds);
    let w = &args.workload;
    println!(
        "workload {} seed {} days {} ({} s, trace {})",
        w.kind.name(),
        w.seed,
        w.days,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        layers::run(w, budget, &args.out)
    } else {
        Ok(timed(w, budget, MIN_CYCLES, &args.out, exe))
    }
}

/// The end-to-end metrics of one process's timed runs. `exe` is this
/// benchmark's binary, which the memory probes run as.
pub fn timed(
    w: &Workload,
    budget: Duration,
    min_cycles: usize,
    scratch: &Path,
    exe: &Path,
) -> Outcome {
    let mut t = e2e::run(w, budget, min_cycles, scratch);
    for (i, c) in t.warmup.iter().chain(&t.cycles).enumerate() {
        println!(
            "{} {i}: scenario seed {}, fingerprint {:016x}; serial {:.4} s, sharded {:.4} s, \
             durable {:.4} s, replay {:.4} s; {} generated, {} delivered",
            if i == 0 && t.warmup.is_some() { "warm-up" } else { "cycle" },
            c.seed,
            c.fingerprint,
            c.serial_s,
            c.sharded_s,
            c.durable_s,
            c.replay_s,
            c.generated,
            c.delivered
        );
    }
    let probes = e2e::probes(w, exe).unwrap_or_else(|e| {
        t.failures.push(e);
        Vec::new()
    });
    for f in &t.failures {
        println!("FAILED: {f}");
    }
    let mut samples = end_to_end_samples(&t);
    samples.push(("setup_s", probes.iter().map(|p| p.setup_s).collect()));
    samples.push(("peak_rss_mb", probes.iter().map(|p| p.peak_rss as f64 / 1e6).collect()));
    let mut values = Vec::new();
    for (name, unit) in END_TO_END {
        let s = samples.iter().find(|(n, _)| *n == name).map_or(&[][..], |(_, s)| &s[..]);
        let sum = Summary::of(s).unwrap_or(Summary { n: 0, q1: 0.0, median: 0.0, q3: 0.0 });
        println!(
            "{name:<20} {unit:<6} n={} q1={:.6} median={:.6} q3={:.6}",
            sum.n, sum.q1, sum.median, sum.q3
        );
        values.push((name, sum.median));
    }
    // The probe processes count as one more attempted run.
    Outcome::new(&END_TO_END, t.attempted + 1, t.failures.len() as u64, &values)
}

/// Per-cycle samples of the end-to-end metrics the cycles measure
/// (`setup_s` and `peak_rss_mb` come from the probes).
fn end_to_end_samples(t: &Timed) -> Vec<(&'static str, Vec<f64>)> {
    let per_cycle = |f: &dyn Fn(&e2e::Cycle) -> f64| t.cycles.iter().map(f).collect::<Vec<_>>();
    vec![
        ("serial_pps", per_cycle(&|c| c.generated as f64 / c.serial_s)),
        ("sharded_pps", per_cycle(&|c| c.generated as f64 / c.sharded_s)),
        ("durable_pps", per_cycle(&|c| c.delivered as f64 / c.durable_s)),
        ("replay_pps", per_cycle(&|c| c.delivered as f64 / c.replay_s)),
        ("log_bytes_per_pkt", per_cycle(&|c| c.log_bytes as f64 / c.delivered as f64)),
    ]
}

/// Entry point: exit 0 with a result line, 2 on bad arguments, 1 when
/// the benchmark could not run.
pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if args.probe {
        return match e2e::probe(&args.workload) {
            Ok(p) => {
                println!("{}", p.to_line());
                0
            }
            Err(e) => {
                eprintln!("memory probe failed: {e}");
                1
            }
        };
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return 1;
        }
    };
    match run(&args, &exe) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            0
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            1
        }
    }
}
