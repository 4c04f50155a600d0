//! End-to-end runs: the four engines of one workload, timed untraced.
//!
//! One cycle runs the workload's scenario through [`pipeline::run`],
//! [`pipeline::run_parallel`] with one shard, [`pipeline::run_wal`] into
//! a fresh directory, and [`pipeline::replay_wal`] over the log it
//! sealed. Cycles repeat back to back in one process (a closed loop of
//! batch runs), so the engines alternate and host drift spreads evenly
//! over all four. Cycle `i` runs scenario [`Workload::nth`]`(i)`. The
//! first cycle warms the allocator and caches: it is checked like the
//! others but its times are not reported.
//!
//! Peak memory and set-up time are measured in child processes, one
//! scenario each: see [`probe`].

use crate::workload::{setup, Workload};
use aggressive_scanners::pipeline::{self, RunOutput, Telemetry, WalOutcome, WalRun};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-ups each probe process times; it reports their median.
pub const SETUP_REPS: usize = 21;

/// Timed cycles a run makes, after the warm-up, even when they overrun
/// `--seconds`.
pub const MIN_CYCLES: usize = 3;

/// Probe processes per run, one per scenario; `setup_s` and
/// `peak_rss_mb` are medians over them.
pub const PROBES: u64 = 11;

/// One cycle's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    /// The scenario seed.
    pub seed: u64,
    /// Packets the mux generated.
    pub generated: u64,
    /// Packets delivered to the vantage points (after faults).
    pub delivered: u64,
    /// Wall seconds of `pipeline::run`.
    pub serial_s: f64,
    /// Wall seconds of `pipeline::run_parallel(.., 1)`.
    pub sharded_s: f64,
    /// Wall seconds of `pipeline::run_wal`.
    pub durable_s: f64,
    /// Wall seconds of `pipeline::replay_wal`.
    pub replay_s: f64,
    /// Bytes of the sealed log on disk.
    pub log_bytes: u64,
    /// The output fingerprint all four engines agreed on.
    pub fingerprint: u64,
}

/// Everything the timed runs of one process measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// The warm-up cycle, when it passed the output check.
    pub warmup: Option<Cycle>,
    /// Timed cycles that passed the output check.
    pub cycles: Vec<Cycle>,
    /// Cycles attempted, the warm-up included.
    pub attempted: u64,
    /// Why each failed cycle failed.
    pub failures: Vec<String>,
}

/// Run the warm-up cycle, then timed cycles until `budget` is spent (and
/// at least `min_cycles` of them). Logs go to fresh directories under
/// `scratch`, each removed after its replay.
pub fn run(w: &Workload, budget: Duration, min_cycles: usize, scratch: &Path) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    while out.attempted == 0
        || out.cycles.len() + out.failures.len() < min_cycles
        || start.elapsed() < budget
    {
        let dir = scratch.join(format!("wal-{}-{}", w.kind.name(), out.attempted));
        let scenario = w.nth(out.attempted);
        out.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| cycle(&scenario, &dir)))
            .unwrap_or_else(|_| Err("an engine panicked".to_string()));
        // The log is removed whatever happened to the cycle.
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(c) if out.attempted == 1 => out.warmup = Some(c),
            Ok(c) => out.cycles.push(c),
            Err(e) => out.failures.push(format!("scenario seed {}: {e}", scenario.seed)),
        }
    }
    out
}

/// Packets a run delivered to its vantage points.
fn delivered(out: &RunOutput) -> u64 {
    out.health.stage("telescope.capture").map_or(0, |s| s.received)
}

/// The output check every engine's result must pass on its own.
fn check(engine: &str, out: &RunOutput) -> Result<u64, String> {
    if !out.health.conserves() {
        return Err(format!(
            "{engine}: health ledger does not conserve: {:?}",
            out.health.violations()
        ));
    }
    Ok(out.fingerprint())
}

/// Run the four engines once and check that their outputs agree.
fn cycle(w: &Workload, dir: &Path) -> Result<Cycle, String> {
    let t0 = Instant::now();
    let serial = pipeline::run(w.scenario(), w.options());
    let serial_s = t0.elapsed().as_secs_f64();
    let fingerprint = check("serial", &serial)?;
    let (generated, delivered) = (serial.generated_packets, delivered(&serial));
    drop(serial);

    let t0 = Instant::now();
    let sharded = pipeline::run_parallel(w.scenario(), w.options(), 1);
    let sharded_s = t0.elapsed().as_secs_f64();
    let fp = check("sharded", &sharded)?;
    drop(sharded);
    if fp != fingerprint {
        return Err(format!("sharded fingerprint {fp:016x} != serial {fingerprint:016x}"));
    }

    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let durable =
        pipeline::run_wal(w.scenario(), w.options(), &WalRun::new(dir), &mut Telemetry::disabled())
            .map_err(|e| format!("run_wal: {e}"))?;
    let durable_s = t0.elapsed().as_secs_f64();
    let WalOutcome::Completed(durable) = durable else {
        return Err("run_wal suspended without being asked to".to_string());
    };
    let durable_fp = check("durable", &durable)?;
    drop(durable);
    let log_bytes = dir_bytes(dir).map_err(|e| format!("sizing the log: {e}"))?;

    let t0 = Instant::now();
    let replay = pipeline::replay_wal(w.scenario(), w.options(), dir, &mut Telemetry::disabled())
        .map_err(|e| format!("replay_wal: {e}"))?;
    let replay_s = t0.elapsed().as_secs_f64();
    let replay_fp = check("replay", &replay)?;
    drop(replay);
    if replay_fp != durable_fp {
        return Err(format!("replay fingerprint {replay_fp:016x} != durable {durable_fp:016x}"));
    }
    if durable_fp != fingerprint {
        return Err(format!("durable fingerprint {durable_fp:016x} != serial {fingerprint:016x}"));
    }
    Ok(Cycle {
        seed: w.seed,
        generated,
        delivered,
        serial_s,
        sharded_s,
        durable_s,
        replay_s,
        log_bytes,
        fingerprint,
    })
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// What one probe process measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Peak resident bytes after one serial run, the process's first work.
    pub peak_rss: u64,
    /// Median seconds of `SETUP_REPS` set-ups made after that run.
    pub setup_s: f64,
}

impl Probe {
    /// The line a probe process prints last.
    pub fn to_line(&self) -> String {
        format!("probe peak_rss_bytes {} setup_s {:e}", self.peak_rss, self.setup_s)
    }

    /// Parse [`Probe::to_line`]'s output.
    pub fn parse(line: &str) -> Option<Probe> {
        let mut it = line.strip_prefix("probe peak_rss_bytes ")?.split(" setup_s ");
        let peak_rss = it.next()?.parse().ok()?;
        let setup_s = it.next()?.trim().parse().ok()?;
        Some(Probe { peak_rss, setup_s })
    }
}

/// The `--probe 1` mode: one serial run of `w` as the process's first
/// work, its peak resident memory, then `SETUP_REPS` timed set-ups.
///
/// A process's high-water mark only rises, so the peak of one run needs
/// a process of its own; and set-up time swings by half from one
/// process to the next (the same 21 set-ups take 0.09 ms in one and
/// 0.17 ms in another), so it is measured across processes too.
pub fn probe(w: &Workload) -> Result<Probe, String> {
    check("serial", &pipeline::run(w.scenario(), w.options()))?;
    let peak_rss = aggressive_scanners::mem::vm_hwm_bytes().ok_or("VmHWM is not readable")?;
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let built = setup(w);
            let secs = t0.elapsed().as_secs_f64();
            drop(black_box(built));
            secs
        })
        .collect();
    Ok(Probe { peak_rss, setup_s: crate::stats::median(&times).unwrap_or(0.0) })
}

/// Run `PROBES` probe processes, one per scenario `w.nth(i)`; `exe` is
/// this benchmark's binary.
pub fn probes(w: &Workload, exe: &Path) -> Result<Vec<Probe>, String> {
    (0..PROBES)
        .map(|i| {
            let s = w.nth(i);
            let out = Command::new(exe)
                .args(["--workload", s.kind.name(), "--probe", "1"])
                .args(["--seed", &s.seed.to_string(), "--days", &s.days.to_string()])
                .output()
                .map_err(|e| format!("starting the probe {}: {e}", exe.display()))?;
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(Probe::parse)
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "probe for scenario seed {} failed: {}",
                        s.seed,
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_line_round_trips() {
        let p = Probe { peak_rss: 17_023_488, setup_s: 1.5525e-4 };
        assert_eq!(Probe::parse(&p.to_line()), Some(p));
        assert_eq!(Probe::parse("peak_rss_bytes 12"), None);
    }
}
