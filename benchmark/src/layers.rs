//! The traced layer pass (`--trace 1`).
//!
//! Each cycle first times one untraced [`pipeline::run`] of the
//! workload, the reference the layers must add up to. It then records
//! the workload's mux output once into memory and feeds that same
//! stream through each layer's public functions, one layer at a time
//! and in pipeline order, with one ah-trace span around each call group.
//! The spans stay in memory; the last pass's trace is written out as
//! Chrome trace JSON and checked with `ah_trace::check`.
//!
//! A layer the workload's run options leave off (flows and the honeypot
//! on `darknet`, fault injection on a clean run) is still timed on the
//! same stream, off the path: its output feeds nothing, and it is left
//! out of `pipeline.layer_sum_s`. After the cycles, one `run_wal` with
//! ah-mem accounting on gives the per-subsystem memory peaks.

use crate::report::{Outcome, PER_LAYER};
use crate::stats::median;
use crate::workload::{payload_hint, Vantage, Workload};
use aggressive_scanners::core::defs::Definition;
use aggressive_scanners::core::detector::{Detector, DetectorConfig};
use aggressive_scanners::flow::router::canonical_record_key;
use aggressive_scanners::flow::v9::{encode_v9, V9Decoder};
use aggressive_scanners::mem::{self, Tag};
use aggressive_scanners::net::packet::{PacketMeta, ScanClass};
use aggressive_scanners::net::time::Ts;
use aggressive_scanners::obs::Recorder;
use aggressive_scanners::pipeline::{self, RunOptions, RunOutput, Telemetry, WalOutcome, WalRun};
use aggressive_scanners::simnet::faults::FaultInjector;
use aggressive_scanners::simnet::ring::ring;
use aggressive_scanners::simnet::scenario::Scenario;
use aggressive_scanners::telescope::capture::{CaptureOutcome, DarkSpace};
use aggressive_scanners::telescope::daily::DailyTracker;
use aggressive_scanners::telescope::event::DarknetEvent;
use aggressive_scanners::wal::{self, WalRecord, WalWriter, WalWriterConfig};
use ah_trace::buffer::EventKind;
use ah_trace::{TraceConfig, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cycles a traced run makes even when the first overruns `--seconds`.
pub const MIN_PASSES: usize = 2;

/// `pipeline.reconcile_ratio` further than this from 1 is flagged.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// Slots of the SPSC ring the handoff layer pushes through (the sharded
/// engine's per-shard ring size).
const RING_SLOTS: usize = 4096;

// Span names, one per call group. Each follows ah-trace's
// `ah_<crate>_<subsystem>_<name>` scheme.
const ROOT: &str = "ah_bench_pass_root";
const BUILD: &str = "ah_bench_simnet_scenario_build";
const VANTAGE: &str = "ah_bench_setup_vantage_build";
const MUX: &str = "ah_bench_simnet_mux_drive";
const FAULTS: &str = "ah_bench_simnet_faults_apply";
const RING: &str = "ah_bench_simnet_ring_handoff";
const CAPTURE: &str = "ah_bench_telescope_capture_observe";
const FLUSH: &str = "ah_bench_telescope_capture_flush";
const DAILY: &str = "ah_bench_telescope_daily_record";
const MERIT: &str = "ah_bench_flow_merit_observe";
const CU: &str = "ah_bench_flow_cu_observe";
const FINISH: &str = "ah_bench_flow_cache_finish";
const GN: &str = "ah_bench_intel_greynoise_observe";
const GN_FINAL: &str = "ah_bench_intel_greynoise_finalize";
const INGEST: &str = "ah_bench_core_detector_ingest";
const DETECT_FINAL: &str = "ah_bench_core_detector_finalize";
const V9: &str = "ah_bench_flow_v9_loopback";
const FINGERPRINT: &str = "ah_bench_pipeline_fingerprint_compute";
const ENCODE: &str = "ah_bench_wal_record_encode";
const DECODE: &str = "ah_bench_wal_record_decode";
const APPEND: &str = "ah_bench_wal_writer_append";
const COMMIT: &str = "ah_bench_wal_writer_commit";
const RECOVER: &str = "ah_bench_wal_recover_scan";

/// Time of one span name over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time child spans cover, seconds.
    pub self_s: f64,
}

/// Fold a trace snapshot into per-name totals: spans nest by
/// begin/end order on each track, so a span's parent is the innermost
/// span open when it began.
pub fn span_totals(snap: &ah_trace::export::TraceSnapshot) -> BTreeMap<String, SpanTotals> {
    let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for track in &snap.tracks {
        // (name, begin ns, child ns)
        let mut open: Vec<(&str, u64, u64)> = Vec::new();
        for ev in &track.events {
            match ev.kind {
                EventKind::Begin => open.push((&ev.name, ev.ts_ns, 0)),
                EventKind::End => {
                    let Some((name, begin, child)) = open.pop() else { continue };
                    let dur = ev.ts_ns.saturating_sub(begin);
                    if let Some(parent) = open.last_mut() {
                        parent.2 += dur;
                    }
                    let t = totals.entry(name.to_string()).or_default();
                    t.total_s += dur as f64 * 1e-9;
                    t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
                }
                EventKind::Instant => {}
            }
        }
    }
    totals
}

/// The reference serial run of one cycle.
struct Reference {
    out: RunOutput,
    serial_s: f64,
}

/// What one layered pass measured, besides its spans.
#[derive(Debug, Clone, Default)]
struct Counts {
    packets: u64,
    delivered: u64,
    faulted: u64,
    scan: u64,
    captured: u64,
    events: u64,
    merit_received: u64,
    merit_accepted: u64,
    merit_records: u64,
    cu_records: u64,
    gn_received: u64,
    gn_accepted: u64,
    v9_records: u64,
    ring_full_waits: u64,
    wal_frames: u64,
    wal_commits: u64,
    hitters: [u64; 3],
    d2_threshold: u64,
    d3_threshold: u64,
}

fn class_rank(c: ScanClass) -> u8 {
    match c {
        ScanClass::TcpSyn => 0,
        ScanClass::Udp => 1,
        ScanClass::IcmpEcho => 2,
    }
}

/// The pipeline's canonical detector ingest order: a total order over
/// every field of an event.
#[allow(clippy::type_complexity)]
fn event_sort_key(ev: &DarknetEvent) -> (u32, u16, u8, Ts, Ts, u64, u64, u32, u64, u64, u64, u64) {
    (
        ev.key.src.to_u32(),
        ev.key.dst_port,
        class_rank(ev.key.class),
        ev.start,
        ev.end,
        ev.packets,
        ev.bytes,
        ev.unique_dsts,
        ev.tools.zmap,
        ev.tools.masscan,
        ev.tools.mirai,
        ev.tools.other,
    )
}

const OUTCOME_SKIP: u8 = 0;
const OUTCOME_SCAN: u8 = 1;
const OUTCOME_NON_SCAN: u8 = 2;

/// Push `stream` through a 2-thread SPSC ring, as the sharded engine's
/// dispatcher hands packets to its shard; returns how often the
/// producer found the ring full.
fn ring_handoff(stream: &[PacketMeta]) -> Result<u64, String> {
    let (mut tx, mut rx) = ring::<PacketMeta>(RING_SLOTS);
    let mut full_waits = 0u64;
    let received = std::thread::scope(|s| {
        let consumer = s.spawn(move || {
            let mut n = 0u64;
            while let Some(p) = rx.pop_wait() {
                black_box(&p);
                n += 1;
            }
            n
        });
        for p in stream {
            let mut item = *p;
            let mut spins = 0u32;
            while let Err(back) = tx.try_push(item) {
                item = back;
                full_waits += 1;
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        tx.close();
        consumer.join()
    })
    .map_err(|_| "ring consumer thread panicked".to_string())?;
    if received != stream.len() as u64 {
        return Err(format!("ring delivered {received} of {} packets", stream.len()));
    }
    Ok(full_waits)
}

/// Journal `payloads` (concatenated, split at `ends`) with the default
/// group-commit cadence, committing by hand so append and commit time
/// apart; then scan the log back. Returns (frames recovered, commits).
fn wal_layers(tr: &Tracer, flat: &[u8], ends: &[usize], dir: &Path) -> Result<(u64, u64), String> {
    let io = |e: std::io::Error| format!("WAL layer in {}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(dir);
    let rec = Recorder::noop();
    let group = WalWriterConfig::default().group_commit_frames;
    let cfg = WalWriterConfig { group_commit_frames: usize::MAX, ..WalWriterConfig::default() };
    let mut writer = WalWriter::create(dir, cfg, &rec).map_err(io)?;
    let mut commits = 0u64;
    {
        let _append = tr.span(APPEND);
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            writer.append_payload(&flat[start..end]).map_err(io)?;
            start = end;
            if (i + 1) % group == 0 || i + 1 == ends.len() {
                let _commit = tr.span(COMMIT);
                writer.commit().map_err(io)?;
                commits += 1;
            }
        }
    }
    drop(writer);
    let mut frames = 0u64;
    {
        let _scan = tr.span(RECOVER);
        wal::recover(dir, &rec, |_, _, record| {
            black_box(&record);
            frames += 1;
        })
        .map_err(io)?;
    }
    std::fs::remove_dir_all(dir).map_err(io)?;
    Ok((frames, commits))
}

/// One layer-at-a-time pass over the workload's recorded stream.
fn pass(
    tr: &Tracer,
    w: &Workload,
    reference: &Reference,
    scratch: &Path,
) -> Result<Counts, String> {
    let _root = tr.span(ROOT);
    let opts = w.options();
    let mut c = Counts::default();

    let sc = {
        let _s = tr.span(BUILD);
        Scenario::build(w.scenario())
    };
    let mut v = {
        let _s = tr.span(VANTAGE);
        Vantage::build(&sc.world, &opts)
    };
    // The layers this workload leaves off, built off the clock.
    let all = RunOptions { merit_isp: true, cu_isp: true, greynoise: true, ..opts };
    let spare = Vantage::build(&sc.world, &all);
    let mut merit = v.merit.take().or(spare.merit).expect("Merit model built");
    let mut cu = v.cu.take().or(spare.cu).expect("CU model built");
    let mut gn = v.greynoise.take().or(spare.greynoise).expect("honeypot fleet built");
    let Scenario { world, mut mux, .. } = sc;

    let mut stream = Vec::with_capacity(reference.out.generated_packets as usize);
    {
        let _s = tr.span(MUX);
        mux.drive(|p| stream.push(*p));
    }
    c.packets = stream.len() as u64;

    let mut faulted = Vec::with_capacity(stream.len() + stream.len() / 16);
    {
        let _s = tr.span(FAULTS);
        let mut inj = FaultInjector::new(opts.faults.unwrap_or_else(|| w.fault_plan()));
        for p in &stream {
            inj.apply(p, &mut |q| faulted.push(*q));
        }
        inj.flush(&mut |q| faulted.push(*q));
    }
    c.faulted = faulted.len() as u64;

    {
        let _s = tr.span(RING);
        c.ring_full_waits = ring_handoff(&stream)?;
    }

    let delivered: Vec<PacketMeta> = if opts.faults.is_some() {
        drop(stream);
        faulted
    } else {
        drop(faulted);
        stream
    };
    c.delivered = delivered.len() as u64;

    let mut outcomes = Vec::with_capacity(delivered.len());
    {
        let _s = tr.span(CAPTURE);
        for p in &delivered {
            outcomes.push(match v.telescope.observe(p) {
                CaptureOutcome::Scan(_) => OUTCOME_SCAN,
                CaptureOutcome::NonScan => OUTCOME_NON_SCAN,
                CaptureOutcome::NotDark | CaptureOutcome::FilteredSource => OUTCOME_SKIP,
            });
        }
    }
    let mut events = {
        let _s = tr.span(FLUSH);
        v.telescope.flush()
    };
    c.events = events.len() as u64;
    c.scan = v.telescope.stats().scan_packets();
    c.captured = v.telescope.stats().total_packets;

    {
        let _s = tr.span(DAILY);
        let mut tracker = DailyTracker::new();
        for (p, &o) in delivered.iter().zip(&outcomes) {
            match o {
                OUTCOME_SCAN => tracker.record(p, true),
                OUTCOME_NON_SCAN => tracker.record(p, false),
                _ => {}
            }
        }
        black_box(tracker.finalize());
    }
    drop(outcomes);

    {
        let _s = tr.span(MERIT);
        for p in &delivered {
            merit.observe(p);
        }
    }
    {
        let _s = tr.span(CU);
        for p in &delivered {
            cu.observe(p);
        }
    }
    let merit_stats = merit.cache_stats();
    (c.merit_received, c.merit_accepted) = (merit_stats.received, merit_stats.accepted);
    let (mut merit_flows, cu_flows) = {
        let _s = tr.span(FINISH);
        (merit.finish(), cu.finish())
    };
    c.merit_records = merit_flows.records.len() as u64;
    c.cu_records = cu_flows.records.len() as u64;

    {
        let _s = tr.span(GN);
        for p in &delivered {
            gn.observe(p, payload_hint(p.src, p.dst_port()));
        }
    }
    let gn_stats = gn.ingest_stats();
    (c.gn_received, c.gn_accepted) = (gn_stats.received, gn_stats.accepted);
    {
        let _s = tr.span(GN_FINAL);
        black_box(gn.finalize());
    }

    events.sort_by_key(event_sort_key);
    let mut detector = Detector::new(DetectorConfig {
        thresholds: opts.thresholds,
        dark_size: DarkSpace::new(world.config.dark).size(),
    });
    {
        let _s = tr.span(INGEST);
        for ev in &events {
            detector.ingest(ev);
        }
    }
    let report = {
        let _s = tr.span(DETECT_FINAL);
        detector.finalize()
    };
    for (i, d) in Definition::ALL.iter().enumerate() {
        c.hitters[i] = report.hitters(*d).len() as u64;
    }
    (c.d2_threshold, c.d3_threshold) = (report.d2_threshold, report.d3_threshold);

    merit_flows.records.sort_by_key(canonical_record_key);
    {
        let _s = tr.span(V9);
        let mut dec = V9Decoder::default();
        for (seq, chunk) in merit_flows.records.chunks(64).enumerate() {
            let wire = encode_v9(chunk, Ts::ZERO, seq as u32, 1, seq == 0);
            if let Ok(recs) = dec.decode(&wire, 1) {
                c.v9_records += recs.len() as u64;
            }
        }
    }

    {
        let _s = tr.span(FINGERPRINT);
        black_box(reference.out.fingerprint());
    }

    let mut flat = Vec::with_capacity(delivered.len() * 48);
    let mut ends = Vec::with_capacity(delivered.len());
    {
        let _s = tr.span(ENCODE);
        for p in &delivered {
            WalRecord::Packet(*p).encode_payload(&mut flat);
            ends.push(flat.len());
        }
    }
    {
        let _s = tr.span(DECODE);
        let mut start = 0;
        for &end in &ends {
            if !matches!(WalRecord::decode_payload(&flat[start..end]), Some(WalRecord::Packet(_))) {
                return Err(format!("WAL payload at byte {start} did not decode to a packet"));
            }
            start = end;
        }
    }
    drop(delivered);
    let dir = scratch.join(format!("wal-trace-{}", w.kind.name()));
    (c.wal_frames, c.wal_commits) = wal_layers(tr, &flat, &ends, &dir)?;
    Ok(c)
}

/// Check a pass against its cycle's reference run.
fn check(c: &Counts, r: &Reference) -> Result<(), String> {
    let want: Vec<u64> =
        Definition::ALL.iter().map(|d| r.out.report.hitters(*d).len() as u64).collect();
    if c.hitters[..] != want[..] {
        return Err(format!("traced D1/D2/D3 hitters {:?} != end-to-end {want:?}", c.hitters));
    }
    if (c.d2_threshold, c.d3_threshold) != (r.out.report.d2_threshold, r.out.report.d3_threshold) {
        return Err("traced D2/D3 thresholds differ from the end-to-end report".to_string());
    }
    if c.packets != r.out.generated_packets || c.captured != r.out.capture.total_packets {
        return Err(format!(
            "traced stream ({} generated, {} captured) differs from the end-to-end run ({}, {})",
            c.packets, c.captured, r.out.generated_packets, r.out.capture.total_packets
        ));
    }
    if c.wal_frames != c.delivered {
        return Err(format!("recovered {} of {} journaled frames", c.wal_frames, c.delivered));
    }
    if !r.out.health.conserves() {
        return Err(format!("health ledger does not conserve: {:?}", r.out.health.violations()));
    }
    Ok(())
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The ledger rows: a row's share metric, its spans, and whether the
/// workload's serial run executes them (and so whether they count toward
/// the layer sum).
fn ledger_rows(opts: &RunOptions) -> [(&'static str, &'static [&'static str], bool); 11] {
    let flows = opts.merit_isp || opts.cu_isp;
    [
        ("setup.share", &[BUILD, VANTAGE], true),
        ("simnet.mux.share", &[MUX], true),
        ("simnet.faults.share", &[FAULTS], opts.faults.is_some()),
        ("telescope.capture.share", &[CAPTURE, FLUSH], true),
        ("telescope.daily.share", &[DAILY], true),
        ("flow.merit.share", &[MERIT], opts.merit_isp),
        ("flow.cu.share", &[CU], opts.cu_isp),
        ("flow.finish.share", &[FINISH], flows),
        ("flow.v9.share", &[V9], opts.merit_isp),
        ("intel.greynoise.share", &[GN, GN_FINAL], opts.greynoise),
        ("core.detector.share", &[INGEST, DETECT_FINAL], true),
    ]
}

/// One pass's per-layer metrics, and the seconds of each ledger row
/// keyed by its share metric.
#[allow(clippy::type_complexity)]
fn pass_values(
    spans: &BTreeMap<String, SpanTotals>,
    c: &Counts,
    opts: &RunOptions,
    serial_s: f64,
) -> (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>) {
    let s = |name: &str| spans.get(name).map_or(0.0, |t| t.total_s);
    let per = |name: &str, n: u64| ratio(s(name) * 1e9, n as f64);
    let commit_s = s(COMMIT);
    let values = vec![
        ("simnet.scenario.build_s", s(BUILD)),
        ("setup.vantage_s", s(VANTAGE)),
        ("simnet.mux.ns_per_pkt", per(MUX, c.packets)),
        ("simnet.mux.packets", c.packets as f64),
        ("simnet.faults.ns_per_pkt", per(FAULTS, c.packets)),
        ("simnet.faults.delivered_ratio", ratio(c.faulted as f64, c.packets as f64)),
        ("simnet.ring.ns_per_pkt", per(RING, c.packets)),
        ("simnet.ring.full_waits", c.ring_full_waits as f64),
        ("telescope.capture.ns_per_pkt", per(CAPTURE, c.delivered)),
        ("telescope.capture.flush_s", s(FLUSH)),
        ("telescope.capture.scan_ratio", ratio(c.scan as f64, c.delivered as f64)),
        ("telescope.capture.events", c.events as f64),
        ("telescope.daily.ns_per_pkt", per(DAILY, c.delivered)),
        ("flow.merit.ns_per_pkt", per(MERIT, c.delivered)),
        ("flow.cu.ns_per_pkt", per(CU, c.delivered)),
        ("flow.merit.records", c.merit_records as f64),
        ("flow.cu.records", c.cu_records as f64),
        ("flow.merit.accepted_ratio", ratio(c.merit_accepted as f64, c.merit_received as f64)),
        ("flow.finish_s", s(FINISH)),
        ("flow.v9.ns_per_record", per(V9, c.v9_records)),
        ("intel.greynoise.ns_per_pkt", per(GN, c.delivered)),
        ("intel.greynoise.accepted_ratio", ratio(c.gn_accepted as f64, c.gn_received as f64)),
        ("intel.greynoise.finalize_s", s(GN_FINAL)),
        ("core.detector.ns_per_event", per(INGEST, c.events)),
        ("core.detector.finalize_s", s(DETECT_FINAL)),
        ("core.detector.events", c.events as f64),
        ("core.detector.hitters_d1", c.hitters[0] as f64),
        ("core.detector.hitters_d2", c.hitters[1] as f64),
        ("core.detector.hitters_d3", c.hitters[2] as f64),
        ("pipeline.serial_s", serial_s),
        ("pipeline.fingerprint_s", s(FINGERPRINT)),
        ("wal.record.encode_ns_per_frame", per(ENCODE, c.delivered)),
        ("wal.record.decode_ns_per_frame", per(DECODE, c.delivered)),
        ("wal.writer.append_ns_per_frame", ratio((s(APPEND) - commit_s) * 1e9, c.delivered as f64)),
        ("wal.writer.commit_s", commit_s),
        ("wal.writer.commits", c.wal_commits as f64),
        ("wal.recover.scan_ns_per_frame", per(RECOVER, c.wal_frames)),
        ("trace.pass_s", s(ROOT)),
        ("trace.overhead_s", spans.get(ROOT).map_or(0.0, |t| t.self_s)),
    ];
    let rows = ledger_rows(opts)
        .iter()
        .map(|(share, layers, _)| (*share, layers.iter().map(|l| s(l)).sum::<f64>()))
        .collect();
    (values, rows)
}

/// Per-key medians over the passes' samples (every sample has the same
/// keys in the same order).
fn medians(samples: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = samples.first() else { return Vec::new() };
    (0..first.len())
        .map(|i| {
            let xs: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            (first[i].0, median(&xs).unwrap_or(0.0))
        })
        .collect()
}

/// The reconciliation, from the medians: the layer sum over on-path
/// rows against the serial run, and each row's share of that run.
fn reconcile(
    rows: &[(&'static str, f64)],
    opts: &RunOptions,
    serial_s: f64,
) -> Vec<(&'static str, f64)> {
    let on_path = ledger_rows(opts);
    let layer_sum: f64 =
        rows.iter().zip(&on_path).filter(|(_, r)| r.2).map(|((_, secs), _)| secs).sum();
    let mut v = vec![
        ("pipeline.layer_sum_s", layer_sum),
        ("pipeline.unattributed_s", serial_s - layer_sum),
        ("pipeline.reconcile_ratio", ratio(layer_sum, serial_s)),
    ];
    v.extend(rows.iter().map(|&(share, secs)| (share, ratio(secs, serial_s))));
    v
}

/// Per-subsystem memory peaks of one accounted durable run. Its log
/// goes to `scratch` and is removed.
fn memory_pass(w: &Workload, scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let dir = scratch.join(format!("wal-mem-{}", w.kind.name()));
    let _ = std::fs::remove_dir_all(&dir);
    mem::set_accounting(true);
    mem::reset_window();
    let outcome = pipeline::run_wal(
        w.scenario(),
        w.options(),
        &WalRun::new(&dir),
        &mut Telemetry::disabled(),
    );
    mem::set_accounting(false);
    let _ = std::fs::remove_dir_all(&dir);
    let out = match outcome {
        Ok(WalOutcome::Completed(out)) => out,
        Ok(WalOutcome::Suspended { .. }) => return Err("accounted run_wal suspended".to_string()),
        Err(e) => return Err(format!("accounted run_wal: {e}")),
    };
    let report = out.mem.clone().ok_or("accounted run returned no memory report")?;
    let peak =
        |tag: Tag| report.tags().find(|(t, _)| *t == tag).map_or(0.0, |(_, s)| s.peak_bytes as f64);
    Ok(MEM_TAGS.iter().map(|&(name, tag)| (name, peak(tag))).collect())
}

/// The `mem.*` metrics and the ah-mem tag each reads.
const MEM_TAGS: [(&str, Tag); 6] = [
    ("mem.mux.peak_bytes", Tag::Mux),
    ("mem.telescope.peak_bytes", Tag::Telescope),
    ("mem.flow.peak_bytes", Tag::Flow),
    ("mem.detectors.peak_bytes", Tag::Detectors),
    ("mem.merge.peak_bytes", Tag::Merge),
    ("mem.wal.peak_bytes", Tag::Wal),
];

/// Run traced cycles until `budget` is spent (at least `MIN_PASSES`),
/// then the memory pass; print the ledger and return the per-layer
/// metrics (medians over the passing cycles). The memory pass and the
/// trace export count as one more attempted run.
pub fn run(w: &Workload, budget: Duration, scratch: &Path) -> Result<Outcome, String> {
    let opts = w.options();
    let start = Instant::now();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut row_samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut last_trace = None;
    while samples.len() + failures.len() < MIN_PASSES || start.elapsed() < budget {
        let t0 = Instant::now();
        let out = pipeline::run(w.scenario(), w.options());
        let reference = Reference { out, serial_s: t0.elapsed().as_secs_f64() };
        let tr = Tracer::new(TraceConfig { seed: w.seed, sample_one_in: 0, buf_capacity: 1 << 16 });
        let counts = pass(&tr, w, &reference, scratch).and_then(|c| {
            check(&c, &reference)?;
            Ok(c)
        });
        let snap = tr.snapshot();
        match counts {
            Ok(c) if snap.dropped == 0 => {
                let (values, rows) =
                    pass_values(&span_totals(&snap), &c, &opts, reference.serial_s);
                samples.push(values);
                row_samples.push(rows);
                last_trace = Some(snap);
            }
            Ok(_) => failures.push(format!("trace buffer dropped {} events", snap.dropped)),
            Err(e) => failures.push(e),
        }
    }
    let attempted = (samples.len() + failures.len()) as u64 + 1;
    let mut values = medians(&samples);
    let serial_s = values.iter().find(|(n, _)| *n == "pipeline.serial_s").map_or(0.0, |p| p.1);
    values.extend(reconcile(&medians(&row_samples), &opts, serial_s));
    match memory_pass(w, scratch) {
        Ok(m) => values.extend(m),
        Err(e) => {
            failures.push(e);
            values.extend(MEM_TAGS.iter().map(|&(name, _)| (name, 0.0)));
        }
    }
    if let Some(snap) = last_trace {
        let path = scratch.join(format!("trace-{}.json", w.kind.name()));
        ah_trace::export::write_artifacts(&snap, &path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match ah_trace::check::validate_chrome_trace(&text) {
            Ok(stats) => println!("trace {}: {} spans, valid", path.display(), stats.spans),
            Err(e) => failures.push(format!("trace {} is invalid: {e}", path.display())),
        }
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    if samples.is_empty() {
        return Err(format!("no traced pass succeeded ({} attempted)", attempted));
    }
    print_ledger(&values, &opts, samples.len());
    let failed = failures.len() as u64;
    Ok(Outcome::new(&PER_LAYER, attempted, failed, &values))
}

/// The layer ledger, one row per layer with its share of the serial run.
fn print_ledger(values: &[(&'static str, f64)], opts: &RunOptions, passes: usize) {
    let get = |n: &str| values.iter().find(|(k, _)| *k == n).map_or(0.0, |p| p.1);
    let serial = get("pipeline.serial_s");
    println!("layer ledger (medians of {passes} passes; serial run {serial:.4} s)");
    for (share_metric, _, on_path) in ledger_rows(opts) {
        let row = share_metric.trim_end_matches(".share");
        let share = get(share_metric);
        let note = if on_path { "" } else { "  (off the serial path)" };
        println!("  {row:<20} {:>9.4} s  {:>6.1}%{note}", share * serial, share * 100.0);
    }
    let ratio = get("pipeline.reconcile_ratio");
    println!(
        "  layer sum {:.4} s, unattributed {:.4} s, reconcile ratio {ratio:.3}{}",
        get("pipeline.layer_sum_s"),
        get("pipeline.unattributed_s"),
        if (ratio - 1.0).abs() > RECONCILE_TOLERANCE {
            "  FLAG: layers and run differ by more than 10%"
        } else {
            ""
        }
    );
    println!(
        "  pass {:.4} s, of which {:.4} s outside every layer span",
        get("trace.pass_s"),
        get("trace.overhead_s")
    );
}
