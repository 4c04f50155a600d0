//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is named here with its unit, in the
//! order `BENCHMARK.json` lists it; a run that produces a different set
//! of names is a bug in the benchmark, and the tests hold the catalogue
//! and `BENCHMARK.json` to the same list.

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("serial_pps", "pkt/s"),
    ("sharded_pps", "pkt/s"),
    ("durable_pps", "pkt/s"),
    ("replay_pps", "pkt/s"),
    ("log_bytes_per_pkt", "B/pkt"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("simnet.scenario.build_s", "s"),
    ("setup.vantage_s", "s"),
    ("simnet.mux.ns_per_pkt", "ns/pkt"),
    ("simnet.mux.packets", "count"),
    ("simnet.faults.ns_per_pkt", "ns/pkt"),
    ("simnet.faults.delivered_ratio", "ratio"),
    ("simnet.ring.ns_per_pkt", "ns/pkt"),
    ("simnet.ring.full_waits", "count"),
    ("telescope.capture.ns_per_pkt", "ns/pkt"),
    ("telescope.capture.flush_s", "s"),
    ("telescope.capture.scan_ratio", "ratio"),
    ("telescope.capture.events", "count"),
    ("telescope.daily.ns_per_pkt", "ns/pkt"),
    ("flow.merit.ns_per_pkt", "ns/pkt"),
    ("flow.cu.ns_per_pkt", "ns/pkt"),
    ("flow.merit.records", "count"),
    ("flow.cu.records", "count"),
    ("flow.merit.accepted_ratio", "ratio"),
    ("flow.finish_s", "s"),
    ("flow.v9.ns_per_record", "ns/record"),
    ("intel.greynoise.ns_per_pkt", "ns/pkt"),
    ("intel.greynoise.accepted_ratio", "ratio"),
    ("intel.greynoise.finalize_s", "s"),
    ("core.detector.ns_per_event", "ns/event"),
    ("core.detector.finalize_s", "s"),
    ("core.detector.events", "count"),
    ("core.detector.hitters_d1", "count"),
    ("core.detector.hitters_d2", "count"),
    ("core.detector.hitters_d3", "count"),
    ("pipeline.serial_s", "s"),
    ("pipeline.fingerprint_s", "s"),
    ("pipeline.layer_sum_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("pipeline.reconcile_ratio", "ratio"),
    ("setup.share", "ratio"),
    ("simnet.mux.share", "ratio"),
    ("simnet.faults.share", "ratio"),
    ("telescope.capture.share", "ratio"),
    ("telescope.daily.share", "ratio"),
    ("flow.merit.share", "ratio"),
    ("flow.cu.share", "ratio"),
    ("flow.finish.share", "ratio"),
    ("flow.v9.share", "ratio"),
    ("intel.greynoise.share", "ratio"),
    ("core.detector.share", "ratio"),
    ("wal.record.encode_ns_per_frame", "ns/frame"),
    ("wal.record.decode_ns_per_frame", "ns/frame"),
    ("wal.writer.append_ns_per_frame", "ns/frame"),
    ("wal.writer.commit_s", "s"),
    ("wal.writer.commits", "count"),
    ("wal.recover.scan_ns_per_frame", "ns/frame"),
    ("mem.mux.peak_bytes", "B"),
    ("mem.telescope.peak_bytes", "B"),
    ("mem.flow.peak_bytes", "B"),
    ("mem.detectors.peak_bytes", "B"),
    ("mem.merge.peak_bytes", "B"),
    ("mem.wal.peak_bytes", "B"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The result line's content.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Did every attempted run pass its output check?
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Attach units from `catalogue` to `values`, which must name every
    /// catalogue entry exactly once.
    pub fn new(
        catalogue: &[(&'static str, &'static str)],
        attempted: u64,
        failed: u64,
        values: &[(&str, f64)],
    ) -> Outcome {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let hits: Vec<f64> =
                    values.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v).collect();
                assert_eq!(hits.len(), 1, "metric {name} must be measured exactly once");
                (name, unit, hits[0])
            })
            .collect();
        assert_eq!(values.len(), catalogue.len(), "a measured metric is not in the catalogue");
        Outcome { correct: failed == 0 && attempted > 0, attempted, failed, metrics }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                // Non-finite values are not JSON; they only arise when a
                // run measured nothing, which `correct` already reports.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric_and_unit() {
        let o = Outcome::new(&END_TO_END[..2], 3, 0, &[("serial_pps", 1.5e6), ("setup_s", 0.25)]);
        let json = o.to_json();
        let parsed = ah_trace::check::parse_json(&json).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&ah_trace::check::Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_num()), Some(3.0));
        let m = parsed.get("metrics").expect("metrics");
        let setup = m.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(|v| v.as_num()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        let pps = m.get("serial_pps").expect("serial_pps");
        assert_eq!(pps.get("unit").and_then(|v| v.as_str()), Some("pkt/s"));
    }

    #[test]
    fn failed_runs_make_the_result_incorrect() {
        assert!(!Outcome::new(&END_TO_END[..1], 4, 1, &[("setup_s", 1.0)]).correct);
        assert!(!Outcome::new(&END_TO_END[..1], 0, 0, &[("setup_s", 1.0)]).correct);
    }

    #[test]
    #[should_panic(expected = "measured exactly once")]
    fn a_missing_metric_is_a_bug() {
        Outcome::new(&END_TO_END[..2], 1, 0, &[("setup_s", 1.0)]);
    }
}
