//! The benchmark's workloads and the vantage stack built from public
//! constructors.
//!
//! A workload is a scenario plus the run options the pipeline receives.
//! Only the seed comes from the command line; the program never sees
//! anything but the generated [`ScenarioConfig`]. One run of the
//! benchmark covers several scenarios, [`Workload::nth`] of the seed, so
//! its medians do not hang on one draw of the scanner population.

use aggressive_scanners::flow::router::{IspConfig, IspModel};
use aggressive_scanners::intel::greynoise::{GreyNoise, PayloadHint};
use aggressive_scanners::net::ipv4::Ipv4Addr4;
use aggressive_scanners::net::prefix::PrefixSet;
use aggressive_scanners::pipeline::RunOptions;
use aggressive_scanners::simnet::faults::FaultPlan;
use aggressive_scanners::simnet::rng::hash64;
use aggressive_scanners::simnet::scenario::{Scenario, ScenarioConfig, Year};
use aggressive_scanners::simnet::world::World;
use aggressive_scanners::telescope::capture::Telescope;
use std::collections::HashSet;

/// Fault rate of the `vantage` workload's uniform fault plan.
pub const FAULT_RATE: f64 = 0.01;

/// One named workload at one size and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Which input.
    pub kind: Kind,
    /// Simulated days.
    pub days: u64,
    /// Scenario and fault-plan seed.
    pub seed: u64,
}

/// The workload inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Year-2022 telescope traffic only: capture → darknet events → D1–D3.
    Darknet,
    /// The miniature world with Merit and CU benign traffic, every
    /// vantage point and 1% uniform faults.
    Vantage,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 2] = [Kind::Darknet, Kind::Vantage];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Darknet => "darknet",
            Kind::Vantage => "vantage",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Simulated days of a benchmark run.
    pub fn default_days(self) -> u64 {
        match self {
            Kind::Darknet => 1,
            Kind::Vantage => 2,
        }
    }
}

impl Workload {
    /// The workload at its benchmark size.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        Workload { kind, days: kind.default_days(), seed }
    }

    /// The `i`-th scenario of this workload's seed: the seed itself for
    /// `i == 0`, a hash of seed and index otherwise.
    pub fn nth(&self, i: u64) -> Workload {
        let seed = if i == 0 { self.seed } else { hash64(self.seed ^ hash64(i)) };
        Workload { seed, ..*self }
    }

    /// The scenario the program receives.
    pub fn scenario(&self) -> ScenarioConfig {
        match self.kind {
            Kind::Darknet => ScenarioConfig::darknet(Year::Y2022, self.days, self.seed),
            Kind::Vantage => ScenarioConfig::tiny(self.days, self.seed),
        }
    }

    /// The run options the program receives.
    pub fn options(&self) -> RunOptions {
        match self.kind {
            Kind::Darknet => RunOptions::darknet_only(),
            Kind::Vantage => RunOptions::full().with_faults(self.fault_plan()),
        }
    }

    /// The fault plan of the `vantage` workload. The traced pass also
    /// times it off the path on `darknet`, which runs clean.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::uniform(FAULT_RATE, self.seed)
    }
}

/// The vantage objects a run builds before its first packet, made
/// through the layer crates' public constructors with the settings
/// `pipeline` uses.
pub struct Vantage {
    /// The darknet telescope with the operational bogon filter.
    pub telescope: Telescope,
    /// Merit's three border routers, when the options enable them.
    pub merit: Option<IspModel>,
    /// CU's single border router, when enabled.
    pub cu: Option<IspModel>,
    /// The honeypot fleet with its vetted benign set, when enabled.
    pub greynoise: Option<GreyNoise>,
}

impl Vantage {
    /// Build the vantage objects `opts` enables for `world`.
    pub fn build(world: &World, opts: &RunOptions) -> Vantage {
        let telescope = Telescope::with_source_filter(
            world.config.dark,
            aggressive_scanners::telescope::timeout::paper_default(),
            bogon_filter(),
        );
        let merit = opts.merit_isp.then(|| {
            IspModel::new(IspConfig {
                internal: world.merit_internal(),
                policy: Box::new(world.merit_policy()),
                routers: vec![1, 2, 3],
                sampling_rate: opts.sampling_rate,
            })
        });
        let cu = opts.cu_isp.then(|| {
            IspModel::new(IspConfig::with_prefix_routes(
                world.cu_internal(),
                vec![],
                1,
                vec![1],
                opts.sampling_rate,
            ))
        });
        Vantage { telescope, merit, cu, greynoise: opts.greynoise.then(|| greynoise(world)) }
    }
}

/// Build the scenario and the vantage objects, as a run does before
/// its first packet; `setup_s` times exactly this.
pub fn setup(w: &Workload) -> (Scenario, Vantage) {
    let sc = Scenario::build(w.scenario());
    let v = Vantage::build(&sc.world, &w.options());
    (sc, v)
}

/// The telescope's source filter: the bogons that cannot collide with
/// the synthetic address plan.
fn bogon_filter() -> PrefixSet {
    PrefixSet::from_prefixes(
        ["0.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16", "224.0.0.0/4", "240.0.0.0/4"]
            .iter()
            .map(|p| p.parse().expect("static prefix literal")),
    )
}

/// The honeypot fleet, vetting the acknowledged organisations' hosts.
fn greynoise(world: &World) -> GreyNoise {
    let acked = world.acked_list(64);
    let rdns = world.rdns(64);
    let mut vetted: HashSet<Ipv4Addr4> = HashSet::new();
    for org in world.orgs.iter().filter(|o| o.is_acked()) {
        for i in 0..64.min(org.size()) {
            let Some(ip) = org.host(i) else { continue };
            if acked.matches(ip, &rdns).is_some() {
                vetted.insert(ip);
            }
        }
    }
    GreyNoise::new(world.sensor_set(), vetted)
}

/// Payload evidence the pipeline hands the honeypot tagger: a pure
/// hash of the source for web ports.
pub fn payload_hint(src: Ipv4Addr4, dst_port: Option<u16>) -> PayloadHint {
    match dst_port {
        Some(80) | Some(8080) | Some(443) => match hash64(u64::from(src.to_u32())) % 12 {
            0 => PayloadHint::GoHttp,
            1 => PayloadHint::PythonRequests,
            2 => PayloadHint::HttpReferer,
            _ => PayloadHint::None,
        },
        _ => PayloadHint::None,
    }
}
