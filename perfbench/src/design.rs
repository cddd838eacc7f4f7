//! The in-process design workloads: inputs on disk, read and doctored
//! the way `netart` reads them, placed and routed by the library, and
//! emitted as checked ESCHER plus SVG.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netart::diagram::{escher, svg, CheckReport, Diagram};
use netart::netlist::doctor::{self, InputPolicy};
use netart::netlist::ingest::{self, Record};
use netart::netlist::{Library, Network};
use netart::obs::{Json, TraceBuffer};
use netart::place::Pablo;
use netart::route::{Eureka, RouteReport};
use netart::{Degradation, Generator, Outcome};
use netart_govern::MemBudget;
use netart_workloads::text::{TextWorkload, WorkloadPaths};
use tracing::{span, Level};

use crate::{rss, spans, stats};

/// A design workload's inputs, written to disk and ready to read.
pub struct Inputs {
    /// The workload's name, used as the diagram name.
    pub name: String,
    /// Where the files are.
    pub paths: WorkloadPaths,
    /// The module library, loaded once.
    pub library: Library,
    /// Modules the call file declares.
    pub modules: usize,
    /// Nets the net-list declares.
    pub nets: usize,
}

/// Streams one record file under `budget`.
fn read_records(
    path: &Path,
    budget: &MemBudget,
    stage: &'static str,
) -> Result<Vec<Record>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ingest::read_records(BufReader::new(file), budget, stage)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Set-up: writes the workload's files under `dir` and loads its
/// module library from them.
pub fn set_up(w: &TextWorkload, dir: &Path) -> Result<Inputs, String> {
    let paths = w
        .write_to(dir)
        .map_err(|e| format!("writing {}: {e}", dir.display()))?;
    let budget = MemBudget::unlimited();
    let mut library = Library::new();
    for (stem, _) in &w.modules {
        let path = paths.lib.join(format!("{stem}.qto"));
        let records = read_records(&path, &budget, "module file")?;
        let (template, _) = doctor::doctor_module_records(records, InputPolicy::Strict)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        library
            .add_template(template)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut nets: Vec<&str> = w
        .net
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    nets.sort_unstable();
    nets.dedup();
    Ok(Inputs {
        name: w.name.clone(),
        paths,
        library,
        modules: w.module_count(),
        nets: nets.len(),
    })
}

/// The netlist layer: the three record files streamed under an input
/// budget, then the doctor building the network under
/// `network_budget` (the order `netart` uses: input charges are
/// released once the doctor has consumed the records).
pub fn read_network(inputs: &Inputs, network_budget: &Arc<MemBudget>) -> Result<Network, String> {
    let input = MemBudget::unlimited();
    let p = &inputs.paths;
    let net = read_records(&p.net, &input, "net-list file")?;
    let cal = read_records(&p.cal, &input, "call file")?;
    let io = match &p.io {
        Some(path) => Some(read_records(path, &input, "io file")?),
        None => None,
    };
    let (network, report) = doctor::doctor_network_records(
        inputs.library.clone(),
        net,
        cal,
        io,
        InputPolicy::Strict,
        network_budget,
    )
    .map_err(|e| format!("doctor rejected {}: {e}", inputs.name))?;
    if !report.diagnostics.is_empty() {
        return Err(format!(
            "doctor found {} defect(s) in generated input {}",
            report.diagnostics.len(),
            inputs.name
        ));
    }
    if network.module_count() != inputs.modules || network.net_count() != inputs.nets {
        return Err(format!(
            "{}: network has {} modules and {} nets, the input declares {} and {}",
            inputs.name,
            network.module_count(),
            network.net_count(),
            inputs.modules,
            inputs.nets
        ));
    }
    Ok(network)
}

/// The emitted artwork.
#[derive(PartialEq, Eq)]
pub struct Emitted {
    /// ESCHER text.
    pub escher: String,
    /// SVG text.
    pub svg: String,
}

/// Checked emit, as `netart` does it: the ESCHER text must parse back
/// before it counts as written.
fn emit(name: &str, diagram: &Diagram) -> Result<Emitted, String> {
    let escher = escher::write_diagram(name, diagram);
    escher::parse_diagram(diagram.network().clone(), &escher)
        .map_err(|e| format!("emitted ESCHER does not re-parse: {e}"))?;
    Ok(Emitted {
        escher,
        svg: svg::render_with_structure(diagram),
    })
}

/// The counts the determinism guard compares between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Nets in the network.
    pub nets: usize,
    /// Nets routed.
    pub routed: usize,
    /// Search nodes expanded over all nets and passes.
    pub nodes_expanded: u64,
    /// Bends over all routed nets.
    pub total_bends: u64,
    /// Crossovers between nets.
    pub crossovers: u64,
    /// Wire length over all routed nets.
    pub total_length: u64,
    /// Placement bounding-box area.
    pub bounding_area: u64,
    /// Length of the ESCHER text.
    pub escher_bytes: usize,
}

impl Counts {
    /// The counts as a JSON object.
    pub fn to_json(self) -> Json {
        Json::obj()
            .with("nets", self.nets)
            .with("routed", self.routed)
            .with("nodes_expanded", self.nodes_expanded)
            .with("total_bends", self.total_bends)
            .with("crossovers", self.crossovers)
            .with("total_length", self.total_length)
            .with("bounding_area", self.bounding_area)
            .with("escher_bytes", self.escher_bytes)
    }
}

/// Checks one finished design: `verdict` (its `Diagram::check`) is
/// clean, the ESCHER text re-parses into a diagram with the same
/// metrics, and the SVG is a whole document. Returns the design's counts.
pub fn check(
    diagram: &Diagram,
    verdict: &CheckReport,
    report: &RouteReport,
    out: &Emitted,
) -> Result<Counts, String> {
    if !verdict.is_ok() {
        return Err(format!("diagram check failed: {verdict}"));
    }
    let metrics = diagram.metrics();
    let reparsed = escher::parse_diagram(diagram.network().clone(), &out.escher)
        .map_err(|e| format!("ESCHER does not re-parse: {e}"))?;
    if reparsed.metrics() != metrics {
        return Err(format!(
            "re-parsed ESCHER has metrics {:?}, the diagram {:?}",
            reparsed.metrics(),
            metrics
        ));
    }
    if !out.svg.starts_with("<svg") || !out.svg.trim_end().ends_with("</svg>") {
        return Err("SVG is not a whole document".to_owned());
    }
    Ok(Counts {
        nets: diagram.network().net_count(),
        routed: report.routed.len(),
        nodes_expanded: report.net_stats.iter().map(|s| s.nodes_expanded).sum(),
        total_bends: metrics.total_bends,
        crossovers: metrics.crossovers,
        total_length: metrics.total_length,
        bounding_area: metrics.bounding_area,
        escher_bytes: out.escher.len(),
    })
}

/// One untraced design: doctor, `Generator::generate` and checked emit,
/// timed. The caller checks the result after the clock stops.
/// `Generator::generate` turns a panic in the placer or the router into
/// a degradation; either fails the design here.
pub fn run_design(
    inputs: &Inputs,
    generator: &Generator,
) -> Result<(Duration, Outcome, Emitted), String> {
    let t = Instant::now();
    let network = read_network(inputs, &Arc::new(MemBudget::unlimited()))?;
    let outcome = generator.generate(network);
    let out = emit(&inputs.name, &outcome.diagram)?;
    let wall = t.elapsed();
    for d in &outcome.degradations {
        if let Degradation::PlacementRecovered(msg) | Degradation::RoutingAborted(msg) = d {
            return Err(format!("pipeline recovered from a panic: {msg}"));
        }
    }
    Ok((wall, outcome, out))
}

/// One untraced parse (the netlist layer alone). Returns its wall time
/// and the bytes the network budget was charged.
pub fn run_parse(inputs: &Inputs) -> Result<(Duration, u64), String> {
    let budget = Arc::new(MemBudget::unlimited());
    let t = Instant::now();
    let network = read_network(inputs, &budget)?;
    let wall = t.elapsed();
    drop(network);
    Ok((wall, budget.used()))
}

/// Per-layer figures of one traced design, by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One traced design: each layer's public entry point is called in
/// turn inside a span of the benchmark's own, while the installed
/// subscriber also records the spans the program emits. Nothing here
/// catches a panic of the placer or the router, so the caller's
/// `guarded` counts it as a failure. `buffer` is
/// that subscriber's buffer. Returns the traced total (the layers the
/// untraced run times), the per-layer figures and the counts (absent
/// for a parse-only workload).
pub fn run_traced(
    inputs: &Inputs,
    generator: Option<&Generator>,
    buffer: &TraceBuffer,
) -> Result<(f64, LayerMetrics, Option<Counts>), String> {
    let first_event = buffer.len();
    let budget = Arc::new(MemBudget::unlimited());
    let hwm_before = rss::vm_hwm_mb(None)?;
    let network = span!(Level::INFO, "bench.netlist").in_scope(|| read_network(inputs, &budget))?;
    let hwm_after = rss::vm_hwm_mb(None)?;
    let mut m = LayerMetrics::new();
    let charged_mb = budget.used() as f64 / (1024.0 * 1024.0);
    m.insert("netlist.rss_growth_mb", hwm_after - hwm_before);
    m.insert("netlist.charged_mb", charged_mb);
    m.insert(
        "govern.charge_ratio",
        if hwm_after > hwm_before {
            charged_mb / (hwm_after - hwm_before)
        } else {
            0.0
        },
    );

    let counts = match generator {
        None => {
            drop(network);
            None
        }
        Some(g) => {
            let placement = span!(Level::INFO, "bench.place")
                .in_scope(|| Pablo::new(g.placing().clone()).place(&network));
            let mut diagram = Diagram::new(network, placement);
            let report = span!(Level::INFO, "bench.route")
                .in_scope(|| Eureka::new(g.routing().clone()).route(&mut diagram));
            span!(Level::INFO, "bench.diagram.metrics").in_scope(|| diagram.metrics());
            let escher = span!(Level::INFO, "bench.diagram.escher")
                .in_scope(|| escher::write_diagram(&inputs.name, &diagram));
            span!(Level::INFO, "bench.diagram.reparse")
                .in_scope(|| escher::parse_diagram(diagram.network().clone(), &escher))
                .map_err(|e| format!("emitted ESCHER does not re-parse: {e}"))?;
            let svg = span!(Level::INFO, "bench.diagram.svg")
                .in_scope(|| svg::render_with_structure(&diagram));
            let verdict = span!(Level::INFO, "bench.diagram.check").in_scope(|| diagram.check());
            let counts = check(&diagram, &verdict, &report, &Emitted { escher, svg })?;
            route_counts(fates(&report), &mut m);
            Some(counts)
        }
    };

    let spans = spans::build(&events_since(buffer, first_event)?)?;
    let t = spans::times_by_name(&spans);
    let secs = |name: &str| t.get(name).map_or(0.0, |x| x.total_us / 1e6);
    let self_secs = |name: &str| t.get(name).map_or(0.0, |x| x.self_us / 1e6);
    let doctor_s = secs("bench.netlist");
    m.insert("netlist.doctor_s", doctor_s);
    m.insert("netlist.modules_per_s", inputs.modules as f64 / doctor_s);
    m.insert("place.pablo_s", secs("bench.place"));
    for (metric, span) in [
        ("place.partition_s", "pablo.partition"),
        ("place.module_place_s", "pablo.module_place"),
        ("place.cluster_s", "pablo.cluster"),
        ("place.gravity_s", "pablo.gravity"),
        ("place.terminal_place_s", "pablo.terminal_place"),
    ] {
        m.insert(metric, self_secs(span));
    }
    m.insert(
        "place.gravity_calls",
        t.get("pablo.gravity").map_or(0, |x| x.count) as f64,
    );
    let eureka_s = secs("bench.route");
    m.insert("route.eureka_s", eureka_s);
    m.insert("route.first_pass_s", secs("eureka.net"));
    m.insert("route.retry_s", secs("eureka.retry"));
    m.insert("route.salvage_s", secs("eureka.salvage"));
    let per_net_ms: Vec<f64> = spans::durations(&spans, "eureka.net")
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    for (metric, p) in [
        ("route.net_p50_ms", 50.0),
        ("route.net_p99_ms", 99.0),
        ("route.net_max_ms", 100.0),
    ] {
        m.insert(metric, stats::percentile(&per_net_ms, p).unwrap_or(0.0));
    }
    let nodes = counts.map_or(0, |c| c.nodes_expanded);
    m.insert(
        "route.us_per_expansion",
        if nodes > 0 {
            eureka_s * 1e6 / nodes as f64
        } else {
            0.0
        },
    );
    m.insert("diagram.escher_s", secs("bench.diagram.escher"));
    m.insert("diagram.svg_s", secs("bench.diagram.svg"));
    m.insert("diagram.check_s", secs("bench.diagram.check"));
    m.insert("diagram.metrics_s", secs("bench.diagram.metrics"));
    if let Some(c) = counts {
        m.insert("diagram.escher_bytes", c.escher_bytes as f64);
        m.insert("place.bounding_area", c.bounding_area as f64);
        m.insert("route.nodes_expanded", c.nodes_expanded as f64);
    }
    // The layers the untraced run times: everything but the check.
    let total = [
        "bench.netlist",
        "bench.place",
        "bench.route",
        "bench.diagram.metrics",
    ]
    .iter()
    .chain(&[
        "bench.diagram.escher",
        "bench.diagram.reparse",
        "bench.diagram.svg",
    ])
    .map(|name| secs(name))
    .sum();
    Ok((total, m, counts))
}

/// What the route figures need to know of one net's routing.
pub struct NetFate<'a> {
    /// Routed in the end.
    pub routed: bool,
    /// Carried a complete preroute, so never attempted.
    pub prerouted: bool,
    /// Needed the claim-lift retry pass.
    pub retried: bool,
    /// Some pass ended on a budget breach.
    pub over_budget: bool,
    /// The salvage step that settled it (`SalvageStep::as_str`).
    pub salvage: Option<&'a str>,
}

/// The fates of the nets of one routing report.
pub fn fates(report: &RouteReport) -> impl Iterator<Item = NetFate<'static>> + '_ {
    report.net_stats.iter().map(|s| NetFate {
        routed: s.routed,
        prerouted: s.prerouted,
        retried: s.retried,
        over_budget: s.over_budget,
        salvage: s.salvage.map(|step| step.as_str()),
    })
}

/// Yield and count figures over the nets of one or more designs.
pub fn route_counts<'a>(nets: impl IntoIterator<Item = NetFate<'a>>, m: &mut LayerMetrics) {
    let mut c = [0usize; 8];
    for n in nets {
        let salvage = |step| n.salvage == Some(step);
        let flags = [
            !n.prerouted,
            n.routed && !n.prerouted && !n.retried && n.salvage.is_none(),
            n.retried,
            n.salvage.is_some(),
            n.routed && n.salvage.is_some(),
            salvage("lee_fallback"),
            salvage("ghost_wire"),
            n.over_budget,
        ];
        for (count, flag) in c.iter_mut().zip(flags) {
            *count += usize::from(flag);
        }
    }
    let [attempted, first_pass, retried, salvaged, salvage_routed, lee, ghosts, over] = c;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.insert("route.first_pass_yield", ratio(first_pass, attempted));
    m.insert("route.retried_nets", retried as f64);
    m.insert("route.salvaged_nets", salvaged as f64);
    m.insert("route.salvage_yield", ratio(salvage_routed, salvaged));
    m.insert("route.lee_fallbacks", lee as f64);
    m.insert("route.ghost_wires", ghosts as f64);
    m.insert("route.over_budget_nets", over as f64);
}

/// The begin/end events recorded since event index `from`.
fn events_since(buffer: &TraceBuffer, from: usize) -> Result<Vec<spans::Event>, String> {
    let json = buffer.to_json();
    let all = json.as_arr().ok_or("trace buffer is not an array")?;
    all.iter()
        .skip(from)
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .and_then(|s| s.chars().next());
            let ts = e.get("ts").and_then(Json::as_f64);
            let tid = e.get("tid").and_then(Json::as_u64);
            match (name, ph, ts, tid) {
                (Some(name), Some(ph), Some(ts_us), Some(tid)) => Ok(spans::Event {
                    name: name.to_owned(),
                    ph,
                    ts_us,
                    tid,
                }),
                _ => Err(format!("malformed trace event {}", e.render())),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fate(routed: bool, retried: bool, salvage: Option<&str>) -> NetFate<'_> {
        NetFate {
            routed,
            prerouted: false,
            retried,
            over_budget: false,
            salvage,
        }
    }

    #[test]
    fn route_counts_split_first_pass_retry_and_salvage() {
        let mut m = LayerMetrics::new();
        let prerouted = NetFate {
            prerouted: true,
            ..fate(true, false, None)
        };
        route_counts(
            [
                fate(true, false, None),
                fate(true, false, None),
                fate(true, true, None),
                fate(true, true, Some("lee_fallback")),
                fate(false, true, Some("ghost_wire")),
                prerouted,
            ],
            &mut m,
        );
        assert_eq!(m["route.first_pass_yield"], 2.0 / 5.0);
        assert_eq!(m["route.retried_nets"], 3.0);
        assert_eq!(m["route.salvaged_nets"], 2.0);
        assert_eq!(m["route.salvage_yield"], 0.5);
        assert_eq!(m["route.lee_fallbacks"], 1.0);
        assert_eq!(m["route.ghost_wires"], 1.0);
        assert_eq!(m["route.over_budget_nets"], 0.0);
    }
}
