//! The §5.8 complexity observation: routing cost grows with design
//! size and congestion (the number of candidate paths, i.e. bends,
//! explodes on bad placements). The bench sweeps random network sizes
//! through the full pipeline, then pushes big-N generated workloads —
//! 10³ modules routed, 10⁴–10⁵ parsed — through the memory-governed
//! ingestion path and records the points in `BENCH_scaling.json` at
//! the repository root.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use netart::obs::Json;
use netart::Generator;
use netart_bench::{governed_text_network, life_auto_generator, write_bench_json};
use netart_govern::MemBudget;
use netart_workloads::text;
use netart_workloads::{random_network, RandomSpec};

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling");
    g.sample_size(10);
    for (modules, nets) in [(8, 12), (16, 24), (24, 40), (32, 56)] {
        let spec = RandomSpec::new(modules, nets).with_seed(7).with_max_fanout(3);
        // Summary line per size (completion should stay high).
        let network = random_network(&spec);
        let out = life_auto_generator().generate(network);
        eprintln!(
            "{modules} modules: routed {}/{} (place {:?}, route {:?})",
            out.report.routed.len(),
            out.report.routed.len() + out.report.failed.len(),
            out.place_time,
            out.route_time
        );
        g.bench_with_input(
            BenchmarkId::new("generate", modules),
            &spec,
            |b, spec| b.iter(|| life_auto_generator().generate(random_network(spec))),
        );
    }
    g.finish();
}

/// One measured point of the big-N sweep.
fn scaling_point(workload: &text::TextWorkload, route: bool) -> Json {
    let budget = Arc::new(MemBudget::unlimited());
    let t = Instant::now();
    let network = governed_text_network(workload, &budget);
    let parse_s = t.elapsed().as_secs_f64();
    let mut row = Json::obj();
    row.set("workload", Json::Str(workload.name.clone()));
    row.set("modules", Json::Uint(network.module_count() as u64));
    row.set("nets", Json::Uint(network.net_count() as u64));
    row.set("generated_bytes", Json::Uint(workload.total_bytes()));
    row.set("budget_charged_bytes", Json::Uint(budget.used()));
    row.set("parse_s", Json::Float(parse_s));
    if route {
        let out = Generator::new().generate(network);
        row.set("place_s", Json::Float(out.place_time.as_secs_f64()));
        row.set("route_s", Json::Float(out.route_time.as_secs_f64()));
        row.set("routed", Json::Uint(out.report.routed.len() as u64));
        row.set(
            "failed",
            Json::Uint(out.report.failed.len() as u64),
        );
    } else {
        row.set("place_s", Json::Null);
        row.set("route_s", Json::Null);
    }
    row
}

/// Big-N governed-ingestion sweep. Criterion times the parse at 10³
/// and 10⁴ modules; the full-pipeline points (routing included, too
/// slow for repeated sampling past 10³) are measured once each and
/// written to `BENCH_scaling.json`.
fn bench_big_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_governed_parse");
    g.sample_size(10);
    for (rows, cols) in [(25, 40), (100, 100)] {
        let w = text::cell_array(rows, cols);
        let modules = w.module_count();
        g.bench_with_input(BenchmarkId::new("parse", modules), &w, |b, w| {
            b.iter(|| governed_text_network(w, &Arc::new(MemBudget::unlimited())))
        });
    }
    g.finish();

    let points = vec![
        scaling_point(&text::cell_array(10, 25), true),
        scaling_point(&text::cell_array(25, 40), true),
        scaling_point(&text::random_hierarchy(1000, 7), true),
        scaling_point(&text::cell_array(100, 100), false),
        scaling_point(&text::cell_array(316, 317), false),
    ];
    let mut json = Json::obj();
    json.set("rows", Json::Arr(points));
    match write_bench_json("scaling", &json) {
        Ok(path) => eprintln!("scaling: wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_scaling.json: {e}"),
    }
}

criterion_group!(benches, bench_scaling, bench_big_n);
criterion_main!(benches);
