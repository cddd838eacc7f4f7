//! `serve_mixed`: the real `netart serve` binary driven over HTTP by an
//! open-loop client in this process.
//!
//! Designs are drawn with the seed from `text::random_hierarchy` and
//! `text::cell_array` at 20–80 modules, all on the one `cell` template;
//! about a quarter of requests repeat a recent design, so the
//! content-addressed cache answers them. Requests arrive as a Poisson
//! stream at fixed rates: `light`, `heavy`, then the rungs of a fixed
//! ladder above them until one misses the latency limit. At most
//! `nproc` requests are in flight, and never more than the server's
//! queue holds. Then a fixed probe of designs goes to the idle server
//! one at a time, for `wall_s`. Responses are checked after the timed
//! window, so checking takes no CPU from the server.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netart::diagram::escher;
use netart::netlist::doctor::{self, InputPolicy};
use netart::netlist::Library;
use netart::obs::{CacheOutcome, Json, RunReport, ServeReport};
use netart_workloads::text::{self, TextWorkload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::schedule::{self, Lag, OpenLoop, Timing};
use crate::{design, guarded, repeat_set_up, rss, stats, Args, Report};

/// The two fixed rates, requests per second. Measured once against
/// this server (default 2 workers) on a 2-core machine, where it
/// saturates near 20 requests/s on this mix: `light` is a quarter of
/// that, so latency is mostly service time; `heavy` is about 60%.
const LIGHT_RPS: f64 = 5.0;
const HEAVY_RPS: f64 = 12.0;
/// The server's admission limits, passed to it explicitly: the
/// defaults of `netart serve` when the rates were measured.
const WORKERS: u32 = 2;
const QUEUE_DEPTH: usize = 4;
/// The ladder `serve_max_rps` climbs; it starts at the fixed rates.
const LADDER_RPS: [f64; 5] = [LIGHT_RPS, HEAVY_RPS, 16.0, 20.0, 24.0];
/// p90 latency a rung must meet to count toward `serve_max_rps`.
const P90_LIMIT_MS: f64 = 1000.0;
/// A rung's backlog grows when its last quarter of requests is sent
/// this much later than its first quarter.
const BACKLOG_TOLERANCE_MS: f64 = 100.0;
/// Requests per rung: enough that p90 has ten samples beyond it.
const MIN_RUNG_REQUESTS: usize = 100;
/// Share of requests that repeat a recent design.
const REPEAT_FRAC: f64 = 0.25;
/// Repeats are drawn from this many most recent distinct designs,
/// skipping the last few scheduled so the original has finished (a
/// repeat of an in-flight design coalesces instead of hitting).
const REPEAT_WINDOW: usize = 16;
const REPEAT_GAP: usize = 4;
/// Client-side bound on one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests not sent this long after the run started fail unsent, so
/// a wedged server cannot hold the run past its time limit.
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// A running `netart serve`, killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server and waits for `/readyz` to answer 200.
    fn start(netart: &Path, lib: &Path, dir: &Path, tag: usize) -> Result<Server, String> {
        let out_path = dir.join(format!("serve{tag}.out"));
        let stdout = File::create(&out_path).map_err(|e| e.to_string())?;
        let stderr =
            File::create(dir.join(format!("serve{tag}.err"))).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let child = Command::new(netart)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--queue-depth", &QUEUE_DEPTH.to_string()])
            .arg("-L")
            .arg(lib)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", netart.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            if Instant::now() > deadline {
                return Err("netart serve did not become ready within 30 s".to_owned());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("netart serve exited early with {status}"));
            }
            if server.addr.port() == 0 {
                let out = std::fs::read_to_string(&out_path).unwrap_or_default();
                if let Some(addr) = out
                    .lines()
                    .find_map(|l| l.strip_prefix("serving on http://"))
                    .and_then(|a| a.trim().parse().ok())
                {
                    server.addr = addr;
                }
            } else if matches!(http(server.addr, "GET", "/readyz", b""), Ok((200, _))) {
                return Ok(server);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn get_json(&self, path: &str) -> Result<Json, String> {
        match http(self.addr, "GET", path, b"")? {
            (200, body) => Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string()),
            (status, _) => Err(format!("GET {path} answered {status}")),
        }
    }

    fn get_text(&self, path: &str) -> Result<String, String> {
        match http(self.addr, "GET", path, b"")? {
            (200, body) => Ok(String::from_utf8_lossy(&body).into_owned()),
            (status, _) => Err(format!("GET {path} answered {status}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes
/// after each response). Returns the status and the body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream.write_all(body).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status line")?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// One design of the mix.
struct Design {
    text: TextWorkload,
    body: String,
}

/// Draws designs: fresh ones are new to this run; a repeat names one
/// of the recent fresh ones.
struct Mix {
    rng: StdRng,
    designs: Vec<Design>,
    /// Content hashes of the designs drawn so far.
    seen: HashMap<u64, usize>,
    /// Design index of every request scheduled so far.
    requests: Vec<usize>,
    /// Fresh designs drawn so far, and the order of the current cycle
    /// (index `2 * (modules - 20) + kind`).
    fresh_count: usize,
    order: Vec<usize>,
}

/// Module counts of the fresh designs.
const SIZES: std::ops::RangeInclusive<usize> = 20..=80;
/// Fresh designs per cycle: a hierarchy and an array of every size.
const CYCLE: usize = 2 * (80 - 20 + 1);
/// Tags of the probe's hierarchies: far above those of the mix, so no
/// probe design is ever a repeat that the cache answers.
const PROBE_TAG: u64 = 1 << 32;

fn content_hash(w: &TextWorkload) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (&w.net, &w.cal, &w.io).hash(&mut h);
    h.finish()
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: StdRng::seed_from_u64(seed),
            designs: Vec::new(),
            seen: HashMap::new(),
            requests: Vec::new(),
            fresh_count: 0,
            order: Vec::new(),
        }
    }

    /// A design new to this run. Fresh designs come from a fixed
    /// sequence of cycles, each holding one hierarchy and one array of
    /// every size in 20..=80 modules; the seed shuffles the order within
    /// each cycle. Every run thus serves the same population of designs
    /// (so latency varies little with the seed) in a seeded order.
    fn fresh(&mut self) -> usize {
        let (cycle, k) = (self.fresh_count / CYCLE, self.fresh_count % CYCLE);
        self.fresh_count += 1;
        if k == 0 {
            self.order = (0..CYCLE).collect();
            self.order.shuffle(&mut self.rng);
        }
        let pick = self.order[k];
        let modules = SIZES.start() + pick / 2;
        let tag = (cycle * 1000 + modules) as u64;
        let mut candidates = [None, Some(text::random_hierarchy(modules, tag))];
        if pick % 2 == 1 {
            let rows = 2 + (modules + cycle) % 7;
            candidates = [
                Some(text::cell_array(rows, (modules + rows / 2) / rows)),
                Some(text::random_hierarchy(modules, tag + 500)),
            ];
        }
        let w = candidates
            .into_iter()
            .flatten()
            .find(|w| !self.seen.contains_key(&content_hash(w)))
            .unwrap_or_else(|| text::random_hierarchy(modules, self.rng.next_u64()));
        self.push(w)
    }

    fn push(&mut self, w: TextWorkload) -> usize {
        let body = Json::obj()
            .with("net", w.net.as_str())
            .with("cal", w.cal.as_str())
            .with("io", w.io.as_str())
            .render();
        self.seen.insert(content_hash(&w), self.designs.len());
        self.designs.push(Design { text: w, body });
        self.designs.len() - 1
    }

    /// The probe `wall_s` is measured on: a hierarchy of every other
    /// size in 20..=80 modules, the same on every run whatever the seed.
    fn probe(&mut self) -> Vec<usize> {
        SIZES
            .step_by(2)
            .map(|m| self.push(text::random_hierarchy(m, PROBE_TAG + m as u64)))
            .collect()
    }

    /// The design of the next request.
    fn next(&mut self) -> usize {
        let settled = self.requests.len().saturating_sub(REPEAT_GAP);
        let mut recent: Vec<usize> = Vec::new();
        for &d in self.requests[..settled].iter().rev() {
            if !recent.contains(&d) {
                recent.push(d);
                if recent.len() == REPEAT_WINDOW {
                    break;
                }
            }
        }
        let d = if !recent.is_empty() && self.rng.gen_bool(REPEAT_FRAC) {
            recent[self.rng.gen_range(0..recent.len())]
        } else {
            self.fresh()
        };
        self.requests.push(d);
        d
    }
}

/// One answered (or failed) request.
struct Answer {
    design: usize,
    timing: Timing,
    result: Result<(u16, Vec<u8>), String>,
}

/// Sends `requests` (design indices) at the due offsets with at most
/// `senders` in flight.
fn drive(
    server: &Server,
    mix: &Mix,
    requests: &[usize],
    due: Vec<Duration>,
    senders: usize,
    deadline: Instant,
) -> Vec<Answer> {
    let schedule = OpenLoop::start(due);
    let answers: Mutex<Vec<Option<Answer>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..senders {
            s.spawn(|| {
                while let Some((i, due)) = schedule.claim() {
                    let sent = schedule::wait_until(due);
                    let design = requests[i];
                    let result = if sent > deadline {
                        Err("not sent: the run passed its deadline".to_owned())
                    } else {
                        http(
                            server.addr,
                            "POST",
                            "/v1/diagram",
                            mix.designs[design].body.as_bytes(),
                        )
                    };
                    let answer = Answer {
                        design,
                        timing: Timing {
                            due,
                            sent,
                            done: Instant::now(),
                        },
                        result,
                    };
                    answers.lock().expect("no sender panics holding the lock")[i] = Some(answer);
                }
            });
        }
    });
    answers
        .into_inner()
        .expect("senders have finished")
        .into_iter()
        .map(|a| a.expect("every claimed request is answered"))
        .collect()
}

/// The result of one rate step.
struct Rung {
    rate: f64,
    answers: Vec<Answer>,
    lag: Lag,
    p50_ms: f64,
    p90_ms: f64,
    /// The highest percentile with ten samples beyond it.
    tail_pct: Option<f64>,
    ok: usize,
    /// `/metrics` and `/stats` before and after, when traced.
    scrapes: Option<[(String, Json); 2]>,
}

impl Rung {
    fn meets_limit(&self) -> bool {
        self.ok == self.answers.len()
            && self.tail_pct.is_some_and(|p| p >= 90.0)
            && self.p90_ms <= P90_LIMIT_MS
            && !self.lag.growing(BACKLOG_TOLERANCE_MS)
    }
}

fn run_rung(
    server: &Server,
    mix: &mut Mix,
    rate: f64,
    count: usize,
    traced: bool,
    deadline: Instant,
) -> Result<Rung, String> {
    let requests: Vec<usize> = (0..count).map(|_| mix.next()).collect();
    let due = schedule::poisson(&mut mix.rng, rate, count);
    // A worker frees its queue slot only when it takes its next job,
    // which may be after its answer has reached the client; so at most
    // QUEUE_DEPTH requests in flight are never shed, however many
    // workers have just answered.
    let senders = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(QUEUE_DEPTH);
    let scrape = || -> Result<(String, Json), String> {
        Ok((server.get_text("/metrics")?, server.get_json("/stats")?))
    };
    let before = if traced { Some(scrape()?) } else { None };
    let answers = drive(server, mix, &requests, due, senders, deadline);
    let after = if traced { Some(scrape()?) } else { None };
    let latencies: Vec<f64> = answers
        .iter()
        .map(|a| a.timing.latency().as_secs_f64() * 1e3)
        .collect();
    let timings: Vec<Timing> = answers.iter().map(|a| a.timing).collect();
    Ok(Rung {
        rate,
        lag: Lag::of(&timings),
        p50_ms: stats::percentile(&latencies, 50.0).unwrap_or(0.0),
        p90_ms: stats::percentile(&latencies, 90.0).unwrap_or(0.0),
        tail_pct: stats::highest_supported(latencies.len(), &[50.0, 90.0, 99.0]),
        ok: answers
            .iter()
            .filter(|a| matches!(a.result, Ok((200, _))))
            .count(),
        answers,
        scrapes: before.zip(after).map(|(b, a)| [b, a]),
    })
}

/// Runs `serve_mixed`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let netart = args.netart.as_deref().ok_or("serve_mixed needs --netart")?;
    let dir = args.work_dir.join("serve");
    let _ = std::fs::remove_dir_all(&dir);
    let lib_w = text::cell_array(1, 1);
    let paths = lib_w.write_to(&dir).map_err(|e| e.to_string())?;
    let library = design::set_up(&lib_w, &dir.join("check"))?.library;

    let (server, setup_s) = repeat_set_up(|i| Server::start(netart, &paths.lib, &dir, i))?;
    report.set("setup_s", setup_s);

    let deadline = Instant::now() + RUN_DEADLINE;
    let mut mix = Mix::new(args.seed);
    let per_rate = |rate: f64, share: f64| {
        ((rate * args.seconds * share).round() as usize).max(MIN_RUNG_REQUESTS)
    };
    let mut rungs: Vec<Rung> = Vec::new();
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        // The fixed rates get most of the time; each rung above them
        // only has to show whether it meets the limit.
        let count = per_rate(rate, if k < 2 { 0.35 } else { 0.0 });
        let rung = run_rung(&server, &mut mix, rate, count, args.trace, deadline)?;
        let meets = rung.meets_limit();
        rungs.push(rung);
        if k == 1 {
            // After the fixed rates, before the ladder's overload.
            report.set("peak_rss_mb", rss::vm_hwm_mb(Some(server.child.id()))?);
        }
        if k >= 1 && !meets {
            break;
        }
    }
    // The probe goes one design at a time to the idle server, so no
    // other job shares the machine with the one it measures.
    let probe = mix.probe();
    let probe = drive(
        &server,
        &mix,
        &probe,
        vec![Duration::ZERO; probe.len()],
        1,
        deadline,
    );
    let final_stats = server.get_json("/stats")?;
    drop(server);

    let served: Vec<_> = rungs.iter().map(|r| parse_answers(&r.answers)).collect();
    let probe_served = parse_answers(&probe);
    summarize(report, &mix, &rungs, &probe_served, &final_stats);
    let answers = rungs.iter().flat_map(|r| &r.answers).chain(&probe);
    check_answers(
        report,
        &mix,
        answers.zip(served.iter().flatten().chain(&probe_served)),
        &library,
    );
    if args.trace {
        layer_metrics(report, &rungs, &served);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Every answer's body as a served report; a non-200, a failed
/// request or a malformed body is an error.
fn parse_answers(answers: &[Answer]) -> Vec<Result<ServeReport, String>> {
    answers
        .iter()
        .map(|a| match &a.result {
            Ok((200, body)) => Json::parse(&String::from_utf8_lossy(body))
                .map_err(|e| e.to_string())
                .and_then(|j| ServeReport::from_json(&j)),
            Ok((status, body)) => Err(format!(
                "answered {status}: {}",
                String::from_utf8_lossy(&body[..body.len().min(200)])
            )),
            Err(e) => Err(format!("request failed: {e}")),
        })
        .collect()
}

/// The run report of an answer the server computed (not a cache hit).
fn computed(served: &Result<ServeReport, String>) -> Option<&RunReport> {
    match served {
        Ok(ServeReport {
            cache: CacheOutcome::Miss,
            report: Some(run),
            ..
        }) => Some(run),
        _ => None,
    }
}

/// End-to-end figures of the run.
fn summarize(
    report: &mut Report,
    mix: &Mix,
    rungs: &[Rung],
    probe: &[Result<ServeReport, String>],
    final_stats: &Json,
) {
    let fixed = &rungs[..2.min(rungs.len())];
    // A design's wall time as the server measured it, from the doctor
    // to the checked emit, over the probe: queueing, the HTTP path and
    // contention with other jobs stay out of it, and the client-observed
    // latencies below carry them.
    let walls: Vec<f64> = probe
        .iter()
        .filter_map(computed)
        .map(|run| run.phases.iter().map(|p| p.wall_ns).sum::<u64>() as f64 / 1e9)
        .collect();
    report.notes.push(format!(
        "wall_s over {} of the {} probe designs computed",
        walls.len(),
        probe.len()
    ));
    report.set("wall_s", stats::median(&walls).unwrap_or(0.0));
    let mut requested = HashSet::new();
    let repeats = mix
        .requests
        .iter()
        .filter(|d| !requested.insert(**d))
        .count();
    report.set(
        "engine.repeat_frac",
        repeats as f64 / mix.requests.len().max(1) as f64,
    );
    for (name, rung) in ["light", "heavy"].iter().zip(fixed) {
        report.set(&format!("serve_{name}_p50_ms"), rung.p50_ms);
        report.set(&format!("serve_{name}_p90_ms"), rung.p90_ms);
    }
    let max_rps = rungs
        .iter()
        .take_while(|r| r.meets_limit())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    report.set("serve_max_rps", max_rps);
    for r in rungs {
        report.notes.push(format!(
            "rate {:>5.1}/s: {} requests, {} ok, p50 {:.1} ms, p90 {:.1} ms (highest supported percentile p{}), lag p50 {:.1} ms (first/last quarter {:.1}/{:.1}), {}",
            r.rate,
            r.answers.len(),
            r.ok,
            r.p50_ms,
            r.p90_ms,
            r.tail_pct.unwrap_or(0.0),
            r.lag.p50_ms,
            r.lag.first_quarter_ms,
            r.lag.last_quarter_ms,
            if r.meets_limit() { "meets the limit" } else { "misses the limit" },
        ));
    }
    report.notes.push(format!(
        "{} distinct designs over {} requests, then the probe; server /stats at the end: {}",
        mix.designs.len() - probe.len(),
        mix.requests.len(),
        final_stats.render()
    ));
}

/// The post-window checks: every answer is a 200 with a well-formed
/// body; every answer for an artifact carries the same ESCHER and SVG
/// as the first; each distinct design's ESCHER re-parses into a diagram
/// that passes its check and has the quality the run report states.
fn check_answers<'a>(
    report: &mut Report,
    mix: &Mix,
    answers: impl Iterator<Item = (&'a Answer, &'a Result<ServeReport, String>)>,
    library: &Library,
) {
    let mut first: BTreeMap<String, (usize, &ServeReport)> = BTreeMap::new();
    let mut design_artifact: HashMap<usize, &str> = HashMap::new();
    for (a, served) in answers {
        report.attempted += 1;
        let served = match served {
            Ok(s) => s,
            Err(e) => {
                report.fail(e.clone());
                continue;
            }
        };
        let panicked = served
            .report
            .iter()
            .flat_map(|run| &run.degradations)
            .find(|d| matches!(d.kind.as_str(), "placement_recovered" | "routing_aborted"));
        if let Some(d) = panicked {
            report.fail(format!(
                "artifact {}: the server recovered from a panic ({})",
                served.artifact, d.kind
            ));
            continue;
        }
        match design_artifact.get(&a.design) {
            Some(artifact) if *artifact != served.artifact => {
                report.fail(format!(
                    "one design answered as artifacts {artifact} and {}",
                    served.artifact
                ));
                continue;
            }
            Some(_) => {}
            None => {
                design_artifact.insert(a.design, &served.artifact);
            }
        }
        match first.get(&served.artifact) {
            Some((_, f)) if f.escher != served.escher || f.svg != served.svg => {
                report.fail(format!(
                    "artifact {} answered with different artwork",
                    served.artifact
                ));
            }
            Some(_) => {}
            None => {
                first.insert(served.artifact.clone(), (a.design, served));
            }
        }
    }
    let (mut nets, mut routed, mut bends, mut crossovers, mut length) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (artifact, (d, served)) in &first {
        let w = &mix.designs[*d].text;
        let verdict = guarded(|| {
            let (network, _) = doctor::doctor_network(
                library.clone(),
                &w.net,
                &w.cal,
                (!w.io.is_empty()).then_some(w.io.as_str()),
                InputPolicy::Strict,
            )
            .map_err(|e| e.to_string())?;
            let diagram =
                escher::parse_diagram(network, &served.escher).map_err(|e| e.to_string())?;
            let check = diagram.check();
            if !check.is_ok() {
                return Err(format!("diagram check failed: {check}"));
            }
            let q = served.report.as_ref().ok_or("no run report")?.quality;
            let m = diagram.metrics();
            if (m.routed_nets, m.total_bends, m.crossovers, m.total_length)
                != (q.routed_nets, q.total_bends, q.crossovers, q.total_length)
            {
                return Err(format!("served ESCHER has metrics {m:?}, its report {q:?}"));
            }
            Ok(m)
        });
        match verdict {
            Ok(m) => {
                nets += (m.routed_nets + m.unrouted_nets) as u64;
                routed += m.routed_nets as u64;
                bends += m.total_bends;
                crossovers += m.crossovers;
                length += m.total_length;
                report.determinism.insert(
                    format!("design.{artifact}"),
                    Json::from(format!(
                        "{} routed, {} bends, {} crossovers, length {}, {} escher bytes",
                        m.routed_nets,
                        m.total_bends,
                        m.crossovers,
                        m.total_length,
                        served.escher.len()
                    )),
                );
            }
            Err(e) => report.fail(format!("artifact {artifact}: {e}")),
        }
    }
    report.set("routed_frac", routed as f64 / nets.max(1) as f64);
    report.set("total_bends", bends as f64);
    report.set("crossovers", crossovers as f64);
    report.set("total_length", length as f64);
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}

/// Per-layer figures from the scrapes around each rung and from the
/// run reports the responses carry.
fn layer_metrics(report: &mut Report, rungs: &[Rung], served: &[Vec<Result<ServeReport, String>>]) {
    let mut hist: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let (mut hits, mut requests, mut coalesced, mut shed) = (0.0, 0.0, 0.0, 0.0);
    for [(m0, s0), (m1, s1)] in rungs.iter().filter_map(|r| r.scrapes.as_ref()) {
        let delta = |k: &str| {
            s1.get(k).and_then(Json::as_f64).unwrap_or(0.0)
                - s0.get(k).and_then(Json::as_f64).unwrap_or(0.0)
        };
        hits += delta("cache_hits");
        requests += delta("requests");
        coalesced += delta("coalesced");
        shed += delta("shed");
        for name in [
            "netart_serve_queue_wait_ns",
            "netart_serve_request_latency_ns",
            "netart_serve_route_wall_ns",
        ] {
            let (b0, b1) = (buckets(m0, name), buckets(m1, name));
            let acc = hist.entry(name).or_insert_with(|| vec![0; 64]);
            for i in 0..64 {
                acc[i] += b1[i].saturating_sub(b0[i]);
            }
        }
    }
    report.set(
        "engine.cache_hit_frac",
        if requests > 0.0 { hits / requests } else { 0.0 },
    );
    report.set("engine.coalesced", coalesced);
    report.set("serve.shed", shed);
    for (metric, name) in [
        ("engine.queue_wait_p50_ms", "netart_serve_queue_wait_ns"),
        (
            "serve.server_latency_p50_ms",
            "netart_serve_request_latency_ns",
        ),
        ("serve.route_wall_p50_ms", "netart_serve_route_wall_ns"),
    ] {
        report.set(
            metric,
            hist.get(name).map_or(0.0, |b| histogram_median(b) / 1e6),
        );
    }
    let lags: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.answers.iter().map(|a| a.timing.lag().as_secs_f64() * 1e3))
        .collect();
    report.set("client.gen_lag_ms", stats::median(&lags).unwrap_or(0.0));

    // Layer figures of the computed (cache-miss) designs.
    let runs: Vec<&RunReport> = served.iter().flatten().filter_map(computed).collect();
    for (metric, phase) in [
        ("netlist.doctor_s", "doctor"),
        ("place.pablo_s", "place"),
        ("route.eureka_s", "route"),
    ] {
        let secs: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.phase_ns(phase))
            .map(|ns| ns as f64 / 1e9)
            .collect();
        report.set(metric, stats::median(&secs).unwrap_or(0.0));
    }
    let mut counts = design::LayerMetrics::new();
    design::route_counts(
        runs.iter()
            .flat_map(|run| &run.nets)
            .map(|n| design::NetFate {
                routed: n.routed,
                prerouted: n.prerouted,
                retried: n.retried,
                over_budget: n.over_budget,
                salvage: n.salvage.as_deref(),
            }),
        &mut counts,
    );
    for (name, value) in counts {
        report.set(name, value);
    }
    let route_ns: u64 = runs.iter().filter_map(|run| run.phase_ns("route")).sum();
    let nodes: u64 = runs
        .iter()
        .flat_map(|run| &run.nets)
        .map(|n| n.nodes_expanded)
        .sum();
    report.set("route.nodes_expanded", nodes as f64);
    report.set(
        "route.us_per_expansion",
        if nodes > 0 {
            route_ns as f64 / 1e3 / nodes as f64
        } else {
            0.0
        },
    );
}

/// The log-2 bucket counts (non-cumulative, 64 of them) of histogram
/// `name` in a Prometheus exposition.
fn buckets(exposition: &str, name: &str) -> Vec<u64> {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut cumulative: Vec<u64> = Vec::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        if rest.starts_with("+Inf") {
            continue;
        }
        if let Some(v) = rest.rsplit(' ').next().and_then(|v| v.parse().ok()) {
            cumulative.push(v);
        }
    }
    let mut out = vec![0u64; 64];
    let mut prev = 0;
    for (i, c) in cumulative.into_iter().enumerate().take(64) {
        out[i] = c.saturating_sub(prev);
        prev = c;
    }
    out
}

/// Median of a log-2 bucketed histogram, interpolated linearly inside
/// the bucket that holds it (bucket `i` spans `[2^i, 2^(i+1))`).
fn histogram_median(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let half = total as f64 / 2.0;
    let mut below = 0.0;
    for (i, &n) in buckets.iter().enumerate() {
        let n = n as f64;
        if below + n >= half && n > 0.0 {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u128 << (i + 1)) as f64;
            return lo + (hi - lo) * (half - below) / n;
        }
        below += n;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_median() {
        let expo = "# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_bucket{le=\"3\"} 0\nh_bucket{le=\"7\"} 2\n\
                    h_bucket{le=\"15\"} 4\nh_bucket{le=\"+Inf\"} 4\nh_sum 30\nh_count 4\n";
        let b = buckets(expo, "h");
        assert_eq!(&b[..4], &[0, 0, 2, 2]);
        // Two samples in [4, 8), two in [8, 16): the median sits at 8.
        assert_eq!(histogram_median(&b), 8.0);
        assert_eq!(histogram_median(&[0; 64]), 0.0);
    }

    #[test]
    fn mix_repeats_about_a_quarter_and_is_seeded() {
        let draw = |seed| {
            let mut mix = Mix::new(seed);
            let reqs: Vec<usize> = (0..400).map(|_| mix.next()).collect();
            (reqs, mix.designs.len())
        };
        let (a, distinct) = draw(5);
        assert_eq!(a, draw(5).0, "same seed, same mix");
        let repeats = a.len() - distinct;
        assert!((70..130).contains(&repeats), "{repeats} repeats of 400");
    }

    #[test]
    fn probe_is_the_same_for_every_seed_and_new_to_the_mix() {
        let probe = |seed| {
            let mut mix = Mix::new(seed);
            for _ in 0..600 {
                mix.next();
            }
            let probe = mix.probe();
            assert_eq!(mix.seen.len(), mix.designs.len(), "no design repeats");
            probe
                .into_iter()
                .map(|d| mix.designs[d].body.clone())
                .collect::<Vec<_>>()
        };
        let a = probe(5);
        assert_eq!(a.len(), 31);
        assert_eq!(a, probe(6));
    }
}
