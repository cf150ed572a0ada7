//! The `serve_resubmit` workload: an in-process `turbosyn-serve` server
//! on an ephemeral loopback port with two engine workers, driven by two
//! closed-loop clients in this process.
//!
//! Each set-up starts a server, maps the warm set cold, one circuit at a
//! time, and resubmits each circuit twice; the second resubmission is a
//! pure lineage replay whose work counters must repeat exactly from one
//! set-up to the next. A stream segment then resubmits the warm set in
//! bursts. An untraced run repeats set-up and segment until its window
//! closes, so the cold maps are timed across the whole window.
//!
//! The circuits are the same at every seed: the pool routes a request by
//! a fingerprint of its BLIF text, so renamed circuits would land on
//! other workers, and that alone moved the set-up's map time by 30%. The
//! seed picks which warm circuit the stream starts with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use turbosyn::{cache_stats_to_json, label_stats_to_json};
use turbosyn_json::Json;
use turbosyn_netlist::{blif, Circuit};
use turbosyn_serve::{Client, ClientError, MapResponse, ServeConfig, Server};

use crate::batch::{self, Mapper};
use crate::layers::{self, Phases};
use crate::report::Outcome;
use crate::stats::{self, add_counters, Counters, Samples, FNV_START};
use crate::workloads::{self, Row, Workload};
use crate::{check, Run};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Set-ups per untraced run at the least, each followed by a stream
/// segment. `setup_s` is their median; `map_wall_s`, `map_cpu_s` and
/// `cold_p50_ms` take each circuit's fastest cold map.
const MIN_CYCLES: usize = 2;
/// Length of the stream segment after each set-up of an untraced run.
const SEGMENT_S: f64 = 3.0;
/// Consecutive stream requests that resubmit the same warm circuit. An
/// engine keeps the lineage of the last circuit it mapped only, so the
/// first request of a burst remaps (with the decomposition cache warm)
/// and the rest replay; the remaps make the warm tail.
const BURST: u64 = 10;

/// What the benchmark keeps of one successful map response.
#[derive(Debug, Clone)]
struct Reply {
    /// The canonical report, kept only where a check needs it.
    report: Option<Json>,
    /// FNV-1a of the report bytes.
    hash: u64,
    worker: u64,
    queue_ms: u64,
    run_ms: u64,
    counters: Counters,
}

/// Turns a response into a reply, or into the reason the request counts
/// as failed: an error frame (a busy or draining refusal included), a
/// transport failure, or a degraded report.
fn accept(response: Result<MapResponse, ClientError>, keep_report: bool) -> Result<Reply, String> {
    let response = response.map_err(|e| match e {
        ClientError::Server { code, .. } if code == "busy" || code == "draining" => {
            format!("refused ({code})")
        }
        e => e.to_string(),
    })?;
    if response.degraded {
        return Err("degraded report".into());
    }
    let mut counters = Counters::new();
    add_counters(
        &mut counters,
        "label.",
        &label_stats_to_json(&response.work),
    );
    add_counters(
        &mut counters,
        "cache.",
        &cache_stats_to_json(&response.cache),
    );
    Ok(Reply {
        hash: stats::fnv(FNV_START, response.report.write().as_bytes()),
        report: keep_report.then_some(response.report),
        worker: response.worker,
        queue_ms: response.queue_ms,
        run_ms: response.run_ms,
        counters,
    })
}

/// A running server and its clients.
struct Service {
    server: Server,
    clients: Vec<Client>,
}

impl Service {
    fn start() -> Result<Service, String> {
        let config = ServeConfig {
            jobs: WORKERS,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        match (0..CLIENTS)
            .map(|_| Client::connect(&addr))
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(clients) => Ok(Service { server, clients }),
            Err(e) => {
                stop(server);
                Err(format!("connect: {e}"))
            }
        }
    }

    /// Closes the clients, drains the server and joins its threads.
    fn stop(self) {
        drop(self.clients);
        stop(self.server);
    }
}

fn stop(server: Server) {
    server.handle().begin_drain();
    server.wait();
}

/// A service after set-up.
struct Warm {
    service: Service,
    /// The warm set as the clients send it.
    texts: Vec<String>,
    /// The warm set as the server parses it.
    inputs: Vec<Circuit>,
    cold: Vec<Result<Reply, String>>,
    /// The first and second resubmission of each circuit.
    warm: Vec<[Result<Reply, String>; 2]>,
    /// Generation, server start, cold maps and resubmissions.
    setup_s: f64,
    /// Wall and process CPU time of each cold map.
    map_wall_s: Vec<f64>,
    map_cpu_s: Vec<f64>,
}

fn set_up(rows: &[Row]) -> Result<Warm, String> {
    let t0 = Instant::now();
    let texts: Vec<String> = workloads::generate(rows, 0)
        .iter()
        .map(blif::write)
        .collect();
    let mut service = Service::start()?;
    // One at a time, so the wall time does not hang on how the pool's
    // fingerprint routing spreads the warm set over the workers.
    let (mut cold, mut map_wall_s, mut map_cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    for text in &texts {
        let cpu0 = stats::cpu_seconds();
        let t = Instant::now();
        cold.push(accept(service.clients[0].map_blif(text), true));
        map_wall_s.push(t.elapsed().as_secs_f64());
        map_cpu_s.push(stats::cpu_seconds() - cpu0);
    }
    // The first resubmission still completes the circuit's lineage;
    // from the second on, a resubmission is a pure replay.
    let mut warm = Vec::new();
    for text in &texts {
        let first = accept(service.clients[0].map_blif(text), false);
        let second = accept(service.clients[0].map_blif(text), false);
        warm.push([first, second]);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let inputs = match texts
        .iter()
        .map(|t| blif::parse(t))
        .collect::<Result<Vec<Circuit>, _>>()
    {
        Ok(inputs) => inputs,
        Err(e) => {
            service.stop();
            return Err(format!("warm set does not parse: {e}"));
        }
    };
    Ok(Warm {
        service,
        texts,
        inputs,
        cold,
        warm,
        setup_s,
        map_wall_s,
        map_cpu_s,
    })
}

/// Digests of a set-up: its cold report bytes and its replays' work
/// counters.
fn set_up_digests(w: &Warm) -> (u64, u64) {
    let reports = w.cold.iter().fold(FNV_START, |h, r| {
        stats::fnv(h, &r.as_ref().map_or(0, |r| r.hash).to_le_bytes())
    });
    let counters = w.warm.iter().fold(FNV_START, |h, [_, replay]| {
        replay
            .as_ref()
            .map_or(h, |r| stats::counters_digest(h, &r.counters))
    });
    (reports, counters)
}

/// Checks a set-up: every cold report independently, every resubmission
/// against its cold report.
fn check_set_up(w: &Warm, out: &mut Outcome) {
    for (i, input) in w.inputs.iter().enumerate() {
        let cold = w.cold[i].as_ref().map_err(Clone::clone).and_then(|r| {
            let report = r.report.as_ref().expect("set-up replies keep their report");
            check::report_json(input, report)
        });
        out.tally
            .record(cold.map_err(|e| format!("{} cold: {e}", input.name())));
        for warm in &w.warm[i] {
            let verdict = match (&w.cold[i], warm) {
                (_, Err(e)) => Err(e.clone()),
                (Ok(cold), Ok(warm)) if cold.hash == warm.hash => Ok(()),
                _ => Err("warm response differs from the cold one".to_string()),
            };
            out.tally
                .record(verdict.map_err(|e| format!("{} warm: {e}", input.name())));
        }
    }
}

/// The set-ups of one run and what they measured.
struct Setups {
    count: usize,
    setup_s: Samples,
    /// Per warm-set circuit, the wall and CPU time of its cold maps.
    map_wall: Vec<Samples>,
    map_cpu: Vec<Samples>,
    /// The first set-up's digests, which every later one must repeat.
    reference: Option<(u64, u64)>,
}

impl Setups {
    fn new(circuits: usize) -> Setups {
        Setups {
            count: 0,
            setup_s: Samples::default(),
            map_wall: vec![Samples::default(); circuits],
            map_cpu: vec![Samples::default(); circuits],
            reference: None,
        }
    }

    /// Sets up a service, checks it, and records its timings; `None`
    /// when it could not start (recorded as a failure).
    fn add(&mut self, rows: &[Row], out: &mut Outcome) -> Option<Warm> {
        let w = match set_up(rows) {
            Ok(w) => w,
            Err(e) => {
                out.tally.record(Err(e));
                return None;
            }
        };
        check_set_up(&w, out);
        let digests = set_up_digests(&w);
        if *self.reference.get_or_insert(digests) != digests {
            out.mismatches
                .push("set-ups differ in report bytes or replay work counters".into());
        }
        self.count += 1;
        self.setup_s.push(w.setup_s);
        for (i, (wall, cpu)) in w.map_wall_s.iter().zip(&w.map_cpu_s).enumerate() {
            self.map_wall[i].push(*wall);
            self.map_cpu[i].push(*cpu);
        }
        Some(w)
    }

    /// `setup_s`, and from each circuit's fastest cold map `map_wall_s`
    /// and `map_cpu_s` (summed) and `cold_p50_ms` (the median circuit's).
    fn set_metrics(&self, out: &mut Outcome) {
        out.set("setup_s", self.setup_s.median(), self.count);
        let sum_of_minima = |s: &[Samples]| s.iter().map(Samples::min).sum::<Option<f64>>();
        out.set("map_wall_s", sum_of_minima(&self.map_wall), self.count);
        out.set("map_cpu_s", sum_of_minima(&self.map_cpu), self.count);
        let mut cold_ms = Samples::default();
        for wall in &self.map_wall {
            cold_ms.push(wall.min().unwrap_or(f64::NAN) * 1e3);
        }
        out.set("cold_p50_ms", cold_ms.median(), cold_ms.len());
    }

    /// Prints each warm-set circuit's cold map times.
    fn print_cold_maps(&self, inputs: &[Circuit]) {
        for (c, w) in inputs.iter().zip(&self.map_wall) {
            println!(
                "  {:<10} cold map fastest {:10.2} ms, median {:10.2} ms  n={}",
                c.name(),
                w.min().unwrap_or(f64::NAN) * 1e3,
                w.median().unwrap_or(f64::NAN) * 1e3,
                w.len()
            );
        }
    }
}

/// The warm-set circuit request `i` of the stream resubmits: bursts take
/// the warm set in turn, starting at a seed-dependent circuit, so every
/// run resubmits the same mix whatever its length.
fn pick(i: u64, seed: u64, warm_set: usize) -> usize {
    ((i / BURST).wrapping_add(seed) % warm_set as u64) as usize
}

/// One answered request of the stream.
struct Sample {
    /// The warm-set circuit resubmitted.
    circuit: usize,
    /// Client-observed round trip.
    latency_ms: f64,
    reply: Result<Reply, String>,
}

/// A timed stream segment: each client sends its next request as soon as
/// its previous one is answered, until `seconds` have gone by. Request
/// numbers start at `first`, so that segments continue one stream.
/// Returns the samples and the segment's wall time.
fn stream(
    clients: &mut [Client],
    texts: &[String],
    seed: u64,
    first: u64,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let circuit = pick(i, seed, texts.len());
                        let t = Instant::now();
                        let response = client.map_blif(&texts[circuit]);
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        samples.push(Sample {
                            circuit,
                            latency_ms,
                            reply: accept(response, false),
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Checks every stream sample: its report must equal its circuit's cold
/// report byte for byte. (A stream reply's work counters depend on what
/// its worker mapped just before, so only the set-up's replays are held
/// to exact repetition.)
fn check_stream(samples: &[Sample], w: &Warm, out: &mut Outcome) {
    for sample in samples {
        let verdict = match (&sample.reply, &w.cold[sample.circuit]) {
            (Err(e), _) => Err(e.clone()),
            (Ok(reply), Ok(cold)) if cold.hash == reply.hash => Ok(()),
            _ => Err("warm response differs from the cold one".into()),
        };
        let name = w.inputs[sample.circuit].name();
        out.tally
            .record(verdict.map_err(|e| format!("{name} stream: {e}")));
    }
}

/// The server's cumulative per-phase totals, from its `metrics` frame.
fn server_phases(client: &mut Client) -> Result<Phases, String> {
    client
        .metrics()
        .map(|frame| Phases::from_json(&frame))
        .map_err(|e| format!("metrics: {e}"))
}

/// Runs `serve_resubmit`.
pub fn run(run: &Run) -> Outcome {
    let rows = workloads::rows(Workload::ServeResubmit, run.smoke);
    let title = format!(
        "serve_resubmit seed {}, trace {}: {} warm circuits, {WORKERS} workers, \
         {CLIENTS} closed-loop clients",
        run.seed,
        u8::from(run.trace),
        rows.len()
    );
    let mut out = Outcome::new(title, run.trace);
    if run.trace {
        traced(&rows, run, &mut out);
    } else {
        timed(&rows, run, &mut out);
    }
    out
}

/// The untraced run: set-up and stream segment, cycle after cycle, while
/// another cycle as long as the mean one so far still ends within the
/// window; at least [`MIN_CYCLES`] of them.
fn timed(rows: &[Row], run: &Run, out: &mut Outcome) {
    let start = Instant::now();
    let mut setups = Setups::new(rows.len());
    let (mut samples, mut stream_s, mut inputs) = (Vec::new(), 0.0, Vec::new());
    while setups.count < MIN_CYCLES || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / setups.count as f64 <= run.seconds
    } {
        let Some(mut w) = setups.add(rows, out) else {
            return;
        };
        if setups.count == 1 {
            (out.report_digest, out.counter_digest) = set_up_digests(&w);
            set_quality(out, &w);
            inputs = w.inputs.clone();
        }
        let segment = SEGMENT_S.min(run.seconds);
        let first = samples.len() as u64;
        let (segment, segment_s) =
            stream(&mut w.service.clients, &w.texts, run.seed, first, segment);
        check_stream(&segment, &w, out);
        samples.extend(segment);
        stream_s += segment_s;
        w.service.stop();
        if setups.count == 1 {
            // One service's lifetime. Later cycles start new worker
            // threads, whose fresh allocator arenas raise the peak by a
            // varying amount.
            out.set("peak_rss_mb", Some(stats::peak_rss_mb()), 1);
        }
    }
    out.title += &format!(", {} cycles, {} requests", setups.count, samples.len());
    setups.print_cold_maps(&inputs);
    setups.set_metrics(out);
    set_stream_metrics(out, &samples, stream_s);
}

/// The traced run: one set-up, a stream over the whole window with the
/// server's phase totals read around it, then a plain and a traced pass
/// of library cold maps over the warm set.
fn traced(rows: &[Row], run: &Run, out: &mut Outcome) {
    let mut setups = Setups::new(rows.len());
    let Some(mut w) = setups.add(rows, out) else {
        return;
    };
    (out.report_digest, out.counter_digest) = set_up_digests(&w);
    let before = server_phases(&mut w.service.clients[0]);
    let (samples, _) = stream(&mut w.service.clients, &w.texts, run.seed, 0, run.seconds);
    let after = server_phases(&mut w.service.clients[0]);
    check_stream(&samples, &w, out);
    out.title += &format!(", {} requests", samples.len());
    match before.and_then(|b| after.map(|a| a.since(&b))) {
        Ok(phases) => set_layer_metrics(out, &phases, &samples, &w),
        Err(e) => out.tally.record(Err(e)),
    }
    let inputs = std::mem::take(&mut w.inputs);
    w.service.stop();
    // The service always traces, so tracing's overhead is measured on
    // the library, over the same warm set.
    let (plain, traced, _) = batch::plain_and_traced(Mapper::TurboSyn, &inputs);
    batch::check_plain_and_traced(out, &inputs, &plain, &traced);
    let overhead = batch::wall_s(&traced) / batch::wall_s(&plain);
    out.set("trace.overhead_ratio", Some(overhead), 1);
}

/// Φ, LUTs and registers of a set-up's cold reports.
fn set_quality(out: &mut Outcome, w: &Warm) {
    let quality: Vec<(i64, u64, u64)> = w
        .cold
        .iter()
        .filter_map(|r| {
            let report = r.as_ref().ok()?.report.as_ref()?;
            let int = |key: &str| report.get(key).and_then(Json::as_int);
            Some((
                i64::try_from(int("phi")?).ok()?,
                u64::try_from(int("lut_count")?).ok()?,
                u64::try_from(int("register_count")?).ok()?,
            ))
        })
        .collect();
    out.set_quality(&quality);
}

fn set_stream_metrics(out: &mut Outcome, samples: &[Sample], stream_s: f64) {
    let mut warm = Samples::default();
    for s in samples.iter().filter(|s| s.reply.is_ok()) {
        warm.push(s.latency_ms);
    }
    out.set("warm_p50_ms", warm.median(), warm.len());
    out.set("warm_p99_ms", warm.percentile(99), warm.len());
    let rate = warm.len() as f64 / stream_s;
    out.set("throughput_rps", Some(rate), warm.len());
}

fn set_layer_metrics(out: &mut Outcome, phases: &Phases, samples: &[Sample], w: &Warm) {
    let mut work = Counters::new();
    let (mut queue, mut run, mut overhead) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut served = [0u64; WORKERS];
    for s in samples {
        let Ok(reply) = &s.reply else { continue };
        stats::merge(&mut work, &reply.counters);
        queue.push(reply.queue_ms as f64);
        run.push(reply.run_ms as f64);
        overhead.push(s.latency_ms - reply.run_ms as f64);
        if let Some(n) = served.get_mut(reply.worker as usize) {
            *n += 1;
        }
    }
    // The phases fall inside the workers' mapper runs.
    layers::set_mapping_metrics(out, phases, &work, run.sum() / 1e3);
    layers::set_netlist_metrics(out, &w.inputs);
    let reports: Vec<&Json> = w
        .cold
        .iter()
        .filter_map(|r| r.as_ref().ok()?.report.as_ref())
        .collect();
    let t = Instant::now();
    let bytes: usize = reports.iter().map(|r| r.write().len()).sum();
    out.set(
        "json.report_s",
        Some(t.elapsed().as_secs_f64()),
        reports.len(),
    );
    out.set("json.report_bytes", Some(bytes as f64), reports.len());
    out.set("serve.queue_ms_p50", queue.median(), queue.len());
    out.set("serve.queue_ms_p99", queue.percentile(99), queue.len());
    out.set("serve.run_ms_p50", run.median(), run.len());
    out.set("serve.overhead_ms_p50", overhead.median(), overhead.len());
    let mean = served.iter().sum::<u64>() as f64 / WORKERS as f64;
    let spread = served.iter().max().unwrap_or(&0) - served.iter().min().unwrap_or(&0);
    let imbalance = if mean > 0.0 {
        spread as f64 / mean
    } else {
        0.0
    };
    out.set("serve.worker_imbalance", Some(imbalance), run.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    fn response(degraded: bool) -> Result<MapResponse, ClientError> {
        Ok(MapResponse {
            report: Json::Null,
            degraded,
            worker: 1,
            cache: Default::default(),
            work: Default::default(),
            queue_ms: 0,
            run_ms: 3,
        })
    }

    #[test]
    fn refused_and_degraded_requests_count_as_failures() {
        let busy = Err(ClientError::Server {
            code: "busy".into(),
            message: "admission queue is full".into(),
            retry_after_ms: Some(5),
        });
        let mut tally = Tally::default();
        for r in [busy, response(true), response(false)] {
            tally.record(accept(r, false).map(|_| ()));
        }
        assert_eq!((tally.attempted(), tally.failed()), (3, 2));
        assert_eq!(tally.failures(), ["refused (busy)", "degraded report"]);
        assert!((tally.share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn the_stream_resubmits_the_warm_set_in_bursts() {
        let picks: Vec<usize> = (0..70).map(|i| pick(i, 0, 6)).collect();
        assert!(picks[..BURST as usize].iter().all(|&c| c == 0));
        assert_eq!(picks[BURST as usize], 1, "the next burst moves on");
        assert_eq!(picks[6 * BURST as usize], 0, "and wraps around");
        assert_eq!(pick(0, 4, 6), 4, "the seed picks the first circuit");
    }
}
