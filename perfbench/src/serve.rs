//! The serving workloads: an in-process `sms-fleet` in front of two
//! `sms-serve` backends (one worker each, one shared cache directory, no
//! hedging, no fault injection), driven by a closed loop of client threads
//! through `Client::sweep`.

use crate::gen::{self, Requests, SweepGrid};
use crate::ledger::Ledger;
use crate::report::{geomean, median, peak_rss_mb, quantile, ratio, tail, Report};
use crate::trace::{self, self_us, Span, Tree};
use crate::Args;
use sms_harness::TraceContext;
use sms_serve::protocol::{parse_render, parse_stack_config, SweepOutcome};
use sms_serve::{
    Client, ClientConfig, FleetConfig, FleetHandle, FleetServer, ServeConfig, Server, ServerHandle,
};
use sms_sim::experiments::try_run_prepared;
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::render::PreparedScene;
use sms_sim::RunLimits;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client threads (the host has two cores).
const CLIENTS: usize = 2;
/// Timed set-up phases in an untraced run; `setup_s` is the median over
/// the phases of the mean set-up time within a phase.
const SETUP_PHASES: usize = 13;
/// Set-up time each phase accumulates at least, by repeating set-ups: one
/// set-up takes only 0.1-0.3 s, too short to time on its own.
const SETUP_PHASE_S: f64 = 1.0;
/// Fresh configurations whose served cells are re-simulated locally.
const FRESH_CHECKS: usize = 3;

type Join = JoinHandle<std::io::Result<()>>;

/// The running tier.
struct Tier {
    fleet: FleetHandle,
    fleet_join: Join,
    backends: Vec<(ServerHandle, Join)>,
}

impl Tier {
    fn spawn(cache: &Path, journals: Option<&Path>) -> std::io::Result<Tier> {
        let mut backends = Vec::new();
        for i in 0..2 {
            backends.push(Server::spawn(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 1,
                cache_dir: Some(cache.to_path_buf()),
                journal_path: journals.map(|d| d.join(format!("backend{i}.jsonl"))),
                run_limits: RunLimits::none(),
                faults: None,
                ..ServeConfig::default()
            })?);
        }
        let (fleet, fleet_join) = FleetServer::spawn(FleetConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: backends.iter().map(|(h, _)| h.addr().to_string()).collect(),
            hedge_after: None,
            cache_dir: Some(cache.to_path_buf()),
            journal_path: journals.map(|d| d.join("fleet.jsonl")),
            ..FleetConfig::default()
        })?;
        Ok(Tier { fleet, fleet_join, backends })
    }

    fn addr(&self) -> String {
        self.fleet.addr().to_string()
    }

    /// Drains the fleet, then the backends, and waits for every thread.
    fn shutdown(self) -> Result<(), String> {
        self.fleet.request_drain();
        let mut result = join(self.fleet_join, "fleet");
        for (handle, j) in self.backends {
            handle.request_drain();
            result = result.and(join(j, "backend"));
        }
        result
    }

    /// The counters the tier exports on `/metrics`.
    fn counters(&self) -> Counters {
        let fleet = self.fleet.render_metrics();
        let backends: Vec<String> = self.backends.iter().map(|(h, _)| h.render_metrics()).collect();
        let sum = |name: &str| backends.iter().map(|t| counter(t, name)).sum::<u64>();
        Counters {
            hits: sum("sms_serve_cache_hits_total"),
            misses: sum("sms_serve_cache_misses_total"),
            shared: sum("sms_serve_singleflight_shared_total"),
            serve_shed: sum("sms_serve_shed_total"),
            retries: counter(&fleet, "sms_fleet_retries_total"),
            hedges: counter(&fleet, "sms_fleet_hedges_total"),
            fleet_shed: counter(&fleet, "sms_fleet_shed_total"),
        }
    }
}

fn join(j: Join, what: &str) -> Result<(), String> {
    match j.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("{what} accept loop failed: {e}")),
        Err(_) => Err(format!("{what} thread panicked")),
    }
}

/// One unlabelled counter from a Prometheus text page (0 when absent).
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    shared: u64,
    serve_shed: u64,
    retries: u64,
    hedges: u64,
    fleet_shed: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            shared: self.shared - before.shared,
            serve_shed: self.serve_shed - before.serve_shed,
            retries: self.retries - before.retries,
            hedges: self.hedges - before.hedges,
            fleet_shed: self.fleet_shed - before.fleet_shed,
        }
    }
}

/// One completed request.
struct Done {
    grid: SweepGrid,
    latency_s: f64,
    /// The client's root context when the request was traced.
    ctx: Option<TraceContext>,
    outcome: Result<SweepOutcome, String>,
}

/// Sends one sweep; `ctx` arms tracing for it.
fn send(addr: &str, grid: SweepGrid, render: &str, ctx: Option<TraceContext>) -> Done {
    let client = Client::with_config(ClientConfig {
        addr: addr.to_owned(),
        retries: 0,
        deadline: Duration::from_secs(60),
        trace: ctx,
        ..ClientConfig::default()
    });
    let configs: Vec<&str> = grid.configs.iter().map(String::as_str).collect();
    let t = Instant::now();
    let outcome = client.sweep(&grid.scenes, &configs, render).map_err(|e| e.to_string());
    Done { latency_s: t.elapsed().as_secs_f64(), grid, ctx, outcome }
}

/// The closed loop: each client sends its next request when the previous
/// one has answered, until the time is up or the sequence runs out. In a
/// traced run a seeded half of the requests carry a trace context.
fn closed_loop(addr: &str, reqs: &Requests, render: &str, args: &Args) -> (Vec<Done>, f64) {
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut done = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while t0.elapsed() < deadline {
                        let Some((i, grid)) = reqs.claim() else { break };
                        let traced = args.trace
                            && gen::Rng::new(
                                args.seed,
                                gen::STREAM_REQUESTS ^ ((i as u64) << 8) ^ 1,
                            )
                            .below(2)
                                == 0;
                        local.push(send(addr, grid, render, traced.then(TraceContext::root)));
                    }
                    local
                })
            })
            .collect();
        for w in workers {
            done.extend(w.join().unwrap_or_default());
        }
    });
    (done, t0.elapsed().as_secs_f64())
}

/// A fresh directory for one tier's cache and journals.
fn fresh_dir(work: &Path, rep: usize) -> std::io::Result<PathBuf> {
    let dir = work.join(format!("serve-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("cache"))?;
    Ok(dir)
}

/// Spawns a tier in a fresh directory and warms its cache with the warm
/// grid; returns the tier and its set-up wall time.
fn set_up(
    work: &Path,
    rep: usize,
    render: &str,
    journals: bool,
) -> Result<(Tier, PathBuf, f64), String> {
    let t = Instant::now();
    let dir = fresh_dir(work, rep).map_err(|e| format!("work directory: {e}"))?;
    let tier = Tier::spawn(&dir.join("cache"), journals.then_some(dir.as_path()))
        .map_err(|e| format!("spawning the tier: {e}"))?;
    let warm = SweepGrid {
        scenes: gen::SERVED_SCENES.iter().map(|s| s.name()).collect(),
        configs: gen::WARM_CONFIGS.iter().map(|s| (*s).to_owned()).collect(),
        fresh: None,
    };
    let done = send(&tier.addr(), warm, render, None);
    let warmed = done
        .outcome
        .as_ref()
        .is_ok_and(|o| o.records.len() == 4 && o.records.iter().all(|r| r.outcome.is_ok()));
    if !warmed {
        let _ = tier.shutdown();
        return Err(format!("warming the cache failed: {:?}", done.outcome.err()));
    }
    Ok((tier, dir, t.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, mixed: bool, work: &Path) -> Report {
    let mut report = Report::default();
    let render = if mixed { "tiny" } else { "fast" };

    // Set-up, repeated in phases of at least SETUP_PHASE_S; the last tier
    // serves the timed phase. A traced run sets up once.
    let (phases, phase_s) = if args.trace { (1, 0.0) } else { (SETUP_PHASES, SETUP_PHASE_S) };
    let mut phase_means = Vec::new();
    let mut reps = 0;
    let mut kept: Option<(Tier, PathBuf)> = None;
    for _ in 0..phases {
        let (mut spent, mut n) = (0.0, 0);
        while n == 0 || spent < phase_s {
            if let Some((tier, dir)) = kept.take() {
                if let Err(e) = tier.shutdown() {
                    report.fail(e);
                }
                let _ = std::fs::remove_dir_all(dir);
            }
            report.attempted += 1;
            match set_up(work, reps, render, args.trace) {
                Ok((tier, dir, wall)) => {
                    spent += wall;
                    kept = Some((tier, dir));
                }
                Err(e) => {
                    report.fail(e);
                    return report;
                }
            }
            n += 1;
            reps += 1;
        }
        phase_means.push(spent / n as f64);
    }
    let Some((tier, dir)) = kept else { unreachable!("at least one set-up") };

    let reqs = Requests::new(args.seed, mixed);
    let before = tier.counters();
    let (done, wall_s) = closed_loop(&tier.addr(), &reqs, render, args);
    let counts = tier.counters().since(before);
    // Read before the checks below, which simulate in this process.
    let peak_rss = peak_rss_mb();
    if let Err(e) = tier.shutdown() {
        report.attempted += 1;
        report.fail(e);
    }
    if reqs.capacity().is_some_and(|cap| reqs.claimed() >= cap) {
        report.note("note: the fresh-cell sequence ran out before the time did".to_owned());
    }

    // Output checks on every response.
    let mut served: BTreeMap<(String, String), SimStats> = BTreeMap::new();
    let (mut misses, mut fresh_cells) = (0u64, 0u64);
    for d in &done {
        report.attempted += 1;
        let outcome = match &d.outcome {
            Ok(o) => o,
            Err(e) => {
                report.fail(format!("sweep failed: {e}"));
                continue;
            }
        };
        let expected = d.grid.scenes.len() * d.grid.configs.len();
        if outcome.records.len() != expected || outcome.summary.is_none() {
            report.fail(format!("sweep returned {} of {expected} cells", outcome.records.len()));
            continue;
        }
        fresh_cells += d.grid.fresh.as_ref().map_or(0, |_| d.grid.scenes.len() as u64);
        for rec in &outcome.records {
            let fresh = d.grid.fresh.as_deref() == Some(rec.config.as_str());
            let Ok(stats) = &rec.outcome else {
                report.fail(format!("{}/{} failed: {:?}", rec.scene, rec.config, rec.outcome));
                continue;
            };
            misses += u64::from(rec.cache == "miss");
            let want = if fresh { "miss" } else { "hit" };
            if rec.cache != want {
                report.fail(format!(
                    "{}/{}: served as {}, expected {want}",
                    rec.scene, rec.config, rec.cache
                ));
            }
            let key = (rec.scene.clone(), rec.config.clone());
            match served.get(&key) {
                Some(prev) if prev != stats => {
                    report.fail(format!(
                        "{}/{}: served stats differ across requests",
                        rec.scene, rec.config
                    ));
                }
                Some(_) => {}
                None => {
                    served.insert(key, *stats);
                }
            }
        }
    }
    report.check(misses == fresh_cells && counts.misses == fresh_cells, || {
        format!(
            "cache misses: {misses} in the streams, {} on the backends, {fresh_cells} fixed by the seed",
            counts.misses
        )
    });
    check_against_simulator(&mut report, &served, render, args.seed, work);

    // End-to-end metrics.
    let plain: Vec<f64> =
        done.iter().filter(|d| d.ctx.is_none()).map(|d| d.latency_s * 1e3).collect();
    let completed = done.iter().filter(|d| d.outcome.is_ok()).count() as f64;
    let speedups: Vec<f64> = gen::SERVED_SCENES
        .iter()
        .filter_map(|s| {
            let cyc =
                |c: &str| served.get(&(s.name().to_owned(), c.to_owned())).map(|st| st.cycles);
            Some(cyc(gen::WARM_CONFIGS[0])? as f64 / cyc(gen::WARM_CONFIGS[1])? as f64)
        })
        .collect();
    let (tail_p, tail_ms, beyond) = tail(&plain);
    report.set("setup_s", median(&phase_means));
    report.set("sms_speedup_gmean", geomean(&speedups));
    report.set("peak_rss_mb", peak_rss);
    report.set("req_per_s", ratio(completed, wall_s));
    report.set("latency_p50_ms", median(&plain));
    report.set("latency_tail_ms", tail_ms);
    let phase_ms: Vec<String> = phase_means.iter().map(|m| format!("{:.0}", m * 1e3)).collect();
    report.note(format!(
        "{CLIENTS} closed-loop clients, {} requests in {wall_s:.2}s ({render} render, {} cells each); \
         {reps} set-ups in {phases} phase(s), mean ms per phase {}; \
         latency over {} untraced samples, tail = p{tail_p} ({beyond} beyond)",
        done.len(),
        done.first().map_or(0, |d| d.grid.scenes.len() * d.grid.configs.len()),
        phase_ms.join("/"),
        plain.len(),
    ));

    let q: Vec<String> = [0.9, 0.95, 0.98, 0.99, 0.995, 1.0]
        .iter()
        .map(|&p| format!("p{}={:.1}", p * 100.0, quantile(&plain, p)))
        .collect();
    report.note(format!("untraced latency ms: {}", q.join(" ")));
    if args.trace {
        per_layer(&mut report, &done, &dir, counts);
        let Ok(render) = parse_render(render) else { unreachable!("known render modes") };
        crate::probe::probe_layers(&mut report, &gen::SERVED_SCENES, &render);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Every served cell's stats must equal a local `try_run_prepared` of the
/// same cell: the warm cells always, the fresh cells on a seeded sample.
/// Every served cell is also checked against the stats ledger in `work`.
fn check_against_simulator(
    report: &mut Report,
    served: &BTreeMap<(String, String), SimStats>,
    render_name: &str,
    seed: u64,
    work: &Path,
) {
    let Ok(render) = parse_render(render_name) else { unreachable!("known render modes") };
    // Loaded only after `peak_rss_mb` was read: the ledger grows with every
    // serve_mixed run in a checkout, and must not weigh on later runs' RSS.
    let mut ledger = Ledger::open(work);
    for ((scene, config), stats) in served {
        let verdict = ledger.check(&Ledger::key(render_name, scene, config), stats);
        report.check(verdict.is_ok(), || verdict.err().unwrap_or_default());
    }
    let saved = ledger.save();
    report.check(saved.is_ok(), || format!("cannot save the stats ledger: {saved:?}"));
    let fresh: Vec<&str> = served
        .keys()
        .map(|(_, c)| c.as_str())
        .filter(|c| !gen::WARM_CONFIGS.contains(c))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let sampled: Vec<&str> =
        gen::sample(seed, fresh.len(), FRESH_CHECKS).into_iter().map(|i| fresh[i]).collect();
    for scene_id in gen::SERVED_SCENES {
        let prepared = PreparedScene::build(scene_id, &render);
        let configs = gen::WARM_CONFIGS.iter().chain(&sampled);
        for config in configs {
            let key = (scene_id.name().to_owned(), (*config).to_owned());
            let Some(seen) = served.get(&key) else { continue };
            let local = parse_stack_config(config).ok().and_then(|stack| {
                try_run_prepared(
                    &prepared,
                    stack,
                    GpuConfig::default(),
                    &render,
                    &RunLimits::none(),
                )
                .ok()
            });
            report.check(local.is_some_and(|r| r.stats == *seen), || {
                format!("{}/{config}: served stats differ from try_run_prepared", scene_id.name())
            });
        }
    }
}

/// Per-layer numbers from the tier's spans and counters.
fn per_layer(report: &mut Report, done: &[Done], dir: &Path, counts: Counters) {
    report.set("harness.cache_hits", counts.hits as f64);
    report.set("harness.cache_misses", counts.misses as f64);
    report.set("harness.singleflight_shared", counts.shared as f64);
    report.set("fleet.retries", counts.retries as f64);
    report.set("fleet.hedges", counts.hedges as f64);
    report.set("fleet.shed", counts.fleet_shed as f64);
    report.set("serve.shed", counts.serve_shed as f64);

    let mut spans: Vec<Span> = Vec::new();
    for file in ["fleet.jsonl", "backend0.jsonl", "backend1.jsonl"] {
        match trace::read_spans(&dir.join(file)) {
            Ok(s) => spans.extend(s),
            Err(e) => report.fail(e),
        }
    }
    let tree = Tree::new(&spans);
    let ms = |us: u64| us as f64 / 1e3;
    let (mut gap, mut queue, mut dispatch_gap, mut fleet_self, mut backend_self) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut job_hit, mut job_miss) = (Vec::new(), Vec::new());
    for d in done.iter().filter(|d| d.outcome.is_ok()) {
        let Some(ctx) = &d.ctx else { continue };
        let sweeps = tree.children(&ctx.span_hex(), "sweep");
        let cells = sweeps.first().map(|s| tree.children(&s.span, "cell")).unwrap_or_default();
        let expected = d.grid.scenes.len() * d.grid.configs.len();
        let mut complete = sweeps.len() == 1 && cells.len() == expected;
        if let Some(sweep) = sweeps.first() {
            gap.push(d.latency_s * 1e3 - ms(sweep.dur_us));
            fleet_self.push(ms(self_us(sweep, &cells)));
        }
        for cell in &cells {
            let dispatches = tree.children(&cell.span, "dispatch");
            complete &= !dispatches.is_empty();
            queue.push(ms(self_us(cell, &dispatches)));
            for disp in &dispatches {
                let backend = tree.children(&disp.span, "sweep");
                let Some(b) = backend.first() else {
                    complete = false;
                    continue;
                };
                dispatch_gap.push(ms(disp.dur_us.saturating_sub(b.dur_us)));
                let jobs = tree.children(&b.span, "job");
                backend_self.push(ms(self_us(b, &jobs)));
                for j in &jobs {
                    match j.attr("cache") {
                        Some("hit") => job_hit.push(ms(j.dur_us)),
                        Some("miss") => job_miss.push(ms(j.dur_us)),
                        _ => {}
                    }
                }
            }
        }
        report.check(complete, || "a traced request's span tree is incomplete".to_owned());
    }
    report.set("serve.client_gap_ms", median(&gap));
    report.set("fleet.queue_wait_ms", median(&queue));
    report.set("fleet.dispatch_gap_ms", median(&dispatch_gap));
    report.set("fleet.self_ms", median(&fleet_self));
    report.set("backend.sweep_self_ms", median(&backend_self));
    report.set("backend.job_ms.hit", median(&job_hit));
    report.set("backend.job_ms.miss", median(&job_miss));

    let lat = |traced: bool| -> Vec<f64> {
        done.iter().filter(|d| d.ctx.is_some() == traced).map(|d| d.latency_s).collect()
    };
    report.set("trace.overhead_ratio", ratio(median(&lat(true)), median(&lat(false))));
    report.note(format!(
        "traced run: {} spans read back, {} traced and {} untraced requests",
        spans.len(),
        lat(true).len(),
        lat(false).len()
    ));
}
