//! The simulator layers probed for a serving workload's traced run: the
//! served scenes prepared through `PreparedScene::build` and simulated
//! cell by cell through `experiments::try_run_prepared`, with no result
//! cache.

use crate::metrics::{LANE_BUCKETS, OBSERVED_CONFIGS, SWEEP_CONFIGS, WARP_BUCKETS};
use crate::report::{ratio, Report};
use crate::trace::{wall_us, Span};
use sms_sim::experiments::{try_run_prepared, RunResult};
use sms_sim::gpu::{GpuConfig, SimStats, StallBreakdown};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use sms_sim::{RenderConfig, RunLimits};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Threads that prepare scenes and simulate cells: both cores of the
/// two-core host.
const THREADS: usize = 2;

/// Every observer armed: the stack validator, the stall breakdown and the
/// metrics layer.
fn observed_limits() -> RunLimits {
    RunLimits { validate: true, breakdown: true, metrics: true, ..RunLimits::none() }
}

/// The stack configuration behind a short metric name.
fn stack(short: &str) -> StackConfig {
    match short {
        "RB_8" => StackConfig::baseline8(),
        "SMS" => StackConfig::sms_default(),
        "SL" => StackConfig::stackless(),
        "PRED_12" => StackConfig::predictor_default(),
        other => unreachable!("no configuration named {other}"),
    }
}

/// Per-cell state: the run's outputs.
struct Cell {
    scene: usize,
    config: &'static str,
    stats: Option<SimStats>,
    breakdown: Option<StallBreakdown>,
}

/// The `scenes x configs` matrix, scene-major.
fn matrix(scenes: usize, configs: &[&'static str]) -> Vec<Cell> {
    (0..scenes)
        .flat_map(|scene| {
            configs.iter().map(move |&config| Cell { scene, config, stats: None, breakdown: None })
        })
        .collect()
}

/// The scenes prepared, with the per-scene prepare spans.
struct Setup {
    scenes: Vec<PreparedScene>,
    spans: Vec<Span>,
}

/// Runs `f` over `items` on [`THREADS`] threads that claim items in
/// order. Results come back in item order; `None` where `f` panicked.
fn parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<Option<R>> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, catch_unwind(AssertUnwindSafe(|| f(item))).ok()));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, r) in w.join().unwrap_or_default() {
                out[i] = r;
            }
        }
    });
    out
}

/// Prepares the scenes; `None` if a preparation panicked.
fn prepare(ids: &[SceneId], render: &RenderConfig) -> Option<Setup> {
    let built = parallel(ids, |&id| {
        let start_us = wall_us();
        let t = Instant::now();
        let p = PreparedScene::build(id, render);
        (p, start_us, t.elapsed())
    });
    let mut scenes = Vec::new();
    let mut spans = Vec::new();
    for b in built {
        let (p, start_us, elapsed) = b?;
        spans.push(Span {
            span: p.scene.id.name().to_owned(),
            parent: None,
            name: "prepare".to_owned(),
            start_us,
            dur_us: elapsed.as_micros() as u64,
            attrs: vec![
                ("build_us".to_owned(), p.build_us.to_string()),
                ("nodes".to_owned(), p.flat.nodes.len().to_string()),
            ],
        });
        scenes.push(p);
    }
    Some(Setup { scenes, spans })
}

/// Simulates every cell on the worker threads, recording each outcome into
/// its cell and, when `traced`, a `simulate` span per cell.
fn simulate(
    cells: &mut [Cell],
    scenes: &[PreparedScene],
    render: &RenderConfig,
    limits: &RunLimits,
    traced: bool,
    spans: &mut Vec<Span>,
    report: &mut Report,
) {
    let timed = parallel(cells, |cell| {
        let start_us = wall_us();
        let t = Instant::now();
        let result = try_run_prepared(
            &scenes[cell.scene],
            stack(cell.config),
            GpuConfig::default(),
            render,
            limits,
        );
        (start_us, t.elapsed(), result)
    });
    for (cell, outcome) in cells.iter_mut().zip(timed) {
        let name = format!("{}/{}", scenes[cell.scene].scene.id.name(), cell.config);
        report.attempted += 1;
        match outcome {
            None => report.fail(format!("{name}: the simulation panicked")),
            Some((_, _, Err(fault))) => report.fail(format!("{name}: {fault}")),
            Some((start_us, elapsed, Ok(run))) => {
                if traced {
                    spans.push(Span {
                        span: name.clone(),
                        parent: None,
                        name: "simulate".to_owned(),
                        start_us,
                        dur_us: elapsed.as_micros() as u64,
                        attrs: vec![("config".to_owned(), cell.config.to_owned())],
                    });
                }
                record(cell, &name, run, limits, report);
            }
        }
    }
}

/// Observers are pure: an observed cell's stats must equal a plain run's.
fn check_pure(report: &mut Report, observed: &Cell, plain: Option<&SimStats>, scene: &str) {
    let Some(seen) = &observed.stats else { return };
    report.check(plain == Some(seen), || {
        format!("{scene}/{}: observed stats differ from an unobserved run", observed.config)
    });
}

/// The simulator layers as a serving workload exercises them, for its
/// traced run: the served scenes prepared and simulated here under every
/// sweep configuration (traced), and under RB_8 and SMS with every
/// observer armed. Fills the prepare, core, rtunit, mem and gpu per-layer
/// metrics, and checks that observation changed no stat.
pub fn probe_layers(report: &mut Report, ids: &[SceneId], render: &RenderConfig) {
    report.attempted += ids.len() as u64;
    let Some(setup) = prepare(ids, render) else {
        return report.fail("scene preparation panicked".to_owned());
    };
    let mut spans = Vec::new();
    let mut plain = matrix(ids.len(), &SWEEP_CONFIGS);
    simulate(&mut plain, &setup.scenes, render, &RunLimits::none(), true, &mut spans, report);
    let mut observed = matrix(ids.len(), &OBSERVED_CONFIGS);
    simulate(&mut observed, &setup.scenes, render, &observed_limits(), false, &mut spans, report);
    for o in &observed {
        let p = plain.iter().find(|p| p.scene == o.scene && p.config == o.config);
        check_pure(report, o, p.and_then(|p| p.stats.as_ref()), ids[o.scene].name());
    }
    per_layer(report, &plain, &observed, &setup.spans, &spans);
}

/// Checks one run's outputs: an observed run must carry a conserved stall
/// breakdown.
fn record(cell: &mut Cell, name: &str, run: RunResult, limits: &RunLimits, report: &mut Report) {
    if limits.breakdown && !run.breakdown.is_some_and(|b| b.is_conserved()) {
        report.fail(format!("{name}: stall breakdown missing or not conserved"));
    }
    cell.stats = Some(run.stats);
    cell.breakdown = run.breakdown;
}

/// Per-layer numbers from the recorded spans and the exact model counters.
/// `observed` holds the cells run with every observer armed (their stall
/// breakdowns).
fn per_layer(report: &mut Report, cells: &[Cell], observed: &[Cell], prep: &[Span], sims: &[Span]) {
    let attr = |s: &Span, k: &str| s.attrs.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    let num = |s: &Span, k: &str| attr(s, k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let build_us: u64 = prep.iter().map(|s| num(s, "build_us")).sum();
    let prep_us: u64 = prep.iter().map(|s| s.dur_us).sum();
    report.set("scene.gen_s", prep_us.saturating_sub(build_us) as f64 / 1e6);
    report.set("bvh.build_s", build_us as f64 / 1e6);
    report.set("bvh.nodes", prep.iter().map(|s| num(s, "nodes")).sum::<u64>() as f64);

    let stats_of = |cfg: Option<&str>| -> Vec<SimStats> {
        cells.iter().filter(|c| cfg.is_none_or(|k| c.config == k)).filter_map(|c| c.stats).collect()
    };
    let sum = |v: &[SimStats], f: &dyn Fn(&SimStats) -> u64| v.iter().map(f).sum::<u64>() as f64;
    let host_us = |cfg: Option<&str>| -> f64 {
        sims.iter()
            .filter(|s| cfg.is_none_or(|k| attr(s, "config").as_deref() == Some(k)))
            .map(|s| s.dur_us as f64)
            .sum()
    };
    let all = stats_of(None);
    report.set("sim.ns_per_cycle", ratio(host_us(None) * 1e3, sum(&all, &|s| s.cycles)));
    report.set("sim.cycles", sum(&all, &|s| s.cycles));
    report.set("sim.instructions", sum(&all, &|s| s.instructions()));
    let (rb, sl) = (stats_of(Some("RB_8")), stats_of(Some("SL")));
    report.set(
        "sim.node_visits_ratio.SL",
        ratio(sum(&sl, &|s| s.node_visits), sum(&rb, &|s| s.node_visits)),
    );
    for cfg in SWEEP_CONFIGS {
        let v = stats_of(Some(cfg));
        report.set(format!("sim.host_s.{cfg}"), host_us(Some(cfg)) / 1e6);
        report.set(
            format!("sim.ns_per_cycle.{cfg}"),
            ratio(host_us(Some(cfg)) * 1e3, sum(&v, &|s| s.cycles)),
        );
        report.set(format!("rtunit.rb_spills.{cfg}"), sum(&v, &|s| s.rb_spills));
        let l1 = sum(&v, &|s| s.mem.l1_hits);
        report
            .set(format!("mem.l1_hit_ratio.{cfg}"), ratio(l1, l1 + sum(&v, &|s| s.mem.l1_misses)));
        let l2 = sum(&v, &|s| s.mem.l2_hits);
        report
            .set(format!("mem.l2_hit_ratio.{cfg}"), ratio(l2, l2 + sum(&v, &|s| s.mem.l2_misses)));
        report.set(format!("mem.offchip_accesses.{cfg}"), sum(&v, &|s| s.mem.offchip_accesses()));
    }
    let sms = stats_of(Some("SMS"));
    report.set("rtunit.sh_spills.SMS", sum(&sms, &|s| s.sh_spills));
    report.set("rtunit.ra_borrows.SMS", sum(&sms, &|s| s.ra_borrows));
    report.set("rtunit.ra_flushes.SMS", sum(&sms, &|s| s.ra_flushes));
    report.set("mem.bank_conflict_cycles.SMS", sum(&sms, &|s| s.mem.bank_conflict_cycles));
    let pred = stats_of(Some("PRED_12"));
    let hits = sum(&pred, &|s| s.pred_hits);
    report.set("rtunit.pred_hit_ratio.PRED_12", ratio(hits, hits + sum(&pred, &|s| s.pred_misses)));

    for cfg in OBSERVED_CONFIGS {
        let mut b = StallBreakdown::default();
        for c in observed.iter().filter(|c| c.config == cfg) {
            if let Some(x) = &c.breakdown {
                b.merge(x);
            }
        }
        let warp = [b.compute, b.mem_wait, b.rt_admit, b.in_rt];
        for (name, v) in WARP_BUCKETS.iter().zip(warp) {
            report.set(format!("gpu.warp.{name}.{cfg}"), ratio(v as f64, b.warp_cycles as f64));
        }
        let lane = [
            b.rt_sched_wait,
            b.fetch_wait_l1,
            b.fetch_wait_l2,
            b.fetch_wait_dram,
            b.op_wait,
            b.stack_wait_rb_sh,
            b.stack_wait_sh_global,
            b.stack_wait_flush,
            b.bank_conflict_replay,
            b.predictor_wait,
            b.rt_idle,
        ];
        for (name, v) in LANE_BUCKETS.iter().zip(lane) {
            report.set(format!("gpu.lane.{name}.{cfg}"), ratio(v as f64, b.rt_lane_cycles as f64));
        }
    }
}
