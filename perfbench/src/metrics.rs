//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` declares the same lists (a test keeps them equal).

/// Printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sms_speedup_gmean", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// The sweep configurations, by their short metric names.
pub const SWEEP_CONFIGS: [&str; 4] = ["RB_8", "SMS", "SL", "PRED_12"];

/// The observed configurations (`StallBreakdown` shares).
pub const OBSERVED_CONFIGS: [&str; 2] = ["RB_8", "SMS"];

/// The eleven lane buckets of `StallBreakdown`, summing to
/// `rt_lane_cycles`.
pub const LANE_BUCKETS: [&str; 11] = [
    "rt_sched_wait",
    "fetch_wait_l1",
    "fetch_wait_l2",
    "fetch_wait_dram",
    "op_wait",
    "stack_wait_rb_sh",
    "stack_wait_sh_global",
    "stack_wait_flush",
    "bank_conflict_replay",
    "predictor_wait",
    "rt_idle",
];

/// The four warp buckets of `StallBreakdown`, summing to `warp_cycles`.
pub const WARP_BUCKETS: [&str; 4] = ["compute", "mem_wait", "rt_admit", "in_rt"];

/// Printed by a traced run (`--trace 1`), on every workload; a layer the
/// workload does not drive reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("scene.gen_s".into(), "s");
    add("bvh.build_s".into(), "s");
    add("bvh.nodes".into(), "count");
    for c in SWEEP_CONFIGS {
        add(format!("sim.host_s.{c}"), "s");
    }
    add("sim.ns_per_cycle".into(), "ns/cycle");
    for c in SWEEP_CONFIGS {
        add(format!("sim.ns_per_cycle.{c}"), "ns/cycle");
    }
    add("sim.cycles".into(), "count");
    add("sim.instructions".into(), "count");
    add("sim.node_visits_ratio.SL".into(), "ratio");
    for c in SWEEP_CONFIGS {
        add(format!("rtunit.rb_spills.{c}"), "count");
    }
    add("rtunit.sh_spills.SMS".into(), "count");
    add("rtunit.ra_borrows.SMS".into(), "count");
    add("rtunit.ra_flushes.SMS".into(), "count");
    add("rtunit.pred_hit_ratio.PRED_12".into(), "ratio");
    for c in SWEEP_CONFIGS {
        add(format!("mem.l1_hit_ratio.{c}"), "ratio");
        add(format!("mem.l2_hit_ratio.{c}"), "ratio");
        add(format!("mem.offchip_accesses.{c}"), "count");
    }
    add("mem.bank_conflict_cycles.SMS".into(), "cycles");
    for c in OBSERVED_CONFIGS {
        for b in WARP_BUCKETS {
            add(format!("gpu.warp.{b}.{c}"), "ratio");
        }
        for b in LANE_BUCKETS {
            add(format!("gpu.lane.{b}.{c}"), "ratio");
        }
    }
    add("harness.cache_hits".into(), "count");
    add("harness.cache_misses".into(), "count");
    add("harness.singleflight_shared".into(), "count");
    add("backend.job_ms.hit".into(), "ms");
    add("backend.job_ms.miss".into(), "ms");
    add("serve.client_gap_ms".into(), "ms");
    add("fleet.queue_wait_ms".into(), "ms");
    add("fleet.dispatch_gap_ms".into(), "ms");
    add("fleet.self_ms".into(), "ms");
    add("backend.sweep_self_ms".into(), "ms");
    add("fleet.retries".into(), "count");
    add("fleet.hedges".into(), "count");
    add("fleet.shed".into(), "count");
    add("serve.shed".into(), "count");
    add("trace.overhead_ratio".into(), "ratio");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_harness::json::{self, Json};

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// metrics, in this order, with these units.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else { panic!("missing {key}") };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        assert_eq!(listed("end_to_end"), own(e2e));
        assert_eq!(listed("per_layer"), own(per_layer()));
        assert!(per_layer().len() <= 128);
    }
}
