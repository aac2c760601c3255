//! The ledger's fixed names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` declares the
//! same tables; a unit test keeps the two equal.

/// Workload names, in run order. Later issues refer to them.
pub const WORKLOADS: [&str; 5] = [
    "table3",
    "tree1365",
    "dispatch85",
    "serve_sat",
    "serve_live",
];

/// Runs pin these; `SHARDS`/`GA_THREADS`/`GA_ISLANDS` are scrubbed from
/// the environment so no host setting can leak into a number.
pub const SHARDS: usize = 1;
pub const GA_THREADS: usize = 1;
pub const GA_ISLANDS: usize = 1;
pub const SCRUBBED_ENV: [&str; 3] = ["SHARDS", "GA_THREADS", "GA_ISLANDS"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ack_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ack_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "accept_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "accept_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
];

/// The tenth end-to-end figure. It is 0 on a healthy run, so it cannot
/// carry a relative bound: the one-line result reports it as `failed`
/// over `attempted`, and it must not rise.
pub const FAILED_SHARE: &str = "failed_share";

/// Latency limits at p99, in ms (a request over the limit is a miss).
pub const ACK_P99_LIMIT_MS: f64 = 50.0;
pub const ACCEPT_P99_LIMIT_MS: f64 = 100.0;

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric; the layer is the crate name before the dot.
/// Unit `ns` is a total over one traced rep, `ns/op` a micro-span.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 55] = [
    layer("sim.events", "count", Lower),
    layer("sim.step_ns", "ns", Lower),
    layer("sim.queue_push_ns", "ns/op", Lower),
    layer("sim.queue_pop_ns", "ns/op", Lower),
    layer("core.handle_pull_ns", "ns", Lower),
    layer("core.pulls", "count", Lower),
    layer("agents.pull_messages", "count", Lower),
    layer("agents.update_act_ns", "ns/op", Lower),
    layer("core.handle_request_ns", "ns", Lower),
    layer("core.requests", "count", Higher),
    layer("agents.discovery_hops", "count", Lower),
    layer("agents.decide_ns", "ns/op", Lower),
    layer("agents.estimate_ns", "ns/op", Lower),
    layer("core.migrations", "count", Lower),
    layer("core.handle_complete_ns", "ns", Lower),
    layer("core.completions", "count", Higher),
    layer("scheduler.fifo_submit_ns", "ns/op", Lower),
    layer("core.bootstrap_ns", "ns", Lower),
    layer("core.collect_result_ns", "ns", Lower),
    layer("core.handle_other_ns", "ns", Lower),
    layer("workload.generate_ns", "ns", Lower),
    layer("scheduler.ga_evolves", "count", Lower),
    layer("scheduler.ga_generations", "count", Lower),
    layer("scheduler.ga_wall_us", "us", Lower),
    layer("scheduler.delta_positions", "count", Lower),
    layer("scheduler.evolve_q10_ns", "ns/op", Lower),
    layer("scheduler.evolve_q40_ns", "ns/op", Lower),
    layer("scheduler.decode_q40_ns", "ns/op", Lower),
    layer("scheduler.plan_minmin_q40_ns", "ns/op", Lower),
    layer("scheduler.plan_anneal_q40_ns", "ns/op", Lower),
    layer("pace.cache_hits", "count", Higher),
    layer("pace.cache_misses", "count", Lower),
    layer("pace.hit_ratio", "share", Higher),
    layer("pace.evaluate_hit_ns", "ns/op", Lower),
    layer("pace.evaluate_miss_ns", "ns/op", Lower),
    layer("serve.parse_stream_ns", "ns", Lower),
    layer("serve.parse_line_ns", "ns/op", Lower),
    layer("serve.canonical_line_ns", "ns/op", Lower),
    layer("serve.ingest_ns", "ns", Lower),
    layer("serve.drain_ns", "ns", Lower),
    layer("serve.report_ns", "ns", Lower),
    layer("serve.wal_append_ns", "ns/op", Lower),
    layer("core.inject_request_ns", "ns/op", Lower),
    layer("serve.open_live_ns", "ns", Lower),
    layer("serve.read_wal_ns", "ns", Lower),
    layer("serve.wal_flush_ns", "ns/op", Lower),
    layer("serve.http_roundtrip_ms", "ms", Lower),
    layer("serve.admission_push_pop_ns", "ns/op", Lower),
    layer("serve.live_429", "count", Lower),
    layer("serve.live_drain_ms", "ms", Lower),
    layer("serve.gen_late_p99_ms", "ms", Lower),
    layer("telemetry.emit_disabled_ns", "ns/op", Lower),
    layer("telemetry.emit_aggregate_ns", "ns/op", Lower),
    layer("trace.coverage", "share", Higher),
    layer("trace.overhead", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_telemetry::json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_declares_these_tables() {
        let m = manifest();
        let workloads: Vec<&str> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = m
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (declared, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(declared, "name"), ours.name);
            assert_eq!(field(declared, "unit"), ours.unit);
            assert_eq!(field(declared, "better"), ours.better.token());
            let bound = declared
                .get("bound")
                .and_then(Value::as_f64)
                .expect("bound");
            assert_eq!(bound, ours.bound, "{}", ours.name);
            assert!(bound <= 0.25);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = m
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (declared, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(declared, "name"), ours.name);
            assert_eq!(field(declared, "unit"), ours.unit);
            assert_eq!(field(declared, "better"), ours.better.token());
        }
        assert_eq!(
            m.get("paths").and_then(Value::as_arr).map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.push(FAILED_SHARE);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn release_profile_equals_the_root_manifests() {
        fn profile(text: &str) -> Vec<String> {
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        }
        let ours = include_str!("../Cargo.toml");
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("root manifest");
        assert!(!profile(ours).is_empty());
        assert_eq!(profile(ours), profile(&root));
    }
}
