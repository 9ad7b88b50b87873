//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, with unit, direction and regression bound. `BENCHMARK.json`
//! declares the same names; a test keeps the two in step.

/// One workload: its name and the recorded reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "shm_uncontended",
        why: "1 client thread, 1 shard, level-2 cut: the front-end with nothing to amortise; frontend + concurrent + sync do all the work",
    },
    Workload {
        name: "shm_contended",
        why: "2 client threads, 2 shards, same cut: batching, elimination and padding only act here",
    },
    Workload {
        name: "shm_reconfig",
        why: "1 client thread beside a paced split/merge writer (one op due every 2 ms): reader and writer paths of one layer compete",
    },
    Workload {
        name: "dist_steady",
        why: "converged 32-node deployment, static membership, open-loop tokens: simnet event loop + dist route/wire/ack/collector, no reconfig",
    },
    Workload {
        name: "dist_lossy",
        why: "dist_steady with 5% token-channel loss: retransmit timers, backoff and both dedup layers are live, lossless path unchanged",
    },
    Workload {
        name: "dist_churn",
        why: "3 cycles of joins, crashes and leaves under traffic: membership, split/merge/migrate and rescue do most of the work; event cost grows with ghosts",
    },
    Workload {
        name: "check_explore",
        why: "randomized schedule exploration of a 3-node scenario: stateless replay boots a Deployment per schedule and drives simnet's External policy",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. `bound` is the share of the baseline's median by which
/// the metric may get worse before `compare` calls it `worse`; per-layer
/// diagnostics without a bound are reported but never judged.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What every workload emits with tracing detached.
pub const END_TO_END: &[Metric] = &[
    bounded("setup_s", "s", Lower, 0.25),
    bounded("tokens_per_s", "1/s", Higher, 0.15),
    bounded("peak_rss_mb", "MiB", Lower, 0.20),
];

/// What the traced run emits. The first six are user-visible numbers
/// that apply to one stack only (or, `failed_share`, are 0 on a healthy
/// run), while `BENCHMARK.json` wants an end-to-end metric emitted by
/// every workload and never 0, and gives a per-layer metric no bound.
/// They keep their bounds here, and `compare` judges them by these.
pub const PER_LAYER: &[Metric] = &[
    bounded("schedules_per_s", "1/s", Higher, 0.10),
    bounded("reconfig_p50_us", "us", Lower, 0.15),
    bounded("msgs_per_token", "count", Lower, 0.02),
    bounded("token_latency_ticks_mean", "ticks", Lower, 0.02),
    bounded("token_latency_ticks_max", "ticks", Lower, 0.05),
    bounded("failed_share", "ratio", Lower, 0.0),
    // sync
    layer("sync.fetch_add_ns", "ns", Lower),
    layer("sync.fetch_add_shared_2t_ns", "ns", Lower),
    layer("sync.fetch_add_padded_2t_ns", "ns", Lower),
    layer("sync.snapshot_load_ns", "ns", Lower),
    layer("sync.exchange_roundtrip_ns", "ns", Lower),
    // component
    layer("component.process_token_ns", "ns", Lower),
    layer("component.split_us", "us", Lower),
    layer("component.merge_us", "us", Lower),
    // topology
    layer("topology.cut_wiring_build_us", "us", Lower),
    layer("topology.out_neighbor_ns", "ns", Lower),
    layer("topology.resolve_output_ns", "ns", Lower),
    // local
    layer("local.next_value_ns", "ns", Lower),
    // concurrent
    layer("concurrent.next_value_1t_ns", "ns", Lower),
    layer("concurrent.next_value_2t_ns", "ns", Lower),
    layer("concurrent.next_batch64_ns_per_token", "ns", Lower),
    layer("concurrent.locked_next_value_1t_ns", "ns", Lower),
    layer("concurrent.split_us", "us", Lower),
    layer("concurrent.merge_us", "us", Lower),
    layer("concurrent.snapshot_retries_per_ktoken", "count", Lower),
    layer("concurrent.fastpath_hit_share", "ratio", Higher),
    layer("concurrent.starved_tokens_per_s", "1/s", Higher),
    layer("concurrent.call_block_p99_ns", "ns", Lower),
    // frontend
    layer("frontend.next_value_1t_ns", "ns", Lower),
    layer("frontend.next_value_2t_ns", "ns", Lower),
    layer("frontend.refills_per_ktoken", "count", Lower),
    layer("frontend.batch_mean", "count", Higher),
    layer("frontend.elim_hit_share", "ratio", Higher),
    layer("frontend.elim_timeout_share", "ratio", Lower),
    layer("frontend.outstanding_at_end", "count", Lower),
    // bitonic
    layer("bitonic.central_next_ns", "ns", Lower),
    layer("bitonic.tree_next_ns", "ns", Lower),
    layer("bitonic.reactive_next_ns", "ns", Lower),
    layer("bitonic.atomic_bitonic64_next_1t_ns", "ns", Lower),
    layer("bitonic.atomic_bitonic64_next_2t_ns", "ns", Lower),
    // periodic
    layer("periodic.next_1t_ns", "ns", Lower),
    // overlay
    layer("overlay.owner_of_name_ns", "ns", Lower),
    layer("overlay.lookup_hops_mean", "count", Lower),
    layer("overlay.chord_lookup_ns", "ns", Lower),
    // estimator
    layer("estimator.node_level_ns", "ns", Lower),
    // simnet
    layer("simnet.bare_event_ns", "ns", Lower),
    layer("simnet.bare_timer_ns", "ns", Lower),
    layer("simnet.external_fire_ns", "ns", Lower),
    layer("simnet.events_per_s", "1/s", Higher),
    layer("simnet.pending_events_max", "count", Lower),
    // dist
    layer("dist.event_ns", "ns", Lower),
    layer("dist.events_per_token", "count", Lower),
    layer("dist.timers_per_token", "count", Lower),
    layer("dist.inject_call_ns", "ns", Lower),
    layer("dist.routing_hops_mean", "count", Lower),
    layer("dist.dht_lookups_per_token", "count", Lower),
    layer("dist.nacks_per_ktoken", "count", Lower),
    layer("dist.msgs_lost_per_ktoken", "count", Lower),
    layer("dist.dup_exit_drops", "count", Lower),
    layer("dist.token_latency_ticks_p50", "ticks", Lower),
    layer("dist.token_latency_ticks_p99", "ticks", Lower),
    layer("dist.splits", "count", Lower),
    layer("dist.merges", "count", Lower),
    layer("dist.split_ticks_p50", "ticks", Lower),
    layer("dist.merge_ticks_p50", "ticks", Lower),
    layer("dist.tokens_lost_per_crash", "count", Lower),
    layer("dist.fd_detect_ticks_max", "ticks", Lower),
    layer("dist.ghost_processes_at_end", "count", Lower),
    // check
    layer("check.replay_boot_us", "us", Lower),
    layer("check.fingerprint_us", "us", Lower),
    layer("check.schedules", "count", Higher),
    layer("check.sleep_prunes", "count", Higher),
    layer("check.dedup_hits", "count", Higher),
    layer("check.max_depth", "count", Lower),
    // telemetry / trace
    layer("telemetry.overhead_pct", "%", Lower),
    layer("trace.dropped_spans", "count", Lower),
    layer("trace.spans_recorded", "count", Higher),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// The declaration matches the catalog field for field, so the
    /// names `acn-perf` prints (it prints the catalog, see
    /// `bench::tests`) are the names `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let doc = declared();
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let field =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|r| (field(r, "name"), field(r, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got: Vec<(String, String, String)> = rows(key)
                .iter()
                .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
                .collect();
            let want: Vec<(String, String, String)> = metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{key}");
        }
        for (row, m) in rows("end_to_end").iter().zip(END_TO_END) {
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
