//! The metric registry: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` is this table in the
//! driver's format; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// Workload names, in round-robin order.
pub const WORKLOADS: [&str; 5] = [
    "mem-search",
    "disk-search",
    "stream-churn",
    "serve-fanout",
    "train-rpq",
];

/// An end-to-end metric: something a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen between
    /// two sets of runs of **one seed** — what `compare` judges with.
    pub bound: f64,
    /// The bound `BENCHMARK.json` gives the driver, whose sets are **ten
    /// seeds** on a sandbox with co-tenants: at least the widest spread
    /// between seeds seen while sizing (README, "Run-to-run spread"). 0 for
    /// a metric the driver does not get as end-to-end.
    pub driver_bound: f64,
    /// Exact metrics are counts or ratios of counts: they must repeat
    /// bit-for-bit for a seed, and `compare` reports any difference between
    /// two sets as real.
    pub exact: bool,
    /// Workloads that measure it; empty means all five. A metric measured
    /// by every workload is in `BENCHMARK.json`'s `end_to_end`; one that
    /// only some workloads have is reported there under `per_layer` (with
    /// its layer as a prefix) because the driver wants every end-to-end
    /// metric from every workload and none of them ever 0.
    pub workloads: &'static [&'static str],
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    /// Whether the driver sees it as an end-to-end metric.
    pub fn in_contract(&self) -> bool {
        self.driver_bound > 0.0
    }
}

const fn everywhere(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    driver_bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver_bound,
        exact,
        workloads: &[],
    }
}

const fn only_on(
    workload: &'static [&'static str],
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver_bound: 0.0,
        exact,
        workloads: workload,
    }
}

use Better::{Higher, Lower};

/// The sixteen end-to-end metrics.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 16] = [
    everywhere("setup_s", "s", Lower, 0.15, 0.25, false),
    everywhere("qps", "1/s", Higher, 0.10, 0.25, false),
    everywhere("p50_us", "us", Lower, 0.10, 0.25, false),
    everywhere("p99_us", "us", Lower, 0.15, 0.25, false),
    everywhere("recall_at_10", "fraction", Higher, 0.005, 0.10, true),
    everywhere("filtered_qps", "1/s", Higher, 0.10, 0.25, false),
    everywhere("filtered_recall_at_10", "fraction", Higher, 0.005, 0.25, true),
    everywhere("bytes_per_vector", "B", Lower, 0.005, 0.02, true),
    everywhere("peak_rss_mb", "MB", Lower, 0.05, 0.10, false),
    only_on(&["train-rpq"], "train_s", "s", Lower, 0.10, false),
    only_on(&["stream-churn"], "writes_per_s", "1/s", Higher, 0.10, false),
    only_on(&["stream-churn"], "consolidate_p50_ms", "ms", Lower, 0.15, false),
    only_on(&["disk-search"], "io_sectors_per_query", "count", Lower, 0.005, true),
    only_on(&["serve-fanout"], "cluster_us_per_request", "us", Lower, 0.10, false),
    only_on(&["serve-fanout"], "overload_goodput_frac", "fraction", Higher, 0.005, true),
    // Always 0 on a green run, so it cannot be a driver metric (a share of
    // a zero median is undefined); the driver reads the same fact from the
    // result line's `attempted` / `failed`.
    EndToEnd {
        name: "failed_frac",
        unit: "fraction",
        better: Lower,
        bound: 0.0,
        driver_bound: 0.0,
        exact: true,
        workloads: &[],
    },
];

/// A per-layer metric: measured from outside, by timing calls into the
/// layer's public functions or from the traced run's self times.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Modeled quantities (device model, virtual clock) are reported but
    /// never added to a measured number.
    pub modeled: bool,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        modeled: false,
        moves,
    }
}

const fn modeled(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        modeled: true,
        moves,
    }
}

/// Every per-layer metric; the module names are the layers.
#[rustfmt::skip]
pub const PER_LAYER: [Layer; 64] = [
    layer("graph.hnsw_build_s", "s", Lower, "setup_s, writes_per_s on mem-search, serve-fanout"),
    layer("graph.vamana_build_s", "s", Lower, "setup_s, writes_per_s on disk-search, train-rpq"),
    layer("graph.traverse_us", "us", Lower, "qps, p50_us on mem-search (largest share); less on disk-search"),
    layer("graph.hops_per_query", "count", Lower, "nothing unless routing changes; then recall_at_10 everywhere"),
    layer("graph.dist_comps_per_query", "count", Lower, "nothing unless routing changes; then recall_at_10 everywhere"),
    layer("graph.beam_exact_us", "us", Lower, "control: unmoved by quantizer work; writes_per_s on stream-churn"),
    layer("quant.pq_train_s", "s", Lower, "train_s, setup_s on the four search workloads"),
    layer("quant.encode_us_per_vector", "us", Lower, "setup_s, writes_per_s on the search workloads"),
    layer("quant.encode_one_us", "us", Lower, "writes_per_s on stream-churn"),
    layer("quant.lut_build_us", "us", Lower, "qps on mem-search (<= 12 %), disk-search (<= 7 %); none on train-rpq"),
    layer("quant.adc_score_us", "us", Lower, "qps on mem-search; bounds the payoff of a faster ADC kernel"),
    layer("quant.adc_gather_mcps", "Mc/s", Higher, "quant.adc_score_us"),
    layer("quant.adc_scan_mcps", "Mc/s", Higher, "quant.adc_score_us; gather/scan gap = SoA chunk-major cache cost"),
    layer("quant.adc_scalar_mcps", "Mc/s", Higher, "oracle beside quant.adc_gather_mcps"),
    layer("quant.code_bytes_per_vector", "B", Lower, "bytes_per_vector everywhere"),
    layer("quant.pq_recall_at_10", "fraction", Higher, "baseline beside recall_at_10 on train-rpq"),
    layer("linalg.sq_l2_ns", "ns", Lower, "qps on disk-search (rerank), writes_per_s on stream-churn"),
    layer("core.train_s", "s", Lower, "end-to-end train_s on train-rpq"),
    layer("core.sample_triplets_s", "s", Lower, "train_s on train-rpq"),
    layer("core.sample_routing_s", "s", Lower, "train_s on train-rpq"),
    layer("core.final_loss", "loss", Lower, "recall_at_10 on train-rpq"),
    layer("core.deterministic", "bool", Higher, "must stay 1: both trainings give identical codes"),
    layer("memory.build_s", "s", Lower, "setup_s, writes_per_s on mem-search"),
    layer("memory.bytes", "B", Lower, "bytes_per_vector on mem-search"),
    layer("filter.overhead_frac", "fraction", Lower, "filtered_qps (filtered / unfiltered pass time - 1)"),
    layer("filter.post_filter_us", "us", Lower, "none end to end: the strategy filtered_qps does not use"),
    layer("disk.build_s", "s", Lower, "setup_s, writes_per_s on disk-search"),
    layer("disk.store_bytes", "B", Lower, "none end to end (on-disk footprint)"),
    layer("disk.self_us", "us", Lower, "qps, p50_us on disk-search only"),
    layer("disk.pread_probe_us", "us", Lower, "lower bound on the raw-read share of disk.self_us"),
    layer("disk.io_sectors_per_query", "count", Lower, "end-to-end io_sectors_per_query on disk-search"),
    layer("disk.coalesced_ios_per_query", "count", Lower, "io_sectors_per_query"),
    layer("disk.rerank_reads_per_query", "count", Lower, "io_sectors_per_query"),
    modeled("disk.modeled_io_us_per_query", "us", Lower, "nothing measured: device model"),
    modeled("disk.modeled_stall_us_per_query", "us", Lower, "nothing measured: device model"),
    layer("cache.hit_rate", "fraction", Higher, "io_sectors_per_query on disk-search"),
    layer("cache.trace_warm_s", "s", Lower, "none end to end (optional warm-up)"),
    layer("cache.trace_hit_rate", "fraction", Higher, "io_sectors_per_query if trace warming became the default"),
    layer("stream.build_s", "s", Lower, "setup_s on stream-churn"),
    layer("stream.insert_us", "us", Lower, "writes_per_s on stream-churn"),
    layer("stream.remove_ns", "ns", Lower, "writes_per_s on stream-churn"),
    layer("stream.search_us", "us", Lower, "qps, p50_us on stream-churn"),
    layer("stream.writes_per_s", "1/s", Higher, "end-to-end writes_per_s on stream-churn"),
    layer("stream.consolidate_ms", "ms", Lower, "writes_per_s, consolidate_p50_ms on stream-churn"),
    layer("stream.consolidate_p50_ms", "ms", Lower, "end-to-end consolidate_p50_ms on stream-churn"),
    layer("stream.reclaimed_per_consolidate", "count", Lower, "consolidate_p50_ms"),
    layer("stream.tombstone_frac_mean", "fraction", Lower, "p50_us on stream-churn (reads pay the tombstone filter)"),
    layer("serve.build_s", "s", Lower, "setup_s, writes_per_s on serve-fanout"),
    layer("serve.sharded_search_us", "us", Lower, "baseline under engine.*"),
    layer("serve.shard_search_us", "us", Lower, "p50_us on serve-fanout"),
    layer("serve.merge_ns", "ns", Lower, "p50_us on serve-fanout"),
    layer("engine.overhead_us", "us", Lower, "p50_us on serve-fanout"),
    layer("engine.speedup_vs_sequential", "ratio", Higher, "qps on serve-fanout; <= 2 on two cores"),
    layer("metrics.record_ns", "ns", Lower, "p99_us on serve-fanout"),
    layer("metrics.snapshot_us", "us", Lower, "none end to end (dashboard read)"),
    layer("cluster.search_us", "us", Lower, "cluster_us_per_request"),
    layer("cluster.us_per_request", "us", Lower, "end-to-end cluster_us_per_request on serve-fanout"),
    layer("cluster.overload_goodput_frac", "fraction", Higher, "end-to-end overload_goodput_frac on serve-fanout"),
    layer("cluster.shed_queue_full", "count", Lower, "overload_goodput_frac"),
    layer("cluster.shed_deadline", "count", Lower, "overload_goodput_frac"),
    modeled("cluster.virtual_p99_us", "us", Lower, "nothing measured: virtual clock"),
    layer("cluster.cost_model_ratio", "ratio", Lower, "how far measured cost is from the cost model's"),
    layer("trace.overhead_frac", "fraction", Lower, "must stay < 0.15 or the layer split is not trusted"),
    layer("trace.untraced_us_per_query", "us", Lower, "what the traced self times should sum to (same process, tracing off)"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v[key]
            .as_str()
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        // The end-to-end metrics only some workloads have reach the driver
        // as per-layer metrics.
        for (e2e, layer) in [
            ("io_sectors_per_query", "disk.io_sectors_per_query"),
            ("train_s", "core.train_s"),
            ("writes_per_s", "stream.writes_per_s"),
            ("consolidate_p50_ms", "stream.consolidate_p50_ms"),
            ("cluster_us_per_request", "cluster.us_per_request"),
            ("overload_goodput_frac", "cluster.overload_goodput_frac"),
        ] {
            let m = end_to_end(e2e).unwrap();
            assert!(!m.workloads.is_empty() && !m.in_contract());
            let l = PER_LAYER.iter().find(|l| l.name == layer).unwrap();
            assert_eq!((l.unit, l.better), (m.unit, m.better));
        }
    }

    #[test]
    fn manifest_workloads_match() {
        let m = manifest();
        let listed: Vec<&str> = m["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(listed, WORKLOADS);
    }

    #[test]
    fn manifest_end_to_end_is_the_registry_subset_every_workload_measures() {
        let m = manifest();
        let listed = m["end_to_end"].as_array().unwrap();
        let want: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.in_contract()).collect();
        assert_eq!(listed.len(), want.len());
        for (got, want) in listed.iter().zip(want) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better.as_str(), "{}", want.name);
            assert_eq!(
                got["bound"].as_f64(),
                Some(want.driver_bound),
                "{}",
                want.name
            );
            assert!(want.driver_bound <= 0.25 && want.driver_bound >= want.bound);
        }
    }

    #[test]
    fn manifest_per_layer_is_the_registry() {
        let m = manifest();
        let listed = m["per_layer"].as_array().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        assert!(listed.len() <= 128);
        for (got, want) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better.as_str(), "{}", want.name);
        }
    }
}
