//! `BENCHMARK.json`, compiled in: the one place that fixes the metric
//! names, units, directions, bounds, workload names and run length. The
//! program computes a value for every name listed there and refuses to
//! report one that is not.

use symi_telemetry::Value;

use crate::stats::Better;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics that are exact functions of the inputs: identical in
/// every repetition of a run and in every run of the same seed. Their
/// `bound` in `BENCHMARK.json` only has to absorb the spread across seeds.
pub const EXACT: [&str; 3] = ["steps_to_target", "token_survival", "final_loss"];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share by which the metric may worsen; end-to-end metrics only.
    pub bound: Option<f64>,
}

impl Metric {
    pub fn is_exact(&self) -> bool {
        EXACT.contains(&self.name.as_str())
    }

    /// `setup_s` reports the median repetition where the timings report the
    /// most favourable one: the first repetition sets up cold, and the
    /// steady figure is the one a later change moves.
    pub fn reports_median(&self) -> bool {
        self.name == "setup_s"
    }
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(v: &Value, key: &str) -> String {
    v.get(key).as_str().unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}")).into()
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).as_arr().unwrap_or_else(|| panic!("BENCHMARK.json: missing list {key:?}"))
}

fn metrics(v: &Value, key: &str) -> Vec<Metric> {
    items(v, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: match text(m, "better").as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("BENCHMARK.json: better = {other:?}"),
            },
            bound: m.get("bound").as_f64(),
        })
        .collect()
}

pub fn load() -> Spec {
    let v = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: v.get("run_seconds").as_u64().expect("BENCHMARK.json: run_seconds"),
        workloads: items(&v, "workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics(&v, "end_to_end"),
        per_layer: metrics(&v, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{RUN_SECONDS, WORKLOADS};

    #[test]
    fn benchmark_json_agrees_with_the_program() {
        let spec = load();
        assert_eq!(spec.run_seconds, RUN_SECONDS);
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        for exact in EXACT {
            assert!(spec.end_to_end.iter().any(|m| m.name == exact), "{exact} is listed");
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut all: Vec<&str> =
            spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), spec.end_to_end.len() + spec.per_layer.len(), "names are unique");
    }
}
