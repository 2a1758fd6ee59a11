//! The metric registry: `BENCHMARK.json` at the repo root is the single
//! source of the workload and metric names, units, directions and bounds.
//! It is compiled in, and every emitted metric is checked against it.

use std::collections::BTreeMap;

use atim_autotune::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the reference; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Registry {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Registry {
    /// # Panics
    /// Panics when the compiled-in file is malformed: the build is broken.
    pub fn load() -> Registry {
        Self::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    }

    fn parse(text: &str) -> Result<Registry, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            let mut out = Vec::new();
            for m in json
                .get(key)
                .and_then(Json::as_arr)
                .map_err(|e| e.to_string())?
            {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .map_err(|e| e.to_string())
                };
                out.push(MetricDef {
                    name: text("name")?,
                    unit: text("unit")?,
                    higher_is_better: match text("better")?.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("bad direction {other:?}")),
                    },
                    bound: m.get("bound").and_then(Json::as_f64).ok(),
                });
            }
            Ok(out)
        };
        let mut workloads = Vec::new();
        for w in json
            .get("workloads")
            .and_then(Json::as_arr)
            .map_err(|e| e.to_string())?
        {
            let name = w.get("name").and_then(Json::as_str);
            workloads.push(name.map_err(|e| e.to_string())?.to_string());
        }
        Ok(Registry {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .map_err(|e| e.to_string())?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The metrics of one run, collected against the registry: an unknown name
/// or a second value for a name is a bug in a probe and panics at once.
pub struct Metrics<'r> {
    expected: &'r [MetricDef],
    values: BTreeMap<String, f64>,
}

impl<'r> Metrics<'r> {
    pub fn new(expected: &'r [MetricDef]) -> Self {
        Metrics {
            expected,
            values: BTreeMap::new(),
        }
    }

    pub fn emit(&mut self, name: &str, value: f64) {
        assert!(
            self.expected.iter().any(|m| m.name == name),
            "metric {name} is not in BENCHMARK.json"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // An empty float sum is -0.0; print an idle layer as plain 0.
        let previous = self.values.insert(name.to_string(), value + 0.0);
        assert!(previous.is_none(), "metric {name} emitted twice");
    }

    /// `(definition, value)` in registry order.
    ///
    /// # Panics
    /// Panics when a declared metric was never emitted.
    pub fn finish(&self) -> Vec<(&'r MetricDef, f64)> {
        self.expected
            .iter()
            .map(|m| {
                let value = self.values.get(&m.name);
                (
                    m,
                    *value.unwrap_or_else(|| panic!("metric {} was never emitted", m.name)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_registry_meets_the_contract() {
        let r = Registry::load();
        assert!((2..=8).contains(&r.workloads.len()));
        assert!((1..=16).contains(&r.end_to_end.len()));
        assert!((1..=128).contains(&r.per_layer.len()));
        let setup = r.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &r.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let mut names: Vec<&str> = (r.end_to_end.iter().chain(&r.per_layer))
            .map(|m| m.name.as_str())
            .chain(r.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "names must be used once");
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn unknown_metric_names_are_rejected() {
        let r = Registry::load();
        Metrics::new(&r.end_to_end).emit("no_such_metric", 1.0);
    }

    #[test]
    #[should_panic(expected = "never emitted")]
    fn missing_metrics_are_rejected() {
        let r = Registry::load();
        Metrics::new(&r.end_to_end).finish();
    }
}
