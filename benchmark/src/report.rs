//! What one run prints: a row per metric for people, then the contract's
//! single JSON object as the last line of standard output.

use atim_autotune::Json;

use crate::phases::Tally;
use crate::registry::{MetricDef, Metrics};
use crate::stats::Summary;

/// The result of one `--workload` run.
pub struct RunOutput<'r> {
    pub workload: &'static str,
    pub metrics: Metrics<'r>,
    /// Sample statistics behind the timing medians, by metric name.
    pub details: Vec<(String, Summary)>,
    pub tally: Tally,
}

impl<'r> RunOutput<'r> {
    /// An empty result that accepts exactly the `expected` metrics.
    pub fn new(workload: &'static str, expected: &'r [MetricDef]) -> Self {
        RunOutput {
            workload,
            metrics: Metrics::new(expected),
            details: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Emits the median of a timing's samples and keeps their statistics
    /// for the printed row.  No samples: the stage is not on this
    /// workload's path and did no work.
    pub fn timing(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            self.metrics.emit(name, 0.0);
        } else {
            let summary = Summary::of(samples);
            self.metrics.emit(name, summary.median);
            self.details.push((name.to_string(), summary));
        }
    }

    /// Prints `workload metric value unit [n/min/max/tail]` rows and the
    /// final JSON line; returns whether the run passed.
    pub fn print(&self) -> bool {
        let mut fields = Vec::new();
        for (def, value) in self.metrics.finish() {
            let detail = self
                .details
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, s)| {
                    let tail = s
                        .tail
                        .map_or(String::new(), |(p, v)| format!(" p{p:.2}={v:.6}"));
                    format!("  n={} min={:.6} max={:.6}{tail}", s.n, s.min, s.max)
                })
                .unwrap_or_default();
            println!(
                "{} {} {value} {}{detail}",
                self.workload, def.name, def.unit
            );
            fields.push((
                def.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(def.unit.clone())),
                ]),
            ));
        }
        let correct = !self.tally.incorrect;
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Int(self.tally.attempted as i64)),
            ("failed".into(), Json::Int(self.tally.failed as i64)),
            ("metrics".into(), Json::Obj(fields)),
        ]);
        println!("{line}");
        correct && self.tally.failed == 0
    }
}
