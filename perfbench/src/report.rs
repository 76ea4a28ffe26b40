//! The result line: one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`, printed last on stdout.

use std::collections::BTreeMap;

use qdgnn_obs::json;
#[cfg(test)]
use qdgnn_obs::json::Value;

/// End-to-end metrics (untraced run), with units. Every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("f1", "ratio"),
    ("ok_rate", "ratio"),
    ("epochs_per_s", "1/s"),
];

/// Per-layer metrics (traced run), with units. Every workload reports
/// all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("data.queries_ms", "ms"),
    ("inputs.tensors_ms", "ms"),
    ("inputs.encode_us", "us"),
    ("models.cache_build_ms", "ms"),
    ("models.ref_forward_us", "us"),
    ("models.cached_forward_us", "us"),
    ("models.batch16_forward_us_per_query", "us"),
    ("identify.bfs_us", "us"),
    ("identify.candidates", "count"),
    ("identify.community_size", "count"),
    ("identify.kept_ratio", "ratio"),
    ("stage.query_us", "us"),
    ("stage.batch16_query_us", "us"),
    ("stage.batch_speedup", "x"),
    ("engine.submit_us", "us"),
    ("engine.latency_p50_ms", "ms"),
    ("engine.latency_p95_ms", "ms"),
    ("engine.wait_ms", "ms"),
    ("engine.shed", "count"),
    ("engine.rejected", "count"),
    ("engine.worker_panics", "count"),
    ("train.epoch_ms", "ms"),
    ("train.val_f1", "ratio"),
    ("tensor.matmul_us", "us"),
    ("tensor.matmul.gflops", "GFLOP/s"),
    ("tensor.matmul.mb_moved", "MB"),
    ("tensor.spmm_us", "us"),
    ("tensor.spmm.gflops", "GFLOP/s"),
    ("tensor.spmm.mb_moved", "MB"),
    ("check.max_abs_dscore", "abs"),
    ("qps", "1/s"),
    ("p95_ms", "ms"),
    ("gen.lag_p95_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("trace.overhead_pct", "%"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    /// Serializes the result line. Fails on a non-finite value, which
    /// JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, m) in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(name),
                json::num(m.value),
                json::escape(&m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }

    /// Parses a result line, requiring exactly the four top-level keys
    /// and a `value`/`unit` pair per metric.
    #[cfg(test)]
    pub fn parse(line: &str) -> Result<Report, String> {
        let doc = json::parse(line)?;
        let top = doc.as_obj().ok_or("result is not an object")?;
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |k: &str| -> Result<u64, String> {
            let v = top[k].as_num().ok_or(format!("{k} is not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("{k} is not a whole number: {v}"));
            }
            Ok(v as u64)
        };
        let correct = match top["correct"] {
            Value::Bool(b) => b,
            _ => return Err("correct is not a boolean".into()),
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in top["metrics"].as_obj().ok_or("metrics is not an object")? {
            let obj = m
                .as_obj()
                .ok_or(format!("metric {name} is not an object"))?;
            if obj.len() != 2 {
                return Err(format!("metric {name} must have exactly value and unit"));
            }
            let value = m
                .get("value")
                .and_then(Value::as_num)
                .ok_or(format!("{name}.value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or(format!("{name}.unit"))?;
            metrics.insert(
                name.clone(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        Ok(Report {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut metrics = BTreeMap::new();
        for (i, (name, unit)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            let value = (i as f64 + 1.0) * 0.1234567 + 1e-9;
            metrics.insert(
                name.to_string(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn schema_round_trip_keeps_every_digit() {
        let r = sample();
        let line = r.to_json().unwrap();
        assert!(!line.contains('\n'));
        assert_eq!(Report::parse(&line).unwrap(), r);
    }

    #[test]
    fn rejects_extra_keys_non_finite_values_and_fractional_counts() {
        let mut r = sample();
        r.metrics.get_mut("qps").unwrap().value = f64::NAN;
        assert!(r.to_json().is_err());
        assert!(Report::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}"#
        )
        .is_err());
        assert!(Report::parse(
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#
        )
        .is_err());
        assert!(
            Report::parse(r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#).is_err()
        );
        assert!(Report::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1, "unit": "s", "x": 2}}}"#
        )
        .is_err());
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert_eq!(unit_of("setup_s"), Some("s"));
    }
}
