//! `BENCH_<name>.json`: the machine-readable bench report format.
//!
//! Schema v2 (all fields required):
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "name": "fig3",
//!   "trials": 3,
//!   "config": {"graph": "rmat8", "hosts": "2"},
//!   "metrics": [{"name": "bfs_median_ms", "unit": "ms", "value": 12.5}],
//!   "phases": [{"name": "phase.compute_ns", "ns": 123456}],
//!   "counters": [["fabric.sends", 4096]]
//! }
//! ```
//!
//! A report records; it gates nothing. What `run_tests.sh` gates is the repo
//! benchmark's seed-pure rows against `results/BENCH_pr<N>.json`
//! (`bench_pins`), a different and simpler document.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Version stamped into every report; bump on breaking format changes.
pub const SCHEMA_VERSION: u64 = 2;

/// One measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name, e.g. `bfs_median_ms`.
    pub name: String,
    /// Unit label, e.g. `ms`, `msgs/s`, `count`.
    pub unit: String,
    /// Measured value (median over trials for time-like metrics).
    pub value: f64,
}

/// One entry of the per-phase time breakdown (trace-derived, not
/// wall-clock subtraction).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseNs {
    /// Phase counter name, e.g. `phase.compute_ns`.
    pub name: String,
    /// Accumulated nanoseconds across the run.
    pub ns: u64,
}

/// A full bench report: what one `fig*` binary measured.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// Number of trials the medians were taken over.
    pub trials: u64,
    /// Free-form config echo (graph, hosts, sizes...), for provenance.
    pub config: Vec<(String, String)>,
    /// The measurements.
    pub metrics: Vec<Metric>,
    /// Trace-derived per-phase breakdown.
    pub phases: Vec<PhaseNs>,
    /// Non-zero counter deltas over the measured section.
    pub counters: Vec<(String, u64)>,
}

impl BenchReport {
    /// An empty report shell for `name`.
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            trials: 1,
            config: Vec::new(),
            metrics: Vec::new(),
            phases: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serialize to the schema-v2 JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("name".into(), Json::Str(self.name.clone())),
            ("trials".into(), Json::Num(self.trials as f64)),
            (
                "config".into(),
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(m.name.clone())),
                                ("unit".into(), Json::Str(m.unit.clone())),
                                ("value".into(), Json::Num(m.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "phases".into(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(p.name.clone())),
                                ("ns".into(), Json::Num(p.ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|(k, v)| {
                            Json::Arr(vec![Json::Str(k.clone()), Json::Num(*v as f64)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse and validate a schema-v2 document.
    pub fn from_json(doc: &Json) -> Result<BenchReport, String> {
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let trials = doc
            .get("trials")
            .and_then(Json::as_u64)
            .ok_or("missing trials")?;
        let config = match doc.get("config") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("config.{k} must be a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing config object".into()),
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("missing metrics array")?
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric missing name")?
                    .to_string();
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metric {name} missing unit"))?
                    .to_string();
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric {name} missing value"))?;
                Ok(Metric { name, unit, value })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let phases = doc
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("missing phases array")?
            .iter()
            .map(|p| {
                let name = p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("phase missing name")?
                    .to_string();
                let ns = p
                    .get("ns")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("phase {name} missing ns"))?;
                Ok(PhaseNs { name, ns })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = doc
            .get("counters")
            .and_then(Json::as_arr)
            .ok_or("missing counters array")?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr().ok_or("counter entry must be [name, value]")?;
                match pair {
                    [Json::Str(k), v] => {
                        let v = v.as_u64().ok_or_else(|| {
                            format!("counter {k} value must be a non-negative integer")
                        })?;
                        Ok((k.clone(), v))
                    }
                    _ => Err("counter entry must be [name, value]".to_string()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport { name, trials, config, metrics, phases, counters })
    }

    /// Parse a report from JSON text.
    pub fn parse_str(text: &str) -> Result<BenchReport, String> {
        BenchReport::from_json(&Json::parse(text)?)
    }

    /// The file name this report is written under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Write `BENCH_<name>.json` into `dir` (created if missing).
    /// Returns the written path.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            name: "fig3".into(),
            trials: 3,
            config: vec![("graph".into(), "rmat8".into()), ("hosts".into(), "2".into())],
            metrics: vec![
                Metric { name: "bfs_median_ms".into(), unit: "ms".into(), value: 12.5 },
                Metric { name: "fabric_sends".into(), unit: "count".into(), value: 4096.0 },
            ],
            phases: vec![
                PhaseNs { name: "phase.compute_ns".into(), ns: 1_000_000 },
                PhaseNs { name: "phase.reduce_ns".into(), ns: 250_000 },
            ],
            counters: vec![("fabric.sends".into(), 4096), ("lci.enq_rejected".into(), 7)],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let r = sample();
        let text = r.to_json().pretty();
        let back = BenchReport::parse_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn required_fields_are_enforced() {
        let r = sample();
        let full = r.to_json();
        // Dropping any top-level field must fail validation.
        if let Json::Obj(fields) = &full {
            for skip in 0..fields.len() {
                let pruned = Json::Obj(
                    fields
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, kv)| kv.clone())
                        .collect(),
                );
                assert!(
                    BenchReport::from_json(&pruned).is_err(),
                    "dropping field {} should fail",
                    fields[skip].0
                );
            }
        } else {
            panic!("report must serialize to an object");
        }
    }

    #[test]
    fn bad_schema_version_rejected() {
        let text = sample().to_json().pretty().replace(
            "\"schema_version\": 2",
            "\"schema_version\": 99",
        );
        let err = BenchReport::parse_str(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "lci_trace_report_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let r = sample();
        let path = r.write_to_dir(&dir).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "BENCH_fig3.json");
        let back = BenchReport::parse_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, r);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
