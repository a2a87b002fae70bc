//! Request bodies: parsing, validation, and cache-key derivation.
//!
//! A run request carries exactly the knobs the `multipath run`/`trace`
//! CLI exposes, with the same spellings and the same defaults — the
//! loopback smoke test depends on a JSON body and a CLI invocation
//! mapping to the *same* simulation. The cache key is the run's
//! [`RunSpec::canonical_string`] plus the one document knob on top of it
//! (interval width, or explain table depth); the deadline is deliberately
//! excluded, since it changes when an answer arrives, never what it is.

use multipath_core::{AltPolicy, Features, RunSpec, SimConfig};
use multipath_testkit::Json;
use multipath_workload::Benchmark;

/// The most committed instructions one request may ask for, summed over
/// its programs (`commits × programs`). The CLI's default of 30,000
/// commits on all 8 contexts is 240,000; without a cap, a body such as
/// `{"commits": 1000000000000}` holds a worker until `max_cycles`.
pub const MAX_COMMITS_PER_REQUEST: u64 = 1_000_000;

/// Rejects a request whose total commit target exceeds
/// [`MAX_COMMITS_PER_REQUEST`].
fn check_size(commits: u64, programs: usize) -> Result<(), String> {
    let total = commits.saturating_mul(programs as u64);
    if total > MAX_COMMITS_PER_REQUEST {
        return Err(format!(
            "commits x programs = {total} exceeds the limit of {MAX_COMMITS_PER_REQUEST}"
        ));
    }
    Ok(())
}

/// A validated `POST /v1/run` body (also one sweep cell).
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The workload kernels, in request order.
    pub benches: Vec<Benchmark>,
    /// The feature set (default `rec-rs-ru`, as in the CLI).
    pub features: Features,
    /// The fully configured machine (geometry + features + policy).
    pub config: SimConfig,
    /// Committed instructions per program (default 30000).
    pub commits: u64,
    /// Workload seed (default 1).
    pub seed: u64,
    /// Time-series interval width in cycles (default 100).
    pub interval: u64,
    /// Optional wall-clock budget for the simulation, in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl RunRequest {
    /// Parses and validates a JSON request body.
    pub fn parse(body: &str) -> Result<RunRequest, String> {
        let doc = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        RunRequest::from_json(&doc)
    }

    /// Builds a request from an already-parsed JSON object (used directly
    /// for the cells of a sweep body).
    pub fn from_json(doc: &Json) -> Result<RunRequest, String> {
        let Json::Obj(map) = doc else {
            return Err("request body must be a JSON object".to_owned());
        };
        const KNOWN: [&str; 8] = [
            "benches",
            "features",
            "machine",
            "policy",
            "commits",
            "seed",
            "interval",
            "deadline_ms",
        ];
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field {key:?} (expected one of {})",
                    KNOWN.join(", ")
                ));
            }
        }

        let benches = doc
            .get("benches")
            .ok_or("missing required field \"benches\"")?
            .as_arr()
            .ok_or("\"benches\" must be an array of kernel names")?
            .iter()
            .map(|b| {
                let name = b.as_str().ok_or("\"benches\" entries must be strings")?;
                Benchmark::from_name(name)
                    .ok_or_else(|| format!("unknown benchmark {name:?} (see `multipath list`)"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if benches.is_empty() {
            return Err("\"benches\" must name at least one kernel".to_owned());
        }

        let features = match doc.get("features") {
            None => Features::rec_rs_ru(),
            Some(v) => {
                let s = v.as_str().ok_or("\"features\" must be a string")?;
                Features::from_name(s).ok_or_else(|| format!("unknown features {s:?}"))?
            }
        };
        let machine = match doc.get("machine") {
            None => SimConfig::big_2_16(),
            Some(v) => {
                let s = v.as_str().ok_or("\"machine\" must be a string")?;
                SimConfig::from_machine_name(s).ok_or_else(|| format!("unknown machine {s:?}"))?
            }
        };
        let mut config = machine.with_features(features);
        if let Some(v) = doc.get("policy") {
            let s = v.as_str().ok_or("\"policy\" must be a string")?;
            let policy = AltPolicy::from_label(s).ok_or_else(|| format!("unknown policy {s:?}"))?;
            config = config.with_alt_policy(policy);
        }
        if benches.len() > config.contexts {
            return Err(format!(
                "{} programs exceed the machine's {} hardware contexts",
                benches.len(),
                config.contexts
            ));
        }

        let commits = parse_u64(doc, "commits")?.unwrap_or(30_000);
        if commits == 0 {
            return Err("\"commits\" must be positive".to_owned());
        }
        check_size(commits, benches.len())?;
        let seed = parse_u64(doc, "seed")?.unwrap_or(1);
        let interval = parse_u64(doc, "interval")?.unwrap_or(100).max(1);
        let deadline_ms = parse_u64(doc, "deadline_ms")?;

        Ok(RunRequest {
            benches,
            features,
            config,
            commits,
            seed,
            interval,
            deadline_ms,
        })
    }

    /// The workload label (`"compress+gcc"`), as the CLI prints it.
    pub fn label(&self) -> String {
        self.benches
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The simulation this request names, under the CLI's stopping rule.
    pub fn spec(&self) -> RunSpec {
        RunSpec::new(
            self.config.clone(),
            self.benches.clone(),
            self.seed,
            self.commits,
        )
    }

    /// The content address of this request's result document: its
    /// canonical form, so JSON bodies spelling the same request with
    /// reordered keys share one key, and different requests never do.
    pub fn cache_key(&self) -> String {
        format!(
            "{};interval={}",
            self.spec().canonical_string(),
            self.interval
        )
    }
}

/// A validated `GET /v1/explain/:kernel` request.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The single kernel to attribute.
    pub bench: Benchmark,
    /// The feature set (default `rec-rs-ru`).
    pub features: Features,
    /// The fully configured machine.
    pub config: SimConfig,
    /// Committed instructions (default 30000).
    pub commits: u64,
    /// Workload seed (default 1).
    pub seed: u64,
    /// Rows per attribution table (default 10).
    pub top: usize,
}

impl ExplainRequest {
    /// Builds an explain request from the path's kernel name and the
    /// query parameters (`features`, `machine`, `policy`, `commits`,
    /// `seed`, `top`).
    pub fn from_query(kernel: &str, params: &[(String, String)]) -> Result<ExplainRequest, String> {
        let bench = Benchmark::from_name(kernel)
            .ok_or_else(|| format!("unknown benchmark {kernel:?} (see `multipath list`)"))?;
        let mut features = Features::rec_rs_ru();
        let mut machine = SimConfig::big_2_16();
        let mut policy = None;
        let mut commits: u64 = 30_000;
        let mut seed: u64 = 1;
        let mut top: usize = 10;
        for (key, value) in params {
            match key.as_str() {
                "features" => {
                    features = Features::from_name(value)
                        .ok_or_else(|| format!("unknown features {value:?}"))?;
                }
                "machine" => {
                    machine = SimConfig::from_machine_name(value)
                        .ok_or_else(|| format!("unknown machine {value:?}"))?;
                }
                "policy" => {
                    policy = Some(
                        AltPolicy::from_label(value)
                            .ok_or_else(|| format!("unknown policy {value:?}"))?,
                    );
                }
                "commits" => {
                    commits = value
                        .parse()
                        .ok()
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| format!("bad commits {value:?}"))?;
                }
                "seed" => {
                    seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                "top" => {
                    top = value.parse().map_err(|_| format!("bad top {value:?}"))?;
                }
                other => return Err(format!("unknown query parameter {other:?}")),
            }
        }
        check_size(commits, 1)?;
        let mut config = machine.with_features(features);
        if let Some(p) = policy {
            config = config.with_alt_policy(p);
        }
        Ok(ExplainRequest {
            bench,
            features,
            config,
            commits,
            seed,
            top,
        })
    }

    /// The simulation this request names, under the CLI's stopping rule.
    pub fn spec(&self) -> RunSpec {
        RunSpec::new(
            self.config.clone(),
            vec![self.bench],
            self.seed,
            self.commits,
        )
    }

    /// The content address of this request's explain document (see
    /// [`RunRequest::cache_key`]).
    pub fn cache_key(&self) -> String {
        format!("{};top={}", self.spec().canonical_string(), self.top)
    }
}

fn parse_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_cli() {
        let req = RunRequest::parse(r#"{"benches": ["compress"]}"#).unwrap();
        assert_eq!(req.label(), "compress");
        assert_eq!(req.features.label(), "REC/RS/RU");
        assert_eq!((req.commits, req.seed, req.interval), (30_000, 1, 100));
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn rejects_unknown_fields_and_bad_values() {
        assert!(
            RunRequest::parse(r#"{"benches": ["compress"], "bogus": 1}"#)
                .unwrap_err()
                .contains("unknown field")
        );
        assert!(RunRequest::parse(r#"{"benches": []}"#).is_err());
        assert!(RunRequest::parse(r#"{"benches": ["nope"]}"#).is_err());
        assert!(RunRequest::parse(r#"{"benches": ["gcc"], "commits": 0}"#).is_err());
        assert!(RunRequest::parse(r#"{"benches": ["gcc"], "features": "max"}"#).is_err());
        assert!(RunRequest::parse("[1,2]").is_err());
    }

    #[test]
    fn rejects_requests_above_the_commit_cap() {
        let run = |commits: u64, benches: &str| {
            RunRequest::parse(&format!(
                r#"{{"benches": [{benches}], "commits": {commits}}}"#
            ))
        };
        let one = r#""gcc""#;
        let four = r#""gcc","go","li","perl""#;
        assert!(run(MAX_COMMITS_PER_REQUEST, one).is_ok());
        assert!(run(MAX_COMMITS_PER_REQUEST / 4, four).is_ok());
        assert!(run(MAX_COMMITS_PER_REQUEST + 1, one)
            .unwrap_err()
            .contains("exceeds the limit"));
        assert!(run(MAX_COMMITS_PER_REQUEST / 4 + 1, four).is_err());
        assert!(run(1_000_000_000_000, one).is_err());
        // Saturates rather than wrapping to a small product.
        assert!(check_size(u64::MAX, 2).is_err());
        // The CLI's default budget on all eight contexts fits.
        let eight = r#""compress","gcc","go","li","perl","su2cor","tomcatv","vortex""#;
        assert!(RunRequest::parse(&format!(r#"{{"benches": [{eight}]}}"#)).is_ok());

        let explain = |commits: u64| {
            ExplainRequest::from_query("go", &[("commits".to_owned(), commits.to_string())])
        };
        assert!(explain(MAX_COMMITS_PER_REQUEST).is_ok());
        assert!(explain(MAX_COMMITS_PER_REQUEST + 1)
            .unwrap_err()
            .contains("exceeds the limit"));
    }

    #[test]
    fn cache_key_is_stable_across_json_key_order() {
        let a = RunRequest::parse(
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "rec"}"#,
        )
        .unwrap();
        let b = RunRequest::parse(
            r#"{"features": "rec", "commits": 500, "seed": 3, "benches": ["compress","gcc"]}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        // The key is the canonical string itself, not a digest of it.
        assert_eq!(
            a.cache_key(),
            format!("{};interval=100", a.spec().canonical_string())
        );
        // Deadline is excluded: it cannot change the result bytes.
        let c = RunRequest::parse(
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500,
                "features": "rec", "deadline_ms": 5}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), c.cache_key());
        // Every simulation knob is included.
        for other in [
            r#"{"benches": ["gcc","compress"], "seed": 3, "commits": 500, "features": "rec"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 4, "commits": 500, "features": "rec"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 501, "features": "rec"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "tme"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "rec",
                "interval": 200}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "rec",
                "policy": "nostop-8"}"#,
        ] {
            let d = RunRequest::parse(other).unwrap();
            assert_ne!(a.cache_key(), d.cache_key(), "{other}");
        }
    }

    #[test]
    fn explain_request_parses_query_parameters() {
        let req = ExplainRequest::from_query(
            "compress",
            &[
                ("features".to_owned(), "rec".to_owned()),
                ("commits".to_owned(), "4000".to_owned()),
                ("top".to_owned(), "3".to_owned()),
            ],
        )
        .unwrap();
        assert_eq!(req.bench.name(), "compress");
        assert_eq!(req.features.label(), "REC");
        assert_eq!((req.commits, req.top), (4000, 3));
        assert!(ExplainRequest::from_query("compress", &[("x".into(), "1".into())]).is_err());
        assert!(ExplainRequest::from_query("nope", &[]).is_err());
    }
}
