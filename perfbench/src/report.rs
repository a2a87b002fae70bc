//! Metric declarations, output checks, small statistics helpers, host
//! provenance, and the one-line result the benchmark ends with.
//!
//! Metric names and units live in one place, `BENCHMARK.json`; a workload
//! produces named values and this module attaches the declared units.

use multipath_testkit::Json;
use std::fmt::Write as _;
use std::path::Path;

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists
/// (`end_to_end` or `per_layer`), in declared order.
pub fn declared(list: &str) -> Vec<(String, String)> {
    let path = crate::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a {list} metric lacks {k:?}"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// A value a workload produced, by metric name.
pub type Measured = (String, f64);

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64) -> Measured {
    (name.into(), value)
}

/// One declared metric with its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

/// Lays `produced` out in the declared order of `list`. A produced name
/// that is not declared is a bug and panics. A declared name nothing
/// produced panics too, unless `absent_reads_zero`: a layer a workload
/// does not exercise did no work on it.
fn lay_out(list: &str, produced: Vec<Measured>, absent_reads_zero: bool) -> Vec<Metric> {
    let declared = declared(list);
    for (name, _) in &produced {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "{name} is produced but not declared in BENCHMARK.json's {list}"
        );
    }
    declared
        .into_iter()
        .map(|(name, unit)| {
            let value = match produced.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None if absent_reads_zero => 0.0,
                None => panic!("{name} is declared in {list} but was not produced"),
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// The per-layer metrics of a traced run, in declared order.
pub fn per_layer(produced: Vec<Measured>) -> Vec<Metric> {
    lay_out("per_layer", produced, true)
}

/// The end-to-end numbers of one untraced run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up time.
    pub setup_s: f64,
    /// Wall time of one unit of the workload (a suite pass, a pass over
    /// the cells, or a block of serve requests): the 10th percentile over
    /// the run's units, which tracks the uncontended host.
    pub wall_s: f64,
    /// Simulated committed instructions per host second, in millions.
    pub minst_per_s: f64,
    /// Latencies of operations that computed their result, in ms.
    pub cold_ms: Vec<f64>,
    /// Latencies of operations repeating earlier ones, in ms.
    pub hit_ms: Vec<f64>,
    /// Operations completed per second.
    pub req_per_s: f64,
}

impl EndToEnd {
    /// The metrics in declared order (peak RSS is read here, at the end).
    pub fn metrics(&self) -> Vec<Metric> {
        let produced = vec![
            metric("setup_s", self.setup_s),
            metric("wall_s", self.wall_s),
            metric("minst_per_s", self.minst_per_s),
            metric("peak_rss_mb", peak_rss_mb()),
            metric("cold_p50_ms", percentile(&self.cold_ms, 50.0)),
            metric("cold_p99_ms", percentile(&self.cold_ms, 99.0)),
            metric("hit_p50_ms", percentile(&self.hit_ms, 50.0)),
            metric("hit_p99_ms", percentile(&self.hit_ms, 99.0)),
            metric("req_per_s", self.req_per_s),
        ];
        lay_out("end_to_end", produced, false)
    }

    /// Sample counts behind the latency percentiles.
    pub fn sample_note(&self) -> String {
        format!(
            "latency percentiles over: cold={} hit={} samples",
            self.cold_ms.len(),
            self.hit_ms.len()
        )
    }
}

/// Output checks: every comparison the benchmark makes counts as one
/// attempted operation.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Adds another set of checks.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds since `t`.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// This process's resident-memory high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th, in clock ticks (100 per second).
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// The machine and build a report was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the measured tree, when it is a git checkout.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// UTC date of the run.
    pub date: String,
}

/// Reads the host provenance; `root` is the measured repository.
pub fn host(root: &Path) -> Host {
    let run = |cmd: &mut std::process::Command| {
        cmd.stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let mut git = std::process::Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(parent) = root.parent() {
        // Never report the revision of an unrelated enclosing repository.
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    Host {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        rustc: run(std::process::Command::new("rustc").arg("-V"))
            .unwrap_or_else(|| "unknown".to_owned()),
        git_rev: run(&mut git).unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        date: utc_date(),
    }
}

fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Days since 1970-01-01 to a civil date (Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number; a non-finite value (a bug upstream) reads 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final stdout line the benchmark contract asks for.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics_json(metrics)
    )
}

/// The full report written next to the span log.
#[allow(clippy::too_many_arguments)]
pub fn report_json(
    workload: &str,
    seed: u64,
    trace: bool,
    seconds: f64,
    host: &Host,
    checks: &Checks,
    metrics: &[Metric],
    notes: &[String],
) -> String {
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| format!("\"{}\"", escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  \"schema\": \"multipath-perfbench/v1\",\n  \"workload\": \"{workload}\",\n  \
         \"seed\": {seed},\n  \"trace\": {trace},\n  \"seconds\": {seconds},\n  \
         \"host\": {{\"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"profile\": \"{}\", \
         \"date\": \"{}\"}},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_rate\": {},\n  \
         \"failures\": [{}],\n  \"metrics\": {},\n  \"notes\": [{}]\n}}\n",
        host.nproc,
        escape(&host.rustc),
        escape(&host.git_rev),
        host.profile,
        host.date,
        checks.attempted,
        checks.failed,
        number(checks.error_rate()),
        list(&checks.failures),
        metrics_json(metrics),
        list(notes)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_panics() {
        per_layer(vec![metric("core.renamed_metric", 1.0)]);
    }

    #[test]
    fn absent_layers_read_zero() {
        let out = per_layer(vec![metric("core.cycles", 5.0)]);
        assert_eq!(out.len(), declared("per_layer").len());
        for m in out {
            assert_eq!(m.value, if m.name == "core.cycles" { 5.0 } else { 0.0 });
        }
    }

    #[test]
    fn date_is_iso() {
        let d = utc_date();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
    }
}
