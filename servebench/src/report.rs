//! Percentiles, the result line, and the steadiness report.

use egocensus::server::json::Json;
use std::process::Command;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// A run's result.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Recorded-only context (never used to drop runs).
    pub env: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Print one `name value unit (n=samples)` line per metric, the
    /// recorded context, and last the JSON result line.
    pub fn print(&self, context: &[(&'static str, String)]) {
        for (k, v) in context.iter().chain(self.env.iter()) {
            println!("env {k}={v}");
        }
        for m in &self.metrics {
            println!("{} {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    Json::Str(m.name.clone()).render(),
                    json_number(m.value),
                    Json::Str(m.unit.to_string()).render()
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Full-precision JSON number (non-finite values become 0).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    format!("{v:?}")
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 for
/// no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(|a, b| a.total_cmp(b));
    let ld = d.len() as i64;
    if ld < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let (n, m) = (4i64, ld + 1);
    let q: Vec<f64> = (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = i * m - j * n;
            (d[(j - 1) as usize] * (n - delta) as f64 + d[j as usize] * delta as f64) / n as f64
        })
        .collect();
    (q[0], q[1], q[2])
}

/// The `end_to_end` metric names and bounds from `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(json) = Json::parse(&text) else {
        return Vec::new();
    };
    json.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let bound = match m.get("bound")? {
                Json::Float(f) => *f,
                Json::Int(i) => *i as f64,
                _ => return None,
            };
            Some((name, bound))
        })
        .collect()
}

/// Run each workload `runs` times (seeds `first_seed..`), then print per
/// end-to-end metric the median, quartiles, min/max and the quartile
/// spread as a share of the median, against the metric's bound.
pub fn steadiness(workloads: &[&str], runs: usize, first_seed: u64, seconds: u64) -> i32 {
    let exe = std::env::current_exe().expect("current executable");
    let bounds = bounds();
    let mut worst = 0;
    for w in workloads {
        let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
        for r in 0..runs {
            let seed = first_seed + r as u64;
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let stdout = out
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            // The recorded context of each run: never used to drop one.
            let context: Vec<&str> = stdout
                .lines()
                .filter_map(|l| l.strip_prefix("env "))
                .filter(|l| !l.starts_with("git_rev"))
                .chain(
                    stdout
                        .lines()
                        .filter(|l| !l.starts_with("env ") && !l.starts_with('{')),
                )
                .collect();
            println!("{w} seed {seed}: {}", context.join(" | "));
            let last = stdout.lines().last().map(str::to_string);
            let Some(json) = last.and_then(|l| Json::parse(&l).ok()) else {
                println!("{w} seed {seed}: run failed");
                worst = 1;
                continue;
            };
            let ok = json.get("correct").and_then(Json::as_bool) == Some(true);
            let failed = json.get("failed").and_then(Json::as_i64).unwrap_or(-1);
            if !ok || failed != 0 {
                println!("{w} seed {seed}: correct={ok} failed={failed}");
                worst = 1;
            }
            if let Some(Json::Obj(fields)) = json.get("metrics") {
                for (name, m) in fields {
                    let v = match m.get("value") {
                        Some(Json::Float(f)) => *f,
                        Some(Json::Int(i)) => *i as f64,
                        _ => continue,
                    };
                    match samples.iter_mut().find(|(n, _)| n == name) {
                        Some((_, vs)) => vs.push(v),
                        None => samples.push((name.clone(), vec![v])),
                    }
                }
            }
        }
        println!("\n## {w}: {runs} runs, {seconds} s each\n");
        println!("| metric | median | q1 | q3 | min | max | spread | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for (name, vs) in &samples {
            let (q1, med, q3) = quartiles(vs);
            let min = vs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|b| b.1);
            let verdict = match bound {
                None => "-",
                Some(b) if spread <= b / 3.0 => "steady",
                Some(b) if spread <= b => "within bound",
                Some(_) => {
                    worst = 1;
                    "TOO NOISY"
                }
            };
            println!(
                "| {name} | {med:.4} | {q1:.4} | {q3:.4} | {min:.4} | {max:.4} | {spread:.3} | {} | {verdict} |",
                bound.map_or("-".to_string(), |b| b.to_string())
            );
        }
    }
    worst
}
