//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! perfbench --workload <spec-optimize|pc-analyze|serve-edit> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! It generates its inputs from the seed (set-up), measures the shipped
//! defaults of the public APIs for `--seconds`, checks every output
//! against a reference computed by an independent code path, prints one
//! row per input plus totals, and ends with one JSON line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` adds a traced run whose
//! per-layer spans are written to `<out-dir>` and summarized in the JSON.
//! See `perfbench/README.md` for the workloads and the metric map.

mod calib;
mod edit;
mod layers;
mod metrics;
mod pc;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::metrics::{END_TO_END, PER_LAYER};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    /// Ops and reference checks attempted, and how many failed.
    pub attempted: usize,
    pub failed: usize,
    /// End-to-end metrics: name → (value, unit). Includes the
    /// workload-specific ones printed beside the JSON set.
    pub e2e: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer metrics of the traced run: name → value (unit from
    /// [`PER_LAYER`]).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one attempted op or check; a failure is counted and
    /// described on stderr, never aborts the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, (value, unit));
    }
}

/// Runs set-up `reps` times, keeping the last result, and returns it with
/// the median normalized duration in seconds (see [`calib`]). `f` calls
/// [`calib::Segments::split`] between its parts (one per input), so a
/// set-up of many seconds is normalized part by part; all of its time
/// counts either way.
pub fn repeated_setup<T>(
    reps: usize,
    mut f: impl FnMut(&mut calib::Segments) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut meter = calib::Meter::new();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let mut segments = meter.segments();
        let result = f(&mut segments);
        let t = segments.finish();
        last = Some(result?);
        times.push(t.norm_s);
    }
    Ok((last.expect("at least one set-up ran"), stats::median(&times)))
}

/// Resets the kernel's peak-RSS mark to the current RSS, so `VmHWM`
/// afterwards measures the workload rather than its set-up.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("note: cannot reset peak RSS ({e}); peak_rss_mb includes set-up");
    }
}

/// `VmHWM` in megabytes (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Op times of one image over the passes, in ms.
#[derive(Clone, Default)]
pub struct OpTimes {
    pub norm: Vec<f64>,
    pub raw: Vec<f64>,
    /// The op's read side (normalized): the time spent outside the
    /// analysis or optimizer, decoding the image and producing the output.
    pub read: Vec<f64>,
}

impl OpTimes {
    /// Records one op timed as `t`, of which `read_s` raw seconds were
    /// its read side.
    pub fn push(&mut self, t: calib::Timed, read_s: f64) {
        self.norm.push(t.norm_s * 1e3);
        self.raw.push(t.raw_s * 1e3);
        self.read.push(read_s * t.scale() * 1e3);
    }
}

/// The end-to-end timing metrics of a workload whose ops each process
/// one image: `wall_s` is the sum over images of each image's median op
/// time (one op per image, each estimated from every pass), `req_per_s`
/// the images per second that implies, `write_p50_ms` the geometric mean
/// of the per-image medians and `read_p50_ms` the same for the ops' read
/// sides. All normalized (see [`calib`]); the raw wall is printed beside
/// them. Returns the normalized and the raw wall.
pub fn image_metrics(report: &mut Report, ops: &[OpTimes]) -> (f64, f64) {
    let medians: Vec<f64> = ops.iter().map(|t| stats::median(&t.norm)).collect();
    let wall = medians.iter().sum::<f64>() / 1e3;
    let raw: f64 = ops.iter().map(|t| stats::median(&t.raw)).sum::<f64>() / 1e3;
    let reads: Vec<f64> = ops.iter().map(|t| stats::median(&t.read)).collect();
    report.metric("wall_s", wall, "s");
    report.metric("raw_wall_s", raw, "s");
    report.metric("req_per_s", medians.len() as f64 / wall, "1/s");
    report.metric("write_p50_ms", stats::geomean(&medians), "ms");
    report.metric("read_p50_ms", stats::geomean(&reads), "ms");
    (wall, raw)
}

fn emit(args: &Args, report: &Report) -> Result<String, String> {
    println!();
    for (name, (value, unit)) in &report.e2e {
        println!("metric {name} = {value} {unit}");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "metric failed_frac = {failed_frac} ratio ({} of {})",
        report.failed, report.attempted
    );
    let mut fields = Vec::new();
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(m) = list.iter().find(|m| !stats::valid_name(m.name) || !stats::valid_unit(m.unit))
    {
        return Err(format!("metric `{}` ({}) breaks the name grammar", m.name, m.unit));
    }
    if args.trace {
        println!();
        for m in PER_LAYER {
            let v = report.layer.get(m.name).copied().unwrap_or(0.0);
            println!("layer {} = {v} {}", m.name, m.unit);
            fields.push(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
    } else {
        for m in END_TO_END {
            let (v, _) = report
                .e2e
                .get(m.name)
                .ok_or_else(|| format!("workload did not measure {}", m.name))?;
            fields.push(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "spec-optimize" => spec::run(&args),
        "pc-analyze" => pc::run(&args),
        "serve-edit" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result.and_then(|r| emit(&args, &r)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
