//! The metric catalogue (mirrored by `BENCHMARK.json`) and the reduction
//! of a traced run's ledger to per-layer metrics.

use crate::stats::median;
use crate::trace::Ledger;
use crate::Report;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("req_per_s", "1/s"),
    m("write_p50_ms", "ms"),
    m("read_p50_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Reported by every workload with `--trace 1`; a layer a workload does
/// not call reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("program.decode_ms", "ms"),
    m("program.encode_ms", "ms"),
    m("cfg.build_ms", "ms"),
    m("cfg.init_ms", "ms"),
    m("callgraph.build_ms", "ms"),
    m("callgraph.largest_scc", "count"),
    m("core.analyze_ms", "ms"),
    m("core.psg_ms", "ms"),
    m("core.phase1_ms", "ms"),
    m("core.phase2_ms", "ms"),
    m("core.stack_ms", "ms"),
    m("core.phase1_visits", "count"),
    m("core.phase2_visits", "count"),
    m("core.stack_visits", "count"),
    m("core.memory_bytes", "bytes"),
    m("stack.analyze_ms", "ms"),
    m("core.query_ms", "ms"),
    m("core.query_visits", "count"),
    m("core.reanalyze_ms", "ms"),
    m("core.reuse_ratio", "ratio"),
    m("opt.optimize_ms", "ms"),
    m("opt.licm_ms", "ms"),
    m("opt.spills_ms", "ms"),
    m("opt.realloc_ms", "ms"),
    m("opt.stack_dse_ms", "ms"),
    m("opt.dead_ms", "ms"),
    m("opt.insns_removed", "count"),
    m("lint.check_ms", "ms"),
    m("lint.findings", "count"),
    m("render.report_ms", "ms"),
    m("serve.roundtrip_ms", "ms"),
    m("serve.handle_ms", "ms"),
    m("serve.hit_ratio", "ratio"),
    m("serve.incremental_ratio", "ratio"),
    m("serve.evictions", "count"),
    m("serve.queue_highwater", "count"),
    m("serve.rejected", "count"),
    m("edit.frame_setup_share", "ratio"),
    m("trace.overhead_s", "s"),
    m("trace.coverage", "ratio"),
];

/// Deterministic counters: identical on every pass of a run and on every
/// run of one seed.
pub const COUNTS: &[&str] = &[
    "callgraph.largest_scc",
    "core.phase1_visits",
    "core.phase2_visits",
    "core.stack_visits",
    "core.memory_bytes",
    "core.query_visits",
    "opt.insns_removed",
    "lint.findings",
];

/// One-pass optimizer spans; each layer's time is the span minus the
/// bare `analyze_with` of the same op.
const ONE_PASS: &[(&str, &str)] = &[
    ("opt.licm", "opt.licm_ms"),
    ("opt.spills", "opt.spills_ms"),
    ("opt.realloc", "opt.realloc_ms"),
    ("opt.stack_dse", "opt.stack_dse_ms"),
    ("opt.dead", "opt.dead_ms"),
];

/// Fills `report.layer` from the ledger: per-pass self time of each
/// layer span (median over traced passes, ms), the one-pass optimizer
/// differences, the deterministic counters (checked equal across passes),
/// span coverage, and the tracing overhead.
pub fn reduce(ledger: &Ledger, report: &mut Report, untraced_wall_s: f64, traced_wall_s: f64) {
    let by_pass = ledger.self_time_by_name();
    for metric in PER_LAYER {
        let Some(span) = metric.name.strip_suffix("_ms") else { continue };
        if ONE_PASS.iter().any(|&(s, _)| s == span) {
            continue;
        }
        let per_pass: Vec<f64> =
            by_pass.iter().map(|p| p.get(span).copied().unwrap_or(0.0) * 1e3).collect();
        report.layer.insert(metric.name, median(&per_pass));
    }
    let analyze = ledger.total_by_name("core.analyze");
    for &(span, name) in ONE_PASS {
        if ledger.spans().iter().all(|s| s.name != span) {
            continue;
        }
        let total = ledger.total_by_name(span);
        let per_pass: Vec<f64> = total.iter().zip(&analyze).map(|(t, a)| (t - a) * 1e3).collect();
        report.layer.insert(name, median(&per_pass));
    }
    for &name in COUNTS {
        let Some(first) = ledger.counter(0, name) else { continue };
        for pass in 1..ledger.passes() {
            let again = ledger.counter(pass, name);
            report.check(again == Some(first), || {
                format!("{name} is {first} on pass 0 but {again:?} on pass {pass}")
            });
        }
        report.layer.insert(name, first);
    }
    report.layer.insert("trace.coverage", ledger.coverage());
    report.layer.insert("trace.overhead_s", traced_wall_s - untraced_wall_s);
    println!(
        "trace: {} span(s) over {} pass(es); traced pass {traced_wall_s:.3} s vs untraced \
         {untraced_wall_s:.3} s; layer spans cover {:.1}% of op wall",
        ledger.spans().len(),
        ledger.passes(),
        100.0 * ledger.coverage()
    );
}

/// Writes the ledger to `<out_dir>/trace-<workload>-seed<seed>.jsonl`.
pub fn write_ledger(args: &crate::Args, ledger: &Ledger) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, ledger.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: spans written to {}", path.display());
    Ok(())
}

/// Prints per-pass self time of every span name, largest first, with its
/// share of the traced op wall.
pub fn print_layer_table(ledger: &Ledger) {
    let by_pass = ledger.self_time_by_name();
    let Some(first) = by_pass.first() else { return };
    let mut rows: Vec<(&str, f64)> = first
        .keys()
        .map(|&k| {
            (
                k,
                median(
                    &by_pass.iter().map(|p| p.get(k).copied().unwrap_or(0.0)).collect::<Vec<_>>(),
                ),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("\n{:<20} {:>12} {:>7}", "span (self time)", "ms/pass", "share");
    for (name, secs) in rows {
        println!("{name:<20} {:>12.1} {:>6.1}%", secs * 1e3, 100.0 * secs / total.max(1e-12));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use spike_core::json::Json;

    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_names_follow_the_grammar_and_match_benchmark_json() {
        for list in [END_TO_END, PER_LAYER] {
            for metric in list {
                assert!(valid_name(metric.name), "{}", metric.name);
                assert!(valid_unit(metric.unit), "{}", metric.unit);
            }
        }
        let ours = |l: &[Metric]| -> Vec<(String, String)> {
            l.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        for name in COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }
}
