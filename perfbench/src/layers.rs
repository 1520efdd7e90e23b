//! Traced calls into the layers every workload shares.

use std::time::Instant;

use spike_cfg::{ProgramCfg, RoutineCfg};
use spike_core::{analyze_with, Analysis, AnalysisOptions};
use spike_program::{Program, RoutineId};

use crate::trace::Ledger;

/// Passes every measurement makes, however long they take: a single pass
/// would make each input's median a single sample, and on a slow machine
/// the number of passes that fit in the run would decide the spread.
pub const MIN_PASSES: usize = 2;

/// Runs `f` once per pass until `seconds` have elapsed and at least
/// [`MIN_PASSES`] passes have run; returns each pass's wall time in
/// seconds.
pub fn passes(seconds: f64, mut f: impl FnMut() -> Result<(), String>) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        f()?;
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok(walls)
}

/// [`passes`] for a traced run: every pass after the first opens a new
/// pass of the ledger.
pub fn traced_passes(
    seconds: f64,
    ledger: &mut Ledger,
    mut f: impl FnMut(&mut Ledger) -> Result<(), String>,
) -> Result<(), String> {
    let mut first = true;
    passes(seconds, || {
        if !std::mem::take(&mut first) {
            ledger.next_pass();
        }
        f(ledger)
    })
    .map(drop)
}

/// `Program::from_image` inside a `program.decode` span.
pub fn decode(ledger: &mut Ledger, bytes: &[u8]) -> Result<Program, String> {
    ledger.span("program.decode", || Program::from_image(bytes)).map_err(|e| e.to_string())
}

/// The analysis front end called directly, one span per layer:
/// `RoutineCfg::build_structure` and `init_def_ubd` over every routine
/// (serially), then `CallGraph::build`, `sccs` and `stats`. Records the
/// largest SCC seen in the pass.
pub fn front_end(ledger: &mut Ledger, program: &Program) {
    let n = program.routines().len();
    let mut cfgs: Vec<RoutineCfg> = ledger.span("cfg.build", || {
        (0..n).map(|i| RoutineCfg::build_structure(program, RoutineId::from_index(i))).collect()
    });
    ledger.span("cfg.init", || cfgs.iter_mut().for_each(|c| c.init_def_ubd(program)));
    let largest = ledger.span("callgraph.build", || {
        let cfg = ProgramCfg::from_cfgs(cfgs);
        let cg = spike_callgraph::CallGraph::build(program, &cfg);
        let _ = cg.sccs();
        cg.stats().largest_component
    });
    let seen = ledger.counter(ledger.passes() - 1, "callgraph.largest_scc").unwrap_or(0.0);
    ledger.set("callgraph.largest_scc", seen.max(largest as f64));
}

/// `analyze_with` inside a `core.analyze` span, split into the stage
/// times its `AnalysisStats` report, with the stats' counters.
pub fn traced_analyze(
    ledger: &mut Ledger,
    program: &Program,
    options: &AnalysisOptions,
) -> Analysis {
    let id = ledger.open("core.analyze");
    let analysis = analyze_with(program, options);
    ledger.close(id);
    let s = &analysis.stats;
    ledger.split(
        id,
        &[
            ("core.psg", s.psg_build),
            ("core.phase1", s.phase1),
            ("core.phase2", s.phase2),
            ("core.stack", s.stack_build),
        ],
    );
    ledger.count("core.phase1_visits", s.phase1_visits as f64);
    ledger.count("core.phase2_visits", s.phase2_visits as f64);
    ledger.count("core.stack_visits", (s.stack_forward_visits + s.stack_backward_visits) as f64);
    ledger.count("core.memory_bytes", s.memory_bytes as f64);
    analysis
}
