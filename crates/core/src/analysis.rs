//! The analysis pipeline: CFG build → initialization → PSG build →
//! phase 1 → phase 2, with per-stage timing and memory accounting.

use std::time::{Duration, Instant};

use spike_cfg::{DomTree, LoopForest, ProgramCfg, RoutineCfg};
use spike_isa::{CallingStandard, CloneExact, HeapSize, Reg, RegSet};
use spike_program::{Program, RoutineId};

use crate::build::build_psg;
use crate::dataflow::{run_phase1_seeded, run_phase2_seeded};
use crate::parallel::{par_for_each_mut, par_map, resolve_threads};
use crate::psg::{NodeId, Psg};
use crate::schedule::{run_phase1_scheduled, run_phase2_scheduled, SccSchedule};
use crate::stack::{analyze_stack, StackAnalysis};
use crate::summary::ProgramSummary;

/// How the two dataflow phases schedule their node evaluations. Both
/// schedulers converge to the *same* least fixpoint — summaries, PSG
/// and `memory_bytes` are bit-identical — they differ only in effort
/// (`phase1_visits`/`phase2_visits`) and wall-clock time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scheduler {
    /// The two-level engine (default): condense the call graph into
    /// SCCs, solve phase 1 bottom-up and phase 2 top-down in waves,
    /// each component under a dependency-ordered priority worklist.
    /// Converged components are never revisited.
    #[default]
    SccWave,
    /// Flat chaotic FIFO iteration over the whole PSG — the paper's
    /// Figures 8 and 10 taken literally, kept as the oracle the
    /// scheduled engine is checked and measured against.
    Fifo,
}

/// Tuning knobs for the analysis, mirroring the paper's design choices.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// Insert branch nodes at multiway branches (§3.6). Disabling this is
    /// the Table 4 ablation: the PSG grows up to 80% more edges.
    pub branch_nodes: bool,
    /// Filter saved-and-restored callee-saved registers out of routine
    /// summaries (§3.4).
    pub callee_saved_filter: bool,
    /// Register roles used for callee-saved filtering and unknown-target
    /// assumptions (§3.5).
    pub calling_standard: CallingStandard,
    /// Registers assumed live at the exits of externally callable routines
    /// (exported routines and the program entry), whose callers are
    /// outside the program.
    pub exported_live_at_exit: RegSet,
    /// Worker threads for the per-routine front-end stages (CFG build,
    /// `DEF`/`UBD` initialization, PSG build). `0` uses one worker per
    /// available hardware thread; `1` runs serially. Results — summaries,
    /// PSG node/edge order, and [`AnalysisStats::memory_bytes`] — are
    /// bit-identical at every setting.
    pub threads: usize,
    /// How the dataflow phases schedule node evaluations; see
    /// [`Scheduler`]. Results are bit-identical either way.
    pub scheduler: Scheduler,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        let calling_standard = CallingStandard::alpha_nt();
        // An unseen caller may read the return values, expects callee-saved
        // registers preserved, and needs the stack and global pointers.
        let exported_live_at_exit = calling_standard.return_value()
            | calling_standard.callee_saved()
            | RegSet::of(&[Reg::SP, Reg::GP]);
        AnalysisOptions {
            branch_nodes: true,
            callee_saved_filter: true,
            calling_standard,
            exported_live_at_exit,
            threads: 0,
            scheduler: Scheduler::default(),
        }
    }
}

/// Loop-structure counts for one routine (or, aggregated with
/// [`Analysis::loop_stats`], a whole program): what the natural-loop
/// forest over the execution-graph dominator tree
/// ([`spike_cfg::LoopForest`]) found. These are the static weights the
/// profile-guided layer falls back to when no execution profile is
/// supplied — loop depth stands in for execution count.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoopStats {
    /// Natural loops detected (back edges with a dominating header,
    /// merged per header).
    pub loops: usize,
    /// Loops overlapping an irreducible region; loop optimizations skip
    /// these.
    pub irreducible_loops: usize,
    /// Deepest loop nesting (0 = no loops).
    pub max_depth: u32,
    /// Basic blocks inside at least one loop.
    pub blocks_in_loops: usize,
}

impl LoopStats {
    /// Folds another routine's counts into an aggregate: counts add,
    /// depths max.
    pub fn absorb(&mut self, other: LoopStats) {
        self.loops += other.loops;
        self.irreducible_loops += other.irreducible_loops;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.blocks_in_loops += other.blocks_in_loops;
    }
}

/// Loop counts of one routine, from its execution-graph loop forest.
pub(crate) fn routine_loop_stats(cfg: &RoutineCfg) -> LoopStats {
    let dom = DomTree::dominators_linked(cfg);
    let forest = LoopForest::build(cfg, &dom);
    let blocks_in_loops = (0..cfg.blocks().len())
        .filter(|&b| forest.depth_of(spike_cfg::BlockId::from_index(b)) > 0)
        .count();
    LoopStats {
        loops: forest.loops().len(),
        irreducible_loops: forest.loops().iter().filter(|l| l.irreducible).count(),
        max_depth: forest.max_depth(),
        blocks_in_loops,
    }
}

/// Wall-clock time and effort per pipeline stage (Figure 13 of the paper)
/// plus the deterministic memory footprint (Table 2 / Figure 15).
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalysisStats {
    /// Time building block structure for every routine (*CFG Build*).
    pub cfg_build: Duration,
    /// Time computing per-block `DEF`/`UBD` sets (*Initialization*).
    pub init: Duration,
    /// Time creating PSG nodes and labeling edges (*PSG Build*).
    pub psg_build: Duration,
    /// Time for the first dataflow phase.
    pub phase1: Duration,
    /// Time for the second dataflow phase.
    pub phase2: Duration,
    /// Time for the interprocedural stack-slot analysis (frame models,
    /// MOD/REF/KILL summaries, and both slot dataflows).
    pub stack_build: Duration,
    /// Node evaluations performed by phase 1.
    pub phase1_visits: usize,
    /// Node evaluations performed by phase 2.
    pub phase2_visits: usize,
    /// Block evaluations of the forward MUST-defined stack-slot solver.
    pub stack_forward_visits: usize,
    /// Block evaluations of the backward MAY-live stack-slot solver.
    pub stack_backward_visits: usize,
    /// Worker threads the per-routine front-end stages (CFG build,
    /// `DEF`/`UBD` initialization, PSG build) ran with.
    pub front_end_workers: usize,
    /// Condensation waves of the SCC-wave schedule — the sequential
    /// depth of the two-level solver (`0` under [`Scheduler::Fifo`]).
    pub waves: usize,
    /// Routines whose front-end structures (CFG, `DEF`/`UBD`, PSG plan)
    /// were rebuilt by this run. A from-scratch analysis rebuilds every
    /// routine; an incremental re-analysis rebuilds only the dirty ones.
    pub routines_reanalyzed: usize,
    /// Routines whose cached front-end structures were reused unchanged
    /// (always `0` for a from-scratch analysis).
    pub routines_reused: usize,
    /// Bytes of analysis structures (CFGs + PSG + summaries), counted
    /// deterministically via [`HeapSize`].
    pub memory_bytes: usize,
}

impl AnalysisStats {
    /// Total analysis time across all stages.
    pub fn total(&self) -> Duration {
        self.cfg_build + self.init + self.psg_build + self.phase1 + self.phase2 + self.stack_build
    }
}

/// The result of analyzing a program: the converged PSG, the extracted
/// summaries, the per-routine CFGs (retained for the optimizer), and the
/// stage statistics.
///
/// An `Analysis` is plain owned data — `Send + Sync` (checked below) and
/// `Clone` — so a long-running service can hold converged analyses in a
/// shared cache, hand them to worker threads, and fork one as the warm
/// starting point of an incremental re-analysis. Forks that feed
/// [`AnalysisCache::from_analysis`](crate::AnalysisCache::from_analysis)
/// must use [`CloneExact`] rather than `Clone`: a plain clone compacts
/// every Vec to its length, which silently changes
/// [`AnalysisStats::memory_bytes`] (a capacity count) and would break the
/// bit-identical-to-scratch contract of the incremental path.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The converged Program Summary Graph.
    pub psg: Psg,
    /// Per-routine summaries and call-site resolution.
    pub summary: ProgramSummary,
    /// The interprocedural stack-slot analysis (frame models, slot
    /// dataflows, and MOD/REF/KILL summaries).
    pub stack: StackAnalysis,
    /// The control-flow graphs the analysis was computed over.
    pub cfg: ProgramCfg,
    /// Per-routine loop-structure counts (indexed by routine id), from
    /// the execution-graph loop forest each routine's CFG induces.
    pub loops: Vec<LoopStats>,
    /// Stage timings, effort counters and memory footprint.
    pub stats: AnalysisStats,
}

impl Analysis {
    /// Whole-program aggregate of the per-routine loop counts.
    pub fn loop_stats(&self) -> LoopStats {
        let mut total = LoopStats::default();
        for &l in &self.loops {
            total.absorb(l);
        }
        total
    }
}

impl CloneExact for Analysis {
    fn clone_exact(&self) -> Analysis {
        Analysis {
            psg: self.psg.clone_exact(),
            summary: self.summary.clone_exact(),
            stack: self.stack.clone_exact(),
            cfg: self.cfg.clone_exact(),
            loops: self.loops.clone(),
            stats: self.stats,
        }
    }
}

// The cross-request cache in `spike-serve` shares analyses across worker
// threads; keep the thread-safety of the result types a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Analysis>();
    assert_send_sync::<crate::AnalysisCache>();
};

/// Analyzes `program` with default options.
///
/// ```
/// use spike_isa::Reg;
/// use spike_program::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// b.routine("main").def(Reg::A0).call("id").put_int().halt();
/// b.routine("id").copy(Reg::A0, Reg::V0).ret();
/// let program = b.build()?;
///
/// let analysis = spike_core::analyze(&program);
/// let id = program.routine_by_name("id").unwrap();
/// let s = analysis.summary.routine(id);
/// assert!(s.call_used[0].contains(Reg::A0));
/// assert!(s.call_defined[0].contains(Reg::V0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze(program: &Program) -> Analysis {
    analyze_with(program, &AnalysisOptions::default())
}

/// Analyzes `program` with explicit [`AnalysisOptions`].
pub fn analyze_with(program: &Program, options: &AnalysisOptions) -> Analysis {
    let n_routines = program.routines().len();
    let workers = resolve_threads(options.threads).clamp(1, n_routines.max(1));

    let t = Instant::now();
    let mut cfgs: Vec<RoutineCfg> = par_map(n_routines, workers, |i| {
        RoutineCfg::build_structure(program, RoutineId::from_index(i))
    });
    let cfg_build = t.elapsed();

    let t = Instant::now();
    par_for_each_mut(&mut cfgs, workers, |c| c.init_def_ubd(program));
    let init = t.elapsed();
    let cfg = ProgramCfg::from_cfgs(cfgs);
    let loops: Vec<LoopStats> = par_map(n_routines, workers, |i| {
        routine_loop_stats(cfg.routine_cfg(RoutineId::from_index(i)))
    });

    let t = Instant::now();
    let mut psg = build_psg(program, &cfg, options, workers);
    let psg_build = t.elapsed();

    let phases = solve_phases(program, &cfg, &mut psg, options, None);
    let summary = ProgramSummary::from_psg(&psg, options.calling_standard);

    let t = Instant::now();
    let (stack, stack_stats) = analyze_stack(program, &cfg);
    let stack_build = t.elapsed();

    let memory_bytes =
        cfg.heap_bytes() + psg.heap_bytes() + summary.heap_bytes() + stack.heap_bytes();

    // Debug builds cross-check every scheduled solve against the FIFO
    // oracle (the paper's Figures 8 and 10 taken literally): the
    // converged PSG, the summaries and the deterministic memory
    // footprint must be bit-identical.
    #[cfg(debug_assertions)]
    if options.scheduler == Scheduler::SccWave {
        let fifo = analyze_with(
            program,
            &AnalysisOptions { scheduler: Scheduler::Fifo, ..options.clone() },
        );
        debug_assert!(psg == fifo.psg, "scheduled PSG diverged from the FIFO oracle");
        debug_assert!(summary == fifo.summary, "scheduled summaries diverged from the FIFO oracle");
        debug_assert_eq!(
            memory_bytes, fifo.stats.memory_bytes,
            "scheduled memory footprint diverged from the FIFO oracle"
        );
    }

    Analysis {
        psg,
        summary,
        stack,
        cfg,
        loops,
        stats: AnalysisStats {
            cfg_build,
            init,
            psg_build,
            phase1: phases.phase1,
            phase2: phases.phase2,
            stack_build,
            phase1_visits: phases.phase1_visits,
            phase2_visits: phases.phase2_visits,
            stack_forward_visits: stack_stats.forward_visits,
            stack_backward_visits: stack_stats.backward_visits,
            front_end_workers: workers,
            waves: phases.waves,
            routines_reanalyzed: n_routines,
            routines_reused: 0,
            memory_bytes,
        },
    }
}

/// Effort and wall time of one phase 1 + phase 2 solve.
pub(crate) struct PhaseRun {
    pub(crate) phase1_visits: usize,
    pub(crate) phase2_visits: usize,
    pub(crate) waves: usize,
    pub(crate) phase1: Duration,
    pub(crate) phase2: Duration,
}

/// Runs phases 1–2 over `psg` with the configured [`Scheduler`]. With
/// `resets` (the incremental phase-1 and phase-2 reset masks) only the
/// reset nodes are reinitialized and solved; clean nodes keep their
/// converged values.
pub(crate) fn solve_phases(
    program: &Program,
    cfg: &ProgramCfg,
    psg: &mut Psg,
    options: &AnalysisOptions,
    resets: Option<(&[bool], &[bool])>,
) -> PhaseRun {
    let (reset1, reset2) = resets.unzip();
    let t = Instant::now();
    match options.scheduler {
        Scheduler::SccWave => {
            // Schedule construction (call graph, condensation, partition,
            // ranks) is charged to phase 1, mirroring the FIFO path's
            // seed-order construction. A seeded run schedules exactly the
            // components containing reset nodes (the reset closures are
            // SCC-saturated).
            let schedule = SccSchedule::build(program, cfg, psg);
            let phase1_visits = run_phase1_scheduled(psg, &schedule, reset1);
            let phase1 = t.elapsed();
            let t = Instant::now();
            let exit_seeds = exported_exit_seeds(program, psg, options);
            let phase2_visits = run_phase2_scheduled(psg, &schedule, &exit_seeds, reset2);
            let waves = schedule.waves();
            PhaseRun { phase1_visits, phase2_visits, waves, phase1, phase2: t.elapsed() }
        }
        Scheduler::Fifo => {
            let mut seed_order = phase1_seed_order(program, cfg, psg);
            if let Some(mask) = reset1 {
                seed_order.retain(|n| mask[n.index()]);
            }
            let phase1_visits = run_phase1_seeded(psg, &seed_order, reset1);
            let phase1 = t.elapsed();
            let t = Instant::now();
            let exit_seeds = exported_exit_seeds(program, psg, options);
            let phase2_visits = run_phase2_seeded(psg, &exit_seeds, reset2);
            PhaseRun { phase1_visits, phase2_visits, waves: 0, phase1, phase2: t.elapsed() }
        }
    }
}

/// The phase-1 worklist seed order: routines bottom-up in call-graph SCC
/// order (callees before callers), and within a routine the nodes in
/// reverse creation order (sinks before the entry). Most call-return
/// edges then carry their final callee summary the first time their call
/// node is evaluated.
pub(crate) fn phase1_seed_order(program: &Program, cfg: &ProgramCfg, psg: &Psg) -> Vec<NodeId> {
    let callgraph = spike_callgraph::CallGraph::build(program, cfg);
    let sccs = callgraph.sccs();
    let mut order = Vec::with_capacity(psg.nodes().len());
    for component in sccs.bottom_up() {
        for &rid in component {
            let rn = psg.routine_nodes(rid);
            let mut nodes: Vec<NodeId> = rn
                .entries()
                .iter()
                .chain(rn.exits())
                .copied()
                .chain(rn.calls().iter().flat_map(|&(_, c, r)| [c, r]))
                .chain(rn.branches().iter().map(|&(_, n)| n))
                .collect();
            nodes.sort_unstable();
            nodes.reverse();
            order.extend(nodes);
        }
    }
    // Halt/unknown-jump/diverge sinks are pinned and never evaluated, but
    // the worklist seed must still cover every node.
    for i in 0..psg.nodes().len() {
        let n = NodeId::from_index(i);
        if psg.pinned[i] {
            order.push(n);
        }
    }
    debug_assert_eq!(order.len(), psg.nodes().len());
    order
}

/// Liveness seeds for the exits of routines callable from outside the
/// program: exported routines and the program entry routine.
pub(crate) fn exported_exit_seeds(
    program: &Program,
    psg: &Psg,
    options: &AnalysisOptions,
) -> Vec<(NodeId, RegSet)> {
    let mut seeds = Vec::new();
    for (id, r) in program.iter() {
        if r.exported() || id == program.entry() {
            for &exit in psg.routine_nodes(id).exits() {
                seeds.push((exit, options.exported_live_at_exit));
            }
        }
    }
    seeds
}
