//! Incremental re-analysis: reuse the converged analysis of a program
//! across small edits.
//!
//! The optimizer edits a handful of routines per pass; rebuilding every
//! routine's CFG and the entire PSG to re-converge the two dataflow
//! phases wastes almost all of that work. [`AnalysisCache`] keeps the
//! previous [`Analysis`] and [`AnalysisCache::reanalyze`] patches it in
//! place:
//!
//! 1. **Front end** — only *dirty* routines (those whose instruction
//!    words changed, as reported by `Rewriter::finish`) get their CFG,
//!    `DEF`/`UBD` sets, §3.4 saved/restored scan, and PSG node/edge plans
//!    rebuilt. Clean routines are shifted to their new base address with
//!    [`RoutineCfg::rebase`]; their PSG structures are reused verbatim.
//! 2. **Structural validation** — the optimizer's edits preserve each
//!    routine's control-flow shape (terminators are never deleted,
//!    replacements keep targets, call identities survive relinking), so a
//!    dirty routine's fresh node/edge plan must match the cached PSG
//!    node-for-node and edge-for-edge. Labels are overwritten from the
//!    fresh plan; any structural mismatch falls back to a from-scratch
//!    analysis, so incremental reuse is an optimization, never a gamble.
//! 3. **Seeded fixpoint** — phases 1–2 rerun over a *reset subspace*
//!    (dirty routines plus everything their changes can influence) while
//!    clean nodes keep their converged values. The reset closures and the
//!    argument that this reproduces the from-scratch solution exactly —
//!    bit-identical summaries, `memory_bytes`, and PSG — are documented
//!    in DESIGN.md ("Incremental re-analysis"); debug builds assert the
//!    equality against an actual from-scratch run.

use std::time::Instant;

use spike_cfg::{ProgramCfg, RoutineCfg};
use spike_isa::{HeapSize, RegSet};
use spike_program::{Program, RoutineId};

use crate::analysis::{
    analyze_with, routine_loop_stats, solve_phases, Analysis, AnalysisOptions, AnalysisStats,
};
use crate::build::{plan_routine_edges, plan_routine_nodes, RoutineEdgePlan};
use crate::callee_saved::saved_restored_registers;
use crate::flow::FlowScratch;
use crate::parallel::{par_for_each_mut, par_map, par_map_with, resolve_threads};
use crate::psg::{EdgeKind, NodeId, Psg};
use crate::query::{Query, QueryAnswer, QueryEngine, QueryStats};
use crate::stack::reanalyze_stack;
use crate::summary::ProgramSummary;

/// A reusable analysis: the converged [`Analysis`] of the last program
/// seen, plus the options every (re)run uses.
///
/// ```
/// use spike_isa::Reg;
/// use spike_program::{ProgramBuilder, Rewriter};
///
/// let mut b = ProgramBuilder::new();
/// b.routine("main").def(Reg::T0).def(Reg::A0).call("id").put_int().halt();
/// b.routine("id").copy(Reg::A0, Reg::V0).ret();
/// let program = b.build()?;
///
/// let mut cache = spike_core::AnalysisCache::new(spike_core::AnalysisOptions::default());
/// cache.analyze(&program);
///
/// // Delete the dead `def t0`; only `main` changed, so only `main` is
/// // re-analyzed — `id`'s front-end structures are reused.
/// let addr = program.routines()[0].addr();
/// let (edited, dirty) = Rewriter::new(&program).delete(addr).finish()?;
/// let analysis = cache.reanalyze(&edited, &dirty);
/// assert_eq!(analysis.stats.routines_reanalyzed, 1);
/// assert_eq!(analysis.stats.routines_reused, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisCache {
    options: AnalysisOptions,
    state: Option<Analysis>,
    /// Demand-driven engine serving [`Self::query`] while no converged
    /// whole-program analysis exists. Invariant: at most one of `state`
    /// and `query` is `Some` — a full analysis answers queries directly,
    /// and [`Self::reanalyze`] promotes a live engine into `state`.
    query: Option<QueryEngine>,
}

impl AnalysisCache {
    /// Creates an empty cache; the first [`analyze`](Self::analyze) or
    /// [`reanalyze`](Self::reanalyze) fills it with a from-scratch run.
    pub fn new(options: AnalysisOptions) -> AnalysisCache {
        AnalysisCache { options, state: None, query: None }
    }

    /// Creates a cache already warmed with a converged `analysis` of some
    /// program. The next [`reanalyze`](Self::reanalyze) over an edited
    /// copy of that program re-solves only the dirty routines, exactly as
    /// if this cache had computed `analysis` itself — the entry point a
    /// long-running service uses to fork a cached analysis into the warm
    /// starting point for a diffed re-submission.
    ///
    /// When forking from a shared analysis, copy it with
    /// [`CloneExact`](spike_isa::CloneExact): `reanalyze`'s bit-identical
    /// `memory_bytes` guarantee counts Vec *capacities*, which a plain
    /// `Clone` compacts.
    pub fn from_analysis(options: AnalysisOptions, analysis: Analysis) -> AnalysisCache {
        AnalysisCache { options, state: Some(analysis), query: None }
    }

    /// Consumes the cache, returning the converged analysis if any run
    /// has completed. A cache holding only a demand-driven query engine
    /// drains the engine (solving whatever its queries left unsolved)
    /// into the equivalent whole-program analysis.
    pub fn into_analysis(self) -> Option<Analysis> {
        self.state.or_else(|| self.query.map(QueryEngine::into_analysis))
    }

    /// A deterministic estimate of the heap the cached analysis retains
    /// (its CFGs, PSG and summaries, via [`HeapSize`] accounting), for
    /// byte-budgeted eviction decisions in caches of caches. An empty
    /// cache is free.
    pub fn heap_bytes(&self) -> usize {
        match (&self.state, &self.query) {
            (Some(a), _) => a.stats.memory_bytes,
            (None, Some(engine)) => engine.heap_bytes(),
            (None, None) => 0,
        }
    }

    /// The options every analysis run through this cache uses.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// The cached analysis, if any run has completed.
    pub fn analysis(&self) -> Option<&Analysis> {
        self.state.as_ref()
    }

    /// Drops the cached analysis (and any demand-driven query engine);
    /// the next call re-analyzes from scratch.
    pub fn invalidate(&mut self) {
        self.state = None;
        self.query = None;
    }

    /// Analyzes `program` from scratch and caches the result.
    pub fn analyze(&mut self, program: &Program) -> &Analysis {
        self.state = Some(analyze_with(program, &self.options));
        self.query = None;
        self.state.as_ref().expect("state was just filled")
    }

    /// Answers one demand-driven [`Query`] about `program`.
    ///
    /// With a converged whole-program analysis cached, the answer is
    /// sliced from it directly. Otherwise the cache builds (or reuses) a
    /// [`QueryEngine`] and solves only the query's cone; the engine's
    /// per-component memoization persists across calls, and a later
    /// [`reanalyze`](Self::reanalyze) promotes it instead of starting
    /// from scratch. Either way the answer is bit-identical to the same
    /// slice of [`analyze`](Self::analyze)'s result.
    ///
    /// As with `reanalyze`, `program` must be the program the cache last
    /// saw (or the first program, on a cold cache); a routine-count
    /// change drops the stale state.
    ///
    /// # Panics
    ///
    /// Panics if the query names a routine outside `program`.
    pub fn query(&mut self, program: &Program, query: &Query) -> (QueryAnswer, QueryStats) {
        let n_routines = program.routines().len();
        if self.state.as_ref().is_some_and(|a| a.psg.all_routine_nodes().len() != n_routines) {
            self.state = None;
        }
        if let Some(a) = &self.state {
            let answer = match *query {
                Query::Summary(r) => {
                    let s = a.summary.routine(r);
                    QueryAnswer::Summary {
                        call_used: s.call_used.clone(),
                        call_defined: s.call_defined.clone(),
                        call_killed: s.call_killed.clone(),
                        saved_restored: s.saved_restored,
                    }
                }
                Query::LiveAtEntry(r) => {
                    let s = a.summary.routine(r);
                    QueryAnswer::LiveAtEntry {
                        live_at_entry: s.live_at_entry.clone(),
                        live_at_exit: s.live_at_exit.clone(),
                    }
                }
                Query::Reaches { caller, callee } => {
                    QueryAnswer::Reaches(reaches_in_callgraph(program, &a.cfg, caller, callee))
                }
            };
            return (answer, QueryStats { answered_from_full: true, ..QueryStats::default() });
        }
        self.demand_engine(program).query(query)
    }

    /// Runs `f` on the control-flow graphs and summary slice the
    /// single-routine uninitialized-read check of `routine` needs
    /// (`spike-lint`'s `uninit_routine`), ensuring exactly that cone is
    /// converged first.
    ///
    /// The check's restricted fixpoint reads the `call-defined` summary
    /// of every call site in `routine`'s caller closure, so the demand
    /// path ensures phase 1 over the callee closure of that caller
    /// closure; within it, the summary snapshot passed to `f` equals the
    /// whole-program analysis bit-for-bit. Summaries outside the cone
    /// hold unconverged values the restricted check provably never
    /// reads.
    pub fn with_uninit_facts<R>(
        &mut self,
        program: &Program,
        routine: RoutineId,
        f: impl FnOnce(&ProgramCfg, &ProgramSummary) -> R,
    ) -> (R, QueryStats) {
        let n_routines = program.routines().len();
        if self.state.as_ref().is_some_and(|a| a.psg.all_routine_nodes().len() != n_routines) {
            self.state = None;
        }
        if let Some(a) = &self.state {
            let stats = QueryStats { answered_from_full: true, ..QueryStats::default() };
            return (f(&a.cfg, &a.summary), stats);
        }
        let engine = self.demand_engine(program);
        let stats = engine.ensure_uninit(routine);
        let summary = engine.summary_snapshot();
        (f(engine.cfg(), &summary), stats)
    }

    /// The live demand engine for `program`, building one if the cache
    /// holds none (or holds one for a different routine count).
    fn demand_engine(&mut self, program: &Program) -> &mut QueryEngine {
        let n_routines = program.routines().len();
        if self.query.as_ref().is_some_and(|e| e.routines() != n_routines) {
            self.query = None;
        }
        let options = &self.options;
        self.query.get_or_insert_with(|| QueryEngine::new(program, options))
    }

    /// Re-analyzes `program` after an edit that changed (at most) the
    /// routines in `dirty`, reusing the cached front-end structures and
    /// converged dataflow values of every clean routine.
    ///
    /// `dirty` must contain every routine whose instruction words differ
    /// from the program the cache last saw — exactly the set
    /// `Rewriter::finish` returns. Routines that merely moved to a new
    /// base address (because an earlier routine shrank) need not be
    /// listed. If the cache is empty, or `dirty` names a routine whose
    /// control-flow shape changed (which the optimizer's edits never do),
    /// this transparently falls back to a from-scratch analysis.
    ///
    /// The result is bit-identical to [`analyze`](Self::analyze) on
    /// `program`: same summaries, same `memory_bytes`, same PSG. Only the
    /// timing/effort counters and the `routines_reanalyzed` /
    /// `routines_reused` pair differ. Debug builds assert the equality.
    pub fn reanalyze(&mut self, program: &Program, dirty: &[RoutineId]) -> &Analysis {
        let n_routines = program.routines().len();
        // A live demand engine stands in for the cached analysis it was
        // promoted from: draining it solves only the components its
        // queries left untouched and yields exactly the analysis of the
        // program the cache last saw, which the incremental patching
        // below then edits forward as usual.
        if self.state.is_none() {
            if let Some(engine) = self.query.take() {
                if engine.routines() == n_routines {
                    self.state = Some(engine.into_analysis());
                }
            }
        }
        let cached_routines =
            self.state.as_ref().map(|a| a.psg.all_routine_nodes().len()).unwrap_or(usize::MAX);
        if self.state.is_none() || cached_routines != n_routines {
            return self.analyze(program);
        }

        let mut dirty: Vec<RoutineId> = dirty.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        if dirty.iter().any(|r| r.index() >= n_routines) {
            return self.analyze(program);
        }
        if dirty.is_empty() {
            // Nothing changed: the cached solution is the solution. Reset
            // the effort counters so callers see this run did no work.
            let a = self.state.as_mut().expect("cache is non-empty");
            a.stats = AnalysisStats {
                front_end_workers: a.stats.front_end_workers,
                routines_reused: n_routines,
                memory_bytes: a.stats.memory_bytes,
                ..AnalysisStats::default()
            };
            return self.state.as_ref().expect("cache is non-empty");
        }

        let cached = self.state.take().expect("cache is non-empty");
        match try_reanalyze(cached, program, &self.options, &dirty) {
            Ok(analysis) => {
                #[cfg(debug_assertions)]
                assert_matches_scratch(&analysis, program, &self.options);
                self.state = Some(analysis);
            }
            Err(()) => {
                self.state = Some(analyze_with(program, &self.options));
            }
        }
        self.state.as_ref().expect("state was just filled")
    }
}

/// Whether a call path of at least one edge leads from `caller` to
/// `callee` — the [`Query::Reaches`] semantics, answered from a cached
/// whole-program analysis (which keeps no condensation around) by a
/// routine-level walk of the rebuilt call graph.
fn reaches_in_callgraph(
    program: &Program,
    cfg: &ProgramCfg,
    caller: RoutineId,
    callee: RoutineId,
) -> bool {
    let graph = spike_callgraph::CallGraph::build(program, cfg);
    let mut seen = vec![false; graph.len()];
    let mut stack: Vec<RoutineId> = graph.callees(caller).to_vec();
    while let Some(r) = stack.pop() {
        if r == callee {
            return true;
        }
        if !seen[r.index()] {
            seen[r.index()] = true;
            stack.extend_from_slice(graph.callees(r));
        }
    }
    false
}

/// Free-function form of [`AnalysisCache::reanalyze`].
pub fn reanalyze<'c>(
    cache: &'c mut AnalysisCache,
    program: &Program,
    dirty: &[RoutineId],
) -> &'c Analysis {
    cache.reanalyze(program, dirty)
}

#[cfg(debug_assertions)]
fn assert_matches_scratch(incremental: &Analysis, program: &Program, options: &AnalysisOptions) {
    let scratch = analyze_with(program, options);
    assert_eq!(
        scratch.summary, incremental.summary,
        "incremental summaries must equal a from-scratch run"
    );
    assert_eq!(
        scratch.stats.memory_bytes, incremental.stats.memory_bytes,
        "incremental memory accounting must equal a from-scratch run"
    );
    assert_eq!(scratch.psg, incremental.psg, "incremental PSG must equal a from-scratch run");
    assert_eq!(
        scratch.stack, incremental.stack,
        "incremental stack-slot analysis must equal a from-scratch run"
    );
}

/// The incremental pipeline. Consumes the cached analysis (its PSG is
/// patched in place); `Err(())` means a structural assumption did not
/// hold and the caller must re-analyze from scratch.
fn try_reanalyze(
    cached: Analysis,
    program: &Program,
    options: &AnalysisOptions,
    dirty: &[RoutineId],
) -> Result<Analysis, ()> {
    let n_routines = program.routines().len();
    let Analysis { mut psg, summary: _, stack: prev_stack, cfg, loops: mut loop_stats, stats: _ } =
        cached;

    let mut dirty_mask = vec![false; n_routines];
    for &r in dirty {
        dirty_mask[r.index()] = true;
    }
    let workers = resolve_threads(options.threads).clamp(1, dirty.len().max(1));

    // --- Front end, dirty routines only. ---
    let t = Instant::now();
    let mut rebuilt: Vec<RoutineCfg> =
        par_map(dirty.len(), workers, |i| RoutineCfg::build_structure(program, dirty[i]));
    let cfg_build = t.elapsed();

    let t = Instant::now();
    par_for_each_mut(&mut rebuilt, workers, |c| c.init_def_ubd(program));
    let mut cfgs = cfg.into_cfgs();
    for c in rebuilt {
        let i = c.routine().index();
        cfgs[i] = c;
    }
    // Clean routines kept their instruction words but may have shifted
    // when an earlier routine shrank; follow the move.
    for (i, c) in cfgs.iter_mut().enumerate() {
        if !dirty_mask[i] {
            c.rebase(program.routines()[i].addr());
        }
    }
    let init = t.elapsed();
    let cfg = ProgramCfg::from_cfgs(cfgs);
    // Loop structure derives purely from block structure: clean routines
    // keep their counts (rebasing moves addresses, not shape), dirty
    // routines are redetected.
    for &r in dirty {
        loop_stats[r.index()] = routine_loop_stats(cfg.routine_cfg(r));
    }

    // --- Patch the PSG's dirty routines in place. ---
    let t = Instant::now();
    for &r in dirty {
        patch_routine_nodes(&mut psg, program, cfg.routine_cfg(r), options)?;
    }
    let edge_ranges = routine_edge_ranges(&psg, n_routines);
    let plans: Vec<RoutineEdgePlan> =
        par_map_with(dirty.len(), workers, FlowScratch::new, |scratch, i| {
            plan_routine_edges(&psg, cfg.routine_cfg(dirty[i]), options, scratch)
        });
    for (&r, plan) in dirty.iter().zip(&plans) {
        let (lo, hi) = edge_ranges[r.index()];
        patch_routine_edges(&mut psg, r, plan, lo, hi)?;
    }
    let psg_build = t.elapsed();

    // --- Seeded fixpoint over the reset subspace. ---
    let (reset1, reset2) = reset_masks(&psg, &dirty_mask);
    let phases = solve_phases(program, &cfg, &mut psg, options, Some((&reset1, &reset2)));

    let summary = ProgramSummary::from_psg(&psg, options.calling_standard);

    // The stack-slot layer has its own component-grained incremental
    // path: clean components with unchanged external callee summaries
    // move their facts over untouched.
    let t = Instant::now();
    let (stack, stack_stats) = reanalyze_stack(program, &cfg, prev_stack, &dirty_mask);
    let stack_build = t.elapsed();

    let memory_bytes =
        cfg.heap_bytes() + psg.heap_bytes() + summary.heap_bytes() + stack.heap_bytes();

    Ok(Analysis {
        psg,
        summary,
        stack,
        cfg,
        loops: loop_stats,
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
            routines_reanalyzed: dirty.len(),
            routines_reused: n_routines - dirty.len(),
            memory_bytes,
        },
    })
}

/// Re-plans one dirty routine's pass-1 nodes against its rebuilt CFG and
/// patches the cached node state (pinned flags, unknown-jump hints, §3.4
/// saved/restored set). The fresh plan must match the cached directory
/// node-for-node — same count, same kinds, same blocks — or the routine's
/// shape changed and the caller must rebuild from scratch.
fn patch_routine_nodes(
    psg: &mut Psg,
    program: &Program,
    cfg: &RoutineCfg,
    options: &AnalysisOptions,
) -> Result<(), ()> {
    let rid = cfg.routine();
    let planned = plan_routine_nodes(program, cfg, options);

    let rn = &psg.routines[rid.index()];
    let cached_ids: Vec<NodeId> = rn
        .entries
        .iter()
        .chain(&rn.exits)
        .copied()
        .chain(rn.calls.iter().flat_map(|&(_, c, r)| [c, r]))
        .chain(rn.branches.iter().map(|&(_, n)| n))
        .chain(rn.halts.iter().copied())
        .chain(rn.unknown_jumps.iter().copied())
        .collect();
    if planned.len() != cached_ids.len() {
        return Err(());
    }
    for (p, &id) in planned.iter().zip(&cached_ids) {
        if p.kind != psg.nodes[id.index()] {
            return Err(());
        }
    }

    for (p, &id) in planned.iter().zip(&cached_ids) {
        psg.pinned[id.index()] = p.pinned;
        psg.uj_live[id.index()] = p.uj_live;
    }
    psg.routines[rid.index()].saved_restored = if options.callee_saved_filter {
        saved_restored_registers(program, cfg, &options.calling_standard)
    } else {
        RegSet::EMPTY
    };
    Ok(())
}

/// Validates one dirty routine's fresh edge plan against the cached edges
/// in `[lo, hi)` — same count, endpoints, kinds, and call-return wiring —
/// then overwrites the labels the plan owns: flow-summary labels and the
/// static labels of unknown/hinted call-return edges. Known-target
/// call-return labels are left alone: for clean callees the cached
/// (converged) label is already final, and for reset callees the seeded
/// phase 1 reinitializes and refills it.
fn patch_routine_edges(
    psg: &mut Psg,
    rid: RoutineId,
    plan: &RoutineEdgePlan,
    lo: usize,
    hi: usize,
) -> Result<(), ()> {
    let rn = &psg.routines[rid.index()];
    if plan.needs_diverge != rn.diverge.is_some() || plan.edges.len() != hi - lo {
        return Err(());
    }
    let diverge = rn.diverge;

    for (k, planned) in plan.edges.iter().enumerate() {
        let ei = lo + k;
        let cached = &psg.edges[ei];
        let to = if planned.to_diverge {
            diverge.expect("checked: needs_diverge implies a cached diverge node")
        } else {
            planned.edge.to
        };
        if cached.from != planned.edge.from || cached.to != to || cached.kind != planned.edge.kind {
            return Err(());
        }
        match &planned.cr {
            Some((entry_sources, exit_targets)) => {
                if &psg.cr_sources[ei] != entry_sources
                    || &psg.return_exit_targets[to.index()] != exit_targets
                {
                    return Err(());
                }
            }
            None => {
                if !psg.cr_sources[ei].is_empty() {
                    return Err(());
                }
            }
        }
    }

    for (k, planned) in plan.edges.iter().enumerate() {
        let ei = lo + k;
        let overwrite = match planned.edge.kind {
            EdgeKind::FlowSummary => true,
            EdgeKind::CallReturn => psg.cr_sources[ei].is_empty(),
        };
        if overwrite {
            let e = &mut psg.edges[ei];
            e.may_use = planned.edge.may_use;
            e.may_def = planned.edge.may_def;
            e.must_def = planned.edge.must_def;
        }
    }
    Ok(())
}

/// Per-routine `[lo, hi)` ranges into `psg.edges`. Plans are applied in
/// routine-id order, so each routine's edges are contiguous and the
/// groups appear in routine-id order.
fn routine_edge_ranges(psg: &Psg, n_routines: usize) -> Vec<(usize, usize)> {
    let mut ranges = vec![(0usize, 0usize); n_routines];
    let mut prev = 0usize;
    let mut open: Option<usize> = None;
    for (ei, e) in psg.edges.iter().enumerate() {
        let r = psg.nodes[e.from().index()].routine().index();
        debug_assert!(r >= prev, "edges are grouped by routine in routine-id order");
        if open != Some(r) {
            ranges[r].0 = ei;
            open = Some(r);
        }
        ranges[r].1 = ei + 1;
        prev = r;
    }
    ranges
}

/// Computes the node reset masks for the seeded phases.
///
/// Phase 1 flows callee→caller, so the reset set is the caller-closure of
/// the dirty routines, additionally *promoted* so that every multi-source
/// call-return edge has either all or none of its source routines reset
/// (a half-reset edge could not replay the from-scratch label exactly).
/// Phase 2 flows caller→callee via the return→exit broadcast, so its
/// reset set is the phase-1 set closed under callees.
fn reset_masks(psg: &Psg, dirty_mask: &[bool]) -> (Vec<bool>, Vec<bool>) {
    let n_routines = dirty_mask.len();
    let routine_of = |n: NodeId| psg.nodes[n.index()].routine().index();

    let mut reset1_r = dirty_mask.to_vec();
    loop {
        let mut changed = false;
        // Caller closure: a reset routine's summary feeds the call-return
        // edges at its call sites, which live in its callers.
        for ri in 0..n_routines {
            if !reset1_r[ri] {
                continue;
            }
            for &entry in &psg.routines[ri].entries {
                for &eid in &psg.entry_cr_edges[entry.index()] {
                    let caller = routine_of(psg.edges[eid.index()].from());
                    if !reset1_r[caller] {
                        reset1_r[caller] = true;
                        changed = true;
                    }
                }
            }
        }
        // Co-source promotion: an indirect call's edge label meets over
        // all its target routines; resetting some sources but not others
        // would mix freshly reinitialized values with converged ones.
        for sources in &psg.cr_sources {
            if sources.len() < 2 {
                continue;
            }
            let reset_count = sources.iter().filter(|&&s| reset1_r[routine_of(s)]).count();
            if reset_count > 0 && reset_count < sources.len() {
                for &s in sources {
                    let r = routine_of(s);
                    if !reset1_r[r] {
                        reset1_r[r] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Callee closure for phase 2: a reset routine's return-node liveness
    // broadcasts into the exits of every routine it may call.
    let mut reset2_r = reset1_r.clone();
    loop {
        let mut changed = false;
        for ri in 0..n_routines {
            if !reset2_r[ri] {
                continue;
            }
            for &(_, _, ret) in &psg.routines[ri].calls {
                for &t in &psg.return_exit_targets[ret.index()] {
                    let callee = routine_of(t);
                    if !reset2_r[callee] {
                        reset2_r[callee] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let n = psg.nodes.len();
    let mut reset1 = vec![false; n];
    let mut reset2 = vec![false; n];
    for i in 0..n {
        let r = psg.nodes[i].routine().index();
        reset1[i] = reset1_r[r];
        reset2[i] = reset2_r[r];
    }
    (reset1, reset2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::{ProgramBuilder, Rewriter};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).def(Reg::A0).call("leaf").call("mid").put_int().halt();
        b.routine("mid").def(Reg::T1).def(Reg::A0).call("leaf").ret();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        b.build().unwrap()
    }

    #[test]
    fn reanalyze_matches_scratch_after_a_delete() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);

        // Delete the dead `def t0` in main.
        let addr = p.routines()[0].addr();
        let (q, dirty) = Rewriter::new(&p).delete(addr).finish().unwrap();
        assert_eq!(dirty, vec![RoutineId::from_index(0)]);

        let incr = cache.reanalyze(&q, &dirty);
        assert_eq!(incr.stats.routines_reanalyzed, 1);
        assert_eq!(incr.stats.routines_reused, 2);

        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(incr.summary, scratch.summary);
        assert_eq!(incr.stats.memory_bytes, scratch.stats.memory_bytes);
        assert_eq!(incr.psg, scratch.psg);
    }

    #[test]
    fn dirty_callee_resets_its_callers() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);

        // Delete the `copy a0, v0` inside `leaf` — the last routine, so
        // nothing shifts and only `leaf` is dirty. Its summary changes
        // (V0 is no longer call-defined), so the seeded rerun must reach
        // both callers (`main` and `mid`) through the caller closure and
        // still match scratch exactly.
        let leaf = p.routine_by_name("leaf").unwrap();
        let addr = p.routine(leaf).addr();
        let (q, dirty) = Rewriter::new(&p).delete(addr).finish().unwrap();
        assert_eq!(dirty, vec![leaf]);

        let incr = cache.reanalyze(&q, &dirty);
        assert_eq!(incr.stats.routines_reanalyzed, 1);
        assert_eq!(incr.stats.routines_reused, 2);
        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(incr.summary, scratch.summary);
        assert_eq!(incr.psg, scratch.psg);
    }

    #[test]
    fn empty_dirty_set_reuses_everything() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        let memory = cache.analyze(&p).stats.memory_bytes;
        let a = cache.reanalyze(&p, &[]);
        assert_eq!(a.stats.routines_reanalyzed, 0);
        assert_eq!(a.stats.routines_reused, 3);
        assert_eq!(a.stats.phase1_visits, 0);
        assert_eq!(a.stats.memory_bytes, memory);
    }

    #[test]
    fn routine_count_change_falls_back_to_scratch() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);

        let mut b = ProgramBuilder::new();
        b.routine("only").def(Reg::A0).put_int().halt();
        let q = b.build().unwrap();
        let a = cache.reanalyze(&q, &[RoutineId::from_index(0)]);
        assert_eq!(a.stats.routines_reanalyzed, 1);
        assert_eq!(a.stats.routines_reused, 0);
        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(a.summary, scratch.summary);
    }

    #[test]
    fn query_on_a_full_cache_slices_the_analysis() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);
        let mid = p.routine_by_name("mid").unwrap();
        let (answer, stats) = cache.query(&p, &Query::Summary(mid));
        assert!(stats.answered_from_full);
        assert_eq!(stats.visits, 0);
        let s = cache.analysis().unwrap().summary.routine(mid);
        assert_eq!(
            answer,
            QueryAnswer::Summary {
                call_used: s.call_used.clone(),
                call_defined: s.call_defined.clone(),
                call_killed: s.call_killed.clone(),
                saved_restored: s.saved_restored,
            }
        );
        let main = p.routine_by_name("main").unwrap();
        let (r, _) = cache.query(&p, &Query::Reaches { caller: main, callee: mid });
        assert_eq!(r, QueryAnswer::Reaches(true));
        let (r, _) = cache.query(&p, &Query::Reaches { caller: mid, callee: main });
        assert_eq!(r, QueryAnswer::Reaches(false));
    }

    #[test]
    fn queries_then_reanalyze_promotes_the_engine() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());

        // Demand path on a cold cache: an engine is built and solves only
        // the query's cone.
        let leaf = p.routine_by_name("leaf").unwrap();
        let (_, stats) = cache.query(&p, &Query::Summary(leaf));
        assert!(!stats.answered_from_full);
        assert!(stats.phase1_components_solved > 0);
        assert!(cache.analysis().is_none());
        assert!(cache.heap_bytes() > 0);

        // An edit later: the engine promotes into the cached analysis of
        // the pre-edit program, and the incremental patching proceeds as
        // if `analyze` had run — only the dirty routine is re-analyzed.
        let addr = p.routine(leaf).addr();
        let (q, dirty) = Rewriter::new(&p).delete(addr).finish().unwrap();
        let incr = cache.reanalyze(&q, &dirty);
        assert_eq!(incr.stats.routines_reanalyzed, 1);
        assert_eq!(incr.stats.routines_reused, 2);
        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(incr.summary, scratch.summary);
        assert_eq!(incr.psg, scratch.psg);
        assert_eq!(incr.stats.memory_bytes, scratch.stats.memory_bytes);
    }

    #[test]
    fn into_analysis_drains_a_query_engine() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        let main = p.routine_by_name("main").unwrap();
        cache.query(&p, &Query::LiveAtEntry(main));
        let drained = cache.into_analysis().expect("engine promotes");
        let scratch = analyze_with(&p, &AnalysisOptions::default());
        assert_eq!(drained.summary, scratch.summary);
        assert_eq!(drained.psg, scratch.psg);
        assert_eq!(drained.stats.memory_bytes, scratch.stats.memory_bytes);
    }

    #[test]
    fn cold_cache_reanalyze_is_a_full_run() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        assert!(cache.analysis().is_none());
        let a = reanalyze(&mut cache, &p, &[RoutineId::from_index(1)]);
        assert_eq!(a.stats.routines_reanalyzed, 3);
        assert_eq!(a.stats.routines_reused, 0);
        cache.invalidate();
        assert!(cache.analysis().is_none());
    }
}
