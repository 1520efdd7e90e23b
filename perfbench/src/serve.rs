//! `serve-edit`: an in-process `spike_serve::Server` (default options
//! apart from its address) driven by a closed loop of two clients that
//! submit edited variants of primed bases, then read from them.
//!
//! A cycle has four steps. In each step both clients run concurrently,
//! each submitting one variant of one of its bases with `k` routines
//! edited (a write: `analyze`), then asking `query summary` and
//! `query live-at-entry` for each edited routine and one `lint` (reads).
//! Over a cycle every client covers each of its bases with a small and a
//! large `k`. Every variant derives from its base, never from an earlier
//! variant, so every write carries bytes the daemon has not seen.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spike_core::json::Json;
use spike_core::{AnalysisCache, AnalysisOptions, Query, QueryAnswer, QueryEngine};
use spike_isa::CloneExact;
use spike_lint::{lint_with, LintOptions};
use spike_program::Program;
use spike_serve::handler::{Deadline, Handler};
use spike_serve::metrics::Metrics;
use spike_serve::render::{analyze_report, lint_report, query_report};
use spike_serve::{client, Command, Endpoint, LintFormat, ProgramStore, QueryKind, Request};
use spike_serve::{Response, ServeOptions, Server};

use crate::calib::{Meter, Segments};
use crate::edit::{edit, Edit, Rng};
use crate::layers::{decode, front_end, traced_analyze};
use crate::metrics::{print_layer_table, reduce, write_ledger};
use crate::stats::{geomean, median, tail};
use crate::trace::Ledger;
use crate::{peak_rss_mb, repeated_setup, reset_peak_rss, Args, Report};

const BASES: [&str; 4] = ["compress", "li", "go", "vortex"];
/// The bases are generated from this fixed seed; `--seed` draws the
/// edits. Which programs are primed is part of the workload's definition,
/// and base-to-base differences would otherwise dominate the spread
/// between seeds.
const BASE_SEED: u64 = 1;
/// Set-up repetitions; `setup_s` is their median. One set-up takes about
/// 0.3 s.
const SETUP_REPS: usize = 7;
const CLIENTS: usize = 2;
/// Routines edited per variant: one small and one large edit.
const KS: [usize; 2] = [1, 8];
/// Steps per cycle: each client covers each of its bases with each `k`.
const STEPS: usize = BASES.len() / CLIENTS * KS.len();
/// `peak_rss_mb` is read after this many cycles: the process keeps
/// growing with the requests it has served, and a rare multi-second edit
/// changes how many cycles fit in a run, so a fixed amount of work keeps
/// the figure comparable between runs.
const PEAK_CYCLES: usize = 3;
/// Cap on the untimed warm-up writes that fill the daemon's cache.
const WARMUP_MAX: usize = 64;

/// The base and `k` of client `c`'s variant in step `j` of a cycle.
fn slot(c: usize, j: usize) -> (usize, usize) {
    (c + CLIENTS * (j / KS.len()), KS[j % KS.len()])
}

struct Base {
    name: &'static str,
    program: Program,
    bytes: Vec<u8>,
}

/// The daemon under test; shut down and joined when dropped.
struct Daemon {
    server: Option<Server>,
    endpoint: Endpoint,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

fn analyze_request(name: String) -> Request {
    Request {
        cmd: Command::Analyze { summaries: false, routine: None },
        image_name: name,
        deadline_ms: None,
        profile_len: 0,
    }
}

/// Sends one request that must succeed.
fn must(endpoint: &Endpoint, req: &Request, image: &[u8]) -> Result<Response, String> {
    let (resp, _) = client::request(endpoint, req, image)
        .map_err(|e| format!("{} {}: {e}", req.cmd.name(), req.image_name))?;
    match &resp.error {
        None => Ok(resp),
        Some(e) => Err(format!("{} {}: {e:?}", req.cmd.name(), req.image_name)),
    }
}

fn setup(segments: &mut Segments) -> Result<(Vec<Base>, Daemon), String> {
    let bases = BASES
        .iter()
        .map(|&name| {
            let profile = spike_synth::profile(name).ok_or(format!("no profile {name}"))?;
            let program = spike_synth::generate(&profile, 1.0, BASE_SEED);
            Ok(Base { name, bytes: program.to_image(), program })
        })
        .collect::<Result<Vec<_>, String>>()?;
    segments.split();
    let options = ServeOptions { tcp: Some("127.0.0.1:0".into()), ..ServeOptions::default() };
    let server = Server::start(&options).map_err(|e| format!("starting the daemon: {e}"))?;
    let addr = server.tcp_addr().ok_or("daemon has no TCP address")?;
    let daemon = Daemon { server: Some(server), endpoint: Endpoint::Tcp(addr.to_string()) };
    for base in &bases {
        must(&daemon.endpoint, &analyze_request(format!("{}.img", base.name)), &base.bytes)?;
        segments.split();
    }
    Ok((bases, daemon))
}

/// Fills the daemon's cache before anything is timed: writes seeded
/// variants until the cache first evicts, as a long-running daemon's
/// would have. Returns the number of writes.
fn warm_up(daemon: &Daemon, bases: &[Base], seed: u64) -> Result<usize, String> {
    let mut rng = Rng::derive(seed, "serve-edit/warmup");
    for i in 0..WARMUP_MAX {
        let (b, k) = slot(i % CLIENTS, i / CLIENTS % STEPS);
        let e = edit(&bases[b].program, k, &mut rng)?;
        must(&daemon.endpoint, &analyze_request(format!("warmup-{i}.img")), &e.bytes)?;
        if stat(&daemon_stats(&daemon.endpoint)?, &["cache", "evictions"]) > 0.0 {
            return Ok(i + 1);
        }
    }
    Ok(WARMUP_MAX)
}

/// One variant submitted by one client.
struct Variant {
    base: usize,
    k: usize,
    name: String,
    edit: Edit,
}

/// One request as sent, with a digest of its reply.
struct Sent {
    variant: usize,
    req: Request,
    write: bool,
    start: Instant,
    /// Latency, normalized by its step's kernel samples (see `calib`).
    ms: f64,
    raw_ms: f64,
    reply: Result<Reply, String>,
}

/// What the checks need of a response; lint reports run to megabytes,
/// so stdout is kept as a hash.
#[derive(Debug)]
struct Reply {
    exit: u8,
    error: Option<String>,
    stdout_hash: u64,
    /// Which cache path served it (`hit`, `miss`, `incremental-miss`, ...).
    cache: String,
}

impl Reply {
    fn of(r: Response) -> Reply {
        let cache = r.diag.lines().find_map(|l| l.strip_prefix("cache: ")).unwrap_or("none");
        Reply {
            exit: r.exit,
            error: r.error.map(|(kind, msg)| format!("{}: {msg}", kind.name())),
            stdout_hash: hash(&r.stdout),
            cache: cache.to_string(),
        }
    }
}

fn hash(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn requests(v: &Variant) -> Vec<(Request, bool)> {
    let mut out = vec![(analyze_request(v.name.clone()), true)];
    for routine in &v.edit.routines {
        for kind in [QueryKind::Summary, QueryKind::LiveAtEntry] {
            let cmd = Command::Query { kind, routine: routine.clone(), callee: None };
            out.push((Request { cmd, ..analyze_request(v.name.clone()) }, false));
        }
    }
    let lint = Command::Lint { format: LintFormat::Human };
    out.push((Request { cmd: lint, ..analyze_request(v.name.clone()) }, false));
    out
}

/// One cycle's variants, step by step, one per client.
fn cycle_variants(bases: &[Base], seed: u64, cycle: usize) -> Result<Vec<Vec<Variant>>, String> {
    let mut rngs: Vec<Rng> =
        (0..CLIENTS).map(|c| Rng::derive(seed, &format!("serve-edit/{cycle}/{c}"))).collect();
    (0..STEPS)
        .map(|j| {
            (0..CLIENTS)
                .map(|c| {
                    let (b, k) = slot(c, j);
                    let edit = edit(&bases[b].program, k, &mut rngs[c])?;
                    let name = format!("{}-c{cycle}-k{k}.img", bases[b].name);
                    Ok(Variant { base: b, k, name, edit })
                })
                .collect()
        })
        .collect()
}

/// Runs one step: every client sends its variant's requests, one
/// connection each, waiting for each reply before the next request.
/// Returns the requests in client order.
fn drive(endpoint: &Endpoint, step: &[Variant], first_id: usize) -> Vec<Sent> {
    let sent: Vec<Vec<Sent>> = std::thread::scope(|s| {
        let handles: Vec<_> = step
            .iter()
            .enumerate()
            .map(|(c, v)| {
                s.spawn(move || {
                    requests(v)
                        .into_iter()
                        .map(|(req, write)| {
                            let start = Instant::now();
                            let reply = client::request(endpoint, &req, &v.edit.bytes)
                                .map(|(r, _)| Reply::of(r))
                                .map_err(|e| e.to_string());
                            let raw_ms = start.elapsed().as_secs_f64() * 1e3;
                            let variant = first_id + c;
                            Sent { variant, req, write, start, ms: raw_ms, raw_ms, reply }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    sent.into_iter().flatten().collect()
}

/// Whole cycles of traffic until `seconds` of measured step time.
struct Traffic {
    variants: Vec<Variant>,
    sent: Vec<Sent>,
    /// Normalized and raw wall time of every step, indexed by its
    /// position in the cycle.
    step_walls: Vec<Vec<f64>>,
    step_raw: Vec<Vec<f64>>,
    /// Raw seconds of all steps.
    raw_s: f64,
    /// `VmHWM` after [`PEAK_CYCLES`] cycles (or after the last, if fewer).
    peak_mb: f64,
}

impl Traffic {
    fn cycles(&self) -> usize {
        self.step_walls[0].len()
    }

    /// Seconds to serve one cycle: the sum over the cycle's steps of each
    /// step's median wall, so a rare slow edit moves one sample, not the
    /// result. Normalized, and raw.
    fn cycle_s(&self) -> (f64, f64) {
        let sum = |w: &[Vec<f64>]| w.iter().map(|w| median(w)).sum();
        (sum(&self.step_walls), sum(&self.step_raw))
    }
}

fn traffic(
    endpoint: &Endpoint,
    bases: &[Base],
    seed: u64,
    seconds: f64,
    first_cycle: usize,
) -> Result<Traffic, String> {
    let mut t = Traffic {
        variants: Vec::new(),
        sent: Vec::new(),
        step_walls: vec![Vec::new(); STEPS],
        step_raw: vec![Vec::new(); STEPS],
        raw_s: 0.0,
        peak_mb: 0.0,
    };
    let mut meter = Meter::new();
    let mut cycle = first_cycle;
    while t.cycles() == 0 || t.raw_s < seconds {
        // Variants are generated before the cycle's clock starts.
        for (j, step) in cycle_variants(bases, seed, cycle)?.into_iter().enumerate() {
            let (sent, wall) = meter.time(|| drive(endpoint, &step, t.variants.len()));
            t.step_walls[j].push(wall.norm_s);
            t.step_raw[j].push(wall.raw_s);
            t.raw_s += wall.raw_s;
            t.sent.extend(sent.into_iter().map(|s| Sent { ms: s.raw_ms * wall.scale(), ..s }));
            t.variants.extend(step);
        }
        if t.cycles() <= PEAK_CYCLES {
            t.peak_mb = peak_rss_mb();
        }
        cycle += 1;
    }
    Ok(t)
}

/// Checks every reply against the local renderers over a fresh local
/// analysis of the same bytes, variants split across [`CLIENTS`] threads.
fn check(report: &mut Report, t: &Traffic) {
    let mut by_variant: Vec<Vec<&Sent>> = (0..t.variants.len()).map(|_| Vec::new()).collect();
    for s in &t.sent {
        by_variant[s.variant].push(s);
    }
    let chunk = t.variants.len().div_ceil(CLIENTS).max(1);
    let results: Vec<(bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = t
            .variants
            .chunks(chunk)
            .zip(by_variant.chunks(chunk))
            .map(|(variants, sent)| scope.spawn(move || check_variants(variants, sent)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("check thread panicked")).collect()
    });
    for (ok, what) in results {
        report.check(ok, || what);
    }
}

fn check_variants(variants: &[Variant], sent: &[Vec<&Sent>]) -> Vec<(bool, String)> {
    let options = AnalysisOptions::default();
    let mut out = Vec::new();
    for (v, sent) in variants.iter().zip(sent) {
        let program = match Program::from_image(&v.edit.bytes) {
            Ok(p) => p,
            Err(e) => {
                out.push((false, format!("{}: variant does not decode: {e}", v.name)));
                continue;
            }
        };
        let analysis = spike_core::analyze_with(&program, &options);
        for s in sent {
            let expected = expected_reply(&program, &analysis, &s.req);
            let ok = match (&s.reply, &expected) {
                (Ok(got), Some((stdout, exit))) => {
                    got.error.is_none() && got.exit == *exit && got.stdout_hash == hash(stdout)
                }
                _ => false,
            };
            let what = if ok {
                String::new()
            } else {
                format!(
                    "{} {}: reply {:?} differs from the local render",
                    v.name,
                    s.req.cmd.name(),
                    s.reply
                )
            };
            out.push((ok, what));
        }
    }
    out
}

/// The stdout and exit code the local CLI would produce for `req`.
fn expected_reply(
    program: &Program,
    analysis: &spike_core::Analysis,
    req: &Request,
) -> Option<(String, u8)> {
    match &req.cmd {
        Command::Analyze { summaries, routine } => {
            analyze_report(&req.image_name, program, analysis, *summaries, routine.as_deref())
                .ok()
                .map(|s| (s, 0))
        }
        Command::Query { kind, routine, callee: None } => {
            let s = analysis.summary.routine(program.routine_by_name(routine)?);
            let answer = match kind {
                QueryKind::Summary => QueryAnswer::Summary {
                    call_used: s.call_used.clone(),
                    call_defined: s.call_defined.clone(),
                    call_killed: s.call_killed.clone(),
                    saved_restored: s.saved_restored,
                },
                QueryKind::LiveAtEntry => QueryAnswer::LiveAtEntry {
                    live_at_entry: s.live_at_entry.clone(),
                    live_at_exit: s.live_at_exit.clone(),
                },
                _ => return None,
            };
            Some((query_report(routine, None, &answer), 0))
        }
        Command::Lint { format } => {
            let lint = lint_with(program, analysis, &LintOptions::default());
            Some((lint_report(&req.image_name, &lint, *format), u8::from(lint.errors() > 0)))
        }
        _ => None,
    }
}

/// Records the tail of `ms` under `name` and prints its percentile and
/// sample count.
fn tail_metric(report: &mut Report, name: &'static str, ms: &[f64]) {
    match tail(ms) {
        Some(t) => {
            report.metric(name, t.value, "ms");
            println!("{name}: p{} of {} samples", t.percentile, t.samples);
        }
        None => println!("{name}: n/a ({} samples; a tail needs at least 20)", ms.len()),
    }
}

/// The daemon's `stats` document.
fn daemon_stats(endpoint: &Endpoint) -> Result<Json, String> {
    let req = Request { cmd: Command::Stats, ..analyze_request(String::new()) };
    let (resp, _) = client::request(endpoint, &req, &[]).map_err(|e| e.to_string())?;
    Json::parse(resp.stdout.trim()).map_err(|e| format!("stats: {e:?}"))
}

fn stat(json: &Json, path: &[&str]) -> f64 {
    let mut j = Some(json);
    for key in path {
        j = j.and_then(|x| x.get(key));
    }
    j.and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Prints one row per base and returns the share of deletions that hit
/// a frame-setup instruction.
fn print_rows(bases: &[Base], t: &Traffic) -> f64 {
    println!(
        "{:<9} {:>6} {:>6} {:>9} {:>9} {:>7} {:>5} {:>5} {:>5} {:>7}",
        "base", "writes", "reads", "w p50 ms", "r p50 ms", "dirty", "hit", "miss", "incr", "frame%"
    );
    let (mut frame, mut deletions) = (0usize, 0usize);
    for (b, base) in bases.iter().enumerate() {
        let vs: Vec<usize> = (0..t.variants.len()).filter(|&i| t.variants[i].base == b).collect();
        let sent: Vec<&Sent> = t.sent.iter().filter(|s| vs.contains(&s.variant)).collect();
        let lat = |w: bool| {
            median(&sent.iter().filter(|s| s.write == w).map(|s| s.ms).collect::<Vec<_>>())
        };
        let mut paths: BTreeMap<&str, usize> = BTreeMap::new();
        for s in sent.iter().filter(|s| s.write) {
            let path = s.reply.as_ref().map_or("error", |r| r.cache.as_str());
            *paths.entry(path).or_default() += 1;
        }
        let dirty: usize = vs.iter().map(|&i| t.variants[i].edit.dirty.len()).sum();
        let f: usize = vs.iter().map(|&i| t.variants[i].edit.frame_setup).sum();
        let d: usize = vs.iter().map(|&i| t.variants[i].k).sum();
        frame += f;
        deletions += d;
        println!(
            "{:<9} {:>6} {:>6} {:>9.1} {:>9.1} {:>7.1} {:>5} {:>5} {:>5} {:>6.1}%",
            base.name,
            vs.len(),
            sent.len() - vs.len(),
            lat(true),
            lat(false),
            dirty as f64 / vs.len().max(1) as f64,
            paths.get("hit").copied().unwrap_or(0)
                + paths.get("coalesced-hit").copied().unwrap_or(0),
            paths.get("miss").copied().unwrap_or(0),
            paths.get("incremental-miss").copied().unwrap_or(0),
            100.0 * f as f64 / d.max(1) as f64
        );
    }
    for s in t.sent.iter().filter(|s| s.write) {
        let v = &t.variants[s.variant];
        let path = s.reply.as_ref().map_or("error", |r| r.cache.as_str());
        println!(
            "variant {:<22} k={} dirty={:<4} frame_setup={} path={path} write_ms={:.1}",
            v.name,
            v.k,
            v.edit.dirty.len(),
            v.edit.frame_setup,
            s.ms
        );
    }
    frame as f64 / deletions.max(1) as f64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let ((bases, daemon), setup_s) = repeated_setup(SETUP_REPS, setup)?;
    let warm = warm_up(&daemon, &bases, args.seed)?;
    println!("warm-up: {warm} write(s) until the daemon's cache first evicted");
    reset_peak_rss();

    let t = traffic(&daemon.endpoint, &bases, args.seed, args.seconds, 0)?;
    let peak = t.peak_mb;
    let frame_share = print_rows(&bases, &t);
    let writes: Vec<f64> = t.sent.iter().filter(|s| s.write).map(|s| s.ms).collect();
    let reads: Vec<f64> = t.sent.iter().filter(|s| !s.write).map(|s| s.ms).collect();
    let (wall, raw_wall) = t.cycle_s();
    println!(
        "total: {} cycle(s), {} variants, {} requests, {wall:.3} s per cycle (sum of step medians)",
        t.cycles(),
        t.variants.len(),
        t.sent.len()
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("wall_s", wall, "s");
    report.metric("raw_wall_s", raw_wall, "s");
    report.metric("req_per_s", (t.sent.len() / t.cycles()) as f64 / wall, "1/s");
    report.metric("peak_rss_mb", peak, "MB");
    tail_metric(&mut report, "read_tail_ms", &reads);
    tail_metric(&mut report, "write_tail_ms", &writes);
    // The JSON's latencies: the geometric mean, over (base, k), of each
    // group's median write or read. A pooled median would fall between
    // bases whose latencies differ fivefold.
    let group_p50 = |write: bool| {
        let groups: Vec<f64> = (0..bases.len())
            .flat_map(|b| KS.map(|k| (b, k)))
            .map(|(b, k)| {
                let ms: Vec<f64> = t
                    .sent
                    .iter()
                    .filter(|s| {
                        let v = &t.variants[s.variant];
                        s.write == write && v.base == b && v.k == k
                    })
                    .map(|s| s.ms)
                    .collect();
                median(&ms)
            })
            .collect();
        geomean(&groups)
    };
    report.metric("write_p50_ms", group_p50(true), "ms");
    report.metric("read_p50_ms", group_p50(false), "ms");
    report.layer.insert("edit.frame_setup_share", frame_share);
    check(&mut report, &t);

    if args.trace {
        // The traffic again, with a client-side span per request. Its
        // cycles are numbered apart from the untraced ones, so every write
        // is still new to the daemon and the probed variants do not depend
        // on how many untraced cycles fit in the run.
        // The ledger's epoch precedes every recorded round trip.
        let mut ledger = Ledger::new();
        let traced = traffic(&daemon.endpoint, &bases, args.seed, args.seconds, 1 << 20)?;
        check(&mut report, &traced);
        for s in &traced.sent {
            ledger.record(
                "serve.roundtrip",
                s.start,
                s.start + Duration::from_secs_f64(s.raw_ms / 1e3),
            );
        }
        probe(&mut ledger, &bases, &traced)?;
        let handle_ms = replay(&mut ledger, &bases, &traced);
        let roundtrip: Vec<f64> = traced.sent.iter().map(|s| s.raw_ms).collect();
        for cmd in ["analyze", "query", "lint"] {
            let pick = |ms: &[f64]| {
                let of_cmd = traced.sent.iter().zip(ms).filter(|(s, _)| s.req.cmd.name() == cmd);
                median(&of_cmd.map(|(_, &ms)| ms).collect::<Vec<_>>())
            };
            println!(
                "serve {cmd:<8} median roundtrip {:.3} ms, handle {:.3} ms",
                pick(&roundtrip),
                pick(&handle_ms)
            );
        }
        let stats = daemon_stats(&daemon.endpoint)?;
        let hits = stat(&stats, &["cache", "hits"]) + stat(&stats, &["cache", "coalesced"]);
        let cold = stat(&stats, &["cache", "misses"]);
        let incremental = stat(&stats, &["cache", "incremental_warm"]);
        let rejected = ["rejected_busy"].iter().map(|k| stat(&stats, &["queue", k])).sum::<f64>()
            + ["oversized", "deadline", "bad_request"]
                .iter()
                .map(|k| stat(&stats, &["rejected", k]))
                .sum::<f64>();
        println!("daemon stats: {stats}");
        reduce(&ledger, &mut report, raw_wall, traced.cycle_s().1);
        report.layer.insert("serve.roundtrip_ms", median(&roundtrip));
        report.layer.insert("serve.handle_ms", median(&handle_ms));
        report.layer.insert("serve.hit_ratio", hits / (hits + cold + incremental).max(1.0));
        report.layer.insert("serve.incremental_ratio", incremental / (cold + incremental).max(1.0));
        report.layer.insert("serve.evictions", stat(&stats, &["cache", "evictions"]));
        report.layer.insert("serve.queue_highwater", stat(&stats, &["queue", "depth_highwater"]));
        report.layer.insert("serve.rejected", rejected);
        let reused = ledger.counter(0, "reanalyze.reused").unwrap_or(0.0);
        let rebuilt = ledger.counter(0, "reanalyze.rebuilt").unwrap_or(0.0);
        report.layer.insert("core.reuse_ratio", reused / (reused + rebuilt).max(1.0));
        print_layer_table(&ledger);
        write_ledger(args, &ledger)?;
    }
    Ok(report)
}

/// Direct layer calls for each variant of the first traced cycle: one op
/// per variant.
fn probe(ledger: &mut Ledger, bases: &[Base], t: &Traffic) -> Result<(), String> {
    let options = AnalysisOptions::default();
    let base_analyses: Vec<_> =
        bases.iter().map(|b| spike_core::analyze_with(&b.program, &options)).collect();
    for v in t.variants.iter().take(STEPS * CLIENTS) {
        let root = ledger.begin_op("op");
        let program = decode(ledger, &v.edit.bytes)?;
        let mut cache =
            AnalysisCache::from_analysis(options.clone(), base_analyses[v.base].clone_exact());
        let re = ledger.span("core.reanalyze", || cache.reanalyze(&program, &v.edit.dirty).stats);
        ledger.count("reanalyze.reused", re.routines_reused as f64);
        ledger.count("reanalyze.rebuilt", re.routines_reanalyzed as f64);
        let lint = ledger.span("lint.check", || {
            let analysis = cache.analysis().expect("reanalyze leaves an analysis");
            lint_with(&program, analysis, &LintOptions::default())
        });
        ledger.count("lint.findings", lint.diagnostics().len() as f64);
        drop(cache);
        let visits = ledger.span("core.query", || {
            let mut engine = QueryEngine::new(&program, &options);
            let mut visits = 0;
            for name in &v.edit.routines {
                let rid = program.routine_by_name(name).expect("edited routine exists");
                for q in [Query::Summary(rid), Query::LiveAtEntry(rid)] {
                    visits += engine.query(&q).1.visits;
                }
            }
            visits
        });
        ledger.count("core.query_visits", visits as f64);
        front_end(ledger, &program);
        let analysis = traced_analyze(ledger, &program, &options);
        ledger.span("stack.analyze", || spike_core::analyze_stack(&program, &analysis.cfg));
        ledger
            .span("render.report", || analyze_report(&v.name, &program, &analysis, false, None))?;
        ledger.span("program.encode", || program.to_image());
        ledger.close(root);
    }
    Ok(())
}

/// Replays the traced request sequence through an in-process `Handler`
/// with the daemon's default store, after priming the same bases, in
/// the order the requests were sent; returns each request's handling time
/// in ms, indexed like `t.sent`.
fn replay(ledger: &mut Ledger, bases: &[Base], t: &Traffic) -> Vec<f64> {
    let handler = Handler {
        store: Arc::new(ProgramStore::new(
            AnalysisOptions::default(),
            ServeOptions::default().cache_bytes,
        )),
        metrics: Arc::new(Metrics::default()),
        queue_capacity: ServeOptions::default().queue_capacity,
        shutdown: Arc::new(AtomicBool::new(false)),
        cluster: None,
    };
    let far = || Deadline::starting_now(ServeOptions::default().default_deadline_ms);
    for base in bases {
        handler.handle(&analyze_request(format!("{}.img", base.name)), &base.bytes, &far());
    }
    let mut order: Vec<usize> = (0..t.sent.len()).collect();
    order.sort_by_key(|&i| t.sent[i].start);
    let mut ms = vec![0.0; t.sent.len()];
    for i in order {
        let s = &t.sent[i];
        let start = Instant::now();
        handler.handle(&s.req, &t.variants[s.variant].edit.bytes, &far());
        let end = Instant::now();
        ledger.record("serve.handle", start, end);
        ms[i] = (end - start).as_secs_f64() * 1e3;
    }
    ms
}
