//! Subcommand implementations for the `spike` binary.

use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spike_core::{analyze, analyze_with, AnalysisCache, AnalysisOptions, Query};
use spike_program::Program;
use spike_serve::render;
use spike_serve::{Command, Endpoint, LintFormat, QueryKind, Request, ServeOptions, Server};
use spike_sim::Outcome;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

const USAGE: &str = "\
usage: spike <command> [options]

commands:
  gen <benchmark> [--scale S] [--seed N] -o <img>   generate a paper-profile image
  gen-exec [--routines K] [--seed N] -o <img>       generate a runnable image
  asm <file.s> -o <img>                             assemble a text module
  disasm <img>                                      disassemble to parseable assembly
  analyze <img> [--summaries] [--routine NAME] [--profile p.prof] [--threads N]
                                                    interprocedural dataflow analysis
                                                    (--profile adds hot/cold routines)
  optimize <img> -o <img> [--threads N] [--iterate] [--profile p.prof] [--no-licm]
           [--incremental|--no-incremental]         apply the Figure-1 optimizations
                                                    plus loop-invariant code motion;
                                                    --profile weights loop and spill
                                                    decisions with measured counts
  run <img> [--fuel N]                              execute under the simulator
  profile <img> [--out p.prof] [--fuel N]           execute with edge/call/routine
                                                    counters and write (or merge into)
                                                    an execution profile
  lint <img> [--format human|json]                  interprocedural static checks
  query <kind> <routine> [<callee>] <img>           demand-driven analysis query
                                                    (summary, live-at-entry, uninit,
                                                    reaches <caller> <callee>)
  compare <img> [--threads N]                       PSG vs whole-CFG comparison
  dot <img> [--routine NAME]                        Program Summary Graph as GraphViz
  profiles                                          list generator benchmarks
  serve [--listen HOST:PORT] [--unix PATH] [--workers N] [--cache-bytes N]
        [--queue N] [--max-frame-bytes N] [--deadline-ms N] [--threads N]
        [--snapshot PATH] [--snapshot-interval-ms N] [--no-reactor]
        [--cluster A,B,C --shard-index I]           run the analysis daemon
  route --listen HOST:PORT --cluster A,B,C [--workers N] [--max-frame-bytes N]
                                                    run the cluster routing front
  client <cmd> [args] --connect <HOST:PORT|unix:PATH> [--deadline-ms N]
                                                    run analyze/lint/optimize/query/
                                                    compare/stats/shutdown against a
                                                    daemon; --cluster A,B,C instead of
                                                    --connect routes straight to the
                                                    owning shard
  loadgen --connect HOST:PORT [--connections N] [--inflight N] [--images M]
          [--routines K] [--seed S]                 hold N concurrent connections
                                                    against a daemon and report
                                                    p50/p95/p99 latency as JSON
";

/// Parses and executes one invocation. The returned code is the process
/// exit status: commands other than `lint` always exit 0 on success, and
/// `lint` exits 1 when it has error-severity findings (usage and I/O
/// problems exit 2 via the `Err` path).
pub fn dispatch(args: &[String]) -> Result<ExitCode> {
    let ok = |()| ExitCode::SUCCESS;
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("gen") => gen(&args[1..]).map(ok),
        Some("gen-exec") => gen_exec(&args[1..]).map(ok),
        Some("asm") => asm(&args[1..]).map(ok),
        Some("disasm") => disasm(&args[1..]).map(ok),
        Some("analyze") => cmd_analyze(&args[1..]).map(ok),
        Some("optimize") => cmd_optimize(&args[1..]).map(ok),
        Some("run") => cmd_run(&args[1..]).map(ok),
        Some("profile") => cmd_profile(&args[1..]).map(ok),
        Some("lint") => cmd_lint(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("compare") => compare(&args[1..]).map(ok),
        Some("dot") => dot(&args[1..]).map(ok),
        Some("serve") => serve(&args[1..]).map(ok),
        Some("route") => route(&args[1..]).map(ok),
        Some("client") => client(&args[1..]),
        Some("loadgen") => loadgen(&args[1..]).map(ok),
        Some("profiles") => {
            for p in spike_synth::profiles() {
                println!(
                    "{:<10} {:>7} routines {:>9} instructions  {}",
                    p.name, p.routines, p.instructions, p.description
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

/// Pulls `--flag value` pairs and positionals out of an argument list.
struct Opts<'a> {
    positional: Vec<&'a str>,
    scale: f64,
    seed: u64,
    routines: usize,
    fuel: u64,
    out: Option<&'a str>,
    summaries: bool,
    routine: Option<&'a str>,
    threads: usize,
    iterate: bool,
    incremental: bool,
    licm: bool,
    profile: Option<&'a str>,
    format: &'a str,
    listen: Option<&'a str>,
    unix: Option<&'a str>,
    connect: Option<&'a str>,
    workers: usize,
    cache_bytes: Option<usize>,
    queue: Option<usize>,
    max_frame_bytes: Option<usize>,
    deadline_ms: Option<u64>,
    snapshot: Option<&'a str>,
    snapshot_interval_ms: Option<u64>,
    no_reactor: bool,
    cluster: Vec<String>,
    shard_index: Option<usize>,
    connections: usize,
    inflight: usize,
    images: usize,
}

fn parse(args: &[String]) -> Result<Opts<'_>> {
    let mut o = Opts {
        positional: Vec::new(),
        scale: 0.05,
        seed: 1,
        routines: 6,
        fuel: 10_000_000,
        out: None,
        summaries: false,
        routine: None,
        threads: 0,
        iterate: false,
        incremental: true,
        licm: true,
        profile: None,
        format: "human",
        listen: None,
        unix: None,
        connect: None,
        workers: 0,
        cache_bytes: None,
        queue: None,
        max_frame_bytes: None,
        deadline_ms: None,
        snapshot: None,
        snapshot_interval_ms: None,
        no_reactor: false,
        cluster: Vec::new(),
        shard_index: None,
        connections: 10_000,
        inflight: 32,
        images: 4,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut want = |name: &str| -> Result<&str> {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value").into())
        };
        match a.as_str() {
            "--scale" => o.scale = want("--scale")?.parse()?,
            "--seed" => o.seed = want("--seed")?.parse()?,
            "--routines" => o.routines = want("--routines")?.parse()?,
            "--fuel" => o.fuel = want("--fuel")?.parse()?,
            "-o" | "--out" => o.out = Some(want("-o")?),
            "--summaries" => o.summaries = true,
            "--routine" => o.routine = Some(want("--routine")?),
            "--threads" => o.threads = want("--threads")?.parse()?,
            "--iterate" => o.iterate = true,
            "--incremental" => o.incremental = true,
            "--no-incremental" => o.incremental = false,
            "--no-licm" => o.licm = false,
            "--profile" => o.profile = Some(want("--profile")?),
            "--format" => o.format = want("--format")?,
            "--listen" => o.listen = Some(want("--listen")?),
            "--unix" => o.unix = Some(want("--unix")?),
            "--connect" => o.connect = Some(want("--connect")?),
            "--workers" => o.workers = want("--workers")?.parse()?,
            "--cache-bytes" => o.cache_bytes = Some(want("--cache-bytes")?.parse()?),
            "--queue" => o.queue = Some(want("--queue")?.parse()?),
            "--max-frame-bytes" => o.max_frame_bytes = Some(want("--max-frame-bytes")?.parse()?),
            "--deadline-ms" => o.deadline_ms = Some(want("--deadline-ms")?.parse()?),
            "--snapshot" => o.snapshot = Some(want("--snapshot")?),
            "--snapshot-interval-ms" => {
                o.snapshot_interval_ms = Some(want("--snapshot-interval-ms")?.parse()?)
            }
            "--no-reactor" => o.no_reactor = true,
            "--cluster" => {
                o.cluster = want("--cluster")?.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--shard-index" => o.shard_index = Some(want("--shard-index")?.parse()?),
            "--connections" => o.connections = want("--connections")?.parse()?,
            "--inflight" => o.inflight = want("--inflight")?.parse()?,
            "--images" => o.images = want("--images")?.parse()?,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`").into())
            }
            other => o.positional.push(other),
        }
    }
    Ok(o)
}

fn load(path: &str) -> Result<Program> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(Program::from_image(&bytes)?)
}

/// Loads a `--profile` file and verifies it binds to `image`. A stale or
/// corrupt profile is a usage error (exit 2), with the same message the
/// daemon puts in its `bad-request` response.
fn load_profile(path: &str, image: &[u8]) -> Result<spike_profile::Profile> {
    let profile = spike_profile::Profile::load(Path::new(path))
        .map_err(|e| format!("cannot load profile {path}: {e}"))?;
    if !profile.matches(image) {
        return Err(format!(
            "{path}: profile was collected from a different program image (stale profile)"
        )
        .into());
    }
    Ok(profile)
}

fn save(program: &Program, path: &str) -> Result<()> {
    fs::write(path, program.to_image()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

fn gen(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [name] = o.positional[..] else {
        return Err("gen needs a benchmark name (see `spike profiles`)".into());
    };
    let profile =
        spike_synth::profile(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let program = spike_synth::generate(&profile, o.scale, o.seed);
    let out = o.out.ok_or("gen needs -o <img>")?;
    save(&program, out)?;
    println!(
        "wrote {out}: {} routines, {} instructions ({} at scale {})",
        program.routines().len(),
        program.total_instructions(),
        name,
        o.scale
    );
    Ok(())
}

fn gen_exec(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let program = spike_synth::generate_executable(o.seed, o.routines);
    let out = o.out.ok_or("gen-exec needs -o <img>")?;
    save(&program, out)?;
    println!(
        "wrote {out}: {} routines, {} instructions (runnable)",
        program.routines().len(),
        program.total_instructions()
    );
    Ok(())
}

fn asm(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("asm needs a source path".into());
    };
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = spike_asm::parse_asm(&text)?;
    let out = o.out.ok_or("asm needs -o <img>")?;
    save(&program, out)?;
    println!(
        "wrote {out}: {} routines, {} instructions",
        program.routines().len(),
        program.total_instructions()
    );
    Ok(())
}

fn disasm(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("disasm needs an image path".into());
    };
    let program = load(path)?;
    // The output is the assembler's input format: `spike asm` accepts it.
    print!("{}", spike_asm::write_asm(&program));
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("analyze needs an image path".into());
    };
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = Program::from_image(&bytes)?;
    let profile = o.profile.map(|p| load_profile(p, &bytes)).transpose()?;
    let options = AnalysisOptions { threads: o.threads, ..AnalysisOptions::default() };
    let analysis = analyze_with(&program, &options);
    // Deterministic report on stdout, timing/scheduler diagnostics on
    // stderr — the same renderers the daemon uses, so `spike client
    // analyze` is byte-identical to this path.
    let report = render::analyze_report(path, &program, &analysis, o.summaries, o.routine)?;
    print!("{report}");
    if let Some(p) = &profile {
        print!("{}", render::profile_report(&program, p));
    }
    eprint!("{}", render::analyze_diag(&analysis.stats));
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("optimize needs an image path".into());
    };
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = Program::from_image(&bytes)?;
    let profile = o.profile.map(|p| load_profile(p, &bytes)).transpose()?;
    let pgo = profile.is_some();
    let opt_options = spike_opt::OptOptions {
        analysis: AnalysisOptions { threads: o.threads, ..AnalysisOptions::default() },
        iterate: o.iterate,
        incremental: o.incremental,
        licm: o.licm,
        profile,
        ..spike_opt::OptOptions::default()
    };
    let (optimized, report) = spike_opt::optimize_with(&program, &opt_options)?;
    let out = o.out.ok_or("optimize needs -o <img>")?;
    save(&optimized, out)?;
    print!("{}", render::optimize_report(path, out, &report, o.incremental, pgo));
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("run needs an image path".into());
    };
    let program = load(path)?;
    match spike_sim::run(&program, o.fuel) {
        Outcome::Halted { output, steps } => {
            for v in output {
                println!("{v}");
            }
            eprintln!("halted after {steps} instructions");
            Ok(())
        }
        Outcome::OutOfFuel { .. } => Err(format!("did not halt within {} steps", o.fuel).into()),
        Outcome::Fault(f) => Err(format!("fault: {f}").into()),
        other => Err(format!("unexpected simulator outcome: {other:?}").into()),
    }
}

fn cmd_profile(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("profile needs an image path".into());
    };
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = Program::from_image(&bytes)?;
    let out = o.out.map(str::to_string).unwrap_or_else(|| format!("{path}.prof"));

    let (outcome, exec) = spike_sim::run_profiled(&program, o.fuel);
    let mut profile = spike_profile::Profile::collect(&program, &exec);

    // A profile file for the same image accumulates: counts from every
    // run add up. A file bound to a *different* image is replaced (its
    // counts are meaningless here), with a note on stderr.
    let mut merged = false;
    if fs::metadata(&out).is_ok() {
        let existing = spike_profile::Profile::load(Path::new(&out))
            .map_err(|e| format!("cannot load existing profile {out}: {e}"))?;
        if existing.matches(&bytes) {
            profile.merge(&existing).map_err(|e| format!("cannot merge into {out}: {e}"))?;
            merged = true;
        } else {
            eprintln!("spike: {out} was collected from a different image; replacing it");
        }
    }
    profile.save(Path::new(&out)).map_err(|e| format!("cannot write {out}: {e}"))?;

    let ending = match &outcome {
        Outcome::Halted { .. } => "halted",
        Outcome::OutOfFuel { .. } => "ran out of fuel",
        Outcome::Fault(_) => "faulted",
        _ => "stopped",
    };
    println!(
        "wrote {out}: {} after {} instructions, {} call(s); {} run(s) recorded{}",
        ending,
        exec.total_steps,
        profile.calls,
        profile.runs,
        if merged { " (merged)" } else { "" }
    );
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<ExitCode> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("lint needs an image path".into());
    };
    let format = LintFormat::parse(o.format)?;
    // A file that cannot be read is a usage problem (exit 2); a file that
    // reads but fails validation is a *finding* (`malformed-image`,
    // exit 1), so an automated caller sees it in the report.
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = match Program::from_image(&bytes) {
        Ok(program) => spike_lint::lint(&program),
        Err(e) => spike_lint::malformed_image(e.to_string()),
    };
    print!("{}", render::lint_report(path, &report, format));
    Ok(if report.errors() > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

/// Splits `query`'s positionals into (kind, routine, callee, image),
/// shared by the local and client paths. Only `reaches` takes a callee.
fn query_args<'a>(
    positional: &[&'a str],
) -> Result<(QueryKind, &'a str, Option<&'a str>, &'a str)> {
    let (kind, routine, callee, path) = match *positional {
        [kind, routine, path] => (kind, routine, None, path),
        [kind, routine, callee, path] => (kind, routine, Some(callee), path),
        _ => return Err("query needs: query <kind> <routine> [<callee>] <img>".into()),
    };
    let kind = QueryKind::parse(kind)?;
    match (kind, callee) {
        (QueryKind::Reaches, None) => {
            Err("reaches needs: query reaches <caller> <callee> <img>".into())
        }
        (QueryKind::Reaches, Some(_)) | (_, None) => Ok((kind, routine, callee, path)),
        (_, Some(_)) => {
            Err(format!("only `reaches` takes a callee, `{}` does not", kind.name()).into())
        }
    }
}

fn cmd_query(args: &[String]) -> Result<ExitCode> {
    let o = parse(args)?;
    let (kind, routine, callee, path) = query_args(&o.positional)?;
    let program = load(path)?;
    let rid =
        program.routine_by_name(routine).ok_or_else(|| format!("no routine named `{routine}`"))?;
    let options = AnalysisOptions { threads: o.threads, ..AnalysisOptions::default() };
    // The cache starts cold, so the engine solves exactly the query's
    // cone — the same demand path the daemon uses for a fresh image.
    let mut cache = AnalysisCache::new(options);
    let (stdout, stats, exit) = match kind {
        QueryKind::Uninit => {
            // Lint-shaped: findings are the report, exit 1 when any are
            // error severity — exactly like `spike lint`, sliced to one
            // routine.
            let (report, stats) = cache.with_uninit_facts(&program, rid, |cfg, summary| {
                spike_lint::uninit_routine(&program, cfg, summary, rid)
            });
            let exit = if report.errors() > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS };
            (render::lint_report(path, &report, LintFormat::Human), stats, exit)
        }
        _ => {
            let query = match kind {
                QueryKind::Summary => Query::Summary(rid),
                QueryKind::LiveAtEntry => Query::LiveAtEntry(rid),
                QueryKind::Reaches => {
                    let callee = callee.expect("query_args requires a callee for reaches");
                    let cid = program
                        .routine_by_name(callee)
                        .ok_or_else(|| format!("no routine named `{callee}`"))?;
                    Query::Reaches { caller: rid, callee: cid }
                }
                QueryKind::Uninit => unreachable!("handled above"),
            };
            let (answer, stats) = cache.query(&program, &query);
            (render::query_report(routine, callee, &answer), stats, ExitCode::SUCCESS)
        }
    };
    print!("{stdout}");
    eprint!("{}", render::query_diag(&stats));
    Ok(exit)
}

fn dot(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("dot needs an image path".into());
    };
    let program = load(path)?;
    let analysis = analyze(&program);
    let routine = match o.routine {
        Some(name) => Some(
            program.routine_by_name(name).ok_or_else(|| format!("no routine named `{name}`"))?,
        ),
        None => None,
    };
    print!("{}", analysis.psg.to_dot(&program, routine));
    Ok(())
}

fn compare(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("compare needs an image path".into());
    };
    let program = load(path)?;
    let options = AnalysisOptions { threads: o.threads, ..AnalysisOptions::default() };
    let psg = analyze_with(&program, &options);
    let full = spike_baseline::analyze_baseline_with(&program, &options);
    let report = render::compare_report(&program, &psg, &full)?;
    print!("{report}");
    eprint!("{}", render::compare_diag(&psg, &full));
    Ok(())
}

fn serve(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let mut options = ServeOptions {
        tcp: o.listen.map(str::to_string),
        unix: o.unix.map(PathBuf::from),
        workers: o.workers,
        analysis_threads: o.threads,
        ..ServeOptions::default()
    };
    if let Some(n) = o.cache_bytes {
        options.cache_bytes = n;
    }
    if let Some(n) = o.queue {
        options.queue_capacity = n;
    }
    if let Some(n) = o.max_frame_bytes {
        options.max_frame_bytes = n;
    }
    if let Some(n) = o.deadline_ms {
        options.default_deadline_ms = n;
    }
    options.snapshot = o.snapshot.map(PathBuf::from);
    options.snapshot_interval_ms = o.snapshot_interval_ms;
    if o.no_reactor {
        options.event_driven = false;
    }
    options.cluster = o.cluster.clone();
    options.shard_index = o.shard_index;
    #[cfg(unix)]
    spike_serve::server::install_sigterm_handler();
    let server = Server::start(&options)?;
    if let Some(addr) = server.tcp_addr() {
        eprintln!("spike: serving on tcp {addr}");
    }
    if let Some(path) = &options.unix {
        eprintln!("spike: serving on unix {}", path.display());
    }
    // Returns once a `shutdown` command or SIGTERM drains the daemon;
    // all accepted requests have been answered.
    server.run_to_completion();
    Ok(())
}

fn route(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let options = spike_serve::RouterOptions {
        listen: o.listen.ok_or("route needs --listen HOST:PORT")?.to_string(),
        shards: o.cluster.clone(),
        max_frame_bytes: o
            .max_frame_bytes
            .unwrap_or_else(|| spike_serve::RouterOptions::default().max_frame_bytes),
        workers: if o.workers == 0 {
            spike_serve::RouterOptions::default().workers
        } else {
            o.workers
        },
    };
    if options.shards.is_empty() {
        return Err("route needs --cluster A,B,C (the shard addresses)".into());
    }
    #[cfg(unix)]
    spike_serve::server::install_sigterm_handler();
    let router = spike_serve::Router::start(&options)?;
    eprintln!("spike: routing on tcp {} over {} shard(s)", router.addr(), options.shards.len());
    // Returns on SIGTERM; in-flight relays finish first.
    router.run_to_completion();
    Ok(())
}

fn loadgen(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let options = spike_serve::loadgen::LoadgenOptions {
        connect: o.connect.ok_or("loadgen needs --connect HOST:PORT")?.to_string(),
        connections: o.connections,
        inflight: o.inflight,
    };
    let images: Vec<Vec<u8>> = (0..o.images.max(1))
        .map(|i| spike_synth::generate_executable(o.seed ^ i as u64, o.routines).to_image())
        .collect();
    eprintln!(
        "spike: loadgen {} connections ({} in flight) against {}",
        options.connections, options.inflight, options.connect
    );
    let report = spike_serve::loadgen::run(&options, &images)
        .map_err(|e| -> Box<dyn Error> { format!("loadgen: {e}").into() })?;
    eprintln!(
        "spike: {} ok, {} errors, p50 {} us, p95 {} us, p99 {} us",
        report.ok, report.errors, report.p50_us, report.p95_us, report.p99_us
    );
    let mut out = String::new();
    report.to_json().write(&mut out);
    println!("{out}");
    if report.errors > 0 {
        return Err(format!("loadgen saw {} failed requests", report.errors).into());
    }
    Ok(())
}

fn client(args: &[String]) -> Result<ExitCode> {
    let Some(sub) = args.first().map(String::as_str) else {
        return Err(
            "client needs a subcommand (analyze, lint, optimize, query, compare, stats, shutdown)"
                .into(),
        );
    };
    let o = parse(&args[1..])?;
    // `--connect` names one daemon; `--cluster` lists every shard and
    // the client computes the owning shard itself (no router hop).
    let endpoint = match o.connect {
        Some(c) => Some(Endpoint::parse(c)?),
        None if !o.cluster.is_empty() => None,
        None => {
            return Err("client needs --connect <HOST:PORT|unix:PATH> or --cluster A,B,C".into())
        }
    };

    let image_path = |what: &str| -> Result<&str> {
        match o.positional[..] {
            [path] => Ok(path),
            _ => Err(format!("{what} needs an image path").into()),
        }
    };
    let (cmd, path) = match sub {
        "analyze" => (
            Command::Analyze { summaries: o.summaries, routine: o.routine.map(str::to_string) },
            Some(image_path("analyze")?),
        ),
        "lint" => {
            (Command::Lint { format: LintFormat::parse(o.format)? }, Some(image_path("lint")?))
        }
        "optimize" => {
            let out = o.out.ok_or("optimize needs -o <img>")?;
            (
                Command::Optimize {
                    out: out.to_string(),
                    iterate: o.iterate,
                    incremental: o.incremental,
                    licm: o.licm,
                },
                Some(image_path("optimize")?),
            )
        }
        "query" => {
            let (kind, routine, callee, path) = query_args(&o.positional)?;
            (
                Command::Query {
                    kind,
                    routine: routine.to_string(),
                    callee: callee.map(str::to_string),
                },
                Some(path),
            )
        }
        "compare" => (Command::Compare, Some(image_path("compare")?)),
        "stats" => (Command::Stats, None),
        "shutdown" => (Command::Shutdown, None),
        other => return Err(format!("unknown client subcommand `{other}`").into()),
    };

    // The image is read client-side: an unreadable file fails here with
    // the same message and exit code (2) as the local commands. A
    // `--profile` file rides in the same frame blob, after the image;
    // it is validated client-side too, so a stale profile fails with the
    // local path's message before any bytes go over the wire.
    let mut blob = match path {
        Some(p) => fs::read(p).map_err(|e| format!("cannot read {p}: {e}"))?,
        None => Vec::new(),
    };
    let mut profile_len = 0;
    if let Some(ppath) = o.profile {
        let profile_bytes = load_profile(ppath, &blob)?.to_bytes();
        profile_len = profile_bytes.len();
        blob.extend_from_slice(&profile_bytes);
    }
    let request = Request {
        cmd,
        image_name: path.unwrap_or_default().to_string(),
        deadline_ms: o.deadline_ms,
        profile_len,
    };
    let (response, blob) = match &endpoint {
        Some(endpoint) => spike_serve::client::request(endpoint, &request, &blob)?,
        None => spike_serve::cluster::cluster_request(&o.cluster, &request, &blob)?,
    };
    if let Some((kind, message)) = &response.error {
        eprint!("{}", response.diag);
        return Err(format!("daemon refused request ({}): {message}", kind.name()).into());
    }
    if let Command::Optimize { .. } = request.cmd {
        let out = o.out.expect("checked above");
        fs::write(out, &blob).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    // Report bytes exactly as the local path would print them; daemon
    // diagnostics (timings, cache disposition) go to stderr.
    print!("{}", response.stdout);
    eprint!("{}", response.diag);
    Ok(ExitCode::from(response.exit))
}
