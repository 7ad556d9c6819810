//! `paper` — the one CLI reproducing every table and figure of the PIECK
//! paper.
//!
//! [`frs_experiments::cli::usage`] is its usage text, every flag and every
//! command; `paper` with no arguments prints it. For example:
//!
//! ```text
//! paper list                 # available commands
//! paper table4 --scale 0.25  # Table IV at quarter scale
//! paper table3 ml100k ml1m   # Table III on two datasets
//! paper all --json out/      # everything, with JSON reports in out/
//! paper all --cache-dir cache/ --progress run.jsonl   # cached + observable
//! paper cache stats --cache-dir cache/                # inspect the cache
//! paper defenses list        # defense catalog: names, sides, param schemas
//! paper attacks list         # attack catalog: names, labels, param schemas
//! paper table5 --defense ours:beta=0.9,re2=false  # parameterized override
//! paper table3 --attack pieck-uea:scale=2.0,top_n=20  # attack-side override
//! paper table4 mf --dataset file:data/u.data      # real MovieLens dump
//! ```
//!
//! Every command prints a Markdown report to stdout (unless `--quiet`) and
//! optionally writes the same report as JSON/CSV. Suite-backed commands run
//! their scenario grid in parallel across `--threads` workers; with
//! `--round-threads auto`, executing cells additionally lease spare workers
//! for their intra-round client fan-out (the big win on warm-cache runs
//! where only a few cells remain). Results are identical regardless of
//! thread counts or policy.
//!
//! With `--cache-dir`, every finished grid cell persists under a content
//! hash of its scenario config, so re-runs (and overlapping grids across
//! commands) replay instead of recomputing — an interrupted `paper all`
//! restarted with `--resume` executes only the missing cells. `--progress`
//! streams one JSONL event per finished cell for mid-flight observability.
// Exit codes are the `paper` CLI's documented interface (0 ok, 1 failure,
// 2 usage, EXIT_INTERRUPTED for checkpoint-then-stop): the workspace-wide
// `clippy::exit` deny keeps `exit` out of library code, not out of the
// binary's command dispatch.
#![allow(clippy::exit)]

use frs_attacks::AttackKind;
use frs_defense::DefenseKind;
use frs_experiments::paper::PaperCommand;
use frs_experiments::suite::ExecOptions;
use frs_experiments::{CommonArgs, JsonlSink, Report, ReportFormat, SuiteCache};
use frs_federation::{Catalog, CoreBudget, Selection};

fn print_usage() {
    eprint!("{}", frs_experiments::cli::usage());
}

/// Exits 2 with the error when `sel` does not build against `ctx`.
fn probe<C: Catalog>(sel: &Selection<C>, ctx: &C::Ctx<'_>, flag: &str) {
    if let Err(e) = sel.try_build(ctx) {
        eprintln!("bad {flag} {sel}: {e}");
        std::process::exit(2);
    }
}

/// `paper attacks list` / `paper defenses list`: every row of catalog `C`
/// with its table label, its `side` column when the family has one, and its
/// parameter schema (the keys `--attack`/`--defense name:k=v,…` accepts).
fn list<C: Catalog>(name_width: usize, side: Option<fn(C) -> &'static str>) {
    let side_header = side.map_or(String::new(), |_| format!("{:<7} ", "side"));
    println!(
        "{:<name_width$} {:<14} {side_header}params",
        "name", "label"
    );
    for &row in C::rows() {
        let side_cell = side.map_or(String::new(), |side| format!("{:<7} ", side(row)));
        let schema = row.param_schema();
        let params = if schema.is_empty() {
            "-".to_string()
        } else {
            schema
                .iter()
                .map(|p| format!("{} ({}; default: {})", p.key, p.doc, p.default))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "{:<name_width$} {:<14} {side_cell}{params}",
            row.name(),
            row.label()
        );
    }
}

fn emit(report: &Report, args: &CommonArgs) {
    if !args.quiet {
        print!("{}", report.to_markdown());
    }
    if let Some(dir) = &args.json {
        match report.write_to(dir, ReportFormat::Json) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write JSON report: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = &args.csv {
        match report.write_to(dir, ReportFormat::Csv) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write CSV report: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn run_or_exit(cmd: PaperCommand, args: &CommonArgs, exec: &ExecOptions<'_>) -> Report {
    cmd.run(args, exec).unwrap_or_else(|msg| {
        eprintln!("paper {}: {msg}", cmd.name());
        // A suite aborted by SIGINT/SIGTERM is a clean checkpoint-and-stop,
        // not an argument error: exit with the conventional interrupt code
        // so wrappers (CI, shell scripts) can tell the two apart.
        if frs_experiments::shutdown::requested() {
            std::process::exit(frs_experiments::shutdown::EXIT_INTERRUPTED);
        }
        std::process::exit(2);
    })
}

/// `paper cache <stats|gc|clear> --cache-dir dir`.
fn cache_command(args: &CommonArgs) {
    let Some(dir) = &args.cache_dir else {
        eprintln!("paper cache: needs --cache-dir");
        std::process::exit(2);
    };
    // Inspection must not conjure the directory: a typo'd path should say
    // so, not report an empty cache (SuiteCache::open would create it).
    if !dir.is_dir() {
        eprintln!("paper cache: no such cache directory: {}", dir.display());
        std::process::exit(1);
    }
    let cache = SuiteCache::open(dir).unwrap_or_else(|e| {
        eprintln!("paper cache: cannot open {}: {e}", dir.display());
        std::process::exit(1);
    });
    let action = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("stats");
    match action {
        "stats" => match cache.stats() {
            Ok(stats) => {
                println!(
                    "cache {}: {} files ({} live, {} stale, {} corrupt, {} checkpoints), {} bytes ({} in checkpoints)",
                    dir.display(),
                    stats.files(),
                    stats.live,
                    stats.stale,
                    stats.corrupt,
                    stats.checkpoints,
                    stats.total_bytes,
                    stats.checkpoint_bytes
                );
            }
            Err(e) => {
                eprintln!("paper cache stats: {e}");
                std::process::exit(1);
            }
        },
        "gc" | "clear" if args.dry_run => match cache.gc_plan(action == "clear") {
            Ok(plan) => {
                for doomed in &plan {
                    println!(
                        "would remove {} ({} bytes): {}",
                        doomed.path.display(),
                        doomed.bytes,
                        doomed.reason
                    );
                }
                let bytes: u64 = plan.iter().map(|d| d.bytes).sum::<u64>();
                println!(
                    "cache {}: would remove {} files, reclaim {} bytes",
                    dir.display(),
                    plan.len(),
                    bytes
                );
            }
            Err(e) => {
                eprintln!("paper cache {action}: {e}");
                std::process::exit(1);
            }
        },
        "gc" | "clear" => match cache.gc(action == "clear") {
            Ok(gc) => {
                println!(
                    "cache {}: removed {} files, reclaimed {} bytes",
                    dir.display(),
                    gc.removed,
                    gc.reclaimed_bytes
                );
            }
            Err(e) => {
                eprintln!("paper cache {action}: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("paper cache: unknown action `{other}`; use stats|gc|clear");
            std::process::exit(2);
        }
    }
}

/// Exits 2 when a shared run flag cannot build: every command that runs a
/// scenario, `serve` included, checks them before it starts.
fn check_run_flags(args: &CommonArgs) {
    // Validate --attack/--defense overrides up front with a full try-build
    // probe against a neutral context (for attacks, count = 0: params are
    // validated, no client is constructed): unknown names, typo'd keys, and
    // mistyped/out-of-range values are all a clean exit 2 instead of a
    // worker panic three cells into a sweep. Every attack and defense the
    // paper CLI can sweep is a builtin catalog entry, so an unresolved name
    // here is always an error.
    if let Some(sel) = &args.run.attack {
        probe(
            sel,
            &frs_attacks::AttackBuildCtx::minimal(0, 0, &[]),
            "--attack",
        );
    }
    if let Some(sel) = &args.run.defense {
        probe(
            sel,
            &frs_defense::DefenseBuildCtx::minimal(0.05, 0.05),
            "--defense",
        );
    }

    // Same courtesy for --dataset file:PATH — a missing file should be a
    // clean argument error, not a mid-sweep worker panic. (Malformed
    // content still fails at load time with the offending line number.)
    if let Some(frs_experiments::PaperDataset::File(path)) = &args.run.dataset {
        if !std::path::Path::new(path).is_file() {
            eprintln!("bad --dataset file:{path}: no such file");
            std::process::exit(2);
        }
    }
}

/// `paper serve [mf|ncf] [--socket path.sock] [--tcp addr]
/// [--scenario [name=]mf|ncf]... [--dataset d] [--cache-dir dir]
/// [--checkpoint-every n] [--keep-checkpoints k] [--probe-every n]
/// [--rounds n] [--scale f] [--seed s] [--attack a] [--defense d]
/// [--clients-per-round c]`:
/// train (or resume) every scenario while answering top-K queries on a
/// Unix socket and/or TCP listener, until SIGINT/SIGTERM. Requests route
/// by `{"scenario":NAME}`; the first scenario is the default.
fn serve_command(args: &CommonArgs) -> ! {
    if args.socket.is_none() && args.tcp.is_none() {
        eprintln!("paper serve: needs --socket PATH and/or --tcp ADDR");
        std::process::exit(2);
    }
    check_run_flags(args);
    // `--scenario` specs win; the bare positional model operand remains the
    // single-scenario shorthand (`paper serve ncf`).
    let specs: Vec<String> = if args.scenarios.is_empty() {
        vec![args
            .positional
            .get(1)
            .cloned()
            .unwrap_or_else(|| "mf".to_string())]
    } else {
        args.scenarios.clone()
    };
    let specs: Vec<frs_experiments::ServeScenarioSpec> = specs
        .iter()
        .map(|s| {
            frs_experiments::ServeScenarioSpec::parse(s, &args.run).unwrap_or_else(|e| {
                eprintln!("paper serve: {e}");
                std::process::exit(2);
            })
        })
        .collect();

    let cache = match (&args.cache_dir, args.no_cache) {
        (Some(dir), false) => Some(SuiteCache::open(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {}: {e}", dir.display());
            std::process::exit(1);
        })),
        _ => None,
    };
    // Serve is always interruptible: the whole point of the daemon is that
    // Ctrl-C drains queries and leaves a resumable checkpoint behind.
    frs_experiments::shutdown::install_handlers();
    let budget = CoreBudget::new(args.run.threads);
    for spec in &specs {
        eprintln!(
            "paper serve: scenario `{}` — {} rounds on {}",
            spec.name, spec.cfg.rounds, spec.cfg.dataset.name
        );
    }
    let opts = frs_experiments::ServeOptions {
        socket: args.socket.as_deref(),
        tcp: args.tcp.as_deref(),
        cache: cache.as_ref(),
        checkpoint_every: args.checkpoint_every,
        keep_checkpoints: args.keep_checkpoints,
        probe_every: args.probe_every,
        tcp_bound: None,
    };
    match frs_experiments::serve_scenarios(specs, &opts, &budget) {
        Ok(summary) => {
            for s in &summary.scenarios {
                eprintln!(
                    "paper serve: `{}` stopped at round {}/{} ({} queries{})",
                    s.name,
                    s.rounds_done,
                    s.target_rounds,
                    s.queries_served,
                    match s.resumed_from {
                        Some(round) => format!(", resumed from round {round}"),
                        None => String::new(),
                    }
                );
            }
            eprintln!(
                "paper serve: {} queries served total",
                summary.queries_served
            );
            std::process::exit(frs_experiments::shutdown::EXIT_INTERRUPTED);
        }
        Err(msg) => {
            eprintln!("paper serve: {msg}");
            std::process::exit(1);
        }
    }
}

/// `paper loadtest (--tcp addr | --socket path) [--connections n]
/// [--pipeline n] [--requests n] [--rate r] [--dist uniform|zipf[:exp]]
/// [--seed s] [--scenario name]... [--gate-json file]`: drive a running
/// `paper serve` daemon to saturation and report QPS + latency quantiles.
/// `--rate` switches from closed-loop (pipeline-limited) to open-loop
/// (scheduled arrivals, coordinated-omission-free). `--gate-json` appends
/// the run's bench-gate records for `bench-gate compare`.
fn loadtest_command(args: &CommonArgs) -> ! {
    let target = match (&args.tcp, &args.socket) {
        (Some(addr), _) => frs_loadtest::Target::Tcp(addr.clone()),
        (None, Some(path)) => frs_loadtest::Target::Unix(path.clone()),
        (None, None) => {
            eprintln!("paper loadtest: needs --tcp ADDR or --socket PATH");
            std::process::exit(2);
        }
    };
    let dist = frs_loadtest::KeyDist::parse(&args.dist).unwrap_or_else(|e| {
        eprintln!("paper loadtest: bad --dist: {e}");
        std::process::exit(2);
    });
    let opts = frs_loadtest::LoadOptions {
        target,
        connections: args.connections,
        pipeline: args.pipeline,
        requests: args.requests,
        mode: match args.rate {
            Some(rate) => frs_loadtest::Mode::Open { rate },
            None => frs_loadtest::Mode::Closed,
        },
        dist,
        seed: args.run.seed,
        scenarios: args.scenarios.clone(),
        ..frs_loadtest::LoadOptions::default()
    };
    match frs_loadtest::run(&opts) {
        Ok(report) => {
            println!("{}", report.summary());
            if let Some(path) = &args.gate_json {
                use std::io::Write as _;
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .unwrap_or_else(|e| {
                        eprintln!("cannot open {}: {e}", path.display());
                        std::process::exit(1);
                    });
                file.write_all(report.gate_records().as_bytes())
                    .unwrap_or_else(|e| {
                        eprintln!("cannot write {}: {e}", path.display());
                        std::process::exit(1);
                    });
                eprintln!("appended gate records to {}", path.display());
            }
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("paper loadtest: {msg}");
            std::process::exit(1);
        }
    }
}

/// A resolved run request (the commands that execute suites).
enum Invocation {
    All,
    One(PaperCommand),
}

fn main() {
    let args = CommonArgs::parse();
    let Some(command) = args.positional.first().map(String::as_str) else {
        print_usage();
        std::process::exit(2);
    };

    // Resolve the command *before* opening any sink: a typo'd command (or
    // `list`) must not truncate an existing progress file.
    let invocation = match command {
        "list" => {
            for cmd in PaperCommand::all() {
                println!("{:<16} {}", cmd.name(), cmd.description());
            }
            return;
        }
        cmd @ ("defenses" | "attacks") => {
            // `list` is the only action (and the default) — an unknown
            // operand is an argument error, matching `cache`'s dispatch.
            match args.positional.get(1).map(String::as_str) {
                None | Some("list") => {}
                Some(other) => {
                    eprintln!("paper {cmd}: unknown action `{other}`; use list");
                    std::process::exit(2);
                }
            }
            if cmd == "defenses" {
                list::<DefenseKind>(
                    14,
                    Some(|row| {
                        if row.is_client_side() {
                            "client"
                        } else {
                            "server"
                        }
                    }),
                );
            } else {
                list::<AttackKind>(22, None);
            }
            return;
        }
        "cache" => {
            cache_command(&args);
            return;
        }
        "serve" => serve_command(&args),
        "loadtest" => loadtest_command(&args),
        "all" => Invocation::All,
        name => match PaperCommand::from_name(name) {
            Some(cmd) => Invocation::One(cmd),
            None => {
                eprintln!("unknown command `{name}`");
                print_usage();
                std::process::exit(2);
            }
        },
    };

    check_run_flags(&args);

    let cache = match (&args.cache_dir, args.no_cache) {
        (Some(dir), false) => Some(SuiteCache::open(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {}: {e}", dir.display());
            std::process::exit(1);
        })),
        _ => None,
    };
    // Bespoke commands have no cell grid, so their sink would never receive
    // an event (the file itself is safe either way — JsonlSink only
    // truncates at the first event). Skip opening it and say so, instead of
    // leaving the user waiting on a progress stream that stays empty.
    let wants_sink = match &invocation {
        Invocation::All => true,
        Invocation::One(cmd) => cmd.emits_cell_events(),
    };
    if !wants_sink && args.progress.is_some() {
        eprintln!("note: this command has no cell grid; --progress is not written");
    }
    let sink = args.progress.as_ref().filter(|_| wants_sink).map(|path| {
        JsonlSink::open(path, args.resume).unwrap_or_else(|e| {
            eprintln!("cannot open progress file {}: {e}", path.display());
            std::process::exit(1);
        })
    });
    // One core budget for the whole invocation: `paper all` runs many suites
    // through the same ledger, so their combined fan-out never oversubscribes
    // the `--threads` grant.
    let budget = CoreBudget::new(args.run.threads);
    // Checkpointed runs trade default kill-me-now signal semantics for
    // checkpoint-and-exit-130; plain runs keep the default.
    if args.checkpoint_every > 0 {
        frs_experiments::shutdown::install_handlers();
    }
    let exec = ExecOptions {
        cache: cache.as_ref(),
        sink: sink
            .as_ref()
            .map(|s| s as &dyn frs_experiments::ProgressSink),
        budget: Some(&budget),
        checkpoint_every: args.checkpoint_every,
        checkpoint_keep: args.keep_checkpoints,
    };

    match invocation {
        Invocation::All => {
            for cmd in PaperCommand::all() {
                eprintln!("== paper {} ==", cmd.name());
                emit(&run_or_exit(cmd, &args, &exec), &args);
            }
        }
        Invocation::One(cmd) => emit(&run_or_exit(cmd, &args, &exec), &args),
    }
}
