//! Minimal argument parsing for the `paper` CLI.
//!
//! Kept dependency-free (no clap in the sanctioned crate set): flags are
//! `--name value` pairs plus positional arguments (the subcommand and its
//! operands). The flags every experiment shares parse straight into the
//! [`RunOptions`] that [`CommonArgs::run`] carries; the rest configure
//! sinks, the cache, and the `serve`/`loadtest` daemons.

use std::path::PathBuf;

use frs_attacks::AttackSel;
use frs_defense::DefenseSel;
use frs_federation::{ClientsPerRound, RoundThreads};

use crate::paper::PaperCommand;
use crate::presets::PaperDataset;
use crate::suite::RunOptions;

/// The fixed part of [`usage`]: every flag [`CommonArgs::parse_from`]
/// accepts (the daemon ones under the command that reads them), then the
/// commands that are not [`PaperCommand`]s.
const USAGE_HEAD: &str = "\
usage: paper <command> [operands] [--scale f] [--rounds n] [--seed s] [--full]
                       [--threads n] [--round-threads auto|n]
                       [--attack name[:k=v,...]] [--defense name[:k=v,...]]
                       [--dataset ml100k|ml1m|az|file:PATH]
                       [--clients-per-round n|frac|pct%]
                       [--json dir] [--csv dir] [--quiet] [--cache-dir dir]
                       [--no-cache] [--progress file] [--resume]
                       [--checkpoint-every n] [--keep-checkpoints k] [--dry-run]
  serve:               [--socket path] [--tcp addr] [--scenario [name=]mf|ncf]
                       [--probe-every n]
  loadtest:            [--tcp addr] [--socket path] [--connections n]
                       [--pipeline n] [--requests n] [--rate r]
                       [--dist uniform|zipf[:exp]] [--gate-json file]

commands:
  list             list every reproduction command
  all              run every table and figure
  attacks list     list the attack catalog (name, label, params)
  defenses list    list the defense catalog (name, label, side, params)
  cache <stats|gc|clear>   inspect / clean a --cache-dir
  serve [mf|ncf]   top-K query daemon (--socket/--tcp, --scenario repeatable;
                   trains while serving)
  loadtest         saturate a serve daemon
";

/// The `paper` usage text: every flag and every command. `paper` with no
/// arguments, an unknown command and an argument error all print it.
pub fn usage() -> String {
    let commands: String = PaperCommand::all()
        .iter()
        .map(|cmd| format!("  {:<16} {}\n", cmd.name(), cmd.description()))
        .collect();
    format!("{USAGE_HEAD}{commands}")
}

/// Arguments every `paper` subcommand understands.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// The run options every command shares: `--scale`/`--full`,
    /// `--rounds`, `--seed`, `--threads`, `--round-threads`, and the
    /// `--attack`, `--defense`, `--dataset` and `--clients-per-round`
    /// overrides. `--attack` and `--defense` are probed with a full
    /// try-build at startup, so a typo'd spec is a clean exit 2, not a
    /// mid-sweep worker panic.
    pub run: RunOptions,
    /// Directory to write the JSON report into (`--json out/`).
    pub json: Option<PathBuf>,
    /// Directory to write the CSV report into (`--csv out/`).
    pub csv: Option<PathBuf>,
    /// Suppress the Markdown report on stdout (`--quiet`).
    pub quiet: bool,
    /// Content-addressed suite cache directory (`--cache-dir cache/`).
    pub cache_dir: Option<PathBuf>,
    /// Disables the cache even when `--cache-dir` is set (`--no-cache`).
    pub no_cache: bool,
    /// JSONL progress stream, one event per finished cell
    /// (`--progress run.jsonl`).
    pub progress: Option<PathBuf>,
    /// Resume an interrupted run: requires `--cache-dir` (finished cells
    /// replay as hits, partially-trained cells continue from their
    /// checkpoint) and appends to `--progress` instead of truncating.
    pub resume: bool,
    /// Write a mid-run checkpoint every N rounds (`--checkpoint-every N`;
    /// 0 = disabled). Requires `--cache-dir`: checkpoints live beside the
    /// cell entries they resume into. Also arms the SIGINT/SIGTERM
    /// final-checkpoint-then-exit-130 path.
    pub checkpoint_every: usize,
    /// `paper cache gc --dry-run`: list what gc would remove, remove nothing.
    pub dry_run: bool,
    /// Unix socket path the `paper serve` daemon listens on
    /// (`--socket run.sock`).
    pub socket: Option<PathBuf>,
    /// TCP address `paper serve` listens on / `paper loadtest` targets
    /// (`--tcp 127.0.0.1:7411`; port 0 binds an ephemeral port).
    pub tcp: Option<String>,
    /// Scenario specs for `paper serve`, repeatable
    /// (`--scenario [name=]mf|ncf`). Empty = single scenario from the
    /// positional model operand.
    pub scenarios: Vec<String>,
    /// Checkpoint generations retained per checkpointed suite cell or
    /// `paper serve` scenario (`--keep-checkpoints K`, default 1 = newest
    /// only).
    pub keep_checkpoints: usize,
    /// Rounds between `paper serve` online ER/HR probes
    /// (`--probe-every N`, 0 = disabled).
    pub probe_every: usize,
    /// `paper loadtest` concurrent connections (`--connections N`).
    pub connections: usize,
    /// `paper loadtest` in-flight requests per connection (`--pipeline N`).
    pub pipeline: usize,
    /// `paper loadtest` total requests (`--requests N`).
    pub requests: u64,
    /// `paper loadtest` open-loop arrival rate in req/s (`--rate R`);
    /// absent = closed loop.
    pub rate: Option<f64>,
    /// `paper loadtest` key distribution (`--dist uniform|zipf[:EXP]`).
    pub dist: String,
    /// Where `paper loadtest` appends its bench-gate JSONL records
    /// (`--gate-json FILE`).
    pub gate_json: Option<PathBuf>,
    /// Remaining positional arguments (subcommand + operands).
    pub positional: Vec<String>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            run: RunOptions::default(),
            json: None,
            csv: None,
            quiet: false,
            cache_dir: None,
            no_cache: false,
            progress: None,
            resume: false,
            checkpoint_every: 0,
            dry_run: false,
            socket: None,
            tcp: None,
            scenarios: Vec::new(),
            keep_checkpoints: 1,
            probe_every: 0,
            connections: 4,
            pipeline: 8,
            requests: 10_000,
            rate: None,
            dist: "uniform".to_string(),
            gate_json: None,
            positional: Vec::new(),
        }
    }
}

impl CommonArgs {
    /// Parses from an iterator of arguments (excluding `argv[0]`).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = CommonArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = iter.next().ok_or("--scale needs a value")?;
                    out.run.scale = v.parse().map_err(|_| format!("bad --scale: {v}"))?;
                    if out.run.scale <= 0.0 || out.run.scale > 1.0 {
                        return Err("--scale must be in (0, 1]".into());
                    }
                }
                "--rounds" => {
                    let v = iter.next().ok_or("--rounds needs a value")?;
                    out.run.rounds = Some(v.parse().map_err(|_| format!("bad --rounds: {v}"))?);
                }
                "--seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    out.run.seed = v.parse().map_err(|_| format!("bad --seed: {v}"))?;
                }
                "--full" => out.run.scale = 1.0,
                "--threads" => {
                    let v = iter.next().ok_or("--threads needs a value")?;
                    out.run.threads = v.parse().map_err(|_| format!("bad --threads: {v}"))?;
                    if out.run.threads == 0 {
                        return Err("--threads must be ≥ 1".into());
                    }
                }
                "--round-threads" => {
                    let v = iter
                        .next()
                        .ok_or("--round-threads needs `auto` or a count")?;
                    out.run.round_threads =
                        RoundThreads::parse(&v).map_err(|e| format!("bad --round-threads: {e}"))?;
                }
                "--attack" => {
                    let v = iter.next().ok_or("--attack needs a name[:k=v,...] spec")?;
                    out.run.attack =
                        Some(AttackSel::parse(&v).map_err(|e| format!("bad --attack: {e}"))?);
                }
                "--defense" => {
                    let v = iter.next().ok_or("--defense needs a name[:k=v,...] spec")?;
                    out.run.defense =
                        Some(DefenseSel::parse(&v).map_err(|e| format!("bad --defense: {e}"))?);
                }
                "--dataset" => {
                    let v = iter
                        .next()
                        .ok_or("--dataset needs ml100k|ml1m|az|file:PATH")?;
                    out.run.dataset = Some(PaperDataset::from_name(&v).ok_or_else(|| {
                        format!("bad --dataset: {v}; use ml100k|ml1m|az|file:PATH")
                    })?);
                }
                "--clients-per-round" => {
                    let v = iter
                        .next()
                        .ok_or("--clients-per-round needs a count, fraction, or pct%")?;
                    out.run.clients_per_round = Some(
                        ClientsPerRound::parse(&v)
                            .map_err(|e| format!("bad --clients-per-round: {e}"))?,
                    );
                }
                "--json" => {
                    let v = iter.next().ok_or("--json needs a directory")?;
                    out.json = Some(PathBuf::from(v));
                }
                "--csv" => {
                    let v = iter.next().ok_or("--csv needs a directory")?;
                    out.csv = Some(PathBuf::from(v));
                }
                "--quiet" => out.quiet = true,
                "--cache-dir" => {
                    let v = iter.next().ok_or("--cache-dir needs a directory")?;
                    out.cache_dir = Some(PathBuf::from(v));
                }
                "--no-cache" => out.no_cache = true,
                "--progress" => {
                    let v = iter.next().ok_or("--progress needs a file")?;
                    out.progress = Some(PathBuf::from(v));
                }
                "--resume" => out.resume = true,
                "--checkpoint-every" => {
                    let v = iter
                        .next()
                        .ok_or("--checkpoint-every needs a round count")?;
                    out.checkpoint_every = v
                        .parse()
                        .map_err(|_| format!("bad --checkpoint-every: {v}"))?;
                    if out.checkpoint_every == 0 {
                        return Err("--checkpoint-every must be ≥ 1".into());
                    }
                }
                "--dry-run" => out.dry_run = true,
                "--socket" => {
                    let v = iter.next().ok_or("--socket needs a path")?;
                    out.socket = Some(PathBuf::from(v));
                }
                "--tcp" => {
                    let v = iter.next().ok_or("--tcp needs an address (host:port)")?;
                    out.tcp = Some(v);
                }
                "--scenario" => {
                    let v = iter.next().ok_or("--scenario needs a [name=]mf|ncf spec")?;
                    out.scenarios.push(v);
                }
                "--keep-checkpoints" => {
                    let v = iter.next().ok_or("--keep-checkpoints needs a count")?;
                    out.keep_checkpoints = v
                        .parse()
                        .map_err(|_| format!("bad --keep-checkpoints: {v}"))?;
                    if out.keep_checkpoints == 0 {
                        return Err("--keep-checkpoints must be ≥ 1".into());
                    }
                }
                "--probe-every" => {
                    let v = iter.next().ok_or("--probe-every needs a round count")?;
                    out.probe_every = v.parse().map_err(|_| format!("bad --probe-every: {v}"))?;
                    if out.probe_every == 0 {
                        return Err("--probe-every must be ≥ 1".into());
                    }
                }
                "--connections" => {
                    let v = iter.next().ok_or("--connections needs a count")?;
                    out.connections = v.parse().map_err(|_| format!("bad --connections: {v}"))?;
                    if out.connections == 0 {
                        return Err("--connections must be ≥ 1".into());
                    }
                }
                "--pipeline" => {
                    let v = iter.next().ok_or("--pipeline needs a depth")?;
                    out.pipeline = v.parse().map_err(|_| format!("bad --pipeline: {v}"))?;
                    if out.pipeline == 0 {
                        return Err("--pipeline must be ≥ 1".into());
                    }
                }
                "--requests" => {
                    let v = iter.next().ok_or("--requests needs a count")?;
                    out.requests = v.parse().map_err(|_| format!("bad --requests: {v}"))?;
                    if out.requests == 0 {
                        return Err("--requests must be ≥ 1".into());
                    }
                }
                "--rate" => {
                    let v = iter.next().ok_or("--rate needs requests per second")?;
                    out.rate = Some(v.parse().map_err(|_| format!("bad --rate: {v}"))?);
                    if !out.rate.unwrap().is_finite() || out.rate.unwrap() <= 0.0 {
                        return Err("--rate must be a positive number".into());
                    }
                }
                "--dist" => {
                    let v = iter.next().ok_or("--dist needs uniform|zipf[:EXP]")?;
                    out.dist = v;
                }
                "--gate-json" => {
                    let v = iter.next().ok_or("--gate-json needs a file")?;
                    out.gate_json = Some(PathBuf::from(v));
                }
                other => out.positional.push(other.to_string()),
            }
        }
        if out.resume && (out.cache_dir.is_none() || out.no_cache) {
            return Err("--resume needs --cache-dir (and no --no-cache): \
                        resuming replays finished cells from the cache"
                .into());
        }
        if out.checkpoint_every > 0 && (out.cache_dir.is_none() || out.no_cache) {
            return Err("--checkpoint-every needs --cache-dir (and no --no-cache): \
                        checkpoints live beside their cell's cache entry"
                .into());
        }
        Ok(out)
    }

    /// Parses from the process environment, exiting with a message on error.
    // This helper IS the binary's CLI entry (exit 2 = usage, the contract CI
    // scripts test); everything else in the crate returns `Result` and the
    // workspace-wide `clippy::exit` deny keeps it that way.
    #[allow(clippy::exit)]
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("argument error: {msg}");
                eprint!("{}", usage());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    /// Every `[--flag ...]` group of [`usage`]: the flag, and whether the
    /// group names a value after it.
    fn usage_flags() -> Vec<(String, bool)> {
        let text = usage();
        let mut flags = Vec::new();
        let mut rest = text.as_str();
        while let Some(start) = rest.find("[--") {
            let group = &rest[start + 1..];
            let mut depth = 1;
            let end = group
                .char_indices()
                .find_map(|(i, c)| {
                    match c {
                        '[' => depth += 1,
                        ']' => depth -= 1,
                        _ => {}
                    }
                    (depth == 0).then_some(i)
                })
                .expect("usage brackets balance");
            let inner = &group[..end];
            let (flag, takes_value) = inner
                .split_once(' ')
                .map_or((inner, false), |(flag, _)| (flag, true));
            flags.push((flag.to_string(), takes_value));
            rest = &group[end..];
        }
        flags
    }

    /// A value `parse_from` accepts for `flag`.
    fn sample_value(flag: &str) -> &'static str {
        match flag {
            "--scale" => "0.5",
            "--rounds" | "--seed" | "--threads" | "--checkpoint-every" | "--keep-checkpoints"
            | "--probe-every" | "--connections" | "--pipeline" | "--requests" => "3",
            "--round-threads" => "auto",
            "--attack" => "pieck-uea:top_n=20",
            "--defense" => "ours:beta=0.9",
            "--dataset" => "ml1m",
            "--clients-per-round" => "50%",
            "--json" | "--csv" | "--cache-dir" | "--progress" | "--socket" | "--gate-json" => "out",
            "--tcp" => "127.0.0.1:0",
            "--scenario" => "b=ncf",
            "--rate" => "250.5",
            "--dist" => "zipf:1.1",
            other => panic!("no sample value for {other}: add one"),
        }
    }

    #[test]
    fn every_flag_in_the_usage_parses() {
        let flags = usage_flags();
        assert!(flags.len() >= 30, "usage lists too few flags: {flags:?}");
        for (flag, takes_value) in flags {
            // `--cache-dir` satisfies `--resume` and `--checkpoint-every`.
            let mut args = vec!["table4", "--cache-dir", "c", flag.as_str()];
            if takes_value {
                args.push(sample_value(&flag));
            }
            let parsed = parse(&args).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert_eq!(parsed.positional, ["table4"], "{flag} was not consumed");
        }
        for cmd in PaperCommand::all() {
            assert!(
                usage().contains(&format!("  {} ", cmd.name())),
                "{}",
                cmd.name()
            );
        }
    }

    #[test]
    fn defaults_without_args() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.run.scale, 0.25);
        assert!(a.run.rounds.is_none());
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&["--scale", "0.5", "--rounds", "50", "--seed", "9", "p", "n"]).unwrap();
        assert_eq!(a.run.scale, 0.5);
        assert_eq!(a.run.rounds, Some(50));
        assert_eq!(a.run.seed, 9);
        assert_eq!(a.positional, vec!["p", "n"]);
    }

    #[test]
    fn full_sets_scale_one() {
        assert_eq!(parse(&["--full"]).unwrap().run.scale, 1.0);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--scale", "2.0"]).is_err());
        assert!(parse(&["--scale", "x"]).is_err());
        assert!(parse(&["--rounds"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--round-threads"]).is_err());
        assert!(parse(&["--round-threads", "0"]).is_err());
        assert!(parse(&["--round-threads", "turbo"]).is_err());
    }

    #[test]
    fn parses_round_threads_policy() {
        use frs_federation::RoundThreads;
        assert_eq!(
            parse(&[]).unwrap().run.round_threads,
            RoundThreads::Fixed(1)
        );
        let auto = parse(&["table4", "--round-threads", "auto"]).unwrap();
        assert_eq!(auto.run.round_threads, RoundThreads::Auto);
        let fixed = parse(&["--round-threads", "6"]).unwrap();
        assert_eq!(fixed.run.round_threads, RoundThreads::Fixed(6));
    }

    #[test]
    fn parses_sink_and_thread_flags() {
        let a = parse(&[
            "table4",
            "--threads",
            "3",
            "--json",
            "out/j",
            "--csv",
            "out/c",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(a.positional, vec!["table4"]);
        assert_eq!(a.run.threads, 3);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out/j")));
        assert_eq!(a.csv.as_deref(), Some(std::path::Path::new("out/c")));
        assert!(a.quiet);
        assert_eq!(a.run.scale, 0.25);
    }

    #[test]
    fn parses_cache_and_progress_flags() {
        let a = parse(&[
            "table4",
            "--cache-dir",
            "cache",
            "--progress",
            "run.jsonl",
            "--resume",
        ])
        .unwrap();
        assert_eq!(a.cache_dir.as_deref(), Some(std::path::Path::new("cache")));
        assert_eq!(
            a.progress.as_deref(),
            Some(std::path::Path::new("run.jsonl"))
        );
        assert!(a.resume);
        assert!(!a.no_cache);

        let a = parse(&["table4", "--cache-dir", "cache", "--no-cache"]).unwrap();
        assert!(a.no_cache);
    }

    #[test]
    fn parses_attack_overrides() {
        let a = parse(&["table3", "--attack", "pieck-uea:scale=2.0,top_n=20"]).unwrap();
        let sel = a.run.attack.unwrap();
        assert_eq!(sel.name(), "pieck-uea");
        assert_eq!(sel.params().get_f32("scale").unwrap(), Some(2.0));
        assert_eq!(sel.params().get_usize("top_n").unwrap(), Some(20));

        let a = parse(&["table3", "--attack", "pieck-ipe"]).unwrap();
        assert!(a.run.attack.unwrap().params().is_empty());

        assert!(parse(&["--attack"]).is_err());
        assert!(parse(&["--attack", "pieck-uea:scale"]).is_err());
        assert!(parse(&["--attack", ":scale=1"]).is_err());
    }

    #[test]
    fn parses_defense_and_dataset_overrides() {
        let a = parse(&["table4", "--defense", "ours:beta=0.5,re2=false"]).unwrap();
        let sel = a.run.defense.unwrap();
        assert_eq!(sel.name(), "ours");
        assert_eq!(sel.params().get_f32("beta").unwrap(), Some(0.5));
        assert_eq!(sel.params().get_bool("re2").unwrap(), Some(false));

        let a = parse(&["table4", "--defense", "median"]).unwrap();
        assert!(a.run.defense.unwrap().params().is_empty());

        let a = parse(&["table3", "--dataset", "file:data/u.data"]).unwrap();
        assert_eq!(
            a.run.dataset,
            Some(PaperDataset::File("data/u.data".into()))
        );
        let a = parse(&["table3", "--dataset", "ml1m"]).unwrap();
        assert_eq!(a.run.dataset, Some(PaperDataset::Ml1m));

        assert!(parse(&["--defense"]).is_err());
        assert!(parse(&["--defense", "ours:beta"]).is_err());
        assert!(parse(&["--dataset"]).is_err());
        assert!(parse(&["--dataset", "ml10m"]).is_err());
        assert!(parse(&["--dataset", "file:"]).is_err());
    }

    #[test]
    fn resume_requires_a_usable_cache() {
        assert!(parse(&["--resume"]).is_err());
        assert!(parse(&["--resume", "--cache-dir", "c", "--no-cache"]).is_err());
        assert!(parse(&["--resume", "--cache-dir", "c"]).is_ok());
        assert!(parse(&["--cache-dir"]).is_err());
        assert!(parse(&["--progress"]).is_err());
    }

    #[test]
    fn checkpoint_every_requires_a_usable_cache() {
        let a = parse(&["table5", "--checkpoint-every", "25", "--cache-dir", "c"]).unwrap();
        assert_eq!(a.checkpoint_every, 25);
        assert!(parse(&["--checkpoint-every", "25"]).is_err());
        assert!(parse(&["--checkpoint-every", "25", "--cache-dir", "c", "--no-cache"]).is_err());
        assert!(parse(&["--checkpoint-every", "0", "--cache-dir", "c"]).is_err());
        assert!(parse(&["--checkpoint-every"]).is_err());
        assert!(parse(&["--checkpoint-every", "x", "--cache-dir", "c"]).is_err());
        assert_eq!(parse(&["table5"]).unwrap().checkpoint_every, 0);
    }

    #[test]
    fn parses_clients_per_round_override() {
        assert!(parse(&[]).unwrap().run.clients_per_round.is_none());
        let a = parse(&["scale", "--clients-per-round", "512"]).unwrap();
        assert_eq!(a.run.clients_per_round, Some(ClientsPerRound::Count(512)));
        let a = parse(&["scale", "--clients-per-round", "25%"]).unwrap();
        assert_eq!(
            a.run.clients_per_round,
            Some(ClientsPerRound::Fraction(0.25))
        );
        assert!(parse(&["--clients-per-round"]).is_err());
        assert!(parse(&["--clients-per-round", "0"]).is_err());
        assert!(parse(&["--clients-per-round", "150%"]).is_err());
    }

    #[test]
    fn socket_parses() {
        let a = parse(&["serve", "--socket", "run.sock"]).unwrap();
        assert_eq!(a.socket.as_deref(), Some(std::path::Path::new("run.sock")));
        assert!(parse(&["serve", "--socket"]).is_err());
        assert!(parse(&["serve"]).unwrap().socket.is_none());
    }

    #[test]
    fn serve_flags_parse() {
        let a = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--scenario",
            "a=mf",
            "--scenario",
            "b=ncf",
            "--keep-checkpoints",
            "3",
            "--probe-every",
            "25",
        ])
        .unwrap();
        assert_eq!(a.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.scenarios, vec!["a=mf".to_string(), "b=ncf".to_string()]);
        assert_eq!(a.keep_checkpoints, 3);
        assert_eq!(a.probe_every, 25);
        // Defaults: newest-only checkpoints, no probes, no scenario specs.
        let d = parse(&["serve"]).unwrap();
        assert_eq!((d.keep_checkpoints, d.probe_every), (1, 0));
        assert!(d.scenarios.is_empty() && d.tcp.is_none());
        assert!(parse(&["serve", "--keep-checkpoints", "0"]).is_err());
        assert!(parse(&["serve", "--probe-every", "0"]).is_err());
        assert!(parse(&["serve", "--tcp"]).is_err());
    }

    #[test]
    fn loadtest_flags_parse() {
        let a = parse(&[
            "loadtest",
            "--tcp",
            "127.0.0.1:7411",
            "--connections",
            "8",
            "--pipeline",
            "16",
            "--requests",
            "50000",
            "--rate",
            "2000",
            "--dist",
            "zipf:1.2",
            "--gate-json",
            "gate.jsonl",
        ])
        .unwrap();
        assert_eq!((a.connections, a.pipeline, a.requests), (8, 16, 50_000));
        assert_eq!(a.rate, Some(2000.0));
        assert_eq!(a.dist, "zipf:1.2");
        assert_eq!(
            a.gate_json.as_deref(),
            Some(std::path::Path::new("gate.jsonl"))
        );
        let d = parse(&["loadtest"]).unwrap();
        assert_eq!((d.connections, d.pipeline, d.requests), (4, 8, 10_000));
        assert_eq!((d.rate, d.dist.as_str()), (None, "uniform"));
        assert!(parse(&["loadtest", "--connections", "0"]).is_err());
        assert!(parse(&["loadtest", "--pipeline", "0"]).is_err());
        assert!(parse(&["loadtest", "--requests", "0"]).is_err());
        assert!(parse(&["loadtest", "--rate", "-1"]).is_err());
    }

    #[test]
    fn dry_run_parses() {
        assert!(
            parse(&["cache", "gc", "--dry-run", "--cache-dir", "c"])
                .unwrap()
                .dry_run
        );
        assert!(!parse(&["cache", "gc"]).unwrap().dry_run);
    }
}
