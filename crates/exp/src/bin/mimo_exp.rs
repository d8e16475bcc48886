//! `mimo-exp` — the unified experiment CLI over declarative scenario specs.
//!
//! The primary entry point is `run <spec.toml>`: every experiment the
//! harness can perform is described by a checked-in spec under `specs/`,
//! and the per-figure subcommands (`fig06`, …) are thin aliases resolving
//! to compile-time copies of those same files — one code path, one config
//! surface, byte-identical CSVs either way.
//!
//! ```text
//! mimo-exp run <spec.toml> [FLAGS]     execute a scenario spec
//! mimo-exp validate <path>...          check specs without running them
//! mimo-exp schema                      print the spec key reference
//! mimo-exp [SUBCOMMAND] [FLAGS]        alias / suite
//! ```
//!
//! With no subcommand the full suite runs. Grid cells fan out across
//! `--jobs` workers; output is bit-identical at any job count, so
//! `--jobs` only changes wall-clock.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mimo_exp::experiments::ExpConfig;
use mimo_exp::par;
use mimo_exp::report::ResultsDir;
use mimo_exp::spec::{self, RunOverrides};
use mimo_exp::timing::TimingSink;

const USAGE: &str = "\
mimo-exp — reproduce the paper's evaluation from declarative scenario specs

USAGE:
    mimo-exp run <spec.toml> [FLAGS]     execute a scenario spec
    mimo-exp validate <path>...          check spec files (or directories)
    mimo-exp schema                      print the spec key reference
    mimo-exp [SUBCOMMAND] [FLAGS]

SUBCOMMANDS:
    all          run the complete suite (default)
    fig06        Figure 6 / Table V: weight-choice sensitivity
    fig07        Figure 7: model error vs state dimension
    fig08        Figure 8: convergence under uncertainty guardbands
    fig09        Figure 9: E×D minimization, 2 inputs
    fig10        Figure 10: E×D minimization, 3 inputs
    fig11        Figure 11: tracking-error scatter
    fig12        Figure 12: time-varying (QoE/battery) tracking
    tab-opt      §VIII-F text: E and E×D² reductions
    fleet-scale  fleet sizes 1-64 under one chip budget
    cluster-scale  chips × cores-per-chip under one datacenter budget,
                 sharded chip-parallel with shared-LLC contention
    fault-sweep  fault rate × arbitration policy on a 16-core fleet
    phase-step   spec-only scenario: stepped power/QoE reference schedule
    cluster-fault  spec-only scenario: mid-run chip fault on a cluster
    cluster-bank  spec-only scenario: a cluster losing a core mid-run,
                 digest-pinned at shards 1/2/3

    Every subcommand but `all` is an alias for `run` on the embedded copy
    of the matching specs/<name>.toml file.

FLAGS:
    --epochs N    epochs per tracking run (default: each spec's own count;
                  paper-scale 4000 for the figure aliases)
    --jobs N      worker threads for experiment grid cells (default: the
                  host's available parallelism, or the MIMO_JOBS env var;
                  N >= 1 — results are bit-identical at any job count)
    --out DIR     directory CSVs land in (default: nearest results/)
    --timing      record per-subcommand and per-cell wall-clock into
                  BENCH_harness.json in the results directory (for
                  cluster-scale this includes per-chip stepping time)
    --shards N    cluster specs only: pin the shard count; the CSV is
                  byte-identical at any value (CI diffs them)
    --trace PATH  fault-sweep only: write a JSONL epoch trace of the
                  sweep's most eventful run (per-core ring-buffer sinks)
    -h, --help    print this help
";

struct Cli {
    command: String,
    /// Positional arguments after the subcommand (`run` takes one spec
    /// path, `validate` one or more).
    paths: Vec<String>,
    epochs: Option<usize>,
    jobs: Option<usize>,
    out: Option<String>,
    timing: bool,
    shards: Option<usize>,
    trace: Option<String>,
}

/// Subcommands that resolve to an embedded spec, i.e. everything except
/// `run`/`validate`/`schema`/`all`.
fn is_alias(cmd: &str) -> bool {
    spec::embedded::by_alias(cmd).is_some()
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::from("all"),
        paths: Vec::new(),
        epochs: None,
        jobs: None,
        out: None,
        timing: false,
        shards: None,
        trace: None,
    };
    let mut saw_command = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--epochs" => {
                let v = it.next().ok_or("--epochs needs a value")?;
                cli.epochs = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--epochs needs a positive integer, got {v:?}"))?,
                );
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.jobs = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--jobs needs a positive integer, got {v:?}"))?,
                );
            }
            "--out" => {
                cli.out = Some(it.next().ok_or("--out needs a directory")?.clone());
            }
            "--timing" => cli.timing = true,
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("--shards needs a positive integer, got {v:?}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                cli.shards = Some(n);
            }
            "--trace" => {
                cli.trace = Some(it.next().ok_or("--trace needs a path")?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            cmd if !saw_command => {
                saw_command = true;
                cli.command = cmd.to_string();
            }
            path if matches!(cli.command.as_str(), "run" | "validate") => {
                cli.paths.push(path.to_string());
            }
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let known = ["all", "run", "validate", "schema"];
    if !known.contains(&cli.command.as_str()) && !is_alias(&cli.command) {
        return Err(format!("unknown subcommand {:?}", cli.command));
    }
    match cli.command.as_str() {
        "run" if cli.paths.len() != 1 => {
            return Err("run takes exactly one spec path".into());
        }
        "validate" if cli.paths.is_empty() => {
            return Err("validate takes at least one spec file or directory".into());
        }
        _ => {}
    }
    let trace_ok = matches!(cli.command.as_str(), "fault-sweep" | "run");
    if cli.trace.is_some() && !trace_ok {
        return Err("--trace is only meaningful with fault-sweep (or run on its spec)".into());
    }
    let shards_ok = matches!(
        cli.command.as_str(),
        "cluster-scale" | "cluster-fault" | "cluster-bank" | "run"
    );
    if cli.shards.is_some() && !shards_ok {
        return Err(
            "--shards is only meaningful with cluster specs (cluster-scale, cluster-fault, or run)"
                .into(),
        );
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Spec-introspection subcommands need no runtime config.
    match cli.command.as_str() {
        "schema" => {
            print!("{}", spec::SCHEMA_TEXT);
            return ExitCode::SUCCESS;
        }
        "validate" => return run_validate(&cli.paths),
        _ => {}
    }

    let jobs = match par::resolve_jobs(cli.jobs) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = ExpConfig::full();
    cfg.jobs = jobs;
    cfg.results = match &cli.out {
        Some(dir) => ResultsDir::new(dir.clone()),
        None => ResultsDir::discover(),
    };
    if cli.timing {
        cfg.timing = TimingSink::enabled();
    }
    if let Some(n) = cli.epochs {
        cfg.tracking_epochs = n;
    }
    let overrides = RunOverrides {
        epochs: cli.epochs,
        shards: cli.shards,
        trace: cli.trace.clone(),
    };

    let start = Instant::now();
    let failures = match cli.command.as_str() {
        "all" => run_all(&cfg, cli.epochs),
        "run" => {
            let path = PathBuf::from(&cli.paths[0]);
            match spec::load(&path) {
                Ok(s) => {
                    let name = s.name.clone();
                    let r = cfg
                        .timing
                        .subcommand(&name, || spec::run_spec(&cfg, &s, &overrides));
                    collect_failure(&name, r)
                }
                Err(msg) => vec![("run".to_string(), msg)],
            }
        }
        alias => {
            let r = cfg
                .timing
                .subcommand(alias, || run_alias(&cfg, alias, &overrides));
            collect_failure(alias, r)
        }
    };
    let wall_s = start.elapsed().as_secs_f64();

    let (hits, misses) = cfg.cache.stats();
    if hits + misses > 0 {
        println!("design cache: {hits} hits, {misses} misses");
    }
    if cfg.timing.is_enabled() {
        let doc = cfg
            .timing
            .render_json(cfg.jobs, cfg.tracking_epochs, wall_s, hits, misses);
        match cfg.results.write_text("BENCH_harness.json", &doc) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write BENCH_harness.json: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (name, msg) in &failures {
            eprintln!("error: {name} failed: {msg}");
        }
        ExitCode::FAILURE
    }
}

/// Resolves a subcommand alias to its embedded spec and runs it. The
/// embedded copies are pinned byte-identical to the `specs/` files by
/// test, so this is exactly `mimo-exp run specs/<name>.toml`.
fn run_alias(cfg: &ExpConfig, alias: &str, ov: &RunOverrides) -> Result<(), String> {
    let embedded = spec::embedded::by_alias(alias)
        .ok_or_else(|| format!("no embedded spec for alias {alias:?}"))?;
    let s = spec::parse_str(embedded.text)
        .map_err(|e| format!("embedded {} is invalid: {e}", embedded.path))?;
    spec::run_spec(cfg, &s, ov)
}

/// `mimo-exp validate <path>...`: loads (parses and validates) every
/// named spec (recursing one level into directories for `*.toml`) without
/// running anything. Prints one line per spec; any failure exits non-zero.
fn run_validate(paths: &[String]) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let mut in_dir: Vec<PathBuf> = match std::fs::read_dir(path) {
                Ok(entries) => entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                    .collect(),
                Err(e) => {
                    eprintln!("error: {}: cannot read directory: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if in_dir.is_empty() {
                eprintln!("error: {}: no .toml specs found", path.display());
                return ExitCode::FAILURE;
            }
            in_dir.sort();
            files.extend(in_dir);
        } else {
            files.push(path.to_path_buf());
        }
    }
    let mut ok = true;
    for file in &files {
        match spec::load(file) {
            Ok(s) => println!("{}: ok ({} {})", file.display(), s.scenario.kind(), s.name),
            Err(msg) => {
                ok = false;
                eprintln!("error: {msg}");
            }
        }
    }
    if ok {
        println!("{} spec(s) valid", files.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn collect_failure(name: &str, r: Result<(), String>) -> Vec<(String, String)> {
    match r {
        Ok(()) => Vec::new(),
        Err(msg) => vec![(name.to_string(), msg)],
    }
}

/// The complete evaluation suite: every embedded spec in the historical
/// figure order, then the spec-only scenarios. A failing step is
/// reported and the rest of the suite still runs, so one bad cell costs
/// one figure, not the whole evaluation.
fn run_all(cfg: &ExpConfig, epochs: Option<usize>) -> Vec<(String, String)> {
    let mut failures = Vec::new();
    let steps: &[(&str, &str)] = &[
        ("fig06", "Figure 6 — weight sensitivity"),
        ("fig07", "Figure 7 — model dimension"),
        ("fig08", "Figure 8 — uncertainty guardbands"),
        ("fig11", "Figure 11 — tracking multiple references"),
        ("fig12", "Figure 12 — time-varying tracking"),
        ("fig09", "Figure 9 — E×D, 2 inputs"),
        ("fig10", "Figure 10 — E×D, 3 inputs"),
        ("tab-opt", "§VIII-F — E and E×D²"),
        (
            "fleet-scale",
            "Fleet scaling — chip-budgeted many-core runtime",
        ),
        (
            "cluster-scale",
            "Cluster scaling — hierarchical multi-chip runtime",
        ),
        (
            "phase-step",
            "Scenario — stepped reference schedule (spec-only)",
        ),
        ("cluster-fault", "Scenario — mid-run chip fault (spec-only)"),
        (
            "cluster-bank",
            "Scenario — cluster losing a core mid-run (spec-only)",
        ),
    ];
    let ov = RunOverrides {
        epochs,
        shards: None,
        trace: None,
    };
    for (name, title) in steps {
        println!("### {title}");
        if let Err(msg) = cfg.timing.subcommand(name, || run_alias(cfg, name, &ov)) {
            eprintln!("error: {name} failed: {msg} (continuing)");
            failures.push((name.to_string(), msg));
        }
    }
    println!("done; CSVs in {}", cfg.results.path().display());
    failures
}
