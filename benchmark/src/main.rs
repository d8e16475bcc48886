//! `mimo-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]`
//!
//! Runs one workload, prints every metric as `metric <name> <value> <unit>`
//! and, as the last line, one JSON object with the correctness verdict,
//! the operation counts and the tracked metrics: the end-to-end ones
//! untraced, the per-layer ones with `--trace`. Exits non-zero when a
//! correctness check fails.
//!
//! The flags are the interface `BENCHMARK.json` promises: its `command`
//! is run with `--workload NAME --seed N --seconds S --trace 0|1`
//! appended, `S` being its `run_seconds`. `--seconds` overrides
//! [`Scale::measure_s`], which already defaults to that value.

use std::process::ExitCode;

use mimo_benchmark::alloc::CountingAllocator;
use mimo_benchmark::stats::{median, metric_line, quartiles, result_json};
use mimo_benchmark::{host, run, Options, Scale, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str =
    "usage: mimo-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]\n\
                     workloads: chip16_uniform chip16_contended cluster64x64 paper_opt";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut scale = Scale::full();
    let mut trace = false;
    let mut i = 0;
    let value = |i: usize| {
        args.get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
                i += 2;
            }
            "--seed" => {
                seed = value(i)?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
                i += 2;
            }
            "--seconds" => {
                scale.measure_s = value(i)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| "--seconds takes a non-negative number".to_string())?;
                i += 2;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (trace, i) = (false, i + 2),
                Some("1") => (trace, i) = (true, i + 2),
                _ => (trace, i) = (true, i + 1),
            },
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        trace,
        scale,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ref_start = host::ref_loop_ms();
    let outcome = run(&opts);
    let ref_end = host::ref_loop_ms();

    println!(
        "# mimo-benchmark workload={} seed={} trace={} warm-up threads={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        host::worker_threads()
    );
    if !outcome.rep_run_s.is_empty() {
        let (q1, q3) = quartiles(&outcome.rep_run_s);
        println!(
            "reps {} run_s median={:.4} q1={q1:.4} q3={q3:.4}",
            outcome.rep_run_s.len(),
            median(&outcome.rep_run_s)
        );
    }
    println!(
        "host host_cpus={} git_rev={} ref_loop_ms_start={ref_start:.3} ref_loop_ms_end={ref_end:.3}",
        host::cpus(),
        host::git_revision()
    );
    for m in outcome.end_to_end.iter().chain(&outcome.layers) {
        println!("{}", metric_line(m));
    }
    println!("digest {:#018x}", outcome.digest);
    for e in &outcome.errors {
        println!("check failed: {e}");
        eprintln!("check failed: {e}");
    }
    let tracked: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<_> = tracked
        .iter()
        .filter_map(|name| {
            let m = outcome.metric(name);
            if m.is_none() && outcome.correct() {
                eprintln!("metric {name} was not measured");
            }
            m.cloned()
        })
        .collect();
    let correct = outcome.correct()
        && metrics.len() == tracked.len()
        && metrics.iter().all(|m| m.value.is_finite());
    let failed = if correct { 0 } else { outcome.attempted.max(1) };
    println!(
        "{}",
        result_json(correct, outcome.attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
