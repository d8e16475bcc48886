//! Integration tests for the declarative spec layer: every checked-in
//! spec loads (parse + validate), the embedded alias
//! copies are byte-identical to the `specs/` files, and spec-driven runs
//! reproduce the experiment functions' CSVs byte-identically at any
//! worker count.

use std::fs;
use std::path::{Path, PathBuf};

use mimo_exp::experiments::{self, ExpConfig};
use mimo_exp::report::ResultsDir;
use mimo_exp::spec::{self, RunOverrides};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A unique, throwaway results directory per test.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mimo-spec-it-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn quick_cfg(jobs: usize, out: &Path) -> ExpConfig {
    let mut cfg = ExpConfig::full();
    cfg.tracking_epochs = 50;
    cfg.jobs = jobs;
    cfg.results = ResultsDir::new(out);
    cfg
}

#[test]
fn every_checked_in_spec_loads_and_validates() {
    let dir = repo_root().join("specs");
    let mut count = 0usize;
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("specs/ directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    entries.sort();
    for path in entries {
        spec::load(&path).unwrap_or_else(|e| panic!("{e}"));
        count += 1;
    }
    assert_eq!(
        count,
        spec::embedded::EMBEDDED.len(),
        "every checked-in spec must have an embedded alias (and vice versa)"
    );
}

#[test]
fn embedded_specs_are_byte_identical_to_the_checked_in_files() {
    for e in &spec::embedded::EMBEDDED {
        let on_disk = fs::read_to_string(repo_root().join(e.path))
            .unwrap_or_else(|err| panic!("{}: {err}", e.path));
        assert_eq!(on_disk, e.text, "{} drifted from its embedded copy", e.path);
    }
}

/// The tentpole guarantee: running a spec and calling the experiment
/// function directly produce the same bytes, and the spec run is
/// worker-count invariant.
#[test]
fn spec_runs_reproduce_direct_experiment_csvs_at_jobs_1_and_2() {
    let cases: &[(&str, &str)] = &[
        ("fig06", "fig06_weights.csv"),
        ("fleet-scale", "fleet_scale.csv"),
        ("cluster-scale", "cluster_scale.csv"),
    ];
    for (alias, csv) in cases {
        let embedded = spec::embedded::by_alias(alias).expect(alias);
        let s = spec::parse_str(embedded.text).unwrap_or_else(|e| panic!("{alias}: {e}"));

        let direct_dir = scratch(&format!("direct-{alias}"));
        let cfg = quick_cfg(1, &direct_dir);
        match *alias {
            "fig06" => experiments::fig06(&cfg).map(drop).expect("fig06"),
            "fleet-scale" => experiments::fleet_scale(&cfg)
                .map(drop)
                .expect("fleet_scale"),
            "cluster-scale" => experiments::cluster_scale(&cfg, None)
                .map(drop)
                .expect("cluster_scale"),
            _ => unreachable!(),
        }
        let golden = fs::read(direct_dir.join(csv)).unwrap_or_else(|e| panic!("{csv}: {e}"));

        for jobs in [1usize, 2] {
            let spec_dir = scratch(&format!("spec-{alias}-j{jobs}"));
            let cfg = quick_cfg(jobs, &spec_dir);
            spec::run_spec(&cfg, &s, &RunOverrides::default())
                .unwrap_or_else(|e| panic!("{alias} via spec at jobs={jobs}: {e}"));
            let got = fs::read(spec_dir.join(csv)).unwrap_or_else(|e| panic!("{csv}: {e}"));
            assert_eq!(
                got, golden,
                "{alias}: spec-driven CSV differs from the direct run at jobs={jobs}"
            );
            let _ = fs::remove_dir_all(&spec_dir);
        }
        let _ = fs::remove_dir_all(&direct_dir);
    }
}

/// The spec-only scenarios execute end to end at a reduced epoch count:
/// full-scale assertions are epoch-gated (skipped, not failed) and the
/// invariance re-runs still byte-match.
#[test]
fn spec_only_scenarios_run_with_an_epoch_override() {
    for (alias, csv) in [
        ("phase-step", "phase_step.csv"),
        ("cluster-fault", "cluster_fault.csv"),
    ] {
        let embedded = spec::embedded::by_alias(alias).expect(alias);
        let s = spec::parse_str(embedded.text).unwrap_or_else(|e| panic!("{alias}: {e}"));
        let dir = scratch(&format!("scenario-{alias}"));
        let cfg = quick_cfg(1, &dir);
        let ov = RunOverrides {
            epochs: Some(120),
            ..RunOverrides::default()
        };
        spec::run_spec(&cfg, &s, &ov).unwrap_or_else(|e| panic!("{alias}: {e}"));
        assert!(dir.join(csv).is_file(), "{alias} must write {csv}");
        assert!(
            !dir.join(".spec-invariant").exists(),
            "invariance scratch runs must be cleaned up"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `--shards` is written onto the parsed config after parsing, so the
/// runtime validates the overridden shape again and rejects it.
#[test]
fn shards_override_is_validated_by_the_runtime() {
    let s = spec::parse_str(
        "schema = 1\nname = \"x\"\nkind = \"cluster\"\n\
         [cluster]\nchips = 2\ncores_per_chip = 2\nepochs = 10\n",
    )
    .unwrap();
    let dir = scratch("shards-override");
    let ov = RunOverrides {
        shards: Some(99),
        ..RunOverrides::default()
    };
    let err = spec::run_spec(&quick_cfg(1, &dir), &s, &ov).unwrap_err();
    assert!(err.contains("exceeds n_chips"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
