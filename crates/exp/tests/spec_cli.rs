//! CLI-level contract tests for `mimo-exp run` / `validate` / `schema`:
//! every malformed-spec failure class exits non-zero with the offending
//! file, line, and key on stderr, and the happy paths exit zero.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mimo-exp"))
}

fn repo_specs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// Writes `text` to a fresh temp spec file and returns its path.
fn temp_spec(label: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mimo-spec-cli-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{label}.toml"));
    fs::write(&path, text).expect("write temp spec");
    path
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs `mimo-exp run <spec>` and asserts it fails with every listed
/// substring on stderr.
fn assert_run_fails(spec: &Path, needles: &[&str]) {
    let out = bin().args(["run"]).arg(spec).output().expect("spawn");
    assert!(
        !out.status.success(),
        "run {} unexpectedly succeeded",
        spec.display()
    );
    let err = stderr_of(&out);
    for needle in needles {
        assert!(err.contains(needle), "stderr missing {needle:?}:\n{err}");
    }
}

#[test]
fn missing_spec_file_exits_nonzero_naming_the_file() {
    assert_run_fails(
        Path::new("/no/such/dir/ghost.toml"),
        &["ghost.toml", "cannot read spec"],
    );
}

#[test]
fn syntax_error_names_file_and_line() {
    let spec = temp_spec("syntax", "schema = 1\nname = \n");
    assert_run_fails(&spec, &["syntax.toml:2:"]);
}

#[test]
fn unknown_key_is_named_with_its_line() {
    let spec = temp_spec(
        "unknown-key",
        "schema = 1\nname = \"x\"\nkind = \"paper\"\nbogus = 1\n[paper]\nexperiment = \"fig06\"\n",
    );
    assert_run_fails(&spec, &["unknown-key.toml", "bogus", "unknown key"]);
    // `banked` selected a stepping path the runtime no longer has.
    let spec = temp_spec(
        "banked-key",
        "schema = 1\nname = \"x\"\nkind = \"cluster\"\n[cluster]\nchips = 1\ncores_per_chip = 2\nepochs = 5\nbanked = true\n",
    );
    assert_run_fails(
        &spec,
        &["banked-key.toml:8", "cluster.banked", "unknown key"],
    );
}

#[test]
fn type_mismatch_reports_the_expected_type() {
    let spec = temp_spec(
        "mismatch",
        "schema = 1\nname = \"x\"\nkind = \"cluster\"\n[cluster]\nchips = \"four\"\ncores_per_chip = 4\nepochs = 100\n",
    );
    assert_run_fails(
        &spec,
        &["mismatch.toml:5", "cluster.chips", "expected integer"],
    );
}

#[test]
fn unknown_kind_is_rejected() {
    let spec = temp_spec("kind", "schema = 1\nname = \"x\"\nkind = \"galaxy\"\n");
    assert_run_fails(&spec, &["unknown kind", "galaxy"]);
}

#[test]
fn semantic_validation_failure_names_the_rule() {
    let spec = temp_spec(
        "phases",
        "schema = 1\nname = \"x\"\nkind = \"loop\"\n[loop]\napp = \"astar\"\nepochs = 100\n\
         [[loop.phases]]\nepoch = 5\nips = 2.0\npower = 1.5\n",
    );
    assert_run_fails(&spec, &["start at epoch 0"]);
}

#[test]
fn validate_accepts_every_checked_in_spec() {
    let out = bin()
        .arg("validate")
        .arg(repo_specs())
        .output()
        .expect("spawn");
    let (err, text) = (stderr_of(&out), stdout_of(&out));
    assert!(out.status.success(), "validate failed:\n{err}");
    assert!(
        text.contains(&format!(
            "{} spec(s) valid",
            mimo_exp::spec::embedded::EMBEDDED.len()
        )),
        "unexpected validate output:\n{text}"
    );
}

#[test]
fn validate_rejects_a_broken_spec_among_good_ones() {
    let good = temp_spec(
        "good",
        "schema = 1\nname = \"good\"\nkind = \"paper\"\n[paper]\nexperiment = \"fig06\"\n",
    );
    let bad = temp_spec("broken", "schema = 2\nname = \"bad\"\nkind = \"paper\"\n");
    let out = bin()
        .arg("validate")
        .arg(&good)
        .arg(&bad)
        .output()
        .expect("spawn");
    assert!(
        !out.status.success(),
        "validate must fail on the broken spec"
    );
    let text = stdout_of(&out);
    assert!(
        text.contains("good.toml: ok"),
        "good spec not reported:\n{text}"
    );
    let err = stderr_of(&out);
    assert!(err.contains("broken.toml"), "broken spec not named:\n{err}");
}

#[test]
fn schema_subcommand_prints_the_reference() {
    let out = bin().arg("schema").output().expect("spawn");
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(text.contains("mimo-exp spec schema"), "{text}");
    assert!(text.contains("[asserts]"), "{text}");
}

#[test]
fn flag_and_positional_misuse_is_rejected_with_usage() {
    let cases: &[&[&str]] = &[
        &["run"],                         // no spec path
        &["run", "a.toml", "b.toml"],     // two spec paths
        &["validate"],                    // no paths
        &["fig06", "--shards", "2"],      // --shards outside cluster specs
        &["fig07", "--trace", "t.jsonl"], // --trace outside fault-sweep
        &["warp-drive"],                  // unknown subcommand
    ];
    for args in cases {
        let out = bin().args(*args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let err = stderr_of(&out);
        assert!(err.contains("error:"), "{args:?} gave no error:\n{err}");
        assert!(err.contains("USAGE"), "{args:?} gave no usage:\n{err}");
    }
}
