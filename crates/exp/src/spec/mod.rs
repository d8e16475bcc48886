//! `mimo-spec` — the declarative scenario layer.
//!
//! A scenario spec is a TOML file naming a topology (a single loop or a
//! cluster of chips, a fleet being a one-chip cluster — or one of the
//! paper's own experiments), the governor/arbiter selection, workload
//! mix, phase schedule, fault plan, and expected-outcome assertions.
//! `mimo-exp run <spec.toml>` executes it; `validate` checks it without
//! running; `schema` prints the key reference. The figure subcommands are
//! thin aliases over the [`embedded`] copies of `specs/*.toml`, so every
//! experiment the harness can run is reproducible from a checked-in file.
//!
//! Pipeline: [`toml`] parses the text into a line-spanned [`value`] tree
//! → [`RunSpec`] extracts itself via `FromValue` (every error carries key
//! path + line), reading `[cluster]` straight onto the runtime's
//! `ClusterConfig` and validating it there → [`run_spec`] executes and
//! checks assertions. Parsing is validation: a spec [`load`] accepts is
//! one the runtime accepts.

pub mod embedded;
mod model;
mod run;
mod schema;
pub mod toml;
pub mod value;

use std::path::Path;

use value::{DeError, DeResult};

pub use model::{
    Asserts, DigestAssert, GovernorKind, InvariantAssert, LoopSpec, OutputChannel, PaperExperiment,
    PhaseSpec, QuarantinedAssert, RunSpec, Scenario, TrackingErrorAssert, SCHEMA_VERSION,
};
pub use run::{run_spec, RunOverrides};
pub use schema::SCHEMA_TEXT;

/// Parses a spec from TOML text: syntax, shape, semantic checks, and the
/// runtime configs' own validation.
///
/// # Errors
///
/// [`DeError`] with the offending line and key path.
pub fn parse_str(src: &str) -> DeResult<RunSpec> {
    RunSpec::from_table(&toml::parse(src)?)
}

/// Reads and parses a spec file; every failure names the file, and parse
/// failures name the offending line/key (`spec.toml:12: cluster.chips:
/// expected integer, got string "four"`).
///
/// # Errors
///
/// A rendered, file-prefixed message for unreadable or malformed specs.
pub fn load(path: &Path) -> Result<RunSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read spec: {e}", path.display()))?;
    parse_str(&text).map_err(|e| format_error(path, &e))
}

/// Renders a [`DeError`] with its source file: `file:line: path: msg`.
pub fn format_error(path: &Path, e: &DeError) -> String {
    let file = path.display();
    match (e.line, e.path.is_empty()) {
        (0, true) => format!("{file}: {}", e.msg),
        (0, false) => format!("{file}: {}: {}", e.path, e.msg),
        (_, true) => format!("{file}:{}: {}", e.line, e.msg),
        (_, false) => format!("{file}:{}: {}: {}", e.line, e.path, e.msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn load_names_the_file_on_every_failure_class() {
        let missing = PathBuf::from("/no/such/spec.toml");
        let err = load(&missing).unwrap_err();
        assert!(err.starts_with("/no/such/spec.toml:"), "{err}");

        let dir = std::env::temp_dir().join("mimo-spec-mod-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.toml");
        std::fs::write(&bad, "schema = \n").unwrap();
        let err = load(&bad).unwrap_err();
        assert!(err.contains("bad.toml:1:"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_error_renders_all_position_shapes() {
        let p = PathBuf::from("s.toml");
        let full = DeError::at("a.b", 7, "boom");
        assert_eq!(format_error(&p, &full), "s.toml:7: a.b: boom");
        let line_only = DeError::at_line(7, "boom");
        assert_eq!(format_error(&p, &line_only), "s.toml:7: boom");
        let path_only = DeError::at("a.b", 0, "boom");
        assert_eq!(format_error(&p, &path_only), "s.toml: a.b: boom");
    }
}
