//! CSV output and paper-vs-measured reporting.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// An explicit handle to the directory experiment artifacts land in.
///
/// Writers receive this handle (via `ExpConfig::results`) instead of
/// consulting process-global state, so concurrent subcommands and parallel
/// grid cells cannot race on cwd- or override-derived paths: every write
/// resolves against the same immutable handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsDir(PathBuf);

impl ResultsDir {
    /// A handle rooted at an explicit directory (the CLI's `--out`).
    pub fn new<P: Into<PathBuf>>(dir: P) -> Self {
        ResultsDir(dir.into())
    }

    /// The discovery rule: the first existing `results` directory walking
    /// up from the current directory, else `results`.
    pub fn discover() -> Self {
        let candidates = ["results", "../results", "../../results"];
        for c in candidates {
            let p = Path::new(c);
            if p.is_dir() {
                return ResultsDir(p.to_path_buf());
            }
        }
        ResultsDir(PathBuf::from("results"))
    }

    /// The directory this handle writes into.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Path of a named artifact inside the results directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Writes a CSV file with a header row into the results directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(
        &self,
        name: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> io::Result<PathBuf> {
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        self.write_text(name, &out)
    }

    /// Writes a text artifact (e.g. `BENCH_harness.json`) into the
    /// results directory, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_text(&self, name: &str, contents: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.0)?;
        let path = self.0.join(name);
        fs::write(&path, contents)?;
        Ok(path)
    }
}

impl Default for ResultsDir {
    fn default() -> Self {
        ResultsDir::discover()
    }
}

/// Renders an ASCII table: `header` then one row per entry.
pub fn ascii_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut s = String::new();
    let rule = |s: &mut String| {
        for w in &widths {
            let _ = write!(s, "+{}", "-".repeat(w + 2));
        }
        s.push_str("+\n");
    };
    rule(&mut s);
    for (c, h) in header.iter().enumerate() {
        let _ = write!(s, "| {:<w$} ", h, w = widths[c]);
    }
    s.push_str("|\n");
    rule(&mut s);
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(s, "| {:<w$} ", cell, w = widths[c]);
        }
        s.push_str("|\n");
    }
    rule(&mut s);
    s
}

/// One paper-vs-measured comparison line.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being compared (e.g. "avg E×D reduction, MIMO").
    pub label: String,
    /// The paper's reported value, as text (units included).
    pub paper: String,
    /// Our measured value, as text.
    pub measured: String,
}

impl Comparison {
    /// Builds a comparison row.
    pub fn new(label: &str, paper: &str, measured: &str) -> Self {
        Comparison {
            label: label.into(),
            paper: paper.into(),
            measured: measured.into(),
        }
    }
}

/// Renders comparison rows as an ASCII table.
pub fn comparison_table(title: &str, rows: &[Comparison]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|c| vec![c.label.clone(), c.paper.clone(), c.measured.clone()])
        .collect();
    format!(
        "\n== {title} ==\n{}",
        ascii_table(&["quantity", "paper", "measured"], &body)
    )
}

/// Formats a float with fixed decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_table_renders_aligned() {
        let t = ascii_table(
            &["app", "value"],
            &[
                vec!["astar".into(), "1.00".into()],
                vec!["libquantum".into(), "0.50".into()],
            ],
        );
        assert!(t.contains("libquantum"));
        assert!(t.contains("| app"));
        // All rule lines have equal length.
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn comparison_table_includes_title() {
        let rows = vec![Comparison::new("E×D reduction", "16%", "14.2%")];
        let t = comparison_table("Figure 9", &rows);
        assert!(t.contains("Figure 9"));
        assert!(t.contains("16%"));
    }

    #[test]
    fn csv_round_trip() {
        let dir = ResultsDir::new(
            std::env::temp_dir().join(format!("mimo_report_unit_{}", std::process::id())),
        );
        let rows = vec![vec!["a".to_string(), "1".to_string()]];
        let path = dir
            .write_csv("test_report_unit.csv", &["name", "v"], &rows)
            .unwrap();
        assert_eq!(path, dir.join("test_report_unit.csv"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "name,v\na,1\n");
        std::fs::remove_file(path).unwrap();
        std::fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
