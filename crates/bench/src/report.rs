//! Result reporting: JSON persistence (`bench_results/<id>.json`) and
//! paper-style markdown tables on stdout.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// A generic experiment report: one named table of rows.
#[derive(Serialize, Debug, Clone)]
pub struct Report {
    /// Experiment id (`table2`, `fig5`, …).
    pub id: String,
    /// Paper artifact this regenerates.
    pub title: String,
    /// Scale description.
    pub scale: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of stringified cells (numbers pre-formatted).
    pub rows: Vec<Vec<String>>,
}

impl Report {
    pub fn new(id: &str, title: &str, scale: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            scale: scale.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders as a markdown table.
    fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "\n## {} — {} ({})\n\n",
            self.id, self.title, self.scale
        ));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Prints the markdown table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

/// Writes a serialisable result to `bench_results/<id>.json` (workspace
/// root when run via cargo, else cwd).
pub fn write_json<T: Serialize>(id: &str, value: &T) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("cannot create bench_results dir");
    let path = dir.join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialisation failed");
    fs::write(&path, json).expect("cannot write result json");
    path
}

fn results_dir() -> PathBuf {
    // Prefer the workspace root (set by cargo run); fall back to cwd.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.ancestors().nth(2) {
            return root.join("bench_results");
        }
    }
    PathBuf::from("bench_results")
}

/// Formats a float compactly for table cells.
pub fn fmt(v: f32) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders() {
        let mut r = Report::new("t", "Test", "tiny", &["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        let md = r.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = Report::new("t", "Test", "tiny", &["a", "b"]);
        r.push_row(vec!["1".into()]);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.123");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1234.6), "1235");
    }

    #[test]
    fn json_roundtrip() {
        let r = Report::new("unit-test-report", "Test", "tiny", &["x"]);
        let path = write_json("unit-test-report", &r);
        let back: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back["id"], "unit-test-report");
        std::fs::remove_file(path).ok();
    }
}
