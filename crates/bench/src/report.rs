//! The one record of a paper artifact: a [`Report`] prints as a
//! paper-style markdown table on stdout and persists, unchanged, as
//! `bench_results/<id>.json`.

use std::fs;
use std::path::PathBuf;

use serde::{Serialize, Value};

/// One table cell. It keeps its value: the JSON carries it as is (numbers
/// at full `f32` precision), the markdown shows integers whole and numbers
/// through [`fmt`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Text(String),
    Int(usize),
    Num(f32),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v)
    }
}

impl From<f32> for Cell {
    fn from(v: f32) -> Self {
        Cell::Num(v)
    }
}

impl Serialize for Cell {
    fn to_value(&self) -> Value {
        match self {
            Cell::Text(s) => s.to_value(),
            Cell::Int(v) => v.to_value(),
            Cell::Num(v) => v.to_value(),
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Num(v) => f.write_str(&fmt(*v)),
        }
    }
}

/// An experiment report: one named table of rows.
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
    /// Rows of cells, each as wide as `columns`.
    pub rows: Vec<Vec<Cell>>,
}

impl Report {
    pub fn new<C: AsRef<str>>(id: &str, title: &str, scale: &str, columns: &[C]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            scale: scale.to_string(),
            columns: columns.iter().map(|c| c.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders as a markdown table.
    fn to_markdown(&self) -> String {
        let mut out = format!("\n## {} — {} ({})\n\n", self.id, self.title, self.scale);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::to_string).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }

    /// Prints the markdown table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Writes the report to `bench_results/<id>.json` (workspace root when
    /// run via cargo, else cwd).
    pub fn write_json(&self) -> PathBuf {
        let dir = results_dir();
        fs::create_dir_all(&dir).expect("cannot create bench_results dir");
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).expect("serialisation failed");
        fs::write(&path, json).expect("cannot write result json");
        path
    }
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

    fn sample() -> Report {
        let mut r = Report::new(
            "t",
            "Test",
            "tiny",
            &["Dataset", "n", "QPS", "Hops", "Recall"],
        );
        r.push_row(vec![
            "Sift".into(),
            320usize.into(),
            1577.2f32.into(),
            503.71f32.into(),
            0.6f32.into(),
        ]);
        r.push_row(vec![
            "Deep".into(),
            0usize.into(),
            0.0f32.into(),
            12.34f32.into(),
            0.64680004f32.into(),
        ]);
        r
    }

    #[test]
    fn markdown_renders() {
        let golden = "\n## t — Test (tiny)\n\n\
                      | Dataset | n | QPS | Hops | Recall |\n\
                      |---|---|---|---|---|\n\
                      | Sift | 320 | 1577 | 503.7 | 0.600 |\n\
                      | Deep | 0 | 0 | 12.3 | 0.647 |\n";
        assert_eq!(sample().to_markdown(), golden);
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
        let mut r = sample();
        r.id = "unit-test-report".into();
        let path = r.write_json();
        let back = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(back["id"], "unit-test-report");
        assert_eq!(back["scale"], "tiny");
        assert_eq!(back["columns"][4], "Recall");
        assert_eq!(back["rows"][0][0], "Sift");
        assert_eq!(back["rows"][0][1], 320.0);
        let recall = back["rows"][1][4].as_f64().unwrap();
        assert_eq!(recall as f32, 0.64680004f32);
        assert_eq!(back["rows"][0][3].as_f64().unwrap() as f32, 503.71f32);
    }
}
