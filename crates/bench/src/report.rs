//! CSV reporting: every experiment prints its rows to stdout and writes the
//! same CSV under `bench_results/`.

use std::fs;
use std::path::{Path, PathBuf};

/// A CSV report: a header line plus rows, echoed to stdout and written to
/// `bench_results/<name>.csv`.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    header: String,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report with the given file stem and CSV header line.
    pub fn new<S: Into<String>>(name: S, header: &str) -> Self {
        Report {
            name: name.into(),
            header: header.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, one field per header column.
    pub fn push_row(&mut self, fields: Vec<String>) {
        self.rows.push(fields);
    }

    /// The report serialised as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.clone();
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the CSV to stdout and writes it to `dir/<name>.csv`, returning
    /// the written path. IO errors are reported on stderr but do not abort
    /// the experiment (stdout output is the primary artefact).
    pub fn emit_to(&self, dir: &Path) -> Option<PathBuf> {
        let csv = self.to_csv();
        print!("{csv}");
        let path = dir.join(format!("{}.csv", self.name));
        match fs::create_dir_all(dir).and_then(|()| fs::write(&path, csv)) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Prints the CSV to stdout and writes it under `bench_results/` in the
    /// current directory.
    pub fn emit(&self) -> Option<PathBuf> {
        self.emit_to(Path::new("bench_results"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let mut report = Report::new("unit", "a,b,c");
        report.push_row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(report.to_csv(), "a,b,c\n1,2,3\n");
    }

    #[test]
    fn emit_writes_the_file() {
        let dir = std::env::temp_dir().join("convoy-bench-report-test");
        let mut report = Report::new("emit_test", "x");
        report.push_row(vec!["42".into()]);
        let path = report.emit_to(&dir).expect("emit must succeed");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, "x\n42\n");
        std::fs::remove_file(path).ok();
    }
}
