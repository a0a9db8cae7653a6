//! Console + CSV output helpers for the experiment binaries.

use mic_trend::report::TextTable;
use std::fs;
use std::path::Path;

/// Print a section banner.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Print a table and mirror it to `results/<name>.csv` (best-effort; the
/// console output is the primary artefact).
pub fn emit_table(name: &str, table: &TextTable) {
    println!("{}", table.render());
    write_csv(Path::new("results"), name, table);
}

/// Write `table` to `<dir>/<name>.csv`, creating `dir` (best-effort).
fn write_csv(dir: &Path, name: &str, table: &TextTable) {
    if fs::create_dir_all(dir).is_ok() {
        let _ = fs::write(dir.join(format!("{name}.csv")), table.to_csv());
    }
}

/// Render a series next to an ASCII sparkline with a label.
pub fn print_series(label: &str, xs: &[f64]) {
    println!("{label:<28} {}", mic_trend::report::sparkline(xs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_csv_creates_its_directory() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1"]);
        let dir = std::env::temp_dir().join(format!("mic-output-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_csv(&dir, "unit-test-table", &t);
        let content = fs::read_to_string(dir.join("unit-test-table.csv")).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(content.starts_with("a"));
    }
}
