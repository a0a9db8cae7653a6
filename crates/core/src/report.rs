//! Rendering of analysis results as fixed-width text tables and CSV.
//!
//! The experiment binaries print paper-style tables; this module keeps the
//! formatting logic in one tested place.

use crate::pipeline::SeriesReport;
use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Render with columns padded to their widest cell.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cell.chars().count();
                out.push_str(cell);
                for _ in 0..pad {
                    out.push(' ');
                }
            }
            // Trim trailing spaces.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
        for _ in 0..total {
            out.push('-');
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (cells containing commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let write_row = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            let _ = writeln!(out, "{}", line.join(","));
        };
        write_row(&self.header, &mut out);
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Render the top-`k` detected changes as a table.
pub fn detected_changes_table(reports: &[&SeriesReport], k: usize) -> TextTable {
    let mut t = TextTable::new(vec!["series", "change point", "AIC gain", "lambda"]);
    for r in reports.iter().take(k) {
        t.row(vec![
            r.key.to_string(),
            r.change_point.to_string(),
            format!("{:.2}", r.aic_gain()),
            format!("{:.3}", r.lambda),
        ]);
    }
    t
}

/// A crude ASCII sparkline for eyeballing a series in the terminal.
///
/// Each value takes the level nearest its position in `[min, max]`, and a
/// value halfway between two levels takes the upper one. Integer counts
/// land exactly halfway, so a value a few ulps below halfway (a different
/// summation order) also takes the upper level: every boundary is moved
/// down by a margin over three times wider than a ≤1e-12 relative change
/// of the series can shift a position, and at most a tenth of a level. A
/// series whose spread is below 1e-9 of its magnitude is drawn flat, as a
/// constant one is.
pub fn sparkline(xs: &[f64]) -> String {
    const LEVELS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = max - min;
    let magnitude = min.abs().max(max.abs());
    if range <= 1e-9 * magnitude {
        return xs.iter().map(|_| LEVELS[0]).collect();
    }
    let top = (LEVELS.len() - 1) as f64;
    let margin = 1e-10 * (magnitude / range).max(1.0);
    xs.iter()
        .map(|x| {
            let idx = ((x - min) / range * top + margin).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::DiseaseId;
    use mic_linkmodel::SeriesKey;
    use mic_statespace::ChangePoint;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["long-name", "2.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("long-name  2.5"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new(vec!["x", "y"]);
        t.row(vec!["plain", "has,comma"])
            .row(vec!["has\"quote", "b"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn detected_table_from_reports() {
        let r = SeriesReport {
            key: SeriesKey::Disease(DiseaseId(3)),
            change_point: ChangePoint::At(12),
            aic: 100.0,
            aic_no_change: 140.0,
            lambda: 2.5,
            fits_performed: 10,
        };
        let refs = vec![&r];
        let t = detected_changes_table(&refs, 5);
        let s = t.render();
        assert!(s.contains("disease/D3"));
        assert!(s.contains("t=12"));
        assert!(s.contains("40.00"));
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
        // Constant (or all-zero) series are drawn flat.
        assert_eq!(sparkline(&[2.0, 2.0]), "▁▁");
        assert_eq!(sparkline(&[0.0, 0.0, 0.0]), "▁▁▁");
    }

    #[test]
    fn sparkline_levels_survive_last_bit_perturbations() {
        // Counts 0..=14 (and the same on a large offset) put every odd value
        // exactly halfway between two levels. A ≤1e-12 relative change of
        // every value, either sign, must not flip a glyph.
        for offset in [0.0, 1000.0] {
            let xs: Vec<f64> = (0..15).map(|k| offset + k as f64).collect();
            let exact = sparkline(&xs);
            assert_eq!(exact, "▁▂▂▃▃▄▄▅▅▆▆▇▇██", "offset {offset}");
            for rel in [1e-12, -1e-12, 1e-15, -1e-15] {
                let perturbed: Vec<f64> = xs
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| x * (1.0 + if i % 2 == 0 { rel } else { -rel }))
                    .collect();
                assert_eq!(sparkline(&perturbed), exact, "offset {offset}, rel {rel}");
            }
        }
    }
}
