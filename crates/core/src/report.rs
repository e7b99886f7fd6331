//! Plain-text table rendering for the experiment reports.
//!
//! The benchmark harness and the README's Benchmarks section both present
//! results as small aligned tables; this module provides the single formatter
//! they share so that every experiment prints consistently.

use std::fmt;

/// A simple aligned table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each row should have `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table with the given title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of cells.
    pub fn push_row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as aligned plain text (also available through
    /// [`fmt::Display`]).
    pub fn render(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(columns) {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Growth of cons domains", &["level", "atoms", "log2 size"]);
        t.push_row(vec!["0".into(), "3".into(), "3.2".into()]);
        t.push_row(vec!["1".into(), "3".into(), "9.0".into()]);
        t
    }

    #[test]
    fn plain_text_rendering_is_aligned() {
        let t = sample();
        let text = t.render();
        assert!(text.contains("== Growth of cons domains =="));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // Header columns align with data columns.
        let header_pos = lines[1].find("atoms").unwrap();
        let row_pos = lines[3].find('3').unwrap();
        assert!(row_pos >= header_pos.saturating_sub(6));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(format!("{t}"), text);
    }

    #[test]
    fn empty_table_still_renders() {
        let t = Table::new("empty", &["a"]);
        assert!(t.is_empty());
        assert!(t.render().contains("empty"));
    }
}
