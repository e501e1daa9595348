//! Markdown table rendering for experiment output.

/// A simple markdown table builder.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub(crate) fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are pre-formatted strings).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Renders to a markdown string with aligned columns.
    #[must_use]
    pub(crate) fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<width$} |", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths[..cols] {
            out.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub(crate) fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 3 decimals.
#[must_use]
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let r = t.render();
        assert!(r.starts_with("| name  | value |\n|-------|-------|\n"));
        assert!(r.contains("| alpha | 1     |"));
        assert!(r.contains("| b     | 12345 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(0.12345), "0.123");
    }
}
