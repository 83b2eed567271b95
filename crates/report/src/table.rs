//! ASCII table rendering and CSV export.

/// A simple column-aligned table.
///
/// ```
/// use report::Table;
/// let mut t = Table::new(&["n", "energy"]);
/// t.row(&["4".into(), "1.25".into()]);
/// let s = t.render();
/// assert!(s.contains("energy"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Render as a column-aligned ASCII table with a separator line.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (j, c) in r.iter().enumerate() {
                widths[j] = widths[j].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for j in 0..ncols {
                if j > 0 {
                    line.push_str("  ");
                }
                let c = &cells[j];
                // Right-align numeric-looking cells, left-align text.
                let numeric = c
                    .chars()
                    .all(|ch| ch.is_ascii_digit() || "+-.eE%x".contains(ch));
                if numeric {
                    line.push_str(&format!("{c:>w$}", w = widths[j]));
                } else {
                    line.push_str(&format!("{c:<w$}", w = widths[j]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (headers + rows, comma-separated; cells containing
    /// commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["model", "energy"]);
        t.row(&["Continuous".into(), "1.0".into()]);
        t.row(&["Discrete".into(), "1.4321".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("model"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].starts_with("Continuous"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
