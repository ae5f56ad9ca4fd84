//! Plain-text table rendering, JSON result dumps, and the wall clock
//! the bench mains time with.

use apan_metrics::MeanStd;
use serde::Serialize;
use std::path::Path;

/// One table cell: a metric aggregated over seeds.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Cell {
    /// Aggregated samples.
    pub stat: MeanStd,
}

impl Cell {
    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        self.stat.push(v);
    }

    /// `mean (std)` in percent, the paper's format.
    pub fn paper(&self) -> String {
        self.stat.paper_pct()
    }
}

/// A rows × columns results table with paper-style rendering.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row labels.
    pub rows: Vec<String>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with the given shape.
    pub fn new(title: &str, columns: &[&str], rows: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: rows.iter().map(|s| s.to_string()).collect(),
            cells: vec![vec![Cell::default(); columns.len()]; rows.len()],
        }
    }

    /// Adds a sample to `(row, col)`.
    pub fn push(&mut self, row: usize, col: usize, v: f64) {
        self.cells[row][col].push(v);
    }

    /// Renders aligned text, flagging the best mean per column with `*`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let w = 16usize;
        let label_w = self.rows.iter().map(String::len).max().unwrap_or(8).max(8);
        out.push_str(&format!("{:label_w$}", ""));
        for c in &self.columns {
            out.push_str(&format!(" {c:>w$}"));
        }
        out.push('\n');
        // best mean per column
        let best: Vec<f64> = (0..self.columns.len())
            .map(|c| {
                self.cells
                    .iter()
                    .map(|r| r[c].stat.mean())
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        for (ri, r) in self.rows.iter().enumerate() {
            out.push_str(&format!("{r:label_w$}"));
            for (ci, cell) in self.cells[ri].iter().enumerate() {
                let mark = if !cell.stat.is_empty() && (cell.stat.mean() - best[ci]).abs() < 1e-12 {
                    "*"
                } else {
                    " "
                };
                out.push_str(&format!(" {:>w$}{mark}", cell.paper(), w = w - 1));
            }
            out.push('\n');
        }
        out
    }
}

/// Writes any serializable value as pretty JSON, creating directories.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(path, json)
}

/// Mean wall-clock nanoseconds per call of `f` over `iters` calls,
/// after one untimed warm-up call (pool spawn, caches).
pub fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_marks_best() {
        let mut t = Table::new("demo", &["AP"], &["A", "B"]);
        t.push(0, 0, 0.9);
        t.push(1, 0, 0.8);
        let s = t.render();
        assert!(s.contains("demo"));
        let line_a = s.lines().find(|l| l.starts_with('A')).unwrap();
        assert!(line_a.contains('*'), "best row should be starred: {line_a}");
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join("apan-bench-test");
        let path = dir.join("t.json");
        let mut t = Table::new("demo", &["x"], &["r"]);
        t.push(0, 0, 1.0);
        write_json(&path, &t).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("demo"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
