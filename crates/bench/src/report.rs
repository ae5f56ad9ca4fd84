//! Plain-text table rendering, JSON result dumps, and the wall clock
//! the bench mains time with.

use apan_data::DatasetStats;
use apan_metrics::MeanStd;
use std::path::Path;

/// One table cell: a metric aggregated over seeds.
#[derive(Clone, Debug, Default)]
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
#[derive(Clone, Debug)]
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

/// A JSON document, as the result dumps write it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Written as `null` when not finite.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in the order given.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Pretty text: two-space indent, one member or element per line,
    /// `"key": value`, and `[]`/`{}` for empty containers.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // Shortest round-trip digits; `{:?}` already switches to
            // exponent form from 1e16 up, but from below 1e-4 rather than
            // below 1e-5.
            Json::Num(x) if (1e-5..1e-4).contains(&x.abs()) => out.push_str(&format!("{x}")),
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => write_str(out, s),
            Json::Arr(a) => write_seq(out, indent, ('[', ']'), a.iter().map(|v| (None, v))),
            Json::Obj(m) => write_seq(
                out,
                indent,
                ('{', '}'),
                m.iter().map(|(k, v)| (Some(*k), v)),
            ),
        }
    }
}

/// Writes `open`, each item on its own line one level deeper (`"key": `
/// first when it has one), then `close`.
fn write_seq<'a>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let empty = items.len() == 0;
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    if !empty {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A value [`write_json`] can write.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// [`Json::Obj`] of the named fields of `$value`, keyed by field name,
/// in the order listed — list them in declaration order.
#[macro_export]
macro_rules! json_fields {
    ($value:expr; $($field:ident),+ $(,)?) => {
        $crate::report::Json::Obj(vec![$(
            (stringify!($field), $crate::report::ToJson::to_json(&$value.$field))
        ),+])
    };
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl ToJson for MeanStd {
    fn to_json(&self) -> Json {
        Json::Obj(vec![("samples", self.samples().to_json())])
    }
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        json_fields!(self; stat)
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        json_fields!(self; title, columns, rows, cells)
    }
}

impl ToJson for DatasetStats {
    fn to_json(&self) -> Json {
        json_fields!(self;
            name, edges, nodes, edge_feature_dim, nodes_in_train, old_nodes_in_valtest,
            unseen_nodes_in_valtest, timespan_days, interactions_with_labels, label_type)
    }
}

/// Writes `value` as pretty JSON ([`Json::pretty`]), creating directories.
pub fn write_json<T: ToJson + ?Sized>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, value.to_json().pretty())
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
        let dir = std::env::temp_dir().join(format!("apan-bench-test-{}", std::process::id()));
        let path = dir.join("t.json");
        let mut t = Table::new("demo", &["x"], &["r"]);
        t.push(0, 0, 1.0);
        t.push(0, 0, 0.25);
        write_json(&path, &t).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let want = r#"{
  "title": "demo",
  "columns": [
    "x"
  ],
  "rows": [
    "r"
  ],
  "cells": [
    [
      {
        "stat": {
          "samples": [
            1.0,
            0.25
          ]
        }
      }
    ]
  ]
}"#;
        assert_eq!(content, want);
    }

    #[test]
    fn json_strings_are_escaped() {
        let s = "q\"b\\n\nt\tc\u{1}\u{1f}\u{8}\u{c}\r é";
        assert_eq!(
            s.to_json().pretty(),
            r#""q\"b\\n\nt\tc\u0001\u001f\b\f\r é""#
        );
    }

    #[test]
    fn json_numbers_and_nulls() {
        let cases: [(Json, &str); 12] = [
            (f64::NAN.to_json(), "null"),
            (f64::INFINITY.to_json(), "null"),
            (f64::NEG_INFINITY.to_json(), "null"),
            (None::<f64>.to_json(), "null"),
            (Some(2u64).to_json(), "2"),
            (1.0f64.to_json(), "1.0"),
            ((-0.5f64).to_json(), "-0.5"),
            (2.5e-5f64.to_json(), "0.000025"),
            (1e-4f64.to_json(), "0.0001"),
            (1e-7f64.to_json(), "1e-7"),
            (1e16f64.to_json(), "1e16"),
            (123456789.125f64.to_json(), "123456789.125"),
        ];
        for (json, want) in cases {
            assert_eq!(json.pretty(), want, "{json:?}");
        }
        assert_eq!(u64::MAX.to_json().pretty(), "18446744073709551615");
        assert_eq!(true.to_json().pretty(), "true");
    }

    #[test]
    fn json_nests_arrays_and_empties() {
        let v: Vec<Vec<u64>> = vec![vec![1, 2], vec![]];
        assert_eq!(v.to_json().pretty(), "[\n  [\n    1,\n    2\n  ],\n  []\n]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn json_keys_follow_field_order() {
        let stats = DatasetStats {
            name: "d".into(),
            edges: 1,
            nodes: 2,
            edge_feature_dim: 3,
            nodes_in_train: 4,
            old_nodes_in_valtest: 5,
            unseen_nodes_in_valtest: 6,
            timespan_days: 7.5,
            interactions_with_labels: 8,
            label_type: "t".into(),
        };
        let Json::Obj(members) = stats.to_json() else {
            panic!("an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "name",
                "edges",
                "nodes",
                "edge_feature_dim",
                "nodes_in_train",
                "old_nodes_in_valtest",
                "unseen_nodes_in_valtest",
                "timespan_days",
                "interactions_with_labels",
                "label_type"
            ]
        );
    }
}
