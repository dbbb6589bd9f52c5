//! Small reporting helpers: aligned text tables and JSON export.

use serde::Serialize;
use std::fmt::Write as _;

/// Renders a simple aligned text table.
///
/// # Panics
/// Panics if a row has a different number of cells than the header.
#[must_use]
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width must match header");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    let _ = writeln!(out, "{}", render_row(&header_cells, &widths));
    let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        let _ = writeln!(out, "{}", render_row(row, &widths));
    }
    out
}

/// Serializes any result rows to pretty JSON (the machine-readable artifact output).
///
/// # Panics
/// Panics if serialization fails, which cannot happen for the plain-data result types
/// of this crate.
#[must_use]
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment results are always serializable")
}

/// Formats a float with a fixed number of significant-looking decimals for tables.
#[must_use]
pub fn fmt_float(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 0.01 {
        format!("{value:.4}")
    } else {
        format!("{value:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let table = text_table(
            &["policy", "lrcs"],
            &[
                vec!["eraser+m".to_string(), "12".to_string()],
                vec!["gladiator+m".to_string(), "7".to_string()],
            ],
        );
        assert!(table.contains("policy"));
        assert!(table.contains("gladiator+m"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let _ = text_table(&["a", "b"], &[vec!["only-one".to_string()]]);
    }

    #[test]
    fn json_roundtrip() {
        #[derive(Serialize)]
        struct Row {
            name: &'static str,
            value: f64,
        }
        let json = to_json(&vec![Row { name: "x", value: 1.5 }]);
        assert!(json.contains("\"name\": \"x\""));
    }

    #[test]
    fn float_formatting_covers_ranges() {
        assert_eq!(fmt_float(0.0), "0");
        assert_eq!(fmt_float(123.456), "123.5");
        assert_eq!(fmt_float(0.1234), "0.1234");
        assert!(fmt_float(1.2e-5).contains('e'));
    }
}
