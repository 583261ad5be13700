//! Small table-rendering and summary helpers shared by the experiment
//! binaries.

/// The median of `xs` (the upper middle element for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Renders an ASCII table: a header row plus data rows, columns padded to
/// the widest cell.
///
/// ```
/// use localwm_bench::report::render_table;
/// let t = render_table(
///     &["app", "N"],
///     &[vec!["G721".into(), "758".into()]],
/// );
/// assert!(t.contains("G721"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        assert_eq!(row.len(), cols, "row arity must match header");
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, width: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = width[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &width));
    let mut sep = String::from("|");
    for w in &width {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &width));
    }
    out
}

/// Formats a `log₁₀ P_c` as the paper prints it (`10^-26`).
pub fn format_pc(log10_pc: f64) -> String {
    if log10_pc.is_infinite() {
        return "0 (structural)".to_owned();
    }
    format!("10^{:.0}", log10_pc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["xx".into(), "y".into()],
                vec!["z".into(), "wwwww".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let lens: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "ragged table: {t}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a"], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn pc_formatting() {
        assert_eq!(format_pc(-26.4), "10^-26");
        assert_eq!(format_pc(f64::NEG_INFINITY), "0 (structural)");
    }
}
