//! Default tabular report rendering.
//!
//! When a `%SQL` section has no `%SQL_REPORT` block, the gateway prints the
//! query result "in a default table format" (§3.4). This builder produces that
//! format: a bordered HTML 3.0 table with a header row of column names and one
//! row per fetched tuple, all cell values HTML-escaped.

use crate::escape::escape_text;

/// Incremental builder for the default `<table>` report.
///
/// ```
/// use dbgw_html::TableBuilder;
/// let mut t = TableBuilder::new(&["NAME", "AGE"]);
/// t.push_row(&["O'Leary <jr>", "41"]);
/// let html = t.finish();
/// assert!(html.contains("<TABLE BORDER=1>"));
/// assert!(html.contains("O'Leary &lt;jr&gt;"));
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    out: String,
    columns: usize,
    rows: usize,
}

impl TableBuilder {
    /// The closing fragment of a default table; pairs with [`header_html`]
    /// and [`push_row_html`] for streaming emission.
    ///
    /// [`header_html`]: TableBuilder::header_html
    /// [`push_row_html`]: TableBuilder::push_row_html
    pub const FOOTER_HTML: &'static str = "</TABLE>\n";

    /// The opening `<TABLE>` tag and header row, standalone — for renderers
    /// that flush the table piecewise instead of accumulating it.
    pub fn header_html<S: AsRef<str>>(columns: &[S]) -> String {
        let mut out = String::with_capacity(128 + columns.len() * 16);
        out.push_str("<TABLE BORDER=1>\n<TR>");
        for c in columns {
            out.push_str("<TH>");
            out.push_str(&escape_text(c.as_ref()));
            out.push_str("</TH>");
        }
        out.push_str("</TR>\n");
        out
    }

    /// Append one data row to `out`. Missing trailing cells render as
    /// empty; extra cells are still rendered (the 90s engine trusted the
    /// DBMS row width).
    pub fn push_row_html<S: AsRef<str>>(out: &mut String, columns: usize, cells: &[S]) {
        out.push_str("<TR>");
        for i in 0..columns.max(cells.len()) {
            out.push_str("<TD>");
            if let Some(cell) = cells.get(i) {
                out.push_str(&escape_text(cell.as_ref()));
            }
            out.push_str("</TD>");
        }
        out.push_str("</TR>\n");
    }

    /// Begin a table with the given header row (column names are escaped).
    pub fn new<S: AsRef<str>>(columns: &[S]) -> Self {
        TableBuilder {
            out: Self::header_html(columns),
            columns: columns.len(),
            rows: 0,
        }
    }

    /// Append a data row (see [`push_row_html`](TableBuilder::push_row_html)
    /// for the padding rules).
    pub fn push_row<S: AsRef<str>>(&mut self, cells: &[S]) {
        Self::push_row_html(&mut self.out, self.columns, cells);
        self.rows += 1;
    }

    /// Number of data rows appended so far.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Close the table and return the HTML.
    pub fn finish(mut self) -> String {
        self.out.push_str(Self::FOOTER_HTML);
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_balanced;

    #[test]
    fn renders_header_and_rows() {
        let mut t = TableBuilder::new(&["URL", "TITLE"]);
        t.push_row(&["http://x", "X site"]);
        t.push_row(&["http://y", "Y site"]);
        let html = t.finish();
        assert!(html.contains("<TH>URL</TH><TH>TITLE</TH>"));
        assert!(html.contains("<TD>http://x</TD><TD>X site</TD>"));
        assert_eq!(html.matches("<TR>").count(), 3);
    }

    #[test]
    fn escapes_cells() {
        let mut t = TableBuilder::new(&["a&b"]);
        t.push_row(&["<tag>"]);
        let html = t.finish();
        assert!(html.contains("a&amp;b"));
        assert!(html.contains("&lt;tag&gt;"));
    }

    #[test]
    fn short_row_padded() {
        let mut t = TableBuilder::new(&["A", "B", "C"]);
        t.push_row(&["only"]);
        let html = t.finish();
        assert_eq!(html.matches("<TD>").count(), 3);
    }

    #[test]
    fn output_is_balanced_html() {
        let mut t = TableBuilder::new(&["A"]);
        t.push_row(&["1"]);
        t.push_row(&["2"]);
        assert!(check_balanced(&t.finish()).is_ok());
    }

    #[test]
    fn piecewise_emission_matches_builder() {
        let mut t = TableBuilder::new(&["A", "B"]);
        t.push_row(&["1", "2"]);
        t.push_row(&["only"]);
        let whole = t.finish();
        let mut pieces = TableBuilder::header_html(&["A", "B"]);
        TableBuilder::push_row_html(&mut pieces, 2, &["1", "2"]);
        TableBuilder::push_row_html(&mut pieces, 2, &["only"]);
        pieces.push_str(TableBuilder::FOOTER_HTML);
        assert_eq!(whole, pieces);
    }

    #[test]
    fn empty_table_valid() {
        let t = TableBuilder::new(&["A"]);
        assert_eq!(t.row_count(), 0);
        assert!(check_balanced(&t.finish()).is_ok());
    }
}
