//! SQL `LIKE` pattern matching.
//!
//! `%` matches any run of characters (including empty), `_` matches exactly
//! one character, and an optional `ESCAPE` character makes the next pattern
//! character literal. Matching is case-sensitive, as in DB2 with default
//! collation.
//!
//! [`Pattern`] is the only reader of that grammar. It decodes a pattern once
//! into tokens. One literal with at most a leading and a trailing `%` then
//! matches as `==`, `starts_with`, `ends_with` or `str::contains` on the text
//! in place; any other pattern backtracks over the token list, O(text ×
//! pattern) worst case. `Bindings::bind` prepares a literal pattern once per
//! statement into the LIKE's [`Prepared`]; any other is prepared per row.

use crate::ast::Expr;

#[derive(Debug, Clone, Copy, PartialEq)]
enum PatTok {
    AnyRun, // %
    AnyOne, // _
    Lit(char),
}

impl PatTok {
    fn literal(&self) -> Option<char> {
        match self {
            PatTok::Lit(c) => Some(*c),
            _ => None,
        }
    }
}

/// A LIKE pattern decoded once, matched against many texts.
#[derive(Debug, Clone)]
pub struct Pattern {
    tokens: Vec<PatTok>,
    /// A pattern that is one literal: the literal, and whether `%` leads and
    /// trails it (exact, prefix, suffix or contains). `None`: backtrack.
    literal: Option<(String, bool, bool)>,
}

impl Pattern {
    /// Decode `pattern` under the optional `escape` character.
    pub fn new(pattern: &str, escape: Option<char>) -> Pattern {
        #[cfg(test)]
        PREPARES.with(|n| n.set(n.get() + 1));
        let mut chars = pattern.chars();
        let mut tokens = Vec::new();
        while let Some(c) = chars.next() {
            tokens.push(match c {
                // An escaped character is literal; a trailing escape is
                // itself literal (DB2 raised an error; being lenient here only
                // loosens tests we never rely on).
                _ if Some(c) == escape => PatTok::Lit(chars.next().unwrap_or(c)),
                '%' => PatTok::AnyRun,
                '_' => PatTok::AnyOne,
                _ => PatTok::Lit(c),
            });
        }
        let start = (tokens.iter())
            .position(|t| *t != PatTok::AnyRun)
            .unwrap_or(tokens.len());
        let end = (tokens.iter())
            .rposition(|t| *t != PatTok::AnyRun)
            .map_or(start, |i| i + 1);
        let literal: Option<String> = tokens[start..end].iter().map(PatTok::literal).collect();
        let literal = literal.map(|l| (l, start > 0, end < tokens.len()));
        Pattern { tokens, literal }
    }

    /// Does `text` match?
    pub fn matches(&self, text: &str) -> bool {
        match &self.literal {
            Some((l, false, false)) => text == l,
            Some((l, false, true)) => text.starts_with(l.as_str()),
            Some((l, true, false)) => text.ends_with(l.as_str()),
            Some((l, true, true)) => text.contains(l.as_str()),
            None => backtrack(text, &self.tokens),
        }
    }

    /// The literal characters before the first wildcard: the planner turns
    /// `col LIKE 'abc%'` into a B-tree range scan over them.
    pub fn literal_prefix(&self) -> String {
        self.tokens.iter().map_while(PatTok::literal).collect()
    }

    /// True when the pattern has no wildcard, so LIKE is equality with its
    /// [`literal_prefix`](Self::literal_prefix).
    pub fn is_exact(&self) -> bool {
        matches!(self.literal, Some((_, false, false)))
    }
}

/// A LIKE's pattern, prepared by `Bindings::bind` when it is a literal. It is
/// derived data: any two compare equal, so the `==` that matches aggregate
/// and HAVING expressions never sees it.
#[derive(Debug, Clone, Default)]
pub struct Prepared(pub Option<Box<Pattern>>);

impl Prepared {
    /// Prepare `pattern` under `escape` if it is a literal other than NULL.
    pub fn prepare(&mut self, pattern: &Expr, escape: Option<char>) {
        if let Expr::Literal(p) = pattern {
            self.0 = (!p.is_null()).then(|| Box::new(Pattern::new(&p.as_text(), escape)));
        }
    }
}

impl PartialEq for Prepared {
    fn eq(&self, _: &Prepared) -> bool {
        true
    }
}

#[cfg(test)]
thread_local! {
    /// [`Pattern::new`] calls on this thread: the prepare-once tests check it
    /// does not grow with the table.
    pub(crate) static PREPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Does `text` match the LIKE `pattern`? A pattern matched against many texts
/// is better decoded once, as a [`Pattern`].
///
/// ```
/// use minisql::like::like_match;
/// assert!(like_match("bikes and more", "bikes%", None));
/// assert!(like_match("abc", "a_c", None));
/// assert!(like_match("50% off", "50!% %", Some('!')));
/// assert!(!like_match("Bikes", "bikes%", None));
/// ```
pub fn like_match(text: &str, pattern: &str, escape: Option<char>) -> bool {
    Pattern::new(pattern, escape).matches(text)
}

fn backtrack(text: &str, pattern: &[PatTok]) -> bool {
    let (mut ti, mut pi) = (0usize, 0usize); // text byte offset, token index
    let mut star: Option<(usize, usize)> = None; // (token after %, text at %)
    while let Some(tc) = text[ti..].chars().next() {
        match pattern.get(pi) {
            Some(PatTok::Lit(c)) if *c == tc => (ti, pi) = (ti + tc.len_utf8(), pi + 1),
            Some(PatTok::AnyOne) => (ti, pi) = (ti + tc.len_utf8(), pi + 1),
            Some(PatTok::AnyRun) => (star, pi) = (Some((pi + 1, ti)), pi + 1),
            _ => match star {
                // Backtrack: let the last % swallow one more character.
                Some((sp, st)) => {
                    let st = st + text[st..].chars().next().map_or(1, char::len_utf8);
                    (ti, pi, star) = (st, sp, Some((sp, st)));
                }
                None => return false,
            },
        }
    }
    pattern[pi..].iter().all(|t| *t == PatTok::AnyRun)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn literal_prefix(pattern: &str, escape: Option<char>) -> String {
        Pattern::new(pattern, escape).literal_prefix()
    }

    fn is_exact(pattern: &str, escape: Option<char>) -> bool {
        Pattern::new(pattern, escape).is_exact()
    }

    #[test]
    fn basic_wildcards() {
        assert!(like_match("hello", "hello", None));
        assert!(like_match("hello", "h%", None));
        assert!(like_match("hello", "%o", None));
        assert!(like_match("hello", "%ell%", None));
        assert!(like_match("hello", "h_llo", None));
        assert!(!like_match("hello", "h_lo", None));
        assert!(!like_match("hello", "hello!", None));
    }

    #[test]
    fn percent_matches_empty() {
        assert!(like_match("", "%", None));
        assert!(like_match("a", "%a%", None));
        assert!(like_match("a", "a%", None));
    }

    #[test]
    fn underscore_needs_exactly_one() {
        assert!(!like_match("", "_", None));
        assert!(like_match("ab", "__", None));
        assert!(!like_match("a", "__", None));
    }

    #[test]
    fn paper_examples() {
        // From §3.1.3: product_name LIKE 'bikes%'
        assert!(like_match("bikes", "bikes%", None));
        assert!(like_match("bikes for kids", "bikes%", None));
        assert!(!like_match("mountain bikes", "bikes%", None));
        // From Appendix A: url LIKE '%ib%'
        assert!(like_match("http://www.ibm.com", "%ib%", None));
        assert!(!like_match("http://www.example.com", "%ib%", None));
    }

    #[test]
    fn escape_character() {
        assert!(like_match("100%", "100!%", Some('!')));
        assert!(!like_match("100x", "100!%", Some('!')));
        assert!(like_match("a_b", "a!_b", Some('!')));
        assert!(!like_match("axb", "a!_b", Some('!')));
        // Escaped escape char.
        assert!(like_match("a!b", "a!!b", Some('!')));
    }

    #[test]
    fn backtracking_torture() {
        let text = "a".repeat(64) + "b";
        assert!(like_match(&text, "%a%a%a%b", None));
        assert!(!like_match(&"a".repeat(64), "%a%a%a%b", None));
    }

    #[test]
    fn consecutive_percents_collapse() {
        assert!(like_match("xy", "x%%%%y", None));
    }

    #[test]
    fn multibyte_chars_count_as_one() {
        assert!(like_match("héllo", "h_llo", None));
        assert!(like_match("☃", "_", None));
    }

    #[test]
    fn every_shape() {
        let cases: &[(&str, &str, Option<char>, bool)] = &[
            ("", "", None, true),
            ("a", "", None, false),
            ("", "%", None, true),
            ("é日", "%", None, true),
            ("", "%%", None, true),
            ("xyz", "%%", None, true),
            ("abc", "a%b%c", None, true),
            ("a-b-c-", "a%b%c", None, false),
            ("é", "_", None, true),
            ("é", "__", None, false),
            ("ab!", "ab!", Some('!'), true),
            ("ab", "ab!", Some('!'), false),
            ("100%", "100%%", Some('%'), true),
            ("1000", "100%%", Some('%'), false),
        ];
        for &(text, pattern, escape, want) in cases {
            assert_eq!(
                like_match(text, pattern, escape),
                want,
                "{text:?} LIKE {pattern:?}"
            );
        }
    }

    #[test]
    fn prepared_pattern_does_not_grow_expr() {
        // A LIKE holds its prepared pattern behind one pointer.
        assert!(std::mem::size_of::<crate::ast::Expr>() <= 64);
    }

    #[test]
    fn prefix_extraction() {
        assert_eq!(literal_prefix("bikes%", None), "bikes");
        assert_eq!(literal_prefix("%ib%", None), "");
        assert_eq!(literal_prefix("a!%b%", Some('!')), "a%b");
        assert_eq!(literal_prefix("plain", None), "plain");
    }

    #[test]
    fn exactness() {
        assert!(is_exact("plain", None));
        assert!(is_exact("100!%", Some('!')));
        assert!(!is_exact("a%", None));
        assert!(!is_exact("a_", None));
    }
}
