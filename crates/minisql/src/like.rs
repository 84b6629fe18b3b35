//! SQL `LIKE` pattern matching.
//!
//! `%` matches any run of characters (including empty), `_` matches exactly
//! one character, and an optional `ESCAPE` character makes the next pattern
//! character literal. Matching is case-sensitive, as in DB2 with default
//! collation. Matching never allocates: a pattern that is one literal with
//! at most a leading and a trailing `%` (and no `_` or escape character) is
//! a plain `==` / `starts_with` / `ends_with` / `contains`; every other
//! pattern runs the classic two-pointer backtracking matcher in place over
//! both strings, O(text × pattern) worst case.

/// Does `text` match the LIKE `pattern`?
///
/// ```
/// use minisql::like::like_match;
/// assert!(like_match("bikes and more", "bikes%", None));
/// assert!(like_match("abc", "a_c", None));
/// assert!(like_match("50% off", "50!% %", Some('!')));
/// assert!(!like_match("Bikes", "bikes%", None));
/// ```
pub fn like_match(text: &str, pattern: &str, escape: Option<char>) -> bool {
    let literal = pattern.trim_matches('%');
    if literal.contains(['%', '_']) || escape.is_some_and(|e| pattern.contains(e)) {
        return backtrack(text, pattern, escape);
    }
    match (pattern.starts_with('%'), pattern.ends_with('%')) {
        (false, false) => text == literal,
        (false, true) => text.starts_with(literal),
        (true, false) => text.ends_with(literal),
        (true, true) => text.contains(literal),
    }
}

#[derive(Debug, Clone, Copy)]
enum PatTok {
    AnyRun, // %
    AnyOne, // _
    Lit(char),
}

/// The pattern token starting at byte `at`, and the byte offset after it.
fn token(pattern: &str, at: usize, escape: Option<char>) -> Option<(PatTok, usize)> {
    let mut chars = pattern[at..].chars();
    let c = chars.next()?;
    let tok = if Some(c) == escape {
        // Escaped character is literal; a trailing escape is itself literal
        // (DB2 raised an error; being lenient here only loosens tests we
        // never rely on).
        match chars.next() {
            Some(next) => return Some((PatTok::Lit(next), at + c.len_utf8() + next.len_utf8())),
            None => PatTok::Lit(c),
        }
    } else if c == '%' {
        PatTok::AnyRun
    } else if c == '_' {
        PatTok::AnyOne
    } else {
        PatTok::Lit(c)
    };
    Some((tok, at + c.len_utf8()))
}

/// The pattern's tokens in order.
fn tokens(pattern: &str, escape: Option<char>) -> impl Iterator<Item = PatTok> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let (tok, next) = token(pattern, at, escape)?;
        at = next;
        Some(tok)
    })
}

fn backtrack(text: &str, pattern: &str, escape: Option<char>) -> bool {
    let (mut ti, mut pi) = (0usize, 0usize); // byte offsets
    let mut star: Option<(usize, usize)> = None; // (pattern after %, text at %)
    while let Some(tc) = text[ti..].chars().next() {
        match token(pattern, pi, escape) {
            Some((PatTok::Lit(c), next)) if c == tc => (ti, pi) = (ti + tc.len_utf8(), next),
            Some((PatTok::AnyOne, next)) => (ti, pi) = (ti + tc.len_utf8(), next),
            Some((PatTok::AnyRun, next)) => (star, pi) = (Some((next, ti)), next),
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
    while let Some((PatTok::AnyRun, next)) = token(pattern, pi, escape) {
        pi = next;
    }
    pi == pattern.len()
}

/// If the pattern has a non-empty literal prefix before any wildcard, return
/// it. The planner uses this to turn `col LIKE 'abc%'` into a B-tree range
/// scan.
pub fn literal_prefix(pattern: &str, escape: Option<char>) -> String {
    tokens(pattern, escape)
        .map_while(|tok| match tok {
            PatTok::Lit(c) => Some(c),
            _ => None,
        })
        .collect()
}

/// True when the pattern contains no wildcards at all (so LIKE degenerates to
/// equality against the unescaped literal).
pub fn is_exact(pattern: &str, escape: Option<char>) -> bool {
    tokens(pattern, escape).all(|t| matches!(t, PatTok::Lit(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

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
