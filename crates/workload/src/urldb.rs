//! The URL-directory dataset of the paper's running example.
//!
//! Appendix A queries a table `urldb(url, title, description)`. This module
//! generates one of any size, loads it into a [`minisql::Database`], and
//! manufactures search strings with a known hit fraction so benchmarks can
//! sweep selectivity.

use crate::text;
use minisql::{Database, Value};

/// A generated URL directory.
#[derive(Debug, Clone)]
pub struct UrlDirectory {
    /// `(url, title, description)` rows; descriptions may be `None` (NULL).
    pub rows: Vec<(String, String, Option<String>)>,
}

impl UrlDirectory {
    /// Generate `n` rows with the given seed.
    pub fn generate(n: usize, seed: u64) -> UrlDirectory {
        let mut rng = crate::seed::rng(seed);
        let mut rows = Vec::with_capacity(n);
        for serial in 0..n {
            let url = text::url(&mut rng, serial);
            let title_words = rng.gen_range(1usize..=4);
            let title = text::title(&mut rng, title_words);
            let description = if rng.gen_bool(0.85) {
                let sentence_words = rng.gen_range(3usize..=10);
                Some(text::sentence(&mut rng, sentence_words))
            } else {
                None
            };
            rows.push((url, title, description));
        }
        UrlDirectory { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Create the `urldb` table in `db` and load every row, with an index on
    /// `title` (the column the example app sorts and searches by).
    pub fn load(&self, db: &Database) -> minisql::SqlResult<()> {
        db.run_script(
            "CREATE TABLE urldb (url VARCHAR(255) NOT NULL,
                                 title VARCHAR(120),
                                 description VARCHAR(400));
             CREATE INDEX urldb_title ON urldb (title);",
        )?;
        let mut conn = db.connect();
        conn.execute("BEGIN")?;
        for (url, title, description) in &self.rows {
            conn.execute_with_params(
                "INSERT INTO urldb VALUES (?, ?, ?)",
                &[
                    Value::Text(url.clone()),
                    Value::Text(title.clone()),
                    description
                        .as_ref()
                        .map(|d| Value::Text(d.clone()))
                        .unwrap_or(Value::Null),
                ],
            )?;
        }
        conn.execute("COMMIT")?;
        Ok(())
    }

    /// A fresh database pre-loaded with this directory.
    pub fn into_database(&self) -> Database {
        let db = Database::new();
        self.load(&db).expect("loading a generated directory");
        db
    }

    /// A search string whose `title LIKE '%s%'` hit fraction is roughly
    /// `fraction` of the table: the empty string matches everything, an
    /// existing title substring matches some, a nonsense token matches none.
    pub fn search_string(&self, fraction: f64, seed: u64) -> String {
        if fraction >= 1.0 || self.rows.is_empty() {
            return String::new();
        }
        if fraction <= 0.0 {
            return "zzqqxx".to_owned();
        }
        // Pick substrings from real titles until one lands near the target.
        let mut rng = crate::seed::rng(seed);
        let mut best = (f64::INFINITY, String::new());
        for _ in 0..64 {
            let (_, title, _) = &self.rows[rng.gen_range(0..self.rows.len())];
            let words: Vec<&str> = title.split(' ').collect();
            let candidate = words[rng.gen_range(0..words.len())].to_lowercase();
            let probe: String = candidate.chars().take(3).collect();
            if probe.is_empty() {
                continue;
            }
            let hits = self
                .rows
                .iter()
                .filter(|(_, t, _)| t.to_lowercase().contains(&probe))
                .count();
            let got = hits as f64 / self.rows.len() as f64;
            let err = (got - fraction).abs();
            if err < best.0 {
                best = (err, probe);
            }
        }
        best.1
    }
}

/// The `urldb` of a `scan_report`-shaped load: its schema (no index), the
/// literal `INSERT … VALUES` batches that load it the way a `DTW_DB_SCRIPT`
/// does, and distinct three-letter search strings for the Appendix A query.
#[derive(Debug, Clone)]
pub struct ScanFixture {
    /// One `INSERT INTO urldb VALUES …` statement per batch of rows.
    pub inserts: Vec<String>,
    /// Distinct three-letter substrings of the vocabulary, in random order.
    pub searches: Vec<String>,
    /// Bytes of text (url, title and description) over every row.
    pub text_bytes: usize,
}

impl ScanFixture {
    /// The table the fixture loads.
    pub const SCHEMA: &'static str = "CREATE TABLE urldb (url VARCHAR(255) NOT NULL, \
         title VARCHAR(120), description VARCHAR(400))";

    /// `rows` rows in batches of `batch`, and `searches` search strings.
    /// The text is drawn from a vocabulary of 600 made-up words of two to
    /// four syllables: a ~40-byte url per row, a title of 2–4 words, and on
    /// 85% of rows a description of 5–12 words — about 114 bytes a row.
    pub fn generate(rows: usize, batch: usize, searches: usize, seed: u64) -> ScanFixture {
        const ONSETS: [&str; 12] = ["b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "st"];
        const VOWELS: [&str; 5] = ["a", "e", "i", "o", "u"];
        let mut rng = crate::seed::rng(seed);
        let vocab: Vec<String> = (0..600)
            .map(|_| {
                let syllables = rng.gen_range(2..=4usize);
                (0..syllables)
                    .map(|_| format!("{}{}", rng.choose(&ONSETS), rng.choose(&VOWELS)))
                    .collect()
            })
            .collect();
        let phrase = |rng: &mut dbgw_testkit::rng::Rng, words: usize| {
            let words: Vec<&str> = (0..words).map(|_| rng.choose(&vocab).as_str()).collect();
            words.join(" ")
        };
        let mut text_bytes = 0;
        let values: Vec<String> = (0..rows)
            .map(|serial| {
                let (host, page) = (phrase(&mut rng, 1), phrase(&mut rng, 1));
                let url = format!("http://www.{host}{serial}.example/{page}.html");
                let title_words = rng.gen_range(2..=4usize);
                let title = phrase(&mut rng, title_words);
                text_bytes += url.len() + title.len();
                if rng.gen_bool(0.85) {
                    let words = rng.gen_range(5..=12usize);
                    let description = phrase(&mut rng, words);
                    text_bytes += description.len();
                    format!("('{url}', '{title}', '{description}')")
                } else {
                    format!("('{url}', '{title}', NULL)")
                }
            })
            .collect();
        let inserts = (values.chunks(batch.max(1)))
            .map(|chunk| format!("INSERT INTO urldb VALUES {}", chunk.join(", ")))
            .collect();
        let mut trigrams: Vec<String> = (vocab.iter())
            .flat_map(|w| (0..w.len() - 2).map(move |i| w[i..i + 3].to_owned()))
            .collect();
        trigrams.sort();
        trigrams.dedup();
        for i in (1..trigrams.len()).rev() {
            trigrams.swap(i, rng.gen_range(0..i + 1));
        }
        trigrams.truncate(searches);
        assert_eq!(trigrams.len(), searches, "vocabulary too small");
        ScanFixture {
            inserts,
            searches: trigrams,
            text_bytes,
        }
    }

    /// The paper's Appendix A search for `s` over title and description,
    /// as the example application sends it.
    pub fn search_sql(s: &str) -> String {
        format!(
            "SELECT url, title FROM urldb WHERE urldb.title LIKE '%{s}%' OR \
             urldb.description LIKE '%{s}%' ORDER BY title"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_fixture_has_its_shape() {
        let f = ScanFixture::generate(1_000, 500, 50, 3);
        assert_eq!(f.inserts.len(), 2);
        assert_eq!(f.searches.len(), 50);
        let per_row = f.text_bytes / 1_000;
        assert!(
            (95..=135).contains(&per_row),
            "{per_row} bytes of text a row"
        );
        let db = Database::new();
        db.run_script(ScanFixture::SCHEMA).unwrap();
        for sql in &f.inserts {
            db.run_script(sql).unwrap();
        }
        assert_eq!(db.table_len("urldb").unwrap(), 1_000);
        db.run_script(&ScanFixture::search_sql(&f.searches[0]))
            .unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = UrlDirectory::generate(50, 9);
        let b = UrlDirectory::generate(50, 9);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn loads_into_database() {
        let dir = UrlDirectory::generate(100, 1);
        let db = dir.into_database();
        assert_eq!(db.table_len("urldb").unwrap(), 100);
        let mut conn = db.connect();
        let r = conn
            .execute("SELECT COUNT(*) FROM urldb WHERE description IS NULL")
            .unwrap();
        let minisql::ExecResult::Rows(rs) = r else {
            panic!()
        };
        // ~15% of rows have NULL descriptions.
        let nulls = match rs.rows[0][0] {
            Value::Int(n) => n,
            _ => panic!(),
        };
        assert!(nulls > 0 && nulls < 50, "nulls = {nulls}");
    }

    #[test]
    fn search_string_fractions() {
        let dir = UrlDirectory::generate(500, 2);
        assert_eq!(dir.search_string(1.0, 0), "");
        let none = dir.search_string(0.0, 0);
        assert!(dir
            .rows
            .iter()
            .all(|(_, t, _)| !t.to_lowercase().contains(&none)));
        let mid = dir.search_string(0.2, 3);
        let hits = dir
            .rows
            .iter()
            .filter(|(_, t, _)| t.to_lowercase().contains(&mid))
            .count();
        assert!(hits > 0, "mid probe {mid:?} should hit something");
    }

    #[test]
    fn queryable_like_appendix_a() {
        let dir = UrlDirectory::generate(200, 4);
        let db = dir.into_database();
        let mut conn = db.connect();
        let r = conn
            .execute("SELECT url, title FROM urldb WHERE urldb.title LIKE '%ib%' ORDER BY title")
            .unwrap();
        let minisql::ExecResult::Rows(rs) = r else {
            panic!()
        };
        // The vocabulary guarantees 'ib' appears (ibm, library, fibre).
        assert!(!rs.rows.is_empty());
    }
}
