//! Dump a database to a SQL script (and reload it with
//! [`Database::run_script`](crate::Database::run_script)).
//!
//! A running database writes itself out as ordinary SQL, so the dump also
//! round-trips through any other engine speaking the same subset. It is an
//! export, not the persistence story: durability is the write-ahead log's
//! job ([`crate::wal`], with recovery and checkpoints beside it), and the
//! `db2www` CGI binary builds a fresh database by running its
//! `DTW_DB_SCRIPT` through `run_script`.

use crate::db::{Database, ExecResult};
use crate::error::{SqlError, SqlResult};
use crate::index::Index;
use crate::schema::TableSchema;
use crate::types::Value;
use std::fmt::Write as _;

/// Render one value as a SQL literal.
pub(crate) fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => {
            let s = v.to_display_string();
            debug_assert!(d.is_finite(), "non-finite doubles cannot be dumped");
            s
        }
        Value::Text(t) => format!("'{}'", t.replace('\'', "''")),
        Value::Date(d) => format!("DATE '{}'", crate::date::format_date(*d)),
    }
}

/// The `CREATE TABLE` statement (no trailing semicolon) that recreates
/// `schema` — including PRIMARY KEY / NOT NULL / UNIQUE column constraints,
/// which in turn recreate the system unique indexes. Shared by the script
/// dump, the WAL's DDL redo records, and checkpoint serialization.
pub(crate) fn create_table_sql(name: &str, schema: &TableSchema) -> String {
    let cols: Vec<String> = schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut def = format!("{} {}", c.name, c.ty);
            if schema.primary_key == Some(i) {
                def.push_str(" PRIMARY KEY");
            } else {
                if c.not_null {
                    def.push_str(" NOT NULL");
                }
                if c.unique {
                    def.push_str(" UNIQUE");
                }
            }
            def
        })
        .collect();
    format!("CREATE TABLE {name} ({})", cols.join(", "))
}

/// The `CREATE [UNIQUE] INDEX` statement (no trailing semicolon) that
/// recreates `idx` over the column named `column_name`.
pub(crate) fn create_index_sql(idx: &Index, column_name: &str) -> String {
    format!(
        "CREATE {}INDEX {} ON {} ({column_name})",
        if idx.unique { "UNIQUE " } else { "" },
        idx.name,
        idx.table
    )
}

/// Whether `idx` is a system index implied by a column constraint — such
/// indexes are recreated by [`create_table_sql`] and must not be emitted as
/// separate `CREATE INDEX` statements.
pub(crate) fn implied_by_constraint(idx: &Index, schema: &TableSchema) -> bool {
    idx.unique && schema.columns.get(idx.column).is_some_and(|c| c.unique)
}

/// Produce a script that recreates every table (schema, constraints,
/// indexes, data). Tables come out in name order; rows in heap order.
pub fn dump_script(db: &Database) -> SqlResult<String> {
    let snapshot = db.snapshot();
    let mut out = String::new();
    let mut names: Vec<&String> = snapshot.tables.keys().collect();
    names.sort();
    for name in names {
        let table = &snapshot.tables[name];
        writeln!(out, "{};", create_table_sql(name, &table.schema))
            .map_err(|_| SqlError::syntax("dump formatting failed"))?;
        // Secondary indexes (system unique indexes were recreated by the
        // column constraints above).
        let mut index_names = table.index_names.clone();
        index_names.sort();
        for idx_name in &index_names {
            if let Some(idx) = snapshot.indexes.get(idx_name) {
                if !implied_by_constraint(idx, &table.schema) {
                    let column = &table.schema.columns[idx.column].name;
                    writeln!(out, "{};", create_index_sql(idx, column))
                        .map_err(|_| SqlError::syntax("dump formatting failed"))?;
                }
            }
        }
        // Data, batched for readability.
        for (_, row) in table.heap.iter() {
            let values: Vec<String> = row.iter().map(literal).collect();
            writeln!(out, "INSERT INTO {name} VALUES ({});", values.join(", "))
                .map_err(|_| SqlError::syntax("dump formatting failed"))?;
        }
    }
    Ok(out)
}

/// Load a dump into a fresh database.
pub fn load_dump(script: &str) -> SqlResult<Database> {
    let db = Database::new();
    db.run_script(script)?;
    Ok(db)
}

/// Structural equality of two databases: same tables, same schemas, same
/// row multisets (order-independent). Used by round-trip tests.
pub fn databases_equal(a: &Database, b: &Database) -> SqlResult<bool> {
    let sa = a.snapshot();
    let sb = b.snapshot();
    if sa.tables.len() != sb.tables.len() {
        return Ok(false);
    }
    for (name, ta) in &sa.tables {
        let Some(tb) = sb.tables.get(name) else {
            return Ok(false);
        };
        if ta.schema != tb.schema {
            return Ok(false);
        }
        let mut conn_a = a.connect();
        let mut conn_b = b.connect();
        let q = format!("SELECT * FROM {name}");
        let (ExecResult::Rows(ra), ExecResult::Rows(rb)) =
            (conn_a.execute(&q)?, conn_b.execute(&q)?)
        else {
            return Ok(false);
        };
        let mut rows_a = ra.rows.clone();
        let mut rows_b = rb.rows.clone();
        let key = |r: &Vec<Value>| {
            r.iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join("\u{1}")
        };
        rows_a.sort_by_key(key);
        rows_b.sort_by_key(key);
        if rows_a != rows_b {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let db = Database::new();
        db.run_script(
            "CREATE TABLE urldb (url VARCHAR(255) PRIMARY KEY,
                                 title VARCHAR(80) NOT NULL,
                                 score DOUBLE, visits INTEGER UNIQUE);
             CREATE INDEX urldb_title ON urldb (title);
             INSERT INTO urldb VALUES
                ('http://a', 'Quote '' here', 1.5, 10),
                ('http://b', 'Plain', NULL, NULL);",
        )
        .unwrap();
        db
    }

    #[test]
    fn dump_round_trips() {
        let original = sample();
        let script = dump_script(&original).unwrap();
        let restored = load_dump(&script).unwrap();
        assert!(databases_equal(&original, &restored).unwrap());
        // Constraints survive: duplicate PK rejected in the restored copy.
        let mut conn = restored.connect();
        assert!(conn
            .execute("INSERT INTO urldb VALUES ('http://a', 'dup', 0.0, 3)")
            .is_err());
        // Secondary index survives and is used.
        let mut c2 = restored.connect();
        let plan = c2
            .execute("EXPLAIN SELECT * FROM urldb WHERE title = 'Plain'")
            .unwrap();
        let text = format!("{:?}", plan.rows().unwrap().rows);
        assert!(text.contains("urldb_title"), "{text}");
    }

    #[test]
    fn dump_is_plain_sql() {
        let script = dump_script(&sample()).unwrap();
        assert!(script.contains("CREATE TABLE urldb"));
        assert!(script.contains("PRIMARY KEY"));
        assert!(script.contains("NOT NULL"));
        assert!(script.contains("UNIQUE"));
        assert!(script.contains("CREATE INDEX urldb_title ON urldb (title);"));
        assert!(script.contains("'Quote '' here'"));
        assert!(script.contains("NULL, NULL"));
    }

    #[test]
    fn equality_detects_differences() {
        let a = sample();
        let b = sample();
        assert!(databases_equal(&a, &b).unwrap());
        let mut conn = b.connect();
        conn.execute("UPDATE urldb SET title = 'Changed' WHERE url = 'http://b'")
            .unwrap();
        assert!(!databases_equal(&a, &b).unwrap());
    }

    #[test]
    fn empty_database_dumps_empty() {
        assert_eq!(dump_script(&Database::new()).unwrap(), "");
    }
}
