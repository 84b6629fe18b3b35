//! Table schemas and the catalog.

use crate::ast::ColumnDef;
use crate::error::{SqlCode, SqlError, SqlResult};
use crate::types::{SqlType, Value};

/// A column in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (matching is case-insensitive, spelling preserved).
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// Participates in a unique index (PRIMARY KEY or UNIQUE).
    pub unique: bool,
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Index of the PRIMARY KEY column, if declared.
    pub primary_key: Option<usize>,
}

impl TableSchema {
    /// Build a schema from parsed column definitions.
    pub fn from_defs(name: &str, defs: &[ColumnDef]) -> SqlResult<TableSchema> {
        if defs.is_empty() {
            return Err(SqlError::syntax("a table needs at least one column"));
        }
        // A stored record counts its cells in a u16.
        if defs.len() > usize::from(u16::MAX) {
            return Err(SqlError::syntax("a table has at most 65 535 columns"));
        }
        let mut primary_key = None;
        let mut columns = Vec::with_capacity(defs.len());
        for (i, def) in defs.iter().enumerate() {
            if columns
                .iter()
                .any(|c: &Column| c.name.eq_ignore_ascii_case(&def.name))
            {
                return Err(SqlError::syntax(format!(
                    "duplicate column name {}",
                    def.name
                )));
            }
            if def.primary_key {
                if primary_key.is_some() {
                    return Err(SqlError::syntax("multiple PRIMARY KEY columns"));
                }
                primary_key = Some(i);
            }
            columns.push(Column {
                name: def.name.clone(),
                ty: def.ty,
                not_null: def.not_null,
                unique: def.primary_key || def.unique,
            });
        }
        Ok(TableSchema {
            name: name.to_owned(),
            columns,
            primary_key,
        })
    }

    /// Find a column's ordinal by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Like [`column_index`](Self::column_index) but erroring with -206.
    pub fn require_column(&self, name: &str) -> SqlResult<usize> {
        self.column_index(name)
            .ok_or_else(|| SqlError::no_such_column(name))
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Validate and coerce a full row for storage: arity, typing, NOT NULL.
    pub fn check_row(&self, row: Vec<Value>) -> SqlResult<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(SqlError::syntax(format!(
                "table {} has {} columns but {} values were supplied",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        (row.into_iter().enumerate())
            .map(|(ordinal, value)| self.check_value(ordinal, value))
            .collect()
    }

    /// Coerce `value` to the type of column `ordinal`, enforcing NOT NULL.
    pub fn check_value(&self, ordinal: usize, value: Value) -> SqlResult<Value> {
        let col = &self.columns[ordinal];
        let value = value.coerce_to(col.ty)?;
        if value.is_null() && col.not_null {
            return Err(SqlError::new(
                SqlCode::NOT_NULL_VIOLATION,
                format!("column {} does not allow NULL", col.name),
            ));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs() -> Vec<ColumnDef> {
        vec![
            ColumnDef {
                name: "id".into(),
                ty: SqlType::Integer,
                not_null: true,
                primary_key: true,
                unique: false,
            },
            ColumnDef {
                name: "name".into(),
                ty: SqlType::Varchar,
                not_null: false,
                primary_key: false,
                unique: false,
            },
        ]
    }

    #[test]
    fn builds_schema_with_pk() {
        let s = TableSchema::from_defs("t", &defs()).unwrap();
        assert_eq!(s.primary_key, Some(0));
        assert!(s.columns[0].unique);
        assert_eq!(s.column_index("NAME"), Some(1));
    }

    #[test]
    fn rejects_duplicate_columns() {
        let mut d = defs();
        d[1].name = "ID".into();
        assert!(TableSchema::from_defs("t", &d).is_err());
    }

    #[test]
    fn rejects_two_primary_keys() {
        let mut d = defs();
        d[1].primary_key = true;
        assert!(TableSchema::from_defs("t", &d).is_err());
    }

    #[test]
    fn check_row_coerces_and_validates() {
        let s = TableSchema::from_defs("t", &defs()).unwrap();
        let row = s
            .check_row(vec![Value::Double(3.0), Value::Text("x".into())])
            .unwrap();
        assert_eq!(row[0], Value::Int(3));
        // NULL into NOT NULL pk:
        let err = s.check_row(vec![Value::Null, Value::Null]).unwrap_err();
        assert_eq!(err.code, SqlCode::NOT_NULL_VIOLATION);
        // Wrong arity:
        assert!(s.check_row(vec![Value::Int(1)]).is_err());
    }
}
