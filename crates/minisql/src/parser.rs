//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! stmt      := select | insert | update | create | drop-index | txn
//! insert    := INSERT INTO table [(columns)] VALUES tuples
//! select    := SELECT items [FROM table] [WHERE expr] [ORDER BY keys]
//!              [LIMIT n [OFFSET m] | FETCH FIRST n ROWS ONLY]
//! items     := * | expr, ...        (COUNT(*) and SUM(expr) fold the rows)
//! expr      := or-expr with precedence  OR < AND < NOT < cmp < +/- < sign
//! ```
//!
//! The parser is deliberately strict about structure but permissive about
//! keyword case, matching how DB2's dynamic SQL PREPARE behaved. It accepts
//! the SQL the gateway's macros send and little more. Every other form it
//! knows is refused here with SQLCODE −104 and a message naming the form,
//! so a database without the tables answers alike: DELETE, DROP TABLE and
//! INSERT ... SELECT (rows and tables are never removed); joins of every
//! spelling (a SELECT reads one table or none); subqueries, scalar and
//! window functions; GROUP BY, HAVING, DISTINCT, UNION, EXCEPT and
//! INTERSECT; aggregates other than `COUNT(*)` and `SUM`; column and table
//! aliases and `t.*`; BETWEEN, CAST, the `*`, `/`, `%` and `||` operators,
//! a minus sign on anything but a number, and the DATE type.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::token::{tokenize, Sym, Token, TokenKind};
use crate::types::{SqlType, Value};

/// Parse a single SQL statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> SqlResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_sym(Sym::Semi);
    if !p.at_end() {
        return Err(SqlError::syntax(format!(
            "unexpected trailing input at byte {}",
            p.peek_offset()
        )));
    }
    Ok(stmt)
}

/// Parse a script of `;`-separated statements.
pub fn parse_script(sql: &str) -> SqlResult<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.statement()?);
        if !p.eat_sym(Sym::Semi) {
            break;
        }
    }
    if !p.at_end() {
        return Err(SqlError::syntax(format!(
            "unexpected trailing input at byte {}",
            p.peek_offset()
        )));
    }
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_offset(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.offset).unwrap_or(0)
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t.map(|t| t.kind)
    }

    /// Does the current token equal the keyword `kw` (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::syntax(format!(
                "expected {kw} at byte {}",
                self.peek_offset()
            )))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(TokenKind::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> SqlResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(SqlError::syntax(format!(
                "expected {sym} at byte {}",
                self.peek_offset()
            )))
        }
    }

    /// Consume an identifier (plain or quoted); keywords are accepted as
    /// names only when quoted.
    fn ident(&mut self) -> SqlResult<String> {
        match self.advance() {
            Some(TokenKind::Ident(w)) => Ok(w),
            Some(TokenKind::QuotedIdent(w)) => Ok(w),
            other => Err(SqlError::syntax(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> SqlResult<Statement> {
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            let inner = self.statement()?;
            return Ok(Statement::Explain {
                analyze,
                inner: Box::new(inner),
            });
        }
        if self.at_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            // Rows are never removed: the heap is append-only.
            return Err(SqlError::syntax("DELETE is not supported"));
        }
        if self.eat_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("DROP") {
            return self.drop();
        }
        if self.eat_kw("BEGIN") {
            // Optional WORK / TRANSACTION noise word.
            let _ = self.eat_kw("WORK") || self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            let _ = self.eat_kw("WORK");
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            let _ = self.eat_kw("WORK");
            return Ok(Statement::Rollback);
        }
        Err(SqlError::syntax(format!(
            "expected a statement at byte {}",
            self.peek_offset()
        )))
    }

    fn select(&mut self) -> SqlResult<Select> {
        self.expect_kw("SELECT")?;
        if self.at_kw("DISTINCT") {
            return Err(SqlError::syntax("DISTINCT is not supported"));
        }
        let _ = self.eat_kw("ALL");
        let mut items = vec![self.select_item()?];
        while self.eat_sym(Sym::Comma) {
            items.push(self.select_item()?);
        }
        let mut from = None;
        let mut where_clause = None;
        if self.eat_kw("FROM") {
            from = Some(self.ident()?);
            let aliased = self.alias_follows();
            if aliased {
                let _ = self.eat_kw("AS");
                self.ident()?;
            }
            // One table per statement: every join spelling stops here.
            if self.at_kw("LEFT") {
                return Err(SqlError::syntax("outer joins are not supported"));
            }
            if self.eat_sym(Sym::Comma) || ["JOIN", "INNER", "CROSS"].iter().any(|k| self.at_kw(k))
            {
                return Err(SqlError::syntax("joins are not supported"));
            }
            if aliased {
                return Err(SqlError::syntax("table aliases are not supported"));
            }
        }
        if self.eat_kw("WHERE") {
            where_clause = Some(self.expr()?);
        }
        for clause in ["GROUP", "HAVING"] {
            if self.at_kw(clause) {
                let name = if clause == "GROUP" {
                    "GROUP BY"
                } else {
                    clause
                };
                return Err(SqlError::syntax(format!("{name} is not supported")));
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let dir = if self.eat_kw("DESC") {
                    SortDir::Desc
                } else {
                    let _ = self.eat_kw("ASC");
                    SortDir::Asc
                };
                order_by.push(OrderKey { expr, dir });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.usize_literal()?);
            if self.eat_kw("OFFSET") {
                offset = Some(self.usize_literal()?);
            }
        } else if self.eat_kw("FETCH") {
            // DB2 syntax: FETCH FIRST n ROWS ONLY
            self.expect_kw("FIRST")?;
            limit = Some(self.usize_literal()?);
            let _ = self.eat_kw("ROWS") || self.eat_kw("ROW");
            self.expect_kw("ONLY")?;
        }
        for op in ["UNION", "EXCEPT", "INTERSECT"] {
            if self.eat_kw(op) {
                let all = if self.at_kw("ALL") { " ALL" } else { "" };
                return Err(SqlError::syntax(format!("{op}{all} is not supported")));
            }
        }
        Ok(Select {
            items,
            from,
            where_clause,
            order_by,
            limit,
            offset,
        })
    }

    fn usize_literal(&mut self) -> SqlResult<usize> {
        match self.advance() {
            Some(TokenKind::Int(n)) if n >= 0 => Ok(n as usize),
            other => Err(SqlError::syntax(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let star_at = |ahead: usize| {
            (self.tokens.get(self.pos + ahead)).is_some_and(|t| t.kind == TokenKind::Sym(Sym::Star))
        };
        if matches!(
            self.peek(),
            Some(TokenKind::Ident(_) | TokenKind::QuotedIdent(_))
        ) && (self.tokens.get(self.pos + 1)).is_some_and(|t| t.kind == TokenKind::Sym(Sym::Dot))
            && star_at(2)
        {
            return Err(SqlError::syntax("table.* is not supported"));
        }
        let expr = self.expr()?;
        if self.alias_follows() {
            return Err(SqlError::syntax("column aliases are not supported"));
        }
        Ok(SelectItem::Expr(expr))
    }

    /// Does an alias follow: an explicit AS, or an implicit non-reserved
    /// identifier?
    fn alias_follows(&self) -> bool {
        self.at_kw("AS") || matches!(self.peek(), Some(TokenKind::Ident(w)) if !is_reserved(w))
    }

    fn insert(&mut self) -> SqlResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_sym(Sym::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
        }
        if self.at_kw("SELECT") {
            return Err(SqlError::syntax("INSERT ... SELECT is not supported"));
        }
        self.expect_kw("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut tuple = Vec::new();
            if !self.eat_sym(Sym::RParen) {
                loop {
                    tuple.push(self.expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
            }
            values.push(tuple);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn update(&mut self) -> SqlResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym(Sym::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn create(&mut self) -> SqlResult<Statement> {
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_sym(Sym::LParen)?;
            let column = self.ident()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            });
        }
        if unique {
            return Err(SqlError::syntax("UNIQUE is only valid before INDEX"));
        }
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.column_def()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn column_def(&mut self) -> SqlResult<ColumnDef> {
        let name = self.ident()?;
        let ty_name = self.ident()?;
        let ty = type_from_name(&ty_name)?;
        // Optional length/precision: VARCHAR(80), DECIMAL(10,2).
        if self.eat_sym(Sym::LParen) {
            self.usize_literal()?;
            if self.eat_sym(Sym::Comma) {
                self.usize_literal()?;
            }
            self.expect_sym(Sym::RParen)?;
        }
        let mut def = ColumnDef {
            name,
            ty,
            not_null: false,
            primary_key: false,
            unique: false,
        };
        loop {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                def.not_null = true;
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                def.primary_key = true;
                def.not_null = true;
            } else if self.eat_kw("UNIQUE") {
                def.unique = true;
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn drop(&mut self) -> SqlResult<Statement> {
        if self.at_kw("TABLE") {
            // Tables are never dropped, as rows are never removed.
            return Err(SqlError::syntax("DROP TABLE is not supported"));
        }
        self.expect_kw("INDEX")?;
        let name = self.ident()?;
        Ok(Statement::DropIndex { name })
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> SqlResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> SqlResult<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> SqlResult<Expr> {
        let lhs = self.additive()?;
        // Postfix predicates: IS NULL, LIKE, IN, BETWEEN, with optional NOT.
        let negated = self.eat_kw("NOT");
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            let escape = if self.eat_kw("ESCAPE") {
                match self.advance() {
                    Some(TokenKind::Str(s)) if s.chars().count() == 1 => s.chars().next(),
                    other => {
                        return Err(SqlError::syntax(format!(
                            "ESCAPE requires a single-character string, found {other:?}"
                        )))
                    }
                }
            } else {
                None
            };
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                escape,
                negated,
                prepared: Default::default(),
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            self.refuse_subquery()?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.at_kw("BETWEEN") {
            return Err(SqlError::syntax("BETWEEN is not supported"));
        }
        if negated {
            return Err(SqlError::syntax("NOT must be followed by LIKE or IN here"));
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let op = match self.peek() {
            Some(TokenKind::Sym(Sym::Eq)) => Some(BinOp::Eq),
            Some(TokenKind::Sym(Sym::Ne)) => Some(BinOp::Ne),
            Some(TokenKind::Sym(Sym::Lt)) => Some(BinOp::Lt),
            Some(TokenKind::Sym(Sym::Le)) => Some(BinOp::Le),
            Some(TokenKind::Sym(Sym::Gt)) => Some(BinOp::Gt),
            Some(TokenKind::Sym(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(Expr::binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Sym(Sym::Plus)) => BinOp::Add,
                Some(TokenKind::Sym(Sym::Minus)) => BinOp::Sub,
                Some(TokenKind::Sym(
                    sym @ (Sym::Star | Sym::Slash | Sym::Percent | Sym::Concat),
                )) => return Err(SqlError::syntax(format!("operator {sym} is not supported"))),
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> SqlResult<Expr> {
        if self.eat_sym(Sym::Minus) {
            // A number's sign folds into the literal; nothing else negates.
            return match self.unary()? {
                Expr::Literal(Value::Int(i)) => Ok(Expr::Literal(Value::Int(-i))),
                Expr::Literal(Value::Double(d)) => Ok(Expr::Literal(Value::Double(-d))),
                _ => Err(SqlError::syntax(
                    "unary minus on an expression is not supported",
                )),
            };
        }
        if self.eat_sym(Sym::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        match self.advance() {
            Some(TokenKind::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(TokenKind::Num(d)) => Ok(Expr::Literal(Value::Double(d))),
            Some(TokenKind::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(TokenKind::Param) => {
                self.params += 1;
                Ok(Expr::Param(self.params))
            }
            Some(TokenKind::Sym(Sym::LParen)) => {
                self.refuse_subquery()?;
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(TokenKind::Ident(word)) => self.ident_expr(word),
            Some(TokenKind::QuotedIdent(word)) => self.column_or_qualified(word),
            other => Err(SqlError::syntax(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    /// Refuse the subquery a `(` opens when SELECT follows it.
    fn refuse_subquery(&self) -> SqlResult<()> {
        if self.at_kw("SELECT") {
            return Err(SqlError::syntax("subqueries are not supported"));
        }
        Ok(())
    }

    fn ident_expr(&mut self, word: String) -> SqlResult<Expr> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => return Ok(Expr::Literal(Value::Null)),
            "TRUE" => return Ok(Expr::Literal(Value::Int(1))),
            "FALSE" => return Ok(Expr::Literal(Value::Int(0))),
            "EXISTS" => return Err(SqlError::syntax("subqueries are not supported")),
            "CASE" => return self.case_expr(),
            // A DATE literal; a bare `date` is a column name.
            "DATE" if matches!(self.peek(), Some(TokenKind::Str(_))) => {
                return Err(SqlError::syntax("DATE is not supported"))
            }
            "CAST" if matches!(self.peek(), Some(TokenKind::Sym(Sym::LParen))) => {
                return Err(SqlError::syntax("CAST is not supported"))
            }
            _ => {}
        }
        // Aggregate call? Any other name before `(` is a scalar function.
        if matches!(self.peek(), Some(TokenKind::Sym(Sym::LParen))) {
            let agg = match upper.as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "AVG" | "MIN" | "MAX" => {
                    let msg = format!("aggregate function {upper} is not supported");
                    return Err(SqlError::syntax(msg));
                }
                _ => None,
            };
            self.pos += 1; // consume '('
            let call = if let Some(func) = agg {
                if self.at_kw("DISTINCT") {
                    let msg = format!("{upper}(DISTINCT …) is not supported");
                    return Err(SqlError::syntax(msg));
                }
                let arg = if self.eat_sym(Sym::Star) && func == AggFunc::Count {
                    None
                } else if func == AggFunc::Count {
                    return Err(SqlError::syntax("COUNT(expression) is not supported"));
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect_sym(Sym::RParen)?;
                Some(Expr::Agg { func, arg })
            } else {
                // Skip the arguments: `f(…) OVER` reports the window.
                while !self.eat_sym(Sym::RParen) {
                    self.expr()?;
                    if !self.eat_sym(Sym::Comma) {
                        self.expect_sym(Sym::RParen)?;
                        break;
                    }
                }
                None
            };
            if self.at_kw("OVER") {
                return Err(SqlError::syntax("window functions are not supported"));
            }
            return call.ok_or_else(|| {
                SqlError::syntax(format!("scalar function {upper} is not supported"))
            });
        }
        self.column_or_qualified(word)
    }

    fn case_expr(&mut self) -> SqlResult<Expr> {
        // CASE was already consumed.
        let operand = if self.at_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut arms = Vec::new();
        while self.eat_kw("WHEN") {
            let when = self.expr()?;
            self.expect_kw("THEN")?;
            let then = self.expr()?;
            arms.push((when, then));
        }
        if arms.is_empty() {
            return Err(SqlError::syntax("CASE needs at least one WHEN arm"));
        }
        let otherwise = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            arms,
            otherwise,
        })
    }

    fn column_or_qualified(&mut self, first: String) -> SqlResult<Expr> {
        if self.eat_sym(Sym::Dot) {
            let column = self.ident()?;
            Ok(Expr::Column(ColumnRef {
                table: Some(first),
                column,
                slot: None,
            }))
        } else {
            Ok(Expr::Column(ColumnRef::bare(first)))
        }
    }
}

/// Map a column type name to a SqlType.
fn type_from_name(name: &str) -> SqlResult<SqlType> {
    match name.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "SMALLINT" | "BIGINT" => Ok(SqlType::Integer),
        "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => Ok(SqlType::Double),
        "VARCHAR" | "CHAR" | "CHARACTER" | "TEXT" | "CLOB" => Ok(SqlType::Varchar),
        "DATE" => Err(SqlError::syntax("DATE is not supported")),
        other => Err(SqlError::syntax(format!("unknown column type {other}"))),
    }
}

/// Words that cannot be implicit aliases in `SELECT expr alias` position.
fn is_reserved(w: &str) -> bool {
    const RESERVED: &[&str] = &[
        "FROM",
        "WHERE",
        "GROUP",
        "HAVING",
        "ORDER",
        "LIMIT",
        "OFFSET",
        "FETCH",
        "JOIN",
        "INNER",
        "LEFT",
        "CROSS",
        "ON",
        "AND",
        "OR",
        "NOT",
        "AS",
        "SET",
        "VALUES",
        "INTO",
        "BY",
        "ASC",
        "DESC",
        "UNION",
        "EXCEPT",
        "INTERSECT",
        "EXISTS",
        "EXPLAIN",
        "LIKE",
        "IN",
        "BETWEEN",
        "IS",
        "NULL",
        "SELECT",
        "DISTINCT",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "CAST",
        "OVER",
    ];
    RESERVED.iter().any(|r| w.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_appendix_a_query_shape() {
        // The query the Appendix A macro generates at run time.
        let s = sel("SELECT url, title, description FROM urldb \
             WHERE urldb.url LIKE '%ib%' OR urldb.title LIKE '%ib%' ORDER BY title");
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.from.as_deref(), Some("urldb"));
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 1);
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = sel("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let Some(Expr::Binary { op: BinOp::Or, .. }) = s.where_clause else {
            panic!("OR should be the root");
        };
    }

    #[test]
    fn not_like_and_escape() {
        let s = sel("SELECT 1 FROM t WHERE name NOT LIKE 'a!%%' ESCAPE '!'");
        let Some(Expr::Like {
            negated: true,
            escape: Some('!'),
            ..
        }) = s.where_clause
        else {
            panic!("expected NOT LIKE with escape");
        };
    }

    /// The −104 message `sql` is refused with.
    fn refusal(sql: &str) -> String {
        let err = parse(sql).unwrap_err();
        assert_eq!(err.code, crate::error::SqlCode::SYNTAX, "{sql}");
        err.message
    }

    #[test]
    fn in_between_isnull() {
        assert!(parse("SELECT 1 FROM t WHERE x IN (1,2,3)").is_ok());
        assert!(parse("SELECT 1 FROM t WHERE x IS NOT NULL").is_ok());
        for sql in [
            "SELECT 1 FROM t WHERE x BETWEEN 1 AND 10",
            "SELECT 1 FROM t WHERE x NOT BETWEEN 1 AND 10",
        ] {
            assert_eq!(refusal(sql), "BETWEEN is not supported");
        }
    }

    #[test]
    fn select_distinct_group_having_order_limit() {
        let s = sel("SELECT dept, COUNT(*) FROM emp WHERE sal > 10 \
             ORDER BY 2 DESC, dept ASC LIMIT 5 OFFSET 2");
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].dir, SortDir::Desc);
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.offset, Some(2));
        for (sql, message) in [
            ("SELECT DISTINCT dept FROM emp", "DISTINCT is not supported"),
            (
                "SELECT dept, COUNT(*) FROM emp GROUP BY dept",
                "GROUP BY is not supported",
            ),
            (
                "SELECT COUNT(*) FROM emp HAVING COUNT(*) > 2",
                "HAVING is not supported",
            ),
        ] {
            assert_eq!(refusal(sql), message, "{sql}");
        }
    }

    #[test]
    fn fetch_first_syntax() {
        let s = sel("SELECT 1 FROM t FETCH FIRST 7 ROWS ONLY");
        assert_eq!(s.limit, Some(7));
    }

    #[test]
    fn joins_inner_left_comma() {
        use crate::error::SqlCode;
        // A SELECT reads one table or none: every join spelling, and EXPLAIN
        // of one, is refused with −104 naming joins.
        for sql in [
            "SELECT * FROM a JOIN b ON a.id = b.id",
            "SELECT * FROM a x JOIN b y ON x.id = y.id",
            "SELECT * FROM a INNER JOIN b ON a.id = b.id",
            "SELECT * FROM a CROSS JOIN b",
            "SELECT * FROM a, b WHERE a.id = b.id",
            "SELECT * FROM a LEFT JOIN b ON a.id = b.id",
            "SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id",
            "EXPLAIN SELECT * FROM a JOIN b ON a.id = b.id",
            "EXPLAIN ANALYZE SELECT * FROM a, b",
        ] {
            let err = parse(sql).unwrap_err();
            assert_eq!(err.code, SqlCode::SYNTAX, "{sql}");
            assert!(
                err.message.contains("joins are not supported"),
                "{sql}: {}",
                err.message
            );
        }
        let err = parse("SELECT * FROM a LEFT JOIN b ON a.id = b.id").unwrap_err();
        assert_eq!(err.message, "outer joins are not supported");
    }

    #[test]
    fn insert_multi_row() {
        let st = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert {
            values, columns, ..
        } = st
        else {
            panic!()
        };
        assert_eq!(columns, vec!["a", "b"]);
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap(),
            Statement::Update { .. }
        ));
        let err = parse("DELETE FROM t WHERE id = 3").unwrap_err();
        assert_eq!(err.message, "DELETE is not supported");
    }

    #[test]
    fn create_table_constraints() {
        let st = parse(
            "CREATE TABLE urldb (url VARCHAR(255) PRIMARY KEY, \
             title VARCHAR(80) NOT NULL, hits INTEGER, score DOUBLE, d CHAR(3) UNIQUE)",
        )
        .unwrap();
        let Statement::CreateTable { columns, .. } = st else {
            panic!()
        };
        assert!(columns[0].primary_key && columns[0].not_null);
        assert!(columns[1].not_null && !columns[1].primary_key);
        assert_eq!(columns[2].ty, SqlType::Integer);
        assert_eq!(columns[3].ty, SqlType::Double);
        assert!(columns[4].unique);
    }

    #[test]
    fn create_drop_index() {
        assert!(matches!(
            parse("CREATE UNIQUE INDEX i ON t (c)").unwrap(),
            Statement::CreateIndex { unique: true, .. }
        ));
        assert!(matches!(
            parse("DROP INDEX i").unwrap(),
            Statement::DropIndex { .. }
        ));
    }

    #[test]
    fn txn_statements() {
        assert_eq!(parse("BEGIN WORK").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK WORK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn params_numbered_in_order() {
        let st = parse("SELECT 1 FROM t WHERE a = ? AND b = ?").unwrap();
        let Statement::Select(s) = st else { panic!() };
        let w = s.where_clause.unwrap();
        let Expr::Binary { lhs, rhs, .. } = w else {
            panic!()
        };
        let Expr::Binary { rhs: p1, .. } = *lhs else {
            panic!()
        };
        let Expr::Binary { rhs: p2, .. } = *rhs else {
            panic!()
        };
        assert_eq!(*p1, Expr::Param(1));
        assert_eq!(*p2, Expr::Param(2));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT 1 FROM t bogus extra tokens").is_err());
        assert!(parse("SELECT 1 FROM t; SELECT 2").is_err());
    }

    #[test]
    fn script_parses_multiple() {
        let stmts = parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn implicit_alias() {
        for (sql, message) in [
            ("SELECT a one FROM t", "column aliases are not supported"),
            ("SELECT b AS two FROM t", "column aliases are not supported"),
            ("SELECT a FROM t x", "table aliases are not supported"),
            (
                "SELECT a FROM t AS x WHERE a = 1",
                "table aliases are not supported",
            ),
        ] {
            assert_eq!(refusal(sql), message, "{sql}");
        }
    }

    #[test]
    fn arithmetic_precedence() {
        // `-` and `+` associate left and bind tighter than `=`.
        let s = sel("SELECT 2 + 3 - 4 = 1");
        let SelectItem::Expr(Expr::Binary {
            op: BinOp::Eq, lhs, ..
        }) = &s.items[0]
        else {
            panic!("= should be the root");
        };
        let Expr::Binary { op: BinOp::Sub, .. } = lhs.as_ref() else {
            panic!("- should be the root of the left side");
        };
        // A number's sign folds; no other expression takes one.
        assert_eq!(
            sel("SELECT -(5)").items[0],
            SelectItem::Expr(Expr::Literal(Value::Int(-5)))
        );
        for (sql, message) in [
            ("SELECT 2 * 3", "operator * is not supported"),
            ("SELECT 6 / 3", "operator / is not supported"),
            ("SELECT 7 % 3", "operator % is not supported"),
            ("SELECT 'a' || 'b'", "operator || is not supported"),
            (
                "SELECT -k FROM t",
                "unary minus on an expression is not supported",
            ),
            (
                "SELECT -(1 + 2)",
                "unary minus on an expression is not supported",
            ),
        ] {
            assert_eq!(refusal(sql), message, "{sql}");
        }
    }

    #[test]
    fn count_star_and_count_distinct() {
        let s = sel("SELECT COUNT(*), SUM(sal) FROM emp");
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr(Expr::Agg {
                func: AggFunc::Count,
                arg: None
            })
        ));
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr(Expr::Agg {
                func: AggFunc::Sum,
                arg: Some(_)
            })
        ));
        for (sql, message) in [
            (
                "SELECT COUNT(DISTINCT dept) FROM emp",
                "COUNT(DISTINCT …) is not supported",
            ),
            (
                "SELECT SUM(DISTINCT sal) FROM emp",
                "SUM(DISTINCT …) is not supported",
            ),
            (
                "SELECT COUNT(dept) FROM emp",
                "COUNT(expression) is not supported",
            ),
            (
                "SELECT AVG(sal) FROM emp",
                "aggregate function AVG is not supported",
            ),
        ] {
            assert_eq!(refusal(sql), message, "{sql}");
        }
    }

    #[test]
    fn qualified_wildcard() {
        assert_eq!(refusal("SELECT u.* FROM urldb"), "table.* is not supported");
    }
}
