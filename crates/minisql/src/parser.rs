//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! stmt      := select | insert | update | delete | create | drop | txn
//! select    := SELECT [DISTINCT] items [FROM table [joins]] [WHERE expr]
//!              [GROUP BY exprs] [HAVING expr] [ORDER BY keys]
//!              [LIMIT n [OFFSET m] | FETCH FIRST n ROWS ONLY]
//! expr      := or-expr with precedence  OR < AND < NOT < cmp < add < mul < unary
//! ```
//!
//! The parser is deliberately strict about structure but permissive about
//! keyword case, matching how DB2's dynamic SQL PREPARE behaved.

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
            return self.delete();
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

    /// Parse a (possibly compound) SELECT: branches joined by UNION /
    /// EXCEPT / INTERSECT. Per SQL-92, a trailing ORDER BY / LIMIT applies to
    /// the combined result; we therefore hoist them from the final branch and
    /// reject them on interior branches.
    fn select(&mut self) -> SqlResult<Select> {
        let mut root = self.simple_select()?;
        loop {
            let op = if self.eat_kw("UNION") {
                SetOp::Union {
                    all: self.eat_kw("ALL"),
                }
            } else if self.eat_kw("EXCEPT") {
                SetOp::Except {
                    all: self.eat_kw("ALL"),
                }
            } else if self.eat_kw("INTERSECT") {
                SetOp::Intersect {
                    all: self.eat_kw("ALL"),
                }
            } else {
                break;
            };
            if !root.order_by.is_empty() || root.limit.is_some() {
                return Err(SqlError::syntax(
                    "ORDER BY / LIMIT must follow the last branch of a set operation",
                ));
            }
            if let Some((_, prev)) = root.set_ops.last() {
                if !prev.order_by.is_empty() || prev.limit.is_some() {
                    return Err(SqlError::syntax(
                        "ORDER BY / LIMIT must follow the last branch of a set operation",
                    ));
                }
            }
            let branch = self.simple_select()?;
            root.set_ops.push((op, branch));
        }
        // Hoist the last branch's ORDER BY / LIMIT to the compound root.
        if let Some((_, last)) = root.set_ops.last_mut() {
            root.order_by = std::mem::take(&mut last.order_by);
            root.limit = last.limit.take();
            root.offset = last.offset.take();
        }
        Ok(root)
    }

    fn simple_select(&mut self) -> SqlResult<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let _ = self.eat_kw("ALL");
        let mut items = vec![self.select_item()?];
        while self.eat_sym(Sym::Comma) {
            items.push(self.select_item()?);
        }
        let mut from = None;
        let mut joins = Vec::new();
        let mut where_clause = None;
        if self.eat_kw("FROM") {
            from = Some(self.table_ref()?);
            loop {
                if self.eat_sym(Sym::Comma) {
                    // Comma join = cross join.
                    joins.push(Join {
                        table: self.table_ref()?,
                        on: None,
                        left_outer: false,
                    });
                } else if self.at_kw("JOIN")
                    || self.at_kw("INNER")
                    || self.at_kw("LEFT")
                    || self.at_kw("CROSS")
                {
                    let left_outer = self.eat_kw("LEFT");
                    if left_outer {
                        let _ = self.eat_kw("OUTER");
                    } else {
                        let _ = self.eat_kw("INNER") || self.eat_kw("CROSS");
                    }
                    self.expect_kw("JOIN")?;
                    let table = self.table_ref()?;
                    let on = if self.eat_kw("ON") {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    joins.push(Join {
                        table,
                        on,
                        left_outer,
                    });
                } else {
                    break;
                }
            }
        }
        if self.eat_kw("WHERE") {
            where_clause = Some(self.expr()?);
        }
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.eat_sym(Sym::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
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
        Ok(Select {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
            set_ops: Vec::new(),
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
        // table.* lookahead
        if let (Some(TokenKind::Ident(t)), Some(tk1), Some(tk2)) = (
            self.peek(),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            if tk1.kind == TokenKind::Sym(Sym::Dot) && tk2.kind == TokenKind::Sym(Sym::Star) {
                let t = t.clone();
                self.pos += 3;
                return Ok(SelectItem::QualifiedWildcard(t));
            }
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> SqlResult<TableRef> {
        let name = self.ident()?;
        let alias = self.optional_alias()?;
        Ok(TableRef { name, alias })
    }

    /// `[AS] alias` — an explicit AS, or an implicit non-reserved identifier.
    fn optional_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_kw("AS") || matches!(self.peek(), Some(TokenKind::Ident(w)) if !is_reserved(w))
        {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
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
            let select = self.select()?;
            return Ok(Statement::Insert {
                table,
                columns,
                values: Vec::new(),
                select: Some(Box::new(select)),
            });
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
            select: None,
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

    fn delete(&mut self) -> SqlResult<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
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
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            return Ok(Statement::DropIndex { name });
        }
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
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
            // NOT EXISTS folds into the Exists node for clarity.
            if self.at_kw("EXISTS") {
                let Expr::Exists { select, negated } = self.comparison()? else {
                    return Err(SqlError::syntax("expected EXISTS (SELECT ...)"));
                };
                return Ok(Expr::Exists {
                    select,
                    negated: !negated,
                });
            }
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
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            if self.at_kw("SELECT") {
                let select = self.select()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::InSelect {
                    expr: Box::new(lhs),
                    select: Box::new(select),
                    negated,
                });
            }
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
        if self.eat_kw("BETWEEN") {
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return Err(SqlError::syntax(
                "NOT must be followed by LIKE, IN or BETWEEN here",
            ));
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
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Sym(Sym::Plus)) => BinOp::Add,
                Some(TokenKind::Sym(Sym::Minus)) => BinOp::Sub,
                Some(TokenKind::Sym(Sym::Concat)) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Sym(Sym::Star)) => BinOp::Mul,
                Some(TokenKind::Sym(Sym::Slash)) => BinOp::Div,
                Some(TokenKind::Sym(Sym::Percent)) => BinOp::Mod,
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
            let inner = self.unary()?;
            // Fold negative literals immediately.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Double(d)) => Expr::Literal(Value::Double(-d)),
                other => Expr::Neg(Box::new(other)),
            });
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
                if self.at_kw("SELECT") {
                    let select = self.select()?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Subquery(Box::new(select)));
                }
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

    fn ident_expr(&mut self, word: String) -> SqlResult<Expr> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => return Ok(Expr::Literal(Value::Null)),
            "TRUE" => return Ok(Expr::Literal(Value::Int(1))),
            "FALSE" => return Ok(Expr::Literal(Value::Int(0))),
            "EXISTS" => {
                self.expect_sym(Sym::LParen)?;
                let select = self.select()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::Exists {
                    select: Box::new(select),
                    negated: false,
                });
            }
            "CASE" => return self.case_expr(),
            "DATE" => {
                // DATE 'YYYY-MM-DD' literal.
                if let Some(TokenKind::Str(text)) = self.peek().cloned() {
                    self.pos += 1;
                    let days = crate::date::parse_date(&text).ok_or_else(|| {
                        SqlError::syntax(format!("bad DATE literal '{text}' (want YYYY-MM-DD)"))
                    })?;
                    return Ok(Expr::Literal(Value::Date(days)));
                }
                // Bare DATE is just an identifier (a column named date).
            }
            "CAST" => {
                self.expect_sym(Sym::LParen)?;
                let inner = self.expr()?;
                self.expect_kw("AS")?;
                let ty_name = self.ident()?;
                let ty = type_from_name(&ty_name)?;
                // Optional length, as in CAST(x AS VARCHAR(20)).
                if self.eat_sym(Sym::LParen) {
                    self.usize_literal()?;
                    if self.eat_sym(Sym::Comma) {
                        self.usize_literal()?;
                    }
                    self.expect_sym(Sym::RParen)?;
                }
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::Cast {
                    expr: Box::new(inner),
                    ty,
                });
            }
            _ => {}
        }
        // Function or aggregate call?
        if matches!(self.peek(), Some(TokenKind::Sym(Sym::LParen))) {
            let agg = match upper.as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "AVG" => Some(AggFunc::Avg),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            };
            self.pos += 1; // consume '('
            let call = if let Some(func) = agg {
                if func == AggFunc::Count && self.eat_sym(Sym::Star) {
                    self.expect_sym(Sym::RParen)?;
                    Expr::Agg {
                        func,
                        arg: None,
                        distinct: false,
                    }
                } else {
                    let distinct = self.eat_kw("DISTINCT");
                    let arg = self.expr()?;
                    self.expect_sym(Sym::RParen)?;
                    Expr::Agg {
                        func,
                        arg: Some(Box::new(arg)),
                        distinct,
                    }
                }
            } else {
                let mut args = Vec::new();
                if !self.eat_sym(Sym::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat_sym(Sym::Comma) {
                            break;
                        }
                    }
                    self.expect_sym(Sym::RParen)?;
                }
                Expr::Func { name: upper, args }
            };
            if self.at_kw("OVER") {
                return self.window_expr(call);
            }
            return Ok(call);
        }
        self.column_or_qualified(word)
    }

    /// `call OVER ( [PARTITION BY exprs] [ORDER BY keys] )` — `call` is the
    /// already-parsed function expression preceding OVER.
    fn window_expr(&mut self, call: Expr) -> SqlResult<Expr> {
        self.expect_kw("OVER")?;
        let func = match call {
            Expr::Agg {
                func,
                arg,
                distinct: false,
            } => WindowFunc::Agg { func, arg },
            Expr::Agg { .. } => {
                return Err(SqlError::syntax(
                    "DISTINCT is not supported in window functions",
                ));
            }
            Expr::Func { ref name, ref args } if name == "ROW_NUMBER" || name == "RANK" => {
                if !args.is_empty() {
                    return Err(SqlError::syntax(format!("{name} takes no arguments")));
                }
                if name == "ROW_NUMBER" {
                    WindowFunc::RowNumber
                } else {
                    WindowFunc::Rank
                }
            }
            Expr::Func { name, .. } => {
                return Err(SqlError::syntax(format!("{name} is not a window function")));
            }
            other => {
                return Err(SqlError::syntax(format!(
                    "OVER must follow a function call, not {other:?}"
                )));
            }
        };
        self.expect_sym(Sym::LParen)?;
        let mut partition_by = Vec::new();
        if self.eat_kw("PARTITION") {
            self.expect_kw("BY")?;
            partition_by.push(self.expr()?);
            while self.eat_sym(Sym::Comma) {
                partition_by.push(self.expr()?);
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
        self.expect_sym(Sym::RParen)?;
        Ok(Expr::Window(Box::new(WindowExpr {
            func,
            partition_by,
            order_by,
        })))
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

/// Map a type name to a SqlType (CREATE TABLE and CAST).
fn type_from_name(name: &str) -> SqlResult<SqlType> {
    match name.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "SMALLINT" | "BIGINT" => Ok(SqlType::Integer),
        "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => Ok(SqlType::Double),
        "VARCHAR" | "CHAR" | "CHARACTER" | "TEXT" | "CLOB" => Ok(SqlType::Varchar),
        "DATE" => Ok(SqlType::Date),
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
        "PARTITION",
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
        assert_eq!(s.from.as_ref().unwrap().name, "urldb");
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

    #[test]
    fn in_between_isnull() {
        assert!(parse("SELECT 1 FROM t WHERE x IN (1,2,3)").is_ok());
        assert!(parse("SELECT 1 FROM t WHERE x NOT BETWEEN 1 AND 10").is_ok());
        assert!(parse("SELECT 1 FROM t WHERE x IS NOT NULL").is_ok());
    }

    #[test]
    fn select_distinct_group_having_order_limit() {
        let s = sel(
            "SELECT DISTINCT dept, COUNT(*) AS n FROM emp WHERE sal > 10 \
             GROUP BY dept HAVING COUNT(*) > 2 ORDER BY 2 DESC, dept ASC LIMIT 5 OFFSET 2",
        );
        assert!(s.distinct);
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].dir, SortDir::Desc);
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.offset, Some(2));
    }

    #[test]
    fn fetch_first_syntax() {
        let s = sel("SELECT 1 FROM t FETCH FIRST 7 ROWS ONLY");
        assert_eq!(s.limit, Some(7));
    }

    #[test]
    fn joins_inner_left_comma() {
        let s = sel("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id, d");
        // Note: comma join after explicit joins is unusual but accepted.
        assert_eq!(s.joins.len(), 3);
        assert!(s.joins[1].left_outer);
        assert!(s.joins[2].on.is_none());
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
        assert!(matches!(
            parse("DELETE FROM t WHERE id = 3").unwrap(),
            Statement::Delete { .. }
        ));
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
        let s = sel("SELECT a one, b AS two FROM t x");
        let SelectItem::Expr { alias, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("one"));
        assert_eq!(s.from.unwrap().alias.as_deref(), Some("x"));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT 2 + 3 * 4");
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let Expr::Binary { op: BinOp::Add, .. } = expr else {
            panic!("Add should be the root");
        };
    }

    #[test]
    fn count_star_and_count_distinct() {
        let s = sel("SELECT COUNT(*), COUNT(DISTINCT dept) FROM emp");
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr {
                expr: Expr::Agg { arg: None, .. },
                ..
            }
        ));
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr {
                expr: Expr::Agg { distinct: true, .. },
                ..
            }
        ));
    }

    #[test]
    fn qualified_wildcard() {
        let s = sel("SELECT u.* FROM urldb u");
        assert_eq!(s.items[0], SelectItem::QualifiedWildcard("u".into()));
    }
}
