//! Recursive-descent parser for the Starburst SQL subset.

use starmagic_common::{Error, Result, Value};

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parse a single statement (`CREATE VIEW` or a query). A trailing
/// semicolon is allowed.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.finish()?;
    Ok(stmt)
}

/// Parse a query (no DDL).
pub fn parse_query(sql: &str) -> Result<Query> {
    match parse_statement(sql)? {
        Statement::Query(q) => Ok(q),
        other => Err(Error::semantic(format!(
            "expected a query, found {}",
            match other {
                Statement::CreateView { .. } => "CREATE VIEW",
                Statement::CreateTable { .. } => "CREATE TABLE",
                Statement::Insert { .. } => "INSERT",
                Statement::Query(_) => unreachable!(),
            }
        ))),
    }
}

/// The deepest nesting of subqueries, parenthesised expressions and
/// prefix operators a statement may have. The parser and every later
/// stage walk the syntax tree recursively, so without a cap one
/// hostile statement could overflow a server session's stack. At this
/// depth the whole pipeline still fits a 2 MiB stack in a debug build.
pub const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Next auto-assigned parameter index for bare `?` markers.
    next_param: usize,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(sql)?,
            pos: 0,
            next_param: 0,
            depth: 0,
        })
    }

    /// Run `f` one nesting level deeper, or fail past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> Error {
        Error::Parse {
            message: msg.into(),
            offset: self.offset(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected keyword {}, found {}",
                kw.to_uppercase(),
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn finish(&mut self) -> Result<()> {
        while matches!(self.peek(), TokenKind::Semi) {
            self.bump();
        }
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    // ---- statements -------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.peek().is_kw("insert") {
            self.bump();
            self.expect_kw("into")?;
            let table = self.ident()?;
            self.expect_kw("values")?;
            let mut rows = Vec::new();
            loop {
                self.expect(&TokenKind::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.additive()?);
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                rows.push(row);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            return Ok(Statement::Insert { table, rows });
        }
        if self.peek().is_kw("create") && self.peek2().is_kw("table") {
            self.bump();
            self.bump();
            let name = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = Vec::new();
            let mut key = Vec::new();
            loop {
                if self.peek().is_kw("primary") {
                    self.bump();
                    self.expect_kw("key")?;
                    self.expect(&TokenKind::LParen)?;
                    loop {
                        key.push(self.ident()?);
                        if matches!(self.peek(), TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                } else {
                    let col = self.ident()?;
                    let ty = self.data_type()?;
                    columns.push((col, ty));
                }
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateTable { name, columns, key });
        }
        if self.peek().is_kw("create") {
            self.bump();
            let recursive = self.eat_kw("recursive");
            self.expect_kw("view")?;
            let name = self.ident()?;
            let mut columns = Vec::new();
            if matches!(self.peek(), TokenKind::LParen) {
                self.bump();
                loop {
                    columns.push(self.ident()?);
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
            }
            self.expect_kw("as")?;
            let query = self.query()?;
            Ok(Statement::CreateView {
                name,
                columns,
                query,
                recursive,
            })
        } else {
            Ok(Statement::Query(self.query()?))
        }
    }

    // ---- queries ----------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        self.nested(Parser::query_body)
    }

    fn query_body(&mut self) -> Result<Query> {
        let with = if self.peek().is_kw("with") {
            self.bump();
            let recursive = self.eat_kw("recursive");
            let mut ctes = vec![self.cte()?];
            while matches!(self.peek(), TokenKind::Comma) {
                self.bump();
                ctes.push(self.cte()?);
            }
            Some(With { recursive, ctes })
        } else {
            None
        };
        Ok(Query {
            with,
            body: self.set_expr()?,
        })
    }

    /// One common table expression: `name [(col, ...)] AS (query)`.
    fn cte(&mut self) -> Result<Cte> {
        let name = self.ident()?;
        let mut columns = Vec::new();
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            loop {
                columns.push(self.ident()?);
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_kw("as")?;
        self.expect(&TokenKind::LParen)?;
        let query = self.query()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Cte {
            name,
            columns,
            query,
        })
    }

    /// UNION/EXCEPT are left-associative and bind looser than INTERSECT.
    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.intersect_expr()?;
        loop {
            let op = if self.peek().is_kw("union") {
                SetOpKind::Union
            } else if self.peek().is_kw("except") {
                SetOpKind::Except
            } else {
                break;
            };
            self.bump();
            let all = self.eat_kw("all");
            let right = self.intersect_expr()?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn intersect_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.set_primary()?;
        while self.peek().is_kw("intersect") {
            self.bump();
            let all = self.eat_kw("all");
            let right = self.set_primary()?;
            left = SetExpr::SetOp {
                op: SetOpKind::Intersect,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn set_primary(&mut self) -> Result<SetExpr> {
        if matches!(self.peek(), TokenKind::LParen) {
            // Parenthesized set expression: ( SELECT ... UNION ... )
            self.bump();
            let inner = self.nested(Parser::set_expr)?;
            self.expect(&TokenKind::RParen)?;
            Ok(inner)
        } else {
            Ok(SetExpr::Select(Box::new(self.select_block()?)))
        }
    }

    fn select_block(&mut self) -> Result<SelectBlock> {
        self.expect_kw("select")?;
        let distinct = if self.eat_kw("distinct") {
            true
        } else {
            // ALL is the default and accepted explicitly.
            self.eat_kw("all");
            false
        };
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if matches!(self.peek(), TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            from.push(self.table_ref()?);
            if matches!(self.peek(), TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        // The paper writes GROUPBY as one word; accept both spellings.
        let mut group_by = Vec::new();
        let has_group = if self.eat_kw("groupby") {
            true
        } else if self.peek().is_kw("group") && self.peek2().is_kw("by") {
            self.bump();
            self.bump();
            true
        } else {
            false
        };
        if has_group {
            loop {
                group_by.push(self.expr()?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SelectBlock {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if matches!(self.peek(), TokenKind::Star) {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // alias.* form
        if let TokenKind::Ident(q) = self.peek() {
            if matches!(self.peek2(), TokenKind::Dot)
                && matches!(
                    self.tokens[(self.pos + 2).min(self.tokens.len() - 1)].kind,
                    TokenKind::Star
                )
            {
                let q = q.clone();
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        // `AS alias` and a bare implicit alias read the same way; the
        // two arms differ only in whether AS was consumed.
        let alias = if self.eat_kw("as")
            || matches!(self.peek(), TokenKind::Ident(s) if !is_clause_keyword(s))
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut item = self.primary_table_ref()?;
        while self.peek().is_kw("left") {
            self.bump();
            self.eat_kw("outer");
            self.expect_kw("join")?;
            let right = self.primary_table_ref()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            item = TableRef::LeftJoin {
                left: Box::new(item),
                right: Box::new(right),
                on,
            };
        }
        Ok(item)
    }

    fn primary_table_ref(&mut self) -> Result<TableRef> {
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            let query = self.query()?;
            self.expect(&TokenKind::RParen)?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(TableRef::Derived { query, alias });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("as")
            || matches!(self.peek(), TokenKind::Ident(s) if !is_clause_keyword(s))
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions ------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Parser::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.peek().is_kw("or") {
            self.bump();
            let right = self.and_expr()?;
            left = Expr::bin(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.peek().is_kw("and") {
            self.bump();
            let right = self.not_expr()?;
            left = Expr::bin(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.peek().is_kw("not") && !self.peek2().is_kw("exists") {
            self.bump();
            return Ok(Expr::Not(Box::new(self.nested(Parser::not_expr)?)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr> {
        if self.peek().is_kw("exists") || (self.peek().is_kw("not") && self.peek2().is_kw("exists"))
        {
            let negated = self.eat_kw("not");
            self.expect_kw("exists")?;
            self.expect(&TokenKind::LParen)?;
            let query = self.query()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Exists {
                query: Box::new(query),
                negated,
            });
        }

        let left = self.additive()?;

        // comparison, possibly quantified
        if let Some(op) = comparison_op(self.peek()) {
            self.bump();
            if self.peek().is_kw("any") || self.peek().is_kw("some") || self.peek().is_kw("all") {
                let quantifier = if self.eat_kw("all") {
                    Quantified::All
                } else {
                    self.bump(); // any/some
                    Quantified::Any
                };
                self.expect(&TokenKind::LParen)?;
                let query = self.query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::QuantifiedCmp {
                    expr: Box::new(left),
                    op,
                    quantifier,
                    query: Box::new(query),
                });
            }
            let right = self.additive()?;
            return Ok(Expr::bin(op, left, right));
        }

        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] BETWEEN / IN / LIKE
        let negated = if self.peek().is_kw("not")
            && (self.peek2().is_kw("between")
                || self.peek2().is_kw("in")
                || self.peek2().is_kw("like"))
        {
            self.bump();
            true
        } else {
            false
        };

        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }

        if self.eat_kw("like") {
            let pattern = match self.bump() {
                TokenKind::Str(s) => s,
                other => {
                    return Err(self.error(format!("LIKE needs a string pattern, found {other}")))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }

        if self.eat_kw("in") {
            self.expect(&TokenKind::LParen)?;
            if self.peek().is_kw("select") || self.peek().is_kw("with") {
                let query = self.query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.additive()?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }

        if negated {
            return Err(self.error("dangling NOT"));
        }

        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::bin(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::bin(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if matches!(self.peek(), TokenKind::Minus) {
            self.bump();
            return Ok(Expr::Neg(Box::new(self.nested(Parser::unary)?)));
        }
        if matches!(self.peek(), TokenKind::Plus) {
            self.bump();
            return self.nested(Parser::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Double(d) => {
                self.bump();
                Ok(Expr::Literal(Value::Double(d)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::str(s)))
            }
            TokenKind::Question => {
                let q_offset = self.offset();
                self.bump();
                // `?3` (digits adjacent to the marker) is an explicit
                // 1-based index; a bare `?` numbers itself left to
                // right. `? 3` stays a bare marker followed by a
                // literal, so a stray number is a parse error.
                if let TokenKind::Int(n) = *self.peek() {
                    if self.offset() == q_offset + 1 {
                        self.bump();
                        if n < 1 {
                            return Err(self.error("parameter markers are numbered from ?1"));
                        }
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let idx = (n - 1) as usize;
                        self.next_param = self.next_param.max(idx + 1);
                        return Ok(Expr::Param(idx));
                    }
                }
                let idx = self.next_param;
                self.next_param += 1;
                Ok(Expr::Param(idx))
            }
            TokenKind::LParen => {
                self.bump();
                if self.peek().is_kw("select") || self.peek().is_kw("with") {
                    let query = self.query()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(query)))
                } else {
                    let e = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(e)
                }
            }
            TokenKind::Ident(name) => {
                if name == "null" {
                    self.bump();
                    return Ok(Expr::Literal(Value::Null));
                }
                if name == "true" {
                    self.bump();
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name == "false" {
                    self.bump();
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                // Aggregate call?
                if let Some(func) = AggFunc::from_name(&name) {
                    if matches!(self.peek2(), TokenKind::LParen) {
                        self.bump(); // name
                        self.bump(); // (
                        let distinct = self.eat_kw("distinct");
                        let arg = if matches!(self.peek(), TokenKind::Star) {
                            if func != AggFunc::Count {
                                return Err(self.error("only COUNT accepts *"));
                            }
                            self.bump();
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            distinct,
                            arg,
                        });
                    }
                }
                self.bump();
                if matches!(self.peek(), TokenKind::Dot) {
                    self.bump();
                    let col = self.ident()?;
                    Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    })
                } else {
                    Ok(Expr::Column {
                        qualifier: None,
                        name,
                    })
                }
            }
            other => Err(self.error(format!("expected expression, found {other}"))),
        }
    }
}

impl Parser {
    /// Parse a column data type name.
    fn data_type(&mut self) -> Result<starmagic_common::DataType> {
        use starmagic_common::DataType;
        let name = self.ident()?;
        match name.as_str() {
            "integer" | "int" | "bigint" | "smallint" => Ok(DataType::Int),
            "double" | "decimal" | "float" | "real" | "numeric" => Ok(DataType::Double),
            "varchar" | "char" | "text" | "string" => {
                // Optional length: VARCHAR(30).
                if matches!(self.peek(), TokenKind::LParen) {
                    self.bump();
                    let _ = self.bump(); // length literal
                    self.expect(&TokenKind::RParen)?;
                }
                Ok(DataType::Str)
            }
            "boolean" | "bool" => Ok(DataType::Bool),
            other => Err(self.error(format!("unknown data type {other}"))),
        }
    }
}

fn comparison_op(t: &TokenKind) -> Option<BinOp> {
    match t {
        TokenKind::Eq => Some(BinOp::Eq),
        TokenKind::Neq => Some(BinOp::Neq),
        TokenKind::Lt => Some(BinOp::Lt),
        TokenKind::Le => Some(BinOp::Le),
        TokenKind::Gt => Some(BinOp::Gt),
        TokenKind::Ge => Some(BinOp::Ge),
        _ => None,
    }
}

/// Keywords that end an implicit alias position.
fn is_clause_keyword(s: &str) -> bool {
    matches!(
        s,
        "where"
            | "group"
            | "groupby"
            | "having"
            | "union"
            | "except"
            | "intersect"
            | "from"
            | "on"
            | "as"
            | "order"
            | "left"
            | "join"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse_query("SELECT empno, salary FROM employee WHERE salary > 1000").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!("expected select")
        };
        assert_eq!(b.items.len(), 2);
        assert_eq!(b.from.len(), 1);
        assert!(b.where_clause.is_some());
        assert!(!b.distinct);
    }

    #[test]
    fn parses_the_papers_query_d0() {
        let q = parse_query(
            "SELECT d.deptname, s.workdept, s.avgsalary \
             FROM department d, avgMgrSal s \
             WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        )
        .unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert_eq!(b.from.len(), 2);
        assert_eq!(b.from[0].binding_name(), "d");
        assert_eq!(b.from[1].binding_name(), "s");
    }

    #[test]
    fn parses_groupby_both_spellings() {
        for sql in [
            "SELECT workdept, AVG(salary) FROM mgrSal GROUPBY workdept",
            "SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
        ] {
            let q = parse_query(sql).unwrap();
            let SetExpr::Select(b) = &q.body else {
                panic!()
            };
            assert_eq!(b.group_by.len(), 1, "for {sql}");
        }
    }

    #[test]
    fn parses_having() {
        let q = parse_query(
            "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept HAVING AVG(salary) > 50000",
        )
        .unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(b.having.is_some());
    }

    #[test]
    fn parses_distinct_and_aliases() {
        let q = parse_query("SELECT DISTINCT deptno AS dn FROM department dep").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(b.distinct);
        match &b.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("dn")),
            _ => panic!(),
        }
        assert_eq!(b.from[0].binding_name(), "dep");
    }

    #[test]
    fn parses_set_operations_with_precedence() {
        let q =
            parse_query("SELECT x FROM a UNION SELECT x FROM b INTERSECT SELECT x FROM c").unwrap();
        // INTERSECT binds tighter: a UNION (b INTERSECT c)
        let SetExpr::SetOp { op, right, .. } = &q.body else {
            panic!()
        };
        assert_eq!(*op, SetOpKind::Union);
        assert!(matches!(
            right.as_ref(),
            SetExpr::SetOp {
                op: SetOpKind::Intersect,
                ..
            }
        ));
    }

    #[test]
    fn parses_union_all() {
        let q = parse_query("SELECT x FROM a UNION ALL SELECT x FROM b").unwrap();
        let SetExpr::SetOp { all, .. } = &q.body else {
            panic!()
        };
        assert!(all);
    }

    #[test]
    fn parses_exists_subquery() {
        let q = parse_query(
            "SELECT empno FROM employee e WHERE EXISTS \
             (SELECT deptno FROM department d WHERE d.mgrno = e.empno)",
        )
        .unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(
            b.where_clause.as_ref().unwrap(),
            Expr::Exists { negated: false, .. }
        ));
    }

    #[test]
    fn parses_not_exists() {
        let q = parse_query(
            "SELECT empno FROM employee e WHERE NOT EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = e.empno)",
        )
        .unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(
            b.where_clause.as_ref().unwrap(),
            Expr::Exists { negated: true, .. }
        ));
    }

    #[test]
    fn parses_in_subquery_and_list() {
        let q = parse_query("SELECT x FROM t WHERE x IN (SELECT y FROM u)").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(
            b.where_clause.as_ref().unwrap(),
            Expr::InSubquery { .. }
        ));

        let q = parse_query("SELECT x FROM t WHERE x NOT IN (1, 2, 3)").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(
            b.where_clause.as_ref().unwrap(),
            Expr::InList { negated: true, .. }
        ));
    }

    #[test]
    fn parses_quantified_comparison() {
        let q = parse_query("SELECT x FROM t WHERE x > ALL (SELECT y FROM u)").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(
            b.where_clause.as_ref().unwrap(),
            Expr::QuantifiedCmp {
                quantifier: Quantified::All,
                op: BinOp::Gt,
                ..
            }
        ));
    }

    #[test]
    fn parses_scalar_subquery() {
        let q = parse_query(
            "SELECT empno FROM employee e WHERE salary > \
             (SELECT AVG(salary) FROM employee f WHERE f.workdept = e.workdept)",
        )
        .unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        match b.where_clause.as_ref().unwrap() {
            Expr::Binary {
                op: BinOp::Gt,
                right,
                ..
            } => {
                assert!(matches!(right.as_ref(), Expr::ScalarSubquery(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_between_like_isnull() {
        let q = parse_query(
            "SELECT x FROM t WHERE x BETWEEN 1 AND 10 AND name LIKE 'A%' AND bonus IS NOT NULL",
        )
        .unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        let w = b.where_clause.as_ref().unwrap();
        // Just verify it parsed into a conjunction with the three parts.
        let Expr::Binary { op: BinOp::And, .. } = w else {
            panic!()
        };
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let q = parse_query("SELECT a + b * c FROM t").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &b.items[0] else {
            panic!()
        };
        // a + (b * c)
        let Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = expr
        else {
            panic!()
        };
        assert!(matches!(
            right.as_ref(),
            Expr::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn parses_derived_table() {
        let q = parse_query("SELECT v.x FROM (SELECT empno AS x FROM employee) AS v").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(&b.from[0], TableRef::Derived { .. }));
    }

    #[test]
    fn parses_create_view() {
        let s = parse_statement(
            "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
             SELECT e.empno, e.empname, e.workdept, e.salary \
             FROM employee e, department d WHERE e.empno = d.mgrno",
        )
        .unwrap();
        match s {
            Statement::CreateView {
                name,
                columns,
                recursive,
                ..
            } => {
                assert_eq!(name, "mgrsal");
                assert_eq!(columns.len(), 4);
                assert!(!recursive);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_create_recursive_view() {
        let s = parse_statement(
            "CREATE RECURSIVE VIEW reach (src, dst) AS \
             SELECT src, dst FROM edge UNION SELECT r.src, e.dst FROM reach r, edge e WHERE r.dst = e.src",
        )
        .unwrap();
        assert!(matches!(
            s,
            Statement::CreateView {
                recursive: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_count_star_and_distinct_agg() {
        let q = parse_query("SELECT COUNT(*), COUNT(DISTINCT deptno) FROM department").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(
            &b.items[0],
            SelectItem::Expr {
                expr: Expr::Agg { arg: None, .. },
                ..
            }
        ));
        assert!(matches!(
            &b.items[1],
            SelectItem::Expr {
                expr: Expr::Agg {
                    distinct: true,
                    arg: Some(_),
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn count_star_only() {
        assert!(parse_query("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn parses_qualified_wildcard() {
        let q = parse_query("SELECT e.* FROM employee e").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(&b.items[0], SelectItem::QualifiedWildcard(x) if x == "e"));
    }

    #[test]
    fn reports_error_offsets() {
        // "FROM" is lexed as an identifier (keywords are contextual), so
        // the parse fails when the real FROM clause is missing; the
        // offset must point inside the statement.
        let err = parse_query("SELECT FROM t").unwrap_err();
        match err {
            Error::Parse { offset, .. } => assert!(offset > 0 && offset <= 13),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("SELECT x FROM t extra garbage !").is_err());
    }

    #[test]
    fn allows_trailing_semicolon() {
        assert!(parse_query("SELECT x FROM t;").is_ok());
    }

    #[test]
    fn not_precedence() {
        // NOT a = b parses as NOT (a = b)
        let q = parse_query("SELECT x FROM t WHERE NOT a = b").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        assert!(matches!(b.where_clause.as_ref().unwrap(), Expr::Not(_)));
    }

    #[test]
    fn null_literal() {
        let q = parse_query("SELECT x FROM t WHERE x = NULL").unwrap();
        let SetExpr::Select(b) = &q.body else {
            panic!()
        };
        let Expr::Binary { right, .. } = b.where_clause.as_ref().unwrap() else {
            panic!()
        };
        assert!(matches!(right.as_ref(), Expr::Literal(Value::Null)));
    }
}

#[cfg(test)]
mod ddl_tests {
    use super::*;
    use starmagic_common::DataType;

    #[test]
    fn parses_create_table() {
        let s = parse_statement(
            "CREATE TABLE emp (empno INTEGER, name VARCHAR(30), salary DOUBLE, \
             active BOOLEAN, PRIMARY KEY (empno))",
        )
        .unwrap();
        let Statement::CreateTable { name, columns, key } = s else {
            panic!("expected CREATE TABLE");
        };
        assert_eq!(name, "emp");
        assert_eq!(
            columns,
            vec![
                ("empno".into(), DataType::Int),
                ("name".into(), DataType::Str),
                ("salary".into(), DataType::Double),
                ("active".into(), DataType::Bool),
            ]
        );
        assert_eq!(key, vec!["empno"]);
    }

    #[test]
    fn parses_composite_key() {
        let s = parse_statement("CREATE TABLE act (e INT, p INT, PRIMARY KEY (e, p))").unwrap();
        let Statement::CreateTable { key, .. } = s else {
            panic!()
        };
        assert_eq!(key, vec!["e", "p"]);
    }

    #[test]
    fn rejects_unknown_type() {
        assert!(parse_statement("CREATE TABLE t (x BLOB)").is_err());
    }

    #[test]
    fn parses_insert_multi_row() {
        let s = parse_statement("INSERT INTO emp VALUES (1, 'a', 10.5, TRUE), (2, 'b', -3, FALSE)")
            .unwrap();
        let Statement::Insert { table, rows } = s else {
            panic!()
        };
        assert_eq!(table, "emp");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn insert_null_values() {
        let s = parse_statement("INSERT INTO emp VALUES (1, NULL)").unwrap();
        let Statement::Insert { rows, .. } = s else {
            panic!()
        };
        assert!(matches!(rows[0][1], Expr::Literal(Value::Null)));
    }
}
