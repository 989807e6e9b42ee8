//! Recursive-descent parser with inline name resolution.
//!
//! The grammar (C-subset, no loops or pointers — the restriction that makes
//! packet programs tractable for synthesis, §1 of the paper):
//!
//! ```text
//! program    := item*
//! item       := state_decl | stmt
//! state_decl := "state" IDENT ("=" INT)? ";"
//! stmt       := local_decl | assign | if | block
//! local_decl := "int" IDENT "=" expr ";"
//! assign     := lvalue "=" expr ";"
//! lvalue     := "pkt" "." IDENT | IDENT
//! if         := "if" "(" expr ")" stmt ("else" stmt)?
//! block      := "{" stmt* "}"
//! expr       := or ("?" expr ":" expr)?
//! or         := and ("||" and)*
//! and        := bitor ("&&" bitor)*
//! bitor      := bitxor ("|" bitxor)*
//! bitxor     := bitand ("^" bitand)*
//! bitand     := cmp ("&" cmp)*
//! cmp        := add (("=="|"!="|"<"|"<="|">"|">=") add)?
//! add        := mul (("+"|"-") mul)*
//! mul        := unary (("*"|"/"|"%") unary)*
//! unary      := ("!"|"-") unary | primary
//! primary    := INT | lvalue | "(" expr ")" | "hash" "(" expr ("," expr)* ")"
//! ```
//!
//! Name resolution is single-pass: `state` declarations introduce state
//! variables, `int x = …` introduces locals, and `pkt.f` introduces packet
//! fields on first use (first-use order is the canonical container order).
//!
//! Nesting is bounded by [`MAX_NESTING`]. Each statement, expression,
//! unary operator and link of an operator chain nests one level deeper,
//! and the token that crosses the bound is a [`ParseError`]. Every later
//! pass recurses over the tree, so the bound keeps a hostile program from
//! overflowing the stack of whichever thread parses or compiles it.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{BinOp, Expr, LValue, Program, Stmt, UnOp, VarRef};
use crate::lexer::{lex, Token, TokenKind};
use crate::sema;

/// The deepest nesting a program may reach (see the module docs). The
/// corpus programs and their mutants nest at most 9 deep.
pub const MAX_NESTING: usize = 64;

/// A parse (or resolution, or semantic) error with source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse and resolve a packet transaction.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src).map_err(|e| ParseError {
        line: e.line,
        col: e.col,
        message: e.message,
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        fields: Vec::new(),
        field_ids: HashMap::new(),
        states: Vec::new(),
        state_inits: Vec::new(),
        state_ids: HashMap::new(),
        locals: Vec::new(),
        local_ids: HashMap::new(),
        depth: 0,
    };
    let stmts = p.program()?;
    let prog = Program::from_parts(p.fields, p.states, p.state_inits, p.locals, stmts);
    sema::check(&prog).map_err(|e| ParseError {
        line: 0,
        col: 0,
        message: e.to_string(),
    })?;
    Ok(prog)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    fields: Vec<String>,
    field_ids: HashMap<String, usize>,
    states: Vec<String>,
    state_inits: Vec<u64>,
    state_ids: HashMap<String, usize>,
    locals: Vec<String>,
    local_ids: HashMap<String, usize>,
    /// Current nesting, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Nest one level deeper, failing at the current token past the
    /// bound. The caller restores `depth` when the level closes; an error
    /// ends the parse, so it need not.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.nest()?;
        let parsed = f(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::Eof {
            if *self.peek() == TokenKind::KwState {
                self.state_decl()?;
            } else {
                stmts.push(self.stmt()?);
            }
        }
        Ok(stmts)
    }

    fn state_decl(&mut self) -> Result<(), ParseError> {
        self.expect(TokenKind::KwState)?;
        let name = self.ident()?;
        if self.state_ids.contains_key(&name) {
            return Err(self.err(format!("state variable `{name}` declared twice")));
        }
        let init = if self.eat(TokenKind::Assign) {
            match self.bump() {
                TokenKind::Int(v) => v,
                other => {
                    return Err(self.err(format!("expected integer initializer, found {other}")))
                }
            }
        } else {
            0
        };
        self.expect(TokenKind::Semi)?;
        self.state_ids.insert(name.clone(), self.states.len());
        self.states.push(name);
        self.state_inits.push(init);
        Ok(())
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::LBrace => {
                // A bare block groups statements; represent as if(1){...}
                // would change semantics of analysis, so instead inline the
                // block contents — a bare block has no binding effect here.
                let stmts = self.block()?;
                // Represent multi-statement blocks via a trivially-true if
                // only when needed; a single statement unwraps.
                match stmts.len() {
                    1 => Ok(stmts.into_iter().next().expect("len checked")),
                    _ => Ok(Stmt::If(Expr::Int(1), stmts, Vec::new())),
                }
            }
            TokenKind::KwInt => {
                self.bump();
                let name = self.ident()?;
                if self.local_ids.contains_key(&name) || self.state_ids.contains_key(&name) {
                    return Err(self.err(format!("`{name}` is already defined")));
                }
                self.expect(TokenKind::Assign)?;
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                let idx = self.locals.len();
                self.local_ids.insert(name.clone(), idx);
                self.locals.push(name);
                Ok(Stmt::Assign(LValue::Local(idx), e))
            }
            TokenKind::KwPkt => {
                let f = self.pkt_field()?;
                self.expect(TokenKind::Assign)?;
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Assign(LValue::Field(f), e))
            }
            TokenKind::Ident(name) => {
                self.bump();
                let lv = if let Some(&i) = self.state_ids.get(&name) {
                    LValue::State(i)
                } else if let Some(&i) = self.local_ids.get(&name) {
                    LValue::Local(i)
                } else {
                    return Err(self.err(format!(
                        "`{name}` is not declared; declare it with `state {name};` or `int {name} = …;`"
                    )));
                };
                self.expect(TokenKind::Assign)?;
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Assign(lv, e))
            }
            other => Err(self.err(format!("expected a statement, found {other}"))),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = self.stmt_or_block()?;
        let else_branch = if self.eat(TokenKind::KwElse) {
            self.stmt_or_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If(cond, then_branch, else_branch))
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if *self.peek() == TokenKind::LBrace {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return Err(self.err("unterminated block: expected `}`"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn pkt_field(&mut self) -> Result<usize, ParseError> {
        self.expect(TokenKind::KwPkt)?;
        self.expect(TokenKind::Dot)?;
        let name = self.ident()?;
        Ok(*self.field_ids.entry(name.clone()).or_insert_with(|| {
            self.fields.push(name);
            self.fields.len() - 1
        }))
    }

    // ----- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| {
            let cond = p.or_expr()?;
            if p.eat(TokenKind::Question) {
                let t = p.expr()?;
                p.expect(TokenKind::Colon)?;
                let f = p.expr()?;
                Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
            } else {
                Ok(cond)
            }
        })
    }

    /// A left-associative chain `operand (op operand)*` over the
    /// `(token, operator)` pairs in `ops`. The tree grows one level per
    /// link, and so does the nesting until the chain ends.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, ParseError>,
        ops: &[(TokenKind, BinOp)],
    ) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = operand(self)?;
        while let Some(&(_, op)) = ops.iter().find(|(t, _)| t == self.peek()) {
            self.nest()?;
            self.bump();
            let rhs = operand(self)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::and_expr, &[(TokenKind::OrOr, BinOp::Or)])
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::bitor_expr, &[(TokenKind::AndAnd, BinOp::And)])
    }

    fn bitor_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::bitxor_expr, &[(TokenKind::Pipe, BinOp::BitOr)])
    }

    fn bitxor_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::bitand_expr, &[(TokenKind::Caret, BinOp::BitXor)])
    }

    fn bitand_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::cmp_expr, &[(TokenKind::Amp, BinOp::BitAnd)])
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::EqEq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            Ok(Expr::bin(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let ops = [
            (TokenKind::Plus, BinOp::Add),
            (TokenKind::Minus, BinOp::Sub),
        ];
        self.chain(Self::mul_expr, &ops)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let ops = [
            (TokenKind::Star, BinOp::Mul),
            (TokenKind::Slash, BinOp::Div),
            (TokenKind::Percent, BinOp::Rem),
        ];
        self.chain(Self::unary_expr, &ops)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            TokenKind::Bang => UnOp::Not,
            TokenKind::Minus => UnOp::Neg,
            _ => return self.primary_expr(),
        };
        let e = self.nested(|p| {
            p.bump();
            p.unary_expr()
        })?;
        Ok(Expr::Unary(op, Box::new(e)))
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::KwPkt => {
                let f = self.pkt_field()?;
                Ok(Expr::Var(VarRef::Field(f)))
            }
            TokenKind::KwHash => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let mut args = vec![self.expr()?];
                while self.eat(TokenKind::Comma) {
                    args.push(self.expr()?);
                }
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Hash(args))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if let Some(&i) = self.state_ids.get(&name) {
                    Ok(Expr::Var(VarRef::State(i)))
                } else if let Some(&i) = self.local_ids.get(&name) {
                    Ok(Expr::Var(VarRef::Local(i)))
                } else {
                    Err(self.err(format!("`{name}` is not declared")))
                }
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::LValue;

    #[test]
    fn parses_sampling_program() {
        let p = parse(
            "state count = 0;\n\
             if (count == 9) { count = 0; pkt.sample = 1; }\n\
             else { count = count + 1; pkt.sample = 0; }",
        )
        .unwrap();
        assert_eq!(p.state_names(), ["count"]);
        assert_eq!(p.field_names(), ["sample"]);
        assert_eq!(p.stmts().len(), 1);
        match &p.stmts()[0] {
            Stmt::If(_, t, f) => {
                assert_eq!(t.len(), 2);
                assert_eq!(f.len(), 2);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn field_order_is_first_use() {
        let p = parse("pkt.b = pkt.a + pkt.c; pkt.a = pkt.b;").unwrap();
        assert_eq!(p.field_names(), ["b", "a", "c"]);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("pkt.x = 1 + 2 * 3;").unwrap();
        // With constant folding not applied, tree should be Add(1, Mul(2,3)).
        match &p.stmts()[0] {
            Stmt::Assign(_, Expr::Binary(BinOp::Add, a, b)) => {
                assert_eq!(**a, Expr::Int(1));
                assert!(matches!(**b, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_cmp_below_logic() {
        let p = parse("pkt.x = pkt.a < 3 && pkt.b == 4;").unwrap();
        match &p.stmts()[0] {
            Stmt::Assign(_, Expr::Binary(BinOp::And, a, b)) => {
                assert!(matches!(**a, Expr::Binary(BinOp::Lt, _, _)));
                assert!(matches!(**b, Expr::Binary(BinOp::Eq, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_parses_right_associative() {
        let p = parse("pkt.x = pkt.a ? 1 : pkt.b ? 2 : 3;").unwrap();
        match &p.stmts()[0] {
            Stmt::Assign(_, Expr::Ternary(_, t, f)) => {
                assert_eq!(**t, Expr::Int(1));
                assert!(matches!(**f, Expr::Ternary(_, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn locals_resolve_and_shadowing_is_rejected() {
        let p = parse("int t = 3; pkt.x = t + 1;").unwrap();
        assert_eq!(p.local_names(), ["t"]);
        assert!(matches!(
            p.stmts()[0],
            Stmt::Assign(LValue::Local(0), Expr::Int(3))
        ));
        let err = parse("state t; int t = 1;").unwrap_err();
        assert!(err.message.contains("already defined"));
    }

    #[test]
    fn undeclared_identifier_is_an_error() {
        let err = parse("pkt.x = bogus;").unwrap_err();
        assert!(err.message.contains("not declared"));
        let err2 = parse("bogus = 3;").unwrap_err();
        assert!(err2.message.contains("not declared"));
    }

    #[test]
    fn duplicate_state_is_an_error() {
        let err = parse("state s; state s;").unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn hash_call_parses() {
        let p = parse("state last; last = hash(pkt.sport, pkt.dport) % 8;").unwrap();
        match &p.stmts()[0] {
            Stmt::Assign(LValue::State(0), Expr::Binary(BinOp::Rem, h, _)) => {
                assert!(matches!(**h, Expr::Hash(ref args) if args.len() == 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_operators_nest() {
        let p = parse("pkt.x = !!pkt.a; pkt.y = --pkt.b;").unwrap();
        match &p.stmts()[0] {
            Stmt::Assign(_, Expr::Unary(UnOp::Not, inner)) => {
                assert!(matches!(**inner, Expr::Unary(UnOp::Not, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.stmts()[1] {
            Stmt::Assign(_, Expr::Unary(UnOp::Neg, inner)) => {
                assert!(matches!(**inner, Expr::Unary(UnOp::Neg, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_positions_point_at_token() {
        let err = parse("pkt.x = ;").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.col, 9);
    }

    #[test]
    fn if_without_braces() {
        let p = parse("state s; if (pkt.a > 2) s = 1; else s = 0;").unwrap();
        match &p.stmts()[0] {
            Stmt::If(_, t, f) => {
                assert_eq!(t.len(), 1);
                assert_eq!(f.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Every shape that deepens the tree parses 62 levels deep and is a
    /// `ParseError` from 63 on — including depths whose unbounded
    /// recursion would overflow the test thread's stack.
    #[test]
    fn nesting_is_bounded() {
        let shapes: [fn(usize) -> String; 5] = [
            |n| format!("pkt.x = {}pkt.a{};", "(".repeat(n), ")".repeat(n)),
            |n| format!("pkt.x = pkt.a{};", " + pkt.a".repeat(n)),
            |n| format!("pkt.x = {}pkt.a;", "-".repeat(n)),
            |n| format!("pkt.x = {}0;", "pkt.a ? 1 : ".repeat(n)),
            |n| format!("{}pkt.x = 1;", "if (pkt.a == 1) ".repeat(n)),
        ];
        for shape in shapes {
            let deepest = shape(MAX_NESTING - 2);
            assert!(parse(&deepest).is_ok(), "{deepest}");
            for n in [MAX_NESTING - 1, MAX_NESTING, 1000, 100_000] {
                let err = parse(&shape(n)).unwrap_err();
                assert!(err.message.contains("nesting"), "depth {n}: {err}");
                assert_eq!(err.line, 1, "the error points at the crossing token");
            }
        }
    }

    #[test]
    fn bare_blocks_inline() {
        let p = parse("{ pkt.x = 1; pkt.y = 2; }").unwrap();
        // Multi-statement bare block becomes if(1){…} to preserve grouping.
        assert_eq!(p.stmts().len(), 1);
        let p2 = parse("{ pkt.x = 1; }").unwrap();
        assert!(matches!(p2.stmts()[0], Stmt::Assign(_, _)));
    }
}
