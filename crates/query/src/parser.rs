//! A small SPARQL-like query language for basic graph patterns.
//!
//! Grammar (a pragmatic SPARQL subset — enough for every query shape the
//! paper discusses):
//!
//! ```text
//! query    := (SELECT [DISTINCT] (var+ | '*') WHERE | ASK [WHERE])
//!             '{' (pattern | filter)* '}' modifier*
//! pattern  := term term term '.'?        (last '.' optional)
//! filter   := FILTER '(' operand ('=' | '!=') operand ')'
//! operand  := '?'name | term
//! term     := '?'name | '<'iri'>' | literal | '_:'label
//! literal  := '"'chars'"' ('@'lang | '^^<'iri'>')?
//! modifier := LIMIT n | OFFSET n
//! ```
//!
//! The parser produces string-level [`TriplePattern`]s; compilation to
//! id-level algebra happens against a dictionary in [`crate::engine`].

use rdf_model::{Iri, Literal, Term, TermPattern, TriplePattern};
use std::fmt;

/// One side of a FILTER comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FilterOperand {
    /// A variable reference, without the `?`.
    Var(String),
    /// A constant term.
    Term(Term),
}

/// The comparison operator of a FILTER.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterOp {
    /// `=` — solutions where both sides denote the same term.
    Eq,
    /// `!=` — solutions where the sides denote different terms.
    Ne,
}

/// A `FILTER(lhs op rhs)` constraint inside the WHERE block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterExpr {
    /// Left operand.
    pub left: FilterOperand,
    /// Comparison operator.
    pub op: FilterOp,
    /// Right operand.
    pub right: FilterOperand,
}

/// A parsed SELECT or ASK query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedQuery {
    /// Projected variable names, in SELECT order. Empty means `SELECT *`
    /// (project every variable in first-mention order).
    pub select: Vec<String>,
    /// Whether DISTINCT was requested.
    pub distinct: bool,
    /// True for `ASK` queries (existence check, no projection).
    pub ask: bool,
    /// The basic graph pattern.
    pub patterns: Vec<TriplePattern>,
    /// FILTER constraints over the pattern's solutions.
    pub filters: Vec<FilterExpr>,
    /// `LIMIT n` solution modifier.
    pub limit: Option<usize>,
    /// `OFFSET n` solution modifier.
    pub offset: usize,
}

impl ParsedQuery {
    /// The variables to project: the SELECT list, or all pattern variables
    /// in first-mention order for `SELECT *`.
    pub fn projection(&self) -> Vec<String> {
        if !self.select.is_empty() {
            return self.select.clone();
        }
        let mut vars: Vec<String> = Vec::new();
        for pat in &self.patterns {
            for v in pat.variables() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
        }
        vars
    }
}

/// Error produced while parsing a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            // Line comments.
            if self.rest().starts_with('#') {
                match self.rest().find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.input.len(),
                }
            } else {
                return;
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        // Compare bytes: `kw` is ASCII, so a match ends on a char boundary,
        // while slicing the text at `kw.len()` could split a character.
        if r.as_bytes().get(..kw.len()).is_some_and(|b| b.eq_ignore_ascii_case(kw.as_bytes())) {
            let after = r[kw.len()..].chars().next();
            if after.is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect_char(&mut self, c: char) -> Result<(), ParseError> {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => self.err(format!("expected '{c}', found '{got}'")),
            None => self.err(format!("expected '{c}', found end of input")),
        }
    }

    fn parse_var_name(&mut self) -> Result<String, ParseError> {
        // Caller consumed '?'.
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            self.bump();
        }
        if self.pos == start {
            return self.err("empty variable name");
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_iri_body(&mut self) -> Result<Iri, ParseError> {
        // Caller consumed '<'.
        let start = self.pos;
        loop {
            match self.bump() {
                Some('>') => return Ok(Iri::new(&self.input[start..self.pos - 1])),
                Some(c) if c == ' ' || c == '<' || c == '"' => {
                    return self.err(format!("invalid character '{c}' in IRI"))
                }
                Some(_) => {}
                None => return self.err("unterminated IRI"),
            }
        }
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        // Caller consumed the opening quote.
        let mut lex = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('n') => lex.push('\n'),
                    Some('t') => lex.push('\t'),
                    Some('r') => lex.push('\r'),
                    Some('"') => lex.push('"'),
                    Some('\\') => lex.push('\\'),
                    Some(c) => return self.err(format!("invalid escape '\\{c}'")),
                    None => return self.err("dangling backslash"),
                },
                Some(c) => lex.push(c),
                None => return self.err("unterminated literal"),
            }
        }
        match self.peek() {
            Some('@') => {
                self.bump();
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                    self.bump();
                }
                if self.pos == start {
                    return self.err("empty language tag");
                }
                Ok(Literal::lang(lex, &self.input[start..self.pos]))
            }
            Some('^') => {
                self.bump();
                if self.bump() != Some('^') {
                    return self.err("expected '^^' before datatype");
                }
                self.skip_ws();
                if self.bump() != Some('<') {
                    return self.err("expected '<' after '^^'");
                }
                let dt = self.parse_iri_body()?;
                Ok(Literal::typed(lex, dt))
            }
            _ => Ok(Literal::simple(lex)),
        }
    }

    fn parse_term_pattern(&mut self) -> Result<TermPattern, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('?') => {
                self.bump();
                Ok(TermPattern::var(self.parse_var_name()?))
            }
            Some('<') => {
                self.bump();
                Ok(TermPattern::Bound(Term::Iri(self.parse_iri_body()?)))
            }
            Some('"') => {
                self.bump();
                Ok(TermPattern::Bound(Term::Literal(self.parse_literal()?)))
            }
            Some('_') => {
                self.bump();
                if self.bump() != Some(':') {
                    return self.err("expected ':' after '_'");
                }
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
                    self.bump();
                }
                if self.pos == start {
                    return self.err("empty blank node label");
                }
                Ok(TermPattern::Bound(Term::blank(&self.input[start..self.pos])))
            }
            Some(c) => self.err(format!("unexpected character '{c}' at start of term")),
            None => self.err("unexpected end of input, expected a term"),
        }
    }

    fn parse_nonneg_int(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return self.err("expected a non-negative integer");
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|e| ParseError { offset: start, message: format!("bad integer: {e}") })
    }

    fn parse(&mut self) -> Result<ParsedQuery, ParseError> {
        let ask = self.eat_keyword("ASK");
        let mut distinct = false;
        let mut select = Vec::new();
        if !ask {
            if !self.eat_keyword("SELECT") {
                return self.err("query must start with SELECT or ASK");
            }
            distinct = self.eat_keyword("DISTINCT");
            self.skip_ws();
            if self.peek() == Some('*') {
                self.bump();
            } else {
                loop {
                    self.skip_ws();
                    if self.peek() == Some('?') {
                        self.bump();
                        select.push(self.parse_var_name()?);
                    } else {
                        break;
                    }
                }
                if select.is_empty() {
                    return self.err("SELECT needs at least one variable or '*'");
                }
            }
        }
        // WHERE is mandatory for SELECT, optional for ASK (as in SPARQL).
        if !self.eat_keyword("WHERE") && !ask {
            return self.err("expected WHERE");
        }
        self.expect_char('{')?;
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('}') {
                self.bump();
                break;
            }
            if self.peek().is_none() {
                return self.err("unterminated '{' block");
            }
            if self.eat_keyword("FILTER") {
                filters.push(self.parse_filter()?);
                self.skip_ws();
                if self.peek() == Some('.') {
                    self.bump();
                }
                continue;
            }
            let s = self.parse_term_pattern()?;
            let p = self.parse_term_pattern()?;
            let o = self.parse_term_pattern()?;
            patterns.push(TriplePattern { subject: s, predicate: p, object: o });
            self.skip_ws();
            if self.peek() == Some('.') {
                self.bump();
            }
        }
        // Solution modifiers, in either order.
        let mut limit = None;
        let mut offset = 0;
        loop {
            if self.eat_keyword("LIMIT") {
                limit = Some(self.parse_nonneg_int()?);
            } else if self.eat_keyword("OFFSET") {
                offset = self.parse_nonneg_int()?;
            } else {
                break;
            }
        }
        self.skip_ws();
        if self.pos != self.input.len() {
            return self.err("trailing content after query");
        }
        Ok(ParsedQuery { select, distinct, ask, patterns, filters, limit, offset })
    }

    fn parse_filter_operand(&mut self) -> Result<FilterOperand, ParseError> {
        self.skip_ws();
        if self.peek() == Some('?') {
            self.bump();
            Ok(FilterOperand::Var(self.parse_var_name()?))
        } else {
            match self.parse_term_pattern()? {
                TermPattern::Bound(t) => Ok(FilterOperand::Term(t)),
                TermPattern::Var(v) => Ok(FilterOperand::Var(v.to_string())),
            }
        }
    }

    fn parse_filter(&mut self) -> Result<FilterExpr, ParseError> {
        self.expect_char('(')?;
        let left = self.parse_filter_operand()?;
        self.skip_ws();
        let op = match self.bump() {
            Some('=') => FilterOp::Eq,
            Some('!') => {
                if self.bump() != Some('=') {
                    return self.err("expected '!='");
                }
                FilterOp::Ne
            }
            Some(c) => return self.err(format!("expected '=' or '!=', found '{c}'")),
            None => return self.err("expected a comparison operator"),
        };
        let right = self.parse_filter_operand()?;
        self.expect_char(')')?;
        Ok(FilterExpr { left, op, right })
    }
}

/// Parses a query string.
pub fn parse_query(input: &str) -> Result<ParsedQuery, ParseError> {
    Parser { input, pos: 0 }.parse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_upper_query() {
        // "What relationship does ID2 have to MIT?"
        let q =
            parse_query(r#"SELECT ?property WHERE { <http://x/ID2> ?property "MIT" . }"#).unwrap();
        assert_eq!(q.select, vec!["property"]);
        assert!(!q.distinct);
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.patterns[0].predicate, TermPattern::var("property"));
        assert_eq!(q.patterns[0].object, TermPattern::Bound(Term::literal("MIT")));
    }

    #[test]
    fn parses_figure1_lower_query() {
        let q = parse_query(
            r#"SELECT ?b WHERE {
                <http://x/ID1> ?prop "Yale" .
                ?b ?prop "Stanford" .
            }"#,
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(q.patterns[0].predicate, q.patterns[1].predicate);
    }

    #[test]
    fn select_star_projects_all_vars_in_order() {
        let q = parse_query("SELECT * WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z }").unwrap();
        assert!(q.select.is_empty());
        assert_eq!(q.projection(), vec!["x", "y", "z"]);
    }

    #[test]
    fn distinct_flag() {
        let q = parse_query("SELECT DISTINCT ?x WHERE { ?x <http://x/p> ?x . }").unwrap();
        assert!(q.distinct);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse_query("select ?x where { ?x <http://x/p> \"v\" }").unwrap();
        assert_eq!(q.select, vec!["x"]);
    }

    #[test]
    fn literals_with_tags_and_datatypes() {
        let q = parse_query(
            r#"SELECT ?x WHERE {
                ?x <http://x/label> "chat"@fr .
                ?x <http://x/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
                ?x <http://x/note> "a\"b\\c" .
            }"#,
        )
        .unwrap();
        let lit = q.patterns[0].object.term().unwrap().as_literal().unwrap().clone();
        assert_eq!(lit.language(), Some("fr"));
        let typed = q.patterns[1].object.term().unwrap().as_literal().unwrap().clone();
        assert_eq!(typed.datatype(), "http://www.w3.org/2001/XMLSchema#integer");
        let esc = q.patterns[2].object.term().unwrap().as_literal().unwrap().clone();
        assert_eq!(esc.lexical(), "a\"b\\c");
    }

    #[test]
    fn blank_nodes_allowed() {
        let q = parse_query("SELECT ?p WHERE { _:b0 ?p ?o }").unwrap();
        assert_eq!(q.patterns[0].subject, TermPattern::Bound(Term::blank("b0")));
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse_query("SELECT ?x # project x\nWHERE { # patterns\n ?x <http://x/p> ?y . }")
            .unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_query("WHERE { ?x ?p ?o }").is_err());
        assert!(parse_query("SELECT WHERE { ?x ?p ?o }").is_err());
        assert!(parse_query("SELECT ?x { ?x ?p ?o }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o ").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } junk").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x <unclosed ?o }").is_err());
        assert!(parse_query(r#"SELECT ?x WHERE { ?x ?p "unclosed }"#).is_err());
    }

    #[test]
    fn limit_and_offset_modifiers() {
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT 10 OFFSET 5").unwrap();
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, 5);
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o } OFFSET 2").unwrap();
        assert_eq!(q.limit, None);
        assert_eq!(q.offset, 2);
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT -1").is_err());
    }

    #[test]
    fn ask_queries() {
        let q = parse_query("ASK { ?x <http://x/p> ?y }").unwrap();
        assert!(q.ask);
        assert!(q.select.is_empty());
        let q = parse_query("ASK WHERE { ?x ?p ?o . }").unwrap();
        assert!(q.ask);
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn filters() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER(?y != "Text") FILTER(?x = ?y) }"#,
        )
        .unwrap();
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters[0].op, FilterOp::Ne);
        assert_eq!(q.filters[0].left, FilterOperand::Var("y".into()));
        assert_eq!(q.filters[0].right, FilterOperand::Term(Term::literal("Text")));
        assert_eq!(q.filters[1].op, FilterOp::Eq);
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o FILTER(?x < ?o) }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o FILTER ?x = ?o }").is_err());
    }

    #[test]
    fn error_reports_offset() {
        let e = parse_query("SELECT ?x WHERE { ?x ?p }").unwrap_err();
        assert!(e.offset > 0);
        assert!(e.to_string().contains("offset"));
    }

    #[test]
    fn keywords_never_split_a_multibyte_character() {
        // Each text puts a multi-byte character where a keyword's last
        // byte would be; matching must fail cleanly, not slice mid-char.
        for text in [
            "aéééé",
            "SELEé",
            "ASé",
            "SELECT DISTINé ?x WHERE { ?x ?p ?o }",
            "SELECT ?x WHEé { ?x ?p ?o }",
            "SELECT ?x WHERE { ?x ?p ?o FILTé(?x = ?o) }",
            "SELECT ?x WHERE { ?x ?p ?o } LIMé 1",
            "SELECT ?x WHERE { ?x ?p ?o } OFFSé 1",
        ] {
            assert!(parse_query(text).is_err(), "{text:?}");
        }
    }
}
