//! RDF terms: IRIs, literals, and blank nodes.
//!
//! Terms are immutable, cheaply clonable (`Arc<str>` payloads) and totally
//! ordered so they can live in the sorted structures the Hexastore relies
//! on. The ordering is lexicographic within a kind, with the kind order
//! IRI < BlankNode < Literal (the concrete order is irrelevant to the
//! paper's algorithms — only that *some* total order exists).

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// The RDF datatype IRI for plain `xsd:string` literals.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

/// An IRI (Internationalized Resource Identifier) such as
/// `http://example.org/advisor`.
///
/// The IRI is stored verbatim; no normalization beyond what the parser does
/// is applied. Equality is string equality, as in the RDF specification.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from its string form.
    pub fn new(iri: impl Into<Arc<str>>) -> Self {
        Iri(iri.into())
    }

    /// The IRI string, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl fmt::Debug for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Iri({})", self.0)
    }
}

impl Borrow<str> for Iri {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

/// A blank node with a local label, e.g. `_:b42`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node from its label (without the `_:` prefix).
    pub fn new(label: impl Into<Arc<str>>) -> Self {
        BlankNode(label.into())
    }

    /// The blank node label, without the `_:` prefix.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

impl fmt::Debug for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlankNode({})", self.0)
    }
}

/// An RDF literal: a lexical form plus either a language tag or a datatype.
///
/// Following RDF 1.1, a literal without an explicit datatype or language is
/// an `xsd:string`; we represent that common case as `datatype: None` to
/// avoid storing the `xsd:string` IRI millions of times.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    lexical: Arc<str>,
    /// `Some(tag)` for language-tagged strings (`"chat"@fr`).
    language: Option<Arc<str>>,
    /// `Some(iri)` for typed literals other than plain `xsd:string`.
    datatype: Option<Iri>,
}

impl Literal {
    /// A plain (`xsd:string`) literal.
    pub fn simple(lexical: impl Into<Arc<str>>) -> Self {
        Literal { lexical: lexical.into(), language: None, datatype: None }
    }

    /// A language-tagged literal such as `"chat"@fr`.
    pub fn lang(lexical: impl Into<Arc<str>>, tag: impl Into<Arc<str>>) -> Self {
        Literal { lexical: lexical.into(), language: Some(tag.into()), datatype: None }
    }

    /// A typed literal such as `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`.
    ///
    /// Passing the `xsd:string` datatype yields the same value as
    /// [`Literal::simple`].
    pub fn typed(lexical: impl Into<Arc<str>>, datatype: Iri) -> Self {
        if datatype.as_str() == XSD_STRING {
            Literal::simple(lexical)
        } else {
            Literal { lexical: lexical.into(), language: None, datatype: Some(datatype) }
        }
    }

    /// The lexical form, unescaped.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The language tag, if this is a language-tagged string.
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// The datatype IRI. Plain literals report `xsd:string`.
    pub fn datatype(&self) -> &str {
        self.datatype.as_ref().map_or(XSD_STRING, Iri::as_str)
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(tag) = &self.language {
            write!(f, "@{tag}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^{dt}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Literal({self})")
    }
}

/// Escapes a literal lexical form for N-Triples output.
pub(crate) fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// The three kinds of RDF term, used for compact dispatch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TermKind {
    /// An IRI reference.
    Iri,
    /// A blank node.
    Blank,
    /// A literal value.
    Literal,
}

/// An RDF term: the value space of subjects, predicates and objects.
///
/// RDF restricts which kinds may appear in which triple position (e.g.
/// literals only as objects); [`crate::Triple::new`] does not enforce this —
/// the stores in this workspace are generalized triple stores, as was the
/// paper's prototype — but the N-Triples I/O functions
/// ([`crate::parse_document`], [`crate::write_document`]) emit/accept only
/// valid N-Triples.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI reference, e.g. `<http://example.org/ID1>`.
    Iri(Iri),
    /// A blank node, e.g. `_:b0`.
    Blank(BlankNode),
    /// A literal, e.g. `"AI"` or `"42"^^xsd:integer`.
    Literal(Literal),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl Into<Arc<str>>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// Convenience constructor for a blank-node term.
    pub fn blank(label: impl Into<Arc<str>>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// Convenience constructor for a plain literal term.
    pub fn literal(lexical: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::simple(lexical))
    }

    /// Convenience constructor for a language-tagged literal term.
    pub fn lang_literal(lexical: impl Into<Arc<str>>, tag: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::lang(lexical, tag))
    }

    /// Convenience constructor for a typed literal term.
    pub fn typed_literal(lexical: impl Into<Arc<str>>, datatype: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::typed(lexical, Iri::new(datatype)))
    }

    /// The kind of this term.
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Iri(_) => TermKind::Iri,
            Term::Blank(_) => TermKind::Blank,
            Term::Literal(_) => TermKind::Literal,
        }
    }

    /// Returns the IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(iri) => Some(iri.as_str()),
            _ => None,
        }
    }

    /// Returns the literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// True if the term may be used as a subject (IRI or blank node).
    pub fn is_valid_subject(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }

    /// True if the term may be used as a predicate (IRI only).
    pub fn is_valid_predicate(&self) -> bool {
        matches!(self, Term::Iri(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => iri.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Literal(l) => l.fmt(f),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_wraps_in_angle_brackets() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
    }

    #[test]
    fn blank_display_has_prefix() {
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Term::literal("AI").to_string(), "\"AI\"");
    }

    #[test]
    fn lang_literal_display() {
        assert_eq!(Term::lang_literal("chat", "fr").to_string(), "\"chat\"@fr");
    }

    #[test]
    fn typed_literal_display() {
        let t = Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer");
        assert_eq!(t.to_string(), "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    }

    #[test]
    fn xsd_string_typed_literal_collapses_to_simple() {
        let a = Term::typed_literal("x", XSD_STRING);
        let b = Term::literal("x");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "\"x\"");
    }

    #[test]
    fn literal_escaping_round_trips_special_chars() {
        let l = Literal::simple("a\"b\\c\nd\re\tf");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\\re\\tf\"");
    }

    #[test]
    fn datatype_of_plain_literal_is_xsd_string() {
        assert_eq!(Literal::simple("x").datatype(), XSD_STRING);
    }

    #[test]
    fn term_ordering_is_total_and_kind_grouped() {
        let mut terms = [
            Term::literal("z"),
            Term::iri("http://x/b"),
            Term::blank("a"),
            Term::iri("http://x/a"),
        ];
        terms.sort();
        assert_eq!(terms[0], Term::iri("http://x/a"));
        assert_eq!(terms[1], Term::iri("http://x/b"));
        assert_eq!(terms[2], Term::blank("a"));
        assert_eq!(terms[3], Term::literal("z"));
    }

    #[test]
    fn validity_predicates() {
        assert!(Term::iri("http://x/a").is_valid_subject());
        assert!(Term::blank("b").is_valid_subject());
        assert!(!Term::literal("l").is_valid_subject());
        assert!(Term::iri("http://x/a").is_valid_predicate());
        assert!(!Term::blank("b").is_valid_predicate());
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let t = Term::iri("http://example.org/very/long/iri/that/would/be/expensive/to/copy");
        let u = t.clone();
        assert_eq!(t, u);
    }

    #[test]
    fn accessors() {
        let t = Term::iri("http://x/a");
        assert_eq!(t.as_iri(), Some("http://x/a"));
        assert_eq!(t.as_literal(), None);
        let l = Term::lang_literal("hi", "en");
        let lit = l.as_literal().unwrap();
        assert_eq!(lit.lexical(), "hi");
        assert_eq!(lit.language(), Some("en"));
        assert_eq!(t.kind(), TermKind::Iri);
        assert_eq!(l.kind(), TermKind::Literal);
    }
}
