//! Property-based round-trip tests: any generated triple survives
//! serialize → parse unchanged. And no outside text — arbitrary characters
//! or byte-level mutations of written documents — panics either parser.

use proptest::prelude::*;
use rdf_model::{parse_document, write_document, Term, Triple};

fn arb_iri() -> impl Strategy<Value = Term> {
    "[a-z][a-z0-9/._-]{0,20}".prop_map(|s| Term::iri(format!("http://example.org/{s}")))
}

fn arb_blank() -> impl Strategy<Value = Term> {
    "[A-Za-z][A-Za-z0-9_]{0,10}".prop_map(Term::blank)
}

/// Literal lexical forms include whitespace, quotes, backslashes and
/// non-ASCII characters so the escaping logic is exercised.
fn arb_lex() -> proptest::string::RegexGeneratorStrategy<String> {
    proptest::string::string_regex("[ -~\t\n\röäü€]{0,24}").unwrap()
}

fn arb_literal() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_lex().prop_map(Term::literal),
        (arb_lex(), "[a-z]{2}(-[A-Z]{2})?").prop_map(|(l, t)| Term::lang_literal(l, t)),
        arb_lex().prop_map(|l| Term::typed_literal(l, "http://www.w3.org/2001/XMLSchema#integer")),
    ]
}

fn arb_subject() -> impl Strategy<Value = Term> {
    prop_oneof![arb_iri(), arb_blank()]
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![arb_iri(), arb_blank(), arb_literal()]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_subject(), arb_iri(), arb_object()).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

proptest! {
    #[test]
    fn ntriples_roundtrip(triples in proptest::collection::vec(arb_triple(), 0..40)) {
        let doc = write_document(&triples);
        let parsed = parse_document(&doc).unwrap();
        prop_assert_eq!(parsed, triples);
    }

    #[test]
    fn display_of_single_triple_parses_back(t in arb_triple()) {
        let line = t.to_string();
        let parsed = rdf_model::parse_line(&line, 1).unwrap().unwrap();
        prop_assert_eq!(parsed, t);
    }
}

proptest! {
    /// Turtle writer → parser round-trip on arbitrary (IRI/blank-subject)
    /// triples. Blank-node labels survive because the writer emits labels,
    /// never anonymous brackets.
    #[test]
    fn turtle_roundtrip(triples in proptest::collection::vec(arb_triple(), 0..30)) {
        let doc = rdf_model::write_turtle(&triples);
        let mut parsed = rdf_model::parse_turtle(&doc).unwrap();
        let mut expected = triples;
        expected.sort();
        expected.dedup();
        parsed.sort();
        prop_assert_eq!(parsed, expected);
    }
}

/// Arbitrary text: any mix of ASCII, control and multi-byte characters,
/// or a soup of Turtle / N-Triples tokens so parsing gets past the first
/// term.
fn arb_document_text() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        "@prefix|@base|PREFIX|BASE|prefix|true|false|a|\\.|;|,|\\[|\\]|\\(|\\)",
        "<http://x/[a-zé]{0,2}>|<|>|_:[a-z]{0,2}|ex:[a-zé]{0,2}|ex:|:",
        "\"[a-zé\\\\]{0,3}\"|\"\"\"|'|@en|\\^\\^|-?[0-9]{1,3}(\\.[0-9])?",
        "é|€|𝄞|\u{0}|\\\\u00e9|\\\\U0001F600|\\\\|#| |\n",
    ];
    prop_oneof![
        "[\t\n -~¡-ÿĀ-ſ一-龥𐀀-𐃿]{0,40}",
        proptest::collection::vec(token, 0..24).prop_map(|tokens| tokens.concat()),
    ]
}

/// Overwrites, inserts or deletes the byte at each `(pos, byte, kind)`
/// edit's position (modulo the length); invalid UTF-8 is replaced
/// lossily, the way outside text arrives as `&str`.
fn mutate(doc: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(pos, byte, kind) in edits {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `text` through both parsers, failing with the text on a panic.
fn assert_no_panic(text: &str) {
    let outcome = std::panic::catch_unwind(|| {
        let _ = rdf_model::parse_turtle(text);
        let _ = parse_document(text);
    });
    assert!(outcome.is_ok(), "document text {text:?} panicked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics_the_parsers(text in arb_document_text()) {
        assert_no_panic(&text);
    }

    #[test]
    fn mutated_documents_never_panic_the_parsers(
        triples in proptest::collection::vec(arb_triple(), 1..6),
        edits in proptest::collection::vec((0usize..1024, 0u8..=255, 0u8..3), 0..6),
    ) {
        assert_no_panic(&mutate(&rdf_model::write_turtle(&triples), &edits));
        assert_no_panic(&mutate(&write_document(&triples), &edits));
    }
}
