//! The query texts the benchmark sends: the twelve paper queries of §5
//! and the point-lookup templates.
//!
//! The texts live here, not in the workspace's query modules, so that a
//! change there cannot change what the benchmark measures.

/// BQ1–BQ7 over the Barton catalog and LQ1–LQ5 over LUBM, each as the
/// basic graph pattern the engine plans (aggregation steps of the paper's
/// queries are left out; UNION-shaped BQ6 and LQ3 keep one branch).
pub const PAPER: [(&str, &str); 12] = [
    ("BQ1", "SELECT ?o ?s WHERE { ?s <http://barton.example.org/prop/Type> ?o . }"),
    (
        "BQ2",
        "SELECT ?p WHERE { ?s <http://barton.example.org/prop/Type> \
         <http://barton.example.org/type/Text> . ?s ?p ?o . }",
    ),
    (
        "BQ3",
        "SELECT ?p ?o WHERE { ?s <http://barton.example.org/prop/Type> \
         <http://barton.example.org/type/Text> . ?s ?p ?o . }",
    ),
    (
        "BQ4",
        "SELECT ?p ?o WHERE { ?s <http://barton.example.org/prop/Type> \
         <http://barton.example.org/type/Text> . \
         ?s <http://barton.example.org/prop/Language> \"French\" . ?s ?p ?o . }",
    ),
    (
        "BQ5",
        "SELECT ?s ?t WHERE { ?s <http://barton.example.org/prop/Origin> \"DLC\" . \
         ?s <http://barton.example.org/prop/Records> ?o . \
         ?o <http://barton.example.org/prop/Type> ?t . \
         FILTER(?t != <http://barton.example.org/type/Text>) }",
    ),
    (
        "BQ6",
        "SELECT ?p WHERE { ?s <http://barton.example.org/prop/Origin> \"DLC\" . \
         ?s <http://barton.example.org/prop/Records> ?o . \
         ?o <http://barton.example.org/prop/Type> <http://barton.example.org/type/Text> . \
         ?s ?p ?q . }",
    ),
    (
        "BQ7",
        "SELECT ?s ?e ?t WHERE { ?s <http://barton.example.org/prop/Point> \"end\" . \
         ?s <http://barton.example.org/prop/Encoding> ?e . \
         ?s <http://barton.example.org/prop/Type> ?t . }",
    ),
    (
        "LQ1",
        "SELECT ?s ?p WHERE { ?s ?p <http://lubm.example.org/Department0.University0/Course10> . }",
    ),
    ("LQ2", "SELECT ?s ?p WHERE { ?s ?p <http://lubm.example.org/University0> . }"),
    (
        "LQ3",
        "SELECT ?p ?o WHERE { \
         <http://lubm.example.org/Department0.University0/AssociateProfessor10> ?p ?o . }",
    ),
    (
        "LQ4",
        "SELECT ?c ?s WHERE { \
         <http://lubm.example.org/Department0.University0/AssociateProfessor10> \
         <http://lubm.example.org/teacherOf> ?c . ?s ?p ?c . \
         ?s <http://lubm.example.org/type> ?t . }",
    ),
    (
        "LQ5",
        "SELECT ?u ?s WHERE { \
         <http://lubm.example.org/Department0.University0/AssociateProfessor10> ?rel ?u . \
         ?u <http://lubm.example.org/type> <http://lubm.example.org/University> . \
         ?s <http://lubm.example.org/undergraduateDegreeFrom> ?u . }",
    ),
];

/// The query whose first row `first_answer_ms` waits for (LQ3: a
/// subject lookup every workload's LUBM data answers).
pub const FIRST_ANSWER: &str = PAPER[9].1;

/// The four point-lookup shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `<s> ?p ?o`.
    Subject,
    /// `?s ?p <o>`: the object-bound probe of §2 that binds no property.
    Object,
    /// Two or three patterns joined from a bound start (LQ4's shape).
    Star,
    /// `ASK { <s> ?p <o> }`.
    Ask,
}

pub const SHAPES: [Shape; 4] = [Shape::Subject, Shape::Object, Shape::Star, Shape::Ask];

pub fn subject_lookup(s: &str) -> String {
    format!("SELECT ?p ?o WHERE {{ {s} ?p ?o . }}")
}

pub fn object_lookup(o: &str) -> String {
    format!("SELECT ?s ?p WHERE {{ ?s ?p {o} . }}")
}

pub fn ask(s: &str, o: &str) -> String {
    format!("ASK {{ {s} ?p {o} . }}")
}

/// The predicate whose subjects start variants 0 and 1 of [`star`].
pub const TEACHER_OF: &str = "http://lubm.example.org/teacherOf";
/// The predicate whose subjects start variant 2 of [`star`].
pub const TAKES_COURSE: &str = "http://lubm.example.org/takesCourse";
const TYPE: &str = "http://lubm.example.org/type";

/// Star templates from a teaching faculty member (`variant` 0 and 1) or
/// from a student (`variant` 2). Every projected variable binds an
/// entity reached from the start.
pub fn star(start: &str, variant: usize) -> String {
    let (teaches, takes) = (format!("<{TEACHER_OF}>"), format!("<{TAKES_COURSE}>"));
    match variant {
        0 => format!("SELECT ?c ?s WHERE {{ {start} {teaches} ?c . ?s {takes} ?c . }}"),
        1 => format!("SELECT ?c ?s WHERE {{ {start} {teaches} ?c . ?s ?p ?c . ?s <{TYPE}> ?t . }}"),
        _ => format!("SELECT ?c ?f WHERE {{ {start} {takes} ?c . ?f {teaches} ?c . }}"),
    }
}
