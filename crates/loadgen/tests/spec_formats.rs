//! The three spec formats — `backend.spec`, the job YAML and the scenario
//! YAML — keep their own grammars over one reader
//! (`qrio_backend::reader`), so the same mistake reads the same in each:
//! same message shape, right line. And none of them panics on hostile text.

use proptest::collection::vec;
use proptest::prelude::*;

use qrio_backend::spec::from_spec;
use qrio_backend::BackendError;
use qrio_cluster::yaml::from_yaml;
use qrio_cluster::ClusterError;
use qrio_loadgen::{LoadgenError, Scenario};

const SPEC: &str = "name = d\nqubits = 2\nqubit 0 t1=1\n";
const JOB: &str = "name: x\nimage: y\nqubits: 2\nstrategy: s\n";
const SCENARIO: &str = "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  \
                        - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n";

/// Each format's parse error as `(line, message)`; anything else fails the
/// test.
fn spec_error(text: &str) -> (usize, String) {
    match from_spec(text) {
        Err(BackendError::SpecParse { line, message }) => (line, message),
        other => panic!("{text:?}: expected a parse error, got {other:?}"),
    }
}

fn job_error(text: &str) -> (usize, String) {
    match from_yaml(text) {
        Err(ClusterError::SpecParse { line, message }) => (line, message),
        other => panic!("{text:?}: expected a parse error, got {other:?}"),
    }
}

fn scenario_error(text: &str) -> (usize, String) {
    match Scenario::from_yaml(text) {
        Err(LoadgenError::ScenarioParse { line, message }) => (line, message),
        other => panic!("{text:?}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn the_same_five_mistakes_read_the_same_in_every_format() {
    // (document, line at fault, key at fault, bad value).
    type Case = (String, usize, &'static str, &'static str);
    type Format = (&'static str, fn(&str) -> (usize, String), [Case; 5]);
    let formats: [Format; 3] = [
        (
            "backend.spec",
            spec_error,
            [
                (format!("{SPEC}qubits = 3\n"), 4, "qubits", ""),
                (format!("{SPEC}colour = red\n"), 4, "colour", ""),
                (SPEC.replace("qubits = 2\n", ""), 0, "qubits", ""),
                (
                    SPEC.replace("qubits = 2", "qubits = two"),
                    2,
                    "qubits",
                    "two",
                ),
                (format!("{SPEC}qubit 1 t1=fast\n"), 4, "t1", "fast"),
            ],
        ),
        (
            "job YAML",
            job_error,
            [
                (format!("{JOB}shots: 1\nshots: 2\n"), 6, "shots", ""),
                (format!("{JOB}colour: red\n"), 5, "colour", ""),
                (JOB.replace("image: y\n", ""), 0, "image", ""),
                (format!("{JOB}shots: many\n"), 5, "shots", "many"),
                (format!("{JOB}minT1Us: fast\n"), 5, "minT1Us", "fast"),
            ],
        ),
        (
            "scenario YAML",
            scenario_error,
            [
                (format!("seed: 1\nseed: 2\n{SCENARIO}"), 2, "seed", ""),
                (format!("colour: red\n{SCENARIO}"), 1, "colour", ""),
                (SCENARIO.replace("    qubits: 4\n", ""), 3, "qubits", ""),
                (format!("seed: many\n{SCENARIO}"), 1, "seed", "many"),
                (
                    SCENARIO.replace("qubits: 4\n", "qubits: 4\n    speed: fast\n"),
                    5,
                    "speed",
                    "fast",
                ),
            ],
        ),
    ];
    for (format, parse, cases) in formats {
        let [duplicate, unknown, missing, bad_integer, bad_number] = cases.map(|case| {
            let (doc, line, key, value) = case;
            let (got_line, message) = parse(&doc);
            assert_eq!(got_line, line, "{format}: {message}");
            (message, key, value)
        });
        let (message, key, _) = duplicate;
        assert!(
            message.starts_with("duplicate ") && message.ends_with(&format!("field '{key}'")),
            "{format}: {message}"
        );
        let (message, key, _) = unknown;
        assert!(
            message.starts_with("unknown ") && message.contains(&format!("field '{key}' (")),
            "{format}: {message}"
        );
        let (message, key, _) = missing;
        assert_eq!(message, format!("missing field '{key}'"), "{format}");
        let (message, key, value) = bad_integer;
        assert_eq!(
            message,
            format!("field '{key}': bad integer '{value}'"),
            "{format}"
        );
        let (message, key, value) = bad_number;
        assert_eq!(
            message,
            format!("field '{key}': bad number '{value}'"),
            "{format}"
        );
    }
    // The untouched documents parse.
    assert!(from_spec(SPEC).is_ok() && from_yaml(JOB).is_ok());
    assert!(Scenario::from_yaml(SCENARIO).is_ok());
}

/// Words of all three grammars plus the punctuation and numbers that steer
/// their readers. Numbers stay short (or too long for any integer) so no
/// document asks for a million-qubit device.
const TOKENS: &[&str] = &[
    "name",
    "qubits",
    "basis_gates",
    "qubit",
    "edge",
    "meta",
    "t1",
    "error",
    "duration",
    "=",
    ":",
    "-",
    "- ",
    "#",
    " #",
    "[",
    "]",
    ",",
    "\"",
    "\\",
    "  ",
    "    ",
    "0",
    "1",
    "7",
    "12",
    "-1",
    "2.5",
    "1e999",
    "nan",
    "99999999999999999999",
    "apiVersion",
    "kind",
    "metadata",
    "spec",
    "image",
    "shots",
    "priority",
    "threads",
    "deadline",
    "retryMaxAttempts",
    "retryBackoff",
    "retryDelay",
    "retryOn",
    "resources",
    "cpuMillis",
    "requirements",
    "minQubits",
    "minT1Us",
    "strategy",
    "strategyParams",
    "edges",
    "fixed",
    "exponential",
    "all",
    "scenario",
    "seed",
    "durationMs",
    "breakers",
    "on",
    "breakerWindow",
    "fleet",
    "tenants",
    "events",
    "device",
    "topology",
    "ring",
    "speed",
    "tenant",
    "min_queue",
    "fidelity",
    "target",
    "circuit",
    "ghz",
    "arrival",
    "bursty",
    "ratePerSec",
    "retryDelayMs",
    "deadlineMs",
    "atMs",
    "kind",
    "drift",
    "outage",
    "faults",
    "errorFactor",
    "downMs",
    "é",
    "\u{2028}",
    "\t",
    "\r",
];

/// Three hostile readings of one sample: the raw bytes as (lossy) text, a
/// soup of grammar tokens, and a valid document with that soup spliced in at
/// an arbitrary character.
fn hostile(bytes: &[u8], picks: &[usize], valid: &str, cut: usize) -> [String; 3] {
    let soup: String = picks
        .iter()
        .flat_map(|&pick| {
            // Always a separator after a token: digits never run together.
            [
                TOKENS[pick % TOKENS.len()],
                if pick % 3 == 0 { "\n" } else { " " },
            ]
        })
        .collect();
    let mut at = cut % (valid.len() + 1);
    while !valid.is_char_boundary(at) {
        at -= 1;
    }
    let spliced = format!("{}{soup}{}", &valid[..at], &valid[at..]);
    [String::from_utf8_lossy(bytes).into_owned(), soup, spliced]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `from_spec` returns a backend or a typed error for any text.
    #[test]
    fn backend_spec_never_panics(
        bytes in vec(0u8..=255, 0..160),
        picks in vec(0usize..10_000, 0..12),
        cut in 0usize..4096,
    ) {
        let valid = format!("{SPEC}edge 0 1 error=0.1 duration=30\nmeta vendor=lab\n");
        for doc in hostile(&bytes, &picks, &valid, cut) {
            if let Ok(backend) = from_spec(&doc) {
                // What parses round-trips through the render side.
                let text = qrio_backend::spec::to_spec(&backend);
                prop_assert_eq!(from_spec(&text).as_ref(), Ok(&backend), "{:?}", doc);
            }
        }
    }

    /// `cluster::yaml::from_yaml` returns a job spec or a typed error.
    #[test]
    fn job_yaml_never_panics(
        bytes in vec(0u8..=255, 0..160),
        picks in vec(0usize..10_000, 0..12),
        cut in 0usize..4096,
    ) {
        let valid = format!(
            "{JOB}retryMaxAttempts: 2\nstrategyParams:\n    target: 0.9\n    edges:\n      - [0, 1]\n"
        );
        for doc in hostile(&bytes, &picks, &valid, cut) {
            if let Err(err) = from_yaml(&doc) {
                prop_assert!(matches!(err, ClusterError::SpecParse { .. }), "{:?}: {}", doc, err);
            }
        }
    }

    /// `Scenario::from_yaml` returns a scenario or a typed error.
    #[test]
    fn scenario_yaml_never_panics(
        bytes in vec(0u8..=255, 0..160),
        picks in vec(0usize..10_000, 0..12),
        cut in 0usize..4096,
    ) {
        let valid = format!(
            "{SCENARIO}    retryMaxAttempts: 3\nevents:\n  - atMs: 1\n    kind: outage\n    \
             device: a\n    downMs: 5\n"
        );
        for doc in hostile(&bytes, &picks, &valid, cut) {
            if let Err(err) = Scenario::from_yaml(&doc) {
                prop_assert!(
                    matches!(
                        err,
                        LoadgenError::ScenarioParse { .. } | LoadgenError::InvalidScenario(_)
                    ),
                    "{:?}: {}",
                    doc,
                    err
                );
            }
        }
    }
}
