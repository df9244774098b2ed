//! Rendering and parsing of job specifications as YAML-like documents.
//!
//! The QRIO master server "constructs the Job Yaml file with the properties
//! passed to it" (§3.3). This module produces an equivalent human-readable
//! document for each [`JobSpec`] and can parse it back, so specs can be
//! inspected, stored, or shipped between components as plain text. The QASM
//! payload itself travels in the container image, not the spec, mirroring the
//! paper's design.
//!
//! The strategy section is open: any registry name round-trips, and the typed
//! [`StrategyParams`] are rendered under `strategyParams:` (floats keep a
//! decimal point, text is quoted, edge lists nest one `- [a, b]` item per
//! edge), so user-defined strategies serialize without touching this module.
//!
//! The parse side is this format's *grammar* only — sections, the keys of a
//! job, the open `strategyParams:` bag and its edge lists. Reading lines,
//! fields and typed, line-numbered values (duplicates, missing and unknown
//! fields, bad numbers) is [`qrio_backend::reader`], shared with
//! `backend.spec` and the scenario YAML.

use std::fmt::Write as _;

use qrio_backend::reader::{self, Fields, Line, SpecError, Value};

use crate::error::ClusterError;
use crate::fault::{BackoffPolicy, RetryOn, RetryPolicy};
use crate::job::{DeviceRequirements, JobSpec, ParamValue, StrategyParams, StrategySpec};
use crate::resources::Resources;

/// Render a job spec as a YAML-like document.
pub fn to_yaml(spec: &JobSpec) -> String {
    let mut out = String::new();
    out.push_str("apiVersion: qrio/v1\n");
    out.push_str("kind: QuantumJob\n");
    out.push_str("metadata:\n");
    let _ = writeln!(out, "  name: {}", spec.name);
    out.push_str("spec:\n");
    let _ = writeln!(out, "  image: {}", spec.image);
    let _ = writeln!(out, "  qubits: {}", spec.num_qubits);
    let _ = writeln!(out, "  shots: {}", spec.shots);
    if spec.priority != 0 {
        let _ = writeln!(out, "  priority: {}", spec.priority);
    }
    if spec.threads != 0 {
        let _ = writeln!(out, "  threads: {}", spec.threads);
    }
    if let Some(deadline) = spec.deadline {
        let _ = writeln!(out, "  deadline: {deadline}");
    }
    if let Some(retry) = &spec.retry {
        let _ = writeln!(out, "  retryMaxAttempts: {}", retry.max_attempts);
        match retry.backoff {
            BackoffPolicy::Fixed { delay } => {
                out.push_str("  retryBackoff: fixed\n");
                let _ = writeln!(out, "  retryDelay: {delay}");
            }
            BackoffPolicy::Exponential { base, max, jitter } => {
                out.push_str("  retryBackoff: exponential\n");
                let _ = writeln!(out, "  retryDelay: {base}");
                let _ = writeln!(out, "  retryMaxDelay: {max}");
                let _ = writeln!(out, "  retryJitter: {jitter}");
            }
        }
        let _ = writeln!(out, "  retryOn: {}", render_retry_on(retry.retry_on));
    }
    out.push_str("  resources:\n");
    let _ = writeln!(out, "    cpuMillis: {}", spec.resources.cpu_millis);
    let _ = writeln!(out, "    memoryMib: {}", spec.resources.memory_mib);
    out.push_str("  requirements:\n");
    let write_opt_f = |out: &mut String, key: &str, value: Option<f64>| {
        if let Some(v) = value {
            let _ = writeln!(out, "    {key}: {v}");
        }
    };
    if let Some(q) = spec.requirements.min_qubits {
        let _ = writeln!(out, "    minQubits: {q}");
    }
    write_opt_f(
        &mut out,
        "maxTwoQubitError",
        spec.requirements.max_two_qubit_error,
    );
    write_opt_f(
        &mut out,
        "maxReadoutError",
        spec.requirements.max_readout_error,
    );
    write_opt_f(&mut out, "minT1Us", spec.requirements.min_t1_us);
    write_opt_f(&mut out, "minT2Us", spec.requirements.min_t2_us);
    let _ = writeln!(out, "  strategy: {}", spec.strategy.name);
    if !spec.strategy.params.is_empty() {
        out.push_str("  strategyParams:\n");
        for (key, value) in spec.strategy.params.iter() {
            match value {
                ParamValue::Float(v) => {
                    let _ = writeln!(out, "    {key}: {}", render_float(*v));
                }
                ParamValue::Int(v) => {
                    let _ = writeln!(out, "    {key}: {v}");
                }
                ParamValue::Text(v) => {
                    let _ = writeln!(out, "    {key}: \"{}\"", escape_text(v));
                }
                ParamValue::Edges(edges) => {
                    let _ = writeln!(out, "    {key}:");
                    for (a, b) in edges {
                        let _ = writeln!(out, "      - [{a}, {b}]");
                    }
                }
            }
        }
    }
    out
}

/// Escape a text param so quotes and newlines survive the one-line rendering.
fn escape_text(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Invert [`escape_text`].
fn unescape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Render a float so that it parses back as a float: integral values keep a
/// trailing `.0` to distinguish them from `ParamValue::Int`.
fn render_float(v: f64) -> String {
    let text = format!("{v}");
    if text.contains('.') || text.contains('e') || text.contains("inf") || text.contains("NaN") {
        text
    } else {
        format!("{text}.0")
    }
}

/// Render a [`RetryOn`] class set: the `all` / `faults` / `none` presets when
/// one matches, else a comma-joined class list.
fn render_retry_on(on: RetryOn) -> String {
    if on == RetryOn::all() {
        return "all".into();
    }
    if on == RetryOn::faults_only() {
        return "faults".into();
    }
    let classes: Vec<&str> = [
        (on.transient, "transient"),
        (on.calibration, "calibration"),
        (on.slow, "slow"),
        (on.flap, "flap"),
        (on.execution, "execution"),
    ]
    .into_iter()
    .filter_map(|(enabled, name)| enabled.then_some(name))
    .collect();
    if classes.is_empty() {
        "none".into()
    } else {
        classes.join(",")
    }
}

/// Invert `render_retry_on`.
impl Value for RetryOn {
    fn read(text: &str) -> Result<Self, String> {
        let mut on = RetryOn {
            transient: false,
            calibration: false,
            slow: false,
            flap: false,
            execution: false,
        };
        match text {
            "all" => return Ok(RetryOn::all()),
            "faults" => return Ok(RetryOn::faults_only()),
            "none" => return Ok(on),
            _ => {}
        }
        for class in text.split(',').map(str::trim) {
            match class {
                "transient" => on.transient = true,
                "calibration" => on.calibration = true,
                "slow" => on.slow = true,
                "flap" => on.flap = true,
                "execution" => on.execution = true,
                other => return Err(format!("unknown retry class '{other}'")),
            }
        }
        Ok(on)
    }
}

/// Parse a YAML-like job document produced by [`to_yaml`].
///
/// The parser is intentionally narrow: it understands the structure this crate
/// emits (plus arbitrary indentation within a section, blank lines and `#`
/// comment lines), not arbitrary YAML. The `qasm` field of the returned spec
/// is empty — the circuit travels in the container image. Fields, sections
/// and strategy params may appear at most once; a duplicate is a parse error
/// rather than silently last-wins (a duplicated requirement bound would
/// otherwise loosen the spec without a trace). Values are taken whole: a job
/// named `a #b` keeps its `#`.
///
/// # Errors
///
/// Returns [`ClusterError::SpecParse`] on malformed documents.
pub fn from_yaml(text: &str) -> Result<JobSpec, ClusterError> {
    Ok(read_job(text)?)
}

fn read_job(text: &str) -> Result<JobSpec, SpecError> {
    let mut fields = Fields::new("field", 0);
    let mut sections = Fields::new("section", 0);
    let mut param_keys = Fields::new("strategy param", 0);
    let mut params = StrategyParams::new();
    // Section tracking: once `strategyParams:` is seen, every line indented
    // deeper than it belongs to the params bag (param keys may otherwise
    // collide with top-level spec keys).
    let mut params_indent: Option<usize> = None;
    // While a `key:` param with no inline value is open, `- [a, b]` items
    // accumulate into its edge list.
    let mut open_edges: Option<(&str, Vec<(usize, usize)>)> = None;

    for line in reader::lines(text) {
        let in_params = params_indent.is_some_and(|p| line.indent > p);
        if line.item {
            let edge = read_edge(&line)?;
            match &mut open_edges {
                Some((_, edges)) if in_params => edges.push(edge),
                _ => return Err(line.err(format!("edge '- {}' outside an edge list", line.text))),
            }
            continue;
        }
        // Any other line closes the pending edge list.
        if let Some((key, edges)) = open_edges.take() {
            params.set(key, ParamValue::Edges(edges));
        }
        let (key, value) = line.key_value(':')?;
        if in_params {
            param_keys.insert(key, value, line.no)?;
            if value.is_empty() {
                open_edges = Some((key, Vec::new()));
            } else {
                let parsed = parse_param_value(value)
                    .map_err(|message| line.err(format!("strategy param '{key}': {message}")))?;
                params.set(key, parsed);
            }
            continue;
        }
        params_indent = None;
        match (key, value) {
            ("metadata" | "spec" | "resources" | "requirements" | "strategyParams", "") => {
                sections.insert(key, value, line.no)?;
                if key == "strategyParams" {
                    params_indent = Some(line.indent);
                }
            }
            _ => fields.insert(key, value, line.no)?,
        }
    }
    if let Some((key, edges)) = open_edges.take() {
        params.set(key, ParamValue::Edges(edges));
    }

    fields.take("apiVersion");
    fields.take("kind");
    let retry = match fields.opt("retryMaxAttempts")? {
        Some(max_attempts) => {
            let delay = fields.or("retryDelay", 1)?;
            let max = fields.opt("retryMaxDelay")?;
            let jitter = fields.or("retryJitter", false)?;
            let exponential = fields.choice(
                "retryBackoff",
                "retryBackoff",
                &[("fixed", false), ("exponential", true)],
            )?;
            let backoff = if exponential == Some(true) {
                BackoffPolicy::Exponential {
                    base: delay,
                    max: max.unwrap_or_else(|| delay.saturating_mul(32)),
                    jitter,
                }
            } else {
                BackoffPolicy::Fixed { delay }
            };
            Some(RetryPolicy {
                max_attempts,
                backoff,
                retry_on: fields.opt("retryOn")?.unwrap_or_else(RetryOn::all),
            })
        }
        None => {
            // Retry tuning without a retryMaxAttempts anchor would silently
            // configure nothing — reject instead.
            fields.forbid(
                &[
                    "retryBackoff",
                    "retryDelay",
                    "retryMaxDelay",
                    "retryJitter",
                    "retryOn",
                ],
                "requires 'retryMaxAttempts'",
            )?;
            None
        }
    };
    let spec = JobSpec {
        name: fields.req("name")?,
        image: fields.req("image")?,
        qasm: String::new(),
        num_qubits: fields.req("qubits")?,
        resources: Resources::new(fields.or("cpuMillis", 0)?, fields.or("memoryMib", 0)?),
        requirements: DeviceRequirements {
            min_qubits: fields.opt("minQubits")?,
            max_two_qubit_error: fields.opt("maxTwoQubitError")?,
            max_readout_error: fields.opt("maxReadoutError")?,
            min_t1_us: fields.opt("minT1Us")?,
            min_t2_us: fields.opt("minT2Us")?,
        },
        strategy: StrategySpec {
            name: fields.req("strategy")?,
            params,
        },
        priority: fields.or("priority", 0)?,
        shots: fields.or("shots", 1024)?,
        threads: fields.or("threads", 0)?,
        retry,
        deadline: fields.opt("deadline")?,
    };
    fields.finish("field")?;
    Ok(spec)
}

/// One `- [a, b]` item of an edge list.
fn read_edge(line: &Line<'_>) -> Result<(usize, usize), SpecError> {
    let body = line
        .text
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
        .ok_or_else(|| {
            line.err(format!(
                "edge item '- {}' is not an '[a, b]' pair closed with ']'",
                line.text
            ))
        })?;
    let endpoint = |part: &str| {
        part.trim()
            .parse()
            .map_err(|_| line.err(format!("bad edge endpoint '{}'", part.trim())))
    };
    match body.split_once(',') {
        Some((a, b)) if !b.contains(',') => Ok((endpoint(a)?, endpoint(b)?)),
        _ => Err(line.err(format!(
            "edge item '- {}' must have exactly two endpoints",
            line.text
        ))),
    }
}

impl From<SpecError> for ClusterError {
    fn from(err: SpecError) -> Self {
        ClusterError::SpecParse {
            line: err.line,
            message: err.message,
        }
    }
}

/// Infer the type of an inline param value: quoted -> text, integer-looking ->
/// int, float-looking -> float, anything else -> text.
///
/// # Errors
///
/// Returns a message when a value opens a quote without closing it (or vice
/// versa) — silently treating it as bare text would corrupt the payload on
/// the round trip.
fn parse_param_value(value: &str) -> Result<ParamValue, String> {
    if let Some(rest) = value.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            Some(stripped) => Ok(ParamValue::Text(unescape_text(stripped))),
            None => Err(format!("unterminated quoted value {value}")),
        };
    }
    if value.ends_with('"') {
        return Err(format!("quoted value {value} has no opening quote"));
    }
    if let Ok(int) = value.parse::<u64>() {
        return Ok(ParamValue::Int(int));
    }
    if let Ok(float) = value.parse::<f64>() {
        return Ok(ParamValue::Float(float));
    }
    Ok(ParamValue::Text(value.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            name: "grover-job".into(),
            image: "qrio/grover:1".into(),
            qasm: "OPENQASM 2.0;".into(),
            num_qubits: 3,
            resources: Resources::new(1500, 2048),
            requirements: DeviceRequirements {
                min_qubits: Some(3),
                max_two_qubit_error: Some(0.25),
                max_readout_error: None,
                min_t1_us: Some(50_000.0),
                min_t2_us: None,
            },
            strategy: StrategySpec::fidelity(0.85),
            priority: 0,
            shots: 2048,
            threads: 0,
            retry: None,
            deadline: None,
        }
    }

    #[test]
    fn retry_and_deadline_roundtrip_and_default() {
        // No retry policy / deadline: the fields are omitted entirely.
        let spec = sample_spec();
        let yaml = to_yaml(&spec);
        assert!(!yaml.contains("retry"));
        assert!(!yaml.contains("deadline"));
        let parsed = from_yaml(&yaml).unwrap();
        assert_eq!(parsed.retry, None);
        assert_eq!(parsed.deadline, None);

        // Fixed backoff round-trips.
        let mut spec = sample_spec();
        spec.deadline = Some(500);
        spec.retry = Some(RetryPolicy {
            max_attempts: 3,
            backoff: BackoffPolicy::Fixed { delay: 7 },
            retry_on: RetryOn::faults_only(),
        });
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("deadline: 500"));
        assert!(yaml.contains("retryMaxAttempts: 3"));
        assert!(yaml.contains("retryBackoff: fixed"));
        assert!(yaml.contains("retryOn: faults"));
        let parsed = from_yaml(&yaml).unwrap();
        assert_eq!(parsed.retry, spec.retry);
        assert_eq!(parsed.deadline, Some(500));

        // Exponential backoff with jitter and a custom class set round-trips.
        spec.retry = Some(RetryPolicy {
            max_attempts: 5,
            backoff: BackoffPolicy::Exponential {
                base: 2,
                max: 64,
                jitter: true,
            },
            retry_on: RetryOn {
                transient: true,
                calibration: false,
                slow: true,
                flap: false,
                execution: false,
            },
        });
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("retryBackoff: exponential"));
        assert!(yaml.contains("retryJitter: true"));
        assert!(yaml.contains("retryOn: transient,slow"));
        assert_eq!(from_yaml(&yaml).unwrap().retry, spec.retry);
    }

    #[test]
    fn malformed_retry_fields_are_typed_errors() {
        let base = "name: x\nimage: y\nqubits: 2\nstrategy: fidelity\n";
        for (line, needle) in [
            ("retryMaxAttempts: -1\n", "retryMaxAttempts"),
            ("retryBackoff: quadratic\n", "retryBackoff"),
            ("retryMaxAttempts: 2\nretryJitter: maybe\n", "retryJitter"),
            ("retryMaxAttempts: 2\nretryOn: gamma-rays\n", "retryOn"),
            ("retryDelay: 5\n", "retryMaxAttempts"),
            ("deadline: soon\n", "deadline"),
        ] {
            let doc = format!("{base}{line}");
            match from_yaml(&doc) {
                Err(ClusterError::SpecParse { message, .. }) => assert!(
                    message.contains(needle),
                    "'{line}' error should mention '{needle}', got: {message}"
                ),
                other => panic!("'{line}' must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn yaml_roundtrip_fidelity() {
        let spec = sample_spec();
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("kind: QuantumJob"));
        assert!(yaml.contains("strategy: fidelity"));
        assert!(yaml.contains("target: 0.85"));
        let parsed = from_yaml(&yaml).unwrap();
        assert_eq!(parsed.name, spec.name);
        assert_eq!(parsed.num_qubits, 3);
        assert_eq!(parsed.resources, spec.resources);
        assert_eq!(parsed.requirements.min_qubits, Some(3));
        assert_eq!(parsed.requirements.max_two_qubit_error, Some(0.25));
        assert_eq!(parsed.shots, 2048);
        assert_eq!(parsed.strategy, spec.strategy);
    }

    #[test]
    fn threads_roundtrip_and_default() {
        // threads: 0 (auto) is the default and is omitted from the document.
        let spec = sample_spec();
        let yaml = to_yaml(&spec);
        assert!(!yaml.contains("threads:"));
        assert_eq!(from_yaml(&yaml).unwrap().threads, 0);
        // An explicit worker count round-trips.
        let mut spec = sample_spec();
        spec.threads = 4;
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("threads: 4"));
        assert_eq!(from_yaml(&yaml).unwrap().threads, 4);
    }

    #[test]
    fn priority_roundtrip_and_default() {
        // priority: 0 (the default) is omitted from the document.
        let spec = sample_spec();
        let yaml = to_yaml(&spec);
        assert!(!yaml.contains("priority:"));
        assert_eq!(from_yaml(&yaml).unwrap().priority, 0);
        // A non-default priority round-trips.
        let mut spec = sample_spec();
        spec.priority = 9;
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("priority: 9"));
        assert_eq!(from_yaml(&yaml).unwrap().priority, 9);
        // Out-of-range and malformed priorities are typed errors.
        let base = "name: x\nimage: y\nqubits: 2\nstrategy: fidelity\n";
        for bad in ["256", "-1", "2.5", "max"] {
            let doc = format!("{base}priority: {bad}\n");
            match from_yaml(&doc) {
                Err(ClusterError::SpecParse { line, message }) => {
                    assert_eq!(line, 5, "priority line number for '{bad}'");
                    assert!(
                        message.contains("priority"),
                        "error for '{bad}' names the field: {message}"
                    );
                }
                other => panic!("priority value '{bad}' must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn yaml_roundtrip_topology() {
        let mut spec = sample_spec();
        spec.strategy = StrategySpec::topology(&[(0, 1), (1, 2)], 3);
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("strategy: topology"));
        assert!(yaml.contains("- [0, 1]"));
        let parsed = from_yaml(&yaml).unwrap();
        assert_eq!(parsed.strategy, spec.strategy);
        assert_eq!(
            parsed.strategy.params.get_edges("edges"),
            Some(&[(0, 1), (1, 2)][..])
        );
        assert_eq!(parsed.strategy.params.get_u64("qubits"), Some(3));
    }

    #[test]
    fn yaml_roundtrip_custom_strategy_with_every_param_type() {
        let mut spec = sample_spec();
        spec.strategy = StrategySpec::new("user-defined")
            .with_float("alpha", 1.0)
            .with_param("rounds", ParamValue::Int(7))
            .with_param("mode", ParamValue::Text("strict".into()))
            .with_param("pairs", ParamValue::Edges(vec![(2, 3)]));
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("strategy: user-defined"));
        // Integral floats keep a decimal point so the type round-trips.
        assert!(yaml.contains("alpha: 1.0"));
        assert!(yaml.contains("mode: \"strict\""));
        let parsed = from_yaml(&yaml).unwrap();
        assert_eq!(parsed.strategy, spec.strategy);
    }

    #[test]
    fn text_params_with_quotes_and_newlines_round_trip() {
        let mut spec = sample_spec();
        spec.strategy = StrategySpec::new("escaping").with_param(
            "tricky",
            ParamValue::Text("line one\nsays \"hi\" \\ done".into()),
        );
        let parsed = from_yaml(&to_yaml(&spec)).unwrap();
        assert_eq!(parsed.strategy, spec.strategy);
    }

    #[test]
    fn yaml_roundtrip_weighted_and_min_queue() {
        let mut spec = sample_spec();
        spec.strategy = StrategySpec::weighted(0.9, 1.0, 0.5, 0.25);
        let parsed = from_yaml(&to_yaml(&spec)).unwrap();
        assert_eq!(parsed.strategy, spec.strategy);

        spec.strategy = StrategySpec::min_queue();
        let yaml = to_yaml(&spec);
        assert!(yaml.contains("strategy: min_queue"));
        assert!(!yaml.contains("strategyParams"));
        assert_eq!(from_yaml(&yaml).unwrap().strategy, spec.strategy);
    }

    /// Every malformed `threads:` value surfaces a typed, line-numbered
    /// [`ClusterError::SpecParse`] naming the field — never a panic.
    #[test]
    fn malformed_threads_values_are_typed_errors() {
        let base = "name: x\nimage: y\nqubits: 2\nstrategy: fidelity\n";
        for bad in ["-1", "2.5", "lots", "", "99999999999999999999999999"] {
            let doc = format!("{base}threads: {bad}\n");
            match from_yaml(&doc) {
                Err(ClusterError::SpecParse { line, message }) => {
                    assert_eq!(line, 5, "threads line number for '{bad}'");
                    assert!(
                        message.contains("threads"),
                        "error for '{bad}' names the field: {message}"
                    );
                }
                other => panic!("threads value '{bad}' must be rejected, got {other:?}"),
            }
        }
    }

    /// Malformed strategy params (bad edges, unterminated quotes) surface
    /// typed errors naming the offending construct.
    #[test]
    fn malformed_strategy_params_are_typed_errors() {
        let base = "name: x\nimage: y\nqubits: 2\nstrategy: custom\nstrategyParams:\n";
        let cases = [
            ("    edges:\n      - [0, 1\n", "closed"),
            ("    edges:\n      - [0]\n", "two endpoints"),
            ("    edges:\n      - [0, 1, 2]\n", "two endpoints"),
            ("    edges:\n      - [a, b]\n", "endpoint"),
            ("    mode: \"unterminated\n", "unterminated"),
            ("    mode: terminated\"\n", "opening quote"),
        ];
        for (body, needle) in cases {
            let doc = format!("{base}{body}");
            match from_yaml(&doc) {
                Err(ClusterError::SpecParse { message, .. }) => assert!(
                    message.contains(needle),
                    "'{body}' error should mention '{needle}', got: {message}"
                ),
                other => panic!("param body {body:?} must be rejected, got {other:?}"),
            }
        }
    }

    /// Every scalar field — including requirement bounds, whose silent
    /// last-wins duplication would loosen the spec — is rejected when it
    /// appears twice.
    #[test]
    fn duplicate_fields_are_rejected() {
        let base =
            "name: x\nimage: y\nqubits: 2\nshots: 8\npriority: 3\nthreads: 1\ncpuMillis: 10\n\
                    memoryMib: 10\nminQubits: 1\nmaxTwoQubitError: 0.1\nmaxReadoutError: 0.1\n\
                    minT1Us: 5.0\nminT2Us: 5.0\nstrategy: s\n";
        assert!(from_yaml(base).is_ok(), "each field once parses");
        for field in [
            "name: x",
            "image: y",
            "qubits: 2",
            "shots: 8",
            "priority: 7",
            "threads: 1",
            "cpuMillis: 10",
            "memoryMib: 10",
            "minQubits: 1",
            "maxTwoQubitError: 0.5",
            "maxReadoutError: 0.5",
            "minT1Us: 1.0",
            "minT2Us: 1.0",
            "strategy: s",
        ] {
            let doc = format!("{base}{field}\n");
            match from_yaml(&doc) {
                Err(ClusterError::SpecParse { message, .. }) => {
                    assert!(message.contains("duplicate"), "{field}: {message}");
                }
                other => panic!("duplicate '{field}' must be rejected, got {other:?}"),
            }
        }
    }

    /// Strategy params and the `strategyParams:` header follow the same
    /// no-silent-last-wins rule as scalar fields.
    #[test]
    fn duplicate_strategy_params_are_rejected() {
        let base = "name: x\nimage: y\nqubits: 2\nstrategy: s\nstrategyParams:\n";
        let cases = [
            "    alpha: 1.0\n    alpha: 2.0\n",
            "    edges:\n      - [0, 1]\n    edges:\n      - [1, 2]\n",
            "    alpha: 1.0\n    alpha:\n      - [0, 1]\n",
        ];
        for body in cases {
            let doc = format!("{base}{body}");
            match from_yaml(&doc) {
                Err(ClusterError::SpecParse { message, .. }) => {
                    assert!(message.contains("duplicate"), "{body:?}: {message}");
                }
                other => panic!("{body:?} must be rejected, got {other:?}"),
            }
        }
        // A repeated strategyParams: section header is rejected too.
        let doc = format!("{base}    alpha: 1.0\nstrategyParams:\n    beta: 2.0\n");
        match from_yaml(&doc) {
            Err(ClusterError::SpecParse { message, .. }) => {
                assert!(message.contains("duplicate section"), "{message}");
            }
            other => panic!("repeated strategyParams must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(from_yaml("kind: QuantumJob\n").is_err());
        assert!(from_yaml("name: x\nimage: y\nqubits: abc\nstrategy: fidelity\n").is_err());
        assert!(from_yaml("name: x\nimage: y\nqubits: 2\n").is_err());
        assert!(from_yaml(
            "name: x\nimage: y\nqubits: 2\nstrategy: topology\nstrategyParams:\n    edges:\n      - [0]\n"
        )
        .is_err());
        assert!(from_yaml("what even is this").is_err());
        // An edge item with no open edge list is rejected.
        assert!(from_yaml("name: x\nimage: y\nqubits: 2\nstrategy: t\n- [0, 1]\n").is_err());
    }
}
