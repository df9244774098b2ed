//! The diagnostic framework: stable lint codes, severities, source locations
//! and a [`Report`] that renders human-readable text or JSON.
//!
//! Every check in this crate reports through these types, so tooling (the
//! `qrio-lint` binary, CI, the admission gate) can treat all pass families
//! uniformly: filter by severity, count, serialize, or fail a build.

use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` means the subject is wrong — a job built from it would fail or
/// silently compute garbage. `Warning` means it is suspicious or wasteful but
/// executable. Tools may escalate warnings (`--deny-warnings`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious or wasteful, but not fatal.
    Warning,
    /// Definitely wrong; the subject cannot work as written.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

macro_rules! lint_codes {
    ($(($variant:ident, $code:literal, $severity:ident, $summary:literal),)*) => {
        /// The stable identity of one lint. Codes are never reused or
        /// renumbered; retired lints leave a hole.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintCode {
            $(
                #[doc = $summary]
                $variant,
            )*
        }

        impl LintCode {
            /// Every lint code, in numeric order.
            pub const ALL: &'static [LintCode] = &[$(LintCode::$variant,)*];

            /// The stable `QLnnnn` identifier.
            pub fn code(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $code,)*
                }
            }

            /// The default severity of the lint.
            pub fn default_severity(self) -> Severity {
                match self {
                    $(LintCode::$variant => Severity::$severity,)*
                }
            }

            /// A one-line description of what the lint detects.
            pub fn summary(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $summary,)*
                }
            }
        }
    };
}

lint_codes! {
    // Circuit lints (QL00xx).
    (UncoupledTwoQubitGate, "QL0001", Error,
     "two-qubit gate on a physical qubit pair the target device does not couple"),
    (GateOutsideBasis, "QL0002", Error,
     "gate not in the target device's basis gate set"),
    (WidthExceedsCapacity, "QL0003", Error,
     "circuit needs more qubits than the target device (or any fleet device) has"),
    (NonCliffordForStabilizer, "QL0004", Warning,
     "non-Clifford gate in a circuit bound for the stabilizer engine"),
    (DeadQubit, "QL0005", Warning,
     "declared qubit never touched by any instruction"),
    (GateAfterMeasurement, "QL0006", Warning,
     "operation on a qubit after its terminal measurement with no reset"),
    (NoMeasurements, "QL0007", Warning,
     "circuit has no measurements, so sampling it yields no classical data"),
    (MidCircuitForcesReplay, "QL0008", Warning,
     "reset, or work on a measured qubit, forces the simulator off the batched Pauli-frame path onto per-shot replay"),
    // Spec and scenario lints (QL01xx).
    (ScenarioInvalid, "QL0100", Error,
     "scenario failed to parse or validate"),
    (UnsatisfiableRequirements, "QL0101", Error,
     "device requirements that no device of the declared fleet satisfies"),
    (UnknownStrategyParam, "QL0102", Warning,
     "strategy parameter not recognized by the registered strategy"),
    (EventOutsideHorizon, "QL0103", Warning,
     "scenario event timestamped at or after the arrival horizon"),
    (FleetOverloaded, "QL0104", Warning,
     "offered load exceeds the fleet's service capacity, so queues never drain"),
    // State-machine verification (QL02xx).
    (UnreachableState, "QL0201", Error,
     "lifecycle state unreachable from the initial state"),
    (TerminalHasExit, "QL0202", Error,
     "terminal lifecycle state with an outgoing transition"),
    (NoPathToTerminal, "QL0203", Error,
     "non-terminal lifecycle state from which no terminal state is reachable"),
    // Watch-log auditing (QL03xx).
    (NonDenseSequence, "QL0301", Error,
     "watch-log sequence numbers are not dense from zero"),
    (BrokenEventChain, "QL0302", Error,
     "event's `from` state disagrees with the job's previous `to` state"),
    (IllegalTransition, "QL0303", Error,
     "observed transition outside the JobState legality table"),
    (JobLost, "QL0304", Error,
     "job never reached a terminal state by the end of the run"),
    (DoubleRunning, "QL0305", Error,
     "job re-entered Running without an intervening Retrying decision"),
    (NonMonotoneAttempts, "QL0306", Error,
     "Retrying events' attempt counters do not increase by one per attempt"),
    (EventAfterTerminal, "QL0307", Error,
     "event recorded for a job after it reached a terminal state"),
    (TimeRanBackwards, "QL0308", Error,
     "watch-log timestamps decrease along the sequence, though the one clock only moves forward"),
    (BackoffCutShort, "QL0309", Error,
     "retry re-queued as \"backoff elapsed\" before the backoff its Retrying event announced had elapsed"),
    // Durability-journal lints (QL04xx).
    (TornTailRecord, "QL0401", Warning,
     "journal ends in a torn (truncated or corrupt) tail record that recovery will discard"),
    (SnapshotBeyondLogHead, "QL0402", Error,
     "snapshot claims an event cursor beyond the events the journal has seen"),
    (RecordVersionMismatch, "QL0403", Error,
     "journal record carries a format version this build cannot decode"),
    (MalformedJournal, "QL0404", Error,
     "file is not a QRIO journal or its header/records are structurally invalid"),
    // Fault-tolerance configuration lints (QL05xx).
    (RetryNeverRuns, "QL0500", Error,
     "retry policy allows zero attempts, so the job can never execute"),
    (BackoffOutlivesDeadline, "QL0501", Warning,
     "worst-case retry backoff extends past the job's deadline, so late attempts are dead on arrival"),
    (FaultRateSaturated, "QL0502", Warning,
     "chaos fault rates sum to 1.0 or more, so every attempt fails and no work can complete"),
    (BreakerThresholdsInverted, "QL0503", Error,
     "circuit-breaker thresholds are inverted or degenerate, so the breaker can never work as configured"),
    // Control-plane envelope-trace lints (QL06xx).
    (EnvelopeSeqGap, "QL0600", Error,
     "per-node envelope sequence numbers are not dense, so a control-plane message was lost or reordered"),
    (ReportForUnboundJob, "QL0601", Error,
     "agent reported a phase verdict for a job no Run command in the trace ever dispatched to it"),
    (CommandAfterCordon, "QL0602", Warning,
     "orchestrator sent a Run command to a node after cordoning it and before any uncordon"),
    (EnvelopeVersionMismatch, "QL0603", Error,
     "envelope frame carries a wire-format version this build does not speak"),
    (MalformedEnvelopeTrace, "QL0604", Error,
     "envelope trace is not a QRIOPROT frame stream or a frame is corrupt past repair"),
    (RunAlreadyInFlight, "QL0605", Error,
     "orchestrator sent a Run command to a node before the Phase report answering its previous Run"),
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Where a diagnostic points: a named subject (a scenario file, a circuit, a
/// state machine, a watch log) plus an optional finer-grained context (an
/// instruction, a tenant, an event index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// The analyzed subject, e.g. `scenarios/cloud.yaml` or `circuit 'ghz-8'`.
    pub subject: String,
    /// A finer position inside the subject, e.g. `instruction 12: cx q3, q7`.
    pub context: Option<String>,
}

impl Location {
    /// A location naming only the subject.
    pub fn subject(subject: impl Into<String>) -> Self {
        Location {
            subject: subject.into(),
            context: None,
        }
    }

    /// A location with a finer context inside the subject.
    pub fn at(subject: impl Into<String>, context: impl Into<String>) -> Self {
        Location {
            subject: subject.into(),
            context: Some(context.into()),
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.context {
            Some(context) => write!(f, "{}: {}", self.subject, context),
            None => f.write_str(&self.subject),
        }
    }
}

/// One finding: a lint code, a severity, a human message and a location.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable lint identity.
    pub code: LintCode,
    /// Severity (defaults to the code's default, but passes may escalate).
    pub severity: Severity,
    /// What is wrong, in one sentence.
    pub message: String,
    /// Where it is wrong.
    pub location: Location,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: LintCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            location,
        }
    }

    /// Override the severity (e.g. escalate a warning for an unbounded run).
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} ({})",
            self.severity, self.code, self.message, self.location
        )
    }
}

/// An ordered collection of diagnostics with rendering and counting helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Append every diagnostic of an iterator.
    pub fn extend(&mut self, diagnostics: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// All diagnostics, in insertion order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the report holds no diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether the report should fail a build: any error, or any diagnostic
    /// at all when `deny_warnings` is set.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        if deny_warnings {
            !self.is_clean()
        } else {
            self.error_count() > 0
        }
    }

    /// Whether any diagnostic carries the given code.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Render the report as compiler-style text, one line per diagnostic,
    /// followed by a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for diagnostic in &self.diagnostics {
            out.push_str(&diagnostic.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Render the report as a self-contained JSON document (stable key order,
    /// no external dependencies), suitable for CI artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tool\": \"qrio-lint\",\n  \"diagnostics\": [");
        for (index, diagnostic) in self.diagnostics.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"code\": {}, ",
                json_string(diagnostic.code.code())
            ));
            out.push_str(&format!(
                "\"severity\": {}, ",
                json_string(&diagnostic.severity.to_string())
            ));
            out.push_str(&format!(
                "\"subject\": {}, ",
                json_string(&diagnostic.location.subject)
            ));
            match &diagnostic.location.context {
                Some(context) => out.push_str(&format!("\"context\": {}, ", json_string(context))),
                None => out.push_str("\"context\": null, "),
            }
            out.push_str(&format!(
                "\"message\": {}",
                json_string(&diagnostic.message)
            ));
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"errors\": {},\n  \"warnings\": {}\n}}\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

/// Escape a string as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", ch as u32)),
            ch => out.push(ch),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_stable_and_sorted() {
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes must be unique and in numeric order");
        for code in codes {
            assert!(code.starts_with("QL") && code.len() == 6, "bad code {code}");
        }
    }

    #[test]
    fn report_counts_and_failure_policy() {
        let mut report = Report::new();
        assert!(report.is_clean());
        assert!(!report.fails(false));
        assert!(!report.fails(true));
        report.push(Diagnostic::new(
            LintCode::DeadQubit,
            Location::subject("circuit 'c'"),
            "qubit 3 is never used",
        ));
        assert_eq!(report.warning_count(), 1);
        assert!(!report.fails(false));
        assert!(report.fails(true));
        report.push(Diagnostic::new(
            LintCode::UncoupledTwoQubitGate,
            Location::at("circuit 'c'", "instruction 2"),
            "cx on (0, 5)",
        ));
        assert_eq!(report.error_count(), 1);
        assert!(report.fails(false));
        assert!(report.has_code(LintCode::UncoupledTwoQubitGate));
        assert!(!report.has_code(LintCode::FleetOverloaded));
    }

    #[test]
    fn severity_can_be_escalated() {
        let diag = Diagnostic::new(
            LintCode::FleetOverloaded,
            Location::subject("scenario 'x'"),
            "load 1.2x capacity",
        )
        .with_severity(Severity::Error);
        assert_eq!(diag.severity, Severity::Error);
    }

    #[test]
    fn human_rendering_is_one_line_per_diagnostic() {
        let mut report = Report::new();
        report.push(Diagnostic::new(
            LintCode::NoMeasurements,
            Location::subject("circuit 'c'"),
            "no measurements",
        ));
        let text = report.render_human();
        assert!(text.contains("warning[QL0007] no measurements (circuit 'c')"));
        assert!(text.ends_with("0 error(s), 1 warning(s)\n"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut report = Report::new();
        report.push(Diagnostic::new(
            LintCode::GateOutsideBasis,
            Location::at("file \"a\".yaml", "line\n2"),
            "bad \\ gate",
        ));
        let json = report.to_json();
        assert!(json.contains("\"code\": \"QL0002\""));
        assert!(json.contains("\\\"a\\\""));
        assert!(json.contains("line\\n2"));
        assert!(json.contains("bad \\\\ gate"));
        assert!(json.contains("\"errors\": 1"));
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let json = Report::new().to_json();
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"errors\": 0"));
    }
}
