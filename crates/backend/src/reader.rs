//! The one reader under QRIO's three line-oriented documents.
//!
//! `backend.spec` ([`crate::spec`]), the job YAML (`qrio_cluster::yaml`) and
//! the loadgen scenario YAML (`qrio_loadgen::scenario`) keep their own
//! grammars — which keys exist, what nests under what, which defaults apply —
//! and share this module for everything below the grammar:
//!
//! * [`lines`] — the significant lines of a document: blank and `#` comment
//!   lines skipped, each [`Line`] carrying its 1-based number, its indent,
//!   whether it opens a `- ` list item, and its trimmed text.
//! * [`Line::key_value`] — one `key <sep> value` split, both sides trimmed.
//! * [`Fields`] — a `key → (value, line)` mapping that rejects duplicates as
//!   they are inserted and whose typed accessors ([`Fields::req`],
//!   [`Fields::opt`], [`Fields::or`], [`Fields::choice`]) *take* what they
//!   read, so [`Fields::finish`] can reject whatever the grammar never asked
//!   for. The keys a grammar reads are the keys it allows; there is no
//!   separate allow-list to keep in step.
//!
//! Every failure is a [`SpecError`] — a line number and a message — which
//! each format converts into its own error variant with `From`. What a
//! duplicate, a missing value, a bad number, a missing field and an unknown
//! field look like is decided here, once.
//!
//! ```
//! use qrio_backend::reader::{lines, Fields};
//!
//! let mut fields = Fields::new("field", 0);
//! for line in lines("# a device\nqubits: 5\nspeed: 2.0\n") {
//!     let (key, value) = line.key_value(':').unwrap();
//!     fields.insert(key, value, line.no).unwrap();
//! }
//! assert_eq!(fields.req::<usize>("qubits"), Ok(5));
//! assert_eq!(fields.or("shots", 64u64), Ok(64));
//! let err = fields.finish("field").unwrap_err();
//! assert_eq!(err.line, 3);
//! assert!(err.message.starts_with("unknown field 'speed'"));
//! ```

use std::collections::btree_map::{BTreeMap, Entry};

/// A line-numbered failure to read a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 when the problem is document-wide).
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl SpecError {
    /// A failure at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        SpecError {
            line,
            message: message.into(),
        }
    }
}

/// One significant line of a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// 1-based line number.
    pub no: usize,
    /// Bytes of leading whitespace.
    pub indent: usize,
    /// Whether the line opens a `- ` list item (the marker is not part of
    /// [`Line::text`]).
    pub item: bool,
    /// The line's text, trimmed.
    pub text: &'a str,
}

/// The significant lines of `text`: blank lines and lines whose first
/// non-blank character is `#` are skipped.
pub fn lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    text.lines().enumerate().filter_map(|(index, raw)| {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return None;
        }
        let (item, text) = match trimmed.strip_prefix("- ") {
            Some(rest) => (true, rest.trim_start()),
            None => (false, trimmed),
        };
        Some(Line {
            no: index + 1,
            indent: raw.len() - raw.trim_start().len(),
            item,
            text,
        })
    })
}

impl<'a> Line<'a> {
    /// A failure on this line.
    pub fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError::new(self.no, message)
    }

    /// Split the line at its first `sep` into a trimmed key and value.
    ///
    /// # Errors
    ///
    /// `unrecognised line` when the line holds no `sep`.
    pub fn key_value(&self, sep: char) -> Result<(&'a str, &'a str), SpecError> {
        let (key, value) = self
            .text
            .split_once(sep)
            .ok_or_else(|| self.err(format!("unrecognised line '{}'", self.text)))?;
        Ok((key.trim(), value.trim()))
    }
}

/// Strip an inline `# comment` from a value. Only a `#` preceded by
/// whitespace (or starting the value) opens a comment, so names containing a
/// bare `#` (e.g. `device: qpu#1`) survive intact — matching YAML's rule.
/// Whether a format has inline comments at all is its grammar's decision.
pub fn strip_inline_comment(value: &str) -> &str {
    let bytes = value.as_bytes();
    for (index, &byte) in bytes.iter().enumerate() {
        if byte == b'#' && (index == 0 || bytes[index - 1].is_ascii_whitespace()) {
            return &value[..index];
        }
    }
    value
}

/// A type a field's text can be read as.
pub trait Value: Sized {
    /// Read `text`, or say what is wrong with it (the accessor prefixes the
    /// field's name and supplies the line).
    ///
    /// # Errors
    ///
    /// A message such as `bad integer 'x'`.
    fn read(text: &str) -> Result<Self, String>;
}

macro_rules! parsed_value {
    ($($ty:ty => $what:literal),* $(,)?) => {$(
        impl Value for $ty {
            fn read(text: &str) -> Result<Self, String> {
                text.parse()
                    .map_err(|_| format!(concat!("bad ", $what, " '{}'"), text))
            }
        }
    )*};
}

parsed_value!(
    u64 => "integer",
    usize => "integer",
    u32 => "integer (at most 4294967295)",
    u8 => "integer (at most 255)",
    f64 => "number",
    bool => "boolean",
);

impl Value for String {
    fn read(text: &str) -> Result<Self, String> {
        Ok(text.to_string())
    }
}

/// The fields of one mapping — a document's top level, a list item, a
/// `k=v` record — each with the line it was written on.
#[derive(Debug)]
pub struct Fields<'a> {
    what: &'a str,
    line: usize,
    entries: BTreeMap<&'a str, (&'a str, usize)>,
    asked: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    /// An empty mapping. `what` names its entries in duplicate errors
    /// (`field`, `item field`, `strategy param`, …); `line` is where the
    /// mapping starts, for missing-field errors (0 for a whole document).
    pub fn new(what: &'a str, line: usize) -> Self {
        Fields {
            what,
            line,
            entries: BTreeMap::new(),
            asked: Vec::new(),
        }
    }

    /// Record `key: value` as written on `line`.
    ///
    /// # Errors
    ///
    /// `duplicate <what> '<key>'` when the key is already present — never
    /// silently last-wins.
    pub fn insert(&mut self, key: &'a str, value: &'a str, line: usize) -> Result<(), SpecError> {
        match self.entries.entry(key) {
            Entry::Occupied(_) => Err(SpecError::new(
                line,
                format!("duplicate {} '{key}'", self.what),
            )),
            Entry::Vacant(slot) => {
                slot.insert((value, line));
                Ok(())
            }
        }
    }

    /// Take `key`'s raw text and line, if present.
    pub fn take(&mut self, key: &'static str) -> Option<(&'a str, usize)> {
        self.asked.push(key);
        self.entries.remove(key)
    }

    /// Take `key` as a `T`, if present.
    ///
    /// # Errors
    ///
    /// `field '<key>': missing value` for an empty value, and
    /// `field '<key>': <what T::read said>` for an unreadable one.
    pub fn opt<T: Value>(&mut self, key: &'static str) -> Result<Option<T>, SpecError> {
        let Some((value, line)) = self.take(key) else {
            return Ok(None);
        };
        if value.is_empty() {
            return Err(SpecError::new(
                line,
                format!("field '{key}': missing value"),
            ));
        }
        T::read(value)
            .map(Some)
            .map_err(|message| SpecError::new(line, format!("field '{key}': {message}")))
    }

    /// Take `key` as a `T`; it must be present.
    ///
    /// # Errors
    ///
    /// As [`Fields::opt`], plus [`Fields::missing`].
    pub fn req<T: Value>(&mut self, key: &'static str) -> Result<T, SpecError> {
        self.opt(key)?.ok_or_else(|| self.missing(key))
    }

    /// Take `key` as a `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// As [`Fields::opt`].
    pub fn or<T: Value>(&mut self, key: &'static str, default: T) -> Result<T, SpecError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Take `key` as one of `table`'s names, if present.
    ///
    /// # Errors
    ///
    /// `unknown <what> '<value>' (a|b|c)` for a value outside the table.
    pub fn choice<T: Copy>(
        &mut self,
        key: &'static str,
        what: &str,
        table: &[(&str, T)],
    ) -> Result<Option<T>, SpecError> {
        let Some((value, line)) = self.take(key) else {
            return Ok(None);
        };
        match table.iter().find(|(name, _)| *name == value) {
            Some(&(_, chosen)) => Ok(Some(chosen)),
            None => {
                let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
                Err(SpecError::new(
                    line,
                    format!("unknown {what} '{value}' ({})", names.join("|")),
                ))
            }
        }
    }

    /// The `missing field '<key>'` failure, at the line the mapping starts.
    pub fn missing(&self, key: &str) -> SpecError {
        SpecError::new(self.line, format!("missing field '{key}'"))
    }

    /// Reject any of `keys` still present: they only mean something beside
    /// a field that is absent, and would otherwise be silently inert.
    ///
    /// # Errors
    ///
    /// `field '<key>': <why>` for the first of `keys` found.
    pub fn forbid(&mut self, keys: &[&str], why: &str) -> Result<(), SpecError> {
        for key in keys {
            if let Some(&(_, line)) = self.entries.get(key) {
                return Err(SpecError::new(line, format!("field '{key}': {why}")));
            }
        }
        Ok(())
    }

    /// Close the mapping: every entry must have been taken.
    ///
    /// # Errors
    ///
    /// `unknown <what> '<key>' (expected one of: …)` for an entry the grammar
    /// never asked for — a typo'd optional field must not be silently
    /// dropped onto its default.
    pub fn finish(self, what: &str) -> Result<(), SpecError> {
        match self.entries.iter().next() {
            None => Ok(()),
            Some((key, &(_, line))) => Err(SpecError::new(
                line,
                format!(
                    "unknown {what} '{key}' (expected one of: {})",
                    self.asked.join(", ")
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_skip_blanks_and_comments_and_keep_numbers() {
        let text =
            "\n# head\nname: x\n\n  - device: a   \n    qubits: 4\n   # inner\n-\n\t- [0, 1]\n";
        let got: Vec<Line<'_>> = lines(text).collect();
        let line = |no, indent, item, text| Line {
            no,
            indent,
            item,
            text,
        };
        assert_eq!(
            got,
            vec![
                line(3, 0, false, "name: x"),
                line(5, 2, true, "device: a"),
                line(6, 4, false, "qubits: 4"),
                line(8, 0, false, "-"),
                line(9, 1, true, "[0, 1]"),
            ]
        );
        assert_eq!(lines("").count(), 0);
        assert_eq!(lines("\r\n  \r\n#x\r\nk = v\r\n").next().unwrap().no, 4);
    }

    #[test]
    fn key_value_splits_at_the_first_separator() {
        let line = lines("  image : qrio/a:1 ").next().unwrap();
        assert_eq!(line.key_value(':'), Ok(("image", "qrio/a:1")));
        assert_eq!(line.key_value('/'), Ok(("image : qrio", "a:1")));
        let err = line.key_value('=').unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.message, "unrecognised line 'image : qrio/a:1'");
        // A value may be empty; a `#` in it is the grammar's business.
        let line = lines("name: a #b").next().unwrap();
        assert_eq!(line.key_value(':'), Ok(("name", "a #b")));
        assert_eq!(
            lines("fleet:").next().unwrap().key_value(':'),
            Ok(("fleet", ""))
        );
    }

    #[test]
    fn inline_comments_strip_only_after_whitespace() {
        assert_eq!(strip_inline_comment("5.0  # rate"), "5.0  ");
        assert_eq!(strip_inline_comment("# all comment"), "");
        assert_eq!(strip_inline_comment("qpu#1"), "qpu#1");
        assert_eq!(strip_inline_comment("qpu#1 # note"), "qpu#1 ");
    }

    fn fields<'a>(pairs: &[(&'a str, &'a str)]) -> Fields<'a> {
        let mut fields = Fields::new("field", 1);
        for (index, (key, value)) in pairs.iter().enumerate() {
            fields.insert(key, value, index + 2).unwrap();
        }
        fields
    }

    #[test]
    fn typed_accessors_take_what_they_read() {
        let mut f = fields(&[
            ("qubits", "5"),
            ("rate", "2.5"),
            ("name", "a #b"),
            ("jitter", "true"),
            ("kind", "ring"),
        ]);
        assert_eq!(f.req::<usize>("qubits"), Ok(5));
        assert_eq!(f.opt::<usize>("qubits"), Ok(None), "taken once");
        assert_eq!(f.or("rate", 1.0), Ok(2.5));
        assert_eq!(f.or("shots", 64u64), Ok(64));
        assert_eq!(f.req::<String>("name"), Ok("a #b".to_string()));
        assert_eq!(f.opt::<bool>("jitter"), Ok(Some(true)));
        assert_eq!(
            f.choice("kind", "topology", &[("line", 1), ("ring", 2)]),
            Ok(Some(2))
        );
        assert_eq!(f.choice("kind", "topology", &[("line", 1)]), Ok(None));
        assert_eq!(f.finish("field"), Ok(()));
    }

    #[test]
    fn every_mistake_is_line_numbered_and_names_the_field() {
        let mut f = fields(&[
            ("count", "many"),
            ("rate", "fast"),
            ("empty", ""),
            ("wide", "4294967296"),
            ("byte", "256"),
            ("neg", "-1"),
            ("flag", "maybe"),
            ("kind", "moebius"),
            ("stray", "1"),
        ]);
        fn err<T>(line: usize, message: &str) -> Result<T, SpecError> {
            Err(SpecError::new(line, message))
        }
        assert_eq!(
            f.req::<u64>("count"),
            err(2, "field 'count': bad integer 'many'")
        );
        assert_eq!(
            f.opt::<f64>("rate"),
            err(3, "field 'rate': bad number 'fast'")
        );
        assert_eq!(f.or("empty", 1u64), err(4, "field 'empty': missing value"));
        assert_eq!(
            f.opt::<u32>("wide"),
            err(
                5,
                "field 'wide': bad integer (at most 4294967295) '4294967296'"
            )
        );
        assert_eq!(
            f.opt::<u8>("byte"),
            err(6, "field 'byte': bad integer (at most 255) '256'")
        );
        assert_eq!(
            f.opt::<usize>("neg"),
            err(7, "field 'neg': bad integer '-1'")
        );
        assert_eq!(
            f.opt::<bool>("flag"),
            err(8, "field 'flag': bad boolean 'maybe'")
        );
        assert_eq!(
            f.choice("kind", "topology", &[("line", 1), ("ring", 2)]),
            err(9, "unknown topology 'moebius' (line|ring)")
        );
        assert_eq!(f.req::<u64>("absent"), err(1, "missing field 'absent'"));
        assert_eq!(
            f.forbid(&["nothing", "stray"], "requires 'anchor'"),
            err(10, "field 'stray': requires 'anchor'")
        );
        assert_eq!(
            f.insert("stray", "2", 11),
            err(11, "duplicate field 'stray'")
        );
        let unknown = f.finish("device field").unwrap_err();
        assert_eq!(unknown.line, 10);
        assert!(
            unknown
                .message
                .starts_with("unknown device field 'stray' (expected one of: count, rate, "),
            "{}",
            unknown.message
        );
    }

    #[test]
    fn raw_take_keeps_empty_values() {
        let mut f = fields(&[("name", "")]);
        assert_eq!(f.take("name"), Some(("", 2)));
        assert_eq!(f.take("name"), None);
    }
}
