//! The one JSON writer behind every report the workspace emits.
//!
//! [`Json`] streams a document into a `String`: containers are opened and
//! closed explicitly, an object member is [`Json::key`] followed by one
//! value, and commas are placed automatically. String escaping lives here
//! and nowhere else. Finite `f64` values are written with `{:?}` (the
//! shortest form that round-trips, `2000.0` stays `2000.0`); NaN and
//! infinities, which JSON cannot express, are written as `null`.
//!
//! ```
//! use llp_runtime::json::Json;
//! let mut j = Json::new();
//! j.begin_object();
//! j.key("schema").str("demo/v1");
//! j.key("sizes").begin_array().u64(1).u64(2).end_array();
//! j.key("ms").f64(2000.0);
//! j.end_object();
//! assert_eq!(j.finish(), r#"{"schema":"demo/v1","sizes":[1,2],"ms":2000.0}"#);
//! ```

use std::fmt::Write as _;
use std::path::Path;

/// A streaming JSON writer. The caller keeps containers balanced.
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    /// A value was just completed, so the next one needs a comma.
    comma: bool,
}

impl Json {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The document text.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes the document and a trailing newline to `path`, creating
    /// parent directories.
    pub fn write_file(self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.out + "\n")
    }

    /// Starts a value: the separating comma, if one is due.
    fn value(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    fn open(&mut self, c: char) -> &mut Self {
        self.value().push(c);
        self.comma = false;
        self
    }

    fn close(&mut self, c: char) -> &mut Self {
        self.out.push(c);
        self.comma = true;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string, escaping `"`, `\` and U+0000–U+001F.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// Writes a float; non-finite values become `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let _ = write!(self.value(), "{v:?}");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value().push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// Writes `v`, or `null` when it is absent.
    pub fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }
}

/// A strict recursive-descent JSON validator (the RFC 8259 grammar: one
/// value, optionally surrounded by whitespace), the oracle the report
/// writers' tests parse their output with. `Err` holds the byte offset
/// of the first error.
pub fn validate(text: &str) -> Result<(), usize> {
    let b = text.as_bytes();
    let mut i = 0;
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(i)
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while matches!(b.get(*i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *i += 1;
    }
}

/// Consumes byte `c`, or fails at the current offset.
fn eat(b: &[u8], i: &mut usize, c: u8) -> Result<(), usize> {
    if b.get(*i) != Some(&c) {
        return Err(*i);
    }
    *i += 1;
    Ok(())
}

fn digits(b: &[u8], i: &mut usize) -> Result<(), usize> {
    let start = *i;
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
    }
    if *i == start {
        Err(start)
    } else {
        Ok(())
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), usize> {
    skip_ws(b, i);
    let close = match b.get(*i) {
        Some(b'{') => b'}',
        Some(b'[') => b']',
        Some(b'"') => return string(b, i),
        Some(b'-' | b'0'..=b'9') => return number(b, i),
        _ => {
            let rest = &b[*i..];
            let mut words = ["true", "false", "null"].into_iter();
            *i += words
                .find(|w| rest.starts_with(w.as_bytes()))
                .ok_or(*i)?
                .len();
            return Ok(());
        }
    };
    *i += 1;
    skip_ws(b, i);
    if eat(b, i, close).is_ok() {
        return Ok(());
    }
    loop {
        if close == b'}' {
            skip_ws(b, i);
            string(b, i)?;
            skip_ws(b, i);
            eat(b, i, b':')?;
        }
        value(b, i)?;
        skip_ws(b, i);
        if eat(b, i, close).is_ok() {
            return Ok(());
        }
        eat(b, i, b',')?;
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), usize> {
    let _ = eat(b, i, b'-');
    if eat(b, i, b'0').is_err() {
        digits(b, i)?;
    }
    if eat(b, i, b'.').is_ok() {
        digits(b, i)?;
    }
    if eat(b, i, b'e').is_ok() || eat(b, i, b'E').is_ok() {
        let _ = eat(b, i, b'+').or_else(|_| eat(b, i, b'-'));
        digits(b, i)?;
    }
    Ok(())
}

fn string(b: &[u8], i: &mut usize) -> Result<(), usize> {
    eat(b, i, b'"')?;
    loop {
        match b.get(*i) {
            Some(b'"') => {
                *i += 1;
                return Ok(());
            }
            Some(b'\\') => match b.get(*i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 2,
                Some(b'u') if hex4(b.get(*i + 2..*i + 6)) => *i += 6,
                _ => return Err(*i),
            },
            Some(0x20..) => *i += 1,
            _ => return Err(*i), // a raw control character, or no closing quote
        }
    }
}

fn hex4(digits: Option<&[u8]>) -> bool {
    digits.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut j = Json::new();
        j.str(s);
        j.finish()
    }

    fn float(v: f64) -> String {
        let mut j = Json::new();
        j.f64(v);
        j.finish()
    }

    #[test]
    fn control_characters_quote_and_backslash_are_escaped() {
        for c in (0u8..0x20).map(char::from).chain(['"', '\\']) {
            let out = string(&format!("a{c}b"));
            assert_eq!(validate(&out), Ok(()), "{c:?} -> {out}");
        }
        assert_eq!(
            string("\t\n\r\u{1}\u{1f}\"\\"),
            r#""\t\n\r\u0001\u001f\"\\""#
        );
    }

    #[test]
    fn non_ascii_passes_through() {
        let s = "Borůvka → 森 🦀";
        assert_eq!(string(s), format!("\"{s}\""));
    }

    #[test]
    fn floats_are_valid_json_and_non_finite_is_null() {
        assert_eq!(float(2000.0), "2000.0");
        assert_eq!(float(0.1), "0.1");
        for v in [1e-7, 1e21, -0.0, 123.456, f64::MAX, f64::MIN_POSITIVE] {
            let out = float(v);
            assert_eq!(validate(&out), Ok(()), "{v} -> {out}");
            assert_eq!(out.parse::<f64>(), Ok(v), "{out} round-trips");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(float(v), "null");
        }
    }

    #[test]
    fn nesting_and_empty_containers() {
        let mut j = Json::new();
        j.begin_object();
        j.key("a").begin_array().end_array();
        j.key("o").begin_object().end_object();
        j.key("deep").begin_array();
        j.begin_object()
            .key("x")
            .u64(1)
            .key("y")
            .null()
            .end_object();
        j.begin_array().bool(true).bool(false).end_array();
        j.opt_u64(None).opt_u64(Some(7)).end_array();
        j.end_object();
        let out = j.finish();
        let want = r#"{"a":[],"o":{},"deep":[{"x":1,"y":null},[true,false],null,7]}"#;
        assert_eq!(out, want);
        assert_eq!(validate(&out), Ok(()));
    }

    #[test]
    fn validator_is_strict() {
        for good in [
            "0",
            "-1.5E+3",
            "\"\\u00e9\\/\"",
            " [1, {\"a\": [], \"b\": {}}] ",
            "true",
        ] {
            assert_eq!(validate(good), Ok(()), "{good}");
        }
        let bad = [
            "",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{a:1}",
            "\"a\tb\"",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"open",
            "nul",
            "NaN",
            "{} {}",
            "[",
        ];
        for text in bad {
            assert!(validate(text).is_err(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn write_file_creates_parents() {
        let dir = std::env::temp_dir().join(format!("llp-json-{}", std::process::id()));
        let path = dir.join("a/b/report.json");
        let mut j = Json::new();
        j.begin_object().key("k").str("v").end_object();
        j.write_file(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"k\":\"v\"}\n");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
