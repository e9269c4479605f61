//! The one layout of every `BENCH_*.json` file, with its writer and reader.
//!
//! Every recorded result — the E1–E8 tables, the simulator and service
//! throughput trajectories, the coverage hunts — is a [`Document`]: an
//! experiment name and named [`Section`]s, each a table of string cells
//! with a line saying what it measures and how:
//!
//! ```json
//! {
//!   "experiment": "baseline",
//!   "sections": {
//!     "points": {
//!       "about": "full leader election, all n participate, random adversary; ...",
//!       "header": ["n", "trials", "events", "events_per_sec"],
//!       "rows": [
//!         ["16", "3", "7968", "2493306.7"]
//!       ]
//!     }
//!   }
//! }
//! ```
//!
//! [`Document::render`] is the one writer and [`Document::parse`] the one
//! reader; they round-trip byte for byte. [`record_section`] replaces one
//! section of a file and leaves the others as they were. The workspace
//! builds without registry access, so this is hand-rolled rather than
//! `serde_json`.

use fle_analysis::Table;
use std::fmt::Write as _;
use std::path::Path;

/// One named table of a [`Document`].
#[derive(Debug, Clone)]
pub struct Section {
    /// What the rows measure and how they were measured.
    pub about: String,
    /// The header and the rows; every cell is a string.
    pub table: Table,
}

impl Section {
    /// A section holding `table`, described by `about`.
    pub fn new(about: impl Into<String>, table: Table) -> Self {
        Section {
            about: about.into(),
            table,
        }
    }

    /// The index of the column called `name`.
    fn column(&self, name: &str) -> Result<usize, String> {
        let header = self.table.header();
        header
            .iter()
            .position(|column| column == name)
            .ok_or_else(|| format!("no column {name:?} (the header is {})", header.join(", ")))
    }

    /// The number in column `column` of the first row whose `key_column`
    /// cell is `key`.
    ///
    /// # Errors
    /// When either column or the row is missing, or the cell is not a
    /// number.
    pub fn number(&self, key_column: &str, key: &str, column: &str) -> Result<f64, String> {
        let (key_index, index) = (self.column(key_column)?, self.column(column)?);
        let row = self
            .table
            .rows()
            .iter()
            .find(|row| row[key_index] == key)
            .ok_or_else(|| format!("no row with {key_column} = {key}"))?;
        row[index].parse().map_err(|_| {
            format!(
                "non-numeric cell {:?} in column {column:?} of the row with {key_column} = {key}",
                row[index]
            )
        })
    }
}

/// A whole `BENCH_*.json` file: an experiment and its sections in file
/// order.
#[derive(Debug, Clone)]
pub struct Document {
    /// The experiment's name (`E3`, `baseline`, `service`, ...).
    pub experiment: String,
    /// The named sections, in file order.
    pub sections: Vec<(String, Section)>,
}

impl Document {
    /// A document with no sections yet.
    pub fn new(experiment: impl Into<String>) -> Self {
        Document {
            experiment: experiment.into(),
            sections: Vec::new(),
        }
    }

    /// Replace the section called `name`, or append it when there is none.
    #[must_use]
    pub fn with_section(mut self, name: &str, section: Section) -> Self {
        match self
            .sections
            .iter_mut()
            .find(|(existing, _)| existing == name)
        {
            Some((_, slot)) => *slot = section,
            None => self.sections.push((name.to_string(), section)),
        }
        self
    }

    /// The section called `name`.
    ///
    /// # Errors
    /// When the document has no such section.
    pub fn section(&self, name: &str) -> Result<&Section, String> {
        self.sections
            .iter()
            .find(|(existing, _)| existing == name)
            .map(|(_, section)| section)
            .ok_or_else(|| format!("no section {name:?} in the {} document", self.experiment))
    }

    /// Render the document in the one layout (the inverse of
    /// [`Document::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"{}\",", escape(&self.experiment));
        out.push_str("  \"sections\": {");
        for (index, (name, section)) in self.sections.iter().enumerate() {
            let comma = if index == 0 { "" } else { "," };
            let _ = writeln!(out, "{comma}\n    \"{}\": {{", escape(name));
            let _ = writeln!(out, "      \"about\": \"{}\",", escape(&section.about));
            let _ = writeln!(
                out,
                "      \"header\": {},",
                string_array(section.table.header())
            );
            out.push_str("      \"rows\": [");
            for (row_index, row) in section.table.rows().iter().enumerate() {
                let comma = if row_index == 0 { "" } else { "," };
                let _ = write!(out, "{comma}\n        {}", string_array(row));
            }
            if !section.table.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.sections.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parse a document (the inverse of [`Document::render`]).
    ///
    /// # Errors
    /// A description of the first thing wrong with `text`: a syntax error
    /// or truncation, a field of the wrong type, a missing, repeated or
    /// unexpected field, or a row whose length differs from its header's.
    pub fn parse(text: &str) -> Result<Document, String> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos < text.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        let [experiment, sections] = fields(value, ["experiment", "sections"], "the document")?;
        let Value::Obj(sections) = sections else {
            return Err("the field \"sections\" is not an object".to_string());
        };
        let mut document = Document::new(string(experiment, "the field \"experiment\"")?);
        for (name, value) in sections {
            if document.section(&name).is_ok() {
                return Err(format!("the section {name:?} appears twice"));
            }
            let section =
                parse_section(value).map_err(|error| format!("section {name:?}: {error}"))?;
            document.sections.push((name, section));
        }
        Ok(document)
    }

    /// Write the rendered document to `path`. IO failures are reported to
    /// stderr, not returned: a summary file that cannot be written must not
    /// abort a long experiment run.
    pub fn write(&self, path: &Path) {
        match std::fs::write(path, self.render()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(error) => eprintln!("warning: could not write {}: {error}", path.display()),
        }
    }
}

/// Read and parse the document at `path`.
///
/// # Errors
/// When the file cannot be read or does not parse ([`Document::parse`]).
pub fn read(path: &Path) -> Result<Document, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    Document::parse(&text).map_err(|error| format!("{}: {error}", path.display()))
}

/// Replace the section `name` of the document at `path` and rewrite the
/// file; every other section is kept byte for byte. A missing file becomes
/// a new document for `experiment`.
///
/// # Errors
/// When the existing file cannot be read or does not parse; it is then left
/// as it is.
pub fn record_section(
    path: &Path,
    experiment: &str,
    name: &str,
    section: Section,
) -> Result<(), String> {
    let document = if path.exists() {
        read(path)?
    } else {
        Document::new(experiment)
    };
    document.with_section(name, section).write(path);
    Ok(())
}

/// Escape a string for inclusion in a JSON document.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn string_array(cells: &[String]) -> String {
    let quoted: Vec<String> = cells.iter().map(|c| format!("\"{}\"", escape(c))).collect();
    format!("[{}]", quoted.join(", "))
}

/// A parsed JSON value of the kinds the layout uses.
enum Value {
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Deeper nesting than the layout's four levels is refused rather than
/// recursed into, so no input can exhaust the stack.
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    /// Skip whitespace and consume `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.text.as_bytes().get(self.pos) == Some(&byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(self.unexpected(&format!("'{}'", byte as char)))
    }

    /// An error saying that `wanted` was expected at the current position.
    fn unexpected(&self, wanted: &str) -> String {
        match self.text[self.pos..].chars().next() {
            Some(c) => format!("expected {wanted} at byte {}, found {c:?}", self.pos),
            None => format!("truncated document: expected {wanted} at the end"),
        }
    }

    /// Comma-separated items up to the `close` byte, each read by `item`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        if self.eat(b'"') {
            return self.string().map(Value::Str);
        }
        if self.eat(b'[') {
            let mut items = Vec::new();
            self.items(b']', |parser| {
                items.push(parser.value(depth + 1)?);
                Ok(())
            })?;
            return Ok(Value::Arr(items));
        }
        if self.eat(b'{') {
            let mut entries = Vec::new();
            self.items(b'}', |parser| {
                parser.expect(b'"')?;
                let key = parser.string()?;
                parser.expect(b':')?;
                entries.push((key, parser.value(depth + 1)?));
                Ok(())
            })?;
            return Ok(Value::Obj(entries));
        }
        Err(self.unexpected("a string, array or object"))
    }

    /// The rest of a string whose opening quote was consumed.
    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        let truncated = || format!("truncated document: the string at byte {start} never ends");
        let mut out = String::new();
        let mut chars = self.text[start..].char_indices();
        loop {
            let (offset, c) = chars.next().ok_or_else(truncated)?;
            match c {
                '"' => {
                    self.pos = start + offset + 1;
                    return Ok(out);
                }
                '\\' => {
                    let (_, escaped) = chars.next().ok_or_else(truncated)?;
                    out.push(match escaped {
                        '"' | '\\' | '/' => escaped,
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        // One UTF-16 unit: the writer escapes only control
                        // characters, and writes every other character raw.
                        'u' => hex4(&mut chars).and_then(char::from_u32).ok_or_else(|| {
                            format!("invalid \\u escape in the string at byte {start}")
                        })?,
                        other => {
                            return Err(format!(
                                "invalid escape \\{other} in the string at byte {start}"
                            ))
                        }
                    });
                }
                c if (c as u32) < 0x20 => {
                    return Err(format!(
                        "unescaped control character in the string at byte {start}"
                    ))
                }
                c => out.push(c),
            }
        }
    }
}

/// Four hex digits of a `\u` escape, or `None` if they are not there.
fn hex4(chars: &mut std::str::CharIndices<'_>) -> Option<u32> {
    (0..4).try_fold(0, |code, _| Some(code * 16 + chars.next()?.1.to_digit(16)?))
}

fn string(value: Value, what: &str) -> Result<String, String> {
    match value {
        Value::Str(text) => Ok(text),
        _ => Err(format!("{what} is not a string")),
    }
}

/// The cells of a JSON array of strings.
fn strings(value: Value, what: &str) -> Result<Vec<String>, String> {
    let Value::Arr(items) = value else {
        return Err(format!("{what} is not an array"));
    };
    items
        .into_iter()
        .enumerate()
        .map(|(index, item)| string(item, &format!("cell {index} of {what}")))
        .collect()
}

/// The values of exactly the fields `names` of an object, in that order.
fn fields<const N: usize>(
    value: Value,
    names: [&str; N],
    what: &str,
) -> Result<[Value; N], String> {
    let Value::Obj(entries) = value else {
        return Err(format!("{what} is not an object"));
    };
    let mut found: [Option<Value>; N] = std::array::from_fn(|_| None);
    for (key, value) in entries {
        let slot = names
            .iter()
            .position(|name| *name == key)
            .ok_or_else(|| format!("{what} has an unexpected field {key:?}"))?;
        if found[slot].replace(value).is_some() {
            return Err(format!("{what} has the field {key:?} twice"));
        }
    }
    if let Some(index) = found.iter().position(Option::is_none) {
        return Err(format!("{what} has no field {:?}", names[index]));
    }
    Ok(found.map(|value| value.expect("every field was checked present")))
}

fn parse_section(value: Value) -> Result<Section, String> {
    let [about, header, rows] = fields(value, ["about", "header", "rows"], "the section")?;
    let mut table = Table::new(strings(header, "the header")?);
    let Value::Arr(rows) = rows else {
        return Err("the field \"rows\" is not an array".to_string());
    };
    for (index, row) in rows.into_iter().enumerate() {
        let row = strings(row, &format!("row {index}"))?;
        if row.len() != table.header().len() {
            return Err(format!(
                "row {index} has {} cells but the header has {}",
                row.len(),
                table.header().len()
            ));
        }
        table.add_row(row);
    }
    Ok(Section::new(string(about, "the field \"about\"")?, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        let mut growth = Table::new(["episodes", "features"]);
        growth.add_row(["10", "42"]);
        growth.add_row(["20", "has \"quotes\", a\nnewline, a tab\tand \u{1}"]);
        Document::new("sample")
            .with_section(
                "growth",
                Section::new("how \"growth\" was measured", growth),
            )
            .with_section("empty", Section::new("", Table::new(["a"])))
    }

    fn repo_file(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name)
    }

    #[test]
    fn every_committed_bench_file_parses_and_re_renders_byte_for_byte() {
        for name in [
            "BENCH_baseline.json",
            "BENCH_service.json",
            "BENCH_coverage.json",
        ] {
            let text = std::fs::read_to_string(repo_file(name)).expect("committed file");
            let document = Document::parse(&text).unwrap_or_else(|error| panic!("{name}: {error}"));
            assert!(!document.sections.is_empty(), "{name}");
            assert_eq!(
                document.render(),
                text,
                "{name} must re-render byte for byte"
            );
        }
    }

    #[test]
    fn rendered_documents_parse_back_to_the_same_bytes() {
        let text = sample().render();
        let parsed = Document::parse(&text).expect("own output parses");
        assert_eq!(parsed.render(), text);
        let growth = parsed.section("growth").expect("growth section");
        assert_eq!(growth.about, "how \"growth\" was measured");
        assert_eq!(
            growth.table.rows()[1][1],
            "has \"quotes\", a\nnewline, a tab\tand \u{1}"
        );
        assert!(text.contains("\\u0001"));
        assert_eq!(growth.number("episodes", "10", "features"), Ok(42.0));
        assert!(parsed.section("empty").expect("kept").table.is_empty());
        let none = Document::new("bare").render();
        assert_eq!(Document::parse(&none).expect("parses").render(), none);
    }

    #[test]
    fn escapes_other_writers_use_are_read() {
        let text = r#"{"experiment": "e\u00e9\/😀\b\f", "sections": {}}"#;
        let document = Document::parse(text).expect("parses");
        assert_eq!(document.experiment, "e\u{e9}/\u{1f600}\u{8}\u{c}");
    }

    #[test]
    fn malformed_input_is_an_error_that_names_the_fault() {
        let text = sample().render();
        let cases: Vec<(String, &str)> = vec![
            (text[..text.len() / 2].to_string(), "truncated"),
            (text[..text.len() - 3].to_string(), "truncated"),
            (String::new(), "truncated"),
            (text.replace("\"episodes\", ", "7, "), "expected a string"),
            (
                text.replace("\"about\": \"\",", "\"about\": [],"),
                "\"about\" is not a string",
            ),
            (
                r#"{"experiment": "x", "sections": []}"#.to_string(),
                "\"sections\" is not an object",
            ),
            (r#"{"experiment": "x"}"#.to_string(), "no field \"sections\""),
            (
                r#"{"experiment": "x", "sections": {}, "title": "y"}"#.to_string(),
                "unexpected field \"title\"",
            ),
            (
                r#"{"experiment": "x", "sections": {"s": {"about": "", "header": ["a"], "rows": [["1", "2"]]}}}"#.to_string(),
                "row 0 has 2 cells but the header has 1",
            ),
            (format!("{text}x"), "trailing characters"),
            (r#"{"experiment": "\q"}"#.to_string(), "invalid escape"),
            (r#"{"experiment": "\ud83d"}"#.to_string(), "invalid \\u escape"),
            ("[".repeat(100), "nested deeper"),
        ];
        for (input, fault) in cases {
            let error = Document::parse(&input).err().unwrap_or_else(|| {
                panic!("{input:?} must not parse");
            });
            assert!(error.contains(fault), "{error:?} should mention {fault:?}");
        }
    }

    #[test]
    fn lookups_name_a_missing_section_column_row_or_non_numeric_cell() {
        let document = sample();
        let missing = document.section("kills").expect_err("no such section");
        assert!(missing.contains("no section \"kills\""), "{missing}");
        let growth = document.section("growth").expect("section");
        let column = growth
            .number("episodes", "10", "budget")
            .expect_err("no column");
        assert!(column.contains("no column \"budget\""), "{column}");
        let row = growth
            .number("episodes", "99", "features")
            .expect_err("no row");
        assert!(row.contains("no row with episodes = 99"), "{row}");
        let cell = growth
            .number("episodes", "20", "features")
            .expect_err("text");
        assert!(cell.contains("non-numeric cell"), "{cell}");
    }

    #[test]
    fn recording_a_section_keeps_the_others_byte_for_byte() {
        let path = std::env::temp_dir().join(format!(
            "fle_bench_json_{}_record_section.json",
            std::process::id()
        ));
        sample().write(&path);
        let before = std::fs::read_to_string(&path).expect("written");
        let mut fresh = Table::new(["episodes", "features"]);
        fresh.add_row(["30", "50"]);
        record_section(
            &path,
            "ignored",
            "growth",
            Section::new("new", fresh.clone()),
        )
        .expect("records");
        let after = std::fs::read_to_string(&path).expect("rewritten");
        let empty_section = |text: &str| text[text.find("\"empty\"").expect("kept")..].to_string();
        assert_eq!(empty_section(&after), empty_section(&before));
        let document = Document::parse(&after).expect("parses");
        assert_eq!(document.experiment, "sample");
        assert_eq!(document.section("growth").expect("replaced").about, "new");

        // A new section is appended after the kept ones.
        record_section(&path, "ignored", "kills", Section::new("k", fresh)).expect("records");
        let appended = std::fs::read_to_string(&path).expect("rewritten");
        assert!(appended.starts_with(after.trim_end_matches("\n  }\n}\n")));

        // A malformed file is an error and is left as it is.
        std::fs::write(&path, "{\"experiment\": ").expect("temporary file");
        let error = record_section(&path, "x", "growth", Section::new("", Table::new(["a"])))
            .expect_err("malformed");
        assert!(error.contains("truncated"), "{error}");
        assert_eq!(
            std::fs::read_to_string(&path).expect("kept"),
            "{\"experiment\": "
        );
        std::fs::remove_file(&path).expect("remove temporary file");
    }
}
