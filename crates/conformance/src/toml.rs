//! A hand-rolled parser for the TOML subset the scenario DSL uses.
//!
//! The build environment is fully offline (see `third_party/README.md`),
//! so scenarios are parsed with this ~200-line recursive-descent parser
//! instead of a `toml` crate. Supported: `[table]` and `[[array-of-table]]` headers,
//! bare keys, strings, integers (with `_` separators), floats, booleans,
//! single-line arrays, and `#` comments. That is the whole DSL; anything
//! else is a parse error with a line number.

use std::fmt;

/// A parsed scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic (double-quoted) string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// The integer value, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

/// One `[path]` or `[[path]]` table: its dotted path, the line of its
/// header, and the key/value pairs it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Dotted table path (`""` for the implicit root table).
    pub path: String,
    /// 1-based line number of the table header.
    pub line: usize,
    entries: Vec<(String, Value)>,
}

impl Table {
    /// The value of `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All keys in declaration order (used to reject unknown keys).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// A parsed document: tables in declaration order. Repeated `[[path]]`
/// headers produce one `Table` each.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    tables: Vec<Table>,
}

impl Document {
    /// Parses `text`.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its 1-based line number.
    pub fn parse(text: &str) -> Result<Document, ParseError> {
        let mut tables = vec![Table {
            path: String::new(),
            line: 0,
            entries: Vec::new(),
        }];
        // Paths already declared with a `[path]` (singleton) header: a
        // later `[[path]]` would silently shadow or be shadowed by it,
        // depending on which accessor the consumer uses, so both
        // mixings are hard errors.
        let mut singleton_paths: Vec<String> = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line_no = index + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let path = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| ParseError::new(line_no, "unterminated [[table]] header"))?
                    .trim();
                validate_path(path, line_no)?;
                if singleton_paths.iter().any(|p| p == path) {
                    return Err(ParseError::with_kind(
                        line_no,
                        ParseErrorKind::DuplicateTable,
                        format!("[[{path}]] conflicts with earlier [{path}] header"),
                    ));
                }
                tables.push(Table {
                    path: path.to_string(),
                    line: line_no,
                    entries: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix('[') {
                let path = rest
                    .strip_suffix(']')
                    .ok_or_else(|| ParseError::new(line_no, "unterminated [table] header"))?
                    .trim();
                validate_path(path, line_no)?;
                if tables.iter().any(|t| t.path == path) {
                    return Err(ParseError::with_kind(
                        line_no,
                        ParseErrorKind::DuplicateTable,
                        format!("table [{path}] defined twice (use [[{path}]] for lists)"),
                    ));
                }
                singleton_paths.push(path.to_string());
                tables.push(Table {
                    path: path.to_string(),
                    line: line_no,
                    entries: Vec::new(),
                });
            } else {
                let (key, value) = line.split_once('=').ok_or_else(|| {
                    ParseError::new(line_no, format!("expected `key = value`, got `{line}`"))
                })?;
                let key = key.trim();
                validate_key(key, line_no)?;
                let value = parse_value(value.trim(), line_no)?;
                let table = tables.last_mut().expect("root table always present");
                if table.get(key).is_some() {
                    return Err(ParseError::with_kind(
                        line_no,
                        ParseErrorKind::DuplicateKey,
                        format!("duplicate key `{key}`"),
                    ));
                }
                table.entries.push((key.to_string(), value));
            }
        }
        Ok(Document { tables })
    }

    /// The unique table at `path`, if any.
    #[must_use]
    pub fn table(&self, path: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.path == path)
    }

    /// Every table at `path` (the `[[path]]` case), in order.
    pub fn tables<'a>(&'a self, path: &'a str) -> impl Iterator<Item = &'a Table> {
        self.tables.iter().filter(move |t| t.path == path)
    }

    /// All table paths that actually contain entries or were explicitly
    /// declared (used to reject unknown sections).
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.tables
            .iter()
            .filter(|t| t.line > 0 || !t.entries.is_empty())
            .map(|t| t.path.as_str())
    }
}

/// Broad classification of a [`ParseError`], so tools layered on top of
/// the parser (the lint engine in particular) can map duplication errors
/// to a dedicated lint code without string-matching the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The same key appeared twice in one table.
    DuplicateKey,
    /// A table path was declared twice, or `[path]` and `[[path]]`
    /// headers were mixed for the same path.
    DuplicateTable,
    /// Any other syntax error.
    Syntax,
}

/// A syntax error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input (0 for end-of-input errors).
    pub line: usize,
    /// Broad error class (duplication vs. plain syntax).
    pub kind: ParseErrorKind,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError::with_kind(line, ParseErrorKind::Syntax, message)
    }

    fn with_kind(line: usize, kind: ParseErrorKind, message: impl Into<String>) -> Self {
        ParseError {
            line,
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Removes a `#` comment, ignoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn validate_path(path: &str, line: usize) -> Result<(), ParseError> {
    if path.is_empty() || path.split('.').any(|part| !is_bare_key(part)) {
        return Err(ParseError::new(
            line,
            format!("invalid table path `{path}`"),
        ));
    }
    Ok(())
}

fn validate_key(key: &str, line: usize) -> Result<(), ParseError> {
    if !is_bare_key(key) {
        return Err(ParseError::new(line, format!("invalid key `{key}`")));
    }
    Ok(())
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_value(text: &str, line: usize) -> Result<Value, ParseError> {
    if text.is_empty() {
        return Err(ParseError::new(line, "missing value after `=`"));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| ParseError::new(line, "unterminated string"))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(ParseError::new(
                line,
                "escapes and embedded quotes are not supported",
            ));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| ParseError::new(line, "unterminated array (arrays are single-line)"))?
            .trim();
        let mut items = Vec::new();
        if !inner.is_empty() {
            for item in inner.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue; // tolerate a trailing comma
                }
                let value = parse_value(item, line)?;
                if matches!(value, Value::Array(_)) {
                    return Err(ParseError::new(line, "nested arrays are not supported"));
                }
                items.push(value);
            }
        }
        return Ok(Value::Array(items));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits: String = text.chars().filter(|c| *c != '_').collect();
    if let Ok(v) = digits.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = digits.parse::<f64>() {
        return Ok(Value::Float(v));
    }
    Err(ParseError::new(
        line,
        format!("cannot parse value `{text}` (string / int / float / bool / array)"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_keys_and_scalars() {
        let doc = Document::parse(
            "top = 1\n\
             [cluster]\n\
             nodes = 4            # comment\n\
             name = \"cold # start\"\n\
             ratio = 0.5\n\
             flag = true\n\
             delays = [0, 3, 6, 9]\n",
        )
        .unwrap();
        assert_eq!(doc.table("").unwrap().get("top").unwrap().as_int(), Some(1));
        let cluster = doc.table("cluster").unwrap();
        assert_eq!(cluster.get("nodes").unwrap().as_int(), Some(4));
        assert_eq!(
            cluster.get("name").unwrap().as_str(),
            Some("cold # start"),
            "comment stripping must respect strings"
        );
        assert_eq!(cluster.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(
            cluster.get("delays").unwrap(),
            &Value::Array(vec![
                Value::Int(0),
                Value::Int(3),
                Value::Int(6),
                Value::Int(9)
            ])
        );
        assert!(matches!(cluster.get("ratio"), Some(Value::Float(_))));
    }

    #[test]
    fn array_of_tables_accumulates() {
        let doc =
            Document::parse("[[fault.coupler]]\nchannel = 0\n[[fault.coupler]]\nchannel = 1\n")
                .unwrap();
        let channels: Vec<i64> = doc
            .tables("fault.coupler")
            .map(|t| t.get("channel").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(channels, [0, 1]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Document::parse("[ok]\nkey 4\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("key = value"), "{err}");

        let err = Document::parse("x = \"unterminated\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = Document::parse("x = zebra\n").unwrap_err();
        assert!(err.message.contains("zebra"), "{err}");
    }

    #[test]
    fn duplicate_tables_and_keys_are_rejected() {
        let err = Document::parse("[a]\n[a]\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DuplicateTable);
        let err = Document::parse("[a]\nk = 1\nk = 2\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DuplicateKey);
        let err = Document::parse("x 1\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn mixing_singleton_and_array_headers_is_rejected() {
        // `[a]` followed by `[[a]]`: previously the second header was
        // silently accepted and `Document::table` returned whichever
        // came first.
        let err = Document::parse("[a]\nk = 1\n[[a]]\nk = 2\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DuplicateTable);
        assert_eq!(err.line, 3);
        // `[[a]]` followed by `[a]` hits the existing defined-twice check.
        let err = Document::parse("[[a]]\nk = 1\n[a]\nk = 2\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DuplicateTable);
    }

    #[test]
    fn underscored_integers_parse() {
        let doc = Document::parse("bits = 115_000\n").unwrap();
        assert_eq!(
            doc.table("").unwrap().get("bits").unwrap().as_int(),
            Some(115_000)
        );
    }
}
