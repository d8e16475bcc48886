//! A line-tracked TOML reader producing the spec layer's
//! [`Value`] tree.
//!
//! The container vendors no `toml` crate, so `mimo-exp run` parses specs
//! with this reader instead. It covers the subset the spec schema uses —
//! bare keys, `[table]` / `[[array-of-tables]]` headers (dotted), basic
//! strings, integers, floats, booleans, inline arrays (multiline) and
//! inline tables — and every node remembers its 1-based source line, so
//! type errors downstream read `spec.toml:12: cluster.chips: expected
//! integer, got string "four"`.
//!
//! Intentionally *not* covered (each fails with a pointed error rather
//! than silently misparsing): dotted keys in assignments, quoted keys,
//! literal/multiline strings, and datetimes.

use super::value::{join, DeError, DeResult, Spanned, Table, Value};

/// Parses a TOML document into a line-spanned table.
///
/// # Errors
///
/// [`DeError`] with the offending line (and key path, for duplicate-key
/// and header errors) on any syntax error.
pub fn parse(src: &str) -> DeResult<Table> {
    Parser::new(src).document()
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

/// Where the next `key = value` lands: a dotted table path, entered via
/// `[path]` (the table itself) or `[[path]]` (its newest element).
#[derive(Default)]
struct Cursor {
    path: Vec<String>,
}

impl Parser {
    fn new(src: &str) -> Self {
        Parser {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
        }
    }

    fn document(&mut self) -> DeResult<Table> {
        let mut root = Table::new();
        // Dotted paths of headers seen explicitly, so `[a]` twice is a
        // duplicate but `[a.b]` after `[a]` (or vice versa) is fine.
        let mut defined: Vec<String> = Vec::new();
        let mut cursor = Cursor::default();
        loop {
            self.skip_trivia();
            match self.peek() {
                None => return Ok(root),
                Some('[') => self.header(&mut root, &mut defined, &mut cursor)?,
                Some(_) => {
                    let (key, value) = self.key_value()?;
                    let target = navigate(&mut root, &cursor.path)?;
                    let line = value.line;
                    if !target.insert(&key, value) {
                        let path = join(&cursor.path.join("."), &key);
                        return Err(DeError::at(path, line, "duplicate key"));
                    }
                    self.end_of_line("after the value")?;
                }
            }
        }
    }

    /// Parses `[a.b]` or `[[a.b]]` and repoints the cursor.
    fn header(
        &mut self,
        root: &mut Table,
        defined: &mut Vec<String>,
        cursor: &mut Cursor,
    ) -> DeResult<()> {
        let line = self.line;
        self.bump(); // '['
        let is_array = self.peek() == Some('[');
        if is_array {
            self.bump();
        }
        let mut path = Vec::new();
        loop {
            self.skip_inline_ws();
            path.push(self.bare_key()?);
            self.skip_inline_ws();
            match self.peek() {
                Some('.') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    break;
                }
                _ => {
                    return Err(DeError::at_line(
                        self.line,
                        "expected '.' or ']' in a table header",
                    ))
                }
            }
        }
        if is_array {
            match self.peek() {
                Some(']') => {
                    self.bump();
                }
                _ => {
                    return Err(DeError::at_line(
                        self.line,
                        "an array-of-tables header needs a closing ']]'",
                    ))
                }
            }
        }
        self.end_of_line("after the table header")?;

        let dotted = path.join(".");
        let (parent_path, last) = path.split_at(path.len() - 1);
        let parent = navigate(root, parent_path)?;
        let last = &last[0];
        if is_array {
            match parent.get_mut(last) {
                None => {
                    let elem = Spanned::new(Value::Table(Table::new()), line);
                    let arr = Spanned::new(Value::Array(vec![elem]), line);
                    parent.insert(last, arr);
                }
                Some(node) => match &mut node.value {
                    Value::Array(items) => {
                        items.push(Spanned::new(Value::Table(Table::new()), line))
                    }
                    _ => {
                        return Err(DeError::at(
                            dotted,
                            line,
                            format!(
                                "[[...]] conflicts with an earlier {}",
                                node.value.type_name()
                            ),
                        ))
                    }
                },
            }
        } else {
            match parent.get_mut(last) {
                None => {
                    parent.insert(last, Spanned::new(Value::Table(Table::new()), line));
                }
                // Re-opening is only legal for tables created implicitly
                // by a deeper header (`[a.b]` before `[a]`).
                Some(node) => match &node.value {
                    Value::Table(_) if !defined.contains(&dotted) => {}
                    Value::Table(_) => return Err(DeError::at(dotted, line, "duplicate table")),
                    other => {
                        return Err(DeError::at(
                            dotted,
                            line,
                            format!("[...] conflicts with an earlier {}", other.type_name()),
                        ))
                    }
                },
            }
            defined.push(dotted);
        }
        cursor.path = path;
        Ok(())
    }

    fn key_value(&mut self) -> DeResult<(String, Spanned)> {
        let key = self.bare_key()?;
        self.skip_inline_ws();
        match self.peek() {
            Some('=') => {
                self.bump();
            }
            Some('.') => {
                return Err(DeError::at_line(
                    self.line,
                    format!("dotted key {key:?}.…: not supported; use a [section] header"),
                ))
            }
            _ => {
                return Err(DeError::at_line(
                    self.line,
                    format!("expected '=' after key {key:?}"),
                ))
            }
        }
        self.skip_inline_ws();
        let value = self.value()?;
        Ok((key, value))
    }

    fn value(&mut self) -> DeResult<Spanned> {
        let line = self.line;
        match self.peek() {
            Some('"') => Ok(Spanned::new(Value::Str(self.basic_string()?), line)),
            Some('\'') => Err(DeError::at_line(
                line,
                "literal strings ('...') are not supported; use \"...\"",
            )),
            Some('[') => self.array(),
            Some('{') => self.inline_table(),
            Some(c) if c == 't' || c == 'f' => {
                let word = self.bare_word();
                match word.as_str() {
                    "true" => Ok(Spanned::new(Value::Bool(true), line)),
                    "false" => Ok(Spanned::new(Value::Bool(false), line)),
                    w => Err(DeError::at_line(
                        line,
                        format!("expected a value, got {w:?}"),
                    )),
                }
            }
            Some(c) if c == '+' || c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(DeError::at_line(
                line,
                format!(
                    "expected a value (string, number, boolean, array, or inline table), got {c:?}"
                ),
            )),
            None => Err(DeError::at_line(line, "expected a value, got end of file")),
        }
    }

    fn array(&mut self) -> DeResult<Spanned> {
        let line = self.line;
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_trivia(); // arrays may span lines
            match self.peek() {
                Some(']') => {
                    self.bump();
                    return Ok(Spanned::new(Value::Array(items), line));
                }
                None => return Err(DeError::at_line(self.line, "unterminated array")),
                Some(_) => {
                    items.push(self.value()?);
                    self.skip_trivia();
                    match self.peek() {
                        Some(',') => {
                            self.bump();
                        }
                        Some(']') => {}
                        _ => {
                            return Err(DeError::at_line(
                                self.line,
                                "expected ',' or ']' in an array",
                            ))
                        }
                    }
                }
            }
        }
    }

    fn inline_table(&mut self) -> DeResult<Spanned> {
        let line = self.line;
        self.bump(); // '{'
        let mut table = Table::new();
        self.skip_inline_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Spanned::new(Value::Table(table), line));
        }
        loop {
            self.skip_inline_ws();
            let (key, value) = self.key_value()?;
            let vline = value.line;
            if !table.insert(&key, value) {
                return Err(DeError::at(key, vline, "duplicate key in inline table"));
            }
            self.skip_inline_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    return Ok(Spanned::new(Value::Table(table), line));
                }
                _ => {
                    return Err(DeError::at_line(
                        self.line,
                        "expected ',' or '}' in an inline table",
                    ))
                }
            }
        }
    }

    fn number(&mut self) -> DeResult<Spanned> {
        let line = self.line;
        let mut text = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' | '+' | '-' | '_' => text.push(c),
                '.' | 'e' | 'E' => {
                    is_float = true;
                    text.push(c);
                }
                _ => break,
            }
            self.bump();
        }
        let clean: String = text.chars().filter(|&c| c != '_').collect();
        if is_float {
            clean
                .parse::<f64>()
                .map(|f| Spanned::new(Value::Float(f), line))
                .map_err(|_| DeError::at_line(line, format!("invalid float {text:?}")))
        } else {
            clean
                .parse::<i64>()
                .map(|i| Spanned::new(Value::Int(i), line))
                .map_err(|_| DeError::at_line(line, format!("invalid integer {text:?}")))
        }
    }

    fn basic_string(&mut self) -> DeResult<String> {
        let line = self.line;
        self.bump(); // opening '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(DeError::at_line(line, "unterminated string")),
                Some('\n') => {
                    return Err(DeError::at_line(
                        line,
                        "strings may not span lines (multiline \"\"\" is not supported)",
                    ))
                }
                Some('"') => {
                    self.bump();
                    return Ok(out);
                }
                Some('\\') => {
                    self.bump();
                    let esc = self
                        .peek()
                        .ok_or_else(|| DeError::at_line(line, "unterminated string"))?;
                    self.bump();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d =
                                    self.peek().and_then(|c| c.to_digit(16)).ok_or_else(|| {
                                        DeError::at_line(line, "\\u needs four hex digits")
                                    })?;
                                self.bump();
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).ok_or_else(|| {
                                DeError::at_line(line, format!("\\u{code:04x} is not a character"))
                            })?);
                        }
                        c => {
                            return Err(DeError::at_line(
                                line,
                                format!("unknown string escape \\{c}"),
                            ))
                        }
                    }
                }
                Some(c) => {
                    self.bump();
                    out.push(c);
                }
            }
        }
    }

    fn bare_key(&mut self) -> DeResult<String> {
        if self.peek() == Some('"') {
            return Err(DeError::at_line(
                self.line,
                "quoted keys are not supported; use bare keys (A-Z a-z 0-9 _ -)",
            ));
        }
        let word = self.bare_word();
        if word.is_empty() {
            return Err(DeError::at_line(
                self.line,
                format!(
                    "expected a key, got {:?}",
                    self.peek().map(String::from).unwrap_or_default()
                ),
            ));
        }
        Ok(word)
    }

    fn bare_word(&mut self) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }

    /// Requires nothing but trailing whitespace/comment on the line.
    fn end_of_line(&mut self, what: &str) -> DeResult<()> {
        self.skip_inline_ws();
        if self.peek() == Some('#') {
            while let Some(c) = self.peek() {
                if c == '\n' {
                    break;
                }
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(DeError::at_line(
                self.line,
                format!("expected end of line {what}, got {c:?}"),
            )),
        }
    }

    /// Skips spaces, tabs, CRs, newlines, and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\r' | '\n') => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r')) {
            self.bump();
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) {
        if self.peek() == Some('\n') {
            self.line += 1;
        }
        self.pos += 1;
    }
}

/// Walks `path` down from `root`, creating intermediate tables; a
/// segment holding an array-of-tables descends into its newest element.
fn navigate<'t>(root: &'t mut Table, path: &[String]) -> DeResult<&'t mut Table> {
    let mut current = root;
    for (i, seg) in path.iter().enumerate() {
        if current.get(seg).is_none() {
            current.insert(seg, Spanned::new(Value::Table(Table::new()), 0));
        }
        let node = current.get_mut(seg).expect("just inserted");
        let line = node.line;
        current = match &mut node.value {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut().map(|s| &mut s.value) {
                Some(Value::Table(t)) => t,
                _ => {
                    return Err(DeError::at(
                        path[..=i].join("."),
                        line,
                        "cannot extend a non-table array with a header",
                    ))
                }
            },
            other => {
                return Err(DeError::at(
                    path[..=i].join("."),
                    line,
                    format!("key already holds a {}", other.type_name()),
                ))
            }
        };
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'t>(t: &'t Table, key: &str) -> &'t Spanned {
        t.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    #[test]
    fn scalars_parse_with_lines() {
        let doc = parse("a = 1\nb = 1.5\nc = \"hi\"\nd = true\n").unwrap();
        assert_eq!(get(&doc, "a").value, Value::Int(1));
        assert_eq!(get(&doc, "a").line, 1);
        assert_eq!(get(&doc, "b").value, Value::Float(1.5));
        assert_eq!(get(&doc, "c").value, Value::Str("hi".into()));
        assert_eq!(get(&doc, "c").line, 3);
        assert_eq!(get(&doc, "d").value, Value::Bool(true));
    }

    #[test]
    fn tables_and_arrays_of_tables_nest() {
        let doc = parse("top = 0\n[a.b]\nx = 1\n[[a.items]]\ny = 1\n[[a.items]]\ny = 2\n").unwrap();
        let a = match &get(&doc, "a").value {
            Value::Table(t) => t,
            v => panic!("{v:?}"),
        };
        let b = match &get(a, "b").value {
            Value::Table(t) => t,
            v => panic!("{v:?}"),
        };
        assert_eq!(get(b, "x").value, Value::Int(1));
        let items = match &get(a, "items").value {
            Value::Array(v) => v,
            v => panic!("{v:?}"),
        };
        assert_eq!(items.len(), 2);
        match &items[1].value {
            Value::Table(t) => assert_eq!(get(t, "y").value, Value::Int(2)),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn multiline_arrays_and_inline_tables() {
        let doc = parse("xs = [\n  1, # one\n  2,\n]\nt = { k = \"v\", n = 3 }\n").unwrap();
        match &get(&doc, "xs").value {
            Value::Array(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[1].line, 3);
            }
            v => panic!("{v:?}"),
        }
        match &get(&doc, "t").value {
            Value::Table(t) => assert_eq!(get(t, "n").value, Value::Int(3)),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn errors_carry_the_line() {
        let err = parse("a = 1\nb = \n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!((err.line, err.path.as_str()), (2, "a"));
        let err = parse("[t]\nx = 1\n[t]\n").unwrap_err();
        assert_eq!((err.line, err.path.as_str()), (3, "t"));
        let err = parse("a = \"unterminated\n").unwrap_err();
        assert!(err.msg.contains("span lines"), "{}", err.msg);
        let err = parse("a.b = 1\n").unwrap_err();
        assert!(err.msg.contains("section"), "{}", err.msg);
        let err = parse("x = 1 y = 2\n").unwrap_err();
        assert!(err.msg.contains("end of line"), "{}", err.msg);
    }

    #[test]
    fn negative_and_underscored_numbers() {
        let doc = parse("a = -3\nb = 1_000\nc = -2.5e2\n").unwrap();
        assert_eq!(get(&doc, "a").value, Value::Int(-3));
        assert_eq!(get(&doc, "b").value, Value::Int(1000));
        assert_eq!(get(&doc, "c").value, Value::Float(-250.0));
    }

    #[test]
    fn reopening_an_implicit_parent_is_fine() {
        let doc = parse("[a.b]\nx = 1\n[a]\ny = 2\n").unwrap();
        let a = match &get(&doc, "a").value {
            Value::Table(t) => t,
            v => panic!("{v:?}"),
        };
        assert!(a.get("y").is_some() && a.get("b").is_some());
    }
}
