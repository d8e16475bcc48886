//! The spec layer's value tree and typed extraction.
//!
//! [`toml`](super::toml) parses a spec into a generic [`Value`] tree whose
//! nodes carry source line numbers, and the model types extract
//! themselves from that tree through [`FromValue`]. Every failure produces
//! a [`DeError`] carrying the *key path* and *source line* of the
//! offending node, which is what lets `mimo-exp run` report
//! `spec.toml:12: cluster.chips: expected integer, got string "x"` instead
//! of a bare debug print.

use std::fmt;

/// A parsed value plus the 1-based source line it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The value itself.
    pub value: Value,
    /// 1-based line number of the value (or of the table header that
    /// introduced it). `0` means "no source position" (synthetic values).
    pub line: usize,
}

impl Spanned {
    /// Wraps a value with a source line.
    pub fn new(value: Value, line: usize) -> Self {
        Spanned { value, line }
    }
}

/// A self-describing parsed value: the subset of TOML the spec schema
/// uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Array(Vec<Spanned>),
    /// A key-ordered table.
    Table(Table),
}

impl Value {
    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// Short rendering of the value for error messages (strings quoted,
    /// composites summarized).
    pub fn summary(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Str(s) => format!("{s:?}"),
            Value::Array(a) => format!("array of {} items", a.len()),
            Value::Table(t) => format!("table of {} keys", t.len()),
        }
    }
}

/// An insertion-ordered string-keyed table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    entries: Vec<(String, Spanned)>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a key. Returns `false` (leaving the table unchanged) when
    /// the key already exists — callers report the duplicate with their
    /// own source position.
    pub fn insert(&mut self, key: &str, value: Spanned) -> bool {
        if self.get(key).is_some() {
            return false;
        }
        self.entries.push((key.to_string(), value));
        true
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Spanned> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup (used by parsers building nested tables in place).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Spanned> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Iterates `(key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Spanned)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Extracts a required field. The error names the missing or
    /// ill-typed key as `path.key`.
    ///
    /// # Errors
    ///
    /// [`DeError`] when the key is absent or `T` rejects the value.
    pub fn field<T: FromValue>(&self, key: &str, path: &str, table_line: usize) -> DeResult<T> {
        match self.get(key) {
            Some(v) => T::from_value(v, &join(path, key)),
            None => Err(DeError {
                path: join(path, key),
                line: table_line,
                msg: "missing required key".to_string(),
            }),
        }
    }

    /// Extracts an optional field (`Ok(None)` when absent).
    ///
    /// # Errors
    ///
    /// [`DeError`] when the key is present but `T` rejects the value.
    pub fn field_opt<T: FromValue>(&self, key: &str, path: &str) -> DeResult<Option<T>> {
        match self.get(key) {
            Some(v) => T::from_value(v, &join(path, key)).map(Some),
            None => Ok(None),
        }
    }

    /// Extracts a field, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// [`DeError`] when the key is present but `T` rejects the value.
    pub fn field_or<T: FromValue>(&self, key: &str, path: &str, default: T) -> DeResult<T> {
        Ok(self.field_opt(key, path)?.unwrap_or(default))
    }

    /// Rejects keys outside `allowed`, naming the first offender and the
    /// accepted vocabulary — unknown keys are almost always typos.
    ///
    /// # Errors
    ///
    /// [`DeError`] naming the first unknown key.
    pub fn deny_unknown(&self, allowed: &[&str], path: &str) -> DeResult<()> {
        for (key, value) in self.iter() {
            if !allowed.contains(&key) {
                return Err(DeError {
                    path: join(path, key),
                    line: value.line,
                    msg: format!("unknown key (expected one of: {})", allowed.join(", ")),
                });
            }
        }
        Ok(())
    }
}

/// Joins a key onto a dotted path (empty root stays clean).
pub fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// A deserialization failure: where (dotted key path + source line) and
/// what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    /// Dotted key path of the offending node (empty for document-level
    /// errors, e.g. syntax errors).
    pub path: String,
    /// 1-based source line (`0` = unknown).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl DeError {
    /// A document-level error pinned to a source line (syntax errors).
    pub fn at_line(line: usize, msg: impl Into<String>) -> Self {
        DeError {
            path: String::new(),
            line,
            msg: msg.into(),
        }
    }

    /// An error at a key path and line (semantic errors).
    pub fn at(path: impl Into<String>, line: usize, msg: impl Into<String>) -> Self {
        DeError {
            path: path.into(),
            line,
            msg: msg.into(),
        }
    }

    /// A type mismatch at `path`: wanted one type, held another.
    pub fn mismatch(path: &str, v: &Spanned, wanted: &str) -> Self {
        DeError {
            path: path.to_string(),
            line: v.line,
            msg: format!(
                "expected {wanted}, got {} {}",
                v.value.type_name(),
                v.value.summary()
            ),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.path.is_empty()) {
            (0, true) => write!(f, "{}", self.msg),
            (0, false) => write!(f, "{}: {}", self.path, self.msg),
            (_, true) => write!(f, "line {}: {}", self.line, self.msg),
            (_, false) => write!(f, "line {}: {}: {}", self.line, self.path, self.msg),
        }
    }
}

impl std::error::Error for DeError {}

/// Shorthand for deserialization results.
pub type DeResult<T> = Result<T, DeError>;

/// Types extractable from a [`Value`] tree.
pub trait FromValue: Sized {
    /// Extracts `Self` from `v`; `path` names the node for errors.
    ///
    /// # Errors
    ///
    /// [`DeError`] when the value has the wrong shape.
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self>;
}

impl FromValue for bool {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        match v.value {
            Value::Bool(b) => Ok(b),
            _ => Err(DeError::mismatch(path, v, "boolean")),
        }
    }
}

impl FromValue for i64 {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        match v.value {
            Value::Int(i) => Ok(i),
            _ => Err(DeError::mismatch(path, v, "integer")),
        }
    }
}

macro_rules! int_from_value {
    ($($t:ty),*) => {$(
        impl FromValue for $t {
            fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
                let i = i64::from_value(v, path)?;
                <$t>::try_from(i).map_err(|_| {
                    DeError::at(path, v.line, format!(
                        "integer {i} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}

int_from_value!(usize, u64);

impl FromValue for f64 {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        match v.value {
            Value::Float(f) => Ok(f),
            // Integers coerce losslessly enough for config floats.
            Value::Int(i) => Ok(i as f64),
            _ => Err(DeError::mismatch(path, v, "float")),
        }
    }
}

impl FromValue for String {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        match &v.value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::mismatch(path, v, "string")),
        }
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(v: &Spanned, path: &str) -> DeResult<Self> {
        match &v.value {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_value(item, &format!("{path}[{i}]")))
                .collect(),
            _ => Err(DeError::mismatch(path, v, "array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: Value) -> Spanned {
        Spanned::new(v, 3)
    }

    #[test]
    fn primitives_extract_and_mismatch() {
        assert!(bool::from_value(&s(Value::Bool(true)), "k").unwrap());
        assert_eq!(i64::from_value(&s(Value::Int(-2)), "k").unwrap(), -2);
        assert_eq!(usize::from_value(&s(Value::Int(7)), "k").unwrap(), 7);
        assert_eq!(f64::from_value(&s(Value::Int(7)), "k").unwrap(), 7.0);
        assert_eq!(f64::from_value(&s(Value::Float(1.5)), "k").unwrap(), 1.5);
        let err = usize::from_value(&s(Value::Int(-1)), "a.b").unwrap_err();
        assert!(err.to_string().contains("a.b"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = String::from_value(&s(Value::Int(1)), "name").unwrap_err();
        assert!(err.to_string().contains("expected string"), "{err}");
    }

    #[test]
    fn vec_paths_are_indexed() {
        let arr = s(Value::Array(vec![
            s(Value::Int(1)),
            s(Value::Str("x".into())),
        ]));
        let err = Vec::<i64>::from_value(&arr, "list").unwrap_err();
        assert_eq!(err.path, "list[1]");
    }

    #[test]
    fn table_fields_and_unknown_keys() {
        let mut t = Table::new();
        assert!(t.insert("a", s(Value::Int(1))));
        assert!(!t.insert("a", s(Value::Int(2))), "duplicate rejected");
        assert_eq!(t.field::<i64>("a", "", 1).unwrap(), 1);
        assert_eq!(t.field_or::<i64>("b", "", 9).unwrap(), 9);
        let err = t.field::<i64>("missing", "run", 5).unwrap_err();
        assert_eq!(err.path, "run.missing");
        assert_eq!(err.line, 5);
        assert!(t.deny_unknown(&["a"], "").is_ok());
        let err = t.deny_unknown(&["z"], "run").unwrap_err();
        assert_eq!(err.path, "run.a");
        assert!(err.msg.contains("unknown key"), "{}", err.msg);
    }
}
