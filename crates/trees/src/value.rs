//! Attribute values: the data domain `V` of the paper, plus labelled nulls.
//!
//! The paper treats attribute values as coming from an infinite domain with
//! equality. Data-exchange solutions additionally need *labelled nulls*
//! (fresh values invented for existential variables, as in the relational
//! chase); we give them their own variant so they are cheap to mint and
//! trivially distinct from source data.

use std::fmt;
use std::sync::Arc;

/// A data value attached to a tree node attribute.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A string constant.
    Str(Arc<str>),
    /// An integer constant (convenient for generated workloads).
    Int(i64),
    /// A labelled null `⊥_k`, as produced by the chase for existential
    /// variables. Two nulls are equal iff their labels are equal.
    Null(u64),
}

impl Value {
    /// String-constant constructor.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Integer-constant constructor.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Labelled-null constructor.
    pub fn null(k: u64) -> Self {
        Value::Null(k)
    }

    /// Is this value a labelled null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Is this value a constant (non-null)?
    pub fn is_constant(&self) -> bool {
        !self.is_null()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Null(k) => write!(f, "⊥{k}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Null(k) => write!(f, "_:n{k}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

/// A monotone source of fresh labelled nulls.
#[derive(Debug, Default, Clone)]
pub struct NullFactory {
    next: u64,
}

impl NullFactory {
    /// Creates a factory starting at `⊥0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh null, never returned before by this factory.
    pub fn fresh(&mut self) -> Value {
        let v = Value::Null(self.next);
        self.next += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_compare_by_content() {
        assert_eq!(Value::str("a"), Value::from("a"));
        assert_ne!(Value::str("a"), Value::str("b"));
        assert_eq!(Value::int(3), Value::from(3));
        // Different variants are never equal.
        assert_ne!(Value::str("3"), Value::int(3));
    }

    #[test]
    fn nulls_compare_by_label() {
        assert_eq!(Value::null(0), Value::null(0));
        assert_ne!(Value::null(0), Value::null(1));
        assert!(Value::null(7).is_null());
        assert!(!Value::str("x").is_null());
    }

    #[test]
    fn factory_mints_distinct_nulls() {
        let mut f = NullFactory::new();
        let a = f.fresh();
        let b = f.fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("cs101").to_string(), "cs101");
        assert_eq!(Value::int(-4).to_string(), "-4");
        assert_eq!(Value::null(2).to_string(), "_:n2");
    }
}
