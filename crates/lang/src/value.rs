use silc_geom::Point;
use std::fmt;

/// A SIL runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer (lambda distances, counts, ...).
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string (layer names, labels).
    Str(String),
    /// A point on the lambda grid.
    Point(Point),
    /// A list of values.
    List(Vec<Value>),
    /// A record of a user-declared type — the paper's "data type
    /// extension".
    Record {
        /// The declared type's name.
        type_name: String,
        /// Field values in declaration order.
        fields: Vec<(String, Value)>,
    },
}

impl Value {
    /// A short description of the value's type for diagnostics.
    pub fn type_name(&self) -> String {
        match self {
            Value::Int(_) => "int".into(),
            Value::Bool(_) => "bool".into(),
            Value::Str(_) => "string".into(),
            Value::Point(_) => "point".into(),
            Value::List(_) => "list".into(),
            Value::Record { type_name, .. } => type_name.clone(),
        }
    }

    /// A canonical key string used to memoize cell elaborations per
    /// argument tuple.
    pub fn memo_key(&self) -> String {
        match self {
            Value::Int(v) => format!("i{v}"),
            Value::Bool(b) => format!("b{b}"),
            Value::Str(s) => format!("s{s}"),
            Value::Point(p) => format!("p{},{}", p.x, p.y),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(Value::memo_key).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Record { type_name, fields } => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(n, v)| format!("{n}={}", v.memo_key()))
                    .collect();
                format!("{type_name}{{{}}}", inner.join(","))
            }
        }
    }

    /// What a value weighs against the interpreter's value bound: a
    /// string its bytes, a list or a record one plus the weight of
    /// everything in it, anything else one.
    pub(crate) fn size(&self) -> usize {
        match self {
            Value::Str(s) => s.len().max(1),
            Value::List(items) => 1 + items.iter().map(Value::size).sum::<usize>(),
            Value::Record { fields, .. } => 1 + fields.iter().map(|(_, v)| v.size()).sum::<usize>(),
            _ => 1,
        }
    }

    /// True if the value is truthy (`if` condition semantics: only a bool
    /// is accepted, this helper reports the check).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Point view.
    pub fn as_point(&self) -> Option<Point> {
        match self {
            Value::Point(p) => Some(*p),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Point(p) => write!(f, "{p}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Record { type_name, fields } => {
                write!(f, "{type_name} {{")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, " {n}: {v}")?;
                }
                write!(f, " }}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_keys_distinguish_values() {
        let a = Value::Int(4);
        let b = Value::Int(5);
        assert_ne!(a.memo_key(), b.memo_key());
        let l1 = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let l2 = Value::List(vec![Value::Int(12)]);
        assert_ne!(l1.memo_key(), l2.memo_key());
    }

    #[test]
    fn memo_keys_stable_for_equal_values() {
        let r1 = Value::Record {
            type_name: "pt".into(),
            fields: vec![("x".into(), Value::Int(1))],
        };
        let r2 = r1.clone();
        assert_eq!(r1.memo_key(), r2.memo_key());
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_bool(), None);
        assert_eq!(
            Value::Point(Point::new(1, 2)).as_point(),
            Some(Point::new(1, 2))
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Bool(false)]).to_string(),
            "[1, false]"
        );
        let r = Value::Record {
            type_name: "pt".into(),
            fields: vec![("x".into(), Value::Int(1))],
        };
        assert_eq!(r.to_string(), "pt { x: 1 }");
        assert_eq!(r.type_name(), "pt");
    }
}
