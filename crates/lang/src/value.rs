use silc_geom::Point;
use std::fmt::{self, Write as _};

/// A SIL runtime value. Equal values are the same variant of a cell: the
/// elaborator's memo hashes and compares argument tuples exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

    /// Appends to `out` the text a variant's library name is made from.
    /// Distinct values can share it; the name is made unique by the
    /// library, not by this text.
    pub(crate) fn write_memo_key(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = match self {
            Value::Int(v) => write!(out, "i{v}"),
            Value::Bool(b) => write!(out, "b{b}"),
            Value::Str(s) => write!(out, "s{s}"),
            Value::Point(p) => write!(out, "p{},{}", p.x, p.y),
            Value::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    v.write_memo_key(out);
                }
                out.write_char(']')
            }
            Value::Record { type_name, fields } => {
                let _ = write!(out, "{type_name}{{");
                for (i, (n, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{}{n}=", if i > 0 { "," } else { "" });
                    v.write_memo_key(out);
                }
                out.write_char('}')
            }
        };
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

    /// How many lists and records nest in the value, itself included: 0
    /// for a scalar or a string.
    pub(crate) fn depth(&self) -> usize {
        match self {
            Value::List(items) => 1 + items.iter().map(Value::depth).max().unwrap_or(0),
            Value::Record { fields, .. } => {
                1 + fields.iter().map(|(_, v)| v.depth()).max().unwrap_or(0)
            }
            _ => 0,
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

    fn key(v: &Value) -> String {
        let mut out = String::new();
        v.write_memo_key(&mut out);
        out
    }

    #[test]
    fn memo_keys_distinguish_values() {
        let a = Value::Int(4);
        let b = Value::Int(5);
        assert_ne!(key(&a), key(&b));
        let l1 = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let l2 = Value::List(vec![Value::Int(12)]);
        assert_ne!(key(&l1), key(&l2));
        assert_eq!(key(&l1), "[i1,i2]");
    }

    #[test]
    fn memo_keys_stable_for_equal_values() {
        let r1 = Value::Record {
            type_name: "pt".into(),
            fields: vec![
                ("x".into(), Value::Int(1)),
                ("y".into(), Value::Str("é".into())),
            ],
        };
        let r2 = r1.clone();
        assert_eq!(key(&r1), key(&r2));
        assert_eq!(key(&r1), "pt{x=i1,y=sé}");
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
