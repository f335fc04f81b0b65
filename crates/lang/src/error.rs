use std::error::Error;
use std::fmt;

/// Error produced while compiling or running a SIL program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LangError {
    /// Lexical or grammatical problem.
    Syntax {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// Description.
        message: String,
    },
    /// A runtime problem during elaboration, annotated with the source
    /// line of the statement being executed.
    Eval {
        /// 1-based line.
        line: usize,
        /// Description.
        message: String,
    },
    /// A cell elaboration recursed into itself.
    RecursiveCell {
        /// The cell at fault.
        name: String,
    },
}

/// What the parser's and the evaluator's steps return. A failure ends the
/// compile, so it is boxed: a result costs what its value does, not what
/// an error's text does.
pub(crate) type Fallible<T> = Result<T, Box<LangError>>;

impl LangError {
    /// Creates an evaluation error.
    pub fn eval(line: usize, message: impl Into<String>) -> LangError {
        LangError::Eval {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Syntax { line, col, message } => {
                write!(f, "syntax error at {line}:{col}: {message}")
            }
            LangError::Eval { line, message } => {
                write!(f, "error on line {line}: {message}")
            }
            LangError::RecursiveCell { name } => {
                write!(f, "cell `{name}` places itself (directly or indirectly)")
            }
        }
    }
}

impl Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = LangError::Syntax {
            line: 4,
            col: 9,
            message: "expected `;`".into(),
        };
        assert!(e.to_string().contains("4:9"));
        let e = LangError::eval(7, "division by zero");
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LangError>();
    }
}
