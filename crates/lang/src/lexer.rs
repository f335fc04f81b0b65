use crate::LangError;

/// A lexical token with its source position. Names and strings are
/// slices of the source; positions fit `u32` because [`lex`] refuses a
/// source they could not address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    pub kind: Tok<'a>,
    pub line: u32,
    pub col: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Str(&'a str),
    // Keywords.
    Cell,
    Fn,
    Type,
    Let,
    For,
    In,
    If,
    Else,
    Return,
    Box_,
    Wire,
    Poly,
    Port,
    Place,
    Array,
    At,
    Step,
    Count,
    Rot,
    MirrorX,
    MirrorY,
    True,
    False,
    // Punctuation.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Dot,
    DotDot,
    Arrow,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Eof,
}

impl Tok<'_> {
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("number {v}"),
            Tok::Str(s) => format!("string {s:?}"),
            Tok::Eof => "end of input".into(),
            other => format!("`{}`", other.text()),
        }
    }

    fn text(&self) -> &'static str {
        match self {
            Tok::Cell => "cell",
            Tok::Fn => "fn",
            Tok::Type => "type",
            Tok::Let => "let",
            Tok::For => "for",
            Tok::In => "in",
            Tok::If => "if",
            Tok::Else => "else",
            Tok::Return => "return",
            Tok::Box_ => "box",
            Tok::Wire => "wire",
            Tok::Poly => "poly",
            Tok::Port => "port",
            Tok::Place => "place",
            Tok::Array => "array",
            Tok::At => "at",
            Tok::Step => "step",
            Tok::Count => "count",
            Tok::Rot => "rot",
            Tok::MirrorX => "mirrorx",
            Tok::MirrorY => "mirrory",
            Tok::True => "true",
            Tok::False => "false",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Comma => ",",
            Tok::Semi => ";",
            Tok::Colon => ":",
            Tok::Dot => ".",
            Tok::DotDot => "..",
            Tok::Arrow => "->",
            Tok::Assign => "=",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Bang => "!",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::Ident(_) | Tok::Int(_) | Tok::Str(_) | Tok::Eof => unreachable!(),
        }
    }
}

/// Tokenizes SIL source. Comments run from `//` to end of line.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LangError> {
    let syntax = |line: u32, col: u32, message: String| LangError::Syntax {
        line: line as usize,
        col: col as usize,
        message,
    };
    if u32::try_from(source.len()).is_err() {
        return Err(syntax(1, 1, "source is larger than 4 GiB".into()));
    }
    let bytes = source.as_bytes();
    // Two bytes a token is what punctuation-heavy SIL comes to; memory
    // reserved past the last token is never touched, and a reservation
    // the system refuses is only a vector that grows as it fills.
    let mut out = Vec::new();
    let _ = out.try_reserve_exact(source.len() / 2 + 1);
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            out.push(Token {
                kind: $kind,
                line,
                col,
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        match c {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            c if c.is_ascii_whitespace() => {
                i += 1;
                col += 1;
            }
            b'/' if next == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => push!(Tok::LParen, 1),
            b')' => push!(Tok::RParen, 1),
            b'{' => push!(Tok::LBrace, 1),
            b'}' => push!(Tok::RBrace, 1),
            b'[' => push!(Tok::LBracket, 1),
            b']' => push!(Tok::RBracket, 1),
            b',' => push!(Tok::Comma, 1),
            b';' => push!(Tok::Semi, 1),
            b':' => push!(Tok::Colon, 1),
            b'.' if next == b'.' => push!(Tok::DotDot, 2),
            b'.' => push!(Tok::Dot, 1),
            b'-' if next == b'>' => push!(Tok::Arrow, 2),
            b'-' => push!(Tok::Minus, 1),
            b'+' => push!(Tok::Plus, 1),
            b'*' => push!(Tok::Star, 1),
            b'/' => push!(Tok::Slash, 1),
            b'%' => push!(Tok::Percent, 1),
            b'=' if next == b'=' => push!(Tok::EqEq, 2),
            b'=' => push!(Tok::Assign, 1),
            b'!' if next == b'=' => push!(Tok::NotEq, 2),
            b'!' => push!(Tok::Bang, 1),
            b'<' if next == b'=' => push!(Tok::Le, 2),
            b'<' => push!(Tok::Lt, 1),
            b'>' if next == b'=' => push!(Tok::Ge, 2),
            b'>' => push!(Tok::Gt, 1),
            b'&' if next == b'&' => push!(Tok::AndAnd, 2),
            b'|' if next == b'|' => push!(Tok::OrOr, 2),
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' && bytes[j] != b'\n' {
                    j += 1;
                }
                if bytes.get(j) != Some(&b'"') {
                    return Err(syntax(line, col, "unterminated string literal".into()));
                }
                // Both delimiters are ASCII, so the slice is whole characters.
                let len = j + 1 - i;
                push!(Tok::Str(&source[start..j]), len);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let text = &source[start..j];
                let value: i64 = text
                    .parse()
                    .map_err(|_| syntax(line, col, "number too large".into()))?;
                let len = j - i;
                push!(Tok::Int(value), len);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                let word = &source[start..j];
                let kind = match word {
                    "cell" => Tok::Cell,
                    "fn" => Tok::Fn,
                    "type" => Tok::Type,
                    "let" => Tok::Let,
                    "for" => Tok::For,
                    "in" => Tok::In,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "return" => Tok::Return,
                    "box" => Tok::Box_,
                    "wire" => Tok::Wire,
                    "polygon" => Tok::Poly,
                    "port" => Tok::Port,
                    "place" => Tok::Place,
                    "array" => Tok::Array,
                    "at" => Tok::At,
                    "step" => Tok::Step,
                    "count" => Tok::Count,
                    "rot" => Tok::Rot,
                    "mirrorx" => Tok::MirrorX,
                    "mirrory" => Tok::MirrorY,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    _ => Tok::Ident(word),
                };
                let len = j - i;
                push!(kind, len);
            }
            other => {
                return Err(syntax(
                    line,
                    col,
                    format!("unexpected character `{}`", other as char),
                ));
            }
        }
    }
    out.push(Token {
        kind: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_vs_idents() {
        assert_eq!(
            kinds("cell inv place"),
            vec![Tok::Cell, Tok::Ident("inv"), Tok::Place, Tok::Eof]
        );
        // `poly` the layer stays an identifier; `polygon` is the shape
        // statement keyword.
        assert_eq!(
            kinds("poly polygon"),
            vec![Tok::Ident("poly"), Tok::Poly, Tok::Eof]
        );
    }

    #[test]
    fn operators_and_ranges() {
        assert_eq!(
            kinds("0..4 a.b -> - ="),
            vec![
                Tok::Int(0),
                Tok::DotDot,
                Tok::Int(4),
                Tok::Ident("a"),
                Tok::Dot,
                Tok::Ident("b"),
                Tok::Arrow,
                Tok::Minus,
                Tok::Assign,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn strings() {
        assert_eq!(
            kinds(r#""hello" x"#),
            vec![Tok::Str("hello"), Tok::Ident("x"), Tok::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn comments_and_positions() {
        let toks = lex("a // comment\n  b").unwrap();
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].col, 3);
    }

    #[test]
    fn bad_character() {
        assert!(matches!(lex("a # b"), Err(LangError::Syntax { .. })));
    }
}
