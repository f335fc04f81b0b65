use crate::LangError;

/// A lexical token: what it is and the byte offset where it starts. A
/// name, number or string is read back from the source when the parser
/// takes it ([`text_at`]), and a line and column are counted from the
/// offset when something asks ([`position`]). Offsets fit `u32` because
/// [`lex`] refuses a source they could not address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub at: u32,
    pub kind: Tok,
}

const _: () = assert!(size_of::<Token>() == 8);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok {
    Ident,
    Int,
    Str,
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

impl Tok {
    /// The spelling of a keyword or punctuation mark; a name, number,
    /// string or the end of input has none of its own.
    pub fn text(self) -> &'static str {
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
            Tok::Ident | Tok::Int | Tok::Str | Tok::Eof => "",
        }
    }
}

impl Token {
    /// How a diagnostic names this token of `source`.
    pub fn describe(self, source: &str) -> String {
        match self.kind {
            Tok::Ident => format!("identifier `{}`", text_at(source, self.at)),
            Tok::Int => format!("number {}", int_at(source, self.at)),
            Tok::Str => format!("string {:?}", text_at(source, self.at)),
            Tok::Eof => "end of input".into(),
            other => format!("`{}`", other.text()),
        }
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The end of the run of bytes from `i` that `keep` accepts.
fn run_end(bytes: &[u8], i: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| !keep(b))
        .map_or(bytes.len(), |n| i + n)
}

/// The text of the name, number or string literal that starts at byte
/// `at` of a lexed `source`: a string is what stands between its quotes.
pub fn text_at(source: &str, at: u32) -> &str {
    let bytes = source.as_bytes();
    let at = at as usize;
    match bytes.get(at) {
        // Both delimiters of a string are ASCII, so the slice is whole
        // characters.
        Some(b'"') => &source[at + 1..run_end(bytes, at + 1, |b| b != b'"')],
        Some(b) if b.is_ascii_digit() => &source[at..run_end(bytes, at, |b| b.is_ascii_digit())],
        _ => &source[at..run_end(bytes, at, is_word_byte)],
    }
}

/// The value of the number at byte `at` of a lexed `source`.
pub fn int_at(source: &str, at: u32) -> i64 {
    text_at(source, at)
        .parse()
        .expect("`lex` refuses a number past i64")
}

/// The 1-based line and column of byte `at` of `source`. Columns count
/// bytes.
pub fn position(source: &str, at: u32) -> (usize, usize) {
    let before = &source.as_bytes()[..at as usize];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |n| n + 1);
    let lines = before.iter().filter(|&&b| b == b'\n').count();
    (lines + 1, before.len() - line_start + 1)
}

/// A syntax error at byte `at` of `source`.
pub fn syntax_error(source: &str, at: u32, message: String) -> LangError {
    let (line, col) = position(source, at);
    LangError::Syntax { line, col, message }
}

/// Tokenizes SIL source. Comments run from `//` to end of line. Every
/// name, number and string is checked here, so what the parser reads
/// back from the source is always whole.
pub fn lex(source: &str) -> Result<Vec<Token>, LangError> {
    if u32::try_from(source.len()).is_err() {
        return Err(syntax_error(
            source,
            0,
            "source is larger than 4 GiB".into(),
        ));
    }
    let bytes = source.as_bytes();
    // Two bytes a token is what punctuation-heavy SIL comes to; memory
    // reserved past the last token is never touched, and a reservation
    // the system refuses is only a vector that grows as it fills.
    let mut out = Vec::new();
    let _ = out.try_reserve_exact(source.len() / 2 + 1);
    let mut i = 0;
    // The end of input is the end of the source, or the start of a
    // comment that runs to it.
    let mut eof = source.len();

    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            out.push(Token {
                at: i as u32,
                kind: $kind,
            });
            i += $len;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if next == b'/' => {
                let start = i;
                i = run_end(bytes, i, |b| b != b'\n');
                if i == bytes.len() {
                    eof = start;
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
                let j = run_end(bytes, i + 1, |b| b != b'"' && b != b'\n');
                if bytes.get(j) != Some(&b'"') {
                    let message = "unterminated string literal".into();
                    return Err(syntax_error(source, i as u32, message));
                }
                push!(Tok::Str, j + 1 - i);
            }
            c if c.is_ascii_digit() => {
                let j = run_end(bytes, i, |b| b.is_ascii_digit());
                if source[i..j].parse::<i64>().is_err() {
                    return Err(syntax_error(source, i as u32, "number too large".into()));
                }
                push!(Tok::Int, j - i);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let j = run_end(bytes, i, is_word_byte);
                let kind = match &source[i..j] {
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
                    _ => Tok::Ident,
                };
                push!(kind, j - i);
            }
            other => {
                let message = format!("unexpected character `{}`", other as char);
                return Err(syntax_error(source, i as u32, message));
            }
        }
    }
    out.push(Token {
        at: eof as u32,
        kind: Tok::Eof,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token of `src` as its kind and, for a name, number or
    /// string, the text it is read back as.
    fn tokens(src: &str) -> Vec<(Tok, &str)> {
        let text = |t: Token| match t.kind {
            Tok::Ident | Tok::Int | Tok::Str => text_at(src, t.at),
            _ => "",
        };
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, text(t)))
            .collect()
    }

    #[test]
    fn keywords_vs_idents() {
        assert_eq!(
            tokens("cell inv place"),
            vec![
                (Tok::Cell, ""),
                (Tok::Ident, "inv"),
                (Tok::Place, ""),
                (Tok::Eof, "")
            ]
        );
        // `poly` the layer stays an identifier; `polygon` is the shape
        // statement keyword.
        assert_eq!(
            tokens("poly polygon"),
            vec![(Tok::Ident, "poly"), (Tok::Poly, ""), (Tok::Eof, "")]
        );
    }

    #[test]
    fn operators_and_ranges() {
        assert_eq!(
            tokens("0..4 a.b -> - ="),
            vec![
                (Tok::Int, "0"),
                (Tok::DotDot, ""),
                (Tok::Int, "4"),
                (Tok::Ident, "a"),
                (Tok::Dot, ""),
                (Tok::Ident, "b"),
                (Tok::Arrow, ""),
                (Tok::Minus, ""),
                (Tok::Assign, ""),
                (Tok::Eof, ""),
            ]
        );
        // A number stops at its last digit, whatever follows it.
        assert_eq!(
            tokens("12ab"),
            vec![(Tok::Int, "12"), (Tok::Ident, "ab"), (Tok::Eof, "")]
        );
    }

    #[test]
    fn strings() {
        assert_eq!(
            tokens(r#""hello" x"#),
            vec![(Tok::Str, "hello"), (Tok::Ident, "x"), (Tok::Eof, "")]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn comments_and_positions() {
        let src = "a // comment\n  b";
        let toks = lex(src).unwrap();
        assert_eq!(position(src, toks[1].at), (2, 3));
        // The end of input sits where a trailing comment starts.
        let src = "a // comment";
        assert_eq!(position(src, lex(src).unwrap()[1].at), (1, 3));
    }

    #[test]
    fn bad_character() {
        assert!(matches!(lex("a # b"), Err(LangError::Syntax { .. })));
    }
}
