use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembled program: a list of `(address, word)` pairs plus the start
/// address (the first `*org`, or 0200).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Memory image.
    pub words: Vec<(u16, u16)>,
    /// Initial program counter.
    pub start: u16,
}

impl Program {
    /// The assembled word at `addr`, if any.
    pub fn word_at(&self, addr: u16) -> Option<u16> {
        self.words.iter().find(|(a, _)| *a == addr).map(|(_, w)| *w)
    }

    /// Number of assembled words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when nothing was assembled.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Error produced by the assembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assembly error on line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

const MEMREF: [(&str, u16); 6] = [
    ("and", 0o0000),
    ("tad", 0o1000),
    ("isz", 0o2000),
    ("dca", 0o3000),
    ("jms", 0o4000),
    ("jmp", 0o5000),
];

const MICRO: [(&str, u16); 19] = [
    ("nop", 0o7000),
    ("cla", 0o7200),
    ("cll", 0o7100),
    ("cma", 0o7040),
    ("cml", 0o7020),
    ("iac", 0o7001),
    ("rar", 0o7010),
    ("ral", 0o7004),
    ("rtr", 0o7012),
    ("rtl", 0o7006),
    ("sma", 0o7500),
    ("sza", 0o7440),
    ("snl", 0o7420),
    ("spa", 0o7510),
    ("sna", 0o7450),
    ("szl", 0o7430),
    ("skp", 0o7410),
    ("osr", 0o7404),
    ("hlt", 0o7402),
];

/// Assembles PAL-style PDP-8 source.
///
/// Syntax:
///
/// * `*400` — set the location counter (octal);
/// * `label,` — define a label at the current location;
/// * `tad X` / `tad i X` — memory-reference instruction, operand a label
///   or octal address, `i` for indirection; the assembler picks page-0 or
///   current-page encoding and rejects off-page references;
/// * `cla cll iac` — operate micro-instructions, OR-combined;
/// * a bare octal number — a data word; a bare label — its address as a
///   data word (a pointer), unless a mnemonic is spelled the same;
/// * `/` starts a comment.
///
/// # Errors
///
/// [`AsmError`] with the offending line: unknown mnemonics, undefined
/// labels, off-page references, illegal group combinations.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    // Pass 1: label addresses.
    let mut labels: HashMap<String, u16> = HashMap::new();
    let mut lc: u16 = 0o200;
    let mut start: Option<u16> = None;
    for (lineno, raw) in source.lines().enumerate() {
        let line = strip(raw);
        if line.is_empty() {
            continue;
        }
        let err = |m: String| AsmError {
            line: lineno + 1,
            message: m,
        };
        let mut rest = line.as_str();
        if let Some(org) = rest.strip_prefix('*') {
            lc = parse_octal(org.trim()).ok_or_else(|| err("bad org address".into()))?;
            if start.is_none() {
                start = Some(lc);
            }
            continue;
        }
        if let Some(comma) = rest.find(',') {
            let label = rest[..comma].trim().to_string();
            if label.is_empty() || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(err(format!("bad label `{label}`")));
            }
            if labels.insert(label.clone(), lc).is_some() {
                return Err(err(format!("label `{label}` defined twice")));
            }
            rest = rest[comma + 1..].trim();
        }
        if !rest.is_empty() {
            lc = lc.wrapping_add(1) & 0o7777;
        }
    }

    // Pass 2: encode.
    let mut words: Vec<(u16, u16)> = Vec::new();
    lc = 0o200;
    for (lineno, raw) in source.lines().enumerate() {
        let line = strip(raw);
        if line.is_empty() {
            continue;
        }
        let err = |m: String| AsmError {
            line: lineno + 1,
            message: m,
        };
        let mut rest = line.as_str();
        if let Some(org) = rest.strip_prefix('*') {
            lc = parse_octal(org.trim()).ok_or_else(|| err("bad org address".into()))?;
            continue;
        }
        if let Some(comma) = rest.find(',') {
            rest = rest[comma + 1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let word = encode_line(rest, lc, &labels).map_err(err)?;
        words.push((lc, word));
        lc = lc.wrapping_add(1) & 0o7777;
    }

    Ok(Program {
        words,
        start: start.unwrap_or(0o200),
    })
}

fn strip(raw: &str) -> String {
    raw.split('/').next().unwrap_or("").trim().to_lowercase()
}

fn parse_octal(s: &str) -> Option<u16> {
    if s.is_empty() || !s.chars().all(|c| ('0'..='7').contains(&c)) {
        return None;
    }
    u16::from_str_radix(s, 8).ok().filter(|&v| v <= 0o7777)
}

fn encode_line(text: &str, lc: u16, labels: &HashMap<String, u16>) -> Result<u16, String> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    debug_assert!(!tokens.is_empty());

    // Data word: octal, or a label standing for its address.
    if let [token] = tokens[..] {
        let mnemonic = MEMREF.iter().chain(&MICRO).any(|(m, _)| *m == token);
        let label = labels.get(token).copied().filter(|_| !mnemonic);
        if let Some(v) = parse_octal(token).or(label) {
            return Ok(v);
        }
    }

    // Memory-reference instruction?
    if let Some(&(_, opcode)) = MEMREF.iter().find(|(m, _)| *m == tokens[0]) {
        let mut idx = 1;
        let mut indirect = 0;
        if tokens.get(idx) == Some(&"i") {
            indirect = 0o400;
            idx += 1;
        }
        let operand = tokens
            .get(idx)
            .ok_or_else(|| format!("`{}` needs an operand", tokens[0]))?;
        if idx + 1 != tokens.len() {
            return Err("trailing junk after operand".into());
        }
        let addr = labels
            .get(*operand)
            .copied()
            .or_else(|| parse_octal(operand))
            .ok_or_else(|| format!("undefined symbol `{operand}`"))?;
        // Pick page encoding.
        if addr < 0o200 {
            Ok(opcode | indirect | addr)
        } else if addr & 0o7600 == lc & 0o7600 {
            Ok(opcode | indirect | 0o200 | (addr & 0o177))
        } else {
            Err(format!(
                "operand {addr:o} is neither on page zero nor on the current page ({:o})",
                lc & 0o7600
            ))
        }
    } else {
        // Operate microcoding: OR the bits, check group compatibility.
        let mut word = 0u16;
        let mut group1 = false;
        let mut group2 = false;
        for t in &tokens {
            let &(_, bits) = MICRO
                .iter()
                .find(|(m, _)| m == t)
                .ok_or_else(|| format!("unknown mnemonic `{t}`"))?;
            match bits & 0o7400 {
                0o7000 => group1 = group1 || bits != 0o7200 && bits != 0o7000,
                _ => group2 = true,
            }
            word |= bits;
        }
        if group1 && group2 {
            return Err("cannot mix operate group 1 and group 2 micro-orders".into());
        }
        Ok(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_words_and_org() {
        let p = assemble("*100\n7777\n0001\n").unwrap();
        assert_eq!(p.words, vec![(0o100, 0o7777), (0o101, 0o0001)]);
        assert_eq!(p.start, 0o100);
    }

    #[test]
    fn memref_page_zero() {
        let p = assemble("*200\ntad 100\n").unwrap();
        assert_eq!(p.word_at(0o200), Some(0o1100));
    }

    #[test]
    fn memref_current_page() {
        let p = assemble("*400\ntad 420\n").unwrap();
        assert_eq!(p.word_at(0o400), Some(0o1220));
    }

    #[test]
    fn indirect_bit() {
        let p = assemble("*200\njmp i 100\n").unwrap();
        assert_eq!(p.word_at(0o200), Some(0o5500));
    }

    #[test]
    fn labels_resolve() {
        let p = assemble(
            "*200
             start, tad val
                    hlt
             val,   0042",
        )
        .unwrap();
        assert_eq!(p.word_at(0o200), Some(0o1202));
        assert_eq!(p.word_at(0o202), Some(0o0042));
    }

    #[test]
    fn label_as_data_word_is_its_address() {
        let p = assemble("cla\ntad i ptr\nhlt\nptr, buf\nbuf, 0042\nhlt, hlt\n").unwrap();
        assert_eq!(p.word_at(0o203), Some(0o204), "ptr holds buf's address");
        assert_eq!(
            p.word_at(0o205),
            Some(0o7402),
            "a mnemonic wins over a label"
        );
        let mut cpu = crate::Pdp8::new();
        cpu.load(&p);
        assert!(cpu.run(10));
        assert_eq!(cpu.ac, 0o42, "tad i ptr reads through the pointer");
        let err = assemble("ptr, nowhere\n").unwrap_err();
        assert_eq!(err.message, "unknown mnemonic `nowhere`");
    }

    #[test]
    fn micro_combination() {
        let p = assemble("*200\ncla cll\ncma iac\n").unwrap();
        assert_eq!(p.word_at(0o200), Some(0o7300));
        assert_eq!(p.word_at(0o201), Some(0o7041));
    }

    #[test]
    fn group_mixing_rejected() {
        let err = assemble("*200\ncma sza\n").unwrap_err();
        assert!(err.message.contains("group"));
    }

    #[test]
    fn cla_legal_in_both_groups() {
        assert!(assemble("*200\ncla sza\n").is_ok());
        assert!(assemble("*200\ncla iac\n").is_ok());
    }

    #[test]
    fn off_page_reference_rejected() {
        let err = assemble("*200\ntad 500\n").unwrap_err();
        assert!(err.message.contains("page"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn undefined_symbol_rejected() {
        let err = assemble("*200\ntad nowhere\n").unwrap_err();
        assert!(err.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble("a, 0001\na, 0002\n").unwrap_err();
        assert!(err.message.contains("twice"));
    }

    #[test]
    fn comments_stripped() {
        let p = assemble("*200 / set origin\nhlt / stop\n").unwrap();
        assert_eq!(p.word_at(0o200), Some(0o7402));
    }

    #[test]
    fn default_start() {
        let p = assemble("hlt\n").unwrap();
        assert_eq!(p.start, 0o200);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }
}
