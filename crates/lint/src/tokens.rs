//! A lightweight Rust tokenizer — just enough lexical structure for
//! pattern-based rules.
//!
//! The rules in [`crate::rules`] match short token sequences
//! (`Instant` `::` `now`, `.` `values` `(`), so the lexer only has to
//! get the *boundaries* right: comments, string/char literals, and raw
//! strings must never leak their contents as identifiers, and every
//! token must carry the line it starts on. It does not classify
//! keywords, parse types, or build a syntax tree — a deliberate trade:
//! the auditor stays a few hundred lines, runs on broken code, and
//! never needs a compiler toolchain at analysis time.
//!
//! Comments are lexed *and kept* (not discarded): the `det-allow`
//! escape pragmas live in them.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `for`, `use`, ...).
    Ident(String),
    /// A single punctuation character (`::` arrives as two `:`).
    Punct(char),
    /// A numeric literal, verbatim (`42`, `0.5`, `1_000`).
    Num(String),
    /// A string or byte-string literal (contents dropped).
    Str,
    /// A character literal (contents dropped).
    Char,
    /// A lifetime (`'a`).
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line.
    pub line: u32,
    /// What was lexed.
    pub kind: TokKind,
}

/// A comment plus the 1-based line it starts on (block comments keep
/// their full text but are attributed to their first line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line.
    pub line: u32,
    /// Comment text, including the `//` / `/*` markers.
    pub text: String,
}

/// The result of lexing one file: code tokens and comments, separately.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

impl Tok {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(s) if s == name)
    }

    /// True if this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes Rust source into tokens and comments.
///
/// # Examples
///
/// ```
/// use skywalker_lint::tokens::{tokenize, TokKind};
///
/// let lexed = tokenize("let t = Instant::now(); // but why\n");
/// assert!(lexed.tokens.iter().any(|t| t.is_ident("Instant")));
/// assert_eq!(lexed.comments.len(), 1);
/// // String contents never become identifiers:
/// let lexed = tokenize(r#"let s = "Instant::now";"#);
/// assert!(!lexed.tokens.iter().any(|t| t.is_ident("Instant")));
/// assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::Str));
/// ```
pub fn tokenize(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances `idx` past a quoted run, honoring backslash escapes and
    // counting newlines; returns the index after the closing quote.
    fn skip_quoted(chars: &[char], mut idx: usize, quote: char, line: &mut u32) -> usize {
        while idx < chars.len() {
            match chars[idx] {
                '\\' => {
                    // An escaped character still counts its newline
                    // (string line-continuations: `\` at end of line).
                    if chars.get(idx + 1) == Some(&'\n') {
                        *line += 1;
                    }
                    idx += 2;
                }
                '\n' => {
                    *line += 1;
                    idx += 1;
                }
                c if c == quote => return idx + 1,
                _ => idx += 1,
            }
        }
        idx
    }

    while i < chars.len() {
        let c = chars[i];
        let start_line = line;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let mut j = i;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: chars[i..j].iter().collect(),
                });
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comments nest in Rust.
                let mut depth = 1u32;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    match (chars[j], chars.get(j + 1)) {
                        ('/', Some('*')) => {
                            depth += 1;
                            j += 2;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            j += 2;
                        }
                        ('\n', _) => {
                            line += 1;
                            j += 1;
                        }
                        _ => j += 1,
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: chars[i..j.min(chars.len())].iter().collect(),
                });
                i = j;
            }
            '"' => {
                i = skip_quoted(&chars, i + 1, '"', &mut line);
                out.tokens.push(Tok {
                    line: start_line,
                    kind: TokKind::Str,
                });
            }
            '\'' => {
                // Lifetime vs char literal: a lifetime is `'` + ident
                // with no closing quote right after one symbol.
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                if next == Some('\\') {
                    // From the backslash, so `'\\'` and `'\''` end at
                    // their own closing quote.
                    i = skip_quoted(&chars, i + 1, '\'', &mut line);
                    out.tokens.push(Tok {
                        line: start_line,
                        kind: TokKind::Char,
                    });
                } else if next.is_some_and(is_ident_start) && after != Some('\'') {
                    let mut j = i + 1;
                    while j < chars.len() && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    i = j;
                    out.tokens.push(Tok {
                        line: start_line,
                        kind: TokKind::Lifetime,
                    });
                } else {
                    i = skip_quoted(&chars, i + 1, '\'', &mut line);
                    out.tokens.push(Tok {
                        line: start_line,
                        kind: TokKind::Char,
                    });
                }
            }
            c if is_ident_start(c) => {
                let mut j = i;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                // Raw / byte string prefixes: r"", r#""#, b"", br"", b''.
                let prefix_ok = matches!(word.as_str(), "r" | "b" | "br" | "rb");
                match chars.get(j) {
                    Some('"') if prefix_ok => {
                        if word.contains('r') {
                            // Raw string: no escapes, scan to the bare
                            // closing quote.
                            let mut k = j + 1;
                            while k < chars.len() && chars[k] != '"' {
                                if chars[k] == '\n' {
                                    line += 1;
                                }
                                k += 1;
                            }
                            i = (k + 1).min(chars.len());
                        } else {
                            // `b"..."` escapes like an ordinary string.
                            i = skip_quoted(&chars, j + 1, '"', &mut line);
                        }
                        out.tokens.push(Tok {
                            line: start_line,
                            kind: TokKind::Str,
                        });
                    }
                    Some('#') if prefix_ok => {
                        // r#"..."# with any number of #.
                        let mut hashes = 0usize;
                        let mut k = j;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            k += 1;
                            let closer: Vec<char> = std::iter::once('"')
                                .chain(std::iter::repeat_n('#', hashes))
                                .collect();
                            while k < chars.len() {
                                if chars[k] == '\n' {
                                    line += 1;
                                }
                                if chars[k..].starts_with(&closer[..]) {
                                    k += closer.len();
                                    break;
                                }
                                k += 1;
                            }
                            i = k;
                            out.tokens.push(Tok {
                                line: start_line,
                                kind: TokKind::Str,
                            });
                        } else {
                            // `r#ident` raw identifier: emit the ident.
                            i = j;
                            out.tokens.push(Tok {
                                line: start_line,
                                kind: TokKind::Ident(word),
                            });
                        }
                    }
                    Some('\'') if word == "b" => {
                        i = skip_quoted(&chars, j + 1, '\'', &mut line);
                        out.tokens.push(Tok {
                            line: start_line,
                            kind: TokKind::Char,
                        });
                    }
                    _ => {
                        i = j;
                        out.tokens.push(Tok {
                            line: start_line,
                            kind: TokKind::Ident(word),
                        });
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < chars.len() {
                    let d = chars[j];
                    if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.'
                        && chars.get(j + 1) != Some(&'.')
                        && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                    {
                        // `1.5` continues the number; `1..n` does not.
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Tok {
                    line: start_line,
                    kind: TokKind::Num(chars[i..j].iter().collect()),
                });
                i = j;
            }
            c => {
                out.tokens.push(Tok {
                    line: start_line,
                    kind: TokKind::Punct(c),
                });
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_are_kept_not_tokenized() {
        let l = tokenize("// Instant::now\n/* HashMap */\nlet x = 1;");
        assert_eq!(l.comments.len(), 2);
        assert!(!l.tokens.iter().any(|t| t.is_ident("Instant")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(l.tokens.iter().any(|t| t.is_ident("let")));
    }

    #[test]
    fn nested_block_comments() {
        let l = tokenize("/* outer /* inner */ still */ fn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ fn f() {}"), vec!["fn", "f"]);
        assert!(l.tokens.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let s = "HashMap::iter";"#), vec!["let", "s"]);
        assert_eq!(idents(r##"let s = r#"SystemTime"#;"##), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = "esc \" HashMap";"#), vec!["let", "s"]);
        assert_eq!(idents(r#"let b = b"HashMap";"#), vec!["let", "b"]);
    }

    #[test]
    fn lifetimes_and_chars_disambiguated() {
        let l = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = l.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn escaped_quote_and_backslash_chars_end_where_they_close() {
        assert_eq!(
            idents(r"let a = '\\'; let b = '\''; after"),
            vec!["let", "a", "let", "b", "after"]
        );
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = tokenize("for i in 0..10 { x += 1.5; }");
        let nums: Vec<String> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5"]);
    }

    #[test]
    fn lines_are_tracked() {
        let l = tokenize("a\nb\n  c");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn string_line_continuations_count_their_newline() {
        let l = tokenize("let s = \"one \\\n  two\";\nafter");
        let after = l.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn double_colon_is_two_puncts() {
        let l = tokenize("Instant::now()");
        assert!(l.tokens[0].is_ident("Instant"));
        assert!(l.tokens[1].is_punct(':'));
        assert!(l.tokens[2].is_punct(':'));
        assert!(l.tokens[3].is_ident("now"));
    }
}
