//! A small hand-rolled Rust lexer: the substrate every analysis pass walks.
//!
//! The analyzer deliberately does not parse Rust — a full grammar is a
//! dependency (syn) or a project (a parser) — it *lexes* it: comments,
//! strings, char/lifetime disambiguation, raw strings and numbers are
//! stripped into a flat token stream with line numbers, so passes can match
//! token patterns (`.field.lock()`, `.unwrap()`, `fn name_into(`)
//! without ever being fooled by a string literal or a comment that happens
//! to contain the same characters.
//!
//! On top of the stream sit three structural helpers the passes share:
//! function spans ([`function_spans`]), `#[cfg(test)]`/`#[test]` regions
//! ([`test_regions`]) and struct-field declarations ([`struct_fields`]).
//! All are token-index based; brace depths are precomputed once.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// A single punctuation character (`.`, `:`, `{`, `=`, ...).
    Punct,
    /// An integer or float literal (text preserved).
    Number,
    /// A string literal (`"..."`, `r"..."`, `b"..."`, `r#"..."#`); the
    /// token text is the *decoded-enough* inner text for simple literals
    /// (escapes are kept verbatim).
    Str,
    /// A character literal (`'x'`, `'\n'`).
    Char,
    /// A lifetime (`'a`, `'_`, `'static`).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// The token text. For [`TokKind::Str`] this is the inner text without
    /// the surrounding quotes or raw-string hashes.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// True when the token is this exact punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// True when the token is this exact identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// One comment, kept out of the token stream but preserved for the passes
/// that read documentation (lock-order blocks, kernel markers).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The comment text without its delimiters (`//`, `//!`, `///`, `/* */`).
    pub text: String,
    /// True for `///` and `//!` doc comments.
    pub doc: bool,
    /// True for `//!` / `/*!` inner doc comments.
    pub inner: bool,
}

/// A lexed source file: the token stream plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes one Rust source file. The lexer never fails: unexpected bytes
/// become single-character punctuation tokens, which is good enough for
/// pattern matching over well-formed rustc-accepted sources.
pub fn lex(source: &str) -> Lexed {
    let bytes: Vec<char> = source.chars().collect();
    let n = bytes.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let char_at = |idx: usize| -> char { bytes.get(idx).copied().unwrap_or('\0') };

    while i < n {
        let c = char_at(i);
        // Newlines and whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments (and doc comments).
        if c == '/' && char_at(i + 1) == '/' {
            let start = i + 2;
            let (doc, inner, skip) = match char_at(start) {
                '/' if char_at(start + 1) != '/' => (true, false, 1),
                '!' => (true, true, 1),
                _ => (false, false, 0),
            };
            let mut j = start + skip;
            while j < n && char_at(j) != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line,
                text: bytes[start + skip..j].iter().collect(),
                doc,
                inner,
            });
            i = j;
            continue;
        }
        // Block comments (nested, per the Rust grammar).
        if c == '/' && char_at(i + 1) == '*' {
            let start_line = line;
            let content_start = i + 2;
            let (doc, inner) = match char_at(content_start) {
                '*' if char_at(content_start + 1) != '*' && char_at(content_start + 1) != '/' => {
                    (true, false)
                }
                '!' => (true, true),
                _ => (false, false),
            };
            let mut depth = 1usize;
            let mut j = content_start;
            while j < n && depth > 0 {
                if char_at(j) == '/' && char_at(j + 1) == '*' {
                    depth += 1;
                    j += 2;
                } else if char_at(j) == '*' && char_at(j + 1) == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    if char_at(j) == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            let end = j.saturating_sub(2).max(content_start);
            out.comments.push(Comment {
                line: start_line,
                text: bytes[content_start..end].iter().collect(),
                doc,
                inner,
            });
            i = j;
            continue;
        }
        // String literals: plain, byte, raw and raw-byte.
        if c == '"'
            || (c == 'b' && char_at(i + 1) == '"')
            || (c == 'r' && (char_at(i + 1) == '"' || char_at(i + 1) == '#'))
            || (c == 'b'
                && char_at(i + 1) == 'r'
                && (char_at(i + 2) == '"' || char_at(i + 2) == '#'))
        {
            let mut j = i;
            let mut raw = false;
            if char_at(j) == 'b' {
                j += 1;
            }
            if char_at(j) == 'r' {
                raw = true;
                j += 1;
            }
            if char_at(j) != '"' && !(raw && char_at(j) == '#') {
                // Not actually a string (e.g. identifier starting with b/r).
                lex_ident_or_number(&bytes, &mut i, line, &mut out);
                continue;
            }
            let mut hashes = 0usize;
            while raw && char_at(j) == '#' {
                hashes += 1;
                j += 1;
            }
            // Opening quote.
            j += 1;
            let content_start = j;
            let start_line = line;
            loop {
                if j >= n {
                    break;
                }
                let cj = char_at(j);
                if cj == '\n' {
                    line += 1;
                    j += 1;
                    continue;
                }
                if !raw && cj == '\\' {
                    j += 2;
                    continue;
                }
                if cj == '"' {
                    if raw {
                        let mut k = 0usize;
                        while k < hashes && char_at(j + 1 + k) == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: bytes[content_start..j.min(n)].iter().collect(),
                line: start_line,
            });
            i = (j + 1 + if raw { hashes } else { 0 }).min(n);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let c1 = char_at(i + 1);
            let c2 = char_at(i + 2);
            let is_lifetime = (c1 == '_' || c1.is_alphabetic()) && c2 != '\'';
            if is_lifetime {
                let mut j = i + 1;
                while j < n && (char_at(j) == '_' || char_at(j).is_alphanumeric()) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: bytes[i..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            // Char literal: '\..' escapes or a single char.
            let mut j = i + 1;
            if char_at(j) == '\\' {
                j += 2;
                // \u{...}
                if char_at(j.saturating_sub(1)) == 'u' && char_at(j) == '{' {
                    while j < n && char_at(j) != '}' {
                        j += 1;
                    }
                    j += 1;
                }
            } else {
                j += 1;
            }
            while j < n && char_at(j) != '\'' {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Char,
                text: bytes[i + 1..j.min(n)].iter().collect(),
                line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Identifiers, keywords, numbers.
        if c == '_' || c.is_alphanumeric() {
            lex_ident_or_number(&bytes, &mut i, line, &mut out);
            continue;
        }
        // Everything else: single-character punctuation.
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Lexes one identifier or number starting at `*i`, advancing `*i`.
fn lex_ident_or_number(bytes: &[char], i: &mut usize, line: u32, out: &mut Lexed) {
    let n = bytes.len();
    let start = *i;
    let char_at = |idx: usize| -> char { bytes.get(idx).copied().unwrap_or('\0') };
    let first = char_at(start);
    let mut j = start;
    if first.is_ascii_digit() {
        // Number: digits, `_`, hex/bin/oct letters, suffixes, one `.`
        // followed by a digit (so `x.1` method-ish accesses and ranges
        // `0..n` stay punctuated).
        while j < n {
            let cj = char_at(j);
            if cj == '_' || cj.is_alphanumeric() {
                j += 1;
            } else if cj == '.' && char_at(j + 1).is_ascii_digit() && char_at(j + 1) != '.' {
                // Guard against `0..9`: the char after '.' must not be '.'.
                if char_at(j + 1) == '.' {
                    break;
                }
                j += 1;
            } else {
                break;
            }
        }
        out.tokens.push(Token {
            kind: TokKind::Number,
            text: bytes[start..j].iter().collect(),
            line,
        });
    } else {
        while j < n && (char_at(j) == '_' || char_at(j).is_alphanumeric()) {
            j += 1;
        }
        out.tokens.push(Token {
            kind: TokKind::Ident,
            text: bytes[start..j].iter().collect(),
            line,
        });
    }
    *i = j;
}

/// One function item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's simple name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token index of the body's opening `{` (`None` for bodyless trait
    /// method declarations).
    pub body_open: Option<usize>,
    /// Token index of the body's closing `}` (inclusive).
    pub body_close: Option<usize>,
    /// Token index of the parameter list's opening `(`.
    pub params_open: usize,
    /// Token index of the parameter list's closing `)`.
    pub params_close: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// Brace depth per token (depth *before* the token is applied; `{` tokens
/// carry the depth outside the block they open).
pub fn brace_depths(tokens: &[Token]) -> Vec<u32> {
    let mut depths = Vec::with_capacity(tokens.len());
    let mut depth: u32 = 0;
    for t in tokens {
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
        }
        depths.push(depth);
        if t.is_punct('{') {
            depth += 1;
        }
    }
    depths
}

/// Finds the token index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

/// Finds the token index of the `)` matching the `(` at `open`.
pub fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

/// Every function item in the stream, in source order. Closures are not
/// functions; nested `fn` items are reported too (rare, harmless).
pub fn function_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut idx = 0usize;
    while idx < tokens.len() {
        if tokens[idx].is_ident("fn") {
            if let Some(name_tok) = tokens.get(idx + 1) {
                if name_tok.kind == TokKind::Ident {
                    // Parameter list: the first `(` after the name (skipping
                    // a possible `<...>` generic list, which cannot contain
                    // parentheses at its top level in practice).
                    let mut p = idx + 2;
                    while p < tokens.len()
                        && !tokens[p].is_punct('(')
                        && !tokens[p].is_punct('{')
                        && !tokens[p].is_punct(';')
                    {
                        p += 1;
                    }
                    if p < tokens.len() && tokens[p].is_punct('(') {
                        if let Some(params_close) = matching_paren(tokens, p) {
                            // Body: first `{` (or a `;` for bodyless
                            // declarations) after the params at paren depth 0.
                            let mut b = params_close + 1;
                            let mut paren_depth = 0i64;
                            let mut body_open = None;
                            while b < tokens.len() {
                                let t = &tokens[b];
                                if t.is_punct('(') {
                                    paren_depth += 1;
                                } else if t.is_punct(')') {
                                    paren_depth -= 1;
                                } else if paren_depth == 0 && t.is_punct('{') {
                                    body_open = Some(b);
                                    break;
                                } else if paren_depth == 0 && t.is_punct(';') {
                                    break;
                                }
                                b += 1;
                            }
                            let body_close =
                                body_open.and_then(|open| matching_brace(tokens, open));
                            spans.push(FnSpan {
                                name: name_tok.text.clone(),
                                fn_tok: idx,
                                body_open,
                                body_close,
                                params_open: p,
                                params_close,
                                line: tokens[idx].line,
                            });
                            // Continue scanning *inside* the body too, so
                            // nested fns are found; just move past `fn name`.
                        }
                    }
                }
            }
        }
        idx += 1;
    }
    spans
}

/// Token ranges (inclusive) that are test-only: items annotated
/// `#[cfg(test)]` (typically `mod tests { ... }`) or `#[test]`.
pub fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut idx = 0usize;
    while idx < tokens.len() {
        if is_attr_start(tokens, idx) {
            let (is_test, attr_end) = parse_attr(tokens, idx);
            if is_test {
                // Skip any further attributes, then capture the item.
                let mut item = attr_end + 1;
                while is_attr_start(tokens, item) {
                    let (_, e) = parse_attr(tokens, item);
                    item = e + 1;
                }
                // The item runs to its `{...}` block or terminating `;`.
                let mut j = item;
                let mut end = None;
                while j < tokens.len() {
                    if tokens[j].is_punct('{') {
                        end = matching_brace(tokens, j);
                        break;
                    }
                    if tokens[j].is_punct(';') {
                        end = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(e) = end {
                    regions.push((idx, e));
                    idx = e + 1;
                    continue;
                }
            }
            idx = attr_end + 1;
            continue;
        }
        idx += 1;
    }
    regions
}

/// True when token `idx` opens an attribute (`#[` or `#![`).
fn is_attr_start(tokens: &[Token], idx: usize) -> bool {
    match (tokens.get(idx), tokens.get(idx + 1)) {
        (Some(a), Some(b)) if a.is_punct('#') => {
            b.is_punct('[')
                || (b.is_punct('!') && tokens.get(idx + 2).is_some_and(|c| c.is_punct('[')))
        }
        _ => false,
    }
}

/// Parses the attribute starting at `idx`; returns whether it is
/// `#[cfg(test)]` or `#[test]`, and the index of its closing `]`.
fn parse_attr(tokens: &[Token], idx: usize) -> (bool, usize) {
    let mut j = idx + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    // `j` is at `[`; find the matching `]`.
    let mut depth = 0i64;
    let mut end = j;
    let mut body = Vec::new();
    for (k, t) in tokens.iter().enumerate().skip(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                end = k;
                break;
            }
        }
        if depth >= 1 && !t.is_punct('[') {
            body.push(t);
        }
        end = k;
    }
    let is_test = match body.first() {
        Some(t) if t.is_ident("test") => body.len() == 1,
        Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    (is_test, end)
}

/// One struct field declaration.
#[derive(Debug, Clone)]
pub struct StructField {
    /// The struct the field belongs to.
    pub struct_name: String,
    /// The field name.
    pub field_name: String,
    /// The outermost type path's final segment (`RwLock` for
    /// `std::sync::RwLock<Arc<T>>`).
    pub outer_type: String,
    /// 1-based line of the field name.
    pub line: u32,
}

/// Every named-struct field in the stream.
pub fn struct_fields(tokens: &[Token]) -> Vec<StructField> {
    let mut fields = Vec::new();
    let mut idx = 0usize;
    while idx < tokens.len() {
        if tokens[idx].is_ident("struct") {
            let name = match tokens.get(idx + 1) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => {
                    idx += 1;
                    continue;
                }
            };
            // Find the struct body `{` (skip tuple/unit structs).
            let mut j = idx + 2;
            while j < tokens.len()
                && !tokens[j].is_punct('{')
                && !tokens[j].is_punct(';')
                && !tokens[j].is_punct('(')
            {
                j += 1;
            }
            if j >= tokens.len() || !tokens[j].is_punct('{') {
                idx = j;
                continue;
            }
            let close = matching_brace(tokens, j).unwrap_or(tokens.len() - 1);
            // Fields at depth body+1: `name : Type ,` — scan for
            // `ident :` pairs at top level of the body.
            let mut k = j + 1;
            let mut depth = 0i64;
            while k < close {
                let t = &tokens[k];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('}')
                    || t.is_punct(')')
                    || t.is_punct(']')
                    || (t.is_punct('>') && !tokens.get(k - 1).is_some_and(|p| p.is_punct('-')))
                {
                    depth -= 1;
                } else if depth == 0
                    && t.kind == TokKind::Ident
                    && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
                    && !t.is_ident("pub")
                {
                    // Walk the type path: idents separated by `::`.
                    let mut ty = String::new();
                    let mut m = k + 2;
                    while m < close {
                        match tokens.get(m) {
                            Some(t2) if t2.kind == TokKind::Ident => {
                                ty = t2.text.clone();
                                m += 1;
                            }
                            Some(t2)
                                if t2.is_punct(':')
                                    && tokens.get(m + 1).is_some_and(|n| n.is_punct(':')) =>
                            {
                                m += 2;
                            }
                            _ => break,
                        }
                    }
                    if !ty.is_empty() {
                        fields.push(StructField {
                            struct_name: name.clone(),
                            field_name: t.text.clone(),
                            outer_type: ty,
                            line: t.line,
                        });
                    }
                }
                k += 1;
            }
            idx = close + 1;
            continue;
        }
        idx += 1;
    }
    fields
}

/// True when token index `idx` falls inside any of `regions` (inclusive).
pub fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx <= e)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn strings_comments_and_chars_do_not_leak_tokens() {
        let src = r##"
// comment with .unwrap() inside
/* block /* nested */ .expect( */
fn f() {
    let s = "quoted .unwrap() text";
    let r = r#"raw "nested" .lock()"#;
    let c = 'x';
    let lt: &'static str = s;
    s.len()
}
"##;
        let lexed = lex(src);
        let unwraps = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text == "unwrap")
            .count();
        assert_eq!(unwraps, 0, "unwrap only appears in comments/strings");
        assert!(lexed.comments.iter().any(|c| c.text.contains("nested")));
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("nested")));
    }

    #[test]
    fn function_spans_and_test_regions() {
        let src = r#"
fn outer(a: usize) -> usize { a + 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn inner() { assert!(true); }
}

fn after() {}
"#;
        let lexed = lex(src);
        let fns = function_spans(&lexed.tokens);
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "after"]);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions.len(), 1);
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(in_regions(&regions, inner.fn_tok));
        let after = fns.iter().find(|f| f.name == "after").unwrap();
        assert!(!in_regions(&regions, after.fn_tok));
    }

    #[test]
    fn struct_fields_find_outer_types() {
        let src = r#"
pub struct Entry {
    service: RwLock<Arc<Service>>,
    pub latencies: std::sync::Mutex<Window>,
    quota: Option<u64>,
    freed: std::sync::Condvar,
}
"#;
        let lexed = lex(src);
        let fields = struct_fields(&lexed.tokens);
        let find = |name: &str| {
            fields
                .iter()
                .find(|f| f.field_name == name)
                .map(|f| f.outer_type.as_str())
        };
        assert_eq!(find("service"), Some("RwLock"));
        assert_eq!(find("latencies"), Some("Mutex"));
        assert_eq!(find("quota"), Some("Option"));
        assert_eq!(find("freed"), Some("Condvar"));
    }
}
