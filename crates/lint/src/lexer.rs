//! A minimal Rust lexer for static analysis.
//!
//! Produces a stream of identifier/punctuation tokens with line and
//! column numbers, *skipping* the contents of line comments, (nested)
//! block comments, string literals, raw strings (`r"…"`, `r#"…"#`, any
//! hash count), byte strings, char literals, and lifetimes — so rules
//! never fire on text content. Comments are not discarded entirely: each
//! one is checked for a suppression marker (see [`AllowMarker`]), and a
//! second pass marks the tokens that belong to test-only code
//! (`cfg`-test modules and test functions), which most rules exempt.
//!
//! Line/column bookkeeping counts `char` boundaries, not bytes, so
//! diagnostics in files carrying multibyte characters (em-dashes and
//! typographic quotes in doc comments, for instance) still point at the
//! column an editor shows.
//!
//! The lexer is intentionally not a full Rust frontend: it understands
//! exactly enough lexical structure to never confuse program text with
//! literal text. Numeric literals are consumed as opaque blobs; generic
//! angle brackets, pattern syntax, and macro bodies all flow through as
//! plain punctuation, which is sufficient for the token-pattern rules.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`foo`, `use`, `HashMap`).
    Ident,
    /// A single punctuation character (`.`, `!`, `{`, …).
    Punct,
}

/// One lexical token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Identifier or punctuation.
    pub kind: TokKind,
    /// The token text (single character for punctuation).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column in `char`s (not bytes).
    pub col: u32,
    /// Whether the token sits inside test-only code (a module or item
    /// carrying a test attribute). Most rules skip these tokens.
    pub in_test: bool,
}

/// A suppression marker parsed from a comment. The marker grammar is
/// documented in DESIGN.md; a marker names one or more rules and must end
/// with a free-text justification. Markers with no parseable rule list or
/// no justification are reported by the engine instead of honoured.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// Line the comment starts on.
    pub line: u32,
    /// 1-based column (in `char`s) of the comment start.
    pub col: u32,
    /// Rule names listed inside the parentheses (empty when malformed).
    pub rules: Vec<String>,
    /// Whether this suppresses for the whole file rather than one line.
    pub file_level: bool,
    /// The free text following the rule list.
    pub justification: String,
}

impl AllowMarker {
    /// A justification is real prose, not a placeholder: at least ten
    /// characters once separators are stripped.
    pub fn justified(&self) -> bool {
        self.justification.chars().count() >= 10
    }
}

/// Lexer output: the token stream plus every suppression marker found.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens outside comments/strings, in source order.
    pub tokens: Vec<Tok>,
    /// Markers parsed from comments, in source order.
    pub markers: Vec<AllowMarker>,
}

const MARKER_PREFIX: &str = "sage-lint:";

fn parse_marker(comment: &str, line: u32, col: u32, markers: &mut Vec<AllowMarker>) {
    // The marker must lead the comment (after whitespace); prose that
    // merely *mentions* the marker syntax mid-sentence is not a marker.
    let t = comment.trim_start();
    let Some(rest) = t.strip_prefix(MARKER_PREFIX) else { return };
    let rest = rest.trim_start();
    let (file_level, body) = if let Some(r) = rest.strip_prefix("allow-file(") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow(") {
        (false, r)
    } else {
        markers.push(AllowMarker {
            line,
            col,
            rules: Vec::new(),
            file_level: false,
            justification: String::new(),
        });
        return;
    };
    let Some(close) = body.find(')') else {
        markers.push(AllowMarker {
            line,
            col,
            rules: Vec::new(),
            file_level,
            justification: String::new(),
        });
        return;
    };
    let rules: Vec<String> = body[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let justification = body[close + 1..]
        .trim_matches(|c: char| c.is_whitespace() || c == '-' || c == '\u{2014}' || c == ':')
        .to_string();
    markers.push(AllowMarker { line, col, rules, file_level, justification });
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Line/column cursor shared with the literal-skipping helpers: `line` is
/// 1-based; `line_start` is the char index where the current line begins,
/// so `col(i) = i - line_start + 1` counts chars, not bytes.
struct Pos {
    line: u32,
    line_start: usize,
}

impl Pos {
    fn col(&self, i: usize) -> u32 {
        (i - self.line_start + 1) as u32
    }
    fn newline_at(&mut self, i: usize) {
        self.line += 1;
        self.line_start = i + 1;
    }
}

/// Lex `source` into tokens and markers. Never panics on malformed input:
/// unterminated literals simply consume to end of file.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let len = chars.len();
    let mut tokens: Vec<Tok> = Vec::new();
    let mut markers: Vec<AllowMarker> = Vec::new();
    let mut i = 0usize;
    let mut pos = Pos { line: 1, line_start: 0 };

    let peek = |j: usize| -> Option<char> { chars.get(j).copied() };

    while i < len {
        let c = chars[i];
        if c == '\n' {
            pos.newline_at(i);
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && peek(i + 1) == Some('/') {
            let comment_col = pos.col(i);
            let start = i + 2;
            while i < len && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start.min(i)..i].iter().collect();
            parse_marker(&text, pos.line, comment_col, &mut markers);
            continue;
        }
        // Block comment (nested).
        if c == '/' && peek(i + 1) == Some('*') {
            let start_line = pos.line;
            let start_col = pos.col(i);
            let mut depth = 1u32;
            i += 2;
            let text_start = i;
            let mut text_end = i;
            while i < len && depth > 0 {
                if chars[i] == '/' && peek(i + 1) == Some('*') {
                    depth += 1;
                    i += 2;
                    continue;
                }
                if chars[i] == '*' && peek(i + 1) == Some('/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        text_end = i - 2;
                    }
                    continue;
                }
                if chars[i] == '\n' {
                    pos.newline_at(i);
                }
                i += 1;
            }
            if depth > 0 {
                text_end = i;
            }
            let text: String = chars[text_start..text_end.max(text_start)].iter().collect();
            parse_marker(&text, start_line, start_col, &mut markers);
            continue;
        }
        // String literal.
        if c == '"' {
            i = skip_string(&chars, i, &mut pos);
            continue;
        }
        // Raw strings, raw identifiers, byte strings/chars.
        if c == 'r' || c == 'b' {
            if let Some(ni) = lex_prefixed(&chars, i, &mut pos, &mut tokens) {
                i = ni;
                continue;
            }
        }
        // Char literal or lifetime.
        if c == '\'' {
            i = skip_char_or_lifetime(&chars, i, &mut pos);
            continue;
        }
        // Numeric literal: consumed as an opaque blob (suffixes, hex
        // digits). Dots and exponent signs fall out as punctuation, which
        // no rule pattern cares about.
        if c.is_ascii_digit() {
            i += 1;
            while i < len && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            i += 1;
            while i < len && is_ident_continue(chars[i]) {
                i += 1;
            }
            tokens.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line: pos.line,
                col: pos.col(start),
                in_test: false,
            });
            continue;
        }
        tokens.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: pos.line,
            col: pos.col(i),
            in_test: false,
        });
        i += 1;
    }

    mark_test_regions(&mut tokens);
    Lexed { tokens, markers }
}

/// Skip a normal (escaped) string literal starting at the opening quote.
fn skip_string(chars: &[char], mut i: usize, pos: &mut Pos) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // A line-continuation escape still ends a source line.
                if chars.get(i + 1) == Some(&'\n') {
                    pos.newline_at(i + 1);
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                pos.newline_at(i);
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string body starting at the opening quote, terminated by a
/// quote followed by `hashes` hash signs.
fn skip_raw_string(chars: &[char], mut i: usize, hashes: usize, pos: &mut Pos) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '\n' {
            pos.newline_at(i);
        }
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Handle tokens starting with `r` or `b` that are *not* plain
/// identifiers: raw strings, raw identifiers, byte strings, byte chars,
/// raw byte strings. Returns the index after the construct, or `None`
/// when the `r`/`b` begins an ordinary identifier.
fn lex_prefixed(
    chars: &[char],
    i: usize,
    pos: &mut Pos,
    tokens: &mut Vec<Tok>,
) -> Option<usize> {
    let c = chars[i];
    let peek = |j: usize| -> Option<char> { chars.get(j).copied() };
    if c == 'r' {
        // r"..."  |  r#"..."#  |  r#ident
        if peek(i + 1) == Some('"') {
            return Some(skip_raw_string(chars, i + 1, 0, pos));
        }
        let mut h = 0usize;
        while peek(i + 1 + h) == Some('#') {
            h += 1;
        }
        if h > 0 {
            if peek(i + 1 + h) == Some('"') {
                return Some(skip_raw_string(chars, i + 1 + h, h, pos));
            }
            if h == 1 && peek(i + 2).is_some_and(is_ident_start) {
                // Raw identifier r#name: emit the bare name.
                let start = i + 2;
                let mut j = start + 1;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..j].iter().collect(),
                    line: pos.line,
                    col: pos.col(start),
                    in_test: false,
                });
                return Some(j);
            }
        }
        return None;
    }
    // c == 'b'
    match peek(i + 1) {
        Some('"') => Some(skip_string(chars, i + 1, pos)),
        Some('\'') => Some(skip_char_or_lifetime(chars, i + 1, pos)),
        Some('r') => {
            let mut h = 0usize;
            while peek(i + 2 + h) == Some('#') {
                h += 1;
            }
            if peek(i + 2 + h) == Some('"') {
                Some(skip_raw_string(chars, i + 2 + h, h, pos))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Skip a char literal or a lifetime starting at the quote. `'a'` and
/// `'\n'` are char literals; `'a` (no closing quote) is a lifetime and
/// produces no token — no rule matches on lifetimes.
fn skip_char_or_lifetime(chars: &[char], i: usize, pos: &mut Pos) -> usize {
    let len = chars.len();
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: scan to the closing quote, starting on
            // the backslash so `'\\'` ends at its own quote.
            let mut j = i + 1;
            while j < len {
                match chars[j] {
                    '\\' => {
                        if chars.get(j + 1) == Some(&'\n') {
                            pos.newline_at(j + 1);
                        }
                        j += 2;
                    }
                    '\'' => return j + 1,
                    '\n' => {
                        pos.newline_at(j);
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            j
        }
        Some(ch) if is_ident_start(*ch) => {
            let mut j = i + 2;
            while j < len && is_ident_continue(chars[j]) {
                j += 1;
            }
            if chars.get(j) == Some(&'\'') {
                j + 1 // char literal like 'a'
            } else {
                j // lifetime: the quote and name are simply dropped
            }
        }
        Some(_) => {
            // Char literal over punctuation, e.g. '(' or ' '.
            if chars.get(i + 2) == Some(&'\'') {
                i + 3
            } else {
                i + 1
            }
        }
        None => i + 1,
    }
}

/// Mark tokens belonging to test-only items. An attribute whose content
/// mentions `test` (and not `not`, so a negative `cfg` stays live code)
/// taints the item that follows it: either a braced body (`mod`/`fn`) up
/// to the matching close brace, or a declaration up to its semicolon.
fn mark_test_regions(tokens: &mut [Tok]) {
    let punct_at =
        |toks: &[Tok], j: usize| -> Option<char> {
            toks.get(j).and_then(|t| {
                if t.kind == TokKind::Punct {
                    t.text.chars().next()
                } else {
                    None
                }
            })
        };
    let mut j = 0usize;
    while j < tokens.len() {
        if punct_at(tokens, j) != Some('#') {
            j += 1;
            continue;
        }
        // Inner attribute `#![…]`: scan past it without test semantics.
        let inner = punct_at(tokens, j + 1) == Some('!');
        let open = if inner { j + 2 } else { j + 1 };
        if punct_at(tokens, open) != Some('[') {
            j += 1;
            continue;
        }
        let (attr_end, is_test) = scan_attr(tokens, open + 1);
        if inner || !is_test {
            j = attr_end;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = attr_end;
        loop {
            if punct_at(tokens, k) == Some('#') && punct_at(tokens, k + 1) == Some('[') {
                let (e, _) = scan_attr(tokens, k + 2);
                k = e;
                continue;
            }
            break;
        }
        // Find the item extent: first top-level `{…}` or a `;`.
        let mut nest = 0i64;
        let mut m = k;
        let mut advanced_to = k.max(j + 1);
        while m < tokens.len() {
            match punct_at(tokens, m) {
                Some('(') | Some('[') => nest += 1,
                Some(')') | Some(']') => nest -= 1,
                Some('{') if nest <= 0 => {
                    let mut depth = 1i64;
                    let mut p = m + 1;
                    while p < tokens.len() && depth > 0 {
                        match punct_at(tokens, p) {
                            Some('{') => depth += 1,
                            Some('}') => depth -= 1,
                            _ => {}
                        }
                        p += 1;
                    }
                    for t in tokens[j..p].iter_mut() {
                        t.in_test = true;
                    }
                    advanced_to = p;
                    break;
                }
                Some(';') if nest <= 0 => {
                    for t in tokens[j..=m].iter_mut() {
                        t.in_test = true;
                    }
                    advanced_to = m + 1;
                    break;
                }
                _ => {}
            }
            m += 1;
            advanced_to = m;
        }
        j = advanced_to.max(j + 1);
    }
}

/// Scan an attribute body from just inside its `[`. Returns the index
/// after the matching `]` and whether the attribute marks test code.
fn scan_attr(tokens: &[Tok], start: usize) -> (usize, bool) {
    let mut depth = 1i64;
    let mut j = start;
    let mut has_test = false;
    let mut has_not = false;
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "[" | "(" => depth += 1,
                "]" | ")" => depth -= 1,
                _ => {}
            },
            TokKind::Ident => {
                if t.text == "test" {
                    has_test = true;
                }
                if t.text == "not" {
                    has_not = true;
                }
            }
        }
        j += 1;
    }
    (j, has_test && !has_not)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_skipped() {
        let src = r###"
            // println! in a comment
            /* panic! inside /* nested */ block */
            let a = "println!(\"x\")";
            let b = r#"unwrap() and "quotes" inside"#;
            let c = b"expect bytes";
            let d = 'x';
            real_ident();
        "###;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|t| t == "println" || t == "panic" || t == "unwrap"));
        assert!(!ids.iter().any(|t| t == "expect" || t == "quotes"));
    }

    #[test]
    fn raw_string_with_backslash_quote_terminates_correctly() {
        // In a raw string a backslash does not escape the closing quote.
        let src = "let a = r\"tail\\\"; trailing_ident();";
        let ids = idents(src);
        assert!(ids.contains(&"trailing_ident".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } after();";
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn char_literals_are_skipped() {
        let src = "let q = '\"'; let n = '\\n'; let p = '('; tail();";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "q", "let", "n", "let", "p", "tail"]);
        // An escaped backslash or quote ends at its own closing quote, so
        // the code after it stays visible.
        let src = "let b = '\\\\'; let s = '\\''; let u = '\\u{1F600}'; tail();";
        assert_eq!(idents(src), vec!["let", "b", "let", "s", "let", "u", "tail"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n  c";
        let toks = lex(src).tokens;
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn columns_are_one_based_chars() {
        let src = "ab cd\n  ef(gh)";
        let toks = lex(src).tokens;
        let find = |name: &str| toks.iter().find(|t| t.text == name).map(|t| (t.line, t.col));
        assert_eq!(find("ab"), Some((1, 1)));
        assert_eq!(find("cd"), Some((1, 4)));
        assert_eq!(find("ef"), Some((2, 3)));
        assert_eq!(find("gh"), Some((2, 6)));
    }

    #[test]
    fn columns_count_chars_not_bytes() {
        // The em-dash and the curly quotes are multibyte; a byte counter
        // would overshoot the columns of everything after them.
        let src = "let a = 1; // “mixed — prose”\nlet b = 2;\nlet émile = après(3);";
        let toks = lex(src).tokens;
        let find = |name: &str| toks.iter().find(|t| t.text == name).map(|t| (t.line, t.col));
        assert_eq!(find("b"), Some((2, 5)));
        assert_eq!(find("émile"), Some((3, 5)));
        assert_eq!(find("après"), Some((3, 13)));
    }

    #[test]
    fn columns_survive_multiline_strings() {
        let src = "let s = \"line one\nline two\"; after();";
        let toks = lex(src).tokens;
        let after = toks.iter().find(|t| t.text == "after");
        assert_eq!(after.map(|t| (t.line, t.col)), Some((2, 12)));
    }

    #[test]
    fn line_continuation_in_string_counts_its_newline() {
        let src = "let s = \"first \\\n   second\";\nafter();\n";
        let toks = lex(src).tokens;
        let after = toks.iter().find(|t| t.text == "after").map(|t| t.line);
        assert_eq!(after, Some(3));
    }

    #[test]
    fn test_attribute_taints_following_item() {
        let src = "
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { y.unwrap(); }
            }
            fn live2() {}
        ";
        let toks = lex(src).tokens;
        let unwraps: Vec<bool> =
            toks.iter().filter(|t| t.text == "unwrap").map(|t| t.in_test).collect();
        assert_eq!(unwraps, vec![false, true]);
        let live2 = toks.iter().find(|t| t.text == "live2").map(|t| t.in_test);
        assert_eq!(live2, Some(false));
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))] fn shipping() { x.unwrap(); }";
        let toks = lex(src).tokens;
        let u = toks.iter().find(|t| t.text == "unwrap").map(|t| t.in_test);
        assert_eq!(u, Some(false));
    }

    #[test]
    fn test_attr_on_declaration_ends_at_semicolon() {
        let src = "#[cfg(test)] use helper_mod::thing; fn live() {}";
        let toks = lex(src).tokens;
        let thing = toks.iter().find(|t| t.text == "thing").map(|t| t.in_test);
        assert_eq!(thing, Some(true));
        let live = toks.iter().find(|t| t.text == "live").map(|t| t.in_test);
        assert_eq!(live, Some(false));
    }

    #[test]
    fn markers_parse_rules_and_justification() {
        let marker = "sage-lint: allow(no-print, layering) - the CLI owns stdout here";
        let src = format!("let x = 1; // {marker}\n");
        let lexed = lex(&src);
        assert_eq!(lexed.markers.len(), 1);
        let m = &lexed.markers[0];
        assert_eq!(m.rules, vec!["no-print", "layering"]);
        assert!(!m.file_level);
        assert!(m.justified());
        assert_eq!(m.line, 1);
        assert_eq!(m.col, 12);
    }

    #[test]
    fn file_marker_and_unjustified_marker() {
        let a = "sage-lint: allow-file(no-wallclock) - latency measurement layer by design";
        let b = "sage-lint: allow(no-print)";
        let src = format!("// {a}\nfn f() {{}}\n// {b}\n");
        let lexed = lex(&src);
        assert_eq!(lexed.markers.len(), 2);
        assert!(lexed.markers[0].file_level);
        assert!(lexed.markers[0].justified());
        assert!(!lexed.markers[1].justified());
    }

    #[test]
    fn mid_sentence_mentions_are_not_markers() {
        let src = "// suppressions use the sage-lint: allow(rule) marker\nfn f() {}\n";
        assert!(lex(src).markers.is_empty());
    }
}
