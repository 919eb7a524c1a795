//! A minimal Rust source scanner for the lint pass.
//!
//! The lint rules are textual, so the only real parsing we need is the part
//! that makes textual rules sound: knowing which bytes are *code* and which
//! are comments or string/char literals. [`scan`] produces two byte-for-byte
//! shadows of the input — `masked` (code with comments/literal contents
//! blanked) and `comments` (comment text only) — so rules can search code
//! without tripping on `"panic!"` inside a string, and can read
//! `lint: allow(..)` escapes out of comments.
//!
//! On top of that, [`test_line_ranges`] brace-matches `#[cfg(test)]` items so
//! rules can skip test code, which is exempt from every rule.

/// Byte-for-byte shadows of one source file. Newlines are preserved in both,
/// so line numbers computed on either shadow match the original.
pub struct Scanned {
    /// Code only: comment bodies and string/char literal contents are
    /// replaced by spaces (delimiters are kept).
    pub masked: String,
    /// Comment text only: everything else is replaced by spaces.
    pub comments: String,
}

/// Scans `src`, classifying every byte as code or comment/literal.
///
/// Handles line comments, nested block comments, string and byte-string
/// literals with escapes, raw strings (`r"…"`, `r#"…"#`, `br"…"`), char
/// literals, and distinguishes lifetimes (`'a`) from char literals (`'a'`).
pub fn scan(src: &str) -> Scanned {
    let b = src.as_bytes();
    let n = b.len();
    let mut masked = Vec::with_capacity(n);
    let mut comments = Vec::with_capacity(n);
    // Emits one input byte into both shadows. `is_code`/`is_comment` pick
    // which shadow keeps the byte; newlines survive in both.
    let emit = |masked: &mut Vec<u8>, comments: &mut Vec<u8>, c: u8, keep: Keep| {
        if c == b'\n' {
            masked.push(b'\n');
            comments.push(b'\n');
            return;
        }
        match keep {
            Keep::Code => {
                masked.push(c);
                comments.push(b' ');
            }
            Keep::Comment => {
                masked.push(b' ');
                comments.push(c);
            }
            Keep::Neither => {
                masked.push(b' ');
                comments.push(b' ');
            }
        }
    };

    let mut i = 0usize;
    while i < n {
        let c = b[i];
        // Line comment (including doc comments).
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            while i < n && b[i] != b'\n' {
                emit(&mut masked, &mut comments, b[i], Keep::Comment);
                i += 1;
            }
            continue;
        }
        // Block comment; Rust block comments nest.
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    emit(&mut masked, &mut comments, b'/', Keep::Comment);
                    emit(&mut masked, &mut comments, b'*', Keep::Comment);
                    i += 2;
                    continue;
                }
                if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    emit(&mut masked, &mut comments, b'*', Keep::Comment);
                    emit(&mut masked, &mut comments, b'/', Keep::Comment);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                emit(&mut masked, &mut comments, b[i], Keep::Comment);
                i += 1;
            }
            continue;
        }
        // Raw (byte) strings: r"…", r#"…"#, br"…" — but only when the `r`
        // is not the tail of an identifier.
        if (c == b'r' || c == b'b') && !prev_is_ident(b, i) {
            if let Some((open_len, hashes)) = raw_string_open(b, i) {
                for _ in 0..open_len {
                    emit(&mut masked, &mut comments, b[i], Keep::Code);
                    i += 1;
                }
                // Literal body runs until `"` followed by `hashes` hashes.
                while i < n {
                    if b[i] == b'"' && has_hashes(b, i + 1, hashes) {
                        emit(&mut masked, &mut comments, b'"', Keep::Code);
                        i += 1;
                        for _ in 0..hashes {
                            emit(&mut masked, &mut comments, b'#', Keep::Code);
                            i += 1;
                        }
                        break;
                    }
                    emit(&mut masked, &mut comments, b[i], Keep::Neither);
                    i += 1;
                }
                continue;
            }
        }
        // Plain (byte) string literal.
        if c == b'"' || (c == b'b' && !prev_is_ident(b, i) && i + 1 < n && b[i + 1] == b'"') {
            if c == b'b' {
                emit(&mut masked, &mut comments, b'b', Keep::Code);
                i += 1;
            }
            emit(&mut masked, &mut comments, b'"', Keep::Code);
            i += 1;
            while i < n {
                if b[i] == b'\\' && i + 1 < n {
                    emit(&mut masked, &mut comments, b[i], Keep::Neither);
                    emit(&mut masked, &mut comments, b[i + 1], Keep::Neither);
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    emit(&mut masked, &mut comments, b'"', Keep::Code);
                    i += 1;
                    break;
                }
                emit(&mut masked, &mut comments, b[i], Keep::Neither);
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if let Some(end) = char_literal_end(b, i) {
                emit(&mut masked, &mut comments, b'\'', Keep::Code);
                i += 1;
                while i < end {
                    emit(&mut masked, &mut comments, b[i], Keep::Neither);
                    i += 1;
                }
                emit(&mut masked, &mut comments, b'\'', Keep::Code);
                i += 1;
                continue;
            }
            // Lifetime (or stray quote): plain code.
        }
        emit(&mut masked, &mut comments, c, Keep::Code);
        i += 1;
    }

    Scanned {
        masked: String::from_utf8_lossy(&masked).into_owned(),
        comments: String::from_utf8_lossy(&comments).into_owned(),
    }
}

#[derive(Copy, Clone)]
enum Keep {
    Code,
    Comment,
    Neither,
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// If a raw string literal opens at `i`, returns `(opening_len, hash_count)`
/// where `opening_len` covers the prefix, hashes, and the opening quote.
fn raw_string_open(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == b'"' {
        Some((j + 1 - i, hashes))
    } else {
        None
    }
}

fn has_hashes(b: &[u8], from: usize, count: usize) -> bool {
    (0..count).all(|k| from + k < b.len() && b[from + k] == b'#')
}

/// If a char literal starts at `i` (which holds `'`), returns the index of
/// its closing quote; returns `None` for lifetimes.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 1 >= n {
        return None;
    }
    if b[i + 1] == b'\\' {
        // Escaped char literal: scan to the closing quote on this line.
        let mut j = i + 2;
        while j < n && b[j] != b'\n' {
            if b[j] == b'\\' {
                j += 2;
                continue;
            }
            if b[j] == b'\'' {
                return Some(j);
            }
            j += 1;
        }
        return None;
    }
    if b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_' {
        // `'x'` is a char literal; `'x…` without a closing quote right after
        // one identifier char is a lifetime.
        let mut j = i + 1;
        while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j == i + 2 && j < n && b[j] == b'\'' {
            return Some(j);
        }
        return None;
    }
    // Symbol or multi-byte char: scan to the closing quote on this line.
    let mut j = i + 1;
    while j < n && b[j] != b'\n' && j <= i + 8 {
        if b[j] == b'\'' {
            return Some(j);
        }
        j += 1;
    }
    None
}

/// Byte offsets where each line starts; index `k` is line `k + 1`.
pub fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line containing byte offset `pos`.
pub fn line_of(starts: &[usize], pos: usize) -> usize {
    starts.partition_point(|&s| s <= pos)
}

/// 1-based inclusive line ranges covered by `#[cfg(test)]` items, computed
/// on masked source so braces in strings/comments cannot confuse matching.
pub fn test_line_ranges(masked: &str) -> Vec<(usize, usize)> {
    let starts = line_starts(masked);
    let bytes = masked.as_bytes();
    let mut ranges = Vec::new();
    let mut from = 0usize;
    while let Some(off) = masked[from..].find("#[cfg(test)]") {
        let attr_at = from + off;
        from = attr_at + "#[cfg(test)]".len();
        // The attribute governs the next item: find its block, unless a `;`
        // ends the item first (e.g. `#[cfg(test)] use …;`).
        let mut j = from;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        if let Some(close) = match_brace(bytes, open) {
            ranges.push((line_of(&starts, attr_at), line_of(&starts, close)));
            from = close + 1;
        }
    }
    ranges
}

/// Index of the `}` matching the `{` at `open` (both in masked source).
pub fn match_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &c) in bytes.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let src = "let s = \"panic!(\"; // panic!(here)\nlet t = 1;\n";
        let sc = scan(src);
        assert!(!sc.masked.contains("panic!"), "masked: {}", sc.masked);
        assert!(sc.comments.contains("panic!(here)"));
        assert!(sc.masked.contains("let t = 1;"));
        assert_eq!(sc.masked.len(), src.len());
    }

    #[test]
    fn masks_raw_strings_and_nested_block_comments() {
        let src = "let r = r#\"a \" .distance( b\"#; /* outer /* .call( */ still */ x";
        let sc = scan(src);
        assert!(!sc.masked.contains(".distance("));
        assert!(!sc.masked.contains(".call("));
        assert!(sc.masked.ends_with('x'));
        assert!(sc.comments.contains("still"));
    }

    #[test]
    fn distinguishes_lifetimes_from_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; let e = '<'; }";
        let sc = scan(src);
        // Lifetimes survive as code; char literal contents are blanked.
        assert!(sc.masked.contains("<'a>"));
        assert!(sc.masked.contains("&'a str"));
        assert!(!sc.masked.contains("'x'"), "masked: {}", sc.masked);
        // The `<` inside a char literal must not look like a comparison.
        assert!(!sc.masked.contains("'<'"));
        assert!(sc.masked.contains("let e = ' '"));
    }

    #[test]
    fn finds_cfg_test_ranges() {
        let src = "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let ranges = test_line_ranges(&scan(src).masked);
        assert_eq!(ranges, vec![(3, 6)]);
    }

    #[test]
    fn cfg_test_on_use_item_is_not_a_block() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { let x = 1; }\n";
        let ranges = test_line_ranges(&scan(src).masked);
        assert!(ranges.is_empty(), "ranges: {ranges:?}");
    }

    #[test]
    fn line_bookkeeping() {
        let starts = line_starts("ab\ncd\nef");
        assert_eq!(line_of(&starts, 0), 1);
        assert_eq!(line_of(&starts, 3), 2);
        assert_eq!(line_of(&starts, 7), 3);
    }

    // --------------------------------------------------- edge-case corpus

    #[test]
    fn raw_strings_with_hashes_and_byte_strings() {
        // `r#"…"#` bodies may contain quotes and fake calls; `br"…"` too.
        let src = "let a = r##\"x \"# .call( y\"##; let b = br\"m.distance(\"; fn live() {}";
        let sc = scan(src);
        assert!(!sc.masked.contains(".call("));
        assert!(!sc.masked.contains(".distance("));
        assert!(sc.masked.contains("fn live() {}"));
        assert_eq!(sc.masked.len(), src.len());
    }

    #[test]
    fn deeply_nested_block_comments() {
        let src = "/* a /* b /* c */ b */ a */ fn live() { x.unwrap(); }";
        let sc = scan(src);
        assert!(sc.masked.contains("fn live() { x.unwrap(); }"));
        assert!(sc.comments.contains("a /* b /* c */ b */ a"));
        // Nothing before the final close is code.
        assert!(sc.masked[..src.find("fn").unwrap()].trim().is_empty());
    }

    #[test]
    fn char_and_byte_literals_are_blanked() {
        let src = r"let a = '{'; let b = b'}'; let c = '\u{7D}'; fn live() {}";
        let sc = scan(src);
        // Brace characters inside literals must not unbalance brace
        // matching: the only braces left in code are the fn body's.
        let opens = sc.masked.matches('{').count();
        let closes = sc.masked.matches('}').count();
        assert_eq!((opens, closes), (1, 1), "masked: {}", sc.masked);
        assert!(sc.masked.contains("fn live() {}"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_string_openers() {
        // `r` followed by `#` must not be eaten as a raw string opener.
        let sc = scan("let x = r#fn; let s = r#\"body\"#;");
        assert!(sc.masked.contains("r#fn"));
        assert!(!sc.masked.contains("body"));
    }

    #[test]
    fn cfg_test_on_fn_covers_only_that_fn() {
        let src = "#[cfg(test)]\nfn helper() {\n    boom();\n}\nfn live() {}\n";
        let ranges = test_line_ranges(&scan(src).masked);
        assert_eq!(ranges, vec![(1, 4)]);
    }

    #[test]
    fn cfg_test_on_mod_covers_the_whole_block() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    mod inner {\n        fn t() {}\n    }\n}\n";
        let ranges = test_line_ranges(&scan(src).masked);
        assert_eq!(ranges, vec![(2, 7)]);
    }
}
