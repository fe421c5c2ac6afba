//! The crate's `unsafe` inventory, pinned per file.
//!
//! DESIGN.md (*Compute kernels & threading*) states how many `unsafe` sites
//! `crates/tensor/src` holds and where; a nightly AddressSanitizer job runs
//! the tests that reach them. This test counts them the way DESIGN.md
//! does — each `unsafe fn <name>`, `unsafe {` block and `unsafe impl` in
//! code once, comments and string literals excluded, a macro body once
//! however often it expands, and an `unsafe fn(..)` pointer type not at
//! all — so a change that adds or removes a site fails here until the
//! stated count, and this table, are brought in step.

use std::collections::BTreeMap;
use std::path::Path;

/// `[unsafe fn, unsafe block, unsafe impl]` per file of `src/`; every file
/// not listed has none.
const EXPECTED: &[(&str, [usize; 3])] = &[("pool.rs", [0, 2, 1]), ("simd.rs", [11, 16, 0])];

/// `line` up to its `//` comment, with string and char literals blanked.
fn code_of(line: &str) -> String {
    let (mut code, mut chars) = (String::new(), line.chars().peekable());
    let mut in_str = false;
    while let Some(c) = chars.next() {
        match (in_str, c) {
            (true, '\\') => {
                chars.next();
                code.push_str("  ");
            }
            (true, '"') | (false, '"') => {
                in_str = !in_str;
                code.push('"');
            }
            (true, _) => code.push(' '),
            (false, '/') if chars.peek() == Some(&'/') => break,
            // `'"'`: a lifetime is never followed by a quote.
            (false, '\'') if chars.peek() == Some(&'"') => {
                chars.next();
                code.push_str("' ");
            }
            (false, _) => code.push(c),
        }
    }
    code
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The sites in one source file.
fn sites(src: &str) -> [usize; 3] {
    let mut n = [0; 3];
    for line in src.lines() {
        let code = code_of(line);
        let mut from = 0;
        while let Some(at) = code[from..].find("unsafe").map(|i| from + i) {
            from = at + "unsafe".len();
            let before = code[..at].chars().next_back();
            let after = &code[from..];
            if before.is_some_and(is_ident) || after.chars().next().is_some_and(is_ident) {
                continue;
            }
            let after = after.trim_start();
            let word =
                |w: &str| after.strip_prefix(w).filter(|r| !r.chars().next().is_some_and(is_ident));
            if let Some(rest) = word("fn") {
                if !rest.trim_start().starts_with('(') {
                    n[0] += 1;
                }
            } else if after.starts_with('{') {
                n[1] += 1;
            } else if word("impl").is_some() {
                n[2] += 1;
            } else {
                panic!("an `unsafe` this inventory has no rule for: {line}");
            }
        }
    }
    n
}

#[test]
fn unsafe_sites_match_the_stated_inventory() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut found = BTreeMap::new();
    for entry in std::fs::read_dir(&src).expect("read src/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read source file");
            let n = sites(&text);
            if n != [0; 3] {
                found.insert(path.file_name().unwrap().to_string_lossy().into_owned(), n);
            }
        }
    }
    let expected: BTreeMap<String, [usize; 3]> =
        EXPECTED.iter().map(|&(f, n)| (f.to_string(), n)).collect();
    let total = |m: &BTreeMap<String, [usize; 3]>| m.values().flatten().sum::<usize>();
    assert_eq!(
        found,
        expected,
        "`unsafe` sites per file ([fn, block, impl]) moved: {} found, {} stated — update \
         DESIGN.md's inventory and this table together",
        total(&found),
        total(&expected)
    );
}

#[test]
fn the_counter_reads_code_not_comments_or_strings() {
    let src = r#"
        unsafe fn a() {}
        pub(crate) unsafe fn b<const R: usize>() {}
        type P = unsafe fn(usize) -> usize;
        let x = unsafe { a() };
        unsafe impl Send for S {}
        // unsafe fn c() {}
        /// `unsafe { }` in a doc comment
        let s = "unsafe { }"; // unsafe {
        let q = '"'; unsafe { b() }
        fn not_unsafe_fn() {}
    "#;
    assert_eq!(sites(src), [2, 2, 1]);
}
