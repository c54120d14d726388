//! The repository's counts as a ratchet: source sizes, config fields,
//! routes, locks and test sleeps, each compared with the exact value
//! checked in at `tests/ratchet.txt` (which documents the format and the
//! counting rule). A count that rises fails; a count that falls also fails,
//! naming the value to lower the row to, so every gain lands in the diff.

use std::fs;
use std::path::{Path, PathBuf};

/// The part of a file the `count:` and `dispatch_arms` measures read:
/// everything before its first `#[cfg(test)]`.
fn non_test(source: &str) -> &str {
    source
        .find("#[cfg(test)]")
        .map_or(source, |end| &source[..end])
}

/// Every `.rs` file at or below `path`.
fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let entries = fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for entry in entries {
            rust_files(&entry.unwrap().path(), out);
        }
    } else if path.extension().is_some_and(|ext| ext == "rs") {
        out.push(path.to_path_buf());
    }
}

/// `pub` fields of `pub struct <name> { .. }` in `source`.
fn pub_fields(source: &str, name: &str) -> usize {
    let head = format!("pub struct {name} {{");
    let mut lines = source.lines().skip_while(|l| l.trim() != head);
    assert!(lines.next().is_some(), "no `{head}`");
    lines
        .take_while(|l| *l != "}")
        .filter(|l| l.trim_start().starts_with("pub "))
        .count()
}

/// Whether `line` opens a route arm such as `("GET", "/stats") => ..`.
fn is_dispatch_arm(line: &str) -> bool {
    line.trim_start()
        .strip_prefix("(\"")
        .and_then(|rest| rest.split_once("\", "))
        .is_some_and(|(method, _)| {
            !method.is_empty() && method.bytes().all(|b| b.is_ascii_uppercase())
        })
}

/// Measures one row over the sources of its scope.
fn measure(measure: &str, sources: &[String]) -> usize {
    if measure == "raw_lines" {
        sources.iter().map(|s| s.lines().count()).sum()
    } else if measure == "dispatch_arms" {
        sources
            .iter()
            .flat_map(|s| non_test(s).lines())
            .filter(|l| is_dispatch_arm(l))
            .count()
    } else if let Some(text) = measure.strip_prefix("count:") {
        sources
            .iter()
            .map(|s| non_test(s).matches(text).count())
            .sum()
    } else if let Some(name) = measure.strip_prefix("pub_fields:") {
        sources.iter().map(|s| pub_fields(s, name)).sum()
    } else {
        panic!("unknown measure {measure:?}")
    }
}

#[test]
fn counts_match_the_checked_in_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = fs::read_to_string(root.join("tests/ratchet.txt")).unwrap();
    let mut failures = Vec::new();
    let mut rows = 0;
    for line in table.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The measure may hold spaces (`count:pub enum X`): it is every
        // word between the scope and the value.
        let words: Vec<&str> = line.split_whitespace().collect();
        let [name, scope, ref how @ .., value] = words[..] else {
            panic!("malformed row {line:?}");
        };
        let how = &how.join(" ");
        let expected: usize = value.parse().unwrap();
        let mut files = Vec::new();
        rust_files(&root.join(scope), &mut files);
        assert!(!files.is_empty(), "{name}: no .rs file under {scope}");
        let sources: Vec<String> = files
            .iter()
            .map(|f| fs::read_to_string(f).unwrap())
            .collect();
        let count = measure(how, &sources);
        println!("{name:<24} {count:>6}");
        if count > expected {
            failures.push(format!("{name} rose to {count} (table: {expected})"));
        } else if count < expected {
            failures.push(format!("lower `{name}` to {count}"));
        }
        rows += 1;
    }
    assert!(rows > 0, "empty ratchet table");
    assert!(failures.is_empty(), "ratchet:\n{}", failures.join("\n"));
}

#[test]
fn rules_read_what_they_say() {
    let source = "pub struct A {\n    pub x: u8,\n    y: u8,\n    pub z: u8,\n}\n\
                  pub struct B {\n    pub w: u8,\n}\n\
                  (\"GET\", \"/a\") => 1,\n    (\"Get\", \"/b\") => 2,\n\
                  #[cfg(test)]\n(\"POST\", \"/c\") => 3,\n";
    assert_eq!(pub_fields(source, "A"), 2);
    assert_eq!(pub_fields(source, "B"), 1);
    assert_eq!(non_test(source).matches("pub ").count(), 5);
    let sources = [source.to_string()];
    assert_eq!(measure("dispatch_arms", &sources), 1);
    assert_eq!(measure("raw_lines", &sources), 12);
    assert_eq!(measure("count:u8", &sources), 4);
}
