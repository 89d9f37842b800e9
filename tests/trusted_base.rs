//! Keeps the "Trusted base" table of `docs/ARCHITECTURE.md` honest: every
//! row's Lines and Code columns are recomputed from its file glob, and the
//! total from the rows, so a change to a checker shows its delta in the
//! diff of that table. Every `.rs` file of the crates the base draws on
//! must be named exactly once, by the table or by the "Outside the base"
//! list under it, so a new or moved file cannot silently leave or enter
//! the base.
//!
//! "Lines" counts newline characters (as `wc -l` does); "Code" counts the
//! lines before the file's first `#[cfg(test)]` line (all of them if it
//! has none). A glob is a path relative to the workspace root whose last
//! segment may hold one `*`, with an optional `**/` before it (every
//! subdirectory) and at most one `{a,b,…}` alternation.

use std::fs;
use std::path::{Path, PathBuf};

/// One parsed table row: the glob, the file count it states (if any), and
/// its Lines and Code columns.
struct Row {
    glob: String,
    files: Option<usize>,
    lines: usize,
    code: usize,
}

fn number(cell: &str) -> usize {
    cell.trim()
        .trim_matches('*')
        .replace(',', "")
        .parse()
        .unwrap_or_else(|_| panic!("not a count: {cell:?}"))
}

/// The table's rows, and its **Total** row's Lines and Code.
fn trusted_base_table(doc: &str) -> (Vec<Row>, (usize, usize)) {
    let section = doc
        .split("\n## Trusted base\n")
        .nth(1)
        .expect("docs/ARCHITECTURE.md has a \"## Trusted base\" section");
    let mut rows = Vec::new();
    let mut total = None;
    let table = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'));
    for line in table.skip(2) {
        let cells: Vec<&str> = line.split('|').collect();
        let [_, part, files, lines, code, _] = cells[..] else {
            panic!("a trusted-base row has four cells: {line}");
        };
        if part.contains("**Total**") {
            total = Some((number(lines), number(code)));
            continue;
        }
        let glob = files
            .split('`')
            .nth(1)
            .unwrap_or_else(|| panic!("no `glob` in {files:?}"))
            .to_string();
        let stated = files
            .split_once('(')
            .map(|(_, rest)| number(rest.trim_end_matches([')', ' ']).trim_end_matches("files")));
        rows.push(Row {
            glob,
            files: stated,
            lines: number(lines),
            code: number(code),
        });
    }
    (rows, total.expect("a **Total** row"))
}

/// The first `glob` of each item of the "Outside the base" list.
fn outside_the_base(doc: &str) -> Vec<String> {
    let list = doc
        .split("\n### Outside the base\n")
        .nth(1)
        .expect("docs/ARCHITECTURE.md has an \"### Outside the base\" list");
    list.lines()
        .take_while(|l| !l.starts_with('#'))
        .filter_map(|l| l.strip_prefix("- `"))
        .map(|item| item.split('`').next().expect("a `glob`").to_string())
        .collect()
}

/// Every file under `root` that `glob` names.
fn expand(root: &Path, glob: &str) -> Vec<PathBuf> {
    if let Some(open) = glob.find('{') {
        let close = open + glob[open..].find('}').expect("closed alternation");
        return glob[open + 1..close]
            .split(',')
            .flat_map(|alt| {
                expand(
                    root,
                    &format!("{}{alt}{}", &glob[..open], &glob[close + 1..]),
                )
            })
            .collect();
    }
    let (dir, name) = glob.rsplit_once('/').expect("a glob names a directory");
    let (dir, recursive) = match dir.strip_suffix("/**") {
        Some(dir) => (dir, true),
        None => (dir, false),
    };
    let matches = |file: &str| match name.split_once('*') {
        Some((prefix, suffix)) => {
            file.len() >= prefix.len() + suffix.len()
                && file.starts_with(prefix)
                && file.ends_with(suffix)
        }
        None => file == name,
    };
    let mut out = Vec::new();
    let mut dirs = vec![root.join(dir)];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                if recursive {
                    dirs.push(path);
                }
            } else if path
                .file_name()
                .and_then(|f| f.to_str())
                .is_some_and(matches)
            {
                out.push(path);
            }
        }
    }
    assert!(!out.is_empty(), "`{glob}` names no file");
    out
}

/// `(lines, code lines)` of one file.
fn count(path: &Path) -> (usize, usize) {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let lines = text.matches('\n').count();
    let code = text
        .lines()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(lines);
    (lines, code)
}

#[test]
fn trusted_base_table_matches_the_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("architecture doc");
    let (rows, total) = trusted_base_table(&doc);
    assert!(!rows.is_empty(), "the trusted-base table has rows");
    let mut sum = (0, 0);
    for row in &rows {
        let mut files = expand(root, &row.glob);
        files.sort();
        files.dedup();
        let counted = files
            .iter()
            .map(|f| count(f))
            .fold((0, 0), |(l, c), (fl, fc)| (l + fl, c + fc));
        assert_eq!(
            (row.lines, row.code),
            counted,
            "trusted-base row `{}`: the table says (lines, code) = {:?}, its {} files have {:?}",
            row.glob,
            (row.lines, row.code),
            files.len(),
            counted
        );
        if let Some(stated) = row.files {
            assert_eq!(stated, files.len(), "file count of `{}`", row.glob);
        }
        sum = (sum.0 + counted.0, sum.1 + counted.1);
    }
    assert_eq!(total, sum, "the trusted-base **Total** row");
}

#[test]
fn every_file_of_the_base_crates_is_classified_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("architecture doc");
    let (rows, _) = trusted_base_table(&doc);
    let outside = outside_the_base(&doc);
    assert!(
        !outside.is_empty(),
        "the \"Outside the base\" list has items"
    );
    let mut named: Vec<PathBuf> = rows
        .iter()
        .map(|row| row.glob.as_str())
        .chain(outside.iter().map(String::as_str))
        .flat_map(|glob| expand(root, glob))
        .collect();
    named.sort();
    for crate_dir in ["exact", "games", "proofs"] {
        for file in expand(root, &format!("crates/{crate_dir}/src/**/*.rs")) {
            let times = named.iter().filter(|&n| n == &file).count();
            assert_eq!(
                times,
                1,
                "{} is named {times} times by the trusted-base table and the \"Outside the base\" list; name it exactly once",
                file.display()
            );
        }
    }
}
