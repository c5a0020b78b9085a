//! Repo-specific static checks, in the cargo-xtask style: a plain binary
//! crate invoked as `cargo run -p xtask -- lint` (CI runs it in the lint
//! job). No dependencies, line-based analysis — fast, offline, and easy
//! to audit; anything needing real parsing belongs in clippy instead.
//!
//! Checks:
//!
//! 1. **`unsafe` needs a safety story.** Every line using `unsafe` in
//!    non-test library code must be covered by a `// SAFETY:` comment in
//!    the lines just above (or on the line itself), or — for `unsafe fn`
//!    declarations — a `# Safety` doc section.
//! 2. **Panicking wrappers need a fallible twin.** A public method whose
//!    body is the "panic on error" idiom (`unwrap_or_else` + `panic!`)
//!    must have a `try_<name>` or `<name>_checked` sibling in the same
//!    crate, so callers always have a non-panicking path (this repo's
//!    fallible read-path convention).
//! 3. **No deprecated surface.** `#[deprecated]` items and
//!    `#[allow(deprecated)]` call sites are banned outside test code:
//!    deprecations must be resolved by removal, not silenced.
//! 4. **Durability barriers belong to `raw.rs`.** The commit pipeline's
//!    crash proofs hold only if every fsync flows through
//!    `RawFile::sync_all`, where fault injection and the op clock can see
//!    it. Outside `raw.rs`, `.sync_data(` is banned outright (the shadow
//!    protocol needs `sync_all` semantics), and `.sync_all(` is banned in
//!    any file whose code touches `std::fs::File` directly, except inside
//!    an `impl RawFile for …` block: there it forwards to an inner
//!    `RawFile`, which is the sanctioned path, not a raw barrier.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(Path::new(".")),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::FAILURE
        }
    }
}

fn lint(root: &Path) -> ExitCode {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    files.sort();
    let mut findings = Vec::new();
    let mut crate_sources: Vec<(PathBuf, String)> = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        findings.extend(check_file(path, &text));
        crate_sources.push((path.clone(), text));
    }
    findings.extend(check_panicking_twins(&crate_sources));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    if findings.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Library sources only: every `src/` tree in the workspace, skipping
/// build output, the lints' own fixtures, and integration `tests/`
/// directories (test code may panic freely).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "tests" | "benches") {
                continue;
            }
            // The lint's own sources carry the banned patterns as string
            // literals; its behaviour is covered by unit tests instead.
            if name == "xtask" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") && path.components().any(|c| c.as_os_str() == "src") {
            out.push(path);
        }
    }
}

struct Finding {
    file: PathBuf,
    line: usize,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file.display(), self.line, self.message)
    }
}

/// Byte offset where the file's trailing test region starts (`#[cfg(test)]`
/// onwards), or the file length if it has none. Test modules in this
/// workspace sit at the end of the file, so everything after the first
/// `#[cfg(test)]` is test code.
fn test_region_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len())
}

/// Strip a line comment, leaving code only (string literals containing
/// `//` are rare enough in this workspace that the approximation is fine
/// for these lints).
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// True when `code` uses the `unsafe` keyword as code (not inside an
/// identifier).
fn uses_unsafe(code: &str) -> bool {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|tok| tok == "unsafe")
}

/// How many lines above an `unsafe` use we look for its justification.
/// Doc comments and attributes between the justification and the use are
/// skipped, so this bounds only the prose-free gap.
const SAFETY_LOOKBACK: usize = 12;

fn check_file(path: &Path, text: &str) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    let test_start = test_region_start(&lines);
    let mut findings = Vec::new();

    // Check 4 context: `raw.rs` is the one legitimate home of real file
    // barriers; elsewhere, naming `std::fs::File` in code means `.sync_all(`
    // on this file is a raw fsync that bypasses the fault/model layers.
    let is_raw = path.file_name().is_some_and(|n| n == "raw.rs");
    let touches_fs_file = lines
        .iter()
        .take(test_start)
        .any(|l| code_of(l).contains("std::fs::File"));
    let forwards = in_rawfile_impl(&lines);

    for (idx, raw) in lines.iter().enumerate().take(test_start) {
        let trimmed = raw.trim_start();
        // Comment and doc lines are not uses.
        let is_comment = trimmed.starts_with("//");

        // Check 3: no deprecated surface outside tests.
        if !is_comment
            && (trimmed.starts_with("#[deprecated") || trimmed.contains("#[allow(deprecated)]"))
        {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: idx + 1,
                message: "deprecated surface in non-test code: remove the item (and its \
                          call sites) instead of keeping or silencing the deprecation"
                    .into(),
            });
        }

        // Check 4: durability barriers outside raw.rs.
        if !is_comment && !is_raw {
            let code = code_of(raw);
            let bans_sync_data = code.contains(".sync_data(") || code.contains("File::sync_data");
            let bans_sync_all = code.contains("File::sync_all")
                || (touches_fs_file && !forwards[idx] && code.contains(".sync_all("));
            if bans_sync_data || bans_sync_all {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    message: "raw durability barrier outside raw.rs: route the fsync \
                              through `RawFile::sync_all` so fault injection and the \
                              model checker can see it"
                        .into(),
                });
            }
        }

        // Check 1: unsafe needs a SAFETY justification.
        if !is_comment && uses_unsafe(code_of(raw)) {
            let is_unsafe_fn_decl = {
                let code = code_of(raw);
                code.contains("unsafe fn") || code.contains("unsafe extern")
            };
            let start = idx.saturating_sub(SAFETY_LOOKBACK);
            let covered = lines[start..=idx].iter().any(|l| {
                let t = l.trim_start();
                t.contains("SAFETY:") || (is_unsafe_fn_decl && t.contains("# Safety"))
            });
            if !covered {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    message: if is_unsafe_fn_decl {
                        "unsafe fn without a `# Safety` doc section (or `// SAFETY:` \
                         comment) just above"
                            .into()
                    } else {
                        "unsafe use without a `// SAFETY:` comment just above".into()
                    },
                });
            }
        }
    }
    findings
}

/// Per line, whether it lies inside an `impl … RawFile for …` block (its
/// opening line included), tracked by brace depth. A `.sync_all(` there
/// forwards to an inner `RawFile` rather than issuing a raw fsync.
fn in_rawfile_impl(lines: &[&str]) -> Vec<bool> {
    let mut out = Vec::with_capacity(lines.len());
    let mut depth = 0usize;
    // Brace depth just outside the open impl block, if any.
    let mut block: Option<usize> = None;
    for line in lines {
        let code = code_of(line);
        let t = code.trim_start();
        if block.is_none() && t.starts_with("impl") && t.contains("RawFile for ") {
            block = Some(depth);
        }
        out.push(block.is_some());
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if block == Some(depth) {
                        block = None;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// A `pub fn name` whose body uses the panic-on-error idiom, found by
/// [`panicking_pub_fns`].
#[derive(Debug, PartialEq)]
struct PanickingFn {
    name: String,
    line: usize,
}

/// How many lines of a function body we scan for the panic idiom — the
/// panicking wrappers in this workspace are short delegation shims.
const BODY_WINDOW: usize = 20;

/// Public functions (outside the test region) whose body contains both
/// `unwrap_or_else` and `panic!` — the workspace's "infallible wrapper
/// over a fallible twin" idiom. The scan window ends at the next function
/// declaration, so one function's panics never implicate its neighbour;
/// `try_*` / `*_checked` functions are the fallible side and exempt.
fn panicking_pub_fns(text: &str) -> Vec<PanickingFn> {
    let lines: Vec<&str> = text.lines().collect();
    let test_start = test_region_start(&lines);
    let mut out = Vec::new();
    for (idx, raw) in lines.iter().enumerate().take(test_start) {
        let code = code_of(raw);
        let Some(name) = pub_fn_name(code) else {
            continue;
        };
        if name.starts_with("try_") || name.ends_with("_checked") {
            continue;
        }
        let end = lines
            .iter()
            .enumerate()
            .take((idx + 1 + BODY_WINDOW).min(test_start))
            .skip(idx + 1)
            .find(|(_, l)| is_fn_decl(code_of(l)))
            .map(|(i, _)| i)
            .unwrap_or((idx + 1 + BODY_WINDOW).min(test_start));
        let window = &lines[idx..end];
        let panics = window.iter().any(|l| code_of(l).contains("panic!"))
            && window.iter().any(|l| code_of(l).contains("unwrap_or_else"));
        if panics {
            out.push(PanickingFn {
                name: name.to_string(),
                line: idx + 1,
            });
        }
    }
    out
}

/// True when the line declares a function (of any visibility) — used to
/// stop a body-scan window at the neighbouring declaration.
fn is_fn_decl(code: &str) -> bool {
    let t = code.trim_start();
    t.split_whitespace().take(4).any(|w| w == "fn") && t.contains('(')
}

/// `Some(name)` when the line declares a public function.
fn pub_fn_name(code: &str) -> Option<&str> {
    let t = code.trim_start();
    let rest = t.strip_prefix("pub fn ").or_else(|| {
        t.strip_prefix("pub ")
            .and_then(|r| r.trim_start().strip_prefix("fn "))
    })?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    (end > 0).then(|| &rest[..end])
}

/// The crate root (`crates/<name>`) a source file belongs to, for scoping
/// the twin search.
fn crate_of(path: &Path) -> PathBuf {
    let mut dir = path.to_path_buf();
    while let Some(parent) = dir.parent() {
        if parent.file_name().is_some_and(|n| n == "src") {
            // parent of src/ is the crate root
            return parent.parent().unwrap_or(parent).to_path_buf();
        }
        dir = parent.to_path_buf();
    }
    path.to_path_buf()
}

/// Check 2 over the whole workspace: every panicking public wrapper has a
/// `try_<name>` or `<name>_checked` twin somewhere in the same crate.
fn check_panicking_twins(sources: &[(PathBuf, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, text) in sources {
        let offenders = panicking_pub_fns(text);
        if offenders.is_empty() {
            continue;
        }
        let krate = crate_of(path);
        for f in offenders {
            let try_twin = format!("fn try_{}", f.name);
            let checked_twin = format!("fn {}_checked", f.name);
            let has_twin = sources
                .iter()
                .filter(|(p, _)| crate_of(p) == krate)
                .any(|(_, t)| t.contains(&try_twin) || t.contains(&checked_twin));
            if !has_twin {
                findings.push(Finding {
                    file: path.clone(),
                    line: f.line,
                    message: format!(
                        "public panicking wrapper `{}` has no fallible twin: add \
                         `try_{}` or `{}_checked` in this crate",
                        f.name, f.name, f.name
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_without_safety_is_flagged() {
        let text = "fn f() {\n    let p = unsafe { *ptr };\n}\n";
        let f = check_file(Path::new("x/src/a.rs"), text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let text = "fn f() {\n    // SAFETY: ptr is valid for the guard's lifetime.\n    let p = unsafe { *ptr };\n}\n";
        assert!(check_file(Path::new("x/src/a.rs"), text).is_empty());
    }

    #[test]
    fn unsafe_fn_with_safety_doc_passes() {
        let text = "/// Reads the buffer.\n///\n/// # Safety\n/// Caller must hold a pin.\npub unsafe fn bytes(&self) -> &[u8] {\n    &*self.p\n}\n";
        assert!(check_file(Path::new("x/src/a.rs"), text).is_empty());
    }

    #[test]
    fn unsafe_in_identifier_or_comment_is_not_a_use() {
        let text =
            "// this mentions unsafe in prose\nfn not_unsafe_here() {}\nlet unsafe_count = 0;\n";
        assert!(check_file(Path::new("x/src/a.rs"), text).is_empty());
    }

    #[test]
    fn test_region_is_exempt() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { unsafe { x() } }\n    #[allow(deprecated)]\n    fn h() {}\n}\n";
        assert!(check_file(Path::new("x/src/a.rs"), text).is_empty());
    }

    #[test]
    fn deprecated_surface_is_flagged() {
        let text = "#[deprecated(note = \"old\")]\npub fn old() {}\n";
        let f = check_file(Path::new("x/src/a.rs"), text);
        assert_eq!(f.len(), 1);
        let text = "#[allow(deprecated)]\nfn call() { old() }\n";
        assert_eq!(check_file(Path::new("x/src/a.rs"), text).len(), 1);
    }

    #[test]
    fn panicking_wrapper_without_twin_is_flagged() {
        let a = (
            PathBuf::from("crates/x/src/a.rs"),
            "pub fn read(&self) {\n    self.try_it().unwrap_or_else(|e| panic!(\"{e}\"))\n}\n"
                .to_string(),
        );
        let f = check_panicking_twins(&[a]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`read`"));
    }

    #[test]
    fn panicking_wrapper_with_twin_in_same_crate_passes() {
        let a = (
            PathBuf::from("crates/x/src/a.rs"),
            "pub fn read(&self) {\n    self.try_read().unwrap_or_else(|e| panic!(\"{e}\"))\n}\n"
                .to_string(),
        );
        let b = (
            PathBuf::from("crates/x/src/b.rs"),
            "pub fn try_read(&self) -> Result<(), E> { Ok(()) }\n".to_string(),
        );
        assert!(check_panicking_twins(&[a, b]).is_empty());
    }

    #[test]
    fn twin_in_other_crate_does_not_count() {
        let a = (
            PathBuf::from("crates/x/src/a.rs"),
            "pub fn read(&self) {\n    self.go().unwrap_or_else(|e| panic!(\"{e}\"))\n}\n"
                .to_string(),
        );
        let b = (
            PathBuf::from("crates/y/src/b.rs"),
            "pub fn try_read(&self) {}\n".to_string(),
        );
        assert_eq!(check_panicking_twins(&[a, b]).len(), 1);
    }

    #[test]
    fn raw_barrier_outside_raw_rs_is_flagged() {
        // sync_data is banned anywhere outside raw.rs.
        let text = "fn f(file: &File) {\n    file.sync_data().unwrap();\n}\n";
        let f = check_file(Path::new("x/src/wal.rs"), text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        // sync_all is banned when the file touches std::fs::File in code.
        let text = "use std::fs::File;\nfn f(file: &File) {\n    file.sync_all().unwrap();\n}\n";
        assert_eq!(check_file(Path::new("x/src/wal.rs"), text).len(), 1);
        let text = "fn f() {\n    std::fs::File::sync_all(&h).unwrap();\n}\n";
        assert_eq!(check_file(Path::new("x/src/wal.rs"), text).len(), 1);
    }

    #[test]
    fn rawfile_trait_sync_and_raw_rs_itself_pass() {
        // A `.sync_all(` call in a file that never names std::fs::File is
        // a RawFile trait call — the sanctioned path.
        let text = "fn f(&mut self) -> Result<(), E> {\n    self.file.sync_all()\n}\n";
        assert!(check_file(Path::new("x/src/file.rs"), text).is_empty());
        // raw.rs is the one legitimate home of the real barrier.
        let text = "use std::fs::File;\nfn f(file: &File) {\n    file.sync_all().unwrap();\n}\n";
        assert!(check_file(Path::new("x/src/raw.rs"), text).is_empty());
        // Mentioning std::fs::File in a comment does not arm the check.
        let text = "// wraps std::fs::File\nfn f(&mut self) -> Result<(), E> {\n    self.file.sync_all()\n}\n";
        assert!(check_file(Path::new("x/src/os.rs"), text).is_empty());
    }

    #[test]
    fn rawfile_impl_forwarding_sync_all_passes() {
        // A wrapper `RawFile` forwarding `sync_all` to its inner `RawFile`
        // is not a raw barrier, even in a file that names std::fs::File…
        let text = "use std::fs::File;\n\
                    impl<F: RawFile> RawFile for Timed<F> {\n\
                    \x20   fn sync_all(&mut self) -> io::Result<()> {\n\
                    \x20       let inner = &mut self.inner;\n\
                    \x20       self.t.child(0, || inner.sync_all())\n\
                    \x20   }\n\
                    }\n\
                    fn f(file: &File) {\n\
                    \x20   file.sync_all().unwrap();\n\
                    }\n";
        // …but a `.sync_all(` after the impl block closes still is.
        let f = check_file(Path::new("x/src/trace.rs"), text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 9);
    }

    #[test]
    fn pub_fn_name_parses_declarations() {
        assert_eq!(pub_fn_name("pub fn read_page(&self) {"), Some("read_page"));
        assert_eq!(pub_fn_name("    pub fn sync(&self) -> R {"), Some("sync"));
        assert_eq!(pub_fn_name("fn private() {"), None);
        assert_eq!(pub_fn_name("pub struct Foo {"), None);
    }
}
