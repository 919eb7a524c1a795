//! Test harness for the rules clippy enforces (L1, L2, L4, L5, L7, L10,
//! L11; `docs/INVARIANTS.md` "Enforced by clippy").
//!
//! [`run`] writes a small fixture workspace whose packages stand in for
//! real crates of this one: each reads a copy of the `clippy.toml` clippy
//! would use for that crate and carries the `#![deny(clippy::…)]` lines of
//! its real crate root. It runs `cargo clippy` over the fixture once and
//! returns the diagnostics, so the rule tests in [`crate::rules`] check the
//! workspace's own config end to end, by file and line.

use std::collections::BTreeSet;
use std::fs;
use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::str::Chars;

/// Fixture package → the real crate whose config and crate root it copies.
/// `lib` takes the root `clippy.toml` (prox-core has no file of its own).
pub const PACKAGES: [(&str, &str); 3] = [
    ("lib", "crates/core"),
    ("algos", "crates/algos"),
    ("bench", "crates/bench"),
];

/// One diagnostic: lint name, fixture-relative file, line, and clippy's
/// rendered text (which carries the config's `reason`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diag {
    pub lint: String,
    pub file: String,
    pub line: usize,
    pub rendered: String,
}

/// Writes `files` (fixture-relative paths such as `lib/src/x.rs`; every
/// `<pkg>/src/<name>.rs` becomes a `pub mod` of that package's library)
/// and returns clippy's diagnostics over all targets: `clippy::*` lints
/// plus unfulfilled `#[expect]`s, deduplicated across lib and test builds.
pub fn run(files: &[(&str, &str)]) -> Vec<Diag> {
    let dir = fixture_dir();
    write_fixture(&crate::workspace_root(), &dir, files);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    // `--cap-lints warn` turns the crate roots' `deny`s into warnings so a
    // flagged library does not stop its bins and tests from being checked.
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--workspace"])
        .args(["--all-targets", "--message-format=json", "--target-dir"])
        .arg(dir.join("target"))
        .args(["--", "--cap-lints", "warn"])
        .current_dir(&dir)
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("cargo clippy runs (needs the clippy toolchain component)");
    assert!(
        out.status.success(),
        "cargo clippy failed on the fixture:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let diags: BTreeSet<Diag> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(parse)
        .collect();
    diags.into_iter().collect()
}

/// `<target>/<profile>/clippy-fixture`, next to this test binary's `deps/`.
fn fixture_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    exe.parent()
        .and_then(Path::parent)
        .map_or_else(std::env::temp_dir, Path::to_path_buf)
        .join("clippy-fixture")
}

fn write(path: &Path, text: &str) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("fixture dir");
    }
    fs::write(path, text).expect("fixture file");
}

fn write_fixture(root: &Path, dir: &Path, files: &[(&str, &str)]) {
    let members: Vec<String> = PACKAGES.iter().map(|(p, _)| format!("{p:?}")).collect();
    let manifest = format!(
        "[workspace]\nresolver = \"2\"\nmembers = [{}]\n",
        members.join(", ")
    );
    write(&dir.join("Cargo.toml"), &manifest);
    let root_toml = fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    write(&dir.join("clippy.toml"), &root_toml);
    let core = root.join("crates/core").display().to_string();
    for (pkg, real) in PACKAGES {
        let pkg_dir = dir.join(pkg);
        // Start clean so files of an earlier fixture version cannot linger.
        if pkg_dir.exists() {
            fs::remove_dir_all(&pkg_dir).expect("clear fixture package");
        }
        let manifest = format!(
            "[package]\nname = \"fixture-{pkg}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[dependencies]\nprox-core = {{ path = {core:?} }}\n"
        );
        write(&pkg_dir.join("Cargo.toml"), &manifest);
        if let Ok(toml) = fs::read_to_string(root.join(real).join("clippy.toml")) {
            write(&pkg_dir.join("clippy.toml"), &toml);
        }
        let real_lib = fs::read_to_string(root.join(real).join("src/lib.rs")).expect("crate root");
        let mut lib: String = real_lib
            .lines()
            .filter(|l| l.starts_with("#![deny(clippy::"))
            .map(|l| format!("{l}\n"))
            .collect();
        let src = format!("{pkg}/src/");
        for (rel, _) in files {
            let module = rel.strip_prefix(&src).and_then(|m| m.strip_suffix(".rs"));
            if let Some(m) = module.filter(|m| !m.contains('/')) {
                lib.push_str(&format!("pub mod {m};\n"));
            }
        }
        write(&pkg_dir.join("src/lib.rs"), &lib);
    }
    for (rel, src) in files {
        write(&dir.join(rel), src);
    }
}

/// One `cargo --message-format=json` line → the diagnostic, if it is a
/// clippy lint or an unfulfilled expectation, at its primary span.
fn parse(line: &str) -> Option<Diag> {
    let msg = Json::parse(line)?;
    if msg.get("reason")?.str()? != "compiler-message" {
        return None;
    }
    let diag = msg.get("message")?;
    let lint = diag.get("code")?.get("code")?.str()?;
    if !(lint.starts_with("clippy::") || lint == "unfulfilled_lint_expectations") {
        return None;
    }
    let Json::Arr(spans) = diag.get("spans")? else {
        return None;
    };
    let primary = spans
        .iter()
        .find(|s| matches!(s.get("is_primary"), Some(Json::Bool(true))))?;
    let Json::Num(line) = primary.get("line_start")? else {
        return None;
    };
    Some(Diag {
        lint: lint.to_string(),
        file: primary.get("file_name")?.str()?.replace('\\', "/"),
        line: *line as usize,
        rendered: diag.get("rendered")?.str()?.to_string(),
    })
}

/// Just enough JSON for cargo's diagnostic lines.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let mut chars = text.chars().peekable();
        let v = Json::value(&mut chars)?;
        Json::skip_ws(&mut chars);
        chars.peek().is_none().then_some(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn skip_ws(chars: &mut Peekable<Chars>) {
        while chars.next_if(|c| c.is_ascii_whitespace()).is_some() {}
    }

    fn value(chars: &mut Peekable<Chars>) -> Option<Json> {
        Json::skip_ws(chars);
        match *chars.peek()? {
            '{' => {
                chars.next();
                let mut fields = Vec::new();
                loop {
                    Json::skip_ws(chars);
                    if chars.next_if_eq(&'}').is_some() {
                        return Some(Json::Obj(fields));
                    }
                    let Json::Str(key) = Json::value(chars)? else {
                        return None;
                    };
                    Json::skip_ws(chars);
                    chars.next_if_eq(&':')?;
                    fields.push((key, Json::value(chars)?));
                    Json::skip_ws(chars);
                    chars.next_if_eq(&',');
                }
            }
            '[' => {
                chars.next();
                let mut items = Vec::new();
                loop {
                    Json::skip_ws(chars);
                    if chars.next_if_eq(&']').is_some() {
                        return Some(Json::Arr(items));
                    }
                    items.push(Json::value(chars)?);
                    Json::skip_ws(chars);
                    chars.next_if_eq(&',');
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next()? {
                        '"' => return Some(Json::Str(s)),
                        '\\' => match chars.next()? {
                            'n' => s.push('\n'),
                            't' => s.push('\t'),
                            'r' => s.push('\r'),
                            'u' => {
                                let hex: String = chars.by_ref().take(4).collect();
                                let code = u32::from_str_radix(&hex, 16).ok()?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            c => s.push(c),
                        },
                        c => s.push(c),
                    }
                }
            }
            _ => {
                let mut word = String::new();
                while let Some(c) = chars.next_if(|c| !",]} \n\t\r".contains(*c)) {
                    word.push(c);
                }
                match word.as_str() {
                    "null" => Some(Json::Null),
                    "true" => Some(Json::Bool(true)),
                    "false" => Some(Json::Bool(false)),
                    w => w.parse().ok().map(Json::Num),
                }
            }
        }
    }
}
