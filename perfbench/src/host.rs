//! The host and provenance block of every run, and the process's peak
//! resident set size.

use llp::obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The host and provenance block: `nproc`, rustc version, CPU model,
/// git commit (`null` outside a git checkout), a digest of the sources
/// the benchmark builds from, the seed and the traced flag.
#[must_use]
pub fn block(seed: u64, traced: bool) -> Json {
    let opt = |v: Option<String>| v.map_or(Json::Null, |s| Json::str(&s));
    let git = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    Json::object(vec![
        (
            "nproc",
            Json::from_usize(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("rustc", opt(command_output("rustc", &["--version"]))),
        ("cpu_model", opt(cpu_model())),
        ("git_commit", opt(git)),
        ("source_digest", opt(source_digest(Path::new(".")))),
        ("seed", Json::from_u64(seed)),
        ("traced", Json::Bool(traced)),
    ])
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Rust sources and manifests under `dir`, skipping build output
/// (`target`) and hidden directories.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                sources(&path, out);
            }
        } else if [".rs", ".toml", ".lock"].iter().any(|s| name.ends_with(s)) {
            out.push(path);
        }
    }
}

/// A 128-bit digest (hex) over the root manifests and every Rust
/// source and manifest under `crates/` and `perfbench/`, with their
/// paths: it names the code built when no git commit does.
#[must_use]
pub fn source_digest(root: &Path) -> Option<String> {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let mut tree = Vec::new();
    sources(&root.join("crates"), &mut tree);
    sources(&root.join("perfbench"), &mut tree);
    tree.sort();
    files.extend(tree);
    let mut text = Vec::new();
    for path in files {
        let bytes = std::fs::read(&path).ok()?;
        text.extend_from_slice(path.strip_prefix(root).unwrap_or(&path).to_string_lossy().as_bytes());
        text.push(0);
        text.extend_from_slice(&bytes);
    }
    let [a, b] = crate::llpd::digest_bytes(&text);
    Some(format!("{a:016x}{b:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_and_source_digest_are_read() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
        let d = source_digest(root).expect("sources readable");
        assert_eq!(d.len(), 32);
        assert_eq!(source_digest(root), Some(d));
        assert_eq!(source_digest(Path::new("no-such-directory")), None);
    }
}
