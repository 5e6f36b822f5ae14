//! Provenance stamps for `results/BENCH_*.json`: which commit,
//! configuration, and schema produced a number, so the perf trajectory
//! is comparable across PRs.

use serde::{Serialize, Value};

/// Version of the meta block / flight-dump layout. Bump when a field
/// changes meaning.
pub const SCHEMA_VERSION: u32 = 1;

/// The provenance stamp embedded as the `meta` field of every bench
/// JSON artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Short git revision of the working tree (`"unknown"` outside a
    /// repository).
    pub git_rev: String,
    /// Whether the working tree had uncommitted changes at capture,
    /// not counting `results/`, which the bench bins themselves write.
    pub git_dirty: bool,
    /// `hds_core::config_fingerprint` of the measured configuration,
    /// rendered as 16 hex digits (`"none"` when the artifact spans
    /// several configurations).
    pub config_fingerprint: String,
    /// Unix timestamp (seconds) at capture. Wall-clock provenance only
    /// — never part of a digest.
    pub timestamp_unix_s: u64,
    /// [`SCHEMA_VERSION`] at capture.
    pub schema_version: u32,
}

impl RunMeta {
    /// Captures the current provenance. `fingerprint` is
    /// `hds_core::config_fingerprint(..)` of the configuration under
    /// measurement, or `None` for multi-config artifacts.
    #[must_use]
    pub fn capture(fingerprint: Option<u64>) -> Self {
        RunMeta {
            git_rev: git_output(&["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            git_dirty: git_dirty("."),
            config_fingerprint: fingerprint
                .map_or_else(|| "none".to_string(), |f| format!("{f:016x}")),
            timestamp_unix_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            schema_version: SCHEMA_VERSION,
        }
    }
}

impl Serialize for RunMeta {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("git_dirty".into(), Value::Bool(self.git_dirty)),
            (
                "config_fingerprint".into(),
                Value::Str(self.config_fingerprint.clone()),
            ),
            ("timestamp_unix_s".into(), Value::U64(self.timestamp_unix_s)),
            (
                "schema_version".into(),
                Value::U64(u64::from(self.schema_version)),
            ),
        ])
    }
}

/// Whether `git status` in `dir` lists a change outside `results/`.
fn git_dirty(dir: &str) -> bool {
    git_output(&[
        "-C",
        dir,
        "status",
        "--porcelain",
        "--",
        ".",
        ":(exclude)results",
    ])
    .is_some_and(|s| !s.is_empty())
}

/// Trimmed stdout of `git <args>`, or `None` when git is unavailable
/// or exits nonzero.
fn git_output(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_serializes_to_object() {
        let m = RunMeta {
            git_rev: "abc123".to_string(),
            git_dirty: false,
            config_fingerprint: format!("{:016x}", 0xfeedu64),
            timestamp_unix_s: 1_700_000_000,
            schema_version: SCHEMA_VERSION,
        };
        let v = m.to_value();
        assert_eq!(v.get("git_rev"), Some(&Value::Str("abc123".into())));
        assert_eq!(
            v.get("config_fingerprint"),
            Some(&Value::Str("000000000000feed".into()))
        );
        assert_eq!(
            v.get("schema_version"),
            Some(&Value::U64(u64::from(SCHEMA_VERSION)))
        );
    }

    #[test]
    fn dirty_ignores_results_but_not_sources() {
        let dir = std::env::temp_dir().join(format!("hds-meta-dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("results")).unwrap();
        let path = dir.to_str().unwrap();
        let git = |args: &[&str]| {
            let ok = std::process::Command::new("git")
                .args(["-C", path, "-c", "user.name=t", "-c", "user.email=t@t"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .unwrap()
                .status
                .success();
            assert!(ok, "git {args:?}");
        };
        std::fs::write(dir.join("lib.rs"), "a").unwrap();
        std::fs::write(dir.join("results/BENCH_x.json"), "1").unwrap();
        git(&["init", "-q"]);
        git(&["add", "."]);
        git(&["commit", "-q", "-m", "seed"]);
        assert!(!git_dirty(path), "fresh commit");
        std::fs::write(dir.join("results/BENCH_x.json"), "2").unwrap();
        assert!(!git_dirty(path), "a rewritten result alone is clean");
        std::fs::write(dir.join("lib.rs"), "b").unwrap();
        assert!(git_dirty(path), "a modified source is dirty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capture_never_panics() {
        let m = RunMeta::capture(Some(42));
        assert!(!m.git_rev.is_empty());
        assert_eq!(m.config_fingerprint, format!("{:016x}", 42u64));
        let m = RunMeta::capture(None);
        assert_eq!(m.config_fingerprint, "none");
    }
}
