//! The environment fingerprint printed with every result: which code,
//! on which machine, built how.

use observatory_obs::json::escape;
use std::path::Path;

/// Where and how a result was measured.
pub struct Fingerprint {
    git_sha: String,
    nproc: usize,
    simd: String,
    profile: &'static str,
    rustc: &'static str,
}

impl Fingerprint {
    /// Read the fingerprint from the working directory (the repository
    /// root) and the running process.
    pub fn capture() -> Fingerprint {
        Fingerprint {
            git_sha: git_sha(),
            nproc: nproc(),
            simd: observatory_linalg::simd::decision().describe(),
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_sha\":\"{}\",\"nproc\":{},\"simd\":\"{}\",\"profile\":\"{}\",\"rustc\":\"{}\"}}",
            escape(&self.git_sha),
            self.nproc,
            escape(&self.simd),
            escape(self.profile),
            escape(self.rustc),
        )
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git;
/// `none` outside a git checkout.
fn git_sha() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
