//! Records the compiler version and build profile for the host-shape
//! line every run prints, and whether this package's release profile
//! still matches the repository's.

use std::path::Path;
use std::process::Command;

/// The `[profile.release]` section of a manifest, without blank lines and
/// comments.
fn release_profile(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let (_, body) = text.split_once("[profile.release]")?;
    let body = body.split("\n[").next().unwrap_or(body);
    let lines: Vec<&str> = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    Some(lines.join("\n"))
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // The benchmark is a workspace of its own, so the repository's release
    // profile does not apply to it; Cargo.toml repeats it by hand.
    let dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let own = Path::new(&dir).join("Cargo.toml");
    let root = Path::new(&dir).join("../Cargo.toml");
    let matches = match (release_profile(&own), release_profile(&root)) {
        (Some(a), Some(b)) if a == b => "same",
        (Some(_), Some(_)) => {
            println!("cargo:warning=perfbench's [profile.release] differs from the repository's; the benchmark does not measure the repository's release settings");
            "differs"
        }
        _ => "unknown",
    };
    println!("cargo:rustc-env=PERFBENCH_ROOT_PROFILE={matches}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=Cargo.toml");
    println!("cargo:rerun-if-changed=../Cargo.toml");
}
