//! Records the compiler version and build profile so every result names
//! the build that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=PERFBENCH_OPT_LEVEL={}", var("OPT_LEVEL"));
    println!("cargo:rerun-if-changed=build.rs");
}
