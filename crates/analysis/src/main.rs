//! `amopt-lint` CLI.
//!
//! ```text
//! amopt-lint check [--root <dir>]
//! ```
//!
//! Exits 0 when the workspace is clean, 1 on any finding, 2 on usage or
//! I/O errors.  `--root` defaults to the nearest ancestor directory whose
//! `Cargo.toml` declares `[workspace]` (so `cargo run -p amopt-analysis --
//! check` works from anywhere inside the repo).

#![forbid(unsafe_code)]

use amopt_analysis::{report, workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: amopt-lint check [--root <dir>]");
        return ExitCode::from(2);
    };
    if cmd != "check" {
        eprintln!("unknown command `{cmd}`; the only command is `check`");
        return ExitCode::from(2);
    }
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map(Ok).unwrap_or_else(find_workspace_root) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("amopt-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match workspace::check_workspace(&root) {
        Ok(report) => {
            print!("{}", report::human(&report));
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("amopt-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Nearest ancestor whose `Cargo.toml` contains a `[workspace]` table.
fn find_workspace_root() -> std::io::Result<PathBuf> {
    let mut dir = std::env::current_dir()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(std::io::Error::other(
                "no workspace root found above the current directory",
            ));
        }
    }
}
