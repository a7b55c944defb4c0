//! The command-line contract of every argument-taking binary: `--help`
//! prints the usage on stdout and exits 0, a usage error exits 2 and
//! names what was wrong, and no command line makes a binary panic.
//!
//! Builds the release binaries once with the `cargo` running this test,
//! then spawns them straight from the target directory. Every case here
//! fails before a flow runs, so the binaries return in milliseconds.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// Every binary that reads argv, with one of its value-taking flags
/// (`None` where it takes none).
const BINARIES: [(&str, Option<&str>); 14] = [
    ("dse", Some("--design")),
    ("explore", Some("--design")),
    ("lint", Some("--design")),
    ("verify", Some("--design")),
    ("report", Some("--ledger")),
    ("serve", Some("--load")),
    ("simcheck", Some("--design")),
    ("sweep", Some("--partitions")),
    ("trace", Some("--trace-out")),
    ("profile", Some("--collapsed-out")),
    ("explain", None),
    ("export", None),
    ("fig09", None),
    ("hlsb-serve", Some("--jobs")),
];

/// The release binaries' directory, built on first use.
fn bin_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "-q",
                "-p",
                "hlsb-bench",
                "-p",
                "hlsb-serve",
                "--bins",
            ])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .status()
            .expect("spawn cargo build");
        assert!(status.success(), "building the binaries failed");
        // This test runs from <target>/<profile>/deps/.
        let exe = std::env::current_exe().expect("test executable path");
        let target = exe.ancestors().nth(3).expect("target directory");
        target.join("release")
    })
}

fn run(bin: &str, args: &[&str]) -> Output {
    let output = Command::new(bin_dir().join(bin))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert_ne!(
        output.status.code(),
        Some(101),
        "{bin} {args:?} panicked:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Asserts a usage error: exit 2, stderr names `needle`, no flow ran.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let output = run(bin, args);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{bin} {args:?}:\n{stdout}\n{stderr}"
    );
    assert!(
        stderr.starts_with(&format!("{bin}: ")) && stderr.contains(needle),
        "{bin} {args:?}: stderr does not name `{needle}`:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: no usage:\n{stderr}"
    );
    assert!(
        !stdout.contains("Fmax"),
        "{bin} {args:?} ran a flow:\n{stdout}"
    );
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for (bin, _) in BINARIES {
        for help in ["--help", "-h"] {
            let output = run(bin, &[help]);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert_eq!(output.status.code(), Some(0), "{bin} {help}");
            assert!(
                stdout.starts_with(&format!("usage: {bin}")),
                "{bin} {help}:\n{stdout}"
            );
        }
    }
}

#[test]
fn unknown_flags_and_missing_values_exit_two() {
    for (bin, value_flag) in BINARIES {
        assert_usage_error(bin, &["--no-such-flag"], "`--no-such-flag`");
        if let Some(flag) = value_flag {
            assert_usage_error(bin, &[flag], &format!("{flag} needs a value"));
        }
    }
}

#[test]
fn wrong_configurations_are_refused_before_any_flow_runs() {
    assert_usage_error("explain", &["vector", "bogus"], "`bogus`");
    assert_usage_error("export", &["vector", "bogus"], "`bogus`");
    assert_usage_error("sweep", &["vector", "--partition", "auto"], "`--partition`");
    assert_usage_error("fig09", &["--placd"], "`--placd`");
    assert_usage_error("export", &["nosuch"], "`nosuch`");
    assert_usage_error("explain", &["nosuch"], "`nosuch`");
    assert_usage_error("sweep", &["all"], "`all`");
    assert_usage_error("trace", &["genome", "all", "extra"], "`extra`");
    assert_usage_error("lint", &["--target", "vu9"], "bad --target value `vu9`");
    assert_usage_error("dse", &["--partitions", "4,x"], "bad --partitions value");
    assert_usage_error("hlsb-serve", &["--wave", "many"], "bad --wave value `many`");
}
