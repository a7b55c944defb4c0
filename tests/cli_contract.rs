//! The command-line contract of every argument-taking binary: `--help`
//! prints the usage on stdout and exits 0, a usage error exits 2 and
//! names what was wrong, and no command line makes a binary panic. Also:
//! `verify --with-lint` prints the same lint reports as `lint`.
//!
//! Builds the release binaries once with the `cargo` running this test,
//! then spawns them straight from the target directory. Every other case
//! fails before a flow runs, and the lint parity case only probes (no
//! placement), so the binaries return in well under a second.

use std::path::{Path, PathBuf};
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
    run_in(bin, args, Path::new("."))
}

/// Like [`run`], with `dir` as the binary's working directory.
fn run_in(bin: &str, args: &[&str], dir: &Path) -> Output {
    let output = Command::new(bin_dir().join(bin))
        .args(args)
        .current_dir(dir)
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
    // The option set has one reader: no lowercase letters, no aliases.
    assert_usage_error("serve", &["--options", "bb"], "bad --options value `bb`");
    assert_usage_error(
        "explore",
        &["--configs", "opt"],
        "bad --configs value `opt`",
    );
    assert_usage_error("sweep", &["vector", "--partition", "auto"], "`--partition`");
    assert_usage_error("fig09", &["--placd"], "`--placd`");
    assert_usage_error("export", &["nosuch"], "`nosuch`");
    assert_usage_error("explain", &["nosuch"], "`nosuch`");
    assert_usage_error("sweep", &["all"], "`all`");
    assert_usage_error("trace", &["genome", "all", "extra"], "`extra`");
    assert_usage_error("lint", &["--target", "vu9"], "bad --target value `vu9`");
    assert_usage_error("dse", &["--partitions", "4,x"], "bad --partitions value");
    assert_usage_error("dse", &["--artifacts", "x"], "`--artifacts`");
    // A regular file cannot be a store directory.
    let file = std::env::temp_dir().join(format!("hlsb_cli_contract_{}", std::process::id()));
    std::fs::write(&file, "not a store\n").unwrap();
    let path = file.to_str().expect("utf-8 temp path");
    assert_usage_error("dse", &["--store", path], path);
    std::fs::remove_file(&file).unwrap();
    assert_usage_error("hlsb-serve", &["--wave", "many"], "bad --wave value `many`");
}

#[test]
fn write_baseline_dash_writes_stdout_not_a_file() {
    let dir = std::env::temp_dir().join(format!("hlsb_cli_baseline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger_path = dir.join("ledger.jsonl");
    let ledger = hlsb_telemetry::RunLedger::open(&ledger_path).expect("open ledger");
    for wall_ms in [10.0, 12.0, 11.0] {
        let mut rec = hlsb_telemetry::RunRecord::new("flow", "vector", 1, "ok", wall_ms);
        rec.add_stage("implement", wall_ms);
        rec.add_count("jobs", 1);
        ledger.append(rec).expect("append record");
    }
    drop(ledger);
    let ledger_arg = ledger_path.to_str().expect("utf-8 temp path");

    let output = run_in(
        "report",
        &["--ledger", ledger_arg, "--write-baseline", "-"],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stdout}\n{stderr}");
    let baseline = hlsb_telemetry::Baseline::parse(&stdout).expect("stdout is a baseline");
    assert_eq!(baseline.stages.len(), 1, "{stdout}");
    assert!(stderr.contains("wrote baseline"), "{stderr}");
    assert!(!dir.join("-").exists(), "a file named `-` was written");

    // The check report goes to stdout too, so the two cannot share it.
    assert_usage_error(
        "report",
        &[
            "--ledger",
            ledger_arg,
            "--write-baseline",
            "-",
            "--baseline",
            "b",
        ],
        "--write-baseline -",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_with_lint_prints_the_lint_reports_of_lint() {
    // Both binaries lint through the same probe stage, so the lint lines
    // of a combined verify run are exactly what `lint` prints.
    let lint = run("lint", &["--design", "all", "--format", "jsonl"]);
    let verify = run(
        "verify",
        &["--design", "all", "--with-lint", "--format", "jsonl"],
    );
    let lint_out = String::from_utf8_lossy(&lint.stdout);
    let verify_out = String::from_utf8_lossy(&verify.stdout);
    let lint_lines: Vec<&str> = verify_out
        .lines()
        .filter(|l| l.starts_with(r#"{"tool":"hlsb-lint","#))
        .collect();
    assert!(!lint_lines.is_empty(), "no lint lines:\n{verify_out}");
    assert_eq!(lint_lines, lint_out.lines().collect::<Vec<_>>());
}
