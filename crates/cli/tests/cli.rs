//! Process-level tests for the `triad` binary: exit codes, stderr routing,
//! and a serve/client round trip over a real socket.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

fn triad() -> Command {
    Command::new(env!("CARGO_BIN_EXE_triad"))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("triad_bin_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn parse_errors_exit_2_with_stderr() {
    let out = triad().args(["detect", "notaflag"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--flag"));
}

#[test]
fn runtime_errors_exit_1_with_stderr() {
    // Unknown command.
    let out = triad().arg("teleport").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // detect pointed at a missing file.
    let out = triad()
        .args([
            "detect",
            "--test",
            "/nonexistent/series.txt",
            "--train",
            "x",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "{err}");

    // eval with mismatched files.
    let dir = tmpdir("eval");
    let a = dir.join("a.txt");
    let b = dir.join("b.txt");
    std::fs::write(&a, "1\n0\n1\n").unwrap();
    std::fs::write(&b, "1\n0\n").unwrap();
    let out = triad()
        .args(["eval", "--pred"])
        .arg(&a)
        .arg("--labels")
        .arg(&b)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mismatch"));

    // client against a server that isn't there.
    let out = triad()
        .args([
            "client",
            "--verb",
            "health",
            "--addr",
            "127.0.0.1:1",
            "--timeout-ms",
            "500",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_and_gen_exit_0() {
    let out = triad().arg("help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let dir = tmpdir("gen");
    let out = triad()
        .args(["gen", "--out"])
        .arg(&dir)
        .args(["--seed", "5", "--id", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_and_inapplicable_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (
            &["detect", "--test", "t.txt", "--numeric-mode", "fast"][..],
            "--numeric-mode",
        ),
        (&["trace", "--bogus-flag", "7"][..], "--bogus-flag"),
        (
            &[
                "detect", "--test", "t.txt", "--model", "m.triad", "--epochs", "3",
            ][..],
            "--epochs",
        ),
        (
            &[
                "stream", "--test", "t.txt", "--model", "m.triad", "--train", "t.txt",
            ][..],
            "--train",
        ),
        (&["gen", "--out", "d", "--stages", "train"][..], "--stages"),
        (&["bench", "--smoke", "yes"][..], "--smoke"),
    ] {
        let out = triad().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

/// Write `values` one per line.
fn write_series(path: &std::path::Path, values: impl Iterator<Item = f64>) {
    let lines: Vec<String> = values.map(|v| format!("{v:.6}")).collect();
    std::fs::write(path, lines.join("\n")).unwrap();
}

fn sine(i: usize) -> f64 {
    (2.0 * std::f64::consts::PI * i as f64 / 40.0).sin()
}

/// The anomalous points of [`with_event`].
const EVENT: std::ops::Range<usize> = 120..160;

/// [`sine`] with a level shift over [`EVENT`].
fn with_event(i: usize) -> f64 {
    sine(i) + if EVENT.contains(&i) { 0.9 } else { 0.0 }
}

/// One valid invocation per verb, each with flags from its own row of the
/// flag table. `serve`, `client` and `stream --addr` run in
/// `serve_and_client_round_trip_over_the_binary`; `gen` and `help` in
/// `help_and_gen_exit_0`.
#[test]
fn every_verb_runs_with_its_own_flags() {
    let dir = tmpdir("verbs");
    let train = dir.join("train.txt");
    let test = dir.join("test.txt");
    let labels = dir.join("labels.txt");
    write_series(&train, (0..320).map(sine));
    write_series(&test, (0..300).map(with_event));
    write_series(
        &labels,
        (0..300).map(|i| if EVENT.contains(&i) { 1.0 } else { 0.0 }),
    );
    let path = |p: std::path::PathBuf| p.to_str().unwrap().to_string();
    let (train, test, labels) = (path(train), path(test), path(labels));
    let model = path(dir.join("m.triad"));
    let out = |tag: &str| path(dir.join(tag));
    let (bench, fleet, evalbed, trace) = (out("bench"), out("fleet"), out("evalbed"), out("trace"));
    #[rustfmt::skip]
    let runs: [(&[&str], &str); 9] = [
        (&["fit", "--train", &train, "--model", &model, "--epochs", "1", "--seed", "1",
            "--merlin-step", "4", "--threads", "1"], "saved"),
        (&["detect", "--test", &test, "--model", &model, "--labels", &labels, "--threads", "2"],
            "flagged region"),
        (&["stream", "--test", &test, "--model", &model, "--chunk", "50", "--checkpoint-at", "100"],
            "flagged region"),
        (&["eval", "--pred", &labels, "--labels", &labels], "F1(PW)"),
        (&["bench", "--smoke", "--stages", "discord", "--out-dir", &bench], "BENCH_discord.json"),
        (&["fleet", "--smoke", "--streams", "6", "--budget", "98304", "--points", "380",
            "--out-dir", &fleet], "FLEET_soak.json"),
        (&["evalbed", "--smoke", "--datasets", "1", "--methods", "random", "--out-dir", &evalbed],
            "ranking"),
        (&["trace", "--smoke", "--seed", "0", "--out-dir", &trace], "TRACE.jsonl"),
        (&["lint", "--fixture"], "PASS"),
    ];
    // `fit` first: detect and stream load its model.
    for (args, expect) in runs {
        let out = triad().args(args).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(expect), "{args:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_and_client_round_trip_over_the_binary() {
    let dir = tmpdir("serve");
    let models = dir.join("models");
    let train_path = dir.join("train.txt");
    let series_path = dir.join("series.txt");
    write_series(&train_path, (0..600).map(sine));
    write_series(&series_path, (0..300).map(with_event));

    let mut serve = KillOnDrop(
        triad()
            .args(["serve", "--addr", "127.0.0.1:0", "--models"])
            .arg(&models)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    // The first stdout line announces the resolved ephemeral address.
    let mut banner = String::new();
    BufReader::new(serve.0.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| {
            w.contains(':')
                && w.split(':')
                    .nth(1)
                    .is_some_and(|p| p.parse::<u16>().is_ok())
        })
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let client = |args: &[&str]| {
        let out = triad()
            .args(["client", "--addr", &addr])
            .args(args)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
    };

    let (code, body) = client(&["--verb", "health"]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (code, body) = client(&[
        "--verb",
        "fit",
        "--model",
        "cli-demo",
        "--train",
        train_path.to_str().unwrap(),
        "--epochs",
        "2",
        "--seed",
        "3",
        "--merlin-step",
        "4",
    ]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("\"model\":\"cli-demo\""), "{body}");

    let (code, body) = client(&[
        "--verb",
        "detect",
        "--model",
        "cli-demo",
        "--series",
        series_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("\"selected\""), "{body}");

    let (code, body) = client(&["--verb", "stats", "--format", "text"]);
    assert_eq!(code, Some(0), "{body}");
    assert!(body.contains("triad_detect_total 1"), "{body}");

    // `stream` in server mode takes its own flag set.
    let out = triad()
        .args(["stream", "--addr", &addr, "--model", "cli-demo", "--test"])
        .arg(&series_path)
        .args([
            "--stream",
            "cli-s",
            "--chunk",
            "64",
            "--timeout-ms",
            "60000",
        ])
        .output()
        .unwrap();
    let body = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{body}");
    assert!(body.contains("as stream \"cli-s\""), "{body}");

    // Detect against a model name that doesn't exist fails loudly.
    let (code, _) = client(&[
        "--verb",
        "detect",
        "--model",
        "ghost",
        "--series",
        series_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));

    let (code, _) = client(&["--verb", "shutdown"]);
    assert_eq!(code, Some(0));
    let status = serve.0.wait().unwrap();
    assert!(status.success(), "serve exited with {status:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
