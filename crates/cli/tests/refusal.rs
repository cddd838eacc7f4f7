//! The governed-refusal exit contract on every ingesting command: under
//! `--max-input-bytes 1` the memory governor refuses the first input
//! file, and the command prints `input refused: …` with the `ND015`
//! diagnostic, writes nothing, and exits 2 — or 1 under `--strict`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const MODULE_SRC: &str = "module inv 40 20\nin a 0 10\nout y 40 10\n";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netart-refusal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn bin(name: &str) -> &'static str {
    match name {
        "netart" => env!("CARGO_BIN_EXE_netart"),
        "pablo" => env!("CARGO_BIN_EXE_pablo"),
        "eureka" => env!("CARGO_BIN_EXE_eureka"),
        "quinto" => env!("CARGO_BIN_EXE_quinto"),
        other => panic!("no binary {other}"),
    }
}

/// Runs a binary to completion, killing it after a minute so a command
/// that fails to refuse (`netart serve` would start serving) cannot
/// hang the suite.
fn run(name: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin(name))
        .args(args)
        .env_remove("NETART_INJECT")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{name} {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

#[test]
fn every_ingesting_command_refuses_over_budget_input() {
    let dir = scratch("all");
    let lib = dir.join("lib");
    fs::create_dir_all(&lib).unwrap();
    fs::write(lib.join("inv.qto"), MODULE_SRC).unwrap();
    let quinto_src = dir.join("buf.qto");
    fs::write(&quinto_src, "module buf 20 20\nin a 0 10\nout y 20 10\n").unwrap();
    let jobs = dir.join("jobs");
    fs::create_dir_all(&jobs).unwrap();
    let net = "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n";
    let cal = "u0 inv\nu1 inv\n";
    for (path, text) in [
        (dir.join("design.net"), net),
        (dir.join("design.call"), cal),
        (dir.join("design.io"), "in in\n"),
        (jobs.join("a.net"), net),
        (jobs.join("a.cal"), cal),
    ] {
        fs::write(path, text).unwrap();
    }
    let path = |p: &Path| p.to_string_lossy().into_owned();
    let (lib, jobs) = (path(&lib), path(&jobs));
    let (nets, calls, io) = (
        path(&dir.join("design.net")),
        path(&dir.join("design.call")),
        path(&dir.join("design.io")),
    );
    // eureka routes a placed diagram; place one without a budget.
    let placed = path(&dir.join("placed"));
    let setup = run("pablo", &["-L", &lib, "-o", &placed, &nets, &calls, &io]);
    assert!(setup.status.success(), "{setup:?}");
    let diagram = format!("{placed}.esc");
    // Everything a refused command could write lands under `out`.
    let out_dir = dir.join("out");
    let (out, newlib, batch_out) = (
        path(&out_dir.join("design")),
        path(&out_dir.join("lib")),
        path(&out_dir.join("batch")),
    );

    let quinto_src = path(&quinto_src);
    let refuse = ["--max-input-bytes", "1"];
    let cases: [(&str, Vec<&str>, i32); 10] = [
        ("netart", vec!["-L", &lib, "-o", &out, &nets, &calls, &io], 2),
        ("netart", vec!["--strict", "-L", &lib, "-o", &out, &nets, &calls, &io], 1),
        ("pablo", vec!["-L", &lib, "-o", &out, &nets, &calls, &io], 2),
        ("eureka", vec!["-L", &lib, "--diagram", &diagram, "-o", &out, &nets, &calls, &io], 2),
        (
            "eureka",
            vec!["--strict", "-L", &lib, "--diagram", &diagram, "-o", &out, &nets, &calls, &io],
            1,
        ),
        ("quinto", vec!["-L", &newlib, &quinto_src], 2),
        ("netart", vec!["profile", "-L", &lib, &nets, &calls, &io], 2),
        ("netart", vec!["batch", "-L", &lib, "--out-dir", &batch_out, &jobs], 2),
        ("netart", vec!["batch", "--strict", "-L", &lib, "--out-dir", &batch_out, &jobs], 1),
        ("netart", vec!["serve", "-L", &lib, "--addr", "127.0.0.1:0"], 2),
    ];
    for (name, mut argv, code) in cases {
        // The budget flag goes after the subcommand name, if any.
        let at = usize::from(matches!(argv[0], "profile" | "batch" | "serve"));
        argv.splice(at..at, refuse);
        let run = run(name, &argv);
        assert_eq!(run.status.code(), Some(code), "{name} {argv:?}: {run:?}");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            stdout.contains("input refused") && stdout.contains("ND015"),
            "{name} {argv:?}: {run:?}"
        );
        let written = files_under(&out_dir);
        assert!(written.is_empty(), "{name} {argv:?} wrote {written:?}");
    }
    let _ = fs::remove_dir_all(dir);
}
