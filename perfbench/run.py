#!/usr/bin/env python3
"""The netart benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds the harness
(`perfbench/`, a cargo package of its own) and the `netart` binary in
release mode, runs the workload in a fresh process, checks the
determinism guard against earlier runs of the same checkout, and prints
the measurements: one `# name = value unit` line per metric, then one
JSON object as the last line of standard output.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from an
untraced run. `--trace 1` runs the workload untraced and then traced,
each in its own process, and reports the per-layer metrics; a layer the
workload bypasses reports 0.

Build artefacts go to $CARGO_TARGET_DIR (default `.bench_build`),
scratch files to `.bench_run/`, the determinism record to
`.bench_state/<source digest>/`; all three are inside the checkout.
The record is kept per digest of the built sources, so only runs of
the same code are compared.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
STATE_DIR = os.path.join(ROOT, ".bench_state")
RUN_DIR = os.path.join(ROOT, ".bench_run")
# A run may take 180 s after the build; a hung harness is stopped
# before that.
HARNESS_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(target_dir):
    """Builds the harness and the `netart` binary; returns their paths."""
    for needed in ("Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} here: run from the root of a netart source checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Not --locked: the harness's lock file lists only path dependencies,
    # so a later change to a crate's dependencies must not break it.
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "netart-cli", "--bin", "netart"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "netart-perfbench"), os.path.join(release, "netart")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the sources the benchmark builds: the key of the
    determinism record, and the code's identity in a checkout without
    git history."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                h.update(top.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def run_harness(harness, netart, args, traced, deadline):
    """Runs the harness once in its own process; returns its JSON line."""
    work = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}-{int(traced)}")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--work-dir", work, "--netart", netart]
    # Its own process group, so a timeout also stops the server it runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness runs did not finish within {HARNESS_BUDGET_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"harness exited with {proc.returncode} and no result")
    if proc.returncode not in (0, 1):
        fail(f"harness exited with {proc.returncode}")
    return result


def guard_determinism(digest, workload, counts):
    """Compares this run's exact counts with every earlier run's of the
    same sources (traced or not); returns the mismatches. A change to
    the sources starts a new record, so a change that alters the counts
    on purpose is not reported."""
    state = os.path.join(STATE_DIR, digest)
    os.makedirs(state, exist_ok=True)
    path = os.path.join(state, f"{workload}.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    mismatches = [f"{k}: {counts[k]!r} here, {known[k]!r} before"
                  for k in sorted(counts) if k in known and known[k] != counts[k]]
    if not mismatches:
        known.update(counts)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return mismatches


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be non-negative and --seconds within 1..600")

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    t0 = time.monotonic()
    harness, netart = build(target_dir)
    print(f"# build (or up-to-date check) took {time.monotonic() - t0:.1f} s")

    deadline = time.monotonic() + HARNESS_BUDGET_S
    runs = [run_harness(harness, netart, args, False, deadline)]
    if args.trace:
        runs.append(run_harness(harness, netart, args, True, deadline))
    first = runs[0]
    digest = source_digest()
    print(f"# provenance: seed {args.seed}, git {git_sha()}, sources {digest}, "
          f"nproc {first['nproc']}, profile {first['profile']}, workload {args.workload}")

    mismatches = []
    for r in runs:
        mismatches += guard_determinism(digest, args.workload, r["determinism"])
    for m in mismatches:
        print(f"# determinism guard: {m}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + len(mismatches)
    correct = failed == 0 and all(r["correct"] for r in runs)

    measured = dict(runs[-1]["metrics"])
    untraced_wall = first["metrics"].get("wall_s")
    traced_total = measured.get("traced_total_s", measured.get("wall_s"))
    if args.trace and untraced_wall and traced_total:
        measured["obs.trace_overhead_frac"] = traced_total / untraced_wall - 1.0
    for r, label in zip(runs, ("untraced", "traced")):
        shown = measured if label == "traced" else r["metrics"]
        for name, unit in units.items():
            if name in shown:
                print(f"# {label}: {name} = {shown[name]!r} {unit}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if args.trace:
        if missing:
            print(f"# bypassed by this workload, reported as 0: {', '.join(missing)}")
    elif missing and correct:
        fail(f"harness did not report {', '.join(missing)}")
    elif missing:
        # Every operation failed, so there is nothing to report.
        print(f"# not measured, reported as 0: {', '.join(missing)}")
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
