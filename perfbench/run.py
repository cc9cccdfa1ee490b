#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cli_cold|fsd_warm_mix|sim_replay \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-golden     # rewrite perfbench/golden.json
    python3 perfbench/run.py --spread WORKLOAD --runs 10 --seconds S
                                                # run-to-run spread per metric

The script builds the shipped `fsdetect` and `fsd` binaries and the
`perfbench` package (release profile, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs `perfbench`, whose last stdout line is
the JSON result. Build output goes to stderr. Without the repository's
sources next to it, it exits with status 2 and prints no result.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Commit id when the checkout is a git work tree, else a digest of the
    sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "kernels", HERE]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".loop", ".py", ".json")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "fsdetect", "--bin", "fsd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", r.returncode)


def run_once(exe, args):
    """Run the benchmark binary; returns its exit code and the parsed last
    stdout line (or None)."""
    r = subprocess.run([exe] + args, capture_output=True, text=True)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, r.stdout, json.loads(lines[-1]) if lines else None
    except ValueError:
        return r.returncode, r.stdout, None


def spread(exe, base, workload, runs, seconds):
    """Run `runs` seeds and print each metric's median and quartile spread
    (IQR / median, as statistics.quantiles(n=4) gives the quartiles)."""
    values = {}
    for seed in range(1, runs + 1):
        code, _, res = run_once(exe, base + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(seconds), "--trace", "0"])
        if code != 0 or not res or not res["correct"]:
            fail(f"seed {seed}: run failed (exit {code}, result {res})", 1)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        print(f"{workload} {name:<20} median {q2:12.6g}  spread {(q3 - q1) / q2:7.4f}")


def main():
    argv = sys.argv[1:]
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "core"))
            and os.path.isfile(os.path.join(HERE, "Cargo.toml"))):
        fail("run from the repository root: the program's sources are not here")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench")
    golden = os.path.join(HERE, "golden.json")
    if argv == ["--regen-golden"]:
        sys.exit(subprocess.run([exe, "--regen-golden", "--golden", golden]).returncode)
    # Unix socket paths are short-limited: pass paths relative to the root
    # when they lie inside it.
    rel = lambda p: os.path.relpath(p, ROOT) if p.startswith(ROOT + os.sep) else p
    base = ["--bin-dir", rel(os.path.join(target, "release")), "--work-dir", rel(work),
            "--golden", golden, "--commit", source_digest()]
    if argv and argv[0] == "--spread":
        opts = dict(zip(argv[2::2], argv[3::2]))
        spread(exe, base, argv[1], int(opts.get("--runs", "10")), opts.get("--seconds", "10"))
        return
    code, out, res = run_once(exe, base + argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and res is None:
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
