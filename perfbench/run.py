#!/usr/bin/env python3
"""Build and run the mvsim benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload NAME --print-pins [--tiny]

Run from anywhere inside a checkout. The first call builds the library
and the benchmark binary under .bench_build/ at the checkout root
(a few minutes); later calls rebuild only what changed. Build output
goes to stderr, so the last line of standard output is always the
result object.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mvsim_perfbench"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 900


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; exits 2 when the
    sources are missing or the build directory cannot be written."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"mvsim sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    try:
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        fail(f"cannot create build directory {BUILD_DIR}: {e}")
    if not os.access(BUILD_DIR, os.W_OK):
        fail(f"build directory {BUILD_DIR} is not writable")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD_DIR / "tmp"))
    (BUILD_DIR / "tmp").mkdir(exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DMVSIM_ROOT={ROOT}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed", 1)
    step = ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed", 1)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result can
    be matched to its code even where no git metadata exists."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_binary(args, capture=False):
    """Runs the benchmark binary, stopping it if this script is
    interrupted; returns the CompletedProcess."""
    command = [str(BINARY)] + args + ["--git-sha", git_sha(), "--source-digest", source_digest()]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.PIPE if capture else None, text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def close(a, b, tol=1e-9):
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-12)


def self_test():
    """Tiny-mode check of the benchmark's own contract (README.md)."""
    build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    bad = run_binary(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], capture=True)
    check(bad.returncode == 2 and not bad.stdout.strip(), "unknown workload exits 2")
    bad = run_binary(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds",
                      "1", "--trace", "0", "--out", str(BUILD_DIR / "missing" / "dir")],
                     capture=True)
    check(bad.returncode == 2 and not bad.stdout.strip(), "missing --out directory exits 2")

    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            proc = run_binary(["--workload", workload, "--seed", "1", "--seconds", "1",
                               "--trace", trace, "--tiny"], capture=True)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            what = f"{workload} trace={trace}"
            check(result is not None and set(result) == {"correct", "attempted", "failed",
                                                          "metrics"},
                  f"{what}: exit 0 with a result object")
            if result is None:
                print(proc.stderr, file=sys.stderr)
                continue
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{what}: correct, pinned outcomes met, traced == untraced counters")
            emitted = [(name, m.get("unit")) for name, m in result["metrics"].items()]
            check(emitted == expected, f"{what}: every named metric emitted with its unit")
            results[trace] = {name: m["value"] for name, m in result["metrics"].items()}
        if len(results) < 2:
            continue
        e2e, layers = results["0"], results["1"]
        check(close(e2e["events_per_s"] * e2e["wall_s"], layers["des.events_executed"]),
              f"{workload}: events_per_s x wall_s == des.events_executed")
        self_times = ["core.other_event_s", "virus.send_s", "virus.reboot_s",
                      "virus.legit_traffic_s", "net.delivery_s", "phone.read_s", "response.s",
                      "mobility.s", "stats.sample_s"]
        if layers["trace.coverage"] > 0:
            spans = sum(layers[name] for name in self_times) + layers["des.loop_s"]
            check(close(spans, layers["core.run_s"], 1e-6),
                  f"{workload}: event self times + des.loop_s == run_until span")
        else:
            check(all(layers[name] == 0 for name in self_times),
                  f"{workload}: no event timer, so no self times reported")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--out", help="also write the result record into this directory")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--print-pins", action="store_true",
                        help="print pins.inc entries for the workload's seed pool")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    if opts.self_test:
        return self_test()
    if opts.workload is None:
        parser.error("--workload is required")
    if opts.print_pins:
        args = ["--workload", opts.workload, "--print-pins"] + (["--tiny"] if opts.tiny else [])
    else:
        if opts.seed is None or opts.seconds is None or opts.trace is None:
            parser.error("--seed, --seconds and --trace are required")
        if opts.seed < 0:
            parser.error("--seed must be non-negative")
        if opts.out is not None and not (os.path.isdir(opts.out) and os.access(opts.out, os.W_OK)):
            parser.error(f"--out directory {opts.out} is missing or not writable")
        args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds",
                str(opts.seconds), "--trace", opts.trace]
        if opts.tiny:
            args.append("--tiny")
        if opts.out is not None:
            args += ["--out", opts.out]
    build()
    return run_binary(args).returncode


if __name__ == "__main__":
    sys.exit(main())
