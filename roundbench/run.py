#!/usr/bin/env python3
"""Round benchmark entry point.

    python3 roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 roundbench/run.py --smoke

Builds the tormet library, tormet_node and the roundbench binary from the
sources beside this directory (into $CARGO_TARGET_DIR, default
.bench_build), then runs one workload and passes the binary's output
through: its last stdout line is the JSON result. --smoke runs every
workload once at tiny scale in both modes and checks the tallies and the
metric names against BENCHMARK.json. See roundbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A benchmark run must end within 180 s; leave room to clean up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"roundbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    for need in ("CMakeLists.txt", "src", "apps"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"repository sources missing: no {need} beside roundbench/")
            sys.exit(2)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, *gen],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "roundbench",
                    "tormet_node", "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "bin", "roundbench")


def stop_group(pgid):
    """Kills whatever is left of the binary's process group and waits
    (bounded) until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_binary(binary, args, out):
    """Runs the binary in its own process group; returns its stdout, or
    None when it failed or ran out of time."""
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, TMPDIR=work)
    proc = subprocess.Popen([binary, *args, "--work-root", work],
                            stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"roundbench exceeded {RUN_TIMEOUT_S} s")
        return None
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        log(f"roundbench exited with code {proc.returncode}")
        return None
    return stdout


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def smoke(binary, out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stdout = run_binary(binary, [
                "--workload", w["name"], "--seed", "7", "--seconds", "0.01",
                "--trace", str(trace), "--scale", "tiny"], out)
            result = result_of(stdout) if stdout is not None else None
            problems = []
            if result is None:
                problems.append("no result")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("tally mismatch or failed round")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"metrics differ from BENCHMARK.json "
                                    f"{key}: {sorted(set(got) ^ set(want))}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"smoke {w['name']} trace {trace}: {status}")
            ok = ok and not problems
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    if a.smoke:
        return 0 if smoke(binary, out) else 1

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans",
                 os.path.join(spans, f"{a.workload}-seed{a.seed}.json")]
    stdout = run_binary(binary, args, out)
    if stdout is None or result_of(stdout) is None:
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
