#!/usr/bin/env python3
"""Entry point of the perf benchmark (bench/perf/README.md).

    python3 bench/perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a dimmer checkout. On first use it builds
bench/perf (a standalone CMake project over ../../src, Release, scalar SIMD)
into .bench_build/bench_perf; later runs only re-check the build. It then
runs the harness in a fresh directory .bench_build/perf_out/<run>/ with
every DIMMER_* variable removed from its environment and forwards the
harness's output, whose last stdout line is the result object.

Exits non-zero without a result line when the checkout holds no simulator
sources, the build fails, the arguments are malformed, or the harness does
not finish within the deadline; exits 1 after the result line when an
output was wrong.
"""
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "bench_perf")
OUT = os.path.join(ROOT, ".bench_build", "perf_out")
HARNESS_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src: run from a dimmer checkout"
             % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "bench_perf", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_dir(args):
    """A fresh output directory named after the run's arguments."""
    name = "-".join(re.sub(r"[^A-Za-z0-9._]", "_", a.lstrip("-"))
                    for a in args)[:120] or "run"
    path = os.path.join(OUT, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def main():
    args = sys.argv[1:]
    build()
    cwd = run_dir(args)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIMMER_")}
    cmd = [os.path.join(BUILD, "bench_perf")] + args + ["--data", HERE]
    # Own session: on a timeout the whole group (campaign shard workers
    # included) is killed and reaped.
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S, 3)
    if proc.returncode not in (0, 1):
        fail("harness exited with %d" % proc.returncode,
             proc.returncode if proc.returncode > 0 else 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
