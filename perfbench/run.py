#!/usr/bin/env python3
"""socgen benchmark: build the benchmark from source, run one workload, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads: compile-cold, soc-run, rtl-cosim, service-mixed (see README.md).
The first run configures and builds the socgen libraries and the benchmark
into .bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check the
build. Every file the run writes lives under .bench_build/ and .bench_out/.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Exit status: 0 when every output check passed, 1 on a
mismatch or a run that did not finish, 2 when the benchmark cannot be
built or run here (nothing is printed on stdout then).
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-cold", "soc-run", "rtl-cosim", "service-mixed")
RUN_LIMIT_S = 170  # the whole run, build check included, stays under 180 s


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("socgen sources (src/) not found next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                die("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", bdir, "-j", jobs, "--target"] + targets
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed")
    return bdir


def cmake_cache(bdir):
    values = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    values[m.group(1)] = m.group(2)
    except OSError:
        pass
    return values


def compiler_version(compiler):
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             timeout=10).stdout
        return out.splitlines()[0] if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3:
                    mount = parts[1]
                    if (path == mount or path.startswith(mount.rstrip("/") + "/")) and \
                            len(mount) > len(best):
                        best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(bdir, work_dir):
    cache = cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    optimised = re.search(r"(^|\s)-O[1-3sfast]", flags) is not None
    lines = [
        "host nproc          %d" % (os.cpu_count() or 0),
        "host cpu            %s" % cpu_model(),
        "compiler            %s" % compiler_version(cache.get("CMAKE_CXX_COMPILER", "c++")),
        "build               %s  flags: %s%s" % (build_type or "(none)", flags or "(none)",
                                                 "" if optimised else
                                                 "  WARNING: non-optimised build"),
        "service root fs     %s (%s)" % (filesystem_of(work_dir), work_dir),
        "git commit          %s" % git_commit(),
    ]
    return lines


def check_metric_names(result, trace):
    """The reported metrics must be exactly those BENCHMARK.json lists, with its units."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if listed != reported:
        die("reported metrics differ from BENCHMARK.json: %s" % sorted(
            set(listed.items()) ^ set(reported.items())), code=1)


def run_workload(args, started):
    bdir = build(["socgen_bench", "socgen-worker"])
    out_dir = os.path.join(ROOT, ".bench_out")
    work_dir = os.path.join(out_dir, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.join(work_dir, "tmp"))

    env = {k: v for k, v in os.environ.items() if not k.startswith("SOCGEN_")}
    env["SOCGEN_CODEGEN_CACHE_DIR"] = os.path.join(work_dir, "codegen")
    env["TMPDIR"] = os.path.join(work_dir, "tmp")
    cmd = [os.path.join(bdir, "socgen_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--keep-dir", os.path.join(out_dir, "svc-roots")]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        # A run that had to build first gets the same measuring time as
        # any other; the limit only binds when the build was a no-op.
        stdout, _ = proc.communicate(timeout=max(120.0, RUN_LIMIT_S - (time.time() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the benchmark and any worker it spawned
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        die("workload did not finish in time", code=1)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.stderr.write(stdout)
        die("benchmark exited with status %d and no result" % proc.returncode, code=1)
    for line in fingerprint(bdir, work_dir) + lines[:-1]:
        print(line)
    shutil.rmtree(work_dir, ignore_errors=True)
    check_metric_names(result, args.trace)
    print(json.dumps(result))
    return proc.returncode


def self_test():
    bdir = build(["perfbench_selftest"])
    return subprocess.run([os.path.join(bdir, "perfbench_selftest")], stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def main():
    started = time.time()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_workload(args, started)


if __name__ == "__main__":
    sys.exit(main())
