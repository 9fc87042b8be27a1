#!/usr/bin/env python3
"""MoniLog benchmark runner.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

The first form builds the benchmark (once per source state, with sbt, into
.bench_build/), runs one workload in a fresh JVM and relays its output; the
last line of stdout is the result JSON. `--all` runs every workload of
BENCHMARK.json untraced and traced, prints the tracing overhead and writes
the combined record to .bench_build/results/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
MAIN_CLASS = "perfbench.Main"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
HEAP = "4g"

# Module openings Spark needs on Java 17 (as Spark's own launcher sets them).
JAVA_OPENS = [
    "--add-opens=java.base/" + m + "=ALL-UNNAMED"
    for m in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, relative to the checkout root."""
    roots = [os.path.join("src", "main"), os.path.join(BENCH_DIR, "src", "main")]
    files = [os.path.join(BENCH_DIR, "build.sbt"),
             os.path.join(BENCH_DIR, "project", "build.properties")]
    for root in roots:
        for d, _, names in os.walk(root):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_checkout():
    for need in (os.path.join("src", "main", "scala"), os.path.join(BENCH_DIR, "build.sbt")):
        if not os.path.exists(need):
            fail("run from the root of a checkout of the repository: %s is missing" % need)
    if not os.environ.get("SPARK_HOME") or not os.path.isdir(os.path.join(os.environ["SPARK_HOME"], "jars")):
        fail("SPARK_HOME must point at a Spark distribution (its jars/ are the classpath)")


def build():
    """Compile the program and the benchmark; reuse the result while sources are unchanged."""
    src = digest(source_files())
    record = os.path.join(BUILD_DIR, "build.json")
    if os.path.exists(record):
        with open(record) as fh:
            rec = json.load(fh)
        if rec.get("digest") == src and all(os.path.exists(p) for p in rec["classpath"].split(os.pathsep)):
            return rec["classpath"], src
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    print("perfbench: building (sbt) ...", file=sys.stderr)
    t0 = time.time()
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "compile", "export Runtime/fullClasspath"],
            cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out after %d s" % BUILD_TIMEOUT_S, 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("build failed", 1)
    classpath = lines[-1].strip()
    with open(record, "w") as fh:
        json.dump({"digest": src, "classpath": classpath, "build_s": time.time() - t0}, fh)
    print("perfbench: built in %.1f s" % (time.time() - t0), file=sys.stderr)
    return classpath, src


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(classpath, src, workload, seed, seconds, trace):
    """Run one workload in its own JVM; returns (exit code, stdout lines)."""
    work = os.path.abspath(os.path.join(BUILD_DIR, "work", "run-%d" % os.getpid()))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + tmp,
           "-Dperfbench.git_sha=" + git_sha(), "-Dperfbench.source_digest=" + src] + JAVA_OPENS + [
        "-cp", classpath, MAIN_CLASS, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--work", work,
        "--out", os.path.join(BUILD_DIR, "results")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    out = []
    deadline = time.time() + RUN_TIMEOUT_S

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    old = signal.signal(signal.SIGTERM, lambda s, f: sys.exit(1))
    timer = threading.Timer(max(1.0, deadline - time.time()), kill)
    timer.daemon = True
    timer.start()
    try:
        for line in proc.stdout:
            out.append(line.rstrip("\n"))
            if not line.startswith("{"):
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    finally:
        timer.cancel()
        kill()
        proc.wait()
        signal.signal(signal.SIGTERM, old)
        shutil.rmtree(work, ignore_errors=True)
    if time.time() > deadline:
        print("perfbench: run killed after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, out
    return code, out


def result_of(out):
    """The result JSON on the last line of the run's stdout, or None."""
    if not out:
        return None
    try:
        res = json.loads(out[-1])
    except ValueError:
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description="MoniLog benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args()
    check_checkout()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    classpath, src = build()

    if not args.all:
        if args.workload not in names:
            fail("--workload must be one of: " + ", ".join(names))
        code, out = run_one(classpath, src, args.workload, args.seed, seconds, args.trace)
        res = result_of(out)
        if code != 0 or res is None:
            fail("run failed (exit %d)" % code, 1)
        print(json.dumps(res))
        return

    combined = {"seed": args.seed, "seconds": seconds, "git_sha": git_sha(), "source_digest": src,
                "workloads": {}}
    ok = True
    for name in names:
        runs = {}
        for trace in (0, 1):
            code, out = run_one(classpath, src, name, args.seed, seconds, trace)
            res = result_of(out)
            ok = ok and code == 0 and res is not None and res["correct"]
            runs["trace%d" % trace] = res
            if res is not None:
                print(json.dumps(res))
        untraced, traced = runs.get("trace0"), runs.get("trace1")
        if untraced and traced:
            base = untraced["metrics"]["alert_p50_s"]["value"]
            with_trace = traced["metrics"]["trace.alert_p50_s"]["value"]
            runs["tracing_overhead_s"] = with_trace - base
            print("tracing overhead on %s: alert_p50_s %.4f s traced vs %.4f s untraced (%+.4f s)"
                  % (name, with_trace, base, with_trace - base))
        combined["workloads"][name] = runs
    path = os.path.join(BUILD_DIR, "results", "BENCH_all-seed%d.json" % args.seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(combined, fh, indent=2)
    print("perfbench: wrote " + path)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
