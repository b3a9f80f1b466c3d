#!/usr/bin/env python3
"""Query benchmark for the Airphant reproduction.

Run one workload (run from the repository root):

    python3 perfbench/run.py --workload point-windows --seed 1 --seconds 10 --trace 0

The first run compiles the library and the benchmark with sbt (offline) into
perfbench/target and records the classpath under .bench_build/; later runs
reuse it while the sources are unchanged. Each run starts one JVM, prints a
metric table, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Steadiness self-check: run each workload k times and report, per end-to-end
metric, median, quartiles and spread against the metric's bound from
BENCHMARK.json; metrics that must repeat exactly under one seed are flagged
if they do not.

    python3 perfbench/run.py --selfcheck 3 --seed 1 --seconds 10 [--workload W] [--vary-seed]

Unit tests of the benchmark's helpers:

    python3 perfbench/run.py --unit-tests
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# bool-hdfs runs by hand only; BENCHMARK.json lists the gated workloads.
WORKLOADS = ["point-windows", "bool-hdfs", "sql-windows"]
# End-to-end metrics that depend only on the seed, not on timing.
DETERMINISTIC = {"virtual_mean_ms", "virtual_tail_ms", "bytes_per_op",
                 "index_bytes_per_corpus_byte"}
RUN_TIMEOUT_S = 170
JAVA_OPTS = [
    "-Xms2g", "-Xmx2g",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def sources_digest():
    """Hash of every file the build reads from the checkout."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main"),
            os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in tops:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def sbt(*tasks):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"] + opts
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false", *tasks]
    return subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL).returncode


def classpath():
    """Compiles if the sources changed; returns the runtime classpath."""
    out = build_dir()
    stamp, cp_file = os.path.join(out, "stamp"), os.path.join(out, "classpath.txt")
    digest = sources_digest()
    if os.path.exists(cp_file) and os.path.exists(stamp) and open(stamp).read() == digest:
        return open(cp_file).read().strip()
    log("compiling the library and the benchmark with sbt")
    if sbt("classpathFile") != 0:
        sys.exit("perfbench: build failed")
    os.makedirs(out, exist_ok=True)
    shutil.copyfile(os.path.join(HERE, "target", "classpath.txt"), cp_file)
    with open(stamp, "w") as f:
        f.write(digest)
    return open(cp_file).read().strip()


def run_once(workload, seed, seconds, trace):
    """Runs one workload in a fresh JVM; returns (exit code, stdout lines)."""
    cp = classpath()
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JAVA_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, stdout.splitlines()


def check_tree():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("perfbench: no library sources under src/main/scala; "
                 "run from the root of a checkout of the repository")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selfcheck(args):
    """Runs each workload k times and reports spread against the bounds."""
    bench = benchmark_spec()
    spec = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for wl in [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]:
        runs = []
        for r in range(args.selfcheck):
            seed = args.seed + r if args.vary_seed else args.seed
            code, lines = run_once(wl, seed, args.seconds, 0)
            if code != 0 or not lines:
                log(f"{wl} seed {seed}: exit {code}")
                ok = False
                continue
            result = json.loads(lines[-1])
            runs.append(result["metrics"])
            log(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']!r}" for k, v in result["metrics"].items()))
        if len(runs) < 2:
            ok = False
            continue
        print(f"\n{wl}: {len(runs)} runs, seeds "
              f"{'varied' if args.vary_seed else 'fixed at ' + str(args.seed)}")
        print(f"{'metric':32} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}  flags")
        for name, m in spec.items():
            vals = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flags = []
            if name != "setup_s" and spread > m["bound"] / 3:
                flags.append("SPREAD>bound/3")
            if name in DETERMINISTIC and not args.vary_seed and len(set(vals)) > 1:
                flags.append("NOT-DETERMINISTIC")
            ok &= not flags
            print(f"{name:32} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:8.3f} {m['bound']:6.2f}  "
                  + " ".join(flags))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", type=int, metavar="K")
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--unit-tests", action="store_true")
    args = p.parse_args()
    check_tree()
    if args.unit_tests:
        return sbt("test")
    if args.selfcheck:
        return selfcheck(args)
    if not args.workload:
        p.error("--workload is required")
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if lines and os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        want = {m["name"] for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
        got = set(json.loads(lines[-1])["metrics"])
        if got != want:
            log(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
                f"extra {sorted(got - want)}")
            return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
