#!/usr/bin/env python3
"""Benchmark of the meta-blocking pipeline: builds the program and the
harness from the checkout's sources, then runs one workload in one JVM.

    python3 perfbench/run.py --workload dirty-rt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest        # each correctness check vs. one dropped pair

The last line of standard output is the run's JSON result. The run settings
below are fixed here, not inherited from the environment or from build.sbt;
perfbench/README.md gives the measured reason for each.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
OUT = os.path.join(HERE, "out")

HEAP = "3g"  # -Xms = -Xmx; local[k] and the shuffle partitions are set in Main.scala
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 165

# Spark 4 on Java 17 needs these module openings (as spark-submit adds them).
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    *("--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every input of the build: the program's and the harness's."""
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
                os.path.join(HERE, "src")):
        for d, _, files in os.walk(top):
            for f in files:
                yield os.path.join(d, f)
    for f in ("build.sbt", os.path.join("project", "build.properties")):
        yield os.path.join(ROOT, f)
        yield os.path.join(HERE, f)


def build():
    """Compile with sbt when the classpath file is missing or older than a source."""
    if os.path.exists(CLASSPATH):
        built = os.path.getmtime(CLASSPATH)
        if all(os.path.getmtime(f) <= built for f in source_files() if os.path.exists(f)):
            return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed", 1)
    cp = [l for l in p.stdout.splitlines() if ".jar" in l and os.pathsep in l]
    if not cp:
        fail("build printed no classpath", 1)
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(cp[-1].strip())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and (not a.workload or a.seconds is None):
        fail("--workload and --seconds are required")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("the program's sources (src/main/scala/repro) are not in this checkout")

    build()
    with open(CLASSPATH) as f:
        classpath = f.read().strip()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)  # Spark's and the JVM's temporary files
    env = dict(os.environ, SPARK_LOCAL_DIRS=scratch)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseParallelGC", "-Djava.io.tmpdir=" + scratch, *JAVA_MODULE_OPTS,
           "-cp", classpath, "perfbench.Main",
           "--seed", str(a.seed), "--out", OUT]
    if a.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark JVM exited with %d" % proc.returncode, 1)


if __name__ == "__main__":
    main()
