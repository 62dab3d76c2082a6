"""Daisy session benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload hospital_fd1 --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark on first use (see build.py), pins
the Spark environment, runs one closed-loop workload in a single JVM and
passes its output through. The last line of standard output is the JSON
result; with --trace 0 it holds the end-to-end metrics, with --trace 1
the per-layer ones. See README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

import build

WORKLOADS = ("hospital_fd1", "ssb_dc_join")
JVM_TIMEOUT_S = 170
DRIVER_MEM = "4g"

# The module options Spark's own launcher passes on Java 17.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")] + [
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main():
    args = parse_args()
    try:
        classes = build.build()
        jars = build.spark_jars()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build.BENCH_DIR, ".work")
    tmp = os.path.join(work, "tmp")
    local_dirs = os.path.join(work, "spark-local")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(local_dirs)

    env = dict(os.environ)
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)  # measure the program's default
    env.update({
        "SPARK_MASTER": f"local[{cores()}]",
        "SPARK_DRIVER_MEM": DRIVER_MEM,
        "SPARK_LOCAL_DIRS": local_dirs,
    })
    cmd = (["java", f"-Xmx{DRIVER_MEM}", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(build.BENCH_DIR, 'log4j2.properties')}",
            "-Dspark.ui.enabled=false",
            "-Dspark.driver.host=127.0.0.1",
            f"-Dspark.sql.warehouse.dir={os.path.join(work, 'warehouse')}"]
           + JAVA_MODULE_OPTIONS
           + ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
              "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    proc = subprocess.Popen(cmd, env=env, cwd=work)
    try:
        code = proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"benchmark JVM exceeded {JVM_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
