"""Builds the Daisy session benchmark.

Compiles the program's main sources (`src/main/scala` at the repository
root) together with the benchmark's own sources (`perfbench/scala`) into
one class directory, using the Scala compiler that ships with the Spark
distribution (`$SPARK_HOME/jars`). No build tool and no dependency
download is involved, and every output stays under `perfbench/.build`.

The class directory is keyed by a hash of every compiled source file, so
a checkout builds once and later runs reuse the classes.

    python3 perfbench/build.py        # prints the class directory
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
MAIN_SOURCES = os.path.join(REPO_DIR, "src", "main", "scala")
BENCH_SOURCES = os.path.join(BENCH_DIR, "scala")
BUILD_DIR = os.path.join(BENCH_DIR, ".build")
SCALA_VERSION = "2.13.17"


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jars: `$SPARK_HOME/jars`."""
    jars = os.path.join(os.environ.get("SPARK_HOME", ""), "jars")
    if not os.environ.get("SPARK_HOME") or not os.path.isdir(jars):
        raise BuildError("Spark distribution not found: set SPARK_HOME")
    return jars


def scala_files(root):
    out = []
    for d, _, files in os.walk(root):
        out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def sources():
    if not os.path.isdir(MAIN_SOURCES):
        raise BuildError(f"program sources not found: {MAIN_SOURCES}")
    main = scala_files(MAIN_SOURCES)
    bench = scala_files(BENCH_SOURCES)
    if not main or not bench:
        raise BuildError("no Scala sources to compile")
    return main + bench


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, REPO_DIR).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    """Returns the class directory, compiling first if it is missing."""
    files = sources()
    classes = os.path.join(BUILD_DIR, source_hash(files), "classes")
    if os.path.isdir(classes):
        return classes
    jars = spark_jars()
    compiler_cp = os.pathsep.join(
        os.path.join(jars, f"{name}-{SCALA_VERSION}.jar")
        for name in ("scala-compiler", "scala-library", "scala-reflect"))
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-cp", compiler_cp, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", os.path.join(jars, "*"), "-d", tmp] + files
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    os.rename(tmp, classes)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
