#!/usr/bin/env python3
"""Build and run the convoy-mining benchmark.

    python3 convoybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 convoybench/run.py --references --workload <name> --seed <n>

Run from the repository root. The first run compiles the program's sources
together with the harness (sbt, offline) and caches the build under
convoybench/target; later runs rebuild only when a source file changed.
Everything the run writes stays under convoybench/target. Build output goes
to standard error; standard output carries only the benchmark's own lines,
the last of which is the JSON result.
"""
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
WORK = os.path.join(TARGET, "work")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "build.stamp")


def fail(msg):
    print(f"convoybench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of every input of the build: program sources, harness, build files."""
    h = hashlib.sha256()
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_child(cmd, **kw):
    """Run `cmd`, forwarding SIGTERM/SIGINT to it and waiting until it ends."""
    proc = subprocess.Popen(cmd, **kw)

    def forward(signum, _frame):
        proc.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for s, h in old.items():
            signal.signal(s, h)


def build():
    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SOURCES, ROOT)}; run from a full checkout")
    digest = source_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == digest:
                return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    code = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                     cwd=HERE, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit code {code})")
    with open(STAMP, "w") as f:
        f.write(digest)


def main(argv):
    build()
    with open(CLASSPATH) as f:
        classpath = f.read().strip()
    for d in ("stores", "tmp"):
        shutil.rmtree(os.path.join(WORK, d), ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"))
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # A fixed-size heap, and soft references cleared at every collection, so
    # the live-heap readings after a full collection repeat from run to run.
    cmd = [java, "-Xms1g", "-Xmx1g", "-XX:+UseParallelGC", "-XX:SoftRefLRUPolicyMSPerMB=0",
           f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
           "-cp", classpath, "convoybench.Main",
           "--bench-dir", HERE, "--work-dir", WORK] + argv
    try:
        code = run_child(cmd, stdin=subprocess.DEVNULL)
    finally:
        for d in ("stores", "tmp"):
            shutil.rmtree(os.path.join(WORK, d), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
