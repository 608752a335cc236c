#!/usr/bin/env python3
"""Build and run the perfbench binary from a checkout of the repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the checkout. The first run configures and
builds the NEVERMIND libraries plus the binary (Release) under
.bench_build/perfbench; later runs only re-check the build. Every
other flag is passed to the binary (see cpp/main.cpp).

The binary's stdout is forwarded: a `stamp {...}` line with the host
facts, a `samples {...}` line with the sample counts (untraced runs),
then the JSON result as the last line. All three are also saved under
.bench_build/perfbench/results/ for compare.py.
Exit status is the binary's (1 when a gate fails, 2 on bad flags); a
failed build or a missing source tree exits 2 without a result line.
"""

import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
RESULTS = os.path.join(BUILD, "results")
TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the library sources and the benchmark itself."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(len(os.sched_getaffinity(0)))])
        # The compiler's temporary files stay inside the checkout too.
        tmp = os.path.join(BUILD, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "perfbench")


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else "?"


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a checkout of the repository")
    binary = build()
    cmd = [binary, *args, "--out-dir", OUT, "--source-digest",
           source_digest(), "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out after %d s" % TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        # Never forward a result line from a failed run.
        for line in lines:
            if not line.startswith("{"):
                print(line)
        sys.exit(proc.returncode)
    tagged = {tag: json.loads(line[len(tag) + 1:]) for line in lines
              for tag in ("stamp", "samples") if line.startswith(tag + " ")}
    result = json.loads(lines[-1])
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%s-trace%s.json" % (flag(args, "--workload"),
                                       flag(args, "--seed"),
                                       flag(args, "--trace"))
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump({"stamp": tagged.get("stamp"),
                   "samples": tagged.get("samples"), "args": args,
                   "result": result}, f, indent=1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
