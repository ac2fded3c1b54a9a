#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload corpus-eval --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. The first run configures and
builds perfbench (the program's sources plus the driver in this
directory) under .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
run's JSON result. Arguments are passed through to the driver, which
validates them (see README.md).
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def source_revision():
    """The git sha when the checkout is a git repository, else a digest
    of the program's sources, so every run record names its code."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                                   cwd=ROOT, capture_output=True, text=True).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "none-src-sha256-" + digest.hexdigest()[:16]


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "server.cpp")):
        print("perfbench: no program sources at " + os.path.join(ROOT, "src") +
              "; run from the root of a source checkout", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    env = dict(os.environ, PERFBENCH_GIT_SHA=source_revision())
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
