#!/usr/bin/env python3
"""Builds the metaprox benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve-sparse --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (its own CMake package, compiling ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr; the benchmark's
stdout passes through, and its last line is the JSON result.

--record FILE appends {"workload", "seed", "trace", "result"} to FILE, one
JSON object a line, for perfbench/compare.py. Every other flag is handed
to the benchmark binary (see NOTES.md).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "metaprox_perfbench"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", BINARY, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, BINARY)


def main(argv):
    record = None
    args = []
    i = 0
    while i < len(argv):
        if argv[i] == "--record" and i + 1 < len(argv):
            record = argv[i + 1]
            i += 2
            continue
        args.append(argv[i])
        i += 1

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    out_dir = os.path.join(build_dir(), "out")
    proc = subprocess.Popen([binary, "--out-dir", out_dir] + args,
                            stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.flush()

    if record and last.startswith("{"):
        def flag(name, default=None):
            return args[args.index(name) + 1] if name in args else default
        entry = {"workload": flag("--workload"),
                 "seed": int(flag("--seed", "0")),
                 "trace": int(flag("--trace", "0")),
                 "result": json.loads(last)}
        with open(record, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
