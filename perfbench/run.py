"""End-to-end and per-layer benchmark of the DeepMVI serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve_fresh --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reruns the workload with every layer's public calls wrapped
and prints the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  A failed correctness check
exits with code 1 after printing it; a checkout without ``src/repro``
exits with code 2 and prints no result.

The benchmark imports ``repro`` from ``src/`` next to this directory and
writes only under ``perfbench/_work/``, which it removes before exiting.
Workload constants, tolerances and the layer -> metric -> workload
prediction map are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

END_TO_END = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("mae", "abs_error"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve_fresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: smoke-test model and datasets")
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over every file under src/, so runs name the code they ran."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the repository this checkout is, or None outside git."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, spec) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "constants": {
            "workload": spec["workloads"][args.workload],
            "model": spec["model"]["tiny_config" if args.size == "tiny"
                                   else "config"],
            "scenario": spec["scenario"],
            "fitted_data": spec["fitted_data"],
            "gateway": spec["gateway"],
            "repeat": spec["repeat"],
            "cluster": spec["cluster"],
            "setup_repeats": spec["setup_repeats"],
            "burst_share": spec["burst_share"],
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SOURCE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Tracing and lock checking change what the serving path does; the
    # benchmark measures the code as deployed.
    for variable in ("REPRO_TRACE", "REPRO_LOCKCHECK"):
        os.environ.pop(variable, None)
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))

    import repro
    from layers import PER_LAYER
    from workloads import SPEC, WORKLOADS, Options

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SOURCE}", file=sys.stderr)
        return 2
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    options = Options(seed=args.seed, seconds=args.seconds,
                      tiny=args.size == "tiny", workdir=workdir)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("provenance " + json.dumps(provenance(args, SPEC),
                                     sort_keys=True))
    try:
        workload = WORKLOADS[args.workload](options)
        report = workload.run_traced() if args.trace else workload.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    for phase in report.phases:
        print(phase.describe())
    for name, outcome in report.checks.items():
        print(f"check {name}: {outcome}")
    for note in report.notes:
        print(note)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report.metrics[name], "unit": unit}
               for name, unit in names}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    attempted = sum(phase.sent for phase in report.phases)
    failed = sum(phase.failed + phase.refused for phase in report.phases)
    correct = bool(report.checks) and all(
        outcome.startswith("ok") for outcome in report.checks.values()) \
        and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
