"""One-command end-to-end benchmark of the shot path and the decode service.

Run every workload (each in its own subprocess) and print every metric::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--scale full|smoke] [--json OUT]

Compare two sets of result records against the bounds in BENCHMARK.json::

    python benchmarks/e2e/run.py --compare A.json [A2.json ...] -- B.json [...]

A run does a fixed amount of work per workload, sized by the run length:
``--seconds`` (the form a harness reading BENCHMARK.json passes; its
``run_seconds`` by default), times 1/100 with ``--scale smoke``.  It
checks its outputs against independent references, writes a stamped record to
``benchmarks/e2e/results/`` and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs report
the end-to-end metrics; ``--trace`` runs report the per-layer metrics and
write the spans to ``results/trace-<workload>.json``.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: A workload subprocess that outlives this is killed (the whole command
#: must finish within three minutes per workload).
CHILD_TIMEOUT_S = 170
SMOKE_FRACTION = 0.01


def load_spec() -> dict:
    """The benchmark declaration (metrics, units, directions, bounds)."""
    return json.loads(SPEC_PATH.read_text())


def _parser(spec: dict) -> argparse.ArgumentParser:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: shot path and streaming service."
    )
    parser.add_argument(
        "--workload",
        action="extend",
        nargs="+",
        choices=names,
        help="workloads to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="run length the fixed work is sized for (default: "
        "BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="traced run: report per-layer metrics and write spans",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", type=Path, help="also write the record here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--child-out", type=Path, help=argparse.SUPPRESS)
    return parser


# ----------------------------------------------------------------------
# Workload subprocess
# ----------------------------------------------------------------------


def _child(args) -> int:
    """Run one workload in this (fresh) process and write its result."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from trace import Tracer, install_layers
    from workloads import RunOptions, run_workload

    opts = RunOptions(seed=args.seed, seconds=args.seconds)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layers(tracer, RESULTS, f"trace-{args.child}-{os.getpid()}")
    result = run_workload(args.child, opts, tracer)
    if tracer is not None:
        tracer.unpatch()
        trace = {"workload": args.child, "seed": args.seed, **tracer.export()}
        (RESULTS / f"trace-{args.child}.json").write_text(json.dumps(trace))
    import numpy
    import scipy

    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    args.child_out.write_text(json.dumps(result))
    return 0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_ARTIFACT_DIR", None)  # cold builds, no on-disk store
    env["REPRO_ARRAY_BACKEND"] = "numpy"
    # One process does the work: no BLAS/OpenMP thread pools beside it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(name: str, args) -> dict | None:
    """One workload in a subprocess; None when it crashed or timed out."""
    fd, tmp = tempfile.mkstemp(prefix=f".{name}-", suffix=".json", dir=RESULTS)
    os.close(fd)
    out = Path(tmp)
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", name,
        "--child-out", str(out),
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), timeout=CHILD_TIMEOUT_S, stdout=sys.stderr
        )
        if proc.returncode != 0:
            print(f"{name}: workload exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        print(f"{name}: workload timed out", file=sys.stderr)
        return None
    finally:
        out.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Stamped records
# ----------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD's commit id, read from the checkout's .git (if there is one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _metric_specs(spec: dict, traced: bool) -> dict:
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    return {m["name"]: {k: v for k, v in m.items() if k != "name"} for m in entries}


def run(args, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.scale == "smoke":
        args.seconds *= SMOKE_FRACTION
    names = args.workload or [w["name"] for w in spec["workloads"]]
    RESULTS.mkdir(exist_ok=True)
    traced = bool(args.trace)
    metric_specs = _metric_specs(spec, traced)
    record = {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "loadavg": _loadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": traced,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metric_specs": metric_specs,
        "workloads": {},
    }
    ok = True
    for name in names:
        result = _run_child(name, args)
        if result is None:
            return 1
        record["versions"] = result.pop("versions")
        if set(result["metrics"]) != set(metric_specs):
            print(f"{name}: emitted metrics differ from BENCHMARK.json", file=sys.stderr)
            return 1
        record["workloads"][name] = result
        ok = ok and result["correct"]
        print(
            f"== {name}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"logical_errors={result['logical_errors']}"
        )
        for metric, value in result["metrics"].items():
            print(f"  {metric:<46} {value:>16.6g} {metric_specs[metric]['unit']}")
        for key, value in result["info"].items():
            print(f"  ({key} = {value})")

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    suffix = "-traced" if traced else ""
    path = RESULTS / f"run-{stamp}-{os.getpid()}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path}")

    results = record["workloads"]
    single = len(names) == 1
    metrics = {
        (metric if single else f"{name}/{metric}"): {
            "value": value,
            "unit": metric_specs[metric]["unit"],
        }
        for name, result in results.items()
        for metric, value in result["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def compare(base_paths: list[Path], new_paths: list[Path], spec: dict) -> int:
    """Compare medians per (workload, metric); non-zero on any regression.

    A metric whose base spread is wider than its bound is *unresolved*
    unless every new run reads better than every base run.  Records that
    cannot be compared pair for pair -- different scales, traced records,
    or records covering different workloads -- are refused (exit 2).
    """
    base = [json.loads(p.read_text()) for p in base_paths]
    new = [json.loads(p.read_text()) for p in new_paths]
    records = base + new
    scales = {r["scale"] for r in records}
    covered = {tuple(sorted(r["workloads"])) for r in records}
    names = set(base[0]["workloads"])
    known = {w["name"] for w in spec["workloads"]}
    refusal = None
    if len(scales) > 1:
        refusal = f"records of different scales: {sorted(scales)}"
    elif any(r["trace"] for r in records):
        refusal = "traced records (they hold per-layer metrics only)"
    elif len(covered) > 1:
        refusal = f"records covering different workloads: {sorted(covered)}"
    elif not names or not names <= known:
        refusal = f"records of workloads {sorted(names)} (known: {sorted(known)})"
    if refusal:
        print(f"refusing to compare {refusal}", file=sys.stderr)
        return 2
    bad = 0
    print(
        f"{'workload':<15} {'metric':<26} {'base':>12} {'new':>12} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    for w in spec["workloads"]:
        if w["name"] not in names:
            continue
        for m in spec["end_to_end"]:
            a = [r["workloads"][w["name"]]["metrics"][m["name"]] for r in base]
            b = [r["workloads"][w["name"]]["metrics"][m["name"]] for r in new]
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            spread = _spread(a)
            bound = m["bound"]
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > bound and not all_better:
                verdict = "unresolved"
                bad += 1
            elif worse > bound:
                verdict = "REGRESSED"
                bad += 1
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(
                f"{w['name']:<15} {m['name']:<26} {ma:>12.5g} {mb:>12.5g} "
                f"{(mb - ma) / ma:>+8.1%} {spread:>7.1%} {bound:>6.0%}  {verdict}"
            )
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv[:1] == ["--compare"]:
        if "--" not in argv:
            print("usage: run.py --compare A.json [...] -- B.json [...]", file=sys.stderr)
            return 2
        split = argv.index("--")
        base, new = argv[1:split], argv[split + 1 :]
        if not base or not new:
            print("usage: run.py --compare A.json [...] -- B.json [...]", file=sys.stderr)
            return 2
        return compare([Path(p) for p in base], [Path(p) for p in new], spec)
    args = _parser(spec).parse_args(argv)
    if args.child:
        return _child(args)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
