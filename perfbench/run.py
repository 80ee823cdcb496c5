"""Benchmark of the hide codec: encode/decode latency, rate, and training-step time.

Run from the repository root:

    python3 perfbench/run.py --workload codec-large --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured
untraced; with ``--trace 1`` they are the per-layer metrics, and a
self-time table and the tracing overhead are printed before them.  A
results file (and, when traced, a spans file) is written under ``--out``.
The exit code is 1 when any correctness check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.  Below 20 samples that percentile would not reach
    the median, so the maximum is reported instead, as p100."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def source_sha256() -> str:
    """Digest of the package and benchmark sources, which keys the
    recorded sha256s: a change to either starts a fresh record."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "hide").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_context() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(),
    }


def check_recorded(out_dir: Path, key: str, run) -> None:
    """The checkpoint and each image's bitstream must match what earlier
    runs of the same sources, workload and seed recorded."""
    path = out_dir / "sha256.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    record = records.setdefault(key, {"checkpoint": None, "bitstreams": {}})
    if record["checkpoint"] is None:
        record["checkpoint"] = run.checkpoints[0]
    elif record["checkpoint"] != run.checkpoints[0]:
        run.fail("set-up 0", "checkpoint sha256 differs from an earlier run's")
    for index, sha in sorted(run.bitstreams.items()):
        if record["bitstreams"].setdefault(str(index), sha) != sha:
            run.fail(f"image {index}", "bitstream sha256 differs from an earlier run's")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)


def untraced(run, name):
    return [v for v, traced in run.times[name] if not traced]


def end_to_end(run):
    """End-to-end metrics and, for each tail, its percentile and count."""
    metrics = {"setup_s": (statistics.median(untraced(run, "setup_s")), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    tails = {}
    for name in ("encode_s", "decode_s", "train_step_s"):
        values = untraced(run, name)
        value, pct, n = tail(values)
        metrics[f"{name}.p50"] = (statistics.median(values), "s")
        metrics[f"{name}.tail"] = (value, "s")
        tails[f"{name}.tail"] = {"percentile": pct, "samples": n}
    metrics["bpp"] = (statistics.fmean(run.bpp.values()), "bpp")
    metrics["psnr_db"] = (statistics.fmean(run.psnr_db.values()), "dB")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, tails


def tracing_overhead(run) -> dict:
    """Traced minus untraced median time per image and per step."""
    images = [(e + d, traced) for (e, traced), (d, _) in
              zip(run.times["encode_s"], run.times["decode_s"])]
    out = {}
    for kind, samples in (("image", images), ("step", run.times["train_step_s"])):
        on = [v for v, traced in samples if traced]
        off = [v for v, traced in samples if not traced]
        if not on or not off:   # failed steps can leave one side empty
            continue
        base = statistics.median(off)
        extra = statistics.median(on) - base
        out[kind] = {"overhead_s": extra, "overhead_frac": extra / base,
                     "traced": len(on), "untraced": len(off)}
    return out


def main(argv=None) -> int:
    if not (SRC / "hide" / "__init__.py").is_file():
        print(f"perfbench: no hide package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny model and inputs, for tests; figures are not comparable")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    context = machine_context()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    print("context " + json.dumps(context, sort_keys=True))

    runner = workloads.Runner(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke, str(out_dir))
    run = runner.execute()
    src_sha = source_sha256()
    smoke = "+smoke" if args.smoke else ""
    check_recorded(out_dir, f"{args.workload}{smoke} seed={args.seed} src={src_sha[:16]}", run)

    result = {"args": vars(args), "context": context, "source_sha256": src_sha,
              "checkpoint_sha256": run.checkpoints[0],
              "bitstream_sha256": run.bitstreams,
              "attempted": run.attempted, "failures": run.failures, "wrong": sorted(run.wrong),
              "fail_frac": len(run.failures) / run.attempted,
              "samples": run.times}
    if args.trace:
        loop_kind = "step" if runner.plan.train_loop else "image"
        metrics = tracing.layer_metrics(runner.tracer.spans, loop_kind, run.params, run.itemsize)
        result["overhead"] = tracing_overhead(run)
        print(tracing.self_time_table(runner.tracer.spans))
        for kind, o in result["overhead"].items():
            print(f"tracing overhead per {kind}: {o['overhead_s']:+.5f} s "
                  f"({100 * o['overhead_frac']:+.1f}%), traced median minus untraced median "
                  f"over {o['traced']} traced and {o['untraced']} untraced")
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(runner.tracer.to_json()))
    else:
        metrics, tails = end_to_end(run)
        result["tails"] = tails
        for name, t in tails.items():
            print(f"{name}: p{t['percentile']:.1f} of {t['samples']} samples")
    result["metrics"] = metrics
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))

    for op, problems in run.failures.items():
        print(f"FAILED {op}: {'; '.join(problems)}")
    print(f"attempted={run.attempted} failed={len(run.failures)} "
          f"fail_frac={result['fail_frac']:.4f}")
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if not run.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
