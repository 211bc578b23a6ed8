"""Timing process: runs one workload's passes in a fresh interpreter.

``run.py`` starts this process after it has generated the inputs, so the
peak resident set size read after the first pass is that of a process that
ran the workload once.  Every CLI step goes through ``rankkit.cli.main``
in-process; interpreter start-up and import are measured separately as
``setup_s``.  Each CPU-bound step is bracketed by the calibration kernel
of ``speed.py`` and reported at reference speed; steps that wait on the
stub are reported as measured.  Passes repeat until ``--seconds`` would be
exceeded.  With
``--trace 1`` untraced and traced passes alternate, so the tracing overhead
is measured against the same inputs and the same process.

Usage: python3 worker.py --spec SPEC --src SRC --seconds S --trace 0|1
                         --result OUT [--endpoint URL]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import tracer as tracing
from speed import REFERENCE_S, Calibrator, scaled


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _peak_rss_kib() -> int:
    """High-water resident set size of this process image.  ru_maxrss would
    also count the parent's resident set at fork time, which Linux carries
    across exec; VmHWM belongs to the new image alone."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _blas_info() -> dict:
    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas_name=blas.get("name"), blas_version=blas.get("version"))
    except Exception as exc:  # the layout of show_config differs across numpy versions
        info["blas_error"] = repr(exc)
    try:
        import ctypes
        import glob

        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "*openblas*.so*"))
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    break
    except OSError as exc:  # thread count is informational only
        info["blas_threads_error"] = repr(exc)
    info.setdefault("blas_threads", "unknown")
    return info


class LossGradStep:
    """Per query: listwise_loss and listwise_loss_grad of the run's scores
    against the qrels-ideal permutation.  Inputs are parsed before timing."""

    def __init__(self, cfg: dict):
        from rankkit.types import Permutation

        grades: dict[str, dict[str, int]] = {}
        with open(cfg["qrels"], encoding="utf-8") as fh:
            for line in fh:
                qid, _, did, g = line.split()
                grades.setdefault(qid, {})[did] = int(g)
        lists: dict[str, list[tuple[int, str, float]]] = {}
        with open(cfg["run"], encoding="utf-8") as fh:
            for line in fh:
                qid, _, did, rank, score, _tag = line.split()
                lists.setdefault(qid, []).append((int(rank), did, float(score)))
        self.items = []
        for qid, rows in lists.items():
            rows.sort()
            g = grades.get(qid, {})
            # Ideal order: grade descending, run rank breaking ties.
            order = sorted(range(len(rows)), key=lambda i: (-g.get(rows[i][1], 0), i))
            self.items.append((qid, [r[2] for r in rows],
                               Permutation(tuple(i + 1 for i in order))))
        self.tau = cfg["tau"]
        self.out = cfg["out"]
        self.results: list = []

    def __call__(self) -> None:
        from rankkit import ranking_math as rm

        results = []
        for qid, scores, perm in self.items:
            loss = rm.listwise_loss(scores, perm, tau=self.tau)
            grad = rm.listwise_loss_grad(scores, perm, tau=self.tau)
            results.append((qid, loss, grad))
        self.results = results

    def write(self) -> None:
        with open(self.out, "w", encoding="utf-8") as fh:
            json.dump({qid: {"loss": r.loss, "grad_sum": float(g.sum()),
                             "grad_abs_max": float(abs(g).max())}
                       for qid, r, g in self.results}, fh, sort_keys=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--endpoint", default="")
    args = ap.parse_args()
    started = time.perf_counter()
    sys.path.insert(0, args.src)
    import rankkit.cli as cli

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    steps = []
    for name, what, cpu_bound in spec["steps"]:
        if isinstance(what, dict):
            what = LossGradStep(what)
        else:
            what = [a.replace("{endpoint}", args.endpoint) for a in what]
        steps.append((name, what, cpu_bound))
    calibrate = Calibrator()

    def run_pass() -> dict:
        # Every pass starts from the same collector state, as a fresh CLI
        # process would, so collections do not drift from pass to pass.
        gc.collect()
        start = time.perf_counter()
        times: dict[str, float] = {}
        raw: dict[str, float] = {}
        codes: dict[str, int] = {}
        kernel = [calibrate()]
        for name, what, cpu_bound in steps:
            t0 = time.perf_counter()
            try:
                if callable(what):
                    what()
                    code = 0
                else:
                    code = cli.main(what)
            except Exception:  # a crashing command fails its items; the run goes on
                traceback.print_exc()
                code = -1
            took = time.perf_counter() - t0
            kernel.append(calibrate())
            raw[name] = raw.get(name, 0.0) + took
            if cpu_bound:
                took = scaled(took, kernel[-2], kernel[-1], REFERENCE_S)
            times[name] = times.get(name, 0.0) + took
            if code or name not in codes:
                codes[name] = code
        for _, what, _ in steps:
            if callable(what):
                what.write()
        digests = {o: _sha256(os.path.join(spec["work"], o))
                   if os.path.exists(os.path.join(spec["work"], o)) else "missing"
                   for o in spec["outputs"]}
        return {"wall": sum(times.values()), "raw_wall": sum(raw.values()), "steps": times,
                "raw_steps": raw, "kernel": kernel, "codes": codes, "digests": digests,
                "elapsed": time.perf_counter() - start}

    passes = [dict(run_pass(), kind="warmup")]
    peak_rss_kib = _peak_rss_kib()
    tracers: list[tracing.Tracer] = []
    durations: dict[str, list[float]] = {}
    # Budget by elapsed time, which includes the calibration kernels.
    longest = {"timed": passes[0]["elapsed"], "traced": passes[0]["elapsed"] * 1.5}

    while True:
        have = any(p["kind"] == "timed" for p in passes) and (tracers or not args.trace)
        cost = longest["timed"] + (longest["traced"] if args.trace else 0.0)
        if have and time.perf_counter() - started + cost > args.seconds:
            break
        passes.append(dict(run_pass(), kind="timed"))
        longest["timed"] = max(longest["timed"], passes[-1]["elapsed"])
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                rec = dict(run_pass(), kind="traced")
            finally:
                tr.uninstall()
            layers = tracing.aggregate(tr.spans)
            for name, agg in layers.items():
                durations.setdefault(name, []).extend(agg.pop("durations"))
            rec["layers"] = layers
            passes.append(rec)
            tracers.append(tr)
            longest["traced"] = max(longest["traced"], rec["elapsed"])

    for i, tr in enumerate(tracers):
        tr.dump(os.path.join(spec["work"], "spans.jsonl"), i)
    result = {
        "passes": passes,
        "durations": durations,
        "peak_rss_kib": peak_rss_kib,
        "env": dict(_blas_info(), python=sys.version.split()[0],
                    nproc=len(os.sched_getaffinity(0))),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
