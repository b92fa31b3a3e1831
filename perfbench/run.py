"""specmix benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload mlm_pretrain --seed 1 --seconds 30 --trace 0

Run it from a checkout: it imports specmix from the checkout's ``src`` and
fails, printing no result, when that is missing. BLAS is held to one thread
through the environment before numpy is imported.

``--trace 0`` measures the end-to-end metrics with no instrumentation. Every
workload reports all four; the operation behind ``op_ms_p50`` is the unit its
loop repeats, and ``tokens_per_s`` counts every token the model read or wrote
in the timed loop:

    metric        mlm_pretrain        longdoc_encode    summarize
    setup_s       median of 5 fresh-process set-ups (imports, inputs, model, warm-up)
    peak_rss_mb   ru_maxrss of the workload process
    tokens_per_s  slice tokens        document tokens   pair tokens trained, plus
                                                        source and generated tokens
    op_ms_p50     optimizer step      one document      beam-4 decode of one
                                                        held-out source

Each workload's own metrics (p90s, per-beam ms/token, generation tokens/s, the
share of summarize's timed loop spent in generate, the failed fraction) are in
the report line.

``--trace 1`` runs the same loop untraced, then again with every public
specmix function wrapped in a span (see tracer.py) for the same number of
iterations, then the mixing-vs-attention probe with the wrappers removed, and
reports the per-layer metrics. Either way the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

and the line before it is a report with provenance, the workload's own named
metrics, sample counts, determinism digests and any failed checks.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from provenance import THREAD_VARS, provenance

T0 = time.perf_counter()

for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
SETUP_PROBES = 4
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tokens_per_s": "tok/s",
    "op_ms_p50": "ms",
}


def load_program():
    """Import specmix from the checkout's src, and only from there."""
    package = SRC / "specmix"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no specmix sources at {package}")
    sys.path.insert(0, str(SRC))
    import specmix

    if Path(specmix.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: specmix was imported from {specmix.__file__}")
    return specmix


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(args) -> list:
    """Set-up seconds of fresh processes, each importing and setting up from scratch."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(wl, seconds: float, setup_s: list):
    """The untraced closed loop; returns (pass, metrics by name)."""
    p = wl.run(seconds)
    # read before the checks, whose reference arrays are not the program's
    metrics = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb()}
    wl.final_checks(p)
    metrics.update(wl.end_to_end(p))
    return p, metrics


def traced(make, wl, seconds: float, seed: int):
    """Untraced pass, then a traced pass of as many iterations on a fresh set-up.

    Returns (untraced pass, traced pass, tracer, per-layer metrics by name).
    """
    from tracer import Tracer, layer_metrics, probe_metrics

    untraced = wl.run(seconds)
    wl.final_checks(untraced)
    again = make()
    again.setup()
    tracer = Tracer()
    with tracer.installed():
        p = again.run(iterations=untraced.iterations)
    again.final_checks(p)
    p.check(p.digests() == untraced.digests(), "traced pass digests differ from untraced")
    probe = probe_metrics(seed)
    return untraced, p, tracer, layer_metrics(tracer, p.wall_s, untraced.wall_s, probe)


def result_line(passes, metrics: dict, units: dict) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up seconds and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    # the workloads import specmix, so they load only once it is on the path
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        def make():
            return make_workload(args.workload, args.seed, workdir)

        wl = make()
        wl.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        report = {"workload": args.workload, "trace": args.trace,
                  "provenance": provenance(args.seed)}
        for warning in report["provenance"]["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        if args.trace:
            from tracer import PER_LAYER

            untraced, p, tracer, metrics = traced(make, wl, args.seconds, args.seed)
            passes = (untraced, p)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            _, _, phases = tracer.span_stats()
            report["phases_self_s"] = {root: dict(mods) for root, mods in phases.items()}
            report["spans"] = len(tracer.spans)
        else:
            samples = [setup_s] + setup_samples(args)
            p, metrics = end_to_end(wl, args.seconds, samples)
            passes = (p,)
            units = END_TO_END
            report["setup_samples_s"] = samples
        report.update({
            "named": wl.named(passes[0]),
            "iterations": p.iterations,
            "timed_s": p.timed_s,
            "wall_s": p.wall_s,
            "failed_frac": sum(q.failed for q in passes) / max(sum(q.attempted for q in passes), 1),
            "failures": [f for q in passes for f in q.failures],
            "digests": p.digests(),
        })
        print(json.dumps({"report": report}))
        print(json.dumps(result_line(passes, metrics, units)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
