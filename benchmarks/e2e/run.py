#!/usr/bin/env python3
"""The repo's benchmark: six workloads from the publisher's socket to
the consumer's match frame, end to end and layer by layer.

    python benchmarks/e2e/run.py                      # all six, one child interpreter each
    python benchmarks/e2e/run.py --trace              # + a traced run each (per-layer numbers)
    python benchmarks/e2e/run.py --smoke              # same code paths cut to ~1 s each
    python benchmarks/e2e/run.py --workload protein-warm --seed 3 --seconds 8 --trace 0

The last form is what the driver in ``BENCHMARK.json`` calls: one
workload in this process, every metric printed as ``name unit value``,
and one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) as the last line of standard output.  The exit code is
non-zero when any checked answer was wrong or any operation failed.

See ``README.md`` beside this file for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(REPO, "src", "repro")):
    # Never fall back to some other installed copy of the program.
    sys.exit(f"{os.path.join(REPO, 'src', 'repro')} not found: nothing to measure in this checkout")
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import windows  # noqa: E402
import workloads  # noqa: E402
from measure import Tracer, median, percentile, quartiles  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
#: ``--smoke``: input size factor, measured seconds and pass floor.
SMOKE_SCALE = 0.25
SMOKE_SECONDS = 1.0
SMOKE_PASSES = 2


def run_window(inputs: workloads.Inputs, budget: windows.Budget, tracer: Tracer | None):
    window = {
        "direct": windows.engine_window,
        "sharded": windows.engine_window,
        "churn": windows.churn_window,
        "served": windows.served_window,
    }[inputs.spec.kind]
    return window(inputs, budget, tracer)


def check_answers(inputs: workloads.Inputs, samples: windows.Samples) -> None:
    """Fold the reference checks into the window's attempted/failed."""
    kind = inputs.spec.kind
    live_at = samples.live_at or None
    results = [checks.oracle_check(inputs, samples.answers, live_at)]
    if kind == "churn":
        results.append(checks.reference_check(inputs, samples.answers, inputs.pool, live_at))
    elif kind == "sharded":
        results.append(checks.reference_check(inputs, samples.answers))
    elif kind == "served":
        results.append(checks.reference_check(inputs, samples.answers, windows.sentinel_sources(inputs)))
    for attempted, failed in results:
        samples.attempted += attempted
        samples.failed += failed


def end_to_end(samples: windows.Samples) -> dict[str, float]:
    wall = median(samples.paced_walls)
    return {
        "setup_s": median(samples.paced_setups),
        "docs_per_s": samples.documents / wall,
        "mb_per_s": samples.megabytes / wall,
        "filter_over_parse": median([w / f for w, f in zip(samples.walls, samples.floors)]),
        "first_match_p50_ms": percentile(samples.first_match_ms, 0.5),
        "peak_rss_mb": samples.rss_mb,
    }


def per_layer(inputs: workloads.Inputs, seconds: float, min_passes: int) -> tuple[dict[str, float], windows.Samples]:
    """The traced run: the workload's window with every other pass
    recording spans, then every layer probe."""
    kind = inputs.spec.kind
    tracer = Tracer()
    out: dict[str, float] = {}
    if kind == "direct":
        # The serial workloads' spans (and what they cost) come from the
        # clocked tape replay; the window only supplies answers to check.
        samples = run_window(inputs, windows.Budget(0.0, 1, setups=1), None)
        out.update(layers.xpush_probe(inputs, tracer))
    else:
        samples = run_window(inputs, windows.Budget(seconds / 2, max(2, min_passes // 2), setups=1), tracer)
        out.update(layers.xpush_probe(inputs, None))
        out["trace.overhead_ratio"] = median(samples.traced_walls) / median(samples.walls)
    out.update(layers.xmlstream_probe(inputs))
    out.update(layers.compile_probe(inputs))
    out.update(layers.engine_probe(inputs))
    out.update(layers.codec_probe(inputs))
    out.update(samples.layer)
    if kind != "churn":
        out.update(layers.layered_probe(inputs))
    out.update(layers.service_probe(inputs))
    out.update(layers.wire_overhead(inputs, samples.walls) if kind == "served" else layers.served_probe(inputs))

    path = os.path.join(OUT_DIR, f"trace-{inputs.spec.name}.jsonl")
    tracer.write(path)
    budget = tracer.budget()
    total = sum(budget.values())
    print(f"# trace: {len(tracer.spans)} spans -> {os.path.relpath(path, REPO)}")
    for name, seconds_ in sorted(budget.items(), key=lambda item: -item[1]):
        print(f"# budget {name:<28} {seconds_:9.4f} s  {100 * seconds_ / total:5.1f} %")
    print(f"# budget sum {total:.4f} s = {100 * total / tracer.wall:.1f} % of {tracer.wall:.4f} s traced wall")
    return out, samples


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    scale = SMOKE_SCALE if smoke else 1.0
    inputs = workloads.build(name, seed, scale)
    # The generated inputs (DOM trees, parsed filters) are the
    # benchmark's own; park them where the collector does not look, so
    # its pauses inside a window are the engine's garbage only.
    gc.collect()
    gc.freeze()
    spec = inputs.spec
    passes = SMOKE_PASSES if smoke else spec.min_passes
    print(
        f"# {name} seed={seed} scale={scale} loop={spec.loop} filters={len(inputs.sources)} "
        f"documents={len(inputs.docs)} megabytes={sum(inputs.doc_bytes) / 1e6:.3f} "
        f"params={inputs.param_hash()}"
    )
    if trace:
        values, samples = per_layer(inputs, seconds, passes)
        catalogue = [(n, u) for n, u, _, _ in metrics.PER_LAYER]
    else:
        samples = run_window(inputs, windows.Budget(seconds, passes), None)
        values = end_to_end(samples)
        catalogue = [(n, u) for n, u, _, _, _ in metrics.END_TO_END]
        q1, _, q3 = quartiles(samples.paced_walls)
        stopwatch = median(samples.walls)
        print(f"# passes={len(samples.walls)} wall_q1={q1:.4f} wall_q3={q3:.4f} "
              f"first_match_samples={len(samples.first_match_ms)} setup_samples={len(samples.setups)}")
        # The metrics below are at the reference speed (measure.Pace).
        print(f"# stopwatch: docs_per_s={samples.documents / stopwatch:.1f} "
              f"setup_s={median(samples.setups):.4f} host_speed={median(samples.paced_walls) / stopwatch:.3f}")
    check_answers(inputs, samples)
    for metric, unit in catalogue:
        print(f"{metric} {unit} {values[metric]!r}")
    share = samples.failed / samples.attempted
    print(f"failed_share ratio {share!r} ({samples.failed} of {samples.attempted})")
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in catalogue},
    }))
    return 0 if samples.failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads, one child interpreter each
# ----------------------------------------------------------------------


def stamp(seed: int, seconds: float, smoke: bool) -> dict[str, object]:
    scale = SMOKE_SCALE if smoke else 1.0
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "params": {spec.name: workloads.params_hash(spec, scale) for spec in workloads.SPECS},
    }


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload in a fresh interpreter (clean caches, clean
    high-water RSS); the child's metric lines pass through, its final
    JSON line is returned."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=600)
    except BaseException:
        child.kill()
        child.wait()
        raise
    lines = stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if child.returncode not in (0, 1):
        raise RuntimeError(f"{name}: child exited with {child.returncode}")
    result = json.loads(lines[-1])
    result.update(workload=name, seed=seed, trace=trace)
    return result


def run_all(args: argparse.Namespace) -> int:
    runs = []
    for repeat in range(args.runs):
        for spec in workloads.SPECS:
            for trace in (0, 1) if args.trace else (0,):
                runs.append(run_child(spec.name, args.seed + repeat, args.seconds, trace, args.smoke))
    stamped = json.dumps(stamp(args.seed, args.seconds, args.smoke))
    path = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:  # one run per line
        rows = ",\n  ".join(json.dumps(run) for run in runs)
        handle.write(f'{{"stamp": {stamped},\n "runs": [\n  {rows}\n ]}}\n')
    failed = sum(run["failed"] for run in runs)
    print(f"# {len(runs)} runs, {failed} failed operations -> {os.path.relpath(path)}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="every workload cut to about a second")
    parser.add_argument("--runs", type=int, default=1, help="repeat every workload, seed+0 .. seed+N-1")
    parser.add_argument("--out", help="results file (default: out/results-seed<N>.json)")
    parser.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    # A terminated benchmark must still unwind: the finally blocks that
    # reap the serve child and the shard workers run on SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_manifest:
        with open(os.path.join(REPO, "BENCHMARK.json"), "w") as handle:
            json.dump(metrics.manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
