"""Wall-clock benchmark of evshift: one workload per run.

    python3 perfbench/run.py --workload reference --seed 7 --seconds 10 --trace 0

--seed is the scene seed (it draws the background noise; the shapes move
the same for every seed); without it the built-in seed is used.  With
--trace 0 the last line of standard output is one JSON object carrying
every end-to-end metric; with --trace 1 it carries every per-layer metric
of a traced pass.  The line before it is a JSON record of the run:
environment, input sizes, the count fingerprint, the output checks and the
error rate.  Run it from the root of a checkout that holds src/evshift.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3
THREAD_VARS = ("EVSHIFT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "packet_ms.p50": "ms",
    "packet_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "pair_f": "ratio",
    "track_err_px": "px",
    "setup_s": "s",
}


def import_evshift():
    """Import evshift from this checkout's src/ and nowhere else."""
    if not (SRC / "evshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no evshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evshift

    if SRC.resolve() not in Path(evshift.__file__).resolve().parents:
        raise SystemExit(f"error: evshift was imported from {evshift.__file__}, not {SRC}")
    return evshift


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "evshift").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_in_child(spec, seed: int, inputs: Path) -> float:
    """One set-up in a fresh interpreter: import, synth, write inputs.

    A child keeps synth's memory out of this process's peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "workloads.py"), "setup",
           json.dumps(dataclasses.asdict(spec)), str(seed), str(inputs)]
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=str(ROOT), check=True)
    return time.perf_counter() - start


def run_passes(run_pass, inputs: Path, out: Path, passes: list, until_s: float) -> None:
    """Append whole passes until their wall times add up to `until_s`;
    `passes` ends with at least one."""
    while not passes or sum(p.wall_s for p in passes) < until_s:
        passes.append(run_pass(inputs, out))


def check_fingerprint(key: str, fp: dict, checks: Dict[str, bool], cache: Path) -> None:
    """Compare with the committed default-seed counts and with every earlier
    run of the same sources and seed that used this cache directory."""
    expected = json.loads((HERE / "expected.json").read_text()).get(key)
    if expected is not None:
        checks["fingerprint_matches_expected"] = expected == fp
    cache_key = f"{source_digest()}/{key}"
    with open(cache / "fingerprints.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        path = cache / "fingerprints.json"
        seen = json.loads(path.read_text()) if path.exists() else {}
        if cache_key in seen:
            checks["fingerprint_repeats"] = seen[cache_key] == fp
        else:
            seen[cache_key] = fp
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
            os.replace(tmp, path)


def run(spec, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload in scratch directory `work`; returns (result, record).

    The fingerprint cache and span dumps go to work's parent directory.
    """
    evshift = import_evshift()
    import numpy as np

    from tracer import LAYER_TIME, PER_LAYER_UNITS, Tracer, installed, layer_metrics
    from workloads import PACKET_SIZE, PASSES, digest, output_checks, scores, write_inputs

    inputs, out = work / "inputs", work / "out"
    out.mkdir(parents=True, exist_ok=True)
    run_pass = PASSES[spec.kind]
    checks: Dict[str, bool] = {}
    record: dict = {"workload": spec.name, "seed": seed, "trace": int(trace)}

    if trace:
        setup_tracer = Tracer()
        with installed(setup_tracer), setup_tracer.window():
            write_inputs(spec, seed, inputs)
        passes = []
        run_passes(run_pass, inputs, out, passes, seconds)
    else:
        setup_runs, input_digests, passes = [], [], []
        for i in range(SETUP_REPEATS):
            setup_runs.append(setup_in_child(spec, seed, inputs))
            input_digests.append({p.name: digest(p) for p in sorted(inputs.iterdir())})
            # Passes go between the set-ups, so that a run samples the host's
            # speed over its whole length, not over one stretch of it.
            run_passes(run_pass, inputs, out, passes, seconds * (i + 1) / SETUP_REPEATS)
        checks["setup_repeats_identical"] = all(d == input_digests[0] for d in input_digests)
        record["setup_runs_s"] = setup_runs

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0]
    checks["passes_repeat_exactly"] = all(p.fingerprint() == first.fingerprint() for p in passes)

    if trace:
        tracer = Tracer()
        with installed(tracer), tracer.window():
            traced = run_pass(inputs, out)
        checks["traced_outputs_identical"] = traced.fingerprint() == first.fingerprint()
        layers = layer_metrics(tracer)
        setup_layers = layer_metrics(setup_tracer)
        layers["synth.s"] = setup_layers["synth.s"]
        layers["synth.events"] = setup_layers["synth.events"]
        layers["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in passes)
        spent = sum(layers[m] for m in set(LAYER_TIME.values()) - {"synth.s"})
        checks["self_times_plus_residual_equal_wall"] = (
            layers["trace.residual_s"] >= -1e-6
            and abs(spent + layers["trace.residual_s"] - layers["trace.wall_s"]) < 1e-6
        )
        traces = work.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{spec.name}-seed{seed}.json").write_text(
            json.dumps({"setup": setup_tracer.dump(), "pass": tracer.dump()}))
        units = PER_LAYER_UNITS
        metrics = layers
    else:
        checks.update(output_checks(spec, inputs, out, first))
        quality = scores(spec, inputs, out)
        # Best of the passes, piece by piece: a short stall of the host then
        # costs one piece of one pass, not the whole run.
        best_wall = sum(map(min, zip(*(p.segments_s for p in passes))))
        if first.latencies_s is None:
            latencies_ms = [1e3 * best_wall]
        else:
            latencies_ms = [1e3 * min(xs) for xs in zip(*(p.latencies_s for p in passes))]
        units = END_TO_END_UNITS
        metrics = {
            "events_per_s": first.counts["raw_events"] / best_wall,
            "packet_ms.p50": float(np.percentile(latencies_ms, 50)),
            "packet_ms.p90": float(np.percentile(latencies_ms, 90)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(record["setup_runs_s"]),
            **quality,
        }
        record["latency_samples"] = len(latencies_ms)

    check_fingerprint(f"{spec.name}/{seed}", first.fingerprint(), checks, work.parent)

    attempted = sum(p.attempted for p in passes) + (traced.attempted if trace else 0)
    failed = sum(p.failed for p in passes) + (traced.failed if trace else 0)
    failed += sum(not ok for ok in checks.values())
    record.update({
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "fingerprint": first.fingerprint(),
        "checks": checks,
        "error_rate": failed / max(attempted, 1),
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "evshift": evshift.__version__,
            "machine": platform.machine(),
            **{var: os.environ.get(var) for var in THREAD_VARS},
        },
        "inputs": {
            "bytes": {p.name: p.stat().st_size for p in sorted(inputs.iterdir())},
            "packets": first.counts["packets"],
            "packet_size": PACKET_SIZE,
        },
    })
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return result, record


def main(argv=None) -> int:
    # One thread everywhere, set before numpy loads: the closed loop
    # measures one driver on one core of a small shared machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="scene seed; default: the scene's built-in seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="least wall time of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = WORKLOADS[args.workload]
    seed = args.seed
    if seed is None:
        import_evshift()
        from workloads import scene_for

        seed = scene_for(spec, None).seed
    work = WORK / f"run-{os.getpid()}"
    try:
        result, record = run(spec, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
