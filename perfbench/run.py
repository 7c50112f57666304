"""Benchmark of g2frames verification sweeps.

    python3 perfbench/run.py --workload x-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

Run from the repository root.  One closed-loop caller executes seeded run
configs through ``g2frames.cli.run`` and ``Report.to_json`` one after the
other, in this single process with ``workers=1``, and checks every report.
Rounds of configs run whole; the run stops at the round boundary nearest to
``--seconds``, so every run does the same mix of work.

``--trace 0`` reports the end-to-end metrics; lazy set-up is done before
timing and measured separately in fresh interpreters.  ``--trace 1`` runs a
fixed list of configs, each once untraced and once with spans and counts
patched into the layers, and reports the per-layer metrics; the spans are
written to ``perfbench/out/``.  The last line of output is one JSON object:
``failed`` counts configs that raised or whose report was wrong, and
``correct`` is false if any report was wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WHY, WORKLOADS, Scenario, check_report, rounds, traced_scenarios  # noqa: E402


def run_scenario(cli, scenario: Scenario, tracer: Tracer | None = None):
    """(wall seconds of run + to_json, problems, raised) for one config."""
    start = perf_counter()
    try:
        cfg = cli.RunConfig.from_dict(scenario.config)
        if tracer is None:
            text = cli.run(cfg).to_json()
        else:
            with tracer.span("cli.run"):
                report = cli.run(cfg)
            with tracer.span("cli.to_json"):
                text = report.to_json()
    except Exception as exc:  # a config that raises counts as failed; keep going
        traceback.print_exc()
        return perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"], True
    elapsed = perf_counter() - start
    return elapsed, check_report(text, scenario), False


def warm_up(cli, scenario: Scenario):
    """Finish lazy set-up (pairing sign anchor, G2 split, jet and wedge tables)."""
    run_scenario(cli, Scenario(dict(scenario.config, probes=1), scenario.tuning))


def measure_setup(scenario: Scenario) -> float:
    """Median wall time of a fresh interpreter importing g2frames and running
    the workload's first config with one probe."""
    arg = json.dumps(dict(scenario.config, probes=1))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), arg],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            print(f"set-up probe exited {proc.returncode}: {last[0]}", file=sys.stderr)
    return statistics.median(times)


def tally(results, scenarios):
    """(failed configs, wrong reports), printing each failure."""
    failed = wrong = 0
    for (_, problems, raised), sc in zip(results, scenarios):
        if problems:
            failed += 1
            wrong += not raised
            print(f"FAILED {json.dumps(sc.config, sort_keys=True)}: {'; '.join(problems)}", file=sys.stderr)
    return failed, wrong


def timed(cli, workload: str, seed: int, seconds: float) -> dict:
    gen = rounds(workload, seed)
    rnd = next(gen)
    setup_s = measure_setup(rnd[0])
    warm_up(cli, rnd[0])
    scenarios, results = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for sc in rnd:
            scenarios.append(sc)
            results.append(run_scenario(cli, sc))
        now = perf_counter()
        if (now - start) + (now - round_start) / 2 > seconds:
            break
        rnd = next(gen)
    failed, wrong = tally(results, scenarios)
    times = [r[0] for r in results]
    probes = sum(sc.probes for r, sc in zip(results, scenarios) if not r[1])
    values = {
        "probes_per_s": probes / sum(times),
        "run_s_p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {m["name"]: m["unit"] for m in metrics.END_TO_END}
    print(f"workload {workload} seed {seed}: closed loop, 1 caller, {len(results)} configs, {probes} verified probes")
    print(f"  probes_per_s  {values['probes_per_s']:.4f} 1/s  ({probes} probes / {sum(times):.3f} s)")
    print(f"  run_s_p50     {values['run_s_p50']:.4f} s  (median of {len(times)} configs)")
    print(f"  setup_s       {setup_s:.4f} s  (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  peak_rss_mb   {values['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac   {failed / len(results):.4f} ({failed}/{len(results)} configs)")
    return {
        "correct": wrong == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def trace_pass(cli, scenarios, tracer: Tracer):
    """(untraced results, traced results): each config runs untraced and then
    traced, back to back, so both see the same machine state."""
    plain, spanned = [], []
    for i, sc in enumerate(scenarios):
        plain.append(run_scenario(cli, sc))
        tracer.begin_run(i)
        tracer.install()
        try:
            spanned.append(run_scenario(cli, sc, tracer))
        finally:
            tracer.uninstall()
    return plain, spanned


def traced(cli, workload: str, seed: int) -> dict:
    scenarios = traced_scenarios(workload, seed)
    warm_up(cli, scenarios[0])
    tracer = Tracer()
    plain, spanned = trace_pass(cli, scenarios, tracer)
    failed, wrong = tally(plain + spanned, scenarios + scenarios)
    probes = sum(sc.probes for sc in scenarios)
    overhead = sum(r[0] for r in spanned) / sum(r[0] for r in plain)
    values, absent = metrics.layer_metrics(tracer, len(scenarios), probes, overhead)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl")

    print(f"workload {workload} seed {seed}: traced {len(scenarios)} configs, {probes} probes")
    for name, value in values.items():
        print(f"  {name:38s} {value:14.4f} {metrics.UNITS[name]:6s} moves: {metrics.MOVES[name]}")
    for name in absent:
        print(f"  {name:38s} absent: its entry point is gone")
    own = metrics.self_ms_by_name(tracer.spans)
    total = sum(own.values())
    print(f"self-time shares of {total:.1f} ms traced wall time:")
    for name, ms in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {name:30s} {ms / len(scenarios):10.2f} ms/config  {100.0 * ms / total:5.1f}%")
    for name in ("frames4.base", "xspace.jets", "pspace.jets", "radial.riemann"):
        spans = [s for s in tracer.spans if s[0] == name]
        if spans:
            mean = sum(s[2] - s[1] for s in spans) / len(spans)
            print(f"  inclusive {name}: {1e3 * mean:.2f} ms per call over {len(spans)} calls")
    return {
        "correct": wrong == 0,
        "attempted": 2 * len(scenarios),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(metrics.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error(f"--workload is required ({', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "g2frames" / "__init__.py").is_file():
        print(f"error: no g2frames sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from g2frames import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported g2frames from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"{args.workload}: {WHY[args.workload]}")
    if args.trace:
        result = traced(cli, args.workload, args.seed)
    else:
        result = timed(cli, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
