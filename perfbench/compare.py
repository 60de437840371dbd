"""Repeat the benchmark over seeds and judge spreads and regressions against the bounds.

Usage (from the root of a checkout)::

    # ten runs of one workload, one per seed, metrics appended to a JSON-lines file
    python3 perfbench/compare.py run --workload creditg-batched --seeds 1-10 --out parent.jsonl

    # median, quartile spread and bound of every end-to-end metric
    python3 perfbench/compare.py report parent.jsonl

    # the same for a change, plus whether each median regressed past its bound
    python3 perfbench/compare.py report parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfstats import compare, spread

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_seeds(workload: str, seeds: list[int], seconds: int, trace: int, out: Path) -> int:
    """Run the benchmark once per seed; append each result line to ``out``."""
    failures = 0
    for seed in seeds:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        with open(out, "a") as handle:
            handle.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()))
    return failures


def _load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from a JSON-lines file of results."""
    values: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        metrics = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return values


def report(parent_path: Path, change_path: Path | None) -> int:
    """Print spreads against the bounds, and regressions when a change is given."""
    definition = json.loads(BENCHMARK.read_text())
    metrics = {metric["name"]: metric for metric in definition["end_to_end"]}
    parent = _load(parent_path)
    change = _load(change_path) if change_path is not None else {}
    problems = 0
    for workload, values in parent.items():
        for name, metric in metrics.items():
            samples = values.get(name, [])
            if len(samples) < 2:
                continue
            share = spread(samples)
            line = (f"{workload:<16} {name:<14} median {statistics.median(samples):<12.6g} "
                    f"spread {share:6.3f} bound {metric['bound']:.3f}")
            if name != "setup_s" and share > metric["bound"]:
                line += "  SPREAD OVER BOUND"
                problems += 1
            if workload in change and change[workload].get(name):
                verdict = compare(samples, change[workload][name], metric["bound"], metric["better"])
                line += f"  change {verdict['change_median']:<12.6g} worse by {verdict['worse_by']:+.3f}"
                if verdict["regressed"]:
                    line += "  REGRESSED"
                    problems += 1
            print(line)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run the benchmark once per seed")
    run_parser.add_argument("--workload", required=True)
    run_parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    run_parser.add_argument("--seconds", type=int, default=json.loads(BENCHMARK.read_text())["run_seconds"])
    run_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run_parser.add_argument("--out", type=Path, required=True, help="JSON-lines file to append to")
    report_parser = commands.add_parser("report", help="spreads, and regressions of a change")
    report_parser.add_argument("parent", type=Path)
    report_parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    if args.command == "run":
        return 1 if run_seeds(args.workload, args.seeds, args.seconds, args.trace, args.out) else 0
    return report(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
