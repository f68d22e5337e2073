"""gft benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gft is imported from ``src/`` and
the metric names, units and directions come from ``BENCHMARK.json``.  Each
invocation of a workload is one single-threaded child process
(perfbench/child.py), run as a closed loop with one client: the next child
starts when the previous one has exited, as long as it is expected to end
within S seconds (at least one child runs).  An import-only child runs
before each workload child, so set-up is sampled across the whole run, and
one more runs untimed first, to warm the file cache.

Each metric reports the median of its samples in the run; the record also
keeps the quartiles and every sample.  Times are normalised to the host's
reference speed: every untraced child also times calibrate.py's kernels
around and during its work, and its wall and set-up times are divided by
their slowdown, after the kernels' own time is taken out.  The record keeps
the raw times and each child's speed as well.

--trace 0 reports the end-to-end metrics:
  wall_s       child wall time, spawn to exit (set-up included), normalised
  setup_s      time from spawn until gft is imported, normalised, over the
               workload's children and at least SETUP_PROBES import-only ones
  peak_rss_mb  the child's own max RSS, from os.wait4
  pass_frac    passing checks / attempted checks: suites for verify-all and
               member-sweep, rows for bounds-table, points for
               quadrature-check; a nonzero exit fails at least one
  max_abs_err  bounds-table: CSV values against mpmath; quadrature-check:
               quadrature against the closed form; verify-all and
               member-sweep: gft's growth and distortion envelopes (the
               ones suites 9 and 11 verify) against mpmath
--trace 1 alternates untraced and traced children and reports per-layer
self times and work counts from the traced ones (spans.py), proc.cpu_s and
proc.minflt from the untraced ones (cpu_s less the calibration time), and
trace.overhead_s, the traced minus the untraced raw wall time, in medians.

Every output is hashed.  Children with the same seed must agree byte for
byte, traced or not, and in a traced run one more child with seed + 1 must
change the output (bounds-table takes no seed).  At the seed recorded in
fingerprints.json the record says whether the output still matches it.
The last line of stdout is one JSON object; a fuller record, with
quartiles, sample counts and the machine, goes under perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

SEEDED = ("verify-all", "member-sweep", "quadrature-check")
SUITE_COUNT = {"verify-all": 13, "member-sweep": 11}
SETUP_PROBES = 5
QUAD_TOL = 1e-8
DEADLINE_S = 170.0


class Child:
    """One finished child process: timings, resource use and its result."""

    def __init__(self, args: list, limit: float) -> None:
        env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=subprocess.PIPE, cwd=ROOT, env=env)
        killer = threading.Timer(max(limit, 1.0), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            body = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.ok = proc.returncode == 0 and ready == b"ready\n"
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.minflt = usage.ru_minflt
        self.result = json.loads(body) if self.ok and body.strip() else {}
        self.speed = self.result.get("speed")
        self.cal_s = self.result.get("cal_s", 0.0)
        output = self.result.get("output")
        self.sha256 = None if output is None else hashlib.sha256(output.encode()).hexdigest()


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(), "numpy": numpy.__version__}


def stats(values: list) -> dict:
    values = sorted(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"value": median, "q1": q1, "q3": q3, "samples": len(values), "values": values}


def check_output(workload: str, child: Child, reference: dict) -> tuple:
    """(attempted, failed, worst error or None) for one child's output."""
    if child.sha256 is None:
        return 1, 1, None
    output, worst = child.result["output"], None
    if workload in SUITE_COUNT:
        reports = json.loads(output)
        attempted, failed = len(reports), sum(r["verdict"] != "pass" for r in reports)
        failed += len({r["theorem"] for r in reports}) != SUITE_COUNT[workload]
    elif workload == "quadrature-check":
        errors = [row[2] for row in json.loads(output)]
        attempted, failed, worst = len(errors), sum(not e <= QUAD_TOL for e in errors), max(errors)
    else:
        attempted, failed, worst = check_bounds_csv(output, reference)
    if child.result["exit"] != 0:
        failed = max(failed, 1)
    return max(attempted, failed), failed, worst


def bad_row(row, exact: dict) -> bool:
    """Missing, non-finite, inverted, or blank where the exact row is not (covering is blank iff n = 0)."""
    if row is None or any((row[k] == "") != (v is None) for k, v in exact.items()):
        return True
    values = {k: float(row[k]) for k, v in exact.items() if v is not None}
    return (not all(math.isfinite(v) for v in values.values())
            or values["m_lower"] > values["M_upper"] or values["growth_lower"] > values["growth_upper"])


def check_bounds_csv(text: str, reference: dict) -> tuple:
    """(attempted, failed, worst error) over the expected rows; extra or repeated rows fail too."""
    rows, extra = {}, 0
    for row in csv.DictReader(io.StringIO(text)):
        key = (float(row["sigma"]), int(row["n"]), float(row["beta"]), float(row["r"]))
        extra += key in rows or key not in reference
        rows.setdefault(key, row)
    failed, worst = extra, 0.0
    for key, exact in reference.items():
        row = rows.get(key)
        if bad_row(row, exact):
            failed += 1
            continue
        worst = max([worst] + [abs(float(row[k]) - v) for k, v in exact.items() if v is not None])
    return len(reference) + extra, failed, worst


def envelope_error(reference: dict) -> float:
    """Worst error of gft's growth and distortion envelopes over the default table."""
    sys.path.insert(0, SRC)
    from gft.classes import ClassSpec, distortion_bounds, growth_bounds
    from gft.kernels import OperatorParams

    worst = 0.0
    for (sigma, n, beta, r), exact in reference.items():
        spec = ClassSpec(OperatorParams(sigma, n), beta)
        values = (*distortion_bounds(spec, r), *growth_bounds(spec, r))
        names = ("m_lower", "M_upper", "growth_lower", "growth_upper")
        worst = max([worst] + [abs(v - exact[k]) for k, v in zip(names, values)])
    return worst


def layer_samples(plain: list, traced: list, problems: list) -> dict:
    samples = {
        "proc.cpu_s": [c.cpu_s - c.cal_s for c in plain],
        "proc.minflt": [c.minflt for c in plain],
        "trace.overhead_s": [statistics.median(c.wall_s for c in traced)
                             - statistics.median(c.wall_s - c.cal_s for c in plain)],
    }
    good = [c for c in traced if c.sha256 is not None]
    if not good:
        return samples
    counts = good[0].result["counts"]
    if any(c.result["counts"] != counts for c in good[1:]):
        problems.append("traced children with the same seed produced different counts")
    for name, value in counts.items():
        samples[name] = [value]
    for name in {n for c in good for n in c.result["self_s"]}:
        samples[f"{name}.self_s"] = [c.result["self_s"].get(name, 0.0) for c in good]
    return samples


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.perf_counter()

    def spawn(*args) -> Child:
        return Child([str(a) for a in args], DEADLINE_S - (time.perf_counter() - began))

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "loadavg_start": os.getloadavg()}
    import reference

    table = reference.bounds_table()

    spawn("--setup-only")
    setups, plain, traced = [], [], []
    start, step = time.perf_counter(), 0.0
    while not plain or time.perf_counter() - start + step <= seconds:
        lap = time.perf_counter()
        setups.append(spawn("--setup-only"))
        plain.append(spawn(workload, seed, 0))
        if trace:
            traced.append(spawn(workload, seed, 1))
        step = time.perf_counter() - lap
    setups += [spawn("--setup-only") for _ in range(SETUP_PROBES - len(setups))]
    other = spawn(workload, seed + 1, 0) if trace and workload in SEEDED else None

    attempted = failed = 0
    errors = []
    for child in plain + traced:
        a, f, err = check_output(workload, child, table)
        attempted, failed = attempted + a, failed + f
        if err is not None:
            errors.append(err)
    problems = [] if all(c.speed for c in setups) else ["an import-only child failed"]
    hashes = {c.sha256 for c in plain + traced}
    if len(hashes) != 1:
        problems.append("children with the same seed produced different output")
    if other is not None and (other.sha256 is None or other.sha256 in hashes):
        problems.append(f"seed {seed + 1} did not change the output")
    if workload in SUITE_COUNT:
        errors.append(envelope_error(table))

    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as handle:
        known = json.load(handle).get(workload, {})
    record["sha256"] = plain[0].sha256
    if workload not in SEEDED or seed == known.get("seed"):
        record["matches_fingerprint"] = plain[0].sha256 == known.get("sha256")

    if trace:
        samples = layer_samples(plain, traced, problems)
        wanted = spec["per_layer"]
    else:
        timed = [c for c in setups + plain if c.speed]
        samples = {
            "wall_s": [(c.wall_s - c.cal_s) / c.speed for c in plain if c.speed],
            "setup_s": [c.setup_s / c.speed for c in timed],
            "peak_rss_mb": [c.rss_mb for c in plain],
            "pass_frac": [(attempted - failed) / attempted],
        }
        if errors:
            samples["max_abs_err"] = [max(errors)]
        wanted = spec["end_to_end"]
    detail = {m["name"]: dict(stats(samples.get(m["name"]) or [0]), unit=m["unit"], better=m["better"])
              for m in wanted}
    record.update(loadavg_end=os.getloadavg(), problems=problems, metrics=detail,
                  raw_wall_s=[c.wall_s for c in plain], raw_setup_s=[c.setup_s for c in setups + plain],
                  speed=[c.speed for c in setups + plain],
                  kernel_s=[c.result.get("kernel_s") for c in setups + plain],
                  children=len(setups) + len(plain) + len(traced) + (other is not None))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": d["value"], "unit": d["unit"]} for name, d in detail.items()},
        "record": record,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "gft", "__init__.py")):
        print(f"perfbench: no gft sources under {SRC}", file=sys.stderr)
        return 2

    result = run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    record.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for metric, d in record["metrics"].items():
        print(f"{args.workload} {metric} = {d['value']:.6g} {d['unit']} ({d['better']} is better)"
              f"  q1={d['q1']:.6g} q3={d['q3']:.6g} n={d['samples']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
