#!/usr/bin/env python3
"""Benchmark of codequiv's public API: classify, decide_equivalence and
code_aut_group on seeded workloads, with every answer checked.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload classify-dup --seed 1 --seconds 10 --trace 0

--trace 0 measures untraced and prints the end-to-end metrics; --trace 1
runs the same units untraced and then traced (jobs=1 only), writes the spans
to perfbench/out/ and prints the per-layer metrics.  Report lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Any wrong answer exits with status 1 and
prints no result.  METRICS.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import corpus
import gen
import layers
import workloads as wl
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RECORDED = os.path.join(HERE, "recorded.json")

SETUP_SAMPLES = 5
# Set-up times are scaled to this reference-loop time (about the loop's time
# at the faster of the machine's two speeds); see workloads.reference_ms.
REFERENCE_NOMINAL_MS = 0.5
# Incidence tables are filled in set-up only up to this many points; larger
# geometries (PG(9,3) has 29,524 points) never reach the incidence route.
INCIDENCE_FILL_MAX = 4095

# name, unit, better, bound: must match BENCHMARK.json (the smoke test checks).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("latency_geomean_ref", "ref-loops", "lower", 0.25),
)


def import_library():
    """Import codequiv from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "codequiv", "__init__.py")):
        sys.exit(f"perfbench: no library source at {SRC}/codequiv; "
                 "run from the root of a codequiv checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import codequiv
    if os.path.dirname(os.path.dirname(os.path.abspath(codequiv.__file__))) != SRC:
        sys.exit(f"perfbench: imported codequiv from {codequiv.__file__}, not {SRC}")
    return codequiv


def shapes(workload: str) -> list[tuple[int, int]]:
    """(q, k) of every code the workload feeds the library."""
    if workload in wl.CLASSIFY_SHAPES:
        return sorted({(q, k) for q, k, _ in wl.CLASSIFY_SHAPES[workload]})
    if workload == "equiv-pairs":
        return sorted((q, k) for q, (k, _) in wl.EQUIV_SHAPES.items())
    return sorted({(f.q, len(rows)) for _, f, rows, _ in corpus.build()})


WARMUP_CODE = "2 4 7\n1 1 0 1 0 0 0\n0 1 1 0 1 0 0\n0 0 1 1 0 1 0\n0 0 0 1 1 0 1\n"


def setup(workload: str, shape_list) -> tuple[object, float, float]:
    """Import, cold field/point-table/incidence fills for the workload's
    shapes, and one call of each public operation on a [7,4]_2 code, which
    finishes any lazy imports.  Every CLI invocation pays all of this.

    Returns the library, the set-up's wall seconds, and those seconds scaled
    by REFERENCE_NOMINAL_MS over the reference loop's time around it.
    """
    before = statistics.median(wl.reference_ms() for _ in range(3))
    t0 = time.perf_counter()
    lib = import_library()
    for q, k in shape_list:
        lib.field(q)
        if len(lib.point_table(k, q)) <= INCIDENCE_FILL_MAX:
            lib.incidence(k, q)
    (code,) = lib.parse_codes(WARMUP_CODE)
    lib.code_aut_group(code)
    lib.decide_equivalence(code, code)
    for algo in ("ceimpg", "cesimpg"):
        lib.classify([code, code], algo=algo)
    seconds = time.perf_counter() - t0
    after = statistics.median(wl.reference_ms() for _ in range(3))
    return lib, seconds, seconds * REFERENCE_NOMINAL_MS / ((before + after) / 2)


def probe_setup(workload: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter, as a CLI invocation would see it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


class SetupProbes:
    """Set-up samples in fresh interpreters, taken between rounds (or corpus
    codes) across the measured time, so they see the machine as the units
    do rather than in one burst."""

    def __init__(self, workload: str, count: int, seconds: float):
        self.workload, self.count, self.seconds = workload, count, seconds
        self.start = time.perf_counter()
        self.samples: list[tuple[float, float]] = []

    def between_units(self) -> float:
        """Take one sample if one is due; returns the wall time it took."""
        due = self.start + self.seconds * (len(self.samples) + 0.5) / self.count
        if len(self.samples) >= self.count or time.perf_counter() < due:
            return 0.0
        t0 = time.perf_counter()
        self.samples.append(probe_setup(self.workload))
        spent = time.perf_counter() - t0
        self.start += spent
        return spent

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < self.count:
            self.samples.append(probe_setup(self.workload))
        return self.samples


# ---------------------------------------------------------------------------
# units of work


class Plan:
    """The units one run measures: rounds of inputs made from the seed."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.stats: dict = {}
        self.sha = hashlib.sha256()
        self.round_digests: list[str] = []

    def inputs(self, rnd: int):
        w = self.workload
        if w in wl.CLASSIFY_SHAPES:
            data = wl.classify_inputs(w, self.seed, rnd, self.tiny)
            texts = [t for t, _ in data]
        elif w == "equiv-pairs":
            data = wl.equiv_inputs(self.seed, rnd, self.tiny)
            texts = [t for t, _ in data]
        else:
            data = wl.hard_inputs(self.seed, self.tiny)
            texts = [gen.file_text([t, c]) for _, t, c, _ in data]
        digest = gen.digest("".join(texts))
        self.round_digests.append(digest)
        self.sha.update(digest.encode())
        return data

    def run_unit(self, lib, run, data, variants, between) -> None:
        w = self.workload
        if w in wl.CLASSIFY_SHAPES:
            parts = wl.classify_round(lib, run, data, variants, self.stats)
            self.stats.setdefault("partitions", []).append(parts)
        elif w == "equiv-pairs":
            wl.equiv_round(lib, run, data, self.stats)
        else:
            for item in data:
                wl.hard_item(lib, run, item, self.stats)
                between()


def measure(lib, plan: Plan, run, seconds: float, variants, rounds=None,
            between=lambda: 0.0) -> list:
    """Run fresh rounds until `seconds` of wall time have passed (hard-corpus:
    its one corpus pass), or replay `rounds`; returns the rounds run.
    `between` runs between rounds and returns wall time not to count."""
    if rounds is not None:
        for data in rounds:
            gc.collect()
            plan.run_unit(lib, run, data, variants, between)
        return rounds
    used = []
    deadline = time.perf_counter() + seconds
    while True:
        data = plan.inputs(len(used))
        gc.collect()
        plan.run_unit(lib, run, data, variants, between)
        used.append(data)
        deadline += between()
        if plan.workload == "hard-corpus" or time.perf_counter() >= deadline:
            return used


def check_recorded(plan: Plan, run, record: bool) -> None:
    """Partitions must equal the ones recorded for the same round input."""
    if "partitions" not in plan.stats:
        return
    try:
        with open(RECORDED) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    for digest, parts in zip(plan.round_digests, plan.stats["partitions"]):
        got = gen.digest(json.dumps(parts))
        want = recorded.get(digest)
        run.expect(want is None or want == got,
                   f"round input {digest[:12]}: partition differs from the recorded one")
        recorded.setdefault(digest, got)
    if record:
        with open(RECORDED, "w") as fh:
            json.dump(recorded, fh, indent=0, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# reports


def summary(samples) -> str:
    """Median, spread (interquartile range over median) and count."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return f"median {med:.6g}, n {len(samples)}"
    q = statistics.quantiles(samples, n=4)
    return f"median {med:.6g}, spread {(q[2] - q[0]) / med:.3f}, n {len(samples)}"


def issue_metrics(plan: Plan, run) -> list[tuple[str, float, str, str]]:
    """The per-workload figures named in METRICS.md, for the report:
    (name, value, unit, how it was summarized)."""
    st = plan.stats
    out = []
    if plan.workload in wl.CLASSIFY_SHAPES:
        for algo, jobs in wl.VARIANTS:
            samples = st.get(f"{algo}/jobs{jobs}")
            if not samples:
                continue
            name = f"{algo}_codes_per_s" if jobs == 1 else f"{algo}_jobs2_codes_per_s"
            cpu = [c for c, _ in samples]
            wall = [w for _, w in samples]
            out.append((name, statistics.median(cpu), "codes/s", "CPU, per round: " + summary(cpu)))
            out.append((name + "_wall", statistics.median(wall), "codes/s",
                        "wall, per round: " + summary(wall)))
    elif plan.workload == "equiv-pairs":
        how = "per call: " + summary(run.unit_ms)
        out.append(("equiv_ms_p50", wl.quantile(run.unit_ms, 50), "ms", how))
        out.append(("equiv_ms_p90", wl.quantile(run.unit_ms, 90), "ms", how))
    else:
        aut_ms = [1000 * t for t in st["aut_s"]]
        eq_ms = [1000 * t for t in st["equiv_s"]]
        out.append(("autgroup_total_s", sum(st["aut_s"]), "s", "per code: " + summary(aut_ms)))
        out.append(("autgroup_geomean_ms", wl.geomean(aut_ms), "ms", f"n {len(aut_ms)}"))
        out.append(("hard_equiv_geomean_ms", wl.geomean(eq_ms), "ms",
                    "per code: " + summary(eq_ms)))
        out.append(("autgroup_complete_rate", st.get("complete", 0) / run.items, "ratio",
                    f"{st.get('complete', 0)} of {run.items} codes"))
    if "equivalent" in st:
        out.append(("witness_rate", st.get("witnessed", 0) / st["equivalent"], "ratio",
                    f"{st.get('witnessed', 0)} of {st['equivalent']} equivalent verdicts"))
    out.append(("error_rate", run.failed / run.attempted, "ratio",
                f"{run.failed} typed errors in {run.attempted} attempts"))
    return out


def end_to_end(run, setup_samples) -> dict:
    """`setup_samples`: (wall seconds, scaled seconds) per set-up."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [s for _, s in setup_samples]
    raw = [w for w, _ in setup_samples]
    values = {
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": peak_kb / 1024.0,
        "latency_geomean_ref": wl.geomean(run.unit_ref),
    }
    notes = [f"setup_s samples (scaled): {summary(scaled)}; wall: {summary(raw)}",
             f"reference loop ms: {summary(run.reference_ms)}",
             f"latency_ms_geomean = {wl.geomean(run.unit_ms):.6g} ms (CPU, not "
             f"divided by the reference loop)",
             f"latency_ms per sample: {summary(run.unit_ms)}, "
             f"p90 {wl.quantile(run.unit_ms, 90):.6g}; {run.items / run.unit_cpu_s:.6g} "
             f"items (codes, calls or corpus codes) per CPU-second"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}, notes


def print_report(args, plan: Plan, run, lines, notes) -> None:
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# inputs: {len(plan.round_digests)} round(s), sha256 of round 0 "
          f"{plan.round_digests[0]}, of all rounds {plan.sha.hexdigest()}")
    print(f"# items {run.items}, attempted {run.attempted}, typed errors "
          f"{run.failed}, cpu {run.unit_cpu_s:.3f} s, wall {run.wall_s:.3f} s")
    for note in notes:
        print(f"# {note}")
    for name, value, unit, how in lines:
        print(f"# {name} = {value:.6g} {unit} ({how})")
    if "digests" in plan.stats:
        combined = gen.digest("".join(plan.stats["digests"]))
        print(f"# classify digests (recorded, not gated): sha256 over "
              f"{len(plan.stats['digests'])} batch digests {combined}")
    for name, outcome in plan.stats.get("outcomes", {}).items():
        print(f"# corpus {name}: {json.dumps(outcome)}")


def write_out(name: str, payload) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(payload, fh, indent=1)


def finish(run, metrics: dict) -> None:
    if run.wrong:
        for what in run.wrong[:20]:
            print(f"perfbench: WRONG ANSWER: {what}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# traced run


def traced_run(args, plan: Plan, shape_list):
    """Set-up traced; the units untraced (jobs=1 variants); the same units
    traced.  Returns the library, the untraced run and per-layer metrics."""
    tracer = Tracer()
    lib = import_library()
    tracer.item = "setup"
    layers.install(tracer, lib)
    setup(args.workload, shape_list)
    tracer.restore()

    variants = [v for v in wl.VARIANTS if v[1] == 1]
    untraced = wl.Run()
    rounds = measure(lib, plan, untraced, args.seconds / 2, variants)
    traced = wl.Run(tracer)
    layers.install(tracer, lib)
    measure(lib, Plan(args.workload, args.seed, args.tiny), traced, 0,
            variants, rounds=rounds)
    tracer.restore()
    untraced.wrong += traced.wrong

    # In reference-loop times, as latency_geomean_ref is.
    extra = {"trace.overhead_ratio": sum(traced.unit_ref) / sum(untraced.unit_ref)}
    if args.workload in wl.CLASSIFY_SHAPES:
        extra.update(layers.jobs2_cpu(lib, rounds))
    extra.update(layers.field_microbench(lib))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    return lib, untraced, layers.per_layer(tracer, extra)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke test")
    p.add_argument("--record", action="store_true",
                   help="add this run's classify partitions to recorded.json")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    shape_list = shapes(args.workload)

    if args.setup_probe:
        print(json.dumps(setup(args.workload, shape_list)[1:]))
        return

    plan = Plan(args.workload, args.seed, args.tiny)
    notes = []
    if args.trace:
        lib, run, metrics = traced_run(args, plan, shape_list)
    else:
        lib, *first_setup = setup(args.workload, shape_list)
        run = wl.Run()
        probes = SetupProbes(args.workload, SETUP_SAMPLES - 1, args.seconds)
        measure(lib, plan, run, args.seconds, wl.VARIANTS,
                between=probes.between_units)
        metrics, notes = end_to_end(run, [tuple(first_setup)] + probes.finish())
    if args.workload == "equiv-pairs":
        wl.equiv_crosscheck(lib, run, plan.stats)
    check_recorded(plan, run, args.record)
    lines = issue_metrics(plan, run)
    print_report(args, plan, run, lines, notes)
    write_out(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              {"workload": args.workload, "seed": args.seed,
               "input_sha256": plan.sha.hexdigest(),
               "round_sha256": plan.round_digests,
               "report": {n: v for n, v, _, _ in lines}, "metrics": metrics,
               "classify_digests": plan.stats.get("digests", []),
               "unit_ms": run.unit_ms, "wrong": run.wrong})
    finish(run, metrics)


if __name__ == "__main__":
    main()
