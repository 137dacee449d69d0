"""The four workloads: seeded inputs, the timed loop, and the answer checks.

Each workload times its units in CPU seconds of this process plus its
reaped children (wall-clock is reported alongside) and checks every answer
outside the timed region.  Library functions are looked up on the package
at call time, so a Tracer's patches apply.

See METRICS.md for why each workload exists and what each metric should
move.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time

import corpus
import gen

VARIANTS = (("ceimpg", 1), ("cesimpg", 1), ("ceimpg", 2), ("cesimpg", 2))

# (q, k, n) per batch; classify needs one field per call.
CLASSIFY_SHAPES = {
    "classify-dup": ((3, 3, 10), (2, 4, 15), (4, 3, 12)),
    "classify-wide": ((7, 3, 20), (9, 3, 15), (2, 6, 20), (8, 3, 12)),
}
CLASSIFY_BATCH = {"classify-dup": 60, "classify-wide": 30}
# Share of a classify-dup batch that sits in constructed classes of 2-4.
DUP_SHARE = 0.6

# q -> (k, n) for the equivalence stream.
EQUIV_SHAPES = {2: (4, 15), 3: (3, 10), 4: (3, 12), 5: (3, 10),
                7: (3, 10), 8: (3, 10), 9: (3, 10)}
EQUIV_PAIRS_PER_Q = 4  # per round: half constructed copies, half independent

WORKLOADS = ("classify-dup", "classify-wide", "equiv-pairs", "hard-corpus")


def children_cpu() -> float:
    """CPU seconds of this process's reaped children (pool workers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cpu_now() -> float:
    return time.process_time() + children_cpu()


REFERENCE_LOOP = 5_000  # about 0.5 ms of pure-Python arithmetic


def reference_ms() -> float:
    """CPU ms of a fixed pure-Python loop that never touches the library.

    On a shared 2-vCPU virtual machine the same pure-Python loop runs at one
    of two speeds, about 1.46x apart, switching every second or so and
    drifting over minutes.  Timing this loop right before each timed call
    and dividing the call's time by it cancels most of that.
    """
    c0 = time.process_time()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc = (acc + i * i) % 1_000_003
    return 1000.0 * (time.process_time() - c0)


def quantile(values, pct: int) -> float:
    """Percentile `pct` by statistics.quantiles (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rng_for(seed: int, workload: str, unit: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{unit}")


class Run:
    """What one run accumulates: attempts, typed per-item errors, timed
    samples, and wrong answers (any of which fails the run)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reference_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.unit_ms: list[float] = []     # latency samples, CPU ms
        self.unit_ref: list[float] = []    # the same, in reference-loop times
        self.unit_cpu_s = 0.0
        self.items = 0                     # codes, calls or corpus codes
        self.wall_s = 0.0

    def begin_unit(self, label: str) -> float:
        """Start a timed call: name it for the spans of a traced run and
        return the reference loop's time (ms) measured just before it."""
        if self.tracer is not None:
            self.tracer.item = label
        self.reference_ms.append(reference_ms())
        return self.reference_ms[-1]

    def add_sample(self, cpu_s: float, in_ref: float, items: int) -> None:
        """One latency sample: CPU seconds and reference-loop times."""
        self.unit_ms.append(1000.0 * cpu_s / items)
        self.unit_ref.append(in_ref / items)
        self.unit_cpu_s += cpu_s
        self.items += items

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)


# ---------------------------------------------------------------------------
# classify-dup / classify-wide


def classify_inputs(workload: str, seed: int, rnd: int, tiny: bool):
    """One round: per shape, code-file text and the constructed class label
    of every code (codes sharing a label are equivalent by construction)."""
    rng = rng_for(seed, workload, rnd)
    batch = 8 if tiny else CLASSIFY_BATCH[workload]
    out = []
    for q, k, n in CLASSIFY_SHAPES[workload]:
        f = gen.gf(q)
        sizes = []
        if workload == "classify-dup":
            grouped = round(DUP_SHARE * batch)
            cycle = (2, 3, 4)
            while sum(sizes) < grouped:
                sizes.append(min(cycle[len(sizes) % 3], grouped - sum(sizes)))
        sizes += [1] * (batch - sum(sizes))
        blocks, labels = [], []
        for label, size in enumerate(sizes):
            base = gen.random_code(f, k, n, rng)
            blocks.append(gen.code_text(f, base))
            labels.append(label)
            for _ in range(size - 1):
                blocks.append(gen.code_text(f, gen.transformed_copy(f, base, rng)))
                labels.append(label)
        order = list(range(len(blocks)))
        rng.shuffle(order)
        out.append((gen.file_text([blocks[i] for i in order]),
                    [labels[i] for i in order]))
    return out


def partition_of(result) -> tuple:
    return tuple(sorted(tuple(sorted(c.members)) for c in result.classes))


def classify_round(lib, run: Run, inputs, variants, stats: dict) -> list:
    """Classify every batch of the round with each variant.

    Adds one latency sample per batch (CPU ms per code, summed over the
    variants) and one (CPU, wall) codes/s sample per variant.  Returns the
    partitions, which must agree across variants and keep constructed
    copies together.
    """
    per_batch = [0.0] * len(inputs)
    per_batch_ref = [0.0] * len(inputs)
    first: list = []
    for algo, jobs in variants:
        key = f"{algo}/jobs{jobs}"
        codes_done, cpu_s, wall_s = 0, 0.0, 0.0
        for b, (text, labels) in enumerate(inputs):
            ref = run.begin_unit(f"{key}/batch{b}")
            w0, c0 = time.perf_counter(), cpu_now()
            codes = lib.parse_codes(text)
            res = lib.classify(codes, algo=algo, jobs=jobs)
            dt = cpu_now() - c0
            wall_s += time.perf_counter() - w0
            per_batch[b] += dt
            per_batch_ref[b] += 1000.0 * dt / ref
            codes_done += len(labels)
            cpu_s += dt
            run.attempted += len(labels)
            run.failed += len(res.errors)
            stats.setdefault("digests", []).append(res.digest)
            part = (partition_of(res), tuple(i for i, _ in res.errors))
            if len(first) <= b:
                first.append(part)
            run.expect(part == first[b],
                       f"{key} batch {b}: partition differs from {variants[0]}")
            placed = {i: c for c, members in enumerate(part[0]) for i in members}
            by_label: dict[int, set] = {}
            for i, lab in enumerate(labels):
                if i in placed:
                    by_label.setdefault(lab, set()).add(placed[i])
            run.expect(all(len(s) == 1 for s in by_label.values()),
                       f"{key} batch {b}: constructed copies split across classes")
        run.wall_s += wall_s
        stats.setdefault(key, []).append((codes_done / cpu_s, codes_done / wall_s))
    for b, (_, labels) in enumerate(inputs):
        run.add_sample(per_batch[b], per_batch_ref[b], len(labels))
    return first


# ---------------------------------------------------------------------------
# equiv-pairs


def equiv_inputs(seed: int, rnd: int, tiny: bool):
    """One round: (text holding two codes, constructed-equivalent flag)."""
    rng = rng_for(seed, "equiv-pairs", rnd)
    pairs = []
    per_q = 2 if tiny else EQUIV_PAIRS_PER_Q
    for q, (k, n) in EQUIV_SHAPES.items():
        f = gen.gf(q)
        for j in range(per_q):
            a = gen.random_code(f, k, n, rng)
            copy = j % 2 == 0
            b = gen.transformed_copy(f, a, rng) if copy else gen.random_code(f, k, n, rng)
            pairs.append((gen.file_text([gen.code_text(f, a), gen.code_text(f, b)]), copy))
    rng.shuffle(pairs)
    return pairs


def equiv_call(lib, text: str):
    """What `codequiv equiv` does: parse, decide (auto route), re-verify
    any witness.  Returns (codes, verdict, witness_ok, error)."""
    c1, c2 = lib.parse_codes(text)
    try:
        verdict = lib.decide_equivalence(c1, c2, algo="auto")
    except (lib.BudgetExceededError, lib.ResourceLimitError) as e:
        return (c1, c2), None, None, f"{type(e).__name__}: {e}"
    ok = (lib.verify_witness(c1, c2, verdict.witness)
          if verdict.witness is not None else None)
    return (c1, c2), verdict, ok, None


def equiv_round(lib, run: Run, inputs, stats: dict) -> None:
    for i, (text, constructed) in enumerate(inputs):
        ref = run.begin_unit(f"pair{i}")
        w0, c0 = time.perf_counter(), cpu_now()
        (c1, c2), verdict, witness_ok, err = equiv_call(lib, text)
        dt = cpu_now() - c0
        run.wall_s += time.perf_counter() - w0
        run.attempted += 1
        run.add_sample(dt, 1000.0 * dt / ref, 1)
        if err is not None:
            run.failed += 1
        elif verdict.equivalent:
            stats["equivalent"] = stats.get("equivalent", 0) + 1
            stats["witnessed"] = stats.get("witnessed", 0) + bool(witness_ok)
            run.expect(witness_ok is not False, "equiv: witness failed re-verification")
        else:
            run.expect(not constructed, "equiv: constructed copy declared inequivalent")
            stats.setdefault("to_crosscheck", []).append((c1, c2))


def equiv_crosscheck(lib, run: Run, stats: dict) -> None:
    """Every inequivalent verdict must be confirmed by the other route."""
    for c1, c2 in stats.pop("to_crosscheck", []):
        run.expect(not lib.ceimpg_equiv(c1, c2).equivalent,
                   "equiv: ceimpg_equiv finds an equivalence cesimpg denied")


# ---------------------------------------------------------------------------
# hard-corpus


TINY_CORPUS = ("hamming7_2", "simplex13_3", "rm1_4", "simplex6_5", "simplex21_4")


def hard_inputs(seed: int, tiny: bool):
    """(name, code text, transformed-copy text, published order) per code."""
    rng = rng_for(seed, "hard-corpus", 0)
    items = []
    for name, f, rows, order in corpus.build():
        copy = gen.transformed_copy(f, rows, rng)  # drawn first: tiny keeps the same copies
        if tiny and name not in TINY_CORPUS:
            continue
        items.append((name, gen.code_text(f, rows), gen.code_text(f, copy), order))
    return items


def hard_item(lib, run: Run, item, stats: dict) -> None:
    """code_aut_group on the code, then `equiv` against its transformed copy;
    one latency sample per code (both calls)."""
    name, text, copy_text, published = item
    ref_aut = run.begin_unit(name)
    w0, c0 = time.perf_counter(), cpu_now()
    (code,) = lib.parse_codes(text)
    try:
        report, aut_err = lib.code_aut_group(code), None
    except (lib.BudgetExceededError, lib.ResourceLimitError) as e:
        report, aut_err = None, f"{type(e).__name__}: {e}"
    t_aut = cpu_now() - c0
    run.wall_s += time.perf_counter() - w0
    ref_eq = run.begin_unit(name + "/equiv")
    w0, c0 = time.perf_counter(), cpu_now()
    _, verdict, witness_ok, err = equiv_call(lib, gen.file_text([text, copy_text]))
    t_eq = cpu_now() - c0
    run.wall_s += time.perf_counter() - w0
    run.attempted += 2
    run.failed += (aut_err is not None) + (err is not None)
    run.add_sample(t_aut + t_eq, 1000.0 * (t_aut / ref_aut + t_eq / ref_eq), 1)
    stats.setdefault("aut_s", []).append(t_aut)
    stats.setdefault("equiv_s", []).append(t_eq)
    complete = report is not None and report.complete
    if complete:
        run.expect(report.order == published,
                   f"{name}: aut order {report.order} != published {published}")
        stats["complete"] = stats.get("complete", 0) + 1
    stats.setdefault("outcomes", {})[name] = {
        "aut_order": report.order if report else None, "aut_complete": complete,
        "aut_error": aut_err, "equiv": verdict.method if verdict else None,
        "witness": bool(witness_ok), "equiv_error": err}
    if err is None:
        run.expect(verdict.equivalent, f"{name}: transformed copy declared inequivalent")
        run.expect(witness_ok is not False, f"{name}: witness failed re-verification")
        stats["equivalent"] = stats.get("equivalent", 0) + 1
        stats["witnessed"] = stats.get("witnessed", 0) + bool(witness_ok)
