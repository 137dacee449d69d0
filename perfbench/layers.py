"""The traced layers: which public functions are wrapped, what each span
counts, and the per-layer metrics computed from the spans.

Layers are the modules of src/codequiv (cli is formatting only and is not
traced).  Self time is charged to the nearest traced caller, so time in
untraced helpers (field arithmetic, coset streaming) shows up as the self
time of the function that called them.
"""

from __future__ import annotations

import random
import sys
import time

import workloads as wl

MODULES = ("codefile", "projgeom", "gfmatrix", "lincode", "bmcanon", "equiv")
FIELD_OPS = ("add", "mul", "neg", "frobenius")
FIELD_QS = (3, 4, 8, 9)


def _rref_cells(tracer, args, result):
    tracer.add("gfmatrix.rref.cells", args[0].nrows * args[0].ncols)


def _canon_work(tracer, args, result):
    tracer.add("bmcanon.canonical_form.nodes", result.nodes)
    tracer.add("bmcanon.canonical_form.generators", len(result.generators))


def _lift_hit(tracer, args, result):
    tracer.add("equiv.monomial_from_sigma.hits", result is not None)


def _shortened_rows(tracer, args, result):
    tracer.add("equiv.build_shortened.rows", result.n_rows)


def _ceimpg_cells(tracer, args, result):
    tracer.add("equiv.build_ceimpg_matrix.cells", result.n_rows * result.n_cols)


def _fallback(tracer, args, result):
    tracer.add("equiv.fallbacks", result.method == "ceimpg-fallback")


# module, function, counter hook, count cold builds (cached functions)
TRACED = (
    ("codefile", "parse_codes", None, False),
    ("projgeom", "point_table", None, True),
    ("projgeom", "incidence", None, True),
    ("gfmatrix", "rref", _rref_cells, False),
    ("gfmatrix", "nullspace_basis", None, False),
    ("gfmatrix", "all_nonzero_in_span", None, False),
    ("lincode", "systematic_form", None, False),
    ("lincode", "characteristic_vector", None, False),
    ("bmcanon", "canonical_form", _canon_work, False),
    ("bmcanon", "serialize", None, False),
    ("equiv", "build_shortened", _shortened_rows, False),
    ("equiv", "build_ceimpg_matrix", _ceimpg_cells, False),
    ("equiv", "monomial_from_sigma", _lift_hit, False),
    ("equiv", "verify_witness", None, False),
    ("equiv", "cesimpg_equiv", _fallback, False),
    ("equiv", "ceimpg_equiv", None, False),
    ("equiv", "decide_equivalence", None, False),
    ("equiv", "code_aut_group", None, False),
    ("equiv", "classify", None, False),
)

# name, unit, better: must match BENCHMARK.json (the smoke test checks).
PER_LAYER = (
    ("bmcanon.canonical_form.calls", "count", "lower"),
    ("bmcanon.canonical_form.s", "s", "lower"),
    ("bmcanon.canonical_form.self_s", "s", "lower"),
    ("bmcanon.canonical_form.nodes", "count", "lower"),
    ("bmcanon.canonical_form.generators", "count", "lower"),
    ("bmcanon.group_order.calls", "count", "lower"),
    ("bmcanon.group_order.s", "s", "lower"),
    ("bmcanon.serialize.s", "s", "lower"),
    ("gfmatrix.rref.calls", "count", "lower"),
    ("gfmatrix.rref.s", "s", "lower"),
    ("gfmatrix.rref.self_s", "s", "lower"),
    ("gfmatrix.rref.cells", "count", "lower"),
    ("gfmatrix.nullspace_basis.calls", "count", "lower"),
    ("gfmatrix.nullspace_basis.s", "s", "lower"),
    ("gfmatrix.all_nonzero_in_span.calls", "count", "lower"),
    ("gfmatrix.all_nonzero_in_span.s", "s", "lower"),
    ("equiv.monomial_from_sigma.calls", "count", "lower"),
    ("equiv.monomial_from_sigma.hits", "count", "higher"),
    ("equiv.monomial_from_sigma.s", "s", "lower"),
    ("equiv.lift_hit_ratio", "ratio", "higher"),
    ("equiv.verify_witness.calls", "count", "lower"),
    ("equiv.verify_witness.s", "s", "lower"),
    ("equiv.fallbacks", "count", "lower"),
    ("equiv.build_shortened.s", "s", "lower"),
    ("equiv.build_shortened.rows", "count", "lower"),
    ("equiv.build_ceimpg_matrix.s", "s", "lower"),
    ("equiv.build_ceimpg_matrix.cells", "count", "lower"),
    ("equiv.code_aut_group.calls", "count", "lower"),
    ("equiv.code_aut_group.s", "s", "lower"),
    ("equiv.decide_equivalence.calls", "count", "lower"),
    ("equiv.decide_equivalence.s", "s", "lower"),
    ("equiv.classify.calls", "count", "lower"),
    ("equiv.classify.s", "s", "lower"),
    ("equiv.classify.self_s", "s", "lower"),
    ("lincode.systematic_form.calls", "count", "lower"),
    ("lincode.systematic_form.s", "s", "lower"),
    ("lincode.characteristic_vector.s", "s", "lower"),
    ("projgeom.point_table.builds", "count", "lower"),
    ("projgeom.point_table.s", "s", "lower"),
    ("projgeom.incidence.builds", "count", "lower"),
    ("projgeom.incidence.s", "s", "lower"),
    ("codefile.parse_codes.s", "s", "lower"),
) + tuple(
    (f"gfield.{op}_ns.gf{q}", "ns", "lower") for op in FIELD_OPS for q in FIELD_QS
) + (
    ("classify.jobs2.parent_cpu_s", "s", "lower"),
    ("classify.jobs2.child_cpu_s", "s", "lower"),
) + tuple(
    (f"layer.{m}.self_s", "s", "lower") for m in MODULES
) + (
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _shape_key(args, kwargs):
    """(k, q): the workloads only use each field's default modulus."""
    return args[:2]


def install(tracer, lib) -> None:
    """Wrap every traced function (and sympy's group order, once loaded)."""
    for module, func, hook, builds in TRACED:
        tracer.wrap_function(f"codequiv.{module}", func, f"{module}.{func}",
                             on_result=hook,
                             first_call_key=_shape_key if builds else None)
    perm_groups = sys.modules.get("sympy.combinatorics.perm_groups")
    if perm_groups is not None:
        tracer.wrap_method(perm_groups.PermutationGroup, "order",
                           "bmcanon.group_order")


def jobs2_cpu(lib, rounds) -> dict:
    """CPU of this process and of its pool workers for classify(jobs=2),
    untraced, over the rounds the traced run measured."""
    parent = children = 0.0
    for inputs in rounds:
        for algo in ("ceimpg", "cesimpg"):
            for text, _ in inputs:
                p0, k0 = time.process_time(), wl.children_cpu()
                lib.classify(lib.parse_codes(text), algo=algo, jobs=2)
                parent += time.process_time() - p0
                children += wl.children_cpu() - k0
    return {"classify.jobs2.parent_cpu_s": parent,
            "classify.jobs2.child_cpu_s": children}


def field_microbench(lib, calls: int = 4000, repeats: int = 5) -> dict:
    """ns per call of the public FieldSpec operations (best of `repeats`)."""
    out = {}
    for q in FIELD_QS:
        spec = lib.field(q)
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(calls)]
        ops = {
            "add": lambda f=spec.add: [f(a, b) for a, b in pairs],
            "mul": lambda f=spec.mul: [f(a, b) for a, b in pairs],
            "neg": lambda f=spec.neg: [f(a) for a, _ in pairs],
            "frobenius": lambda f=spec.frobenius: [f(a, 1) for a, _ in pairs],
        }
        for op, loop in ops.items():
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                loop()
                best = min(best, time.perf_counter() - t0)
            out[f"gfield.{op}_ns.gf{q}"] = 1e9 * best / calls
    return out


def per_layer(tracer, extra: dict) -> dict:
    totals = tracer.totals()
    values = dict(tracer.counts)
    for name, t in totals.items():
        values[name + ".s"] = t["s"]
        values[name + ".self_s"] = t["self_s"]
    for m in MODULES:
        values[f"layer.{m}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if name.startswith(m + "."))
    calls = values.get("equiv.monomial_from_sigma.calls", 0)
    values["equiv.lift_hit_ratio"] = (
        values.get("equiv.monomial_from_sigma.hits", 0) / calls if calls else 0.0)
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER}
