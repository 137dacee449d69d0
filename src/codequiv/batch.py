"""Batch classification of linear codes into equivalence classes.

Every code first gets its `equiv._Side` record and, read off it with no
search, its profile (`_Side.profile`: whether its side is the dual, n, the
side's dimension, the side's weight distribution and its points' sorted
multiplicities), which every monomial and semilinear map keeps.  A code
whose profile no other code in the batch shares is a class of its own, keyed
by its profile (`_profile_key`, tagged b"profile:"), with no canonical form.
The codes whose profiles collide are keyed on their own records, in this
process or in a forked `--jobs` worker (`_batch_keys`).  The ceimpg key is
the canonical form of the multiplicity-colored incidence of the code's side,
the cesimpg key that of the side's kept shortened matrix (`_Side.kept`).
Codes sharing a key share a bucket, and a bucket's members are told apart
by lifting each one onto a class representative's lift target
(`lift._find_lift`), whose sigma0 is read off the two keys' forms; a ceimpg
key is itself the proof where every incidence isomorphism is a collineation
(sides of dimension other than 2, and q <= 4).  A key is bytes: the
canonical form's `CanonResult.key()`, which frames its certificate with its
column colors and row count and renders no text, after a tag: "dual:" when
it was built from the dual, and "min:" for a cesimpg key over GF(2) built
from the minimum-weight rows alone.  Two keys are equal exactly when the
tagged `serialize()` texts of their forms are.  The batch holds one record
per code, made once: the profile pass and keying fill and drop its keying
caches, and a code a worker keyed gets the worker's cesimpg form set on it.
Only a representative's record builds a lift target.
"""

from __future__ import annotations

import hashlib
import numbers
import struct
import time
from collections import Counter
from dataclasses import dataclass

from .bmcanon import _sigma_from_canons, canonical_form
from .equiv import _Side
from .errors import BudgetExceededError, ResourceLimitError
from .lift import _find_lift, _incidence_points
from .lincode import GeneratorMatrix

# the typed failures of one code, which a batch collects per item
_ITEM_ERRORS = (BudgetExceededError, ResourceLimitError)
# CPU seconds of keying still to do from which forked `--jobs` workers pay
# off (`_batch_keys`): on 2 vCPUs, the wall time of a batch at jobs=2 drops
# below jobs=1 between 25 and 48 ms of serial keying (README)
FORK_PAYS_S = 0.05


@dataclass
class CodeClass:
    representative: int
    members: list[int]
    key_digest: str


@dataclass
class ClassifyResult:
    algo: str
    n_codes: int
    classes: list[CodeClass]
    errors: list[tuple[int, str]]
    elapsed: float
    digest: str


def _short_digest(key: bytes) -> str:
    return hashlib.sha256(key).hexdigest()[:12]


def _profile_key(profile) -> bytes:
    """The class key of a code whose `_Side.profile` no other code in its
    batch shares: b"profile:", then the profile's dual flag, n, k and, for
    its sorted weights and then its sorted multiplicities, the number of
    distinct values and each value with its count, as little-endian 8-byte
    integers.  So the key delimits itself, as a `CanonResult.key()` does,
    whose tags it never starts with, and holds O(n) integers, where the
    side has theta(k) weights."""
    dual, n, k, weights, mults = profile
    ints = [dual, n, k]
    for values in (weights, mults):
        counts = Counter(values)  # in order of first appearance: sorted
        ints += [len(counts), *(x for pair in counts.items() for x in pair)]
    return b"profile:" + struct.pack(f"<{len(ints)}q", *ints)


def _code_key(code: GeneratorMatrix, mode: str, rec: _Side | None = None):
    """(key, form, error, record) of one code, in this process and in a
    `--jobs` worker alike, keyed on `rec`, the code's `_Side` record, when
    the batch holds one, else on a new one; either way its keying caches
    are dropped after (`_Side.drop_keying`).  The key is a tag and the
    `CanonResult.key()` of `form`, the canonical form of the code's side (of
    its incidence for ceimpg): bytes, no text.  `classify` reads sigma0 off
    `form`.  A per-item failure sets only `error`.  A key built from the
    dual starts with b"dual:", so that a [13,10] code never shares a key
    with the [13,3] code whose matrix is the same.  A cesimpg key built from
    the minimum-weight rows alone starts with b"min:", since such a matrix
    can have the shape of a full one of another dimension."""
    rec = _Side(code) if rec is None else rec
    try:
        tag = b"" if rec.side is code else b"dual:"
        form = canonical_form(rec.incidence) if mode == "ceimpg" else rec.form
        if mode == "cesimpg" and rec.rows is not None:
            tag = b"min:" + tag
        return tag + form.key(), form, None, rec
    except _ITEM_ERRORS as e:
        return None, None, f"{type(e).__name__}: {e}", rec
    finally:
        rec.drop_keying()


def _key_share(conn, records, mode):
    """Body of a forked worker: `_code_key` of each of `records`, the
    records it inherits, sent back as (True, [(key, form, error, None),
    ...]) in one message, with no record, or (False, exception)."""
    try:
        reply = True, [_code_key(rec.code, mode, rec)[:3] + (None,)
                       for rec in records]
    except Exception as e:
        reply = False, e
    conn.send(reply)
    conn.close()


def _batch_keys(records, mode, jobs):
    """`_code_key` of every one of `records`, in order, keyed by at most
    `jobs` processes: this one and up to `jobs - 1` forked workers.  This
    process keys the codes in order, and before each one projects its own
    keying CPU so far over the codes left (the mean per code times their
    number).  Once that CPU has reached a sample of FORK_PAYS_S / 8 and the
    projection FORK_PAYS_S, the codes left go to `_forked_keys`; a batch
    projected to key in less never forks, and one of no records keys
    nothing.  At FORK_PAYS_S = 0 the workers start before the first code."""
    keys = []
    start = time.process_time()
    for done, rec in enumerate(records):
        left = len(records) - done
        spent = time.process_time() - start
        if (min(jobs, left) > 1 and spent >= FORK_PAYS_S / 8
                and spent * left >= FORK_PAYS_S * done):
            return keys + _forked_keys(records[done:], mode, min(jobs, left))
        keys.append(_code_key(rec.code, mode, rec))
    return keys


def _forked_keys(records, mode, jobs):
    """`_code_key` of each of `records`, in order, from this process and
    `jobs - 1` forked workers (2 <= jobs <= the number of records).  The
    records are cut into `jobs` contiguous shares, share i starting at
    len(records) * i // jobs: this process keys the first, and a worker
    each further one.  A worker is forked, so it reads its share, and the
    module state of the caller, from the memory it inherits; it pipes its
    (key, form, error, None) back in one message.  An exception in any
    share is raised here.  A worker that has answered is joined, and one
    that has not is terminated, before this returns on every path, so
    their CPU counts in RUSAGE_CHILDREN."""
    cuts = [len(records) * i // jobs for i in range(jobs + 1)]
    import multiprocessing  # here: importing it costs every start-up ~10 ms
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_key_share,
                               args=(send, records[lo:hi], mode))
            proc.start()
            workers.append((proc, recv))
            send.close()  # a worker that dies unanswered ends in EOFError
        keys = [_code_key(rec.code, mode, rec) for rec in records[:cuts[1]]]
        for proc, recv in workers:
            try:
                ok, payload = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a keying worker exited with status {proc.exitcode} "
                    f"before answering") from None
            proc.join()  # it has answered and exits by itself: never kill it
            if not ok:
                raise payload
            keys += payload
        return keys
    finally:
        for proc, recv in workers:
            recv.close()
            if proc.exitcode is None:
                proc.terminate()
            proc.join()


def classify(codes, algo: str = "ceimpg", jobs: int = 1) -> ClassifyResult:
    """Partition `codes` into equivalence classes.

    Every code first gets its `_Side` record and its profile
    (`_Side.profile`: whether its side is the dual, n, the side's
    dimension, the side's weight distribution and its points' sorted
    multiplicities), which every monomial and semilinear map keeps.  A code
    whose profile no other code in the batch shares is a class of its own:
    its key is the profile's (`_profile_key`, tagged b"profile:"), and it
    gets no canonical form.  Only the codes whose profiles collide are
    keyed, then lifted: algo="ceimpg" buckets them by the canonical
    incidence key, algo="cesimpg" by the shortened-matrix one, and bucket
    members are separated by the lifting procedure of the equivalence
    routes (`_find_lift`), but where a ceimpg key is a proof.  Both keys
    are built from each code's side (`_side`: its dual when 2k > n, the key
    then prefixed "dual:"; a cesimpg key over GF(2) built from the
    minimum-weight rows is prefixed "min:"); lifting stays on the codes
    themselves.  A key is its tag and its canonical form's
    `CanonResult.key()` bytes, no rendered text; the buckets, each class's
    `key_digest` and the batch `digest` hash those bytes, or a profile key
    for a class of a code whose profile is its own.  So a class's digest
    depends on the batch around it, and is the same at every `jobs`.  A
    bucket that already holds a class lifts the code it compares onto the
    lift target of each representative's record: each class builds one
    rref, on its representative, however many members join it, and past
    sigma0 the point group comes from the member's own shortened form.
    `jobs`, an integer >= 1, bounds the processes that key the colliding
    codes: this one keys them in order until its own keying time projects
    at least FORK_PAYS_S of CPU for the rest, and only then cuts the rest
    into even contiguous shares, keys the first and forks up to `jobs - 1`
    workers for the others, which key the records they inherit and send
    back keys and forms, all reaped before this returns (`_batch_keys`).  A
    batch with no colliding profiles forks nothing.  The workers are forked
    whatever the default start method, so they see this process's module
    state; jobs > 1 needs POSIX.  Classes are ordered by first appearance.
    Per-item errors, from profiling a code (point-table size), from keying
    one whose profile collides (node budget, incidence size) or from
    comparing it with a class representative (node budget, coset cap or
    incidence size), are collected in `errors` (by code index) without
    aborting the batch; a code whose profile is its own is never keyed, so
    it is classified where its key could not have been built.
    """
    start = time.perf_counter()
    codes = list(codes)
    if algo not in ("ceimpg", "cesimpg"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    jobs = int(jobs)
    if codes and any(c.spec != codes[0].spec for c in codes):
        raise ValueError("classification requires a single ambient field")
    sides = [_Side(code) for code in codes]
    profiles: list[bytes | None] = []
    errors = []
    for i, rec in enumerate(sides):
        try:
            profiles.append(_profile_key(rec.profile))
        except _ITEM_ERRORS as e:
            profiles.append(None)
            errors.append((i, f"{type(e).__name__}: {e}"))
        rec.drop_keying()
    shared = Counter(profiles)
    colliding = [i for i, p in enumerate(profiles)
                 if p is not None and shared[p] > 1]
    keyed = dict(zip(colliding, _batch_keys(
        [sides[i] for i in colliding], algo, jobs)))

    def lifts(i, rep):
        # bucket members share their canonical matrix, so pi0 is read off
        # the keys' forms.  A ceimpg one is a collineation, which lifts, on
        # sides of dimension other than 2 and over q <= 4 (Hirschfeld)
        s1, s2 = sides[i], sides[rep]
        if algo == "ceimpg" and (s1.side.k != 2 or s1.side.q <= 4):
            return True
        pi0 = _sigma_from_canons(keyed[i][1], keyed[rep][1])
        if algo == "ceimpg":
            pi0 = _incidence_points(pi0, s1, s2)
        return _find_lift(s1, s2, pi0) is not None

    buckets: dict[bytes, list[CodeClass]] = {}
    classes: list[CodeClass] = []
    keys: list[bytes] = []
    for i, profile in enumerate(profiles):
        if profile is None:
            continue
        if i not in keyed:
            # no other code shares its profile: a class of its own
            classes.append(CodeClass(i, [i], _short_digest(profile)))
            keys.append(profile)
            continue
        key, form, msg, _ = keyed[i]
        if msg:
            errors.append((i, msg))
            continue
        if algo == "cesimpg":
            sides[i].form = form  # the same form, or one a worker sent
        bucket = buckets.setdefault(key, [])
        try:
            joined = next((cls for cls in bucket
                           if lifts(i, cls.representative)), None)
        except _ITEM_ERRORS as e:
            # the pair's comparison failed: code i stays unplaced
            errors.append((i, f"{type(e).__name__}: {e}"))
            continue
        if joined is None:
            joined = CodeClass(i, [], _short_digest(key))
            bucket.append(joined)
            classes.append(joined)
            keys.append(key)
        joined.members.append(i)
    errors.sort()
    # a key's own counts delimit it (`CanonResult.key`, `_profile_key`), so
    # the sorted keys concatenated stand for the sorted list
    digest = hashlib.sha256(b"".join(sorted(keys))).hexdigest()
    elapsed = time.perf_counter() - start
    return ClassifyResult(algo, len(codes), classes, errors, elapsed, digest)
