"""Batch classification of linear codes into equivalence classes.

Every code first gets its `equiv._Side` record and, read off it with no
search, its profile (`_Side.profile`: whether its side is the dual, n, the
side's dimension, the side's weight distribution and its points' sorted
multiplicities), which every monomial and semilinear map keeps.  A code's
class key starts with its profile's bytes (`_profile_key`).  A code whose
profile no other code in the batch shares is a class of its own, keyed by
its profile alone, with no canonical form.  The codes whose profiles collide
are keyed on their own records, in this process or in a forked `--jobs`
worker (`_batch_keys`), and their key goes on with the `CanonResult.key()`
of a canonical form: for ceimpg that of the multiplicity-colored incidence
of the code's side, for cesimpg that of the side's kept shortened matrix
(`_Side.kept`).  Codes sharing a key share a bucket, and a bucket's members
are told apart by lifting each one onto a class representative's lift target
(`lift._find_lift`), whose sigma0 is read off the two keys' forms; a ceimpg
key is itself the proof where every incidence isomorphism is a collineation
(sides of dimension other than 2, and q <= 4).  A key is bytes and renders
no text; two keys are equal exactly when the profiles and the `serialize()`
texts of the forms are.  The profile holds the side's dual flag, n and k, and
a form its row count, so no code shares a key with its dual, nor a GF(2)
form of fewer than theta(k) minimum-weight rows with a full one.  The batch
holds one record per code, made once: the profile pass and keying fill and
drop its keying caches, and a code a worker keyed gets the worker's cesimpg
form set on it.  Only a representative's record builds a lift target.
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
    """The bytes every class key of a code starts with, and the whole key
    of one whose `_Side.profile` no other code in its batch shares: the
    profile's dual flag, n, k and, for its sorted weights and then its
    sorted multiplicities, the number of distinct values and each value
    with its count, as little-endian 8-byte integers.  So the key delimits
    itself, starts with byte 0 or 1 where a `CanonResult.key()` starts with
    b"c", and holds O(n) integers, where the side has theta(k) weights."""
    dual, n, k, weights, mults = profile
    ints = [dual, n, k]
    for values in (weights, mults):
        counts = Counter(values)  # in order of first appearance: sorted
        ints += [len(counts), *(x for pair in counts.items() for x in pair)]
    return struct.pack(f"<{len(ints)}q", *ints)


def _code_key(rec: _Side, mode: str):
    """(form, error) of one code's `_Side` record, in this process and in a
    `--jobs` worker alike: `form` is the canonical form of the code's side
    (of its incidence for ceimpg, of its kept shortened matrix for
    cesimpg), whose `CanonResult.key()` ends the code's class key and off
    which `classify` reads sigma0.  A per-item failure sets only `error`.
    The record's keying caches are dropped after (`_Side.drop_keying`)."""
    try:
        form = canonical_form(rec.incidence) if mode == "ceimpg" else rec.form
        return form, None
    except _ITEM_ERRORS as e:
        return None, f"{type(e).__name__}: {e}"
    finally:
        rec.drop_keying()


def _key_share(conn, records, mode):
    """Body of a forked worker: `_code_key` of each of `records`, the
    records it inherits, sent back as (True, [(form, error), ...]) in one
    message, or (False, exception)."""
    try:
        reply = True, [_code_key(rec, mode) for rec in records]
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
        keys.append(_code_key(rec, mode))
    return keys


def _forked_keys(records, mode, jobs):
    """`_code_key` of each of `records`, in order, from this process and
    `jobs - 1` forked workers (2 <= jobs <= the number of records).  The
    records are cut into `jobs` contiguous shares, share i starting at
    len(records) * i // jobs: this process keys the first, and a worker
    each further one.  A worker is forked, so it reads its share, and the
    module state of the caller, from the memory it inherits; it pipes its
    (form, error) pairs back in one message.  An exception in any
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
        keys = [_code_key(rec, mode) for rec in records[:cuts[1]]]
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
    multiplicities), which every monomial and semilinear map keeps.  A
    code's key is its profile's bytes (`_profile_key`), and, when its
    profile collides with another code's, then its canonical form's
    `CanonResult.key()`: algo="ceimpg" keys the canonical incidence,
    algo="cesimpg" the canonical shortened matrix, both of the code's side
    (`_side`: its dual when 2k > n).  A code whose profile no other code in
    the batch shares is so a class of its own, with no canonical form.
    Codes sharing a key share a bucket, and bucket members are separated by
    the lifting procedure of the equivalence routes (`_find_lift`), on the
    codes themselves, but where a ceimpg key is a proof.  The buckets, each
    class's `key_digest` and the batch `digest` hash the key bytes, no
    rendered text.  So a class's digest depends on the batch around it, and
    is the same at every `jobs`.  A bucket that already holds a class lifts
    the code it compares onto the lift target of each representative's
    record: each class builds one rref, on its representative, however many
    members join it, and past sigma0 the point group comes from the
    member's own shortened form.  `jobs`, an integer >= 1, bounds the
    processes that key the colliding codes: this one keys them in order
    until its own keying time projects at least FORK_PAYS_S of CPU for the
    rest, and only then cuts the rest into even contiguous shares, keys the
    first and forks up to `jobs - 1` workers for the others, which key the
    records they inherit and send back forms, all reaped before this
    returns (`_batch_keys`).  A batch with no colliding profiles forks
    nothing.  The workers are forked whatever the default start method, so
    they see this process's module state; jobs > 1 needs POSIX.  Classes
    are ordered by first appearance.  Per-item errors, from profiling a
    code (point-table size), from keying one whose profile collides (node
    budget, incidence size) or from comparing it with a class
    representative (node budget, coset cap or incidence size), are
    collected in `errors` (by code index) without aborting the batch; a
    code whose profile is its own is never keyed, so it is classified where
    its canonical form could not have been built.
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
        pi0 = _sigma_from_canons(keyed[i][0], keyed[rep][0])
        if algo == "ceimpg":
            pi0 = _incidence_points(pi0, s1, s2)
        return _find_lift(s1, s2, pi0) is not None

    buckets: dict[bytes, list[CodeClass]] = {}
    classes: list[CodeClass] = []
    keys: list[bytes] = []
    for i, key in enumerate(profiles):
        if key is None:
            continue
        form, msg = keyed.get(i, (None, None))
        if msg:
            errors.append((i, msg))
            continue
        if form is not None:
            key += form.key()
            if algo == "cesimpg":
                sides[i].form = form  # the same form, or one a worker sent
        # a code whose profile is its own finds its bucket empty
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
    # a profile key delimits itself and starts with byte 0 or 1, a form key
    # starts with b"c" and its counts delimit it (`CanonResult.key`), so the
    # sorted keys concatenated stand for the sorted list
    digest = hashlib.sha256(b"".join(sorted(keys))).hexdigest()
    elapsed = time.perf_counter() - start
    return ClassifyResult(algo, len(codes), classes, errors, elapsed, digest)
