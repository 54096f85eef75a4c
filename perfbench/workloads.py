"""The three seeded workloads of the mocklie benchmark.

Each workload is built from a loaded library (``lib``: the ``mocklie``
package as ``lib.api`` plus its ``cli``, ``formats`` and ``catalog``
modules), a seed and a scratch directory.  ``stream()`` yields an endless,
deterministic sequence of ``Op``s.  An op's ``run`` is the only code the
benchmark times; ``verify`` runs afterwards, outside the timed region, and
returns ``(problem, fingerprint)``: ``problem`` is ``None`` when the output
is what the input was built to give, and ``fingerprint`` is a canonical
text of the output that feeds the run digest.

Every call into the library goes through a module attribute at call time
(``api.check_prejj_bimodule(...)``, ``lib.cli.main(...)``), so a traced run
sees the wrappers it installs and an untraced run sees the plain functions.

Why these three workloads:

* ``census`` spends nearly all of its time in ``classify`` (exhaustive scan
  plus GL-orbit closure) and never reaches the checkers, so a solver or
  memoisation change shows here and a checker change should read "no
  change".
* ``checkers`` makes no ``classify`` call; it stresses ``reps``, ``matched``,
  ``linalg`` and ``fields`` arithmetic, which is where flat-tuple checkers
  must show.
* ``cli`` runs the same checks over ``Fraction`` as well as GF(p), shares
  ``transport_tuple`` with ``census`` through ``iso``, and is dominated by
  ``formats``/``cli`` overhead per invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
CENSUS_DIGESTS = HERE / "census_digests.json"

# Census metadata keys present when the digests were recorded.  Later
# metadata keys (solver counters, stabilizer orders) are allowed and left
# out of the digest; everything else must stay byte-identical.
RECORDED_METADATA_KEYS = ("gl_order", "scanned", "workers")

CENSUS_PRIMES = (2, 3, 5)
CENSUS_DIMS = (1, 2)
# Call latencies cluster by (dim, p) over four orders of magnitude.  Listing
# each dim-1 call three times puts the median inside the dim-1 cluster
# (45 of 60 calls) instead of on the gap between two clusters, where it
# would jump with the call order.
DIM1_REPEATS = 3

# Conformance mismatches of the pre-JJ doubles of the catalogued cases
# against their printed tables (see the README's CLI tour).
PREJJ_CASE_MISMATCHES = {"I": 2, "II": 1, "III": 3}

IDENTITY_ALIASES = ("antiassoc", "left-prejj", "right-prejj", "jj", "operad")
ALIAS_KIND = {
    "antiassoc": "antiassociative",
    "left-prejj": "left_pre_jj",
    "right-prejj": "right_pre_jj",
    "jj": "jj",
    "operad": "operad",
}


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    verify: Callable[[object], tuple]


def census_key(dim, p, kind):
    return f"{dim}/{p}/{kind}"


def census_digest(doc):
    """Digest of a census document with metadata cut to the recorded keys."""
    doc = dict(doc)
    doc["metadata"] = {
        k: v for k, v in doc["metadata"].items() if k in RECORDED_METADATA_KEYS
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_census_text(text, expected_digest):
    """Problem with one census document, or None."""
    doc = json.loads(text)
    sizes = [o["size"] for o in doc["orbits"]]
    if sum(sizes) != doc["total"]:
        return f"orbit sizes sum to {sum(sizes)}, total is {doc['total']}"
    gl_order = doc["metadata"]["gl_order"]
    if any(gl_order % s for s in sizes):
        return f"an orbit size in {sizes} does not divide |GL| = {gl_order}"
    if census_digest(doc) != expected_digest:
        return "census document differs from the recorded digest"
    return None


# ---------------------------------------------------------------------------
# independent arithmetic on output documents (no library code)
# ---------------------------------------------------------------------------

def _scalar(text, p):
    if p is None:
        return Fraction(text)
    return int(text.split(" mod ")[0]) % p


def _tensor(doc):
    """(dim, p, c) from an algebra document; p is None over the rationals."""
    n = doc["dim"]
    p = doc["field"].get("p")
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for row in doc["products"]:
        c[row["i"]][row["j"]] = [_scalar(x, p) for x in row["coeffs"]]
    return n, p, c


def _matrix(rows, p):
    return [[_scalar(x, p) for x in row] for row in rows]


def _reduce(vec, p):
    return [x % p for x in vec] if p is not None else list(vec)


def _product(c, n, p, x, y):
    out = [0] * n
    for i in range(n):
        for j in range(n):
            s = x[i] * y[j]
            if s:
                for k in range(n):
                    out[k] += s * c[i][j][k]
    return _reduce(out, p)


def _maps_onto(ca, cb, mat, p):
    """True when the invertible 2x2 ``mat`` carries structure ``ca`` to ``cb``.

    Column i of ``mat`` is the new basis vector f_i, so the condition is
    mat . cb[i][j] = f_i * f_j in ``ca`` for all i, j.
    """
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if (det % p if p is not None else det) == 0:
        return False
    n = 2
    cols = [[mat[r][i] for r in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = _reduce(
                [sum(mat[r][k] * cb[i][j][k] for k in range(n)) for r in range(n)], p
            )
            if lhs != _product(ca, n, p, cols[i], cols[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class Census:
    """``classify`` + ``census_to_json`` + ``dumps`` over dims 1-2, p in
    {2, 3, 5} and every identity kind.  The seed only permutes the order."""

    name = "census"

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.digests = json.loads(CENSUS_DIGESTS.read_text())
        calls = [
            (dim, p, kind)
            for dim in CENSUS_DIMS
            for p in CENSUS_PRIMES
            for kind in lib.api.IDENTITY_KINDS
            for _ in range(DIM1_REPEATS if dim == 1 else 1)
        ]
        random.Random(seed).shuffle(calls)
        self.order = calls
        self.batch = self.trace_ops = len(calls)

    def warm_up(self):
        pass

    def before_batch(self):
        pass

    def stream(self):
        while True:
            for call in self.order:
                yield self._op(*call)

    def _op(self, dim, p, kind):
        api, fmt = self.lib.api, self.lib.formats

        def run():
            census = api.classify(dim, api.prime_field(p), kind)
            return fmt.dumps(fmt.census_to_json(census))

        def verify(text):
            return check_census_text(text, self.digests[census_key(dim, p, kind)]), text

        return Op("classify", run, verify)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

# One cycle of the checker stream.  Fixed proportions keep the op mix, and
# so the throughput, independent of the seed; the seed picks the contents.
CHECKER_CYCLE = (
    "bimodule_valid", "bimodule", "scalar_bimodule", "bimodule",
    "rep_valid", "bimodule", "prejj_pair", "bimodule",
    "scalar_bimodule", "rep", "bimodule", "jj_pair",
)


class Checkers:
    """Checker verdicts over GF(5) dim-2 algebras.

    The pool is every left pre-JJ structure on GF(5)^2: the zero algebra
    plus all basis changes of e1e1=e2 (25 tables), built without a census.
    """

    name = "checkers"
    batch = 10 * len(CHECKER_CYCLE)
    trace_ops = 20 * batch

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.seed = seed
        api = lib.api
        self.field = api.prime_field(5)
        base = api.Algebra.from_products(self.field, 2, {(0, 0): (0, 1)})
        pool = {api.Algebra.zero(self.field, 2).c: api.Algebra.zero(self.field, 2)}
        for flat in itertools.product(range(5), repeat=4):
            if (flat[0] * flat[3] - flat[1] * flat[2]) % 5:
                mat = api.LinearMap(self.field, (flat[:2], flat[2:]))
                alg = api.apply_basis_change(base, mat)
                pool[alg.c] = alg
        self.pool = tuple(pool[key] for key in sorted(pool))
        jj_pool = {}
        for alg in self.pool:
            sub = api.sub_adjacent(alg)
            jj_pool[sub.c] = sub
        self.jj_pool = tuple(jj_pool[key] for key in sorted(jj_pool))

    def warm_up(self):
        ops = self.stream(f"{self.seed}/warm-up")
        for op in itertools.islice(ops, 2 * len(CHECKER_CYCLE)):
            op.verify(op.run())

    def before_batch(self):
        pass

    def stream(self, seed=None):
        rng = random.Random(self.seed if seed is None else seed)
        while True:
            for slot in CHECKER_CYCLE:
                yield getattr(self, "_" + slot)(rng)

    # -- input generation (library constructors, outside the timed region)

    def _matrix(self, rng, n):
        return self.lib.api.LinearMap(
            self.field, tuple(tuple(rng.randrange(5) for _ in range(n)) for _ in range(n))
        )

    def _invertible(self, rng, n):
        while True:
            mat = self._matrix(rng, n)
            if mat.is_invertible():
                return mat

    def _conjugate(self, maps, phi):
        phi_inv = phi.inverse()
        return tuple(phi.mul(m).mul(phi_inv) for m in maps)

    # -- ops

    def _bimodule_valid(self, rng):
        # zero, regular or dual-regular bimodule, conjugated by a random
        # invertible map: valid by construction
        api = self.lib.api
        alg = rng.choice(self.pool)
        choice = rng.randrange(4)
        if choice == 0:
            bm = api.PreJJBimodule.zero(alg, 2)
        else:
            base = api.PreJJBimodule.regular(alg)
            if choice >= 2:
                base = api.dual_bimodule(base)
            phi = self._invertible(rng, 2)
            bm = api.PreJJBimodule(
                alg, self._conjugate(base.left, phi), self._conjugate(base.right, phi)
            )
        return self._bimodule_op("bimodule_valid", bm, valid=True)

    def _bimodule(self, rng):
        alg = rng.choice(self.pool)
        left = tuple(self._matrix(rng, 2) for _ in range(2))
        right = tuple(self._matrix(rng, 2) for _ in range(2))
        bm = self.lib.api.PreJJBimodule(alg, left, right)
        return self._bimodule_op("bimodule", bm, valid=False)

    def _scalar_bimodule(self, rng):
        # the m = 1 rejection stream of acceptance criterion 3
        alg = rng.choice(self.pool)
        left = tuple(self._matrix(rng, 1) for _ in range(2))
        right = tuple(self._matrix(rng, 1) for _ in range(2))
        bm = self.lib.api.PreJJBimodule(alg, left, right)
        return self._bimodule_op("scalar_bimodule", bm, valid=False)

    def _bimodule_op(self, kind, bm, valid):
        api = self.lib.api

        def run():
            return api.check_prejj_bimodule(bm).passed

        def verify(verdict):
            oracle = api.passes_identity(api.prejj_semidirect(bm), "left_pre_jj")
            if verdict != oracle:
                return f"verdict {verdict}, semidirect left_pre_jj {oracle}", str(verdict)
            if valid and not verdict:
                return "valid-by-construction bimodule rejected", str(verdict)
            return None, str(verdict)

        return Op(kind, run, verify)

    def _valid_rep(self, rng, alg):
        api = self.lib.api
        choice = rng.randrange(4)
        if choice == 0:
            return api.JJRep.zero(alg, 2)
        base = api.JJRep.adjoint(alg)
        if choice >= 2:
            base = api.dual_rep(base)
        return api.JJRep(alg, self._conjugate(base.maps, self._invertible(rng, 2)))

    def _rep_valid(self, rng):
        return self._rep_op("rep_valid", self._valid_rep(rng, rng.choice(self.jj_pool)), True)

    def _rep(self, rng):
        alg = rng.choice(self.jj_pool)
        rep = self.lib.api.JJRep(alg, tuple(self._matrix(rng, 2) for _ in range(2)))
        return self._rep_op("rep", rep, False)

    def _rep_op(self, kind, rep, valid):
        api = self.lib.api

        def run():
            return api.check_jj_rep(rep).passed

        def verify(verdict):
            dual = api.check_jj_rep(api.dual_rep(rep)).passed
            if verdict != dual:
                return f"verdict {verdict}, dual representation {dual}", str(verdict)
            if valid and not verdict:
                return "valid-by-construction representation rejected", str(verdict)
            return None, str(verdict)

        return Op(kind, run, verify)

    def _prejj_pair(self, rng):
        api = self.lib.api
        mp = api.dual_structure_maps(rng.choice(self.pool), rng.choice(self.pool))

        def run():
            try:
                return api.check_prejj_matched_pair(mp).passed
            except api.PreconditionError:
                return False

        def verify(verdict):
            oracle = api.passes_identity(api.prejj_bicross_product(mp), "left_pre_jj")
            problem = None if verdict == oracle else (
                f"verdict {verdict}, bicrossed product left_pre_jj {oracle}")
            return problem, str(verdict)

        return Op("prejj_pair", run, verify)

    def _jj_pair(self, rng):
        api = self.lib.api
        g, h = rng.choice(self.jj_pool), rng.choice(self.jj_pool)
        mp = api.JJMatchedPair(g, h, self._valid_rep(rng, g).maps,
                               self._valid_rep(rng, h).maps)

        def run():
            try:
                return api.check_jj_matched_pair(mp).passed
            except api.PreconditionError:
                return False

        def verify(verdict):
            oracle = api.passes_identity(api.jj_bicross_product(mp), "jj")
            problem = None if verdict == oracle else (
                f"verdict {verdict}, bicrossed product jj {oracle}")
            return problem, str(verdict)

        return Op("jj_pair", run, verify)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# One cycle of 32 invocations: 17 check, 3 double, 2 GF(5) iso, 1 QQ iso,
# 2 table, 2 subadjacent, 2 semidirect, 2 classify and 1 malformed input.
CLI_CYCLE = (
    "check", "double", "check", "table", "check", "iso_gf", "check", "subadjacent",
    "check", "semidirect", "check", "classify", "check", "double", "check", "iso_qq",
    "check", "table", "check", "iso_gf", "check", "subadjacent", "check", "semidirect",
    "check", "classify", "check", "double", "check", "malformed", "check", "check",
)

# Inputs that break the exit-code contract (exit 2, one error line) today;
# "half_prime" should be accepted, since 1/2 is invertible mod 5.
MALFORMED = ("bad_scalar", "zero_denominator", "half_prime", "missing_r",
             "bad_field", "unwritable_out")

CHECK_KEYS = {"schema_version", "command", "arguments", "field", "identity",
              "passed", "witnesses", "warnings", "truncated"}


class Cli:
    """In-process ``mocklie.cli.main`` invocations on files written in set-up."""

    name = "cli"
    batch = 2 * len(CLI_CYCLE)
    trace_ops = 16 * batch

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.seed = seed
        self.work = Path(workdir)
        self.inputs = self.work / "in"
        self.outputs = self.work / "out"
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.outputs.mkdir(exist_ok=True)
        self.docs = {}
        rng = random.Random(seed)
        api = lib.api
        qq, gf5 = api.QQ, api.prime_field(5)

        # check/table/subadjacent: dims 2-6, built to pass every identity
        # (direct sums of e1e1=e2 blocks) or to fail every one (an
        # idempotent block), transported by random unimodular matrices so
        # the constants stay integral and reduce mod any prime
        self.check_files = {}
        for dim in range(2, 7):
            for passing in (True, False):
                self.check_files[dim, passing] = [
                    self._write_algebra(
                        f"check-{dim}-{'pass' if passing else 'fail'}-{k}",
                        api.apply_basis_change(self._block_algebra(dim, passing),
                                               self._unimodular(rng, dim)),
                    )
                    for k in range(3)
                ]

        classes_qq = [a for name, a in lib.catalog.class_algebras(qq).items() if name != "zero"]
        classes_gf = [a for name, a in lib.catalog.class_algebras(gf5).items() if name != "zero"]
        nil_qq = api.Algebra.from_products(qq, 2, {(0, 0): (0, 1)})
        idem_qq = api.Algebra.from_products(qq, 2, {(0, 0): (1, 0)})
        nil_gf = api.Algebra.from_products(gf5, 2, {(0, 0): (0, 1)})
        zero_qq, zero_gf = api.Algebra.zero(qq, 2), api.Algebra.zero(gf5, 2)

        # iso: pairs related by a basis change (found) and pairs that are
        # not isomorphic (full scan, exit 1)
        self.iso_gf = []
        for k in range(4):
            a = api.apply_basis_change(rng.choice(classes_gf), self._gl(rng, gf5, 0, 4))
            b = api.apply_basis_change(a, self._gl(rng, gf5, 0, 4))
            self.iso_gf.append(self._iso_pair(f"gf-{k}", a, b, True))
        self.iso_gf_none = [self._iso_pair("gf-none", nil_gf, zero_gf, False)]
        self.iso_qq = []
        for k in range(4):
            a = rng.choice(classes_qq)
            b = api.apply_basis_change(a, self._gl(rng, qq, -2, 2))
            self.iso_qq.append(self._iso_pair(f"qq-{k}", a, b, True))
        self.iso_qq_none = [self._iso_pair("qq-none-0", nil_qq, zero_qq, False),
                            self._iso_pair("qq-none-1", idem_qq, nil_qq, False)]

        self.cases = {}
        for case in lib.catalog.CASE_NAMES:
            primal, dual = lib.catalog.case_inputs(case, qq)
            self.cases[case] = (self._write_algebra(f"case-{case}-A", primal),
                                self._write_algebra(f"case-{case}-Astar", dual))

        # semidirect containers: regular / dual-regular bimodules and
        # adjoint representations (valid), and rho = (I, 0) on the zero
        # algebra (invalid: rho(0) = 0 but -(2 I^2) != 0)
        fmt = lib.formats
        self.bimodules, self.reps = [], []
        for dim in (2, 3):
            for k, path in enumerate(self.check_files[dim, True][:2]):
                alg = self._algebra_of(path)
                bm = api.PreJJBimodule.regular(alg)
                if k:
                    bm = api.dual_bimodule(bm)
                self.bimodules.append(self._write(f"bimodule-{dim}-{k}", fmt.bimodule_to_json(bm)))
            rep = api.JJRep.adjoint(api.sub_adjacent(self._algebra_of(self.check_files[dim, True][2])))
            self.reps.append((self._write(f"rep-{dim}", fmt.rep_to_json(rep)), True))
        bad_rep = api.JJRep(zero_qq, (api.LinearMap.identity(qq, 2), api.LinearMap.zeros(qq, 2, 2)))
        self.reps.append((self._write("rep-invalid", fmt.rep_to_json(bad_rep)), False))

        # malformed inputs
        scaled = fmt.algebra_to_json(nil_qq)
        self.malformed = {}
        for name, text in (("bad_scalar", "abc"), ("zero_denominator", "1/0")):
            doc = json.loads(json.dumps(scaled))
            doc["products"][0]["coeffs"] = ["0", text]
            self.malformed[name] = self._write(f"malformed-{name}", doc)
        half = fmt.algebra_to_json(nil_gf)
        half["products"][0]["coeffs"] = ["0", "1/2"]
        self.malformed["half_prime"] = self._write("malformed-half_prime", half)
        no_r = fmt.bimodule_to_json(api.PreJJBimodule.regular(nil_qq))
        del no_r["r"]
        self.malformed["missing_r"] = self._write("malformed-missing_r", no_r)
        self.malformed["plain"] = self.check_files[2, True][0]

        self.census_digests = json.loads(CENSUS_DIGESTS.read_text())

    # -- set-up helpers

    def _block_algebra(self, dim, passing):
        # passing: e1e1=e2, e3e3=e4, ... (nilpotent blocks pass all five
        # identities); failing: e1e1=e1 plus e2e2=e_dim (dim >= 3)
        api = self.lib.api
        products = {}

        def unit(k):
            return tuple(1 if t == k else 0 for t in range(dim))

        if passing:
            for b in range(0, dim - 1, 2):
                products[b, b] = unit(b + 1)
        else:
            products[0, 0] = unit(0)
            if dim >= 3:
                products[1, 1] = unit(dim - 1)
        return api.Algebra.from_products(api.QQ, dim, products)

    def _unimodular(self, rng, n):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        return self.lib.api.LinearMap.from_rows(self.lib.api.QQ, rows)

    def _gl(self, rng, field, lo, hi):
        # random invertible 2x2 matrix with entries in [lo, hi]
        api = self.lib.api
        while True:
            mat = api.LinearMap.from_rows(
                field, [[rng.randint(lo, hi) for _ in range(2)] for _ in range(2)])
            if mat.is_invertible():
                return mat

    def _write(self, stem, doc):
        path = self.inputs / f"{stem}.json"
        path.write_text(self.lib.formats.dumps(doc))
        self.docs[str(path)] = doc
        return str(path)

    def _write_algebra(self, stem, alg):
        return self._write(stem, self.lib.formats.algebra_to_json(alg))

    def _algebra_of(self, path):
        return self.lib.formats.algebra_from_json(self.docs[path])

    def _iso_pair(self, stem, a, b, isomorphic):
        return (self._write_algebra(f"iso-{stem}-a", a),
                self._write_algebra(f"iso-{stem}-b", b), isomorphic)

    # -- stream

    def warm_up(self):
        self.before_batch()
        ops = self.stream(f"{self.seed}/warm-up")
        for op in itertools.islice(ops, len(CLI_CYCLE)):
            try:
                op.verify(op.run())
            except Exception:  # malformed inputs raise today; warm-up ignores it
                pass

    def before_batch(self):
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir()

    def stream(self, seed=None):
        rng = random.Random(self.seed if seed is None else seed)
        seen = dict.fromkeys(set(CLI_CYCLE), 0)
        index = 0
        while True:
            for verb in CLI_CYCLE:
                out = str(self.outputs / f"{index % self.batch}.json")
                yield getattr(self, "_" + verb)(rng, seen[verb], out)
                seen[verb] += 1
                index += 1

    def _invoke(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, err.getvalue()

    def _op(self, kind, argv, out, check):
        """An invocation whose result ``check(code, stderr, out_text)`` judges."""

        def run():
            return self._invoke(argv)

        def verify(result):
            code, stderr = result
            try:
                text = Path(out).read_text()
            except FileNotFoundError:
                text = None
            problem = check(code, stderr, text)
            fingerprint = f"{code}\n{stderr}\n{text}".replace(str(self.work), "<work>")
            return problem, fingerprint

        return Op(kind, run, verify)

    # -- verbs (``n`` counts earlier uses of the verb, for fixed rotations)

    def _check(self, rng, n, out):
        dim = 2 + n % 5
        passing = (n // 5) % 2 == 0
        field = (None, "prime:5", "prime:7")[(n // 10) % 3]
        path = rng.choice(self.check_files[dim, passing])
        alias = rng.choice(IDENTITY_ALIASES)
        argv = ["check", path, "--identity", alias, "--out", out]
        if field:
            argv += ["--field", field]
        field_doc = {"kind": "rational"} if field is None else {
            "kind": "prime", "p": int(field.split(":")[1])}

        def check(code, stderr, text):
            if code != (0 if passing else 1):
                return f"exit {code}, built to {'pass' if passing else 'fail'}"
            doc = json.loads(text)
            if set(doc) != CHECK_KEYS:
                return f"report keys {sorted(doc)}"
            if (doc["passed"] is not passing or doc["identity"] != ALIAS_KIND[alias]
                    or doc["field"] != field_doc or bool(doc["witnesses"]) == passing):
                return "report contents disagree with the input"
            return None

        return self._op("check", argv, out, check)

    def _double(self, rng, n, out):
        case = ("I", "II", "III")[n % 3]
        kind = ("prejj", "jj")[(n // 3) % 2]
        a, astar = self.cases[case]
        argv = ["double", a, astar, "--conformance", case, "--kind", kind, "--out", out]

        def check(code, stderr, text):
            doc = json.loads(text)
            size, p, c = _tensor(doc["ambient"])
            half = size // 2

            def partner(t):
                return t + half if t < half else t - half

            invariant = all(
                c[u][v][partner(w)] == c[v][w][partner(u)]
                for u in range(size) for v in range(size) for w in range(size)
            )
            if code != (0 if invariant else 1) or doc["invariance"]["passed"] != invariant:
                return f"exit {code}, invariance recomputed as {invariant}"
            rows = doc["conformance"]
            if len(rows) != 16:
                return f"{len(rows)} conformance rows"
            mismatches = 0
            for row in rows:
                (i, j), (k, l) = row["left"], row["right"]
                value = [0] * size
                for s in (i, half + j):
                    for t in (k, half + l):
                        value = [x + y for x, y in zip(value, c[s][t])]
                if value != [_scalar(x, p) for x in row["recomputed"]]:
                    return f"conformance entry {row['lhs-entry']} is not the ambient product"
                match = value == [_scalar(x, p) for x in row["paper-expected"]]
                if row["match"] != match:
                    return f"match flag of {row['lhs-entry']} is wrong"
                mismatches += not match
            if kind == "prejj" and mismatches != PREJJ_CASE_MISMATCHES[case]:
                return f"case {case}: {mismatches} mismatches"
            return None

        return self._op("double", argv, out, check)

    def _iso(self, pairs, none_pairs, rng, n, out, kind):
        # alternate found / not found so the full-scan share is fixed
        pool = pairs if n % 2 == 0 else none_pairs
        a, b, isomorphic = rng.choice(pool)
        argv = ["iso", a, b, "--out", out]

        def check(code, stderr, text):
            doc = json.loads(text)
            if code != (0 if isomorphic else 1) or doc["found"] is not isomorphic:
                return f"exit {code}, found {doc['found']}, built isomorphic={isomorphic}"
            if isomorphic:
                _, p, ca = _tensor(self.docs[a])
                _, _, cb = _tensor(self.docs[b])
                if not _maps_onto(ca, cb, _matrix(doc["matrix"], p), p):
                    return "returned matrix does not carry A onto B"
            return None

        return self._op(kind, argv, out, check)

    def _iso_gf(self, rng, n, out):
        return self._iso(self.iso_gf, self.iso_gf_none, rng, n, out, "iso_gf")

    def _iso_qq(self, rng, n, out):
        return self._iso(self.iso_qq, self.iso_qq_none, rng, n, out, "iso_qq")

    def _table(self, rng, n, out):
        dim = 2 + n % 5
        path = rng.choice(self.check_files[dim, rng.random() < 0.5])
        argv = ["table", path, "--out", out]

        def check(code, stderr, text):
            lines = text.splitlines()
            if code != 0 or len(lines) != 1 + dim * dim or not lines[0].startswith(f"dim {dim} over"):
                return f"exit {code}, {len(lines)} table lines"
            return None

        return self._op("table", argv, out, check)

    def _subadjacent(self, rng, n, out):
        dim = 2 + n % 5
        path = rng.choice(self.check_files[dim, True])
        halved = n % 2 == 1
        argv = ["subadjacent", path, "--out", out] + (["--halved"] if halved else [])
        scale = Fraction(1, 2) if halved else 1

        def check(code, stderr, text):
            size, _, c = _tensor(self.docs[path])
            _, _, s = _tensor(json.loads(text))
            expected = [[[scale * (x + y) for x, y in zip(c[i][j], c[j][i])]
                         for j in range(size)] for i in range(size)]
            if code != 0 or s != expected:
                return f"exit {code}, or the product is not the anticommutator"
            return None

        return self._op("subadjacent", argv, out, check)

    def _semidirect(self, rng, n, out):
        if n % 2 == 0:
            path, valid, jj = rng.choice(self.bimodules), True, False
        else:
            (path, valid), jj = rng.choice(self.reps), True
        argv = ["semidirect", path, "--out", out] + (["--jj"] if jj else [])
        container = self.docs[path]

        def check(code, stderr, text):
            doc = json.loads(text)
            if not valid:
                if code != 1 or "precondition" not in doc:
                    return f"exit {code}, invalid representation accepted"
                return None
            size, p, c = _tensor(container["algebra"])
            left = [_matrix(m, p) for m in container["rho" if jj else "l"]]
            right = [_matrix(m, p) for m in container["rho" if jj else "r"]]
            m = len(left[0])
            total, _, d = _tensor(doc)
            if code != 0 or total != size + m:
                return f"exit {code}, dimension {total}"
            for i in range(total):
                for j in range(total):
                    want = [0] * total
                    if i < size and j < size:
                        want[:size] = c[i][j]
                    elif i < size:
                        want[size:] = [row[j - size] for row in left[i]]
                    elif j < size:
                        want[size:] = [row[i - size] for row in right[j]]
                    if d[i][j] != want:
                        return f"semidirect product of basis pair ({i}, {j}) is wrong"
            return None

        return self._op("semidirect", argv, out, check)

    def _classify(self, rng, n, out):
        dim, p = ((1, 2), (1, 3), (1, 5), (2, 2))[n % 4]
        alias = rng.choice(IDENTITY_ALIASES)
        argv = ["classify", "--dim", str(dim), "--prime", str(p), "--kind", alias,
                "--out", out]
        digest = self.census_digests[census_key(dim, p, ALIAS_KIND[alias])]

        def check(code, stderr, text):
            if code != 0:
                return f"exit {code}"
            return check_census_text(text, digest)

        return self._op("classify", argv, out, check)

    def _malformed(self, rng, n, out):
        name = MALFORMED[n % len(MALFORMED)]
        plain = self.malformed["plain"]
        if name == "missing_r":
            argv = ["semidirect", self.malformed[name], "--out", out]
        elif name == "bad_field":
            argv = ["check", plain, "--identity", "jj", "--field", "prime:abc", "--out", out]
        elif name == "unwritable_out":
            out = str(self.outputs / "missing-dir" / "out.json")
            argv = ["check", plain, "--identity", "jj", "--out", out]
        else:
            argv = ["check", self.malformed[name], "--identity", "jj", "--out", out]

        def check(code, stderr, text):
            if name == "half_prime":
                ok = code == 0 and json.loads(text)["passed"] is True
                return None if ok else f"exit {code} on a valid GF(5) file with 1/2"
            lines = stderr.splitlines()
            if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
                return f"exit {code} with {len(lines)} stderr lines, expected exit 2"
            return None

        return self._op("malformed", argv, out, check)


WORKLOADS = {cls.name: cls for cls in (Census, Checkers, Cli)}
