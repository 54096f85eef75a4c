"""JSON wire formats for algebras, module structures, reports and censuses.

Scalars always travel as strings ("a" or "a/b" over the rationals,
"k mod p" over a prime field) so no consumer ever parses floats.  Output is
byte-deterministic: keys sorted, two-space indent, trailing newline.

Algebra files: ``{"dim", "field", "basis", "products"}`` where ``field`` is
``{"kind": "rational"}`` or ``{"kind": "prime", "p": int}`` and ``products``
lists ``{"i", "j", "coeffs"}`` rows for the nonzero basis products (0-based
indices; omitted pairs multiply to zero).  ``dim``, ``i``, ``j``, ``p`` and
``module_dim`` must be JSON integers and ``basis``, ``products`` and
``coeffs`` lists and ``basis`` entries strings; anything else raises
``FormatError``, and so do a ``module_dim`` below 1 and a ``dim`` or
``module_dim`` above ``MAX_DIM``.
Bimodule ``{"algebra", "module_dim", "l", "r"}`` and representation
``{"algebra", "module_dim", "rho"}`` containers share one reader and writer.
This module imports the constructions it serializes; none of them imports it.
"""

from __future__ import annotations

import json

from .algebra import Algebra, CheckReport
from .classify import OrbitCensus
from .doubles import DoubleConstruction
from .errors import MockLieError
from .fields import Field, PrimeField, QQ, RationalField
from .linalg import LinearMap
from .reps import JJRep, PreJJBimodule

SCHEMA_VERSION = 1

# The identity checks cost about dim**5 field operations on a dense table
# that passes (zero constants are skipped, so the dim-32 zero algebra takes
# 0.2 s): on a dim-32 JJ table taken to a dense basis over GF(101), ``check``
# takes 8-12 s for ``jj`` and about 5 s for ``left-prejj`` and ``antiassoc``,
# and ``double`` on two dense dim-32 QQ tables about 1 s (2-core x86-64 box,
# CPython 3.11), so larger documents are refused.  A module check costs
# dim**2 * module_dim**3, so ``module_dim`` has the same cap.
MAX_DIM = 32


class FormatError(MockLieError):
    """Malformed or inconsistent input document."""


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def field_to_json(field: Field) -> dict:
    if isinstance(field, RationalField):
        return {"kind": "rational"}
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": field.p}
    raise FormatError(f"unknown field {field!r}")


def _integer(value, what: str) -> int:
    # a JSON integer: bools, floats and numeric strings are refused
    if type(value) is not int:
        raise FormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _required(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError:
        raise FormatError(f"missing field {key!r}") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list, got {value!r}")
    return value


def field_from_json(obj) -> Field:
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise FormatError("field descriptor needs a 'kind'") from None
    if kind == "rational":
        return QQ
    if kind == "prime":
        try:
            return PrimeField(_integer(obj["p"], "prime field 'p'"))
        except KeyError:
            raise FormatError("prime field descriptor needs 'p'") from None
    raise FormatError(f"unknown field kind {kind!r}")


def _render_vec(field, vec):
    return [field.render(x) for x in vec]


def algebra_to_json(alg: Algebra) -> dict:
    products = []
    zero = (alg.field.zero,) * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            if alg.c[i][j] != zero:
                products.append(
                    {"i": i, "j": j, "coeffs": _render_vec(alg.field, alg.c[i][j])}
                )
    return {
        "dim": alg.dim,
        "field": field_to_json(alg.field),
        "basis": list(alg.labels),
        "products": products,
    }


def algebra_from_json(obj) -> Algebra:
    if not isinstance(obj, dict):
        raise FormatError("algebra document must be a JSON object")
    try:
        dim = _integer(obj["dim"], "dim")
        field = field_from_json(obj["field"])
    except KeyError as exc:
        raise FormatError(f"algebra document is missing {exc}") from None
    if dim > MAX_DIM:
        raise FormatError(f"dim {dim} is above the limit of {MAX_DIM}")
    labels = _list(obj.get("basis", []), "basis") or None
    if labels is not None and len(labels) != dim:
        raise FormatError("basis label count does not match dim")
    if labels is not None and not all(isinstance(x, str) for x in labels):
        raise FormatError(f"basis labels must be JSON strings, got {labels!r}")
    products = {}
    for row in _list(obj.get("products", []), "products"):
        try:
            i, j, coeffs = row["i"], row["j"], row["coeffs"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"bad product row {row!r}: {exc}") from None
        i, j = _integer(i, "product index 'i'"), _integer(j, "product index 'j'")
        _list(coeffs, f"product ({i}, {j}) 'coeffs'")
        if (i, j) in products:
            raise FormatError(f"duplicate product entry ({i}, {j})")
        products[(i, j)] = [str(x) for x in coeffs]
    try:
        return Algebra.from_products(field, dim, products, labels=labels)
    except MockLieError as exc:
        raise FormatError(str(exc)) from None


def matrix_to_json(m: LinearMap) -> list:
    return [_render_vec(m.field, row) for row in m.entries]


def matrix_from_json(field: Field, rows, size: int | None = None) -> LinearMap:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError("a matrix must be a list of rows")
    mat = LinearMap.from_rows(field, [[field.parse(str(x)) for x in row] for row in rows])
    if size is not None and (mat.rows, mat.cols) != (size, size):
        raise FormatError(f"expected a {size}x{size} matrix")
    return mat


def _module_to_json(alg: Algebra, module_dim: int, **families) -> dict:
    return {"algebra": algebra_to_json(alg), "module_dim": module_dim,
            **{key: [matrix_to_json(m) for m in maps] for key, maps in families.items()}}


def bimodule_to_json(bm: PreJJBimodule) -> dict:
    return _module_to_json(bm.algebra, bm.module_dim, l=bm.left, r=bm.right)


def _module_from_json(obj, keys, build):
    """``build(algebra, *map lists)`` of the container ``obj``, lists under ``keys``.

    The module dimension is ``module_dim`` or else the size of the first map
    under ``keys[0]``.  Below 1 or above ``MAX_DIM``, or on a ``MockLieError``
    of ``build``, ``FormatError``."""
    if not isinstance(obj, dict):
        raise FormatError("module container must be a JSON object")
    lists = [_required(obj, key) for key in keys]
    for key, maps in zip(keys, lists):
        if not isinstance(maps, list):
            raise FormatError(f"{key!r} must be a list of matrices")
    alg = algebra_from_json(_required(obj, "algebra"))
    if obj.get("module_dim") is not None:
        m = _integer(obj["module_dim"], "module_dim")
    elif lists[0] and isinstance(lists[0][0], list):
        m = len(lists[0][0])
    else:
        raise FormatError(f"container needs 'module_dim' or a nonempty {keys[0]!r}")
    if m < 1:
        raise FormatError(f"module_dim {m}: the module must have positive dimension")
    if m > MAX_DIM:
        raise FormatError(f"module_dim {m} is above the limit of {MAX_DIM}")
    families = [[matrix_from_json(alg.field, rows, m) for rows in maps] for maps in lists]
    try:
        return build(alg, *families)
    except MockLieError as exc:
        raise FormatError(str(exc)) from None


def bimodule_from_json(obj) -> PreJJBimodule:
    return _module_from_json(obj, ("l", "r"), PreJJBimodule)


def rep_to_json(rep: JJRep) -> dict:
    return _module_to_json(rep.algebra, rep.module_dim, rho=rep.maps)


def rep_from_json(obj) -> JJRep:
    return _module_from_json(obj, ("rho",), JJRep)


def report_to_json(report: CheckReport, field: Field) -> dict:
    return {
        "identity": report.identity_name,
        "passed": report.passed,
        "witnesses": [
            {
                "indices": list(w.indices),
                "defect": _render_vec(field, w.defect),
                "tag": w.tag,
            }
            for w in report.witnesses
        ],
        "warnings": list(report.warnings),
        "truncated": report.truncated,
    }


def census_to_json(census: OrbitCensus) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "field": field_to_json(census.field),
        "kind": census.kind,
        "dim": census.dim,
        "total": census.total,
        "orbits": [
            {
                "representative": _render_vec(census.field, o.representative),
                "size": o.size,
            }
            for o in census.orbits
        ],
        "warnings": list(census.warnings),
        "metadata": dict(census.metadata),
    }


def conformance_rows_to_json(field: Field, rows) -> list:
    out = []
    for row in rows:
        out.append(
            {
                "lhs-entry": row["lhs"],
                "left": list(row["left"]),
                "right": list(row["right"]),
                "recomputed": _render_vec(field, row["recomputed"]),
                "paper-expected": _render_vec(field, row["expected"]),
                "match": row["match"],
            }
        )
    return out


def double_to_json(double: DoubleConstruction, invariance: CheckReport,
                   conformance=None) -> dict:
    f = double.ambient.field
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": double.kind,
        "ambient": algebra_to_json(double.ambient),
        "form": matrix_to_json(double.form.matrix),
        "source": {
            "A": algebra_to_json(double.primal),
            "Astar": algebra_to_json(double.dual),
        },
        "invariance": report_to_json(invariance, f),
    }
    doc["conformance"] = (
        conformance_rows_to_json(f, conformance) if conformance is not None else []
    )
    return doc


def table_fixture_from_json(obj, field: Field):
    """Parse a conformance fixture: entries of {left, right, expected}.

    ``left`` and ``right`` are pairs of basis indices and ``expected`` a list
    of scalars; anything else raises ``FormatError``.
    """
    if not isinstance(obj, dict) or not isinstance(_required(obj, "entries"), list):
        raise FormatError("a conformance fixture must be an object with an entries list")
    entries = []
    for row in obj["entries"]:
        if not isinstance(row, dict) or not all(
                isinstance(_required(row, key), list)
                for key in ("left", "right", "expected")):
            raise FormatError("a fixture entry must be an object of lists "
                              "left, right and expected")
        left, right = tuple(row["left"]), tuple(row["right"])
        if not all(len(pair) == 2 and all(type(x) is int for x in pair)
                   for pair in (left, right)):
            raise FormatError("fixture left and right must be pairs of integers")
        expected = tuple(field.parse(str(x)) for x in row["expected"])
        entries.append((left, right, expected))
    return tuple(entries)


def coerce_algebra(alg: Algebra, field: Field) -> Algebra:
    """Reinterpret an algebra's scalars in another field where possible.

    Rational constants reduce into any prime field whose modulus does not
    divide a denominator; a prime field only coerces to itself.  There is no
    canonical lift from a prime field to the rationals.
    """
    if field == alg.field:
        return alg
    if isinstance(alg.field, RationalField) and isinstance(field, PrimeField):
        return Algebra.from_tensor(field, alg.c, labels=alg.labels)
    raise FormatError(f"cannot coerce scalars from {alg.field!r} to {field!r}")
