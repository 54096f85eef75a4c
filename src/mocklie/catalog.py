"""Reference two-dimensional algebras and double-construction tables.

The catalog is the set of JSON documents under ``data/``; this module reads
them with the ``formats`` parsers and assembles each case's conformance.

The four catalogued dim-2 multiplication tables (keys ``"zero"``,
``"e1e1=e2"``, ``"e2e1=e2"``, ``"e2e2=e1"``, files ``class_<key>.json`` with
``=`` written ``_``) are the classes the classification section works with.
They are kept verbatim as inputs for the checkers and the conformance
machinery; note that ``check_identity`` shows ``"e2e1=e2"`` does not actually
satisfy any of the checked identities, and the census places ``"e1e1=e2"``
and ``"e2e2=e1"`` in one isomorphism orbit.  The conformance reports surface
such discrepancies instead of resolving them.  Acceptance criteria 1, 2, 3 and
11 (``tests/test_acceptance.py``) pin this finding with hand-derived witnesses
and orbit sizes.

Each double-construction case bundles a base class, a product on the dual
basis (``case_<case>_dual.json``) and the expected 16-entry multiplication
table of the double in the source order (``case_<case>_table.json``).
Expected entries are fixtures to diff against, never ground truth: the
recomputation from the bicrossed-product formula is authoritative.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import Algebra
from .doubles import DoubleConstruction, assemble_prejj_double, conformance_diff
from .fields import QQ, Field
from .formats import algebra_from_json, coerce_algebra, table_fixture_from_json

_DATA = Path(__file__).parent / "data"

CLASS_NAMES = ("zero", "e1e1=e2", "e2e1=e2", "e2e2=e1")

# the base class of each double-construction case
_CASE_BASES = {"I": "e1e1=e2", "II": "e2e1=e2", "III": "e2e2=e1"}

CASE_NAMES = tuple(_CASE_BASES)


def _document(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _algebra(name: str, field: Field) -> Algebra:
    return coerce_algebra(algebra_from_json(_document(_DATA / name)), field)


def class_algebra(name: str, field: Field = QQ) -> Algebra:
    """One of the four catalogued dim-2 algebras over the given field."""
    if name not in CLASS_NAMES:
        raise KeyError(name)
    return _algebra(f"class_{name.replace('=', '_')}.json", field)


def class_algebras(field: Field = QQ) -> dict[str, Algebra]:
    return {name: class_algebra(name, field) for name in CLASS_NAMES}


def case_inputs(case: str, field: Field = QQ) -> tuple[Algebra, Algebra]:
    """The base algebra and dual-basis algebra of a catalogued case."""
    base = class_algebra(_CASE_BASES[case], field)
    return base, _algebra(f"case_{case}_dual.json", field)


def case_table_path(case: str) -> Path:
    """The packaged conformance fixture of a catalogued case."""
    if case not in _CASE_BASES:
        raise KeyError(case)
    return _DATA / f"case_{case}_table.json"


def case_table(case: str) -> tuple:
    """The catalogued 16-entry expected table of a case, in source order."""
    return table_fixture_from_json(_document(case_table_path(case)), QQ)


def case_conformance(case: str, field: Field) -> tuple[DoubleConstruction, list[dict]]:
    """Assemble a catalogued case's double and diff it against its table."""
    primal, dual = case_inputs(case, field)
    double = assemble_prejj_double(primal, dual)
    return double, conformance_diff(double, case_table(case))
