"""Module-level relational operations and grouping helpers.

The AFD measures of :mod:`repro.core` are all functions of three families
of counts derived from a relation ``R`` and an FD ``X -> Y``:

* ``marginal_counts(R, X)`` — the multiplicity of each distinct ``x``;
* ``marginal_counts(R, Y)`` — the multiplicity of each distinct ``y``;
* ``joint_counts(R, X, Y)`` — the multiplicity of each distinct ``(x, y)``;
* ``group_counts(R, X, Y)`` — the same information grouped per ``x``.

These helpers centralise the computation so measures never have to touch
raw rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Sequence

from repro.relation.attribute import canonical_attributes
from repro.relation.relation import Relation, Row


def project(relation: Relation, attributes: Iterable[str] | str) -> Relation:
    """Functional wrapper around :meth:`Relation.project`."""
    return relation.project(attributes)


def select_equal(
    relation: Relation, attributes: Iterable[str] | str, values: Sequence[object]
) -> Relation:
    """Functional wrapper around :meth:`Relation.select_equal`."""
    return relation.select_equal(attributes, values)


def marginal_counts(relation: Relation, attributes: Iterable[str] | str) -> Counter:
    """Multiplicities of the distinct projected tuples on ``attributes``."""
    return relation.frequencies(attributes)


def joint_counts(
    relation: Relation, lhs: Iterable[str] | str, rhs: Iterable[str] | str
) -> Counter:
    """Multiplicities of distinct ``(x, y)`` pairs for ``lhs``/``rhs``.

    Keys are ``(x, y)`` with ``x`` and ``y`` tuples over the canonical
    attribute orderings of ``lhs`` and ``rhs``.
    """
    lhs_key = canonical_attributes(lhs)
    rhs_key = canonical_attributes(rhs)
    lhs_indices = relation._attribute_indices(lhs_key)
    rhs_indices = relation._attribute_indices(rhs_key)
    counter: Counter = Counter()
    for row in relation:
        x = tuple(row[i] for i in lhs_indices)
        y = tuple(row[i] for i in rhs_indices)
        counter[(x, y)] += 1
    return counter


def group_counts(
    relation: Relation, lhs: Iterable[str] | str, rhs: Iterable[str] | str
) -> Dict[Row, Counter]:
    """Per-``x`` counters of ``y`` values.

    Returns a mapping ``x -> Counter({y: multiplicity})``; the total over a
    counter equals the multiplicity of the group ``x``.
    """
    groups: Dict[Row, Counter] = {}
    for (x, y), count in joint_counts(relation, lhs, rhs).items():
        groups.setdefault(x, Counter())[y] += count
    return groups

