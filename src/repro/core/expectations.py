"""Expected measure values under random (X; Y)-permutations.

Several measures correct for chance agreement by subtracting or
normalising with the expected value of a base quantity over all
*(X; Y)-permutations* of the relation (Definition 1 of the paper):
relations with identical marginals on ``X``, on ``Y`` and on the
remaining attributes.

* ``μ`` normalises ``pdep`` with ``E_R[pdep]`` which has the closed form
  of Theorem 1 (Piatetsky-Shapiro & Matheus).
* ``RFI`` and ``RFI'`` correct ``FI`` with ``E_R[FI] = E_R[I(X;Y)] / H(Y)``
  (``H(Y)`` is invariant under the permutations).  The expected mutual
  information under the fixed-marginals permutation model has an exact
  hypergeometric expression (Roulston 1999; Vinh, Epps & Bailey, JMLR
  2010; the quantity behind Mandros et al.'s reliable FI, KDD 2017).  It
  depends only on the marginal count *values*, so it is summed over the
  distinct counts ("count spectra") weighted by their multiplicities —
  the same exact value at a fraction of the cost of one term per pair
  of domain values.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

from repro.core.statistics import FdStatistics
from repro.info.shannon import DEFAULT_LOG_BASE


# ----------------------------------------------------------------------
# Closed forms for pdep / tau (Theorem 1)
# ----------------------------------------------------------------------
def expected_pdep(statistics: FdStatistics) -> float:
    """``E_R[pdep(X -> Y, R)]`` via Theorem 1.

    ``E[pdep] = pdep(Y) + (K - 1)/(N - 1) * (1 - pdep(Y))`` with
    ``K = |dom_R(X)|`` and ``N = |R|``.  Requires ``N >= 2``.
    """
    n = statistics.num_rows
    k = statistics.distinct_x
    pdep_y = statistics.sum_squared_y_probabilities()
    if n <= 1:
        return 1.0
    return pdep_y + (k - 1) / (n - 1) * (1.0 - pdep_y)


def expected_tau(statistics: FdStatistics) -> float:
    """``E_R[τ(X -> Y, R)] = (|dom_R(X)| - 1) / (|R| - 1)`` (Theorem 1)."""
    n = statistics.num_rows
    k = statistics.distinct_x
    if n <= 1:
        return 1.0
    return (k - 1) / (n - 1)


# ----------------------------------------------------------------------
# Expected mutual information under the permutation model
# ----------------------------------------------------------------------
def expected_mutual_information_exact(
    x_counts: Iterable[int],
    y_counts: Iterable[int],
    base: float = DEFAULT_LOG_BASE,
) -> float:
    """Exact ``E[I(X; Y)]`` under random permutations with fixed marginals.

    For marginal counts ``a_i`` (of ``X``) and ``b_j`` (of ``Y``) summing to
    ``N``, the cell count ``n_ij`` follows a hypergeometric distribution and

        E[I] = Σ_i Σ_j Σ_{n_ij} (n_ij / N) log(N n_ij / (a_i b_j)) P(n_ij)

    with ``P(n_ij) = C(b_j, n_ij) C(N - b_j, a_i - n_ij) / C(N, a_i)``.

    The inner sum depends on ``(a_i, b_j)`` only through their values, so
    the double sum runs over the distinct counts ``a`` and ``b`` (in
    sorted order) and weights each pair by the product of how many
    ``X`` and ``Y`` values have those counts.  The result does not
    depend on the order of the inputs.  The log-factorial table makes
    the cost O(N) in memory.
    """
    a_spectrum = Counter(int(count) for count in x_counts if count > 0)
    b_spectrum = Counter(int(count) for count in y_counts if count > 0)
    n = sum(a * multiplicity for a, multiplicity in a_spectrum.items())
    if n == 0 or n != sum(b * multiplicity for b, multiplicity in b_spectrum.items()):
        raise ValueError("x_counts and y_counts must be non-empty and sum to the same total")
    if n == 1:
        return 0.0
    log_base = math.log(base)
    log_factorial = [0.0] * (n + 1)
    for value in range(2, n + 1):
        log_factorial[value] = log_factorial[value - 1] + math.log(value)

    def log_choose(total: int, chosen: int) -> float:
        return log_factorial[total] - log_factorial[chosen] - log_factorial[total - chosen]

    expected = 0.0
    log_n = math.log(n)
    b_values = sorted(b_spectrum)
    for a_i in sorted(a_spectrum):
        log_denominator = log_choose(n, a_i)
        for b_j in b_values:
            pair = 0.0
            for n_ij in range(max(a_i + b_j - n, 1), min(a_i, b_j) + 1):
                probability = math.exp(
                    log_choose(b_j, n_ij) + log_choose(n - b_j, a_i - n_ij) - log_denominator
                )
                pair += probability * (n_ij / n) * (
                    (log_n + math.log(n_ij) - math.log(a_i) - math.log(b_j)) / log_base
                )
            expected += a_spectrum[a_i] * b_spectrum[b_j] * pair
    return max(expected, 0.0)


def expected_fraction_of_information(
    statistics: FdStatistics, base: float = DEFAULT_LOG_BASE
) -> float:
    """``E_R[FI(X -> Y, R)] = E_R[I(X;Y)] / H_R(Y)`` under permutations.

    ``H_R(Y)`` is invariant under (X; Y)-permutations, so the expectation
    only involves the mutual information.
    """
    h_y = statistics.shannon_entropy_y(base=base)
    if h_y <= 0.0:
        return 1.0
    expected_mi = expected_mutual_information_exact(
        statistics.x_counts.values(), statistics.y_counts.values(), base=base
    )
    return min(expected_mi / h_y, 1.0)


def expected_value_by_enumeration(
    joint_counts: Mapping, statistic, max_relation_size: int = 9
) -> float:
    """Brute-force expectation of ``statistic`` over all (X; Y)-permutations.

    Enumerates every distinct pairing of the materialised X and Y columns
    (all ``N!`` permutations of the Y column, deduplicated by multiset of
    pairs is *not* applied — each permutation is weighted equally, matching
    Definition 1).  Only feasible for tiny relations; used by the test
    suite to validate the closed-form and hypergeometric expectations.
    """
    import itertools

    x_column = []
    y_column = []
    for (x, y), count in joint_counts.items():
        x_column.extend([x] * count)
        y_column.extend([y] * count)
    n = len(x_column)
    if n > max_relation_size:
        raise ValueError(
            f"brute-force enumeration limited to relations of size <= {max_relation_size}"
        )
    total = 0.0
    count = 0
    for permutation in itertools.permutations(range(n)):
        joint: dict = {}
        for position, target in enumerate(permutation):
            key = (x_column[position], y_column[target])
            joint[key] = joint.get(key, 0) + 1
        total += statistic(joint)
        count += 1
    return total / count
