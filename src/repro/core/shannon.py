"""SHANNON-class measures: gS1, FI, RFI+, RFI'+ and SFIα.

These measures are based on Shannon entropy and mutual information
(Section IV-C of the paper).  RFI+ and the paper's new normalised variant
RFI'+ correct the fraction of information for its chance-level value
under random (X; Y)-permutations, computed exactly from the hypergeometric
model; SFIα is computed in closed form from the observed cells, without
materialising the smoothed ``|dom X| x |dom Y|`` table.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.base import AfdMeasure, MeasureClass
from repro.core.expectations import expected_fraction_of_information
from repro.core.statistics import FdStatistics
from repro.info.shannon import DEFAULT_LOG_BASE


class GS1Measure(AfdMeasure):
    """gS1: the Shannon counterpart of g1 (new measure introduced by the paper).

    ``gS1(X -> Y, R) = max(1 - H_R(Y | X), 0)``.  The conditional entropy is
    unbounded, hence the truncation at zero.  The logarithm base matters for
    this measure (it is not cancelled by a normalisation); base 2 is used by
    default.
    """

    name = "gS1"
    description = "max(1 - H(Y|X), 0): Shannon counterpart of g1"
    measure_class = MeasureClass.SHANNON
    has_baselines = True

    def __init__(self, base: float = DEFAULT_LOG_BASE):
        self.base = base

    def _score_violated(self, statistics: FdStatistics) -> float:
        return max(1.0 - statistics.shannon_conditional_entropy(base=self.base), 0.0)


class FIMeasure(AfdMeasure):
    """Fraction of information FI (Cavallo & Pittarelli; Giannella & Robertson).

    ``FI(X -> Y, R) = (H_R(Y) - H_R(Y | X)) / H_R(Y) = I_R(X; Y) / H_R(Y)``
    — the proportional reduction in uncertainty about Y achieved by
    knowing X.  Baselines are the relations where X and Y are independent.
    """

    name = "fi"
    description = "fraction of information I(X;Y) / H(Y)"
    measure_class = MeasureClass.SHANNON
    has_baselines = True

    def _score_violated(self, statistics: FdStatistics) -> float:
        h_y = statistics.shannon_entropy_y()
        if h_y <= 0.0:
            # |dom_R(Y)| = 1 implies the FD is satisfied (handled centrally).
            return 1.0
        return 1.0 - statistics.shannon_conditional_entropy() / h_y


class _PermutationCorrectedMeasure(AfdMeasure):
    """Shared machinery for RFI+ and RFI'+ (the cached permutation expectation)."""

    measure_class = MeasureClass.SHANNON
    has_baselines = True
    efficiently_computable = False

    def _fi_and_expectation(self, statistics: FdStatistics) -> tuple:
        h_y = statistics.shannon_entropy_y()
        if h_y <= 0.0:
            return 1.0, 1.0
        fi = 1.0 - statistics.shannon_conditional_entropy() / h_y
        # The permutation expectation dominates the cost of RFI+/RFI'+ and
        # is identical for both (it only depends on the marginals), so it
        # is cached on the shared statistics object.
        expected_fi = statistics._cached(
            "E_fi", lambda: expected_fraction_of_information(statistics)
        )
        return fi, expected_fi


class RfiPlusMeasure(_PermutationCorrectedMeasure):
    """RFI+: reliable fraction of information, truncated at zero.

    ``RFI(X -> Y, R) = FI(X -> Y, R) - E_R[FI(X -> Y, R)]`` (Mandros et
    al.); the expectation is over random (X; Y)-permutations.  Negative
    values (weak evidence) are mapped to zero.
    """

    name = "rfi_plus"
    description = "FI minus its permutation-model expectation, clipped at 0"

    def _score_violated(self, statistics: FdStatistics) -> float:
        fi, expected_fi = self._fi_and_expectation(statistics)
        return max(fi - expected_fi, 0.0)


class RfiPrimePlusMeasure(_PermutationCorrectedMeasure):
    """RFI'+: the paper's new normalised variant of RFI.

    ``RFI'(X -> Y, R) = (FI - E_R[FI]) / (1 - E_R[FI])``, clipped at zero.
    The best-ranking measure on the paper's real-world benchmark, at the
    cost of the same heavy expectation computation as RFI+.
    """

    name = "rfi_prime_plus"
    description = "normalised reliable FI: (FI - E[FI]) / (1 - E[FI]), clipped at 0"

    def _score_violated(self, statistics: FdStatistics) -> float:
        fi, expected_fi = self._fi_and_expectation(statistics)
        denominator = 1.0 - expected_fi
        if denominator <= 0.0:
            return 1.0
        return max((fi - expected_fi) / denominator, 0.0)


class SfiMeasure(AfdMeasure):
    """SFIα: smoothed fraction of information (Pennerath et al.).

    ``SFI_α(X -> Y, R) = FI(X -> Y, π^(α)_{XY}(R))`` where the projection
    onto XY receives ``α`` pseudo-counts for every combination of active
    domain values.  The paper evaluates α ∈ {0.5, 1, 2} and reports α = 0.5
    as the consistently best setting.
    """

    name = "sfi"
    description = "fraction of information on the Laplace-smoothed XY projection"
    measure_class = MeasureClass.SHANNON
    has_baselines = True
    efficiently_computable = False

    def __init__(self, alpha: float = 0.5):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.name = f"sfi_{alpha:g}" if alpha != 0.5 else "sfi"

    def _score_violated(self, statistics: FdStatistics) -> float:
        # Every cell of dom(X) x dom(Y) holds its count plus alpha; the
        # |X||Y| - |XY| unobserved cells all hold alpha alone, so they
        # contribute one term times their number.
        alpha = self.alpha
        width = statistics.distinct_x
        height = statistics.distinct_y
        total = statistics.num_rows + alpha * width * height
        h_y = _entropy((count + alpha * width for count in statistics.y_counts.values()), total)
        if h_y <= 0.0:
            return 1.0
        h_x = _entropy((count + alpha * height for count in statistics.x_counts.values()), total)
        h_xy = _entropy(
            (count + alpha for count in statistics.xy_counts.values()),
            total,
            empty_cells=width * height - statistics.distinct_xy,
            alpha=alpha,
        )
        h_y_given_x = max(h_xy - h_x, 0.0)
        return 1.0 - h_y_given_x / h_y


def _entropy(
    pseudo_counts: Iterable[float], total: float, empty_cells: int = 0, alpha: float = 0.0
) -> float:
    """Base-2 entropy of ``pseudo_counts`` plus ``empty_cells`` cells of ``alpha``.

    ``total`` is the sum of all of them.  ``math.fsum`` makes the result
    independent of the order of the counts.
    """
    terms = [-(count / total) * math.log2(count / total) for count in pseudo_counts]
    if empty_cells:
        probability = alpha / total
        terms.append(-empty_cells * probability * math.log2(probability))
    return max(math.fsum(terms), 0.0)
