"""Weight-k, index-1 cuspidal Jacobi forms as discriminant-indexed tables.

For index 1 a coefficient c(n, r) depends only on 4n - r*r (the parity of r
is forced by the discriminant mod 4), so the whole form is stored as a map
from positive discriminants to exact values.  No two-variable expansion is
ever materialized; the table is exactly what the degree-2 lift consumes.
"""

from __future__ import annotations

from .errors import UsageError
from .kohnen import PlusSpaceForm


class JacobiForm:
    """An index-1 cuspidal Jacobi form, keyed by discriminant 4n - r*r."""

    __slots__ = ("weight", "max_disc", "by_disc")

    index = 1

    def __init__(self, weight: int, by_disc: dict[int, object], max_disc: int):
        for disc in by_disc:
            if disc <= 0 or disc % 4 not in (0, 3):
                raise UsageError(f"impossible index-1 discriminant {disc}")
            if disc > max_disc:
                raise UsageError(f"table entry {disc} beyond claimed range {max_disc}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "max_disc", max_disc)
        object.__setattr__(
            self, "by_disc", {d: v for d, v in by_disc.items() if v != 0}
        )

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("JacobiForm values are immutable")


def ez_lift(g: PlusSpaceForm) -> JacobiForm:
    """Index-1 Jacobi form with c(n, r) equal to the plus-space coefficient at 4n - r*r.

    The map is a plain re-indexing of coefficient data; it is a bijection on
    everything the rest of the chain reads.  A plus-space form is zero off the
    discriminants, so its nonzero coefficients are the table.
    """
    by_disc = {disc: v for disc, v in enumerate(g.series.coeffs) if v != 0}
    return JacobiForm(g.k, by_disc, g.prec)

