"""Exact-arithmetic Saito-Kurokawa lifts and their eigenvalue characterizations."""

__version__ = "0.1.0"

from .numeric import QuadExt, kronecker_symbol
from .qseries import QSeries, RatMatrix
from .elliptic import (
    EllipticEigenform,
    EllipticForm,
    delta,
    dim_cusp_forms,
    eigenforms,
    eisenstein,
)
from .kohnen import (
    PlusSpaceForm,
    plus_hecke,
    plus_space_basis,
    shimura_match,
)
from .jacobi import JacobiForm, ez_lift
from .siegel import (
    SiegelFourierTable,
    check_maass_p_space,
    check_maass_space,
    hecke_eigenvalue,
    hecke_operator,
    maass_lift,
    reduce_index,
)
from .characterize import (
    EigenvalueRecord,
    SatakeParams,
    growth_check,
    mu_sequence,
    positivity_scan,
    record_from_pair,
    sk_record,
    solve_satake,
    theorem41,
)

__all__ = [name for name in dir() if not name.startswith("_")]
