import sklift

# the public names as they stood before test-only code left the package
PUBLIC_NAMES = [
    "EigenvalueRecord", "EllipticEigenform", "EllipticForm",
    "HeckeDoubleCoset", "JacobiForm", "PlusSpaceForm", "QSeries", "QuadExt",
    "RatMatrix", "Rational", "SatakeParams", "SiegelFourierTable", "SiegelIndex",
    "SpinEulerData", "characterize", "check_maass_p_space", "check_maass_space",
    "coset_decomposition_Tp", "cusp_basis", "delta",
    "dim_cusp_forms", "eigenforms", "eisenstein", "elliptic", "errors", "ez_lift",
    "growth_check", "hecke_Tp", "hecke_eigenvalue", "hecke_operator", "jacobi",
    "kohnen", "kronecker_symbol", "maass_lift", "mu_sequence", "numeric",
    "plus_eigenforms", "plus_hecke", "plus_space_basis", "positivity_scan",
    "qseries", "record_from_pair", "reduce_index", "shimura_match", "siegel",
    "sk_record", "solve_satake", "theorem41", "theta_series",
]


def test_public_names_stay_importable():
    assert len(PUBLIC_NAMES) == 49
    assert set(PUBLIC_NAMES) <= set(sklift.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(sklift, name) is not None, name
