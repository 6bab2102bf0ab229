"""The parameter and result classes are immutable records: built by position
or keyword, equal and hashed by type and value, shown as
``Name(field=value, ...)``, and copied by ``replace``, which validates again."""

import pytest

from thzris import (
    AbsorptionSpec,
    ActiveRisParams,
    CapacityResult,
    CascadeMoments,
    DomainError,
    GammaFit,
    LinkGeometry,
    LinkModel,
    McConfig,
    McEstimate,
    MisalignmentParams,
    QuadratureSpec,
    ScenarioConfig,
    cascade_moments,
    default_scenario,
    fit_gamma,
)

DEFAULT = default_scenario()
LINK = (DEFAULT.geometry, DEFAULT.absorption, DEFAULT.misalign, DEFAULT.ris)
LINK_NAMES = ("geometry", "absorption", "misalign", "ris")

# (class, positional arguments, their parameter names, attributes derived from them)
RECORDS = [
    (ActiveRisParams, (100, 2.0, 1.0, 0.01, 0.01), ("num_elements", "beta", "p_s_w", "sigma2_r_w", "sigma2_u_w"), ()),
    (LinkModel, LINK, LINK_NAMES, ("h_l", "fit", "mean_snr")),
    (CapacityResult, (1.5, 1e-9), ("capacity_bits", "quad_err"), ()),
    (CascadeMoments, (78.5, 3.8, 6170.0, 2400.0), ("mean_s", "var_s", "mean_chi", "var_chi"), ()),
    (GammaFit, (0.5, 2.0), ("shape", "scale"), ()),
    (LinkGeometry, (1000.0, 1000.0, 0.3e12, 15.0, 15.0), ("g_a", "g_b", "f_hz", "d_a_m", "d_b_m"), ()),
    (AbsorptionSpec, (None, ((1e11, 0.0), (1e12, 0.1)), "/tables/h2o.csv"), ("kappa", "table", "source"), ()),
    (MisalignmentParams, (0.5, 2.0), ("phi", "zeta"), ()),
    (QuadratureSpec, (1e-12, 1e-9, 80), ("abs_tol", "rel_tol", "max_subdivisions"), ()),
    (McConfig, (1000, 7, 100), ("trials", "seed", "batch"), ()),
    (ScenarioConfig, (*LINK, DEFAULT.quad, DEFAULT.mc), (*LINK_NAMES, "quad", "mc"), ()),
    (McEstimate, (1.0, 0.01, 1000), ("mean", "std_error", "n"), ()),
]


@pytest.mark.parametrize("cls, args, names, derived", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_contract(cls, args, names, derived):
    record = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert record == by_keyword
    assert hash(record) == hash(by_keyword)

    same_values = type("Other", (cls,), {})(*args)
    assert record != same_values and same_values != record

    for change in (
        lambda: setattr(record, names[0], args[0]),
        lambda: setattr(record, "extra", 1),
        lambda: delattr(record, names[0]),
    ):
        with pytest.raises(AttributeError):
            change()

    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in (*names, *derived))
    assert repr(record) == f"{cls.__name__}({fields})"

    assert record.replace() == record


def test_equal_values_of_two_record_types_differ():
    assert MisalignmentParams(0.5, 2.0) != GammaFit(0.5, 2.0)
    assert repr(GammaFit(0.5, 2.0)) == "GammaFit(shape=0.5, scale=2.0)"


def test_replace_validates_and_derives_again():
    with pytest.raises(DomainError):
        DEFAULT.ris.replace(num_elements=0)
    model = LinkModel(*LINK)
    assert model.replace(ris=DEFAULT.ris.replace(num_elements=4)).fit == fit_gamma(cascade_moments(4))
