"""Every model input ends in a number within contract or in a documented error."""

import contextlib
import io
import math
import warnings

import pytest
from hypothesis import Phase, event, given, settings, strategies as st

from thzris import (
    AbsorptionSpec,
    ActiveRisParams,
    CascadeMoments,
    ConvergenceError,
    DomainError,
    GammaFit,
    LinkGeometry,
    LinkModel,
    MisalignmentParams,
    QuadratureSpec,
    build_model,
    default_scenario,
    dump_config,
    ergodic_capacity,
    fit_gamma,
    misalignment_from_physical,
    reg_lower_gamma,
    snr_cdf,
)
from thzris.capacity import capacity_from_snr_cdf
from thzris.cli import main
from thzris.config import _KEYS, dbm_to_watts

from oracles import low_snr_series

LN2 = math.log(2.0)
# The whole-domain laws report a failing example as drawn: each shrink step
# reruns ergodic_capacity, so shrinking took minutes before the report.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)
DEFAULT_MODEL = build_model(default_scenario())


def _geometry(**overrides):
    fields = dict(g_a=1e3, g_b=1e3, f_hz=0.3e12, d_a_m=15.0, d_b_m=15.0)
    fields.update(overrides)
    return LinkGeometry(**fields)


def _ris(**overrides):
    fields = dict(num_elements=100, beta=2.0, p_s_w=1.0, sigma2_r_w=0.01, sigma2_u_w=0.01)
    fields.update(overrides)
    return ActiveRisParams(**fields)


def _physical(**overrides):
    fields = dict(r_m=0.1, u_m=0.2, v=0.3, sigma2=0.01)
    fields.update(overrides)
    return misalignment_from_physical(**fields)


# Every input that must be finite and > 0, or finite and >= 0 where zero is
# allowed: (name in the message, zero allowed, a call that checks the value).
FINITE_INPUTS = [
    pytest.param("beta", True, lambda v: _ris(beta=v), id="ris-beta"),
    pytest.param("p_s_w", False, lambda v: _ris(p_s_w=v), id="ris-p_s_w"),
    pytest.param("sigma2_r_w", True, lambda v: _ris(sigma2_r_w=v), id="ris-sigma2_r_w"),
    pytest.param("sigma2_u_w", False, lambda v: _ris(sigma2_u_w=v), id="ris-sigma2_u_w"),
    pytest.param("s", True, lambda v: snr_cdf(DEFAULT_MODEL, v), id="snr_cdf-s"),
    pytest.param(
        "snr_scale_hint", False, lambda v: capacity_from_snr_cdf(lambda s: 1.0, snr_scale_hint=v),
        id="capacity_from_snr_cdf-snr_scale_hint",
    ),
    pytest.param("shape", False, lambda v: GammaFit(shape=v, scale=1.0), id="fit-shape"),
    pytest.param("shape", False, lambda v: reg_lower_gamma(v, 1.0), id="reg_lower_gamma-shape"),
    pytest.param("argument", True, lambda v: reg_lower_gamma(1.0, v), id="reg_lower_gamma-argument"),
    pytest.param("scale", False, lambda v: GammaFit(shape=1.0, scale=v), id="fit-scale"),
    pytest.param(
        "mean_chi", False, lambda v: fit_gamma(CascadeMoments(1.0, 1.0, mean_chi=v, var_chi=1.0)),
        id="fit_gamma-mean_chi",
    ),
    pytest.param(
        "var_chi", False, lambda v: fit_gamma(CascadeMoments(1.0, 1.0, mean_chi=1.0, var_chi=v)),
        id="fit_gamma-var_chi",
    ),
    pytest.param("kappa", True, lambda v: AbsorptionSpec(kappa=v), id="absorption-kappa"),
    pytest.param(
        "table kappa", True, lambda v: AbsorptionSpec(table=((1e11, 0.0), (2e11, v))),
        id="absorption-table_kappa",
    ),
    pytest.param("zeta", False, lambda v: MisalignmentParams(phi=0.5, zeta=v), id="misalign-zeta"),
    pytest.param("abs_tol", False, lambda v: QuadratureSpec(abs_tol=v), id="quad-abs_tol"),
    pytest.param("rel_tol", False, lambda v: QuadratureSpec(rel_tol=v), id="quad-rel_tol"),
    *(
        pytest.param(name, False, lambda v, name=name: _geometry(**{name: v}), id=f"geometry-{name}")
        for name in ("g_a", "g_b", "f_hz", "d_a_m", "d_b_m")
    ),
    *(
        pytest.param(name, False, lambda v, name=name: _physical(**{name: v}), id=f"physical-{name}")
        for name in ("r_m", "u_m", "v", "sigma2")
    ),
]


@pytest.mark.parametrize("bad", ["nan", "inf", "edge"])
@pytest.mark.parametrize("name, allow_zero, check", FINITE_INPUTS)
def test_finite_input_message(name, allow_zero, check, bad):
    # The first invalid value is -1.0 where zero is allowed and 0.0 elsewhere.
    value = {"nan": math.nan, "inf": math.inf, "edge": -1.0 if allow_zero else 0.0}[bad]
    with pytest.raises(DomainError) as excinfo:
        check(value)
    bound = ">= 0" if allow_zero else "> 0"
    assert str(excinfo.value) == f"{name} must be finite and {bound}, got {value!r}"


# The scenario fields of the properties below: field -> scenario-file key,
# the first (linear) row of each field, not its dB spelling.
FIELD_KEYS = {}
for key, section, field, _ in _KEYS:
    if section in ("geometry", "absorption", "misalign", "ris"):
        FIELD_KEYS.setdefault(field, key)
# Quantities whose overflow is a DomainError of its own (capacity.LinkModel).
OVERFLOWING = ("path gain h_L", "mean SNR")


def test_field_keys_are_dumped_keys():
    dumped = {line.split(" = ")[0] for line in dump_config(default_scenario()).splitlines()}
    assert set(FIELD_KEYS.values()) <= dumped


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def scenarios(draw):
    """Scenario fields over the whole input domain, and the field replaced by
    a non-finite, zero or negative value (None in the other draws)."""
    fields = {
        "g_a": draw(_log_uniform(1e-3, 1e6)),
        "g_b": draw(_log_uniform(1e-3, 1e6)),
        "f_hz": draw(_log_uniform(0.1e12, 10e12)),
        "d_a_m": draw(_log_uniform(1e-3, 1e4)),
        "d_b_m": draw(_log_uniform(1e-3, 1e4)),
        "kappa": draw(st.floats(0.0, 1.0)),
        "phi": draw(_log_uniform(1e-3, 1.0)),
        "zeta": draw(_log_uniform(1e-3, 1e100)),
        "num_elements": round(draw(_log_uniform(1.0, 1e20))),
        "beta": draw(_log_uniform(1e-3, 1e6)),
        "p_s_w": dbm_to_watts(draw(st.floats(-100.0, 3100.0))),
        "sigma2_r_w": draw(_log_uniform(1e-20, 1e3)),
        "sigma2_u_w": draw(_log_uniform(1e-20, 1e3)),
    }
    replaced = draw(st.none() | st.sampled_from(sorted(fields)))
    if replaced is not None:
        fields[replaced] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]))
    return fields, replaced


def _model(fields):
    return LinkModel(
        geometry=LinkGeometry(**{f: fields[f] for f in ("g_a", "g_b", "f_hz", "d_a_m", "d_b_m")}),
        absorption=AbsorptionSpec(kappa=fields["kappa"]),
        misalign=MisalignmentParams(phi=fields["phi"], zeta=fields["zeta"]),
        ris=ActiveRisParams(
            **{f: fields[f] for f in ("num_elements", "beta", "p_s_w", "sigma2_r_w", "sigma2_u_w")}
        ),
    )


@pytest.mark.filterwarnings("ignore:amplification beta", "ignore:carrier frequency")
@settings(max_examples=40, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(draw=scenarios())
def test_whole_domain_ends_in_contract_or_documented_error(draw):
    fields, replaced = draw
    spec = QuadratureSpec()
    try:
        model = _model(fields)
        result = ergodic_capacity(model, spec)
    except DomainError as exc:
        event("DomainError")
        # A replaced field may hold a valid value (0 where zero is allowed).
        names = OVERFLOWING if replaced is None else (replaced, *OVERFLOWING)
        assert any(name in str(exc) for name in names), str(exc)
    except ConvergenceError as exc:
        event("ConvergenceError")
        assert exc.err_est > max(spec.abs_tol, spec.rel_tol * exc.value)
    else:
        capacity = result.capacity_bits
        event(f"capacity 1e{math.floor(math.log10(capacity))} bits" if capacity > 0.0 else "zero capacity")
        assert result.quad_err <= max(spec.abs_tol, spec.rel_tol * capacity)
        series, third = low_snr_series(model.mean_snr, model.fit.shape, model.misalign.zeta)
        if third <= spec.rel_tol * series:
            event("low-SNR series checked")
            assert abs(capacity * LN2 - series) <= result.quad_err * LN2 + third + 1e-15 * series


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(draw=scenarios())
def test_whole_domain_through_the_cli(tmp_path_factory, draw):
    # 200 trials in batches of 64 give every valid point four Monte-Carlo
    # batches to share between the workers; at M = 1e5 each sweep then takes
    # about 0.1 s of sampling instead of 1.1 s at 2,000 trials.
    fields, _ = draw
    path = tmp_path_factory.mktemp("domain") / "scenario.cfg"
    lines = [f"{FIELD_KEYS[field]} = {value!r}" for field, value in fields.items()]
    path.write_text("\n".join([*lines, "mc.batch = 64", ""]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, _ = _run(["capacity", "--config", str(path)])
        assert code in (0, 1, 2, 4)
        sweeps = []
        for workers in ("1", "2"):
            code, out = _run(["sweep", "--config", str(path), "--param", "M", "--values", "1,1e5",
                              "--with-mc", "--trials", "200", "--workers", workers])
            assert code in (0, 1, 2, 4)
            sweeps.append(out)
    assert sweeps[0] == sweeps[1]
