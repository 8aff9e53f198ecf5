"""Properties every sampled certificate keeps, over generated seeds and budgets.

All five certifiers share one loop, so the same three facts must hold for each:
re-evaluating the witness reproduces ``max_violation`` exactly, the sample
count is the deterministic special candidates plus the requested budget, and
the same seed gives an equal certificate.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from fixiter import (
    MappingMeta,
    PhiSpec,
    Schedule,
    certify_asymptotically_nonexpansive,
    certify_condition_I,
    certify_nearly_nonexpansive,
    certify_nonexpansive,
    certify_uniform_lipschitz,
    distance_to_fixed_set,
    fixed_point_residual,
    make_asymptotically_nonexpansive_example,
    make_example21,
    make_identity,
    make_linear_contraction,
)
from fixiter.mappings import (
    asymptotically_nonexpansive_violation,
    nearly_nonexpansive_violation,
    uniform_lipschitz_violation,
)

PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
budgets = st.integers(min_value=1, max_value=60)
n_maxes = st.integers(min_value=1, max_value=6)
ratios = st.floats(min_value=0.05, max_value=0.95)
dims = st.integers(min_value=1, max_value=3)

# example21 on [0, 1]: the extremes pair plus the two in-domain neighbours of
# the jump at 1; as points, also the jump itself and the fixed point 0.
EXAMPLE21_SPECIAL_PAIRS = 3
EXAMPLE21_SPECIAL_POINTS = 6


def _check_repeatable(certify, *args):
    first = certify(*args)
    assert certify(*args) == first
    return first


@PROPERTY_SETTINGS
@given(q=ratios, budget=budgets, seed=seeds)
def test_nonexpansive_certificate(q, budget, seed):
    m = make_example21(q)
    cert = _check_repeatable(certify_nonexpansive, m, budget, seed)
    w = cert.witness
    assert uniform_lipschitz_violation(m, 1.0, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == EXAMPLE21_SPECIAL_PAIRS + budget


@PROPERTY_SETTINGS
@given(q=ratios, n_max=n_maxes, budget=budgets, seed=seeds)
def test_nearly_nonexpansive_certificate(q, n_max, budget, seed):
    m = make_example21(q)
    a = Schedule.geometric(q)
    cert = _check_repeatable(certify_nearly_nonexpansive, m, a, n_max, budget, seed)
    w = cert.witness
    assert nearly_nonexpansive_violation(m, a, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == EXAMPLE21_SPECIAL_PAIRS * n_max + budget


@PROPERTY_SETTINGS
@given(q=ratios, dim=dims, n_max=n_maxes, budget=budgets, seed=seeds)
def test_uniform_lipschitz_certificate(q, dim, n_max, budget, seed):
    m = make_linear_contraction(q, dim)
    cert = _check_repeatable(certify_uniform_lipschitz, m, 1.0, n_max, budget, seed)
    w = cert.witness
    assert uniform_lipschitz_violation(m, 1.0, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == n_max + budget  # the ball has no discontinuities


@PROPERTY_SETTINGS
@given(dim=dims, n_max=n_maxes, budget=budgets, seed=seeds)
def test_asymptotically_nonexpansive_certificate(dim, n_max, budget, seed):
    m = make_asymptotically_nonexpansive_example(dim)
    k = Schedule.table((1.2, 1.0))
    cert = _check_repeatable(certify_asymptotically_nonexpansive, m, k, n_max, budget, seed)
    w = cert.witness
    assert asymptotically_nonexpansive_violation(m, k, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == n_max + budget


@PROPERTY_SETTINGS
@given(q=ratios, lam=st.floats(min_value=0.01, max_value=2.0), budget=budgets, seed=seeds)
def test_condition_I_certificate(q, lam, budget, seed):
    m = make_example21(q)
    phi = PhiSpec("linear", lam=lam)
    cert = _check_repeatable(certify_condition_I, m, phi, budget, seed)
    x = cert.witness.x
    assert phi(distance_to_fixed_set(m, x)) - fixed_point_residual(m, x) == cert.max_violation
    assert cert.sample_count == EXAMPLE21_SPECIAL_POINTS + budget


def test_has_fixed_set():
    assert make_example21(0.5).has_fixed_set  # declared fixed point 0
    assert make_identity(2).has_fixed_set  # every point is fixed
    assert not replace(make_example21(0.5), meta=MappingMeta()).has_fixed_set

