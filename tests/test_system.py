import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vanvisc.errors import BadParameter, GNLViolation, NonHyperbolic, OutOfDomain
from vanvisc.system import (SystemModel, check_genuine_nonlinearity, eigen_frame,
                            grad_lambda_fd, max_abs_eigenvalue, preset_model, wave_speeds)

PRESETS = {"burgers": preset_model("burgers"), "p_system": preset_model("p_system")}


@st.composite
def preset_stacks(draw):
    """A preset and a stack of states inside its domain box, batch shape of
    up to two axes."""
    name = draw(st.sampled_from(sorted(PRESETS)))
    model = PRESETS[name]
    batch = draw(st.lists(st.integers(1, 4), min_size=0, max_size=2))
    cols = [draw(arrays(float, tuple(batch), elements=st.floats(lo, hi)))
            for lo, hi in model.domain_box]
    return model, np.stack(cols, axis=-1)


def _assert_rows_match(stacked, single, model):
    # Burgers needs no power.  numpy's vectorised power (SIMD on AVX-512) may
    # round the p-system's powers of v one unit in the last place away from
    # the scalar power that single states use; the product with
    # sqrt(gamma k) in lambda_fn can turn that into two
    if model.name == "burgers":
        assert np.array_equal(stacked, single)
    else:
        np.testing.assert_array_max_ulp(stacked, single, maxulp=2)


@settings(max_examples=60, deadline=None)
@given(preset_stacks())
def test_stack_rows_match_single_state_calls(case):
    model, u = case
    n = model.n
    F, J, L = model.flux(u), model.jacobian(u), model.lambda_fn(u)
    assert F.shape == u.shape and L.shape == u.shape
    assert J.shape == u.shape + (n,)
    for idx in np.ndindex(u.shape[:-1]):
        _assert_rows_match(F[idx], model.flux(u[idx]), model)
        _assert_rows_match(J[idx], model.jacobian(u[idx]), model)
        _assert_rows_match(L[idx], model.lambda_fn(u[idx]), model)


@settings(max_examples=60, deadline=None)
@given(preset_stacks())
def test_lambda_fn_matches_eigen_frame(case):
    # row i of eigen_frame is an eigenvector of the jacobian for the i-th
    # wave speed: lambda_fn's, and the eigvals of a model without lambda_fn
    model, u = case
    bare = SystemModel(n=model.n, flux=model.flux, jacobian=model.jacobian,
                       domain_box=model.domain_box)
    for idx in np.ndindex(u.shape[:-1]):
        J = model.jacobian(u[idx])
        for m in (model, bare):
            R = eigen_frame(m, u[idx])
            lam = wave_speeds(m, u[idx])
            assert R.shape == (model.n, model.n)
            for i in range(model.n):
                np.testing.assert_allclose(J @ R[i], lam[i] * R[i], rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(preset_stacks())
def test_eigvals_fallback_matches_closed_form(case):
    model, u = case
    bare = SystemModel(n=model.n, flux=model.flux, jacobian=model.jacobian,
                       domain_box=model.domain_box)
    got = max_abs_eigenvalue(bare, u)
    assert got.shape == u.shape[:-1]
    np.testing.assert_allclose(got, max_abs_eigenvalue(model, u), rtol=1e-12, atol=1e-12)
    # ascending eigenvalues, stacked and one state at a time
    lam = wave_speeds(bare, u)
    assert lam.shape == u.shape
    np.testing.assert_allclose(lam, wave_speeds(model, u), rtol=1e-12, atol=1e-12)
    for idx in np.ndindex(u.shape[:-1]):
        one = wave_speeds(bare, u[idx])
        assert one.shape == (model.n,) and np.all(np.diff(one) >= 0)
        np.testing.assert_allclose(one, wave_speeds(model, u[idx]), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(one, lam[idx], rtol=1e-12, atol=1e-12)


def test_burgers_frame_examples():
    b = preset_model("burgers")
    for u in (0.7, 0.0):
        assert eigen_frame(b, np.array([u])) == pytest.approx(np.array([[1.0]]), abs=1e-12)


def test_p_system_frame_at_reference_state():
    p = preset_model("p_system", gamma=2, k=1)
    u = np.array([1.0, 0.0])
    R = eigen_frame(p, u)
    # lambda_{1,2} = -/+ sqrt(2) at v = 1 with eigenvectors along
    # (1, -lambda_i), and grad lambda_{1,2} = (+/- 3/sqrt(2), 0)
    r2 = np.sqrt(2.0)
    assert R == pytest.approx(np.array([[r2, 2.0], [-r2, 2.0]]) / 3.0, abs=1e-12)
    lam = np.array([-r2, r2])
    for i in range(2):
        assert p.jacobian(u) @ R[i] == pytest.approx(lam[i] * R[i], abs=1e-12)
        # finite-difference normalization oracle
        g = grad_lambda_fd(p, u, i)
        assert float(g @ R[i]) == pytest.approx(1.0, abs=1e-5)


def test_eigen_normalization_and_duality_on_samples():
    p = preset_model("p_system", gamma=2, k=1)
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = np.array([rng.uniform(0.6, 1.9), rng.uniform(-1.5, 1.5)])
        R = eigen_frame(p, u)
        lam = wave_speeds(p, u)
        assert np.all(np.diff(lam) > 0)
        for i in range(2):
            assert float(grad_lambda_fd(p, u, i) @ R[i]) == pytest.approx(1.0, abs=1e-5)
        # the dual basis solve_riemann builds: its rows are left eigenvectors
        L = np.linalg.inv(R.T)
        assert L @ R.T == pytest.approx(np.eye(2), abs=1e-10)
        for i in range(2):
            assert L[i] @ p.jacobian(u) == pytest.approx(lam[i] * L[i], abs=1e-10)


def test_jacobian_matches_flux_fd():
    for model in (preset_model("burgers"), preset_model("p_system")):
        rng = np.random.default_rng(1)
        lo = np.array([b[0] for b in model.domain_box])
        hi = np.array([b[1] for b in model.domain_box])
        for _ in range(20):
            u = lo + (hi - lo) * rng.uniform(0.1, 0.9, model.n)
            J = model.jacobian(u)
            for k in range(model.n):
                e = np.zeros(model.n)
                e[k] = 1e-6
                col = (model.flux(u + e) - model.flux(u - e)) / 2e-6
                assert col == pytest.approx(J[:, k], rel=1e-6, abs=1e-8)


def test_preset_examples_and_errors():
    b = preset_model("burgers")
    assert b.n == 1
    assert b.flux(np.array([2.0]))[0] == pytest.approx(2.0)
    p = preset_model("p_system", gamma=2, k=1)
    assert p.n == 2
    assert p.flux(np.array([1.0, 0.3])) == pytest.approx([-0.3, 1.0])
    with pytest.raises(BadParameter):
        preset_model("p_system", gamma=1.0, k=1)
    with pytest.raises(BadParameter):
        preset_model("p_system", gamma=2.0, k=0.0)
    with pytest.raises(BadParameter):
        preset_model("unknown")


def test_gnl_check_burgers_min_is_one():
    rep = check_genuine_nonlinearity(preset_model("burgers"), samples=100)
    assert rep["gnl_min"][0] == pytest.approx(1.0, abs=1e-9)


def test_gnl_check_p_system_strictly_positive():
    rep = check_genuine_nonlinearity(preset_model("p_system"), samples=100)
    assert np.all(rep["gnl_min"] > 0.1)
    assert rep["min_gap"] > 0.5


def test_gnl_violation_for_linearly_degenerate_model():
    model = SystemModel(
        n=1,
        flux=lambda u: np.array([2.0 * u[0]]),
        jacobian=lambda u: np.array([[2.0]]),
        domain_box=((-1.0, 1.0),),
        name="degenerate",
    )
    with pytest.raises(GNLViolation):
        check_genuine_nonlinearity(model, samples=10)


def test_eigen_frame_errors():
    p = preset_model("p_system")
    with pytest.raises(OutOfDomain):
        eigen_frame(p, np.array([0.1, 0.0]))
    twin = SystemModel(
        n=2,
        flux=lambda u: u.copy(),
        jacobian=lambda u: np.eye(2),
        domain_box=((-1, 1), (-1, 1)),
        name="twin",
    )
    with pytest.raises(NonHyperbolic):
        eigen_frame(twin, np.array([0.0, 0.0]))
