import math
import re
import warnings

import numpy as np
import pytest
from conftest import examples
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pursuitlab import (
    ExperimentConfig,
    GridCell,
    RicEstimate,
    SingularSupportError,
    SparseInstance,
    StoppingRule,
    SupportSet,
    audit_run,
    best_s_term,
    bounds_for,
    cosamp,
    delta_for_rho,
    derive_seed,
    error_envelope,
    exact_ric,
    least_squares_on_support,
    make_instance,
    rip_sandwich_check,
    sampled_ric_lower_bound,
    spectral_norm_symmetric,
    subspace_pursuit,
)
from pursuitlab import linalg
from pursuitlab.fileio import dump_json, recovery_payload


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestLeastSquares:
    def test_identity_block(self):
        phi = np.eye(4)
        y = np.array([1.0, -2.0, 3.0, 0.5])
        z = least_squares_on_support(phi, y, SupportSet.from_iterable([0, 1], 4))
        assert np.array_equal(z, [1.0, -2.0, 0.0, 0.0])

    def test_consistent_system_recovers_exactly(self):
        phi = rng(3).normal(size=(6, 8))
        x = np.zeros(8)
        x[[0, 3, 5]] = [1.0, -0.5, 2.0]
        t = SupportSet.from_iterable([0, 3, 5], 8)
        z = least_squares_on_support(phi, phi @ x, t)
        assert np.linalg.norm(z - x) <= 1e-10 * np.linalg.norm(x)

    def test_gradient_orthogonality(self):
        # At the minimum the residual is uncorrelated with the solved columns.
        phi = rng(4).normal(size=(6, 8))
        y = rng(5).normal(size=6)
        t = SupportSet.from_iterable([0, 3, 5], 8)
        z = least_squares_on_support(phi, y, t)
        grad = phi.T @ (y - phi @ z)
        scale = np.linalg.norm(phi, 2) * np.linalg.norm(y)
        assert np.abs(grad[t.as_array()]).max() <= 1e-10 * scale

    def test_zero_outside_support(self):
        phi = rng(6).normal(size=(5, 9))
        y = rng(7).normal(size=5)
        t = SupportSet.from_iterable([2, 4], 9)
        z = least_squares_on_support(phi, y, t)
        outside = np.delete(z, [2, 4])
        assert np.all(outside == 0.0)

    def test_idempotent(self):
        phi = rng(8).normal(size=(7, 10))
        y = rng(9).normal(size=7)
        t = SupportSet.from_iterable([1, 4, 8], 10)
        z = least_squares_on_support(phi, y, t)
        z2 = least_squares_on_support(phi, phi @ z, t)
        assert np.linalg.norm(z2 - z) <= 1e-10 * max(1.0, np.linalg.norm(z))

    def test_empty_support(self):
        phi = rng(10).normal(size=(3, 4))
        z = least_squares_on_support(phi, np.ones(3), SupportSet.empty(4))
        assert np.array_equal(z, np.zeros(4))

    def test_rank_deficient_raises(self):
        phi = rng(11).normal(size=(5, 6))
        phi[:, 3] = phi[:, 1]  # duplicated column
        t = SupportSet.from_iterable([1, 3], 6)
        with pytest.raises(SingularSupportError) as err:
            least_squares_on_support(phi, np.ones(5), t)
        assert err.value.support == t

    def test_more_columns_than_rows_raises(self):
        phi = rng(12).normal(size=(3, 8))
        with pytest.raises(SingularSupportError):
            least_squares_on_support(phi, np.ones(3), SupportSet.from_iterable(range(4), 8))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            least_squares_on_support(np.eye(3), np.ones(4), SupportSet.from_iterable([0], 3))

    def test_out_of_range(self):
        phi = np.zeros((2, 3)) + 1.0
        with pytest.raises(ValueError, match="column index 3 out of range"):
            least_squares_on_support(phi, np.ones(2), SupportSet.from_iterable([0, 3], 4))


def wrapper_least_squares(phi, y, t):
    """The kernel on numpy's public wrappers: the oracle of the gufunc route."""
    z = np.zeros(phi.shape[1])
    idx = t.as_array()
    q, r = np.linalg.qr(phi[:, idx], mode="reduced")
    diag = np.abs(np.diag(r))
    largest = diag.max()
    if largest == 0.0 or diag.min() < linalg.RANK_TOLERANCE * largest:
        raise SingularSupportError(t)
    z[idx] = np.linalg.solve(r, q.T @ y)
    return z


def outcome(solver, phi, y, t):
    """("ok", bytes of z), ("singular", support) or (exception type, message)."""
    try:
        return ("ok", solver(phi, y, t).tobytes())
    except SingularSupportError as err:
        return ("singular", err.support)
    except (np.linalg.LinAlgError, ValueError) as err:
        return (type(err), str(err))


@st.composite
def support_problems(draw):
    """(phi, y, t) with |t| = k <= m <= 64, square blocks included; y has exact
    zeros and -0.0; the block may hold a duplicate, a zero or a nearly
    dependent column; phi is scaled by 1e-160 up to 1e300, y by 1e-300 up to 1e300."""
    m = draw(st.integers(1, 64))
    k = draw(st.integers(1, m))
    n = k + draw(st.integers(0, 3))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    phi = g.normal(size=(m, n)) * draw(st.sampled_from([1.0, 1e-160, 1e150, 1e300]))
    idx = np.sort(g.choice(n, size=k, replace=False))
    i, j = idx[draw(st.integers(0, k - 1))], idx[draw(st.integers(0, k - 1))]
    flaw = draw(st.sampled_from(["none", "none", "duplicate", "zero", "near"]))
    if flaw == "duplicate":
        phi[:, j] = phi[:, i]
    elif flaw == "zero":
        phi[:, j] = 0.0
    elif flaw == "near" and i != j:
        phi[:, j] = phi[:, i] * (1.0 + 10.0 ** draw(st.integers(-16, -9)) * g.normal(size=m))
    y = g.normal(size=m) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    y[g.random(m) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = draw(st.sampled_from([0.0, -0.0]))
    return phi, y, SupportSet.from_iterable(idx.tolist(), n)


@settings(max_examples=examples(300), deadline=None)
@given(problem=support_problems())
def test_least_squares_is_the_wrappers_bit_for_bit(problem):
    # The gufunc route calls what np.linalg.qr and np.linalg.solve call, on
    # the same arrays in the same order: same bits, same sign of zeros, and
    # the same supports rejected as rank deficient.
    phi, y, t = problem
    assert outcome(least_squares_on_support, phi, y, t) == outcome(wrapper_least_squares, phi, y, t)


def test_singular_solve_raises_as_numpy_does():
    r, b = np.zeros((2, 2)), np.ones(2)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.solve(r, b)
    with pytest.raises(np.linalg.LinAlgError) as got, np.errstate(**linalg._SOLVE_ERRORS):
        np.linalg._umath_linalg.solve1(r, b, signature="dd->d")
    assert str(got.value) == str(want.value)


def _config(**fields):
    good = dict(
        experiment="phase-transition", algorithms=("SP",), grid=(GridCell(12, 24, 2, 0.0),),
        trials_per_cell=2, master_seed=1, output_path="out.csv",
    )
    return ExperimentConfig(**good | fields)


# Every public number argument: a call taking the value, the argument as its
# error message names it, a valid value (a float marks a real argument) and
# one out of range (None where every value of the type is valid; a grid
# cell's m, N and s are ranged together, as the cell).
NUMBER_ARGUMENTS = {
    "StoppingRule.epsilon": (lambda v: StoppingRule(epsilon=v), "epsilon", 1.0, -1.0),
    "StoppingRule.e_prime_norm_hint": (lambda v: StoppingRule(e_prime_norm_hint=v), "e_prime_norm_hint", 1.0, -1.0),
    "StoppingRule.epsilon_abs": (lambda v: StoppingRule(epsilon_abs=v), "epsilon_abs", 0.0, -1e-10),
    "make_instance.noise_sigma": (lambda v: make_instance("exact-sparse", 8, 16, 2, v, 0), "noise_sigma", 0.0, -0.1),
    "make_instance.seed": (lambda v: make_instance("exact-sparse", 8, 16, 2, 0.0, v), "seed", 3, -1),
    "bounds_for.delta": (lambda v: bounds_for("SP", v), "delta", 0.0, 1.0),
    "delta_for_rho.target_rho": (lambda v: delta_for_rho("SP", v), "target_rho", 1.0, 0.0),
    "error_envelope.n": (lambda v: error_envelope(bounds_for("SP", 0.2), v, 1.0, 0.0), "n", 2, -1),
    "error_envelope.x_s_norm": (lambda v: error_envelope(bounds_for("SP", 0.2), 2, v, 0.0), "x_s_norm", 1.0, -1.0),
    "error_envelope.e_prime_norm": (lambda v: error_envelope(bounds_for("SP", 0.2), 2, 1.0, v), "e_prime_norm", 0.0, -1.0),
    "exact_ric.budget": (lambda v: exact_ric(np.eye(4), 2, budget=v), "budget", 6, 0),
    "rip_sandwich_check.delta": (lambda v: rip_sandwich_check(np.eye(4), np.ones(4), v), "delta", 0.0, -0.1),
    "derive_seed.parts": (lambda v: derive_seed(7, v), "parts[1]", 3, None),
    "ExperimentConfig.success_threshold": (
        lambda v: _config(success_threshold=v), "'success_threshold'", 1.0, 0.0),
    "ExperimentConfig.trials_per_cell": (lambda v: _config(trials_per_cell=v), "'trials_per_cell'", 2, 0),
    "ExperimentConfig.master_seed": (lambda v: _config(master_seed=v), "'master_seed'", 1, None),
    "ExperimentConfig.ric_budget": (lambda v: _config(ric_budget=v), "'ric_budget'", 10, 0),
    "ExperimentConfig.deltas": (
        lambda v: _config(experiment="bounds-table", grid=(), deltas=(v,), families=("sp",)), "'deltas'", 0.0, 1.0),
    "GridCell.m": (lambda v: _config(grid=(GridCell(v, 24, 2, 0.0),)), "'m'", 12, None),
    "GridCell.N": (lambda v: _config(grid=(GridCell(12, v, 2, 0.0),)), "'N'", 24, None),
    "GridCell.s": (lambda v: _config(grid=(GridCell(12, 24, v, 0.0),)), "'s'", 2, None),
    "GridCell.noise_sigma": (lambda v: _config(grid=(GridCell(12, 24, 2, v),)), "'noise_sigma'", 0.0, -1e-3),
}


@pytest.mark.parametrize("call,name,valid,out_of_range", NUMBER_ARGUMENTS.values(), ids=NUMBER_ARGUMENTS)
def test_public_numbers_are_checked_at_the_boundary(call, name, valid, out_of_range):
    # A string, a bool, NaN, infinity or a value out of range is a ValueError
    # that names the argument, not a TypeError, a silent reading (True as 1,
    # "1" as 1, 1.5 as 1) or a NaN that every comparison lets through.
    for bad in ("0.5", True, np.nan, np.inf, out_of_range):
        if bad is not None:
            with pytest.raises(ValueError, match=re.escape(name) + " must be"):
                call(bad)
    # Python's and numpy's integers stay valid everywhere, numpy's floats
    # where a real number is asked for.
    for kind in (int, np.int64, np.uint64) + ((np.float32,) if isinstance(valid, float) else ()):
        call(kind(valid))


# One layout at the public boundary: as_matrix and as_vector return C-contiguous
# arrays, copying any other layout, so results depend only on the values.


def layouts(a):
    """``a`` (C-contiguous), an F-ordered copy and a view with a stride of two
    along the last axis, all holding the same values."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    return [a, np.asfortranarray(a), wide[..., ::2]]


def test_finite_check_takes_the_largest_floats_and_rejects_nonfinite():
    # The check is a logical reduction of np.isfinite: entries near the top
    # of the float range pass without an overflow warning (a sum of them
    # would overflow), and NaN or an infinity anywhere is rejected.
    for big in (1e308, -1e308, np.finfo(float).max):
        a, v = np.full((3, 4), big), np.full(5, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.as_matrix(a) is a and linalg.as_vector(v) is v
        for bad in (np.nan, np.inf, -np.inf):
            a[1, 2], v[3] = bad, bad
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                linalg.as_matrix(a)
            with pytest.raises(ValueError, match="^vector entries must be finite$"):
                linalg.as_vector(v)
            a[1, 2], v[3] = big, big


magnitudes = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                       st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0), st.integers(-160, 160))


@settings(max_examples=examples(300), deadline=None)
@given(v=arrays(np.float64, st.integers(1, 64), elements=magnitudes))
@example(v=np.full(3, 1e160))
@example(v=np.array([1e-160, -0.0, 1e154]))
def test_dot_norm_is_linalg_norm_bit_for_bit(v):
    # Residual, error and perturbation norms are math.sqrt(v.dot(v)), which is
    # what np.linalg.norm computes for a 1-d float vector: same bits, and the
    # same warning when the sum of squares overflows to inf.
    def norm(f):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = f(v)
        return np.float64(value).view(np.uint64), [str(w.message) for w in caught]

    assert norm(lambda u: math.sqrt(u.dot(u))) == norm(lambda u: float(np.linalg.norm(u)))


def test_as_matrix_and_as_vector_copy_only_other_layouts():
    a, v = rng(40).normal(size=(5, 7)), rng(41).normal(size=6)
    assert linalg.as_matrix(a) is a and linalg.as_vector(v) is v
    for got in [linalg.as_matrix(b) for b in layouts(a)] + [linalg.as_vector(w) for w in layouts(v)]:
        assert got.flags.c_contiguous
    assert np.array_equal(linalg.as_matrix(layouts(a)[2]), a)
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        linalg.as_vector(1.0)


@settings(max_examples=examples(60), deadline=None)
@given(m=st.integers(1, 300), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), layout=st.integers(0, 2))
@example(m=1, n=1, seed=0, layout=2)
@example(m=300, n=300, seed=0, layout=2)
@example(m=7, n=300, seed=1, layout=2)
def test_gram_of_as_matrix_is_bitwise_symmetric(m, n, seed, layout):
    # The RIC routines solve blocks of this product without symmetrising
    # them, which is sound only if BLAS returns it exactly symmetric (numpy
    # takes syrk and mirrors a triangle).  That depends on the platform, so
    # it is tested here; a strided view multiplied as it is fails it.
    a = linalg.as_matrix(layouts(rng(seed).normal(size=(m, n)))[layout])
    gram = a.T @ a
    assert gram.tobytes() == np.ascontiguousarray(gram.T).tobytes()


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=examples(20), deadline=None)
@given(m=st.integers(12, 32), extra=st.integers(0, 12), s=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_memory_layout(m, extra, s, seed):
    # The same values in C order, F order and a strided view give the same
    # bits in both RIC routines, in SP and CoSaMP runs and in their JSON, and
    # in the audits of runs with ground truth.
    g = rng(seed)
    n = m + extra
    phi = g.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    x = np.zeros(n)
    x[g.choice(n, s, replace=False)] = g.normal(size=s)
    e = 1e-3 * g.normal(size=m)
    y = phi @ x + e
    # The audit reads only the constant's value; its order covers both algorithms.
    delta = RicEstimate(4 * s, 0.3, "exact", SupportSet((), n), 0)
    outputs = []
    for a, v in zip(layouts(phi), layouts(y)):
        out = []
        for est in (exact_ric(a, 3), sampled_ric_lower_bound(a, 3, 200, seed)):
            out.append((bits(est.value), est.witness))
        instance = SparseInstance(x, s, a, e, v, best_s_term(x, s)[0], float(np.linalg.norm(e)))
        for run in (subspace_pursuit, cosamp):
            result = run(a, v, s)
            out.append((bits(result.estimate), result.support, bits(result.residual_history),
                        dump_json(recovery_payload(result))))
            checks = audit_run(run(a, v, s, truth=x), instance, delta)
            out.append([(k, c.name, bits(c.lhs), bits(c.rhs), c.holds) for k, c in checks])
        outputs.append(out)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm_symmetric(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_norm_symmetric(np.diag([0.3, -0.7])) == pytest.approx(0.7, abs=1e-15)

    def test_monte_carlo_rayleigh_oracle(self):
        # Dense sampling of Rayleigh quotients lower-bounds the norm and, for
        # this frozen seed pair, comes within 1e-3 of it from below.
        g = rng(24).normal(size=(5, 5))
        g = 0.5 * (g + g.T)
        value = spectral_norm_symmetric(g)
        probes = rng(102).normal(size=(100_000, 5))
        quot = np.abs(np.einsum("ij,jk,ik->i", probes, g, probes)) / np.einsum(
            "ij,ij->i", probes, probes
        )
        best = quot.max()
        assert best <= value + 1e-12
        assert value - best <= 1e-3

    def test_rayleigh_lower_bound_every_probe(self):
        g = rng(15).normal(size=(6, 6))
        g = 0.5 * (g + g.T)
        value = spectral_norm_symmetric(g)
        for _ in range(100):
            a = rng(16).normal(size=6)
            assert abs(a @ g @ a) / (a @ a) <= value + 1e-12

    def test_rejects_asymmetric_and_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_norm_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            spectral_norm_symmetric(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        g = np.zeros((2, 2))
        g[0, 0] = np.nan
        with pytest.raises(ValueError):
            spectral_norm_symmetric(g)
