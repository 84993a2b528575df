import numpy as np
import pytest
import scipy.fft

from edtorus import parabolic
from edtorus.conformal import gradient
from edtorus.errors import (
    ConvergenceFailure,
    NonFiniteState,
    NonPositiveDiffusivity,
    ParameterTooSmall,
)
from edtorus.fields import (
    ScalarField,
    TorusGrid,
    constant_field,
    field_from_function,
    integrate_values,
    scalar_field,
)
from edtorus.parabolic import (
    FiberLinear,
    Multiply,
    NonlocalOperator,
    ParabolicProblem,
    RankOne,
    STEP_GMRES_RTOL,
    _spatial_operator,
    _step_solve,
    _targeted_probes,
    check_axioms,
    constant_provider,
    energy_estimate_check,
    garding_constants,
    h1_norm_sq,
    mean_operator,
    random_band_limited,
    solve,
    uniqueness_check,
    zero_operator,
)

VOL = (2 * np.pi) ** 3


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(8)


@pytest.fixture(scope="module")
def ones(grid):
    return np.ones(grid.shape)


def composed_operator(grid, rng):
    b = tuple(0.3 * random_band_limited(grid, rng) for _ in range(3))

    def contract(w, _t):  # b . grad w
        dw = gradient(ScalarField(grid, w))
        return b[0] * dw[0] + b[1] * dw[1] + b[2] * dw[2]

    return NonlocalOperator(grid, [
        Multiply(constant_provider(1.0 + 0.5 * random_band_limited(grid, rng))),
        FiberLinear(contract, bound=float(np.sqrt(b[0] ** 2 + b[1] ** 2 + b[2] ** 2).max())),
        RankOne(constant_provider(random_band_limited(grid, rng)),
                constant_provider(random_band_limited(grid, rng))),
    ])


class TestAxioms:
    def test_mean_operator(self, grid):
        rep = check_axioms(mean_operator(grid), trials=50)
        assert rep.a1_constant == pytest.approx(1.0, abs=1e-9)
        assert rep.a2_violation <= 1e-12

    def test_multiplication_bound(self, grid, ones):
        a = 3.0 * np.cos(grid.coords()[0])
        op = NonlocalOperator(grid, [Multiply(constant_provider(a))])
        rep = check_axioms(op, trials=50)
        assert rep.a1_constant <= 3.0 + 1e-12
        assert rep.a2_violation <= 1e-12

    def test_composed_bounded_by_primitive_sum(self, grid, rng):
        op = composed_operator(grid, rng)
        rep = check_axioms(op, trials=100)
        hint = op.bound_hint(0.0)
        assert rep.a1_constant <= hint + 1e-9
        assert rep.a2_violation <= 1e-12

    def test_time_locality_with_time_dependent_scaling(self, grid, rng):
        # alpha(t) scalings at distinct fibers never mix times
        op = composed_operator(grid, rng)
        w = random_band_limited(grid, rng)
        for t, alpha in ((0.0, 1.0), (0.5, 1.5), (1.0, -0.7)):
            diff = op.apply(alpha * w, t) - alpha * op.apply(w, t)
            assert np.abs(diff).max() <= 1e-12

    def test_fiber_linear_escape_hatch(self, grid):
        op = NonlocalOperator(grid, [FiberLinear(lambda w, t: 2.0 * w, bound=2.0)])
        rep = check_axioms(op, trials=20)
        assert rep.a1_constant <= 2.0 + 1e-12
        assert rep.a2_violation <= 1e-12


class TestSolve:
    def test_heat_mode_decay_cn(self, grid, ones):
        u0 = field_from_function(grid, lambda x, y, z: np.cos(x))
        prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                None, u0, 1.0, 64)
        sol = solve(prob, "crank_nicolson")
        # CN error for e^{-t} mode at dt = 1/64 is ~ dt^2/12 * e^{-1}
        assert np.abs(sol.states[-1] - np.exp(-1) * u0.values).max() <= 2e-5

    def test_heat_mode_decay_be(self, grid, ones):
        u0 = field_from_function(grid, lambda x, y, z: np.cos(x))
        prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                None, u0, 1.0, 64)
        sol = solve(prob, "backward_euler")
        assert np.abs(sol.states[-1] - np.exp(-1) * u0.values).max() <= 5e-3

    def test_mean_operator_constant_mode(self, grid, ones):
        prob = ParabolicProblem(grid, constant_provider(ones), mean_operator(grid),
                                None, constant_field(grid, 1.0), 1.0, 64)
        sol = solve(prob, "crank_nicolson")
        assert np.abs(sol.states[-1] - np.exp(-1)).max() <= 1e-5

    def test_manufactured_cn_order(self, grid, ones):
        x2 = grid.coords()[1]
        mop = mean_operator(grid)

        def wstar(t):
            return np.exp(-t) * (1 + 0.2 * np.cos(x2))

        def forcing(t):
            return -wstar(t) - np.exp(-t) * (-0.2 * np.cos(x2)) + mop.apply(wstar(t), t)

        errs = []
        for steps in (8, 16, 32):
            prob = ParabolicProblem(grid, constant_provider(ones), mop, forcing,
                                    scalar_field(grid, wstar(0.0)), 1.0, steps)
            sol = solve(prob, "crank_nicolson")
            errs.append(np.sqrt(grid.cell_volume * np.sum((sol.states[-1] - wstar(1.0)) ** 2)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.1)

    def test_manufactured_be_order(self, grid, ones):
        x2 = grid.coords()[1]

        def wstar(t):
            return np.exp(-t) * (1 + 0.2 * np.cos(x2))

        def forcing(t):
            return -wstar(t) - np.exp(-t) * (-0.2 * np.cos(x2))

        errs = []
        for steps in (8, 16, 32):
            prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                    forcing, scalar_field(grid, wstar(0.0)), 1.0, steps)
            sol = solve(prob, "backward_euler")
            errs.append(np.sqrt(grid.cell_volume * np.sum((sol.states[-1] - wstar(1.0)) ** 2)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 1.0) <= 0.1)

    def test_spatial_spectral_accuracy(self, ones):
        # a band-limited manufactured solution is resolved to solver accuracy
        # on every grid that represents its modes
        errs = []
        for n in (8, 12):
            g = TorusGrid(n)
            x1 = g.coords()[0]

            def wstar(t, _x=x1):
                return np.exp(-0.5 * t) * (1 + 0.3 * np.cos(_x))

            def forcing(t, _x=x1):
                w = wstar(t)
                lap = np.exp(-0.5 * t) * (-0.3 * np.cos(_x))
                return -0.5 * w - lap

            prob = ParabolicProblem(g, constant_provider(np.ones(g.shape)),
                                    zero_operator(g), forcing,
                                    scalar_field(g, wstar(0.0)), 0.5, 64)
            sol = solve(prob, "crank_nicolson")
            errs.append(float(np.abs(sol.states[-1] - wstar(0.5)).max()))
        # same time-stepping error on both grids; no spatial contribution
        assert abs(errs[0] - errs[1]) <= 1e-9

    def test_rejects_nonpositive_diffusivity(self, grid, ones):
        u0 = constant_field(grid, 1.0)
        prob = ParabolicProblem(grid, constant_provider(0.0 * ones),
                                zero_operator(grid), None, u0, 1.0, 4)
        with pytest.raises(NonPositiveDiffusivity):
            solve(prob)

    @pytest.mark.parametrize("nan_step", [0, 2])
    @pytest.mark.parametrize("call", ["backward_euler", "crank_nicolson", "garding"])
    def test_nan_diffusivity_is_nonpositive(self, grid, ones, nan_step, call):
        # A holds one NaN point at a single sampled time; the time grid is
        # k / 4, so step 2 is t = 0.5
        def diffusivity(t):
            a = ones.copy()
            if t == nan_step / 4:
                a[1, 2, 3] = np.nan
            return a

        prob = ParabolicProblem(grid, diffusivity, mean_operator(grid), None,
                                constant_field(grid, 1.0), 1.0, 4)
        with pytest.raises(NonPositiveDiffusivity):
            garding_constants(prob) if call == "garding" else solve(prob, call)

    @pytest.mark.parametrize("scheme", ["backward_euler", "crank_nicolson"])
    def test_non_finite_forcing_is_typed(self, grid, ones, scheme):
        nan = np.full(grid.shape, np.nan)
        prob = ParabolicProblem(grid, constant_provider(ones), mean_operator(grid),
                                constant_provider(nan), constant_field(grid, 1.0), 1.0, 4)
        with pytest.raises(NonFiniteState):
            solve(prob, scheme)


def counted_transforms(monkeypatch):
    """Record the name of every scipy.fft fftn/ifftn call from here on."""
    calls = []

    def counted(transform):
        def wrapper(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return wrapper

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(scipy.fft, name, counted(getattr(scipy.fft, name)))
    return calls


def recorded_gmres_iterations(monkeypatch):
    """Record the iteration count of every `_gmres` call from here on."""
    iterations = []
    gmres = parabolic._gmres

    def recorded(*args):
        out = gmres(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(parabolic, "_gmres", recorded)
    return iterations


class TestStepSolve:
    """The implicit step (I + theta dt G_t) w = rhs against a dense solve."""

    THETA_DT, T = 0.05, 0.3

    @pytest.fixture
    def step_problem(self, rng):
        # N = 4, variable A(x, t), a rank-one and a multiplication term
        g = TorusGrid(4)
        base = random_band_limited(g, rng)
        op = NonlocalOperator(g, [
            RankOne(constant_provider(random_band_limited(g, rng)),
                    constant_provider(random_band_limited(g, rng))),
            Multiply(constant_provider(0.5 * random_band_limited(g, rng))),
        ])
        prob = ParabolicProblem(g, lambda t: 1.0 + 0.3 * base * np.cos(t), op, None,
                                constant_field(g, 1.0), 1.0, 4)
        return prob, random_band_limited(g, rng)

    def test_matches_dense_solve(self, step_problem):
        prob, rhs = step_problem
        g, a = prob.grid, prob.diffusivity(self.T)
        eye = np.eye(g.num_points)
        dense = eye + self.THETA_DT * np.column_stack(
            [_spatial_operator(prob, a, e.reshape(g.shape), self.T).reshape(-1) for e in eye])
        expect = np.linalg.solve(dense, rhs.reshape(-1)).reshape(g.shape)
        got, g_got = _step_solve(prob, self.THETA_DT, self.T, rhs, None)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)
        assert np.array_equal(g_got, _spatial_operator(prob, a, got, self.T))
        resid = rhs - (got + self.THETA_DT * g_got)
        assert np.linalg.norm(resid) <= STEP_GMRES_RTOL * np.linalg.norm(rhs)

    def test_random_start_same_solution(self, step_problem, rng):
        prob, rhs = step_problem
        zero, _ = _step_solve(prob, self.THETA_DT, self.T, rhs, None)
        x0 = rng.standard_normal(prob.grid.num_points)
        started, _ = _step_solve(prob, self.THETA_DT, self.T, rhs, x0)
        assert np.abs(started - zero).max() <= 1e-12 * np.abs(zero).max()

    def test_exhausted_cycles_raise(self, step_problem, monkeypatch):
        prob, rhs = step_problem
        monkeypatch.setattr(parabolic, "STEP_GMRES_RESTART", 1)
        monkeypatch.setattr(parabolic, "STEP_GMRES_MAXITER", 1)
        with pytest.raises(ConvergenceFailure) as err:
            _step_solve(prob, self.THETA_DT, self.T, rhs, None)
        assert np.isfinite(err.value.residual) and err.value.residual > STEP_GMRES_RTOL
        assert err.value.iterations == 1

    def test_fft_count(self, step_problem, monkeypatch):
        """One forward transform and one batched inverse per GMRES
        iteration, plus the one pair of the true residual that ends the
        (single) cycle."""
        prob, rhs = step_problem
        iterations = recorded_gmres_iterations(monkeypatch)
        calls = counted_transforms(monkeypatch)
        _step_solve(prob, self.THETA_DT, self.T, rhs, None)
        its = iterations[0]
        assert its >= 3
        assert calls.count("fftn") == its + 1 and calls.count("ifftn") == its + 1

    def test_crank_nicolson_fft_count(self, step_problem, monkeypatch):
        """A Crank-Nicolson march applies G on its own once, at step 0: each
        later right-hand side reuses the G w of the previous step's last
        residual check, so a step costs its GMRES iterations plus the one
        pair of that check."""
        prob, _rhs = step_problem
        iterations = recorded_gmres_iterations(monkeypatch)
        calls = counted_transforms(monkeypatch)
        solve(prob, "crank_nicolson")
        assert len(iterations) == prob.steps
        # every step converges in one GMRES cycle, ended by one residual check
        expected = sum(iterations) + prob.steps + 1
        assert calls.count("fftn") == expected and calls.count("ifftn") == expected


class TestGarding:
    def test_unit_identity(self, grid, ones):
        prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                None, constant_field(grid, 1.0), 1.0, 2)
        rep = garding_constants(prob)
        assert rep.delta == pytest.approx(2.0)
        assert rep.kappa == pytest.approx(1.0, abs=1e-9)

    def test_constant_scaling(self, grid, ones):
        prob = ParabolicProblem(grid, constant_provider(0.7 * ones), zero_operator(grid),
                                None, constant_field(grid, 1.0), 1.0, 2)
        rep = garding_constants(prob)
        assert rep.delta == pytest.approx(1.4)
        assert rep.kappa == pytest.approx(0.7, abs=1e-9)

    def test_mean_operator_kappa_via_young(self, grid, ones):
        # the rank-one term worsens kappa by at most its (A1) constant
        prob = ParabolicProblem(grid, constant_provider(ones), mean_operator(grid),
                                None, constant_field(grid, 1.0), 1.0, 2)
        rep = garding_constants(prob, probes=80)
        a1 = check_axioms(mean_operator(grid), trials=40).a1_constant
        assert rep.kappa <= 1.0 + a1 + 1e-6
        # the mean term is positive semidefinite, so kappa approaches the
        # pure-Laplacian value 1 from below on near-mean-free probes
        assert rep.kappa >= 0.99

    def test_kappa_matches_definition(self, grid, rng):
        """kappa = max over the probes of ((delta/2) ||w||_H1^2 - A_t(w, w)) / |w|_2^2,
        A_t(w, w) = int A |grad w|^2 + w grad A . grad w + w L[w], recomputed
        probe by probe with the probes and times garding_constants draws."""
        base = random_band_limited(grid, rng)
        a_fun = (lambda t: 1.0 + 0.25 * base * np.cos(t))
        op = NonlocalOperator(grid, [
            RankOne(constant_provider(random_band_limited(grid, rng)),
                    constant_provider(random_band_limited(grid, rng))),
            Multiply(constant_provider(0.5 * random_band_limited(grid, rng))),
        ])
        prob = ParabolicProblem(grid, a_fun, op, None, constant_field(grid, 1.0), 1.0, 8)
        probes, seed = 12, 5
        rep = garding_constants(prob, probes=probes, seed=seed)

        delta = 2.0 * prob.min_diffusivity()
        times = prob.times()
        probe_rng = np.random.default_rng(seed)
        samples = [(w, float(t)) for t in times[::max(1, len(times) // 4)]
                   for w in _targeted_probes(prob, float(t))]
        samples += [(random_band_limited(grid, probe_rng,
                                         max_mode=grid.n // 4 if k % 2 == 0 else grid.n // 2),
                     float(times[k % len(times)])) for k in range(probes)]
        kappa = 1e-12
        for w, t in samples:
            a = a_fun(t)
            dw, da = gradient(scalar_field(grid, w)), gradient(scalar_field(grid, a))
            bilinear = integrate_values(grid, a * (dw ** 2).sum(axis=0)
                                        + w * (da * dw).sum(axis=0) + w * op.apply(w, t))
            deficit = 0.5 * delta * h1_norm_sq(grid, w) - bilinear
            kappa = max(kappa, deficit / integrate_values(grid, w ** 2))
        assert rep.probes == len(samples)
        assert rep.kappa == pytest.approx(kappa, rel=1e-14, abs=0.0)

    def test_fft_count(self, grid, ones, monkeypatch):
        """Three batched transforms, whatever the probe count: one inverse
        draws the random probes, one forward and one inverse give the
        gradients of every probe and of A at every sampled time."""
        calls = counted_transforms(monkeypatch)
        # steps = 2: times 0, 1/2, 1, every one sampled by the targeted probes
        # (1, K, h, K + h, K - h of the mean operator's rank-one term) and by
        # the random ones
        times, targeted_per_time = 3, 5
        prob = ParabolicProblem(grid, constant_provider(ones), mean_operator(grid),
                                None, constant_field(grid, 1.0), 1.0, 2)
        for probes in (6, 12):
            calls.clear()
            rep = garding_constants(prob, probes=probes)
            assert rep.probes == probes + targeted_per_time * times
            assert calls == ["ifftn", "fftn", "ifftn"]


class TestEnergyEstimate:
    def test_heat_example(self, grid, ones):
        u0 = field_from_function(grid, lambda x, y, z: np.cos(x))
        prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                None, u0, 1.0, 64)
        sol = solve(prob, "crank_nicolson")
        rep = energy_estimate_check(prob, sol, 1.5)
        assert rep.ok

    def test_zero_data(self, grid, ones):
        prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                None, constant_field(grid, 0.0), 1.0, 8)
        sol = solve(prob)
        rep = energy_estimate_check(prob, sol, 1.5)
        assert rep.ok and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_randomized_sweep(self, grid, rng):
        n_pass = 0
        for _ in range(20):
            base = random_band_limited(grid, rng)
            amp = 0.3 * rng.uniform(0.3, 1.0)
            a_fun = (lambda t, b=base, a=amp: 1.0 + a * b * np.cos(t))
            op = NonlocalOperator(grid, [
                RankOne(constant_provider(random_band_limited(grid, rng)),
                        constant_provider(random_band_limited(grid, rng))),
                Multiply(constant_provider(0.5 * random_band_limited(grid, rng))),
            ])
            f_field = random_band_limited(grid, rng)
            w0 = scalar_field(grid, 0.5 * random_band_limited(grid, rng))
            prob = ParabolicProblem(grid, a_fun, op,
                                    lambda t, ff=f_field: np.cos(2 * t) * ff,
                                    w0, 1.0, 32)
            sol = solve(prob)
            gr = garding_constants(prob, probes=40)
            rep = energy_estimate_check(prob, sol, gr.kappa + 0.75, garding=gr)
            n_pass += rep.ok
        assert n_pass == 20

    def test_parameter_too_small(self, grid, ones):
        u0 = constant_field(grid, 1.0)
        prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                None, u0, 1.0, 4)
        sol = solve(prob)
        with pytest.raises(ParameterTooSmall):
            energy_estimate_check(prob, sol, 0.3)


class TestUniqueness:
    def test_heat(self, grid, ones):
        u0 = field_from_function(grid, lambda x, y, z: np.cos(x))
        prob = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                                None, u0, 1.0, 32)
        assert uniqueness_check(prob) <= 1e-12

    def test_rank_one(self, grid, ones):
        prob = ParabolicProblem(grid, constant_provider(ones), mean_operator(grid),
                                None, constant_field(grid, 1.0), 1.0, 32)
        assert uniqueness_check(prob) <= 1e-10

    def test_manufactured(self, grid, ones, rng):
        op = composed_operator(grid, rng)
        f_field = random_band_limited(grid, rng)
        prob = ParabolicProblem(grid, constant_provider(ones), op,
                                lambda t, ff=f_field: np.exp(-t) * ff,
                                scalar_field(grid, random_band_limited(grid, rng)),
                                1.0, 32)
        assert uniqueness_check(prob) <= 1e-9
