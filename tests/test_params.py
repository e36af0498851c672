import numpy as np
import pytest

from jointmix import ModelParams, OrdinalParams, ParamLayout, SurvivalParams
from jointmix.params import _phi_chain, phi_from_u, u_from_phi

from conftest import random_params


class TestModelParams:
    def test_theta1_must_be_zero(self):
        ordinal = OrdinalParams(np.array([0.0, 0.1]), np.array([0.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            ModelParams(np.array([0.1, 1.0]), ordinal, SurvivalParams(0.0, 0.0),
                        np.array([0.5, 0.5]))

    def test_pi_open_simplex(self):
        ordinal = OrdinalParams(np.array([0.0, 0.1]), np.array([0.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            ModelParams(np.array([0.0, 1.0]), ordinal, SurvivalParams(0.0, 0.0),
                        np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ModelParams(np.array([0.0, 1.0]), ordinal, SurvivalParams(0.0, 0.0),
                        np.array([0.6, 0.6]))

    @pytest.mark.parametrize("theta, pi, message", [
        (np.zeros((1, 2)), np.array([0.5, 0.5]), "theta must be a 1-d vector"),
        (np.zeros(0), np.zeros(0), "theta must be a 1-d vector"),
        (np.array([0.1, 1.0]), np.array([0.5, 0.5]), r"theta\[1\] = 0 must hold exactly"),
        (np.array([0.0, np.nan]), np.array([0.5, 0.5]), "theta must be finite"),
        (np.array([0.0, -np.inf]), np.array([0.5, 0.5]), "theta must be finite"),
        (np.array([0.0, 1.0]), np.array([0.2, 0.3, 0.5]), "pi must have one weight per group"),
        (np.array([0.0, 1.0]), np.array([[0.5, 0.5]]), "pi must have one weight per group"),
        (np.array([0.0, 1.0]), np.array([1.5, -0.5]), "pi must lie on the open simplex"),
        (np.array([0.0, 1.0]), np.array([1.0, 0.0]), "pi must lie on the open simplex"),
        (np.array([0.0, 1.0]), np.array([0.6, 0.6]), "pi must lie on the open simplex"),
        (np.array([0.0, 1.0]), np.array([0.5, 0.5 + 1e-11]), "pi must lie on the open simplex"),
        (np.array([0.0, 1.0]), np.array([np.nan, 0.5]), "pi must lie on the open simplex"),
    ], ids=["theta-2d", "theta-empty", "theta1", "theta-nan", "theta-inf", "pi-size", "pi-2d",
            "pi-negative", "pi-zero", "pi-sum", "pi-sum-beyond-tolerance", "pi-nan"])
    def test_each_check_raises_its_message(self, theta, pi, message):
        ordinal = OrdinalParams(np.array([0.0, 0.1]), np.array([0.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match=message):
            ModelParams(theta, ordinal, SurvivalParams(0.0, 0.0), pi)

    def test_pi_within_the_simplex_tolerance_is_accepted(self):
        ordinal = OrdinalParams(np.array([0.0, 0.1]), np.array([0.0, 1.0]), np.array([0.0]))
        params = ModelParams(np.array([0.0, 1.0]), ordinal, SurvivalParams(0.0, 0.0),
                             np.array([0.5, 0.5 + 1e-13]))
        assert not params.theta.flags.writeable and not params.pi.flags.writeable


class TestLayout:
    @pytest.mark.parametrize("dims", [(1, 2, 1), (2, 3, 2), (3, 5, 4)])
    def test_pack_unpack_roundtrip(self, dims):
        R, L, J = dims
        rng = np.random.default_rng(R * 100 + L * 10 + J)
        params = random_params(rng, R, L, J)
        layout = ParamLayout(R, L, J)
        assert layout.n_free == (R - 1) + (L - 1) + (J - 1) + (L - 2) + 2
        assert len(layout.names) == layout.n_free
        x = layout.pack(params)
        back = layout.unpack(x, params.pi)
        np.testing.assert_array_equal(back.theta, params.theta)
        np.testing.assert_array_equal(back.ordinal.a, params.ordinal.a)
        np.testing.assert_array_equal(back.ordinal.phi, params.ordinal.phi)
        np.testing.assert_array_equal(back.ordinal.b, params.ordinal.b)
        assert back.survival == params.survival

    def test_opt_roundtrip(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 2, 4, 2)
        layout = ParamLayout(2, 4, 2)
        y = layout.pack_opt(params)
        back = layout.unpack_opt(y, params.pi)
        np.testing.assert_allclose(back.ordinal.phi, params.ordinal.phi, rtol=1e-12)

    @pytest.mark.parametrize("method", ["unpack", "unpack_opt"])
    @pytest.mark.parametrize("size", [9, 11])
    def test_wrong_length_raises(self, method, size):
        layout = ParamLayout(2, 4, 3)
        assert layout.n_free == 10
        with pytest.raises(ValueError, match="expected a free vector of length 10"):
            getattr(layout, method)(np.zeros(size), np.array([0.4, 0.6]))

    @pytest.mark.parametrize("size", [0, 7])
    def test_short_opt_vector_raises(self, size):
        # too short to hold the free scores
        with pytest.raises(ValueError, match="^expected "):
            ParamLayout(2, 4, 3).unpack_opt(np.zeros(size), np.array([0.4, 0.6]))

    @pytest.mark.parametrize("method", ["unpack", "unpack_opt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, method, value):
        layout = ParamLayout(2, 4, 3)
        pi = np.array([0.4, 0.6])
        base = np.zeros(layout.n_free)
        base[layout.sl_phi] = [0.3, 0.6]
        blocks = {"theta": layout.sl_theta, "a": layout.sl_a, "b": layout.sl_b,
                  "phi": layout.sl_phi}
        messages = dict.fromkeys(("a", "b", "phi"), "parameters must be finite")
        messages["theta"] = "theta must be finite"
        for name, sl in blocks.items():
            if method == "unpack_opt" and name == "phi" and np.isinf(value):
                continue    # an infinite free score is clipped: see the next test
            for k in range(sl.start, sl.stop):
                x = base.copy()
                x[k] = value
                with pytest.raises(ValueError, match=messages[name]):
                    getattr(layout, method)(x, pi)
        for k in (layout.idx_d0, layout.idx_d1):
            x = base.copy()
            x[k] = value
            with pytest.raises(ValueError, match="delta coefficients must be finite"):
                getattr(layout, method)(x, pi)

    def test_infinite_free_score_is_clipped(self):
        layout = ParamLayout(2, 5, 2)
        pi = np.array([0.4, 0.6])
        y = np.zeros(layout.n_free)
        y[layout.sl_phi] = [np.inf, -np.inf, 0.2]
        clipped = y.copy()
        clipped[layout.sl_phi] = [15.0, -15.0, 0.2]
        np.testing.assert_array_equal(layout.unpack_opt(y, pi).ordinal.phi,
                                      layout.unpack_opt(clipped, pi).ordinal.phi)

    @pytest.mark.parametrize("method", ["unpack", "unpack_opt"])
    def test_unpacked_arrays_are_read_only_copies(self, method):
        layout = ParamLayout(2, 4, 3)
        x = np.arange(layout.n_free, dtype=float) / 10
        x[layout.sl_phi] = [0.3, 0.6]
        pi = np.array([0.4, 0.6])
        params = getattr(layout, method)(x, pi)
        arrays = (params.theta, params.ordinal.a, params.ordinal.phi, params.ordinal.b, params.pi)
        assert not any(arr.flags.writeable for arr in arrays)
        packed = layout.pack(params)
        x[:] = -1.0           # the decoded arrays share no memory with x or pi
        pi[:] = 0.5
        np.testing.assert_array_equal(layout.pack(params), packed)

    def test_names_are_one_based(self):
        layout = ParamLayout(2, 3, 2)
        assert layout.names == ["theta[2]", "a[2]", "a[3]", "b[2]", "phi[2]",
                                "delta0", "delta1"]


class TestPhiReparameterization:
    @pytest.mark.parametrize("L", [2, 3, 4, 6])
    def test_monotone_by_construction(self, L):
        rng = np.random.default_rng(L)
        for _ in range(20):
            phi = phi_from_u(rng.normal(0, 3, L - 2), L)
            assert phi[0] == 0.0 and phi[-1] == 1.0
            assert np.all(np.diff(phi) > 0)

    def test_roundtrip(self):
        u = np.array([0.3, -1.2, 0.8])
        phi = phi_from_u(u, 5)
        np.testing.assert_allclose(u_from_phi(phi), u, rtol=1e-12)

    def test_extreme_u_still_strictly_increasing(self):
        phi = phi_from_u(np.array([-500.0, 500.0]), 4)
        assert np.all(np.diff(phi) > 0)

    def test_ties_rejected_by_inverse(self):
        with pytest.raises(ValueError):
            u_from_phi(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_chain_rule_matches_fd(self):
        rng = np.random.default_rng(2)
        L = 5
        u = rng.normal(0, 1, L - 2)
        grad_phi = rng.normal(0, 1, L - 2)
        analytic = _phi_chain(grad_phi, u)
        step = 1e-7
        numeric = np.zeros_like(u)
        for k in range(u.size):
            up, um = u.copy(), u.copy()
            up[k] += step
            um[k] -= step
            numeric[k] = grad_phi @ (phi_from_u(up, L) - phi_from_u(um, L))[1:L - 1] / (2 * step)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-10)

    def test_chain_rule_is_zero_where_u_is_clipped(self):
        # phi_from_u clips u at +-15, so beyond it phi, and any objective of phi, is flat in u
        L = 5
        u = np.array([20.0, 0.3, -1.0])
        grad_phi = np.array([0.7, -1.3, 0.4])
        analytic = _phi_chain(grad_phi, u)
        step = 1e-6
        numeric = np.zeros_like(u)
        for k in range(u.size):
            up, um = u.copy(), u.copy()
            up[k] += step
            um[k] -= step
            numeric[k] = grad_phi @ (phi_from_u(up, L) - phi_from_u(um, L))[1:L - 1] / (2 * step)
        assert analytic[0] == 0.0 and numeric[0] == 0.0
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-10)

    def test_chain_rule_maps_score_rows(self):
        rng = np.random.default_rng(3)
        L = 5
        u = rng.normal(0, 1, L - 2)
        rows = rng.normal(0, 1, (4, L - 2))
        mapped = _phi_chain(rows, u)
        for row, out in zip(rows, mapped):
            np.testing.assert_allclose(out, _phi_chain(row, u), rtol=1e-14, atol=1e-15)
