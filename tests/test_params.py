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
        analytic = _phi_chain(grad_phi, u, L)
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
        analytic = _phi_chain(grad_phi, u, L)
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
        mapped = _phi_chain(rows, u, L)
        for row, out in zip(rows, mapped):
            np.testing.assert_allclose(out, _phi_chain(row, u, L), rtol=1e-14, atol=1e-15)
