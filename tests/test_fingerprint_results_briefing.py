"""CompositionFit/LocalizationResult and briefing tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fingerprint import CompositionFit, LocalizationResult, brief_flux_map
from repro.traffic import simulate_flux


def _fit(positions, objective, thetas=None):
    positions = np.asarray(positions, dtype=float)
    if thetas is None:
        thetas = np.ones(positions.shape[0])
    return CompositionFit(
        positions=positions, thetas=np.asarray(thetas, dtype=float),
        objective=float(objective),
    )


class TestCompositionFit:
    def test_valid(self):
        f = _fit([[1, 2]], 0.5)
        assert f.user_count == 1

    def test_rejects_bad_positions(self):
        with pytest.raises(ConfigurationError):
            CompositionFit(
                positions=np.zeros(2), thetas=np.ones(1), objective=1.0
            )

    def test_rejects_theta_mismatch(self):
        with pytest.raises(ConfigurationError):
            _fit([[1, 2], [3, 4]], 1.0, thetas=[1.0])

    def test_rejects_negative_objective(self):
        with pytest.raises(ConfigurationError):
            _fit([[1, 2]], -1.0)

    def test_active_users(self):
        f = _fit([[1, 2], [3, 4], [5, 6]], 1.0, thetas=[1.0, 1e-9, 0.5])
        np.testing.assert_array_equal(f.active_users(), [0, 2])


class TestLocalizationResult:
    def test_sorted_by_objective(self):
        result = LocalizationResult(
            fits=[_fit([[5, 5]], 3.0), _fit([[1, 1]], 1.0)]
        )
        assert result.best.objective == 1.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            LocalizationResult(fits=[])

    def test_position_estimates_weighted_towards_best(self):
        result = LocalizationResult(
            fits=[_fit([[0.0, 0.0]], 0.1), _fit([[10.0, 10.0]], 0.14)]
        )
        est = result.position_estimates()[0]
        assert est[0] < 5.0  # best fit weighs more

    def test_position_estimates_excludes_bad_fits(self):
        result = LocalizationResult(
            fits=[_fit([[0.0, 0.0]], 0.1), _fit([[10.0, 10.0]], 50.0)]
        )
        est = result.position_estimates(objective_ratio=1.5)[0]
        np.testing.assert_allclose(est, [0.0, 0.0], atol=1e-9)

    def test_position_estimates_ratio_validated(self):
        result = LocalizationResult(fits=[_fit([[0.0, 0.0]], 0.1)])
        with pytest.raises(ConfigurationError):
            result.position_estimates(objective_ratio=0.5)

    @pytest.mark.parametrize("users", [1, 2])
    def test_position_estimates_equal_assignment_path_bitwise(self, users):
        # The one-user shortcut skips linear_sum_assignment; it must give
        # the bits of the assignment path it replaces.
        from scipy.optimize import linear_sum_assignment

        gen = np.random.default_rng(users)
        fits = [
            _fit(gen.uniform(0.0, 15.0, (users, 2)), obj)
            for obj in 1.0 + 0.4 * gen.random(10)
        ]
        result = LocalizationResult(fits=fits)
        cutoff = result.fits[0].objective * 1.5 + 1e-12
        kept = [f for f in result.fits if f.objective <= cutoff]
        reference = kept[0].positions
        aligned = []
        for f in kept:
            cost = np.linalg.norm(
                f.positions[:, None, :] - reference[None, :, :], axis=2
            )
            rows, cols = linear_sum_assignment(cost)
            permuted = np.empty_like(f.positions)
            permuted[cols] = f.positions[rows]
            aligned.append(permuted)
        weights = np.array([1.0 / (f.objective + 1e-9) for f in kept])
        weights = weights / weights.sum()
        want = np.einsum("m,mkc->kc", weights, np.stack(aligned))
        assert len(kept) > 1
        assert np.array_equal(result.position_estimates(), want)

    def test_errors_to_handles_permutation(self):
        result = LocalizationResult(
            fits=[_fit([[0.0, 0.0], [9.0, 9.0]], 0.1)]
        )
        truth = np.array([[9.0, 9.0], [0.0, 0.0]])  # swapped order
        errors = result.errors_to(truth)
        np.testing.assert_allclose(errors, 0.0, atol=1e-9)

    def test_errors_to_shape_checked(self):
        result = LocalizationResult(fits=[_fit([[0.0, 0.0]], 0.1)])
        with pytest.raises(ConfigurationError):
            result.errors_to(np.zeros((2, 2)))


class TestBriefing:
    def test_single_user_peak_found(self, small_network):
        truth = np.array([10.0, 4.0])
        flux = simulate_flux(small_network, [truth], [2.0], rng=0)
        result = brief_flux_map(small_network, flux, max_users=1)
        assert len(result.users) == 1
        err = np.linalg.norm(result.users[0].position - truth)
        assert err < 2.0

    def test_multi_user_detection_order_by_dominance(self, small_network):
        strong, weak = np.array([3.0, 3.0]), np.array([12.0, 12.0])
        flux = simulate_flux(small_network, [strong, weak], [3.0, 1.0], rng=0)
        result = brief_flux_map(small_network, flux, max_users=2)
        assert len(result.users) == 2
        # Dominant user detected first.
        assert np.linalg.norm(result.users[0].position - strong) < np.linalg.norm(
            result.users[0].position - weak
        )

    def test_residual_energy_decreases(self, small_network):
        users = [np.array([3.0, 3.0]), np.array([12.0, 12.0]), np.array([3.0, 12.0])]
        flux = simulate_flux(small_network, users, [2.0, 2.0, 2.0], rng=0)
        result = brief_flux_map(small_network, flux, max_users=3)
        energies = [u.residual_energy for u in result.users]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_stops_early_on_clean_map(self, small_network):
        truth = np.array([7.0, 7.0])
        flux = simulate_flux(small_network, [truth], [2.0], rng=0)
        result = brief_flux_map(small_network, flux, max_users=5)
        assert len(result.users) < 5

    def test_residual_maps_recorded(self, small_network):
        flux = simulate_flux(small_network, [np.array([7.0, 7.0])], [2.0], rng=0)
        result = brief_flux_map(small_network, flux, max_users=1)
        assert len(result.residual_maps) == len(result.users)
        assert result.residual_maps[0].shape == (small_network.node_count,)

    def test_positions_property(self, small_network):
        flux = simulate_flux(small_network, [np.array([7.0, 7.0])], [2.0], rng=0)
        result = brief_flux_map(small_network, flux, max_users=1)
        assert result.positions.shape == (1, 2)

    def test_zero_map_raises(self, small_network):
        with pytest.raises(ConfigurationError):
            brief_flux_map(
                small_network, np.zeros(small_network.node_count), max_users=1
            )

    def test_shape_checked(self, small_network):
        with pytest.raises(ConfigurationError):
            brief_flux_map(small_network, np.ones(5), max_users=1)

    def test_theta_estimates_positive(self, small_network):
        flux = simulate_flux(small_network, [np.array([7.0, 7.0])], [2.0], rng=0)
        result = brief_flux_map(small_network, flux, max_users=1)
        assert result.users[0].theta > 0
