"""Sphere energy over whole quadrature passes: the batched round trip
against one call per node, slicing, the event counters and the metadata
shape on success and on both kinds of NotConverged."""

from collections import Counter

import numpy as np
import pytest

from casimir import sphere
from casimir.core import C_LIGHT, QuadratureSpec, gauss_kronrod_01, gauss_legendre_01
from casimir.errors import NotConverged
from casimir.materials import ConstantEps, Drude, PerfectMirror
from casimir.sphere import (
    SphereSystem,
    _mie_scaled,
    _round_trip_logdet_sum,
    _safe_w_floor,
    sphere_energy,
)

PEC = PerfectMirror()
GOLD = Drude(1.37e16, 5.3e13)
SYSTEMS = {
    "pec": SphereSystem(1e-7, 1e-7, 3e-7, PEC, PEC),
    "drude": SphereSystem(1e-7, 1e-7, 4e-7, GOLD, GOLD),
    "dielectric": SphereSystem(0.7e-7, 1.6e-7, 3.5e-7, ConstantEps(2.5), ConstantEps(9.0)),
}


def nodes(sys_, count):
    """Frequencies with w = xi L / c from far inside the small-w clamp of
    every lmax used here (w < 1e-70) up to a few c/gap, most of them where
    the integrand lives (w > 1e-3)."""
    low = count // 4
    w = np.concatenate([np.geomspace(1e-100, 1e-8, low),
                        np.geomspace(1e-3, 8.0 * sys_.L / sys_.gap, count - low)])
    return w * C_LIGHT / sys_.L


class TestBatchedRoundTrip:
    @pytest.mark.parametrize("lmax", [1, 5, 12])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_array_matches_per_node(self, name, lmax):
        sys_ = SYSTEMS[name]
        # at lmax 12 the m = 0 stack holds 113 nodes, so 300 nodes span
        # three slices
        xi = nodes(sys_, 300 if lmax == 12 else 60)
        events = Counter()
        batched = _round_trip_logdet_sum(sys_, xi, lmax, events)
        single = np.array([_round_trip_logdet_sum(sys_, x, lmax) for x in xi])
        assert isinstance(_round_trip_logdet_sum(sys_, xi[-1], lmax), float)
        assert batched.shape == xi.shape
        # far below the clamp the Mie amplitudes underflow to 0
        assert np.all(single <= 0) and np.all(single[xi.size // 4:] < 0)
        np.testing.assert_allclose(batched, single, rtol=1e-13, atol=0)
        clamped = xi * sys_.L / C_LIGHT < _safe_w_floor(lmax)
        assert 0 < events["xi_clamped"] == clamped.sum() < xi.size
        # every clamped node takes the value at the floor
        assert np.all(batched[clamped] == batched[0])

    @pytest.mark.parametrize("budget", [64, 2048])
    def test_slices_do_not_change_values(self, monkeypatch, budget):
        sys_ = SYSTEMS["dielectric"]
        xi = nodes(sys_, 40)
        whole = _round_trip_logdet_sum(sys_, xi, 5)
        monkeypatch.setattr(sphere, "_STACK_BYTES", budget)
        np.testing.assert_allclose(_round_trip_logdet_sum(sys_, xi, 5), whole,
                                   rtol=1e-13, atol=0)

    def test_mie_zeroed_counted(self):
        # at x ~ 3e-21 the outgoing functions of l >= 14 overflow: 0 * inf
        # in the amplitude quotient. Other amplitudes round to 0 without a
        # non-finite quotient, as a_l ~ x^(2l+1) does from l = 8 on, while
        # the scaled a_1, -(2/3) x^3 (eps - 1) / (eps + 2), is resolved
        events = Counter()
        a, b = _mie_scaled(ConstantEps(4.0), 1e-7, np.array([1e-5, 1e15]), 30, events)
        assert a.shape == b.shape == (2, 30)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        assert 0 < events["mie_zeroed"] <= np.sum(a[0] == 0) + np.sum(b[0] == 0)
        assert np.all(a[0, 13:] == 0) and np.all(b[0, 13:] == 0)
        x = 1e-5 * 1e-7 / C_LIGHT
        assert a[0, 0] == pytest.approx(-x**3 / 3, rel=1e-14, abs=0)
        assert np.all(a[1] != 0) and np.all(b[1] != 0)


class TestNestedTruncation:
    """An adaptive pass at lmax checks itself against the energy at
    lmax' = min(ceil(3 lmax / 4), lmax - 1), taken from the l <= lmax'
    sub-blocks of its own round trips."""

    @pytest.mark.parametrize("sys_, lmax", [
        (SphereSystem(1e-7, 1e-7, 3e-7, PEC, PEC), 20),
        (SphereSystem(1e-7, 1e-7, 2.5e-7, GOLD, GOLD), 16),
    ], ids=["pec-LR3", "drude-LR2.5"])
    def test_nested_sum_is_the_sum_at_lmax_prime(self, sys_, lmax):
        nested = min(int(np.ceil(0.75 * lmax)), lmax - 1)
        # nodes above the small-w floor of lmax, where both truncations
        # see the same frequencies
        w = np.geomspace(1.01 * _safe_w_floor(lmax), 8.0 * sys_.L / sys_.gap, 60)
        xi = w * C_LIGHT / sys_.L
        total, sub = _round_trip_logdet_sum(sys_, xi, lmax, nested=nested)
        np.testing.assert_array_equal(total, _round_trip_logdet_sum(sys_, xi, lmax))
        np.testing.assert_allclose(sub, _round_trip_logdet_sum(sys_, xi, nested),
                                   rtol=1e-13, atol=0)
        assert np.all(sub < 0)

    def test_lmax_prime_zero_is_zero(self):
        sys_ = SYSTEMS["pec"]
        total, sub = _round_trip_logdet_sum(sys_, 1e15, 1, nested=0)
        assert sub == 0.0 and total == _round_trip_logdet_sum(sys_, 1e15, 1) < 0

    def test_close_pair_converges_in_one_pass(self):
        sys_ = SphereSystem(1e-7, 1e-7, 2.5e-7, PEC, PEC)
        res = sphere_energy(sys_)
        meta = res.metadata
        assert meta["lmax_history"] == [(20, res.value)]
        lmax_prime, value = meta["lmax_check"]
        assert lmax_prime == 15
        assert res.error_estimate >= abs(res.value - value)
        fixed = sphere_energy(SphereSystem(1e-7, 1e-7, 2.5e-7, PEC, PEC, lmax=24),
                              adaptive_lmax=False)
        assert abs(res.value - fixed.value) <= res.error_estimate

    def test_fixed_lmax_computes_no_nested_sums(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[4:])
            return _round_trip_logdet_sum(*args)

        monkeypatch.setattr(sphere, "_round_trip_logdet_sum", spy)
        sys_ = SphereSystem(1e-7, 1e-7, 8e-7, GOLD, GOLD, lmax=3)
        res = sphere_energy(sys_, QuadratureSpec(base_order=16, tol=1e-4),
                            adaptive_lmax=False)
        assert res.metadata["lmax_check"] is None
        assert calls and all(extra in ((), (None,)) for extra in calls)

    @pytest.mark.slow
    def test_capped_benchmark_pair_converges_in_one_pass(self):
        """The L/R = 2.2 PEC pair with default settings: one pass at its
        gap-based lmax 50 (a few seconds)."""
        res = sphere_energy(SphereSystem(1e-7, 1e-7, 2.2e-7, PEC, PEC))
        assert [lmax for lmax, _ in res.metadata["lmax_history"]] == [50]
        assert res.value < 0


class TestOneCallPerPass:
    """A quadrature pass that converges on its first Gauss-Kronrod node
    set evaluates the sphere integrand once, on the nodes of both rules."""

    def test_round_trip_called_once(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(np.size(args[1]))
            return _round_trip_logdet_sum(*args)

        monkeypatch.setattr(sphere, "_round_trip_logdet_sum", spy)
        res = sphere_energy(SphereSystem(1e-7, 1e-7, 3e-7, PEC, PEC, lmax=6),
                            adaptive_lmax=False)
        assert res.metadata["orders"] == [32, 65]
        assert calls == [65]

    @pytest.mark.parametrize("nested", [None, 22])
    def test_concatenated_nodes_equal_separate_calls(self, nested):
        """At lmax 30 the blocks with n >= 25 are built in chunks on every
        call; the sums of one node do not depend on the other nodes."""
        sys_ = SphereSystem(1e-7, 1e-7, 2.5e-7, PEC, PEC)
        xi = [C_LIGHT / (2 * sys_.gap) * u / (1 - u)
              for u in (gauss_legendre_01(32)[0], gauss_legendre_01(64)[0])]
        events, parts = Counter(), Counter()
        both = _round_trip_logdet_sum(sys_, np.concatenate(xi), 30, events, nested)
        each = [_round_trip_logdet_sum(sys_, x, 30, parts, nested) for x in xi]
        if nested is None:
            both, each = (both,), [(e,) for e in each]
        for total, *split in zip(both, *each):
            assert np.array_equal(total, np.concatenate(split))
        assert events == parts and events["xi_clamped"] > 0


class TestSphereMetadata:
    """Sphere-specific metadata; the key set of every path is checked in
    tests/test_energy.py."""

    def _check(self, res, warnings):
        meta = res.metadata
        assert meta["warnings"] == warnings
        assert meta["lmax"] == meta["lmax_history"][-1][0]
        assert meta["lmax_history"][-1][1] == res.value
        assert meta["orders"] and all(isinstance(o, int) for o in meta["orders"])

    def test_success(self):
        sys_ = SphereSystem(1e-7, 1e-7, 8e-7, GOLD, GOLD, lmax=2)
        res = sphere_energy(sys_, QuadratureSpec(base_order=16, tol=1e-4), lmax_tol=0.1)
        self._check(res, [])
        assert res.metadata["lmax_history"][0][0] == 2

    @pytest.mark.parametrize("sys_, base_order", [
        (SphereSystem(1e-7, 1e-7, 8e-7, GOLD, GOLD, lmax=3), 16),
        # lmax 40 clamps the lowest nodes of every order
        (SphereSystem(1e-7, 1e-7, 3e-7, PEC, PEC, lmax=40), 8),
    ], ids=["drude-lmax3", "pec-lmax40"])
    def test_events_of_final_lmax_pass(self, sys_, base_order):
        """The events of a run are those of every node of its final lmax
        pass, over all of its Gauss-Kronrod node sets."""
        res = sphere_energy(sys_, QuadratureSpec(base_order=base_order, tol=1e-3),
                            adaptive_lmax=False)
        events = Counter()
        orders = res.metadata["orders"]
        for order, count in zip(orders[::2], orders[1::2]):
            u = gauss_kronrod_01(order)[0]
            assert len(u) == count
            _round_trip_logdet_sum(sys_, C_LIGHT / (2 * sys_.gap) * u / (1 - u), sys_.lmax,
                                   events)
        assert res.metadata["events"] == {"xi_clamped": events["xi_clamped"],
                                          "mie_zeroed": events["mie_zeroed"],
                                          "tol_floored": 0}

    def test_lmax_not_converged(self):
        sys_ = SphereSystem(1e-7, 1e-7, 4.5e-7, PEC, PEC, lmax=1)
        with pytest.raises(NotConverged) as err:
            sphere_energy(sys_, QuadratureSpec(base_order=32, tol=1e-6),
                          lmax_tol=1e-12, max_lmax_doublings=1)
        self._check(err.value.result, ["lmax not converged"])
        assert [l for l, _ in err.value.result.metadata["lmax_history"]] == [1, 2]

    def test_xi_not_converged(self):
        sys_ = SphereSystem(1e-7, 1e-7, 1e-6, PEC, PEC, lmax=2)
        with pytest.raises(NotConverged) as err:
            sphere_energy(sys_, QuadratureSpec(base_order=8, max_doublings=0, tol=1e-14))
        res = err.value.result
        self._check(res, ["quadrature not converged"])
        assert res.metadata["orders"] == [8]
        assert res.metadata["lmax_history"] == [(2, res.value)]
        assert res.value < 0
