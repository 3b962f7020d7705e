"""The one energy loop, core.energy: the nested lmax check, lmax doubling,
errors, NotConverged, and the metadata schema that plane (both axes) and
sphere results share on success and on failure."""

import math

import pytest

from casimir.core import EVENTS, EnergyResult, QuadratureSpec, energy
from casimir.errors import DomainError, NotConverged
from casimir.materials import VACUUM, ConstantEps, Drude, Lorentz, Plasma
from casimir.plane import PlaneSystem, energy_per_area, energy_per_area_real_axis
from casimir.sphere import SphereSystem, sphere_energy

GOLD = Drude(1.37e16, 5.3e13)
PLATES = PlaneSystem(GOLD, GOLD, VACUUM, 200e-9)
SPHERES = SphereSystem(1e-7, 1e-7, 8e-7, GOLD, GOLD, lmax=2)
W_MAX = 2 * GOLD.omega_p
KEYS = {"geometry", "axis", "orders", "lmax", "lmax_history", "lmax_check", "events",
        "warnings"}
FAIL = QuadratureSpec(base_order=8, max_doublings=0, tol=1e-14)

# path -> (run(quad), quad that converges, geometry, axis, extra keys)
PATHS = {
    "plane-imaginary": (lambda quad: energy_per_area(PLATES, quad),
                        QuadratureSpec(base_order=16, tol=1e-3), "plane", "imaginary", {}),
    "plane-real": (lambda quad: energy_per_area_real_axis(PLATES, W_MAX, quad),
                   QuadratureSpec(base_order=8, tol=0.5, max_doublings=1), "plane", "real",
                   {"omega_max": W_MAX}),
    "sphere": (lambda quad: sphere_energy(SPHERES, quad, lmax_tol=0.1),
               QuadratureSpec(base_order=16, tol=1e-4), "sphere", "imaginary", {}),
}


@pytest.mark.parametrize("converges", [True, False], ids=["success", "not_converged"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_metadata_schema(path, converges):
    run, quad_ok, geometry, axis, extra = PATHS[path]
    if converges:
        res = run(quad_ok)
    else:
        with pytest.raises(NotConverged) as err:
            run(FAIL)
        res = err.value.result
    meta = res.metadata
    assert set(meta) == KEYS | set(extra)
    assert (meta["geometry"], meta["axis"]) == (geometry, axis)
    assert all(meta[key] == value for key, value in extra.items())
    assert meta["warnings"] == ([] if converges else ["quadrature not converged"])
    base = (quad_ok if converges else FAIL).base_order
    assert meta["orders"][0] == base and all(isinstance(o, int) for o in meta["orders"])
    if not converges:
        assert meta["orders"] == [8]
    _assert_floats(res)
    assert set(meta["events"]) == set(EVENTS)
    assert all(isinstance(v, int) and v >= 0 for v in meta["events"].values())
    # the real axis refines q to 1e-4 at best, and says so
    assert meta["events"]["tol_floored"] == (path == "plane-real" and not converges)
    if geometry == "plane":
        assert meta["lmax"] is None and meta["lmax_history"] == []
        assert meta["lmax_check"] is None
    else:
        assert meta["lmax"] == meta["lmax_history"][-1][0]
        assert meta["lmax_history"][-1][1] == res.value
        # a pass that failed its quadrature ran no check
        if converges:
            assert meta["lmax_check"][0] < meta["lmax"]
        else:
            assert meta["lmax_check"] is None


def _assert_floats(res):
    """Value, error and the energies of the lmax metadata are Python floats."""
    meta = res.metadata
    numbers = [res.value, res.error_estimate, *(v for _, v in meta["lmax_history"])]
    numbers += [meta["lmax_check"][1]] if meta["lmax_check"] else []
    assert all(type(x) is float for x in numbers)


# path -> (run that raises NotConverged, its warning, its message)
FAILURES = {
    "plane-imaginary": (lambda: energy_per_area(PLATES, FAIL), "quadrature", "quadrature"),
    "plane-real": (lambda: energy_per_area_real_axis(PLATES, W_MAX, FAIL), "quadrature",
                   "quadrature"),
    "sphere-quadrature": (lambda: sphere_energy(SPHERES, FAIL), "quadrature", "quadrature"),
    "sphere-lmax": (lambda: sphere_energy(SPHERES, PATHS["sphere"][1], max_lmax_doublings=0),
                    "lmax", "multipole truncation"),
}


@pytest.mark.parametrize("path", sorted(FAILURES))
def test_not_converged_carries_energy_result(path):
    """Every failure is raised by core.energy, with the best EnergyResult."""
    run, kind, message = FAILURES[path]
    with pytest.raises(NotConverged, match=f"{message} not converged") as err:
        run()
    res = err.value.result
    assert isinstance(res, EnergyResult)
    assert res.metadata["warnings"] == [f"{kind} not converged"]
    _assert_floats(res)
    if kind == "quadrature":
        assert res.metadata["orders"] == [8] and res.error_estimate == math.inf
        # an adaptive sphere pass refines its nested sum along with its
        # energy, but a pass whose quadrature fails is not checked
        assert res.metadata["lmax_check"] is None


def _fake(values, fail_at=()):
    """integrate(lmax, events) for ``values[lmax]`` = (value,) or (value,
    nested value): error 1e-3 and, with a nested value, the check
    (lmax - 1, nested value); the quadrature reports no convergence for
    lmax in ``fail_at``."""

    def integrate(lmax, events):
        events["xi_clamped"] += lmax or 1
        value, *nested = values[lmax]
        check = (lmax - 1, *nested) if nested else None
        return value, 1e-3, [(8, 0.0), (16, value)], lmax not in fail_at, check

    return integrate


class TestEnergyLoop:
    def test_plates_run_once(self):
        res = energy(_fake({None: (-2.0,)}), warnings=["w"], geometry="plane", axis="x")
        assert (res.value, res.error_estimate) == (-2.0, 1e-3)
        assert res.metadata["warnings"] == ["w"] and res.metadata["orders"] == [8, 16]
        assert res.metadata["events"]["xi_clamped"] == 1
        assert res.metadata["lmax_check"] is None

    def test_nested_check_passes_in_one_pass(self):
        res = energy(_fake({4: (-1.5, -1.5005)}), lmax=4, lmax_tol=1e-3,
                     max_lmax_doublings=3)
        assert res.value == -1.5
        assert res.error_estimate == pytest.approx(1e-3 + 5e-4)
        assert res.metadata["lmax_history"] == [(4, -1.5)]
        assert res.metadata["lmax_check"] == (3, -1.5005)

    def test_lmax_change_added_to_error(self):
        """A failed nested check doubles lmax; the passing check's change
        joins the error."""
        res = energy(_fake({2: (-1.0, -0.5), 4: (-1.5, -1.4), 8: (-1.5005, -1.5)}),
                     lmax=2, lmax_tol=1e-3, max_lmax_doublings=3)
        assert res.value == -1.5005
        assert res.error_estimate == pytest.approx(1e-3 + 5e-4)
        assert res.metadata["lmax_history"] == [(2, -1.0), (4, -1.5), (8, -1.5005)]
        assert res.metadata["lmax_check"] == (7, -1.5)
        assert res.metadata["lmax"] == 8 and res.metadata["events"]["xi_clamped"] == 8

    def test_lmax_one_checks_against_zero(self):
        """At lmax 1 the nested truncation is lmax 0, whose energy is 0, so
        the first pass always doubles."""
        res = energy(_fake({1: (-1.0, 0.0), 2: (-1.2, -1.1995)}), lmax=1, lmax_tol=1e-3,
                     max_lmax_doublings=1)
        assert res.metadata["lmax_history"] == [(1, -1.0), (2, -1.2)]
        assert res.metadata["lmax_check"] == (1, -1.1995)

    def test_no_doubling_when_not_asked(self):
        res = energy(_fake({3: (-1.0,)}), lmax=3)
        assert res.metadata["lmax_history"] == [(3, -1.0)] and res.error_estimate == 1e-3
        assert res.metadata["lmax_check"] is None

    def test_lmax_not_converged(self):
        with pytest.raises(NotConverged, match="multipole truncation") as err:
            energy(_fake({1: (-1.0, 0.0), 2: (-2.0, -1.0)}), lmax=1, lmax_tol=1e-3,
                   max_lmax_doublings=1)
        res = err.value.result
        assert res.value == -2.0 and res.error_estimate == pytest.approx(1.001)
        assert res.metadata["lmax_check"] == (1, -1.0)
        assert res.metadata["warnings"] == ["lmax not converged"]

    def test_zero_lmax_doublings_is_not_converged(self):
        """With no doubling allowed the first pass is checked once."""
        with pytest.raises(NotConverged, match="multipole truncation") as err:
            energy(_fake({1: (-1.0, 0.0)}), lmax=1, lmax_tol=1e-3, max_lmax_doublings=0)
        res = err.value.result
        assert res.value == -1.0 and res.error_estimate == pytest.approx(1.001)
        assert res.metadata["warnings"] == ["lmax not converged"]
        res = energy(_fake({4: (-1.0, -1.0001)}), lmax=4, lmax_tol=1e-3,
                     max_lmax_doublings=0)
        assert res.metadata["lmax_history"] == [(4, -1.0)]

    @pytest.mark.parametrize("settings,message", [
        ({"max_lmax_doublings": -1}, "max_lmax_doublings must be an integer >= 0"),
        ({"max_lmax_doublings": 1.5}, "max_lmax_doublings must be an integer >= 0"),
        ({"max_lmax_doublings": True}, "max_lmax_doublings must be an integer >= 0"),
        ({"max_lmax_doublings": 3, "lmax_tol": math.nan}, "lmax_tol must be finite and >= 0"),
        ({"max_lmax_doublings": 3, "lmax_tol": -1.0}, "lmax_tol must be finite and >= 0"),
        ({"max_lmax_doublings": 3, "lmax_tol": math.inf}, "lmax_tol must be finite and >= 0"),
    ], ids=["doublings=-1", "doublings=1.5", "doublings=True", "tol=nan", "tol=-1", "tol=inf"])
    def test_bad_lmax_settings_raise_before_any_pass(self, settings, message):
        def integrate(lmax, events):
            raise AssertionError("integrate called")

        with pytest.raises(ValueError, match=message):
            energy(integrate, lmax=1, **settings)

    def test_quadrature_failure_at_second_lmax(self):
        with pytest.raises(NotConverged, match="quadrature not converged") as err:
            energy(_fake({1: (-1.0, 0.0), 2: (-2.0, -1.9)}, fail_at={2}), lmax=1,
                   lmax_tol=1e-3, max_lmax_doublings=2)
        res = err.value.result
        assert res.value == -2.0 and res.error_estimate == 1e-3
        assert res.metadata["lmax"] == 2 and res.metadata["lmax_history"][-1] == (2, -2.0)
        # the last check that ran is the first pass's
        assert res.metadata["lmax_check"] == (0, 0.0)
        assert res.metadata["warnings"] == ["quadrature not converged"]


def test_sphere_adaptive_lmax_without_doublings_is_not_converged():
    """With no doubling allowed, an adaptive run checks its lmax 2 once,
    against the nested lmax 1 of the same pass, and that check fails."""
    quad = PATHS["sphere"][1]
    with pytest.raises(NotConverged, match="multipole truncation") as err:
        sphere_energy(SPHERES, quad, max_lmax_doublings=0)
    meta = err.value.result.metadata
    assert meta["warnings"] == ["lmax not converged"]
    assert meta["lmax_check"][0] == 1
    fixed = sphere_energy(SPHERES, quad, adaptive_lmax=False).metadata
    assert fixed["lmax_history"] == [(2, err.value.result.value)]
    assert fixed["lmax_check"] is None


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, error", [
    (lambda: Plasma(NAN), ValueError),
    (lambda: Plasma(INF), ValueError),
    (lambda: Drude(1e16, NAN), ValueError),
    (lambda: Drude(INF, 1e13), ValueError),
    (lambda: ConstantEps(NAN), ValueError),
    (lambda: ConstantEps(INF), ValueError),
    (lambda: Lorentz(2e15, NAN, 1e13), ValueError),
    (lambda: Lorentz(2e15, 6e15, INF), ValueError),
    (lambda: PlaneSystem(GOLD, GOLD, VACUUM, NAN), DomainError),
    (lambda: PlaneSystem(GOLD, GOLD, VACUUM, INF), DomainError),
    (lambda: SphereSystem(NAN, 1e-7, 8e-7, GOLD, GOLD), DomainError),
    (lambda: SphereSystem(1e-7, INF, 8e-7, GOLD, GOLD), DomainError),
    (lambda: SphereSystem(1e-7, 1e-7, NAN, GOLD, GOLD), DomainError),
    (lambda: SphereSystem(1e-7, 1e-7, INF, GOLD, GOLD), DomainError),
    (lambda: QuadratureSpec(tol=NAN), ValueError),
    (lambda: QuadratureSpec(tol=INF), ValueError),
    (lambda: energy_per_area_real_axis(PLATES, NAN), DomainError),
    (lambda: energy_per_area_real_axis(PLATES, INF), DomainError),
])
def test_non_finite_parameter_rejected_at_construction(build, error):
    """A NaN or infinite parameter raises where it enters, not as a
    non-converged or out-of-domain failure deep inside an energy."""
    with pytest.raises(error, match="finite"):
        build()
