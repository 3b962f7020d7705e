"""The identity table behind ``casimir verify``: determinant and unitarity
identities of the scattering algebra on random fixtures.

Every fixture is drawn from its own seed, as ``blockmat.random_unitary`` and
``random_contraction`` draw one. The linear algebra after the draws runs on
stacks: a row's trials whose fixtures share their shapes and integer
parameters form one stack through the batch axis of ``blockmat`` and
``scattering``, whose unitarity and pivot checks name a failing member.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

from . import blockmat, scattering
from .core import check_count
from .scattering import ScatteringMatrix


class Identity(NamedTuple):
    """Lines of the table that share their fixtures. ``fixtures(slots)``
    lists one tuple of arrays and ints per trial from 8 slots of per-trial
    seeds; ``residuals(*stacks)`` gives, for the stacked fixtures of one
    shape, one residual per member for each name, held to the paired bound."""

    names: tuple
    bounds: tuple
    fixtures: Callable
    residuals: Callable


def _unitaries(sizes, seeds):
    """Haar unitaries, one per size and seed; one QR stack per size."""
    out = [None] * len(seeds)
    for n in set(sizes):
        idx = [i for i, m in enumerate(sizes) if m == n]
        for i, u in zip(idx, blockmat.random_unitary(n, [seeds[i] for i in idx])):
            out[i] = u
    return out


def _stacked(residuals, fixtures):
    """Each output of ``residuals`` over all fixtures, from one call per
    stack of the fixtures with equal shapes and equal integer parameters.
    A stack holds at most 128 of them, so its temporaries stay near 2 MB
    (one stack of 500 chain3 trials needs 9 MB, the peak of the process)."""
    groups = defaultdict(list)
    for fx in fixtures:
        groups[tuple(getattr(a, "shape", a) for a in fx)].append(fx)
    stacks = [zip(*g[i:i + 128]) for g in groups.values() for i in range(0, len(g), 128)]
    outs = [residuals(*(np.stack(c) if np.ndim(c[0]) else c[0] for c in cols)) for cols in stacks]
    return [np.concatenate(col) for col in zip(*outs)]


def _sizes(seeds, mod, shift=2):
    return [shift + s % mod for s in seeds]


def _scatterers(u1, u2, n_int):
    return ScatteringMatrix.from_full(u1, n_int), ScatteringMatrix.from_full(u2, n_int)


def _schur(u):
    n_a, ld = u.shape[-1] // 2, blockmat.logdet(u)
    a, _, _, d = blockmat.split(u, n_a)
    via = [blockmat.logdet(x) + blockmat.logdet(blockmat.schur_complement(u, n_a, b))
           for x, b in ((a, "A"), (d, "D"))]
    return (np.maximum(*(np.abs(1 - np.exp(v - ld)) for v in via)),)


def _lemma(u, d):
    a, b, c, _ = blockmat.split(u, d.shape[-1])
    return (blockmat.matrix_det_lemma_residual(a, b, d, c),)


def _star_fixtures(s):
    n_int = _sizes(s[0], 4, 1)  # S1's n_ext is 1 + s[0] % 4 too
    sizes2 = [n + e for n, e in zip(n_int, _sizes(s[1], 4, 1))]
    return list(zip(_unitaries([2 * n for n in n_int], s[4]), _unitaries(sizes2, s[5]), n_int))


def _star(u1, u2, n_int):
    s1, s2 = _scatterers(u1, u2, n_int)
    out = scattering.star(s1, s2)
    return (out.unitarity_defect(), scattering.det_composition_residual(s1, s2),
            np.abs(np.abs(np.exp(blockmat.logdet(out.full))) - 1))


def _alpha_fixtures(s):
    sizes = _sizes(range(len(s[0])), 4, 3)  # n_int = 1 + k % 4, two externals
    return list(zip(_unitaries(sizes, s[6]), _unitaries(sizes, s[7]), [n - 2 for n in sizes]))


def _round_trip(a, b):
    rt, series = scattering.round_trip(a, b), scattering.round_trip_series(a, b, 80)
    return (np.abs(1 - np.exp(blockmat.logdet(rt.D12) - blockmat.logdet(rt.D21))),
            np.abs(series - rt.D12).max(axis=(-2, -1)))


def _chain3(k1, k2, t):
    s1, s2 = _scatterers(blockmat.unitary_dilation(k1), blockmat.unitary_dilation(k2), 2)
    sl = scattering.translation_scatterer(t)
    return (scattering.chain3_factorization_residual(s1, sl, s2),)


def _dilation(k):
    u = blockmat.unitary_dilation(k)
    return blockmat.unitarity_defect(u), np.abs(u[..., :3, :3] - k).max(axis=(-2, -1))


_contractions = blockmat.random_contraction

# key -> lines of the table, in printed order
ROWS = {
    "haar": Identity(("haar_unitarity",), (1e-12,),
                     lambda s: list(zip(_unitaries(_sizes(s[0], 7), s[0]))),
                     lambda u: (blockmat.unitarity_defect(u),)),
    "schur": Identity(("schur_det_split",), (1e-10,),
                      lambda s: list(zip(_unitaries(_sizes(s[0], 15), s[1]))), _schur),
    "lemma": Identity(("matrix_det_lemma",), (1e-10,),
                      lambda s: list(zip(_unitaries([2 * n for n in _sizes(s[0], 15)], s[2]),
                                         _unitaries(_sizes(s[0], 15), [x + 1 for x in s[0]]))),
                      _lemma),
    "unitary_block": Identity(
        ("unitary_block_det", "unitary_block_offdiag"), (1e-10, 1e-10),
        lambda s: list(zip(_unitaries(_sizes(s[0], 15), s[3]))),
        lambda u: tuple(blockmat.unitary_block_relations(u, u.shape[-1] // 2).values())),
    "star": Identity(("star_unitarity", "det_composition", "det_modulus"), (1e-9, 1e-9, 1e-10),
                     _star_fixtures, _star),
    "alpha": Identity(("alpha_sign",), (1e-10,), _alpha_fixtures,
                      lambda u1, u2, n_int: (np.abs(scattering.alpha_phase(
                          *_scatterers(u1, u2, n_int)) - (-1) ** n_int),)),
    "round_trip": Identity(("sylvester", "round_trip_series"), (1e-10, 1e-8),
                           lambda s: list(zip(_contractions(4, s[0]), _contractions(4, s[1]))),
                           _round_trip),
    "chain3": Identity(("chain3_factorization",), (1e-9,),
                       lambda s: list(zip(_contractions(4, s[0]), _contractions(4, s[1]),
                                          _contractions(2, s[2]))), _chain3),
    "dilation": Identity(("dilation_unitarity", "dilation_topleft"), (1e-10, 0.0),
                         lambda s: list(zip(_contractions(3, s[5]))), _dilation),
}


def run(trials, seed):
    """(name, max residual over the trials, bound) for every line of the
    table, in order; ``default_rng(seed)`` draws 8 fixture seeds per trial.
    NotUnitary if a fixture that must be unitary is not; ValueError unless
    ``trials`` is an integer >= 1 and ``seed`` one >= 0."""
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=trials * 8)
    slots = [[int(x) for x in seeds[j * trials:(j + 1) * trials]] for j in range(8)]
    table = []
    for row in ROWS.values():
        residuals = _stacked(row.residuals, row.fixtures(slots))
        table += [(name, float(np.max(res)), bound)
                  for name, bound, res in zip(row.names, row.bounds, residuals)]
    return table
