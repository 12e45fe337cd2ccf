"""Metamorphic properties of the zigzag and armchair channel edges.

Three transformations of a zigzag model have known effects on the edges that
``zigzag_channel_edges`` returns for its channels k = 1..N:

* shifting the potential, v -> v + c, moves every edge by t*c;
* advancing the field phase, b -> b + pi/N, turns channel k into channel
  k + 1 of the unshifted field, and channel N into channel 1
  (``closed_forms.channel_symmetry_map``, "shift");
* reflecting the field phase, b -> -b, turns channel k into channel N - k,
  and channel N into itself ("reflect").

The models span N from 2 to 512, q from 1 to 32 (odd q up to 15, so p <= 16) and t from
1e-4 to 1e3; a third of them sit on a flat-band phase b = pi/2 - pi k/N, where
one channel is a chain of dimers.  The channel constants of the two sides
differ by rounding only, so the edges agree to a few ulps of the model's
largest level: the tolerance is 8 * 2p * u * max|level|, u = 2**-53, the
allowance of the Hill-order check.

The armchair block channels, solved by ``spectrum_block_stack``, obey the same
three laws: v -> v + c moves every edge by t*c; b1 -> b1 + 2 pi/N multiplies
the hopping block of channel k by exp(2 pi i/N), which makes it the block of
channel k + 1 ("shift"); and negating all three phases gives the complex
conjugate of channel N - k, whose levels are the same ("reflect").  The
models span N from 2 to 8, q from 1 to 12, t from 1e-2 to 1e2 and random
phases.  The two sides are separate solves of 2p x 2p
fiber matrices whose entries differ by rounding, and no Hill-order check
bounds the levels of either: each side carries the eigensolver's error, taken
as the same 8 * 2p * u * max|level|, so the tolerance is twice that.

The union of a zigzag model's channels is invariant under the energy shift
v -> v + c/t, which moves every level by c: the number of union bands, the
number of gaps and the multiplicity column stay the same, on 300 seeded
models with q 1-16, N 2-39 and t from 1 to 1e4.  Above t ~ 1e4 the union's
absolute rules (GAP_MERGE_TOL and UNION_CUT_TOL) meet rounding of the order
t * u, and the property fails on some models (ROADMAP item 2).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from closed_forms import channel_symmetry_map
from nanotube_bands import ArmchairModel, PotentialProfile, ZigzagModel, decompose_armchair
from nanotube_bands.spectral import full_spectrum, spectrum_block_stack, zigzag_channel_edges

# (N, q, t) at the corners of the ranges, then seeded draws
CORNERS = [(512, 32, 1e-4), (512, 15, 1e3), (2, 1, 1e3), (3, 32, 1e-4), (256, 13, 1.0)]
QS = list(range(2, 33, 2)) + list(range(1, 16, 2))  # the periods p <= 16 that the CLI accepts


def models():
    rng = np.random.default_rng(2026)
    cases = CORNERS + [
        (int(np.exp(rng.uniform(math.log(2), math.log(512)))), int(rng.choice(QS)), float(10 ** rng.uniform(-4, 3)))
        for _ in range(10)
    ]
    for i, (N, q, t) in enumerate(cases):
        k = int(rng.integers(1, N + 1))
        b = math.pi / 2 - math.pi * k / N if i % 3 == 0 else float(rng.uniform(-math.pi, math.pi))
        yield ZigzagModel(N, b, PotentialProfile(rng.uniform(-1, 1, q)), t=t)


MODELS = list(models())


def edges(model):
    """(flat mask, lower edges, upper edges) of the channels k = 1..N of one model."""
    flat, _, lo, hi = zigzag_channel_edges([model])
    return flat[0], lo[0], hi[0]


def tolerance(model, lo, hi) -> float:
    return 8 * 2 * model.potential.p * 2.0**-53 * max(np.max(np.abs(lo)), np.max(np.abs(hi)))


def assert_same_channels(got, want, tol):
    (flat, lo, hi), (want_flat, want_lo, want_hi) = got, want
    assert np.array_equal(flat, want_flat)
    assert np.max(np.abs(lo - want_lo)) <= tol, np.max(np.abs(lo - want_lo)) / tol
    assert np.max(np.abs(hi - want_hi)) <= tol, np.max(np.abs(hi - want_hi)) / tol


def partners(N, b, key):
    """Row k - 1: the 0-based index of the partner that ``channel_symmetry_map`` gives channel k."""
    return [channel_symmetry_map(N, b, k)[key][0] - 1 for k in range(1, N + 1)]


def relabelled(model, channels, key):
    """The channels of ``model``, row k - 1 holding the partner of channel k."""
    partner = partners(model.N, model.b, key)
    return tuple(x[partner] for x in channels)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"N{m.N}-q{m.potential.q}-t{m.t:.3g}")
def test_zigzag_edges_are_metamorphic(model):
    base = edges(model)
    tol = tolerance(model, *base[1:])
    c = 0.37
    flat, lo, hi = edges(ZigzagModel(model.N, model.b, PotentialProfile(np.add(model.potential.values, c)), t=model.t))
    assert_same_channels((flat, lo - model.t * c, hi - model.t * c), base, tolerance(model, lo, hi))
    advanced = edges(ZigzagModel(model.N, model.b + math.pi / model.N, model.potential, t=model.t))
    assert_same_channels(advanced, relabelled(model, base, "shift"), tol)
    reflected = edges(ZigzagModel(model.N, -model.b, model.potential, t=model.t))
    assert_same_channels(reflected, relabelled(model, base, "reflect"), tol)


def armchair_models():
    rng = np.random.default_rng(2027)
    for _ in range(24):
        N, q, t = int(rng.integers(2, 9)), int(rng.integers(1, 13)), float(10 ** rng.uniform(-2, 2))
        phases = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        model = ArmchairModel(N, phases, PotentialProfile(rng.uniform(-1, 1, q)), t=t)
        yield pytest.param(model, id=f"N{N}-q{q}-t{t:.3g}")


def block_edges(model):
    """The (bands, 2) edges of each block channel k = 1..N of one model."""
    return [np.array(bands) for bands in spectrum_block_stack(*decompose_armchair([model]))]


@pytest.mark.parametrize("model", list(armchair_models()))
def test_armchair_edges_are_metamorphic(model):
    base = block_edges(model)
    c = 0.37
    shifted = block_edges(replace(model, potential=PotentialProfile(np.add(model.potential.values, c))))
    b1, b2, b3 = model.phases
    advanced = block_edges(replace(model, phases=(b1 + 2 * math.pi / model.N, b2, b3)))
    reflected = block_edges(replace(model, phases=(-b1, -b2, -b3)))
    for got, want in [
        ([bands - model.t * c for bands in shifted], base),
        (advanced, [base[j] for j in partners(model.N, b1, "shift")]),
        (reflected, [base[j] for j in partners(model.N, b1, "reflect")]),
    ]:
        assert [bands.shape for bands in got] == [bands.shape for bands in want]
        got, want = np.concatenate(got), np.concatenate(want)
        tol = 2 * tolerance(model, got, want)
        assert np.max(np.abs(got - want)) <= tol, np.max(np.abs(got - want)) / tol


def union_shape(model):
    """Number of union bands, number of union gaps and the multiplicity column of a model."""
    union = full_spectrum(model)
    return union.lo.size, len(union.union_gaps), union.multiplicity.tolist()


@pytest.mark.parametrize("seed", [7, 2028])
def test_zigzag_union_is_invariant_under_an_energy_shift(seed):
    rng = np.random.default_rng(seed)
    changed = []
    for _ in range(150):
        q, N = int(rng.integers(1, 17)), int(rng.integers(2, 40))
        b, v, c = float(rng.uniform(-math.pi, math.pi)), rng.uniform(-1, 1, q), float(rng.uniform(-1, 1))
        t = float(10 ** rng.uniform(0, 4))
        model = ZigzagModel(N, b, PotentialProfile(v), t=t)
        if union_shape(model) != union_shape(replace(model, potential=PotentialProfile(v + c / t))):
            changed.append((N, q, t))
    assert changed == []
