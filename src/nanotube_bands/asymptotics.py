"""Closed-form spectral asymptotics and measured-vs-predicted harnesses.

Every predictor here has an independent numerical counterpart in
:mod:`nanotube_bands.spectral`; the harness functions at the bottom compare
the two.  This is the only module that decides how a regime is checked: each
``measure_*`` returns the complete list of :class:`AsymptoticReport` records
of its regime, and its signature holds the regime's default tolerances.
The module holds what the ``asym`` regimes run.  The exact references that
only check the engine (the half-period-one and zero-potential closed forms,
the shifted-Schroedinger containment, the armchair cluster-centre errors and
the strong-coupling predictors taken one position at a time) are kept with
the tests, in ``tests/closed_forms.py``.  The strong-coupling predictors
return a channel's clusters as arrays over its positions, so each
channel-wide quantity is computed once per channel.

Index conventions match the rest of the package: potentials are 0-based
arrays with dimer pairs ``(v[2j], v[2j+1])``, bonds ``a[i]`` couple sites i
and i+1, and gap n separates bands n and n+1 (1-based) of a 2p-band channel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .armchair import decompose_armchair
from .core import (
    DEGENERATE_LEVEL_TOL, DISTINCT_TOL, FOURIER_ZERO_TOL, RUNG_PAIR_TOL, SAME_BOND_TOL, UNIT_BOND_TOL,
    ArmchairModel, PotentialProfile, ZigzagModel, energy_scale, is_flat_channel,
)
from .errors import InvalidInputError, NotApplicableError
from .spectral import (
    block_branch_ranges,
    flat_band_spectrum,
    full_spectrum,
    merge_intervals,
    max_edge_deviation,
    schroedinger_band_edges,
    zigzag_chain_edges,
    zigzag_channel_edges,
)


@dataclass(frozen=True)
class AsymptoticReport:
    """One measured-vs-predicted comparison with its verdict."""

    regime: str
    params: dict
    predicted: float
    measured: float
    tolerance: float

    @property
    def ratio(self) -> float | None:
        return self.measured / self.predicted if self.predicted != 0.0 else None

    @property
    def passed(self) -> bool:
        if self.predicted == 0.0:
            return abs(self.measured) <= self.tolerance
        return abs(self.ratio - 1.0) <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "params": self.params,
            "predicted": self.predicted,
            "measured": self.measured,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# Fourier data of a potential


def fourier_hats(profile: PotentialProfile) -> tuple[np.ndarray, np.ndarray]:
    """Half-period Fourier coefficients (hat0, hat1) of the two sublattices.

    hat^s_n = (1/2p) sum_{m=1..p} v^s_m exp(-2 pi i n m / p), n = 1..p, where
    v^1 interleaves the even-site values v[0], v[2], ... and v^0 the odd-site
    values v[1], v[3], ....  Both arrays are p-periodic in n.
    """
    p = profile.p
    ext = profile.extended(2 * p)
    v1 = ext[0::2]
    v0 = ext[1::2]
    n = np.arange(1, p + 1)
    m = np.arange(1, p + 1)
    W = np.exp(-2j * np.pi * np.outer(n, m) / p) / (2 * p)
    return W @ v0, W @ v1


def _hat(arr: np.ndarray, n: int) -> complex:
    """Value at index n of a p-periodic coefficient array (1-based n)."""
    p = arr.size
    return complex(arr[(n - 1) % p])


# ---------------------------------------------------------------------------
# band shrinkage as the even bond vanishes


@dataclass(frozen=True)
class ShrinkPrediction:
    s: int
    level: float           # flat level the band collapses onto
    level_spacing: float   # product of distances to the other levels
    width: float
    edge_lower: float
    edge_upper: float


def predict_ck_shrink(
    profile: PotentialProfile, c_k: float, s: int, t: float = 1.0
) -> ShrinkPrediction:
    """Leading-order width of band s as the channel constant c_k -> 0.

    The band collapses onto the s-th dimer level lambda_s; its width is
    4|2c_k|^p / prod_{n != s} |lambda_s - lambda_n|.  The same-order center
    shift is not modelled, so the edges carry only the symmetric half-width.
    """
    p = profile.p
    levels = flat_band_spectrum(profile, t)
    if not 1 <= s <= 2 * p:
        raise NotApplicableError(f"band index s must lie in 1..{2 * p}, got {s}")
    lam = levels[s - 1]
    others = np.delete(levels, s - 1)
    if others.size and np.min(np.abs(others - lam)) < DEGENERATE_LEVEL_TOL:
        raise NotApplicableError(f"level {lam} is degenerate; shrinkage rate undefined")
    with np.errstate(over="ignore"):  # a spacing past the float range gives width 0
        spacing = float(np.prod(np.abs(others - lam))) if others.size else 1.0
    try:
        power = abs(2.0 * c_k) ** p
    except OverflowError:  # a Python float power raises rather than return inf
        power = math.inf
    half = 2.0 * power / spacing
    return ShrinkPrediction(
        s=s,
        level=float(lam),
        level_spacing=spacing,
        width=2.0 * half,
        edge_lower=float(lam - half),
        edge_upper=float(lam + half),
    )


# ---------------------------------------------------------------------------
# weak-coupling gap slopes


def admissible_gap_indices(p: int, c_k: float) -> list[int]:
    """Gap indices with a first-order opening law: all of 1..2p-1, minus the
    central one unless the channel is the unit-hopping chain."""
    ns = list(range(1, 2 * p))
    if abs(2.0 * abs(c_k) - 1.0) > UNIT_BOND_TOL:
        ns.remove(p)
    return ns


@dataclass(frozen=True)
class SmallTPrediction:
    n: int
    edge_at_zero_lower: float
    edge_at_zero_upper: float
    slope: float            # gap edges move as edge(t) = edge(0) -/+ t*slope
    exactly_closed: bool    # gap degenerate to all orders (odd-period unit chain)


def predict_small_t(profile: PotentialProfile, c_k: float, n: int) -> SmallTPrediction:
    """First-order opening rate of gap n of a channel under a weak potential.

    The degenerate pair at the unperturbed edge splits at the rate
    |hat0_n + tau_n^2 exp(-2i arg(a + tau_n)) hat1_n| with a = 2|c_k|; at the
    central gap of the unit-hopping chain the rate is |hat0_p - hat1_p|.
    """
    if is_flat_channel(c_k):
        raise NotApplicableError("flat-band channel has no dispersive gap edges")
    if not profile.is_zero_mean():
        raise InvalidInputError("weak-coupling slopes need a zero-mean potential")
    p = profile.p
    if n not in admissible_gap_indices(p, c_k):
        raise NotApplicableError(f"gap {n} has no first-order law for this channel")
    a = 2.0 * abs(c_k)
    hat0, hat1 = fourier_hats(profile)
    tau = cmath.exp(1j * math.pi * n / p)
    if n == p:
        z0_lo, z0_hi = -abs(a - 1.0), abs(a - 1.0)
        psi = abs(_hat(hat0, p) - _hat(hat1, p))
    else:
        z0 = abs(a + tau) * (1.0 if n > p else -1.0)
        z0_lo = z0_hi = z0
        theta = cmath.phase(a + tau)
        psi = abs(_hat(hat0, n) + tau**2 * cmath.exp(-2j * theta) * _hat(hat1, n))
    closed = profile.q % 2 == 1 and abs(a - 1.0) <= UNIT_BOND_TOL and n % 2 == 1
    if closed:
        psi = 0.0
    return SmallTPrediction(
        n=n,
        edge_at_zero_lower=float(z0_lo),
        edge_at_zero_upper=float(z0_hi),
        slope=float(psi),
        exactly_closed=closed,
    )


def is_open_gap_potential(profile: PotentialProfile) -> bool:
    """Membership test for the class whose first-order gap openings are all nonzero."""
    p = profile.p
    ext = profile.extended(2 * p)
    zero = FOURIER_ZERO_TOL * energy_scale(ext)
    if abs(float(np.sum(ext))) > zero:
        return False
    hat0, hat1 = fourier_hats(profile)
    if profile.q % 2 == 0:
        for n in range(1, p):
            if abs(hat0[n - 1] + hat1[n - 1]) <= zero:
                return False
            if min(abs(hat0[n - 1]), abs(hat1[n - 1])) > zero:
                return False
        return abs(hat0[p - 1]) > zero
    return all(abs(hat0[n - 1]) > zero for n in range(1, p))


def sample_open_gap_potential(p_star: int, seed) -> PotentialProfile:
    """Draw a zero-mean potential of declared period p_star with all first-order
    gaps open (and, for even periods, one sublattice spectrally flat)."""
    if p_star < 2:
        raise InvalidInputError(f"need declared period >= 2, got {p_star}")
    rng = np.random.default_rng(seed)

    def coeffs(m: int) -> np.ndarray:
        # conjugate-symmetric nonzero coefficients alpha_1..alpha_{m-1}
        alpha = np.zeros(m, dtype=complex)  # index n-1 for n = 1..m-1
        for n in range(1, m):
            if alpha[n - 1] != 0:
                continue
            mag = rng.uniform(0.5, 1.5)
            if 2 * n == m:
                alpha[n - 1] = mag * rng.choice([-1.0, 1.0])
            else:
                phase = rng.uniform(0, 2 * np.pi)
                alpha[n - 1] = mag * np.exp(1j * phase)
                alpha[m - n - 1] = np.conj(alpha[n - 1])
        return alpha

    if p_star % 2 == 0:
        p = p_star // 2
        alpha = coeffs(p)
        alpha_p = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        j = np.arange(1, p + 1)
        v1 = np.zeros(p)
        for n in range(1, p):
            v1 += np.real(alpha[n - 1] * np.exp(2j * np.pi * n * j / p)) / (2 * p)
        v1 += alpha_p / (2 * p)  # the p-th basis vector is constant
        v0 = np.full(p, -alpha_p / (2 * p))
        values = np.empty(2 * p)
        values[0::2] = v1
        values[1::2] = v0
    else:
        p = p_star
        alpha = coeffs(p)
        j = np.arange(1, p + 1)
        v0 = np.zeros(p)
        for n in range(1, p):
            v0 += np.real(alpha[n - 1] * np.exp(2j * np.pi * n * j / p)) / (2 * p)
        # v0[m-1] holds the odd-site value at chain position 2m-1; invert the
        # 2m-1 mod p site map to recover the declared-period array
        values = np.empty(p)
        for m in range(1, p + 1):
            values[(2 * m - 1) % p] = v0[m - 1]
    profile = PotentialProfile(values)
    if not is_open_gap_potential(profile):
        raise InvalidInputError("sampled potential failed its own membership test")
    return profile


# ---------------------------------------------------------------------------
# low-energy windows


@dataclass(frozen=True)
class LowEnergyWindows:
    r_high: float | None
    rho_high: float | None
    r_low: float | None
    central_gap_expected: bool


def low_energy_windows(N: int, p: int) -> LowEnergyWindows:
    """Window radii where the spectrum is exhausted by a single channel.

    The outer window [r_high, rho_high] and the central window [-r_low, r_low]
    both need p > 2N, the latter additionally N divisible by 3; for N not
    divisible by 3 a gap around zero is expected instead (any p).
    """
    r_high = rho_high = r_low = None
    if p > 2 * N:
        r_high = abs(2.0 + cmath.exp(1j * math.pi / N))
        rho_high = (3.0 + abs(2.0 + cmath.exp(1j * math.pi / p))) / 2.0
        if N % 3 == 0:
            r_low = abs(1.0 - cmath.exp(1j * math.pi / N))
    if r_high is None and N % 3 == 0:
        raise NotApplicableError(f"no window statement applies for N={N}, p={p}")
    return LowEnergyWindows(
        r_high=r_high, rho_high=rho_high, r_low=r_low, central_gap_expected=N % 3 != 0
    )


# ---------------------------------------------------------------------------
# strong-coupling zigzag clusters


@dataclass(frozen=True)
class LargeTZigzagPrediction:
    """The clusters of one channel; each array holds position n at index n - 1 of the 2p-periodic sequence."""

    band_rank: np.ndarray  # 1-based band index each cluster occupies
    center: np.ndarray
    width: np.ndarray
    dressing: np.ndarray   # second-order center shift coefficient
    window: float          # half-size delta/t of the window about t*v_n that holds every cluster


def _check_distinct(vals: np.ndarray) -> None:
    with np.errstate(over="ignore"):  # a difference past the float range is inf: distinct
        spread = np.abs(vals[:, None] - vals[None, :])
    if np.min(spread + np.eye(vals.size)) < DISTINCT_TOL:
        raise InvalidInputError("cluster asymptotics need pairwise distinct potential values")


def _separations(vals: np.ndarray) -> np.ndarray:
    """|v_j - v_i| for each i (a row) and j != i, in position order."""
    m = vals.size
    return np.abs(vals[None, :] - vals[:, None])[~np.eye(m, dtype=bool)].reshape(m, m - 1)


def _cluster_widths(scale: float, log_scale: float, seps: np.ndarray, t: float, power: int) -> np.ndarray:
    """scale / (prod_j seps[i, j] * t**power) for each row i; in logarithms where the denominator is 0 * inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        width = scale / (np.prod(seps, axis=1) * np.float64(t) ** power)
        lost = np.isnan(width)
        width[lost] = np.exp(log_scale - np.log(seps[lost]).sum(axis=1) - power * math.log(t))
    return width


def predict_large_t_zigzag(profile: PotentialProfile, c_k: float, t: float) -> LargeTZigzagPrediction:
    """Strong-coupling clusters of one channel, one per potential value.

    The band center sits at t*v_n minus a second-order dressing by the two
    adjacent bonds; the width decays as t^(1-2p) with the inverse product of
    value separations.  The window half-size delta/t is derived from the same
    dressing bound plus the width, so it contains the band for every channel.
    A quantity that leaves the float range is inf, so a width whose power of t
    or separation product alone overflows is 0, and one that underflows is inf.
    """
    if is_flat_channel(c_k):
        raise NotApplicableError("flat-band channel: clusters are single points")
    if t <= 0:
        raise InvalidInputError("strong-coupling regime needs t > 0")
    p = profile.p
    vals = profile.period_values()
    _check_distinct(vals)
    a = 2.0 * abs(c_k)
    bond_sq = np.where(np.arange(2 * p) % 2 == 0, 1.0, a**2)  # bond i couples positions i and i + 1
    with np.errstate(divide="ignore", over="ignore"):
        left = np.roll(bond_sq, 1) / (np.roll(vals, 1) - vals)
        right = bond_sq / (np.roll(vals, -1) - vals)
        dressing = left + right
        seps = _separations(vals)
        delta = np.max(np.abs(left) + np.abs(right) + 2.0 * a**p / np.prod(seps, axis=1)) + 0.5
        return LargeTZigzagPrediction(
            band_rank=np.sum(vals < vals[:, None], axis=1) + 1,
            center=t * vals - dressing / t,
            width=_cluster_widths(4.0 * a**p, math.log(4.0) + p * math.log(a), seps, t, 2 * p - 1),
            dressing=dressing,
            window=float(delta / t),
        )


# ---------------------------------------------------------------------------
# armchair: weak paired potentials


@dataclass(frozen=True)
class SmallVArmchairPrediction:
    edges: list[tuple[float, float]]    # predicted Schroedinger gap edges (z_n^-, z_n^+)
    in_gap_opening_set: bool
    r_minus: float
    r_plus: float
    rtilde_minus: float
    rtilde_plus: float
    negative_window: list[int]          # gamma_n - 1 inside [-rtilde_plus, -rtilde_minus]
    positive_window: list[int]          # gamma_n + 1 inside [rtilde_minus, rtilde_plus]


def rung_fourier(q: np.ndarray) -> np.ndarray:
    """hat q_n = (1/p) sum_{j=0..p-1} q_j exp(-2 pi i n j / p), n = 0..p-1."""
    p = q.size
    n = np.arange(p)
    j = np.arange(p)
    return (np.exp(-2j * np.pi * np.outer(n, j) / p) @ q) / p


def in_gap_opening_set(q) -> bool:
    """Real symmetric combinations of paired Fourier modes, all modes present."""
    q = np.asarray(q, dtype=float)
    hats = rung_fourier(q)
    zero = FOURIER_ZERO_TOL * energy_scale(q)
    if abs(hats[0]) > zero:
        return False
    for n in range(1, q.size):
        if abs(hats[n]) <= zero or abs(hats[n].imag) > zero:
            return False
    return True


def _rung_values(profile: PotentialProfile) -> np.ndarray:
    """The p rung values of a rung-paired potential (v[2j] == v[2j+1])."""
    pairs = profile.pairs()
    with np.errstate(over="ignore"):  # a difference past the float range is inf: not paired
        unpaired = np.max(np.abs(pairs[:, 0] - pairs[:, 1])) > RUNG_PAIR_TOL
    if unpaired:
        raise InvalidInputError("rung-paired potential required: v[2j] must equal v[2j+1]")
    return pairs[:, 0]


def _shifted_overlay(profile: PotentialProfile, N: int) -> tuple:
    """Rung values, Schroedinger bands, their copies shifted by -1 and +1, and
    the band structure of the zero-field armchair tube with this potential.

    With v[2j] == v[2j+1] and zero field, the k = N armchair channel splits
    into two copies of the p-periodic Schroedinger operator J(v_even) shifted
    by -1 and +1.
    """
    q = _rung_values(profile)
    j_bands = schroedinger_band_edges(q)
    shifted = [(lo - 1.0, hi - 1.0) for lo, hi in j_bands] + [(lo + 1.0, hi + 1.0) for lo, hi in j_bands]
    model = ArmchairModel(N=N, phases=(0.0, 0.0, 0.0), potential=profile, t=1.0)
    return q, j_bands, shifted, full_spectrum(model)


def predict_small_v_armchair(profile: PotentialProfile, N: int) -> SmallVArmchairPrediction:
    """First-order gap data of the rung potential and the windows into which
    the shifted copies of those gaps land inside the armchair spectrum.

    The law sums the p rung values and adds gap edges in pairs, so a
    potential whose 4 p max|v| is past the float range is refused.
    """
    q = _rung_values(profile)
    p = q.size
    vmax = float(np.max(np.abs(q)))
    if not math.isfinite(4.0 * p * vmax):
        raise InvalidInputError(f"small_v_armchair needs 4 p max|v| in the float range, got p = {p}, max|v| = {vmax}")
    hats = rung_fourier(q)
    edges = []
    for n in range(1, p):
        base = -2.0 * math.cos(math.pi * n / p) + hats[0].real
        edges.append((base - abs(hats[n]), base + abs(hats[n])))
    r_minus = 2.0 * math.cos(math.pi / 3 + 1.0 / (2 * N) + 1.0 / (6 * p)) - 1.0
    r_plus = 2.0 * math.cos(math.pi / 3 - 1.0 / (2 * N) - 1.0 / (6 * p)) - 1.0
    rtilde_minus = 1.0 + 2.0 * math.cos(math.pi / (2 * N) + 1.0 / (6 * p))
    rtilde_plus = 1.0 + 2.0 * math.cos(1.0 / (6 * p))
    return SmallVArmchairPrediction(
        edges=edges,
        in_gap_opening_set=in_gap_opening_set(q),
        r_minus=r_minus,
        r_plus=r_plus,
        rtilde_minus=rtilde_minus,
        rtilde_plus=rtilde_plus,
        negative_window=[n for n in range(1, p) if n <= p / (2 * N)],
        positive_window=[n for n in range(1, p) if n >= p - p / (2 * N)],
    )


# ---------------------------------------------------------------------------
# strong-coupling armchair clusters


@dataclass(frozen=True)
class LargeTArmchairPrediction:
    """The clusters of one block channel; each array holds position j at index j - 1 of the potential."""

    band_rank: np.ndarray
    center: np.ndarray
    width: np.ndarray
    phase_weight: float     # 2 Re(s^k exp(i(b1+b2-2b3)))


def predict_large_t_armchair(
    profile: PotentialProfile,
    k: int,
    t: float,
    N: int,
    phases: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> LargeTArmchairPrediction:
    """Strong-coupling clusters of block channel k, one per value of a 4m-periodic potential.

    Every position couples to three neighbours (offsets -1/+1/+3 from even
    0-based positions, -3/-1/+1 from odd ones), which fixes the 1/t dressing.
    No three-step loop exists on this graph, so the 1/t^2 coefficient of the
    centre vanishes and the residual is O(1/t^3).  The width comes from the
    shortest winding paths and decays as t^(1-q/2) with the inverse product of
    separations over the positions sharing the winding class: positions 1 and
    2 mod 4 share one, 3 and 0 mod 4 the other.  A quantity that leaves the
    float range is inf, as in ``predict_large_t_zigzag``.
    """
    q = profile.q
    if q % 4 != 0 or q < 12:
        raise NotApplicableError("cluster law needs a 4m-periodic potential with m > 2")
    if t <= 0:
        raise InvalidInputError("strong-coupling regime needs t > 0")
    vals = np.asarray(profile.values, dtype=float)
    _check_distinct(vals)
    pos = np.arange(q)
    offsets = np.where(pos % 2 == 0, np.array([[-1], [1], [3]]), np.array([[-3], [-1], [1]]))
    b1, b2, b3 = phases
    s_k = cmath.exp(2j * math.pi * k / N)
    seps = np.empty((q, q // 2 - 1))
    winding = (pos % 4 == 1) | (pos % 4 == 2)
    with np.errstate(divide="ignore", over="ignore"):
        V = 1.0 / (vals[(pos + offsets) % q] - vals)
        for members in (winding, ~winding):
            seps[members] = _separations(vals[members])
        return LargeTArmchairPrediction(
            band_rank=np.sum(vals < vals[:, None], axis=1) + 1,
            center=t * vals - (V[0] + V[1] + V[2]) / t,
            width=_cluster_widths(4.0, math.log(4.0), seps, t, q // 2 - 1),
            phase_weight=2.0 * (s_k * cmath.exp(1j * (b1 + b2 - 2 * b3))).real,
        )


# ---------------------------------------------------------------------------
# measured-vs-predicted harnesses


def measure_ck_shrink(
    profile: PotentialProfile,
    c_values=(0.02, 0.01, 0.005),
    *,
    s: int,
    t: float = 1.0,
    tolerance: float = 0.05,
) -> list[AsymptoticReport]:
    """Band-s width against the collapse law for each channel constant."""
    preds = [predict_ck_shrink(profile, c, s, t) for c in c_values]
    return [
        AsymptoticReport(
            regime="ck_to_zero",
            params={"c_k": float(c), "s": s, "t": t},
            predicted=pred.width,
            measured=float(edges[2 * s - 1] - edges[2 * s - 2]),
            tolerance=tolerance,
        )
        for c, pred, edges in zip(c_values, preds, zigzag_chain_edges(c_values, t * profile.period_values()))
    ]


def measure_small_t_slopes(
    profile: PotentialProfile,
    c_k: float,
    t0: float = 1e-4,
    h: float = 1e-5,
    tolerance: float = 1e-3,
    zero_tolerance: float = 1e-6,
) -> list[AsymptoticReport]:
    """Central-difference gap-opening rates against the first-order law."""
    plus, minus = zigzag_chain_edges(c_k, np.multiply.outer([t0 + h, t0 - h], profile.period_values()))
    # gap n runs from edge 2n - 1 (the top of band n) to edge 2n
    w_plus, w_minus = plus[2::2] - plus[1:-1:2], minus[2::2] - minus[1:-1:2]
    out = []
    for n in admissible_gap_indices(profile.p, c_k):
        pred = predict_small_t(profile, c_k, n)
        measured = (w_plus[n - 1] - w_minus[n - 1]) / (4.0 * h)
        out.append(
            AsymptoticReport(
                regime="small_t",
                params={"c_k": float(c_k), "n": n, "t0": t0, "h": h},
                predicted=pred.slope,
                measured=float(measured),
                tolerance=tolerance if pred.slope != 0.0 else zero_tolerance,
            )
        )
    return out


def measure_large_t_zigzag(model: ZigzagModel, tolerance: float = 0.1) -> list[AsymptoticReport]:
    """Width ratios, then the window-containment and same-rank-disjointness checks.

    A check is a report with ``params={"check": name}``, predicted 0 and
    measured 0 (holds) or 1 (fails).  At p = 1 the same-rank bands are nested
    for all t (exact closed form), so there is no disjointness report.
    """
    p = model.potential.p
    t = model.t
    middle = t * model.potential.period_values()  # the cluster windows sit about t*v_n
    reports = []
    contained = True
    (flat,), (c_k,), (edges_lo,), (edges_hi,) = zigzag_channel_edges([model])
    for k, is_flat, c, chan_lo, chan_hi in zip(range(1, model.N + 1), flat, c_k.tolist(), edges_lo, edges_hi):
        if is_flat:  # the channels that bands prints as flat levels
            continue
        pred = predict_large_t_zigzag(model.potential, c, t)
        lo, hi = chan_lo[pred.band_rank - 1], chan_hi[pred.band_rank - 1]
        contained = contained and not np.any((lo < middle - pred.window) | (hi > middle + pred.window))
        reports += [
            AsymptoticReport(
                regime="large_t_zigzag",
                params={"k": k, "n": n, "t": t},
                predicted=width,
                measured=measured,
                tolerance=tolerance,
            )
            for n, width, measured in zip(range(1, 2 * p + 1), pred.width.tolist(), (hi - lo).tolist())
        ]
    checks = [("windows_contain_bands", contained)]
    if p >= 2:
        # same-rank bands of channels with distinct |c_k| must not overlap
        c, lo, hi = np.abs(c_k[~flat]), edges_lo[~flat], edges_hi[~flat]
        apart = np.abs(c[:, None] - c[None, :]) >= SAME_BOND_TOL
        disjoint = not any(
            np.any(apart & (np.minimum(rank_hi[:, None], rank_hi) > np.maximum(rank_lo[:, None], rank_lo)))
            for rank_lo, rank_hi in zip(lo.T, hi.T)
        )
        checks.append(("same_rank_bands_disjoint", disjoint))
    for name, ok in checks:
        reports.append(
            AsymptoticReport(
                regime="large_t_zigzag",
                params={"check": name},
                predicted=0.0,
                measured=0.0 if ok else 1.0,
                tolerance=0.5,
            )
        )
    return reports


def measure_large_t_armchair(model: ArmchairModel, k: int, tolerance: float = 0.1) -> list[AsymptoticReport]:
    """Cluster width ratios for one block channel of a strongly coupled tube.

    Each cluster is measured on the sorted eigenvalue branch of its rank, so
    clusters that have not yet separated into bands still get a report.
    """
    if not 1 <= k <= model.N:
        raise InvalidInputError(f"channel index k must lie in 1..{model.N}, got {k}")
    pred = predict_large_t_armchair(model.potential, k, model.t, model.N, model.phases)
    a, d = decompose_armchair([model])
    (lo,), (hi,) = block_branch_ranges(a[k - 1 : k], d[k - 1 : k])
    measured = hi[pred.band_rank - 1] - lo[pred.band_rank - 1]
    return [
        AsymptoticReport(
            regime="large_t_armchair",
            params={"k": k, "j": j, "t": model.t},
            predicted=width,
            measured=width_measured,
            tolerance=tolerance,
        )
        for j, width, width_measured in zip(range(1, model.potential.q + 1), pred.width.tolist(), measured.tolist())
    ]


def _clip(intervals, lo, hi) -> list[tuple[float, float]]:
    """The parts of the intervals that lie inside (lo, hi)."""
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def measure_low_energy_window(
    model: ZigzagModel, tolerance: float = 1e-8
) -> list[AsymptoticReport]:
    """Spectral content of the single-channel windows against the full union.

    A window with a channel compares the union there with that channel's
    bands; the central gap (channel None) has no spectrum at all, so its
    measure is the band length plus the flat levels inside it.
    """
    windows = low_energy_windows(model.N, model.potential.p)
    s = full_spectrum(model)
    union = list(zip(s.lo.tolist(), s.hi.tolist()))
    levels = s.row_lo[s.flat]
    cases = []
    if windows.r_high is not None:
        cases += [((windows.r_high, windows.rho_high), model.N), ((-windows.rho_high, -windows.r_high), model.N)]
    if windows.r_low is not None:
        cases.append(((-windows.r_low, windows.r_low), model.N // 3))
    if windows.central_gap_expected:
        # half-radius set by the unperturbed inner edges
        r = 0.5 * min(abs(2.0 * abs(model.channel_constant(k)) - 1.0) for k in range(1, model.N + 1))
        cases.append(((-r, r), None))
    out = []
    for (lo, hi), k in cases:
        clipped = _clip(union, lo, hi)
        if k is None:
            measured = sum(b - a for a, b in clipped) + int(np.count_nonzero((lo <= levels) & (levels <= hi)))
        else:
            bands = ~s.flat & (s.chan == k - 1)  # channel k's bands
            channel = zip(s.row_lo[bands].tolist(), s.row_hi[bands].tolist())
            measured = max_edge_deviation(clipped, _clip(channel, lo, hi))
        out.append(
            AsymptoticReport(
                regime="low_energy_window",
                params={"window": [lo, hi], "channel": k},
                predicted=0.0,
                measured=float(measured),
                tolerance=tolerance,
            )
        )
    return out


def measure_small_v_armchair(
    profile: PotentialProfile,
    N: int,
    tolerance: float = 0.1,
    set_tolerance: float = 1e-6,
) -> list[AsymptoticReport]:
    """Armchair spectrum near its window regions for a weak rung-paired potential.

    Edge windows: measured union-gap positions against the shifted first-order
    Schroedinger gaps, tolerance relative to each gap width.  Central window:
    the spectrum there is the overlay of both shifted Schroedinger copies, so
    the comparison is set equality against the independently computed bands.
    """
    pred = predict_small_v_armchair(profile, N)
    _, _, shifted, s = _shifted_overlay(profile, N)
    union, gaps = list(zip(s.lo.tolist(), s.hi.tolist())), list(zip(s.union_gap_lo.tolist(), s.union_gap_hi.tolist()))
    out = []
    cases = [(n, -1.0, (-pred.rtilde_plus, -pred.rtilde_minus)) for n in pred.negative_window]
    cases += [(n, +1.0, (pred.rtilde_minus, pred.rtilde_plus)) for n in pred.positive_window]
    for n, shift, (wlo, whi) in cases:
        glo, ghi = pred.edges[n - 1]
        target = (glo + shift, ghi + shift)
        width = ghi - glo
        if target[0] < wlo or target[1] > whi or width <= 0:
            continue
        center = 0.5 * (target[0] + target[1])
        best = None
        for mlo, mhi in gaps:
            if mhi < wlo or mlo > whi:
                continue
            off = abs(0.5 * (mlo + mhi) - center)
            if best is None or off < best:
                best = off
        out.append(
            AsymptoticReport(
                regime="small_v_armchair",
                params={"n": n, "shift": shift, "window": [wlo, whi]},
                predicted=0.0,
                measured=float(best / width) if best is not None else math.inf,
                tolerance=tolerance,
            )
        )

    dev = max_edge_deviation(
        _clip(union, pred.r_minus, pred.r_plus), _clip(merge_intervals(shifted), pred.r_minus, pred.r_plus)
    )
    out.append(
        AsymptoticReport(
            regime="small_v_armchair",
            params={"window": [pred.r_minus, pred.r_plus], "comparison": "shifted-overlay set equality"},
            predicted=0.0,
            measured=float(dev),
            tolerance=set_tolerance,
        )
    )
    return out
