"""Named mode families: J3-helicity eigenstates, spin-coherent wave packets
concentrated about a direction, and paraxial vector Laguerre-Gauss modes.

All builders sample closed-form amplitudes on a WaveVectorGrid and return
normalized states; nothing here differentiates or iterates.  A state's
rows (c_+, c_-, c_0) are in the grid's local frame (eps_+, eps_-, khat),
and every builder hands over those rows as the factor pairs it
evaluates (`WaveFunction.factors`, see below): no Cartesian sample is
formed or converted, each state is normalized from its factors, and no
row of the full grid is written until something reads `WaveFunction.c`.

J3-W eigenstates:   v(k) = a(k, theta) e^{i (m - w) phi} eps^(w)(khat)
with a = radial Gaussian times a theta profile, that is the one row
c_w = a e^{i (m - w) phi}.  Exact J3 and W eigenstates for any profile;
their S3 dispersion is controlled by the distribution p(x) of
x = cos(theta) and never vanishes.

Spin wave packets: a surface delta concentrated at khat = w s is replaced
by the von Mises-Fisher kernel exp(kappa khat . (w s)).  The carrier
polarization is eps^(+)(s); by default it is projected onto the local
helicity-w line at each node (the packet is then an exact helicity
eigenstate and <S> -> s with error O(1/kappa)); `carrier="projected"`
keeps the literal transverse projection of eps^(+)(s) instead, which mixes
a O(1/kappa^2) opposite-helicity tail into W.  The carrier's rows are its
components conj(eps_+/-) . eps^(+)(s), so the projection is the pair of
rows c_+/- with c_0 = 0.

Vector LG modes: the paraxial spinors

    w = +1:  (1,  i, -theta e^{+i phi}) / sqrt(2) * phi_{m-1, p}
    w = -1:  (i,  1, -i theta e^{-i phi}) / sqrt(2) * phi_{m+1, p}

times a narrow radial carrier at k_fixed, restricted to the forward
hemisphere theta <= pi/2 (the scalar profile depends on k only through
rho = k sin(theta), so without the cutoff an equally weighted backward
image with reversed helicity would appear; at w0 k_fixed >= 20 the profile
at the equator is below e^{-100} and the restriction changes nothing
numerically).  Exact J3 eigenstates with eigenvalue m; W and transversality
residuals vanish quadratically in 1/(w0 k_fixed).  With
a = phi_{m-w, p} times the carrier and the forward cut, over sqrt 2, the
spinors' frame rows are

    c_w    = a (1 + cos theta + theta sin theta) / sqrt 2
    c_{-w} = -i w e^{2 i w phi} a (cos theta - 1 + theta sin theta) / sqrt 2
    c_0    = i^{(1 - w)/2} e^{i w phi} a (sin theta - theta cos theta)

and the builder writes these rows, each as a factor on the (k, theta)
nodes times the phase of its azimuthal order: m - w on c_w, m + w on
c_{-w} and m on c_0.

Every frame row a builder writes is a product of two factors on disjoint
axes.  In both closed-form families it is a (k, theta) profile times
e^{i n phi}: each factor is evaluated once per node of its own axes, on
grid.k_nodes, grid.theta_nodes and grid.phi_nodes shaped (n_k, 1, 1),
(1, n_theta, 1) and (1, 1, n_phi), so the scalar LG closed form, for
one, runs on n_k * n_theta nodes, not on n_k * n_theta * n_phi.  In a
spin wave packet it is the radial Gaussian on grid.k_nodes times the
kernel and the carrier, which depend on the direction only and are
evaluated once per angular node (the carrier in the grid's frame,
`grid.frame`).

The quadrature weights factor by axis as well (radial times polar times
2 pi / n_phi), so ||v||^2 is a sum over rows of products of two factor
sums, on n_k * n_theta and n_phi nodes or on n_k and n_theta * n_phi
(`_helicity_state`, through `wavefunction._totals`).  1/||v|| is folded
into the smaller factor, and the state keeps the pairs; its rows, when
read, are one broadcast product per row.  They differ from the
node-by-node product normalized by the full-grid sum by a few ulp (at
most 4 in the tests), and the norm of a built state reads 1 to within
1e-15.

Each builder carries a finite set of azimuthal orders and refuses a grid
whose n_phi cannot resolve them, since an FFT over n_phi nodes would fold
them onto other orders.  The operators take that FFT of the frame rows
c_+, c_- and c_0: a J3 eigenstate of order m has c_h on the order m - h
and c_0 on m.  The orders checked cover those bins and the Cartesian
ones (m - 1, m, m + 1 for the J3-W family; m - w on x, y and m on z for
vector LG, whose small opposite-helicity row c_{-w} sits on m + w), so
every bin that J3, the report and `vsh.analyze` read is resolved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import Profile, Spec, Vec3, coerce_fields, string
from .grid import WaveVectorGrid
from .polarization import eps_plus
from .wavefunction import WaveFunction, _power, _totals

__all__ = [
    "EmptyProfileError",
    "ModeSpec",
    "ThetaDistribution",
    "build_mode",
    "build_j3_w_eigenstate",
    "build_sam_wavepacket",
    "build_vector_lg",
    "scalar_lg",
    "theta_distribution",
]

# The fields each mode kind reads: None for a plain field, and for a profile
# the keys read from it (for the theta profile, per its own kind).
# ModeSpec.from_dict rejects every other field and profile key.
_THETA_KEYS = {
    "gaussian_in_theta": ("kind", "theta0", "sigma_theta"),
    "uniform_band": ("kind", "x_lo", "x_hi"),
}
_KIND_KEYS = {
    "j3_w_eigenstate": {
        "m": None, "w": None,
        "radial_profile": ("k0", "sigma_k"), "theta_profile": _THETA_KEYS,
    },
    "sam_wavepacket": {
        "w": None, "s_direction": None, "kappa": None, "carrier": None,
        "radial_profile": ("k0", "sigma_k"),
    },
    "vector_lg": {
        "m": None, "w": None, "p": None, "w0": None, "k_fixed": None,
        "radial_profile": ("sigma_k",),
    },
}


def _profile_keys(kind: str, profile: str, value: dict):
    """Keys mode `kind` reads from one profile dict; None for an unknown
    theta profile kind, which the ModeSpec constructor rejects."""
    read = _KIND_KEYS[kind][profile]
    if isinstance(read, dict):
        sub = value.get("kind")
        return read.get(sub) if isinstance(sub, str) else None
    return read


_POSITIVE = ("sigma_k", "sigma_theta")
_SIGMA_K = 0.1  # the default radial_profile's width, and vector_lg's when omitted
PARAXIAL_WARN_THRESHOLD = 20.0


@dataclass
class ModeSpec(Spec):
    """Declarative mode description; every free function is pinned down.

    Each field coerces itself by its type (`config.coerce_fields`): m, w
    and p are integers, kappa, w0 and k_fixed finite numbers, s_direction
    three finite numbers, and each profile an object whose entries other
    than "kind" are finite numbers.  Fields are interpreted per kind:

    j3_w_eigenstate: m, w, radial_profile {k0, sigma_k},
        theta_profile {kind: gaussian_in_theta, theta0, sigma_theta}
        or {kind: uniform_band, x_lo, x_hi} with -1 <= x_lo < x_hi <= 1.
    sam_wavepacket: w, s_direction (nonzero and off -z, where the
        carrier eps^(+)(s) is singular), kappa, radial_profile,
        carrier in {helicity, projected}.
    vector_lg: m, w, p, w0, k_fixed, radial_profile.sigma_k
        (0.1 when the radial_profile gives none, as the default one).

    `from_dict` (the config path) rejects any field or profile key the
    kind does not read; `to_dict` writes exactly the fields it reads.
    """

    kind: str
    m: int = 0
    w: int = 1
    p: int = 0
    s_direction: Vec3 = (0.0, 0.0, 1.0)
    kappa: float = 100.0
    radial_profile: Profile = field(default_factory=lambda: {"k0": 1.0, "sigma_k": _SIGMA_K})
    theta_profile: Profile = field(default_factory=lambda: {"kind": "uniform_band"})
    w0: float = 25.0
    k_fixed: float = 1.0
    carrier: str = "helicity"

    def __post_init__(self):
        coerce_fields(self)
        for profile in ("radial_profile", "theta_profile"):
            for key, value in getattr(self, profile).items():
                if key in _POSITIVE and value <= 0.0:
                    raise ValueError(
                        f"{key!r} in {profile} must be positive, got {value!r}"
                    )
        if self.kind not in _KIND_KEYS:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.w not in (1, -1):
            raise ValueError("helicity 'w' must be +1 or -1")
        if self.p < 0:
            raise ValueError("radial index 'p' must be >= 0")
        if self.kind == "sam_wavepacket":
            if self.kappa <= 0.0:
                raise ValueError("'kappa' must be positive")
            try:  # the carrier eps^(+)(s) needs s nonzero and off -z
                eps_plus(self.s_direction)
            except ValueError as err:
                raise ValueError(f"'s_direction' {list(self.s_direction)}: {err}") from None
            if self.carrier not in ("helicity", "projected"):
                raise ValueError("'carrier' must be 'helicity' or 'projected'")
        if self.kind in ("j3_w_eigenstate", "sam_wavepacket"):
            k0 = self.radial_profile.get("k0", 0.0)
            sk = self.radial_profile.get("sigma_k", 0.0)
            if not (0.0 < sk < k0):
                raise ValueError("radial profile requires 0 < sigma_k < k0")
        if self.kind == "j3_w_eigenstate":
            kind = self.theta_profile.get("kind")
            if kind not in ("gaussian_in_theta", "uniform_band"):
                raise ValueError(f"unknown theta profile kind {kind!r}")
            if kind == "uniform_band":
                x_lo = self.theta_profile.get("x_lo", -1.0)
                x_hi = self.theta_profile.get("x_hi", 1.0)
                if not (-1.0 <= x_lo < x_hi <= 1.0):
                    raise ValueError(
                        "'theta_profile' uniform band requires -1 <= x_lo < x_hi <= 1, "
                        f"got x_lo = {x_lo!r}, x_hi = {x_hi!r}"
                    )
        if self.kind == "vector_lg":
            if self.w0 <= 0.0 or self.k_fixed <= 0.0:
                raise ValueError("vector_lg requires positive 'w0' and 'k_fixed'")
            if self.w0 * self.k_fixed <= 2.0 * np.pi:
                raise ValueError(
                    "vector_lg is only meaningful for w0 * k_fixed well above 2 pi"
                )

    def to_dict(self):
        full = super().to_dict()
        d = {"kind": self.kind}
        for key, read in _KIND_KEYS[self.kind].items():
            value = full[key]
            if read is not None:
                keep = _profile_keys(self.kind, key, value)
                value = {k: v for k, v in value.items() if k in keep}
            d[key] = value
        return d

    @classmethod
    def from_dict(cls, d):
        if "kind" not in d:
            raise KeyError("missing key 'kind'")
        kind = string(d["kind"], "kind")
        if kind not in _KIND_KEYS:
            raise ValueError(f"unknown mode kind {kind!r}")
        table = _KIND_KEYS[kind]
        for key in d:
            if key == "kind":
                continue
            if key not in table:
                if any(key in fields for fields in _KIND_KEYS.values()):
                    raise KeyError(f"mode key {key!r} is not read by kind {kind!r}")
                raise KeyError(f"unknown mode key {key!r}")
            if table[key] is None or not isinstance(d[key], dict):
                continue  # the constructor rejects a profile that is no object
            read = _profile_keys(kind, key, d[key])
            unread = [sub for sub in d[key] if read is not None and sub not in read]
            if unread:
                raise KeyError(
                    f"{key} key {unread[0]!r} is not read by kind {kind!r}"
                    + (f" with a {d[key]['kind']!r} profile"
                       if isinstance(table[key], dict) else "")
                )
        return super().from_dict(d)


class EmptyProfileError(ValueError):
    """A mode profile that holds no node of the grid it is built on: the
    mode and grid configuration do not fit together."""


def _radial_gaussian(k, k0, sigma_k):
    # amplitude profile; |g|^2 is a Gaussian density of std sigma_k
    return np.exp(-((k - k0) ** 2) / (4.0 * sigma_k**2))


def _theta_amplitude(spec: ModeSpec, theta):
    """The polar profile of a j3_w_eigenstate; its ModeSpec checked the
    profile kind and the band."""
    prof = spec.theta_profile
    if prof["kind"] == "gaussian_in_theta":
        theta0 = prof.get("theta0", 0.0)
        sigma = prof.get("sigma_theta", 0.3)
        return np.exp(-((theta - theta0) ** 2) / (4.0 * sigma**2))
    x = np.cos(theta)
    return ((x >= prof.get("x_lo", -1.0)) & (x <= prof.get("x_hi", 1.0))).astype(float)


def _factor_axes(grid: WaveVectorGrid):
    """k, theta and phi nodes shaped (n_k, 1, 1), (1, n_theta, 1), (1, 1, n_phi)."""
    return (
        grid.k_nodes[:, None, None],
        grid.theta_nodes[None, :, None],
        grid.phi_nodes[None, None, :],
    )


def _check_azimuthal_orders(grid: WaveVectorGrid, *orders: int) -> None:
    """Reject a grid whose n_phi cannot resolve every given azimuthal order.

    An FFT over n_phi uniform nodes resolves the orders o with
    2 |o| < n_phi; a larger order aliases onto another one (on an even
    n_phi, |o| = n_phi / 2 is the Nyquist bin, where +o and -o meet).
    """
    n_phi = grid.spec.n_phi
    top = max(abs(o) for o in orders)
    if 2 * top >= n_phi:
        raise ValueError(
            f"n_phi = {n_phi} cannot carry azimuthal order {top}; "
            f"it needs n_phi >= {2 * top + 1}"
        )


def _helicity_state(grid: WaveVectorGrid, w: int, split: int, *rows) -> WaveFunction:
    """The normalized state with frame rows (c_w, c_{-w}, c_0) = rows; the
    rows not given are zero.

    Each row is a factor pair (a, b): a on the first `split` of the axes
    (k, theta, phi), b on the rest, both broadcasting to grid.shape.  The
    weights factor by axis too, so ||v||^2 is the sum over rows of
    (sum w_a |a|^2)(sum w_b |b|^2), each on the nodes of its factor's own
    axes; 1/||v|| is folded into the smaller factor, and the state holds
    the pairs stacked by row (`WaveFunction.factors`).
    """
    # the factors on their own axes, stacked by row; a row not given is 0 0
    F = np.zeros((3,) + grid.shape[:split] + (1,) * (3 - split), dtype=complex)
    G = np.zeros((3,) + (1,) * split + grid.shape[split:], dtype=complex)
    for a, (f, g) in zip((0, 1, 2) if w == 1 else (1, 0, 2), rows):
        F[a], G[a] = f, g
    n = float(np.sqrt(_totals(grid, split, (_power(F), _power(G))).sum()))
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    if F[0].size > G[0].size:
        G *= 1.0 / n
    else:
        F *= 1.0 / n
    return WaveFunction._from_factors(grid, split, F, G)


def build_j3_w_eigenstate(spec: ModeSpec, grid: WaveVectorGrid) -> WaveFunction:
    """Exact simultaneous J3 (eigenvalue m) and W (eigenvalue w) eigenstate."""
    if spec.kind != "j3_w_eigenstate":
        raise ValueError("spec.kind must be 'j3_w_eigenstate'")
    m, w = spec.m, spec.w
    # e^{i (m - w) phi} eps^(w) carries the Cartesian orders m - 1, m, m + 1
    _check_azimuthal_orders(grid, m - w, m + w)
    k, theta, phi = _factor_axes(grid)
    h = _theta_amplitude(spec, theta)
    if not h.any():
        raise EmptyProfileError(
            f"'theta_profile' {spec.theta_profile} vanishes on every polar node "
            f"of the grid (n_theta = {grid.spec.n_theta}); widen it or raise 'n_theta'"
        )
    profile = _radial_gaussian(k, spec.radial_profile["k0"], spec.radial_profile["sigma_k"]) * h
    return _helicity_state(grid, w, 2, (profile, np.exp(1j * (m - w) * phi)))


@dataclass
class ThetaDistribution:
    """Probability density of x = cos(theta) carried by a J3-W eigenstate.

    Sampled on the grid's polar nodes; moments use the matching
    Gauss-Legendre weights.  The helicity label w enters only the first
    moment: S_l = khat_l W gives <S> = w <x> zhat, while the second
    moments carry w^2 = 1.
    """

    x: np.ndarray
    weights: np.ndarray
    p: np.ndarray
    w: int = 1

    def moment(self, f) -> float:
        return float(np.sum(self.weights * self.p * f(self.x)))

    @property
    def mean_x(self) -> float:
        return self.moment(lambda x: x)

    @property
    def mean_x2(self) -> float:
        return self.moment(lambda x: x * x)

    def sam_expectation(self):
        """Predicted <S> = w <x> zhat (hbar units)."""
        return np.array([0.0, 0.0, self.w * self.mean_x])

    def sam_second_moments(self):
        """Predicted diag(<1-x^2>/2, <1-x^2>/2, <x^2>) (hbar^2 units)."""
        x2 = self.mean_x2
        t = 0.5 * (1.0 - x2)
        return np.diag([t, t, x2])

    def sam_variance(self):
        mat = self.sam_second_moments()
        s = self.sam_expectation()
        return mat - np.outer(s, s)


def theta_distribution(spec: ModeSpec, grid: WaveVectorGrid) -> ThetaDistribution:
    """Collapse |a(k, theta)|^2 over the radial direction onto p(x)."""
    if spec.kind != "j3_w_eigenstate":
        raise ValueError("theta_distribution applies to j3_w_eigenstate specs")
    g2 = _radial_gaussian(
        grid.k_nodes, spec.radial_profile["k0"], spec.radial_profile["sigma_k"]
    ) ** 2
    h2 = np.abs(_theta_amplitude(spec, grid.theta_nodes)) ** 2
    radial = float(np.sum(grid.radial_weights * g2))
    p = radial * h2
    total = float(np.sum(grid.x_weights * p))
    if total <= 0.0:
        raise ValueError("theta profile vanishes on the grid")
    p /= total
    dist = ThetaDistribution(
        x=grid.x_nodes.copy(), weights=grid.x_weights.copy(), p=p, w=spec.w
    )
    if abs(np.sum(dist.weights * dist.p) - 1.0) > 1e-10:
        raise AssertionError("p(x) failed to normalize")
    return dist


def build_sam_wavepacket(spec: ModeSpec, grid: WaveVectorGrid) -> WaveFunction:
    """Normalizable packet concentrated at khat = w s, carrier eps^(+)(s)."""
    if spec.kind != "sam_wavepacket":
        raise ValueError("spec.kind must be 'sam_wavepacket'")
    s = np.asarray(spec.s_direction, dtype=float)
    s = s / np.linalg.norm(s)
    # the kernel on the angular nodes (the first shell), the Gaussian on
    # the radial ones
    khat = grid._shell_khat
    kernel = np.exp(spec.kappa * (khat @ (spec.w * s) - 1.0)).reshape(grid.shape[1:])
    k, _, _ = _factor_axes(grid)
    g = _radial_gaussian(k, spec.radial_profile["k0"], spec.radial_profile["sigma_k"])
    # the carrier's components conj(eps_h) . eps^(+)(s) along eps_+ and eps_-
    amp = np.einsum("htpc,c->htp", np.conj(grid.frame[:2]), eps_plus(s))
    same, opposite = amp if spec.w == 1 else amp[::-1]
    if spec.carrier == "helicity":
        return _helicity_state(grid, spec.w, 1, (g, kernel * same))
    return _helicity_state(grid, spec.w, 1, (g, kernel * same), (g, kernel * opposite))


def scalar_lg(m: int, p: int, w0: float, rho, phi):
    """Transverse-plane Laguerre-Gauss mode phi_{m,p}(rho, phi), unit L2 norm.

    Includes the (i w0 rho / sqrt 2)^{|m|} phase convention; the radial
    argument of the generalized Laguerre polynomial is u = w0^2 rho^2 / 2.
    """
    if p < 0:
        raise ValueError("radial index p must be >= 0")
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    am = abs(m)
    u = 0.5 * w0 * w0 * rho * rho
    # log p! - log (p + |m|)! from exact factorials equals the log-gamma
    # difference bit for bit up to p + |m| = 12; np.exp, not math.exp,
    # then keeps the factor's last bit there as well
    norm_factor = (w0 / np.sqrt(2.0 * np.pi)) * np.exp(
        0.5 * (math.log(math.factorial(p)) - math.log(math.factorial(p + am)))
    )
    radial = (w0 * rho / np.sqrt(2.0)) ** am * _laguerre(p, am, u) * np.exp(-0.5 * u)
    return norm_factor * (1j**am) * radial * np.exp(1j * m * phi)


def _laguerre(p: int, alpha: int, u):
    """Generalized Laguerre polynomial L_p^alpha(u) for integers p, alpha >= 0.

    Runs the recurrence on s_k = L_k^alpha / binom(k + alpha, k) and its
    steps d_k = s_k - s_{k-1} in the order of operations of scipy's
    `eval_genlaguerre` for integer p, so the values agree bit for bit.
    """
    if p == 0:
        return np.ones_like(u)
    if p == 1:
        return -u + alpha + 1.0
    d = -u / (alpha + 1.0)
    s = d + 1.0
    for k in range(1, p):
        d = -u / (k + alpha + 1.0) * s + (k / (k + alpha + 1.0)) * d
        s = d + s
    return math.comb(p + alpha, p) * s


def build_vector_lg(spec: ModeSpec, grid: WaveVectorGrid) -> WaveFunction:
    """Paraxial vector LG mode; exact J3 eigenvalue m, approximate helicity w."""
    if spec.kind != "vector_lg":
        raise ValueError("spec.kind must be 'vector_lg'")
    wk = spec.w0 * spec.k_fixed
    if wk < PARAXIAL_WARN_THRESHOLD:
        warnings.warn(
            f"w0 * k_fixed = {wk:.3g} is below {PARAXIAL_WARN_THRESHOLD}; "
            "paraxial error terms are not small",
            stacklevel=2,
        )
    m, w = spec.m, spec.w
    _check_azimuthal_orders(grid, m - w, m, m + w)
    k, theta, phi = _factor_axes(grid)
    cos, sin = np.cos(theta), np.sin(theta)
    sigma_k = spec.radial_profile.get("sigma_k", _SIGMA_K)
    # a without its phase e^{i (m - w) phi}, on the (k, theta) nodes
    a = (scalar_lg(m - w, spec.p, spec.w0, k * sin, 0.0)
         * _radial_gaussian(k, spec.k_fixed, sigma_k)
         * (theta <= 0.5 * np.pi) / np.sqrt(2.0))
    return _helicity_state(
        grid, w, 2,
        (a * ((1.0 + cos + theta * sin) / np.sqrt(2.0)), np.exp(1j * (m - w) * phi)),
        (a * (-1j * w * (cos - 1.0 + theta * sin) / np.sqrt(2.0)), np.exp(1j * (m + w) * phi)),
        (a * (1j ** ((1 - w) // 2) * (sin - theta * cos)), np.exp(1j * m * phi)),
    )


def build_mode(spec: ModeSpec, grid: WaveVectorGrid) -> WaveFunction:
    """Dispatch on spec.kind."""
    builder = {
        "j3_w_eigenstate": build_j3_w_eigenstate,
        "sam_wavepacket": build_sam_wavepacket,
        "vector_lg": build_vector_lg,
    }[spec.kind]
    return builder(spec, grid)
