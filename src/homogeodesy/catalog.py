"""Constructions of the rank-one normal homogeneous catalog.

Each builder lists labelled generators of k, m0 and m1, the block-scaled
trace form, the isotropy-transitivity witnesses and the symmetric base of the
associated homogeneous fibration; `_space` assembles the ambient algebra and
derives the k / m0 / m1 index partition from the part lengths.  The s = 1
sphere metrics live on the bare group; for s < 1 an auxiliary U(1) or Sp(1)
block is appended and weighted by s/(1-s), which is exactly what makes the
listed basis orthonormal and the form bi-invariant.  `_squashed_fiber` states
the fiber directions this gives, for both families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .algebra import BasisMatrix, GramRule, assemble_algebra
from .closed_form import _periodic_times
from .homogeneous import ReductiveSpace
from .matrices import (
    a_matrix,
    b_matrix,
    block_embed,
    c_matrix,
    s_matrix,
)


class BadParams(ValueError):
    pass


# -- generic algebras used by the golden-table tests ------------------------


def su_algebra(n: int, coeff: float = 0.5) -> "StructuredAlgebra":
    """su(n) with the orthonormalized diagonal basis {S_j; B_jk; C_jk}."""
    basis = [BasisMatrix(f"S_{j}", s_matrix(n, j)) for j in range(1, n)]
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            basis.append(BasisMatrix(f"B_{{{j},{k}}}", b_matrix(n, j, k)))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            basis.append(BasisMatrix(f"C_{{{j},{k}}}", c_matrix(n, j, k)))
    return assemble_algebra(basis, GramRule(coeff=coeff), name=f"su({n})")


def _sp_matrices(m: int, blocks: tuple[int, ...] | None = None):
    """Labelled generators of sp(m+1) inside su(2(m+1)).

    Returns (x, y, z) lists of (label, matrix) with the X_p, the quaternionic
    Y_alpha / Y_{alpha p}, and the sp(m) part Z_*.  The matrices sit in block 0
    of `blocks` (default: su(2(m+1)) alone).
    """
    nn = 2 * (m + 1)
    emb = partial(block_embed, blocks or (nn,), 0)

    i1, i2 = 2 * m + 1, 2 * m + 2
    x = [
        ("X_1", emb(a_matrix(nn, i1, i2))),
        ("X_2", emb(b_matrix(nn, i1, i2))),
        ("X_3", emb(c_matrix(nn, i1, i2))),
    ]
    y = []
    for a in range(1, m + 1):
        y.append((f"Y_{a}", emb(b_matrix(nn, a, i1) + b_matrix(nn, m + a, i2))))
    for a in range(1, m + 1):
        y.append((f"Y_{{{a}1}}", emb(c_matrix(nn, a, i1) - c_matrix(nn, m + a, i2))))
        y.append((f"Y_{{{a}2}}", emb(b_matrix(nn, a, i2) - b_matrix(nn, m + a, i1))))
        y.append((f"Y_{{{a}3}}", emb(c_matrix(nn, a, i2) + c_matrix(nn, m + a, i1))))
    z = []
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            z.append((f"Z_{{{a},{b}}}", emb(b_matrix(nn, a, b) + b_matrix(nn, m + a, m + b))))
    for a in range(1, m + 1):
        z.append((f"Z_{{{a}1}}", emb(a_matrix(nn, a, m + a))))
        z.append((f"Z_{{{a}2}}", emb(b_matrix(nn, a, m + a))))
        z.append((f"Z_{{{a}3}}", emb(c_matrix(nn, a, m + a))))
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            z.append((f"Z_{{({a},{b})1}}", emb(c_matrix(nn, a, b) - c_matrix(nn, m + a, m + b))))
            z.append((f"Z_{{({a},{b})2}}", emb(b_matrix(nn, a, m + b) + b_matrix(nn, b, m + a))))
            z.append((f"Z_{{({a},{b})3}}", emb(c_matrix(nn, a, m + b) + c_matrix(nn, m + a, b))))
    return x, y, z


def sp_algebra(m: int) -> "StructuredAlgebra":
    """sp(m+1) in su(2(m+1)) with basis {X_p; Y_alpha, Y_{alpha p}; Z_*}, -1/4 trace."""
    x, y, z = _sp_matrices(m)
    return assemble_algebra(x + y + z, GramRule(coeff=0.25), name=f"sp({m + 1})")


# -- symmetric reference data ------------------------------------------------


@dataclass(frozen=True)
class SymmetricReference:
    """Closed-form conjugate times of the compact rank-one symmetric spaces."""

    kind: str  # "sphere" or "projective"
    kappa: float

    def __post_init__(self):
        if self.kind not in ("sphere", "projective"):
            raise BadParams(f"unknown symmetric reference kind {self.kind!r}")
        if self.kappa <= 0:
            raise BadParams("kappa must be positive")


def symmetric_conjugate_times(ref: SymmetricReference, t_max: float) -> list[float]:
    """p*pi/sqrt(kappa) (sphere) or p*pi/(2 sqrt(kappa)) (CP/HP/CaP), up to t_max."""
    if t_max <= 0:
        raise BadParams("t_max must be positive")
    base = math.pi / math.sqrt(ref.kappa)
    return _periodic_times(base / 2.0 if ref.kind == "projective" else base, t_max)


# -- space builders ----------------------------------------------------------


def _check(cond: bool, msg: str):
    if not cond:
        raise BadParams(msg)


def _space_name(params: dict) -> str:
    """family:key=value,... over the family's descriptor keys in table order, values as %g."""
    family = params["family"]
    args = ",".join(f"{key}={params[key]:g}" for key in _FAMILIES[family][1])
    return f"{family}:{args}" if args else family


def _space(rule, k, m0, m1, params, witnesses, base, alg_name=None) -> ReductiveSpace:
    """Assemble labelled (label, matrix) parts, in the order k, m0, m1, into a space.

    The index partition follows from the part lengths.  m1 is None for a space
    without the m0/m1 split (the round sphere), whose m is m0 alone.  The space
    is named from params; the algebra takes that name unless alg_name is given.
    """
    name = _space_name(params)
    alg = assemble_algebra(k + m0 + (m1 or []), rule, name=alg_name or name)
    nk, nm0 = len(k), len(k) + len(m0)
    split = m1 is not None
    return ReductiveSpace(
        algebra=alg,
        k_indices=tuple(range(nk)),
        m_indices=tuple(range(nk, alg.dim)),
        m0_indices=tuple(range(nk, nm0)) if split else None,
        m1_indices=tuple(range(nm0, alg.dim)) if split else None,
        name=name,
        params=params,
        witnesses=witnesses,
        base_reference=base,
    )


def _squashed_fiber(fiber, aux, s, c):
    """Directions (h in k, d in m0) of a sphere whose fiber is squashed by s in (0, 1].

    Each fiber generator z has |z|^2 = 1/c in the group's trace form.  For
    s < 1 it is paired with its copy a in an auxiliary U(1) or Sp(1) block
    weighted by s/(1-s), so |a|^2 = s/(c(1-s)), and

        h = sqrt(c(1-s)) (z + a)          in k,
        d = sqrt(c s) (z + ((s-1)/s) a)   in m0

    are orthonormal, while z projects to m0 with length sqrt(s/c): the fiber
    metric is scaled by s.  At s = 1 there is no auxiliary block, k gets
    nothing and d = sqrt(c) z.  Returns the lists (h, d).
    """
    if s == 1:
        return [], [math.sqrt(c) * z for z in fiber]
    h = [math.sqrt(c * (1 - s)) * (z + a) for z, a in zip(fiber, aux)]
    d = [math.sqrt(c * s) * (z + ((s - 1) / s) * a) for z, a in zip(fiber, aux)]
    return h, d


def build_round_sphere(n: int = 3, kappa: float = 1.0) -> ReductiveSpace:
    """Round S^n(kappa) as the symmetric pair SO(n+1)/SO(n)."""
    _check(isinstance(n, int) and n >= 2, "round sphere needs integer n >= 2")
    _check(kappa > 0, "kappa must be positive")
    nn = n + 1
    pairs = [(j, i) for j in range(1, n + 1) for i in range(j + 1, n + 1)]
    k = [(f"B_{{{j},{i}}}", b_matrix(nn, j, i)) for j, i in pairs]
    m = [(f"e_{j}", b_matrix(nn, j, nn)) for j in range(1, n + 1)]
    rule = GramRule(coeff=0.5, scale=1.0 / kappa)
    params = {"family": "round", "n": n, "kappa": kappa}
    return _space(rule, k, m, None, params, {"M": "e_1"}, None, alg_name=f"so({nn})")


def build_berger_sphere(m: int, s: float, kappa: float = 1.0) -> ReductiveSpace:
    """Berger sphere S^{2m+1} = SU(m+1)/SU(m) with the Hopf fiber scaled by s."""
    _check(isinstance(m, int) and m >= 1, "berger sphere needs integer m >= 1")
    _check(0 < s <= 1, "berger sphere needs 0 < s <= 1")
    _check(kappa > 0, "kappa must be positive")
    n = m + 1
    blocks = (n, 2) if s < 1 else (n,)
    su = partial(block_embed, blocks, 0)
    aux = [block_embed(blocks, 1, a_matrix(2, 1, 2))] if s < 1 else []
    h, d = _squashed_fiber([su(s_matrix(n, m))], aux, s, 1)
    k = [("h_s", mat) for mat in h] + [(f"S_{j}", su(s_matrix(n, j))) for j in range(1, m)]
    for r in range(1, m + 1):
        for j in range(r + 1, m + 1):
            k.append((f"B_{{{r},{j}}}", su(b_matrix(n, r, j))))
            k.append((f"C_{{{r},{j}}}", su(c_matrix(n, r, j))))
    m1 = [(f"e_{r}", su(b_matrix(n, r, n))) for r in range(1, m + 1)]
    m1 += [(f"f_{r}", su(c_matrix(n, r, n))) for r in range(1, m + 1)]
    scales = (1.0, s / (1 - s)) if s < 1 else (1.0,)
    rule = GramRule(coeff=0.5, blocks=blocks, block_scales=scales, scale=1.0 / kappa)
    tau = kappa * s * (m + 1) / (2 * m)
    params = {"family": "berger", "m": m, "s": s, "kappa": kappa, "tau": tau}
    witnesses = {"M0": "d_s", "M1": f"e_{m}", "M": f"e_{m}"}
    base = SymmetricReference("projective", kappa)
    return _space(rule, k, [("d_s", d[0])], m1, params, witnesses, base)


def build_sp_sphere(m: int, s: float, kappa: float = 1.0) -> ReductiveSpace:
    """S^{4m+3} = Sp(m+1)/Sp(m) with the Sp(1) fiber scaled by s."""
    _check(isinstance(m, int) and m >= 1, "sp sphere needs integer m >= 1")
    _check(0 < s <= 1, "sp sphere needs 0 < s <= 1")
    _check(kappa > 0, "kappa must be positive")
    blocks = (2 * (m + 1), 2) if s < 1 else (2 * (m + 1),)
    x, y, z = _sp_matrices(m, blocks)
    sp1 = (a_matrix, b_matrix, c_matrix)
    aux = [block_embed(blocks, 1, g(2, 1, 2)) for g in sp1] if s < 1 else []
    h, d = _squashed_fiber([mat for _, mat in x], aux, s, 2)
    k = z + [(f"h_{p}s", mat) for p, mat in enumerate(h, 1)]
    m0 = [(f"d_{p}s", mat) for p, mat in enumerate(d, 1)]
    fiber_rule = {"blocks": blocks, "block_scales": (1.0, s / (1 - s))} if s < 1 else {}
    rule = GramRule(coeff=0.25, scale=1.0 / kappa, **fiber_rule)
    params = {"family": "spsphere", "m": m, "s": s, "kappa": kappa, "tau": kappa * s / 2}
    witnesses = {"M0": "d_1s", "M1": "Y_1", "M": "Y_1"}
    base = SymmetricReference("projective", kappa)
    return _space(rule, k, m0, y, params, witnesses, base)


def build_cp_odd(m: int, kappa: float = 1.0) -> ReductiveSpace:
    """CP^{2m+1} = Sp(m+1)/(Sp(m) x U(1)) with the -1/4 trace metric."""
    _check(isinstance(m, int) and m >= 1, "cp odd needs integer m >= 1")
    _check(kappa > 0, "kappa must be positive")
    x, y, z = _sp_matrices(m)
    rule = GramRule(coeff=0.25, scale=1.0 / kappa)
    params = {"family": "cpodd", "m": m, "kappa": kappa, "tau": kappa / 2}
    witnesses = {"M0": "X_2", "M1": "Y_1", "M": "Y_1"}
    base = SymmetricReference("projective", kappa)
    return _space(rule, z + x[:1], x[1:], y, params, witnesses, base)


def build_b13() -> ReductiveSpace:
    """The Berger space B^13 = SU(5)/H with the -1/4 trace metric."""
    n = 5
    A, B, C = (partial(g, n) for g in (a_matrix, b_matrix, c_matrix))
    h = [
        ("H_1", A(1, 2) + 2 * A(2, 3) + A(3, 4)),
        ("H_2", B(1, 3) + B(2, 4)),
        ("H_3", C(1, 3) + C(2, 4)),
        ("H_4", A(1, 2) - A(3, 4)),
        ("H_5", B(1, 3) - B(2, 4)),
        ("H_6", C(1, 3) - C(2, 4)),
        ("H_7", C(1, 2) - C(3, 4)),
        ("H_8", B(1, 4) + B(2, 3)),
        ("H_9", C(1, 4) + C(2, 3)),
        ("H_10", B(1, 2) + B(3, 4)),
        ("H_11", math.sqrt(2) * s_matrix(n, 4)),
    ]
    m0 = [
        ("u_0", A(1, 2) + A(3, 4)),
        ("u_1", B(1, 2) - B(3, 4)),
        ("u_2", B(1, 4) - B(2, 3)),
        ("v_1", C(1, 2) + C(3, 4)),
        ("v_2", C(1, 4) - C(2, 3)),
    ]
    m1 = [(f"e_{r}", math.sqrt(2) * B(r, 5)) for r in range(1, 5)]
    m1 += [(f"f_{r}", math.sqrt(2) * C(r, 5)) for r in range(1, 5)]
    params = {"family": "b13", "kappa": 1.0}
    witnesses = {"M0": "u_0", "M1": "e_1", "M": "e_1"}
    base = SymmetricReference("projective", 2.0)
    return _space(GramRule(coeff=0.25), h, m0, m1, params, witnesses, base)


def build_w7(s: float) -> ReductiveSpace:
    """Wilking's W^7 = (SO(3) x SU(3))/U*(2) with the metric s<.,.> + <.,.>."""
    _check(s > 0, "w7 needs s > 0")
    blocks = (2, 3)
    so3, su3 = partial(block_embed, blocks, 0), partial(block_embed, blocks, 1)
    a12, b12, c12 = a_matrix(2, 1, 2), b_matrix(2, 1, 2), c_matrix(2, 1, 2)
    a34, b34, c34 = a_matrix(3, 1, 2), b_matrix(3, 1, 2), c_matrix(3, 1, 2)
    a45 = a_matrix(3, 2, 3)
    r1 = 1.0 / math.sqrt(1 + s)
    r0 = 1.0 / math.sqrt(s * (1 + s))
    k = [
        ("K_1", r1 * (so3(a12) + su3(a34))),
        ("K_2", r1 * (so3(b12) + su3(b34))),
        ("K_3", r1 * (so3(c12) + su3(c34))),
        ("K_4", (1.0 / math.sqrt(3)) * su3(a34 + 2 * a45)),
    ]
    m0 = [
        ("u_0s", r0 * (so3(a12) - s * su3(a34))),
        ("u_1s", r0 * (so3(b12) - s * su3(b34))),
        ("v_1s", r0 * (so3(c12) - s * su3(c34))),
    ]
    m1 = [
        ("e_1", su3(b_matrix(3, 1, 3))),
        ("e_2", su3(b_matrix(3, 2, 3))),
        ("f_1", su3(c_matrix(3, 1, 3))),
        ("f_2", su3(c_matrix(3, 2, 3))),
    ]
    rule = GramRule(coeff=0.5, blocks=blocks, block_scales=(s, 1.0))
    params = {"family": "w7", "s": s, "kappa": 1.0}
    witnesses = {"M0": "u_0s", "M1": "e_1", "M": "e_1"}
    base = SymmetricReference("projective", 1.0)
    return _space(rule, k, m0, m1, params, witnesses, base)


# -- descriptor grammar ------------------------------------------------------


@dataclass(frozen=True)
class SpaceDescriptor:
    """A family and its parameters; build_space checks each one it is given."""

    family: str
    params: tuple[tuple[str, float], ...]

    @property
    def name(self) -> str:
        """The name of the space that build_space makes of this descriptor."""
        return _space_name({"family": self.family, **dict(self.params)})


# family -> builder and its parameters: name -> (type, default, largest), the builder's
# keywords.  The budget: every command that takes a descriptor (verify, brackets,
# conjugate, closedform, pinching, at their defaults) runs in one process, start-up
# included, within 4 s and 256 MB peak RSS (one BLAS thread, 2-CPU x86-64 machine).
# The largest integer was the last that kept it when set; the next one keeps it now too,
# and the bounds stand.  verify is the slowest command (its Jacobi residual is dim^5).
_FAMILIES = {
    # so(n+1): 78 elements at n = 12, verify 0.8-1.2 s, 93 MB; n = 13 (91) 1.6 s, 128 MB
    "round": (build_round_sphere, {"n": (int, 3, 12), "kappa": (float, 1.0, None)}),
    # su(m+1) + u(1): 81 elements at m = 8, verify 0.9-1.1 s, 84 MB; m = 9 (100) 2.2-2.9 s, 125 MB
    "berger": (
        build_berger_sphere,
        {"m": (int, 1, 8), "s": (float, 1.0, None), "kappa": (float, 1.0, None)},
    ),
    # sp(m+1) + sp(1): 81 elements at m = 5, verify 1.0-1.4 s, 107 MB; m = 6 (108) 2.8-3.2 s, 211 MB
    "spsphere": (
        build_sp_sphere,
        {"m": (int, 1, 5), "s": (float, 1.0, None), "kappa": (float, 1.0, None)},
    ),
    # sp(m+1): 78 elements at m = 5, verify 0.8-1.0 s, 86 MB; m = 6 (105) 2.5-2.6 s, 171 MB
    "cpodd": (build_cp_odd, {"m": (int, 1, 5), "kappa": (float, 1.0, None)}),
    "b13": (build_b13, {}),
    "w7": (build_w7, {"s": (float, 1.0, None)}),
}


def _parse_number(text: str) -> float:
    text = text.strip()
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"cannot parse number {text!r}") from exc


def _checked(family: str, params) -> SpaceDescriptor:
    """The descriptor of family with params, defaults filled in, once they pass every check."""
    if family not in _FAMILIES:
        raise BadParams(f"unknown family {family!r}")
    spec = _FAMILIES[family][1]
    kw = dict(params)
    _check(set(kw) <= set(spec), f"bad parameters {sorted(set(kw) - set(spec))} for {family!r}")
    values = {}
    for key, (typ, default, largest) in spec.items():
        value = kw.get(key, default)
        _check(math.isfinite(value), f"{key} = {value} is not finite")
        if typ is int:
            if abs(value - round(value)) > 1e-9:
                raise BadParams(f"{family} needs an integer {key}, got {value!r}")
            value = int(round(value))
            if value > largest:
                raise BadParams(f"{key} = {value} exceeds {largest}, the largest for {family!r}")
        values[key] = value
    return SpaceDescriptor(family, tuple(sorted(values.items())))


def parse_descriptor(text: str) -> SpaceDescriptor:
    """Parse descriptors like "berger:m=2,s=0.5,kappa=1", "b13", "w7:s=0.5"."""
    family, _, argstr = text.strip().partition(":")
    family, params = family.lower(), {}
    for item in filter(str.strip, argstr.split(",")):
        key, eq, val = item.partition("=")
        _check(eq == "=", f"bad parameter {item!r} for family {family!r}")
        key = key.strip().lower()
        _check(key not in params, f"parameter {key!r} given more than once for family {family!r}")
        params[key] = _parse_number(val)
    return _checked(family, params)


@lru_cache(maxsize=None)
def _build_cached(descriptor: SpaceDescriptor) -> ReductiveSpace:
    return _FAMILIES[descriptor.family][0](**dict(descriptor.params))


def build_space(descriptor) -> ReductiveSpace:
    """Build (with caching) from a SpaceDescriptor or a descriptor string."""
    if isinstance(descriptor, str):
        return _build_cached(parse_descriptor(descriptor))
    return _build_cached(_checked(descriptor.family, descriptor.params))


def known_families() -> dict:
    return {
        fam: {k: ("int" if t is int else "float", d) for k, (t, d, _) in spec.items()}
        for fam, (_, spec) in _FAMILIES.items()
    }
