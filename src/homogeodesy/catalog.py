"""Constructions of the rank-one normal homogeneous catalog.

Each builder assembles the ambient algebra from explicit matrices, declares
the k / m0 / m1 index partition and the block-scaled trace form, and registers
the isotropy-transitivity witnesses and the symmetric base of the associated
homogeneous fibration.  The s = 1 sphere metrics live on the bare group; for
s < 1 an auxiliary U(1) or Sp(1) block is appended and weighted by s/(1-s),
which is exactly what makes the listed basis orthonormal and the form
bi-invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


from .algebra import BasisMatrix, GramRule, assemble_algebra
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


def _sp_matrices(m: int, n: int | None = None, blocks: tuple[int, ...] | None = None):
    """Labelled generators of sp(m+1) inside su(2(m+1)).

    Returns (x, y, z) lists of (label, matrix) with the X_p, the quaternionic
    Y_alpha / Y_{alpha p}, and the sp(m) part Z_*.
    """
    nn = 2 * (m + 1)

    def emb(mat):
        if blocks is None:
            return mat
        return block_embed(blocks, 0, mat)

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
    basis = [BasisMatrix(lbl, mat) for lbl, mat in x + y + z]
    return assemble_algebra(basis, GramRule(coeff=0.25), name=f"sp({m + 1})")


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
    if ref.kind == "projective":
        base /= 2.0
    out = []
    p = 1
    while p * base <= t_max + 1e-15:
        out.append(p * base)
        p += 1
    return out


# -- space builders ----------------------------------------------------------


def _check(cond: bool, msg: str):
    if not cond:
        raise BadParams(msg)


def build_round_sphere(n: int = 3, kappa: float = 1.0) -> ReductiveSpace:
    """Round S^n(kappa) as the symmetric pair SO(n+1)/SO(n)."""
    _check(isinstance(n, int) and n >= 2, "round sphere needs integer n >= 2")
    _check(kappa > 0, "kappa must be positive")
    nn = n + 1
    basis = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            basis.append(BasisMatrix(f"B_{{{j},{k}}}", b_matrix(nn, j, k)))
    dim_k = len(basis)
    for j in range(1, n + 1):
        basis.append(BasisMatrix(f"e_{j}", b_matrix(nn, j, nn)))
    alg = assemble_algebra(
        basis, GramRule(coeff=0.5, scale=1.0 / kappa), name=f"so({nn})"
    )
    return ReductiveSpace(
        algebra=alg,
        k_indices=tuple(range(dim_k)),
        m_indices=tuple(range(dim_k, alg.dim)),
        name=f"round:n={n},kappa={kappa:g}",
        params={"family": "round", "n": n, "kappa": kappa},
        witnesses={"M": "e_1"},
        base_reference=None,
    )


def build_berger_sphere(m: int, s: float, kappa: float = 1.0) -> ReductiveSpace:
    """Berger sphere S^{2m+1} = SU(m+1)/SU(m) with the Hopf fiber scaled by s."""
    _check(isinstance(m, int) and m >= 1, "berger sphere needs integer m >= 1")
    _check(0 < s <= 1, "berger sphere needs 0 < s <= 1")
    _check(kappa > 0, "kappa must be positive")
    n = m + 1
    aux = s < 1
    blocks = (n, 2) if aux else (n,)

    def su(mat):
        return block_embed(blocks, 0, mat) if aux else mat

    z0 = su(s_matrix(n, m))
    k_basis = []
    if aux:
        d_aux = block_embed(blocks, 1, a_matrix(2, 1, 2))
        k_basis.append(("h_s", math.sqrt(1 - s) * (z0 + d_aux)))
    for j in range(1, m):
        k_basis.append((f"S_{j}", su(s_matrix(n, j))))
    for r in range(1, m + 1):
        for j in range(r + 1, m + 1):
            k_basis.append((f"B_{{{r},{j}}}", su(b_matrix(n, r, j))))
            k_basis.append((f"C_{{{r},{j}}}", su(c_matrix(n, r, j))))

    if aux:
        d_s = math.sqrt(s) * (z0 + ((s - 1) / s) * d_aux)
    else:
        d_s = z0
    m_basis = [("d_s", d_s)]
    for r in range(1, m + 1):
        m_basis.append((f"e_{r}", su(b_matrix(n, r, n))))
    for r in range(1, m + 1):
        m_basis.append((f"f_{r}", su(c_matrix(n, r, n))))

    rule = GramRule(
        coeff=0.5,
        blocks=blocks,
        block_scales=(1.0, s / (1 - s)) if aux else (1.0,),
        scale=1.0 / kappa,
    )
    basis = [BasisMatrix(lbl, mat) for lbl, mat in k_basis + m_basis]
    name = f"berger:m={m},s={s:g},kappa={kappa:g}"
    alg = assemble_algebra(basis, rule, name=name)
    nk = len(k_basis)
    tau = kappa * s * (m + 1) / (2 * m)
    return ReductiveSpace(
        algebra=alg,
        k_indices=tuple(range(nk)),
        m_indices=tuple(range(nk, alg.dim)),
        m0_indices=(nk,),
        m1_indices=tuple(range(nk + 1, alg.dim)),
        name=name,
        params={"family": "berger", "m": m, "s": s, "kappa": kappa, "tau": tau},
        witnesses={"M0": "d_s", "M1": f"e_{m}", "M": f"e_{m}"},
        base_reference=SymmetricReference("projective", kappa),
    )


def build_sp_sphere(m: int, s: float, kappa: float = 1.0) -> ReductiveSpace:
    """S^{4m+3} = Sp(m+1)/Sp(m) with the Sp(1) fiber scaled by s."""
    _check(isinstance(m, int) and m >= 1, "sp sphere needs integer m >= 1")
    _check(0 < s <= 1, "sp sphere needs 0 < s <= 1")
    _check(kappa > 0, "kappa must be positive")
    aux = s < 1
    blocks = (2 * (m + 1), 2) if aux else None
    x, y, z = _sp_matrices(m, blocks=blocks)

    k_basis = list(z)
    m0_basis = []
    if aux:
        d_aux = [
            block_embed(blocks, 1, a_matrix(2, 1, 2)),
            block_embed(blocks, 1, b_matrix(2, 1, 2)),
            block_embed(blocks, 1, c_matrix(2, 1, 2)),
        ]
        for p in range(3):
            xp = x[p][1]
            k_basis.append(
                (f"h_{p + 1}s", math.sqrt(2 * (1 - s)) * (xp + d_aux[p]))
            )
            m0_basis.append(
                (f"d_{p + 1}s", math.sqrt(2 * s) * (xp + ((s - 1) / s) * d_aux[p]))
            )
    else:
        for p in range(3):
            m0_basis.append((f"d_{p + 1}s", math.sqrt(2.0) * x[p][1]))

    rule = GramRule(
        coeff=0.25,
        blocks=blocks or (),
        block_scales=(1.0, s / (1 - s)) if aux else (),
        scale=1.0 / kappa,
    )
    basis = [BasisMatrix(lbl, mat) for lbl, mat in k_basis + m0_basis + y]
    name = f"spsphere:m={m},s={s:g},kappa={kappa:g}"
    alg = assemble_algebra(basis, rule, name=name)
    nk = len(k_basis)
    tau = kappa * s / 2
    return ReductiveSpace(
        algebra=alg,
        k_indices=tuple(range(nk)),
        m_indices=tuple(range(nk, alg.dim)),
        m0_indices=tuple(range(nk, nk + 3)),
        m1_indices=tuple(range(nk + 3, alg.dim)),
        name=name,
        params={"family": "spsphere", "m": m, "s": s, "kappa": kappa, "tau": tau},
        witnesses={"M0": "d_1s", "M1": "Y_1", "M": "Y_1"},
        base_reference=SymmetricReference("projective", kappa),
    )


def build_cp_odd(m: int, kappa: float = 1.0) -> ReductiveSpace:
    """CP^{2m+1} = Sp(m+1)/(Sp(m) x U(1)) with the -1/4 trace metric."""
    _check(isinstance(m, int) and m >= 1, "cp odd needs integer m >= 1")
    _check(kappa > 0, "kappa must be positive")
    x, y, z = _sp_matrices(m)
    k_basis = list(z) + [x[0]]
    m0_basis = [x[1], x[2]]
    basis = [BasisMatrix(lbl, mat) for lbl, mat in k_basis + m0_basis + y]
    rule = GramRule(coeff=0.25, scale=1.0 / kappa)
    name = f"cpodd:m={m},kappa={kappa:g}"
    alg = assemble_algebra(basis, rule, name=name)
    nk = len(k_basis)
    tau = kappa / 2
    return ReductiveSpace(
        algebra=alg,
        k_indices=tuple(range(nk)),
        m_indices=tuple(range(nk, alg.dim)),
        m0_indices=(nk, nk + 1),
        m1_indices=tuple(range(nk + 2, alg.dim)),
        name=name,
        params={"family": "cpodd", "m": m, "kappa": kappa, "tau": tau},
        witnesses={"M0": "X_2", "M1": "Y_1", "M": "Y_1"},
        base_reference=SymmetricReference("projective", kappa),
    )


def build_b13() -> ReductiveSpace:
    """The Berger space B^13 = SU(5)/H with the -1/4 trace metric."""
    n = 5
    A, B, C = (
        lambda j, k: a_matrix(n, j, k),
        lambda j, k: b_matrix(n, j, k),
        lambda j, k: c_matrix(n, j, k),
    )
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
    basis = [BasisMatrix(lbl, mat) for lbl, mat in h + m0 + m1]
    alg = assemble_algebra(basis, GramRule(coeff=0.25), name="b13")
    return ReductiveSpace(
        algebra=alg,
        k_indices=tuple(range(11)),
        m_indices=tuple(range(11, 24)),
        m0_indices=tuple(range(11, 16)),
        m1_indices=tuple(range(16, 24)),
        name="b13",
        params={"family": "b13", "kappa": 1.0},
        witnesses={"M0": "u_0", "M1": "e_1", "M": "e_1"},
        base_reference=SymmetricReference("projective", 2.0),
    )


def build_w7(s: float) -> ReductiveSpace:
    """Wilking's W^7 = (SO(3) x SU(3))/U*(2) with the metric s<.,.> + <.,.>."""
    _check(s > 0, "w7 needs s > 0")
    blocks = (2, 3)

    def so3(mat):
        return block_embed(blocks, 0, mat)

    def su3(mat):
        return block_embed(blocks, 1, mat)

    a12, b12, c12 = a_matrix(2, 1, 2), b_matrix(2, 1, 2), c_matrix(2, 1, 2)
    a34, b34, c34 = a_matrix(3, 1, 2), b_matrix(3, 1, 2), c_matrix(3, 1, 2)
    a45 = a_matrix(3, 2, 3)
    r1 = 1.0 / math.sqrt(1 + s)
    r0 = 1.0 / math.sqrt(s * (1 + s))
    k_basis = [
        ("K_1", r1 * (so3(a12) + su3(a34))),
        ("K_2", r1 * (so3(b12) + su3(b34))),
        ("K_3", r1 * (so3(c12) + su3(c34))),
        ("K_4", (1.0 / math.sqrt(3)) * su3(a34 + 2 * a45)),
    ]
    m0_basis = [
        ("u_0s", r0 * (so3(a12) - s * su3(a34))),
        ("u_1s", r0 * (so3(b12) - s * su3(b34))),
        ("v_1s", r0 * (so3(c12) - s * su3(c34))),
    ]
    m1_basis = [
        ("e_1", su3(b_matrix(3, 1, 3))),
        ("e_2", su3(b_matrix(3, 2, 3))),
        ("f_1", su3(c_matrix(3, 1, 3))),
        ("f_2", su3(c_matrix(3, 2, 3))),
    ]
    rule = GramRule(coeff=0.5, blocks=blocks, block_scales=(s, 1.0))
    basis = [BasisMatrix(lbl, mat) for lbl, mat in k_basis + m0_basis + m1_basis]
    name = f"w7:s={s:g}"
    alg = assemble_algebra(basis, rule, name=name)
    return ReductiveSpace(
        algebra=alg,
        k_indices=(0, 1, 2, 3),
        m_indices=tuple(range(4, 11)),
        m0_indices=(4, 5, 6),
        m1_indices=(7, 8, 9, 10),
        name=name,
        params={"family": "w7", "s": s, "kappa": 1.0},
        witnesses={"M0": "u_0s", "M1": "e_1", "M": "e_1"},
        base_reference=SymmetricReference("projective", 1.0),
    )


# -- descriptor grammar ------------------------------------------------------


@dataclass(frozen=True)
class SpaceDescriptor:
    family: str
    params: tuple[tuple[str, float], ...]

    def text(self) -> str:
        if not self.params:
            return self.family
        args = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.family}:{args}"


_FAMILY_PARAMS = {
    "round": {"n": (int, 3), "kappa": (float, 1.0)},
    "berger": {"m": (int, 1), "s": (float, 1.0), "kappa": (float, 1.0)},
    "spsphere": {"m": (int, 1), "s": (float, 1.0), "kappa": (float, 1.0)},
    "cpodd": {"m": (int, 1), "kappa": (float, 1.0)},
    "b13": {},
    "w7": {"s": (float, 1.0)},
}


def _parse_number(text: str) -> float:
    text = text.strip()
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise BadParams(f"number {text!r} is not finite")
    return value


def parse_descriptor(text: str) -> SpaceDescriptor:
    """Parse descriptors like "berger:m=2,s=0.5,kappa=1", "b13", "w7:s=0.5"."""
    text = text.strip()
    family, _, argstr = text.partition(":")
    family = family.lower()
    if family not in _FAMILY_PARAMS:
        raise BadParams(f"unknown space family {family!r}")
    spec = _FAMILY_PARAMS[family]
    values = {k: d for k, (_, d) in spec.items()}
    if argstr:
        for item in argstr.split(","):
            if not item.strip():
                continue
            key, eq, val = item.partition("=")
            key = key.strip().lower()
            if not eq or key not in spec:
                raise BadParams(f"bad parameter {item!r} for family {family!r}")
            typ = spec[key][0]
            num = _parse_number(val)
            if typ is int:
                if abs(num - round(num)) > 1e-9:
                    raise BadParams(f"{key} must be an integer, got {val!r}")
                num = int(round(num))
            values[key] = num
    params = tuple(sorted(values.items()))
    return SpaceDescriptor(family=family, params=params)


@lru_cache(maxsize=None)
def _build_cached(family: str, params: tuple) -> ReductiveSpace:
    kw = dict(params)
    if family == "round":
        return build_round_sphere(int(kw["n"]), kw["kappa"])
    if family == "berger":
        return build_berger_sphere(int(kw["m"]), kw["s"], kw["kappa"])
    if family == "spsphere":
        return build_sp_sphere(int(kw["m"]), kw["s"], kw["kappa"])
    if family == "cpodd":
        return build_cp_odd(int(kw["m"]), kw["kappa"])
    if family == "b13":
        return build_b13()
    if family == "w7":
        return build_w7(kw["s"])
    raise BadParams(f"unknown family {family!r}")


def build_space(descriptor) -> ReductiveSpace:
    """Build (with caching) from a SpaceDescriptor or a descriptor string."""
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    return _build_cached(descriptor.family, descriptor.params)


def known_families() -> dict:
    return {
        fam: {k: ("int" if t is int else "float", d) for k, (t, d) in spec.items()}
        for fam, spec in _FAMILY_PARAMS.items()
    }
