"""Matrix Lie algebras with precomputed structure constants.

An algebra is assembled once from an explicit matrix basis: every commutator
is expanded in the basis by least squares (and rejected if it does not lie in
the span), and the inner product is evaluated from a declared block-scaled
trace form.  All downstream geometry works with the real structure tensor and
the Gram matrix; the complex matrices are only touched at assembly time.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import block_offsets

CLOSURE_TOL = 1e-10


class AlgebraError(RuntimeError):
    pass


class NotClosed(AlgebraError):
    """A commutator left the span of the declared basis (wrong basis)."""


class DegenerateGram(AlgebraError):
    """The declared trace form is not positive definite on the basis."""


class AlgebraMismatch(AlgebraError):
    """Operands belong to different algebras."""


@dataclass(frozen=True)
class BasisMatrix:
    """A labelled generator; entries must be skew-Hermitian and traceless."""

    label: str
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"{self.label}: entries must be square")
        if np.max(np.abs(m + m.conj().T)) > 1e-12:
            raise ValueError(f"{self.label}: not skew-Hermitian")
        if abs(np.trace(m)) > 1e-12:
            raise ValueError(f"{self.label}: nonzero trace")

    @property
    def re(self) -> np.ndarray:
        return self.entries.real

    @property
    def im(self) -> np.ndarray:
        return self.entries.imag


@dataclass(frozen=True)
class GramRule:
    """Block-scaled trace form <X,Y> = scale * sum_b sigma_b * (-coeff tr X_b Y_b).

    ``coeff`` is the trace coefficient (1/2 or 1/4 in the catalog), ``blocks``
    the diagonal block sizes of the matrix realization, ``block_scales`` the
    per-block weights (used to make auxiliary U(1)/Sp(1) factors orthonormal),
    and ``scale`` an overall factor (1/kappa for the rescaled metrics).
    """

    coeff: float
    blocks: tuple[int, ...] = ()
    block_scales: tuple[float, ...] = ()
    scale: float = 1.0

    def pairing_matrix(self, stack: np.ndarray) -> np.ndarray:
        """Gram matrix of a stack (d, N, N) of basis matrices."""
        n = stack.shape[1]
        blocks = self.blocks or (n,)
        scales = self.block_scales or (1.0,) * len(blocks)
        offs = block_offsets(blocks)
        if offs[-1] != n:
            raise ValueError("block sizes do not cover the matrices")
        gram = np.zeros((stack.shape[0], stack.shape[0]))
        for b, sigma in enumerate(scales):
            lo, hi = offs[b], offs[b + 1]
            sub = stack[:, lo:hi, lo:hi]
            gram += sigma * (-self.coeff) * np.einsum("iab,jba->ij", sub, sub).real
        return self.scale * gram

    def describe(self) -> dict:
        return {
            "coeff": self.coeff,
            "blocks": list(self.blocks),
            "block_scales": list(self.block_scales),
            "scale": self.scale,
        }


@dataclass(frozen=True)
class StructuredAlgebra:
    """Ordered basis, structure tensor c with [b_i,b_j] = sum_k c_ijk b_k, Gram."""

    name: str
    basis: tuple[BasisMatrix, ...]
    structure: np.ndarray
    gram: np.ndarray
    gram_rule: GramRule

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.basis)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis element labelled {label!r} in {self.name}") from None

    @cached_property
    def _stack(self) -> np.ndarray:
        return np.array([b.entries for b in self.basis])

    @cached_property
    def _flat_pinv(self) -> np.ndarray:
        d = self.dim
        flat = np.concatenate(
            [self._stack.real.reshape(d, -1), self._stack.imag.reshape(d, -1)], axis=1
        )
        return np.linalg.pinv(flat)

    # -- elements -------------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(coeffs, dtype=float))

    def basis_element(self, label: str) -> "AlgebraElement":
        coeffs = np.zeros(self.dim)
        coeffs[self.index(label)] = 1.0
        return AlgebraElement(self, coeffs)

    def coeffs_of_matrix(self, mat: np.ndarray, tol: float = CLOSURE_TOL) -> np.ndarray:
        """Expand a matrix in the basis; NotClosed if it is not in the span."""
        mat = np.asarray(mat, dtype=complex)
        vec = np.concatenate([mat.real.ravel(), mat.imag.ravel()])
        coeffs = vec @ self._flat_pinv
        recon = np.tensordot(coeffs, self._stack, axes=1)
        resid = np.max(np.abs(recon - mat))
        if resid > tol * max(1.0, np.max(np.abs(mat))):
            raise NotClosed(f"matrix lies outside span of {self.name} (residual {resid:.2e})")
        return coeffs

    def matrix_of(self, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=float), self._stack, axes=1)

    # -- metric ---------------------------------------------------------

    def inner(self, x, y) -> float:
        """<x, y> in the Gram; NaN or +-inf, with no numpy warning, on non-finite input."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def ad(self, coeffs) -> np.ndarray:
        """Matrix of ad_x: column j holds the coefficients of [x, b_j]."""
        return np.einsum("i,ijk->kj", np.asarray(coeffs, dtype=float), self.structure)


class AlgebraElement:
    """Real coefficient vector over the fixed ordered basis of an algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: StructuredAlgebra, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (algebra.dim,):
            raise ValueError(f"expected {algebra.dim} coefficients, got {coeffs.shape}")
        self.algebra = algebra
        self.coeffs = coeffs

    def matrix(self) -> np.ndarray:
        return self.algebra.matrix_of(self.coeffs)

    def norm(self) -> float:
        return self.algebra.norm(self.coeffs)

    def __add__(self, other):
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return AlgebraElement(self.algebra, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        terms = [
            f"{c:+.4g}*{lbl}"
            for c, lbl in zip(self.coeffs, self.algebra.labels)
            if abs(c) > 1e-12
        ]
        return f"<{' '.join(terms) or '0'}>"


def _same_algebra(x: AlgebraElement, y: AlgebraElement):
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("elements belong to different algebras")


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """[x, y] through the precomputed structure tensor."""
    _same_algebra(x, y)
    alg = x.algebra
    out = np.einsum("i,j,ijk->k", x.coeffs, y.coeffs, alg.structure)
    return AlgebraElement(alg, out)


def assemble_algebra(
    basis,
    gram_rule: GramRule,
    name: str = "algebra",
    closure_tol: float = CLOSURE_TOL,
) -> StructuredAlgebra:
    """Compute structure constants and Gram matrix from an explicit basis.

    Raises NotClosed when some commutator leaves the basis span (residual above
    ``closure_tol``) and DegenerateGram when the declared form is not positive
    definite.
    """
    basis = tuple(b if isinstance(b, BasisMatrix) else BasisMatrix(*b) for b in basis)
    if len({b.label for b in basis}) != len(basis):
        raise ValueError("basis labels must be unique")
    stack = np.array([b.entries for b in basis])
    d = len(basis)

    gram = gram_rule.pairing_matrix(stack)
    gram = 0.5 * (gram + gram.T)
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise DegenerateGram(
            f"{name}: gram not positive definite (min eigenvalue {eigs[0]:.2e})"
        )

    comm = np.einsum("iab,jbc->ijac", stack, stack)
    comm = comm - comm.transpose(1, 0, 2, 3)
    flat = np.concatenate([stack.real.reshape(d, -1), stack.imag.reshape(d, -1)], axis=1)
    rhs = np.concatenate(
        [comm.real.reshape(d * d, -1), comm.imag.reshape(d * d, -1)], axis=1
    )
    sol, *_ = np.linalg.lstsq(flat.T, rhs.T, rcond=None)
    structure = sol.T.reshape(d, d, d)
    structure = 0.5 * (structure - structure.transpose(1, 0, 2))

    recon = np.einsum("ijk,kab->ijab", structure, stack)
    resid = np.abs(recon - comm).reshape(d, d, -1).max(axis=2)
    scale = max(1.0, np.max(np.abs(comm)))
    worst = np.unravel_index(np.argmax(resid), resid.shape)
    if resid[worst] > closure_tol * scale:
        raise NotClosed(
            f"{name}: [{basis[worst[0]].label}, {basis[worst[1]].label}] leaves the "
            f"basis span (residual {resid[worst]:.2e})"
        )

    structure.setflags(write=False)
    gram.setflags(write=False)
    return StructuredAlgebra(name, basis, structure, gram, gram_rule)


# -- identity checks ------------------------------------------------------


def antisymmetry_residual(alg: StructuredAlgebra) -> float:
    c = alg.structure
    return float(np.max(np.abs(c + c.transpose(1, 0, 2))))


def jacobi_identity_residual(alg: StructuredAlgebra) -> float:
    """Max residual of the cyclic Jacobi sum, relative to the tensor scale."""
    c = alg.structure
    t = np.einsum("ijk,klm->ijlm", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    scale = max(1.0, float(np.max(np.abs(t))))
    return float(np.max(np.abs(cyc))) / scale


def reconstruction_residual(alg: StructuredAlgebra) -> float:
    """Max entrywise gap between matrix commutators and their expansions."""
    stack = alg._stack
    comm = np.einsum("iab,jbc->ijac", stack, stack)
    comm = comm - comm.transpose(1, 0, 2, 3)
    recon = np.einsum("ijk,kab->ijab", alg.structure, stack)
    return float(np.max(np.abs(recon - comm)))


@dataclass(frozen=True)
class BiinvarianceReport:
    algebra: str
    max_residual: float
    passed: bool
    worst: tuple[str, str, str]
    violations: tuple[tuple[tuple[str, str, str], float], ...]

    def to_dict(self) -> dict:
        return {
            "check": "bi-invariance",
            "algebra": self.algebra,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "worst": list(self.worst),
            "violations": [
                {"triple": list(t), "residual": r} for t, r in self.violations
            ],
        }


def check_biinvariance(
    alg: StructuredAlgebra,
    gram: np.ndarray | None = None,
    tol: float = 1e-10,
    max_violations: int = 200,
) -> BiinvarianceReport:
    """Scan <[b_i,b_j],b_k> + <[b_i,b_k],b_j> over all basis triples.

    ``gram`` overrides the algebra's own Gram matrix; this is how the s != 1
    extension on B13 is shown to break bi-invariance.
    """
    g = alg.gram if gram is None else np.asarray(gram, dtype=float)
    a = np.einsum("ijl,lk->ijk", alg.structure, g)
    r = a + a.transpose(0, 2, 1)
    absr = np.abs(r)
    worst_idx = np.unravel_index(np.argmax(absr), absr.shape)
    labels = alg.labels
    bad = np.argwhere(absr > tol)
    order = np.argsort(-absr[tuple(bad.T)]) if len(bad) else []
    violations = tuple(
        (
            (labels[i], labels[j], labels[k]),
            float(absr[i, j, k]),
        )
        for i, j, k in (bad[o] for o in order[:max_violations])
    )
    return BiinvarianceReport(
        algebra=alg.name,
        max_residual=float(absr[worst_idx]),
        passed=bool(absr[worst_idx] <= tol),
        worst=tuple(labels[i] for i in worst_idx),
        violations=violations,
    )


# -- serialization ---------------------------------------------------------


def algebra_to_json(alg: StructuredAlgebra) -> dict:
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": [
            {"label": b.label, "re": b.re.tolist(), "im": b.im.tolist()}
            for b in alg.basis
        ],
        "gram_rule": alg.gram_rule.describe(),
    }


def algebra_from_json(doc: dict) -> StructuredAlgebra:
    basis = [
        BasisMatrix(item["label"], np.array(item["re"]) + 1j * np.array(item["im"]))
        for item in doc["basis"]
    ]
    rule = GramRule(
        coeff=doc["gram_rule"]["coeff"],
        blocks=tuple(doc["gram_rule"]["blocks"]),
        block_scales=tuple(doc["gram_rule"]["block_scales"]),
        scale=doc["gram_rule"]["scale"],
    )
    return assemble_algebra(basis, rule, name=doc.get("name", "algebra"))


def structure_to_csv(alg: StructuredAlgebra, fileobj=None, tol: float = 1e-12) -> str:
    """Sparse (i, j, k, value) triples of the structure tensor as CSV text."""
    buf = fileobj or io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "j", "k", "value"])
    c = alg.structure
    for i, j, k in np.argwhere(np.abs(c) > tol):
        writer.writerow([i, j, k, f"{c[i, j, k]:.12g}"])
    return buf.getvalue() if fileobj is None else ""
