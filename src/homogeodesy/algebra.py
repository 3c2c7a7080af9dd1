"""Matrix Lie algebras with precomputed structure constants.

An algebra is assembled once from an explicit matrix basis and a declared
block-scaled trace form.  The form's pairing (GramRule.pairing) gives the Gram
matrix G and the pairings <[b_i, b_j], b_l>, and one solve against G turns
these into the structure constants.  The pairing projects a commutator that
leaves the span of the basis without failing, so the closure check, which
compares each commutator with its expansion, is what rejects such a basis.
All downstream geometry works with the real structure tensor and the Gram
matrix; the complex matrices are only touched at assembly time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import block_offsets

CLOSURE_TOL = 1e-10
BIINVARIANCE_TOL = 1e-10
MAX_VIOLATIONS = 200  # violations listed by check_biinvariance, largest first


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

    def pairing(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """<L_a, R_b> for stacks left (p, N, N) and right (q, N, N), as (p, q):
        one GEMM per block, of left's block flattened against right's transposed."""
        n = left.shape[-1]
        blocks = self.blocks or (n,)
        scales = self.block_scales or (1.0,) * len(blocks)
        offs = block_offsets(blocks)
        if offs[-1] != n:
            raise ValueError("block sizes do not cover the matrices")
        out = np.zeros((len(left), len(right)))
        for b, sigma in enumerate(scales):
            lo, hi = offs[b], offs[b + 1]
            lhs = left[:, lo:hi, lo:hi].reshape(len(left), -1)
            rhs = right[:, lo:hi, lo:hi].transpose(0, 2, 1).reshape(len(right), -1)
            out += sigma * (-self.coeff) * (lhs @ rhs.T).real
        return self.scale * out

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
            return self._positions[label]
        except KeyError:
            raise KeyError(f"no basis element labelled {label!r} in {self.name}") from None

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each label's first position in the basis, as labels.index finds it."""
        return {label: i for i, label in reversed(list(enumerate(self.labels)))}

    @cached_property
    def _stack(self) -> np.ndarray:
        return np.array([b.entries for b in self.basis])

    # -- elements -------------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(coeffs, dtype=float))

    def basis_element(self, label: str) -> "AlgebraElement":
        coeffs = np.zeros(self.dim)
        coeffs[self.index(label)] = 1.0
        return AlgebraElement(self, coeffs)

    def coeffs_of_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Expand a matrix in the basis; NotClosed if it is not in the span."""
        mat = np.asarray(mat, dtype=complex)
        coeffs = np.linalg.solve(self.gram, self.gram_rule.pairing(mat[None], self._stack)[0])
        recon = self.matrix_of(coeffs)
        resid = np.max(np.abs(recon - mat))
        if resid > CLOSURE_TOL * max(1.0, np.max(np.abs(mat))):
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
        return self._ad_rows(coeffs)[0].T

    def brackets(self, xs, ys) -> np.ndarray:
        """[x_a, y_b] for the rows x_a of xs and y_b of ys, as a (len(xs), len(ys), dim) array."""
        return np.asarray(ys, dtype=float) @ self._ad_rows(xs)

    def _ad_rows(self, xs) -> np.ndarray:
        """(ad_x)^T for each row x of xs, by one GEMM: row j of slice a holds [x_a, b_j]."""
        d = self.dim
        return (np.asarray(xs, dtype=float) @ self.structure.reshape(d, d * d)).reshape(-1, d, d)


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


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """[x, y] through the precomputed structure tensor."""
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("elements belong to different algebras")
    return AlgebraElement(x.algebra, x.algebra.brackets(x.coeffs[None], y.coeffs[None])[0, 0])


def _commutators(stack: np.ndarray) -> np.ndarray:
    """The table [b_i, b_j] of a stack (d, N, N) of matrices, (d, d, N, N), by one batched matmul."""
    prod = np.matmul(stack[:, None], stack[None])
    return prod - prod.transpose(1, 0, 2, 3)


def _reconstruct(structure: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The expansions sum_k c_ijk b_k, (d, d, N, N), by one GEMM of c with the stack."""
    d = len(stack)
    return (structure.reshape(d * d, d) @ stack.reshape(d, -1)).reshape((d, d) + stack.shape[1:])


def assemble_algebra(basis, gram_rule: GramRule, name: str = "algebra") -> StructuredAlgebra:
    """Compute structure constants and Gram matrix from an explicit basis.

    Raises NotClosed when some commutator leaves the basis span (residual above
    CLOSURE_TOL) and DegenerateGram when the declared form is not positive
    definite.
    """
    basis = tuple(b if isinstance(b, BasisMatrix) else BasisMatrix(*b) for b in basis)
    if len({b.label for b in basis}) != len(basis):
        raise ValueError("basis labels must be unique")
    stack = np.array([b.entries for b in basis])
    d = len(basis)

    gram = gram_rule.pairing(stack, stack)
    gram = 0.5 * (gram + gram.T)
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise DegenerateGram(
            f"{name}: gram not positive definite (min eigenvalue {eigs[0]:.2e})"
        )

    comm = _commutators(stack)
    flat = comm.reshape((d * d,) + stack.shape[1:])
    structure = np.linalg.solve(gram, gram_rule.pairing(flat, stack).T).T.reshape(d, d, d)

    resid = np.abs(_reconstruct(structure, stack) - comm).reshape(d, d, -1).max(axis=2)
    scale = max(1.0, np.max(np.abs(comm)))
    worst = np.unravel_index(np.argmax(resid), resid.shape)
    if resid[worst] > CLOSURE_TOL * scale:
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
    """Max residual of the cyclic Jacobi sum, relative to the tensor scale.

    t_ijlm = sum_k c_ijk c_klm expands [[b_i, b_j], b_l]; the cyclic sum
    t_ijlm + t_lijm + t_jlim is taken one first index i at a time, so it holds
    dim^3 numbers, not dim^4."""
    c = alg.structure
    d = alg.dim
    rows, pairs = c.reshape(d, d * d), c.reshape(d * d, d)  # c_k.. and c_jl.
    worst, scale = 0.0, 1.0
    for i in range(d):
        t_i = (c[i] @ rows).reshape(d, d, d)  # t_ijlm over (j, l, m)
        t_li = (c[:, i] @ rows).reshape(d, d, d).transpose(1, 0, 2)  # t_lijm
        t_jl = (pairs @ c[:, i]).reshape(d, d, d)  # t_jlim
        worst = max(worst, float(np.max(np.abs(t_i + t_li + t_jl))))
        scale = max(scale, float(np.max(np.abs(t_i))))
    return worst / scale


def reconstruction_residual(alg: StructuredAlgebra) -> float:
    """Max entrywise gap between matrix commutators and their expansions."""
    stack = alg._stack
    return float(np.max(np.abs(_reconstruct(alg.structure, stack) - _commutators(stack))))


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


def check_biinvariance(alg: StructuredAlgebra) -> BiinvarianceReport:
    """Scan <[b_i,b_j],b_k> + <[b_i,b_k],b_j> over all basis triples."""
    a = alg.structure @ alg.gram  # a_ijk = <[b_i, b_j], b_k>
    r = a + a.transpose(0, 2, 1)
    absr = np.abs(r)
    worst_idx = np.unravel_index(np.argmax(absr), absr.shape)
    labels = alg.labels
    bad = np.argwhere(absr > BIINVARIANCE_TOL)
    order = np.argsort(-absr[tuple(bad.T)]) if len(bad) else []
    violations = tuple(
        (
            (labels[i], labels[j], labels[k]),
            float(absr[i, j, k]),
        )
        for i, j, k in (bad[o] for o in order[:MAX_VIOLATIONS])
    )
    return BiinvarianceReport(
        algebra=alg.name,
        max_residual=float(absr[worst_idx]),
        passed=bool(absr[worst_idx] <= BIINVARIANCE_TOL),
        worst=tuple(labels[i] for i in worst_idx),
        violations=violations,
    )


# -- serialization ---------------------------------------------------------


def algebra_to_json(alg: StructuredAlgebra) -> dict:
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": [
            {"label": b.label, "re": b.entries.real.tolist(), "im": b.entries.imag.tolist()}
            for b in alg.basis
        ],
        "gram_rule": alg.gram_rule.describe(),
    }
