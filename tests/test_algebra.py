
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogeodesy.algebra import (
    AlgebraMismatch,
    BasisMatrix,
    DegenerateGram,
    GramRule,
    NotClosed,
    _commutators,
    _reconstruct,
    algebra_to_json,
    antisymmetry_residual,
    assemble_algebra,
    bracket,
    check_biinvariance,
    jacobi_identity_residual,
    reconstruction_residual,
)
from homogeodesy.catalog import _FAMILIES, build_b13, build_space, su_algebra
from homogeodesy.matrices import a_matrix, b_matrix, c_matrix
from oracles import (
    ad_einsum,
    algebra_from_doc,
    brackets_einsum,
    commutators_einsum,
    jacobi_identity_residual_dense,
    reconstruct_einsum,
    reconstruction_residual_einsum,
)


def test_su2_structure_constants():
    alg = su_algebra(2)
    # S_1 = A_{1,2}; the su(2) table [A,B] = 2C, [B,C] = 2A, [C,A] = 2B
    a, b, c = (alg.basis_element(l) for l in ("S_1", "B_{1,2}", "C_{1,2}"))
    np.testing.assert_allclose(bracket(a, b).matrix(), 2 * c.matrix(), atol=1e-14)
    np.testing.assert_allclose(bracket(b, c).matrix(), 2 * a.matrix(), atol=1e-14)
    np.testing.assert_allclose(bracket(c, a).matrix(), 2 * b.matrix(), atol=1e-14)
    np.testing.assert_allclose(alg.gram, np.eye(3), atol=1e-14)


def test_identities_hold_on_su5():
    alg = su_algebra(5)
    assert antisymmetry_residual(alg) < 1e-12
    assert jacobi_identity_residual(alg) < 1e-12
    assert reconstruction_residual(alg) < 1e-12


def _checked_algebras():
    """The six CI algebras, and su(3)'s basis under a random antisymmetric tensor."""
    descs = ("b13", "w7:s=0.5", "berger:m=2,s=0.5", "spsphere:m=2,s=0.5", "cpodd:m=2", "round:n=5")
    algebras = [build_space(desc).algebra for desc in descs]
    # a random antisymmetric tensor breaks the identities by O(1), far above rounding
    c = np.random.default_rng(0).standard_normal((8, 8, 8))
    algebras.append(dataclasses.replace(su_algebra(3), structure=c - c.transpose(1, 0, 2)))
    return algebras


def test_jacobi_identity_residual_matches_the_dense_sum():
    # both take the max of the same cyclic sums of 3 * dim products, summed in
    # different orders and divided by a scale >= 1; on exact structure constants
    # both sit at rounding level, where only a rounding bound compares them
    algebras = _checked_algebras()
    for alg in algebras:
        got, want = jacobi_identity_residual(alg), jacobi_identity_residual_dense(alg)
        c = np.abs(alg.structure)
        t = np.einsum("ijk,klm->ijlm", c, c)
        magnitude = np.max(t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3))
        _assert_rounding_close(got, want, 3 * alg.dim, magnitude, alg.name)
    assert jacobi_identity_residual(algebras[-1]) > 0.1


def _family_descriptors() -> list[str]:
    """Each catalog family at its defaults, and at its largest integer
    parameters with s = 0.5, as the CI verify step builds them."""
    descs = []
    for family, (_, spec) in _FAMILIES.items():
        largest = [f"{k}={top}" for k, (typ, _, top) in spec.items() if typ is int]
        largest += ["s=0.5"] * ("s" in spec)
        descs += [family] + [f"{family}:{','.join(largest)}"] * bool(largest)
    return descs


@pytest.mark.parametrize("desc", _family_descriptors())
def test_structure_constants_are_exact(desc):
    # c solves G c = <[b_i, b_j], b_l>: the commutator table is exactly
    # antisymmetric and the pairing and the solve keep its signs.  A pairing
    # that is zero stays zero, except on the elements the Gram couples by
    # rounding: Cartan elements orthogonal only to rounding (berger), or whose
    # pairings cancel in products of equal size that a fused multiply-add in
    # the GEMM leaves at rounding level (w7)
    alg = build_space(desc).algebra
    c = alg.structure
    assert antisymmetry_residual(alg) == 0.0
    assert reconstruction_residual(alg) <= 1e-15
    assert jacobi_identity_residual(alg) <= 1e-15
    assert check_biinvariance(alg).max_residual <= 1e-15
    coupled = np.any((alg.gram != 0) & ~np.eye(alg.dim, dtype=bool), axis=0)
    small = np.abs(c) <= 1e-15 * np.max(np.abs(c))
    assert not np.any(c[small & ~coupled])


def _assert_rounding_close(got, want, terms: int, magnitude, name: str):
    """Two evaluations of a sum of `terms` products, whose absolute values sum to
    `magnitude`, each within terms * eps * magnitude of the exact sum (a complex
    product counting as two terms), differ by at most twice that."""
    gap = np.abs(np.asarray(got) - np.asarray(want))
    assert np.all(gap <= 2 * terms * np.finfo(float).eps * magnitude), name


def test_gemm_contractions_match_the_einsum_forms():
    rng = np.random.default_rng(3)
    for alg in _checked_algebras():
        c, d, name = alg.structure, alg.dim, alg.name
        stack = np.array([b.entries for b in alg.basis])
        size = stack.shape[1]
        xs, ys = rng.standard_normal((5, d)), rng.standard_normal((4, d))
        want = brackets_einsum(c, xs, ys)
        assert alg.brackets(xs, ys).shape == want.shape == (5, 4, d)
        magnitude = brackets_einsum(np.abs(c), np.abs(xs), np.abs(ys))
        _assert_rounding_close(alg.brackets(xs, ys), want, d * d, magnitude, name)
        _assert_rounding_close(alg.ad(xs[0]), ad_einsum(c, xs[0]), d, ad_einsum(np.abs(c), np.abs(xs[0])), name)
        comm = commutators_einsum(stack)
        comm_magnitude = 2 * np.einsum("iab,jbc->ijac", np.abs(stack), np.abs(stack))
        _assert_rounding_close(_commutators(stack), comm, 4 * size, comm_magnitude, name)
        recon = reconstruct_einsum(c, stack)
        recon_magnitude = reconstruct_einsum(np.abs(c), np.abs(stack))
        _assert_rounding_close(_reconstruct(c, stack), recon, 2 * d, recon_magnitude, name)
        # the residual is a max of |recon - comm|, so it moves by no more than both gaps
        terms = 4 * size + 2 * d
        magnitude = np.max(comm_magnitude) + np.max(recon_magnitude)
        want = reconstruction_residual_einsum(alg)
        _assert_rounding_close(reconstruction_residual(alg), want, terms, magnitude, name)
    assert want > 0.1  # the random tensor's expansions are not the commutators


def test_jacobi_identity_residual_holds_dim_cubed_numbers():
    # berger:m=6 has 49 elements, and the residual sets the cost of verify
    # there.  Summed one first index at a time it holds a few arrays of dim^3
    # numbers (0.94 MB each; 5.6 MB traced in all); the bound of ten of them is
    # a fifth of a single dim^4 array, and the sum over the whole dim^4 tensor
    # peaked at 138 MB.
    alg = build_space("berger:m=6,s=0.5").algebra
    tracemalloc.start()
    try:
        jacobi_identity_residual(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * alg.dim**3 * 8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
def test_bracket_self_is_zero(coeffs):
    alg = su_algebra(3)
    x = alg.element(coeffs)
    assert np.max(np.abs(bracket(x, x).coeffs)) < 1e-12


def test_index_keeps_the_first_match_and_its_key_error():
    alg = build_space("b13").algebra
    assert [alg.index(label) for label in alg.labels] == list(range(alg.dim))
    # a basis that repeats a label (assemble_algebra refuses one) still finds the first
    twice = dataclasses.replace(alg, basis=alg.basis[1:] + alg.basis[:2])
    assert twice.index(alg.labels[1]) == twice.labels.index(alg.labels[1]) == 0
    with pytest.raises(KeyError, match=r"^\"no basis element labelled 'x_9' in b13\"$"):
        alg.index("x_9")


def test_algebra_mismatch():
    x = su_algebra(2).basis_element("S_1")
    y = su_algebra(3).basis_element("S_1")
    with pytest.raises(AlgebraMismatch):
        bracket(x, y)


def test_not_closed_rejects_partial_basis():
    basis = [
        BasisMatrix("B_{1,2}", b_matrix(3, 1, 2)),
        BasisMatrix("C_{1,3}", c_matrix(3, 1, 3)),
    ]
    with pytest.raises(NotClosed):
        assemble_algebra(basis, GramRule(coeff=0.5))


def test_degenerate_gram_rejects_dependent_basis():
    basis = [
        BasisMatrix("x", a_matrix(2, 1, 2)),
        BasisMatrix("x_again", a_matrix(2, 1, 2)),
    ]
    with pytest.raises(DegenerateGram):
        assemble_algebra(basis, GramRule(coeff=0.5))


def test_coeffs_of_matrix_roundtrip_and_rejection():
    alg = su_algebra(3)
    coeffs = np.linspace(-1, 1, alg.dim)
    back = alg.coeffs_of_matrix(alg.matrix_of(coeffs))
    np.testing.assert_allclose(back, coeffs, atol=1e-12)
    sub = su_algebra(2)
    with pytest.raises(NotClosed):
        sub.coeffs_of_matrix(np.eye(2) * 1j - np.eye(2)[::-1] * 0)  # not traceless-span


def test_biinvariance_passes_on_quarter_trace_su5():
    rep = check_biinvariance(su_algebra(5, coeff=0.25))
    assert rep.passed and rep.max_residual < 1e-12


def test_biinvariance_exact_zero_for_abelian(abelian_space):
    rep = check_biinvariance(abelian_space.algebra)
    assert rep.max_residual == 0.0


def test_biinvariance_fails_for_scaled_b13_metric():
    # the s != 1 extension of the B13 metric: scale the m0 block by s = 2
    space = build_b13()
    s = 2.0
    gram = np.array(space.algebra.gram)
    m0 = list(space.m0_indices)
    gram[np.ix_(m0, m0)] *= s
    rep = check_biinvariance(dataclasses.replace(space.algebra, gram=gram))
    assert not rep.passed
    triples = {v[0] for v in rep.violations}
    assert ("e_4", "e_1", "u_2") in triples
    lookup = dict(rep.violations)
    assert abs(lookup[("e_4", "e_1", "u_2")] - (s - 1.0)) < 1e-12


def test_json_roundtrip():
    alg = build_space("w7:s=0.5").algebra
    doc = algebra_to_json(alg)
    back = algebra_from_doc(doc)
    np.testing.assert_allclose(back.structure, alg.structure, atol=1e-12)
    np.testing.assert_allclose(back.gram, alg.gram, atol=1e-12)
    assert back.labels == alg.labels


def test_basis_matrix_validation():
    with pytest.raises(ValueError):
        BasisMatrix("bad", np.eye(2))  # Hermitian, not skew
    with pytest.raises(ValueError):
        BasisMatrix("bad", 1j * np.eye(2))  # skew-Hermitian but traced


def test_gram_rule_block_scaling():
    # two blocks, second weighted: the weight shows up in the Gram diagonal
    from homogeodesy.matrices import block_embed

    basis = [
        BasisMatrix("a", block_embed((2, 2), 0, a_matrix(2, 1, 2))),
        BasisMatrix("b", block_embed((2, 2), 1, a_matrix(2, 1, 2))),
    ]
    alg = assemble_algebra(basis, GramRule(coeff=0.5, blocks=(2, 2), block_scales=(1.0, 3.0)))
    np.testing.assert_allclose(np.diag(alg.gram), [1.0, 3.0], atol=1e-14)
    assert abs(alg.gram[0, 1]) < 1e-14


def test_structure_constants_match_across_embeddings():
    # su(2) from 2x2 matrices vs its image under the (faithful) adjoint
    # representation: structure constants agree basis-element-for-element
    su2 = su_algebra(2)
    ad_images = [
        BasisMatrix(f"ad_{lbl}", su2.ad(su2.basis_element(lbl).coeffs))
        for lbl in su2.labels
    ]
    so3 = assemble_algebra(ad_images, GramRule(coeff=0.5), name="so(3)")
    np.testing.assert_allclose(so3.structure, su2.structure, atol=1e-10)


def test_kappa_scaling_scales_gram_only():
    g1 = build_space("berger:m=2,s=0.5,kappa=1")
    g2 = build_space("berger:m=2,s=0.5,kappa=2")
    np.testing.assert_allclose(g2.algebra.gram, g1.algebra.gram / 2.0, atol=1e-14)
    np.testing.assert_allclose(g2.algebra.structure, g1.algebra.structure, atol=1e-14)
