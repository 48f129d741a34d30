"""Unit tests for prototype filters, the bank operator and compensation."""

import numpy as np
import pytest

from afbm.filterbank import (
    PrototypeFilter,
    apply_filter_bank,
    apply_filter_bank_adjoint,
    compensation_vector,
    fold,
    output_length,
    prototype_filter,
)
from afbm.modem import WaveformParams, data_indices, spread
from afbm.transforms import ChirpPair, DaftDims
from oracles import (assemble_filter_matrix, daft_matrix,
                     filter_bank_adjoint_add_at, filter_bank_overlap_add,
                     filter_blocks, synthesis_matrix)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# prototype construction
# ---------------------------------------------------------------------------

def test_filter_lengths():
    assert prototype_filter("HERMITE", 1.5, 256).length == 384
    assert prototype_filter("PHYDYAS", 4, 256).length == 1024
    assert prototype_filter("RECT", 1, 8).length == 8


@pytest.mark.parametrize("kind,overlap", [("HERMITE", 1.5), ("PHYDYAS", 1),
                                          ("PHYDYAS", 2), ("PHYDYAS", 3),
                                          ("PHYDYAS", 4), ("RECT", 1)])
def test_filter_unit_energy(kind, overlap):
    filt = prototype_filter(kind, overlap, 64)
    assert abs(np.sum(filt.coeffs ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("kind,overlap", [("HERMITE", 1.5), ("PHYDYAS", 4)])
def test_filter_even_symmetry(kind, overlap):
    g = prototype_filter(kind, overlap, 128).coeffs
    assert np.abs(g - g[::-1]).max() < 1e-12


def test_filter_real_coefficients():
    for kind, overlap in (("HERMITE", 1.5), ("PHYDYAS", 4), ("RECT", 1)):
        g = prototype_filter(kind, overlap, 32).coeffs
        assert np.isrealobj(g)


def test_rect_is_flat():
    g = prototype_filter("RECT", 1, 16).coeffs
    assert np.allclose(g, g[0])


def test_invalid_prototypes_rejected():
    with pytest.raises(ValueError):
        prototype_filter("PHYDYAS", 1.5, 64)
    with pytest.raises(ValueError):
        prototype_filter("PHYDYAS", 5, 64)
    with pytest.raises(ValueError):
        prototype_filter("RECT", 2, 64)
    with pytest.raises(ValueError):
        prototype_filter("GAUSS", 1, 64)
    with pytest.raises(ValueError):
        prototype_filter("HERMITE", 1.3, 64)  # 2*overlap not an integer
    for kind, overlap in (("HERMITE", 4.5), ("HERMITE", 1e6), ("RECT", 1e30),
                          ("PHYDYAS", 1e30)):
        with pytest.raises(ValueError, match="overlap must be <= 4"):
            prototype_filter(kind, overlap, 256)   # before any allocation


def test_hermite_fold_is_flat():
    for N in (64, 128, 256):
        filt = prototype_filter("HERMITE", 1.5, N)
        power = fold(filt.coeffs ** 2, N)
        assert power.shape == (N,)
        # unit energy spread evenly across the N phases
        assert np.abs(power - 1.0 / N).max() < 1e-12


def test_phydyas_fold_has_ripple():
    filt = prototype_filter("PHYDYAS", 4, 256)
    power = fold(filt.coeffs ** 2, 256)
    assert np.ptp(power) / power.mean() > 0.01


def test_fold_matches_a_loop():
    # lengths below, at and above N, starts past N, real and complex
    # input, trailing batch axes; the loop adds in ascending j as fold does
    rng = np.random.default_rng(26)
    for N in (2, 4, 6, 16):
        for n in sorted({0, 1, N - 1, N, N + 1, 3 * N + 2}):
            for start in (0, 1, N - 1, N, 2 * N + 3):
                for batch in ((), (3,), (2, 3)):
                    v = crandn(rng, n, *batch)
                    for x in (v, v.real):
                        want = np.zeros((N,) + batch, x.dtype)
                        for j in range(n):
                            want[(start + j) % N] += x[j]
                        got = fold(x, N, start)
                        assert got.dtype == x.dtype
                        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# polyphase blocks and the assembled operator
# ---------------------------------------------------------------------------

def test_rect_blocks():
    filt = prototype_filter("RECT", 1, 4)
    blocks = filter_blocks(filt)
    assert len(blocks) == 2
    for b in blocks:
        assert np.allclose(b, 0.5 * np.eye(2))


def test_blocks_partition_coefficients():
    for kind, overlap, N in (("HERMITE", 1.5, 64), ("PHYDYAS", 4, 32)):
        filt = prototype_filter(kind, overlap, N)
        blocks = filter_blocks(filt)
        assert len(blocks) == int(2 * overlap)
        stitched = np.concatenate([np.diag(b) for b in blocks])
        assert np.allclose(stitched, filt.coeffs)


def test_output_length_formula():
    herm = prototype_filter("HERMITE", 1.5, 256)
    phyd = prototype_filter("PHYDYAS", 4, 256)
    assert output_length(herm, 1) == 384
    assert output_length(herm, 8) == 1280
    assert output_length(phyd, 8) == 1920
    for K in (1, 2, 5):
        assert output_length(herm, K) == 384 + 128 * (K - 1)


def test_assemble_filter_matrix_shape():
    filt = prototype_filter("HERMITE", 1.5, 16)
    G = assemble_filter_matrix(filt, 3)
    assert G.shape == (24 + 8 * 2, 3 * 16)
    with pytest.raises(ValueError):
        assemble_filter_matrix(filt, 0)


@pytest.mark.parametrize("kind,overlap,N,K", [("HERMITE", 1.5, 16, 1),
                                              ("HERMITE", 1.5, 16, 4),
                                              ("PHYDYAS", 4, 8, 3),
                                              ("PHYDYAS", 2, 32, 2),
                                              ("RECT", 1, 8, 5)])
def test_overlap_add_matches_dense(kind, overlap, N, K):
    filt = prototype_filter(kind, overlap, N)
    G = assemble_filter_matrix(filt, K)
    rng = np.random.default_rng(21)
    for _ in range(10):
        Y = crandn(rng, N, K)
        s = apply_filter_bank(Y, filt)
        assert np.abs(s - G @ Y.flatten(order="F")).max() < 1e-12
        r = crandn(rng, len(s))
        back = apply_filter_bank_adjoint(r, filt, K)
        assert np.abs(back.flatten(order="F") - G.T @ r).max() < 1e-12


def test_single_symbol_filter_matches_dense():
    # independent K = 1 inputs ride the trailing batch axis
    filt = prototype_filter("PHYDYAS", 3, 16)
    G1 = assemble_filter_matrix(filt, 1)
    rng = np.random.default_rng(22)
    Y = crandn(rng, 16, 5)
    out = apply_filter_bank(Y[:, None, :], filt)
    assert np.abs(out - G1 @ Y).max() < 1e-13
    R = crandn(rng, filt.length, 5)
    back = apply_filter_bank_adjoint(R, filt, 1)[:, 0]
    assert np.abs(back - G1.T @ R).max() < 1e-13


FILTER_BANK_CASES = [("HERMITE", 1.5, 16, 1, (2, 3)),
                   ("HERMITE", 1.5, 30, 1, ()),
                   ("PHYDYAS", 4, 16, 1, (16,)),
                   ("RECT", 1, 8, 1, (2, 3)),
                   ("HERMITE", 1.5, 16, 3, (2, 3)),
                   ("HERMITE", 1.5, 16, 8, (16,)),
                   ("PHYDYAS", 4, 8, 1, (2, 3)),
                   ("PHYDYAS", 4, 8, 3, (2, 3)),
                   ("PHYDYAS", 2, 8, 8, (2, 3)),
                   ("PHYDYAS", 4, 8, 8, (2, 3)),
                   ("RECT", 1, 8, 4, (2, 3))]


@pytest.mark.parametrize("kind,overlap,N,K,batch", FILTER_BANK_CASES,
                         ids=["-".join(map(str, c[:4]))
                              for c in FILTER_BANK_CASES])
def test_batched_filter_bank_is_bit_identical_to_zeroed_overlap_add(
        kind, overlap, N, K, batch):
    filt = prototype_filter(kind, overlap, N)
    rng = np.random.default_rng(25)
    Y = crandn(rng, N, K, *batch)
    s = apply_filter_bank(Y, filt)
    assert s.shape == (output_length(filt, K),) + batch
    assert np.array_equal(apply_filter_bank(np.asfortranarray(Y), filt), s)
    for b in np.ndindex(batch):
        col = (slice(None),) + b
        assert np.array_equal(s[col], filter_bank_overlap_add(
            Y[(slice(None), slice(None)) + b], filt))
        assert np.array_equal(s[col], apply_filter_bank(
            np.ascontiguousarray(Y[(slice(None), slice(None)) + b]), filt))


@pytest.mark.parametrize("kind,overlap,N,K", [("HERMITE", 1.5, 16, 1),
                                              ("HERMITE", 1.5, 16, 3),
                                              ("PHYDYAS", 4, 8, 1),
                                              ("PHYDYAS", 4, 8, 3),
                                              ("PHYDYAS", 3, 16, 3)])
def test_batched_filter_bank_adjoint_is_bit_identical(kind, overlap, N, K):
    filt = prototype_filter(kind, overlap, N)
    rng = np.random.default_rng(24)
    R = crandn(rng, output_length(filt, K), 2, 3)
    Z = apply_filter_bank_adjoint(R, filt, K)
    assert Z.shape == (N, K, 2, 3)
    assert np.array_equal(apply_filter_bank_adjoint(np.asfortranarray(R),
                                                    filt, K), Z)
    for j in range(2):
        for c in range(3):
            col = R[:, j, c]
            assert np.array_equal(Z[:, :, j, c],
                                  apply_filter_bank_adjoint(col, filt, K))
            assert np.array_equal(Z[:, :, j, c],
                                  filter_bank_adjoint_add_at(col, filt, K))


def test_filter_bank_adjoint_inner_product():
    filt = prototype_filter("HERMITE", 1.5, 32)
    rng = np.random.default_rng(23)
    Y = crandn(rng, 32, 3)
    r = crandn(rng, output_length(filt, 3))
    lhs = np.vdot(r, apply_filter_bank(Y, filt))
    rhs = np.vdot(apply_filter_bank_adjoint(r, filt, 3), Y)
    assert abs(lhs - rhs) < 1e-12
    # every prototype, K = 1-4, seeded N and a trailing batch axis
    for kind, overlap in [("HERMITE", 1.5), ("PHYDYAS", 1), ("PHYDYAS", 2),
                          ("PHYDYAS", 3), ("PHYDYAS", 4), ("RECT", 1)]:
        for K in range(1, 5):
            N = int(rng.choice([8, 16, 32, 64]))
            filt = prototype_filter(kind, overlap, N)
            Y = crandn(rng, N, K, 3)
            r = crandn(rng, output_length(filt, K), 3)
            lhs = np.vdot(r, apply_filter_bank(Y, filt))
            rhs = np.vdot(apply_filter_bank_adjoint(r, filt, K), Y)
            tol = 1e-12 * np.linalg.norm(r) * np.linalg.norm(Y)
            assert abs(lhs - rhs) < tol


def test_filter_bank_shape_errors():
    filt = prototype_filter("RECT", 1, 8)
    with pytest.raises(ValueError):
        apply_filter_bank(np.zeros((7, 2), dtype=complex), filt)
    with pytest.raises(ValueError):
        apply_filter_bank_adjoint(np.zeros(9, dtype=complex), filt, 1)


# ---------------------------------------------------------------------------
# chain gains and compensation
# ---------------------------------------------------------------------------

def test_data_indices_layout():
    assert np.array_equal(data_indices(8), [0, 1, 6, 7])
    idx = data_indices(128)
    assert len(idx) == 64
    assert np.array_equal(idx[:32], np.arange(32))
    assert np.array_equal(idx[32:], np.arange(96, 128))


def _data_columns(dims, chirps, filt):
    """The one-symbol data columns of a chain."""
    return WaveformParams(dims=dims, K=1, chirps=chirps,
                          filter=filt).data_columns()


def _dense_chain_gains(dims, chirps, filt):
    """Diagonal of the dense single-symbol chain Gram ``BᴴB``."""
    B = (assemble_filter_matrix(filt, 1)
         @ synthesis_matrix(dims, chirps)
         @ daft_matrix(chirps, dims.L))
    return np.real(np.diag(B.conj().T @ B))


def test_chain_gains_match_bruteforce():
    dims = DaftDims(16, 24, 32)
    chirps = ChirpPair(0.017, 0.003)
    filt = prototype_filter("PHYDYAS", 2, 32)
    b = compensation_vector(_data_columns(dims, chirps, filt), filt)
    gains = _dense_chain_gains(dims, chirps, filt)[data_indices(16)]
    assert np.abs(1 / b ** 2 - gains).max() < 1e-12
    assert np.all(b > 0)


def test_compensation_vector_structure(ref_dims, ref_chirps, hermite256):
    # one gain per data position, none for the guard half
    b = compensation_vector(_data_columns(ref_dims, ref_chirps, hermite256),
                            hermite256)
    assert b.shape == (64,)
    assert np.all(b > 0)
    gains = _dense_chain_gains(ref_dims, ref_chirps, hermite256)
    assert np.abs(1 / b ** 2 - gains[data_indices(128)]).max() < 1e-12


def test_compensation_rect_uniform():
    dims = DaftDims(8, 8, 8)
    chirps = ChirpPair(0.0, 0.0)
    filt = prototype_filter("RECT", 1, 8)
    b = compensation_vector(_data_columns(dims, chirps, filt), filt)
    assert np.abs(b - b[0]).max() < 1e-12


def test_compensation_singular_chain_raises():
    dead = PrototypeFilter(kind="HERMITE", overlap=1.0, N=8,
                           coeffs=np.zeros(8))
    dims = DaftDims(8, 8, 8)
    chirps = ChirpPair(0.0, 0.0)
    with pytest.raises(ArithmeticError):
        compensation_vector(_data_columns(dims, chirps, dead), dead)


def test_gram_diagonal_equals_gains_through_fast_path():
    # the fast per-column chain reproduces the dense diagonal
    dims = DaftDims(16, 24, 32)
    chirps = ChirpPair(0.01, 0.0)
    filt = prototype_filter("HERMITE", 1.5, 32)
    params = WaveformParams(dims=dims, K=1, chirps=chirps, filter=filt)
    W = daft_matrix(chirps, dims.L)
    cols = spread(W[:, None, :], params)
    diag = np.sum(np.abs(cols) ** 2, axis=0)
    b = compensation_vector(params.data_columns(), filt)
    assert np.abs(diag[data_indices(16)] - 1 / b ** 2).max() < 1e-12
