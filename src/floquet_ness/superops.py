"""Site-local operator algebra and Choi-vectorized superoperators.

Conventions used throughout the package:

* vectorization is row-major, ``vec(|i><j|) = e_i (x) e_j``, so the component
  ``i*d + j`` of ``vec(rho)`` equals ``rho[i, j]``;
* consequently ``vec(A rho B) = (A (x) B^T) vec(rho)``;
* the dual (costate) vector pairing ``<<A|rho>> = vec(A)^dag vec(rho)``
  evaluates ``Tr(A^dag rho)``.

Chain quantities come in two equivalent index layouts. A window matrix is
vectorized row-major over the window (`vectorize_choi`). Chain-long vectors
as used by the MPS modules are *site-major*: the global index interleaves as
``(a_1 b_1)(a_2 b_2)...``, one Choi pair per site, so that a product operator
vectorizes into a product state. ``choi_site_vector`` / ``choi_site_matrix``
convert between a chain matrix and the site-major layout, and
``window_super_site_layout`` rewrites a window superoperator into it.

Spin-1/2 basis: index 0 is "up" (Z eigenvalue +1), index 1 is "down".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI",
    "LocalOperator",
    "vectorize_choi",
    "devectorize_choi",
    "left_mult_super",
    "right_mult_super",
    "dissipator_super",
    "identity_costate",
    "choi_site_vector",
    "choi_site_matrix",
    "window_super_site_layout",
    "embed_local",
    "sum_local_terms",
    "pauli_string",
    "pauli_decompose",
]

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class LocalOperator:
    """Operator on a contiguous window of sites, stored as a dense matrix.

    `start` is the 0-based index of the leftmost site; the window width is
    inferred from the matrix extent.
    """

    start: int
    matrix: np.ndarray
    site_dim: int = 2

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("local operator matrix must be square")
        w = int(round(np.log(m.shape[0]) / np.log(self.site_dim)))
        if self.site_dim**w != m.shape[0]:
            raise ValueError(
                f"matrix extent {m.shape[0]} is not a power of site_dim={self.site_dim}"
            )
        object.__setattr__(self, "_width", w)

    @property
    def width(self):
        return self._width

    @property
    def stop(self):
        """One past the last site of the window."""
        return self.start + self.width

    @property
    def support(self):
        return (self.start, self.stop - 1)

    def scaled(self, alpha):
        return LocalOperator(self.start, alpha * self.matrix, self.site_dim)

    def on_window(self, start, stop):
        """Embed into the enclosing window ``[start, stop)`` with identities."""
        if start > self.start or stop < self.stop:
            raise ValueError("target window does not contain the operator support")
        left = np.eye(self.site_dim ** (self.start - start), dtype=complex)
        right = np.eye(self.site_dim ** (stop - self.stop), dtype=complex)
        return LocalOperator(start, np.kron(np.kron(left, self.matrix), right), self.site_dim)


def commutator_local(a: LocalOperator, b: LocalOperator):
    """``[a, b]`` as a LocalOperator on the union window; None if disjoint."""
    if a.stop <= b.start or b.stop <= a.start:
        return None  # disjoint supports commute
    start = min(a.start, b.start)
    stop = max(a.stop, b.stop)
    am = a.on_window(start, stop).matrix
    bm = b.on_window(start, stop).matrix
    return LocalOperator(start, am @ bm - bm @ am, a.site_dim)


def vectorize_choi(rho):
    """Row-major vectorization of a square matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("vectorize_choi expects a square matrix")
    return rho.reshape(-1)


def devectorize_choi(vec):
    """Inverse of :func:`vectorize_choi`."""
    vec = np.asarray(vec, dtype=complex)
    d = int(round(np.sqrt(vec.size)))
    if d * d != vec.size:
        raise ValueError("vector length is not a perfect square")
    return vec.reshape(d, d)


def _kron(a, b):
    """``np.kron`` of two square matrices as one broadcast product.

    It forms the same elementwise products ``a[i, j] * b[k, l]`` that
    ``np.kron`` does, so the result is bit for bit the same, without its
    generic shape handling (MPO assembly makes dozens of such calls).
    """
    m, n = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * n, m * n)


def left_mult_super(a):
    """Matrix of ``rho -> A rho`` in the vectorized convention."""
    a = np.asarray(a, dtype=complex)
    return _kron(a, np.eye(a.shape[0], dtype=complex))


def right_mult_super(b):
    """Matrix of ``rho -> rho B``."""
    b = np.asarray(b, dtype=complex)
    return _kron(np.eye(b.shape[0], dtype=complex), b.T)


def dissipator_super(l1, l2=None):
    """Vectorized ``rho -> sum_k L1_k rho L2_k^dag - {L2_k^dag L1_k, rho}/2``.

    `l1` and `l2` are one ``(n, n)`` pair or two ``(k, n, n)`` stacks of
    pairs, whose dissipators come back summed as one ``(n^2, n^2)`` matrix:
    ``sum_k A_k (x) conj(B_k) - 1/2 S (x) I - 1/2 I (x) S^T`` with
    ``S = sum_k B_k^dag A_k`` (``A = L1``, ``B = L2``), so the anticommutator
    parts cost two Kronecker products for the whole stack. A 2-D pair is
    the stack of one and keeps ``np.kron``'s exact bits. With a single
    argument this is the usual Lindblad dissipator of ``L1``; the pairs carry
    the cross terms that appear when jump operators carry several Fourier
    components.
    """
    l1 = np.asarray(l1, dtype=complex)
    l2 = l1 if l2 is None else np.asarray(l2, dtype=complex)
    if l1.shape != l2.shape:
        raise ValueError("jump operator pair must share a common shape")
    if l1.ndim not in (2, 3) or l1.shape[-1] != l1.shape[-2]:
        raise ValueError("jump operators must be square matrices or a stack of them")
    d = l1.shape[-1]
    a, b = l1.reshape(-1, d, d), l2.reshape(-1, d, d)
    eye = np.eye(d, dtype=complex)
    anti = b.reshape(-1, d).conj().T @ a.reshape(-1, d)  # S in one product over the stacked rows
    jumps = (a[:, :, None, :, None] * b.conj()[:, None, :, None, :]).sum(axis=0)
    return jumps.reshape(d * d, d * d) - 0.5 * _kron(anti, eye) - 0.5 * _kron(eye, anti.T)


def identity_costate(length, site_dim=2):
    """Vectorized identity on `length` sites in the site-major layout.

    Pairing with a site-major chain vector evaluates the trace. Unnormalized
    by design; divide by ``site_dim**length`` where the maximally mixed
    *state* is wanted instead of the trace functional.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    site = vectorize_choi(np.eye(site_dim, dtype=complex))
    out = np.array([1.0 + 0.0j])
    for _ in range(length):
        out = np.kron(out, site)
    return out


def choi_site_vector(matrix, length, site_dim=2):
    """Site-major Choi vector of a chain operator (matches MPS physical legs)."""
    d = site_dim
    t = np.asarray(matrix, dtype=complex).reshape((d,) * (2 * length))
    perm = [x for i in range(length) for x in (i, length + i)]
    return t.transpose(perm).reshape(-1)


def choi_site_matrix(vec, length, site_dim=2):
    """Inverse of :func:`choi_site_vector`."""
    d = site_dim
    t = np.asarray(vec, dtype=complex).reshape((d, d) * length)
    perm = [2 * i for i in range(length)] + [2 * i + 1 for i in range(length)]
    return t.transpose(perm).reshape(d**length, d**length)


def window_super_site_layout(matrix, site_dim=2):
    """Rewrite a window superoperator into the site-major index layout.

    Input rows/columns are vec-of-window indices ``(a_1..a_w b_1..b_w)``;
    output rows/columns interleave per site as ``(a_1 b_1)...(a_w b_w)``.
    """
    d = site_dim
    matrix = np.asarray(matrix, dtype=complex)
    d2 = d * d
    w = int(round(np.log(matrix.shape[0]) / np.log(d2)))
    if d2**w != matrix.shape[0]:
        raise ValueError("superoperator extent must be a power of site_dim**2")
    t = matrix.reshape((d,) * (2 * w) + (d,) * (2 * w))
    perm_half = [x for i in range(w) for x in (i, w + i)]
    perm = perm_half + [2 * w + x for x in perm_half]
    return t.transpose(perm).reshape(matrix.shape)


def embed_local(op: LocalOperator, chain_length: int):
    """Embed a local operator into the full chain (dense; small chains only)."""
    return op.on_window(0, chain_length).matrix


def sum_local_terms(terms, chain_length, site_dim=2):
    """Dense sum of local terms over the full chain."""
    dim = site_dim**chain_length
    total = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        total += embed_local(t, chain_length)
    return total


def pauli_string(spec: str):
    """Dense operator for a Pauli string such as ``"ZZ"`` or ``"XIY"``."""
    out = np.array([[1.0 + 0j]])
    for ch in spec:
        out = np.kron(out, PAULI[ch])
    return out


def pauli_decompose(matrix, tol=1e-12):
    """Decompose a multi-qubit matrix into Pauli strings.

    Returns a dict ``{string: coefficient}`` keeping only coefficients with
    magnitude above `tol`. Coefficients are with respect to the unnormalized
    string basis, ``matrix = sum_s c_s * pauli_string(s)``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = int(round(np.log2(matrix.shape[0])))
    if 2**n != matrix.shape[0]:
        raise ValueError("pauli_decompose expects a 2**n dimensional matrix")
    letters = "IXYZ"
    out = {}
    for idx in np.ndindex(*(4,) * n):
        s = "".join(letters[i] for i in idx)
        basis = pauli_string(s)
        coeff = np.trace(basis.conj().T @ matrix) / matrix.shape[0]
        if abs(coeff) > tol:
            out[s] = complex(coeff)
    return out
