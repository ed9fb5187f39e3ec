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

Each window decision has one owner: :class:`LocalOperator` is the one
windowed-matrix type (a site-major window superoperator is one on sites of
dimension ``d**2``) and alone infers a window's width; :func:`window_sums`
alone sums the terms of a window; ``_interleaved`` is the one site-major
interleave, behind the Choi layouts, ``window_super_site_layout`` and MPO
assembly's window split.

Two rules hold package-wide. The data owns its dimensions: what is handed
arrays or terms reads ``d`` from their sizes (``_site_dim``) or ``site_dim``;
only builders from nothing, such as :func:`identity_costate`, take it (and
:func:`window_super_site_layout`, whose extent cannot separate ``d`` from
the width). Each dense-size guard is a module constant, which tests
monkeypatch.

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
    "window_sums",
    "sum_local_terms",
    "fourier_sum",
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
    inferred from the matrix extent, here and nowhere else. A window
    superoperator in the site-major layout is a LocalOperator whose
    `site_dim` is ``d**2``.
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


def _interleaved(length):
    """Axis order ``(a_1 b_1)(a_2 b_2)...`` of the axes ``(a_1..a_n b_1..b_n)``."""
    return [x for i in range(length) for x in (i, length + i)]


def _site_dim(extent, sites):
    """The site dimension ``d`` of `sites` sites of joint extent ``d**sites``."""
    d = int(round(extent ** (1.0 / sites)))
    if d**sites != extent:
        raise ValueError(f"extent {extent} is not the power {sites} of a site dimension")
    return d


def choi_site_vector(matrix, length):
    """Site-major Choi vector of a chain operator (matches MPS physical legs)."""
    matrix = np.asarray(matrix, dtype=complex)
    d = _site_dim(matrix.shape[0], length)
    t = matrix.reshape((d,) * (2 * length))
    return t.transpose(_interleaved(length)).reshape(-1)


def choi_site_matrix(vec, length):
    """Inverse of :func:`choi_site_vector`."""
    vec = np.asarray(vec, dtype=complex)
    d = _site_dim(vec.size, 2 * length)
    t = vec.reshape((d, d) * length)
    return t.transpose(np.argsort(_interleaved(length))).reshape(d**length, d**length)


def window_super_site_layout(start, matrix, site_dim=2):
    """A window superoperator as a LocalOperator in the site-major layout.

    Input rows/columns are vec-of-window indices ``(a_1..a_w b_1..b_w)``;
    output rows/columns interleave per site as ``(a_1 b_1)...(a_w b_w)``,
    both halves by the interleave of :func:`choi_site_vector`. The result
    lives on sites of dimension ``site_dim**2`` from `start`.
    """
    op = LocalOperator(start, matrix, site_dim**2)  # one extent in both layouts, so one width
    half = _interleaved(op.width)
    t = op.matrix.reshape((site_dim,) * (4 * op.width))
    t = t.transpose(half + [2 * op.width + x for x in half]).reshape(op.matrix.shape)
    return LocalOperator(start, t, op.site_dim)


def window_sums(terms):
    """``{(start, width): matrix}``, each window's terms added left to right
    in input order; windows keep their first-seen order."""
    out = {}
    for t in terms:
        key = (t.start, t.width)
        out[key] = t.matrix if key not in out else out[key] + t.matrix
    return out


def sum_local_terms(terms, chain_length):
    """Dense sum of local terms over the full chain, on the terms' sites."""
    terms = list(terms)
    (site_dim,) = {t.site_dim for t in terms}  # raises for no terms or mixed sites
    dim = site_dim**chain_length
    total = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        total += t.on_window(0, chain_length).matrix
    return total


def fourier_sum(components, nu, t):
    """``sum_k O^k exp(i k nu t)`` over ``components = {k: O^k}``, added in
    their order: matrices at one time `t`, or scalars on an array of times.
    Every resummation of a harmonic expansion in the package is this one;
    with no components the sum is 0."""
    out = 0.0
    for k, comp in components.items():
        out += np.exp(1j * k * nu * t) * comp
    return out


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
