"""Assembly of the harmonic-resolved Lindblad generator from a model.

A model is a chain length, a drive frequency, Hamiltonian Fourier components
(lists of windowed local terms) and jump-operator Fourier components (one
fixed window per dissipation channel). The transfer-``q`` Fourier component
of the generator acting on vectorized density matrices is

    K^q[s] = -i [H^q, s]
             + sum_alpha sum_j ( L^(j+q) s L^(j)dag
                                 - 1/2 {L^(j)dag L^(j+q), s} ),

summed over every harmonic ``j`` for which both factors exist. The full
frequency-space operator is ``sum_q K^q`` shifted block-to-block plus the
``-i n Omega`` ramp handled by :class:`~floquet_ness.freqspace.FloquetMPO`.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .freqspace import FloquetMPO
from .mps import Mpo
from .superops import (
    dissipator_super,
    identity_costate,
    left_mult_super,
    right_mult_super,
    window_super_site_layout,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ModelSpec",
    "fourier_superoperator_terms",
    "build_extended_lindbladian",
    "dense_fourier_superoperator",
    "sparse_fourier_superoperator",
    "dense_extended_lindbladian",
    "extended_null_vector",
    "DEFAULT_DENSE_LIMIT",
]

DEFAULT_DENSE_LIMIT = 2**20


@dataclass
class ModelSpec:
    """Chain model: Hamiltonian and jump-operator Fourier components.

    `hamiltonian_fourier` maps the harmonic ``k`` to a list of local terms of
    ``H^k``; Hermiticity of ``H(t)`` requires ``H^-k = (H^k)^dag`` termwise,
    which :meth:`validate` checks. `jump_fourier` maps a channel label to the
    harmonic map of one jump operator; all harmonics of a channel must share
    a single support window.
    """

    chain_length: int
    omega: float
    hamiltonian_fourier: dict = field(default_factory=dict)
    jump_fourier: dict = field(default_factory=dict)
    site_dim: int = 2

    def validate(self, tol=1e-10):
        def windows(terms):
            agg = {}
            for t in terms:
                key = (t.start, t.width)
                agg[key] = t.matrix if key not in agg else agg[key] + t.matrix
            return agg

        for k, terms in self.hamiltonian_fourier.items():
            for t in terms:
                if t.start < 0 or t.stop > self.chain_length:
                    raise ValueError(f"H^{k} term leaves the chain: {t.support}")
            mine = windows(terms)
            partners = windows(self.hamiltonian_fourier.get(-k, []))
            for key, mat in mine.items():
                partner = partners.get(key)
                if partner is None:
                    raise ValueError(f"H^{k} term at {key} has no H^{-k} partner")
                if np.max(np.abs(partner - mat.conj().T)) > tol:
                    raise ValueError(f"H^{-k} at {key} is not the adjoint of H^{k}")
        for alpha, comps in self.jump_fourier.items():
            windows = {(op.start, op.width) for op in comps.values()}
            if len(windows) > 1:
                raise ValueError(f"jump channel {alpha!r} mixes windows {windows}")
            for op in comps.values():
                if op.start < 0 or op.stop > self.chain_length:
                    raise ValueError(f"jump channel {alpha!r} leaves the chain")
        return self

    @property
    def max_hamiltonian_harmonic(self):
        return max((abs(k) for k, v in self.hamiltonian_fourier.items() if v), default=0)

    @property
    def max_jump_harmonic(self):
        out = 0
        for comps in self.jump_fourier.values():
            out = max(out, max((abs(k) for k in comps), default=0))
        return out

    @property
    def max_transfer(self):
        """Largest harmonic transfer the generator can produce."""
        return max(self.max_hamiltonian_harmonic, 2 * self.max_jump_harmonic)

    def transfers(self, n_c=None):
        """Sorted transfer harmonics with nonzero content, optionally clipped."""
        qs = set()
        for k, terms in self.hamiltonian_fourier.items():
            if terms:
                qs.add(k)
        for comps in self.jump_fourier.values():
            ks = sorted(comps)
            for a in ks:
                for b in ks:
                    qs.add(a - b)
        qs.add(0)
        if n_c is not None:
            qs = {q for q in qs if abs(q) <= 2 * n_c}
        return sorted(qs)


def fourier_superoperator_terms(model: ModelSpec, q: int):
    """The transfer-``q`` component as ``(start, matrix)`` pairs, one per
    window ``(start, width)``, sorted by window.

    The Hamiltonian terms ``H^q`` of a window are summed as operators before
    their commutator superoperator is formed, and every jump pair
    ``(L^(j+q), L^(j))`` on the window, over all channels and harmonics,
    goes into one stacked :func:`~floquet_ness.superops.dissipator_super`
    call; both steps are linear, so the window's matrix is the sum of its
    terms' superoperators. Matrices come back in the site-major layout,
    ready for MPO assembly and for site-major dense embedding.
    """
    hams, pairs = {}, {}
    for t in model.hamiltonian_fourier.get(q, []):
        key = (t.start, t.width)
        hams[key] = t.matrix if key not in hams else hams[key] + t.matrix
    for comps in model.jump_fourier.values():
        for j, op_j in comps.items():
            op_jq = comps.get(j + q)
            if op_jq is not None:
                pairs.setdefault((op_j.start, op_j.width), []).append((op_jq.matrix, op_j.matrix))
    terms = []
    for key in sorted(hams.keys() | pairs.keys()):
        sup = 0.0
        if key in hams:
            sup = -1j * (left_mult_super(hams[key]) - right_mult_super(hams[key]))
        if key in pairs:
            jumps, partners = zip(*pairs[key])
            sup = sup + dissipator_super(np.stack(jumps), np.stack(partners))
        terms.append((key[0], window_super_site_layout(sup, model.site_dim)))
    return terms


def build_extended_lindbladian(model: ModelSpec, n_c: int) -> FloquetMPO:
    """Harmonic-resolved MPO of the generator for states cut off at ``n_c``.

    Components with ``|q| > 2 n_c`` cannot connect any retained blocks and
    are dropped; if the model carries harmonics beyond ``n_c`` a warning is
    emitted since part of the drive then acts only through folded paths.
    Each component is compressed as :meth:`Mpo.from_local_terms` assembles it.
    """
    model.validate()
    if model.max_transfer > 2 * n_c or model.max_hamiltonian_harmonic > n_c:
        warnings.warn(
            f"model harmonics (H up to {model.max_hamiltonian_harmonic}, transfers up to "
            f"{model.max_transfer}) exceed the frequency cutoff n_c={n_c}; "
            "out-of-range components are dropped",
            stacklevel=2,
        )
    p = model.site_dim**2
    components = {}
    for q in model.transfers(n_c):
        terms = fourier_superoperator_terms(model, q)
        if not terms and q != 0:
            continue
        components[q] = Mpo.from_local_terms(model.chain_length, p, terms)
    out = FloquetMPO(
        components,
        model.omega,
        n_c,
        model.chain_length,
        model.site_dim,
        diag_sign=-1.0,
    )
    logger.info(
        "extended generator: %d transfer components, operator bond <= %d",
        len(components),
        out.max_bond,
    )
    return out


def _embed_super(start, matrix, chain_length, site_dim, sparse=False):
    d2 = site_dim**2
    width = int(round(np.log(matrix.shape[0]) / np.log(d2)))
    if sparse:
        left = sp.identity(d2**start, dtype=complex, format="csr")
        right = sp.identity(d2 ** (chain_length - start - width), dtype=complex, format="csr")
        return sp.kron(sp.kron(left, sp.csr_matrix(matrix)), right, format="csr")
    left = np.eye(d2**start, dtype=complex)
    right = np.eye(d2 ** (chain_length - start - width), dtype=complex)
    return np.kron(np.kron(left, matrix), right)


def dense_fourier_superoperator(model: ModelSpec, q: int):
    """Dense matrix of the transfer-``q`` component on the full chain."""
    dim = model.site_dim ** (2 * model.chain_length)
    out = np.zeros((dim, dim), dtype=complex)
    for start, matrix in fourier_superoperator_terms(model, q):
        out += _embed_super(start, matrix, model.chain_length, model.site_dim)
    return out


def sparse_fourier_superoperator(model: ModelSpec, q: int):
    dim = model.site_dim ** (2 * model.chain_length)
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for start, matrix in fourier_superoperator_terms(model, q):
        out = out + _embed_super(start, matrix, model.chain_length, model.site_dim, sparse=True)
    return out


def dense_extended_lindbladian(
    model: ModelSpec, n_c: int, dense_limit: int = DEFAULT_DENSE_LIMIT
):
    """Exact dense matrix of the frequency-space generator.

    Block-major layout: row/column index is ``(n + n_c) * d**(2L) + choi``.
    """
    model.validate()
    d2l = model.site_dim ** (2 * model.chain_length)
    total = (2 * n_c + 1) * d2l
    if total > dense_limit:
        raise ValueError(f"extended dimension {total} exceeds dense limit {dense_limit}")
    blocks = {q: dense_fourier_superoperator(model, q) for q in model.transfers(n_c)}
    out = np.zeros((total, total), dtype=complex)
    eye = np.eye(d2l, dtype=complex)
    for n in range(-n_c, n_c + 1):
        for m in range(-n_c, n_c + 1):
            q = n - m
            blk = blocks.get(q)
            row = (n + n_c) * d2l
            col = (m + n_c) * d2l
            if blk is not None:
                out[row : row + d2l, col : col + d2l] += blk
            if n == m:
                out[row : row + d2l, col : col + d2l] += -1j * n * model.omega * eye
    return out


def extended_null_vector(
    model: ModelSpec,
    n_c: int,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    method: str = "auto",
):
    """Trace-normalized steady solution of the frequency-space generator.

    Solves ``L x = 0`` with ``Tr x^0 = 1`` by adding a rank-one trace tether
    inside the static block, which removes the kernel without moving the
    solution, and returns the harmonic blocks as dense matrices ``{n: rho^n}``.
    `method` 'dense' materializes the full matrix; 'sparse' assembles the
    block structure sparsely and LU-factorizes it (preferred for L >= 4).
    """
    model.validate()
    d = model.site_dim
    dl = d**model.chain_length
    d2l = dl * dl
    total = (2 * n_c + 1) * d2l
    if total > dense_limit:
        raise ValueError(f"extended dimension {total} exceeds dense limit {dense_limit}")
    if method == "auto":
        method = "dense" if total <= 4096 else "sparse"
    costate = identity_costate(model.chain_length, d)
    unit = costate / dl  # vec of the maximally mixed state, trace 1
    rhs = np.zeros(total, dtype=complex)
    zero_row = n_c * d2l
    rhs[zero_row : zero_row + d2l] = unit
    if method == "dense":
        mat = dense_extended_lindbladian(model, n_c, dense_limit)
        mat[zero_row : zero_row + d2l, zero_row : zero_row + d2l] += np.outer(unit, costate)
        x = np.linalg.solve(mat, rhs)
    else:
        blocks = {q: sparse_fourier_superoperator(model, q) for q in model.transfers(n_c)}
        tether = sp.csr_matrix(np.outer(unit, costate))
        rows = []
        for n in range(-n_c, n_c + 1):
            row = []
            for m in range(-n_c, n_c + 1):
                q = n - m
                blk = blocks.get(q)
                entry = blk.copy() if blk is not None else None
                if n == m:
                    ramp = sp.identity(d2l, dtype=complex, format="csr") * (-1j * n * model.omega)
                    entry = ramp if entry is None else entry + ramp
                    if n == 0:
                        entry = entry + tether
                row.append(entry)
            rows.append(row)
        mat = sp.bmat(rows, format="csc")
        lu = spla.splu(mat)
        x = lu.solve(rhs)
    from .superops import choi_site_matrix

    out = {}
    for n in range(-n_c, n_c + 1):
        seg = x[(n + n_c) * d2l : (n + n_c + 1) * d2l]
        out[n] = choi_site_matrix(seg, model.chain_length, d)
    return out
