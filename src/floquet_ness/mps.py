"""Finite matrix product states and operators over a fixed physical dimension.

The MPS here represent *vectorized operators* (physical dimension d**2 per
site, Choi layout from :mod:`.superops`), but nothing in this module assumes
that. Tensor index order is ``(phys, left, right)``; boundary bonds have
extent 1. MPO tensors are ordered ``(wl, out, in, wr)`` with boundary vectors
already absorbed, so end bonds also have extent 1.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .superops import _site_dim, choi_site_vector, window_sums
from .tensors import TruncationSpec, truncated_svd

__all__ = ["Mps", "Mpo", "CompressionInfo", "product_sum_norm"]

MPO_COMPRESS_CUTOFF = 1e-13  # relative singular-value cutoff of every assembled MPO


class CompressionInfo:
    """Per-bond Schmidt spectra and discarded weights from a compression."""

    __slots__ = ("spectra", "discarded_weights")

    def __init__(self, spectra, discarded_weights):
        self.spectra = spectra
        self.discarded_weights = discarded_weights

    @property
    def total_discarded(self):
        return float(sum(self.discarded_weights))


class Mps:
    """Finite MPS with open boundaries; tensors indexed ``(phys, left, right)``."""

    __slots__ = ("tensors",)

    def __init__(self, tensors):
        tensors = [np.asarray(t, dtype=complex) for t in tensors]
        if not tensors:
            raise ValueError("an MPS needs at least one site")
        if tensors[0].shape[1] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have extent 1")
        for i in range(len(tensors) - 1):
            if tensors[i].shape[2] != tensors[i + 1].shape[1]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
        self.tensors = tensors

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_product(cls, vectors):
        return cls([np.asarray(v, dtype=complex).reshape(-1, 1, 1) for v in vectors])

    @classmethod
    def zeros(cls, length, phys_dim):
        return cls([np.zeros((phys_dim, 1, 1), dtype=complex) for _ in range(length)])

    @classmethod
    def random(cls, length, phys_dim, chi, rng, norm=1.0):
        """Random MPS with bond dimension <= chi, rescaled to the given norm."""
        tensors = []
        for i in range(length):
            dl = min(chi, phys_dim**i, phys_dim ** (length - i))
            dr = min(chi, phys_dim ** (i + 1), phys_dim ** (length - i - 1))
            t = rng.standard_normal((phys_dim, dl, dr)) + 1j * rng.standard_normal(
                (phys_dim, dl, dr)
            )
            tensors.append(t)
        out = cls(tensors)
        n = out.norm()
        if n > 0 and norm is not None:
            out = out.scaled(norm / n)
        return out

    @classmethod
    def from_dense(cls, vec, length, spec=None):
        """Exact (or truncated) MPS factorization of a dense vector of
        `length` sites, whose size fixes the physical dimension."""
        vec = np.asarray(vec, dtype=complex)
        phys_dim = _site_dim(vec.size, length)
        tensors = []
        rest = vec.reshape(1, -1)
        for _ in range(length - 1):
            l = rest.shape[0]
            mat = rest.reshape(l * phys_dim, -1)
            u, s, vh, _ = truncated_svd(mat, spec)
            tensors.append(u.reshape(l, phys_dim, -1).transpose(1, 0, 2))
            rest = s[:, None] * vh
        tensors.append(rest.reshape(-1, phys_dim, 1).transpose(1, 0, 2))
        return cls(tensors)

    # -- basic structure ---------------------------------------------------

    def __len__(self):
        return len(self.tensors)

    @property
    def phys_dim(self):
        return self.tensors[0].shape[0]

    @property
    def bond_dims(self):
        return [t.shape[2] for t in self.tensors[:-1]]

    def scaled(self, alpha):
        out = [t.copy() for t in self.tensors]
        out[0] = alpha * out[0]
        return Mps(out)

    # -- linear algebra ----------------------------------------------------

    def inner(self, other):
        """``<self|other>`` with complex conjugation on `self`."""
        if len(other) != len(self):
            raise ValueError("length mismatch in inner product")
        env = np.ones((1, 1), dtype=complex)
        for a, b in zip(self.tensors, other.tensors):
            # env[la, lb] -> env'[ra, rb]
            tmp = np.tensordot(env, a.conj(), axes=([0], [1]))  # [lb, p, ra]
            env = np.tensordot(tmp, b, axes=([0, 1], [1, 0]))  # [ra, rb]
        return complex(env[0, 0])

    def norm(self):
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def add(self, other):
        """Direct-sum addition; bond dimensions add up."""
        if len(other) != len(self) or other.phys_dim != self.phys_dim:
            raise ValueError("can only add MPS of identical geometry")
        if len(self) == 1:
            return Mps([self.tensors[0] + other.tensors[0]])
        p = self.phys_dim
        out = []
        for i, (a, b) in enumerate(zip(self.tensors, other.tensors)):
            if i == 0:
                t = np.concatenate([a, b], axis=2)
            elif i == len(self) - 1:
                t = np.concatenate([a, b], axis=1)
            else:
                t = np.zeros(
                    (p, a.shape[1] + b.shape[1], a.shape[2] + b.shape[2]),
                    dtype=complex,
                )
                t[:, : a.shape[1], : a.shape[2]] = a
                t[:, a.shape[1] :, a.shape[2] :] = b
            out.append(t)
        return Mps(out)

    def dagger_reflect(self):
        """Adjoint of the represented operator: swap Choi sublegs and conjugate (:func:`_reflected`)."""
        return Mps([_reflected(t) for t in self.tensors])

    def to_dense(self):
        """Dense vector of the full state (exponential; small chains only)."""
        acc = self.tensors[0][:, 0, :]  # [p, r]
        for t in self.tensors[1:]:
            acc = np.tensordot(acc, t, axes=([1], [1]))  # [P, p, r]
            acc = acc.reshape(-1, t.shape[2])
        return acc[:, 0]

    # -- canonical forms and compression ------------------------------------

    def canonicalize(self, spec=None):
        """Left-to-right QR then right-to-left truncated SVD.

        Returns ``(mps, info)`` with the new state left-gauged (orthogonality
        center at site 0) and `info` carrying the per-bond Schmidt spectra and
        relative discarded weights, ordered by bond index (0 .. L-2).
        """
        spec = spec or TruncationSpec()
        tensors = [t.copy() for t in self.tensors]
        n = len(tensors)
        # Right-moving QR pass: tensors 0..n-2 become left-orthonormal.
        for i in range(n - 1):
            p, l, r = tensors[i].shape
            q, rmat = np.linalg.qr(tensors[i].reshape(p * l, r))
            tensors[i] = q.reshape(p, l, -1)
            tensors[i + 1] = np.tensordot(rmat, tensors[i + 1], axes=([1], [1])).transpose(
                1, 0, 2
            )
        spectra = [None] * (n - 1)
        weights = [0.0] * (n - 1)
        # Left-moving SVD pass with truncation; Schmidt values are genuine
        # because everything to the left is orthonormal at that point.
        for i in range(n - 1, 0, -1):
            p, l, r = tensors[i].shape
            u, s, vh, w = truncated_svd(tensors[i].transpose(1, 0, 2).reshape(l, p * r), spec)
            spectra[i - 1] = s
            weights[i - 1] = w
            tensors[i] = vh.reshape(-1, p, r).transpose(1, 0, 2)
            us = u * s[None, :]
            tensors[i - 1] = np.tensordot(tensors[i - 1], us, axes=([2], [0]))
        return Mps(tensors), CompressionInfo(spectra, weights)

    def apply_mpo(self, mpo, spec=None):
        """Apply an MPO and recompress with the given truncation."""
        if len(mpo) != len(self):
            raise ValueError("MPO/MPS length mismatch")
        out = []
        for w, t in zip(mpo.tensors, self.tensors):
            # w[wl, po, pi, wr], t[pi, l, r] -> [po, wl*l, wr*r]
            tmp = np.tensordot(w, t, axes=([2], [0]))  # [wl, po, wr, l, r]
            tmp = tmp.transpose(1, 0, 3, 2, 4)
            out.append(
                tmp.reshape(w.shape[1], w.shape[0] * t.shape[1], w.shape[3] * t.shape[2])
            )
        result = Mps(out)
        if spec is not None:
            result, _ = result.canonicalize(spec)
        return result


class Mpo:
    """Finite MPO with boundary vectors absorbed into the end tensors."""

    __slots__ = ("tensors",)

    def __init__(self, tensors):
        tensors = [np.asarray(t, dtype=complex) for t in tensors]
        if not tensors:
            raise ValueError("an MPO needs at least one site")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[3] != 1:
            raise ValueError("boundary bonds must have extent 1")
        for i in range(len(tensors) - 1):
            if tensors[i].shape[3] != tensors[i + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
        self.tensors = tensors

    def __len__(self):
        return len(self.tensors)

    @property
    def phys_dim(self):
        return self.tensors[0].shape[1]

    @property
    def bond_dims(self):
        return [t.shape[3] for t in self.tensors[:-1]]

    @property
    def max_bond(self):
        return max(self.bond_dims, default=1)

    @classmethod
    def from_local_terms(cls, length, terms):
        """Assemble ``sum_k O_k`` from windowed dense terms.

        `terms` is a non-empty iterable of
        :class:`~floquet_ness.superops.LocalOperator` on sites of one
        dimension, which the MPO takes; for the generator these are the
        window superoperators on ``d**2``-dimensional sites. No terms, or
        terms on different site dimensions, raise one ``ValueError``. Terms
        on one window are summed first, by
        :func:`~floquet_ness.superops.window_sums`. Each window is split
        exactly, without an SVD, by :func:`_mpo_factors` (identity carriers
        around the window's middle site), and the splits are joined by the
        standard pending/done automaton over virtual bonds. One
        :meth:`compressed` call with the relative cutoff
        MPO_COMPRESS_CUTOFF, which only removes numerically zero directions,
        then decides every bond: the sum-then-compress construction of Hubig,
        McCulloch and Schollwöck, PRB 95, 035129 (2017), with an SVD
        compression. A sum that can have full rank at every cut (three sites
        of a generator at most) is first tested for it without an SVD; a
        sum with a smallest Schmidt value above 1e-6 of the largest at every
        cut passes, skips the SVD sweep and comes back in its exact form,
        which the SVD would also have kept. Any other sum is compressed.
        """
        terms = list(terms)
        dims = sorted({t.site_dim for t in terms})
        if len(dims) != 1:
            raise ValueError(f"an MPO needs terms on one site dimension, got dimensions {dims}")
        (phys_dim,) = dims
        for t in terms:
            if t.start < 0 or t.stop > length:
                raise ValueError(f"term on sites [{t.start}, {t.stop}) leaves the chain")
        factor_lists = [
            (start, _mpo_factors(matrix, width))
            for (start, width), matrix in sorted(window_sums(terms).items())
        ]
        # Bond layout per cut: slot 0 = "no term started", slot 1 = "term done",
        # then one block per term currently crossing the cut.
        crossing = [[] for _ in range(length + 1)]  # cut i sits left of site i
        for term_id, (start, factors) in enumerate(factor_lists):
            width = len(factors)
            for cut in range(start + 1, start + width):
                crossing[cut].append(term_id)
        offsets = []
        dims = []
        for cut in range(length + 1):
            off = {}
            pos = 2
            for term_id in crossing[cut]:
                start, factors = factor_lists[term_id]
                k = cut - start  # factor index whose right bond crosses this cut
                off[term_id] = pos
                pos += factors[k - 1].shape[2]
            offsets.append(off)
            dims.append(pos)
        eye = np.eye(phys_dim, dtype=complex)
        tensors = []
        for i in range(length):
            dl, dr = dims[i], dims[i + 1]
            w = np.zeros((dl, phys_dim, phys_dim, dr), dtype=complex)
            w[0, :, :, 0] = eye
            w[1, :, :, 1] = eye
            for term_id, (start, factors) in enumerate(factor_lists):
                width = len(factors)
                if not (start <= i < start + width):
                    continue
                k = i - start
                f = factors[k]  # [bl, out*in, br]
                blk = f.reshape(f.shape[0], phys_dim, phys_dim, f.shape[2])
                lo = 0 if k == 0 else offsets[i][term_id]
                l_slice = slice(0, 1) if k == 0 else slice(lo, lo + f.shape[0])
                if k == width - 1:
                    w[l_slice, :, :, 1:2] += blk
                else:
                    ro = offsets[i + 1][term_id]
                    w[l_slice, :, :, ro : ro + f.shape[2]] += blk
            tensors.append(w)
        # Absorb boundary selectors: start in slot 0, finish in slot 1.
        tensors[0] = tensors[0][0:1]
        last = tensors[-1]
        # A width-L term ends in slot 1; but for length-1 chains slot 0 never fed it.
        tensors[-1] = last[:, :, :, 1:2]
        return cls(tensors).compressed(TruncationSpec(weight_cutoff=MPO_COMPRESS_CUTOFF))

    def _fused(self):
        """The MPO as an MPS whose physical leg fuses ``(out, in)``."""
        return Mps([t.transpose(1, 2, 0, 3).reshape(-1, t.shape[0], t.shape[3]) for t in self.tensors])

    def _unfused(self, mps):
        p = self.phys_dim
        return Mpo([t.reshape(p, p, t.shape[1], t.shape[2]).transpose(2, 0, 1, 3) for t in mps.tensors])

    def compressed(self, spec):
        """SVD compression, treating the MPO as an MPS with fused physical legs.

        An MPO that can keep every bond at its maximum, the fused leg
        dimension ``p`` to the power ``min(k, L - k)`` at cut ``k`` (a
        three-site generator whose couplings have full rank), is first
        tested for full rank without an SVD. This runs only where every raw
        bond reaches that maximum and `spec.max_rank` allows it, so the
        operator's site-major vector, of size ``p**L``, is small: the raw
        tensors are contracted into it, and a Cholesky factorization of the
        Gram matrix of each cut's unfolding, less ``max(1e-12,
        spec.weight_cutoff)`` times its trace, must succeed. That certifies
        a smallest Schmidt value above the square root of that factor times
        the largest (1e-6 at MPO_COMPRESS_CUTOFF), well above the cutoff the
        SVD applies, so the test refuses some MPOs that the SVD keeps whole
        but accepts none that it cuts; it stops at the first cut that fails. A
        certified MPO, or one whose compression keeps every bond at its
        maximum, is a dense operator in MPO form, and its exact form comes
        back instead of rotated tensors: the contracted vector at site
        ``L // 2``, with identity carriers around it (:func:`_carrier_split`).
        Its entries are the input's sums of products, without the SVD's
        rounding of about machine epsilon times the largest Schmidt value of
        each bond. Any other MPO gets the compressed tensors.
        """
        fused = self._fused()
        p, n = fused.phys_dim, len(fused)
        full = [p ** min(k, n - k) for k in range(1, n)]
        if any(b < f for b, f in zip(fused.bond_dims, full)) or spec.max_rank < max(full, default=1):
            return self._unfused(fused.canonicalize(spec)[0])
        vector = fused.to_dense()
        if not _full_rank(vector, p, n, max(1e-12, spec.weight_cutoff)):
            comp, _ = fused.canonicalize(spec)
            if comp.bond_dims != full:
                return self._unfused(comp)
        d = self.phys_dim
        return Mpo([f.reshape(f.shape[0], d, d, f.shape[2]) for f in _carrier_split(vector, p, n, n // 2)])

    def add(self, other):
        """Direct-sum addition; bond dimensions add up."""
        return self._unfused(self._fused().add(other._fused()))

    def adjoint(self):
        """MPO of the adjoint map: conjugate and swap the physical legs sitewise."""
        return Mpo([t.conj().transpose(0, 2, 1, 3) for t in self.tensors])

    def to_dense(self):
        """Dense matrix of the full MPO (small chains only)."""
        acc = self.tensors[0][0]  # [out, in, wr]
        dim_o, dim_i = acc.shape[0], acc.shape[1]
        for t in self.tensors[1:]:
            acc = np.tensordot(acc, t, axes=([2], [0]))  # [O, I, out, in, wr]
            acc = acc.transpose(0, 2, 1, 3, 4)
            dim_o *= t.shape[1]
            dim_i *= t.shape[2]
            acc = acc.reshape(dim_o, dim_i, t.shape[3])
        return acc[:, :, 0]


def _reflected(tensor):
    """Site tensor ``[..., p, l, r]`` of the adjoint operator, ``p = d**2`` a
    Choi site: its sublegs swapped and conjugated, for any leading axes (a
    stack of sites too)."""
    d = _site_dim(tensor.shape[-3], 2)
    return tensor.reshape(*tensor.shape[:-3], d, d, *tensor.shape[-2:]).swapaxes(-4, -3).conj().reshape(tensor.shape)


def product_sum_norm(terms):
    """Norm of ``sum_k W_k x_k`` over ``(W_k, x_k)`` pairs of one chain, each
    an :class:`Mpo` (None for the identity) and an :class:`Mps`.

    One left-to-right QR sweep over the direct sum of the products, the
    zip-up of Stoudenmire and White (NJP 12, 055026 (2010)) without
    truncation: each term keeps one column slice ``[D, (w l)]`` of the
    running triangular factor and absorbs its next MPS and MPO tensors into
    it; the slices of all terms, side by side, are factorized together. The
    discarded factors are orthonormal, so at the last site, where every
    slice is one column, the norm of their sum is the norm of the whole sum.
    No product is built as an MPS, and no squared norm ``<x|W^dag W|x>`` is
    formed, so nothing cancels.
    """
    terms = [(None if w is None else w.tensors, x.tensors) for w, x in terms]
    if not terms:
        return 0.0
    last = len(terms[0][1]) - 1
    slices = [np.ones((1, 1), dtype=complex)] * len(terms)
    for i in range(last + 1):
        pieces = []
        for (w, x), r in zip(terms, slices):
            if w is None:
                t = np.tensordot(r, x[i], axes=([1], [1]))  # [D, p, r]
            else:
                t = np.tensordot(r.reshape(r.shape[0], -1, x[i].shape[1]), x[i], axes=([2], [1]))  # [D, w, p, r]
                t = np.tensordot(t, w[i], axes=([1, 2], [0, 2])).transpose(0, 2, 3, 1)  # [D, p', w', r]
            pieces.append(t.reshape(t.shape[0] * t.shape[1], -1))
        stacked = np.concatenate(pieces, axis=1)
        if i == last:
            return float(np.linalg.norm(stacked.sum(axis=1)))
        _, rmat = np.linalg.qr(stacked)
        slices = np.split(rmat, np.cumsum([piece.shape[1] for piece in pieces])[:-1], axis=1)


def _mpo_factors(matrix, width):
    """Exact split of a windowed operator into per-site MPO factors, no SVD.

    Returns factors of shape ``[bl, out*in, br]`` whose bond product rebuilds
    the matrix bit for bit: :func:`_carrier_split` of its site-major vector
    at the window's middle site ``m = (width - 1) // 2`` (the left one of an
    even window's two), so the bond at cut ``k`` (between window sites
    ``k - 1`` and ``k``) is ``(out*in)^min(k, width - k)``. The compression
    of :meth:`Mpo.from_local_terms` reduces it to the rank. The site
    dimension is the `width`-th root of the matrix extent.
    """
    p2 = _site_dim(matrix.shape[0], width) ** 2
    # [o1..ow, i1..iw] -> [(o1 i1), (o2 i2), ...], the site-major interleave
    return _carrier_split(choi_site_vector(matrix, width), p2, width, (width - 1) // 2)


def _carrier_split(vector, phys, length, mid):
    """Site-major `vector` of `length` sites of dimension `phys` as factors
    ``[bl, phys, br]`` with no SVD: site `mid` holds the whole vector, each
    site left of it carries its index right along the bond as an identity,
    and each site right of it carries its index left."""
    left = [np.eye(phys ** (k + 1), dtype=complex).reshape(phys**k, phys, -1) for k in range(mid)]
    right = [
        np.eye(phys ** (length - k), dtype=complex).reshape(-1, phys, phys ** (length - k - 1))
        for k in range(mid + 1, length)
    ]
    return left + [vector.reshape(phys**mid, phys, -1)] + right


def _full_rank(vector, phys, length, margin):
    """Whether every cut of a site-major `vector` of `length` sites has full
    rank with room to spare: the Gram matrix of each cut's unfolding, on
    its smaller side, less `margin` times its trace, has a Cholesky factor
    (LAPACK ``potrf``), so its smallest Schmidt value exceeds
    ``sqrt(margin)`` times the largest. A zero or non-finite vector fails;
    the first cut that fails stops the test."""
    for k in range(1, length):
        mat = vector.reshape(phys**k, -1)
        if mat.shape[0] > mat.shape[1]:
            mat = mat.T
        gram = mat @ mat.conj().T
        if lapack.zpotrf(gram - margin * np.trace(gram).real * np.eye(len(gram)))[1] != 0:
            return False
    return True
