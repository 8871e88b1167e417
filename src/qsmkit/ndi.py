"""Nonlinear dipole inversion: gradient descent on the magnitude-weighted
complex-exponential data fidelity, with optional Tikhonov shrinkage.

The objective per orientation is ||W(exp(i*D*chi) - exp(i*phi))||_2^2, which
equals 2*sum(w^2*(1 - cos(D*chi - phi))); its gradient is
2*D^T W^2 sin(D*chi - phi), plus 2*lambda*chi for the Tikhonov term. The
update with step size 1 therefore reproduces the plain multi-orientation
gradient-descent rule; magnitudes are max-normalized so a step size of 1 is
stable and lambda is a meaningful fraction of the data term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    OrientationDataset, ScalarVolume, _is_integer, for_slabs, irfft3, require_binary_mask, rfft3, spectral_apply
)
from .dipole import dipole_kernel
from .metrics import centred_reference

__all__ = ["NdiConfig", "NdiResult", "NdiDivergenceError", "ndi_cost", "ndi_gradient", "ndi_reconstruct"]


class NdiDivergenceError(RuntimeError):
    """Raised when an iterate leaves the floating-point range.

    Each iteration checks that the data residual w^2*sin(D*chi - phi) of the
    iterate is finite; a solve that records history checks its cost instead,
    which also covers the residual. The message names the iteration.
    """


@dataclass(frozen=True)
class NdiConfig:
    """Solver hyperparameters.

    lam is a fraction of the (normalized) data term; 0.001 is the 0.1 percent
    setting that keeps long runs from over-fitting. 400 iterations is the
    early-stopping budget used when lam = 0.
    """

    step_size: float = 1.0
    lam: float = 0.001
    max_iters: int = 400
    record_history: bool = False
    reference: ScalarVolume | None = None

    def __post_init__(self):
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ValueError("step size must be positive and finite")
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ValueError("lambda must be finite and >= 0")
        if not _is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.reference is not None and not self.record_history:
            raise ValueError("reference is read only by the NRMSE history: it needs record_history")


@dataclass(frozen=True, eq=False)
class NdiResult:
    """Final reconstruction plus per-iteration diagnostics (when recorded)."""

    chi: ScalarVolume
    cost_history: list[float] = field(default_factory=list)
    nrmse_history: list[float] | None = None


def trig_cost(field, phase, w2):
    """sum of 2 * w2 * (1 - cos(field - phase))."""
    return float(np.sum(2.0 * w2 * (1.0 - np.cos(field - phase))))


def _scratch(field):
    """Refuses a field that a kernel cannot write its result over."""
    if field.dtype != np.float64 or not field.flags.c_contiguous:
        raise ValueError("field must be a C-contiguous float64 array: it is overwritten")


def weighted_sin_residual(field, phase, w2):
    """w2 * sin(field - phase), elementwise, written over field and returned.

    field is scratch, such as an irfft3 output: the subtract, sin and
    multiply run in place in it, on one thread per FFT worker, over the
    slabs residual_and_cost uses, so the result is the same bits as the
    plain expression for every thread count.
    """
    _scratch(field)

    def slab(r, p, w):
        np.subtract(r, p, out=r)
        np.sin(r, out=r)
        r *= w

    for_slabs(slab, field, phase, w2)
    return field


def residual_and_cost(field, phase, w2):
    """One pass over the residual angle: returns (w2*sin(d), sum 2*w2*(1-cos(d))).

    The three volumes share one shape; the residual is written over field,
    which is scratch as in weighted_sin_residual. The sin and cos run on one
    thread per FFT worker (numpy releases the GIL), each over its own slab
    and into preallocated outputs; the cost terms are then summed once over
    the whole volume, so both results are the same bits for every thread
    count.
    """
    _scratch(field)
    terms = np.empty(field.shape)

    def slab(r, p, w, c):
        d = np.subtract(r, p)
        np.sin(d, out=r)
        r *= w
        np.cos(d, out=d)
        np.subtract(1.0, d, out=d)
        np.multiply(2.0, w, out=c)
        c *= d

    for_slabs(slab, field, phase, w2, terms)
    return field, float(np.sum(terms))


def _half_norm2(spec: np.ndarray, dims) -> float:
    """||x||_2^2 of the real image behind an rfft3 half-spectrum (Parseval).

    Bins on the self-conjugate z-planes appear once, all others stand for a
    conjugate pair and count twice.
    """
    nz = dims[2]
    mags = spec.real**2 + spec.imag**2
    total = 2.0 * float(mags.sum())
    total -= float(mags[:, :, 0].sum())
    if nz % 2 == 0:
        total -= float(mags[:, :, nz // 2].sum())
    return total / (dims[0] * dims[1] * dims[2])


def _terms(dataset: OrientationDataset, normalize: bool = False):
    """(phase, w^2, kernel half-spectrum) per orientation, in canonical order.

    Entries are sorted by orientation, so sums over them do not depend on the
    order of the dataset. normalize divides every magnitude by one global
    maximum over in-mask voxels first, as the solver does.
    """
    entries, gmax = dataset.entries, 1.0  # a division by 1.0 is exact
    if normalize:
        inside = require_binary_mask(dataset.mask)
        if not np.any(inside):
            raise ValueError("dataset mask is empty")
        gmax = max(float(e.magnitude.data[inside].max()) for e in entries)
        if gmax <= 0:
            raise ValueError("dataset magnitude is zero everywhere inside the mask")
    order = sorted(range(len(entries)), key=lambda i: entries[i].orientation.b)
    return [(e.phase.data, (e.magnitude.data / gmax) ** 2, dipole_kernel(dataset.grid, e.orientation).half)
            for e in (entries[i] for i in order)]


def ndi_cost(chi: ScalarVolume, dataset: OrientationDataset) -> float:
    """Data-fidelity cost summed over orientations, 2*sum(w^2*(1-cos(D*chi-phi))).

    Magnitudes are used as stored, without the max normalization of
    ndi_reconstruct, so this equals the solver's data term only when the
    in-mask magnitude maximum is 1.
    """
    chi.grid.require_compatible(dataset.grid)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for phi, w2, half in _terms(dataset):
            total += trig_cost(spectral_apply(chi.data, half), phi, w2)
    if not np.isfinite(total):
        raise ValueError("NDI cost overflows the float64 range for this chi and dataset")
    return total


def ndi_gradient(chi: ScalarVolume, dataset: OrientationDataset, lam: float = 0.0) -> ScalarVolume:
    """Analytic gradient 2*sum_r D_r^T W_r^2 sin(D_r chi - phi_r) + 2*lam*chi."""
    chi.grid.require_compatible(dataset.grid)
    grad_sum = np.zeros(chi.grid.dims)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for phi, w2, half in _terms(dataset):
            resid = weighted_sin_residual(spectral_apply(chi.data, half), phi, w2)
            grad_sum += spectral_apply(resid, half)
        grad = 2.0 * grad_sum + (2.0 * lam) * chi.data
    if not np.all(np.isfinite(grad)):
        raise ValueError("NDI gradient overflows the float64 range for this chi and dataset")
    return ScalarVolume(chi.grid, grad)


def ndi_reconstruct(dataset: OrientationDataset, cfg: NdiConfig = NdiConfig()) -> NdiResult:
    """Run the gradient-descent inversion from chi = 0.

    Magnitudes are normalized by one global maximum over in-mask voxels, so
    relative SNR weighting across orientations is preserved. Entries are
    summed in a canonical orientation order, making the result bit-identical
    under permutation of the dataset. Recorded histories carry one entry per
    executed iteration: the objective (data term plus lam*||chi||^2) of each
    produced iterate, and its NRMSE against cfg.reference when given.

    The update needs only the sine residual, so the cost (a cosine per voxel
    and the norm of chi) is computed only when cfg.record_history is set;
    either way the result has the same bits. A non-finite residual, or a
    non-finite recorded cost, raises NdiDivergenceError naming the iteration.
    With lam > 0 the cost's lam*||chi||^2 can overflow an iteration or two
    before the residual does, so a recording solve may name an earlier one.
    """
    grid = dataset.grid
    dims = grid.dims
    terms = _terms(dataset, normalize=True)

    track_nrmse = cfg.reference is not None
    if track_nrmse:
        cfg.reference.grid.require_compatible(grid)
        inside = require_binary_mask(dataset.mask)
        ref_centered, ref_norm = centred_reference(cfg.reference, inside)

    tau = cfg.step_size
    lam = cfg.lam
    # The iterate lives in k-space: the image-domain update
    #   chi <- chi - tau*(2*sum_r D_r^T s_r + 2*lam*chi)
    # transforms exactly into
    #   chi_hat <- (1 - 2*tau*lam)*chi_hat - 2*tau*sum_r d_r*rfft3(s_r),
    # which costs two FFTs per orientation per iteration instead of four.
    # Between the FFTs, the half-spectrum work is one fused pass after each
    # rfft3, run on the FFT workers over slabs of x-planes: it applies d_r to
    # the transformed residual, adds it into update (the first orientation's
    # term is update), and forms the next irfft3's input spec = chi_hat*d_r'
    # for the next orientation r'. The last orientation's pass makes the
    # update step before it forms the next iteration's spec = chi_hat*d_0.
    # Products are formed in place, with the same operations on the same
    # operands in the same order as the expressions above, so the iterates
    # keep their bits for every thread count.
    chi_hat = np.zeros(terms[0][2].shape, dtype=np.complex128)
    spec = np.multiply(chi_hat, terms[0][2])
    shrink = 1.0 - 2.0 * tau * lam
    step = 2.0 * tau
    cost_history: list[float] = []
    nrmse_history: list[float] = []

    def fused_slab(term, half, update, chi_hat, next_half, spec):  # reads r and following of the loop
        np.multiply(term, half, out=term)
        if r > 0:
            np.add(update, term, out=update)
        if following == 0:
            np.multiply(chi_hat, shrink, out=chi_hat)
            np.multiply(update, step, out=update)
            np.subtract(chi_hat, update, out=chi_hat)
        np.multiply(chi_hat, next_half, out=spec)

    for t in range(cfg.max_iters):
        # overflow here is not an error condition: the guards below turn a
        # non-finite residual or cost into a diagnosable NdiDivergenceError,
        # at this iteration or, if the update overflows, at the next one
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.record_history:
                cost_t = lam * _half_norm2(chi_hat, dims) if lam != 0.0 else 0.0
            for r, (phi, w2, half) in enumerate(terms):
                field_r = irfft3(spec, dims)
                if cfg.record_history:
                    resid, cost_r = residual_and_cost(field_r, phi, w2)
                    cost_t += cost_r
                else:
                    resid = weighted_sin_residual(field_r, phi, w2)
                    # |w^2 sin| <= w^2, at most 1 in the mask after the max
                    # normalization, so the sum is non-finite only when some
                    # residual is: when the field itself has overflowed
                    if not np.isfinite(np.sum(resid)):
                        raise NdiDivergenceError(f"residual became non-finite at iteration {t}")
                term = rfft3(resid)
                if r == 0:
                    update = term
                following = (r + 1) % len(terms)
                for_slabs(fused_slab, term, half, update, chi_hat, terms[following][2], spec)
            if cfg.record_history:
                if not np.isfinite(cost_t):
                    raise NdiDivergenceError(f"cost became non-finite at iteration {t}")
                if t >= 1:
                    cost_history.append(cost_t)

        if track_nrmse:
            xv = irfft3(chi_hat, dims)[inside]
            xv -= xv.mean()
            xv -= ref_centered
            # einsum, not np.linalg.norm: a threaded BLAS dot here would leave
            # a BLAS worker spinning on a core for the whole solve
            nrmse_history.append(float(np.sqrt(np.einsum("i,i->", xv, xv))) / ref_norm)

    chi = irfft3(chi_hat, dims)
    if not np.all(np.isfinite(chi)):
        raise NdiDivergenceError(f"iterate became non-finite at iteration {cfg.max_iters}")
    if cfg.record_history:
        with np.errstate(over="ignore", invalid="ignore"):
            final_cost = lam * float(np.sum(chi * chi)) if lam != 0.0 else 0.0
            for phi, w2, half in terms:
                final_cost += trig_cost(irfft3(chi_hat * half, dims), phi, w2)
        if not np.isfinite(final_cost):
            raise NdiDivergenceError(f"cost became non-finite at iteration {cfg.max_iters}")
        cost_history.append(final_cost)

    return NdiResult(
        chi=ScalarVolume._owning(grid, chi * dataset.mask.data),
        cost_history=cost_history,
        nrmse_history=nrmse_history if track_nrmse else None,
    )
