"""Brute-force oracles and property checks for the channel family.

Every check returns a VerificationReport whose ``passed`` flag means "the
observed behavior matches the theory", so a check expecting failure (e.g.
non-degradability beyond r = pi/4) passes when the failure occurs.

Every output of the channel and of its complement is block diagonal by
fermion number, so the capacity objectives (coherent information, Holevo
quantity and their gradients) work block by block: each block is gathered
from the input's entries through r-free index tables (``_block_tables``) read
off the sector nonzeros that ``channels._sector_nonzeros`` lists (an entry off
the diagonal is one signed entry of the input, a diagonal entry a sum of its
diagonal over rails) and scaled by its sector amplitude.  The blocks of one
size make one group, solved by one eigensolve, and the eigenvalues of every
group go through one entropy pass.  The gradients apply the adjoint of that
gather through a fixed-width table of the same terms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import channels, fock
from .capacity import (
    _check_integer,
    _check_tol,
    block_weights,
    classical_capacity_grassmann,
    degrading_weights,
    log_base_value,
    quantum_capacity_grassmann,
    quantum_capacity_unruh,
    unruh_capacity_approx,
)
from .channels import (
    CHANNEL_MAX_D,
    ChannelRep,
    apply_kraus,
    block_slices,
    choi_matrix,
    complement_channel_rep,
    complementary_channel,
    grassmann_block,
    grassmann_channel,
    transfer_matrix,
    werner_holevo,
)
from .errors import DomainError, PreconditionError

__all__ = [
    "VerificationReport",
    "von_neumann_entropy",
    "coherent_information",
    "optimize_coherent_information",
    "holevo_quantity",
    "optimize_holevo",
    "check_degradable",
    "check_covariance",
    "check_wolf_eisert_form",
    "check_complementary_spectra",
    "check_werner_holevo",
    "check_factorization",
    "check_ppt",
    "check_ppt_threshold",
    "check_approximation_rate",
    "check_oracle_q",
    "check_oracle_c",
    "SUITES",
    "suite_reports",
    "random_su",
    "random_pure_state",
]

@dataclass
class VerificationReport:
    check: str
    params: dict
    passed: bool
    worst_residual: float
    trials: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return _plain({  # a numpy seed, r or tol, and the numpy scalars they breed, are made plain
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "worst_residual": self.worst_residual,
            "trials": self.trials,
        })


def _plain(value):
    """``value`` with each numpy scalar in it, in nested dicts and lists too, a Python number."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value.item() if isinstance(value, np.generic) else value


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def random_su(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style SU(d): QR of a complex Gaussian, phases fixed, det scaled out."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    q = q * phases.conj()
    det = np.linalg.det(q)
    return q * det ** (-1.0 / d)


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_pure_projectors(d: int, trials: int, seed: int) -> np.ndarray:
    """Stack of |v><v| for ``trials`` draws of random_pure_state from one seeded generator."""
    rng = np.random.default_rng(seed)
    vs = np.array([random_pure_state(d, rng) for _ in range(trials)]).reshape(trials, d)
    return vs[:, :, None] * vs.conj()[:, None, :]


# ---------------------------------------------------------------------------
# Entropic quantities
# ---------------------------------------------------------------------------

_EIG_FLOOR = 1e-14


def von_neumann_entropy(rho, base: float = 2.0) -> float:
    """-sum lambda log lambda over eigenvalues above 1e-14, in the given log base.

    Raises DomainError unless the base is finite, positive and not 1, and
    PreconditionError for a non-finite entry, whose eigenvalues would otherwise
    fail the floor test and drop out.
    """
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise DomainError(f"log base must be finite, positive and not 1, got {base}")
    mat = np.asarray(rho, dtype=complex)
    if not np.isfinite(mat).all():
        raise PreconditionError("density matrix entries must be finite")
    evals = np.linalg.eigvalsh(mat)
    evals = evals[evals > _EIG_FLOOR]
    return float(-(evals * np.log(evals)).sum() / math.log(base))


# Blocks of up to this many rows cost more in numpy calls than in padded
# gathers, so they share one zero-padded stack; at d <= 4 that is all of them.
_SHARED_STACK_ROWS = 8


class _BlockGroup(NamedTuple):
    """Index tables of one group of output blocks, all read from the sector nonzeros.

    The group holds G blocks of size n x n: its forward blocks, then the complement
    blocks that mirror them, block i being weighted by sector ``sectors[i]`` + 1.
    With flat = rho.ravel() and the diagonal sums diag(rho) @ rails of
    ``_block_tables``, the unit-weight blocks are [0, flat, -flat, sums][gather].
    The adjoint of that map takes W of the group's shape to
    (signs * W.ravel()[adjoint]).sum(0), reshaped to d x d.  The forward half of
    the group reads gather[:G/2] and the first ``forward`` rows of adjoint and signs.
    """

    sectors: np.ndarray  # (G,) sector index of each block's squared amplitude
    gather: np.ndarray  # (G, n, n) index of each block entry into [0, flat, -flat, sums]
    adjoint: np.ndarray  # (W, d^2) position of each term of rho[i, j] in the flat blocks
    signs: np.ndarray  # (W, d^2) the sign of that term; 0 where a column has fewer than W
    forward: int  # rows of adjoint and signs that hold the forward blocks' terms


class _Tables(NamedTuple):
    """The groups of ``_block_tables`` and the tables that their eigenvalues share.

    The eigenvalues of the forward halves of every group, laid end to end in group
    order, are followed by those of the mirror halves in the same order; the forward
    ones alone are the prefix of half the length.  ``sectors`` and ``signs`` give
    each of those eigenvalues the sector index of its squared amplitude and its sign
    in I_c: +1 forward, -1 complement.
    """

    rails: np.ndarray  # (d, E) 0/1: diag(rho) @ rails are the diagonal sums of every group
    groups: tuple[_BlockGroup, ...]
    sectors: np.ndarray  # (2 F,) sector index per eigenvalue; F = forward eigenvalues
    signs: np.ndarray  # (2 F,) +1 on the forward half, -1 on the mirror half


def _adjoint_columns(d: int, sector, position, target, sign):
    """One half's adjoint table: the terms of rho[i, j] down column i d + j, padded with sign 0.

    Down each column the terms run by sector, then by position; the padding comes last.
    A position holds at most one term of each target, so no two sort keys are equal.
    """
    order = np.argsort((target * d + sector) * (position.max() + 1) + position)
    column = target[order]
    rank = np.arange(len(column)) - np.searchsorted(column, column)  # place down its column
    adjoint = np.zeros((rank.max() + 1, d * d), dtype=np.intp)
    signs = np.zeros(adjoint.shape)
    adjoint[rank, column], signs[rank, column] = position[order], sign[order]
    return adjoint, signs


@lru_cache(maxsize=None)
def _block_tables(d: int) -> _Tables:
    """Gather tables of the capacity objectives' output blocks, one group per block size.

    Forward block k contracts sector k of the unit pair state, the [A code, C code, rail]
    tensor T whose nonzeros ``channels._sector_nonzeros`` lists, with itself over
    (C code, rail): B[a, a'] = sum_c T[a, c, i] T[a', c, j] rho[i, j].  The complement
    block with d - k fermions on C, which mirrors it, contracts sector d - k + 1 over
    (A code, rail).  A nonzero [A, C, i] needs A = C + {i}, so an entry off the
    diagonal has at most one term, a signed entry of rho, and a diagonal entry sums
    rho[i, i] over its k (or d - k + 1) rails.  Forward blocks k and d - k have the
    same size C(d, k), so they and their mirrors make one group and one eigensolve;
    the blocks of at most ``_SHARED_STACK_ROWS`` rows share one group, zero-padded to
    its largest block.  ``rails`` (d x E, 0/1, complex) takes the diagonal of rho to
    the diagonal entries of every group's blocks, group after group, so one product
    serves them all.  The groups are built one at a time, block by block: a term
    pairs two nonzeros that share a summed code, the first fixing its block entry's
    row and rail i, the second its column and j.  Each half's adjoint table lists the
    terms of rho[i, j] down column i d + j by sector, then by position in the group's
    flattened blocks, then the padding (sign 0); that order fixes the last bits of the
    gradients.  Cached per d (0.5 MB at d = 8), so the arrays are read-only.
    """
    small = [k for k in range(1, d + 1) if math.comb(d, k) <= _SHARED_STACK_ROWS]
    runs = [small] + [
        [k, d - k][: 1 + (2 * k < d)] for k in range(1, d // 2 + 1) if k not in small
    ]
    nonzeros, groups, rails = channels._sector_nonzeros(d), [], []
    for run in runs:
        # forward block k sums sector k - 1 (from 0) over C codes, its mirror sector d - k over A
        blocks = [(k - 1, 0) for k in run] + [(d - k, 1) for k in run]
        n, offset = max(math.comb(d, k) for k in run), sum(part.shape[1] for part in rails)
        gather = np.zeros(len(blocks) * n * n, dtype=np.intp)
        columns = np.zeros((d, len(blocks) * n), dtype=complex)  # the group's part of rails
        halves = ([], [])
        for slot, (s, half) in enumerate(blocks):
            a, c, rail, unit, _ = nonzeros[s]
            out, summed = (a, c) if half == 0 else (c, a)
            # every summed code meets the same number of nonzeros: one row of them per code
            rows = np.argsort(summed, kind="stable").reshape(math.comb(d, s + half), -1)
            width = rows.shape[1]
            left, right = rows[:, :, None].repeat(width, 2).ravel(), rows.repeat(width, 0).ravel()
            row = slot * n + out  # each nonzero's row of the group's (G, n, n) blocks
            position, target = row[left] * n + out[right], rail[left] * d + rail[right]
            sign = unit[left] * unit[right]
            gather[position] = 1 + target + d * d * (sign < 0)
            # the diagonal terms pair a nonzero with itself; their sums come from rails
            gather[row * n + out] = 1 + 2 * d * d + offset + row
            columns[rail, row] = 1.0
            halves[half].append((np.full(len(left), s), position, target, sign))
        forward, mirror = (_adjoint_columns(d, *map(np.concatenate, zip(*h))) for h in halves)
        rails.append(columns)
        parts = (
            np.array([s for s, _ in blocks]),
            gather.reshape(len(blocks), n, n),
            *map(np.concatenate, zip(forward, mirror)),  # adjoint, then signs: forward rows first
        )
        for array in parts:
            array.flags.writeable = False
        groups.append(_BlockGroup(*parts, len(forward[0])))
    rails = np.concatenate(rails, axis=1)
    rails.flags.writeable = False
    # per eigenvalue: its block's sector, the forward halves of every group first
    sectors = np.concatenate(
        [np.repeat(g.sectors.reshape(2, -1), g.gather.shape[-1], axis=1) for g in groups], axis=1
    ).ravel()
    signs = np.repeat([1.0, -1.0], len(sectors) // 2)
    for array in (sectors, signs):
        array.flags.writeable = False
    return _Tables(rails, tuple(groups), sectors, signs)


def _block_terms(d: int, r: float, rho: np.ndarray, logs: bool = True, complement: bool = True):
    """S per input, and per group of ``_block_tables``: its tables, the blocks B and w L.

    Output block i is w[i] B[i], B being gathered from the entries of rho (the
    diagonal entries of B are sums over rails), w being the squared sector
    amplitudes, never the closed-form weights the oracles check.  A group lists
    its forward blocks, then, with ``complement``, the complement blocks that
    mirror them, which enter S and w L negated, so that S is I_c and w L gives its
    gradient.  One eigh per group, or one eigvalsh without ``logs`` (w L is then
    None); the eigenvalues of every group then go through one entropy pass, laid
    out as the tables of ``_block_tables`` list them.  L = -log+(w B)/ln b, so
    dS = tr(L d(w B)), with b the base d of the oracles' closed forms, and log+
    floors as von_neumann_entropy does.  A stack rho (..., d, d) gives S of shape
    (...) and B of shape (..., i, n, n).
    """
    channels._check_channel_d(d)
    weights = np.square(channels._sector_amplitudes(d, r))
    ln_base = math.log(log_base_value("d", d))
    rails, groups, sectors, signs = _block_tables(d)
    lead, halves = rho.shape[:-2], 1 + complement
    flat = rho.reshape(*lead, d * d)
    source = np.concatenate((np.zeros((*lead, 1)), flat, -flat, flat[..., :: d + 1] @ rails), -1)
    blocks = [source[..., group.gather[: len(group.gather) * halves // 2]] for group in groups]
    solved = [_eigh(stack, logs) for stack in blocks]
    evals = np.concatenate([e.reshape(*lead, halves, -1) for e, _ in solved], -1)
    count = halves * evals.shape[-1]
    w = weights[sectors[:count]]
    evals = evals.reshape(*lead, count) * w
    kept = np.where(evals > _EIG_FLOOR, evals, 1.0)  # an eigenvalue on the floor adds 1 log 1 = 0
    log = np.log(kept)
    ents = (kept * log) @ signs[:count] / -ln_base
    if not logs:
        return ents, [(group, stack, None) for group, stack in zip(groups, blocks)]
    coef = (log * (w * signs[:count] / -ln_base)).reshape(*lead, halves, -1)
    parts, at = [], 0
    for group, stack in zip(groups, blocks):
        e, vecs = solved.pop(0)  # so each group's eigenvectors go once its w L is built
        n, width = e.shape[-1], e.shape[-2] * e.shape[-1] // halves
        c = coef[..., at : at + width].reshape(*lead, halves, -1, 1, n)  # a view, by half
        v = vecs.reshape(*lead, halves, -1, n, n)
        scaled = v * c
        wl = scaled @ np.conjugate(v, out=v).swapaxes(-1, -2)  # eigh's own array, used up here
        parts.append((group, stack, wl.reshape(stack.shape)))
        at += width
    return ents, parts


def _eigh(blocks: np.ndarray, vectors: bool):
    """Eigenvalues of a Hermitian stack, and its eigenvectors (else None) with ``vectors``.

    LAPACK's heevd can fail to converge on the highly degenerate unit-weight
    blocks, depending on the exact bits of the input; the stack is then solved
    shifted by the identity, which keeps its eigenvectors, and shifted back.
    """
    try:
        return np.linalg.eigh(blocks) if vectors else (np.linalg.eigvalsh(blocks), None)
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(blocks + np.eye(blocks.shape[-1]))
        return evals - 1.0, (vecs if vectors else None)


def _group_adjoint(d: int, tables, wl: np.ndarray) -> np.ndarray:
    """sum_i N_i^dag(wl[..., i, :, :]) over the unit-weight block maps of one group.

    ``wl`` holds the group's blocks, or only its forward half, flattened to the
    positions that the adjoint table of ``tables`` points at.
    """
    rows = len(tables.adjoint) if wl.shape[-3] == len(tables.gather) else tables.forward
    terms = wl.reshape(*wl.shape[:-3], -1)[..., tables.adjoint[:rows]]
    return (terms * tables.signs[:rows]).sum(axis=-2).reshape(*wl.shape[:-3], d, d)


def _check_density(states: np.ndarray, what: str):
    """Raise unless every (d, d) matrix of the stack is a density matrix within 1e-10.

    Each must be finite, Hermitian and of unit trace within 1e-10, and rho + 1e-10 I
    must have a Cholesky factor; no eigensolve is spent on the check.
    """
    if not np.isfinite(states).all():
        raise PreconditionError(f"{what} entries must be finite")
    if np.abs(states - states.conj().swapaxes(-1, -2)).max() > 1e-10:
        raise PreconditionError(f"{what} must be Hermitian within 1e-10")
    if np.abs(states.trace(axis1=-2, axis2=-1) - 1.0).max() > 1e-10:
        raise PreconditionError(f"{what} must have unit trace within 1e-10")
    try:
        np.linalg.cholesky(states + 1e-10 * np.eye(states.shape[-1]))
    except np.linalg.LinAlgError:
        raise PreconditionError(f"{what} must be positive semidefinite within 1e-10") from None


def coherent_information(d: int, r: float, rho_in) -> float:
    """H(channel output) - H(complementary output) for the given input, block by block."""
    mat = np.asarray(rho_in, dtype=complex)
    if mat.shape != (d, d):
        raise PreconditionError(f"input shape {mat.shape} != ({d}, {d})")
    _check_density(mat, "input")
    return float(_block_terms(d, r, mat, logs=False)[0])


def holevo_quantity(d: int, r: float, ensemble) -> float:
    """Holevo chi of a (probability, state) ensemble through the channel."""
    probs = np.array([p for p, _ in ensemble], dtype=float)
    if not np.isfinite(probs).all() or abs(probs.sum() - 1.0) > 1e-10 or np.any(probs < -1e-15):
        raise PreconditionError("ensemble probabilities must form a distribution")
    states = [np.asarray(s, dtype=complex) for _, s in ensemble]
    for state in states:
        if state.shape != (d, d):
            raise PreconditionError(f"state shape {state.shape} != ({d}, {d})")
    states = np.array(states)
    _check_density(states, "state")
    return float(_holevo_terms(d, r, probs, states, logs=False)[0])


def _holevo_terms(d: int, r: float, probs: np.ndarray, states: np.ndarray, logs: bool = True):
    """chi, S of the average (index 0) and members, and the forward side's ``_block_terms``.

    The average input and the members go through the channel as one stack.
    """
    avg = (probs[:, None, None] * states).sum(axis=0)
    inputs = np.concatenate((avg[None], states))
    ents, terms = _block_terms(d, r, inputs, logs, complement=False)
    return ents[0] - probs @ ents[1:], ents, terms


# ---------------------------------------------------------------------------
# Gradient optimizers (seeded multi-start L-BFGS on exact entropy gradients, in numpy)
# ---------------------------------------------------------------------------


def _params_to_density(x: np.ndarray, d: int) -> np.ndarray:
    half = d * d
    factor = (x[:half] + 1j * x[half:]).reshape(d, d)
    gram = factor @ factor.conj().T
    tr = np.trace(gram).real
    if tr < 1e-12:
        return np.eye(d) / d
    return gram / tr


def _coherent_information_and_grad(x: np.ndarray, d: int, r: float):
    """I_c at rho = F F^dag / tr(F F^dag) and its gradient in x = (Re F, Im F).

    With L = -log+(output)/ln b, dI_c = tr(G drho) for G = N^dag(L_A) -
    N^c^dag(L_C), summed block by block; through the parametrization the
    gradient in F is 2 (G - tr(G rho) I) F / tr(F F^dag).
    """
    rho = _params_to_density(x, d)
    value, terms = _block_terms(d, r, rho)
    g = sum(_group_adjoint(d, tables, wl) for tables, _, wl in terms)
    tr = float(x @ x)
    if tr < 1e-12:
        return value, np.zeros_like(x)
    factor = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
    step = (2.0 / tr) * (g - np.trace(g @ rho).real * np.eye(d)) @ factor
    return value, np.concatenate([step.real.ravel(), step.imag.ravel()])


def _ensemble_parts(x: np.ndarray, d: int, size: int):
    """Softmax weights, unit state vectors and raw norms of an ensemble point.

    A member with raw norm below 1e-12 gets a fixed state and norm inf, hence no gradient.
    """
    halves = x[: size * 2 * d].reshape(size, 2, d)
    raw = halves[:, 0] + 1j * halves[:, 1]
    norms = np.linalg.norm(raw, axis=1)
    degenerate = norms < 1e-12
    unit = np.where(
        degenerate[:, None],
        1.0 / math.sqrt(d),
        raw / np.where(degenerate, 1.0, norms)[:, None],
    )
    logits = x[size * 2 * d :]
    weights = np.exp(logits - logits.max())
    return weights / weights.sum(), unit, np.where(degenerate, np.inf, norms)


def _params_to_ensemble(x: np.ndarray, d: int, size: int):
    probs, unit, _ = _ensemble_parts(x, d, size)
    return [(p, np.outer(u, u.conj())) for p, u in zip(probs, unit)]


def _holevo_and_grad(x: np.ndarray, d: int, r: float, size: int):
    """chi of the pure-state ensemble at x and its gradient in x.

    State i moves along p_i N^dag(L_avg - L_i) projected onto the tangent of
    v_i/|v_i|; the logits get the softmax chain rule on the marginal values
    tr(L_avg N(psi_i)) - S(N(psi_i)).
    """
    probs, unit, norms = _ensemble_parts(x, d, size)
    psi = unit[:, :, None] * unit.conj()[:, None, :]  # np.outer of each member
    chi, ents, terms = _holevo_terms(d, r, probs, psi)
    marginal, adjoint = -ents[1:], 0.0
    for tables, blocks, wl in terms:
        marginal += (blocks[1:].reshape(size, -1) @ wl[0].conj().ravel()).real
        adjoint = adjoint + _group_adjoint(d, tables, wl[:1] - wl[1:])
    adjoint = probs[:, None, None] * adjoint
    hu = (adjoint @ unit[..., None])[..., 0]
    w = (2.0 / norms)[:, None] * (hu - (unit.conj() * hu).sum(axis=1).real[:, None] * unit)
    grad_logits = probs * (marginal - probs @ marginal)
    return chi, np.concatenate([np.stack((w.real, w.imag), axis=1).ravel(), grad_logits])


def _line_search(fun, x, f0, p, slope0: float, stp: float):
    """x, f and g at a step along descent direction p, or None after 20 evaluations.

    Backtracking with expansion (Nocedal & Wright, sections 3.1 and 3.5): a
    step is accepted when f <= f0 + 1e-3 step slope0, so a NaN value is
    rejected.  A rejected step shrinks to the minimizer of the quadratic
    through f0, slope0 and f, kept within [0.1, 0.5] of the step (halved if
    that fit is not finite).  An accepted step is returned once its slope is
    at least 0.9 slope0 (weak Wolfe); a steeper one is kept and the step
    doubles, until a rejected step returns the kept one.
    """
    kept = None
    for _ in range(20):
        x1 = x + stp * p
        f, g = fun(x1)
        if not f <= f0 + 1e-3 * stp * slope0:
            if kept is not None:
                return kept
            fit = -slope0 * stp * stp / (2.0 * (f - f0 - slope0 * stp))
            stp = min(max(fit, 0.1 * stp), 0.5 * stp) if math.isfinite(fit) else 0.5 * stp
        elif g @ p >= 0.9 * slope0:
            return x1, f, g
        else:
            kept, stp = (x1, f, g), 2.0 * stp
    return kept


def _lbfgs(fun, x: np.ndarray, maxiter: int):
    """Minimize ``fun`` (returning value and gradient) from x by L-BFGS.

    L-BFGS (Liu & Nocedal 1989): the direction is -H g from the two-loop
    recursion over the last 10 pairs (s, y), with H0 = s^T y / y^T y of the
    newest pair; a pair whose s^T y is not positive (at most eps |g^T s|) is
    skipped.  The first step along -g has unit length, later ones start at 1,
    and each comes from the weak Wolfe ``_line_search``.  Returns x, f, g at
    the end point and whether a stop rule of scipy's L-BFGS-B was met: the
    largest gradient entry is at most 1e-10, or one iteration lowers f by at
    most 1e-15 max(|f|, 1).  A failed line search clears the memory and
    retries along -g.  If that search fails too, the restart ends there, and
    it converged only if the gain that search predicted, |g|^2, was at most
    1e-15 max(|f|, 1), which no search can tell from rounding; ``maxiter``
    iterations return False.
    """
    f, g = fun(x)
    pairs, scale, iters = [], 1.0, 0
    while np.abs(g).max() > 1e-10:
        q, alphas = g.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        q *= scale
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        p, slope = -q, -(g @ q)
        step = None
        if slope < 0:
            first = 1.0 / math.sqrt(p @ p) if iters == 0 else 1.0
            step = _line_search(fun, x, f, p, slope, first)
        if step is None:
            if not pairs:
                return x, f, g, bool(-slope <= 1e-15 * max(abs(f), 1.0))
            pairs, scale = [], 1.0
            continue
        x1, f1, g1 = step
        iters += 1
        if iters >= maxiter:
            return x1, f1, g1, False
        if np.abs(g1).max() <= 1e-10 or f - f1 <= 1e-15 * max(abs(f), abs(f1), 1.0):
            return x1, f1, g1, True
        s, y = x1 - x, g1 - g
        sy = s @ y
        if sy > np.finfo(float).eps * -(g @ s):
            pairs = [*pairs[-9:], (s, y, 1.0 / sy)]
            scale = sy / (y @ y)
        x, f, g = x1, f1, g1
    return x, f, g, True


def _maximize(value_and_grad, starts, maxiter: int):
    """Best of the L-BFGS ascents (``_lbfgs`` on the negated objective) from each start.

    The stats count every objective call in ``nfev``.  ``success`` holds, per
    restart, whether a stop rule was met; a restart that ends at ``maxiter``,
    or on a failed line search that predicted more than float precision, reads
    False and does not raise.  Its ``grad_norm`` entry is the largest gradient
    entry at the end point.
    """
    nfev = 0

    def negated(x):
        nonlocal nfev
        nfev += 1
        value, grad = value_and_grad(x)
        return -value, -grad

    best_val, best_x, success, grad_norm = -np.inf, None, [], []
    for x0 in starts:
        x, f, g, ok = _lbfgs(negated, x0, maxiter)
        success.append(ok)
        grad_norm.append(float(np.abs(g).max()))
        if -f > best_val:
            best_val, best_x = -f, x
    return float(best_val), best_x, {"nfev": nfev, "success": success, "grad_norm": grad_norm}


def optimize_coherent_information(d: int, r: float, seed: int) -> tuple[float, np.ndarray, dict]:
    """Multi-start L-BFGS ascent of the coherent information, in base d.

    Deterministic for a given seed.  The square-root parametrization keeps
    iterates on the density-matrix manifold.  Each of 4 restarts runs
    ``_lbfgs`` (weak Wolfe line searches) for at most 2000 iterations, and
    converges once the largest gradient entry is at most 1e-10, or an
    iteration gains, or a failed search along the gradient predicted a gain
    of, at most 1e-15 max(|value|, 1).  Returns the best value,
    the input attaining it, and ``{"nfev": total objective calls, "success":
    [converged flag per restart], "grad_norm": [largest gradient entry at
    each restart's end point]}``.
    """
    d = channels._check_channel_d(d)
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(2 * d * d) for _ in range(4)]
    value, best_x, stats = _maximize(
        lambda x: _coherent_information_and_grad(x, d, r), starts, maxiter=2000
    )
    return value, _params_to_density(best_x, d), stats


def optimize_holevo(
    d: int, r: float, seed: int, ensemble_size: int | None = None
) -> tuple[float, list, dict]:
    """Multi-start L-BFGS ascent of chi over pure-state ensembles.

    An ensemble has ``ensemble_size`` members, d + 1 by default.  The method,
    base and stop rules are those of ``optimize_coherent_information``, with
    3 restarts of at most 3000 iterations.  Returns the best value, its
    (probability, state) ensemble, and the same ``stats`` dict.
    """
    d = channels._check_channel_d(d)
    size = d + 1 if ensemble_size is None else _check_integer(ensemble_size, "ensemble_size")
    if size < d:
        raise PreconditionError(f"ensemble size {size} < d={d}")
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(size * 2 * d + size) for _ in range(3)]
    value, best_x, stats = _maximize(
        lambda x: _holevo_and_grad(x, d, r, size), starts, maxiter=3000
    )
    return value, _params_to_ensemble(best_x, d, size), stats


# ---------------------------------------------------------------------------
# Degradability: solve the degrading map within the covariant block ansatz
# ---------------------------------------------------------------------------


def _signed_complement(d: int, k: int) -> np.ndarray:
    """V_k, the signed anti-identity that aligns forward block k with complement sector d - k.

    It sends the a-th ascending k-fermion code A (mode 0 the most significant bit) to its
    complement mask ^ A, the (C(d, k) - 1 - a)-th ascending (d-k)-fermion code, with sign
    (-1)^#{(i, j) : i in A, j not in A, j < i} = (-1)^(sum of A's modes - k(k-1)/2), and so
    intertwines block map k with the complement of block map d-k+1.  Built on each call.
    """
    bits = np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1) & 1  # [code, mode]
    codes = bits[bits.sum(axis=1) == k]
    return np.diag((-1.0) ** (codes @ np.arange(d) - k * (k - 1) // 2))[::-1]


def check_degradable(d: int, r: float, tol: float = 1e-9) -> VerificationReport:
    """Solve for the degrading map one output sector at a time and test complete positivity.

    Sub-check (a): the closed-form degrading weights form a distribution exactly when
    r <= pi/4.  Sub-check (b): within the covariant block ansatz, q_1 X -> W X W^dag (W
    takes forward sector k to complement sector k through V_k) plus, for m = 2..d, q_m
    times piece m, which feeds forward block 1 in rail order, divided by w_1, through
    block map m, solve M o G = G^c on the d^2 basis inputs.  Forward sector k is w_k T_k
    and complement sector m is w_(d-m+1) L_m, w_k being C(d-1, k-1) times the squared
    sector amplitude.  Piece m writes only complement sector m, so the system is
    triangular: the sector-1 rows fix q_1 by one projection, then the sector-m rows fix
    q_m.  The solved map's Choi matrix is the orthogonal sum of q_1 |Omega_W><Omega_W|
    (eigenvalue q_1 (2^d - 1)), of q_m / w_1 times piece m's Choi block (side d C(d, m))
    for each m, and of a null space (eigenvalue 0); its least eigenvalue, past the float
    range near pi/2 at d >= 6, is clamped at minus the largest float.  The one loop over m
    builds V_m (``_signed_complement``), T_m and L_m, and V_m T_m V_m^dag serves both piece
    0 and the intertwiner residual |V_m T_m V_m^dag - L_m|, equal to |V_m T_m - L_m V_m| as
    V_m is orthogonal; nothing is cached.  The report passes when both sub-checks agree with
    the theoretical r <= pi/4 boundary.
    """
    d = channels._check_channel_d(d, 2)
    _check_tol(tol)
    w = [a * a * math.comb(d - 1, k) for k, a in enumerate(channels._sector_amplitudes(d, r))]
    rail, q_solved, norms, least = channels.rail_reversal(d), [], [], [0.0]
    for m in range(1, d + 1):
        v, n = _signed_complement(d, m), math.comb(d, m)
        t_block = transfer_matrix(grassmann_block(d, m))
        lhat = transfer_matrix(complement_channel_rep(grassmann_block(d, d - m + 1)))
        # V_m T_m(X) V_m^dag (V_m is a real signed permutation): it must equal L_m(X), and
        # piece 0 writes w_m times it here
        unit = v @ t_block.reshape(n, n, -1).transpose(2, 0, 1) @ v.T
        unit = unit.transpose(1, 2, 0).reshape(n * n, -1)
        intertwined = float(np.linalg.norm(unit - lhat, axis=0).max())
        target, forward, size = w[d - m] * lhat, w[m - 1] * unit, 0.0
        if m == 1:  # piece 0 alone, projected on the unit column: w_1^2 underflows near pi/2
            t_first = t_block
            q = q1 = float(np.vdot(unit, target).real / np.vdot(unit, unit).real) / w[0]
            error = q1 * forward - target
            least.append(q1 * ((1 << d) - 1))  # q_1 |Omega_W><Omega_W|, |Omega_W|^2 = 2^d - 1
            big = max(1.0, abs(q1))  # every term grows like q_1; in its units, squares stay finite
        else:
            # piece m reads block 1 in rail order; fed by G it reads w_1 T_1 / w_1 = T_1
            piece = (rail.T @ unit.reshape(-1, d, d) @ rail).reshape(n * n, -1)
            column, rest = piece @ t_first, target - q1 * forward
            q = float(np.vdot(column, rest).real / np.vdot(column, column).real)
            error, size = q * column - rest, abs(q) * np.linalg.norm(column)
            choi = piece.reshape(n, n, d, d).transpose(2, 0, 3, 1).reshape(d * n, d * n)
            evals = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
            least.append(q / w[0] * (evals[0] if q >= 0 else evals[-1]))
        q_solved.append(q)
        gap = np.linalg.norm(v.T @ v - np.eye(n))
        norms.append((np.linalg.norm(forward), size, np.linalg.norm(error / big), intertwined, gap))
    forward_norms, sizes, errors, intertwined, gaps = zip(*norms)
    inter_residual, unitarity = max(intertwined), math.hypot(*gaps)
    # backward-style residual: the solved weights blow up like tan^(2(d-1))
    # near pi/2 and cancel heavily, so normalize by the evaluation magnitude
    scale = max(1.0, abs(q1) * math.hypot(*forward_norms) + sum(sizes))
    residual = float(math.hypot(*errors) / (scale / big))
    min_eig = max(float(min(least)), -np.finfo(float).max)  # q_m / w_1 passes 1e308 near pi/2

    formula = degrading_weights(d, r)
    q_gap = float(np.max(np.abs(np.array(q_solved) - formula.q)))
    expected = r <= math.pi / 4 + 1e-12
    cp_ok = min_eig >= -tol
    passed = (formula.valid == expected and residual <= tol and cp_ok == expected
              and inter_residual <= 1e-8 and unitarity <= 1e-8)
    return VerificationReport(
        check="degradable",
        params={"d": d, "r": r, "tol": tol},
        passed=bool(passed),
        worst_residual=residual,
        trials=[
            {
                "weights_valid": formula.valid,
                "expected_degradable": expected,
                "solve_residual": residual,
                "choi_min_eig": min_eig,
                "cp_ok": cp_ok,
                "q_solved": q_solved,
                "q_formula": [float(q) for q in formula.q],
                "q_gap": q_gap,
                "intertwiner_residual": inter_residual,
                "w_unitarity": unitarity,
            }
        ],
    )


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def check_covariance(d: int, r: float, seed: int) -> VerificationReport:
    """G(U psi U^dag) == R G(psi) R^dag with R the sector minor matrices."""
    d, trials, tol = channels._check_channel_d(d), 20, 1e-9
    fwd = grassmann_channel(d, r)
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(trials):
        u = random_su(d, rng)
        rep = np.zeros((fwd.out_dim, fwd.out_dim), dtype=complex)
        for k, rows in block_slices(fwd).items():
            rep[rows, rows] = fock.exterior_power(u, k)
        v = random_pure_state(d, rng)
        psi = np.outer(v, v.conj())
        rotated = apply_kraus(fwd.kraus, u @ psi @ u.conj().T)
        expected = rep @ apply_kraus(fwd.kraus, psi) @ rep.conj().T
        residuals.append(float(np.linalg.norm(rotated - expected)))
    worst = max(residuals)
    return VerificationReport(
        check="covariance",
        params={"d": d, "r": r, "trials": trials, "tol": tol, "seed": seed},
        passed=worst < tol,
        worst_residual=worst,
        trials=residuals,
    )


def check_wolf_eisert_form(d: int, k: int, seed: int) -> VerificationReport:
    """I - (d'-m) G_{d,k}(pure) is a rank-m projection; spectra are flat.

    The projection's eigenvalues are 1 - (d'-m) lambda over the output's
    eigenvalues lambda, so its rank is read from the output's spectrum.
    """
    d, k, trials = channels._check_channel_d(d), _check_integer(k, "k", "sector "), 50
    block = grassmann_block(d, k)
    d_out = math.comb(d, k)
    m = math.comb(d - 1, k)
    flat = 1.0 / math.comb(d - 1, k - 1)
    out = apply_kraus(block.kraus, _random_pure_projectors(d, trials, seed))
    proj = np.eye(d_out) - (d_out - m) * out
    out_evals = np.linalg.eigvalsh(out)[:, ::-1]
    ranks_ok = bool(np.all(((d_out - m) * out_evals <= 0.5).sum(axis=-1) == m))
    idem = np.abs(proj @ proj - proj).max(axis=(1, 2))
    flat_gap = np.abs(out_evals[:, : d_out - m] - flat).max(axis=1, initial=0.0)
    zero_gap = np.abs(out_evals[:, d_out - m :]).max(axis=1, initial=0.0)
    residuals = np.max([idem, flat_gap, zero_gap], axis=0).tolist()
    worst = max(residuals)
    return VerificationReport(
        check="wolf-eisert",
        params={"d": d, "k": k, "trials": trials, "seed": seed},
        passed=worst < 1e-9 and ranks_ok,
        worst_residual=worst,
        trials=residuals,
    )


def check_complementary_spectra(d: int, r: float, seed: int) -> VerificationReport:
    """Each complement sector is isospectral to its weighted block state."""
    d, trials = channels._check_channel_d(d), 20
    comp = complementary_channel(d, r)
    p = block_weights(d, r)
    psi = _random_pure_projectors(d, trials, seed)
    gamma_c = apply_kraus(comp.kraus, psi)
    residuals = np.zeros(trials)
    for m, rows in block_slices(comp).items():
        ev_block = np.linalg.eigvalsh(apply_kraus(grassmann_block(d, m).kraus, psi))
        gap = np.linalg.eigvalsh(gamma_c[:, rows, rows]) - p[d - m] * ev_block
        residuals = np.maximum(residuals, np.abs(gap).max(axis=1))
    worst = float(residuals.max())
    return VerificationReport(
        check="complementary-spectra",
        params={"d": d, "r": r, "trials": trials, "seed": seed},
        passed=worst < 1e-10,
        worst_residual=worst,
        trials=residuals.tolist(),
    )


def check_werner_holevo(d: int) -> VerificationReport:
    """Complement of the k=2 block equals the antisymmetric-Kraus channel.

    The complement rows live in the lexicographic 1-fermion C basis; the
    fixed rail identification maps them onto the computational basis.
    """
    d, tol = channels._check_channel_d(d), 1e-10
    comp = complement_channel_rep(grassmann_block(d, 2))
    rail = channels.rail_reversal(d)
    aligned = ChannelRep(rail @ comp.kraus, label="rail-aligned")
    choi_wh = choi_matrix(werner_holevo(d))
    choi_gap = float(np.linalg.norm(choi_matrix(aligned) - choi_wh))
    pt_min = check_ppt(choi_wh, d)
    return VerificationReport(
        check="werner-holevo",
        params={"d": d, "tol": tol},
        passed=choi_gap < tol and pt_min < -1e-6,
        worst_residual=choi_gap,
        trials=[{"choi_gap": choi_gap, "partial_transpose_min_eig": pt_min}],
    )


def check_factorization(r: float) -> VerificationReport:
    """Dense exponential of the pair generator vs the three-factor product."""
    tol = 1e-12
    delta = float(
        np.linalg.norm(fock.squeezing_unitary(1, r) - fock.factored_squeezing_unitary(1, r))
    )
    return VerificationReport(
        check="factorization",
        params={"r": r, "tol": tol},
        passed=delta < tol,
        worst_residual=delta,
        trials=[delta],
    )


def check_ppt(choi: np.ndarray, cut_dim: int) -> float:
    """Minimum eigenvalue of the partial transpose over the second factor.

    ``cut_dim``, the first factor's dimension, must be a Python or numpy integer
    of at least 1 that divides the matrix size; anything else raises.
    """
    total = choi.shape[0]
    if not isinstance(cut_dim, numbers.Integral) or cut_dim < 1:
        raise PreconditionError(f"cut dimension {cut_dim!r} is not a positive integer")
    if total % cut_dim:
        raise PreconditionError(f"cut dimension {cut_dim} does not divide {total}")
    other = total // cut_dim
    pt = choi.reshape(cut_dim, other, cut_dim, other).transpose(0, 3, 2, 1).reshape(total, total)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2).min())


def check_ppt_threshold(d: int) -> VerificationReport:
    """Werner-Holevo Choi matrix is NPT; the transpose-depolarizing one turns PPT at -1/(d^2-1)."""
    d = channels._check_channel_d(d, 2)
    pt_min = check_ppt(choi_matrix(werner_holevo(d)), d)
    threshold = -1.0 / (d * d - 1)
    below = check_ppt(channels.transpose_depolarizing(d, threshold - 1e-3), d)
    above = check_ppt(channels.transpose_depolarizing(d, threshold + 1e-3), d)
    return VerificationReport(
        check="ppt",
        params={"d": d},
        passed=pt_min < -1e-6 and below < -1e-12 and above > 1e-12,
        worst_residual=pt_min,
        trials=[{"wh_pt_min": pt_min, "below_threshold": below, "above_threshold": above}],
    )


def check_approximation_rate(d: int) -> VerificationReport:
    """|Q - Q'| decays quadratically in (1 - z): log-log slope in [1.8, 2.2]."""
    d, zs = _check_integer(d, "d"), (0.9, 0.99, 0.999, 0.9999)
    if d < 2:
        raise DomainError(f"the gap vanishes at d=1, so the rate check needs d >= 2; got d={d}")
    gaps = [
        abs(quantum_capacity_unruh(d, z, tol=1e-13).value - unruh_capacity_approx(d, z))
        for z in zs
    ]
    slope = float(np.polyfit(np.log([1.0 - z for z in zs]), np.log(gaps), 1)[0])
    return VerificationReport(
        check="approximation-rate",
        params={"d": d, "z": list(zs)},
        passed=1.8 <= slope <= 2.2,
        worst_residual=abs(slope - 2.0),
        trials=[{"slope": slope, "gaps": gaps}],
    )


# ---------------------------------------------------------------------------
# Capacity oracles against the closed forms, and the suites of ``verify``
# ---------------------------------------------------------------------------


def check_oracle_q(d: int, r: float, seed: int) -> VerificationReport:
    """Optimized coherent information, clamped at 0, within 1e-6 of the quantum capacity."""
    d = channels._check_channel_d(d)
    value, _, stats = optimize_coherent_information(d, r, seed)
    closed = quantum_capacity_grassmann(d, r)
    gap = abs(max(0.0, value) - closed)
    trials = [{"optimized": value, "closed_form": closed, **stats}]
    return VerificationReport("oracle-q", {"d": d, "r": r, "seed": seed}, gap < 1e-6, gap, trials)


def check_oracle_c(d: int, r: float, seed: int) -> VerificationReport:
    """Optimized Holevo chi at most 1e-6 above and 1e-4 below the classical capacity."""
    d = channels._check_channel_d(d)
    value, _, stats = optimize_holevo(d, r, seed)
    closed = classical_capacity_grassmann(d, r)
    passed, gap = closed - 1e-4 <= value <= closed + 1e-6, abs(value - closed)
    trials = [{"optimized": value, "closed_form": closed, **stats}]
    return VerificationReport("oracle-c", {"d": d, "r": r, "seed": seed}, passed, gap, trials)


# Suite name -> (does ``all`` run it at d, its reports at (d, r, seed, tol)), in report
# order.  Each call looks its check up in this module, so a wrapped ``check_*`` is used.
# werner-holevo, ppt and rate floor d at 2: their channel, or the rate's gap, needs it.
SUITES = {
    "degradable": (lambda d: 2 <= d <= CHANNEL_MAX_D,
                   lambda d, r, seed, tol: [check_degradable(d, r, tol=tol)]),
    "covariance": (lambda d: True, lambda d, r, seed, tol: [check_covariance(d, r, seed)]),
    "complementary-spectra": (lambda d: True, lambda d, r, seed, tol: [
        check_complementary_spectra(d, r, seed)]),
    "wolf-eisert": (lambda d: True, lambda d, r, seed, tol: [
        check_wolf_eisert_form(d, k, seed) for k in range(1, d + 1)]),
    "werner-holevo": (lambda d: True, lambda d, r, seed, tol: [check_werner_holevo(max(d, 2))]),
    "factorization": (lambda d: True, lambda d, r, seed, tol: [check_factorization(r)]),
    "oracle-q": (lambda d: d <= CHANNEL_MAX_D,
                 lambda d, r, seed, tol: [check_oracle_q(d, r, seed)]),
    "oracle-c": (lambda d: d <= CHANNEL_MAX_D,
                 lambda d, r, seed, tol: [check_oracle_c(d, r, seed)]),
    "ppt": (lambda d: True, lambda d, r, seed, tol: [check_ppt_threshold(max(d, 2))]),
    "rate": (lambda d: True, lambda d, r, seed, tol: [check_approximation_rate(max(d, 2))]),
}


def suite_reports(suite: str, d: int, r: float, seed: int, tol: float) -> list[VerificationReport]:
    """Reports of one suite, or with ``all`` of each suite that runs at d.

    A suite named outside its range still runs, and its check raises DomainError.
    """
    names = [name for name, (runs, _) in SUITES.items() if runs(d)] if suite == "all" else [suite]
    return [report for name in names for report in SUITES[name][1](d, r, seed, tol)]
