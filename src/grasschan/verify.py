"""Brute-force oracles and property checks for the channel family.

Every check returns a VerificationReport whose ``passed`` flag means "the
observed behavior matches the theory", so a check expecting failure (e.g.
non-degradability beyond r = pi/4) passes when the failure occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from . import channels, fock
from .capacity import (
    block_weights,
    degrading_weights,
    log_base_value,
    quantum_capacity_grassmann_unclamped,
    quantum_capacity_unruh,
    unruh_capacity_approx,
)
from .channels import (
    ChannelRep,
    apply_kraus,
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
    "check_capacity_upper_bound",
    "check_approximation_rate",
    "random_su",
    "random_pure_state",
    "random_density",
]


@dataclass
class VerificationReport:
    check: str
    params: dict
    passed: bool
    worst_residual: float
    trials: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "worst_residual": self.worst_residual,
            "trials": self.trials,
        }


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


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Entropic quantities
# ---------------------------------------------------------------------------

_EIG_FLOOR = 1e-14


def von_neumann_entropy(rho, base: float = 2.0) -> float:
    """-sum lambda log lambda over eigenvalues above 1e-14."""
    evals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    evals = evals[evals > _EIG_FLOOR]
    return float(-(evals * np.log(evals)).sum() / math.log(base))


def _entropy_and_log(sigma: np.ndarray, ln_base: float) -> tuple[float, np.ndarray]:
    """S(sigma) and L = -log+(sigma)/ln b from one eigh, so dS = tr(L dsigma).

    log+ zeroes the eigenvalues at or below the floor of von_neumann_entropy.
    """
    evals, vecs = np.linalg.eigh(sigma)
    logs = np.log(evals, out=np.zeros_like(evals), where=evals > _EIG_FLOOR)
    return float(-(evals * logs).sum() / ln_base), (vecs * (-logs / ln_base)) @ vecs.conj().T


def _apply_adjoint(kraus: list[np.ndarray], mat: np.ndarray) -> np.ndarray:
    """Heisenberg-picture map N^dag(X) = sum_m K_m^dag X K_m."""
    return sum(k.conj().T @ mat @ k for k in kraus)


@lru_cache(maxsize=128)
def _grassmann_pair(d: int, r: float) -> tuple[ChannelRep, ChannelRep]:
    return grassmann_channel(d, r), complementary_channel(d, r)


def coherent_information(d: int, r: float, rho_in, base="d") -> float:
    """H(channel output) - H(complementary output) for the given input."""
    fwd, comp = _grassmann_pair(d, r)
    mat = np.asarray(rho_in, dtype=complex)
    if mat.shape != (d, d):
        raise PreconditionError(f"input shape {mat.shape} != ({d}, {d})")
    base_val = log_base_value(base, d)
    return von_neumann_entropy(apply_kraus(fwd.kraus, mat), base_val) - von_neumann_entropy(
        apply_kraus(comp.kraus, mat), base_val
    )


def holevo_quantity(d: int, r: float, ensemble, base="d") -> float:
    """Holevo chi of a (probability, state) ensemble through the channel."""
    fwd, _ = _grassmann_pair(d, r)
    base_val = log_base_value(base, d)
    probs = np.array([p for p, _ in ensemble], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-10 or np.any(probs < -1e-15):
        raise PreconditionError("ensemble probabilities must form a distribution")
    outputs = [apply_kraus(fwd.kraus, np.asarray(s, dtype=complex)) for _, s in ensemble]
    avg = sum(p * o for p, o in zip(probs, outputs))
    return von_neumann_entropy(avg, base_val) - float(
        sum(p * von_neumann_entropy(o, base_val) for p, o in zip(probs, outputs))
    )


# ---------------------------------------------------------------------------
# Gradient optimizers (seeded multi-start L-BFGS on exact entropy gradients)
# ---------------------------------------------------------------------------


def _params_to_density(x: np.ndarray, d: int) -> np.ndarray:
    half = d * d
    factor = (x[:half] + 1j * x[half:]).reshape(d, d)
    gram = factor @ factor.conj().T
    tr = np.trace(gram).real
    if tr < 1e-12:
        return np.eye(d) / d
    return gram / tr


def _coherent_information_and_grad(x: np.ndarray, d: int, r: float, base="d"):
    """I_c at rho = F F^dag / tr(F F^dag) and its gradient in x = (Re F, Im F).

    With L = -log+(output)/ln b, dI_c = tr(G drho) for G = N^dag(L_A) -
    N^c^dag(L_C); through the parametrization the gradient in F is
    2 (G - tr(G rho) I) F / tr(F F^dag).
    """
    fwd, comp = _grassmann_pair(d, r)
    ln_base = math.log(log_base_value(base, d))
    rho = _params_to_density(x, d)
    s_a, l_a = _entropy_and_log(apply_kraus(fwd.kraus, rho), ln_base)
    s_c, l_c = _entropy_and_log(apply_kraus(comp.kraus, rho), ln_base)
    tr = float(x @ x)
    if tr < 1e-12:
        return s_a - s_c, np.zeros_like(x)
    g = _apply_adjoint(fwd.kraus, l_a) - _apply_adjoint(comp.kraus, l_c)
    factor = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
    step = (2.0 / tr) * (g - np.trace(g @ rho).real * np.eye(d)) @ factor
    return s_a - s_c, np.concatenate([step.real.ravel(), step.imag.ravel()])


def _ensemble_parts(x: np.ndarray, d: int, size: int):
    """Softmax weights, unit state vectors and raw norms of an ensemble point."""
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
    return weights / weights.sum(), unit, norms


def _params_to_ensemble(x: np.ndarray, d: int, size: int):
    probs, unit, _ = _ensemble_parts(x, d, size)
    return [(p, np.outer(u, u.conj())) for p, u in zip(probs, unit)]


def _holevo_and_grad(x: np.ndarray, d: int, r: float, size: int, base="d"):
    """chi of the pure-state ensemble at x and its gradient in x.

    State i moves along p_i N^dag(L_avg - L_i) projected onto the tangent of
    v_i/|v_i|; the logits get the softmax chain rule on the marginal values
    tr(L_avg N(psi_i)) - S(N(psi_i)).
    """
    fwd, _ = _grassmann_pair(d, r)
    ln_base = math.log(log_base_value(base, d))
    probs, unit, norms = _ensemble_parts(x, d, size)
    outputs = [apply_kraus(fwd.kraus, np.outer(u, u.conj())) for u in unit]
    s_avg, l_avg = _entropy_and_log(sum(p * o for p, o in zip(probs, outputs)), ln_base)
    parts = [_entropy_and_log(o, ln_base) for o in outputs]
    ents = np.array([s for s, _ in parts])
    marginal = np.array([np.vdot(l_avg, o).real for o in outputs]) - ents
    grad_states = np.zeros((size, 2, d))
    for i, (u, (_, l_i)) in enumerate(zip(unit, parts)):
        if norms[i] < 1e-12:
            continue
        hu = probs[i] * _apply_adjoint(fwd.kraus, l_avg - l_i) @ u
        w = (2.0 / norms[i]) * (hu - np.vdot(u, hu).real * u)
        grad_states[i] = w.real, w.imag
    grad_logits = probs * (marginal - probs @ marginal)
    return s_avg - float(probs @ ents), np.concatenate([grad_states.ravel(), grad_logits])


def _maximize(value_and_grad, starts, maxiter: int):
    """Best of L-BFGS-B ascents from each start, with the work they took.

    A restart that stops on a line-search failure at float precision is
    recorded as unsuccessful in ``stats["success"]``; it does not raise.
    """

    def negated(x):
        value, grad = value_and_grad(x)
        return -value, -grad

    best_val, best_x, nfev, success = -np.inf, None, 0, []
    for x0 in starts:
        res = minimize(
            negated,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": maxiter},
        )
        nfev += int(res.nfev)
        success.append(bool(res.success))
        if -res.fun > best_val:
            best_val, best_x = -res.fun, res.x
    return float(best_val), best_x, {"nfev": nfev, "success": success}


def optimize_coherent_information(
    d: int, r: float, restarts: int = 6, seed: int = 7, base="d"
) -> tuple[float, np.ndarray, dict]:
    """Multi-start gradient ascent of the coherent information.

    Deterministic for a given seed.  The square-root parametrization keeps
    iterates on the density-matrix manifold.  Returns the best value, the
    input attaining it, and ``{"nfev": total objective calls, "success":
    [converged flag per restart]}``.
    """
    if d > 6:
        raise DomainError(f"optimizer is capped at d=6, got d={d}")
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(2 * d * d) for _ in range(restarts)]
    value, best_x, stats = _maximize(
        lambda x: _coherent_information_and_grad(x, d, r, base), starts, maxiter=2000
    )
    return value, _params_to_density(best_x, d), stats


def optimize_holevo(
    d: int, r: float, ensemble_size: int | None = None, restarts: int = 4, seed: int = 11, base="d"
) -> tuple[float, list, dict]:
    """Multi-start gradient ascent of chi over pure-state ensembles.

    Returns the best value, its (probability, state) ensemble, and the same
    ``stats`` dict as ``optimize_coherent_information``.
    """
    if d > 4:
        raise DomainError(f"ensemble optimizer is capped at d=4, got d={d}")
    size = ensemble_size if ensemble_size is not None else d + 1
    if size < d:
        raise PreconditionError(f"ensemble size {size} < d={d}")
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(size * 2 * d + size) for _ in range(restarts)]
    value, best_x, stats = _maximize(
        lambda x: _holevo_and_grad(x, d, r, size, base), starts, maxiter=3000
    )
    return value, _params_to_ensemble(best_x, d, size), stats


# ---------------------------------------------------------------------------
# Degradability: solve the degrading map within the covariant block ansatz
# ---------------------------------------------------------------------------


def _sector_slices(d: int, side: str) -> list[slice]:
    # side "a": forward output sectors k=1..d; side "c": complement sectors j=0..d-1
    sizes = (
        [math.comb(d, k) for k in range(1, d + 1)]
        if side == "a"
        else [math.comb(d, j) for j in range(d)]
    )
    out, pos = [], 0
    for s in sizes:
        out.append(slice(pos, pos + s))
        pos += s
    return out


def _solve_intertwiner(a_maps: list[np.ndarray], b_maps: list[np.ndarray]) -> np.ndarray:
    """Unitary V with V A_t = B_t V for all t, via a nullspace + polar step."""
    n = a_maps[0].shape[0]
    eye = np.eye(n)
    stacked = np.vstack([np.kron(eye, a.T) - np.kron(b, eye) for a, b in zip(a_maps, b_maps)])
    _, _, vh = np.linalg.svd(stacked)
    v = vh[-1].conj().reshape(n, n)
    u, _, wh = np.linalg.svd(v)
    return u @ wh


@lru_cache(maxsize=32)
def _complement_intertwiners(d: int) -> tuple:
    """Unitaries V_k aligning complement sector d-k with the block map k.

    Complement sector d-k is sector d-k+1 of the r-free pair-state
    decomposition sliced by A code, normalized by its C(d-1, k-1) unit
    amplitudes per rail.
    """
    sectors = channels._pair_sectors(d)
    result = []
    for k in range(1, d + 1):
        t_block = transfer_matrix(grassmann_block(d, k))
        n = math.comb(d, k)
        ops = sectors[d - k] / math.sqrt(math.comb(d - 1, k - 1))
        lhat = transfer_matrix(ChannelRep(d, n, list(ops)))
        a_maps = [t_block[:, t].reshape(n, n) for t in range(d * d)]
        b_maps = [lhat[:, t].reshape(n, n) for t in range(d * d)]
        v = _solve_intertwiner(a_maps, b_maps)
        residual = max(np.linalg.norm(v @ a - b @ v) for a, b in zip(a_maps, b_maps))
        result.append((v, float(residual)))
    return tuple(result)


def check_degradable(d: int, r: float, tol: float = 1e-9) -> VerificationReport:
    """Solve for the degrading map and test complete positivity.

    Sub-check (a): the closed-form degrading weights form a distribution
    exactly when r <= pi/4.  Sub-check (b): within the covariant block
    ansatz (an identity-aligned piece plus sector block maps fed by the
    first block), solve the linear system M o G = G^c over a complete
    operator basis and report the least-squares residual and the minimum
    eigenvalue of the solved map's Choi matrix.  The report passes when
    both sub-checks agree with the theoretical r <= pi/4 boundary.
    """
    if not 2 <= d <= 4:
        raise DomainError(f"degradability check supports 2 <= d <= 4, got d={d}")
    fwd, comp = _grassmann_pair(d, r)
    t_fwd = transfer_matrix(fwd)
    t_comp = transfer_matrix(comp)
    d_a, d_c = fwd.out_dim, comp.out_dim
    weights = block_weights(d, r)
    a_slices = _sector_slices(d, "a")
    c_slices = _sector_slices(d, "c")
    inter = _complement_intertwiners(d)
    inter_residual = max(res for _, res in inter)

    # W maps forward sector k onto complement sector d-k through V_k
    w_mat = np.zeros((d_c, d_a), dtype=complex)
    for k in range(1, d + 1):
        w_mat[c_slices[d - k], a_slices[k - 1]] = inter[k - 1][0]
    unitarity = float(np.linalg.norm(w_mat.conj().T @ w_mat - np.eye(d_a)))

    # rail-ordered compression onto the first block feeds the sector maps
    r1 = np.zeros((d, d_a))
    r1[:, a_slices[0]] = np.eye(d)[::-1]
    pieces = [np.kron(w_mat, w_mat.conj())]
    for m in range(2, d + 1):
        v = inter[m - 1][0]
        embed = np.zeros((d_c, math.comb(d, m)), dtype=complex)
        embed[c_slices[d - m], :] = v
        t_block = transfer_matrix(grassmann_block(d, m))
        pieces.append(np.kron(embed, embed.conj()) @ t_block @ np.kron(r1, r1) / weights.p[0])

    columns = [(piece @ t_fwd).reshape(-1) for piece in pieces]
    a_mat = np.stack([np.concatenate([c.real, c.imag]) for c in columns], axis=1)
    b_vec = np.concatenate([t_comp.reshape(-1).real, t_comp.reshape(-1).imag])
    q_solved, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    # backward-style residual: the solved weights blow up like tan^(2(d-1))
    # near pi/2 and cancel heavily, so normalize by the evaluation magnitude
    scale = max(
        1.0, float(sum(abs(q) * np.linalg.norm(col) for q, col in zip(q_solved, columns)))
    )
    residual = float(np.linalg.norm(a_mat @ q_solved - b_vec) / scale)

    t_map = sum(q * piece for q, piece in zip(q_solved, pieces))
    choi = t_map.reshape(d_c, d_c, d_a, d_a).transpose(2, 0, 3, 1).reshape(d_a * d_c, d_a * d_c)
    choi = (choi + choi.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(choi).min())

    formula = degrading_weights(d, r)
    q_gap = float(np.max(np.abs(q_solved - formula.q)))
    expected = r <= math.pi / 4 + 1e-12
    cp_ok = min_eig >= -tol
    passed = (
        formula.valid == expected
        and residual <= tol
        and cp_ok == expected
        and inter_residual <= 1e-8
        and unitarity <= 1e-8
    )
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
                "q_solved": [float(q) for q in q_solved],
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


def check_covariance(
    d: int, r: float, trials: int = 20, tol: float = 1e-9, seed: int = 5
) -> VerificationReport:
    """G(U psi U^dag) == R G(psi) R^dag with R the sector minor matrices."""
    fwd, _ = _grassmann_pair(d, r)
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(trials):
        u = random_su(d, rng)
        rep = np.zeros((fwd.out_dim, fwd.out_dim), dtype=complex)
        pos = 0
        for k in range(1, d + 1):
            lam = fock.exterior_power(u, k)
            n = lam.shape[0]
            rep[pos : pos + n, pos : pos + n] = lam
            pos += n
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


def check_wolf_eisert_form(d: int, k: int, trials: int = 50, seed: int = 3) -> VerificationReport:
    """I - (d'-m) G_{d,k}(pure) is a rank-m projection; spectra are flat."""
    block = grassmann_block(d, k)
    d_out = math.comb(d, k)
    m = math.comb(d - 1, k)
    flat = 1.0 / math.comb(d - 1, k - 1)
    rng = np.random.default_rng(seed)
    residuals = []
    ranks_ok = True
    for _ in range(trials):
        v = random_pure_state(d, rng)
        out = apply_kraus(block.kraus, np.outer(v, v.conj()))
        proj = np.eye(d_out) - (d_out - m) * out
        evals = np.linalg.eigvalsh(proj)
        ranks_ok = ranks_ok and int((evals >= 0.5).sum()) == m
        idem = float(np.abs(proj @ proj - proj).max())
        out_evals = np.sort(np.linalg.eigvalsh(out))[::-1]
        spectrum = float(
            max(
                np.abs(out_evals[: d_out - m] - flat).max(initial=0.0),
                np.abs(out_evals[d_out - m :]).max(initial=0.0),
            )
        )
        residuals.append(max(idem, spectrum))
    worst = max(residuals)
    return VerificationReport(
        check="wolf-eisert",
        params={"d": d, "k": k, "trials": trials, "seed": seed},
        passed=worst < 1e-9 and ranks_ok,
        worst_residual=worst,
        trials=residuals,
    )


def check_complementary_spectra(
    d: int, r: float, trials: int = 20, seed: int = 9
) -> VerificationReport:
    """Each complement sector is isospectral to its weighted block state."""
    _, comp = _grassmann_pair(d, r)
    weights = block_weights(d, r)
    c_slices = _sector_slices(d, "c")
    blocks = {m: grassmann_block(d, m) for m in range(1, d + 1)}
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(trials):
        v = random_pure_state(d, rng)
        psi = np.outer(v, v.conj())
        gamma_c = apply_kraus(comp.kraus, psi)
        worst = 0.0
        for m in range(1, d + 1):
            sector = gamma_c[c_slices[d - m], c_slices[d - m]]
            ev_sector = np.sort(np.linalg.eigvalsh(sector))
            ev_block = np.sort(np.linalg.eigvalsh(apply_kraus(blocks[m].kraus, psi)))
            worst = max(worst, float(np.abs(ev_sector - weights.p_tilde[m - 1] * ev_block).max()))
        residuals.append(worst)
    worst = max(residuals)
    return VerificationReport(
        check="complementary-spectra",
        params={"d": d, "r": r, "trials": trials, "seed": seed},
        passed=worst < 1e-10,
        worst_residual=worst,
        trials=residuals,
    )


def check_werner_holevo(d: int, tol: float = 1e-10) -> VerificationReport:
    """Complement of the k=2 block equals the antisymmetric-Kraus channel.

    The complement rows live in the lexicographic 1-fermion C basis; the
    fixed rail identification maps them onto the computational basis.
    """
    comp = complement_channel_rep(grassmann_block(d, 2))
    rail = channels.rail_reversal(d)
    aligned = ChannelRep(d, d, [rail @ op for op in comp.kraus], None, label="rail-aligned")
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


def check_factorization(r: float, tol: float = 1e-12) -> VerificationReport:
    """Dense exponential of the pair generator vs the three-factor product."""
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
    """Minimum eigenvalue of the partial transpose over the second factor."""
    total = choi.shape[0]
    if total % cut_dim:
        raise PreconditionError(f"cut dimension {cut_dim} does not divide {total}")
    other = total // cut_dim
    pt = choi.reshape(cut_dim, other, cut_dim, other).transpose(0, 3, 2, 1).reshape(total, total)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2).min())


def check_capacity_upper_bound(
    d: int, r: float, samples: int = 200, seed: int = 13
) -> VerificationReport:
    """No input beats the maximally mixed one (r inside the degradable range)."""
    if r > math.pi / 4 + 1e-12:
        raise DomainError("the maximally-mixed optimum claim holds for r <= pi/4")
    reference = coherent_information(d, r, np.eye(d) / d)
    closed = quantum_capacity_grassmann_unclamped(d, r)
    rng = np.random.default_rng(seed)
    excess = [
        coherent_information(d, r, random_density(d, rng)) - reference for _ in range(samples)
    ]
    worst = float(max(excess))
    return VerificationReport(
        check="capacity-upper-bound",
        params={"d": d, "r": r, "samples": samples, "seed": seed},
        passed=worst <= 1e-9 and abs(reference - closed) < 1e-9,
        worst_residual=worst,
        trials=[{"reference": reference, "closed_form": closed, "max_excess": worst}],
    )


def check_approximation_rate(d: int, zs=(0.9, 0.99, 0.999, 0.9999)) -> VerificationReport:
    """|Q - Q'| decays quadratically in (1 - z): log-log slope in [1.8, 2.2]."""
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
