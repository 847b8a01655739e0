"""Joint MMSE relay/destination transceiver design.

The relay matrix factors as ``Q = B L``: a Wiener receiver ``L`` for the
first hop followed by a precoder ``B`` for the second. The optimal
precoder aligns the top eigenvectors of the receiver-output covariance
``R_y`` with those of ``G^H G`` and water-fills power across the paired
eigenmodes under the relay power budget. The resulting error covariance
splits into independent first-hop and second-hop terms; an algebraically
independent direct formula is kept alongside as a cross-check and for
evaluating arbitrary (non-optimal) relay matrices.

The water level has a closed form on the active set of modes, which
the per-draw design and the batched one share. For Monte Carlo work,
``optimal_gamma_batch`` gives the per-stream SINR of the optimal design
for a whole stack of draws without forming ``Q`` or ``W``, from the
eigenpairs of the order-M Gram of ``h`` (closed form at M = 2, ``eigh``
otherwise) and the spectrum of ``G^H G``: each stream's MSE is ``rho``
plus a sum over the M live modes of ``|V_ik|^2 (1 / (phi_k^2 lambda_g_k +
1/lambda_y_k) - lambda_y_k)``. ``build_design`` with ``error_cov_decomposed`` /
``error_cov_direct`` stays the per-draw oracle it is checked against.

Everything here works for any antenna configuration, including more
source antennas than relay or destination antennas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemConfig
from .numerics import (
    ContractViolation,
    _check_array,
    _check_scalar,
    _gram2_eigh,
    _gram_eigvals,
    _gram_entries,
    eig_hermitian_desc,
    solve_hermitian_psd,
)

__all__ = [
    "RankDeficiencyError",
    "TransceiverDesign",
    "ErrorCovariance",
    "relay_receiver",
    "signal_covariance",
    "ry_identity_gap",
    "waterfill_phi",
    "waterfill_phi_batch",
    "build_design",
    "destination_receiver",
    "destination_receiver_second_hop",
    "error_cov_decomposed",
    "error_cov_direct",
    "optimal_gamma_batch",
    "relay_power",
]

# Tolerances fixed by the module contracts.
RANK_DEFICIENCY_RTOL = 1e-14


class RankDeficiencyError(RuntimeError):
    """Top-M eigenvalues of R_y were numerically singular."""


@dataclass(frozen=True)
class TransceiverDesign:
    """All designed matrices and eigen-data for one channel realization."""

    l: np.ndarray          # n_s x n_r relay Wiener receiver
    r_y: np.ndarray        # n_s x n_s receiver-output covariance
    u_y_tilde: np.ndarray  # n_s x M, top-M eigenvectors of r_y
    lambda_y: np.ndarray   # M, descending, in (0, rho)
    v_g_tilde: np.ndarray  # n_r x M, top-M eigenvectors of G^H G
    lambda_g: np.ndarray   # M, descending, exact zeros beyond rank of G
    phi: np.ndarray        # M, nonnegative water-filling magnitudes
    nu: float              # water level; +inf when the second hop is dead
    b: np.ndarray          # n_r x n_s precoder, v_g_tilde @ diag(phi) @ u_y_tilde^H
    q: np.ndarray          # n_r x n_r relay matrix, b @ l
    w: np.ndarray          # n_s x n_d destination MMSE receiver


@dataclass(frozen=True)
class ErrorCovariance:
    """MMSE error covariance with per-stream MSE and SINR."""

    r_e: np.ndarray             # n_s x n_s Hermitian, 0 < r_e <= rho*I
    per_stream_mse: np.ndarray  # real diagonal of r_e
    gamma: np.ndarray           # per-stream SINR, rho/mse - 1


def _relay_output(h: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    # The receiver L and its output covariance R_y from one solve.
    _check_scalar("rho", rho, low=0, open_low=True)
    h = _check_array("h", np.asarray(h, dtype=np.complex128), shape=(None, None))
    a = rho * (h @ h.conj().T) + np.eye(h.shape[0])
    l = rho * solve_hermitian_psd(a, h).conj().T
    r_y = l @ a @ l.conj().T
    return l, 0.5 * (r_y + r_y.conj().T)


def relay_receiver(h: np.ndarray, rho: float) -> np.ndarray:
    """First-hop Wiener receiver ``rho H^H (rho H H^H + I)^-1``."""
    return _relay_output(h, rho)[0]


def signal_covariance(h: np.ndarray, rho: float) -> np.ndarray:
    """Covariance of the relay receiver output, ``L (rho H H^H + I) L^H``."""
    return _relay_output(h, rho)[1]


def _ry_complement_form(h: np.ndarray, rho: float) -> np.ndarray:
    # Equivalent resolvent expression rho*I - (H^H H + I/rho)^-1.
    n_s = h.shape[1]
    inner = h.conj().T @ h + np.eye(n_s) / rho
    return rho * np.eye(n_s) - solve_hermitian_psd(inner, np.eye(n_s))


def ry_identity_gap(h: np.ndarray, rho: float) -> float:
    """Relative Frobenius gap between the two forms of R_y (should be ~0)."""
    direct = signal_covariance(h, rho)
    alt = _ry_complement_form(h, rho)
    ref = max(float(np.linalg.norm(direct)), 1e-300)
    return float(np.linalg.norm(direct - alt)) / ref


def waterfill_phi_batch(
    lambda_y: np.ndarray, lambda_g: np.ndarray, p_r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Water-fill relay power across paired eigenmodes, one row per draw.

    ``lambda_y`` and ``lambda_g`` are (n, M) stacks, each row sorted
    descending, so the products ``p_k = lambda_y[k] * lambda_g[k]`` are
    descending too. With the top ``j`` modes active the budget fixes the
    water level in closed form,

        sqrt(nu_j) = sum_{k<=j} sqrt(p_k) / lambda_g[k]
                     / (p_r + sum_{k<=j} 1 / lambda_g[k]),

    and the active set is the largest ``j`` with ``p_j > nu_j``. Returns
    ``phi`` (n, M) and ``nu`` (n,); rows where every mode is dead get
    ``phi = 0`` and ``nu = +inf``.
    """
    lambda_y = _check_array("lambda_y", np.asarray(lambda_y, dtype=np.float64), low=0, shape=(None, None))
    lambda_g = _check_array("lambda_g", np.asarray(lambda_g, dtype=np.float64), low=0, shape=lambda_y.shape)
    for name, vec in (("lambda_y", lambda_y), ("lambda_g", lambda_g)):
        if np.any(np.diff(vec, axis=1) > 1e-12 * (1.0 + vec[:, :-1])):
            raise ContractViolation(f"{name} must be sorted descending")
    _check_scalar("p_r", p_r, low=0, open_low=True)

    products = lambda_y * lambda_g
    active = products > 0
    root_p = np.sqrt(products)
    with np.errstate(divide="ignore"):
        inv_g = np.where(active, 1.0 / lambda_g, 0.0)
    root_nu = np.cumsum(root_p * inv_g, axis=1) / (p_r + np.cumsum(inv_g, axis=1))
    feasible = active & (root_p > root_nu)
    last = feasible.shape[1] - 1 - np.argmax(feasible[:, ::-1], axis=1)
    root_level = np.where(feasible.any(axis=1), root_nu[np.arange(last.size), last], np.inf)
    nu = root_level**2
    safe = np.where(active, products, 1.0)
    squared = np.where(active, np.maximum(np.sqrt(safe / nu[:, None]) - 1.0, 0.0) / safe, 0.0)
    return np.sqrt(squared), nu


def waterfill_phi(lambda_y: np.ndarray, lambda_g: np.ndarray, p_r: float) -> tuple[np.ndarray, float]:
    """Water-fill relay power across paired eigenmodes of one draw.

    Returns the nonnegative diagonal magnitudes ``phi`` and the water
    level ``nu``. Modes with a dead second hop get exactly zero power;
    when every mode is dead, ``phi = 0`` and ``nu = +inf``. Otherwise the
    budget binds: ``sum_k lambda_y[k] * phi[k]**2 == p_r`` within 1e-8
    relative.

    The one-row view of :func:`waterfill_phi_batch`: the water level is
    the closed form on the active set, not the root of a search.
    """
    lambda_y = _check_array("lambda_y", lambda_y, shape=(None,))
    lambda_g = _check_array("lambda_g", lambda_g, shape=lambda_y.shape)  # named in the caller's shapes
    phi, nu = waterfill_phi_batch(lambda_y[None], lambda_g[None], p_r)
    return phi[0], float(nu[0])


def _top_m_psd_eigs(matrix: np.ndarray, m: int, rank_limit: int) -> tuple[np.ndarray, np.ndarray]:
    # Top-m eigenpairs of a PSD Gram matrix; eigenvalues beyond the
    # structural rank are exactly zero by construction, so pin them there.
    eig = eig_hermitian_desc(matrix)
    values = eig.values[:m].copy()
    if rank_limit < m:
        values[rank_limit:] = 0.0
    return values, eig.vectors[:, :m]


def destination_receiver(h: np.ndarray, g: np.ndarray, q: np.ndarray, rho: float) -> np.ndarray:
    """MMSE receiver at the destination for relay matrix ``q``.

    ``rho (GQH)^H (rho GQH (GQH)^H + GQ (GQ)^H + I)^-1``; valid for any
    ``q``, not only the optimal one.
    """
    _check_scalar("rho", rho, low=0, open_low=True)
    h = _check_array("h", h, shape=(None, None))
    g = _check_array("g", g, shape=(None, h.shape[0]))
    f = g @ _check_array("q", q, shape=(h.shape[0], h.shape[0]))
    t = f @ h
    n_d = g.shape[0]
    s = rho * (t @ t.conj().T) + f @ f.conj().T + np.eye(n_d)
    s = 0.5 * (s + s.conj().T)
    return rho * solve_hermitian_psd(s, t).conj().T


def destination_receiver_second_hop(r_y: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Equivalent receiver form ``R_y B^H G^H (G B R_y B^H G^H + I)^-1``."""
    g = _check_array("g", g, shape=(None, None))
    b = _check_array("b", b, shape=(g.shape[1], None))
    r_y = _check_array("r_y", r_y, shape=(b.shape[1], b.shape[1]))
    gb = g @ b
    n_d = g.shape[0]
    s = gb @ r_y @ gb.conj().T + np.eye(n_d)
    s = 0.5 * (s + s.conj().T)
    return solve_hermitian_psd(s, gb @ r_y).conj().T


def _check_shapes(config: SystemConfig, chan: ChannelRealization) -> None:
    # the one check of a draw against a config
    _check_array("chan.h", chan.h, shape=(config.n_r, config.n_s))
    _check_array("chan.g", chan.g, shape=(config.n_d, config.n_r))


def build_design(config: SystemConfig, chan: ChannelRealization) -> TransceiverDesign:
    """Run the full design pipeline for one channel realization.

    Steps: relay Wiener receiver, receiver-output covariance and its
    top-M eigenbasis, second-hop Gram eigenbasis, water-filling, then the
    composed relay matrix and destination receiver. Handles every antenna
    configuration; a dead hop (``h = 0`` or ``g = 0``) degrades gracefully
    to ``q = 0``, ``w = 0``.
    """
    _check_shapes(config, chan)
    h, g = chan.h, chan.g
    rho, p_r = config.rho, config.p_r
    n_r, n_d = config.n_r, config.n_d
    m = config.m_dim

    l, r_y = _relay_output(h, rho)  # the relay_receiver and signal_covariance pair

    lambda_y, u_y_tilde = _top_m_psd_eigs(r_y, m, rank_limit=m)
    lambda_g, v_g_tilde = _top_m_psd_eigs(g.conj().T @ g, m, rank_limit=min(n_r, n_d))

    phi, nu = waterfill_phi(lambda_y, lambda_g, p_r)  # a dead hop gives phi = 0, nu = +inf
    b = (v_g_tilde * phi) @ u_y_tilde.conj().T
    q = b @ l
    w = destination_receiver(h, g, q, rho)
    return TransceiverDesign(
        l=l, r_y=r_y, u_y_tilde=u_y_tilde, lambda_y=lambda_y,
        v_g_tilde=v_g_tilde, lambda_g=lambda_g, phi=phi, nu=nu, b=b, q=q, w=w,
    )


def _error_cov_from_re(r_e: np.ndarray, rho: float) -> ErrorCovariance:
    r_e = 0.5 * (r_e + r_e.conj().T)
    mse = np.real(np.diag(r_e)).copy()
    gamma = rho / mse - 1.0
    return ErrorCovariance(r_e=r_e, per_stream_mse=mse, gamma=gamma)


def error_cov_decomposed(
    config: SystemConfig,
    chan: ChannelRealization,
    design: TransceiverDesign,
    relay_precoder: np.ndarray | None = None,
) -> ErrorCovariance:
    """Error covariance as a sum of first-hop and second-hop terms.

    Valid for any precoder acting through the top-M eigenbasis of R_y
    (``relay_precoder`` overrides ``design.b`` for such experiments); with
    the water-filled precoder the second term reduces to the diagonal
    form used by the rate bound.

    Raises
    ------
    RankDeficiencyError
        If the top-M eigenvalues of R_y are numerically singular, which
        has probability zero for random channels.
    """
    h = chan.h
    rho = config.rho
    n_s = config.n_s
    b = design.b if relay_precoder is None else _check_array("relay_precoder", relay_precoder, shape=design.b.shape)
    u = design.u_y_tilde
    lambda_y = design.lambda_y
    if lambda_y[-1] <= RANK_DEFICIENCY_RTOL * max(lambda_y[0], 0.0) or lambda_y[0] <= 0.0:
        raise RankDeficiencyError(
            f"top-{lambda_y.size} eigenvalues of R_y are numerically singular: "
            f"smallest {lambda_y[-1]:.3e} vs largest {lambda_y[0]:.3e}"
        )

    first = solve_hermitian_psd(h.conj().T @ h + np.eye(n_s) / rho, np.eye(n_s))
    gb_u = chan.g @ b @ u
    inner = gb_u.conj().T @ gb_u + np.diag(1.0 / lambda_y)
    inner = 0.5 * (inner + inner.conj().T)
    second = u @ solve_hermitian_psd(inner, np.eye(lambda_y.size)) @ u.conj().T
    return _error_cov_from_re(first + second, rho)


def error_cov_direct(config: SystemConfig, chan: ChannelRealization, q: np.ndarray) -> ErrorCovariance:
    """Error covariance of the end-to-end MMSE estimate for any relay ``q``.

    With ``T = G Q H`` and forwarded-noise covariance ``C = G Q Q^H G^H + I``,
    this is ``rho (I - W T)`` with ``W`` from :func:`destination_receiver`,
    i.e. ``rho I - rho^2 T^H (rho T T^H + C)^-1 T``. Serves as the
    independent oracle for the decomposition and for non-MMSE baselines.
    """
    w = destination_receiver(chan.h, chan.g, q, config.rho)
    r_e = config.rho * (np.eye(config.n_s) - w @ (chan.g @ q @ chan.h))
    return _error_cov_from_re(r_e, config.rho)


def optimal_gamma_batch(config: SystemConfig, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-stream SINR of the optimal design for a stack of draws.

    ``h`` is (n, n_r, n_s) and ``g`` is (n, n_d, n_r); returns (n, n_s).
    The M live eigenpairs ``(lambda_k, v_k)`` of ``H^H H`` come from the
    order-M Gram: ``H^H H`` when n_s <= n_r, else ``H H^H`` with
    eigenvectors ``u_k`` and ``v_k = H^H u_k / sqrt(lambda_k)``. At M = 2
    they come in closed form (``_gram2_eigh``) from the Gram's entries on
    the real planes of ``_gram_entries``, and on wide shapes ``|H^H u_k|^2``
    is formed on the (n_s, n) planes of ``h``'s rows; otherwise by ``eigh``.
    With ``lambda_y = rho^2 lambda / (rho lambda + 1)`` on the same
    eigenvectors, ``V`` unitary and ``1/(lambda + 1/rho) - rho = -lambda_y``,
    the diagonal of the two-term error covariance sums over the live modes:

        mse_i = rho + sum_{k<M} |V_ik|^2 (1 / (phi_k^2 lambda_g_k + 1/lambda_y_k) - lambda_y_k).

    The bracket is summed as ``-a_k lambda_y_k / (a_k + 1)``, ``a_k = phi_k^2
    lambda_g_k lambda_y_k``, and ``gamma = (rho - mse) / mse``: nothing cancels,
    a mode with ``lambda_k = 0`` weighs zero and a dead hop gives ``gamma = 0``.
    Each stack is scanned for NaN and inf once, here.
    """
    n_s, n_r, n_d, m = config.n_s, config.n_r, config.n_d, config.m_dim
    h = _check_array("channel stack h", np.asarray(h, dtype=np.complex128), shape=(None, n_r, n_s))
    g = _check_array("channel stack g", np.asarray(g, dtype=np.complex128), shape=(h.shape[0], n_d, n_r))
    rho = config.rho
    wide = n_s > n_r  # the weights below are then lambda_k |v_k|^2
    if m == 2:  # h's Gram from its entries, eigenpairs in closed form; u_1 = (p, q), u_2 = (-conj q, conj p)
        re, im, (a, b), upper = _gram_entries(h if wide else h.swapaxes(1, 2))
        lam, u1 = _gram2_eigh(a, b, upper[0, 1])
        p, q = u1.T
        if wide:  # H^H u_k on the (n_s, n) planes of h's rows
            x0, x1 = re + 1j * im
            v = np.stack([x0 * p.conj() + x1 * q.conj(), x1 * p - x0 * q]).transpose(2, 1, 0)
        else:  # h^T's Gram is conj(H^H H): conjugate eigenvectors, the same weights
            v = np.stack([u1, np.stack([-q.conj(), p.conj()], axis=-1)], axis=-1)
    else:
        herm = h.conj().swapaxes(-1, -2)
        lam, u = np.linalg.eigh(h @ herm if wide else herm @ h)
        lam = np.maximum(lam[:, ::-1], 0.0)
        v = herm @ u[:, :, ::-1] if wide else u[:, :, ::-1]
    weights = v.real**2 + v.imag**2

    lambda_y = rho**2 * lam / (rho * lam + 1.0)
    lambda_g = _gram_eigvals(g, m)
    phi, _ = waterfill_phi_batch(lambda_y, lambda_g, config.p_r)
    gain = phi**2 * lambda_g * lambda_y
    # rho - mse per unit weight; lambda_y / lambda = rho^2 / (rho lambda + 1) for the wide weights
    share = gain / (gain + 1.0) * (rho**2 / (rho * lam + 1.0) if wide else lambda_y)
    gained = np.einsum("nik,nk->ni", weights, share)
    return gained / (rho - gained)


def relay_power(h: np.ndarray, q: np.ndarray, rho: float) -> float:
    """Transmit power spent by the relay, ``Tr(Q (rho H H^H + I) Q^H)``."""
    h = _check_array("h", h, shape=(None, None))
    q = _check_array("q", q, shape=(h.shape[0], h.shape[0]))
    _check_scalar("rho", rho, low=0, open_low=True)
    a = rho * (h @ h.conj().T) + np.eye(h.shape[0])
    return float(np.real(np.trace(q @ a @ q.conj().T)))
