"""The model fits as separate regressions: the reference the one lifted fit is tested against.

``snapshot_columns`` copies the ``(x_k, x_{k+1}, u_k)`` columns of every
path, path by path. The dictionary fits lift ``x`` and ``x'`` of those
copies one after the other and regress the second on the first. The delay
fit regresses the newest-sample block on the delay lift of each batch and
writes every other row of the operator by hand: identity shifts in the
state block, the current input into the newest stored input, and identity
shifts over the stored inputs. A batch too short for the lifting gives no
columns.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np

from koopmpc import (
    DelayCoordinates,
    InsufficientDataError,
    LinearControlModel,
    Trajectory,
    identity_dictionary,
    lstsq_min_norm,
    recovery_matrix,
)
from koopmpc.numerics import DEFAULT_SVD_TOL


def _batches(trajectories):
    trajectories = [trajectories] if isinstance(trajectories, Trajectory) else list(trajectories)
    return [tr.as_batch() for tr in trajectories]


def snapshot_columns(trajectories, dt):
    """``x``, ``xp`` (n, m) and ``u`` (q, m): the snapshot pairs of every path, joined in path order."""
    batches = _batches(trajectories)
    n, q = batches[0][0].shape[0], batches[0][1].shape[0]
    return SimpleNamespace(
        x=np.concatenate([s[..., :-1].reshape(n, -1) for s, _ in batches], axis=1),
        xp=np.concatenate([s[..., 1:].reshape(n, -1) for s, _ in batches], axis=1),
        u=np.concatenate([u.reshape(q, u.shape[1] * u.shape[2]) for _, u in batches], axis=1),
        dt=dt,
    )


def snapshot_hash(data):
    """Short content hash of the snapshot columns and their spacing."""
    h = hashlib.sha256()
    for part in (data.x, data.xp, data.u):
        h.update(np.ascontiguousarray(part).tobytes())
    h.update(np.float64(data.dt).tobytes())
    return h.hexdigest()[:16]


def regress(reg, target, svd_tol):
    w = lstsq_min_norm(reg.T, target.T, svd_tol).T
    return w, math.sqrt(float(np.sum(np.square(w @ reg - target))))


def reference_fit_edmdc(trajectories, dic, dt, svd_tol=DEFAULT_SVD_TOL):
    """EDMDc on the snapshot copies, ``x`` and ``x'`` lifted one after the other."""
    data = snapshot_columns(trajectories, dt)
    d, q = dic.n_out, data.u.shape[0]
    if data.x.shape[1] < d + q:
        raise InsufficientDataError(f"need at least {d + q} samples, got {data.x.shape[1]}")
    reg = np.vstack([dic.lift_windows(data.x), data.u])
    w, residual = regress(reg, dic.lift_windows(data.xp), svd_tol)
    return LinearControlModel(
        a=w[:, :d], b=w[:, d:], c=recovery_matrix(dic), lifting=dic, dt=dt, kind="edmdc",
        fit_residual=residual, training_hash=snapshot_hash(data),
    )


def reference_fit_dmdc(trajectories, dt, svd_tol=DEFAULT_SVD_TOL):
    dic = identity_dictionary(_batches(trajectories)[0][0].shape[0])
    model = reference_fit_edmdc(trajectories, dic, dt, svd_tol)
    model.kind = "dmdc"
    return model


def reference_fit_delay(trajectories, depth, dt, svd_tol=DEFAULT_SVD_TOL, coords=None):
    """The newest-sample rows regressed on the delay lift; every other row written by hand."""
    batches = _batches(trajectories)
    n, q = batches[0][0].shape[0], batches[0][1].shape[0]
    dc = DelayCoordinates(depth, tuple(range(n)) if coords is None else coords, n, q)
    h, n_e, dim = dc.history_steps, dc.n_embed, dc.n_out
    used = [(s, u) for s, u in batches if s.shape[-1] > h + 1]
    if sum(s.shape[1] * (s.shape[-1] - h - 1) for s, _ in used) < dim + q:
        raise InsufficientDataError(f"need at least {dim + q} embedded columns")
    lifted = np.concatenate([dc.lift_windows(s[..., :-1], u).reshape(dim, -1) for s, u in used], axis=1)
    inputs = np.concatenate([u[..., h:].reshape(q, u.shape[1] * (u.shape[2] - h)) for _, u in used], axis=1)
    target = np.concatenate([s[list(dc.coords), :, h + 1 :].reshape(n_e, -1) for s, _ in used], axis=1)
    reg = np.vstack([lifted, inputs])
    w, residual = regress(reg, target, svd_tol)
    a = np.zeros((dim, dim))
    b = np.zeros((dim, q))
    a[:n_e] = w[:, :dim]
    b[:n_e] = w[:, dim:]
    for j in range(1, dc.depth):
        a[j * n_e : (j + 1) * n_e, (j - 1) * n_e : j * n_e] = np.eye(n_e)
    if h:
        r0 = dc.z_dim
        b[r0 : r0 + q] = np.eye(q)
        for j in range(1, h):
            a[r0 + j * q : r0 + (j + 1) * q, r0 + (j - 1) * q : r0 + j * q] = np.eye(q)
    c = np.hstack([np.eye(n_e), np.zeros((n_e, dim - n_e))])
    return LinearControlModel(
        a=a, b=b, c=c, lifting=dc, dt=dt, kind="delay-augmented", fit_residual=residual,
        training_hash=snapshot_hash(snapshot_columns(trajectories, dt)),
    )
