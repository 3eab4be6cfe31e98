"""Chain containers, samplers, and chain export.

Chains are iid draws (`sample_t_iid`) or Markov chains from an
independence Metropolis-Hastings kernel: `independence_mh` targets any
density with a Student-t proposal, and `discrete_mh` targets a finite
table with a uniform proposal.  Both MH samplers can record regeneration
times via retrospective splitting: for an independence chain with
importance ratio omega(x) = target(x)/proposal(x) and splitting constant
c, an accepted move x -> y is a regeneration with probability

    min(1, c/omega(x)) * min(1, omega(y)/c) / min(1, omega(y)/omega(x)),

evaluated here in log space.  A True entry in regen_marks at index i
means a new tour starts at state i; index 0 always starts a tour.  The
samplers draw the proposals and log omega, and `_run_imh` draws and frees
the rest: the accept uniforms, from which `_accepted` flags the accepted
indices in an n-byte mask, by vector rounds and a scalar tail, and then
the coin uniforms, kept only at those indices.  It returns each state's
index among the proposals and the marks, computed vectorized from the
accepted indices, bitwise equal to a per-step loop.  A marked chain of
length n peaks at about 5.7 n-length arrays of 8 bytes an entry: the
proposals, log omega and the state indices, plus five arrays over the
accepted indices for the splitting coin (about 0.54 n each for t chains).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import UnnormalizedDensity, t_density, t_label
from .errors import InvalidModelError

CHAIN_KINDS = ("iid", "markov")
# a lockstep round costs ~6 us up to a few hundred live segments and a scalar
# step ~85 ns, so rounds pay from ~64 (2-vCPU x86, numpy 2.4, Python 3.11)
_ROUND_MIN_LIVE = 64


def derive_seed(master_seed: int, *indices: int) -> int:
    """Deterministic child seed from a master seed and index path.

    Index-based (not schedule-based), so parallel and serial execution
    derive identical streams.  The path length is mixed in first because
    SeedSequence ignores trailing zero entropy words.
    """
    entropy = (len(indices), int(master_seed)) + tuple(int(i) for i in indices)
    ss = np.random.SeedSequence(entropy=entropy)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ChainSample:
    """One sampled chain tagged with the density it targets."""

    density_id: str
    states: np.ndarray
    kind: str
    seed: int
    regen_marks: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"chain kind must be one of {CHAIN_KINDS}")
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 1 or states.size < 1:
            raise ValueError("states must be a nonempty 1-d array")
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")
        object.__setattr__(self, "states", states)
        if self.regen_marks is not None:
            marks = np.asarray(self.regen_marks, dtype=bool)
            if marks.shape != states.shape:
                raise ValueError("regen_marks must match states in length")
            if not marks[0]:
                raise ValueError("a tour must start at index 0")
            object.__setattr__(self, "regen_marks", marks)

    @property
    def n(self) -> int:
        return self.states.size


@dataclass(frozen=True)
class SampleSet:
    """Chains from the k reference densities, in reference order."""

    chains: tuple[ChainSample, ...]

    def __post_init__(self):
        if len(self.chains) < 1:
            raise ValueError("a sample set needs at least one chain")
        ids = [c.density_id for c in self.chains]
        if len(set(ids)) != len(ids):
            raise ValueError("chains must target distinct densities")

    @property
    def n_per_chain(self) -> np.ndarray:
        return np.array([c.n for c in self.chains], dtype=np.int64)

    @property
    def n_total(self) -> int:
        return int(self.n_per_chain.sum())

    def check_aligned(self, references: Sequence[UnnormalizedDensity]) -> None:
        """Raise ValueError unless chain l targets references[l] for every l."""
        if len(self.chains) != len(references):
            raise ValueError("one chain per reference density required")
        for chain, ref in zip(self.chains, references):
            if chain.density_id != ref.id:
                raise ValueError(
                    f"chain order mismatch: {chain.density_id!r} vs {ref.id!r}"
                )


def sample_t_iid(
    df: float, mu: float, n: int, seed: int, density_id: str | None = None
) -> ChainSample:
    """iid draws from a Student-t with df degrees of freedom centered at mu."""
    if int(n) < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    states = mu + rng.standard_t(float(df), size=int(n))
    if not np.isfinite(states).all():  # standard_t overflows for a tiny df
        raise InvalidModelError(f"t{df:g} draws overflow to a non-finite state")
    return ChainSample(
        density_id=t_label(df, mu) if density_id is None else density_id,
        states=states,
        kind="iid",
        seed=int(seed),
    )


def _log_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Logs of n uniform draws, taken in place over the draws' buffer."""
    u = rng.random(n)
    with np.errstate(divide="ignore"):
        return np.log(u, out=u)


def _accepted(log_omega_prop: np.ndarray, log_u: np.ndarray, start: int) -> np.ndarray:
    """Mask of the proposals that the chain from proposal `start` accepts.

    A per-step loop over Python floats accepts proposal i >= 1 when
    log u_i < log omega_i - cur, cur being the current state's log omega.
    No state's log omega exceeds top, the proposals' largest, and a rounded
    difference never rises as cur does (an overflow saturates at -inf), so
    every state accepts a proposal with log u_i < log omega_i - top.  These
    certain accepts, found by one vector comparison, fix cur and so cut the
    chain into segments that run independently.  Sorted by length, the
    segments step in lockstep rounds that test the next proposal of every
    live segment by the loop's float64 expression, until fewer than
    _ROUND_MIN_LIVE are live; a scalar loop over memoryviews of the inputs
    finishes those.  So the mask is bitwise the loop's.
    """
    n = log_omega_prop.shape[0]
    accepted = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore"):  # quiet, like Python floats
        top = log_omega_prop.max()
        certain = np.flatnonzero(log_u[1:] < log_omega_prop[1:] - top) + 1
        accepted[certain] = True
        bounds = np.concatenate(([0], certain, [n]))
        del certain
        # segment j tests first[j] .. first[j] + length[j] - 1 from cur[j];
        # sorted by length, those live in round r are a suffix, and each
        # round advances their first in place
        length = np.diff(bounds) - 1
        cur = log_omega_prop[bounds[:-1]]
        cur[0] = log_omega_prop[start]
        order = np.flatnonzero(length)
        order = order[np.argsort(length[order])]
        first, length, cur = bounds[order] + 1, length[order], cur[order]
        del bounds, order
        r = live = 0
        while length.shape[0] - live >= _ROUND_MIN_LIVE:
            pos = first[live:]
            lw_y = log_omega_prop[pos]
            hit = log_u[pos] < lw_y - cur[live:]
            accepted[pos] = hit
            np.copyto(cur[live:], lw_y, where=hit)
            pos += 1
            r += 1
            live = int(np.searchsorted(length, r, side="right"))
    lw, lu, flag = map(memoryview, (log_omega_prop, log_u, accepted))
    stop = first[live:] + (length[live:] - r)
    for i0, i1, cur_lw in zip(first[live:].tolist(), stop.tolist(), cur[live:].tolist()):
        for i in range(i0, i1):
            lw_y = lw[i]
            if lu[i] < lw_y - cur_lw:
                flag[i] = True
                cur_lw = lw_y
    return accepted


def _run_imh(
    log_omega_prop: np.ndarray,
    rng: np.random.Generator,
    log_c: float | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Accept/reject recursion shared by the continuous and discrete kernels.

    Returns the index of each state among the proposals, and the marks.
    `rng` gives n accept uniforms and, when log_c is not None, n coin
    uniforms.  `_accepted` flags the accepted proposals, bitwise as the
    per-step loop does; the temporaries after it are updated in place.
    The trajectory depends only on log omega and the accept uniforms, so
    marking regenerations does not perturb it.  log omega is finite or
    -inf.  The chain starts at the first proposal with mass, and the
    recursion rejects every zero-mass proposal after it, so no zero-mass
    proposal is picked.
    """
    n = log_omega_prop.shape[0]
    finite = np.isfinite(log_omega_prop)
    start = int(np.argmax(finite))
    if not finite[start]:
        raise InvalidModelError("no proposal has positive target mass")
    del finite
    acc = np.flatnonzero(_accepted(log_omega_prop, _log_uniform(rng, n), start))
    pick = np.full(n, start, dtype=np.intp)
    pick[acc] = acc
    np.maximum.accumulate(pick, out=pick)
    if log_c is None:
        return pick, None
    log_coin = _log_uniform(rng, n)[acc]  # only the accepted moves can regenerate
    # accept x -> y: (min(0, c - x) + min(0, y - c)) - min(0, y - x), with
    # fmin ignoring NaN as min does; a zero's sign cannot flip the coin
    ly = log_omega_prop[acc]
    lx = np.empty_like(ly)
    lx[:1] = log_omega_prop[start]
    lx[1:] = ly[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # quiet, like Python floats
        log_r = np.subtract(log_c, lx)
        np.fmin(log_r, 0.0, out=log_r)
        np.subtract(ly, lx, out=lx)
        np.fmin(lx, 0.0, out=lx)
        ly -= log_c
        np.fmin(ly, 0.0, out=ly)
        log_r += ly
        log_r -= lx
    del lx, ly
    marks = np.zeros(n, dtype=bool)
    marks[acc[log_coin < log_r]] = True
    marks[0] = True
    return pick, marks


def independence_mh(
    target: UnnormalizedDensity,
    proposal_df: float,
    proposal_mu: float,
    n: int,
    seed: int,
    with_regen: bool = False,
    splitting_const: float | None = None,
) -> ChainSample:
    """Independence MH chain of length n targeting `target`, with a
    Student-t proposal of proposal_df degrees of freedom at proposal_mu.

    The initial state is the first proposal draw with positive target
    mass.  With with_regen=True, regeneration times from retrospective
    splitting are recorded; the splitting constant defaults to the
    empirical median of omega over a pilot chain driven by a seed derived
    from `seed`, taken in log space, so it cannot underflow to zero.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    q = t_density(proposal_df, proposal_mu)
    df, mu = float(proposal_df), float(proposal_mu)
    log_c = None if splitting_const is None else log_splitting_const(splitting_const)
    if with_regen and log_c is None:
        log_c = tune_splitting_constant(
            target, q, df, mu, min(2000, max(100, n)), derive_seed(seed, 0x5147)
        )

    rng = np.random.default_rng(seed)
    proposals, log_omega = _t_proposals(target, q, df, mu, n, rng)
    pick, marks = _run_imh(log_omega, rng, log_c if with_regen else None)
    del log_omega
    return ChainSample(
        density_id=target.id,
        states=proposals[pick],
        kind="markov",
        seed=int(seed),
        regen_marks=marks,
    )


def _t_proposals(target, q, df, mu, n, rng) -> tuple[np.ndarray, np.ndarray]:
    """n draws from rng of q, the t density of df and mu, and log omega."""
    proposals = mu + rng.standard_t(df, size=n)
    log_q = q.log_eval(proposals)  # -inf where a tiny df overflows standard_t
    if np.any(np.isneginf(log_q)) or np.any(np.isnan(log_q)):
        raise InvalidModelError("proposal density vanished at its own draw")
    return proposals, target.log_density(proposals) - log_q


def log_splitting_const(splitting_const: float) -> float:
    """Log of a splitting constant, which must be positive and finite."""
    if not 0.0 < splitting_const < math.inf:
        raise ValueError("splitting_const must be positive and finite")
    return math.log(splitting_const)


def tune_splitting_constant(
    target: UnnormalizedDensity,
    q: UnnormalizedDensity,
    proposal_df: float,
    proposal_mu: float,
    pilot_n: int,
    seed: int,
) -> float:
    """Log of the splitting constant: the median of log omega over a pilot
    chain's states, read from the log omega of its proposals from q."""
    rng = np.random.default_rng(seed)
    log_omega = _t_proposals(target, q, proposal_df, proposal_mu, pilot_n, rng)[1]
    return float(np.median(log_omega[_run_imh(log_omega, rng, None)[0]]))


def discrete_mh(
    target: UnnormalizedDensity,
    n: int,
    seed: int,
    with_regen: bool = False,
    splitting_const: float | None = None,
) -> ChainSample:
    """Independence MH on a finite table density with a uniform proposal.

    Uniformly ergodic whenever the table is positive somewhere.  omega is
    proportional to the table value, which is all the splitting recipe
    needs since constants cancel.
    """
    if target.size is None:
        raise InvalidModelError("discrete_mh needs a discrete table density")
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    size = int(target.size)
    log_tab = target.log_density(np.arange(size, dtype=float))

    rng = np.random.default_rng(seed)
    proposals = rng.integers(0, size, size=n).astype(float)
    log_omega = log_tab[proposals.astype(np.int64)]
    if with_regen and splitting_const is None:
        # pilot-free: the table is the whole state space, use its positive median
        pos = np.exp(log_tab[np.isfinite(log_tab)])
        splitting_const = float(np.median(pos))
    log_c = log_splitting_const(splitting_const) if with_regen else None
    pick, marks = _run_imh(log_omega, rng, log_c)
    return ChainSample(
        density_id=target.id,
        states=proposals[pick],
        kind="markov",
        seed=int(seed),
        regen_marks=marks,
    )


def save_chain(chain: ChainSample, path) -> None:
    """Write a chain as columnar text with a metadata header.

    States are printed with 17 significant digits so the round trip is
    exact for IEEE doubles: ``np.loadtxt(path, skiprows=2)`` reads the
    states (and the 0/1 regeneration marks) back bit for bit.
    """
    meta = {
        "density_id": chain.density_id,
        "kind": chain.kind,
        "seed": chain.seed,
        "n": chain.n,
    }
    marks = chain.regen_marks is not None
    rows = np.column_stack([chain.states, chain.regen_marks]) if marks else chain.states
    header = "# " + json.dumps(meta) + ("\nstate regen" if marks else "\nstate")
    np.savetxt(path, rows, fmt="%.17g %d" if marks else "%.17g", header=header, comments="")
