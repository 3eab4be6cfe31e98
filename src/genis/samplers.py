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
MH loop reads log omega and log u straight from their float64 buffers and
flags the accepted indices in an n-byte mask; states and the splitting
coin are computed vectorized from those indices, bitwise equal to a
per-step loop.  A marked chain of length n peaks at about seven n-length
float64 arrays: the proposals, log omega, the two uniform logs and the
states, plus four arrays over the accepted indices for the splitting
coin (about 0.54 n each for the shipped t chains).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import UnnormalizedDensity, t_label, t_log_density
from .errors import InvalidModelError

CHAIN_KINDS = ("iid", "markov")


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
    stage: int = 1

    def __post_init__(self):
        if len(self.chains) < 1:
            raise ValueError("a sample set needs at least one chain")
        ids = [c.density_id for c in self.chains]
        if len(set(ids)) != len(ids):
            raise ValueError("chains must target distinct densities")
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")

    @property
    def n_per_chain(self) -> np.ndarray:
        return np.array([c.n for c in self.chains], dtype=np.int64)

    @property
    def n_total(self) -> int:
        return int(self.n_per_chain.sum())

    def __len__(self) -> int:
        return len(self.chains)

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


def _run_imh(
    log_omega_prop: np.ndarray,
    proposals: np.ndarray,
    log_u: np.ndarray,
    log_coin: np.ndarray | None,
    log_c: float | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Accept/reject recursion shared by the continuous and discrete kernels.

    The loop indexes memoryviews of the float64 inputs, so it makes no
    Python copy of them, and flags each accepted index in a bytearray.
    States and the splitting coin are computed vectorized from the accepted
    indices, bitwise equal to a per-step loop; the temporaries are updated
    in place.  The trajectory depends only on (proposals, log_u), so
    marking regenerations does not perturb it.  log omega is finite or
    -inf.  The chain starts at the first proposal with mass, and the
    recursion rejects every zero-mass proposal after it, so no zero-mass
    state is emitted.
    """
    n = proposals.shape[0]
    finite = np.isfinite(log_omega_prop)
    start = int(np.argmax(finite))
    if not finite[start]:
        raise InvalidModelError("no proposal has positive target mass")
    del finite
    lw = memoryview(log_omega_prop)
    lu = memoryview(log_u)
    accepted = bytearray(n)
    cur_lw = lw[start]
    for i in range(1, n):
        lw_y = lw[i]
        if lu[i] < lw_y - cur_lw:
            accepted[i] = 1
            cur_lw = lw_y
    acc = np.flatnonzero(np.frombuffer(accepted, dtype=bool))
    del accepted
    pick = np.full(n, start, dtype=np.intp)
    pick[acc] = acc
    states = proposals[np.maximum.accumulate(pick, out=pick)]
    del pick
    if log_coin is None:
        return states, None
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
    marks[acc[log_coin[acc] < log_r]] = True
    marks[0] = True
    return states, marks


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
    from `seed`.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    df = float(proposal_df)
    mu = float(proposal_mu)
    if with_regen and splitting_const is None:
        splitting_const = tune_splitting_constant(
            target, df, mu, min(2000, max(100, n)), derive_seed(seed, 0x5147)
        )
    log_c = None if splitting_const is None else log_splitting_const(splitting_const)

    rng = np.random.default_rng(seed)
    proposals = mu + rng.standard_t(df, size=n)
    # a tiny df overflows standard_t or the square in q, where q vanishes
    with np.errstate(over="ignore"):
        log_q = t_log_density(df, mu, proposals)
    if np.any(np.isneginf(log_q)) or np.any(np.isnan(log_q)):
        raise InvalidModelError("proposal density vanished at its own draw")
    log_omega = target.log_density(proposals) - log_q
    del log_q
    log_u = _log_uniform(rng, n)
    log_coin = _log_uniform(rng, n) if with_regen else None
    states, marks = _run_imh(log_omega, proposals, log_u, log_coin, log_c)
    return ChainSample(
        density_id=target.id,
        states=states,
        kind="markov",
        seed=int(seed),
        regen_marks=marks,
    )


def log_splitting_const(splitting_const: float) -> float:
    """Log of a splitting constant, which must be positive and finite."""
    if not 0.0 < splitting_const < math.inf:
        raise ValueError("splitting_const must be positive and finite")
    return math.log(splitting_const)


def tune_splitting_constant(
    target: UnnormalizedDensity,
    proposal_df: float,
    proposal_mu: float,
    pilot_n: int,
    seed: int,
) -> float:
    """Splitting constant: median of omega over a pilot chain's states."""
    pilot = independence_mh(target, proposal_df, proposal_mu, pilot_n, seed)
    log_q = t_log_density(proposal_df, proposal_mu, pilot.states)
    log_omega = target.log_density(pilot.states) - log_q
    return float(np.exp(np.median(log_omega)))


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
    log_u = _log_uniform(rng, n)
    log_coin = _log_uniform(rng, n) if with_regen else None
    if with_regen and splitting_const is None:
        # pilot-free: the table is the whole state space, use its positive median
        pos = np.exp(log_tab[np.isfinite(log_tab)])
        splitting_const = float(np.median(pos))
    log_c = log_splitting_const(splitting_const) if with_regen else None
    states, marks = _run_imh(log_omega, proposals, log_u, log_coin, log_c)
    return ChainSample(
        density_id=target.id,
        states=states,
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
    has_marks = chain.regen_marks is not None
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta) + "\n")
        fh.write("state regen\n" if has_marks else "state\n")
        if has_marks:
            for x, m in zip(chain.states, chain.regen_marks):
                fh.write(f"{x:.17g} {int(m)}\n")
        else:
            for x in chain.states:
                fh.write(f"{x:.17g}\n")
