"""Fuzz every subcommand with configs built from the config dataclasses.

The strategy walks the fields that the config reader walks (`_fields`)
and fills each from a pool of small valid values and boundary ones:
chains of 1, 3 and 4 draws, coincident and far-apart locations, tiny and
huge df, disjoint tables, and splitting constants at the ends of float
range.  A pool draws only what `_validate` accepts for the references,
stage and targets drawn so far, except in the one field per config,
drawn about one time in four, that is broken on purpose: colliding
labels, tables of different lengths, a weight kind the stage refuses,
lists one too long, and the like.  So most examples reach estimation.

Each example runs every command through `cli.main` in-process.  Whatever
the config, the command exits with a documented code and no traceback or
warning (the suite turns warnings into errors), and a run that exits 0
reports finite estimates and standard errors.
"""

import contextlib
import functools
import csv
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from genis import cli
from genis.pipeline import ExperimentConfig, ReferenceConfig, WeightConfig, _fields

COMMANDS = ("estimate-d", "estimate", "replicate", "pilot-weights", "oracle-check",
            "export-chains")
# (1, 2, 0, 0) and (0, 0, 3, 4, 0) are disjoint; (1, 1) is shorter than every other
TABLES = ((1.0, 2.0, 0.5, 1.5, 1.0), (2.0, 1.0, 1.0, 0.5, 2.5), (1.0, 2.0, 0.0, 0.0),
          (0.0, 0.0, 3.0, 4.0, 0.0), (1.0, 1.0))
ALL_KINDS = ("naive", "fixed", "inv_dist", "ess", "pilot")
SMALL = (1, 3, 4)  # too few draws for batch means, or just enough


_PICKS: dict = {}


def _pick(values):
    """st.sampled_from(values), one object per pool, since hypothesis
    validates each new strategy it draws from; keyed by repr, as 1 == 1.0."""
    key = repr(values)
    if key not in _PICKS:
        _PICKS[key] = st.sampled_from(values)
    return _PICKS[key]


class Ctx(NamedTuple):
    """What a pool may read: the number of references, their family, the
    field broken on purpose (None for none), the top-level object drawn so
    far, the reference index, the stage block and the field being drawn."""
    k: int
    family: str
    broken: str | None
    top: dict
    index: int = 0
    stage: str = ""
    field: str = ""


def _valid(c, valid, invalid):
    """A value from `valid`, or from `invalid` in the field broken on purpose."""
    return _pick(invalid if c.field == c.broken else valid)


def _per_chain(common, rare):
    """One value per chain (one too many in the broken field), each from
    `common` and about one time in sixteen from `rare`."""
    def pool(c):
        item = st.integers(1, 16).flatmap(lambda i: _pick(rare if i == 16 else common))
        size = c.k + (c.field == c.broken)
        return st.lists(item, min_size=size, max_size=size)
    return pool


def _kinds(c):
    if c.stage == "stage2":
        t_only = c.family == "t" and c.top["targets"]["family"] == "t"
        valid = ("naive", "fixed", "inv_dist", "ess") if t_only else ("naive", "fixed")
    else:  # a stage1 block without stage2 also weighs the targets
        valid = ("naive", "fixed", "pilot") if "stage2" in c.top else ("naive", "fixed")
    return _valid(c, valid, tuple(kind for kind in ALL_KINDS if kind not in valid))


def _per_target(c, values):
    t = c.top["targets"]
    n = len(t["mu_grid"] if t["family"] == "t" else t["tables"])
    return _valid(c, tuple((v,) * n for v in values), ((values[0],) * (n + 1),))


def _unless_regenerative(common, other):
    """Burn-in and thinning: either value under "bm", else none."""
    return lambda c: (_pick((common, other)) if c.top["se_method"] == "bm"
                           else _valid(c, (common,), (other,)))


# per field, keyed "Class.field" where the name is shared: a tuple is drawn
# from uniformly, a callable gets the Ctx
POOLS = {
    "sampler": lambda c: _pick(("iid", "imh") if c.family == "t" else ("mh",)),
    "df": (5.0, 1.0, 0.5, 1e-3, 1e6, 1e300),
    "mu": (0.0, 1.0, 30.0, 1e308, -1e308),
    "proposal_df": (5.0, 1.0, 1e6),
    "proposal_mu": (1.0, 0.0, 50.0),
    "table": lambda c: _valid(c, TABLES[:2], TABLES[2:]),
    "with_regen": lambda c: (_pick((True, False)) if c.top["se_method"] == "bm"
                                  else _valid(c, (True,), (False,))),
    "splitting_const": (1.0, 1e-300, 1e300),
    # default labels of other references than the first may collide, as
    # two t labels do where df and mu do
    "label": lambda c: _valid(c, (f"r{c.index}", None if c.index else ""), ("a",)),
    "kind": _kinds,
    "values": _per_chain((1.0, 3.0), (1e-300,)),
    # none valid for k = 3; 1e-310 has an infinite 1/step
    "step": lambda c: _valid(c, (0.5, 0.25, 0.2)[c.k // 3:], (0.5, 1e-310)),
    "pilot_sizes": _per_chain((50,), SMALL),
    "sizes": _per_chain((50, 100), SMALL),
    "TargetConfig.family": lambda c: _valid(
        c, (c.family,), ("table" if c.family == "t" else "t",)),
    "TargetConfig.df": (5.0, 0.5, 1e300),
    "mu_grid": ((0.0,), (0.5,), (30.0,), (1e308,), (0.5, 2.0)),
    "tables": lambda c: _valid(
        c, ((TABLES[0],), ((0.0, 0.0, 0.0, 0.0, 1.0),), TABLES[:2]), ((TABLES[4],),)),
    "d": lambda c: _valid(c, ((1.0,) * (c.k - 1), (2.0,) * (c.k - 1)), ((1.0,) * c.k,)),
    "u": lambda c: _per_target(c, (1.0, 2.0)),
    "eta": lambda c: _per_target(c, (0.5, 2.0)),
    "integrand": ("x", None),
    "master_seed": (0, 1, 81),
    "burn_in": _unless_regenerative(0, 10),
    "thinning": _unless_regenerative(1, 3),
    "bm_nu": (0.5, 0.3),
    "bm_explicit_b": (1, 2),
    "se_method": ("bm", "rs", "both"),
    "assume_infinite_stage1": (False, True),
    "replications": (1, 2),
    "size_grid": ((3, 50), ()),
    "workers": (1,),  # a pool of processes per example would dominate the run
    "tail_guard": (1e3, 2.0),
}
BREAKABLE = ("table", "with_regen", "label", "kind", "values", "step", "pilot_sizes",
             "sizes", "TargetConfig.family", "tables", "d", "u", "eta", "burn_in",
             "thinning")
# fields drawn first, for the pools that read them
FIRST = ("se_method", "references", "targets", "stage2", "stage1")
# fields always written: those a reference of each family reads and its
# label, the targets, which estimate-d and a size grid drop for their
# stage-1 runs, the se_method the pools read, the values of fixed weights,
# and a pilot step (the default 0.05 makes 171 grid points for k = 3)
NEEDS = {"t": {"df", "mu", "proposal_mu", "with_regen", "label"},
         "table": {"table", "with_regen", "label"},
         "ExperimentConfig": {"targets", "se_method"},
         "StageConfig": {"weights"}, "WeightConfig": {"step"},
         "TargetConfig": {"family", "mu_grid", "tables"}}


def _needs(cls, c, raw):
    """The fields of `cls` always written, the broken one among them."""
    needs = {c.broken, *NEEDS.get(c.family if cls is ReferenceConfig else cls.__name__, ())}
    if cls is WeightConfig and raw.get("kind") == "fixed":
        needs.add("values")
    if cls is ExperimentConfig and c.broken in ("d", "u", "eta"):
        needs.add("truth")
    return needs


def _config_class(tp):
    """The config dataclass inside an annotation such as `X | None`, if any."""
    for arg in (tp, *getattr(tp, "__args__", ())):
        if isinstance(arg, type) and hasattr(arg, "__dataclass_fields__"):
            return arg
    return None


def _order(spec):
    return FIRST.index(spec[0]) if spec[0] in FIRST else len(FIRST)


@st.composite
def _object(draw, cls, c):
    raw = {}
    if cls is ExperimentConfig:
        c = c._replace(top=raw)
    for name, tp, required in sorted(_fields(cls), key=_order):
        if not (required or name in _needs(cls, c, raw) or draw(st.booleans())):
            continue  # left to the dataclass default
        if cls is ReferenceConfig and name == "family":
            raw[name] = c.family
        elif name == "references":
            raw[name] = [draw(_object(ReferenceConfig, c._replace(index=i)))
                         for i in range(c.k)]
        elif _config_class(tp) is not None:
            stage = name if name in ("stage1", "stage2") else c.stage
            raw[name] = draw(_object(_config_class(tp), c._replace(stage=stage)))
        else:
            key = f"{cls.__name__}.{name}"
            key = key if key in POOLS else name
            pool = POOLS[key]
            raw[name] = draw(pool(c._replace(field=key)) if callable(pool) else _pick(pool))
    return raw


# about one config in four has a field broken on purpose
broken = st.integers(1, 4).flatmap(lambda i: _pick(BREAKABLE) if i == 4 else st.none())
configs = st.tuples(st.integers(1, 3), _pick(("t", "table")), broken).flatmap(
    lambda kfb: _object(ExperimentConfig, Ctx(*kfb, top={})))


def _finite_rows(path, columns, skip=lambda row: False):
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not skip(row):
                for col in columns:
                    if row[col] != "":
                        assert math.isfinite(float(row[col])), (path.name, col, row)


def run_command(command, config: Path) -> int:
    """Run one command on the config file `config`, writing beside it;
    check its exit code and, on exit 0, that the CSVs it wrote hold finite
    estimates and errors."""
    out = config.parent / command
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    assert code in ((0, 1, 2, 3, 4, 5) if command == "oracle-check" else (0, 2, 3, 4, 5))
    if code == 0 and (out / "d_estimate.csv").exists():
        _finite_rows(out / "d_estimate.csv", ("d_hat", "se"))
    if code == 0 and (out / "targets.csv").exists():
        _finite_rows(out / "targets.csv", ("u_hat", "eta_hat", "se_u", "se_eta"),
                     skip=lambda row: row["flags"].startswith("error:"))
    return code


# configs that once crashed and that the strategy reaches only on other
# seeds: a table target 1e200 times a reference, whose u_hat squared leaves
# float range (OverflowError in estimate, replicate and oracle-check), and
# a near-normal imh reference with its proposal 50 away, whose tuned
# splitting constant is below float range (ValueError in every command)
HUGE_TABLE_TARGET = {
    "references": [{"family": "table", "sampler": "mh", "table": [1.0, 1.0], "label": "r0"}],
    "stage1": {"sizes": [50]},
    "stage2": {"sizes": [50]},
    "targets": {"family": "table", "tables": [[1e200, 1e200]]},
    "master_seed": 1,
}
FAR_IMH_PROPOSAL = {
    "references": [{"family": "t", "sampler": "imh", "df": 1e6, "mu": 0.0,
                    "proposal_mu": 50.0, "with_regen": True}],
    "stage1": {"sizes": [50]},
    "master_seed": 1,
}
# configs that once crashed in every command, or in estimate and replicate,
# with a traceback: a pilot step whose 1/step is inf (OverflowError), and a
# proposal or target df whose half underflows to lgamma's pole at 0
# (ValueError: math domain error)
TWO_T = [{"family": "t", "sampler": "iid", "df": 5.0, "mu": mu} for mu in (0.0, 1.0)]
SUBNORMAL_PILOT_STEP = {
    "references": TWO_T,
    "stage1": {"sizes": [50, 50], "weights": {"kind": "pilot", "step": 1e-310}},
    "master_seed": 1,
}
SUBNORMAL_PROPOSAL_DF = {
    "references": [{"family": "t", "sampler": "imh", "df": 5.0, "mu": 0.0,
                    "proposal_df": 5e-324, "proposal_mu": 1.0}],
    "stage1": {"sizes": [50]},
    "master_seed": 1,
}
SUBNORMAL_TARGET_DF = {
    "references": TWO_T,
    "stage1": {"sizes": [50, 50]},
    "targets": {"family": "t", "df": 5e-324, "mu_grid": [0.5]},
    "master_seed": 1,
}


def test_every_command_exits_cleanly_on_any_config(monkeypatch):
    """Also, the strategy reaches past config validation: at most 40% of
    the command runs exit 2.  The argument parser, which a process builds
    once, is built once here too: 1,200 builds would take a fifth of the
    run."""
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    codes: Counter = Counter()

    @given(raw=configs)
    @example(raw=HUGE_TABLE_TARGET)
    @example(raw=FAR_IMH_PROPOSAL)
    @example(raw=SUBNORMAL_PILOT_STEP)
    @example(raw=SUBNORMAL_PROPOSAL_DF)
    @example(raw=SUBNORMAL_TARGET_DF)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def run(raw):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(raw))
            for command in COMMANDS:
                codes[run_command(command, config)] += 1

    run()
    assert codes[2] <= 0.4 * sum(codes.values()), codes
