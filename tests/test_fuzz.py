"""Fuzz every subcommand with configs built from the config dataclasses.

The strategy walks the fields that the config reader walks (`_fields`)
and fills each from a pool that mixes small valid values with boundary
ones: chains of 1, 3 and 4 draws, coincident and far-apart locations,
tiny and huge df, tables of different lengths, and splitting constants
at the ends of float range.  Each example runs one command through
`cli.main` in-process.  Whatever the config, the command exits with a
documented code and no traceback or warning (the suite turns warnings
into errors), and a run that exits 0 reports finite estimates and
standard errors.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from genis import cli
from genis.pipeline import ExperimentConfig, ReferenceConfig, _fields

COMMANDS = ("estimate-d", "estimate", "replicate", "pilot-weights", "oracle-check",
            "export-chains")
SIZES = (50, 400, 1, 3, 4)
# (1, 2, 0, 0) and (0, 0, 3, 4, 0) are disjoint; (1, 1) is shorter than every other
TABLES = ((1.0, 2.0, 0.5, 1.5, 1.0), (2.0, 1.0, 1.0, 0.5, 2.5), (1.0, 2.0, 0.0, 0.0),
          (0.0, 0.0, 3.0, 4.0, 0.0), (1.0, 1.0))


def _per_chain(pool):
    """k values from `pool`, one time in sixteen one too many."""
    return lambda k, family: st.integers(0, 15).flatmap(
        lambda i: st.lists(st.sampled_from(pool), min_size=k + (i == 15),
                           max_size=k + (i == 15)))


# per field, keyed "Class.field" where the name is shared: the first values
# are small and valid, the rest sit at a boundary
POOLS = {
    "sampler": lambda k, family: st.sampled_from(("iid", "imh") if family == "t" else ("mh",)),
    "df": (5.0, 1.0, 0.5, 1e-3, 1e6, 1e300),
    "mu": (0.0, 1.0, 30.0, 1e308, -1e308),
    "proposal_df": (5.0, 1.0, 1e6),
    "proposal_mu": (1.0, 0.0, 50.0),
    "table": TABLES,
    "with_regen": (True, False),
    "splitting_const": (1.0, 1e-300, 1e300),
    "label": ("a", "b", "c", ""),
    "kind": ("naive", "fixed", "inv_dist", "ess", "pilot"),
    "values": _per_chain((1.0, 3.0, 1e-300)),
    "step": (0.5, 0.25, 0.2),
    "pilot_sizes": _per_chain((200, 1, 3, 4)),
    "sizes": _per_chain(SIZES),
    "TargetConfig.family": lambda k, family: st.sampled_from(  # one in four the other
        (family, family, family, "table" if family == "t" else "t")),
    "TargetConfig.df": (5.0, 0.5, 1e300),
    "mu_grid": ((0.0,), (0.5,), (30.0,), (1e308,), (0.5, 2.0)),
    "tables": ((TABLES[0],), (TABLES[4],), ((0.0, 0.0, 0.0, 0.0, 1.0),), TABLES[:2]),
    "d": lambda k, family: st.sampled_from(((1.0,) * (k - 1), (2.0,) * (k - 1), (1.0,) * k)),
    "u": ((1.0,), (1.0, 1.0)),
    "eta": ((0.5,), (0.5, 2.0)),
    "integrand": ("x", None),
    "master_seed": (0, 1, 81),
    "burn_in": (0, 10),
    "thinning": (1, 3),
    "bm_nu": (0.5, 0.3),
    "bm_explicit_b": (1, 2),
    "se_method": ("bm", "rs", "both"),
    "assume_infinite_stage1": (False, True),
    "replications": (1, 2),
    "size_grid": ((3, 50), ()),
    "workers": (1,),  # a pool of processes per example would dominate the run
    "tail_guard": (1e3, 2.0),
}
# fields always written: those a reference of each family reads, and the
# targets, which estimate-d and a size grid drop for their stage-1 runs
NEEDS = {"t": {"df", "mu", "proposal_mu", "with_regen"}, "table": {"table", "with_regen"},
         "ExperimentConfig": {"targets"}, "TargetConfig": {"family", "mu_grid", "tables"}}


def _config_class(tp):
    """The config dataclass inside an annotation such as `X | None`, if any."""
    for arg in (tp, *getattr(tp, "__args__", ())):
        if isinstance(arg, type) and hasattr(arg, "__dataclass_fields__"):
            return arg
    return None


@st.composite
def _object(draw, cls, k, family):
    raw = {}
    for name, tp, required in _fields(cls):
        needs = NEEDS[family] if cls is ReferenceConfig else NEEDS.get(cls.__name__, ())
        keep = required or name in needs
        if not (keep or draw(st.booleans())):
            continue  # left to the dataclass default
        if cls is ReferenceConfig and name == "family":
            raw[name] = family
        elif name == "references":
            raw[name] = draw(st.lists(_object(ReferenceConfig, k, family),
                                      min_size=k, max_size=k))
        elif _config_class(tp) is not None:
            raw[name] = draw(_object(_config_class(tp), k, family))
        else:
            pool = POOLS.get(f"{cls.__name__}.{name}", POOLS.get(name))
            raw[name] = draw(pool(k, family) if callable(pool) else st.sampled_from(pool))
    return raw


configs = st.tuples(st.integers(1, 3), st.sampled_from(("t", "table"))).flatmap(
    lambda kf: _object(ExperimentConfig, *kf))


def _finite_rows(path, columns, skip=lambda row: False):
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not skip(row):
                for col in columns:
                    if row[col] != "":
                        assert math.isfinite(float(row[col])), (path.name, col, row)


def run_command(command, raw, tmp) -> int:
    """Run one command on `raw` under `tmp`; check its exit code and, on
    exit 0, that the CSVs it wrote hold finite estimates and errors."""
    config, out = Path(tmp) / "config.json", Path(tmp) / command
    config.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    assert code in ((0, 1, 2, 3, 4, 5) if command == "oracle-check" else (0, 2, 3, 4, 5))
    if code == 0 and (out / "d_estimate.csv").exists():
        _finite_rows(out / "d_estimate.csv", ("d_hat", "se"))
    if code == 0 and (out / "targets.csv").exists():
        _finite_rows(out / "targets.csv", ("u_hat", "eta_hat", "se_u", "se_eta"),
                     skip=lambda row: row["flags"].startswith("error:"))
    return code


@given(raw=configs)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_command_exits_cleanly_on_any_config(raw):
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            run_command(command, raw, tmp)
