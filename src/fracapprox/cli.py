"""Reproducible experiment runner.

Every subcommand reads a JSON config (flags override), derives all randomness
from the recorded seed, and writes CSV files whose first lines carry the tool
version, a hash of the resolved config, and the seed.  Outputs are
byte-identical for identical (config, seed) regardless of --jobs.

Exit codes: 0 success, 1 usage or config error, 2 scientific failure
(a certification or audit found a violation).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys as _sys
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    SumSpec,
    audit_hyperplane_lemma,
    classify_sum,
    dimension_report,
    hs_upper_bound,
    layer_decay_experiment,
)
from .approx import parse_psi_spec, smallness_onset
from .diagnostics import (
    CertificationError,
    _run_ordered,
    certificate_table,
    certify_all,
    decay_alpha_from_regularity,
)
from .geometry import unit_ball_volume
from .ifs import (
    _SAMPLE_DIGIT_CAP,
    BUNDLED_SYSTEMS,
    SAMPLE_DEPTH,
    _check_alpha,
    bundled_system,
    load_system,
    sample_measure,
)

__all__ = ["main", "ExperimentConfig", "resolve_config"]


class UsageFailure(Exception):
    """Config or argument problem; maps to exit code 1."""


class ScientificFailure(Exception):
    """A certification or audit failed; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    ifs_path: str | None = None
    psi_spec: str = "power:tau=2.5"
    seed: int = 0
    trials: int = 200
    blocks: tuple = (1, 6)
    output_dir: str = "out"
    tolerance: float = 1e-4
    alpha: float | None = None
    s: float | None = None
    kind: str = "measure_zero"
    taus: tuple = (2.0, 3.0, 4.0)
    samples: int = 100_000
    jobs: int = 1

    def hash(self) -> str:
        """Config fingerprint; excludes output_dir and jobs, which must not
        influence output bytes."""
        payload = asdict(self)
        payload.pop("output_dir")
        payload.pop("jobs")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageFailure(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise UsageFailure(f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise UsageFailure("config file must hold a JSON object")
    return data


def resolve_config(config_path: str | None, **overrides) -> ExperimentConfig:
    data = _load_config_file(config_path) if config_path else {}
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise UsageFailure(f"unknown config fields: {sorted(unknown)}")
    cfg = ExperimentConfig(**data)
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        cfg = replace(cfg, **clean)
    if isinstance(cfg.blocks, list):
        cfg = replace(cfg, blocks=tuple(cfg.blocks))
    if isinstance(cfg.taus, list):
        cfg = replace(cfg, taus=tuple(cfg.taus))
    _validate_config(cfg)
    return cfg


_INT_FIELDS = ("seed", "trials", "samples", "jobs")
_REAL_FIELDS = ("tolerance", "alpha", "s")
_STR_FIELDS = ("ifs_path", "psi_spec", "output_dir", "kind")
_UNSET_OK = ("ifs_path", "alpha", "s")  # None means "not given"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _validate_config(cfg: ExperimentConfig) -> None:
    for names, ok, what in ((_INT_FIELDS, _is_int, "an integer"),
                            (_REAL_FIELDS, _is_real, "a finite number"),
                            (_STR_FIELDS, lambda v: isinstance(v, str), "a string")):
        for name in names:
            v = getattr(cfg, name)
            if not ok(v) and not (v is None and name in _UNSET_OK):
                raise UsageFailure(f"config field {name!r} must be {what}")
    if not (isinstance(cfg.taus, tuple) and all(_is_real(t) for t in cfg.taus)):
        raise UsageFailure("config field 'taus' must be a list of finite numbers")
    for name in ("trials", "samples", "jobs"):
        if getattr(cfg, name) < 1:
            raise UsageFailure(f"config field {name!r} must be >= 1")
    if cfg.seed < 0:
        raise UsageFailure("config field 'seed' must be >= 0")
    if cfg.samples > _SAMPLE_DIGIT_CAP // SAMPLE_DEPTH:
        raise UsageFailure(
            f"config field 'samples' must be <= {_SAMPLE_DIGIT_CAP // SAMPLE_DEPTH}"
        )
    if (not isinstance(cfg.blocks, tuple) or len(cfg.blocks) != 2
            or not all(_is_int(b) for b in cfg.blocks)
            or cfg.blocks[0] > cfg.blocks[1] or cfg.blocks[0] < 0):
        raise UsageFailure("config field 'blocks' must be a nonempty range [lo, hi]")
    if cfg.tolerance <= 0:
        raise UsageFailure("config field 'tolerance' must be positive")


def _resolve_system(cfg: ExperimentConfig):
    if not cfg.ifs_path:
        raise UsageFailure("config field 'ifs_path' is required (bundled name or file)")
    if cfg.ifs_path in BUNDLED_SYSTEMS:
        return bundled_system(cfg.ifs_path)
    path = Path(cfg.ifs_path)
    if not path.exists():
        raise UsageFailure(f"config field 'ifs_path': no such file {cfg.ifs_path!r}")
    try:
        return load_system(path)
    except (ValueError, KeyError, OSError) as e:
        raise UsageFailure(f"config field 'ifs_path': invalid system file: {e}")


def _resolve_alpha(cfg: ExperimentConfig, sys_) -> float:
    if cfg.alpha is not None:
        with _refusal():
            _check_alpha(sys_, cfg.alpha)
        return cfg.alpha
    alpha = decay_alpha_from_regularity(sys_.delta, sys_.dim)
    if alpha is None:
        raise UsageFailure(
            "config field 'alpha' is required: delta - (d-1) is not positive "
            "for this system"
        )
    return alpha


def _header(cfg: ExperimentConfig) -> list:
    return [
        f"# fracapprox v{__version__}",
        f"# config_hash={cfg.hash()}",
        f"# seed={cfg.seed}",
    ]


def _write_csv(cfg: ExperimentConfig, name: str, columns: list, rows: list,
               trailer: list | None = None) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    lines = _header(cfg) + [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    if trailer:
        lines.extend(trailer)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    click.echo(f"wrote {path}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
@click.option("--config", "config_path", type=str, default=None,
              help="JSON experiment config.")
@click.option("--seed", type=int, default=None, help="Override the seed.")
@click.option("--out", "output_dir", type=str, default=None,
              help="Override the output directory.")
@click.option("--jobs", type=int, default=None, help="Worker processes.")
@click.pass_context
def cli(ctx, config_path, seed, output_dir, jobs):
    """Experiments on rational approximation over self-similar measures."""
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["overrides"] = {"seed": seed, "output_dir": output_dir, "jobs": jobs}


def _parse_blocks(text: str | None):
    if text is None:
        return None
    lo, _, hi = text.partition(":")  # without a colon hi is empty and refused
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise UsageFailure(f"config field 'blocks' must be a range lo:hi: {text!r}")


def _parse_taus(text: str | None):
    if text is None:
        return None
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise UsageFailure(
            f"config field 'taus' must be a comma-separated list of numbers: {text!r}")


# Subcommand flag -> (config field, click type, help, parser of the flag's
# text or None).
_FLAGS = {
    "--ifs": ("ifs_path", str, None, None),
    "--psi": ("psi_spec", str, None, None),
    "--blocks": ("blocks", str, "Range lo:hi.", _parse_blocks),
    "--taus": ("taus", str, "Comma-separated taus.", _parse_taus),
    "--trials": ("trials", int, None, None),
    "--samples": ("samples", int, None, None),
    "--alpha": ("alpha", float, None, None),
    "--kind": ("kind", str, None, None),
    "--s-param": ("s", float, None, None),
}


def _subcommand(name: str, *flags: str):
    """Register body(cfg) as subcommand `name` taking the given _FLAGS; the
    flags given override the config file and the global flags, and body gets
    the resolved ExperimentConfig."""
    def register(body):
        @click.pass_context
        def command(ctx, **given):
            for flag in flags:
                field, _, _, parse = _FLAGS[flag]
                if parse is not None:
                    given[field] = parse(given[field])
            body(resolve_config(ctx.obj["config_path"],
                                **{**ctx.obj["overrides"], **given}))

        for flag in reversed(flags):
            field, kind, help_, _ = _FLAGS[flag]
            command = click.option(flag, field, type=kind, default=None,
                                   help=help_)(command)
        return cli.command(name, help=body.__doc__)(command)
    return register


@contextmanager
def _refusal(field: str | None = None, errors=ValueError):
    """Turn a library refusal into `config field '<field>': <message>`; with
    no field, the message names its own (`'kind' must be ...`)."""
    try:
        yield
    except errors as e:
        raise UsageFailure(f"config field {field!r}: {e}" if field
                           else f"config field {e}")


def _block_range(cfg: ExperimentConfig) -> range:
    lo, hi = cfg.blocks
    return range(lo, hi + 1)


def _s_value(cfg: ExperimentConfig, sys_) -> float:
    return cfg.s if cfg.s is not None else sys_.delta


@_subcommand("certify", "--ifs", "--trials", "--alpha")
def certify(cfg):
    """Fit doubling, decay and regularity certificates; write three CSVs."""
    sys_ = _resolve_system(cfg)
    a = _resolve_alpha(cfg, sys_)
    try:
        dc, cc, rc = certify_all(sys_, a, cfg.trials, seed=cfg.seed, jobs=cfg.jobs)
    except CertificationError as e:
        raise ScientificFailure(f"certification failed: {e}")
    for cert, name in ((dc, "doubling.csv"), (cc, "decay.csv"),
                       (rc, "regularity.csv")):
        _write_csv(cfg, name, *certificate_table(cert))


@_subcommand("decay", "--ifs", "--psi", "--blocks", "--samples", "--alpha")
def decay(cfg):
    """Per-block layer mass against the decay envelope."""
    sys_ = _resolve_system(cfg)
    a = _resolve_alpha(cfg, sys_)
    psi = _parse_psi(cfg, sys_.dim)
    with _refusal("blocks"):  # the layer test's rules on a block
        res = layer_decay_experiment(sys_, psi, a, _block_range(cfg),
                                     cfg.samples, cfg.seed)
    d = sys_.dim
    c_audit = (
        0.5 / math.sqrt(d)
        * (1.0 / (unit_ball_volume(d) * math.factorial(d))) ** (1.0 / d)
        * 2.0 ** (-(d + 1) / d)
    )
    onset = smallness_onset(psi, c_audit, d)
    trailer = [
        f"# empirical_slope={res.empirical_slope!r}",
        f"# predicted_slope={res.predicted_slope!r}",
        f"# smallness_onset(c={c_audit!r})={onset}",
    ]
    _write_csv(cfg, "decay_experiment.csv",
               ["n", "empirical_mass", "envelope"], list(res.rows), trailer)


@_subcommand("lemma-audit", "--ifs", "--blocks", "--trials")
def lemma_audit(cfg):
    """Exact-arithmetic audit: block rationals near a ball lie on a hyperplane.
    --trials is the number of balls per block."""
    sys_ = _resolve_system(cfg)
    with _refusal("blocks"):  # the enumeration refusals of a block
        reports = audit_hyperplane_lemma(sys_.dim, _block_range(cfg), cfg.trials,
                                         seed=cfg.seed)
    bad_total = sum(rep.simplex_counterexamples for rep in reports)
    _write_csv(cfg, "lemma_audit.csv",
               ["d", "n", "balls", "max_rationals", "simplex_counterexamples"],
               [astuple(rep) for rep in reports])
    if bad_total:
        raise ScientificFailure(
            f"{bad_total} simplex counterexamples found; the volume obstruction "
            "failed"
        )


@_subcommand("dim-report", "--ifs", "--taus", "--alpha", "--samples")
def dim_report(cfg):
    """Dimension bound vs box-count estimate of the layer approximant.
    --samples is the batch size for approximant sampling."""
    if not cfg.taus:
        raise UsageFailure("config field 'taus' must be nonempty")
    sys_ = _resolve_system(cfg)
    a = _resolve_alpha(cfg, sys_)

    def shortfall(tau, kept):
        click.echo(
            f"tau={tau}: only {kept} approximant points when the budget of "
            f"{cfg.samples}-sample batches ran out, too few for box counting; "
            "box_estimate left blank",
            err=True,
        )

    with _refusal("taus"):  # a tau whose psi cannot be built
        rows = dimension_report(sys_, a, cfg.taus, seed=cfg.seed, batch=cfg.samples,
                                on_shortfall=shortfall)
    d = sys_.dim
    for tau, bound, _ in rows:
        if bound is None:
            click.echo(f"tau={tau} below the Dirichlet exponent {(d + 1) / d}; skipped",
                       err=True)
    _write_csv(cfg, "dim_report.csv", ["tau", "bound", "box_estimate"],
               [row for row in rows if row[1] is not None])


@_subcommand("sums", "--ifs", "--psi", "--kind", "--alpha", "--s-param")
def sums(cfg):
    """Classify the configured convergence sum; write condensed terms."""
    sys_ = _resolve_system(cfg)
    psi = _parse_psi(cfg, sys_.dim)
    a = _resolve_alpha(cfg, sys_) if cfg.kind in ("measure_zero", "hausdorff") else None
    hausdorff = cfg.kind == "hausdorff"
    with _refusal():  # each names its field: 'kind', 's', ...
        spec = SumSpec(cfg.kind, psi, sys_.dim, alpha=a,
                       delta=sys_.delta if hausdorff else None,
                       s=_s_value(cfg, sys_) if hausdorff else None)
    verdict = classify_sum(spec)
    rows = [
        (n, term, ps)
        for (n, term), (_, ps) in zip(verdict.condensed_terms, verdict.partial_sums)
    ]
    trailer = [
        f"# converges={verdict.converges}",
        f"# method={verdict.method}",
        f"# criterion={verdict.criterion}",
    ]
    _write_csv(cfg, "sums.csv", ["n", "term", "partial_sum"], rows, trailer)


@_subcommand("cover-cost", "--ifs", "--psi", "--blocks", "--s-param")
def cover_cost_cmd(cfg):
    """Block-cover cost tails of the well-approximable part."""
    sys_ = _resolve_system(cfg)
    psi = _parse_psi(cfg, sys_.dim)
    s_val = _s_value(cfg, sys_)
    if not s_val >= 0:
        raise UsageFailure("config field 's' must be >= 0")
    with _refusal("blocks"):  # the net, depth and enumeration refusals of a block
        tail = hs_upper_bound(sys_, psi, s_val, _block_range(cfg), seed=cfg.seed)
    tails = dict(tail.tails)
    rows = [
        (n, nd, nc, tails[n]) for (n, nd, nc, _cost) in tail.rows
    ]
    _write_csv(cfg, "cover_cost.csv",
               ["n", "n_Dn", "n_C_total", "cost_tail"], rows,
               [f"# s={s_val!r}"])


@_subcommand("sample", "--ifs", "--samples")
def sample(cfg):
    """Draw natural-measure samples; sharded deterministically over workers."""
    sys_ = _resolve_system(cfg)
    pts = _sharded_samples(sys_, cfg.samples, cfg.seed, cfg.jobs)
    cols = [f"x_{i}" for i in range(sys_.dim)]
    rows = [tuple(float(v) for v in p) for p in pts]
    _write_csv(cfg, "samples.csv", cols, rows)


_SHARD = 10_000


def _sample_chunk(args):
    sys_, seed, idx, count = args
    return sample_measure(sys_, count, np.random.SeedSequence([seed, idx]))


def _sharded_samples(sys_, total: int, seed: int, jobs: int) -> np.ndarray:
    """Fixed-size chunks with per-chunk derived seeds: the stream does not
    depend on the worker count."""
    payloads = [(sys_, seed, idx, min(_SHARD, total - start))
                for idx, start in enumerate(range(0, total, _SHARD))]
    return np.concatenate(_run_ordered(_sample_chunk, payloads, jobs))


def _parse_psi(cfg: ExperimentConfig, d: int):
    with _refusal("psi_spec", (ValueError, OSError)):
        return parse_psi_spec(cfg.psi_spec, d=d)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
    except UsageFailure as e:
        click.echo(f"error: {e}", err=True)
        return 1
    except click.UsageError as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return 1
    except click.ClickException as e:
        e.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except ScientificFailure as e:
        click.echo(f"FAILURE: {e}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    _sys.exit(main())
