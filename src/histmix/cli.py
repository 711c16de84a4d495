"""Command-line front end: synthesize, estimate, predict, evaluate.

All metric output is line-oriented `key=value` records on stdout (or the
--output file), floats pinned to 12 significant digits, so identical configs
produce byte-identical output. Informational chatter goes to stderr and is
silenced by --quiet.

Exit codes: 0 success, 1 usage, 2 data error, 3 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from .errors import (
    BoundViolationError,
    ConfigError,
    OutOfSupportError,
    ParseError,
    UnsupportedSourceError,
)
from .evaluation import prediction_error_trajectory
from .functionals import cell_indicator, constant, identity
from .ingest import (
    PRETRANSFORMS,
    RunConfig,
    build_estimator,
    build_source,
    load_config,
    parse_observations,
)

__all__ = ["main"]

_LN2 = math.log(2.0)


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _fmt_seq(xs) -> str:
    return ",".join(_fmt(x) for x in xs)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="histmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "sample a synthetic source into an observation file"),
        ("estimate", "stream observations through the estimator, report log loss"),
        ("predict", "one-step functional forecasts before each observation"),
        ("evaluate", "KL and prediction-error trajectories across seeds, one pass "
                     "of checkpoints[-1] observations per seed (n sizes only synth)"),
    ):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True, help="run config path")
        p.add_argument("--input", help="observation file, - for stdin")
        p.add_argument("--output", help="output path, default stdout")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int, help="worker processes for evaluate")
        p.add_argument(
            "--r", default=None,
            help="functional: one, identity (bounded supports) or cell:IDX; default the config's r",
        )
        p.add_argument("--quiet", action="store_true", help="suppress stderr notes")
        p.set_defaults(command=name)
    return parser


def _load(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return load_config(text)


def _out(args):
    if args.output in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(args.output, "w")


def _in(args):
    if args.input is None:
        raise _UsageError(f"{args.command} requires --input")
    if args.input == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(args.input)


def _note(args, message: str):
    if not args.quiet:
        print(message, file=sys.stderr)


def _make_r(spec: str, config: RunConfig):
    """Functional and bound from an --r spec."""
    if spec == "one":
        r = constant(1.0)
        return r, r.bound
    if spec == "identity":
        if config.family == "countable":
            raise ConfigError(
                "--r identity needs a bounded support and {1, 2, ...} is not; "
                "use --r one or --r cell:IDX"
            )
        bound = max(abs(v) for v in (*config.atoms, config.lower, config.upper))
        return identity(bound), bound
    if spec.startswith("cell:"):
        try:
            idx = int(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad cell index in --r {spec!r}") from None
        family = build_estimator(config).family
        if not 0 <= idx < family.alphabet_size(family.num_levels - 1):
            raise ConfigError(f"cell index {idx} out of range at the finest level")
        return cell_indicator(family, idx), 1.0
    raise _UsageError(f"unknown --r spec {spec!r}")


def _observations(args, config: RunConfig, stream):
    transform = PRETRANSFORMS[config.pretransform]
    for rec in parse_observations(stream):
        yield rec.line, transform(rec.value)


def _cmd_synth(args, config: RunConfig) -> int:
    source = build_source(config)
    seed = args.seed if args.seed is not None else config.seed
    xs = source.sample(config.n, seed)
    with _out(args) as fh:
        fh.write(f"# source={source.kind} seed={seed} n={config.n} digest={config.digest}\n")
        if np.issubdtype(xs.dtype, np.integer):
            fh.writelines(f"{int(x)}\n" for x in xs)
        else:
            fh.writelines(f"{float(x)!r}\n" for x in xs)
    _note(args, f"synth: wrote {config.n} observations")
    return 0


def _cmd_estimate(args, config: RunConfig) -> int:
    est = build_estimator(config)
    source = build_source(config) if config.source is not None else None
    checkpoints = set(config.checkpoints)
    true_sum = 0.0
    last = None
    n = 0
    emitted = 0

    def record(fh):
        nonlocal emitted
        logloss = -est.joint_log_density / (n * _LN2)
        fields = [f"record=estimate digest={config.digest} n={n} logloss_bits={_fmt(logloss)}"]
        if source is not None:
            fields.append(f"kl_bits={_fmt((true_sum - est.joint_log_density) / (n * _LN2))}")
        fields.append(f"posterior={_fmt_seq(est.posterior_weights)}")
        fh.write(" ".join(fields) + "\n")
        emitted += 1

    with _in(args) as stream, _out(args) as fh:
        for line, x in _observations(args, config, stream):
            try:
                if source is not None:
                    true_sum += source.true_log_density(x, last)
                est.observe(x)
            except OutOfSupportError as exc:
                raise OutOfSupportError(f"line {line}: {exc}") from None
            last = x
            n += 1
            if n in checkpoints:
                record(fh)
        if n == 0:
            raise ParseError("no observations in input")
        if n not in checkpoints:
            record(fh)
    _note(args, f"estimate: {n} observations, {emitted} records")
    return 0


def _cmd_predict(args, config: RunConfig) -> int:
    est = build_estimator(config)
    r, bound = _make_r(args.r or config.r, config)
    count = 0
    with _in(args) as stream, _out(args) as fh:
        for line, x in _observations(args, config, stream):
            pred = est.predict_functional(r, bound)
            try:
                realized = r(x)
                est.observe(x)
            except OutOfSupportError as exc:
                raise OutOfSupportError(f"line {line}: {exc}") from None
            fh.write(
                f"record=predict digest={config.digest} j={count} "
                f"prediction={_fmt(pred)} realized={_fmt(realized)}\n"
            )
            count += 1
    _note(args, f"predict: {count} forecasts")
    return 0


def _cmd_evaluate(args, config: RunConfig) -> int:
    """Streams checkpoints[-1] source observations per seed, once, and writes
    the KL and the prediction-error records of those same runs."""
    source = build_source(config)
    seeds = (args.seed,) if args.seed is not None else config.seeds
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    r, bound = _make_r(args.r or config.r, config)
    runs = prediction_error_trajectory(source, config, r, bound, seeds=seeds, jobs=jobs)
    with _out(args) as fh:
        for run in runs:
            for rec in run.checkpoints:
                fh.write(
                    f"record=kl digest={config.digest} seed={run.seed} n={rec.n} "
                    f"kl_bits={_fmt(rec.kl_bits)} posterior={_fmt_seq(rec.posterior_weights)}\n"
                )
        for n in config.checkpoints:
            vals = [r2.kl_bits for run in runs for r2 in run.checkpoints if r2.n == n]
            fh.write(
                f"record=kl_aggregate digest={config.digest} n={n} "
                f"median_bits={_fmt(np.median(vals))} mean_bits={_fmt(np.mean(vals))}\n"
            )
        for run in runs:
            for rec in run.checkpoints:
                fh.write(
                    f"record=pred digest={config.digest} seed={run.seed} n={rec.n} "
                    f"sq_error={_fmt(rec.cum_pred_sq_error)} "
                    f"abs_error={_fmt(rec.cum_pred_abs_error)}\n"
                )
        for n in config.checkpoints:
            sq = [r2.cum_pred_sq_error for run in runs for r2 in run.checkpoints if r2.n == n]
            ab = [r2.cum_pred_abs_error for run in runs for r2 in run.checkpoints if r2.n == n]
            fh.write(
                f"record=pred_aggregate digest={config.digest} n={n} "
                f"median_sq={_fmt(np.median(sq))} mean_sq={_fmt(np.mean(sq))} "
                f"median_abs={_fmt(np.median(ab))} mean_abs={_fmt(np.mean(ab))}\n"
            )
    _note(args, f"evaluate: {len(seeds)} seeds, {len(config.checkpoints)} checkpoints")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load(args)
        return _COMMANDS[args.command](args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OutOfSupportError, BoundViolationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return 0
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, UnsupportedSourceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
