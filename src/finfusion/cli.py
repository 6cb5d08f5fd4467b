"""Command-line surface for the whole pipeline.

Subcommands: generate, train, eval, forecast, rl-run, report, grad-check.
Exit codes are stable: 0 ok, 2 configuration, 3 io, 4 numerical divergence,
5 schema mismatch. Every run is reproducible from its echoed config; no
command reads the clock or OS entropy.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from . import autodiff as ad
from . import datapipe as dp
from . import encoders as enc
from . import evaluate as ev
from . import fusion as fus
from . import heads
from . import metrics as mx
from . import model as fm
from . import rl as frl
from . import training as tr
from .autodiff import Tensor
from .config import RunConfig
from .errors import (ConfigError, ContractError, DimensionError, NumericalError,
                     SchemaError, check_number)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_SCHEMA = 5

OP_TOL = 1e-4
E2E_TOL = 1e-3


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _stage_path(seed_dir: str, index: int) -> str:
    return os.path.join(seed_dir, f"stage_{index}_{tr.STAGES[index]}.bin")


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args) -> int:
    cfg = RunConfig.load(args.config, args.set)
    ds = dp.build_dataset(cfg.synthetic)
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "dataset.jsonl")
    dp.save_dataset(ds, data_path)
    manifest = {
        "schema_version": dp.SCHEMA_VERSION,
        "seed": cfg.synthetic.seed,
        "config_hash": cfg.hash(),
        "n_assets": ds.n_assets,
        "n_steps": ds.n_steps,
        "n_usable_dates": int(ds.usable.sum()),
    }
    _write(os.path.join(args.out, "manifest.json"),
           json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    _write(os.path.join(args.out, "config.json"), cfg.echo())
    print(f"wrote {data_path}: {ds.n_steps} date records, "
          f"{manifest['n_usable_dates']} usable dates")
    return EXIT_OK


def _check_flags(args, **least) -> None:
    """Each named integer flag, when given, is at least its bound."""
    for name, bound in least.items():
        value = getattr(args, name)
        if value is not None:
            check_number(f"--{name.replace('_', '-')}", value, bound, integral=True)


def cmd_train(args) -> int:
    _check_flags(args, seed=0)
    cfg = RunConfig.load(args.config, args.set)
    ds = dp.load_dataset(args.data)
    if cfg.model.vocab_size < len(ds.vocab):
        raise ConfigError(
            f"model.vocab_size: {cfg.model.vocab_size} is smaller than the "
            f"dataset vocabulary ({len(ds.vocab)} tokens)")
    seeds = cfg.training.seeds if args.seed is None else (args.seed,)
    for seed in seeds:
        run = tr.TrainingRun(
            ds, cfg.model, cfg.training, schedule=cfg.schedule,
            loss_weights=cfg.loss, forecast_cfg=cfg.forecast_loss,
            align_cfg=cfg.align, rl_cfg=cfg.rl, seed=seed)
        seed_dir = os.path.join(args.out, f"seed_{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        if args.resume:
            for i in reversed(range(len(tr.STAGES))):
                path = _stage_path(seed_dir, i)
                if os.path.exists(path):
                    run.resume_from(path)
                    if len(run.completed) != i + 1:
                        raise SchemaError(
                            f"{path}: checkpoint meta lists {len(run.completed)} "
                            f"completed stages, its file name {i + 1}")
                    print(f"seed {seed}: resumed after {tr.STAGES[i]}")
                    break
        first = len(run.completed)
        for i, stage in enumerate(tr.STAGES[first:], start=first):
            rep = run.run_stage(stage)
            run.save(_stage_path(seed_dir, i))
            totals = rep.losses.get("total", [])
            last = f"{totals[-1]:.6f}" if totals else "n/a"
            print(f"seed {seed} stage {stage}: epochs={rep.epochs} "
                  f"final_total={last}")
        run.save(os.path.join(seed_dir, "checkpoint.bin"))
        _write(os.path.join(seed_dir, "reports.json"),
               json.dumps([dataclasses.asdict(r) for r in run.reports],
                          sort_keys=True, indent=2) + "\n")
    _write(os.path.join(args.out, "config.json"), cfg.echo())
    return EXIT_OK


_TABLES = (
    ("forecasting", "micro", mx.FORECAST_COLUMNS),
    ("distress classification", "distress", mx.CLASSIFICATION_COLUMNS),
    ("early warning", "warning", mx.EARLY_WARNING_COLUMNS),
)


def render_eval_tables(report: mx.EvalReport, split: str) -> str:
    blocks = []
    for title, prefix, columns in _TABLES:
        cols = [(f"{prefix}.{key}", header) for key, header in columns]
        blocks.append(mx.render_report(report, f"{title} ({split})", cols))
    return "\n\n".join(blocks) + "\n"


@contextlib.contextmanager
def _checkpoint_model(path: str, ds):
    """Load the checkpoint at ``path`` to run on the dataset ``ds``: yields
    its parameters, model config, modalities and meta. Its vocabulary must
    cover the dataset's. The caller validates the dataset and its flags
    first and keeps in the body only steps that run checkpoint leaves, so a
    DimensionError there comes from a leaf of the wrong shape: exit 5."""
    params, mcfg, meta = tr.load_params(path)
    if mcfg.vocab_size < len(ds.vocab):
        raise SchemaError(
            f"checkpoint vocabulary ({mcfg.vocab_size}) is smaller than "
            f"the dataset's ({len(ds.vocab)})")
    try:
        yield params, mcfg, meta["modalities"], meta
    except DimensionError as e:
        raise SchemaError(f"{path}: checkpoint does not fit its model: {e}") from e


def cmd_eval(args) -> int:
    ds = dp.load_dataset(args.data)
    per_seed = []
    for ck in args.checkpoint:
        with _checkpoint_model(ck, ds) as (params, mcfg, kinds, _):
            per_seed.append(ev.evaluate_split(ds, params, mcfg, args.split,
                                              kinds=kinds))
    report = mx.aggregate_seeds(per_seed)
    text = render_eval_tables(report, args.split)
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "report.json"), report.to_json() + "\n")
        _write(os.path.join(args.out, "report.txt"), text)
    return EXIT_OK


def cmd_forecast(args) -> int:
    _check_flags(args, horizon=1)
    ds = dp.load_dataset(args.data)
    if not 0 <= args.asset < ds.n_assets:
        raise ConfigError(f"asset: {args.asset} outside 0..{ds.n_assets - 1}")
    ds.check_date(args.date)
    batch = ds.batch_arrays([(args.asset, args.date)])
    with _checkpoint_model(args.checkpoint, ds) as (params, mcfg, kinds, _):
        out = fm.forward_batch(batch, params, mcfg, kinds, heads=("micro",),
                               horizon=args.horizon)
    fc = heads.micro_forecast(out["mdn_weights"].data, out["mdn_means"].data,
                              out["mdn_sigmas"].data, ds.norm)

    taus = (0.1, 0.5, 0.9)
    qs = heads.mixture_quantile(Tensor(fc["weights"]), Tensor(fc["means"]),
                                Tensor(fc["sigmas"]), taus)
    quantiles = {f"{tau:.1f}": float(q) for tau, q in zip(taus, qs.data[0])}
    down, flat, up = fc["direction_probs"][0]
    payload = {
        "asset": args.asset,
        "date": args.date,
        "horizon": args.horizon,
        "point": float(fc["point"][0]),
        "direction_probs": {"down": down, "flat": flat, "up": up},
        "mixture": [
            {"weight": float(w), "mean": float(m), "sigma": float(s)}
            for w, m, s in zip(fc["weights"][0], fc["means"][0], fc["sigmas"][0])
        ],
        "quantiles": quantiles,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    print(text, end="")
    if args.out:
        _write(args.out, text)
    return EXIT_OK


def cmd_rl_run(args) -> int:
    _check_flags(args, seed=0, updates=0, episodes=1)
    model_sets = [s.partition("=")[0] for s in args.set if s.startswith("model.")]
    if model_sets:
        raise ConfigError(f"{model_sets[0]}: rl-run takes the model from the checkpoint")
    cfg = RunConfig.load(args.config, args.set)
    ds = dp.load_dataset(args.data)
    with _checkpoint_model(args.checkpoint, ds) as (params, mcfg, kinds, meta):
        rows, width = params["policy.w"].shape
        if len(cfg.rl.actions) != width:
            raise ConfigError(f"rl.actions has {len(cfg.rl.actions)} positions but the "
                              f"checkpoint's policy.w has {width} outputs")
        if rows != mcfg.d_model or params["policy.b"].shape != (width,):
            raise DimensionError(f"policy leaves do not fit d_model {mcfg.d_model}")
        env = frl.DatasetEnv(ds, params, mcfg, cfg.rl, split=args.split,
                             kinds=kinds)
    seed = meta["seed"] if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    curve, trajs = [], []
    for _ in range(args.updates):
        trajs, mean_return = frl.policy_epoch(env, params, cfg.rl, rng,
                                              args.episodes, cfg.training.rl_lr)
        curve.append(mean_return)
    os.makedirs(args.out, exist_ok=True)
    frl.export_traces(trajs, os.path.join(args.out, "traces.jsonl"), cfg.rl)
    summary = {
        "alpha": cfg.rl.alpha,
        "beta": cfg.rl.beta,
        "gamma": cfg.rl.gamma,
        "r_sys_source": cfg.rl.r_sys_source,
        "episodes_per_update": args.episodes,
        "updates": args.updates,
        "seed": seed,
        "split": args.split,
        "mean_return": curve,
    }
    _write(os.path.join(args.out, "summary.json"),
           json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"rl-run: {args.updates} updates, final mean return "
          f"{curve[-1]:.6f}" if curve else "rl-run: no updates requested")
    return EXIT_OK


def cmd_report(args) -> int:
    _check_flags(args, horizon=1)
    ds = dp.load_dataset(args.data)
    ds.check_date(args.date)
    with _checkpoint_model(args.checkpoint, ds) as (params, mcfg, kinds, _):
        bulletin = ev.bulletin_for_date(ds, params, mcfg, args.date,
                                        horizon=args.horizon, kinds=kinds)
    print(bulletin.text, end="")
    if args.out:
        _write(args.out, bulletin.text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradient battery

def _first_leaf(params, prefix):
    return next(n for n in sorted(params) if n.startswith(prefix))


def gradient_battery(d_model: int = 8, seed: int = 0):
    """Finite-difference checks over ops and full pathways at reduced dims.

    Returns a list of (name, max_rel_err, tol) tuples.
    """
    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, x, tol, eps=1e-4):
        results.append((name, ad.grad_check(f, x, eps=eps), tol))

    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = rng.normal(size=(5, 3))
    coeffs = rng.normal(size=(4, 5))
    check("op.matmul", lambda t: ad.reduce_sum(ad.matmul(t, w)), x, OP_TOL)
    # the weight of a stacked product, whose gradient sums over every row
    xs = rng.normal(size=(2, 3, 5))
    check("op.matmul_stacked", lambda t: ad.reduce_sum(ad.tanh(ad.matmul(xs, t))),
          Tensor(rng.normal(size=(5, 3)), requires_grad=True), OP_TOL)
    bias, qa, va = (Tensor(rng.normal(size=s)) for s in (3, (2, 3, 4), (2, 3, 4)))
    check("op.linear", lambda t: ad.reduce_sum(ad.tanh(ad.linear(Tensor(xs), t, bias))),
          Tensor(rng.normal(size=(5, 3)), requires_grad=True), OP_TOL)
    pad = np.array([[True, True, False], [True, True, True]])[:, None, None, :]  # key 2 of row 0
    check("op.attention", lambda t: ad.reduce_sum(ad.tanh(ad.attention(qa, t, va, 2, pad))),
          Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True), OP_TOL)
    check("op.softmax",
          lambda t: ad.reduce_sum(ad.softmax(t, axis=-1) * coeffs),
          Tensor(rng.normal(size=(4, 5)), requires_grad=True), OP_TOL)
    check("op.logsumexp", lambda t: ad.reduce_sum(ad.logsumexp(t, axis=-1)),
          Tensor(rng.normal(size=(4, 5)), requires_grad=True), OP_TOL)
    check("op.relu_log",
          lambda t: ad.reduce_sum(ad.log(ad.relu(t) + 1.5)),
          Tensor(rng.normal(size=(3, 3)), requires_grad=True), OP_TOL)

    cfg = fm.ModelConfig(d_model=d_model, n_heads=2, n_layers=1,
                         d_ff=2 * d_model, vocab_size=16, price_features=3,
                         macro_group_dim=4, macro_hidden=8, graph_features=3,
                         graph_layers=1, mdn_components=2, micro_layers=1,
                         risk_gat_layers=1)
    params = fm.init_model_params(cfg, rng)
    # unused draw (the policy's xavier init): dropping it would shift the rest
    rng.uniform(size=(d_model, 3))
    b, t_steps, n_nodes = 2, 5, 3
    price = rng.normal(size=(b, t_steps, cfg.price_features))
    tokens = rng.integers(1, cfg.vocab_size, size=(b, 6))
    tok_len = np.array([6, 4])
    macro = rng.normal(size=(b, len(dp.MACRO_SLOTS)))
    gfeat = rng.normal(size=(b, n_nodes, cfg.graph_features))
    adj = np.abs(rng.normal(size=(b, n_nodes, n_nodes)))
    # unused draw: dropping it would shift y and the labels below
    rng.normal(size=(len(fus.MODALITIES), b, d_model))
    y = rng.normal(size=b)
    flags = rng.integers(0, 2, size=b).astype(float)
    stress = rng.uniform(0, 1, size=b)

    batch = {"price": price, "tokens": tokens, "tok_len": tok_len,
             "macro": macro, "graph_feats": gfeat, "graph_adj": adj}

    def mixture():
        out = fm.forward_batch(batch, params, cfg, heads=("micro",))
        return out["mdn_weights"], out["mdn_means"], out["mdn_sigmas"]

    def micro_loss(_):
        return heads.mdn_nll_batch(*mixture(), y)

    def risk_term(_):
        out = fm.forward_batch(batch, params, cfg, heads=("risk",))
        return tr.risk_loss(out["risk_score"], flags, stress)

    def forecast_term(_):
        return tr.forecast_loss(y, *mixture(), tr.ForecastLossConfig())

    def align_term(_):
        e1 = enc.encode_price_batch(price, params, cfg)
        e2 = enc.encode_text_batch(tokens, tok_len, params, cfg)
        return fus.align_loss(e1, e2, fus.AlignConfig())

    e2e = [
        ("e2e.price_encoder", micro_loss, "price.in.w"),
        ("e2e.text_encoder", micro_loss, "text.embed"),
        ("e2e.macro_encoder", micro_loss, "macro.gate.w"),
        ("e2e.graph_encoder", micro_loss, "graph.layer0.w"),
        ("e2e.fusion", micro_loss, _first_leaf(params, "fusion.pool")),
        ("e2e.micro_head", micro_loss, "micro.out_mu.w"),
        ("e2e.risk_head", risk_term, _first_leaf(params, "risk.gat0")),
        ("e2e.forecast_loss", forecast_term, "micro.out_mu.w"),
        ("e2e.align_loss", align_term, "price.in.w"),
    ]
    for name, fn, leaf in e2e:
        check(name, fn, params[leaf], E2E_TOL)

    wq = Tensor(np.array([[0.4, 0.6], [0.7, 0.3]]), requires_grad=True)
    mq = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    sq = Tensor(rng.uniform(0.5, 1.5, size=(2, 2)), requires_grad=True)

    def quantile_sum(t):
        return ad.reduce_sum(heads.mixture_quantile(wq, mq, sq, 0.7, tol=1e-12))

    check("e2e.mixture_quantile", quantile_sum, mq, E2E_TOL)
    return results


def cmd_grad_check(args) -> int:
    _check_flags(args, seed=0, d_model=2)
    if args.d_model % 2:  # the battery's model has two heads
        raise ContractError(f"--d-model must be an integer >= 2 and even, got {args.d_model}")
    results = gradient_battery(d_model=args.d_model, seed=args.seed)
    worst = 0.0
    failed = 0
    for name, err, tol in results:
        ok = err < tol
        failed += 0 if ok else 1
        worst = max(worst, err)
        print(f"{'PASS' if ok else 'FAIL'}  {name:<24} rel_err={err:.3e} "
              f"tol={tol:.0e}")
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"(worst {worst:.3e})")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="finfusion",
        description="multimodal financial model: data, training, evaluation")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None,
                        help="flat JSON config file (defaults apply if omitted)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key")

    g = sub.add_parser("generate", help="build a synthetic dataset")
    common(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="run the staged training schedule")
    common(t)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None,
                   help="train a single seed instead of the config's list")
    t.add_argument("--resume", action="store_true",
                   help="continue from the latest stage checkpoint")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="metric tables for one or more checkpoints")
    e.add_argument("--checkpoint", action="append", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    f = sub.add_parser("forecast", help="mixture forecast for one asset/date")
    f.add_argument("--checkpoint", required=True)
    f.add_argument("--data", required=True)
    f.add_argument("--asset", type=int, required=True)
    f.add_argument("--date", type=int, required=True)
    f.add_argument("--horizon", type=int, default=1)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_forecast)

    r = sub.add_parser("rl-run", help="REINFORCE updates on a trained model")
    common(r)
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--updates", type=int, default=50)
    r.add_argument("--episodes", type=int, default=8)
    r.add_argument("--split", default="train", choices=("train", "val", "test"))
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_rl_run)

    b = sub.add_parser("report", help="emit the risk bulletin for a date")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--data", required=True)
    b.add_argument("--date", type=int, required=True)
    b.add_argument("--horizon", type=int, default=1)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_report)

    k = sub.add_parser("grad-check", help="finite-difference gradient battery")
    k.add_argument("--d-model", type=int, default=8)
    k.add_argument("--seed", type=int, default=0)
    k.set_defaults(func=cmd_grad_check)
    return p


# built once: every call of main parses with it into a fresh namespace
PARSER = build_parser()


# ---------------------------------------------------------------------------
# allocator

# glibc's mallopt(3) parameter numbers (malloc.h) and the values main pins
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 64 << 20
TRIM_THRESHOLD = 256 << 20
_malloc_pinned = False


def pin_malloc() -> None:
    """Fix glibc's mmap and trim thresholds, once per process.

    By default glibc raises its mmap threshold to the largest block freed so
    far and trims the heap top beyond twice that, so the large temporaries
    of a 64-row chunk are handed back to the OS between chunks and requests
    and come back as fresh, zeroed pages. Setting either threshold switches
    that off: blocks under ``MMAP_THRESHOLD`` come from the heap, which
    keeps up to ``TRIM_THRESHOLD`` of free top for the next chunk. Where the
    C library has no ``mallopt`` (macOS, Windows) this does nothing."""
    global _malloc_pinned
    if _malloc_pinned:
        return
    _malloc_pinned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The first call in a process pins the allocator (``pin_malloc``), so
    later chunks and requests reuse the pages earlier ones freed; importing
    the package alone leaves malloc as it was. Errors the package raises
    become one ``error:`` line on stderr and their exit code."""
    pin_malloc()
    args = PARSER.parse_args(argv)
    try:
        # overflow and invalid-value warnings would only repeat, on stderr,
        # what the package's finiteness checks report as one error line
        with np.errstate(all="ignore"):
            return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
