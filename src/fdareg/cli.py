"""Command-line entry point.

Commands: ``represent`` (basis projection + LOO report, optional curve
files), ``make-holes`` (semi-artificial missing-data benchmark),
``experiment`` (one spec file) and ``suite`` (a whole results table).
Every run writes a manifest sufficient to reproduce it; all randomness
derives from one ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import fdata, fpca, represent, suites, transforms
from .cv import derive_seed
from .errors import ConfigError, FdaregError
from .selection import ExperimentSpec, run_experiment


def _resolve_data(path: str) -> Path:
    """Resolve a data path, falling back to $FDAREG_DATA_DIR."""
    p = Path(path)
    if p.exists():
        return p
    env = os.environ.get("FDAREG_DATA_DIR")
    if env and (Path(env) / path).exists():
        return Path(env) / path
    raise FileNotFoundError(path)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _load(args) -> fdata.Dataset:
    return fdata.load_dataset(_resolve_data(args.data), args.format)


def _split_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="dataset file")
    parser.add_argument(
        "--format", default="tecator-grid", choices=["tecator-grid", "generic-pairs"]
    )


def _write_manifest(outdir: Path, payload: dict) -> None:
    payload = dict(payload, toolkit_version=__version__)
    _atomic_write(outdir / "manifest.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _args_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_make_holes(args) -> int:
    dataset = _load(args)
    holed = fdata.make_holes(dataset, args.drop_fraction, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fdata.save_generic_pairs(holed, out)
    print(f"wrote {len(holed)} holed functions to {out}")
    return 0


def cmd_represent(args) -> int:
    dataset = _load(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.dimension == "loo":
        sel = represent.select_basis_size(
            dataset.functions, dataset.domain, args.basis, args.order
        )
        dimension = sel.dimension
        loo_lines = ["dimension,total_loo"]
        loo_lines += [f"{q},{sel.scores[q]:.12g}" for q in sorted(sel.scores)]
        loo_lines += [f"{q},skipped:{reason}" for q, reason in sorted(sel.skipped.items())]
        _atomic_write(outdir / "loo_report.csv", "\n".join(loo_lines) + "\n")
    else:
        dimension = args.dimension
    basis = represent.make_basis(args.basis, dataset.domain, dimension, args.order)
    gram = basis.gram_factor()

    alpha, sse = represent.fit_dataset(dataset.functions, basis)
    beta = alpha @ gram.chol.T
    header = ",".join(f"c{k}" for k in range(dimension))
    for name, mat in (("alpha", alpha), ("beta", beta)):
        rows = [f"id,{header}"]
        rows += [
            f"{f.id}," + ",".join(f"{v:.12g}" for v in row)
            for f, row in zip(dataset.functions, mat)
        ]
        _atomic_write(outdir / f"{name}.csv", "\n".join(rows) + "\n")

    # reconstructions at the sample abscissas, reloadable as a dataset
    recon = fdata.Dataset(
        [
            fdata.SampledFunction(f.x, basis.evaluate(f.x) @ a, id=f.id)
            for f, a in zip(dataset.functions, alpha)
        ],
        dataset.targets,
        dataset.domain,
    )
    fdata.save_generic_pairs(recon, outdir / "reconstruction.pairs")

    summary = {
        "basis": args.basis,
        "order": args.order,
        "dimension": dimension,
        "n_functions": len(dataset),
        "mean_sse": float(np.mean(sse)),
    }
    _write_manifest(outdir, {"command": "represent", "args": _args_dict(args), **summary})
    if args.emit_curves:
        _emit_curves(dataset, alpha, basis, gram, outdir, args)
    print(
        f"represented {len(dataset)} functions on a {args.basis} basis "
        f"(order {args.order}, dimension {dimension}); outputs in {outdir}"
    )
    return 0


def _emit_curves(dataset, alpha, basis, gram, outdir: Path, args) -> None:
    """Plot-ready (x, y) curve files: samples, fits, derivatives, variance."""
    a, b = dataset.domain
    grid = np.linspace(a, b, 400)
    n_show = min(args.curve_functions, len(dataset))

    def curve_file(name, columns, rows):
        lines = [",".join(columns)]
        lines += [",".join(f"{v:.10g}" for v in row) for row in rows]
        _atomic_write(outdir / name, "\n".join(lines) + "\n")

    for i, f in enumerate(dataset.functions[:n_show]):
        curve_file(f"curve_samples_{i}.csv", ["x", "y"], np.column_stack([f.x, f.y]))
    for kind, name in (("none", "fit"), ("center-reduce", "center_reduce"),
                       ("deriv1", "deriv1"), ("deriv2", "deriv2")):
        shown = np.arange(n_show)
        if kind == "center-reduce":
            # a constant function has no reduced curve; the others still do
            shown = shown[~transforms.constant_rows(alpha[shown], basis, gram)]
        try:
            coefs, on, _ = transforms.transform_dataset(alpha[shown], basis, gram, kind)
        except FdaregError:
            continue  # a derivative the basis lacks
        values = on.evaluate(grid) @ coefs.T
        for col, i in enumerate(shown):
            curve_file(
                f"curve_{name}_{i}.csv", ["x", "y"], np.column_stack([grid, values[:, col]])
            )

    betas = alpha @ gram.chol.T
    model = fpca.fit_fpca(betas)
    ratio = model.explained_variance_ratio()
    curve_file(
        "curve_pca_variance.csv",
        ["component", "explained_variance_pct"],
        np.column_stack([np.arange(1, ratio.size + 1), 100.0 * ratio]),
    )
    _, means, _, _ = transforms.row_stats(alpha, basis, gram)
    first_scores = fpca.scores(model, betas, n_components=1)[:, 0]
    curve_file(
        "curve_pc1_vs_mean.csv",
        ["spectrum_mean", "pc1_score"],
        np.column_stack([means, first_scores]),
    )


def _report_lines(rows, title: str) -> str:
    width = max(len(name) for name, _, _ in rows) + 2
    lines = [title, ""]
    lines.append(f"{'experiment':<{width}}{'test-rmse':>10}  selected")
    for name, report, failure in rows:
        if report is None:
            lines.append(f"{name:<{width}}{'failed':>10}  {failure}")
        else:
            lines.append(
                f"{name:<{width}}{report.test_rmse:>10.4f}  {report.selected_as_text()}"
            )
    return "\n".join(lines) + "\n"


def _results_csv(rows) -> str:
    lines = ["experiment,selected-params,test-rmse,wall-time"]
    for name, report, failure in rows:
        if report is None:
            lines.append(f"{name},failed: {failure.replace(',', ';')},,")
            continue
        sel = report.selected_as_text().replace(",", ";")
        lines.append(f"{name},{sel},{report.test_rmse:.6f},{report.wall_time:.3f}")
    return "\n".join(lines) + "\n"


def _run_rows(specs, train, test, outdir: Path, manifest: dict, title: str) -> int:
    """Run every row, writing its JSON as it finishes, then the table files
    and the manifest. A row that fails with a toolkit error is recorded
    (error type and message) and the next row runs; the exit status is 1
    if any row failed."""
    rows = []  # (name, report or None, failure text or None)
    for spec in specs:
        print(f"running {spec.name} ...", flush=True)
        t0 = time.perf_counter()
        try:
            report = run_experiment(spec, train, test)
        except FdaregError as exc:
            failure = f"{type(exc).__name__}: {exc}"
            print(f"error: {spec.name}: {failure}", file=sys.stderr, flush=True)
            rows.append((spec.name, None, failure))
            row_payload = {
                "name": spec.name,
                "model": spec.model,
                "error": {"type": type(exc).__name__, "message": str(exc)},
                "seed": spec.seed,
            }
        else:
            print(
                f"  {spec.name}: test RMSE {report.test_rmse:.4f} "
                f"({time.perf_counter() - t0:.1f}s; {report.selected_as_text()})",
                flush=True,
            )
            rows.append((spec.name, report, None))
            row_payload = {
                "name": report.name,
                "model": report.model,
                "test_rmse": report.test_rmse,
                "cv_score": report.cv_score,
                "selected": report.selected,
                "info": report.info,
                "notes": list(report.notes),
                "seed": report.seed,
            }
        _atomic_write(
            outdir / f"row_{spec.name}.json",
            json.dumps(row_payload, indent=2, sort_keys=True) + "\n",
        )
    _atomic_write(outdir / "report.txt", _report_lines(rows, title))
    _atomic_write(outdir / "results.csv", _results_csv(rows))
    manifest["rows"] = [spec.name for spec in specs]
    manifest["specs"] = [spec.to_dict() for spec in specs]
    _write_manifest(outdir, manifest)
    print((outdir / "report.txt").read_text(), end="")
    return 1 if any(report is None for _, report, _ in rows) else 0


def _prepare_split(args, dataset, master_seed: int):
    if args.drop_fraction > 0:
        dataset = fdata.make_holes(
            dataset, args.drop_fraction, derive_seed(master_seed, "holes")
        )
    shuffle = args.split == "random"
    return fdata.split(
        dataset, args.test_size, seed=derive_seed(master_seed, "split"), shuffle=shuffle
    )


def cmd_experiment(args) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file {args.spec} is not valid JSON: {exc}") from None
    spec = ExperimentSpec.from_dict(raw)
    if args.seed is not None:
        spec = ExperimentSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    spec.validate()  # before its seed derives the split's
    dataset = _load(args)
    train, test = _prepare_split(args, dataset, spec.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": "experiment",
        "args": _args_dict(args),
        "split": args.split,
        "n_train": len(train),
        "n_test": len(test),
    }
    return _run_rows([spec], train, test, outdir, manifest, f"experiment: {spec.name}")


def cmd_suite(args) -> int:
    builder = suites.SUITE_BUILDERS[args.table]
    if args.table in suites.HOLED_TABLES and args.drop_fraction == 0.0:
        args.drop_fraction = 0.1
    specs = builder(seed=args.seed)
    dataset = _load(args)
    train, test = _prepare_split(args, dataset, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": "suite",
        "table": args.table,
        "args": _args_dict(args),
        "split": args.split,
        "n_train": len(train),
        "n_test": len(test),
    }
    title = (
        f"suite {args.table}  seed={args.seed}  split={args.split}  "
        f"drop-fraction={args.drop_fraction}  train={len(train)}  test={len(test)}"
    )
    return _run_rows(specs, train, test, outdir, manifest, title)


def _dimension(text: str) -> int | str:
    """``--dimension``: ``loo`` or a positive basis size."""
    if text == "loo" or (text.isdigit() and int(text) > 0):
        return text if text == "loo" else int(text)
    raise argparse.ArgumentTypeError(f"expected 'loo' or a positive integer, got {text!r}")


def _count(text: str) -> int:
    """``--seed`` and ``--curve-functions``: a non-negative integer."""
    if text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdareg",
        description="Functional data regression toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("represent", help="project functions onto a smooth basis")
    _split_args(p)
    p.add_argument("--basis", default="bspline", choices=["bspline", "fourier"])
    p.add_argument("--order", type=int, default=4, help="spline order")
    p.add_argument(
        "--dimension", default="loo", type=_dimension,
        help="basis size, or 'loo' to select it by leave-one-out",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emit-curves", action="store_true", help="write plot-ready curve files")
    p.add_argument("--curve-functions", type=_count, default=5)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("make-holes", help="punch random holes into every function")
    _split_args(p)
    p.add_argument("--drop-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out", required=True, help="output file (generic-pairs)")
    p.set_defaults(func=cmd_make_holes)

    for name, fn, extra in (
        ("experiment", cmd_experiment, True),
        ("suite", cmd_suite, False),
    ):
        p = sub.add_parser(
            name,
            help="run one experiment spec" if extra else "run a whole results table",
        )
        _split_args(p)
        if extra:
            p.add_argument("--spec", required=True, help="experiment spec (JSON)")
            p.add_argument("--seed", type=_count, default=None, help="override spec seed")
        else:
            p.add_argument("--table", required=True, choices=sorted(suites.SUITE_BUILDERS))
            p.add_argument("--seed", type=_count, default=0)
        p.add_argument("--test-size", type=int, default=43)
        p.add_argument("--split", default="fixed", choices=["fixed", "random"])
        p.add_argument(
            "--drop-fraction", type=float, default=0.0,
            help="hole fraction applied before splitting (tables 3-5 default to 0.1)",
        )
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FdaregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
