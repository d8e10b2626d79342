"""Command-line entry point.

Commands: ``represent`` (basis projection + LOO report, optional curve
files), ``make-holes`` (semi-artificial missing-data benchmark),
``experiment`` (one spec file) and ``suite`` (a whole results table).
Every run writes a manifest sufficient to reproduce it; all randomness
derives from one ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import fdata, fpca, represent, suites, transforms
from .cv import derive_seed
from .errors import ConfigError, FdaregError
from .selection import ExperimentSpec, run_experiment


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _load(args) -> fdata.Dataset:
    return fdata.load_dataset(args.data, args.format)


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


def _punch_holes(dataset, fraction: float, master_seed: int) -> fdata.Dataset:
    """The holes of ``make-holes --seed s`` and of ``suite --seed s``."""
    return fdata.make_holes(dataset, fraction, derive_seed(master_seed, "holes"))


def cmd_make_holes(args) -> int:
    dataset = _load(args)
    holed = _punch_holes(dataset, args.drop_fraction, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fdata.save_generic_pairs(holed, out)
    print(f"wrote {len(holed)} holed functions to {out}")
    return 0


def cmd_represent(args) -> int:
    dataset = _load(args)
    grids = fdata.Grids(dataset.functions)
    sel, dimension = None, args.dimension
    if dimension == "loo":
        # the winner's coefficients come from its leave-one-out fits
        sel = represent.select_basis_size(grids, dataset.domain, args.basis, args.order)
        dimension, alpha = sel.dimension, sel.coefficients
    basis = represent.make_basis(args.basis, dataset.domain, dimension, args.order)
    if sel is None:
        alpha = represent.fit_dataset(grids, basis)
    # a failed selection or fit leaves no output directory behind
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if sel is not None:
        loo_lines = ["dimension,total_loo"]
        loo_lines += [f"{q},{sel.scores[q]:.12g}" for q in sorted(sel.scores)]
        loo_lines += [f"{q},pruned" for q in sel.pruned]
        loo_lines += [f"{q},skipped:{reason}" for q, reason in sorted(sel.skipped.items())]
        _atomic_write(outdir / "loo_report.csv", "\n".join(loo_lines) + "\n")
    beta = alpha @ basis.gram_factor().T
    header = ",".join(f"c{k}" for k in range(dimension))
    for name, mat in (("alpha", alpha), ("beta", beta)):
        rows = [f"id,{header}"]
        rows += [
            f"{f.id}," + ",".join(f"{v:.12g}" for v in row)
            for f, row in zip(dataset.functions, mat)
        ]
        _atomic_write(outdir / f"{name}.csv", "\n".join(rows) + "\n")

    # reconstructions at the sample abscissas, reloadable as a dataset; the
    # design rows of every curve are sliced from one evaluation on the union
    design = basis.evaluate(grids.union)
    fitted = {i: design[rows] @ alpha[i] for idx, rows, _ in grids.blocks for i in idx}
    # each grid's residuals as the fit forms them, from a C-ordered (q, n)
    # block, so the SSE has the bits of the QR fit's own residuals
    sse = np.empty(len(grids))
    for idx, rows, Y in grids.blocks:
        resid = Y - design[rows] @ np.ascontiguousarray(alpha[idx].T)
        sse[idx] = np.einsum("ij,ij->j", resid, resid)
    recon = fdata.Dataset(
        [fdata.SampledFunction(f.x, fitted[i], id=f.id) for i, f in enumerate(dataset.functions)],
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
    if args.emit_curves:
        summary["omitted_curves"] = _emit_curves(dataset, alpha, basis, outdir, args)
    _write_manifest(outdir, {"command": "represent", "args": _args_dict(args), **summary})
    print(
        f"represented {len(dataset)} functions on a {args.basis} basis "
        f"(order {args.order}, dimension {dimension}); outputs in {outdir}"
    )
    return 0


def _emit_curves(dataset, alpha, basis, outdir: Path, args) -> dict[str, str]:
    """Plot-ready (x, y) curve files: samples, fits, derivatives, variance.

    Returns the curve files left out, by curve kind, with the reason: a
    derivative the basis lacks, the constant curves, which have no
    reduced curve, or the PCA curves of a single curve."""
    a, b = dataset.domain
    grid = np.linspace(a, b, 400)
    n_show = min(args.curve_functions, len(dataset))

    def curve_file(name, columns, rows):
        lines = [",".join(columns)]
        lines += [",".join(f"{v:.10g}" for v in row) for row in rows]
        _atomic_write(outdir / name, "\n".join(lines) + "\n")

    for i, f in enumerate(dataset.functions[:n_show]):
        curve_file(f"curve_samples_{i}.csv", ["x", "y"], np.column_stack([f.x, f.y]))
    means, _, constant = transforms.row_stats(alpha, basis)
    omitted = {}
    for kind, name in (("none", "fit"), ("center-reduce", "center_reduce"),
                       ("deriv1", "deriv1"), ("deriv2", "deriv2")):
        shown = np.arange(n_show)
        if kind == "center-reduce" and constant[shown].any():
            # a constant function has no reduced curve; the others still do
            omitted[name] = f"curves {shown[constant[shown]].tolist()} are constant"
            shown = shown[~constant[shown]]
        try:
            coefs, on = transforms.transform_dataset(
                alpha[shown], basis, kind, [dataset.functions[i].id for i in shown])
        except FdaregError as exc:  # a derivative the basis lacks
            omitted[name] = f"{type(exc).__name__}: {exc}"
            continue
        values = on.evaluate(grid) @ coefs.T
        for col, i in enumerate(shown):
            curve_file(
                f"curve_{name}_{i}.csv", ["x", "y"], np.column_stack([grid, values[:, col]])
            )

    betas = alpha @ basis.gram_factor().T
    try:
        model = fpca.fit_fpca(betas)
    except FdaregError as exc:  # a single curve has no principal component
        omitted["pca_variance"] = omitted["pc1_vs_mean"] = f"{type(exc).__name__}: {exc}"
        return omitted
    ratio = model.explained_variance_ratio()
    curve_file(
        "curve_pca_variance.csv",
        ["component", "explained_variance_pct"],
        np.column_stack([np.arange(1, ratio.size + 1), 100.0 * ratio]),
    )
    first_scores = fpca.scores(model, betas, n_components=1)[:, 0]
    curve_file(
        "curve_pc1_vs_mean.csv",
        ["spectrum_mean", "pc1_score"],
        np.column_stack([means, first_scores]),
    )
    return omitted


def _run_row(spec, train, test) -> tuple[dict, float]:
    """One row's record: the dict its ``row_<name>.json`` holds, with the
    error type and message in place of the results if the row fails with a
    toolkit error, and its wall time."""
    t0 = time.perf_counter()
    row = {"name": spec.name, "model": spec.model, "seed": spec.seed}
    try:
        report = run_experiment(spec, train, test)
    except FdaregError as exc:
        row["error"] = {"type": type(exc).__name__, "message": str(exc)}
    else:
        row.update(test_rmse=report.test_rmse, cv_score=report.cv_score,
                   selected=report.selected, info=report.info, notes=list(report.notes))
    return row, time.perf_counter() - t0


def _run_rows(specs, train, test, outdir: Path, manifest: dict, title: str) -> int:
    """Run every row, writing its JSON as it finishes, then the table files
    and the manifest. A row that fails with a toolkit error is recorded
    (error type and message) and the next row runs; the exit status is 1
    if any row failed."""
    table, csv, failed = [], ["experiment,selected-params,test-rmse,wall-time"], False
    for spec in specs:
        print(f"running {spec.name} ...", flush=True)
        row, wall = _run_row(spec, train, test)
        _atomic_write(outdir / f"row_{spec.name}.json",
                      json.dumps(row, indent=2, sort_keys=True) + "\n")
        if "error" in row:
            failed = True
            text = f"{row['error']['type']}: {row['error']['message']}"
            print(f"error: {spec.name}: {text}", file=sys.stderr, flush=True)
            table.append((spec.name, "failed", text))
            csv.append(f"{spec.name},failed: {text.replace(',', ';')},,")
            continue
        text = " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in sorted(row["selected"].items()))
        print(f"  {spec.name}: test RMSE {row['test_rmse']:.4f} ({wall:.1f}s; {text})",
              flush=True)
        table.append((spec.name, f"{row['test_rmse']:.4f}", text))
        csv.append(f"{spec.name},{text.replace(',', ';')},{row['test_rmse']:.6f},{wall:.3f}")
    width = max(len(name) for name, _, _ in table) + 2
    report = [title, "", f"{'experiment':<{width}}{'test-rmse':>10}  selected"]
    report += [f"{name:<{width}}{rmse:>10}  {text}" for name, rmse, text in table]
    _atomic_write(outdir / "report.txt", "\n".join(report) + "\n")
    _atomic_write(outdir / "results.csv", "\n".join(csv) + "\n")
    manifest["rows"] = [spec.name for spec in specs]
    manifest["specs"] = [spec.to_dict() for spec in specs]
    _write_manifest(outdir, manifest)
    print((outdir / "report.txt").read_text(), end="")
    return 1 if failed else 0


def _prepare_split(args, dataset, master_seed: int, holed: bool = False):
    """Punch holes, then split. ``--drop-fraction`` resolves to 0.1 on the
    holed tables and to 0 elsewhere unless given."""
    if args.drop_fraction is None:
        args.drop_fraction = 0.1 if holed else 0.0
    if args.drop_fraction:
        dataset = _punch_holes(dataset, args.drop_fraction, master_seed)
    shuffle = args.split == "random"
    return fdata.split(
        dataset, args.test_size, seed=derive_seed(master_seed, "split"), shuffle=shuffle
    )


def _run_command(args, specs, master_seed: int, holed: bool = False) -> int:
    """The tail of ``experiment`` and ``suite``: load, punch holes, split,
    then run the rows into ``--out``."""
    train, test = _prepare_split(args, _load(args), master_seed, holed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": args.command, "args": _args_dict(args), "split": args.split,
                "n_train": len(train), "n_test": len(test)}
    if args.command == "suite":
        manifest["table"] = args.table
        title = (f"suite {args.table}  seed={args.seed}  split={args.split}  "
                 f"drop-fraction={args.drop_fraction}  train={len(train)}  test={len(test)}")
    else:
        title = f"experiment: {specs[0].name}"
    return _run_rows(specs, train, test, outdir, manifest, title)


def cmd_experiment(args) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file {args.spec} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"spec file {args.spec} is not UTF-8 text ({exc.reason})") from None
    except IsADirectoryError:
        raise ConfigError(f"spec file {args.spec} is a directory, not a spec file") from None
    spec = ExperimentSpec.from_dict(raw)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    spec.validate()  # before its seed derives the split's
    return _run_command(args, [spec], spec.seed)


def cmd_suite(args) -> int:
    specs = suites.SUITE_BUILDERS[args.table](seed=args.seed)
    return _run_command(args, specs, args.seed, args.table in suites.HOLED_TABLES)


def _positive(*words: str):
    """The parser of a flag that takes a positive integer or one of
    ``words``: ``--order`` and ``--dimension``."""
    expected = " or ".join([*map(repr, words), "a positive integer"])

    def parse(text: str) -> int | str:
        if text in words:
            return text
        if text.isdigit() and int(text) > 0:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


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
    p.add_argument("--order", type=_positive(), default=4, help="spline order")
    p.add_argument(
        "--dimension", default="loo", type=_positive("loo"),
        help="basis size, or 'loo' to select it by leave-one-out",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emit-curves", action="store_true", help="write plot-ready curve files")
    p.add_argument("--curve-functions", type=_count, default=5)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("make-holes", help="punch random holes into every function")
    _split_args(p)
    p.add_argument("--drop-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=_count, default=0,
                   help="the holes of 'suite --seed' with the same value")
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
            "--drop-fraction", type=float, default=None,
            help="hole fraction applied before splitting (default 0.1 on tables 3-5, "
            "else 0)",
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
    except (FileExistsError, IsADirectoryError, NotADirectoryError) as exc:
        # an --out that is a file where a directory must be, or the reverse
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
