"""Command-line front end: PGM I/O, experiment setup and a run's artifacts.

Three subcommands:

``run``
    Execute one of the named benchmark experiments (1, 2A, 2B, 3A, 3B)
    on a ground-truth image: degrade it with the experiment's blur and
    noise, deblur with the requested solvers, and write artifacts.
``deblur``
    Deblur an already-degraded image with an explicit blur family and
    regularization weight (no ground truth, so no ISNR column).
``psf-dump``
    Print a blur kernel's taps, for inspection.

Artifacts land in ``--out`` with stable names: per solver a
reconstruction ``<id>_<solver>.pgm`` and a trace ``<id>_<solver>_trace.csv``,
plus one ``<id>_report.json`` per run (``<id>`` is the experiment id, or
``deblur``); this module alone decides their names and formats.  Exit
status is 0 iff every requested solver terminated without divergence;
usage errors exit with 2.

Both ``run`` and ``deblur`` solve through
:func:`~salsa_deconv.bench.solve_observation`, so their solvers iterate
in float32: an 8-bit observation is exact there, and the reconstruction
is rounded to 8 bits again.

Only binary 8-bit PGM (P5) images are supported.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from ._checks import check_image
from .bench import (
    DEFAULT_EXPERIMENTS,
    SOLVER_NAMES,
    ExperimentReport,
    ExperimentSpec,
    phantom,
    run_experiment,
    solve_observation,
)
from .convolution import BlurKind, build_psf

__all__ = ["PgmError", "read_image", "write_image", "parse_args", "main"]


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


# whitespace and '#' comments to the end of the line, then one header token
_HEADER_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def read_image(path: str | Path) -> np.ndarray:
    """Decode a binary 8-bit PGM (P5) file into a float array.

    The header is netpbm's: ``P5``, then width, height and maxval, each
    ASCII decimal digits (no sign or ``_``) after whitespace or ``#``
    comments to the end of a line, then one whitespace byte.  maxval
    above 255 (16-bit PGM) and raster bytes above maxval are rejected;
    errors name the byte offset.  ``maxval < 255`` is scaled by
    ``255 / maxval`` onto the 0-255 scale the experiments' taus assume.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:2] != b"P5":
        raise PgmError(f"{path}: not a binary PGM (expected magic 'P5' at byte 0)")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        match = _HEADER_FIELD.match(data, pos)
        start, pos = match.span(1)
        token = match[1]
        if not token:
            raise PgmError(f"{path}: truncated header at byte {start} (missing {name})")
        try:
            if not token.isdigit():  # int() would also take a sign and '_'
                raise ValueError
            value = int(token)  # raises past Python's digit limit too
        except ValueError:
            text = token.decode("latin-1")
            raise PgmError(f"{path}: invalid {name} {text!r} at byte {start}") from None
        if value == 0:
            raise PgmError(f"{path}: {name} must be positive, got 0 at byte {start}")
        if start == match.start():
            raise PgmError(f"{path}: missing whitespace before {name} at byte {start}")
        fields.append(value)
    width, height, maxval = fields
    if maxval > 255:
        raise PgmError(f"{path}: unsupported maxval {maxval} (only 8-bit PGM, maxval <= 255)")
    if not data[pos:pos + 1].isspace():  # b"".isspace() is False at the end of data
        raise PgmError(f"{path}: missing whitespace after maxval at byte {pos}")
    pos += 1
    expected = width * height
    raster = data[pos:pos + expected]
    if len(raster) < expected:
        raise PgmError(
            f"{path}: truncated raster at byte {pos + len(raster)} "
            f"(have {len(raster)} of {expected} pixel bytes)"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8)
    image = pixels.reshape(height, width).astype(float)
    if maxval < 255:
        above = np.flatnonzero(pixels > maxval)
        if above.size:
            first = int(above[0])
            raise PgmError(
                f"{path}: pixel value {pixels[first]} above maxval {maxval} at byte {pos + first}"
            )
        # multiplying first keeps the product an integer, so maxval lands on exactly 255
        image *= 255.0
        image /= maxval
    return image


def write_image(image: np.ndarray, path: str | Path) -> None:
    """Write a real, finite 2-D array as binary 8-bit PGM, clamping to [0, 255] and rounding."""
    image = check_image("image", image)
    pixels = np.rint(np.clip(image, 0.0, 255.0)).astype(np.uint8)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def _real_flag(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _mu_flag(text: str) -> float | None:
    return None if text == "auto" else _real_flag(text)


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--solver", action="append", choices=SOLVER_NAMES, default=None,
                     dest="solvers", help="solver to run (repeatable; default: salsa)")
    sub.add_argument("--mu", type=_mu_flag, default=None, metavar="REAL|auto",
                     help="penalty weight; 'auto' (default) uses 0.1*tau")
    sub.add_argument("--max-iters", type=int, default=None, metavar="INT")
    sub.add_argument("--rel-tol", type=_real_flag, default=None, metavar="REAL",
                     help="stop when the relative objective change drops below this")
    sub.add_argument("--target-objective", type=_real_flag, default=None, metavar="REAL",
                     help="stop once the objective reaches this value instead")
    sub.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                     help="output directory (default: current directory)")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse and check the command line.

    The namespace holds each flag under its long name; ``solvers`` is a
    tuple (empty when no ``--solver`` was given), ``blur`` a
    :class:`BlurKind` and ``mu`` ``None`` for ``auto``.  The settings
    are checked by building the :class:`ExperimentSpec` they describe, so
    every value the library rejects is a usage error.
    """
    parser = argparse.ArgumentParser(
        prog="salsa-deconv",
        description="Frame-based image deblurring via augmented-Lagrangian splitting.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    run = subs.add_parser("run", help="run a named benchmark experiment")
    run.add_argument("--experiment", required=True, choices=DEFAULT_EXPERIMENTS, metavar="ID",
                     help="experiment id: %(choices)s")
    run.add_argument("--image", type=Path, default=None, metavar="PATH",
                     help="ground-truth PGM (default: built-in 256x256 phantom)")
    run.add_argument("--sigma2", type=_real_flag, default=None, metavar="REAL",
                     help="override the experiment's noise variance")
    run.add_argument("--tau", type=_real_flag, default=None, metavar="REAL",
                     help="override the experiment's regularization weight")
    run.add_argument("--seed", type=int, default=None, metavar="INT",
                     help="override the experiment's noise seed")
    _add_solver_flags(run)

    deblur = subs.add_parser("deblur", help="deblur an observed image")
    deblur.add_argument("--image", type=Path, required=True, metavar="PATH",
                        help="observed (degraded) PGM image")
    deblur.add_argument("--blur", required=True,
                        choices=[k.value for k in BlurKind],
                        help="blur family the observation was degraded with")
    deblur.add_argument("--tau", type=_real_flag, required=True, metavar="REAL",
                        help="regularization weight (problem-dependent, no default)")
    _add_solver_flags(deblur)

    dump = subs.add_parser("psf-dump", help="print a blur kernel's taps")
    dump.add_argument("--blur", required=True, choices=[k.value for k in BlurKind])

    ns = parser.parse_args(argv)

    image = getattr(ns, "image", None)
    if image is not None and not image.is_file():
        parser.error(f"--image: file not found: {image}")

    if hasattr(ns, "solvers"):
        ns.solvers = tuple(ns.solvers or ())
    if hasattr(ns, "blur"):
        ns.blur = BlurKind(ns.blur)
    if ns.subcommand != "psf-dump":
        try:
            _spec_from_flags(ns)
        except ValueError as exc:
            parser.error(str(exc))
    return ns


def _spec_from_flags(cfg: argparse.Namespace) -> ExperimentSpec:
    """The experiment a ``run`` or ``deblur`` command line asks for.

    ``run`` overrides the shipped experiment with the flags given;
    ``deblur`` starts from the observation alone, whose noise variance
    and seed are not solver inputs.
    """
    flags = {"noise_variance": getattr(cfg, "sigma2", None), "tau": cfg.tau, "mu": cfg.mu,
             "solvers": cfg.solvers or None, "max_iters": cfg.max_iters,
             "rel_tol": cfg.rel_tol, "target_objective": cfg.target_objective,
             "seed": getattr(cfg, "seed", None)}
    given = {name: value for name, value in flags.items() if value is not None}
    if cfg.subcommand == "run":
        return dataclasses.replace(DEFAULT_EXPERIMENTS[cfg.experiment], **given)
    return ExperimentSpec(id="deblur", blur_kind=cfg.blur, noise_variance=0.0, **given)


def _cmd_solve(cfg: argparse.Namespace) -> int:
    """``run`` or ``deblur``: solve, write the artifacts, print one line per solver."""
    spec = _spec_from_flags(cfg)
    if cfg.subcommand == "run":
        x_true = read_image(cfg.image) if cfg.image is not None else phantom(256)
        report = run_experiment(spec, x_true)
    else:
        # solve_observation casts to float32, where 8-bit values are exact (values
        # scaled from a maxval below 255 round there by at most 2**-24 relative)
        report = solve_observation(read_image(cfg.image), spec)

    _write_artifacts(report, cfg.out)
    for name, r in report.results.items():
        if r.diverged:
            print(f"{spec.id} {name}: DIVERGED ({r.error})")
        else:
            isnr_txt = "" if r.isnr_db is None else f"  isnr={r.isnr_db:.2f} dB"
            print(f"{spec.id} {name}: {r.iterations} iters  "
                  f"objective={r.objective:.6g}  {r.seconds:.2f} s{isnr_txt}")
    return 0 if not any(r.diverged for r in report.results.values()) else 1


def _write_artifacts(report: ExperimentReport, out: Path) -> None:
    """Write a run's artifacts into ``out``, creating it.

    Per solver, in the report's order: the reconstruction ``<id>_<solver>.pgm``
    (none for a diverged solver) and the trace ``<id>_<solver>_trace.csv``;
    then ``<id>_report.json``.  Before it writes anything, it removes the
    files at all of those paths, the report first, so a failed write or
    removal leaves no report beside files it does not describe.  The
    trace's columns are ``iter,elapsed_s,objective,isnr_db``, floats at 17
    significant digits (lossless for float64), and a missing ISNR leaves
    its field empty.  The report echoes the experiment, the input digest
    and one block per solver: the fields of its
    :class:`~salsa_deconv.bench.SolverResult` but ``name``, ``trace`` and
    ``image``, with ``null`` for an infinite ISNR, then the trace's
    ``phase_s``.  Text is written with LF line endings.
    """
    out.mkdir(parents=True, exist_ok=True)
    prefix = report.spec.id
    report_path = out / f"{prefix}_report.json"
    paths = {name: (out / f"{prefix}_{name}.pgm", out / f"{prefix}_{name}_trace.csv")
             for name in report.results}
    for path in [report_path, *(path for pair in paths.values() for path in pair)]:
        _remove(path)
    solvers = {}
    for name, r in report.results.items():
        image_path, trace_path = paths[name]
        if r.image is not None:
            write_image(r.image, image_path)
        rows = ["iter,elapsed_s,objective,isnr_db"]
        rows += [f"{rec.iteration},{rec.elapsed_s:.17g},{rec.objective:.17g},"
                 + ("" if rec.isnr_db is None else f"{rec.isnr_db:.17g}")
                 for rec in r.trace.records]
        _write_text(trace_path, "\n".join(rows) + "\n")
        block = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)
                 if f.name not in ("name", "trace", "image")}
        if r.isnr_db is not None and not math.isfinite(r.isnr_db):
            block["isnr_db"] = None
        solvers[name] = {**block, "phase_s": r.trace.phase_s}
    doc = {
        "experiment": {**dataclasses.asdict(report.spec),
                       "blur_kind": report.spec.blur_kind.value},
        "intensity_scale": [0.0, 255.0],
        "input_sha256": report.input_sha256,
        "target_objective": report.target_objective,
        "solvers": solvers,
    }
    _write_text(report_path, json.dumps(doc, indent=2) + "\n")


def _remove(path: Path) -> None:
    """Remove the file at ``path``, if any; a failure, such as a directory there, names it."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` with LF line endings; a failure names the file."""
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _cmd_psf_dump(cfg: argparse.Namespace) -> int:
    taps = build_psf(cfg.blur)
    kh, kw = taps.shape
    print(f"{cfg.blur.value}: {kh}x{kw}, center {(kh // 2, kw // 2)}")
    for row in taps:
        print(" ".join(format(v, ".17g") for v in row))
    return 0


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    try:
        if cfg.subcommand == "psf-dump":
            return _cmd_psf_dump(cfg)
        return _cmd_solve(cfg)
    except (PgmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
