"""Command-line front end: theory tables, outage sweeps, slope fits, and
the transceiver identity battery.

Subcommands
-----------
theory        closed-form diversity predictions for rates or multiplexing gains
simulate      Monte Carlo outage sweep from a config file, CSV + manifest out
slope         diversity slope of a previously written curve file
design-check  numerical identity/power battery over seeded channel draws

Exit codes: 0 success, 1 runtime or tolerance failure, 2 usage error.
The ``RELAYLAB_SEED`` environment variable overrides the config-file
master seed (an explicit ``--seed`` flag beats both).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, theory
from .channel import ChannelRealization, SystemConfig, sample_realization
from .numerics import _MAX_U64, ContractViolation, SeedSpec, _check_scalar
from .simulator import (
    OUTAGE_MODES,
    FitInfeasibleError,
    OutageCurve,
    OutagePoint,
    SweepSpec,
    fit_slope,
    run_sweep,
)
from .transceiver import (
    build_design,
    destination_receiver_second_hop,
    error_cov_decomposed,
    error_cov_direct,
    relay_power,
    ry_identity_gap,
)

SEED_ENV_VAR = "RELAYLAB_SEED"
CURVE_HEADER = "snr_db,p_out,trials,outages,ci_low,ci_high"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _echo(x: float) -> str:
    # A manifest must parse back to its spec: the short text where it reads back exactly.
    text = _fmt(x)
    return text if float(text) == x else repr(float(x))


def _usage_error(message: str) -> int:
    # One ``error:`` line on stderr, whatever line breaks the message carries.
    print(f"error: {' '.join(message.split())}", file=sys.stderr)
    return EXIT_USAGE


def _parsed(name: str, parse, text):
    """``parse(text)``, with any read, parse or contract failure re-raised
    as a :class:`ContractViolation` that names ``name``, a flag or a key."""
    try:
        return parse(text)
    except (OSError, ValueError, configparser.Error) as exc:  # ContractViolation is a ValueError
        raise ContractViolation(f"{name}: {exc}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[text.lower()]


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Curve / config / manifest serialization
# ---------------------------------------------------------------------------


def curve_to_csv(curve: OutageCurve) -> str:
    lines = [CURVE_HEADER]
    for p in curve.points:
        lines.append(
            f"{_fmt(p.snr_db)},{_fmt(p.p_out)},{p.trials},{p.outages},"
            f"{_fmt(p.ci_low)},{_fmt(p.ci_high)}"
        )
    return "\n".join(lines) + "\n"


def read_curve_csv(path: Path, config: SystemConfig | None = None) -> OutageCurve:
    """Read a curve file: finite SNRs, strictly ascending; integer 0 <= outages <= trials, trials >= 1;
    p_out in [0, 1], positive exactly when outages are; CIs in [0, 1]. A row that breaks
    this raises :class:`ContractViolation` naming the file, line and field."""
    rows = [(number, ln) for number, ln in enumerate(path.read_text().splitlines(), start=1) if ln.strip()]
    if not rows or rows[0][1] != CURVE_HEADER:
        raise ContractViolation(f"{path} is not a curve file (bad header)")
    names = CURVE_HEADER.split(",")
    points = []
    for number, ln in rows[1:]:
        where = f"{path} line {number}"
        texts = ln.split(",")
        if len(texts) != len(names):
            raise ContractViolation(f"{where}: expected {len(names)} fields, got {len(texts)}")
        row = {name: _parsed(f"{where}: {name}", int if name in ("trials", "outages") else float, text)
               for name, text in zip(names, texts)}
        _check_scalar(f"{where}: snr_db", row["snr_db"], low=points[-1].snr_db if points else None, open_low=True)
        _check_scalar(f"{where}: trials", row["trials"], integer=True, low=1)
        _check_scalar(f"{where}: outages", row["outages"], integer=True, low=0, high=row["trials"])
        some = row["outages"] > 0  # p_out > 0 exactly when outages > 0
        _check_scalar(f"{where}: p_out", row["p_out"], low=0, high=1 if some else 0, open_low=some)
        for name in ("ci_low", "ci_high"):
            _check_scalar(f"{where}: {name}", row[name], low=0, high=1)
        points.append(OutagePoint(**row))
    return OutageCurve(points=tuple(points), mode=None, config=config)


# The sweep config, one row per key: (section, key, parse, format, default).
# Each key is a field of SystemConfig ([system], all but rho) or SweepSpec
# ([sweep]), and no other key is read. A default of None marks a required key.
_SPEC_FIELDS = (
    ("system", "n_s", int, str, None),
    ("system", "n_r", int, str, None),
    ("system", "n_d", int, str, None),
    ("system", "rate_bpcu", float, _echo, None),
    ("sweep", "snr_grid_db", _parse_floats, lambda grid: ", ".join(map(_echo, grid)), None),
    ("sweep", "trials_per_point", int, str, None),
    ("sweep", "outage_mode", str, str, "bound"),
    ("sweep", "master_seed", int, str, 0),
    ("sweep", "adaptive", _parse_bool, lambda flag: str(flag).lower(), False),
    ("sweep", "target_outages", int, str, 200),
)
_FIELD_PARSE = {key: parse for _, key, parse, _, _ in _SPEC_FIELDS}


def parse_sweep_config(path: Path) -> SweepSpec:
    """Read a sweep config, or a manifest, which echoes one. Any failure is a
    :class:`ContractViolation` naming the file and, when there is one, the key."""
    return _parsed(f"config {path}", _read_spec, path)


def _read_spec(path: Path) -> SweepSpec:
    parser = configparser.ConfigParser()
    if not parser.read(path):  # configparser skips a file it cannot open
        raise ContractViolation("no such readable file")
    if "system" not in parser or "sweep" not in parser:
        raise ContractViolation("must contain [system] and [sweep] sections")
    fields: dict[str, dict] = {"system": {}, "sweep": {}}
    known = {(section, key) for section, key, *_ in _SPEC_FIELDS}
    for section in fields:  # [run] and [outputs] are the manifest's own, and not read
        for key in parser[section]:
            if (section, key) not in known:
                raise ContractViolation(f"[{section}] {key} is not a sweep config key")
    for section, key, parse, _, default in _SPEC_FIELDS:
        text = parser[section].get(key)
        if text is None and default is None:
            raise ContractViolation(f"[{section}] is missing {key}")
        fields[section][key] = default if text is None else _parsed(f"[{section}] {key}", parse, text)
    return SweepSpec(config=SystemConfig(**fields["system"]), **fields["sweep"])


def spec_echo_text(spec: SweepSpec) -> str:
    blocks = {"system": "[system]\n", "sweep": "\n[sweep]\n"}
    for section, key, _, fmt, _ in _SPEC_FIELDS:
        blocks[section] += f"{key} = {fmt(getattr(spec.config if section == 'system' else spec, key))}\n"
    return "".join(blocks.values())


def manifest_text(spec: SweepSpec, started: str, finished: str, workers: int, outputs: dict[str, str]) -> str:
    lines = [spec_echo_text(spec), "\n[run]"]
    lines.append(f"tool_version = {__version__}")
    lines.append(f"started_at = {started}")
    lines.append(f"finished_at = {finished}")
    lines.append(f"workers = {workers}")
    lines.append("\n[outputs]")
    for key, value in outputs.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def cmd_theory(args: argparse.Namespace) -> int:
    for flag, count in (("--ns", args.ns), ("--nr", args.nr), ("--nd", args.nd)):
        _check_scalar(flag, count, integer=True, low=1)
    flag, text = ("--rates", args.rates) if args.rates is not None else ("--mux", args.mux)
    values = _parsed(flag, _parse_floats, text)
    for value in values:
        _check_scalar(flag, value, low=0)

    if args.rates is not None:
        header = ("rate_bpcu", "m_bar", "d_drt", "regime")
        preds = [theory.predict(args.ns, args.nr, args.nd, rate) for rate in values]
        rows = [(_fmt(r), str(p.m_bar), str(p.d_drt), p.regime_note) for r, p in zip(values, preds)]
    else:
        header = ("mux_gain", "d_dmt")
        rows = [(_fmt(r), _fmt(theory.dmt(args.ns, args.nr, args.nd, r))) for r in values]

    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if args.out:
        text = ",".join(header) + "\n" + "\n".join(",".join(row) for row in rows) + "\n"
        _write_atomic(Path(args.out), text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_scalar("--workers", args.workers, integer=True, low=1)
    spec = parse_sweep_config(Path(args.config))

    seed_source, seed = "--seed", args.seed
    if seed is None and SEED_ENV_VAR in os.environ:
        seed_source, seed = SEED_ENV_VAR, os.environ[SEED_ENV_VAR]
    overrides = [
        (seed_source, "master_seed", seed),
        ("--mode", "outage_mode", args.mode),
        ("--trials", "trials_per_point", args.trials),
        ("--snr-db", "snr_grid_db", args.snr_db),
        ("--adaptive", "adaptive", "true" if args.adaptive else None),
    ]
    # The config parsed to a valid spec, so the first override that
    # makes it invalid is the one to name.
    for source, key, value in overrides:
        if value is not None:
            parse = _FIELD_PARSE[key]
            spec = _parsed(
                f"{source}: invalid sweep spec", lambda text: replace(spec, **{key: parse(text)}), str(value)
            )

    out_dir = Path(args.out_dir)
    started = _utcnow()
    try:
        curve = run_sweep(spec, workers=args.workers)
    except Exception as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finished = _utcnow()

    curve_path = out_dir / "curve.csv"
    _write_atomic(curve_path, curve_to_csv(curve))
    manifest_path = out_dir / "manifest.txt"
    _write_atomic(
        manifest_path,
        manifest_text(spec, started, finished, args.workers, {"curve": curve_path.name}),
    )

    print(f"{spec.config.shape_label} R={_fmt(spec.config.rate_bpcu)} mode={spec.outage_mode} seed={spec.master_seed}")
    print(CURVE_HEADER.replace(",", "  "))
    for p in curve.points:
        print(f"{p.snr_db:6.1f}  {p.p_out:.4e}  {p.trials}  {p.outages}  {p.ci_low:.4e}  {p.ci_high:.4e}")
    print(f"wrote {curve_path} and {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# slope
# ---------------------------------------------------------------------------


def _config_for_slope(args: argparse.Namespace, curve_path: Path) -> SystemConfig | None:
    flags = {"--ns": args.ns, "--nr": args.nr, "--nd": args.nd, "--rate": args.rate}
    if any(v is not None for v in flags.values()):
        if None in flags.values():
            raise ContractViolation("--ns, --nr, --nd and --rate must be given together")
        for flag in ("--ns", "--nr", "--nd"):
            _check_scalar(flag, flags[flag], integer=True, low=1)
        _check_scalar("--rate", args.rate, low=0, open_low=True)  # nothing is in outage at rate 0: no slope
        return SystemConfig(n_s=args.ns, n_r=args.nr, n_d=args.nd, rate_bpcu=args.rate)
    manifest = Path(args.manifest) if args.manifest else curve_path.parent / "manifest.txt"
    if not (args.manifest or manifest.exists()):
        return None
    source = "--manifest" if args.manifest else "sibling manifest"
    return _parsed(source, lambda path: parse_sweep_config(path).config, manifest)


def cmd_slope(args: argparse.Namespace) -> int:
    curve_path = Path(args.curve)
    _check_scalar("--min-count", args.min_count, integer=True, low=1)
    config = _config_for_slope(args, curve_path)
    curve = _parsed("--curve", lambda path: read_curve_csv(path, config=config), curve_path)
    for p in curve.points:  # simulate writes p_out = outages/trials to 10 digits, inside its Wilson interval
        where = f"--curve: {curve_path} at {_fmt(p.snr_db)} dB: p_out {_fmt(p.p_out)}"
        if abs(p.p_out - p.outages / p.trials) > 1e-9 * p.p_out:
            raise ContractViolation(f"{where} is not outages/trials = {p.outages}/{p.trials}")
        if not p.ci_low <= p.p_out <= p.ci_high:
            raise ContractViolation(f"{where} lies outside [ci_low, ci_high] = [{_fmt(p.ci_low)}, {_fmt(p.ci_high)}]")
    try:
        fit = fit_slope(curve, min_count=args.min_count)
    except FitInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    d_theory = "n/a (no config)" if fit.d_theory is None else str(fit.d_theory)
    print(f"d_hat     = {fit.d_hat:.4f}")
    print(f"window    = {', '.join(_fmt(x) for x in fit.window_snr_db)} dB")
    print(f"residual  = {fit.residual:.3e}")
    print(f"d_theory  = {d_theory}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# design-check
# ---------------------------------------------------------------------------


def _parse_shapes(text: str) -> list[tuple[int, int, int]]:
    shapes = []
    for token in text.split(","):
        parts = token.strip().lower().split("x")
        if len(parts) != 3:
            raise ValueError(f"bad shape {token!r}, expected NSxNRxND")
        shapes.append(tuple(int(p) for p in parts))
        SystemConfig(*shapes[-1])  # rejects non-integer and non-positive counts
    return shapes


def _scalar_oracle_gap() -> float:
    """Hand-computed 1x1x1 pipeline at rho=1, h=g=1, p_r=1."""
    config = SystemConfig(n_s=1, n_r=1, n_d=1, rho=1.0, rate_bpcu=0.0)
    chan = ChannelRealization(h=np.ones((1, 1), dtype=complex), g=np.ones((1, 1), dtype=complex))
    design = build_design(config, chan)
    gaps = [
        abs(design.l[0, 0] - 0.5),
        abs(design.r_y[0, 0] - 0.5),
        abs(design.phi[0] ** 2 - 2.0),
        abs(design.nu - 0.125),
        abs(abs(design.q[0, 0]) - math.sqrt(2) / 2),
        abs(abs(design.w[0, 0]) - math.sqrt(2) / 4),
        abs(error_cov_direct(config, chan, design.q).r_e[0, 0].real - 0.75),
        abs(error_cov_decomposed(config, chan, design).r_e[0, 0].real - 0.75),
    ]
    return float(max(gaps))


# Tolerance of each per-draw check: the worst value over the draws must not exceed it.
_CHECK_TOLERANCES = {
    "decomposition_gap": 1e-9,
    "decomposition_gap_random_b": 1e-9,
    "ry_gap": 1e-9,
    "receiver_gap": 1e-9,
    "power_mismatch": 1e-6,
    "re_bound_excess": 1e-9,
}


@dataclass(frozen=True)
class _ShapeCheck:
    """Battery result for one antenna shape."""

    shape: tuple[int, int, int]
    worst: dict[str, tuple[float, int]]  # check -> (worst value, its draw; -1 when every value is 0)
    breaches: list[str]
    oracle_gap: float | None             # the scalar oracle, for 1x1x1 only
    ok: bool


def run_design_check(
    shapes: list[tuple[int, int, int]],
    draws: int,
    rho: float,
    master_seed: int,
) -> list[_ShapeCheck]:
    """Identity/power battery over seeded draws, one pass per draw.

    Checks, per draw: the two-term error covariance against the direct
    formula (optimal precoder and a random diagonally-loaded one), the
    two forms of R_y, the two forms of the destination receiver, the
    relay power budget, eigenvalue range and zero-mode rules, error
    covariance bounds and, on the first 100 draws, that no feasible
    perturbation of the water-filling lowers the second-hop MSE. The
    random precoder and the perturbations come from a generator keyed by
    ``(master_seed, draw)``, so every figure of a draw depends on the seed
    and the draw alone.
    """
    results = []
    for shape in shapes:
        n_s, n_r, n_d = shape
        m = min(n_s, n_r)
        config = SystemConfig(n_s=n_s, n_r=n_r, n_d=n_d, rho=rho)
        budget = config.p_r
        values = np.zeros((len(_CHECK_TOLERANCES), draws))
        breaches: list[str] = []

        for draw in range(draws):
            rng = np.random.default_rng((master_seed, draw))
            chan = sample_realization(config, SeedSpec(master_seed, draw))
            design = build_design(config, chan)
            decomposed = error_cov_decomposed(config, chan, design)

            b1 = rng.standard_normal((n_r, m)) + 1j * rng.standard_normal((n_r, m))
            b1[:m, :m] += 0.5 * np.eye(m)
            b_random = b1 @ design.u_y_tilde.conj().T
            spent = relay_power(chan.h, design.q, rho)
            eigs = np.linalg.eigvalsh(decomposed.r_e)
            excess = max(float(eigs.max()) / rho - 1.0, 0.0)
            values[:, draw] = (
                _rel_gap(error_cov_direct(config, chan, design.q).r_e, decomposed.r_e),
                _rel_gap(
                    error_cov_direct(config, chan, b_random @ design.l).r_e,
                    error_cov_decomposed(config, chan, design, relay_precoder=b_random).r_e,
                ),
                ry_identity_gap(chan.h, rho),
                _rel_gap(design.w, destination_receiver_second_hop(design.r_y, design.b, chan.g)),
                abs(spent - budget) / budget if np.any(design.phi > 0) else 0.0,
                excess,
            )

            if spent > budget * (1 + 1e-8):
                breaches.append(f"draw {draw}: relay power {spent:.6e} exceeds budget {budget:.6e}")
            if not (np.all(design.lambda_y > 0) and np.all(design.lambda_y < rho)):
                breaches.append(f"draw {draw}: lambda_y outside (0, rho)")
            if min(n_r, n_d) < m and np.any(design.phi[min(n_r, n_d):] != 0.0):
                breaches.append(f"draw {draw}: dead eigenmodes received power")
            unit = design.v_g_tilde @ design.u_y_tilde.conj().T
            feasibility = np.real(np.trace(unit @ design.r_y @ unit.conj().T))
            if not feasibility < rho * m:
                breaches.append(f"draw {draw}: unit-precoder power {feasibility:.6e} not below rho*M")
            if eigs.min() <= 0 or excess > 1e-9 or np.any(decomposed.gamma < -1e-9):
                breaches.append(f"draw {draw}: error covariance out of bounds")

            if draw < 100 and np.any(design.phi > 0):
                base = _second_hop_mse_trace(design.lambda_y, design.lambda_g, design.phi)
                for _ in range(5):
                    perturbed = np.abs(design.phi + 0.1 * rng.standard_normal(m))
                    perturbed[design.lambda_g == 0] = 0.0
                    scale = math.sqrt(config.p_r / max(np.sum(design.lambda_y * perturbed**2), 1e-300))
                    trial = _second_hop_mse_trace(design.lambda_y, design.lambda_g, perturbed * scale)
                    if trial < base * (1 - 1e-7):
                        breaches.append(f"draw {draw}: feasible perturbation beat the water-filling")
                        break

        worst = {}
        for name, row in zip(_CHECK_TOLERANCES, values):
            at = int(row.argmax())
            worst[name] = (float(row[at]), at if row[at] > 0 else -1)
        oracle_gap = _scalar_oracle_gap() if shape == (1, 1, 1) else None
        ok = (not breaches and all(worst[k][0] <= tol for k, tol in _CHECK_TOLERANCES.items())
              and (oracle_gap is None or oracle_gap <= 1e-9))
        results.append(_ShapeCheck(shape=shape, worst=worst, breaches=breaches, oracle_gap=oracle_gap, ok=ok))
    return results


def _second_hop_mse_trace(lambda_y: np.ndarray, lambda_g: np.ndarray, phi: np.ndarray) -> float:
    # Second-hop MSE of the diagonal precoder magnitudes phi: what the water-filling minimises.
    return float(np.sum(1.0 / (phi**2 * lambda_g + 1.0 / lambda_y)))


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    ref = max(float(np.linalg.norm(a)), 1e-30)
    return float(np.linalg.norm(a - b)) / ref


def cmd_design_check(args: argparse.Namespace) -> int:
    shapes = _parsed("--shapes", _parse_shapes, args.shapes)
    _check_scalar("--rho", args.rho, low=0, open_low=True)
    _check_scalar("--seed", args.seed, integer=True, low=0, high=_MAX_U64)
    _check_scalar("--draws", args.draws, integer=True, low=1)
    results = run_design_check(shapes, args.draws, args.rho, args.seed)
    for result in results:
        print(f"shape {'x'.join(map(str, result.shape))}: {'ok' if result.ok else 'FAIL'}")
        for key, (value, draw) in result.worst.items():
            print(f"  max {key:<20s} = {value:.3e} (draw {draw})")
        for msg in result.breaches[:5]:
            print(f"  breach: {msg}")
        if result.oracle_gap is not None:
            print(f"  scalar oracle gap      = {result.oracle_gap:.3e}")
    ok = all(result.ok for result in results)
    print("design-check:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """One ``error:`` line per usage error, exit 2; ``-5,0`` or ``-.5`` is a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        raise SystemExit(_usage_error(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relaylab",
        description="MMSE relay transceiver design, outage simulation, and diversity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="closed-form diversity predictions")
    p_theory.add_argument("--ns", type=int, required=True)
    p_theory.add_argument("--nr", type=int, required=True)
    p_theory.add_argument("--nd", type=int, required=True)
    group = p_theory.add_mutually_exclusive_group(required=True)
    group.add_argument("--rates", help="comma-separated rates in bpcu")
    group.add_argument("--mux", help="comma-separated multiplexing gains")
    p_theory.add_argument("--out", help="optional CSV output path")
    p_theory.set_defaults(func=cmd_theory)

    p_sim = sub.add_parser("simulate", help="Monte Carlo outage sweep")
    p_sim.add_argument("--config", required=True, help="sweep config file")
    p_sim.add_argument("--out-dir", required=True, help="directory for curve.csv and manifest.txt")
    p_sim.add_argument("--mode", choices=OUTAGE_MODES)
    p_sim.add_argument("--trials", type=int, help="override trials per point")
    p_sim.add_argument("--snr-db", help="override SNR grid, comma-separated dB values")
    p_sim.add_argument("--seed", type=int, help="override master seed (beats RELAYLAB_SEED)")
    p_sim.add_argument("--adaptive", action="store_true", help="stop points at target outage count")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_slope = sub.add_parser("slope", help="fit diversity slope of a curve file")
    p_slope.add_argument("--curve", required=True)
    p_slope.add_argument("--min-count", type=int, default=20)
    p_slope.add_argument("--manifest", help="manifest for config (default: sibling manifest.txt)")
    p_slope.add_argument("--ns", type=int)
    p_slope.add_argument("--nr", type=int)
    p_slope.add_argument("--nd", type=int)
    p_slope.add_argument("--rate", type=float)
    p_slope.set_defaults(func=cmd_slope)

    p_check = sub.add_parser("design-check", help="transceiver identity battery")
    p_check.add_argument("--shapes", required=True, help="e.g. 2x2x2,3x2x4,2x2x1")
    p_check.add_argument("--draws", type=int, default=500)
    p_check.add_argument("--rho", type=float, default=10.0)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_design_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:  # the one exit-2 path for usage errors
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
