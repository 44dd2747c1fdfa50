"""Command-line front end: file loading, verification suites, JSON/CSV reports.

File formats
    matrix  JSON array of rows, each entry a [re, im] pair of JSON numbers
    vector  JSON array of [re, im] pairs of JSON numbers
    report  JSON object with lexicographically sorted keys
    samples CSV `component_index,u,value`, 17 significant digits

Input files are UTF-8 JSON.  NaN, Infinity and numbers beyond the
double range (`1e400`, a 400-digit integer) are not JSON numbers: such
a file is an input error, exit 2.

Exit codes: 0 pass, 1 verification fail, 2 input error, 3 internal
numeric failure.  Reports contain no timestamps; identical inputs and
seed produce byte-identical output for any worker count.

A report's `inputs_digest` is the SHA-256 of, for each input file in
argument order, its numbers parsed into a float64 array of shape
(d, d, 2) for a matrix or (d, 2) for a vector: the number of axes and
then each axis length as 8-byte big-endian integers, followed by the
array's little-endian C-order bytes; and last the 8-byte big-endian
length of the command's config (its name and each option that can
change its output), then the config as compact JSON with sorted keys.
Two files whose numbers parse to the same doubles share a digest
however the numbers are spelled (`1` or `1.0`, exponents, whitespace).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np
import orjson

from . import expr, spectral
from .contexts import SHARED_U_CAVEAT, Context, homomorphism_check, joint_diagonalize, nogo_witness
from .errors import EvaluationError, HobsError, NonFiniteInput, NotCommuting
from .kernel import build_hidden_observable, spectral_support_check
from .mixed import (
    Ensemble,
    HiddenMixedState,
    SampleStream,
    dump_samples_csv,
    ensemble_from_density,
    exact_classical_mean,
    mc_estimate,
)
from .spectral import DensityMatrix, HermitianOperator, function_values, trace_expectation, validate_hermitian

FINITE_DIM_CAVEAT = (
    "verification runs at a fixed finite matrix dimension; the identities "
    "checked are dimension-agnostic but only desk-scale instances are exercised"
)
EIGEN_ENSEMBLE_CAVEAT = (
    "the hidden mixed state uses the eigen-ensemble of the density matrix; "
    "the correspondence from mixtures to matrices is many-to-one"
)


class _InputError(click.ClickException):
    exit_code = 2


def _parse_pairs(path: str, text: bytes) -> np.ndarray:
    try:
        data = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    # in text that parsed, a quote starts a string and "u" or "l" occur only in true, false
    # and null: no number contains them
    if b'"' in text or b"u" in text or b"l" in text:
        raise _InputError(f"{path}: entries must be JSON numbers, found a string, true, false or null")
    try:
        return np.asarray(data, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise _InputError(f"{path}: malformed numeric data: {exc}") from exc


def _load_complex(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The file's [re, im] pairs as a float64 array, which the input digest hashes, and its complex entries."""
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    # a d x d matrix parses into d*d + d lists, none in a cycle: with the cyclic collector paused they
    # trigger no collection, so no call walks them or the whole heap while another call does not
    collecting = gc.isenabled()
    gc.disable()
    try:
        pairs = _parse_pairs(path, text)
    finally:
        if collecting:
            gc.enable()
    if not np.all(np.isfinite(pairs)):
        raise _InputError(f"{path}: entries must be finite, found NaN or infinity")
    if not (pairs.ndim == 3 and pairs.shape[2] == 2 or pairs.ndim == 2 and pairs.shape[1] == 2):
        raise _InputError(f"{path}: expected [re, im] pairs (vector) or rows of pairs (matrix)")
    return pairs, pairs[..., 0] + 1.0j * pairs[..., 1]


def _as_matrix(entries: np.ndarray, path: str, density: bool = False) -> HermitianOperator | DensityMatrix:
    """A Hermitian operator, or with density=True a density matrix; a bad matrix is an input error."""
    if entries.ndim != 2:
        raise _InputError(f"{path}: expected a matrix, got a vector")
    try:
        return DensityMatrix(entries=entries) if density else validate_hermitian(entries)
    except (HobsError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_matrix(path: str, density: bool = False) -> tuple[np.ndarray, HermitianOperator | DensityMatrix]:
    """The file's [re, im] pairs, as from _load_complex, and the matrix they hold, as for _as_matrix."""
    pairs, entries = _load_complex(path)
    return pairs, _as_matrix(entries, path, density)


def _same_dimension(paths, operators) -> None:
    """The matrices of one command's input files must share a dimension; a mismatch is an input error."""
    first = operators[0].dim
    for path, operator in zip(paths[1:], operators[1:]):
        if operator.dim != first:
            raise _InputError(f"dimension mismatch: {paths[0]} is {first}x{first}, {path} is {operator.dim}x{operator.dim}")


def _parse_expression(text: str) -> expr.BorelExpr:
    try:
        return expr.parse(text)
    except HobsError as exc:
        raise _InputError(f"bad expression: {exc}") from exc


def _digest(inputs: list[np.ndarray], extra: dict) -> str:
    """SHA-256 over each input's [re, im] pair array, then the governing config (see the module docstring)."""
    h = hashlib.sha256()
    for pairs in inputs:
        h.update(pairs.ndim.to_bytes(8, "big"))
        for n in pairs.shape:
            h.update(n.to_bytes(8, "big"))
        h.update(np.ascontiguousarray(pairs, dtype="<f8").tobytes())
    config = json.dumps(extra, sort_keys=True, separators=(",", ":")).encode()
    h.update(len(config).to_bytes(8, "big"))
    h.update(config)
    return h.hexdigest()


def _jsonable(value, nulled: list[str], key: str):
    """Plain JSON data; a non-finite float becomes None and its key is added to nulled."""
    if isinstance(value, np.ndarray):
        value = [[z.real, z.imag] for z in value] if np.iscomplexobj(value) else list(value)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        nulled.append(key)
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v, nulled, f"{key}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, nulled, key) for v in value]
    return value


def _write_output(path: str | None, write) -> None:
    """Call write(stream) on the file at path, or on stdout without one; output that cannot be written is an input error."""
    try:
        if path:
            with open(path, "w") as stream:
                write(stream)
        else:
            write(sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not path:  # else the flush at interpreter exit fails on the same stdout and exits 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _InputError(f"cannot write {path or 'standard output'}: {exc}") from exc


def _emit_report(command: str, digest: str, results: dict, passed: bool, caveats: list[str], out: str | None) -> None:
    nulled: list[str] = []
    results = _jsonable(results, nulled, "results")
    if nulled:
        caveats = list(caveats) + [f"non-finite values reported as null: {', '.join(sorted(set(nulled)))}"]
    report = {
        "command": command,
        "inputs_digest": digest,
        "results": results,
        "pass": passed,
        "caveats": list(caveats),
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_output(out, lambda stream: stream.write(text))
    if not passed:
        sys.exit(1)


def _numeric_guard(fn):
    try:
        return fn()
    except EvaluationError as exc:
        raise _InputError(f"bad expression: {exc}") from exc
    except NonFiniteInput as exc:
        raise _InputError(str(exc)) from exc
    except (HobsError, np.linalg.LinAlgError, MemoryError) as exc:  # any other failure once the inputs were accepted
        click.echo(f"internal numeric failure: {exc}", err=True)
        sys.exit(3)


def _report(command: str, inputs: list, config: dict, run, caveats: list[str], out) -> None:
    """Digest the inputs and the command's config, run the check under the numeric guard, and emit its report.

    `run()` returns (results, passed); `config` holds exactly the
    options that can change the results.
    """
    digest = _digest(inputs, {**config, "command": command})
    results, passed = _numeric_guard(run)
    _emit_report(command, digest, results, passed, caveats, out)


def _finite_positive(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise click.BadParameter(f"{value} is not finite and positive")
    return value


_seed_option = click.option(
    "--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True, help="64-bit RNG seed."
)
_tol_option = click.option(
    "--tol",
    "tolerance",
    type=float,
    callback=_finite_positive,
    default=1e-8,
    show_default=True,
    help="Pass/fail tolerance, finite and positive.",
)
_out_option = click.option("--out", "output_path", type=click.Path(), default=None, help="Write output here instead of stdout.")


@click.group()
def cli():
    """Workbench for observable functions with orthodox mean values.

    Verifies, exactly and by seeded Monte Carlo, that operator traces
    against density matrices equal classical means of quantile-built
    observable functions against ray mixtures, and probes the
    commutative-context dichotomy.
    """


@cli.command("verify-trace")
@click.argument("t_file", type=click.Path(exists=True))
@click.argument("d_file", type=click.Path(exists=True))
@click.argument("b_expr")
@click.option("--samples", type=click.IntRange(min=2), default=100000, show_default=True, help="Monte Carlo sample count.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Worker threads for sampling.")
@_seed_option
@_tol_option
@_out_option
def cmd_verify_trace(t_file, d_file, b_expr, samples, workers, seed, tolerance, output_path):
    """Check Trace[b(T) D] against the classical mean, exactly and by sampling."""
    t_pairs, T = _load_matrix(t_file)
    d_pairs, D = _load_matrix(d_file, density=True)
    _same_dimension([t_file, d_file], [T, D])
    b = _parse_expression(b_expr)

    def run():
        f = build_hidden_observable(T)
        mu = HiddenMixedState(ensemble=ensemble_from_density(D))
        trace_value = trace_expectation(spectral.apply_borel(f.decomposition, b), D)
        exact = exact_classical_mean(f, b, mu)
        estimate = mc_estimate(f, b, mu, SampleStream(seed=seed), samples, workers=workers)
        exact_gap = abs(trace_value - exact)
        mc_gap = abs(estimate.mean - trace_value)
        if not (math.isfinite(estimate.mean) and math.isfinite(estimate.std_error)):
            z = math.nan  # a non-finite statistic gives no verdict, so it fails
        elif estimate.std_error > 0.0:
            z = mc_gap / estimate.std_error
        else:
            z = 0.0 if mc_gap <= tolerance else math.inf
        # exact_gap is held to tol * max(1, max_i |b(lambda_i)|), the scale of the compared sums
        exact_ok = exact_gap <= tolerance * spectral._floor(float(np.max(np.abs(function_values(b, f.values)))))
        passed = exact_ok and z <= 4.0
        results = {
            "dimension": T.dim,
            "exact_classical_mean": exact,
            "exact_gap": exact_gap,
            "expression": b_expr,
            "mc_mean": estimate.mean,
            "mc_std_error": estimate.std_error,
            "mc_z_score": z,
            "samples": samples,
            "tolerance": tolerance,
            "trace": trace_value,
        }
        return results, passed

    config = {"b": b_expr, "samples": samples, "seed": seed, "tol": tolerance}
    _report("verify-trace", [t_pairs, d_pairs], config, run, [FINITE_DIM_CAVEAT, EIGEN_ENSEMBLE_CAVEAT], output_path)


@cli.command("support")
@click.argument("t_file", type=click.Path(exists=True))
@click.option("--samples", type=click.IntRange(min=1), default=100000, show_default=True, help="Sampled evaluations; each ray takes max(1, samples // rays), so the report's n_evaluations can exceed this.")
@click.option("--rays", type=click.IntRange(min=1), default=100, show_default=True, help="Random rays to spread samples over.")
@_out_option
def cmd_support(t_file, samples, rays, output_path):
    """Check sampled values of the observable function land in the spectrum."""
    t_pairs, T = _load_matrix(t_file)

    def run():
        f = build_hidden_observable(T)
        per_ray = max(1, samples // rays)
        report = spectral_support_check(f, n_rays=rays, samples_per_ray=per_ray, rng=np.random.default_rng(0))
        results = {
            "eigenvalues": list(f.decomposition.eigenvalues),
            "n_evaluations": report.n_evaluations,
            "n_outside_spectrum": report.n_outside,
            "rays": rays,
            "samples_per_ray": per_ray,
        }
        return results, report.passed

    _report("support", [t_pairs], {"rays": rays, "samples": samples}, run, [FINITE_DIM_CAVEAT], output_path)


def _transfer_tables(ctx: Context) -> dict:
    """Each member's value on joint eigenspace j, keyed by the label j = 1..m."""
    return {f"member_{i}": {j + 1: float(v) for j, v in enumerate(m.values)} for i, m in enumerate(ctx.members)}


@cli.command("context")
@click.argument("family_files", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--trials", type=click.IntRange(min=1), default=16, show_default=True, help="Random closure trials.")
@_seed_option
@_tol_option
@_out_option
def cmd_context(family_files, trials, seed, tolerance, output_path):
    """Joint-diagonalize a commuting family and verify algebra closure."""
    loaded = [_load_matrix(path) for path in family_files]
    family = [operator for _, operator in loaded]
    _same_dimension(family_files, family)

    def run():
        try:
            ctx = joint_diagonalize(family)
        except NotCommuting as exc:
            return {"branch": "not-commuting", "detail": str(exc)}, False
        report = homomorphism_check(ctx, trials=trials, rng=np.random.default_rng(seed), operator_tol=tolerance)
        results = {
            "branch": "context",
            "max_operator_error": report.max_operator_error,
            "max_pointwise_additive_deviation": report.max_additive_deviation,
            "max_pointwise_multiplicative_deviation": report.max_multiplicative_deviation,
            "n_labels": ctx.n_labels,
            "transfer_tables": _transfer_tables(ctx),
            "trials": trials,
        }
        return results, report.passed

    config = {"seed": seed, "tol": tolerance, "trials": trials}
    _report("context", [pairs for pairs, _ in loaded], config, run, [FINITE_DIM_CAVEAT], output_path)


@cli.command("nogo")
@click.argument("a_file", type=click.Path(exists=True))
@click.argument("b_file", type=click.Path(exists=True))
@click.option("--search", type=click.IntRange(min=1), default=4096, show_default=True, help="Random witness rays to try.")
@_seed_option
@_tol_option
@_out_option
def cmd_nogo(a_file, b_file, search, seed, tolerance, output_path):
    """Resolve the dichotomy for a pair: context, or a second-moment witness."""
    a_pairs, A = _load_matrix(a_file)
    b_pairs, B = _load_matrix(b_file)
    _same_dimension([a_file, b_file], [A, B])

    def run():
        report = nogo_witness(A, B, search=search, rng=np.random.default_rng(seed), tolerance=tolerance)
        results = {
            "branch": report.branch,
            "gap": report.gap,
            "gap_threshold": report.gap_threshold,
            "reconstruction_error": report.reconstruction_error,
        }
        if report.witness_ray is not None:
            results["witness_ray"] = report.witness_ray
        if report.context is not None:
            results["n_labels"] = report.context.n_labels
            results["transfer_tables"] = _transfer_tables(report.context)
        passed = report.branch in ("commuting", "witness")
        return results, passed

    config = {"search": search, "seed": seed, "tol": tolerance}
    _report("nogo", [a_pairs, b_pairs], config, run, [FINITE_DIM_CAVEAT, SHARED_U_CAVEAT], output_path)


def _sample_inputs(path: str, observable_path: str | None):
    """Interpret the sample input: a state vector, a density, or an operator.

    A vector gives the pure mixture on its ray; a density matrix gives
    its eigen-ensemble; a Hermitian non-density matrix is taken as the
    observable over the maximally mixed state.  --observable overrides
    the observable in all cases (default: the input read as an operator).
    """
    _, entries = _load_complex(path)
    if entries.ndim == 1:
        if not np.any(entries):
            raise _InputError(f"{path}: the state vector must be nonzero")
        v = spectral._binary_scale(entries) * entries  # so that no norm overflows; a power of two keeps the bits
        ensemble = Ensemble(weights=np.array([1.0]), rays=v[None, :] / np.linalg.norm(v))
        default_op = validate_hermitian(np.outer(v, v.conj()) / np.vdot(v, v).real)
    else:
        operator = _as_matrix(entries, path)
        try:
            density = DensityMatrix(entries=operator.entries)
            ensemble = ensemble_from_density(density)
        except (HobsError, ValueError):
            dim = operator.dim
            density = DensityMatrix(entries=np.eye(dim, dtype=complex) / dim)
            ensemble = ensemble_from_density(density)
        default_op = operator
    observable = _load_matrix(observable_path)[1] if observable_path else default_op
    if observable.dim != ensemble.dim:
        raise _InputError(f"observable dimension {observable.dim} != state dimension {ensemble.dim}")
    return ensemble, observable


@cli.command("sample")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--observable", "observable_path", type=click.Path(exists=True), default=None, help="Operator whose observable function fills the value column.")
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True, help="Rows to draw.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Worker threads.")
@_seed_option
@_out_option
def cmd_sample(input_file, observable_path, samples, workers, seed, output_path):
    """Dump hidden samples as CSV: component_index,u,value."""
    ensemble, observable = _sample_inputs(input_file, observable_path)

    # every check that can fail runs before the output is opened, so a failed run writes no file
    f = _numeric_guard(lambda: build_hidden_observable(observable))
    mu = HiddenMixedState(ensemble=ensemble)
    _write_output(output_path, lambda out: dump_samples_csv(f, mu, SampleStream(seed=seed), samples, out, workers=workers))


def main():
    cli()


if __name__ == "__main__":
    main()
