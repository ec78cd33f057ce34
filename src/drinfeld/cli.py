"""Command-line front end: every report is a single JSON document with the
resolved configuration, the closed-form prediction where one exists, the
computed value, and a pass flag.  All numbers are exact; half-integers print
as strings like "5/2".  Exit codes: 2 for invalid parameters, 3 for a broken
internal invariant.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from fractions import Fraction

import click

from .errors import DrinfeldError, InternalInvariantError, InvalidParameters
from .harmonic import Cochain, delta, harmonic_kernel, res0, res0_integrality
from .lattices import (
    Lattice,
    edge_lattice_profile,
    local_dimension_formulas,
    local_space_report,
    section_lattice_membership,
    vertex_lattice_profile,
)
from .modp import (
    FqRatFunc,
    b_forms_check,
    component_degree,
    gl2_generators,
    global_sections_truncated,
    quotient_rep_and_stable_lines,
    symgeom_equivariance,
    symgeom_injectivity_rank,
    symgeom_iso,
)
from .rational import FactoredRational, automorphic_act, parse_rational
from .sampling import random_group_element, random_rational, random_vertex
from .scalars import Fq, ScalarKHat
from .theta import (
    complement_b_identity,
    kernel_polynomial_dimension,
    theta,
    theta_integrality,
)
from .tree import (
    Edge,
    Vertex,
    act_on_vertex,
    make_vertex,
    neighbors,
    standard_edge,
    truncated_tree,
)

_MAX_RADIUS = 8

_INT_KEYS = ("p", "q", "k", "i", "radius", "seed", "kmax", "mmax", "level")

_DEFAULTS = {
    "p": 2,
    "q": 2,
    "k": 0,
    "i": 0,
    "radius": 1,
    "seed": 0,
    "audit": False,
    "mod_pihat": False,
    "kmax": 6,
    "mmax": 8,
    "a": "0",
    "level": None,
    "offset": "0",
    "f": None,
}


# -- serialization --------------------------------------------------------------------


def _scalar_str(s: ScalarKHat) -> str:
    if s.b == 0:
        return str(s.a)
    pihat = "pihat" if s.b == 1 else f"{s.b}*pihat"
    if s.a == 0:
        return pihat
    return f"{s.a} + {pihat}"


def _rational_str(f: FactoredRational) -> str:
    if f.is_zero():
        return "0"
    parts = []
    one = ScalarKHat.one(f.p)
    if f.lead != one or (not f.factors and len(f.extra) == 1):
        parts.append(_scalar_str(f.lead))
    for root, mult in f.factors:
        base = "z" if root.is_zero() else f"(z - ({_scalar_str(root)}))"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    if len(f.extra) > 1:
        terms = []
        for i, c in enumerate(f.extra):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(_scalar_str(c))
            else:
                zpow = "z" if i == 1 else f"z^{i}"
                terms.append(zpow if c == one else f"({_scalar_str(c)})*{zpow}")
        parts.append("[" + " + ".join(terms) + "]")
    return " * ".join(parts)


def _fq_elem_json(x):
    if len(x.coeffs) <= 1:
        return x.coeffs[0] if x.coeffs else 0
    return list(x.coeffs)


def _fqpoly_str(coeffs) -> str:
    if not coeffs:
        return "0"
    terms = []
    for i, c in enumerate(coeffs):
        cj = _fq_elem_json(c)
        if cj == 0:
            continue
        if i == 0:
            terms.append(str(cj))
        else:
            zpow = "z" if i == 1 else f"z^{i}"
            terms.append(zpow if cj == 1 else f"{cj}*{zpow}")
    return " + ".join(terms)


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return "infinity"
        raise InternalInvariantError("floating point values are not emitted")
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, ScalarKHat):
        return _scalar_str(x)
    if isinstance(x, FactoredRational):
        return _rational_str(x)
    if isinstance(x, FqRatFunc):
        num, den = _fqpoly_str(x.num), _fqpoly_str(x.den)
        return num if den == "1" else f"({num})/({den})"
    if isinstance(x, Vertex):
        return {"level": x.m, "offset": _jsonable(x.b)}
    if isinstance(x, Edge):
        return {"parent": _jsonable(x.u), "child": _jsonable(x.v)}
    if isinstance(x, Lattice):
        return [[_jsonable(c) for c in row] for row in x.matrix]
    if isinstance(x, Cochain):
        items = sorted(x.values.items(), key=lambda kv: (kv[0].u, kv[0].v))
        return [
            {"edge": _jsonable(e), "value": [_jsonable(c) for c in vec]}
            for e, vec in items
        ]
    if hasattr(x, "coeffs") and isinstance(getattr(x, "coeffs"), tuple):
        return _fq_elem_json(x)
    if isinstance(x, dict):
        return {
            (key if isinstance(key, str) else str(_jsonable(key))): _jsonable(val)
            for key, val in x.items()
        }
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise InternalInvariantError(f"cannot serialize {type(x).__name__}")


def _emit(payload: dict) -> None:
    click.echo(json.dumps(_jsonable(payload), sort_keys=True, indent=2))


# -- configuration --------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParameters(f"bad config line: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if value.lower() in ("true", "false"):
                out[key] = value.lower() == "true"
            else:
                try:
                    out[key] = int(value)
                except ValueError:
                    out[key] = value
    return out


def _resolve(ctx: click.Context, **explicit) -> dict:
    merged = dict(_DEFAULTS)
    merged.update(ctx.obj.get("file_config", {}))
    for key, value in explicit.items():
        if value is not None:
            merged[key] = value
    for key in explicit:
        value = merged[key]
        if key in _INT_KEYS and value is not None:
            try:
                int(value)
            except (TypeError, ValueError):
                raise InvalidParameters(f"{key} must be an integer, got {value!r}") from None
    for key in ("k", "kmax", "mmax"):
        if key in explicit and int(merged[key]) < 0:
            raise InvalidParameters(f"{key} must be >= 0, got {merged[key]}")
    if "q" in explicit:
        Fq(int(merged["q"]))  # rejects q that is not a prime power >= 2
    radius = merged.get("radius")
    if radius is not None and not 0 <= int(radius) <= _MAX_RADIUS:
        raise InvalidParameters(f"radius must be in [0, {_MAX_RADIUS}]")
    return merged


def _config_echo(cfg: dict, keys: list) -> dict:
    return {key: cfg[key] for key in keys}


def _fraction(cfg: dict, key: str) -> Fraction:
    try:
        return Fraction(str(cfg[key]))
    except (ValueError, ZeroDivisionError):
        raise InvalidParameters(f"{key} must be a rational number, got {cfg[key]!r}") from None


def _parse_vertex(cfg: dict) -> Vertex:
    level = cfg["level"] if cfg["level"] is not None else 0
    return make_vertex(int(cfg["p"]), int(level), _fraction(cfg, "offset"))


# -- command group --------------------------------------------------------------------


class _Cli(click.Group):
    """The exit-code contract for every entry point, in-process ones included:
    2 for invalid parameters, 3 for a broken internal invariant."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InternalInvariantError as exc:
            click.echo(f"internal invariant violated: {exc}", err=True)
            ctx.exit(3)
        except InvalidParameters as exc:
            click.echo(f"invalid parameters: {exc}", err=True)
            ctx.exit(2)
        except DrinfeldError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Cli)
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="key=value file supplying defaults for any option",
)
@click.pass_context
def cli(ctx: click.Context, config_path: str | None) -> None:
    """Exact computations on the weight-k modules over the (q+1)-regular tree."""
    ctx.obj = {"file_config": _load_config(config_path)}


@cli.command("tree")
@click.option("--p", type=int, default=None)
@click.option("--radius", type=int, default=None)
@click.pass_context
def tree_cmd(ctx: click.Context, p: int | None, radius: int | None) -> None:
    """Ball statistics and regularity check."""
    cfg = _resolve(ctx, p=p, radius=radius)
    p, radius = int(cfg["p"]), int(cfg["radius"])
    ball = truncated_tree(p, radius)
    q = p
    predicted_vertices = 1 + (q + 1) * (q**radius - 1) // (q - 1) if radius else 1
    regular = all(
        len(ball.edges_at(v)) == q + 1 for v in ball.interior_vertices()
    ) and all(len(neighbors(v)) == q + 1 for v in ball.vertices)
    counts = {"vertices": len(ball.vertices), "edges": len(ball.edges)}
    predicted = {
        "vertices": predicted_vertices,
        "edges": predicted_vertices - 1 if radius else 0,
    }
    _emit(
        {
            "command": "tree",
            "config": _config_echo(cfg, ["p", "radius"]),
            "computed": counts,
            "predicted": predicted,
            "regular": regular,
            "pass": counts == predicted and regular,
        }
    )


def _standard_profiles(p: int, k: int) -> tuple[dict, dict]:
    base = make_vertex(p, 0, 0)
    up = make_vertex(p, 1, 0)
    down = make_vertex(p, -1, 0)
    computed = {
        "gamma0": list(vertex_lattice_profile(base, k)),
        "gamma1": list(vertex_lattice_profile(up, k)),
        "gamma-1": list(vertex_lattice_profile(down, k)),
        "standard_edge": list(edge_lattice_profile(standard_edge(p), k)),
    }
    predicted = {
        "gamma0": [Fraction(0)] * (k + 1),
        "gamma1": [Fraction(k - 2 * j, 2) for j in range(k + 1)],
        "gamma-1": [Fraction(2 * j - k, 2) for j in range(k + 1)],
        "standard_edge": sorted(max(Fraction(0), Fraction(2 * j - k, 2)) for j in range(k + 1)),
    }
    return computed, predicted


@cli.command("lattice")
@click.option("--p", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--level", type=int, default=None)
@click.option("--offset", type=str, default=None)
@click.pass_context
def lattice_cmd(ctx, p, k, level, offset) -> None:
    """Diagonal valuation profiles of the vertex and edge lattices."""
    cfg = _resolve(ctx, p=p, k=k, level=level, offset=offset)
    p, k = int(cfg["p"]), int(cfg["k"])
    if cfg["level"] is not None:
        v = _parse_vertex(cfg)
        profile = vertex_lattice_profile(v, k)
        _emit(
            {
                "command": "lattice",
                "config": _config_echo(cfg, ["p", "k", "level", "offset"]),
                "vertex": v,
                "profile": profile,
                "pass": True,
            }
        )
        return
    computed, predicted = _standard_profiles(p, k)
    _emit(
        {
            "command": "lattice",
            "config": _config_echo(cfg, ["p", "k"]),
            "computed": computed,
            "predicted": predicted,
            "pass": computed == predicted,
        }
    )


@cli.command("local-dims")
@click.option("--p", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.pass_context
def local_dims_cmd(ctx, p, k) -> None:
    """Brute-force local space dimensions against the closed forms."""
    cfg = _resolve(ctx, p=p, k=k)
    report = local_space_report(int(cfg["p"]), int(cfg["k"]))
    payload = {
        "command": "local-dims",
        "config": _config_echo(cfg, ["p", "k"]),
        "predicted": report["predicted"],
        "pass": report["pass"],
    }
    payload.update(report["computed"])
    _emit(payload)


@cli.command("harmonic")
@click.option("--p", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--radius", type=int, default=None)
@click.option("--mod-pihat", "mod_pihat", is_flag=True, default=None)
@click.pass_context
def harmonic_cmd(ctx, p, k, radius, mod_pihat) -> None:
    """Kernel of the signed star-sum operator on a truncation."""
    cfg = _resolve(ctx, p=p, k=k, radius=radius, mod_pihat=mod_pihat)
    p, k, radius = int(cfg["p"]), int(cfg["k"]), int(cfg["radius"])
    ball = truncated_tree(p, radius)
    interior = len(ball.interior_vertices())
    free_rank = (k + 1) * (len(ball.edges) - interior)
    if bool(cfg["mod_pihat"]):
        report = harmonic_kernel(ball, k, mod_pihat=True)
        predicted_star = local_dimension_formulas(p, k)["dimZhar"]
        stars = {
            key: val["kernel_dim"] for key, val in report["star_local"].items()
        }
        _emit(
            {
                "command": "harmonic",
                "config": _config_echo(cfg, ["p", "k", "radius", "mod_pihat"]),
                "integral_rank": report["integral_rank"],
                "predicted_integral_rank": free_rank,
                "star_local": stars,
                "predicted_star_local": predicted_star,
                "pass": report["integral_rank"] == free_rank
                and all(v == predicted_star for v in stars.values()),
            }
        )
        return
    report = harmonic_kernel(ball, k, mod_pihat=False)
    _emit(
        {
            "command": "harmonic",
            "config": _config_echo(cfg, ["p", "k", "radius", "mod_pihat"]),
            "dimension": report["dimension"],
            "predicted": free_rank,
            "pass": report["dimension"] == free_rank,
        }
    )


@cli.command("residue")
@click.option("--p", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--radius", type=int, default=None)
@click.option("--f", "f_text", type=str, default=None, help="rational section, e.g. '1/z'")
@click.option("--audit", is_flag=True, default=None)
@click.option("--seed", type=int, default=None)
@click.pass_context
def residue_cmd(ctx, p, k, radius, f_text, audit, seed) -> None:
    """Residue cochain of a weight-(k+2) section, with harmonicity and
    integrality reports."""
    cfg = _resolve(ctx, p=p, k=k, radius=radius, f=f_text, audit=audit, seed=seed)
    if cfg["f"] is None:
        raise InvalidParameters("residue requires --f")
    p, k, radius = int(cfg["p"]), int(cfg["k"]), int(cfg["radius"])
    g = parse_rational(str(cfg["f"]), p)
    ball = truncated_tree(p, radius)
    rng = random.Random(int(cfg["seed"])) if bool(cfg["audit"]) else None
    cochain = res0(g, k, ball, audit=bool(cfg["audit"]), rng=rng)
    star_sums = delta(cochain, ball)
    delta_zero = all(all(x.is_zero() for x in vec) for vec in star_sums.values())
    integrality = res0_integrality(g, k, ball, cochain=cochain)
    consistent = integrality["in_all_edge_lattices"] or not integrality["vertex_membership"]
    _emit(
        {
            "command": "residue",
            "config": _config_echo(cfg, ["p", "k", "radius", "f", "audit", "seed"]),
            "support_size": len(cochain.support()),
            "cochain": cochain,
            "delta_zero": delta_zero,
            "in_all_edge_lattices": integrality["in_all_edge_lattices"],
            "vertex_membership": integrality["vertex_membership"],
            "pass": delta_zero and consistent,
        }
    )


@cli.command("theta")
@click.option("--p", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--f", "f_text", type=str, default=None)
@click.option("--level", type=int, default=None)
@click.option("--offset", type=str, default=None)
@click.pass_context
def theta_cmd(ctx, p, k, f_text, level, offset) -> None:
    """(k+1)-fold derivative with an integrality certificate at a vertex."""
    cfg = _resolve(ctx, p=p, k=k, f=f_text, level=level, offset=offset)
    if cfg["f"] is None:
        raise InvalidParameters("theta requires --f")
    p, k = int(cfg["p"]), int(cfg["k"])
    f = parse_rational(str(cfg["f"]), p)
    v = _parse_vertex(cfg)
    image = theta(f, k)
    cert = theta_integrality(f, k, v)
    kernel_dim = kernel_polynomial_dimension(k, p=p)
    _emit(
        {
            "command": "theta",
            "config": _config_echo(cfg, ["p", "k", "f", "level", "offset"]),
            "image": image,
            "certificate": asdict(cert),
            "kernel_polynomial_dimension": kernel_dim,
            "predicted_kernel_dimension": k + 1,
            "pass": cert.passes and kernel_dim == k + 1,
        }
    )


@cli.command("identity-b")
@click.option("--p", type=int, default=None)
@click.option("--kmax", type=int, default=None)
@click.option("--mmax", type=int, default=None)
@click.option("--a", type=str, default=None)
@click.pass_context
def identity_b_cmd(ctx, p, kmax, mmax, a) -> None:
    """Euler-operator factorization sweep over even k."""
    cfg = _resolve(ctx, p=p, kmax=kmax, mmax=mmax, a=a)
    p, kmax, mmax = int(cfg["p"]), int(cfg["kmax"]), int(cfg["mmax"])
    shift = ScalarKHat.from_rational(_fraction(cfg, "a"), p)
    rows = []
    for k in range(2, kmax + 1, 2):
        ok = complement_b_identity(k, shift, range(-mmax, mmax + 1), p)
        rows.append({"k": k, "pass": ok})
    _emit(
        {
            "command": "identity-b",
            "config": _config_echo(cfg, ["p", "kmax", "mmax", "a"]),
            "rows": rows,
            "pass": all(r["pass"] for r in rows),
        }
    )


@cli.group("modp")
def modp_group() -> None:
    """Residue-field geometry commands."""


@modp_group.command("degrees")
@click.option("--q", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.pass_context
def modp_degrees_cmd(ctx, q, k) -> None:
    """Component degree of the reduced weight-k bundle."""
    cfg = _resolve(ctx, q=q, k=k)
    q, k = int(cfg["q"]), int(cfg["k"])
    _emit(
        {
            "command": "modp degrees",
            "config": _config_echo(cfg, ["q", "k"]),
            "degree": component_degree(q, k),
            "parity": "even" if k % 2 == 0 else "odd",
            "pass": True,
        }
    )


@modp_group.command("sections")
@click.option("--q", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--radius", type=int, default=None)
@click.pass_context
def modp_sections_cmd(ctx, q, k, radius) -> None:
    """Global sections over a truncation: formula vs direct assembly."""
    cfg = _resolve(ctx, q=q, k=k, radius=radius)
    report = global_sections_truncated(int(cfg["q"]), int(cfg["k"]), int(cfg["radius"]))
    payload = {
        "command": "modp sections",
        "config": _config_echo(cfg, ["q", "k", "radius"]),
    }
    payload.update(report)
    _emit(payload)


@modp_group.command("stable-lines")
@click.option("--q", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--i", "i_param", type=int, default=None)
@click.pass_context
def modp_stable_lines_cmd(ctx, q, k, i_param) -> None:
    """Quotient representation and its stable lines."""
    cfg = _resolve(ctx, q=q, k=k, i=i_param)
    q, k, i = int(cfg["q"]), int(cfg["k"]), int(cfg["i"])
    report = quotient_rep_and_stable_lines(q, k, i)
    _emit(
        {
            "command": "modp stable-lines",
            "config": _config_echo(cfg, ["q", "k", "i"]),
            "dimension": report["dimension"],
            "predicted_dimension": q + 1,
            "free_monomials": report["free_monomials"],
            "stable_lines": [list(line) for line in report["stable_lines"]],
            "group_order": report["group_order"],
            "pass": report["dimension"] == q + 1,
        }
    )


@modp_group.command("symgeom-check")
@click.option("--q", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--i", "i_param", type=int, default=None)
@click.pass_context
def modp_symgeom_cmd(ctx, q, k, i_param) -> None:
    """Equivariance and injectivity of the symmetric-power comparison map."""
    cfg = _resolve(ctx, q=q, k=k, i=i_param)
    q, k, i = int(cfg["q"]), int(cfg["k"]), int(cfg["i"])
    iso = symgeom_iso(q, k, i)
    equivariant = all(
        symgeom_equivariance(q, k, i, g) for g in gl2_generators(iso["field"])
    )
    rank_value = symgeom_injectivity_rank(q, k, i)
    _emit(
        {
            "command": "modp symgeom-check",
            "config": _config_echo(cfg, ["q", "k", "i"]),
            "t": iso["t"],
            "shift": iso["shift"],
            "images": iso["images"],
            "equivariant": equivariant,
            "injectivity_rank": rank_value,
            "predicted_rank": iso["t"] + 1,
            "pass": equivariant and rank_value == iso["t"] + 1,
        }
    )


@modp_group.command("b-forms")
@click.option("--q", type=int, default=None)
@click.pass_context
def modp_b_forms_cmd(ctx, q) -> None:
    """Invariance of the window form and the parity-swapping involution."""
    cfg = _resolve(ctx, q=q)
    q = int(cfg["q"])
    _emit(
        {
            "command": "modp b-forms",
            "config": _config_echo(cfg, ["q"]),
            "pass": b_forms_check(q),
        }
    )


def _sweep_item(args: tuple) -> dict:
    p, k, seed = args
    rng = random.Random((seed << 16) ^ k)
    local = local_space_report(p, k)
    kernel_ok = kernel_polynomial_dimension(k, p=p) == k + 1
    transport_ok = True
    for _ in range(3):
        g = random_group_element(rng, p)
        f = random_rational(rng, p)
        v = random_vertex(rng, p)
        before = section_lattice_membership(f, k, v)[0]
        after = section_lattice_membership(
            automorphic_act(g, f, k), k, act_on_vertex(g, v)
        )[0]
        if before != after:
            transport_ok = False
    return {
        "k": k,
        "local_dims_pass": local["pass"],
        "theta_kernel_pass": kernel_ok,
        "membership_transport_pass": transport_ok,
        "degree": component_degree(p, k),
        "pass": local["pass"] and kernel_ok and transport_ok,
    }


@cli.command("sweep")
@click.option("--p", type=int, default=None)
@click.option("--kmax", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.pass_context
def sweep_cmd(ctx, p, kmax, seed) -> None:
    """Batch of pure per-k checks; fans out when DRINFELD_THREADS > 1."""
    cfg = _resolve(ctx, p=p, kmax=kmax, seed=seed)
    p, kmax, seed = int(cfg["p"]), int(cfg["kmax"]), int(cfg["seed"])
    items = [(p, k, seed) for k in range(kmax + 1)]
    threads = int(os.environ.get("DRINFELD_THREADS", "1") or "1")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_item, items))
    else:
        rows = [_sweep_item(item) for item in items]
    _emit(
        {
            "command": "sweep",
            "config": _config_echo(cfg, ["p", "kmax", "seed"]),
            "rows": rows,
            "pass": all(r["pass"] for r in rows),
        }
    )


def main() -> None:
    try:
        # without standalone mode an exit (--help, or a code set by _Cli) is returned
        code = cli(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
