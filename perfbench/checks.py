"""Output checks computed apart from the program.

Every expected value here comes from a closed form in the paper's setting
(ball sizes of the (q+1)-regular tree, local dimension formulas, diagonal
lattice profiles, component degrees) or from a direct recomputation on the
emitted data (star sums of a residue cochain).  A ``pass`` field in the
program's output is never consulted.  Each check returns a list of problems;
an empty list means the output is correct.

Dimensions are checked through the dimension fields; a basis is checked only
when the output contains one.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import comparison_degree

INF = float("inf")


def parse_args(job: list[str]) -> tuple[str, dict]:
    """Command name and {option: value} of a job; flags map to True."""
    command, rest = job[0], job[1:]
    if command == "modp":
        command, rest = f"modp {job[1]}", job[2:]
    opts: dict = {}
    n = 0
    while n < len(rest):
        key = rest[n][2:]
        if n + 1 < len(rest) and not rest[n + 1].startswith("--"):
            opts[key] = rest[n + 1]
            n += 2
        else:
            opts[key] = True
            n += 1
    return command, opts


def _num(text) -> Fraction | float:
    """A JSON number or an exact fraction string such as "-3/2"."""
    if text == "infinity":
        return INF
    return Fraction(str(text))


# -- closed forms ---------------------------------------------------------------------


def ball_vertices(q: int, r: int) -> int:
    """Vertices within distance r of a vertex of the (q+1)-regular tree."""
    if r < 0:
        return 0
    return 1 + (q + 1) * (q**r - 1) // (q - 1)


def component_degree(q: int, k: int) -> int:
    """Degree of the reduced weight-k bundle on one component of the special
    fibre: (q-1)k/2 for even k, (q-1)(k-1)/2 - 1 for odd k."""
    if k % 2 == 0:
        return (q - 1) * k // 2
    return (q - 1) * (k - 1) // 2 - 1


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# -- one check per command ------------------------------------------------------------


def check_local_dims(o: dict, out: dict) -> list:
    q, k = int(o["p"]), int(o["k"])
    problems: list = []
    if k % 2 == 0:
        want = {"dimD": (k + 2) // 2, "dimE": 1, "dimZhar": (q - 1) * (k + 2) // 2 + 1}
    else:
        want = {"dimD": (k + 1) // 2, "dimE": 0, "dimZhar": (q - 1) * (k + 1) // 2}
    for key, value in want.items():
        _expect(problems, key, out.get(key), value)
    return problems


def check_lattice(o: dict, out: dict) -> list:
    k = int(o["k"])
    problems: list = []
    if "level" in o:
        n = int(o["level"])
        want = [Fraction(n * (k - 2 * j), 2) for j in range(k + 1)]
        _expect(problems, "profile", [_num(x) for x in out.get("profile", [])], want)
        return problems
    want = {
        "gamma0": [Fraction(0)] * (k + 1),
        "gamma1": [Fraction(k - 2 * j, 2) for j in range(k + 1)],
        "gamma-1": [Fraction(2 * j - k, 2) for j in range(k + 1)],
        "standard_edge": sorted(max(Fraction(0), Fraction(2 * j - k, 2)) for j in range(k + 1)),
    }
    computed = out.get("computed", {})
    for key, value in want.items():
        _expect(problems, key, [_num(x) for x in computed.get(key, [])], value)
    return problems


def check_theta(o: dict, out: dict) -> list:
    k, n = int(o["k"]), int(o["level"])
    problems: list = []
    _expect(problems, "kernel_polynomial_dimension", out.get("kernel_polynomial_dimension"), k + 1)
    cert = out.get("certificate", {})
    # On the diagonal axis the tube scale is the vertex level.
    _expect(problems, "certificate level", cert.get("level"), n)
    in_bound, out_bound = _num(cert.get("input_bound")), _num(cert.get("output_bound"))
    _expect(problems, "input_bound", in_bound, Fraction(-k * n, 2))
    _expect(problems, "output_bound", out_bound, Fraction((k + 2) * n, 2))
    if _num(cert.get("input_valuation")) >= in_bound and _num(cert.get("output_valuation")) < out_bound:
        problems.append("output valuation below its bound although the input meets its bound")
    return problems


def check_tree(o: dict, out: dict) -> list:
    q, r = int(o["p"]), int(o["radius"])
    v = ball_vertices(q, r)
    problems: list = []
    _expect(problems, "computed", out.get("computed"), {"vertices": v, "edges": v - 1})
    return problems


def check_harmonic(o: dict, out: dict) -> list:
    q, k, r = int(o["p"]), int(o["k"]), int(o["radius"])
    edges = ball_vertices(q, r) - 1
    interior = ball_vertices(q, r - 1)
    problems: list = []
    _expect(problems, "dimension", out.get("dimension"), (k + 1) * (edges - interior))
    return problems


def parse_scalar(text: str) -> tuple[Fraction, Fraction]:
    """The pair (a, b) of an emitted value a + b*pihat, written "a",
    "b*pihat", "pihat" or "a + b*pihat"."""
    if not text.endswith("pihat"):
        return Fraction(text), Fraction(0)
    a, _, b = text[: -len("pihat")].rpartition(" + ")
    if b and not b.endswith("*"):
        raise ValueError(f"cannot parse scalar {text!r}")
    return Fraction(a or 0), Fraction(b[:-1] if b else 1)


def vertex_distance(p: int, level: int, offset: Fraction) -> int:
    """Distance from the base vertex to the class of the lattice spanned by
    (p^level, 0) and (offset, 1): the gap between the elementary divisors of
    that basis matrix, v(det) - 2 * (least valuation of an entry)."""
    least = min(level, 0)
    if offset != 0:
        num, den, v_b = offset.numerator, offset.denominator, 0
        while num % p == 0:
            num //= p
            v_b += 1
        while den % p == 0:
            den //= p
            v_b -= 1
        least = min(least, v_b)
    return level - 2 * least


def check_residue(o: dict, out: dict) -> list:
    p, k, r = int(o["p"]), int(o["k"]), int(o["radius"])
    problems: list = []
    sums: dict = {}
    support = []
    for item in out.get("cochain", []):
        ends = []
        for side in ("parent", "child"):
            v = item["edge"][side]
            key = (int(v["level"]), Fraction(str(v["offset"])))
            ends.append(key)
        dist = [vertex_distance(p, *key) for key in ends]
        if abs(dist[0] - dist[1]) != 1 or max(dist) > r:
            problems.append(f"edge {ends} is not an edge of the radius-{r} ball")
            continue
        value = [parse_scalar(x) for x in item["value"]]
        if len(value) != k + 1:
            problems.append(f"value on {ends} has {len(value)} coordinates, expected {k + 1}")
            continue
        if any(a or b for a, b in value):
            support.append(ends)
        for key, d in zip(ends, dist):
            if d < r:
                acc = sums.setdefault(key, [(Fraction(0), Fraction(0))] * (k + 1))
                sums[key] = [(x + a, y + b) for (x, y), (a, b) in zip(acc, value)]
    for key, total in sums.items():
        if any(a or b for a, b in total):
            problems.append(f"star sum at V{key} is not zero")
    _expect(problems, "support_size", out.get("support_size"), len(support))
    if str(o["f"]).replace(" ", "") == "1/z":
        axis = sorted(
            [(n, Fraction(0)), (n + 1, Fraction(0))] for n in range(-r, r)
        )
        _expect(problems, "support of 1/z", sorted(sorted(e) for e in support), axis)
    return problems


def check_modp_degrees(o: dict, out: dict) -> list:
    q, k = int(o["q"]), int(o["k"])
    problems: list = []
    _expect(problems, "degree", out.get("degree"), component_degree(q, k))
    _expect(problems, "parity", out.get("parity"), "even" if k % 2 == 0 else "odd")
    return problems


def check_modp_sections(o: dict, out: dict) -> list:
    q, k, r = int(o["q"]), int(o["k"]), int(o["radius"])
    v = ball_vertices(q, r)
    per_component = max(0, component_degree(q, k) + 1)
    want = v * per_component - (v - 1 if k % 2 == 0 else 0)
    problems: list = []
    _expect(problems, "vertex_count", out.get("vertex_count"), v)
    _expect(problems, "edge_count", out.get("edge_count"), v - 1)
    _expect(problems, "dimension", out.get("dimension"), want)
    _expect(problems, "direct_dimension", out.get("direct_dimension"), want)
    if "basis" in out:
        basis = out["basis"]
        _expect(problems, "basis size", len(basis), want)
        width = v * per_component
        if any(len(vec) != width or any(not 0 <= x < q for x in vec) for vec in basis):
            problems.append(f"basis vectors are not in F_{q}^{width}")
    return problems


def check_modp_stable_lines(o: dict, out: dict) -> list:
    q = int(o["q"])
    problems: list = []
    _expect(problems, "dimension", out.get("dimension"), q + 1)
    _expect(problems, "group_order", out.get("group_order"), (q * q - 1) * (q * q - q))
    if "stable_lines" in out:
        if any(len(line) != q + 1 for line in out["stable_lines"]):
            problems.append("a stable line does not have q+1 coordinates")
    return problems


def check_modp_symgeom(o: dict, out: dict) -> list:
    q, k, i = int(o["q"]), int(o["k"]), int(o["i"])
    t = comparison_degree(q, k, i)
    problems: list = []
    _expect(problems, "t", out.get("t"), t)
    _expect(problems, "injectivity_rank", out.get("injectivity_rank"), t + 1)
    if "images" in out:
        _expect(problems, "number of images", len(out["images"]), t + 1)
    return problems


def check_modp_b_forms(o: dict, out: dict) -> list:
    # The report carries only its verdict; the statement (SL_2-invariance of
    # the window form, parity swap by the uniformizer involution) holds for
    # every q, so the correct verdict is true.
    problems: list = []
    _expect(problems, "pass", out.get("pass"), True)
    return problems


CHECKS = {
    "local-dims": check_local_dims,
    "lattice": check_lattice,
    "theta": check_theta,
    "tree": check_tree,
    "harmonic": check_harmonic,
    "residue": check_residue,
    "modp degrees": check_modp_degrees,
    "modp sections": check_modp_sections,
    "modp stable-lines": check_modp_stable_lines,
    "modp symgeom-check": check_modp_symgeom,
    "modp b-forms": check_modp_b_forms,
}


def check_job(job: list[str], stdout: str) -> list:
    """Problems with one job's output; empty when it is correct."""
    command, opts = parse_args(job)
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    problems: list = []
    _expect(problems, "command", out.get("command"), command)
    config = out.get("config", {})
    for key, value in opts.items():
        if key in config and str(config[key]).lower() != str(value).lower():
            problems.append(f"config {key}: got {config[key]!r}, expected {value!r}")
    try:
        problems += CHECKS[command](opts, out)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed payload: {type(exc).__name__}: {exc}")
    return problems
