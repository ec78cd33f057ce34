"""Command-line front end: every report is a single JSON document with the
resolved configuration, the closed-form prediction where one exists, the
computed value, and a pass flag.  All numbers are exact; half-integers print
as strings like "5/2".  Exit codes: 2 for invalid parameters, 3 for a broken
internal invariant.
"""

from __future__ import annotations

import math
import os
import random
import re
import sys
from fractions import Fraction
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import ne

from .errors import DrinfeldError, InternalInvariantError, InvalidParameters
from .harmonic import Cochain, delta, field_kernel, res0, res0_integrality, star_local_kernels
from .lattices import (
    Doubled,
    edge_lattice_profile,
    local_dimension_formulas,
    local_space_report,
    vertex_lattice_profile,
)
from .linalg import SparseRows
from .modp import (
    b_forms_check,
    component_degree,
    gl2_generators,
    global_sections_truncated,
    quotient_rep_and_stable_lines,
    symgeom_equivariance,
    symgeom_injectivity_rank,
    symgeom_iso,
    symgeom_parameters,
)
from .rational import FactoredRational, parse_rational
from .scalars import Fq, ScalarKHat, _check_prime
from .theta import complement_b_identity, theta, theta_integrality
from .tree import TruncatedTree, ball_size, truncated_tree, vertex_label

_MAX_RADIUS = 8
_MAX_BALL_VERTICES = 25_000
# The longest list a command may build, whose work grows about as its square
# for the residue-field commands: V·(deg+1) (sections), t + 1 (stable-lines
# and symgeom-check), the e + 1 binomials of symgeom-check's window
# (1 - z^(q-1))^e, and the p + 1 edges of the star (local-dims).
_MAX_LIST = 1000
# The largest |exponent| in a section's text, which also bounds the orders of
# its z-factors added up, and the largest |level| of a vertex: a pole of order
# 1000 took 7 s in residue, joining 1000 distinct factors took 2.3 s, and the
# ints of a vertex lattice grow as p^(level k).
_MAX_EXPONENT = 100
_MAX_LEVEL = 100
# The most digits of each int of a parsed section's lead: a product of
# literals, p-powers and pihat-powers has no bound of its own, and an int of
# more than 4300 digits does not print.
_MAX_LEAD_DIGITS = 1000
_LEAD_BOUND = 10**_MAX_LEAD_DIGITS  # built once, not at each parse
# The most digits of a section's roots, added up, times k + 2 plus the orders
# of its factors added up: residue values and derivatives carry about that
# many digits (a root of 874 digits gave residue values past the 4300 that
# print at k = 7), and the lead adds up to _MAX_LEAD_DIGITS of its own.
_MAX_ROOT_DIGITS = 3000
# The most digits of the lead of theta's image, read before the derivative
# runs: the (k+1)-th derivative of f, of total degree d, has the lead
# lead(f) d (d - 1) ... (d - k) up to sign.  An int past 4300 digits does not
# print, and the image of 1/z at k = 1600 carries 1601!, of 4 437 digits.
_MAX_IMAGE_DIGITS = 4000
# The largest degree that the polynomial part of theta's image may reach, read
# before the derivative runs: it gains (roots - 1) a step, to at most
# deg(extra) + (k + 1)(roots - 1), and the derivative's work grows with it.  At
# degree 500 two poles (k = 499) took 1.4 s and five (k = 124) 0.8 s as child
# processes on a 2-vCPU machine; two poles at k = 1461 ran past 15 s.
_MAX_IMAGE_DEGREE = 500
# The most entries, (k + 1)^2, of child 1's transition, the one star local
# space of local-dims and harmonic --mod-pihat that is not diagonal, read from
# a factorial table at any p.  As child processes on a 2-vCPU machine the star
# took 0.095 s + 1.5e-7 s (k + 1)^2 where every binomial is a unit (p > k:
# 0.43 s and a 94 MB peak at k = 1499), and about half that slope at p = 2.
_MAX_STAR_COST = 2_250_000
# The most entries of an extension field's exp, log and Zech tables, q - 1 each,
# which symgeom-check builds at any t: building them took 0.10 s at q = 6561 and
# 2.2 s at q = 65536 (one core of a 2-vCPU Xeon).  A prime field has no tables.
_MAX_TABLE = 10_000


# -- serialization --------------------------------------------------------------------


def _ratio(n: int, d: int) -> str:
    """n/d for ints n and d > 0, as ``str(Fraction(n, d))`` prints it."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _scalar_str(s: ScalarKHat) -> str:
    return _khat_str(s.A, s.B, s.D)


def _khat_str(A: int, B: int, D: int) -> str:
    """(A + B*pihat)/D, in lowest terms or not, as ``_scalar_str`` prints it."""
    if not B:
        return _ratio(A, D)
    pihat = "pihat" if B == D else f"{_ratio(B, D)}*pihat"
    return f"{_ratio(A, D)} + {pihat}" if A else pihat


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
        parts.append("[" + _terms(enumerate(f.extra), one, _scalar_str, "({})") + "]")
    return " * ".join(parts)


def _terms(pairs, one, text, frame: str = "{}") -> str:
    """The nonzero terms of sum_i c_i z^i, given as (i, c_i) pairs by rising
    i, joined by " + ": a unit coefficient is left off, and any other but c_0
    prints as its ``text`` in ``frame``."""
    terms = []
    for i, c in pairs:
        zpow = "z" if i == 1 else f"z^{i}"
        if c:
            terms.append(text(c) if i == 0 else zpow if c == one else f"{frame.format(text(c))}*{zpow}")
    return " + ".join(terms)


def _image_strs(images: list, f: int) -> list[str]:
    """The images of ``modp.symgeom_iso``, each num or (num)/(den): each code,
    a residue mod p, prints as c over F_p and as its coefficient list
    [c, 0, ...] over F_(p^f).  Each distinct denominator but 1 is printed
    once."""
    text = str if f == 1 else lambda c: str([c] + [0] * (f - 1))
    bottoms = {den: _terms(den, 1, text) for den in {den for _, den in images} - {((0, 1),)}}
    tops = (_terms(num, 1, text) for num, _ in images)
    return [f"({top})/({bottoms[den]})" if den in bottoms else top for top, (_, den) in zip(tops, images)]


def _value(x):
    """A payload entry as a str, int, bool, None, dict, list or tuple."""
    if isinstance(x, (str, int, dict, list, tuple)) or x is None:
        return x
    if isinstance(x, float) and math.isinf(x):
        return "infinity"
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, ScalarKHat):
        return _scalar_str(x)
    if isinstance(x, FactoredRational):
        return _rational_str(x)
    raise InternalInvariantError(f"cannot serialize {type(x).__name__}")


# The text of every int from -1024 to 1023, where the residues of a section
# basis and most other int lists fall: a lookup is cheaper than
# ``int.__repr__``, the fallback for every other int.
_INT_TEXT = {n: repr(n) for n in range(-1024, 1024)}

# The printed form of each scalar type that ``_value`` passes through unchanged.
_LEAVES = {
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
}


def _dumps(x, pad: str = "\n") -> str:
    """``x`` as JSON: two-space indent, keys sorted after conversion to str,
    ASCII with \\uXXXX escapes.  ``pad`` starts each line at ``x``'s depth."""
    writer = _WRITERS.get(type(x))
    if writer is not None:
        return writer(x, pad)
    x, inner = _value(x), pad + "  "
    if isinstance(x, dict):
        items = {}
        for key, val in x.items():
            if type(key) is not str:
                name = _value(key)
                if isinstance(name, (dict, list, tuple)):
                    raise InternalInvariantError(f"cannot serialize a {type(key).__name__} key")
                key = str(name)
            items[key] = val
        body = []
        for name in sorted(items):
            val = items[name]
            leaf = _LEAVES.get(type(val))  # a scalar value prints without a recursive call
            text = leaf(val) if leaf else _dumps(val, inner)
            body.append(f"{encode_basestring_ascii(name)}: {text}")
        return _wrap("{}", body, pad)
    if isinstance(x, (list, tuple)):
        if set(map(type, x)) == {int}:  # a bool is no int here: it prints as true/false
            try:
                body = list(map(_INT_TEXT.__getitem__, x))
            except KeyError:  # an int past the table
                body = list(map(int.__repr__, x))
        elif all(type(v) is ScalarKHat for v in x):
            body = [f'"{_scalar_str(v)}"' for v in x]  # plain ASCII, nothing to escape
        else:
            body = [_dumps(v, inner) for v in x]
        return _wrap("[]", body, pad)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if type(x) is bool:
        return "true" if x else "false"
    return int.__repr__(x)


def _wrap(brackets: str, body: list, pad: str) -> str:
    """A JSON object or array at depth ``pad`` from its printed entries, one
    a line."""
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(body) + pad + brackets[1] if body else brackets


def _label_json(m: int, n: int, d: int, pad: str) -> str:
    """{"level", "offset"} of the vertex (m, n/d) as ``_wrap`` prints it, the
    offset as ``_value`` prints a ``Fraction``."""
    offset = n if d == 1 else f'"{n}/{d}"'
    return f'{{{pad}  "level": {m},{pad}  "offset": {offset}{pad}}}'


def _cochain_json(c: Cochain, pad: str) -> str:
    """The list of {"edge": {"child", "parent"}, "value"} entries, one per
    stored edge, ordered by the labels of its parent end, then its child
    end, and written item by item from the ball's labels: a vertex's place
    in that order is its level, then its offset over the ball's largest
    denominator.  Each
    vertex prints once, and so does each value list, from its ints, which
    ``res0`` shares among the edges of one counted-pole key."""
    ball, item, edge, ends = c.ball, pad + "  ", pad + "    ", pad + "      "
    levels, nums, dens, top = ball.levels, ball.nums, ball.dens, max(ball.dens)
    stored = []
    for j in c.ints:
        u, v = ball.ends(j)
        stored.append((levels[u], nums[u] * (top // dens[u]), levels[v], nums[v] * (top // dens[v]), u, v, j))
    labels, values, body = {}, {}, []
    for _, _, _, _, u, v, j in sorted(stored):
        vec = c.ints[j]
        for i in (u, v):
            if i not in labels:
                labels[i] = _label_json(levels[i], nums[i], dens[i], ends)
        if id(vec) not in values:
            a, b, L = vec
            values[id(vec)] = _wrap("[]", [f'"{_khat_str(x, y, L)}"' for x, y in zip(a, b)], edge)
        # {"edge": {"child", "parent"}, "value"} as two nested ``_wrap``s print it
        pair = f'{{{ends}"child": {labels[v]},{ends}"parent": {labels[u]}{edge}}}'
        body.append(f'{{{edge}"edge": {pair},{edge}"value": {values[id(vec)]}{item}}}')
    return _wrap("[]", body, pad)


def _sparse_rows_json(vectors: SparseRows, pad: str) -> str:
    """The vectors as ``_dumps`` prints their dense int lists.  Each run of
    zeros is a slice of one text of ``ncols`` zeros, each followed by the
    separator; the separator after a vector's last entry is left off."""
    if not vectors.rows:
        return "[]"
    inner = pad + "  "
    entry = inner + "  "
    sep = "," + entry
    zeros = ("0" + sep) * vectors.ncols
    width = len(sep) + 1
    opening, closing = inner + "[" + entry, inner + "],"
    out = ["["]
    for vec in vectors.rows:
        out.append(opening)
        start = 0
        for c in sorted(vec):
            x = vec[c]
            out += zeros[: (c - start) * width], _INT_TEXT.get(x) or int.__repr__(x), sep
            start = c + 1
        tail = (vectors.ncols - start) * width
        if tail:
            out.append(zeros[: tail - len(sep)])
        else:
            out.pop()  # the separator after a nonzero last entry
        out.append(closing)
    out[-1] = inner + "]" + pad + "]"
    return "".join(out)


def _doubled_json(x: Doubled, pad: str) -> str:
    """The doubled valuations x halved, as ``_value`` prints the ``Fraction``
    x/2: an even entry as an int, an odd one as the string "x/2"."""
    return _wrap("[]", [repr(t >> 1) if t & 1 == 0 else f'"{t}/2"' for t in x], pad)


# The writers of the types that ``_dumps`` prints without ``_value``.
_WRITERS = {
    Cochain: _cochain_json,
    SparseRows: _sparse_rows_json,
    Doubled: _doubled_json,
}


def _emit(document: dict) -> None:
    print(_dumps(document))


# -- configuration --------------------------------------------------------------------


def _load_config(path: str) -> dict:
    """The values of a file of ``key = value`` lines, as text: each is
    converted and checked as the flag of that name would be."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = list(handle)
    except UnicodeDecodeError as exc:
        raise InvalidParameters(f"config file is not UTF-8: {exc.reason}") from None
    except OSError:
        raise InvalidParameters(f"Invalid value for '--config': File {path!r} is not readable.") from None
    for line in map(str.strip, lines):
        if line and not line.startswith("#"):
            if "=" not in line:
                raise InvalidParameters(f"bad config line: {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _fraction(key: str, text: str) -> Fraction:
    try:
        if "e" in text.lower():  # Fraction("1e-99999999") would build 10^99999999
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameters(f"{key} must be a rational number, got {text!r}") from None


def _vertex(p: int, level: int | None, offset: str) -> tuple[int, int, int, int]:
    """The label (p, m, n, d) of the vertex that ``--level`` and ``--offset`` name."""
    return vertex_label(p, level or 0, _fraction("offset", offset))


def _check_size(what: str, size: int, unit: str, limit: int) -> None:
    if size > limit:
        raise InvalidParameters(f"{what} has {size} {unit}, more than {limit}")


def _check_ball(prime: int, radius: int) -> None:
    what = f"the radius-{radius} ball at p = {prime}"
    _check_size(what, ball_size(prime, radius), "vertices", _MAX_BALL_VERTICES)


def _exponents(f: str) -> str:
    """Refuse a section whose text holds an exponent past ``_MAX_EXPONENT``,
    or z-factors whose orders add up past it, each written factor counting at
    least 1: read from its digits before any is converted or parsed.  Equal
    roots add up when the factors are joined, so that sum bounds the parsed
    section's total order."""
    text = f.replace(" ", "")
    for digits in re.findall(r"\^-?(\d+)", text):
        if len(digits.lstrip("0")) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            raise InvalidParameters(f"--f has an exponent past {_MAX_EXPONENT} in absolute value")
    orders = re.findall(r"(?:\(z[^)]*\)|z)(?:\^-?(\d+))?", text)
    if sum(max(1, int(e or 1)) for e in orders) > _MAX_EXPONENT:
        raise InvalidParameters(f"--f has z-factors of total order past {_MAX_EXPONENT}")
    return f


def _digits(s: ScalarKHat) -> int:
    """At least the number of decimal digits of the largest of ``s``'s ints,
    read from its bits: an int past 4300 digits does not convert to text."""
    return int(max(abs(s.A), abs(s.B), s.D).bit_length() * 0.30103) + 1


def _section(f: str, p: int, k: int) -> FactoredRational:
    """``--f`` parsed, refused if its lead has an int past ``_MAX_LEAD_DIGITS``
    digits, or if the digits of its roots, added up, times k + 2 plus its
    total order pass ``_MAX_ROOT_DIGITS``."""
    g = parse_rational(f, p)
    if max(abs(g.lead.A), abs(g.lead.B), g.lead.D) >= _LEAD_BOUND:
        raise InvalidParameters(f"--f has a lead of more than {_MAX_LEAD_DIGITS} digits")
    digits = sum(_digits(root) for root, _ in g.factors)
    order = sum(abs(mult) for _, mult in g.factors)
    weight = k + 2 + order
    if digits * weight > _MAX_ROOT_DIGITS:
        raise InvalidParameters(
            f"--f has roots of {digits} digits in all at k + 2 plus total order {weight}, "
            f"past {_MAX_ROOT_DIGITS} digits in their product"
        )
    return g


def _check_image(g: FactoredRational, k: int) -> None:
    """Refuse a theta image whose lead would pass ``_MAX_IMAGE_DIGITS``
    digits, bounded in closed form by the digits of g's lead plus those of
    prod_(i <= k) (max(|d|, 1) + i) >= |d (d - 1) ... (d - k)|, for d the total
    degree of g.  Past _MAX_IMAGE_DIGITS factors, (k + 1)! alone is longer.
    Refuse one whose polynomial part may pass degree ``_MAX_IMAGE_DEGREE``:
    each of the k + 1 steps of ``FactoredRational.derivative`` raises it by
    at most the number of g's roots less one."""
    w = max(abs(sum(m for _, m in g.factors) + len(g.extra) - 1), 1)
    n = min(k + 1, _MAX_IMAGE_DIGITS)
    digits = _digits(g.lead) + (math.lgamma(w + n) - math.lgamma(w)) / math.log(10)
    if digits > _MAX_IMAGE_DIGITS:
        raise InvalidParameters(
            f"theta's image at k = {k} may have a lead of more than {_MAX_IMAGE_DIGITS} digits"
        )
    degree = len(g.extra) - 1 + (k + 1) * max(len(g.factors) - 1, 0)
    if degree > _MAX_IMAGE_DEGREE:
        raise InvalidParameters(
            f"theta's image at k = {k} may have a polynomial part of degree {degree}, "
            f"more than {_MAX_IMAGE_DEGREE}"
        )


# -- command line ---------------------------------------------------------------------


class _UsageError(Exception):
    """A command line that names no command or option, or misuses one."""


def _flag_of(name: str) -> str:
    return "--" + name.replace("_", "-")


def _int(text: str, kind: str = "integer") -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid {kind}.") from None


def _ranged(lo: int, hi: int | None, default) -> tuple:
    """The entry of an int option in [lo, hi], or in [lo, oo) for hi None."""
    bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"

    def convert(text: str) -> int:
        n = _int(text, "integer range")
        if n < lo or (hi is not None and n > hi):
            raise ValueError(f"{n} is not in the range {bounds}.")
        return n

    return convert, default, "INTEGER RANGE", f"[{bounds}]"


def _prime(text: str) -> int:
    p = _int(text)
    _check_prime(p)
    return p


def _prime_power(text: str) -> int:
    q = _int(text)
    Fq(q)  # rejects q that is not a prime power >= 2
    return q


_TRUE = ("1", "true", "t", "yes", "y", "on")
_BOOLEANS = {text: text in _TRUE for text in (*_TRUE, "0", "false", "f", "no", "n", "off", "")}


def _flag(text: str) -> bool:
    """A flag's value in a --config file; the flag itself gives "true"."""
    state = _BOOLEANS.get(text.strip().lower())
    if state is None:
        raise ValueError(f"{text!r} is not a valid boolean. Recognized values: {', '.join(sorted(_BOOLEANS))}")
    return state


def _config_file(path: str) -> str:
    if not os.path.exists(path):
        raise ValueError(f"File {path!r} does not exist.")
    if os.path.isdir(path):
        raise ValueError(f"File {path!r} is a directory.")
    return path


# Every option, declared once: its converter from text, which refuses a bad
# value with ValueError or InvalidParameters, its default (... if required),
# and the metavar and note that --help prints.  A flag is False unless given,
# and takes a value only in a --config file.
_OPTIONS = {
    "p": (_prime, 2, "INTEGER", ""),
    "q": (_prime_power, 2, "INTEGER", ""),
    "k": _ranged(0, None, 0),
    "kmax": _ranged(0, None, 6),
    "mmax": _ranged(0, None, 8),
    "radius": _ranged(0, _MAX_RADIUS, 1),
    "level": _ranged(-_MAX_LEVEL, _MAX_LEVEL, None),
    "seed": (_int, 0, "INTEGER", ""),
    "i": (_int, 0, "INTEGER", ""),
    "offset": (str, "0", "TEXT", ""),
    "a": (str, "0", "TEXT", ""),
    "f": (_exponents, ..., "TEXT", "rational section, e.g. '1/z'  [required]"),
    "audit": (_flag, False, "", ""),
    "mod_pihat": (_flag, False, "", ""),
    "config": (_config_file, None, "FILE", "key=value file supplying defaults for any option"),
    "help": (_flag, False, "", "Show this message and exit."),
}
_NAMES = {_flag_of(name): name for name in _OPTIONS}

# Each command and group by its path below the program name: its function
# (None for a group), the options it takes besides --help, and its help text.
_COMMANDS = {
    (): (None, ("config",), "Exact computations on the weight-k modules over the (q+1)-regular tree."),
    ("modp",): (None, (), "Residue-field geometry commands."),
}


def _command(path: str, *options: str):
    """Register the decorated function as the command at ``path``."""

    def register(fn):
        _COMMANDS[tuple(path.split())] = (fn, options, fn.__doc__)
        return fn

    return register


def _children(path: tuple) -> list:
    return sorted(sub[-1] for sub in _COMMANDS if sub and sub[:-1] == path)


def _help(path: tuple) -> str:
    """The usage line, help text and options of the command or group at ``path``."""
    fn, options, doc = _COMMANDS[path]
    usage = " ".join(("Usage: drinfeld", *path, "[OPTIONS]" if fn else "[OPTIONS] COMMAND [ARGS]..."))
    rows = [(f"{_flag_of(n)} {_OPTIONS[n][2]}".rstrip(), _OPTIONS[n][3]) for n in (*options, "help")]
    if fn is None:
        rows += [("", "Commands:")] + [(c, " ".join(_COMMANDS[(*path, c)][2].split())) for c in _children(path)]
    width = max(len(left) for left, _ in rows)
    lines = [usage, "", *("  " + line.strip() for line in doc.splitlines()), "", "Options:"]
    for left, note in rows:
        lines += [f"  {left:<{width}}  {note}".rstrip()] if left else ["", note]
    return "\n".join(lines)


def _suggest(message: str, word: str, known: list) -> _UsageError:
    """``message``, followed by the entries of ``known`` close to ``word``."""
    from difflib import get_close_matches

    close = ", ".join(map(repr, sorted(get_close_matches(word, known))))
    hint = f"(Did you mean one of: {close}?)" if "," in close else f"Did you mean {close}?" if close else ""
    return _UsageError(f"{message} {hint}".rstrip())


def _parse(path: tuple, args: list) -> tuple[dict, list]:
    """The options given to the command or group at ``path`` in ``args``, as
    text in the order first given, and the other arguments: all of them for
    a command, and from the first, its command's name, for a group."""
    fn, options, _ = _COMMANDS[path]
    given, rest, tokens = {}, [], iter(args)
    for arg in tokens:
        if arg == "--":
            return given, rest + list(tokens)
        if arg[:1] != "-" or arg == "-":
            if fn is None:
                return given, [arg, *tokens]
            rest.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        name = _NAMES.get(flag)
        if name not in options and name != "help":
            if arg[1] != "-":  # one letter at a time, as a short option
                raise _UsageError(f"No such option {arg[:2]!r}.")
            raise _suggest(f"No such option {flag!r}.", flag, [_flag_of(n) for n in (*options, "help")])
        if _OPTIONS[name][0] is _flag:
            if eq:
                raise _UsageError(f"Option {flag!r} does not take a value.")
            value = "true"
        elif not eq and (value := next(tokens, None)) is None:
            raise _UsageError(f"Option {flag!r} requires an argument.")
        given[name] = value
    return given, rest


def _convert(name: str, text: str):
    try:
        return _OPTIONS[name][0](text)
    except ValueError as exc:
        raise InvalidParameters(f"Invalid value for {_flag_of(name)!r}: {exc}") from None


def _resolve(options: tuple, given: dict, defaults: dict) -> dict:
    """Each option's value from its flag, else from ``defaults``, else its
    default, converted and checked: those given in the order given, then
    the rest in the order declared."""
    values = {}
    for name in (*given, *options):
        if name in values:
            continue
        text = given.get(name, defaults.get(name))
        if text is not None:
            values[name] = _convert(name, text)
        elif _OPTIONS[name][1] is ...:
            raise InvalidParameters(f"Missing option {_flag_of(name)!r}.")
        else:
            values[name] = _OPTIONS[name][1]
    return values


def _run(args: list) -> None:
    """Walk ``args`` down the groups to a command and run it, the --config
    file's values the defaults of its options; or print the help asked for."""
    path, file_values = (), {}
    while _COMMANDS[path][0] is None:
        if not args:
            raise _UsageError(_help(path))
        given, args = _parse(path, args)
        if given.pop("help", None):
            return print(_help(path))
        config = _resolve(_COMMANDS[path][1], given, {}).get("config")
        if not args:
            raise _UsageError("Missing command.")
        if (*path, args[0]) not in _COMMANDS:
            raise _suggest(f"No such command {args[0]!r}.", args[0], _children(path))
        file_values = _load_config(config) if config else file_values
        path, args = (*path, args[0]), args[1:]
    fn, options, _ = _COMMANDS[path]
    given, rest = _parse(path, args)
    if given.pop("help", None):  # from argv only: a config file's help key is ignored
        return print(_help(path))
    values = _resolve(options, given, file_values)
    if rest:
        raise _UsageError(f"Got unexpected extra argument{'s' * (len(rest) > 1)} ({' '.join(rest)})")
    # the header: the command's path below the program name and its resolved
    # options, unless its payload gives a config of its own
    _emit({"command": " ".join(path), "config": values, **fn(**values)})


def _fail(code: int, label: str, message) -> int:
    print(f"{label}: {message}", file=sys.stderr)
    return code


@_command("tree", "p", "radius")
def tree_cmd(p: int, radius: int) -> dict:
    """Ball statistics and regularity check."""
    _check_ball(p, radius)
    ball = truncated_tree(p, radius)
    counts = {"vertices": len(ball.levels), "edges": ball.n_edges}
    predicted = {"vertices": ball_size(p, radius), "edges": ball_size(p, radius) - 1}
    regular = counts == predicted and _regular(ball)
    return {"computed": counts, "predicted": predicted, "regular": regular, "pass": counts == predicted and regular}


def _regular(ball: TruncatedTree) -> bool:
    """Whether the ball's labels are distinct, each vertex's label and its
    up's are a step apart (the deeper one's parent label is the other's), and
    each interior star holds the edges that end at its vertex: in the
    (p + 1)-regular tree the star then reaches every neighbour.  Vertex j + 1
    hangs off up(j + 1) through edge j: the base's p + 1 neighbours come
    first, then p from each vertex i >= 1 in turn, so star i >= 1 is edge
    i - 1 and edges p i + 1 ... p i + p.  Each test compares whole arrays,
    shell by shell.  The parent of (m, n/d) is (m - 1, n mod p^(m-1) d, d),
    or (m - 1, 0, 1) when that offset is 0, with p^(m-1) d read as d /
    p^(1-m) below level 1, and as 1 when that is below 1."""
    p, levels, nums, dens, n = ball.p, ball.levels, ball.nums, ball.dens, ball.n_interior
    labels, size, pw = list(zip(levels, nums, dens)), len(levels), {m: p ** abs(m - 1) for m in set(levels)}
    parents = [
        (m - 1, r, d) if (r := b % (pw[m] * d if m > 0 else max(1, d // pw[m]))) else (m - 1, 0, 1)
        for m, b, d in labels
    ]
    up_labels = chain(repeat(labels[0], p + 1), chain.from_iterable(map(repeat, labels[1:n], repeat(p))))
    # vertex j is a child of up(j), or on the spine its parent
    misses = compress(range(1, size), map(ne, parents[1:], up_labels))
    rest = zip(range(n - 1), *(range(p + c, p * n + c, p) for c in range(1, p + 1)))
    stars = list(chain(range(p + 1), chain.from_iterable(rest))) if n else []
    return (
        size - 1 == (p * n + 1 if n else 0)
        and len(set(labels)) == size
        and all(parents[ball.up(j)] == labels[j] for j in misses)
        and list(chain.from_iterable(map(ball.star, range(n)))) == stars
    )


def _standard_profiles(p: int, k: int) -> tuple[dict, dict]:
    """The doubled profiles of the vertices at levels 0, 1 and -1 on the axis,
    and of the standard edge, with their closed forms."""
    computed = {f"gamma{m}": vertex_lattice_profile((p, m, 0, 1), k) for m in (0, 1, -1)}
    computed["standard_edge"] = edge_lattice_profile(p, k)
    predicted = {f"gamma{m}": Doubled(m * (k - 2 * j) for j in range(k + 1)) for m in (0, 1, -1)}
    predicted["standard_edge"] = Doubled(max(0, 2 * j - k) for j in range(k + 1))  # ascending
    return computed, predicted


@_command("lattice", "p", "k", "level", "offset")
def lattice_cmd(p: int, k: int, level: int | None, offset: str) -> dict:
    """Diagonal valuation profiles of the vertex and edge lattices."""
    if level is not None:
        v = _vertex(p, level, offset)
        vertex = {"level": v[1], "offset": Fraction(v[2], v[3])}
        return {"vertex": vertex, "profile": vertex_lattice_profile(v, k), "pass": True}
    computed, predicted = _standard_profiles(p, k)
    return {"config": {"p": p, "k": k}, "computed": computed, "predicted": predicted, "pass": computed == predicted}


@_command("local-dims", "p", "k")
def local_dims_cmd(p: int, k: int) -> dict:
    """Brute-force local space dimensions against the closed forms."""
    _check_size(f"the star at p = {p}", p + 1, "edges", _MAX_LIST)
    _check_size(f"child 1's transition at k = {k}", (k + 1) ** 2, "entries", _MAX_STAR_COST)
    report = local_space_report(p, k)
    return {"predicted": report["predicted"], "pass": report["pass"], **report["computed"]}


@_command("harmonic", "p", "k", "radius", "mod_pihat")
def harmonic_cmd(p: int, k: int, radius: int, mod_pihat: bool) -> dict:
    """Kernel of the signed star-sum operator on a truncation."""
    _check_ball(p, radius)
    if mod_pihat:
        _check_size(f"child 1's transition at k = {k}", (k + 1) ** 2, "entries", _MAX_STAR_COST)
        predicted_star = local_dimension_formulas(p, k)["dimZhar"]
        stars = star_local_kernels(truncated_tree(p, radius), k)
        passes = all(v == predicted_star for v in stars.values())
        return {"star_local": stars, "predicted_star_local": predicted_star, "pass": passes}
    ball = truncated_tree(p, radius)
    free_rank = (k + 1) * (ball.n_edges - ball.n_interior)
    dimension = field_kernel(ball, k)
    return {"dimension": dimension, "predicted": free_rank, "pass": dimension == free_rank}


@_command("residue", "p", "k", "radius", "f", "audit", "seed")
def residue_cmd(p: int, k: int, radius: int, f: str, audit: bool, seed: int) -> dict:
    """Residue cochain of a weight-(k+2) section, with harmonicity and
    integrality reports."""
    _check_ball(p, radius)
    g = _section(f, p, k)
    ball = truncated_tree(p, radius)
    cochain = res0(g, k, ball, rng=random.Random(seed) if audit else None)
    delta_zero = not any(any(a) or any(b) for a, b, _ in delta(cochain, ball).values())
    integrality = res0_integrality(g, k, ball, cochain)
    consistent = integrality["in_all_edge_lattices"] or not integrality["vertex_membership"]
    return {
        "support_size": len(cochain.ints),
        "cochain": cochain,
        "delta_zero": delta_zero,
        "in_all_edge_lattices": integrality["in_all_edge_lattices"],
        "vertex_membership": integrality["vertex_membership"],
        "pass": delta_zero and consistent,
    }


@_command("theta", "p", "k", "f", "level", "offset")
def theta_cmd(p: int, k: int, f: str, level: int | None, offset: str) -> dict:
    """(k+1)-fold derivative with an integrality certificate at a vertex."""
    section = _section(f, p, k)
    _check_image(section, k)
    v = _vertex(p, level, offset)
    image = theta(section, k)
    cert = theta_integrality(section, image, k, v)
    return {
        "image": image,
        "certificate": {**vars(cert), "vertex": {"b": Fraction(v[2], v[3]), "m": v[1], "p": p}},
        # theta sends z^c to a nonzero multiple of z^(c-k-1) for c > k and to
        # 0 for c <= k, so its kernel on polynomials is those of degree <= k
        "kernel_polynomial_dimension": k + 1,
        "predicted_kernel_dimension": k + 1,
        "pass": cert.passes,
    }


@_command("identity-b", "p", "kmax", "mmax", "a")
def identity_b_cmd(p: int, kmax: int, mmax: int, a: str) -> dict:
    """Euler-operator factorization at each even k up to kmax."""
    shift = ScalarKHat.from_rational(_fraction("a", a), p)
    window = range(-mmax, mmax + 1)
    rows = [{"k": k, "pass": complement_b_identity(k, shift, window, p)} for k in range(2, kmax + 1, 2)]
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


@_command("modp degrees", "q", "k")
def modp_degrees_cmd(q: int, k: int) -> dict:
    """Component degree of the reduced weight-k bundle."""
    return {"degree": component_degree(q, k), "parity": "even" if k % 2 == 0 else "odd", "pass": True}


@_command("modp sections", "q", "k", "radius")
def modp_sections_cmd(q: int, k: int, radius: int) -> dict:
    """Global sections over a truncation: formula vs direct assembly."""
    _check_ball(q, radius)
    columns = ball_size(q, radius) * max(0, component_degree(q, k) + 1)
    what = f"the section matrix at q = {q}, k = {k}, radius {radius}"
    _check_size(what, columns, "columns", _MAX_LIST)
    return global_sections_truncated(q, k, radius)


@_command("modp stable-lines", "q", "k", "i")
def modp_stable_lines_cmd(q: int, k: int, i: int) -> dict:
    """Quotient representation and its stable lines."""
    t, _ = symgeom_parameters(q, k, i)
    _check_size(f"Sym^t at q = {q}, k = {k}, i = {i}", t + 1, "monomials", _MAX_LIST)
    report = quotient_rep_and_stable_lines(q, k, i)
    # a coordinate prints as its residue over F_p and as its digits over F_(p^f)
    prime = Fq(q).f == 1
    return {
        "dimension": report["dimension"],
        "predicted_dimension": q + 1,
        "free_monomials": report["free_monomials"],
        "stable_lines": [[c for c, in line] if prime else line for line in report["stable_lines"]],
        "group_order": report["group_order"],
        "pass": report["dimension"] == q + 1,
    }


@_command("modp symgeom-check", "q", "k", "i")
def modp_symgeom_cmd(q: int, k: int, i: int) -> dict:
    """Equivariance and injectivity of the symmetric-power comparison map."""
    t, shift = symgeom_parameters(q, k, i)
    _check_size(f"the comparison map at q = {q}, k = {k}, i = {i}", t + 1, "images", _MAX_LIST)
    what = f"the window (1 - z^(q-1))^{-shift} at q = {q}, k = {k}, i = {i}"
    _check_size(what, 1 - shift, "binomials", _MAX_LIST)
    if Fq(q).f > 1:
        _check_size(f"the field of order {q}", q - 1, "table entries", _MAX_TABLE)
    iso = symgeom_iso(q, k, i)
    equivariant = all(symgeom_equivariance(q, k, i, g) for g in gl2_generators(Fq(q)))
    rank_value = symgeom_injectivity_rank(iso)
    return {
        "t": iso["t"],
        "shift": iso["shift"],
        "images": _image_strs(iso["images"], iso["f"]),
        "equivariant": equivariant,
        "injectivity_rank": rank_value,
        "predicted_rank": iso["t"] + 1,
        "pass": equivariant and rank_value == iso["t"] + 1,
    }


@_command("modp b-forms", "q")
def modp_b_forms_cmd(q: int) -> dict:
    """The uniformizer involution swaps the vertex parities on the radius-2 ball."""
    _check_ball(Fq(q).p, 2)
    return {"pass": b_forms_check(q)}


def main(argv: list[str] | None = None) -> None:
    """Run the command line ``argv``, by default ``sys.argv[1:]``; exit with
    the error's code if it fails: 2 for invalid parameters or usage, 3 for a
    broken internal invariant, 1 for an interrupt or a closed stdout."""
    try:
        _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return
    except KeyboardInterrupt:
        print(file=sys.stderr)  # end the line that the interrupt cut
        code = 1
    except BrokenPipeError:
        # the reader left, e.g. ``| head``: the interpreter's exit flush of
        # what is still buffered goes to the null device, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except InternalInvariantError as exc:
        code = _fail(3, "internal invariant violated", exc)
    except InvalidParameters as exc:
        code = _fail(2, "invalid parameters", exc)
    except DrinfeldError as exc:
        code = _fail(2, "error", exc)
    except _UsageError as exc:
        code = _fail(2, "usage error", exc)
    sys.exit(code)


if __name__ == "__main__":
    main()
