"""Canonical text, JSON and LaTeX forms for the exact polynomial types.

Grammar of the text form (round-trips byte-for-byte through parse_jet):

    poly   := ['-'] term ((' + ' | ' - ') term)*  |  '0'
    term   := '(' rational ')' ('*' factor)*
    factor := name ('^' int)?          name in {s1, s3, z0, z1, z2, ...}

Canonical term order: sigma weighted degree (deg s1 = 1, deg s3 = 3)
ascending, s3 exponent ascending, then jet exponents (from the highest jet
of the polynomial down to z2) descending lexicographically, then z1 and z0
exponents descending.  This
reproduces the familiar ordering of the printed genus-2 free energy.

JSON form: a list of term objects {"coef": "num/den", "sigma": [a, b],
"jets": {"z1": -2, ...}} in the same canonical order, rationals always
carrying an explicit denominator.  `jet_from_json` reads outside input, so
it checks every sigma, jet name and exponent before it packs a key.
`json_text` writes any such object, and every other JSON the program
writes, as `json.dumps(obj, indent=1)` does, byte for byte; it writes a
JetPoly in place, and one without jets (a Hodge table coefficient, R_g)
from its two sigma slots alone, since its "jets" is always {}.

TEXT_FORM_VERSION names these canonical forms.  It is one part of the
per-genus cache's version (loop.CACHE_VERSION), so a record written under
another text-form version misses.
"""
from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii
from math import gcd, lcm

from .jets import JetPoly
from .ratio import parse_q, qstr
from .sparse import SLOT_HALF, two_slots, unit, unpack, width

TEXT_FORM_VERSION = "textform-v1"


def sorted_items(p: JetPoly) -> list:
    """(exponent tuple, numerator, denominator) per term of p in canonical
    term order, each coefficient in lowest terms and every tuple padded to
    the widest one (at least four slots).

    Keys order as their exponents do, read from the top slot down
    (sparse.py), and the sigma slots are nonnegative; so the keys in
    descending order list the jet parts in canonical order, and the stable
    sort by sigma grade after it keeps that order within each grade."""
    terms, den = p.terms, p.den
    keys = sorted(terms, reverse=True)
    if not keys:
        return []
    n = max(4, width((keys[0], keys[-1])))
    rows = [(unpack(k, n), terms[k]) for k in keys]
    rows.sort(key=_grade)
    out = []
    for key, v in rows:
        g = gcd(v, den)
        out.append((key, v // g, den // g))
    return out


def _grade(row) -> tuple:
    """Sigma weighted degree (deg s1 = 1, deg s3 = 3), then the s3 exponent."""
    key = row[0]
    return key[0] + 3 * key[1], key[1]


def _factors(key: tuple) -> str:
    bits = []
    if key[0]:
        bits.append("s1" if key[0] == 1 else f"s1^{key[0]}")
    if key[1]:
        bits.append("s3" if key[1] == 1 else f"s3^{key[1]}")
    for k, e in enumerate(key[2:]):
        if e:
            bits.append(f"z{k}" if e == 1 else f"z{k}^{e}")
    return "*".join(bits)


def jet_text(p: JetPoly) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for key, num, den in sorted_items(p):
        neg = num < 0
        mono = _factors(key)
        coef = -num if neg else num
        body = (f"({coef})" if den == 1 else f"({coef}/{den})") + (f"*{mono}" if mono else "")
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


_TERM_RE = re.compile(r"\(\s*(-?\d+(?:\s*/\s*\d+)?)\s*\)")
_FACTOR_RE = re.compile(r"(s1|s3|z\d+)(?:\^(-?\d+))?$")


def parse_jet(text: str) -> JetPoly:
    """Parse the canonical text form (tolerant about spacing and sign placement)."""
    text = text.strip()
    if text == "0" or not text:
        return JetPoly.zero()
    terms = []
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"term without coefficient: {term!r}")
        coef = parse_q(m.group(1).replace(" ", "")) * sign
        sigma = [0, 0]
        jets = {}
        rest = term[m.end():].strip()
        if rest.startswith("*"):
            rest = rest[1:]
        if rest:
            for factor in rest.split("*"):
                fm = _FACTOR_RE.match(factor.strip())
                if not fm:
                    raise ValueError(f"bad factor {factor!r}")
                name, exp = fm.group(1), int(fm.group(2) or 1)
                if name == "s1":
                    sigma[0] += exp
                elif name == "s3":
                    sigma[1] += exp
                else:
                    k = int(name[1:])
                    jets[k] = jets.get(k, 0) + exp
        terms.append(JetPoly.monomial(coef, tuple(sigma), jets))
    return JetPoly.sum(terms)


def _split_terms(text: str):
    """Yield (sign, chunk) splitting on top-level + and - between terms."""
    terms = []
    sign = 1
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur and cur[-1] == " ":
            terms.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
            continue
        cur.append(ch)
    lead = "".join(cur).strip()
    if lead:
        terms.append((sign, lead))
    fixed = []
    for s, t in terms:
        if t.startswith("-"):
            s, t = -s, t[1:].strip()
        fixed.append((s, t))
    return fixed


# -- JSON -----------------------------------------------------------------


def jet_json(p: JetPoly) -> list:
    rows = sorted_items(p)
    names = [f"z{k}" for k in range(len(rows[0][0]) - 2)] if rows else []
    return [{"coef": f"{num}/{den}", "sigma": [key[0], key[1]],
             "jets": {name: e for name, e in zip(names, key[2:]) if e}}
            for key, num, den in rows]


def jet_from_json(data: list, top: int, cap: int = SLOT_HALF - 1) -> JetPoly:
    """The JetPoly of jet_json's list, summing repeated terms and dropping
    zero ones.  A term's key is used only once every check on the term has
    passed: ValueError for a sigma other than two nonnegative ints, for a
    jet exponent that is not an int or is negative outside z1, and for a
    coefficient that is not "num" or "num/den" in ints; KeyError for a jet
    name other than z0..z{top}; OverflowError for an |exponent| above cap,
    or above SLOT_HALF - 1, the largest a slot holds; ZeroDivisionError for
    a zero denominator."""
    slots = {f"z{k}": unit(2 + k) for k in range(top + 1)}
    s3, z1 = unit(1), unit(3)
    cap = min(cap, SLOT_HALF - 1)
    parsed = []
    for term in data:
        sa, sb = sigma = term["sigma"]
        if type(sa) is not int or type(sb) is not int or sa < 0 or sb < 0:
            raise ValueError(f"sigma {sigma!r} is not two nonnegative ints")
        top_e = max(sa, sb)
        key = sa + sb * s3
        for name, e in term["jets"].items():
            slot = slots[name]
            if type(e) is not int or (e < 0 and slot != z1):
                raise ValueError(f"{name}^{e!r}: a jet exponent is an int, negative only on z1")
            if abs(e) > top_e:
                top_e = abs(e)
            key += e * slot
        if top_e > cap:
            raise OverflowError(f"exponent {top_e} is above the cap {cap}")
        num, slash, den = term["coef"].partition("/")
        num, den = int(num), int(den) if slash else 1
        if not den:
            raise ZeroDivisionError(f"coefficient {term['coef']!r} has a zero denominator")
        if num:
            parsed.append((key, num, den))
    common = lcm(*(d for _, _, d in parsed))  # positive, as math.lcm is
    nums = {}
    get = nums.get
    for key, num, den in parsed:
        nums[key] = get(key, 0) + num * (common // den)
    return JetPoly.packed({k: v for k, v in nums.items() if v}, common)


def json_text(obj, sort_keys: bool = False) -> str:
    """json.dumps(obj, indent=1, sort_keys=sort_keys), byte for byte, for
    lists, tuples and dicts with str keys of str, int, float, bool and None;
    a JetPoly is written as its jet_json list, without building that list.
    A JetPoly without jets, such as every Hodge table coefficient, takes a
    path of its own: its keys are read through `sparse.two_slots` and
    sorted once by (sigma grade, s3 exponent), which is the canonical order
    when no key has a jet, and each term is written from its two sigma
    exponents, its reduced coefficient and a fixed empty "jets".  Strings
    go through json's own (C) escaper, and each container is one join."""
    keys = {}    # str key -> its JSON and ": ", made once per call
    lines = []   # depth -> (its newline, the newline of its items, their separator)
    frames = {}  # depth -> a sigma-only term's text around its coefficient and sigma

    def write(obj, depth: int) -> str:
        while len(lines) <= depth + 2:
            pad = " " * len(lines)
            lines.append(("\n" + pad, "\n " + pad, ",\n " + pad))
        nl, inner, sep = lines[depth]
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            parts = []
            for k, v in sorted(obj.items()) if sort_keys else obj.items():
                head = keys.get(k)
                if head is None:
                    if not isinstance(k, str):
                        raise TypeError(f"keys must be str, not {type(k).__name__}")
                    head = keys[k] = encode_basestring_ascii(k) + ": "
                w = _SCALAR_JSON.get(type(v))
                parts.append(head + (w(v) if w else write(v, depth + 1)))
            return "{" + inner + sep.join(parts) + nl + "}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            return "[" + inner + sep.join([w(v) if (w := _SCALAR_JSON.get(type(v)))
                                           else write(v, depth + 1) for v in obj]) + nl + "]"
        if isinstance(obj, JetPoly):
            if not obj.terms:
                return "[]"
            (nl1, in1, sep1), (nl2, in2, sep2) = lines[depth + 1], lines[depth + 2]
            if width(obj.terms) <= 2:
                frame = frames.get(depth)
                if frame is None:
                    jets = '"jets": {}'
                    frame = frames[depth] = (
                        f'{{{in1}"coef": "', f'"{sep1}{jets + sep1 if sort_keys else ""}"sigma": [{in2}',
                        f"{nl2}]{'' if sort_keys else sep1 + jets}{nl1}}}")
                head, mid, tail = frame
                den = obj.den
                terms = []
                for _, sb, sa, v in sorted([(sa + 3 * sb, sb, sa, v)
                                            for sa, sb, v in two_slots(obj.terms)]):
                    g = gcd(v, den)
                    terms.append(f"{head}{v // g}/{den // g}{mid}{sa}{sep2}{sb}{tail}")
                return "[" + inner + sep.join(terms) + nl + "]"
            rows = sorted_items(obj)
            names = [f'"z{k}": ' for k in range(len(rows[0][0]) - 2)]
            # as JSON keys "z10" sorts before "z2"
            order = sorted(range(len(names)), key=names.__getitem__) if sort_keys else range(len(names))
            terms = []
            for (sa, sb, *es), num, den in rows:
                jets = [names[k] + str(es[k]) for k in order if es[k]]
                jets = f'"jets": {{{in2}{sep2.join(jets)}{nl2}}}' if jets else '"jets": {}'
                sigma = f'"sigma": [{in2}{sa}{sep2}{sb}{nl2}]'
                tail = f"{jets}{sep1}{sigma}" if sort_keys else f"{sigma}{sep1}{jets}"
                terms.append(f'{{{in1}"coef": "{num}/{den}"{sep1}{tail}{nl1}}}')
            return "[" + inner + sep.join(terms) + nl + "]"
        # subclasses of the scalar types, as json writes them
        for base in (str, int, float):
            if isinstance(obj, base):
                return _SCALAR_JSON[base](obj)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    w = _SCALAR_JSON.get(type(obj))
    return w(obj) if w else write(obj, 0)


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_INF = float("inf")
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


# -- LaTeX ----------------------------------------------------------------


def _latex_power(name: str, e: int) -> str:
    """name^e for e >= 1; an exponent of two or more digits is braced."""
    if e == 1:
        return name
    return f"{name}^{e}" if e < 10 else f"{name}^{{{e}}}"


def _latex_sigma(key) -> str:
    bits = []
    if key[0]:
        bits.append(_latex_power(r"\sigma_1", key[0]))
    if key[1]:
        bits.append(_latex_power(r"\sigma_3", key[1]))
    return " ".join(bits)


def jet_latex(p: JetPoly) -> str:
    """Display-style LaTeX: rational and sigma factors in a fraction against the
    z1 denominator, remaining jets multiplied outside."""
    if not p.terms:
        return "0"
    pieces = []
    for key, num, den in sorted_items(p):
        neg = num < 0
        if neg:
            num = -num
        sig = _latex_sigma(key)
        top = (f"{num}" if num != 1 or not sig else "") + (f" {sig}" if sig else "")
        top = top.strip() or f"{num}"
        jets_num = []
        jets_den = []
        for k, e in enumerate(key[2:]):
            if not e:
                continue
            name = f"z_{k}" if k < 10 else f"z_{{{k}}}"
            if e > 0:
                jets_num.append(_latex_power(name, e))
            else:
                jets_den.append(_latex_power(name, -e))
        if den == 1 and not jets_den:
            body = top + (" " if jets_num else "") + " ".join(jets_num)
        else:
            bottom = (f"{den}" if den != 1 else "") + (" " if den != 1 and jets_den else "") + " ".join(jets_den)
            body = r"\frac{" + top + "}{" + bottom.strip() + "}" + ("\\," + " ".join(jets_num) if jets_num else "")
        pieces.append(("-" if neg else ("+" if pieces else "")) + body)
    return " ".join(pieces)


def free_energy_text(genus: int, body: JetPoly, log_z1_coeff=None) -> str:
    if genus == 1:
        head = f"({qstr(log_z1_coeff)})*log(z1)"
        return head + (f" + {jet_text(body)}" if body else "")
    return jet_text(body)
