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
it checks every sigma and jet name before it packs a key.

TEXT_FORM_VERSION names these canonical forms; the per-genus cache stores
it and ignores a record written under another version.
"""
from __future__ import annotations

import re

from .jets import JetPoly
from .ratio import Q, parse_q, qjson, qstr
from .sparse import unpack, width

TEXT_FORM_VERSION = "textform-v1"


def term_sort_key(key: tuple):
    """Canonical order of exponent tuples (sa, sb, e0, ..., ek) of one width."""
    sdeg = key[0] + 3 * key[1]
    jets_desc = tuple(-e for e in key[:3:-1])
    return (sdeg, key[1], jets_desc, -key[3], -key[2])


def sorted_items(p: JetPoly):
    """p.items() in canonical term order, every exponent tuple padded to the
    widest one, so that term_sort_key compares them from one top jet down."""
    n, den = max(4, width(p.terms)), p.den
    return sorted([(unpack(k, n), Q(v, den)) for k, v in p.terms.items()],
                  key=lambda kv: term_sort_key(kv[0]))


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
    for key, c in sorted_items(p):
        neg = c < 0
        mono = _factors(key)
        body = f"({qstr(-c if neg else c)})" + (f"*{mono}" if mono else "")
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
    out = []
    for key, c in sorted_items(p):
        jets = {f"z{k}": e for k, e in enumerate(key[2:]) if e}
        out.append({"coef": qjson(c), "sigma": [key[0], key[1]], "jets": jets})
    return out


def jet_from_json(data: list, top: int) -> JetPoly:
    """The JetPoly of jet_json's list.  Every term is checked before any key
    is packed: ValueError for a sigma other than two nonnegative ints,
    KeyError for a jet name other than z0..z{top}."""
    index = {f"z{k}": k for k in range(top + 1)}
    terms = []
    for term in data:
        sa, sb = sigma = term["sigma"]
        if type(sa) is not int or type(sb) is not int or sa < 0 or sb < 0:
            raise ValueError(f"sigma {sigma!r} is not two nonnegative ints")
        jets = {index[name]: e for name, e in term["jets"].items()}
        terms.append((parse_q(term["coef"]), (sa, sb), jets))
    return JetPoly.sum([JetPoly.monomial(*t) for t in terms])


# -- LaTeX ----------------------------------------------------------------


def _latex_sigma(key) -> str:
    bits = []
    if key[0]:
        bits.append(r"\sigma_1" + (f"^{key[0]}" if key[0] > 1 else ""))
    if key[1]:
        bits.append(r"\sigma_3" + (f"^{key[1]}" if key[1] > 1 else ""))
    return " ".join(bits)


def jet_latex(p: JetPoly) -> str:
    """Display-style LaTeX: rational and sigma factors in a fraction against the
    z1 denominator, remaining jets multiplied outside."""
    if not p.terms:
        return "0"
    pieces = []
    for key, c in sorted_items(p):
        neg = c < 0
        if neg:
            c = -c
        num, den = c.numerator, c.denominator
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
                jets_num.append(name + (f"^{e}" if e > 1 else ""))
            else:
                jets_den.append(name + (f"^{-e}" if e < -1 else ""))
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
