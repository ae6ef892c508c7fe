import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubichodge.jets import JetPoly
from cubichodge.ratio import Q
from cubichodge.sparse import SLOT_HALF
from cubichodge.textform import (free_energy_text, jet_from_json, jet_json, jet_latex,
                                 jet_text, json_text, parse_jet, sorted_items)

from golden import H1_TEXT, H2_TEXT, H3_TEXT, parse_sigma

JET_TOP = 8


def test_h1_text(h123):
    h1 = h123[0]
    assert free_energy_text(1, h1.body, h1.log_z1_coeff) == H1_TEXT


def test_zero():
    assert jet_text(JetPoly.zero()) == "0"
    assert parse_jet("0") == JetPoly.zero()


def test_simple_term():
    p = JetPoly.monomial(Q(7, 5760), (2, 0), {2: 1})
    assert jet_text(p) == "(7/5760)*s1^2*z2"


def test_golden_roundtrips():
    for text in (H2_TEXT, H3_TEXT):
        p = parse_jet(text)
        assert parse_jet(jet_text(p)) == p
        assert jet_text(parse_jet(jet_text(p))) == jet_text(p)


def test_sigma_roundtrip():
    sp = JetPoly.monomial(Q(1, 17280), (3, 0), {}) + JetPoly.monomial(Q(-1, 34560), (0, 1), {})
    assert parse_sigma(jet_text(sp)) == sp


coef = st.fractions(min_value=-50, max_value=50).filter(lambda f: f != 0)


@st.composite
def jet_polys(draw):
    n_terms = draw(st.integers(0, 6))
    p = JetPoly.zero()
    for _ in range(n_terms):
        jets = {k: draw(st.integers(0, 3)) for k in draw(st.sets(st.integers(0, JET_TOP), max_size=3))}
        jets[1] = draw(st.integers(-4, 4))
        sigma = (draw(st.integers(0, 3)), draw(st.integers(0, 2)))
        p = p + JetPoly.monomial(Q(draw(coef)), sigma, jets)
    return p


@given(jet_polys())
@settings(max_examples=120, deadline=None)
def test_text_roundtrip_random(p):
    text = jet_text(p)
    again = parse_jet(text)
    assert again == p
    assert jet_text(again) == text


@given(jet_polys())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_random(p):
    blob = json.dumps(jet_json(p))
    again = jet_from_json(json.loads(blob), JET_TOP)
    assert again == p
    assert json.dumps(jet_json(again)) == blob


@st.composite
def json_terms(draw):
    """jet_json-shaped terms with repeats, zero coefficients and signs on
    either side of the fraction bar."""
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        if terms and draw(st.booleans()):
            term = dict(draw(st.sampled_from(terms)))
        else:
            jets = {f"z{k}": draw(st.integers(0, 3)) for k in draw(st.sets(st.integers(0, JET_TOP),
                                                                          max_size=3))}
            jets["z1"] = draw(st.integers(-4, 4))
            term = {"sigma": [draw(st.integers(0, 3)), draw(st.integers(0, 2))], "jets": jets}
        num, den = draw(st.integers(-6, 6)), draw(st.integers(-6, 6).filter(bool))
        term["coef"] = draw(st.sampled_from([f"{num}/{den}", f"{num}"]))
        terms.append(term)
    return terms


@given(json_terms())
@settings(max_examples=150, deadline=None)
def test_json_reader_sums_terms(terms):
    """The reader sums the terms as JetPoly.monomial and JetPoly.sum do, with
    the same den."""
    want = JetPoly.sum([JetPoly.monomial(Q(*map(int, t["coef"].split("/"))), tuple(t["sigma"]),
                                         {int(name[1:]): e for name, e in t["jets"].items()})
                        for t in terms])
    got = jet_from_json(terms, JET_TOP)
    assert got == want and got.den == want.den


def canonical_order(key: tuple):
    """The module docstring's term order, on exponent tuples of one width."""
    return (key[0] + 3 * key[1], key[1], tuple(-e for e in key[:3:-1]), -key[3], -key[2])


@given(jet_polys())
@settings(max_examples=80, deadline=None)
def test_sorted_items_is_canonical_order(p):
    n = max([4] + [len(key) for key, _ in p.items()])
    want = sorted(((key + (0,) * (n - len(key)), c) for key, c in p.items()),
                  key=lambda kc: canonical_order(kc[0]))
    rows = sorted_items(p)
    assert [(key, Q(num, den)) for key, num, den in rows] == want
    assert all(Q(num, den).denominator == den for _, num, den in rows)


def test_json_schema_shape():
    p = JetPoly.monomial(Q(-1, 2), (1, 0), {1: -2, 3: 1})
    data = jet_json(p)
    assert data == [{"coef": "-1/2", "sigma": [1, 0], "jets": {"z1": -2, "z3": 1}}]


def test_latex_fraction_layout(h123):
    tex = jet_latex(h123[1].body)
    assert tex.startswith(r"\frac{1}{1152 z_1^2}")
    assert r"\sigma_1^2" in tex and r"\frac{\sigma_3}{34560}" in tex


def test_latex_braces_exponents_of_two_digits():
    p = JetPoly.monomial(Q(3, 7), (10, 0), {1: -12, 2: 11})
    assert jet_latex(p) == r"\frac{3 \sigma_1^{10}}{7 z_1^{12}}\,z_2^{11}"


def test_canonical_order_matches_printed_h2(h123):
    # highest jets first within ascending sigma grade
    text = jet_text(h123[1].body)
    assert text.index("z4") < text.index("z3") < text.index("z2^3")
    assert text.index("s1^3") < text.index("s3")


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text() | st.text(st.characters(max_codepoint=0x7f)))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@given(json_values, st.booleans())
@example({"z10": [], "z2": {}, "é\u2028": "\ud800\"\\\n\t\x00", "": [-0.0, 1e300, -7]}, True)
@example([float("nan"), float("inf"), -float("inf"), (1, (), [{}])], False)
@settings(max_examples=300, deadline=None)
def test_json_text_is_json_dumps(obj, sort_keys):
    assert json_text(obj, sort_keys) == json.dumps(obj, indent=1, sort_keys=sort_keys)


@st.composite
def wide_jet_polys(draw):
    """JetPolys with jets up to z11 (z10 sorts before z2 as a JSON key) and
    negative powers of z1; the zero poly among them."""
    p = JetPoly.zero()
    for _ in range(draw(st.integers(0, 4))):
        jets = {k: draw(st.integers(1, 3)) for k in draw(st.sets(st.integers(0, 11), max_size=4))}
        jets[1] = draw(st.integers(-4, 4))
        p = p + JetPoly.monomial(draw(coef), (draw(st.integers(0, 3)), draw(st.integers(0, 2))), jets)
    return p


@st.composite
def sigma_polys(draw):
    """JetPolys without jets, the shape of every Hodge table coefficient,
    with sigma exponents up to 12; the zero poly among them."""
    p = JetPoly.zero()
    for _ in range(draw(st.integers(0, 5))):
        p = p + JetPoly.monomial(draw(coef), (draw(st.integers(0, 12)), draw(st.integers(0, 12))), {})
    return p


def as_jet_json(obj):
    """obj with every JetPoly replaced by its jet_json list."""
    if isinstance(obj, JetPoly):
        return jet_json(obj)
    if isinstance(obj, dict):
        return {k: as_jet_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_jet_json(v) for v in obj]
    return obj


@given(st.recursive(json_scalars | wide_jet_polys() | sigma_polys(),
                    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
                        st.text(max_size=3), inner, max_size=3),
                    max_leaves=8), st.booleans())
@example(JetPoly.monomial(-3, (1, 2), {10: 2, 2: 1, 1: -3}), True)
@example({"b": [JetPoly.zero(), {"z10": JetPoly.z(10)}], "a": JetPoly.z(1, -2)}, False)
@example({"table": [{"indices": [2, 2], "coefficient": JetPoly.monomial(Q(-7, 12), (12, 0), {})
                                         + JetPoly.monomial(5, (3, 12), {})}]}, True)
@example([JetPoly.const(Q(1, 3)), JetPoly.monomial(2, (0, 12), {}) + JetPoly.one()], False)
@settings(max_examples=150, deadline=None)
def test_json_text_writes_a_jetpoly_as_its_jet_json(obj, sort_keys):
    assert json_text(obj, sort_keys) == json.dumps(as_jet_json(obj), indent=1, sort_keys=sort_keys)


def test_json_text_takes_str_keys_and_json_types_only():
    import pytest

    for obj in ({1: 2}, {"a": {(1,): 2}}, [object()], {1, 2}):
        with pytest.raises(TypeError):
            json_text(obj)


def test_json_reader_cap():
    """An |exponent| above the cap raises OverflowError; a cap past the
    slot edge is clipped to SLOT_HALF - 1, the largest a slot holds."""
    def z1(e):
        return [{"coef": "1/2", "sigma": [0, 0], "jets": {"z1": e}}]

    assert jet_from_json(z1(-4), 2, 4) == JetPoly.monomial(Q(1, 2), (0, 0), {1: -4})
    with pytest.raises(OverflowError):
        jet_from_json(z1(-5), 2, 4)
    edge = JetPoly.monomial(Q(1, 2), (0, 0), {1: 1 - SLOT_HALF})
    assert jet_from_json(z1(1 - SLOT_HALF), 2, 4 * SLOT_HALF) == edge
    with pytest.raises(OverflowError):
        jet_from_json(z1(-SLOT_HALF), 2, 4 * SLOT_HALF)
