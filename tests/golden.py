"""Frozen reference expressions for the low-genus free energies and gap data,
the parser that reads the sigma ones back, and the sigma grading of a
polynomial over Q[s1, s3]."""
from cubichodge.jets import JetPoly
from cubichodge.textform import parse_jet


def parse_sigma(text: str) -> JetPoly:
    """A polynomial over Q[s1, s3] from its canonical text: a JetPoly that
    must carry no jets."""
    p = parse_jet(text)
    if not p.is_jet_free():
        raise ValueError(f"{text!r} carries jets")
    return p


def sigma_degrees(p: JetPoly) -> set:
    """The term degrees of a JetPoly without jets, deg s1 = 1, deg s3 = 3."""
    return p.weighted_degrees(lambda k: 0, s1_weight=1, s3_weight=3)


def sigma_part(p: JetPoly, d: int) -> JetPoly:
    """The terms of p of sigma degree d."""
    return JetPoly({k: c for k, c in p.items() if k[0] + 3 * k[1] == d})


H1_TEXT = "(1/24)*log(z1) + (1/24)*s1*z0"

H2_TEXT = (
    "(1/1152)*z1^-2*z4 - (7/1920)*z1^-3*z2*z3 + (1/360)*z1^-4*z2^3"
    " + (1/480)*s1*z1^-1*z3 - (11/5760)*s1*z1^-2*z2^2 + (7/5760)*s1^2*z2"
    " + (1/17280)*s1^3*z1^2 - (1/34560)*s3*z1^2"
)

# 36 monomials of the genus-3 free energy
H3_TEXT = (
    "(1/82944)*z1^-3*z7"
    " - (7/46080)*z1^-4*z2*z6"
    " - (53/161280)*z1^-4*z3*z5"
    " + (353/322560)*z1^-5*z2^2*z5"
    " - (103/483840)*z1^-4*z4^2"
    " + (1273/322560)*z1^-5*z2*z3*z4"
    " - (83/15120)*z1^-6*z2^3*z4"
    " + (59/64512)*z1^-5*z3^3"
    " - (83/7168)*z1^-6*z2^2*z3^2"
    " + (59/3024)*z1^-7*z2^4*z3"
    " - (5/648)*z1^-8*z2^6"
    " + (7/138240)*s1*z1^-2*z6"
    " - (383/967680)*s1*z1^-3*z2*z5"
    " + (41/580608)*s1^2*z1^-1*z5"
    " - (689/967680)*s1*z1^-3*z3*z4"
    " + (185/96768)*s1*z1^-4*z2^2*z4"
    " - (373/1451520)*s1^2*z1^-2*z2*z4"
    " + (23/580608)*s1^3*z4 - (11/2903040)*s3*z4"
    " + (869/322560)*s1*z1^-4*z2*z3^2"
    " - (61/322560)*s1^2*z1^-2*z3^2"
    " - (9343/1451520)*s1*z1^-5*z2^3*z3"
    " + (151/207360)*s1^2*z1^-3*z2^2*z3"
    " - (19/1451520)*s1^3*z1^-1*z2*z3 + (19/2903040)*s3*z1^-1*z2*z3"
    " + (131/45360)*s1*z1^-6*z2^5"
    " - (19/53760)*s1^2*z1^-4*z2^4"
    " + (41/4354560)*s1^4*z1*z3 - (41/8709120)*s1*s3*z1*z3"
    " + (1/108864)*s1^3*z1^-2*z2^3 - (1/217728)*s3*z1^-2*z2^3"
    " + (31/4354560)*s1^4*z2^2 - (31/8709120)*s1*s3*z2^2"
    " - (1/13063680)*s1^6*z1^4 + (1/13063680)*s1^3*s3*z1^4 - (1/52254720)*s3^2*z1^4"
)

R2_TEXT = "-(1/1440) + (13/5760)*s1 - (7/5760)*s1^2 + (1/17280)*s1^3 - (1/34560)*s3"

R3_TEXT = (
    "(1/181440) - (107/362880)*s1 + (145/290304)*s1^2 - (961/4354560)*s1^3"
    " + (31/2177280)*s3 + (113/4354560)*s1^4 - (113/8709120)*s1*s3"
    " - (1/13063680)*s1^6 + (1/13063680)*s1^3*s3 - (1/52254720)*s3^2"
)

FABER2_TEXT = "(1/17280)*s1^3 - (1/34560)*s3"

FABER3_TEXT = "-(1/13063680)*s1^6 + (1/13063680)*s1^3*s3 - (1/52254720)*s3^2"
