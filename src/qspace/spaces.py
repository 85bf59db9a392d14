"""The two position spaces, the extended braided line and the extended 3d
q-deformed Euclidean space, each defined once.

Three literals define them: the coordinate generators in the standard
normal ordering, the index label of each generator suffix, and the power of
q relating a hatted spatial derivative to the plain one.  Every other
per-space table of the package is derived from these at import, among them
GRADE, the weight (time degree, spatial degree, charge) that every rewrite
rule keeps and that decides which pairings can be nonzero.  A table
keyed by space name raises ValueError for any other name.  A fourth literal
names the four one-sided calculi the spaces carry.  Besides the data, the
module holds check_option, the one check of a string option against its
table; it imports nothing from the package.
"""

from __future__ import annotations

LINE = "line"
E3 = "euclid3"


class SpaceTable(dict):
    """A dict keyed by space name; looking up any other name raises
    ValueError instead of KeyError."""

    __slots__ = ()

    def __missing__(self, name):
        raise ValueError(f"unknown space {name!r}")


def check_option(what, value, table):
    """Raise ValueError("unknown <what> '<value>'") unless value is in
    table.  Every string option is checked so, before any work."""
    if value not in table:
        raise ValueError(f"unknown {what} {value!r}")


# -- the literals -------------------------------------------------------------

# coordinate generators in the standard normal ordering
X_TOKENS = SpaceTable({LINE: ("x0", "x1"), E3: ("x0", "xp", "x3", "xm")})
# generator suffix -> index label, where they differ; the suffixes of this
# map are the two an index swap under the +/- mirror exchanges
SUFFIX_LABEL = {"p": "+", "m": "-"}
# hatted spatial derivative = q^k times the plain one
HAT_POWER = SpaceTable({LINE: 1, E3: 6})
# the four one-sided calculi: the plain and the hatted calculus, each acting
# from the left and from the right.  Action mode -> (hatted, acts from the
# right, q-exponential, translation, integration geometry); translations and
# geometries read L/Lbar the other way round
CALCULI = {
    "left": (False, False, "x_d", "Lbar", "L"),
    "left_bar": (True, False, "x_dhat", "L", "Lbar"),
    "right": (True, True, "dhat_x", "R", "R"),
    "right_bar": (False, True, "d_x", "Rbar", "Rbar"),
}

# -- derived tables -----------------------------------------------------------

SPACES = tuple(X_TOKENS)


# the reversed ordering: time first, then the spatial coordinates backwards
# (the line has one spatial coordinate, so both orderings agree there)
REVERSED = SpaceTable({s: xs[:1] + xs[:0:-1] for s, xs in X_TOKENS.items()})
# the stored derivative order: the derivative tags of the reversed ordering
D_TOKENS = SpaceTable({s: tuple("d" + x[1:] for x in xs) for s, xs in REVERSED.items()})
# the hatted basis order: the derivative tags of the standard ordering
HAT_D_TOKENS = SpaceTable({s: tuple("d" + x[1:] for x in xs) for s, xs in X_TOKENS.items()})
# the spatial derivatives, in the standard ordering
SPATIAL_D = SpaceTable({s: ds[1:] for s, ds in HAT_D_TOKENS.items()})
# the exponent-key layout of the stored normal form
KEY_LAYOUT = SpaceTable({s: X_TOKENS[s] + D_TOKENS[s] for s in SPACES})
# generator tag -> printed name: capitalized coordinates, derivatives as is
PRINT_NAMES = SpaceTable({
    s: {**{x: "X" + x[1:] for x in X_TOKENS[s]}, **{d: d for d in HAT_D_TOKENS[s]}}
    for s in SPACES
})
# coordinate tag -> the name of its y-leg in a doubled variable set
Y_OF = {x: "y" + x[1:] for s in SPACES for x in X_TOKENS[s]}

# generator tag -> index label, for the coordinates and the derivatives
LABEL_OF = {t: SUFFIX_LABEL.get(t[1:], t[1:])
            for s in SPACES for t in X_TOKENS[s] + HAT_D_TOKENS[s]}
# the index labels in the standard ordering
LABELS = SpaceTable({s: tuple(LABEL_OF[x] for x in xs) for s, xs in X_TOKENS.items()})
# index label -> derivative tag, in the standard ordering
D_OF_LABEL = SpaceTable({s: {LABEL_OF[d]: d for d in ds} for s, ds in HAT_D_TOKENS.items()})

# the +/- mirror: generator tag -> its image and index label -> its image;
# a tag or label missing from a map is its own image
_MIRROR = dict(zip(SUFFIX_LABEL, reversed(SUFFIX_LABEL)))
PM_SWAP = {t: t[0] + _MIRROR[t[1:]] for t in LABEL_OF if t[1:] in _MIRROR}
PM_LABEL_SWAP = {SUFFIX_LABEL[a]: SUFFIX_LABEL[b] for a, b in _MIRROR.items()}

# action mode -> (base sign, +/- mirror): the substitution rules
# (+/-, q) -> (-/+, 1/q) that carry the plain left calculus to the mode's.
# The hatted calculus takes the inverse bases, and the mirror holds for the
# hatted left and the plain right mode
SUBSTITUTION = {mode: (-1 if row[0] else 1, row[0] != row[1]) for mode, row in CALCULI.items()}

# generator tag -> its grade (time degree, spatial degree, charge).  A
# coordinate weighs one in its degree, with the charge of its index label
# ('+' -> 1, '-' -> -1, else 0); a derivative weighs minus the coordinate it
# pairs with; the scaling operator, which no table here names, weighs 0.
# Every rewrite rule keeps the grade and the counit keeps only grade 0, so a
# derivative word pairs to zero with a coordinate word unless their grades
# sum to zero
_CHARGE = {label: (-1) ** i for i, label in enumerate(SUFFIX_LABEL.values())}
GRADE = {
    t: tuple(sign * w for w in (int(i == 0), int(i > 0), _CHARGE.get(LABEL_OF[x], 0)))
    for s in SPACES
    for i, x in enumerate(X_TOKENS[s])
    for t, sign in ((x, 1), (HAT_D_TOKENS[s][i], -1))
}
