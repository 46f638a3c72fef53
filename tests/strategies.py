"""Hypothesis strategies for map models, shared by the property tests."""
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

import chaosrng as cr
from chaosrng.maps import MapConfigError

builtin_maps = st.sampled_from(sorted(cr.maps.BUILTIN_MAPS)).map(lambda name: cr.maps.BUILTIN_MAPS[name]())

#: polynomials of degree 0 to 5, evaluated as polynomial configs are, as maps
#: without branches: most leave [0, 1], which ``polynomial_map`` rejects, and
#: so test the callers' clamp
polynomial_maps = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6).map(
    lambda c: cr.MapModel(name="polynomial", raw_eval=cr.maps._horner(c), branches=())
)


@st.composite
def piecewise_linear_maps(draw):
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=5, unique=True))
    xs = [0.0, *sorted(inner), 1.0]
    values = st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs))
    # adjacent values differ: every segment is a strictly monotone branch
    ys = draw(values.filter(lambda v: all(a != b for a, b in zip(v, v[1:]))))
    return cr.piecewise_linear_map(xs, ys)


@st.composite
def polynomial_configs(draw):
    """Polynomial configs that ``polynomial_map`` accepts: a scaled logistic
    map with its critical point, or a mix of powers of x, perhaps reflected,
    split at up to two points where its slope does not vanish."""
    if draw(st.booleans()):
        a = draw(st.floats(0.01, 1.0))
        return cr.polynomial_map([0.0, 4.0 * a, -4.0 * a], [0.5])
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(lambda w: sum(w) > 0))
    top = draw(st.floats(0.01, 1.0))
    coeffs = [0.0, *(top * v / sum(w) for v in w)]
    if draw(st.booleans()):
        coeffs = [1.0, *(-c for c in coeffs[1:])]
    cuts = draw(st.lists(st.floats(0.01, 0.99), max_size=2, unique=True))
    try:
        return cr.polynomial_map(coeffs, cuts)
    except MapConfigError:  # cuts so close that the map is flat between them, or a negligible leading term
        assume(False)


@st.composite
def lattice_maps(draw):
    """(breakpoints, values, cut) of a piecewise-linear Markov map: for q in
    3..10 every k/q is a breakpoint, every value lies on the lattice with no
    flat segment, and the cut is an inner lattice point.  Each lattice
    interval then maps onto a union of lattice intervals, with transition
    matrix P.  A map whose P is not primitive (not mixing) is rejected, and
    so is one whose second eigenvalue has modulus above 0.9: the operator's
    iterates converge at that rate.  At 0.98 ``fp_fixed_point`` took 1456
    iterations to an L1 change of 1e-13, and the count grows like
    1/(1 - modulus), past its default 2000 near 0.99."""
    q = draw(st.integers(3, 10))
    # a primitive P needs an onto map: the values 0 and q at two drawn places
    ends = dict(zip(draw(st.lists(st.integers(0, q), min_size=2, max_size=2, unique=True)), (0, q)))
    a = []
    for k in range(q + 1):  # no value equals its neighbour's
        taken = {a[-1] if a else -1, ends.get(k + 1, -1)}
        a.append(ends[k] if k in ends else draw(st.sampled_from([v for v in range(q + 1) if v not in taken])))
    P = np.zeros((q, q))
    for k, (u, v) in enumerate(zip(a, a[1:])):
        P[k, min(u, v) : max(u, v)] = 1.0 / abs(u - v)
    reach = step = P > 0
    for _ in range((q - 1) ** 2):  # primitive iff its ((q - 1)^2 + 1)-th power is positive (Wielandt)
        reach = reach @ step
    assume(reach.all() and np.sort(np.abs(np.linalg.eigvals(P)))[-2] <= 0.9)
    return [k / q for k in range(q + 1)], [v / q for v in a], draw(st.integers(1, q - 1)) / q


map_models = st.one_of(builtin_maps, polynomial_maps, piecewise_linear_maps())
