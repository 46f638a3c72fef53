"""Hypothesis strategies for map models, shared by the property tests."""
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


map_models = st.one_of(builtin_maps, polynomial_maps, piecewise_linear_maps())
