"""Hypothesis strategies for map models, shared by the property tests."""
from hypothesis import strategies as st

import chaosrng as cr

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


map_models = st.one_of(
    st.sampled_from(sorted(cr.maps.BUILTIN_MAPS)).map(lambda name: cr.maps.BUILTIN_MAPS[name]()),
    polynomial_maps,
    piecewise_linear_maps(),
)
