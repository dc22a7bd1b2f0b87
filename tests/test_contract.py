"""The error contract at the call sites of core's argument readers.

A malformed value raises ParameterError, a malformed matrix, file or pairing
StructureError, and a domain mismatch DimensionError (errors.py).  The table
gives each vector-valued call site the same kinds of malformed input; the
fuzz feeds generated values to the same sites.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from disttest.adversarial import Pairing
from disttest.core import Distribution, empirical_distribution, load_distribution
from disttest.errors import DimensionError, ParameterError, StructureError
from disttest.linprop import (
    LinearProperty, Polyhedron, build_feasibility_lp, linear_property_oracle, load_polyhedron, uniformity_polyhedron
)
from disttest.simplex import Triplets

NAN = math.nan
PROP = uniformity_polyhedron(4, 0.1)
ORACLE = linear_property_oracle(PROP)
# z >= 0 over two coordinates, so that [1.0, 0.0] is a member.
ORTHANT = Polyhedron([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])

# Each site: the calls that read one argument, and the error class they document.
SITES = {
    "H": (
        (
            lambda v: build_feasibility_lp(PROP, v, Distribution.uniform(4), 2, 0.5),
            lambda v: build_feasibility_lp(PROP, v, Distribution.uniform(4), 2, 0.5).met_by(PROP.member[:4]),
            lambda v: ORACLE(v, Distribution.uniform(4), 2, 0.5),
        ),
        ParameterError,
    ),
    "Pairing-L": ((Pairing,), StructureError),
    "strict-rows": ((lambda v: Polyhedron([[1.0], [-1.0]], [1.0, 0.0], strict_rows=v),), StructureError),
    "mass": ((lambda v: Distribution.uniform(4).mass(v),), ParameterError),
    "uniform_on": ((lambda v: Distribution.uniform_on(v, 4),), ParameterError),
    "samples": ((lambda v: empirical_distribution(v, 4),), ParameterError),
    "pmf": ((Distribution,), ParameterError),
    "member": ((lambda v: LinearProperty(ORTHANT, 2, member=v),), ParameterError),
    "Triplets-vals": ((lambda v: Triplets([0, 1], [0, 1], v, (2, 2)),), StructureError),
    "dense-A": ((Triplets.from_dense, lambda v: Polyhedron(v, [1.0])), StructureError),
    "Polyhedron-b": ((lambda v: Polyhedron([[1.0], [-1.0]], v),), StructureError),
    "Triplets-coords": (
        (lambda v: Triplets(v, [0, 1], [1.0, 2.0], (2, 2)), lambda v: Triplets([0, 1], v, [1.0, 2.0], (2, 2))),
        StructureError,
    ),
    "ball": (
        (
            lambda v: LinearProperty(ORTHANT, 2, member=[1.0, 0.0], ball=(0, v, [1, 0])),
            lambda v: LinearProperty(ORTHANT, 2, member=[1.0, 0.0], ball=(0, [0, 1], v)),
        ),
        ParameterError,
    ),
}

INDEX_SITES = ("H", "Pairing-L", "strict-rows", "mass", "uniform_on", "samples", "Triplets-coords", "ball")

# The malformed inputs of each kind.  Index sites take integers, so a
# fraction is malformed there; real sites take any real number, so a
# fraction is not, and their out-of-range value is an entry the site's own
# range refuses (a negative mass, an infinite coefficient).
INDEX_INPUTS = {
    "nested": [[0, 1]],
    "ragged": [[0, 1], [2]],
    "boolean": [True, False],
    "mixed-boolean": [True, 0],
    "fraction": [0.5, 1],
    "numeric-string": ["0", "1"],
    "nan": [0, NAN],
    "out-of-range": [-1, 2],
}
REAL_INPUTS = {
    "pmf": {
        "nested": [[0.5, 0.5]], "ragged": [[0.5], [0.25, 0.25]], "boolean": [True, False],
        "mixed-boolean": [True, 0.0], "numeric-string": ["0.5", "0.5"], "nan": [NAN, 1.0], "out-of-range": [-0.5, 1.5],
    },
    "member": {
        "nested": [[1.0, 0.0]], "ragged": [[1.0], [0.0, 0.0]], "boolean": [True, False],
        "mixed-boolean": [True, 0.0], "numeric-string": ["1", "0"], "nan": [NAN, 1.0], "out-of-range": [1.5, -0.5],
    },
    "Triplets-vals": {
        "nested": [[1.0, 1.0]], "ragged": [[1.0], [1.0, 2.0]], "boolean": [True, True],
        "mixed-boolean": [True, 2.0], "numeric-string": ["1", "2"], "nan": [1.0, NAN], "out-of-range": [1.0, math.inf],
    },
    "dense-A": {
        "nested": [[[1.0, 0.0]]], "ragged": [[1.0], [1.0, 2.0]], "boolean": [[True, False]],
        "mixed-boolean": [[True, 0.0]], "numeric-string": [["1", "0"]], "nan": [[NAN, 1.0]],
        "out-of-range": [[math.inf, 1.0]],
    },
    "Polyhedron-b": {
        "nested": [[1.0, 0.0]], "ragged": [[1.0], [0.0, 1.0]], "boolean": [True, False],
        "mixed-boolean": [True, 0.0], "numeric-string": ["1", "0"], "nan": [1.0, NAN], "out-of-range": [math.inf, 0.0],
    },
}
CASES = [(site, kind, value) for site in INDEX_SITES for kind, value in INDEX_INPUTS.items()] + [
    (site, kind, value) for site, inputs in REAL_INPUTS.items() for kind, value in inputs.items()
]

# One valid value per site: the table and the fuzz alter these.
VALID = {
    "H": {0, 1}, "Pairing-L": [0, 1, 2, 3], "strict-rows": [0], "mass": [0, 1], "uniform_on": [0, 1],
    "samples": [0, 1], "pmf": [0.5, 0.5], "member": [1.0, 0.0], "Triplets-vals": [1.0, 2.0],
    "dense-A": [[1.0, 0.0]], "Polyhedron-b": [1.0, 0.0], "Triplets-coords": [0, 1], "ball": [0, 1],
}


@pytest.mark.parametrize("site", SITES)
def test_valid_value_is_accepted(site):
    calls, _ = SITES[site]
    for call in calls:
        call(VALID[site])


@pytest.mark.parametrize("site, kind, value", CASES, ids=[f"{site}-{kind}" for site, kind, _ in CASES])
def test_malformed_input_raises_the_documented_class(site, kind, value):
    # Among these, the step-5 oracle took a nested H, strict rows that are
    # lists raised a bare TypeError, a ragged Triplets vals numpy's bare
    # ValueError, and a boolean or numeric-string pmf, member, vals, dense
    # matrix or b was read as numbers.  A boolean among numbers was read as
    # 1 at every site, strict rows and coordinates included, and ragged
    # coordinates raised numpy's bare ValueError.
    calls, error = SITES[site]
    for call in calls:
        with pytest.raises(error):
            call(value)


# A boolean inside a file field.  The loaders' own JSON checker refused
# these; they now reach the readers the constructors use.
FILE_CASES = {
    "pmf": ("distribution", {"n": 2, "pmf": [True, 0.0]}),
    "b": ("polyhedron", {"M": 1, "N": 2, "A": [1.0, 1.0], "b": [True]}),
    "dense-A": ("polyhedron", {"M": 1, "N": 2, "A": [True, 0.0], "b": [1.0]}),
    "rows": ("polyhedron", {"M": 2, "N": 2, "rows": [True, 0], "cols": [0, 1], "vals": [1.0, 1.0], "b": [1.0, 1.0]}),
    "vals": ("polyhedron", {"M": 2, "N": 2, "rows": [0, 1], "cols": [0, 1], "vals": [True, 1.0], "b": [1.0, 1.0]}),
}


@pytest.mark.parametrize("field", FILE_CASES)
def test_boolean_in_a_file_field_raises_structure_error(tmp_path, field):
    kind, doc = FILE_CASES[field]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StructureError):
        (load_distribution if kind == "distribution" else load_polyhedron)(path)


def test_non_numeric_vals_raise_structure_error():
    # numpy's bare ValueError ("could not convert string to float").
    with pytest.raises(StructureError, match="real numbers"):
        Triplets([0], [0], ["a"], (1, 1))


SCALARS = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([2**63, -(2**63) - 1, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.fractions(max_denominator=4),
    st.sampled_from(["0", "1.5", "nan", "a", ""]),
    st.none(),
)
MALFORMED = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner), max_leaves=6
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(site=st.sampled_from(sorted(SITES)), value=MALFORMED)
def test_fuzzed_values_give_a_result_or_a_contract_error(site, value):
    calls, _ = SITES[site]
    for call in calls:
        try:
            call(value)
        except (ParameterError, StructureError, DimensionError):
            pass
