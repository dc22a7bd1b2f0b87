"""Exception types shared across the package, and the error contract they carry.

Every public function and constructor that takes data raises one of three
classes on malformed input, never a bare numpy or Python exception:

- :class:`ParameterError` for a bad value: a number outside its range, a
  boolean, fraction, string or nan where an integer is due, a non-number
  where a real is due, an index outside its domain;
- :class:`StructureError` for a malformed composite: a matrix, polyhedron,
  pairing or file;
- :class:`DimensionError` for two objects that must live on one domain and
  do not, such as an oracle and a distribution of different sizes.

Arguments are read by the readers in :mod:`disttest.core`: ``_integer``
and ``_real`` for a scalar, ``_integers`` for a flat collection of integers
with its bounds, and ``_reals`` for a real vector or matrix.  The scalar
readers raise :class:`ParameterError`, and the two vector readers the class
their caller names, so that a call site that documents
:class:`StructureError` raises that.  Every collection is read through
``_numbers`` first, which refuses a boolean among other entries before
numpy reads it as 1.  Every integer range is a bound in a reader call,
a sparse matrix's shape included.  The only hand-written integer checks
left are two dtype gates, each with its reason at the site: on the row
indices of a property's ball and on the coordinates of a sparse matrix,
both of which refuse integral floats that ``_integers`` reads as
integers.  The ball's range then goes through ``_integers``; the
coordinates' range stays inline with their gate, on the step-5 path of
every tester call, where the reader would cost more.
:class:`SolverError` is not a contract error: it reports a solver that
failed on well-formed input.  The CLI exits with status 2 and one
``error:`` line on a :class:`ParameterError` or :class:`StructureError`.
"""


class DimensionError(ValueError):
    """Two objects that must live on the same domain do not."""


class ParameterError(ValueError):
    """An argument is outside its documented range."""


class StructureError(ValueError):
    """A composite object (file, pairing, polyhedron) is malformed."""


class SolverError(RuntimeError):
    """The feasibility solver failed to converge.

    Carries a short digest of the offending instance so failing runs can be
    reproduced from batch logs.
    """

    def __init__(self, message: str, digest: str = ""):
        super().__init__(f"{message} [instance {digest}]" if digest else message)
        self.digest = digest
