"""Linear properties, slack linearization, and the HiGHS feasibility seam.

Run with:  python3 demos/03_lp_feasibility.py
"""

import numpy as np

from disttest import Distribution, Polyhedron, build_feasibility_lp, lp_feasible, uniformity_polyhedron
from disttest.linprop import feasibility_report
from disttest.tester import HighEstimate

# Any system Ax <= b can be decided directly.
box = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0]))
print(f"triangle x,y >= 0, x+y <= 1 feasible: {lp_feasible(box)}")

impossible = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
report = feasibility_report(impossible)
print(f"z <= 0 and z >= 1 feasible: {report.feasible} "
      f"(least total violation {report.violation:.3f})\n")

# A linear property is a polyhedron projected to its first n coordinates.
# The approximate-uniformity property uses one slack per coordinate to encode
# |z_i - 1/n| and caps the slack total at eps.  Every variable's sign is a
# lower bound of 0, not a row.
n = 4
prop = uniformity_polyhedron(n, eps=0.1)
print(f"within-0.1-of-uniform over [{n}]: "
      f"M = {prop.poly.M} rows, N = {prop.poly.N} variables, "
      f"{np.isfinite(prop.poly.lower).sum()} lower bounds")
print(f"  uniform in property:   {prop.contains(Distribution.uniform(n))}")
print(f"  (1,0,0,0) in property: {prop.contains(Distribution.point_mass(n, 0))}\n")

# The tester's step-5 question bolts the surrogate-distance constraints onto
# the property: one slack per estimated-heavy element, a tail slack, and a
# cap on every other coordinate.
d_tilde = Distribution(np.array([0.7, 0.1, 0.1, 0.1]))
est = HighEstimate(H=frozenset({0}), d_tilde=d_tilde, low_mass=0.3)
exact_uniform = uniformity_polyhedron(n, eps=0.0)
inst = build_feasibility_lp(exact_uniform, est.H, d_tilde, q=10, bound=0.2)
print(f"step-5 instance: {inst.poly.M} rows over {inst.poly.N} variables")
print(f"is some exactly-uniform distribution compatible with the 0.7 spike? "
      f"{lp_feasible(inst)}")
print("(no: the surrogate is 0.9 away on the combined metric, over the 0.2 budget)")
