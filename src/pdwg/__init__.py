"""Primal-dual weak Galerkin solver for 2D elliptic equations in
non-divergence form.

The package discretizes ``sum_ij a_ij(x) d2u/dx_i dx_j = f`` with
Dirichlet boundary data on triangulated polygons, using weak-Hessian
test spaces, an edge stabilizer, and an element-wise Lagrange
multiplier.  See :mod:`pdwg.analysis` for convergence studies and
:mod:`pdwg.cli` for the batch front end.

Every name in a library module's ``__all__`` is re-exported here; that
list is the one record of the public API.
"""

from . import analysis, assembly, mesh, polyquad, problems, solver, wgspace
from .analysis import *
from .assembly import *
from .mesh import *
from .polyquad import *
from .problems import *
from .solver import *
from .wgspace import *

__version__ = "0.1.0"

__all__ = ["__version__", *analysis.__all__, *assembly.__all__, *mesh.__all__, *polyquad.__all__,
           *problems.__all__, *solver.__all__, *wgspace.__all__]
