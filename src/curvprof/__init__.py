"""Scale-indexed sectional-curvature profiles of finite metric spaces.

The toolkit measures how far a graph or point cloud deviates from tree-like
geometry: for equilateral vertex triples at every scale it computes the
ball-expansion factor rho in [1, 2] (1 = tree, 2/sqrt(3) = plane,
2 = circle), aggregates the (r, rho) distribution into a curvature profile,
and compares profiles by exact 1-Wasserstein distance - which also yields
an intrinsic-dimension estimate by scanning embedding dimensions.
"""

import os

# set before numpy loads: a second OpenBLAS thread makes the small eigh and
# matmul calls of MDS up to 100x dearer in CPU; a user's own setting wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .embed import classical_mds, isomap
from .generate import (
    circle_arc_metric,
    circle_sample,
    dla_tree,
    erdos_renyi,
    gaussian_isometric,
    plane_sample,
    tree_graph,
    watts_strogatz,
)
from .graphs import (
    PointCloud,
    adaptive_graph,
    epsilon_graph,
    knn_graph,
    load_input,
)
from .metric import (
    DistanceMatrix,
    EmptyResultError,
    Graph,
    InputError,
    distance_matrix_from_array,
    gromov_products,
    lambda_measure,
    load_edge_list,
    shortest_path_matrix,
)
from .profile import (
    RHO_CIRCLE,
    RHO_PLANE,
    RHO_TREE,
    build_profile,
    cluster_sample_subset,
    find_equilateral_triples,
    load_profile_json,
    profile_from_dict,
    rho_general,
    rho_minmax,
    save_profile_json,
)
from .transport import (
    GridSpec,
    ProfileDistribution,
    estimate_dimension,
    to_distribution,
    wasserstein1,
)

__version__ = "0.1.0"
