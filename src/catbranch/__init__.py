"""
catbranch: simulation and statistical verification of catalytic branching
genealogies.

The package has three layers:

* exact combinatorics — family forests as real trees (`forest`), the
  forest/excursion codec (`contour`), and level point processes (`points`);
* simulators — the exact two-type particle model (`particle`) and
  the diffusion-scale objects (`diffusion`);
* verification — closed-form laws and statistical tests (`oracles`) wired
  into named Monte Carlo suites (`harness`), driven by the `catbranch` CLI.
"""

from .errors import InputError, PopulationCapError
from .forest import (FamilyForest, TreePoint, gh_distance_bounds,
                     random_binary_forest)
from .contour import Excursion, contour_from_forest, excise_above, tree_from_excursion
from .points import (GenealogicalPointProcess, excursion_depths_below_level,
                     pairwise_level_distances, point_process_at_level,
                     reconstruct_distance_matrix)
from .particle import (MassPath, SimConfig, simulate_catalyst, simulate_joint,
                       simulate_reactant_quenched, stopping_time)
from .diffusion import (DiffusionPath, ScaleFunction, SDEConfig,
                        bridge_refined_depths, hitting_race,
                        integrate_catalytic_feller, local_time_estimate,
                        quadratic_variation, scale_function,
                        simulate_limit_contour, simulate_random_evolution)
from .oracles import (OracleReport, hitting_probability, ks_test,
                      laplace_branching, oracle_extinction_prob,
                      oracle_mrca_cdf, oracle_reactant_intensity,
                      poisson_count_test,
                      stretch_map, stretch_map_inverse)
from .harness import SUITES, run_suites

__version__ = "0.1.0"
