"""Feature selection toolkit built around grouped subset modeling.

The package couples plug-in discrete information estimates with a
least-squares reconstruction of the label from each whole subset of
features, so that subsets can be scored against the label, then ranks
candidates by relevance plus modeled synergy. Classic pairwise
criteria, synthetic benchmark generators, an evaluation harness, and a
CLI round it out.
"""

__version__ = "0.1.0"

from .data import (CATEGORICAL, CONTINUOUS, DataError, DataTable,
                   DiscretizedView, discretize, load_csv, write_csv)
from .infotheory import (EstimatorError, conditional_entropy,
                         conditional_mutual_information, entropy,
                         joint_codes, joint_entropy, mutual_information)
from .criteria import (CMIM, JMI, KINDS, MIFS, MIM, MRMR, SPECCMI_GREEDY,
                       Criterion, CriterionError, SelectionResult,
                       score_candidate, select_greedy)
from .synth import (HeteroModelSpec, TreeModelSpec, gen_hetero, gen_tree)
from .hofs import (HofsConfig, HofsError, SelectionTrace, StepRecord,
                   Subset, SubsetPartition, accumulate_partition,
                   assign_subset, hofs_score, partition_correlation,
                   r_balance, run_hofs)
from .eval import (EvalError, LinearModel, cross_validate, error_rate,
                   global_mi, information_gain_curve, predict, train_linear)

__all__ = [name for name in dir() if not name.startswith("_")]
