"""Joint finite-mixture model of longitudinal ordinal responses and survival times.

Latent groups carry a shared effect that enters an ordered stereotype model
for the questionnaire responses and a Cox proportional-hazards model for the
failure times.  Fitting maximizes the profile likelihood, with the
nonparametric baseline hazard and the group posteriors profiled out, by
quasi-Newton ascent from an EM step; standard errors come from the
empirical efficient information.
"""

from types import ModuleType as _ModuleType

from .data import DataError, PackedData, ResponseSet, SubjectRecord, SurvivalRecord
from .em import (DegenerateSubjectError, EMConfig, FitResult, MStepError, Posterior,
                 e_step, em_fit, m_step_theta, relabel_ascending)
from .inference import (ContractionCheck, DirectionStat, IdentityCheck, InfoMatrix,
                        SingularInformationError, contraction_check, default_directions,
                        efficient_score_equivalence, fixed_point_posterior,
                        info_identity_check, information_matrix, mean_profile_score,
                        orthogonality_check, score_matrix, standard_errors)
from .ordinal import OrdinalParams
from .params import ModelParams, ParamLayout
from .simulation import (ConstantBaseline, ExponentialCensoring, MCReport, NoCensoring,
                         NormalCovariate, PiecewiseConstantBaseline, SimDesign, TwoPointCovariate,
                         UniformCensoring, default_design, generate_dataset, mc_normality)
from .survival import EmptyRiskSetError, HazardSteps, RiskSetTables, SurvivalParams

__version__ = "0.1.0"

# the submodules are bound here by the imports above; they are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
