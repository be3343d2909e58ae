"""muntzlab: numerics for weighted monomial systems on [0,1).

Moments of finite measures against huge exponents, diagonal-domination
profiles and the operator bounds they imply, closed-form norm constants,
exact truncated spectra of Carleson-type embeddings at p = 2, and the two
extremal constructions that separate boundedness and compactness across p.
"""
from .logdomain import LogValue
from .sequences import (Classification, ExponentSequence, classify,
                        decompose_quasi_lacunary, generate_geometric,
                        generate_recursive_power)
from .measures import (Atom, AtomicMeasure, DensityMeasure, Lebesgue, Restriction,
                       atoms, moments, poisson_integral, restrict, sublinear_norm)
from .dnp import (DnProfile, WeightScheme, compute_dn, decreasing_rearrangement,
                  operator_bounds)
from .bounds import (envelope_check, jlambda_upper, lemma31_bound,
                     point_eval_norm, r_epsilon)
from .lpnorm import (amgm_probe, gm_ratio_sample, l2_norm_gram, log_lp_norms,
                     pairing_integral)
from .hilbert import (ConditioningError, FrameBounds, SpectralResult,
                      embedding_spectrum, essential_norm_estimate, frame_bounds,
                      hs_criteria, prop511_value, t_mu_spectrum)
from .examples import ExampleInstance, build_example, check_example_claims

__version__ = "0.1.0"
