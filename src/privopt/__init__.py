"""Locally private convex risk minimization.

Gradient-perturbation channels with exact unbiasedness and privacy
certificates, the matching stochastic optimizers, information-theoretic
certification tools, and a desk-scale experiment harness.
"""

__version__ = "0.1.0"

from .geometry import NormBall, project_l2_ball
from .losses import LossFn, DataDist, RiskSpec, make_loss, subgrad, risk_value, risk_minimizer, separation
from .channels import Channel, PrivacyCertificate, make_channel, channel_from_json, channel_to_json, eps_star, worst_case_mi
from .information import DiscreteDist, InfoReport, mutual_information_exact, certify_channel
from .optimizers import OptimizerConfig, OptimizerRun, mirror_descent_l1, sgd_l2, step_size_for
from .protocol import PrivateGradStream, audit_leakage
from .minimax import BoundSpec, TestingInstance, lower_bound, upper_bound, fano_bound
from .lp_oracle import DpLpInstance, DpLpSolution, solve_dp_lp

__all__ = [
    "NormBall",
    "project_l2_ball",
    "LossFn",
    "DataDist",
    "RiskSpec",
    "make_loss",
    "subgrad",
    "risk_value",
    "risk_minimizer",
    "separation",
    "Channel",
    "PrivacyCertificate",
    "make_channel",
    "channel_from_json",
    "channel_to_json",
    "worst_case_mi",
    "DiscreteDist",
    "InfoReport",
    "mutual_information_exact",
    "certify_channel",
    "OptimizerConfig",
    "OptimizerRun",
    "mirror_descent_l1",
    "sgd_l2",
    "step_size_for",
    "PrivateGradStream",
    "audit_leakage",
    "BoundSpec",
    "TestingInstance",
    "lower_bound",
    "upper_bound",
    "fano_bound",
    "DpLpInstance",
    "DpLpSolution",
    "solve_dp_lp",
    "eps_star",
]
