"""Public service-layer API of the repro package.

This is the documented entry point for *using* the imputation system (as
opposed to reproducing the paper's experiment grids, which is
:mod:`repro.evaluation`).  Three levels of ceremony:

One-liner — fit and impute in a single call::

    from repro import api

    completed = api.impute(incomplete_tensor, method="deepmvi")

Fit once, serve many — the workflow the paper's model is built for::

    service = api.ImputationService()
    model_id = service.fit(training_tensor, method="deepmvi")
    result = service.impute(api.ImputeRequest(model_id=model_id,
                                              data=new_scenario))

Batched serving — queue requests and micro-batch them per model::

    for scenario in scenarios:
        service.submit(api.ImputeRequest(model_id=model_id, data=scenario))
    results = service.gather()      # one model load, N imputations

Methods resolve through the capability-aware plugin registry
(:mod:`repro.baselines.registry`): discover them with
:func:`list_methods` / :func:`list_method_infos`, add your own with the
:func:`register_imputer` decorator.
"""

from repro.api.refs import ModelRef, check_model_id
from repro.api.requests import (
    FitRequest,
    ImputeRequest,
    ImputeResult,
    tensor_from_dict,
    tensor_to_dict,
)
from repro.api.model_cache import LRUModelCache
from repro.api.telemetry import MetricsSnapshot
from repro.api.versioning import VersionRegistry
from repro.api.service import (
    DirectoryBackend,
    ImputationService,
    ModelStore,
    ServingBackend,
    as_tensor,
    impute,
    make_imputer,
)
from repro.baselines.registry import (
    MethodInfo,
    get_registry,
    list_method_infos,
    list_methods,
    method_info,
    register_imputer,
)

__all__ = [
    "DirectoryBackend",
    "FitRequest",
    "ImputationService",
    "ImputeRequest",
    "ImputeResult",
    "LRUModelCache",
    "MethodInfo",
    "MetricsSnapshot",
    "ModelRef",
    "ModelStore",
    "ServingBackend",
    "VersionRegistry",
    "as_tensor",
    "check_model_id",
    "get_registry",
    "impute",
    "list_method_infos",
    "list_methods",
    "make_imputer",
    "method_info",
    "register_imputer",
    "tensor_from_dict",
    "tensor_to_dict",
]
