"""The package's public names: every module's ``__all__``, re-exported once."""

import importlib
import pkgutil

import ecir

# file formats and the command line are imported by name, not re-exported
NOT_REEXPORTED = {"io", "cli"}

# the names ``import ecir`` offered when the package listed them by hand
EARLIER_NAMES = {
    "BlurryFrame", "DivergenceError", "Event", "EventHistogram", "EventStream",
    "ExposureInterval", "IntensityPoly", "KeypointSet", "LossConfig", "MonomialPoly",
    "PolyGrid", "RefineProblem", "SharpVideo", "SingularBasisError", "ThresholdConfig",
    "default_step", "descend", "edi_reconstruct", "edi_video", "eval_derivative",
    "eval_primitive", "fit_polys", "gradient", "keypoint_grid", "lagrange_basis",
    "loss_derivative", "loss_primitive", "loss_refinement", "loss_residual", "loss_total",
    "mse", "objective", "pivots", "polarity", "psnr", "refine", "render_frame",
    "select_keypoints", "signed_count_between", "simulate_events", "solve_constant", "ssim",
    "surrogate_residuals", "synthesize_blur", "to_monomial", "tridiagonal_solve", "voxelize",
}


def public_modules():
    names = (m.name for m in pkgutil.iter_modules(ecir.__path__) if not m.name.startswith("_"))
    return [importlib.import_module(f"ecir.{name}") for name in sorted(set(names) - NOT_REEXPORTED)]


def test_all_is_the_union_of_the_modules_lists():
    modules = public_modules()
    assert [m.__name__ for m in modules] == [
        "ecir.fitting", "ecir.keypoints", "ecir.metrics", "ecir.refinement",
        "ecir.representation", "ecir.simulation", "ecir.types",
    ]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union)), "a name is public in two modules"
    assert ecir.__all__ == sorted(union)


def test_every_name_resolves_to_its_modules_object():
    for module in public_modules():
        for name in module.__all__:
            assert getattr(ecir, name) is getattr(module, name), name


def test_earlier_names_still_importable():
    assert EARLIER_NAMES <= set(ecir.__all__)
    assert set(ecir.__all__) - EARLIER_NAMES == {"key_groups", "window_counts"}
    namespace = {}
    exec("from ecir import *", namespace)
    assert EARLIER_NAMES <= set(namespace)
