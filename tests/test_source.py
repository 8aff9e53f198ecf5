"""Facts about fixiter's source text that hold in every module."""

import ast
import types
from pathlib import Path

import fixiter

SOURCE = Path(fixiter.__file__).parent


def test_no_module_has_an_assert_statement():
    # python -O strips every assert, so one that guards control flow becomes a
    # crash further on: a condition the code relies on raises a FixiterError.
    found = [f"{path.relative_to(SOURCE)}:{node.lineno}" for path in sorted(SOURCE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Assert)]
    assert found == []


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _per_n_reads(node, exempt=False, looped=False):
    """The lines of the ``.at(`` calls under ``node`` that sit inside a loop or a
    comprehension, each with whether it is inside ``_Memo._in_order``."""
    if isinstance(node, ast.ClassDef) and node.name == "_Memo":
        for child in node.body:
            yield from _per_n_reads(child, isinstance(child, ast.FunctionDef) and child.name == "_in_order")
        return
    if looped and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at":
        yield node.lineno, exempt
    for child in ast.iter_child_nodes(node):
        yield from _per_n_reads(child, exempt, looped or isinstance(node, _LOOPS))


def test_schedules_are_read_per_n_only_inside_schedule_values():
    # A run of n is read as one array where the schedule has an array form, and
    # else by the one loop over at(n), _Memo._in_order, which Schedule.values
    # falls back to and a run's reader reads through; a loop over at(n)
    # elsewhere reads per n again.  A checked step takes its weight as memo[n]
    # from the run's reader, which reads each n from the schedule once.
    found = [(f"{path.relative_to(SOURCE)}:{line}", exempt) for path in sorted(SOURCE.rglob("*.py"))
             for line, exempt in _per_n_reads(ast.parse(path.read_text(), str(path)))]
    assert [place for place, exempt in found if not exempt] == []
    assert sum(exempt for _, exempt in found) == 1


# The one function allowed to construct each theorem-check type.
_VERDICT_BUILDERS = {"CheckResult": "_at_most", "TheoremReport": "_report"}


def _stated_verdicts(node, function=None):
    """The lines of the ``CheckResult(`` and ``TheoremReport(`` calls under
    ``node`` made outside the one helper that builds each."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        function = getattr(node, "name", "<lambda>")
    if isinstance(node, ast.Call):
        called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if called in _VERDICT_BUILDERS and function != _VERDICT_BUILDERS[called]:
            yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _stated_verdicts(child, function)


def test_theorem_checks_and_reports_are_built_only_by_their_pass_rules():
    # _at_most passes a check exactly when its value is at most its threshold,
    # and _report passes a report exactly when all its checks pass; a verdict
    # written out by hand beside its numbers could drift from them.
    found = [f"{path.relative_to(SOURCE)}:{line}" for path in sorted(SOURCE.rglob("*.py"))
             for line in _stated_verdicts(ast.parse(path.read_text(), str(path)))]
    assert found == []


# Every public name of the package, sorted.  An addition or removal is an API
# change, so it shows in this list.
_PUBLIC_NAMES = [
    "Ball", "Box", "CATALOG_IDS", "Certificate", "CheckResult", "ConfigurationError", "ConstraintCheck",
    "ContractError", "Domain", "DomainError", "FixiterError", "InfeasibleError", "Lemma21Report",
    "LimitVerdict", "MAPPING_CLASSES", "Mapping", "MappingMeta", "ModulusEstimate",
    "NormedSpace", "POWER_SCHEMES", "ParameterError", "PhiSpec", "RateReport", "RateRow", "RunConfig",
    "SCHEMES", "ScenarioError", "Schedule", "ScheduleError", "ScheduleVerdict", "ScopeError", "TAU_CERT",
    "TAU_DOM", "TAU_FP", "TAU_LEM22", "TAU_LIM", "TAU_REG", "TAU_SUM", "TheoremReport", "Trajectory",
    "Vector", "Witness", "apply_power", "build_mapping", "certify_asymptotically_nonexpansive",
    "certify_condition_I", "certify_nearly_nonexpansive", "certify_nonexpansive",
    "certify_uniform_lipschitz", "check_lemma21", "check_lemma22_witness", "combine", "compare_schemes",
    "distance_to_fixed_set", "fixed_point_residual", "get_mapping", "limit_verdict", "linear_rate_oracle",
    "make_asymptotically_nonexpansive_example", "make_example21", "make_identity",
    "make_linear_contraction", "modulus_of_convexity_estimate", "near_schedule_for",
    "near_sequence_from_asymptotic", "run_scheme", "tail_window_start", "trajectory_csv_rows",
    "trajectory_header", "validate_schedule", "verify_theorem31", "verify_theorem32", "verify_theorem33",
    "write_trajectory_csv",
]


def test_the_package_exports_exactly_its_public_names():
    found = sorted(name for name, value in vars(fixiter).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert found == _PUBLIC_NAMES
