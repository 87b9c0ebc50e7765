import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import rbnl
from rbnl import bell, closed_forms, nonlocality
from rbnl.closed_forms import linspace
from rbnl.states import BlochVector

Z = BlochVector(np.array([0.0, 0.0, 1.0]))

SUBMODULES = ("linalg", "states", "realism", "search", "nonlocality", "bell",
              "closed_forms", "cli")
TESTS = Path(__file__).resolve().parent
TEST_FILES = [*sorted(TESTS.glob("*.py")), TESTS / "data" / "make_golden.py"]


def _imports_of_tests():
    """("file:line", node) for each import statement of the files in tests/."""
    for path in TEST_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield f"{path.name}:{node.lineno}", node


def test_every_public_name_is_its_home_module_object():
    for module, names in rbnl._EXPORTS.items():
        home = importlib.import_module(f"rbnl.{module}")
        for name in names:
            assert getattr(rbnl, name) is getattr(home, name), name
    # no name is listed under two modules
    assert len(rbnl.__all__) == 1 + sum(len(names) for names in rbnl._EXPORTS.values())


def test_submodules_resolve():
    for name in SUBMODULES:
        assert getattr(rbnl, name) is importlib.import_module(f"rbnl.{name}")
        assert name in dir(rbnl)
    assert set(rbnl.__all__) <= set(dir(rbnl))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rbnl.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from rbnl import no_such_name  # noqa: F401


def test_star_import():
    namespace = {}
    exec("from rbnl import *", namespace)
    for name in rbnl.__all__:
        assert namespace[name] is getattr(rbnl, name), name


def test_closed_forms_are_re_exported():
    assert nonlocality.nrb_werner_closed_form is closed_forms.nrb_werner_closed_form
    assert bell.nmax_werner is closed_forms.nmax_werner
    assert bell.nvol_werner_analytic is closed_forms.nvol_werner_analytic


@pytest.mark.parametrize("start, stop, num", [
    (0, 1, 101), (0, 1, 2), (0.3, 0.31, 1000), (0, 1, 12345), (0, 7.3, 999),
    (0, 5e-324, 3),        # the step underflows to 0
    (0, 1e-320, 100000),   # so does this one; i * step would give all zeros
])
def test_linspace_equals_numpy_bit_for_bit(start, stop, num):
    ours = np.array(linspace(start, stop, num))
    theirs = np.linspace(start, stop, num)
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()
    assert all(type(x) is float for x in linspace(start, stop, num))


# every public function taking the noise parameter mu, all checked by
# closed_forms.check_mu
MU_FUNCTIONS = {
    "werner": lambda mu: rbnl.werner(mu),
    "werner_dephased_spectra": lambda mu: rbnl.werner_dephased_spectra(mu, Z, Z),
    "nvol_quadrature": lambda mu: rbnl.nvol_quadrature(mu),
    "nvol_mc": lambda mu: rbnl.nvol_mc(mu, rbnl.McConfig(n=10)),
    "nrb_werner_closed_form": lambda mu: rbnl.nrb_werner_closed_form(mu),
    "nmax_werner": lambda mu: rbnl.nmax_werner(mu),
    "nvol_werner_analytic": lambda mu: rbnl.nvol_werner_analytic(mu),
}


@pytest.mark.parametrize("name", MU_FUNCTIONS)
@pytest.mark.parametrize("mu", [-0.1, 1.1, float("nan")])
def test_mu_out_of_range_is_rejected(name, mu):
    with pytest.raises(ValueError, match=r"mu must be in \[0, 1\]"):
        MU_FUNCTIONS[name](mu)


# every frozen type that holds arrays, built twice from the same inputs
ARRAY_TYPES = {
    "DensityMatrix": lambda: rbnl.werner(0.5),
    "PureState": lambda: rbnl.singlet(),
    "BlochVector": lambda: BlochVector(np.array([0.0, 0.0, 1.0])),
    "PVM": lambda: rbnl.bloch_pvm(Z),
    "NrbResult": lambda: rbnl.NrbResult(0.1, Z, Z, 1.0),
    "SchmidtDecomposition": lambda: rbnl.schmidt(rbnl.singlet()),
    "PureNrbResult": lambda: rbnl.nrb_pure(rbnl.singlet()),
    "LocalPVM": lambda: rbnl.LocalPVM(rbnl.bloch_pvm(Z), "A"),
    "RealityComponents": lambda: rbnl.RealityComponents((1.0,), (np.eye(2) / 2,),
                                                        (np.eye(2) / 2,)),
}


@pytest.mark.parametrize("name", ARRAY_TYPES)
def test_array_types_compare_and_hash_by_identity(name):
    a, b = ARRAY_TYPES[name](), ARRAY_TYPES[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_no_test_module_imports_another():
    # every shared helper and corpus lives in tests/corpora.py, so a test
    # file imports no other one and each corpus has one home
    found = []
    for where, node in _imports_of_tests():
        names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
        found += [f"{where} {name}" for name in names
                  if any(part.startswith("test_") for part in name.split("."))]
    assert not found, found


def test_tests_need_only_numpy_and_pytest():
    # CI installs numpy and pytest alone, and the mutation and SIMD-level
    # children run pytest with plugin autoload off: a test that imported
    # another package would fail in CI, or test a plugin that is not loaded
    allowed = {*sys.stdlib_module_names, "numpy", "pytest", "rbnl",
               *(path.stem for path in TEST_FILES)}
    found = []
    for where, node in _imports_of_tests():
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:  # a relative from-import names no third-party module
            modules = [node.module] if node.level == 0 else []
        found += [f"{where} {m}" for m in modules if m.partition(".")[0] not in allowed]
    assert not found, found
