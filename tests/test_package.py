"""The package's import surface and the semantics of its value records."""

import importlib
import inspect

import pytest

import toricdual
from toricdual.configuration import DecompositionReport, DedupReport, parse_configuration
from toricdual.gale import GaleDual, LineClass, LinePartition
from toricdual.intlinalg import imat
from toricdual.oracle import Circuit, Flat
from toricdual.verdict import Verdict
from test_cli import _run_python

PUBLIC = {
    "Circuit", "Configuration", "DecompositionReport", "DedupReport", "Flat",
    "GaleDual", "GuardExceeded", "HypersurfaceClass", "InapplicableInput",
    "IntMatrix", "Verdict", "affine_dim", "config_from_gale",
    "coparallel_classes", "coparallel_criterion", "coparallel_via_circuits",
    "crosscheck", "dedup", "enumerate_circuits", "enumerate_flats",
    "facial_via_separation", "family_alpha", "family_alpha_gale",
    "family_codim", "family_dim", "full_decomposition", "gale_dual",
    "hypersurface_class", "imat", "integer_kernel", "is_facial",
    "is_lawrence", "is_parallel_face_complement", "is_segre", "is_self_dual",
    "is_strongly_self_dual", "lawrence", "lawrence_strong_parity",
    "line_partition", "line_sums_zero", "matmul", "parse_configuration",
    "segre", "self_dual_via_flats", "self_dual_via_sigma", "smooth_certificate",
    "strong_via_points", "verify_gale_dual",
}


def test_public_names():
    assert len(PUBLIC) == 48
    assert set(toricdual.__all__) == PUBLIC and len(toricdual.__all__) == 48
    assert set(toricdual._SUBMODULE) == PUBLIC


def test_each_name_is_its_submodule_object():
    for name in toricdual.__all__:
        module = importlib.import_module(f"toricdual.{toricdual._SUBMODULE[name]}")
        value = getattr(toricdual, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from toricdual import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert PUBLIC <= set(dir(toricdual))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        toricdual.no_such_name
    assert not hasattr(toricdual, "ENUMERATION_GUARD")
    with pytest.raises(ImportError):
        exec("from toricdual import no_such_name", {})


def test_names_load_on_first_use():
    script = "\n".join(
        [
            "import sys, toricdual",
            "assert not [m for m in sys.modules if m.startswith('toricdual.')]",
            "toricdual.is_self_dual",
            "assert 'toricdual.engine' in sys.modules",
            "assert 'toricdual.oracle' not in sys.modules",
            "assert 'toricdual.families' not in sys.modules",
        ]
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr


def _records():
    """A builder and the expected repr of each value record."""
    c = parse_configuration([[1]])
    return [
        (
            lambda: Verdict(True, "c", {"kind": "k"}),
            "Verdict(value=True, criterion='c', witness={'kind': 'k'})",
        ),
        (
            lambda: LineClass(direction=(1,), members=(0, 2), total=(3,)),
            "LineClass(direction=(1,), members=(0, 2), total=(3,))",
        ),
        (
            lambda: LinePartition(classes=(), zero_rows=(1,)),
            "LinePartition(classes=(), zero_rows=(1,))",
        ),
        (
            lambda: DedupReport(distinct=c, multiplicity=(3,), index_map=(0, 0, 0)),
            "DedupReport(distinct=Configuration(1x1), "
            "multiplicity=(3,), index_map=(0, 0, 0))",
        ),
        (
            lambda: DecompositionReport(
                repeat_codim=2, apex_indices=(0,), core_indices=(), join_shape=(2, 1, 0)
            ),
            "DecompositionReport(repeat_codim=2, apex_indices=(0,), core_indices=(), "
            "join_shape=(2, 1, 0))",
        ),
        (
            lambda: Circuit(support=(0, 1), relation=(1, -1)),
            "Circuit(support=(0, 1), relation=(1, -1))",
        ),
        (
            lambda: Flat(generators=(0,), closure=(0, 2)),
            "Flat(generators=(0,), closure=(0, 2))",
        ),
    ]


RECORDS = _records()


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.partition("(")[0] for _, text in RECORDS])
def test_value_records_compare_by_field_and_refuse_assignment(make, text):
    a, b = make(), make()
    assert a == b and not a != b
    assert repr(a) == text
    for field in inspect.signature(type(a)).parameters:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b


def test_value_records_differ_when_a_field_does():
    assert Verdict(True, "c") != Verdict(False, "c")
    assert Verdict(True, "c") != Verdict(True, "c", {"kind": "k"})
    # a verdict equals no value of another type, not even its own fields
    assert Verdict(True, "c").__eq__(True) is NotImplemented
    assert Verdict(True, "c") not in (True, "c", (True, "c", {}))
    assert Circuit((0, 1), (1, -1)) != Circuit((0, 1), (-1, 1))
    assert Flat((0,), (0,)) != Flat((1,), (0,))
    assert LineClass((1,), (0,), (1,)) != LineClass((1,), (0,), (2,))


def test_verdict_witness_and_truth():
    a, b = Verdict(True, "c"), Verdict(True, "c")
    assert a.witness == {} and a.witness is not b.witness
    a.witness["kind"] = "k"
    assert b.witness == {}
    assert bool(Verdict(True, "c")) is True and bool(Verdict(False, "c")) is False
    with pytest.raises(TypeError):
        hash(a)


def test_configuration_and_gale_dual_equal_only_themselves():
    c, d = parse_configuration([[0, 1, 2]]), parse_configuration([[0, 1, 2]])
    assert c == c and c != d and {c: 1}[c] == 1
    b = GaleDual(matrix=imat([[1], [-2], [1]]))
    assert b == b and b != GaleDual(matrix=imat([[1], [-2], [1]]))
    assert repr(b) == "GaleDual(matrix=IntMatrix([[1], [-2], [1]]))"
    assert {b: 1}[b] == 1


def test_configuration_and_gale_dual_refuse_assignment():
    c = parse_configuration([[0, 1, 2]])
    b = GaleDual(matrix=imat([[1], [-2], [1]]))
    for obj, name in ((c, "weights"), (c, "extra"), (b, "matrix"), (b, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        del c.weights
    with pytest.raises(AttributeError):
        del b.matrix
    # a cached invariant is still computed once and kept
    assert c.circuit_form is c.circuit_form and c.relations is c.relations
    assert c.weights.tolist() == [[0, 1, 2]]
