"""Behaviour shared by the package's result records: they are immutable,
read back as ``Name(field=value, ...)``, and the two certificates are false
when their check failed."""

import pytest

import math_oracle
from origami_covers import curves, degeneration, family, origami, selftest
from origami_covers.errors import InvalidCurve
from origami_covers.poly import Poly


def _curve():
    return curves.HyperellipticCurve(Poly([0, 1, 0, 1]))


def _cover():
    return family.build_family(2).cover


def _system():
    return degeneration.assemble_deformation_system(
        2, degeneration._map_polys(2))


# (record, fields in order, a thunk building an instance)
RECORDS = [
    (curves.HyperellipticCurve, ("rhs",), _curve),
    (curves.CoverMap, ("f1", "f2"), lambda: _cover().map),
    (curves.Cover, ("source", "target", "map", "degree"), _cover),
    (curves.CoverCertificate, ("ok", "witness"),
     lambda: curves.verify_cover_identity(_cover())),
    (curves.RamificationReport,
     ("branch_point_x", "ramification_index", "pullback_coefficient",
      "vanishing_order_at_origin", "riemann_hurwitz_balanced"),
     lambda: curves.ramification_report(_cover())),
    (family.FamilyInstance, ("genus", "j", "k", "cover", "certificate"),
     lambda: family.build_family(2)),
    (family.CompanionCertificate,
     ("ok", "product_identity", "derivative_identity", "source_shape"),
     lambda: family.family_instance(2).certificate),
    (math_oracle.ParametrizedCurve, ("x_of_u", "y_of_u"),
     math_oracle.normalize_nodal_cubic),
    (degeneration.DeformationAnsatz,
     ("genus", "curve_unknowns", "den_unknowns", "num_unknowns"),
     lambda: degeneration.deformation_ansatz(2)),
    (degeneration.DeformationSystem, ("genus", "maps", "columns", "rhs"),
     _system),
    (degeneration.DeformationSolution, ("consistent", "solution", "nullity"),
     lambda: degeneration.solve_exact(_system())),
    (degeneration.DeformationReport,
     ("genus", "ansatz", "rows", "cols", "consistent", "solution", "nullity",
      "instance"),
     lambda: degeneration.deformation_report(2)),
    (origami.OrigamiDiagram, ("n", "right", "up"),
     lambda: origami.staircase(2)),
    (selftest.CheckResult, ("name", "ok", "detail"),
     lambda: selftest.CheckResult("name", True, "detail")),
]


@pytest.mark.parametrize("record, fields, build", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
class TestRecord:
    def test_fields_cannot_be_assigned(self, record, fields, build):
        value = build()
        assert isinstance(value, record)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_repr_names_each_field(self, record, fields, build):
        value = build()
        shown = ", ".join(f"{name}={getattr(value, name)!r}"
                          for name in fields)
        assert repr(value) == f"{record.__name__}({shown})"


@pytest.mark.parametrize("ok", [False, True])
def test_certificate_truth_is_ok(ok):
    assert bool(curves.CoverCertificate(ok=ok, witness="x")) is ok
    assert bool(family.CompanionCertificate(
        ok=ok, product_identity=True, derivative_identity=True,
        source_shape=True)) is ok


def test_replace_validates():
    with pytest.raises(InvalidCurve):
        _curve()._replace(rhs=Poly([]))
    diagram = origami.staircase(2)
    with pytest.raises(ValueError, match="square count"):
        diagram._replace(n=diagram.n + 1)
