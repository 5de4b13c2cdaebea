"""Registry of named algebra classes and signature-based classification.

Membership of a table in a class is purely "required properties all hold on
its signature"; proper membership additionally demands that every property in
the class's forbidden list fails.  Both are bit-mask tests on signature bits
(``ClassDef.is_member``/``is_proper``), which the census and the searches
apply to whole batches.  Where the source material gives several equivalent
definitions of a class (BCI, BCK, BCH, pre-BCK) the registry stores one
canonical required set; the equivalences are verified empirically by the
claims suite instead of being assumed here.
"""

from __future__ import annotations

from .core import ClassDef, EvalResult, PropertyId, PropertySignature, Table
from .props import eval_all, eval_property

__all__ = [
    "ClassRegistry",
    "REGISTRY",
    "UnknownClass",
    "classify",
    "check_proper",
    "hierarchy_edges",
]

P = PropertyId


class UnknownClass(KeyError):
    pass


def _ps(*tags: str) -> frozenset[PropertyId]:
    return frozenset(PropertyId.parse(t) for t in tags)


# Base classes with their canonical required sets, in definition order.
# (id, required, proper_forbidden or None, citation)
_BASE_DEFS = [
    # weakest bases
    ("RM", _ps("Re", "M"), _ps("Ex", "An", "L", "B", "BB", "Star", "StarStar", "Tr"), "P3"),
    ("RML", _ps("Re", "M", "L"), _ps("Ex", "An", "B", "Star", "BB", "StarStar", "Tr", "Pi"), "P8"),
    # the seven classical algebras
    ("BCI", _ps("BB", "M", "An"), _ps("L"), "O1/PO1"),
    ("BCK", _ps("BB", "M", "L", "An"), _ps("Pi"), "O2/PO2"),
    ("BCH", _ps("Re", "Ex", "An"), _ps("B", "BB", "Star", "StarStar", "Tr", "L"), "O3/PO3"),
    ("BCC", _ps("Re", "M", "L", "B", "An"), _ps("Ex", "BB", "Pi"), "O4/PO4"),
    ("BZ", _ps("Re", "M", "B", "An"), _ps("L", "Ex", "BB"), "O5/PO5"),
    ("BE", _ps("Re", "M", "L", "Ex"), _ps("An", "Tr", "Star", "B", "StarStar", "BB", "Pi"), "O6/PO6"),
    ("pre-BCK", _ps("Re", "M", "L", "Ex", "Star"), _ps("An", "Pi"), "O7/PO7"),
    # first wave of generalizations
    ("pre-BCC", _ps("Re", "M", "L", "B"), _ps("An", "Ex", "BB", "Pi"), "def 1/P1"),
    ("aBE", _ps("Re", "M", "L", "Ex", "An"), _ps("B", "BB", "Star", "StarStar", "Tr", "Pi"), "def 2/P2"),
    ("pre-BZ", _ps("Re", "M", "B"), _ps("Ex", "An", "L", "BB"), "def 4/P4"),
    ("aRM", _ps("Re", "M", "An"), _ps("L", "Ex", "B", "Star", "BB", "StarStar", "Tr"), "def 5/P5"),
    ("RME", _ps("Re", "M", "Ex"), _ps("An", "L", "B", "BB", "Star", "StarStar", "Tr"), "def 6/P6"),
    ("pre-BCI", _ps("Re", "M", "Ex", "B"), _ps("An", "L"), "def 7/P7"),
    ("aRML", _ps("Re", "M", "L", "An"), _ps("Ex", "B", "Star", "BB", "StarStar", "Tr", "Pi"), "def 9/P9"),
    # transitivity / monotonicity family over RM
    ("tRM", _ps("Re", "M", "Tr"), _ps("Ex", "An", "L", "Star", "B", "StarStar", "BB"), "def 10/P10"),
    ("*RM", _ps("Re", "M", "Star"), _ps("Ex", "An", "L", "B", "StarStar", "BB"), "def 11/P11"),
    ("RM**", _ps("Re", "M", "StarStar"), _ps("Ex", "An", "L", "BB", "Star", "B"), "def 12/P12"),
    ("*RM**", _ps("Re", "M", "Star", "StarStar"), _ps("Ex", "An", "L", "B", "BB"), "def 13/P13"),
    ("pre-BBBZ", _ps("Re", "M", "B", "BB"), _ps("Ex", "An", "L"), "def 14/P14"),
    ("oRM", _ps("Re", "M", "An", "Tr"), _ps("Star", "StarStar", "L"), "def 15/P15"),
    ("*aRM", _ps("Re", "M", "An", "Star"), _ps("Ex", "L", "B", "StarStar", "BB"), "def 16/P16"),
    ("aRM**", _ps("Re", "M", "An", "StarStar"), _ps("Ex", "L", "BB", "Star", "B"), "def 17/P17"),
    ("*aRM**", _ps("Re", "M", "An", "Star", "StarStar"), _ps("Ex", "L", "B", "BB"), "def 18/P18"),
    # the same family over RML
    ("tRML", _ps("Re", "M", "L", "Tr"), _ps("An", "Ex", "Star", "B", "StarStar", "BB", "Pi"), "def 19/P19"),
    ("*RML", _ps("Re", "M", "L", "Star"), _ps("An", "Ex", "B", "StarStar", "BB", "Pi"), "def 20/P20"),
    ("RML**", _ps("Re", "M", "L", "StarStar"), _ps("An", "Ex", "BB", "Star", "B", "Pi"), "def 21/P21"),
    ("*RML**", _ps("Re", "M", "L", "Star", "StarStar"), _ps("An", "Ex", "B", "BB", "Pi"), "def 22/P22"),
    ("pre-BBBCC", _ps("Re", "M", "L", "B", "BB"), _ps("An", "Ex", "Pi"), "def 23/P23"),
    ("oRML", _ps("Re", "M", "L", "An", "Tr"), _ps("Ex", "Star", "B", "StarStar", "BB", "Pi"), "def 24/P24"),
    ("*aRML", _ps("Re", "M", "L", "An", "Star"), _ps("B", "StarStar", "BB", "Pi"), "def 25/P25"),
    ("aRML**", _ps("Re", "M", "L", "An", "StarStar"), _ps("Ex", "BB", "Star", "B", "Pi"), "def 26/P26"),
    ("*aRML**", _ps("Re", "M", "L", "An", "Star", "StarStar"), _ps("Ex", "B", "BB", "Pi"), "def 27/P27"),
    # exchange + ** combinations
    ("RME**", _ps("Re", "M", "Ex", "StarStar"), _ps("An", "BB", "Star", "B"), "def 28/P28"),
    ("BCH**", _ps("Re", "M", "Ex", "StarStar", "An"), _ps("BB", "Star", "B"), "def 29/P29"),
    ("BE**", _ps("Re", "M", "L", "Ex", "StarStar"), _ps("An", "BB", "Star", "B", "Pi"), "def 30/P30"),
    ("aBE**", _ps("Re", "M", "L", "Ex", "StarStar", "An"), _ps("BB", "Star", "B", "Pi"), "def 31/P31"),
]

# pi-X / pimpl-X variants, generated from the base class plus Pi or Pimpl.
# (base id, "pi"|"pimpl", proper_forbidden, citation)
_HILBERTIZED_DEFS = [
    ("BCC", "pi", _ps("Ex", "Pimpl"), "PO4-pi"),
    ("BE", "pi", _ps("An", "B", "BB", "Star", "StarStar", "Tr", "Pimpl"), "PO6-pi"),
    ("pre-BCK", "pi", _ps("An", "Pimpl"), "PO7-pi"),
    ("pre-BCK", "pimpl", _ps("An"), "PO7-pimpl"),
    ("pre-BCC", "pi", _ps("An", "Ex", "BB", "Pimpl"), "P1-pi"),
    ("aBE", "pi", _ps("B", "BB", "Star", "StarStar", "Tr", "Pimpl"), "P2-pi"),
    ("RML", "pi", _ps("Ex", "An", "B", "Star", "BB", "StarStar", "Tr", "Pimpl"), "P8-pi"),
    ("aRML", "pi", _ps("Ex", "B", "Star", "BB", "StarStar", "Tr", "Pimpl"), "P9-pi"),
    ("tRML", "pi", _ps("An", "Ex", "Star", "StarStar", "Pimpl"), "P19-pi"),
    ("*RML", "pi", _ps("An", "Ex", "B", "StarStar", "BB", "Pimpl"), "P20-pi"),
    ("RML**", "pi", _ps("An", "Ex", "BB", "Star", "B", "Pimpl"), "P21-pi"),
    ("*RML**", "pi", _ps("An", "Ex", "B", "BB", "Pimpl"), "P22-pi"),
    ("pre-BBBCC", "pi", _ps("An", "Ex", "Pimpl"), "P23-pi"),
    ("pre-BBBCC", "pimpl", _ps("An", "Ex"), "P23-pimpl"),
    ("oRML", "pi", _ps("Ex", "Star", "B", "StarStar", "BB", "Pimpl"), "P24-pi"),
    ("*aRML", "pi", _ps("B", "StarStar", "BB", "Pimpl"), "P25-pi"),
    ("aRML**", "pi", _ps("Ex", "BB", "Star", "B", "Pimpl"), "P26-pi"),
    ("*aRML**", "pi", _ps("Ex", "B", "BB", "Pimpl"), "P27-pi"),
    ("BE**", "pi", _ps("An", "BB", "Star", "B", "Pimpl"), "P30-pi"),
    ("aBE**", "pi", _ps("BB", "Star", "B", "Pimpl"), "P31-pi"),
]

# Containment edges (sub, super) as stated by the source hierarchies; used
# for empirical verification only, never for classification.
_EDGES = [
    # classical hierarchy
    ("BCI", "BCH"),
    ("BCK", "BCI"),
    ("BCK", "BCC"),
    ("BCI", "BZ"),
    ("BCC", "BZ"),
    ("pre-BCK", "BE"),
    ("BCK", "pre-BCK"),
    # first generalization wave
    ("BZ", "pre-BZ"),
    ("BCI", "pre-BCI"),
    ("BCH", "RME"),
    ("BZ", "aRM"),
    ("BCH", "aRM"),
    ("BCC", "pre-BCC"),
    ("aBE", "BE"),
    ("BCK", "aBE"),
    ("pre-BZ", "RM"),
    ("aRM", "RM"),
    ("RME", "RM"),
    ("pre-BCI", "pre-BZ"),
    ("pre-BCI", "RME"),
    ("RML", "RM"),
    ("BE", "RML"),
    ("pre-BCC", "RML"),
    ("aRML", "RML"),
    ("aBE", "aRML"),
    ("BCC", "aRML"),
    ("aRML", "aRM"),
    ("pre-BCC", "pre-BZ"),
    # (Tr)/(*)/(**) family over RM
    ("tRM", "RM"),
    ("*RM", "tRM"),
    ("RM**", "RM"),
    ("*RM**", "*RM"),
    ("*RM**", "RM**"),
    ("pre-BZ", "*RM"),
    ("pre-BZ", "RM**"),
    ("pre-BZ", "*RM**"),
    ("pre-BBBZ", "pre-BZ"),
    ("BCI", "pre-BBBZ"),
    ("oRM", "aRM"),
    ("oRM", "tRM"),
    ("*aRM", "oRM"),
    ("aRM**", "aRM"),
    ("*aRM**", "*aRM"),
    ("*aRM**", "aRM**"),
    ("BZ", "*aRM"),
    ("BZ", "aRM**"),
    ("BZ", "*aRM**"),
    # the same family over RML
    ("tRML", "tRM"),
    ("tRML", "RML"),
    ("*RML", "tRML"),
    ("*RML", "*RM"),
    ("RML**", "RML"),
    ("RML**", "RM**"),
    ("*RML**", "*RML"),
    ("*RML**", "RML**"),
    ("pre-BCC", "*RML"),
    ("pre-BCC", "RML**"),
    ("pre-BCC", "*RML**"),
    ("pre-BBBCC", "pre-BCC"),
    ("pre-BBBCC", "pre-BBBZ"),
    ("BCK", "pre-BBBCC"),
    ("oRML", "oRM"),
    ("oRML", "aRML"),
    ("*aRML", "oRML"),
    ("aRML**", "aRML"),
    ("*aRML**", "*aRML"),
    ("*aRML**", "aRML**"),
    ("BCC", "*aRML**"),
    # exchange + ** corner
    ("RME**", "RME"),
    ("BCH**", "BCH"),
    ("BCH**", "RME**"),
    ("pre-BCI", "RME**"),
    ("BCI", "BCH**"),
    ("BE**", "BE"),
    ("BE**", "RME**"),
    ("aBE**", "aBE"),
    ("aBE**", "BE**"),
    ("pre-BCK", "BE**"),
    ("BCK", "aBE**"),
    # Hilbert generalizations: each pi/pimpl class under its base
    ("pi-RML", "RML"),
    ("pi-pre-BCC", "pre-BCC"),
    ("pi-aRML", "aRML"),
    ("pi-BCC", "BCC"),
    ("pi-BE", "BE"),
    ("pi-pre-BCK", "pre-BCK"),
    ("pimpl-pre-BCK", "pi-pre-BCK"),
    ("pi-aBE", "aBE"),
    ("pi-tRML", "tRML"),
    ("pi-*RML", "*RML"),
    ("pi-RML**", "RML**"),
    ("pi-*RML**", "*RML**"),
    ("pi-pre-BBBCC", "pre-BBBCC"),
    ("pimpl-pre-BBBCC", "pi-pre-BBBCC"),
    ("pi-oRML", "oRML"),
    ("pi-*aRML", "*aRML"),
    ("pi-aRML**", "aRML**"),
    ("pi-*aRML**", "*aRML**"),
    ("pi-BE**", "BE**"),
    ("pi-aBE**", "aBE**"),
    ("pi-BCC", "pi-pre-BCC"),
    ("pi-aBE", "pi-BE"),
    ("pi-pre-BCK", "pi-BE"),
    ("Hilbert", "BCK"),
    ("Hilbert", "pimpl-pre-BCK"),
    ("Hilbert", "pi-BCC"),
    ("Hilbert", "pi-aBE"),
    ("Hilbert", "pi-aBE**"),
]


class ClassRegistry:
    """All named classes, classification masks, and hierarchy edges."""

    def __init__(self):
        defs: list[ClassDef] = []
        for cid, req, forb, doc in _BASE_DEFS:
            defs.append(ClassDef(cid, req, forb, doc))
        by_id = {d.id: d for d in defs}
        for base, mode, forb, doc in _HILBERTIZED_DEFS:
            extra = P.Pi if mode == "pi" else P.Pimpl
            req = by_id[base].required | {extra}
            defs.append(ClassDef(f"{mode}-{base}", req, forb, doc))
        defs.append(
            ClassDef("Hilbert", by_id["BCK"].required | {P.Pimpl}, None, "positive-implicative BCK")
        )
        self.defs: tuple[ClassDef, ...] = tuple(defs)
        self.by_id: dict[str, ClassDef] = {d.id: d for d in self.defs}
        if len(self.by_id) != len(self.defs):
            raise RuntimeError("duplicate class ids in registry")
        self._edges = tuple(_EDGES)
        for sub, sup in self._edges:
            if sub not in self.by_id or sup not in self.by_id:
                raise RuntimeError(f"hierarchy edge references unknown class: {sub} -> {sup}")

    def __len__(self) -> int:
        return len(self.defs)

    def __contains__(self, cid: str) -> bool:
        return cid in self.by_id

    def get(self, cid: str) -> ClassDef:
        try:
            return self.by_id[cid]
        except KeyError:
            raise UnknownClass(cid) from None

    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.defs)

    def classify(self, sig: PropertySignature) -> set[str]:
        """Every class whose required set is satisfied by ``sig``."""
        return {d.id for d in self.defs if d.is_member(sig.bits)}

    def is_member(self, sig: PropertySignature, cid: str) -> bool:
        return self.get(cid).is_member(sig.bits)

    def is_proper(self, sig: PropertySignature, cid: str) -> bool:
        return self._proper_def(cid).is_proper(sig.bits)

    def check_proper(self, table: Table, cid: str) -> tuple[bool, dict[PropertyId, EvalResult]]:
        """Proper-membership verdict plus per-forbidden-property evidence."""
        d = self._proper_def(cid)
        member = d.is_member(eval_all(table).bits)
        report = {p: eval_property(table, p) for p in sorted(d.proper_forbidden, key=lambda q: q.value)}
        is_proper = member and all(not r.satisfied for r in report.values())
        return is_proper, report

    def _proper_def(self, cid: str) -> ClassDef:
        d = self.get(cid)
        if d.proper_forbidden is None:
            raise UnknownClass(f"{cid} has no proper-variant definition")
        return d

    def hierarchy_edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def export_records(self) -> list[dict]:
        """Registry as plain records, for docs and the structured CLI output."""
        out = []
        for d in self.defs:
            out.append(
                {
                    "id": d.id,
                    "required": sorted(p.value for p in d.required),
                    "proper_forbidden": (
                        sorted(p.value for p in d.proper_forbidden)
                        if d.proper_forbidden is not None
                        else None
                    ),
                    "citation": d.doc,
                }
            )
        return out


REGISTRY = ClassRegistry()


def classify(sig: PropertySignature) -> set[str]:
    return REGISTRY.classify(sig)


def check_proper(table: Table, cid: str):
    return REGISTRY.check_proper(table, cid)


def hierarchy_edges() -> tuple[tuple[str, str], ...]:
    return REGISTRY.hierarchy_edges()
