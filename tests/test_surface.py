"""Every defaulted parameter in ``src/synthbank`` is set by some call in
``src/``, and every dataclass field there is read by some code in ``src/``.

A call is matched to a ``def`` by name (``f(...)`` or ``x.f(...)``), and a
call of a class counts as a call of its ``__init__``. A parameter counts as
set when a call passes it by position or by keyword; what a call passes
through ``*args`` or ``**kwargs`` is not counted.

A field is matched to its reads by name too: any ``x.field`` that is read
counts, except ``self.field`` in its own class's ``__post_init__``, which
only checks or normalises what was written.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "synthbank"

# parameters whose defaults stay although no call in src/ sets them
ALLOWED = {
    "yield_curve.lowess.frac": "the bit-for-bit reference tests sweep it",
    "yield_curve.lowess.iters": "the bit-for-bit reference tests sweep it",
    "yield_curve.nss_fit.tau_grid": "the bit-for-bit reference tests sweep it",
    "yield_curve.nss_fit.refine_rounds": "the bit-for-bit reference tests sweep it",
    "cli.main.argv": "None reads the process's own command line",
}


# dataclass fields that stay although no code in src/ reads them by name
UNREAD = {
    "PacLevel.length": "the PAC reference tests compare it",
    "PacLevel.sigma": "perfbench/spans.py reads it to count noised cells",
    "PacLevel.rho": "the PAC reference tests compare it",
    "PacLevel.n_candidates": "perfbench/spans.py reads it as a work count",
    "PacLevel.n_survivors": "perfbench/spans.py reads it as a work count",
}


def _defaulted(fn, method):
    """The defaulted parameters of ``fn`` as (name, position or None)."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    skip = method and not any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
    first = len(positional) - len(fn.args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def unset_parameters():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    passed = defaultdict(lambda: (0, set()))  # callee name -> (most positions, keywords)
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            stars = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            n_pos, keywords = passed[name]
            keywords = keywords | {kw.arg for kw in call.keywords}
            passed[name] = (max(n_pos, stars[0] if stars else len(call.args)), keywords)
    unset = []
    for path, tree in trees.items():
        defs = [(node, "") for node in tree.body]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [(node, cls.name) for node in cls.body]
        for fn, owner in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            callee = owner if fn.name == "__init__" else fn.name
            n_pos, keywords = passed[callee]
            qualname = f"{path.stem}.{owner + '.' if owner else ''}{fn.name}"
            for param, position in _defaulted(fn, bool(owner)):
                if param not in keywords and (position is None or position >= n_pos):
                    unset.append(f"{qualname}.{param}")
    return unset


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = sorted(set(unset_parameters()) - set(ALLOWED))
    assert not unset, "no call in src/ sets " + ", ".join(unset)


def test_every_allowed_parameter_exists_and_is_unset():
    assert set(ALLOWED) <= set(unset_parameters())


def _is_dataclass(cls):
    return any(
        getattr(node, "id", getattr(node, "attr", None)) == "dataclass"
        for node in (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    )


def unread_fields():
    fields, reads = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        checks = set()  # self.field reads in a dataclass's own __post_init__
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields.append(f"{cls.name}.{stmt.target.id}")
                elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__":
                    checks.update(
                        id(node) for node in ast.walk(stmt)
                        if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "self"
                    )
        reads.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in checks
        )
    return [field for field in fields if field.split(".")[1] not in reads]


def test_every_dataclass_field_is_read():
    unread = sorted(set(unread_fields()) - set(UNREAD))
    assert not unread, "no code in src/ reads " + ", ".join(unread)


def test_every_allowed_field_exists_and_is_unread():
    assert set(UNREAD) <= set(unread_fields())
