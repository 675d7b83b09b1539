"""Layout checks over the package source.

Dead code: every module-level function or class, and every method, in
src/pcrisk must be referenced somewhere in src/pcrisk outside its own
definition, by name or as an attribute. A name kept for callers outside
the package goes on ALLOWED_UNREFERENCED with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pcrisk"

#: definitions that no code in src/pcrisk references, and why they stay
ALLOWED_UNREFERENCED = {
    "logistic_loss_grad": "perfbench/layertrace.py wraps it by name to count gradient calls",
    "mlp_loss_grad": "perfbench/layertrace.py wraps it by name to count gradient calls",
    "load_model": "the public reader of the model.json that riskmap writes",
}


def _references(node: ast.AST) -> Counter:
    """Every bare name and every attribute that node's code mentions,
    counted, keyed ("name", id) and ("attr", attr)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out["attr", sub.attr] += 1
    return out


def _definitions(tree: ast.Module):
    """(name, node, is_method) of every module-level function or class and
    every method, except dunder methods, which Python calls by protocol."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item, True


def unreferenced(package: Path = PACKAGE) -> list[str]:
    """module:name of every definition referenced only from within itself.
    A method counts only attribute references (obj.name); a module-level
    name counts bare names and attributes (module.name) alike."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for name, node, is_method in _definitions(tree):
            kinds = ("attr",) if is_method else ("name", "attr")
            own = _references(node)
            if all(total[kind, name] == own[kind, name] for kind in kinds):
                dead.append(f"{module}:{name}")
    return dead


def test_every_definition_is_referenced():
    dead = [d for d in unreferenced() if d.split(":")[1] not in ALLOWED_UNREFERENCED]
    assert dead == [], f"defined in src/pcrisk but never referenced there: {dead}"


def test_allowed_names_are_defined():
    defined = {name for path in PACKAGE.glob("*.py")
               for name, _, _ in _definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert set(ALLOWED_UNREFERENCED) <= defined


def test_no_class_defines_validate():
    # a record checks itself in __post_init__, so no caller can forget to
    classes = [f"{path.stem}:{node.name}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(item, ast.FunctionDef) and item.name == "validate"
                       for item in node.body)]
    assert classes == [], f"classes in src/pcrisk with a validate method: {classes}"


def test_only_the_base_model_serialises():
    # a model's model.json state is its annotations, encoded by one codec
    classes = [f"{path.stem}:{node.name}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) and node.name != "_Model"
               and any(isinstance(item, ast.FunctionDef)
                       and item.name in ("state_dict", "load_state")
                       for item in node.body)]
    assert classes == [], f"classes in src/pcrisk besides _Model that serialise: {classes}"


def test_only_main_writes_the_manifest():
    # every command returns what it wrote, and main alone records it
    users = [f"{path.stem}:{getattr(node, 'name', '<module>')}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if getattr(node, "name", None) != "_write_manifest"
             and any(_references(node)[kind, "_write_manifest"] for kind in ("name", "attr"))]
    assert users == ["cli:main"], f"code in src/pcrisk besides cli.main that writes manifests: {users}"


def test_only_main_writes_outputs():
    # a command returns its outputs' writers; main stages and commits them
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    writers = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
               and any(_references(node)[kind, name] for kind in ("name", "attr")
                       for name in ("out_dir", "mkdir", "create"))]
    assert writers == [], f"commands in cli.py that build output paths or write: {writers}"
