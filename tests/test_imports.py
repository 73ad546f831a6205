"""Every name a package module imports at module level is used in it,
every module-level private name is read somewhere in the package, no
module calls ``str.isdigit``, writes ``\\d`` in a regex or keeps state
between calls, only ``config.read_lines`` opens a file to read it, and
outside ``molgraph`` no module writes into a ``__dict__`` or builds a
``Molecule`` twin.

No linter ships with the project, so this parses each module with
``ast``. ``__init__.py`` (re-exports) and ``from __future__`` imports are
skipped by the import check.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fragsmith"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "from itertools import groupby\nimport os\nos.getcwd()\n"
    assert _unused_imports(source) == ["groupby (line 1)"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and assignments."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return {n: line for n, line in names.items() if n.startswith("_") and not n.startswith("__")}


def _stranded_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_no_stranded_private_names():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _stranded_private_names(sources) == []


def test_check_sees_a_stranded_private_name():
    sources = {
        "a.py": "_TABLE = {1: 2}\n_used = 3\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\n_helper()\n",
    }
    assert _stranded_private_names(sources) == ["a.py: _TABLE (line 1)"]


def _isdigit_calls(source: str) -> list[int]:
    """Lines that call ``.isdigit()``: it accepts Unicode digits such as
    "²", which ``int()`` then rejects with a ValueError."""
    return [
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "isdigit"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_isdigit_calls(path):
    assert _isdigit_calls(path.read_text()) == []


def test_check_sees_an_isdigit_call():
    source = "def f(s):\n    x = s.strip()\n    return x.isdigit() and int(x)\n"
    assert _isdigit_calls(source) == [3]


# An unescaped ``\d``: preceded by an even number of backslashes.
_DIGIT_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\d")


def _regex_digit_classes(source: str) -> list[int]:
    """Lines of regex literals (a string pattern passed to an ``re``
    function) that use ``\\d``: like ``isdigit`` it accepts every
    Unicode decimal digit, such as U+0661 (Arabic-Indic one)."""
    return [
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "re"
        and n.args and isinstance(n.args[0], ast.Constant) and isinstance(n.args[0].value, str)
        and _DIGIT_CLASS.search(n.args[0].value)
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_regex_digit_classes(path):
    assert _regex_digit_classes(path.read_text()) == []


def test_check_sees_a_regex_digit_class():
    source = (
        "import re\n"
        "_UNIT_RE = re.compile(r\"\\[[^\\[\\]]*\\]|%\\d\\d|Cl|Br|.\", re.S)\n"
        "_OK = re.compile(r\"[0-9]+\\\\d\")\n"
        "n = re.match(\"\\\\d+\", s)\n"
    )
    assert _regex_digit_classes(source) == [2, 4]


def _is_cache_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def _is_empty_binding(value: ast.expr | None) -> bool:
    if isinstance(value, ast.Call):
        return (
            isinstance(value.func, ast.Name) and value.func.id in ("set", "dict")
            and not value.args and not value.keywords
        )
    return (
        isinstance(value, ast.Dict) and not value.keys
        or isinstance(value, ast.List) and not value.elts
        or isinstance(value, ast.Constant) and value.value is None
    )


def _process_state(source: str) -> list[str]:
    """State a module keeps between calls: ``global`` statements,
    module-level names bound to ``{}``, ``[]``, ``set()``, ``dict()`` or
    ``None``, and ``cache``/``lru_cache`` on a function with arguments.
    Each outlives its caller, so one call's input can change the next
    call's result."""
    tree = ast.parse(source)
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Global):
            found.append(f"global {', '.join(n.names)} (line {n.lineno})")
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = n.args
            takes_arguments = a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg
            if takes_arguments and any(_is_cache_decorator(d) for d in n.decorator_list):
                found.append(f"cached {n.name}() (line {n.lineno})")
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_binding(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                f"{n.id} (line {node.lineno})"
                for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
            )
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_process_state(path):
    assert _process_state(path.read_text()) == []


def test_check_sees_process_state():
    source = (
        "import functools\n"
        "from functools import cache\n"
        "_TABLES: dict[str, list] = {}\n"
        "_SEEN = set()\n"
        "_LAST = None\n"
        "_SHIPPED = (1, 2)\n"
        "def load(path):\n"
        "    global _LAST\n"
        "    _LAST = path\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def parse(text):\n"
        "    return text\n"
        "@cache\n"
        "def shipped():\n"
        "    return parse('x')\n"
    )
    assert sorted(_process_state(source)) == sorted([
        "global _LAST (line 8)",
        "cached parse() (line 11)",
        "_TABLES (line 3)",
        "_SEEN (line 4)",
        "_LAST (line 5)",
    ])


def _file_read(call: ast.Call) -> str | None:
    """The name called when ``call`` reads a file: ``open(path)`` or
    ``Path.open()`` without a write, append or create mode,
    ``read_text`` or ``read_bytes``."""
    func = call.func
    method = isinstance(func, ast.Attribute)
    name = func.attr if method else getattr(func, "id", None)
    if name != "open":
        return name if name in ("read_text", "read_bytes") else None
    after_path = call.args if method else call.args[1:]
    mode = after_path[0] if after_path else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    writes = isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")
    return None if writes else name


def _file_reads(source: str, reader: str | None = None) -> list[str]:
    """Calls that read a file outside the function named ``reader``, and
    imports of ``importlib``: every text file goes through one reader,
    which finds the shipped data files by path."""
    tree = ast.parse(source)
    inside = {
        id(n) for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == reader for n in ast.walk(node)
    }
    found = []
    for n in ast.walk(tree):
        if id(n) in inside:
            continue
        if isinstance(n, ast.Call) and (name := _file_read(n)):
            found.append((n.lineno, name))
        elif isinstance(n, ast.Import) and any(a.name.split(".")[0] == "importlib" for a in n.names):
            found.append((n.lineno, "importlib"))
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "importlib":
            found.append((n.lineno, "importlib"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_reader_reads_files(path):
    reader = "read_lines" if path.name == "config.py" else None
    assert _file_reads(path.read_text(), reader) == []


def test_check_sees_a_file_read():
    source = (
        "import importlib.resources\n"
        "from importlib import resources\n"
        "from pathlib import Path\n"
        "def read_lines(path):\n"
        "    return open(path)\n"
        "def load(path, mode):\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        fh.read()\n"
        "    Path(path).read_text()\n"
        "    Path(path).read_bytes()\n"
        "    open(path, 'rb'), open(path, mode)\n"
        "    open(path, 'w'), open(path, mode='ab'), Path(path).open('x')\n"
        "    resources.files('x').joinpath('y').read_text()\n"
        "    Path(path).open()\n"
    )
    assert _file_reads(source, "read_lines") == [
        "importlib (line 1)",
        "importlib (line 2)",
        "open (line 7)",
        "read_text (line 9)",
        "read_bytes (line 10)",
        "open (line 11)",
        "open (line 11)",
        "read_text (line 13)",
        "open (line 14)",
    ]


def _is_instance_dict(node: ast.expr) -> bool:
    """``x.__dict__`` or ``vars(x)``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "vars"
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _hand_built_molecules(source: str) -> list[str]:
    """Writes into an object's ``__dict__`` or ``vars()``, and
    ``Molecule(..., "")`` twins: a molecule made in code comes from
    ``Molecule.assembled``, which writes its canonical SMILES from a twin
    of its own and keeps no topology."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load) and _is_instance_dict(n.value):
            found.append((n.lineno, "__dict__ write"))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            if _is_instance_dict(n.func.value) and n.func.attr in (
                "update", "setdefault", "pop", "popitem", "clear", "__setitem__",
            ):
                found.append((n.lineno, "__dict__ write"))
        if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "Molecule":
            text = n.args[2] if len(n.args) > 2 else None
            text = next((k.value for k in n.keywords if k.arg == "source_text"), text)
            if isinstance(text, ast.Constant) and text.value == "":
                found.append((n.lineno, "Molecule twin"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_molecules_are_built_in_one_place(path):
    if path.name != "molgraph.py":
        assert _hand_built_molecules(path.read_text()) == []


def test_check_sees_a_hand_built_molecule():
    source = (
        "from fragsmith import molgraph\n"
        "from fragsmith.molgraph import Molecule\n"
        "def build(atoms, bonds, m):\n"
        "    twin = Molecule(atoms=atoms, bonds=bonds, source_text='')\n"
        "    twin.__dict__['neighbors'] = m.neighbors\n"
        "    other = molgraph.Molecule(atoms, bonds, '')\n"
        "    other.__dict__.update(ring_bonds=m.ring_bonds)\n"
        "    vars(m).update(counts={}), dict(**m.__dict__)\n"
        "    return Molecule(atoms, bonds, 'CC'), Molecule.assembled(atoms, bonds)\n"
    )
    assert _hand_built_molecules(source) == [
        "Molecule twin (line 4)",
        "__dict__ write (line 5)",
        "Molecule twin (line 6)",
        "__dict__ write (line 7)",
        "__dict__ write (line 8)",
    ]
