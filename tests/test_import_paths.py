"""Each name has one import path: the module that defines it.

The scan reads every module of `src/anoncert`, `tests` and `perfbench`
and lists each `from M import name` where M is a module of this repository
that only imports `name` (or names it nowhere) and `name` is not a
submodule of M.

A second scan keeps the crypto boundary of the package: only `curve` and
`envelope` import `cryptography`, and only `envelope`, which alone knows
the ciphertext layouts, imports its AES-GCM or HKDF.

A third keeps the signature boundary: only `certs` imports `sign` or
`verify` from `envelope`, no other module of the package imports a
`tbs_bytes` builder, and none reads a message's signature field, so only
`certs` pairs a message with the bytes its signature covers.

A fourth keeps the public-scalar boundary: in `src/`, only `envelope`
uses `curve.mul_add`, whose variable-time comb walk takes u2, so only
ECDSA verification's public scalars reach it.

A fifth keeps the comb behind that boundary: in `src/`, `curve._mul` is
called only inside `curve.mul_add` and in `curve.scalar_mul`'s toy-curve
branch, so on a named curve no other multiply reaches the comb.
"""

import ast
import functools
from pathlib import Path

from anoncert.certs import LAYOUT

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anoncert"
SCANNED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _source(module: str, directory: Path):
    """The file of `module` as imported from `directory`, or None when it
    lies outside this repository. `anoncert.*` is the package; any other
    name is a sibling module, as `perfbench` imports `tracing`."""
    parts = module.split(".")
    base = (PACKAGE.joinpath(*parts[1:]) if parts[0] == "anoncert"
            else directory.joinpath(*parts))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


@functools.lru_cache(maxsize=None)
def _defined(path: Path) -> frozenset:
    """Names bound at module level by a def, a class or an assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names.update(leaf.id for target in targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return frozenset(names)


def _offending(tree: ast.AST, path: Path) -> list:
    """(name, module) of each import in `tree`, the source of `path`, that
    takes a name from a module of this repository that does not define it."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # relative imports occur only inside the package
            module = ".".join(filter(None, ("anoncert", node.module)))
        else:
            module = node.module
        source = _source(module, path.parent)
        if source is None:
            continue
        defined = _defined(source)
        found += [(alias.name, module) for alias in node.names
                  if alias.name not in defined
                  and _source(f"{module}.{alias.name}", path.parent) is None]
    return found


def test_each_name_is_imported_from_the_module_that_defines_it():
    offenders = [(str(path.relative_to(ROOT)), name, module)
                 for directory in SCANNED
                 for path in sorted(directory.glob("*.py"))
                 for name, module in _offending(ast.parse(path.read_text()),
                                                path)]
    assert offenders == []


def test_a_name_imported_through_another_module_is_found():
    tree = ast.parse("from .envelope import AuthenticationFailure, verify\n"
                     "from . import curve\n"
                     "from cryptography.exceptions import InvalidTag\n")
    assert _offending(tree, PACKAGE / "actors.py") == [
        ("AuthenticationFailure", "anoncert.envelope")]


def _cryptography_names(tree: ast.AST) -> set:
    """The `cryptography` names that `tree` imports, dotted: each module
    of an `import`, and each `module.name` of a `from` import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in found if name.split(".")[0] == "cryptography"}


def _aead_or_kdf(names: set) -> bool:
    return any({"aead", "AESGCM", "hkdf", "HKDF"} & set(name.split("."))
               for name in names)


def test_only_curve_and_envelope_use_cryptography():
    uses = {path.name: _cryptography_names(ast.parse(path.read_text()))
            for path in PACKAGE.glob("*.py")}
    assert {name for name, used in uses.items() if used} == {
        "curve.py", "envelope.py"}
    assert {name for name, used in uses.items() if _aead_or_kdf(used)} == {
        "envelope.py"}


def test_a_cryptography_import_is_found():
    tree = ast.parse(
        "from cryptography.hazmat.primitives.ciphers.aead import AESGCM\n"
        "import cryptography.hazmat.primitives.kdf.hkdf\n"
        "from cryptography.hazmat.primitives.asymmetric import ec\n"
        "from .envelope import sym_encrypt\n")
    names = _cryptography_names(tree)
    assert names == {"cryptography.hazmat.primitives.ciphers.aead.AESGCM",
                     "cryptography.hazmat.primitives.kdf.hkdf",
                     "cryptography.hazmat.primitives.asymmetric.ec"}
    assert _aead_or_kdf(names)
    assert not _aead_or_kdf({"cryptography.hazmat.primitives.asymmetric.ec"})


SIGNATURE_FIELDS = {layout.signature for layout in LAYOUT.values()}


def _signature_handling(tree: ast.AST) -> set:
    """What `tree` uses to sign or check a message by hand: `module.name`
    of each `sign` or `verify` of `envelope` and each `*tbs_bytes` of
    `certs` that it imports or reads off those modules, and `.field` of
    each signature field it reads."""

    def by_hand(module, name):
        return ((module == "envelope" and name in ("sign", "verify"))
                or (module == "certs" and name.endswith("tbs_bytes")))

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            found.update(f"{module}.{alias.name}" for alias in node.names
                         if by_hand(module, alias.name))
        elif isinstance(node, ast.Attribute):
            if node.attr in SIGNATURE_FIELDS:
                found.add(f".{node.attr}")
            elif isinstance(node.value, ast.Name) and by_hand(node.value.id,
                                                              node.attr):
                found.add(f"{node.value.id}.{node.attr}")
    return found


def test_only_certs_signs_and_checks_messages():
    uses = {path.name: _signature_handling(ast.parse(path.read_text()))
            for path in PACKAGE.glob("*.py")}
    assert {name for name, used in uses.items() if used} == {"certs.py"}


def test_a_signature_check_by_hand_is_found():
    tree = ast.parse(
        "from .envelope import digest, verify\n"
        "from anoncert.certs import signed, tbs_bytes, verify_signed\n"
        "from . import envelope\n"
        "def check(req, key):\n"
        "    return (verify(key, tbs_bytes(req), req.signature)\n"
        "            and envelope.sign is not None\n"
        "            and req.preexisting_cert.issuer_signature)\n")
    assert _signature_handling(tree) == {
        "envelope.verify", "certs.tbs_bytes", "envelope.sign", ".signature",
        ".issuer_signature"}


def _public_scalar_walks(tree: ast.AST) -> set:
    """Each way `tree` reaches `curve.mul_add`: `import mul_add`, a call
    or read of the bare name, or `module.mul_add`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(f"import {alias.name}" for alias in node.names
                         if alias.name == "mul_add")
        elif isinstance(node, ast.Name) and node.id == "mul_add":
            found.add("mul_add")
        elif isinstance(node, ast.Attribute) and node.attr == "mul_add":
            found.add(f"{getattr(node.value, 'id', '?')}.mul_add")
    return found


def test_only_envelope_walks_public_scalars():
    uses = {path.name: _public_scalar_walks(ast.parse(path.read_text()))
            for path in PACKAGE.glob("*.py")}
    assert {name for name, used in uses.items() if used} == {"envelope.py"}


def test_a_public_scalar_walk_is_found():
    tree = ast.parse(
        "from .curve import mul_add, scalar_mul\n"
        "from . import curve\n"
        "def blind(r, P):\n"
        "    return curve.mul_add(r, r, P), mul_add(r, r, P)\n")
    assert _public_scalar_walks(tree) == {
        "import mul_add", "curve.mul_add", "mul_add"}


def _comb_walks(tree: ast.AST) -> set:
    """Each way `tree` reaches the comb, `curve._mul`: `import _mul`, or a
    read of `_mul` or `module._mul` named by the outermost function around
    it, with ` if <test>` for the innermost `if` branch it lies in."""
    found = set()

    def visit(node, function, branch):
        if isinstance(node, ast.ImportFrom):
            found.update(f"import {alias.name}" for alias in node.names
                         if alias.name == "_mul")
        elif ((isinstance(node, ast.Name) and node.id == "_mul")
              or (isinstance(node, ast.Attribute) and node.attr == "_mul")):
            found.add(f"{function} if {branch}" if branch else str(function))
        if isinstance(node, ast.FunctionDef) and function is None:
            function = node.name
        if isinstance(node, ast.If):
            test = ast.unparse(node.test)
            visit(node.test, function, branch)
            for child in node.body:
                visit(child, function, test)
            for child in node.orelse:
                visit(child, function, f"not ({test})")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function, branch)

    visit(tree, None, None)
    return found


def test_only_mul_add_and_the_toy_multiply_walk_the_comb():
    toy_branch = "scalar_mul if params.openssl_curve is None"
    uses = {path.name: _comb_walks(ast.parse(path.read_text()))
            for path in PACKAGE.glob("*.py")}
    offenders = {(name, use) for name, used in uses.items() for use in used
                 if name != "curve.py"
                 or not (use.split()[0] == "mul_add" or use == toy_branch)}
    assert offenders == set()
    assert toy_branch in uses["curve.py"]
    assert any(use.split()[0] == "mul_add" for use in uses["curve.py"])


def test_a_comb_walk_is_found():
    tree = ast.parse(
        "from .curve import _mul, scalar_mul\n"
        "from . import curve\n"
        "def blind(r, P):\n"
        "    if r.value:\n"
        "        return curve._mul(r.value, P)\n"
        "    else:\n"
        "        return _mul(r.value, P, 1)\n"
        "def widen(P):\n"
        "    return _mul(2, P)\n")
    assert _comb_walks(tree) == {
        "import _mul", "blind if r.value", "blind if not (r.value)", "widen"}
