"""Each name has one import path, and each trust boundary one row.

The first scan reads every module of `src/anoncert`, `tests` and
`perfbench` and lists each `from M import name` where M is a module of
this repository that only imports `name` (or names it nowhere) and `name`
is not a submodule of M.

`RULES` keeps the boundaries of the package. A row names what it guards,
then the places of `src/anoncert` allowed to reach it; every place must
reach it and nothing else may, under any `as` name an import gives it:

- `cryptography`: only `curve` and `envelope` import `cryptography`.
- `aead or kdf`: only `envelope`, which alone knows the ciphertext
  layouts, uses AES-GCM or HKDF.
- `signature`: only `certs` reaches `envelope.sign` or `verify`, a
  `tbs_bytes` builder or a message's signature field, so only `certs`
  pairs a message with the bytes its signature covers.
- `mul_add`: only `envelope.verify` calls `curve.mul_add`, whose
  variable-time comb walk takes u2, so only ECDSA verification's public
  scalars reach it.
- `_mul`: the comb, `curve._mul`, is called only in `curve.mul_add` and
  in `curve.scalar_mul`'s toy-curve branch.
- `public key load`: only `Point.openssl_key` builds an OpenSSL public
  key, so every point OpenSSL is handed has passed its identity and
  `is_on_curve` checks (OpenSSL alone would reduce a coordinate >= p)
  and is loaded once per `Point` object.
"""

import ast
import functools
from pathlib import Path

from anoncert import certs

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


SIGNATURE_FIELDS = {layout.signature for layout in certs.LAYOUT.values()}
TBS_BUILDERS = {f"certs.{name}" for name in vars(certs)
                if name.endswith("tbs_bytes")}

# row: the dotted names it guards, then the places allowed to reach them:
# a file, or file:scope for that class or function scope with its nested
# scopes and `if` branches, or file:import for the file's imports
RULES = {
    "cryptography": ({"cryptography"}, {"curve.py", "envelope.py"}),
    "aead or kdf": ({"aead", "AESGCM", "hkdf", "HKDF"}, {"envelope.py"}),
    "signature": ({"envelope.sign", "envelope.verify", *TBS_BUILDERS,
                   *SIGNATURE_FIELDS}, {"certs.py"}),
    "mul_add": ({"mul_add"}, {"envelope.py:import", "envelope.py:verify"}),
    "_mul": ({"_mul"}, {"curve.py:mul_add",
                        "curve.py:scalar_mul if params.openssl_curve is None"}),
    "public key load": ({"EllipticCurvePublicNumbers"},
                        {"curve.py:Point.openssl_key"}),
}


def _aliases(tree: ast.AST) -> dict:
    """The dotted name each `as` name of `tree`'s imports stands for: M
    for `import M as A`, P.N for `from P import N as A` (N alone when P
    is a bare relative `.`)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            aliases.update((alias.asname,
                            ".".join(filter(None, (module, alias.name))))
                           for alias in node.names if alias.asname)
    return aliases


def _uses(tree: ast.AST, names: set) -> set:
    """(where, name) of each import, bare read and `x.attr` read in `tree`
    of a dotted name with one of `names` as a run of its parts; a read
    through an import's `as` name is named by what it stands for. `where`
    is "import" for an import; for a read, the dotted class and function
    scope around it, with " if <test>" or " if not (<test>)" for the
    innermost `if` branch it lies in."""
    found, aliases = set(), _aliases(tree)

    def visit(node, scope, branch):
        where = ".".join(scope) + (f" if {branch}" if branch else "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            read = [("import", ".".join(filter(None, (module, alias.name))))
                    for alias in node.names]
        elif isinstance(node, ast.Name):
            read = [(where, aliases.get(node.id, node.id))]
        elif isinstance(node, ast.Attribute):
            base = getattr(node.value, "id", "")
            read = [(where, f"{aliases.get(base, base)}.{node.attr}")]
        else:
            read = []
        found.update(use for use in read
                     if any(f".{name}." in f".{use[1]}." for name in names))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.If):
            test = ast.unparse(node.test)
            visit(node.test, scope, branch)
            for child in node.body:
                visit(child, scope, test)
            for child in node.orelse:
                visit(child, scope, f"not ({test})")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope, branch)

    visit(tree, (), None)
    return found


def _covers(place: str, file: str, where: str) -> bool:
    path, _, scope = place.partition(":")
    return path == file and (not scope or where == scope or where.startswith(
        (f"{scope}.", f"{scope} if ")))


def _judge(row: str, sources) -> tuple:
    """(offenders, reached) for the rule `row` over `sources`, (file
    name, tree) pairs: each use of its names that none of its places
    covers, as (file, where, name), and the places that cover some use."""
    names, places = RULES[row]
    offenders, reached = set(), set()
    for file, tree in sources:
        for where, name in _uses(tree, names):
            covering = {place for place in places
                        if _covers(place, file, where)}
            reached |= covering
            if not covering:
                offenders.add((file, where, name))
    return offenders, reached


PACKAGE_SOURCES = [(path.name, ast.parse(path.read_text()))
                   for path in sorted(PACKAGE.glob("*.py"))]


def _holds(row: str):
    """Assert that the package reaches the names of the rule `row` at
    every place of the row and nowhere else."""
    assert _judge(row, PACKAGE_SOURCES) == (set(), RULES[row][1])


def _planted(row: str, file: str, snippet: str) -> set:
    """(where, name) of each offender of the rule `row` in `snippet`
    planted as `file`."""
    return {use[1:] for use in _judge(row, [(file, ast.parse(snippet))])[0]}


def test_only_curve_and_envelope_use_cryptography():
    _holds("cryptography")
    _holds("aead or kdf")


CRYPTOGRAPHY_IMPORTS = (
    "from cryptography.hazmat.primitives.ciphers.aead import AESGCM\n"
    "import cryptography.hazmat.primitives.kdf.hkdf\n"
    "from cryptography.hazmat.primitives.asymmetric import ec\n"
    "from .envelope import sym_encrypt\n")
AEAD = ("import", "cryptography.hazmat.primitives.ciphers.aead.AESGCM")
HKDF = ("import", "cryptography.hazmat.primitives.kdf.hkdf")


def test_a_cryptography_import_is_found():
    assert _planted("cryptography", "certs.py", CRYPTOGRAPHY_IMPORTS) == {
        AEAD, HKDF,
        ("import", "cryptography.hazmat.primitives.asymmetric.ec")}
    assert _planted("aead or kdf", "certs.py", CRYPTOGRAPHY_IMPORTS) == {
        AEAD, HKDF}


def test_only_certs_signs_and_checks_messages():
    _holds("signature")


def test_a_signature_check_by_hand_is_found():
    assert _planted("signature", "actors.py",
                    "from .envelope import digest, verify\n"
                    "from anoncert.certs import signed, tbs_bytes, verify_signed\n"
                    "from . import envelope\n"
                    "def check(req, key):\n"
                    "    return (verify(key, tbs_bytes(req), req.signature)\n"
                    "            and envelope.sign is not None\n"
                    "            and req.preexisting_cert.issuer_signature)\n"
                    ) == {
        ("import", "envelope.verify"),
        ("import", "anoncert.certs.tbs_bytes"),
        ("check", "envelope.sign"),
        ("check", "req.signature"),
        ("check", ".issuer_signature")}


def test_a_signature_check_through_an_alias_is_found():
    assert _planted("signature", "actors.py",
                    "from . import envelope as e\n"
                    "def check(req, key, tbs):\n"
                    "    return e.verify(key, tbs, None)\n"
                    ) == {("check", "envelope.verify")}
    assert _planted("signature", "actors.py",
                    "from . import certs as c\n"
                    "def check(req):\n"
                    "    return c.tbs_bytes(req)\n"
                    ) == {("check", "certs.tbs_bytes")}


def test_only_envelope_walks_public_scalars():
    _holds("mul_add")


def test_a_public_scalar_walk_is_found():
    assert _planted("mul_add", "actors.py",
                    "from .curve import mul_add, scalar_mul\n"
                    "from . import curve\n"
                    "def blind(r, P):\n"
                    "    return curve.mul_add(r, r, P), mul_add(r, r, P)\n"
                    ) == {("import", "curve.mul_add"),
                          ("blind", "curve.mul_add"),
                          ("blind", "mul_add")}
    # envelope may import mul_add, and call it only in verify
    assert _planted("mul_add", "envelope.py",
                    "from .curve import mul_add\n"
                    "def ecies_encrypt(recipient_public, plaintext, rng):\n"
                    "    return mul_add(rng, rng, recipient_public)\n"
                    "def verify(signer_public, message, sig):\n"
                    "    return mul_add(sig.r, sig.s, signer_public)\n"
                    ) == {("ecies_encrypt", "mul_add")}
    # an allowed import under another name is still mul_add where it is called
    assert _planted("mul_add", "envelope.py",
                    "from .curve import mul_add as walk\n"
                    "def ecies_encrypt(recipient_public, plaintext, rng):\n"
                    "    return walk(rng, rng, recipient_public)\n"
                    ) == {("ecies_encrypt", "curve.mul_add")}


def test_only_mul_add_and_the_toy_multiply_walk_the_comb():
    _holds("_mul")


def test_a_comb_walk_is_found():
    assert _planted("_mul", "actors.py",
                    "from .curve import _mul, scalar_mul\n"
                    "from . import curve\n"
                    "def blind(r, P):\n"
                    "    if r.value:\n"
                    "        return curve._mul(r.value, P)\n"
                    "    else:\n"
                    "        return _mul(r.value, P, 1)\n"
                    "def widen(P):\n"
                    "    return _mul(2, P)\n") == {
        ("import", "curve._mul"),
        ("blind if r.value", "curve._mul"),
        ("blind if not (r.value)", "_mul"),
        ("widen", "_mul")}


def test_only_point_openssl_key_loads_a_public_key():
    _holds("public key load")


def test_a_public_key_load_is_found():
    # a synthetic envelope.py that loads its ECDH peer by hand
    assert _planted(
        "public key load", "envelope.py",
        "from cryptography.hazmat.primitives.asymmetric import ec\n"
        "from cryptography.hazmat.primitives.asymmetric.ec import (\n"
        "    EllipticCurvePublicNumbers as Numbers)\n"
        "def _ecdh_key(private, peer, invalid_peer):\n"
        "    key = private.openssl_key\n"
        "    return key.exchange(ec.ECDH(), ec.EllipticCurvePublicNumbers(\n"
        "        peer.x, peer.y, key.curve).public_key())\n") == {
        ("import",
         "cryptography.hazmat.primitives.asymmetric.ec"
         ".EllipticCurvePublicNumbers"),
        ("_ecdh_key", "ec.EllipticCurvePublicNumbers")}
