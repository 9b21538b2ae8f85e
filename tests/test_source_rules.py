import ast
import importlib
import inspect
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "seqspectrum").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _linalg_uses(tree):
    """(line, name) for every numpy.linalg attribute or import in a module."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
        ):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name == "linalg")
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name == "numpy.linalg")


def test_library_uses_no_numpy_linalg_decompositions():
    assert SOURCES
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
        if name != "norm"
    ]
    assert offenders == []


#: Where plain ``np.linalg.norm`` may run, with the reason it is safe
#: there; every other norm of caller data is ``linalg._row_norms``, which
#: neither under- nor overflows, or ``linalg._plain_norms``, its bits.
PLAIN_NORM_SITES = {
    "sequences.py: _unit_vector": "a Gaussian draw of its own, of norm near sqrt(2 d)",
}


def test_plain_vector_norms_run_only_where_allowed():
    offenders = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            site = f"{path.name}: {getattr(top, 'name', '')}"
            if path.name not in PLAIN_NORM_SITES and site not in PLAIN_NORM_SITES:
                offenders += [f"{site}, line {line}" for line, name in _linalg_uses(top) if name == "norm"]
    assert offenders == []


def _callers(name):
    """``file: top-level name`` for every call of ``name`` in the library."""
    return sorted(
        f"{path.name}: {top.name}"
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
    )


def test_one_least_squares_fit_serves_every_slope():
    # the log-log fit of norms against the index is trend._log_log_slope
    assert _callers("least_squares_slope") == ["resolvent.py: pole_order_probe", "trend.py: _log_log_slope"]


def test_the_parser_never_simulates():
    # a system's trajectory comes from the simulate commands, which a scan reads as a report envelope
    assert [site for site in _callers("simulate_delay") if site.startswith("serialize.py")] == []


def test_one_helper_draws_every_seeded_direction():
    # sequences._decaying_term builds every vanishing term, descriptor decay and forcing alike
    assert _callers("_unit_vector") == ["corpus.py: generate_corpus", "sequences.py: _decaying_term"]


def test_json_encoder_runs_once_per_report():
    # serialize._layout lays out every report itself; json.dumps writes only the CLI's one-line error
    assert _callers("dumps") == ["cli.py: main"]
    (serialize,) = [path for path in SOURCES if path.name == "serialize.py"]
    tree = ast.parse(serialize.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "re" not in imported


def test_power_of_two_scaling_lives_in_linalg():
    # magnitudes are kept in range by linalg._pow2_scaled and brought back by linalg._pow2_unscaled
    callers = sorted(
        {
            path.name
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("ldexp", "frexp")
        }
    )
    assert callers == ["linalg.py"]


def test_linalg_divides_no_array_in_place():
    # every complex-by-real quotient of the kernels is linalg._div_real's
    # product by the reciprocal, numpy's own arithmetic without its full
    # complex quotient
    (path,) = [path for path in SOURCES if path.name == "linalg.py"]
    offenders = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)
    ]
    assert offenders == []


def _unused_imports(tree):
    """(line, name) for every name a module imports but never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_library_has_no_unused_imports():
    # __init__.py imports only to re-export
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def _defaulted_params(tree):
    """(function, parameter, position) for every defaulted parameter of a
    module-level function; position is None for keyword-only ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield node.name, positional[i].arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _passed_params(trees):
    """(callee name, positional argument nodes or None when starred,
    keyword argument nodes by name) for every call; a ``**`` argument,
    under the name None, counts as passing every keyword."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, None if starred else node.args, {k.arg: k.value for k in node.keywords}


def _restates(node, default):
    """Whether an argument is a literal equal to the parameter's default,
    which leaves the default as it is."""
    try:
        return ast.literal_eval(node) == default
    except ValueError:  # not a literal
        return False


def _unset_defaults():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + TESTS}
    calls: dict[str, list] = {}
    for name, args, keywords in _passed_params(trees.values()):
        calls.setdefault(name, []).append((args, keywords))
    unset = []
    for path in SOURCES:
        module = importlib.import_module("seqspectrum" if path.stem == "__init__" else f"seqspectrum.{path.stem}")
        for func, param, pos in _defaulted_params(trees[path]):
            default = inspect.signature(getattr(module, func)).parameters[param].default
            if not any(
                args is None
                or None in keywords
                or (param in keywords and not _restates(keywords[param], default))
                or (pos is not None and len(args) > pos and not _restates(args[pos], default))
                for args, keywords in calls.get(func, [])
            ):
                unset.append(f"{path.name}: {func}({param})")
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no call overrides, or that calls only restate, is a
    # constant in disguise
    assert _unset_defaults() == []


def _broad_handlers(tree):
    """Line of every bare ``except``, ``except Exception`` and
    ``except BaseException``, alone or in a tuple."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")) for t in caught):
                yield node.lineno


def test_library_catches_no_broad_exceptions():
    # a broad catch turns a bug into whatever error the handler raises
    offenders = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _broad_handlers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def _orphaned_private_defs(trees):
    """``file: name`` for every module-level function or class whose name
    starts with ``_`` and that no code in ``trees`` reads outside its own
    body."""
    for path, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_")):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(
                id(n) not in own
                and ((isinstance(n, ast.Name) and n.id == node.name) or (isinstance(n, ast.Attribute) and n.attr == node.name))
                for other in trees.values()
                for n in ast.walk(other)
            ):
                yield f"{path.name}: {node.name}"


def test_library_has_no_orphaned_private_helpers():
    # a private helper only its own body or the tests call is dead code a
    # refactor left behind
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert list(_orphaned_private_defs(trees)) == []


def test_library_defines_no_alternate_constructors():
    # each object has one constructor; a classmethod would be a second way to build it
    offenders = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(ast.unparse(d) == "classmethod" for d in node.decorator_list)
    ]
    assert offenders == []


def test_one_eigenvalue_kernel_serves_spectrum_info_and_poly_roots():
    # eigen._eigenvalues (Householder-Hessenberg plus Aberth-Ehrlich steps on
    # Hyman's determinant) is the one eigenvalue path: poly_roots hands it the
    # companion matrix, and no root-iteration constant is left
    assert _callers("_eigenvalues") == ["eigen.py: poly_roots", "eigen.py: spectrum_info"]
    constants = [
        f"{path.name}: {node.id}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id.startswith("_ROOT_")
    ]
    assert constants == []
    # each caller imports spectrum_info by name, so one binding per module can wrap it
    eigen = importlib.import_module("seqspectrum.eigen")
    for module in ("sequences", "resolvent", "dynamics"):
        assert importlib.import_module(f"seqspectrum.{module}").spectrum_info is eigen.spectrum_info
