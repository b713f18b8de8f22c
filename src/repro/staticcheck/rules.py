"""AST implementations of the determinism rules REP001, REP002, REP003
and REP006.

One :class:`DeterminismVisitor` pass per file implements every rule.
The visitor keeps three kinds of state:

* import tables — which local names are bound to ``random``, ``numpy``,
  ``time`` and ``datetime`` (modules, submodules and imported
  functions), so aliased use (``import numpy as np``) is still caught;
* a lexical scope stack for REP003's light type inference — names
  assigned or annotated as ``set``/``frozenset`` (and ``self.attr``
  annotations anywhere in the file) are tracked so iteration over them
  can be classified;
* a set of AST node ids already consumed by an enclosing construct
  (a call's ``func``, an order-insensitive reduction's argument), so a
  node is reported at most once and ``sorted(s)`` exempts ``s``.

The inference is deliberately heuristic: a linter that needs whole
program type analysis to say anything is a linter nobody runs.  False
positives are handled with ``# repro: noqa[REPxxx]`` on the line.
"""

from __future__ import annotations

import ast

from .findings import Finding

__all__ = ["check_module"]

# --- REP001 tables --------------------------------------------------------
#: numpy.random attributes that are deterministic *classes*, fine to
#: reference (constructing a seeded generator is the RngTree's own idiom).
_NP_RANDOM_CLASSES = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
     "Philox", "MT19937", "SFC64"}
)
#: Constructors that are fine *only when given an explicit seed*.
_SEED_REQUIRED = frozenset({"Random", "RandomState", "default_rng"})

# --- REP002 tables --------------------------------------------------------
_TIME_READS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
     "clock_gettime_ns", "localtime", "gmtime"}
)
_DATETIME_CLASSES = frozenset({"datetime", "date"})
_DATETIME_READS = frozenset({"now", "utcnow", "today"})

# --- REP003 tables --------------------------------------------------------
#: Builtins whose result does not depend on argument iteration order.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset",
     "sum"}
)
#: Builtins that materialise or linearise iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "iter", "enumerate", "zip"})
#: Set-algebra methods that yield a set.
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference", "copy"}
)
#: Calls allowed inside a loop over a set without making it
#: order-sensitive (keyed updates and order-free reductions).
_SAFE_BODY_CALLS = frozenset(
    {"len", "min", "max", "sum", "any", "all", "abs", "float", "int", "bool",
     "str", "set", "frozenset", "sorted", "isinstance", "repr", "round"}
)
_SAFE_BODY_METHODS = frozenset(
    {"add", "discard", "remove", "get", "setdefault", "update", "append_to"}
)
#: Method names that look like RNG draws — drawing per element of a set
#: consumes the stream in hash order.
_RNG_DRAW_METHODS = frozenset(
    {"random", "choice", "shuffle", "integers", "normal", "uniform",
     "standard_normal", "binomial", "poisson", "sample", "randint",
     "permutation", "exponential"}
)

_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)

# --- REP006 tables --------------------------------------------------------
_RNG_TREE_METHODS = frozenset({"stream", "fresh", "child"})


def _last_name(node: ast.expr) -> str | None:
    """Trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_int_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


class DeterminismVisitor(ast.NodeVisitor):
    """Single-pass checker producing raw findings (no noqa/baseline yet)."""

    def __init__(self, path: str, source_lines: list[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: list[Finding] = []
        # Import tables (module-level and local imports both land here;
        # per-file granularity is plenty for a lint heuristic).
        self._random_modules: set[str] = set()
        self._random_funcs: dict[str, str] = {}
        self._numpy_modules: set[str] = set()
        self._numpy_random_modules: set[str] = set()
        self._numpy_random_funcs: dict[str, str] = {}
        self._time_modules: set[str] = set()
        self._time_funcs: dict[str, str] = {}
        self._datetime_modules: set[str] = set()
        self._datetime_classes: set[str] = set()
        # REP003 scope stack: innermost last; each maps name -> kind
        # ("set" or None for explicitly-shadowed).
        self._scopes: list[dict[str, str | None]] = [{}]
        # `self.<attr>` annotations seen anywhere in the file.
        self._attr_kinds: dict[str, str] = {}
        # Node ids already handled by an enclosing construct.
        self._consumed: set[int] = set()
        # Per-(rule, snippet) occurrence counters for fingerprints.
        self._occurrences: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, node: ast.AST, rule_id: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.lines[line - 1].strip() if line - 1 < len(self.lines) else ""
        key = (rule_id, snippet)
        occurrence = self._occurrences.get(key, 0)
        self._occurrences[key] = occurrence + 1
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=col + 1,
                rule_id=rule_id,
                message=message,
                snippet=snippet,
                occurrence=occurrence,
            )
        )

    # ------------------------------------------------------------------
    # Pre-pass: collect `self.attr: set[...]` annotations file-wide
    # ------------------------------------------------------------------
    def collect_attribute_annotations(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.AnnAssign):
                continue
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                kind = self._annotation_kind(node.annotation)
                if kind is not None:
                    self._attr_kinds[target.attr] = kind

    @staticmethod
    def _annotation_kind(annotation: ast.expr) -> str | None:
        base: ast.expr = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        name = _last_name(base)
        if name in _SET_ANNOTATIONS:
            return "set"
        return None

    # ------------------------------------------------------------------
    # Imports
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_modules.add(bound)
            elif alias.name == "numpy":
                self._numpy_modules.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self._numpy_random_modules.add(alias.asname)
                else:  # `import numpy.random` binds `numpy`
                    self._numpy_modules.add("numpy")
            elif alias.name == "time":
                self._time_modules.add(bound)
            elif alias.name == "datetime":
                self._datetime_modules.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "random":
                self._random_funcs[bound] = alias.name
            elif module == "numpy" and alias.name == "random":
                self._numpy_random_modules.add(bound)
            elif module == "numpy.random":
                self._numpy_random_funcs[bound] = alias.name
            elif module == "time":
                self._time_funcs[bound] = alias.name
            elif module == "datetime" and alias.name in _DATETIME_CLASSES:
                self._datetime_classes.add(bound)

    # ------------------------------------------------------------------
    # Scope handling (REP003 inference)
    # ------------------------------------------------------------------
    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _bind(self, name: str, kind: str | None) -> None:
        self._scopes[-1][name] = kind

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._push_scope()
        args = node.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            if arg.annotation is not None:
                kind = self._annotation_kind(arg.annotation)
                if kind is not None:
                    self._bind(arg.arg, kind)
        self.generic_visit(node)
        self._pop_scope()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self._classify(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, kind)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        kind = self._annotation_kind(node.annotation)
        if kind is None and node.value is not None:
            kind = self._classify(node.value)
        if isinstance(node.target, ast.Name):
            self._bind(node.target.id, kind)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # REP003 — set-typed expression classification
    # ------------------------------------------------------------------
    def _classify(self, node: ast.expr) -> str | None:
        """'set' when the expression is confidently set-valued."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            func_name = _last_name(node.func)
            if isinstance(node.func, ast.Name) and func_name in ("set", "frozenset"):
                return "set"
            if (
                isinstance(node.func, ast.Attribute)
                and func_name in _SET_METHODS
                and self._classify(node.func.value) == "set"
            ):
                return "set"
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self._classify_or_dict_view(node.left)
            right = self._classify_or_dict_view(node.right)
            if "set" in (left, right):
                return "set"
            # dict-view algebra (`a.keys() & b.keys()`) yields a set
            if left == "dict-view" and right == "dict-view":
                return "set"
            return None
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self._attr_kinds.get(node.attr)
        return None

    def _classify_or_dict_view(self, node: ast.expr) -> str | None:
        kind = self._classify(node)
        if kind is not None:
            return kind
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "items")
            and not node.args
        ):
            return "dict-view"
        return None

    # ------------------------------------------------------------------
    # REP003 — iteration sinks
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if id(node.iter) not in self._consumed and self._classify(node.iter) == "set":
            reason = self._body_order_sensitivity(node.body)
            if reason is not None:
                self._emit(
                    node.iter,
                    "REP003",
                    f"iterating a set in hash order feeds {reason}; "
                    "wrap the iterable in sorted(...)",
                )
        self.generic_visit(node)

    def _body_order_sensitivity(self, body: list[ast.stmt]) -> str | None:
        """Why the loop body is ordering-sensitive, or None if it is not."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Break, ast.Return)):
                    return "a first-match selection (break/return)"
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    return "an ordered yield sequence"
                if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add):
                    if not _is_int_literal(sub.value):
                        return "an order-dependent accumulation (+=)"
                if isinstance(sub, ast.Call):
                    name = _last_name(sub.func)
                    if name in ("append", "extend", "insert"):
                        return "list building"
                    if name in _RNG_DRAW_METHODS:
                        return "RNG draws (stream consumed in hash order)"
                    if isinstance(sub.func, ast.Name):
                        if name not in _SAFE_BODY_CALLS:
                            return f"a call to {name}() whose order may matter"
                    elif name not in _SAFE_BODY_METHODS and name not in _SET_METHODS:
                        return f"a call to .{name}() whose order may matter"
        return None

    def _check_comprehension(
        self, node: ast.ListComp | ast.GeneratorExp | ast.SetComp | ast.DictComp
    ) -> None:
        order_sensitive = isinstance(node, (ast.ListComp, ast.GeneratorExp))
        exempt = id(node) in self._consumed
        self._push_scope()
        for comp in node.generators:
            if (
                order_sensitive
                and not exempt
                and id(comp.iter) not in self._consumed
                and self._classify(comp.iter) == "set"
            ):
                self._emit(
                    comp.iter,
                    "REP003",
                    "building an ordered sequence from set iteration; "
                    "wrap the iterable in sorted(...)",
                )
            # bind the loop target so nested use doesn't misclassify
            if isinstance(comp.target, ast.Name):
                self._bind(comp.target.id, None)
        self.generic_visit(node)
        self._pop_scope()

    visit_ListComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension

    # ------------------------------------------------------------------
    # Calls: REP001/REP002 dispatch, REP003 sinks, REP006
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        # The func node is reported through call-aware logic below, not
        # as a bare reference.
        self._consumed.add(id(node.func))
        func_name = _last_name(node.func)

        # REP003: order-insensitive reductions exempt their argument...
        if isinstance(node.func, ast.Name) and func_name in _ORDER_INSENSITIVE_CALLS:
            for arg in node.args:
                self._consumed.add(id(arg))
        # ...order-sensitive builtins flag set-typed arguments.
        elif isinstance(node.func, ast.Name) and func_name in _ORDER_SENSITIVE_CALLS:
            for arg in node.args:
                if id(arg) not in self._consumed and self._classify(arg) == "set":
                    self._emit(
                        arg,
                        "REP003",
                        f"{func_name}() materialises set hash order; "
                        "wrap the set in sorted(...)",
                    )
        elif func_name == "join" and isinstance(node.func, ast.Attribute):
            for arg in node.args:
                if self._classify(arg) == "set":
                    self._emit(
                        arg,
                        "REP003",
                        "str.join over a set concatenates in hash order; "
                        "wrap the set in sorted(...)",
                    )
        # star-unpacking a set linearises hash order
        for arg in node.args:
            if isinstance(arg, ast.Starred) and self._classify(arg.value) == "set":
                self._emit(
                    arg,
                    "REP003",
                    "*-unpacking a set passes arguments in hash order; "
                    "wrap the set in sorted(...)",
                )

        self._check_rep001_call(node)
        self._check_rep002_call(node)
        self._check_rep006_call(node)
        self.generic_visit(node)

    # --- REP001 -------------------------------------------------------
    def _check_rep001_call(self, node: ast.Call) -> None:
        func = node.func
        has_args = bool(node.args or node.keywords)
        if isinstance(func, ast.Name):
            origin = self._random_funcs.get(func.id)
            if origin is not None:
                if origin == "Random":
                    if not has_args:
                        self._emit(
                            node, "REP001",
                            "unseeded random.Random(); pass an explicit seed",
                        )
                elif origin == "SystemRandom":
                    self._emit(
                        node, "REP001",
                        "random.SystemRandom is nondeterministic by design",
                    )
                else:
                    self._emit(
                        node, "REP001",
                        f"random.{origin}() draws from the global RNG; use a "
                        "seeded rng_tree stream",
                    )
                return
            np_origin = self._numpy_random_funcs.get(func.id)
            if np_origin is not None:
                self._flag_numpy_random_attr(node, np_origin, has_args)
                return
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in self._random_modules:
                attr = func.attr
                if attr == "Random":
                    if not has_args:
                        self._emit(
                            node, "REP001",
                            "unseeded random.Random(); pass an explicit seed",
                        )
                elif attr == "SystemRandom":
                    self._emit(
                        node, "REP001",
                        "random.SystemRandom is nondeterministic by design",
                    )
                else:
                    self._emit(
                        node, "REP001",
                        f"random.{attr}() draws from the global RNG; use a "
                        "seeded rng_tree stream",
                    )
                return
            if self._is_numpy_random_base(func.value):
                self._flag_numpy_random_attr(node, func.attr, has_args)

    def _flag_numpy_random_attr(self, node: ast.Call, attr: str, has_args: bool) -> None:
        if attr in _NP_RANDOM_CLASSES:
            return
        if attr in _SEED_REQUIRED:
            if not has_args:
                self._emit(
                    node, "REP001",
                    f"unseeded numpy.random.{attr}(); pass an explicit seed "
                    "or derive from rng_tree",
                )
            return
        self._emit(
            node, "REP001",
            f"numpy.random.{attr}() uses numpy's global RNG state; use a "
            "seeded rng_tree stream",
        )

    def _is_numpy_random_base(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._numpy_random_modules
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._numpy_modules
        )

    # --- REP002 -------------------------------------------------------
    def _check_rep002_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            origin = self._time_funcs.get(func.id)
            if origin in _TIME_READS:
                self._emit(
                    node, "REP002",
                    f"time.{origin}() reads the wall clock; timing belongs "
                    "in obs/profiler.py",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if self._is_time_module_attr(func):
            self._emit(
                node, "REP002",
                f"time.{func.attr}() reads the wall clock; timing belongs "
                "in obs/profiler.py",
            )
            return
        if func.attr in _DATETIME_READS and self._is_datetime_class(func.value):
            self._emit(
                node, "REP002",
                f"datetime .{func.attr}() reads the wall clock; derive "
                "timestamps from the epoch counter instead",
            )

    def _is_time_module_attr(self, node: ast.Attribute) -> bool:
        return (
            node.attr in _TIME_READS
            and isinstance(node.value, ast.Name)
            and node.value.id in self._time_modules
        )

    def _is_datetime_class(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._datetime_classes
        return (
            isinstance(node, ast.Attribute)
            and node.attr in _DATETIME_CLASSES
            and isinstance(node.value, ast.Name)
            and node.value.id in self._datetime_modules
        )

    # --- REP006 -------------------------------------------------------
    def _check_rep006_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _RNG_TREE_METHODS:
            return
        if not self._is_rng_tree_receiver(func.value):
            return
        if not node.args:
            return
        name_arg = node.args[0]
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            self._emit(
                node, "REP006",
                f"rng stream name passed to .{func.attr}() is not a string "
                "literal; the stream registry must stay statically auditable",
            )

    @staticmethod
    def _is_rng_tree_receiver(node: ast.expr) -> bool:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on exprs
            return False
        tail = text.rsplit(".", 1)[-1]
        return (
            tail in ("rng_tree", "rngtree", "tree", "_rng_tree")
            or "RngTree(" in text
        )

    # ------------------------------------------------------------------
    # Bare references (callbacks like `default_factory=time.time`)
    # ------------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) not in self._consumed:
            if self._is_time_module_attr(node):
                self._emit(
                    node, "REP002",
                    f"reference to time.{node.attr} (wall-clock read when "
                    "called); timing belongs in obs/profiler.py",
                )
            elif (
                isinstance(node.value, ast.Name)
                and node.value.id in self._random_modules
                and node.attr not in ("Random", "SystemRandom")
                and not node.attr.startswith("_")
                and node.attr.islower()
            ):
                self._emit(
                    node, "REP001",
                    f"reference to random.{node.attr} (global-RNG draw when "
                    "called); use a seeded rng_tree stream",
                )
            elif self._is_numpy_random_base(node.value) and node.attr not in (
                _NP_RANDOM_CLASSES | _SEED_REQUIRED
            ):
                self._emit(
                    node, "REP001",
                    f"reference to numpy.random.{node.attr}; use a seeded "
                    "rng_tree stream",
                )
        self.generic_visit(node)


def check_module(
    path: str, source: str, tree: ast.Module | None = None
) -> list[Finding]:
    """Run every determinism rule over one file's source; returns raw
    findings (suppression and baseline are applied by the engine).

    Raises :class:`SyntaxError` when the source does not parse.
    """
    if tree is None:
        tree = ast.parse(source, filename=path)
    visitor = DeterminismVisitor(path, source.splitlines())
    visitor.collect_attribute_annotations(tree)
    visitor.visit(tree)
    visitor.findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return visitor.findings
