"""AST implementations of the numeric-kernel purity rules REP101 and REP102.

These rules are scoped (via :attr:`Rule.scope_paths`) to kernel
directories — ``sim/columnar/`` today — because they guard the
columnar engine's bit-identity with the scalar one, not general Python
hygiene: every dtype transition explicit (REP101), every reduction over
a deterministically ordered sequence (REP102).

The dtype inference is per-file and deliberately shallow: names and
``self.*`` attributes assigned from numpy constructors with a known
dtype (or ``.astype``) are classified as ``int``/``float``/``bool``
arrays; everything else is unknown and never flagged.  Shallow
inference means the family only fires where it is *sure*, which is what
lets it gate at zero.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .findings import RULES, Finding

__all__ = ["check_numeric"]

#: dtype names (numpy attributes or builtins) → kind buckets.
_INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "intp", "int_", "uint8", "uint16",
     "uint32", "uint64", "uintp", "int"}
)
_FLOAT_DTYPES = frozenset({"float16", "float32", "float64", "float_", "float"})
_BOOL_DTYPES = frozenset({"bool_", "bool"})

#: numpy constructors that default to float64 when no dtype is given.
_FLOAT_DEFAULT_CTORS = frozenset(
    {"zeros", "ones", "empty", "full", "linspace", "eye", "identity"}
)
#: numpy constructors whose dtype follows their template argument.
_LIKE_CTORS = frozenset({"zeros_like", "ones_like", "empty_like", "full_like"})

#: numpy reductions whose implicit upcast REP101 polices on bool input.
_SUM_REDUCTIONS = frozenset({"sum", "dot"})

#: Kinds that mean "definitely an ndarray of this dtype family".
_ARRAY_KINDS = frozenset({"int", "float", "bool", "array"})


def _last_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dtype_kind(node: ast.expr) -> str | None:
    """Classify a ``dtype=`` argument expression."""
    name = _last_name(node)
    if name is None and isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name in _INT_DTYPES:
        return "int"
    if name in _FLOAT_DTYPES:
        return "float"
    if name in _BOOL_DTYPES:
        return "bool"
    return None


@dataclass
class _Scope:
    names: dict[str, str | None]


class NumericVisitor(ast.NodeVisitor):
    """Single-pass checker for REP101 and REP102 (raw findings)."""

    def __init__(self, path: str, source_lines: list[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: list[Finding] = []
        self._numpy_aliases: set[str] = set()
        self._scopes: list[_Scope] = [_Scope({})]
        #: ``self.<attr>`` → kind, collected file-wide in a pre-pass.
        self._attr_kinds: dict[str, str | None] = {}
        self._occurrences: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, node: ast.AST, rule_id: str, message: str) -> None:
        hint = RULES[rule_id].hint
        if hint:
            message = f"{message} — fix: {hint}"
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
    # Pre-pass: numpy aliases + self-attribute dtype kinds, file-wide
    # ------------------------------------------------------------------
    def collect_file_facts(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self._numpy_aliases.add(alias.asname or "numpy")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                kind = self._classify(node.value)
                if kind not in _ARRAY_KINDS:
                    continue  # unknown assignments never override a known kind
                known = self._attr_kinds.get(target.attr)
                if target.attr in self._attr_kinds and known is None:
                    continue  # already marked conflicting
                if known is not None and known != kind:
                    self._attr_kinds[target.attr] = None  # conflict: trust neither
                else:
                    self._attr_kinds[target.attr] = kind

    # ------------------------------------------------------------------
    # Scope handling
    # ------------------------------------------------------------------
    def _push(self) -> None:
        self._scopes.append(_Scope({}))

    def _pop(self) -> None:
        self._scopes.pop()

    def _bind(self, name: str, kind: str | None) -> None:
        self._scopes[-1].names[name] = kind

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope.names:
                return scope.names[name]
        return None

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._push()
        self.generic_visit(node)
        self._pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self._classify(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, kind)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # the loop target shadows whatever array the name held before
        if isinstance(node.target, ast.Name):
            self._bind(node.target.id, None)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Classification: expression → int/float/bool array, set, or None
    # ------------------------------------------------------------------
    def _is_numpy(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self._numpy_aliases

    def _classify(self, node: ast.expr) -> str | None:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self._attr_kinds.get(node.attr)
        if isinstance(node, ast.Subscript):
            # indexing preserves dtype (basic and fancy alike)
            base = self._classify(node.value)
            return base if base in _ARRAY_KINDS else None
        if isinstance(node, ast.Compare):
            # array comparison yields a bool array when a side is known
            operands = [node.left, *node.comparators]
            if any(self._classify(op) in _ARRAY_KINDS for op in operands):
                return "bool"
            return None
        if isinstance(node, ast.BinOp):
            left = self._classify(node.left)
            right = self._classify(node.right)
            kinds = {left, right} & _ARRAY_KINDS
            if not kinds:
                return None
            if isinstance(node.op, ast.Div):
                return "float"
            if "float" in kinds:
                return "float"
            if kinds == {"int"}:
                return "int"
            return "array"
        if isinstance(node, ast.Call):
            return self._classify_call(node)
        return None

    def _classify_call(self, node: ast.Call) -> str | None:
        func = node.func
        name = _last_name(func)
        if name == "astype":
            if node.args:
                kind = _dtype_kind(node.args[0])
                return kind if kind is not None else "array"
            return "array"
        if name in ("tolist", "item"):
            return None  # explicitly boxed out of array-land
        if isinstance(func, ast.Attribute) and name in ("set", "frozenset"):
            return None
        if isinstance(func, ast.Name) and name in ("set", "frozenset"):
            return "set"
        if not (isinstance(func, ast.Attribute) and self._is_numpy(func.value)):
            return None
        dtype_kw = next(
            (kw.value for kw in node.keywords if kw.arg == "dtype"), None
        )
        if dtype_kw is not None:
            kind = _dtype_kind(dtype_kw)
            return kind if kind is not None else "array"
        if name in _LIKE_CTORS and node.args:
            template = self._classify(node.args[0])
            return template if template in _ARRAY_KINDS else "array"
        if name in _FLOAT_DEFAULT_CTORS:
            return "float"
        if name == "arange":
            if node.args and all(
                isinstance(arg, ast.Constant) and isinstance(arg.value, int)
                for arg in node.args
            ):
                return "int"
            return "array"
        if name in ("array", "asarray", "ascontiguousarray", "sort", "where",
                    "minimum", "maximum", "abs", "clip"):
            return "array"
        return None

    # ------------------------------------------------------------------
    # REP101 — implicit dtype promotion
    # ------------------------------------------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        left = self._classify(node.left)
        right = self._classify(node.right)
        if isinstance(node.op, ast.Div) and "int" in (left, right):
            self._emit(
                node, "REP101",
                "true division involving an int64 array promotes to "
                "float64 implicitly",
            )
        elif (
            isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.MatMult))
            and {left, right} == {"int", "float"}
        ):
            self._emit(
                node, "REP101",
                "arithmetic mixes int64 and float64 arrays; the promotion "
                "is implicit",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = _last_name(func)
        has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
        # np.sum / np.dot over a known-bool array without an explicit dtype
        if (
            isinstance(func, ast.Attribute)
            and self._is_numpy(func.value)
            and name in _SUM_REDUCTIONS
            and not has_dtype
            and any(self._classify(arg) == "bool" for arg in node.args)
        ):
            self._emit(
                node, "REP101",
                f"np.{name} over a bool array upcasts implicitly",
            )
        # bool_array.sum() method form
        elif (
            isinstance(func, ast.Attribute)
            and name == "sum"
            and not has_dtype
            and self._classify(func.value) == "bool"
        ):
            self._emit(
                node, "REP101",
                ".sum() on a bool array upcasts implicitly",
            )
        self._check_rep102_call(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # REP102 — order-sensitive reductions over unordered input
    # ------------------------------------------------------------------
    def _is_unordered(self, node: ast.expr) -> bool:
        if self._classify(node) == "set":
            return True
        if isinstance(node, ast.GeneratorExp):
            return any(
                self._classify(gen.iter) == "set" for gen in node.generators
            )
        return False

    def _check_rep102_call(self, node: ast.Call) -> None:
        func = node.func
        name = _last_name(func)
        reducers = name in ("sum", "fsum") and (
            isinstance(func, ast.Name)
            or (isinstance(func, ast.Attribute) and _last_name(func.value) == "math")
        )
        np_consumers = (
            isinstance(func, ast.Attribute)
            and self._is_numpy(func.value)
            and name in ("fromiter", "array", "asarray")
        )
        if not (reducers or np_consumers):
            return
        for arg in node.args:
            if self._is_unordered(arg):
                what = "a set" if not isinstance(arg, ast.GeneratorExp) else (
                    "a generator over a set"
                )
                self._emit(
                    node, "REP102",
                    f"{name}() consumes {what} in hash order; float "
                    "accumulation order changes the result bits",
                )
                return


def check_numeric(
    path: str, source: str, tree: ast.Module | None = None
) -> list[Finding]:
    """Run the REP1xx family over one file (raw findings; the engine
    applies scope/noqa/baseline).  Raises SyntaxError on parse failure."""
    if tree is None:
        tree = ast.parse(source, filename=path)
    visitor = NumericVisitor(path, source.splitlines())
    visitor.collect_file_facts(tree)
    visitor.visit(tree)
    visitor.findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return visitor.findings
