"""Concurrency rules: lock discipline for threaded code.

The daemon serves its clients from one selector loop and needs no
locks, but threaded code remains (the :mod:`repro.obs.metrics`
registry, which an embedding program may use from several threads)
and may be added again. Nothing in a per-file linter can see whether
such a discipline
actually holds — which attribute a lock protects, whether two locks
are ever taken in both orders, whether a blocking call sits inside a
critical section. These rules rebuild exactly that picture from the
:class:`~repro.lint.project.Project` model.

The analysis, per class:

* **lock discovery** — ``self.X = threading.Lock()/RLock()``, own and
  inherited;
* **receiver typing** — ``other.attr`` accesses resolve through
  parameter annotations, ``self.Y: T``/``self.Y = T(...)``/``self.Y =
  <annotated param>`` assignments, annotated locals, and a small
  forward flow for container elements (``conns =
  list(self._conns.values())`` followed by ``for conn in conns:``
  types ``conn`` from ``self._conns: dict[int, Conn]``);
* **held contexts** — a statement's set of held locks follows nested
  ``with self.X:`` blocks *plus* private-method propagation: a
  ``_method`` only ever called with a lock held is analysed as holding
  it (``_handle_run`` inherits ``handle``'s lock). Methods that
  are referenced as values but never called (listener callbacks) get
  an unknown context and are exempt rather than guessed — except
  thread targets, which are known roots entered with nothing held;
* **thread roots** — methods passed as ``threading.Thread(target=...)``
  each root their reachable (via self-calls) methods in their own
  thread; public methods root in the caller's thread (``<caller>``).

Three rules consume the model:

``conc-unguarded-write``
    In a lock-owning class: an attribute written both under a held own
    lock and outside one (construction exempt) — the lock is evidently
    meant to protect it, and the unguarded write escapes. In a
    thread-*spawning* class additionally: an attribute mutated from one
    thread root and accessed from another with no common lock — the
    statically visible shape of a data race.

``conc-lock-order``
    Build the lock-acquisition-order graph (lexical nesting plus calls
    whose resolvable callees acquire locks, followed transitively
    across classes) and report every two-lock cycle — a potential
    deadlock — and every re-acquisition of a *non-reentrant* lock
    (self-deadlock; RLocks stay quiet).

``conc-blocking-under-lock``
    Blocking calls (``recv``/``recv_bytes``/``accept``, ``sleep``,
    thread/process ``join``, ``multiprocessing.connection.wait``) made
    while holding a lock: every other thread needing that lock stalls
    for the full blocking duration. ``join`` uses an argument-shape
    heuristic so ``", ".join(parts)`` stays quiet.

Known approximations (all documented in ``docs/LINTING.md``): locks
are identified per *class attribute*, so two instances' ``_lock``
share one graph node; a thread-root label stands for *all* threads
spawned from it, and accesses whose only shared root is a single
spawn label are treated as serialised (per-instance worker threads);
iterating a dict attribute directly types the loop variable as the
*value* type; a private method also called from outside its class is
analysed with its in-class context only.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ProjectRule, qualified_name
from repro.lint.project import ClassInfo, Module, Project

__all__ = [
    "UnguardedWriteRule",
    "LockOrderRule",
    "BlockingUnderLockRule",
    "concurrency_model",
]

FAMILY = "concurrency"

#: Call targets whose result is a lock attribute when assigned to self.
LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "rlock",
}

#: Thread/process spawn constructors.
THREAD_FACTORIES = {"threading.Thread"}
PROCESS_FACTORIES = {"multiprocessing.Process",
                     "multiprocessing.context.Process"}

#: Method calls that mutate their receiver in place. ``set`` is
#: deliberately absent: ``Event.set()`` and ``Gauge.set()`` are not
#: collection mutations.
_MUTATORS = {
    "append", "appendleft", "add", "insert", "extend", "update",
    "remove", "discard", "pop", "popleft", "popitem", "clear",
    "setdefault", "sort", "reverse",
}

#: Blocking call names, matched exactly on the attribute (so
#: ``sub.recv_all()`` — a non-blocking drain — stays quiet).
_BLOCKING_ATTRS = {"recv", "recv_bytes", "accept", "sleep"}
_BLOCKING_QUALIFIED = {
    "time.sleep",
    "select.select",
    "multiprocessing.connection.wait",
}

#: Container heads whose subscript carries an element type.
_CONTAINERS = {"list", "set", "frozenset", "deque", "Deque", "List",
               "Set", "FrozenSet", "Sequence", "Iterable", "MutableSet",
               "MutableSequence"}
_DICT_HEADS = {"dict", "Dict", "Mapping", "MutableMapping",
               "OrderedDict", "defaultdict", "DefaultDict"}

#: Methods whose writes never count as unguarded: construction and
#: teardown run before/after the object is shared between threads.
_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "__post_init__",
                   "__set_name__", "__init_subclass__"}

_MAIN_ROOT = "<caller>"

#: Sentinel entry context for callback methods (referenced, not
#: called): their held set is unknowable statically.
_UNKNOWN = None


class _Access:
    """One attribute access or lock/blocking event inside a method."""

    __slots__ = ("node", "held")

    def __init__(self, node: ast.AST, held: tuple[str, ...]) -> None:
        self.node = node
        self.held = held


class _MethodScan:
    """Every event the rules need from one method body."""

    __slots__ = ("name", "fn", "writes", "reads", "acquires",
                 "self_calls", "ext_calls", "blocking", "referenced")

    def __init__(self, name: str, fn: ast.FunctionDef) -> None:
        self.name = name
        self.fn = fn
        #: (owner key, attr) -> accesses; owner key is ``"self"`` or a
        #: resolved neighbour class's qualname.
        self.writes: dict[tuple[str, str], list[_Access]] = {}
        self.reads: dict[tuple[str, str], list[_Access]] = {}
        #: ``with`` entries: (lock key, access).
        self.acquires: list[tuple[str, _Access]] = []
        #: ``self.m(...)`` calls: (method name, access).
        self.self_calls: list[tuple[str, _Access]] = []
        #: resolvable neighbour calls: (callee class, method, access).
        self.ext_calls: list[tuple[ClassInfo, str, _Access]] = []
        #: blocking calls: (display name, access).
        self.blocking: list[tuple[str, _Access]] = []
        #: ``self.<method>`` used as a value (callback registration).
        self.referenced: set[str] = set()


class _ClassModel:
    """Concurrency-relevant facts about one class."""

    __slots__ = ("info", "locks", "scans", "entry", "roots",
                 "spawns_threads", "spawns_processes", "attr_types",
                 "attr_elems")

    def __init__(self, info: ClassInfo) -> None:
        self.info = info
        #: lock attr name -> kind ("lock"/"rlock").
        self.locks: dict[str, str] = {}
        self.scans: dict[str, _MethodScan] = {}
        #: method -> frozenset of lock keys always held on entry, or
        #: None (unknown; callback methods).
        self.entry: dict[str, frozenset[str] | None] = {}
        #: method -> thread-root labels reaching it.
        self.roots: dict[str, set[str]] = {}
        self.spawns_threads = False
        self.spawns_processes = False
        #: self attr -> ClassInfo for attrs with resolvable types.
        self.attr_types: dict[str, ClassInfo] = {}
        #: self attr -> element ClassInfo for typed containers
        #: (dict values / list/set/deque elements).
        self.attr_elems: dict[str, ClassInfo] = {}

    def lock_key(self, attr: str) -> str:
        return f"{self.info.name}.{attr}"


def _peel_target(target: ast.AST) -> tuple[str, list[str]] | None:
    """Peel an assignment target / receiver chain down to
    ``(base name, [attr, ...])``; None when the base is not a Name or
    the chain has no attribute."""
    attrs: list[str] = []
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        if isinstance(target, ast.Attribute):
            attrs.append(target.attr)
        target = target.value
    if not isinstance(target, ast.Name) or not attrs:
        return None
    return target.id, list(reversed(attrs))


def _element_annotation(annotation: ast.AST | None) -> ast.AST | None:
    """The element-type annotation of a container annotation: the value
    type for ``dict[K, V]``-shaped heads, the element for ``list[T]``
    and friends; None otherwise."""
    if not isinstance(annotation, ast.Subscript):
        return None
    node: ast.AST = annotation.value
    head: str | None = None
    if isinstance(node, ast.Attribute):
        head = node.attr
    elif isinstance(node, ast.Name):
        head = node.id
    if head in _DICT_HEADS:
        sl = annotation.slice
        if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
            return sl.elts[1]
        return None
    if head in _CONTAINERS:
        return annotation.slice
    return None


def _param_types(fn: ast.FunctionDef, owner: ClassInfo,
                 project: Project) -> dict[str, ClassInfo]:
    out: dict[str, ClassInfo] = {}
    args = list(fn.args.posonlyargs) + list(fn.args.args) + \
        list(fn.args.kwonlyargs)
    for arg in args:
        resolved = project.resolve_annotation(owner.module, arg.annotation)
        if resolved is not None:
            out[arg.arg] = resolved
    return out


def _self_name(fn: ast.FunctionDef) -> str:
    return fn.args.args[0].arg if fn.args.args else "self"


def _collect_locks(project: Project, model: _ClassModel) -> None:
    """Phase one: lock attributes and typed self attributes, own and
    inherited (a subclass shares its base's lock discipline). Runs for
    every class before any body is scanned, so cross-class lock
    references always resolve regardless of definition order."""
    for owner, _name, fn in project.iter_methods(model.info):
        self_name = _self_name(fn)
        params = _param_types(fn, owner, project)
        owner_imports = project.imports_of(owner.module)
        for node in ast.walk(fn):
            targets: list[ast.AST]
            value: ast.AST | None
            annotation: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
                annotation = node.annotation
            else:
                continue
            for target in targets:
                peeled = _peel_target(target)
                if peeled is None or peeled[0] != self_name or \
                        len(peeled[1]) != 1:
                    continue
                attr = peeled[1][0]
                if isinstance(value, ast.Call):
                    factory = qualified_name(value.func, owner_imports)
                    if factory in LOCK_FACTORIES:
                        model.locks.setdefault(attr,
                                               LOCK_FACTORIES[factory])
                        continue
                    ctor = project.resolve_class(owner.module, value.func)
                    if ctor is not None:
                        model.attr_types.setdefault(attr, ctor)
                if isinstance(value, ast.Name) and value.id in params:
                    model.attr_types.setdefault(attr, params[value.id])
                if annotation is not None:
                    direct = project.resolve_annotation(owner.module,
                                                        annotation)
                    if direct is not None:
                        model.attr_types.setdefault(attr, direct)
                    elem = project.resolve_annotation(
                        owner.module, _element_annotation(annotation))
                    if elem is not None:
                        model.attr_elems.setdefault(attr, elem)


def _scan_class(project: Project, model: _ClassModel,
                models: dict[str, _ClassModel]) -> None:
    """Phase two: walk each visible method body, recording accesses,
    lock acquisitions, calls, spawns and blocking calls with the
    lexically held lock set."""
    method_names = {name for _o, name, _f
                    in project.iter_methods(model.info)}
    for owner, name, fn in project.iter_methods(model.info):
        scan = _MethodScan(name, fn)
        model.scans[name] = scan
        _scan_method(project, model, models, owner, scan, method_names)
    _propagate_entry(model)
    _propagate_roots(model)


def _scan_method(project: Project, model: _ClassModel,
                 models: dict[str, _ClassModel], owner: ClassInfo,
                 scan: _MethodScan, method_names: set[str]) -> None:
    fn = scan.fn
    self_name = _self_name(fn)
    owner_imports = project.imports_of(owner.module)
    #: local name -> instance type (params, annotated locals, loop
    #: variables inferred from typed containers).
    local_types = _param_types(fn, owner, project)
    #: local name -> element type of a container-valued local.
    local_elems: dict[str, ClassInfo] = {}
    call_funcs = {id(n.func) for n in ast.walk(fn)
                  if isinstance(n, ast.Call)}

    def lock_table(owner_q: str) -> dict[str, str]:
        if owner_q == "self":
            return model.locks
        nb = models.get(owner_q)
        return nb.locks if nb is not None else {}

    def owner_key_of(base: str,
                     attrs: list[str]) -> tuple[str, str] | None:
        """Map a receiver chain to its (owner key, attribute)."""
        if base == self_name:
            if len(attrs) >= 2:
                neighbour = model.attr_types.get(attrs[0])
                if neighbour is not None:
                    return neighbour.qualname, attrs[1]
            return "self", attrs[0]
        neighbour = local_types.get(base)
        if neighbour is not None:
            return neighbour.qualname, attrs[0]
        return None

    def is_lock_attr(key: tuple[str, str]) -> bool:
        return key[1] in lock_table(key[0])

    def resolve_lock_expr(expr: ast.AST) -> str | None:
        """The lock key a ``with`` context expression acquires, if it
        is a known lock attribute of self or a typed receiver."""
        peeled = _peel_target(expr)
        if peeled is None:
            return None
        key = owner_key_of(peeled[0], peeled[1])
        if key is None or not is_lock_attr(key):
            return None
        owner_q, attr = key
        if owner_q == "self":
            return model.lock_key(attr)
        return f"{owner_q.rsplit('.', 1)[-1]}.{attr}"

    def record_write(node: ast.AST, target: ast.AST,
                     held: tuple[str, ...]) -> None:
        peeled = _peel_target(target)
        if peeled is None:
            return
        key = owner_key_of(peeled[0], peeled[1])
        if key is not None and not is_lock_attr(key):
            scan.writes.setdefault(key, []).append(_Access(node, held))

    def element_of(expr: ast.AST) -> ClassInfo | None:
        """Element type of an iterable expression, for loop-variable
        inference."""
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and \
                    func.id in ("list", "sorted", "tuple", "set",
                                "iter", "reversed") and expr.args:
                return element_of(expr.args[0])
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("values", "items", "copy"):
                return element_of(func.value)
        if isinstance(expr, ast.Name):
            return local_elems.get(expr.id)
        peeled = _peel_target(expr)
        if peeled is not None and peeled[0] == self_name and \
                len(peeled[1]) == 1:
            return model.attr_elems.get(peeled[1][0])
        return None

    def note_spawn(node: ast.Call, factory: str) -> None:
        if factory in PROCESS_FACTORIES:
            model.spawns_processes = True
            return
        model.spawns_threads = True
        for kw in node.keywords:
            if kw.arg == "target":
                peeled = _peel_target(kw.value)
                if peeled is not None and peeled[0] == self_name and \
                        len(peeled[1]) == 1:
                    target_name = peeled[1][0]
                    model.roots.setdefault(target_name,
                                           set()).add(target_name)

    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                visit(item.context_expr, held)
                lock_key = resolve_lock_expr(item.context_expr)
                if lock_key is not None:
                    scan.acquires.append((lock_key, _Access(node, inner)))
                    if lock_key not in inner:
                        inner = inner + (lock_key,)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Nested callables run at an unknown time under an unknown
            # lock set; stay quiet rather than guess.
            return

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                record_write(node, target, held)
            if isinstance(node, ast.Assign) and \
                    len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                elem = element_of(node.value)
                if elem is not None:
                    local_elems[node.targets[0].id] = elem
            if isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                direct = project.resolve_annotation(owner.module,
                                                    node.annotation)
                if direct is not None:
                    local_types[node.target.id] = direct
        elif isinstance(node, ast.For):
            elem = element_of(node.iter)
            if elem is not None:
                if isinstance(node.target, ast.Name):
                    local_types[node.target.id] = elem
                elif isinstance(node.target, ast.Tuple) and \
                        len(node.target.elts) == 2 and \
                        isinstance(node.target.elts[1], ast.Name) and \
                        isinstance(node.iter, ast.Call) and \
                        isinstance(node.iter.func, ast.Attribute) and \
                        node.iter.func.attr == "items":
                    local_types[node.target.elts[1].id] = elem
        elif isinstance(node, ast.Call):
            func = node.func
            name_q = qualified_name(func, owner_imports)
            if isinstance(func, ast.Attribute):
                peeled = _peel_target(func)
                if peeled is not None:
                    base, attrs = peeled
                    if base == self_name and len(attrs) == 1 and \
                            attrs[0] in method_names:
                        scan.self_calls.append(
                            (attrs[0], _Access(node, held)))
                    else:
                        recv: ClassInfo | None = None
                        if base == self_name and len(attrs) == 2:
                            recv = model.attr_types.get(attrs[0])
                        elif len(attrs) == 1:
                            recv = local_types.get(base)
                        if recv is not None and \
                                attrs[-1] in recv.methods:
                            scan.ext_calls.append(
                                (recv, attrs[-1], _Access(node, held)))
                    if attrs[-1] in _MUTATORS and len(attrs) >= 2:
                        key = owner_key_of(base, attrs[:-1])
                        if key is not None and not is_lock_attr(key):
                            scan.writes.setdefault(key, []).append(
                                _Access(node, held))
                blocked = None
                if func.attr in _BLOCKING_ATTRS:
                    blocked = func.attr
                elif func.attr == "join" and _joins_thread(node):
                    blocked = "join"
                if name_q in _BLOCKING_QUALIFIED:
                    blocked = name_q
                if blocked is not None:
                    scan.blocking.append((blocked, _Access(node, held)))
            elif isinstance(func, ast.Name):
                if name_q in _BLOCKING_QUALIFIED:
                    scan.blocking.append((name_q, _Access(node, held)))
            if name_q in THREAD_FACTORIES or name_q in PROCESS_FACTORIES:
                note_spawn(node, name_q)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            peeled = _peel_target(node)
            if peeled is not None:
                key = owner_key_of(peeled[0], peeled[1])
                if key is not None and not is_lock_attr(key):
                    scan.reads.setdefault(key, []).append(
                        _Access(node, held))
                if peeled[0] == self_name and len(peeled[1]) == 1 and \
                        peeled[1][0] in method_names and \
                        id(node) not in call_funcs:
                    scan.referenced.add(peeled[1][0])

        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in fn.body:
        visit(stmt, ())


def _joins_thread(node: ast.Call) -> bool:
    """``x.join(...)`` argument shapes that mean Thread/Process.join:
    no positional args (``t.join()``, ``t.join(timeout=2)``) or one
    numeric timeout — one non-numeric positional is
    ``str.join(iterable)`` / ``os.path.join`` territory."""
    if not node.args:
        return True
    if len(node.args) == 1:
        arg = node.args[0]
        return isinstance(arg, ast.Constant) and \
            isinstance(arg.value, (int, float))
    return False


def _is_entry_point(name: str) -> bool:
    """Callable from outside the class: public names and dunders."""
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith("_")


def _propagate_entry(model: _ClassModel) -> None:
    """Fixpoint: a private method's entry context is the intersection
    of the held sets at its in-class call sites (callers' own entry
    contexts included). Referenced-as-value methods are unknown
    (callbacks) unless they are thread targets, which enter with
    nothing held."""
    referenced: set[str] = set()
    call_sites: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for caller, scan in model.scans.items():
        referenced |= scan.referenced
        for callee, access in scan.self_calls:
            call_sites.setdefault(callee, []).append(
                (caller, access.held))

    all_keys = frozenset(model.lock_key(a) for a in model.locks)
    for name in model.scans:
        if name in referenced and name not in model.roots:
            model.entry[name] = _UNKNOWN
        elif _is_entry_point(name) or name in model.roots or \
                name not in call_sites:
            model.entry[name] = frozenset()
        else:
            model.entry[name] = all_keys  # optimistic; narrowed below

    changed = True
    while changed:
        changed = False
        for name, sites in call_sites.items():
            current = model.entry.get(name)
            if current is _UNKNOWN or current == frozenset():
                continue
            acc: frozenset[str] | None = None
            for caller, held in sites:
                caller_entry = model.entry.get(caller)
                if caller_entry is None:
                    caller_entry = frozenset()
                site_held = frozenset(held) | caller_entry
                acc = site_held if acc is None else (acc & site_held)
            acc = acc if acc is not None else frozenset()
            if acc != current:
                model.entry[name] = acc
                changed = True


def _propagate_roots(model: _ClassModel) -> None:
    """Which thread roots reach each method, via in-class calls."""
    for name in model.scans:
        roots = model.roots.setdefault(name, set())
        if _is_entry_point(name):
            roots.add(_MAIN_ROOT)
    changed = True
    while changed:
        changed = False
        for caller, scan in model.scans.items():
            caller_roots = model.roots.get(caller, set())
            for callee, _access in scan.self_calls:
                callee_roots = model.roots.get(callee)
                if callee_roots is None:
                    continue
                before = len(callee_roots)
                callee_roots |= caller_roots
                if len(callee_roots) != before:
                    changed = True


def _effective_held(model: _ClassModel, method: str,
                    access: _Access) -> frozenset[str] | None:
    """Locks provably held at an access; None when the method's entry
    context is unknown (callback) — the access is then exempt."""
    entry = model.entry.get(method, frozenset())
    if entry is None:
        return None
    return frozenset(access.held) | entry


def concurrency_model(project: Project) -> dict[str, _ClassModel]:
    """The per-class concurrency models of ``project``, memoised on
    the project (all three rules share one analysis pass)."""
    cached = project.cache.get("concurrency")
    if cached is None:
        models: dict[str, _ClassModel] = {}
        infos = list(project.iter_classes())
        for info in infos:
            models[info.qualname] = _ClassModel(info)
        for info in infos:
            _collect_locks(project, models[info.qualname])
        for info in infos:
            _scan_class(project, models[info.qualname], models)
        cached = models
        project.cache["concurrency"] = cached
    return cached  # type: ignore[return-value]


def _own_keys(model: _ClassModel) -> frozenset[str]:
    return frozenset(model.lock_key(a) for a in model.locks)


def _fmt_roots(roots: frozenset[str] | set[str]) -> str:
    return "/".join(sorted(roots))


class UnguardedWriteRule(ProjectRule):
    id = "conc-unguarded-write"
    family = FAMILY
    description = ("attributes written both under and outside a class's "
                   "lock, or shared across thread roots with no common "
                   "lock")

    def check_project(self, project: Project) -> Iterator[Finding]:
        models = concurrency_model(project)
        for qualname in sorted(models):
            model = models[qualname]
            if model.locks:
                yield from self._check_discipline(model)
            if model.spawns_threads:
                yield from self._check_thread_roots(model)

    def _check_discipline(self, model: _ClassModel) -> Iterator[Finding]:
        """Writes to one attribute split between locked and unlocked
        contexts within a lock-owning class."""
        own = _own_keys(model)
        per_attr: dict[str, tuple[list[_Access], list[_Access]]] = {}
        for method, scan in model.scans.items():
            if method in _EXEMPT_METHODS:
                continue
            for (owner_q, attr), accesses in scan.writes.items():
                if owner_q != "self":
                    continue
                guarded, unguarded = per_attr.setdefault(attr, ([], []))
                for access in accesses:
                    held = _effective_held(model, method, access)
                    if held is None:
                        continue  # callback context; exempt
                    (guarded if held & own else unguarded).append(access)
        for attr in sorted(per_attr):
            guarded, unguarded = per_attr[attr]
            if guarded and unguarded:
                worst = min(unguarded,
                            key=lambda a: getattr(a.node, "lineno", 0))
                lock_names = ", ".join(
                    model.lock_key(a) for a in sorted(model.locks))
                yield self.finding(
                    model.info.module, worst.node,
                    f"{model.info.name}.{attr} is written under "
                    f"{lock_names} elsewhere but written here with no "
                    "lock held; every write to a lock-protected "
                    "attribute must hold the lock")

    def _check_thread_roots(self, model: _ClassModel) -> \
            Iterator[Finding]:
        """In a thread-spawning class: one thread root mutates, another
        accesses, and no lock is common to both sides."""
        accesses: dict[tuple[str, str],
                       list[tuple[str, _Access, bool]]] = {}
        for method, scan in model.scans.items():
            if method in _EXEMPT_METHODS:
                continue
            for key, events in scan.writes.items():
                for access in events:
                    accesses.setdefault(key, []).append(
                        (method, access, True))
            for key, events in scan.reads.items():
                for access in events:
                    accesses.setdefault(key, []).append(
                        (method, access, False))

        for owner_q, attr in sorted(accesses):
            events = accesses[(owner_q, attr)]
            witnesses = []
            for method, access, is_write in events:
                held = _effective_held(model, method, access)
                if held is None:
                    continue
                witnesses.append(
                    (method, access, is_write, held,
                     frozenset(model.roots.get(method, set()))))
            mutations = [w for w in witnesses if w[2]]
            if not mutations:
                continue
            fired = False
            for m_method, m_access, _w, m_held, m_roots in mutations:
                if fired:
                    break
                for o_method, o_access, _ow, o_held, o_roots \
                        in witnesses:
                    if o_access is m_access:
                        continue
                    if not m_roots or not o_roots:
                        continue
                    if m_roots == o_roots and len(m_roots) == 1:
                        continue  # one thread (or one per instance)
                    if m_held & o_held:
                        continue  # a common lock serialises them
                    display = attr if owner_q == "self" else \
                        f"{owner_q.rsplit('.', 1)[-1]}.{attr}"
                    yield self.finding(
                        model.info.module, m_access.node,
                        f"{model.info.name} spawns threads and "
                        f"{display} is mutated in {m_method}() (thread "
                        f"roots {_fmt_roots(m_roots)}) while "
                        f"{o_method}() (thread roots "
                        f"{_fmt_roots(o_roots)}) accesses it with no "
                        "common lock; this is the statically visible "
                        "shape of a data race")
                    fired = True
                    break


def _transitive_acquires(models: dict[str, _ClassModel], qualname: str,
                         method: str,
                         _seen: set[tuple[str, str]] | None = None) \
        -> frozenset[str]:
    """Every lock key a call to ``qualname.method`` may acquire,
    following in-class and resolvable cross-class calls."""
    seen = _seen if _seen is not None else set()
    key = (qualname, method)
    if key in seen:
        return frozenset()
    seen.add(key)
    model = models.get(qualname)
    if model is None:
        return frozenset()
    scan = model.scans.get(method)
    if scan is None:
        return frozenset()
    out = {lock for lock, _access in scan.acquires}
    for callee, _access in scan.self_calls:
        out |= _transitive_acquires(models, qualname, callee, seen)
    for recv, callee, _access in scan.ext_calls:
        out |= _transitive_acquires(models, recv.qualname, callee, seen)
    return frozenset(out)


class LockOrderRule(ProjectRule):
    id = "conc-lock-order"
    family = FAMILY
    description = ("lock-acquisition-order cycles (potential deadlock) "
                   "and re-acquisition of non-reentrant locks")

    def check_project(self, project: Project) -> Iterator[Finding]:
        models = concurrency_model(project)
        kinds: dict[str, str] = {}
        for model in models.values():
            for attr, kind in model.locks.items():
                kinds.setdefault(model.lock_key(attr), kind)

        #: held key -> acquired key -> (module, node) first witness.
        edges: dict[str, dict[str, tuple[Module, ast.AST]]] = {}
        reported_self: set[int] = set()
        for qualname in sorted(models):
            model = models[qualname]
            for method, scan in model.scans.items():
                events: list[tuple[frozenset[str], _Access]] = []
                for lock, access in scan.acquires:
                    events.append((frozenset({lock}), access))
                for callee, access in scan.self_calls:
                    events.append((
                        _transitive_acquires(models, qualname, callee),
                        access))
                for recv, callee, access in scan.ext_calls:
                    events.append((
                        _transitive_acquires(models, recv.qualname,
                                             callee),
                        access))
                for acquired, access in events:
                    held = _effective_held(model, method, access)
                    if held is None:
                        held = frozenset(access.held)
                    for new in acquired:
                        for have in held:
                            if have == new:
                                if kinds.get(new) == "lock" and \
                                        id(access.node) not in \
                                        reported_self:
                                    reported_self.add(id(access.node))
                                    yield self.finding(
                                        model.info.module, access.node,
                                        f"{new} is acquired again "
                                        "while already held; it is a "
                                        "non-reentrant Lock, so this "
                                        "self-deadlocks (use an RLock "
                                        "or drop the inner acquire)")
                                continue
                            edges.setdefault(have, {}).setdefault(
                                new, (model.info.module, access.node))

        yield from self._report_cycles(edges)

    def _report_cycles(
            self, edges: dict[str, dict[str, tuple[Module, ast.AST]]]) \
            -> Iterator[Finding]:
        reported: set[frozenset[str]] = set()
        for a in sorted(edges):
            for b in sorted(edges[a]):
                if a >= b or b not in edges or a not in edges[b]:
                    continue
                cycle = frozenset((a, b))
                if cycle in reported:
                    continue
                reported.add(cycle)
                mod_ab, node_ab = edges[a][b]
                mod_ba, node_ba = edges[b][a]
                yield self.finding(
                    mod_ab, node_ab,
                    f"locks {a} and {b} are acquired in both orders "
                    f"({a} -> {b} here; {b} -> {a} at {mod_ba.path}:"
                    f"{getattr(node_ba, 'lineno', '?')}); two threads "
                    "taking them in opposite orders deadlock")


class BlockingUnderLockRule(ProjectRule):
    id = "conc-blocking-under-lock"
    family = FAMILY
    description = ("blocking calls (recv/accept/sleep/join) made while "
                   "holding a lock stall every thread needing it")

    def check_project(self, project: Project) -> Iterator[Finding]:
        models = concurrency_model(project)
        for qualname in sorted(models):
            model = models[qualname]
            for method, scan in model.scans.items():
                for name, access in scan.blocking:
                    held = _effective_held(model, method, access)
                    if not held:
                        continue
                    yield self.finding(
                        model.info.module, access.node,
                        f"{name}() blocks while {_fmt_roots(held)} is "
                        "held; every thread waiting on that lock "
                        "stalls for the full blocking duration — move "
                        "the call outside the critical section")
