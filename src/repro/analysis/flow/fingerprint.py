"""FLW001–FLW003: fingerprint soundness for the content-addressed caches.

The disk cache (:mod:`repro.bench.cache`) and trace store
(:mod:`repro.bench.traces`) serve results/traces keyed by content
fingerprints.  They are correct only while a closed-world property holds:
**every config/settings field the keyed computation actually reads is part
of the key**.  A field read on the simulate path but absent from
``RunRequest`` fingerprinting means two different machines share a cache
entry; a field read on the capture path but absent from
``trace_request_key`` means two different op streams share a trace.  No
local lint can see this — it is a property of the whole call graph — so
this pass walks reachability from the cache-keyed entry points and
compares the *read set* against the *covered set* extracted from the
fingerprint functions themselves.

* **FLW001** — a field is read somewhere reachable from a keyed
  computation but not covered by that computation's fingerprint.
* **FLW002** — a config/settings field is never read anywhere: dead
  parameter surface that still churns every fingerprint when touched.
* **FLW003** — a ``BenchSettings`` field is read by bench code but never
  pinned in ``RunRequest.resolve``, so the resolved request does not fully
  describe the run it produces.  (Fields that shape the *request set*
  rather than any one request — e.g. how many mixes exist — carry a
  ``simflow: ignore[FLW003]`` waiver at the read site.)

``SystemConfig.fingerprint`` serializes ``asdict(self)`` wholesale; the
pass recognizes the ``asdict`` idiom as covering every field, so the
normal tree passes without enumerating anything.  The seeded-defect
mutants replace it with an enumerated subset and must be caught.
"""

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.source import Violation, dotted_name, terminal_identifier
from repro.analysis.flow.model import FunctionInfo, ProjectModel, dataclass_fields

__all__ = ["run_fingerprint_pass"]

#: rel-path suffixes anchoring the pass to the simulator's own layout.
CONFIG_MODULE = "system/config.py"
SETTINGS_MODULE = "bench/runner.py"
FRONTIER_MODULE = "bench/frontier.py"
TRACES_MODULE = "bench/traces.py"
SYSTEM_MODULE = "system/system.py"
COLUMNAR_MODULE = "system/columnar.py"

CONFIG_CLASS = "SystemConfig"
SETTINGS_CLASS = "BenchSettings"
REQUEST_CLASS = "RunRequest"

#: Roots of the result-cache-keyed computation (what a RunRequest
#: fingerprint must describe): executing a request end to end.
SIMULATE_ROOTS = (
    f"{FRONTIER_MODULE}:simulate",
    f"{FRONTIER_MODULE}:build_workload",
    f"{SYSTEM_MODULE}:System.__init__",
    f"{SYSTEM_MODULE}:System.run",
    f"{COLUMNAR_MODULE}:replay",
)

#: Root of the trace-store-keyed computation (what trace_request_key must
#: describe): capturing a workload's operation stream.
CAPTURE_ROOTS = (f"{TRACES_MODULE}:TraceStore.get_or_capture",)

#: Receiver names under which SystemConfig instances travel.
_CONFIG_RECEIVERS = ("config", "cfg")


def run_fingerprint_pass(model: ProjectModel) -> List[Violation]:
    pass_ = _FingerprintPass(model)
    return pass_.run()


class _FingerprintPass:
    def __init__(self, model: ProjectModel):
        self.model = model
        self.findings: List[Violation] = []

    # ------------------------------------------------------------------

    def run(self) -> List[Violation]:
        config_fields = self._class_fields(CONFIG_MODULE, CONFIG_CLASS)
        settings_fields = self._class_fields(SETTINGS_MODULE, SETTINGS_CLASS)
        request_fields = self._class_fields(FRONTIER_MODULE, REQUEST_CLASS)
        if config_fields:
            self._check_result_cache(config_fields, request_fields)
            self._check_trace_cache(config_fields, request_fields)
            self._check_dead_fields(CONFIG_MODULE, CONFIG_CLASS, config_fields)
        if settings_fields:
            self._check_dead_fields(SETTINGS_MODULE, SETTINGS_CLASS,
                                    settings_fields)
            self._check_settings_resolution(settings_fields)
        return self.findings

    # ------------------------------------------------------------------
    # Anchors
    # ------------------------------------------------------------------

    def _class_fields(self, rel: str, cls: str) -> List[str]:
        info = self.model.classes.get(cls)
        if info is None or not info.module.rel.endswith(rel):
            return []
        return dataclass_fields(info.node)

    def _method(self, cls: str, name: str) -> Optional[FunctionInfo]:
        info = self.model.classes.get(cls)
        if info is None:
            return None
        return info.methods.get(name)

    def _function(self, qual_suffix: str) -> Optional[FunctionInfo]:
        return self.model.find_function(qual_suffix)

    # ------------------------------------------------------------------
    # Covered sets (what the fingerprint functions mention)
    # ------------------------------------------------------------------

    def _self_coverage(self, func: Optional[FunctionInfo],
                       fields: List[str]) -> Set[str]:
        """Fields a method covers: ``self.<f>`` reads, ``"<f>"`` literals,
        or *everything* when it serializes ``asdict(self)`` wholesale."""
        if func is None:
            return set()
        covered: Set[str] = set()
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call) and \
                    terminal_identifier(node.func) == "asdict":
                return set(fields)
            if (isinstance(node, ast.Attribute) and node.attr in fields
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                covered.add(node.attr)
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and node.value in fields):
                covered.add(node.value)
        return covered

    def _request_key_coverage(
        self, func: Optional[FunctionInfo],
        config_fields: List[str], request_fields: List[str],
    ) -> Tuple[Set[str], Set[str]]:
        """(config fields, request fields) mentioned by trace_request_key."""
        if func is None:
            return set(), set()
        config_cov: Set[str] = set()
        request_cov: Set[str] = set()
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Attribute):
                continue
            if (node.attr in config_fields
                    and terminal_identifier(node.value) in _CONFIG_RECEIVERS):
                config_cov.add(node.attr)
            if node.attr in request_fields:
                request_cov.add(node.attr)
        if config_cov:
            # request.config.<f> chains read the config through the request.
            request_cov.add("config")
        return config_cov, request_cov

    # ------------------------------------------------------------------
    # Read sets (what reachable code actually touches)
    # ------------------------------------------------------------------

    def _reads_in(
        self, reachable: Set[str], fields: List[str],
        receivers: Tuple[str, ...], exclude: Set[str],
    ) -> Dict[str, Tuple[str, int]]:
        """field -> first (path, line) reading it under a matching receiver,
        across the reachable functions (minus ``exclude`` sinks)."""
        reads: Dict[str, Tuple[str, int]] = {}
        for qualname in sorted(reachable - exclude):
            info = self.model.functions[qualname]
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                if node.attr not in fields:
                    continue
                recv = terminal_identifier(node.value)
                if recv not in receivers and not (
                        recv is None and self._is_settings_call(node.value)):
                    continue
                site = (str(info.module.path), node.lineno)
                reads.setdefault(node.attr, site)
        return reads

    @staticmethod
    def _is_settings_call(node: ast.AST) -> bool:
        """``current_settings().<field>`` — the receiver is a call."""
        return (isinstance(node, ast.Call)
                and terminal_identifier(node.func) == "current_settings")

    def _self_reads(self, cls: str, fields: List[str]) -> Set[str]:
        """Fields the owning class itself reads (``self.<f>`` in methods,
        plus literal field names in its own bodies — the ``__post_init__``
        ``getattr(self, name)`` idiom)."""
        info = self.model.classes.get(cls)
        if info is None:
            return set()
        reads: Set[str] = set()
        for method in info.methods.values():
            if method.name in ("fingerprint", "describe"):
                continue  # the sinks themselves are not simulation reads
            for node in ast.walk(method.node):
                if (isinstance(node, ast.Attribute) and node.attr in fields
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    reads.add(node.attr)
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and node.value in fields):
                    reads.add(node.value)
        return reads

    # ------------------------------------------------------------------
    # FLW001: read-but-unfingerprinted
    # ------------------------------------------------------------------

    def _check_result_cache(self, config_fields: List[str],
                            request_fields: List[str]) -> None:
        reachable = self.model.reachable_from(
            [self._qual(r) for r in SIMULATE_ROOTS])
        sinks = self._sink_quals()
        config_cov = self._self_coverage(
            self._method(CONFIG_CLASS, "fingerprint"), config_fields)
        config_reads = self._reads_in(reachable, config_fields,
                                      _CONFIG_RECEIVERS, sinks)
        for field_name in sorted(set(config_reads) - config_cov):
            path, line = config_reads[field_name]
            self.findings.append(Violation(
                code="FLW001", path=path, line=line,
                message=(f"config field `{field_name}` is read on the "
                         f"simulate path but not covered by "
                         f"SystemConfig.fingerprint() — the result cache "
                         f"would serve stale results across configs that "
                         f"differ in it")))
        if request_fields:
            describe_cov = self._self_coverage(
                self._method(REQUEST_CLASS, "describe"), request_fields)
            request_reads = self._reads_in(
                reachable, request_fields, ("request", "req"), sinks)
            for field_name in sorted(set(request_reads) - describe_cov):
                path, line = request_reads[field_name]
                self.findings.append(Violation(
                    code="FLW001", path=path, line=line,
                    message=(f"request field `{field_name}` is read on the "
                             f"simulate path but missing from "
                             f"RunRequest.describe() — it never reaches the "
                             f"result-cache fingerprint")))

    def _check_trace_cache(self, config_fields: List[str],
                           request_fields: List[str]) -> None:
        key_func = self._function(f"{TRACES_MODULE}:trace_request_key")
        if key_func is None:
            return
        reachable = self.model.reachable_from(
            [self._qual(r) for r in CAPTURE_ROOTS])
        # The capture path hands the workload to the engine-independent
        # capture; the simulate subtree (reached only through by-name
        # fallbacks) is keyed by the *result* cache, not the trace key.
        reachable -= self.model.reachable_from(
            [self._qual(r) for r in SIMULATE_ROOTS])
        reachable.update(self._qual(r) for r in CAPTURE_ROOTS
                         if self._qual(r) in self.model.functions)
        config_cov, request_cov = self._request_key_coverage(
            key_func, config_fields, request_fields)
        sinks = self._sink_quals()
        config_reads = self._reads_in(reachable, config_fields,
                                      _CONFIG_RECEIVERS, sinks)
        for field_name in sorted(set(config_reads) - config_cov):
            path, line = config_reads[field_name]
            self.findings.append(Violation(
                code="FLW001", path=path, line=line,
                message=(f"config field `{field_name}` is read on the "
                         f"trace-capture path but missing from "
                         f"trace_request_key() — the trace store would "
                         f"serve one config's op stream to another")))

    def _sink_quals(self) -> Set[str]:
        sinks = set()
        for cls, name in ((CONFIG_CLASS, "fingerprint"),
                          (REQUEST_CLASS, "describe"),
                          (REQUEST_CLASS, "fingerprint")):
            method = self._method(cls, name)
            if method is not None:
                sinks.add(method.qualname)
        key_func = self._function(f"{TRACES_MODULE}:trace_request_key")
        if key_func is not None:
            sinks.add(key_func.qualname)
        return sinks

    def _qual(self, suffix: str) -> str:
        info = self.model.find_function(suffix)
        return info.qualname if info is not None else suffix

    # ------------------------------------------------------------------
    # FLW002: dead fields
    # ------------------------------------------------------------------

    def _check_dead_fields(self, rel: str, cls: str,
                           fields: List[str]) -> None:
        info = self.model.classes.get(cls)
        if info is None:
            return
        read_anywhere: Set[str] = set()
        for module in self.model.project.modules:
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and node.attr in fields):
                    read_anywhere.add(node.attr)
        # The owning class may read its own fields through the
        # ``getattr(self, name)`` idiom with literal name tables.
        read_anywhere.update(self._self_reads(cls, fields))
        declared_at = {}
        for stmt in info.node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                declared_at[stmt.target.id] = stmt.lineno
        for field_name in fields:
            if field_name in read_anywhere:
                continue
            self.findings.append(Violation(
                code="FLW002", path=str(info.module.path),
                line=declared_at.get(field_name, info.node.lineno),
                message=(f"{cls} field `{field_name}` is never read "
                         f"anywhere in the tree — dead parameter surface "
                         f"that still churns every cache fingerprint")))

    # ------------------------------------------------------------------
    # FLW003: settings fields read but never pinned by resolve()
    # ------------------------------------------------------------------

    def _check_settings_resolution(self, settings_fields: List[str]) -> None:
        resolve = self._method(REQUEST_CLASS, "resolve")
        if resolve is None:
            return
        pinned: Set[str] = set()
        for node in ast.walk(resolve.node):
            if (isinstance(node, ast.Attribute)
                    and node.attr in settings_fields
                    and terminal_identifier(node.value) == "settings"):
                pinned.add(node.attr)
        settings_cls = self.model.classes.get(SETTINGS_CLASS)
        own = {m.qualname for m in settings_cls.methods.values()} \
            if settings_cls else set()
        skip = own | {resolve.qualname}
        for qualname in sorted(self.model.functions):
            if qualname in skip:
                continue
            info = self.model.functions[qualname]
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr not in settings_fields or node.attr in pinned:
                    continue
                recv = terminal_identifier(node.value)
                if recv != "settings" and not self._is_settings_call(node.value):
                    continue
                self.findings.append(Violation(
                    code="FLW003", path=str(info.module.path),
                    line=node.lineno,
                    message=(f"settings field `{node.attr}` is read here but "
                             f"never pinned by RunRequest.resolve() — the "
                             f"resolved request does not fully describe the "
                             f"run (waive if it only shapes the request "
                             f"set)")))
