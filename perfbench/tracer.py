"""Per-layer tracing of ggtlab from outside the package.

`Tracer.install()` replaces functions of the measured modules with timing
wrappers and `uninstall()` puts the originals back, so one process can
alternate traced and untraced passes.  Wrapped are every public function
and public method of each measured module, the `__mul__` and `__hash__` of
its classes, and every private function that another module imports by
name (for instance `projections._line_data`, used by `experiments`).  A
name bound by `from .groups import word_distance` is patched in every
namespace that holds it, and methods are patched on their classes.

Accounting keeps a frame stack.  Each wrapped call adds its duration to its
parent frame, so a function's self time is its duration minus the time of
the wrapped calls it made; unwrapped helpers, numpy and unmeasured modules
(`boundary`, `checks`) count as self time of the wrapped caller.  A span
(name, start, end, parent span) is recorded for a call that crosses from one
layer into another, except for hot leaf calls (methods of `groups` and
`spaces` classes, `word_distance`, `space_distance`), which only get a count
and summed time, so memory stays bounded at millions of calls.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("groups", "spaces", "projections", "chains", "experiments", "morse", "hhs", "cli")
# boundary (microsecond cross-ratios) and checks (a test suite) are not wrapped
UNMEASURED = ("boundary", "checks")
BENCH = "bench"

# Called from their own layer only and very often: counted, never timed.
COUNT_ONLY = {"groups.GroupModel.validate_letters", "experiments.AxisTracker.push"}
LEAF_FUNCTIONS = {"groups.word_distance", "spaces.space_distance"}
LEAF_CLASS_LAYERS = ("groups", "spaces")
WRAPPED_DUNDERS = ("__mul__", "__hash__")

# Layers whose optimisation each workload is meant to show (see README.md);
# a traced run fails if one of them records no calls there.
PREDICTED_LAYERS = {
    "mc-invariant": ("experiments",),
    "chain-pushforward": ("groups", "chains", "cli"),
    "exact-geometry": ("groups", "spaces", "projections", "morse", "hhs"),
}

SPAN_CAP = 2_000_000

# word_distance timings are kept per group family, named by generator names
FAMILIES = {"ab": "F2", "xyz": "Z2_Z", "xyzt": "Z2_Z_x_Z"}

clock = time.perf_counter


def _is_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if inspect.isgeneratorfunction(obj):
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self, package: str = "ggtlab"):
        self.modules = {
            name: importlib.import_module(f"{package}.{name}") for name in LAYERS + UNMEASURED
        }
        self.layer_index = {name: i for i, name in enumerate(LAYERS + (BENCH,))}
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        self.owners: list[tuple[object, str, str]] = []  # (namespace or class, attr, key)
        self.names: list[str] = []
        self._collect()
        # calls, self s, total s, wrapped calls made
        self.stats = {k: [0, 0.0, 0.0, 0] for k in self.originals}
        self.overhead = self._calibrate()
        self.reset()

    # -- discovery ---------------------------------------------------------

    def _collect(self) -> None:
        targets: dict[str, object] = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, meth in vars(obj).items():
                        public = not attr.startswith("_") or attr in WRAPPED_DUNDERS
                        if public and _is_function(meth, mod.__name__):
                            key = f"{layer}.{obj.__qualname__}.{attr}"
                            targets[key] = meth
                            self.owners.append((obj, attr, key))
                elif _is_function(obj, mod.__name__) and not name.startswith("_"):
                    targets[f"{layer}.{name}"] = obj
        # private functions imported by another module, e.g. _line_data, _diam_x
        by_id = {id(f): k for k, f in targets.items()}
        for mod in self.modules.values():
            for name, obj in vars(mod).items():
                origin = getattr(obj, "__module__", "") or ""
                layer = origin.rpartition(".")[2]
                if layer in LAYERS and origin != mod.__name__ and _is_function(obj, origin):
                    if id(obj) not in by_id:
                        key = f"{layer}.{obj.__name__}"
                        targets[key] = obj
                        by_id[id(obj)] = key
        for mod in self.modules.values():
            for name, obj in vars(mod).items():
                if id(obj) in by_id:
                    self.owners.append((mod, name, by_id[id(obj)]))
        self.originals = targets
        self.key_layer = {k: self.layer_index[k.split(".", 1)[0]] for k in targets}

    # -- state -------------------------------------------------------------

    def reset(self) -> None:
        """Clear counts, times and spans (one traced pass each)."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self.extra: dict[str, float] = {}
        self.family_time: dict[str, list] = {}
        self.spans: list = []
        self.names = []
        self._name_index: dict[str, int] = {}
        self.spans_dropped = 0
        self.stack = [[0.0, 0, self.layer_index[BENCH], -1]]
        self.root_start = clock()

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _bump(self, name: str, value: float = 1) -> None:
        self.extra[name] = self.extra.get(name, 0) + value

    # -- hooks: counts read at layer boundaries ------------------------------

    def _post_word_distance(self, args, kwargs, result, dur, _) -> None:
        # generator names identify the family without calling wrapped methods
        names = "".join(args[0].generator_names)
        rec = self.family_time.setdefault(FAMILIES.get(names, names), [0, 0.0])
        rec[0] += 1
        rec[1] += dur

    def _post_ball(self, args, kwargs, result, dur, _) -> None:
        self._bump("groups.ball.words", len(result))

    def _post_project(self, args, kwargs, result, dur, _) -> None:
        self._bump(f"projections.project.calls.{result.method.replace('-', '_')}")

    def _pre_bfs(self, args):
        # compared by identity: a key lookup would hash the Word and count as
        # a program call
        return [id(d) for d in getattr(args[0], "_dist_cache", {}).values()]

    def _post_bfs(self, args, kwargs, result, dur, before) -> None:
        self._bump("spaces.bfs.hits" if id(result) in before else "spaces.bfs.sources")

    def _post_steps(self, args, kwargs, result, dur, _) -> None:
        self._bump("experiments.walk.steps", args[1] if len(args) > 1 else kwargs["count"])

    def _hooks(self, key: str):
        pre = post = None
        if key == "groups.word_distance":
            post = self._post_word_distance
        elif key == "groups.ball":
            post = self._post_ball
        elif key == "projections.project_to_set":
            post = self._post_project
        elif key == "spaces.FiniteGraphSpace.distances_from":
            pre, post = self._pre_bfs, self._post_bfs
        elif key == "experiments.FreeWalk.steps":
            post = self._post_steps
        return pre, post

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key: str, fn):
        st = self.stats[key]
        if key in COUNT_ONLY:
            return _counted(fn, st)
        parts = key.split(".")
        leaf = key in LEAF_FUNCTIONS or (len(parts) == 3 and parts[0] in LEAF_CLASS_LAYERS)
        pre, post = self._hooks(key)
        return self._timed(key, fn, st, self.key_layer[key], leaf, pre, post)

    def _timed(self, key, fn, st, layer, leaf, pre, post):
        tracer = self

        def timed(*args, **kwargs):
            stack = tracer.stack
            top = stack[-1]
            token = pre(args) if pre is not None else None
            span = not leaf and top[2] != layer
            if span:
                sid = len(tracer.spans)
                if sid < SPAN_CAP:
                    tracer.spans.append(None)
                else:
                    tracer.spans_dropped += 1
                    span = False
                    sid = top[3]
            else:
                sid = top[3]
            frame = [0.0, 0, layer, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur - frame[0]
                st[2] += dur
                st[3] += frame[1]
                top[0] += dur
                top[1] += 1
                if span:
                    tracer.spans[sid] = (tracer._name(key), t0, t1, top[3])
            if post is not None:
                post(args, kwargs, result, dur, token)
            return result

        return timed

    def _calibrate(self, calls: int = 20000, rounds: int = 5) -> dict[str, float]:
        """Per-call cost of the wrappers, fastest of a few rounds.

        `inside` is the part a timed call adds between its own clock reads
        (charged to the callee), `outside` the part its caller pays, `count`
        the whole cost of a counting wrapper.
        """

        def noop():
            return None

        best = {"inside": float("inf"), "outside": float("inf"), "count": float("inf")}
        for _ in range(rounds):
            st = [0, 0.0, 0.0, 0]
            timed = self._timed("calibration", noop, st, self.layer_index[BENCH], True, None, None)
            counted = _counted(noop, [0, 0.0, 0.0, 0])
            self.stack = [[0.0, 0, self.layer_index[BENCH], -1]]
            t = clock()
            for _ in range(calls):
                noop()
            bare = (clock() - t) / calls
            t = clock()
            for _ in range(calls):
                timed()
            total = (clock() - t) / calls - bare
            t = clock()
            for _ in range(calls):
                counted()
            best["count"] = min(best["count"], max(0.0, (clock() - t) / calls - bare))
            inside = max(0.0, st[2] / calls - bare)
            best["inside"] = min(best["inside"], inside)
            best["outside"] = min(best["outside"], max(0.0, total - inside))
        return best

    def install(self) -> None:
        if not self.wrappers:
            self.wrappers = {k: self._wrap(k, f) for k, f in self.originals.items()}
        for owner, attr, key in self.owners:
            setattr(owner, attr, self.wrappers[key])

    def uninstall(self) -> None:
        for owner, attr, key in self.owners:
            setattr(owner, attr, self.originals[key])

    def unpatched(self) -> list[str]:
        """Names in any ggtlab namespace or class that still hold an original."""
        ids = {id(f) for f in self.originals.values()}
        left = []
        for mod in self.modules.values():
            for name, obj in vars(mod).items():
                if id(obj) in ids:
                    left.append(f"{mod.__name__}.{name}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, meth in vars(obj).items():
                        if id(meth) in ids:
                            left.append(f"{mod.__name__}.{obj.__qualname__}.{attr}")
        return left

    # -- job spans -------------------------------------------------------------

    def job_begin(self, name: str):
        top = self.stack[-1]
        sid = len(self.spans)
        self.spans.append(None)
        frame = [0.0, 0, self.layer_index[BENCH], sid]
        self.stack.append(frame)
        return (name, sid, top, frame, clock())

    def job_end(self, token) -> None:
        name, sid, top, frame, t0 = token
        t1 = clock()
        self.stack.pop()
        dur = t1 - t0
        self._bump("bench.self_s", dur - frame[0])
        self._bump("bench.children", frame[1])
        top[0] += dur
        top[1] += 1
        self.spans[sid] = (self._name(f"job:{name}"), t0, t1, top[3])

    # -- results ---------------------------------------------------------------

    def self_time(self, key: str) -> float:
        """Self seconds of one wrapped function, less the wrappers' own cost."""
        st = self.stats.get(key)
        if st is None or key in COUNT_ONLY:
            return 0.0
        oh = self.overhead
        return max(0.0, st[1] - st[0] * oh["inside"] - st[3] * oh["outside"])

    def layer_self(self, wall: float) -> dict[str, float]:
        """Self seconds per layer, wrapper cost removed; `bench` is the job
        runner's own time (pass wall minus the wrapped calls it made)."""
        oh = self.overhead
        out = {name: 0.0 for name in LAYERS}
        for key, st in self.stats.items():
            layer = key.split(".", 1)[0]
            if key in COUNT_ONLY:
                # paid inside the calling frame, which is the same layer
                out[layer] -= st[0] * oh["count"]
            else:
                out[layer] += self.self_time(key)
        root = self.stack[0]
        out[BENCH] = (
            wall - root[0] + self.extra.get("bench.self_s", 0.0)
            - self.extra.get("bench.children", 0) * oh["outside"]
        )
        return {k: max(0.0, v) for k, v in out.items()}

    def layer_calls(self) -> dict[str, int]:
        out = {name: 0 for name in LAYERS}
        for key, st in self.stats.items():
            out[key.split(".", 1)[0]] += st[0]
        return out

    def _keys(self, prefix: str, suffix: str = "") -> list[str]:
        return [k for k in self.stats if k.startswith(prefix) and k.endswith(suffix)]

    def _calls(self, prefix: str, suffix: str = "") -> int:
        return sum(self.stats[k][0] for k in self._keys(prefix, suffix))

    def _self(self, prefix: str, suffix: str = "") -> float:
        return sum(self.self_time(k) for k in self._keys(prefix, suffix))

    def metrics(self, wall: float, line_data_info) -> dict:
        """Per-layer metrics of one traced pass, by the names BENCHMARK.json uses."""
        oh = self.overhead
        m: dict[str, float] = {}
        selfs = self.layer_self(wall)
        calls = self.layer_calls()
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = selfs[layer]
        m["bench.self_s"] = selfs[BENCH]
        m["groups.normalize.calls"] = self._calls("groups.", ".normalize")
        m["groups.normalize.self_s"] = self._self("groups.", ".normalize")
        m["groups.validate_letters.calls"] = self._calls("groups.", ".validate_letters")
        m["groups.word_mul.calls"] = self._calls("groups.Word.__mul__")
        m["groups.hash.calls"] = self._calls("groups.", ".__hash__")
        m["groups.sort_key.calls"] = self._calls("groups.Word.sort_key")
        for fam in FAMILIES.values():
            n, t = self.family_time.get(fam, (0, 0.0))
            m[f"groups.word_distance.us_per_call.{fam}"] = 1e6 * t / n if n else 0.0
        m["groups.ball.words"] = self.extra.get("groups.ball.words", 0)
        m["groups.ball.self_s"] = self.self_time("groups.ball")
        m["spaces.space_distance.calls"] = self._calls("spaces.space_distance")
        m["spaces.bass_serre.distance.calls"] = self._calls("spaces.BassSerreTree.distance")
        m["spaces.bass_serre.self_s"] = self._self("spaces.BassSerreTree.")
        hits = self.extra.get("spaces.bfs.hits", 0)
        sources = self.extra.get("spaces.bfs.sources", 0)
        m["spaces.bfs.sources"] = sources
        m["spaces.bfs.cache_hit_ratio"] = hits / (hits + sources) if hits + sources else 0.0
        m["spaces.bfs.self_s"] = self.self_time("spaces.FiniteGraphSpace.distances_from")
        m["spaces.cone_off.self_s"] = self.self_time("spaces.cone_off")
        for method in ("analytic", "scan_axis", "scan_finite"):
            m[f"projections.project.calls.{method}"] = self.extra.get(f"projections.project.calls.{method}", 0)
        m["projections.project.self_s"] = self.self_time("projections.project_to_set")
        m["projections.coset_rep_key.calls"] = self._calls("projections.coset_rep_key")
        m["projections.coset_rep_key.self_s"] = self.self_time("projections.coset_rep_key")
        info = line_data_info
        looked_up = info.hits + info.misses if info is not None else 0
        m["projections.line_data.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        m["projections.enumerate_cosets.self_s"] = self.self_time("projections.enumerate_cosets")
        m["chains.law.calls"] = self._calls("chains.", ".law")
        m["chains.law.self_s"] = self._self("chains.", ".law")
        m["chains.step.calls"] = self._calls("chains.", ".step")
        qi_keys = [k for k in self._keys("chains.") if _is_qi_key(k, self.modules["chains"])]
        m["chains.qi.apply_calls"] = sum(self.stats[k][0] for k in qi_keys if k.endswith(".apply"))
        m["chains.qi.inverse_calls"] = sum(self.stats[k][0] for k in qi_keys if k.endswith(".inverse"))
        m["chains.simulate.self_s"] = self.self_time("chains.simulate")
        m["chains.dp.self_s"] = sum(
            self.self_time(f"chains.{name}")
            for name in ("check_irreducibility", "estimate_nonamenability", "reach_probability")
        )
        steps = self.extra.get("experiments.walk.steps", 0)
        pushes = self._calls("experiments.AxisTracker.push")
        walk = self.stats.get("experiments.FreeWalk.steps", [0, 0.0, 0.0, 0])
        walk_s = walk[2] - walk[0] * oh["inside"] - pushes * oh["count"]
        m["experiments.walk.steps"] = steps
        m["experiments.walk.us_per_step"] = 1e6 * walk_s / steps if steps else 0.0
        m["experiments.tracker.pushes"] = pushes
        m["trace.spans"] = len(self.spans)
        m["trace.spans_dropped"] = self.spans_dropped
        return m

    def span_records(self) -> dict:
        return {
            "names": list(self.names),
            "spans": [list(sp) for sp in self.spans if sp is not None],
            "origin": self.root_start,
        }


def _is_qi_key(key: str, chains_mod) -> bool:
    cls_name = key.split(".")[1]
    cls = getattr(chains_mod, cls_name, None)
    base = getattr(chains_mod, "BijectiveQI", None)
    return inspect.isclass(cls) and base is not None and issubclass(cls, base)


def shares(layer_self: dict[str, float]) -> dict[str, float]:
    total = sum(layer_self.values()) or 1.0
    return {k: v / total for k, v in layer_self.items()}


def predictions(workload: str, share: dict[str, float]) -> dict[str, bool]:
    """The workload rationale's share claims, evaluated on a traced pass."""
    layers_only = {k: v for k, v in share.items() if k in LAYERS}
    largest = max(layers_only, key=layers_only.get)
    if workload == "exact-geometry":
        return {"groups has the largest self-time share": largest == "groups"}
    if workload == "mc-invariant":
        return {
            "groups under 5%": share["groups"] < 0.05,
            "experiments has the largest self-time share": largest == "experiments",
        }
    if workload == "chain-pushforward":
        return {"chains plus groups over half": share["chains"] + share["groups"] > 0.5}
    return {}


def _counted(fn, st):
    def counted(*args, **kwargs):
        st[0] += 1
        return fn(*args, **kwargs)

    return counted
