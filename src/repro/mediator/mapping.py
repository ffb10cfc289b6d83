"""The Mapping module: correspondences, mapping rules, transformations.

Figure 1 shows the Mapping module feeding the mediator with *mapping
rules*, *transformation calls* and *annotation database descriptions*.
:class:`MappingModule` runs MDSM once per registered wrapper, stores
the resulting correspondence sets, and translates records between
local and global vocabularies, applying registered value
transformations on the way.

Translation follows a *compiled plan* per source: the ordered
``(source field, global key, transform name)`` triples of its wrapper,
resolved once instead of once per record.  A plan is rebuilt whenever
a rule change (:meth:`MappingModule.add_transform_rule`) or a
re-registration could have changed it, and it names its transforms
instead of holding them.  :meth:`MappingModule.translation_steps`
resolves those names to functions when it is called, so a function
re-registered under a name in the :class:`TransformRegistry` reaches
the next translation — and steps taken earlier keep the functions of
their own time.  :func:`translate` is the one per-field loop over
them.  Values cached from translated records — whole answers and
enrichment details — carry :meth:`MappingModule.transform_rules` in
their identity, so a rule change re-keys them.
"""

from repro.matching.mdsm import MdsmMatcher
from repro.mediator.global_schema import GlobalSchema
from repro.util.errors import ConfigurationError, IntegrationError


def translate(record, steps):
    """``record`` re-keyed into global vocabulary by translation
    ``steps`` (:meth:`MappingModule.translation_steps`).

    A step whose source field the record lacks is skipped.  List
    values are copied, so a translated row never shares a list with
    the source's extent.
    """
    translated = {}
    for source_field, key, transform in steps:
        if source_field not in record:
            continue
        value = record[source_field]
        if transform is not None:
            if isinstance(value, list):
                value = [transform(item) for item in value]
            else:
                value = transform(value)
        elif isinstance(value, list):
            value = list(value)
        translated[key] = value
    return translated


class TransformRegistry:
    """Named value transformations applied during translation.

    The defaults cover the conversions the three paper sources need;
    new specialty functions can be registered at run time (Table 1
    row: *"integration of new specialty evaluation functions:
    supported"*).
    """

    def __init__(self):
        self._functions = {}
        self.register("identity", lambda value: value)
        self.register("uppercase", lambda value: str(value).upper())
        self.register("lowercase", lambda value: str(value).lower())
        self.register("strip", lambda value: str(value).strip())
        self.register("to_string", str)
        self.register("to_integer", int)

    def register(self, name, function):
        if not callable(function):
            raise ConfigurationError(f"transform {name!r} is not callable")
        self._functions[name] = function

    def get(self, name):
        try:
            return self._functions[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown transform {name!r}; registered: "
                f"{sorted(self._functions)}"
            ) from None

    def names(self):
        return sorted(self._functions)

    def apply(self, name, value):
        return self.get(name)(value)


class MappingModule:
    """Per-source correspondences plus translation machinery."""

    def __init__(self, global_schema=None, matcher=None, transforms=None):
        self.global_schema = global_schema or GlobalSchema()
        self.matcher = matcher or MdsmMatcher()
        self.transforms = transforms or TransformRegistry()
        self._correspondences = {}
        self._transform_rules = {}
        self._descriptions = {}
        # (source, global label) -> local label memo; the executor
        # resolves the same handful of labels per record per condition,
        # so each resolution after the first is one dict hit.  Entries
        # are dropped when their source unregisters.
        self._local_label_memo = {}
        # source -> (wrapper, rules generation, plan): the compiled
        # translation plan (see translation_steps).  A plan is valid for
        # its wrapper while the generation, bumped by every rule change
        # and unregistration, stands.
        self._plans = {}
        self._rules_generation = 0

    # -- registration -----------------------------------------------------------

    def register_wrapper(self, wrapper):
        """Run schema matching for ``wrapper`` and remember the results.

        This is step 1 of the paper's add-a-new-source procedure:
        *"mapping new annotation data source to the ANNODA global
        schema by using the mapping rules, transformation, and database
        descriptions"*.
        """
        if wrapper.name in self._correspondences:
            raise IntegrationError(
                f"source {wrapper.name!r} is already mapped"
            )
        correspondence_set = self.matcher.match(
            wrapper.name,
            wrapper.schema_elements(),
            self.global_schema.elements(),
        )
        self._correspondences[wrapper.name] = correspondence_set
        self._descriptions[wrapper.name] = wrapper.describe()
        return correspondence_set

    def unregister(self, source_name):
        self._correspondences.pop(source_name, None)
        self._descriptions.pop(source_name, None)
        self._transform_rules.pop(source_name, None)
        self._rules_generation += 1
        self._plans.pop(source_name, None)
        self._local_label_memo = {
            key: value
            for key, value in self._local_label_memo.items()
            if key[0] != source_name
        }

    def add_transform_rule(self, source_name, global_name, transform_name):
        """Attach a named transformation to one global attribute of one
        source (e.g. uppercase OMIM gene symbols during translation)."""
        self.transforms.get(transform_name)  # validate it exists
        self._transform_rules.setdefault(source_name, {})[global_name] = (
            transform_name
        )
        self._rules_generation += 1

    def transform_rules(self, source_name=None):
        """The transform rules as sorted ``(source, global attribute,
        transform name)`` triples — of one source, or of every source.

        Part of the identity of everything cached from translated
        records (answers, enrichment details), so adding a rule re-keys
        them instead of serving values translated without it.
        """
        return tuple(
            sorted(
                (source, global_name, transform_name)
                for source, rules in self._transform_rules.items()
                if source_name is None or source == source_name
                for global_name, transform_name in rules.items()
            )
        )

    # -- lookups -----------------------------------------------------------------

    def sources(self):
        return sorted(self._correspondences)

    def correspondences(self, source_name):
        try:
            return self._correspondences[source_name]
        except KeyError:
            raise IntegrationError(
                f"source {source_name!r} has not been mapped"
            ) from None

    def description(self, source_name):
        return self._descriptions.get(source_name, "")

    def sources_providing(self, global_name):
        """Sources whose local model covers a global attribute."""
        return [
            source_name
            for source_name in self.sources()
            if self._correspondences[source_name].to_local(global_name)
            is not None
        ]

    # -- translation ----------------------------------------------------------------

    def to_local_label(self, source_name, global_name):
        memo_key = (source_name, global_name)
        local = self._local_label_memo.get(memo_key)
        if local is None:
            local = self.correspondences(source_name).to_local(global_name)
            if local is None:
                raise IntegrationError(
                    f"source {source_name!r} has no element for global "
                    f"attribute {global_name!r}"
                )
            self._local_label_memo[memo_key] = local
        return local

    def to_global_label(self, source_name, local_name):
        return self.correspondences(source_name).to_global(local_name)

    def translate_record(self, source_name, record, wrapper):
        """A source record dict re-keyed into global vocabulary.

        Unmatched local fields are kept under their local names
        prefixed with the source (provenance-preserving, per OEM's
        tolerance of irregular structure); see :func:`translate`.
        """
        return translate(
            record, self.translation_steps(source_name, wrapper)
        )

    def translation_steps(self, source_name, wrapper):
        """The ``(source field, global key, transform function or
        None)`` steps translating ``wrapper``'s records: the compiled
        plan, with each transform resolved to its function now.  A
        holder of the steps keeps these functions even when a rule is
        added or a function re-registered later."""
        plan = self._plans.get(source_name)
        if plan is None or plan[0] is not wrapper or (
            plan[1] != self._rules_generation
        ):
            plan = self._compile_plan(source_name, wrapper)
        if source_name not in self._transform_rules:
            # No rule, so every transform name in the plan is None.
            return plan[2]
        get = self.transforms.get
        return tuple(
            (source_field, key, None if name is None else get(name))
            for source_field, key, name in plan[2]
        )

    def _compile_plan(self, source_name, wrapper):
        """``(wrapper, generation, steps)``: the ordered ``(source
        field, global key, transform name or None)`` steps translating
        ``wrapper``'s records, remembered for later records."""
        generation = self._rules_generation
        correspondence_set = self.correspondences(source_name)
        # Prefer the wrapper's memoized specs; plain field_specs() keeps
        # duck-typed test doubles working.
        specs_accessor = getattr(wrapper, "_specs", wrapper.field_specs)
        rules = self._transform_rules.get(source_name, {})
        steps = []
        for label, (source_field, _type, _multi, _desc) in (
            specs_accessor().items()
        ):
            global_name = correspondence_set.to_global(label)
            steps.append(
                (
                    source_field,
                    global_name or f"{source_name}.{label}",
                    rules.get(global_name) if global_name else None,
                )
            )
        plan = (wrapper, generation, tuple(steps))
        self._plans[source_name] = plan
        return plan

    def render(self):
        lines = ["mapping module state:"]
        for source_name in self.sources():
            lines.append(self._correspondences[source_name].render())
        return "\n".join(lines)
