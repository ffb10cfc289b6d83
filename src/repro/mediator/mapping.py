"""The Mapping module: correspondences, mapping rules, transformations.

Figure 1 shows the Mapping module feeding the mediator with *mapping
rules*, *transformation calls* and *annotation database descriptions*.
:class:`MappingModule` runs MDSM once per registered wrapper, stores
the resulting correspondence sets, and translates records between
local and global vocabularies, applying registered value
transformations on the way.
"""

from repro.matching.mdsm import MdsmMatcher
from repro.mediator.global_schema import GlobalSchema
from repro.util.errors import ConfigurationError, IntegrationError


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
        tolerance of irregular structure).  List values are copied, so
        answer rows never share a list with the source's extent.
        """
        correspondence_set = self.correspondences(source_name)
        # Prefer the wrapper's memoized specs; plain field_specs() keeps
        # duck-typed test doubles working.
        specs_accessor = getattr(wrapper, "_specs", wrapper.field_specs)
        specs = specs_accessor()
        rules = self._transform_rules.get(source_name, {})
        translated = {}
        for label, (source_field, _type, _multi, _desc) in specs.items():
            if source_field not in record:
                continue
            value = record[source_field]
            global_name = correspondence_set.to_global(label)
            key = global_name or f"{source_name}.{label}"
            if global_name and global_name in rules:
                transform = self.transforms.get(rules[global_name])
                if isinstance(value, list):
                    value = [transform(item) for item in value]
                else:
                    value = transform(value)
            elif isinstance(value, list):
                value = list(value)
            translated[key] = value
        return translated

    def render(self):
        lines = ["mapping module state:"]
        for source_name in self.sources():
            lines.append(self._correspondences[source_name].render())
        return "\n".join(lines)
