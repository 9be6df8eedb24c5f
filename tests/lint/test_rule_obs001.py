"""OBS001: metric registrations must match the docs catalogue."""

from __future__ import annotations

import pytest

from repro.lint.context import METRIC_CATALOGUE_PATH, ProjectContext

from .conftest import lint_snippet

CATALOGUE = """\
# Observability

| metric | kind | meaning |
| --- | --- | --- |
| `sim.events_fired` | counter | events executed |
| `core.queries_served{kind=location\\|path}` | counter | BIPS queries |

| span | category | kind | meaning |
| --- | --- | --- | --- |
| `lan.transit` | lan | interval | one wire copy |

Prose mentioning `not.a.catalogued.metric` must not register it.
"""


@pytest.fixture
def project(tmp_path) -> ProjectContext:
    doc = tmp_path / METRIC_CATALOGUE_PATH
    doc.parent.mkdir(parents=True)
    doc.write_text(CATALOGUE, encoding="utf-8")
    return ProjectContext(root=tmp_path)


def obs_findings(source: str, project: ProjectContext, module: str = "repro.obs.bad"):
    return [
        d
        for d in lint_snippet(source, module=module, project=project)
        if d.rule == "OBS001"
    ]


class TestCatalogueParsing:
    def test_table_names_are_collected(self, project):
        catalogue = project.metric_catalogue()
        assert "sim.events_fired" in catalogue

    def test_label_suffix_is_stripped(self, project):
        assert "core.queries_served" in project.metric_catalogue()

    def test_prose_outside_tables_is_ignored(self, project):
        assert "not.a.catalogued.metric" not in project.metric_catalogue()

    def test_missing_catalogue_yields_none(self, tmp_path):
        assert ProjectContext(root=tmp_path).metric_catalogue() is None

    def test_real_catalogue_loads(self):
        from .conftest import REPO_ROOT

        catalogue = ProjectContext(root=REPO_ROOT).metric_catalogue()
        assert catalogue is not None
        assert "sim.events_fired" in catalogue


class TestRule:
    def test_uncatalogued_metric_flagged(self, project):
        source = "def f(metrics):\n    metrics.counter('sim.not_documented').inc()\n"
        findings = obs_findings(source, project)
        assert len(findings) == 1
        assert "sim.not_documented" in findings[0].message

    def test_catalogued_metric_passes(self, project):
        source = "def f(metrics):\n    metrics.counter('sim.events_fired').inc()\n"
        assert obs_findings(source, project) == []

    def test_labelled_catalogue_entry_matches_bare_name(self, project):
        source = (
            "def f(metrics):\n"
            "    metrics.counter('core.queries_served', kind='location').inc()\n"
        )
        assert obs_findings(source, project) == []

    def test_all_registration_methods_are_checked(self, project):
        source = (
            "def f(metrics):\n"
            "    metrics.gauge('x.one').set(1)\n"
            "    metrics.histogram('x.two', buckets=(1,)).observe(0)\n"
        )
        assert len(obs_findings(source, project)) == 2

    def test_dotless_names_are_out_of_scope(self, project):
        source = "def f(c):\n    c.counter('plain')\n"
        assert obs_findings(source, project) == []

    def test_dynamic_names_pass_only_in_the_registry(self, project):
        source = "def f(metrics, name):\n    metrics.counter(name).inc()\n"
        assert len(obs_findings(source, project)) == 1
        assert obs_findings(source, project, module="repro.obs.metrics") == []

    def test_forwarding_helper_is_flagged(self, project):
        # A helper that forwards the series name hides a misspelling
        # from the literal check at its call sites.
        source = (
            "class Runner:\n"
            "    def _count(self, name, amount=1):\n"
            "        self.metrics.counter(name).inc(amount)\n"
            "\n"
            "    def run(self):\n"
            "        self._count('runner.trials_dispatchd')\n"
        )
        findings = obs_findings(source, project, module="repro.runner.executor")
        assert len(findings) == 1
        assert "not a string literal" in findings[0].message
        assert findings[0].line == 3

    def test_no_catalogue_means_no_findings(self):
        source = "def f(metrics):\n    metrics.counter('sim.whatever').inc()\n"
        detached = ProjectContext(root=None)
        assert obs_findings(source, detached) == []

    def test_lint_package_itself_is_exempt(self, project):
        source = "def f(metrics):\n    metrics.counter('sim.not_documented').inc()\n"
        assert obs_findings(source, project, module="repro.lint.fixture") == []


class TestSpanNames:
    def test_uncatalogued_span_flagged(self, project):
        source = "def f(spans, t):\n    spans.begin('lan.tranist', 'lan', t)\n"
        findings = obs_findings(source, project)
        assert len(findings) == 1
        assert "span 'lan.tranist'" in findings[0].message

    def test_catalogued_span_passes(self, project):
        source = (
            "def f(spans, t):\n"
            "    spans.begin('lan.transit', 'lan', t)\n"
            "    spans.instant('lan.transit', 'lan', t, outcome='dropped')\n"
        )
        assert obs_findings(source, project) == []

    def test_uncatalogued_instant_flagged(self, project):
        source = "def f(spans, t):\n    spans.instant('core.nope', 'core', t)\n"
        assert len(obs_findings(source, project)) == 1

    def test_dynamic_span_names_are_out_of_scope(self, project):
        # The kernel opens spans named after dynamic event labels.
        source = "def f(spans, label, t):\n    spans.begin(label, 'kernel', t)\n"
        assert obs_findings(source, project) == []

    def test_profiler_begin_without_args_is_out_of_scope(self, project):
        source = "def f(prof):\n    token = prof.begin()\n"
        assert obs_findings(source, project) == []
