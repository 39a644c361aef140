import pytest

from floqep.cache import SolveCache
from floqep.errors import ModelError


class TestSolveCache:
    def test_flush_keeps_records_of_another_store(self, tmp_path):
        # two processes sharing one --cache file: each flush must merge
        # the records already on disk instead of overwriting them
        path = tmp_path / "cache.json"
        first, second = SolveCache(path), SolveCache(path)
        first.put("a", {"x": 1})
        first.flush()
        second.put("b", {"x": 2})
        second.flush()
        merged = SolveCache(path)
        assert merged.get("a") == {"x": 1}
        assert merged.get("b") == {"x": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    def test_no_path_keeps_records_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = SolveCache(None)
        store.put("a", {"x": 1})
        store.flush()
        assert store.get("a") == {"x": 1}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ['{"a": ', "[1, 2]"])
    def test_malformed_file_names_its_path(self, tmp_path, text):
        path = tmp_path / "cache.json"
        path.write_text(text)
        with pytest.raises(ModelError, match="cache.json: not a solve cache"):
            SolveCache(path)
        # a file spoiled after the store was opened fails at flush
        path.write_text("{}")
        store = SolveCache(path)
        store.put("a", {"x": 1})
        path.write_text(text)
        with pytest.raises(ModelError, match="cache.json: not a solve cache"):
            store.flush()
