from floqep.cache import SolveCache


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
